//! Simulated client connections.
//!
//! Each connection is a tiny pgwire-style state machine: it sends a
//! [`Frame::Startup`], waits for [`Frame::Ready`], then repeatedly
//! offers the full pipelined simple-query cycle
//! `Parse → Bind → Execute → Sync` and digests whatever the server
//! answers. A connection that is told [`Frame::Busy`] (load shed) or
//! given an error backs off for a seeded-random number of turns before
//! offering again — tens of thousands of these multiplex onto a handful
//! of engine sessions without coordinated clocks.
//!
//! Connections are *pull-driven*: the dispatch loop polls
//! [`ClientConn::take_output`] during intake; a connection mid-pipeline
//! or mid-backoff offers nothing. All client-side work is host-side
//! (clients are remote — their cycles are not the server's); the
//! server charges simulated parse/respond work against the connection's
//! simulated buffer when it touches these bytes.

use uarch_sim::rng::{splitmix64, Fnv};

use crate::wire::Frame;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Never spoke; next output is Startup.
    Fresh,
    /// Startup sent; waiting for Ready.
    AwaitReady,
    /// May offer a query pipeline.
    Ready,
    /// Pipeline sent; waiting for the terminal Ready.
    InFlight,
    /// Received Terminate semantics (unused by the benchmark driver, but
    /// the state machine supports closing).
    Closed,
}

/// One simulated client connection.
#[derive(Debug)]
pub struct ClientConn {
    /// Globally unique connection id (also the Startup payload).
    pub id: u64,
    /// Simulated-memory address of this connection's wire buffer; the
    /// server reads request bytes from / writes response bytes to it.
    pub buf: u64,
    state: State,
    rng: u64,
    /// Turn before which this connection stays silent (backoff).
    resume_at: u64,
    /// Committed executes observed (Complete frames).
    pub committed: u64,
    /// Load sheds observed (Busy frames).
    pub busy: u64,
    /// Error frames observed.
    pub errors: u64,
    /// Total server frames observed.
    pub responses: u64,
    /// FNV-1a over every response byte, in delivery order.
    pub digest: u64,
}

impl ClientConn {
    /// A fresh connection. `seed` scopes the backoff jitter stream.
    pub fn new(id: u64, buf: u64, seed: u64) -> Self {
        ClientConn {
            id,
            buf,
            state: State::Fresh,
            rng: splitmix64(seed ^ id.wrapping_mul(Fnv::PRIME)).max(1),
            resume_at: 0,
            committed: 0,
            busy: 0,
            errors: 0,
            responses: 0,
            digest: Fnv::default().0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: cheap, never zero.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Whether the connection has received at least one server frame
    /// (i.e. it has been through the service path).
    pub fn served(&self) -> bool {
        self.responses > 0
    }

    /// Offer the next batch of request bytes, if the connection has
    /// something to say at `turn`. Encoding is host-side; the returned
    /// bytes are what the server will charge its parse stage for.
    pub fn take_output(&mut self, turn: u64, stmt: &str) -> Option<Vec<u8>> {
        if turn < self.resume_at {
            return None;
        }
        match self.state {
            State::Fresh => {
                let mut out = Vec::with_capacity(16);
                Frame::Startup { conn: self.id }.encode(&mut out);
                self.state = State::AwaitReady;
                Some(out)
            }
            State::Ready => {
                let mut out = Vec::with_capacity(64);
                Frame::Parse { stmt: stmt.into() }.encode(&mut out);
                Frame::Bind {
                    args: vec![self.id as i64],
                }
                .encode(&mut out);
                Frame::Execute.encode(&mut out);
                Frame::Sync.encode(&mut out);
                self.state = State::InFlight;
                Some(out)
            }
            State::AwaitReady | State::InFlight | State::Closed => None,
        }
    }

    /// Deliver encoded response bytes (decode is host-side client work).
    pub fn deliver(&mut self, turn: u64, bytes: &[u8]) {
        self.digest = Fnv(self.digest).bytes(bytes).0;
        let mut at = 0;
        while at < bytes.len() {
            let (frame, used) = Frame::decode(&bytes[at..]).expect("server sent a bad frame");
            at += used;
            self.responses += 1;
            match frame {
                Frame::Ready => {
                    if self.state != State::Closed {
                        self.state = State::Ready;
                    }
                }
                Frame::Complete { .. } => self.committed += 1,
                Frame::Busy { .. } => {
                    self.busy += 1;
                    self.back_off(turn);
                }
                Frame::Error { .. } => {
                    self.errors += 1;
                    self.back_off(turn);
                }
                Frame::ParseComplete | Frame::BindComplete => {}
                other => panic!("client received a client frame: {other:?}"),
            }
        }
    }

    fn back_off(&mut self, turn: u64) {
        // 16..=79 turns of seeded jitter: enough to de-synchronize the
        // herd without parking a connection for a whole smoke window.
        self.resume_at = turn + 16 + (self.next_rand() & 63);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn respond(conn: &mut ClientConn, turn: u64, frames: &[Frame]) {
        let mut buf = Vec::new();
        for f in frames {
            f.encode(&mut buf);
        }
        conn.deliver(turn, &buf);
    }

    #[test]
    fn follows_the_pipeline_state_machine() {
        let mut c = ClientConn::new(7, 0x1000, 42);
        // First output is Startup, then silence until Ready arrives.
        let hello = c.take_output(0, "micro").unwrap();
        assert_eq!(Frame::decode(&hello).unwrap().0, Frame::Startup { conn: 7 });
        assert!(c.take_output(1, "micro").is_none());
        respond(&mut c, 1, &[Frame::Ready]);
        // Full pipeline next, then in-flight silence.
        let pipe = c.take_output(2, "micro").unwrap();
        let (first, _) = Frame::decode(&pipe).unwrap();
        assert_eq!(
            first,
            Frame::Parse {
                stmt: "micro".into()
            }
        );
        assert!(c.take_output(3, "micro").is_none());
        respond(
            &mut c,
            3,
            &[
                Frame::ParseComplete,
                Frame::BindComplete,
                Frame::Complete { rows: 1 },
                Frame::Ready,
            ],
        );
        assert_eq!(c.committed, 1);
        assert!(c.served());
        // Ready again: offers the next pipeline.
        assert!(c.take_output(4, "micro").is_some());
    }

    #[test]
    fn busy_backs_off_then_retries() {
        let mut c = ClientConn::new(9, 0x2000, 42);
        c.take_output(0, "micro");
        respond(&mut c, 0, &[Frame::Ready]);
        c.take_output(1, "micro").unwrap();
        respond(
            &mut c,
            1,
            &[
                Frame::ParseComplete,
                Frame::BindComplete,
                Frame::Busy { depth: 64 },
                Frame::Ready,
            ],
        );
        assert_eq!(c.busy, 1);
        // Silent during backoff, talking again afterwards.
        assert!(c.take_output(2, "micro").is_none());
        assert!(c.take_output(1 + 16 + 64, "micro").is_some());
    }

    #[test]
    fn digest_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = ClientConn::new(3, 0, seed);
            c.take_output(0, "micro");
            respond(&mut c, 0, &[Frame::Ready]);
            c.take_output(1, "micro");
            respond(&mut c, 1, &[Frame::Busy { depth: 1 }, Frame::Ready]);
            (c.digest, c.resume_at)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1, "jitter must depend on the seed");
    }
}
