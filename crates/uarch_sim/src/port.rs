//! Owned core ports: exclusive, checked-out handles to one simulated core.
//!
//! The machine hands out **at most one** [`CorePort`] per core. While a
//! port is outstanding the core's state is accessed without any lock: the
//! port-holding session's accesses go straight to the core's private
//! caches and counters, and cross-core effects (store invalidations,
//! inclusive-LLC back-invalidations) arrive through the core's coherence
//! queue instead of a lock walk (see [`crate::coherence`]).
//!
//! # Ownership and threads
//!
//! A `CorePort` is `Send` but not `Sync`: a session (and the port inside
//! it) may migrate between threads — the threaded stress tests open
//! sessions on one thread and drive them from others — but only **one
//! thread at a time** may drive a ported core. (The experiment harness
//! drives every worker's session from the calling thread.) The machine
//! tracks the *claiming thread* with a lightweight token: the first access
//! after checkout (or after a cross-thread move) re-claims the core for
//! the calling thread. Migration is safe because moving the session
//! establishes a happens-before edge; concurrently driving one ported core
//! from two threads is a contract violation (debug builds detect it and
//! panic).
//!
//! Accesses to a core whose port is *not* checked out fall back to a
//! transient per-core spinlock, so legacy call sites (machine-level tests,
//! cross-core setup traffic, a second session opened on an already-ported
//! core from the same thread) keep working unchanged.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Sim;

/// Owner token meaning "checked out, not yet claimed by any thread".
pub(crate) const UNCLAIMED: u64 = 0;

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic per-thread token used to stamp core ownership. Never zero.
#[inline]
pub(crate) fn thread_token() -> u64 {
    TOKEN.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Exclusive handle to one simulated core (RAII: checking the port back in
/// happens on drop). Obtained from [`Sim::try_checkout`] / [`Sim::checkout`].
///
/// Holding the port is what enables the lock-free access path for its
/// core; the port itself is a capability, not a data handle — sessions
/// keep using [`crate::Mem`] for traffic.
pub struct CorePort {
    sim: Sim,
    core: usize,
    /// `!Sync`: one thread at a time may drive a ported core.
    _single_thread: PhantomData<Cell<()>>,
}

impl CorePort {
    pub(crate) fn new(sim: Sim, core: usize) -> Self {
        CorePort {
            sim,
            core,
            _single_thread: PhantomData,
        }
    }

    /// The core this port owns.
    pub fn core(&self) -> usize {
        self.core
    }
}

impl Drop for CorePort {
    fn drop(&mut self) {
        self.sim.machine().checkin(self.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn double_checkout_is_an_error() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let p0 = sim.try_checkout(0).expect("first checkout");
        assert!(sim.try_checkout(0).is_none(), "core 0 is already ported");
        let p1 = sim.try_checkout(1).expect("other cores unaffected");
        assert_eq!(p0.core(), 0);
        assert_eq!(p1.core(), 1);
        drop(p0);
        // Checked back in: available again.
        assert!(sim.try_checkout(0).is_some());
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn checkout_panics_on_conflict() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let _p = sim.checkout(0);
        let _q = sim.checkout(0);
    }

    #[test]
    fn ported_and_legacy_paths_agree() {
        // The same access stream must produce identical counters whether
        // the core is ported or driven through the fallback spinlock path.
        let run = |ported: bool| {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let port = ported.then(|| sim.checkout(0));
            let buf = sim.alloc(1 << 16, 64);
            let mem = sim.mem(0);
            for i in 0..5_000u64 {
                mem.read(buf + (i % 512) * 64, 8);
                if i % 7 == 0 {
                    mem.write(buf + (i % 1024) * 64, 8);
                }
            }
            mem.exec(100_000);
            drop(port);
            sim.counters(0)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn panicking_holder_releases_the_owner_token() {
        // A worker that panics while holding a claimed port must leave the
        // core fully reusable: the unwind drops the port, which has to
        // clear both the slot state AND the claiming-thread token — a
        // stale token from the dead thread could otherwise be adopted by a
        // racing claimant after the slot was already freed.
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let buf = sim.alloc(4096, 64);
        let handle = std::thread::spawn({
            let sim = sim.clone();
            move || {
                let _port = sim.checkout(0);
                sim.mem(0).read(buf, 8); // claim the core for this thread
                panic!("worker dies holding the port");
            }
        });
        assert!(handle.join().is_err(), "worker must have panicked");
        assert_eq!(
            sim.machine().port_owner(0),
            UNCLAIMED,
            "dropping the port during unwind must release the owner token"
        );
        // The core is reusable end to end: fresh checkout, fresh claim.
        let port = sim.try_checkout(0).expect("port released by the unwind");
        sim.mem(0).read(buf + 64, 8);
        sim.mem(0).exec(500);
        drop(port);
        let c = sim.counters(0);
        assert_eq!(c.loads, 2);
        assert_eq!(c.instructions, 500);
    }

    #[test]
    fn port_migrates_across_threads() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let port = sim.checkout(0);
        let buf = sim.alloc(4096, 64);
        let mem = sim.mem(0);
        mem.read(buf, 8); // claim on this thread
        std::thread::scope(|s| {
            let mem = &mem;
            let port = port; // moved into the worker with the traffic
            s.spawn(move || {
                let _port = port;
                mem.read(buf + 64, 8); // re-claims for the worker thread
                mem.exec(1000);
            });
        });
        let c = sim.counters(0);
        assert_eq!(c.loads, 2);
        assert_eq!(c.instructions, 1000);
    }
}
