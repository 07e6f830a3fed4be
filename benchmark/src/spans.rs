//! Host-time spans recorded by the benchmark around its calls into each
//! layer.
//!
//! One [`SpanLog`] belongs to one thread. Spans nest by call order, so a
//! stack is enough: closing a span adds its duration to its parent's
//! child-covered time, and a span's self time is its duration minus that.
//! Every span is aggregated per [`Op`]; full records (name, start, end,
//! parent, transaction id) are kept for a fixed 1-in-N sample of
//! transactions and written out when the run ends.

use std::time::Instant;

use imoltp::obs::json::Json;

/// What a span covers. The discriminant indexes the aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// One `Workload::exec`: a whole transaction as the driver sees it.
    Exec,
    Begin,
    Read,
    Update,
    Insert,
    Scan,
    Delete,
    Commit,
    Abort,
    /// One whole public entry point: `Service::run` or `recover::run`.
    Call,
    /// One window of the benchmark's own matched direct driver.
    Direct,
    /// `storage::recovery::recover`.
    Recover,
    /// `storage::recovery::replay`.
    Replay,
    /// `storage::checkpoint::Checkpointer::step`.
    Checkpoint,
}

impl Op {
    pub const ALL: [Op; 14] = [
        Op::Exec,
        Op::Begin,
        Op::Read,
        Op::Update,
        Op::Insert,
        Op::Scan,
        Op::Delete,
        Op::Commit,
        Op::Abort,
        Op::Call,
        Op::Direct,
        Op::Recover,
        Op::Replay,
        Op::Checkpoint,
    ];

    /// The `oltp::Session` calls, in the order the per-op metrics list them.
    pub const SESSION: [Op; 8] = [
        Op::Begin,
        Op::Read,
        Op::Update,
        Op::Insert,
        Op::Scan,
        Op::Delete,
        Op::Commit,
        Op::Abort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Exec => "workloads.exec",
            Op::Begin => "engines.begin",
            Op::Read => "engines.read",
            Op::Update => "engines.update",
            Op::Insert => "engines.insert",
            Op::Scan => "engines.scan",
            Op::Delete => "engines.delete",
            Op::Commit => "engines.commit",
            Op::Abort => "engines.abort",
            Op::Call => "bench.call",
            Op::Direct => "core.direct_window",
            Op::Recover => "storage.recover",
            Op::Replay => "storage.replay",
            Op::Checkpoint => "storage.checkpoint_step",
        }
    }
}

/// Running totals of one [`Op`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    /// Sum of durations, children included.
    pub total_ns: u64,
    /// Sum of durations minus the part child spans cover.
    pub self_ns: u64,
}

/// One kept span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing kept span, if any.
    pub parent: Option<u32>,
    /// Transaction (or call) the span belongs to.
    pub txn: u64,
}

struct Open {
    op: Op,
    start_ns: u64,
    child_ns: u64,
    rec: Option<u32>,
}

/// Full records are kept for at most this many spans per log, so a trace
/// file stays small however long the run.
const MAX_RECORDS: usize = 400;

pub struct SpanLog {
    epoch: Instant,
    stack: Vec<Open>,
    agg: [Agg; Op::ALL.len()],
    records: Vec<SpanRec>,
    sample_every: u64,
    txn: u64,
}

impl SpanLog {
    /// A log that keeps full records for every `sample_every`-th
    /// transaction, timing against `epoch`.
    pub fn new(epoch: Instant, sample_every: u64) -> Self {
        SpanLog {
            epoch,
            stack: Vec::with_capacity(4),
            agg: [Agg::default(); Op::ALL.len()],
            records: Vec::new(),
            sample_every: sample_every.max(1),
            txn: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next transaction: spans opened from here on carry its id.
    pub fn next_txn(&mut self) {
        self.txn += 1;
    }

    pub fn open(&mut self, op: Op) {
        let now = self.now_ns();
        self.open_at(op, now);
    }

    /// Close the innermost open span; returns its duration in nanoseconds.
    pub fn close(&mut self) -> u64 {
        let now = self.now_ns();
        self.close_at(now)
    }

    /// [`SpanLog::open`] with the clock supplied (tests build trees by hand).
    pub fn open_at(&mut self, op: Op, start_ns: u64) {
        let keep = self.txn.is_multiple_of(self.sample_every) && self.records.len() < MAX_RECORDS;
        let rec = keep.then(|| {
            self.records.push(SpanRec {
                op,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|p| p.rec),
                txn: self.txn,
            });
            (self.records.len() - 1) as u32
        });
        self.stack.push(Open {
            op,
            start_ns,
            child_ns: 0,
            rec,
        });
    }

    /// [`SpanLog::close`] with the clock supplied.
    pub fn close_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("span closed without an open one");
        let dur = end_ns.saturating_sub(open.start_ns);
        let agg = &mut self.agg[open.op as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.rec {
            self.records[i as usize].end_ns = end_ns;
        }
        dur
    }

    pub fn agg(&self, op: Op) -> Agg {
        self.agg[op as usize]
    }

    /// Time covered by root spans: what the spans account for in total.
    pub fn covered_ns(&self) -> u64 {
        debug_assert!(self.stack.is_empty(), "covered_ns with open spans");
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    #[cfg(test)]
    pub fn records(&self) -> &[SpanRec] {
        &self.records
    }

    /// Fold another log's aggregates in (per-engine logs into one table).
    pub fn absorb(&mut self, other: &SpanLog) {
        for (mine, theirs) in self.agg.iter_mut().zip(&other.agg) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
    }

    /// The aggregates of every op that ran, and the kept records.
    pub fn to_json(&self) -> Json {
        let aggregates = Op::ALL
            .iter()
            .filter(|op| self.agg(**op).count > 0)
            .map(|op| {
                let a = self.agg(*op);
                Json::obj(vec![
                    ("name", Json::str(op.name())),
                    ("count", Json::u64(a.count)),
                    ("total_ns", Json::u64(a.total_ns)),
                    ("self_ns", Json::u64(a.self_ns)),
                ])
            })
            .collect();
        let spans = self
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::str(r.op.name())),
                    ("start_ns", Json::u64(r.start_ns)),
                    ("end_ns", Json::u64(r.end_ns)),
                    (
                        "parent",
                        r.parent.map_or(Json::Null, |p| Json::u64(u64::from(p))),
                    ),
                    ("txn", Json::u64(r.txn)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("sample_every", Json::u64(self.sample_every)),
            ("aggregates", Json::Arr(aggregates)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_covered_interval() {
        // exec 0..100
        //   begin  10..20
        //   read   30..70
        //     (a nested scan 40..55, as an engine calling back would look)
        //   commit 80..95
        let mut log = SpanLog::new(Instant::now(), 1);
        log.open_at(Op::Exec, 0);
        log.open_at(Op::Begin, 10);
        log.close_at(20);
        log.open_at(Op::Read, 30);
        log.open_at(Op::Scan, 40);
        log.close_at(55);
        log.close_at(70);
        log.open_at(Op::Commit, 80);
        log.close_at(95);
        log.close_at(100);

        let exec = log.agg(Op::Exec);
        assert_eq!((exec.count, exec.total_ns), (1, 100));
        // Direct children cover 10 + 40 + 15; the grandchild is inside read.
        assert_eq!(exec.self_ns, 100 - 65);
        assert_eq!(log.agg(Op::Read).self_ns, 40 - 15);
        assert_eq!(log.agg(Op::Scan).self_ns, 15);
        assert_eq!(log.agg(Op::Begin).self_ns, 10);
        // Self times partition the root exactly.
        assert_eq!(log.covered_ns(), 100);
    }

    #[test]
    fn records_keep_parent_links_for_sampled_transactions_only() {
        let mut log = SpanLog::new(Instant::now(), 2);
        for txn in 0..4u64 {
            log.open_at(Op::Exec, txn * 10);
            log.open_at(Op::Read, txn * 10 + 1);
            log.close_at(txn * 10 + 5);
            log.close_at(txn * 10 + 9);
            log.next_txn();
        }
        // Transactions 0 and 2 are kept, two spans each.
        let recs = log.records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!((recs[2].txn, recs[3].txn), (2, 2));
        assert_eq!(recs[3].parent, Some(2));
        assert_eq!((recs[3].start_ns, recs[3].end_ns), (21, 25));
        // Aggregates still see every transaction.
        assert_eq!(log.agg(Op::Exec).count, 4);
        let doc = log.to_json().render();
        assert!(doc.contains("\"workloads.exec\"") && doc.contains("\"parent\":2"));
    }

    #[test]
    fn absorb_sums_aggregates() {
        let mut a = SpanLog::new(Instant::now(), 1);
        a.open_at(Op::Call, 0);
        a.close_at(7);
        let mut b = SpanLog::new(Instant::now(), 1);
        b.open_at(Op::Call, 0);
        b.close_at(5);
        a.absorb(&b);
        assert_eq!(
            a.agg(Op::Call),
            Agg {
                count: 2,
                total_ns: 12,
                self_ns: 12
            }
        );
    }
}
