//! [`TimedSession`]: an `oltp::Session` decorator that records one host
//! span per call into the engine, inclusive of everything the engine does
//! beneath it (index, storage, WAL, simulator).
//!
//! The decorator forwards every argument and result untouched, so the
//! engine and the simulator see exactly the calls they would see without
//! it: simulated counters and returned rows are identical (tested below on
//! all five engines).

use imoltp::db::{OltpResult, Row, Session, TableId, Value};

use crate::spans::{Op, SpanLog};

pub struct TimedSession<'a> {
    inner: &'a mut dyn Session,
    /// The runner opens its `Exec` span here between calls.
    pub log: &'a mut SpanLog,
    /// Calls that returned an `OltpError`.
    pub errors: u64,
}

impl<'a> TimedSession<'a> {
    pub fn new(inner: &'a mut dyn Session, log: &'a mut SpanLog) -> Self {
        TimedSession {
            inner,
            log,
            errors: 0,
        }
    }

    fn timed<T>(
        &mut self,
        op: Op,
        call: impl FnOnce(&mut dyn Session) -> OltpResult<T>,
    ) -> OltpResult<T> {
        self.log.open(op);
        let r = call(self.inner);
        self.log.close();
        if r.is_err() {
            self.errors += 1;
        }
        r
    }
}

impl Session for TimedSession<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn core(&self) -> usize {
        self.inner.core()
    }

    fn begin(&mut self) {
        self.log.open(Op::Begin);
        self.inner.begin();
        self.log.close();
    }

    fn commit(&mut self) -> OltpResult<()> {
        self.timed(Op::Commit, |s| s.commit())
    }

    fn abort(&mut self) {
        self.log.open(Op::Abort);
        self.inner.abort();
        self.log.close();
    }

    fn insert(&mut self, table: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        self.timed(Op::Insert, |s| s.insert(table, key, row))
    }

    fn read_with(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> OltpResult<bool> {
        self.timed(Op::Read, |s| s.read_with(table, key, f))
    }

    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> OltpResult<bool> {
        self.timed(Op::Update, |s| s.update(table, key, f))
    }

    fn scan(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        self.timed(Op::Scan, |s| s.scan(table, lo, hi, f))
    }

    fn delete(&mut self, table: TableId, key: u64) -> OltpResult<bool> {
        self.timed(Op::Delete, |s| s.delete(table, key))
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use imoltp::db::{Column, DataType, Db, Schema, TableDef};
    use imoltp::sim::{MachineConfig, Sim};
    use imoltp::systems::{SystemBuilder, SystemKind};

    use super::*;
    use crate::stats::Fnv;

    /// A fixed script touching every `Session` method; returns every row
    /// and result it saw.
    fn script(s: &mut dyn Session, t: TableId) -> Vec<String> {
        let mut seen = Vec::new();
        s.begin();
        for k in 0..32u64 {
            s.insert(t, k * 8, &[Value::Long(k as i64), Value::Long(0)])
                .unwrap();
        }
        s.commit().unwrap();
        s.begin();
        seen.push(format!("{:?}", s.read(t, 40)));
        seen.push(format!(
            "{:?}",
            s.update(t, 40, &mut |r| r[1] = Value::Long(9))
        ));
        seen.push(format!("{:?}", s.read(t, 40)));
        seen.push(format!("{:?}", s.read(t, 41)));
        let mut rows = Vec::new();
        let scanned = s.scan(t, 0, 64, &mut |k, r| {
            rows.push((k, r.to_vec()));
            true
        });
        seen.push(format!("{scanned:?} {rows:?}"));
        seen.push(format!("{:?}", s.delete(t, 16)));
        seen.push(format!(
            "{:?}",
            s.insert(t, 40, &[Value::Long(0), Value::Long(0)])
        ));
        s.abort();
        s.begin();
        seen.push(format!("{:?}", s.read(t, 48)));
        seen.push(format!("{:?}", s.commit()));
        seen
    }

    fn run(kind: SystemKind, timed: bool) -> (u64, Vec<String>, SpanLog) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db: Box<dyn Db> = SystemBuilder::new(kind).build(&sim);
        let t = db.create_table(
            TableDef::new(
                "t",
                Schema::new(vec![
                    Column::new("k", DataType::Long),
                    Column::new("v", DataType::Long),
                ]),
                64,
            )
            .with_range_scans(),
        );
        let mut s = db.session(0);
        let mut log = SpanLog::new(Instant::now(), 1);
        let seen = if timed {
            script(&mut TimedSession::new(s.as_mut(), &mut log), t)
        } else {
            script(s.as_mut(), t)
        };
        let mut h = Fnv::new();
        h.counts(&sim.counters(0));
        (h.0, seen, log)
    }

    #[test]
    fn decorator_is_transparent_on_all_five_engines() {
        for kind in crate::rig::kinds(true) {
            let (bare_digest, bare_rows, _) = run(kind, false);
            let (timed_digest, timed_rows, log) = run(kind, true);
            assert_eq!(bare_rows, timed_rows, "{kind:?}: returned rows differ");
            assert_eq!(bare_digest, timed_digest, "{kind:?}: sim digest differs");
            // One span per call: 33 inserts, 4 reads, 3 begins, ...
            assert_eq!(log.agg(Op::Insert).count, 33, "{kind:?}");
            assert_eq!(log.agg(Op::Read).count, 4, "{kind:?}");
            assert_eq!(log.agg(Op::Begin).count, 3, "{kind:?}");
            assert_eq!(log.agg(Op::Commit).count, 2, "{kind:?}");
            assert_eq!(log.agg(Op::Abort).count, 1, "{kind:?}");
            assert_eq!(log.agg(Op::Scan).count, 1, "{kind:?}");
        }
    }

    #[test]
    fn errors_are_counted_and_passed_through() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let db = SystemBuilder::new(SystemKind::VoltDb).build(&sim);
        let mut s = db.session(0);
        let mut log = SpanLog::new(Instant::now(), 1);
        let mut ts = TimedSession::new(s.as_mut(), &mut log);
        ts.begin();
        assert!(ts.read(TableId(99), 1).is_err());
        ts.abort();
        assert_eq!(ts.errors, 1);
    }
}
