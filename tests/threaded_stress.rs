//! Contention stress with interleaved sessions: two workers' sessions on
//! one database, their operations interleaved one at a time in a seeded
//! order, with no lockstep turn schedule, hammering the engines' shared
//! state. A worker leaves an update uncommitted while the other touches the
//! same key, so conflicts and validation failures are certain. The
//! invariants the session API must uphold: no lost updates (every committed
//! increment is visible), row counts preserved, and concurrency-control
//! losers surfacing as retryable errors ([`OltpError::Conflict`] under
//! locking, [`OltpError::ValidationFailed`] under OCC) rather than
//! corruption.

use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::db::{Column, DataType, Db, OltpError, Schema, Session, TableDef, TableId, Value};
use imoltp::sim::rng::XorShift64;
use imoltp::sim::{MachineConfig, Sim};
use imoltp::systems::{build_system, ShoreMt, SystemKind};

const WORKERS: usize = 2;
const TXNS_PER_WORKER: u64 = 400;
const HOT_KEYS: u64 = 8;

/// One worker incrementing hot keys, one operation per turn: an update
/// opens a transaction, the worker's next turn commits it. A conflict at
/// either step aborts and retries the same key.
struct Incrementer {
    session: Box<dyn Session>,
    /// Transactions committed so far; the next one increments
    /// `committed % HOT_KEYS`.
    committed: u64,
    /// Whether an update is applied and awaits commit.
    open: bool,
    retries: u64,
}

impl Incrementer {
    fn done(&self) -> bool {
        self.committed == TXNS_PER_WORKER
    }

    fn turn(&mut self, t: TableId) {
        let key = self.committed % HOT_KEYS;
        let s = self.session.as_mut();
        let step = if self.open {
            s.commit().map(|()| self.committed += 1)
        } else {
            s.begin();
            s.update(t, key, &mut |row| {
                let v = row[1].long();
                row[1] = Value::Long(v + 1);
            })
            .map(|found| assert!(found, "hot key {key} must exist"))
        };
        match step {
            Ok(()) => self.open = !self.open,
            Err(
                OltpError::Conflict { .. }
                | OltpError::ValidationFailed { .. }
                | OltpError::DeadlockVictim { .. },
            ) => {
                s.abort();
                self.open = false;
                self.retries += 1;
                assert!(self.retries < 1_000_000, "livelock on key {key}");
            }
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }
}

/// Both workers walk the same key sequence — maximal contention on every
/// transaction — taking turns in a seeded random order until each has
/// committed its share. Returns the retries each worker took.
fn increment_interleaved(db: &dyn Db, t: TableId) -> Vec<u64> {
    let mut workers: Vec<Incrementer> = (0..WORKERS)
        .map(|w| Incrementer {
            session: db.session(w),
            committed: 0,
            open: false,
            retries: 0,
        })
        .collect();
    let mut rng = XorShift64::new(0x57E55);
    while !workers.iter().all(Incrementer::done) {
        let w = &mut workers[rng.next_below(WORKERS as u64) as usize];
        if !w.done() {
            w.turn(t);
        }
    }
    workers.iter().map(|w| w.retries).collect()
}

fn counter_table(db: &mut dyn Db) -> TableId {
    let t = db.create_table(TableDef::new(
        "counters",
        Schema::new(vec![
            Column::new("k", DataType::Long),
            Column::new("v", DataType::Long),
        ]),
        HOT_KEYS,
    ));
    let mut s = db.session(0);
    s.begin();
    for k in 0..HOT_KEYS {
        s.insert(t, k, &[Value::Long(k as i64), Value::Long(0)])
            .unwrap();
    }
    s.commit().unwrap();
    t
}

/// The hot keys' values, summed.
fn total(db: &dyn Db, t: TableId) -> u64 {
    let mut s = db.session(0);
    s.begin();
    let mut total = 0i64;
    for k in 0..HOT_KEYS {
        total += s.read(t, k).unwrap().expect("hot key present")[1].long();
    }
    s.commit().unwrap();
    total as u64
}

/// Two interleaved workers increment the same hot keys through a
/// pessimistic-locking engine: every committed increment must survive.
#[test]
fn shore_mt_free_running_increments_lose_no_updates() {
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = ShoreMt::new(&sim);
    let t = sim.offline(|| counter_table(&mut db));

    let retries = increment_interleaved(&db, t);
    assert!(
        retries.iter().all(|&r| r > 0),
        "both workers must lose a lock conflict: {retries:?}"
    );

    // Zero lost updates: the counters sum to exactly the committed work.
    let committed = WORKERS as u64 * TXNS_PER_WORKER;
    assert_eq!(total(&db, t), committed, "increments were lost");
    assert_eq!(db.row_count(t), HOT_KEYS, "row count must be preserved");
}

/// Same contention pattern through the OCC engine (DBMS M): losers abort
/// at validation, winners install — and nothing is lost or duplicated.
#[test]
fn occ_validation_losers_retry_without_losing_updates() {
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = build_system(
        SystemKind::DbmsM {
            index: imoltp::systems::DbmsMIndex::Hash,
            compiled: true,
        },
        &sim,
        1,
    );
    let t = sim.offline(|| counter_table(db.as_mut()));

    let retries = increment_interleaved(db.as_ref(), t);
    assert!(
        retries.iter().sum::<u64>() > 0,
        "some commit must fail validation: {retries:?}"
    );

    assert_eq!(total(db.as_ref(), t), WORKERS as u64 * TXNS_PER_WORKER);
    assert_eq!(db.row_count(t), HOT_KEYS);
}

/// The read-write micro-benchmark with two workers' transactions taking
/// turns in a seeded random order: every transaction commits, and the
/// table's row population is untouched (updates in place, no
/// insert/delete leakage).
#[test]
fn free_running_micro_benchmark_preserves_row_counts() {
    const MICRO_TXNS_PER_WORKER: u64 = 500;
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = build_system(SystemKind::ShoreMt, &sim, 1);
    let mut w = MicroBench::new(DbSize::Mb1).with_rows(8_000).read_write();
    sim.offline(|| w.setup(db.as_mut(), WORKERS));
    sim.warm_data();
    let rows_before = db.row_count(TableId(0));
    assert_eq!(rows_before, 8_000);

    let mut sessions: Vec<_> = (0..WORKERS).map(|worker| db.session(worker)).collect();
    let mut left = [MICRO_TXNS_PER_WORKER; WORKERS];
    let mut rng = XorShift64::new(0x1C20);
    while left.iter().any(|&n| n > 0) {
        let worker = rng.next_below(WORKERS as u64) as usize;
        if left[worker] > 0 {
            // Striped keys: each worker updates its own slice, so no
            // conflicts in any order — every transaction commits.
            w.exec(sessions[worker].as_mut(), worker)
                .expect("striped read-write txn must commit");
            left[worker] -= 1;
        }
    }
    assert_eq!(
        db.row_count(TableId(0)),
        rows_before,
        "read-write micro must only update in place"
    );
}
