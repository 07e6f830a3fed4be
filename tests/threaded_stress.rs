//! Free-running concurrency stress: worker sessions on real OS threads
//! (`std::thread::scope`), no lockstep pacing, hammering the engines'
//! shared state. With the experiment harness running every window on one
//! thread, these tests are what drives the engines from two host threads
//! at once. The invariants
//! the session API must uphold under true parallelism: no lost updates
//! (every committed increment is visible), row counts preserved, and
//! concurrency-control losers surfacing as retryable errors
//! ([`OltpError::Conflict`] under locking, [`OltpError::ValidationFailed`]
//! under OCC) rather than corruption.

use std::sync::Mutex;

use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::db::{Column, DataType, Db, OltpError, Schema, Session, TableDef, Value};
use imoltp::sim::{MachineConfig, Sim};
use imoltp::systems::{build_system, ShoreMt, SystemKind};

const WORKERS: usize = 2;
const TXNS_PER_WORKER: u64 = 400;
const HOT_KEYS: u64 = 8;

/// Increment the value under `key` once, retrying until the transaction
/// commits. Conflicts may surface at the operation (lock conflict) or at
/// commit (validation failure); both leave the session reusable after
/// `abort`. Returns the number of retries consumed.
fn increment_until_committed(s: &mut dyn Session, t: imoltp::db::TableId, key: u64) -> u64 {
    let mut retries = 0;
    loop {
        s.begin();
        let attempt = s
            .update(t, key, &mut |row| {
                let v = row[1].long();
                row[1] = Value::Long(v + 1);
            })
            .and_then(|found| {
                assert!(found, "hot key {key} must exist");
                s.commit()
            });
        match attempt {
            Ok(()) => return retries,
            Err(
                OltpError::Conflict { .. }
                | OltpError::ValidationFailed { .. }
                | OltpError::DeadlockVictim { .. },
            ) => {
                s.abort();
                retries += 1;
                assert!(retries < 1_000_000, "livelock on key {key}");
            }
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }
}

fn counter_table(db: &mut dyn Db) -> imoltp::db::TableId {
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

/// Two free-running threads increment the same hot keys through a
/// pessimistic-locking engine: every committed increment must survive.
#[test]
fn shore_mt_free_running_increments_lose_no_updates() {
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = ShoreMt::new(&sim);
    let t = sim.offline(|| counter_table(&mut db));

    let db = &db;
    let committed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                scope.spawn(move || {
                    let mut s = db.session(worker);
                    for i in 0..TXNS_PER_WORKER {
                        // Both workers walk the same key sequence: maximal
                        // contention on every transaction.
                        increment_until_committed(s.as_mut(), t, i % HOT_KEYS);
                    }
                    TXNS_PER_WORKER
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(committed, WORKERS as u64 * TXNS_PER_WORKER);

    // Zero lost updates: the counters sum to exactly the committed work.
    let mut s = db.session(0);
    s.begin();
    let mut total = 0i64;
    for k in 0..HOT_KEYS {
        total += s.read(t, k).unwrap().expect("hot key present")[1].long();
    }
    s.commit().unwrap();
    assert_eq!(total as u64, committed, "increments were lost");
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

    // `Box<dyn Db>` is not `Sync`, so open the sessions on this thread —
    // they are `Send` and carry the shared engine state with them.
    let sessions: Vec<_> = (0..WORKERS).map(|w| db.session(w)).collect();
    std::thread::scope(|scope| {
        for mut s in sessions {
            scope.spawn(move || {
                for i in 0..TXNS_PER_WORKER {
                    increment_until_committed(s.as_mut(), t, i % HOT_KEYS);
                }
            });
        }
    });

    let mut s = db.session(0);
    s.begin();
    let mut total = 0i64;
    for k in 0..HOT_KEYS {
        total += s.read(t, k).unwrap().expect("hot key present")[1].long();
    }
    s.commit().unwrap();
    assert_eq!(total as u64, WORKERS as u64 * TXNS_PER_WORKER);
    assert_eq!(db.row_count(t), HOT_KEYS);
}

/// The read-write micro-benchmark under free-running (unpaced) workers:
/// every worker's transactions commit, and the table's row population is
/// untouched (updates in place, no insert/delete leakage).
#[test]
fn free_running_micro_benchmark_preserves_row_counts() {
    const MICRO_TXNS_PER_WORKER: u64 = 500;
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = build_system(SystemKind::ShoreMt, &sim, 1);
    let mut w = MicroBench::new(DbSize::Mb1).with_rows(8_000).read_write();
    sim.offline(|| w.setup(db.as_mut(), WORKERS));
    sim.warm_data();
    let rows_before = db.row_count(imoltp::db::TableId(0));
    assert_eq!(rows_before, 8_000);

    let w = &Mutex::new(w);
    let sessions: Vec<_> = (0..WORKERS).map(|worker| db.session(worker)).collect();
    let committed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(worker, mut s)| {
                scope.spawn(move || {
                    for _ in 0..MICRO_TXNS_PER_WORKER {
                        // Striped keys: each worker updates its own slice, so
                        // no conflicts even free-running — every transaction
                        // commits.
                        w.lock()
                            .unwrap()
                            .exec(s.as_mut(), worker)
                            .expect("striped read-write txn must commit");
                    }
                    MICRO_TXNS_PER_WORKER
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(committed, 1_000);
    assert_eq!(
        db.row_count(imoltp::db::TableId(0)),
        rows_before,
        "read-write micro must only update in place"
    );
}
