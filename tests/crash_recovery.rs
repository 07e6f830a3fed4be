//! Crash/replay: run committed work on a disk-based engine, "crash"
//! mid-transaction, and rebuild an identical database from the WAL.

use imoltp::bench::{TpcB, Workload};
use imoltp::db::{Column, DataType, Db, Schema, TableDef, Value};
use imoltp::sim::{MachineConfig, Sim};
use imoltp::store::recovery::replay;
use imoltp::systems::{DurabilityCfg, DurableDb, ShoreMt};

fn micro_table(db: &mut ShoreMt) -> imoltp::db::TableId {
    db.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("k", DataType::Long),
            Column::new("v", DataType::Long),
        ]),
        1000,
    ))
}

#[test]
fn replayed_database_matches_original() {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = ShoreMt::new(&sim);
    db.enable_durability(&DurabilityCfg::default());
    let t = micro_table(&mut db);

    let mut s = db.session(0);
    sim.offline(|| {
        for i in 0..300u64 {
            s.begin();
            let k = i % 97;
            match i % 4 {
                0 => {
                    let _ = s.insert(t, k, &[Value::Long(k as i64), Value::Long(i as i64)]);
                }
                1 => {
                    let _ = s.update(t, k, &mut |r| r[1] = Value::Long(-(i as i64)));
                }
                2 => {
                    let _ = s.delete(t, k);
                }
                _ => {
                    let _ = s.read(t, k);
                }
            }
            s.commit().unwrap();
        }
        // "Crash": an in-flight transaction never commits.
        s.begin();
        s.insert(t, 9999, &[Value::Long(9999), Value::Long(1)])
            .unwrap();
        // (no commit)
    });

    // Recover into a fresh engine.
    let sim2 = Sim::new(MachineConfig::ivy_bridge(1));
    let mut fresh = ShoreMt::new(&sim2);
    let t2 = micro_table(&mut fresh);
    assert_eq!(t, t2);
    let mut fs = fresh.session(0);
    let records = db.log_streams().remove(0);
    let stats = sim2.offline(|| replay(&records, fs.as_mut()).unwrap());
    assert!(stats.txns > 0);
    assert_eq!(stats.losers, 1, "the in-flight transaction is a loser");

    // Same visible state everywhere. (Close the crashed transaction on
    // the original first; its uncommitted insert stays local to it.)
    s.abort();
    sim2.offline(|| {
        fs.begin();
        s.begin();
        for k in 0..100u64 {
            let a = s.read(t, k).unwrap();
            let b = fs.read(t2, k).unwrap();
            // The original still holds its uncommitted insert; committed
            // keys < 97 must match exactly.
            assert_eq!(a, b, "key {k} diverged after replay");
        }
        assert!(
            fs.read(t2, 9999).unwrap().is_none(),
            "loser work must not survive"
        );
        s.commit().unwrap();
        fs.commit().unwrap();
    });
}

#[test]
fn tpcb_survives_crash_replay() {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = ShoreMt::new(&sim);
    db.enable_durability(&DurabilityCfg::default());
    let mut w = TpcB::with_branches(1).seed(321);
    sim.offline(|| w.setup(&mut db, 1));
    sim.offline(|| {
        let mut s = db.session(0);
        for _ in 0..60 {
            w.exec(s.as_mut(), 0).unwrap();
        }
    });
    let expected = w.total_balance(&db, "account");

    // Replay the log (load + 60 transactions) into a fresh engine with the
    // same table layout.
    let sim2 = Sim::new(MachineConfig::ivy_bridge(1));
    let mut fresh = ShoreMt::new(&sim2);
    let mut w2 = TpcB::with_branches(1).seed(321);
    // Create tables only (no load): replay refills them.
    // TpcB has no tables-only setup, so build defs the same way by
    // replaying the loader's log records too — which the retained log
    // already contains.
    let long = |n: &str| Column::new(n, DataType::Long);
    let strc = |n: &str| Column::new(n, DataType::Str);
    fresh.create_table(TableDef::new(
        "branch",
        Schema::new(vec![long("b_id"), long("b_balance"), strc("b_filler")]),
        1,
    ));
    fresh.create_table(TableDef::new(
        "teller",
        Schema::new(vec![
            long("t_id"),
            long("t_balance"),
            long("t_b_id"),
            strc("t_filler"),
        ]),
        10,
    ));
    fresh.create_table(TableDef::new(
        "account",
        Schema::new(vec![
            long("a_id"),
            long("a_balance"),
            long("a_b_id"),
            strc("a_filler"),
        ]),
        100_000,
    ));
    fresh.create_table(TableDef::new(
        "history",
        Schema::new(vec![
            long("h_seq"),
            long("h_t_id"),
            long("h_b_id"),
            long("h_a_id"),
            long("h_delta"),
            strc("h_filler"),
        ]),
        10_000,
    ));
    let mut fs = fresh.session(0);
    let records = db.log_streams().remove(0);
    let stats = sim2.offline(|| replay(&records, fs.as_mut()).unwrap());
    assert!(
        stats.applied > 100_000,
        "loader records replayed: {}",
        stats.applied
    );
    let _ = &mut w2; // (workload object only provided the deterministic seed)

    // TPC-B invariant holds in the recovered database: account balances
    // sum to the same total as the original.
    let account = imoltp::db::TableId(2);
    let mut recovered = 0i64;
    sim2.offline(|| {
        fs.begin();
        for k in 0..100_000u64 {
            if let Some(row) = fs.read(account, k).unwrap() {
                recovered += row[1].long();
            }
        }
        fs.commit().unwrap();
    });
    assert_eq!(recovered, expected);
}

#[test]
fn dbms_m_recovers_from_its_redo_log() {
    // In-memory engines have no pages to replay into — recovery *is* the
    // redo log. Run work on DBMS M, crash mid-transaction, rebuild.
    use imoltp::systems::{DbmsM, DbmsMOptions};

    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = DbmsM::new(&sim, DbmsMOptions::default());
    db.enable_durability(&DurabilityCfg::default());
    let t = db.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("k", DataType::Long),
            Column::new("v", DataType::Long),
        ]),
        1000,
    ));
    let mut s = db.session(0);
    sim.offline(|| {
        for i in 0..200u64 {
            s.begin();
            let k = i % 61;
            match i % 3 {
                0 => {
                    let _ = s.insert(t, k, &[Value::Long(k as i64), Value::Long(i as i64)]);
                }
                1 => {
                    let _ = s.update(t, k, &mut |r| r[1] = Value::Long(i as i64 * 2));
                }
                _ => {
                    let _ = s.delete(t, k);
                }
            }
            s.commit().unwrap();
        }
        // Crash with a buffered (never-committed) write.
        s.begin();
        s.insert(t, 777, &[Value::Long(777), Value::Long(1)])
            .unwrap();
    });

    let sim2 = Sim::new(MachineConfig::ivy_bridge(1));
    let mut fresh = DbmsM::new(&sim2, DbmsMOptions::default());
    let t2 = fresh.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("k", DataType::Long),
            Column::new("v", DataType::Long),
        ]),
        1000,
    ));
    let mut fs = fresh.session(0);
    let records = db.log_streams().remove(0);
    sim2.offline(|| replay(&records, fs.as_mut()).unwrap());

    s.abort();
    sim2.offline(|| {
        s.begin();
        fs.begin();
        for k in 0..61u64 {
            assert_eq!(
                s.read(t, k).unwrap(),
                fs.read(t2, k).unwrap(),
                "key {k} diverged"
            );
        }
        assert!(fs.read(t2, 777).unwrap().is_none());
        s.commit().unwrap();
        fs.commit().unwrap();
    });
}
