//! Engine factory and shared helpers.

use oltp::{CcPolicy, Db};
use uarch_sim::Sim;

use crate::durability::DurableDb;
use crate::placement::Placement;

use crate::dbms_d::DbmsD;
use crate::dbms_m::{DbmsM, DbmsMOptions};
use crate::hyper::HyPer;
use crate::shore_mt::ShoreMt;
use crate::voltdb::VoltDb;

/// Index choice for DBMS M (§6.1: "hash index and a variant of
/// cache-conscious B-tree index").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbmsMIndex {
    /// Hash index (used for the micro-benchmark and TPC-B).
    Hash,
    /// Cache-conscious B-tree (used for TPC-C and range scans).
    BTree,
}

/// Which system archetype to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Shore-MT: open-source disk-based storage manager.
    ShoreMt,
    /// DBMS D: commercial disk-based system.
    DbmsD,
    /// VoltDB CE 4.8.
    VoltDb,
    /// HyPer.
    HyPer,
    /// DBMS M with configurable index / compilation (§6).
    DbmsM {
        /// Index structure.
        index: DbmsMIndex,
        /// Transaction-compilation optimizations on/off.
        compiled: bool,
    },
}

impl SystemKind {
    /// The five defaults in the paper's figure order (DBMS M in its
    /// default micro-benchmark configuration: hash + compilation).
    pub const ALL: [SystemKind; 5] = [
        SystemKind::ShoreMt,
        SystemKind::DbmsD,
        SystemKind::VoltDb,
        SystemKind::HyPer,
        SystemKind::DbmsM {
            index: DbmsMIndex::Hash,
            compiled: true,
        },
    ];

    /// Display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::ShoreMt => "Shore-MT",
            SystemKind::DbmsD => "DBMS D",
            SystemKind::VoltDb => "VoltDB",
            SystemKind::HyPer => "HyPer",
            SystemKind::DbmsM { .. } => "DBMS M",
        }
    }

    /// Whether the system is an in-memory design.
    pub fn in_memory(self) -> bool {
        !matches!(self, SystemKind::ShoreMt | SystemKind::DbmsD)
    }

    /// Whether the system physically partitions its data and executes
    /// serially per partition (one worker per partition, §2.2). Worker
    /// counts beyond the partition count violate that deployment model.
    pub fn partitioned(self) -> bool {
        matches!(self, SystemKind::VoltDb | SystemKind::HyPer)
    }

    /// DBMS M configured as the paper does for a range-scanning workload
    /// (TPC-C): cc-B-tree index.
    pub fn dbms_m_for_tpcc() -> SystemKind {
        SystemKind::DbmsM {
            index: DbmsMIndex::BTree,
            compiled: true,
        }
    }
}

/// Build a system on `sim` with `partitions` data partitions (partitioned
/// engines route by core; the others ignore the count beyond sizing).
pub fn build_system(kind: SystemKind, sim: &Sim, partitions: usize) -> Box<dyn Db> {
    build_system_inner(
        kind,
        sim,
        partitions,
        CcPolicy::EngineDefault,
        Placement::Spread,
    )
}

/// Shared factory body behind [`build_system`] and [`crate::SystemBuilder`].
/// Installs the placement policy's data homes on the simulator, then hands
/// the partitioned engines their placement so partition allocations carry
/// the right home tag. Typed as [`DurableDb`] — every engine is one — and
/// upcast to plain [`Db`] by callers that do not need the log surface.
pub(crate) fn build_system_inner(
    kind: SystemKind,
    sim: &Sim,
    partitions: usize,
    policy: CcPolicy,
    placement: Placement,
) -> Box<dyn DurableDb> {
    if kind.partitioned() {
        placement.install(sim, partitions);
    }
    match kind {
        SystemKind::ShoreMt => Box::new(ShoreMt::with_cc(sim, policy)),
        SystemKind::DbmsD => Box::new(DbmsD::with_cc(sim, policy)),
        SystemKind::VoltDb => Box::new(VoltDb::with_cc_placed(sim, partitions, policy, placement)),
        SystemKind::HyPer => Box::new(HyPer::with_cc_placed(sim, partitions, policy, placement)),
        SystemKind::DbmsM { index, compiled } => Box::new(DbmsM::with_cc(
            sim,
            DbmsMOptions { index, compiled },
            policy,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::MachineConfig;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = SystemKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["Shore-MT", "DBMS D", "VoltDB", "HyPer", "DBMS M"]);
    }

    #[test]
    fn in_memory_classification() {
        assert!(!SystemKind::ShoreMt.in_memory());
        assert!(!SystemKind::DbmsD.in_memory());
        assert!(SystemKind::VoltDb.in_memory());
        assert!(SystemKind::HyPer.in_memory());
        assert!(SystemKind::dbms_m_for_tpcc().in_memory());
    }

    #[test]
    fn factory_builds_every_system() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        for kind in SystemKind::ALL {
            let db = build_system(kind, &sim, 1);
            assert_eq!(db.name(), kind.label());
        }
    }

    #[test]
    fn factory_builds_every_system_under_every_protocol() {
        use crate::SystemBuilder;
        for policy in CcPolicy::ALL {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            for kind in SystemKind::ALL {
                let db = SystemBuilder::new(kind)
                    .partitions(1)
                    .cc(policy)
                    .build(&sim);
                assert_eq!(db.name(), kind.label());
            }
        }
    }

    /// The `Session` contract every engine honours whatever its kernel:
    /// the assertions of the former per-engine `crud_round_trip`,
    /// `duplicate_insert`, scan-order and `ops_outside_txn_rejected` tests,
    /// run on all five defaults plus DBMS M's range-scanning configuration.
    #[test]
    fn session_contract_holds_on_every_engine() {
        use oltp::{Column, DataType, OltpError, Schema, TableDef, Value};
        let row = |k: u64, v: i64| [Value::Long(k as i64), Value::Long(v)];
        for kind in SystemKind::ALL
            .into_iter()
            .chain([SystemKind::dbms_m_for_tpcc()])
        {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let mut db = build_system(kind, &sim, 1);
            let t = db.create_table(TableDef::new(
                "t",
                Schema::new(vec![
                    Column::new("key", DataType::Long),
                    Column::new("val", DataType::Long),
                ]),
                1000,
            ));
            let mut s = db.session(0);
            let ctx = format!("{kind:?}");

            // Operations outside a transaction are rejected.
            assert_eq!(
                s.insert(t, 1, &row(1, 1)).unwrap_err(),
                OltpError::NoActiveTxn,
                "{ctx}"
            );
            assert_eq!(s.commit().unwrap_err(), OltpError::NoActiveTxn, "{ctx}");
            s.abort(); // no-op without a txn

            // CRUD across transactions.
            s.begin();
            s.insert(t, 1, &row(1, 100)).unwrap();
            s.commit().unwrap();
            s.begin();
            assert_eq!(s.read(t, 1).unwrap().unwrap()[1], Value::Long(100), "{ctx}");
            assert!(s.update(t, 1, &mut |r| r[1] = Value::Long(200)).unwrap());
            // Read-your-writes before commit.
            assert_eq!(s.read(t, 1).unwrap().unwrap()[1], Value::Long(200), "{ctx}");
            s.commit().unwrap();
            s.begin();
            assert_eq!(s.read(t, 1).unwrap().unwrap()[1], Value::Long(200), "{ctx}");
            assert!(s.delete(t, 1).unwrap(), "{ctx}");
            assert!(s.read(t, 1).unwrap().is_none(), "{ctx}");
            s.commit().unwrap();
            s.begin();
            assert!(s.read(t, 1).unwrap().is_none(), "{ctx}");
            s.commit().unwrap();
            assert_eq!(db.row_count(t), 0, "{ctx}");

            // CRUD inside one transaction, over a few hundred rows.
            s.begin();
            for k in 0..200u64 {
                s.insert(t, k, &row(k, 0)).unwrap();
            }
            assert!(s.update(t, 77, &mut |r| r[1] = Value::Long(7)).unwrap());
            assert_eq!(s.read(t, 77).unwrap().unwrap()[1], Value::Long(7), "{ctx}");
            assert!(s.delete(t, 77).unwrap(), "{ctx}");
            assert!(!s.delete(t, 77).unwrap(), "{ctx}: second delete");
            assert!(s.read(t, 77).unwrap().is_none(), "{ctx}");
            s.commit().unwrap();
            assert_eq!(db.row_count(t), 199, "{ctx}");

            // A duplicate insert fails cleanly, in the inserting
            // transaction and against committed data.
            s.begin();
            s.insert(t, 500, &row(500, 1)).unwrap();
            let err = s.insert(t, 500, &row(500, 2)).unwrap_err();
            assert!(matches!(err, OltpError::DuplicateKey { .. }), "{ctx}");
            s.commit().unwrap();
            assert_eq!(db.row_count(t), 200, "{ctx}");
            s.begin();
            assert_eq!(s.read(t, 500).unwrap().unwrap()[1], Value::Long(1), "{ctx}");
            assert!(
                matches!(
                    s.insert(t, 500, &row(500, 3)),
                    Err(OltpError::DuplicateKey { .. })
                ),
                "{ctx}"
            );
            s.abort();

            // Range scans visit `[lo, hi]` in key order, whatever the
            // insertion order — unless the index has no key order.
            s.begin();
            for k in (1000..1050u64).rev() {
                s.insert(t, k, &row(k, k as i64 * 10)).unwrap();
            }
            s.commit().unwrap();
            s.begin();
            let mut seen = Vec::new();
            let scanned = s.scan(t, 1010, 1019, &mut |k, r| {
                seen.push((k, r[1].long()));
                true
            });
            s.commit().unwrap();
            if let SystemKind::DbmsM {
                index: DbmsMIndex::Hash,
                ..
            } = kind
            {
                assert!(matches!(scanned, Err(OltpError::Unsupported(_))), "{ctx}");
            } else {
                assert_eq!(scanned.unwrap(), 10, "{ctx}");
                let want: Vec<_> = (1010..=1019u64).map(|k| (k, k as i64 * 10)).collect();
                assert_eq!(seen, want, "{ctx}");
            }
        }
    }

    #[test]
    fn crud_round_trip_under_every_protocol() {
        use crate::SystemBuilder;
        use oltp::{run_txn, Column, DataType, Schema, TableDef, Value};
        for policy in CcPolicy::ALL {
            for kind in SystemKind::ALL {
                let sim = Sim::new(MachineConfig::ivy_bridge(1));
                let mut db = SystemBuilder::new(kind)
                    .partitions(1)
                    .cc(policy)
                    .build(&sim);
                let t = db.create_table(TableDef::new(
                    "t",
                    Schema::new(vec![
                        Column::new("key", DataType::Long),
                        Column::new("val", DataType::Long),
                    ]),
                    64,
                ));
                let mut s = db.session(0);
                let ctx = format!("{} under {}", kind.label(), policy.label());
                run_txn(&mut *s, |s| {
                    for k in 0..8u64 {
                        s.insert(t, k, &[Value::Long(k as i64), Value::Long(0)])?;
                    }
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{ctx}: load failed: {e}"));
                run_txn(&mut *s, |s| {
                    assert!(s.update(t, 3, &mut |r| r[1] = Value::Long(7))?, "{ctx}");
                    assert_eq!(s.read(t, 3)?.unwrap()[1], Value::Long(7), "{ctx}");
                    assert!(s.delete(t, 5)?, "{ctx}");
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{ctx}: rw txn failed: {e}"));
                assert_eq!(db.row_count(t), 7, "{ctx}");
            }
        }
    }
}
