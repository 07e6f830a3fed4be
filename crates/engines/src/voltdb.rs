//! VoltDB archetype: partition-per-core serial execution with interpreted
//! stored procedures.
//!
//! §2.1/§3: VoltDB physically partitions the data, runs exactly one worker
//! thread per partition, and therefore needs *no* locking or latching for
//! single-partition transactions. Stored procedures are interpreted (it is
//! the one in-memory system in the study *without* transaction
//! compilation), entered through a Java-based runtime — which is why its
//! instruction stalls sit well above HyPer's though below the disk-based
//! systems'. Its tree index is "a traditional B-tree with node size tuned
//! to the last-level cache line size", our [`CcBTree`].
//!
//! This file is the VoltDB *profile* of the [`crate::partitioned`] kernel
//! it shares with [`crate::hyper`]: the Java runtime / network / dispatch /
//! plan-interpreter frontend, the C++ execution engine's per-byte value
//! loops and per-level string compares, and the multi-partition
//! coordinator that idles while the single-site guarantee holds.

use std::cell::Cell;

use indexes::{CcBTree, Index};
use obs::Phase;
use oltp::{tuple, Row};
use storage::{MemStore, RowId};
use uarch_sim::Mem;

use crate::partitioned::{
    PTable, PartitionCost, PartitionProfile, PartitionRoles, PartitionedEngine,
};
use crate::scaffold::{Module, Ports};

/// The VoltDB engine. See the module docs.
pub type VoltDb = PartitionedEngine<VoltDbProfile>;

/// VoltDB's axes over the partitioned kernel.
pub struct VoltDbProfile;

const JAVA_RT: usize = 0;
const NET: usize = 1;
const DISPATCH: usize = 2;
const PLAN: usize = 3;
const EE: usize = 4;
const INDEX: usize = 5;
const STORE: usize = 6;
const CLOG: usize = 7;
/// Multi-partition initiator/coordinator code (idle when the paper's
/// single-site guarantee is given).
const MP_COORD: usize = 8;

/// Instruction budgets.
mod cost {
    pub const RT_BEGIN: u64 = 4600; // Java runtime: txn intake + scheduling
    pub const NET_RECV: u64 = 3100;
    pub const DISPATCH: u64 = 2700; // procedure lookup + param deserialize
    pub const PLAN_OP: u64 = 5900; // interpreted plan fragment: first op
    pub const PLAN_OP_NEXT: u64 = 1300; // fragment loop for later ops
    pub const EE_OP: u64 = 1400; // C++ execution-engine entry per op
    pub const COMMIT: u64 = 2000;
    pub const CLOG: u64 = 2000; // asynchronous command log
    pub const ABORT: u64 = 900;
    /// Multi-partition coordination (initiator, 2PC-style agreement,
    /// fragment distribution) when single-site execution is NOT assured.
    pub const MP_COORD: u64 = 6200;
    pub const MP_COMMIT: u64 = 2600;
    pub const SCAN_NEXT: u64 = 130;
    /// Interpreted value processing (copy/compare/serialize) per row byte.
    pub const VALUE_PER_BYTE: u64 = 8;
    /// String-key comparison work per B-tree level during a probe.
    pub const STR_CMP_PER_LEVEL: u64 = 700;
}

/// Whether the single-site guarantee is dropped, so every transaction
/// takes the multi-partition path. Off by default: the paper's
/// configuration is single-sited.
#[derive(Default)]
pub struct MultiSited(Cell<bool>);

impl VoltDb {
    /// Drop the single-site guarantee: every transaction goes through the
    /// multi-partition coordinator path. §7's side note measures this
    /// costing VoltDB ~60% more instruction stalls; `figures
    /// ablation-voltdb-mp` reproduces it.
    pub fn set_single_sited(&mut self, yes: bool) {
        self.state().0.set(!yes);
    }
}

impl PartitionProfile for VoltDbProfile {
    const LABEL: &'static str = "VoltDB";
    const CLAIM_SITE: &'static str = "voltdb/claim";
    const LOG_SITE: &'static str = "voltdb/clog";
    const MODULES: &'static [Module] = &[
        Module::new("voltdb/java-runtime", 56 << 10, 1.9, 0.26),
        Module::new("voltdb/network", 28 << 10, 2.0, 0.20),
        Module::new("voltdb/proc-dispatch", 24 << 10, 2.0, 0.20),
        Module::new("voltdb/plan-interp", 44 << 10, 2.0, 0.26),
        Module::new("voltdb/exec-engine", 28 << 10, 2.4, 0.18).engine_side(),
        Module::new("voltdb/cc-btree", 18 << 10, 2.7, 0.14).engine_side(),
        Module::new("voltdb/table-store", 12 << 10, 2.8, 0.14).engine_side(),
        Module::new("voltdb/command-log", 14 << 10, 2.2, 0.16),
        Module::new("voltdb/mp-coordinator", 40 << 10, 1.5, 0.24),
    ];
    const ROLES: PartitionRoles = PartitionRoles {
        cc_txn: EE,
        cc_access: EE,
        index: INDEX,
        store: STORE,
        log: CLOG,
        mp_coord: MP_COORD,
        mp_probe: EE,
    };
    const COST: PartitionCost = PartitionCost {
        wal_group: 16,
        log_commit: cost::CLOG,
        commit_record: 32,
        mp_coord: cost::MP_COORD,
        mp_probe: cost::EE_OP,
    };
    // The command-log span has always run to the end of commit.
    const LOG_SPAN_COVERS_CC_RELEASE: bool = true;
    type Index = CcBTree;
    type State = MultiSited;

    fn new_index(mem: &Mem) -> CcBTree {
        CcBTree::new(mem)
    }

    fn charge_begin(ports: &Ports, multi_sited: &MultiSited) {
        ports.mem(NET).exec(cost::NET_RECV);
        ports.mem(JAVA_RT).exec(cost::RT_BEGIN);
        ports.mem(DISPATCH).exec(cost::DISPATCH);
        if multi_sited.0.get() {
            ports.mem(MP_COORD).exec(cost::MP_COORD);
        }
    }

    /// Interpreted plan fragment + EE entry. The fragment is planned once
    /// per procedure; later operations iterate it.
    fn charge_op(ports: &Ports, first: bool) {
        let plan = if first {
            cost::PLAN_OP
        } else {
            cost::PLAN_OP_NEXT
        };
        ports.mem(PLAN).exec(plan);
        ports.mem(EE).exec(cost::EE_OP);
    }

    fn charge_commit(ports: &Ports, multi_sited: &MultiSited) {
        ports.mem(JAVA_RT).exec(cost::COMMIT);
        if multi_sited.0.get() {
            ports.mem(MP_COORD).exec(cost::MP_COMMIT);
        }
    }

    fn charge_abort(ports: &Ports) {
        ports.mem(JAVA_RT).exec(cost::ABORT);
    }

    /// Extra key-comparison instructions for string-keyed tables: each
    /// level of the descent compares ~50-byte keys in a tight loop that
    /// re-uses the lines the probe already touched.
    fn key_work(ports: &Ports, table: &PTable<CcBTree>) {
        let _i = ports.span(Phase::Index);
        if table.str_key {
            let h = u64::from(table.index.stats().height);
            ports.mem(INDEX).exec(h * cost::STR_CMP_PER_LEVEL);
        }
    }

    /// Interpreted copy/compare loops in the EE (the §6.2 data-type
    /// effect).
    fn value_work(ports: &Ports, _: &PTable<CcBTree>, bytes: usize) {
        ports.mem(EE).exec(bytes as u64 * cost::VALUE_PER_BYTE);
    }

    /// The EE serializes the tuple, the index layer prepares the key,
    /// then the table store takes the row — three separately attributed
    /// steps.
    fn store_insert(ports: &Ports, table: &mut PTable<CcBTree>, data: &[u8]) -> RowId {
        {
            let _s = ports.span(Phase::Storage);
            Self::value_work(ports, table, data.len());
        }
        Self::key_work(ports, table);
        let _s = ports.span(Phase::Storage);
        table.store.insert(ports.mem(STORE), data)
    }

    fn scan_row(ports: &Ports, store: &MemStore, id: RowId) -> Option<Row> {
        let mem = ports.mem(STORE);
        mem.exec(cost::SCAN_NEXT);
        let mut decoded: Option<Row> = None;
        let mut bytes = 0;
        store.read(mem, id, &mut |d| {
            bytes = d.len();
            decoded = tuple::decode(d).ok();
        });
        ports.mem(EE).exec(bytes as u64 * cost::VALUE_PER_BYTE);
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::{Column, DataType, Db, OltpError, Schema, TableDef, Value};
    use uarch_sim::{MachineConfig, Sim};

    fn table_def() -> TableDef {
        TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("key", DataType::Long),
                Column::new("val", DataType::Long),
            ]),
            1000,
        )
    }

    #[test]
    fn partitions_are_disjoint() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let mut db = VoltDb::new(&sim, 2);
        let t = db.create_table(table_def());
        // Same key on two partitions: independent rows.
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 7, &[Value::Long(7), Value::Long(100)])
            .unwrap();
        s0.commit().unwrap();
        s1.begin();
        s1.insert(t, 7, &[Value::Long(7), Value::Long(200)])
            .unwrap();
        assert_eq!(s1.read(t, 7).unwrap().unwrap()[1], Value::Long(200));
        s1.commit().unwrap();
        s0.begin();
        assert_eq!(s0.read(t, 7).unwrap().unwrap()[1], Value::Long(100));
        s0.commit().unwrap();
        assert_eq!(db.row_count(t), 2);
    }

    #[test]
    fn partition_sharing_conflicts_under_no_wait_rule() {
        // Two workers forced onto one partition: the serial-execution
        // owner claim rejects the second transaction without waiting.
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let mut db = VoltDb::new(&sim, 1);
        let t = db.create_table(table_def());
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 1, &[Value::Long(1), Value::Long(0)]).unwrap();
        s1.begin();
        let err = s1
            .insert(t, 2, &[Value::Long(2), Value::Long(0)])
            .unwrap_err();
        assert_eq!(err, OltpError::Conflict { table: t, key: 2 });
        s1.abort();
        s0.commit().unwrap();
        // Partition released: the second worker can now proceed.
        s1.begin();
        s1.insert(t, 2, &[Value::Long(2), Value::Long(0)]).unwrap();
        s1.commit().unwrap();
        assert_eq!(db.row_count(t), 2);
    }

    #[test]
    fn txn_outcomes_mirror_into_the_metrics_registry() {
        // Delta discipline: other tests share the process-global registry
        // (and the "VoltDB" label), so assert the window grew by at least
        // what this test did, never on absolute values.
        let base = obs::metrics::registry().snapshot();
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let mut db = VoltDb::new(&sim, 1);
        let t = db.create_table(table_def());
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 1, &[Value::Long(1), Value::Long(0)]).unwrap();
        s1.begin();
        s1.insert(t, 2, &[Value::Long(2), Value::Long(0)])
            .unwrap_err();
        s1.abort();
        s0.commit().unwrap();
        let win = obs::metrics::registry().snapshot().delta(&base);
        let l = [("engine", VoltDbProfile::LABEL)];
        assert!(win.counter_value("txn_commits_total", &l) >= 1);
        assert!(win.counter_value("txn_conflicts_total", &l) >= 1);
        assert!(win.counter_value("txn_aborts_total", &l) >= 1);
    }
}
