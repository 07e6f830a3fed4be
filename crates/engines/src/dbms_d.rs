//! DBMS D archetype: a commercial disk-based DBMS with the full software
//! stack.
//!
//! Where Shore-MT is *only* a storage manager, DBMS D carries everything
//! around it: network/session handling, SQL parsing (stored procedures
//! still enter through the frontend), a plan-cache/optimizer layer, an
//! interpreted executor, and a decades-old codebase — the paper blames
//! this large, branchy instruction footprint for DBMS D having the highest
//! instruction stalls of all five systems (Figures 2, 3, 9, 12). The
//! storage side is the classical stack: buffer pool, hierarchical 2PL,
//! WAL, 8 KB-page B+tree ("page size of 8KB ... we could not find any
//! publicly available information about tuning the node size", §4.1.3).
//!
//! This file is the DBMS D *profile* of the [`crate::disk`] kernel it
//! shares with [`crate::shore_mt`]: the legacy frontend charged around
//! every transaction and statement, leaner but colder storage-manager
//! modules, and the packed-key B+tree page layout.

use indexes::DiskBTreePacked;
use uarch_sim::Mem;

use crate::disk::{DiskCost, DiskEngine, DiskProfile, DiskRoles};
use crate::scaffold::{Module, Ports};

/// The DBMS D engine. See the module docs.
pub type DbmsD = DiskEngine<DbmsDProfile>;

/// DBMS D's axes over the disk-based kernel.
pub struct DbmsDProfile;

// Frontend modules.
const NET: usize = 0;
const PARSER: usize = 1;
const OPTIMIZER: usize = 2;
const EXECUTOR: usize = 3;
const CATALOG: usize = 4;

/// Frontend instruction budgets (see results/figures.md for the calibration).
mod cost {
    // Charged per transaction.
    pub const NET_RECV: u64 = 5200;
    pub const PARSE: u64 = 4300;
    pub const OPTIMIZE: u64 = 3800; // plan-cache probe + validation
    pub const NET_REPLY: u64 = 2200;
    // Charged per statement/operation.
    pub const EXEC_OP: u64 = 5600; // interpreted executor: statement entry
    pub const EXEC_OP_NEXT: u64 = 1500; // iterator next() within a statement
    pub const CATALOG: u64 = 800;
    pub const CATALOG_NEXT: u64 = 150;
    /// Interpreted value processing per row byte.
    pub const VALUE_PER_BYTE: u64 = 8;
}

impl DiskProfile for DbmsDProfile {
    const LABEL: &'static str = "DBMS D";
    const LATCH_SITE: &'static str = "dbms_d/latch";
    const WAL_SITE: &'static str = "dbms_d/wal";
    // Legacy code: large footprints, low dynamic reuse, many branches.
    const MODULES: &'static [Module] = &[
        Module::new("dbmsd/network", 48 << 10, 1.5, 0.24),
        Module::new("dbmsd/parser", 64 << 10, 1.35, 0.28),
        Module::new("dbmsd/optimizer", 64 << 10, 1.3, 0.28),
        Module::new("dbmsd/executor", 56 << 10, 1.5, 0.26),
        Module::new("dbmsd/catalog", 16 << 10, 1.8, 0.20),
        Module::new("dbmsd/txn-mgmt", 24 << 10, 1.8, 0.20).engine_side(),
        Module::new("dbmsd/lock-mgr", 16 << 10, 2.0, 0.15).engine_side(),
        Module::new("dbmsd/btree", 16 << 10, 2.2, 0.10).engine_side(),
        Module::new("dbmsd/bufferpool", 20 << 10, 2.2, 0.10).engine_side(),
        Module::new("dbmsd/heap", 12 << 10, 2.2, 0.10).engine_side(),
        Module::new("dbmsd/log", 16 << 10, 2.0, 0.12).engine_side(),
    ];
    const ROLES: DiskRoles = DiskRoles {
        txn: 5,
        lock: 6,
        btree: 7,
        bpool: 8,
        heap: 9,
        log: 10,
    };
    const COST: DiskCost = DiskCost {
        begin: 2600,
        commit: 2400,
        abort: 1900,
        log_commit: 2600,
        log_update: 1200,
        lock_wrap: 1200,
        release: 1600,
        index_wrap: 1400,
        heap_wrap: 1000,
        scan_next: 220,
        // Higher than Shore-MT's: the legacy storage manager holds its
        // latches across longer code paths.
        latch_spin: 260,
    };
    type Index = DiskBTreePacked;

    fn new_index(mem: &Mem) -> DiskBTreePacked {
        DiskBTreePacked::new(mem)
    }

    /// The request travels the whole frontend before the SM sees it.
    fn charge_begin(ports: &Ports) {
        ports.mem(NET).exec(cost::NET_RECV);
        ports.mem(PARSER).exec(cost::PARSE);
        ports.mem(OPTIMIZER).exec(cost::OPTIMIZE);
    }

    /// Full executor dispatch + catalog resolution for the first operation
    /// of a transaction, iterator `next()` glue for subsequent ones.
    fn charge_op(ports: &Ports, first: bool) {
        let (exec, catalog) = if first {
            (cost::EXEC_OP, cost::CATALOG)
        } else {
            (cost::EXEC_OP_NEXT, cost::CATALOG_NEXT)
        };
        ports.mem(EXECUTOR).exec(exec);
        ports.mem(CATALOG).exec(catalog);
    }

    fn charge_reply(ports: &Ports) {
        ports.mem(NET).exec(cost::NET_REPLY);
    }

    fn value_work(ports: &Ports, bytes: usize) {
        ports
            .mem(EXECUTOR)
            .exec(bytes as u64 * cost::VALUE_PER_BYTE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shore_mt::ShoreMt;
    use oltp::{Column, DataType, Db, Schema, TableDef, TableId, Value};
    use uarch_sim::{MachineConfig, Sim};

    fn micro_def() -> TableDef {
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
    fn frontend_instruction_footprint_exceeds_shore_mt() {
        // The paper's central Shore-MT vs DBMS D contrast: same storage
        // architecture, very different instruction counts per transaction.
        let run = |mk: &dyn Fn(&Sim) -> Box<dyn Db>| {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let mut db = mk(&sim);
            let t = db.create_table(micro_def());
            let mut s = db.session(0);
            s.begin();
            for k in 0..500u64 {
                s.insert(t, k, &[Value::Long(k as i64), Value::Long(0)])
                    .unwrap();
            }
            s.commit().unwrap();
            let before = sim.counters(0).instructions;
            for k in 0..100u64 {
                s.begin();
                let _ = s.read(t, k * 3 % 500).unwrap();
                s.commit().unwrap();
            }
            (sim.counters(0).instructions - before) / 100
        };
        let shore = run(&|s| Box::new(ShoreMt::new(s)));
        let dbmsd = run(&|s| Box::new(DbmsD::new(s)));
        assert!(
            dbmsd as f64 > shore as f64 * 1.2,
            "DBMS D should retire clearly more instructions/txn: dbmsd={dbmsd} shore={shore}"
        );
    }

    #[test]
    fn scan_releases_its_table_lock() {
        let mut db = DbmsD::new(&Sim::new(MachineConfig::ivy_bridge(1)));
        let t: TableId = db.create_table(micro_def());
        let mut s = db.session(0);
        s.begin();
        for k in 0..30u64 {
            s.insert(t, k, &[Value::Long(k as i64), Value::Long(k as i64)])
                .unwrap();
        }
        s.commit().unwrap();
        s.begin();
        let n = s.scan(t, 5, 14, &mut |_, _| true).unwrap();
        assert_eq!(n, 10);
        assert!(db.lock_entries() > 0);
        s.commit().unwrap();
        assert_eq!(db.lock_entries(), 0);
    }
}
