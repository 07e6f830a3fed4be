//! Shore-MT archetype: an open-source disk-based *storage manager*.
//!
//! §3/§4.1.2: "Shore-MT is a storage manager and does not include the
//! layers outside the storage manager component of an OLTP system such as
//! query parser, query optimizer, and communication facilities. It
//! hard-codes the query plan of the transaction in C++." Consequently its
//! instruction stalls are clearly lower than DBMS D's — but it pays the
//! full disk-based storage tax: buffer-pool indirection on every tuple,
//! hierarchical 2PL, WAL, and a non-cache-conscious 8 KB-page B+tree
//! (the source of its high LLC data stalls, §4.1.3).
//!
//! This file is the Shore-MT *profile* of the [`crate::disk`] kernel: the
//! storage manager's module footprints and budgets, the slotted-page
//! B+tree, and the Shore-Kits plan code that is the only thing running
//! outside the storage manager.

use indexes::DiskBTree;
use uarch_sim::Mem;

use crate::disk::{DiskCost, DiskEngine, DiskProfile, DiskRoles};
use crate::scaffold::{Module, Ports};

/// The Shore-MT engine. See the module docs.
pub type ShoreMt = DiskEngine<ShoreMtProfile>;

/// Shore-MT's axes over the disk-based kernel.
pub struct ShoreMtProfile;

/// Shore-Kits hard-coded plans (outside the storage manager).
const KITS: usize = 0;
/// Plan setup for a transaction's first operation / plan-loop glue for
/// later ones.
const EXEC_OP: u64 = 5600;
const EXEC_OP_NEXT: u64 = 1000;
/// Interpreted value processing per row byte.
const VALUE_PER_BYTE: u64 = 7;

impl DiskProfile for ShoreMtProfile {
    const LABEL: &'static str = "Shore-MT";
    const LATCH_SITE: &'static str = "shore_mt/latch";
    const WAL_SITE: &'static str = "shore_mt/wal";
    const MODULES: &'static [Module] = &[
        Module::new("shore/kits-plans", 40 << 10, 2.7, 0.24),
        Module::new("shore/txn-mgmt", 28 << 10, 2.5, 0.22).engine_side(),
        Module::new("shore/lock-mgr", 24 << 10, 2.6, 0.22).engine_side(),
        Module::new("shore/btree", 24 << 10, 2.9, 0.16).engine_side(),
        Module::new("shore/bufferpool", 24 << 10, 2.9, 0.16).engine_side(),
        Module::new("shore/heap", 16 << 10, 2.8, 0.16).engine_side(),
        Module::new("shore/log", 20 << 10, 2.4, 0.18).engine_side(),
    ];
    const ROLES: DiskRoles = DiskRoles {
        txn: 1,
        lock: 2,
        btree: 3,
        bpool: 4,
        heap: 5,
        log: 6,
    };
    const COST: DiskCost = DiskCost {
        begin: 5200,
        commit: 4200,
        abort: 2800,
        log_commit: 3600,
        log_update: 1800,
        lock_wrap: 1800,
        release: 2300,
        index_wrap: 2300,
        heap_wrap: 1500,
        scan_next: 220,
        latch_spin: 220,
    };
    type Index = DiskBTree;

    fn new_index(mem: &Mem) -> DiskBTree {
        DiskBTree::new(mem)
    }

    /// No frontend: the request is already inside the storage manager.
    fn charge_begin(_: &Ports) {}

    /// The hard-coded plan sets up once per transaction; subsequent
    /// operations run inside its loop.
    fn charge_op(ports: &Ports, first: bool) {
        ports
            .mem(KITS)
            .exec(if first { EXEC_OP } else { EXEC_OP_NEXT });
    }

    fn charge_reply(_: &Ports) {}

    fn value_work(ports: &Ports, bytes: usize) {
        ports.mem(KITS).exec(bytes as u64 * VALUE_PER_BYTE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DurableDb;
    use oltp::{Column, DataType, Db, OltpError, Schema, TableDef, TableId, Value};
    use storage::LogKind;
    use uarch_sim::{MachineConfig, Sim};

    fn setup() -> (Sim, ShoreMt) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let db = ShoreMt::new(&sim);
        (sim, db)
    }

    fn micro_table(db: &mut ShoreMt) -> TableId {
        db.create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("key", DataType::Long),
                Column::new("val", DataType::Long),
            ]),
            1000,
        ))
    }

    #[test]
    fn locks_released_at_commit() {
        let (_sim, mut db) = setup();
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 1, &[Value::Long(1), Value::Long(1)]).unwrap();
        s.commit().unwrap();
        assert_eq!(db.lock_entries(), 0);
        s.begin();
        let _ = s.read(t, 1).unwrap();
        assert!(db.lock_entries() > 0);
        s.commit().unwrap();
        assert_eq!(db.lock_entries(), 0);
    }

    #[test]
    fn concurrent_row_lock_conflicts_surface_as_conflict() {
        let (_sim, mut db) = setup();
        let t = micro_table(&mut db);
        let mut a = db.session(0);
        a.begin();
        a.insert(t, 1, &[Value::Long(1), Value::Long(1)]).unwrap();
        a.commit().unwrap();

        let mut b = db.session(0);
        a.begin();
        b.begin();
        assert!(a.update(t, 1, &mut |r| r[1] = Value::Long(2)).unwrap());
        let err = b.update(t, 1, &mut |r| r[1] = Value::Long(3)).unwrap_err();
        assert_eq!(err, OltpError::Conflict { table: t, key: 1 });
        b.abort();
        a.commit().unwrap();
    }

    #[test]
    fn wal_sees_commit_records() {
        let (_sim, mut db) = setup();
        let t = micro_table(&mut db);
        db.enable_durability(&crate::DurabilityCfg::default());
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 9, &[Value::Long(9), Value::Long(9)]).unwrap();
        s.commit().unwrap();
        let streams = db.log_streams();
        let kinds: Vec<LogKind> = streams[0].iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [LogKind::Begin, LogKind::Insert, LogKind::Commit]);
        // Taking moves the same records out and leaves none retained.
        assert_eq!(db.take_log_streams(), streams);
        assert_eq!(db.log_streams(), [Vec::new()]);
    }

    #[test]
    fn activity_is_attributed_to_engine_modules() {
        let (sim, mut db) = setup();
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 1, &[Value::Long(1), Value::Long(1)]).unwrap();
        s.commit().unwrap();
        let counters = sim.module_counters(0);
        let names = sim.module_names();
        let active: Vec<&str> = names
            .iter()
            .zip(&counters)
            .filter(|(_, c)| c.instructions > 0)
            .map(|(n, _)| n.as_str())
            .collect();
        for required in [
            "shore/kits-plans",
            "shore/txn-mgmt",
            "shore/lock-mgr",
            "shore/btree",
            "shore/log",
        ] {
            assert!(
                active.contains(&required),
                "missing activity in {required}: {active:?}"
            );
        }
    }
}
