//! HyPer archetype: compiled transactions over ART-indexed partitions.
//!
//! §4.1.2: "HyPer compiles transactions directly into machine code.
//! Therefore, its transactions have an aggressively optimized instruction
//! stream — small instruction footprint, few ... branches". Our compiled
//! procedures are a single small, loop-dense code segment; the runtime
//! around them is thin. The flip side the paper highlights: finishing
//! transactions in so few instructions makes HyPer touch *more random
//! data per unit of time*, so when the working set exceeds the LLC its
//! data stalls per 1000 instructions dwarf everyone else's (5–10x,
//! Figure 2) while its stalls *per transaction* remain among the lowest
//! (Figure 3).
//!
//! This file is the HyPer *profile* of the [`crate::partitioned`] kernel
//! it shares with [`crate::voltdb`]: three small modules, budgets an order
//! of magnitude below the other systems, the ART, and index, row and value
//! work all running in the one compiled-procedure segment.

use indexes::Art;
use obs::Phase;
use oltp::{tuple, Row};
use storage::{MemStore, RowId};
use uarch_sim::{BatchOp, Mem};

use crate::partitioned::{
    PTable, PartitionCost, PartitionProfile, PartitionRoles, PartitionedEngine,
};
use crate::scaffold::{Module, Ports};

/// The HyPer engine. See the module docs.
pub type HyPer = PartitionedEngine<HyPerProfile>;

/// HyPer's axes over the partitioned kernel.
pub struct HyPerProfile;

const RUNTIME: usize = 0;
const PROC: usize = 1;
const LOG: usize = 2;

/// Instruction budgets: an order of magnitude below the other systems.
mod cost {
    pub const RT_BEGIN: u64 = 360; // request intake + compiled-proc call
    pub const PROC_OP: u64 = 200; // compiled data-access fragment per op
    pub const COMMIT: u64 = 170;
    pub const REDO: u64 = 200; // asynchronous redo-log append
    pub const ABORT: u64 = 110;
    pub const SCAN_NEXT: u64 = 14;
    /// Cross-partition dispatch when the own-partition probe misses: even
    /// compiled code pays a runtime hop to hand the fragment to another
    /// partition (HyPer's coordination is far leaner than VoltDB's 2PC).
    pub const MP_COORD: u64 = 900;
    /// Compiled value processing per row byte (tight generated loops).
    pub const VALUE_PER_BYTE: u64 = 2;
    /// Full-key string comparison at the ART leaf.
    pub const STR_CMP: u64 = 340;
}

impl PartitionProfile for HyPerProfile {
    const LABEL: &'static str = "HyPer";
    const CLAIM_SITE: &'static str = "hyper/claim";
    const LOG_SITE: &'static str = "hyper/wal";
    const MODULES: &'static [Module] = &[
        Module::new("hyper/runtime", 16 << 10, 2.4, 0.08),
        // The compiled stored procedures: tiny, loop-dense, almost
        // branch-free — the fruit of Neumann-style code generation.
        Module::new("hyper/compiled-proc", 12 << 10, 5.0, 0.01).engine_side(),
        Module::new("hyper/redo-log", 8 << 10, 2.6, 0.06),
    ];
    const ROLES: PartitionRoles = PartitionRoles {
        cc_txn: RUNTIME,
        cc_access: PROC,
        index: PROC,
        store: PROC,
        log: LOG,
        mp_coord: RUNTIME,
        mp_probe: PROC,
    };
    const COST: PartitionCost = PartitionCost {
        wal_group: 32,
        log_commit: cost::REDO,
        commit_record: 24,
        mp_coord: cost::MP_COORD,
        mp_probe: cost::PROC_OP,
    };
    const LOG_SPAN_COVERS_CC_RELEASE: bool = false;
    type Index = Art;
    type State = ();

    fn new_index(mem: &Mem) -> Art {
        Art::new(mem)
    }

    fn charge_begin(ports: &Ports, _: &()) {
        ports.mem(RUNTIME).exec(cost::RT_BEGIN);
    }

    fn charge_op(ports: &Ports, _first: bool) {
        ports.mem(PROC).exec(cost::PROC_OP);
    }

    fn charge_commit(ports: &Ports, _: &()) {
        ports.mem(RUNTIME).exec(cost::COMMIT);
    }

    fn charge_abort(ports: &Ports) {
        ports.mem(RUNTIME).exec(cost::ABORT);
    }

    /// Nothing ahead of the probe: the ART compares the full key once, at
    /// the leaf, charged with the value work.
    fn key_work(_: &Ports, _: &PTable<Art>) {}

    /// Compiled value processing + leaf string comparison (§6.2).
    fn value_work(ports: &Ports, table: &PTable<Art>, bytes: usize) {
        let mem = ports.mem(PROC);
        mem.exec(bytes as u64 * cost::VALUE_PER_BYTE);
        if table.str_key {
            mem.exec(cost::STR_CMP);
        }
    }

    /// Value work and the row store are one stretch of generated code.
    fn store_insert(ports: &Ports, table: &mut PTable<Art>, data: &[u8]) -> RowId {
        let _s = ports.span(Phase::Storage);
        Self::value_work(ports, table, data.len());
        table.store.insert(ports.mem(PROC), data)
    }

    /// One batched run per row: the scan step, the row dereference, the
    /// row load, and the per-byte value work ride a single core
    /// acquisition. Event accounting is identical to issuing the ops
    /// separately.
    fn scan_row(ports: &Ports, store: &MemStore, id: RowId) -> Option<Row> {
        let slot = store.slot(id);
        let (addr, len) = slot.map_or((0, 0), |(addr, data)| (addr, data.len()));
        let ops = [
            BatchOp::Exec(cost::SCAN_NEXT),
            BatchOp::Exec(storage::ROW_READ_INSTRS),
            BatchOp::Read {
                addr,
                len: len.max(1) as u32,
            },
            BatchOp::Exec(len as u64 * cost::VALUE_PER_BYTE),
        ];
        // An absent row costs the step and the dereference only.
        let n = if slot.is_some() { ops.len() } else { 2 };
        ports.mem(PROC).run_ops(&ops[..n]);
        slot.and_then(|(_, d)| tuple::decode(d).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::{Column, DataType, Db, Schema, TableDef, Value};
    use uarch_sim::{MachineConfig, Sim};

    #[test]
    fn instructions_per_txn_are_tiny() {
        // HyPer's defining property: an order of magnitude fewer
        // instructions per transaction than the interpreted systems.
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db = HyPer::new(&sim, 1);
        let t = db.create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("key", DataType::Long),
                Column::new("val", DataType::Long),
            ]),
            1000,
        ));
        let mut s = db.session(0);
        s.begin();
        for k in 0..1000u64 {
            s.insert(t, k, &[Value::Long(k as i64), Value::Long(0)])
                .unwrap();
        }
        s.commit().unwrap();
        let before = sim.counters(0).instructions;
        for k in 0..100u64 {
            s.begin();
            let _ = s.read(t, (k * 37) % 1000).unwrap();
            s.commit().unwrap();
        }
        let per_txn = (sim.counters(0).instructions - before) / 100;
        assert!(per_txn < 6000, "per_txn={per_txn}");
    }
}
