//! Scaled-down assertions of the paper's headline findings. These are the
//! same qualitative claims the `figures` harness checks at full scale,
//! shrunk so the whole file runs in tens of seconds under `cargo test`.

use imoltp::analysis::{measure, Measurement, WindowSpec};
use imoltp::bench::tpcc::{TpcC, TpcCScale};
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::sim::{MachineConfig, Sim, StallEvent};
use imoltp::systems::{build_system, DbmsMIndex, SystemKind};

/// Load `w` offline into a fresh one-core `kind`, warm the LLC, and measure
/// one window of `measured` transactions after `warmup`.
fn run(kind: SystemKind, mut w: impl Workload, warmup: u64, measured: u64) -> Measurement {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = build_system(kind, &sim, 1);
    sim.offline(|| w.setup(db.as_mut(), 1));
    sim.warm_data();
    let mut s = db.session(0);
    let spec = WindowSpec {
        warmup,
        measured,
        reps: 1,
    };
    measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).expect("txn"))
}

/// Run the read-only micro-benchmark with `rows` table rows.
fn micro(kind: SystemKind, rows: u64, rows_per_txn: u32) -> Measurement {
    let w = MicroBench::new(DbSize::Mb1)
        .with_rows(rows)
        .rows_per_txn(rows_per_txn);
    run(kind, w, 1200, 2000)
}

const SMALL: u64 = 16 * 1024; // fits every cache level that matters
const LARGE: u64 = 800_000; // far beyond the LLC

fn i_spki(m: &Measurement) -> f64 {
    m.spki[..3].iter().sum()
}

fn llcd(m: &Measurement) -> f64 {
    m.spki[StallEvent::LlcD as usize]
}

#[test]
fn ipc_barely_reaches_one_on_a_four_wide_machine() {
    // The paper's central finding (§8).
    for kind in SystemKind::ALL {
        let m = micro(kind, LARGE, 1);
        assert!(
            m.ipc < 1.4,
            "{kind:?}: IPC {:.2} too high for an OLTP workload beyond LLC",
            m.ipc
        );
    }
}

#[test]
fn more_than_token_stall_time_everywhere() {
    let cfg = MachineConfig::ivy_bridge(1);
    for kind in SystemKind::ALL {
        let m = micro(kind, LARGE, 1);
        let frac = m.stall_cycle_fraction(&cfg);
        assert!(
            frac > 0.4,
            "{kind:?}: stall fraction {frac:.2} — paper reports > 0.5"
        );
    }
}

#[test]
fn l1i_dominates_for_everyone_but_hyper() {
    for kind in SystemKind::ALL {
        let m = micro(kind, LARGE, 1);
        let l1i = m.spki[0];
        let max_other = m.spki[1..].iter().copied().fold(0.0, f64::max);
        if kind == SystemKind::HyPer {
            assert!(
                llcd(&m) > l1i,
                "HyPer should be data-bound: LLCD {:.0} vs L1I {l1i:.0}",
                llcd(&m)
            );
        } else {
            assert!(
                l1i >= max_other,
                "{kind:?}: L1I {l1i:.0} should dominate (max other {max_other:.0})"
            );
        }
    }
}

#[test]
fn hyper_flips_from_best_to_worst_as_data_outgrows_llc() {
    let small = micro(SystemKind::HyPer, SMALL, 1);
    let large = micro(SystemKind::HyPer, LARGE, 1);
    assert!(
        small.ipc > 1.5,
        "HyPer on cache-resident data should fly: IPC {:.2}",
        small.ipc
    );
    assert!(
        large.ipc < small.ipc * 0.6,
        "HyPer must collapse beyond LLC: {:.2} -> {:.2}",
        small.ipc,
        large.ipc
    );
    // And its data stalls per k-instr dwarf the other systems'.
    let others_max = [SystemKind::ShoreMt, SystemKind::VoltDb]
        .iter()
        .map(|&k| llcd(&micro(k, LARGE, 1)))
        .fold(0.0, f64::max);
    assert!(
        llcd(&large) > 3.0 * others_max,
        "HyPer LLCD {:.0} vs others {others_max:.0}",
        llcd(&large)
    );
}

#[test]
fn dbms_d_has_the_heaviest_instruction_stream() {
    let d = micro(SystemKind::DbmsD, LARGE, 1);
    for kind in [SystemKind::ShoreMt, SystemKind::VoltDb, SystemKind::HyPer] {
        let m = micro(kind, LARGE, 1);
        assert!(
            i_spki(&d) > i_spki(&m),
            "DBMS D I-SPKI {:.0} should exceed {kind:?}'s {:.0}",
            i_spki(&d),
            i_spki(&m)
        );
        assert!(
            d.instr_per_txn > m.instr_per_txn,
            "DBMS D should retire the most instructions"
        );
    }
}

#[test]
fn work_per_txn_moves_disk_and_memory_systems_in_opposite_directions() {
    // §4.2: rows/txn up => disk IPC up, in-memory IPC down.
    let shore_1 = micro(SystemKind::ShoreMt, LARGE, 1);
    let shore_100 = micro(SystemKind::ShoreMt, LARGE, 100);
    assert!(
        shore_100.ipc >= shore_1.ipc - 0.03,
        "Shore-MT IPC should not fall with more rows: {:.2} -> {:.2}",
        shore_1.ipc,
        shore_100.ipc
    );
    let hyper_1 = micro(SystemKind::HyPer, LARGE, 1);
    let hyper_100 = micro(SystemKind::HyPer, LARGE, 100);
    assert!(
        hyper_100.ipc <= hyper_1.ipc + 0.03,
        "HyPer IPC should not rise with more rows: {:.2} -> {:.2}",
        hyper_1.ipc,
        hyper_100.ipc
    );
    // Instruction stalls amortize for everyone.
    assert!(i_spki(&shore_100) < i_spki(&shore_1));
}

#[test]
fn compilation_cuts_instruction_stalls() {
    // §6.1 on DBMS M, 10 rows per transaction.
    let on = micro(
        SystemKind::DbmsM {
            index: DbmsMIndex::Hash,
            compiled: true,
        },
        LARGE,
        10,
    );
    let off = micro(
        SystemKind::DbmsM {
            index: DbmsMIndex::Hash,
            compiled: false,
        },
        LARGE,
        10,
    );
    assert!(
        i_spki(&on) < 0.8 * i_spki(&off),
        "compilation should cut I-stalls: {:.0} vs {:.0}",
        i_spki(&on),
        i_spki(&off)
    );
    assert!(on.instr_per_txn < off.instr_per_txn);
}

#[test]
fn btree_pays_more_llc_data_stalls_than_hash() {
    // §6.1: "LLC data stalls are 2-4x larger for the B-tree index". The
    // effect needs the index itself to be far beyond LLC capacity (at
    // LLC-boundary sizes the tree's upper levels stay cached and the two
    // structures converge), so this claim uses a deeper table.
    const DEEP: u64 = 2_000_000;
    let hash = micro(
        SystemKind::DbmsM {
            index: DbmsMIndex::Hash,
            compiled: true,
        },
        DEEP,
        10,
    );
    let btree = micro(
        SystemKind::DbmsM {
            index: DbmsMIndex::BTree,
            compiled: true,
        },
        DEEP,
        10,
    );
    // (The paper reports 2-4x at 2 billion rows; the gap scales with tree
    // depth, so the full-scale check asserts >1.35x at 3M rows and this
    // scaled-down canary a directional >1.2x at 2M.)
    assert!(
        llcd(&btree) > 1.2 * llcd(&hash),
        "btree {:.0} vs hash {:.0}",
        llcd(&btree),
        llcd(&hash)
    );
}

#[test]
fn read_write_variant_has_larger_instruction_footprint() {
    // Appendix A: update transactions retire more instructions and stall
    // more on the instruction side than reads.
    for kind in [SystemKind::ShoreMt, SystemKind::VoltDb] {
        let w = MicroBench::new(DbSize::Mb1).with_rows(LARGE).read_write();
        let rw = run(kind, w, 1200, 2000);
        let ro = micro(kind, LARGE, 1);
        assert!(
            rw.instr_per_txn > ro.instr_per_txn,
            "{kind:?}: rw {:.0} <= ro {:.0}",
            rw.instr_per_txn,
            ro.instr_per_txn
        );
    }
}

#[test]
fn tpcc_instructions_follow_rows_touched_not_table_size() {
    // §5 reads HyPer's TPC-C off its index: what a transaction retires
    // follows the rows its probes and range scans touch. Four times the
    // customers, items and initial orders leave those nearly alone; a scan
    // whose cost followed the table would at least double it.
    let tiny = TpcCScale::tiny();
    let quadrupled = TpcCScale {
        customers_per_district: 4 * tiny.customers_per_district,
        items: 4 * tiny.items,
        initial_orders: 4 * tiny.initial_orders,
        ..tiny
    };
    for kind in [SystemKind::HyPer, SystemKind::VoltDb] {
        let [small, large] = [tiny, quadrupled]
            .map(|scale| run(kind, TpcC::with_scale(scale).seed(5), 50, 250).instr_per_txn);
        assert!(
            large < 1.25 * small,
            "{kind:?}: {small:.0} -> {large:.0} instructions per transaction on a 4x database"
        );
    }
}
