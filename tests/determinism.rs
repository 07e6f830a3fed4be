//! Reproducibility: identical seeds and configurations must produce
//! bit-identical simulated measurements — the property that makes the
//! figure tables in results/figures.md stable across regenerations — and the
//! single-worker session API must reproduce the counter values measured
//! before the concurrent-execution refactor.

use imoltp::analysis::{measure, measure_workers, Measurement, Pacing, WindowSpec};
use imoltp::bench::{DbSize, MicroBench, TpcB, Workload};
use imoltp::sim::{MachineConfig, Sim};
use imoltp::systems::{build_system, DbmsMIndex, SystemKind};

fn run_micro(kind: SystemKind, seed: u64) -> Measurement {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = build_system(kind, &sim, 1);
    let mut w = MicroBench::new(DbSize::Mb1).with_rows(30_000).seed(seed);
    sim.offline(|| w.setup(db.as_mut(), 1));
    sim.warm_data();
    let mut s = db.session(0);
    let spec = WindowSpec {
        warmup: 300,
        measured: 800,
        reps: 2,
    };
    measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).unwrap())
}

#[test]
fn same_seed_same_counters() {
    for kind in [
        SystemKind::ShoreMt,
        SystemKind::HyPer,
        SystemKind::dbms_m_for_tpcc(),
    ] {
        let a = run_micro(kind, 1234);
        let b = run_micro(kind, 1234);
        assert_eq!(
            a.counts, b.counts,
            "{kind:?}: counters diverged across identical runs"
        );
        assert_eq!(
            a.cycles.to_bits(),
            b.cycles.to_bits(),
            "{kind:?}: cycles diverged"
        );
    }
}

#[test]
fn different_seed_different_trace() {
    let a = run_micro(SystemKind::VoltDb, 1);
    let b = run_micro(SystemKind::VoltDb, 2);
    // Same workload shape (instruction counts nearly equal) but a
    // different access trace (miss counts differ).
    assert!((a.instr_per_txn - b.instr_per_txn).abs() < a.instr_per_txn * 0.02);
    assert_ne!(a.counts.misses, b.counts.misses);
}

#[test]
fn tpcb_is_deterministic_end_to_end() {
    let run = || {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db = build_system(SystemKind::DbmsD, &sim, 1);
        let mut w = TpcB::with_branches(1).seed(55);
        sim.offline(|| w.setup(db.as_mut(), 1));
        sim.warm_data();
        let mut s = db.session(0);
        let spec = WindowSpec {
            warmup: 100,
            measured: 300,
            reps: 1,
        };
        let m = measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).unwrap());
        drop(s);
        (m.counts, w.total_balance(db.as_ref(), "account"))
    };
    let (c1, b1) = run();
    let (c2, b2) = run();
    assert_eq!(c1, c2);
    assert_eq!(b1, b2);
}

/// Golden single-worker values captured before the concurrent-execution
/// refactor (session API, thread-safe machine). The Arc/Mutex plumbing must
/// not change a single simulated event for the paper's single-threaded
/// methodology: every counter and the cycle total are compared exactly.
struct Golden {
    kind: SystemKind,
    instructions: u64,
    loads: u64,
    stores: u64,
    misses: [u64; 6],
    mispredicts: u64,
    store_misses: u64,
    cycles_bits: u64,
}

#[test]
fn single_worker_counters_match_pre_refactor_golden() {
    let golden = [
        Golden {
            kind: SystemKind::ShoreMt,
            instructions: 46_244_800,
            loads: 61_288,
            stores: 12_800,
            misses: [859_385, 931, 0, 22_448, 18_419, 2_053],
            mispredicts: 1_168_121,
            store_misses: 4_422,
            cycles_bits: 0x4172d7404f111112,
        },
        Golden {
            kind: SystemKind::DbmsD,
            instructions: 58_404_800,
            loads: 38_847,
            stores: 12_800,
            misses: [1_991_146, 468_439, 0, 16_543, 16_543, 2_053],
            mispredicts: 1_518_077,
            store_misses: 4_325,
            cycles_bits: 0x417fa395a3555556,
        },
        Golden {
            kind: SystemKind::VoltDb,
            instructions: 35_316_800,
            loads: 19_281,
            stores: 2_800,
            misses: [937_798, 4_486, 35, 6_626, 5_821, 0],
            mispredicts: 968_077,
            store_misses: 200,
            cycles_bits: 0x416f7f0fbf777777,
        },
        Golden {
            kind: SystemKind::HyPer,
            instructions: 1_746_396,
            loads: 12_942,
            stores: 2_400,
            misses: [6_847, 44, 0, 8_246, 6_416, 0],
            mispredicts: 11_472,
            store_misses: 400,
            cycles_bits: 0x411c1ef999999999,
        },
        Golden {
            kind: SystemKind::DbmsM {
                index: DbmsMIndex::Hash,
                compiled: true,
            },
            instructions: 29_395_200,
            loads: 5_186,
            stores: 4_600,
            misses: [817_571, 297, 38, 3_178, 3_137, 0],
            mispredicts: 823_635,
            store_misses: 401,
            cycles_bits: 0x416aa5dda4cccccc,
        },
    ];
    for g in golden {
        let m = run_micro(g.kind, 4242);
        assert_eq!(m.counts.instructions, g.instructions, "{:?}", g.kind);
        assert_eq!(m.counts.loads, g.loads, "{:?}", g.kind);
        assert_eq!(m.counts.stores, g.stores, "{:?}", g.kind);
        assert_eq!(m.counts.misses, g.misses, "{:?}", g.kind);
        assert_eq!(m.counts.mispredicts, g.mispredicts, "{:?}", g.kind);
        assert_eq!(m.counts.store_misses, g.store_misses, "{:?}", g.kind);
        assert_eq!(m.counts.invalidations, 0, "{:?}", g.kind);
        assert_eq!(
            m.cycles.to_bits(),
            g.cycles_bits,
            "{:?}: cycles {} != golden {}",
            g.kind,
            m.cycles,
            f64::from_bits(g.cycles_bits)
        );
    }
}

#[test]
fn two_worker_lockstep_is_deterministic() {
    let run = || {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let mut db = build_system(SystemKind::VoltDb, &sim, 2);
        let mut w = MicroBench::new(DbSize::Mb1)
            .with_rows(30_000)
            .read_write()
            .seed(77);
        sim.offline(|| w.setup(db.as_mut(), 2));
        sim.warm_data();
        let spec = WindowSpec {
            warmup: 100,
            measured: 300,
            reps: 2,
        };
        let w = std::sync::Mutex::new(w);
        let db = &*db;
        let w = &w;
        measure_workers(&sim, &[0, 1], spec, Pacing::Lockstep, |worker| {
            let mut s = db.session(worker);
            move |_| w.lock().unwrap().exec(s.as_mut(), worker).unwrap()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    assert_eq!(a.txns, 2 * 300 * 2);
}
