//! The §7 multi-threading experiment in miniature: run the read-only
//! micro-benchmark with several workers — one data partition, one
//! simulated core and one engine session per worker, single-site
//! transactions — and compare against single-threaded.
//!
//! ```text
//! cargo run --release --example multicore
//! ```

use imoltp::analysis::WindowSpec;
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::harness::drive;
use imoltp::sim::MachineConfig;
use imoltp::systems::{SystemBuilder, SystemKind};

fn run(kind: SystemKind, workers: usize) -> (f64, f64, u64) {
    let mut w = MicroBench::new(DbSize::Gb10);
    let (sim, db) = SystemBuilder::new(kind)
        .cores(workers)
        .load(MachineConfig::ivy_bridge(workers), |db| {
            w.setup(db, workers)
        });
    let spec = WindowSpec {
        warmup: 1000,
        measured: 2000,
        reps: 2,
    };
    // One session per worker core, the workers taking turns in
    // deterministic lockstep on this thread.
    let cores: Vec<usize> = (0..workers).collect();
    let m = drive(&sim, &*db, &mut w, &cores, spec, |_| {});
    (m.ipc, m.spki.iter().sum(), m.counts.invalidations)
}

fn main() {
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>14}",
        "system", "workers", "IPC", "stalls/kI", "invalidations"
    );
    for kind in [
        SystemKind::ShoreMt,
        SystemKind::DbmsD,
        SystemKind::VoltDb,
        SystemKind::dbms_m_for_tpcc(),
    ] {
        for workers in [1usize, 4] {
            let (ipc, spki, inval) = run(kind, workers);
            println!(
                "{:<10} {:>8} {:>8.2} {:>12.0} {:>14}",
                kind.label(),
                workers,
                ipc,
                spki,
                inval
            );
        }
    }
    println!(
        "\nThe paper's §7 conclusion: multi-threading does not change the\n\
         micro-architectural picture — per-worker IPC and the stall breakdown\n\
         stay essentially where the single-threaded experiments put them."
    );
}
