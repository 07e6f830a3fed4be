//! Quickstart: build a simulated machine, run one engine on the paper's
//! micro-benchmark, and print the metrics the paper reports.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use imoltp::analysis::{measure, Measurement, WindowSpec};
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::sim::{MachineConfig, StallEvent};
use imoltp::systems::{SystemBuilder, SystemKind};

fn main() {
    // 1. The read-only micro-benchmark at the "10 GB" scale: one random
    //    index probe per transaction against a table far beyond the LLC.
    let mut workload = MicroBench::new(DbSize::Gb10);

    // 2. An engine — here HyPer, the compiled-transaction archetype.
    let builder = SystemBuilder::new(SystemKind::HyPer);

    // 3. The load protocol: a simulated Ivy Bridge server (Table 1 of the
    //    paper), the engine built on it, the bulk load run unprofiled,
    //    then the cache warm-up.
    let (sim, db) = builder.load(MachineConfig::ivy_bridge(1), |db| workload.setup(db, 1));

    // 4. Open a session — the per-worker transaction handle — and measure
    //    with the paper's methodology: warm-up window, measured window,
    //    three averaged repetitions.
    let mut session = db.session(0);
    let spec = WindowSpec {
        warmup: 2000,
        measured: 4000,
        reps: 3,
    };
    let m: Measurement = measure(&sim, 0, spec, |_| {
        workload.exec(session.as_mut(), 0).expect("txn");
    });

    // 5. The paper's observables.
    println!("system              : {}", db.name());
    println!("instructions / txn  : {:.0}", m.instr_per_txn);
    println!("IPC                 : {:.2}  (machine can retire 4)", m.ipc);
    println!("throughput          : {:.0} txn/s (simulated)", m.tps);
    println!("stall cycles / k-instr:");
    for e in StallEvent::ALL {
        println!("  {:<6}: {:>8.1}", e.label(), m.spki[e as usize]);
    }
    println!(
        "stall fraction      : {:.0}% of cycles",
        m.stall_cycle_fraction(&sim.config()) * 100.0
    );
    println!("modules by cycle share:");
    let mut modules = m.modules.clone();
    modules.sort_by(|a, b| b.share.total_cmp(&a.share));
    for md in modules.iter().take(5) {
        println!(
            "  {:<22} {:>5.1}% {}",
            md.name,
            md.share * 100.0,
            if md.engine_side { "(engine)" } else { "" }
        );
    }
}
