//! Head-to-head: all five engine archetypes on the same workload — a
//! miniature of the paper's Figure 1/2 experiment.
//!
//! ```text
//! cargo run --release --example compare_systems [1mb|10mb|10gb|100gb]
//! ```

use imoltp::analysis::{markdown_table, measure, WindowSpec};
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::sim::MachineConfig;
use imoltp::systems::{SystemBuilder, SystemKind};

fn main() {
    let size = match std::env::args().nth(1).as_deref() {
        Some("1mb") => DbSize::Mb1,
        Some("10mb") => DbSize::Mb10,
        None | Some("10gb") => DbSize::Gb10,
        Some("100gb") => DbSize::Gb100,
        Some(other) => {
            eprintln!("unknown size {other}; use 1mb|10mb|10gb|100gb");
            std::process::exit(2);
        }
    };

    println!(
        "read-only micro-benchmark, {} database ({} rows), 1 probe per txn\n",
        size.label(),
        size.rows()
    );

    let mut rows = Vec::new();
    for kind in SystemKind::ALL {
        let mut w = MicroBench::new(size);
        let (sim, db) =
            SystemBuilder::new(kind).load(MachineConfig::ivy_bridge(1), |db| w.setup(db, 1));
        let spec = WindowSpec {
            warmup: 1500,
            measured: 3000,
            reps: 3,
        };
        let mut s = db.session(0);
        let m = measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).expect("txn"));
        let i_stalls: f64 = m.spki[..3].iter().sum();
        let d_stalls: f64 = m.spki[3..].iter().sum();
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.2}", m.ipc),
            format!("{:.0}", m.instr_per_txn),
            format!("{i_stalls:.0}"),
            format!("{d_stalls:.0}"),
            format!("{:.0}", m.tps),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "system",
                "IPC",
                "instr/txn",
                "I-stalls/kI",
                "D-stalls/kI",
                "txn/s"
            ],
            &rows
        )
    );
    println!(
        "The paper's punchline: despite completely different designs, every\n\
         system is memory-stall-bound and IPC stays near 1 on a 4-wide core."
    );
}
