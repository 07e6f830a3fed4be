//! Run the full TPC-C mix on one engine and break execution time down by
//! code module — the measurement behind the paper's Figure 7.
//!
//! ```text
//! cargo run --release --example tpcc_breakdown [shore|dbmsd|voltdb|hyper|dbmsm]
//! ```

use imoltp::analysis::{measure, WindowSpec};
use imoltp::bench::tpcc::TpcCScale;
use imoltp::bench::{TpcC, Workload};
use imoltp::sim::MachineConfig;
use imoltp::systems::{SystemBuilder, SystemKind};

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("shore") => SystemKind::ShoreMt,
        Some("dbmsd") => SystemKind::DbmsD,
        None | Some("voltdb") => SystemKind::VoltDb,
        Some("hyper") => SystemKind::HyPer,
        Some("dbmsm") => SystemKind::dbms_m_for_tpcc(),
        Some(other) => {
            eprintln!("unknown system {other}");
            std::process::exit(2);
        }
    };

    // A reduced TPC-C so the example loads in a couple of seconds.
    let scale = TpcCScale {
        warehouses: 2,
        customers_per_district: 1000,
        items: 20_000,
        initial_orders: 300,
    };
    let mut w = TpcC::with_scale(scale).seed(7);
    print!(
        "loading TPC-C (W={}) on {} ... ",
        scale.warehouses,
        kind.label()
    );
    let (sim, db) =
        SystemBuilder::new(kind).load(MachineConfig::ivy_bridge(1), |db| w.setup(db, 1));
    println!("done");

    let spec = WindowSpec {
        warmup: 300,
        measured: 600,
        reps: 3,
    };
    let mut s = db.session(0);
    let m = measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).expect("txn"));
    drop(s);

    println!(
        "\n{} on TPC-C: IPC {:.2}, {:.0} instructions/txn",
        db.name(),
        m.ipc,
        m.instr_per_txn
    );
    println!("transaction mix so far: {:?}\n", w.counts);
    println!("{:<24} {:>8} {:>10}", "module", "share", "cycles/txn");
    let mut mods = m.modules.clone();
    mods.sort_by(|a, b| b.cycles.total_cmp(&a.cycles));
    for md in mods.iter().filter(|m| m.share > 0.002) {
        println!(
            "{:<24} {:>7.1}% {:>10.0} {}",
            md.name,
            md.share * 100.0,
            md.cycles / m.txns as f64,
            if md.engine_side {
                "(inside OLTP engine)"
            } else {
                ""
            }
        );
    }
    println!(
        "\n=> {:.0}% of execution time inside the OLTP engine (storage manager).",
        m.engine_share() * 100.0
    );
    w.check_consistency(db.as_ref());
    println!("TPC-C consistency checks passed.");
}
