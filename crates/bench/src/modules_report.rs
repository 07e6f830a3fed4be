//! Per-code-module breakdown — the companion analysis the paper builds on
//! (Tözün et al., DaMoN'13: "Where Do Cache Misses Come From in Major
//! OLTP Components?") and the machinery behind its Figure 7.
//!
//! For one system and workload, print each module's share of
//! instructions, cycles, L1I misses and LLC data misses.

use engines::{SystemBuilder, SystemKind};
use microarch::{Measurement, WindowSpec};
use uarch_sim::{MachineConfig, StallEvent};
use workloads::tpcc::TpcCScale;
use workloads::{DbSize, MicroBench, TpcB, TpcC, Workload};

use crate::{drive, scale_factor};

/// Per-module event shares for one run.
pub struct ModuleBreakdown {
    /// System label.
    pub system: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Whole-window measurement.
    pub measurement: Measurement,
    /// (name, engine_side, instr share, cycle share, l1i share, llcd share).
    pub rows: Vec<(String, bool, f64, f64, f64, f64)>,
}

/// Run `system` on `workload` ("micro" | "tpcb" | "tpcc") and attribute.
pub fn module_breakdown(system: SystemKind, workload: &str) -> ModuleBreakdown {
    let mut w: Box<dyn Workload> = match workload {
        "tpcb" => Box::new(TpcB::new()),
        "tpcc" => Box::new(TpcC::with_scale(TpcCScale {
            warehouses: 4,
            customers_per_district: 1500,
            items: 50_000,
            initial_orders: 450,
        })),
        _ => Box::new(MicroBench::new(DbSize::Gb100)),
    };
    let (sim, db) =
        SystemBuilder::new(system).load(MachineConfig::ivy_bridge(1), |db| w.setup(db, 1));
    let spec = WindowSpec {
        warmup: 1500,
        measured: 3000,
        reps: 2,
    }
    .scaled(scale_factor());
    let m = drive(&sim, &*db, w.as_mut(), &[0], spec, |_| {});

    // Raw per-module counters for the miss shares.
    let specs = sim.module_specs();
    let counters = sim.module_counters(0);
    let total_instr: u64 = counters.iter().map(|c| c.instructions).sum();
    let total_l1i: u64 = counters.iter().map(|c| c.miss(StallEvent::L1i)).sum();
    let total_llcd: u64 = counters.iter().map(|c| c.miss(StallEvent::LlcD)).sum();
    let total_cycles: f64 = m.modules.iter().map(|x| x.cycles).sum();

    let mut rows = Vec::new();
    for (spec, c) in specs.iter().zip(counters.iter()) {
        if c.instructions == 0 {
            continue;
        }
        let cycles = m
            .modules
            .iter()
            .find(|x| x.name == spec.name)
            .map(|x| x.cycles)
            .unwrap_or(0.0);
        rows.push((
            spec.name.clone(),
            spec.engine_side,
            c.instructions as f64 / total_instr.max(1) as f64,
            cycles / total_cycles.max(1.0),
            c.miss(StallEvent::L1i) as f64 / total_l1i.max(1) as f64,
            c.miss(StallEvent::LlcD) as f64 / total_llcd.max(1) as f64,
        ));
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    ModuleBreakdown {
        system: system.label(),
        workload: match workload {
            "tpcb" => "TPC-B",
            "tpcc" => "TPC-C",
            _ => "micro (RO, 100GB)",
        },
        measurement: m,
        rows,
    }
}

/// Text rendering.
pub fn render(b: &ModuleBreakdown) -> String {
    let mut out = format!(
        "## module breakdown: {} on {} (IPC {:.2}, {:.0} instr/txn)\n\
         {:<26} {:>7} {:>7} {:>7} {:>7}\n\
         {}\n",
        b.system,
        b.workload,
        b.measurement.ipc,
        b.measurement.instr_per_txn,
        "module",
        "instr%",
        "cycle%",
        "L1I%",
        "LLCD%",
        "-".repeat(60),
    );
    for (name, engine_side, instr, cycles, l1i, llcd) in &b.rows {
        out.push_str(&format!(
            "{:<26} {:>6.1} {:>7.1} {:>6.1} {:>6.1} {}\n",
            name,
            instr * 100.0,
            cycles * 100.0,
            l1i * 100.0,
            llcd * 100.0,
            if *engine_side { " (engine)" } else { "" }
        ));
    }
    out.push_str(&format!(
        "\n=> {:.0}% of cycles inside the OLTP engine\n",
        b.measurement.engine_share() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        // The same value the grid tests set: tests share the process
        // environment, and a different scale here would shrink their
        // windows mid-grid.
        std::env::set_var("IMOLTP_SCALE", "0.2");
        let b = module_breakdown(SystemKind::VoltDb, "micro");
        let instr: f64 = b.rows.iter().map(|r| r.2).sum();
        let cycles: f64 = b.rows.iter().map(|r| r.3).sum();
        assert!((instr - 1.0).abs() < 0.01, "instr shares sum to {instr}");
        assert!((cycles - 1.0).abs() < 0.02, "cycle shares sum to {cycles}");
        // Frontend modules must appear alongside engine modules.
        assert!(b.rows.iter().any(|r| r.1));
        assert!(b.rows.iter().any(|r| !r.1));
    }
}
