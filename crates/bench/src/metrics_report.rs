//! `bench metrics` — exercise the always-on metrics registry end to end:
//! run one (system, workload) point, report counter deltas periodically
//! while the run is in flight, then export the final registry state in
//! Prometheus text and JSON form.
//!
//! The registry is process-global and always armed — this command adds no
//! instrumentation, it only *reads*. The periodic reporter demonstrates
//! the snapshot/delta discipline every consumer uses: two snapshots
//! subtract to a window, so a mid-run report never disturbs (or even
//! observes) the simulation clock.

use engines::{SystemBuilder, SystemKind};
use microarch::{measure, Measurement};
use obs::metrics::{registry, Snapshot};
use uarch_sim::MachineConfig;

use crate::WorkloadCfg;

/// Configuration for one `bench metrics` run.
pub struct MetricsCfg {
    pub system: SystemKind,
    pub workload: WorkloadCfg,
    /// Emit a periodic report every this many transactions.
    pub report_every: u64,
    /// Shrink the window for CI smoke runs.
    pub smoke: bool,
}

impl MetricsCfg {
    pub fn new(system: SystemKind, workload: WorkloadCfg) -> MetricsCfg {
        MetricsCfg {
            system,
            workload,
            report_every: 2000,
            smoke: false,
        }
    }
}

/// Result of a metrics run: the measurement, the in-run reporter lines,
/// and the final exports.
pub struct MetricsReport {
    pub measurement: Measurement,
    /// One line per periodic in-run report.
    pub periodic: Vec<String>,
    /// Registry delta over the measured run.
    pub window: Snapshot,
    /// Prometheus text exposition of the window.
    pub prometheus: String,
    /// JSON export of the window.
    pub json: String,
}

fn engine_line(win: &Snapshot, engine: &str, txns: u64) -> String {
    let l = [("engine", engine)];
    format!(
        "[metrics] txn {:>6}: commits={} aborts={} conflicts={} latch_waits={}",
        txns,
        win.counter_value("txn_commits_total", &l),
        win.counter_value("txn_aborts_total", &l),
        win.counter_value("txn_conflicts_total", &l),
        win.counter_value("latch_waits_total", &l),
    )
}

/// Run the point and capture periodic + final metric reports.
pub fn run(cfg: &MetricsCfg) -> MetricsReport {
    let mut w = cfg.workload.build();
    let (sim, db) =
        SystemBuilder::new(cfg.system).load(MachineConfig::ivy_bridge(1), |db| w.setup(db, 1));
    let engine = db.name();

    let mut window = cfg.workload.window();
    if cfg.smoke {
        window.warmup = 40;
        window.measured = 200;
        window.reps = 1;
    }

    let base = registry().snapshot();
    let mut periodic = Vec::new();
    let mut txns = 0u64;
    let mut s = db.session(0);
    let measurement = measure(&sim, 0, window, |_| {
        w.exec(s.as_mut(), 0).expect("metrics transaction failed");
        txns += 1;
        if txns.is_multiple_of(cfg.report_every) {
            // In-run reporter: a registry read is a handful of relaxed
            // atomic loads — the simulated machine never notices.
            let win = registry().snapshot().delta(&base);
            periodic.push(engine_line(&win, engine, txns));
        }
    });
    drop(s);

    // Mirror the simulator's counter state into gauges, then export.
    obs::metrics::publish_sim(&sim);
    let window = registry().snapshot().delta(&base);
    let prometheus = window.prometheus();
    let json = window.to_json().render();
    periodic.push(engine_line(&window, engine, txns));

    MetricsReport {
        measurement,
        periodic,
        window,
        prometheus,
        json,
    }
}

/// Smoke assertions for the CI leg: the engine published transaction
/// outcomes, the sim gauges are present, and both exports parse/render.
/// Returns an error description instead of asserting so the CLI can exit
/// nonzero with a message.
pub fn smoke_check(r: &MetricsReport, engine: &str) -> Result<(), String> {
    let l = [("engine", engine)];
    let commits = r.window.counter_value("txn_commits_total", &l);
    if commits == 0 {
        return Err(format!("no txn_commits_total{{engine={engine}}} in window"));
    }
    if commits < r.measurement.txns {
        return Err(format!(
            "commit counter {commits} below measured txns {}",
            r.measurement.txns
        ));
    }
    if r.window.get("sim_instructions", &[("core", "0")]).is_none() {
        return Err("sim gauges missing (publish_sim not mirrored)".into());
    }
    if !r.prometheus.contains("# TYPE txn_commits_total counter") {
        return Err("prometheus export missing counter TYPE line".into());
    }
    let parsed = obs::json::parse(&r.json).map_err(|e| format!("json export: {e}"))?;
    if parsed.as_arr().map(|a| a.len()).unwrap_or(0) == 0 {
        return Err("json export empty".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::DbSize;

    #[test]
    fn metrics_run_reports_periodically_and_exports() {
        let cfg = MetricsCfg {
            system: SystemKind::VoltDb,
            workload: WorkloadCfg::Micro {
                size: DbSize::Mb1,
                rows_per_txn: 1,
                read_only: false,
                strings: false,
            },
            report_every: 50,
            smoke: true,
        };
        let r = run(&cfg);
        assert!(r.measurement.txns > 0);
        // At least the in-flight reports plus the final line.
        assert!(r.periodic.len() >= 2, "periodic lines: {:?}", r.periodic);
        assert!(r.periodic.iter().all(|l| l.starts_with("[metrics] txn")));
        smoke_check(&r, "VoltDB").expect("smoke invariants");
    }
}
