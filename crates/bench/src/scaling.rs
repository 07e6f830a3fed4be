//! `bench scaling` — throughput/IPC scaling vs worker count.
//!
//! The paper's §7 runs its multi-threaded experiments at one fixed client
//! count; this grid sweeps the worker count instead and contrasts the
//! partitioned engines (VoltDB, HyPer: one worker per partition, disjoint
//! data) with the shared-everything ones (Shore-MT, DBMS D, DBMS M: every
//! worker fights over the same records and the shared LLC). The workload is
//! the partition-local read-write micro-benchmark, so any scaling loss is
//! pure engine/coherence overhead, not logical contention.

use std::fmt::Write as _;

use engines::SystemKind;
use microarch::Measurement;
use workloads::DbSize;

use crate::{grid, run_points, Point, WorkloadCfg};

/// One cell of the scaling grid.
pub struct ScalingRow {
    /// System label.
    pub system: &'static str,
    /// Whether the engine is partitioned (VoltDB, HyPer).
    pub partitioned: bool,
    /// Workers in this cell.
    pub workers: usize,
    /// The averaged multi-worker measurement. `tps`/`ipc`/`spki` are
    /// per-worker averages; workers run concurrently, so the aggregate
    /// system throughput is [`ScalingRow::aggregate_tps`].
    pub measurement: Measurement,
    /// Aggregate throughput relative to the same system's 1-worker cell.
    pub speedup: f64,
}

impl ScalingRow {
    /// Aggregate simulated throughput: workers run concurrently, so the
    /// system-level rate is the per-worker average times the worker count.
    pub fn aggregate_tps(&self) -> f64 {
        self.measurement.tps * self.workers as f64
    }
}

/// Worker counts swept per system. The smoke grid still reaches 4 workers
/// — the contended case the lock-free simulator fast path is built for —
/// just with a shrunken measurement window.
pub const WORKER_GRID: [usize; 3] = [1, 2, 4];

/// Run the full grid: every system crossed with every worker count.
pub fn scaling_grid(smoke: bool) -> Vec<ScalingRow> {
    let workload = WorkloadCfg::Micro {
        size: DbSize::Mb10,
        rows_per_txn: 1,
        read_only: false,
        strings: false,
    };
    let win = grid::worker_window(smoke);
    let mut points = Vec::new();
    for &sys in SystemKind::ALL.iter() {
        for &w in &WORKER_GRID {
            points.push(Point::new(sys, workload.clone()).workers(w).window(win));
        }
    }
    let ms = run_points(&points);
    let mut rows: Vec<ScalingRow> = points
        .iter()
        .zip(ms)
        .map(|(p, m)| ScalingRow {
            system: p.system().label(),
            partitioned: p.system().partitioned(),
            workers: p.worker_count(),
            measurement: m,
            speedup: 0.0,
        })
        .collect();
    for i in 0..rows.len() {
        let base = rows
            .iter()
            .find(|r| r.system == rows[i].system && r.workers == 1)
            .map(|r| r.measurement.tps)
            .unwrap_or(0.0);
        rows[i].speedup = if base > 0.0 {
            rows[i].aggregate_tps() / base
        } else {
            0.0
        };
    }
    rows
}

/// Aligned text table.
pub fn render(rows: &[ScalingRow]) -> String {
    let mut out =
        String::from("== scaling: read-write micro-benchmark (10MB, partition-local keys) ==\n");
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>12} {:>12} {:>6} {:>9} {:>8}",
        "system", "workers", "tps", "tps/worker", "IPC", "SPKI", "speedup"
    );
    let mut last = "";
    for r in rows {
        if r.system != last && !last.is_empty() {
            out.push('\n');
        }
        last = r.system;
        let m = &r.measurement;
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12.0} {:>12.0} {:>6.2} {:>9.0} {:>7.2}x",
            r.system,
            r.workers,
            r.aggregate_tps(),
            m.tps,
            m.ipc,
            m.spki_total(),
            r.speedup
        );
    }
    out.push_str(
        "\nPartitioned engines (VoltDB, HyPer) keep workers on disjoint data;\n\
         the shared-everything engines pay lock and coherence traffic for the\n\
         same offered load, so their aggregate throughput scales worse.\n",
    );
    out
}

/// CSV rendering (one row per grid cell).
pub fn render_csv(rows: &[ScalingRow]) -> String {
    let mut out =
        String::from("system,partitioned,workers,txns,tps,tps_per_worker,ipc,spki,speedup\n");
    for r in rows {
        let m = &r.measurement;
        let _ = writeln!(
            out,
            "{},{},{},{},{:.1},{:.1},{:.4},{:.1},{:.3}",
            r.system,
            r.partitioned,
            r.workers,
            m.txns,
            r.aggregate_tps(),
            m.tps,
            m.ipc,
            m.spki_total(),
            r.speedup
        );
    }
    out
}

/// The gate: partitioned engines must scale strictly better than every
/// shared-everything engine at the top worker count — they own their
/// partitions outright, while the shared-everything engines pay the
/// latch-contention and coherence tax. Deterministic simulation, so no
/// noise margin is needed.
pub fn check(rows: &[ScalingRow]) -> Result<(), String> {
    let top = WORKER_GRID[WORKER_GRID.len() - 1];
    let at_top = |partitioned| {
        rows.iter()
            .filter(move |r| r.partitioned == partitioned && r.workers == top)
    };
    let best_shared = at_top(false).map(|r| r.speedup).fold(0.0, f64::max);
    match at_top(true).find(|r| r.speedup <= best_shared) {
        Some(r) => Err(format!(
            "{}: speedup {:.3} <= best shared {:.3} at {top} workers",
            r.system, r.speedup, best_shared
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_contrasts_partitioned_and_shared() {
        std::env::set_var("IMOLTP_SCALE", "0.2");
        let rows = scaling_grid(true);
        // One row per (system, workers) cell.
        assert_eq!(rows.len(), SystemKind::ALL.len() * WORKER_GRID.len());
        for r in &rows {
            assert!(r.measurement.tps > 0.0, "{} tps", r.system);
            if r.workers == 1 {
                assert!((r.speedup - 1.0).abs() < 1e-9);
            }
        }
        check(&rows).unwrap();
        let csv = render_csv(&rows);
        assert!(csv.lines().count() == rows.len() + 1);
        assert!(render(&rows).contains("speedup"));
    }
}
