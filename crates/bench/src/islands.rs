//! `bench islands` — the Hardware Islands deployment
//! grid (Porobic et al., VLDB'12) on the multi-socket simulator.
//!
//! Every cell deploys one engine on a two-socket machine at full core
//! occupancy under one [`Placement`] policy and one local/cross-socket
//! transaction mix, and reports throughput, IPC, SPKI, and the share of
//! LLC fills and invalidations that crossed QPI. The worker core-sets are
//! permutations of each other across placements, and the per-worker
//! request streams are keyed by partition owner (not by OS thread), so the
//! *only* difference between two cells of the same (engine, mix) column is
//! where partition data is homed — any throughput delta is NUMA placement,
//! nothing else.
//!
//! The grid reproduces the paper's qualitative result: island placement
//! beats spread while transactions stay island-local (its fills are all
//! socket-local), and the gap shrinks — and can invert — as the
//! cross-socket fraction rises, because island then pays both the remote
//! fill *and* the multi-partition coordination that spread's interleaved
//! pages amortize.

use std::fmt::Write as _;

use engines::{Placement, SystemBuilder, SystemKind};
use microarch::Measurement;
use uarch_sim::{MachineConfig, StallEvent};
use workloads::{DbSize, MicroBench, Workload};

use crate::{drive, grid};

/// One cell of the islands grid.
pub struct IslandsRow {
    /// System label.
    pub system: &'static str,
    /// Whether the engine is partitioned (VoltDB, HyPer).
    pub partitioned: bool,
    /// Placement policy of this cell.
    pub placement: Placement,
    /// Percentage of probes that target the partner worker's slice on the
    /// other socket (0 = fully island-local).
    pub cross_pct: u32,
    /// Sockets in the simulated machine.
    pub sockets: usize,
    /// Workers (= cores; the grid runs at full occupancy).
    pub workers: usize,
    /// Partitions the OS-managed rebalancer migrated off socket 0 before
    /// the measured window (always 0 for the other placements).
    pub rehomed: usize,
    /// Averaged per-worker measurement (see [`IslandsRow::aggregate_tps`]).
    pub measurement: Measurement,
}

impl IslandsRow {
    /// Aggregate simulated throughput: workers run concurrently, so the
    /// system-level rate is the per-worker average times the worker count.
    pub fn aggregate_tps(&self) -> f64 {
        self.measurement.tps * self.workers as f64
    }

    /// Fraction of off-core traffic (demand LLC fills, store-miss fills,
    /// and received invalidations) that crossed the socket boundary.
    /// Exactly the events [`uarch_sim`] charges the QPI penalty for, so
    /// this is the per-access remote tax behind the throughput delta.
    pub fn remote_share(&self) -> f64 {
        let c = &self.measurement.counts;
        let off_core = c.misses[StallEvent::LlcD as usize] + c.store_misses + c.invalidations;
        c.remote_accesses as f64 / (off_core.max(1)) as f64
    }
}

/// One (placement, cross-mix) column of the grid.
#[derive(Clone, Copy)]
struct Cell {
    system: SystemKind,
    placement: Placement,
    cross_pct: u32,
}

/// Machine shape: two Table-1 sockets. The full grid fills 4 cores per
/// socket; smoke shrinks to 2 to keep CI cheap while still spanning the
/// socket boundary.
fn topology(smoke: bool) -> (usize, usize) {
    if smoke {
        (2, 2)
    } else {
        (2, 4)
    }
}

/// Table rows for the grid: big enough that the working set spills the
/// 16 MB per-socket LLC (data homing is invisible while every fill hits
/// cache). The full grid uses the paper's "10 GB" point; smoke shrinks the
/// load but stays past one socket's LLC capacity.
fn grid_rows(smoke: bool) -> u64 {
    if smoke {
        320 * 1024
    } else {
        DbSize::Gb10.rows()
    }
}

/// Cross-socket mix axis (percent of probes leaving the worker's island).
pub fn cross_grid(smoke: bool) -> Vec<u32> {
    if smoke {
        vec![0, 50]
    } else {
        vec![0, 20, 50]
    }
}

/// Systems in the grid. Smoke keeps the two partitioned engines (the ones
/// the placement policies actually steer) plus one shared-everything
/// reference point.
pub fn grid_systems(smoke: bool) -> Vec<SystemKind> {
    if smoke {
        vec![SystemKind::VoltDb, SystemKind::HyPer, SystemKind::ShoreMt]
    } else {
        SystemKind::ALL.to_vec()
    }
}

fn cells(smoke: bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for &system in &grid_systems(smoke) {
        for &placement in &Placement::ALL {
            for &cross_pct in &cross_grid(smoke) {
                out.push(Cell {
                    system,
                    placement,
                    cross_pct,
                });
            }
        }
    }
    out
}

/// Probes driven through each worker's session before the OS-managed
/// rebalance, so the per-tag socket-traffic counters have signal. Only
/// LLC-missing probes reach the tag counters, and a warm LLC absorbs most
/// of the working set, so the probe needs to be much longer than
/// `REBALANCE_MIN_HITS` alone suggests.
const REBALANCE_PROBE_TXNS: u64 = 512;
/// Rebalance thresholds: a partition migrates once it has seen at least
/// `MIN_HITS` fills with `MARGIN` of them from one non-home socket.
const REBALANCE_MIN_HITS: u64 = 16;
const REBALANCE_MARGIN: f64 = 0.55;

/// Run one cell: fresh machine, engine, and workload.
fn run_cell(cell: &Cell, smoke: bool) -> IslandsRow {
    let (sockets, per_socket) = topology(smoke);
    let workers = sockets * per_socket;
    let mut w = MicroBench::new(DbSize::Gb10)
        .with_rows(grid_rows(smoke))
        .read_write()
        .cross_frac(cell.cross_pct as f64 / 100.0);
    let machine = MachineConfig::numa(sockets, per_socket);
    let (sim, db) = SystemBuilder::new(cell.system)
        .cores(workers)
        .placement(cell.placement)
        .load(machine, |db| w.setup(db, workers));

    // `drive` runs worker slot `i` on core `cores[i]` and passes that core
    // as the workload's worker id: the request stream is keyed by
    // partition owner, so every placement runs the identical set of
    // per-partition streams and only the thread-to-core mapping (plus data
    // homing) differs.
    let cores = cell.placement.worker_cores(workers, &sim);

    let mut rehomed = 0;
    if cell.placement == Placement::OsManaged {
        // First-touch left every partition on socket 0; give the
        // rebalancer the access profile a warm-up would and let it migrate
        // hot partitions toward their dominant-access socket (the numad
        // correction loop) before the measured window.
        for &core in &cores {
            let mut s = db.session(core);
            for _ in 0..REBALANCE_PROBE_TXNS {
                w.exec(s.as_mut(), core)
                    .expect("rebalance probe txn failed");
            }
        }
        rehomed = engines::placement::rebalance(
            &sim,
            cell.system.label(),
            REBALANCE_MIN_HITS,
            REBALANCE_MARGIN,
        );
    }

    let window = grid::worker_window(smoke);
    let measurement = drive(&sim, &*db, &mut w, &cores, window, |_| {});
    IslandsRow {
        system: cell.system.label(),
        partitioned: cell.system.partitioned(),
        placement: cell.placement,
        cross_pct: cell.cross_pct,
        sockets,
        workers,
        rehomed,
        measurement,
    }
}

/// Run the deployment grid (every system x placement x cross mix); each
/// cell owns its machine. Results return in grid order.
pub fn islands_grid(smoke: bool) -> Vec<IslandsRow> {
    grid::fan_out(&cells(smoke), |cell| run_cell(cell, smoke))
}

/// Aligned text table, grouped by system.
pub fn render(rows: &[IslandsRow]) -> String {
    let (sockets, workers) = rows
        .first()
        .map(|r| (r.sockets, r.workers))
        .unwrap_or((2, 8));
    let mut out = format!(
        "== islands: read-write micro-benchmark, {sockets} sockets x {} cores ==\n",
        workers / sockets.max(1)
    );
    let _ = writeln!(
        out,
        "{:<12} {:<9} {:>6} {:>12} {:>6} {:>9} {:>9} {:>8}",
        "system", "placement", "cross%", "tps", "IPC", "SPKI", "remote%", "rehomed"
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
            "{:<12} {:<9} {:>6} {:>12.0} {:>6.2} {:>9.0} {:>8.1}% {:>8}",
            r.system,
            r.placement.label(),
            r.cross_pct,
            r.aggregate_tps(),
            m.ipc,
            m.spki_total(),
            r.remote_share() * 100.0,
            r.rehomed
        );
    }
    out.push_str(
        "\nIsland placement homes each partition with its worker, so fully\n\
         local mixes never cross QPI; spread interleaves data and pays the\n\
         remote penalty on ~half of every worker's fills. As the cross-socket\n\
         fraction rises the partitioned engines add multi-partition\n\
         coordination on top and the island advantage shrinks.\n",
    );
    out
}

/// CSV rendering (one row per grid cell).
pub fn render_csv(rows: &[IslandsRow]) -> String {
    let mut out = String::from(
        "system,partitioned,placement,cross_pct,sockets,workers,txns,tps,tps_per_worker,\
         ipc,spki,remote_accesses,remote_share,rehomed\n",
    );
    for r in rows {
        let m = &r.measurement;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.1},{:.1},{:.4},{:.1},{},{:.4},{}",
            r.system,
            r.partitioned,
            r.placement.label(),
            r.cross_pct,
            r.sockets,
            r.workers,
            m.txns,
            r.aggregate_tps(),
            m.tps,
            m.ipc,
            m.spki_total(),
            m.counts.remote_accesses,
            r.remote_share(),
            r.rehomed
        );
    }
    out
}

/// Qualitative gates on a finished grid — the Hardware Islands ordering.
/// Returns the violations (empty = pass). Deterministic simulation, so no
/// noise margins beyond strictness of the comparisons themselves.
pub fn smoke_check(rows: &[IslandsRow]) -> Result<(), String> {
    let find = |sys: &str, p: Placement, cross: u32| {
        rows.iter()
            .find(|r| r.system == sys && r.placement == p && r.cross_pct == cross)
            .ok_or_else(|| format!("missing cell {sys}/{}/{cross}", p.label()))
    };
    let partitioned: Vec<&str> = rows
        .iter()
        .filter(|r| r.partitioned)
        .map(|r| r.system)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    if partitioned.is_empty() {
        return Err("grid has no partitioned engine".into());
    }
    let local = *cross_grid(true).first().unwrap_or(&0);
    let crossed = *cross_grid(true).last().unwrap_or(&50);
    for sys in partitioned {
        let island0 = find(sys, Placement::Island, local)?;
        let spread0 = find(sys, Placement::Spread, local)?;
        // Fully local: island never leaves the socket, spread's interleave
        // does — remote share must separate them, and the remote tax must
        // show up as throughput.
        if island0.remote_share() >= spread0.remote_share() {
            return Err(format!(
                "{sys}: island remote share {:.3} >= spread {:.3} on the local mix",
                island0.remote_share(),
                spread0.remote_share()
            ));
        }
        if island0.aggregate_tps() < spread0.aggregate_tps() {
            return Err(format!(
                "{sys}: island tps {:.0} < spread {:.0} on the local mix",
                island0.aggregate_tps(),
                spread0.aggregate_tps()
            ));
        }
        // Cross-socket mix: island starts paying QPI + coordination, so
        // its advantage must shrink.
        let island_x = find(sys, Placement::Island, crossed)?;
        let spread_x = find(sys, Placement::Spread, crossed)?;
        if island_x.remote_share() <= island0.remote_share() {
            return Err(format!(
                "{sys}: island remote share did not rise with the cross mix \
                 ({:.3} -> {:.3})",
                island0.remote_share(),
                island_x.remote_share()
            ));
        }
        let gap0 = island0.aggregate_tps() / spread0.aggregate_tps();
        let gap_x = island_x.aggregate_tps() / spread_x.aggregate_tps();
        if gap_x > gap0 + 1e-9 {
            return Err(format!(
                "{sys}: island advantage grew with the cross mix ({gap0:.3} -> {gap_x:.3})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_reproduces_the_islands_ordering() {
        std::env::set_var("IMOLTP_SCALE", "0.2");
        let rows = islands_grid(true);
        assert_eq!(
            rows.len(),
            grid_systems(true).len() * Placement::ALL.len() * cross_grid(true).len()
        );
        for r in &rows {
            assert!(r.measurement.tps > 0.0, "{} tps", r.system);
            assert!(
                (0.0..=1.0).contains(&r.remote_share()),
                "{} remote share {}",
                r.system,
                r.remote_share()
            );
        }
        smoke_check(&rows).unwrap();
        // The OS-managed rebalancer must have migrated the partitions the
        // remote socket's workers hammer (they all start on socket 0).
        let moved: usize = rows
            .iter()
            .filter(|r| r.partitioned && r.placement == Placement::OsManaged)
            .map(|r| r.rehomed)
            .sum();
        assert!(moved > 0, "OS-managed rebalance never migrated a partition");
        let csv = render_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(render(&rows).contains("remote%"));
    }
}
