//! `bench cc-grid`: a CCBench-style contention sweep over the pluggable
//! concurrency-control layer.
//!
//! Every cell runs the [`workloads::Contention`] workload on one engine
//! under one [`CcPolicy`], with all workers sharing one un-partitioned
//! key space (partitioned engines are built with a single partition).
//! Transactions are interleaved at **operation** granularity in
//! deterministic lockstep order: each worker advances one operation per
//! global turn, so transactions genuinely overlap and the protocol — not
//! the pacing — decides who aborts. Retries follow the same
//! [`RetryPolicy`]/[`Backoff`] discipline as the chaos harness, and the
//! per-protocol abort taxonomy (lock conflicts vs validation failures vs
//! deadlock victims) is reported per cell.

use std::cell::RefCell;

use engines::{SystemBuilder, SystemKind};
use microarch::{measure_workers, Measurement, Pacing, WindowSpec};
use oltp::cc::CcPolicy;
use oltp::retry::{classify, Backoff, ErrorClass, RetryPolicy};
use oltp::{OltpError, Session};
use uarch_sim::MachineConfig;
use workloads::{CcOp, Contention, Workload};

/// One contention cell: the workload knobs every (engine, protocol) pair
/// is measured under.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Zipfian skew in `[0, 1)`.
    pub theta: f64,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
    /// Payload bytes per row value.
    pub payload: usize,
    /// Flash-sale mode (hot-row writes).
    pub flash_sale: bool,
}

/// Per-cell retry/abort taxonomy, accumulated over the measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions abandoned after exhausting the retry policy.
    pub gave_up: u64,
    /// Retryable failures total.
    pub retries: u64,
    /// ... of which plain lock/owner conflicts.
    pub conflicts: u64,
    /// ... of which commit-time validation failures.
    pub validation_aborts: u64,
    /// ... of which deadlock-avoidance victims.
    pub deadlock_victims: u64,
    /// Total backoff units waited.
    pub backoff_units: u64,
}

impl CellStats {
    fn merge(&mut self, o: &CellStats) {
        self.commits += o.commits;
        self.gave_up += o.gave_up;
        self.retries += o.retries;
        self.conflicts += o.conflicts;
        self.validation_aborts += o.validation_aborts;
        self.deadlock_victims += o.deadlock_victims;
        self.backoff_units += o.backoff_units;
    }
}

/// One output row of the grid.
#[derive(Clone, Debug)]
pub struct CcGridRow {
    /// Engine label.
    pub system: &'static str,
    /// Protocol label.
    pub policy: &'static str,
    /// The cell.
    pub cell: CellSpec,
    /// Workers.
    pub workers: usize,
    /// Committed transactions per simulated second.
    pub tps: f64,
    /// Instructions per cycle over the measured window.
    pub ipc: f64,
    /// Instructions per committed transaction.
    pub instr_per_commit: f64,
    /// Stall cycles per kilo-instruction, per miss class.
    pub spki: [f64; 6],
    /// Retry/abort taxonomy over the measured window.
    pub stats: CellStats,
}

/// Grid configuration.
pub struct CcGridCfg {
    /// Systems to sweep (default: all five).
    pub systems: Vec<SystemKind>,
    /// Protocols to sweep (default: engine default + all pluggable).
    pub policies: Vec<CcPolicy>,
    /// Cells to sweep.
    pub cells: Vec<CellSpec>,
    /// Workers per run.
    pub workers: usize,
    /// Table rows.
    pub rows: u64,
    /// Turns (operations) per worker: warmup/measured/reps.
    pub window: WindowSpec,
    /// Operations per transaction.
    pub ops_per_txn: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl CcGridCfg {
    /// The full nightly grid.
    pub fn full() -> Self {
        let mut cells = Vec::new();
        for &theta in &[0.0, 0.8, 0.99] {
            for &read_ratio in &[0.9, 0.1] {
                for &payload in &[8usize, 64] {
                    cells.push(CellSpec {
                        theta,
                        read_ratio,
                        payload,
                        flash_sale: false,
                    });
                }
            }
        }
        cells.push(CellSpec {
            theta: 0.8,
            read_ratio: 0.5,
            payload: 8,
            flash_sale: true,
        });
        CcGridCfg {
            systems: SystemKind::ALL.to_vec(),
            policies: Self::all_policies(),
            cells,
            workers: 4,
            rows: 4096,
            window: WindowSpec {
                warmup: 120,
                measured: 400,
                reps: 1,
            }
            .scaled(crate::scale_factor()),
            ops_per_txn: 4,
            seed: 0xCC,
        }
    }

    /// The CI smoke grid: two cells (one skewed mix, one flash sale),
    /// three protocols, tiny windows.
    pub fn smoke() -> Self {
        CcGridCfg {
            systems: SystemKind::ALL.to_vec(),
            policies: vec![
                CcPolicy::EngineDefault,
                CcPolicy::TwoPlNoWait,
                CcPolicy::Occ,
            ],
            cells: vec![
                CellSpec {
                    theta: 0.8,
                    read_ratio: 0.5,
                    payload: 8,
                    flash_sale: false,
                },
                CellSpec {
                    theta: 0.8,
                    read_ratio: 0.5,
                    payload: 8,
                    flash_sale: true,
                },
            ],
            workers: 3,
            rows: 512,
            window: WindowSpec {
                warmup: 30,
                measured: 90,
                reps: 1,
            },
            ops_per_txn: 4,
            seed: 0xCC,
        }
    }

    /// Engine default plus every pluggable protocol.
    pub fn all_policies() -> Vec<CcPolicy> {
        let mut v = vec![CcPolicy::EngineDefault];
        v.extend(CcPolicy::ALL);
        v
    }
}

/// Per-worker transaction driver: advances one operation per call and
/// carries retry state across turns, so concurrent transactions overlap.
struct Slot {
    session: Box<dyn Session>,
    plan: Vec<CcOp>,
    next_op: usize,
    active: bool,
    attempt: u32,
    pending_backoff: u64,
    backoff: Backoff,
    stats: CellStats,
}

impl Slot {
    /// Abort the open transaction and either schedule a retry (with
    /// backoff, keeping the plan) or give up (dropping it).
    fn fail(&mut self, e: &OltpError, policy: &RetryPolicy, in_window: bool) {
        debug_assert!(
            matches!(classify(e), ErrorClass::Backoff),
            "non-retryable error in contention grid: {e}"
        );
        self.session.abort();
        self.next_op = 0;
        self.active = false;
        if in_window {
            self.stats.retries += 1;
            match e {
                OltpError::ValidationFailed { .. } => self.stats.validation_aborts += 1,
                OltpError::DeadlockVictim { .. } => self.stats.deadlock_victims += 1,
                _ => self.stats.conflicts += 1,
            }
        }
        self.attempt += 1;
        if self.attempt >= policy.max_attempts.max(1) {
            // Abandon the transaction and move on to the next plan.
            if in_window {
                self.stats.gave_up += 1;
            }
            self.plan.clear();
            self.attempt = 0;
            return;
        }
        let units = self.backoff.units(self.attempt - 1);
        self.pending_backoff = units;
        if in_window {
            self.stats.backoff_units += units;
        }
    }
}

/// Run one grid cell for one (system, policy) pair.
pub fn run_cell(
    system: SystemKind,
    policy: CcPolicy,
    cell: CellSpec,
    cfg: &CcGridCfg,
) -> CcGridRow {
    let workers = cfg.workers;
    let mut w = Contention::new()
        .rows(cfg.rows)
        .theta(cell.theta)
        .read_ratio(cell.read_ratio)
        .payload(cell.payload)
        .ops_per_txn(cfg.ops_per_txn)
        .flash_sale(cell.flash_sale)
        .seed(cfg.seed);
    // A single partition: the contention key space is shared, so every
    // worker must reach every row (partitioned engines run one island).
    let (sim, db) = SystemBuilder::new(system)
        .cores(workers)
        .partitions(1)
        .cc(policy)
        .load(MachineConfig::ivy_bridge(workers), |db| {
            w.setup(db, workers)
        });

    let retry_policy = RetryPolicy::default();
    let wl = RefCell::new(w);
    let per_worker: Vec<RefCell<CellStats>> = (0..workers)
        .map(|_| RefCell::new(CellStats::default()))
        .collect();
    let cores: Vec<usize> = (0..workers).collect();
    let warmup_turns = cfg.window.warmup * workers as u64;
    let db = &*db;
    let wl = &wl;
    let per_worker = &per_worker;
    let retry_policy = &retry_policy;

    let m = measure_workers(&sim, &cores, cfg.window, Pacing::Lockstep, |worker| {
        let mut slot = Slot {
            session: db.session(worker),
            plan: Vec::new(),
            next_op: 0,
            active: false,
            attempt: 0,
            pending_backoff: 0,
            backoff: Backoff::new(*retry_policy, 0xBAC0 ^ worker as u64),
            stats: CellStats::default(),
        };
        let mem = sim.mem(worker);
        move |t| {
            let in_window = t >= warmup_turns;
            // A backoff pause occupies this turn (spin instructions), so
            // the conflicting peer gets to make progress meanwhile.
            if slot.pending_backoff > 0 {
                mem.exec(slot.pending_backoff);
                slot.pending_backoff = 0;
                return;
            }
            if !slot.active {
                if slot.plan.is_empty() {
                    slot.plan = wl.borrow_mut().plan_txn(worker);
                }
                slot.session.begin();
                slot.active = true;
                slot.next_op = 0;
            }
            if slot.next_op < slot.plan.len() {
                let op = slot.plan[slot.next_op];
                let r = wl.borrow_mut().apply(slot.session.as_mut(), &op);
                match r {
                    Ok(()) => slot.next_op += 1,
                    Err(e) => slot.fail(&e, retry_policy, in_window),
                }
            } else {
                match slot.session.commit() {
                    Ok(()) => {
                        if in_window {
                            slot.stats.commits += 1;
                        }
                        slot.plan.clear();
                        slot.active = false;
                        slot.next_op = 0;
                        slot.attempt = 0;
                    }
                    Err(e) => slot.fail(&e, retry_policy, in_window),
                }
            }
            // Publish after every turn: the closure is never handed back.
            *per_worker[worker].borrow_mut() = slot.stats;
        }
    });

    let mut stats = CellStats::default();
    for s in per_worker {
        stats.merge(&s.borrow());
    }
    finish_row(system, policy, cell, workers, &m, stats)
}

fn finish_row(
    system: SystemKind,
    policy: CcPolicy,
    cell: CellSpec,
    workers: usize,
    m: &Measurement,
    stats: CellStats,
) -> CcGridRow {
    // `measure_workers` counted turns (operations), not transactions, and
    // reports per-worker averages for rates while summing txns/counts:
    // rescale to aggregate committed-transaction throughput.
    let steps = m.txns.max(1) as f64;
    let commits = stats.commits as f64;
    CcGridRow {
        system: system.label(),
        policy: policy.label(),
        cell,
        workers,
        tps: m.tps * workers as f64 * (commits / steps),
        ipc: m.ipc,
        instr_per_commit: m.counts.instructions as f64 / commits.max(1.0),
        spki: m.spki,
        stats,
    }
}

/// Run the whole grid; rows come back in (system, policy, cell) order.
pub fn run(cfg: &CcGridCfg) -> Vec<CcGridRow> {
    let mut jobs = Vec::new();
    for &system in &cfg.systems {
        for &policy in &cfg.policies {
            for &cell in &cfg.cells {
                jobs.push((system, policy, cell));
            }
        }
    }
    crate::grid::fan_out(&jobs, |&(system, policy, cell)| {
        run_cell(system, policy, cell, cfg)
    })
}

/// CSV header matching [`to_csv`] rows.
pub const CSV_HEADER: &str = "system,protocol,theta,read_ratio,payload,flash_sale,workers,\
tps,ipc,instr_per_commit,commits,retries,conflicts,validation_aborts,deadlock_victims,\
gave_up,backoff_units,spki_instr,spki_l1i,spki_l2i,spki_llc_i,spki_l1d,spki_l2d_llc_d";

/// Render rows as CSV (stable column order; see [`CSV_HEADER`]).
pub fn to_csv(rows: &[CcGridRow]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.2},{},{},{},{:.1},{:.3},{:.1},{},{},{},{},{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            r.system,
            r.policy,
            r.cell.theta,
            r.cell.read_ratio,
            r.cell.payload,
            r.cell.flash_sale,
            r.workers,
            r.tps,
            r.ipc,
            r.instr_per_commit,
            r.stats.commits,
            r.stats.retries,
            r.stats.conflicts,
            r.stats.validation_aborts,
            r.stats.deadlock_victims,
            r.stats.gave_up,
            r.stats.backoff_units,
            r.spki[0],
            r.spki[1],
            r.spki[2],
            r.spki[3],
            r.spki[4],
            r.spki[5],
        ));
    }
    out
}

/// Render a human-readable table of the rows.
pub fn render(rows: &[CcGridRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<9} {:<12} {:>5} {:>5} {:>4} {:>6} {:>9} {:>6} {:>10} {:>8} {:>8} {:>8} {:>7}\n",
        "system",
        "protocol",
        "theta",
        "read",
        "pay",
        "flash",
        "tps",
        "ipc",
        "instr/txn",
        "commits",
        "retries",
        "vfail",
        "victim"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<12} {:>5.2} {:>5.2} {:>4} {:>6} {:>9.0} {:>6.2} {:>10.0} {:>8} {:>8} {:>8} {:>7}\n",
            r.system,
            r.policy,
            r.cell.theta,
            r.cell.read_ratio,
            r.cell.payload,
            r.cell.flash_sale,
            r.tps,
            r.ipc,
            r.instr_per_commit,
            r.stats.commits,
            r.stats.retries,
            r.stats.validation_aborts,
            r.stats.deadlock_victims,
        ));
    }
    out
}

/// Smoke gate for CI: every (engine, protocol, cell) must have committed
/// transactions and a sane measurement.
pub fn smoke_check(rows: &[CcGridRow]) -> Result<(), String> {
    for r in rows {
        if r.stats.commits == 0 {
            return Err(format!(
                "{} / {} (theta {}): no transaction committed",
                r.system, r.policy, r.cell.theta
            ));
        }
        let sane = |x: f64| x.is_finite() && x > 0.0;
        if !sane(r.ipc) || !sane(r.tps) {
            return Err(format!(
                "{} / {}: degenerate measurement (ipc {}, tps {})",
                r.system, r.policy, r.ipc, r.tps
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SystemKind, policy: CcPolicy) -> CcGridRow {
        let mut cfg = CcGridCfg::smoke();
        cfg.workers = 2;
        cfg.rows = 128;
        cfg.window = WindowSpec {
            warmup: 10,
            measured: 40,
            reps: 1,
        };
        let cell = CellSpec {
            theta: 0.9,
            read_ratio: 0.5,
            payload: 8,
            flash_sale: false,
        };
        run_cell(system, policy, cell, &cfg)
    }

    #[test]
    fn cells_commit_on_every_policy() {
        for policy in CcGridCfg::all_policies() {
            let row = tiny(SystemKind::VoltDb, policy);
            assert!(
                row.stats.commits > 0,
                "{}/{}: no commits",
                row.system,
                row.policy
            );
            assert!(row.tps > 0.0);
        }
    }

    #[test]
    fn contention_surfaces_conflicts_under_nowait() {
        // Two workers hammering a 16-row hot set under no-wait 2PL must
        // observe at least one conflict in lockstep op interleaving.
        let mut cfg = CcGridCfg::smoke();
        cfg.workers = 3;
        cfg.rows = 16;
        cfg.window = WindowSpec {
            warmup: 20,
            measured: 150,
            reps: 1,
        };
        let cell = CellSpec {
            theta: 0.95,
            read_ratio: 0.0,
            payload: 8,
            flash_sale: true,
        };
        let row = run_cell(SystemKind::ShoreMt, CcPolicy::TwoPlNoWait, cell, &cfg);
        assert!(row.stats.commits > 0);
        assert!(
            row.stats.retries > 0,
            "hot-row writes under no-wait must conflict: {:?}",
            row.stats
        );
    }

    #[test]
    fn csv_round_trip_shape() {
        let row = tiny(SystemKind::HyPer, CcPolicy::Occ);
        let csv = to_csv(&[row]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), CSV_HEADER);
        let data = lines.next().unwrap();
        assert_eq!(data.split(',').count(), CSV_HEADER.split(',').count());
        assert!(data.starts_with("HyPer,occ,"));
    }
}
