//! # bench — the experiment harness behind the `bench` CLI
//!
//! [`run_point`] builds a fresh simulated machine, an engine, and a
//! workload; bulk-loads offline; then measures with the §3 methodology
//! (warm-up window, measured window, repetition averaging, per-worker
//! filtering). [`run_points`] fans experiment points out over OS threads —
//! every point owns its own simulator, so they are independent.
//!
//! The crate is one CLI over three shared pieces:
//!
//! * [`cli`] — the command table (names, flag [`args::Spec`]s, help,
//!   handler) both binaries (`bench` and its alias `figures`) dispatch
//!   through, and the usage text generated from it;
//! * [`grid`] — the grid driver: ordered parallel fan-out over cells and
//!   the `results/<name>[_smoke].csv` → `wrote` → gate → exit-code tail.
//!   Its clients are [`scaling`], [`ccgrid`], [`islands`],
//!   [`recover::sweep`] and, through [`run_points`], the figure suite
//!   ([`figures`], [`suite`]);
//! * [`replay`] — the manifest reader behind `chaos --plan` and
//!   `recover --plan`.
//!
//! The single-run commands ([`trace`], [`metrics_report`], [`perf`],
//! [`serve`], [`chaos`], [`recover`], [`diff`]) are not grids; they share
//! only the write-and-gate tail.

use std::env;
use std::sync::Mutex;

use engines::{build_system, SystemKind};
use microarch::{measure, measure_workers, Measurement, Pacing, WindowSpec};
use uarch_sim::{MachineConfig, Sim};
use workloads::tpcc::TpcCScale;
use workloads::{DbSize, MicroBench, TpcB, TpcC, Workload};

pub mod ablations;
pub mod args;
pub mod ccgrid;
pub mod chaos;
pub mod cli;
pub mod diff;
pub mod figures;
pub mod grid;
pub mod islands;
pub mod metrics_report;
pub mod modules_report;
pub mod names;
mod oracle;
pub mod perf;
pub mod recover;
pub mod replay;
pub mod scaling;
pub mod serve;
pub mod suite;
pub mod trace;

/// Which workload a point runs.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadCfg {
    /// The §4 micro-benchmark.
    Micro {
        /// Database size.
        size: DbSize,
        /// Rows probed per transaction.
        rows_per_txn: u32,
        /// Read-only vs read-write.
        read_only: bool,
        /// Two 50-byte String columns instead of Longs (§6.2).
        strings: bool,
    },
    /// TPC-B at the paper's (scaled) 100 GB.
    TpcB,
    /// TPC-C at the paper's (scaled) 100 GB.
    TpcC,
}

impl WorkloadCfg {
    /// Instantiate the workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadCfg::Micro {
                size,
                rows_per_txn,
                read_only,
                strings,
            } => {
                let mut w = MicroBench::new(*size).rows_per_txn(*rows_per_txn);
                if !read_only {
                    w = w.read_write();
                }
                if *strings {
                    w = w.string_columns();
                }
                Box::new(w)
            }
            WorkloadCfg::TpcB => Box::new(TpcB::new()),
            WorkloadCfg::TpcC => Box::new(TpcC::with_scale(tpcc_scale())),
        }
    }

    /// Default measurement window; heavier workloads use smaller windows.
    pub fn window(&self) -> WindowSpec {
        let base = match self {
            WorkloadCfg::Micro { rows_per_txn, .. } if *rows_per_txn >= 100 => WindowSpec {
                warmup: 300,
                measured: 500,
                reps: 3,
            },
            WorkloadCfg::Micro { rows_per_txn, .. } if *rows_per_txn >= 10 => WindowSpec {
                warmup: 1000,
                measured: 2000,
                reps: 3,
            },
            WorkloadCfg::Micro { .. } => WindowSpec {
                warmup: 3000,
                measured: 6000,
                reps: 3,
            },
            WorkloadCfg::TpcB => WindowSpec {
                warmup: 2000,
                measured: 4000,
                reps: 3,
            },
            WorkloadCfg::TpcC => WindowSpec {
                warmup: 400,
                measured: 800,
                reps: 3,
            },
        };
        base.scaled(scale_factor())
    }
}

/// TPC-C scale, shrunk when `IMOLTP_SCALE` < 0.3 (smoke runs).
fn tpcc_scale() -> TpcCScale {
    if scale_factor() < 0.3 {
        TpcCScale {
            warehouses: 2,
            customers_per_district: 600,
            items: 10_000,
            initial_orders: 120,
        }
    } else {
        TpcCScale::paper_100gb()
    }
}

/// Global intensity factor from `IMOLTP_SCALE` (default 1.0).
pub fn scale_factor() -> f64 {
    env::var("IMOLTP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// One experiment point. Construct with [`Point::new`] and the builder
/// methods; the fields are private so that invalid worker/partition
/// combinations are rejected at construction time rather than deep inside
/// an engine.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    system: SystemKind,
    workload: WorkloadCfg,
    workers: usize,
    partitions: Option<usize>,
    window: Option<WindowSpec>,
}

impl Point {
    /// Single-worker point (the paper's single-threaded methodology).
    pub fn new(system: SystemKind, workload: WorkloadCfg) -> Self {
        Point {
            system,
            workload,
            workers: 1,
            partitions: None,
            window: None,
        }
    }

    /// Multi-worker point (§7): one OS thread per simulated core.
    ///
    /// # Panics
    ///
    /// Panics for a partitioned engine when `workers` exceeds the
    /// configured partition count — those engines route each worker to its
    /// own partition and cannot host more workers than partitions.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "a point needs at least one worker");
        self.workers = workers;
        self.validate();
        self
    }

    /// Override the partition count (default: one partition per worker).
    ///
    /// # Panics
    ///
    /// Panics for a partitioned engine when the worker count exceeds
    /// `partitions`.
    pub fn partitions(mut self, partitions: usize) -> Self {
        assert!(partitions >= 1, "a point needs at least one partition");
        self.partitions = Some(partitions);
        self.validate();
        self
    }

    /// Override the measurement window (default: the workload's).
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    fn validate(&self) {
        if self.system.partitioned() && self.workers > self.effective_partitions() {
            panic!(
                "{:?} is partitioned: {} workers cannot run on {} partition(s)",
                self.system,
                self.workers,
                self.effective_partitions()
            );
        }
    }

    /// System under test.
    pub fn system(&self) -> SystemKind {
        self.system
    }

    /// Workload configuration.
    pub fn workload(&self) -> &WorkloadCfg {
        &self.workload
    }

    /// Worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Partition count the engine is built with.
    pub fn effective_partitions(&self) -> usize {
        self.partitions.unwrap_or(self.workers)
    }

    /// Measurement window the point runs with.
    pub fn effective_window(&self) -> WindowSpec {
        self.window.unwrap_or_else(|| self.workload.window())
    }
}

/// Run one experiment point to a [`Measurement`].
///
/// Single-worker points use the exact single-threaded measurement loop the
/// paper's figures were calibrated on. Multi-worker points open one
/// [`oltp::Session`] per worker and drive them from parallel OS threads in
/// deterministic lockstep; per-worker counters are averaged and transaction
/// counts summed, as in the paper's multi-threaded experiments.
pub fn run_point(point: &Point) -> Measurement {
    let workers = point.worker_count();
    let sim = Sim::new(MachineConfig::ivy_bridge(workers));
    let mut db = build_system(point.system(), &sim, point.effective_partitions());
    let mut w = point.workload().build();
    sim.offline(|| w.setup(db.as_mut(), workers));
    sim.warm_data();
    let window = point.effective_window();
    if workers == 1 {
        let mut s = db.session(0);
        measure(&sim, 0, window, |_| {
            w.exec(s.as_mut(), 0).expect("benchmark transaction failed");
        })
    } else {
        let cores: Vec<usize> = (0..workers).collect();
        let w = Mutex::new(w);
        let db = &*db;
        let w = &w;
        measure_workers(&sim, &cores, window, Pacing::Lockstep, |worker| {
            let mut s = db.session(worker);
            move |_| {
                w.lock()
                    .unwrap()
                    .exec(s.as_mut(), worker)
                    .expect("benchmark transaction failed");
            }
        })
    }
}

/// Run many points in parallel across OS threads (each point owns its own
/// simulator; results return in input order).
pub fn run_points(points: &[Point]) -> Vec<Measurement> {
    grid::fan_out(points, run_point)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_micro(system: SystemKind) -> Measurement {
        let p = Point::new(
            system,
            WorkloadCfg::Micro {
                size: DbSize::Mb1,
                rows_per_txn: 1,
                read_only: true,
                strings: false,
            },
        );
        // Shrink the window directly for test speed.
        let p = p.window(WindowSpec {
            warmup: 300,
            measured: 500,
            reps: 2,
        });
        run_point(&p)
    }

    #[test]
    fn measurement_is_sane_for_every_system() {
        for kind in SystemKind::ALL {
            let m = quick_micro(kind);
            assert!(m.ipc > 0.05 && m.ipc <= 4.0, "{kind:?}: ipc={}", m.ipc);
            assert!(
                m.instr_per_txn > 500.0,
                "{kind:?}: instr={}",
                m.instr_per_txn
            );
            assert!(m.tps > 0.0);
        }
    }

    #[test]
    fn multi_worker_point_runs() {
        let p = Point::new(
            SystemKind::VoltDb,
            WorkloadCfg::Micro {
                size: DbSize::Mb1,
                rows_per_txn: 1,
                read_only: true,
                strings: false,
            },
        )
        .workers(2)
        .window(WindowSpec {
            warmup: 100,
            measured: 200,
            reps: 1,
        });
        let m = run_point(&p);
        assert!(m.ipc > 0.0);
        // Per-worker transaction counts sum across the two workers.
        assert_eq!(m.txns, 2 * 200);
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn partitioned_point_rejects_more_workers_than_partitions() {
        let _ = Point::new(
            SystemKind::VoltDb,
            WorkloadCfg::Micro {
                size: DbSize::Mb1,
                rows_per_txn: 1,
                read_only: true,
                strings: false,
            },
        )
        .partitions(2)
        .workers(4);
    }

    #[test]
    fn shared_everything_point_allows_more_workers_than_partitions() {
        let p = Point::new(
            SystemKind::ShoreMt,
            WorkloadCfg::Micro {
                size: DbSize::Mb1,
                rows_per_txn: 1,
                read_only: true,
                strings: false,
            },
        )
        .partitions(1)
        .workers(4);
        assert_eq!(p.worker_count(), 4);
        assert_eq!(p.effective_partitions(), 1);
    }
}
