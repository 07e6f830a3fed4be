//! # bench — the experiment harness behind the `bench` CLI
//!
//! [`run_point`] builds a fresh simulated machine, an engine, and a
//! workload; bulk-loads offline; then measures with the §3 methodology
//! (warm-up window, measured window, repetition averaging, per-worker
//! filtering). [`run_points`] fans experiment points out over OS threads —
//! every point owns its own simulator, so they are independent.
//!
//! The crate is one CLI over five shared pieces:
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
//!   `recover --plan`;
//! * [`drive`] — the session driver: one session per worker core, a
//!   `Phase::Txn` root span around every transaction, lockstep
//!   `measure_workers` on any number of cores. Every harness that runs a
//!   plain workload loop over a database loaded with
//!   [`engines::SystemBuilder::load`] goes through it ([`ccgrid`],
//!   [`chaos`] and [`recover`] keep their own step closures: they are state
//!   machines, not workload loops);
//! * `oracle` — the worker-private counter tables [`chaos`] and
//!   [`recover`] verify against.
//!
//! The single-run commands ([`trace`], [`metrics_report`], [`perf`],
//! [`serve`], [`chaos`], [`recover`], [`diff`]) are not grids; they share
//! only the write-and-gate tail.

use std::cell::RefCell;
use std::env;

use engines::{SystemBuilder, SystemKind};
use microarch::{measure_workers, Measurement, Pacing, WindowSpec};
use obs::Phase;
use oltp::Db;
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

/// The value of `IMOLTP_SCALE`: unset is 1.0, anything but a positive
/// finite number is an error (a typo must not run at full scale).
fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!(
            "IMOLTP_SCALE={raw}: expected a positive number (e.g. 0.2)"
        )),
    }
}

/// `IMOLTP_SCALE` as the environment has it; [`cli::main`] checks it up
/// front so a bad value is a usage error, not a panic mid-run.
fn env_scale() -> Result<f64, String> {
    parse_scale(env::var("IMOLTP_SCALE").ok().as_deref())
}

/// Global intensity factor from `IMOLTP_SCALE` (default 1.0).
///
/// # Panics
///
/// Panics when the variable is set to anything but a positive number.
pub fn scale_factor() -> f64 {
    env_scale().unwrap_or_else(|e| panic!("{e}"))
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

    /// Multi-worker point (§7): one engine session per simulated core.
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

    /// Workers (one session and one simulated core each).
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

/// Drive `workload` over `db` for one measurement window: worker `i` opens
/// a session on `cores[i]` (and passes that core as the workload's worker
/// id), `before(i)` runs ahead of each of worker `i`'s transactions (the
/// hook a tracing harness installs that worker's tracer from), and every
/// transaction runs inside a `Phase::Txn` root span — inert unless a
/// tracer is installed.
///
/// The workers take turns in deterministic lockstep on the calling thread,
/// per-worker counters averaged and transaction counts summed, as in the
/// paper's multi-threaded experiments; one core is the single-threaded
/// measurement loop the paper's figures were calibrated on.
///
/// # Panics
///
/// Panics when a transaction fails: aborts are unexpected in these
/// benchmarks (single-site, no conflicts).
pub fn drive(
    sim: &Sim,
    db: &dyn Db,
    workload: &mut dyn Workload,
    cores: &[usize],
    window: WindowSpec,
    before: impl Fn(usize),
) -> Measurement {
    let system = db.name();
    let workload = RefCell::new(workload);
    let (workload, before) = (&workload, &before);
    measure_workers(sim, cores, window, Pacing::Lockstep, |i| {
        let core = cores[i];
        let mut s = db.session(core);
        move |_| {
            before(i);
            let _txn = obs::span(system, Phase::Txn, core);
            let mut w = workload.borrow_mut();
            if let Err(e) = w.exec(s.as_mut(), core) {
                panic!("{} txn failed on {system}, worker {i}: {e}", w.name());
            }
        }
    })
}

/// Run one experiment point to a [`Measurement`]: a fresh machine and
/// engine, the workload bulk-loaded offline, then [`drive`] over cores
/// `0..workers`.
pub fn run_point(point: &Point) -> Measurement {
    let workers = point.worker_count();
    let mut w = point.workload().build();
    let (sim, db) = SystemBuilder::new(point.system())
        .cores(workers)
        .partitions(point.effective_partitions())
        .load(MachineConfig::ivy_bridge(workers), |db| {
            w.setup(db, workers)
        });
    let cores: Vec<usize> = (0..workers).collect();
    let window = point.effective_window();
    drive(&sim, &*db, w.as_mut(), &cores, window, |_| {})
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
    fn scale_is_a_positive_number_or_an_error() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.2")), Ok(0.2));
        assert_eq!(parse_scale(Some("3")), Ok(3.0));
        for bad in ["0,2", "", "fast", "0", "-1", "nan", "inf"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.starts_with(&format!("IMOLTP_SCALE={bad}:")), "{err}");
        }
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
