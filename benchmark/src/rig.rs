//! What every workload shares: the engine list, the fixed sizes and their
//! scaling, timed set-up, per-engine result rows and the run's outcome.

use std::collections::BTreeMap;
use std::time::Instant;

use imoltp::analysis::Measurement;
use imoltp::bench::Workload;
use imoltp::db::Db;
use imoltp::obs::json::Json;
use imoltp::sim::{EventCounts, MachineConfig, Sim};
use imoltp::systems::{SystemBuilder, SystemKind};

use crate::catalog;
use crate::stats::{self, Fnv};

/// Seconds of timed work the fixed counts are sized for on the 2-core
/// reference box; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Each engine's timed section on the 1-worker workloads is cut into this
/// many equal batches, interleaved engine by engine so machine noise lands
/// on all engines alike.
pub const BATCHES: usize = 50;

/// `sim_digest_head` covers the first this-many batches. A traced run
/// spends them online under the decorators and replays the rest offline,
/// so its head digest must equal the untraced run's.
pub const HEAD_BATCHES: usize = 40;

/// The five engines; DBMS M gets its cc-B-tree for range-scanning TPC-C.
pub fn kinds(tpcc: bool) -> [SystemKind; 5] {
    let mut all = SystemKind::ALL;
    if tpcc {
        all[4] = SystemKind::dbms_m_for_tpcc();
    }
    all
}

/// Multiplier applied to every fixed count: `--seconds / RUN_SECONDS`,
/// and a further 1/20 under `--smoke`. Counts never depend on the machine,
/// the environment or how fast a run is going.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    num: u64,
    den: u64,
}

impl Scale {
    pub fn new(seconds: u64, smoke: bool) -> Self {
        Scale {
            num: seconds,
            den: RUN_SECONDS * if smoke { 20 } else { 1 },
        }
    }

    pub fn of(self, count: u64) -> u64 {
        (count * self.num / self.den).max(1)
    }
}

/// Host seconds of one engine's set-up, by the layer that spends them.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `SystemBuilder::build`.
    pub build_s: f64,
    /// `Workload::setup` under `Sim::offline`.
    pub load_s: f64,
    /// `Sim::warm_data`.
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.load_s + self.warm_s
    }
}

/// A built, loaded and warmed engine.
pub struct Loaded<W> {
    pub sim: Sim,
    pub db: Box<dyn Db>,
    pub wl: W,
    pub setup: SetupTimes,
}

/// Build `kind` on `cores` cores, load `make()`'s workload and warm the
/// caches, `repeats` times over; keeps the last instance and reports each
/// component's median, so one slow page-fault storm does not set `setup_s`.
pub fn set_up<W: Workload>(
    kind: SystemKind,
    cores: usize,
    repeats: usize,
    make: impl Fn() -> W,
) -> Loaded<W> {
    let mut samples: Vec<SetupTimes> = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Free the previous instance first: two copies would double peak RSS.
        drop(last.take());
        let t = Instant::now();
        let sim = Sim::new(MachineConfig::ivy_bridge(cores));
        let mut db = SystemBuilder::new(kind).cores(cores).build(&sim);
        let build_s = t.elapsed().as_secs_f64();
        let mut wl = make();
        let t = Instant::now();
        sim.offline(|| wl.setup(db.as_mut(), cores));
        let load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.warm_data();
        let warm_s = t.elapsed().as_secs_f64();
        samples.push(SetupTimes {
            build_s,
            load_s,
            warm_s,
        });
        last = Some((sim, db, wl));
    }
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&samples.iter().map(f).collect::<Vec<_>>());
    let (sim, db, wl) = last.expect("at least one set-up");
    Loaded {
        sim,
        db,
        wl,
        setup: SetupTimes {
            build_s: med(|s| s.build_s),
            load_s: med(|s| s.load_s),
            warm_s: med(|s| s.warm_s),
        },
    }
}

/// One engine's line of a run.
pub struct EngineRow {
    pub name: &'static str,
    /// Committed transactions per host second at the engine's typical
    /// pace: from the median sample, so a noisy burst does not move it.
    pub rate: f64,
    /// Transactions the timed sections ran.
    pub txns: u64,
    /// The rate of every sample (a batch on the 1-worker workloads, a
    /// whole public call otherwise), for the spread shown beside `rate`.
    pub samples: Vec<f64>,
    /// Host seconds the timed sections actually took, bursts included.
    pub elapsed_s: f64,
    pub setup: SetupTimes,
    /// Simulated transactions per simulated second.
    pub sim_tps: f64,
    pub sim_ipc: f64,
}

impl EngineRow {
    pub fn describe(&self) -> String {
        format!(
            "{:<9} host {:>10.0} txn/s typical  {:>10.0} p20  ({} samples, {:.2} s elapsed)   sim {:>10.0} tps  ipc {:.3}",
            self.name,
            self.rate,
            stats::p20(&self.samples),
            self.samples.len(),
            self.elapsed_s,
            self.sim_tps,
            self.sim_ipc
        )
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One correctness check of a run.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Transactions (or connections, increments) the run tried.
    pub attempted: u64,
    /// Those that failed: engine errors other than TPC-C's specified
    /// NewOrder rollbacks, connections never served, lost / phantom /
    /// aborted-effect updates.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<String, f64>,
    /// FNV over the simulated counters of every timed window.
    pub sim_digest: u64,
    /// The same over the head of the run (see [`HEAD_BATCHES`]).
    pub sim_digest_head: u64,
    /// Human-readable lines printed above the metric table.
    pub notes: Vec<String>,
    /// Span aggregates and sampled spans of a traced run.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Record a per-layer metric; the name must be in the catalog.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            catalog::per_layer().iter().any(|m| m.name == name),
            "{name} is not a catalogued per-layer metric"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// The six end-to-end metrics from the engine rows; `setup_s` sums
    /// what the benchmark timed outside the timed sections.
    pub fn end_to_end(&mut self, rows: &[EngineRow]) {
        let geo =
            |f: &dyn Fn(&EngineRow) -> f64| stats::geomean(&rows.iter().map(f).collect::<Vec<_>>());
        let mut set = |name: &str, v: f64| {
            self.metrics.insert(name.to_string(), v);
        };
        set("host_txn_per_s", geo(&|r| r.rate));
        // The timed sections at each engine's typical pace: dominated by
        // the slowest engine, where the geometric mean weighs all alike.
        set("wall_s", rows.iter().map(|r| r.txns as f64 / r.rate).sum());
        set("setup_s", rows.iter().map(|r| r.setup.total()).sum());
        set("sim_tps", geo(&|r| r.sim_tps));
        set("sim_ipc", geo(&|r| r.sim_ipc));
        set("peak_rss_mb", peak_rss_mb());
        for r in rows {
            self.notes.push(r.describe());
        }
    }

    /// The per-engine and set-up layer metrics every traced run reports.
    pub fn engine_layers(&mut self, rows: &[EngineRow]) {
        for r in rows {
            self.layer(&catalog::per_engine_name(r.name, "host_txn_per_s"), r.rate);
            self.layer(&catalog::per_engine_name(r.name, "sim_tps"), r.sim_tps);
        }
        self.layer(
            "engines.build_s",
            rows.iter().map(|r| r.setup.build_s).sum(),
        );
        self.layer(
            "workloads.load_s",
            rows.iter().map(|r| r.setup.load_s).sum(),
        );
        self.layer(
            "uarch_sim.warm_data_s",
            rows.iter().map(|r| r.setup.warm_s).sum(),
        );
        // Quartiles need a handful of samples; one traced call has none.
        let iqr: Vec<f64> = rows
            .iter()
            .filter(|r| r.samples.len() >= 4)
            .map(|r| stats::iqr_pct(&r.samples))
            .collect();
        if !iqr.is_empty() {
            self.layer("bench.batch_rate_iqr_pct", stats::mean(&iqr));
        }
    }

    /// The modelled-hardware metrics of the timed windows — each window's
    /// counters and the transactions it ran — weighted by instructions over
    /// the engines (counts add, so ratios of sums are).
    pub fn modelled_layers(&mut self, windows: &[(&EventCounts, u64)], cfg: &MachineConfig) {
        let mut sum = EventCounts::default();
        let mut txns = 0u64;
        for (counts, n) in windows {
            sum.add(counts);
            txns += n;
        }
        let kinstr = (sum.instructions as f64 / 1000.0).max(f64::MIN_POSITIVE);
        let ktxn = (txns as f64 / 1000.0).max(f64::MIN_POSITIVE);
        let cycles = cfg.cycles(&sum);
        let stalls = cfg.stall_cycles(&sum);
        self.layer(
            "uarch_sim.instr_per_txn",
            sum.instructions as f64 / txns.max(1) as f64,
        );
        let retire = sum.instructions as f64 / cfg.ideal_ipc;
        self.layer(
            "uarch_sim.stall_cycle_share",
            if cycles > 0.0 {
                (cycles - retire).max(0.0) / cycles
            } else {
                0.0
            },
        );
        let names = ["l1i", "l2i", "llci", "l1d", "l2d", "llcd"];
        for (i, n) in names.iter().enumerate() {
            self.layer(&format!("uarch_sim.spki_{n}"), stalls[i] / kinstr);
        }
        self.layer(
            "uarch_sim.invalidations_per_ktxn",
            sum.invalidations as f64 / ktxn,
        );
    }

    /// Cycle shares of the engines' own phase spans (an `obs::Tracer` was
    /// installed for these windows), cycle-weighted over the engines.
    pub fn phase_layers(&mut self, windows: &[&Measurement]) {
        let total: f64 = windows.iter().map(|m| m.cycles).sum();
        let share = |phase: &str, engine: Option<&str>| -> f64 {
            let c: f64 = windows
                .iter()
                .flat_map(|m| m.phases.iter())
                .filter(|p| p.phase == phase && engine.is_none_or(|e| p.engine == e))
                .map(|p| p.cycles)
                .sum();
            if total > 0.0 {
                c / total
            } else {
                0.0
            }
        };
        // `svc` spans are the service front end's, reported under service.*.
        let engine_side = |phase: &str| share(phase, None) - share(phase, Some("svc"));
        self.layer("engines.dispatch_cycle_share", engine_side("dispatch"));
        self.layer("engines.commit_cycle_share", share("commit", None));
        self.layer("indexes.cycle_share", share("index", None));
        self.layer("storage.cycle_share", share("storage", None));
        self.layer("storage.log_cycle_share", share("log", None));
        self.layer("oltp.cc_cycle_share", share("cc", None));
    }
}

/// Share of the wall clock since `started` that no span of `log` covers,
/// in percent — reported explicitly, like `obs::flame`'s `(untraced)`.
pub fn residual_pct(started: Instant, log: &crate::spans::SpanLog) -> f64 {
    let wall = started.elapsed().as_secs_f64();
    100.0 * (wall - log.covered_ns() as f64 / 1e9).max(0.0) / wall
}

/// Digest of a set of timed windows, in engine order.
pub fn digest_windows<'a>(windows: impl IntoIterator<Item = &'a Measurement>) -> Fnv {
    let mut h = Fnv::new();
    for m in windows {
        h.word(m.txns);
        h.counts(&m.counts);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_seconds_and_smoke_and_never_reaches_zero() {
        assert_eq!(Scale::new(RUN_SECONDS, false).of(1000), 1000);
        assert_eq!(Scale::new(RUN_SECONDS * 2, false).of(1000), 2000);
        assert_eq!(Scale::new(RUN_SECONDS, true).of(1000), 50);
        assert_eq!(Scale::new(1, true).of(7), 1);
    }

    #[test]
    fn dbms_m_switches_index_for_tpcc_only() {
        assert_eq!(kinds(false), SystemKind::ALL);
        assert_eq!(kinds(true)[4], SystemKind::dbms_m_for_tpcc());
        assert_eq!(kinds(true)[..4], SystemKind::ALL[..4]);
    }

    #[test]
    fn peak_rss_reads_the_kernel_counter() {
        assert!(peak_rss_mb() > 1.0);
    }
}
