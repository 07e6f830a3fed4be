//! Chaos harness: drive an engine under deterministic fault injection
//! with a real recovery policy, and verify nothing was lost.
//!
//! One chaos run installs a [`faults::FaultPlan`] (seed + per-site rates)
//! and executes a lockstep multi-worker window in which every worker
//! alternates between
//!
//! * a **verified counter increment** on its own worker-private rows of a
//!   dedicated `chaos_counters` table (the lost-update oracle), and
//! * a regular transaction of the configured workload (realistic traffic).
//!
//! Failures recover through [`oltp::retry`]: bounded exponential backoff
//! with deterministic jitter for conflict-class errors, bounded plain
//! retry for abort-class errors, session re-open on poison, and a
//! `gave_up` record — never a panicked barrier — when the policy is
//! exhausted. Backoff is charged to the worker's simulated core as
//! retired instructions, so the recovery policy is visible in the counter
//! profile exactly like a PAUSE loop would be on real hardware.
//!
//! **Fault sites.** Harness-level: `driver/conflict`, `driver/abort`
//! (forced errors before dispatch), `driver/poison` (session poisoning;
//! sticky until re-open), and `core/offline` (the worker's simulated core
//! drops traffic for a fixed window — degraded placement à la Hardware
//! Islands). Engine-internal: `shore_mt/latch`, `shore_mt/wal`,
//! `dbms_d/latch`, `dbms_d/wal`, `voltdb/claim`, `voltdb/clog`,
//! `hyper/claim`, `hyper/wal`, `dbms_m/latch`, `dbms_m/validate`, and
//! `cc/validate` under a pluggable protocol.
//!
//! **Oracle under ambiguity.** In-place engines have no physical undo, so
//! an error injected at the *commit* site leaves the increment possibly
//! applied. The oracle therefore tracks confirmed commits exactly and
//! counts ambiguous commit failures separately: the final value must lie
//! in `[confirmed, confirmed + ambiguous]`. Anything below is a lost
//! update; anything above is a phantom.
//!
//! **Determinism.** Fault decisions are a pure function of
//! `(seed, site, core, ordinal)`, pacing is lockstep, and backoff jitter
//! is seeded — so a run is a pure function of its manifest. At fault-rate
//! 0 the run is byte-identical to a fault-free run of the same schedule
//! (the per-core counter digests are reproduced exactly).

use std::cell::RefCell;
use std::fs;
use std::io::BufWriter;
use std::path::Path;

use engines::{CcPolicy, SystemBuilder, SystemKind};
use faults::FaultPlan;
use microarch::{measure_workers, Measurement, Pacing, WindowSpec};
use obs::json::Json;
use obs::sink::{JsonlSink, VecSink};
use obs::{hist::Histogram, Phase, Tracer};
use oltp::retry::{retry_txn, Backoff, RetryPolicy, RetryStats, TxnOutcome};
use oltp::{OltpError, OltpResult, Session};
use uarch_sim::rng::Fnv;
use uarch_sim::{EventCounts, MachineConfig, Sim};
use workloads::Workload;

use crate::names::{slug, system_cli};
use crate::oracle::{Counters, KEYS_PER_WORKER};
use crate::{scale_factor, WorkloadCfg};

/// Fixed length (in transaction slots) of a core-offline window.
const OFFLINE_TXNS: u64 = 8;

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosCfg {
    /// Engine under test.
    pub system: SystemKind,
    /// Workload providing the realistic traffic half of the schedule.
    pub workload: WorkloadCfg,
    /// Workload CLI name (for manifests and file slugs).
    pub workload_name: String,
    /// Fault-plan seed.
    pub seed: u64,
    /// Base firing rate for every site (poison/offline run at 1/8 of it).
    pub fault_rate: f64,
    /// Workers (= simulated cores = partitions).
    pub workers: usize,
    /// Sockets of the simulated machine (`workers` must divide evenly
    /// across them). 1 — the default — is bit-identical to the historical
    /// single-socket harness; more sockets deploy the engine island-style
    /// (each partition homed with its worker), so `core/offline` faults on
    /// the upper worker range hit a remote socket.
    pub sockets: usize,
    /// Measurement window; `None` uses the chaos default scaled by
    /// `IMOLTP_SCALE`.
    pub window: Option<WindowSpec>,
    /// Retry/backoff policy.
    pub policy: RetryPolicy,
    /// Exact plan to install instead of the one derived from
    /// `seed`/`fault_rate` — used when replaying a manifest whose plan may
    /// carry site rules this builder doesn't produce.
    pub plan_override: Option<FaultPlan>,
    /// Concurrency-control protocol under test
    /// ([`CcPolicy::EngineDefault`] = the engine's historical protocol).
    pub cc: CcPolicy,
}

impl ChaosCfg {
    /// Defaults for `bench chaos <system> <workload>`.
    pub fn new(system: SystemKind, workload: WorkloadCfg, workload_name: &str) -> Self {
        ChaosCfg {
            system,
            workload,
            workload_name: workload_name.to_string(),
            seed: 1,
            fault_rate: 0.05,
            workers: 2,
            sockets: 1,
            window: None,
            policy: RetryPolicy::default(),
            plan_override: None,
            cc: CcPolicy::EngineDefault,
        }
    }

    /// The plan this configuration installs.
    pub fn plan(&self) -> FaultPlan {
        if let Some(plan) = &self.plan_override {
            return plan.clone();
        }
        FaultPlan::uniform(self.seed, self.fault_rate)
            .site("driver/poison", self.fault_rate / 8.0)
            .site("core/offline", self.fault_rate / 8.0)
    }

    fn effective_window(&self) -> WindowSpec {
        self.window.unwrap_or_else(|| {
            WindowSpec {
                warmup: 100,
                measured: 400,
                reps: 1,
            }
            .scaled(scale_factor())
        })
    }
}

/// Aggregated outcome counters of one chaos run (the retry-layer stats
/// plus the harness-level recovery events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosOutcomes {
    /// Retry-layer counters (commits, retries, give-ups, backoff units).
    pub retry: RetryStats,
    /// Forced `driver/conflict` faults fired.
    pub driver_conflicts: u64,
    /// Forced `driver/abort` faults fired.
    pub driver_aborts: u64,
    /// Sessions poisoned.
    pub poisons: u64,
    /// Sessions re-opened after poison.
    pub reopens: u64,
    /// Core-offline windows entered.
    pub offline_events: u64,
    /// Transaction slots idled while a core was offline.
    pub offline_txns: u64,
    /// Commit-stage failures with ambiguous durability (see module docs).
    pub ambiguous_commits: u64,
}

/// Result of one chaos run.
pub struct ChaosReport {
    /// Aggregated counters.
    pub outcomes: ChaosOutcomes,
    /// Attempts-per-committed-transaction distribution (1 = first try).
    pub retry_hist: Histogram,
    /// Backoff-units-per-pause distribution.
    pub backoff_hist: Histogram,
    /// Per-core FNV digests over aggregate + per-module counters, taken
    /// immediately after the measured window (before verification reads).
    pub digests: Vec<u64>,
    /// FNV digest over the final `(key, value)` contents of the oracle
    /// table (read after the plan is disarmed).
    pub table_digest: u64,
    /// Oracle violations: committed increments missing from the table.
    pub lost_updates: u64,
    /// Oracle violations: increments beyond `confirmed + ambiguous`.
    pub phantom_updates: u64,
    /// Total faults fired (all sites).
    pub faults_fired: u64,
    /// The windowed measurement of the chaos run.
    pub measurement: Measurement,
    /// Merged per-worker span stream (simulated-timestamp order), for
    /// export through the standard obs sinks.
    pub spans: Vec<obs::SpanRecord>,
    /// The replayable manifest (plan + schedule + outcomes + digests).
    pub manifest: Json,
}

impl ChaosReport {
    /// Whether the oracle held: every confirmed commit is in the table and
    /// nothing beyond the ambiguity bound appeared.
    pub fn consistent(&self) -> bool {
        self.lost_updates == 0 && self.phantom_updates == 0
    }
}

fn hash_counts(h: &mut Fnv, c: &EventCounts) {
    h.word(c.instructions);
    h.word(c.code_fetches);
    h.word(c.loads);
    h.word(c.stores);
    for m in c.misses {
        h.word(m);
    }
    h.word(c.mispredicts);
    h.word(c.store_misses);
    h.word(c.invalidations);
}

/// Per-core FNV digest over aggregate + per-module counters.
fn core_digest(sim: &Sim, core: usize) -> u64 {
    let mut h = Fnv::default();
    hash_counts(&mut h, &sim.counters(core));
    let mods = sim.module_counters(core);
    h.word(mods.len() as u64);
    for mc in &mods {
        hash_counts(&mut h, mc);
    }
    h.0
}

/// Per-worker chaos state, kept in a `RefCell` slot so the step closure
/// and the post-run verifier can both reach it. Only the owning worker
/// borrows it during the run.
struct ChaosWorker {
    worker: usize,
    /// `None` only between closing a wedged or finished session and
    /// opening a fresh one.
    session: Option<Box<dyn Session>>,
    keys: Vec<u64>,
    /// Confirmed committed increments per key.
    confirmed: Vec<u64>,
    /// Commit-stage failures per key whose durability is unknown.
    ambiguous: Vec<u64>,
    stats: RetryStats,
    out: ChaosOutcomes,
    backoff: Backoff,
    retry_hist: Histogram,
    backoff_hist: Histogram,
    txn_no: u64,
    offline_until: Option<u64>,
}

/// Run one chaos point. Serializes against any other chaos run in the
/// process (the fault injector is global), installs the plan for exactly
/// the measured window, and verifies the oracle with faults disarmed.
pub fn run(cfg: &ChaosCfg) -> ChaosReport {
    let workers = cfg.workers.max(1);
    let plan = cfg.plan();
    let window = cfg.effective_window();

    // Claim the process-global injector BEFORE loading: a concurrent
    // chaos test must not have its plan armed while this run's load
    // traffic passes the engine hooks.
    let quiesced = faults::quiesce();

    let sockets = cfg.sockets.max(1);
    assert!(
        workers.is_multiple_of(sockets),
        "chaos workers ({workers}) must divide evenly across {sockets} socket(s)"
    );
    let mut w = cfg.workload.build();
    let mut counters = None;
    // numa(1, n) is bit-identical to ivy_bridge(n), and Island placement
    // is a no-op on one socket, so the default configuration reproduces
    // every historical manifest digest exactly.
    let (sim, db) = SystemBuilder::new(cfg.system)
        .cores(workers)
        .partitions(workers)
        .cc(cfg.cc)
        .placement(engines::Placement::Island)
        .load(MachineConfig::numa(sockets, workers / sockets), |db| {
            // The oracle table goes in first so the workload's `setup`
            // (which ends with `finish_load`) still runs last, as every
            // loader expects.
            let c = Counters::create(db, "chaos_counters", workers, KEYS_PER_WORKER, 0);
            for worker in 0..workers {
                c.load(db.session(worker).as_mut(), worker);
            }
            counters = Some(c);
            w.setup(db, workers);
        });
    let counters = counters.expect("the loader ran");

    // Arm the injector for exactly the measured window, carrying over the
    // claim taken before the load. Sessions open under the armed plan.
    let installed = quiesced.install(plan.clone());

    let engine: &'static str = db.name();
    let slots: Vec<RefCell<ChaosWorker>> = (0..workers)
        .map(|worker| {
            RefCell::new(ChaosWorker {
                worker,
                session: Some(db.session(worker)),
                keys: counters.keys(worker),
                confirmed: vec![0; KEYS_PER_WORKER as usize],
                ambiguous: vec![0; KEYS_PER_WORKER as usize],
                stats: RetryStats::default(),
                out: ChaosOutcomes::default(),
                backoff: Backoff::new(cfg.policy, (cfg.seed ^ ((worker as u64) << 32)) | 1),
                retry_hist: Histogram::new(),
                backoff_hist: Histogram::new(),
                txn_no: 0,
                offline_until: None,
            })
        })
        .collect();
    let span_sinks: Vec<VecSink> = (0..workers).map(|_| VecSink::new()).collect();

    let cores: Vec<usize> = (0..workers).collect();
    let wl = RefCell::new(w);
    let measurement = {
        let db = &*db;
        let wl = &wl;
        let slots = &slots;
        let counters = &counters;
        let span_sinks = &span_sinks;
        let policy = cfg.policy;
        measure_workers(&sim, &cores, window, Pacing::Lockstep, |worker| {
            let sink = span_sinks[worker].clone();
            let mem = sim.mem(worker);
            move |_| {
                obs::install_with(|| {
                    let tracer = Tracer::new(mem.sim());
                    tracer.add_sink(Box::new(sink.clone()));
                    tracer
                });
                let slot = &mut *slots[worker].borrow_mut();

                // Core-offline window in force: the worker idles this slot.
                if let Some(until) = slot.offline_until {
                    if slot.txn_no < until {
                        slot.out.offline_txns += 1;
                        slot.txn_no += 1;
                        return;
                    }
                    mem.sim().set_core_offline(worker, false);
                    slot.offline_until = None;
                }
                if faults::fire("core/offline", worker) {
                    mem.sim().set_core_offline(worker, true);
                    slot.out.offline_events += 1;
                    slot.offline_until = Some(slot.txn_no + OFFLINE_TXNS);
                    slot.out.offline_txns += 1;
                    slot.txn_no += 1;
                    return;
                }
                if faults::fire("driver/poison", worker) {
                    faults::poison(worker);
                    slot.out.poisons += 1;
                }

                let mut outcome = run_one(slot, wl, counters, engine, &policy, &mem);
                if matches!(
                    &outcome,
                    TxnOutcome::GaveUp {
                        error: OltpError::SessionPoisoned,
                        ..
                    }
                ) {
                    // Recovery: close the wedged session, open a fresh one,
                    // heal, and run the txn again.
                    // The poison give-up was session loss, not txn loss —
                    // take it back out of the gave_up count.
                    slot.stats.gave_up -= 1;
                    slot.session = None;
                    slot.session = Some(db.session(worker));
                    faults::heal(worker);
                    slot.out.reopens += 1;
                    outcome = run_one(slot, wl, counters, engine, &policy, &mem);
                }
                slot.retry_hist.record(u64::from(outcome.attempts()));
                slot.txn_no += 1;
            }
        })
    };

    // Digests first: they certify the measured window, not the
    // verification reads below.
    let digests: Vec<u64> = (0..workers).map(|c| core_digest(&sim, c)).collect();
    let faults_fired = installed.fired_count();
    let fired = installed.fired();
    drop(installed); // disarm before verification

    // Merge the per-worker span streams (by simulated timestamp) and
    // export them through the standard obs sinks.
    let merged = obs::merge_span_streams(span_sinks.iter().map(|s| s.take()).collect());

    // Verification: read the oracle table through fresh sessions with the
    // injector disarmed. Any worker cores left offline come back first.
    let mut lost = 0u64;
    let mut phantom = 0u64;
    let mut outcomes = ChaosOutcomes::default();
    let mut retry_hist = Histogram::new();
    let mut backoff_hist = Histogram::new();
    let mut table_fnv = Fnv::default();
    for slot in &slots {
        let mut slot = slot.borrow_mut();
        sim.set_core_offline(slot.worker, false);
        slot.session = None; // close before re-opening
        let mut s = db.session(slot.worker);
        for ki in 0..KEYS_PER_WORKER as usize {
            let key = slot.keys[ki];
            s.begin();
            let row = s.read(counters.table, key).expect("oracle read");
            s.commit().expect("oracle read commit");
            let Some(row) = row else {
                panic!("oracle key {key} missing after the run")
            };
            let actual = Counters::hits(&row);
            let lo = slot.confirmed[ki];
            let hi = lo + slot.ambiguous[ki];
            lost += lo.saturating_sub(actual);
            phantom += actual.saturating_sub(hi);
            table_fnv.word(key);
            table_fnv.word(actual);
        }
        outcomes.retry.merge(&slot.stats);
        outcomes.driver_conflicts += slot.out.driver_conflicts;
        outcomes.driver_aborts += slot.out.driver_aborts;
        outcomes.poisons += slot.out.poisons;
        outcomes.reopens += slot.out.reopens;
        outcomes.offline_events += slot.out.offline_events;
        outcomes.offline_txns += slot.out.offline_txns;
        outcomes.ambiguous_commits += slot.out.ambiguous_commits;
        retry_hist.merge(&slot.retry_hist);
        backoff_hist.merge(&slot.backoff_hist);
    }

    let mut report = ChaosReport {
        outcomes,
        retry_hist,
        backoff_hist,
        digests,
        table_digest: table_fnv.0,
        lost_updates: lost,
        phantom_updates: phantom,
        faults_fired,
        measurement,
        spans: merged,
        manifest: Json::Null,
    };
    report.manifest = manifest_json(cfg, &plan, window, &fired, &report);
    report
}

/// One logical transaction under the retry policy: even slots run the
/// verified increment, odd slots run the workload. Backoff pauses retire
/// instructions on the worker's core so recovery cost is observable.
fn run_one(
    slot: &mut ChaosWorker,
    wl: &RefCell<Box<dyn Workload>>,
    counters: &Counters,
    engine: &'static str,
    policy: &RetryPolicy,
    mem: &uarch_sim::Mem,
) -> TxnOutcome {
    let worker = slot.worker;
    let is_increment = slot.txn_no.is_multiple_of(2);
    // Split the borrows: retry_txn's two closures each need slot state.
    let ChaosWorker {
        session,
        stats,
        backoff,
        backoff_hist,
        out,
        keys,
        confirmed,
        ambiguous,
        txn_no,
        ..
    } = slot;
    let txn_no = *txn_no;
    let mut attempt = |_k: u32| -> OltpResult<()> {
        let _t = obs::span(engine, Phase::Txn, worker);
        if faults::poisoned(worker) {
            return Err(OltpError::SessionPoisoned);
        }
        if faults::fire("driver/conflict", worker) {
            out.driver_conflicts += 1;
            return Err(OltpError::Conflict {
                table: counters.table,
                key: 0,
            });
        }
        if faults::fire("driver/abort", worker) {
            out.driver_aborts += 1;
            return Err(OltpError::Aborted("injected driver abort"));
        }
        let s = session.as_mut().expect("session open").as_mut();
        if is_increment {
            let ki = (txn_no / 2 % KEYS_PER_WORKER) as usize;
            let key = keys[ki];
            s.begin();
            match counters.bump(s, key) {
                Ok(found) => {
                    debug_assert!(found, "oracle key {key} vanished");
                    match s.commit() {
                        Ok(()) => {
                            confirmed[ki] += 1;
                            Ok(())
                        }
                        Err(e) => {
                            s.abort();
                            ambiguous[ki] += 1;
                            out.ambiguous_commits += 1;
                            Err(e)
                        }
                    }
                }
                Err(e) => {
                    s.abort();
                    Err(e)
                }
            }
        } else {
            let r = wl.borrow_mut().exec(s, worker);
            if r.is_err() {
                // The workload propagates mid-txn errors without cleanup.
                s.abort();
            }
            r
        }
    };
    retry_txn(policy, backoff, stats, &mut attempt, |units| {
        backoff_hist.record(units);
        mem.exec(units);
    })
}

fn manifest_json(
    cfg: &ChaosCfg,
    plan: &FaultPlan,
    window: WindowSpec,
    fired: &[faults::Fired],
    report: &ChaosReport,
) -> Json {
    let (outcomes, m) = (&report.outcomes, &report.measurement);
    let r = &outcomes.retry;
    let mut site_counts: Vec<(&'static str, u64)> = Vec::new();
    for f in fired {
        match site_counts.iter_mut().find(|(s, _)| *s == f.site) {
            Some((_, c)) => *c += 1,
            None => site_counts.push((f.site, 1)),
        }
    }
    Json::obj(vec![
        ("kind", Json::str("chaos-manifest")),
        ("system", Json::str(cfg.system.label())),
        ("system_cli", Json::str(system_cli(cfg.system))),
        ("cc", Json::str(cfg.cc.label())),
        ("workload", Json::str(&cfg.workload_name)),
        ("workers", Json::u64(cfg.workers as u64)),
        ("sockets", Json::u64(cfg.sockets.max(1) as u64)),
        (
            "window",
            Json::obj(vec![
                ("warmup", Json::u64(window.warmup)),
                ("measured", Json::u64(window.measured)),
                ("reps", Json::u64(u64::from(window.reps))),
            ]),
        ),
        ("plan", plan.to_json()),
        (
            "outcomes",
            Json::obj(vec![
                ("commits", Json::u64(r.commits)),
                ("retries_total", Json::u64(r.retries())),
                ("gave_up", Json::u64(r.gave_up)),
                ("conflict_retries", Json::u64(r.conflict_retries)),
                ("abort_retries", Json::u64(r.abort_retries)),
                ("latch_timeouts", Json::u64(r.latch_timeouts)),
                ("validation_aborts", Json::u64(r.validation_aborts)),
                ("deadlock_victims", Json::u64(r.deadlock_victims)),
                ("log_failures", Json::u64(r.log_failures)),
                ("backoff_units", Json::u64(r.backoff_units)),
                ("driver_conflicts", Json::u64(outcomes.driver_conflicts)),
                ("driver_aborts", Json::u64(outcomes.driver_aborts)),
                ("poisons", Json::u64(outcomes.poisons)),
                ("reopens", Json::u64(outcomes.reopens)),
                ("offline_events", Json::u64(outcomes.offline_events)),
                ("offline_txns", Json::u64(outcomes.offline_txns)),
                ("ambiguous_commits", Json::u64(outcomes.ambiguous_commits)),
            ]),
        ),
        ("retry_hist", report.retry_hist.to_json()),
        ("backoff_hist", report.backoff_hist.to_json()),
        (
            "fired_by_site",
            Json::Obj(
                site_counts
                    .into_iter()
                    .map(|(s, c)| (s.to_string(), Json::u64(c)))
                    .collect(),
            ),
        ),
        ("faults_fired", Json::u64(report.faults_fired)),
        ("spans", Json::u64(report.spans.len() as u64)),
        ("lost_updates", Json::u64(report.lost_updates)),
        ("phantom_updates", Json::u64(report.phantom_updates)),
        (
            "digests",
            Json::Arr(
                report
                    .digests
                    .iter()
                    .map(|d| Json::str(&format!("{d:#018x}")))
                    .collect(),
            ),
        ),
        (
            "table_digest",
            Json::str(&format!("{:#018x}", report.table_digest)),
        ),
        ("tps", Json::Num(m.tps)),
        ("txns", Json::u64(m.txns)),
    ])
}

/// Human-readable summary of one run.
pub fn render(report: &ChaosReport, cfg: &ChaosCfg) -> String {
    use std::fmt::Write as _;
    let r = &report.outcomes.retry;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {} / {} / {} worker(s), seed {}, rate {}",
        cfg.system.label(),
        cfg.workload_name,
        cfg.workers,
        cfg.seed,
        cfg.fault_rate
    );
    let _ = writeln!(
        out,
        "  txns {}  commits {}  retries {} (conflict {}, abort {})  gave_up {}",
        report.measurement.txns,
        r.commits,
        r.retries(),
        r.conflict_retries,
        r.abort_retries,
        r.gave_up
    );
    let _ = writeln!(
        out,
        "  latch_timeouts {}  log_failures {}  backoff_units {}",
        r.latch_timeouts, r.log_failures, r.backoff_units
    );
    let _ = writeln!(
        out,
        "  poisons {}  reopens {}  offline {} ({} txn slots)  ambiguous commits {}",
        report.outcomes.poisons,
        report.outcomes.reopens,
        report.outcomes.offline_events,
        report.outcomes.offline_txns,
        report.outcomes.ambiguous_commits
    );
    let _ = writeln!(
        out,
        "  faults fired {}  attempts p50/p95 {}/{}",
        report.faults_fired,
        report.retry_hist.quantile(0.5),
        report.retry_hist.quantile(0.95)
    );
    for (core, d) in report.digests.iter().enumerate() {
        let _ = writeln!(out, "  core {core} digest {d:#018x}");
    }
    let _ = writeln!(out, "  table digest {:#018x}", report.table_digest);
    let _ = writeln!(
        out,
        "  lost updates {}  phantom updates {}",
        report.lost_updates, report.phantom_updates
    );
    out
}

/// Paths of the files one chaos run leaves behind.
pub struct ChaosArtifacts {
    /// The replayable JSON manifest.
    pub manifest: std::path::PathBuf,
    /// Per-span JSONL stream (same format as `bench trace`).
    pub jsonl: std::path::PathBuf,
}

/// Write the manifest plus the merged span stream under `dir`.
pub fn write_artifacts(report: &ChaosReport, cfg: &ChaosCfg, dir: &Path) -> ChaosArtifacts {
    fs::create_dir_all(dir).expect("create results dir");
    let base = format!(
        "chaos_{}_{}",
        slug(cfg.system.label()),
        slug(&cfg.workload_name)
    );
    let manifest = dir.join(format!("{base}.json"));
    fs::write(&manifest, report.manifest.render()).expect("write chaos manifest");
    let jsonl = dir.join(format!("{base}.jsonl"));
    export_spans(&report.spans, &jsonl);
    ChaosArtifacts { manifest, jsonl }
}

/// Write `records` as JSONL at `path` through the standard obs sink (one
/// span per line, same schema as `bench trace`).
pub fn export_spans(records: &[obs::SpanRecord], path: &Path) {
    use obs::sink::TraceSink;
    let f = fs::File::create(path).expect("create chaos span file");
    let mut sink = JsonlSink::new(Box::new(BufWriter::new(f)));
    for rec in records {
        sink.record(rec);
    }
    sink.finish();
}
