//! `durable_recover`: `harness::recover::run` — a read-write micro-benchmark
//! on two lockstep workers with epoch-8 group commit on the simulated NVMe
//! log device, a fuzzy checkpoint from a quarter of the way in, a kill in
//! the last tenth, two recoveries and a reference replay. The only workload
//! where the retaining WAL, checkpoints, recovery and the log device
//! dominate.
//!
//! As with `serve_10k`, one sample is one whole public call. A traced run
//! additionally builds its own durable engine, drives it with the matched
//! direct driver, and feeds its log streams to `storage::recovery` and a
//! `Checkpointer`, timing each from outside.

use std::time::Instant;

use imoltp::analysis::WindowSpec;
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::db::{Column, DataType, Schema, TableDef, Value};
use imoltp::harness::recover::{self, ApplyDb, RecoverCfg, RecoverReport};
use imoltp::harness::WorkloadCfg;
use imoltp::obs::json::Json;
use imoltp::sim::{MachineConfig, Sim};
use imoltp::store::checkpoint::Checkpointer;
use imoltp::store::recovery;
use imoltp::store::wal::LogRecord;
use imoltp::systems::{DurabilityCfg, SystemBuilder, SystemKind};

use crate::direct::{self, Direct};
use crate::layers;
use crate::rig::{self, EngineRow, Outcome, Scale};
use crate::spans::{Op, SpanLog};
use crate::stats::{self, Fnv};
use crate::{catalog, Args};

const WORKERS: usize = 2;
const EPOCH: u32 = 8;
/// Transaction slots per worker. The call's fixed cost — a logged load of
/// 160 k rows and three replays of it — is about four fifths of its
/// 0.5-1.1 s.
const WARMUP_SLOTS: u64 = 200;
const MEASURED_SLOTS: u64 = 1_800;
const CALLS: usize = 4;
const SETUPS: usize = 3;
/// Rows of the benchmark's own checkpoint table.
const CKPT_ROWS: u64 = 20_000;
/// Rows per `Checkpointer::step`, one read-only transaction each.
const CKPT_CHUNK: usize = 1_000;

struct Plan {
    seed: u64,
    window: WindowSpec,
    kill_at: u64,
    ckpt_start: u64,
}

impl Plan {
    fn new(args: &Args, scale: Scale) -> Plan {
        let window = WindowSpec {
            warmup: scale.of(WARMUP_SLOTS),
            measured: scale.of(MEASURED_SLOTS),
            reps: 1,
        };
        let slots = window.warmup + window.measured;
        // `WorkloadCfg` builds the micro-benchmark with its default key
        // seed, so the seed's input is where in the last tenth the kill lands.
        let jitter = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        Plan {
            seed: args.seed,
            window,
            kill_at: slots * 9 / 10 + jitter % (slots / 20).max(1),
            ckpt_start: slots / 4,
        }
    }

    fn call(&self, kind: SystemKind) -> (RecoverReport, f64) {
        let mut cfg = RecoverCfg::new(
            kind,
            WorkloadCfg::Micro {
                size: DbSize::Mb10,
                rows_per_txn: 1,
                read_only: false,
                strings: false,
            },
            "micro-rw",
        );
        cfg.seed = self.seed;
        cfg.kill_at = Some(self.kill_at);
        cfg.ckpt_start = Some(self.ckpt_start);
        cfg.epoch = EPOCH;
        cfg.workers = WORKERS;
        cfg.window = Some(self.window);
        let t = Instant::now();
        let report = recover::run(&cfg);
        (report, t.elapsed().as_secs_f64())
    }
}

struct Engine {
    name: &'static str,
    kind: SystemKind,
    setup: rig::SetupTimes,
    calls: Vec<(RecoverReport, f64)>,
}

fn digest<'a>(reports: impl Iterator<Item = &'a RecoverReport>) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        h.counts(&r.measurement.counts);
        h.word(r.committed);
        for (table, d) in &r.digests {
            h.word(u64::from(*table));
            h.word(*d);
        }
    }
    h.0
}

pub fn run(args: &Args) -> Outcome {
    let scale = Scale::new(args.seconds, args.smoke);
    let plan = Plan::new(args, scale);
    let mut engines: Vec<Engine> = rig::kinds(false)
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Engine {
            name: catalog::ENGINES[i],
            kind,
            // The load the call performs, timed outside it (the call's own
            // copy additionally logs every row).
            setup: rig::set_up(kind, WORKERS, SETUPS, || {
                MicroBench::new(DbSize::Mb10).read_write().seed(plan.seed)
            })
            .setup,
            calls: Vec::new(),
        })
        .collect();

    let started = Instant::now();
    let mut log = SpanLog::new(started, 1);
    let calls = if args.trace { 1 } else { CALLS };
    for _ in 0..calls {
        for e in &mut engines {
            log.open(Op::Call);
            e.calls.push(plan.call(e.kind));
            log.close();
            log.next_txn();
        }
    }

    let mut out = Outcome {
        sim_digest_head: digest(engines.iter().map(|e| &e.calls[0].0)),
        sim_digest: digest(engines.iter().flat_map(|e| e.calls.iter().map(|c| &c.0))),
        ..Outcome::default()
    };

    // Slots run before the kill, both workers: the work one call commits.
    let txns = plan.kill_at * WORKERS as u64;
    // `Measurement::tps` divides the whole measured window's slots by the
    // simulated time, but a killed run idles the slots after the kill.
    let ran = (plan.kill_at - plan.window.warmup) as f64 / plan.window.measured as f64;
    let rows: Vec<EngineRow> = engines
        .iter()
        .map(|e| {
            let samples: Vec<f64> = e.calls.iter().map(|(_, s)| txns as f64 / s).collect();
            EngineRow {
                name: e.name,
                // Every call runs the same inputs, so the median call is typical.
                rate: stats::median(&samples),
                txns: txns * e.calls.len() as u64,
                samples,
                elapsed_s: e.calls.iter().map(|(_, s)| s).sum(),
                setup: e.setup,
                sim_tps: e.calls[0].0.measurement.tps * ran,
                sim_ipc: e.calls[0].0.measurement.ipc,
            }
        })
        .collect();
    out.end_to_end(&rows);

    let reports = || engines.iter().flat_map(|e| e.calls.iter().map(|c| &c.0));
    out.attempted = txns * reports().count() as u64;
    out.failed = reports()
        .map(|r| r.lost_updates + r.phantom_updates + r.aborted_effects)
        .sum();
    out.check(
        "RecoverReport::consistent()",
        reports().all(RecoverReport::consistent),
        format!(
            "{} lost, phantom or aborted-effect updates; digests match the reference replay and a second recovery",
            out.failed
        ),
    );
    out.check(
        "the kill fired",
        reports().all(|r| r.crashed),
        format!(
            "kill at slot {} of {}",
            plan.kill_at,
            plan.window.warmup + plan.window.measured
        ),
    );

    if args.trace {
        traced_layers(&engines, &rows, &plan, scale, started, log, &mut out);
        layers::independent(scale, &mut out);
    }
    out
}

/// What the benchmark's own durable engine yields for one engine kind.
struct Own {
    direct: Direct,
    /// Bytes appended and group flushes during the bare window.
    log_bytes: u64,
    flushes: u64,
    records: u64,
    recover_s: f64,
    replay_s: f64,
    ckpt_rows: u64,
    ckpt_s: f64,
}

fn own_engine(kind: SystemKind, plan: &Plan, scale: Scale, log: &mut SpanLog) -> Own {
    let durability = DurabilityCfg {
        epoch: EPOCH,
        ..DurabilityCfg::default()
    };
    let sim = Sim::new(MachineConfig::ivy_bridge(WORKERS));
    let mut db = SystemBuilder::new(kind)
        .cores(WORKERS)
        .partitions(WORKERS)
        .build_durable(&sim);
    db.enable_durability(&durability);
    let ckpt_table = db.create_table(TableDef::new(
        "bench_ckpt",
        Schema::new(vec![
            Column::new("key", DataType::Long),
            Column::new("value", DataType::Long),
        ]),
        scale.of(CKPT_ROWS),
    ));
    // Inserted and captured through core 0's session, so partitioned
    // engines keep them in one partition.
    let ckpt_keys: Vec<u64> = (0..scale.of(CKPT_ROWS)).map(|k| k * 64).collect();
    let mut wl = MicroBench::new(DbSize::Mb10).read_write().seed(plan.seed);
    sim.offline(|| {
        let mut s = db.session(0);
        for &key in &ckpt_keys {
            s.begin();
            s.insert(ckpt_table, key, &[Value::Long(key as i64), Value::Long(0)])
                .expect("checkpoint row insert");
            s.commit().expect("checkpoint row commit");
        }
        drop(s);
        wl.setup(db.as_mut(), WORKERS);
    });
    sim.warm_data();
    // As `recover::run` does: make the load durable, then re-arm so the
    // device queue the offline load built up does not sit on every commit.
    db.flush_all();
    db.enable_durability(&durability);
    let _ = db.take_commit_latencies();

    // Bytes and flushes of the bare window only: the direct driver runs it
    // first, so snapshot around a driver of its own.
    let per_worker = plan.kill_at;
    let cores: Vec<usize> = (0..WORKERS).collect();
    let totals = |db: &dyn imoltp::systems::DurableDb| {
        db.log_status().iter().fold((0, 0), |acc, s| {
            (acc.0 + s.stats.bytes_appended, acc.1 + s.stats.flushes)
        })
    };
    let before = totals(db.as_ref());
    let direct = direct::drive(&sim, db.as_ref(), wl, &cores, per_worker, log);
    let after = totals(db.as_ref());

    // Everything flushed is durable: recover and replay the whole log.
    db.flush_all();
    let streams: Vec<Vec<LogRecord>> = db.log_streams();
    let records: u64 = streams.iter().map(|s| s.len() as u64).sum();
    log.open(Op::Recover);
    let mut target = ApplyDb::new();
    for recs in &streams {
        recovery::recover(None, recs, &mut target).expect("recovery of a clean log");
    }
    let recover_s = log.close() as f64 / 1e9;
    log.open(Op::Replay);
    let mut reference = ApplyDb::new();
    for recs in &streams {
        recovery::replay(recs, &mut reference).expect("reference replay of a clean log");
    }
    let replay_s = log.close() as f64 / 1e9;
    assert_eq!(
        target.digests(),
        reference.digests(),
        "recovery and reference replay disagree"
    );

    let mut cp = Checkpointer::new(ckpt_table, ckpt_keys);
    let mut s = db.session(0);
    let mut ckpt_rows = 0u64;
    let t = Instant::now();
    while !cp.done() {
        log.open(Op::Checkpoint);
        ckpt_rows += cp.step(s.as_mut(), CKPT_CHUNK).expect("checkpoint step") as u64;
        log.close();
    }
    let ckpt_s = t.elapsed().as_secs_f64();
    log.next_txn();

    Own {
        direct,
        // Four windows ran the same transactions; a quarter is one window's.
        log_bytes: (after.0 - before.0) / 4,
        flushes: (after.1 - before.1) / 4,
        records,
        recover_s,
        replay_s,
        ckpt_rows,
        ckpt_s,
    }
}

fn traced_layers(
    engines: &[Engine],
    rows: &[EngineRow],
    plan: &Plan,
    scale: Scale,
    started: Instant,
    mut log: SpanLog,
    out: &mut Outcome,
) {
    out.engine_layers(rows);
    let reports: Vec<&RecoverReport> = engines.iter().map(|e| &e.calls[0].0).collect();
    let cfg = MachineConfig::ivy_bridge(WORKERS);
    out.modelled_layers(
        &reports
            .iter()
            .map(|r| (&r.measurement.counts, r.measurement.txns))
            .collect::<Vec<_>>(),
        &cfg,
    );
    let mean = |f: &dyn Fn(&RecoverReport) -> f64| {
        stats::mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    out.layer(
        "storage.commit_p50_cycles",
        mean(&|r| r.latency_quantile(0.5)),
    );
    out.layer(
        "storage.commit_p99_cycles",
        mean(&|r| r.latency_quantile(0.99)),
    );
    out.layer(
        "storage.redo_records",
        mean(&|r| r.recovery.redo_applied as f64),
    );

    let owns: Vec<Own> = engines
        .iter()
        .map(|e| own_engine(e.kind, plan, scale, &mut log))
        .collect();
    for (e, o) in engines.iter().zip(&owns) {
        out.layer(
            &catalog::per_engine_name(e.name, "sim_host_share"),
            1.0 - o.direct.offline.secs / o.direct.plain.secs,
        );
    }
    let sum = |f: &dyn Fn(&Own) -> f64| owns.iter().map(f).sum::<f64>();
    let txns = sum(&|o| o.direct.txns as f64);
    out.layer(
        "storage.log_bytes_per_txn",
        sum(&|o| o.log_bytes as f64) / txns,
    );
    out.layer(
        "storage.flushes_per_ktxn",
        sum(&|o| o.flushes as f64) * 1000.0 / txns,
    );
    out.layer(
        "storage.recover_records_per_s",
        sum(&|o| o.records as f64) / sum(&|o| o.recover_s),
    );
    out.layer(
        "storage.replay_records_per_s",
        sum(&|o| o.records as f64) / sum(&|o| o.replay_s),
    );
    out.layer(
        "storage.checkpoint_rows_per_s",
        sum(&|o| o.ckpt_rows as f64) / sum(&|o| o.ckpt_s),
    );
    let errors = sum(&|o| o.direct.errors as f64);
    out.layer("engines.errors_per_ktxn", errors * 1000.0 / (txns * 4.0));
    out.phase_layers(
        &owns
            .iter()
            .map(|o| &o.direct.obs.measurement)
            .collect::<Vec<_>>(),
    );
    let directs: Vec<Direct> = owns.into_iter().map(|o| o.direct).collect();
    direct::layers(&directs, out);
    // The benchmark's own durable engines are built and loaded between
    // spans, so here the residual is mostly that set-up.
    out.layer(
        "bench.untraced_residual_pct",
        rig::residual_pct(started, &log),
    );

    out.trace = Some(Json::obj(vec![("aggregate", log.to_json())]));
}
