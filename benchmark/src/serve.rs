//! `serve_10k`: ten thousand simulated connections multiplexed onto a pool
//! of two engine sessions by `service::ServiceBuilder` — the only workload
//! where the wire codec, admission control, the session pool and the
//! dispatcher do work, on two lockstep cores with a cache-resident table.
//!
//! `Service::run` is the only public entry point and builds its own
//! simulator and engine inside the call, so one sample is one whole call,
//! its internal set-up included. The benchmark also performs that same
//! set-up itself, outside the timed section: that is `setup_s`, and in a
//! traced run it is the engine the matched direct driver runs on.

use std::time::Instant;

use imoltp::analysis::WindowSpec;
use imoltp::bench::{DbSize, MicroBench, Workload};
use imoltp::obs::json::Json;
use imoltp::systems::SystemKind;
use service::{AdmissionPolicy, ServeReport, ServiceBuilder};

use crate::direct::{self, Direct};
use crate::layers;
use crate::rig::{self, EngineRow, Loaded, Outcome, Scale};
use crate::spans::{Op, SpanLog};
use crate::stats::{self, Fnv};
use crate::{catalog, Args};

const CONNECTIONS: u64 = 10_000;
/// Pool slots = simulated cores = worker threads; never more than the
/// reference box's two hardware threads.
const POOL: usize = 2;
const QUEUE_CAP: usize = 64;
const BATCH: usize = 4;
/// Dispatch turns per core: 1 500 turns polling at least eight connections
/// each reach every one of a core's 5 000 connections.
const WARMUP_TURNS: u64 = 300;
const MEASURED_TURNS: u64 = 1_200;
/// Whole calls per engine in an untraced run, engines interleaved call by
/// call; a call takes 0.16-1.13 s, of which the internal load is 0.1-0.3 s.
const CALLS: usize = 5;
const SETUPS: usize = 3;

struct Plan {
    seed: u64,
    connections: usize,
    window: WindowSpec,
}

/// Read-only micro-benchmark on a table that fits the modelled LLC.
fn workload(seed: u64) -> MicroBench {
    MicroBench::new(DbSize::Mb10).seed(seed)
}

impl Plan {
    fn new(args: &Args, scale: Scale) -> Plan {
        Plan {
            seed: args.seed,
            connections: scale.of(CONNECTIONS) as usize,
            window: WindowSpec {
                warmup: scale.of(WARMUP_TURNS),
                measured: scale.of(MEASURED_TURNS),
                reps: 1,
            },
        }
    }

    fn call(&self, kind: SystemKind) -> (ServeReport, f64) {
        let seed = self.seed;
        let service = ServiceBuilder::new(
            kind,
            "micro",
            Box::new(move || Box::new(workload(seed)) as Box<dyn Workload>),
        )
        .connections(self.connections)
        .pool(POOL)
        .admission(AdmissionPolicy {
            queue_cap: QUEUE_CAP,
        })
        .batch(BATCH)
        .seed(seed)
        .window(self.window)
        .compare_direct(false)
        .build();
        let t = Instant::now();
        let report = service.run();
        (report, t.elapsed().as_secs_f64())
    }
}

struct Engine {
    name: &'static str,
    kind: SystemKind,
    loaded: Option<Loaded<MicroBench>>,
    setup: rig::SetupTimes,
    calls: Vec<(ServeReport, f64)>,
}

fn digest<'a>(reports: impl Iterator<Item = &'a ServeReport>) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        h.word(r.digest);
        h.word(r.committed);
        h.counts(&r.measurement.counts);
    }
    h.0
}

pub fn run(args: &Args) -> Outcome {
    let scale = Scale::new(args.seconds, args.smoke);
    let plan = Plan::new(args, scale);
    let mut engines: Vec<Engine> = rig::kinds(false)
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let loaded = rig::set_up(kind, POOL, SETUPS, || workload(plan.seed));
            Engine {
                name: catalog::ENGINES[i],
                kind,
                setup: loaded.setup,
                // Only a traced run drives this instance; free it otherwise.
                loaded: args.trace.then_some(loaded),
                calls: Vec::new(),
            }
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

    let rows: Vec<EngineRow> = engines
        .iter()
        .map(|e| {
            let samples: Vec<f64> = e
                .calls
                .iter()
                .map(|(r, s)| r.committed as f64 / s)
                .collect();
            EngineRow {
                name: e.name,
                // Every call runs the same inputs, so the median call is typical.
                rate: stats::median(&samples),
                txns: e.calls.iter().map(|(r, _)| r.committed).sum(),
                samples,
                elapsed_s: e.calls.iter().map(|(_, s)| s).sum(),
                setup: e.setup,
                sim_tps: e.calls[0].0.tps_served,
                sim_ipc: e.calls[0].0.measurement.ipc,
            }
        })
        .collect();
    out.end_to_end(&rows);

    let reports = || engines.iter().flat_map(|e| e.calls.iter().map(|c| &c.0));
    let unserved: u64 = reports()
        .map(|r| r.connections as u64 - r.conns_served)
        .sum();
    let errors: u64 = reports().map(|r| r.exec_errors).sum();
    out.attempted = reports().map(|r| r.executed + r.connections as u64).sum();
    out.failed = errors + unserved;
    out.check(
        "every executed transaction committed",
        errors == 0,
        format!("{errors} engine errors"),
    );
    out.check(
        "every connection was served",
        unserved == 0,
        format!(
            "{unserved} never served; {} of {} committed at least once",
            reports().map(|r| r.conns_committed).sum::<u64>(),
            reports().map(|r| r.connections as u64).sum::<u64>()
        ),
    );
    let unattributed: u64 = reports().map(|r| r.unattributed_instructions).sum();
    out.check(
        "ServeReport::unattributed_instructions == 0",
        unattributed == 0,
        format!("{unattributed} instructions outside every service-path span"),
    );

    if args.trace {
        traced_layers(&mut engines, &rows, &plan, started, log, &mut out);
        layers::independent(scale, &mut out);
    }
    out
}

fn traced_layers(
    engines: &mut [Engine],
    rows: &[EngineRow],
    plan: &Plan,
    started: Instant,
    mut log: SpanLog,
    out: &mut Outcome,
) {
    out.engine_layers(rows);
    let served: Vec<&ServeReport> = engines.iter().map(|e| &e.calls[0].0).collect();
    let measurements: Vec<_> = served.iter().map(|r| &r.measurement).collect();
    let cfg = imoltp::sim::MachineConfig::ivy_bridge(POOL);
    // The service's measurement counts dispatch turns; a turn runs a batch.
    out.modelled_layers(
        &measurements
            .iter()
            .map(|m| (&m.counts, m.txns * BATCH as u64))
            .collect::<Vec<_>>(),
        &cfg,
    );
    out.phase_layers(&measurements);

    // service: what the report says about the path.
    let mean = |f: &dyn Fn(&ServeReport) -> f64| {
        stats::mean(&served.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let stage = |phase: &'static str| {
        move |r: &ServeReport| {
            r.stage_rows()
                .iter()
                .filter(|s| s.engine == "svc" && s.phase == phase)
                .map(|s| s.share)
                .sum::<f64>()
        }
    };
    out.layer(
        "service.frontend_cycle_share",
        mean(&|r| r.frontend_share()),
    );
    for phase in ["parse", "dispatch", "respond"] {
        out.layer(&format!("service.{phase}_cycle_share"), mean(&stage(phase)));
    }
    out.layer(
        "service.shed_share",
        mean(&|r| r.shed as f64 / (r.admitted + r.shed).max(1) as f64),
    );
    out.layer(
        "service.queue_high_water",
        served.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
    );
    out.layer(
        "service.starved_turns",
        served.iter().map(|r| r.starved_turns).sum::<u64>() as f64,
    );
    out.layer(
        "service.pool_busy",
        served.iter().map(|r| r.pool.busy).sum::<u64>() as f64,
    );
    out.layer(
        "service.pool_reopens",
        served.iter().map(|r| r.pool.reopens).sum::<u64>() as f64,
    );
    let errors: u64 = served.iter().map(|r| r.exec_errors).sum();
    let executed: u64 = served.iter().map(|r| r.executed).sum();
    out.layer(
        "engines.errors_per_ktxn",
        errors as f64 * 1000.0 / executed as f64,
    );
    drop(served);

    // The matched direct driver: as many transactions per worker as the
    // service executed per core, on the engine the benchmark set up.
    let per_worker = (plan.window.warmup + plan.window.measured) * BATCH as u64;
    let cores: Vec<usize> = (0..POOL).collect();
    let directs: Vec<Direct> = engines
        .iter_mut()
        .map(|e| {
            let l = e.loaded.take().expect("traced run keeps its set-up");
            direct::drive(&l.sim, l.db.as_ref(), l.wl, &cores, per_worker, &mut log)
        })
        .collect();

    let us_per_txn = |secs: f64, txns: u64| secs * 1e6 / txns as f64;
    let mut service_us = Vec::new();
    let mut direct_us = Vec::new();
    let mut tps_ratio = Vec::new();
    for (e, d) in engines.iter().zip(&directs) {
        let (report, secs) = &e.calls[0];
        // The call loads its own copy of the database; the benchmark timed
        // the identical load, so what remains is the service path.
        service_us.push(us_per_txn(
            (secs - e.setup.total()).max(0.0),
            report.executed,
        ));
        direct_us.push(us_per_txn(d.plain.secs, d.txns));
        tps_ratio.push(report.tps_served / d.plain.measurement.tps);
        out.layer(
            &catalog::per_engine_name(e.name, "sim_host_share"),
            1.0 - d.offline.secs / d.plain.secs,
        );
    }
    out.layer("service.host_us_per_txn", stats::mean(&service_us));
    out.layer("service.direct_host_us_per_txn", stats::mean(&direct_us));
    out.layer(
        "service.host_overhead_pct",
        stats::pct_over(stats::mean(&service_us), stats::mean(&direct_us)),
    );
    out.layer("service.tps_ratio_vs_direct", stats::mean(&tps_ratio));
    direct::layers(&directs, out);

    out.layer(
        "bench.untraced_residual_pct",
        rig::residual_pct(started, &log),
    );
    out.trace = Some(Json::obj(vec![("aggregate", log.to_json())]));
}
