//! `bench` — ad-hoc benchmarking front-end.
//!
//! ```text
//! bench trace <system> <workload> [workers] [--flame [component]]
//!                                             # traced run + Perfetto/JSONL export
//!                                             # --flame adds a stall-weighted collapsed-stack
//!                                             # file (component: total|instr|data|l1i|...)
//! bench metrics [system] [workload] [--smoke] # metrics-registry run + Prometheus/JSON export
//! bench perf [--smoke] [--check <baseline>]   # simulator micro-benchmark -> results/perf.json
//! bench chaos <system> <workload> [--seed N] [--fault-rate R] [--workers W] [--sockets S]
//!             [--smoke] [--plan <manifest.json>] [--out <dir>]
//!                                             # fault-injection run + replayable manifest
//! bench recover <system> <workload> [--seed N] [--kill-at SLOT] [--ckpt-start SLOT]
//!             [--epoch E] [--workers W] [--smoke] [--plan <manifest.json>] [--out <dir>]
//!                                             # durable run + deterministic kill + crash recovery
//! bench recover --sweep [--smoke] [--out <path>]
//!                                             # engines x kill points x epochs -> CSV
//! bench cc-grid [--smoke] [--out <path>]      # CC protocol x contention sweep -> CSV
//! bench islands [--smoke] [--out <path>]      # NUMA placement x cross-socket mix grid -> CSV
//! bench serve [system] [workload] [--connections N] [--pool P] [--queue-cap Q]
//!             [--batch B] [--intake I] [--seed S] [--smoke] [--out <csv>]
//!                                             # wire-protocol service front end run
//! ```
//!
//! Systems: shore-mt, dbmsd, voltdb, hyper, dbmsm, dbmsm-interp,
//! dbmsm-btree. Workloads: micro, micro-rw, tpcb, tpcc, tpce.
//! Set `IMOLTP_SCALE=<f64>` to scale measurement windows (e.g. `0.2`).
//!
//! All subcommands share one flag parser: an unrecognized `--flag`
//! prints the usage text and exits 2 instead of being silently ignored.

use std::path::{Path, PathBuf};

use bench::args::{self, Parsed, Spec};
use bench::trace;

/// Parse the subcommand's arguments or die with usage.
fn parse_or_usage(cmd: &str, argv: &[String], specs: &[Spec]) -> Parsed {
    args::parse(&format!("bench {cmd}"), argv, specs).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage(2);
    })
}

/// Reject positionals beyond the first `max` (typos like a misspelled
/// flag without dashes would otherwise vanish silently).
fn limit_positionals(p: &Parsed, max: usize, cmd: &str) {
    if p.positionals.len() > max {
        eprintln!(
            "unexpected argument for `bench {cmd}`: {}",
            p.positionals[max]
        );
        usage(2);
    }
}

fn parse_system_or_die(s: &str) -> engines::SystemKind {
    trace::parse_system(s).unwrap_or_else(|| {
        eprintln!("unknown system: {s}");
        usage(2);
    })
}

fn parse_workload_or_die(s: &str) -> bench::WorkloadCfg {
    trace::parse_workload(s).unwrap_or_else(|| {
        eprintln!("unknown workload: {s}");
        usage(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rest = if args.len() > 2 { &args[2..] } else { &[] };
    match args.get(1).map(String::as_str) {
        Some("trace") => run_trace(rest),
        Some("metrics") => run_metrics(rest),
        Some("perf") => run_perf(rest),
        Some("chaos") => run_chaos(rest),
        Some("recover") => run_recover(rest),
        Some("cc-grid") => run_ccgrid(rest),
        Some("islands") => run_islands(rest),
        Some("serve") => run_serve(rest),
        Some("help") | None => usage(0),
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            usage(2);
        }
    }
}

fn run_trace(argv: &[String]) {
    let p = parse_or_usage("trace", argv, &[Spec::opt_value("--flame")]);
    limit_positionals(&p, 3, "trace");
    let (Some(sys_arg), Some(wl_arg)) = (p.pos(0), p.pos(1)) else {
        usage(2);
    };
    let system = parse_system_or_die(sys_arg);
    let workload = parse_workload_or_die(wl_arg);
    let workers: usize = match p.pos(2) {
        Some(n) => match n.parse() {
            // The simulated machine models at most 64 cores.
            Ok(w) if (1..=64).contains(&w) => w,
            _ => {
                eprintln!("bad worker count: {n} (expected 1..=64)");
                usage(2);
            }
        },
        None => 1,
    };
    let flame = p.has("--flame").then(|| match p.value("--flame") {
        Some(name) => obs::flame::StallComponent::parse(name).unwrap_or_else(|| {
            eprintln!("bad stall component: {name} (total|instr|data|l1i|l2i|llc-i|l1d|l2d|llc-d)");
            usage(2);
        }),
        None => obs::flame::StallComponent::Total,
    });
    let out_dir = repo_root().join("results");
    let art = trace::run_trace_flame(system, &workload, wl_arg, &out_dir, workers, flame);
    print!(
        "{}",
        trace::render(
            &art.measurement,
            &format!("{} / {} / {workers} worker(s)", system.label(), wl_arg)
        )
    );
    println!(
        "perfetto: {} (load in ui.perfetto.dev)",
        art.perfetto.display()
    );
    println!("jsonl:    {}", art.jsonl.display());
    if let (Some(folded), Some(total)) = (&art.folded, art.flame_total) {
        println!(
            "folded:   {} ({} stall cycles; feed to flamegraph.pl/inferno/speedscope)",
            folded.display(),
            total
        );
    }
}

fn run_metrics(argv: &[String]) {
    let p = parse_or_usage("metrics", argv, &[Spec::flag("--smoke")]);
    limit_positionals(&p, 2, "metrics");
    let system = match p.pos(0) {
        Some(s) => parse_system_or_die(s),
        None => engines::SystemKind::VoltDb,
    };
    let workload = match p.pos(1) {
        Some(w) => parse_workload_or_die(w),
        None => trace::parse_workload("micro").unwrap(),
    };
    let mut cfg = bench::metrics_report::MetricsCfg::new(system, workload);
    cfg.smoke = p.has("--smoke");
    if cfg.smoke {
        cfg.report_every = 64;
    }
    let r = bench::metrics_report::run(&cfg);
    for line in &r.periodic {
        println!("{line}");
    }
    let out_dir = repo_root().join("results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let prom = out_dir.join("metrics.prom");
    let json = out_dir.join("metrics.json");
    std::fs::write(&prom, &r.prometheus).expect("write metrics.prom");
    std::fs::write(&json, &r.json).expect("write metrics.json");
    println!(
        "txns {}  tps {:.0}  ipc {:.2}",
        r.measurement.txns, r.measurement.tps, r.measurement.ipc
    );
    println!("prometheus: {}", prom.display());
    println!("json:       {}", json.display());
    if let Err(e) = bench::metrics_report::smoke_check(&r, system.label()) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    println!("metrics smoke OK");
}

fn run_perf(argv: &[String]) {
    let p = parse_or_usage(
        "perf",
        argv,
        &[
            Spec::flag("--smoke"),
            Spec::value("--check"),
            Spec::value("--out"),
        ],
    );
    limit_positionals(&p, 0, "perf");
    let smoke = p.has("--smoke");
    let check = p.value("--check").map(PathBuf::from);
    let out = p
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("results").join("perf.json"));
    let report = bench::perf::run(smoke);
    print!("{}", report.render());
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, report.to_json()).expect("write perf.json");
    println!("wrote {}", out.display());
    if let Some(baseline) = check {
        // CI gate: fail on a >30% throughput regression vs the
        // checked-in baseline.
        let bad = bench::perf::regressions(&report, &baseline, 0.7);
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("perf regression: {b}");
            }
            std::process::exit(1);
        }
        println!("no perf regressions vs {}", baseline.display());
    }
}

fn run_ccgrid(argv: &[String]) {
    let p = parse_or_usage(
        "cc-grid",
        argv,
        &[Spec::flag("--smoke"), Spec::value("--out")],
    );
    limit_positionals(&p, 0, "cc-grid");
    let smoke = p.has("--smoke");
    // Without --out, smoke runs write beside the exemplar rather than
    // over it: the committed cc_grid.csv is the full grid.
    let default_name = if smoke {
        "cc_grid_smoke.csv"
    } else {
        "cc_grid.csv"
    };
    let out = p
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("results").join(default_name));
    let cfg = if smoke {
        bench::ccgrid::CcGridCfg::smoke()
    } else {
        bench::ccgrid::CcGridCfg::full()
    };
    let rows = bench::ccgrid::run(&cfg);
    print!("{}", bench::ccgrid::render(&rows));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, bench::ccgrid::to_csv(&rows)).expect("write cc_grid.csv");
    println!("wrote {}", out.display());
    if let Err(e) = bench::ccgrid::smoke_check(&rows) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    println!("cc-grid OK ({} cells)", rows.len());
}

/// `bench islands`: the multi-socket deployment grid (placement x
/// local/cross-socket mix x engine). Writes the CSV and exits nonzero if
/// the Hardware Islands ordering does not hold.
fn run_islands(argv: &[String]) {
    let p = parse_or_usage(
        "islands",
        argv,
        &[Spec::flag("--smoke"), Spec::value("--out")],
    );
    limit_positionals(&p, 0, "islands");
    let smoke = p.has("--smoke");
    let rows = bench::islands::islands_grid(smoke);
    print!("{}", bench::islands::render(&rows));
    // Without --out, smoke runs write beside the exemplar rather than
    // over it: the committed islands.csv is the full grid.
    let default_name = if smoke {
        "islands_smoke.csv"
    } else {
        "islands.csv"
    };
    let out = p
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("results").join(default_name));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, bench::islands::render_csv(&rows)).expect("write islands csv");
    println!("wrote {}", out.display());
    if let Err(e) = bench::islands::smoke_check(&rows) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    println!("islands OK ({} cells)", rows.len());
}

/// `bench serve`: drive the wire-protocol service front end and report
/// the service-path breakdown vs the direct driver. `--smoke` pins the
/// acceptance configuration (>= 10k connections on <= 8 sessions) and
/// exits nonzero if any gate fails.
fn run_serve(argv: &[String]) {
    let p = parse_or_usage(
        "serve",
        argv,
        &[
            Spec::value("--connections"),
            Spec::value("--pool"),
            Spec::value("--queue-cap"),
            Spec::value("--batch"),
            Spec::value("--intake"),
            Spec::value("--seed"),
            Spec::flag("--smoke"),
            Spec::value("--out"),
        ],
    );
    limit_positionals(&p, 2, "serve");
    let system = match p.pos(0) {
        Some(s) => parse_system_or_die(s),
        None => engines::SystemKind::VoltDb,
    };
    let wl_name = p.pos(1).unwrap_or("micro").to_string();
    let workload = parse_workload_or_die(&wl_name);

    let numeric = |name: &str, what: &str| {
        p.parsed::<usize>(name, what).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage(2);
        })
    };
    let mut cfg = bench::serve::ServeCfg::new(system, workload, &wl_name);
    cfg.smoke = p.has("--smoke");
    if let Some(n) = numeric("--connections", "connection count") {
        cfg.connections = n;
    }
    if let Some(n) = numeric("--pool", "pool size") {
        if !(1..=64).contains(&n) {
            eprintln!("bad pool size: {n} (expected 1..=64)");
            usage(2);
        }
        cfg.pool = n;
    }
    if let Some(n) = numeric("--queue-cap", "queue cap") {
        cfg.queue_cap = n.max(1);
    }
    if let Some(n) = numeric("--batch", "batch size") {
        cfg.batch = n.max(1);
    }
    if let Some(n) = numeric("--intake", "intake") {
        cfg.intake = n.max(1);
    }
    if let Some(seed) = p.parsed::<u64>("--seed", "seed").unwrap_or_else(|e| {
        eprintln!("{e}");
        usage(2);
    }) {
        cfg.seed = seed;
    }
    if cfg.smoke {
        // The acceptance gate is defined at exactly this scale; honor
        // explicit overrides only if they stay inside it.
        cfg.connections = cfg.connections.max(10_000);
        if cfg.pool > 8 {
            eprintln!(
                "--smoke requires a pool of <= 8 sessions (got {})",
                cfg.pool
            );
            usage(2);
        }
    }

    let report = bench::serve::run(&cfg);
    print!("{}", bench::serve::render(&report));
    let out = p
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("results").join("serve_breakdown.csv"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, bench::serve::to_csv(&report)).expect("write serve_breakdown.csv");
    println!("wrote {}", out.display());
    if cfg.smoke {
        if let Err(e) = bench::serve::smoke_check(&report) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
        println!("serve smoke OK");
    }
}

/// Read the manifest named by `--plan`, refusing one this binary cannot
/// replay faithfully: a plan recorded with the engine-internal fault sites
/// compiled in fires nothing at those sites in a default-features build,
/// so its digests could only ever mismatch.
fn load_plan(path: &str) -> obs::json::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read plan {path}: {e}");
        usage(2);
    });
    let plan = obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bad plan JSON in {path}: {e}");
        usage(2);
    });
    let needs_sites = matches!(
        plan.get("engine_sites_compiled"),
        Some(obs::json::Json::Bool(true))
    );
    if needs_sites && !cfg!(feature = "faults") {
        eprintln!("plan {path} was recorded with engine fault sites; rebuild with --features faults to replay it");
        std::process::exit(2);
    }
    plan
}

/// Where a run leaves its artefacts: `--out`, else `results/`. A `--plan`
/// replay has no default — it writes only when `--out` names a directory
/// other than the replayed manifest's own, so a replay that fails can
/// never overwrite the pin it failed against.
fn artifact_dir(p: &Parsed) -> Option<PathBuf> {
    let out = p.value("--out").map(PathBuf::from);
    let Some(plan) = p.value("--plan") else {
        return Some(out.unwrap_or_else(|| repo_root().join("results")));
    };
    let plan_dir = Path::new(plan)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    out.filter(|dir| match (dir.canonicalize(), plan_dir.canonicalize()) {
        (Ok(a), Ok(b)) => a != b,
        _ => true, // `dir` does not exist yet, so it is not the plan's
    })
}

/// Shown in place of an artefact path a replay did not write.
const NOT_WRITTEN: &str = "(not written: replay; pass --out <another dir> to keep a copy)";

/// `bench chaos`: one fault-injection run under the retry/backoff policy,
/// verified against the lost-update oracle; exits nonzero on any oracle
/// violation (or digest mismatch when replaying a manifest).
fn run_chaos(argv: &[String]) -> ! {
    let p = parse_or_usage(
        "chaos",
        argv,
        &[
            Spec::value("--seed"),
            Spec::value("--fault-rate"),
            Spec::value("--workers"),
            Spec::value("--sockets"),
            Spec::value("--cc"),
            Spec::value("--plan"),
            Spec::value("--out"),
            Spec::flag("--smoke"),
        ],
    );
    limit_positionals(&p, 2, "chaos");

    // A replayed manifest supplies every knob; explicit CLI args win.
    let replay = p.value("--plan").map(load_plan);
    let rstr = |key: &str| {
        replay
            .as_ref()
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_str())
            .map(String::from)
    };
    let rnum = |key: &str| {
        replay
            .as_ref()
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_f64())
    };

    let sys_arg = p
        .pos(0)
        .map(String::from)
        .or_else(|| rstr("system_cli").or_else(|| rstr("system")))
        .unwrap_or_else(|| usage(2));
    let wl_arg = p
        .pos(1)
        .map(String::from)
        .or_else(|| rstr("workload"))
        .unwrap_or_else(|| usage(2));
    let system = parse_system_or_die(&sys_arg);
    let workload = parse_workload_or_die(&wl_arg);

    let mut cfg = bench::chaos::ChaosCfg::new(system, workload, &wl_arg);
    if let Some(label) = rstr("cc") {
        cfg.cc = engines::CcPolicy::parse(&label).unwrap_or_else(|| {
            eprintln!("bad cc protocol in plan: {label}");
            usage(2);
        });
    }
    if let Some(m) = &replay {
        cfg.plan_override = Some(faults::FaultPlan::from_json(m).unwrap_or_else(|e| {
            eprintln!("bad fault plan: {e}");
            usage(2);
        }));
        cfg.seed = cfg.plan_override.as_ref().unwrap().seed;
        cfg.fault_rate = cfg.plan_override.as_ref().unwrap().rate;
        if let Some(w) = rnum("workers") {
            cfg.workers = w as usize;
        }
        // Tolerant parse: manifests recorded before the multi-socket
        // harness have no "sockets" field and replay on one socket.
        if let Some(s) = rnum("sockets") {
            cfg.sockets = (s as usize).max(1);
        }
        if let Some(win) = m.get("window") {
            let f = |k: &str| win.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            cfg.window = Some(microarch::WindowSpec {
                warmup: f("warmup"),
                measured: f("measured"),
                reps: (f("reps") as u32).max(1),
            });
        }
    }
    if let Some(seed) = p.parsed::<u64>("--seed", "seed").unwrap_or_else(|e| {
        eprintln!("{e}");
        usage(2);
    }) {
        cfg.seed = seed;
        cfg.plan_override = None; // explicit knobs rebuild the plan
    }
    if let Some(rate) = p.value("--fault-rate") {
        cfg.fault_rate = rate.parse().unwrap_or_else(|_| {
            eprintln!("bad fault rate: {rate}");
            usage(2);
        });
        if !(0.0..=1.0).contains(&cfg.fault_rate) {
            eprintln!("bad fault rate: {rate} (expected 0..=1)");
            usage(2);
        }
        cfg.plan_override = None;
    }
    if let Some(w) = p
        .parsed::<u64>("--workers", "worker count")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage(2);
        })
    {
        if !(1..=64).contains(&w) {
            eprintln!("bad worker count: {w} (expected 1..=64)");
            usage(2);
        }
        cfg.workers = w as usize;
    }
    if let Some(s) = p
        .parsed::<u64>("--sockets", "socket count")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage(2);
        })
    {
        if !(1..=8).contains(&s) {
            eprintln!("bad socket count: {s} (expected 1..=8)");
            usage(2);
        }
        cfg.sockets = s as usize;
    }
    if !cfg.workers.is_multiple_of(cfg.sockets) {
        eprintln!(
            "worker count ({}) must divide evenly across {} socket(s)",
            cfg.workers, cfg.sockets
        );
        usage(2);
    }
    if let Some(label) = p.value("--cc") {
        cfg.cc = engines::CcPolicy::parse(label).unwrap_or_else(|| {
            eprintln!(
                "bad cc protocol: {label} (default|2pl-nowait|2pl-waitdie|part-serial|occ|mvto)"
            );
            usage(2);
        });
    }
    if p.has("--smoke") {
        cfg.window = Some(microarch::WindowSpec {
            warmup: 40,
            measured: 120,
            reps: 1,
        });
    }

    let report = bench::chaos::run(&cfg);
    let art = artifact_dir(&p).map(|dir| bench::chaos::write_artifacts(&report, &cfg, &dir));

    let r = &report.outcomes.retry;
    println!(
        "chaos: {} / {} / {} worker(s), seed {}, rate {}",
        system.label(),
        wl_arg,
        cfg.workers,
        cfg.seed,
        cfg.fault_rate
    );
    println!(
        "  txns {}  commits {}  retries {} (conflict {}, abort {})  gave_up {}",
        report.measurement.txns,
        r.commits,
        r.retries(),
        r.conflict_retries,
        r.abort_retries,
        r.gave_up
    );
    println!(
        "  latch_timeouts {}  log_failures {}  backoff_units {}",
        r.latch_timeouts, r.log_failures, r.backoff_units
    );
    println!(
        "  poisons {}  reopens {}  offline {} ({} txn slots)  ambiguous commits {}",
        report.outcomes.poisons,
        report.outcomes.reopens,
        report.outcomes.offline_events,
        report.outcomes.offline_txns,
        report.outcomes.ambiguous_commits
    );
    println!(
        "  faults fired {}  attempts p50/p95 {}/{}",
        report.faults_fired,
        report.retry_hist.quantile(0.5),
        report.retry_hist.quantile(0.95)
    );
    for (core, d) in report.digests.iter().enumerate() {
        println!("  core {core} digest {d:#018x}");
    }
    println!("  table digest {:#018x}", report.table_digest);
    println!(
        "  lost updates {}  phantom updates {}",
        report.lost_updates, report.phantom_updates
    );
    match &art {
        Some(art) => {
            println!("manifest: {}", art.manifest.display());
            println!("jsonl:    {}", art.jsonl.display());
        }
        None => println!("manifest: {NOT_WRITTEN}"),
    }

    let mut failed = false;
    if !report.consistent() {
        eprintln!("FAIL: oracle violated (lost or phantom updates)");
        failed = true;
    }
    // Digest comparison only applies to a faithful replay — overriding
    // the seed or rate on the CLI deliberately departs from the manifest.
    if let Some(m) = replay.as_ref().filter(|_| cfg.plan_override.is_some()) {
        // Replays must reproduce the original run bit for bit.
        let want: Vec<String> = m
            .get("digests")
            .and_then(|v| v.as_arr())
            .map(|a| {
                a.iter()
                    .filter_map(|d| d.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        let got: Vec<String> = report
            .digests
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect();
        if !want.is_empty() && want != got {
            eprintln!("FAIL: per-core digests differ from the replayed manifest");
            failed = true;
        }
        if let Some(want_table) = m.get("table_digest").and_then(|v| v.as_str()) {
            if want_table != format!("{:#018x}", report.table_digest) {
                eprintln!("FAIL: table digest differs from the replayed manifest");
                failed = true;
            }
        }
        if !failed {
            println!("replay matches the manifest");
        }
    }
    std::process::exit(i32::from(failed));
}

/// `bench recover`: one durable run with a deterministic kill, crash
/// recovery from fuzzy checkpoint + durable log tail, and verification
/// that exactly the acknowledged work survives. `--sweep` runs the
/// nightly engines x kill-points x epochs grid to a CSV. Exits nonzero
/// on any durability-invariant violation (or digest mismatch when
/// replaying a manifest).
fn run_recover(argv: &[String]) -> ! {
    let p = parse_or_usage(
        "recover",
        argv,
        &[
            Spec::value("--seed"),
            Spec::value("--kill-at"),
            Spec::value("--ckpt-start"),
            Spec::value("--epoch"),
            Spec::value("--workers"),
            Spec::value("--plan"),
            Spec::value("--out"),
            Spec::flag("--smoke"),
            Spec::flag("--sweep"),
        ],
    );
    limit_positionals(&p, 2, "recover");

    if p.has("--sweep") {
        let smoke = p.has("--smoke");
        let rows = bench::recover::sweep(smoke);
        print!("{}", bench::recover::render(&rows));
        let default_name = if smoke {
            "recover_smoke.csv"
        } else {
            "recover.csv"
        };
        let out = p
            .value("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| repo_root().join("results").join(default_name));
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        std::fs::write(&out, bench::recover::to_csv(&rows)).expect("write recover csv");
        println!("wrote {}", out.display());
        if let Err(e) = bench::recover::smoke_check(&rows) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
        println!("recover sweep OK ({} cells)", rows.len());
        std::process::exit(0);
    }

    // A replayed manifest supplies every knob; explicit CLI args win.
    let replay = p.value("--plan").map(load_plan);
    let rstr = |key: &str| {
        replay
            .as_ref()
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_str())
            .map(String::from)
    };
    let rnum = |key: &str| {
        replay
            .as_ref()
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_f64())
    };

    let sys_arg = p
        .pos(0)
        .map(String::from)
        .or_else(|| rstr("system_cli").or_else(|| rstr("system")))
        .unwrap_or_else(|| usage(2));
    let wl_arg = p
        .pos(1)
        .map(String::from)
        .or_else(|| rstr("workload"))
        .unwrap_or_else(|| usage(2));
    let system = parse_system_or_die(&sys_arg);
    let workload = parse_workload_or_die(&wl_arg);

    let mut cfg = bench::recover::RecoverCfg::new(system, workload, &wl_arg);
    if let Some(m) = &replay {
        cfg.plan_override = Some(faults::FaultPlan::from_json(m).unwrap_or_else(|e| {
            eprintln!("bad fault plan: {e}");
            usage(2);
        }));
        cfg.seed = cfg.plan_override.as_ref().unwrap().seed;
        if let Some(w) = rnum("workers") {
            cfg.workers = w as usize;
        }
        if let Some(e) = rnum("epoch") {
            cfg.epoch = e as u32;
        }
        if let Some(k) = rnum("kill_at") {
            cfg.kill_at = Some(k as u64);
        }
        if let Some(c) = rnum("ckpt_start") {
            cfg.ckpt_start = Some(c as u64);
        }
        if let Some(win) = m.get("window") {
            let f = |k: &str| win.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            cfg.window = Some(microarch::WindowSpec {
                warmup: f("warmup"),
                measured: f("measured"),
                reps: 1,
            });
        }
    }
    let numeric = |name: &str, what: &str| {
        p.parsed::<u64>(name, what).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage(2);
        })
    };
    if let Some(seed) = numeric("--seed", "seed") {
        cfg.seed = seed;
        cfg.plan_override = None; // explicit knobs rebuild the plan
    }
    if let Some(k) = numeric("--kill-at", "kill slot") {
        cfg.kill_at = Some(k);
        cfg.plan_override = None;
    }
    if let Some(c) = numeric("--ckpt-start", "checkpoint start slot") {
        cfg.ckpt_start = Some(c);
    }
    if let Some(e) = numeric("--epoch", "group-commit epoch") {
        if !(1..=4096).contains(&e) {
            eprintln!("bad epoch: {e} (expected 1..=4096)");
            usage(2);
        }
        cfg.epoch = e as u32;
    }
    if let Some(w) = numeric("--workers", "worker count") {
        if !(1..=64).contains(&w) {
            eprintln!("bad worker count: {w} (expected 1..=64)");
            usage(2);
        }
        cfg.workers = w as usize;
    }
    if p.has("--smoke") {
        cfg.window = Some(microarch::WindowSpec {
            warmup: 30,
            measured: 90,
            reps: 1,
        });
    }

    let report = bench::recover::run(&cfg);
    let manifest = artifact_dir(&p).map(|dir| bench::recover::write_manifest(&report, &cfg, &dir));

    println!(
        "recover: {} / {} / {} worker(s), epoch {}, kill slot {} of {}",
        system.label(),
        wl_arg,
        cfg.workers,
        cfg.epoch,
        report.schedule.kill_at,
        report.schedule.slots
    );
    println!(
        "  crashed {}  confirmed {}  committed {}  winners {}  unfinished {}  aborted {}",
        report.crashed,
        report.confirmed,
        report.committed,
        report.recovery.winners,
        report.recovery.unfinished,
        report.recovery.aborted
    );
    for (i, c) in report.checkpoints.iter().enumerate() {
        println!(
            "  checkpoint[{i}]: complete {}  image_rows {}",
            c.complete, c.image_rows
        );
    }
    println!(
        "  redo {} (skipped {})  undo {} (skipped {})  image rows {}",
        report.recovery.redo_applied,
        report.recovery.redo_skipped,
        report.recovery.undo_applied,
        report.recovery.undo_skipped,
        report.recovery.image_rows
    );
    println!(
        "  commit latency p50/p99 {:.0}/{:.0} cycles over {} samples",
        report.latency_quantile(0.5),
        report.latency_quantile(0.99),
        report.commit_latencies.len()
    );
    for (t, d) in &report.digests {
        println!("  table {t} digest {d:#018x}");
    }
    println!(
        "  lost {}  phantom {}  aborted effects {}  digests match {}  re-recovery identical {}",
        report.lost_updates,
        report.phantom_updates,
        report.aborted_effects,
        report.digests_match,
        report.second_match
    );
    match &manifest {
        Some(path) => println!("manifest: {}", path.display()),
        None => println!("manifest: {NOT_WRITTEN}"),
    }

    let mut failed = !report.consistent();
    if failed {
        eprintln!("FAIL: durability invariant violated");
    }
    // Digest comparison only applies to a faithful replay.
    if let Some(m) = replay.as_ref().filter(|_| cfg.plan_override.is_some()) {
        let want: Vec<(u64, String)> = m
            .get("digests")
            .and_then(|v| v.as_arr())
            .map(|a| {
                a.iter()
                    .filter_map(|d| {
                        Some((
                            d.get("table").and_then(|v| v.as_f64())? as u64,
                            d.get("digest").and_then(|v| v.as_str())?.to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let got: Vec<(u64, String)> = report
            .digests
            .iter()
            .map(|(t, d)| (u64::from(*t), format!("{d:#018x}")))
            .collect();
        if !want.is_empty() && want != got {
            eprintln!("FAIL: recovered digests differ from the replayed manifest");
            failed = true;
        }
        if !failed {
            println!("replay matches the manifest");
        }
    }
    std::process::exit(i32::from(failed));
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench trace <shore-mt|dbmsd|voltdb|hyper|dbmsm|dbmsm-interp|dbmsm-btree> <micro|micro-rw|tpcb|tpcc|tpce> [workers] [--flame [total|instr|data|l1i|l2i|llc-i|l1d|l2d|llc-d]]");
    eprintln!("       bench metrics [system] [workload] [--smoke]");
    eprintln!("       bench perf [--smoke] [--check <baseline.json>] [--out <path>]");
    eprintln!("       bench chaos <system> <workload> [--seed N] [--fault-rate R] [--workers W] [--cc <protocol>] [--smoke] [--plan <manifest.json>] [--out <dir>]");
    eprintln!("       bench recover <system> <workload> [--seed N] [--kill-at SLOT] [--ckpt-start SLOT] [--epoch E] [--workers W] [--smoke] [--plan <manifest.json>] [--out <dir>]");
    eprintln!(
        "       bench recover --sweep [--smoke] [--out <path>]  # engines x kill points x epochs -> CSV"
    );
    eprintln!(
        "       bench cc-grid [--smoke] [--out <path>]     # CC protocol x contention sweep -> CSV"
    );
    eprintln!(
        "       bench islands [--smoke] [--out <path>]     # NUMA placement x cross-socket mix grid -> CSV"
    );
    eprintln!("       bench serve [system] [workload] [--connections N] [--pool P] [--queue-cap Q] [--batch B] [--intake I] [--seed S] [--smoke] [--out <csv>]");
    std::process::exit(code);
}

fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}
