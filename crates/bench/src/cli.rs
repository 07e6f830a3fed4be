//! The one CLI behind both binaries: `bench X` and `figures X` are the same
//! call for every X.
//!
//! [`COMMANDS`] is the single table of subcommands — names, positional
//! synopsis, flag [`Spec`]s, one-line help, handler. Dispatch parses
//! against the row's `Spec`s (an unknown flag or a surplus positional is
//! exit 2, never ignored) and the usage text is generated from the same
//! rows, so neither can drift from what the handlers read. A handler
//! returns the process exit code, or `Err(message)` for bad input, which
//! prints the message and that subcommand's usage and exits 2.
//!
//! Set `IMOLTP_SCALE=<f64>` to scale measurement windows (e.g. `0.2` for
//! a smoke run).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use engines::{CcPolicy, SystemKind};
use microarch::WindowSpec;
use obs::flame::StallComponent;

use crate::args::{self, in_range, Parsed, Spec};
use crate::figures::{Figures, FIGURES};
use crate::names::{parse_system, parse_workload, system_cli, SYSTEMS, WORKLOADS};
use crate::replay::{Replay, NOT_WRITTEN};
use crate::{
    ablations, ccgrid, chaos, diff, grid, islands, metrics_report, modules_report, perf, recover,
    scaling, serve, suite, trace,
};

/// What a handler is called with.
pub struct Invocation<'a> {
    /// The binary's name (`bench` or `figures`).
    pub prog: &'a str,
    /// The name the subcommand was invoked under.
    pub name: &'a str,
    /// Its arguments, parsed against the command's `flags`.
    pub p: Parsed,
}

/// A handler's result: the exit code, or a usage error.
pub type Outcome = Result<i32, String>;

/// One row of the command table.
pub struct Command {
    /// Every name the subcommand answers to.
    pub names: &'static [&'static str],
    /// Synopsis of the positionals: `<required>` then `[optional]` words;
    /// their counts bound what the parser accepts.
    pub positionals: &'static str,
    /// The flags the handler reads — the only ones the parser accepts.
    pub flags: &'static [Spec],
    /// One line for the usage text.
    pub help: &'static str,
    run: fn(&Invocation) -> Outcome,
}

const SMOKE: Spec = Spec::flag("--smoke");
const OUT_CSV: Spec = Spec::value("--out", "<path>");
const OUT_DIR: Spec = Spec::value("--out", "<dir>");
const PLAN: Spec = Spec::value("--plan", "<manifest.json>");
const SEED: Spec = Spec::value("--seed", "N");
const WORKERS: Spec = Spec::value("--workers", "W");

/// The first column of a `(name, _)` table, so a family of subcommands
/// (`fig1..fig27`, the ablations) is one row whose names are its table's.
const fn names<T, const N: usize>(table: &[(&'static str, T); N]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = table[i].0;
        i += 1;
    }
    out
}

const FIGURE_NAMES: [&str; FIGURES.len()] = names(&FIGURES);
const ABLATION_NAMES: [&str; ablations::ABLATIONS.len()] = names(&ablations::ABLATIONS);

/// Every subcommand.
pub const COMMANDS: &[Command] = &[
    Command {
        names: &["all"],
        positionals: "",
        flags: &[],
        help: "every figure + results/fig*.csv, results/figures.md and results/summary.json; exit 1 on a failed shape check",
        run: |_| Ok(i32::from(suite::run_all(&grid::repo_root()) != 0)),
    },
    Command {
        names: &FIGURE_NAMES,
        positionals: "",
        flags: &[],
        help: "one paper figure as a text table",
        run: figure,
    },
    Command {
        names: &["checks"],
        positionals: "",
        flags: &[],
        help: "the paper's qualitative claims against the measured data",
        run: checks,
    },
    Command {
        names: &["calibrate"],
        positionals: "",
        flags: &[],
        help: "quick per-(system, size) metric dump",
        run: |_| Ok(print(crate::figures::calibrate())),
    },
    Command {
        names: &ABLATION_NAMES,
        positionals: "",
        flags: &[],
        help: "the §8 what-ifs: all five, or one",
        run: |inv| Ok(print(ablations::run(inv.name))),
    },
    Command {
        names: &["modules"],
        positionals: "[micro|tpcb|tpcc]",
        flags: &[],
        help: "per-code-module breakdown for every system (DaMoN'13 style)",
        run: modules,
    },
    Command {
        names: &["phases"],
        positionals: "[workload]",
        flags: &[],
        help: "per-phase SPKI grid for every system",
        run: phases,
    },
    Command {
        names: &["record"],
        positionals: "<system> <workload> <out.json>",
        flags: &[],
        help: "record one traced run for differential analysis",
        run: record,
    },
    Command {
        names: &["diff"],
        positionals: "<a.json> <b.json>",
        flags: &[Spec::value("--threshold", "PCT")],
        help: "decompose the throughput delta between two recorded runs; exit 1 past the regression gate",
        run: diff_runs,
    },
    Command {
        names: &["scaling"],
        positionals: "",
        flags: &[SMOKE],
        help: "worker-count scaling grid -> CSV; gate: partitioned engines out-scale shared-everything ones",
        run: |inv| {
            let rows = scaling::scaling_grid(inv.p.has("--smoke"));
            let (render, csv, check) = (scaling::render, scaling::render_csv, scaling::check);
            Ok(grid::finish("scaling", "scaling", &inv.p, &rows, render, csv, check))
        },
    },
    Command {
        names: &["cc-grid", "cc"],
        positionals: "",
        flags: &[SMOKE, OUT_CSV],
        help: "CC protocol x contention sweep -> CSV; gate: every cell commits",
        run: |inv| {
            let cfg = if inv.p.has("--smoke") {
                ccgrid::CcGridCfg::smoke()
            } else {
                ccgrid::CcGridCfg::full()
            };
            let rows = ccgrid::run(&cfg);
            let (render, csv, check) = (ccgrid::render, ccgrid::to_csv, ccgrid::smoke_check);
            Ok(grid::finish("cc_grid", "cc-grid", &inv.p, &rows, render, csv, check))
        },
    },
    Command {
        names: &["islands"],
        positionals: "",
        flags: &[SMOKE, OUT_CSV],
        help: "NUMA placement x cross-socket mix grid -> CSV; gate: the Hardware Islands ordering",
        run: |inv| {
            let rows = islands::islands_grid(inv.p.has("--smoke"));
            let (render, csv, check) = (islands::render, islands::render_csv, islands::smoke_check);
            Ok(grid::finish("islands", "islands", &inv.p, &rows, render, csv, check))
        },
    },
    Command {
        names: &["recover"],
        positionals: "[system] [workload]",
        flags: &[
            SEED,
            Spec::value("--kill-at", "SLOT"),
            Spec::value("--ckpt-start", "SLOT"),
            Spec::value("--epoch", "E"),
            WORKERS,
            PLAN,
            Spec::value("--out", "<dir|path>"),
            SMOKE,
            Spec::flag("--sweep"),
        ],
        help: "durable run + deterministic kill + crash recovery, gated on the durability invariants; --sweep: engines x kill points x epochs -> CSV",
        run: run_recover,
    },
    Command {
        names: &["chaos"],
        positionals: "[system] [workload]",
        flags: &[
            SEED,
            Spec::value("--fault-rate", "R"),
            WORKERS,
            Spec::value("--sockets", "S"),
            Spec::value("--cc", "<protocol>"),
            PLAN,
            OUT_DIR,
            SMOKE,
        ],
        help: "fault-injection run + replayable manifest, gated on the lost-update oracle",
        run: run_chaos,
    },
    Command {
        names: &["serve"],
        positionals: "[system] [workload]",
        flags: &[
            Spec::value("--connections", "N"),
            Spec::value("--pool", "P"),
            Spec::value("--queue-cap", "Q"),
            Spec::value("--batch", "B"),
            Spec::value("--intake", "I"),
            SEED,
            SMOKE,
            OUT_CSV,
        ],
        help: "wire-protocol service front end run -> per-stage breakdown CSV",
        run: run_serve,
    },
    Command {
        names: &["trace"],
        positionals: "<system> <workload> [workers]",
        flags: &[Spec::opt_value(
            "--flame",
            "total|instr|data|l1i|l2i|llc-i|l1d|l2d|llc-d",
        )],
        help: "traced run + Perfetto/JSONL export; --flame adds a stall-weighted collapsed-stack file",
        run: run_trace,
    },
    Command {
        names: &["metrics"],
        positionals: "[system] [workload]",
        flags: &[SMOKE],
        help: "metrics-registry run + Prometheus/JSON export",
        run: run_metrics,
    },
    Command {
        names: &["perf"],
        positionals: "",
        flags: &[SMOKE, Spec::value("--check", "<baseline.json>"), OUT_CSV],
        help: "simulator host-time micro-benchmark -> results/perf.json; --check gates a >30% regression",
        run: run_perf,
    },
    Command {
        names: &["help"],
        positionals: "",
        flags: &[],
        help: "this text",
        run: |inv| {
            eprint!("{}", usage(inv.prog, COMMANDS));
            Ok(0)
        },
    },
];

/// The usage text of `commands`, generated from their table rows.
pub fn usage(prog: &str, commands: &[Command]) -> String {
    let mut out = String::new();
    for (i, c) in commands.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let _ = write!(out, "{lead} {prog} {}", c.names.join("|"));
        for word in std::iter::once(c.positionals.to_string())
            .chain(c.flags.iter().map(Spec::usage))
            .filter(|w| !w.is_empty())
        {
            let _ = write!(out, " {word}");
        }
        let _ = writeln!(out, "\n           # {}", c.help);
    }
    if commands.len() > 1 {
        let mut systems: Vec<&str> = SYSTEMS.iter().map(|&(_, k)| system_cli(k)).collect();
        systems.dedup();
        let _ = writeln!(out, "systems: {}", systems.join(", "));
        let workloads: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
        let _ = writeln!(out, "workloads: {}", workloads.join(", "));
        out.push_str("Set IMOLTP_SCALE=<f64> to scale measurement windows (e.g. 0.2).\n");
    }
    out
}

/// Entry point of both binaries.
pub fn main() -> ! {
    if let Err(e) = crate::env_scale() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().collect();
    std::process::exit(run(&argv))
}

/// Dispatch `argv` (program name first) through [`COMMANDS`]; returns the
/// exit code.
pub fn run(argv: &[String]) -> i32 {
    let prog = argv
        .first()
        .and_then(|a| Path::new(a).file_stem()?.to_str())
        .unwrap_or("bench");
    let name = argv.get(1).map_or("help", String::as_str);
    let Some(cmd) = COMMANDS.iter().find(|c| c.names.contains(&name)) else {
        eprintln!("unknown subcommand: {name}");
        eprint!("{}", usage(prog, COMMANDS));
        return 2;
    };
    let words = || cmd.positionals.split_whitespace();
    let rest = argv.get(2..).unwrap_or(&[]);
    args::parse(&format!("{prog} {name}"), rest, cmd.flags, words().count())
        .and_then(|p| {
            if p.positionals.len() < words().filter(|w| w.starts_with('<')).count() {
                return Err(format!("missing argument: {}", cmd.positionals));
            }
            (cmd.run)(&Invocation { prog, name, p })
        })
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            eprint!("{}", usage(prog, std::slice::from_ref(cmd)));
            2
        })
}

fn print(text: String) -> i32 {
    print!("{text}");
    0
}

/// The optional `[system] [workload]` positionals (default VoltDB, micro).
fn system_workload(p: &Parsed) -> Result<(SystemKind, crate::WorkloadCfg, &str), String> {
    let system = p.pos(0).map_or(Ok(SystemKind::VoltDb), parse_system)?;
    let wl_name = p.pos(1).unwrap_or("micro");
    Ok((system, parse_workload(wl_name)?, wl_name))
}

fn figure(inv: &Invocation) -> Outcome {
    let (_, build) = FIGURES
        .iter()
        .find(|(name, _)| *name == inv.name)
        .expect("dispatched on a FIGURES name");
    Ok(print(build(&mut Figures::new()).render_text()))
}

fn checks(_: &Invocation) -> Outcome {
    for c in Figures::new().checks() {
        let status = if c.pass { "PASS" } else { "FAIL" };
        println!("[{status}] {}: {} ({})", c.figure, c.claim, c.detail);
    }
    Ok(0)
}

fn modules(inv: &Invocation) -> Outcome {
    let workload = inv.p.pos(0).unwrap_or("micro");
    for sys in crate::figures::systems() {
        let sys = match sys {
            SystemKind::DbmsM { .. } if workload == "tpcc" => SystemKind::dbms_m_for_tpcc(),
            s => s,
        };
        let b = modules_report::module_breakdown(sys, workload);
        println!("{}", modules_report::render(&b));
    }
    Ok(0)
}

fn phases(inv: &Invocation) -> Outcome {
    let workload = inv.p.pos(0).unwrap_or("micro");
    Ok(print(trace::phases_table(
        workload,
        &parse_workload(workload)?,
    )))
}

/// `record <system> <workload> <out.json>` — run one traced point and
/// persist it as a [`diff::RunRecord`].
fn record(inv: &Invocation) -> Outcome {
    let [sys_arg, wl_arg, out] = &inv.p.positionals[..] else {
        unreachable!("the command table requires three positionals");
    };
    let rec = diff::record_run(parse_system(sys_arg)?, &parse_workload(wl_arg)?, wl_arg);
    rec.save(Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "recorded {}/{}: {} txns, {:.0} tps, {:.2} ipc, {:.1} cycles/txn -> {out}",
        rec.system,
        rec.workload,
        rec.txns,
        rec.tps,
        rec.ipc,
        rec.cycles_per_txn(),
    );
    Ok(0)
}

/// `diff <a.json> <b.json> [--threshold PCT]` — differential top-down
/// decomposition, with a regression gate on throughput.
fn diff_runs(inv: &Invocation) -> Outcome {
    let [a_path, b_path] = &inv.p.positionals[..] else {
        unreachable!("the command table requires two positionals");
    };
    let threshold: f64 = inv.p.parsed("--threshold", "threshold")?.unwrap_or(10.0);
    let load = |path: &str| {
        diff::RunRecord::load(Path::new(path)).map_err(|e| format!("cannot load run record: {e}"))
    };
    let report = diff::diff_runs(&load(a_path)?, &load(b_path)?);
    print!("{}", diff::render(&report));
    let verdict = if report.regressed(threshold) {
        Err(format!(
            "candidate throughput {:.2}% below baseline (threshold {threshold}%)",
            -report.tps_change_pct()
        ))
    } else {
        Ok(())
    };
    Ok(grid::gate(
        verdict,
        format_args!(
            "throughput change {:+.2}% within the {threshold}% regression gate",
            report.tps_change_pct()
        ),
    ))
}

fn run_trace(inv: &Invocation) -> Outcome {
    let p = &inv.p;
    let (sys_arg, wl_arg) = (&p.positionals[0], &p.positionals[1]);
    let system = parse_system(sys_arg)?;
    let workload = parse_workload(wl_arg)?;
    // The simulated machine models at most 64 cores.
    let workers = match p.pos(2) {
        Some(n) => in_range("worker count", n, 1..=64)? as usize,
        None => 1,
    };
    let flame = match (p.has("--flame"), p.value("--flame")) {
        (false, _) => None,
        (true, None) => Some(StallComponent::Total),
        (true, Some(name)) => Some(
            StallComponent::parse(name).ok_or_else(|| format!("bad stall component: {name}"))?,
        ),
    };
    let art = trace::run_trace_flame(
        system,
        &workload,
        wl_arg,
        &grid::results_dir(),
        workers,
        flame,
    );
    let title = format!("{} / {} / {workers} worker(s)", system.label(), wl_arg);
    print!("{}", trace::render(&art.measurement, &title));
    println!(
        "perfetto: {} (load in ui.perfetto.dev)",
        art.perfetto.display()
    );
    println!("jsonl:    {}", art.jsonl.display());
    if let (Some(folded), Some(total)) = (&art.folded, art.flame_total) {
        println!(
            "folded:   {} ({total} stall cycles; feed to flamegraph.pl/inferno/speedscope)",
            folded.display(),
        );
    }
    Ok(0)
}

fn run_metrics(inv: &Invocation) -> Outcome {
    let (system, workload, _) = system_workload(&inv.p)?;
    let mut cfg = metrics_report::MetricsCfg::new(system, workload);
    cfg.smoke = inv.p.has("--smoke");
    if cfg.smoke {
        cfg.report_every = 64;
    }
    let r = metrics_report::run(&cfg);
    for line in &r.periodic {
        println!("{line}");
    }
    let out_dir = grid::results_dir();
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
    let verdict = metrics_report::smoke_check(&r, system.label());
    Ok(grid::gate(verdict, "metrics smoke OK"))
}

fn run_perf(inv: &Invocation) -> Outcome {
    let p = &inv.p;
    let report = perf::run(p.has("--smoke"));
    print!("{}", report.render());
    grid::write_result(p.value("--out"), "perf.json", &report.to_json());
    let Some(baseline) = p.value("--check").map(PathBuf::from) else {
        return Ok(0);
    };
    // The gate: fail on a >30% throughput regression vs the checked-in
    // baseline.
    let bad = perf::regressions(&report, &baseline, 0.7);
    for b in &bad {
        eprintln!("perf regression: {b}");
    }
    if bad.is_empty() {
        println!("no perf regressions vs {}", baseline.display());
    }
    Ok(i32::from(!bad.is_empty()))
}

/// `serve`: drive the wire-protocol service front end and report the
/// service-path breakdown vs the direct driver. `--smoke` pins the
/// acceptance configuration (>= 10k connections on <= 8 sessions) and
/// exits nonzero if any gate fails.
fn run_serve(inv: &Invocation) -> Outcome {
    let p = &inv.p;
    let (system, workload, wl_name) = system_workload(p)?;
    let mut cfg = serve::ServeCfg::new(system, workload, wl_name);
    cfg.smoke = p.has("--smoke");
    if let Some(n) = p.parsed("--connections", "connection count")? {
        cfg.connections = n;
    }
    if let Some(n) = p.ranged("--pool", "pool size", 1..=64)? {
        cfg.pool = n as usize;
    }
    if let Some(n) = p.parsed::<usize>("--queue-cap", "queue cap")? {
        cfg.queue_cap = n.max(1);
    }
    if let Some(n) = p.parsed::<usize>("--batch", "batch size")? {
        cfg.batch = n.max(1);
    }
    if let Some(n) = p.parsed::<usize>("--intake", "intake")? {
        cfg.intake = n.max(1);
    }
    if let Some(seed) = p.parsed("--seed", "seed")? {
        cfg.seed = seed;
    }
    if cfg.smoke {
        // The acceptance gate is defined at exactly this scale; honor
        // explicit overrides only if they stay inside it.
        cfg.connections = cfg.connections.max(10_000);
        if cfg.pool > 8 {
            return Err(format!(
                "--smoke requires a pool of <= 8 sessions (got {})",
                cfg.pool
            ));
        }
    }

    let report = serve::run(&cfg);
    print!("{}", serve::render(&report));
    let name = grid::csv_name("serve_breakdown", cfg.smoke);
    grid::write_result(p.value("--out"), &name, &serve::to_csv(&report));
    if !cfg.smoke {
        return Ok(0);
    }
    Ok(grid::gate(serve::smoke_check(&report), "serve smoke OK"))
}

fn parse_cc(label: &str) -> Result<CcPolicy, String> {
    CcPolicy::parse(label).ok_or_else(|| {
        format!("bad cc protocol: {label} (default|2pl-nowait|2pl-waitdie|part-serial|occ|mvto)")
    })
}

/// `chaos`: one fault-injection run under the retry/backoff policy,
/// verified against the lost-update oracle; exits nonzero on any oracle
/// violation (or digest mismatch when replaying a manifest).
fn run_chaos(inv: &Invocation) -> Outcome {
    let p = &inv.p;
    // A replayed manifest supplies every knob; explicit CLI args win.
    let replay = Replay::open(p)?;
    let (system, workload, wl_name) = replay.target()?;
    let mut cfg = chaos::ChaosCfg::new(system, workload, &wl_name);
    if let Some(plan) = replay.fault_plan()? {
        cfg.seed = plan.seed;
        cfg.fault_rate = plan.rate;
        cfg.plan_override = Some(plan);
        if let Some(label) = replay.str("cc") {
            cfg.cc = parse_cc(label)?;
        }
        if let Some(w) = replay.num("workers") {
            cfg.workers = w as usize;
        }
        // Tolerant: manifests recorded before the multi-socket harness
        // have no "sockets" field and replay on one socket.
        if let Some(s) = replay.num("sockets") {
            cfg.sockets = (s as usize).max(1);
        }
        cfg.window = replay.window();
    }
    let faithful = replay.faithful(&["--seed", "--fault-rate"]);
    if !faithful {
        cfg.plan_override = None; // explicit knobs rebuild the plan
    }
    if let Some(seed) = p.parsed("--seed", "seed")? {
        cfg.seed = seed;
    }
    if let Some(rate) = p.value("--fault-rate") {
        cfg.fault_rate = (rate.parse().ok())
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("bad fault rate: {rate} (expected 0..=1)"))?;
    }
    if let Some(w) = p.ranged("--workers", "worker count", 1..=64)? {
        cfg.workers = w as usize;
    }
    if let Some(s) = p.ranged("--sockets", "socket count", 1..=8)? {
        cfg.sockets = s as usize;
    }
    if !cfg.workers.is_multiple_of(cfg.sockets) {
        return Err(format!(
            "worker count ({}) must divide evenly across {} socket(s)",
            cfg.workers, cfg.sockets
        ));
    }
    if let Some(label) = p.value("--cc") {
        cfg.cc = parse_cc(label)?;
    }
    if p.has("--smoke") {
        cfg.window = Some(WindowSpec {
            warmup: 40,
            measured: 120,
            reps: 1,
        });
    }

    let report = chaos::run(&cfg);
    let art = replay
        .artifact_dir()
        .map(|dir| chaos::write_artifacts(&report, &cfg, &dir));
    print!("{}", chaos::render(&report, &cfg));
    match &art {
        Some(art) => {
            println!("manifest: {}", art.manifest.display());
            println!("jsonl:    {}", art.jsonl.display());
        }
        None => println!("manifest: {NOT_WRITTEN}"),
    }
    let violation = (!report.consistent()).then_some("oracle violated (lost or phantom updates)");
    // Replays must reproduce the original run bit for bit.
    let digests = [
        ("digests", "per-core digests differ"),
        ("table_digest", "table digest differs"),
    ];
    Ok(replay.verdict(faithful, violation, &report.manifest, &digests))
}

/// `recover`: one durable run with a deterministic kill, crash recovery
/// from fuzzy checkpoint + durable log tail, and verification that exactly
/// the acknowledged work survives. `--sweep` runs the nightly engines x
/// kill-points x epochs grid to a CSV. Exits nonzero on any
/// durability-invariant violation (or digest mismatch when replaying a
/// manifest).
fn run_recover(inv: &Invocation) -> Outcome {
    let p = &inv.p;
    if p.has("--sweep") {
        let rows = recover::sweep(p.has("--smoke"));
        let (render, csv, check) = (recover::render, recover::to_csv, recover::smoke_check);
        return Ok(grid::finish(
            "recover",
            "recover sweep",
            p,
            &rows,
            render,
            csv,
            check,
        ));
    }

    // A replayed manifest supplies every knob; explicit CLI args win.
    let replay = Replay::open(p)?;
    let (system, workload, wl_name) = replay.target()?;
    let mut cfg = recover::RecoverCfg::new(system, workload, &wl_name);
    if let Some(plan) = replay.fault_plan()? {
        cfg.seed = plan.seed;
        cfg.plan_override = Some(plan);
        if let Some(w) = replay.num("workers") {
            cfg.workers = w as usize;
        }
        if let Some(e) = replay.num("epoch") {
            cfg.epoch = e as u32;
        }
        cfg.kill_at = replay.num("kill_at").map(|k| k as u64);
        cfg.ckpt_start = replay.num("ckpt_start").map(|c| c as u64);
        cfg.window = replay.window();
    }
    let faithful = replay.faithful(&["--seed", "--kill-at"]);
    if !faithful {
        cfg.plan_override = None; // explicit knobs rebuild the plan
    }
    if let Some(seed) = p.parsed("--seed", "seed")? {
        cfg.seed = seed;
    }
    if let Some(k) = p.parsed("--kill-at", "kill slot")? {
        cfg.kill_at = Some(k);
    }
    if let Some(c) = p.parsed("--ckpt-start", "checkpoint start slot")? {
        cfg.ckpt_start = Some(c);
    }
    if let Some(e) = p.ranged("--epoch", "group-commit epoch", 1..=4096)? {
        cfg.epoch = e as u32;
    }
    if let Some(w) = p.ranged("--workers", "worker count", 1..=64)? {
        cfg.workers = w as usize;
    }
    if p.has("--smoke") {
        cfg.window = Some(WindowSpec {
            warmup: 30,
            measured: 90,
            reps: 1,
        });
    }

    let report = recover::run(&cfg);
    let manifest = replay
        .artifact_dir()
        .map(|dir| recover::write_manifest(&report, &cfg, &dir));
    print!("{}", recover::render_run(&report, &cfg));
    match &manifest {
        Some(path) => println!("manifest: {}", path.display()),
        None => println!("manifest: {NOT_WRITTEN}"),
    }
    let violation = (!report.consistent()).then_some("durability invariant violated");
    let digests = [("digests", "recovered digests differ")];
    Ok(replay.verdict(faithful, violation, &report.manifest, &digests))
}
