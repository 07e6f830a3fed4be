//! Two-clock end-to-end benchmark of the imoltp workspace.
//!
//! One process runs one workload and prints every metric by name with its
//! unit: host time (what the simulator costs to run) beside simulated time
//! (what the modelled machine would take). Every layer is driven through
//! its public functions only, so layers are measured from outside. See
//! `README.md` for the workloads, the metrics and how to read them.

mod catalog;
mod direct;
mod durable;
mod layers;
mod rig;
mod selfcheck;
mod serve;
mod single;
mod spans;
mod stats;
mod timed;

use std::process::ExitCode;

use imoltp::obs::json::Json;

use rig::Outcome;

const USAGE: &str = "\
usage: run.sh <workload> [--seed N] [--trace [0|1]] [--smoke] [--seconds S]
       run.sh --workload <workload> --seed N --seconds S --trace 0|1
       run.sh --selfcheck [--seed N]
workloads: micro_ro tpcc_mix serve_10k durable_recover";

/// One run's command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Scales every fixed count by `seconds / RUN_SECONDS`.
    pub seconds: u64,
    pub trace: bool,
    /// All counts divided by twenty: exercises every code path in seconds.
    pub smoke: bool,
}

impl Args {
    #[cfg(test)]
    pub fn smoke(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 42,
            seconds: rig::RUN_SECONDS,
            trace,
            smoke: true,
        }
    }
}

enum Command {
    Run(Args),
    Selfcheck { seed: u64 },
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds) = (42u64, rig::RUN_SECONDS);
    let (mut trace, mut smoke, mut selfcheck) = (false, false, false);
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(it.next().ok_or("--workload needs a name")?.clone()),
            "--seed" => seed = number("--seed", it.next())?,
            "--seconds" => {
                seconds = number("--seconds", it.next())?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` is the driver's form.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if selfcheck {
        if workload.is_some() || smoke || trace {
            return Err(
                "--selfcheck runs every workload at full size; it takes only --seed".into(),
            );
        }
        return Ok(Command::Selfcheck { seed });
    }
    let workload = workload.ok_or("no workload named")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    }))
}

/// Retries the `oltp::retry` layer has counted in the process-wide
/// metrics registry so far.
fn retries_so_far() -> u64 {
    let snap = imoltp::obs::metrics::registry().snapshot();
    ["conflict", "abort"]
        .iter()
        .map(|class| snap.counter_value("retry_retries_total", &[("class", class)]))
        .sum()
}

pub fn run_workload(args: &Args) -> Outcome {
    let retries_before = retries_so_far();
    let mut out = match args.workload.as_str() {
        "micro_ro" => single::run(args, false),
        "tpcc_mix" => single::run(args, true),
        "serve_10k" => serve::run(args),
        "durable_recover" => durable::run(args),
        other => unreachable!("workload {other} passed the parser"),
    };
    if args.trace {
        let retries = retries_so_far() - retries_before;
        out.layer(
            "oltp.retries_per_ktxn",
            retries as f64 * 1000.0 / out.attempted.max(1) as f64,
        );
    }
    out
}

/// One line of the metric table.
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    /// Which way is better and, end to end, how much worse is a regression.
    reading: String,
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher is better"
    } else {
        "lower is better"
    }
}

/// The metrics a run of this kind must report: every end-to-end metric
/// untraced, every per-layer metric traced. A per-layer metric the
/// workload does not exercise reads 0.
fn reported(args: &Args, out: &Outcome) -> Vec<Reported> {
    if args.trace {
        catalog::per_layer()
            .into_iter()
            .map(|m| Reported {
                value: out.metrics.get(&m.name).copied().unwrap_or(0.0),
                reading: if out.metrics.contains_key(&m.name) {
                    better(m.higher_is_better).to_string()
                } else {
                    "not exercised by this workload".to_string()
                },
                name: m.name,
                unit: m.unit,
            })
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name.to_string(),
                unit: m.unit,
                value: *out
                    .metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} did not report {}", args.workload, m.name)),
                reading: format!(
                    "{}, bound {} %",
                    better(m.higher_is_better),
                    m.bound * 100.0
                ),
            })
            .collect()
    }
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "== imoltp benchmark: {}  seed {}  seconds {}  {}{} ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { "  SMOKE" } else { "" },
    );
    println!(
        "closed loop; five engines; {} CPU(s) available to this process (run.sh pins it to one)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for n in &out.notes {
        println!("{n}");
    }
    println!("checks:");
    for c in &out.checks {
        println!(
            "  {}  {} ({})",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let metrics = reported(args, out);
    println!("metrics:");
    for m in &metrics {
        println!(
            "  {:<36} {:>16.4} {:<14} ({})",
            m.name, m.value, m.unit, m.reading
        );
    }
    println!(
        "  {:<36} {:>16.6} ratio          ({} failed of {} attempted; must be 0)",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let detail = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::u64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "sim_digest",
            Json::str(&format!("{:#018x}", out.sim_digest)),
        ),
        (
            "sim_digest_head",
            Json::str(&format!("{:#018x}", out.sim_digest_head)),
        ),
    ]);
    println!("detail {}", detail.render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::u64(out.attempted)),
        ("failed", Json::u64(out.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}

/// Write the traced run's per-layer table and spans beside the benchmark.
fn write_trace(args: &Args, out: &Outcome) -> std::io::Result<()> {
    let Some(trace) = &out.trace else {
        return Ok(());
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let layers = reported(args, out)
        .into_iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(&m.name)),
                ("unit", Json::str(m.unit)),
                ("value", Json::Num(m.value)),
                ("exercised", Json::Bool(out.metrics.contains_key(&m.name))),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::u64(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        ("per_layer", Json::Arr(layers)),
        ("trace", trace.clone()),
    ]);
    std::fs::write(
        dir.join(format!("{}.trace.json", args.workload)),
        doc.render() + "\n",
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Selfcheck { seed } => selfcheck::run(seed),
        Command::Run(args) => {
            let out = run_workload(&args);
            print_report(&args, &out);
            if let Err(e) = write_trace(&args, &out) {
                eprintln!("cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
            if out.correct() && out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_form_and_the_short_form() {
        let Ok(Command::Run(a)) =
            parse(&args("--workload tpcc_mix --seed 7 --seconds 15 --trace 1"))
        else {
            panic!("driver form rejected")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("tpcc_mix", 7, 15, true, false)
        );
        let Ok(Command::Run(a)) = parse(&args("micro_ro --trace --smoke")) else {
            panic!("short form rejected")
        };
        assert_eq!((a.seed, a.trace, a.smoke), (42, true, true));
        let Ok(Command::Run(a)) = parse(&args("serve_10k --trace 0 --seed 3")) else {
            panic!("--trace 0 rejected")
        };
        assert_eq!((a.trace, a.seed), (false, 3));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "",
            "nope",
            "micro_ro --fast",
            "micro_ro --seed x",
            "micro_ro --seconds 0",
            "micro_ro tpcc_mix",
            "--selfcheck --smoke",
            "--selfcheck micro_ro",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(matches!(
            parse(&args("--selfcheck --seed 9")),
            Ok(Command::Selfcheck { seed: 9 })
        ));
    }

    /// Every workload, untraced and traced, at smoke size: each reports
    /// exactly the catalogued names and passes its checks, and the traced
    /// run's head simulates exactly what the untraced run's head did.
    #[test]
    fn smoke_runs_report_the_catalogue_and_repeat() {
        for w in catalog::WORKLOADS {
            let plain = run_workload(&Args::smoke(w, false));
            for c in &plain.checks {
                assert!(c.ok, "{w}: check failed: {} ({})", c.name, c.detail);
            }
            assert_eq!(plain.failed, 0, "{w}");
            assert!(plain.attempted > 0, "{w}");
            let names: Vec<&str> = plain.metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{w}: untraced metric names");
            for (name, v) in &plain.metrics {
                assert!(*v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
            }

            let traced = run_workload(&Args::smoke(w, true));
            assert!(traced.correct(), "{w}: traced run failed a check");
            assert_eq!(
                traced.sim_digest_head, plain.sim_digest_head,
                "{w}: decorators changed the simulation"
            );
            let catalogue: Vec<String> = catalog::per_layer().into_iter().map(|m| m.name).collect();
            for name in traced.metrics.keys() {
                assert!(
                    catalogue.contains(name) || want.contains(&name.as_str()),
                    "{w}: {name} is not catalogued"
                );
            }
            for must in [
                "uarch_sim.host_share",
                "bench.untraced_residual_pct",
                "indexes.art.get_ns",
            ] {
                assert!(
                    traced.metrics.contains_key(must),
                    "{w}: traced run lacks {must}"
                );
            }
            assert!(traced.trace.is_some(), "{w}: traced run kept no spans");
        }
    }
}
