//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Every workload runs twice with the same seed and once with the next
//! seed, each in a process of its own (peak memory is per process), plus
//! one traced run. Simulated metrics, the failure count and the digests
//! must repeat exactly for the same seed and differ for the other; host
//! metrics of the two same-seed runs must agree within their bounds; the
//! traced run's head digest must equal the untraced one's.

use std::process::{Command, ExitCode};

use imoltp::obs::json::{self, Json};

use crate::catalog;

struct Run {
    metrics: Vec<(String, f64)>,
    failed: f64,
    correct: bool,
    digest: String,
    digest_head: String,
}

fn run_one(workload: &str, seed: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")?;
    let detail = json::parse(detail)?;
    let text = |key: &str| -> Result<String, String> {
        detail
            .get(key)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| format!("detail line lacks {key}"))
    };
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    Ok(Run {
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
        failed: result
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        correct: result.get("correct") == Some(&Json::Bool(true)),
        digest: text("sim_digest")?,
        digest_head: text("sim_digest_head")?,
    })
}

fn metric(run: &Run, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Check one workload; returns the failures as printable lines.
fn check_workload(workload: &str, seed: u64) -> Result<Vec<String>, String> {
    let a = run_one(workload, seed, false)?;
    let b = run_one(workload, seed, false)?;
    let other = run_one(workload, seed + 1, false)?;
    let traced = run_one(workload, seed, true)?;
    let mut bad = Vec::new();
    if ![&a, &b, &other, &traced].iter().all(|r| r.correct) {
        bad.push("a run failed its correctness checks".to_string());
    }
    println!("{workload}");
    for m in &catalog::END_TO_END {
        let (x, y) = (metric(&a, m.name), metric(&b, m.name));
        let spread = (x - y).abs() / x.min(y);
        let ok = if m.host { spread <= m.bound } else { x == y };
        println!(
            "  {:<16} {:>16.4} {:>16.4}  spread {:>7.3} %  bound {:>5.1} %{}  {}",
            m.name,
            x,
            y,
            spread * 100.0,
            m.bound * 100.0,
            if m.host { "" } else { " (must repeat exactly)" },
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            bad.push(format!(
                "{} differs between same-seed runs: {x} vs {y}",
                m.name
            ));
        }
        if !m.host && metric(&other, m.name) == x {
            bad.push(format!("{} is the same under another seed", m.name));
        }
    }
    if a.failed != b.failed || a.failed != 0.0 {
        bad.push(format!(
            "failed counts {} and {} (must be 0)",
            a.failed, b.failed
        ));
    }
    if a.digest != b.digest {
        bad.push(format!(
            "sim_digest does not repeat: {} vs {}",
            a.digest, b.digest
        ));
    }
    if a.digest == other.digest {
        bad.push("sim_digest is the same under another seed".to_string());
    }
    if traced.digest_head != a.digest_head {
        bad.push(format!(
            "the traced run's head digest {} differs from the untraced {}",
            traced.digest_head, a.digest_head
        ));
    }
    println!(
        "  sim_digest {} repeats; {} under seed {}; traced head {} {}",
        a.digest,
        other.digest,
        seed + 1,
        traced.digest_head,
        if traced.digest_head == a.digest_head {
            "matches"
        } else {
            "DIFFERS"
        }
    );
    Ok(bad)
}

pub fn run(seed: u64) -> ExitCode {
    let mut failures = Vec::new();
    for workload in catalog::WORKLOADS {
        match check_workload(workload, seed) {
            Ok(bad) => failures.extend(bad.into_iter().map(|b| format!("{workload}: {b}"))),
            Err(e) => failures.push(format!("{workload}: {e}")),
        }
    }
    if failures.is_empty() {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
