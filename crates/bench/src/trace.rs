//! `bench trace` — run one (system, workload) point with the tracing
//! layer enabled and export the span stream as Chrome/Perfetto trace JSON
//! and JSONL, plus a per-phase breakdown table.
//!
//! Of the plain workload loops, this is the only one that installs a
//! [`obs::Tracer`] (the chaos and service harnesses install their own);
//! every other path runs with tracing disabled and is bit-identical to a
//! build without the `obs` crate wired in.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use engines::{SystemBuilder, SystemKind};
use microarch::Measurement;
use obs::flame::StallComponent;
use obs::sink::{JsonlSink, PerfettoSink, VecSink};
use obs::{Phase, Tracer};
use uarch_sim::{EventCounts, MachineConfig};

use crate::names::slug;
use crate::{drive, WorkloadCfg};

/// Result of a traced run: the measurement plus the export paths.
pub struct TraceArtifacts {
    /// The windowed measurement (includes the per-phase breakdown).
    pub measurement: Measurement,
    /// Chrome/Perfetto `trace_event` JSON (load in ui.perfetto.dev).
    pub perfetto: PathBuf,
    /// One span record per line.
    pub jsonl: PathBuf,
    /// Collapsed-stack flamegraph (`--flame` only).
    pub folded: Option<PathBuf>,
    /// Total weight of the folded stacks — by construction equal to the
    /// selected component's stall cycles counted over the traced period.
    pub flame_total: Option<u64>,
}

/// Run one traced point on a single core. The tracer is installed only
/// for the duration of the run; `Phase::Txn` root spans are opened by
/// [`drive`] around every transaction, and the engine opens the inner
/// phase spans itself.
pub fn run_trace(
    system: SystemKind,
    workload: &WorkloadCfg,
    wl_name: &str,
    out_dir: &Path,
) -> TraceArtifacts {
    run_trace_flame(system, workload, wl_name, out_dir, 1, None)
}

/// Run one traced point with `workers` lockstep sessions. With one worker
/// its tracer streams straight to the Perfetto/JSONL exports as spans
/// close; with more, every worker installs its own [`Tracer`] feeding an
/// in-memory sink, and after the window the per-worker span streams are
/// merged by simulated timestamp and replayed through a harness tracer
/// that owns the exports — one coherent trace file across all cores.
///
/// When `flame` selects a component the span stream is additionally folded
/// into a stall-weighted collapsed-stack flamegraph. The fold's weights
/// plus per-core `(untraced)` residuals sum exactly to the component's
/// stall cycles counted over the traced period (counters snapshotted
/// around the run), which [`TraceArtifacts::flame_total`] reports.
pub fn run_trace_flame(
    system: SystemKind,
    workload: &WorkloadCfg,
    wl_name: &str,
    out_dir: &Path,
    workers: usize,
    flame: Option<StallComponent>,
) -> TraceArtifacts {
    fs::create_dir_all(out_dir).expect("create trace output dir");
    let sys_slug = slug(system.label());
    let perfetto = out_dir.join(format!("trace_{sys_slug}_{wl_name}.perfetto.json"));
    let jsonl = out_dir.join(format!("trace_{sys_slug}_{wl_name}.jsonl"));

    let mut w = workload.build();
    let machine = MachineConfig::ivy_bridge(workers);
    let builder = SystemBuilder::new(system).cores(workers);
    let (sim, db) = builder.load(machine, |db| w.setup(db, workers));
    let clock_ghz = sim.config().clock_ghz;

    let file_sinks = |tracer: &Tracer| {
        let pf = fs::File::create(&perfetto).expect("create perfetto file");
        tracer.add_sink(Box::new(PerfettoSink::new(
            Box::new(BufWriter::new(pf)),
            clock_ghz,
        )));
        let jf = fs::File::create(&jsonl).expect("create jsonl file");
        tracer.add_sink(Box::new(JsonlSink::new(Box::new(BufWriter::new(jf)))));
    };
    // One in-memory span stream per worker: what the merge reads with
    // several workers, and what the flame fold reads with one.
    let cores: Vec<usize> = (0..workers).collect();
    let sinks: Vec<VecSink> = cores.iter().map(|_| VecSink::new()).collect();
    let worker_tracer = |worker: usize| {
        let tracer = Tracer::new(&sim);
        tracer.add_sink(Box::new(sinks[worker].clone()));
        tracer
    };

    // Counter baseline for the flame window: every span the tracer will
    // record falls between this snapshot and the one taken after the run,
    // so the per-core residual (window minus span self weights) is the
    // true untraced remainder.
    let flame_start: Vec<EventCounts> = sim.counters_all();

    // A lone worker's tracer also streams to the files in span-close
    // order, which a replay of the in-memory records (start order) would
    // not reproduce. Only the flame fold needs those records.
    let streamed = (workers == 1).then(|| {
        let tracer = match flame {
            Some(_) => worker_tracer(0),
            None => Tracer::new(&sim),
        };
        file_sinks(&tracer);
        tracer
    });
    let install =
        |worker| obs::install_with(|| streamed.clone().unwrap_or_else(|| worker_tracer(worker)));
    let measurement = drive(&sim, &*db, w.as_mut(), &cores, workload.window(), install);
    let records = match streamed {
        Some(streamed) => {
            streamed.finish();
            sinks[0].take()
        }
        None => {
            let merged = obs::merge_span_streams(sinks.iter().map(|s| s.take()).collect());
            let tracer = Tracer::new(&sim);
            file_sinks(&tracer);
            for rec in &merged {
                tracer.ingest(rec);
            }
            tracer.finish();
            merged
        }
    };

    let (folded_path, flame_total) = match flame {
        Some(comp) => {
            let cfg = sim.config();
            let mut folded = obs::flame::fold(&records, &cfg, comp);
            let window_by_core: Vec<(usize, EventCounts)> = sim
                .counters_all()
                .into_iter()
                .enumerate()
                .map(|(core, end)| (core, end.delta(&flame_start[core])))
                .collect();
            obs::flame::add_untraced(&mut folded, &cfg, comp, &window_by_core);
            let path = out_dir.join(format!(
                "trace_{sys_slug}_{wl_name}.{}.folded",
                comp.label()
            ));
            fs::write(&path, obs::flame::render(&folded)).expect("write folded stacks");
            (Some(path), Some(obs::flame::total_weight(&folded)))
        }
        None => (None, None),
    };

    TraceArtifacts {
        measurement,
        perfetto,
        jsonl,
        folded: folded_path,
        flame_total,
    }
}

/// Render the per-phase table + per-transaction histogram summary for one
/// traced measurement.
pub fn render(m: &Measurement, title: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== per-phase breakdown: {title} ==");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>11} {:>7} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "phase", "spans", "instr", "share", "L1I", "L2I", "LLCI", "L1D", "L2D", "LLCD", "SPKI"
    );
    for p in &m.phases {
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>11} {:>6.1}% | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>7.1}",
            format!("{}:{}", p.engine, p.phase),
            p.count,
            p.counts.instructions,
            p.share * 100.0,
            p.spki[0],
            p.spki[1],
            p.spki[2],
            p.spki[3],
            p.spki[4],
            p.spki[5],
            p.spki.iter().sum::<f64>(),
        );
    }
    let un = m.phase_unattributed();
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>11}   (driver glue outside any span)",
        "<unattributed>", "-", un.instructions
    );
    if let Some(h) = &m.txn_hists {
        let _ = writeln!(
            out,
            "-- per-transaction histograms (window of {} txns) --",
            h.instructions.count()
        );
        let row = |name: &str, hist: &obs::hist::Histogram| {
            format!(
                "{:<22} {:>9.0} {:>9} {:>9} {:>9} {:>9}",
                name,
                hist.mean(),
                hist.quantile(0.50),
                hist.quantile(0.90),
                hist.quantile(0.99),
                hist.max()
            )
        };
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "metric", "mean", "p50", "p90", "p99", "max"
        );
        let _ = writeln!(out, "{}", row("instructions/txn", &h.instructions));
        let _ = writeln!(out, "{}", row("cycles/txn", &h.cycles));
        for (i, label) in obs::stall_labels().iter().enumerate() {
            if h.misses[i].count() > 0 && h.misses[i].max() > 0 {
                let _ = writeln!(out, "{}", row(&format!("{label} misses/txn"), &h.misses[i]));
            }
        }
    }
    out
}

/// `bench phases` — per-phase total SPKI for every system on one
/// workload, as a compact grid. Runs sequentially because the tracer is
/// thread-local.
pub fn phases_table(workload: &str, cfg: &WorkloadCfg) -> String {
    use std::fmt::Write as _;
    let phases = Phase::ALL;
    let mut out = String::new();
    let _ = writeln!(out, "== per-phase SPKI ({workload}; stall cycles per k-instr of the window attributed to each phase's own work) ==");
    let _ = write!(out, "{:<10}", "system");
    for p in phases {
        let _ = write!(out, " {:>9}", p.label());
    }
    let _ = writeln!(out, " {:>9}", "<none>");
    let tmp = std::env::temp_dir().join("imoltp_phases");
    for sys in crate::figures::systems() {
        let sys = match (sys, workload) {
            (SystemKind::DbmsM { .. }, "tpcc") => SystemKind::dbms_m_for_tpcc(),
            (s, _) => s,
        };
        let art = run_trace(sys, cfg, workload, &tmp);
        let m = &art.measurement;
        let k_instr = m.counts.instructions as f64 / 1000.0;
        let _ = write!(out, "{:<10}", sys.label());
        for ph in phases {
            let spki: f64 = m
                .phases
                .iter()
                .filter(|b| b.phase == ph.label())
                .map(|b| b.spki.iter().sum::<f64>())
                .sum();
            // `+ 0.0` normalizes the -0.0 an empty sum yields.
            let _ = write!(out, " {:>9.1}", spki + 0.0);
        }
        // Stalls outside every span (driver glue), per k-instr.
        let cfg_m = MachineConfig::ivy_bridge(1);
        let un = m.phase_unattributed();
        let un_spki: f64 = if k_instr > 0.0 {
            cfg_m.stall_cycles(&un).iter().sum::<f64>() / k_instr
        } else {
            0.0
        };
        let _ = writeln!(out, " {:>9.1}", un_spki);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::DbSize;

    #[test]
    fn traced_micro_run_produces_phases_and_files() {
        let dir = std::env::temp_dir().join("imoltp_trace_test");
        let cfg = WorkloadCfg::Micro {
            size: DbSize::Mb1,
            rows_per_txn: 1,
            read_only: false,
            strings: false,
        };
        let art = run_trace(SystemKind::HyPer, &cfg, "micro", &dir);
        let m = &art.measurement;
        assert!(
            !m.phases.is_empty(),
            "traced run must carry phase breakdowns"
        );
        // The span self-counts partition the window: phases + unattributed
        // sum exactly to the window instruction total.
        let span_instr: u64 = m.phases.iter().map(|p| p.counts.instructions).sum();
        let total = span_instr + m.phase_unattributed().instructions;
        assert_eq!(total, m.counts.instructions);
        // A Txn root span exists and covers every measured transaction.
        let txn = m
            .phases
            .iter()
            .find(|p| p.phase == "txn")
            .expect("txn phase");
        assert_eq!(txn.count, m.txns);
        // Exports exist and the Perfetto one parses as JSON.
        let perfetto = std::fs::read_to_string(&art.perfetto).unwrap();
        let doc = obs::json::parse(&perfetto).expect("perfetto JSON parses");
        assert!(doc.get("traceEvents").is_some());
        assert!(std::fs::metadata(&art.jsonl).unwrap().len() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flame_export_total_matches_measured_stall_cycles() {
        let dir = std::env::temp_dir().join("imoltp_trace_flame_test");
        let cfg = WorkloadCfg::Micro {
            size: DbSize::Mb1,
            rows_per_txn: 1,
            read_only: false,
            strings: false,
        };
        let comp = StallComponent::Total;
        let art = run_trace_flame(SystemKind::VoltDb, &cfg, "micro", &dir, 1, Some(comp));
        let folded = art.folded.expect("folded path");
        let total = art.flame_total.expect("flame total");
        assert!(total > 0, "a traced run must accumulate stall cycles");
        // The acceptance invariant: the collapsed-stack file's total
        // weight equals the run's measured stall cycles for the selected
        // component — every line parses and the weights sum back exactly.
        let text = std::fs::read_to_string(&folded).unwrap();
        let parsed: u64 = text
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(parsed, total);
        // Span frames from the engine appear under the core root.
        assert!(
            text.lines().any(|l| l.starts_with("core0;VoltDB:txn")),
            "folded stacks carry engine span frames:\n{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_worker_trace_merges_per_thread_streams() {
        let dir = std::env::temp_dir().join("imoltp_trace_mt_test");
        let cfg = WorkloadCfg::Micro {
            size: DbSize::Mb1,
            rows_per_txn: 1,
            read_only: false,
            strings: false,
        };
        let art = run_trace_flame(SystemKind::VoltDb, &cfg, "micro_mt", &dir, 2, None);
        let m = &art.measurement;
        assert!(!m.phases.is_empty(), "merged run must carry phases");
        let txn = m
            .phases
            .iter()
            .find(|p| p.phase == "txn")
            .expect("txn phase");
        assert_eq!(txn.count, m.txns);
        // The merged Perfetto document contains spans from both cores and
        // stays timestamp-ordered despite interleaved per-worker streams.
        let perfetto = std::fs::read_to_string(&art.perfetto).unwrap();
        let doc = obs::json::parse(&perfetto).expect("perfetto JSON parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut cores = std::collections::BTreeSet::new();
        let mut last_ts = f64::NEG_INFINITY;
        for e in events {
            if let Some(t) = e.get("tid").and_then(|t| t.as_f64()) {
                cores.insert(t as u64);
            }
            if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
                assert!(ts >= last_ts, "timestamps must be non-decreasing");
                last_ts = ts;
            }
        }
        assert!(
            cores.contains(&0) && cores.contains(&1),
            "spans from both cores: {cores:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
