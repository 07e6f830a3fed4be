//! `figures diff` — differential top-down regression analysis between two
//! recorded runs.
//!
//! A [`RunRecord`] captures one measured (system, workload) point as the
//! paper's §4 raw material: per-phase self counter deltas (the span
//! partition of the measured window, plus the `(unattributed)` remainder)
//! and the cycle-model constants in force. Because the cycle model is
//! linear in the counters,
//!
//! ```text
//! cycles = instr/ideal_ipc + mispredicts*P_br + store_misses*P_sb
//!        + sum_e misses[e] * penalty[e] * overlap[e]
//! ```
//!
//! the cycles-per-transaction of a run decomposes *exactly* into
//! phase x component contributions, and the difference between two runs
//! decomposes into per-cell deltas that sum back to the total
//! cycles-per-txn delta — the invariant the tests pin down. The analyzer
//! ranks those cells so a regression report reads "DBMS D:storage llc-d
//! +312 cycles/txn" instead of "it got slower".

use std::fs;
use std::path::Path;

use engines::SystemKind;
use obs::counts_json;
use obs::json::{self, Json};
use uarch_sim::config::STORE_MISS_PENALTY;
use uarch_sim::counters::{EventCounts, StallEvent};
use uarch_sim::MachineConfig;

use crate::WorkloadCfg;

/// Phase name of the synthetic bucket holding window activity outside
/// every span (driver glue).
pub const UNATTRIBUTED: &str = "(unattributed)";

/// The cycle-model constants a run was scored with. Persisted so a diff
/// between runs recorded under different models still sums correctly
/// (each side is decomposed with its own constants).
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    pub ideal_ipc: f64,
    pub mispredict_penalty: f64,
    pub store_miss_penalty: f64,
    /// Per-class miss penalty, [`StallEvent::ALL`] order.
    pub penalties: [f64; 6],
    /// Per-class stall overlap factor, [`StallEvent::ALL`] order.
    pub overlap: [f64; 6],
}

impl Model {
    pub fn from_config(cfg: &MachineConfig) -> Model {
        let mut penalties = [0.0; 6];
        let mut overlap = [0.0; 6];
        for (i, &e) in StallEvent::ALL.iter().enumerate() {
            penalties[i] = f64::from(cfg.penalty(e));
            overlap[i] = cfg.overlap.get(e);
        }
        Model {
            ideal_ipc: cfg.ideal_ipc,
            mispredict_penalty: cfg.mispredict_penalty,
            store_miss_penalty: STORE_MISS_PENALTY,
            penalties,
            overlap,
        }
    }
}

/// Decomposition component labels: retire slots first, then the two
/// non-bar penalty terms, then the six stall classes.
pub const COMPONENTS: [&str; 9] = [
    "retire",
    "mispredict",
    "store-buf",
    "l1i",
    "l2i",
    "llc-i",
    "l1d",
    "l2d",
    "llc-d",
];

/// The per-component cycle contributions of one counter delta under a
/// model, [`COMPONENTS`] order. Sums to the model's `cycles(c)`.
pub fn components(model: &Model, c: &EventCounts) -> [f64; 9] {
    let mut out = [0.0; 9];
    out[0] = c.instructions as f64 / model.ideal_ipc;
    out[1] = c.mispredicts as f64 * model.mispredict_penalty;
    out[2] = c.store_misses as f64 * model.store_miss_penalty;
    for i in 0..6 {
        out[3 + i] = c.misses[i] as f64 * model.penalties[i] * model.overlap[i];
    }
    out
}

/// One phase's slice of a recorded run: the span self-count partition
/// cell, keyed by `engine:phase`.
#[derive(Clone, Debug)]
pub struct PhaseCounts {
    pub engine: String,
    pub phase: String,
    pub count: u64,
    pub counts: EventCounts,
}

/// A recorded run: everything `figures diff` needs, serialized to JSON.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub system: String,
    pub workload: String,
    pub txns: u64,
    pub tps: f64,
    pub ipc: f64,
    pub model: Model,
    /// Self-count partition of the measured window, including the
    /// [`UNATTRIBUTED`] bucket; sums to the window counters.
    pub phases: Vec<PhaseCounts>,
}

impl RunRecord {
    /// Build a record from a traced measurement.
    pub fn from_measurement(
        system: &str,
        workload: &str,
        cfg: &MachineConfig,
        m: &microarch::Measurement,
    ) -> RunRecord {
        let mut phases: Vec<PhaseCounts> = m
            .phases
            .iter()
            .map(|p| PhaseCounts {
                engine: p.engine.clone(),
                phase: p.phase.clone(),
                count: p.count,
                counts: p.counts.clone(),
            })
            .collect();
        phases.push(PhaseCounts {
            engine: system.to_string(),
            phase: UNATTRIBUTED.to_string(),
            count: 0,
            counts: m.phase_unattributed(),
        });
        RunRecord {
            system: system.to_string(),
            workload: workload.to_string(),
            txns: m.txns,
            tps: m.tps,
            ipc: m.ipc,
            model: Model::from_config(cfg),
            phases,
        }
    }

    /// Total modeled cycles per transaction, computed from the phase
    /// partition itself (so diffs telescope exactly).
    pub fn cycles_per_txn(&self) -> f64 {
        let total: f64 = self
            .phases
            .iter()
            .map(|p| components(&self.model, &p.counts).iter().sum::<f64>())
            .sum();
        total / self.txns.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("system", Json::str(&self.system)),
            ("workload", Json::str(&self.workload)),
            ("txns", Json::u64(self.txns)),
            ("tps", Json::Num(self.tps)),
            ("ipc", Json::Num(self.ipc)),
            (
                "model",
                Json::obj(vec![
                    ("ideal_ipc", Json::Num(self.model.ideal_ipc)),
                    (
                        "mispredict_penalty",
                        Json::Num(self.model.mispredict_penalty),
                    ),
                    (
                        "store_miss_penalty",
                        Json::Num(self.model.store_miss_penalty),
                    ),
                    (
                        "penalties",
                        Json::Arr(self.model.penalties.iter().map(|&p| Json::Num(p)).collect()),
                    ),
                    (
                        "overlap",
                        Json::Arr(self.model.overlap.iter().map(|&o| Json::Num(o)).collect()),
                    ),
                ]),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("engine", Json::str(&p.engine)),
                                ("phase", Json::str(&p.phase)),
                                ("count", Json::u64(p.count)),
                                ("counts", counts_json(&p.counts)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a record back from its JSON form. Returns a description of
    /// the first malformed field on failure.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let str_field = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|s| s.as_str().map(str::to_string))
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let num_field = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(|n| n.as_f64())
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let arr6 = |v: &Json, k: &str| -> Result<[f64; 6], String> {
            let arr = v
                .get(k)
                .and_then(|a| a.as_arr())
                .ok_or_else(|| format!("missing array field {k:?}"))?;
            if arr.len() != 6 {
                return Err(format!("field {k:?} must have 6 entries"));
            }
            let mut out = [0.0; 6];
            for (i, e) in arr.iter().enumerate() {
                out[i] = e
                    .as_f64()
                    .ok_or_else(|| format!("{k:?}[{i}] not a number"))?;
            }
            Ok(out)
        };
        let model_v = v.get("model").ok_or("missing field \"model\"")?;
        let model = Model {
            ideal_ipc: num_field(model_v, "ideal_ipc")?,
            mispredict_penalty: num_field(model_v, "mispredict_penalty")?,
            store_miss_penalty: num_field(model_v, "store_miss_penalty")?,
            penalties: arr6(model_v, "penalties")?,
            overlap: arr6(model_v, "overlap")?,
        };
        let parse_counts = |v: &Json| -> Result<EventCounts, String> {
            let u = |k: &str| -> Result<u64, String> { num_field(v, k).map(|n| n as u64) };
            let misses_a = arr6(v, "misses")?;
            let mut misses = [0u64; 6];
            for (i, m) in misses.iter_mut().enumerate() {
                *m = misses_a[i] as u64;
            }
            Ok(EventCounts {
                instructions: u("instructions")?,
                code_fetches: u("code_fetches")?,
                loads: u("loads")?,
                stores: u("stores")?,
                misses,
                mispredicts: u("mispredicts")?,
                store_misses: u("store_misses")?,
                invalidations: u("invalidations")?,
                // Absent from records written before the NUMA topology
                // landed; default to zero so old runs keep loading.
                remote_accesses: u("remote_accesses").unwrap_or(0),
            })
        };
        let phases_v = v
            .get("phases")
            .and_then(|a| a.as_arr())
            .ok_or("missing array field \"phases\"")?;
        let mut phases = Vec::with_capacity(phases_v.len());
        for p in phases_v {
            phases.push(PhaseCounts {
                engine: str_field(p, "engine")?,
                phase: str_field(p, "phase")?,
                count: num_field(p, "count")? as u64,
                counts: parse_counts(p.get("counts").ok_or("phase missing \"counts\"")?)?,
            });
        }
        Ok(RunRecord {
            system: str_field(v, "system")?,
            workload: str_field(v, "workload")?,
            txns: num_field(v, "txns")? as u64,
            tps: num_field(v, "tps")?,
            ipc: num_field(v, "ipc")?,
            model,
            phases,
        })
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_json().render())
    }

    pub fn load(path: &Path) -> Result<RunRecord, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        RunRecord::from_json(&v)
    }
}

/// Run one traced point and capture it as a [`RunRecord`] (the
/// `figures record` subcommand). Trace artifacts land in a temp dir; only
/// the record is kept.
pub fn record_run(system: SystemKind, workload: &WorkloadCfg, wl_name: &str) -> RunRecord {
    let tmp = std::env::temp_dir().join("imoltp_record");
    let art = crate::trace::run_trace(system, workload, wl_name, &tmp);
    let cfg = MachineConfig::ivy_bridge(1);
    RunRecord::from_measurement(system.label(), wl_name, &cfg, &art.measurement)
}

/// One ranked cell of the differential decomposition: the cycles-per-txn
/// this phase x component contributed in each run, and the delta.
#[derive(Clone, Debug)]
pub struct DiffRow {
    pub engine: String,
    pub phase: String,
    pub component: &'static str,
    /// Cycles/txn in the baseline run.
    pub a: f64,
    /// Cycles/txn in the candidate run.
    pub b: f64,
    /// `b - a`; positive means the candidate got slower here.
    pub delta: f64,
}

/// The full differential report of [`diff_runs`].
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub a_label: String,
    pub b_label: String,
    pub cpt_a: f64,
    pub cpt_b: f64,
    pub tps_a: f64,
    pub tps_b: f64,
    /// All non-zero cells, ranked by |delta| descending.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Total cycles-per-txn delta (candidate minus baseline). Equals the
    /// sum of `rows[*].delta` by construction.
    pub fn cpt_delta(&self) -> f64 {
        self.cpt_b - self.cpt_a
    }

    /// Throughput change in percent; negative means the candidate is
    /// slower than the baseline.
    pub fn tps_change_pct(&self) -> f64 {
        if self.tps_a <= 0.0 {
            return 0.0;
        }
        (self.tps_b - self.tps_a) / self.tps_a * 100.0
    }

    /// Whether the candidate regressed past `threshold_pct` throughput
    /// loss — the CI gate.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.tps_change_pct() < -threshold_pct
    }
}

/// Decompose the throughput delta between two recorded runs into
/// phase x component cycles-per-txn contributions.
pub fn diff_runs(a: &RunRecord, b: &RunRecord) -> DiffReport {
    // Cell map over the union of (engine, phase) keys; sides decompose
    // under their own model, missing cells contribute zero.
    let mut keys: Vec<(String, String)> = Vec::new();
    for p in a.phases.iter().chain(b.phases.iter()) {
        let k = (p.engine.clone(), p.phase.clone());
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let side = |run: &RunRecord, key: &(String, String)| -> [f64; 9] {
        let mut out = [0.0; 9];
        for p in &run.phases {
            if p.engine == key.0 && p.phase == key.1 {
                let c = components(&run.model, &p.counts);
                for i in 0..9 {
                    out[i] += c[i] / run.txns.max(1) as f64;
                }
            }
        }
        out
    };
    let mut rows = Vec::new();
    for key in &keys {
        let ca = side(a, key);
        let cb = side(b, key);
        for (i, &component) in COMPONENTS.iter().enumerate() {
            if ca[i] == 0.0 && cb[i] == 0.0 {
                continue;
            }
            rows.push(DiffRow {
                engine: key.0.clone(),
                phase: key.1.clone(),
                component,
                a: ca[i],
                b: cb[i],
                delta: cb[i] - ca[i],
            });
        }
    }
    rows.sort_by(|x, y| y.delta.abs().total_cmp(&x.delta.abs()));
    DiffReport {
        a_label: format!("{}/{}", a.system, a.workload),
        b_label: format!("{}/{}", b.system, b.workload),
        cpt_a: a.cycles_per_txn(),
        cpt_b: b.cycles_per_txn(),
        tps_a: a.tps,
        tps_b: b.tps,
        rows,
    }
}

/// Render the ranked attribution table.
pub fn render(r: &DiffReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== differential top-down: {} (baseline) vs {} (candidate) ==",
        r.a_label, r.b_label
    );
    let _ = writeln!(
        out,
        "throughput: {:>12.0} -> {:>12.0} tps  ({:+.2}%)",
        r.tps_a,
        r.tps_b,
        r.tps_change_pct()
    );
    let _ = writeln!(
        out,
        "cycles/txn: {:>12.1} -> {:>12.1}      ({:+.1})",
        r.cpt_a,
        r.cpt_b,
        r.cpt_delta()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} | {:>12} {:>12} {:>12}",
        "phase", "component", "baseline", "candidate", "delta c/txn"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10} | {:>12.1} {:>12.1} {:>+12.1}",
            format!("{}:{}", row.engine, row.phase),
            row.component,
            row.a,
            row.b,
            row.delta
        );
    }
    let sum: f64 = r.rows.iter().map(|row| row.delta).sum();
    let _ = writeln!(
        out,
        "{:<28} {:>10} | {:>12} {:>12} {:>+12.1}",
        "(total)", "", "", "", sum
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::DbSize;

    fn micro() -> WorkloadCfg {
        WorkloadCfg::Micro {
            size: DbSize::Mb1,
            rows_per_txn: 1,
            read_only: false,
            strings: false,
        }
    }

    #[test]
    fn components_sum_to_model_cycles() {
        let cfg = MachineConfig::ivy_bridge(1);
        let model = Model::from_config(&cfg);
        let c = EventCounts {
            instructions: 30_000,
            mispredicts: 40,
            store_misses: 11,
            misses: [5, 4, 3, 200, 20, 2],
            ..Default::default()
        };
        let total: f64 = components(&model, &c).iter().sum();
        assert!(
            (total - cfg.cycles(&c)).abs() < 1e-6,
            "decomposition must reproduce the cycle model: {total} vs {}",
            cfg.cycles(&c)
        );
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = record_run(SystemKind::VoltDb, &micro(), "micro");
        let text = rec.to_json().render();
        let back = RunRecord::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.system, rec.system);
        assert_eq!(back.txns, rec.txns);
        assert_eq!(back.phases.len(), rec.phases.len());
        assert_eq!(back.model, rec.model);
        assert!((back.cycles_per_txn() - rec.cycles_per_txn()).abs() < 1e-9);
        // The unattributed bucket is present so the partition is total.
        assert!(back.phases.iter().any(|p| p.phase == UNATTRIBUTED));
    }

    #[test]
    fn diff_deltas_sum_to_total_cycles_per_txn_delta() {
        // Two genuinely different runs of the same workload.
        let a = record_run(SystemKind::VoltDb, &micro(), "micro");
        let b = record_run(SystemKind::ShoreMt, &micro(), "micro");
        let report = diff_runs(&a, &b);
        let sum: f64 = report.rows.iter().map(|r| r.delta).sum();
        let total = report.cpt_delta();
        assert!(
            (sum - total).abs() <= 1e-6 * total.abs().max(1.0),
            "per-cell deltas ({sum}) must sum to the total cycles/txn delta ({total})"
        );
        assert!(!report.rows.is_empty());
        // Ranked: deltas are in non-increasing magnitude.
        assert!(report
            .rows
            .windows(2)
            .all(|w| w[0].delta.abs() >= w[1].delta.abs()));
        let text = render(&report);
        assert!(text.contains("differential top-down"));
    }

    #[test]
    fn identical_runs_diff_to_zero_and_do_not_regress() {
        let a = record_run(SystemKind::VoltDb, &micro(), "micro");
        let report = diff_runs(&a, &a);
        assert!(report.cpt_delta().abs() < 1e-9);
        assert!(report.rows.iter().all(|r| r.delta == 0.0));
        assert!(!report.regressed(1.0));
        // A 10x slower candidate trips the gate.
        let mut slow = a.clone();
        slow.tps /= 10.0;
        assert!(diff_runs(&a, &slow).regressed(30.0));
    }
}
