//! Derived metrics: IPC, SPKI, SPT, throughput, and code-module shares.

use obs::hist::TxnHists;
use serde::Serialize;
use uarch_sim::{EventCounts, MachineConfig, StallEvent};

use crate::profiler::Sample;

/// Cycle share of one code module within a measurement window.
#[derive(Clone, Debug, Serialize)]
pub struct ModuleShare {
    /// Module name.
    pub name: String,
    /// Estimated cycles attributed to the module.
    pub cycles: f64,
    /// Fraction of total window cycles (0..=1).
    pub share: f64,
    /// Whether the module counts as "inside the OLTP engine".
    pub engine_side: bool,
}

/// Per-phase breakdown row derived from span aggregates: the exclusive
/// (self) counter delta of one (engine, phase) pair within the window.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseBreakdown {
    /// Engine that opened the spans.
    pub engine: String,
    /// Phase label (`txn`, `dispatch`, `index`, `cc`, `storage`, `log`,
    /// `commit`).
    pub phase: String,
    /// Spans closed in the window.
    pub count: u64,
    /// Exclusive counter delta (self = inclusive minus children). Summing
    /// these over all rows reproduces the traced portion of the window
    /// total exactly.
    pub counts: EventCounts,
    /// Model cycles of the exclusive delta.
    pub cycles: f64,
    /// Stall cycles per 1000 phase instructions, per miss class.
    pub spki: [f64; 6],
    /// Fraction of total window cycles (0..=1).
    pub share: f64,
}

/// All metrics the paper reports, for one measurement window.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Transactions completed in the window.
    pub txns: u64,
    /// Raw counter deltas.
    pub counts: EventCounts,
    /// Estimated execution cycles (cycle model of the machine config).
    pub cycles: f64,
    /// Instructions retired per cycle.
    pub ipc: f64,
    /// Stall cycles per 1000 instructions, per miss class
    /// (`misses x penalty`, indexed by `StallEvent as usize`).
    pub spki: [f64; 6],
    /// Stall cycles per transaction, per miss class.
    pub spt: [f64; 6],
    /// Instructions per transaction.
    pub instr_per_txn: f64,
    /// Simulated throughput (transactions per simulated second).
    pub tps: f64,
    /// Per-module cycle attribution.
    pub modules: Vec<ModuleShare>,
    /// Per-phase span breakdown (empty when tracing was off).
    pub phases: Vec<PhaseBreakdown>,
    /// Per-transaction distributions from `Txn` spans (`None` when
    /// tracing was off or the driver opened no transaction spans).
    pub txn_hists: Option<TxnHists>,
}

impl Measurement {
    /// Derive a measurement from a profiler sample.
    pub fn from_sample(cfg: &MachineConfig, sample: &Sample, txns: u64) -> Self {
        let c = &sample.counts;
        let cycles = cfg.cycles(c);
        let stalls = cfg.stall_cycles(c);
        let kinstr = (c.instructions as f64 / 1000.0).max(f64::MIN_POSITIVE);
        let per_txn = (txns as f64).max(1.0);
        let mut spki = [0.0; 6];
        let mut spt = [0.0; 6];
        for e in StallEvent::ALL {
            spki[e as usize] = stalls[e as usize] / kinstr;
            spt[e as usize] = stalls[e as usize] / per_txn;
        }
        let modules = sample
            .modules
            .iter()
            .filter(|m| m.counts.instructions > 0 || m.counts.total_misses() > 0)
            .map(|m| {
                let mc = cfg.cycles(&m.counts);
                ModuleShare {
                    name: m.name.clone(),
                    cycles: mc,
                    share: if cycles > 0.0 { mc / cycles } else { 0.0 },
                    engine_side: m.engine_side,
                }
            })
            .collect();
        let mut phases = Vec::new();
        let mut txn_hists = None;
        if let Some(spans) = &sample.spans {
            for ((engine, phase), agg) in &spans.phases {
                let pc = &agg.self_counts;
                let pcycles = cfg.cycles(pc);
                let pstalls = cfg.stall_cycles(pc);
                let pkinstr = (pc.instructions as f64 / 1000.0).max(f64::MIN_POSITIVE);
                let mut pspki = [0.0; 6];
                for e in StallEvent::ALL {
                    pspki[e as usize] = pstalls[e as usize] / pkinstr;
                }
                phases.push(PhaseBreakdown {
                    engine: engine.to_string(),
                    phase: phase.label().to_string(),
                    count: agg.count,
                    counts: pc.clone(),
                    cycles: pcycles,
                    spki: pspki,
                    share: if cycles > 0.0 { pcycles / cycles } else { 0.0 },
                });
            }
            if spans.hists.instructions.count() > 0 {
                txn_hists = Some(spans.hists.clone());
            }
        }
        Measurement {
            txns,
            counts: c.clone(),
            cycles,
            ipc: cfg.ipc(c),
            spki,
            spt,
            instr_per_txn: c.instructions as f64 / per_txn,
            tps: if cycles > 0.0 {
                txns as f64 / (cycles / (cfg.clock_ghz * 1e9))
            } else {
                0.0
            },
            modules,
            phases,
            txn_hists,
        }
    }

    /// Window counter activity not covered by any span's exclusive delta
    /// (computed by saturating subtraction; zero when the driver wrapped
    /// every transaction in a `Txn` span).
    pub fn phase_unattributed(&self) -> EventCounts {
        let mut attributed = EventCounts::default();
        for p in &self.phases {
            attributed.add(&p.counts);
        }
        let t = &self.counts;
        let mut misses = [0u64; 6];
        for (i, m) in misses.iter_mut().enumerate() {
            *m = t.misses[i].saturating_sub(attributed.misses[i]);
        }
        EventCounts {
            instructions: t.instructions.saturating_sub(attributed.instructions),
            code_fetches: t.code_fetches.saturating_sub(attributed.code_fetches),
            loads: t.loads.saturating_sub(attributed.loads),
            stores: t.stores.saturating_sub(attributed.stores),
            misses,
            mispredicts: t.mispredicts.saturating_sub(attributed.mispredicts),
            store_misses: t.store_misses.saturating_sub(attributed.store_misses),
            invalidations: t.invalidations.saturating_sub(attributed.invalidations),
            remote_accesses: t.remote_accesses.saturating_sub(attributed.remote_accesses),
        }
    }

    /// Total stall cycles per 1000 instructions.
    pub fn spki_total(&self) -> f64 {
        self.spki.iter().sum()
    }

    /// Fraction of estimated cycles spent stalled rather than retiring.
    /// Computed from the raw counts so it is invariant under repetition
    /// averaging (where `counts` sums repetitions but `cycles` averages).
    pub fn stall_cycle_fraction(&self, cfg: &MachineConfig) -> f64 {
        let total = cfg.cycles(&self.counts);
        if total <= 0.0 {
            return 0.0;
        }
        let retire = self.counts.instructions as f64 / cfg.ideal_ipc;
        (total - retire).max(0.0) / total
    }

    /// Fraction of window cycles spent in engine-side (storage manager)
    /// modules — the paper's Figure 7 metric.
    pub fn engine_share(&self) -> f64 {
        self.modules
            .iter()
            .filter(|m| m.engine_side)
            .map(|m| m.share)
            .sum()
    }

    /// Numeric average of several measurements (the paper averages three
    /// repetitions). Panics on an empty slice.
    pub fn average(runs: &[Measurement]) -> Measurement {
        assert!(!runs.is_empty(), "cannot average zero runs");
        let n = runs.len() as f64;
        let mut avg = runs[0].clone();
        for r in &runs[1..] {
            avg.cycles += r.cycles;
            avg.ipc += r.ipc;
            avg.instr_per_txn += r.instr_per_txn;
            avg.tps += r.tps;
            for i in 0..6 {
                avg.spki[i] += r.spki[i];
                avg.spt[i] += r.spt[i];
            }
            avg.txns += r.txns;
            avg.counts.add(&r.counts);
            for m in &r.modules {
                if let Some(mine) = avg.modules.iter_mut().find(|x| x.name == m.name) {
                    mine.cycles += m.cycles;
                    mine.share += m.share;
                } else {
                    avg.modules.push(m.clone());
                }
            }
            for p in &r.phases {
                if let Some(mine) = avg
                    .phases
                    .iter_mut()
                    .find(|x| x.engine == p.engine && x.phase == p.phase)
                {
                    mine.count += p.count;
                    mine.counts.add(&p.counts);
                    mine.cycles += p.cycles;
                    mine.share += p.share;
                    for i in 0..6 {
                        mine.spki[i] += p.spki[i];
                    }
                } else {
                    avg.phases.push(p.clone());
                }
            }
            match (&mut avg.txn_hists, &r.txn_hists) {
                (Some(mine), Some(theirs)) => mine.merge(theirs),
                (mine @ None, Some(theirs)) => *mine = Some(theirs.clone()),
                _ => {}
            }
        }
        avg.cycles /= n;
        avg.ipc /= n;
        avg.instr_per_txn /= n;
        avg.tps /= n;
        for i in 0..6 {
            avg.spki[i] /= n;
            avg.spt[i] /= n;
        }
        for m in &mut avg.modules {
            m.cycles /= n;
            m.share /= n;
        }
        for p in &mut avg.phases {
            p.cycles /= n;
            p.share /= n;
            for i in 0..6 {
                p.spki[i] /= n;
            }
        }
        avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{ModuleSample, Sample};

    fn sample_with(instr: u64, llcd: u64) -> Sample {
        let mut counts = EventCounts {
            instructions: instr,
            ..Default::default()
        };
        counts.misses[StallEvent::LlcD as usize] = llcd;
        Sample {
            counts,
            modules: vec![],
            spans: None,
        }
    }

    #[test]
    fn spki_and_spt_use_paper_arithmetic() {
        let cfg = MachineConfig::ivy_bridge(1);
        let m = Measurement::from_sample(&cfg, &sample_with(10_000, 20), 10);
        // 20 misses x 167 cycles = 3340 stall cycles over 10 k-instr.
        assert!((m.spki[StallEvent::LlcD as usize] - 334.0).abs() < 1e-9);
        assert!((m.spt[StallEvent::LlcD as usize] - 334.0).abs() < 1e-9);
        assert!((m.instr_per_txn - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn miss_free_window_has_ideal_ipc_and_no_stalls() {
        let cfg = MachineConfig::ivy_bridge(1);
        let m = Measurement::from_sample(&cfg, &sample_with(9000, 0), 3);
        assert!((m.ipc - 3.0).abs() < 1e-9);
        assert_eq!(m.spki_total(), 0.0);
        assert_eq!(m.stall_cycle_fraction(&cfg), 0.0);
    }

    #[test]
    fn engine_share_sums_engine_modules() {
        let cfg = MachineConfig::ivy_bridge(1);
        let inside = EventCounts {
            instructions: 3000,
            ..Default::default()
        };
        let outside = EventCounts {
            instructions: 7000,
            ..Default::default()
        };
        let counts = EventCounts {
            instructions: 10_000,
            ..Default::default()
        };
        let s = Sample {
            counts,
            modules: vec![
                ModuleSample {
                    name: "index".into(),
                    counts: inside,
                    engine_side: true,
                },
                ModuleSample {
                    name: "parser".into(),
                    counts: outside,
                    engine_side: false,
                },
            ],
            spans: None,
        };
        let m = Measurement::from_sample(&cfg, &s, 10);
        assert!((m.engine_share() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn average_of_identical_runs_is_identity() {
        let cfg = MachineConfig::ivy_bridge(1);
        let m = Measurement::from_sample(&cfg, &sample_with(10_000, 20), 10);
        let avg = Measurement::average(&[m.clone(), m.clone(), m.clone()]);
        assert!((avg.ipc - m.ipc).abs() < 1e-12);
        assert!((avg.spki_total() - m.spki_total()).abs() < 1e-9);
        assert_eq!(avg.txns, 30);
    }
}
