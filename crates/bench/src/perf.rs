//! `bench perf` — wall-clock micro-benchmark of the simulator itself.
//!
//! Every experiment in this repo is bounded by how fast [`uarch_sim`]
//! retires simulated accesses, so this benchmark times the simulator's own
//! hot paths (not any engine): pure L1-hit loads on one core, a mixed
//! transaction-like shape (instruction fetch + reads + a store), the same
//! mixed shape on four cores taking turns, and an instruction-fetch sweep
//! over a Shore-MT-sized code footprint. Results go to
//! `results/perf.json`; `--check <baseline.json>` fails the process when
//! throughput regresses more than 30% against a recorded baseline, which
//! is how CI guards the fast path.
//!
//! The simulated work per iteration is fixed and deterministic — only the
//! wall-clock time varies between runs — so numbers are comparable across
//! commits as long as the shapes below stay untouched.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use obs::json::{self, Json};
use uarch_sim::code::INSTRS_PER_LINE;
use uarch_sim::rng::XorShift64;
use uarch_sim::{BatchOp, MachineConfig, Mem, ModuleSpec, Sim};

/// Cores exercised by the multi-core section.
const MULTI_CORES: usize = 4;

/// One timed section of the benchmark.
#[derive(Clone, Debug)]
pub struct Section {
    pub name: &'static str,
    /// Simulated data accesses (loads + stores) issued.
    pub accesses: u64,
    /// Simulated instructions retired.
    pub instructions: u64,
    pub wall_secs: f64,
}

impl Section {
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_secs
    }

    pub fn instr_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_secs
    }
}

/// Full benchmark result.
#[derive(Clone, Debug)]
pub struct PerfReport {
    pub sections: Vec<Section>,
}

impl PerfReport {
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Render as JSON via the shared [`obs::json`] writer (one schema,
    /// one set of escaping/number rules across every artifact).
    pub fn to_json(&self) -> String {
        Json::obj(vec![(
            "sections",
            Json::Arr(
                self.sections
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(s.name)),
                            ("accesses", Json::u64(s.accesses)),
                            ("instructions", Json::u64(s.instructions)),
                            ("wall_secs", Json::Num(s.wall_secs)),
                            ("accesses_per_sec", Json::Num(s.accesses_per_sec())),
                            ("instr_per_sec", Json::Num(s.instr_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        )])
        .render()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>16} {:>10}",
            "section", "accesses/sec", "instr/sec", "wall"
        );
        for s in &self.sections {
            let _ = writeln!(
                out,
                "{:<18} {:>14.0} {:>16.0} {:>9.0}ms",
                s.name,
                s.accesses_per_sec(),
                s.instr_per_sec(),
                s.wall_secs * 1e3
            );
        }
        out
    }
}

fn time_section(name: &'static str, accesses: u64, instructions: u64, f: impl FnOnce()) -> Section {
    let t0 = Instant::now();
    f();
    Section {
        name,
        accesses,
        instructions,
        wall_secs: t0.elapsed().as_secs_f64().max(1e-9),
    }
}

/// Pure L1-hit loads on one core: a 16 KB buffer that stays L1D-resident,
/// read one line at a time. This is the simulator's absolute fast path.
fn l1_hit_loads(iters: u64) -> Section {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let buf = sim.alloc(16 << 10, 64);
    let mem = sim.mem(0);
    // Warm the buffer so the timed loop only ever hits.
    for off in (0..(16u64 << 10)).step_by(64) {
        mem.read(buf + off, 8);
    }
    let lines = (16u64 << 10) / 64;
    time_section("l1_hit_loads", iters, 0, || {
        let mut off = 0u64;
        for _ in 0..iters {
            mem.read(buf + off * 64, 8);
            off += 1;
            if off == lines {
                off = 0;
            }
        }
    })
}

/// Data accesses and instructions of one [`Mixed::step`].
const MIXED_ACCESSES: u64 = 5;
const MIXED_INSTRUCTIONS: u64 = 60;

/// A transaction-like mix on one core: per step, one `exec` burst on a
/// 24 KB module, four random reads over 1 MB, and one store over 64 KB.
struct Mixed {
    mem: Mem,
    read_region: u64,
    write_region: u64,
    rng: XorShift64,
}

impl Mixed {
    fn new(sim: &Sim, core: usize, seed: u64) -> Self {
        let module = sim.register_module(
            ModuleSpec::new(format!("perf/mix-{core}"), 24 << 10)
                .reuse(2.5)
                .branchiness(0.1),
        );
        Mixed {
            read_region: sim.alloc(1 << 20, 64),
            write_region: sim.alloc(64 << 10, 64),
            mem: sim.mem(core).with_module(module),
            rng: XorShift64::new(seed),
        }
    }

    /// One transaction = one batched commit: a single borrow of the core
    /// covers all six ops, the way engine hot loops are expected to use
    /// the simulator. Event accounting is identical to issuing the ops
    /// separately.
    fn step(&mut self) {
        let (rng, reads) = (&mut self.rng, self.read_region);
        let mut r = || BatchOp::Read {
            addr: reads + rng.next_below((1 << 20) / 64) * 64,
            len: 8,
        };
        let ops = [
            BatchOp::Exec(MIXED_INSTRUCTIONS),
            r(),
            r(),
            r(),
            r(),
            BatchOp::Write {
                addr: self.write_region + self.rng.next_below((64 << 10) / 64) * 64,
                len: 8,
            },
        ];
        self.mem.run_ops(&ops);
    }
}

/// `iters` mixed steps on each of `sim`'s cores, taking turns round-robin
/// on the calling thread as lockstep workers do.
fn mixed(name: &'static str, sim: &Sim, iters: u64) -> Section {
    let mut cores: Vec<Mixed> = (0..sim.cores())
        .map(|core| Mixed::new(sim, core, 0x5EED + core as u64))
        .collect();
    let steps = iters * cores.len() as u64;
    time_section(
        name,
        steps * MIXED_ACCESSES,
        steps * MIXED_INSTRUCTIONS,
        || {
            for _ in 0..iters {
                cores.iter_mut().for_each(Mixed::step);
            }
        },
    )
}

fn mixed_single(iters: u64) -> Section {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    mixed("mixed_1core", &sim, iters)
}

/// The mixed shape on [`MULTI_CORES`] cores of one machine: exercises LLC
/// sharing and store-driven coherence.
fn mixed_multi(iters_per_core: u64) -> Section {
    let sim = Sim::new(MachineConfig::ivy_bridge(MULTI_CORES));
    mixed("mixed_multicore", &sim, iters_per_core)
}

/// The mixed shape on a two-socket machine ([`MULTI_CORES`] cores split
/// across two LLCs), with every allocation homed on socket 0 so socket 1's
/// cores take the cross-socket fill path on each LLC miss: times the NUMA
/// home classification and remote-access charging on top of the coherence
/// `mixed_multicore` already covers.
fn mixed_numa(iters_per_core: u64) -> Section {
    let sim = Sim::new(MachineConfig::numa(2, MULTI_CORES / 2));
    // First-touch everything on socket 0 (the worst half-remote case).
    sim.set_default_home(Some(0));
    mixed("mixed_numa", &sim, iters_per_core)
}

/// Shore-MT's code footprint (`engines::shore_mt`'s module table: bytes,
/// reuse, branchiness) with the instructions each module retires per turn.
const SWEEP_MODULES: [(u32, f64, f64, u64); 7] = [
    (40 << 10, 2.7, 0.24, 5600),
    (28 << 10, 2.5, 0.22, 5200),
    (24 << 10, 2.6, 0.22, 1800),
    (24 << 10, 2.9, 0.16, 2300),
    (24 << 10, 2.9, 0.16, 1000),
    (16 << 10, 2.8, 0.16, 1500),
    (20 << 10, 2.4, 0.18, 3600),
];

/// Instruction fetch the way a disk-based engine drives it: seven modules,
/// 176 KB of code, rotating through the 32 KB L1I on one core. Four
/// fetched lines in five miss L1I and hit L2 — the regime the engines
/// spend most of their host time in, which no other section reaches (the
/// mixed shape's one 24 KB module stays L1I-resident). `accesses` counts
/// unique instruction lines fetched, two cache probes each on an L1I miss.
fn fetch_sweep(turns: u64) -> Section {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    // Unique lines per burst, as `Machine::fetch_code` derives them.
    let lines_per_turn: u64 = SWEEP_MODULES
        .iter()
        .map(|&(_, reuse, _, burst)| {
            ((burst as f64 / (INSTRS_PER_LINE as f64 * reuse)).ceil() as u64).max(1)
        })
        .sum();
    let instr_per_turn: u64 = SWEEP_MODULES.iter().map(|m| m.3).sum();
    let mems: Vec<_> = SWEEP_MODULES
        .iter()
        .enumerate()
        .map(|(i, &(bytes, reuse, branchiness, burst))| {
            let spec = ModuleSpec::new(format!("perf/sweep-{i}"), bytes)
                .reuse(reuse)
                .branchiness(branchiness);
            (sim.mem(0).with_module(sim.register_module(spec)), burst)
        })
        .collect();
    time_section(
        "fetch_sweep",
        turns * lines_per_turn,
        turns * instr_per_turn,
        || {
            for _ in 0..turns {
                for (mem, burst) in &mems {
                    mem.exec(*burst);
                }
            }
        },
    )
}

/// Run the benchmark. Smoke mode shrinks every section ~20x so CI finishes
/// in well under a second.
pub fn run(smoke: bool) -> PerfReport {
    let scale = if smoke { 20 } else { 1 };
    let sections = vec![
        l1_hit_loads(20_000_000 / scale),
        mixed_single(1_500_000 / scale),
        mixed_multi(600_000 / scale),
        mixed_numa(600_000 / scale),
        fetch_sweep(60_000 / scale),
    ];
    PerfReport { sections }
}

/// Extract `(name, accesses_per_sec)` pairs from a perf JSON file written
/// by [`PerfReport::to_json`] (or any earlier hand-rolled baseline — the
/// schema is unchanged). A malformed document yields no rates, which the
/// caller reports as a missing-section mismatch rather than a panic.
fn parse_rates(text: &str) -> Vec<(String, f64)> {
    let Ok(doc) = json::parse(text) else {
        return Vec::new();
    };
    let Some(sections) = doc.get("sections").and_then(|s| s.as_arr()) else {
        return Vec::new();
    };
    sections
        .iter()
        .filter_map(|s| {
            let name = s.get("name")?.as_str()?.to_string();
            let rate = s.get("accesses_per_sec")?.as_f64()?;
            Some((name, rate))
        })
        .collect()
}

/// Compare `report` against a baseline JSON on disk. Returns the list of
/// sections whose accesses/sec dropped below `floor` (e.g. 0.7 = fail on a
/// >30% regression). A missing baseline section is ignored.
pub fn regressions(report: &PerfReport, baseline_path: &Path, floor: f64) -> Vec<String> {
    let Ok(json) = std::fs::read_to_string(baseline_path) else {
        return vec![format!(
            "baseline not readable: {}",
            baseline_path.display()
        )];
    };
    let mut bad = Vec::new();
    for (name, base_rate) in parse_rates(&json) {
        let Some(sec) = report.section(&name) else {
            continue;
        };
        let now = sec.accesses_per_sec();
        if base_rate > 0.0 && now < base_rate * floor {
            bad.push(format!(
                "{name}: {now:.0} accesses/sec < {:.0}% of baseline {base_rate:.0}",
                floor * 100.0
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips_rates() {
        let r = PerfReport {
            sections: vec![Section {
                name: "l1_hit_loads",
                accesses: 1000,
                instructions: 0,
                wall_secs: 0.5,
            }],
        };
        let rates = parse_rates(&r.to_json());
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "l1_hit_loads");
        assert!((rates[0].1 - 2000.0).abs() < 1.0);
    }

    #[test]
    fn smoke_run_produces_all_sections() {
        let r = run(true);
        assert!(r.section("l1_hit_loads").is_some());
        assert!(r.section("mixed_1core").is_some());
        assert!(r.section("mixed_multicore").is_some());
        assert!(r.section("mixed_numa").is_some());
        assert!(r.section("fetch_sweep").is_some());
        for s in &r.sections {
            assert!(s.accesses_per_sec() > 0.0);
        }
    }
}
