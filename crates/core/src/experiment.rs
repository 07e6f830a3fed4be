//! Experiment methodology: warm-up / measurement windows and repetition
//! averaging, mirroring §3 of the paper (60 s warm-up, middle-30 s
//! sampling, three repetitions, per-worker filtering) in deterministic
//! transaction-count terms.
//!
//! Every window runs on the calling thread. Multi-worker experiments take
//! turns in a fixed global order — worker `t % n` runs transaction `t` —
//! so the interleaving, and therefore every counter, is bit-reproducible
//! run over run. Throughput scaling is read off the *simulated* cycle
//! counters, which the host's turn order does not distort; the paper's
//! "counter sets per simulated core/thread" are the per-worker profilers.

use std::cell::RefCell;

use obs::Tracer;
use uarch_sim::Sim;

use crate::measurement::Measurement;
use crate::profiler::Profiler;

/// Window specification for one experiment point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSpec {
    /// Transactions executed (and discarded) to warm caches and structures.
    pub warmup: u64,
    /// Transactions measured per repetition.
    pub measured: u64,
    /// Number of measured repetitions averaged (the paper uses 3).
    pub reps: u32,
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec {
            warmup: 2_000,
            measured: 5_000,
            reps: 3,
        }
    }
}

impl WindowSpec {
    /// A spec scaled by an intensity factor (used by the figure harness to
    /// trade accuracy for wall-clock time via `IMOLTP_SCALE`).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        let s = |v: u64| ((v as f64 * factor).round() as u64).max(50);
        WindowSpec {
            warmup: s(self.warmup),
            measured: s(self.measured),
            reps: self.reps,
        }
    }
}

/// How workers interleave inside a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Transactions execute in a deterministic global round-robin order
    /// (worker `w` runs global transactions `t` with `t % workers == w`).
    Lockstep,
}

/// Run a single-worker experiment: `step(i)` must execute exactly one
/// transaction on the engine under test, which must emit all its simulated
/// activity on `core`.
pub fn measure<F: FnMut(u64)>(sim: &Sim, core: usize, spec: WindowSpec, step: F) -> Measurement {
    let mut step = Some(step);
    measure_workers(sim, &[core], spec, Pacing::Lockstep, |_| {
        step.take().expect("one worker")
    })
}

/// Each worker's thread-local tracer, swapped in around that worker's
/// turns only. A worker starts with no tracer, keeps the one it installs,
/// and loses it when the window ends — what a thread of its own would give
/// it. The caller's tracer is off the thread for the window and comes back
/// on drop, on return and on unwind alike.
struct TracerSlots {
    caller: Option<Tracer>,
    workers: Vec<Option<Tracer>>,
}

impl TracerSlots {
    fn new(workers: usize) -> Self {
        TracerSlots {
            caller: obs::uninstall(),
            workers: vec![None; workers],
        }
    }

    /// Run `f` (one turn, one attach or one sample) as worker `w`.
    fn as_worker<R>(&mut self, w: usize, f: impl FnOnce() -> R) -> R {
        if let Some(tracer) = self.workers[w].take() {
            obs::install(tracer);
        }
        let r = f();
        self.workers[w] = obs::uninstall();
        r
    }
}

impl Drop for TracerSlots {
    fn drop(&mut self) {
        obs::uninstall();
        if let Some(tracer) = self.caller.take() {
            obs::install(tracer);
        }
    }
}

/// Run a multi-worker experiment on the calling thread. `make(w)` builds
/// worker `w`'s step closure, which is then invoked once per transaction
/// with a globally unique transaction number; worker `w`'s simulated
/// activity must land on `cores[w]`. `pacing` names the one interleaving
/// there is, [`Pacing::Lockstep`].
///
/// Each worker keeps its own thread-local tracer slot (see
/// [`obs::install`]): a tracer a step installs is in place for that
/// worker's turns, attach and sample only, and the caller's tracer is
/// hidden for the window. The step closures, and the sessions inside them,
/// are dropped before the caller's tracer comes back.
///
/// The warm-up runs first; then every repetition attaches one profiler per
/// worker, runs `spec.measured` transactions per worker, and samples — so
/// each window covers exactly the same transactions on every run. The
/// result averages the per-worker measurements, as the paper does ("we
/// filter hardware counter results for each worker thread separately and
/// report their average").
pub fn measure_workers<F, G>(
    sim: &Sim,
    cores: &[usize],
    spec: WindowSpec,
    _pacing: Pacing,
    make: G,
) -> Measurement
where
    F: FnMut(u64),
    G: FnMut(usize) -> F,
{
    assert!(!cores.is_empty());
    let n = cores.len();
    let cfg = sim.config();
    let reps = spec.reps.max(1);
    // Declared first, dropped last: the steps go before the caller's
    // tracer is restored.
    let mut slots = TracerSlots::new(n);
    let mut steps: Vec<F> = (0..n).map(make).collect();
    let mut t = 0u64;
    let mut turns = |slots: &mut TracerSlots, per_worker: u64| {
        for _ in 0..per_worker * n as u64 {
            let w = (t % n as u64) as usize;
            slots.as_worker(w, || steps[w](t));
            t += 1;
        }
    };

    turns(&mut slots, spec.warmup);
    let mut runs = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let profilers: Vec<Profiler> = (0..n)
            .map(|w| slots.as_worker(w, || Profiler::attach(sim, cores[w])))
            .collect();
        turns(&mut slots, spec.measured);
        let per_worker: Vec<Measurement> = profilers
            .iter()
            .enumerate()
            .map(|(w, p)| {
                let sample = slots.as_worker(w, || p.sample());
                Measurement::from_sample(&cfg, &sample, spec.measured)
            })
            .collect();
        runs.push(Measurement::average(&per_worker));
    }
    Measurement::average(&runs)
}

/// Run a multi-worker experiment from a single shared step function:
/// `step(t, w)` executes global transaction `t` on worker `w` (whose
/// activity lands on core `cores[w]`), in the lockstep order of
/// [`measure_workers`].
pub fn measure_multi<F: FnMut(u64, usize)>(
    sim: &Sim,
    cores: &[usize],
    spec: WindowSpec,
    step: F,
) -> Measurement {
    let step = &RefCell::new(step);
    measure_workers(sim, cores, spec, Pacing::Lockstep, |w| {
        move |t| (step.borrow_mut())(t, w)
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use obs::sink::VecSink;
    use obs::Phase;
    use uarch_sim::{MachineConfig, ModuleSpec};

    #[test]
    fn measure_counts_only_measured_window() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let m = sim.register_module(ModuleSpec::new("txn", 4096));
        let mem = sim.mem(0).with_module(m);
        let spec = WindowSpec {
            warmup: 10,
            measured: 100,
            reps: 2,
        };
        let result = measure(&sim, 0, spec, |_| mem.exec(1000));
        // Each rep measures 100 txns x 1000 instructions.
        assert_eq!(result.counts.instructions, 2 * 100 * 1000);
        assert_eq!(result.txns, 200);
        assert!((result.instr_per_txn - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_lowers_measured_misses() {
        // With warmup, the compulsory misses of a small loop are excluded.
        let cold = {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let m = sim.register_module(ModuleSpec::new("txn", 16 << 10).reuse(1.0));
            let mem = sim.mem(0).with_module(m);
            let spec = WindowSpec {
                warmup: 0,
                measured: 1,
                reps: 1,
            };
            measure(&sim, 0, spec, |_| mem.exec(4096))
                .counts
                .total_misses()
        };
        let warm = {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let m = sim.register_module(ModuleSpec::new("txn", 16 << 10).reuse(1.0));
            let mem = sim.mem(0).with_module(m);
            let spec = WindowSpec {
                warmup: 50,
                measured: 1,
                reps: 1,
            };
            measure(&sim, 0, spec, |_| mem.exec(4096))
                .counts
                .total_misses()
        };
        assert!(warm < cold, "warm={warm} cold={cold}");
    }

    #[test]
    fn measure_multi_averages_workers() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let m = sim.register_module(ModuleSpec::new("txn", 4096));
        let spec = WindowSpec {
            warmup: 0,
            measured: 10,
            reps: 1,
        };
        let result = measure_multi(&sim, &[0, 1], spec, |_, w| {
            sim.mem(w)
                .with_module(m)
                .exec(if w == 0 { 1000 } else { 3000 });
        });
        // Average of 1000 and 3000 instructions per txn.
        assert!((result.instr_per_txn - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn measure_workers_keeps_per_worker_state() {
        let sim = Sim::new(MachineConfig::ivy_bridge(4));
        let m = sim.register_module(ModuleSpec::new("txn", 4096));
        let spec = WindowSpec {
            warmup: 5,
            measured: 20,
            reps: 2,
        };
        let result = measure_workers(&sim, &[0, 1, 2, 3], spec, Pacing::Lockstep, |w| {
            let mem = sim.mem(w).with_module(m);
            let mut local = 0u64; // per-worker state lives in its closure
            move |_t| {
                local += 1;
                mem.exec(500);
                std::hint::black_box(local);
            }
        });
        // txns and counts sum across workers and reps; ratios average.
        assert_eq!(result.txns, 4 * 20 * 2);
        assert!((result.instr_per_txn - 500.0).abs() < 1e-9);
        // All four cores saw warmup + measured work.
        for c in 0..4 {
            assert_eq!(sim.counters(c).instructions, (5 + 2 * 20) * 500);
        }
    }

    #[test]
    fn lockstep_is_deterministic_and_ordered() {
        // The gate must hand out turns in strict global order; record the
        // observed order and check it equals 0..N with worker t % n.
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let spec = WindowSpec {
            warmup: 3,
            measured: 4,
            reps: 1,
        };
        let order = Mutex::new(Vec::new());
        measure_multi(&sim, &[0, 1], spec, |t, w| {
            order.lock().unwrap().push((t, w));
        });
        let order = order.into_inner().unwrap();
        let expected: Vec<(u64, usize)> = (0..(3 + 4) * 2).map(|t| (t, (t % 2) as usize)).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn lockstep_runs_every_turn_on_the_calling_thread() {
        let sim = Sim::new(MachineConfig::ivy_bridge(3));
        let spec = WindowSpec {
            warmup: 2,
            measured: 3,
            reps: 2,
        };
        let seen = Mutex::new(Vec::new());
        measure_workers(&sim, &[0, 1, 2], spec, Pacing::Lockstep, |_| {
            let seen = &seen;
            move |_| seen.lock().unwrap().push(std::thread::current().id())
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3 * (2 + 2 * 3));
        let caller = std::thread::current().id();
        assert!(seen.iter().all(|&id| id == caller));
    }

    /// A tracer that sends every span it closes to `sink`.
    fn tracer_into(sim: &Sim, sink: &VecSink) -> Tracer {
        let tracer = Tracer::new(sim);
        tracer.add_sink(Box::new(sink.clone()));
        tracer
    }

    #[test]
    fn each_worker_keeps_its_own_tracer_and_the_callers_comes_back() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let caller = VecSink::new();
        obs::install(tracer_into(&sim, &caller));
        let sinks = [VecSink::new(), VecSink::new()];
        let spec = WindowSpec {
            warmup: 1,
            measured: 4,
            reps: 2,
        };
        let m = measure_workers(&sim, &[0, 1], spec, Pacing::Lockstep, |w| {
            let (sim, sink) = (&sim, &sinks[w]);
            move |_| {
                obs::install_with(|| tracer_into(sim, sink));
                let _t = obs::span("X", Phase::Txn, w);
                sim.mem(w).exec(10);
            }
        });
        for (w, sink) in sinks.iter().enumerate() {
            let spans = sink.take();
            assert_eq!(spans.len(), 1 + 2 * 4, "worker {w}");
            assert!(spans.iter().all(|r| r.core == w), "worker {w}");
        }
        assert_eq!(caller.len(), 0, "the caller's tracer saw a worker's span");
        assert!(!m.phases.is_empty());
        drop(obs::span("X", Phase::Txn, 0));
        assert_eq!(caller.len(), 1, "the caller's tracer is back");
        obs::uninstall();
    }

    #[test]
    fn a_panicking_step_puts_the_callers_tracer_back() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let (caller, worker) = (VecSink::new(), VecSink::new());
        obs::install(tracer_into(&sim, &caller));
        let spec = WindowSpec {
            warmup: 0,
            measured: 5,
            reps: 1,
        };
        let window = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            measure_workers(&sim, &[0, 1], spec, Pacing::Lockstep, |w| {
                let (sim, worker) = (&sim, &worker);
                move |t| {
                    obs::install_with(|| tracer_into(sim, worker));
                    if w == 1 && t == 3 {
                        panic!("worker 1 fails at turn 3");
                    }
                }
            })
        }));
        assert!(window.is_err());
        drop(obs::span("X", Phase::Txn, 0));
        assert_eq!(caller.len(), 1, "the caller's tracer is back");
        assert_eq!(worker.len(), 0, "no worker's tracer is left installed");
        obs::uninstall();
    }

    #[test]
    fn scaled_window_clamps_to_minimum() {
        let spec = WindowSpec {
            warmup: 100,
            measured: 100,
            reps: 3,
        }
        .scaled(0.001);
        assert_eq!(spec.warmup, 50);
        assert_eq!(spec.measured, 50);
    }
}
