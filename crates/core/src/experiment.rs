//! Experiment methodology: warm-up / measurement windows and repetition
//! averaging, mirroring §3 of the paper (60 s warm-up, middle-30 s
//! sampling, three repetitions, per-worker filtering) in deterministic
//! transaction-count terms.
//!
//! Multi-worker experiments run each worker on its own OS thread against
//! the shared simulated machine. Two pacing disciplines are offered:
//!
//! * [`Pacing::Lockstep`] — a turn gate hands out global transaction
//!   numbers round-robin, so the interleaving (and therefore every
//!   counter) is bit-reproducible run over run. This is how the figure
//!   harness runs; throughput scaling is read off the *simulated* cycle
//!   counters, which the gate does not distort.
//! * [`Pacing::Free`] — workers run unsynchronized between the window
//!   barriers; the interleaving is real and nondeterministic (used by the
//!   concurrency stress tests, not by the figures).

use std::sync::{Condvar, Mutex};

use uarch_sim::Sim;

use crate::measurement::Measurement;
use crate::profiler::{Profiler, Sample};

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

/// How worker threads interleave between window barriers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Transactions execute in a deterministic global round-robin order
    /// (worker `w` runs global transactions `t` with `t % workers == w`).
    Lockstep,
    /// Workers run freely; only the window edges are barrier-aligned.
    Free,
}

/// Run a single-worker experiment: `step(i)` must execute exactly one
/// transaction on the engine under test, which must emit all its simulated
/// activity on `core`.
pub fn measure<F: FnMut(u64)>(
    sim: &Sim,
    core: usize,
    spec: WindowSpec,
    mut step: F,
) -> Measurement {
    let cfg = sim.config();
    let mut txn_no = 0u64;
    for _ in 0..spec.warmup {
        step(txn_no);
        txn_no += 1;
    }
    let mut runs = Vec::with_capacity(spec.reps as usize);
    for _ in 0..spec.reps.max(1) {
        let profiler = Profiler::attach(sim, core);
        for _ in 0..spec.measured {
            step(txn_no);
            txn_no += 1;
        }
        runs.push(Measurement::from_sample(
            &cfg,
            &profiler.sample(),
            spec.measured,
        ));
    }
    Measurement::average(&runs)
}

/// A turn gate: hands the global transaction sequence to worker threads
/// one turn at a time. Poisoned (waking every waiter into a panic) if the
/// holder of a turn panics, so a failed worker cannot deadlock the rest.
struct TurnGate {
    cur: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl TurnGate {
    fn new() -> Self {
        TurnGate {
            cur: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    fn run<R>(&self, turn: u64, f: impl FnOnce() -> R) -> R {
        let mut cur = self.cur.lock().unwrap();
        loop {
            assert!(!cur.1, "turn gate poisoned by a worker panic");
            if cur.0 == turn {
                break;
            }
            cur = self.cv.wait(cur).unwrap();
        }
        drop(cur);
        let r = f();
        self.cur.lock().unwrap().0 += 1;
        self.cv.notify_all();
        r
    }

    fn poison(&self) {
        if let Ok(mut cur) = self.cur.lock() {
            cur.1 = true;
        }
        self.cv.notify_all();
    }
}

/// A reusable rendezvous like [`std::sync::Barrier`], but poisonable so a
/// panicking worker releases (and fails) the others instead of hanging
/// them.
struct SyncPoint {
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
    n: usize,
}

impl SyncPoint {
    fn new(n: usize) -> Self {
        SyncPoint {
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
            n,
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        assert!(!st.2, "sync point poisoned by a worker panic");
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return;
        }
        let generation = st.1;
        while st.1 == generation {
            assert!(!st.2, "sync point poisoned by a worker panic");
            st = self.cv.wait(st).unwrap();
        }
    }

    fn poison(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.2 = true;
        }
        self.cv.notify_all();
    }
}

/// Poisons the gate and sync point if the owning worker thread unwinds.
struct PanicFence<'a> {
    gate: &'a TurnGate,
    barrier: &'a SyncPoint,
}

impl Drop for PanicFence<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.gate.poison();
            self.barrier.poison();
        }
    }
}

/// Run a multi-worker experiment with one OS thread per worker. `make(w)`
/// builds worker `w`'s step closure on the calling thread; each closure is
/// then moved to its worker thread and invoked once per transaction with a
/// globally unique transaction number. Worker `w`'s simulated activity
/// must land on `cores[w]`.
///
/// Building a closure (and the engine session inside it, which holds its
/// core's exclusive `uarch_sim::CorePort`) on this thread and moving it to
/// the worker is the supported pattern: the port's core is claimed by
/// whichever thread issues the first access, and re-claimed after a move.
/// The thread-safety contract is only that one thread at a time drives a
/// given core — which the one-worker-per-core layout guarantees.
///
/// The measured windows are barrier-delimited: all workers finish warm-up,
/// then every repetition attaches per-worker profilers, runs
/// `spec.measured` transactions per worker, and samples — so each window
/// covers exactly the same transactions on every run. The result averages
/// the per-worker measurements, as the paper does ("we filter hardware
/// counter results for each worker thread separately and report their
/// average").
pub fn measure_workers<F, G>(
    sim: &Sim,
    cores: &[usize],
    spec: WindowSpec,
    pacing: Pacing,
    mut make: G,
) -> Measurement
where
    F: FnMut(u64) + Send,
    G: FnMut(usize) -> F,
{
    assert!(!cores.is_empty());
    let n = cores.len() as u64;
    let cfg = sim.config();
    let reps = spec.reps.max(1);
    let steps: Vec<F> = (0..cores.len()).map(&mut make).collect();
    let gate = TurnGate::new();
    let barrier = SyncPoint::new(cores.len());

    let per_worker: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = steps
            .into_iter()
            .enumerate()
            .map(|(w, mut step)| {
                let (gate, barrier) = (&gate, &barrier);
                let core = cores[w];
                scope.spawn(move || {
                    let _fence = PanicFence { gate, barrier };
                    let run_segment = |step: &mut F, base: u64, count: u64| match pacing {
                        Pacing::Lockstep => {
                            for i in 0..count {
                                let t = base + i * n + w as u64;
                                gate.run(t, || step(t));
                            }
                        }
                        Pacing::Free => {
                            for i in 0..count {
                                step(base + i * n + w as u64);
                            }
                        }
                    };
                    run_segment(&mut step, 0, spec.warmup);
                    barrier.wait();
                    let mut samples = Vec::with_capacity(reps as usize);
                    for rep in 0..reps as u64 {
                        let profiler = Profiler::attach(sim, core);
                        barrier.wait(); // all attached before anyone steps
                        let base = (spec.warmup + rep * spec.measured) * n;
                        run_segment(&mut step, base, spec.measured);
                        barrier.wait(); // all done before anyone samples
                        samples.push(profiler.sample());
                        barrier.wait();
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut runs = Vec::with_capacity(reps as usize);
    for rep in 0..reps as usize {
        let per_rep: Vec<Measurement> = per_worker
            .iter()
            .map(|samples| Measurement::from_sample(&cfg, &samples[rep], spec.measured))
            .collect();
        runs.push(Measurement::average(&per_rep));
    }
    Measurement::average(&runs)
}

/// Run a multi-worker experiment from a single shared step function:
/// `step(t, w)` executes global transaction `t` on worker `w` (whose
/// activity lands on core `cores[w]`). Workers run on their own OS
/// threads, interleaved in deterministic lockstep; the shared closure is
/// serialized behind a lock, which the lockstep order makes contention-free.
pub fn measure_multi<F: FnMut(u64, usize) + Send>(
    sim: &Sim,
    cores: &[usize],
    spec: WindowSpec,
    step: F,
) -> Measurement {
    let step = &Mutex::new(step);
    measure_workers(sim, cores, spec, Pacing::Lockstep, |w| {
        move |t| (step.lock().unwrap())(t, w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn measure_workers_runs_threads_with_own_state() {
        let sim = Sim::new(MachineConfig::ivy_bridge(4));
        let m = sim.register_module(ModuleSpec::new("txn", 4096));
        let spec = WindowSpec {
            warmup: 5,
            measured: 20,
            reps: 2,
        };
        let result = measure_workers(&sim, &[0, 1, 2, 3], spec, Pacing::Lockstep, |w| {
            let mem = sim.mem(w).with_module(m);
            let mut local = 0u64; // per-worker state lives on its thread
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
    fn free_pacing_completes_all_transactions() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let m = sim.register_module(ModuleSpec::new("txn", 4096));
        let spec = WindowSpec {
            warmup: 0,
            measured: 50,
            reps: 1,
        };
        let result = measure_workers(&sim, &[0, 1], spec, Pacing::Free, |w| {
            let mem = sim.mem(w).with_module(m);
            move |_t| mem.exec(100)
        });
        assert_eq!(result.counts.instructions, 2 * 50 * 100); // summed across workers
        for c in 0..2 {
            assert_eq!(sim.counters(c).instructions, 50 * 100);
        }
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
