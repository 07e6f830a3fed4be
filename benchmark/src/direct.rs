//! The benchmark's own matched direct driver for the two 2-worker
//! workloads: the same engine, cores and transaction count as the public
//! call, driven straight on the sessions through
//! `microarch::measure_workers` in lockstep.
//!
//! `Service::run` and `recover::run` build their simulator inside the
//! call, so nothing can be switched on or off beneath them from outside.
//! The direct driver is where the benchmark can: it runs the window four
//! times — bare, with an `obs::Tracer` per worker, with a `VecSink` added,
//! and with the simulator offline — and the differences are the
//! simulator's and the tracer's share of host time on two lockstep cores.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use imoltp::analysis::{measure_workers, Measurement, Pacing, WindowSpec};
use imoltp::bench::Workload;
use imoltp::db::Db;
use imoltp::obs::sink::VecSink;
use imoltp::obs::{Phase, Tracer};
use imoltp::sim::Sim;

use crate::rig::Outcome;
use crate::spans::{Op, SpanLog};
use crate::stats;

/// One window of the direct driver.
pub struct Window {
    pub secs: f64,
    pub measurement: Measurement,
}

/// The four windows, in the order they ran.
pub struct Direct {
    pub plain: Window,
    /// `obs::Tracer` installed on each worker, no sink.
    pub obs: Window,
    /// The same with a `VecSink` attached.
    pub obs_sink: Window,
    pub offline: Window,
    /// Span records the sink received in its window.
    pub sink_spans: u64,
    /// Transactions per window, all workers together.
    pub txns: u64,
    /// `exec` calls that returned an error, all windows together.
    pub errors: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Watch {
    Nothing,
    Tracer,
    TracerAndSink,
}

/// What the four windows share.
struct Driver<'a, W> {
    sim: &'a Sim,
    db: &'a dyn Db,
    wl: Mutex<W>,
    cores: &'a [usize],
    per_worker: u64,
    sink: VecSink,
    errors: AtomicU64,
}

impl<W: Workload> Driver<'_, W> {
    fn window(&self, watch: Watch, log: &mut SpanLog) -> Window {
        let spec = WindowSpec {
            warmup: 0,
            measured: self.per_worker,
            reps: 1,
        };
        let label = self.db.name();
        log.open(Op::Direct);
        let t = Instant::now();
        let measurement = measure_workers(self.sim, self.cores, spec, Pacing::Lockstep, |core| {
            let mut s = self.db.session(core);
            let mut installed = watch == Watch::Nothing;
            move |_| {
                if !installed {
                    // Tracers are thread-local: install on the worker's own thread.
                    let tracer = Tracer::new(self.sim);
                    if watch == Watch::TracerAndSink {
                        tracer.add_sink(Box::new(self.sink.clone()));
                    }
                    imoltp::obs::install(tracer);
                    installed = true;
                }
                let _t = imoltp::obs::span(label, Phase::Txn, core);
                let r = self
                    .wl
                    .lock()
                    .expect("workload lock")
                    .exec(s.as_mut(), core);
                if r.is_err() {
                    s.abort();
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let secs = t.elapsed().as_secs_f64();
        log.close();
        log.next_txn();
        Window { secs, measurement }
    }
}

/// Run the four windows of `per_worker` transactions per worker on
/// `cores`. The simulator is online again when this returns.
pub fn drive<W: Workload>(
    sim: &Sim,
    db: &dyn Db,
    wl: W,
    cores: &[usize],
    per_worker: u64,
    log: &mut SpanLog,
) -> Direct {
    let driver = Driver {
        sim,
        db,
        wl: Mutex::new(wl),
        cores,
        per_worker,
        sink: VecSink::new(),
        errors: AtomicU64::new(0),
    };
    let plain = driver.window(Watch::Nothing, log);
    let obs = driver.window(Watch::Tracer, log);
    let obs_sink = driver.window(Watch::TracerAndSink, log);
    let sink_spans = driver.sink.take().len() as u64;
    let offline = sim.offline(|| driver.window(Watch::Nothing, log));
    Direct {
        plain,
        obs,
        obs_sink,
        offline,
        sink_spans,
        txns: per_worker * cores.len() as u64,
        errors: driver.errors.load(Ordering::Relaxed),
    }
}

/// What the direct driver's four windows say about the simulator's and
/// the tracer's share of host time on two lockstep cores.
pub fn layers(directs: &[Direct], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&Direct) -> f64| directs.iter().map(f).sum::<f64>();
    let plain = sum(&|d| d.plain.secs);
    let offline = sum(&|d| d.offline.secs);
    let kinstr = sum(&|d| d.plain.measurement.counts.instructions as f64 / 1000.0);
    out.layer("uarch_sim.host_share", 1.0 - offline / plain);
    out.layer(
        "uarch_sim.host_ns_per_kinstr",
        (plain - offline) * 1e9 / kinstr,
    );
    out.layer("uarch_sim.sim_minstr_per_host_s", kinstr / 1000.0 / plain);
    out.layer(
        "obs.tracer_overhead_pct",
        stats::pct_over(sum(&|d| d.obs.secs), plain),
    );
    out.layer(
        "obs.sink_overhead_pct",
        stats::pct_over(sum(&|d| d.obs_sink.secs), plain),
    );
    out.layer(
        "obs.spans_per_txn",
        stats::mean(
            &directs
                .iter()
                .map(|d| d.sink_spans as f64 / d.txns as f64)
                .collect::<Vec<_>>(),
        ),
    );
}

#[cfg(test)]
mod tests {
    use imoltp::bench::{DbSize, MicroBench};
    use imoltp::systems::SystemKind;

    use super::*;
    use crate::rig;

    #[test]
    fn four_windows_run_the_same_count_and_leave_the_simulator_online() {
        let loaded = rig::set_up(SystemKind::VoltDb, 2, 1, || {
            MicroBench::new(DbSize::Mb1).with_rows(4000).seed(1)
        });
        let mut log = SpanLog::new(Instant::now(), 1);
        let d = drive(
            &loaded.sim,
            loaded.db.as_ref(),
            loaded.wl,
            &[0, 1],
            200,
            &mut log,
        );
        assert!(!loaded.sim.machine().offline());
        assert_eq!(d.txns, 400);
        assert_eq!(d.errors, 0);
        assert_eq!(d.plain.measurement.txns, 400);
        // The tracer reads counters and charges nothing: same simulated window.
        assert_eq!(
            d.plain.measurement.counts.instructions > 0,
            d.obs.measurement.counts.instructions > 0
        );
        assert_eq!(d.offline.measurement.counts.instructions, 0);
        assert!(d.sink_spans >= 400, "sink saw {} spans", d.sink_spans);
        assert!(!d.obs.measurement.phases.is_empty());
        assert!(d.plain.measurement.phases.is_empty());
        assert_eq!(log.agg(Op::Direct).count, 4);
    }
}
