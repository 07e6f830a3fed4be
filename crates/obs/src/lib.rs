//! Deterministic observability for the simulated OLTP engines.
//!
//! This crate adds a tracing layer with **no dependence on wall-clock
//! time**: spans are delimited by snapshots of the simulator's event
//! counters, and "timestamps" are the cycle model evaluated on those
//! cumulative counters (monotone, so they order like a clock). Runs are
//! therefore bit-reproducible with or without tracing — opening a span
//! only *reads* counters, never charges the simulation.
//!
//! The pieces:
//!
//! - [`span`] — guard-style phase spans the engines open around
//!   dispatch / index / CC / storage / log / commit work. Spans nest;
//!   each records its inclusive [`EventCounts`] delta and its *self*
//!   delta (inclusive minus children — the partition used for per-phase
//!   breakdowns, which sums exactly to the enclosing window).
//! - [`Tracer`] — per-thread collector installed with [`install`]. With
//!   no tracer installed, [`span`] returns an inert guard and engine code
//!   paths are unchanged.
//! - [`sink::TraceSink`] — pluggable span-event consumers: an in-memory
//!   ring buffer, a JSONL writer, and a Chrome/Perfetto `trace_event`
//!   exporter (openable at ui.perfetto.dev).
//! - [`hist::Histogram`] — log-bucketed per-transaction distributions
//!   (instructions, cycles, misses per level), maintained on `Txn` span
//!   close and windowed via snapshot/delta like the raw counters.
//! - [`metrics`] — the always-on, sharded metrics registry (counters,
//!   gauges, histograms by name+labels) with Prometheus-text and JSON
//!   exporters; engines, the retry layer and the fault injector publish
//!   into it unconditionally.
//! - [`flame`] — folds a span stream into stall-weighted collapsed-stack
//!   flamegraphs (`bench trace --flame`).

pub mod flame;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod sink;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hist::TxnHists;
use json::Json;
use sink::TraceSink;
use uarch_sim::config::MachineConfig;
use uarch_sim::counters::{EventCounts, StallEvent};
use uarch_sim::Sim;

/// The transaction phases the paper's breakdown distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Wire-frame decode and request validation in the service front end
    /// (before a transaction exists).
    Parse,
    /// Whole transaction (opened by the driver around each `exec`).
    Txn,
    /// Network receive, parsing, planning, transaction begin — everything
    /// before the first data access.
    Dispatch,
    /// Index probes and maintenance.
    Index,
    /// Concurrency control: lock manager, latching, validation.
    Cc,
    /// Tuple access in heap / row store / version store.
    Storage,
    /// Log-record construction and WAL insertion.
    Log,
    /// Commit protocol: log flush decision, lock release, cleanup.
    Commit,
    /// Response-frame encode and delivery in the service front end (after
    /// the transaction has committed or aborted).
    Respond,
    /// Fuzzy-checkpoint capture running alongside the workload.
    Checkpoint,
    /// Crash-recovery replay (checkpoint load, redo, undo).
    Recovery,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 11] = [
        Phase::Parse,
        Phase::Txn,
        Phase::Dispatch,
        Phase::Index,
        Phase::Cc,
        Phase::Storage,
        Phase::Log,
        Phase::Commit,
        Phase::Respond,
        Phase::Checkpoint,
        Phase::Recovery,
    ];

    /// Stable lowercase identifier (JSON field values, CLI args).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Txn => "txn",
            Phase::Dispatch => "dispatch",
            Phase::Index => "index",
            Phase::Cc => "cc",
            Phase::Storage => "storage",
            Phase::Log => "log",
            Phase::Commit => "commit",
            Phase::Respond => "respond",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
        }
    }
}

/// One closed span, as delivered to sinks.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub engine: &'static str,
    pub phase: Phase,
    pub core: usize,
    /// Nesting depth at open (0 = root).
    pub depth: u32,
    /// Global open-order sequence number (ties broken by it when sorting).
    pub seq: u64,
    /// Cycle-model evaluation of the core's cumulative counters at open /
    /// close — the deterministic analogue of a timestamp.
    pub start_cycles: f64,
    pub end_cycles: f64,
    /// Counter delta over the whole span, children included.
    pub incl: EventCounts,
    /// Counter delta exclusive of child spans (partition unit).
    pub self_counts: EventCounts,
    /// Cumulative per-class stall cycles for this core at span close
    /// (drives Perfetto counter tracks).
    pub end_stalls: [f64; 6],
}

/// Per-(engine, phase) running aggregate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of self (exclusive) deltas.
    pub self_counts: EventCounts,
    /// Sum of inclusive deltas.
    pub incl_counts: EventCounts,
}

impl PhaseAgg {
    fn add(&mut self, other: &PhaseAgg) {
        self.count += other.count;
        self.self_counts.add(&other.self_counts);
        self.incl_counts.add(&other.incl_counts);
    }

    fn delta(&self, earlier: &PhaseAgg) -> PhaseAgg {
        PhaseAgg {
            count: self.count - earlier.count,
            self_counts: self.self_counts.delta(&earlier.self_counts),
            incl_counts: self.incl_counts.delta(&earlier.incl_counts),
        }
    }
}

/// Aggregation key: which engine opened the span, and for which phase.
pub type AggKey = (&'static str, Phase);

/// Snapshot of the tracer's cumulative aggregation state. Two snapshots
/// subtract to a window (the profiler's attach/sample discipline).
#[derive(Clone, Debug, Default)]
pub struct AggSnapshot {
    pub phases: BTreeMap<AggKey, PhaseAgg>,
    pub hists: TxnHists,
}

impl AggSnapshot {
    /// `self - earlier`. Keys absent from `earlier` use a zero baseline
    /// (aggregates are cumulative and monotone, so a key appearing
    /// mid-run simply had no spans before the baseline was taken).
    pub fn delta(&self, earlier: &AggSnapshot) -> AggSnapshot {
        let zero = PhaseAgg::default();
        let phases = self
            .phases
            .iter()
            .map(|(k, v)| (*k, v.delta(earlier.phases.get(k).unwrap_or(&zero))))
            .filter(|(_, v)| v.count > 0 || v.incl_counts != EventCounts::default())
            .collect();
        AggSnapshot {
            phases,
            hists: self.hists.delta(&earlier.hists),
        }
    }

    /// Accumulate another snapshot (for averaging repetitions).
    pub fn merge(&mut self, other: &AggSnapshot) {
        for (k, v) in &other.phases {
            self.phases.entry(*k).or_default().add(v);
        }
        self.hists.merge(&other.hists);
    }

    /// Sum of self (exclusive) counter deltas across all phases — equals
    /// the counter total of all traced regions, since self deltas
    /// partition every root span exactly.
    pub fn self_total(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for agg in self.phases.values() {
            total.add(&agg.self_counts);
        }
        total
    }
}

struct OpenSpan {
    engine: &'static str,
    phase: Phase,
    seq: u64,
    depth: u32,
    start: EventCounts,
    start_cycles: f64,
    /// Sum of inclusive deltas of already-closed direct children.
    child_incl: EventCounts,
}

struct Inner {
    sim: Sim,
    cfg: MachineConfig,
    stacks: Vec<Vec<OpenSpan>>,
    next_seq: u64,
    /// Aggregates and histograms are kept per core so per-core profilers
    /// can window their own core's spans without double counting when
    /// multi-core samples merge.
    agg: Vec<BTreeMap<AggKey, PhaseAgg>>,
    hists: Vec<TxnHists>,
    sinks: Vec<Box<dyn TraceSink>>,
}

/// Per-thread span collector. Clone the handle before [`install`]ing it
/// to keep access to aggregates while tracing runs.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

impl Tracer {
    /// Create a tracer bound to one simulator (counter source and cycle
    /// model).
    pub fn new(sim: &Sim) -> Tracer {
        let cfg = sim.config();
        let cores = sim.cores();
        Tracer {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                cfg,
                stacks: (0..cores).map(|_| Vec::new()).collect(),
                next_seq: 0,
                agg: (0..cores).map(|_| BTreeMap::new()).collect(),
                hists: (0..cores).map(|_| TxnHists::default()).collect(),
                sinks: Vec::new(),
            })),
        }
    }

    /// Attach a sink; every subsequently closed span is delivered to it.
    pub fn add_sink(&self, sink: Box<dyn TraceSink>) {
        self.inner.borrow_mut().sinks.push(sink);
    }

    /// Snapshot cumulative aggregates and histograms, merged across all
    /// cores.
    pub fn snapshot(&self) -> AggSnapshot {
        let inner = self.inner.borrow();
        let mut snap = AggSnapshot::default();
        for core in 0..inner.agg.len() {
            snap.merge(&AggSnapshot {
                phases: inner.agg[core].clone(),
                hists: inner.hists[core].clone(),
            });
        }
        snap
    }

    /// Snapshot one core's cumulative aggregates and histograms (what a
    /// per-core profiler windows).
    pub fn snapshot_core(&self, core: usize) -> AggSnapshot {
        let inner = self.inner.borrow();
        AggSnapshot {
            phases: inner.agg[core].clone(),
            hists: inner.hists[core].clone(),
        }
    }

    /// Flush and finalize all sinks (writes the Perfetto document, etc.).
    pub fn finish(&self) {
        let mut inner = self.inner.borrow_mut();
        debug_assert!(
            inner.stacks.iter().all(|s| s.is_empty()),
            "tracer finished with open spans"
        );
        for sink in &mut inner.sinks {
            sink.finish();
        }
    }

    /// Ingest a span record that was closed on another tracer:
    /// folds it into this tracer's per-core aggregates/histograms and
    /// forwards it to the sinks, exactly as if the span had closed here.
    /// The multi-worker harness uses this to merge per-worker span
    /// streams (pre-sorted with [`merge_span_streams`]) into one exported
    /// stream.
    pub fn ingest(&self, rec: &SpanRecord) {
        let mut inner = self.inner.borrow_mut();
        {
            let agg = inner.agg[rec.core]
                .entry((rec.engine, rec.phase))
                .or_default();
            agg.count += 1;
            agg.self_counts.add(&rec.self_counts);
            agg.incl_counts.add(&rec.incl);
        }
        if rec.phase == Phase::Txn {
            let cycles = (rec.end_cycles - rec.start_cycles).round() as u64;
            inner.hists[rec.core]
                .instructions
                .record(rec.incl.instructions);
            inner.hists[rec.core].cycles.record(cycles);
            for i in 0..6 {
                inner.hists[rec.core].misses[i].record(rec.incl.misses[i]);
            }
        }
        for sink in &mut inner.sinks {
            sink.record(rec);
        }
    }

    fn open(&self, engine: &'static str, phase: Phase, core: usize) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let start = inner.sim.counters(core);
        let start_cycles = inner.cfg.cycles(&start);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let depth = inner.stacks[core].len() as u32;
        inner.stacks[core].push(OpenSpan {
            engine,
            phase,
            seq,
            depth,
            start,
            start_cycles,
            child_incl: EventCounts::default(),
        });
        seq
    }

    fn close(&self, core: usize, seq: u64) {
        let mut inner = self.inner.borrow_mut();
        let end = inner.sim.counters(core);
        let end_cycles = inner.cfg.cycles(&end);
        let end_stalls = inner.cfg.stall_cycles(&end);
        let open = inner.stacks[core].pop().expect("span close without open");
        debug_assert_eq!(open.seq, seq, "span guards dropped out of LIFO order");
        let incl = end.delta(&open.start);
        // Exact: children are fully contained, so their inclusive sum
        // never exceeds the parent's inclusive delta.
        let self_counts = incl.delta(&open.child_incl);
        if let Some(parent) = inner.stacks[core].last_mut() {
            parent.child_incl.add(&incl);
        }
        let agg = inner.agg[core]
            .entry((open.engine, open.phase))
            .or_default();
        agg.count += 1;
        agg.self_counts.add(&self_counts);
        agg.incl_counts.add(&incl);
        if open.phase == Phase::Txn {
            let cycles = (end_cycles - open.start_cycles).round() as u64;
            inner.hists[core].instructions.record(incl.instructions);
            inner.hists[core].cycles.record(cycles);
            for i in 0..6 {
                inner.hists[core].misses[i].record(incl.misses[i]);
            }
        }
        if !inner.sinks.is_empty() {
            let rec = SpanRecord {
                engine: open.engine,
                phase: open.phase,
                core,
                depth: open.depth,
                seq: open.seq,
                start_cycles: open.start_cycles,
                end_cycles,
                incl,
                self_counts,
                end_stalls,
            };
            for sink in &mut inner.sinks {
                sink.record(&rec);
            }
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Install a tracer for the current thread. Engine span calls are inert
/// until this runs; keep a [`Tracer`] clone to read aggregates.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Remove and return the current thread's tracer, if any.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Install `make()` for the current thread unless it already has a
/// tracer. The lockstep harness gives each worker its own tracer slot, so
/// step closures call this at the top of every turn and only each
/// worker's first call builds anything.
pub fn install_with(make: impl FnOnce() -> Tracer) {
    TRACER.with(|t| {
        t.borrow_mut().get_or_insert_with(make);
    });
}

/// Snapshot one core's aggregates from the installed tracer (`None` when
/// tracing is off). This is what a per-core profiler calls at window
/// boundaries.
pub fn snapshot_installed_core(core: usize) -> Option<AggSnapshot> {
    TRACER.with(|t| t.borrow().as_ref().map(|tr| tr.snapshot_core(core)))
}

/// Open a phase span on `core`. The returned guard closes the span on
/// drop; guards must be dropped in LIFO order (natural scoping does
/// this). With no tracer installed, the guard is inert and the call costs
/// one TLS read.
#[must_use = "the span closes when the guard drops"]
#[inline]
pub fn span(engine: &'static str, phase: Phase, core: usize) -> SpanGuard {
    let open = TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .map(|tracer| (tracer.clone(), tracer.open(engine, phase, core)))
    });
    SpanGuard { open, core }
}

/// RAII guard for an open span (see [`span`]).
pub struct SpanGuard {
    open: Option<(Tracer, u64)>,
    core: usize,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((tracer, seq)) = self.open.take() {
            tracer.close(self.core, seq);
        }
    }
}

/// Merge per-worker span streams into one stream ordered by simulated
/// time: `(start_cycles, core, seq)`. Each worker traces into its own
/// [`Tracer`], collects its records through a sink, and the harness
/// merges the streams after the window — sequence numbers are per-tracer,
/// so the deterministic cycle timestamps are the primary sort key.
pub fn merge_span_streams(streams: Vec<Vec<SpanRecord>>) -> Vec<SpanRecord> {
    let mut all: Vec<SpanRecord> = streams.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        a.start_cycles
            .total_cmp(&b.start_cycles)
            .then(a.core.cmp(&b.core))
            .then(a.seq.cmp(&b.seq))
    });
    all
}

/// Render an [`EventCounts`] as a JSON object (shared by the sinks).
pub fn counts_json(c: &EventCounts) -> Json {
    Json::obj(vec![
        ("instructions", Json::u64(c.instructions)),
        ("code_fetches", Json::u64(c.code_fetches)),
        ("loads", Json::u64(c.loads)),
        ("stores", Json::u64(c.stores)),
        (
            "misses",
            Json::Arr(c.misses.iter().map(|&m| Json::u64(m)).collect()),
        ),
        ("mispredicts", Json::u64(c.mispredicts)),
        ("store_misses", Json::u64(c.store_misses)),
        ("invalidations", Json::u64(c.invalidations)),
        ("remote_accesses", Json::u64(c.remote_accesses)),
    ])
}

/// Stall-class labels in [`StallEvent::ALL`] order (Perfetto counter
/// track series names).
pub fn stall_labels() -> [&'static str; 6] {
    let mut labels = [""; 6];
    for (i, e) in StallEvent::ALL.iter().enumerate() {
        labels[i] = e.label();
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::config::MachineConfig;

    fn sim() -> Sim {
        Sim::new(MachineConfig::ivy_bridge(1))
    }

    #[test]
    fn uninstalled_span_is_inert() {
        let g = span("X", Phase::Index, 0);
        assert!(g.open.is_none());
        drop(g);
    }

    #[test]
    fn install_with_builds_one_tracer_per_thread() {
        let sim = sim();
        let mut built = 0;
        for _ in 0..3 {
            install_with(|| {
                built += 1;
                Tracer::new(&sim)
            });
        }
        assert_eq!(built, 1);
        {
            let _t = span("X", Phase::Txn, 0);
            sim.mem(0).exec(7);
        }
        let tracer = uninstall().expect("installed by the first call");
        assert_eq!(tracer.snapshot().self_total().instructions, 7);
    }

    #[test]
    fn nested_self_deltas_partition_the_parent() {
        let sim = sim();
        let mem = sim.mem(0);
        let tracer = Tracer::new(&sim);
        install(tracer.clone());

        {
            let _txn = span("X", Phase::Txn, 0);
            mem.exec(100);
            {
                let _idx = span("X", Phase::Index, 0);
                mem.exec(40);
            }
            {
                let _cc = span("X", Phase::Cc, 0);
                mem.exec(25);
            }
            mem.exec(10);
        }
        uninstall();

        let snap = tracer.snapshot();
        let txn = &snap.phases[&("X", Phase::Txn)];
        let idx = &snap.phases[&("X", Phase::Index)];
        let cc = &snap.phases[&("X", Phase::Cc)];
        assert_eq!(txn.incl_counts.instructions, 175);
        assert_eq!(idx.self_counts.instructions, 40);
        assert_eq!(cc.self_counts.instructions, 25);
        assert_eq!(txn.self_counts.instructions, 110);
        // The partition invariant: self deltas sum to the root inclusive.
        assert_eq!(snap.self_total().instructions, txn.incl_counts.instructions);
        // Histograms saw exactly one transaction.
        assert_eq!(snap.hists.instructions.count(), 1);
        assert_eq!(snap.hists.instructions.mean(), 175.0);
    }

    #[test]
    fn snapshot_delta_windows_the_aggregates() {
        let sim = sim();
        let mem = sim.mem(0);
        let tracer = Tracer::new(&sim);
        install(tracer.clone());

        {
            let _t = span("X", Phase::Txn, 0);
            mem.exec(50);
        }
        let base = tracer.snapshot();
        {
            let _t = span("X", Phase::Txn, 0);
            mem.exec(70);
        }
        uninstall();

        let win = tracer.snapshot().delta(&base);
        let txn = &win.phases[&("X", Phase::Txn)];
        assert_eq!(txn.count, 1);
        assert_eq!(txn.incl_counts.instructions, 70);
        assert_eq!(win.hists.instructions.count(), 1);
    }

    #[test]
    fn ingest_reproduces_foreign_tracer_aggregates() {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        // Two "worker" tracers, as the threaded harness would create.
        let mut streams = Vec::new();
        for core in 0..2 {
            let worker = Tracer::new(&sim);
            let ring = sink::RingBufferSink::new(64);
            worker.add_sink(Box::new(ring.clone()));
            install(worker);
            {
                let _t = span("X", Phase::Txn, core);
                sim.mem(core).exec(100 * (core as u64 + 1));
            }
            uninstall();
            streams.push(ring.records());
        }
        let merged = merge_span_streams(streams);
        assert_eq!(merged.len(), 2);
        assert!(merged
            .windows(2)
            .all(|w| w[0].start_cycles <= w[1].start_cycles));

        let main = Tracer::new(&sim);
        for rec in &merged {
            main.ingest(rec);
        }
        let snap = main.snapshot();
        let txn = &snap.phases[&("X", Phase::Txn)];
        assert_eq!(txn.count, 2);
        assert_eq!(txn.incl_counts.instructions, 300);
        assert_eq!(snap.hists.instructions.count(), 2);
        // Per-core aggregates stayed separate.
        assert_eq!(
            main.snapshot_core(1).phases[&("X", Phase::Txn)]
                .incl_counts
                .instructions,
            200
        );
    }

    #[test]
    fn late_phase_keys_delta_against_zero() {
        let sim = sim();
        let mem = sim.mem(0);
        let tracer = Tracer::new(&sim);
        install(tracer.clone());
        let base = tracer.snapshot();
        {
            let _t = span("X", Phase::Log, 0);
            mem.exec(30);
        }
        uninstall();
        let win = tracer.snapshot().delta(&base);
        assert_eq!(win.phases[&("X", Phase::Log)].self_counts.instructions, 30);
    }
}
