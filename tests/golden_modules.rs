//! Per-core *and* per-module golden counter streams for fixed-seed runs.
//! The micro read-only and the two original TPC-B rows were captured
//! before the lock-free fast-path refactor (owned core ports, striped
//! LLC, queued coherence); every other row was captured before the
//! engine-kernel refactor (two generic kernels + profiles) and pins the
//! paths no other tier-1 golden covers: the update/insert/delete/scan
//! paths, a pluggable CC protocol, durable mode including the retained
//! log streams, the two-session latch model, and the NUMA cross-partition
//! `mp_*` path. The inclusive-LLC and next-line-prefetch rows were captured
//! before the recency-ordered cache sets replaced the stamp-scan LRU and
//! pin what no other golden reaches: the identity of every evicted line
//! and `Cache::invalidate`. The TPC-C x HyPer row — the only one an ART
//! range scan reaches — was re-recorded when that scan stopped visiting
//! the whole tree. A refactor must be observation-equivalent:
//! every event counter, per core and per module, stays bit-identical. The
//! full counter state is folded into an FNV-1a hash so a drift anywhere —
//! a module's store count, a single L2I miss — flips the digest.

use imoltp::analysis::{measure, WindowSpec};
use imoltp::bench::tpcc::{TpcC, TpcCScale};
use imoltp::bench::{DbSize, MicroBench, TpcB, Workload};
use imoltp::db::{Column, DataType, Schema, TableDef, Value};
use imoltp::sim::config::CacheGeometry;
use imoltp::sim::{EventCounts, MachineConfig, Sim, StallEvent};
use imoltp::systems::{CcPolicy, DbmsMIndex, DurabilityCfg, Placement, SystemBuilder, SystemKind};
use SystemKind::{DbmsD, HyPer, ShoreMt, VoltDb};

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counts(&mut self, c: &EventCounts) {
        self.word(c.instructions);
        self.word(c.code_fetches);
        self.word(c.loads);
        self.word(c.stores);
        for m in c.misses {
            self.word(m);
        }
        self.word(c.mispredicts);
        self.word(c.store_misses);
        self.word(c.invalidations);
    }
}

/// Hash the cumulative per-core counters plus every module's counters
/// (with the module count, so a registry change also shows up).
fn digest(sim: &Sim, core: usize) -> u64 {
    let mut h = Fnv::new();
    h.counts(&sim.counters(core));
    let mods = sim.module_counters(core);
    h.word(mods.len() as u64);
    for mc in &mods {
        h.counts(mc);
    }
    h.0
}

/// [`digest`] of every core of the machine, plus each core's cross-socket
/// access count (zero on one socket, so single-socket digests made of
/// [`digest`] alone lose nothing by leaving it out).
fn digest_all_cores(sim: &Sim) -> u64 {
    let mut h = Fnv::new();
    for core in 0..sim.cores() {
        h.word(digest(sim, core));
        h.word(sim.counters(core).remote_accesses);
    }
    h.0
}

const DBMS_M: SystemKind = SystemKind::DbmsM {
    index: DbmsMIndex::Hash,
    compiled: true,
};

/// The engine path one golden row drives.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Read-only 1-probe micro-benchmark, one worker.
    MicroRo,
    /// Read-write micro-benchmark: the update path and its log records.
    MicroRw,
    /// Read-write micro-benchmark under a pluggable protocol (OCC).
    Occ,
    /// Read-write micro-benchmark, two sessions on two cores, alternated
    /// from one thread: the `open_sessions` latch model.
    TwoSessions,
    /// Insert/update/delete/read/abort mix in durable mode on two cores:
    /// counters *and* the retained log streams.
    Durable,
    /// Two sockets x two cores, island placement, half the probes aimed
    /// at the partner partition: `mp_read` and `mp_update`.
    NumaCross,
    /// [`Scenario::TwoSessions`] under an inclusive LLC shrunk to 1 MB, so
    /// fills evict and every victim is back-invalidated on both cores.
    InclusiveLlc,
    /// [`Scenario::MicroRo`] with the next-line instruction prefetcher on.
    NextLinePrefetch,
    /// TPC-B, one branch.
    TpcB,
    /// Smoke-scale TPC-C: inserts, deletes, range scans, secondary tables.
    TpcC,
}

fn scenario_digest(scenario: Scenario, kind: SystemKind) -> u64 {
    match scenario {
        Scenario::MicroRo => micro_digest(kind),
        Scenario::MicroRw => micro_rw_digest(kind, CcPolicy::EngineDefault),
        Scenario::Occ => micro_rw_digest(kind, CcPolicy::Occ),
        Scenario::TwoSessions => micro_digest_two_cores(kind, MachineConfig::ivy_bridge(2), true),
        Scenario::Durable => durable_digest(kind),
        Scenario::NumaCross => numa_cross_digest(kind),
        Scenario::InclusiveLlc => inclusive_llc_digest(kind),
        Scenario::NextLinePrefetch => {
            let mut machine = MachineConfig::ivy_bridge(1);
            machine.i_prefetch_next_line = true;
            micro_digest_on(kind, machine)
        }
        Scenario::TpcB => tpcb_digest(kind),
        Scenario::TpcC => tpcc_digest(kind),
    }
}

fn micro_digest(kind: SystemKind) -> u64 {
    micro_digest_on(kind, MachineConfig::ivy_bridge(1))
}

fn micro_digest_on(kind: SystemKind, machine: MachineConfig) -> u64 {
    let w = MicroBench::new(DbSize::Mb1).with_rows(30_000).seed(4242);
    measured_digest(kind, CcPolicy::EngineDefault, machine, w, 300, 800, 2)
}

fn micro_rw_digest(kind: SystemKind, cc: CcPolicy) -> u64 {
    let w = MicroBench::new(DbSize::Mb1)
        .with_rows(30_000)
        .read_write()
        .seed(4242);
    measured_digest(kind, cc, MachineConfig::ivy_bridge(1), w, 300, 800, 2)
}

fn tpcb_digest(kind: SystemKind) -> u64 {
    let w = TpcB::with_branches(1).seed(55);
    let machine = MachineConfig::ivy_bridge(1);
    measured_digest(kind, CcPolicy::EngineDefault, machine, w, 100, 300, 1)
}

fn tpcc_digest(kind: SystemKind) -> u64 {
    // DBMS M runs TPC-C on its cc-B-tree configuration, as in the paper.
    let kind = match kind {
        SystemKind::DbmsM { .. } => SystemKind::dbms_m_for_tpcc(),
        k => k,
    };
    let w = TpcC::with_scale(TpcCScale::tiny()).seed(5);
    let machine = MachineConfig::ivy_bridge(1);
    measured_digest(kind, CcPolicy::EngineDefault, machine, w, 50, 250, 1)
}

/// One worker on core 0: load offline, warm, run a measured window.
fn measured_digest(
    kind: SystemKind,
    cc: CcPolicy,
    machine: MachineConfig,
    mut w: impl Workload,
    warmup: u64,
    measured: u64,
    reps: u32,
) -> u64 {
    let sim = Sim::new(machine);
    let mut db = SystemBuilder::new(kind).cc(cc).build(&sim);
    sim.offline(|| w.setup(db.as_mut(), 1));
    sim.warm_data();
    let mut s = db.session(0);
    let spec = WindowSpec {
        warmup,
        measured,
        reps,
    };
    let _ = measure(&sim, 0, spec, |_| w.exec(s.as_mut(), 0).unwrap());
    drop(s);
    digest(&sim, 0)
}

/// Same fixed-seed micro run on two cores, driven from one thread by
/// alternating the two sessions so the interleaving is deterministic,
/// folding both cores' counter state into one digest.
fn micro_digest_two_cores(kind: SystemKind, machine: MachineConfig, read_write: bool) -> u64 {
    let sim = micro_two_cores(kind, machine, read_write);
    let mut h = Fnv::new();
    h.word(digest(&sim, 0));
    h.word(digest(&sim, 1));
    h.0
}

/// The two-session run behind [`micro_digest_two_cores`]; returns the
/// machine it ran on.
fn micro_two_cores(kind: SystemKind, machine: MachineConfig, read_write: bool) -> Sim {
    let sim = Sim::new(machine);
    let mut db = SystemBuilder::new(kind).cores(2).build(&sim);
    let mut w = MicroBench::new(DbSize::Mb1).with_rows(30_000).seed(4242);
    if read_write {
        w = w.read_write();
    }
    sim.offline(|| w.setup(db.as_mut(), 2));
    sim.warm_data();
    let mut s0 = db.session(0);
    let mut s1 = db.session(1);
    for _ in 0..400 {
        w.exec(s0.as_mut(), 0).unwrap();
        w.exec(s1.as_mut(), 1).unwrap();
    }
    drop(s0);
    drop(s1);
    sim
}

/// The two-session read-write run on an inclusive LLC. The 30 000-row table
/// fits the Table-1 16 MB LLC, where nothing would ever be evicted, so the
/// LLC is shrunk to 1 MB; the asserts keep the row from going vacuous.
fn inclusive_llc_digest(kind: SystemKind) -> u64 {
    let mut machine = MachineConfig::ivy_bridge(2);
    machine.inclusive_llc = true;
    machine.llc = CacheGeometry::new(1 << 20, 64, 16);
    let sim = micro_two_cores(kind, machine, true);
    let invalidations: u64 = (0..sim.cores())
        .map(|c| sim.counters(c).invalidations)
        .sum();
    // Shared-everything workers store to lines the other core holds; a
    // partition's lines never reach the other worker's caches.
    let shared = !matches!(kind, VoltDb | HyPer);
    assert_eq!(
        invalidations > 0,
        shared,
        "{kind:?}: {invalidations} invalidations reached the other core"
    );
    let llc_d: u64 = (0..sim.cores())
        .map(|c| sim.counters(c).misses[StallEvent::LlcD as usize])
        .sum();
    assert!(
        llc_d > 0,
        "{kind:?}: no load missed the LLC, nothing evicted"
    );
    digest_all_cores(&sim)
}

/// Durable mode end to end: `build_durable` + `enable_durability`, then a
/// mix that appends every record kind (the duplicate insert and the
/// aborted transaction included). The digest covers both cores' counters
/// and, per log stream, every retained record's coordinates, the
/// horizon/flushed pair after a final flush, and the device-charged commit
/// latencies.
fn durable_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(2));
    let mut db = SystemBuilder::new(kind).cores(2).build_durable(&sim);
    db.enable_durability(&DurabilityCfg::default());
    let t = db.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("key", DataType::Long),
            Column::new("val", DataType::Long),
        ]),
        512,
    ));
    let mut sessions = [db.session(0), db.session(1)];
    let row = |k: u64, v: i64| [Value::Long(k as i64), Value::Long(v)];
    for i in 0..600u64 {
        let s = &mut sessions[(i % 2) as usize];
        // Keys stay on the issuing worker's partition (key % 2 == worker).
        let k = (i / 2 % 97) * 2 + i % 2;
        s.begin();
        match i / 2 % 4 {
            0 => {
                let _ = s.insert(t, k, &row(k, i as i64));
            }
            1 => {
                let _ = s.update(t, k, &mut |r| r[1] = Value::Long(-(i as i64)));
            }
            2 => {
                let _ = s.delete(t, k);
            }
            _ => {
                let _ = s.read(t, k);
            }
        }
        if i % 50 >= 48 {
            s.abort();
        } else {
            s.commit().unwrap();
        }
    }
    drop(sessions);
    db.flush_all();

    let mut h = Fnv::new();
    h.word(digest(&sim, 0));
    h.word(digest(&sim, 1));
    let streams = db.log_streams();
    h.word(streams.len() as u64);
    for records in &streams {
        h.word(records.len() as u64);
        for r in records {
            h.word(r.lsn.0);
            h.word(r.txn.0);
            h.word(r.kind as u64);
            h.word(u64::from(r.len));
            h.word(u64::from(r.table));
            h.word(r.key);
            h.word(r.redo.as_ref().map_or(u64::MAX, |b| b.len() as u64));
            h.word(r.undo.as_ref().map_or(u64::MAX, |b| b.len() as u64));
        }
    }
    for st in db.log_status() {
        h.word(st.horizon.0);
        h.word(st.flushed.0);
        h.word(st.stats.bytes_appended);
        h.word(st.stats.flushes);
    }
    for l in db.take_commit_latencies() {
        h.word(l.to_bits());
    }
    h.word(db.row_count(t));
    h.0
}

/// The multi-partition path of the partitioned engines: on a two-socket
/// machine an own-partition miss routes through the coordinator and
/// probes the other partitions. One read-only and one read-write run,
/// each with half the probes aimed at the partner worker's slice.
fn numa_cross_digest(kind: SystemKind) -> u64 {
    let mut h = Fnv::new();
    for read_write in [false, true] {
        let sim = Sim::new(MachineConfig::numa(2, 2));
        let mut db = SystemBuilder::new(kind)
            .cores(4)
            .placement(Placement::Island)
            .build(&sim);
        let mut w = MicroBench::new(DbSize::Mb1)
            .with_rows(8_000)
            .seed(4242)
            .cross_frac(0.5);
        if read_write {
            w = w.read_write();
        }
        sim.offline(|| w.setup(db.as_mut(), 4));
        sim.warm_data();
        let mut sessions: Vec<_> = (0..4).map(|c| db.session(c)).collect();
        for _ in 0..300 {
            for (core, s) in sessions.iter_mut().enumerate() {
                w.exec(s.as_mut(), core).unwrap();
            }
        }
        drop(sessions);
        h.word(digest_all_cores(&sim));
    }
    h.0
}

/// A one-socket NUMA machine must be *bit-identical* to the flat machine it
/// degenerates to: `numa(1, n)` shares ivy_bridge's LLC geometry, every
/// home classification resolves to socket 0, and no remote penalty can
/// fire. Anything less means the multi-socket extension perturbed the
/// single-socket fast path, which the absolute goldens above would also
/// catch — this test localizes the blame to the topology change.
#[test]
fn numa_single_socket_digests_match_flat_machine() {
    for kind in [SystemKind::VoltDb, SystemKind::HyPer, SystemKind::ShoreMt] {
        assert_eq!(
            micro_digest_on(kind, MachineConfig::numa(1, 1)),
            micro_digest(kind),
            "{kind:?}: numa(1,1) digest diverged from ivy_bridge(1)"
        );
    }
    for kind in [SystemKind::VoltDb, SystemKind::HyPer] {
        assert_eq!(
            micro_digest_two_cores(kind, MachineConfig::numa(1, 2), false),
            micro_digest_two_cores(kind, MachineConfig::ivy_bridge(2), false),
            "{kind:?}: numa(1,2) digest diverged from ivy_bridge(2)"
        );
    }
}

type Golden = (Scenario, SystemKind, u64);

fn check(golden: &[Golden]) {
    for &(scenario, kind, want) in golden {
        let got = scenario_digest(scenario, kind);
        assert_eq!(
            got, want,
            "{scenario:?} {kind:?}: per-module counter digest {got:#018x} != golden {want:#018x}"
        );
    }
}

/// Micro-benchmark-shaped rows: every engine on the read-only, read-write,
/// OCC and durable paths; the latch-model engines on two sessions; the
/// partitioned engines across sockets.
const MICRO_GOLDEN: &[Golden] = &[
    (Scenario::MicroRo, ShoreMt, 0x6ae751592cc8930c),
    (Scenario::MicroRo, DbmsD, 0x2d7dc538f56f5def),
    (Scenario::MicroRo, VoltDb, 0x6e18b160812ce719),
    (Scenario::MicroRo, HyPer, 0x4875208288f5e48b),
    (Scenario::MicroRo, DBMS_M, 0x08cc8456c034ca2f),
    (Scenario::MicroRw, ShoreMt, 0x3ec974c1c7a8f972),
    (Scenario::MicroRw, DbmsD, 0xb1ea2b9f9a5e087a),
    (Scenario::MicroRw, VoltDb, 0x3d9cf2b8098d2ea5),
    (Scenario::MicroRw, HyPer, 0xa852997dfa317b7b),
    (Scenario::MicroRw, DBMS_M, 0xd0ae1f464ce5b911),
    (Scenario::Occ, ShoreMt, 0x8b8ab64b167140da),
    (Scenario::Occ, DbmsD, 0x368ba54e6fda6225),
    (Scenario::Occ, VoltDb, 0x2972a4e949c725f7),
    (Scenario::Occ, HyPer, 0x14b138990e4629e5),
    (Scenario::Occ, DBMS_M, 0xc00defdc87e2cecc),
    (Scenario::Durable, ShoreMt, 0xee07155da533e458),
    (Scenario::Durable, DbmsD, 0x620ea39a0549dfb9),
    (Scenario::Durable, VoltDb, 0x74145bbc4443174f),
    (Scenario::Durable, HyPer, 0xb64b20cd7d3062ff),
    (Scenario::Durable, DBMS_M, 0xd86b173e0929d97f),
    (Scenario::TwoSessions, ShoreMt, 0xb1272c80777b77a9),
    (Scenario::TwoSessions, DbmsD, 0x1954e56042e879da),
    (Scenario::TwoSessions, DBMS_M, 0x13c5fda39ad2640b),
    (Scenario::NumaCross, VoltDb, 0x5e01962422f38475),
    (Scenario::NumaCross, HyPer, 0x0b776dad872bb4c0),
    (Scenario::InclusiveLlc, ShoreMt, 0xef5678b573034c6b),
    (Scenario::InclusiveLlc, DbmsD, 0x6d8ced0b1b284274),
    (Scenario::InclusiveLlc, VoltDb, 0xe23d931608760c79),
    (Scenario::InclusiveLlc, HyPer, 0x00b9385ab8596959),
    (Scenario::InclusiveLlc, DBMS_M, 0xb874cc7780fb2db8),
    (Scenario::NextLinePrefetch, ShoreMt, 0x7c80511ba30adbb8),
    (Scenario::NextLinePrefetch, DbmsD, 0xf024f0294a7c8ccf),
    (Scenario::NextLinePrefetch, VoltDb, 0x4ea12ad684d0a76e),
    (Scenario::NextLinePrefetch, HyPer, 0x963c9ab08201c373),
    (Scenario::NextLinePrefetch, DBMS_M, 0x0c672d462f759ba7),
];

/// TPC-shaped rows: TPC-B and smoke-scale TPC-C on every engine.
const TPC_GOLDEN: &[Golden] = &[
    (Scenario::TpcB, ShoreMt, 0x5070ebe32eb12739),
    (Scenario::TpcB, DbmsD, 0x664ddb711f528efb),
    (Scenario::TpcB, VoltDb, 0x669f10d076ffc298),
    (Scenario::TpcB, HyPer, 0xc3b92d3254a65068),
    (Scenario::TpcB, DBMS_M, 0xd2fbf26e1a6da94c),
    (Scenario::TpcC, ShoreMt, 0xc444be78b619d794),
    (Scenario::TpcC, DbmsD, 0x82f03698539acd6b),
    (Scenario::TpcC, VoltDb, 0x01d7cdd4c60c8569),
    (Scenario::TpcC, HyPer, 0xe16dbb9a69325030),
    (Scenario::TpcC, DBMS_M, 0x4bf2c5783429635a),
];

#[test]
fn micro_per_module_counters_match_pre_refactor_golden() {
    check(MICRO_GOLDEN);
}

#[test]
fn tpcb_per_module_counters_match_pre_refactor_golden() {
    check(TPC_GOLDEN);
}

#[test]
#[ignore = "capture helper"]
fn print_digests() {
    for &(scenario, kind, _) in MICRO_GOLDEN.iter().chain(TPC_GOLDEN) {
        println!(
            "{scenario:?} {kind:?}: {:#018x}",
            scenario_digest(scenario, kind)
        );
    }
}
