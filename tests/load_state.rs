//! The state `SystemBuilder::load` leaves behind, pinned before anyone
//! builds a loaded-engine image on top of it (ROADMAP item 7): two loads
//! on fresh simulators must be indistinguishable — same allocation cursor,
//! same code modules, all-zero counters, same rows under the same keys —
//! and the single-worker digests are constants, so a change to how a
//! database gets loaded shows up here first.
//!
//! The tables and keys are learnt by standing between the loader and the
//! engine (`Recorder`), not from the engines: no engine lists its tables,
//! and a hash index cannot be scanned.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use imoltp::bench::tpcc::TpcCScale;
use imoltp::bench::{DbSize, MicroBench, TpcB, TpcC, Workload};
use imoltp::db::{Db, OltpResult, Row, Session, TableDef, TableId, Value};
use imoltp::sim::rng::Fnv;
use imoltp::sim::{EventCounts, MachineConfig};
use imoltp::systems::{SystemBuilder, SystemKind};

/// What a loader did: every `(table, key)` it left in the database, with
/// the core whose session put it there (partitioned engines find a row
/// only through its partition's sessions).
type Rows = Arc<Mutex<BTreeSet<(u32, u64, usize)>>>;

struct Recorder<'a> {
    db: &'a mut dyn Db,
    rows: Rows,
}

impl Db for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.db.name()
    }
    fn partitions(&self) -> usize {
        self.db.partitions()
    }
    fn create_table(&mut self, def: TableDef) -> TableId {
        self.db.create_table(def)
    }
    fn finish_load(&mut self) {
        self.db.finish_load()
    }
    fn row_count(&self, table: TableId) -> u64 {
        self.db.row_count(table)
    }
    fn session(&self, core: usize) -> Box<dyn Session> {
        Box::new(RecordingSession {
            s: self.db.session(core),
            rows: self.rows.clone(),
        })
    }
}

struct RecordingSession {
    s: Box<dyn Session>,
    rows: Rows,
}

impl Session for RecordingSession {
    fn name(&self) -> &'static str {
        self.s.name()
    }
    fn core(&self) -> usize {
        self.s.core()
    }
    fn begin(&mut self) {
        self.s.begin()
    }
    fn commit(&mut self) -> OltpResult<()> {
        self.s.commit()
    }
    fn abort(&mut self) {
        panic!("a loader aborted");
    }
    fn insert(&mut self, table: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        self.rows
            .lock()
            .unwrap()
            .insert((table.0, key, self.core()));
        self.s.insert(table, key, row)
    }
    fn read_with(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> OltpResult<bool> {
        self.s.read_with(table, key, f)
    }
    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> OltpResult<bool> {
        self.s.update(table, key, f)
    }
    fn scan(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        self.s.scan(table, lo, hi, f)
    }
    fn delete(&mut self, table: TableId, key: u64) -> OltpResult<bool> {
        self.rows
            .lock()
            .unwrap()
            .remove(&(table.0, key, self.core()));
        self.s.delete(table, key)
    }
}

#[derive(Clone, Copy, Debug)]
enum Load {
    Micro,
    TpcB,
    TpcC,
}

impl Load {
    const ALL: [Load; 3] = [Load::Micro, Load::TpcB, Load::TpcC];

    /// Smoke-scale instances: the harness's `IMOLTP_SCALE` < 0.3 TPC-C, and
    /// a TPC-B small enough to load twenty times in a tier-1 test.
    fn build(self) -> Box<dyn Workload> {
        match self {
            Load::Micro => Box::new(MicroBench::new(DbSize::Mb1)),
            Load::TpcB => Box::new(TpcB::with_branches(2)),
            Load::TpcC => Box::new(TpcC::with_scale(TpcCScale {
                warehouses: 2,
                customers_per_district: 600,
                items: 10_000,
                initial_orders: 120,
            })),
        }
    }

    /// The five engines as the figures configure them for this workload.
    fn systems(self) -> [SystemKind; 5] {
        let mut systems = SystemKind::ALL;
        if let Load::TpcC = self {
            systems[4] = SystemKind::dbms_m_for_tpcc();
        }
        systems
    }
}

/// Load on a fresh simulator and digest everything a later window could
/// observe of the result.
fn post_load_digest(system: SystemKind, load: Load, workers: usize) -> u64 {
    let rows = Rows::default();
    let mut w = load.build();
    let (sim, db) =
        SystemBuilder::new(system)
            .cores(workers)
            .load(MachineConfig::ivy_bridge(workers), |db| {
                let mut recorder = Recorder {
                    db,
                    rows: rows.clone(),
                };
                w.setup(&mut recorder, workers)
            });
    let tag = format!("{system:?} {load:?} x{workers}");

    let mut h = Fnv::default();
    // The load ran offline: no core saw an instruction or an access.
    for (core, counts) in sim.counters_all().iter().enumerate() {
        assert_eq!(*counts, EventCounts::default(), "{tag}: core {core}");
    }
    for spec in sim.module_specs() {
        h.bytes(spec.name.as_bytes())
            .word(u64::from(spec.footprint))
            .word(spec.reuse.to_bits())
            .word(spec.branchiness.to_bits())
            .word(u64::from(spec.engine_side));
    }
    // Every row, in (table, key) order, read back through a session of
    // the core that loaded it.
    let rows = rows.lock().unwrap();
    assert!(!rows.is_empty(), "{tag}: the loader inserted nothing");
    sim.offline(|| {
        let mut sessions: Vec<_> = (0..workers).map(|core| db.session(core)).collect();
        for &(table, key, core) in rows.iter() {
            let s = &mut sessions[core];
            s.begin();
            let row = s.read(TableId(table), key).expect("read back");
            s.commit().expect("read-only commit");
            let row = row.unwrap_or_else(|| panic!("{tag}: table {table} lost key {key}"));
            h.word(u64::from(table)).word(key).word(core as u64);
            for value in &row {
                match value {
                    Value::Long(v) => h.word(*v as u64),
                    Value::Str(s) => h.bytes(s.as_bytes()),
                };
            }
        }
    });
    // Where the simulator's bump allocator stands (one arena on one
    // socket): the next address it hands out.
    h.word(sim.alloc(1, 1));
    h.0
}

/// `post_load_digest(system, load, 1)`, rows in `Load::ALL` order, columns
/// in `Load::systems` order. Re-record with
/// `cargo test --test load_state -- --ignored --nocapture print_digests`.
#[rustfmt::skip]
const SINGLE_WORKER: [[u64; 5]; 3] = [
    [0x846520bb5ca5e277, 0x4ba8012ffc28374d, 0x9aa69e8fcf3767c7, 0x52c06937573e199b, 0x114dfa269c91467f], // Micro
    [0xb9e37bdc74121ba3, 0x9134aab5dbe743fd, 0x74c6311dd6681119, 0xdc01b269f250a553, 0xbcfa5797f8000301], // TpcB
    [0xf1fcd3ba17a9c5ef, 0xe87b9fb2ef77056d, 0x3f6f51ec19a8302f, 0x8fce76bfd9052e66, 0x72276a2000354e31], // TpcC
];

/// Two loads on fresh simulators agree, at one worker and at two, and the
/// single-worker state is the pinned one.
fn loads_alike_and_as_pinned(load: Load) {
    let pinned = SINGLE_WORKER[load as usize];
    for (system, pin) in load.systems().into_iter().zip(pinned) {
        for workers in [1, 2] {
            let first = post_load_digest(system, load, workers);
            let second = post_load_digest(system, load, workers);
            assert_eq!(first, second, "{system:?} {load:?} x{workers}");
            if workers == 1 {
                assert_eq!(first, pin, "{system:?} {load:?}: {first:#018x}");
            }
        }
    }
}

#[test]
fn micro_loads_alike_and_as_pinned() {
    loads_alike_and_as_pinned(Load::Micro);
}

#[test]
fn tpcb_loads_alike_and_as_pinned() {
    loads_alike_and_as_pinned(Load::TpcB);
}

#[test]
fn tpcc_loads_alike_and_as_pinned() {
    loads_alike_and_as_pinned(Load::TpcC);
}

#[test]
#[ignore = "prints the table to paste into SINGLE_WORKER"]
fn print_digests() {
    for load in Load::ALL {
        let row: Vec<String> = load
            .systems()
            .into_iter()
            .map(|system| format!("{:#018x}", post_load_digest(system, load, 1)))
            .collect();
        println!("    [{}], // {load:?}", row.join(", "));
    }
}
