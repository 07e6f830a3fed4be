//! [`SystemBuilder`] — the one way to assemble an engine.
//!
//! PR 7 grew the free-function factory a concurrency-control parameter
//! (`build_system_cc`); rather than keep widening a positional signature,
//! construction is now a builder with defaults:
//!
//! ```
//! use engines::{CcPolicy, SystemBuilder, SystemKind};
//! use uarch_sim::{MachineConfig, Sim};
//!
//! let sim = Sim::new(MachineConfig::ivy_bridge(2));
//! let db = SystemBuilder::new(SystemKind::VoltDb)
//!     .cores(2) // partitioned engines default to one partition per core
//!     .cc(CcPolicy::EngineDefault)
//!     .build(&sim);
//! assert_eq!(db.name(), "VoltDB");
//! ```
//!
//! The plain `build_system` free function remains for the default
//! configuration; the deprecated `build_system_cc` shim was removed once
//! every call site migrated to the builder.
//!
//! [`SystemBuilder::load`] is the paper's §3 set-up — populate the
//! database, then warm up — written once: every harness that measures a
//! loaded engine gets its simulator and engine from it.

use oltp::{CcPolicy, Db};
use uarch_sim::{MachineConfig, Sim};

use crate::common::{build_system_inner, SystemKind};
use crate::durability::DurableDb;
use crate::placement::Placement;

/// Configures and builds one engine instance on a simulator.
///
/// Defaults: 1 core, one partition per core for partitioned engines
/// (1 otherwise), [`CcPolicy::EngineDefault`], [`Placement::Spread`].
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    kind: SystemKind,
    cores: usize,
    partitions: Option<usize>,
    cc: CcPolicy,
    placement: Placement,
}

impl SystemBuilder {
    /// Start building a system of `kind` with the defaults above.
    pub fn new(kind: SystemKind) -> Self {
        SystemBuilder {
            kind,
            cores: 1,
            partitions: None,
            cc: CcPolicy::EngineDefault,
            placement: Placement::Spread,
        }
    }

    /// Worker cores the engine will serve. For partitioned engines this
    /// also sets the default partition count (the paper's
    /// one-worker-per-partition deployment); non-partitioned engines use
    /// it only as a sizing hint.
    pub fn cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "cores must be >= 1");
        self.cores = cores;
        self
    }

    /// Explicit data-partition count, overriding the per-core default.
    pub fn partitions(mut self, partitions: usize) -> Self {
        assert!(partitions >= 1, "partitions must be >= 1");
        self.partitions = Some(partitions);
        self
    }

    /// Concurrency-control protocol ([`CcPolicy::EngineDefault`] keeps
    /// each engine's historical protocol bit-for-bit).
    pub fn cc(mut self, cc: CcPolicy) -> Self {
        self.cc = cc;
        self
    }

    /// NUMA placement policy for workers and partition data (see
    /// [`Placement`]); meaningful on multi-socket simulators, ignored on
    /// one socket.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Effective partition count after defaults.
    pub fn effective_partitions(&self) -> usize {
        self.partitions.unwrap_or(if self.kind.partitioned() {
            self.cores
        } else {
            1
        })
    }

    /// The configured engine kind.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Build the engine on `sim`.
    pub fn build(&self, sim: &Sim) -> Box<dyn Db> {
        self.build_durable(sim)
    }

    /// Build the engine on `sim`, typed for durability: the caller can
    /// switch the log(s) into durable mode with
    /// [`DurableDb::enable_durability`] and later
    /// harvest the retained streams for crash recovery.
    pub fn build_durable(&self, sim: &Sim) -> Box<dyn DurableDb> {
        build_system_inner(
            self.kind,
            sim,
            self.effective_partitions(),
            self.cc,
            self.placement,
        )
    }

    /// The load protocol: a fresh simulator of `machine`, the engine built
    /// on it, `load` run under [`Sim::offline`] (bulk loading is invisible
    /// to the counters), then [`Sim::warm_data`]. `load` creates and fills
    /// every table — harness tables and
    /// [`DurableDb::enable_durability`] first, the workload's `setup`
    /// last, so the loader still ends with `finish_load`.
    pub fn load(
        &self,
        machine: MachineConfig,
        load: impl FnOnce(&mut dyn DurableDb),
    ) -> (Sim, Box<dyn DurableDb>) {
        let sim = Sim::new(machine);
        let mut db = self.build_durable(&sim);
        sim.offline(|| load(db.as_mut()));
        sim.warm_data();
        (sim, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::{Column, DataType, Schema, TableDef, Value};
    use uarch_sim::{EventCounts, StallEvent};

    #[test]
    fn load_runs_offline_and_warms() {
        for kind in SystemKind::ALL {
            let mut table = None;
            let (sim, db) =
                SystemBuilder::new(kind)
                    .cores(2)
                    .load(MachineConfig::ivy_bridge(2), |db| {
                        let schema = Schema::new(vec![Column::new("k", DataType::Long)]);
                        let t = db.create_table(TableDef::new("t", schema, 64));
                        for core in 0..2 {
                            let mut s = db.session(core);
                            for k in 0..32 {
                                s.begin();
                                s.insert(t, 2 * k + core as u64, &[Value::Long(k as i64)])
                                    .unwrap();
                                s.commit().unwrap();
                            }
                        }
                        db.finish_load();
                        table = Some(t);
                    });
            // Offline: the load left no trace on any core.
            for counts in sim.counters_all() {
                assert_eq!(counts, EventCounts::default(), "{kind:?}");
            }
            // Back online, and warm: a probe is counted, and it misses the
            // LLC less than the same probe after a cold restart.
            let probe = || {
                let before = sim.counters(1);
                let mut s = db.session(1);
                s.begin();
                assert!(s.read(table.unwrap(), 7).unwrap().is_some(), "{kind:?}");
                s.commit().unwrap();
                sim.counters(1).delta(&before)
            };
            let warm = probe();
            sim.flush_caches();
            let cold = probe();
            assert!(warm.instructions > 0 && warm.loads > 0, "{kind:?}");
            assert!(
                warm.miss(StallEvent::LlcD) < cold.miss(StallEvent::LlcD),
                "{kind:?}: warm {warm:?} cold {cold:?}"
            );
        }
    }

    #[test]
    fn defaults_match_the_old_free_function() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        for kind in SystemKind::ALL {
            let db = SystemBuilder::new(kind).build(&sim);
            assert_eq!(db.name(), kind.label());
            assert_eq!(db.partitions(), 1);
        }
    }

    #[test]
    fn partitioned_engines_default_one_partition_per_core() {
        let sim = Sim::new(MachineConfig::ivy_bridge(4));
        let volt = SystemBuilder::new(SystemKind::VoltDb).cores(4).build(&sim);
        assert_eq!(volt.partitions(), 4);
        let shore = SystemBuilder::new(SystemKind::ShoreMt).cores(4).build(&sim);
        assert_eq!(shore.partitions(), 1);
        // Explicit partitions override the per-core default.
        let volt2 = SystemBuilder::new(SystemKind::VoltDb)
            .cores(4)
            .partitions(2)
            .build(&sim);
        assert_eq!(volt2.partitions(), 2);
    }
}
