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

use oltp::{CcPolicy, Db};
use uarch_sim::Sim;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::MachineConfig;

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
