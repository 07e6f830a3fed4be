//! # engines — the five analyzed OLTP systems
//!
//! The paper attributes every effect it measures to a handful of design
//! axes (DESIGN.md §2). The crate is laid out the same way — *kernel ×
//! profile*: a kernel owns one copy of a storage + CC family's transaction
//! pipeline (begin → cc → index → storage → log → commit/abort, sessions,
//! spans, fault sites, durability), and a profile is a zero-sized type
//! that says where one system sits on the remaining axes.
//!
//! | Kernel (storage, default CC, partitioning) | Profile | Paper system | Index | Txn code / frontend footprint |
//! |---|---|---|---|---|
//! | [`disk`]: buffer pool + heap pages, hierarchical 2PL, shared-everything, one WAL | [`shore_mt`] | Shore-MT | 8 KB B+tree | hard-coded C++ plans, *no* layers outside the storage manager |
//! | | [`dbms_d`] | DBMS D (commercial disk-based) | 8 KB B+tree, packed keys | full stack: network, parser, optimizer, interpreted executor |
//! | [`partitioned`]: per-partition row store + log, serial per partition (no locks), NUMA homing, multi-partition path | [`voltdb`] | VoltDB CE 4.8 | cache-conscious B+tree | interpreted stored procedures behind a Java-runtime-like layer |
//! | | [`hyper`] | HyPer | ART | transactions compiled to machine code (tiny instruction footprint) |
//! | [`dbms_m`]: multi-version store, optimistic MVCC (its own family: one system, no profile) | — | DBMS M (commercial in-memory) | hash **or** cc-B+tree | compiled storage-manager ops under a large legacy frontend |
//!
//! Which axis lives where: storage, default CC and partitioning pick the
//! kernel file; the index is the profile's `type Index`; code-module
//! footprints are its `MODULES` table, per-phase instruction budgets its
//! `COST` table; interpreted-vs-compiled and frontend footprint are its
//! charge hooks. What all three families share (module registration, the
//! pluggable-CC hook-up and its `cc/validate` fault site, per-session
//! simulator ports, the latch-contention model) is the private `scaffold`
//! module; [`durability`], [`placement`] and [`builder`] are the
//! cross-engine surfaces built on top.
//!
//! Every engine implements [`oltp::Db`], and every worker drives an
//! [`oltp::Session`] opened with [`oltp::Db::session`]. Each engine
//! registers its code modules (footprint / reuse / branchiness per §2.1's
//! characterization) with the simulator and charges every operation's
//! instruction stream and data touches through them — the
//! micro-architectural behaviour then *emerges* from the same design axes
//! the paper identifies.
//!
//! [`SystemKind`] + [`build_system`] give the benchmark harness a uniform
//! factory.
//!
//! ```
//! use engines::{build_system, SystemKind};
//! use oltp::{Column, DataType, Schema, TableDef, Value};
//! use uarch_sim::{MachineConfig, Sim};
//!
//! let sim = Sim::new(MachineConfig::ivy_bridge(1));
//! let mut db = build_system(SystemKind::HyPer, &sim, 1);
//! let t = db.create_table(TableDef::new(
//!     "accounts",
//!     Schema::new(vec![
//!         Column::new("id", DataType::Long),
//!         Column::new("balance", DataType::Long),
//!     ]),
//!     100,
//! ));
//! let mut s = db.session(0); // one per worker
//! s.begin();
//! s.insert(t, 1, &[Value::Long(1), Value::Long(500)]).unwrap();
//! s.update(t, 1, &mut |row| row[1] = Value::Long(600)).unwrap();
//! s.commit().unwrap();
//! // The simulator observed every index node and row the engine touched.
//! assert!(sim.counters(0).instructions > 0);
//! ```

pub mod builder;
pub mod common;
pub mod dbms_d;
pub mod dbms_m;
pub mod disk;
pub mod durability;
pub mod hyper;
pub mod partitioned;
pub mod placement;
mod scaffold;
pub mod shore_mt;
pub mod voltdb;

pub use builder::SystemBuilder;
pub use common::{build_system, DbmsMIndex, SystemKind};
pub use dbms_d::DbmsD;
pub use dbms_m::{DbmsM, DbmsMOptions};
pub use durability::{DurabilityCfg, DurableDb, LogStatus};
pub use hyper::HyPer;
pub use oltp::cc::CcPolicy;
pub use placement::Placement;
pub use shore_mt::ShoreMt;
pub use voltdb::VoltDb;
