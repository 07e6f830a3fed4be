//! # imoltp — facade crate
//!
//! Reproduction of *"Micro-architectural Analysis of In-memory OLTP"*
//! (Sirin, Tözün, Porobic, Ailamaki — SIGMOD 2016).
//!
//! This crate re-exports the whole workspace so downstream users can depend
//! on a single crate:
//!
//! * [`sim`] — the micro-architectural simulator (caches, cycle model);
//! * [`analysis`] — the profiler / metrics / experiment toolkit (the
//!   paper's methodology as a library);
//! * [`db`] — shared OLTP types and the [`db::Db`] engine interface;
//! * [`idx`] — the four index structures (disk B+tree, cache-conscious
//!   B+tree, ART, hash);
//! * [`store`] — buffer pool, 2PL lock manager, WAL, MVCC version store;
//! * [`systems`] — the five analyzed engine archetypes (Shore-MT, DBMS D,
//!   VoltDB, HyPer, DBMS M);
//! * [bench](crate::bench) — micro-benchmark, TPC-B and TPC-C workloads and drivers;
//! * [obs](crate::obs) — structured tracing: per-phase spans, counter-delta
//!   sinks (ring buffer / JSONL / Perfetto), log-bucketed histograms;
//! * [faults](crate::faults) — deterministic seed-driven fault injection
//!   (replayable [`faults::FaultPlan`]s, named sites, the [`faults::fire`] probe);
//! * [harness](crate::harness) — the experiment/figure harness library,
//!   including the chaos runner ([`harness::chaos`]).
//!
//! See `examples/quickstart.rs` for the five-minute tour and the
//! `figures` binary (crate `bench`) for the full figure-reproduction
//! harness.

pub use engines as systems;
pub use faults;
pub use harness;
pub use indexes as idx;
pub use microarch as analysis;
pub use obs;
pub use oltp as db;
pub use storage as store;
pub use uarch_sim as sim;
pub use workloads as bench;
