//! # microarch — the paper's measurement methodology as a library
//!
//! Sirin et al. (SIGMOD'16) characterize OLTP systems with four observables:
//! IPC, stall cycles per 1000 instructions (SPKI), stall cycles per
//! transaction (SPT) — each broken into the six miss classes L1I / L2I /
//! LLC-I / L1D / L2D / LLC-D — and the share of execution time spent inside
//! the OLTP engine (code-module attribution).
//!
//! This crate implements that methodology against the [`uarch_sim`]
//! simulator, mirroring the paper's VTune workflow:
//!
//! * [`profiler::Profiler`] — "attach" to a running engine's core and take
//!   counter-window deltas (the analogue of sampling the middle 30 s of a
//!   60 s run);
//! * [`measurement::Measurement`] — derived metrics for one window;
//! * [`experiment`] — warm-up / measure windows, repetition averaging
//!   (the paper repeats every experiment three times), and multi-worker
//!   aggregation (the paper averages per-worker-thread counters);
//! * [`report`] — paper-style figure tables (grouped bars rendered as
//!   aligned text / markdown / CSV).

pub mod experiment;
pub mod measurement;
pub mod profiler;
pub mod report;

pub use experiment::{measure, measure_multi, measure_workers, Pacing, WindowSpec};
pub use measurement::{Measurement, ModuleShare};
pub use profiler::{Profiler, Sample};
pub use report::{markdown_table, ScalarFigure, StallFigure};
