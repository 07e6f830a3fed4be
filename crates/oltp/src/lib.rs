//! # oltp — shared OLTP infrastructure
//!
//! Workload-facing types used by every engine in the workspace:
//!
//! * [`value::Value`] / [`value::DataType`] — the two column types the
//!   paper's micro-benchmark exercises (`Long` and 50-byte `String`);
//! * [`schema::Schema`] / [`schema::TableDef`] — table definitions;
//! * [tuple](crate::tuple) — a compact row codec (also used to size rows in the
//!   simulated address space);
//! * [`keys`] — order-preserving composite-key packing into `u64`
//!   (TPC-C's multi-column primary keys);
//! * [`engine::Db`] / [`engine::Session`] — the engine interface the
//!   workloads drive: `Db` covers schema and bulk loading, and each worker
//!   opens a [`engine::Session`] (bound to one simulated core) for
//!   explicit transaction boundaries plus key-based
//!   insert/read/update/scan/delete, i.e. the operation set of the paper's
//!   stored procedures.

//! ```
//! use oltp::KeyPack;
//! // TPC-C's (w_id, d_id, o_id) packs order-preservingly into a u64:
//! let k = KeyPack::new().field(3, 10).field(7, 4).field(1000, 24).get();
//! let (lo, hi) = KeyPack::new().field(3, 10).field(7, 4).prefix_range(24);
//! assert!(lo <= k && k <= hi);
//! ```

pub mod cc;
pub mod engine;
pub mod keys;
pub mod retry;
pub mod schema;
pub mod tuple;
pub mod value;

pub use cc::{CcPolicy, CcResult, CcViolation, ConcurrencyControl};
pub use engine::{check_image, run_txn, Db, OltpError, OltpResult, Row, Session, TableId};
pub use keys::KeyPack;
pub use retry::{Backoff, ErrorClass, RetryPolicy, RetryStats, TxnOutcome};
pub use schema::{Column, Schema, TableDef};
pub use value::{DataType, Value};
