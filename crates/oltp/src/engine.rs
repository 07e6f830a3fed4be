//! The engine interface the workloads drive.
//!
//! The paper's benchmarks are pre-determined stored procedures (§2.1); the
//! operations they need are exactly: begin/commit/abort, key-based
//! insert/read/update/delete, and ordered range scans. Each of the five
//! engine archetypes implements this interface over its own storage,
//! concurrency-control, and code-footprint model.
//!
//! The interface is split in two, mirroring the paper's deployment model
//! (one worker thread per core/partition, §2.2):
//!
//! * [`Db`] — the shared engine: schema definition and bulk loading
//!   (`&mut self`, setup phase), plus [`Db::session`] to open per-worker
//!   handles.
//! * [`Session`] — a per-worker connection bound to one simulated core.
//!   Each worker owns one and drives begin/commit and all data operations
//!   through it; the harness interleaves the workers' operations on one
//!   host thread, as the simulated cores take turns.

use crate::schema::TableDef;
use crate::value::Value;

pub use crate::schema::TableId;

/// A row as seen by workloads.
pub type Row = Vec<Value>;

/// Engine error type.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OltpError {
    /// Insert with an existing key.
    DuplicateKey { table: TableId, key: u64 },
    /// Operation referenced an unknown table.
    NoSuchTable(TableId),
    /// A data operation arrived outside a transaction.
    NoActiveTxn,
    /// The transaction was aborted for a logical reason (explicit rollback,
    /// engine-internal policy).
    Aborted(&'static str),
    /// The transaction lost a concurrency-control race on `key`: a lock
    /// held by another transaction or a partition owned by another
    /// single-sited transaction. Retryable.
    Conflict { table: TableId, key: u64 },
    /// The transaction was chosen as the deadlock-avoidance victim (e.g.
    /// the younger side of a wait-die collision on `key`). Retryable with
    /// backoff, like [`OltpError::Conflict`], but counted separately so
    /// protocol comparisons can tell victims from plain lock losses.
    DeadlockVictim { table: TableId, key: u64 },
    /// OCC/timestamp validation failed at commit: another transaction
    /// wrote `key` after this one read it (or out of timestamp order).
    /// Retryable with backoff; counted separately from lock conflicts.
    ValidationFailed { table: TableId, key: u64 },
    /// The engine does not support the operation (e.g. range scan on a
    /// hash index).
    Unsupported(&'static str),
    /// An internal latch could not be acquired in time. Transient:
    /// retryable with backoff, like [`OltpError::Conflict`].
    LatchTimeout(&'static str),
    /// A WAL / command-log write failed; the transaction's durability is
    /// not established and it must be aborted. Retryable a bounded number
    /// of times (the log device may recover).
    LogWriteFailed(&'static str),
    /// The session is wedged (e.g. its worker observed a fault that left
    /// connection state inconsistent). Not retryable on this session: the
    /// caller must drop it and open a fresh one.
    SessionPoisoned,
}

impl std::fmt::Display for OltpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OltpError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {}", table.0)
            }
            OltpError::NoSuchTable(t) => write!(f, "no such table {}", t.0),
            OltpError::NoActiveTxn => write!(f, "no active transaction"),
            OltpError::Aborted(why) => write!(f, "transaction aborted: {why}"),
            OltpError::Conflict { table, key } => {
                write!(f, "conflict on key {key} in table {}", table.0)
            }
            OltpError::DeadlockVictim { table, key } => {
                write!(f, "deadlock victim on key {key} in table {}", table.0)
            }
            OltpError::ValidationFailed { table, key } => {
                write!(f, "validation failed on key {key} in table {}", table.0)
            }
            OltpError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            OltpError::LatchTimeout(site) => write!(f, "latch acquire timed out at {site}"),
            OltpError::LogWriteFailed(site) => write!(f, "log write failed at {site}"),
            OltpError::SessionPoisoned => write!(f, "session poisoned; re-open required"),
        }
    }
}

impl std::error::Error for OltpError {}

impl OltpError {
    /// Stable five-character error code, SQLSTATE-style. This is the
    /// wire-protocol contract: codes never change across releases even if
    /// variant names or payloads do, so clients may match on them. Codes
    /// follow the PostgreSQL classes where one fits (`40001` is the
    /// standard serialization failure, `40P01` the deadlock victim,
    /// `08006` the broken connection); repo-specific conditions use the
    /// implementation-defined `58xxx`/`0Axxx` space.
    pub fn code(&self) -> &'static str {
        match self {
            OltpError::DuplicateKey { .. } => "23505",
            OltpError::NoSuchTable(_) => "42P01",
            OltpError::NoActiveTxn => "25P01",
            OltpError::Aborted(_) => "40000",
            OltpError::Conflict { .. } => "40001",
            OltpError::DeadlockVictim { .. } => "40P01",
            OltpError::ValidationFailed { .. } => "40002",
            OltpError::Unsupported(_) => "0A000",
            OltpError::LatchTimeout(_) => "55P03",
            OltpError::LogWriteFailed(_) => "58030",
            OltpError::SessionPoisoned => "08006",
        }
    }

    /// Inverse of [`OltpError::code`] for the client side of the wire
    /// protocol: reconstruct a canonical error from a received code so
    /// `retry::classify` sees the same retryability the server intended.
    /// Key/table payloads are not carried by the code; reconstructed
    /// variants use zeroed keys and a `"remote"` site. Unknown codes map
    /// to `None` (callers should treat them as fatal).
    pub fn from_code(code: &str) -> Option<OltpError> {
        let t = TableId(0);
        Some(match code {
            "23505" => OltpError::DuplicateKey { table: t, key: 0 },
            "42P01" => OltpError::NoSuchTable(t),
            "25P01" => OltpError::NoActiveTxn,
            "40000" => OltpError::Aborted("remote"),
            "40001" => OltpError::Conflict { table: t, key: 0 },
            "40P01" => OltpError::DeadlockVictim { table: t, key: 0 },
            "40002" => OltpError::ValidationFailed { table: t, key: 0 },
            "0A000" => OltpError::Unsupported("remote"),
            "55P03" => OltpError::LatchTimeout("remote"),
            "58030" => OltpError::LogWriteFailed("remote"),
            "08006" => OltpError::SessionPoisoned,
            _ => return None,
        })
    }
}

/// Engine result type.
pub type OltpResult<T> = Result<T, OltpError>;

/// The shared database engine: schema and loading.
///
/// `Db` methods run during the setup phase; all transactional work goes
/// through per-worker [`Session`] handles opened with [`Db::session`].
///
/// A database lives on the thread that built it, with its simulator.
/// Engines keep their mutable state behind `RefCell`s, so [`Db::session`]
/// works through a shared reference — the chaos harness re-opens a session
/// mid-window after a poison fault.
pub trait Db {
    /// Engine display name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Number of physical data partitions (1 for non-partitioned engines).
    /// Loaders replicate read-only tables (TPC-C's ITEM) per partition,
    /// as partitioned systems do.
    fn partitions(&self) -> usize {
        1
    }

    /// Create a table; must be called before any transaction touches it.
    fn create_table(&mut self, def: TableDef) -> TableId;

    /// Hook invoked once after bulk loading (compile procedures, settle
    /// structures). Default: nothing.
    fn finish_load(&mut self) {}

    /// Number of live rows in `table` (loading/diagnostics; not required to
    /// be transactional).
    fn row_count(&self, table: TableId) -> u64;

    /// Open a worker connection bound to simulated core `core`.
    /// Partitioned engines (VoltDB, HyPer) additionally map the core to a
    /// data partition, matching the paper's one-worker-per-partition
    /// deployment. Any number of sessions may be open at once; the caller
    /// interleaves their operations.
    fn session(&self, core: usize) -> Box<dyn Session>;
}

/// A per-worker connection: transaction control and data operations, bound
/// to one simulated core for its whole lifetime. Sessions of one database
/// run on its thread; a harness drives several by interleaving their
/// operations.
pub trait Session {
    /// Engine display name (for error messages and span attribution).
    fn name(&self) -> &'static str;

    /// The simulated core this session is bound to.
    fn core(&self) -> usize;

    /// Begin a transaction.
    fn begin(&mut self);

    /// Commit the active transaction.
    fn commit(&mut self) -> OltpResult<()>;

    /// Abort the active transaction. Engines without physical undo simply
    /// discard transaction-local state; this suffices for the benchmarks,
    /// which never abort after modifying data.
    fn abort(&mut self);

    /// Insert `row` under `key`.
    fn insert(&mut self, table: TableId, key: u64, row: &[Value]) -> OltpResult<()>;

    /// Visit the row stored under `key`; returns whether it existed.
    fn read_with(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> OltpResult<bool>;

    /// Update the row under `key` in place; returns whether it existed.
    fn update(&mut self, table: TableId, key: u64, f: &mut dyn FnMut(&mut Row))
        -> OltpResult<bool>;

    /// Ordered scan of keys in `[lo, hi]`; the visitor returns `false` to
    /// stop early. Returns the number of rows visited.
    fn scan(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64>;

    /// Delete the row under `key`; returns whether it existed.
    fn delete(&mut self, table: TableId, key: u64) -> OltpResult<bool>;

    /// Convenience: read an owned copy of the row under `key`.
    fn read(&mut self, table: TableId, key: u64) -> OltpResult<Option<Row>> {
        let mut out = None;
        self.read_with(table, key, &mut |r| out = Some(r.to_vec()))?;
        Ok(out)
    }

    /// Insert the row encoded in `image` ([`crate::tuple`]) under `key`.
    ///
    /// Recovery applies logged row images through this method and its
    /// two siblings. The defaults decode the image and call the row
    /// methods, so an engine target runs the same operations a workload
    /// would. A target that keeps rows encoded overrides all three and
    /// stores the bytes as they are, once [`check_image`] accepts them.
    /// Either way, an image that does not decode is refused and nothing
    /// is stored.
    fn insert_image(&mut self, table: TableId, key: u64, image: &[u8]) -> OltpResult<()> {
        let row = decode_image(image)?;
        self.insert(table, key, &row)
    }

    /// Replace the row under `key` with the one encoded in `image`;
    /// returns whether it existed (see [`Session::insert_image`]).
    fn update_image(&mut self, table: TableId, key: u64, image: &[u8]) -> OltpResult<bool> {
        let row = decode_image(image)?;
        self.update(table, key, &mut |target| target.clone_from(&row))
    }

    /// The idempotent full-image write: replace the row under `key` if it
    /// exists, insert it otherwise (see [`Session::insert_image`]).
    fn upsert_image(&mut self, table: TableId, key: u64, image: &[u8]) -> OltpResult<()> {
        if !self.update_image(table, key, image)? {
            self.insert_image(table, key, image)?;
        }
        Ok(())
    }
}

/// What the image methods of [`Session`] return for an image that does
/// not decode.
const BAD_IMAGE: OltpError = OltpError::Aborted("row image does not decode");

fn decode_image(image: &[u8]) -> OltpResult<Row> {
    crate::tuple::decode(image).map_err(|_| BAD_IMAGE)
}

/// Refuse, as the image methods of [`Session`] do, an image that would
/// not decode; the check walks the bytes and allocates nothing.
pub fn check_image(image: &[u8]) -> OltpResult<()> {
    crate::tuple::check(image).map_err(|_| BAD_IMAGE)
}

/// Run one transaction as a closure with automatic commit (the benchmarks'
/// happy path). On closure error the transaction is aborted and the error
/// propagated.
pub fn run_txn<T>(
    s: &mut dyn Session,
    body: impl FnOnce(&mut dyn Session) -> OltpResult<T>,
) -> OltpResult<T> {
    s.begin();
    match body(s) {
        Ok(v) => {
            s.commit()?;
            Ok(v)
        }
        Err(e) => {
            s.abort();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = OltpError::DuplicateKey {
            table: TableId(3),
            key: 9,
        };
        assert_eq!(e.to_string(), "duplicate key 9 in table 3");
        assert!(OltpError::Aborted("validation")
            .to_string()
            .contains("validation"));
        let c = OltpError::Conflict {
            table: TableId(1),
            key: 7,
        };
        assert_eq!(c.to_string(), "conflict on key 7 in table 1");
        let v = OltpError::DeadlockVictim {
            table: TableId(2),
            key: 5,
        };
        assert_eq!(v.to_string(), "deadlock victim on key 5 in table 2");
        let vf = OltpError::ValidationFailed {
            table: TableId(2),
            key: 5,
        };
        assert_eq!(vf.to_string(), "validation failed on key 5 in table 2");
    }

    /// One instance of every variant, for exhaustive code-mapping checks.
    fn all_variants() -> Vec<OltpError> {
        let t = TableId(1);
        vec![
            OltpError::DuplicateKey { table: t, key: 1 },
            OltpError::NoSuchTable(t),
            OltpError::NoActiveTxn,
            OltpError::Aborted("x"),
            OltpError::Conflict { table: t, key: 1 },
            OltpError::DeadlockVictim { table: t, key: 1 },
            OltpError::ValidationFailed { table: t, key: 1 },
            OltpError::Unsupported("x"),
            OltpError::LatchTimeout("x"),
            OltpError::LogWriteFailed("x"),
            OltpError::SessionPoisoned,
        ]
    }

    #[test]
    fn error_codes_are_stable_and_unique() {
        // Pinned: these exact strings are the wire contract.
        assert_eq!(OltpError::SessionPoisoned.code(), "08006");
        assert_eq!(
            OltpError::Conflict {
                table: TableId(0),
                key: 0
            }
            .code(),
            "40001"
        );
        let codes: Vec<_> = all_variants().iter().map(|e| e.code()).collect();
        let mut uniq = codes.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "codes must be unique: {codes:?}");
    }

    #[test]
    fn from_code_round_trips_every_variant() {
        for e in all_variants() {
            let back = OltpError::from_code(e.code()).expect("known code");
            // The reconstructed error must map back to the same code (the
            // payloads are lossy by design).
            assert_eq!(back.code(), e.code(), "{e:?} -> {back:?}");
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&e),
                "{e:?} -> {back:?}"
            );
        }
        assert_eq!(OltpError::from_code("99999"), None);
    }

    #[test]
    fn error_codes_preserve_retry_class_through_the_wire() {
        use crate::retry::classify;
        for e in all_variants() {
            let back = OltpError::from_code(e.code()).unwrap();
            assert_eq!(classify(&back), classify(&e), "{e:?}");
        }
    }
}
