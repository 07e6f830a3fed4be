//! Fuzzy checkpoints: chunked snapshots of engine state taken through an
//! ordinary [`Session`] while workers keep running.
//!
//! A checkpoint here is *fuzzy* in the classical sense: it is not a
//! point-in-time image. Capture proceeds in chunks interleaved with live
//! transactions, so different rows reflect different moments between the
//! checkpoint's `begin_lsn` (the log horizon when capture started) and
//! `end_lsn` (the horizon when it finished, after a forced group flush).
//! Recovery compensates exactly the way ARIES does around a fuzzy
//! checkpoint: redo replays every finished transaction's records past
//! `begin_lsn` with full-image (idempotent) actions, and undo rolls back
//! the before-images of transactions still unfinished at the crash — see
//! [`crate::recovery::recover`].
//!
//! Two invariants make the image safe:
//!
//! 1. **No effect without a durable record.** Completing a checkpoint
//!    forces a log flush *after* the last chunk, so any row state the
//!    image captured has its originating record on the durable log.
//!    A checkpoint that crashed before completing is left marked
//!    incomplete and recovery ignores it (falling back to the full log),
//!    which is what makes kill-during-checkpoint prefix-consistent.
//! 2. **Covered-table tail.** The image records which tables it covers;
//!    records of uncovered tables are replayed from the beginning of the
//!    log, covered tables only from `begin_lsn` — per-table recovery
//!    horizons, like per-page recLSNs.

use bytes::Bytes;
use oltp::tuple::{self, BytesMut};
use oltp::{OltpError, OltpResult, Session, TableId};

use crate::wal::Lsn;

/// Captured rows of one table (encoded with the engines' tuple codec).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableImage {
    /// Table the rows belong to.
    pub table: u32,
    /// `(key, encoded row)` pairs, in capture order.
    pub rows: Vec<(u64, Bytes)>,
}

/// A (possibly fuzzy) checkpoint image plus its log coordinates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Log horizon when capture started: records at or below this LSN on
    /// covered tables are already reflected in the image.
    pub begin_lsn: Lsn,
    /// Log horizon when capture finished (after the completing flush).
    pub end_lsn: Lsn,
    /// Whether capture finished and the completing flush ran. Recovery
    /// ignores incomplete checkpoints.
    pub complete: bool,
    /// Captured tables.
    pub tables: Vec<TableImage>,
}

impl Checkpoint {
    /// Whether the image covers `table` (uncovered tables recover from
    /// the full log instead of the tail).
    pub fn covers(&self, table: u32) -> bool {
        self.tables.iter().any(|t| t.table == table)
    }

    /// Total captured rows.
    pub fn rows(&self) -> u64 {
        self.tables.iter().map(|t| t.rows.len() as u64).sum()
    }

    /// Fold another worker's partial capture into this checkpoint,
    /// keeping the most conservative log coordinates (smallest begin —
    /// more redo — and largest end).
    pub fn absorb(&mut self, other: Checkpoint) {
        if self.tables.is_empty() && self.begin_lsn == Lsn(0) {
            self.begin_lsn = other.begin_lsn;
        } else {
            self.begin_lsn = self.begin_lsn.min(other.begin_lsn);
        }
        self.end_lsn = self.end_lsn.max(other.end_lsn);
        for img in other.tables {
            match self.tables.iter_mut().find(|t| t.table == img.table) {
                Some(t) => t.rows.extend(img.rows),
                None => self.tables.push(img),
            }
        }
    }
}

/// Incremental keyed capture of one table: the checkpoint "daemon" side
/// of a fuzzy checkpoint. Each [`Checkpointer::step`] reads a bounded
/// chunk of keys in its own read-only transaction, so capture interleaves
/// with live transactions instead of quiescing them.
pub struct Checkpointer {
    table: TableId,
    keys: Vec<u64>,
    cursor: usize,
    rows: Vec<(u64, Bytes)>,
    /// Each captured row is encoded here, then copied out at its size.
    stage: BytesMut,
}

impl Checkpointer {
    /// Capture `keys` of `table` (missing keys are skipped — they may
    /// have been deleted since the key universe was planned).
    pub fn new(table: TableId, keys: Vec<u64>) -> Self {
        Checkpointer {
            table,
            keys,
            cursor: 0,
            rows: Vec::new(),
            stage: BytesMut::new(),
        }
    }

    /// Whether every key has been visited.
    pub fn done(&self) -> bool {
        self.cursor >= self.keys.len()
    }

    /// Capture up to `max_rows` keys in one read-only transaction.
    /// Returns the number of keys visited. On a transient error (a row
    /// locked by an in-flight transaction, say) the transaction is
    /// aborted and the error returned; captured progress is kept and the
    /// next call resumes at the failed key.
    pub fn step(&mut self, s: &mut dyn Session, max_rows: usize) -> OltpResult<usize> {
        if self.done() || max_rows == 0 {
            return Ok(0);
        }
        let end = (self.cursor + max_rows).min(self.keys.len());
        s.begin();
        let mut visited = 0usize;
        let mut failed: Option<OltpError> = None;
        while self.cursor < end {
            let key = self.keys[self.cursor];
            let mut captured = false;
            match s.read_with(self.table, key, &mut |row| {
                self.stage.clear();
                tuple::encode_into(row, &mut self.stage);
                captured = true;
            }) {
                Ok(_found) => {
                    if captured {
                        self.rows.push((key, Bytes::copy_from_slice(&self.stage)));
                    }
                    self.cursor += 1;
                    visited += 1;
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        match failed {
            None => {
                // Read-only: commit is release-only, but an engine may
                // still refuse (validation); fall back to abort.
                if s.commit().is_err() {
                    s.abort();
                }
                Ok(visited)
            }
            Some(e) => {
                s.abort();
                Err(e)
            }
        }
    }

    /// The captured rows as a [`TableImage`].
    pub fn into_image(self) -> TableImage {
        TableImage {
            table: self.table.0,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::Value;

    /// Reuse the recovery tests' MiniDb through the public Session trait.
    use crate::recovery::tests::MiniDb;

    #[test]
    fn chunked_capture_interleaves_with_writes() {
        let mut db = MiniDb::new();
        for k in 0..8u64 {
            db.begin();
            db.insert(TableId(0), k, &[Value::Long(k as i64)]).unwrap();
            db.commit().unwrap();
        }
        let mut cp = Checkpointer::new(TableId(0), (0..8).collect());
        assert_eq!(cp.step(&mut db, 4).unwrap(), 4);
        assert!(!cp.done());
        // A write lands between chunks: the image is fuzzy by design.
        db.begin();
        db.update(TableId(0), 7, &mut |r| r[0] = Value::Long(700))
            .unwrap();
        db.commit().unwrap();
        assert_eq!(cp.step(&mut db, 16).unwrap(), 4);
        assert!(cp.done());
        let img = cp.into_image();
        assert_eq!(img.rows.len(), 8);
        let v7 = tuple::decode(&img.rows[7].1).unwrap();
        assert_eq!(v7[0], Value::Long(700), "late chunk sees the new value");
    }

    #[test]
    fn missing_keys_are_skipped() {
        let mut db = MiniDb::new();
        db.begin();
        db.insert(TableId(0), 2, &[Value::Long(2)]).unwrap();
        db.commit().unwrap();
        let mut cp = Checkpointer::new(TableId(0), vec![1, 2, 3]);
        cp.step(&mut db, 16).unwrap();
        assert!(cp.done());
        assert_eq!(
            cp.into_image().rows,
            vec![(2, Bytes::from(vec![0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0]))]
        );
    }

    #[test]
    fn absorb_merges_worker_chunks_conservatively() {
        let mut a = Checkpoint {
            begin_lsn: Lsn(10),
            end_lsn: Lsn(20),
            complete: false,
            tables: vec![TableImage {
                table: 3,
                rows: vec![(1, Bytes::from_static(b"x"))],
            }],
        };
        a.absorb(Checkpoint {
            begin_lsn: Lsn(8),
            end_lsn: Lsn(25),
            complete: false,
            tables: vec![
                TableImage {
                    table: 3,
                    rows: vec![(2, Bytes::from_static(b"y"))],
                },
                TableImage {
                    table: 4,
                    rows: vec![],
                },
            ],
        });
        assert_eq!(a.begin_lsn, Lsn(8), "smallest begin wins (more redo)");
        assert_eq!(a.end_lsn, Lsn(25));
        assert!(a.covers(3) && a.covers(4) && !a.covers(5));
        assert_eq!(a.rows(), 2);
    }
}
