//! Crash recovery: rebuild a digest-verifiable database from a fuzzy
//! checkpoint image plus the durable log tail.
//!
//! Two entry points:
//!
//! * [`replay`] — the strict reference path: two-pass redo of committed
//!   transactions into a fresh, empty database. No checkpoint, no undo;
//!   a committed record that cannot apply is an error. The recovery
//!   harness uses this as the independent re-execution that recovered
//!   digests are checked against.
//! * [`recover`] — the ARIES-lite production path: load the checkpoint
//!   image (if complete), redo committed transactions' records past the
//!   image's per-table horizon with *idempotent full-image* actions
//!   (upsert / delete-if-present), then undo the before-images of
//!   transactions left unfinished by the crash, in reverse LSN order.
//!   Undo is what makes a *fuzzy* image safe: under in-place 2PL a
//!   checkpoint chunk can capture a value written by a transaction that
//!   never commits, and its `undo` payload is the only way back.
//!
//! Both operate on one log stream and one [`Session`]; partitioned
//! engines (VoltDB, HyPer) recover each partition's stream through a
//! session pinned to that partition's core, mirroring how their command
//! logs replay per-site.
//!
//! Both start from the same analysis and share nothing after it. A
//! transaction's fate is read off its control records alone: a Commit
//! record makes it a winner (even beside an Abort record), an Abort
//! record without one makes it aborted, neither leaves it unfinished. The
//! analysis keeps one `(txn, fate)` entry per transaction that has a
//! Commit or Abort record, sorted by id, and the apply loops look a
//! record's transaction up in it — an id that is not found is
//! unfinished. The table is complete before the first lookup and never
//! changes after, so a lookup is a pure function of the id. A lookup is
//! a forward cursor: ids mostly ascend along a stream, so it starts where
//! the last one landed, probes the next few entries and only then falls
//! back to a binary search (interleaved streams, an id below the last).
//! While an id repeats, which it does for every record but the first of
//! a transaction on an uninterleaved stream, the first probe answers. The
//! analysis also notes where the first unfinished record sits, so undo
//! scans the tail a crash can have left open and not the whole log.
//!
//! Row images stay bytes from the log to the target: the apply loops hand
//! each logged or checkpointed image to the session's image methods
//! ([`Session::insert_image`], [`Session::update_image`],
//! [`Session::upsert_image`]). An engine target decodes it there and runs
//! its ordinary row operations; a target that keeps rows encoded stores
//! the bytes as they are. Either way an image that does not decode stops
//! the pass with [`ReplayError::MissingRedo`], and the walk that tells a
//! corrupt image from a refused one runs only when the target refused.

use oltp::{tuple, OltpError, OltpResult, Session, TableId};

use crate::checkpoint::Checkpoint;
use crate::txn::TxnId;
use crate::wal::{LogKind, LogRecord, Lsn};

/// Entries a [`Fates`] lookup probes past its cursor before it searches.
const PROBE: usize = 4;

/// Redo actions applied per transaction batch during [`recover`] (bounds
/// recovery-transaction size without changing the result — every action
/// is idempotent).
const OPS_PER_TXN: usize = 128;

/// Statistics from one reference [`replay`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Committed transactions replayed.
    pub txns: u64,
    /// Transactions skipped (no commit record — "losers").
    pub losers: u64,
    /// Data records applied.
    pub applied: u64,
}

/// Statistics from one [`recover`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transactions with a durable Commit record (redone).
    pub winners: u64,
    /// Transactions with a durable Abort record (skipped entirely).
    pub aborted: u64,
    /// Transactions with neither — in flight at the crash (undone).
    pub unfinished: u64,
    /// Rows loaded from the checkpoint image.
    pub image_rows: u64,
    /// Redo actions applied from the log.
    pub redo_applied: u64,
    /// Redo records skipped because the checkpoint image already covers
    /// them (at or below the image's begin horizon on a covered table).
    pub redo_skipped: u64,
    /// Undo actions applied for unfinished transactions.
    pub undo_applied: u64,
    /// Undo records without a before-image (nothing installed to roll
    /// back — e.g. MVCC engines whose uncommitted writes are invisible).
    pub undo_skipped: u64,
}

/// Errors surfaced by replay/recovery.
#[derive(Debug)]
pub enum ReplayError {
    /// A data record of a committed transaction lacked its redo payload
    /// (the log was not retained with payloads).
    MissingRedo(TxnId),
    /// The target database rejected a redo action.
    Apply(OltpError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingRedo(t) => write!(f, "missing redo payload for txn {}", t.0),
            ReplayError::Apply(e) => write!(f, "redo apply failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<OltpError> for ReplayError {
    fn from(e: OltpError) -> Self {
        ReplayError::Apply(e)
    }
}

/// How a transaction's records on one stream say it ended. Ordered so
/// that, of two control records of one transaction, the Commit sorts
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Fate {
    /// Has a Commit record: redone.
    Committed,
    /// Has an Abort record and no Commit record: skipped.
    Aborted,
    /// Has neither: in flight at the crash.
    Unfinished,
}

/// The analysis pass over one stream (see the module docs).
struct Fates {
    /// One entry per transaction with a Commit or Abort record, sorted
    /// by id.
    ended: Vec<(TxnId, Fate)>,
    /// Where the last lookup's id sits (or would sit) in `ended`.
    at: usize,
    /// Distinct transactions of each fate.
    committed: u64,
    aborted: u64,
    unfinished: u64,
    /// Index of the first record of an unfinished transaction (the
    /// stream's length if there is none): undo has nothing to do below it.
    undo_from: usize,
}

impl Fates {
    fn analyse(records: &[LogRecord]) -> Fates {
        let mut ended: Vec<(TxnId, Fate)> = records
            .iter()
            .filter_map(|r| match r.kind {
                LogKind::Commit => Some((r.txn, Fate::Committed)),
                LogKind::Abort => Some((r.txn, Fate::Aborted)),
                _ => None,
            })
            .collect();
        ended.sort_unstable();
        ended.dedup_by_key(|e| e.0);
        let committed = ended.iter().filter(|e| e.1 == Fate::Committed).count() as u64;
        let mut fates = Fates {
            aborted: ended.len() as u64 - committed,
            ended,
            at: 0,
            committed,
            unfinished: 0,
            undo_from: records.len(),
        };
        // Unfinished transactions have no entry to count; count their ids.
        let mut open: Vec<TxnId> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if fates.of(r.txn) == Fate::Unfinished && open.last() != Some(&r.txn) {
                if open.is_empty() {
                    fates.undo_from = i;
                }
                open.push(r.txn);
            }
        }
        open.sort_unstable();
        open.dedup();
        fates.unfinished = open.len() as u64;
        fates
    }

    fn of(&mut self, txn: TxnId) -> Fate {
        // Every entry below `lo` has a smaller id than `txn`: `lo` is the
        // cursor when the entry before it does, 0 otherwise.
        let lo = match self.at.checked_sub(1) {
            Some(prev) if self.ended[prev].0 >= txn => 0,
            _ => self.at,
        };
        let rest = &self.ended[lo..];
        self.at = lo
            + match rest.iter().take(PROBE).position(|e| e.0 >= txn) {
                Some(i) => i,
                None => rest.partition_point(|e| e.0 < txn),
            };
        match self.ended.get(self.at) {
            Some(&(t, fate)) if t == txn => fate,
            _ => Fate::Unfinished,
        }
    }
}

/// Replay `records` through `s`, a session on the target database. The
/// target must already have the same tables created (matching [`TableId`]
/// order) and be otherwise empty.
pub fn replay(records: &[LogRecord], s: &mut dyn Session) -> Result<ReplayStats, ReplayError> {
    // Pass 1: analysis — who committed?
    let mut fates = Fates::analyse(records);

    // Pass 2: redo committed work in LSN order. Each committed transaction
    // is re-applied atomically.
    let mut stats = ReplayStats {
        txns: fates.committed,
        losers: fates.aborted + fates.unfinished,
        applied: 0,
    };
    // Whether a target transaction is open. The target is single-writer,
    // so winners interleaved on a shared stream share brackets: a Begin
    // closes whatever is open, a Commit closes it for everyone.
    let mut open = false;
    for r in records {
        if fates.of(r.txn) != Fate::Committed {
            continue;
        }
        match r.kind {
            LogKind::Begin => {
                if open {
                    s.commit()?;
                }
                s.begin();
                open = true;
            }
            LogKind::Insert => {
                ensure_open(s, &mut open);
                let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                apply(redo, r.txn, |image| {
                    s.insert_image(TableId(r.table), r.key, image)
                })?;
                stats.applied += 1;
            }
            LogKind::Update => {
                ensure_open(s, &mut open);
                let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                let updated = apply(redo, r.txn, |image| {
                    s.update_image(TableId(r.table), r.key, image)
                })?;
                if !updated {
                    // Update of a row created by the same transaction
                    // stream must exist; anything else is a corrupt log.
                    return Err(ReplayError::Apply(OltpError::Aborted("redo update missed")));
                }
                stats.applied += 1;
            }
            LogKind::Delete => {
                ensure_open(s, &mut open);
                s.delete(TableId(r.table), r.key)?;
                stats.applied += 1;
            }
            LogKind::Commit => {
                if std::mem::take(&mut open) {
                    s.commit()?;
                }
            }
            LogKind::Abort => {}
        }
    }
    if open {
        // A winner's record after the stream's last winner Commit (its
        // own Commit came earlier): close the bracket it opened.
        s.commit()?;
    }
    Ok(stats)
}

fn ensure_open(s: &mut dyn Session, open: &mut bool) {
    if !*open {
        s.begin();
        *open = true;
    }
}

/// Batches idempotent recovery actions into bounded transactions.
struct Batch {
    open: bool,
    ops: usize,
}

impl Batch {
    fn new() -> Self {
        Batch {
            open: false,
            ops: 0,
        }
    }
    fn ensure(&mut self, s: &mut dyn Session) {
        if !self.open {
            s.begin();
            self.open = true;
            self.ops = 0;
        }
    }
    fn bump(&mut self, s: &mut dyn Session) -> Result<(), ReplayError> {
        self.ops += 1;
        if self.ops >= OPS_PER_TXN {
            self.close(s)?;
        }
        Ok(())
    }
    fn close(&mut self, s: &mut dyn Session) -> Result<(), ReplayError> {
        if self.open {
            self.open = false;
            s.commit()?;
        }
        Ok(())
    }
}

/// Hand `image` to one of the session's image methods. A refusal is the
/// record's redo missing if the image does not decode, and the target's
/// error otherwise.
fn apply<T>(
    image: &[u8],
    txn: TxnId,
    to: impl FnOnce(&[u8]) -> OltpResult<T>,
) -> Result<T, ReplayError> {
    to(image).map_err(|e| match tuple::check(image) {
        Ok(()) => ReplayError::Apply(e),
        Err(_) => ReplayError::MissingRedo(txn),
    })
}

/// Idempotent full-image write: update the row if present, insert it
/// otherwise.
fn upsert(
    s: &mut dyn Session,
    table: u32,
    key: u64,
    image: &[u8],
    txn: TxnId,
) -> Result<(), ReplayError> {
    apply(image, txn, |image| {
        s.upsert_image(TableId(table), key, image)
    })
}

/// Restore a database from a fuzzy checkpoint plus one log stream.
///
/// `records` must be the *durable* prefix of the stream (the harness
/// truncates at the flushed horizon before calling). The target database
/// must have its tables created and be otherwise empty.
///
/// Order of operations (ARIES-lite):
/// 1. load the image's rows as upserts — only if the checkpoint
///    completed; an incomplete (crashed) checkpoint is ignored and the
///    full log replays instead, which is what makes a kill during
///    checkpointing prefix-consistent;
/// 2. redo winners' records in LSN order as idempotent full-image
///    actions, skipping records the image already covers (covered table
///    and `lsn <= begin_lsn`);
/// 3. undo unfinished transactions' records in reverse LSN order from
///    their before-images (`undo` of an Insert deletes the key; of an
///    Update/Delete restores the captured bytes). Transactions with a
///    durable Abort record need no undo — the engine rolled them back
///    in place before the crash, so no image chunk can hold their
///    effects.
pub fn recover(
    ckpt: Option<&Checkpoint>,
    records: &[LogRecord],
    s: &mut dyn Session,
) -> Result<RecoveryStats, ReplayError> {
    let mut fates = Fates::analyse(records);
    let mut stats = RecoveryStats {
        winners: fates.committed,
        aborted: fates.aborted,
        unfinished: fates.unfinished,
        ..Default::default()
    };

    let image = ckpt.filter(|c| c.complete);
    let mut batch = Batch::new();

    // 1. Image load.
    if let Some(c) = image {
        for t in &c.tables {
            for (key, bytes) in &t.rows {
                batch.ensure(s);
                upsert(s, t.table, *key, bytes, TxnId(0))?;
                stats.image_rows += 1;
                batch.bump(s)?;
            }
        }
    }

    // 2. Redo winners past the image's horizon.
    let covered = |table: u32, lsn: Lsn| -> bool {
        image.is_some_and(|c| c.covers(table) && lsn <= c.begin_lsn)
    };
    for r in records {
        if fates.of(r.txn) != Fate::Committed {
            continue;
        }
        match r.kind {
            LogKind::Insert | LogKind::Update => {
                if covered(r.table, r.lsn) {
                    stats.redo_skipped += 1;
                    continue;
                }
                let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                batch.ensure(s);
                upsert(s, r.table, r.key, redo, r.txn)?;
                stats.redo_applied += 1;
                batch.bump(s)?;
            }
            LogKind::Delete => {
                if covered(r.table, r.lsn) {
                    stats.redo_skipped += 1;
                    continue;
                }
                batch.ensure(s);
                s.delete(TableId(r.table), r.key)?;
                stats.redo_applied += 1;
                batch.bump(s)?;
            }
            LogKind::Begin | LogKind::Commit | LogKind::Abort => {}
        }
    }

    // 3. Undo unfinished transactions from their before-images, newest
    // first, down to the first record any of them wrote. Unfinished work
    // sits at the tail of the stream (a crash mid transaction), and under
    // 2PL its locks were still held, so no later winner touched the same
    // keys — tolerant deletes/upserts are safe.
    for r in records[fates.undo_from..].iter().rev() {
        if fates.of(r.txn) != Fate::Unfinished {
            continue;
        }
        match r.kind {
            LogKind::Insert => {
                batch.ensure(s);
                s.delete(TableId(r.table), r.key)?;
                stats.undo_applied += 1;
                batch.bump(s)?;
            }
            LogKind::Update | LogKind::Delete => match r.undo.as_ref() {
                Some(before) => {
                    batch.ensure(s);
                    upsert(s, r.table, r.key, before, r.txn)?;
                    stats.undo_applied += 1;
                    batch.bump(s)?;
                }
                None => stats.undo_skipped += 1,
            },
            LogKind::Begin | LogKind::Commit | LogKind::Abort => {}
        }
    }

    batch.close(s)?;
    Ok(stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, TableImage};
    use crate::wal::{Image, Wal};
    use oltp::Value;
    use std::collections::btree_map::Entry;
    use uarch_sim::{MachineConfig, Mem, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    fn row(v: i64) -> Vec<Value> {
        vec![Value::Long(v)]
    }

    /// `row(v)`, encoded.
    fn enc(v: i64) -> Vec<u8> {
        let mut buf = tuple::BytesMut::new();
        tuple::encode_into(&row(v), &mut buf);
        buf.to_vec()
    }

    /// `row(v)`, encoded into a checkpoint image's row.
    fn ckpt_row(key: u64, v: i64) -> (u64, bytes::Bytes) {
        (key, bytes::Bytes::from(enc(v)))
    }

    fn rec(wal: &mut Wal, mem: &Mem, txn: u64, kind: LogKind, key: u64, v: Option<i64>) {
        rec_undo(wal, mem, txn, kind, key, v, None);
    }

    fn rec_undo(
        wal: &mut Wal,
        mem: &Mem,
        txn: u64,
        kind: LogKind,
        key: u64,
        v: Option<i64>,
        before: Option<i64>,
    ) {
        let redo = v.map(enc);
        let undo = before.map(enc);
        wal.append_data(
            mem,
            TxnId(txn),
            kind,
            0,
            key,
            redo.as_deref(),
            undo.as_deref(),
            16,
        );
    }

    /// Minimal Session for replay tests: a BTreeMap behind the trait.
    /// Shared with the checkpoint module's tests.
    pub(crate) struct MiniDb {
        pub(crate) rows: std::collections::BTreeMap<u64, Vec<Value>>,
        in_txn: bool,
    }

    impl MiniDb {
        pub(crate) fn new() -> Self {
            MiniDb {
                rows: Default::default(),
                in_txn: false,
            }
        }
    }

    impl Session for MiniDb {
        fn name(&self) -> &'static str {
            "mini"
        }
        fn core(&self) -> usize {
            0
        }
        fn begin(&mut self) {
            assert!(!self.in_txn);
            self.in_txn = true;
        }
        fn commit(&mut self) -> oltp::OltpResult<()> {
            assert!(self.in_txn);
            self.in_txn = false;
            Ok(())
        }
        fn abort(&mut self) {
            self.in_txn = false;
        }
        fn insert(&mut self, _t: TableId, key: u64, r: &[Value]) -> oltp::OltpResult<()> {
            if self.rows.contains_key(&key) {
                return Err(OltpError::DuplicateKey {
                    table: TableId(0),
                    key,
                });
            }
            self.rows.insert(key, r.to_vec());
            Ok(())
        }
        fn read_with(
            &mut self,
            _t: TableId,
            key: u64,
            f: &mut dyn FnMut(&[Value]),
        ) -> oltp::OltpResult<bool> {
            if let Some(r) = self.rows.get(&key) {
                f(r);
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn update(
            &mut self,
            _t: TableId,
            key: u64,
            f: &mut dyn FnMut(&mut oltp::Row),
        ) -> oltp::OltpResult<bool> {
            match self.rows.get_mut(&key) {
                Some(r) => {
                    f(r);
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        fn scan(
            &mut self,
            _t: TableId,
            lo: u64,
            hi: u64,
            f: &mut dyn FnMut(u64, &[Value]) -> bool,
        ) -> oltp::OltpResult<u64> {
            let mut n = 0;
            for (&k, r) in self.rows.range(lo..=hi) {
                n += 1;
                if !f(k, r) {
                    break;
                }
            }
            Ok(n)
        }
        fn delete(&mut self, _t: TableId, key: u64) -> oltp::OltpResult<bool> {
            Ok(self.rows.remove(&key).is_some())
        }
    }

    /// A target that keeps each row encoded, keyed by table and key, and
    /// overrides the image methods to store an image's bytes as they are:
    /// the byte path. Its row methods decode and re-encode, so the
    /// decode-path reference can drive it too and the two leave rows that
    /// compare byte for byte.
    #[derive(Default)]
    struct ByteDb {
        rows: std::collections::BTreeMap<(u32, u64), Vec<u8>>,
        in_txn: bool,
    }

    impl ByteDb {
        fn digest(&self) -> u64 {
            let mut h = uarch_sim::rng::Fnv::default();
            for (&(t, k), bytes) in &self.rows {
                h.word(t.into()).word(k).bytes(bytes);
            }
            h.0
        }
    }

    fn encoded(row: &[Value]) -> Vec<u8> {
        let mut buf = tuple::BytesMut::new();
        tuple::encode_into(row, &mut buf);
        buf.to_vec()
    }

    impl Session for ByteDb {
        fn name(&self) -> &'static str {
            "bytes"
        }
        fn core(&self) -> usize {
            0
        }
        fn begin(&mut self) {
            assert!(!self.in_txn);
            self.in_txn = true;
        }
        fn commit(&mut self) -> oltp::OltpResult<()> {
            assert!(self.in_txn);
            self.in_txn = false;
            Ok(())
        }
        fn abort(&mut self) {
            self.in_txn = false;
        }
        fn insert(&mut self, t: TableId, key: u64, r: &[Value]) -> oltp::OltpResult<()> {
            match self.rows.entry((t.0, key)) {
                Entry::Occupied(_) => Err(OltpError::DuplicateKey { table: t, key }),
                Entry::Vacant(slot) => {
                    slot.insert(encoded(r));
                    Ok(())
                }
            }
        }
        fn read_with(
            &mut self,
            t: TableId,
            key: u64,
            f: &mut dyn FnMut(&[Value]),
        ) -> oltp::OltpResult<bool> {
            let row = self
                .rows
                .get(&(t.0, key))
                .map(|b| tuple::decode(b).unwrap());
            Ok(row.map(|r| f(&r)).is_some())
        }
        fn update(
            &mut self,
            t: TableId,
            key: u64,
            f: &mut dyn FnMut(&mut oltp::Row),
        ) -> oltp::OltpResult<bool> {
            let Some(bytes) = self.rows.get_mut(&(t.0, key)) else {
                return Ok(false);
            };
            let mut row = tuple::decode(bytes).unwrap();
            f(&mut row);
            *bytes = encoded(&row);
            Ok(true)
        }
        fn scan(
            &mut self,
            t: TableId,
            lo: u64,
            hi: u64,
            f: &mut dyn FnMut(u64, &[Value]) -> bool,
        ) -> oltp::OltpResult<u64> {
            let mut n = 0;
            for (&(_, k), b) in self.rows.range((t.0, lo)..=(t.0, hi)) {
                n += 1;
                if !f(k, &tuple::decode(b).unwrap()) {
                    break;
                }
            }
            Ok(n)
        }
        fn delete(&mut self, t: TableId, key: u64) -> oltp::OltpResult<bool> {
            Ok(self.rows.remove(&(t.0, key)).is_some())
        }
        fn insert_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<()> {
            oltp::check_image(image)?;
            match self.rows.entry((t.0, key)) {
                Entry::Occupied(_) => Err(OltpError::DuplicateKey { table: t, key }),
                Entry::Vacant(slot) => {
                    slot.insert(image.to_vec());
                    Ok(())
                }
            }
        }
        fn update_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<bool> {
            oltp::check_image(image)?;
            let row = self.rows.get_mut(&(t.0, key));
            Ok(row.map(|b| *b = image.to_vec()).is_some())
        }
        fn upsert_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<()> {
            oltp::check_image(image)?;
            self.rows.insert((t.0, key), image.to_vec());
            Ok(())
        }
    }

    #[test]
    fn committed_work_is_replayed_losers_are_not() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 100);
        wal.retain_records(true);
        // T1 commits: insert 1=10, update 1=11.
        rec(&mut wal, &mem, 1, LogKind::Begin, 0, None);
        rec(&mut wal, &mem, 1, LogKind::Insert, 1, Some(10));
        rec(&mut wal, &mem, 1, LogKind::Update, 1, Some(11));
        rec(&mut wal, &mem, 1, LogKind::Commit, 0, None);
        // T2 never commits ("crash"): its insert must not survive.
        rec(&mut wal, &mem, 2, LogKind::Begin, 0, None);
        rec(&mut wal, &mem, 2, LogKind::Insert, 2, Some(20));
        // T3 commits an insert + delete of key 3.
        rec(&mut wal, &mem, 3, LogKind::Begin, 0, None);
        rec(&mut wal, &mem, 3, LogKind::Insert, 3, Some(30));
        rec(&mut wal, &mem, 3, LogKind::Delete, 3, None);
        rec(&mut wal, &mem, 3, LogKind::Commit, 0, None);

        let mut db = MiniDb::new();
        let stats = replay(&wal.records(), &mut db).unwrap();
        assert_eq!(stats.txns, 2);
        assert_eq!(stats.losers, 1);
        assert_eq!(stats.applied, 4);
        assert_eq!(db.rows.get(&1), Some(&row(11)));
        assert_eq!(db.rows.get(&2), None);
        assert_eq!(db.rows.get(&3), None);
    }

    #[test]
    fn missing_redo_payload_is_an_error() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 100);
        wal.retain_records(true);
        rec(&mut wal, &mem, 1, LogKind::Begin, 0, None);
        // Insert without payload (e.g. retention enabled too late).
        wal.append_data(&mem, TxnId(1), LogKind::Insert, 0, 9, None, None, 16);
        rec(&mut wal, &mem, 1, LogKind::Commit, 0, None);
        let mut db = MiniDb::new();
        assert!(matches!(
            replay(&wal.records(), &mut db),
            Err(ReplayError::MissingRedo(_))
        ));
    }

    /// A log with winners, an aborted txn (with data records), and an
    /// unfinished txn (crash mid-flight) with before-images.
    fn crash_log(mem: &Mem) -> Wal {
        let mut wal = Wal::new(mem, 1 << 16, 100);
        wal.retain_records(true);
        // T1 commits: insert 1=10, 2=20.
        rec(&mut wal, mem, 1, LogKind::Begin, 0, None);
        rec(&mut wal, mem, 1, LogKind::Insert, 1, Some(10));
        rec(&mut wal, mem, 1, LogKind::Insert, 2, Some(20));
        rec(&mut wal, mem, 1, LogKind::Commit, 0, None);
        // T2 aborts with data records on the log: effects must not appear.
        rec(&mut wal, mem, 2, LogKind::Begin, 0, None);
        rec_undo(&mut wal, mem, 2, LogKind::Update, 1, Some(666), Some(10));
        rec(&mut wal, mem, 2, LogKind::Insert, 9, Some(90));
        rec(&mut wal, mem, 2, LogKind::Abort, 0, None);
        // T3 commits: update 2=21.
        rec(&mut wal, mem, 3, LogKind::Begin, 0, None);
        rec_undo(&mut wal, mem, 3, LogKind::Update, 2, Some(21), Some(20));
        rec(&mut wal, mem, 3, LogKind::Commit, 0, None);
        // T4 crashes mid-flight: update 1=77 (undo 10), insert 5=50.
        rec(&mut wal, mem, 4, LogKind::Begin, 0, None);
        rec_undo(&mut wal, mem, 4, LogKind::Update, 1, Some(77), Some(10));
        rec(&mut wal, mem, 4, LogKind::Insert, 5, Some(50));
        wal
    }

    #[test]
    fn recover_without_checkpoint_matches_replay() {
        let mem = mem();
        let wal = crash_log(&mem);
        let mut a = MiniDb::new();
        let stats = recover(None, &wal.records(), &mut a).unwrap();
        assert_eq!(stats.winners, 2);
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.unfinished, 1);
        assert_eq!(stats.image_rows, 0);
        let mut b = MiniDb::new();
        replay(&wal.records(), &mut b).unwrap();
        assert_eq!(a.rows, b.rows, "no image: recover == reference replay");
        assert_eq!(a.rows.get(&1), Some(&row(10)));
        assert_eq!(a.rows.get(&2), Some(&row(21)));
        assert!(!a.rows.contains_key(&9), "aborted effects must not appear");
        assert!(!a.rows.contains_key(&5), "unfinished insert undone");
    }

    #[test]
    fn fuzzy_image_with_uncommitted_effect_is_undone() {
        let mem = mem();
        let wal = crash_log(&mem);
        let records = &wal.records();
        let end = records.last().unwrap().lsn;
        // A fuzzy image taken after T4's update landed: it captured the
        // uncommitted 1=77 and the committed 2=21, covering all records.
        let ckpt = Checkpoint {
            begin_lsn: end,
            end_lsn: end,
            complete: true,
            tables: vec![TableImage {
                table: 0,
                rows: vec![ckpt_row(1, 77), ckpt_row(2, 21), ckpt_row(5, 50)],
            }],
        };
        let mut db = MiniDb::new();
        let stats = recover(Some(&ckpt), records, &mut db).unwrap();
        assert_eq!(stats.image_rows, 3);
        assert!(stats.redo_skipped > 0, "image covers the whole tail");
        assert!(stats.undo_applied >= 2, "T4's update + insert rolled back");
        assert_eq!(db.rows.get(&1), Some(&row(10)), "before-image restored");
        assert_eq!(db.rows.get(&2), Some(&row(21)));
        assert!(!db.rows.contains_key(&5), "uncommitted insert deleted");
    }

    #[test]
    fn incomplete_checkpoint_is_ignored() {
        let mem = mem();
        let wal = crash_log(&mem);
        let records = &wal.records();
        let ckpt = Checkpoint {
            begin_lsn: records.last().unwrap().lsn,
            end_lsn: records.last().unwrap().lsn,
            complete: false,
            tables: vec![TableImage {
                table: 0,
                rows: vec![ckpt_row(1, 777)],
            }],
        };
        let mut db = MiniDb::new();
        let stats = recover(Some(&ckpt), records, &mut db).unwrap();
        assert_eq!(stats.image_rows, 0, "incomplete image must not load");
        assert_eq!(stats.redo_skipped, 0);
        assert_eq!(db.rows.get(&1), Some(&row(10)));
    }

    #[test]
    fn recovery_is_idempotent_across_runs() {
        let mem = mem();
        let wal = crash_log(&mem);
        let mut a = MiniDb::new();
        let mut b = MiniDb::new();
        let records = wal.records();
        let sa = recover(None, &records, &mut a).unwrap();
        let sb = recover(None, &records, &mut b).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.rows, b.rows, "two recoveries are bit-identical");
        // And recovering *again into the recovered state* converges too
        // (full-image actions are idempotent).
        let again = recover(None, &records, &mut a).unwrap();
        assert_eq!(again.redo_applied, sa.redo_applied);
        assert_eq!(a.rows, b.rows);
    }

    /// The analysis as it was before [`Fates`]: three hash sets per
    /// `recover`, two per `replay`, probed once per record. Kept with its
    /// apply loops so generated logs can be driven through both.
    mod reference {
        use super::super::*;
        use std::collections::HashSet;

        /// The full-image write as it was before the image methods: the
        /// image is decoded here and applied as a row.
        fn upsert(
            s: &mut dyn Session,
            table: u32,
            key: u64,
            bytes: &[u8],
            txn: TxnId,
        ) -> Result<(), ReplayError> {
            let row = tuple::decode(bytes).map_err(|_| ReplayError::MissingRedo(txn))?;
            let updated = s.update(TableId(table), key, &mut |target| {
                target.clone_from(&row);
            })?;
            if !updated {
                s.insert(TableId(table), key, &row)?;
            }
            Ok(())
        }

        pub(super) fn replay(
            records: &[LogRecord],
            s: &mut dyn Session,
        ) -> Result<ReplayStats, ReplayError> {
            let winners: HashSet<TxnId> = records
                .iter()
                .filter(|r| matches!(r.kind, LogKind::Commit))
                .map(|r| r.txn)
                .collect();
            let losers: HashSet<TxnId> = records
                .iter()
                .map(|r| r.txn)
                .filter(|t| !winners.contains(t))
                .collect();
            let mut stats = ReplayStats {
                txns: winners.len() as u64,
                losers: losers.len() as u64,
                applied: 0,
            };
            let mut open: Option<TxnId> = None;
            let ensure_open = |s: &mut dyn Session, open: &mut Option<TxnId>, txn| {
                if open.is_none() {
                    s.begin();
                    *open = Some(txn);
                }
            };
            for r in records {
                if !winners.contains(&r.txn) {
                    continue;
                }
                match r.kind {
                    LogKind::Begin => {
                        if open.take().is_some() {
                            s.commit()?;
                        }
                        s.begin();
                        open = Some(r.txn);
                    }
                    LogKind::Insert => {
                        ensure_open(s, &mut open, r.txn);
                        let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                        let row =
                            tuple::decode(redo).map_err(|_| ReplayError::MissingRedo(r.txn))?;
                        s.insert(TableId(r.table), r.key, &row)?;
                        stats.applied += 1;
                    }
                    LogKind::Update => {
                        ensure_open(s, &mut open, r.txn);
                        let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                        let row =
                            tuple::decode(redo).map_err(|_| ReplayError::MissingRedo(r.txn))?;
                        let updated = s.update(TableId(r.table), r.key, &mut |target| {
                            target.clone_from(&row);
                        })?;
                        if !updated {
                            return Err(ReplayError::Apply(OltpError::Aborted(
                                "redo update missed",
                            )));
                        }
                        stats.applied += 1;
                    }
                    LogKind::Delete => {
                        ensure_open(s, &mut open, r.txn);
                        s.delete(TableId(r.table), r.key)?;
                        stats.applied += 1;
                    }
                    LogKind::Commit => {
                        if open.take().is_some() {
                            s.commit()?;
                        }
                    }
                    LogKind::Abort => {}
                }
            }
            if open.take().is_some() {
                s.commit()?;
            }
            Ok(stats)
        }

        pub(super) fn recover(
            ckpt: Option<&Checkpoint>,
            records: &[LogRecord],
            s: &mut dyn Session,
        ) -> Result<RecoveryStats, ReplayError> {
            let winners: HashSet<TxnId> = records
                .iter()
                .filter(|r| matches!(r.kind, LogKind::Commit))
                .map(|r| r.txn)
                .collect();
            let aborted: HashSet<TxnId> = records
                .iter()
                .filter(|r| matches!(r.kind, LogKind::Abort))
                .map(|r| r.txn)
                .filter(|t| !winners.contains(t))
                .collect();
            let unfinished: HashSet<TxnId> = records
                .iter()
                .map(|r| r.txn)
                .filter(|t| !winners.contains(t) && !aborted.contains(t))
                .collect();
            let mut stats = RecoveryStats {
                winners: winners.len() as u64,
                aborted: aborted.len() as u64,
                unfinished: unfinished.len() as u64,
                ..Default::default()
            };
            let image = ckpt.filter(|c| c.complete);
            let mut batch = Batch::new();
            if let Some(c) = image {
                for t in &c.tables {
                    for (key, bytes) in &t.rows {
                        batch.ensure(s);
                        upsert(s, t.table, *key, bytes, TxnId(0))?;
                        stats.image_rows += 1;
                        batch.bump(s)?;
                    }
                }
            }
            let covered = |table: u32, lsn: Lsn| -> bool {
                image.is_some_and(|c| c.covers(table) && lsn <= c.begin_lsn)
            };
            for r in records {
                if !winners.contains(&r.txn) {
                    continue;
                }
                match r.kind {
                    LogKind::Insert | LogKind::Update | LogKind::Delete
                        if covered(r.table, r.lsn) =>
                    {
                        stats.redo_skipped += 1;
                    }
                    LogKind::Insert | LogKind::Update => {
                        let redo = r.redo.as_ref().ok_or(ReplayError::MissingRedo(r.txn))?;
                        batch.ensure(s);
                        upsert(s, r.table, r.key, redo, r.txn)?;
                        stats.redo_applied += 1;
                        batch.bump(s)?;
                    }
                    LogKind::Delete => {
                        batch.ensure(s);
                        s.delete(TableId(r.table), r.key)?;
                        stats.redo_applied += 1;
                        batch.bump(s)?;
                    }
                    LogKind::Begin | LogKind::Commit | LogKind::Abort => {}
                }
            }
            for r in records.iter().rev() {
                if !unfinished.contains(&r.txn) {
                    continue;
                }
                match r.kind {
                    LogKind::Insert => {
                        batch.ensure(s);
                        s.delete(TableId(r.table), r.key)?;
                        stats.undo_applied += 1;
                        batch.bump(s)?;
                    }
                    LogKind::Update | LogKind::Delete => match r.undo.as_ref() {
                        Some(before) => {
                            batch.ensure(s);
                            upsert(s, r.table, r.key, before, r.txn)?;
                            stats.undo_applied += 1;
                            batch.bump(s)?;
                        }
                        None => stats.undo_skipped += 1,
                    },
                    LogKind::Begin | LogKind::Commit | LogKind::Abort => {}
                }
            }
            batch.close(s)?;
            Ok(stats)
        }
    }

    /// A transaction the generator has open.
    struct OpenTxn {
        id: u64,
        /// `(key, value before this write)`, oldest first: what an abort
        /// rolls back in place.
        writes: Vec<(u64, Option<i64>)>,
    }

    /// A stream as an in-place 2PL engine with up to three concurrent
    /// writers would log it, plus a fuzzy image of the table taken
    /// somewhere along it. Transactions interleave; a key written by an
    /// open transaction stays locked until it ends, and one that is
    /// abandoned never ends. A quarter of the transactions log no Begin
    /// record (command logs); endings are Commit, Abort (after an
    /// in-place rollback), both records in either order, a duplicated
    /// Commit, or none.
    fn generated_log(seed: u64, steps: u64) -> (Vec<LogRecord>, Checkpoint) {
        use std::collections::BTreeMap;
        use uarch_sim::rng::XorShift64;

        let mut rng = XorShift64::new(seed);
        let mut records: Vec<LogRecord> = Vec::new();
        let mut table: BTreeMap<u64, i64> = BTreeMap::new();
        let mut locks: BTreeMap<u64, u64> = BTreeMap::new();
        let mut open: Vec<OpenTxn> = Vec::new();
        let (mut next_txn, mut next_key, mut next_val) = (1u64, 1u64, 100i64);
        let cut = rng.next_below(steps.max(1));
        let mut ckpt = Checkpoint {
            begin_lsn: Lsn(0),
            end_lsn: Lsn(0),
            complete: !seed.is_multiple_of(3),
            tables: vec![TableImage {
                table: 0,
                rows: Vec::new(),
            }],
        };
        let log =
            |records: &mut Vec<LogRecord>, txn, kind, key, redo: Option<i64>, undo: Option<i64>| {
                records.push(LogRecord {
                    lsn: Lsn(records.len() as u64 + 1),
                    txn: TxnId(txn),
                    kind,
                    len: 40,
                    table: 0,
                    key,
                    redo: redo.map(|v| Image::copy_of(&enc(v))),
                    undo: undo.map(|v| Image::copy_of(&enc(v))),
                });
            };
        for step in 0..steps {
            if step == cut {
                ckpt.begin_lsn = Lsn(records.len() as u64);
                ckpt.end_lsn = ckpt.begin_lsn;
                ckpt.tables[0].rows = table.iter().map(|(&k, &v)| ckpt_row(k, v)).collect();
            }
            if open.len() < 3 && (open.is_empty() || rng.chance(0.3)) {
                if rng.chance(0.75) {
                    log(&mut records, next_txn, LogKind::Begin, 0, None, None);
                }
                open.push(OpenTxn {
                    id: next_txn,
                    writes: Vec::new(),
                });
                next_txn += 1;
                continue;
            }
            let i = rng.next_below(open.len() as u64) as usize;
            let id = open[i].id;
            if rng.chance(0.7) {
                // A data record on a fresh key, or on an existing key no
                // other open transaction holds.
                let free: Vec<u64> = table
                    .keys()
                    .copied()
                    .filter(|k| locks.get(k).is_none_or(|&t| t == id))
                    .collect();
                next_val += 1;
                if free.is_empty() || rng.chance(0.4) {
                    log(
                        &mut records,
                        id,
                        LogKind::Insert,
                        next_key,
                        Some(next_val),
                        None,
                    );
                    open[i].writes.push((next_key, None));
                    table.insert(next_key, next_val);
                    locks.insert(next_key, id);
                    next_key += 1;
                } else {
                    let key = free[rng.next_below(free.len() as u64) as usize];
                    let before = table[&key];
                    if rng.chance(0.2) {
                        log(&mut records, id, LogKind::Delete, key, None, Some(before));
                        table.remove(&key);
                    } else {
                        log(
                            &mut records,
                            id,
                            LogKind::Update,
                            key,
                            Some(next_val),
                            Some(before),
                        );
                        table.insert(key, next_val);
                    }
                    open[i].writes.push((key, Some(before)));
                    locks.insert(key, id);
                }
                continue;
            }
            let txn = open.swap_remove(i);
            let ending = rng.next_below(20);
            if ending == 0 {
                continue; // abandoned: its locks are never released
            }
            match ending {
                1..=5 => {
                    for (key, before) in txn.writes.iter().rev() {
                        match before {
                            Some(v) => table.insert(*key, *v),
                            None => table.remove(key),
                        };
                    }
                    log(&mut records, id, LogKind::Abort, 0, None, None);
                }
                6 => {
                    log(&mut records, id, LogKind::Abort, 0, None, None);
                    log(&mut records, id, LogKind::Commit, 0, None, None);
                }
                7 => {
                    log(&mut records, id, LogKind::Commit, 0, None, None);
                    log(&mut records, id, LogKind::Abort, 0, None, None);
                }
                8 => {
                    log(&mut records, id, LogKind::Commit, 0, None, None);
                    log(&mut records, id, LogKind::Commit, 0, None, None);
                }
                _ => {
                    log(&mut records, id, LogKind::Commit, 0, None, None);
                }
            }
            locks.retain(|_, t| *t != id);
        }
        (records, ckpt)
    }

    #[test]
    fn sorted_analysis_matches_the_hash_set_reference_on_generated_logs() {
        let mut seen = RecoveryStats::default();
        let mut with_image = 0;
        for seed in 1..=300u64 {
            // Seeds divisible by 50 generate the empty log.
            let steps = if seed.is_multiple_of(50) {
                0
            } else {
                20 + seed % 120
            };
            let (records, ckpt) = generated_log(seed, steps);
            let (mut a, mut b) = (MiniDb::new(), MiniDb::new());
            let got = replay(&records, &mut a).expect("generated logs replay");
            let want = reference::replay(&records, &mut b).expect("reference replay");
            assert_eq!(got, want, "seed {seed}: ReplayStats");
            assert_eq!(a.rows, b.rows, "seed {seed}: replayed rows");
            let replayed = a.rows;

            for image in [None, Some(&ckpt)] {
                let (mut a, mut b) = (MiniDb::new(), MiniDb::new());
                let got = recover(image, &records, &mut a).expect("generated logs recover");
                let want = reference::recover(image, &records, &mut b).expect("reference recover");
                assert_eq!(got, want, "seed {seed}: RecoveryStats");
                assert_eq!(a.rows, b.rows, "seed {seed}: recovered rows");
                if image.is_none() {
                    assert_eq!(a.rows, replayed, "seed {seed}: recover == replay");
                }
                with_image += u64::from(got.image_rows > 0);
                seen.winners += got.winners;
                seen.aborted += got.aborted;
                seen.unfinished += got.unfinished;
                seen.undo_applied += got.undo_applied;
                seen.redo_skipped += got.redo_skipped;
            }
        }
        // The generator reached every class it exists to reach.
        assert!(seen.winners > 1000 && seen.aborted > 300 && seen.unfinished > 300);
        assert!(seen.undo_applied > 300 && seen.redo_skipped > 300 && with_image > 100);
    }

    /// Generated stream `seed`, moved onto table `table`.
    fn generated_stream(seed: u64, table: u32) -> (Vec<LogRecord>, Checkpoint) {
        let (mut records, mut ckpt) = generated_log(seed, 20 + seed % 120);
        for r in &mut records {
            r.table = table;
        }
        ckpt.tables[0].table = table;
        (records, ckpt)
    }

    #[test]
    fn the_byte_path_applies_as_the_decode_path_does() {
        let mut seen = RecoveryStats::default();
        let mut deletes = 0;
        for seed in 1..=150u64 {
            // Two streams into one target, as partitioned engines recover.
            let streams = [generated_stream(seed, 0), generated_stream(seed + 1000, 1)];
            deletes += streams
                .iter()
                .flat_map(|(records, _)| records)
                .filter(|r| r.kind == LogKind::Delete)
                .count();
            for complete in [None, Some(false), Some(true)] {
                let what = format!("seed {seed}, checkpoint {complete:?}");
                let (mut bytes, mut rows) = (ByteDb::default(), ByteDb::default());
                for (records, ckpt) in &streams {
                    let ckpt = complete.map(|complete| Checkpoint {
                        complete,
                        ..ckpt.clone()
                    });
                    let got = recover(ckpt.as_ref(), records, &mut bytes).expect("byte path");
                    let want =
                        reference::recover(ckpt.as_ref(), records, &mut rows).expect("decode path");
                    assert_eq!(got, want, "{what}: RecoveryStats");
                    seen.image_rows += got.image_rows;
                    seen.unfinished += got.unfinished;
                    seen.undo_applied += got.undo_applied;
                    seen.redo_applied += got.redo_applied;
                }
                assert_eq!(bytes.digest(), rows.digest(), "{what}: digests");
                assert_eq!(bytes.rows, rows.rows, "{what}: rows");
            }
            let (mut bytes, mut rows) = (ByteDb::default(), ByteDb::default());
            for (records, _) in &streams {
                let got = replay(records, &mut bytes).expect("byte path");
                let want = reference::replay(records, &mut rows).expect("decode path");
                assert_eq!(got, want, "seed {seed}: ReplayStats");
            }
            assert_eq!(bytes.digest(), rows.digest(), "seed {seed}: replay digests");
            assert_eq!(bytes.rows, rows.rows, "seed {seed}: replayed rows");
        }
        assert!(seen.image_rows > 1000 && seen.unfinished > 300 && seen.undo_applied > 300);
        assert!(seen.redo_applied > 1000 && deletes > 300);
    }

    /// A winner that inserts key 1, then a winner that writes key `key`
    /// (1 updates it, 2 inserts it) with `image`.
    fn two_winners(key: u64, image: &[u8]) -> Vec<LogRecord> {
        let rec = |lsn, txn, kind, key, redo: Option<&[u8]>| LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(txn),
            kind,
            len: 40,
            table: 0,
            key,
            redo: redo.map(Image::copy_of),
            undo: None,
        };
        let kind = if key == 1 {
            LogKind::Update
        } else {
            LogKind::Insert
        };
        vec![
            rec(1, 1, LogKind::Begin, 0, None),
            rec(2, 1, LogKind::Insert, 1, Some(&enc(10))),
            rec(3, 1, LogKind::Commit, 0, None),
            rec(4, 2, LogKind::Begin, 0, None),
            rec(5, 2, kind, key, Some(image)),
            rec(6, 2, LogKind::Commit, 0, None),
        ]
    }

    #[test]
    fn a_corrupt_image_is_missing_redo_on_both_paths_and_stores_nothing() {
        let good = enc(20);
        let truncated = good[..good.len() - 3].to_vec();
        let mut bad_tag = good.clone();
        bad_tag[2] = 0x7F;
        for bad in [&truncated, &bad_tag] {
            for key in [1, 2] {
                let records = two_winners(key, bad);
                let missing = |r: Result<_, ReplayError>| {
                    matches!(r, Err(ReplayError::MissingRedo(TxnId(2))))
                };
                let (mut a, mut b) = (MiniDb::new(), MiniDb::new());
                assert!(missing(recover(None, &records, &mut a).map(drop)));
                assert!(missing(replay(&records, &mut b).map(drop)));
                for db in [a, b] {
                    assert_eq!(db.rows.into_iter().collect::<Vec<_>>(), [(1, row(10))]);
                }
                let (mut a, mut b) = (ByteDb::default(), ByteDb::default());
                assert!(missing(recover(None, &records, &mut a).map(drop)));
                assert!(missing(replay(&records, &mut b).map(drop)));
                for db in [a, b] {
                    assert_eq!(db.rows.into_iter().collect::<Vec<_>>(), [((0, 1), enc(10))]);
                }
            }
        }
        // The same log with a good image applies.
        let mut db = ByteDb::default();
        recover(None, &two_winners(2, &good), &mut db).expect("a good image applies");
        assert_eq!(db.rows.len(), 2);
    }

    #[test]
    fn a_commit_record_wins_over_an_abort_record_and_repeats_count_once() {
        let rec = |lsn, txn, kind| LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(txn),
            kind,
            len: 24,
            table: 0,
            key: 0,
            redo: None,
            undo: None,
        };
        let records = [
            rec(1, 7, LogKind::Abort),
            rec(2, 7, LogKind::Commit),
            rec(3, 5, LogKind::Commit),
            rec(4, 5, LogKind::Commit),
            rec(5, 9, LogKind::Abort),
            rec(6, 3, LogKind::Delete),
            rec(7, 9, LogKind::Abort),
            rec(8, 3, LogKind::Delete),
        ];
        let mut fates = Fates::analyse(&records);
        assert_eq!(
            (fates.committed, fates.aborted, fates.unfinished),
            (2, 1, 1)
        );
        for (txn, fate) in [
            (7, Fate::Committed),
            (5, Fate::Committed),
            (9, Fate::Aborted),
            (3, Fate::Unfinished),
            (3, Fate::Unfinished),
            (4, Fate::Unfinished),
            (7, Fate::Committed),
        ] {
            assert_eq!(fates.of(TxnId(txn)), fate, "txn {txn}");
        }
    }

    #[test]
    fn the_cursor_answers_as_a_binary_search_does_in_any_lookup_order() {
        // Ids 0..90: multiples of 3 commit, ids 2 mod 3 abort, the rest
        // never end.
        let records: Vec<LogRecord> = (0..90u64)
            .filter(|t| t % 3 != 1)
            .map(|t| LogRecord {
                lsn: Lsn(t + 1),
                txn: TxnId(t),
                kind: if t % 3 == 0 {
                    LogKind::Commit
                } else {
                    LogKind::Abort
                },
                len: 24,
                table: 0,
                key: 0,
                redo: None,
                undo: None,
            })
            .collect();
        let mut fates = Fates::analyse(&records);
        let ended = fates.ended.clone();
        let ascending: Vec<u64> = (0..100).collect();
        let descending: Vec<u64> = (0..100).rev().collect();
        // Two streams' ids interleaved, then long jumps both ways.
        let interleaved: Vec<u64> = (0..50).flat_map(|i| [i, i + 45, i]).collect();
        let jumps: Vec<u64> = (0..300u64).map(|i| i * 37 % 101).collect();
        for order in [ascending, descending, interleaved, jumps] {
            for txn in order {
                let want = match ended.binary_search_by_key(&TxnId(txn), |e| e.0) {
                    Ok(i) => ended[i].1,
                    Err(_) => Fate::Unfinished,
                };
                assert_eq!(fates.of(TxnId(txn)), want, "txn {txn}");
            }
        }
    }
}
