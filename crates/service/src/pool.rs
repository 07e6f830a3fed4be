//! Connection pool: the bounded set of engine sessions clients share.
//!
//! One slot per simulated core, matching the engine deployment model (one
//! worker session per core, so there are never more live sessions than
//! cores — the pool makes that bound an explicit checkout/checkin
//! discipline instead of an accident).
//!
//! * **Checkout is non-blocking.** If the slot is already out,
//!   [`SessionPool::try_checkout`] returns `None` and the caller sheds
//!   (answers [`crate::Response::Busy`]); nothing ever waits on a slot,
//!   so pool exhaustion cannot deadlock the dispatch loop.
//! * **Poison heals on the next checkout.** When a fault wedges a
//!   session ([`oltp::OltpError::SessionPoisoned`], `ErrorClass::Reopen`),
//!   the holder marks the guard poisoned; checkin drops the dead session
//!   and the next checkout opens a fresh one via [`oltp::Db::session`] —
//!   the same re-open the chaos harness's retry layer performs.

use std::cell::RefCell;

use oltp::{Db, Session};

/// Pool metrics, mirrored into the `obs::metrics` registry by the
/// service loop (the pool itself stays registry-agnostic so unit tests
/// don't need a drained registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful checkouts.
    pub checkouts: u64,
    /// Checkouts refused because the slot was already out.
    pub busy: u64,
    /// Sessions re-opened after a poison.
    pub reopens: u64,
}

struct Slot {
    /// `None` while checked out (or awaiting a re-open after poison).
    session: Option<Box<dyn Session>>,
    /// The last checkin returned a poisoned session; re-open lazily.
    poisoned: bool,
}

/// Fixed-size per-core session pool.
pub struct SessionPool {
    slots: Vec<RefCell<Slot>>,
    stats: RefCell<PoolStats>,
}

impl SessionPool {
    /// Open one session per core, eagerly (cores `0..cores`).
    pub fn new(db: &dyn Db, cores: usize) -> Self {
        assert!(cores >= 1, "pool needs at least one session");
        SessionPool {
            slots: (0..cores)
                .map(|core| {
                    RefCell::new(Slot {
                        session: Some(db.session(core)),
                        poisoned: false,
                    })
                })
                .collect(),
            stats: RefCell::new(PoolStats::default()),
        }
    }

    /// Number of slots (== engine sessions == cores).
    pub fn sessions(&self) -> usize {
        self.slots.len()
    }

    /// Check out core `core`'s session without blocking. `None` means the
    /// slot is already out — shed, don't wait. A slot whose last holder
    /// poisoned it is re-opened here (counted in [`PoolStats::reopens`]).
    pub fn try_checkout<'a>(&'a self, db: &dyn Db, core: usize) -> Option<PooledSession<'a>> {
        let mut slot = self.slots[core].borrow_mut();
        if slot.poisoned {
            // Drop the wedged session, then open a fresh one on the same
            // core.
            slot.session = None;
            slot.poisoned = false;
            slot.session = Some(db.session(core));
            self.stats.borrow_mut().reopens += 1;
        }
        match slot.session.take() {
            Some(session) => {
                self.stats.borrow_mut().checkouts += 1;
                Some(PooledSession {
                    pool: self,
                    core,
                    session: Some(session),
                    poisoned: false,
                })
            }
            None => {
                self.stats.borrow_mut().busy += 1;
                None
            }
        }
    }

    /// Snapshot the pool counters.
    pub fn stats(&self) -> PoolStats {
        *self.stats.borrow()
    }

    fn checkin(&self, core: usize, session: Box<dyn Session>, poisoned: bool) {
        let mut slot = self.slots[core].borrow_mut();
        debug_assert!(slot.session.is_none(), "double checkin on core {core}");
        slot.session = Some(session);
        slot.poisoned = poisoned;
    }
}

/// A checked-out session; checks itself back in on drop.
pub struct PooledSession<'a> {
    pool: &'a SessionPool,
    core: usize,
    session: Option<Box<dyn Session>>,
    poisoned: bool,
}

impl PooledSession<'_> {
    /// The engine session. Panics after the guard is dropped (impossible
    /// through safe use).
    pub fn session(&mut self) -> &mut dyn Session {
        self.session.as_mut().expect("session checked in").as_mut()
    }

    /// The core this session is bound to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Mark the session wedged: checkin will park it poisoned and the
    /// next checkout re-opens a fresh session on this core.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.pool.checkin(self.core, session, self.poisoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::{SystemBuilder, SystemKind};
    use oltp::{Column, DataType, Schema, TableDef, Value};
    use uarch_sim::{MachineConfig, Sim};

    fn tiny_db() -> (Sim, Box<dyn Db>, oltp::TableId) {
        let sim = Sim::new(MachineConfig::ivy_bridge(2));
        let mut db = SystemBuilder::new(SystemKind::HyPer).cores(2).build(&sim);
        let t = db.create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("k", DataType::Long),
                Column::new("v", DataType::Long),
            ]),
            64,
        ));
        (sim, db, t)
    }

    #[test]
    fn exhaustion_sheds_instead_of_blocking() {
        let (_sim, db, _t) = tiny_db();
        let pool = SessionPool::new(db.as_ref(), 2);
        let first = pool.try_checkout(db.as_ref(), 0).expect("slot free");
        // Same core: slot is out -> immediate None, no wait, no deadlock.
        assert!(pool.try_checkout(db.as_ref(), 0).is_none());
        // Other core unaffected.
        assert!(pool.try_checkout(db.as_ref(), 1).is_some());
        drop(first);
        assert!(pool.try_checkout(db.as_ref(), 0).is_some());
        let s = pool.stats();
        assert_eq!(s.busy, 1);
        assert_eq!(s.checkouts, 3);
        assert_eq!(s.reopens, 0);
    }

    #[test]
    fn poisoned_session_reopens_on_next_checkout() {
        let (_sim, db, t) = tiny_db();
        let pool = SessionPool::new(db.as_ref(), 1);
        {
            let mut g = pool.try_checkout(db.as_ref(), 0).unwrap();
            g.poison();
        }
        assert_eq!(pool.stats().reopens, 0, "re-open is lazy");
        let mut g = pool.try_checkout(db.as_ref(), 0).expect("fresh session");
        assert_eq!(pool.stats().reopens, 1);
        // The replacement session is live and usable.
        let s = g.session();
        s.begin();
        s.insert(t, 1, &[Value::Long(1), Value::Long(2)]).unwrap();
        s.commit().unwrap();
        drop(g);
        assert_eq!(db.row_count(t), 1);
    }
}
