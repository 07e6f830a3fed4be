//! # faults — deterministic, seed-driven fault injection
//!
//! Real OLTP engines hit aborts, latch timeouts, log-write failures and
//! hardware degradation under load; the measurement pipeline has to
//! survive them reproducibly. This crate provides:
//!
//! * [`FaultPlan`] — a serializable schedule (seed + per-site rates) whose
//!   fire/don't-fire decisions are a pure function of
//!   `(seed, site, core, ordinal)`, so a failing chaos run replays
//!   byte-identically from its JSON manifest;
//! * a process-global **injector** ([`install`]) the chaos harness arms
//!   for the duration of one run — while no plan is installed every probe
//!   is a single relaxed atomic load returning `false`;
//! * [`fire`] — the probe. The chaos harness calls it at its own sites and
//!   every engine calls it at its hook sites
//!   (`if faults::fire(site, core) { return Err(..) }`), in every build:
//!   there is one program, and a plan's engine-site rules always apply.
//!
//! Site names are `"<component>/<event>"` strings (`"shore_mt/latch"`,
//! `"voltdb/clog"`, `"driver/conflict"`, …).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

mod plan;

pub use plan::{FaultPlan, SiteRule};

/// One fault that actually fired (for the run manifest).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fired {
    /// Site name.
    pub site: &'static str,
    /// Core the probe ran on.
    pub core: usize,
    /// Per-`(site, core)` evaluation ordinal the decision was drawn at.
    pub ordinal: u64,
}

#[derive(Default)]
struct InjectorState {
    /// Per-`(site-hash, core)` evaluation ordinals.
    ordinals: HashMap<(u64, usize), u64>,
    /// Every fault that fired, in probe order per core.
    fired: Vec<Fired>,
    /// Cores whose session is currently poisoned.
    poisoned: HashSet<usize>,
}

struct Active {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

/// Fast gate: avoids the RwLock on the hot path when nothing is installed.
static ARMED: AtomicBool = AtomicBool::new(false);

fn active_cell() -> &'static RwLock<Option<Arc<Active>>> {
    static CELL: OnceLock<RwLock<Option<Arc<Active>>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(None))
}

/// Serializes whole chaos runs: the injector is process-global, so two
/// concurrently running tests must not interleave their plans.
fn run_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let l = LOCK.get_or_init(|| Mutex::new(()));
    // A prior panicking holder does not corrupt the () payload.
    l.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII handle to the installed plan; dropping it disarms the injector.
/// Holding it also holds the global run lock, so chaos runs in concurrent
/// tests serialize instead of corrupting each other's schedules.
pub struct Installed {
    active: Arc<Active>,
    _run: MutexGuard<'static, ()>,
}

impl Installed {
    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.active.plan
    }

    /// Snapshot of every fault fired so far (probe order per core).
    pub fn fired(&self) -> Vec<Fired> {
        self.active.state.lock().unwrap().fired.clone()
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> u64 {
        self.active.state.lock().unwrap().fired.len() as u64
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *active_cell().write().unwrap() = None;
    }
}

/// Exclusive claim on the process-global injector with **no plan armed**.
/// A chaos run takes this before building and loading its database, so a
/// concurrently running chaos test cannot have a plan armed while this
/// run's (fault-free) load traffic passes the engine hooks; convert it
/// with [`Quiesce::install`] once the measured window starts.
pub struct Quiesce {
    _run: MutexGuard<'static, ()>,
}

/// Claim the injector without arming anything. Blocks until any other
/// holder (a [`Quiesce`] or an [`Installed`] plan) is dropped.
pub fn quiesce() -> Quiesce {
    Quiesce { _run: run_lock() }
}

impl Quiesce {
    /// Arm `plan`, carrying the already-held claim over to the returned
    /// guard.
    pub fn install(self, plan: FaultPlan) -> Installed {
        let active = Arc::new(Active {
            plan,
            state: Mutex::new(InjectorState::default()),
        });
        *active_cell().write().unwrap() = Some(Arc::clone(&active));
        ARMED.store(true, Ordering::Release);
        Installed {
            active,
            _run: self._run,
        }
    }
}

/// Arm the injector with `plan` for the lifetime of the returned guard.
/// Blocks until any other installed plan (in another test thread) is
/// dropped.
pub fn install(plan: FaultPlan) -> Installed {
    quiesce().install(plan)
}

fn with_active<R>(f: impl FnOnce(&Active) -> R) -> Option<R> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let guard = active_cell().read().unwrap();
    guard.as_ref().map(|a| f(a))
}

/// Probe `site` on `core`: draws the next ordinal of the site's per-core
/// schedule and reports whether the fault fires. Always `false` while no
/// plan is installed (one atomic load).
pub fn fire(site: &'static str, core: usize) -> bool {
    with_active(|a| {
        let h = plan::fnv1a(site.as_bytes());
        let mut st = a.state.lock().unwrap();
        let n = st.ordinals.entry((h, core)).or_insert(0);
        let ordinal = *n;
        *n += 1;
        let fired = a.plan.fires(site, core, ordinal);
        if fired {
            st.fired.push(Fired {
                site,
                core,
                ordinal,
            });
            // Always-on metric mirror: one counter per site. Registered
            // lazily (fires are rare — the registry lookup is off the
            // no-fault path entirely) and inert to the simulation.
            obs::metrics::registry()
                .counter("fault_fires_total", &[("site", site)])
                .inc(core);
        }
        fired
    })
    .unwrap_or(false)
}

/// Mark `core`'s session poisoned: [`poisoned`] reports `true` until
/// [`heal`] is called (the harness heals when it re-opens the session).
pub fn poison(core: usize) {
    with_active(|a| {
        a.state.lock().unwrap().poisoned.insert(core);
        obs::metrics::registry()
            .counter("fault_poisons_total", &[])
            .inc(core);
    });
}

/// Whether `core`'s session is currently poisoned.
pub fn poisoned(core: usize) -> bool {
    with_active(|a| a.state.lock().unwrap().poisoned.contains(&core)).unwrap_or(false)
}

/// Clear `core`'s poison mark (after a session re-open).
pub fn heal(core: usize) {
    with_active(|a| {
        a.state.lock().unwrap().poisoned.remove(&core);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_inert() {
        // No plan installed (the run lock in other tests guarantees no
        // cross-talk: take it here too via install/drop ordering).
        let g = install(FaultPlan::uniform(1, 1.0));
        drop(g);
        assert!(!fire("anything", 0));
        assert!(!poisoned(0));
    }

    #[test]
    fn installed_plan_follows_schedule_and_logs() {
        let plan = FaultPlan::uniform(99, 0.5);
        let expect: Vec<bool> = (0..64).map(|n| plan.fires("t/site", 2, n)).collect();
        let metrics_base = obs::metrics::registry().snapshot();
        let g = install(plan);
        let got: Vec<bool> = (0..64).map(|_| fire("t/site", 2)).collect();
        assert_eq!(got, expect, "probe stream must match the pure schedule");
        let fired = g.fired();
        assert_eq!(fired.len() as u64, g.fired_count());
        assert_eq!(
            fired.len(),
            expect.iter().filter(|&&f| f).count(),
            "log records exactly the fired ordinals"
        );
        assert!(fired.iter().all(|f| f.site == "t/site" && f.core == 2));
        // Every fired fault is mirrored into the per-site metric.
        let win = obs::metrics::registry().snapshot().delta(&metrics_base);
        assert_eq!(
            win.counter_value("fault_fires_total", &[("site", "t/site")]),
            fired.len() as u64
        );
    }

    /// The crash-recovery shape: a rate-0 plan whose only rule is another
    /// site's one-shot trigger. Every engine hook probed under it must
    /// stay silent, however often it is evaluated.
    #[test]
    fn rate_zero_site_stays_silent_beside_an_armed_one_shot() {
        let g = install(FaultPlan::uniform(5, 0.0).site_at("crash/kill", 3));
        assert!((0..100).all(|_| !fire("shore_mt/wal", 0)));
        assert_eq!(g.fired_count(), 0, "a silent probe logs nothing");
        let kills: Vec<bool> = (0..6).map(|_| fire("crash/kill", 0)).collect();
        assert_eq!(kills, [false, false, false, true, false, false]);
        assert!(!fire("shore_mt/wal", 0), "still silent after the one-shot");
        let fired = g.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].site, fired[0].ordinal), ("crash/kill", 3));
    }

    #[test]
    fn poison_is_sticky_until_healed() {
        let _g = install(FaultPlan::uniform(3, 0.0));
        assert!(!poisoned(1));
        poison(1);
        assert!(poisoned(1));
        assert!(!poisoned(0), "poison is per core");
        heal(1);
        assert!(!poisoned(1));
    }
}
