//! Transaction retry/backoff policy.
//!
//! CCBench-style observation: the abort/retry policy is part of the
//! system under test — it changes throughput *and* counter profiles. This
//! module gives the harness one shared, deterministic policy:
//!
//! * **Conflict-class** errors ([`OltpError::Conflict`],
//!   [`OltpError::LatchTimeout`]) retry under bounded exponential backoff
//!   with deterministic jitter (a seeded xorshift stream, not wall-clock
//!   randomness — two runs back off identically).
//! * **Abort-class** errors ([`OltpError::Aborted`],
//!   [`OltpError::LogWriteFailed`]) retry a bounded number of times with
//!   no backoff.
//! * [`OltpError::SessionPoisoned`] is not retryable on the same session;
//!   [`retry_txn`] surfaces it as [`TxnOutcome::GaveUp`] so the caller can
//!   re-open the session and decide whether to try again.
//! * Everything else is a logic error and gives up immediately.
//!
//! Backoff is expressed in abstract *units*; the caller maps units onto
//! its own notion of waiting (the chaos harness retires that many
//! simulated instructions, so backoff shows up in the counter profile the
//! way PAUSE loops do on real hardware).

use std::sync::OnceLock;

use crate::engine::{OltpError, OltpResult};

/// Global-registry mirrors of [`RetryStats`]: every retry-layer event is
/// also published as an always-on metric, so `bench metrics` and the
/// chaos manifest see retry behaviour without plumbing stats structs
/// around. Handles are registered once, on first use.
struct RetryMetrics {
    commits: obs::metrics::Counter,
    gave_up: obs::metrics::Counter,
    conflict_retries: obs::metrics::Counter,
    abort_retries: obs::metrics::Counter,
    validation_aborts: obs::metrics::Counter,
    deadlock_victims: obs::metrics::Counter,
    latch_timeouts: obs::metrics::Counter,
    log_failures: obs::metrics::Counter,
    backoff_units: obs::metrics::Counter,
    attempts: obs::metrics::HistHandle,
}

fn retry_metrics() -> &'static RetryMetrics {
    static M: OnceLock<RetryMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = obs::metrics::registry();
        RetryMetrics {
            commits: r.counter("retry_commits_total", &[]),
            gave_up: r.counter("retry_give_ups_total", &[]),
            conflict_retries: r.counter("retry_retries_total", &[("class", "conflict")]),
            abort_retries: r.counter("retry_retries_total", &[("class", "abort")]),
            validation_aborts: r.counter("retry_errors_total", &[("kind", "validation_failed")]),
            deadlock_victims: r.counter("retry_errors_total", &[("kind", "deadlock_victim")]),
            latch_timeouts: r.counter("retry_errors_total", &[("kind", "latch_timeout")]),
            log_failures: r.counter("retry_errors_total", &[("kind", "log_write_failed")]),
            backoff_units: r.counter("retry_backoff_units_total", &[]),
            attempts: r.histogram("retry_txn_attempts", &[]),
        }
    })
}

/// Shard hint for the metric increments: workers each own a `RetryStats`,
/// so its address spreads concurrent workers over shards (the value only
/// affects contention, never totals).
fn shard_of(stats: &RetryStats) -> usize {
    (stats as *const RetryStats as usize) >> 6
}

/// How an error should be handled by the retry layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Concurrency-control race: retry with exponential backoff.
    Backoff,
    /// Transient engine failure: retry a bounded number of times.
    Retry,
    /// The session itself is unusable: re-open before retrying.
    Reopen,
    /// Logic error: retrying cannot help.
    Fatal,
}

/// Classify an engine error for the retry layer.
pub fn classify(e: &OltpError) -> ErrorClass {
    match e {
        OltpError::Conflict { .. }
        | OltpError::DeadlockVictim { .. }
        | OltpError::ValidationFailed { .. }
        | OltpError::LatchTimeout(_) => ErrorClass::Backoff,
        OltpError::Aborted(_) | OltpError::LogWriteFailed(_) => ErrorClass::Retry,
        OltpError::SessionPoisoned => ErrorClass::Reopen,
        _ => ErrorClass::Fatal,
    }
}

/// Retry policy knobs (see module docs for the classes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per transaction (first try included). Exhausting
    /// this records a give-up; it never panics the worker.
    pub max_attempts: u32,
    /// Backoff units before the first conflict-class retry.
    pub backoff_base: u64,
    /// Backoff ceiling (units) after doublings.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff_base: 256,
            backoff_cap: 16_384,
        }
    }
}

/// Deterministic jittered exponential backoff: attempt `k` waits a
/// uniform draw from `[d/2, d)` where `d = min(base << k, cap)`. The
/// jitter stream is a seeded xorshift64*, so a fixed seed yields a fixed
/// wait sequence.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    rng: u64,
}

impl Backoff {
    /// A backoff source for one worker. Seed it per worker (e.g.
    /// `seed ^ worker`) so workers don't back off in phase.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Backoff {
            policy,
            // Scramble so adjacent seeds yield unrelated streams, then
            // force the xorshift state nonzero (`| 1` alone would
            // collapse each even seed onto its odd neighbor).
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Backoff units before retry number `retry` (0-based: the wait after
    /// the first failed attempt).
    pub fn units(&mut self, retry: u32) -> u64 {
        let base = self.policy.backoff_base.max(2);
        // Saturating left shift: past 2^63 the cap always wins anyway.
        let doubled = if retry >= base.leading_zeros() {
            u64::MAX
        } else {
            base << retry
        };
        let d = doubled.min(self.policy.backoff_cap).max(2);
        d / 2 + self.next_u64() % (d / 2)
    }
}

/// Counters the retry layer maintains (merge-able across workers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transactions that eventually committed.
    pub commits: u64,
    /// Transactions abandoned after exhausting the policy.
    pub gave_up: u64,
    /// Conflict-class retries (backoff applied).
    pub conflict_retries: u64,
    /// Abort-class retries (no backoff).
    pub abort_retries: u64,
    /// OCC/timestamp validation failures observed (subset of
    /// conflict-class; distinct from lock-conflict aborts).
    pub validation_aborts: u64,
    /// Deadlock-avoidance victim aborts observed (subset of
    /// conflict-class; wait-die and friends).
    pub deadlock_victims: u64,
    /// Latch-timeout errors observed (subset of conflict-class).
    pub latch_timeouts: u64,
    /// Log-write failures observed (subset of abort-class).
    pub log_failures: u64,
    /// Total backoff units waited.
    pub backoff_units: u64,
}

impl RetryStats {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &RetryStats) {
        self.commits += other.commits;
        self.gave_up += other.gave_up;
        self.conflict_retries += other.conflict_retries;
        self.abort_retries += other.abort_retries;
        self.validation_aborts += other.validation_aborts;
        self.deadlock_victims += other.deadlock_victims;
        self.latch_timeouts += other.latch_timeouts;
        self.log_failures += other.log_failures;
        self.backoff_units += other.backoff_units;
    }

    /// All retries, both classes.
    pub fn retries(&self) -> u64 {
        self.conflict_retries + self.abort_retries
    }
}

/// Outcome of one logical transaction under the retry layer.
#[derive(Clone, Debug, PartialEq)]
pub enum TxnOutcome {
    /// Committed on attempt number `attempts` (1 = first try).
    Committed {
        /// Attempts used, counting the successful one.
        attempts: u32,
    },
    /// Abandoned without committing: policy exhausted, fatal error, or a
    /// poisoned session. The worker records it and moves on — graceful
    /// degradation instead of a panicked barrier.
    GaveUp {
        /// Attempts used.
        attempts: u32,
        /// The last error observed.
        error: OltpError,
    },
}

impl TxnOutcome {
    /// Attempts used either way.
    pub fn attempts(&self) -> u32 {
        match self {
            TxnOutcome::Committed { attempts } | TxnOutcome::GaveUp { attempts, .. } => *attempts,
        }
    }
}

/// Run one logical transaction under `policy`. `attempt` is called with
/// the 0-based attempt index and must run the complete transaction
/// (begin/commit inside); `pause(units)` is invoked before conflict-class
/// retries with the jittered backoff amount.
///
/// Errors classified [`ErrorClass::Reopen`] or [`ErrorClass::Fatal`] give
/// up immediately; the caller decides what recovery (if any) applies.
pub fn retry_txn(
    policy: &RetryPolicy,
    backoff: &mut Backoff,
    stats: &mut RetryStats,
    mut attempt: impl FnMut(u32) -> OltpResult<()>,
    mut pause: impl FnMut(u64),
) -> TxnOutcome {
    let max = policy.max_attempts.max(1);
    let m = retry_metrics();
    let shard = shard_of(stats);
    let mut retry_no = 0u32;
    for k in 0..max {
        match attempt(k) {
            Ok(()) => {
                stats.commits += 1;
                m.commits.inc(shard);
                m.attempts.record(shard, u64::from(k + 1));
                return TxnOutcome::Committed { attempts: k + 1 };
            }
            Err(e) => {
                if let OltpError::LatchTimeout(_) = e {
                    stats.latch_timeouts += 1;
                    m.latch_timeouts.inc(shard);
                }
                if let OltpError::ValidationFailed { .. } = e {
                    stats.validation_aborts += 1;
                    m.validation_aborts.inc(shard);
                }
                if let OltpError::DeadlockVictim { .. } = e {
                    stats.deadlock_victims += 1;
                    m.deadlock_victims.inc(shard);
                }
                if let OltpError::LogWriteFailed(_) = e {
                    stats.log_failures += 1;
                    m.log_failures.inc(shard);
                }
                let class = classify(&e);
                let last = k + 1 == max;
                match class {
                    ErrorClass::Backoff | ErrorClass::Retry if !last => {
                        if class == ErrorClass::Backoff {
                            stats.conflict_retries += 1;
                            m.conflict_retries.inc(shard);
                            let units = backoff.units(retry_no);
                            stats.backoff_units += units;
                            m.backoff_units.add(shard, units);
                            pause(units);
                            retry_no += 1;
                        } else {
                            stats.abort_retries += 1;
                            m.abort_retries.inc(shard);
                        }
                    }
                    _ => {
                        stats.gave_up += 1;
                        m.gave_up.inc(shard);
                        m.attempts.record(shard, u64::from(k + 1));
                        return TxnOutcome::GaveUp {
                            attempts: k + 1,
                            error: e,
                        };
                    }
                }
            }
        }
    }
    unreachable!("loop returns on success, give-up, or the last attempt");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableId;

    fn conflict() -> OltpError {
        OltpError::Conflict {
            table: TableId(0),
            key: 1,
        }
    }

    #[test]
    fn classes() {
        assert_eq!(classify(&conflict()), ErrorClass::Backoff);
        assert_eq!(
            classify(&OltpError::DeadlockVictim {
                table: TableId(0),
                key: 1
            }),
            ErrorClass::Backoff
        );
        assert_eq!(
            classify(&OltpError::ValidationFailed {
                table: TableId(0),
                key: 1
            }),
            ErrorClass::Backoff
        );
        assert_eq!(classify(&OltpError::LatchTimeout("x")), ErrorClass::Backoff);
        assert_eq!(classify(&OltpError::Aborted("x")), ErrorClass::Retry);
        assert_eq!(classify(&OltpError::LogWriteFailed("x")), ErrorClass::Retry);
        assert_eq!(classify(&OltpError::SessionPoisoned), ErrorClass::Reopen);
        assert_eq!(classify(&OltpError::NoActiveTxn), ErrorClass::Fatal);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            backoff_base: 100,
            backoff_cap: 1000,
            ..RetryPolicy::default()
        };
        let mut a = Backoff::new(policy, 42);
        let mut b = Backoff::new(policy, 42);
        let mut c = Backoff::new(policy, 43);
        let sa: Vec<u64> = (0..10).map(|k| a.units(k)).collect();
        let sb: Vec<u64> = (0..10).map(|k| b.units(k)).collect();
        let sc: Vec<u64> = (0..10).map(|k| c.units(k)).collect();
        assert_eq!(sa, sb, "same seed, same waits");
        assert_ne!(sa, sc, "different seed, different jitter");
        for (k, &d) in sa.iter().enumerate() {
            let ceiling = (100u64 << k.min(4)).min(1000);
            assert!(d >= ceiling / 2 && d < ceiling, "attempt {k}: {d}");
        }
        // Deep retries saturate at the cap without overflow.
        assert!(a.units(63) < 1000);
    }

    #[test]
    fn retries_then_commits() {
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let mut backoff = Backoff::new(policy, 7);
        let mut failures = 3;
        let mut waited = 0u64;
        let out = retry_txn(
            &policy,
            &mut backoff,
            &mut stats,
            |_| {
                if failures > 0 {
                    failures -= 1;
                    Err(conflict())
                } else {
                    Ok(())
                }
            },
            |u| waited += u,
        );
        assert_eq!(out, TxnOutcome::Committed { attempts: 4 });
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.conflict_retries, 3);
        assert_eq!(stats.backoff_units, waited);
        assert!(waited > 0);
    }

    #[test]
    fn abort_class_retries_without_backoff() {
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let mut backoff = Backoff::new(policy, 7);
        let mut failures = 2;
        let out = retry_txn(
            &policy,
            &mut backoff,
            &mut stats,
            |_| {
                if failures > 0 {
                    failures -= 1;
                    Err(OltpError::Aborted("transient"))
                } else {
                    Ok(())
                }
            },
            |_| panic!("abort-class must not back off"),
        );
        assert_eq!(out, TxnOutcome::Committed { attempts: 3 });
        assert_eq!(stats.abort_retries, 2);
        assert_eq!(stats.backoff_units, 0);
    }

    #[test]
    fn exhaustion_gives_up_gracefully() {
        let mut stats = RetryStats::default();
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut backoff = Backoff::new(policy, 7);
        let out = retry_txn(
            &policy,
            &mut backoff,
            &mut stats,
            |_| Err(conflict()),
            |_| {},
        );
        assert_eq!(
            out,
            TxnOutcome::GaveUp {
                attempts: 3,
                error: conflict()
            }
        );
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.commits, 0);
        assert_eq!(stats.conflict_retries, 2, "backoff between attempts only");
    }

    #[test]
    fn retry_events_mirror_into_the_metrics_registry() {
        let base = obs::metrics::registry().snapshot();
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let mut backoff = Backoff::new(policy, 11);
        let mut failures = 2;
        let out = retry_txn(
            &policy,
            &mut backoff,
            &mut stats,
            |_| {
                if failures > 0 {
                    failures -= 1;
                    Err(conflict())
                } else {
                    Ok(())
                }
            },
            |_| {},
        );
        assert_eq!(out, TxnOutcome::Committed { attempts: 3 });
        // Delta discipline (other tests may run concurrently): at least
        // this call's events are in the window.
        let win = obs::metrics::registry().snapshot().delta(&base);
        assert!(win.counter_value("retry_commits_total", &[]) >= 1);
        assert!(win.counter_value("retry_retries_total", &[("class", "conflict")]) >= 2);
        assert!(win.counter_value("retry_backoff_units_total", &[]) >= stats.backoff_units);
    }

    #[test]
    fn validation_aborts_counted_apart_from_lock_conflicts() {
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let mut backoff = Backoff::new(policy, 9);
        let mut step = 0u32;
        let out = retry_txn(
            &policy,
            &mut backoff,
            &mut stats,
            |_| {
                step += 1;
                match step {
                    1 => Err(OltpError::ValidationFailed {
                        table: TableId(0),
                        key: 3,
                    }),
                    2 => Err(OltpError::DeadlockVictim {
                        table: TableId(0),
                        key: 3,
                    }),
                    3 => Err(conflict()),
                    _ => Ok(()),
                }
            },
            |_| {},
        );
        assert_eq!(out, TxnOutcome::Committed { attempts: 4 });
        // All three are conflict-class (backoff applied)...
        assert_eq!(stats.conflict_retries, 3);
        // ...but validation and victim aborts are distinguishable from the
        // plain lock conflict.
        assert_eq!(stats.validation_aborts, 1);
        assert_eq!(stats.deadlock_victims, 1);
    }

    #[test]
    fn poison_and_fatal_surface_immediately() {
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let mut backoff = Backoff::new(policy, 7);
        for err in [OltpError::SessionPoisoned, OltpError::NoActiveTxn] {
            let e = err.clone();
            let out = retry_txn(
                &policy,
                &mut backoff,
                &mut stats,
                move |_| Err(e.clone()),
                |_| {},
            );
            assert_eq!(
                out,
                TxnOutcome::GaveUp {
                    attempts: 1,
                    error: err
                }
            );
        }
        assert_eq!(stats.gave_up, 2);
    }
}
