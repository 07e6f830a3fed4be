//! Chaos-suite integration tests: the deterministic fault-injection layer
//! end to end — plan replay purity, oracle safety under faults, and
//! bit-identical counter digests when no fault fires.
//!
//! Chaos runs serialize on the injector's process-global run lock, so
//! these tests are safe under `RUST_TEST_THREADS>1`.

use imoltp::bench::DbSize;
use imoltp::faults::FaultPlan;
use imoltp::harness::chaos::{self, ChaosCfg};
use imoltp::harness::WorkloadCfg;
use imoltp::systems::SystemKind;

fn small_cfg(system: SystemKind, seed: u64, rate: f64) -> ChaosCfg {
    let mut cfg = ChaosCfg::new(
        system,
        WorkloadCfg::Micro {
            size: DbSize::Mb1,
            rows_per_txn: 1,
            read_only: false,
            strings: false,
        },
        "micro-rw",
    );
    cfg.seed = seed;
    cfg.fault_rate = rate;
    cfg.workers = 2;
    cfg.window = Some(imoltp::analysis::WindowSpec {
        warmup: 20,
        measured: 60,
        reps: 1,
    });
    cfg
}

/// Property: for any seed, a plan that round-trips through its JSON form
/// yields a byte-identical fault schedule — fire decisions are a pure
/// function of `(seed, site, core, ordinal)` and survive serialization.
#[test]
fn fault_plans_replay_identically_from_json() {
    let sites = ["driver/conflict", "shore_mt/latch", "voltdb/clog", "x/y"];
    for seed in [0u64, 1, 7, 42, 0xdead_beef, u64::MAX, 0x9e37_79b9] {
        let plan = FaultPlan::uniform(seed, 0.13)
            .site("driver/poison", 0.02)
            .site("x/y", 0.5);
        let json = plan.to_json().render();
        let replayed = FaultPlan::parse(&json).expect("plan round-trips");
        assert_eq!(plan, replayed, "seed {seed}: JSON round-trip is lossless");
        for site in sites {
            for core in 0..3usize {
                for n in 0..200u64 {
                    assert_eq!(
                        plan.fires(site, core, n),
                        replayed.fires(site, core, n),
                        "seed {seed} site {site} core {core} ordinal {n}"
                    );
                }
            }
        }
    }
}

/// At fault-rate 0 the chaos harness is a no-op wrapper: two runs produce
/// bit-identical per-core counter digests and table contents, no retries,
/// no recovery events.
#[test]
fn rate_zero_runs_are_bit_identical() {
    let a = chaos::run(&small_cfg(SystemKind::VoltDb, 7, 0.0));
    let b = chaos::run(&small_cfg(SystemKind::VoltDb, 7, 0.0));
    assert_eq!(a.digests, b.digests, "per-core counter digests");
    assert_eq!(a.table_digest, b.table_digest, "final table contents");
    assert_eq!(a.faults_fired, 0);
    assert_eq!(a.outcomes.retry.retries(), 0);
    assert_eq!(a.outcomes.retry.gave_up, 0);
    assert_eq!(a.lost_updates, 0);
    assert_eq!(a.phantom_updates, 0);
    assert!(a.outcomes.retry.commits > 0);
}

/// Under faults, the retry/backoff layer recovers every engine with zero
/// lost updates: confirmed commits all reach the table, and retries
/// actually happen (the driver-level sites fire in every build).
#[test]
fn faulty_runs_lose_nothing() {
    for system in [
        SystemKind::VoltDb,
        SystemKind::ShoreMt,
        SystemKind::DbmsM {
            index: imoltp::systems::DbmsMIndex::Hash,
            compiled: true,
        },
    ] {
        let r = chaos::run(&small_cfg(system, 7, 0.15));
        assert!(r.faults_fired > 0, "{system:?}: plan must fire");
        assert!(r.outcomes.retry.retries() > 0, "{system:?}: must retry");
        assert!(r.outcomes.retry.commits > 0, "{system:?}: must commit");
        assert_eq!(r.lost_updates, 0, "{system:?}: lost updates");
        assert_eq!(r.phantom_updates, 0, "{system:?}: phantom updates");
        // The manifest records the replay inputs.
        let m = &r.manifest;
        assert_eq!(
            m.get("plan")
                .and_then(|p| p.get("seed"))
                .and_then(|s| s.as_f64()),
            Some(7.0)
        );
    }
}

/// Replaying a run from its manifest's plan reproduces the run bit for
/// bit: same fault schedule, same digests, same outcome counters.
#[test]
fn manifest_replay_reproduces_the_run() {
    let cfg = small_cfg(SystemKind::VoltDb, 42, 0.1);
    let first = chaos::run(&cfg);
    assert!(first.faults_fired > 0, "needs faults to be a real replay");

    // Round-trip the whole manifest through its rendered JSON, as the
    // CLI's --plan path does.
    let manifest_json =
        imoltp::obs::json::parse(&first.manifest.render()).expect("manifest parses");
    let mut replay_cfg = cfg.clone();
    replay_cfg.plan_override =
        Some(FaultPlan::from_json(&manifest_json).expect("manifest embeds the plan"));
    let second = chaos::run(&replay_cfg);

    assert_eq!(first.digests, second.digests, "per-core counter digests");
    assert_eq!(first.table_digest, second.table_digest);
    assert_eq!(first.faults_fired, second.faults_fired);
    assert_eq!(first.outcomes, second.outcomes);
}

/// Recovery machinery: force every driver-level fault class hard enough
/// that poisoning and re-opening actually occur, and the run still ends
/// consistent (graceful give-ups allowed, lost updates not).
#[test]
fn poison_and_offline_recovery_keeps_the_oracle() {
    let mut cfg = small_cfg(SystemKind::ShoreMt, 3, 0.0);
    cfg.plan_override = Some(
        FaultPlan::uniform(3, 0.0)
            .site("driver/poison", 0.2)
            .site("core/offline", 0.1)
            .site("driver/conflict", 0.2),
    );
    let r = chaos::run(&cfg);
    assert!(r.outcomes.poisons > 0, "poison site must fire at rate 0.2");
    assert_eq!(
        r.outcomes.reopens, r.outcomes.poisons,
        "every poison is healed by a session re-open"
    );
    assert!(r.outcomes.offline_events > 0);
    assert!(r.outcomes.offline_txns >= r.outcomes.offline_events);
    assert_eq!(r.lost_updates, 0);
    assert_eq!(r.phantom_updates, 0);
}

/// The lost-update oracle holds for every (engine, CC protocol) pair at
/// one smoke seed: the pluggable protocols recover through the same
/// retry/backoff layer as the engine defaults, with nothing lost and
/// nothing phantom. The manifest records which protocol ran.
#[test]
fn every_engine_and_protocol_keeps_the_oracle() {
    use imoltp::systems::CcPolicy;
    let mut policies = vec![CcPolicy::EngineDefault];
    policies.extend(CcPolicy::ALL);
    for system in SystemKind::ALL {
        for &cc in &policies {
            let mut cfg = small_cfg(system, 9, 0.12);
            cfg.cc = cc;
            cfg.window = Some(imoltp::analysis::WindowSpec {
                warmup: 10,
                measured: 30,
                reps: 1,
            });
            let label = format!("{system:?} under {}", cc.label());
            let r = chaos::run(&cfg);
            assert!(r.faults_fired > 0, "{label}: plan must fire");
            assert!(r.outcomes.retry.commits > 0, "{label}: must commit");
            assert_eq!(r.lost_updates, 0, "{label}: lost updates");
            assert_eq!(r.phantom_updates, 0, "{label}: phantom updates");
            assert_eq!(
                r.manifest.get("cc").and_then(|v| v.as_str()),
                Some(cc.label()),
                "{label}: manifest records the protocol"
            );
        }
    }
}

/// Run `system` under `cc` at rate 0.2 and require every site in `sites`
/// to have fired with the oracle intact.
fn sites_fire(
    system: SystemKind,
    cc: imoltp::systems::CcPolicy,
    sites: &[&str],
) -> chaos::ChaosReport {
    let mut cfg = small_cfg(system, 11, 0.2);
    cfg.cc = cc;
    let r = chaos::run(&cfg);
    let by_site = r.manifest.get("fired_by_site").expect("fired_by_site");
    for site in sites {
        let fired = by_site.get(site).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(fired > 0.0, "{system:?}: {site} must fire at rate 0.2");
    }
    assert_eq!(r.lost_updates, 0, "{system:?}: lost updates");
    assert_eq!(r.phantom_updates, 0, "{system:?}: phantom updates");
    r
}

/// One engine per kernel family, plus the shared pluggable-protocol
/// hook: each family's own deep sites (latch / claim / WAL / validate)
/// fire and stay recoverable. A hook dropped from a kernel fails here.
#[test]
fn engine_internal_sites_fire_in_every_kernel_family() {
    use imoltp::systems::CcPolicy::{EngineDefault, Occ};
    let shore = sites_fire(
        SystemKind::ShoreMt,
        EngineDefault,
        &["shore_mt/latch", "shore_mt/wal"],
    );
    let rr = &shore.outcomes.retry;
    assert!(rr.latch_timeouts > 0, "latch faults reach the retry layer");
    assert!(rr.log_failures > 0, "WAL faults reach the retry layer");
    sites_fire(
        SystemKind::VoltDb,
        EngineDefault,
        &["voltdb/claim", "voltdb/clog"],
    );
    sites_fire(
        SystemKind::DbmsM {
            index: imoltp::systems::DbmsMIndex::Hash,
            compiled: true,
        },
        EngineDefault,
        &["dbms_m/latch", "dbms_m/validate"],
    );
    sites_fire(SystemKind::ShoreMt, Occ, &["cc/validate"]);
}
