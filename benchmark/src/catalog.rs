//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with their units. `BENCHMARK.json` at the repository
//! root lists the same names; a test below keeps the two in step.

/// The engines' names inside metric names, in `SystemKind::ALL` order.
pub const ENGINES: [&str; 5] = ["shore_mt", "dbms_d", "voltdb", "hyper", "dbms_m"];

pub const WORKLOADS: [&str; 4] = ["micro_ro", "tpcc_mix", "serve_10k", "durable_recover"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Host-clock metrics vary run to run; simulated ones repeat exactly.
    pub host: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "host_txn_per_s",
        unit: "txn/s",
        higher_is_better: true,
        bound: 0.15,
        host: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.15,
        host: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "sim_tps",
        unit: "txn/sim_s",
        higher_is_better: true,
        bound: 0.02,
        host: false,
    },
    EndToEnd {
        name: "sim_ipc",
        unit: "instr/cycle",
        higher_is_better: true,
        bound: 0.02,
        host: false,
    },
];

/// Whether a larger value of a per-layer metric is the better one.
const H: bool = true;
const L: bool = false;

/// Per-layer metrics that exist once: `(name, unit, higher is better)`.
/// The prefix before the first dot is a directory under `crates/`. Shares,
/// costs and counts of work read "lower is better": less of the run spent
/// in that layer.
const PER_LAYER_FIXED: [(&str, &str, bool); 77] = [
    ("uarch_sim.host_share", "ratio", L),
    ("uarch_sim.host_ns_per_kinstr", "ns", L),
    ("uarch_sim.sim_minstr_per_host_s", "Minstr/s", H),
    ("uarch_sim.warm_data_s", "s", L),
    ("uarch_sim.instr_per_txn", "instr", L),
    ("uarch_sim.stall_cycle_share", "ratio", L),
    ("uarch_sim.spki_l1i", "cycles/kinstr", L),
    ("uarch_sim.spki_l2i", "cycles/kinstr", L),
    ("uarch_sim.spki_llci", "cycles/kinstr", L),
    ("uarch_sim.spki_l1d", "cycles/kinstr", L),
    ("uarch_sim.spki_l2d", "cycles/kinstr", L),
    ("uarch_sim.spki_llcd", "cycles/kinstr", L),
    ("uarch_sim.invalidations_per_ktxn", "count", L),
    ("engines.build_s", "s", L),
    ("engines.begin_us_per_txn", "us", L),
    ("engines.read_us_per_txn", "us", L),
    ("engines.update_us_per_txn", "us", L),
    ("engines.insert_us_per_txn", "us", L),
    ("engines.scan_us_per_txn", "us", L),
    ("engines.delete_us_per_txn", "us", L),
    ("engines.commit_us_per_txn", "us", L),
    ("engines.errors_per_ktxn", "count", L),
    ("engines.dispatch_cycle_share", "ratio", L),
    ("engines.commit_cycle_share", "ratio", L),
    ("workloads.gen_us_per_txn", "us", L),
    ("workloads.ops_per_txn", "count", L),
    ("workloads.load_s", "s", L),
    ("workloads.new_order_us", "us", L),
    ("workloads.payment_us", "us", L),
    ("workloads.order_status_us", "us", L),
    ("workloads.delivery_us", "us", L),
    ("workloads.stock_level_us", "us", L),
    ("indexes.cycle_share", "ratio", L),
    ("indexes.disk_btree.get_ns", "ns", L),
    ("indexes.cc_btree.get_ns", "ns", L),
    ("indexes.art.get_ns", "ns", L),
    ("indexes.hash.get_ns", "ns", L),
    ("indexes.disk_btree.insert_ns", "ns", L),
    ("indexes.cc_btree.insert_ns", "ns", L),
    ("indexes.art.insert_ns", "ns", L),
    ("indexes.hash.insert_ns", "ns", L),
    ("indexes.disk_btree.scan_ns_per_row", "ns", L),
    ("indexes.cc_btree.scan_ns_per_row", "ns", L),
    ("indexes.art.scan_ns_per_row", "ns", L),
    ("storage.cycle_share", "ratio", L),
    ("storage.log_cycle_share", "ratio", L),
    ("storage.commit_p50_cycles", "cycles", L),
    ("storage.commit_p99_cycles", "cycles", L),
    ("storage.log_bytes_per_txn", "B", L),
    ("storage.flushes_per_ktxn", "count", L),
    ("storage.redo_records", "count", L),
    ("storage.recover_records_per_s", "1/s", H),
    ("storage.replay_records_per_s", "1/s", H),
    ("storage.checkpoint_rows_per_s", "1/s", H),
    ("oltp.cc_cycle_share", "ratio", L),
    ("oltp.retries_per_ktxn", "count", L),
    ("core.lockstep_turn_us", "us", L),
    ("obs.tracer_overhead_pct", "%", L),
    ("obs.sink_overhead_pct", "%", L),
    ("obs.spans_per_txn", "count", L),
    ("service.host_us_per_txn", "us", L),
    ("service.direct_host_us_per_txn", "us", L),
    ("service.host_overhead_pct", "%", L),
    ("service.tps_ratio_vs_direct", "ratio", H),
    ("service.frontend_cycle_share", "ratio", L),
    ("service.parse_cycle_share", "ratio", L),
    ("service.dispatch_cycle_share", "ratio", L),
    ("service.respond_cycle_share", "ratio", L),
    ("service.shed_share", "ratio", L),
    ("service.queue_high_water", "count", L),
    ("service.starved_turns", "count", L),
    ("service.pool_busy", "count", L),
    ("service.pool_reopens", "count", L),
    ("service.wire_roundtrip_ns", "ns", L),
    ("bench.trace_overhead_pct", "%", L),
    ("bench.untraced_residual_pct", "%", L),
    ("bench.batch_rate_iqr_pct", "%", L),
];

/// Per-layer metrics that exist once per engine.
pub const PER_ENGINE: [(&str, &str, bool); 3] = [
    ("host_txn_per_s", "txn/s", H),
    ("sim_host_share", "ratio", L),
    ("sim_tps", "txn/sim_s", H),
];

pub fn per_engine_name(engine: &str, suffix: &str) -> String {
    format!("engines.{engine}.{suffix}")
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

/// Every per-layer metric a traced run reports, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let entry = |name: String, unit, higher_is_better| PerLayer {
        name,
        unit,
        higher_is_better,
    };
    let mut all: Vec<PerLayer> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u, h)| entry(n.to_string(), u, *h))
        .collect();
    let at = all
        .iter()
        .position(|m| m.name.starts_with("workloads."))
        .expect("workloads metrics listed");
    let per_engine: Vec<PerLayer> = ENGINES
        .iter()
        .flat_map(|e| {
            PER_ENGINE
                .iter()
                .map(move |(s, u, h)| entry(per_engine_name(e, s), u, *h))
        })
        .collect();
    all.splice(at..at, per_engine);
    all
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use imoltp::obs::json::{self, Json};

    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let layer = per_layer();
        assert_eq!(layer.len(), 92);
        assert!(END_TO_END.len() <= 16 && layer.len() <= 128);
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layer.iter().map(|m| m.name.clone()));
        for n in all {
            assert!(valid_name(&n), "bad name {n:?}");
            assert!(seen.insert(n.clone()), "name {n:?} used twice");
        }
        for m in &layer {
            assert!(m.unit.len() <= 16, "unit {:?} too long", m.unit);
        }
    }

    #[test]
    fn every_per_layer_prefix_is_a_crate_directory() {
        let crates = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates");
        for PerLayer { name, .. } in per_layer() {
            let prefix = name.split('.').next().unwrap();
            assert!(
                std::path::Path::new(crates).join(prefix).is_dir(),
                "{name}: crates/{prefix} is not a directory"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let doc = manifest();
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layer);
    }

    #[test]
    fn benchmark_json_units_directions_and_bounds_match() {
        let doc = manifest();
        for (m, entry) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        for (m, entry) in per_layer()
            .iter()
            .zip(doc.get("per_layer").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::rig::RUN_SECONDS as f64)
        );
    }
}
