//! Layer measurements that do not depend on the workload: direct calls to
//! the four index structures, the lockstep turn gate and the wire codec.
//! Every traced run takes them, so a change to one of these layers shows
//! under whichever workload it is run.

use std::hint::black_box;
use std::time::Instant;

use imoltp::analysis::{measure_workers, Pacing, WindowSpec};
use imoltp::idx::{Art, CcBTree, DiskBTree, HashIndex, Index};
use imoltp::sim::{MachineConfig, Mem, Sim};
use service::Frame;

use crate::rig::{Outcome, Scale};

/// Keys of the index that `insert_ns` and `get_ns` are taken on: as many,
/// and spread as widely (`KEY_STRIDE`), as the `micro_ro` table, so the
/// radix tree is as deep as under the real workload.
const INDEX_KEYS: u64 = 1_000_000;
const KEY_STRIDE: u64 = imoltp::bench::micro::KEY_STRIDE;
const INDEX_GETS: u64 = 200_000;
/// Range scans run on an index the size of a `tpcc_mix` table instead: the
/// radix tree's scan visits every leaf whatever the range, so its cost
/// grows with the table, not with the rows returned.
const SCAN_KEYS: u64 = 20_000;
const SCAN_STRIDE: u64 = 32;
const INDEX_SCANS: u64 = 200;
/// Rows per range scan: a TPC-C order's lines, a StockLevel slice.
const SCAN_ROWS: u64 = 20;
const LOCKSTEP_TURNS: u64 = 20_000;
const WIRE_ROUNDTRIPS: u64 = 1_000_000;

/// splitmix64: the probe keys' own generator, so they repeat run to run.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host nanoseconds per insert and per get of one index, through a live
/// `Mem` (the simulator models every node visit).
fn point_costs(index: &mut dyn Index, mem: &Mem, scale: Scale) -> (f64, f64) {
    let keys = scale.of(INDEX_KEYS);
    let t = Instant::now();
    for k in 0..keys {
        black_box(index.insert(mem, k * KEY_STRIDE, k));
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / keys as f64;

    let gets = scale.of(INDEX_GETS);
    let mut rng = 0x1D_5EED;
    let t = Instant::now();
    for _ in 0..gets {
        let k = splitmix(&mut rng) % keys;
        black_box(index.get(mem, k * KEY_STRIDE));
    }
    (insert_ns, t.elapsed().as_nanos() as f64 / gets as f64)
}

/// Host nanoseconds per row returned by 20-row range scans.
fn scan_cost(index: &mut dyn Index, mem: &Mem, scale: Scale) -> f64 {
    let keys = scale.of(SCAN_KEYS).max(2 * SCAN_ROWS);
    for k in 0..keys {
        index.insert(mem, k * SCAN_STRIDE, k);
    }
    let mut rng = 0x5CA4_5EED;
    let mut rows = 0u64;
    let t = Instant::now();
    for _ in 0..scale.of(INDEX_SCANS) {
        let lo = splitmix(&mut rng) % (keys - SCAN_ROWS);
        let range = (lo * SCAN_STRIDE, (lo + SCAN_ROWS - 1) * SCAN_STRIDE);
        rows += index
            .scan(mem, range.0, range.1, &mut |_, _| true)
            .expect("ordered index scans");
    }
    t.elapsed().as_nanos() as f64 / rows.max(1) as f64
}

/// Host microseconds per lockstep turn: two workers on two cores handing
/// an empty step back and forth through `measure_workers`' turn gate.
fn lockstep_turn_us(scale: Scale) -> f64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(2));
    let turns = scale.of(LOCKSTEP_TURNS);
    let spec = WindowSpec {
        warmup: 0,
        measured: turns,
        reps: 1,
    };
    let t = Instant::now();
    measure_workers(&sim, &[0, 1], spec, Pacing::Lockstep, |_| |_| {});
    t.elapsed().as_secs_f64() * 1e6 / (turns * 2) as f64
}

/// Host nanoseconds to encode and decode one Execute frame.
fn wire_roundtrip_ns(scale: Scale) -> f64 {
    let n = scale.of(WIRE_ROUNDTRIPS);
    let mut buf = Vec::with_capacity(16);
    let t = Instant::now();
    for _ in 0..n {
        buf.clear();
        black_box(&Frame::Execute).encode(&mut buf);
        let (frame, used) = Frame::decode(black_box(&buf)).expect("own frame decodes");
        black_box((frame, used));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn independent(scale: Scale, out: &mut Outcome) {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mem = sim.mem(0);
    type NewIndex = fn(&Mem) -> Box<dyn Index>;
    let make: [(&str, NewIndex); 4] = [
        ("disk_btree", |m| Box::new(DiskBTree::new(m))),
        ("cc_btree", |m| Box::new(CcBTree::new(m))),
        ("art", |m| Box::new(Art::new(m))),
        ("hash", |m| Box::new(HashIndex::new(m))),
    ];
    for (name, new) in make {
        let (insert_ns, get_ns) = point_costs(new(&mem).as_mut(), &mem, scale);
        out.layer(&format!("indexes.{name}.insert_ns"), insert_ns);
        out.layer(&format!("indexes.{name}.get_ns"), get_ns);
        let mut small = new(&mem);
        if small.supports_range() {
            out.layer(
                &format!("indexes.{name}.scan_ns_per_row"),
                scan_cost(small.as_mut(), &mem, scale),
            );
        }
    }
    out.layer("core.lockstep_turn_us", lockstep_turn_us(scale));
    out.layer("service.wire_roundtrip_ns", wire_roundtrip_ns(scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_reports_costs_and_only_the_hash_lacks_a_scan() {
        let mut out = Outcome::default();
        independent(Scale::new(1, true), &mut out);
        for name in ["disk_btree", "cc_btree", "art", "hash"] {
            assert!(out.metrics[&format!("indexes.{name}.get_ns")] > 0.0);
            assert!(out.metrics[&format!("indexes.{name}.insert_ns")] > 0.0);
        }
        assert!(out.metrics["indexes.art.scan_ns_per_row"] > 0.0);
        assert!(!out.metrics.contains_key("indexes.hash.scan_ns_per_row"));
        assert!(out.metrics["core.lockstep_turn_us"] > 0.0);
        assert!(out.metrics["service.wire_roundtrip_ns"] > 0.0);
    }
}
