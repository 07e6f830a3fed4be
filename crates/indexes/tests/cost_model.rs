//! Cost-model lint: what an index operation is charged follows the height
//! of the structure and the rows it returns — never the number of keys
//! stored. The goldens pin every charge bit for bit, so they preserve a
//! mis-modelled operation as faithfully as a right one; this bounds each
//! one by what the data structure it models would read.

use std::collections::BTreeMap;

use indexes::{Art, CcBTree, DiskBTree, DiskBTreePacked, HashIndex, Index};
use uarch_sim::{MachineConfig, Mem, Sim};

const KEYS: u64 = 20_000;

type Build = fn(&Mem) -> Box<dyn Index>;
type KeyOf = fn(u64) -> u64;

/// Every `Index` impl with its `c`: an operation may load at most `c` lines
/// per level of the structure (`stats().height`), a scan at most `c` per
/// level and per row it visits. `c` = nodes probed per level x lines read
/// per probe.
const STRUCTURES: &[(&str, Build, u64)] = &[
    // One page per level: its header, then a binary search over <= 400
    // entries, ceil(log2 401) = 9 probes, each reading the slot entry and
    // the record it points at. A scan adds one record per row and one
    // header per further leaf.
    ("DiskBTree", |m| Box::new(DiskBTree::new(m)), 1 + 9 * 2),
    // The same page without the slot directory: one line per probe.
    (
        "DiskBTreePacked",
        |m| Box::new(DiskBTreePacked::new(m)),
        1 + 9,
    ),
    // One 256-byte node per level, read front to back: 4 lines.
    ("CcBTree", |m| Box::new(CcBTree::new(m)), 4),
    // A scan walks its two boundary paths, so at most 2 nodes per level,
    // and a node visit streams at most 4 lines (a Node256's header plus
    // 128 bytes of child array); a node strictly inside the range has at
    // least two rows below it to pay for that. A point probe reads at most
    // 3 lines per level (header, key/index byte, child pointer); the 8-line
    // copy when an insert grows a node happens at height >= 2 and fits.
    ("Art", |m| Box::new(Art::new(m)), 2 * 4),
    // `height` is the longest chain: the directory slot and each overflow
    // entry are 24 bytes at 8-byte alignment, which can straddle two lines.
    // Pre-sized, so no insert here pays for a rehash.
    (
        "HashIndex",
        |m| Box::new(HashIndex::with_capacity(m, 2 * KEYS)),
        2,
    ),
];

/// Three ways 20 000 keys spread over the 8 key bytes.
const SHAPES: &[(&str, KeyOf)] = &[
    ("dense", |i| i),
    // The micro-benchmark table: a radix tree one level deeper.
    ("stride-64", |i| i * 64),
    // TPC-C's packed (warehouse, district, id): long shared prefixes.
    ("composite", |i| {
        ((i / 2_000) << 32) | ((i / 200 % 10) << 8) | (i % 200)
    }),
];

/// Loads charged to core 0 while `op` runs.
fn loads(sim: &Sim, op: impl FnOnce()) -> u64 {
    let before = sim.counters(0).loads;
    op();
    sim.counters(0).loads - before
}

#[test]
fn loads_follow_height_and_rows_not_table_size() {
    // Worst offender per (structure, shape, operation), so one run names
    // every operation that is off, not only the first.
    let mut over: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for &(structure, build, c) in STRUCTURES {
        for &(shape, key_of) in SHAPES {
            let mut hold = |op: &str, charged: u64, bound: u64| {
                if charged > bound {
                    let key = format!("{structure}/{shape} {op}");
                    let worst = over.entry(key).or_insert((0, bound));
                    *worst = (*worst).max((charged, bound));
                }
            };
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let mem = sim.mem(0);
            let mut idx = build(&mem);
            // Every third key first, then the rest: nodes fill and split in
            // the middle as well as at the right edge.
            let order = (0..KEYS).step_by(3).chain((0..KEYS).filter(|i| i % 3 != 0));
            let worst_insert = order
                .map(|i| loads(&sim, || assert!(idx.insert(&mem, key_of(i), i))))
                .max();
            let height = u64::from(idx.stats().height);
            hold("insert", worst_insert.unwrap(), c * height);

            for i in (0..KEYS).step_by(97) {
                let key = key_of(i);
                let n = loads(&sim, || assert_eq!(idx.get(&mem, key), Some(i)));
                hold("get", n, c * height);
                let n = loads(&sim, || assert_eq!(idx.replace(&mem, key, i), Some(i)));
                hold("replace", n, c * height);
                // A key that is absent (or, on dense keys, the next one).
                let n = loads(&sim, || {
                    idx.get(&mem, key + 1);
                });
                hold("get", n, c * height);
            }

            if idx.supports_range() {
                for first in (0..KEYS - 600).step_by(487) {
                    for rows in [1, 20, 500] {
                        let (lo, hi) = (key_of(first), key_of(first + rows - 1));
                        let mut visited = 0;
                        let n = loads(&sim, || {
                            visited = idx.scan(&mem, lo, hi, &mut |_, _| true).unwrap();
                        });
                        assert_eq!(visited, rows, "{structure}/{shape} scan [{lo}, {hi}]");
                        hold(&format!("scan of {rows}"), n, c * (height + rows));
                    }
                }
                // A range past the last key is a descent and nothing else.
                let n = loads(&sim, || {
                    idx.scan(&mem, u64::MAX - 5, u64::MAX, &mut |_, _| true);
                });
                hold("scan of 0", n, c * height);
            }

            for i in (0..KEYS).step_by(97) {
                let n = loads(&sim, || assert_eq!(idx.remove(&mem, key_of(i)), Some(i)));
                hold("remove", n, c * height);
            }
        }
    }
    assert!(
        over.is_empty(),
        "loads charged above c x (height + rows), as `operation: (charged, bound)`: {over:#?}"
    );
}
