//! Property-based tests over the core data structures and codecs.
//!
//! Randomized with the workspace's deterministic `rand` shim instead of
//! proptest (unavailable offline): each property runs a fixed number of
//! seeded cases, so failures reproduce exactly from the printed seed.

use std::collections::{BTreeMap, BTreeSet};

use imoltp::db::tuple;
use imoltp::db::{KeyPack, Value};
use imoltp::idx::{Art, CcBTree, DiskBTree, HashIndex, Index};
use imoltp::sim::cache::Cache;
use imoltp::sim::config::CacheGeometry;
use imoltp::sim::{MachineConfig, Mem, Sim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn mem() -> Mem {
    Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
}

/// Run `CASES` independent cases, each with a fresh seeded RNG.
fn for_each_case(property: &str, f: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xD15C_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        // The seed in scope makes any assert below reproducible; print it
        // on the failure path only (panic output includes stdout).
        println!("{property}: case seed {seed:#x}");
        f(&mut rng);
    }
}

/// An arbitrary index operation.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
    Replace(u64, u64),
    /// Bounds, and the number of rows after which the visitor stops.
    Scan(u64, u64, usize),
}

/// The ~320 keys a case draws from — few enough that operations collide
/// often, spread so a radix tree meets every kind of path: dense keys that
/// differ in the last two bytes only, full-width sparse keys (each with a
/// neighbour that shares all but the last bit) and TPC-C-style composites
/// `(w << 32) | (d << 8) | x` that share long prefixes.
fn key_pool(rng: &mut StdRng) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..100).map(|_| rng.random_range(0u64..300)).collect();
    for _ in 0..64 {
        let k = rng.random_range(0u64..=u64::MAX);
        pool.extend([k, k ^ 1]);
    }
    for w in 0..3u64 {
        for d in 0..4u64 {
            pool.extend((0..8u64).map(|x| (w << 32) | (d << 8) | x));
        }
    }
    pool
}

/// A scan bound: on a key, just beside one, on or at the end of the block
/// of keys that share a prefix with one, or at either end of the key space.
fn random_bound(rng: &mut StdRng, pool: &[u64]) -> u64 {
    let k = pool[rng.random_range(0..pool.len())];
    match rng.random_range(0u8..9) {
        0 => 0,
        1 => u64::MAX,
        2 => k.wrapping_sub(1),
        3 => k.wrapping_add(1),
        4 => k & !0xFF,
        5 => k | 0xFFFF,
        6 => k & !0xFFFF_FFFF,
        _ => k,
    }
}

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let pool = key_pool(rng);
    let n = rng.random_range(1usize..200);
    (0..n)
        .map(|_| {
            let k = pool[rng.random_range(0..pool.len())];
            match rng.random_range(0u8..5) {
                0 => Op::Insert(k, rng.random_range(0u64..=u64::MAX)),
                1 => Op::Get(k),
                2 => Op::Remove(k),
                3 => Op::Replace(k, rng.random_range(0u64..=u64::MAX)),
                _ => {
                    let a = random_bound(rng, &pool);
                    let b = match rng.random_range(0u8..6) {
                        0 => a, // lo == hi
                        _ => random_bound(rng, &pool),
                    };
                    let stop_after = match rng.random_range(0u8..3) {
                        0 => rng.random_range(1usize..5),
                        _ => usize::MAX,
                    };
                    Op::Scan(a.min(b), a.max(b), stop_after)
                }
            }
        })
        .collect()
}

fn check_against_model(index: &mut dyn Index, mem: &Mem, ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let inserted = index.insert(mem, k, v);
                assert_eq!(inserted, !model.contains_key(&k), "insert {k}");
                if inserted {
                    model.insert(k, v);
                }
            }
            Op::Get(k) => {
                assert_eq!(index.get(mem, k), model.get(&k).copied(), "get {k}");
            }
            Op::Remove(k) => {
                assert_eq!(index.remove(mem, k), model.remove(&k), "remove {k}");
            }
            Op::Replace(k, v) => {
                let old = index.replace(mem, k, v);
                assert_eq!(old, model.get(&k).copied(), "replace {k}");
                if old.is_some() {
                    model.insert(k, v);
                }
            }
            Op::Scan(lo, hi, stop_after) => {
                if index.supports_range() {
                    let mut got = Vec::new();
                    let visited = index.scan(mem, lo, hi, &mut |k, v| {
                        got.push((k, v));
                        got.len() < stop_after
                    });
                    let expect: Vec<(u64, u64)> = model
                        .range(lo..=hi)
                        .map(|(&k, &v)| (k, v))
                        .take(stop_after)
                        .collect();
                    assert_eq!(got, expect, "scan [{lo:#x},{hi:#x}] x{stop_after}");
                    assert_eq!(visited, Some(expect.len() as u64), "scan count");
                }
            }
        }
        assert_eq!(index.len(), model.len() as u64);
    }
}

#[test]
fn disk_btree_behaves_like_btreemap() {
    for_each_case("disk_btree_behaves_like_btreemap", |rng| {
        let ops = random_ops(rng);
        let mem = mem();
        let mut idx = DiskBTree::new(&mem);
        check_against_model(&mut idx, &mem, &ops);
    });
}

#[test]
fn cc_btree_behaves_like_btreemap() {
    for_each_case("cc_btree_behaves_like_btreemap", |rng| {
        let ops = random_ops(rng);
        let mem = mem();
        let mut idx = CcBTree::new(&mem);
        check_against_model(&mut idx, &mem, &ops);
    });
}

#[test]
fn art_behaves_like_btreemap() {
    for_each_case("art_behaves_like_btreemap", |rng| {
        let ops = random_ops(rng);
        let mem = mem();
        let mut idx = Art::new(&mem);
        check_against_model(&mut idx, &mem, &ops);
    });
}

#[test]
fn hash_behaves_like_btreemap() {
    for_each_case("hash_behaves_like_btreemap", |rng| {
        let ops = random_ops(rng);
        let mem = mem();
        let mut idx = HashIndex::with_capacity(&mem, 64);
        check_against_model(&mut idx, &mem, &ops);
    });
}

#[test]
fn art_handles_arbitrary_u64_keys() {
    for_each_case("art_handles_arbitrary_u64_keys", |rng| {
        let n = rng.random_range(1usize..300);
        let keys: BTreeSet<u64> = (0..n).map(|_| rng.random_range(0u64..=u64::MAX)).collect();
        let mem = mem();
        let mut idx = Art::new(&mem);
        for (i, &k) in keys.iter().enumerate() {
            assert!(idx.insert(&mem, k, i as u64));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(&mem, k), Some(i as u64));
        }
        // Ordered scan over the full range yields the sorted key set.
        let mut seen = Vec::new();
        idx.scan(&mem, 0, u64::MAX, &mut |k, _| {
            seen.push(k);
            true
        });
        let expect: Vec<u64> = keys.iter().copied().collect();
        assert_eq!(seen, expect);
    });
}

fn random_row(rng: &mut StdRng) -> Vec<Value> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let cols = rng.random_range(0usize..12);
    (0..cols)
        .map(|_| {
            if rng.random_range(0u8..2) == 0 {
                Value::Long(rng.random_range(i64::MIN..=i64::MAX))
            } else {
                let len = rng.random_range(0usize..=80);
                let s: String = (0..len)
                    .map(|_| ALPHABET[rng.random_range(0usize..ALPHABET.len())] as char)
                    .collect();
                Value::Str(s)
            }
        })
        .collect()
}

#[test]
fn tuple_codec_round_trips() {
    for_each_case("tuple_codec_round_trips", |rng| {
        let row = random_row(rng);
        let mut encoded = tuple::BytesMut::new();
        tuple::encode_into(&row, &mut encoded);
        assert_eq!(encoded.len(), tuple::encoded_len(&row));
        assert_eq!(tuple::decode(&encoded).unwrap(), row);
    });
}

#[test]
fn tuple_decode_never_panics_on_garbage() {
    for_each_case("tuple_decode_never_panics_on_garbage", |rng| {
        let len = rng.random_range(0usize..128);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=u8::MAX)).collect();
        let _ = tuple::decode(&bytes); // must return Err, not panic
    });
}

#[test]
fn keypack_preserves_order() {
    for_each_case("keypack_preserves_order", |rng| {
        let (a1, b1) = (rng.random_range(0u64..1024), rng.random_range(0u64..65536));
        let (a2, b2) = (rng.random_range(0u64..1024), rng.random_range(0u64..65536));
        let k1 = KeyPack::new().field(a1, 10).field(b1, 16).get();
        let k2 = KeyPack::new().field(a2, 10).field(b2, 16).get();
        assert_eq!(k1.cmp(&k2), (a1, b1).cmp(&(a2, b2)));
    });
}

#[test]
fn cache_hits_plus_misses_equals_accesses() {
    for_each_case("cache_hits_plus_misses_equals_accesses", |rng| {
        let n = rng.random_range(1usize..2000);
        let lines: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..4096)).collect();
        let mut c = Cache::new(CacheGeometry::new(8 << 10, 64, 4));
        for &l in &lines {
            c.access(l);
        }
        assert_eq!(c.accesses(), lines.len() as u64);
        assert_eq!(c.hits() + c.misses(), c.accesses());
        // Residency never exceeds capacity.
        assert!(c.resident_lines() <= c.capacity_lines());
    });
}

#[test]
fn cache_single_line_rereference_always_hits() {
    for_each_case("cache_single_line_rereference_always_hits", |rng| {
        let line = rng.random_range(0u64..=u64::MAX) % (1 << 40);
        let n = rng.random_range(1usize..50);
        let mut c = Cache::new(CacheGeometry::new(8 << 10, 64, 4));
        c.access(line);
        for _ in 0..n {
            assert!(c.access(line).hit);
        }
    });
}
