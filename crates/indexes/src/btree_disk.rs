//! Disk-oriented B+tree: 8 KB pages, wide binary search.
//!
//! This is the index of the traditional systems (Shore-MT, DBMS D). A
//! probe touches ~`log2(fanout)` scattered lines per page across 3 levels,
//! which the paper identifies as the source of Shore-MT's high LLC data
//! stalls ("Shore-MT exhibits high LLC data stalls due to its
//! non-cache-conscious index structure", §4.1.3).

use crate::btree_core::{BPlusTree, Layout};
use crate::traits::IndexKind;

/// Slotted 8 KB page geometry (see [`DiskBTree`]).
pub struct DiskLayout;

/// Offset of the slot directory within the page (after the record area).
const SLOT_AREA: u64 = 64 + 400 * 16;

impl Layout for DiskLayout {
    const KIND: IndexKind = IndexKind::DiskBTree;
    // 8 KB page, 64-byte header, 400 16-byte records plus a 4-byte-per-
    // entry slot directory — the classical slotted layout.
    const LEAF_CAP: usize = 400;
    const INNER_CAP: usize = 400;
    const NODE_BYTES: u64 = 8192;
    // Wide pages mean long binary searches and latch/pin bookkeeping.
    const INNER_INSTR: u64 = 90;
    const LEAF_INSTR: u64 = 90;

    /// Disk pages search through a slot directory: every binary-search
    /// probe touches the slot entry *and* the record it points at — twice
    /// the cold lines of a flat array, which is what makes the
    /// non-cache-conscious index so expensive at LLC level (§4.1.3).
    fn touch_search(mem: &uarch_sim::Mem, addr: u64, probes: &[usize]) {
        mem.read(addr, 16); // page header / latch word
        for &idx in probes {
            mem.read(addr + SLOT_AREA + idx as u64 * 4, 4);
            mem.read(
                addr + Self::HEADER_BYTES + idx as u64 * Self::ENTRY_BYTES,
                16,
            );
        }
    }
}

/// A B+tree with disk-style 8 KB pages. See the module docs.
pub type DiskBTree = BPlusTree<DiskLayout>;

/// Packed-key variant of the 8 KB-page B+tree.
///
/// Binary search runs over a densely packed key array at the head of the
/// page (no slot-directory indirection), roughly halving the random lines
/// per probe. This models the commercial disk-based system ("DBMS D"),
/// whose LLC data stalls per transaction the paper measures to be clearly
/// below Shore-MT's despite the same 8 KB page size (§4.1.3 notes the
/// vendor publishes no tuning details; packed key arrays are the
/// standard way commercial engines get there).
pub type DiskBTreePacked = BPlusTree<PackedLayout>;

/// Packed-key 8 KB page geometry (see [`DiskBTreePacked`]).
pub struct PackedLayout;

impl Layout for PackedLayout {
    const KIND: IndexKind = IndexKind::DiskBTree;
    const LEAF_CAP: usize = 400;
    const INNER_CAP: usize = 400;
    const NODE_BYTES: u64 = 8192;
    const INNER_INSTR: u64 = 80;
    const LEAF_INSTR: u64 = 80;
    // Default `touch_search`: header + the binary-search key lines only.
}

#[cfg(test)]
mod packed_tests {
    use super::*;
    use crate::test_util::mem;
    use crate::traits::Index;
    use uarch_sim::StallEvent;

    #[test]
    fn packed_tree_round_trips() {
        let mem = mem();
        let mut t = DiskBTreePacked::new(&mem);
        for k in (0..5000u64).rev() {
            assert!(t.insert(&mem, k, k + 1));
        }
        for k in 0..5000u64 {
            assert_eq!(t.get(&mem, k), Some(k + 1));
        }
        let n = t.scan(&mem, 100, 199, &mut |_, _| true).unwrap();
        assert_eq!(n, 100);
        assert_eq!(t.remove(&mem, 100), Some(101));
        assert_eq!(t.get(&mem, 100), None);
    }

    #[test]
    fn packed_probe_touches_fewer_llc_lines_than_slotted() {
        let n = 1_500_000u64;
        let probes: Vec<u64> = (0..20_000u64).map(|i| (i * 48_271) % n).collect();
        let run = |packed: bool| {
            let mem = mem();
            let mut slotted = DiskBTree::new(&mem);
            let mut pk = DiskBTreePacked::new(&mem);
            let t: &mut dyn Index = if packed { &mut pk } else { &mut slotted };
            for k in 0..n {
                t.insert(&mem, k, k);
            }
            for &k in &probes[..10_000] {
                t.get(&mem, k);
            }
            let before = mem.sim().counters(0);
            for &k in &probes[10_000..] {
                t.get(&mem, k);
            }
            let d = mem.sim().counters(0).delta(&before);
            d.miss(StallEvent::LlcD) as f64 / 10_000.0
        };
        let slotted = run(false);
        let packed = run(true);
        assert!(
            packed < slotted * 0.75,
            "packed should miss clearly less: packed={packed:.2} slotted={slotted:.2}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mem;
    use crate::traits::Index;

    #[test]
    fn insert_get_remove_cycle() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        for k in 0..2000u64 {
            assert!(t.insert(&mem, k * 3, k));
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(t.get(&mem, k * 3), Some(k));
            assert_eq!(t.get(&mem, k * 3 + 1), None);
        }
        assert_eq!(t.remove(&mem, 30), Some(10));
        assert_eq!(t.remove(&mem, 30), None);
        assert_eq!(t.get(&mem, 30), None);
        assert_eq!(t.len(), 1999);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        assert!(t.insert(&mem, 5, 1));
        assert!(!t.insert(&mem, 5, 2));
        assert_eq!(t.get(&mem, 5), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_swaps_payload() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        t.insert(&mem, 9, 1);
        assert_eq!(t.replace(&mem, 9, 7), Some(1));
        assert_eq!(t.get(&mem, 9), Some(7));
        assert_eq!(t.replace(&mem, 10, 7), None);
    }

    #[test]
    fn scan_returns_sorted_range() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        // Insert in reverse to exercise ordering.
        for k in (0..5000u64).rev() {
            t.insert(&mem, k, k + 100);
        }
        let mut seen = Vec::new();
        let n = t
            .scan(&mem, 1000, 1009, &mut |k, v| {
                seen.push((k, v));
                true
            })
            .unwrap();
        assert_eq!(n, 10);
        assert_eq!(seen.first(), Some(&(1000, 1100)));
        assert_eq!(seen.last(), Some(&(1009, 1109)));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_early_stop() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        for k in 0..100u64 {
            t.insert(&mem, k, k);
        }
        let mut count = 0;
        let n = t
            .scan(&mem, 0, 99, &mut |_, _| {
                count += 1;
                count < 7
            })
            .unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn big_tree_has_disk_height() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        for k in 0..300_000u64 {
            t.insert(&mem, k, k);
        }
        let s = t.stats();
        // 300k entries / 480-entry pages: height 3 with wide pages.
        assert!(s.height <= 3, "height={}", s.height);
        assert_eq!(s.entries, 300_000);
        assert!(s.bytes >= s.nodes * 8192);
        t.check_invariants();
    }

    #[test]
    fn invariants_hold_under_mixed_workload() {
        let mem = mem();
        let mut t = DiskBTree::new(&mem);
        let mut x = 1u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = x % 10_000;
            match i % 3 {
                0 => {
                    let _ = t.insert(&mem, k, i);
                }
                1 => {
                    let _ = t.remove(&mem, k);
                }
                _ => {
                    let _ = t.replace(&mem, k, i);
                }
            }
        }
        t.check_invariants();
    }
}
