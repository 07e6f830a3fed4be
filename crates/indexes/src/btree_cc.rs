//! Cache-conscious B+tree: small nodes spanning a few cache lines.
//!
//! VoltDB "uses traditional B-tree with node size tuned to the last-level
//! cache line size" (§3); DBMS M's tree is "a variant of cache-conscious
//! B-tree index similar to the Bw-tree". We model both with 256-byte nodes
//! (4 lines): a visit touches the header line plus the lines holding the
//! sequentially scanned prefix, so a probe costs only a couple of distinct
//! lines per level instead of the disk page's ~10.

use uarch_sim::Mem;

use crate::btree_core::{BPlusTree, Layout};
use crate::traits::IndexKind;

/// 256-byte node geometry (see [`CcBTree`]).
pub struct CcLayout;

impl Layout for CcLayout {
    const KIND: IndexKind = IndexKind::CcBTree;
    // 256-byte nodes: 64-byte header + 12 x 16-byte entries.
    const LEAF_CAP: usize = 12;
    const INNER_CAP: usize = 12;
    const NODE_BYTES: u64 = 256;
    // Narrow nodes: short sequential comparison loops, no latching.
    const INNER_INSTR: u64 = 28;
    const LEAF_INSTR: u64 = 28;

    /// Small nodes are scanned sequentially: touch the header line and the
    /// entry lines up to the deepest probe (binary search degenerates to a
    /// short linear pass at this size).
    fn touch_search(mem: &Mem, addr: u64, probes: &[usize]) {
        let deepest = probes.iter().copied().max().unwrap_or(0);
        let span = 16 + (deepest as u64 + 1) * Self::ENTRY_BYTES;
        mem.read(addr, span.min(Self::NODE_BYTES) as u32);
    }
}

/// A cache-conscious B+tree (256-byte nodes). See the module docs.
pub type CcBTree = BPlusTree<CcLayout>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mem;
    use crate::traits::Index;
    use uarch_sim::StallEvent;

    #[test]
    fn insert_get_remove_cycle() {
        let mem = mem();
        let mut t = CcBTree::new(&mem);
        for k in 0..5000u64 {
            // Colliding keys make insert return false; only crashes matter here.
            let _ = t.insert(&mem, k.wrapping_mul(2654435761) % 100_000, k);
        }
        t.insert(&mem, 200_001, 42);
        assert_eq!(t.get(&mem, 200_001), Some(42));
        assert_eq!(t.remove(&mem, 200_001), Some(42));
        assert_eq!(t.get(&mem, 200_001), None);
    }

    #[test]
    fn ordered_scan_across_many_small_nodes() {
        let mem = mem();
        let mut t = CcBTree::new(&mem);
        for k in (0..3000u64).rev() {
            t.insert(&mem, k, k * 2);
        }
        let mut prev = None;
        let n = t
            .scan(&mem, 500, 1500, &mut |k, v| {
                assert_eq!(v, k * 2);
                if let Some(p) = prev {
                    assert!(k > p);
                }
                prev = Some(k);
                true
            })
            .unwrap();
        assert_eq!(n, 1001);
    }

    #[test]
    fn small_nodes_mean_taller_tree_than_disk_pages() {
        let mem = mem();
        let mut t = CcBTree::new(&mem);
        for k in 0..100_000u64 {
            t.insert(&mem, k, k);
        }
        let s = t.stats();
        assert!(s.height >= 5, "height={}", s.height);
        assert_eq!(s.entries, 100_000);
    }

    #[test]
    fn probe_touches_fewer_llc_lines_than_disk_btree() {
        use crate::btree_disk::DiskBTree;

        // Load both with the same large key set, then compare LLC data
        // misses per random probe — the §6.1 phenomenon (cc-tree is
        // friendlier than the disk tree, though not as frugal as hash).
        let n = 1_500_000u64;
        let probes: Vec<u64> = (0..20_000u64).map(|i| (i * 48_271) % n).collect();

        let run = |mk: &dyn Fn(&uarch_sim::Mem) -> Box<dyn Index>| {
            let mem = mem();
            let mut t = mk(&mem);
            for k in 0..n {
                t.insert(&mem, k, k);
            }
            for &k in &probes[..10_000] {
                t.get(&mem, k); // warmup
            }
            let before = mem.sim().counters(0);
            for &k in &probes[10_000..] {
                t.get(&mem, k);
            }
            let d = mem.sim().counters(0).delta(&before);
            d.miss(StallEvent::LlcD) as f64 / 10_000.0
        };
        let disk = run(&|m| Box::new(DiskBTree::new(m)));
        let cc = run(&|m| Box::new(CcBTree::new(m)));
        assert!(
            cc < disk,
            "cc-btree should miss LLC less per probe: cc={cc:.2} disk={disk:.2}"
        );
    }
}
