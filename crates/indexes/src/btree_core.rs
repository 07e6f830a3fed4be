//! Generic B+tree shared by the disk-page and cache-conscious variants.
//!
//! The two variants differ only in node geometry and in how a node visit
//! touches the simulated memory (a binary search over a wide 8 KB page vs
//! a short sequential scan of a few-line node); everything else — split
//! logic, descent, leaf chaining, scans — is identical and lives here.

use uarch_sim::Mem;

use crate::traits::{Index, IndexKind, IndexStats};

/// Node geometry + instrumentation policy of a B+tree variant.
pub trait Layout {
    /// Which structure the variant reports itself as.
    const KIND: IndexKind;
    /// Max entries in a leaf.
    const LEAF_CAP: usize;
    /// Max keys in an inner node (children = keys + 1).
    const INNER_CAP: usize;
    /// Simulated bytes occupied by one node.
    const NODE_BYTES: u64;
    /// Instructions retired per inner-node visit.
    const INNER_INSTR: u64;
    /// Instructions retired per leaf visit.
    const LEAF_INSTR: u64;
    /// Bytes from node base to the entry array.
    const HEADER_BYTES: u64 = 64;
    /// Bytes per entry in the simulated layout (key + payload/child).
    const ENTRY_BYTES: u64 = 16;

    /// Touch the lines a search over `n` entries inspects within the node
    /// at `addr`, using the actual comparison sequence `probes` (entry
    /// indices inspected in order).
    fn touch_search(mem: &Mem, addr: u64, probes: &[usize]) {
        mem.read(addr, 16); // node header
        for &idx in probes {
            mem.read(
                addr + Self::HEADER_BYTES + idx as u64 * Self::ENTRY_BYTES,
                16,
            );
        }
    }

    /// Touch the lines moved when inserting/removing at `idx` in a node of
    /// `n` entries (the memmove of the tail).
    fn touch_shift(mem: &Mem, addr: u64, idx: usize, n: usize) {
        let start = addr + Self::HEADER_BYTES + idx as u64 * Self::ENTRY_BYTES;
        let len = (n.saturating_sub(idx) as u64 * Self::ENTRY_BYTES).max(16);
        mem.write(start, len.min(Self::NODE_BYTES - Self::HEADER_BYTES) as u32);
    }
}

const NO_NODE: u32 = u32::MAX;

struct Leaf {
    keys: Vec<u64>,
    vals: Vec<u64>,
    next: u32,
    addr: u64,
}

struct Inner {
    keys: Vec<u64>,
    children: Vec<u32>,
    addr: u64,
}

enum Node {
    Leaf(Leaf),
    Inner(Inner),
}

/// Generic B+tree over `u64 -> u64` with unique keys; the [`Index`] of
/// every variant (`DiskBTree`, `DiskBTreePacked`, `CcBTree` are aliases).
pub struct BPlusTree<L: Layout> {
    nodes: Vec<Node>,
    root: u32,
    height: u32,
    len: u64,
    bytes: u64,
    _marker: std::marker::PhantomData<L>,
}

/// Record the entry indices a binary search inspects, using real
/// comparisons against `keys`. Returns (probe trace, Result index).
fn binary_search_trace(keys: &[u64], key: u64, probes: &mut Vec<usize>) -> Result<usize, usize> {
    probes.clear();
    let mut lo = 0usize;
    let mut hi = keys.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes.push(mid);
        match keys[mid].cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

impl<L: Layout> BPlusTree<L> {
    /// Create an empty tree; the root node is allocated in simulated
    /// memory immediately.
    pub fn new(mem: &Mem) -> Self {
        let addr = mem.alloc(L::NODE_BYTES, 64);
        let root = Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NO_NODE,
            addr,
        };
        BPlusTree {
            nodes: vec![Node::Leaf(root)],
            root: 0,
            height: 1,
            len: 0,
            bytes: L::NODE_BYTES,
            _marker: std::marker::PhantomData,
        }
    }

    fn alloc_leaf(&mut self, mem: &Mem) -> u32 {
        let addr = mem.alloc(L::NODE_BYTES, 64);
        self.bytes += L::NODE_BYTES;
        self.nodes.push(Node::Leaf(Leaf {
            keys: Vec::with_capacity(L::LEAF_CAP),
            vals: Vec::with_capacity(L::LEAF_CAP),
            next: NO_NODE,
            addr,
        }));
        (self.nodes.len() - 1) as u32
    }

    fn alloc_inner(&mut self, mem: &Mem) -> u32 {
        let addr = mem.alloc(L::NODE_BYTES, 64);
        self.bytes += L::NODE_BYTES;
        self.nodes.push(Node::Inner(Inner {
            keys: Vec::with_capacity(L::INNER_CAP),
            children: Vec::with_capacity(L::INNER_CAP + 1),
            addr,
        }));
        (self.nodes.len() - 1) as u32
    }

    /// Descend from the root to the leaf for `key`, touching simulated
    /// memory along the way; returns (leaf id, path of (inner id, child
    /// position) from root to leaf parent).
    fn descend(&mut self, mem: &Mem, key: u64, path: Option<&mut Vec<(u32, usize)>>) -> u32 {
        let mut probes = Vec::with_capacity(16);
        let mut id = self.root;
        let mut path = path;
        loop {
            match &self.nodes[id as usize] {
                Node::Inner(inner) => {
                    mem.exec(L::INNER_INSTR);
                    let pos = match binary_search_trace(&inner.keys, key, &mut probes) {
                        Ok(i) => i + 1, // keys[i] == key goes right
                        Err(i) => i,
                    };
                    L::touch_search(mem, inner.addr, &probes);
                    if let Some(p) = path.as_deref_mut() {
                        p.push((id, pos));
                    }
                    id = inner.children[pos];
                }
                Node::Leaf(_) => return id,
            }
        }
    }

    /// Propagate a split upward: `right_id` becomes the sibling of
    /// `left_id` separated by `sep`.
    fn insert_into_parent(
        &mut self,
        mem: &Mem,
        mut path: Vec<(u32, usize)>,
        left_id: u32,
        mut sep: u64,
        mut right_id: u32,
    ) {
        let mut left = left_id;
        loop {
            match path.pop() {
                None => {
                    // Split reached the root: grow the tree.
                    let new_root = self.alloc_inner(mem);
                    let Node::Inner(r) = &mut self.nodes[new_root as usize] else {
                        unreachable!()
                    };
                    r.keys.push(sep);
                    r.children.push(left);
                    r.children.push(right_id);
                    mem.write(r.addr, 64);
                    self.root = new_root;
                    self.height += 1;
                    return;
                }
                Some((parent_id, pos)) => {
                    let split = {
                        let Node::Inner(p) = &mut self.nodes[parent_id as usize] else {
                            unreachable!()
                        };
                        mem.exec(60);
                        L::touch_shift(mem, p.addr, pos, p.keys.len());
                        p.keys.insert(pos, sep);
                        p.children.insert(pos + 1, right_id);
                        p.keys.len() > L::INNER_CAP
                    };
                    if !split {
                        return;
                    }
                    // Split the inner node.
                    let new_id = self.alloc_inner(mem);
                    let (new_sep, moved_keys, moved_children, old_addr) = {
                        let Node::Inner(p) = &mut self.nodes[parent_id as usize] else {
                            unreachable!()
                        };
                        let mid = p.keys.len() / 2;
                        let new_sep = p.keys[mid];
                        let moved_keys = p.keys.split_off(mid + 1);
                        p.keys.pop(); // new_sep moves up
                        let moved_children = p.children.split_off(mid + 1);
                        (new_sep, moved_keys, moved_children, p.addr)
                    };
                    {
                        let Node::Inner(n) = &mut self.nodes[new_id as usize] else {
                            unreachable!()
                        };
                        n.keys = moved_keys;
                        n.children = moved_children;
                        mem.write(n.addr + L::HEADER_BYTES, (L::NODE_BYTES / 2) as u32);
                    }
                    mem.write(old_addr, 16);
                    mem.exec(120);
                    left = parent_id;
                    sep = new_sep;
                    right_id = new_id;
                }
            }
        }
    }
}

impl<L: Layout> Index for BPlusTree<L> {
    fn kind(&self) -> IndexKind {
        L::KIND
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn get(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        let leaf_id = self.descend(mem, key, None);
        let mut probes = Vec::with_capacity(16);
        let Node::Leaf(leaf) = &self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        mem.exec(L::LEAF_INSTR);
        let found = binary_search_trace(&leaf.keys, key, &mut probes);
        L::touch_search(mem, leaf.addr, &probes);
        match found {
            Ok(i) => Some(leaf.vals[i]),
            Err(_) => None,
        }
    }

    fn replace(&mut self, mem: &Mem, key: u64, payload: u64) -> Option<u64> {
        let leaf_id = self.descend(mem, key, None);
        let mut probes = Vec::with_capacity(16);
        let Node::Leaf(leaf) = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        mem.exec(L::LEAF_INSTR);
        let found = binary_search_trace(&leaf.keys, key, &mut probes);
        L::touch_search(mem, leaf.addr, &probes);
        match found {
            Ok(i) => {
                let old = leaf.vals[i];
                leaf.vals[i] = payload;
                mem.write(
                    leaf.addr + L::HEADER_BYTES + i as u64 * L::ENTRY_BYTES + 8,
                    8,
                );
                Some(old)
            }
            Err(_) => None,
        }
    }

    fn insert(&mut self, mem: &Mem, key: u64, payload: u64) -> bool {
        let mut path = Vec::with_capacity(self.height as usize);
        let leaf_id = self.descend(mem, key, Some(&mut path));
        let mut probes = Vec::with_capacity(16);

        // Insert into the leaf.
        let (split, leaf_addr) = {
            let Node::Leaf(leaf) = &mut self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            mem.exec(L::LEAF_INSTR + 20);
            let pos = match binary_search_trace(&leaf.keys, key, &mut probes) {
                Ok(_) => {
                    L::touch_search(mem, leaf.addr, &probes);
                    return false; // duplicate
                }
                Err(p) => p,
            };
            L::touch_search(mem, leaf.addr, &probes);
            let n = leaf.keys.len();
            L::touch_shift(mem, leaf.addr, pos, n);
            leaf.keys.insert(pos, key);
            leaf.vals.insert(pos, payload);
            (leaf.keys.len() > L::LEAF_CAP, leaf.addr)
        };
        self.len += 1;
        if !split {
            return true;
        }

        // Split the leaf.
        let new_id = self.alloc_leaf(mem);
        let (sep, new_addr) = {
            let (left_half, right_half);
            {
                let Node::Leaf(leaf) = &mut self.nodes[leaf_id as usize] else {
                    unreachable!()
                };
                let mid = leaf.keys.len() / 2;
                right_half = (leaf.keys.split_off(mid), leaf.vals.split_off(mid));
                left_half = leaf.next;
            }
            let sep = right_half.0[0];
            let Node::Leaf(new_leaf) = &mut self.nodes[new_id as usize] else {
                unreachable!()
            };
            new_leaf.keys = right_half.0;
            new_leaf.vals = right_half.1;
            new_leaf.next = left_half;
            let new_addr = new_leaf.addr;
            // Moving half the entries writes half of both nodes.
            mem.write(new_addr + L::HEADER_BYTES, (L::NODE_BYTES / 2) as u32);
            mem.write(leaf_addr, 16);
            let Node::Leaf(leaf) = &mut self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            leaf.next = new_id;
            (sep, new_addr)
        };
        let _ = new_addr;
        mem.exec(120); // split bookkeeping
        self.insert_into_parent(mem, path, leaf_id, sep, new_id);
        true
    }

    /// Remove a key (lazy: leaves may underflow; no rebalancing — deletes
    /// are rare in the studied benchmarks and real engines defer merging).
    fn remove(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        let leaf_id = self.descend(mem, key, None);
        let mut probes = Vec::with_capacity(16);
        let Node::Leaf(leaf) = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        mem.exec(L::LEAF_INSTR + 15);
        let found = binary_search_trace(&leaf.keys, key, &mut probes);
        L::touch_search(mem, leaf.addr, &probes);
        match found {
            Ok(i) => {
                let n = leaf.keys.len();
                L::touch_shift(mem, leaf.addr, i, n);
                leaf.keys.remove(i);
                let v = leaf.vals.remove(i);
                self.len -= 1;
                Some(v)
            }
            Err(_) => None,
        }
    }

    fn scan(
        &mut self,
        mem: &Mem,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, u64) -> bool,
    ) -> Option<u64> {
        if lo > hi {
            return Some(0);
        }
        let mut leaf_id = self.descend(mem, lo, None);
        let mut probes = Vec::with_capacity(16);
        let mut visited = 0u64;
        loop {
            let Node::Leaf(leaf) = &self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            mem.exec(L::LEAF_INSTR);
            let start = match binary_search_trace(&leaf.keys, lo, &mut probes) {
                Ok(i) => i,
                Err(i) => i,
            };
            if visited == 0 {
                L::touch_search(mem, leaf.addr, &probes);
            } else {
                mem.read(leaf.addr, 16);
            }
            for i in start..leaf.keys.len() {
                let k = leaf.keys[i];
                if k > hi {
                    return Some(visited);
                }
                mem.exec(6);
                mem.read(leaf.addr + L::HEADER_BYTES + i as u64 * L::ENTRY_BYTES, 16);
                visited += 1;
                if !f(k, leaf.vals[i]) {
                    return Some(visited);
                }
            }
            if leaf.next == NO_NODE {
                return Some(visited);
            }
            leaf_id = leaf.next;
        }
    }

    fn supports_range(&self) -> bool {
        true
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            entries: self.len,
            nodes: self.nodes.len() as u64,
            height: self.height,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
impl<L: Layout> BPlusTree<L> {
    /// Validate structural invariants: sorted keys, correct separator
    /// relationships, consistent entry count, linked leaves.
    pub fn check_invariants(&self) {
        fn walk<L: Layout>(
            t: &BPlusTree<L>,
            id: u32,
            lo: Option<u64>,
            hi: Option<u64>,
            depth: u32,
            leaf_depth: &mut Option<u32>,
            count: &mut u64,
        ) {
            match &t.nodes[id as usize] {
                Node::Inner(inner) => {
                    assert!(!inner.keys.is_empty());
                    assert_eq!(inner.children.len(), inner.keys.len() + 1);
                    assert!(inner.keys.windows(2).all(|w| w[0] < w[1]));
                    if let Some(lo) = lo {
                        assert!(*inner.keys.first().unwrap() >= lo);
                    }
                    if let Some(hi) = hi {
                        assert!(*inner.keys.last().unwrap() < hi);
                    }
                    for (i, &c) in inner.children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(inner.keys[i - 1]) };
                        let chi = if i == inner.keys.len() {
                            hi
                        } else {
                            Some(inner.keys[i])
                        };
                        walk(t, c, clo, chi, depth + 1, leaf_depth, count);
                    }
                }
                Node::Leaf(leaf) => {
                    assert_eq!(leaf.keys.len(), leaf.vals.len());
                    assert!(leaf.keys.windows(2).all(|w| w[0] < w[1]));
                    if let Some(lo) = lo {
                        if let Some(&first) = leaf.keys.first() {
                            assert!(first >= lo);
                        }
                    }
                    if let Some(hi) = hi {
                        if let Some(&last) = leaf.keys.last() {
                            assert!(last < hi);
                        }
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "unbalanced leaves"),
                    }
                    *count += leaf.keys.len() as u64;
                }
            }
        }
        let mut leaf_depth = None;
        let mut count = 0;
        walk(self, self.root, None, None, 1, &mut leaf_depth, &mut count);
        assert_eq!(count, self.len);
        assert_eq!(leaf_depth.unwrap(), self.height);
    }
}
