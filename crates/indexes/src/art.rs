//! Adaptive radix tree (ART) — HyPer's index (Leis et al., ICDE'13).
//!
//! Keys are treated as 8 big-endian bytes. Inner nodes adapt their layout
//! to their fanout (Node4 / Node16 / Node48 / Node256), paths with single
//! children are compressed into node prefixes, and single keys are stored
//! as lazy leaves. The paper credits this structure ("adaptive radix tree
//! with adaptive compact node sizes") for HyPer's low data stalls *per
//! transaction* despite very high stalls *per 1000 instructions*.
//!
//! **Node interface.** How a key byte finds its child is said once, by
//! [`Inner`]'s four primitives over the [`Kind`] table: `slot(byte)` (the
//! child and where it sits), `put(byte, child)` (add or replace),
//! `take(byte)` (remove) and `ordered(lo, hi)` (the children whose byte
//! lies in a window, in byte order). Descents, splits, grow/shrink and
//! scans are written on top of them and name a layout only where the
//! simulated node is charged (`find_child`, `add_child`, the scan's node
//! visit).
//!
//! **Window rule.** A range scan is an ordered descent. It carries each
//! bound only while the path so far spells that bound's own leading bytes:
//! such a bound is compared with the node's prefix (which puts the subtree
//! outside the range, clears the bound, or keeps it) and its next byte
//! closes one side of the window `ordered` is asked for. A child strictly
//! inside the window is free of both bounds, and a leaf — lazy, so only
//! its path is vouched for — is compared whole.
//!
//! **What a scan charges.** Per node visited: the layout's instructions
//! and the header line, as for a probe, and — if the prefix keeps the
//! subtree in range — the key/index/child bytes a scan streams (none for a
//! Node4, 16 / 64 / 128 bytes for a Node16 / 48 / 256). Per leaf visited:
//! 8 instructions and its line. The window decides *which* nodes those
//! are: the two boundary paths plus what lies between them, so
//! O(height + rows) lines (`tests/cost_model.rs` holds every index to
//! that).

use std::cmp::Ordering;

use uarch_sim::Mem;

use crate::traits::{Index, IndexKind, IndexStats};

/// Reference to a child: none, leaf, or inner node (arena indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeRef {
    None,
    Leaf(u32),
    Inner(u32),
}

struct Leaf {
    key: u64,
    payload: u64,
    addr: u64,
}

const LEAF_BYTES: u64 = 24;

/// The four inner-node layouts; each method is one column of the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    N4,
    N16,
    N48,
    N256,
}

impl Kind {
    /// Children the layout holds; a full node grows before the next one.
    fn cap(self) -> u16 {
        [4, 16, 48, 256][self as usize]
    }

    fn simulated_bytes(self) -> u64 {
        [64, 192, 704, 2112][self as usize]
    }

    fn visit_instr(self) -> u64 {
        [18, 22, 24, 20][self as usize]
    }

    /// The layout a full node grows into (a Node256 is never full when a
    /// new byte arrives).
    fn larger(self) -> Kind {
        [Kind::N16, Kind::N48, Kind::N256, Kind::N256][self as usize]
    }

    /// The layout a node shrinks into, and the child count at which it
    /// does: below the smaller layout's capacity, so a node at the
    /// boundary does not flip back and forth.
    fn smaller(self) -> Option<(Kind, u16)> {
        [
            None,
            Some((Kind::N4, 3)),
            Some((Kind::N16, 12)),
            Some((Kind::N48, 36)),
        ][self as usize]
    }

    fn empty_slots(self) -> Slots {
        match self {
            Kind::N4 | Kind::N16 => Slots::Sorted {
                keys: [0; 16],
                children: [NodeRef::None; 16],
            },
            Kind::N48 => Slots::Indexed {
                index: Box::new([IDX48_EMPTY; 256]),
                children: Box::new([NodeRef::None; 48]),
            },
            Kind::N256 => Slots::Direct(Box::new([NodeRef::None; 256])),
        }
    }
}

const IDX48_EMPTY: u8 = 0xFF;

/// Host-side child storage. Node4 and Node16 share the sorted-keys form
/// (the first `count` entries are live); they differ only in capacity and
/// in what a visit is charged.
enum Slots {
    Sorted {
        keys: [u8; 16],
        children: [NodeRef; 16],
    },
    Indexed {
        index: Box<[u8; 256]>,
        children: Box<[NodeRef; 48]>,
    },
    Direct(Box<[NodeRef; 256]>),
}

struct Inner {
    prefix: [u8; 8],
    prefix_len: u8,
    count: u16,
    kind: Kind,
    slots: Slots,
    addr: u64,
}

impl Inner {
    fn new(kind: Kind, prefix: &[u8], addr: u64) -> Self {
        let mut p = [0u8; 8];
        p[..prefix.len()].copy_from_slice(prefix);
        Inner {
            prefix: p,
            prefix_len: prefix.len() as u8,
            count: 0,
            kind,
            slots: kind.empty_slots(),
            addr,
        }
    }

    fn prefix(&self) -> &[u8] {
        &self.prefix[..self.prefix_len as usize]
    }

    /// How many leading bytes of the prefix agree with the key from
    /// `depth` on.
    fn prefix_match(&self, key_bytes: &[u8; 8], depth: usize) -> usize {
        let rest = &key_bytes[depth..];
        self.prefix()
            .iter()
            .zip(rest)
            .take_while(|(p, k)| p == k)
            .count()
    }

    /// The child for `byte` and where in the child array it sits.
    fn slot(&self, byte: u8) -> Option<(usize, NodeRef)> {
        let (at, child) = match &self.slots {
            Slots::Sorted { keys, children } => {
                let live = &keys[..self.count as usize];
                let at = live.iter().position(|&k| k == byte)?;
                (at, children[at])
            }
            Slots::Indexed { index, children } => match index[byte as usize] {
                IDX48_EMPTY => return None,
                at => (at as usize, children[at as usize]),
            },
            Slots::Direct(children) => (byte as usize, children[byte as usize]),
        };
        (child != NodeRef::None).then_some((at, child))
    }

    /// Set the child for `byte` — a new byte (the caller has made room) or
    /// one already present — and return where it sits.
    fn put(&mut self, byte: u8, child: NodeRef) -> usize {
        let len = self.count as usize;
        match &mut self.slots {
            Slots::Sorted { keys, children } => {
                // Keys stay sorted for ordered scans.
                let at = keys[..len].iter().position(|&k| k >= byte).unwrap_or(len);
                if at == len || keys[at] != byte {
                    keys.copy_within(at..len, at + 1);
                    children.copy_within(at..len, at + 1);
                    keys[at] = byte;
                    self.count += 1;
                }
                children[at] = child;
                at
            }
            Slots::Indexed { index, children } => {
                if index[byte as usize] == IDX48_EMPTY {
                    // Slots are not compacted on removal: take the first
                    // free one.
                    let free = children
                        .iter()
                        .position(|c| *c == NodeRef::None)
                        .expect("Node48 grows before filling");
                    index[byte as usize] = free as u8;
                    self.count += 1;
                }
                let at = index[byte as usize] as usize;
                children[at] = child;
                at
            }
            Slots::Direct(children) => {
                self.count += u16::from(children[byte as usize] == NodeRef::None);
                children[byte as usize] = child;
                byte as usize
            }
        }
    }

    /// Drop the child for `byte`, if there is one.
    fn take(&mut self, byte: u8) {
        let Some((at, _)) = self.slot(byte) else {
            return;
        };
        let len = self.count as usize;
        match &mut self.slots {
            Slots::Sorted { keys, children } => {
                keys.copy_within(at + 1..len, at);
                children.copy_within(at + 1..len, at);
                children[len - 1] = NodeRef::None;
            }
            Slots::Indexed { index, children } => {
                index[byte as usize] = IDX48_EMPTY;
                children[at] = NodeRef::None;
            }
            Slots::Direct(children) => children[at] = NodeRef::None,
        }
        self.count -= 1;
    }

    /// The children whose byte lies in `[lo, hi]`, in byte order.
    fn ordered(&self, lo: u8, hi: u8) -> impl Iterator<Item = (u8, NodeRef)> + '_ {
        // Sorted nodes walk their live entries, the others the byte window.
        let span = match self.slots {
            Slots::Sorted { .. } => 0..self.count as usize,
            _ => lo as usize..hi as usize + 1,
        };
        span.filter_map(move |i| {
            let (byte, child) = match &self.slots {
                Slots::Sorted { keys, children } => (keys[i], children[i]),
                Slots::Indexed { index, children } => match index[i] {
                    IDX48_EMPTY => return None,
                    s => (i as u8, children[s as usize]),
                },
                Slots::Direct(children) => (i as u8, children[i]),
            };
            (child != NodeRef::None && (lo..=hi).contains(&byte)).then_some((byte, child))
        })
    }
}

/// The adaptive radix tree. See the module docs.
pub struct Art {
    root: NodeRef,
    inners: Vec<Inner>,
    leaves: Vec<Leaf>,
    len: u64,
    bytes: u64,
}

impl Art {
    /// Create an empty tree.
    pub fn new(_mem: &Mem) -> Self {
        Art {
            root: NodeRef::None,
            inners: Vec::new(),
            leaves: Vec::new(),
            len: 0,
            bytes: 0,
        }
    }

    fn new_leaf(&mut self, mem: &Mem, key: u64, payload: u64) -> NodeRef {
        let addr = mem.alloc(LEAF_BYTES, 8);
        mem.write(addr, 16);
        self.leaves.push(Leaf { key, payload, addr });
        self.bytes += LEAF_BYTES;
        NodeRef::Leaf((self.leaves.len() - 1) as u32)
    }

    fn new_node4(&mut self, mem: &Mem, prefix: &[u8]) -> u32 {
        let bytes = Kind::N4.simulated_bytes();
        let addr = mem.alloc(bytes, 64);
        mem.write(addr, 32);
        self.bytes += bytes;
        self.inners.push(Inner::new(Kind::N4, prefix, addr));
        (self.inners.len() - 1) as u32
    }

    /// Touch + account an inner-node visit; returns the child for `byte`.
    fn find_child(&self, mem: &Mem, id: u32, byte: u8) -> NodeRef {
        let n = &self.inners[id as usize];
        mem.exec(n.kind.visit_instr());
        mem.read(n.addr, 16); // header: prefix + counts
        let found = n.slot(byte);
        let at = found.map(|(at, _)| at as u64);
        match n.kind {
            // Keys and children share the header's line.
            Kind::N4 => {}
            Kind::N16 => {
                // One extra line: the key vector + child pointers.
                mem.read(n.addr + 16, 16);
                if let Some(at) = at {
                    mem.read(n.addr + 32 + at * 8, 8);
                }
            }
            Kind::N48 => {
                mem.read(n.addr + 16 + u64::from(byte), 1); // index byte
                if let Some(at) = at {
                    mem.read(n.addr + 272 + at * 8, 8);
                }
            }
            Kind::N256 => mem.read(n.addr + 16 + u64::from(byte) * 8, 8),
        }
        found.map_or(NodeRef::None, |(_, child)| child)
    }

    /// Add a child for a byte the node does not hold yet, growing the
    /// layout first if it is full (the arena index stays, the simulated
    /// address moves).
    fn add_child(&mut self, mem: &Mem, id: u32, byte: u8, child: NodeRef) {
        let n = &self.inners[id as usize];
        if n.count == n.kind.cap() {
            self.relayout(mem, id, n.kind.larger());
        }
        let n = &mut self.inners[id as usize];
        mem.exec(12);
        mem.write(n.addr, 16);
        let at = n.put(byte, child) as u64;
        match n.kind {
            Kind::N4 => {}
            Kind::N16 => mem.write(n.addr + 16, 24),
            Kind::N48 => {
                mem.write(n.addr + 16 + u64::from(byte), 1);
                mem.write(n.addr + 272 + at * 8, 8);
            }
            Kind::N256 => mem.write(n.addr + 16 + u64::from(byte) * 8, 8),
        }
    }

    /// Move node `id` into layout `to` at a new simulated address. The
    /// children are re-put in byte order, so a Node48 built here holds its
    /// i-th child in slot i whether it grew or shrank into that layout.
    fn relayout(&mut self, mem: &Mem, id: u32, to: Kind) {
        let n = &mut self.inners[id as usize];
        let (old, new) = (n.kind.simulated_bytes(), to.simulated_bytes());
        let mut moved = Inner::new(to, n.prefix(), mem.alloc(new, 64));
        for (byte, child) in n.ordered(0, 255) {
            moved.put(byte, child);
        }
        let count = u64::from(n.count);
        if to.cap() > n.kind.cap() {
            mem.exec(40 + 4 * count);
            mem.read(n.addr, old.min(512) as u32);
            mem.write(moved.addr, new.min(512) as u32);
        } else {
            mem.exec(30 + 3 * count);
            mem.read(n.addr, 128);
            mem.write(moved.addr, new.min(256) as u32);
        }
        *n = moved;
        self.bytes += new;
    }

    /// Replace the child hanging off `parent` (`None`: the root).
    fn splice(&mut self, parent: Option<(u32, u8)>, new_child: NodeRef, mem: &Mem) {
        match parent {
            None => self.root = new_child,
            Some((id, byte)) => {
                let n = &mut self.inners[id as usize];
                debug_assert!(n.slot(byte).is_some(), "parent lost child during splice");
                mem.write(n.addr, 16);
                n.put(byte, new_child);
            }
        }
    }

    /// Remove the child for `byte` and adapt the node back down when its
    /// occupancy allows (the "adaptive" in ART goes both ways).
    fn remove_child(&mut self, mem: &Mem, id: u32, byte: u8) {
        let n = &mut self.inners[id as usize];
        mem.exec(14);
        mem.write(n.addr, 16);
        n.take(byte);
        if let Some((to, _)) = n.kind.smaller().filter(|&(_, at)| n.count <= at) {
            self.relayout(mem, id, to);
        }
    }

    fn first_child(&self, id: u32) -> NodeRef {
        let mut children = self.inners[id as usize].ordered(0, 255);
        children.next().map_or(NodeRef::None, |(_, child)| child)
    }

    /// The one read-side descent: follow `key`'s bytes from the root to the
    /// leaf they lead to. Leaves are lazy, so it may hold another key — the
    /// caller probes it. Also returns the link the leaf hangs off (`None`:
    /// it is the root).
    fn locate(&self, mem: &Mem, key: u64) -> Option<(u32, Option<(u32, u8)>)> {
        let kb = key.to_be_bytes();
        let (mut node, mut parent, mut depth) = (self.root, None, 0usize);
        loop {
            match node {
                NodeRef::None => return None,
                NodeRef::Leaf(l) => return Some((l, parent)),
                NodeRef::Inner(id) => {
                    let n = &self.inners[id as usize];
                    if n.prefix_match(&kb, depth) < n.prefix().len() {
                        return None;
                    }
                    depth += n.prefix().len();
                    node = self.find_child(mem, id, kb[depth]);
                    parent = Some((id, kb[depth]));
                    depth += 1;
                }
            }
        }
    }

    /// Read leaf `l`; its payload if it holds `key`.
    fn probe_leaf(&self, mem: &Mem, l: u32, key: u64) -> Option<u64> {
        let leaf = &self.leaves[l as usize];
        mem.read(leaf.addr, 16);
        (leaf.key == key).then_some(leaf.payload)
    }

    /// Put a fresh Node4 carrying `prefix` where `old` hangs off `parent`,
    /// holding `old` and a new leaf for `key`.
    fn fork(
        &mut self,
        mem: &Mem,
        parent: Option<(u32, u8)>,
        prefix: &[u8],
        old: (u8, NodeRef),
        new: (u8, u64, u64),
    ) {
        let n4 = self.new_node4(mem, prefix);
        let (new_byte, key, payload) = new;
        let new_leaf = self.new_leaf(mem, key, payload);
        self.add_child(mem, n4, old.0, old.1);
        self.add_child(mem, n4, new_byte, new_leaf);
        self.splice(parent, NodeRef::Inner(n4), mem);
    }

    /// Ordered DFS below `node`, whose path spells the first `depth` key
    /// bytes; returns false once the visitor stops. A bound is `Some` while
    /// that path equals the bound's own first `depth` bytes — only then can
    /// it still cut into this subtree.
    fn scan_rec(
        &self,
        mem: &Mem,
        node: NodeRef,
        depth: usize,
        lo: Option<&[u8; 8]>,
        hi: Option<&[u8; 8]>,
        f: &mut dyn FnMut(u64, u64) -> bool,
    ) -> bool {
        match node {
            NodeRef::None => true,
            NodeRef::Leaf(l) => {
                let leaf = &self.leaves[l as usize];
                mem.exec(8);
                mem.read(leaf.addr, 16);
                // Leaves are lazy: the path vouches for `depth` bytes only.
                let kb = leaf.key.to_be_bytes();
                let inside = lo.is_none_or(|lo| kb >= *lo) && hi.is_none_or(|hi| kb <= *hi);
                !inside || f(leaf.key, leaf.payload)
            }
            NodeRef::Inner(id) => {
                let n = &self.inners[id as usize];
                mem.exec(n.kind.visit_instr());
                mem.read(n.addr, 16);
                // The compressed path against each bound still in force:
                // it leaves the range, clears the bound, or keeps it.
                let end = depth + n.prefix().len();
                let lo_ord = lo.map(|b| n.prefix().cmp(&b[depth..end]));
                let hi_ord = hi.map(|b| n.prefix().cmp(&b[depth..end]));
                if lo_ord == Some(Ordering::Less) || hi_ord == Some(Ordering::Greater) {
                    return true;
                }
                let lo = lo.filter(|_| lo_ord == Some(Ordering::Equal));
                let hi = hi.filter(|_| hi_ord == Some(Ordering::Equal));
                match n.kind {
                    Kind::N4 => {}
                    Kind::N16 => mem.read(n.addr + 16, 16),
                    Kind::N48 => mem.read(n.addr + 16, 64),
                    Kind::N256 => mem.read(n.addr + 16, 128),
                }
                // Only the children the bounds' next byte still allows; a
                // child strictly inside the window is free of both bounds.
                let (lo_byte, hi_byte) = (lo.map_or(0, |b| b[end]), hi.map_or(255, |b| b[end]));
                n.ordered(lo_byte, hi_byte).all(|(byte, child)| {
                    let lo = lo.filter(|_| byte == lo_byte);
                    let hi = hi.filter(|_| byte == hi_byte);
                    self.scan_rec(mem, child, end + 1, lo, hi, f)
                })
            }
        }
    }
}

impl Index for Art {
    fn kind(&self) -> IndexKind {
        IndexKind::Art
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn get(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        mem.exec(10);
        let (l, _) = self.locate(mem, key)?;
        mem.exec(8);
        self.probe_leaf(mem, l, key)
    }

    fn insert(&mut self, mem: &Mem, key: u64, payload: u64) -> bool {
        let kb = key.to_be_bytes();
        mem.exec(14);
        // Descend, remembering the parent link so a new node can be
        // spliced in.
        let (mut node, mut parent, mut depth) = (self.root, None, 0usize);
        loop {
            match node {
                NodeRef::None => {
                    self.root = self.new_leaf(mem, key, payload);
                    break;
                }
                NodeRef::Leaf(l) => {
                    let (old_key, leaf_addr) = {
                        let leaf = &self.leaves[l as usize];
                        (leaf.key, leaf.addr)
                    };
                    mem.exec(10);
                    mem.read(leaf_addr, 16);
                    if old_key == key {
                        return false; // duplicate
                    }
                    // Split: a Node4 carrying what both keys share from here.
                    let ob = old_key.to_be_bytes();
                    let common = (depth..8).take_while(|&i| ob[i] == kb[i]).count();
                    let at = depth + common;
                    debug_assert!(at < 8, "distinct keys must diverge");
                    let new = (kb[at], key, payload);
                    self.fork(mem, parent, &kb[depth..at], (ob[at], node), new);
                    break;
                }
                NodeRef::Inner(id) => {
                    let n = &mut self.inners[id as usize];
                    let m = n.prefix_match(&kb, depth);
                    let len = n.prefix().len();
                    if m < len {
                        // The key leaves the compressed path after `m`
                        // bytes: the node keeps the rest of its prefix
                        // below a Node4 that carries the shared part.
                        let old_byte = n.prefix[m];
                        n.prefix.copy_within(m + 1..len, 0);
                        n.prefix_len = (len - m - 1) as u8;
                        let new = (kb[depth + m], key, payload);
                        self.fork(mem, parent, &kb[depth..depth + m], (old_byte, node), new);
                        break;
                    }
                    depth += m;
                    let byte = kb[depth];
                    let child = self.find_child(mem, id, byte);
                    if child == NodeRef::None {
                        let new_leaf = self.new_leaf(mem, key, payload);
                        self.add_child(mem, id, byte, new_leaf);
                        break;
                    }
                    parent = Some((id, byte));
                    node = child;
                    depth += 1;
                }
            }
        }
        self.len += 1;
        true
    }

    fn remove(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        mem.exec(14);
        let (l, parent) = self.locate(mem, key)?;
        let payload = self.probe_leaf(mem, l, key)?;
        match parent {
            None => self.root = NodeRef::None,
            Some((id, byte)) => self.remove_child(mem, id, byte),
        }
        self.len -= 1;
        Some(payload)
    }

    fn replace(&mut self, mem: &Mem, key: u64, payload: u64) -> Option<u64> {
        mem.exec(10);
        let (l, _) = self.locate(mem, key)?;
        let old = self.probe_leaf(mem, l, key)?;
        let leaf = &mut self.leaves[l as usize];
        leaf.payload = payload;
        mem.write(leaf.addr + 8, 8);
        Some(old)
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
        let mut visited = 0u64;
        let mut counted = |key, payload| {
            visited += 1;
            f(key, payload)
        };
        let (lo, hi) = (lo.to_be_bytes(), hi.to_be_bytes());
        self.scan_rec(mem, self.root, 0, Some(&lo), Some(&hi), &mut counted);
        Some(visited)
    }

    fn supports_range(&self) -> bool {
        true
    }

    fn stats(&self) -> IndexStats {
        // Height: walk the leftmost path.
        let mut h = 0u32;
        let mut node = self.root;
        loop {
            match node {
                NodeRef::None => break,
                NodeRef::Leaf(_) => {
                    h += 1;
                    break;
                }
                NodeRef::Inner(id) => {
                    h += 1;
                    node = self.first_child(id);
                }
            }
        }
        IndexStats {
            entries: self.len,
            nodes: (self.inners.len() + self.leaves.len()) as u64,
            height: h,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mem;

    #[test]
    fn insert_get_dense_keys() {
        let mem = mem();
        let mut t = Art::new(&mem);
        for k in 0..50_000u64 {
            assert!(t.insert(&mem, k, k + 1));
        }
        assert_eq!(t.len(), 50_000);
        for k in 0..50_000u64 {
            assert_eq!(t.get(&mem, k), Some(k + 1), "key {k}");
        }
        assert_eq!(t.get(&mem, 50_000), None);
    }

    #[test]
    fn insert_get_sparse_keys() {
        let mem = mem();
        let mut t = Art::new(&mem);
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(t.insert(&mem, k, i as u64), "key {k:#x}");
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(&mem, k), Some(i as u64), "key {k:#x}");
        }
        assert_eq!(t.get(&mem, 1), None);
    }

    #[test]
    fn duplicate_rejected() {
        let mem = mem();
        let mut t = Art::new(&mem);
        assert!(t.insert(&mem, 7, 1));
        assert!(!t.insert(&mem, 7, 2));
        assert_eq!(t.get(&mem, 7), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_and_reinsert() {
        let mem = mem();
        let mut t = Art::new(&mem);
        for k in 0..1000u64 {
            t.insert(&mem, k * 3, k);
        }
        for k in 0..1000u64 {
            assert_eq!(t.remove(&mem, k * 3), Some(k));
            assert_eq!(t.get(&mem, k * 3), None);
        }
        assert_eq!(t.len(), 0);
        for k in 0..1000u64 {
            assert!(t.insert(&mem, k * 3, k + 7));
            assert_eq!(t.get(&mem, k * 3), Some(k + 7));
        }
    }

    #[test]
    fn replace_payload() {
        let mem = mem();
        let mut t = Art::new(&mem);
        t.insert(&mem, 11, 1);
        assert_eq!(t.replace(&mem, 11, 2), Some(1));
        assert_eq!(t.get(&mem, 11), Some(2));
        assert_eq!(t.replace(&mem, 12, 2), None);
    }

    #[test]
    fn ordered_scan() {
        let mem = mem();
        let mut t = Art::new(&mem);
        let keys: Vec<u64> = (0..4000u64).map(|i| i * 17 + (i % 3)).collect();
        for &k in keys.iter().rev() {
            t.insert(&mem, k, k);
        }
        let mut seen = Vec::new();
        let n = t
            .scan(&mem, 100, 5000, &mut |k, v| {
                assert_eq!(k, v);
                seen.push(k);
                true
            })
            .unwrap();
        let expected: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| (100..=5000).contains(&k))
            .collect();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort_unstable();
        assert_eq!(seen, expected_sorted);
        assert_eq!(n, expected.len() as u64);
    }

    #[test]
    fn scan_early_stop() {
        let mem = mem();
        let mut t = Art::new(&mem);
        for k in 0..100u64 {
            t.insert(&mem, k, k);
        }
        let mut count = 0;
        t.scan(&mem, 0, 99, &mut |_, _| {
            count += 1;
            count < 5
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn prefix_compression_keeps_dense_tree_shallow() {
        let mem = mem();
        let mut t = Art::new(&mem);
        for k in 0..1_000_000u64 {
            t.insert(&mem, k, k);
        }
        let s = t.stats();
        // Dense 0..1M keys use only the low 3 bytes: height <= 4.
        assert!(s.height <= 4, "height={}", s.height);
        assert_eq!(s.entries, 1_000_000);
    }

    #[test]
    fn nodes_shrink_back_down_after_removals() {
        let mem = mem();
        let mut t = Art::new(&mem);
        // Fill one node through Node256, then drain it back down.
        for k in 0..300u64 {
            t.insert(&mem, k, k);
        }
        assert!(t.inners.iter().any(|n| n.kind == Kind::N256));
        for k in 4..300u64 {
            assert_eq!(t.remove(&mem, k), Some(k));
        }
        // Remaining keys still reachable and the fat node adapted down.
        for k in 0..4u64 {
            assert_eq!(t.get(&mem, k), Some(k));
        }
        assert!(
            !t.inners.iter().any(|n| n.count > 0 && n.kind == Kind::N256),
            "Node256 should have shrunk"
        );
        // Scans stay ordered after shrinking.
        let mut seen = Vec::new();
        t.scan(&mem, 0, 10, &mut |k, _| {
            seen.push(k);
            true
        });
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn node_growth_through_all_variants() {
        let mem = mem();
        let mut t = Art::new(&mem);
        // 300 keys differing in the last byte + second-to-last byte force
        // Node4 -> Node16 -> Node48 -> Node256 growth at one node.
        for k in 0..300u64 {
            t.insert(&mem, k, k);
        }
        for k in 0..300u64 {
            assert_eq!(t.get(&mem, k), Some(k));
        }
        // At least one Node256 must exist now.
        assert!(t.inners.iter().any(|n| n.kind == Kind::N256));
    }
}
