//! A from-scratch B+-tree with linked leaves.
//!
//! This is the *traditional* baseline of the benchmark: the structure the
//! learned-index papers (\[8], \[33]–\[35]) compare against. It supports bulk
//! loading, point lookups, range scans over a linked leaf chain, inserts
//! with node splits, and deletes with borrow/merge rebalancing.
//!
//! Nodes live in an arena (`Vec<Node>`) with an internal free list, so the
//! implementation is entirely safe Rust with index-based links.

use crate::{check_sorted, BulkLoad, Index, IndexStats, Result};

/// Default maximum keys per node.
const DEFAULT_FANOUT: usize = 64;

/// Fill factor used during bulk load (leaves are left with head-room).
const BULK_FILL: f64 = 0.9;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// Separator keys; `children[i]` holds keys `< keys[i]`,
        /// `children[keys.len()]` holds the rest. Separators equal the first
        /// key of the right subtree, so routing uses `partition_point(k <= key)`.
        keys: Vec<u64>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u64>,
        values: Vec<u64>,
        /// Next leaf in key order, for range scans.
        next: Option<usize>,
    },
    /// Arena slot on the free list.
    Free,
}

/// Splits `m` items into balanced chunks of roughly `pref` items, with every
/// chunk at least `min_size` items when `m >= 2 * min_size` (otherwise one
/// chunk holds everything).
fn chunk_sizes(m: usize, pref: usize, min_size: usize) -> Vec<usize> {
    if m == 0 {
        return Vec::new();
    }
    let by_pref = m.div_ceil(pref);
    let by_min = (m / min_size).max(1);
    let k = by_pref.min(by_min).max(1);
    let base = m / k;
    let rem = m % k;
    (0..k).map(|i| base + usize::from(i < rem)).collect()
}

/// B+-tree index over `u64` keys and values.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    /// Maximum keys per node; splits occur beyond this.
    cap: usize,
    /// Work units spent on structural modifications (node writes).
    work: u64,
}

impl BPlusTree {
    /// Creates an empty tree with the default fanout.
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// Creates an empty tree with `fanout` max keys per node (min 4).
    pub fn with_fanout(fanout: usize) -> Self {
        let cap = fanout.max(4);
        let nodes = vec![Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: None,
        }];
        BPlusTree {
            nodes,
            free: Vec::new(),
            root: 0,
            len: 0,
            cap,
            work: 1,
        }
    }

    fn min_keys(&self) -> usize {
        self.cap / 2
    }

    fn alloc(&mut self, node: Node) -> usize {
        self.work += 1;
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, idx: usize) {
        self.nodes[idx] = Node::Free;
        self.free.push(idx);
    }

    /// Descends to the leaf that should contain `key`.
    fn find_leaf(&self, key: u64) -> usize {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    cur = children[idx];
                    // Start pulling the child node header while the loop
                    // bookkeeping retires; the next iteration's match needs
                    // it immediately.
                    // SAFETY: `cur` is a live child index, so it is within
                    // the arena (`cur < self.nodes.len()`).
                    crate::prefetch_read(unsafe { self.nodes.as_ptr().add(cur) });
                }
                Node::Leaf { .. } => return cur,
                Node::Free => unreachable!("descended into freed node"),
            }
        }
    }

    /// Recursive insert; returns `(promoted_separator, new_right_node)` when
    /// the child split, plus the previous value on overwrite.
    fn insert_rec(
        &mut self,
        node: usize,
        key: u64,
        value: u64,
    ) -> (Option<(u64, usize)>, Option<u64>) {
        match &mut self.nodes[node] {
            Node::Leaf { keys, values, .. } => {
                match keys.binary_search(&key) {
                    Ok(pos) => {
                        let old = std::mem::replace(&mut values[pos], value);
                        return (None, Some(old));
                    }
                    Err(pos) => {
                        keys.insert(pos, key);
                        values.insert(pos, value);
                        self.len += 1;
                    }
                }
                if self.node_len(node) > self.cap {
                    (Some(self.split_leaf(node)), None)
                } else {
                    (None, None)
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let (split, old) = self.insert_rec(child, key, value);
                if let Some((sep, right)) = split {
                    if let Node::Internal { keys, children } = &mut self.nodes[node] {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                    }
                    if self.node_len(node) > self.cap {
                        return (Some(self.split_internal(node)), old);
                    }
                }
                (None, old)
            }
            Node::Free => unreachable!("insert into freed node"),
        }
    }

    fn node_len(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
            Node::Free => 0,
        }
    }

    fn split_leaf(&mut self, node: usize) -> (u64, usize) {
        let (right_keys, right_values, old_next) = match &mut self.nodes[node] {
            Node::Leaf { keys, values, next } => {
                let mid = keys.len() / 2;
                (keys.split_off(mid), values.split_off(mid), *next)
            }
            _ => unreachable!("split_leaf on non-leaf"),
        };
        let sep = right_keys[0];
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            values: right_values,
            next: old_next,
        });
        if let Node::Leaf { next, .. } = &mut self.nodes[node] {
            *next = Some(right);
        }
        (sep, right)
    }

    fn split_internal(&mut self, node: usize) -> (u64, usize) {
        let (sep, right_keys, right_children) = match &mut self.nodes[node] {
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("mid < len");
                let right_children = children.split_off(mid + 1);
                (sep, right_keys, right_children)
            }
            _ => unreachable!("split_internal on non-internal"),
        };
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    /// Recursive delete; after the call the caller rebalances `node`'s child.
    fn delete_rec(&mut self, node: usize, key: u64) -> Option<u64> {
        match &mut self.nodes[node] {
            Node::Leaf { keys, values, .. } => match keys.binary_search(&key) {
                Ok(pos) => {
                    keys.remove(pos);
                    let v = values.remove(pos);
                    self.len -= 1;
                    Some(v)
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let removed = self.delete_rec(child, key);
                if removed.is_some() {
                    self.rebalance_child(node, idx);
                }
                removed
            }
            Node::Free => unreachable!("delete from freed node"),
        }
    }

    /// Fixes an underflowing child of `parent` at child position `idx` by
    /// borrowing from a sibling or merging.
    fn rebalance_child(&mut self, parent: usize, idx: usize) {
        let child = match &self.nodes[parent] {
            Node::Internal { children, .. } => children[idx],
            _ => unreachable!("rebalance_child on non-internal parent"),
        };
        if self.node_len(child) >= self.min_keys() {
            return;
        }
        let sibling_count = match &self.nodes[parent] {
            Node::Internal { children, .. } => children.len(),
            _ => unreachable!(),
        };
        // Prefer borrowing from the right sibling, then the left; merge
        // whichever direction is available otherwise.
        if idx + 1 < sibling_count {
            let right = self.child_at(parent, idx + 1);
            if self.node_len(right) > self.min_keys() {
                self.borrow_from_right(parent, idx);
                return;
            }
        }
        if idx > 0 {
            let left = self.child_at(parent, idx - 1);
            if self.node_len(left) > self.min_keys() {
                self.borrow_from_left(parent, idx);
                return;
            }
        }
        if idx + 1 < sibling_count {
            self.merge_children(parent, idx);
        } else if idx > 0 {
            self.merge_children(parent, idx - 1);
        }
    }

    fn child_at(&self, parent: usize, idx: usize) -> usize {
        match &self.nodes[parent] {
            Node::Internal { children, .. } => children[idx],
            _ => unreachable!("child_at on non-internal"),
        }
    }

    fn parent_key(&self, parent: usize, key_idx: usize) -> u64 {
        match &self.nodes[parent] {
            Node::Internal { keys, .. } => keys[key_idx],
            _ => unreachable!(),
        }
    }

    fn set_parent_key(&mut self, parent: usize, key_idx: usize, key: u64) {
        if let Node::Internal { keys, .. } = &mut self.nodes[parent] {
            keys[key_idx] = key;
        }
    }

    fn borrow_from_right(&mut self, parent: usize, idx: usize) {
        self.work += 1;
        let left = self.child_at(parent, idx);
        let right = self.child_at(parent, idx + 1);
        match (left, right) {
            _ if matches!(self.nodes[left], Node::Leaf { .. }) => {
                // Move the right leaf's first entry to the left leaf.
                let (k, v) = match &mut self.nodes[right] {
                    Node::Leaf { keys, values, .. } => (keys.remove(0), values.remove(0)),
                    _ => unreachable!(),
                };
                if let Node::Leaf { keys, values, .. } = &mut self.nodes[left] {
                    keys.push(k);
                    values.push(v);
                }
                let new_sep = match &self.nodes[right] {
                    Node::Leaf { keys, .. } => keys[0],
                    _ => unreachable!(),
                };
                self.set_parent_key(parent, idx, new_sep);
            }
            _ => {
                // Internal: rotate through the parent separator.
                let sep = self.parent_key(parent, idx);
                let (k, c) = match &mut self.nodes[right] {
                    Node::Internal { keys, children } => (keys.remove(0), children.remove(0)),
                    _ => unreachable!(),
                };
                if let Node::Internal { keys, children } = &mut self.nodes[left] {
                    keys.push(sep);
                    children.push(c);
                }
                self.set_parent_key(parent, idx, k);
            }
        }
    }

    fn borrow_from_left(&mut self, parent: usize, idx: usize) {
        self.work += 1;
        let left = self.child_at(parent, idx - 1);
        let right = self.child_at(parent, idx);
        match left {
            _ if matches!(self.nodes[left], Node::Leaf { .. }) => {
                let (k, v) = match &mut self.nodes[left] {
                    Node::Leaf { keys, values, .. } => (
                        keys.pop().expect("donor non-empty"),
                        values.pop().expect("donor non-empty"),
                    ),
                    _ => unreachable!(),
                };
                if let Node::Leaf { keys, values, .. } = &mut self.nodes[right] {
                    keys.insert(0, k);
                    values.insert(0, v);
                }
                self.set_parent_key(parent, idx - 1, k);
            }
            _ => {
                let sep = self.parent_key(parent, idx - 1);
                let (k, c) = match &mut self.nodes[left] {
                    Node::Internal { keys, children } => (
                        keys.pop().expect("donor non-empty"),
                        children.pop().expect("donor non-empty"),
                    ),
                    _ => unreachable!(),
                };
                if let Node::Internal { keys, children } = &mut self.nodes[right] {
                    keys.insert(0, sep);
                    children.insert(0, c);
                }
                self.set_parent_key(parent, idx - 1, k);
            }
        }
    }

    /// Merges child `idx + 1` into child `idx` of `parent`.
    fn merge_children(&mut self, parent: usize, idx: usize) {
        self.work += 1;
        let left = self.child_at(parent, idx);
        let right = self.child_at(parent, idx + 1);
        let sep = self.parent_key(parent, idx);
        // Take the right node's contents.
        let right_node = std::mem::replace(&mut self.nodes[right], Node::Free);
        match right_node {
            Node::Leaf {
                mut keys,
                mut values,
                next,
            } => {
                if let Node::Leaf {
                    keys: lk,
                    values: lv,
                    next: ln,
                } = &mut self.nodes[left]
                {
                    lk.append(&mut keys);
                    lv.append(&mut values);
                    *ln = next;
                }
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                if let Node::Internal {
                    keys: lk,
                    children: lc,
                } = &mut self.nodes[left]
                {
                    lk.push(sep);
                    lk.append(&mut keys);
                    lc.append(&mut children);
                }
            }
            Node::Free => unreachable!("merging freed node"),
        }
        self.free.push(right);
        if let Node::Internal { keys, children } = &mut self.nodes[parent] {
            keys.remove(idx);
            children.remove(idx + 1);
        }
    }

    /// Tree height (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while let Node::Internal { children, .. } = &self.nodes[cur] {
            cur = children[0];
            h += 1;
        }
        h
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let mut leaf_keys = Vec::new();
        self.check_node(self.root, None, None, &mut leaf_keys, true);
        for w in leaf_keys.windows(2) {
            assert!(w[0] < w[1], "leaf keys not strictly ascending");
        }
        assert_eq!(leaf_keys.len(), self.len, "len mismatch");
        // Leaf chain visits exactly the same keys in order.
        let mut cur = self.root;
        while let Node::Internal { children, .. } = &self.nodes[cur] {
            cur = children[0];
        }
        let mut chain_keys = Vec::new();
        let mut leaf = Some(cur);
        while let Some(l) = leaf {
            match &self.nodes[l] {
                Node::Leaf { keys, next, .. } => {
                    chain_keys.extend_from_slice(keys);
                    leaf = *next;
                }
                _ => panic!("leaf chain hit non-leaf"),
            }
        }
        assert_eq!(chain_keys, leaf_keys, "leaf chain disagrees with tree");
    }

    #[cfg(test)]
    fn check_node(
        &self,
        node: usize,
        lo: Option<u64>,
        hi: Option<u64>,
        leaf_keys: &mut Vec<u64>,
        is_root: bool,
    ) {
        match &self.nodes[node] {
            Node::Leaf { keys, .. } => {
                if !is_root {
                    assert!(
                        keys.len() >= self.min_keys(),
                        "leaf underflow: {} < {}",
                        keys.len(),
                        self.min_keys()
                    );
                }
                assert!(keys.len() <= self.cap + 1, "leaf overflow");
                for &k in keys {
                    if let Some(lo) = lo {
                        assert!(k >= lo, "key {k} below bound {lo}");
                    }
                    if let Some(hi) = hi {
                        assert!(k < hi, "key {k} above bound {hi}");
                    }
                }
                leaf_keys.extend_from_slice(keys);
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1);
                if !is_root {
                    assert!(keys.len() >= self.min_keys(), "internal underflow");
                }
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.check_node(child, clo, chi, leaf_keys, false);
                }
            }
            Node::Free => panic!("reachable free node"),
        }
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BulkLoad for BPlusTree {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        check_sorted(pairs)?;
        let mut tree = BPlusTree::new();
        if pairs.is_empty() {
            return Ok(tree);
        }
        tree.nodes.clear();
        tree.free.clear();
        let per_leaf = ((tree.cap as f64 * BULK_FILL) as usize).max(tree.min_keys().max(1));
        // Build leaves left to right using balanced chunk sizes so no leaf
        // ever underflows (chunk_sizes guarantees every chunk is >= min_keys
        // unless the whole input fits in one node).
        let mut level: Vec<(u64, usize)> = Vec::new(); // (first key, node)
        let mut i = 0;
        for size in chunk_sizes(pairs.len(), per_leaf, tree.min_keys().max(1)) {
            let end = i + size;
            let node = tree.alloc(Node::Leaf {
                keys: pairs[i..end].iter().map(|p| p.0).collect(),
                values: pairs[i..end].iter().map(|p| p.1).collect(),
                next: None,
            });
            level.push((pairs[i].0, node));
            i = end;
        }
        // Wire the leaf chain.
        for w in 0..level.len().saturating_sub(1) {
            let next = level[w + 1].1;
            if let Node::Leaf { next: n, .. } = &mut tree.nodes[level[w].1] {
                *n = Some(next);
            }
        }
        // Build internal levels until a single root remains. Internal nodes
        // need between min_keys + 1 and cap + 1 children.
        let per_node = per_leaf.max(2);
        while level.len() > 1 {
            let mut upper = Vec::new();
            let mut j = 0;
            for size in chunk_sizes(level.len(), per_node + 1, tree.min_keys() + 1) {
                let group = &level[j..j + size];
                let keys: Vec<u64> = group[1..].iter().map(|&(k, _)| k).collect();
                let children: Vec<usize> = group.iter().map(|&(_, n)| n).collect();
                let node = tree.alloc(Node::Internal { keys, children });
                upper.push((group[0].0, node));
                j += size;
            }
            level = upper;
        }
        tree.root = level[0].1;
        tree.len = pairs.len();
        Ok(tree)
    }
}

impl Index for BPlusTree {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn get(&self, key: u64) -> Option<u64> {
        let leaf = self.find_leaf(key);
        match &self.nodes[leaf] {
            Node::Leaf { keys, values, .. } => keys.binary_search(&key).ok().map(|idx| values[idx]),
            _ => unreachable!("find_leaf returned non-leaf"),
        }
    }

    fn range_into(&self, start: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> Result<()> {
        let mut left = limit;
        let mut leaf = Some(self.find_leaf(start));
        while let Some(l) = leaf.filter(|_| left > 0) {
            match &self.nodes[l] {
                Node::Leaf { keys, values, next } => {
                    let from = keys.partition_point(|&k| k < start);
                    let to = from + (keys.len() - from).min(left);
                    out.extend(
                        keys[from..to]
                            .iter()
                            .copied()
                            .zip(values[from..to].iter().copied()),
                    );
                    left -= to - from;
                    leaf = *next;
                }
                _ => unreachable!("leaf chain hit non-leaf"),
            }
        }
        Ok(())
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        let root = self.root;
        let (split, old) = self.insert_rec(root, key, value);
        if let Some((sep, right)) = split {
            let new_root = self.alloc(Node::Internal {
                keys: vec![sep],
                children: vec![root, right],
            });
            self.root = new_root;
        }
        Ok(old)
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        let root = self.root;
        let removed = self.delete_rec(root, key);
        // Collapse a root with a single child.
        if let Node::Internal { children, .. } = &self.nodes[self.root] {
            if children.len() == 1 {
                let only = children[0];
                let old_root = self.root;
                self.root = only;
                self.release(old_root);
            }
        }
        Ok(removed)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn build_work(&self) -> u64 {
        self.work
    }

    fn stats(&self) -> IndexStats {
        let mut bytes = 0usize;
        for n in &self.nodes {
            bytes += match n {
                Node::Internal { keys, children } => keys.len() * 8 + children.len() * 8 + 48,
                Node::Leaf { keys, values, .. } => keys.len() * 8 + values.len() * 8 + 56,
                Node::Free => 8,
            };
        }
        IndexStats {
            size_bytes: bytes,
            build_work: self.build_work(),
            model_count: 0,
        }
    }

    fn probe_cost(&self, _key: u64) -> u64 {
        // One node binary search per level.
        self.height() as u64 * crate::bsearch_cost(self.cap as u64)
    }

    /// Level-synchronous group descent: all probes in a group walk the
    /// tree one level per round, prefetching each probe's next node before
    /// any of them is searched. A lone [`Index::get`] must serialize its
    /// cache misses (each node address depends on the previous search);
    /// across a group the probes are independent, so the misses of a whole
    /// round overlap (memory-level parallelism).
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        use crate::search::GROUP;
        out.reserve(keys.len());
        let mut cur = [0usize; GROUP];
        for chunk in keys.chunks(GROUP) {
            let g = chunk.len();
            cur[..g].fill(self.root);
            // Descend all probes in lockstep until every one is at a leaf.
            // Heights are uniform in a B+-tree, so the group stays in step.
            let mut done = false;
            while !done {
                // Pass 1: the separator arrays live in their own heap
                // allocations — start their loads before any search needs
                // them.
                for &c in &cur[..g] {
                    match &self.nodes[c] {
                        Node::Internal { keys, .. } | Node::Leaf { keys, .. } => {
                            crate::prefetch_read(keys.as_ptr());
                        }
                        Node::Free => unreachable!("descended into freed node"),
                    }
                }
                // Pass 2: route each probe one level down.
                done = true;
                for (c, &key) in cur[..g].iter_mut().zip(chunk) {
                    if let Node::Internal { keys, children } = &self.nodes[*c] {
                        let idx = keys.partition_point(|&k| k <= key);
                        *c = children[idx];
                        // SAFETY: `*c` is a live child index within the arena.
                        crate::prefetch_read(unsafe { self.nodes.as_ptr().add(*c) });
                        done = false;
                    }
                }
            }
            for (&c, &key) in cur[..g].iter().zip(chunk) {
                match &self.nodes[c] {
                    Node::Leaf { keys, values, .. } => {
                        out.push(keys.binary_search(&key).ok().map(|idx| values[idx]));
                    }
                    _ => unreachable!("group descent ended off-leaf"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};

    #[test]
    fn bulk_load_conformance() {
        for n in [0, 1, 5, 63, 64, 65, 1000, 5000] {
            let pairs = test_pairs(n);
            let idx = BPlusTree::bulk_load(&pairs).unwrap();
            assert_eq!(idx.len(), pairs.len(), "n = {n}");
            idx.check_invariants();
            check_point_lookups(&idx, &pairs);
            check_ranges(&idx, &pairs);
        }
    }

    #[test]
    fn incremental_insert_conformance() {
        let pairs = test_pairs(2000);
        let mut idx = BPlusTree::with_fanout(8);
        // Insert in a scrambled order.
        let mut scrambled = pairs.clone();
        scrambled.reverse();
        for &(k, v) in &scrambled {
            idx.insert(k, v).unwrap();
        }
        idx.check_invariants();
        check_point_lookups(&idx, &pairs);
        check_ranges(&idx, &pairs);
        assert!(idx.height() > 1);
    }

    #[test]
    fn overwrite_returns_old() {
        let mut idx = BPlusTree::new();
        assert_eq!(idx.insert(1, 10).unwrap(), None);
        assert_eq!(idx.insert(1, 11).unwrap(), Some(10));
        assert_eq!(idx.get(1), Some(11));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn delete_with_rebalancing() {
        let pairs = test_pairs(3000);
        let mut idx = BPlusTree::with_fanout(6);
        for &(k, v) in &pairs {
            idx.insert(k, v).unwrap();
        }
        // Delete every other key.
        for (i, &(k, _)) in pairs.iter().enumerate() {
            if i % 2 == 0 {
                assert!(idx.delete(k).unwrap().is_some(), "missing {k}");
                if i % 64 == 0 {
                    idx.check_invariants();
                }
            }
        }
        idx.check_invariants();
        let remaining: Vec<(u64, u64)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, &p)| p)
            .collect();
        assert_eq!(idx.len(), remaining.len());
        check_point_lookups(&idx, &remaining);
        check_ranges(&idx, &remaining);
    }

    #[test]
    fn delete_everything_collapses() {
        let pairs = test_pairs(500);
        let mut idx = BPlusTree::with_fanout(4);
        for &(k, v) in &pairs {
            idx.insert(k, v).unwrap();
        }
        for &(k, _) in &pairs {
            assert!(idx.delete(k).unwrap().is_some());
        }
        idx.check_invariants();
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.get(pairs[0].0), None);
        // Tree remains usable.
        idx.insert(7, 70).unwrap();
        assert_eq!(idx.get(7), Some(70));
    }

    #[test]
    fn delete_missing_key() {
        let mut idx = BPlusTree::bulk_load(&[(1, 10), (5, 50)]).unwrap();
        assert_eq!(idx.delete(3).unwrap(), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn range_spans_leaves() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 2, k)).collect();
        let idx = BPlusTree::with_fanout(8);
        let mut idx = idx;
        for &(k, v) in &pairs {
            idx.insert(k, v).unwrap();
        }
        let got = idx.range(100, 300).unwrap();
        assert_eq!(got.len(), 300);
        assert_eq!(got[0].0, 100);
        assert_eq!(got[299].0, 100 + 299 * 2);
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        assert!(BPlusTree::bulk_load(&[(2, 0), (1, 0)]).is_err());
    }

    #[test]
    fn mixed_workload_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut idx = BPlusTree::with_fanout(5);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..5000 {
            let key = rng.gen_range(0u64..500);
            match rng.gen_range(0..3u8) {
                0 | 1 => {
                    let v = rng.gen::<u64>();
                    assert_eq!(
                        idx.insert(key, v).unwrap(),
                        model.insert(key, v),
                        "insert {key}"
                    );
                }
                _ => {
                    assert_eq!(idx.delete(key).unwrap(), model.remove(&key), "delete {key}");
                }
            }
        }
        idx.check_invariants();
        assert_eq!(idx.len(), model.len());
        for (&k, &v) in &model {
            assert_eq!(idx.get(k), Some(v));
        }
    }

    #[test]
    fn stats_grow_with_size() {
        let small = BPlusTree::bulk_load(&test_pairs(100)).unwrap();
        let large = BPlusTree::bulk_load(&test_pairs(10_000)).unwrap();
        assert!(large.stats().size_bytes > small.stats().size_bytes);
        assert_eq!(small.stats().model_count, 0);
    }
}
