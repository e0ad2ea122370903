//! An updatable, adaptive learned index in the spirit of ALEX \[33].
//!
//! ALEX ("An updatable adaptive learned index", Ding et al., SIGMOD 2020)
//! keeps data in *gapped arrays*: model-predicted placement leaves gaps so
//! most inserts land in an empty slot near their predicted position. When a
//! leaf grows too dense it **expands and retrains** its model; when it grows
//! too large it **splits**. These structural adaptations are exactly the
//! online-learning behaviour the benchmark's adaptability metrics (Fig. 1b/1c)
//! are designed to expose: a workload shift concentrates inserts in a few
//! leaves, triggering a burst of retraining that temporarily depresses
//! throughput.
//!
//! Simplifications relative to the paper (documented in DESIGN.md): the
//! internal level is a sorted array of leaf boundary keys with binary-search
//! routing (ALEX uses model-based routing internally), and cost-model-driven
//! split policies are replaced by density/size thresholds.
//!
//! **The staged probe.** A lookup chains three dependent loads: the leaf's
//! header (its model and the pointer to its slots), the slot the model
//! predicts, the walk from there to the key. `get` takes them one after
//! another; `get_many` and `probe_many` take them a stage at a time for
//! [`GROUP`] keys — route every key and prefetch its leaf, predict every
//! slot and prefetch its line, then one `locate` per key — so a stage's
//! misses overlap across the group. That one `locate` yields the hit *and*
//! the distance walked, which is the key-dependent part of
//! [`Index::probe_cost`]: a batched read's work units come out of the probe
//! that answered it, and `get` / `probe_cost` stay as the scalar
//! definitions `tests/properties.rs` holds the batch to.
//!
//! **`locate` stays a linear walk.** ALEX's own rule is an exponential
//! search outward from the prediction; it pays when predictions are far
//! off. Here they are not: on the benchmark's `point_reads` workload a read
//! costs 14.4 work units, 12 of them routing and 1 the model, so the walk
//! is 1.4 slots on average and usually ends in the line the prefetch
//! fetched.

use crate::model::LinearModel;
use crate::search::GROUP;
use crate::{bsearch_cost, check_sorted, prefetch_read, BulkLoad, Index, IndexStats, Result};

#[cfg(test)]
thread_local! {
    /// [`GappedLeaf::locate_from`] calls made on this thread.
    static LOCATES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Target slot occupancy after a (re)build.
const TARGET_DENSITY: f64 = 0.7;
/// A leaf expands + retrains beyond this density.
const MAX_DENSITY: f64 = 0.85;
/// A leaf contracts below this density (if large enough).
const MIN_DENSITY: f64 = 0.25;
/// Preferred number of records per leaf at bulk load.
const TARGET_LEAF_SIZE: usize = 256;
/// A leaf splits beyond this record count.
const MAX_LEAF_SIZE: usize = 1024;
/// Minimum slot capacity of a leaf.
const MIN_CAP: usize = 16;

/// A model-indexed gapped array of `(key, value)` pairs.
#[derive(Debug, Clone)]
struct GappedLeaf {
    slots: Vec<Option<(u64, u64)>>,
    /// Maps key → slot index.
    model: LinearModel,
    count: usize,
}

impl GappedLeaf {
    /// Builds a leaf from sorted pairs with model-based placement.
    fn build(pairs: &[(u64, u64)]) -> (GappedLeaf, u64) {
        let n = pairs.len();
        let cap = ((n as f64 / TARGET_DENSITY).ceil() as usize).max(MIN_CAP);
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let base = LinearModel::fit(&keys);
        // Rescale position space 0..n to slot space 0..cap.
        let scale = cap as f64 / n.max(1) as f64;
        let model = LinearModel {
            slope: base.slope * scale,
            intercept: base.intercept * scale,
        };
        let mut slots = vec![None; cap];
        let mut next_free = 0usize;
        for &(k, v) in pairs {
            let mut p = model.predict_clamped(k, slots.len());
            if p < next_free {
                p = next_free;
            }
            if p >= slots.len() {
                slots.push(None);
            }
            slots[p] = Some((k, v));
            next_free = p + 1;
        }
        let work = (n + cap / 8) as u64;
        (
            GappedLeaf {
                slots,
                model,
                count: n,
            },
            work,
        )
    }

    fn density(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.count as f64 / self.slots.len() as f64
        }
    }

    /// All pairs in key order.
    fn pairs(&self) -> Vec<(u64, u64)> {
        self.slots.iter().flatten().copied().collect()
    }

    /// Finds `key`: `Ok(slot)` when present, `Err(slot)` = insertion slot
    /// such that every occupied slot before it holds a smaller key and every
    /// occupied slot from it onward holds a larger key.
    fn locate(&self, key: u64) -> std::result::Result<usize, usize> {
        self.locate_from(self.predict(key), key)
    }

    /// The slot the model predicts for `key`: where [`Self::locate`] starts.
    #[inline]
    fn predict(&self, key: u64) -> usize {
        self.model.predict_clamped(key, self.slots.len())
    }

    /// [`Self::locate`] from an already computed `start = predict(key)`.
    fn locate_from(&self, start: usize, key: u64) -> std::result::Result<usize, usize> {
        #[cfg(test)]
        LOCATES.with(|n| n.set(n.get() + 1));
        let cap = self.slots.len();
        if cap == 0 || self.count == 0 {
            return Err(0);
        }
        // Anchor on an occupied slot.
        let mut i = start;
        if self.slots[i].is_none() {
            let left = self.slots[..i].iter().rposition(|s| s.is_some());
            let right = self.slots[i + 1..]
                .iter()
                .position(|s| s.is_some())
                .map(|off| i + 1 + off);
            i = match (left, right) {
                (Some(l), Some(r)) => {
                    let kl = self.slots[l].expect("occupied").0;
                    let kr = self.slots[r].expect("occupied").0;
                    if key <= kl {
                        l
                    } else if key >= kr {
                        r
                    } else {
                        // key falls strictly between l and r: any gap between
                        // them is a valid insertion slot; `start` is one.
                        return Err(start.max(l + 1).min(r));
                    }
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => return Err(start),
            };
        }
        let ki = self.slots[i].expect("anchored on occupied slot").0;
        use std::cmp::Ordering;
        match key.cmp(&ki) {
            Ordering::Equal => Ok(i),
            Ordering::Greater => {
                // Walk right over occupied slots.
                let mut last_lt = i; // last occupied slot with key < target
                for j in i + 1..cap {
                    if let Some((kj, _)) = self.slots[j] {
                        match key.cmp(&kj) {
                            Ordering::Equal => return Ok(j),
                            Ordering::Less => {
                                // Insert between last_lt and j: prefer a gap.
                                return Err(if j - last_lt > 1 { last_lt + 1 } else { j });
                            }
                            Ordering::Greater => last_lt = j,
                        }
                    }
                }
                Err((last_lt + 1).min(cap))
            }
            Ordering::Less => {
                // Walk left over occupied slots.
                let mut first_gt = i; // first occupied slot with key > target
                for j in (0..i).rev() {
                    if let Some((kj, _)) = self.slots[j] {
                        match key.cmp(&kj) {
                            Ordering::Equal => return Ok(j),
                            Ordering::Greater => {
                                return Err(if first_gt - j > 1 {
                                    first_gt - 1
                                } else {
                                    first_gt
                                });
                            }
                            Ordering::Less => first_gt = j,
                        }
                    }
                }
                Err(first_gt)
            }
        }
    }

    /// Inserts at `slot` (from a failed [`Self::locate`]), shifting toward the
    /// nearest gap when the slot is occupied. Returns false when the leaf has
    /// no gap left (caller must expand first).
    fn insert_at(&mut self, slot: usize, key: u64, value: u64) -> bool {
        let cap = self.slots.len();
        if slot >= cap {
            if self.count == cap {
                return false;
            }
            // Insertion past the end: shift left using the nearest gap.
            let gap = match self.slots.iter().rposition(|s| s.is_none()) {
                Some(g) => g,
                None => return false,
            };
            for j in gap..cap - 1 {
                self.slots[j] = self.slots[j + 1];
            }
            self.slots[cap - 1] = Some((key, value));
            self.count += 1;
            return true;
        }
        if self.slots[slot].is_none() {
            self.slots[slot] = Some((key, value));
            self.count += 1;
            return true;
        }
        // Find nearest gap on either side.
        let right_gap = self.slots[slot..].iter().position(|s| s.is_none());
        let left_gap = self.slots[..slot].iter().rposition(|s| s.is_none());
        match (left_gap, right_gap.map(|off| slot + off)) {
            (Some(l), Some(r)) => {
                if slot - l <= r - slot {
                    self.shift_left_into(l, slot, key, value)
                } else {
                    self.shift_right_into(r, slot, key, value)
                }
            }
            (Some(l), None) => self.shift_left_into(l, slot, key, value),
            (None, Some(r)) => self.shift_right_into(r, slot, key, value),
            (None, None) => false,
        }
    }

    /// Shifts `slots[gap+1..slot]` one left and inserts at `slot - 1`.
    fn shift_left_into(&mut self, gap: usize, slot: usize, key: u64, value: u64) -> bool {
        debug_assert!(gap < slot);
        for j in gap..slot - 1 {
            self.slots[j] = self.slots[j + 1];
        }
        self.slots[slot - 1] = Some((key, value));
        self.count += 1;
        true
    }

    /// Shifts `slots[slot..gap]` one right and inserts at `slot`.
    fn shift_right_into(&mut self, gap: usize, slot: usize, key: u64, value: u64) -> bool {
        debug_assert!(slot < gap || self.slots[gap].is_none());
        for j in (slot..gap).rev() {
            self.slots[j + 1] = self.slots[j];
        }
        self.slots[slot] = Some((key, value));
        self.count += 1;
        true
    }

    #[cfg(test)]
    fn check_sorted_invariant(&self) {
        let keys: Vec<u64> = self.slots.iter().flatten().map(|&(k, _)| k).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "gapped leaf keys out of order: {keys:?}");
        }
        assert_eq!(keys.len(), self.count);
    }
}

/// Adaptive learned index: gapped-array leaves with retraining and splits.
#[derive(Debug, Clone)]
pub struct AlexIndex {
    /// `boundaries[i]` is the smallest key routed to `leaves[i]`
    /// (`boundaries[0]` is a sentinel `0`).
    boundaries: Vec<u64>,
    leaves: Vec<GappedLeaf>,
    len: usize,
    work: u64,
    /// Structural adaptations performed (expansions, contractions, splits).
    adapt_events: u64,
}

impl AlexIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        let (leaf, work) = GappedLeaf::build(&[]);
        AlexIndex {
            boundaries: vec![0],
            leaves: vec![leaf],
            len: 0,
            work,
            adapt_events: 0,
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Structural adaptations (expansions/contractions/splits) so far.
    ///
    /// The adaptability benches read this to correlate throughput dips with
    /// retraining bursts.
    pub fn adapt_events(&self) -> u64 {
        self.adapt_events
    }

    fn leaf_for(&self, key: u64) -> usize {
        self.boundaries
            .partition_point(|&b| b <= key)
            .saturating_sub(1)
    }

    /// Work units of routing a key to its leaf: a binary search of the
    /// boundary keys.
    fn routing_cost(&self) -> u64 {
        bsearch_cost(self.boundaries.len() as u64)
    }

    /// The staged probe behind [`Index::get_many`] and
    /// [`Index::probe_many`]: `answer(hit, walked)` for every key in order,
    /// `hit` what [`Index::get`] returns and `walked` the slots between the
    /// predicted slot and the one [`GappedLeaf::locate`] lands on — the
    /// key-dependent part of [`Index::probe_cost`], out of the same
    /// `locate` that found the hit. Each stage runs for a whole group and
    /// starts the loads the next one reads (see the module doc).
    #[inline]
    fn probe_staged(&self, keys: &[u64], mut answer: impl FnMut(Option<u64>, u64)) {
        let mut leaf_of = [0usize; GROUP];
        let mut predicted = [0usize; GROUP];
        for chunk in keys.chunks(GROUP) {
            let g = chunk.len();
            for (li, &key) in leaf_of[..g].iter_mut().zip(chunk) {
                *li = self.leaf_for(key);
                prefetch_read(&self.leaves[*li]);
            }
            for ((p, &li), &key) in predicted[..g].iter_mut().zip(&leaf_of[..g]).zip(chunk) {
                let leaf = &self.leaves[li];
                *p = leaf.predict(key);
                prefetch_read(leaf.slots.as_ptr().wrapping_add(*p));
            }
            for ((&p, &li), &key) in predicted[..g].iter().zip(&leaf_of[..g]).zip(chunk) {
                let leaf = &self.leaves[li];
                let (hit, slot) = match leaf.locate_from(p, key) {
                    Ok(slot) => (leaf.slots[slot].map(|(_, v)| v), slot),
                    Err(slot) => (None, slot),
                };
                let landed = slot.min(leaf.slots.len().saturating_sub(1));
                answer(hit, p.abs_diff(landed) as u64);
            }
        }
    }

    /// Expands and retrains leaf `i`.
    fn retrain_leaf(&mut self, i: usize) {
        let pairs = self.leaves[i].pairs();
        let (leaf, work) = GappedLeaf::build(&pairs);
        self.leaves[i] = leaf;
        self.work += work;
        self.adapt_events += 1;
    }

    /// Splits leaf `i` into two halves.
    fn split_leaf(&mut self, i: usize) {
        let pairs = self.leaves[i].pairs();
        let mid = pairs.len() / 2;
        let (left_pairs, right_pairs) = pairs.split_at(mid);
        let (left, w1) = GappedLeaf::build(left_pairs);
        let (right, w2) = GappedLeaf::build(right_pairs);
        let right_boundary = right_pairs[0].0;
        self.leaves[i] = left;
        self.leaves.insert(i + 1, right);
        self.boundaries.insert(i + 1, right_boundary);
        self.work += w1 + w2;
        self.adapt_events += 1;
    }
}

impl Default for AlexIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BulkLoad for AlexIndex {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        check_sorted(pairs)?;
        if pairs.is_empty() {
            return Ok(AlexIndex::new());
        }
        let mut leaves = Vec::new();
        let mut boundaries = Vec::new();
        let mut work = 0u64;
        let mut i = 0;
        while i < pairs.len() {
            let end = (i + TARGET_LEAF_SIZE).min(pairs.len());
            let (leaf, w) = GappedLeaf::build(&pairs[i..end]);
            work += w;
            boundaries.push(if i == 0 { 0 } else { pairs[i].0 });
            leaves.push(leaf);
            i = end;
        }
        Ok(AlexIndex {
            boundaries,
            leaves,
            len: pairs.len(),
            work,
            adapt_events: 0,
        })
    }
}

impl Index for AlexIndex {
    fn name(&self) -> &'static str {
        "alex"
    }

    fn get(&self, key: u64) -> Option<u64> {
        let leaf = &self.leaves[self.leaf_for(key)];
        match leaf.locate(key) {
            Ok(slot) => leaf.slots[slot].map(|(_, v)| v),
            Err(_) => None,
        }
    }

    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::with_capacity(limit.min(1024));
        let mut li = self.leaf_for(start);
        // `locate`'s slot, found or not, has every smaller key before it:
        // the first leaf is read from there, the later ones from slot 0.
        let (Ok(mut from) | Err(mut from)) = self.leaves[li].locate(start);
        while li < self.leaves.len() && out.len() < limit {
            let rows = self.leaves[li].slots[from..].iter().flatten();
            out.extend(rows.take(limit - out.len()));
            from = 0;
            li += 1;
        }
        Ok(out)
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        let li = self.leaf_for(key);
        match self.leaves[li].locate(key) {
            Ok(slot) => {
                let old = self.leaves[li].slots[slot].map(|(_, v)| v);
                self.leaves[li].slots[slot] = Some((key, value));
                Ok(old)
            }
            Err(slot) => {
                if !self.leaves[li].insert_at(slot, key, value) {
                    // Leaf completely full: expand + retrain, then retry.
                    self.retrain_leaf(li);
                    let slot = match self.leaves[li].locate(key) {
                        Err(s) => s,
                        Ok(_) => unreachable!("key appeared during retrain"),
                    };
                    let ok = self.leaves[li].insert_at(slot, key, value);
                    debug_assert!(ok, "insert must succeed after expansion");
                }
                self.len += 1;
                self.work += 1;
                // Structural adaptation checks.
                if self.leaves[li].count > MAX_LEAF_SIZE {
                    self.split_leaf(li);
                } else if self.leaves[li].density() > MAX_DENSITY {
                    self.retrain_leaf(li);
                }
                Ok(None)
            }
        }
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        let li = self.leaf_for(key);
        match self.leaves[li].locate(key) {
            Ok(slot) => {
                let old = self.leaves[li].slots[slot].take().map(|(_, v)| v);
                self.leaves[li].count -= 1;
                self.len -= 1;
                if self.leaves[li].density() < MIN_DENSITY
                    && self.leaves[li].slots.len() > MIN_CAP * 2
                {
                    self.retrain_leaf(li);
                }
                Ok(old)
            }
            Err(_) => Ok(None),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn build_work(&self) -> u64 {
        self.work
    }

    fn stats(&self) -> IndexStats {
        let slots: usize = self.leaves.iter().map(|l| l.slots.len()).sum();
        IndexStats {
            size_bytes: slots * 24 + self.boundaries.len() * 8 + self.leaves.len() * 48,
            build_work: self.build_work(),
            model_count: self.leaves.len(),
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        // Leaf routing + model evaluation + distance between the predicted
        // slot and the slot the scan actually lands on.
        let routing = self.routing_cost();
        let leaf = &self.leaves[self.leaf_for(key)];
        if leaf.slots.is_empty() {
            return routing + 1;
        }
        let predicted = leaf.model.predict_clamped(key, leaf.slots.len());
        let actual = match leaf.locate(key) {
            Ok(slot) | Err(slot) => slot.min(leaf.slots.len() - 1),
        };
        routing + 1 + predicted.abs_diff(actual) as u64
    }

    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.reserve(keys.len());
        self.probe_staged(keys, |hit, _| out.push(hit));
    }

    fn probe_many(&self, keys: &[u64], hits: &mut Vec<Option<u64>>, costs: &mut Vec<u64>) {
        hits.reserve(keys.len());
        costs.reserve(keys.len());
        let routing = self.routing_cost();
        self.probe_staged(keys, |hit, walked| {
            hits.push(hit);
            costs.push(routing + 1 + walked);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};

    #[test]
    fn bulk_load_conformance() {
        for n in [0, 1, 100, 1000, 5000] {
            let pairs = test_pairs(n);
            let idx = AlexIndex::bulk_load(&pairs).unwrap();
            assert_eq!(idx.len(), pairs.len(), "n = {n}");
            check_point_lookups(&idx, &pairs);
            check_ranges(&idx, &pairs);
            for leaf in &idx.leaves {
                leaf.check_sorted_invariant();
            }
        }
    }

    #[test]
    fn incremental_inserts() {
        let pairs = test_pairs(3000);
        let mut idx = AlexIndex::new();
        let mut scrambled = pairs.clone();
        scrambled.reverse();
        for &(k, v) in &scrambled {
            idx.insert(k, v).unwrap();
        }
        assert_eq!(idx.len(), pairs.len());
        for leaf in &idx.leaves {
            leaf.check_sorted_invariant();
        }
        check_point_lookups(&idx, &pairs);
        check_ranges(&idx, &pairs);
    }

    #[test]
    fn skewed_inserts_trigger_adaptation() {
        // Bulk-load uniform, then hammer one region: splits/retrains follow.
        let pairs: Vec<(u64, u64)> = (0..4000u64).map(|i| (i * 1000, i)).collect();
        let mut idx = AlexIndex::bulk_load(&pairs).unwrap();
        let before = idx.adapt_events();
        // Odd keys never collide with the loaded multiples of 1000.
        for i in 0..3000u64 {
            idx.insert(500_001 + 2 * i, i).unwrap();
        }
        assert!(
            idx.adapt_events() > before,
            "no adaptation under skewed inserts"
        );
        assert_eq!(idx.len(), 7000);
        for leaf in &idx.leaves {
            leaf.check_sorted_invariant();
        }
        // Spot-check lookups across both regions.
        assert_eq!(idx.get(0), Some(0));
        assert_eq!(idx.get(500_001 + 2 * 100), Some(100));
        assert_eq!(idx.get(3_999_000), Some(3999));
    }

    #[test]
    fn overwrite_returns_old() {
        let mut idx = AlexIndex::new();
        assert_eq!(idx.insert(5, 50).unwrap(), None);
        assert_eq!(idx.insert(5, 51).unwrap(), Some(50));
        assert_eq!(idx.get(5), Some(51));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn delete_and_contract() {
        let pairs = test_pairs(2000);
        let mut idx = AlexIndex::bulk_load(&pairs).unwrap();
        for &(k, _) in &pairs {
            assert!(idx.delete(k).unwrap().is_some(), "missing {k}");
        }
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.delete(12345).unwrap(), None);
        // Still usable after total deletion.
        idx.insert(1, 10).unwrap();
        assert_eq!(idx.get(1), Some(10));
    }

    #[test]
    fn mixed_random_against_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut idx = AlexIndex::new();
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..8000 {
            let key = rng.gen_range(0u64..2000);
            match rng.gen_range(0..4u8) {
                0..=1 => {
                    let v = rng.gen::<u64>();
                    assert_eq!(idx.insert(key, v).unwrap(), model.insert(key, v));
                }
                2 => {
                    assert_eq!(idx.delete(key).unwrap(), model.remove(&key));
                }
                _ => {
                    assert_eq!(idx.get(key), model.get(&key).copied());
                }
            }
        }
        assert_eq!(idx.len(), model.len());
        for leaf in &idx.leaves {
            leaf.check_sorted_invariant();
        }
        // Final range comparison.
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(idx.range(0, usize::MAX >> 1).unwrap(), expected);
    }

    #[test]
    fn batched_probes_locate_once_per_key() {
        let pairs = test_pairs(3000);
        let idx = AlexIndex::bulk_load(&pairs).unwrap();
        // Hits and misses, 100 keys: six full groups and a part of one.
        let keys: Vec<u64> = (0..100).map(|i| pairs[i * 7].0 + (i as u64 % 2)).collect();
        let located = || LOCATES.with(|n| n.get());
        let (mut hits, mut costs, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let before = located();
        idx.probe_many(&keys, &mut hits, &mut costs);
        assert_eq!(located() - before, keys.len(), "probe_many");
        idx.get_many(&keys, &mut out);
        assert_eq!(located() - before, 2 * keys.len(), "get_many");
        // The scalar definitions they replace: one `locate` for the hit and
        // one more for its cost.
        let before = located();
        for &k in &keys {
            let _ = (idx.get(k), idx.probe_cost(k));
        }
        assert_eq!(located() - before, 2 * keys.len(), "get + probe_cost");
        assert_eq!(hits, keys.iter().map(|&k| idx.get(k)).collect::<Vec<_>>());
        assert_eq!(out, hits);
        let expected: Vec<u64> = keys.iter().map(|&k| idx.probe_cost(k)).collect();
        assert_eq!(costs, expected);
    }

    #[test]
    fn range_starts_anywhere_after_splits_and_contractions() {
        use std::collections::BTreeMap;
        let mut model: BTreeMap<u64, u64> = (0..1500u64).map(|i| (1000 + i * 100, i)).collect();
        let pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        let mut idx = AlexIndex::bulk_load(&pairs).unwrap();
        let leaves_loaded = idx.leaf_count();
        // Interleaved: a burst of inserts into one leaf's key span until it
        // splits, with every third step deleting a key of another leaf until
        // that one contracts.
        let contracting = 3;
        let cap_loaded = idx.leaves[contracting].slots.len();
        let mut victims = pairs[contracting * TARGET_LEAF_SIZE..][..TARGET_LEAF_SIZE].iter();
        for i in 0..1200u64 {
            let key = 30_001 + i * 7;
            assert_eq!(idx.insert(key, i).unwrap(), model.insert(key, i));
            if i % 3 == 0 {
                if let Some(&(k, _)) = victims.next() {
                    assert_eq!(idx.delete(k).unwrap(), model.remove(&k));
                }
            }
        }
        assert!(idx.leaf_count() > leaves_loaded, "no split");
        let shrunk = idx.leaf_for(pairs[contracting * TARGET_LEAF_SIZE].0);
        assert!(
            idx.leaves[shrunk].slots.len() < cap_loaded,
            "no contraction"
        );
        // And one leaf with nothing left in it.
        for &(k, _) in &pairs[TARGET_LEAF_SIZE..2 * TARGET_LEAF_SIZE] {
            assert_eq!(idx.delete(k).unwrap(), model.remove(&k));
        }
        assert!(idx.leaves.iter().any(|l| l.count == 0), "no emptied leaf");
        for leaf in &idx.leaves {
            leaf.check_sorted_invariant();
        }

        let max = *model.keys().next_back().unwrap();
        let mut starts = vec![0, 1, max, max + 1, u64::MAX];
        for (leaf, &boundary) in idx.leaves.iter().zip(&idx.boundaries) {
            // Around the leaf's routing boundary, below its first key and
            // above its last one (the scan starts past every row of the leaf
            // and crosses into the next).
            starts.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
            let keys: Vec<u64> = leaf.slots.iter().flatten().map(|p| p.0).collect();
            if let (Some(&first), Some(&last)) = (keys.first(), keys.last()) {
                starts.extend([first - 1, first, first + 1, last - 1, last, last + 1]);
            }
            // An absent key whose predicted slot sits in a run of gaps:
            // between the rows on either side of the leaf's longest run.
            let mut run = (0, 0);
            let mut open = 0;
            for (i, slot) in leaf.slots.iter().enumerate() {
                if slot.is_some() {
                    if i - open > run.1 - run.0 {
                        run = (open, i);
                    }
                    open = i + 1;
                }
            }
            if run.0 > 0 && run.1 - run.0 >= 2 {
                let (lo, hi) = (
                    leaf.slots[run.0 - 1].unwrap().0,
                    leaf.slots[run.1].unwrap().0,
                );
                starts.extend([lo + 1, lo + (hi - lo) / 2, hi - 1]);
            }
        }
        // Present keys and their absent neighbours, all over the key space.
        starts.extend(model.keys().step_by(37).flat_map(|&k| [k, k + 1]));
        for &start in &starts {
            for limit in [0, 1, 3, 300, model.len() + 5] {
                let expected: Vec<(u64, u64)> = model
                    .range(start..)
                    .take(limit)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(
                    idx.range(start, limit).unwrap(),
                    expected,
                    "range({start}, {limit})"
                );
            }
        }
    }

    #[test]
    fn sequential_append_pattern() {
        let mut idx = AlexIndex::new();
        for i in 0..5000u64 {
            idx.insert(i, i * 2).unwrap();
        }
        assert_eq!(idx.len(), 5000);
        assert_eq!(idx.get(4999), Some(9998));
        let scan = idx.range(4990, 20).unwrap();
        assert_eq!(scan.len(), 10);
    }

    #[test]
    fn stats_track_models_and_work() {
        let idx = AlexIndex::bulk_load(&test_pairs(3000)).unwrap();
        let s = idx.stats();
        assert_eq!(s.model_count, idx.leaf_count());
        assert!(s.build_work >= 3000);
        assert!(s.size_bytes > 0);
    }
}
