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
//! predicts, the search from there to the key. `get` takes them one after
//! another; `get_many` and `probe_many` take them a stage at a time for
//! [`GROUP`] keys — route every key and prefetch its leaf, predict every
//! slot and prefetch its line and its occupancy word, then one `locate` per
//! key — so a stage's misses overlap across the group. That one `locate`
//! yields the hit *and* the distance walked, which is the key-dependent part
//! of [`Index::probe_cost`]: a batched read's work units come out of the
//! probe that answered it, and `get` / `probe_cost` stay as the scalar
//! definitions `tests/properties.rs` holds the batch to.
//!
//! **Gap-filled keys and an occupancy bitmap.** A gap holds the key of the
//! next occupied slot, or `u64::MAX` past the last one, so a leaf's keys
//! never decrease, and a bitmap in the leaf marks which slots hold a pair.
//! `locate` finds the key's lower bound by an exponential search outward
//! from the predicted slot, as ALEX prescribes, and reads the occupied
//! slots on either side of it off the bitmap. It returns the slot a linear
//! walk from the prediction lands on, so the distance `probe_cost` charges
//! is the walk's: the search changes what a probe costs in time, never in
//! work units. The walk is short on reads — 1.4 slots on average on the
//! benchmark's `point_reads` workload, whose reads cost 14.4 work units, 12
//! of them routing and 1 the model — but 57 slots on `updates_scans`
//! inserts, which pack runs of keys into a few leaves; there the search
//! reads `O(log d)` slots instead of `d`, the nearest gap of a shifting
//! insert is a scan of bitmap words, and the shift is one `copy_within`.

use crate::model::LinearModel;
use crate::search::GROUP;
use crate::{bsearch_cost, check_sorted, prefetch_read, BulkLoad, Index, IndexStats, Result};

#[cfg(test)]
thread_local! {
    /// [`GappedLeaf::locate_from`] calls made on this thread.
    static LOCATES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Slot keys read by a leaf's search on this thread.
    static SLOT_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
/// The most slots a leaf can have. A build gets at most
/// `MAX_LEAF_SIZE + 1` pairs (a split halves a leaf as soon as it passes
/// `MAX_LEAF_SIZE`), sizes its array to `ceil(n / TARGET_DENSITY)` and
/// appends at most one slot for each pair after the first; no write
/// changes the slot count.
const MAX_SLOTS: usize = ((MAX_LEAF_SIZE + 1) as f64 / TARGET_DENSITY) as usize + 1 + MAX_LEAF_SIZE;
/// Words of a leaf's occupancy bitmap.
const WORDS: usize = MAX_SLOTS.div_ceil(64);

/// A model-indexed gapped array of `(key, value)` pairs.
///
/// The occupancy bitmap lives inline, in the leaf's own allocation: a
/// separate heap block per leaf fragments the heap enough to show in a
/// run's peak RSS. `repr(C)` keeps the header fields in the line
/// [`AlexIndex::probe_staged`] prefetches.
#[derive(Debug, Clone)]
#[repr(C)]
struct GappedLeaf {
    /// One `(key, value)` per slot. A gap holds the key of the next
    /// occupied slot, or `u64::MAX` past the last one (its value is
    /// meaningless), so the keys never decrease.
    slots: Vec<(u64, u64)>,
    /// Maps key → slot index.
    model: LinearModel,
    count: usize,
    /// Bit `i % 64` of word `i / 64` is set when slot `i` holds a pair.
    occupied: [u64; WORDS],
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
        let mut slots = vec![(u64::MAX, 0); cap];
        let mut occupied = [0; WORDS];
        let mut next_free = 0usize;
        for &(k, v) in pairs {
            let mut p = model.predict_clamped(k, slots.len());
            if p < next_free {
                p = next_free;
            }
            if p >= slots.len() {
                slots.push((u64::MAX, 0));
            }
            // The gaps since the last pair take this pair's key.
            for gap in &mut slots[next_free..p] {
                gap.0 = k;
            }
            slots[p] = (k, v);
            occupied[p / 64] |= 1 << (p % 64);
            next_free = p + 1;
        }
        // A push past `cap` doubles the capacity, and a leaf never grows
        // after its build: it is rebuilt instead.
        slots.shrink_to_fit();
        let work = (n + cap / 8) as u64;
        (
            GappedLeaf {
                slots,
                model,
                count: n,
                occupied,
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

    fn is_occupied(&self, i: usize) -> bool {
        self.occupied[i / 64] >> (i % 64) & 1 == 1
    }

    /// The key of slot `i`, counted as a slot read in tests.
    #[inline]
    fn key(&self, i: usize) -> u64 {
        #[cfg(test)]
        SLOT_READS.with(|n| n.set(n.get() + 1));
        self.slots[i].0
    }

    /// The first slot at or after `from` that is occupied (`occupied`) or a
    /// gap (`!occupied`); the slot count when there is none.
    fn next_slot(&self, from: usize, occupied: bool) -> usize {
        let cap = self.slots.len();
        if from >= cap {
            return cap;
        }
        let flip = if occupied { 0 } else { !0 };
        let mut w = from / 64;
        let mut bits = (self.occupied[w] ^ flip) & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            if w * 64 >= cap {
                return cap;
            }
            bits = self.occupied[w] ^ flip;
        }
        // Past the last slot a flipped word reads as all gaps.
        (w * 64 + bits.trailing_zeros() as usize).min(cap)
    }

    /// The last slot before `before` that is occupied (`occupied`) or a gap
    /// (`!occupied`).
    fn prev_slot(&self, before: usize, occupied: bool) -> Option<usize> {
        let last = before.checked_sub(1)?;
        let flip = if occupied { 0 } else { !0 };
        let mut w = last / 64;
        let mut bits = (self.occupied[w] ^ flip) & (!0 >> (63 - last % 64));
        while bits == 0 {
            w = w.checked_sub(1)?;
            bits = self.occupied[w] ^ flip;
        }
        Some(w * 64 + 63 - bits.leading_zeros() as usize)
    }

    /// Appends the pairs of the first `n` occupied slots from `from` on to
    /// `out`, in key order, reading the bitmap a word at a time.
    fn pairs_into(&self, from: usize, mut n: usize, out: &mut Vec<(u64, u64)>) {
        let words = self.slots.len().div_ceil(64);
        let mut w = from / 64;
        if w >= words {
            return;
        }
        let mut bits = self.occupied[w] & (!0 << (from % 64));
        loop {
            while bits != 0 {
                if n == 0 {
                    return;
                }
                out.push(self.slots[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
                n -= 1;
            }
            w += 1;
            if w >= words {
                return;
            }
            bits = self.occupied[w];
        }
    }

    /// All pairs in key order.
    fn pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs = Vec::with_capacity(self.count);
        self.pairs_into(0, self.count, &mut pairs);
        pairs
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
    ///
    /// The answer is the slot a walk from `start` over the occupied slots
    /// lands on: it anchors on `start`, or when that is a gap on the
    /// occupied slot beside it toward `key`, and walks toward `key`. With
    /// `lb` the lower bound of `key` in the gap-filled keys, `L = lb − 1`
    /// the last occupied slot below `key` and `R` the first occupied slot
    /// from `lb` on, it returns
    /// - `Ok(R)` when `R` holds `key`;
    /// - walking right (`lb > start`, or no `R`), `Err(lb)`: the gap after
    ///   `L`, or `R` when there is none;
    /// - `Err(start)` when `start` is a gap strictly between `L` and `R`;
    /// - walking left, `Err(R − 1)` when there are gaps between `L` and `R`,
    ///   else `Err(R)`.
    fn locate_from(&self, start: usize, key: u64) -> std::result::Result<usize, usize> {
        #[cfg(test)]
        LOCATES.with(|n| n.set(n.get() + 1));
        let cap = self.slots.len();
        if cap == 0 || self.count == 0 {
            return Err(0);
        }
        let lb = self.lower_bound_from(start, key);
        let r = self.next_slot(lb, true);
        if r < cap && self.key(r) == key {
            Ok(r)
        } else if lb > start || r == cap {
            Err(lb)
        } else if lb > 0 && r > start {
            Err(start)
        } else if lb > 0 && r > lb {
            Err(r - 1)
        } else {
            Err(r)
        }
    }

    /// The first slot whose (gap-filled) key is at least `key`, or the slot
    /// count: an exponential search outward from `start`, then a binary
    /// search of the last step.
    fn lower_bound_from(&self, start: usize, key: u64) -> usize {
        let cap = self.slots.len();
        // The bound lies in `lo..=hi`.
        let (mut lo, mut hi) = (0, start);
        let mut step = 1;
        if self.key(start) < key {
            (lo, hi) = (start + 1, cap);
            while start + step < cap {
                if self.key(start + step) >= key {
                    hi = start + step;
                    break;
                }
                lo = start + step + 1;
                step *= 2;
            }
        } else {
            while step <= start {
                if self.key(start - step) < key {
                    lo = start - step + 1;
                    break;
                }
                hi = start - step;
                step *= 2;
            }
        }
        lo + self.slots[lo..hi].partition_point(|s| {
            #[cfg(test)]
            SLOT_READS.with(|n| n.set(n.get() + 1));
            s.0 < key
        })
    }

    /// Inserts at `slot` (from a failed [`Self::locate`]), shifting toward the
    /// nearest gap when the slot is occupied. Returns false when the leaf has
    /// no gap left (caller must expand first).
    fn insert_at(&mut self, slot: usize, key: u64, value: u64) -> bool {
        let cap = self.slots.len();
        if self.count == cap {
            return false;
        }
        // The gap that fills, and the slot the pair goes to.
        let (gap, at) = if slot < cap && !self.is_occupied(slot) {
            (slot, slot)
        } else {
            // Shift toward the nearest gap (the left one on a tie; past the
            // end there is only a left one).
            let right = self.next_slot(slot, false);
            match self.prev_slot(slot.min(cap), false) {
                Some(left) if right == cap || slot - left <= right - slot => {
                    self.slots.copy_within(left + 1..slot, left);
                    (left, slot - 1)
                }
                _ => {
                    self.slots.copy_within(slot..right, slot + 1);
                    (right, slot)
                }
            }
        };
        self.occupied[gap / 64] |= 1 << (gap % 64);
        self.slots[at] = (key, value);
        self.count += 1;
        self.fill_below(at);
        true
    }

    /// Empties occupied slot `slot` and returns its value.
    fn remove(&mut self, slot: usize) -> u64 {
        let value = self.slots[slot].1;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.count -= 1;
        self.slots[slot].0 = self.slots.get(slot + 1).map_or(u64::MAX, |s| s.0);
        self.fill_below(slot);
        value
    }

    /// Gives the gaps just below slot `slot` its key, as the invariant
    /// wants after a write to the slot.
    fn fill_below(&mut self, slot: usize) {
        let from = self.prev_slot(slot, true).map_or(0, |l| l + 1);
        let key = self.slots[slot].0;
        for gap in &mut self.slots[from..slot] {
            gap.0 = key;
        }
    }

    #[cfg(test)]
    fn check_sorted_invariant(&self) {
        let keys: Vec<u64> = self.pairs().iter().map(|&(k, _)| k).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "gapped leaf keys out of order: {keys:?}");
        }
        assert_eq!(keys.len(), self.count);
        let cap = self.slots.len();
        assert!(
            (cap..WORDS * 64).all(|i| !self.is_occupied(i)),
            "bits past the last slot"
        );
        // Every gap holds the key of the next occupied slot, or `u64::MAX`.
        let mut next = u64::MAX;
        for i in (0..cap).rev() {
            if self.is_occupied(i) {
                next = self.slots[i].0;
            } else {
                assert_eq!(self.slots[i].0, next, "gap {i} of {cap}");
            }
        }
    }

    /// Slot `i` as a pair or a gap, counted as a slot read.
    #[cfg(test)]
    fn at(&self, i: usize) -> Option<(u64, u64)> {
        let key = self.key(i);
        self.is_occupied(i).then_some((key, self.slots[i].1))
    }

    /// The reference [`Self::locate_from`] answers to: a linear walk from
    /// `start` over the occupied slots.
    #[cfg(test)]
    fn locate_linear(&self, start: usize, key: u64) -> std::result::Result<usize, usize> {
        let cap = self.slots.len();
        if cap == 0 || self.count == 0 {
            return Err(0);
        }
        // Anchor on an occupied slot.
        let mut i = start;
        if self.at(i).is_none() {
            let left = (0..i).rev().find(|&j| self.at(j).is_some());
            let right = (i + 1..cap).find(|&j| self.at(j).is_some());
            i = match (left, right) {
                (Some(l), Some(r)) => {
                    let kl = self.at(l).expect("occupied").0;
                    let kr = self.at(r).expect("occupied").0;
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
        let ki = self.at(i).expect("anchored on occupied slot").0;
        use std::cmp::Ordering;
        match key.cmp(&ki) {
            Ordering::Equal => Ok(i),
            Ordering::Greater => {
                // Walk right over occupied slots.
                let mut last_lt = i; // last occupied slot with key < target
                for j in i + 1..cap {
                    if let Some((kj, _)) = self.at(j) {
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
                    if let Some((kj, _)) = self.at(j) {
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
                prefetch_read(&leaf.occupied[*p / 64]);
            }
            for ((&p, &li), &key) in predicted[..g].iter().zip(&leaf_of[..g]).zip(chunk) {
                let leaf = &self.leaves[li];
                let (hit, slot) = match leaf.locate_from(p, key) {
                    Ok(slot) => (Some(leaf.slots[slot].1), slot),
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
            Ok(slot) => Some(leaf.slots[slot].1),
            Err(_) => None,
        }
    }

    fn range_into(&self, start: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> Result<()> {
        let held = out.len();
        let mut li = self.leaf_for(start);
        // `locate`'s slot, found or not, has every smaller key before it:
        // the first leaf is read from there, the later ones from slot 0.
        let (Ok(mut from) | Err(mut from)) = self.leaves[li].locate(start);
        while li < self.leaves.len() && out.len() - held < limit {
            self.leaves[li].pairs_into(from, limit - (out.len() - held), out);
            from = 0;
            li += 1;
        }
        Ok(())
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        let li = self.leaf_for(key);
        match self.leaves[li].locate(key) {
            Ok(slot) => {
                let old = std::mem::replace(&mut self.leaves[li].slots[slot].1, value);
                Ok(Some(old))
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
                let old = self.leaves[li].remove(slot);
                self.len -= 1;
                if self.leaves[li].density() < MIN_DENSITY
                    && self.leaves[li].slots.len() > MIN_CAP * 2
                {
                    self.retrain_leaf(li);
                }
                Ok(Some(old))
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

    /// `size_bytes` models 24 B a slot (an `Option<(u64, u64)>`), 8 a
    /// boundary and 48 a leaf header. A slot takes 16 B and a bit of the
    /// occupancy bitmap now; the model stays so that records and transcripts
    /// that print the size do not move until the next deliberate
    /// regeneration of the goldens.
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
            let keys: Vec<u64> = leaf.pairs().iter().map(|p| p.0).collect();
            if let (Some(&first), Some(&last)) = (keys.first(), keys.last()) {
                starts.extend([first - 1, first, first + 1, last - 1, last, last + 1]);
            }
            // An absent key whose predicted slot sits in a run of gaps:
            // between the rows on either side of the leaf's longest run.
            let mut run = (0, 0);
            let mut open = 0;
            for i in 0..leaf.slots.len() {
                if leaf.is_occupied(i) {
                    if i - open > run.1 - run.0 {
                        run = (open, i);
                    }
                    open = i + 1;
                }
            }
            if run.0 > 0 && run.1 - run.0 >= 2 {
                let (lo, hi) = (leaf.slots[run.0 - 1].0, leaf.slots[run.1].0);
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

    /// A build that places pairs past its planned array keeps no spare
    /// capacity: a leaf is rebuilt, never grown, so it would go unused.
    #[test]
    fn built_leaves_keep_no_spare_slots() {
        let pairs: Vec<(u64, u64)> = (0..4000u64).map(|i| (i * i, i)).collect();
        let mut idx = AlexIndex::bulk_load(&pairs).unwrap();
        for k in 0..3000u64 {
            idx.insert(5_000_000 + k, k).unwrap();
        }
        for leaf in &idx.leaves {
            assert_eq!(leaf.slots.capacity(), leaf.slots.len());
        }
    }

    #[test]
    fn stats_track_models_and_work() {
        let idx = AlexIndex::bulk_load(&test_pairs(3000)).unwrap();
        let s = idx.stats();
        assert_eq!(s.model_count, idx.leaf_count());
        assert!(s.build_work >= 3000);
        assert!(s.size_bytes > 0);
    }

    /// A leaf of `cap` gaps whose model spreads `[0, span)` over them.
    fn empty_leaf(cap: usize, span: u64) -> GappedLeaf {
        GappedLeaf {
            slots: vec![(u64::MAX, 0); cap],
            model: LinearModel {
                slope: cap as f64 / span as f64,
                intercept: 0.0,
            },
            count: 0,
            occupied: [0; WORDS],
        }
    }

    /// Inserts or overwrites through the leaf alone; false when it is full.
    fn leaf_insert(leaf: &mut GappedLeaf, key: u64, value: u64) -> bool {
        match leaf.locate(key) {
            Ok(slot) => {
                leaf.slots[slot].1 = value;
                true
            }
            Err(slot) => leaf.insert_at(slot, key, value),
        }
    }

    fn leaf_delete(leaf: &mut GappedLeaf, key: u64) -> Option<u64> {
        leaf.locate(key).ok().map(|slot| leaf.remove(slot))
    }

    fn shuffle(keys: &mut [u64], rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
    }

    /// Keys worth probing: each present key and its neighbours (absent when
    /// keys are spaced out), below the first, above the last, `u64::MAX`.
    fn probe_keys(leaf: &GappedLeaf) -> Vec<u64> {
        let mut keys = vec![0, u64::MAX];
        for (k, _) in leaf.pairs() {
            keys.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        keys
    }

    fn assert_same(leaf: &GappedLeaf, start: usize, key: u64) {
        let cap = leaf.slots.len();
        assert_eq!(
            leaf.locate_from(start, key),
            leaf.locate_linear(start, key),
            "start {start}, key {key}, {} of {cap} slots",
            leaf.count
        );
    }

    /// Every start slot against every probe key, or when `sample` is given
    /// every start against a few drawn keys and every key from a few drawn
    /// starts.
    fn check_against_walk(leaf: &GappedLeaf, sample: Option<&mut rand::rngs::StdRng>) {
        use rand::Rng;
        leaf.check_sorted_invariant();
        let keys = probe_keys(leaf);
        let cap = leaf.slots.len();
        match sample {
            None => {
                for start in 0..cap {
                    for &key in &keys {
                        assert_same(leaf, start, key);
                    }
                }
            }
            Some(rng) => {
                for start in 0..cap {
                    for _ in 0..2 {
                        assert_same(leaf, start, keys[rng.gen_range(0..keys.len())]);
                    }
                }
                for &key in &keys {
                    for _ in 0..2 {
                        assert_same(leaf, rng.gen_range(0..cap), key);
                    }
                }
            }
        }
    }

    /// Random inserts and deletes, then fills to the last slot, then deletes
    /// down to an empty leaf, checking the search against the walk along
    /// the way.
    fn drive_leaf(cap: usize, seed: u64, checks: usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let span = 1 << 20;
        let mut leaf = empty_leaf(cap, span);
        let mut model = std::collections::BTreeMap::new();
        let every = (3 * cap / checks).max(1);
        for step in 0..3 * cap {
            if rng.gen_bool(0.7) {
                let key = rng.gen_range(0..span);
                if leaf_insert(&mut leaf, key, step as u64) {
                    model.insert(key, step as u64);
                }
            } else if let Some(&key) = model.keys().nth(rng.gen_range(0..model.len().max(1))) {
                assert_eq!(leaf_delete(&mut leaf, key), model.remove(&key));
            }
            if step % every == 0 {
                check_against_walk(&leaf, None);
            }
        }
        while leaf.count < cap {
            let key = rng.gen_range(0..span);
            assert!(leaf_insert(&mut leaf, key, 0));
            model.insert(key, 0);
        }
        check_against_walk(&leaf, None);
        assert!(
            !leaf_insert(&mut leaf, span, 0),
            "a full leaf takes no new key"
        );
        let mut present: Vec<u64> = model.keys().copied().collect();
        shuffle(&mut present, &mut rng);
        for (i, key) in present.into_iter().enumerate() {
            assert!(leaf_delete(&mut leaf, key).is_some());
            if i % every == 0 {
                check_against_walk(&leaf, None);
            }
        }
        assert_eq!(leaf.count, 0);
        check_against_walk(&leaf, None);
    }

    /// A leaf with a few keys spread out and `run` more packed into one
    /// narrow key span, so that they all predict the same slot and shift one
    /// another into a single run of occupied slots.
    fn packed_leaf(run: u64, rng: &mut rand::rngs::StdRng) -> (GappedLeaf, Vec<u64>) {
        use rand::Rng;
        let span = 1 << 30;
        let mut leaf = empty_leaf(2 * run as usize, span);
        for _ in 0..run / 8 {
            assert!(leaf_insert(&mut leaf, rng.gen_range(0..span), 1));
        }
        let mut packed: Vec<u64> = (0..run).map(|i| span / 2 + 2 * i).collect();
        shuffle(&mut packed, rng);
        for &key in &packed {
            assert!(leaf_insert(&mut leaf, key, 2));
        }
        packed.sort_unstable();
        (leaf, packed)
    }

    #[test]
    fn locate_matches_the_linear_walk_at_bitmap_word_edges() {
        for (seed, cap) in [63, 64, 65, 128].into_iter().enumerate() {
            drive_leaf(cap, seed as u64, 12);
        }
    }

    #[test]
    fn locate_matches_the_linear_walk_in_a_packed_run() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mut leaf, packed) = packed_leaf(520, &mut rng);
        check_against_walk(&leaf, Some(&mut rng));
        let mut present: Vec<u64> = leaf.pairs().iter().map(|p| p.0).collect();
        shuffle(&mut present, &mut rng);
        for (i, key) in present.into_iter().enumerate() {
            assert!(leaf_delete(&mut leaf, key).is_some());
            if i % 128 == 0 {
                check_against_walk(&leaf, Some(&mut rng));
            }
        }
        assert_eq!(leaf.count, 0);
        check_against_walk(&leaf, None);
        assert!(packed.len() >= 500);
    }

    /// The long form, run optimised in CI: a million random probes of leaves
    /// of random capacity through random insert and delete sequences.
    #[test]
    #[ignore]
    fn locate_matches_the_linear_walk_long() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut probes = 0;
        while probes < 1_000_000 {
            let cap = rng.gen_range(1..=MAX_SLOTS);
            let bits = rng.gen_range(1..40);
            let span = rng.gen_range(1..=1u64 << bits);
            let mut leaf = empty_leaf(cap, span);
            for _ in 0..rng.gen_range(0..3 * cap) {
                let key = rng.gen_range(0..span);
                if rng.gen_bool(0.6) {
                    leaf_insert(&mut leaf, key, 0);
                } else {
                    leaf_delete(&mut leaf, key);
                }
            }
            leaf.check_sorted_invariant();
            let keys = probe_keys(&leaf);
            for _ in 0..10_000 {
                let key = if rng.gen_bool(0.2) {
                    rng.gen()
                } else {
                    keys[rng.gen_range(0..keys.len())]
                };
                assert_same(&leaf, rng.gen_range(0..cap), key);
            }
            probes += 10_000;
        }
    }

    /// Slot keys read by `f`.
    fn slot_reads<T>(f: impl FnOnce() -> T) -> usize {
        let before = SLOT_READS.with(|n| n.get());
        let _ = f();
        SLOT_READS.with(|n| n.get()) - before
    }

    #[test]
    fn locate_reads_logarithmically_many_slots_in_a_packed_run() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let run = 600;
        let (leaf, packed) = packed_leaf(run, &mut rng);
        let first = leaf.locate(packed[0]).expect("present");
        let last = leaf.locate(packed[packed.len() - 1]).expect("present");
        assert_eq!(last - first + 1, run as usize, "one run of occupied slots");
        let bound = 2 * (run as f64).log2().ceil() as usize + 8;
        let mut walked = 0;
        for &key in &packed {
            for probe in [key, key + 1] {
                let reads = slot_reads(|| leaf.locate(probe));
                assert!(
                    reads <= bound,
                    "locate({probe}) read {reads} slots, over {bound}"
                );
                let start = leaf.predict(probe);
                walked = walked.max(slot_reads(|| leaf.locate_linear(start, probe)));
            }
        }
        // The walk the search replaced reads far more: the bound has teeth.
        assert!(
            walked > 10 * bound,
            "the linear walk's longest probe read only {walked} slots"
        );
    }
}
