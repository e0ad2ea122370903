//! Delta buffer + retrain wrapper for read-only learned indexes.
//!
//! Most learned indexes (RMI, PGM, RadixSpline) are built once over a
//! static array. Real systems make them updatable by buffering writes in a
//! small dynamic structure and periodically *retraining* — rebuilding the
//! learned structure over the merged data. That retraining step is
//! precisely the behaviour the paper's adaptability metrics measure: it
//! costs a burst of work (Fig. 1b's slow segment, Fig. 1c's SLA violations)
//! in exchange for restored lookup speed.
//!
//! [`DeltaIndex`] wraps any `Index + BulkLoad` with:
//! * an ordered buffer of pending inserts/updates,
//! * an ordered set of tombstones for deleted base keys,
//! * a live-key count kept up to date by every write,
//! * an explicit [`DeltaIndex::retrain`] that merges and rebuilds,
//! * [`DeltaIndex::delta_fraction`] so a policy can decide *when* to retrain.
//!
//! What the benchmark charges for a probe ([`Index::probe_cost`]) and what
//! it reports as footprint ([`IndexStats::size_bytes`]) are *modelled*
//! quantities: functions of the base and of the number of pending writes,
//! not of how the buffer happens to be stored. The bookkeeping around them
//! is kept off the base: [`Index::len`], [`DeltaIndex::pending`] and
//! [`DeltaIndex::delta_fraction`] never touch it, a write probes it at most
//! once, a scan reads only the base rows it returns or has to skip.

use crate::{BulkLoad, Index, IndexStats, Result};
use std::collections::{BTreeMap, BTreeSet};

/// An updatable wrapper around a read-only (bulk-loaded) index.
///
/// Between retrains three things hold: a key is never both buffered and
/// tombstoned, every tombstone is a key of the base, and `live` counts the
/// base keys that are not tombstoned plus the buffered keys the base does
/// not have.
#[derive(Debug)]
pub struct DeltaIndex<I> {
    base: I,
    buffer: BTreeMap<u64, u64>,
    tombstones: BTreeSet<u64>,
    live: usize,
    /// Work spent on retrains (cumulative build work of rebuilt bases).
    retrain_work: u64,
    retrain_count: u64,
}

impl<I: Index + BulkLoad> DeltaIndex<I> {
    /// Builds the base index from sorted pairs with an empty delta.
    pub fn build(pairs: &[(u64, u64)]) -> Result<Self> {
        Ok(Self::from_base(I::bulk_load(pairs)?))
    }

    /// Wraps an already-built base index with an empty delta.
    ///
    /// Used when the base was trained with a custom configuration (e.g. a
    /// specific training budget) rather than the type's default bulk load.
    pub fn from_base(base: I) -> Self {
        DeltaIndex {
            live: base.len(),
            base,
            buffer: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            retrain_work: 0,
            retrain_count: 0,
        }
    }

    /// Immutable access to the wrapped base index.
    pub fn base(&self) -> &I {
        &self.base
    }

    /// Pending (unmerged) writes: delta entries plus tombstones.
    pub fn pending(&self) -> usize {
        self.buffer.len() + self.tombstones.len()
    }

    /// Pending writes as a fraction of total live keys; retrain policies
    /// trigger when this crosses a threshold.
    pub fn delta_fraction(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            if self.pending() > 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.pending() as f64 / total as f64
        }
    }

    /// Number of retrains performed.
    pub fn retrain_count(&self) -> u64 {
        self.retrain_count
    }

    /// Rebuilds the base over the merged data and clears the delta.
    ///
    /// Returns the build work of the rebuilt base (the cost the benchmark's
    /// training metrics attribute to this adaptation).
    pub fn retrain(&mut self) -> Result<u64> {
        // base ∪ buffer − tombstones, in one pass over the base.
        let pairs = self.range(0, usize::MAX)?;
        self.base = I::bulk_load(&pairs)?;
        self.buffer.clear();
        self.tombstones.clear();
        self.live = self.base.len();
        let work = self.base.build_work();
        self.retrain_work += work;
        self.retrain_count += 1;
        Ok(work)
    }
}

impl<I: Index + BulkLoad> Index for DeltaIndex<I> {
    fn name(&self) -> &'static str {
        // Stable name: callers needing the base name can use `base()`.
        "delta"
    }

    fn get(&self, key: u64) -> Option<u64> {
        if let Some(&v) = self.buffer.get(&key) {
            return Some(v);
        }
        if self.tombstones.contains(&key) {
            return None;
        }
        self.base.get(key)
    }

    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        // Let the base overlap its probe misses across the batch, then
        // patch the (usually empty) delta and tombstones over the results
        // in the same precedence order as [`DeltaIndex::get`].
        let start = out.len();
        self.base.get_many(keys, out);
        if self.tombstones.is_empty() && self.buffer.is_empty() {
            return;
        }
        for (slot, &key) in out[start..].iter_mut().zip(keys) {
            if let Some(&v) = self.buffer.get(&key) {
                *slot = Some(v);
            } else if self.tombstones.contains(&key) {
                *slot = None;
            }
        }
    }

    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        // A three-way ordered merge of base rows, buffered writes and
        // tombstones. The base is read in chunks of what the result still
        // lacks, so it hands over `limit` rows plus one for every row a
        // tombstone or a buffered overwrite made it skip — however many
        // tombstones sit elsewhere in the key space. The price is one base
        // call per chunk: a stretch of skipped rows longer than what is
        // still missing takes several.
        let mut out = Vec::with_capacity(limit.min(self.live));
        let mut buffered = self.buffer.range(start..).map(|(&k, &v)| (k, v)).peekable();
        let mut dead = self.tombstones.range(start..).copied().peekable();
        // Where the next chunk starts; `None` once the base is exhausted.
        let mut from = Some(start);
        while out.len() < limit {
            let Some(at) = from else { break };
            let want = limit - out.len();
            let chunk = self.base.range(at, want)?;
            from = match chunk.last() {
                Some(&(last, _)) if chunk.len() == want => last.checked_add(1),
                _ => None,
            };
            for (key, value) in chunk {
                // Every tombstone is a base key, so they come up in step
                // with the base rows; buffered writes up to this key go
                // first, and one *at* this key replaces the base row.
                let mut shadowed = dead.next_if_eq(&key).is_some();
                while out.len() < limit {
                    let Some(write) = buffered.next_if(|w| w.0 <= key) else {
                        break;
                    };
                    shadowed |= write.0 == key;
                    out.push(write);
                }
                if out.len() == limit {
                    break;
                }
                if !shadowed {
                    out.push((key, value));
                }
            }
        }
        if from.is_none() {
            out.extend(buffered.take(limit - out.len()));
        }
        Ok(out)
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        // A tombstoned key is logically absent: reinserting it returns None,
        // not the stale base value.
        if self.tombstones.remove(&key) {
            let buffered = self.buffer.insert(key, value);
            debug_assert!(buffered.is_none(), "tombstone and delta entry coexisted");
            self.live += 1;
            return Ok(None);
        }
        if let Some(buffered) = self.buffer.insert(key, value) {
            return Ok(Some(buffered));
        }
        let in_base = self.base.get(key);
        if in_base.is_none() {
            self.live += 1;
        }
        Ok(in_base)
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        let buffered = self.buffer.remove(&key);
        if buffered.is_none() && self.tombstones.contains(&key) {
            // Already logically deleted.
            return Ok(None);
        }
        let in_base = self.base.get(key);
        if in_base.is_some() {
            self.tombstones.insert(key);
        }
        let removed = buffered.or(in_base);
        if removed.is_some() {
            self.live -= 1;
        }
        Ok(removed)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn build_work(&self) -> u64 {
        self.base.build_work() + self.retrain_work
    }

    fn stats(&self) -> IndexStats {
        let base = self.base.stats();
        IndexStats {
            // The modelled footprint: 16 bytes per buffered pair, 8 per
            // tombstone, whatever the containers holding them weigh.
            size_bytes: base.size_bytes + self.buffer.len() * 16 + self.tombstones.len() * 8,
            build_work: self.build_work(),
            model_count: base.model_count,
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        // Base probe plus a binary search of the pending delta: an unmerged
        // delta makes every read slower, which is why retraining pays off.
        self.base.probe_cost(key) + crate::bsearch_cost(self.pending() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmi::Rmi;
    use crate::test_support::test_pairs;

    type DeltaRmi = DeltaIndex<Rmi>;

    #[test]
    fn reads_see_base() {
        let pairs = test_pairs(1000);
        let idx = DeltaRmi::build(&pairs).unwrap();
        for &(k, v) in &pairs {
            assert_eq!(idx.get(k), Some(v));
        }
        assert_eq!(idx.len(), pairs.len());
    }

    #[test]
    fn inserts_buffer_in_delta() {
        let pairs = test_pairs(100);
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        let fresh = pairs.last().unwrap().0 + 10;
        assert_eq!(idx.insert(fresh, 7).unwrap(), None);
        assert_eq!(idx.get(fresh), Some(7));
        assert_eq!(idx.pending(), 1);
        assert_eq!(idx.len(), 101);
    }

    #[test]
    fn update_overwrites_base_value() {
        let pairs = test_pairs(100);
        let (k, v) = pairs[50];
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        assert_eq!(idx.insert(k, v + 1).unwrap(), Some(v));
        assert_eq!(idx.get(k), Some(v + 1));
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn delete_tombstones_base_key() {
        let pairs = test_pairs(100);
        let (k, v) = pairs[10];
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        assert_eq!(idx.delete(k).unwrap(), Some(v));
        assert_eq!(idx.get(k), None);
        assert_eq!(idx.len(), 99);
        // Reinsert resurrects.
        idx.insert(k, 1).unwrap();
        assert_eq!(idx.get(k), Some(1));
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn retrain_merges_everything() {
        let pairs = test_pairs(500);
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        let max = pairs.last().unwrap().0;
        // Mix of updates, fresh inserts, deletes.
        idx.insert(pairs[0].0, 999).unwrap();
        idx.insert(max + 5, 5).unwrap();
        idx.delete(pairs[1].0).unwrap();
        let len_before = idx.len();
        let work = idx.retrain().unwrap();
        assert!(work > 0);
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.retrain_count(), 1);
        assert_eq!(idx.len(), len_before);
        assert_eq!(idx.get(pairs[0].0), Some(999));
        assert_eq!(idx.get(max + 5), Some(5));
        assert_eq!(idx.get(pairs[1].0), None);
    }

    #[test]
    fn range_merges_delta() {
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 10, i)).collect();
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        idx.insert(15, 150).unwrap(); // between base keys
        idx.delete(20).unwrap(); // tombstone a base key
        let got = idx.range(10, 4).unwrap();
        assert_eq!(got, vec![(10, 1), (15, 150), (30, 3), (40, 4)]);
    }

    #[test]
    fn range_up_to_the_largest_key_does_not_wrap() {
        // A scan that wants more rows than exist and ends on a live
        // `u64::MAX` has no `MAX + 1` to continue from: it must stop, not
        // panic (debug) or wrap to 0 and return every pair twice (release).
        let pairs = [(1, 10), (5, 50), (u64::MAX, 7)];
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        assert_eq!(idx.range(0, 10).unwrap(), pairs);
        // The same edge reached by a full chunk that ends on `u64::MAX`.
        idx.delete(1).unwrap();
        idx.delete(5).unwrap();
        assert_eq!(idx.range(0, 1).unwrap(), [(u64::MAX, 7)]);
        assert_eq!(idx.range(0, 2).unwrap(), [(u64::MAX, 7)]);
    }

    #[test]
    fn unbounded_range_with_a_tombstone_returns_every_live_pair() {
        // Nothing may be added to `limit`: `usize::MAX` plus one tombstone
        // panics in debug and asks the base for 0 rows in release.
        let pairs: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 10, i)).collect();
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        idx.delete(200).unwrap();
        let live: Vec<(u64, u64)> = pairs.iter().copied().filter(|p| p.0 != 200).collect();
        assert_eq!(idx.range(0, usize::MAX).unwrap(), live);
        // From inside the key span the base adds its own offset to the limit.
        assert_eq!(idx.range(100, usize::MAX).unwrap(), live[10..]);
    }

    #[test]
    fn delta_fraction_drives_policy() {
        let pairs = test_pairs(100);
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        assert_eq!(idx.delta_fraction(), 0.0);
        let max = pairs.last().unwrap().0;
        for i in 0..50u64 {
            idx.insert(max + 1 + i, i).unwrap();
        }
        assert!(idx.delta_fraction() > 0.3);
        idx.retrain().unwrap();
        assert_eq!(idx.delta_fraction(), 0.0);
    }

    #[test]
    fn empty_base_works() {
        let mut idx = DeltaRmi::build(&[]).unwrap();
        assert_eq!(idx.len(), 0);
        idx.insert(1, 10).unwrap();
        assert_eq!(idx.get(1), Some(10));
        idx.retrain().unwrap();
        assert_eq!(idx.base().len(), 1);
    }
}
