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
//! * one ordered map of pending writes, where `Some(value)` is an insert or
//!   an update and `None` a tombstone of a base key,
//! * a live-key count kept up to date by every write,
//! * an explicit [`DeltaIndex::retrain`] that merges and rebuilds,
//! * [`DeltaIndex::delta_fraction`] so a policy can decide *when* to retrain.
//!
//! What the benchmark charges for a probe ([`Index::probe_cost`]) and what
//! it reports as footprint ([`IndexStats::size_bytes`]) are *modelled*
//! quantities: functions of the base and of the number of pending writes,
//! not of how the delta happens to be stored. The bookkeeping around them
//! is kept off the base: [`Index::len`], [`DeltaIndex::pending`] and
//! [`DeltaIndex::delta_fraction`] never touch it, a write probes it at most
//! once, a scan reads only the base rows it returns or has to skip.
//!
//! A scan appends the base's rows straight into the caller's buffer and
//! merges the pending writes into them there, so it allocates nothing of
//! its own: a chunk of base rows no pending key falls into is left as the
//! base wrote it.

use crate::{BulkLoad, Index, IndexStats, Result};
use std::collections::btree_map::{self, BTreeMap, Entry};

/// An updatable wrapper around a read-only (bulk-loaded) index.
///
/// Between retrains two things hold: every tombstone (`None` in `delta`)
/// is a key of the base, and `live` counts the base keys that are not
/// tombstoned plus the buffered keys the base does not have.
#[derive(Debug)]
pub struct DeltaIndex<I> {
    base: I,
    /// Pending writes: `Some(value)` buffered, `None` tombstoned.
    delta: BTreeMap<u64, Option<u64>>,
    /// How many entries of `delta` are tombstones.
    tombstones: usize,
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
            delta: BTreeMap::new(),
            tombstones: 0,
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
        self.delta.len()
    }

    /// Pending writes as a fraction of total live keys; retrain policies
    /// trigger when this crosses a threshold.
    pub fn delta_fraction(&self) -> f64 {
        match (self.pending(), self.len()) {
            (0, _) => 0.0,
            (_, 0) => 1.0,
            (pending, total) => pending as f64 / total as f64,
        }
    }

    /// Buffered keys the base does not have.
    fn fresh(&self) -> usize {
        self.live + self.tombstones - self.base.len()
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
        // base ∪ buffer − tombstones, in one pass over the base. The scan
        // holds every base row and room for every fresh key before it
        // merges them.
        let mut pairs = Vec::with_capacity(self.base.len() + self.fresh());
        self.range_into(0, usize::MAX, &mut pairs)?;
        self.base = I::bulk_load(&pairs)?;
        self.delta.clear();
        self.tombstones = 0;
        self.live = self.base.len();
        let work = self.base.build_work();
        self.retrain_work += work;
        self.retrain_count += 1;
        Ok(work)
    }
}

/// Merges the pending writes of `window` into the base rows `out[from..]`
/// in place and keeps at most `want` rows of the result. The rows are
/// ascending and hold every base key of the window's key span; every
/// tombstone in the window is one of them, and at most `fresh` of its
/// writes are keys the base does not have.
///
/// The base rows from the first pending key on first move up by as many
/// fresh keys as the result can take, so the merge can write it upwards
/// without overtaking the rows it has yet to read. It then walks the rows
/// and the pending keys side by side, one of them a step, and stops once
/// the result is full: it costs what the result takes from the window.
fn merge(
    out: &mut Vec<(u64, u64)>,
    from: usize,
    want: usize,
    fresh: usize,
    window: btree_map::Range<'_, u64, Option<u64>>,
) {
    let stop = from.saturating_add(want);
    let mut window = window.peekable();
    let Some(&(&first, _)) = window.peek() else {
        return;
    };
    // Rows below the first pending key stay where the base wrote them.
    let from = from + out[from..].partition_point(|r| r.0 < first);
    let (rows, room) = (out.len() - from, fresh.min(stop - from));
    out.resize(out.len() + room, (0, 0));
    out.copy_within(from..from + rows, from + room);
    let (mut read, mut write) = (from + room, from);
    for (&key, &pending) in window {
        while write < stop && out.get(read).is_some_and(|r| r.0 < key) {
            out[write] = out[read];
            (read, write) = (read + 1, write + 1);
        }
        if write == stop {
            break;
        }
        // The base row this write replaces or deletes, if any.
        if out.get(read).is_some_and(|r| r.0 == key) {
            read += 1;
        } else {
            debug_assert!(pending.is_some(), "tombstone {key} is not a base row");
        }
        if let Some(value) = pending {
            out[write] = (key, value);
            write += 1;
        }
    }
    let run = (out.len() - read).min(stop - write);
    out.copy_within(read..read + run, write);
    out.truncate(write + run);
}

impl<I: Index + BulkLoad> Index for DeltaIndex<I> {
    fn name(&self) -> &'static str {
        // Stable name: callers needing the base name can use `base()`.
        "delta"
    }

    fn get(&self, key: u64) -> Option<u64> {
        match self.delta.get(&key) {
            Some(&write) => write,
            None => self.base.get(key),
        }
    }

    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        // Let the base overlap its probe misses across the batch, then
        // lay the (usually empty) delta over the results.
        let start = out.len();
        self.base.get_many(keys, out);
        if self.delta.is_empty() {
            return;
        }
        for (slot, key) in out[start..].iter_mut().zip(keys) {
            if let Some(&write) = self.delta.get(key) {
                *slot = write;
            }
        }
    }

    fn range_into(&self, start: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> Result<()> {
        // The base is read in chunks of what the result still lacks, so it
        // hands over `limit` rows plus one for every row a tombstone made
        // it skip — however many tombstones sit elsewhere in the key space.
        // The price is one base call per chunk: a stretch of skipped rows
        // longer than what is still missing takes several.
        let mut left = limit;
        // Where the next chunk starts; `None` once the base is exhausted.
        let mut from = Some(start);
        while left > 0 {
            let Some(at) = from else { break };
            let chunk = out.len();
            self.base.range_into(at, left, out)?;
            // A full chunk holds every base row up to its last key, and the
            // pending keys up to it are merged in now; a short one holds
            // the rest of the base, and every pending key above `at` is.
            let (to, next) = match out.last() {
                Some(&(last, _)) if out.len() - chunk == left => (last, last.checked_add(1)),
                _ => (u64::MAX, None),
            };
            merge(out, chunk, left, self.fresh(), self.delta.range(at..=to));
            left -= out.len() - chunk;
            from = next;
        }
        Ok(())
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        match self.delta.entry(key) {
            Entry::Occupied(mut pending) => match pending.insert(Some(value)) {
                Some(buffered) => Ok(Some(buffered)),
                // A tombstoned key is logically absent: reinserting it
                // returns None, not the stale base value.
                None => {
                    self.tombstones -= 1;
                    self.live += 1;
                    Ok(None)
                }
            },
            Entry::Vacant(slot) => {
                slot.insert(Some(value));
                let in_base = self.base.get(key);
                if in_base.is_none() {
                    self.live += 1;
                }
                Ok(in_base)
            }
        }
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        let removed = match self.delta.entry(key) {
            // Already logically deleted.
            Entry::Occupied(pending) if pending.get().is_none() => return Ok(None),
            Entry::Occupied(mut pending) => {
                // A buffered key the base also has becomes its tombstone.
                if self.base.get(key).is_some() {
                    self.tombstones += 1;
                    pending.insert(None)
                } else {
                    pending.remove()
                }
            }
            Entry::Vacant(slot) => {
                let in_base = self.base.get(key);
                if in_base.is_some() {
                    self.tombstones += 1;
                    slot.insert(None);
                }
                in_base
            }
        };
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
        let buffered = self.delta.len() - self.tombstones;
        IndexStats {
            // The modelled footprint: 16 bytes per buffered pair, 8 per
            // tombstone, whatever the map holding them weighs.
            size_bytes: base.size_bytes + buffered * 16 + self.tombstones * 8,
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
    use proptest::prelude::*;

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

    /// `range_into(start, limit)` after two held rows: it keeps them and
    /// appends what `range` returns.
    fn scan_after_held(idx: &DeltaRmi, start: u64, limit: usize) -> Vec<(u64, u64)> {
        let held = [(3, 3), (u64::MAX, 0)];
        let mut out = held.to_vec();
        idx.range_into(start, limit, &mut out).unwrap();
        assert_eq!(out[..2], held);
        assert_eq!(out[2..], idx.range(start, limit).unwrap());
        out.split_off(2)
    }

    #[test]
    fn range_up_to_the_largest_key_does_not_wrap() {
        // A scan that wants more rows than exist and ends on a live
        // `u64::MAX` has no `MAX + 1` to continue from: it must stop, not
        // panic (debug) or wrap to 0 and return every pair twice (release).
        let pairs = [(1, 10), (5, 50), (u64::MAX, 7)];
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        assert_eq!(scan_after_held(&idx, 0, 10), pairs);
        // The same edge reached by a full chunk that ends on `u64::MAX`.
        idx.delete(1).unwrap();
        idx.delete(5).unwrap();
        assert_eq!(scan_after_held(&idx, 0, 1), [(u64::MAX, 7)]);
        assert_eq!(scan_after_held(&idx, 0, 2), [(u64::MAX, 7)]);
    }

    #[test]
    fn unbounded_range_with_a_tombstone_returns_every_live_pair() {
        // Nothing may be added to `limit`: `usize::MAX` plus one tombstone
        // panics in debug and asks the base for 0 rows in release. Nor to
        // the rows `out` already holds.
        let pairs: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 10, i)).collect();
        let mut idx = DeltaRmi::build(&pairs).unwrap();
        idx.delete(200).unwrap();
        let live: Vec<(u64, u64)> = pairs.iter().copied().filter(|p| p.0 != 200).collect();
        assert_eq!(scan_after_held(&idx, 0, usize::MAX), live);
        // From inside the key span the base adds its own offset to the limit.
        assert_eq!(scan_after_held(&idx, 100, usize::MAX), live[10..]);
    }

    /// The parent's merge, which finds each run of base rows with a binary
    /// search and copies it in one move: what [`merge`] must equal.
    fn merge_reference(
        out: &mut Vec<(u64, u64)>,
        from: usize,
        want: usize,
        fresh: usize,
        window: btree_map::Range<'_, u64, Option<u64>>,
    ) {
        let stop = from.saturating_add(want);
        let mut window = window.peekable();
        let Some(&(&first, _)) = window.peek() else {
            return;
        };
        let from = from + out[from..].partition_point(|r| r.0 < first);
        let (rows, room) = (out.len() - from, fresh.min(stop - from));
        out.resize(out.len() + room, (0, 0));
        out.copy_within(from..from + rows, from + room);
        let (mut read, mut write) = (from + room, from);
        for (&key, &pending) in window {
            if out.get(read).is_some_and(|r| r.0 < key) {
                let run = out[read..].partition_point(|r| r.0 < key).min(stop - write);
                out.copy_within(read..read + run, write);
                (read, write) = (read + run, write + run);
            }
            if write == stop {
                break;
            }
            if out.get(read).is_some_and(|r| r.0 == key) {
                read += 1;
            } else {
                debug_assert!(pending.is_some(), "tombstone {key} is not a base row");
            }
            if let Some(value) = pending {
                out[write] = (key, value);
                write += 1;
            }
        }
        let run = (out.len() - read).min(stop - write);
        out.copy_within(read..read + run, write);
        out.truncate(write + run);
    }

    /// Merges `delta` into the first chunk of every scan of `base` as
    /// `range_into` would — from every key and both ends of the key space,
    /// for every `want`, after no held rows and after two, with the fresh
    /// count exact for the window, global, and over-stated — with [`merge`]
    /// and with the reference, and requires the same rows.
    fn merges_alike(base: &[u64], delta: &BTreeMap<u64, Option<u64>>) {
        let is_fresh = |(k, w): (&u64, &Option<u64>)| w.is_some() && base.binary_search(k).is_err();
        let global = delta.iter().filter(|&e| is_fresh(e)).count();
        let starts = [0, u64::MAX].into_iter().chain(base.iter().copied());
        for at in starts.chain(delta.keys().copied()) {
            let from = base.partition_point(|&k| k < at);
            for want in 1..=base.len() + delta.len() + 1 {
                let rows = base[from..]
                    .iter()
                    .take(want)
                    .map(|&k| (k, k.wrapping_mul(3)));
                let rows: Vec<(u64, u64)> = rows.collect();
                // A full chunk holds the base up to its last key, a short
                // one the rest of it.
                let to = match rows.last() {
                    Some(&(last, _)) if rows.len() == want => last,
                    _ => u64::MAX,
                };
                let exact = delta.range(at..=to).filter(|&e| is_fresh(e)).count();
                for (held, fresh) in [(0, exact), (2, exact), (0, global), (2, global + 3)] {
                    let mut out: Vec<(u64, u64)> =
                        (0..held as u64).map(|i| (u64::MAX - i, i)).collect();
                    out.extend_from_slice(&rows);
                    let mut expected = out.clone();
                    merge(&mut out, held, want, fresh, delta.range(at..=to));
                    merge_reference(&mut expected, held, want, fresh, delta.range(at..=to));
                    assert_eq!(
                        out, expected,
                        "from {at}, want {want}, held {held}, fresh {fresh}"
                    );
                }
            }
        }
    }

    /// Pending writes from `(key, tombstone)` draws: a tombstone only on a
    /// key of `base`, every other draw an update of a base key or a fresh
    /// insert.
    fn pending(base: &[u64], writes: &[(u64, bool)]) -> BTreeMap<u64, Option<u64>> {
        let tombstone = |&(k, dead): &(u64, bool)| dead && base.binary_search(&k).is_ok();
        let write = |w: &(u64, bool)| (w.0, (!tombstone(w)).then_some(w.0 ^ 0xff));
        writes.iter().map(write).collect()
    }

    #[test]
    fn merge_matches_the_reference_with_every_other_row_pending() {
        let base: Vec<u64> = (0..24).map(|i| i * 10).collect();
        // Every other row is updated or tombstoned, and a fresh key sits
        // after every third.
        let rows = base
            .iter()
            .step_by(2)
            .enumerate()
            .map(|(i, &k)| (k, i % 3 == 1));
        let fresh = base.iter().step_by(3).map(|&k| (k + 5, false));
        merges_alike(
            &base,
            &pending(&base, &rows.chain(fresh).collect::<Vec<_>>()),
        );
    }

    #[test]
    fn merge_matches_the_reference_with_tombstones_at_chunk_edges() {
        // The first and last rows, and pairs of neighbours, are tombstoned;
        // every start and `want` puts a chunk edge on each of them.
        let base: Vec<u64> = (0..30).map(|i| i * 3).collect();
        let dead = [0, 3, 6, 30, 33, 60, 63, 84, 87].map(|k| (k, true));
        merges_alike(&base, &pending(&base, &dead));
        let mixed = [
            (0, true),
            (1, false),
            (42, true),
            (43, false),
            (87, true),
            (88, false),
        ];
        merges_alike(&base, &pending(&base, &mixed));
    }

    #[test]
    fn merge_matches_the_reference_with_want_ending_mid_run() {
        // Long runs of base rows between a few pending keys: most `want`s
        // end inside a run.
        let base: Vec<u64> = (0..40).map(|i| i * 2).collect();
        let writes = [
            (1, false),
            (30, true),
            (31, false),
            (57, false),
            (70, false),
        ];
        merges_alike(&base, &pending(&base, &writes));
    }

    #[test]
    fn merge_matches_the_reference_with_fresh_keys_past_the_base() {
        let base: Vec<u64> = (0..20).map(|i| i * 4).collect();
        let past = [
            (77, false),
            (80, false),
            (1000, false),
            (u64::MAX - 1, false),
        ];
        merges_alike(
            &base,
            &pending(&base, &[past.as_slice(), &[(u64::MAX, false)]].concat()),
        );
        // A base that ends on `u64::MAX`, updated and then tombstoned there.
        let top: Vec<u64> = [1, 2, 3, u64::MAX - 2, u64::MAX].to_vec();
        for last in [false, true] {
            let writes = [(0, false), (u64::MAX - 1, false), (u64::MAX, last)];
            merges_alike(&top, &pending(&top, &writes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Dense drawn windows: up to 40 base keys and 40 writes among 120
        /// keys, a few of them at the top of the key space.
        #[test]
        fn merge_matches_the_reference_on_drawn_windows(
            base in prop::collection::btree_set(0u64..124, 0..40),
            writes in prop::collection::vec((0u64..124, any::<bool>()), 0..40),
        ) {
            let top = |k: u64| if k < 120 { k } else { u64::MAX - (k - 120) };
            let mut base: Vec<u64> = base.into_iter().map(top).collect();
            base.sort_unstable();
            let writes: Vec<(u64, bool)> = writes.into_iter().map(|(k, d)| (top(k), d)).collect();
            merges_alike(&base, &pending(&base, &writes));
        }
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
