//! PGM-index: a multi-level piecewise-geometric-model index.
//!
//! Builds ε-bounded PLA segments over the sorted keys (see
//! [`crate::model::pla_segments`]), then recursively indexes the segments'
//! first keys with further PLA levels until a single segment remains. Every
//! level guarantees `|prediction − position| ≤ ε`, so a lookup costs one
//! model evaluation plus a `O(log ε)` binary search per level.
//!
//! `epsilon` is the PGM's specialization knob: small ε → many segments,
//! more memory and build work, faster lookups; large ε → tiny index,
//! slower last-mile searches.

use crate::model::{pla_segments, Segment};
use crate::{check_sorted, BulkLoad, Index, IndexError, IndexStats, Result};

/// Default ε for bulk loads via the [`BulkLoad`] trait.
pub const DEFAULT_EPSILON: f64 = 32.0;

/// Multi-level ε-PLA learned index.
#[derive(Debug, Clone)]
pub struct PgmIndex {
    keys: Vec<u64>,
    values: Vec<u64>,
    /// `levels[0]` segments the data; `levels[i + 1]` segments the first
    /// keys of `levels[i]`. The last level has exactly one segment.
    levels: Vec<Vec<Segment>>,
    epsilon: f64,
    build_work: u64,
}

impl PgmIndex {
    /// Builds a PGM-index with the given ε (≥ 1 recommended).
    pub fn build(pairs: &[(u64, u64)], epsilon: f64) -> Result<Self> {
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(IndexError::Unsupported("epsilon must be non-negative"));
        }
        check_sorted(pairs)?;
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let values: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let mut levels = Vec::new();
        let mut work = 0u64;
        if !keys.is_empty() {
            let mut current = pla_segments(&keys, epsilon);
            work += keys.len() as u64;
            loop {
                let seg_count = current.len();
                levels.push(current);
                if seg_count <= 1 {
                    break;
                }
                let level_keys: Vec<u64> = levels
                    .last()
                    .expect("just pushed")
                    .iter()
                    .map(|s| s.first_key)
                    .collect();
                work += level_keys.len() as u64;
                current = pla_segments(&level_keys, epsilon);
            }
        }
        Ok(PgmIndex {
            keys,
            values,
            levels,
            epsilon,
            build_work: work.max(1),
        })
    }

    /// The ε this index was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of levels (1 for small datasets).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total segments across all levels.
    pub fn segment_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Finds the index of the segment in `level` whose range covers `key`
    /// (the last segment with `first_key <= key`), given a predicted
    /// position from the level above.
    fn refine(&self, level: &[Segment], approx: usize, key: u64) -> usize {
        // The ε guarantee is relative to the level's own key list, so search
        // a ±(ε + 2) window around the prediction, then verify the result
        // and fall back to a full binary search if the window missed.
        let slack = self.epsilon as usize + 2;
        let lo = approx.saturating_sub(slack);
        let hi = (approx + slack + 1).min(level.len());
        // The ±ε window is a few cache lines at most, so the branchless
        // scan wins: no mispredicted comparisons on the way down.
        let idx = (lo + crate::search::partition_point_by(&level[lo..hi], |s| s.first_key <= key))
            .saturating_sub(1);
        let valid = (level[idx].first_key <= key || idx == 0)
            && (idx + 1 == level.len() || level[idx + 1].first_key > key);
        if valid {
            idx
        } else {
            level
                .partition_point(|s| s.first_key <= key)
                .saturating_sub(1)
        }
    }

    /// Position of the first data key `>= key`.
    pub fn lower_bound(&self, key: u64) -> usize {
        let n = self.keys.len();
        if n == 0 {
            return 0;
        }
        // Descend from the top level to level 0.
        let top = self.levels.len() - 1;
        let mut seg_idx = 0usize;
        for depth in (0..=top).rev() {
            let level = &self.levels[depth];
            let seg = &level[seg_idx.min(level.len() - 1)];
            if depth == 0 {
                // Final level: predict a data position and binary search the
                // ε window.
                let pred = seg.predict(key);
                let slack = self.epsilon as usize + 2;
                let mut lo = pred.saturating_sub(slack);
                let mut hi = (pred + slack + 1).min(n);
                if lo > 0 && self.keys[lo - 1] >= key {
                    lo = 0;
                }
                if hi < n && self.keys[hi - 1] < key {
                    hi = n;
                }
                lo = lo.min(hi);
                // Branchless last mile inside the ε window; if validation
                // widened the bracket to the whole array (a key the
                // segments never covered), the speculative stdlib search
                // handles the memory-bound case better.
                let w = &self.keys[lo..hi];
                return lo
                    + if w.len() <= 2 * slack + 1 {
                        crate::search::lower_bound(w, key)
                    } else {
                        w.partition_point(|&k| k < key)
                    };
            }
            // Predict the segment index in the level below.
            let below = &self.levels[depth - 1];
            let approx = seg.predict(key).min(below.len() - 1);
            seg_idx = self.refine(below, approx, key);
        }
        unreachable!("loop always returns at depth 0")
    }
}

impl BulkLoad for PgmIndex {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        PgmIndex::build(pairs, DEFAULT_EPSILON)
    }
}

impl Index for PgmIndex {
    fn name(&self) -> &'static str {
        "pgm"
    }

    fn get(&self, key: u64) -> Option<u64> {
        let pos = self.lower_bound(key);
        if pos < self.keys.len() && self.keys[pos] == key {
            Some(self.values[pos])
        } else {
            None
        }
    }

    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        let from = self.lower_bound(start);
        let to = from.saturating_add(limit).min(self.keys.len());
        Ok(self.keys[from..to]
            .iter()
            .copied()
            .zip(self.values[from..to].iter().copied())
            .collect())
    }

    fn insert(&mut self, _key: u64, _value: u64) -> Result<Option<u64>> {
        Err(IndexError::Unsupported(
            "PGM is read-only; wrap in DeltaIndex for updates",
        ))
    }

    fn delete(&mut self, _key: u64) -> Result<Option<u64>> {
        Err(IndexError::Unsupported(
            "PGM is read-only; wrap in DeltaIndex for updates",
        ))
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn build_work(&self) -> u64 {
        self.build_work
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            size_bytes: self.keys.len() * 16 + self.segment_count() * 48,
            build_work: self.build_work(),
            model_count: self.segment_count(),
        }
    }

    fn probe_cost(&self, _key: u64) -> u64 {
        // One model evaluation plus an ε-window search per level.
        let per_level = 1 + crate::bsearch_cost(self.epsilon as u64);
        (self.levels.len() as u64).max(1) * per_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};

    #[test]
    fn conformance_various_sizes() {
        for n in [1, 2, 10, 100, 1000, 20_000] {
            let pairs = test_pairs(n);
            let idx = PgmIndex::bulk_load(&pairs).unwrap();
            assert_eq!(idx.len(), pairs.len(), "n = {n}");
            check_point_lookups(&idx, &pairs);
            check_ranges(&idx, &pairs);
        }
    }

    #[test]
    fn empty_index() {
        let idx = PgmIndex::bulk_load(&[]).unwrap();
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.level_count(), 0);
        assert!(idx.range(0, 5).unwrap().is_empty());
    }

    #[test]
    fn epsilon_trades_size_for_search() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i * i / 3, i)).collect();
        let mut dedup = pairs.clone();
        dedup.dedup_by_key(|p| p.0);
        let tight = PgmIndex::build(&dedup, 4.0).unwrap();
        let loose = PgmIndex::build(&dedup, 256.0).unwrap();
        assert!(
            tight.segment_count() > loose.segment_count(),
            "tight {} vs loose {}",
            tight.segment_count(),
            loose.segment_count()
        );
        check_point_lookups(&tight, &dedup[..500]);
        check_point_lookups(&loose, &dedup[..500]);
    }

    #[test]
    fn multi_level_construction() {
        // Enough curvature to force multiple segments and levels with tiny ε.
        let pairs: Vec<(u64, u64)> = (0..30_000u64)
            .map(|i| (i * i + (i % 7) * 1000, i))
            .collect();
        let mut dedup = pairs;
        dedup.sort_by_key(|p| p.0);
        dedup.dedup_by_key(|p| p.0);
        let idx = PgmIndex::build(&dedup, 2.0).unwrap();
        assert!(idx.level_count() >= 2, "levels = {}", idx.level_count());
        check_point_lookups(&idx, &dedup[..300]);
    }

    #[test]
    fn lower_bound_semantics() {
        let pairs: Vec<(u64, u64)> = vec![(10, 1), (20, 2), (30, 3)];
        let idx = PgmIndex::bulk_load(&pairs).unwrap();
        assert_eq!(idx.lower_bound(0), 0);
        assert_eq!(idx.lower_bound(10), 0);
        assert_eq!(idx.lower_bound(15), 1);
        assert_eq!(idx.lower_bound(30), 2);
        assert_eq!(idx.lower_bound(1000), 3);
    }

    #[test]
    fn exponential_keys_correct() {
        let pairs: Vec<(u64, u64)> = (0..50u32).map(|i| (1u64 << i, i as u64)).collect();
        let idx = PgmIndex::build(&pairs, 2.0).unwrap();
        check_point_lookups(&idx, &pairs);
    }

    #[test]
    fn read_only_mutations_rejected() {
        let mut idx = PgmIndex::bulk_load(&[(1, 10)]).unwrap();
        assert!(matches!(idx.insert(2, 20), Err(IndexError::Unsupported(_))));
        assert!(matches!(idx.delete(1), Err(IndexError::Unsupported(_))));
    }

    #[test]
    fn stats_report_segments() {
        let pairs = test_pairs(10_000);
        let idx = PgmIndex::build(&pairs, 16.0).unwrap();
        assert_eq!(idx.stats().model_count, idx.segment_count());
        assert!(idx.stats().build_work >= 10_000u64 / 2);
    }
}
