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

use crate::learned::{Learned, Model};
use crate::model::{pla_segments, Segment};
use crate::{IndexError, Result};

/// Default ε for bulk loads via the [`crate::BulkLoad`] trait.
pub const DEFAULT_EPSILON: f64 = 32.0;

/// Multi-level ε-PLA learned index.
pub type PgmIndex = Learned<PgmModel>;

/// The PGM's model: levels of ε-PLA segments.
#[derive(Debug, Clone)]
pub struct PgmModel {
    /// `levels[0]` segments the data; `levels[i + 1]` segments the first
    /// keys of `levels[i]`. The last level has exactly one segment.
    levels: Vec<Vec<Segment>>,
    epsilon: f64,
}

impl PgmModel {
    /// Half-width of the window searched around a prediction.
    fn slack(&self) -> usize {
        (self.epsilon as usize).saturating_add(2)
    }

    fn segment_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Finds the index of the segment in `level` whose range covers `key`
    /// (the last segment with `first_key <= key`), given a predicted
    /// position from the level above.
    fn refine(&self, level: &[Segment], approx: usize, key: u64) -> usize {
        // The ε guarantee is relative to the level's own key list, so search
        // a ±(ε + 2) window around the prediction, then verify the result
        // and fall back to a full binary search if the window missed.
        let lo = approx.saturating_sub(self.slack());
        let hi = approx
            .saturating_add(self.slack())
            .saturating_add(1)
            .min(level.len());
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
}

impl Model for PgmModel {
    type Config = f64;
    type Route = usize;
    const NAME: &'static str = "pgm";
    const DEFAULT: f64 = DEFAULT_EPSILON;

    fn fit(keys: &[u64], epsilon: f64) -> Result<(Self, u64)> {
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(IndexError::Unsupported("epsilon must be non-negative"));
        }
        let mut levels = Vec::new();
        let mut work = 0u64;
        if !keys.is_empty() {
            let mut level = pla_segments(keys, epsilon);
            work += keys.len() as u64;
            while level.len() > 1 {
                let first_keys: Vec<u64> = level.iter().map(|s| s.first_key).collect();
                work += first_keys.len() as u64;
                levels.push(std::mem::replace(
                    &mut level,
                    pla_segments(&first_keys, epsilon),
                ));
                // Strictly increasing keys put at least two in every segment
                // but the last, so a level is smaller than the one below it.
                assert!(level.len() < first_keys.len(), "PLA level did not shrink");
            }
            levels.push(level);
        }
        Ok((PgmModel { levels, epsilon }, work))
    }

    /// Descends from the single top segment to the level-0 segment that
    /// covers `key`: each level predicts a segment of the level below.
    fn route(&self, key: u64) -> usize {
        let mut seg = 0usize;
        for depth in (1..self.levels.len()).rev() {
            let below = &self.levels[depth - 1];
            let approx = self.levels[depth][seg].predict(key).min(below.len() - 1);
            seg = self.refine(below, approx, key);
        }
        seg
    }

    /// The ±(ε + 2) positions around the level-0 segment's prediction.
    #[inline]
    fn window(&self, seg: usize, key: u64) -> (usize, usize) {
        let pred = self.levels[0][seg].predict(key);
        (
            pred.saturating_sub(self.slack()),
            pred.saturating_add(self.slack()).saturating_add(1),
        )
    }

    fn probe_cost(&self, _key: u64) -> u64 {
        // One model evaluation plus an ε-window search per level.
        let per_level = 1 + crate::bsearch_cost(self.epsilon as u64);
        (self.levels.len() as u64).max(1) * per_level
    }

    fn size_bytes(&self) -> usize {
        self.segment_count() * 48
    }

    fn model_count(&self) -> usize {
        self.segment_count()
    }
}

impl PgmIndex {
    /// Builds a PGM-index with the given ε (≥ 1 recommended).
    pub fn build(pairs: &[(u64, u64)], epsilon: f64) -> Result<Self> {
        Learned::with_config(pairs, epsilon)
    }

    /// The ε this index was built with.
    pub fn epsilon(&self) -> f64 {
        self.model().epsilon
    }

    /// Number of levels (1 for small datasets).
    pub fn level_count(&self) -> usize {
        self.model().levels.len()
    }

    /// Total segments across all levels.
    pub fn segment_count(&self) -> usize {
        self.model().segment_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};
    use crate::{BulkLoad, Index};

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
    fn unbounded_epsilon_is_one_segment() {
        let pairs: Vec<(u64, u64)> = (0..500u64).map(|i| (i * i, i)).collect();
        let idx = PgmIndex::build(&pairs, f64::INFINITY).unwrap();
        assert_eq!(idx.segment_count(), 1);
        assert!(idx.probe_cost(7) > 0);
        check_point_lookups(&idx, &pairs);
        check_ranges(&idx, &pairs);
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
