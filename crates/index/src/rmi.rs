//! Two-level Recursive Model Index (RMI).
//!
//! The flagship learned index of Kraska et al. \[8]: "models … arranged in a
//! tree, with the prediction of a model being used to pick a more
//! specialized model recursively until the leaf model makes a final
//! prediction" (§II). This implementation uses a linear root model routing
//! to a configurable number of linear leaf models, each with exact error
//! bounds, and a bounded binary search for the last mile.
//!
//! Two knobs expose the paper's *training-cost* trade-off (Fig. 1d):
//!
//! * `leaf_count` — more leaf models cost more training work and memory but
//!   shrink error bounds (faster lookups);
//! * `sample_every` — fitting on a subsample cuts training work but loosens
//!   the fit (error bounds are still computed exactly, so lookups remain
//!   correct, just slower).

use crate::model::LinearModel;
use crate::{check_sorted, BulkLoad, Index, IndexError, IndexStats, Result};
use serde::{Deserialize, Serialize};

/// Configuration for RMI construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RmiConfig {
    /// Number of second-level (leaf) models.
    pub leaf_count: usize,
    /// Train each leaf on every `sample_every`-th key (1 = all keys).
    pub sample_every: usize,
}

impl Default for RmiConfig {
    fn default() -> Self {
        RmiConfig {
            leaf_count: 1024,
            sample_every: 1,
        }
    }
}

/// A leaf model with its exact error bounds.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    model: LinearModel,
    /// Smallest signed error `actual - predicted` over the leaf's keys.
    err_lo: i64,
    /// Largest signed error over the leaf's keys.
    err_hi: i64,
}

/// Two-level recursive model index over sorted `u64` pairs.
#[derive(Debug, Clone)]
pub struct Rmi {
    keys: Vec<u64>,
    values: Vec<u64>,
    root: LinearModel,
    leaves: Vec<Leaf>,
    config: RmiConfig,
    build_work: u64,
}

impl Rmi {
    /// Builds an RMI with an explicit configuration.
    pub fn build(pairs: &[(u64, u64)], config: RmiConfig) -> Result<Self> {
        if config.leaf_count == 0 || config.sample_every == 0 {
            return Err(IndexError::Unsupported(
                "leaf_count and sample_every must be positive",
            ));
        }
        check_sorted(pairs)?;
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let values: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let n = keys.len();
        let mut work = 0u64;

        // Root model: fit key -> position over a subsample, then scale to
        // leaf indices during routing.
        let root_sample: Vec<u64> = keys.iter().copied().step_by(config.sample_every).collect();
        let root = LinearModel::fit(&root_sample);
        work += root_sample.len() as u64;

        let leaf_count = config.leaf_count.min(n.max(1));
        // Partition keys by root routing (routing is monotone in key, so
        // each leaf covers a contiguous range).
        let route = |key: u64| -> usize {
            if n == 0 {
                return 0;
            }
            let pos = root.predict(key).clamp(0.0, (n - 1) as f64);
            ((pos / n as f64) * leaf_count as f64) as usize % leaf_count
        };
        let mut leaf_bounds = vec![(usize::MAX, 0usize); leaf_count]; // (start, end)
        for (i, &k) in keys.iter().enumerate() {
            let l = route(k);
            let b = &mut leaf_bounds[l];
            if b.0 == usize::MAX {
                b.0 = i;
            }
            b.1 = i + 1;
        }
        work += n as u64;

        let mut leaves = Vec::with_capacity(leaf_count);
        for &(start, end) in &leaf_bounds {
            if start == usize::MAX {
                leaves.push(Leaf {
                    model: LinearModel::ZERO,
                    err_lo: 0,
                    err_hi: 0,
                });
                continue;
            }
            let slice = &keys[start..end];
            // Fit on a subsample (training cost knob).
            let sampled: Vec<u64> = slice.iter().copied().step_by(config.sample_every).collect();
            let local = LinearModel::fit(&sampled);
            work += sampled.len() as u64;
            // Lift local positions (0..sample len) to absolute positions: the
            // model was fit against subsampled local indices, so rescale.
            let scale = if sampled.len() > 1 {
                (slice.len() as f64 - 1.0) / (sampled.len() as f64 - 1.0).max(1.0)
            } else {
                1.0
            };
            let model = LinearModel {
                slope: local.slope * scale,
                intercept: local.intercept * scale + start as f64,
            };
            // Exact error bounds over all covered keys (single cheap pass).
            let mut err_lo = i64::MAX;
            let mut err_hi = i64::MIN;
            for (off, &k) in slice.iter().enumerate() {
                let actual = (start + off) as f64;
                let err = (actual - model.predict(k)).round() as i64;
                err_lo = err_lo.min(err);
                err_hi = err_hi.max(err);
            }
            work += slice.len() as u64 / 4; // bounds pass is cheaper than fitting
            leaves.push(Leaf {
                model,
                err_lo,
                err_hi,
            });
        }

        Ok(Rmi {
            keys,
            values,
            root,
            leaves,
            config,
            build_work: work.max(1),
        })
    }

    /// The configuration used to build this index.
    pub fn config(&self) -> RmiConfig {
        self.config
    }

    /// Average error-window width across non-empty leaves (diagnostic).
    pub fn mean_error_window(&self) -> f64 {
        let widths: Vec<f64> = self
            .leaves
            .iter()
            .filter(|l| l.err_hi >= l.err_lo)
            .map(|l| (l.err_hi - l.err_lo) as f64)
            .collect();
        if widths.is_empty() {
            0.0
        } else {
            widths.iter().sum::<f64>() / widths.len() as f64
        }
    }

    #[inline]
    fn leaf_of(&self, key: u64) -> &Leaf {
        let n = self.keys.len();
        debug_assert!(n > 0);
        let pos = self.root.predict(key).clamp(0.0, (n - 1) as f64);
        let idx = ((pos / n as f64) * self.leaves.len() as f64) as usize % self.leaves.len();
        &self.leaves[idx]
    }

    /// The `[lo, hi)` slice of `keys` guaranteed to bracket `key`'s lower
    /// bound: the leaf model's prediction widened by its error bounds.
    ///
    /// The window provably brackets the boundary for keys the leaf was
    /// trained on; for other keys it may be off, so it is widened whenever
    /// the bracket is not demonstrably valid: after the fixups,
    /// `keys[lo-1] < key` (or `lo == 0`) and `keys[hi-1] >= key`
    /// (or `hi == n`).
    #[inline]
    fn window(&self, key: u64) -> (usize, usize) {
        let (lo, hi) = self.raw_window(key);
        self.fixup_window(lo, hi, key)
    }

    /// The model's predicted `[lo, hi)` bracket, before validation. Only
    /// evaluates models — never touches the key array.
    #[inline]
    fn raw_window(&self, key: u64) -> (usize, usize) {
        let n = self.keys.len();
        let leaf = self.leaf_of(key);
        let pred = leaf.model.predict(key);
        let lo = (pred + leaf.err_lo as f64).floor().max(0.0) as usize;
        let hi = ((pred + leaf.err_hi as f64).ceil().max(0.0) as usize + 1).min(n);
        (lo.min(hi), hi)
    }

    /// Validates a raw bracket against the key array (two boundary
    /// reads), widening when the model's bracket does not provably hold.
    #[inline]
    fn fixup_window(&self, mut lo: usize, mut hi: usize, key: u64) -> (usize, usize) {
        let n = self.keys.len();
        if lo > 0 && self.keys[lo - 1] >= key {
            lo = 0;
        }
        if hi < n && self.keys[hi - 1] < key {
            hi = n;
        }
        (lo.min(hi), hi)
    }

    /// Position of the first key `>= key` (lower bound), using the model
    /// plus a bounded binary search.
    pub fn lower_bound(&self, key: u64) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        let (lo, hi) = self.window(key);
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }
}

impl BulkLoad for Rmi {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        Rmi::build(pairs, RmiConfig::default())
    }
}

impl Index for Rmi {
    fn name(&self) -> &'static str {
        "rmi"
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
            "RMI is read-only; wrap in DeltaIndex for updates",
        ))
    }

    fn delete(&mut self, _key: u64) -> Result<Option<u64>> {
        Err(IndexError::Unsupported(
            "RMI is read-only; wrap in DeltaIndex for updates",
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
            // Models only; the sorted data arrays are the dataset itself,
            // but an index owns copies here, so count them.
            size_bytes: self.keys.len() * 16 + self.leaves.len() * 32 + 32,
            build_work: self.build_work(),
            model_count: self.leaves.len() + 1,
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        if self.keys.is_empty() {
            return 1;
        }
        let leaf = self.leaf_of(key);
        let window = (leaf.err_hi - leaf.err_lo).max(0) as u64;
        // Root model + leaf model + last-mile search of this leaf's window.
        2 + crate::bsearch_cost(window)
    }

    /// Batched probes in two passes: evaluate every model in the group
    /// first (the models are hot — only the key-array windows miss
    /// cache), then resolve all the last-mile searches in lockstep with
    /// [`crate::search::lower_bound_group`], which advances each search
    /// one halving step per round and prefetches its next probe. A lone
    /// [`Index::get`] must eat its window misses serially; the group's
    /// are independent and overlap.
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        use crate::search::{lower_bound_group, GROUP};
        out.reserve(keys.len());
        if self.keys.is_empty() {
            out.extend(keys.iter().map(|_| None));
            return;
        }
        let n = self.keys.len();
        let mut windows = [(0usize, 0usize); GROUP];
        let mut pos = [0usize; GROUP];
        for chunk in keys.chunks(GROUP) {
            let g = chunk.len();
            // Model pass: predict every bracket and start the loads of
            // the boundary lines the validation pass is about to read.
            for (w, &key) in windows[..g].iter_mut().zip(chunk) {
                let (lo, hi) = self.raw_window(key);
                *w = (lo, hi);
                if lo > 0 {
                    crate::prefetch_read(&self.keys[lo - 1]);
                }
                if hi < n && hi > 0 {
                    crate::prefetch_read(&self.keys[hi - 1]);
                }
            }
            // Validation pass: the boundary reads land on lines already
            // in flight.
            for (w, &key) in windows[..g].iter_mut().zip(chunk) {
                *w = self.fixup_window(w.0, w.1, key);
            }
            lower_bound_group(&self.keys, chunk, &windows[..g], &mut pos[..g]);
            // The values array is a separate allocation — overlap the
            // hits' value misses before reading any of them.
            for &p in &pos[..g] {
                if p < n {
                    crate::prefetch_read(&self.values[p]);
                }
            }
            for (&p, &key) in pos[..g].iter().zip(chunk) {
                out.push(if p < n && self.keys[p] == key {
                    Some(self.values[p])
                } else {
                    None
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};

    #[test]
    fn conformance_various_sizes() {
        for n in [1, 2, 100, 1000, 10_000] {
            let pairs = test_pairs(n);
            let idx = Rmi::bulk_load(&pairs).unwrap();
            assert_eq!(idx.len(), pairs.len(), "n = {n}");
            check_point_lookups(&idx, &pairs);
            check_ranges(&idx, &pairs);
        }
    }

    #[test]
    fn empty_index() {
        let idx = Rmi::bulk_load(&[]).unwrap();
        assert_eq!(idx.get(5), None);
        assert!(idx.range(0, 10).unwrap().is_empty());
        assert_eq!(idx.lower_bound(9), 0);
    }

    #[test]
    fn lower_bound_semantics() {
        let pairs: Vec<(u64, u64)> = vec![(10, 1), (20, 2), (30, 3)];
        let idx = Rmi::bulk_load(&pairs).unwrap();
        assert_eq!(idx.lower_bound(5), 0);
        assert_eq!(idx.lower_bound(10), 0);
        assert_eq!(idx.lower_bound(11), 1);
        assert_eq!(idx.lower_bound(30), 2);
        assert_eq!(idx.lower_bound(31), 3);
    }

    #[test]
    fn skewed_keys_still_correct() {
        // Exponentially spaced keys defeat a single linear model; leaves must
        // compensate via error bounds.
        let pairs: Vec<(u64, u64)> = (0..40u32).map(|i| (1u64 << i, i as u64)).collect();
        let idx = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 8,
                sample_every: 1,
            },
        )
        .unwrap();
        check_point_lookups(&idx, &pairs);
    }

    #[test]
    fn more_leaves_tighter_errors() {
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * i, i)).collect();
        let coarse = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 4,
                sample_every: 1,
            },
        )
        .unwrap();
        let fine = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 2048,
                sample_every: 1,
            },
        )
        .unwrap();
        assert!(
            fine.mean_error_window() < coarse.mean_error_window(),
            "fine {} vs coarse {}",
            fine.mean_error_window(),
            coarse.mean_error_window()
        );
        check_point_lookups(&fine, &pairs[..1000]);
        check_point_lookups(&coarse, &pairs[..1000]);
    }

    #[test]
    fn sampling_reduces_work_keeps_correctness() {
        let pairs = test_pairs(20_000);
        let full = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 256,
                sample_every: 1,
            },
        )
        .unwrap();
        let sampled = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 256,
                sample_every: 16,
            },
        )
        .unwrap();
        assert!(
            sampled.stats().build_work < full.stats().build_work,
            "sampled {} vs full {}",
            sampled.stats().build_work,
            full.stats().build_work
        );
        check_point_lookups(&sampled, &pairs);
        check_ranges(&sampled, &pairs);
    }

    #[test]
    fn read_only_mutations_rejected() {
        let mut idx = Rmi::bulk_load(&[(1, 10)]).unwrap();
        assert!(matches!(idx.insert(2, 20), Err(IndexError::Unsupported(_))));
        assert!(matches!(idx.delete(1), Err(IndexError::Unsupported(_))));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Rmi::build(
            &[(1, 1)],
            RmiConfig {
                leaf_count: 0,
                sample_every: 1
            }
        )
        .is_err());
        assert!(Rmi::build(
            &[(1, 1)],
            RmiConfig {
                leaf_count: 4,
                sample_every: 0
            }
        )
        .is_err());
    }

    #[test]
    fn stats_report_models() {
        let pairs = test_pairs(5000);
        let idx = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: 64,
                sample_every: 1,
            },
        )
        .unwrap();
        let s = idx.stats();
        assert_eq!(s.model_count, 65);
        assert!(s.build_work > 0);
    }
}
