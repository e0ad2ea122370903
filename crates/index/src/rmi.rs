//! Two-level Recursive Model Index (RMI).
//!
//! The flagship learned index of Kraska et al. \[8]: "models … arranged in a
//! tree, with the prediction of a model being used to pick a more
//! specialized model recursively until the leaf model makes a final
//! prediction" (§II). This implementation uses a linear root model routing
//! to a configurable number of linear leaf models, each with exact error
//! bounds; [`Learned`] validates the window they predict and runs the
//! bounded last-mile search.
//!
//! Two knobs expose the paper's *training-cost* trade-off (Fig. 1d):
//!
//! * `leaf_count` — more leaf models cost more training work and memory but
//!   shrink error bounds (faster lookups);
//! * `sample_every` — fitting on a subsample cuts training work but loosens
//!   the fit (error bounds are still computed exactly, so lookups remain
//!   correct, just slower).

use crate::learned::{Learned, Model};
use crate::model::LinearModel;
use crate::{IndexError, Result};
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
        RmiModel::DEFAULT
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
pub type Rmi = Learned<RmiModel>;

/// The RMI's model: a linear root over `leaves.len()` linear leaves.
#[derive(Debug, Clone)]
pub struct RmiModel {
    root: LinearModel,
    leaves: Vec<Leaf>,
    config: RmiConfig,
    /// Number of keys the model was fitted to.
    n: usize,
}

/// The leaf the root routes `key` to, among `leaf_count` leaves over `n > 0`
/// keys. Monotone in `key`, so each leaf covers a contiguous key range.
#[inline]
fn leaf_index(root: &LinearModel, n: usize, leaf_count: usize, key: u64) -> usize {
    let pos = root.predict(key).clamp(0.0, (n - 1) as f64);
    ((pos / n as f64) * leaf_count as f64) as usize % leaf_count
}

impl Model for RmiModel {
    type Config = RmiConfig;
    type Route = usize;
    const NAME: &'static str = "rmi";
    const DEFAULT: RmiConfig = RmiConfig {
        leaf_count: 1024,
        sample_every: 1,
    };

    fn fit(keys: &[u64], config: RmiConfig) -> Result<(Self, u64)> {
        if config.leaf_count == 0 || config.sample_every == 0 {
            return Err(IndexError::Unsupported(
                "leaf_count and sample_every must be positive",
            ));
        }
        let n = keys.len();
        let mut work = 0u64;

        // Root model: fit key -> position over a subsample, then scale to
        // leaf indices during routing.
        let root_sample: Vec<u64> = keys.iter().copied().step_by(config.sample_every).collect();
        let root = LinearModel::fit(&root_sample);
        work += root_sample.len() as u64;

        let leaf_count = config.leaf_count.min(n.max(1));
        // Partition keys by root routing.
        let mut leaf_bounds = vec![(usize::MAX, 0usize); leaf_count]; // (start, end)
        for (i, &k) in keys.iter().enumerate() {
            let b = &mut leaf_bounds[leaf_index(&root, n, leaf_count, k)];
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

        let model = RmiModel {
            root,
            leaves,
            config,
            n,
        };
        Ok((model, work))
    }

    #[inline]
    fn route(&self, key: u64) -> usize {
        leaf_index(&self.root, self.n, self.leaves.len(), key)
    }

    /// The leaf's prediction widened by its error bounds. It provably
    /// brackets the keys the leaf was trained on; a probe far outside them
    /// saturates at 0 or `usize::MAX` (float-to-integer casts do), which
    /// [`Learned`] clamps.
    #[inline]
    fn window(&self, leaf: usize, key: u64) -> (usize, usize) {
        let leaf = &self.leaves[leaf];
        let pred = leaf.model.predict(key);
        let lo = (pred + leaf.err_lo as f64).floor() as usize;
        let hi = (pred + leaf.err_hi as f64).ceil() as usize;
        (lo, hi.saturating_add(1))
    }

    fn probe_cost(&self, key: u64) -> u64 {
        if self.n == 0 {
            return 1;
        }
        let leaf = &self.leaves[self.route(key)];
        let window = (leaf.err_hi - leaf.err_lo).max(0) as u64;
        // Root model + leaf model + last-mile search of this leaf's window.
        2 + crate::bsearch_cost(window)
    }

    fn size_bytes(&self) -> usize {
        self.leaves.len() * 32 + 32
    }

    fn model_count(&self) -> usize {
        self.leaves.len() + 1
    }
}

impl Rmi {
    /// Builds an RMI with an explicit configuration.
    pub fn build(pairs: &[(u64, u64)], config: RmiConfig) -> Result<Self> {
        Learned::with_config(pairs, config)
    }

    /// The configuration used to build this index.
    pub fn config(&self) -> RmiConfig {
        self.model().config
    }

    /// Average error-window width across non-empty leaves (diagnostic).
    pub fn mean_error_window(&self) -> f64 {
        let widths: Vec<f64> = self
            .model()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};
    use crate::{BulkLoad, Index};

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
