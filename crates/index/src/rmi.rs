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
/// keys. Monotone in `key` (the root never slopes down), so each leaf
/// covers a contiguous key range.
///
/// `min` never bites, but unlike a `%` it is monotone and divides nothing.
/// Below 2^53 keys, `n - 1` and `n` are exact and the top position
/// `(n - 1) / n` rounds to at most 1 - 2^-53, the largest double below 1;
/// times a `leaf_count` below 2^53 the exact product lies more than half a
/// gap below `leaf_count` (on the double below it if that is a power of
/// two), so it rounds below `leaf_count`.
#[inline]
fn leaf_index(root: &LinearModel, n: usize, leaf_count: usize, key: u64) -> usize {
    let pos = root.predict(key).clamp(0.0, (n - 1) as f64);
    (((pos / n as f64) * leaf_count as f64) as usize).min(leaf_count - 1)
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
        let (n, every) = (keys.len(), config.sample_every);
        // A line through every `every`-th key, and how many that is: the
        // keys are fitted where they lie unless a sample is asked for.
        let mut sample = Vec::new();
        let mut fit_every = |keys: &[u64]| match every {
            1 => (LinearModel::fit(keys), keys.len()),
            _ => {
                sample.clear();
                sample.extend(keys.iter().step_by(every));
                (LinearModel::fit(&sample), sample.len())
            }
        };
        // Root model: fit key -> position, then scale to leaf indices
        // during routing.
        let (root, sampled) = fit_every(keys);
        debug_assert!(root.slope >= 0.0, "a root over sorted keys never falls");
        let leaf_count = config.leaf_count.min(n.max(1));
        let route = |key| leaf_index(&root, n, leaf_count, key);
        // Charged as if every key were routed; only the leaf ends are.
        let mut work = (sampled + n) as u64;
        let empty = Leaf {
            model: LinearModel::ZERO,
            err_lo: 0,
            err_hi: 0,
        };
        let mut leaves = vec![empty; leaf_count];
        let mut start = 0;
        while start < n {
            // The leaf's keys end at the first key routed past it: an
            // exponential, then a binary, search.
            let (leaf, rest, mut past) = (route(keys[start]), &keys[start..], 1);
            while past < rest.len() && route(rest[past]) == leaf {
                past *= 2;
            }
            let tail = &rest[past / 2 + 1..past.min(rest.len())];
            let slice = &rest[..past / 2 + 1 + tail.partition_point(|&k| route(k) == leaf)];
            let (local, sampled) = fit_every(slice);
            // Lift local positions (0..sampled) to absolute positions: the
            // model was fit against subsampled local indices, so rescale
            // (a line through one key is flat whatever the scale).
            let scale = (slice.len() as f64 - 1.0) / (sampled as f64 - 1.0).max(1.0);
            let model = LinearModel {
                slope: local.slope * scale,
                intercept: local.intercept * scale + start as f64,
            };
            // Exact error bounds over all covered keys: the extreme errors,
            // rounded once, since rounding is monotone.
            let (mut lo, mut hi, mut actual) = (f64::INFINITY, f64::NEG_INFINITY, start as f64);
            for &k in slice {
                let err = actual - model.predict(k);
                lo = if err < lo { err } else { lo };
                hi = if err > hi { err } else { hi };
                actual += 1.0;
            }
            leaves[leaf].model = model;
            (leaves[leaf].err_lo, leaves[leaf].err_hi) = (lo.round() as i64, hi.round() as i64);
            // The bounds pass is cheaper than fitting.
            work += (sampled + slice.len() / 4) as u64;
            start += slice.len();
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
    use proptest::prelude::*;

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

    /// The parent's route, which wraps with `%` where [`leaf_index`]
    /// clamps with `min`: what [`fit_reference`] partitions by.
    fn leaf_index_reference(root: &LinearModel, n: usize, leaf_count: usize, key: u64) -> usize {
        let pos = root.predict(key).clamp(0.0, (n - 1) as f64);
        ((pos / n as f64) * leaf_count as f64) as usize % leaf_count
    }

    /// The two-pass fit [`RmiModel::fit`] must equal bit for bit: it routes
    /// every key, copies every sample and rounds every error.
    fn fit_reference(keys: &[u64], config: RmiConfig) -> (RmiModel, u64) {
        let n = keys.len();
        let mut work = 0u64;
        let root_sample: Vec<u64> = keys.iter().copied().step_by(config.sample_every).collect();
        let root = LinearModel::fit(&root_sample);
        work += root_sample.len() as u64;
        let leaf_count = config.leaf_count.min(n.max(1));
        let mut leaf_bounds = vec![(usize::MAX, 0usize); leaf_count];
        for (i, &k) in keys.iter().enumerate() {
            let b = &mut leaf_bounds[leaf_index_reference(&root, n, leaf_count, k)];
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
            let sampled: Vec<u64> = slice.iter().copied().step_by(config.sample_every).collect();
            let local = LinearModel::fit(&sampled);
            work += sampled.len() as u64;
            let scale = if sampled.len() > 1 {
                (slice.len() as f64 - 1.0) / (sampled.len() as f64 - 1.0).max(1.0)
            } else {
                1.0
            };
            let model = LinearModel {
                slope: local.slope * scale,
                intercept: local.intercept * scale + start as f64,
            };
            let mut err_lo = i64::MAX;
            let mut err_hi = i64::MIN;
            for (off, &k) in slice.iter().enumerate() {
                let actual = (start + off) as f64;
                let err = (actual - model.predict(k)).round() as i64;
                err_lo = err_lo.min(err);
                err_hi = err_hi.max(err);
            }
            work += slice.len() as u64 / 4;
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
        (model, work)
    }

    /// What a fit decides, as bits: the root line, then every leaf's line
    /// and error bounds.
    fn bits(model: &RmiModel) -> Vec<[u64; 4]> {
        let root = [
            model.root.slope.to_bits(),
            model.root.intercept.to_bits(),
            0,
            0,
        ];
        let leaves = model.leaves.iter().map(|l| {
            let (lo, hi) = (l.err_lo as u64, l.err_hi as u64);
            [l.model.slope.to_bits(), l.model.intercept.to_bits(), lo, hi]
        });
        std::iter::once(root).chain(leaves).collect()
    }

    fn assert_fits_alike(keys: &[u64], config: RmiConfig, what: &str) {
        let (model, work) = RmiModel::fit(keys, config).unwrap();
        let (reference, reference_work) = fit_reference(keys, config);
        assert_eq!(work, reference_work, "{what} {config:?}: work");
        assert_eq!((model.n, model.config), (reference.n, reference.config));
        let (got, want) = (bits(&model), bits(&reference));
        assert_eq!(got.len(), want.len(), "{what} {config:?}: leaf count");
        // Row 0 is the root, row i the leaf i - 1.
        if let Some(row) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{what} {config:?}: row {row} is {:?}, the reference's {:?}",
                got[row], want[row]
            );
        }
    }

    /// `n` distinct sorted keys of every canonical shape over `[0, 10^9)`
    /// (fewer where a shape repeats itself too often to give `n`), and `n`
    /// exponentially spaced ones: each grows by a fixed fraction of itself,
    /// up to 2^50 for a thousand keys and 2^60 for a million.
    fn shaped_keys(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
        use lsbench_workload::dataset::Dataset;
        use lsbench_workload::keygen::{KeyDistribution, CANONICAL_DISTRIBUTIONS};
        let mut sets: Vec<(&'static str, Vec<u64>)> = CANONICAL_DISTRIBUTIONS
            .iter()
            .map(|shape| {
                let dist = KeyDistribution::from_canonical(shape.name).unwrap();
                let data = Dataset::generate(dist, 0, 1_000_000_000, n, seed).unwrap();
                (shape.name, data.keys().to_vec())
            })
            .collect();
        let step = (n / 32).max(1) as u64;
        let exponential = std::iter::successors(Some(0u64), |&k| Some(k + 1 + k / step));
        sets.push(("exponential", exponential.take(n).collect()));
        sets
    }

    /// The configurations the fit is held to the reference under: the
    /// default, sampled ones, and more leaves than keys.
    fn oracle_configs(n: usize) -> [RmiConfig; 4] {
        let config = |leaf_count, sample_every| RmiConfig {
            leaf_count,
            sample_every,
        };
        [
            RmiModel::DEFAULT,
            config(64, 16),
            config(4096, 3),
            config(2 * n + 1, 2),
        ]
    }

    #[test]
    fn fit_matches_the_reference() {
        for n in [0, 1, 2, 3, 1000, 100_000] {
            for (shape, keys) in shaped_keys(n, 7) {
                for config in oracle_configs(n) {
                    assert_fits_alike(&keys, config, &format!("{shape} × {}", keys.len()));
                }
            }
        }
    }

    /// The long form, run optimised in CI: a million keys of every shape
    /// from two seeds.
    #[test]
    #[ignore]
    fn fit_matches_the_reference_long() {
        for seed in [1, 2] {
            for (shape, keys) in shaped_keys(1_000_000, seed) {
                for config in oracle_configs(keys.len()) {
                    let what = format!("{shape} × {} (seed {seed})", keys.len());
                    assert_fits_alike(&keys, config, &what);
                }
            }
        }
    }

    /// Sorted distinct keys scattered over the key space, in one dense run,
    /// or up against `u64::MAX`.
    fn arb_sorted_keys() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            prop::collection::btree_set(any::<u64>(), 1..64)
                .prop_map(|set| set.into_iter().collect::<Vec<u64>>()),
            (0u64..1 << 40, 1u64..64).prop_map(|(k, n)| (k..k + n).collect()),
            prop::collection::btree_set(0u64..2000, 1..64).prop_map(|set| set
                .into_iter()
                .rev()
                .map(|d| u64::MAX - d)
                .collect()),
        ]
    }

    proptest! {
        /// Over any key count up to 2^40 and at most that many leaves, the
        /// top position routes below `leaf_count`, so wrapping with `%` and
        /// clamping with `min` pick the same leaf; and a root fitted to
        /// sorted keys never routes a larger key to a smaller leaf.
        #[test]
        fn leaf_index_stays_in_range_and_monotone(
            (n_bits, n_draw) in (0u32..=40, any::<u64>()),
            (leaf_bits, leaf_draw) in (0u32..=40, any::<u64>()),
            keys in arb_sorted_keys(),
            mut probes in prop::collection::vec(any::<u64>(), 0..64),
        ) {
            let n = 1 + (n_draw % (1u64 << n_bits)) as usize;
            let leaf_count = (1 + (leaf_draw % (1u64 << leaf_bits)) as usize).min(n);
            let top = (((n - 1) as f64 / n as f64) * leaf_count as f64) as usize;
            prop_assert!(top < leaf_count, "n {n}, {leaf_count} leaves: top routes to {top}");
            let root = LinearModel::fit(&keys);
            prop_assert!(root.slope >= 0.0, "root {root:?} of {keys:?}");
            probes.extend_from_slice(&keys);
            probes.extend([0, u64::MAX]);
            probes.sort_unstable();
            let mut last = 0;
            for &key in &probes {
                let leaf = leaf_index(&root, n, leaf_count, key);
                prop_assert_eq!(leaf, leaf_index_reference(&root, n, leaf_count, key));
                prop_assert!(leaf >= last, "key {key} routes to {leaf}, below {last}");
                last = leaf;
            }
        }
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
