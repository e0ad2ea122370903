//! Dataset construction and growth.
//!
//! A [`Dataset`] is the database the system under test indexes: a sorted set
//! of unique `u64` keys with associated values. §III-A calls out "changing
//! data distributions and dataset size" as real-world behaviours benchmarks
//! miss, so datasets here support *growth batches* (new keys arriving over
//! time).

use crate::keygen::{KeyDistribution, KeyGenerator};
use crate::Result;

/// A sorted, deduplicated set of `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    keys: Vec<u64>,
    values: Vec<u64>,
}

impl Dataset {
    /// Builds a dataset of `n` *unique* keys drawn from `dist` over
    /// `[lo, hi)`. Draws until `n` unique keys are collected (or the domain
    /// is exhausted), then sorts.
    ///
    /// Values are derived from keys (`value = key.wrapping_mul(31)`), which
    /// keeps datasets cheap to verify in tests.
    pub fn generate(dist: KeyDistribution, lo: u64, hi: u64, n: usize, seed: u64) -> Result<Self> {
        let mut gen = KeyGenerator::new(dist, lo, hi, seed)?;
        let capacity = ((hi - lo) as usize).min(n);
        // Bound the rejection loop: heavily skewed distributions may not be
        // able to produce n unique keys in reasonable time.
        let max_draws = (n as u64).saturating_mul(50).max(1000);
        let mut keys = Vec::new();
        draw_distinct(&mut gen, &mut keys, capacity, max_draws);
        let values = keys.iter().map(|k| k.wrapping_mul(31)).collect();
        Ok(Dataset { keys, values })
    }

    /// Builds a dataset directly from keys (deduplicated and sorted here).
    pub fn from_keys(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let values = keys.iter().map(|k| k.wrapping_mul(31)).collect();
        Dataset { keys, values }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The values, aligned with [`Dataset::keys`].
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Sorted `(key, value)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().copied().zip(self.values.iter().copied())
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|idx| self.values[idx])
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// A uniform sample of `n` keys as `f64` for distribution-distance
    /// computations (deterministic stride sampling).
    pub fn sample_f64(&self, n: usize) -> Vec<f64> {
        if self.keys.is_empty() || n == 0 {
            return Vec::new();
        }
        let stride = (self.keys.len() as f64 / n as f64).max(1.0);
        let mut out = Vec::with_capacity(n);
        let mut pos = 0.0f64;
        while (pos as usize) < self.keys.len() && out.len() < n {
            out.push(self.keys[pos as usize] as f64);
            pos += stride;
        }
        out
    }

    /// Merges `batch` (new arrivals) into the dataset, keeping sort order
    /// and uniqueness. Returns how many keys were actually new.
    pub fn grow(&mut self, batch: &Dataset) -> usize {
        let before = self.keys.len();
        let mut merged_keys = Vec::with_capacity(self.keys.len() + batch.keys.len());
        let mut merged_vals = Vec::with_capacity(merged_keys.capacity());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() || j < batch.keys.len() {
            let take_self = match (self.keys.get(i), batch.keys.get(j)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        j += 1; // drop duplicate from batch
                        continue;
                    }
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_self {
                merged_keys.push(self.keys[i]);
                merged_vals.push(self.values[i]);
                i += 1;
            } else {
                merged_keys.push(batch.keys[j]);
                merged_vals.push(batch.values[j]);
                j += 1;
            }
        }
        self.keys = merged_keys;
        self.values = merged_vals;
        self.keys.len() - before
    }
}

/// Draws from `gen` until the sorted, duplicate-free `keys` hold `want` keys
/// or `max_draws` draws are spent.
///
/// The keys end up the ones a draw-by-draw insertion into a set would have
/// collected, after the same number of draws: a batch of `want - len` draws
/// adds at most that many keys, so the draw that completes the set is the
/// last of its batch, never one before. Sorting each batch and merging it
/// costs a fraction of hashing every draw.
fn draw_distinct(gen: &mut KeyGenerator, keys: &mut Vec<u64>, want: usize, max_draws: u64) {
    let mut draws = 0u64;
    let mut batch = Vec::new();
    while keys.len() < want && draws < max_draws {
        let n = ((want - keys.len()) as u64).min(max_draws - draws);
        draws += n;
        batch.clear();
        batch.extend((0..n).map(|_| gen.next_key()));
        batch.sort_unstable();
        batch.dedup();
        batch.retain(|k| keys.binary_search(k).is_err());
        // Merge from the back, in place: `batch` is sorted and new to `keys`.
        // The keys outlive the run they are built for: no spare capacity.
        let (mut i, mut j) = (keys.len(), batch.len());
        keys.reserve_exact(j);
        keys.resize(i + j, 0);
        while j > 0 {
            if i > 0 && keys[i - 1] > batch[j - 1] {
                keys[i + j - 1] = keys[i - 1];
                i -= 1;
            } else {
                keys[i + j - 1] = batch[j - 1];
                j -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_sorted_unique() {
        let d = Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, 10_000, 1).unwrap();
        assert_eq!(d.len(), 10_000);
        for w in d.keys().windows(2) {
            assert!(w[0] < w[1], "not sorted-unique");
        }
    }

    #[test]
    fn generate_small_domain_caps() {
        let d = Dataset::generate(KeyDistribution::Uniform, 0, 100, 10_000, 1).unwrap();
        assert!(d.len() <= 100);
        assert!(d.len() > 50, "should nearly exhaust the domain");
    }

    #[test]
    fn skewed_generation_terminates() {
        // zipf(2.0) concentrates on few keys; the draw bound must kick in.
        let d =
            Dataset::generate(KeyDistribution::Zipf { theta: 2.0 }, 0, 10_000, 5_000, 1).unwrap();
        assert!(!d.is_empty());
    }

    /// `Dataset::generate` as it was before batches: one hash-set insertion
    /// per draw.
    fn generate_draw_by_draw(dist: KeyDistribution, hi: u64, n: usize, seed: u64) -> Vec<u64> {
        let mut gen = KeyGenerator::new(dist, 0, hi, seed).unwrap();
        let capacity = (hi as usize).min(n);
        let mut set = std::collections::HashSet::with_capacity(capacity);
        let max_draws = (n as u64).saturating_mul(50).max(1000);
        let mut draws = 0u64;
        while set.len() < capacity && draws < max_draws {
            set.insert(gen.next_key());
            draws += 1;
        }
        let mut keys: Vec<u64> = set.into_iter().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn batched_draws_collect_the_keys_of_single_draws() {
        let lognormal = KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        };
        let cases = [
            // The benchmark's datasets, then a domain smaller than the
            // request, a distribution that hits the draw cap far short of
            // it, and one that needs many shrinking batches.
            (lognormal.clone(), 1_000_000_000, 1_000_000, 42),
            (lognormal.clone(), 1_000_000_000, 250_000, 43),
            (lognormal, 1_000_000_000, 100_000, 44),
            (KeyDistribution::Uniform, 1_000_000_000, 1_000_000, 45),
            (KeyDistribution::Uniform, 100, 10_000, 1),
            (KeyDistribution::Zipf { theta: 2.0 }, 10_000, 5_000, 1),
            (KeyDistribution::Zipf { theta: 0.99 }, 1_000_000, 100_000, 2),
        ];
        for (dist, hi, n, seed) in cases {
            let d = Dataset::generate(dist.clone(), 0, hi, n, seed).unwrap();
            let expected = generate_draw_by_draw(dist.clone(), hi, n, seed);
            assert!(d.keys() == expected, "{dist:?} {n} of {hi}");
            assert!(d.pairs().all(|(k, v)| v == k.wrapping_mul(31)));
        }
    }

    #[test]
    fn values_derived_from_keys() {
        let d = Dataset::from_keys(vec![3, 1, 2, 2]);
        assert_eq!(d.keys(), &[1, 2, 3]);
        assert_eq!(d.get(2), Some(62));
        assert_eq!(d.get(4), None);
        assert!(d.contains(1));
        assert!(!d.contains(99));
    }

    #[test]
    fn grow_merges_sorted() {
        let mut d = Dataset::from_keys(vec![1, 5, 9]);
        let batch = Dataset::from_keys(vec![2, 5, 10]);
        let added = d.grow(&batch);
        assert_eq!(added, 2);
        assert_eq!(d.keys(), &[1, 2, 5, 9, 10]);
        // Values stay aligned.
        for (k, v) in d.pairs() {
            assert_eq!(v, k.wrapping_mul(31));
        }
    }

    #[test]
    fn grow_with_empty_batch() {
        let mut d = Dataset::from_keys(vec![1, 2]);
        let added = d.grow(&Dataset::from_keys(vec![]));
        assert_eq!(added, 0);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn sample_f64_spans_dataset() {
        let d = Dataset::from_keys((0..1000).collect());
        let s = d.sample_f64(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0.0);
        assert!(*s.last().unwrap() > 900.0);
    }

    #[test]
    fn sample_f64_edge_cases() {
        let d = Dataset::from_keys(vec![]);
        assert!(d.sample_f64(10).is_empty());
        let d = Dataset::from_keys(vec![5]);
        assert_eq!(d.sample_f64(10), vec![5.0]);
    }
}
