//! Histograms: equi-width, equi-depth, and logarithmic latency histograms.
//!
//! Equi-width and equi-depth histograms double as the *traditional*
//! cardinality-estimation substrate in `lsbench-query` (the baseline the
//! paper's learned estimators are compared against), while
//! [`LatencyHistogram`] backs the per-interval latency bands of Fig. 1c.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Fixed-bucket equi-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquiWidthHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl EquiWidthHistogram {
    /// Creates a histogram with `buckets` equal-width buckets over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self> {
        if buckets == 0 {
            return Err(StatsError::InvalidParameter("bucket count must be > 0"));
        }
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(StatsError::InvalidParameter("lo must be < hi"));
        }
        Ok(EquiWidthHistogram {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
            underflow: 0,
            overflow: 0,
        })
    }

    /// Builds a histogram covering the data range of `data`.
    pub fn from_data(data: &[f64], buckets: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(StatsError::Empty);
        }
        let sorted = crate::sorted_copy(data)?;
        let lo = sorted[0];
        // Widen slightly so the max value falls inside the last bucket.
        let hi = sorted[sorted.len() - 1];
        let hi = if hi > lo {
            hi * (1.0 + 1e-12) + 1e-300
        } else {
            lo + 1.0
        };
        let mut h = Self::new(lo, hi, buckets)?;
        for &v in data {
            h.add(v);
        }
        Ok(h)
    }

    /// Adds one observation. Out-of-range values count as under/overflow.
    pub fn add(&mut self, v: f64) {
        self.total += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((v - self.lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Bucket counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive-exclusive bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Estimated fraction of values `< x`, assuming uniform spread in buckets.
    ///
    /// This is the standard histogram selectivity estimate used by
    /// traditional query optimizers.
    pub fn estimate_cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x <= self.lo {
            return self.underflow as f64 / self.total as f64 * if x < self.lo { 0.0 } else { 1.0 };
        }
        if x >= self.hi {
            return (self.total - self.overflow) as f64 / self.total as f64
                + if x > self.hi {
                    self.overflow as f64 / self.total as f64
                } else {
                    0.0
                };
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let pos = (x - self.lo) / width;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        let mut below = self.underflow;
        for &c in &self.counts[..full] {
            below += c;
        }
        let partial = if full < self.counts.len() {
            self.counts[full] as f64 * frac
        } else {
            0.0
        };
        (below as f64 + partial) / self.total as f64
    }

    /// Normalized counts as a probability vector (under/overflow excluded).
    pub fn probabilities(&self) -> Vec<f64> {
        let in_range = self.total - self.underflow - self.overflow;
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / in_range as f64)
            .collect()
    }

    /// Shannon entropy of the bucket distribution, in bits.
    ///
    /// Used by the workload quality scorer: uniform data maximizes entropy,
    /// skewed data lowers it.
    pub fn entropy_bits(&self) -> f64 {
        self.probabilities()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }
}

/// Equi-depth (equi-height) histogram: bucket boundaries chosen so each
/// bucket holds (approximately) the same number of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquiDepthHistogram {
    /// `buckets + 1` boundaries; bucket `i` covers `[bounds[i], bounds[i+1])`.
    bounds: Vec<f64>,
    /// Samples per bucket.
    depth: Vec<u64>,
    total: u64,
}

impl EquiDepthHistogram {
    /// Builds an equi-depth histogram with `buckets` buckets from `data`.
    pub fn from_data(data: &[f64], buckets: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(StatsError::Empty);
        }
        if buckets == 0 {
            return Err(StatsError::InvalidParameter("bucket count must be > 0"));
        }
        let sorted = crate::sorted_copy(data)?;
        let n = sorted.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut depth = Vec::with_capacity(buckets);
        bounds.push(sorted[0]);
        let mut prev = 0usize;
        for b in 1..=buckets {
            let end = b * n / buckets;
            depth.push((end - prev) as u64);
            if b < buckets {
                bounds.push(sorted[end]);
            } else {
                bounds.push(sorted[n - 1]);
            }
            prev = end;
        }
        Ok(EquiDepthHistogram {
            bounds,
            depth,
            total: n as u64,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.depth.len()
    }

    /// Bucket boundaries (`buckets + 1` values, ascending).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimated fraction of values `< x` with intra-bucket interpolation.
    pub fn estimate_cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let last = self.bounds.len() - 1;
        if x <= self.bounds[0] {
            return 0.0;
        }
        if x >= self.bounds[last] {
            return 1.0;
        }
        // Find bucket containing x.
        let mut below = 0u64;
        for (i, &d) in self.depth.iter().enumerate() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if x < hi {
                let frac = if hi > lo { (x - lo) / (hi - lo) } else { 0.5 };
                return (below as f64 + d as f64 * frac) / self.total as f64;
            }
            below += d;
        }
        1.0
    }

    /// Estimated selectivity of the range predicate `lo <= v < hi`.
    pub fn estimate_range(&self, lo: f64, hi: f64) -> f64 {
        (self.estimate_cdf(hi) - self.estimate_cdf(lo)).max(0.0)
    }
}

/// Logarithmically-bucketed latency histogram (HDR-style, base-2 sub-buckets).
///
/// Records non-negative integer latencies (e.g. nanoseconds or virtual
/// ticks) with bounded relative error, supporting quantile queries. Used by
/// the driver to keep full-run latency distributions cheaply.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyHistogram {
    /// Sub-buckets per power-of-two band.
    sub_buckets: usize,
    counts: Vec<u64>,
    total: u64,
    max_recorded: u64,
}

/// The fields as stored, before [`LatencyHistogram`] has checked them.
#[derive(Deserialize)]
struct StoredLatencyHistogram {
    sub_buckets: usize,
    counts: Vec<u64>,
    total: u64,
    max_recorded: u64,
}

/// A stored histogram comes from outside the program (an archived
/// artifact anyone can edit), so it is refused unless the bucket
/// arithmetic is defined on it: a non-zero power-of-two resolution, no
/// slot beyond the one `u64::MAX` maps to, and `total` the sum of the
/// counts.
impl Deserialize for LatencyHistogram {
    fn read(r: &mut serde::Reader<'_>) -> std::result::Result<Self, serde::DeError> {
        let stored = StoredLatencyHistogram::read(r)?;
        let refuse = |what| serde::DeError::custom(StatsError::InvalidParameter(what).to_string());
        if !stored.sub_buckets.is_power_of_two() {
            return Err(refuse("histogram sub_buckets must be a power of two"));
        }
        let hist = LatencyHistogram {
            sub_buckets: stored.sub_buckets,
            counts: stored.counts,
            total: stored.total,
            max_recorded: stored.max_recorded,
        };
        if hist.counts.len() > hist.index_of(u64::MAX) + 1 {
            return Err(refuse("histogram has slots beyond the u64 range"));
        }
        let sum = hist
            .counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c));
        if sum != Some(hist.total) {
            return Err(refuse("histogram total must equal the sum of its counts"));
        }
        Ok(hist)
    }
}

impl LatencyHistogram {
    /// Default number of sub-buckets per octave (≈1.5% relative error).
    pub const DEFAULT_SUB_BUCKETS: usize = 64;

    /// Creates an empty histogram with [`Self::DEFAULT_SUB_BUCKETS`].
    pub fn new() -> Self {
        Self::with_sub_buckets(Self::DEFAULT_SUB_BUCKETS)
    }

    /// Creates an empty histogram with `sub_buckets` per octave.
    ///
    /// # Panics
    /// Panics if `sub_buckets` is not a power of two or is zero.
    pub fn with_sub_buckets(sub_buckets: usize) -> Self {
        assert!(
            sub_buckets.is_power_of_two(),
            "sub_buckets must be a power of two"
        );
        LatencyHistogram {
            sub_buckets,
            counts: Vec::new(),
            total: 0,
            max_recorded: 0,
        }
    }

    fn index_of(&self, v: u64) -> usize {
        if v < self.sub_buckets as u64 {
            return v as usize;
        }
        // Band = position of highest set bit above the sub-bucket resolution.
        let sb_bits = self.sub_buckets.trailing_zeros();
        let msb = 63 - v.leading_zeros();
        let band = msb - sb_bits;
        let shifted = (v >> band) as usize; // in [sub_buckets, 2*sub_buckets)
        (band as usize + 1) * self.sub_buckets + (shifted - self.sub_buckets)
    }

    /// Lowest value that maps to slot `idx` (inverse of `index_of`).
    fn value_of(&self, idx: usize) -> u64 {
        if idx < self.sub_buckets {
            return idx as u64;
        }
        let band = idx / self.sub_buckets - 1;
        let within = idx % self.sub_buckets;
        ((self.sub_buckets + within) as u64) << band
    }

    /// Records one latency observation.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v`: one bucket lookup,
    /// whatever `n` is. `n = 0` records nothing.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.max_recorded = self.max_recorded.max(v);
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max_recorded
    }

    /// Value at quantile `q` in `[0, 1]` (lower bound of the containing bucket).
    pub fn quantile(&self, q: f64) -> Result<u64> {
        if self.total == 0 {
            return Err(StatsError::Empty);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter("quantile must be in [0, 1]"));
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Ok(self.value_of(idx));
            }
        }
        Ok(self.max_recorded)
    }

    /// Number of recorded values strictly greater than `threshold`.
    ///
    /// This is the SLA-violation counter of Fig. 1c: queries whose latency
    /// exceeds the SLA threshold.
    pub fn count_above(&self, threshold: u64) -> u64 {
        let mut above = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if self.value_of(idx) > threshold {
                above += c;
            }
        }
        above
    }

    /// Merges another histogram with the same sub-bucket resolution.
    pub fn merge(&mut self, other: &LatencyHistogram) -> Result<()> {
        if self.sub_buckets != other.sub_buckets {
            return Err(StatsError::InvalidParameter(
                "cannot merge histograms with different resolutions",
            ));
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_recorded = self.max_recorded.max(other.max_recorded);
        Ok(())
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_width_counts_and_bounds() {
        let mut h = EquiWidthHistogram::new(0.0, 10.0, 5).unwrap();
        for v in [0.5, 1.5, 2.5, 2.6, 9.9] {
            h.add(v);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 0, 1]);
        assert_eq!(h.total(), 5);
        let (lo, hi) = h.bucket_bounds(2);
        assert_eq!((lo, hi), (4.0, 6.0));
    }

    #[test]
    fn equi_width_overflow_underflow() {
        let mut h = EquiWidthHistogram::new(0.0, 1.0, 2).unwrap();
        h.add(-1.0);
        h.add(2.0);
        h.add(0.5);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
    }

    #[test]
    fn equi_width_rejects_bad_params() {
        assert!(EquiWidthHistogram::new(0.0, 1.0, 0).is_err());
        assert!(EquiWidthHistogram::new(1.0, 1.0, 4).is_err());
        assert!(EquiWidthHistogram::new(2.0, 1.0, 4).is_err());
    }

    #[test]
    fn equi_width_from_data_covers_all() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = EquiWidthHistogram::from_data(&data, 10).unwrap();
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn equi_width_cdf_monotone() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let h = EquiWidthHistogram::from_data(&data, 32).unwrap();
        let mut prev = -1.0;
        for i in 0..50 {
            let x = i as f64 * 0.7;
            let c = h.estimate_cdf(x);
            assert!(c >= prev - 1e-12, "cdf not monotone at {x}");
            assert!((0.0..=1.0 + 1e-9).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn entropy_uniform_vs_skewed() {
        let uniform: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let skewed: Vec<f64> = (0..1024)
            .map(|i| if i < 1000 { 1.0 } else { i as f64 })
            .collect();
        let hu = EquiWidthHistogram::from_data(&uniform, 16).unwrap();
        let hs = EquiWidthHistogram::from_data(&skewed, 16).unwrap();
        assert!(hu.entropy_bits() > hs.entropy_bits());
        assert!(hu.entropy_bits() <= 4.0 + 1e-9); // log2(16)
    }

    #[test]
    fn equi_depth_even_buckets() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = EquiDepthHistogram::from_data(&data, 4).unwrap();
        assert_eq!(h.buckets(), 4);
        assert_eq!(h.bounds().len(), 5);
        // Each bucket holds 25 samples.
        assert!((h.estimate_cdf(25.0) - 0.25).abs() < 0.02);
        assert!((h.estimate_cdf(50.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn equi_depth_skewed_adapts() {
        // 90% of mass at small values: equi-depth boundaries concentrate there.
        let mut data: Vec<f64> = (0..900).map(|i| i as f64 / 900.0).collect();
        data.extend((0..100).map(|i| 100.0 + i as f64));
        let h = EquiDepthHistogram::from_data(&data, 10).unwrap();
        // 9 of 10 buckets should be below 1.0.
        let below_one = h.bounds().iter().filter(|&&b| b <= 1.0).count();
        assert!(below_one >= 9, "bounds {:?}", h.bounds());
    }

    #[test]
    fn equi_depth_range_estimate() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = EquiDepthHistogram::from_data(&data, 20).unwrap();
        let sel = h.estimate_range(100.0, 300.0);
        assert!((sel - 0.2).abs() < 0.03, "sel = {sel}");
    }

    #[test]
    fn equi_depth_duplicate_heavy() {
        let data = vec![5.0; 100];
        let h = EquiDepthHistogram::from_data(&data, 4).unwrap();
        assert_eq!(h.estimate_cdf(4.9), 0.0);
        assert_eq!(h.estimate_cdf(5.1), 1.0);
    }

    #[test]
    fn latency_histogram_exact_small_values() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 3, 10, 63] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        assert_eq!(h.quantile(1.0).unwrap(), 63);
        assert_eq!(h.count_above(3), 2);
    }

    #[test]
    fn latency_histogram_relative_error() {
        let mut h = LatencyHistogram::new();
        let values = [100u64, 1_000, 10_000, 1_000_000, 123_456_789];
        for &v in &values {
            h.record(v);
        }
        // Every quantile must come back within ~2% of a recorded value.
        for (i, &v) in values.iter().enumerate() {
            let q = (i as f64 + 0.5) / values.len() as f64;
            let got = h.quantile(q).unwrap();
            let rel = (got as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.02, "value {v} came back as {got} (rel err {rel})");
        }
    }

    #[test]
    fn latency_histogram_count_above() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(v * 100);
        }
        let above = h.count_above(50_000);
        // values 50100.. -> roughly 499 above; bucket granularity allows slack.
        assert!((above as i64 - 499).abs() < 20, "above = {above}");
    }

    #[test]
    fn latency_histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 2);
        assert_eq!(a.max(), 1_000_000);
        let mismatched = LatencyHistogram::with_sub_buckets(32);
        assert!(a.merge(&mismatched).is_err());
    }

    #[test]
    fn record_n_is_n_records() {
        let (mut many, mut one_by_one) = (LatencyHistogram::new(), LatencyHistogram::new());
        for (v, n) in [(0u64, 3u64), (17, 1), (1 << 40, 64), (1_000, 0), (17, 5)] {
            many.record_n(v, n);
            (0..n).for_each(|_| one_by_one.record(v));
            assert_eq!(many, one_by_one, "after {n} × {v}");
        }
        let before = many.clone();
        many.record_n(u64::MAX, 0);
        assert_eq!(many, before, "n = 0 grows no bucket and moves no maximum");
    }

    #[test]
    fn latency_histogram_empty_quantile_errors() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), Err(StatsError::Empty));
    }

    #[test]
    fn latency_index_value_roundtrip() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 40] {
            let idx = h.index_of(v);
            let lo = h.value_of(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            // Next slot's lower bound must exceed v.
            let hi = h.value_of(idx + 1);
            assert!(hi > v, "hi {hi} <= v {v}");
        }
    }
}
