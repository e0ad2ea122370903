//! Models for learned indexes: linear regression and ε-bounded
//! piecewise-linear approximation (PLA).
//!
//! A learned index is "a model over the data to capture the distribution's
//! characteristics" (§II): concretely, a model of the CDF mapping key →
//! position. This module provides the two model families every learned
//! index in this crate builds on:
//!
//! * [`LinearModel`] — least-squares `pos ≈ slope · key + intercept`, the
//!   leaf model of the RMI and the spline segments.
//! * [`pla_segments`] — an optimal-in-size greedy ε-PLA using the
//!   shrinking-cone algorithm (as in the PGM-index and FITing-tree): each
//!   segment guarantees `|predicted − actual| ≤ ε`.

use serde::{Deserialize, Serialize};

/// A linear model `pos = slope * key + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Slope of the regression line.
    pub slope: f64,
    /// Intercept of the regression line.
    pub intercept: f64,
}

impl LinearModel {
    /// Identity-ish default: predicts position 0 for everything.
    pub const ZERO: LinearModel = LinearModel {
        slope: 0.0,
        intercept: 0.0,
    };

    /// Least-squares fit of positions `0..keys.len()` against `keys`.
    ///
    /// `keys` must be sorted ascending (every caller fits CDFs over sorted
    /// data). Returns [`LinearModel::ZERO`] for empty input and a constant
    /// model for a single key or all-equal keys.
    pub fn fit(keys: &[u64]) -> LinearModel {
        debug_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "fit requires sorted keys"
        );
        let n = keys.len();
        if n == 0 {
            return LinearModel::ZERO;
        }
        if n == 1 {
            return LinearModel {
                slope: 0.0,
                intercept: 0.0,
            };
        }
        // Center on the first key *in integer domain* so closely spaced huge
        // keys (e.g. near u64::MAX) keep their spacing exactly; only the
        // centered offsets are converted to f64.
        let base = keys[0];
        let nf = n as f64;
        let mean_x = keys.iter().map(|&k| (k - base) as f64).sum::<f64>() / nf;
        let mean_y = (nf - 1.0) / 2.0;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (i, &k) in keys.iter().enumerate() {
            let dx = (k - base) as f64 - mean_x;
            let dy = i as f64 - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
        }
        if sxx == 0.0 {
            return LinearModel {
                slope: 0.0,
                intercept: mean_y,
            };
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x - slope * base as f64;
        LinearModel { slope, intercept }
    }

    /// Fits a model through two `(key, pos)` points.
    pub fn through(k0: u64, p0: f64, k1: u64, p1: f64) -> LinearModel {
        if k1 == k0 {
            return LinearModel {
                slope: 0.0,
                intercept: p0,
            };
        }
        let slope = (p1 - p0) / (k1 as f64 - k0 as f64);
        LinearModel {
            slope,
            intercept: p0 - slope * k0 as f64,
        }
    }

    /// Predicted (real-valued) position of `key`.
    #[inline]
    pub fn predict(&self, key: u64) -> f64 {
        self.slope * key as f64 + self.intercept
    }

    /// Predicted position clamped into `[0, n)` as an index.
    #[inline]
    pub fn predict_clamped(&self, key: u64, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let p = self.predict(key);
        if p <= 0.0 {
            0
        } else {
            (p as usize).min(n - 1)
        }
    }

    /// Maximum absolute prediction error over `keys` (positions `0..n`).
    pub fn max_error(&self, keys: &[u64]) -> f64 {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (self.predict(k) - i as f64).abs())
            .fold(0.0, f64::max)
    }
}

/// One ε-bounded PLA segment covering keys at positions
/// `[start_pos, start_pos + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// First key covered by this segment.
    pub first_key: u64,
    /// Position of `first_key` in the underlying array.
    pub start_pos: usize,
    /// Number of keys covered.
    pub len: usize,
    /// The segment's linear model (in absolute positions).
    pub model: LinearModel,
}

impl Segment {
    /// Predicted absolute position of `key`, clamped to the segment.
    #[inline]
    pub fn predict(&self, key: u64) -> usize {
        let p = self.model.predict(key);
        let lo = self.start_pos as f64;
        let hi = (self.start_pos + self.len - 1) as f64;
        p.clamp(lo, hi) as usize
    }
}

/// Greedy ε-PLA via the shrinking-cone method.
///
/// Produces segments such that for every key at position `i` within a
/// segment, `|model.predict(key) − i| ≤ epsilon`. `keys` must be sorted
/// ascending (duplicates allowed but degrade to per-key segments; strictly
/// increasing keys put at least two in every segment but the last).
///
/// This is the segmentation used by the PGM-index; the greedy cone method
/// yields the minimal number of segments for a fixed starting point.
pub fn pla_segments(keys: &[u64], epsilon: f64) -> Vec<Segment> {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let n = keys.len();
    let mut segments = Vec::new();
    if n == 0 {
        return segments;
    }
    let mut start = 0usize;
    while start < n {
        let first_key = keys[start];
        // Cone of admissible slopes relative to (first_key, start).
        let mut lo_slope = f64::NEG_INFINITY;
        let mut hi_slope = f64::INFINITY;
        let mut end = start + 1;
        while end < n {
            // The difference is taken before converting: two keys above
            // 2^53 can be closer than an `f64` ulp, and a zero here must
            // mean a duplicate, which cannot extend a monotone segment.
            let dx = (keys[end] - first_key) as f64;
            let dy = (end - start) as f64;
            if dx <= 0.0 {
                break;
            }
            let new_lo = (dy - epsilon) / dx;
            let new_hi = (dy + epsilon) / dx;
            let cand_lo = lo_slope.max(new_lo);
            let cand_hi = hi_slope.min(new_hi);
            if cand_lo > cand_hi {
                break;
            }
            lo_slope = cand_lo;
            hi_slope = cand_hi;
            end += 1;
        }
        let len = end - start;
        let model = if len == 1 {
            LinearModel {
                slope: 0.0,
                intercept: start as f64,
            }
        } else {
            // Mid-cone slope keeps both bounds satisfied.
            let slope = if lo_slope.is_finite() && hi_slope.is_finite() {
                (lo_slope + hi_slope) / 2.0
            } else {
                0.0
            };
            LinearModel {
                slope,
                intercept: start as f64 - slope * first_key as f64,
            }
        };
        segments.push(Segment {
            first_key,
            start_pos: start,
            len,
            model,
        });
        start = end;
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_perfect_line() {
        let keys: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let m = LinearModel::fit(&keys);
        assert!((m.slope - 0.1).abs() < 1e-9);
        assert!(m.max_error(&keys) < 1e-6);
    }

    #[test]
    fn fit_empty_and_single() {
        assert_eq!(LinearModel::fit(&[]), LinearModel::ZERO);
        let m = LinearModel::fit(&[42]);
        assert_eq!(m.predict_clamped(42, 1), 0);
    }

    #[test]
    fn fit_constant_keys() {
        let m = LinearModel::fit(&[5, 5, 5, 5]);
        assert_eq!(m.slope, 0.0);
        assert!((m.predict(5) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fit_large_keys_stable() {
        // Near u64::MAX, `slope * key` rounds at ~256 ulp; the fit must stay
        // within a few hundred positions (error bounds absorb the rest).
        let base = u64::MAX - 1000;
        let keys: Vec<u64> = (0..100).map(|i| base + i * 10).collect();
        let m = LinearModel::fit(&keys);
        assert!(m.max_error(&keys) < 500.0, "err = {}", m.max_error(&keys));
        // Sanity: slope is still the right magnitude.
        assert!((m.slope - 0.1).abs() < 1e-3);
    }

    #[test]
    fn through_two_points() {
        let m = LinearModel::through(10, 0.0, 20, 10.0);
        assert!((m.predict(15) - 5.0).abs() < 1e-9);
        let degenerate = LinearModel::through(10, 3.0, 10, 9.0);
        assert_eq!(degenerate.predict(10), 3.0);
    }

    #[test]
    fn predict_clamped_bounds() {
        let m = LinearModel {
            slope: 1.0,
            intercept: -100.0,
        };
        assert_eq!(m.predict_clamped(0, 10), 0);
        assert_eq!(m.predict_clamped(u64::MAX, 10), 9);
        assert_eq!(m.predict_clamped(5, 0), 0);
    }

    #[test]
    fn pla_respects_epsilon() {
        // A curve (quadratic-ish) forces multiple segments.
        let keys: Vec<u64> = (0..1000u64).map(|i| i * i / 10 + i).collect();
        for eps in [1.0, 4.0, 16.0, 64.0] {
            let segs = pla_segments(&keys, eps);
            for seg in &segs {
                let covered = keys.iter().enumerate().skip(seg.start_pos).take(seg.len);
                for (i, &key) in covered {
                    let err = (seg.model.predict(key) - i as f64).abs();
                    assert!(
                        err <= eps + 1e-6,
                        "eps={eps}: err {err} at pos {i} (segment {seg:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn pla_segment_count_decreases_with_epsilon() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * i / 7).collect();
        let tight = pla_segments(&keys, 1.0).len();
        let loose = pla_segments(&keys, 64.0).len();
        assert!(loose < tight, "loose={loose} tight={tight}");
        assert!(loose >= 1);
    }

    #[test]
    fn pla_linear_data_single_segment() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let segs = pla_segments(&keys, 1.0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 1000);
    }

    #[test]
    fn pla_covers_all_positions() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * i).collect();
        let segs = pla_segments(&keys, 8.0);
        let covered: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(covered, keys.len());
        // Contiguous coverage.
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.start_pos, pos);
            pos += s.len;
        }
    }

    #[test]
    fn pla_empty_and_singleton() {
        assert!(pla_segments(&[], 4.0).is_empty());
        let segs = pla_segments(&[7], 4.0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].predict(7), 0);
    }

    #[test]
    fn pla_duplicates_dont_panic() {
        let keys = vec![1, 2, 2, 2, 3, 10];
        let segs = pla_segments(&keys, 2.0);
        let covered: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(covered, keys.len());
    }

    #[test]
    fn segment_predict_clamps_within_segment() {
        let seg = Segment {
            first_key: 100,
            start_pos: 10,
            len: 5,
            model: LinearModel {
                slope: 1.0,
                intercept: 0.0,
            },
        };
        assert_eq!(seg.predict(0), 10); // clamped low
        assert_eq!(seg.predict(u64::MAX), 14); // clamped high
        assert_eq!(seg.predict(12), 12);
    }
}
