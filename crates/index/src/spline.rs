//! RadixSpline: a spline-based learned index with a radix lookup table.
//!
//! Following Kipf et al. (one of the SOSD baselines \[34]), the index keeps a
//! sequence of *spline points* over the key→position CDF, chosen greedily
//! inside an error corridor of `max_error` positions, plus a radix table
//! over the top `radix_bits` of the key that maps a key prefix to the range
//! of candidate spline points. The corridor bounds the chord from a spline
//! point to every key it passes, not the chord to the key that becomes the
//! next spline point, so interpolation between consecutive points can err
//! by more than `max_error` (about twice, on log-normal keys): `fit`
//! measures the largest error over the keys and the last-mile window is
//! that wide. Lookups are: radix hop → binary search among few spline
//! points → interpolate → bounded last-mile search.

use crate::learned::{Learned, Model};
use crate::{IndexError, Result};

/// Default maximum interpolation error in positions.
pub const DEFAULT_MAX_ERROR: usize = 32;

/// Default number of radix bits.
pub const DEFAULT_RADIX_BITS: u32 = 18;

/// A spline point: a key and its position in the data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplinePoint {
    key: u64,
    pos: usize,
}

/// Radix-accelerated spline index.
pub type RadixSpline = Learned<SplineModel>;

/// The RadixSpline's model: spline points under a radix table.
#[derive(Debug, Clone)]
pub struct SplineModel {
    spline: Vec<SplinePoint>,
    /// `radix[prefix]` = index of the first spline point whose key has a
    /// prefix `>= prefix`. Length `2^radix_bits + 1`.
    radix: Vec<u32>,
    radix_bits: u32,
    /// Bits to shift a key right to obtain its prefix.
    shift: u32,
    /// The corridor the spline points were chosen in.
    max_error: usize,
    /// The largest `|interpolated − position|` over the fitted keys.
    fit_error: usize,
}

impl Model for SplineModel {
    /// `(max_error, radix_bits)`.
    type Config = (usize, u32);
    /// The `[lo, hi)` span of spline points whose segment brackets the key.
    type Route = (usize, usize);
    const NAME: &'static str = "radix-spline";
    const DEFAULT: (usize, u32) = (DEFAULT_MAX_ERROR, DEFAULT_RADIX_BITS);

    fn fit(keys: &[u64], (max_error, radix_bits): (usize, u32)) -> Result<(Self, u64)> {
        if max_error == 0 || radix_bits == 0 || radix_bits > 28 {
            return Err(IndexError::Unsupported(
                "max_error must be > 0 and radix_bits in 1..=28",
            ));
        }
        let mut work = 0u64;

        // Greedy spline construction with an error corridor, one pass.
        let mut spline: Vec<SplinePoint> = Vec::new();
        if !keys.is_empty() {
            spline.push(SplinePoint {
                key: keys[0],
                pos: 0,
            });
            if keys.len() > 1 {
                let eps = max_error as f64;
                let mut base = spline[0];
                // Slope corridor from the base point. Key differences are
                // taken before converting: two keys above 2^53 can be closer
                // than an `f64` ulp, and strictly increasing keys keep every
                // `dx` here at least 1.
                let mut lo_slope = f64::NEG_INFINITY;
                let mut hi_slope = f64::INFINITY;
                let mut prev = base;
                for (i, &k) in keys.iter().enumerate().skip(1) {
                    work += 1;
                    let dx = (k - base.key) as f64;
                    let dy = (i - base.pos) as f64;
                    let cand_lo = lo_slope.max((dy - eps) / dx);
                    let cand_hi = hi_slope.min((dy + eps) / dx);
                    if cand_lo > cand_hi {
                        // Corridor collapsed: finalize a spline point at the
                        // previous key and restart the corridor from it.
                        spline.push(prev);
                        base = prev;
                        let dx = (k - base.key) as f64;
                        let dy = (i - base.pos) as f64;
                        lo_slope = (dy - eps) / dx;
                        hi_slope = (dy + eps) / dx;
                    } else {
                        lo_slope = cand_lo;
                        hi_slope = cand_hi;
                    }
                    prev = SplinePoint { key: k, pos: i };
                }
                // Terminal point.
                if spline.last() != Some(&prev) {
                    spline.push(prev);
                }
            }
        }

        // Radix table over key prefixes.
        let shift = 64 - radix_bits;
        let table_size = (1usize << radix_bits) + 1;
        let mut radix = vec![u32::MAX; table_size];
        for (i, sp) in spline.iter().enumerate() {
            let prefix = (sp.key >> shift) as usize;
            if radix[prefix] == u32::MAX {
                radix[prefix] = i as u32;
            }
        }
        // Back-fill: entry p = first spline index with prefix >= p.
        let mut next = spline.len() as u32;
        for slot in radix.iter_mut().rev() {
            if *slot == u32::MAX {
                *slot = next;
            } else {
                next = *slot;
            }
        }
        work += table_size as u64 / 8;

        // What interpolation really errs by, in one more pass (bookkeeping,
        // not model work). A key between two neighbours is predicted between
        // their predictions, so it errs by at most one position more.
        let mut fit_error = 0;
        let mut seg = 0;
        for (i, &k) in keys.iter().enumerate() {
            while seg + 1 < spline.len() && spline[seg + 1].key <= k {
                seg += 1;
            }
            let next = spline[(seg + 1).min(spline.len() - 1)];
            fit_error = fit_error.max(interpolate(spline[seg], next, k).abs_diff(i));
        }

        let model = SplineModel {
            spline,
            radix,
            radix_bits,
            shift,
            max_error,
            fit_error,
        };
        Ok((model, work))
    }

    /// The radix entries scatter over a megabyte-scale table.
    #[inline]
    fn prefetch(&self, key: u64) {
        crate::prefetch_read(&self.radix[(key >> self.shift) as usize]);
    }

    /// Radix hop. `begin` points at the first spline point with `key`'s
    /// prefix, whose key may exceed `key`, so the span starts one left of
    /// it; the span's first point is where the segment search reads next.
    #[inline]
    fn route(&self, key: u64) -> (usize, usize) {
        let prefix = (key >> self.shift) as usize;
        let begin = self.radix[prefix] as usize;
        let end = (self.radix[prefix + 1] as usize).min(self.spline.len());
        let lo = begin.saturating_sub(1);
        crate::prefetch_read(&self.spline[lo]);
        (lo, (end + 1).min(self.spline.len()))
    }

    /// Finds the bracketing segment within the span and interpolates. A key
    /// below the first spline point predicts position 0 and one above the
    /// last the last position: both ends of the array are ordinary windows.
    #[inline]
    fn window(&self, (lo, hi): (usize, usize), key: u64) -> (usize, usize) {
        // We need the segment [p_i, p_{i+1}] with p_i.key <= key <= p_{i+1}.key.
        let seg = lo
            + self.spline[lo..hi]
                .partition_point(|sp| sp.key <= key)
                .saturating_sub(1);
        let next = self.spline[(seg + 1).min(self.spline.len() - 1)];
        let pred = interpolate(self.spline[seg], next, key);
        let slack = self.fit_error.saturating_add(2);
        (
            pred.saturating_sub(slack),
            pred.saturating_add(slack).saturating_add(1),
        )
    }

    fn probe_cost(&self, key: u64) -> u64 {
        if self.spline.is_empty() {
            return 1;
        }
        // Radix hop + binary search among this prefix's spline points +
        // error-window search.
        let prefix = ((key >> self.shift) as usize).min(self.radix.len() - 2);
        let candidates = (self.radix[prefix + 1].saturating_sub(self.radix[prefix])) as u64;
        1 + crate::bsearch_cost(candidates) + crate::bsearch_cost(self.max_error as u64)
    }

    fn size_bytes(&self) -> usize {
        self.spline.len() * 16 + self.radix.len() * 4
    }

    fn model_count(&self) -> usize {
        self.spline.len().saturating_sub(1)
    }
}

/// The position of `key` on the chord from spline point `a` to the next
/// one, `b` (`a` itself where there is no next).
#[inline]
fn interpolate(a: SplinePoint, b: SplinePoint, key: u64) -> usize {
    if b.key > a.key {
        let frac = key.saturating_sub(a.key) as f64 / (b.key - a.key) as f64;
        (a.pos as f64 + frac * (b.pos - a.pos) as f64) as usize
    } else {
        a.pos
    }
}

impl RadixSpline {
    /// Builds a radix spline with explicit parameters.
    pub fn build(pairs: &[(u64, u64)], max_error: usize, radix_bits: u32) -> Result<Self> {
        Learned::with_config(pairs, (max_error, radix_bits))
    }

    /// Number of spline points.
    pub fn spline_points(&self) -> usize {
        self.model().spline.len()
    }

    /// The error corridor used at construction.
    pub fn max_error(&self) -> usize {
        self.model().max_error
    }

    /// The number of radix bits used by the prefix table.
    pub fn radix_bits(&self) -> u32 {
        self.model().radix_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};
    use crate::{BulkLoad, Index};

    #[test]
    fn conformance_various_sizes() {
        for n in [1, 2, 10, 1000, 20_000] {
            let pairs = test_pairs(n);
            let idx = RadixSpline::bulk_load(&pairs).unwrap();
            assert_eq!(idx.len(), pairs.len(), "n = {n}");
            check_point_lookups(&idx, &pairs);
            check_ranges(&idx, &pairs);
        }
    }

    #[test]
    fn empty_index() {
        let idx = RadixSpline::bulk_load(&[]).unwrap();
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.lower_bound(0), 0);
    }

    #[test]
    fn interpolation_error_bounded_on_linear_data() {
        let pairs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 7, i)).collect();
        let idx = RadixSpline::build(&pairs, 8, 16).unwrap();
        // Linear data needs almost no spline points.
        assert!(idx.spline_points() < 10, "points = {}", idx.spline_points());
        check_point_lookups(&idx, &pairs[..500]);
    }

    /// The greedy corridor admits a spline point whose own chord leaves the
    /// corridor, so interpolation errs by more than `max_error` on curved
    /// key distributions; the window must hold the answer all the same, for
    /// keys that are there and keys that are not.
    #[test]
    fn window_holds_the_lower_bound_beyond_the_corridor() {
        let curved: [(&str, Vec<u64>); 3] = [
            (
                "cubic",
                (0..60_000u64).map(|i| i * i * i / 40_000).collect(),
            ),
            (
                "exponential",
                (0..60_000u64)
                    .map(|i| (1.0002f64.powi(i as i32) * 1e4) as u64 + i)
                    .collect(),
            ),
            (
                "square-root",
                (0..60_000u64)
                    .map(|i| ((i as f64).sqrt() * 1e6) as u64)
                    .collect(),
            ),
        ];
        let mut beyond = 0;
        for (name, mut keys) in curved {
            keys.dedup();
            let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
            let idx = RadixSpline::bulk_load(&pairs).unwrap();
            let model = idx.model();
            let holds = |key: u64, lower_bound: usize| {
                let (lo, hi) = model.window(model.route(key), key);
                assert!(
                    lo <= lower_bound && lower_bound < hi,
                    "{name}: key {key} sits at {lower_bound}, outside [{lo}, {hi})"
                );
            };
            holds(0, 0);
            for (i, w) in keys.windows(2).enumerate() {
                holds(w[0], i);
                if w[1] - w[0] > 1 {
                    holds(w[0] + (w[1] - w[0]) / 2, i + 1);
                }
            }
            holds(keys[keys.len() - 1], keys.len() - 1);
            holds(keys[keys.len() - 1] + 1, keys.len());
            if model.fit_error > model.max_error {
                beyond += 1;
            }
            // The corridor still sets the work units and what is reported.
            assert_eq!(idx.max_error(), DEFAULT_MAX_ERROR);
        }
        assert!(beyond > 0, "no key set here leaves the corridor");
    }

    #[test]
    fn error_knob_trades_points() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i * i / 5, i)).collect();
        let mut dedup = pairs;
        dedup.dedup_by_key(|p| p.0);
        let tight = RadixSpline::build(&dedup, 4, 16).unwrap();
        let loose = RadixSpline::build(&dedup, 128, 16).unwrap();
        assert!(
            tight.spline_points() > loose.spline_points(),
            "tight {} loose {}",
            tight.spline_points(),
            loose.spline_points()
        );
        check_point_lookups(&tight, &dedup[..500]);
        check_point_lookups(&loose, &dedup[..500]);
    }

    #[test]
    fn clustered_keys_correct() {
        // Keys concentrated in two far-apart clusters stress the radix table.
        let mut pairs: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i)).collect();
        pairs.extend((0..1000u64).map(|i| (u64::MAX / 2 + i * 3, i)));
        let idx = RadixSpline::bulk_load(&pairs).unwrap();
        check_point_lookups(&idx, &pairs);
        check_ranges(&idx, &pairs);
    }

    #[test]
    fn high_bits_keys() {
        let pairs: Vec<(u64, u64)> = (0..1000u64)
            .map(|i| (u64::MAX - 10_000 + i * 10, i))
            .collect();
        let idx = RadixSpline::bulk_load(&pairs).unwrap();
        check_point_lookups(&idx, &pairs);
    }

    #[test]
    fn lower_bound_semantics() {
        let pairs: Vec<(u64, u64)> = vec![(10, 1), (20, 2), (30, 3)];
        let idx = RadixSpline::bulk_load(&pairs).unwrap();
        assert_eq!(idx.lower_bound(0), 0);
        assert_eq!(idx.lower_bound(10), 0);
        assert_eq!(idx.lower_bound(19), 1);
        assert_eq!(idx.lower_bound(30), 2);
        assert_eq!(idx.lower_bound(31), 3);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(RadixSpline::build(&[(1, 1)], 0, 16).is_err());
        assert!(RadixSpline::build(&[(1, 1)], 8, 0).is_err());
        assert!(RadixSpline::build(&[(1, 1)], 8, 40).is_err());
    }

    #[test]
    fn read_only_mutations_rejected() {
        let mut idx = RadixSpline::bulk_load(&[(1, 10)]).unwrap();
        assert!(matches!(idx.insert(2, 20), Err(IndexError::Unsupported(_))));
        assert!(matches!(idx.delete(1), Err(IndexError::Unsupported(_))));
    }
}
