//! RadixSpline: a spline-based learned index with a radix lookup table.
//!
//! Following Kipf et al. (one of the SOSD baselines \[34]), the index keeps a
//! sequence of *spline points* over the key→position CDF such that linear
//! interpolation between consecutive points errs by at most `max_error`
//! positions, plus a radix table over the top `radix_bits` of the key that
//! maps a key prefix to the range of candidate spline points. Lookups are:
//! radix hop → binary search among few spline points → interpolate →
//! bounded last-mile search.

use crate::{check_sorted, BulkLoad, Index, IndexError, IndexStats, Result};

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
#[derive(Debug, Clone)]
pub struct RadixSpline {
    keys: Vec<u64>,
    values: Vec<u64>,
    spline: Vec<SplinePoint>,
    /// `radix[prefix]` = index of the first spline point whose key has a
    /// prefix `>= prefix`. Length `2^radix_bits + 1`.
    radix: Vec<u32>,
    radix_bits: u32,
    /// Bits to shift a key right to obtain its prefix.
    shift: u32,
    max_error: usize,
    build_work: u64,
}

impl RadixSpline {
    /// Builds a radix spline with explicit parameters.
    pub fn build(pairs: &[(u64, u64)], max_error: usize, radix_bits: u32) -> Result<Self> {
        if max_error == 0 || radix_bits == 0 || radix_bits > 28 {
            return Err(IndexError::Unsupported(
                "max_error must be > 0 and radix_bits in 1..=28",
            ));
        }
        check_sorted(pairs)?;
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let values: Vec<u64> = pairs.iter().map(|p| p.1).collect();
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
                // Slope corridor from the base point.
                let mut lo_slope = f64::NEG_INFINITY;
                let mut hi_slope = f64::INFINITY;
                let mut prev = base;
                for (i, &k) in keys.iter().enumerate().skip(1) {
                    work += 1;
                    let dx = k as f64 - base.key as f64;
                    let dy = i as f64 - base.pos as f64;
                    if dx <= 0.0 {
                        // Shouldn't happen with sorted unique keys.
                        continue;
                    }
                    let new_lo = (dy - eps) / dx;
                    let new_hi = (dy + eps) / dx;
                    let cand_lo = lo_slope.max(new_lo);
                    let cand_hi = hi_slope.min(new_hi);
                    if cand_lo > cand_hi {
                        // Corridor collapsed: finalize a spline point at the
                        // previous key and restart the corridor from it.
                        spline.push(SplinePoint {
                            key: prev.key,
                            pos: prev.pos,
                        });
                        base = SplinePoint {
                            key: prev.key,
                            pos: prev.pos,
                        };
                        let dx = k as f64 - base.key as f64;
                        let dy = i as f64 - base.pos as f64;
                        lo_slope = (dy - eps) / dx;
                        hi_slope = (dy + eps) / dx;
                    } else {
                        lo_slope = cand_lo;
                        hi_slope = cand_hi;
                    }
                    prev = SplinePoint { key: k, pos: i };
                }
                // Terminal point.
                let last = SplinePoint {
                    key: keys[keys.len() - 1],
                    pos: keys.len() - 1,
                };
                if spline.last() != Some(&last) {
                    spline.push(last);
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

        Ok(RadixSpline {
            keys,
            values,
            spline,
            radix,
            radix_bits,
            shift,
            max_error,
            build_work: work.max(1),
        })
    }

    /// Number of spline points.
    pub fn spline_points(&self) -> usize {
        self.spline.len()
    }

    /// The error bound used at construction.
    pub fn max_error(&self) -> usize {
        self.max_error
    }

    /// The number of radix bits used by the prefix table.
    pub fn radix_bits(&self) -> u32 {
        self.radix_bits
    }

    /// Position of the first key `>= key`.
    pub fn lower_bound(&self, key: u64) -> usize {
        let n = self.keys.len();
        if n == 0 {
            return 0;
        }
        if key <= self.keys[0] {
            return 0;
        }
        if key > self.keys[n - 1] {
            return n;
        }
        let (lo, hi) = {
            let span = self.knot_span(key);
            let (lo, hi) = self.raw_window(span, key);
            self.fixup_window(lo, hi, key)
        };
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }

    /// Radix hop: the `[lo, hi)` span of spline points whose segment
    /// brackets `key`. `begin` points at the first spline point with
    /// `key`'s prefix, whose key may exceed `key`, so the span starts one
    /// left of it.
    ///
    /// Requires `keys[0] < key <= keys[n-1]`.
    #[inline]
    fn knot_span(&self, key: u64) -> (usize, usize) {
        let prefix = (key >> self.shift) as usize;
        let begin = self.radix[prefix] as usize;
        let end = (self.radix[prefix + 1] as usize).min(self.spline.len());
        (begin.saturating_sub(1), (end + 1).min(self.spline.len()))
    }

    /// Finds the bracketing segment within a knot span, interpolates, and
    /// returns the `[lo, hi)` data window the prediction plus error slack
    /// allows — before validation against the key array.
    #[inline]
    fn raw_window(&self, span: (usize, usize), key: u64) -> (usize, usize) {
        let (lo, hi) = span;
        // We need the segment [p_i, p_{i+1}] with p_i.key <= key <= p_{i+1}.key.
        let seg = lo
            + self.spline[lo..hi]
                .partition_point(|sp| sp.key <= key)
                .saturating_sub(1);
        let a = self.spline[seg];
        let b = self.spline[(seg + 1).min(self.spline.len() - 1)];
        let pred = if b.key > a.key {
            let frac = (key - a.key) as f64 / (b.key - a.key) as f64;
            a.pos as f64 + frac * (b.pos - a.pos) as f64
        } else {
            a.pos as f64
        };
        let slack = self.max_error + 2;
        let lo = (pred as usize).saturating_sub(slack);
        let hi = (pred as usize + slack + 1).min(self.keys.len());
        (lo, hi)
    }

    /// Validates a raw window against the key array (two boundary reads),
    /// widening when the spline's bracket does not provably hold.
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
}

impl BulkLoad for RadixSpline {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        RadixSpline::build(pairs, DEFAULT_MAX_ERROR, DEFAULT_RADIX_BITS)
    }
}

impl Index for RadixSpline {
    fn name(&self) -> &'static str {
        "radix-spline"
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
            "RadixSpline is read-only; wrap in DeltaIndex for updates",
        ))
    }

    fn delete(&mut self, _key: u64) -> Result<Option<u64>> {
        Err(IndexError::Unsupported(
            "RadixSpline is read-only; wrap in DeltaIndex for updates",
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
            size_bytes: self.keys.len() * 16 + self.spline.len() * 16 + self.radix.len() * 4,
            build_work: self.build_work(),
            model_count: self.spline.len().saturating_sub(1),
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        if self.keys.is_empty() {
            return 1;
        }
        // Radix hop + binary search among this prefix's spline points +
        // error-window search.
        let prefix = ((key >> self.shift) as usize).min(self.radix.len() - 2);
        let candidates = (self.radix[prefix + 1].saturating_sub(self.radix[prefix])) as u64;
        1 + crate::bsearch_cost(candidates) + crate::bsearch_cost(self.max_error as u64)
    }

    /// Pipelined batch probe. A single spline lookup chains four
    /// dependent memory regions — radix table, knot span, data window,
    /// value — and each one's address depends on the previous read, so a
    /// lone [`Index::get`] serializes its misses. Across a batch the
    /// probes are independent: each pass issues the whole group's loads
    /// for one stage (prefetch), then the next pass consumes them while
    /// the following stage's lines are in flight, finishing with the
    /// lockstep branchless last mile of
    /// [`crate::search::lower_bound_group`].
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        use crate::search::{lower_bound_group, GROUP};
        out.reserve(keys.len());
        let n = self.keys.len();
        if n == 0 {
            out.extend(keys.iter().map(|_| None));
            return;
        }
        let mut spans = [(0usize, 0usize); GROUP];
        let mut windows = [(0usize, 0usize); GROUP];
        let mut pos = [0usize; GROUP];
        for chunk in keys.chunks(GROUP) {
            let g = chunk.len();
            // Pass 1: the radix entries scatter over a megabyte-scale
            // table — issue every lane's load before any is consumed.
            for &key in chunk {
                crate::prefetch_read(&self.radix[(key >> self.shift) as usize]);
            }
            // Pass 2: radix hop; start each knot span's load. Keys
            // outside the indexed range resolve immediately to an empty
            // window at their final position (matching `lower_bound`'s
            // early outs).
            for (s, &key) in spans[..g].iter_mut().zip(chunk) {
                *s = if key <= self.keys[0] || key > self.keys[n - 1] {
                    (usize::MAX, usize::MAX)
                } else {
                    let span = self.knot_span(key);
                    crate::prefetch_read(&self.spline[span.0]);
                    span
                };
            }
            // Pass 3: segment search + interpolation → raw data window;
            // start the boundary loads the validation pass reads.
            for i in 0..g {
                windows[i] = if spans[i].0 == usize::MAX {
                    let p = if chunk[i] <= self.keys[0] { 0 } else { n };
                    (p, p)
                } else {
                    let (lo, hi) = self.raw_window(spans[i], chunk[i]);
                    if lo > 0 {
                        crate::prefetch_read(&self.keys[lo - 1]);
                    }
                    if hi > 0 && hi < n {
                        crate::prefetch_read(&self.keys[hi - 1]);
                    }
                    (lo, hi)
                };
            }
            // Pass 4: validate on in-flight lines. Raw windows are never
            // empty, so an empty window is exactly a resolved early-out.
            for (w, &key) in windows[..g].iter_mut().zip(chunk) {
                if w.0 != w.1 {
                    *w = self.fixup_window(w.0, w.1, key);
                }
            }
            lower_bound_group(&self.keys, chunk, &windows[..g], &mut pos[..g]);
            // The values array is its own allocation — overlap the hits'
            // value misses before reading any of them.
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
