//! Metrics registry: named counters, gauges, and per-interval histograms.
//!
//! The registry is materialised once at run end: the observer folds in the
//! counters and gauges its lanes kept in plain local structs, and the
//! runner restates the per-op entries (op counts, the `latency` histogram,
//! fault counts) from the finished record. Everything is keyed by
//! `BTreeMap`, so iteration order (and therefore serialized output) is
//! deterministic.

use lsbench_stats::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default interval width (virtual seconds) for [`IntervalHistogram`] slices.
pub const DEFAULT_INTERVAL_WIDTH: f64 = 0.05;

/// Hard cap on per-interval slices; later intervals collapse into the last
/// slice so a pathological scenario cannot allocate without bound.
pub const MAX_INTERVAL_SLICES: usize = 512;

/// A latency histogram sliced into fixed-width virtual-time intervals.
///
/// `total` aggregates every recorded sample; `slices[i]` holds the samples
/// whose completion time fell in `[i * width, (i + 1) * width)` (relative to
/// the run's execution start). Interval `MAX_INTERVAL_SLICES - 1` absorbs
/// everything beyond the cap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalHistogram {
    /// Width of each interval in virtual seconds.
    pub width: f64,
    /// All samples, regardless of interval.
    pub total: LatencyHistogram,
    /// Per-interval histograms, lazily grown up to [`MAX_INTERVAL_SLICES`].
    pub slices: Vec<LatencyHistogram>,
}

impl IntervalHistogram {
    /// Creates an empty interval histogram with the given slice width.
    pub fn new(width: f64) -> Self {
        IntervalHistogram {
            width: if width > 0.0 {
                width
            } else {
                DEFAULT_INTERVAL_WIDTH
            },
            total: LatencyHistogram::new(),
            slices: Vec::new(),
        }
    }

    /// Records a latency (nanoseconds) completed at `t` seconds after
    /// execution start.
    pub fn record(&mut self, t_rel: f64, latency_ns: u64) {
        self.record_n(self.slice_of(t_rel), latency_ns, 1);
    }

    /// The slice of a sample completed `t_rel` seconds after execution
    /// start.
    pub(crate) fn slice_of(&self, t_rel: f64) -> usize {
        if t_rel <= 0.0 {
            0
        } else {
            ((t_rel / self.width) as usize).min(MAX_INTERVAL_SLICES - 1)
        }
    }

    /// The smallest `t_rel` [`slice_of`](Self::slice_of) puts past `slice`
    /// (infinite for the last slice): every `t_rel` from one in `slice` up
    /// to it is in `slice` too.
    pub(crate) fn slice_end(&self, slice: usize) -> f64 {
        if slice + 1 >= MAX_INTERVAL_SLICES {
            return f64::INFINITY;
        }
        // The quotient is rounded, so the edge is within a few ulps of here.
        let mut t = (slice + 1) as f64 * self.width;
        while self.slice_of(t) > slice {
            t = t.next_down();
        }
        while t < f64::INFINITY && self.slice_of(t) <= slice {
            t = t.next_up();
        }
        t
    }

    /// Records `n` samples of one latency (nanoseconds) in slice `slice`
    /// ([`slice_of`](Self::slice_of)): one bucket update per histogram,
    /// whatever `n` is.
    pub(crate) fn record_n(&mut self, slice: usize, latency_ns: u64, n: u64) {
        self.total.record_n(latency_ns, n);
        if self.slices.len() <= slice {
            self.slices.resize_with(slice + 1, LatencyHistogram::new);
        }
        self.slices[slice].record_n(latency_ns, n);
    }
}

/// A deterministic registry of named counters, gauges, and histograms.
///
/// Counters accumulate, gauges keep the maximum (high-water marks).
/// Exposed per scenario in
/// [`ScenarioSummary::metrics`](crate::suite::ScenarioSummary::metrics).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark readings.
    pub gauges: BTreeMap<String, f64>,
    /// Named per-interval latency histograms.
    pub histograms: BTreeMap<String, IntervalHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Raises gauge `name` to `value` if larger (high-water-mark semantics).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    }

    /// Reads counter `name`, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_histogram_slices_by_time() {
        let mut h = IntervalHistogram::new(1.0);
        h.record(0.5, 100);
        h.record(1.5, 200);
        h.record(1.9, 300);
        assert_eq!(h.total.total(), 3);
        assert_eq!(h.slices.len(), 2);
        assert_eq!(h.slices[0].total(), 1);
        assert_eq!(h.slices[1].total(), 2);
    }

    #[test]
    fn a_slice_ends_where_the_next_begins() {
        for width in [DEFAULT_INTERVAL_WIDTH, 0.001, 0.3, 1.0 / 3.0, 1e-9, 7.0] {
            let h = IntervalHistogram::new(width);
            for slice in 0..MAX_INTERVAL_SLICES - 1 {
                let end = h.slice_end(slice);
                assert_eq!(h.slice_of(end), slice + 1, "width {width}, slice {slice}");
                assert_eq!(h.slice_of(end.next_down()), slice, "width {width}");
            }
            assert_eq!(h.slice_end(MAX_INTERVAL_SLICES - 1), f64::INFINITY);
        }
    }

    #[test]
    fn n_samples_at_once_equal_n_one_by_one() {
        let (mut one_by_one, mut at_once) =
            (IntervalHistogram::new(1.0), IntervalHistogram::new(1.0));
        for (t_rel, ns, n) in [
            (0.5, 100, 3),
            (2.5, 7, 1),
            (0.25, 100, 2),
            (9.0, 1 << 40, 4),
        ] {
            for _ in 0..n {
                one_by_one.record(t_rel, ns);
            }
            at_once.record_n(at_once.slice_of(t_rel), ns, n);
        }
        assert_eq!(one_by_one, at_once);
    }

    #[test]
    fn interval_overflow_collapses_into_last_slice() {
        let mut h = IntervalHistogram::new(0.001);
        h.record(1e9, 42);
        assert_eq!(h.slices.len(), MAX_INTERVAL_SLICES);
        assert_eq!(h.slices[MAX_INTERVAL_SLICES - 1].total(), 1);
    }

    #[test]
    fn registry_serializes_deterministically() {
        let mut r = MetricsRegistry::new();
        r.inc("z", 1);
        r.inc("a", 2);
        let mut lat = IntervalHistogram::new(1.0);
        lat.record(0.1, 50);
        r.histograms.insert("lat".to_string(), lat);
        let json = serde_json::to_string(&r).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // BTreeMap keys serialize sorted.
        assert!(json.find("\"a\"").unwrap() < json.find("\"z\"").unwrap());
    }
}
