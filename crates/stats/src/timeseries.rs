//! Time series and cumulative-completion curves.
//!
//! Fig. 1b of the paper plots *cumulative queries completed over time*: the
//! slope of the curve is the instantaneous throughput, and adaptability is
//! summarized as the *area difference* between the system's curve and an
//! ideal constant-throughput system (or between two systems). This module
//! provides the curve representation and the area computations.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// A piecewise-linear time series of `(time, value)` points with
/// non-decreasing time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Creates a series from points, validating time monotonicity.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self> {
        check_points(&points)?;
        Ok(TimeSeries { points })
    }

    /// Appends a point; `t` must not precede the last time.
    pub fn push(&mut self, t: f64, v: f64) -> Result<()> {
        if t.is_nan() || v.is_nan() {
            return Err(StatsError::NanInput);
        }
        if let Some(&(last_t, _)) = self.points.last() {
            if t < last_t {
                return Err(StatsError::InvalidParameter("time must be non-decreasing"));
            }
        }
        self.points.push((t, v));
        Ok(())
    }

    /// The underlying points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Linear interpolation of the value at time `t`.
    ///
    /// Clamps to the first/last value outside the covered range. One binary
    /// search per call: for look-ups at non-decreasing times use a
    /// [`Cursor`], which finds the same values by stepping.
    pub fn value_at(&self, t: f64) -> Result<f64> {
        if self.points.is_empty() {
            return Err(StatsError::Empty);
        }
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if t <= first.0 {
            return Ok(first.1);
        }
        if t >= last.0 {
            return Ok(last.1);
        }
        // Binary search for the segment containing t.
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        Ok(interpolate(self.points[idx - 1], self.points[idx], t))
    }

    /// Trapezoidal area under the curve over its full time span.
    pub fn area(&self) -> Result<f64> {
        if self.points.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            area += (t1 - t0) * (v0 + v1) / 2.0;
        }
        Ok(area)
    }

    /// Signed area between `self` and `other` over their overlapping span:
    /// `∫ (self(t) - other(t)) dt`.
    ///
    /// This is the paper's *area difference* single-value adaptability score.
    /// A positive result means `self` stays above `other` on balance.
    /// Evaluated by [`area_between`] in one pass over both series.
    pub fn area_difference(&self, other: &TimeSeries) -> Result<f64> {
        // `Deserialize` validates nothing, so a NaN can get this far.
        let nan = |&(t, v): &(f64, f64)| t.is_nan() || v.is_nan();
        if self.points.iter().chain(&other.points).any(nan) {
            return Err(StatsError::NanInput);
        }
        area_between(&self.points[..], &other.points[..])
    }
}

/// Whether `points` may form a [`TimeSeries`]: times non-decreasing, then
/// nothing NaN — the checks, and the errors, of [`TimeSeries::from_points`].
pub fn check_points(points: &[(f64, f64)]) -> Result<()> {
    for w in points.windows(2) {
        if w[1].0 < w[0].0 {
            return Err(StatsError::InvalidParameter(
                "time series must be sorted by time",
            ));
        }
    }
    if points.iter().any(|(t, v)| t.is_nan() || v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    Ok(())
}

/// The value at `t` on the segment from `(t0, v0)` to `(t1, v1)`: the
/// expression [`TimeSeries::value_at`] and [`Cursor::value_at`] evaluate
/// over the segment they find, for a caller that finds it another way.
#[inline]
pub fn interpolate((t0, v0): (f64, f64), (t1, v1): (f64, f64), t: f64) -> f64 {
    if t1 == t0 {
        return v1;
    }
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// A piecewise-linear curve read in place, point by point.
///
/// What [`area_between`] and [`Cursor`] need of a curve, so that one whose
/// points are implied by other data — a run's completions, say, where point
/// `i` is `(i-th completion time, i)` — is measured without first being
/// copied into a [`TimeSeries`]. Times must be non-decreasing in `i` and
/// nothing may be NaN.
pub trait Curve {
    /// Number of points.
    fn len(&self) -> usize;

    /// Whether the curve has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th `(time, value)` point, `i < len()`.
    fn point(&self, i: usize) -> (f64, f64);
}

impl Curve for [(f64, f64)] {
    fn len(&self) -> usize {
        <[(f64, f64)]>::len(self)
    }

    #[inline]
    fn point(&self, i: usize) -> (f64, f64) {
        self[i]
    }
}

/// A place on a [`Curve`] that only moves forward.
///
/// [`Cursor::value_at`] returns what [`TimeSeries::value_at`] returns —
/// the same segment by the same rule, the same expression over it, hence
/// the same bits — provided the times asked for never decrease; it then
/// finds the segment by stepping from the previous one, where `value_at`
/// searches the whole series every time.
#[derive(Debug)]
pub struct Cursor<'a, C: ?Sized> {
    curve: &'a C,
    first: (f64, f64),
    last: (f64, f64),
    /// Points whose time is `<=` the latest time asked for: what
    /// `partition_point(|pt| pt <= t)` would say.
    idx: usize,
    /// `point(idx - 1)` once a point is behind the cursor.
    behind: (f64, f64),
    /// `point(idx)` while one is ahead.
    ahead: (f64, f64),
}

impl<'a, C: Curve + ?Sized> Cursor<'a, C> {
    /// A cursor before the first point of `curve`, which must have one.
    pub fn new(curve: &'a C) -> Result<Self> {
        if curve.is_empty() {
            return Err(StatsError::Empty);
        }
        let (first, last) = (curve.point(0), curve.point(curve.len() - 1));
        if first.0.is_nan() || last.0.is_nan() {
            return Err(StatsError::NanInput);
        }
        Ok(Cursor {
            curve,
            first,
            last,
            idx: 0,
            behind: first,
            ahead: first,
        })
    }

    /// Linear interpolation of the curve at `t`, clamped to the first/last
    /// value outside the covered range; among points of equal time the last
    /// one counts. `t` must not be less than on the previous call.
    #[inline]
    pub fn value_at(&mut self, t: f64) -> f64 {
        while self.idx < self.curve.len() && self.ahead.0 <= t {
            self.behind = self.ahead;
            self.idx += 1;
            if self.idx < self.curve.len() {
                self.ahead = self.curve.point(self.idx);
            }
        }
        if t <= self.first.0 {
            return self.first.1;
        }
        if t >= self.last.0 {
            return self.last.1;
        }
        if t.is_nan() {
            return t;
        }
        // The first time is below `t`, so a point is behind the cursor, and
        // the last time — which the cursor passes only once a `t` has
        // reached it — is above, so one is ahead.
        interpolate(self.behind, self.ahead, t)
    }

    /// Time of the first point later than every time asked for so far;
    /// infinite once there is none.
    #[inline]
    fn next_time(&self) -> f64 {
        if self.idx < self.curve.len() {
            self.ahead.0
        } else {
            f64::INFINITY
        }
    }
}

/// Signed area between two curves over their overlapping span,
/// `∫ (a(t) - b(t)) dt` — Fig. 1b's *area difference*.
///
/// The difference of two piecewise-linear curves is linear between
/// consecutive breakpoints of either, so the integral is a sum of
/// trapezoids over the distinct breakpoint times inside the span. Both
/// curves are in time order: one cursor on each yields those times by
/// merging, in order, and the curve's value there, so the area costs one
/// pass over each curve and no memory. The trapezoids, the values and the
/// order they are summed in are those of evaluating [`TimeSeries::value_at`]
/// on both curves at every breakpoint of their sorted union — the result is
/// the same to the bit — and swapping the arguments negates it exactly.
pub fn area_between<A, B>(a: &A, b: &B) -> Result<f64>
where
    A: Curve + ?Sized,
    B: Curve + ?Sized,
{
    let (mut a, mut b) = (Cursor::new(a)?, Cursor::new(b)?);
    let lo = a.first.0.max(b.first.0);
    let hi = a.last.0.min(b.last.0);
    if hi <= lo {
        return Ok(0.0);
    }
    let mut area = 0.0;
    let mut prev_t = lo;
    let mut prev_d = a.value_at(lo) - b.value_at(lo);
    while prev_t < hi {
        // Each cursor now rests on its first point later than `prev_t`.
        let (ta, tb) = (a.next_time(), b.next_time());
        let next = if tb < ta { tb } else { ta };
        let t = if next < hi { next } else { hi };
        let d = a.value_at(t) - b.value_at(t);
        area += (t - prev_t) * (prev_d + d) / 2.0;
        prev_t = t;
        prev_d = d;
    }
    Ok(area)
}

/// Fixed-width per-interval completion counters.
///
/// Counts accumulate online, with no need to know the run's span up front,
/// into fixed-width buckets anchored at `origin`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalCounts {
    origin: f64,
    width: f64,
    counts: Vec<u64>,
}

impl IntervalCounts {
    /// Creates an empty recorder with buckets of `width` starting at `origin`.
    pub fn new(origin: f64, width: f64) -> Result<Self> {
        if origin.is_nan() || width.is_nan() {
            return Err(StatsError::NanInput);
        }
        if !(width > 0.0 && width.is_finite()) {
            return Err(StatsError::InvalidParameter("width must be positive"));
        }
        Ok(IntervalCounts {
            origin,
            width,
            counts: Vec::new(),
        })
    }

    /// Records one completion at time `t` (must be `>= origin`).
    pub fn record(&mut self, t: f64) -> Result<()> {
        if t.is_nan() {
            return Err(StatsError::NanInput);
        }
        if t < self.origin {
            return Err(StatsError::InvalidParameter(
                "completion precedes the recorder origin",
            ));
        }
        let idx = ((t - self.origin) / self.width) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        Ok(())
    }

    /// Bucket start time.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// Bucket width in seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Per-bucket counts; bucket `i` covers
    /// `[origin + i·width, origin + (i+1)·width)`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total completions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn series_validation() {
        assert!(TimeSeries::from_points(vec![(0.0, 1.0), (1.0, 2.0)]).is_ok());
        assert!(TimeSeries::from_points(vec![(1.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(TimeSeries::from_points(vec![(0.0, f64::NAN)]).is_err());
    }

    #[test]
    fn push_enforces_order() {
        let mut s = TimeSeries::new();
        s.push(0.0, 1.0).unwrap();
        s.push(1.0, 2.0).unwrap();
        assert!(s.push(0.5, 0.0).is_err());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn interpolation() {
        let s = TimeSeries::from_points(vec![(0.0, 0.0), (10.0, 100.0)]).unwrap();
        assert!(close(s.value_at(5.0).unwrap(), 50.0));
        assert!(close(s.value_at(-1.0).unwrap(), 0.0)); // clamp low
        assert!(close(s.value_at(20.0).unwrap(), 100.0)); // clamp high
    }

    #[test]
    fn interpolation_duplicate_times() {
        // A vertical step: t=1 maps to the later value.
        let s =
            TimeSeries::from_points(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert!(close(s.value_at(1.0).unwrap(), 5.0));
        assert!(close(s.value_at(0.5).unwrap(), 0.0));
    }

    #[test]
    fn area_triangle() {
        let s = TimeSeries::from_points(vec![(0.0, 0.0), (2.0, 2.0)]).unwrap();
        assert!(close(s.area().unwrap(), 2.0));
    }

    #[test]
    fn area_difference_identical_is_zero() {
        let s = TimeSeries::from_points(vec![(0.0, 0.0), (1.0, 3.0), (2.0, 4.0)]).unwrap();
        assert!(close(s.area_difference(&s).unwrap(), 0.0));
    }

    #[test]
    fn area_difference_constant_offset() {
        let a = TimeSeries::from_points(vec![(0.0, 2.0), (10.0, 2.0)]).unwrap();
        let b = TimeSeries::from_points(vec![(0.0, 1.0), (10.0, 1.0)]).unwrap();
        assert!(close(a.area_difference(&b).unwrap(), 10.0));
        assert!(close(b.area_difference(&a).unwrap(), -10.0));
    }

    #[test]
    fn area_difference_partial_overlap() {
        let a = TimeSeries::from_points(vec![(0.0, 1.0), (10.0, 1.0)]).unwrap();
        let b = TimeSeries::from_points(vec![(5.0, 0.0), (15.0, 0.0)]).unwrap();
        // Overlap is [5, 10], difference is 1 throughout.
        assert!(close(a.area_difference(&b).unwrap(), 5.0));
    }

    #[test]
    fn area_difference_no_overlap() {
        let a = TimeSeries::from_points(vec![(0.0, 1.0), (1.0, 1.0)]).unwrap();
        let b = TimeSeries::from_points(vec![(5.0, 1.0), (6.0, 1.0)]).unwrap();
        assert!(close(a.area_difference(&b).unwrap(), 0.0));
    }

    #[test]
    fn area_difference_refuses_nan() {
        // `from_points` and `push` refuse NaN; a derived `Deserialize`
        // checks nothing, so build the series the way it would.
        let clean = TimeSeries::from_points(vec![(0.0, 1.0), (2.0, 3.0), (4.0, 0.0)]).unwrap();
        for points in [
            vec![(f64::NAN, 1.0), (2.0, 3.0), (4.0, 0.0)],
            vec![(0.0, 1.0), (f64::NAN, 3.0), (4.0, 0.0)],
            vec![(0.0, 1.0), (2.0, f64::NAN), (4.0, 0.0)],
            vec![(f64::NAN, f64::NAN)],
        ] {
            let dirty = TimeSeries { points };
            assert_eq!(dirty.area_difference(&clean), Err(StatsError::NanInput));
            assert_eq!(clean.area_difference(&dirty), Err(StatsError::NanInput));
            assert_eq!(dirty.area_difference(&dirty), Err(StatsError::NanInput));
        }
        assert_eq!(
            clean.area_difference(&TimeSeries::new()),
            Err(StatsError::Empty)
        );
    }

    #[test]
    fn cursor_steps_to_what_value_at_searches_for() {
        let s = TimeSeries::from_points(vec![
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0, 5.0),
            (1.0, 6.0),
            (2.5, 2.0),
            (4.0, 2.0),
            (4.0, 9.0),
        ])
        .unwrap();
        let mut cursor = Cursor::new(s.points()).unwrap();
        for i in -8..48 {
            let t = i as f64 / 8.0;
            let (stepped, searched) = (cursor.value_at(t), s.value_at(t).unwrap());
            assert_eq!(stepped.to_bits(), searched.to_bits(), "t = {t}");
            // Asking again for the same time changes nothing.
            assert_eq!(cursor.value_at(t).to_bits(), searched.to_bits());
        }
        assert!(cursor.value_at(f64::NAN).is_nan());
        assert_eq!(
            Cursor::new(TimeSeries::new().points()).err(),
            Some(StatsError::Empty)
        );
    }

    #[test]
    fn interval_recorder_buckets_and_totals() {
        let mut ic = IntervalCounts::new(1.0, 0.5).unwrap();
        for t in [1.0, 1.2, 1.5, 2.4, 2.6] {
            ic.record(t).unwrap();
        }
        assert_eq!(ic.counts(), &[2, 1, 1, 1]);
        assert_eq!(ic.total(), 5);
        assert!(ic.record(0.9).is_err());
        assert!(ic.record(f64::NAN).is_err());
    }

    #[test]
    fn interval_recorder_rejects_bad_geometry() {
        assert!(IntervalCounts::new(0.0, 0.0).is_err());
        assert!(IntervalCounts::new(0.0, -1.0).is_err());
        assert!(IntervalCounts::new(f64::NAN, 1.0).is_err());
        assert!(IntervalCounts::new(0.0, f64::INFINITY).is_err());
    }
}
