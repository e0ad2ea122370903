//! Property-based tests for statistical invariants.

use lsbench_stats::descriptive::{quantile, BoxPlot, FiveNumber, Summary};
use lsbench_stats::histogram::{EquiDepthHistogram, EquiWidthHistogram, LatencyHistogram};
use lsbench_stats::jaccard::jaccard_similarity;
use lsbench_stats::ks::ks_statistic;
use lsbench_stats::timeseries::{area_between, CumulativeCurve, TimeSeries};
use lsbench_stats::StatsError;
use proptest::prelude::*;
use std::collections::HashSet;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// `TimeSeries::area_difference` as it was evaluated before the merge walk
/// replaced it: collect the breakpoints of both series inside the shared
/// span, sort them, drop repeats, and binary-search both series at each one.
/// Kept as the oracle the walk must equal bit for bit.
fn area_difference_by_search(a: &TimeSeries, b: &TimeSeries) -> f64 {
    let (pa, pb) = (a.points(), b.points());
    let lo = pa[0].0.max(pb[0].0);
    let hi = pa[pa.len() - 1].0.min(pb[pb.len() - 1].0);
    if hi <= lo {
        return 0.0;
    }
    let mut ts: Vec<f64> = std::iter::once(lo)
        .chain(
            pa.iter()
                .chain(pb.iter())
                .map(|&(t, _)| t)
                .filter(|&t| t > lo && t < hi),
        )
        .chain(std::iter::once(hi))
        .collect();
    ts.sort_by(|x, y| x.partial_cmp(y).expect("times are not NaN"));
    ts.dedup();
    let diff = |t: f64| a.value_at(t).unwrap() - b.value_at(t).unwrap();
    let mut area = 0.0;
    let mut prev_t = ts[0];
    let mut prev_d = diff(prev_t);
    for &t in &ts[1..] {
        let d = diff(t);
        area += (t - prev_t) * (prev_d + d) / 2.0;
        prev_t = t;
        prev_d = d;
    }
    area
}

/// A series on a coarse grid of thirds starting at `offset`: few distinct
/// times for many points, so ties within and across series are the rule.
fn grid_series(points: Vec<(u32, f64)>, offset: u32) -> TimeSeries {
    let mut pts: Vec<(f64, f64)> = points
        .into_iter()
        .map(|(k, v)| ((k + offset) as f64 / 3.0, v))
        .collect();
    pts.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    TimeSeries::from_points(pts).unwrap()
}

fn assert_walk_equals_search(a: &TimeSeries, b: &TimeSeries) {
    let ab = a.area_difference(b).unwrap();
    let ba = b.area_difference(a).unwrap();
    assert_eq!(
        ab.to_bits(),
        area_difference_by_search(a, b).to_bits(),
        "{a:?} against {b:?}"
    );
    assert_eq!(
        ba.to_bits(),
        area_difference_by_search(b, a).to_bits(),
        "{b:?} against {a:?}"
    );
    assert_eq!(ab, -ba, "exactly antisymmetric: {a:?} against {b:?}");
    assert_eq!(a.area_difference(a).unwrap(), 0.0, "{a:?} against itself");
}

#[test]
fn area_walk_equals_search_on_the_edge_shapes() {
    let series = |pts: &[(f64, f64)]| TimeSeries::from_points(pts.to_vec()).unwrap();
    let shapes = [
        series(&[(1.0, 5.0)]),
        series(&[(2.0, -3.0)]),
        series(&[(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]),
        series(&[(0.0, 0.0), (1.0, 1.0), (1.0, 4.0), (2.0, 4.0), (3.0, 0.5)]),
        series(&[(1.0, 2.0), (1.0, 3.0), (2.0, 7.0), (2.0, 1.0)]),
        series(&[(0.5, 1.0), (2.5, -1.0)]),
        series(&[(2.0, 1.0), (2.0, 9.0), (2.5, 0.0), (4.0, 0.1)]),
        series(&[(3.0, 1.0), (5.0, 2.0)]),
        series(&[(-1.0, 0.3), (0.1, 0.7), (0.2, 0.7), (0.3, 1e9), (7.0, -1e9)]),
    ];
    for a in &shapes {
        for b in &shapes {
            assert_walk_equals_search(a, b);
        }
    }
}

/// NaN cannot be put into a `TimeSeries` from outside the crate (its unit
/// tests cover that), but `area_between` takes any slice: a NaN at either
/// end is refused, and one in the middle neither panics nor hangs the walk.
#[test]
fn area_between_survives_nan() {
    let clean = [(0.0, 1.0), (1.0, 2.0), (4.0, 0.0)];
    let nan = f64::NAN;
    for ends in [
        [(nan, 1.0), (1.0, 2.0), (4.0, 0.0)],
        [(0.0, 1.0), (1.0, 2.0), (nan, 0.0)],
    ] {
        assert_eq!(
            area_between(&ends[..], &clean[..]),
            Err(StatsError::NanInput)
        );
        assert_eq!(
            area_between(&clean[..], &ends[..]),
            Err(StatsError::NanInput)
        );
    }
    for middle in [
        [(0.0, 1.0), (nan, 2.0), (4.0, 0.0)],
        [(0.0, 1.0), (1.0, nan), (4.0, 0.0)],
        [(0.0, nan), (nan, nan), (4.0, nan)],
    ] {
        assert!(area_between(&middle[..], &clean[..]).is_ok());
        assert!(area_between(&clean[..], &middle[..]).is_ok());
        assert!(area_between(&middle[..], &middle[..]).is_ok());
    }
}

proptest! {
    #[test]
    fn summary_bounds(data in finite_vec(200)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert_eq!(s.count, data.len());
    }

    #[test]
    fn quantiles_monotone(data in finite_vec(100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&data, lo).unwrap();
        let b = quantile(&data, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn five_number_ordered(data in finite_vec(100)) {
        let f = FiveNumber::of(&data).unwrap();
        prop_assert!(f.min <= f.q1 + 1e-12);
        prop_assert!(f.q1 <= f.median + 1e-12);
        prop_assert!(f.median <= f.q3 + 1e-12);
        prop_assert!(f.q3 <= f.max + 1e-12);
    }

    #[test]
    fn boxplot_partition(data in finite_vec(150)) {
        let b = BoxPlot::of(&data).unwrap();
        // Whiskers inside data range; outliers strictly outside whiskers.
        prop_assert!(b.whisker_lo >= b.five.min - 1e-12);
        prop_assert!(b.whisker_hi <= b.five.max + 1e-12);
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
        prop_assert!(b.outliers.len() <= b.count);
    }

    #[test]
    fn ks_bounds_and_symmetry(a in finite_vec(80), b in finite_vec(80)) {
        let d = ks_statistic(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - ks_statistic(&b, &a).unwrap()).abs() < 1e-12);
        prop_assert_eq!(ks_statistic(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn jaccard_bounds(a in prop::collection::hash_set(0u32..50, 0..30),
                      b in prop::collection::hash_set(0u32..50, 0..30)) {
        let s = jaccard_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, jaccard_similarity(&b, &a));
        let empty: HashSet<u32> = HashSet::new();
        prop_assert_eq!(jaccard_similarity(&empty, &empty), 1.0);
    }

    #[test]
    fn equi_width_cdf_monotone(data in finite_vec(120), xs in prop::collection::vec(-1e6f64..1e6, 2..20)) {
        let h = EquiWidthHistogram::from_data(&data, 16).unwrap();
        let mut sorted = xs;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = -1.0;
        for x in sorted {
            let c = h.estimate_cdf(x);
            prop_assert!(c >= prev - 1e-9);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn equi_depth_cdf_bounds(data in finite_vec(120), x in -1e6f64..1e6) {
        let h = EquiDepthHistogram::from_data(&data, 8).unwrap();
        let c = h.estimate_cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn latency_histogram_quantile_bounds(values in prop::collection::vec(0u64..1_000_000_000, 1..200), q in 0.0f64..1.0) {
        let mut h = LatencyHistogram::new();
        for &v in &values { h.record(v); }
        let est = h.quantile(q).unwrap();
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        // Bucketing may round the estimate down by <2%.
        prop_assert!(est as f64 >= min as f64 * 0.98 - 1.0);
        prop_assert!(est <= max);
    }

    #[test]
    fn latency_histogram_total_conserved(values in prop::collection::vec(0u64..1_000_000, 1..200), thr in 0u64..1_000_000) {
        let mut h = LatencyHistogram::new();
        for &v in &values { h.record(v); }
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert!(h.count_above(thr) <= h.total());
    }

    #[test]
    fn area_difference_antisymmetric(
        a in prop::collection::vec((0.0f64..100.0, -100.0f64..100.0), 2..20),
        b in prop::collection::vec((0.0f64..100.0, -100.0f64..100.0), 2..20),
    ) {
        let mut pa = a; pa.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let mut pb = b; pb.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let sa = TimeSeries::from_points(pa).unwrap();
        let sb = TimeSeries::from_points(pb).unwrap();
        let ab = sa.area_difference(&sb).unwrap();
        let ba = sb.area_difference(&sa).unwrap();
        prop_assert!((ab + ba).abs() < 1e-6 * (1.0 + ab.abs()));
    }

    #[test]
    fn area_walk_equals_search_to_the_bit(
        a in prop::collection::vec((0u32..12, -100.0f64..100.0), 1..40),
        b in prop::collection::vec((0u32..12, -100.0f64..100.0), 1..40),
        shift in 0u32..26,
    ) {
        // `a` spans at most [4, 23/3]; `b` slides from wholly below it,
        // through touching, overlapping and nested, to wholly above.
        assert_walk_equals_search(&grid_series(a, 12), &grid_series(b, shift));
    }

    #[test]
    fn curve_interval_counts_conserve(ts in prop::collection::vec(0.0f64..100.0, 1..300)) {
        let c = CumulativeCurve::from_timestamps(ts.clone()).unwrap();
        let counts = c.interval_counts(0.0, 100.0 + 1e-9, 7.0).unwrap();
        prop_assert_eq!(counts.iter().sum::<usize>(), ts.len());
        prop_assert_eq!(c.total(), ts.len());
    }

    #[test]
    fn curve_completed_by_monotone(ts in prop::collection::vec(0.0f64..100.0, 1..100), t1 in 0.0f64..100.0, t2 in 0.0f64..100.0) {
        let c = CumulativeCurve::from_timestamps(ts).unwrap();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(c.completed_by(lo) <= c.completed_by(hi));
        prop_assert!(c.completed_before(lo) <= c.completed_by(lo));
    }
}
