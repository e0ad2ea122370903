//! Property-based tests for statistical invariants.

use lsbench_stats::descriptive::{quantile, BoxPlot, FiveNumber, Summary};
use lsbench_stats::histogram::{EquiDepthHistogram, EquiWidthHistogram, LatencyHistogram};
use lsbench_stats::jaccard::jaccard_similarity;
use lsbench_stats::ks::ks_statistic;
use lsbench_stats::timeseries::{CumulativeCurve, TimeSeries};
use proptest::prelude::*;
use std::collections::HashSet;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
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
