//! Property tests over the full benchmark pipeline: whatever the scenario
//! parameters, the driver and metrics must keep their invariants.

use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::phi::{data_phi, kv_workload_phi, DataPhiMethod};
use lsbench::core::metrics::sla::SlaReport;
use lsbench::core::results::compare as results_compare;
use lsbench::core::runner::Runner;
use lsbench::core::scenario::Scenario;
use lsbench::sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::Operation;
use proptest::prelude::*;

fn arb_distribution() -> impl Strategy<Value = KeyDistribution> {
    prop_oneof![
        Just(KeyDistribution::Uniform),
        (0.5f64..1.8).prop_map(|theta| KeyDistribution::Zipf { theta }),
        (0.05f64..0.95, 0.01f64..0.3)
            .prop_map(|(center, std_frac)| KeyDistribution::Normal { center, std_frac }),
        (0.01f64..0.5, 0.5f64..1.0).prop_map(|(hot_span, hot_fraction)| {
            KeyDistribution::Hotspot {
                hot_span,
                hot_fraction,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn driver_invariants_hold_for_any_shift(
        first in arb_distribution(),
        second in arb_distribution(),
        ops in 200u64..1500,
        seed in 0u64..1000,
    ) {
        let s = Scenario::two_phase_shift("prop", first, second, 3_000, ops, seed).unwrap();
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.1)).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;

        // Completion count and ordering.
        prop_assert_eq!(r.completed() as u64, 2 * ops);
        for w in r.ops.windows(2) {
            prop_assert!(w[0].t_end <= w[1].t_end);
        }
        // All latencies positive and bounded by the whole run.
        let span = r.exec_end - r.exec_start;
        for o in &r.ops {
            prop_assert!(o.latency > 0.0 && o.latency <= span + 1e-9);
            prop_assert!(o.t_end >= r.exec_start && o.t_end <= r.exec_end + 1e-9);
        }
        // Exactly two phases, both populated.
        prop_assert_eq!(r.phase_latencies(0).len() as u64, ops);
        prop_assert_eq!(r.phase_latencies(1).len() as u64, ops);
        // Training is charged before execution.
        prop_assert!(r.exec_start >= r.train.seconds - 1e-12);
    }

    #[test]
    fn sla_bands_conserve_for_any_parameters(
        ops in 200u64..1000,
        seed in 0u64..500,
        interval_div in 3.0f64..80.0,
        threshold_us in 1.0f64..200.0,
    ) {
        let s = Scenario::two_phase_shift(
            "prop-sla",
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 1.2 },
            2_000,
            ops,
            seed,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        let report = SlaReport::from_record(
            &r,
            threshold_us * 1e-6,
            r.exec_duration() / interval_div,
            100,
        )
        .unwrap();
        let banded: usize = report.bands.iter().map(|b| b.total()).sum();
        prop_assert_eq!(banded, r.completed());
        prop_assert!((0.0..=1.0).contains(&report.violation_fraction));
    }

    #[test]
    fn adaptability_curve_well_formed(
        first in arb_distribution(),
        ops in 300u64..1200,
        seed in 0u64..500,
    ) {
        let s = Scenario::two_phase_shift(
            "prop-adapt",
            first,
            KeyDistribution::Uniform,
            2_000,
            ops,
            seed,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        let rep = AdaptabilityReport::from_record(&r).unwrap();
        // Monotone curve ending at the completion count.
        for w in rep.curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
        prop_assert!((rep.curve.last().unwrap().1 - r.completed() as f64).abs() < 1.0);
        // Normalized area bounded by 1 in magnitude.
        prop_assert!(rep.normalized_area.abs() <= 1.0);
        // Self-comparison is zero.
        prop_assert!(rep.area_vs(&rep).unwrap().abs() < 1e-9);
    }

    /// Adaptability comparison is a signed difference: identical curves
    /// give exactly zero, and swapping the operands flips the sign.
    #[test]
    fn adaptability_area_is_zero_at_identity_and_antisymmetric(
        first in arb_distribution(),
        ops in 300u64..1000,
        seed in 0u64..500,
    ) {
        let s = Scenario::two_phase_shift(
            "prop-area",
            first,
            KeyDistribution::Zipf { theta: 1.2 },
            2_000,
            ops,
            seed,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut btree = BTreeSut::build(&data).unwrap();
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.1)).unwrap();
        let ra = AdaptabilityReport::from_record(
            &Runner::new(&mut btree).run(&s).unwrap().record,
        )
        .unwrap();
        let rb = AdaptabilityReport::from_record(
            &Runner::new(&mut rmi).run(&s).unwrap().record,
        )
        .unwrap();
        // Identity: a curve compared with a bit-identical clone is 0.
        prop_assert_eq!(ra.area_vs(&ra.clone()).unwrap(), 0.0);
        // Antisymmetry: area(a, b) = -area(b, a).
        let ab = ra.area_vs(&rb).unwrap();
        let ba = rb.area_vs(&ra).unwrap();
        prop_assert!(
            (ab + ba).abs() < 1e-9,
            "area_vs must be sign-symmetric: {} vs {}",
            ab,
            ba
        );
    }

    /// The head-to-head comparison at identity: comparing any record with
    /// itself yields *exactly* zero everywhere — the area difference is
    /// the literal f64 0.0, every scalar and box-stat delta is zero, every
    /// fault delta is zero, and the cost ratio is exactly 1.
    #[test]
    fn compare_with_self_is_all_zero(
        first in arb_distribution(),
        ops in 300u64..1000,
        seed in 0u64..500,
    ) {
        let s = Scenario::two_phase_shift(
            "prop-cmp-id",
            first,
            KeyDistribution::Zipf { theta: 1.2 },
            2_000,
            ops,
            seed,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.1)).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        let cmp = results_compare(&r, &r).unwrap();
        prop_assert_eq!(cmp.area_difference, 0.0);
        prop_assert_eq!(cmp.throughput.delta, 0.0);
        prop_assert_eq!(cmp.p50_latency.delta, 0.0);
        prop_assert_eq!(cmp.p99_latency.delta, 0.0);
        prop_assert_eq!(cmp.sla.violation_fraction.delta, 0.0);
        prop_assert_eq!(cmp.sla.worst_adjustment.delta, 0.0);
        prop_assert!(cmp.phases.iter().all(|p| p.delta.is_zero()));
        prop_assert!(cmp.faults.is_zero());
        if let Some(ratio) = cmp.cost.ratio {
            prop_assert_eq!(ratio, 1.0);
        }
    }

    /// Swapping the comparison operands negates every *signed* delta
    /// exactly (bitwise, not within epsilon). The SLA section and the
    /// cost ratio are the documented exceptions: the SLA threshold is
    /// calibrated from whichever record is the baseline, and cost is a
    /// ratio, so neither is antisymmetric by construction.
    #[test]
    fn compare_signed_deltas_negate_under_swap(
        first in arb_distribution(),
        ops in 300u64..1000,
        seed in 0u64..500,
    ) {
        let s = Scenario::two_phase_shift(
            "prop-cmp-anti",
            first,
            KeyDistribution::Zipf { theta: 1.2 },
            2_000,
            ops,
            seed,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut btree = BTreeSut::build(&data).unwrap();
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.1)).unwrap();
        let ra = Runner::new(&mut btree).run(&s).unwrap().record;
        let rb = Runner::new(&mut rmi).run(&s).unwrap().record;
        let ab = results_compare(&ra, &rb).unwrap();
        let ba = results_compare(&rb, &ra).unwrap();
        prop_assert_eq!(ab.area_difference, -ba.area_difference);
        prop_assert_eq!(ab.throughput.delta, -ba.throughput.delta);
        prop_assert_eq!(ab.p50_latency.delta, -ba.p50_latency.delta);
        prop_assert_eq!(ab.p99_latency.delta, -ba.p99_latency.delta);
        prop_assert_eq!(ab.phases.len(), ba.phases.len());
        for (x, y) in ab.phases.iter().zip(&ba.phases) {
            prop_assert_eq!(&x.phase, &y.phase);
            prop_assert_eq!(x.delta.median, -y.delta.median);
            prop_assert_eq!(x.delta.q1, -y.delta.q1);
            prop_assert_eq!(x.delta.q3, -y.delta.q3);
            prop_assert_eq!(x.delta.whisker_lo, -y.delta.whisker_lo);
            prop_assert_eq!(x.delta.whisker_hi, -y.delta.whisker_hi);
        }
        prop_assert_eq!(ab.faults.injected, -ba.faults.injected);
        prop_assert_eq!(ab.faults.retries, -ba.faults.retries);
        prop_assert_eq!(ab.faults.failed_ops, -ba.faults.failed_ops);
    }

    /// The two branchless searches the learned indexes use are pinned to
    /// the standard library, element by element, on arbitrary sorted
    /// slices (duplicates included): `partition_point_by` equals
    /// `slice::partition_point` under both `<` and `<=`, and every lane of
    /// `lower_bound_group` equals `partition_point` over its window.
    #[test]
    fn partition_point_by_and_lower_bound_group_match_std_on_arbitrary_slices(
        mut keys in proptest::collection::vec(0u64..2_000, 0..400),
        probes in proptest::collection::vec(0u64..2_100, 1..60),
    ) {
        use lsbench::index::search::partition_point_by;
        keys.sort_unstable();
        for &key in &probes {
            prop_assert_eq!(
                partition_point_by(&keys, |&k| k < key),
                keys.partition_point(|&k| k < key),
                "partition_point_by(< {})",
                key
            );
            prop_assert_eq!(
                partition_point_by(&keys, |&k| k <= key),
                keys.partition_point(|&k| k <= key),
                "partition_point_by(<= {})",
                key
            );
        }
        // The lockstep batch resolves every lane exactly like the standard
        // search over the same window — including empty, full, and
        // partial windows.
        use lsbench::index::search::{lower_bound_group, GROUP};
        for chunk in probes.chunks(GROUP) {
            let windows: Vec<(usize, usize)> = chunk
                .iter()
                .enumerate()
                .map(|(i, _)| match i % 3 {
                    0 => (0, keys.len()),
                    1 => {
                        let mid = keys.len() / 2;
                        (mid.min(keys.len()), keys.len())
                    }
                    _ => (0, 0),
                })
                .collect();
            let mut got = vec![0usize; chunk.len()];
            lower_bound_group(&keys, chunk, &windows, &mut got);
            for (i, (&key, &(lo, hi))) in chunk.iter().zip(&windows).enumerate() {
                let want = lo + keys[lo..hi].partition_point(|&k| k < key);
                prop_assert_eq!(
                    got[i], want,
                    "lower_bound_group lane {} for key {} over [{}, {})",
                    i, key, lo, hi
                );
            }
        }
    }

    /// Φ stays a distance: in [0, 1] for arbitrary same-range samples,
    /// whatever the method.
    #[test]
    fn phi_is_bounded_for_arbitrary_samples(
        a in proptest::collection::vec(0.0f64..1.0, 50..300),
        b in proptest::collection::vec(0.0f64..1.0, 50..300),
    ) {
        for method in [
            DataPhiMethod::KolmogorovSmirnov,
            DataPhiMethod::MaximumMeanDiscrepancy,
        ] {
            let phi = data_phi(&a, &b, method).unwrap();
            prop_assert!((0.0..=1.0).contains(&phi), "{method:?}: {phi}");
        }
    }
}

// ---------------------------------------------------------------------------
// Φ extremes: 0 at identity, 1 (or saturating) at disjoint support —
// the anchors that make the Fig. 1a X-axis meaningful.
// ---------------------------------------------------------------------------

#[test]
fn phi_is_zero_at_identity_and_one_at_disjoint_support() {
    let near: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
    let far: Vec<f64> = (0..500).map(|i| 1000.0 + i as f64 / 500.0).collect();

    // Identity: a sample compared with itself.
    assert_eq!(
        data_phi(&near, &near, DataPhiMethod::KolmogorovSmirnov).unwrap(),
        0.0
    );
    let mmd_self = data_phi(&near, &near, DataPhiMethod::MaximumMeanDiscrepancy).unwrap();
    assert!(mmd_self < 1e-6, "MMD at identity: {mmd_self}");

    // Disjoint support: KS is exactly 1; MMD approaches its structural
    // maximum (the median-bandwidth RBF kernel keeps within-sample
    // similarity below 1, so the distance tops out near √(2·(1−k̄)) ≈ 0.89
    // rather than the clamp).
    assert_eq!(
        data_phi(&near, &far, DataPhiMethod::KolmogorovSmirnov).unwrap(),
        1.0
    );
    let mmd_far = data_phi(&near, &far, DataPhiMethod::MaximumMeanDiscrepancy).unwrap();
    assert!(mmd_far > 0.85, "MMD at disjoint support: {mmd_far}");
    assert!(
        mmd_far > 100.0 * mmd_self,
        "disjoint MMD must dwarf identity MMD: {mmd_far} vs {mmd_self}"
    );
}

#[test]
fn kv_workload_phi_hits_both_extremes() {
    // Jaccard leg: identical workloads are at distance 0...
    let reads: Vec<Operation> = (0..200).map(|k| Operation::Read { key: k }).collect();
    assert_eq!(kv_workload_phi(&reads, &reads).unwrap(), 0.0);

    // ...and workloads sharing no operation kind and no key range are at
    // distance 1 (mix Jaccard 0 and KS statistic 1).
    let writes: Vec<Operation> = (0..200)
        .map(|k| Operation::Insert {
            key: 1_000_000 + k,
            value: k,
        })
        .collect();
    assert_eq!(kv_workload_phi(&reads, &writes).unwrap(), 1.0);
}
