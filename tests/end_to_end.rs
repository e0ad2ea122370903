//! End-to-end integration tests: full scenario runs across every SUT, the
//! complete metric pipeline, and report serialization.

use lsbench::core::driver::run_query_workload;
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::cost::CostReport;
use lsbench::core::metrics::phi::{distribution_phis, DataPhiMethod};
use lsbench::core::metrics::sla::{SlaPolicy, SlaReport};
use lsbench::core::metrics::specialization::SpecializationReport;
use lsbench::core::record::RunRecord;
use lsbench::core::report;
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::query::generator::JoinQueryGenerator;
use lsbench::query::table::{Catalog, Table};
use lsbench::sut::cost::HardwareProfile;
use lsbench::sut::kv::{
    AlexSut, BTreeSut, HashSut, PgmSut, RetrainPolicy, RmiSut, SortedArraySut, SplineSut,
};
use lsbench::sut::query_sut::{
    BanditQuerySut, LearnedCardinalitySut, QueryOp, TraditionalQuerySut,
};
use lsbench::sut::sut::SystemUnderTest;
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::{Operation, OperationMix};
use lsbench::workload::phases::{PhasedWorkload, WorkloadPhase};

fn small_scenario() -> Scenario {
    Scenario::two_phase_shift(
        "e2e",
        KeyDistribution::Uniform,
        KeyDistribution::Zipf { theta: 1.1 },
        10_000,
        2_000,
        123,
    )
    .expect("valid scenario")
}

fn all_kv_suts(
    data: &lsbench::workload::dataset::Dataset,
) -> Vec<Box<dyn SystemUnderTest<Operation> + Send>> {
    vec![
        Box::new(BTreeSut::build(data).unwrap()),
        Box::new(SortedArraySut::build(data).unwrap()),
        Box::new(HashSut::build(data).unwrap()),
        Box::new(AlexSut::build(data).unwrap()),
        Box::new(RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05)).unwrap()),
        Box::new(PgmSut::build("pgm", data, RetrainPolicy::OnPhaseChange).unwrap()),
        Box::new(SplineSut::build("spline", data, RetrainPolicy::Never).unwrap()),
    ]
}

#[test]
fn every_kv_sut_completes_a_scenario() {
    let s = small_scenario();
    let data = s.dataset.build().expect("builds");
    for sut in &mut all_kv_suts(&data) {
        let r = Runner::new(sut.as_mut()).run(&s).unwrap().record;
        assert_eq!(r.completed(), 4_000, "{}", r.sut_name);
        assert!(r.exec_end > r.exec_start, "{}", r.sut_name);
        assert!(r.mean_throughput() > 0.0, "{}", r.sut_name);
        // All ops recorded with monotone time.
        for w in r.ops.windows(2) {
            assert!(w[0].t_end <= w[1].t_end);
        }
    }
}

#[test]
fn every_kv_sut_completes_on_the_concurrent_engine() {
    let s = small_scenario();
    let data = s.dataset.build().expect("builds");
    for sut in &mut all_kv_suts(&data) {
        let outcome = Runner::new(sut.as_mut())
            .config(RunOptions::with_mode(ExecutionMode::SharedLock {
                workers: 4,
            }))
            .run(&s)
            .unwrap();
        let (r, report) = (&outcome.record, outcome.engine.as_ref().unwrap());
        assert_eq!(r.completed(), 4_000, "{}", r.sut_name);
        assert_eq!(report.latency.total(), 4_000, "{}", r.sut_name);
        assert_eq!(report.completions.total(), 4_000, "{}", r.sut_name);
        assert!(r.exec_end > r.exec_start, "{}", r.sut_name);
        for w in r.ops.windows(2) {
            assert!(w[0].t_end <= w[1].t_end);
        }
    }
}

#[test]
fn full_metric_pipeline_from_one_run() {
    let s = small_scenario();
    let data = s.dataset.build().expect("builds");
    let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    let record = Runner::new(&mut rmi).run(&s).unwrap().record;

    // Φ axis.
    let dists: Vec<KeyDistribution> = s
        .workload
        .phases()
        .iter()
        .map(|p| p.distribution.clone())
        .collect();
    let phis =
        distribution_phis(&dists, (0, 10_000_000), DataPhiMethod::KolmogorovSmirnov, 7).unwrap();
    assert_eq!(phis.len(), 2);
    assert!(phis[0] < phis[1]);

    // Fig. 1a.
    let spec = SpecializationReport::from_record(&record, &phis, 100, &[]).unwrap();
    assert_eq!(spec.entries.len(), 2);
    let rendered = report::render_specialization(&spec);
    assert!(rendered.contains("Φ="));

    // Fig. 1b.
    let adapt = AdaptabilityReport::from_record(&record).unwrap();
    assert!(!adapt.curve.is_empty());
    assert!(adapt.area_vs(&adapt).unwrap().abs() < 1e-6);

    // Fig. 1c (threshold calibrated from the same record).
    let threshold = SlaPolicy::FromBaselineP99 { multiplier: 3.0 }
        .resolve(Some(&record))
        .unwrap();
    let sla =
        SlaReport::from_record(&record, threshold, record.exec_duration() / 10.0, 500).unwrap();
    let total: usize = sla.bands.iter().map(|b| b.total()).sum();
    assert_eq!(total, record.completed());

    // Fig. 1d.
    let cost = CostReport::from_record(&record, &[HardwareProfile::cpu(), HardwareProfile::gpu()])
        .unwrap();
    assert_eq!(cost.breakdowns.len(), 2);
    assert!(cost.breakdowns[0].training.dollars >= 0.0);

    // All reports serialize to JSON and the run record round-trips.
    for json in [
        report::to_json(&spec).unwrap(),
        report::to_json(&adapt).unwrap(),
        report::to_json(&sla).unwrap(),
        report::to_json(&cost).unwrap(),
    ] {
        assert!(json.len() > 2);
    }
    let json = report::to_json(&record).unwrap();
    let back: RunRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back.ops.len(), record.ops.len());
    assert_eq!(back.sut_name, record.sut_name);
}

#[test]
fn holdout_pipeline() {
    let mut s = small_scenario();
    s.holdout = Some(
        PhasedWorkload::single(
            WorkloadPhase::new(
                "unseen",
                KeyDistribution::Hotspot {
                    hot_span: 0.05,
                    hot_fraction: 0.95,
                },
                (0, 10_000_000),
                OperationMix::ycsb_c(),
                1_000,
            ),
            99,
        )
        .unwrap(),
    );
    let data = s.dataset.build().unwrap();
    let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::OnPhaseChange).unwrap();
    let opts = RunOptions {
        holdout: true,
        ..RunOptions::default()
    };
    let outcome = Runner::new(&mut rmi).config(opts).run(&s).unwrap();
    let (hold, rep) = outcome.holdout.unwrap();
    assert_eq!(hold.completed(), 1_000);
    assert!(rep.generalization_ratio > 0.0);
}

#[test]
fn query_suts_complete_a_workload() {
    let mut cat = Catalog::new();
    cat.add(Table::generate("fact", 5_000, 3, 1));
    cat.add(Table::generate("dim", 200, 2, 2));
    let mut g = JoinQueryGenerator::new(&cat, "fact", vec!["dim".into()], (0, 500), 3).unwrap();
    let ops: Vec<QueryOp> = g
        .take(30)
        .into_iter()
        .map(|query| QueryOp { query })
        .collect();
    let phases = vec![("p0".to_string(), ops)];

    let mut suts: Vec<Box<dyn SystemUnderTest<QueryOp>>> = vec![
        Box::new(TraditionalQuerySut::build(cat.clone()).unwrap()),
        Box::new(LearnedCardinalitySut::build(cat.clone()).unwrap()),
        Box::new(BanditQuerySut::build(cat.clone(), 0.2, 4).unwrap()),
    ];
    for sut in &mut suts {
        let r = run_query_workload(sut.as_mut(), &phases, 1_000_000.0, u64::MAX).unwrap();
        assert_eq!(r.completed(), 30, "{}", r.sut_name);
        assert!(r.failures() == 0, "{}", r.sut_name);
    }
}

#[test]
fn learned_beats_btree_on_reads_loses_on_unsupported() {
    // Cross-SUT sanity: relative ordering of mean throughput on a read-only
    // uniform workload must favor hash > learned > btree in work units.
    let s = Scenario::specialization_sweep(
        "ordering",
        vec![KeyDistribution::Uniform],
        50_000,
        5_000,
        OperationMix::ycsb_c(),
        5,
    )
    .unwrap();
    let data = s.dataset.build().unwrap();
    let mut hash = HashSut::build(&data).unwrap();
    let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
    let mut btree = BTreeSut::build(&data).unwrap();
    let th = Runner::new(&mut hash)
        .run(&s)
        .unwrap()
        .record
        .mean_throughput();
    let tr = Runner::new(&mut rmi)
        .run(&s)
        .unwrap()
        .record
        .mean_throughput();
    let tb = Runner::new(&mut btree)
        .run(&s)
        .unwrap()
        .record
        .mean_throughput();
    assert!(th > tr, "hash {th} !> rmi {tr}");
    assert!(tr > tb, "rmi {tr} !> btree {tb}");

    // But the hash index fails every scan.
    let scan_scenario = Scenario::specialization_sweep(
        "scans",
        vec![KeyDistribution::Uniform],
        10_000,
        500,
        OperationMix::ycsb_e(),
        6,
    )
    .unwrap();
    let scan_data = scan_scenario.dataset.build().unwrap();
    let mut hash = HashSut::build(&scan_data).unwrap();
    let r = Runner::new(&mut hash).run(&scan_scenario).unwrap().record;
    assert!(
        r.failures() > 400,
        "hash should fail scans: {} failures",
        r.failures()
    );
}
