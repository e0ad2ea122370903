//! Cross-metric conservation and consistency laws, checked on real runs:
//! whatever the SUT does, the metric pipeline must keep its books balanced.

use lsbench::core::faults::resolve_fault_plan;
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::cost::CostReport;
use lsbench::core::metrics::sla::SlaReport;
use lsbench::core::metrics::specialization::SpecializationReport;
use lsbench::core::record::RunRecord;
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::{ArrivalSpec, Scenario};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::sut::cost::{DbaCostModel, HardwareProfile};
use lsbench::sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;

fn run_pair() -> (RunRecord, RunRecord) {
    let s = Scenario::two_phase_shift(
        "consistency",
        KeyDistribution::Uniform,
        KeyDistribution::Hotspot {
            hot_span: 0.1,
            hot_fraction: 0.9,
        },
        15_000,
        2_500,
        17,
    )
    .unwrap();
    let data = s.dataset.build().unwrap();
    let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    let mut btree = BTreeSut::build(&data).unwrap();
    (
        Runner::new(&mut rmi).run(&s).unwrap().record,
        Runner::new(&mut btree).run(&s).unwrap().record,
    )
}

#[test]
fn sla_bands_conserve_completions() {
    let (rmi, _) = run_pair();
    for interval_div in [7.0, 23.0, 50.0] {
        let report =
            SlaReport::from_record(&rmi, 0.0001, rmi.exec_duration() / interval_div, 100).unwrap();
        let banded: usize = report.bands.iter().map(|b| b.total()).sum();
        assert_eq!(banded, rmi.completed(), "interval_div = {interval_div}");
        let colored: usize = report
            .color_bands
            .iter()
            .map(|c| c.green + c.yellow + c.orange + c.red)
            .sum();
        assert_eq!(colored, rmi.completed());
        // Violation fraction consistent with band sums.
        let violated: usize = report.bands.iter().map(|b| b.violated).sum();
        assert!(
            (report.violation_fraction - violated as f64 / rmi.completed() as f64).abs() < 1e-12
        );
    }
}

#[test]
fn specialization_covers_all_phases_with_data() {
    let (rmi, _) = run_pair();
    let spec = SpecializationReport::from_record(&rmi, &[0.0, 0.8], 50, &[1]).unwrap();
    assert_eq!(spec.entries.len(), 2);
    // Sorted by phi.
    assert!(spec.entries[0].phi <= spec.entries[1].phi);
    // Box-plot internal consistency.
    for e in &spec.entries {
        let b = &e.throughput;
        assert!(b.whisker_lo <= b.five.median && b.five.median <= b.whisker_hi);
        assert!(b.count > 0);
    }
    assert!(spec.entries[1].holdout);
}

#[test]
fn adaptability_identities() {
    let (rmi, btree) = run_pair();
    let ra = AdaptabilityReport::from_record(&rmi).unwrap();
    let rb = AdaptabilityReport::from_record(&btree).unwrap();
    // Antisymmetry of the two-system area.
    let ab = ra.area_vs(&rb).unwrap();
    let ba = rb.area_vs(&ra).unwrap();
    assert!((ab + ba).abs() < 1e-6 * (1.0 + ab.abs()));
    // The curve ends at the total completion count.
    assert!((ra.curve.last().unwrap().1 - rmi.completed() as f64).abs() < 1.0);
    // Phase throughputs are positive for phases with completions.
    for &t in &ra.phase_throughput {
        assert!(t > 0.0);
    }
}

#[test]
fn cost_scales_with_hardware_consistently() {
    let (rmi, _) = run_pair();
    let report = CostReport::from_record(
        &rmi,
        &[
            HardwareProfile::cpu(),
            HardwareProfile::gpu(),
            HardwareProfile::tpu(),
        ],
    )
    .unwrap();
    // Same work, faster hardware: seconds strictly decrease.
    let secs: Vec<f64> = report
        .breakdowns
        .iter()
        .map(|b| b.training.seconds)
        .collect();
    assert!(secs[0] > secs[1] && secs[1] > secs[2], "{secs:?}");
    // Dollars = seconds × rate, so ratios must match profile rates.
    let cpu = &report.breakdowns[0];
    assert!(
        (cpu.training.dollars - cpu.training.seconds / 3600.0 * 0.40).abs() < 1e-12,
        "cpu dollars inconsistent"
    );
}

#[test]
fn dba_step_function_sanity() {
    let dba = DbaCostModel::default_model(1_000.0);
    // throughput_at is a non-decreasing step function of spend.
    let mut prev = 0.0;
    for spend in [0.0, 100.0, 400.0, 500.0, 1600.0, 6400.0, 100_000.0] {
        let t = dba.throughput_at(spend);
        assert!(t >= prev);
        prev = t;
    }
    // cost_to_reach inverts throughput_at on the step points.
    for &(cost, tput) in dba.steps() {
        assert_eq!(dba.cost_to_reach(tput), Some(cost));
    }
}

#[test]
fn training_is_first_class_in_records() {
    let (rmi, btree) = run_pair();
    // Lesson 3: the learned system's training is visible and the
    // traditional system's is zero.
    assert!(rmi.train.work > 0);
    assert!(rmi.train.seconds > 0.0);
    assert_eq!(rmi.exec_start, rmi.train.seconds);
    assert_eq!(btree.train.work, 0);
    assert_eq!(btree.exec_start, 0.0);
    // Metrics carry it too.
    assert!(rmi.final_metrics.training_work >= rmi.train.work);
    assert_eq!(btree.final_metrics.training_work, 0);
}

#[test]
fn mix_failures_accounted() {
    // Scan-bearing workload on a hash SUT: failures counted, not dropped.
    let s = Scenario::specialization_sweep(
        "fail-accounting",
        vec![KeyDistribution::Uniform],
        5_000,
        1_000,
        OperationMix::range_heavy(),
        23,
    )
    .unwrap();
    let data = s.dataset.build().unwrap();
    let mut hash = lsbench::sut::kv::HashSut::build(&data).unwrap();
    let r = Runner::new(&mut hash).run(&s).unwrap().record;
    assert_eq!(r.completed(), 1_000);
    assert!(r.failures() > 300);
    assert!(r.failures() < 700);
}

#[test]
fn registry_restates_the_record_in_every_mode() {
    // The same facts are kept three times — op records, `EngineStats`, the
    // metrics registry — and must agree, failures and injected faults
    // included: a hash SUT fails every scan, chaos-errors fails more.
    let mut plain = Scenario::specialization_sweep(
        "restated",
        vec![KeyDistribution::Uniform],
        5_000,
        1_000,
        OperationMix::range_heavy(),
        23,
    )
    .unwrap();
    plain.arrival = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate: 20_000.0 },
        modulation: LoadModulation::Constant,
        seed: 29,
    });
    let mut faulted = plain.clone();
    faulted.faults = Some(resolve_fault_plan("chaos-errors").unwrap());
    faulted.validate().unwrap();
    let modes = [
        ExecutionMode::Serial,
        ExecutionMode::SharedLock { workers: 4 },
        ExecutionMode::Sharded { workers: 4 },
        ExecutionMode::OpenLoop {
            clients: 1_000,
            workers: 2,
        },
    ];
    let registry = SutRegistry::default();
    for (scenario, mode) in [&plain, &faulted]
        .into_iter()
        .flat_map(|s| modes.map(|m| (s, m)))
    {
        let what = format!("{} faults={}", mode.label(), scenario.faults.is_some());
        let outcome = Runner::from_factory(registry.factory("hash").unwrap())
            .config(RunOptions::with_mode(mode))
            .run(scenario)
            .unwrap();
        let (record, m) = (&outcome.record, &outcome.metrics);
        let ops = record.ops.len() as u64;
        assert_eq!(ops, 1_000, "{what}");
        assert!(record.failures() > 300, "{what}");
        // `completed()` counts every recorded op; the registry splits them.
        assert_eq!(m.counter("ops_failed"), record.failures() as u64, "{what}");
        assert_eq!(
            m.counter("ops_completed") + m.counter("ops_failed"),
            record.completed() as u64,
            "{what}"
        );
        let latency = &m.histograms["latency"];
        assert_eq!(latency.total.total(), ops, "{what}");
        let sliced: u64 = latency.slices.iter().map(|s| s.total()).sum();
        assert_eq!(sliced, ops, "{what}");
        assert_eq!(outcome.engine.is_some(), mode != ExecutionMode::Serial);
        if let Some(engine) = &outcome.engine {
            assert_eq!(engine.latency, latency.total, "{what}");
            assert_eq!(engine.completions.total(), ops, "{what}");
        }
        if scenario.faults.is_some() {
            assert!(record.faults.injected > 0, "{what}");
            assert_eq!(m.counter("faults_injected"), record.faults.injected);
            assert_eq!(m.counter("query_retries"), record.faults.retries);
        }
    }
}
