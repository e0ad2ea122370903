//! Full dynamic-scenario walkthrough: five SUTs, a three-phase workload
//! with a gradual transition and an insert burst, and all four metric
//! families (specialization, adaptability, SLA bands, cost).
//!
//! The scenario itself is data, not code: it loads from
//! `scenarios/workload_shift.spec` through the spec parser, so editing
//! that file reshapes this whole example without recompiling.
//!
//! ```sh
//! cargo run --release --example workload_shift
//! ```

use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::cost::CostReport;
use lsbench::core::metrics::phi::{distribution_phis, DataPhiMethod};
use lsbench::core::metrics::sla::SlaReport;
use lsbench::core::metrics::specialization::SpecializationReport;
use lsbench::core::record::RunRecord;
use lsbench::core::report::{render_adaptability, render_sla, render_specialization};
use lsbench::core::runner::{BoxedKvSut, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::spec::ScenarioRegistry;
use lsbench::sut::cost::HardwareProfile;
use lsbench::sut::kv::{AlexSut, BTreeSut, PgmSut, RetrainPolicy, RmiSut, SplineSut};

const SPEC_FILE: &str = "scenarios/workload_shift.spec";

fn scenario() -> Scenario {
    ScenarioRegistry::load_file(SPEC_FILE).unwrap_or_else(|e| panic!("{SPEC_FILE}:{e}"))
}

fn main() {
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");
    let phis = distribution_phis(
        &s.workload
            .phases()
            .iter()
            .map(|p| p.distribution.clone())
            .collect::<Vec<_>>(),
        s.dataset.key_range,
        DataPhiMethod::KolmogorovSmirnov,
        79,
    )
    .expect("phi computes");

    // Run every SUT through the same scenario.
    let mut records: Vec<RunRecord> = Vec::new();
    let mut run = |mut sut: BoxedKvSut| {
        let r = Runner::new(sut.as_mut())
            .run(&s)
            .expect("run succeeds")
            .record;
        println!(
            "{:<14} mean throughput {:>9.0} ops/s, failures {}, train {:.3}s",
            r.sut_name,
            r.mean_throughput(),
            r.failures(),
            r.train.seconds
        );
        records.push(r);
    };
    let retrain = RetrainPolicy::DeltaFraction(0.05);
    run(Box::new(BTreeSut::build(&data).expect("builds")));
    run(Box::new(
        RmiSut::build("rmi", &data, retrain).expect("builds"),
    ));
    run(Box::new(
        PgmSut::build("pgm", &data, retrain).expect("builds"),
    ));
    run(Box::new(
        SplineSut::build("spline", &data, retrain).expect("builds"),
    ));
    run(Box::new(AlexSut::build(&data).expect("builds")));

    // Specialization report for the learned index (Fig. 1a).
    println!();
    let rmi_record = &records[1];
    let spec =
        SpecializationReport::from_record(rmi_record, &phis, 400, &[]).expect("report builds");
    println!("{}", render_specialization(&spec));

    // Adaptability comparison (Fig. 1b).
    let reports: Vec<AdaptabilityReport> = records
        .iter()
        .map(|r| AdaptabilityReport::from_record(r).expect("report builds"))
        .collect();
    println!(
        "{}",
        render_adaptability(&reports.iter().collect::<Vec<_>>())
    );

    // SLA bands for the learned index, calibrated from the B+-tree run
    // (Fig. 1c).
    let threshold = s.sla.resolve(Some(&records[0])).expect("resolvable");
    let interval = rmi_record.exec_duration() / 40.0;
    let sla =
        SlaReport::from_record(rmi_record, threshold, interval, 2_000).expect("report builds");
    println!("{}", render_sla(&sla));

    // Cost breakdown on CPU and GPU (Fig. 1d).
    let cost = CostReport::from_record(
        rmi_record,
        &[HardwareProfile::cpu(), HardwareProfile::gpu()],
    )
    .expect("report builds");
    println!("{}", lsbench::core::report::render_cost(&cost));
}
