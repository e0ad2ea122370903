//! **F1a — Fig. 1a**: throughput per workload/data distribution, reported
//! as box plots over an X-axis sorted by the Φ similarity value.
//!
//! Six access distributions (uniform baseline → increasingly different) hit
//! the same log-normal dataset; Φ is the Kolmogorov–Smirnov distance of the
//! access-key distribution from the baseline. SUTs: RMI (learned) vs.
//! B+-tree (traditional) vs. ALEX (adaptive learned).
//!
//! Expected shape (paper, Fig. 1a): the learned index shows *wider spread*
//! across distributions (it specializes — strong where models fit, weaker
//! where they don't), while the traditional B+-tree is nearly flat.

use lsbench_bench::{distribution_ladder, emit, KEY_RANGE};
use lsbench_core::metrics::phi::{distribution_phis, DataPhiMethod};
use lsbench_core::metrics::specialization::SpecializationReport;
use lsbench_core::report::{render_specialization, series_csv, to_json, write_artifact};
use lsbench_core::runner::{BoxedKvSut, Runner};
use lsbench_core::scenario::Scenario;
use lsbench_core::sut_registry::SutRegistry;
use lsbench_sut::kv::{RetrainPolicy, RmiSut};
use lsbench_workload::ops::OperationMix;

const DATASET_SIZE: usize = 200_000;
const OPS_PER_PHASE: u64 = 20_000;
const OPS_PER_WINDOW: usize = 500;

fn scenario() -> Scenario {
    let mut s = Scenario::specialization_sweep(
        "fig1a",
        distribution_ladder(),
        DATASET_SIZE,
        OPS_PER_PHASE,
        OperationMix::ycsb_c(),
        7,
    )
    .expect("static scenario is valid");
    // The dataset itself is the shared log-normal database.
    s.dataset.distribution = lsbench_workload::keygen::KeyDistribution::LogNormal {
        mu: 0.0,
        sigma: 1.2,
    };
    s
}

fn run_one(mut sut: BoxedKvSut, s: &Scenario, phis: &[f64]) -> String {
    let record = Runner::new(sut.as_mut())
        .run(s)
        .expect("run succeeds")
        .record;
    let report = SpecializationReport::from_record(&record, phis, OPS_PER_WINDOW, &[])
        .expect("report builds");
    let fig = render_specialization(&report);
    let _ = write_artifact(
        &format!("fig1a_{}.json", record.sut_name),
        &to_json(&report).expect("serializable"),
    );
    let series: Vec<(f64, f64)> = report
        .entries
        .iter()
        .map(|e| (e.phi, e.throughput.five.median))
        .collect();
    let _ = write_artifact(
        &format!("fig1a_{}.csv", record.sut_name),
        &series_csv(("phi", "median_throughput"), &series),
    );
    fig
}

fn main() {
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");
    let phis = distribution_phis(
        &distribution_ladder(),
        KEY_RANGE,
        DataPhiMethod::KolmogorovSmirnov,
        11,
    )
    .expect("phi computation succeeds");

    println!("=== F1a: specialization (throughput box plots per distribution, Φ-sorted) ===\n");
    // The RMI is frozen (RetrainPolicy::Never) so the figure shows pure
    // specialization, not adaptation — the registry's default retrains, so
    // this SUT stays hand-built.
    let rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).expect("rmi builds");
    emit("fig1a_rmi.txt", &run_one(Box::new(rmi), &s, &phis));

    let registry = SutRegistry::default();
    let btree = registry.build("btree", &data).expect("btree builds");
    emit("fig1a_btree.txt", &run_one(btree, &s, &phis));

    let alex = registry.build("alex", &data).expect("alex builds");
    emit("fig1a_alex.txt", &run_one(alex, &s, &phis));
}
