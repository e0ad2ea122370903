//! **F1d — Fig. 1d**: throughput per training cost, against the DBA
//! step-function cost of manually tuning a traditional system.
//!
//! The learned system (RMI) is trained at five budgets — fewer/more leaf
//! models, coarser/finer training samples — each yielding a (training $,
//! throughput) point. The traditional system is the B+-tree whose
//! "manual tuning" steps are modeled by the DBA step function. Training
//! cost is evaluated on CPU, GPU, and TPU hardware profiles (§V-D.3).
//!
//! Expected shape (paper, Fig. 1d): learned throughput grows with training
//! spend and crosses the tuned-traditional level at some budget — the
//! "training cost to outperform a traditional system" metric.

use lsbench_bench::{emit, standard_dataset, KEY_RANGE};
use lsbench_core::metrics::cost::{CostReport, TrainingTradeoff};
use lsbench_core::record::RunRecord;
use lsbench_core::report::{render_cost, render_tradeoff, to_json, write_artifact};
use lsbench_core::runner::Runner;
use lsbench_core::scenario::Scenario;
use lsbench_index::rmi::{Rmi, RmiConfig};
use lsbench_sut::cost::{DbaCostModel, HardwareProfile};
use lsbench_sut::kv::{BTreeSut, LearnedKvSut, RetrainPolicy};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};

const DATASET_SIZE: usize = 200_000;
const OPS: u64 = 30_000;

/// The benchmark run simulates a production deployment 10⁶× larger than the
/// laptop-scale dataset (200k keys → 200G keys): training work is scaled
/// accordingly before conversion to dollars so the Fig. 1d axes carry
/// production-scale meaning. Execution throughput is scale-invariant
/// (per-op cost does not change), so only training cost is scaled.
const PRODUCTION_SCALE: u64 = 1_000_000;

/// Training-budget ladder: (leaf_count, sample_every), cheapest first.
const BUDGETS: [(usize, usize); 5] = [(16, 64), (128, 16), (1024, 4), (8192, 1), (32768, 1)];

fn scenario() -> Scenario {
    let workload = PhasedWorkload::single(
        WorkloadPhase::new(
            "reads",
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            OperationMix::ycsb_c(),
            OPS,
        ),
        21,
    )
    .expect("static workload is valid");
    Scenario::builder("fig1d")
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            22,
        )
        .workload(workload)
        .sla(lsbench_core::metrics::sla::SlaPolicy::Fixed { threshold: 1.0 })
        .maintenance_every(u64::MAX)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    let s = scenario();
    let data = standard_dataset(DATASET_SIZE, 22);
    let pairs: Vec<(u64, u64)> = data.pairs().collect();

    println!("=== F1d: throughput per training cost vs. DBA step function ===\n");

    // Traditional baseline throughput anchors the DBA step function.
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = Runner::new(&mut btree).run(&s).expect("run").record;
    let dba = DbaCostModel::default_model(btree_record.mean_throughput());
    println!(
        "baseline (untuned btree) throughput: {:.0} ops/s\n",
        btree_record.mean_throughput()
    );

    // Learned system at increasing training budgets.
    let mut runs: Vec<RunRecord> = Vec::new();
    for (leaf_count, sample_every) in BUDGETS {
        let rmi = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count,
                sample_every,
            },
        )
        .expect("rmi builds");
        let mut sut = LearnedKvSut::with_trained_base(
            format!("rmi-l{leaf_count}-s{sample_every}"),
            rmi,
            RetrainPolicy::Never,
        );
        let mut record = Runner::new(&mut sut).run(&s).expect("run").record;
        println!(
            "  {}: train work {:>12}, throughput {:>8.0} ops/s",
            record.sut_name,
            record.final_metrics.training_work,
            record.mean_throughput()
        );
        // Project training work to production scale (see PRODUCTION_SCALE).
        record.final_metrics.training_work = record
            .final_metrics
            .training_work
            .saturating_mul(PRODUCTION_SCALE);
        runs.push(record);
    }
    println!();

    let profiles = [
        HardwareProfile::cpu(),
        HardwareProfile::gpu(),
        HardwareProfile::tpu(),
    ];
    // Cost breakdown for the largest-budget run on all hardware.
    let biggest = runs.last().expect("non-empty budget ladder");
    let cost_report = CostReport::from_record(biggest, &profiles).expect("report builds");
    emit("fig1d_cost_breakdown.txt", &render_cost(&cost_report));
    let _ = write_artifact(
        "fig1d_cost_breakdown.json",
        &to_json(&cost_report).expect("serializable"),
    );

    // Trade-off curve per hardware profile.
    for hw in &profiles {
        let tradeoff = TrainingTradeoff::new(&runs, hw, &dba).expect("tradeoff builds");
        let mut fig = format!("--- hardware: {} ---\n", hw.name);
        fig.push_str(&render_tradeoff(&tradeoff));
        emit(&format!("fig1d_tradeoff_{}.txt", hw.name), &fig);
        let _ = write_artifact(
            &format!("fig1d_tradeoff_{}.json", hw.name),
            &to_json(&tradeoff).expect("serializable"),
        );
    }
}
