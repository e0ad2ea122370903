//! Training-cost trade-off (the paper's Fig. 1d question): how much
//! training buys how much throughput, and when a learned system beats a
//! manually tuned one.
//!
//! ```sh
//! cargo run --release --example cost_of_training
//! ```

use lsbench::core::metrics::cost::TrainingTradeoff;
use lsbench::core::metrics::sla::SlaPolicy;
use lsbench::core::report::render_tradeoff;
use lsbench::core::runner::Runner;
use lsbench::core::scenario::Scenario;
use lsbench::index::rmi::{Rmi, RmiConfig};
use lsbench::sut::cost::{DbaCostModel, HardwareProfile};
use lsbench::sut::kv::{BTreeSut, LearnedKvSut, RetrainPolicy};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;
use lsbench::workload::phases::{PhasedWorkload, WorkloadPhase};

fn main() {
    let key_range = (0u64, 10_000_000u64);
    let lognormal = KeyDistribution::LogNormal {
        mu: 0.0,
        sigma: 1.2,
    };
    let scenario = Scenario::builder("cost-of-training")
        .dataset(lognormal.clone(), key_range, 150_000, 81)
        .workload(
            PhasedWorkload::single(
                WorkloadPhase::new(
                    "reads",
                    lognormal,
                    key_range,
                    OperationMix::ycsb_c(),
                    20_000,
                ),
                82,
            )
            .expect("valid workload"),
        )
        .sla(SlaPolicy::Fixed { threshold: 1.0 })
        .maintenance_every(u64::MAX)
        .build()
        .expect("valid scenario");
    let data = scenario.dataset.build().expect("dataset builds");
    let pairs: Vec<(u64, u64)> = data.pairs().collect();

    // The traditional baseline anchors the DBA step function.
    let mut btree = BTreeSut::build(&data).expect("builds");
    let baseline = Runner::new(&mut btree)
        .run(&scenario)
        .expect("run succeeds")
        .record;
    let dba = DbaCostModel::default_model(baseline.mean_throughput());

    // Train the learned index at five budgets and measure each.
    let mut runs = Vec::new();
    for (leaves, sample) in [(16, 64), (128, 16), (1024, 4), (8192, 1), (32768, 1)] {
        let rmi = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count: leaves,
                sample_every: sample,
            },
        )
        .expect("rmi builds");
        let mut sut = LearnedKvSut::with_trained_base(
            format!("rmi-{leaves}x{sample}"),
            rmi,
            RetrainPolicy::Never,
        );
        let mut record = Runner::new(&mut sut)
            .run(&scenario)
            .expect("run succeeds")
            .record;
        // Project laptop-scale training work to a production-scale
        // deployment (10⁶×) so the dollar axis is meaningful.
        record.final_metrics.training_work =
            record.final_metrics.training_work.saturating_mul(1_000_000);
        runs.push(record);
    }

    for hw in [HardwareProfile::cpu(), HardwareProfile::gpu()] {
        let tradeoff = TrainingTradeoff::new(&runs, &hw, &dba).expect("tradeoff builds");
        println!("--- {} ---", hw.name);
        println!("{}", render_tradeoff(&tradeoff));
    }
}
