//! **A2 — ablation**: hold-out (out-of-sample) evaluation.
//!
//! §V-A: "we propose to include hold-out workload and data distributions
//! that the system is only allowed to execute once. In doing so, the
//! benchmark could measure out-of-sample performance."
//!
//! The learned system runs a four-distribution main scenario (retraining on
//! each phase change), then a single pass over two unseen distributions.
//! Expected shape: the specializing learned system shows a generalization
//! ratio below the traditional B+-tree's (which is ~1.0 by construction).

use lsbench_bench::{emit, KEY_RANGE};
use lsbench_core::runner::{RunOptions, Runner};
use lsbench_core::scenario::Scenario;
use lsbench_sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

const DATASET_SIZE: usize = 150_000;
const PHASE_OPS: u64 = 15_000;

fn scenario() -> Scenario {
    // Main phases mix reads and inserts so the learned system keeps
    // adapting to what it sees (in-sample specialization).
    let mix = OperationMix {
        read: 0.8,
        insert: 0.2,
        update: 0.0,
        scan: 0.0,
        delete: 0.0,
        max_scan_len: 0,
    };
    let in_sample = [
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Zipf { theta: 1.0 },
        KeyDistribution::Normal {
            center: 0.2,
            std_frac: 0.05,
        },
        KeyDistribution::Hotspot {
            hot_span: 0.1,
            hot_fraction: 0.9,
        },
    ];
    let phases: Vec<WorkloadPhase> = in_sample
        .iter()
        .map(|d| WorkloadPhase::new(d.name(), d.clone(), KEY_RANGE, mix.clone(), PHASE_OPS))
        .collect();
    let transitions = vec![TransitionKind::Abrupt; phases.len() - 1];
    let workload = PhasedWorkload::new(phases, transitions, 51).expect("static workload is valid");

    // Hold-out: unseen distributions, single pass, read-only.
    let holdout = PhasedWorkload::new(
        vec![
            WorkloadPhase::new(
                "holdout-clustered",
                KeyDistribution::Clustered {
                    clusters: 7,
                    cluster_std_frac: 0.005,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                PHASE_OPS / 2,
            ),
            WorkloadPhase::new(
                "holdout-tail-normal",
                KeyDistribution::Normal {
                    center: 0.95,
                    std_frac: 0.01,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                PHASE_OPS / 2,
            ),
        ],
        vec![TransitionKind::Abrupt],
        53,
    )
    .expect("static workload is valid");

    Scenario::builder("ablation-holdout")
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            54,
        )
        .workload(workload)
        .sla(lsbench_core::metrics::sla::SlaPolicy::Fixed { threshold: 1.0 })
        .maintenance_every(256)
        .holdout(holdout)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    println!("=== A2: hold-out / out-of-sample ablation ===\n");
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");

    let mut fig =
        String::from("SUT               in-sample t/s  out-of-sample t/s  generalization\n");
    // The learned system retrains on every phase change — maximal
    // in-sample specialization.
    let mut rmi =
        RmiSut::build("rmi+specialize", &data, RetrainPolicy::OnPhaseChange).expect("rmi");
    let with_holdout = RunOptions {
        holdout: true,
        ..RunOptions::default()
    };
    let run_rmi = Runner::new(&mut rmi).config(with_holdout).run(&s);
    let (_, rep_rmi) = run_rmi.expect("run").holdout.expect("hold-out pass");
    fig.push_str(&format!(
        "{:<17} {:>12.0}  {:>17.0}  {:>13.3}\n",
        rep_rmi.sut_name,
        rep_rmi.in_sample_throughput,
        rep_rmi.out_of_sample_throughput,
        rep_rmi.generalization_ratio
    ));

    let mut btree = BTreeSut::build(&data).expect("btree");
    let run_bt = Runner::new(&mut btree).config(with_holdout).run(&s);
    let (_, rep_bt) = run_bt.expect("run").holdout.expect("hold-out pass");
    fig.push_str(&format!(
        "{:<17} {:>12.0}  {:>17.0}  {:>13.3}\n",
        rep_bt.sut_name,
        rep_bt.in_sample_throughput,
        rep_bt.out_of_sample_throughput,
        rep_bt.generalization_ratio
    ));
    fig.push_str(
        "\n(generalization = out-of-sample / in-sample throughput; 1.0 = no overfitting)\n",
    );
    emit("ablation_holdout.txt", &fig);
}
