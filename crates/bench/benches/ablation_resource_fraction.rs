//! **A3 — ablation**: online-training resource fraction (§V-B).
//!
//! "Users should be allowed to configure whether to use specialized
//! hardware or the fraction of system resources to dedicate for online
//! training." The same retrain-at-shift scenario runs with foreground
//! retraining (the burst stalls one query) and background retraining at
//! three resource fractions (processor sharing).
//!
//! Expected shape: foreground → one enormous latency spike, short recovery;
//! background → bounded worst-case latency but a longer shallow slowdown,
//! with the dip length shrinking as the training fraction grows.

use lsbench_bench::{emit, KEY_RANGE};
use lsbench_core::metrics::sla::SlaReport;
use lsbench_core::runner::Runner;
use lsbench_core::scenario::{OnlineTrainMode, Scenario};
use lsbench_sut::kv::{RetrainPolicy, RmiSut};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

const DATASET_SIZE: usize = 150_000;

fn scenario(mode: OnlineTrainMode) -> Scenario {
    let write_mix = OperationMix {
        read: 0.3,
        insert: 0.7,
        update: 0.0,
        scan: 0.0,
        delete: 0.0,
        max_scan_len: 0,
    };
    let workload = PhasedWorkload::new(
        vec![
            WorkloadPhase::new(
                "reads",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                20_000,
            ),
            WorkloadPhase::new(
                "tail-writes",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.02,
                },
                KEY_RANGE,
                write_mix,
                10_000,
            ),
            WorkloadPhase::new(
                "drain-reads",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.02,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                60_000,
            ),
        ],
        vec![TransitionKind::Abrupt, TransitionKind::Abrupt],
        91,
    )
    .expect("static workload is valid");
    Scenario::builder("ablation-resource-fraction")
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            92,
        )
        .workload(workload)
        .sla(lsbench_core::metrics::sla::SlaPolicy::Fixed { threshold: 1.0 })
        .maintenance_every(256)
        .online_train(mode)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    println!("=== A3: online-training resource fraction (§V-B) ===\n");
    let modes = [
        ("foreground", OnlineTrainMode::Foreground),
        (
            "background-10%",
            OnlineTrainMode::Background { fraction: 0.1 },
        ),
        (
            "background-30%",
            OnlineTrainMode::Background { fraction: 0.3 },
        ),
        (
            "background-70%",
            OnlineTrainMode::Background { fraction: 0.7 },
        ),
    ];
    let mut fig = String::from(
        "mode             max-lat-ms  p99-lat-ms  viol%>1ms  mean-ops/s  duration-s\n",
    );
    for (name, mode) in modes {
        let s = scenario(mode);
        let data = s.dataset.build().expect("dataset builds");
        // Retrain only at phase boundaries so every mode pays the same
        // adaptation work, scheduled differently.
        let mut sut =
            RmiSut::build("rmi", &data, RetrainPolicy::OnPhaseChange).expect("rmi builds");
        let record = Runner::new(&mut sut).run(&s).expect("run").record;
        let lats = record.all_latencies();
        let max_lat = lats.iter().cloned().fold(0.0f64, f64::max);
        let p99 = lsbench_stats::descriptive::quantile(&lats, 0.99).expect("non-empty");
        let sla = SlaReport::from_record(
            &record,
            0.001, // 1 ms fixed threshold highlights the spikes
            record.exec_duration() / 50.0,
            5_000,
        )
        .expect("report builds");
        fig.push_str(&format!(
            "{:<16} {:>10.3} {:>11.4} {:>9.3} {:>11.0} {:>11.4}\n",
            name,
            max_lat * 1e3,
            p99 * 1e3,
            sla.violation_fraction * 100.0,
            record.mean_throughput(),
            record.exec_duration(),
        ));
    }
    fig.push_str(
        "\n(foreground concentrates the retrain into one spike; background\n caps worst-case latency at the cost of a longer shallow slowdown)\n",
    );
    emit("ablation_resource_fraction.txt", &fig);
}
