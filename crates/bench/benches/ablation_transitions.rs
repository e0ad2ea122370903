//! **A1 — ablation**: transition type × adaptability.
//!
//! §V-B: "a workload can slowly transition to another or transition
//! abruptly. The type of transition can impact performance and adaptability
//! in non-obvious ways." The same two-distribution shift runs with an
//! abrupt switch, a short gradual window, and a long gradual window; the
//! adaptability metrics quantify the difference for the retraining learned
//! system.
//!
//! Expected shape: gradual transitions smear the write burst, giving the
//! learned system smaller SLA-adjustment costs than the abrupt switch.

use lsbench_bench::{emit, KEY_RANGE};
use lsbench_core::metrics::adaptability::AdaptabilityReport;
use lsbench_core::metrics::sla::SlaReport;
use lsbench_core::runner::Runner;
use lsbench_core::scenario::Scenario;
use lsbench_sut::kv::{RetrainPolicy, RmiSut};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

const DATASET_SIZE: usize = 150_000;
const PHASE_OPS: u64 = 20_000;

fn scenario(kind: TransitionKind) -> Scenario {
    let write_mix = OperationMix {
        read: 0.5,
        insert: 0.5,
        update: 0.0,
        scan: 0.0,
        delete: 0.0,
        max_scan_len: 0,
    };
    let workload = PhasedWorkload::new(
        vec![
            WorkloadPhase::new(
                "head-reads",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                PHASE_OPS,
            ),
            WorkloadPhase::new(
                "tail-writes",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.02,
                },
                KEY_RANGE,
                write_mix,
                PHASE_OPS,
            ),
        ],
        vec![kind],
        41,
    )
    .expect("static workload is valid");
    Scenario::builder(format!("ablation-transition-{kind:?}"))
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            42,
        )
        .workload(workload)
        .sla(lsbench_core::metrics::sla::SlaPolicy::Fixed { threshold: 1.0 })
        .maintenance_every(256)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    println!("=== A1: transition-type ablation (abrupt vs. gradual) ===\n");
    let kinds = [
        ("abrupt", TransitionKind::Abrupt),
        ("gradual-20%", TransitionKind::Gradual { window: 0.2 }),
        ("gradual-60%", TransitionKind::Gradual { window: 0.6 }),
    ];
    let mut fig =
        String::from("transition     norm-area   recovery-s   retrains   adjust-speed-s\n");
    for (name, kind) in kinds {
        let s = scenario(kind);
        let data = s.dataset.build().expect("dataset builds");
        let mut sut = RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.02))
            .expect("rmi builds");
        let record = Runner::new(&mut sut).run(&s).expect("run").record;
        let adapt = AdaptabilityReport::from_record(&record).expect("report");
        // Fixed threshold derived from typical steady latency (~2x typical).
        let lats = record.all_latencies();
        let threshold = lsbench_stats::descriptive::quantile(&lats, 0.5).expect("non-empty") * 4.0;
        let interval = record.exec_duration() / 50.0;
        let sla = SlaReport::from_record(&record, threshold, interval, 12_000).expect("sla report");
        let recovery = adapt
            .recovery_times
            .first()
            .map(|&(_, r)| r)
            .unwrap_or(f64::NAN);
        let adjust = sla
            .adjustment_speed
            .first()
            .map(|&(_, a)| a)
            .unwrap_or(f64::NAN);
        fig.push_str(&format!(
            "{:<14} {:>9.4}   {:>9.3}   {:>8}   {:>12.4}\n",
            name, adapt.normalized_area, recovery, record.final_metrics.adaptations, adjust
        ));
    }
    emit("ablation_transitions.txt", &fig);
}
