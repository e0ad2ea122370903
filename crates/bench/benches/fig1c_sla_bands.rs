//! **F1c — Fig. 1c**: per-interval latency bands split by SLA compliance,
//! plus the adjustment-speed single value.
//!
//! Same shift scenario as F1b. The SLA threshold is calibrated from the
//! *baseline* (B+-tree) run's p99 latency, per the paper's recommendation.
//!
//! Expected shape (paper, Fig. 1c): "a low number of completed queries or a
//! high number of queries with an SLA violation (red) following a
//! distribution change indicates slow adjustment speed" — the learned
//! system shows violation bands right after the shift (delta growth +
//! retraining bursts), the B+-tree shows none.

use lsbench_bench::{emit, KEY_RANGE};
use lsbench_core::metrics::sla::{SlaPolicy, SlaReport};
use lsbench_core::report::{render_sla, to_json, write_artifact};
use lsbench_core::runner::Runner;
use lsbench_core::scenario::Scenario;
use lsbench_sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

const DATASET_SIZE: usize = 200_000;
const PHASE_OPS: u64 = 25_000;
const ADJUSTMENT_N: usize = 5_000;

fn scenario() -> Scenario {
    let write_mix = OperationMix {
        read: 0.4,
        insert: 0.6,
        update: 0.0,
        scan: 0.0,
        delete: 0.0,
        max_scan_len: 0,
    };
    let workload = PhasedWorkload::new(
        vec![
            WorkloadPhase::new(
                "steady-reads",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                KEY_RANGE,
                OperationMix::ycsb_c(),
                PHASE_OPS,
            ),
            WorkloadPhase::new(
                "shifted-writes",
                KeyDistribution::Normal {
                    center: 0.85,
                    std_frac: 0.03,
                },
                KEY_RANGE,
                write_mix,
                PHASE_OPS,
            ),
        ],
        vec![TransitionKind::Abrupt],
        17,
    )
    .expect("static workload is valid");
    Scenario::builder("fig1c")
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            18,
        )
        .workload(workload)
        .sla(SlaPolicy::FromBaselineP99 { multiplier: 2.0 })
        .maintenance_every(256)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");

    println!("=== F1c: SLA violation bands ===\n");
    // Baseline run calibrates the SLA threshold (paper §V-D.2).
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = Runner::new(&mut btree).run(&s).expect("run").record;
    let threshold = s.sla.resolve(Some(&btree_record)).expect("resolvable");
    println!("SLA threshold (2 × baseline p99): {threshold:.6} virtual seconds\n");

    let mut rmi =
        RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.005)).expect("rmi");
    let rmi_record = Runner::new(&mut rmi).run(&s).expect("run").record;

    // Interval: 1/50 of the execution so both figures have ~50 bands.
    for record in [&btree_record, &rmi_record] {
        let interval = (record.exec_duration() / 50.0).max(1e-6);
        let report = SlaReport::from_record(record, threshold, interval, ADJUSTMENT_N)
            .expect("report builds");
        emit(
            &format!("fig1c_{}.txt", record.sut_name),
            &render_sla(&report),
        );
        let _ = write_artifact(
            &format!("fig1c_{}.json", record.sut_name),
            &to_json(&report).expect("serializable"),
        );
    }
}
