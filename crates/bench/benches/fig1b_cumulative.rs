//! **F1b — Fig. 1b**: cumulative queries completed over time, with the
//! area-difference single-value metrics.
//!
//! Scenario: a read phase on the trained distribution, then an abrupt shift
//! to an insert-heavy phase over a new key region, then reads again. The
//! learned system (RMI + delta + retraining) pays training up front and
//! retrains mid-run — "the SUT starts slow and later catches up" — while
//! the B+-tree neither trains nor stalls.
//!
//! Expected shape (paper, Fig. 1b): the learned curve starts flat (training)
//! with a *negative* area vs. the ideal constant-throughput system early,
//! then a steeper slope; the two-system area difference tells who wins
//! overall.

use lsbench_bench::{emit, KEY_RANGE};
use lsbench_core::metrics::adaptability::AdaptabilityReport;
use lsbench_core::report::{render_adaptability, series_csv, to_json, write_artifact};
use lsbench_core::runner::Runner;
use lsbench_core::scenario::Scenario;
use lsbench_sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

const DATASET_SIZE: usize = 200_000;
const PHASE_OPS: u64 = 80_000;

fn scenario() -> Scenario {
    let read_mix = OperationMix::ycsb_c();
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
                "reads-lognormal",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                KEY_RANGE,
                read_mix.clone(),
                PHASE_OPS,
            ),
            WorkloadPhase::new(
                "insert-burst-new-region",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.02,
                },
                KEY_RANGE,
                write_mix,
                PHASE_OPS,
            ),
            WorkloadPhase::new(
                "reads-shifted",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.02,
                },
                KEY_RANGE,
                read_mix,
                PHASE_OPS,
            ),
        ],
        vec![TransitionKind::Abrupt, TransitionKind::Abrupt],
        13,
    )
    .expect("static workload is valid");
    Scenario::builder("fig1b")
        .dataset(
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            KEY_RANGE,
            DATASET_SIZE,
            14,
        )
        .workload(workload)
        .maintenance_every(256)
        .build()
        .expect("static scenario is valid")
}

fn main() {
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");

    println!("=== F1b: cumulative queries over time (adaptability) ===\n");
    let mut rmi =
        RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.05)).expect("rmi");
    let rmi_record = Runner::new(&mut rmi).run(&s).expect("run").record;
    let mut rmi_never = RmiSut::build("rmi-no-retrain", &data, RetrainPolicy::Never).expect("rmi");
    let never_record = Runner::new(&mut rmi_never).run(&s).expect("run").record;
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = Runner::new(&mut btree).run(&s).expect("run").record;

    let rmi_rep = AdaptabilityReport::from_record(&rmi_record).expect("report");
    let never_rep = AdaptabilityReport::from_record(&never_record).expect("report");
    let btree_rep = AdaptabilityReport::from_record(&btree_record).expect("report");

    let mut fig = render_adaptability(&[&rmi_rep, &never_rep, &btree_rep]);
    let rmi_vs_btree = rmi_rep.area_vs(&btree_rep).expect("comparable spans");
    fig.push_str(&format!(
        "  two-system area difference (rmi+retrain − btree): {rmi_vs_btree:+.1} op·s\n"
    ));
    let never_vs_btree = never_rep.area_vs(&btree_rep).expect("comparable spans");
    fig.push_str(&format!(
        "  two-system area difference (rmi-no-retrain − btree): {never_vs_btree:+.1} op·s\n"
    ));
    fig.push_str(&format!(
        "  training time: rmi {:.3}s (work {}), btree {:.3}s\n",
        rmi_record.train.seconds, rmi_record.train.work, btree_record.train.seconds
    ));
    fig.push_str(&format!(
        "  retrains during run: {}\n",
        rmi_record.final_metrics.adaptations
    ));
    emit("fig1b.txt", &fig);

    for (name, rep) in [
        ("rmi", &rmi_rep),
        ("rmi_never", &never_rep),
        ("btree", &btree_rep),
    ] {
        let _ = write_artifact(
            &format!("fig1b_{name}.csv"),
            &series_csv(("t", "completed"), &rep.curve),
        );
        let _ = write_artifact(
            &format!("fig1b_{name}.json"),
            &to_json(rep).expect("serializable"),
        );
    }
}
