//! Smoke coverage: every workload end to end at 1/200 scale with all
//! output checks on and no timing bound, plus the `TracingSut` identity.

use crate::artifacts::{benchmark_spec, check_against_spec, check_golden, load_golden};
use crate::bench::{self, Config, WallSum};
use crate::suts::{CallKind, LapSut, Laps, NullSut, SutTrace, TracingSut, LAPS};
use crate::workloads::{Workload, WORKLOADS};
use crate::DEFAULT_SEED;
use lsbench::core::record::RunRecord;
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::sut_registry::SutRegistry;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The scale `golden.json` pins beside the full one.
const SMOKE_SCALE: f64 = 0.005;

fn smoke(workload: &str, trace: bool) {
    let cfg = Config {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.05,
        trace,
        scale: SMOKE_SCALE,
        out_dir: PathBuf::from(format!("target/lsbench-perf-test/{workload}-{trace}")),
    };
    std::fs::create_dir_all(&cfg.out_dir).unwrap();
    let report = bench::run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    check_against_spec(&report.metrics, trace).unwrap();
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{workload}: no operation may fail");

    let golden = load_golden(None).unwrap();
    let prefix = format!("{SMOKE_SCALE}/{DEFAULT_SEED}/{workload}/");
    assert!(
        golden.keys().any(|k| k.starts_with(&prefix)),
        "golden.json pins nothing under {prefix}"
    );
    check_golden(&golden, &prefix, &report.facts).unwrap();
    assert_eq!(trace, !report.spans.is_empty());
    for span in &report.spans {
        assert_eq!(span.run_id, DEFAULT_SEED);
        assert!(span.parent.is_none_or(|p| p < span.id));
        assert!(span.self_ns <= span.busy_ns);
    }
}

#[test]
fn point_reads_smoke() {
    smoke("point_reads", false);
    smoke("point_reads", true);
}

#[test]
fn updates_scans_smoke() {
    smoke("updates_scans", false);
    smoke("updates_scans", true);
}

#[test]
fn open_loop_fanout_smoke() {
    smoke("open_loop_fanout", false);
    smoke("open_loop_fanout", true);
}

#[test]
fn lanes_faulted_smoke() {
    smoke("lanes_faulted", false);
    smoke("lanes_faulted", true);
}

#[test]
fn benchmark_json_names_the_workloads_this_crate_builds() {
    let spec = benchmark_spec().unwrap();
    let named: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(named, WORKLOADS);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn a_wall_sum_takes_every_part_at_its_fastest_sample() {
    let mut modes = WallSum::default();
    modes.add(&[2.0, 1.0, 4.0], 10);
    modes.add(&[3.0, 5.0, 1.0], 10);
    assert_eq!(modes.fastest(), 2.0);
    let rate = modes.ops_per_s("rate");
    assert_eq!(rate.value, 10.0);
    // The samples stay whole rounds, with their own median.
    assert_eq!(rate.values, vec![4.0, 20.0 / 6.0, 4.0]);
    assert_eq!(rate.median, 4.0);

    let mut steps = WallSum::default();
    steps.push_round(&[1.0, 2.0]);
    steps.push_round(&[3.0, 1.0]);
    assert_eq!(steps.seconds("steps").value, 2.0);
}

#[test]
fn a_changed_golden_fact_is_fatal() {
    let mut golden = load_golden(None).unwrap();
    let prefix = format!("{SMOKE_SCALE}/{DEFAULT_SEED}/point_reads/");
    let (key, value) = golden
        .iter()
        .find(|(k, _)| k.starts_with(&prefix))
        .map(|(k, v)| (k.clone(), v.clone()))
        .expect("golden.json pins the smoke scale");
    let facts = [(key[prefix.len()..].to_string(), value)].into();
    check_golden(&golden, &prefix, &facts).unwrap();
    golden.insert(key, "corrupted".to_string());
    assert!(check_golden(&golden, &prefix, &facts).is_err());
    // A fact the golden does not pin at all is as fatal as a wrong one.
    let unknown = [("digest.unknown".to_string(), "0".to_string())].into();
    assert!(check_golden(&golden, &prefix, &unknown).is_err());
}

/// Runs `scenario` in `mode`, wrapping every SUT the factory builds when
/// `trace` is given.
fn run_record(
    scenario: &Scenario,
    mode: ExecutionMode,
    trace: Option<&Arc<SutTrace>>,
) -> RunRecord {
    let reg = SutRegistry::default();
    let outcome = Runner::from_factory(|data| {
        let inner = reg.build("rmi", data)?;
        Ok(match trace {
            Some(trace) => Box::new(TracingSut::new(inner, trace.clone())) as BoxedKvSut,
            None => inner,
        })
    })
    .config(RunOptions::with_mode(mode))
    .run(scenario)
    .unwrap();
    outcome.record
}

#[test]
fn a_wrapped_run_is_bit_identical_to_the_unwrapped_run() {
    let cases = [
        ("updates_scans", ExecutionMode::Serial),
        ("updates_scans", ExecutionMode::Sharded { workers: 2 }),
        (
            "open_loop_fanout",
            ExecutionMode::OpenLoop {
                clients: 500,
                workers: 2,
            },
        ),
    ];
    for (workload, mode) in cases {
        let scenario = Workload::build(workload, 7, SMOKE_SCALE).unwrap().scenario;
        let phases = scenario.workload.phases().len();
        let trace = SutTrace::new(Instant::now(), phases);
        let plain = run_record(&scenario, mode, None);
        let wrapped = run_record(&scenario, mode, Some(&trace));
        assert_eq!(wrapped, plain, "{workload} in {mode:?}");
        // Every operation went through the wrapper, and training was seen.
        assert_eq!(trace.executed_ops(), scenario.workload.total_ops());
        assert!(trace.busy_ns(CallKind::Execute) > 0);
        let trained: u64 = (0..phases)
            .map(|p| {
                trace
                    .cell(p, CallKind::Train)
                    .calls
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        assert!(trained >= 1);
    }
}

#[test]
fn laps_split_a_run_into_stretches_that_add_up_to_it() {
    use lsbench::sut::sut::SystemUnderTest;
    use lsbench::workload::ops::Operation;
    let ops: Vec<Operation> = (0..100).map(|key| Operation::Read { key }).collect();
    let laps = Laps::new(10 * ops.len() as u64);
    let mut sut = LapSut::new(Box::new(NullSut), laps.clone());
    let started = Instant::now();
    for _ in 0..10 {
        assert_eq!(sut.execute_many(&ops).len(), ops.len());
    }
    let seconds = laps.seconds(started);
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(seconds.len(), LAPS);
    assert!(seconds.iter().all(|s| *s >= 0.0));
    let sum: f64 = seconds.iter().sum();
    assert!(sum <= wall && sum > 0.0, "{sum} of {wall}");

    // A run cut short leaves the stretches it never reached empty.
    let laps = Laps::new(1_000_000);
    let mut sut = LapSut::new(Box::new(NullSut), laps.clone());
    let started = Instant::now();
    sut.execute(&ops[0]).unwrap();
    let seconds = laps.seconds(started);
    assert_eq!(seconds.len(), LAPS);
    assert!(seconds[1..LAPS - 1].iter().all(|s| *s == 0.0));
}

#[test]
fn null_sut_charges_constant_work_and_keeps_no_state() {
    use lsbench::sut::sut::SystemUnderTest;
    use lsbench::workload::ops::Operation;
    let mut sut = NullSut;
    for op in [Operation::Read { key: 1 }, Operation::Delete { key: 2 }] {
        let outcome = sut.execute(&op).unwrap();
        assert!(outcome.ok);
        assert_eq!(outcome.work, crate::suts::NULL_WORK);
    }
    assert_eq!(sut.train(1_000), 0);
    assert_eq!(sut.metrics(), Default::default());
}
