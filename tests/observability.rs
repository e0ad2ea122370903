//! Observability guarantees, end to end.
//!
//! Two properties make the tracing layer trustworthy:
//!
//! 1. **Golden alignment** — the event trace is not a parallel universe:
//!    its phase boundaries and counts line up exactly with the
//!    `RunRecord` the same run produced.
//! 2. **Zero observer effect** — turning tracing on (or varying the
//!    worker-thread count under it) never changes the benchmark results:
//!    `RunRecord`s are bit-identical, and the merged trace itself is
//!    worker-count invariant.

use lsbench::core::obs::ObsConfig;
use lsbench::core::record::RunRecord;
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::BenchError;
use lsbench::sut::kv::{RetrainPolicy, RmiSut};
use lsbench::workload::dataset::Dataset;
use lsbench::workload::keygen::KeyDistribution;

fn scenario() -> Scenario {
    Scenario::two_phase_shift(
        "obs-shift",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Zipf { theta: 1.2 },
        20_000,
        2_500,
        11,
    )
    .expect("valid scenario")
}

fn factory(data: &Dataset) -> Result<BoxedKvSut, BenchError> {
    Ok(Box::new(
        RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05))
            .map_err(|e| BenchError::Sut(e.to_string()))?,
    ))
}

fn run_with(opts: RunOptions) -> RunOutcome {
    Runner::from_factory(factory)
        .config(opts)
        .run(&scenario())
        .expect("run succeeds")
}

fn assert_records_identical(a: &RunRecord, b: &RunRecord) {
    assert_eq!(a.ops, b.ops, "per-op records must be bit-identical");
    assert_eq!(a.exec_start, b.exec_start);
    assert_eq!(a.exec_end, b.exec_end);
    assert_eq!(a.train, b.train);
    assert_eq!(a.phase_change_times, b.phase_change_times);
}

#[test]
fn golden_trace_aligns_with_run_record_serial() {
    let outcome = run_with(RunOptions {
        obs: ObsConfig::traced(),
        ..RunOptions::default()
    });
    let trace = outcome.trace.expect("tracing was requested");
    let record = &outcome.record;

    // Phase boundaries: the trace reconstructs the record's exactly.
    assert_eq!(trace.phase_boundaries(), record.phase_change_times);
    assert_eq!(
        trace.count_kind("phase_change"),
        record.phase_change_times.len()
    );

    // Training: one start/end pair whose work matches the record.
    assert_eq!(trace.count_kind("train_start"), 1);
    assert_eq!(trace.count_kind("train_end"), 1);
    let train_work = trace
        .events
        .iter()
        .find_map(|e| match e.event {
            lsbench::core::obs::RunEvent::TrainEnd { work } => Some(work),
            _ => None,
        })
        .expect("train_end present");
    assert_eq!(train_work, record.train.work);

    // Run end: exactly one, counting every completed operation.
    assert_eq!(trace.count_kind("run_end"), 1);
    let last = trace.events.last().expect("non-empty trace");
    assert_eq!(
        last.event,
        lsbench::core::obs::RunEvent::RunEnd {
            ops: record.ops.len() as u64
        }
    );

    // Events are in (t, lane, seq) order and stamped on the virtual clock.
    for pair in trace.events.windows(2) {
        assert_ne!(
            pair[0].order(&pair[1]),
            std::cmp::Ordering::Greater,
            "trace must be time-ordered"
        );
    }
    assert!(trace.events.iter().all(|e| e.t <= record.exec_end));
    assert_eq!(trace.dropped, 0);
}

#[test]
fn golden_trace_aligns_with_run_record_engine() {
    let outcome = run_with(RunOptions {
        obs: ObsConfig::traced(),
        ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 })
    });
    let trace = outcome.trace.expect("tracing was requested");
    let record = &outcome.record;
    assert_eq!(trace.phase_boundaries(), record.phase_change_times);
    assert_eq!(trace.count_kind("run_end"), 1);
    assert_eq!(trace.count_kind("shard_merge"), 1);
    // Per-lane phase-change events: each of the 4 lanes sees phase 1, and
    // the coordinator anchors phase 0.
    assert_eq!(trace.count_kind("phase_change"), 1 + 4);
}

#[test]
fn tracing_never_changes_results() {
    // Serial: a caller-built SUT, the untraced factory runner, and the
    // traced runner all produce bit-identical records.
    let s = scenario();
    let data = s.dataset.build().unwrap();
    let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    let borrowed = Runner::new(&mut sut).run(&s).unwrap().record;
    let untraced = run_with(RunOptions::default());
    let traced = run_with(RunOptions {
        obs: ObsConfig::traced(),
        ..RunOptions::default()
    });
    assert_records_identical(&borrowed, &untraced.record);
    assert_records_identical(&untraced.record, &traced.record);
}

#[test]
fn worker_count_invariant_under_tracing() {
    // 4 lanes on 1, 2, and 4 worker threads: records AND traces identical,
    // traced or not.
    let base = RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 });
    let reference = run_with(base);
    let mut reference_trace = None;
    for threads in [1usize, 2, 4] {
        let untraced = run_with(RunOptions {
            threads: Some(threads),
            ..base
        });
        let traced = run_with(RunOptions {
            threads: Some(threads),
            obs: ObsConfig::traced(),
            ..base
        });
        assert_records_identical(&reference.record, &untraced.record);
        assert_records_identical(&reference.record, &traced.record);
        assert_eq!(
            untraced.metrics, traced.metrics,
            "tracing must not perturb metrics ({threads} threads)"
        );
        let mut trace = traced.trace.expect("tracing was requested");
        // The shard_merge event records physical provenance (how many
        // threads actually ran) — the one field that legitimately varies
        // with the thread count. Check it, then normalize it away before
        // comparing whole traces.
        for e in &mut trace.events {
            if let lsbench::core::obs::RunEvent::ShardMerge { threads: t, .. } = &mut e.event {
                assert_eq!(*t, threads);
                *t = 0;
            }
        }
        match &reference_trace {
            None => reference_trace = Some(trace),
            Some(reference) => assert_eq!(
                reference, &trace,
                "merged trace must not depend on worker count ({threads} threads)"
            ),
        }
    }
}

#[test]
fn registry_resolves_runner_factories() {
    // The registry, the runner, and a hand-built factory agree.
    let registry = SutRegistry::default();
    let s = scenario();
    let via_registry = Runner::from_factory(registry.factory("rmi").unwrap())
        .run(&s)
        .unwrap();
    let via_closure = run_with(RunOptions::default());
    assert_records_identical(&via_registry.record, &via_closure.record);
    assert!(registry.contains("btree"));
    assert!(!registry.contains("no-such-sut"));
}
