//! Reproducibility: identical seeds must give bit-identical benchmark
//! results end-to-end; different seeds must actually differ. This is the
//! property that makes results "comparable across many deployments" (§IV).

use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::record::RunRecord;
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::sut::kv::{AlexSut, RetrainPolicy, RmiSut};
use lsbench::workload::keygen::KeyDistribution;

fn scenario(seed: u64) -> Scenario {
    Scenario::two_phase_shift(
        "determinism",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Zipf { theta: 1.2 },
        20_000,
        3_000,
        seed,
    )
    .expect("valid scenario")
}

fn run_rmi(seed: u64) -> RunRecord {
    let s = scenario(seed);
    let data = s.dataset.build().unwrap();
    let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    Runner::new(&mut sut).run(&s).unwrap().record
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_rmi(7);
    let b = run_rmi(7);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.exec_end, b.exec_end);
    assert_eq!(a.train, b.train);
    assert_eq!(a.phase_change_times, b.phase_change_times);
    // Metrics derived from identical records are identical.
    let ra = AdaptabilityReport::from_record(&a).unwrap();
    let rb = AdaptabilityReport::from_record(&b).unwrap();
    assert_eq!(ra.area_vs_ideal, rb.area_vs_ideal);
    assert_eq!(ra.curve, rb.curve);
}

#[test]
fn different_seeds_differ() {
    let a = run_rmi(7);
    let b = run_rmi(8);
    assert_ne!(a.ops, b.ops);
}

#[test]
fn adaptive_structures_deterministic_too() {
    // ALEX mutates internal structure during the run; determinism must
    // survive splits and retrains.
    let s = scenario(9);
    let data = s.dataset.build().unwrap();
    let run = || {
        let mut sut = AlexSut::build(&data).unwrap();
        Runner::new(&mut sut).run(&s).unwrap().record
    };
    let a = run();
    let b = run();
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.final_metrics.adaptations, b.final_metrics.adaptations);
}

#[test]
fn concurrent_engine_is_worker_count_invariant() {
    // The engine's contract: lanes determine results, threads never do.
    // Four key-range shards of adaptive (retraining) SUTs must merge to
    // bit-identical records, histograms, and interval counts whether one,
    // two, or four workers executed them — and metric reports derived from
    // the merged record must match in turn.
    let s = scenario(13);
    let run = |threads: usize| {
        let rmi_shard = |d: &lsbench::workload::dataset::Dataset| {
            let sut = RmiSut::build("rmi", d, RetrainPolicy::DeltaFraction(0.05)).unwrap();
            Ok(Box::new(sut) as BoxedKvSut)
        };
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 })
        };
        Runner::from_factory(rmi_shard)
            .config(opts)
            .run(&s)
            .unwrap()
    };
    let stats = |outcome: &lsbench::core::RunOutcome| outcome.engine.clone().unwrap();
    let one = run(1);
    let two = run(2);
    let four = run(4);
    let base = AdaptabilityReport::from_record(&one.record).unwrap();
    for other in [&two, &four] {
        assert_eq!(one.record.ops, other.record.ops);
        assert_eq!(
            one.record.phase_change_times,
            other.record.phase_change_times
        );
        assert_eq!(one.record.exec_start, other.record.exec_start);
        assert_eq!(one.record.exec_end, other.record.exec_end);
        assert_eq!(one.record.train, other.record.train);
        assert_eq!(one.record.final_metrics, other.record.final_metrics);
        assert_eq!(stats(&one).latency, stats(other).latency);
        assert_eq!(stats(&one).completions, stats(other).completions);
        let rep = AdaptabilityReport::from_record(&other.record).unwrap();
        assert_eq!(base.area_vs_ideal, rep.area_vs_ideal);
        assert_eq!(base.curve, rep.curve);
    }
}

#[test]
fn wall_clock_mode_never_perturbs_the_work_unit_record() {
    // The guard behind `--clock wall`: host timings are observed *beside*
    // the virtual record, never fed into it. Repeating a wall run, or
    // moving it from one worker to four, must leave the work-unit record
    // bit-identical — only the wall stats block is allowed to vary.
    use lsbench::core::scenario::ClockMode;
    use lsbench::core::sut_registry::SutRegistry;
    let s = scenario(17);
    let registry = SutRegistry::default();
    let run = |mode: ExecutionMode, threads: Option<usize>| {
        let factory = registry.factory("rmi").expect("known SUT");
        let opts = RunOptions {
            clock: ClockMode::Wall,
            threads,
            ..RunOptions::with_mode(mode)
        };
        Runner::from_factory(factory)
            .config(opts)
            .run(&s)
            .expect("wall run succeeds")
    };
    let first = run(ExecutionMode::Serial, None);
    let second = run(ExecutionMode::Serial, None);
    assert_eq!(
        first.record, second.record,
        "repeated wall runs must agree bit-for-bit on the work-unit record"
    );
    for outcome in [&first, &second] {
        let wall = outcome.wall.as_ref().expect("wall stats captured");
        assert_eq!(wall.ops, outcome.record.ops.len() as u64);
        assert!(wall.elapsed_seconds > 0.0);
    }

    // Lanes determine results; threads never do. Pin four shards and vary
    // only the executing thread count underneath the wall clock.
    let one = run(ExecutionMode::Sharded { workers: 4 }, Some(1));
    let four = run(ExecutionMode::Sharded { workers: 4 }, Some(4));
    assert_eq!(
        one.record, four.record,
        "thread count must not leak into the record even under clock=wall"
    );
    assert!(one.wall.is_some() && four.wall.is_some());
}

#[test]
fn json_round_trip_preserves_determinism() {
    let a = run_rmi(11);
    let json = serde_json::to_string(&a).unwrap();
    let back: RunRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back.ops, a.ops);
    assert_eq!(back.work_units_per_second, a.work_units_per_second);
}
