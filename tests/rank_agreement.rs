//! Rank-agreement acceptance layer for `--clock wall` (ISSUE 9).
//!
//! The work-unit cost model is only trustworthy if it *orders* systems the
//! way the host clock does. This test runs the same read-only scenario
//! across SUTs with very different point-lookup costs in both clock modes
//! and checks two things:
//!
//!   1. the work-unit record is bit-identical between `clock = sim` and
//!      `clock = wall` (the wall recorder observes, never perturbs), and
//!   2. the wall-clock ranking agrees with the work-unit ranking at
//!      Kendall's tau >= 1/3 (at most one discordant pair of three). A SUT's
//!      wall speed is its median dispatch time — every op is charged its
//!      64-op batch's wall duration, so the p50 is the program's own speed
//!      and a preempted stretch of host time lands in the tail, where a
//!      whole-run throughput would average it in — fastest of N repeats,
//!      interleaved across the SUTs.

use lsbench::core::record::RunRecord;
use lsbench::core::runner::{RunOptions, Runner};
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;

/// Read-only uniform point lookups: the workload where the gap between a
/// hash table, a learned index, and a B-tree is widest and most stable.
fn scenario() -> Scenario {
    Scenario::specialization_sweep(
        "rank-agreement",
        vec![KeyDistribution::Uniform],
        100_000,
        20_000,
        OperationMix::ycsb_c(),
        0xA5EE,
    )
    .expect("valid scenario")
}

/// The record, and under `clock = wall` the median dispatch time (ns).
fn run(sut: &str, scenario: &Scenario, clock: ClockMode) -> (RunRecord, Option<f64>) {
    let registry = SutRegistry::default();
    let factory = registry.factory(sut).expect("known SUT");
    let outcome = Runner::from_factory(factory)
        .config(RunOptions {
            clock,
            ..RunOptions::default()
        })
        .run(scenario)
        .expect("run succeeds");
    let wall = outcome
        .wall
        .map(|w| w.latency.quantile(0.5).expect("ops were timed") as f64);
    (outcome.record, wall)
}

/// Kendall's tau over two parallel score slices: concordant minus
/// discordant pairs, normalized by the pair count. No ties expected.
fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let sa = (a[i] - a[j]).signum();
            let sb = (b[i] - b[j]).signum();
            if sa * sb > 0.0 {
                concordant += 1;
            } else if sa * sb < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[test]
fn wall_clock_ranking_agrees_with_work_unit_ranking() {
    const SUTS: &[&str] = &["hash", "rmi", "btree"];
    const WALL_REPEATS: usize = 5;
    let s = scenario();

    let sims: Vec<RunRecord> = SUTS
        .iter()
        .map(|sut| {
            let (sim_record, sim_wall) = run(sut, &s, ClockMode::Sim);
            assert!(sim_wall.is_none(), "{sut}: sim mode must not capture wall");
            sim_record
        })
        .collect();

    // Fastest-of-N wall repeats, interleaved across the SUTs so that one
    // noisy stretch of host time costs every SUT a repeat instead of costing
    // one SUT all of them. Every repeat must reproduce the sim record
    // bit-for-bit — the tentpole's core invariant.
    let mut wall_p50_ns = vec![f64::INFINITY; SUTS.len()];
    for _ in 0..WALL_REPEATS {
        for (i, sut) in SUTS.iter().enumerate() {
            let (wall_record, wall) = run(sut, &s, ClockMode::Wall);
            assert_eq!(
                wall_record, sims[i],
                "{sut}: clock=wall perturbed the work-unit record"
            );
            wall_p50_ns[i] = wall_p50_ns[i].min(wall.expect("wall mode captures wall stats"));
        }
    }

    assert!(
        wall_p50_ns.iter().all(|t| *t > 0.0),
        "median dispatch time must be positive: {wall_p50_ns:?}"
    );
    // Lower is faster: rank by the reciprocal, beside ops per virtual second.
    let wall_speed: Vec<f64> = wall_p50_ns.iter().map(|ns| 1.0 / ns).collect();
    let work_tput: Vec<f64> = sims
        .iter()
        .map(|record| {
            let virtual_secs = record.exec_end - record.exec_start;
            assert!(virtual_secs > 0.0);
            record.ops.len() as f64 / virtual_secs
        })
        .collect();

    let tau = kendall_tau(&work_tput, &wall_speed);
    assert!(
        tau >= 1.0 / 3.0,
        "work-unit and wall-clock rankings disagree: tau = {tau} \
         (work-unit ops/s: {work_tput:?}, wall p50 ns per dispatch: {wall_p50_ns:?})"
    );
}

/// The tau helper itself behaves: identical orderings score 1, reversed
/// orderings score -1, one swapped neighbor pair of three scores 1/3.
#[test]
fn kendall_tau_helper_is_sane() {
    assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
    assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
    let third = kendall_tau(&[1.0, 2.0, 3.0], &[2.0, 1.0, 3.0]);
    assert!((third - 1.0 / 3.0).abs() < 1e-12);
}
