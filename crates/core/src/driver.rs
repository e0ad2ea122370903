//! The single-client policies of the execution core.
//!
//! A run bulk-loads the dataset (outside measured time, as benchmarks do),
//! runs the **training phase** against the configured budget — reported as
//! a first-class result (Lesson 3) — then streams the phased workload,
//! recording every completion on a deterministic virtual clock. Phase
//! changes are announced to the SUT (systems may ignore them), and
//! maintenance slots are offered periodically so online-adaptive systems
//! can retrain; both kinds of adaptation work consume virtual time, which
//! is exactly how adaptation cost becomes visible in the Fig. 1b/1c
//! curves.
//!
//! That rule is written once, in the execution core (`exec.rs`);
//! every function here is an op source plus a plan handed to it. Scenarios
//! are run through the [`Runner`](crate::runner::Runner) — the serial
//! policy here is what its `Serial` mode executes — and the public
//! functions are the runs that have no scenario: trace replay and the
//! query workload.

use crate::exec::{
    epilogue, prelude, prologue, run_inline, scenario_ops, ClientState, CoreOp, Merged, Pacing,
    RunPlan, Sinks,
};
use crate::obs::{LaneObs, ObsConfig, RunObserver};
use crate::record::RunRecord;
use crate::runner::{Executed, RunOptions};
use crate::scenario::{ClockMode, Scenario};
use crate::{BenchError, Result};
use lsbench_sut::query_sut::QueryOp;
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::ops::Operation;
use lsbench_workload::phases::MAX_PHASES;
use lsbench_workload::trace::Trace;

/// The serial policy: one client on the calling thread, its op stream made
/// ahead on one helper thread ([`run_inline`]). The SUT must already be
/// loaded with the scenario's dataset (SUT constructors take the dataset so
/// each system can bulk-load natively).
///
/// Neither the observer nor the wall recorder ever advances or reads the
/// virtual clock, so the record is bit-identical whether they are on or
/// off (enforced by `tests/observability.rs` and `tests/determinism.rs`).
pub(crate) fn run_serial<S: SystemUnderTest<Operation> + ?Sized>(
    sut: &mut S,
    scenario: &Scenario,
    opts: &RunOptions,
    obs: &mut RunObserver,
) -> Result<Executed> {
    let plan = RunPlan::from_scenario(scenario)?;
    let source = scenario_ops(scenario, opts.max_ops)?;
    let (record, wall) = run_inline(sut, plan, source, opts.clock, obs)?;
    Ok((record, None, wall))
}

/// A trace as an op source. Entries with positive `arrival` times are
/// open-loop (latency from the intended arrival); zero arrivals are
/// closed-loop.
fn trace_ops(trace: &Trace) -> impl Iterator<Item = CoreOp<Operation>> + '_ {
    trace.entries().iter().enumerate().map(|(i, entry)| {
        let arrival = (entry.arrival > 0.0).then_some(entry.arrival);
        CoreOp::new(entry.op, entry.phase, i, arrival)
    })
}

/// Refuses a source with more phases than a record tells apart.
fn check_phases(phases: usize) -> Result<()> {
    if phases > MAX_PHASES {
        return Err(BenchError::InvalidScenario(format!(
            "{phases} phases exceed the limit of {MAX_PHASES}"
        )));
    }
    Ok(())
}

/// Every replay is paced alike, so two SUTs replaying one trace differ in
/// nothing but themselves.
fn replay_plan(trace: &Trace) -> Result<RunPlan> {
    let last_phase = trace.entries().iter().map(|e| e.phase).max();
    check_phases(last_phase.map_or(0, |phase| phase.saturating_add(1)))?;
    let pacing = Pacing {
        work_units_per_second: 1_000_000.0,
        maintenance_every: 256,
        train_budget: u64::MAX,
    };
    let names = trace.phase_names().to_vec();
    RunPlan::bare("trace-replay", names, pacing, trace.len())
}

/// Replays a recorded [`Trace`] against a SUT.
///
/// This is the mechanism behind §V-A's requirement that hold-out workloads
/// be presented to every system *identically and exactly once*: a trace is
/// recorded once and shipped to each SUT. Entries with positive `arrival`
/// times are replayed open-loop (latency includes queueing); zero arrival
/// times replay closed-loop.
pub fn run_kv_trace<S: SystemUnderTest<Operation> + ?Sized>(
    sut: &mut S,
    trace: &Trace,
) -> Result<RunRecord> {
    let plan = replay_plan(trace)?;
    let obs = &mut RunObserver::new(ObsConfig::default());
    run_inline(sut, plan, trace_ops(trace), ClockMode::Sim, obs).map(|(record, _)| record)
}

/// Replays a trace open-loop against a SUT with a population of `clients`
/// independent closed-loop clients sharing the trace's arrival schedule.
///
/// Operations are assigned to clients round-robin in trace order. An entry
/// with a positive `arrival` issues at that virtual time (or when its
/// client frees up, whichever is later) and its latency *includes queueing
/// delay* — the coordinated-omission-safe measurement. Entries without
/// timestamps issue as soon as their client is free and measure service
/// time only.
///
/// The replay is a logically serial discrete-event simulation on the
/// virtual clock with a timing rule of its own: operations execute against
/// the SUT in trace order on one server (shared backlog, maintenance
/// cadence and phase), and only per-client *free times* differ from
/// [`run_kv_trace`]. Prologue, per-op prelude, service computation and
/// record assembly are the core's. Physical worker count can never affect
/// the record — guarded by `tests/open_loop.rs` and the CI trace-smoke job.
pub fn run_kv_trace_open_loop<S: SystemUnderTest<Operation> + ?Sized>(
    sut: &mut S,
    trace: &Trace,
    clients: usize,
) -> Result<RunRecord> {
    if clients == 0 {
        return Err(BenchError::InvalidScenario(
            "open-loop replay needs at least one client".to_string(),
        ));
    }
    let obs = &mut RunObserver::new(ObsConfig::default());
    let started = prologue(replay_plan(trace)?, [&mut *sut], obs);
    let p = &started.plan.params;
    // The server's `clock` is the latest completion so far: phase changes
    // are stamped there.
    let mut server = ClientState::new(p.exec_start);
    let mut sinks = Sinks::new(LaneObs::inert(), ClockMode::Sim, trace.len(), false);
    let mut client_free = vec![p.exec_start; clients.min(trace.len().max(1))];
    for (i, CoreOp { op, meta }) in trace_ops(trace).enumerate() {
        prelude(&mut server, &mut sinks, sut, &meta, p);
        let outcome = sut
            .execute(&op)
            .map_err(|e| BenchError::Sut(e.to_string()))?;
        let service = server.serve(outcome.work, p);
        let slot = i % client_free.len();
        let free = &mut client_free[slot];
        let (start, basis) = match meta.arrival {
            Some(offset) => ((p.exec_start + offset).max(*free), p.exec_start + offset),
            None => (*free, *free),
        };
        *free = start + service;
        server.clock = server.clock.max(*free);
        sinks.complete(*free, *free - basis, outcome.ok, &meta);
    }
    let merged = Merged::inline(&mut sinks, p.exec_start, server.finish());
    Ok(epilogue(started, merged, sut.metrics(), None, obs))
}

/// Runs a query SUT over per-phase query batches (each inner vector is one
/// workload phase). A phase change is announced before the first query of
/// each later phase; its adaptation work stalls that query. Phases without
/// queries are never entered.
pub fn run_query_workload<S: SystemUnderTest<QueryOp> + ?Sized>(
    sut: &mut S,
    phases: &[(String, Vec<QueryOp>)],
    work_units_per_second: f64,
    train_budget: u64,
) -> Result<RunRecord> {
    check_phases(phases.len())?;
    let pacing = Pacing {
        work_units_per_second,
        maintenance_every: u64::MAX,
        train_budget,
    };
    let names = phases.iter().map(|(name, _)| name.clone()).collect();
    let plan = RunPlan::bare("query-workload", names, pacing, 0)?;
    let source = phases
        .iter()
        .enumerate()
        .flat_map(|(phase, (_, batch))| batch.iter().map(move |op| (phase, op)))
        .enumerate()
        .map(|(i, (phase, op))| CoreOp::new(op.clone(), phase, i, None));
    let obs = &mut RunObserver::new(ObsConfig::default());
    run_inline(sut, plan, source, ClockMode::Sim, obs).map(|(record, _)| record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{step, Batch, Lookahead, CHUNK, CHUNKS};
    use crate::runner::Runner;
    use lsbench_sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
    use lsbench_sut::sut::{ExecOutcome, SutMetrics};
    use lsbench_sut::SutError;
    use lsbench_workload::keygen::KeyDistribution;
    use std::sync::mpsc::{channel, Receiver};

    fn scenario() -> Scenario {
        Scenario::two_phase_shift(
            "test-shift",
            KeyDistribution::Uniform,
            KeyDistribution::Normal {
                center: 0.1,
                std_frac: 0.02,
            },
            5_000,
            2_000,
            42,
        )
        .unwrap()
    }

    #[test]
    fn kv_run_produces_complete_record() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        assert_eq!(r.completed(), 4_000);
        assert_eq!(r.phase_names.len(), 2);
        assert_eq!(r.phase_change_times.len(), 2);
        assert_eq!(r.failures(), 0);
        assert!(r.exec_end > r.exec_start);
        // Timestamps are non-decreasing.
        for w in r.ops.windows(2) {
            assert!(w[0].t_end <= w[1].t_end);
        }
        // B-tree doesn't train.
        assert_eq!(r.train.work, 0);
    }

    #[test]
    fn learned_sut_reports_training_time() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        assert!(r.train.work > 0);
        assert!(r.train.seconds > 0.0);
        assert_eq!(r.exec_start, r.train.seconds);
    }

    #[test]
    fn deterministic_runs() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let run = || {
            let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.1)).unwrap();
            Runner::new(&mut sut).run(&s).unwrap().record
        };
        let a = run();
        let b = run();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.exec_end, b.exec_end);
    }

    #[test]
    fn wall_clock_mode_observes_without_perturbing_the_record() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let run = |clock| {
            let mut sut = BTreeSut::build(&data).unwrap();
            let opts = RunOptions {
                clock,
                ..RunOptions::default()
            };
            let outcome = Runner::new(&mut sut).config(opts).run(&s).unwrap();
            (outcome.record, outcome.wall)
        };
        let (sim_record, sim_wall) = run(ClockMode::Sim);
        let (wall_record, wall_stats) = run(ClockMode::Wall);
        // The work-unit record is bit-identical across clock modes: wall
        // capture only observes the hot loop, it never schedules.
        assert_eq!(sim_record, wall_record);
        assert!(sim_wall.is_none());
        let wall = wall_stats.expect("wall stats in wall mode");
        assert_eq!(wall.ops, wall_record.completed() as u64);
        assert_eq!(wall.latency.total(), wall.ops);
        assert!(wall.elapsed_seconds > 0.0);
        assert!(wall.throughput > 0.0);
    }

    #[test]
    fn max_ops_cap() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let opts = RunOptions {
            max_ops: 100,
            ..RunOptions::default()
        };
        let r = Runner::new(&mut sut).config(opts).run(&s).unwrap().record;
        assert_eq!(r.completed(), 100);
    }

    #[test]
    fn background_training_spreads_the_cost() {
        use crate::scenario::OnlineTrainMode;
        use lsbench_workload::ops::OperationMix;
        use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
        // One retrain at a phase boundary, then a long read phase to drain
        // the backlog: foreground shows one huge latency spike, background
        // a long shallow slowdown — same total cost (§V-B trade-off).
        let key_range = (0u64, 10_000_000u64);
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
                    KeyDistribution::Uniform,
                    key_range,
                    OperationMix::ycsb_c(),
                    3_000,
                ),
                WorkloadPhase::new(
                    "writes",
                    KeyDistribution::Uniform,
                    key_range,
                    write_mix,
                    2_000,
                ),
                WorkloadPhase::new(
                    "drain-reads",
                    KeyDistribution::Uniform,
                    key_range,
                    OperationMix::ycsb_c(),
                    30_000,
                ),
            ],
            vec![TransitionKind::Abrupt, TransitionKind::Abrupt],
            50,
        )
        .unwrap();
        let mut s = Scenario::two_phase_shift(
            "bg-train",
            KeyDistribution::Uniform,
            KeyDistribution::Uniform,
            5_000,
            10,
            50,
        )
        .unwrap();
        s.workload = workload;
        let run_with = |mode: OnlineTrainMode| {
            let mut s2 = s.clone();
            s2.online_train = mode;
            let data = s2.dataset.build().unwrap();
            // Retrains only at phase boundaries (once, entering phase 3).
            let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::OnPhaseChange).unwrap();
            Runner::new(&mut sut).run(&s2).unwrap().record
        };
        let fg = run_with(OnlineTrainMode::Foreground);
        let bg = run_with(OnlineTrainMode::Background { fraction: 0.3 });
        assert!(fg.final_metrics.adaptations > 0, "no retrains happened");
        let max_lat =
            |r: &crate::record::RunRecord| r.ops.iter().map(|o| o.latency).fold(0.0f64, f64::max);
        // Foreground: one spike near the full retrain cost; background:
        // worst latency orders of magnitude smaller.
        assert!(
            max_lat(&fg) > 10.0 * max_lat(&bg),
            "fg {} vs bg {}",
            max_lat(&fg),
            max_lat(&bg)
        );
        // Total adaptation work is conserved: end-to-end durations are
        // close; the cost is just distributed differently.
        let ratio = fg.exec_duration() / bg.exec_duration();
        assert!((0.8..1.25).contains(&ratio), "duration ratio {ratio}");
    }

    #[test]
    fn background_fraction_validated() {
        use crate::scenario::OnlineTrainMode;
        let mut s = scenario();
        s.online_train = OnlineTrainMode::Background { fraction: 0.0 };
        assert!(s.validate().is_err());
        s.online_train = OnlineTrainMode::Background { fraction: 1.0 };
        assert!(s.validate().is_err());
        s.online_train = OnlineTrainMode::Background { fraction: 0.5 };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn open_loop_includes_queueing_latency() {
        use crate::scenario::ArrivalSpec;
        use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
        let mut s = scenario();
        let data = s.dataset.build().unwrap();
        // Service rate of the btree is ~50k ops/s at 1M work-units/s.
        // Bursts at 8× a 40k ops/s base rate overload the server, so
        // queueing delay must appear in latencies during bursts.
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson { rate: 40_000.0 },
            modulation: LoadModulation::Burst {
                period: 0.02,
                burst_len: 0.005,
                multiplier: 8.0,
            },
            seed: 3,
        });
        s.validate().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        assert_eq!(r.completed(), 4_000);
        // Some latencies exceed any plausible service time (queueing).
        let service_bound = 200.0 / s.work_units_per_second;
        let queued = r.ops.iter().filter(|o| o.latency > service_bound).count();
        assert!(queued > 100, "queued = {queued}");
        // And all latencies are non-negative.
        assert!(r.ops.iter().all(|o| o.latency >= 0.0));
    }

    #[test]
    fn open_loop_underload_matches_service_latency() {
        use crate::scenario::ArrivalSpec;
        use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
        let mut s = scenario();
        let data = s.dataset.build().unwrap();
        // 100 ops/s against a ~50k ops/s server: no queueing, latency ≈
        // service time.
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Uniform { rate: 100.0 },
            modulation: LoadModulation::Constant,
            seed: 4,
        });
        let mut sut = BTreeSut::build(&data).unwrap();
        let opts = RunOptions {
            max_ops: 500,
            ..RunOptions::default()
        };
        let r = Runner::new(&mut sut).config(opts).run(&s).unwrap().record;
        let service_bound = 200.0 / s.work_units_per_second;
        assert!(
            r.ops.iter().all(|o| o.latency <= service_bound),
            "unexpected queueing under light load"
        );
        // Execution time is dominated by arrival pacing: 500 ops at 100/s.
        assert!(r.exec_duration() > 4.0, "duration = {}", r.exec_duration());
    }

    #[test]
    fn closed_loop_rejected_as_arrival_spec() {
        use crate::scenario::ArrivalSpec;
        use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
        let mut s = scenario();
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::ClosedLoop,
            modulation: LoadModulation::Constant,
            seed: 1,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn trace_replay_matches_streamed_run() {
        use lsbench_workload::trace::Trace;
        let mut s = scenario();
        s.maintenance_every = 256; // the replay's cadence
        let data = s.dataset.build().unwrap();
        // Record the scenario workload once, replay it.
        let trace = Trace::record(&s.workload).unwrap();
        let mut streamed_sut = BTreeSut::build(&data).unwrap();
        let streamed = Runner::new(&mut streamed_sut).run(&s).unwrap().record;
        let mut replay_sut = BTreeSut::build(&data).unwrap();
        let replayed = run_kv_trace(&mut replay_sut, &trace).unwrap();
        // Identical op stream + deterministic SUT => identical records.
        assert_eq!(replayed.ops, streamed.ops);
        assert_eq!(replayed.phase_names, streamed.phase_names);
        // Replays against a second (different) SUT complete too.
        let mut other = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let r2 = run_kv_trace(&mut other, &trace).unwrap();
        assert_eq!(r2.completed(), trace.len());
    }

    /// A SUT whose work depends on the key: it remembers every op it is
    /// handed, and fails — or panics — when handed its `fail_at`-th, once
    /// `gate` (if any) has opened.
    #[derive(Default)]
    struct Probe {
        seen: Vec<Operation>,
        fail_at: Option<usize>,
        panics: bool,
        gate: Option<Receiver<()>>,
    }

    impl SystemUnderTest<Operation> for Probe {
        fn name(&self) -> String {
            "probe".to_string()
        }
        fn train(&mut self, _budget: u64) -> u64 {
            0
        }
        fn execute(&mut self, op: &Operation) -> lsbench_sut::Result<ExecOutcome> {
            let at = self.seen.len();
            self.seen.push(*op);
            if self.fail_at != Some(at) {
                return Ok(ExecOutcome::ok(op.key() % 97 + 1));
            }
            if let Some(gate) = &self.gate {
                gate.recv().expect("the gate opens");
            }
            if self.panics {
                panic!("probe panics at op {at}");
            }
            Err(SutError::Internal(format!("probe fails at op {at}")))
        }
        fn metrics(&self) -> SutMetrics {
            SutMetrics::default()
        }
    }

    /// A scenario of exactly `ops` operations, writes included: two phases
    /// joined by a gradual transition (one phase for a single op).
    fn sized(ops: u64) -> Scenario {
        use lsbench_workload::ops::OperationMix;
        use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
        let range = (0, 1_000_000);
        let phase =
            |name: &str, dist, n| WorkloadPhase::new(name, dist, range, OperationMix::ycsb_a(), n);
        let uniform = KeyDistribution::Uniform;
        let workload = if ops == 1 {
            PhasedWorkload::single(phase("only", uniform.clone(), 1), 5)
        } else {
            let zipf = KeyDistribution::Zipf { theta: 1.1 };
            let phases = vec![
                phase("a", uniform.clone(), ops / 2),
                phase("b", zipf, ops - ops / 2),
            ];
            PhasedWorkload::new(phases, vec![TransitionKind::Gradual { window: 0.5 }], 5)
        };
        Scenario::builder("made-ahead")
            .dataset(uniform, range, 1_000, 3)
            .workload(workload.unwrap())
            .maintenance_every(100)
            .build()
            .unwrap()
    }

    /// The serial policy's run with no chunks: the whole stream stepped
    /// through one look-ahead on the calling thread, between the prologue
    /// and epilogue `run_inline` puts around its driver.
    fn unchunked(sut: &mut Probe, s: &Scenario, max_ops: u64) -> RunRecord {
        let obs = &mut RunObserver::new(ObsConfig::default());
        let started = prologue(RunPlan::from_scenario(s).unwrap(), [&mut *sut], obs);
        let p = &started.plan.params;
        let mut sinks = Sinks::new(LaneObs::inert(), ClockMode::Sim, 0, false);
        let (mut client, mut batch) = ([ClientState::new(p.exec_start)], Batch::default());
        let mut ops = Lookahead::new(scenario_ops(s, max_ops).unwrap().map(|op| (0, op)));
        while let Some(first) = ops.next() {
            step(&mut client, &mut sinks, &mut batch, sut, first, &mut ops, p).unwrap();
        }
        let merged = Merged::inline(&mut sinks, p.exec_start, client[0].finish());
        epilogue(started, merged, sut.metrics(), None, obs)
    }

    /// The serial policy's record and SUT calls under an op cap, then the
    /// same run [`unchunked`].
    fn both_ways(s: &Scenario, max_ops: u64) -> [(RunRecord, Vec<Operation>); 2] {
        let opts = RunOptions {
            max_ops,
            ..RunOptions::default()
        };
        let obs = &mut RunObserver::new(ObsConfig::default());
        let mut ahead = Probe::default();
        let (record, _, _) = run_serial(&mut ahead, s, &opts, obs).unwrap();
        let mut whole = Probe::default();
        let whole_record = unchunked(&mut whole, s, max_ops);
        [(record, ahead.seen), (whole_record, whole.seen)]
    }

    #[test]
    fn made_ahead_equals_the_inline_stream_at_chunk_edges() {
        for ops in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let [ahead, inline] = both_ways(&sized(ops as u64), u64::MAX);
            assert_eq!(ahead.0.ops.len(), ops);
            assert!(ahead == inline, "{ops} ops: the made-ahead run differs");
        }
    }

    #[test]
    fn made_ahead_equals_the_inline_stream_under_op_caps() {
        let s = sized(3 * CHUNK as u64);
        for cap in [0, CHUNK + CHUNK / 2] {
            let [ahead, inline] = both_ways(&s, cap as u64);
            assert_eq!(ahead.0.ops.len(), cap);
            assert!(ahead == inline, "cap {cap}: the made-ahead run differs");
        }
    }

    /// Failing in the first chunk's first op, inside it, and chunks in.
    const FAIL_AT: [usize; 3] = [0, 5, 2 * CHUNK + 3];

    /// A run of 8 chunks made ahead, as the serial policy runs, whose SUT
    /// fails (or panics) at op `fail_at` only once the helper has made every
    /// op it can get rid of: the driver holds the chunk of `fail_at`, its
    /// queue `CHUNKS` more, and the helper fills one more and waits to hand
    /// it over, which is where a helper that outlived its driver would hang
    /// the run.
    fn run_failing(fail_at: usize, panics: bool) -> Result<RunRecord> {
        let s = sized(8 * CHUNK as u64);
        let (filled, gate) = channel();
        let last = ((fail_at / CHUNK + CHUNKS + 2) * CHUNK - 1) as u64;
        let source = scenario_ops(&s, u64::MAX)?.inspect(move |op| {
            if op.meta.idx == last {
                filled.send(()).expect("the SUT waits at the gate");
            }
        });
        let mut sut = Probe {
            fail_at: Some(fail_at),
            panics,
            gate: Some(gate),
            ..Probe::default()
        };
        let plan = RunPlan::from_scenario(&s)?;
        let obs = &mut RunObserver::new(ObsConfig::default());
        run_inline(&mut sut, plan, source, ClockMode::Sim, obs).map(|(record, _)| record)
    }

    #[test]
    fn made_ahead_returns_the_sut_s_error() {
        for fail_at in FAIL_AT {
            let err = run_failing(fail_at, false).unwrap_err();
            let expected = format!("probe fails at op {fail_at}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn made_ahead_propagates_the_sut_s_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for fail_at in FAIL_AT {
            let run = catch_unwind(AssertUnwindSafe(|| run_failing(fail_at, true)));
            let payload = run.expect_err("the SUT's panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, format!("probe panics at op {fail_at}"));
        }
    }

    #[test]
    fn the_last_of_max_phases_is_recorded_as_itself() {
        use lsbench_workload::ops::OperationMix;
        use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
        let range = (0, 1_000_000);
        let mix = OperationMix::ycsb_c();
        let phase = WorkloadPhase::new("p", KeyDistribution::Uniform, range, mix, 1);
        let joins = vec![TransitionKind::Abrupt; MAX_PHASES - 1];
        let workload = PhasedWorkload::new(vec![phase; MAX_PHASES], joins, 5).unwrap();
        let s = Scenario::builder("one-op-phases")
            .dataset(KeyDistribution::Uniform, range, 1_000, 3)
            .workload(workload)
            .build()
            .unwrap();
        let r = Runner::new(&mut Probe::default()).run(&s).unwrap().record;
        assert_eq!(r.ops.len(), MAX_PHASES);
        assert_eq!(r.ops.last().unwrap().phase, u16::MAX);
    }

    #[test]
    fn phase_change_recorded_at_boundary() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let r = Runner::new(&mut sut).run(&s).unwrap().record;
        let t1 = r.phase_start_time(1).unwrap();
        // Phase 1 starts after exactly 2000 ops.
        let ops_before: usize = r.ops.iter().filter(|o| o.t_end <= t1).count();
        assert_eq!(ops_before, 2000);
    }
}
