//! Event-heap scheduler: millions of open-loop clients on a worker pool.
//!
//! The lane modes pin lanes 1:1 to pre-partitioned op streams, so
//! "concurrency" tops out at a few workers. This module models the
//! population the north star actually asks about — *millions of
//! simulated open-loop clients* — by decoupling clients from threads:
//!
//! * The global op stream is dealt round-robin to `clients` virtual
//!   clients (`stream index mod clients`), and every op gets an
//!   *intended* start time drawn from the scenario's seeded arrival
//!   process — the very schedule the serial policy pulls
//!   (`exec::scenario_ops`), so a one-client run is bit-identical to a
//!   serial run. (Per-phase `concurrency_burst` factors are ignored here,
//!   as they are serially: the arrival process *is* the offered load.)
//! * Clients are assigned to workers by `client mod workers`. Each
//!   worker drives its clients through a binary **event heap** keyed on
//!   `(virtual deadline, client id)`: pop the next-due client, run one
//!   `step` of the execution core for it, push the client back with its
//!   next op's deadline. Per-client state is four scalars
//!   (`ClientState`) and all result sinks are per-worker (`Sinks`), so
//!   bookkeeping is O(1) per event and memory is O(clients + ops), never
//!   O(clients × histogram).
//! * Events are popped in batches so the shared-SUT mutex is taken once
//!   per batch instead of once per op.
//!
//! Determinism survives the multiplexing because every op's outcome is a
//! function of *its client's* state only — the heap decides *when a
//! worker gets around to* an op, never what the op computes — and every
//! sink merges order-insensitively: op records re-sort on
//! `(completion time, global index)`, phase first-seen times min-fold,
//! histograms and counters add. Records are therefore bit-identical at
//! any worker count (the same contract, and the same read-only caveat on
//! a shared SUT, as the shared-lock lanes of [`super::run_lanes`]).

use super::merge::{finish_engine, EngineShape};
use super::worker::{on_workers, LaneResult};
use super::Tuning;
use crate::exec::{
    lock, prologue, scenario_ops, step, Batch, ClientState, CoreOp, LaneParams, RunPlan, Sinks,
};
use crate::obs::RunObserver;
use crate::runner::{Executed, RunOptions};
use crate::scenario::{ClockMode, Scenario};
use crate::{BenchError, Result};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::ops::Operation;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// One pending client event: the client's next op and when it is due.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Virtual time the op will start: `max(client clock, intended)`.
    deadline: f64,
    /// Owning client (deterministic tiebreaker for equal deadlines).
    client: usize,
    /// Global stream index of the client's next op.
    next: usize,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the *earliest*
        // deadline on top.
        other
            .deadline
            .total_cmp(&self.deadline)
            .then(other.client.cmp(&self.client))
    }
}

/// The event-heap driver: runs a scenario as `opts.mode.lanes()` simulated
/// open-loop clients multiplexed onto the run's worker threads against one
/// shared SUT. Requires an arrival process ([`Scenario::arrival`]); see
/// the [module docs](self) for the determinism contract.
///
/// Metrics, counters, and histograms are
/// worker-count-invariant; the *event trace* is not (trace events
/// interleave per worker), so trace-level comparisons should pin one
/// worker.
pub(crate) fn run_heap<S>(
    sut: &mut S,
    scenario: &Scenario,
    opts: &RunOptions,
    tuning: Tuning,
    obs: &mut RunObserver,
) -> Result<Executed>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
{
    let plan = RunPlan::from_scenario(scenario)?;
    tuning.validate()?;
    if scenario.arrival.is_none() {
        return Err(BenchError::InvalidScenario(
            "open-loop execution requires an [arrival] section: without an arrival \
             process an open loop is just a closed loop"
                .to_string(),
        ));
    }
    // Only the globally first op of each phase announces the change to
    // the shared SUT (same rule as shared-lanes mode).
    let mut stream: Vec<CoreOp<Operation>> = scenario_ops(scenario, opts.max_ops)?.collect();
    let mut seen_phase = 0usize;
    for op in &mut stream {
        op.meta.announce = op.meta.phase != std::mem::replace(&mut seen_phase, op.meta.phase);
    }
    // The heap reads an op's arrival when it *schedules* the op, long
    // before it executes it: a dense array of their own keeps those reads
    // in cache.
    let arrivals: Vec<f64> = stream
        .iter()
        .map(|op| op.meta.arrival.unwrap_or(0.0))
        .collect();
    let started = prologue(plan, [&mut *sut], obs);
    let params = &started.plan.params;

    let clients = opts.mode.lanes();
    let threads = opts.worker_threads().min(clients);
    let shape = EngineShape {
        lanes: clients,
        threads,
        interval: tuning.completion_interval,
        stable_lanes: false,
    };
    let workers = (0..threads)
        .map(|worker| {
            (
                worker,
                Sinks::new(obs.lane_obs(worker), ClockMode::Sim, 0, true),
            )
        })
        .collect();
    let mutex = Mutex::new(sut);
    let results = on_workers(workers, |(worker, sinks)| {
        let stream = (stream.as_slice(), arrivals.as_slice());
        run_sched_worker(
            worker,
            sinks,
            shape,
            stream,
            &mutex,
            params,
            tuning.batch_size,
        )
    })?;
    let final_metrics = lock(&mutex)?.metrics();
    finish_engine(started, results, final_metrics, shape, obs)
}

/// One scheduler worker: owns every client with `client % threads ==
/// worker`, drives them in event-heap order, and returns one
/// [`LaneResult`] whose `lane` is the worker index.
fn run_sched_worker<S>(
    worker: usize,
    mut sinks: Sinks,
    shape: EngineShape,
    (stream, arrivals): (&[CoreOp<Operation>], &[f64]),
    mutex: &Mutex<&mut S>,
    params: &LaneParams,
    batch_size: usize,
) -> Result<LaneResult>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
{
    let (clients, threads) = (shape.lanes, shape.threads);
    let total = stream.len();
    let intended = |i: usize| params.exec_start + arrivals[i];
    // Client `c` owns global indices c, c + clients, c + 2·clients, …
    // Local slot for client `c` on this worker: (c - worker) / threads.
    let owned = if worker < clients {
        (clients - worker - 1) / threads + 1
    } else {
        0
    };
    let mut states: Vec<ClientState> = vec![ClientState::new(params.exec_start); owned];
    let mut final_clock = params.exec_start;

    let mut heap: BinaryHeap<Event> = BinaryHeap::with_capacity(owned.min(total));
    let mut client = worker;
    while client < clients && client < total {
        heap.push(Event {
            deadline: intended(client),
            client,
            next: client,
        });
        client += threads;
    }

    let mut events: Vec<Event> = Vec::with_capacity(batch_size);
    let mut dispatch = Batch::default();
    // Every event is a run of one op: nothing to gather behind it.
    let mut rest = std::iter::empty().peekable();
    while !heap.is_empty() {
        events.clear();
        while events.len() < batch_size {
            match heap.pop() {
                Some(event) => events.push(event),
                None => break,
            }
        }
        // One lock per batch, not per op: the scheduler's throughput
        // lever. Virtual results cannot tell the difference because each
        // event only touches its own client's clock.
        let mut guard = lock(mutex)?;
        for event in &events {
            let state = &mut states[(event.client - worker) / threads];
            let op = stream[event.next];
            step(
                state,
                &mut sinks,
                &mut dispatch,
                &mut **guard,
                op,
                &mut rest,
                params,
            )?;
            let next = event.next + clients;
            if next < total {
                heap.push(Event {
                    deadline: intended(next).max(state.clock),
                    client: event.client,
                    next,
                });
            } else {
                // The client's last op: pay any remaining adaptation
                // backlog (conservation of adaptation work).
                final_clock = final_clock.max(state.finish());
            }
        }
    }

    Ok(LaneResult {
        lane: worker,
        sinks,
        final_clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{EngineStats, ExecutionMode, RunOutcome, Runner};
    use crate::scenario::ArrivalSpec;
    use lsbench_sut::kv::BTreeSut;
    use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
    use lsbench_workload::keygen::KeyDistribution;

    fn open_loop_scenario(rate: f64) -> Scenario {
        let mut s = Scenario::two_phase_shift(
            "sched-shift",
            KeyDistribution::Uniform,
            KeyDistribution::Normal {
                center: 0.1,
                std_frac: 0.02,
            },
            5_000,
            2_000,
            42,
        )
        .unwrap();
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson { rate },
            modulation: LoadModulation::Constant,
            seed: 7,
        });
        s
    }

    fn open_loop(clients: usize, workers: usize) -> RunOptions {
        RunOptions::with_mode(ExecutionMode::OpenLoop { clients, workers })
    }

    fn run(sut: &mut BTreeSut, s: &Scenario, opts: RunOptions) -> RunOutcome {
        Runner::new(sut).config(opts).run(s).unwrap()
    }

    fn stats(outcome: &RunOutcome) -> &EngineStats {
        outcome.engine.as_ref().expect("an engine run")
    }

    #[test]
    fn one_client_is_bit_identical_to_serial_driver() {
        let s = open_loop_scenario(50_000.0);
        let data = s.dataset.build().unwrap();
        let mut serial_sut = BTreeSut::build(&data).unwrap();
        let serial = Runner::new(&mut serial_sut).run(&s).unwrap().record;
        let mut sched_sut = BTreeSut::build(&data).unwrap();
        let report = run(&mut sched_sut, &s, open_loop(1, 1));
        assert_eq!(report.record.ops, serial.ops);
        assert_eq!(report.record.phase_change_times, serial.phase_change_times);
        assert_eq!(report.record.exec_end, serial.exec_end);
        assert_eq!(report.record.final_metrics, serial.final_metrics);
    }

    #[test]
    fn records_are_worker_count_invariant() {
        let s = open_loop_scenario(80_000.0);
        let data = s.dataset.build().unwrap();
        let mut baseline = None;
        for threads in [1, 2, 4] {
            let mut sut = BTreeSut::build(&data).unwrap();
            let report = run(&mut sut, &s, open_loop(500, threads));
            assert_eq!(stats(&report).threads, threads.min(500));
            assert_eq!(stats(&report).lanes, 500);
            match &baseline {
                None => baseline = Some(report),
                Some(first) => {
                    assert_eq!(report.record.ops, first.record.ops, "threads={threads}");
                    assert_eq!(
                        report.record.phase_change_times,
                        first.record.phase_change_times
                    );
                    assert_eq!(report.record.exec_end, first.record.exec_end);
                    assert_eq!(stats(&report).latency, stats(first).latency);
                    assert_eq!(stats(&report).completions, stats(first).completions);
                }
            }
        }
    }

    #[test]
    fn batch_size_never_changes_results() {
        let s = open_loop_scenario(80_000.0);
        let data = s.dataset.build().unwrap();
        let mut small_sut = BTreeSut::build(&data).unwrap();
        let tiny = Tuning {
            batch_size: 1,
            ..Tuning::default()
        };
        let obs = &mut RunObserver::disabled();
        let (small, _, _) = run_heap(&mut small_sut, &s, &open_loop(64, 4), tiny, obs).unwrap();
        let mut big_sut = BTreeSut::build(&data).unwrap();
        let big = run(&mut big_sut, &s, open_loop(64, 4));
        assert_eq!(small.ops, big.record.ops);
        assert_eq!(small.exec_end, big.record.exec_end);
    }

    #[test]
    fn more_clients_than_ops_is_fine() {
        let s = open_loop_scenario(50_000.0);
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let report = run(&mut sut, &s, open_loop(10_000, 4));
        // Two phases of 2 000 ops each; clients beyond the op count simply
        // never fire.
        assert_eq!(report.record.ops.len(), 4_000);
        assert_eq!(stats(&report).lanes, 10_000);
    }

    #[test]
    fn closed_loop_scenario_is_rejected() {
        let s = Scenario::two_phase_shift(
            "sched-closed",
            KeyDistribution::Uniform,
            KeyDistribution::Uniform,
            2_000,
            200,
            42,
        )
        .unwrap();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let run = Runner::new(&mut sut).config(open_loop(8, 2)).run(&s);
        let err = run.unwrap_err();
        assert!(err.to_string().contains("arrival"));
    }

    #[test]
    fn overload_charges_queueing_delay() {
        // Arrivals far faster than the SUT can serve: open-loop latency
        // must include queueing, so the p99 dwarfs the underloaded run's.
        let fast = open_loop_scenario(1_000_000_000.0);
        let slow = open_loop_scenario(1_000.0);
        let data = fast.dataset.build().unwrap();
        let mut overloaded = BTreeSut::build(&data).unwrap();
        let over = run(&mut overloaded, &fast, open_loop(4, 2));
        let mut relaxed = BTreeSut::build(&data).unwrap();
        let under = run(&mut relaxed, &slow, open_loop(4, 2));
        let over_p99 = stats(&over).latency.quantile(0.99).unwrap();
        let under_p99 = stats(&under).latency.quantile(0.99).unwrap();
        assert!(
            over_p99 > under_p99,
            "overload p99 {over_p99}ns should exceed underload p99 {under_p99}ns"
        );
    }
}
