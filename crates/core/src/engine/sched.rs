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
//! * Clients are assigned to workers by `client mod workers`. A worker has
//!   one pending event per active client — the client's next op, due at
//!   `max(client clock, intended start)` — and serves them in `(deadline,
//!   client id)` order, in batches: gather the [`Tuning::batch_size`]
//!   events due first, hand them in that order to the execution core's one
//!   `step` under one lock of the shared SUT (which dispatches them as
//!   `execute_many` runs across clients, `exec.rs`), and only then admit
//!   the successors of the clients served. Per-client state is four
//!   scalars (`ClientState`) plus one index, and all result sinks are
//!   per-worker (`Sinks`), so memory is O(clients + ops), never O(clients ×
//!   histogram).
//!
//! # The ready queue pays for lateness, not for population
//!
//! Keeping every pending event in one binary heap costs O(log
//! owned-clients) per event and drags the whole population through the
//! cache between two probes of the SUT — to re-derive, whenever no client
//! is behind, an order the arrival schedule already has: arrivals are
//! non-decreasing in stream index ([`open_loop_stream`] refuses a schedule
//! that is not), so on-time events are due in index order. [`ReadyQueue`]
//! therefore merges two sorted sources:
//!
//! * an **arrival cursor** over the worker's own stream indices in
//!   increasing order, which yields index `i` iff its client is idle,
//!   waiting for exactly `i`, and on time (`clock ≤ intended(i)`, so the
//!   deadline *is* `intended(i)`) — O(1) per event;
//! * the **heap**, which receives a client only when it is behind
//!   (`intended(next) < clock`), when the cursor has already passed `next`
//!   (it moves on while a client is being served, so this takes a client
//!   whose turn comes round within one batch, or one that was behind a
//!   moment ago), or when `intended(next)` is not *strictly* between its
//!   stream neighbours' — O(log late-clients) per such event.
//!
//! The merged order is exactly the one heap's. Every index waiting on the
//! cursor lies at or after it and has a deadline strictly greater than
//! every earlier index's, so the first waiting index is the unique minimum
//! of the waiting set; the heap's top is the minimum of the rest; and the
//! two are compared on the full `(deadline, client)` key. Exact ties —
//! `exec_start + offset` collapses distinct offsets once the gaps fall
//! under an ulp of `exec_start`, as any very high rate on a trained SUT
//! does — would be due in client order, not index order, which is why
//! they are left to the heap. An under-loaded run never touches the heap;
//! a fully overloaded one is the plain heap plus one comparison per op.
//!
//! # Determinism
//!
//! Every op's timing is a function of *its client's* state only — the
//! queue decides *when a worker gets around to* an op — and every sink
//! merges order-insensitively: op records re-sort on `(completion time,
//! global index)`, phase first-seen times min-fold, histograms and
//! counters add. Against a read-only shared SUT the record is therefore
//! bit-identical at any worker count and any [`Tuning::batch_size`] (the
//! same contract, and the same caveat, as the shared-lock lanes of
//! [`super::run_lanes`]). Against a SUT the ops mutate, what an op
//! *computes* depends on the ops served before it, so the pop order
//! reaches the record: one worker's order is fixed by the rule above
//! (`tests/record_digests.rs`, `sched_order`), and `batch_size` — which
//! decides how long a served client's successor is held back — is part of
//! that rule. That is why it is a constant and not an option.

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
    /// The owning client's slot on its worker. Slots ascend with client
    /// ids, so this is the deterministic tiebreaker for equal deadlines.
    slot: usize,
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
        // deadline on top, so the greater event is the one due first.
        other
            .deadline
            .total_cmp(&self.deadline)
            .then(other.slot.cmp(&self.slot))
    }
}

/// How many of `worker, worker + threads, worker + 2·threads, …` lie below
/// `bound`: the clients a worker owns (`bound` = clients), or those of
/// them that own an op of a partial round.
fn owned_below(worker: usize, threads: usize, bound: usize) -> usize {
    if worker < bound {
        (bound - worker - 1) / threads + 1
    } else {
        0
    }
}

/// How many of a stream's `total` indices belong to clients of `worker`:
/// every owned client's in the full rounds, some clients' in the last.
fn owned_ops(worker: usize, shape: EngineShape, total: usize) -> usize {
    let (clients, threads) = (shape.lanes, shape.threads);
    total / clients * owned_below(worker, threads, clients)
        + owned_below(worker, threads, total % clients)
}

/// `waiting` entry of a client that is not waiting on the arrival order:
/// its next op is in the heap or in the batch being executed, or it has
/// none.
const NOWHERE: usize = usize::MAX;

/// A worker's pending events, one per active client, popped in `(deadline,
/// client)` order — see the [module docs](self) for why the two sources
/// together pop in exactly the order one heap of all of them would.
struct ReadyQueue<'a> {
    /// Arrival offsets of the whole stream, non-decreasing.
    arrivals: &'a [f64],
    exec_start: f64,
    worker: usize,
    /// Stride between this worker's clients.
    threads: usize,
    /// Stride between a client's ops, and between rounds of the cursor.
    clients: usize,
    /// Per slot: the stream index the client waits at, idle and on time,
    /// or [`NOWHERE`]; and how many do.
    waiting: Vec<usize>,
    waiters: usize,
    /// The arrival cursor: the next of this worker's stream indices to
    /// look at, its client's slot, and the first index of its round.
    cursor: usize,
    cursor_slot: usize,
    round: usize,
    /// The clients that cannot be served from the arrival order.
    heap: BinaryHeap<Event>,
    /// Events ever pushed onto `heap`.
    pushed: usize,
}

impl<'a> ReadyQueue<'a> {
    /// The queue of `worker` (which owns at least one client: `threads ≤
    /// clients`), every client of its that has an op at all pending on its
    /// first.
    fn new(worker: usize, shape: EngineShape, arrivals: &'a [f64], exec_start: f64) -> Self {
        let (clients, threads) = (shape.lanes, shape.threads);
        let mut queue = ReadyQueue {
            arrivals,
            exec_start,
            worker,
            threads,
            clients,
            waiting: vec![NOWHERE; owned_below(worker, threads, clients)],
            waiters: 0,
            cursor: worker,
            cursor_slot: 0,
            round: 0,
            heap: BinaryHeap::new(),
            pushed: 0,
        };
        for slot in 0..owned_below(worker, threads, clients.min(arrivals.len())) {
            queue.admit(slot, worker + slot * threads, exec_start);
        }
        queue
    }

    #[inline]
    fn intended(&self, i: usize) -> f64 {
        self.exec_start + self.arrivals[i]
    }

    /// Files the op at stream index `next` of the idle client in `slot`,
    /// whose clock reads `clock`: on the arrival order if the cursor will
    /// still come by, the client is on time and nothing else is due at the
    /// same instant; otherwise on the heap.
    #[inline]
    fn admit(&mut self, slot: usize, next: usize, clock: f64) {
        let due = self.intended(next);
        let untied = (next == 0 || self.intended(next - 1) < due)
            && (next + 1 == self.arrivals.len() || due < self.intended(next + 1));
        if next >= self.cursor && clock <= due && untied {
            self.waiting[slot] = next;
            self.waiters += 1;
        } else {
            self.pushed += 1;
            self.heap.push(Event {
                deadline: due.max(clock),
                slot,
                next,
            });
        }
    }

    /// Removes and returns the pending event that is due first.
    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if self.waiters == 0 {
            // The cursor stays where it is: the clients being served may
            // yet be on time for what lies ahead of it.
            return self.heap.pop();
        }
        // An index nobody waits at is passed for good: its client gets to
        // it through the heap.
        while self.waiting[self.cursor_slot] != self.cursor {
            self.advance();
            debug_assert!(self.cursor < self.arrivals.len(), "waiters lie ahead");
        }
        let on_time = Event {
            deadline: self.intended(self.cursor),
            slot: self.cursor_slot,
            next: self.cursor,
        };
        if self.heap.peek().is_some_and(|late| *late > on_time) {
            return self.heap.pop();
        }
        self.waiting[on_time.slot] = NOWHERE;
        self.waiters -= 1;
        self.advance();
        Some(on_time)
    }

    /// Moves the cursor to this worker's next stream index.
    #[inline]
    fn advance(&mut self) {
        self.cursor += self.threads;
        self.cursor_slot += 1;
        if self.cursor_slot == self.waiting.len() {
            self.round += self.clients;
            self.cursor = self.round + self.worker;
            self.cursor_slot = 0;
        }
    }
}

/// The open-loop op source: the scenario stream, capped, with the
/// announcement rule of one shared SUT (only the globally first op of each
/// phase announces the change, as in shared-lanes mode), and every op's
/// arrival offset in a dense array of its own — the ready queue reads an
/// op's arrival when it *schedules* the op, long before it executes it,
/// and next to its neighbours'. Refuses a schedule that ever steps back:
/// the arrival cursor relies on stream order being due order.
fn open_loop_stream(
    scenario: &Scenario,
    max_ops: u64,
) -> Result<(Vec<CoreOp<Operation>>, Vec<f64>)> {
    let mut stream: Vec<CoreOp<Operation>> = scenario_ops(scenario, max_ops)?.collect();
    let (mut seen_phase, mut latest) = (0usize, 0.0f64);
    let mut arrivals = Vec::with_capacity(stream.len());
    for op in &mut stream {
        op.meta.announce = op.meta.phase != std::mem::replace(&mut seen_phase, op.meta.phase);
        let arrival = op.meta.arrival.unwrap_or(0.0);
        if arrival < latest || arrival.is_nan() {
            return Err(BenchError::InvalidScenario(format!(
                "arrival schedule steps back at op {}: {arrival} s after {latest} s",
                op.meta.idx
            )));
        }
        latest = arrival;
        arrivals.push(arrival);
    }
    Ok((stream, arrivals))
}

/// The event-heap driver: runs a scenario as `opts.mode.lanes()`
/// simulated open-loop clients multiplexed onto the run's worker threads
/// against one shared SUT. Requires an arrival process
/// ([`Scenario::arrival`]); see the [module docs](self) for the
/// determinism contract.
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
    let (stream, arrivals) = open_loop_stream(scenario, opts.max_ops)?;
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
            let ops = owned_ops(worker, shape, stream.len());
            let sinks = Sinks::new(obs.lane_obs(worker), ClockMode::Sim, ops, true);
            (worker, sinks)
        })
        .collect();
    let mutex = Mutex::new(sut);
    let results = on_workers(workers, |(worker, sinks)| {
        let stream = (stream.as_slice(), arrivals.as_slice());
        let batch_size = tuning.batch_size;
        run_sched_worker(worker, sinks, shape, stream, &mutex, params, batch_size)
            .map(|(result, _)| result)
    })?;
    let final_metrics = lock(&mutex)?.metrics();
    finish_engine(started, results, final_metrics, shape, obs)
}

/// One scheduler worker: owns every client with `client % threads ==
/// worker`, serves them in the order of its [`ReadyQueue`], and returns
/// one [`LaneResult`] whose `lane` is the worker index, with the number of
/// events that went through the heap.
fn run_sched_worker<S>(
    worker: usize,
    mut sinks: Sinks,
    shape: EngineShape,
    (stream, arrivals): (&[CoreOp<Operation>], &[f64]),
    mutex: &Mutex<&mut S>,
    params: &LaneParams,
    batch_size: usize,
) -> Result<(LaneResult, usize)>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
{
    // Client `c` owns global indices c, c + clients, c + 2·clients, …
    // Local slot for client `c` on this worker: (c - worker) / threads.
    let mut ready = ReadyQueue::new(worker, shape, arrivals, params.exec_start);
    let mut states = vec![ClientState::new(params.exec_start); ready.waiting.len()];
    let mut final_clock = params.exec_start;

    let mut events: Vec<Event> = Vec::with_capacity(batch_size);
    let mut dispatch = Batch::default();
    loop {
        events.clear();
        events.extend(std::iter::from_fn(|| ready.pop()).take(batch_size));
        if events.is_empty() {
            break;
        }
        {
            // One lock per batch, not per op: the scheduler's throughput
            // lever.
            let mut guard = lock(mutex)?;
            let mut due = events
                .iter()
                .map(|event| (event.slot, stream[event.next]))
                .peekable();
            while let Some(first) = due.next() {
                let (sut, rest) = (&mut **guard, &mut due);
                step(
                    &mut states,
                    &mut sinks,
                    &mut dispatch,
                    sut,
                    first,
                    rest,
                    params,
                )?;
            }
        }
        // Only now do the clients just served become pending again: a
        // batch is the events that were due first when it was gathered.
        for event in &events {
            let state = &mut states[event.slot];
            let next = event.next + shape.lanes;
            if next < stream.len() {
                ready.admit(event.slot, next, state.clock);
            } else {
                // The client's last op: pay any remaining adaptation
                // backlog (conservation of adaptation work).
                final_clock = final_clock.max(state.finish());
            }
        }
    }

    let result = LaneResult {
        lane: worker,
        sinks,
        final_clock,
    };
    Ok((result, ready.pushed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::LaneObs;
    use crate::runner::{EngineStats, ExecutionMode, RunOutcome, Runner};
    use crate::scenario::ArrivalSpec;
    use crate::sut_registry::SutRegistry;
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
        let mut big_sut = BTreeSut::build(&data).unwrap();
        let big = run(&mut big_sut, &s, open_loop(64, 4));
        for batch_size in [1, 7] {
            let mut small_sut = BTreeSut::build(&data).unwrap();
            let tiny = Tuning {
                batch_size,
                ..Tuning::default()
            };
            let obs = &mut RunObserver::disabled();
            let (small, _, _) = run_heap(&mut small_sut, &s, &open_loop(64, 4), tiny, obs).unwrap();
            assert_eq!(small.ops, big.record.ops, "batch_size={batch_size}");
            assert_eq!(small.exec_end, big.record.exec_end);
        }
    }

    fn shape(clients: usize, threads: usize) -> EngineShape {
        EngineShape {
            lanes: clients,
            threads,
            interval: Tuning::default().completion_interval,
            stable_lanes: false,
        }
    }

    /// Events pushed onto the heap, and ops served, by the one worker of a
    /// `clients`-client run of `s` against `sut`.
    fn heap_pushes(s: &Scenario, sut: &str, clients: usize) -> (usize, usize) {
        let data = s.dataset.build().unwrap();
        let mut sut = SutRegistry::default().build(sut, &data).unwrap();
        let (stream, arrivals) = open_loop_stream(s, u64::MAX).unwrap();
        let plan = RunPlan::from_scenario(s).unwrap();
        let started = prologue(plan, [sut.as_mut()], &mut RunObserver::disabled());
        let shape = shape(clients, 1);
        let sinks = Sinks::new(LaneObs::inert(), ClockMode::Sim, stream.len(), true);
        let mutex = Mutex::new(sut.as_mut());
        let (stream, params) = ((&stream[..], &arrivals[..]), &started.plan.params);
        let (result, pushed) =
            run_sched_worker(0, sinks, shape, stream, &mutex, params, 1024).unwrap();
        assert_eq!(result.sinks.ops.len(), arrivals.len());
        (pushed, arrivals.len())
    }

    #[test]
    fn the_heap_holds_only_clients_that_are_behind() {
        // Every client's ops lie half a second apart: nobody is ever late,
        // whether the population is smaller or larger than a batch.
        for clients in [500, 3_000] {
            let (pushed, _) =
                heap_pushes(&open_loop_scenario(2.0 * clients as f64), "btree", clients);
            assert_eq!(pushed, 0, "under-loaded, {clients} clients");
        }
        // Everyone is late after a first op: the plain heap, and no more.
        let (pushed, ops) = heap_pushes(&open_loop_scenario(1e9), "btree", 64);
        assert!(
            pushed > ops / 2 && pushed <= ops,
            "{pushed} pushes for {ops} ops"
        );
        // Gaps far below an ulp of a trained SUT's `exec_start`: every
        // intended start is the same instant, which only the heap orders.
        let (pushed, ops) = heap_pushes(&open_loop_scenario(1e30), "rmi", 64);
        assert_eq!(pushed, ops, "all ties");
    }

    /// What [`ReadyQueue`] replaces and must pop like: every pending event
    /// in one heap.
    struct OneHeap<'a>(BinaryHeap<Event>, &'a [f64], f64);

    trait Pending {
        fn admit(&mut self, slot: usize, next: usize, clock: f64);
        fn pop(&mut self) -> Option<Event>;
    }

    impl Pending for OneHeap<'_> {
        fn admit(&mut self, slot: usize, next: usize, clock: f64) {
            let deadline = (self.2 + self.1[next]).max(clock);
            self.0.push(Event {
                deadline,
                slot,
                next,
            });
        }
        fn pop(&mut self) -> Option<Event> {
            self.0.pop()
        }
    }

    impl Pending for ReadyQueue<'_> {
        fn admit(&mut self, slot: usize, next: usize, clock: f64) {
            ReadyQueue::admit(self, slot, next, clock)
        }
        fn pop(&mut self) -> Option<Event> {
            ReadyQueue::pop(self)
        }
    }

    /// The worker loop without a SUT: op `i` takes `service(i)`. Returns
    /// the stream indices in the order served, a `usize::MAX` closing
    /// every batch.
    fn served(
        queue: &mut dyn Pending,
        (arrivals, exec_start): (&[f64], f64),
        (clients, owned, batch): (usize, usize, usize),
        service: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        let mut clocks = vec![exec_start; owned];
        let mut order = Vec::new();
        loop {
            let events: Vec<Event> = std::iter::from_fn(|| queue.pop()).take(batch).collect();
            if events.is_empty() {
                return order;
            }
            for e in &events {
                let due = exec_start + arrivals[e.next];
                assert_eq!(e.deadline.to_bits(), due.max(clocks[e.slot]).to_bits());
                clocks[e.slot] = due.max(clocks[e.slot]) + service(e.next);
                order.push(e.next);
            }
            order.push(usize::MAX);
            for e in events.iter().filter(|e| e.next + clients < arrivals.len()) {
                queue.admit(e.slot, e.next + clients, clocks[e.slot]);
            }
        }
    }

    #[test]
    fn ready_queue_pops_exactly_like_one_heap() {
        // xorshift: schedules with exact ties, gaps that collapse under a
        // large `exec_start`, and ops that take no time at all (a client
        // can be on time for an op that ties with another's).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..2000 {
            let total = [0, 1, 40, 150][case % 4];
            let clients = [1, 2, 3, 5, 16, 200][rand(6) as usize];
            let threads = (1 + rand(3) as usize).min(clients);
            let batch = [1, 3, 7, 1024][rand(4) as usize];
            let exec_start = [0.0, 1e6][rand(2) as usize];
            let gaps = [0.0, 1e-12, 0.4, 1.0, 6.0];
            let mean_gap = 1 + rand(5);
            let mut now = 0.0;
            let arrivals: Vec<f64> = (0..total)
                .map(|_| {
                    now += gaps[rand(mean_gap) as usize];
                    now
                })
                .collect();
            // Mostly short ops and now and then a stall, so that clients
            // fall behind and catch up again.
            let services: Vec<f64> = (0..total)
                .map(|_| [0.0, 0.0, 0.3, 0.3, 0.3, 2.5, 2.5, 9.0][rand(8) as usize])
                .collect();
            let shape = shape(clients, threads);
            for worker in 0..threads {
                let owned = owned_below(worker, threads, clients);
                let mut one = OneHeap(BinaryHeap::new(), &arrivals, exec_start);
                for slot in 0..owned_below(worker, threads, clients.min(total)) {
                    one.admit(slot, worker + slot * threads, exec_start);
                }
                let mut ready = ReadyQueue::new(worker, shape, &arrivals, exec_start);
                let run = |queue: &mut dyn Pending| {
                    let geometry = (clients, owned, batch);
                    served(queue, (&arrivals, exec_start), geometry, |i| services[i])
                };
                assert_eq!(
                    run(&mut ready),
                    run(&mut one),
                    "case {case}: {clients} clients, worker {worker}/{threads}, batch {batch}, \
                     exec_start {exec_start}, arrivals {arrivals:?}"
                );
                assert!(ready.pushed <= owned_ops(worker, shape, total));
            }
        }
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
