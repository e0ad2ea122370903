//! The execution core: the one place the benchmark's timing rule lives.
//!
//! Every run — serial, hold-out, trace replay, the query workload, shared
//! or sharded lanes, the open-loop scheduler — is the same four pieces,
//! each written once:
//!
//! 1. an **op source**: any iterator of [`CoreOp`]s (the scenario stream,
//!    trace entries, per-phase query batches). The core is generic over
//!    `Op`, as [`SystemUnderTest<Op>`] already is. Every run reads its
//!    source made ahead by one helper thread, so drawing keys costs no
//!    driver's thread anything, as it would with a driver on another
//!    machine: [`made_ahead`] deals the ops to their readers — the one
//!    inline client of the serial policy, a trace replay or the query
//!    workload, each lane, each scheduler worker — as chunks of that
//!    reader's own ops, and every reader hands each buffer back once read;
//! 2. a **prologue** ([`prologue`]: train one or many SUTs → `exec_start`
//!    → train / phase-0 events → [`LaneParams`]) and an **epilogue**
//!    ([`epilogue`]: run-end events → [`RunRecord`] assembly);
//! 3. one [`step`]: prelude for the first op (phase announcement,
//!    maintenance slot, then a due crash-restart), then *one* dispatch —
//!    up to [`DISPATCH_BATCH`] ops through `execute_many`, whether or not
//!    a fault plan is attached, never past an op whose own client changes
//!    phase or is due a maintenance slot, or on which a crash fires — then
//!    per-op arrival wait, backlog-aware service (settled by the plan when
//!    there is one: inflation, error coins, timeout, retries),
//!    coordinated-omission-safe latency and record accounting, each op on
//!    its own client. The ops of a run may all be one client's (a lane,
//!    the serial policy) or each another's (the events a scheduler worker
//!    finds due next);
//! 4. two **drivers** over `step`: [`drive_inline`] (one client run to
//!    completion on the calling thread) and the scheduler worker of
//!    [`crate::engine::sched`] (a population of clients served in due
//!    order).
//!
//! Execution never reads the clock, so batching, lock granularity and
//! thread placement decide only *when the host gets around to* an op —
//! never what the op's record says. The observer lane and the wall
//! recorder are always-present parameters that are inert when off; they
//! watch the loop and never feed it.

use crate::faults::{FaultKind, FaultSession, FaultStats};
use crate::obs::{LaneObs, RunObserver};
use crate::record::{OpRecord, RunRecord, TrainInfo};
use crate::runner::WallStats;
use crate::scenario::{ClockMode, OnlineTrainMode, Scenario};
use crate::{BenchError, Result};
use lsbench_stats::LatencyHistogram;
use lsbench_sut::sut::{ExecOutcome, SutMetrics, SystemUnderTest, TransportStats};
use lsbench_workload::arrival::ArrivalGenerator;
use lsbench_workload::ops::Operation;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Operations per `execute_many` dispatch. Batches never span a client's
/// phase boundary, a client's maintenance slot, a crash or the op cap, so the
/// record is bit-identical for any value; larger batches amortize dispatch
/// cost (one wire frame instead of one per op on a remote SUT, one lock
/// per batch on a shared one).
pub(crate) const DISPATCH_BATCH: usize = 64;

/// Operations per chunk of a stream made ahead: the helper and a reader
/// meet once per chunk, and a chunk (64 KiB of `CoreOp<Operation>`) stays
/// in cache between them. Any value gives the same ops in the same order.
pub(crate) const CHUNK: usize = 1024;

/// The most chunks a bounded queue of a stream [`made_ahead`] holds: with
/// the one its reader reads and the one the helper fills, the buffers that
/// circulate between a reader and the helper.
pub(crate) const CHUNKS: usize = 4;

/// Where an operation sits in its run: everything the timing rule needs
/// besides the operation itself.
///
/// Laid out in declaration order: the default layout packs `phase` and
/// both flags into one word, and with it the serial driver measured about
/// a tenth slower per op (`point_reads`, null SUT).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct OpMeta {
    /// Scheduled phase of the operation (`PhasedWorkload::new` refuses
    /// more phases than a `u16` tells apart).
    pub phase: u16,
    /// True inside a gradual-transition window.
    pub in_transition: bool,
    /// Global stream index (fault coins and the merge tiebreaker).
    pub idx: u64,
    /// Open loop: intended start, in virtual seconds after `exec_start`.
    /// Coordinated-omission safety hinges on latency being measured from
    /// this schedule, not from when the client got around to the op.
    pub arrival: Option<f64>,
    /// Whether this op announces its phase change to the SUT (one shared
    /// SUT: only the globally first op of a phase; otherwise always).
    pub announce: bool,
}

/// One operation handed to the core by an op source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreOp<Op> {
    /// The operation to execute.
    pub op: Op,
    /// Its position in the run.
    pub meta: OpMeta,
}

impl<Op> CoreOp<Op> {
    /// The `idx`-th op of a plain source: it announces its own phase and
    /// sits outside any transition window. Its source has at most
    /// [`MAX_PHASES`](lsbench_workload::phases::MAX_PHASES) phases.
    pub(crate) fn new(op: Op, phase: usize, idx: usize, arrival: Option<f64>) -> Self {
        let meta = OpMeta {
            phase: u16::try_from(phase).expect("a source has at most MAX_PHASES phases"),
            in_transition: false,
            idx: idx as u64,
            arrival,
            announce: true,
        };
        CoreOp { op, meta }
    }
}

fn workload_error(e: lsbench_workload::WorkloadError) -> BenchError {
    BenchError::Workload(e.to_string())
}

/// How many ops a run of `scenario` capped at `max_ops` executes.
pub(crate) fn op_count(scenario: &Scenario, max_ops: u64) -> usize {
    scenario.workload.total_ops().min(max_ops) as usize
}

/// The scenario's seeded arrival process (`None` in closed loop).
pub(crate) fn arrival_process(scenario: &Scenario) -> Result<Option<ArrivalGenerator>> {
    let Some(spec) = &scenario.arrival else {
        return Ok(None);
    };
    let process = ArrivalGenerator::new(spec.process, spec.modulation, spec.seed);
    process.map(Some).map_err(workload_error)
}

/// The scenario stream as a lazily pulled op source, capped at `max_ops`:
/// every op announces its phase, and in open loop carries the seeded
/// arrival process's schedule — raw, as the serial policy and the event
/// heap use it (per-phase `concurrency_burst` factors are a lane-mode
/// refinement, see `engine::scale_bursts`).
pub(crate) fn scenario_ops(
    scenario: &Scenario,
    max_ops: u64,
) -> Result<impl Iterator<Item = CoreOp<Operation>>> {
    let ops = unpaced_ops(scenario, max_ops)?;
    let mut arrivals = arrival_process(scenario)?;
    Ok(ops.map(move |mut op| {
        op.meta.arrival = arrivals.as_mut().map(|g| g.next_arrival());
        op
    }))
}

/// [`scenario_ops`] without the arrival schedule, for a driver that holds
/// the schedule already (the open-loop scheduler).
pub(crate) fn unpaced_ops(
    scenario: &Scenario,
    max_ops: u64,
) -> Result<impl Iterator<Item = CoreOp<Operation>>> {
    let stream = scenario.workload.stream().map_err(workload_error)?;
    let ops = stream.take(op_count(scenario, max_ops)).enumerate();
    Ok(ops.map(|(i, labeled)| {
        let mut op = CoreOp::new(labeled.op, labeled.phase, i, None);
        op.meta.in_transition = labeled.in_transition;
        op
    }))
}

/// A chunk of a stream made ahead, as its reader receives it.
pub(crate) type Chunk<Op> = Vec<CoreOp<Op>>;

/// The helper's end of one reader's queue; an unbounded one never stalls
/// the helper on a reader that waits its turn behind another.
enum Outlet<T> {
    Bounded(SyncSender<T>),
    Unbounded(Sender<T>),
}

impl<T> Outlet<T> {
    /// Hands `chunk` over, waiting while a bounded queue is full; false once
    /// the reader has stopped listening.
    fn hand(&self, chunk: T) -> bool {
        match self {
            Outlet::Bounded(queue) => queue.send(chunk).is_ok(),
            Outlet::Unbounded(queue) => queue.send(chunk).is_ok(),
        }
    }
}

/// A reader's end of a stream [`made_ahead`]: the chunks of its own ops, in
/// order, and the way back for every buffer it has read.
pub(crate) struct Dealt<Op> {
    chunks: Receiver<Chunk<Op>>,
    spent: SyncSender<Chunk<Op>>,
}

impl<Op> Dealt<Op> {
    /// The next chunk, or `None` once the stream has ended.
    pub(crate) fn recv(&self) -> Option<Chunk<Op>> {
        self.chunks.recv().ok()
    }

    /// Hands a chunk's buffer back to the helper without waiting; one it has
    /// no room or use for is freed.
    pub(crate) fn hand_back(&self, chunk: Chunk<Op>) {
        let _ = self.spent.try_send(chunk);
    }
}

/// Runs `consume` on the calling thread over one [`Dealt`] queue per reader
/// while one scoped helper thread deals `source`'s `(reader, op)` pairs into
/// chunks of up to [`CHUNK`] ops per reader, in `source`'s order. Reader
/// `i`'s queue holds at most [`CHUNKS`] chunks if `bounded(i)`, any number
/// otherwise. Readers hand every buffer back through one return channel,
/// with room for all a bounded reader keeps in circulation, and the helper
/// fills a returned buffer before it allocates one. When `consume` returns
/// or unwinds, the queues it holds, or its threads held, are dropped, so a
/// helper waiting on a full queue wakes to a failed send, stops once nobody
/// listens, and the scope joins it.
pub(crate) fn made_ahead<Op, I, R>(
    source: I,
    readers: usize,
    bounded: impl Fn(usize) -> bool,
    consume: impl FnOnce(Vec<Dealt<Op>>) -> R,
) -> R
where
    Op: Send,
    I: Iterator<Item = (usize, CoreOp<Op>)> + Send,
{
    let (spent, returned) = sync_channel::<Chunk<Op>>(readers * (CHUNKS + 2));
    let (mut outlets, queues): (Vec<_>, Vec<_>) = (0..readers)
        .map(|reader| {
            let (outlet, chunks) = if bounded(reader) {
                let (queue, chunks) = sync_channel(CHUNKS);
                (Outlet::Bounded(queue), chunks)
            } else {
                let (queue, chunks) = channel();
                (Outlet::Unbounded(queue), chunks)
            };
            let spent = spent.clone();
            (Some(outlet), Dealt { chunks, spent })
        })
        .unzip();
    drop(spent);
    let deal = move || {
        // Hands `chunk` to `reader`, forgetting a reader that has stopped
        // listening, and says whether any reader still listens.
        let mut hand = |reader: usize, chunk| {
            let outlet = &mut outlets[reader];
            if outlet.as_ref().is_some_and(|outlet| !outlet.hand(chunk)) {
                *outlet = None;
            }
            outlets.iter().any(Option::is_some)
        };
        let mut filling: Vec<Chunk<Op>> = (0..readers).map(|_| Vec::new()).collect();
        for (reader, op) in source {
            let chunk = &mut filling[reader];
            if chunk.capacity() == 0 {
                *chunk = returned
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(CHUNK));
                chunk.clear();
            }
            chunk.push(op);
            if chunk.len() == CHUNK && !hand(reader, std::mem::take(chunk)) {
                return;
            }
        }
        for (reader, chunk) in filling.into_iter().enumerate() {
            if !chunk.is_empty() {
                hand(reader, chunk);
            }
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(deal);
        consume(queues)
    })
}

/// Run constants every client shares. Per-op arithmetic reads them as
/// plain numbers: the training mode arrives resolved into `train_share`, so
/// no op computes on an enum payload its variant may not have.
#[derive(Debug)]
pub(crate) struct LaneParams {
    /// Work units per virtual second.
    pub rate: f64,
    /// Offer a maintenance slot every this many client-local operations.
    pub maintenance_every: u64,
    /// Share of the resources online training takes while backlog remains:
    /// `0.0` for foreground training, the validated `fraction` in (0, 1)
    /// for background training ([`train_share`]).
    pub train_share: f64,
    /// Virtual time execution starts (0 until the prologue has paid for
    /// training).
    pub exec_start: f64,
    /// The compiled fault plan, if any: where crashes fire and what each
    /// outcome settles to. Shared by reference across workers: every
    /// decision is a pure function of the plan seed and `OpMeta::idx`.
    pub faults: Option<FaultSession>,
}

/// What a run is called and how it is paced: the scenario-shaped inputs of
/// the core, however they were obtained (a [`Scenario`], or the [`Pacing`]
/// of a trace replay or a query workload).
#[derive(Debug)]
pub(crate) struct RunPlan {
    /// `RunRecord::scenario_name`.
    pub scenario_name: String,
    /// `RunRecord::phase_names`.
    pub phase_names: Vec<String>,
    /// Offline training budget.
    pub train_budget: u64,
    /// Expected op count, to size the record buffer once.
    pub ops_hint: usize,
    /// What every client of the run shares.
    pub params: LaneParams,
}

impl RunPlan {
    /// The plan of a (validated) scenario.
    pub(crate) fn from_scenario(scenario: &Scenario) -> Result<Self> {
        scenario.validate()?;
        let phases = scenario.workload.phases();
        Ok(RunPlan {
            scenario_name: scenario.name.clone(),
            phase_names: phases.iter().map(|p| p.name.clone()).collect(),
            train_budget: scenario.train_budget,
            ops_hint: scenario.workload.total_ops().min(1 << 22) as usize,
            params: LaneParams {
                rate: scenario.work_units_per_second,
                maintenance_every: scenario.maintenance_every,
                train_share: train_share(scenario.online_train),
                exec_start: 0.0,
                faults: FaultSession::from_scenario(scenario),
            },
        })
    }

    /// A scenario-less plan (trace replay, query workload): no fault plan,
    /// foreground adaptation, only the work rate to validate.
    pub(crate) fn bare(
        scenario_name: &str,
        phase_names: Vec<String>,
        pacing: Pacing,
        ops_hint: usize,
    ) -> Result<Self> {
        if pacing.work_units_per_second <= 0.0 {
            return Err(BenchError::InvalidScenario(
                "work_units_per_second must be positive".to_string(),
            ));
        }
        Ok(RunPlan {
            scenario_name: scenario_name.to_string(),
            phase_names,
            train_budget: pacing.train_budget,
            ops_hint,
            params: LaneParams {
                rate: pacing.work_units_per_second,
                maintenance_every: pacing.maintenance_every,
                train_share: 0.0,
                exec_start: 0.0,
                faults: None,
            },
        })
    }
}

/// How a scenario-less run is paced: what a [`Scenario`] would have said.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pacing {
    /// Virtual work units per second.
    pub work_units_per_second: f64,
    /// Offer a maintenance slot every this many operations.
    pub maintenance_every: u64,
    /// Offline training budget passed to the SUT before the run.
    pub train_budget: u64,
}

/// A run after its prologue: the plan (training paid, `exec_start` set),
/// the SUT's name and the training result.
#[derive(Debug)]
pub(crate) struct Started {
    /// The plan, with `params.exec_start` now final.
    pub plan: RunPlan,
    sut_name: String,
    train: TrainInfo,
}

/// Trains the SUT(s) and opens the run. Shard SUTs train in parallel:
/// total training work is the sum, but execution starts once the *slowest*
/// finishes (for one SUT, sum = slowest). Training is a first-class result
/// (Lesson 3), reported in [`TrainInfo`].
pub(crate) fn prologue<'s, Op, S>(
    mut plan: RunPlan,
    suts: impl IntoIterator<Item = &'s mut S>,
    obs: &mut RunObserver,
) -> Started
where
    S: SystemUnderTest<Op> + ?Sized + 's,
{
    obs.train_start(0.0, plan.train_budget);
    let (mut work, mut slowest, mut sut_name) = (0u64, 0u64, String::new());
    for (i, sut) in suts.into_iter().enumerate() {
        if i == 0 {
            sut_name = sut.name();
        }
        let spent = sut.train(plan.train_budget);
        work += spent;
        slowest = slowest.max(spent);
    }
    let seconds = slowest as f64 / plan.params.rate;
    plan.params.exec_start = seconds;
    obs.train_end(seconds, work);
    // Phase-0 anchor, mirroring `phase_change_times[0]`.
    obs.root.phase_change(seconds, 0);
    let train = TrainInfo { work, seconds };
    Started {
        plan,
        sut_name,
        train,
    }
}

/// The merged (or, for one inline client, direct) results of a run.
#[derive(Debug)]
pub(crate) struct Merged {
    /// Op records in completion order.
    pub ops: Vec<OpRecord>,
    /// `(phase, first-seen time)`, phase 0 anchored at `exec_start`.
    pub phase_change_times: Vec<(usize, f64)>,
    /// Last client clock after its backlog payment.
    pub exec_end: f64,
    /// Summed fault ledger.
    pub faults: FaultStats,
}

impl Merged {
    /// The results of one inline client: nothing to merge, its sinks hold
    /// the run's record.
    pub(crate) fn inline(sinks: &mut Sinks, exec_start: f64, exec_end: f64) -> Self {
        let mut phase_change_times = vec![(0usize, exec_start)];
        phase_change_times.append(&mut sinks.phase_first);
        Merged {
            ops: std::mem::take(&mut sinks.ops),
            phase_change_times,
            exec_end,
            faults: sinks.faults,
        }
    }
}

/// Closes the run: coordinator-side events stamped at the merged
/// `exec_end` (`engine` = `(lanes, threads)` when lanes were merged), then
/// the [`RunRecord`].
pub(crate) fn epilogue(
    started: Started,
    merged: Merged,
    final_metrics: SutMetrics,
    engine: Option<(usize, usize)>,
    obs: &mut RunObserver,
) -> RunRecord {
    if let Some((lanes, threads)) = engine {
        obs.shard_merge(merged.exec_end, lanes, threads);
    }
    obs.run_end(merged.exec_end, merged.ops.len() as u64);
    RunRecord {
        sut_name: started.sut_name,
        scenario_name: started.plan.scenario_name,
        phase_names: started.plan.phase_names,
        ops: merged.ops,
        phase_change_times: merged.phase_change_times,
        train: started.train,
        exec_start: started.plan.params.exec_start,
        exec_end: merged.exec_end,
        final_metrics,
        work_units_per_second: started.plan.params.rate,
        faults: merged.faults,
    }
}

/// One simulated client's virtual execution state: four scalars, so the
/// open-loop scheduler can hold millions of them. A lane (and the serial
/// policy) is a client that owns a whole op stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientState {
    /// The client's virtual clock (starts at `exec_start`).
    pub clock: f64,
    /// Outstanding adaptation work, in virtual seconds. Retraining slows
    /// the queries issued behind it (§V-D.2); see [`service_with_backlog`].
    pub backlog: f64,
    /// Client-local operations since the last maintenance slot.
    pub since_maintenance: u64,
    /// Last phase this client saw (phase changes fire on transition).
    pub current_phase: u16,
}

impl ClientState {
    pub(crate) fn new(exec_start: f64) -> Self {
        ClientState {
            clock: exec_start,
            backlog: 0.0,
            since_maintenance: 0,
            current_phase: 0,
        }
    }

    /// Open loop: idles until the op's intended start if the client is
    /// ahead of schedule; if it is behind, the op has been queueing and its
    /// wait surfaces in the latency, measured from the *intended* start
    /// (returned; `None` in closed loop).
    #[inline]
    pub(crate) fn arrive(&mut self, meta: &OpMeta, p: &LaneParams) -> Option<f64> {
        let intended = meta.arrival.map(|offset| p.exec_start + offset);
        if let Some(t) = intended {
            self.clock = self.clock.max(t);
        }
        intended
    }

    /// Service time of `work` units issued now, absorbing pending backlog.
    #[inline]
    pub(crate) fn serve(&mut self, work: u64, p: &LaneParams) -> f64 {
        service_with_backlog(work as f64 / p.rate, &mut self.backlog, p.train_share)
    }

    /// Pays any remaining adaptation backlog (conservation of adaptation
    /// work) and returns the final clock.
    pub(crate) fn finish(&mut self) -> f64 {
        self.clock += self.backlog;
        self.clock
    }
}

/// Accumulates host wall-clock timings beside the virtual clock when a run
/// executes with `clock = wall`.
///
/// Latencies are captured coordinated-omission-safely: every operation in
/// a dispatch batch is charged the batch's *full* wall duration, so a
/// stall that delayed ten queued operations inflates all ten samples
/// instead of being averaged into one.
#[derive(Debug)]
pub(crate) struct WallRecorder {
    started: Instant,
    latency: LatencyHistogram,
}

impl WallRecorder {
    /// A recorder for `clock` (`None` — fully inert — in sim mode). Capture
    /// starts after training, so `elapsed_seconds` covers the window
    /// `exec_start..exec_end` covers virtually.
    fn for_clock(clock: ClockMode) -> Option<Self> {
        (clock == ClockMode::Wall).then(|| WallRecorder {
            started: Instant::now(),
            latency: LatencyHistogram::new(),
        })
    }

    fn batch(&mut self, elapsed: std::time::Duration, ops: usize) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.latency.record_n(ns, ops as u64);
    }

    fn finish(self) -> WallStats {
        let elapsed = self.started.elapsed().as_secs_f64();
        WallStats::new(elapsed, self.latency.total(), self.latency)
    }
}

/// Result sinks of one driver: a lane's, a scheduler worker's, or the
/// serial policy's. All of them merge order-insensitively, so sinks are
/// per-*driver* while clocks are per-*client*.
#[derive(Debug)]
pub(crate) struct Sinks {
    /// Completed operations, in this driver's completion order.
    pub ops: Vec<OpRecord>,
    /// Virtual time a client first saw each phase (phase 0 excluded).
    pub phase_first: Vec<(usize, f64)>,
    /// Observability state (events, counters); inert when off.
    pub obs: LaneObs,
    /// Fault-injection accounting.
    pub faults: FaultStats,
    /// Host wall-clock capture; `None` when off.
    wall: Option<WallRecorder>,
    /// Each op's global stream index, kept only by scheduler workers: their
    /// records merge on (`t_end`, global index). A lane's records need no
    /// key, since they are in stream order already, and the serial policy
    /// merges nothing.
    pub idx: Option<Vec<u64>>,
}

impl Sinks {
    /// Sinks for one driver. `keep_idx` = a scheduler worker's, which keeps
    /// each op's global index for the merge; a lane's and the inline
    /// client's do not.
    pub(crate) fn new(obs: LaneObs, clock: ClockMode, ops_hint: usize, keep_idx: bool) -> Self {
        Sinks {
            ops: Vec::with_capacity(ops_hint),
            phase_first: Vec::new(),
            obs,
            faults: FaultStats::default(),
            wall: WallRecorder::for_clock(clock),
            idx: keep_idx.then(|| Vec::with_capacity(ops_hint)),
        }
    }

    /// Records one completed operation.
    #[inline]
    pub(crate) fn complete(&mut self, t_end: f64, latency: f64, ok: bool, meta: &OpMeta) {
        if let Some(idx) = &mut self.idx {
            idx.push(meta.idx);
        }
        self.ops.push(OpRecord {
            t_end,
            latency,
            phase: meta.phase,
            ok,
            in_transition: meta.in_transition,
        });
    }
}

/// Reusable dispatch buffers of one driver: the ops of a run, contiguous
/// for `execute_many`, and for each its client's slot and its position.
pub(crate) type Batch<Op> = (Vec<Op>, Vec<(usize, OpMeta)>);

/// The per-op prelude: on a phase transition, note when this client first
/// saw the phase and (if the op announces) let the SUT adapt; then offer
/// the periodic maintenance slot. Both kinds of adaptation work land in
/// the client's backlog — which is exactly how adaptation cost becomes
/// visible in the Fig. 1b/1c curves.
pub(crate) fn prelude<Op, T: SystemUnderTest<Op> + ?Sized>(
    client: &mut ClientState,
    sinks: &mut Sinks,
    sut: &mut T,
    meta: &OpMeta,
    p: &LaneParams,
) {
    if meta.phase != client.current_phase {
        client.current_phase = meta.phase;
        let phase = usize::from(meta.phase);
        sinks.phase_first.push((phase, client.clock));
        sinks.obs.phase_change(client.clock, phase);
        if meta.announce {
            let adapt_work = sut.on_phase_change(phase);
            client.backlog += adapt_work as f64 / p.rate;
            sinks.obs.retrain_burst(client.clock, phase, adapt_work);
            sinks.obs.backlog(client.clock, client.backlog);
        }
    }
    client.since_maintenance += 1;
    if client.since_maintenance >= p.maintenance_every {
        client.since_maintenance = 0;
        let maint_work = sut.maintenance();
        client.backlog += maint_work as f64 / p.rate;
        sinks.obs.maintenance(client.clock, maint_work);
        sinks.obs.backlog(client.clock, client.backlog);
    }
}

/// An iterator with one item of look-ahead: [`std::iter::Peekable`]'s
/// `next` and `next_if`, line for line, marked `#[inline]`. The standard
/// library's `next_if` is not, so its instance sits in one codegen unit of
/// the crate, and where the partitioning of unrelated code puts it out of
/// reach of [`step`]'s, `step` calls it once per op instead of inlining it.
pub(crate) struct Lookahead<I: Iterator> {
    iter: I,
    /// `Some(None)` once the iterator has been seen to end.
    peeked: Option<Option<I::Item>>,
}

impl<I: Iterator> Lookahead<I> {
    #[inline]
    pub(crate) fn new(iter: I) -> Self {
        Lookahead { iter, peeked: None }
    }

    /// The next item if `func` accepts it; otherwise it stays next.
    #[inline]
    fn next_if(&mut self, func: impl FnOnce(&I::Item) -> bool) -> Option<I::Item> {
        match self.next() {
            Some(matched) if func(&matched) => Some(matched),
            other => {
                self.peeked = Some(other);
                None
            }
        }
    }
}

impl<I: Iterator> Iterator for Lookahead<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        match self.peeked.take() {
            Some(v) => v,
            None => self.iter.next(),
        }
    }
}

/// Executes the next run of ops: the prelude for `first`, successors
/// gathered from `rest` while they need none, one dispatch, then per-op
/// accounting — see the [module docs](self). Every op comes with the slot
/// of its client in `clients`: the inline driver has one client and slot
/// 0, a scheduler worker its whole population and whichever clients are
/// due next. Always inlined, so that the serial policy's loop, which shares
/// its driver with the lanes, still sees its one client at slot 0.
#[inline(always)]
pub(crate) fn step<Op, T, I>(
    clients: &mut [ClientState],
    sinks: &mut Sinks,
    batch: &mut Batch<Op>,
    sut: &mut T,
    (slot, first): (usize, CoreOp<Op>),
    rest: &mut Lookahead<I>,
    p: &LaneParams,
) -> Result<()>
where
    T: SystemUnderTest<Op> + ?Sized,
    I: Iterator<Item = (usize, CoreOp<Op>)>,
{
    prelude(&mut clients[slot], sinks, sut, &first.meta, p);
    // A crash-restart drops the SUT's learned state immediately before the
    // op it hits; queries stall behind the recovery like a retrain burst.
    let crashes_at = |idx| p.faults.as_ref().is_some_and(|f| f.crashes_at(idx));
    if crashes_at(first.meta.idx) {
        clients[slot].backlog += sut.crash() as f64 / p.rate;
    }
    let now = clients[slot].clock;
    let (ops, owners) = batch;
    ops.clear();
    owners.clear();
    ops.push(first.op);
    owners.push((slot, first.meta));
    // A successor that stays in its client's phase, would not hit its
    // client's maintenance slot and is not hit by a crash needs no prelude
    // call: nothing would reach the SUT or the observer between the two
    // ops, so batching never reorders what either sees.
    while ops.len() < DISPATCH_BATCH {
        let needs_no_prelude = |(slot, next): &(usize, CoreOp<Op>)| {
            let client = &clients[*slot];
            next.meta.phase == client.current_phase
                && client.since_maintenance + 1 < p.maintenance_every
                && !crashes_at(next.meta.idx)
        };
        let Some((slot, next)) = rest.next_if(needs_no_prelude) else {
            break;
        };
        clients[slot].since_maintenance += 1;
        ops.push(next.op);
        owners.push((slot, next.meta));
    }
    let watch = Watch::begin(sinks, sut);
    // A one-op run goes through `execute`: same outcome by the trait's
    // contract, without `execute_many`'s result vector.
    if let [op] = ops.as_slice() {
        let outcome = sut.execute(op);
        watch.end(sinks, sut, 1, now);
        account(&mut clients[slot], sinks, &owners[0].1, outcome, p)
    } else {
        let outcomes = sut.execute_many(ops);
        watch.end(sinks, sut, ops.len(), now);
        let mut each = owners.iter().zip(outcomes);
        each.try_for_each(|((slot, meta), outcome)| {
            account(&mut clients[*slot], sinks, meta, outcome, p)
        })
    }
}

/// Per-op accounting of an outcome: arrival wait, backlog-aware service,
/// latency, record — and, under a fault plan, what the plan made of the
/// outcome: the fault ledger and events.
#[inline]
fn account(
    client: &mut ClientState,
    sinks: &mut Sinks,
    meta: &OpMeta,
    outcome: lsbench_sut::Result<ExecOutcome>,
    p: &LaneParams,
) -> Result<()> {
    let outcome = outcome.map_err(|e| BenchError::Sut(e.to_string()))?;
    let intended = client.arrive(meta, p);
    let Some(session) = &p.faults else {
        let service = client.serve(outcome.work, p);
        client.clock += service;
        // Closed loop: latency = service. Open loop: queueing included.
        let latency = intended.map_or(service, |t| client.clock - t);
        sinks.complete(client.clock, latency, outcome.ok, meta);
        return Ok(());
    };
    let settled = session.settle(
        outcome,
        usize::from(meta.phase),
        meta.idx,
        p.rate,
        p.train_share,
        &mut client.backlog,
    );
    // The server stays busy for the full service time of every attempt,
    // but the client observes timed-out attempts only up to the timeout.
    client.clock += settled.service;
    let latency = match intended {
        Some(t) => client.clock - t - (settled.service - settled.observed),
        None => settled.observed,
    };
    let crashed = session.crashes_at(meta.idx) as u32;
    for (kind, times) in [
        (FaultKind::Crash, crashed),
        (FaultKind::Latency, settled.spikes),
        (FaultKind::Stall, settled.stalled),
        (FaultKind::Error, settled.errors),
    ] {
        for _ in 0..times {
            sinks.obs.fault_injected(client.clock, kind);
        }
        sinks.faults.injected += times as u64;
    }
    for attempt in 0..settled.retries {
        sinks.obs.query_retried(client.clock, attempt + 1);
    }
    for _ in 0..settled.timeouts {
        sinks.obs.query_timed_out(client.clock, latency);
    }
    sinks.faults.retries += settled.retries as u64;
    sinks.faults.timeouts += settled.timeouts as u64;
    sinks.faults.crashes += crashed as u64;
    sinks.complete(client.clock, latency, settled.ok, meta);
    Ok(())
}

/// What the always-present observers take from one dispatch: its host wall
/// time (when the wall recorder is on), and the transport-level failures
/// a remote SUT accumulated during it.
struct Watch {
    before: TransportStats,
    dispatched: Option<Instant>,
}

impl Watch {
    fn begin<Op, T: SystemUnderTest<Op> + ?Sized>(sinks: &Sinks, sut: &T) -> Self {
        Watch {
            before: sut.transport_stats(),
            dispatched: sinks.wall.as_ref().map(|_| Instant::now()),
        }
    }

    /// Closes a dispatch of `ops` operations at virtual time `now`. The
    /// [`TransportStats`] delta (socket-deadline expiries and
    /// reconnect-resends) goes into the **same** [`FaultStats`] fields and
    /// event kinds an injected timeout produces, so real network failures
    /// and chaos-injected ones share one ledger (pinned by
    /// `tests/remote_conformance.rs`).
    fn end<Op, T: SystemUnderTest<Op> + ?Sized>(
        self,
        sinks: &mut Sinks,
        sut: &T,
        ops: usize,
        now: f64,
    ) {
        if let (Some(wall), Some(t0)) = (sinks.wall.as_mut(), self.dispatched) {
            wall.batch(t0.elapsed(), ops);
        }
        let after = sut.transport_stats();
        let retries = after.retries.saturating_sub(self.before.retries);
        let timeouts = after.timeouts.saturating_sub(self.before.timeouts);
        sinks.faults.retries += retries;
        sinks.faults.timeouts += timeouts;
        for attempt in 0..retries {
            sinks.obs.query_retried(now, attempt as u32 + 1);
        }
        for _ in 0..timeouts {
            // A wall-clock deadline has no virtual latency; record the
            // event at the current virtual time with zero observed latency.
            sinks.obs.query_timed_out(now, 0.0);
        }
    }
}

/// The share of the resources `mode` gives online training while backlog
/// remains: `0.0` in the foreground, the validated `fraction` in the
/// background. A run resolves it once, into [`LaneParams::train_share`].
pub(crate) fn train_share(mode: OnlineTrainMode) -> f64 {
    match mode {
        OnlineTrainMode::Foreground => 0.0,
        OnlineTrainMode::Background { fraction } => fraction,
    }
}

/// Computes one operation's service time given pending adaptation backlog
/// (both in seconds of full-rate work) and the share of the resources
/// training takes while backlog remains ([`LaneParams::train_share`]).
///
/// * `share == 0.0` (foreground): the entire backlog is prepended to this
///   operation's service time (a single latency spike).
/// * `share` in (0, 1) (background): processor sharing — while backlog
///   remains, training gets `share` of the resources and the query runs at
///   `1 − share` speed; the backlog drains by `share ×` the shared wall
///   time. The dip is shallower but lasts longer.
///
/// In either mode every operand is a defined number, so arithmetic the
/// optimiser computes ahead of the `share == 0.0` test never reads an
/// absent enum payload.
#[inline]
pub(crate) fn service_with_backlog(base_service: f64, backlog: &mut f64, share: f64) -> f64 {
    if share == 0.0 {
        let service = *backlog + base_service;
        *backlog = 0.0;
        return service;
    }
    if *backlog <= 0.0 {
        return base_service;
    }
    let query_share = 1.0 - share;
    // Wall time until the backlog would drain under sharing.
    let drain_wall = *backlog / share;
    // Query work that would complete during that window.
    let query_done = drain_wall * query_share;
    if query_done >= base_service {
        // Query finishes while training still runs in background.
        let wall = base_service / query_share;
        *backlog -= share * wall;
        wall
    } else {
        // Backlog drains mid-query; the rest runs at full speed.
        *backlog = 0.0;
        drain_wall + (base_service - query_done)
    }
}

/// How a driver reaches its SUT.
///
/// `'env` is the scoped-thread borrow; `'sut` is the caller's SUT borrow
/// (longer-lived — `Mutex` is invariant in its contents, so conflating the
/// two would pin the mutex borrow for the whole caller).
pub(crate) enum SutRef<'env, 'sut, S: ?Sized> {
    /// Exclusive access: the caller's SUT, or a lane's own shard.
    Owned(&'env mut S),
    /// One SUT shared by every lane, locked per dispatch. The lock provides
    /// physical exclusion only; virtual time assumes lanes run in parallel.
    Shared(&'env Mutex<&'sut mut S>),
}

/// Locks the shared SUT, mapping poisoning to an error.
pub(crate) fn lock<'a, T: ?Sized>(mutex: &'a Mutex<T>) -> Result<MutexGuard<'a, T>> {
    mutex
        .lock()
        .map_err(|_| BenchError::Sut("shared SUT mutex poisoned".to_string()))
}

/// The inline driver: one client owning the ops of every chunk it is
/// dealt, in order, run to completion on the calling thread. Returns the
/// client's final clock. Each chunk is drained and its buffer handed back
/// before the next is taken; a chunk is taken before the shared SUT is
/// locked, and a dispatch gathers only from the chunk at hand, so the
/// driver never waits for a chunk while it holds the lock (a dispatch ends
/// with its chunk, which the record cannot tell).
pub(crate) fn drive_inline<Op, S>(
    mut sut: SutRef<'_, '_, S>,
    ops: &Dealt<Op>,
    sinks: &mut Sinks,
    p: &LaneParams,
) -> Result<f64>
where
    S: SystemUnderTest<Op> + ?Sized,
{
    let mut client = [ClientState::new(p.exec_start)];
    let mut batch = Batch::default();
    while let Some(mut chunk) = ops.recv() {
        let mut source = Lookahead::new(chunk.drain(..).map(|op| (0, op)));
        while let Some(first) = source.next() {
            let rest = &mut source;
            match &mut sut {
                SutRef::Owned(sut) => {
                    step(&mut client, sinks, &mut batch, &mut **sut, first, rest, p)
                }
                SutRef::Shared(mutex) => {
                    let mut guard = lock(mutex)?;
                    step(&mut client, sinks, &mut batch, &mut **guard, first, rest, p)
                }
            }?;
        }
        drop(source);
        ops.hand_back(chunk);
    }
    let [mut client] = client;
    Ok(client.finish())
}

/// A whole run of one inline client over one SUT on the calling thread:
/// prologue, [`drive_inline`] over `source` [`made_ahead`], epilogue. The
/// serial policy, the hold-out pass, closed-loop trace replay and the query
/// workload are this call with different plans and op sources.
pub(crate) fn run_inline<Op, S, I>(
    sut: &mut S,
    plan: RunPlan,
    source: I,
    clock: ClockMode,
    obs: &mut RunObserver,
) -> Result<(RunRecord, Option<WallStats>)>
where
    Op: Send,
    S: SystemUnderTest<Op> + ?Sized,
    I: Iterator<Item = CoreOp<Op>> + Send,
{
    let run = |queues: Vec<Dealt<Op>>| {
        let started = prologue(plan, [&mut *sut], obs);
        let p = &started.plan.params;
        // The single client emits on the coordinator's own lane.
        let root = std::mem::replace(&mut obs.root, LaneObs::inert());
        let mut sinks = Sinks::new(root, clock, started.plan.ops_hint, false);
        let driven = drive_inline(SutRef::Owned(&mut *sut), &queues[0], &mut sinks, p);
        obs.root = std::mem::replace(&mut sinks.obs, LaneObs::inert());
        let exec_end = driven?;
        let merged = Merged::inline(&mut sinks, p.exec_start, exec_end);
        let record = epilogue(started, merged, sut.metrics(), None, obs);
        Ok((record, sinks.wall.map(WallRecorder::finish)))
    };
    made_ahead(source.map(|op| (0, op)), 1, |_| true, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `service_with_backlog` as a match on the training mode: the
    /// reference the share form must equal to the bit.
    fn reference(base_service: f64, backlog: &mut f64, mode: OnlineTrainMode) -> f64 {
        match mode {
            OnlineTrainMode::Foreground => {
                let service = *backlog + base_service;
                *backlog = 0.0;
                service
            }
            OnlineTrainMode::Background { fraction } => {
                if *backlog <= 0.0 {
                    return base_service;
                }
                let query_share = 1.0 - fraction;
                let drain_wall = *backlog / fraction;
                let query_done = drain_wall * query_share;
                if query_done >= base_service {
                    let wall = base_service / query_share;
                    *backlog -= fraction * wall;
                    wall
                } else {
                    *backlog = 0.0;
                    drain_wall + (base_service - query_done)
                }
            }
        }
    }

    fn modes() -> impl Strategy<Value = OnlineTrainMode> {
        let background = |fraction| OnlineTrainMode::Background { fraction };
        prop_oneof![
            Just(OnlineTrainMode::Foreground),
            Just(background(0.3)),
            (f64::MIN_POSITIVE..1e-3).prop_map(background),
            (1e-3f64..1.0).prop_map(background),
        ]
    }

    /// No backlog, one that drains within an op, and one that outlasts many.
    fn backlogs() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 1e-9f64..1e-5, 1e-3f64..10.0]
    }

    /// A reader that hands back every buffer, each grown to a marker
    /// capacity first, gets buffers without the marker only while the
    /// helper fills the first ones: never more than the queue holds, plus
    /// the one the reader holds and the one the helper fills.
    #[test]
    fn made_ahead_recycles_every_buffer_handed_back() {
        const MARKER: usize = 3 * CHUNK;
        let total = 64 * CHUNK + 5;
        let source = (0..total).map(|i| (0, CoreOp::new(i, 0, i, None)));
        let read = |queues: Vec<Dealt<usize>>| {
            let (mut chunks, mut unmarked) = (0, 0);
            while let Some(mut chunk) = queues[0].recv() {
                assert_eq!(chunk[0].op, chunks * CHUNK, "chunk {chunks} in order");
                chunks += 1;
                if chunk.capacity() < MARKER {
                    unmarked += 1;
                    chunk.reserve_exact(MARKER - chunk.len());
                }
                queues[0].hand_back(chunk);
            }
            (chunks, unmarked)
        };
        let (chunks, unmarked) = made_ahead(source, 1, |_| true, read);
        assert_eq!(chunks, 65);
        assert!(unmarked <= CHUNKS + 2, "{unmarked} new buffers");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn service_with_backlog_matches_the_enum_form_to_the_bit(
            mode in modes(),
            backlog in backlogs(),
            bases in prop::collection::vec(prop_oneof![Just(0.0), 0.0f64..1e-3], 1..16),
        ) {
            let (mut got, mut want) = (backlog, backlog);
            for (i, &base) in bases.iter().enumerate() {
                let service = service_with_backlog(base, &mut got, train_share(mode));
                let expected = reference(base, &mut want, mode);
                prop_assert_eq!(service.to_bits(), expected.to_bits(), "service of op {}", i);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "backlog after op {}", i);
            }
        }
    }
}
