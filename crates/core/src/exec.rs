//! The execution core: the one place the benchmark's timing rule lives.
//!
//! Every run — serial, hold-out, trace replay, the query workload, shared
//! or sharded lanes, the open-loop scheduler — is the same four pieces,
//! each written once:
//!
//! 1. an **op source**: any iterator of [`CoreOp`]s (the scenario stream,
//!    the stream plus pre-computed arrivals, trace entries, per-phase query
//!    batches). The core is generic over `Op`, as
//!    [`SystemUnderTest<Op>`] already is;
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
use std::iter::Peekable;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Operations per `execute_many` dispatch. Batches never span a client's
/// phase boundary, a client's maintenance slot, a crash or the op cap, so the
/// record is bit-identical for any value; larger batches amortize dispatch
/// cost (one wire frame instead of one per op on a remote SUT, one lock
/// per batch on a shared one).
const DISPATCH_BATCH: usize = 64;

/// Where an operation sits in its run: everything the timing rule needs
/// besides the operation itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpMeta {
    /// Scheduled phase of the operation.
    pub phase: usize,
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
    /// sits outside any transition window.
    pub(crate) fn new(op: Op, phase: usize, idx: usize, arrival: Option<f64>) -> Self {
        let meta = OpMeta {
            phase,
            in_transition: false,
            idx: idx as u64,
            arrival,
            announce: true,
        };
        CoreOp { op, meta }
    }
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
    let workload = |e: lsbench_workload::WorkloadError| BenchError::Workload(e.to_string());
    let stream = scenario.workload.stream().map_err(workload)?;
    let mut arrivals = match &scenario.arrival {
        Some(spec) => Some(
            ArrivalGenerator::new(spec.process, spec.modulation, spec.seed).map_err(workload)?,
        ),
        None => None,
    };
    let cap = scenario.workload.total_ops().min(max_ops) as usize;
    Ok(stream.take(cap).enumerate().map(move |(i, labeled)| {
        let arrival = arrivals.as_mut().map(|g| g.next_arrival());
        let mut op = CoreOp::new(labeled.op, labeled.phase, i, arrival);
        op.meta.in_transition = labeled.in_transition;
        op
    }))
}

/// Run constants every client shares.
#[derive(Debug)]
pub(crate) struct LaneParams {
    /// Work units per virtual second.
    pub rate: f64,
    /// Offer a maintenance slot every this many client-local operations.
    pub maintenance_every: u64,
    /// Online-training scheduling mode.
    pub online_train: OnlineTrainMode,
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
                online_train: scenario.online_train,
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
                online_train: OnlineTrainMode::Foreground,
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
    pub current_phase: usize,
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
        service_with_backlog(work as f64 / p.rate, &mut self.backlog, p.online_train)
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
    /// Observability state (events, counters, histogram); inert when off.
    pub obs: LaneObs,
    /// Fault-injection accounting.
    pub faults: FaultStats,
    /// Host wall-clock capture; `None` when off.
    wall: Option<WallRecorder>,
    /// Each op's global stream index, kept only when this driver's results
    /// will be merged with others' (the merge key). The serial policy does
    /// not pay for it.
    pub idx: Option<Vec<u64>>,
}

impl Sinks {
    /// Sinks for one driver. `merged` = one of several (engine lanes,
    /// scheduler workers) rather than the inline client whose record is
    /// the run's record.
    pub(crate) fn new(obs: LaneObs, clock: ClockMode, ops_hint: usize, merged: bool) -> Self {
        Sinks {
            ops: Vec::with_capacity(ops_hint),
            phase_first: Vec::new(),
            obs,
            faults: FaultStats::default(),
            wall: WallRecorder::for_clock(clock),
            idx: merged.then(|| Vec::with_capacity(ops_hint)),
        }
    }

    /// Records one completed operation.
    #[inline]
    pub(crate) fn complete(
        &mut self,
        t_end: f64,
        latency: f64,
        ok: bool,
        meta: &OpMeta,
        exec_start: f64,
    ) {
        if let Some(idx) = &mut self.idx {
            idx.push(meta.idx);
        }
        self.obs.op_done(t_end, t_end - exec_start, latency, ok);
        self.ops.push(OpRecord {
            t_end,
            latency,
            phase: meta.phase as u16,
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
        sinks.phase_first.push((meta.phase, client.clock));
        sinks.obs.phase_change(client.clock, meta.phase);
        if meta.announce {
            let adapt_work = sut.on_phase_change(meta.phase);
            client.backlog += adapt_work as f64 / p.rate;
            sinks
                .obs
                .retrain_burst(client.clock, meta.phase, adapt_work);
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

/// Executes the next run of ops: the prelude for `first`, successors
/// gathered from `rest` while they need none, one dispatch, then per-op
/// accounting — see the [module docs](self). Every op comes with the slot
/// of its client in `clients`: the inline driver has one client and slot
/// 0, a scheduler worker its whole population and whichever clients are
/// due next.
pub(crate) fn step<Op, T, I>(
    clients: &mut [ClientState],
    sinks: &mut Sinks,
    batch: &mut Batch<Op>,
    sut: &mut T,
    (slot, first): (usize, CoreOp<Op>),
    rest: &mut Peekable<I>,
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
        sinks.complete(client.clock, latency, outcome.ok, meta, p.exec_start);
        return Ok(());
    };
    let settled = session.settle(
        outcome,
        meta.phase,
        meta.idx,
        p.rate,
        p.online_train,
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
    sinks.complete(client.clock, latency, settled.ok, meta, p.exec_start);
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

/// Computes one operation's service time given pending adaptation backlog
/// (both in seconds of full-rate work).
///
/// * [`OnlineTrainMode::Foreground`]: the entire backlog is prepended to
///   this operation's service time (a single latency spike).
/// * [`OnlineTrainMode::Background`]: processor sharing — while backlog
///   remains, training gets `fraction` of the resources and the query runs
///   at `1 − fraction` speed; the backlog drains by `fraction ×` the shared
///   wall time. The dip is shallower but lasts longer.
#[inline]
pub(crate) fn service_with_backlog(
    base_service: f64,
    backlog: &mut f64,
    mode: OnlineTrainMode,
) -> f64 {
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
            // Wall time until the backlog would drain under sharing.
            let drain_wall = *backlog / fraction;
            // Query work that would complete during that window.
            let query_done = drain_wall * query_share;
            if query_done >= base_service {
                // Query finishes while training still runs in background.
                let wall = base_service / query_share;
                *backlog -= fraction * wall;
                wall
            } else {
                // Backlog drains mid-query; the rest runs at full speed.
                *backlog = 0.0;
                drain_wall + (base_service - query_done)
            }
        }
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

/// The inline driver: one client owning the whole `source`, run to
/// completion on the calling thread. Returns the client's final clock.
pub(crate) fn drive_inline<Op, S, I>(
    mut sut: SutRef<'_, '_, S>,
    source: I,
    sinks: &mut Sinks,
    p: &LaneParams,
) -> Result<f64>
where
    S: SystemUnderTest<Op> + ?Sized,
    I: Iterator<Item = CoreOp<Op>>,
{
    let mut client = [ClientState::new(p.exec_start)];
    let mut batch = Batch::default();
    let mut source = source.map(|op| (0, op)).peekable();
    while let Some(first) = source.next() {
        let rest = &mut source;
        match &mut sut {
            SutRef::Owned(sut) => step(&mut client, sinks, &mut batch, &mut **sut, first, rest, p),
            SutRef::Shared(mutex) => {
                let mut guard = lock(mutex)?;
                step(&mut client, sinks, &mut batch, &mut **guard, first, rest, p)
            }
        }?;
    }
    let [mut client] = client;
    Ok(client.finish())
}

/// A whole run of one inline client over one SUT on the calling thread:
/// prologue, [`drive_inline`], epilogue. The serial policy, the hold-out
/// pass, closed-loop trace replay and the query workload are this call
/// with different plans and op sources.
pub(crate) fn run_inline<Op, S, I>(
    sut: &mut S,
    plan: RunPlan,
    source: I,
    clock: ClockMode,
    obs: &mut RunObserver,
) -> Result<(RunRecord, Option<WallStats>)>
where
    S: SystemUnderTest<Op> + ?Sized,
    I: Iterator<Item = CoreOp<Op>>,
{
    let started = prologue(plan, [&mut *sut], obs);
    let p = &started.plan.params;
    // The single client emits on the coordinator's own lane.
    let root = std::mem::replace(&mut obs.root, LaneObs::inert());
    let mut sinks = Sinks::new(root, clock, started.plan.ops_hint, false);
    let driven = drive_inline(SutRef::Owned(&mut *sut), source, &mut sinks, p);
    obs.root = std::mem::replace(&mut sinks.obs, LaneObs::inert());
    let exec_end = driven?;
    let merged = Merged::inline(&mut sinks, p.exec_start, exec_end);
    let record = epilogue(started, merged, sut.metrics(), None, obs);
    Ok((record, sinks.wall.map(WallRecorder::finish)))
}
