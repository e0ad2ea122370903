//! The run observer: per-lane collection plus deterministic merge.
//!
//! A [`RunObserver`] owns the observability state for one run. The driver
//! (or engine coordinator) emits coordinator-level events through the
//! observer directly; each engine lane gets its own [`LaneObs`] that
//! travels with the lane's state, buffers events locally, and is absorbed
//! back at join. Because events carry virtual timestamps and a per-emitter
//! sequence number, the merged [`TraceLog`] is identical for any worker
//! thread count.
//!
//! The observer sees only what the run record cannot tell: phase changes,
//! maintenance slots, retraining bursts, backlog high-water marks and
//! trace events. Per-op statistics (op counts, the `latency` histogram,
//! fault counts) are restated from the finished record by the runner.
//!
//! Observation must **never** advance or read the virtual clock as a side
//! effect — that is the structural guarantee behind the bit-identical
//! `RunRecord` requirement, enforced by `tests/observability.rs`.

use super::event::{RunEvent, TraceEvent, TraceLog};
use super::registry::MetricsRegistry;
use super::span::{SpanCollector, SpanNode};

/// Per-emitter event buffer capacity; overflow increments
/// [`TraceLog::dropped`].
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// What to observe during a run. The metrics registry is always filled:
/// counters and gauges by the observer, the per-op entries from the record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsConfig {
    /// Buffer [`TraceEvent`]s into a merged [`TraceLog`] and collect the
    /// wall-clock span tree.
    pub trace: bool,
}

impl ObsConfig {
    /// Full observation: event trace and spans on top of the metrics.
    pub fn traced() -> Self {
        ObsConfig { trace: true }
    }
}

/// Hot-path counters kept as a plain struct (no map lookups per op);
/// folded into the [`MetricsRegistry`] once at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CoreCounters {
    phase_changes: u64,
    maintenance_slots: u64,
    maintenance_work: u64,
    retrain_bursts: u64,
    retrain_work: u64,
}

/// Per-emitter observation state: one per engine lane, plus one owned by
/// the coordinator (`lane = None`). Travels with the lane across worker
/// threads; merged deterministically at join.
#[derive(Debug)]
pub(crate) struct LaneObs {
    cfg: ObsConfig,
    lane: Option<usize>,
    seq: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    counters: CoreCounters,
    backlog_high_water: f64,
}

impl LaneObs {
    fn new(lane: Option<usize>, cfg: ObsConfig) -> Self {
        LaneObs {
            cfg,
            lane,
            seq: 0,
            events: Vec::new(),
            dropped: 0,
            counters: CoreCounters::default(),
            backlog_high_water: 0.0,
        }
    }

    /// An emitter of no lane that traces nothing: the placeholder left
    /// where a lane's emitter was handed back, and the sink of a run that
    /// reports only its record.
    pub fn inert() -> Self {
        LaneObs::new(None, ObsConfig::default())
    }

    #[inline]
    fn push(&mut self, t: f64, event: RunEvent) {
        if !self.cfg.trace {
            return;
        }
        if self.events.len() >= DEFAULT_RING_CAPACITY {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            t,
            lane: self.lane,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The emitting lane became active in `phase` at virtual time `t`.
    #[inline]
    pub fn phase_change(&mut self, t: f64, phase: usize) {
        self.counters.phase_changes += 1;
        self.push(t, RunEvent::PhaseChange { phase });
    }

    /// A phase announcement triggered `work` units of online retraining.
    #[inline]
    pub fn retrain_burst(&mut self, t: f64, phase: usize, work: u64) {
        if work == 0 {
            return;
        }
        self.counters.retrain_bursts += 1;
        self.counters.retrain_work += work;
        self.push(t, RunEvent::RetrainBurst { phase, work });
    }

    /// A maintenance slot was offered; `work` is what the SUT did with it
    /// (events are only emitted for non-zero work, the slot counter counts
    /// every offer).
    #[inline]
    pub fn maintenance(&mut self, t: f64, work: u64) {
        self.counters.maintenance_slots += 1;
        if work > 0 {
            self.counters.maintenance_work += work;
            self.push(t, RunEvent::MaintenanceSlot { work });
        }
    }

    /// The fault layer injected `fault` into the operation completing at
    /// `t`. The fault hooks only trace: the record's fault ledger counts.
    #[inline]
    pub fn fault_injected(&mut self, t: f64, fault: crate::faults::FaultKind) {
        self.push(t, RunEvent::FaultInjected { fault });
    }

    /// The retry policy issued retry number `attempt` (1-based) for the
    /// operation completing at `t`.
    #[inline]
    pub fn query_retried(&mut self, t: f64, attempt: u32) {
        self.push(t, RunEvent::QueryRetried { attempt });
    }

    /// A query attempt was abandoned at the per-query timeout; the
    /// operation completed at `t` with client-observed `latency`.
    #[inline]
    pub fn query_timed_out(&mut self, t: f64, latency: f64) {
        self.push(t, RunEvent::QueryTimedOut { latency });
    }

    /// The adaptation backlog stands at `seconds`; emits a high-water event
    /// on strictly new maxima only, so the event count stays bounded.
    #[inline]
    pub fn backlog(&mut self, t: f64, seconds: f64) {
        if seconds > self.backlog_high_water {
            self.backlog_high_water = seconds;
            self.push(t, RunEvent::BacklogHighWater { seconds });
        }
    }

    fn fold_into(&self, reg: &mut MetricsRegistry) {
        let c = &self.counters;
        for (name, v) in [
            ("phase_changes", c.phase_changes),
            ("maintenance_slots", c.maintenance_slots),
            ("maintenance_work_units", c.maintenance_work),
            ("retrain_bursts", c.retrain_bursts),
            ("retrain_work_units", c.retrain_work),
        ] {
            if v > 0 {
                reg.inc(name, v);
            }
        }
        if self.backlog_high_water > 0.0 {
            reg.gauge_max("backlog_high_water_s", self.backlog_high_water);
        }
    }
}

/// Everything a run's observation produced.
#[derive(Debug, Default)]
pub(crate) struct ObsReport {
    /// Merged, time-ordered event trace (when tracing was on).
    pub trace: Option<TraceLog>,
    /// Counters and gauges merged across lanes.
    pub metrics: MetricsRegistry,
    /// Completed wall-clock spans (when span collection was on).
    pub spans: Vec<SpanNode>,
}

/// Observability state for one run: the coordinator's own emitter, lane
/// emitters handed out to (and absorbed back from) engine workers, and the
/// wall-clock span collector.
#[derive(Debug)]
pub(crate) struct RunObserver {
    cfg: ObsConfig,
    /// Coordinator-level emitter (train, phase-0 anchor, merge, run end).
    pub root: LaneObs,
    lanes: Vec<LaneObs>,
    /// Wall-clock span collector (never part of the deterministic trace).
    pub spans: SpanCollector,
}

impl RunObserver {
    /// An observer with the given configuration. A run that reports
    /// nothing but its record (trace replay, the query workload, the
    /// hold-out pass) takes `ObsConfig::default()` and never finishes it.
    pub fn new(cfg: ObsConfig) -> Self {
        RunObserver {
            cfg,
            root: LaneObs::new(None, cfg),
            lanes: Vec::new(),
            spans: SpanCollector::new(cfg.trace),
        }
    }

    /// Creates the emitter for engine lane `lane`, to be moved into the
    /// lane's worker-side state and later returned via [`absorb`](Self::absorb).
    pub fn lane_obs(&self, lane: usize) -> LaneObs {
        LaneObs::new(Some(lane), self.cfg)
    }

    /// Takes back lane emitters after the workers join.
    pub fn absorb(&mut self, lanes: Vec<LaneObs>) {
        self.lanes.extend(lanes);
    }

    /// Offline training started with this budget.
    pub fn train_start(&mut self, t: f64, budget: u64) {
        self.root.push(t, RunEvent::TrainStart { budget });
    }

    /// Offline training finished having spent `work` units.
    pub fn train_end(&mut self, t: f64, work: u64) {
        self.root.push(t, RunEvent::TrainEnd { work });
    }

    /// The engine merged `lanes` lanes executed by `threads` threads.
    pub fn shard_merge(&mut self, t: f64, lanes: usize, threads: usize) {
        self.root.push(t, RunEvent::ShardMerge { lanes, threads });
    }

    /// The run finished with `ops` completed operations.
    pub fn run_end(&mut self, t: f64, ops: u64) {
        self.root.push(t, RunEvent::RunEnd { ops });
    }

    /// Merges all emitters into the final report: events sorted by
    /// `(t, coordinator-before-lanes, lane, seq)`, counters summed, gauges
    /// maxed.
    pub fn finish(self) -> ObsReport {
        let RunObserver {
            cfg,
            root,
            lanes,
            spans,
        } = self;
        let mut report = ObsReport {
            trace: None,
            metrics: MetricsRegistry::new(),
            spans: spans.finish(),
        };
        let mut emitters: Vec<&LaneObs> = Vec::with_capacity(lanes.len() + 1);
        emitters.push(&root);
        emitters.extend(lanes.iter());
        for e in &emitters {
            e.fold_into(&mut report.metrics);
        }
        if cfg.trace {
            let mut events: Vec<TraceEvent> = emitters
                .iter()
                .flat_map(|e| e.events.iter().copied())
                .collect();
            events.sort_by(TraceEvent::order);
            let dropped = emitters.iter().map(|e| e.dropped).sum();
            report.trace = Some(TraceLog { events, dropped });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_merge_is_order_independent() {
        let build = |order: [usize; 2]| {
            let mut obs = RunObserver::new(ObsConfig::traced());
            obs.train_start(0.0, 10);
            obs.train_end(0.5, 10);
            let mut lanes: Vec<LaneObs> = (0..2).map(|l| obs.lane_obs(l)).collect();
            lanes[0].phase_change(1.0, 0);
            lanes[1].phase_change(1.2, 0);
            lanes[1].phase_change(2.0, 1);
            lanes[0].phase_change(2.5, 1);
            // Absorb in the given order — must not matter.
            let mut v: Vec<LaneObs> = Vec::new();
            for i in order {
                v.push(std::mem::replace(&mut lanes[i], LaneObs::inert()));
            }
            obs.absorb(v);
            obs.run_end(3.0, 4);
            obs.finish().trace.unwrap()
        };
        let a = build([0, 1]);
        let b = build([1, 0]);
        assert_eq!(a, b);
        assert_eq!(a.phase_boundaries(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(a.count_kind("train_start"), 1);
    }

    #[test]
    fn counters_and_gauges_fold_across_lanes() {
        let mut obs = RunObserver::new(ObsConfig::default());
        let mut l0 = obs.lane_obs(0);
        let mut l1 = obs.lane_obs(1);
        l0.maintenance(1.3, 0);
        l1.maintenance(1.4, 7);
        l0.retrain_burst(1.5, 1, 3);
        l1.backlog(1.6, 0.4);
        l1.backlog(1.7, 0.2); // not a new high-water mark
        obs.absorb(vec![l0, l1]);
        let report = obs.finish();
        let m = &report.metrics;
        assert_eq!(m.counter("maintenance_slots"), 2);
        assert_eq!(m.counter("maintenance_work_units"), 7);
        assert_eq!(m.counter("retrain_bursts"), 1);
        assert_eq!(m.counter("retrain_work_units"), 3);
        assert_eq!(m.gauge("backlog_high_water_s"), Some(0.4));
        // No trace requested.
        assert!(report.trace.is_none());
    }

    #[test]
    fn fault_hooks_only_trace() {
        use crate::faults::FaultKind;
        let mut obs = RunObserver::new(ObsConfig::traced());
        obs.root.fault_injected(1.0, FaultKind::Error);
        obs.root.fault_injected(1.0, FaultKind::Crash);
        obs.root.query_retried(1.0, 1);
        obs.root.query_timed_out(1.1, 0.5);
        let report = obs.finish();
        // The record's fault ledger counts; the registry restates it.
        assert!(report.metrics.is_empty());
        let t = report.trace.unwrap();
        assert_eq!(t.count_kind("fault_injected"), 2);
        assert_eq!(t.count_kind("query_retried"), 1);
        assert_eq!(t.count_kind("query_timed_out"), 1);
    }

    #[test]
    fn ring_capacity_bounds_events() {
        let mut obs = RunObserver::new(ObsConfig::traced());
        for i in 0..DEFAULT_RING_CAPACITY + 3 {
            obs.root.phase_change(i as f64, i);
        }
        let trace = obs.finish().trace.unwrap();
        assert_eq!(trace.events.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(trace.dropped, 3);
    }
}
