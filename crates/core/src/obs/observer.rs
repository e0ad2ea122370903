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
//! Observation must **never** advance or read the virtual clock as a side
//! effect — that is the structural guarantee behind the bit-identical
//! `RunRecord` requirement, enforced by `tests/observability.rs`.

use super::event::{RunEvent, TraceEvent, TraceLog};
use super::registry::{IntervalHistogram, MetricsRegistry, DEFAULT_INTERVAL_WIDTH};
use super::span::{SpanCollector, SpanNode};
use crate::engine::latency::latency_to_ns;

/// Per-emitter event buffer capacity; overflow increments
/// [`TraceLog::dropped`].
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// What to observe during a run. Counters, gauges and the `latency`
/// interval histogram (slices [`DEFAULT_INTERVAL_WIDTH`] virtual seconds
/// wide) are always collected.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsConfig {
    /// Buffer [`TraceEvent`]s into a merged [`TraceLog`] and collect the
    /// wall-clock span tree.
    pub trace: bool,
    /// Latency threshold (virtual seconds) above which completed ops emit
    /// [`RunEvent::SlaViolation`] and bump the `sla_violations` counter.
    pub sla_threshold: Option<f64>,
}

impl ObsConfig {
    /// Full observation: event trace and spans on top of the metrics.
    pub fn traced() -> Self {
        ObsConfig {
            trace: true,
            ..ObsConfig::default()
        }
    }

    /// Sets the SLA threshold (virtual seconds) for violation events.
    pub fn with_sla(mut self, threshold: f64) -> Self {
        self.sla_threshold = Some(threshold);
        self
    }
}

/// Hot-path counters kept as a plain struct (no map lookups per op);
/// folded into the [`MetricsRegistry`] once at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CoreCounters {
    completed: u64,
    failed: u64,
    phase_changes: u64,
    maintenance_slots: u64,
    maintenance_work: u64,
    retrain_bursts: u64,
    retrain_work: u64,
    sla_violations: u64,
    faults_injected: u64,
    query_retries: u64,
    query_timeouts: u64,
}

/// Per-emitter observation state: one per engine lane, plus one owned by
/// the coordinator (`lane = None`). Travels with the lane across worker
/// threads; merged deterministically at join.
#[derive(Debug)]
pub(crate) struct LaneObs {
    cfg: ObsConfig,
    active: bool,
    lane: Option<usize>,
    seq: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    counters: CoreCounters,
    backlog_high_water: f64,
    latency: Option<IntervalHistogram>,
}

impl LaneObs {
    fn new(lane: Option<usize>, cfg: ObsConfig, active: bool) -> Self {
        LaneObs {
            cfg,
            active,
            lane,
            seq: 0,
            events: Vec::new(),
            dropped: 0,
            counters: CoreCounters::default(),
            backlog_high_water: 0.0,
            latency: active.then(|| IntervalHistogram::new(DEFAULT_INTERVAL_WIDTH)),
        }
    }

    /// A fully inert emitter: every hook returns immediately.
    pub fn inert() -> Self {
        LaneObs::new(None, ObsConfig::default(), false)
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
        if !self.active {
            return;
        }
        self.counters.phase_changes += 1;
        self.push(t, RunEvent::PhaseChange { phase });
    }

    /// A phase announcement triggered `work` units of online retraining.
    #[inline]
    pub fn retrain_burst(&mut self, t: f64, phase: usize, work: u64) {
        if !self.active || work == 0 {
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
        if !self.active {
            return;
        }
        self.counters.maintenance_slots += 1;
        if work > 0 {
            self.counters.maintenance_work += work;
            self.push(t, RunEvent::MaintenanceSlot { work });
        }
    }

    /// An operation completed at virtual time `t_end` (`t_rel` seconds after
    /// execution start) with the given latency and success flag.
    #[inline]
    pub fn op_done(&mut self, t_end: f64, t_rel: f64, latency: f64, ok: bool) {
        if !self.active {
            return;
        }
        if ok {
            self.counters.completed += 1;
        } else {
            self.counters.failed += 1;
        }
        if let Some(thr) = self.cfg.sla_threshold {
            // A failed (or timed-out) operation violates the SLA no matter
            // how fast it failed — mirrors SlaReport's attribution.
            if latency > thr || !ok {
                self.counters.sla_violations += 1;
                self.push(t_end, RunEvent::SlaViolation { latency });
            }
        }
        if let Some(hist) = self.latency.as_mut() {
            hist.record(t_rel, latency_to_ns(latency));
        }
    }

    /// The fault layer injected `fault` into the operation completing at
    /// `t`.
    #[inline]
    pub fn fault_injected(&mut self, t: f64, fault: crate::faults::FaultKind) {
        if !self.active {
            return;
        }
        self.counters.faults_injected += 1;
        self.push(t, RunEvent::FaultInjected { fault });
    }

    /// The retry policy issued retry number `attempt` (1-based) for the
    /// operation completing at `t`.
    #[inline]
    pub fn query_retried(&mut self, t: f64, attempt: u32) {
        if !self.active {
            return;
        }
        self.counters.query_retries += 1;
        self.push(t, RunEvent::QueryRetried { attempt });
    }

    /// A query attempt was abandoned at the per-query timeout; the
    /// operation completed at `t` with client-observed `latency`.
    #[inline]
    pub fn query_timed_out(&mut self, t: f64, latency: f64) {
        if !self.active {
            return;
        }
        self.counters.query_timeouts += 1;
        self.push(t, RunEvent::QueryTimedOut { latency });
    }

    /// The adaptation backlog stands at `seconds`; emits a high-water event
    /// on strictly new maxima only, so the event count stays bounded.
    #[inline]
    pub fn backlog(&mut self, t: f64, seconds: f64) {
        if !self.active {
            return;
        }
        if seconds > self.backlog_high_water {
            self.backlog_high_water = seconds;
            self.push(t, RunEvent::BacklogHighWater { seconds });
        }
    }

    fn fold_into(&self, reg: &mut MetricsRegistry) {
        let c = &self.counters;
        for (name, v) in [
            ("ops_completed", c.completed),
            ("ops_failed", c.failed),
            ("phase_changes", c.phase_changes),
            ("maintenance_slots", c.maintenance_slots),
            ("maintenance_work_units", c.maintenance_work),
            ("retrain_bursts", c.retrain_bursts),
            ("retrain_work_units", c.retrain_work),
            ("sla_violations", c.sla_violations),
            ("faults_injected", c.faults_injected),
            ("query_retries", c.query_retries),
            ("query_timeouts", c.query_timeouts),
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
    /// Counters, gauges, and histograms merged across lanes.
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
    active: bool,
    /// Coordinator-level emitter (train, phase-0 anchor, merge, run end).
    pub root: LaneObs,
    lanes: Vec<LaneObs>,
    /// Wall-clock span collector (never part of the deterministic trace).
    pub spans: SpanCollector,
}

impl RunObserver {
    /// An active observer with the given configuration.
    pub fn new(cfg: ObsConfig) -> Self {
        RunObserver {
            cfg,
            active: true,
            root: LaneObs::new(None, cfg, true),
            lanes: Vec::new(),
            spans: SpanCollector::new(cfg.trace),
        }
    }

    /// A fully inert observer: zero work on every hook. For the runs that
    /// report nothing but their record (trace replay, the query workload,
    /// the hold-out pass).
    pub fn disabled() -> Self {
        RunObserver {
            cfg: ObsConfig::default(),
            active: false,
            root: LaneObs::inert(),
            lanes: Vec::new(),
            spans: SpanCollector::new(false),
        }
    }

    /// True when this observer records anything at all.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Creates the emitter for engine lane `lane`, to be moved into the
    /// lane's worker-side state and later returned via [`absorb`](Self::absorb).
    pub fn lane_obs(&self, lane: usize) -> LaneObs {
        LaneObs::new(Some(lane), self.cfg, self.active)
    }

    /// Takes back lane emitters after the workers join.
    pub fn absorb(&mut self, lanes: Vec<LaneObs>) {
        self.lanes.extend(lanes);
    }

    /// Offline training started with this budget.
    pub fn train_start(&mut self, t: f64, budget: u64) {
        if self.active {
            self.root.push(t, RunEvent::TrainStart { budget });
        }
    }

    /// Offline training finished having spent `work` units.
    pub fn train_end(&mut self, t: f64, work: u64) {
        if self.active {
            self.root.push(t, RunEvent::TrainEnd { work });
        }
    }

    /// The engine merged `lanes` lanes executed by `threads` threads.
    pub fn shard_merge(&mut self, t: f64, lanes: usize, threads: usize) {
        if self.active {
            self.root.push(t, RunEvent::ShardMerge { lanes, threads });
        }
    }

    /// The run finished with `ops` completed operations.
    pub fn run_end(&mut self, t: f64, ops: u64) {
        if self.active {
            self.root.push(t, RunEvent::RunEnd { ops });
        }
    }

    /// Merges all emitters into the final report: events sorted by
    /// `(t, coordinator-before-lanes, lane, seq)`, counters summed, gauges
    /// maxed, histograms merged.
    pub fn finish(self) -> crate::Result<ObsReport> {
        let RunObserver {
            cfg,
            active,
            root,
            lanes,
            spans,
        } = self;
        let mut report = ObsReport {
            trace: None,
            metrics: MetricsRegistry::new(),
            spans: spans.finish(),
        };
        if !active {
            return Ok(report);
        }
        let mut emitters: Vec<&LaneObs> = Vec::with_capacity(lanes.len() + 1);
        emitters.push(&root);
        emitters.extend(lanes.iter());
        for e in &emitters {
            e.fold_into(&mut report.metrics);
            if let Some(hist) = &e.latency {
                match report.metrics.histograms.get_mut("latency") {
                    Some(mine) => mine.merge(hist)?,
                    None => {
                        report
                            .metrics
                            .histograms
                            .insert("latency".to_string(), hist.clone());
                    }
                }
            }
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
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let mut obs = RunObserver::disabled();
        obs.train_start(0.0, 100);
        obs.root.phase_change(0.0, 0);
        obs.root.op_done(1.0, 1.0, 0.5, true);
        obs.root.backlog(1.0, 3.0);
        obs.run_end(2.0, 1);
        let report = obs.finish().unwrap();
        assert!(report.trace.is_none());
        assert!(report.metrics.is_empty());
        assert!(report.spans.is_empty());
    }

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
            obs.finish().unwrap().trace.unwrap()
        };
        let a = build([0, 1]);
        let b = build([1, 0]);
        assert_eq!(a, b);
        assert_eq!(a.phase_boundaries(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(a.count_kind("train_start"), 1);
    }

    #[test]
    fn counters_and_gauges_fold_across_lanes() {
        let mut obs = RunObserver::new(ObsConfig::default().with_sla(0.1));
        let mut l0 = obs.lane_obs(0);
        let mut l1 = obs.lane_obs(1);
        l0.op_done(1.0, 1.0, 0.05, true);
        l0.op_done(1.1, 1.1, 0.2, true); // SLA violation: over threshold
        l1.op_done(1.2, 1.2, 0.01, false); // SLA violation: failed op
        l0.maintenance(1.3, 0);
        l1.maintenance(1.4, 7);
        l0.retrain_burst(1.5, 1, 3);
        l1.backlog(1.6, 0.4);
        l1.backlog(1.7, 0.2); // not a new high-water mark
        obs.absorb(vec![l0, l1]);
        let report = obs.finish().unwrap();
        let m = &report.metrics;
        assert_eq!(m.counter("ops_completed"), 2);
        assert_eq!(m.counter("ops_failed"), 1);
        assert_eq!(m.counter("sla_violations"), 2);
        assert_eq!(m.counter("maintenance_slots"), 2);
        assert_eq!(m.counter("maintenance_work_units"), 7);
        assert_eq!(m.counter("retrain_bursts"), 1);
        assert_eq!(m.counter("retrain_work_units"), 3);
        assert_eq!(m.gauge("backlog_high_water_s"), Some(0.4));
        let lat = &m.histograms["latency"];
        assert_eq!(lat.total.total(), 3);
        // No trace requested.
        assert!(report.trace.is_none());
    }

    #[test]
    fn fault_hooks_count_and_trace() {
        use crate::faults::FaultKind;
        let mut obs = RunObserver::new(ObsConfig::traced());
        obs.root.fault_injected(1.0, FaultKind::Error);
        obs.root.fault_injected(1.0, FaultKind::Crash);
        obs.root.query_retried(1.0, 1);
        obs.root.query_timed_out(1.1, 0.5);
        let report = obs.finish().unwrap();
        assert_eq!(report.metrics.counter("faults_injected"), 2);
        assert_eq!(report.metrics.counter("query_retries"), 1);
        assert_eq!(report.metrics.counter("query_timeouts"), 1);
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
        let trace = obs.finish().unwrap().trace.unwrap();
        assert_eq!(trace.events.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(trace.dropped, 3);
    }
}
