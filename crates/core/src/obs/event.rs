//! Run events: the structured trace vocabulary.
//!
//! Every notable thing that happens inside a benchmark run — a phase
//! boundary, a retraining burst, a maintenance slot that did work, an SLA
//! violation, a backlog high-water mark — is captured as a [`RunEvent`]
//! stamped with the **virtual clock**. Because the clock is deterministic,
//! traces are deterministic too: the same scenario, seed, and lane count
//! produce the same event stream for any worker-thread count, which is
//! what makes a `trace.jsonl` artifact a reproducible diagnostic rather
//! than a one-off log.

use serde::{Deserialize, Serialize};

/// One structured occurrence inside a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// Offline training began with this work budget.
    TrainStart {
        /// Training budget in work units (`u64::MAX` = unlimited).
        budget: u64,
    },
    /// Offline training finished having spent this much work.
    TrainEnd {
        /// Work units actually consumed by training.
        work: u64,
    },
    /// A workload phase became active (for the emitting lane).
    PhaseChange {
        /// Phase index that became active.
        phase: usize,
    },
    /// A phase-change announcement triggered online retraining work.
    RetrainBurst {
        /// Phase whose announcement triggered the burst.
        phase: usize,
        /// Adaptation work units performed.
        work: u64,
    },
    /// A maintenance slot in which the SUT actually did work.
    MaintenanceSlot {
        /// Maintenance work units performed.
        work: u64,
    },
    /// The adaptation backlog reached a new high-water mark.
    BacklogHighWater {
        /// Backlog depth in virtual seconds of full-rate work.
        seconds: f64,
    },
    /// A completed operation's latency exceeded the configured SLA
    /// threshold (only emitted when [`ObsConfig::sla_threshold`] is set).
    ///
    /// [`ObsConfig::sla_threshold`]: crate::obs::ObsConfig::sla_threshold
    SlaViolation {
        /// The violating latency in virtual seconds.
        latency: f64,
    },
    /// The fault layer injected a fault into a completing operation.
    FaultInjected {
        /// What was injected.
        fault: crate::faults::FaultKind,
    },
    /// The retry policy re-issued a query after a transient failure or
    /// timeout.
    QueryRetried {
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A query attempt was abandoned at the per-query timeout.
    QueryTimedOut {
        /// Client-observed latency of the abandoned operation.
        latency: f64,
    },
    /// The concurrent engine merged per-lane results into one record.
    ShardMerge {
        /// Logical lanes merged.
        lanes: usize,
        /// Worker threads that executed them.
        threads: usize,
    },
    /// The run finished (all operations completed, backlog paid).
    RunEnd {
        /// Operations completed over the whole run.
        ops: u64,
    },
}

impl RunEvent {
    /// Short stable name of the event kind (used in summaries and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::TrainStart { .. } => "train_start",
            RunEvent::TrainEnd { .. } => "train_end",
            RunEvent::PhaseChange { .. } => "phase_change",
            RunEvent::RetrainBurst { .. } => "retrain_burst",
            RunEvent::MaintenanceSlot { .. } => "maintenance_slot",
            RunEvent::BacklogHighWater { .. } => "backlog_high_water",
            RunEvent::SlaViolation { .. } => "sla_violation",
            RunEvent::FaultInjected { .. } => "fault_injected",
            RunEvent::QueryRetried { .. } => "query_retried",
            RunEvent::QueryTimedOut { .. } => "query_timed_out",
            RunEvent::ShardMerge { .. } => "shard_merge",
            RunEvent::RunEnd { .. } => "run_end",
        }
    }
}

/// A [`RunEvent`] stamped with virtual time and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time of the event in seconds.
    pub t: f64,
    /// Emitting lane (`None` = the run coordinator / serial driver).
    pub lane: Option<usize>,
    /// Per-emitter sequence number; `(t, lane, seq)` is a total order.
    pub seq: u64,
    /// The event itself.
    pub event: RunEvent,
}

impl TraceEvent {
    /// Total-order comparison: virtual time, then coordinator-before-lanes,
    /// then per-emitter sequence. Used to merge per-lane event streams into
    /// one deterministic trace regardless of worker scheduling.
    pub fn order(&self, other: &TraceEvent) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| match (self.lane, other.lane) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(&b),
            })
            .then(self.seq.cmp(&other.seq))
    }
}

/// A complete, merged, time-ordered event trace for one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceLog {
    /// Events in `(t, lane, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Events discarded because a ring buffer reached capacity.
    pub dropped: u64,
}

impl TraceLog {
    /// Number of events of the given kind (see [`RunEvent::kind`]).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// Phase boundaries as the run record defines them: for every phase,
    /// the *earliest* time any lane saw it, sorted by time then phase —
    /// exactly the fold the engine merge applies to produce
    /// [`RunRecord::phase_change_times`](crate::record::RunRecord::phase_change_times).
    pub fn phase_boundaries(&self) -> Vec<(usize, f64)> {
        let mut first: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for e in &self.events {
            if let RunEvent::PhaseChange { phase } = e.event {
                first
                    .entry(phase)
                    .and_modify(|t| *t = t.min(e.t))
                    .or_insert(e.t);
            }
        }
        let mut out: Vec<(usize, f64)> = first.into_iter().collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Renders the trace as JSON lines, one event per line.
    pub fn to_jsonl(&self) -> crate::Result<String> {
        self.to_jsonl_tagged(&[])
    }

    /// Renders the trace as JSON lines with extra context fields (e.g.
    /// `[("sut", "rmi"), ("scenario", "S1")]`) prepended to every line, so
    /// multiple runs can share one artifact file.
    pub fn to_jsonl_tagged(&self, tags: &[(&str, &str)]) -> crate::Result<String> {
        /// One line: the tags, the event's kind, then the event's own fields.
        struct Line<'a>(&'a [(&'a str, &'a str)], &'a TraceEvent);
        impl Serialize for Line<'_> {
            fn write(&self, w: &mut serde::Writer) {
                let Line(
                    tags,
                    TraceEvent {
                        t,
                        lane,
                        seq,
                        event,
                    },
                ) = self;
                w.open('{');
                for (key, value) in *tags {
                    w.key(key);
                    w.string(value);
                }
                w.key("kind");
                w.string(event.kind());
                w.key("t");
                t.write(w);
                w.key("lane");
                lane.write(w);
                w.key("seq");
                seq.write(w);
                w.key("event");
                event.write(w);
                w.close('}');
            }
        }
        let mut out = String::new();
        for e in &self.events {
            let line = serde_json::to_string(&Line(tags, e))
                .map_err(|err| crate::BenchError::Serialization(err.to_string()))?;
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, lane: Option<usize>, seq: u64, event: RunEvent) -> TraceEvent {
        TraceEvent {
            t,
            lane,
            seq,
            event,
        }
    }

    #[test]
    fn order_is_time_then_lane_then_seq() {
        let a = ev(1.0, None, 0, RunEvent::PhaseChange { phase: 0 });
        let b = ev(1.0, Some(0), 0, RunEvent::PhaseChange { phase: 1 });
        let c = ev(1.0, Some(1), 0, RunEvent::PhaseChange { phase: 2 });
        let d = ev(0.5, Some(9), 7, RunEvent::RunEnd { ops: 1 });
        let mut v = [c, a, b, d];
        v.sort_by(TraceEvent::order);
        assert_eq!(v[0].t, 0.5);
        assert_eq!(v[1].lane, None);
        assert_eq!(v[2].lane, Some(0));
        assert_eq!(v[3].lane, Some(1));
    }

    #[test]
    fn phase_boundaries_take_min_per_phase() {
        let log = TraceLog {
            events: vec![
                ev(0.0, None, 0, RunEvent::PhaseChange { phase: 0 }),
                ev(2.0, Some(1), 0, RunEvent::PhaseChange { phase: 1 }),
                ev(1.5, Some(0), 0, RunEvent::PhaseChange { phase: 1 }),
                ev(1.0, Some(0), 1, RunEvent::MaintenanceSlot { work: 3 }),
            ],
            dropped: 0,
        };
        assert_eq!(log.phase_boundaries(), vec![(0, 0.0), (1, 1.5)]);
        assert_eq!(log.count_kind("phase_change"), 3);
        assert_eq!(log.count_kind("maintenance_slot"), 1);
    }

    #[test]
    fn jsonl_round_trips_and_tags() {
        let log = TraceLog {
            events: vec![ev(0.25, Some(2), 4, RunEvent::TrainEnd { work: 10 })],
            dropped: 0,
        };
        let jsonl = log.to_jsonl_tagged(&[("sut", "rmi")]).unwrap();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"sut\":\"rmi\""));
        assert!(jsonl.contains("TrainEnd"));
        // The untagged line parses back into a TraceEvent.
        let plain = log.to_jsonl().unwrap();
        let back: TraceEvent = serde_json::from_str(plain.lines().next().unwrap()).unwrap();
        assert_eq!(back, log.events[0]);
    }
}
