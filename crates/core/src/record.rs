//! Run records: everything a benchmark run produced.
//!
//! The metric families (Fig. 1a–1d) are all *derived* from one record
//! format: a vector of per-operation completions with timestamps, latencies
//! and phase labels, plus training information and the SUT's final metric
//! counters. Keeping the raw record (rather than aggregates) is what lets
//! the benchmark report distributions, transitions, and bands instead of a
//! single average (Lesson 2).

use crate::faults::FaultStats;
use crate::{BenchError, Result};
use lsbench_stats::timeseries::Curve;
use lsbench_sut::sut::SutMetrics;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Completion time (virtual seconds since run start).
    pub t_end: f64,
    /// Latency in virtual seconds.
    pub latency: f64,
    /// Scheduled phase index.
    pub phase: u16,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Whether the operation fell inside a gradual-transition window.
    pub in_transition: bool,
}

/// Training-phase outcome.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainInfo {
    /// Work units spent training offline.
    pub work: u64,
    /// Virtual seconds the training phase took.
    pub seconds: f64,
}

/// A complete run record for one SUT on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// SUT display name.
    pub sut_name: String,
    /// Scenario name.
    pub scenario_name: String,
    /// Phase names, indexed by [`OpRecord::phase`].
    pub phase_names: Vec<String>,
    /// Per-operation records in completion order.
    pub ops: Vec<OpRecord>,
    /// Time each phase first became active: `(phase, time)`.
    pub phase_change_times: Vec<(usize, f64)>,
    /// Offline training outcome.
    pub train: TrainInfo,
    /// Virtual time when execution (post-training) started.
    pub exec_start: f64,
    /// Virtual time when execution finished.
    pub exec_end: f64,
    /// SUT metric counters at the end of the run.
    pub final_metrics: SutMetrics,
    /// Work-to-time conversion rate used (work units per second).
    pub work_units_per_second: f64,
    /// Fault-injection accounting (all zero for unfaulted runs).
    pub faults: FaultStats,
}

impl RunRecord {
    /// Number of completed operations.
    pub fn completed(&self) -> usize {
        self.ops.len()
    }

    /// Number of failed/unsupported operations.
    pub fn failures(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Wall span of the execution portion.
    pub fn exec_duration(&self) -> f64 {
        self.exec_end - self.exec_start
    }

    /// Average throughput over the execution portion (ops per virtual
    /// second) — the *traditional* metric, kept for comparison.
    pub fn mean_throughput(&self) -> f64 {
        if self.exec_duration() <= 0.0 {
            0.0
        } else {
            self.ops.len() as f64 / self.exec_duration()
        }
    }

    /// Latencies of operations in phase `p` (seconds).
    pub fn phase_latencies(&self, p: usize) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.phase as usize == p)
            .map(|o| o.latency)
            .collect()
    }

    /// Latencies of all operations.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency).collect()
    }

    /// Cumulative completions over time (Fig. 1b), read off `ops` in place.
    ///
    /// A run records its completions in time order, and then this costs one
    /// pass and no memory. Only an edited artifact can step back in time;
    /// its completions are sorted into a copy first, so the curve is the
    /// same function of the set of completion times either way.
    pub fn cumulative_curve(&self) -> Result<CompletionCurve<'_>> {
        let mut prev = f64::NEG_INFINITY;
        let in_order = self.ops.iter().all(|o| {
            let ordered = o.t_end >= prev;
            prev = o.t_end;
            ordered
        });
        let ops = if in_order {
            Cow::Borrowed(&self.ops[..])
        } else {
            if self.ops.iter().any(|o| o.t_end.is_nan()) {
                return Err(BenchError::Metric(
                    "completion time is not a number".to_string(),
                ));
            }
            let mut sorted = self.ops.clone();
            sorted.sort_by(|a, b| a.t_end.partial_cmp(&b.t_end).expect("checked for NaN"));
            Cow::Owned(sorted)
        };
        Ok(CompletionCurve {
            start: self.exec_start,
            ops,
        })
    }

    /// Throughput measured over consecutive windows of `ops_per_window`
    /// completions within phase `p` (ops/second). Used by the Fig. 1a
    /// box plots: each window contributes one throughput sample.
    pub fn phase_throughput_samples(&self, p: usize, ops_per_window: usize) -> Vec<f64> {
        let times: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.phase as usize == p)
            .map(|o| o.t_end)
            .collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i + ops_per_window <= times.len() {
            let span = times[i + ops_per_window - 1] - times[i];
            if span > 0.0 {
                out.push((ops_per_window - 1) as f64 / span);
            }
            i += ops_per_window;
        }
        out
    }

    /// Time the given phase became active, if it ever did.
    pub fn phase_start_time(&self, p: usize) -> Option<f64> {
        self.phase_change_times
            .iter()
            .find(|&&(phase, _)| phase == p)
            .map(|&(_, t)| t)
    }
}

/// A run's cumulative-completion curve as a [`Curve`]: it starts at
/// `(exec_start, 0)`, and its `i`-th point after that is the `i`-th
/// completion in time order, `(t_end, i)`, a completion stamped before
/// `exec_start` counting from `exec_start`.
#[derive(Debug, Clone)]
pub struct CompletionCurve<'a> {
    start: f64,
    /// In `t_end` order.
    ops: Cow<'a, [OpRecord]>,
}

impl Curve for CompletionCurve<'_> {
    fn len(&self) -> usize {
        self.ops.len() + 1
    }

    #[inline]
    fn point(&self, i: usize) -> (f64, f64) {
        match i.checked_sub(1) {
            None => (self.start, 0.0),
            Some(op) => (self.ops[op].t_end.max(self.start), i as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic record: phase 0 at 1 op/sec for 10s, phase 1 at 5 ops/sec
    /// for 10s.
    pub(crate) fn synthetic() -> RunRecord {
        let mut ops = Vec::new();
        for i in 0..10 {
            ops.push(OpRecord {
                t_end: i as f64 + 1.0,
                latency: 1.0,
                phase: 0,
                ok: true,
                in_transition: false,
            });
        }
        for i in 0..50 {
            ops.push(OpRecord {
                t_end: 10.0 + (i as f64 + 1.0) * 0.2,
                latency: 0.2,
                phase: 1,
                ok: i % 10 != 0,
                in_transition: false,
            });
        }
        RunRecord {
            sut_name: "synthetic".to_string(),
            scenario_name: "test".to_string(),
            phase_names: vec!["slow".to_string(), "fast".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0), (1, 10.0)],
            train: TrainInfo {
                work: 100,
                seconds: 0.1,
            },
            exec_start: 0.0,
            exec_end: 20.0,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1000.0,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn counters() {
        let r = synthetic();
        assert_eq!(r.completed(), 60);
        assert_eq!(r.failures(), 5);
        assert_eq!(r.exec_duration(), 20.0);
        assert!((r.mean_throughput() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn phase_latencies_split() {
        let r = synthetic();
        assert_eq!(r.phase_latencies(0).len(), 10);
        assert_eq!(r.phase_latencies(1).len(), 50);
        assert!(r.phase_latencies(0).iter().all(|&l| l == 1.0));
        assert!(r.phase_latencies(2).is_empty());
    }

    #[test]
    fn throughput_samples_reflect_phase_speed() {
        let r = synthetic();
        let slow = r.phase_throughput_samples(0, 5);
        let fast = r.phase_throughput_samples(1, 5);
        assert!(!slow.is_empty() && !fast.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&slow) - 1.0).abs() < 0.01, "slow = {slow:?}");
        assert!((mean(&fast) - 5.0).abs() < 0.1, "fast = {fast:?}");
    }

    #[test]
    fn cumulative_curve_total() {
        let r = synthetic();
        let c = r.cumulative_curve().unwrap();
        assert_eq!(c.len(), 61);
        assert_eq!(c.point(0), (0.0, 0.0));
        assert_eq!(c.point(10), (10.0, 10.0));
        assert_eq!(c.point(60), (20.0, 60.0));
    }

    #[test]
    fn cumulative_curve_sorts_what_an_edit_left_out_of_order() {
        let mut r = synthetic();
        r.exec_start = 2.5;
        r.ops.swap(0, 59);
        let c = r.cumulative_curve().unwrap();
        let times: Vec<f64> = (0..c.len()).map(|i| c.point(i).0).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Completions from before the window count from its start.
        assert_eq!(times[..4], [2.5, 2.5, 2.5, 3.0]);
        assert_eq!(c.point(60), (20.0, 60.0));
        r.ops[7].t_end = f64::NAN;
        assert!(r.cumulative_curve().is_err());
    }

    /// A saved record must round-trip *completely*: `final_metrics` used
    /// to be `#[serde(skip)]`, which silently zeroed the cost counters of
    /// any archived run. Equality here pins the lossless contract the
    /// results store depends on.
    #[test]
    fn serde_round_trips_the_complete_record() {
        let mut r = synthetic();
        r.final_metrics = SutMetrics {
            size_bytes: 4096,
            training_work: 1234,
            execution_work: 98765,
            model_count: 3,
            adaptations: 7,
            label_collection_work: 111,
        };
        r.faults.injected = 5;
        r.faults.retries = 2;
        let json = serde_json::to_string(&r).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.final_metrics, r.final_metrics);
    }

    #[test]
    fn phase_start_lookup() {
        let r = synthetic();
        assert_eq!(r.phase_start_time(1), Some(10.0));
        assert_eq!(r.phase_start_time(9), None);
    }
}
