//! Adaptability metrics (Fig. 1b).
//!
//! "We suggest reporting throughput variations by plotting the cumulative
//! queries completed over time. … We can derive a single-value result from
//! this plot by computing the area difference between an ideal system with
//! a constant throughput. … When comparing two systems, the area difference
//! between the two systems provides a single-value result."
//!
//! On top of the curve and areas, this module derives a *recovery time* per
//! phase change: how long after a distribution switch the system needs to
//! regain its steady-state throughput (§IV: "capture the time a system
//! takes to adapt to a new workload").

use crate::record::RunRecord;
use crate::{BenchError, Result};
use lsbench_stats::timeseries::{area_between, Cursor, TimeSeries};
use lsbench_stats::StatsError;
use serde::{Deserialize, Serialize};

/// The full Fig. 1b report for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptabilityReport {
    /// SUT name.
    pub sut_name: String,
    /// `(time, cumulative completions)` sampled curve for plotting.
    pub curve: Vec<(f64, f64)>,
    /// Signed area between the actual curve and the ideal constant-
    /// throughput system (negative = lags the ideal, as in a slow start).
    pub area_vs_ideal: f64,
    /// Same, normalized by `total_ops × duration` into `[-1, 1]`-ish scale
    /// so different runs are comparable.
    pub normalized_area: f64,
    /// Per phase change: `(phase, recovery_seconds)` — time until windowed
    /// throughput first reaches the phase's own steady-state level.
    pub recovery_times: Vec<(usize, f64)>,
    /// Mean throughput per phase (ops/sec), for reference.
    pub phase_throughput: Vec<f64>,
}

/// Number of points the plotted curve is downsampled to.
const CURVE_POINTS: usize = 256;

/// Window (in ops) for recovery-time throughput measurement.
const RECOVERY_WINDOW: usize = 50;

/// Fraction of steady-state throughput that counts as "recovered".
const RECOVERY_LEVEL: f64 = 0.8;

fn metric(e: StatsError) -> BenchError {
    BenchError::Metric(e.to_string())
}

impl AdaptabilityReport {
    /// Builds the report from a run record.
    ///
    /// A handful of passes over `record.ops` where they lie: the record is
    /// never copied, and nothing allocated here grows with it (only a record
    /// edited out of time order is sorted into a copy first). The ideal
    /// system is the two-point curve `(exec_start, 0) → (exec_end, ops)`;
    /// the area against it and the plotted samples come off a [`Cursor`] on
    /// the completion curve, the phase figures off a table with one entry
    /// per phase.
    pub fn from_record(record: &RunRecord) -> Result<Self> {
        if record.ops.is_empty() {
            return Err(BenchError::Metric("empty run record".to_string()));
        }
        let (start, end) = (record.exec_start, record.exec_end);
        if end <= start {
            return Err(metric(StatsError::InvalidParameter(
                "end must exceed start",
            )));
        }
        let completed = record.cumulative_curve()?;
        let ideal = [(start, 0.0), (end, record.ops.len() as f64)];
        let area = area_between(&completed, &ideal[..]).map_err(metric)?;
        let duration = record.exec_duration().max(f64::MIN_POSITIVE);
        let normalized = area / (record.ops.len() as f64 * duration);

        // Downsample the curve for plotting.
        let mut at = Cursor::new(&completed).map_err(metric)?;
        let curve = (0..=CURVE_POINTS)
            .map(|i| {
                let t = start + duration * i as f64 / CURVE_POINTS as f64;
                (t, at.value_at(t))
            })
            .collect();

        let spans = phase_spans(record);
        // A phase no op names has an empty span.
        let span_of = |phase: usize| spans.get(phase).copied().unwrap_or_default();
        let phase_throughput = (0..record.phase_names.len())
            .map(|p| span_of(p).throughput())
            .collect();

        // Recovery times per phase change (skip the initial phase 0 entry).
        let mut recovery_times = Vec::new();
        for &(phase, start_t) in &record.phase_change_times {
            if phase == 0 {
                continue;
            }
            let span = span_of(phase);
            let times = || span.times(record, phase);
            let steady = span.steady_throughput(times());
            if steady <= 0.0 {
                continue;
            }
            let recovery = match span.recovered_at(times(), steady) {
                Some(t) => (t - start_t).max(0.0),
                // Never recovered within the phase.
                None => record.exec_end - start_t,
            };
            recovery_times.push((phase, recovery));
        }

        Ok(AdaptabilityReport {
            sut_name: record.sut_name.clone(),
            curve,
            area_vs_ideal: area,
            normalized_area: normalized,
            recovery_times,
            phase_throughput,
        })
    }

    /// The paper's two-system comparison: signed area between this report's
    /// curve and another's over the overlapping span (positive = `self`
    /// completed more work earlier).
    pub fn area_vs(&self, other: &AdaptabilityReport) -> Result<f64> {
        let a = TimeSeries::from_points(self.curve.clone()).map_err(metric)?;
        let b = TimeSeries::from_points(other.curve.clone()).map_err(metric)?;
        a.area_difference(&b).map_err(metric)
    }
}

/// The paired Fig. 1b metric straight from two run records: signed area
/// between the candidate's and the baseline's *full-resolution* cumulative
/// curves over their overlapping span (positive = candidate completed more
/// work earlier).
///
/// Unlike [`AdaptabilityReport::area_vs`], which compares the downsampled
/// plotting curves, this works on every completion timestamp, so the value
/// is a pure function of the two records — a record saved to the results
/// store ([`crate::results`]) and reloaded reproduces it bit-identically.
/// Exactly antisymmetric: swapping the arguments negates the result. One
/// merge of the two records' completions where they lie, in time order.
pub fn paired_area_difference(baseline: &RunRecord, candidate: &RunRecord) -> Result<f64> {
    if baseline.ops.is_empty() || candidate.ops.is_empty() {
        return Err(BenchError::Metric("empty run record".to_string()));
    }
    let b = baseline.cumulative_curve()?;
    let c = candidate.cumulative_curve()?;
    area_between(&c, &b).map_err(metric)
}

/// Where one phase's completions sit in `record.ops` (in recorded order,
/// which is what "first" and "last" mean here).
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSpan {
    count: usize,
    /// Index of the phase's first op in `record.ops`.
    first_op: usize,
    first_t: f64,
    last_t: f64,
}

/// The span of every phase an op names, by phase, from one pass over the ops.
fn phase_spans(record: &RunRecord) -> Vec<PhaseSpan> {
    let mut spans = vec![PhaseSpan::default(); record.phase_names.len()];
    for (i, op) in record.ops.iter().enumerate() {
        let phase = op.phase as usize;
        if phase >= spans.len() {
            spans.resize(phase + 1, PhaseSpan::default());
        }
        let span = &mut spans[phase];
        if span.count == 0 {
            span.first_op = i;
            span.first_t = op.t_end;
        }
        span.count += 1;
        span.last_t = op.t_end;
    }
    spans
}

impl PhaseSpan {
    /// Mean throughput from the phase's first completion to its last.
    fn throughput(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let span = self.last_t - self.first_t;
        if span > 0.0 {
            (self.count - 1) as f64 / span
        } else {
            0.0
        }
    }

    /// The completion times of `phase`, whose span this is, in recorded order.
    fn times<'a>(&self, record: &'a RunRecord, phase: usize) -> impl Iterator<Item = f64> + 'a {
        record.ops[self.first_op..]
            .iter()
            .filter(move |o| o.phase as usize == phase)
            .map(|o| o.t_end)
            .take(self.count)
    }

    /// Steady-state throughput of the phase: measured over the second half
    /// of its `times` (the first half may include the adaptation transient).
    fn steady_throughput(&self, mut times: impl Iterator<Item = f64>) -> f64 {
        if self.count < 4 {
            return 0.0;
        }
        let half = self.count / 2;
        let middle = times.nth(half).expect("half < count");
        let span = self.last_t - middle;
        if span > 0.0 {
            (self.count - half - 1) as f64 / span
        } else {
            0.0
        }
    }

    /// The first of the phase's `times` at which throughput over the last
    /// `RECOVERY_WINDOW` completions reaches `RECOVERY_LEVEL × steady`.
    fn recovered_at(&self, times: impl Iterator<Item = f64>, steady: f64) -> Option<f64> {
        let window = RECOVERY_WINDOW.min(self.count.saturating_sub(1)).max(1);
        // `ring[i % window]` holds the time of completion `i - window` until
        // completion `i` overwrites it.
        let mut ring = [0.0; RECOVERY_WINDOW];
        for (i, t) in times.enumerate() {
            let behind = std::mem::replace(&mut ring[i % window], t);
            if i < window {
                continue;
            }
            let span = t - behind;
            if span > 0.0 && window as f64 / span >= RECOVERY_LEVEL * steady {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    /// Record with a slow stretch (per-op seconds `slow`) for `n_slow` ops,
    /// then fast (`fast`) for `n_fast`.
    fn two_speed_record(slow: f64, n_slow: usize, fast: f64, n_fast: usize) -> RunRecord {
        let mut ops = Vec::new();
        let mut t = 0.0;
        for _ in 0..n_slow {
            t += slow;
            ops.push(OpRecord {
                t_end: t,
                latency: slow,
                phase: 1,
                ok: true,
                in_transition: false,
            });
        }
        for _ in 0..n_fast {
            t += fast;
            ops.push(OpRecord {
                t_end: t,
                latency: fast,
                phase: 1,
                ok: true,
                in_transition: false,
            });
        }
        RunRecord {
            sut_name: "two-speed".to_string(),
            scenario_name: "adapt".to_string(),
            phase_names: vec!["p0".to_string(), "p1".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0), (1, 0.0)],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    #[test]
    fn slow_start_negative_area() {
        // Slow first half, fast second half — the Fig. 1b learned-system
        // shape: "starts slow and later catches up".
        let r = two_speed_record(1.0, 100, 0.1, 900);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert!(
            report.area_vs_ideal < 0.0,
            "area = {}",
            report.area_vs_ideal
        );
        assert!(report.normalized_area < 0.0);
        assert!(report.normalized_area > -1.0);
    }

    #[test]
    fn constant_speed_near_zero_area() {
        let r = two_speed_record(0.5, 500, 0.5, 500);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert!(
            report.normalized_area.abs() < 0.01,
            "normalized = {}",
            report.normalized_area
        );
    }

    #[test]
    fn area_vs_other_system() {
        let fast = AdaptabilityReport::from_record(&two_speed_record(0.1, 500, 0.1, 500)).unwrap();
        let slow = AdaptabilityReport::from_record(&two_speed_record(0.5, 500, 0.5, 500)).unwrap();
        // The faster system accumulates completions earlier.
        assert!(fast.area_vs(&slow).unwrap() > 0.0);
        assert!(slow.area_vs(&fast).unwrap() < 0.0);
        assert!(fast.area_vs(&fast).unwrap().abs() < 1e-6);
    }

    #[test]
    fn paired_area_matches_sign_and_antisymmetry() {
        let fast = two_speed_record(0.1, 500, 0.1, 500);
        let slow = two_speed_record(0.5, 500, 0.5, 500);
        // Candidate faster than baseline: positive.
        let ahead = paired_area_difference(&slow, &fast).unwrap();
        assert!(ahead > 0.0, "ahead = {ahead}");
        // Exact antisymmetry and exact zero at identity.
        assert_eq!(paired_area_difference(&fast, &slow).unwrap(), -ahead);
        assert_eq!(paired_area_difference(&fast, &fast).unwrap(), 0.0);
        // Empty records are rejected, not silently zeroed.
        let mut empty = two_speed_record(0.1, 5, 0.1, 5);
        empty.ops.clear();
        assert!(paired_area_difference(&empty, &fast).is_err());
    }

    #[test]
    fn recovery_time_detects_transient() {
        // Phase 1 starts slow (adaptation transient) then reaches steady
        // state: recovery time should be near the transient length.
        let r = two_speed_record(1.0, 100, 0.1, 900);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        let (_, recovery) = report.recovery_times[0];
        // Transient lasts 100 s; recovery detection should fall near it.
        assert!((90.0..=120.0).contains(&recovery), "recovery = {recovery}");
    }

    #[test]
    fn instant_steady_state_recovers_fast() {
        let r = two_speed_record(0.2, 500, 0.2, 500);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        let (_, recovery) = report.recovery_times[0];
        assert!(recovery < 15.0, "recovery = {recovery}");
    }

    #[test]
    fn curve_monotone_and_complete() {
        let r = two_speed_record(0.3, 200, 0.1, 200);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        for w in report.curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "curve not monotone");
        }
        assert!((report.curve.last().unwrap().1 - 400.0).abs() < 1.0);
    }

    #[test]
    fn empty_record_rejected() {
        let mut r = two_speed_record(0.1, 10, 0.1, 10);
        r.ops.clear();
        assert!(AdaptabilityReport::from_record(&r).is_err());
    }
}
