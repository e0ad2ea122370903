//! SLA-band metrics (Fig. 1c).
//!
//! "We also propose to report query latency bands at, e.g., 1-second or
//! 10-second intervals throughout execution. Each query latency band
//! represents the number of completed queries within the interval
//! (throughput), split into two categories depending on whether the query
//! finished within the allotted Service-Level Agreement (SLA) time. …
//! the SLA threshold should ideally be determined based on a baseline
//! system's query latency statistics on the same hardware and workload
//! distribution. … A single-value metric for the adjustment speed can also
//! be obtained as the sum of query times above the SLA threshold over the
//! first N queries after a distribution change."
//!
//! The multi-band variant ("green-yellow-orange-red") is implemented too.

use crate::record::{OpRecord, RunRecord};
use crate::{BenchError, Result};
use lsbench_stats::descriptive::quantile;
use serde::{Deserialize, Serialize};

/// Equal band intervals a headline report (the suite, the sweep and
/// `compare`) splits each record's execution span into.
pub(crate) const SLA_INTERVALS: f64 = 40.0;
/// N of the headline adjustment-speed metric.
pub(crate) const ADJUSTMENT_N: usize = 2_000;

/// How the SLA threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlaPolicy {
    /// Fixed threshold in seconds.
    Fixed {
        /// Latency threshold in virtual seconds.
        threshold: f64,
    },
    /// `multiplier ×` the baseline system's p99 latency (the paper's
    /// calibration recommendation).
    FromBaselineP99 {
        /// Multiplier on the baseline p99.
        multiplier: f64,
    },
}

impl SlaPolicy {
    /// Resolves the policy to a concrete threshold, given the baseline
    /// record when required.
    pub fn resolve(&self, baseline: Option<&RunRecord>) -> Result<f64> {
        match *self {
            SlaPolicy::Fixed { threshold } => {
                if threshold > 0.0 {
                    Ok(threshold)
                } else {
                    Err(BenchError::Metric(
                        "SLA threshold must be positive".to_string(),
                    ))
                }
            }
            SlaPolicy::FromBaselineP99 { multiplier } => {
                let baseline = baseline.ok_or_else(|| {
                    BenchError::Metric("FromBaselineP99 requires a baseline run record".to_string())
                })?;
                let lats = baseline.all_latencies();
                let p99 = quantile(&lats, 0.99).map_err(|e| BenchError::Metric(e.to_string()))?;
                Ok(p99 * multiplier)
            }
        }
    }
}

/// One interval's band: completions within / violating the SLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Band {
    /// Queries completed within the SLA in this interval.
    pub within: usize,
    /// Queries completed but over the SLA.
    pub violated: usize,
}

impl Band {
    /// Total completions in the interval.
    pub fn total(&self) -> usize {
        self.within + self.violated
    }
}

/// Multi-band breakdown of one interval by latency relative to the SLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ColorBand {
    /// ≤ 0.5× SLA.
    pub green: usize,
    /// 0.5–1× SLA.
    pub yellow: usize,
    /// 1–2× SLA.
    pub orange: usize,
    /// > 2× SLA.
    pub red: usize,
}

/// The full Fig. 1c report for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaReport {
    /// SUT name.
    pub sut_name: String,
    /// The resolved SLA threshold in seconds.
    pub threshold: f64,
    /// Interval width in seconds.
    pub interval: f64,
    /// Two-way bands per interval.
    pub bands: Vec<Band>,
    /// Four-way color bands per interval.
    pub color_bands: Vec<ColorBand>,
    /// Overall SLA violation fraction.
    pub violation_fraction: f64,
    /// Adjustment speed per phase change: `(phase, Σ over-SLA latency over
    /// the first N queries after the change)` — lower is faster adjustment.
    pub adjustment_speed: Vec<(usize, f64)>,
    /// N used for adjustment speed.
    pub adjustment_n: usize,
}

impl SlaReport {
    /// Builds the report. `interval` is the band width in virtual seconds;
    /// `adjustment_n` is the N of the adjustment-speed metric.
    ///
    /// Once a pass has found the record in time order (a run's always is),
    /// a binary search finds where each band's ops end, one division-free
    /// loop counts their colors, and each adjustment window starts where a
    /// binary search puts the change. A record edited out of order is
    /// banded op by op and scanned from its first op per change.
    pub fn from_record(
        record: &RunRecord,
        threshold: f64,
        interval: f64,
        adjustment_n: usize,
    ) -> Result<Self> {
        if record.ops.is_empty() {
            return Err(BenchError::Metric("empty run record".to_string()));
        }
        if threshold <= 0.0 || interval <= 0.0 {
            return Err(BenchError::Metric(
                "threshold and interval must be positive".to_string(),
            ));
        }
        let start = record.exec_start;
        let end = record.exec_end.max(start + interval);
        // A span below one ulp of `start` is one interval, not none.
        let n_intervals = (((end - start) / interval).ceil() as usize).max(1);
        // A failed or timed-out query cannot satisfy the SLA no matter how
        // fast it came back: it is red, and only green and yellow ops
        // (successful, within the threshold) count as `within`.
        let mut color_bands = vec![ColorBand::default(); n_intervals];
        let interval_of =
            |op: &OpRecord| (((op.t_end - start) / interval) as usize).min(n_intervals - 1);
        let in_order = record.in_time_order();
        let mut from = 0;
        while from < record.ops.len() {
            let idx = interval_of(&record.ops[from]);
            // In time order, the ops of one interval follow each other.
            let to = if in_order {
                from + record.ops[from..].partition_point(|op| interval_of(op) == idx)
            } else {
                from + 1
            };
            add_run(&mut color_bands[idx], &record.ops[from..to], threshold);
            from = to;
        }
        let bands: Vec<Band> = color_bands
            .iter()
            .map(|c| Band {
                within: c.green + c.yellow,
                violated: c.orange + c.red,
            })
            .collect();
        let violated_total: usize = bands.iter().map(|b| b.violated).sum();

        // Adjustment speed after each phase change.
        let mut adjustment_speed = Vec::new();
        for &(phase, t) in &record.phase_change_times {
            if phase == 0 {
                continue;
            }
            // Strictly after the change: a query completing exactly at the
            // change instant belongs to the old distribution. In a record in
            // time order those queries start where a binary search says.
            let over = |o: &OpRecord| (o.latency - threshold).max(0.0);
            let over_sla: f64 = if in_order {
                let after = record.ops.partition_point(|o| o.t_end <= t);
                record.ops[after..]
                    .iter()
                    .take(adjustment_n)
                    .map(over)
                    .sum()
            } else {
                let after = record.ops.iter().filter(|o| o.t_end > t);
                after.take(adjustment_n).map(over).sum()
            };
            adjustment_speed.push((phase, over_sla));
        }

        Ok(SlaReport {
            sut_name: record.sut_name.clone(),
            threshold,
            interval,
            bands,
            color_bands,
            violation_fraction: violated_total as f64 / record.ops.len() as f64,
            adjustment_speed,
            adjustment_n,
        })
    }

    /// The headline report: `record`'s execution span in
    /// [`SLA_INTERVALS`] bands, adjustment speed over [`ADJUSTMENT_N`]
    /// queries.
    pub(crate) fn headline(record: &RunRecord, threshold: f64) -> Result<Self> {
        let interval = band_width(record, SLA_INTERVALS);
        SlaReport::from_record(record, threshold, interval, ADJUSTMENT_N)
    }

    /// The worst adjustment speed over every phase change (0 without one).
    pub(crate) fn worst_adjustment(&self) -> f64 {
        self.adjustment_speed
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max)
    }
}

/// Adds `ops` to `band`.
fn add_run(band: &mut ColorBand, ops: &[OpRecord], threshold: f64) {
    let (half, twice) = (0.5 * threshold, 2.0 * threshold);
    // How many succeeded within half the threshold, the threshold and twice
    // it; each count holds the one before.
    let mut within = [0usize; 3];
    for op in ops {
        let under = |bound: f64| usize::from(op.ok && op.latency <= bound);
        within[0] += under(half);
        within[1] += under(threshold);
        within[2] += under(twice);
    }
    band.green += within[0];
    band.yellow += within[1] - within[0];
    band.orange += within[2] - within[1];
    band.red += ops.len() - within[2];
}

/// The band width that splits `record`'s execution span into `intervals`
/// equal windows.
fn band_width(record: &RunRecord, intervals: f64) -> f64 {
    (record.exec_duration() / intervals).max(f64::MIN_POSITIVE)
}

/// Paired Fig. 1c evaluation: resolves `policy` against the *baseline*
/// record (the paper's calibration recommendation — "the SLA threshold
/// should ideally be determined based on a baseline system's query latency
/// statistics") and evaluates **both** records against that one threshold,
/// so the two reports are directly comparable. Each record is banded over
/// its own execution span split into `intervals` equal windows.
///
/// Returns `(baseline_report, candidate_report)`.
pub fn paired_sla_reports(
    baseline: &RunRecord,
    candidate: &RunRecord,
    policy: &SlaPolicy,
    intervals: f64,
    adjustment_n: usize,
) -> Result<(SlaReport, SlaReport)> {
    if intervals < 1.0 {
        return Err(BenchError::Metric(
            "interval count must be at least 1".to_string(),
        ));
    }
    let threshold = policy.resolve(Some(baseline))?;
    let report = |record: &RunRecord| {
        SlaReport::from_record(
            record,
            threshold,
            band_width(record, intervals),
            adjustment_n,
        )
    };
    Ok((report(baseline)?, report(candidate)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    /// 100 fast ops (0.01 s), then 20 slow ops (0.5 s) right after a phase
    /// change, then 100 fast again.
    fn spike_record() -> RunRecord {
        let mut ops = Vec::new();
        let mut t = 0.0;
        let mut push = |t: &mut f64, latency: f64, phase: u16| {
            *t += latency;
            ops.push(OpRecord {
                t_end: *t,
                latency,
                phase,
                ok: true,
                in_transition: false,
            });
        };
        for _ in 0..100 {
            push(&mut t, 0.01, 0);
        }
        let change_t = t;
        for _ in 0..20 {
            push(&mut t, 0.5, 1);
        }
        for _ in 0..100 {
            push(&mut t, 0.01, 1);
        }
        RunRecord {
            sut_name: "spike".to_string(),
            scenario_name: "sla".to_string(),
            phase_names: vec!["a".to_string(), "b".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0), (1, change_t)],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    /// One op per `(latency, ok)`, back to back in one phase, under an
    /// SLA of 0.1 s, as one band.
    fn report_of(ops: &[(f64, bool)]) -> SlaReport {
        let mut r = spike_record();
        let mut t = 0.0;
        r.ops = ops
            .iter()
            .map(|&(latency, ok)| {
                t += latency;
                OpRecord {
                    t_end: t,
                    latency,
                    phase: 0,
                    ok,
                    in_transition: false,
                }
            })
            .collect();
        r.phase_change_times = vec![(0, 0.0)];
        r.exec_end = t;
        SlaReport::from_record(&r, 0.1, 10.0, 10).unwrap()
    }

    fn bands(report: &SlaReport) -> (Band, ColorBand) {
        assert_eq!(report.bands.len(), 1);
        (report.bands[0], report.color_bands[0])
    }

    /// "Whether the query finished within the allotted SLA time": a query
    /// whose latency equals the threshold finished within it. It is
    /// yellow, the 0.5–1× band.
    #[test]
    fn latency_at_the_threshold_is_within_and_yellow() {
        let (band, color) = bands(&report_of(&[(0.1, true)]));
        assert_eq!((band.within, band.violated), (1, 0));
        assert_eq!((color.green, color.yellow, color.orange), (0, 1, 0));
    }

    /// Green is "≤ 0.5× SLA": a query at exactly half the threshold is
    /// green, not yellow.
    #[test]
    fn half_the_threshold_is_green() {
        let (band, color) = bands(&report_of(&[(0.5 * 0.1, true)]));
        assert_eq!(band.within, 1);
        assert_eq!((color.green, color.yellow), (1, 0));
    }

    /// Orange is "1–2× SLA": a query at exactly twice the threshold is
    /// orange, not red, and violates the SLA.
    #[test]
    fn twice_the_threshold_is_orange() {
        let (band, color) = bands(&report_of(&[(2.0 * 0.1, true)]));
        assert_eq!((band.within, band.violated), (0, 1));
        assert_eq!((color.orange, color.red), (1, 0));
    }

    /// A failed query cannot satisfy the SLA, however fast it came back:
    /// at latency 0 it is violated and red.
    #[test]
    fn a_failed_op_at_zero_latency_is_violated_and_red() {
        let (band, color) = bands(&report_of(&[(0.0, false)]));
        assert_eq!((band.within, band.violated), (0, 1));
        assert_eq!((color.green, color.red), (0, 1));
    }

    #[test]
    fn failed_ops_violate_the_sla_regardless_of_latency() {
        let mut r = spike_record();
        // Fail five fast ops: fast enough for green, but failed queries
        // must land in the red band and count as violations.
        for op in r.ops.iter_mut().take(5) {
            op.ok = false;
        }
        let report = SlaReport::from_record(&r, 0.1, 1.0, 50).unwrap();
        let within: usize = report.bands.iter().map(|b| b.within).sum();
        let violated: usize = report.bands.iter().map(|b| b.violated).sum();
        assert_eq!(within, 220 - 20 - 5);
        assert_eq!(violated, 25);
        let red: usize = report.color_bands.iter().map(|c| c.red).sum();
        assert_eq!(red, 25, "failed ops are red, not green");
        assert!((report.violation_fraction - 25.0 / 220.0).abs() < 1e-12);
    }

    #[test]
    fn bands_conserve_ops() {
        let r = spike_record();
        let report = SlaReport::from_record(&r, 0.1, 1.0, 50).unwrap();
        let total: usize = report.bands.iter().map(|b| b.total()).sum();
        assert_eq!(total, 220);
        let color_total: usize = report
            .color_bands
            .iter()
            .map(|c| c.green + c.yellow + c.orange + c.red)
            .sum();
        assert_eq!(color_total, 220);
    }

    #[test]
    fn violations_counted() {
        let r = spike_record();
        let report = SlaReport::from_record(&r, 0.1, 1.0, 50).unwrap();
        let violated: usize = report.bands.iter().map(|b| b.violated).sum();
        assert_eq!(violated, 20); // exactly the slow ops
        assert!((report.violation_fraction - 20.0 / 220.0).abs() < 1e-9);
    }

    #[test]
    fn color_bands_classify() {
        let r = spike_record();
        // threshold 0.1: 0.01 s ops are green (≤ 0.05); 0.5 s ops are red (> 0.2).
        let report = SlaReport::from_record(&r, 0.1, 1.0, 50).unwrap();
        let green: usize = report.color_bands.iter().map(|c| c.green).sum();
        let red: usize = report.color_bands.iter().map(|c| c.red).sum();
        assert_eq!(green, 200);
        assert_eq!(red, 20);
    }

    #[test]
    fn adjustment_speed_measures_spike() {
        let r = spike_record();
        let report = SlaReport::from_record(&r, 0.1, 1.0, 50).unwrap();
        let (phase, speed) = report.adjustment_speed[0];
        assert_eq!(phase, 1);
        // 20 ops over SLA by 0.4 s each = 8.0.
        assert!((speed - 8.0).abs() < 1e-9, "speed = {speed}");
    }

    #[test]
    fn adjustment_n_limits_window() {
        let r = spike_record();
        // With N = 10 only 10 of the slow ops count. The last fast op
        // completes exactly at the change instant, so it is not one of them.
        let report = SlaReport::from_record(&r, 0.1, 1.0, 10).unwrap();
        let (_, speed) = report.adjustment_speed[0];
        assert!((speed - 4.0).abs() < 1e-9, "speed = {speed}");
    }

    #[test]
    fn policy_resolution() {
        let r = spike_record();
        assert_eq!(
            SlaPolicy::Fixed { threshold: 0.2 }.resolve(None).unwrap(),
            0.2
        );
        assert!(SlaPolicy::Fixed { threshold: 0.0 }.resolve(None).is_err());
        let from_baseline = SlaPolicy::FromBaselineP99 { multiplier: 2.0 }
            .resolve(Some(&r))
            .unwrap();
        // p99 of the latencies is 0.5 (the slow ops are ~9% of the run);
        // actually 20/220 ≈ 9% > 1%, so p99 = 0.5 → threshold 1.0.
        assert!((from_baseline - 1.0).abs() < 1e-9, "got {from_baseline}");
        assert!(SlaPolicy::FromBaselineP99 { multiplier: 2.0 }
            .resolve(None)
            .is_err());
    }

    #[test]
    fn paired_reports_share_the_baseline_calibrated_threshold() {
        let baseline = spike_record();
        let mut candidate = spike_record();
        candidate.sut_name = "cand".to_string();
        // Calibrated from the baseline: p99 = 0.5 → threshold 1.0 applies
        // to both sides, whatever the candidate's own latencies are.
        let (b, c) = paired_sla_reports(
            &baseline,
            &candidate,
            &SlaPolicy::FromBaselineP99 { multiplier: 2.0 },
            10.0,
            50,
        )
        .unwrap();
        assert_eq!(b.threshold, c.threshold);
        assert!((b.threshold - 1.0).abs() < 1e-9, "got {}", b.threshold);
        assert_eq!(b.sut_name, "spike");
        assert_eq!(c.sut_name, "cand");
        assert!(paired_sla_reports(
            &baseline,
            &candidate,
            &SlaPolicy::Fixed { threshold: 0.1 },
            0.5,
            50
        )
        .is_err());
    }

    #[test]
    fn a_span_below_an_ulp_of_its_start_is_one_band() {
        let mut r = spike_record();
        r.ops.truncate(3);
        for op in &mut r.ops {
            op.t_end = 1.0;
        }
        (r.exec_start, r.exec_end) = (1.0, 1.0);
        let report = SlaReport::from_record(&r, 0.1, f64::MIN_POSITIVE, 10).unwrap();
        assert_eq!(report.bands.len(), 1);
        assert_eq!(report.bands[0].total(), 3);
        assert_eq!(report.color_bands.len(), 1);
        let policy = SlaPolicy::Fixed { threshold: 0.1 };
        let (b, c) = paired_sla_reports(&r, &r, &policy, 10.0, 10).unwrap();
        assert_eq!((b.bands.len(), c.bands.len()), (1, 1));
        assert_eq!(c.bands[0].total(), 3);
    }

    #[test]
    fn invalid_params_rejected() {
        let r = spike_record();
        assert!(SlaReport::from_record(&r, 0.0, 1.0, 10).is_err());
        assert!(SlaReport::from_record(&r, 0.1, 0.0, 10).is_err());
        let mut empty = r;
        empty.ops.clear();
        assert!(SlaReport::from_record(&empty, 0.1, 1.0, 10).is_err());
    }
}
