//! Specialization metric (Fig. 1a).
//!
//! "We propose to report throughput for each combination of workload and
//! data distribution. However, instead of only reporting the average
//! throughput, the benchmark should report descriptive statistics (e.g.,
//! using a box plot) … Figure 1a shows an example where we select the first
//! workload or data distribution as a baseline" with the X-axis sorted by
//! the Φ similarity value.

use crate::record::RunRecord;
use crate::{BenchError, Result};
use lsbench_stats::descriptive::BoxPlot;
use serde::{Deserialize, Serialize};

/// Per-phase specialization entry: Φ distance plus throughput box plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpecialization {
    /// Phase name (the workload/data distribution label).
    pub phase: String,
    /// Φ distance from the baseline (first) distribution.
    pub phi: f64,
    /// Box-plot statistics of windowed throughput samples (ops/sec).
    pub throughput: BoxPlot,
    /// Whether this phase was a hold-out (out-of-sample) distribution.
    pub holdout: bool,
}

/// The full Fig. 1a report for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecializationReport {
    /// SUT name.
    pub sut_name: String,
    /// Entries sorted ascending by Φ (the paper's X-axis order).
    pub entries: Vec<PhaseSpecialization>,
    /// Operations per throughput window used for sampling.
    pub ops_per_window: usize,
}

impl SpecializationReport {
    /// Builds the report from a run record and the per-phase Φ values
    /// (`phis[i]` is the distance of phase `i` from the baseline; compute
    /// with [`crate::metrics::phi`]). `holdout_phases` flags out-of-sample
    /// phases. One pass over `record.ops` fills every phase's windows.
    pub fn from_record(
        record: &RunRecord,
        phis: &[f64],
        ops_per_window: usize,
        holdout_phases: &[usize],
    ) -> Result<Self> {
        if phis.len() != record.phase_names.len() {
            return Err(BenchError::Metric(format!(
                "need {} phi values, got {}",
                record.phase_names.len(),
                phis.len()
            )));
        }
        if ops_per_window < 2 {
            return Err(BenchError::Metric(
                "ops_per_window must be at least 2".to_string(),
            ));
        }
        let samples = record.window_samples(ops_per_window);
        let mut entries = Vec::with_capacity(record.phase_names.len());
        for (i, name) in record.phase_names.iter().enumerate() {
            let samples = &samples[i];
            if samples.is_empty() {
                continue; // phase produced too few completions to sample
            }
            let throughput = BoxPlot::of(samples).map_err(|e| BenchError::Metric(e.to_string()))?;
            entries.push(PhaseSpecialization {
                phase: name.clone(),
                phi: phis[i],
                throughput,
                holdout: holdout_phases.contains(&i),
            });
        }
        entries.sort_by(|a, b| a.phi.partial_cmp(&b.phi).expect("phi values are finite"));
        Ok(SpecializationReport {
            sut_name: record.sut_name.clone(),
            entries,
            ops_per_window,
        })
    }

    /// The paper's "stability" view: ratio of the worst phase's median
    /// throughput to the best phase's — 1.0 means perfectly even
    /// specialization, small values mean the system collapses on some
    /// distributions.
    pub fn worst_to_best_ratio(&self) -> Option<f64> {
        let medians: Vec<f64> = self
            .entries
            .iter()
            .map(|e| e.throughput.five.median)
            .collect();
        if medians.is_empty() {
            return None;
        }
        let best = medians.iter().cloned().fold(f64::MIN, f64::max);
        let worst = medians.iter().cloned().fold(f64::MAX, f64::min);
        if best <= 0.0 {
            None
        } else {
            Some(worst / best)
        }
    }
}

/// Deltas between two box plots, stat by stat (candidate − baseline) —
/// the Fig. 1a paired view: distribution shape differences, not means.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStatDelta {
    /// Median delta.
    pub median: f64,
    /// First-quartile delta.
    pub q1: f64,
    /// Third-quartile delta.
    pub q3: f64,
    /// Lower-whisker delta.
    pub whisker_lo: f64,
    /// Upper-whisker delta.
    pub whisker_hi: f64,
}

impl BoxStatDelta {
    /// Candidate minus baseline, stat by stat.
    pub fn between(baseline: &BoxPlot, candidate: &BoxPlot) -> Self {
        BoxStatDelta {
            median: candidate.five.median - baseline.five.median,
            q1: candidate.five.q1 - baseline.five.q1,
            q3: candidate.five.q3 - baseline.five.q3,
            whisker_lo: candidate.whisker_lo - baseline.whisker_lo,
            whisker_hi: candidate.whisker_hi - baseline.whisker_hi,
        }
    }

    /// True when every stat delta is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.median == 0.0
            && self.q1 == 0.0
            && self.q3 == 0.0
            && self.whisker_lo == 0.0
            && self.whisker_hi == 0.0
    }
}

/// One phase's head-to-head throughput comparison: both systems' windowed-
/// throughput box plots plus their stat-wise delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBoxDelta {
    /// Phase name (matched by name across the two records).
    pub phase: String,
    /// Baseline throughput box plot (ops/sec).
    pub baseline: BoxPlot,
    /// Candidate throughput box plot (ops/sec).
    pub candidate: BoxPlot,
    /// Candidate − baseline, stat by stat.
    pub delta: BoxStatDelta,
}

/// The paired Fig. 1a metric: per-phase windowed-throughput box-plot
/// deltas between two records. Phases are matched by *name* in the
/// baseline's order; phases missing from the candidate, or with too few
/// completions on either side to fill one window, are skipped.
pub fn paired_phase_deltas(
    baseline: &RunRecord,
    candidate: &RunRecord,
    ops_per_window: usize,
) -> Result<Vec<PhaseBoxDelta>> {
    if ops_per_window < 2 {
        return Err(BenchError::Metric(
            "ops_per_window must be at least 2".to_string(),
        ));
    }
    let (b_all, c_all) = (
        baseline.window_samples(ops_per_window),
        candidate.window_samples(ops_per_window),
    );
    let mut out = Vec::new();
    for (bi, name) in baseline.phase_names.iter().enumerate() {
        let Some(ci) = candidate.phase_names.iter().position(|n| n == name) else {
            continue;
        };
        let (b_samples, c_samples) = (&b_all[bi], &c_all[ci]);
        if b_samples.is_empty() || c_samples.is_empty() {
            continue;
        }
        let b = BoxPlot::of(b_samples).map_err(|e| BenchError::Metric(e.to_string()))?;
        let c = BoxPlot::of(c_samples).map_err(|e| BenchError::Metric(e.to_string()))?;
        out.push(PhaseBoxDelta {
            phase: name.clone(),
            delta: BoxStatDelta::between(&b, &c),
            baseline: b,
            candidate: c,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    fn record_with_speeds(speeds: &[f64]) -> RunRecord {
        // Each phase completes 100 ops at the given ops/sec.
        let mut ops = Vec::new();
        let mut t = 0.0;
        for (phase, &speed) in speeds.iter().enumerate() {
            for _ in 0..100 {
                t += 1.0 / speed;
                ops.push(OpRecord {
                    t_end: t,
                    latency: 1.0 / speed,
                    phase: phase as u16,
                    ok: true,
                    in_transition: false,
                });
            }
        }
        RunRecord {
            sut_name: "fake".to_string(),
            scenario_name: "spec".to_string(),
            phase_names: (0..speeds.len()).map(|i| format!("p{i}")).collect(),
            ops,
            phase_change_times: vec![],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    #[test]
    fn report_builds_and_sorts_by_phi() {
        let r = record_with_speeds(&[100.0, 50.0, 200.0]);
        let report = SpecializationReport::from_record(&r, &[0.0, 0.9, 0.4], 10, &[]).unwrap();
        assert_eq!(report.entries.len(), 3);
        // Sorted by phi: p0 (0.0), p2 (0.4), p1 (0.9).
        assert_eq!(report.entries[0].phase, "p0");
        assert_eq!(report.entries[1].phase, "p2");
        assert_eq!(report.entries[2].phase, "p1");
        // Median throughputs track the configured speeds.
        assert!((report.entries[0].throughput.five.median - 100.0).abs() < 5.0);
        assert!((report.entries[2].throughput.five.median - 50.0).abs() < 3.0);
    }

    #[test]
    fn holdout_flagging() {
        let r = record_with_speeds(&[100.0, 50.0]);
        let report = SpecializationReport::from_record(&r, &[0.0, 0.5], 10, &[1]).unwrap();
        assert!(!report.entries[0].holdout);
        assert!(report.entries[1].holdout);
    }

    #[test]
    fn worst_to_best_ratio() {
        let r = record_with_speeds(&[100.0, 50.0]);
        let report = SpecializationReport::from_record(&r, &[0.0, 0.5], 10, &[]).unwrap();
        let ratio = report.worst_to_best_ratio().unwrap();
        assert!((ratio - 0.5).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn paired_deltas_match_phases_by_name() {
        let slow = record_with_speeds(&[100.0, 50.0]);
        let fast = record_with_speeds(&[200.0, 150.0]);
        let deltas = paired_phase_deltas(&slow, &fast, 10).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].phase, "p0");
        // The candidate is faster in both phases: positive median deltas.
        assert!(deltas.iter().all(|d| d.delta.median > 0.0));
        // Identity comparison: every stat delta exactly zero.
        let same = paired_phase_deltas(&slow, &slow, 10).unwrap();
        assert!(same.iter().all(|d| d.delta.is_zero()));
        // Phases absent on one side are skipped, not errors.
        let three = record_with_speeds(&[100.0, 50.0, 25.0]);
        assert_eq!(paired_phase_deltas(&three, &slow, 10).unwrap().len(), 2);
        assert!(paired_phase_deltas(&slow, &fast, 1).is_err());
    }

    #[test]
    fn phi_length_mismatch_rejected() {
        let r = record_with_speeds(&[100.0]);
        assert!(SpecializationReport::from_record(&r, &[0.0, 1.0], 10, &[]).is_err());
        assert!(SpecializationReport::from_record(&r, &[0.0], 1, &[]).is_err());
    }
}
