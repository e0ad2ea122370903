//! The paired-comparison engine: two [`RunRecord`]s in, one
//! [`ComparisonReport`] out.
//!
//! Every headline number the paper proposes is comparative, and this module
//! computes each of them *pairwise* rather than by diffing two solo
//! reports:
//!
//! * Fig. 1b adaptability — the signed area between the two cumulative-query
//!   curves at full resolution ([`paired_area_difference`]), positive when
//!   the candidate is ahead.
//! * Fig. 1a specialization — per-phase windowed-throughput box-plot deltas
//!   ([`paired_phase_deltas`]): distribution-shape differences, not mean
//!   differences.
//! * Fig. 1c SLA bands — one threshold calibrated from the **baseline**
//!   record's p99 ([`paired_sla_reports`]), applied to both sides.
//! * Fig. 1d cost — dollars per completed query on a reference hardware
//!   profile, as a candidate/baseline ratio.
//! * Fault accounting — injected/retry/timeout/crash deltas, so chaos runs
//!   can be compared on equal footing.
//!
//! Deltas are absolute differences (candidate − baseline), never
//! percentages: absolute deltas negate exactly when the operands swap,
//! which the property suite pins down to the bit. The SLA and cost
//! sections are the documented exceptions — the threshold is calibrated
//! from whichever record is the baseline, and cost is a ratio — so only
//! the signed-delta subset is antisymmetric.

use crate::faults::FaultStats;
use crate::metrics::adaptability::paired_area_difference;
use crate::metrics::cost::cost_per_query;
use crate::metrics::sla::{paired_sla_reports, SlaPolicy, ADJUSTMENT_N, SLA_INTERVALS};
use crate::metrics::specialization::{paired_phase_deltas, PhaseBoxDelta};
use crate::record::RunRecord;
use crate::results::SCHEMA_VERSION;
use crate::{BenchError, Result};
use lsbench_stats::descriptive::quantile;
use lsbench_sut::cost::HardwareProfile;
use serde::{Deserialize, Serialize};

/// Throughput window (completed ops per sample) for the Fig. 1a paired
/// box plots.
const OPS_PER_WINDOW: usize = 100;
/// SLA threshold = this multiplier × the baseline record's p99 latency.
const SLA_MULTIPLIER: f64 = 2.0;

/// One scalar compared across the two runs: both values plus their signed
/// absolute difference (candidate − baseline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalarDelta {
    /// The baseline run's value.
    pub baseline: f64,
    /// The candidate run's value.
    pub candidate: f64,
    /// `candidate - baseline` — negates exactly under operand swap.
    pub delta: f64,
}

impl ScalarDelta {
    /// Pairs two values with their signed difference.
    pub fn between(baseline: f64, candidate: f64) -> Self {
        ScalarDelta {
            baseline,
            candidate,
            delta: candidate - baseline,
        }
    }
}

/// The Fig. 1c section: both runs banded against the one threshold
/// calibrated from the baseline record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaComparison {
    /// The shared threshold in virtual seconds
    /// (`SLA_MULTIPLIER × baseline p99`).
    pub threshold: f64,
    /// Multiplier used for the calibration.
    pub multiplier: f64,
    /// Fraction of completions violating the SLA, per side.
    pub violation_fraction: ScalarDelta,
    /// Worst (largest) post-phase-change adjustment-speed value per side —
    /// Σ over-SLA latency across the first N queries after a distribution
    /// change; 0.0 when the scenario has no changes.
    pub worst_adjustment: ScalarDelta,
}

/// Fault/retry accounting deltas (candidate − baseline), so chaos runs are
/// compared with their injection budgets visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultDeltas {
    /// Injected fault delta.
    pub injected: i64,
    /// Retry delta.
    pub retries: i64,
    /// Timeout delta.
    pub timeouts: i64,
    /// Crash delta.
    pub crashes: i64,
    /// Delta of operations that ultimately failed.
    pub failed_ops: i64,
}

impl FaultDeltas {
    fn between(baseline: &RunRecord, candidate: &RunRecord) -> Self {
        let d = |b: u64, c: u64| c as i64 - b as i64;
        let fb: &FaultStats = &baseline.faults;
        let fc: &FaultStats = &candidate.faults;
        FaultDeltas {
            injected: d(fb.injected, fc.injected),
            retries: d(fb.retries, fc.retries),
            timeouts: d(fb.timeouts, fc.timeouts),
            crashes: d(fb.crashes, fc.crashes),
            failed_ops: d(baseline.failures() as u64, candidate.failures() as u64),
        }
    }

    /// True when every fault delta is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.injected == 0
            && self.retries == 0
            && self.timeouts == 0
            && self.crashes == 0
            && self.failed_ops == 0
    }
}

/// The Fig. 1d section: dollars per completed query on a reference
/// hardware profile, and the candidate/baseline ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostComparison {
    /// Hardware profile the costs were computed on.
    pub hardware: String,
    /// Baseline dollars per completed query (`None` = no completions).
    pub baseline_cost_per_query: Option<f64>,
    /// Candidate dollars per completed query.
    pub candidate_cost_per_query: Option<f64>,
    /// `candidate / baseline` (`None` when the baseline cost is zero or
    /// either side completed nothing) — below 1.0 the candidate is cheaper.
    pub ratio: Option<f64>,
}

impl CostComparison {
    fn between(baseline: &RunRecord, candidate: &RunRecord, hw: &HardwareProfile) -> Self {
        let b = cost_per_query(baseline, hw);
        let c = cost_per_query(candidate, hw);
        let ratio = match (b, c) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        };
        CostComparison {
            hardware: hw.name.clone(),
            baseline_cost_per_query: b,
            candidate_cost_per_query: c,
            ratio,
        }
    }
}

/// The complete head-to-head report — everything `lsbench compare` prints
/// and everything `lsbench regress` gates on. Serializable (with the same
/// `schema_version` discipline as stored artifacts) so CI can archive it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Schema version of this serialized report.
    pub schema_version: u32,
    /// Baseline SUT name.
    pub baseline: String,
    /// Candidate SUT name.
    pub candidate: String,
    /// Scenario name (the baseline record's; a mismatch with the candidate
    /// is surfaced in `notes`).
    pub scenario: String,
    /// Fig. 1b: signed area between the cumulative-query curves in
    /// query-seconds; positive = candidate completed work sooner.
    pub area_difference: f64,
    /// Mean throughput (ops/sec) per side.
    pub throughput: ScalarDelta,
    /// Median latency per side (virtual seconds).
    pub p50_latency: ScalarDelta,
    /// p99 latency per side (virtual seconds).
    pub p99_latency: ScalarDelta,
    /// Fig. 1a: per-phase throughput box-stat deltas (phases matched by
    /// name; window = `ops_per_window` completions).
    pub phases: Vec<PhaseBoxDelta>,
    /// Window size used for the phase box plots.
    pub ops_per_window: usize,
    /// Fig. 1c section.
    pub sla: SlaComparison,
    /// Fault accounting deltas.
    pub faults: FaultDeltas,
    /// Fig. 1d section.
    pub cost: CostComparison,
    /// Comparability caveats (scenario mismatch, differing op counts, …).
    /// Empty means the two runs were directly comparable.
    pub notes: Vec<String>,
}

/// Compares two run records head-to-head. The first argument is the
/// *baseline* (SLA calibration source, cost denominator); the second is
/// the *candidate*. Pure function of the two records: comparing loaded
/// artifacts gives bit-identical numbers to comparing in-process records.
pub fn compare(baseline: &RunRecord, candidate: &RunRecord) -> Result<ComparisonReport> {
    if baseline.ops.is_empty() || candidate.ops.is_empty() {
        return Err(BenchError::Metric(
            "cannot compare empty run records".to_string(),
        ));
    }

    let mut notes = Vec::new();
    if baseline.scenario_name != candidate.scenario_name {
        notes.push(format!(
            "scenario mismatch: baseline ran '{}', candidate ran '{}' — numbers are not \
             apples-to-apples",
            baseline.scenario_name, candidate.scenario_name
        ));
    }
    if baseline.ops.len() != candidate.ops.len() {
        notes.push(format!(
            "completion counts differ: baseline {} vs candidate {}",
            baseline.ops.len(),
            candidate.ops.len()
        ));
    }

    let area_difference = paired_area_difference(baseline, candidate)?;
    let phases = paired_phase_deltas(baseline, candidate, OPS_PER_WINDOW)?;

    let p = |record: &RunRecord, q: f64| -> Result<f64> {
        let lats = record.all_latencies();
        quantile(&lats, q).map_err(|e| BenchError::Metric(e.to_string()))
    };
    let policy = SlaPolicy::FromBaselineP99 {
        multiplier: SLA_MULTIPLIER,
    };
    let (sla_b, sla_c) =
        paired_sla_reports(baseline, candidate, &policy, SLA_INTERVALS, ADJUSTMENT_N)?;
    Ok(ComparisonReport {
        schema_version: SCHEMA_VERSION,
        baseline: baseline.sut_name.clone(),
        candidate: candidate.sut_name.clone(),
        scenario: baseline.scenario_name.clone(),
        area_difference,
        throughput: ScalarDelta::between(baseline.mean_throughput(), candidate.mean_throughput()),
        p50_latency: ScalarDelta::between(p(baseline, 0.5)?, p(candidate, 0.5)?),
        p99_latency: ScalarDelta::between(p(baseline, 0.99)?, p(candidate, 0.99)?),
        phases,
        ops_per_window: OPS_PER_WINDOW,
        sla: SlaComparison {
            threshold: sla_b.threshold,
            multiplier: SLA_MULTIPLIER,
            violation_fraction: ScalarDelta::between(
                sla_b.violation_fraction,
                sla_c.violation_fraction,
            ),
            worst_adjustment: ScalarDelta::between(
                sla_b.worst_adjustment(),
                sla_c.worst_adjustment(),
            ),
        },
        faults: FaultDeltas::between(baseline, candidate),
        cost: CostComparison::between(baseline, candidate, &HardwareProfile::cpu()),
        notes,
    })
}

/// Renders the report as aligned, plain text — the `lsbench compare`
/// default output (pass `--json` for the serialized form instead).
pub fn render_comparison_report(r: &ComparisonReport) -> String {
    let mut out = String::new();
    let line = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(
        &mut out,
        format!(
            "head-to-head: candidate '{}' vs baseline '{}' on '{}'",
            r.candidate, r.baseline, r.scenario
        ),
    );
    for note in &r.notes {
        line(&mut out, format!("  note: {note}"));
    }
    line(&mut out, String::new());

    line(&mut out, "adaptability (Fig. 1b)".to_string());
    let direction = if r.area_difference > 0.0 {
        "candidate ahead"
    } else if r.area_difference < 0.0 {
        "baseline ahead"
    } else {
        "dead heat"
    };
    line(
        &mut out,
        format!(
            "  area difference   {:>+16.6} query-seconds ({direction})",
            r.area_difference
        ),
    );

    line(&mut out, String::new());
    line(&mut out, "throughput and latency".to_string());
    let scalar = |out: &mut String, label: &str, s: &ScalarDelta| {
        line(
            out,
            format!(
                "  {label:<18} baseline {:>14.6}   candidate {:>14.6}   delta {:>+14.6}",
                s.baseline, s.candidate, s.delta
            ),
        );
    };
    scalar(&mut out, "mean ops/sec", &r.throughput);
    scalar(&mut out, "p50 latency (s)", &r.p50_latency);
    scalar(&mut out, "p99 latency (s)", &r.p99_latency);

    line(&mut out, String::new());
    line(
        &mut out,
        format!(
            "specialization (Fig. 1a), windowed throughput per phase ({} ops/window)",
            r.ops_per_window
        ),
    );
    if r.phases.is_empty() {
        line(
            &mut out,
            "  (no phase had enough completions on both sides to sample)".to_string(),
        );
    } else {
        line(
            &mut out,
            format!(
                "  {:<16} {:>14} {:>14} {:>14} {:>14}",
                "phase", "base median", "cand median", "d-median", "d-q3"
            ),
        );
        for ph in &r.phases {
            line(
                &mut out,
                format!(
                    "  {:<16} {:>14.3} {:>14.3} {:>+14.3} {:>+14.3}",
                    ph.phase,
                    ph.baseline.five.median,
                    ph.candidate.five.median,
                    ph.delta.median,
                    ph.delta.q3
                ),
            );
        }
    }

    line(&mut out, String::new());
    line(
        &mut out,
        format!(
            "SLA bands (Fig. 1c), threshold {:.6} s = {}x baseline p99",
            r.sla.threshold, r.sla.multiplier
        ),
    );
    scalar(&mut out, "violation frac", &r.sla.violation_fraction);
    scalar(&mut out, "worst adjustment", &r.sla.worst_adjustment);

    line(&mut out, String::new());
    line(
        &mut out,
        "fault accounting (candidate - baseline)".to_string(),
    );
    line(
        &mut out,
        format!(
            "  injected {:+}   retries {:+}   timeouts {:+}   crashes {:+}   failed ops {:+}",
            r.faults.injected,
            r.faults.retries,
            r.faults.timeouts,
            r.faults.crashes,
            r.faults.failed_ops
        ),
    );

    line(&mut out, String::new());
    line(
        &mut out,
        format!("cost (Fig. 1d, {} pricing)", r.cost.hardware),
    );
    let opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.3e}"),
        None => "n/a".to_string(),
    };
    line(
        &mut out,
        format!(
            "  $/query           baseline {:>14}   candidate {:>14}   ratio {}",
            opt(r.cost.baseline_cost_per_query),
            opt(r.cost.candidate_cost_per_query),
            match r.cost.ratio {
                Some(x) => format!("{x:.4}"),
                None => "n/a".to_string(),
            }
        ),
    );
    out
}

/// Renders the transport header `lsbench compare` prints above the
/// report when manifests are available: which process (or endpoint) each
/// side ran in, with an explicit warning when a remote run is being
/// paired against a local baseline — that comparison is legitimate (the
/// records are conformant by construction) but must never be silent.
pub fn render_transport_header(
    baseline: &crate::results::store::RunManifest,
    candidate: &crate::results::store::RunManifest,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "transport: baseline '{}' ran {}; candidate '{}' ran {}\n",
        baseline.sut, baseline.transport, candidate.sut, candidate.transport
    ));
    if baseline.transport != candidate.transport {
        out.push_str(
            "  WARNING: transports differ — remote runs share the local virtual clock but \
             cross a process boundary; fault/timeout accounting may include real network \
             effects\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    #[test]
    fn transport_header_warns_on_mixed_transports() {
        use crate::results::store::{RunManifest, Transport};
        let manifest = |sut: &str, transport: Transport| RunManifest {
            sut: sut.to_string(),
            scenario: "s".to_string(),
            spec: String::new(),
            concurrency: 1,
            crate_version: "0".to_string(),
            transport,
            clock: crate::scenario::ClockMode::Sim,
        };
        let local = manifest("btree", Transport::Local);
        let remote = manifest(
            "btree",
            Transport::Remote {
                endpoint: "127.0.0.1:7070".to_string(),
            },
        );
        let same = render_transport_header(&local, &local);
        assert!(same.contains("ran local"));
        assert!(!same.contains("WARNING"));
        let mixed = render_transport_header(&local, &remote);
        assert!(mixed.contains("remote(127.0.0.1:7070)"));
        assert!(mixed.contains("WARNING"));
    }

    /// Two-phase record: `n` ops per phase at the given per-phase speeds.
    fn two_phase(sut: &str, n: usize, speeds: [f64; 2], work: u64) -> RunRecord {
        let mut ops = Vec::new();
        let mut t = 0.0;
        let mut changes = vec![(0usize, 0.0)];
        for (phase, &speed) in speeds.iter().enumerate() {
            if phase > 0 {
                changes.push((phase, t));
            }
            for _ in 0..n {
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
            sut_name: sut.to_string(),
            scenario_name: "cmp".to_string(),
            phase_names: vec!["p0".to_string(), "p1".to_string()],
            ops,
            phase_change_times: changes,
            train: TrainInfo { work, seconds: 1.0 },
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics {
                size_bytes: 1024,
                training_work: work,
                execution_work: work * 2,
                model_count: 1,
                adaptations: 0,
                label_collection_work: 0,
            },
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    #[test]
    fn self_comparison_is_all_zero() {
        let r = two_phase("a", 500, [100.0, 50.0], 1_000_000);
        let cmp = compare(&r, &r).unwrap();
        assert_eq!(cmp.area_difference, 0.0);
        assert_eq!(cmp.throughput.delta, 0.0);
        assert_eq!(cmp.p50_latency.delta, 0.0);
        assert_eq!(cmp.p99_latency.delta, 0.0);
        assert!(cmp.phases.iter().all(|p| p.delta.is_zero()));
        assert_eq!(cmp.sla.violation_fraction.delta, 0.0);
        assert_eq!(cmp.sla.worst_adjustment.delta, 0.0);
        assert!(cmp.faults.is_zero());
        assert_eq!(cmp.cost.ratio, Some(1.0));
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn signed_deltas_negate_under_swap() {
        let slow = two_phase("slow", 500, [100.0, 40.0], 2_000_000);
        let fast = two_phase("fast", 500, [200.0, 120.0], 1_000_000);
        let ab = compare(&slow, &fast).unwrap();
        let ba = compare(&fast, &slow).unwrap();
        assert_eq!(ab.area_difference, -ba.area_difference);
        assert_eq!(ab.throughput.delta, -ba.throughput.delta);
        assert_eq!(ab.p50_latency.delta, -ba.p50_latency.delta);
        assert_eq!(ab.p99_latency.delta, -ba.p99_latency.delta);
        for (x, y) in ab.phases.iter().zip(&ba.phases) {
            assert_eq!(x.delta.median, -y.delta.median);
            assert_eq!(x.delta.q1, -y.delta.q1);
            assert_eq!(x.delta.q3, -y.delta.q3);
        }
        assert_eq!(ab.faults.injected, -ba.faults.injected);
        // The faster candidate is ahead: positive area, positive throughput.
        assert!(ab.area_difference > 0.0);
        assert!(ab.throughput.delta > 0.0);
    }

    #[test]
    fn sla_threshold_is_calibrated_from_the_baseline_side() {
        let slow = two_phase("slow", 500, [100.0, 40.0], 1);
        let fast = two_phase("fast", 500, [200.0, 120.0], 1);
        let ab = compare(&slow, &fast).unwrap();
        let ba = compare(&fast, &slow).unwrap();
        // Different baselines → different thresholds, by design.
        assert!(ab.sla.threshold > ba.sla.threshold);
        assert_eq!(ab.sla.multiplier, SLA_MULTIPLIER);
    }

    #[test]
    fn notes_flag_scenario_mismatch() {
        let a = two_phase("a", 100, [100.0, 50.0], 1);
        let mut b = two_phase("b", 100, [100.0, 50.0], 1);
        b.scenario_name = "other".to_string();
        let cmp = compare(&a, &b).unwrap();
        assert!(cmp.notes.iter().any(|n| n.contains("scenario mismatch")));
    }

    #[test]
    fn report_serde_round_trips_and_renders() {
        let a = two_phase("a", 200, [100.0, 50.0], 5_000);
        let b = two_phase("b", 200, [150.0, 90.0], 3_000);
        let cmp = compare(&a, &b).unwrap();
        let json = serde_json::to_string_pretty(&cmp).unwrap();
        let back: ComparisonReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cmp);
        let text = render_comparison_report(&cmp);
        assert!(text.contains("head-to-head: candidate 'b' vs baseline 'a'"));
        assert!(text.contains("area difference"));
        assert!(text.contains("SLA bands"));
        assert!(text.contains("$/query"));
    }

    #[test]
    fn empty_records_are_rejected() {
        let a = two_phase("a", 100, [100.0, 50.0], 1);
        let mut empty = a.clone();
        empty.ops.clear();
        assert!(compare(&a, &empty).is_err());
        assert!(compare(&empty, &a).is_err());
    }
}
