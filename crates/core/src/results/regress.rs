//! The regression gate: a [`RegressionPolicy`] evaluated against a
//! [`ComparisonReport`], for CI.
//!
//! Policies live in spec-style files parsed with the same positioned-error
//! line parser as scenarios and fault plans — a typo'd knob or an
//! out-of-range limit is reported as `line N: key: reason`, never silently
//! ignored. Every knob is optional; an absent knob is simply not enforced,
//! so the empty file is the "always pass" policy.
//!
//! ```text
//! # candidate may trail the baseline by at most this area (query-seconds)
//! max_area_regression = 5000.0
//! # candidate p99 may exceed baseline p99 by at most this percentage
//! max_p99_regression_pct = 50.0
//! ```
//!
//! [`evaluate_regression`] turns a comparison plus a policy into a
//! [`RegressionReport`] listing every [`PolicyViolation`];
//! [`write_bench_summary`] serializes it as `BENCH_summary.json` for CI to
//! upload, and `lsbench regress` exits non-zero when any violation fired.

use crate::report::{to_json, workspace_root, write_artifact, write_artifact_to};
use crate::results::compare::ComparisonReport;
use crate::results::SCHEMA_VERSION;
use crate::spec::parse::{lex_flat, Fields};
use crate::spec::SpecError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Limits a candidate run must stay within relative to the baseline.
/// `None` = that dimension is not gated.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RegressionPolicy {
    /// Max allowed Fig. 1b area *regression* in query-seconds: fires when
    /// the candidate trails the baseline by more than this
    /// (`-area_difference > limit`).
    pub max_area_regression: Option<f64>,
    /// Max allowed p99 latency increase, in percent of the baseline p99.
    pub max_p99_regression_pct: Option<f64>,
    /// Max allowed mean-throughput drop, in percent of the baseline.
    pub max_throughput_regression_pct: Option<f64>,
    /// Max allowed absolute increase in the SLA violation fraction.
    pub max_sla_violation_increase: Option<f64>,
    /// Ceiling on the candidate/baseline cost-per-query ratio.
    pub max_cost_ratio: Option<f64>,
}

/// Parses a regression policy from spec-style text: root-level keys only,
/// closed schema, positioned errors. Negative limits (or a non-positive
/// cost ratio) are rejected at the offending line.
pub fn parse_regression_policy(text: &str) -> std::result::Result<RegressionPolicy, SpecError> {
    let refusal = "a regression policy file allows only root-level keys";
    let mut root = lex_flat(text, &[], refusal, |_| Ok(()))?;
    let limit = |root: &mut Fields, key: &str| {
        root.opt_if(key, |x: &f64| *x >= 0.0, "limit must be non-negative")
    };
    let policy = RegressionPolicy {
        max_area_regression: limit(&mut root, "max_area_regression")?,
        max_p99_regression_pct: limit(&mut root, "max_p99_regression_pct")?,
        max_throughput_regression_pct: limit(&mut root, "max_throughput_regression_pct")?,
        max_sla_violation_increase: limit(&mut root, "max_sla_violation_increase")?,
        max_cost_ratio: root.opt_if(
            "max_cost_ratio",
            |x: &f64| *x > 0.0,
            "cost ratio limit must be positive",
        )?,
    };
    root.finish()?;
    Ok(policy)
}

/// One fired policy rule: which knob, its limit, and the measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyViolation {
    /// Policy knob that fired.
    pub rule: String,
    /// Configured limit.
    pub limit: f64,
    /// Measured value that exceeded it.
    pub actual: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// The gate's verdict: the comparison, the policy, and every violation.
/// This is the payload of `BENCH_summary.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionReport {
    /// Schema version of this serialized report.
    pub schema_version: u32,
    /// Whether the candidate passed (no violations).
    pub passed: bool,
    /// The policy that was applied.
    pub policy: RegressionPolicy,
    /// Violations, in policy-knob order. Empty iff `passed`.
    pub violations: Vec<PolicyViolation>,
    /// The full head-to-head comparison the gate evaluated.
    pub comparison: ComparisonReport,
}

/// Evaluates a comparison against a policy. Only knobs set in the policy
/// are checked; percentage knobs are skipped when the baseline value is
/// zero (there is no meaningful percentage of nothing), and the cost knob
/// is skipped when no ratio could be computed.
pub fn evaluate_regression(
    comparison: &ComparisonReport,
    policy: &RegressionPolicy,
) -> RegressionReport {
    let mut violations = Vec::new();
    let mut check = |rule: &str, limit: Option<f64>, actual: Option<f64>, message: String| {
        if let (Some(limit), Some(actual)) = (limit, actual) {
            if actual > limit {
                violations.push(PolicyViolation {
                    rule: rule.to_string(),
                    limit,
                    actual,
                    message,
                });
            }
        }
    };

    let area_regression = -comparison.area_difference;
    check(
        "max_area_regression",
        policy.max_area_regression,
        Some(area_regression),
        format!(
            "candidate trails the baseline cumulative-query curve by {area_regression:.3} \
             query-seconds"
        ),
    );

    let p99_pct = if comparison.p99_latency.baseline > 0.0 {
        Some(comparison.p99_latency.delta / comparison.p99_latency.baseline * 100.0)
    } else {
        None
    };
    check(
        "max_p99_regression_pct",
        policy.max_p99_regression_pct,
        p99_pct,
        format!(
            "candidate p99 latency {:.6} s is {:.1}% above baseline {:.6} s",
            comparison.p99_latency.candidate,
            p99_pct.unwrap_or(0.0),
            comparison.p99_latency.baseline
        ),
    );

    let tput_pct = if comparison.throughput.baseline > 0.0 {
        Some(-comparison.throughput.delta / comparison.throughput.baseline * 100.0)
    } else {
        None
    };
    check(
        "max_throughput_regression_pct",
        policy.max_throughput_regression_pct,
        tput_pct,
        format!(
            "candidate throughput {:.1} ops/s is {:.1}% below baseline {:.1} ops/s",
            comparison.throughput.candidate,
            tput_pct.unwrap_or(0.0),
            comparison.throughput.baseline
        ),
    );

    check(
        "max_sla_violation_increase",
        policy.max_sla_violation_increase,
        Some(comparison.sla.violation_fraction.delta),
        format!(
            "SLA violation fraction rose from {:.4} to {:.4}",
            comparison.sla.violation_fraction.baseline, comparison.sla.violation_fraction.candidate
        ),
    );

    check(
        "max_cost_ratio",
        policy.max_cost_ratio,
        comparison.cost.ratio,
        format!(
            "candidate costs {:.4}x the baseline per query on {}",
            comparison.cost.ratio.unwrap_or(0.0),
            comparison.cost.hardware
        ),
    );

    RegressionReport {
        schema_version: SCHEMA_VERSION,
        passed: violations.is_empty(),
        policy: *policy,
        violations,
        comparison: comparison.clone(),
    }
}

/// Renders the verdict as plain text — the `lsbench regress` output.
pub fn render_regression(r: &RegressionReport) -> String {
    let mut out = format!(
        "regression gate: candidate '{}' vs baseline '{}' on '{}'\n",
        r.comparison.candidate, r.comparison.baseline, r.comparison.scenario
    );
    if r.passed {
        out.push_str("PASS: no policy violations\n");
    } else {
        out.push_str(&format!(
            "FAIL: {} policy violation{}\n",
            r.violations.len(),
            if r.violations.len() == 1 { "" } else { "s" }
        ));
        for v in &r.violations {
            out.push_str(&format!(
                "  {}: {:.4} > limit {:.4} — {}\n",
                v.rule, v.actual, v.limit, v.message
            ));
        }
    }
    out
}

/// Writes the verdict as `BENCH_summary.json`: once into the standard
/// artifact directory, and once at the workspace root where CI jobs pick
/// it up for upload. Returns the workspace-root path.
pub fn write_bench_summary(report: &RegressionReport) -> Result<PathBuf> {
    let json = to_json(report)?;
    write_artifact("BENCH_summary.json", &json)?;
    write_artifact_to(&workspace_root(), "BENCH_summary.json", &json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use crate::results::compare::compare;
    use lsbench_sut::sut::SutMetrics;

    fn record(sut: &str, speed: f64, work: u64) -> RunRecord {
        let mut ops = Vec::new();
        let mut t = 0.0;
        for _ in 0..300 {
            t += 1.0 / speed;
            ops.push(OpRecord {
                t_end: t,
                latency: 1.0 / speed,
                phase: 0,
                ok: true,
                in_transition: false,
            });
        }
        RunRecord {
            sut_name: sut.to_string(),
            scenario_name: "gate".to_string(),
            phase_names: vec!["p0".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0)],
            train: TrainInfo { work, seconds: 1.0 },
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics {
                size_bytes: 0,
                training_work: work,
                execution_work: work,
                model_count: 1,
                adaptations: 0,
                label_collection_work: 0,
            },
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    #[test]
    fn policy_parses_with_positioned_errors() {
        let p = parse_regression_policy(
            "# comment\nmax_area_regression = 5000.0\nmax_cost_ratio = 2.0\n",
        )
        .unwrap();
        assert_eq!(p.max_area_regression, Some(5000.0));
        assert_eq!(p.max_cost_ratio, Some(2.0));
        assert_eq!(p.max_p99_regression_pct, None);

        let err = parse_regression_policy("max_area_regression = -1.0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("non-negative"));

        let err = parse_regression_policy("bogus_knob = 1.0\n").unwrap_err();
        assert!(err.to_string().contains("unknown key 'bogus_knob'"));

        let err = parse_regression_policy("[sla]\nthreshold = 1.0\n").unwrap_err();
        assert!(err.to_string().contains("only root-level keys"));

        let err = parse_regression_policy("max_cost_ratio = 0\n").unwrap_err();
        assert!(err.to_string().contains("must be positive"));

        // Empty file = always-pass policy.
        assert_eq!(
            parse_regression_policy("").unwrap(),
            RegressionPolicy::default()
        );
    }

    #[test]
    fn empty_policy_always_passes() {
        let base = record("base", 100.0, 1_000);
        let cand = record("cand", 10.0, 9_000_000); // much worse everywhere
        let cmp = compare(&base, &cand).unwrap();
        let verdict = evaluate_regression(&cmp, &RegressionPolicy::default());
        assert!(verdict.passed);
        assert!(verdict.violations.is_empty());
    }

    #[test]
    fn violations_fire_and_render() {
        let base = record("base", 100.0, 1_000);
        let cand = record("cand", 50.0, 100_000); // 2x slower, 100x training
        let cmp = compare(&base, &cand).unwrap();
        let policy = RegressionPolicy {
            max_area_regression: Some(0.0),
            max_p99_regression_pct: Some(10.0),
            max_throughput_regression_pct: Some(10.0),
            max_sla_violation_increase: Some(1.0),
            max_cost_ratio: Some(1.5),
        };
        let verdict = evaluate_regression(&cmp, &policy);
        assert!(!verdict.passed);
        let rules: Vec<&str> = verdict.violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"max_area_regression"));
        assert!(rules.contains(&"max_p99_regression_pct"));
        assert!(rules.contains(&"max_throughput_regression_pct"));
        assert!(rules.contains(&"max_cost_ratio"));
        assert!(!rules.contains(&"max_sla_violation_increase"));
        let text = render_regression(&verdict);
        assert!(text.starts_with("regression gate:"));
        assert!(text.contains("FAIL: 4 policy violations"));

        // The improved direction passes the same policy.
        let improved = evaluate_regression(&compare(&cand, &base).unwrap(), &policy);
        assert!(improved.passed);
        assert!(render_regression(&improved).contains("PASS"));
    }

    #[test]
    fn verdict_serde_round_trips() {
        let base = record("base", 100.0, 1_000);
        let cand = record("cand", 90.0, 2_000);
        let cmp = compare(&base, &cand).unwrap();
        let verdict = evaluate_regression(
            &cmp,
            &RegressionPolicy {
                max_throughput_regression_pct: Some(50.0),
                ..RegressionPolicy::default()
            },
        );
        let json = serde_json::to_string_pretty(&verdict).unwrap();
        let back: RegressionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdict);
    }
}
