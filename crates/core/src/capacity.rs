//! The SLA capacity search: how much load can a system take before its
//! tail latency breaks the agreement?
//!
//! A learned index that is 2× faster at light load but collapses 10×
//! earlier under pressure is not "faster" — the honest comparison is the
//! *maximum sustainable arrival rate* under a latency SLA (the knee of
//! the throughput–latency curve). This module finds that knee with a
//! bracketing binary search over open-loop probe runs:
//!
//! 1. **Bracket** — starting from [`CapacityConfig::initial_rate`], the
//!    rate doubles while the SLA is met and halves while it is violated,
//!    until one met rate (`lo`) and one violated rate (`hi`) bracket the
//!    knee.
//! 2. **Bisect** — the bracket shrinks by rate bisection until it is
//!    within [`CapacityConfig::tolerance`] (relative) or the probe budget
//!    runs out. Every probe lands in the report, so the output doubles as
//!    a throughput–latency curve.
//!
//! The search is *structurally monotone* regardless of probe behavior:
//! `lo` only ever takes values below every violated rate observed so far,
//! so the reported [`CapacityReport::knee_rate`] can never exceed any
//! rate the search saw violate the SLA — property-tested below against
//! adversarially noisy probes.
//!
//! [`capacity_search`] is generic over the probe (a closure from arrival
//! rate to [`CapacityPoint`]), so the same engine drives in-process SUTs,
//! [`RemoteSut`](crate::wire::RemoteSut) endpoints, and the synthetic
//! probes the tests use. The CLI builds probes that clone the base
//! scenario, substitute the arrival rate ([`with_arrival_rate`]), and run
//! it in [`ExecutionMode::OpenLoop`](crate::runner::ExecutionMode) on a
//! fresh SUT.

use crate::record::RunRecord;
use crate::runner::EngineStats;
use crate::scenario::{ArrivalSpec, Scenario};
use crate::{BenchError, Result};
use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A latency SLA: "the `quantile` latency must not exceed
/// `threshold_seconds`". Parsed from the CLI `pNN:MS` syntax (`p99:5` =
/// 99th percentile at most 5 milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaTarget {
    /// Latency quantile in (0, 1), e.g. `0.99`.
    pub quantile: f64,
    /// Threshold in (virtual) seconds, e.g. `0.005`.
    pub threshold_seconds: f64,
}

impl SlaTarget {
    /// Parses the CLI syntax `pNN:MS`: a quantile tagged `p` (percent,
    /// fractional allowed — `p99.9`) and a threshold in milliseconds,
    /// separated by a colon. Examples: `p99:5`, `p50:0.5`, `p99.9:20`.
    pub fn parse(s: &str) -> Result<Self> {
        let bad = |why: &str| {
            BenchError::InvalidScenario(format!(
                "invalid SLA '{s}': {why} (expected pNN:MS, e.g. p99:5 for p99 <= 5ms)"
            ))
        };
        let (quant, thresh) = s.split_once(':').ok_or_else(|| bad("missing ':'"))?;
        let percent = quant
            .strip_prefix(['p', 'P'])
            .ok_or_else(|| bad("quantile must start with 'p'"))?
            .parse::<f64>()
            .map_err(|_| bad("quantile is not a number"))?;
        if !(percent > 0.0 && percent < 100.0) {
            return Err(bad("quantile percent must be in (0, 100)"));
        }
        let threshold_ms = thresh
            .parse::<f64>()
            .map_err(|_| bad("threshold is not a number"))?;
        if !(threshold_ms > 0.0 && threshold_ms.is_finite()) {
            return Err(bad("threshold must be a positive number of milliseconds"));
        }
        Ok(SlaTarget {
            quantile: percent / 100.0,
            threshold_seconds: threshold_ms / 1000.0,
        })
    }

    /// Human-readable form, e.g. `p99 <= 5ms`.
    pub fn describe(&self) -> String {
        format!(
            "p{} <= {}ms",
            self.quantile * 100.0,
            self.threshold_seconds * 1000.0
        )
    }
}

/// One probe of the capacity search: a full open-loop run at a fixed
/// arrival rate, reduced to the numbers the knee decision needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityPoint {
    /// Offered arrival rate (ops per virtual second).
    pub rate: f64,
    /// The SLA quantile's observed latency at this rate (virtual seconds,
    /// coordinated-omission-safe: measured from intended arrival).
    pub latency_seconds: f64,
    /// Achieved completion throughput (completed ops per virtual second
    /// of execution).
    pub throughput: f64,
    /// Operations completed by the probe run.
    pub completed: usize,
    /// Whether this probe met the SLA.
    pub met: bool,
}

impl CapacityPoint {
    /// Reduces a finished open-loop run to a probe point: the SLA
    /// quantile from the engine's merged latency histogram (nanoseconds →
    /// seconds), throughput over the execution window, and the met/
    /// violated verdict against `sla`.
    pub fn from_run(
        rate: f64,
        sla: &SlaTarget,
        engine: &EngineStats,
        record: &RunRecord,
    ) -> Result<Self> {
        let latency_ns = engine
            .latency
            .quantile(sla.quantile)
            .map_err(|e| BenchError::Metric(format!("SLA quantile: {e}")))?;
        let latency_seconds = latency_ns as f64 / 1e9;
        let window = record.exec_end - record.exec_start;
        let throughput = if window > 0.0 {
            record.ops.len() as f64 / window
        } else {
            0.0
        };
        Ok(CapacityPoint {
            rate,
            latency_seconds,
            throughput,
            completed: record.ops.len(),
            met: latency_seconds <= sla.threshold_seconds,
        })
    }
}

/// Settings of [`capacity_search`]. `Default` is a sensible CLI setting:
/// start at 1000 ops/s, at most 12 probes, stop when the bracket is
/// within 5% of the knee.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityConfig {
    /// The SLA every probe is judged against.
    pub sla: SlaTarget,
    /// First rate to probe (ops per virtual second).
    pub initial_rate: f64,
    /// Hard cap on probe runs (bracketing + bisection combined).
    pub max_probes: usize,
    /// Relative bracket width at which bisection stops:
    /// `(hi - lo) <= tolerance * hi`.
    pub tolerance: f64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            sla: SlaTarget {
                quantile: 0.99,
                threshold_seconds: 0.005,
            },
            initial_rate: 1000.0,
            max_probes: 12,
            tolerance: 0.05,
        }
    }
}

/// The search result: every probe in order (the throughput–latency
/// curve) plus the knee. Serialized inside
/// [`CapacityArtifact`](crate::results::CapacityArtifact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// The SLA the search ran against.
    pub sla: SlaTarget,
    /// All probes, in the order the search ran them.
    pub points: Vec<CapacityPoint>,
    /// Maximum arrival rate observed to meet the SLA (`0.0` if even the
    /// smallest probed rate violated it).
    pub knee_rate: f64,
    /// Whether the search actually found the saturation point: `true`
    /// when at least one probed rate violated the SLA, `false` when the
    /// probe budget ran out with every rate still meeting it (the knee is
    /// then only a lower bound).
    pub saturated: bool,
}

/// Runs the bracketing binary search. `probe` maps an arrival rate to a
/// [`CapacityPoint`]; the search trusts the point's `met` verdict and
/// records every point in the report.
///
/// Structural guarantee (holds for *any* probe, even a noisy or
/// inconsistent one): the reported `knee_rate` is strictly below every
/// rate the search observed violating the SLA.
pub fn capacity_search<F>(config: &CapacityConfig, mut probe: F) -> Result<CapacityReport>
where
    F: FnMut(f64) -> Result<CapacityPoint>,
{
    if !(config.initial_rate > 0.0 && config.initial_rate.is_finite()) {
        return Err(BenchError::InvalidScenario(
            "capacity initial rate must be positive and finite".to_string(),
        ));
    }
    if config.max_probes < 2 {
        return Err(BenchError::InvalidScenario(
            "capacity search needs at least 2 probes".to_string(),
        ));
    }
    if !(config.tolerance > 0.0 && config.tolerance.is_finite()) {
        return Err(BenchError::InvalidScenario(
            "capacity tolerance must be positive and finite".to_string(),
        ));
    }

    let mut points = Vec::new();
    let mut lo = 0.0_f64; // highest rate seen meeting the SLA
    let mut lo_found = false;
    let mut hi = f64::INFINITY; // lowest rate seen violating the SLA
    let mut budget = config.max_probes;

    // Bracket: geometric walk until one met and one violated rate exist.
    // Doubling only happens while nothing has violated yet and halving
    // only while nothing has met yet, so `lo < hi` is invariant.
    let mut rate = config.initial_rate;
    while budget > 0 {
        budget -= 1;
        let point = probe(rate)?;
        let met = point.met;
        points.push(point);
        if met {
            lo = lo.max(rate);
            lo_found = true;
        } else {
            hi = hi.min(rate);
        }
        if lo_found && hi.is_finite() {
            break;
        }
        rate = if met { rate * 2.0 } else { rate / 2.0 };
        if !rate.is_finite() || rate <= f64::MIN_POSITIVE {
            break; // the workload never saturates (or never starts)
        }
    }

    // Bisect: shrink the bracket. `mid` is strictly inside (lo, hi), so
    // updating either end keeps lo below every violated rate.
    while budget > 0 && lo_found && hi.is_finite() && (hi - lo) > config.tolerance * hi {
        let mid = 0.5 * (lo + hi);
        if !(mid > lo && mid < hi) {
            break; // bracket exhausted f64 resolution
        }
        budget -= 1;
        let point = probe(mid)?;
        let met = point.met;
        points.push(point);
        if met {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    Ok(CapacityReport {
        sla: config.sla,
        points,
        knee_rate: if lo_found { lo } else { 0.0 },
        saturated: hi.is_finite(),
    })
}

/// Clones `base` with its arrival process replaced by a Poisson process
/// at `rate`. Modulation and arrival seed are preserved when the base
/// scenario already has an `[arrival]` section; otherwise the arrival is
/// synthesized with constant modulation, seeded from the workload seed so
/// probes stay deterministic.
pub fn with_arrival_rate(base: &Scenario, rate: f64) -> Scenario {
    let mut scenario = base.clone();
    scenario.arrival = Some(match &base.arrival {
        Some(arrival) => ArrivalSpec {
            process: ArrivalProcess::Poisson { rate },
            modulation: arrival.modulation,
            seed: arrival.seed,
        },
        None => ArrivalSpec {
            process: ArrivalProcess::Poisson { rate },
            modulation: LoadModulation::Constant,
            seed: base.workload.seed(),
        },
    });
    scenario
}

/// Renders a capacity report as an aligned plain-text table (rate,
/// quantile latency, throughput, verdict) with the knee line under it —
/// the `lsbench capacity` terminal output.
pub fn render_capacity_report(report: &CapacityReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "capacity search (SLA {})", report.sla.describe());
    let _ = writeln!(
        out,
        "{:>14}  {:>14}  {:>14}  {:>9}  verdict",
        "rate(ops/s)", "latency(ms)", "tput(ops/s)", "completed"
    );
    let mut sorted: Vec<&CapacityPoint> = report.points.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    for p in sorted {
        let _ = writeln!(
            out,
            "{:>14.2}  {:>14.4}  {:>14.2}  {:>9}  {}",
            p.rate,
            p.latency_seconds * 1000.0,
            p.throughput,
            p.completed,
            if p.met { "met" } else { "VIOLATED" }
        );
    }
    if report.knee_rate > 0.0 {
        let _ = writeln!(
            out,
            "knee: {:.2} ops/s{}",
            report.knee_rate,
            if report.saturated {
                ""
            } else {
                " (lower bound: probe budget ran out before saturation)"
            }
        );
    } else {
        let _ = writeln!(out, "knee: none — every probed rate violated the SLA");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_stats::histogram::LatencyHistogram;
    use lsbench_stats::timeseries::IntervalCounts;

    fn synthetic_point(rate: f64, capacity: f64) -> CapacityPoint {
        // A queueing-flavored latency curve: flat below capacity, blowing
        // up as the rate approaches it.
        let latency = if rate >= capacity {
            1.0
        } else {
            0.001 / (1.0 - rate / capacity)
        };
        CapacityPoint {
            rate,
            latency_seconds: latency,
            throughput: rate.min(capacity),
            completed: 10_000,
            met: latency <= 0.005,
        }
    }

    /// DESIGN: `lo` is "the largest rate that *met* the SLA", and a probe
    /// meets `pNN <= MS` when its quantile latency is at most the
    /// threshold. A quantile equal to the threshold meets it; one a hair
    /// above does not.
    #[test]
    fn a_quantile_at_the_threshold_meets_the_sla() {
        // 2^22 ns is the lower bound of its histogram bucket, so the
        // quantile reads it back exactly.
        let mut latency = LatencyHistogram::new();
        latency.record_n(1 << 22, 100);
        let engine = EngineStats {
            latency,
            completions: IntervalCounts::new(0.0, 0.01).unwrap(),
            threads: 1,
            lanes: 1,
        };
        let record = RunRecord {
            sut_name: "edge".to_string(),
            scenario_name: "edge".to_string(),
            phase_names: vec!["a".to_string()],
            ops: Vec::new(),
            phase_change_times: vec![(0, 0.0)],
            train: crate::record::TrainInfo::default(),
            exec_start: 0.0,
            exec_end: 1.0,
            final_metrics: lsbench_sut::sut::SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        };
        let at = (1u64 << 22) as f64 / 1e9;
        let sla = |threshold_seconds| SlaTarget {
            quantile: 0.99,
            threshold_seconds,
        };
        let point = CapacityPoint::from_run(1000.0, &sla(at), &engine, &record).unwrap();
        assert_eq!(point.latency_seconds, at);
        assert!(point.met, "a quantile equal to the threshold meets the SLA");
        let below = at - at * f64::EPSILON;
        let point = CapacityPoint::from_run(1000.0, &sla(below), &engine, &record).unwrap();
        assert!(!point.met, "a quantile above the threshold violates it");
    }

    #[test]
    fn sla_parse_accepts_the_cli_syntax_and_rejects_garbage() {
        let sla = SlaTarget::parse("p99:5").unwrap();
        assert_eq!(sla.quantile, 0.99);
        assert_eq!(sla.threshold_seconds, 0.005);
        let fine = SlaTarget::parse("p99.9:0.5").unwrap();
        assert!((fine.quantile - 0.999).abs() < 1e-12);
        assert_eq!(fine.threshold_seconds, 0.0005);
        assert_eq!(SlaTarget::parse("P50:20").unwrap().quantile, 0.5);
        for bad in [
            "", "p99", "99:5", "p0:5", "p100:5", "p99:-1", "p99:x", "px:5",
        ] {
            assert!(SlaTarget::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(SlaTarget::parse("p99:5").unwrap().describe(), "p99 <= 5ms");
    }

    #[test]
    fn search_brackets_and_bisects_to_the_knee() {
        let capacity = 37_500.0;
        let config = CapacityConfig {
            initial_rate: 1000.0,
            max_probes: 20,
            tolerance: 0.01,
            ..CapacityConfig::default()
        };
        let report = capacity_search(&config, |rate| Ok(synthetic_point(rate, capacity))).unwrap();
        assert!(report.saturated);
        // The synthetic curve crosses 5ms at capacity * (1 - 0.001/0.005).
        let true_knee = capacity * (1.0 - 0.001 / 0.005);
        assert!(
            report.knee_rate <= true_knee,
            "knee {} must not exceed the true knee {true_knee}",
            report.knee_rate
        );
        assert!(
            report.knee_rate >= true_knee * 0.95,
            "knee {} is too far below the true knee {true_knee}",
            report.knee_rate
        );
        assert!(report.points.len() <= config.max_probes);
        // The report is also a curve: it has both met and violated points.
        assert!(report.points.iter().any(|p| p.met));
        assert!(report.points.iter().any(|p| !p.met));
    }

    #[test]
    fn unsaturable_probe_reports_a_lower_bound() {
        let config = CapacityConfig {
            max_probes: 6,
            ..CapacityConfig::default()
        };
        let report = capacity_search(&config, |rate| {
            Ok(CapacityPoint {
                rate,
                latency_seconds: 0.0001,
                throughput: rate,
                completed: 100,
                met: true,
            })
        })
        .unwrap();
        assert!(!report.saturated);
        // Six doublings from 1000: the best met rate is 32×.
        assert_eq!(report.knee_rate, 32_000.0);
    }

    #[test]
    fn hopeless_sla_reports_zero_knee() {
        let config = CapacityConfig::default();
        let report = capacity_search(&config, |rate| {
            Ok(CapacityPoint {
                rate,
                latency_seconds: 1.0,
                throughput: 0.0,
                completed: 0,
                met: false,
            })
        })
        .unwrap();
        assert!(report.saturated);
        assert_eq!(report.knee_rate, 0.0);
        assert!(report.points.iter().all(|p| !p.met));
    }

    /// The structural monotonicity property: against probes with
    /// deterministic pseudo-random noise (an adversary the binary search
    /// was never promised), the knee still never exceeds any rate that
    /// was observed to violate the SLA.
    #[test]
    fn knee_never_exceeds_any_violated_rate_even_for_noisy_probes() {
        for seed in 0..50u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut lcg = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            };
            let capacity = 500.0 + lcg() * 100_000.0;
            let config = CapacityConfig {
                initial_rate: 10.0 + lcg() * 10_000.0,
                max_probes: 16,
                tolerance: 0.02,
                ..CapacityConfig::default()
            };
            let report = capacity_search(&config, |rate| {
                // ±30% multiplicative latency noise around the true curve.
                let mut p = synthetic_point(rate, capacity);
                let noisy = p.latency_seconds * (0.7 + 0.6 * lcg());
                p.latency_seconds = noisy;
                p.met = noisy <= 0.005;
                Ok(p)
            })
            .unwrap();
            for p in &report.points {
                if !p.met {
                    assert!(
                        report.knee_rate < p.rate,
                        "seed {seed}: knee {} >= violated rate {}",
                        report.knee_rate,
                        p.rate
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_and_probe_errors_propagate() {
        let probe = |rate: f64| Ok(synthetic_point(rate, 1000.0));
        for bad in [
            CapacityConfig {
                initial_rate: 0.0,
                ..CapacityConfig::default()
            },
            CapacityConfig {
                max_probes: 1,
                ..CapacityConfig::default()
            },
            CapacityConfig {
                tolerance: 0.0,
                ..CapacityConfig::default()
            },
        ] {
            assert!(capacity_search(&bad, probe).is_err());
        }
        let err = capacity_search(&CapacityConfig::default(), |_| {
            Err::<CapacityPoint, _>(BenchError::Sut("probe died".to_string()))
        });
        assert!(matches!(err, Err(BenchError::Sut(_))));
    }

    #[test]
    fn with_arrival_rate_substitutes_and_synthesizes() {
        use crate::spec::ScenarioRegistry;
        use crate::suite::SuiteConfig;
        let base = ScenarioRegistry::with_config(SuiteConfig {
            dataset_size: 1000,
            ops_per_phase: 100,
            ..SuiteConfig::default()
        })
        .get("S2-abrupt-shift")
        .unwrap();
        assert!(base.arrival.is_none(), "suite scenarios are closed-loop");
        let open = with_arrival_rate(&base, 123.0);
        let arrival = open.arrival.as_ref().unwrap();
        assert_eq!(arrival.process, ArrivalProcess::Poisson { rate: 123.0 });
        assert_eq!(arrival.seed, base.workload.seed());
        // Substituting again preserves the (now-existing) arrival seed.
        let again = with_arrival_rate(&open, 456.0);
        assert_eq!(
            again.arrival.as_ref().unwrap().process,
            ArrivalProcess::Poisson { rate: 456.0 }
        );
        assert_eq!(again.arrival.as_ref().unwrap().seed, arrival.seed);
    }

    #[test]
    fn report_renders_sorted_with_knee_line() {
        let report = CapacityReport {
            sla: SlaTarget {
                quantile: 0.99,
                threshold_seconds: 0.005,
            },
            points: vec![
                synthetic_point(8000.0, 5000.0),
                synthetic_point(1000.0, 5000.0),
            ],
            knee_rate: 4000.0,
            saturated: true,
        };
        let text = render_capacity_report(&report);
        assert!(text.contains("p99 <= 5ms"));
        assert!(text.contains("knee: 4000.00 ops/s"));
        let p1000 = text.find("1000.00").unwrap();
        let p8000 = text.find("8000.00").unwrap();
        assert!(p1000 < p8000, "points render sorted by rate");
        assert!(text.contains("VIOLATED"));
    }
}
