//! The standard benchmark suite.
//!
//! §V-A envisions the benchmark as "a common framework for executing
//! different scenarios" whose official results come from a fixed,
//! hold-out-bearing suite (possibly run as a service). This module defines
//! that suite: seven standard scenarios covering the paper's dynamism axes
//! — specialization, abrupt and gradual shifts, write bursts, bursty
//! open-loop load, templated repetition, and ledger growth — plus a
//! hold-out pass. The scenarios are the spec files `scenarios/s1…s7.spec`,
//! written at the default [`SuiteConfig`] scale and moved to any other by
//! [`SuiteConfig::rescale`]. The SLA threshold of each scenario is
//! calibrated once from a B+-tree baseline run (as §V-D.2 recommends,
//! [`calibrate_sla`]) and shared by every SUT; running a SUT through the
//! calibrated scenarios ([`run_scenarios`]) yields one [`SuiteResult`]
//! combining every metric family:
//!
//! ```text
//! let calibrated = calibrate_sla(standard_scenarios(&cfg)?, threads)?;
//! let (result, _) = run_scenarios(factory, &calibrated, threads, ObsConfig::default())?;
//! ```

use crate::metrics::adaptability::AdaptabilityReport;
use crate::metrics::sla::SlaReport;
use crate::obs::{MetricsRegistry, ObsConfig, SpanNode, TraceLog};
use crate::record::RunRecord;
use crate::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use crate::scenario::Scenario;
use crate::spec::parse_scenario;
use crate::{BenchError, Result};
use lsbench_sut::kv::BTreeSut;
use lsbench_workload::dataset::Dataset;
use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};
use serde::{Deserialize, Serialize};

/// The scale the standard suite runs at. Its spec files are written at
/// the default one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Keys in each scenario's dataset.
    pub dataset_size: usize,
    /// Operations in a phase the files write as 10 000.
    pub ops_per_phase: u64,
    /// Master seed; every seed in the files is the default master seed
    /// xor a per-scenario salt.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            dataset_size: 100_000,
            ops_per_phase: 10_000,
            seed: 0x5EED,
        }
    }
}

impl SuiteConfig {
    /// Moves a scenario written at the default scale to this one: the
    /// dataset holds `dataset_size` keys, every phase and hold-out phase
    /// runs `max(1, ops · ops_per_phase / 10 000)` operations, and every
    /// seed (workload, dataset, hold-out, arrival) becomes
    /// `seed ^ 0x5EED ^ self.seed`. Refuses `ops_per_phase = 0` and a
    /// phase whose operations do not fit in 64 bits.
    pub fn rescale(&self, mut s: Scenario) -> Result<Scenario> {
        let base = SuiteConfig::default();
        if self.ops_per_phase == 0 {
            return Err(BenchError::InvalidScenario(
                "suite ops per phase must be at least 1".to_string(),
            ));
        }
        let reseed = base.seed ^ self.seed;
        let scale = |w: &PhasedWorkload| -> Result<PhasedWorkload> {
            let phases = w.phases().iter().map(|p| {
                let ops = u128::from(p.ops) * u128::from(self.ops_per_phase)
                    / u128::from(base.ops_per_phase);
                let ops = u64::try_from(ops.max(1)).map_err(|_| {
                    BenchError::InvalidScenario(format!(
                        "phase '{}' has more than 2^64 - 1 ops at {} ops per phase",
                        p.name, self.ops_per_phase
                    ))
                })?;
                Ok(WorkloadPhase { ops, ..p.clone() })
            });
            let phases = phases.collect::<Result<_>>()?;
            PhasedWorkload::new(phases, w.transitions().to_vec(), w.seed() ^ reseed)
                .map_err(|e| BenchError::Workload(e.to_string()))
        };
        s.dataset.size = self.dataset_size;
        s.dataset.seed ^= reseed;
        s.workload = scale(&s.workload)?;
        s.holdout = s.holdout.as_ref().map(scale).transpose()?;
        if let Some(arrival) = &mut s.arrival {
            arrival.seed ^= reseed;
        }
        s.validate()?;
        Ok(s)
    }

    /// Parses one of the suite's spec files and moves it to this scale.
    pub(crate) fn build(&self, spec: &str) -> Result<Scenario> {
        self.rescale(parse_scenario(spec)?)
    }
}

/// The standard scenarios — registry name, one-line description, spec
/// text — in suite order. [`standard_scenarios`] and the
/// [`ScenarioRegistry`](crate::spec::ScenarioRegistry) both read this
/// table, so the suite and name resolution can never drift apart.
pub const STANDARD_SCENARIOS: &[(&str, &str, &str)] = &[
    (
        "S1-specialization",
        "specialization sweep over four read distributions + hold-out",
        include_str!("../../../scenarios/s1-specialization.spec"),
    ),
    (
        "S2-abrupt-shift",
        "abrupt distribution shift (reads)",
        include_str!("../../../scenarios/s2-abrupt-shift.spec"),
    ),
    (
        "S3-gradual-writes",
        "gradual shift into a write-heavy phase",
        include_str!("../../../scenarios/s3-gradual-writes.spec"),
    ),
    (
        "S4-scans",
        "scan-bearing mixed workload (YCSB-E)",
        include_str!("../../../scenarios/s4-scans.spec"),
    ),
    (
        "S5-bursty-load",
        "bursty open-loop load (Poisson + burst modulation)",
        include_str!("../../../scenarios/s5-bursty-load.spec"),
    ),
    (
        "S6-templated-repetition",
        "hot query templates with Zipf popularity and churn (Redbench)",
        include_str!("../../../scenarios/s6-templated-repetition.spec"),
    ),
    (
        "S7-ledger-growth",
        "append-mostly ledger with drifting key distribution (CrypQ)",
        include_str!("../../../scenarios/s7-ledger-growth.spec"),
    ),
];

/// Builds the seven standard scenarios at `cfg`'s scale.
pub fn standard_scenarios(cfg: &SuiteConfig) -> Result<Vec<Scenario>> {
    STANDARD_SCENARIOS
        .iter()
        .map(|(_, _, spec)| cfg.build(spec))
        .collect()
}

/// One scenario's condensed results within a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Classic average throughput (ops/s).
    pub mean_throughput: f64,
    /// Normalized area vs. the ideal constant-throughput system (Fig. 1b).
    pub normalized_area: f64,
    /// SLA violation fraction against the B+-tree-calibrated threshold.
    pub violation_fraction: f64,
    /// Worst adjustment speed across phase changes (Fig. 1c single value).
    pub adjustment_speed: f64,
    /// Offline training seconds (Lesson 3).
    pub train_seconds: f64,
    /// Failed/unsupported operations.
    pub failures: usize,
    /// Out-of-sample generalization ratio, when the scenario has a hold-out.
    pub generalization: Option<f64>,
    /// Observability metrics collected during the run (counters, gauges,
    /// per-interval latency histograms). Deterministic: metrics ride the
    /// virtual clock, so repeated runs produce identical registries.
    pub metrics: MetricsRegistry,
}

/// A complete suite result for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteResult {
    /// SUT display name.
    pub sut_name: String,
    /// Per-scenario summaries, in suite order.
    pub summaries: Vec<ScenarioSummary>,
}

/// Observation artifacts from one suite run, beyond the summaries: the
/// per-scenario event traces and wall-clock span trees requested via the
/// [`ObsConfig`] handed to [`run_scenarios`]. Both vectors pair each
/// artifact with its scenario name and are empty when tracing was off.
#[derive(Debug, Default)]
pub struct SuiteObservation {
    /// `(scenario name, trace)` per scenario, when tracing was on.
    pub traces: Vec<(String, TraceLog)>,
    /// `(scenario name, span tree)` per scenario, when tracing was on.
    pub spans: Vec<(String, Vec<SpanNode>)>,
    /// `(scenario name, complete run record)` per scenario — always
    /// populated, so suite runs can be archived into the results store
    /// (`lsbench suite --save`) without re-running anything.
    pub records: Vec<(String, RunRecord)>,
}

/// The suite's execution shape: `threads > 1` key-range-shards every
/// scenario, `1` runs it serially.
fn suite_mode(threads: usize) -> Result<ExecutionMode> {
    match threads {
        0 => Err(BenchError::InvalidScenario(
            "suite threads must be at least 1".to_string(),
        )),
        1 => Ok(ExecutionMode::Serial),
        workers => Ok(ExecutionMode::Sharded { workers }),
    }
}

fn btree_baseline(data: &Dataset) -> Result<BoxedKvSut> {
    let sut = BTreeSut::build(data).map_err(|e| BenchError::Sut(e.to_string()))?;
    Ok(Box::new(sut))
}

/// Calibrates every scenario's SLA threshold from one B+-tree baseline run
/// in the execution shape `threads` selects (no hold-out, metrics-only
/// observation), so violation fractions are comparable across SUTs. The
/// threshold is a function of the scenario and the shape alone: calibrate
/// once, then hand the pairs to [`run_scenarios`] for every SUT.
pub fn calibrate_sla(scenarios: Vec<Scenario>, threads: usize) -> Result<Vec<(Scenario, f64)>> {
    calibrate_with(btree_baseline, scenarios, threads)
}

/// [`calibrate_sla`] over any baseline factory (the tests count its calls).
fn calibrate_with<F>(
    mut factory: F,
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Result<Vec<(Scenario, f64)>>
where
    F: FnMut(&Dataset) -> Result<BoxedKvSut>,
{
    let opts = RunOptions::with_mode(suite_mode(threads)?);
    let calibrate = |scenario: Scenario| {
        let baseline = Runner::from_factory(&mut factory)
            .config(opts)
            .run(&scenario)?;
        let threshold = scenario.sla.resolve(Some(&baseline.record))?;
        Ok((scenario, threshold))
    };
    scenarios.into_iter().map(calibrate).collect()
}

/// Runs one SUT (built fresh per scenario by `factory`) through
/// [calibrated](calibrate_sla) scenarios from any source — the built-in
/// suite ([`standard_scenarios`]), a
/// [`ScenarioRegistry`](crate::spec::ScenarioRegistry) resolution, or
/// parsed `scenarios/*.spec` files — in the execution shape the
/// calibration used: one [`ScenarioSummary`] per scenario, the hold-out
/// pass where the scenario has one, and `obs` applied to every run.
pub fn run_scenarios<F>(
    mut factory: F,
    calibrated: &[(Scenario, f64)],
    threads: usize,
    obs: ObsConfig,
) -> Result<(SuiteResult, SuiteObservation)>
where
    F: FnMut(&Dataset) -> Result<BoxedKvSut>,
{
    let mode = suite_mode(threads)?;
    let mut summaries = Vec::with_capacity(calibrated.len());
    let mut observation = SuiteObservation::default();
    let mut sut_name = String::new();
    for (scenario, threshold) in calibrated {
        let opts = RunOptions {
            holdout: scenario.holdout.is_some(),
            obs,
            ..RunOptions::with_mode(mode)
        };
        let outcome = Runner::from_factory(&mut factory)
            .config(opts)
            .run(scenario)?;
        let generalization = outcome
            .holdout
            .as_ref()
            .map(|(_, cmp)| cmp.generalization_ratio);
        if let Some(trace) = outcome.trace {
            observation.traces.push((scenario.name.clone(), trace));
        }
        if !outcome.spans.is_empty() {
            observation
                .spans
                .push((scenario.name.clone(), outcome.spans));
        }
        sut_name = outcome.record.sut_name.clone();
        summaries.push(summarize(
            &outcome.record,
            *threshold,
            generalization,
            outcome.metrics,
        )?);
        observation
            .records
            .push((scenario.name.clone(), outcome.record));
    }
    Ok((
        SuiteResult {
            sut_name,
            summaries,
        },
        observation,
    ))
}

fn summarize(
    record: &RunRecord,
    threshold: f64,
    generalization: Option<f64>,
    metrics: MetricsRegistry,
) -> Result<ScenarioSummary> {
    let adapt = AdaptabilityReport::from_record(record)?;
    let sla = SlaReport::headline(record, threshold)?;
    Ok(ScenarioSummary {
        scenario: record.scenario_name.clone(),
        mean_throughput: record.mean_throughput(),
        normalized_area: adapt.normalized_area,
        violation_fraction: sla.violation_fraction,
        adjustment_speed: sla.worst_adjustment(),
        train_seconds: record.train.seconds,
        failures: record.failures(),
        generalization,
        metrics,
    })
}

/// Renders a cross-SUT comparison table over suite results.
pub fn render_comparison(results: &[SuiteResult]) -> String {
    let mut out = String::new();
    if results.is_empty() {
        return out;
    }
    for (i, scenario) in results[0].summaries.iter().enumerate() {
        out.push_str(&format!("== {} ==\n", scenario.scenario));
        out.push_str(
            "  SUT                 ops/s    norm-area  viol%   adjust-s  train-s  fail  general\n",
        );
        for r in results {
            let Some(s) = r.summaries.get(i) else {
                continue;
            };
            out.push_str(&format!(
                "  {:<18} {:>8.0} {:>11.4} {:>6.2} {:>10.4} {:>8.3} {:>5} {:>8}\n",
                r.sut_name,
                s.mean_throughput,
                s.normalized_area,
                s.violation_fraction * 100.0,
                s.adjustment_speed,
                s.train_seconds,
                s.failures,
                s.generalization
                    .map(|g| format!("{g:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_sut::kv::{BTreeSut, RetrainPolicy, RmiSut};

    /// One SUT through the standard suite at `cfg` on `threads` lanes.
    fn run_suite<F>(factory: F, cfg: &SuiteConfig, threads: usize) -> Result<SuiteResult>
    where
        F: FnMut(&Dataset) -> Result<BoxedKvSut>,
    {
        let calibrated = calibrate_sla(standard_scenarios(cfg)?, threads)?;
        run_scenarios(factory, &calibrated, threads, ObsConfig::default()).map(|(r, _)| r)
    }

    fn tiny() -> SuiteConfig {
        SuiteConfig {
            dataset_size: 4_000,
            ops_per_phase: 600,
            seed: 1,
        }
    }

    #[test]
    fn standard_scenarios_are_valid() {
        let scenarios = standard_scenarios(&tiny()).unwrap();
        assert_eq!(scenarios.len(), 7);
        for s in &scenarios {
            s.validate().unwrap();
        }
        // S1 carries the hold-out; S5 is open loop.
        assert!(scenarios[0].holdout.is_some());
        assert!(scenarios[4].arrival.is_some());
    }

    #[test]
    fn rescale_refuses_zero_ops_and_ops_past_64_bits() {
        for ops_per_phase in [0, u64::MAX] {
            let registry = crate::spec::ScenarioRegistry::with_config(SuiteConfig {
                ops_per_phase,
                ..SuiteConfig::default()
            });
            for name in registry.names() {
                assert!(registry.get(name).is_err(), "{name} at {ops_per_phase}");
            }
        }
        // S5's one phase is written as 20 000 ops: twice the scale.
        let cfg = SuiteConfig {
            ops_per_phase: u64::MAX / 2 + 1,
            ..SuiteConfig::default()
        };
        let err = cfg.build(STANDARD_SCENARIOS[4].2).unwrap_err();
        assert!(err.to_string().contains("more than 2^64 - 1 ops"), "{err}");
    }

    #[test]
    fn suite_runs_for_learned_and_traditional() {
        let cfg = tiny();
        let rmi = run_suite(
            |data| {
                Ok(Box::new(
                    RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05))
                        .map_err(|e| crate::BenchError::Sut(e.to_string()))?,
                ))
            },
            &cfg,
            1,
        )
        .unwrap();
        let btree = run_suite(
            |data| {
                Ok(Box::new(
                    BTreeSut::build(data).map_err(|e| crate::BenchError::Sut(e.to_string()))?,
                ))
            },
            &cfg,
            1,
        )
        .unwrap();
        assert_eq!(rmi.summaries.len(), 7);
        assert_eq!(btree.summaries.len(), 7);
        assert_eq!(rmi.sut_name, "rmi");
        // Only S1 has a generalization ratio.
        assert!(rmi.summaries[0].generalization.is_some());
        assert!(rmi.summaries[1].generalization.is_none());
        // Learned SUT trains, traditional does not.
        assert!(rmi.summaries.iter().all(|s| s.train_seconds > 0.0));
        assert!(btree.summaries.iter().all(|s| s.train_seconds == 0.0));
        // Comparison renders every scenario once.
        let table = render_comparison(&[rmi.clone(), btree]);
        assert_eq!(table.matches("== S").count(), 7);
        assert!(table.contains("rmi"));
        assert!(table.contains("btree"));
        // JSON round trip.
        let json = serde_json::to_string(&rmi).unwrap();
        let back: SuiteResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rmi);
    }

    #[test]
    fn concurrent_suite_matches_schema_and_scales() {
        let cfg = tiny();
        let factory = |data: &Dataset| {
            Ok(
                Box::new(BTreeSut::build(data).map_err(|e| crate::BenchError::Sut(e.to_string()))?)
                    as BoxedKvSut,
            )
        };
        let one = run_suite(factory, &cfg, 1).unwrap();
        let four = run_suite(factory, &cfg, 4).unwrap();
        // Identical result schema: same scenarios, same metric families.
        assert_eq!(one.summaries.len(), four.summaries.len());
        for (a, b) in one.summaries.iter().zip(&four.summaries) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.generalization.is_some(), b.generalization.is_some());
        }
        // Read-heavy closed-loop scenarios gain aggregate throughput from
        // the extra lanes (S2 is pure reads).
        assert!(
            four.summaries[1].mean_throughput > one.summaries[1].mean_throughput,
            "threads=4 {} vs threads=1 {}",
            four.summaries[1].mean_throughput,
            one.summaries[1].mean_throughput
        );
        // Degenerate thread count is rejected.
        assert!(run_suite(factory, &cfg, 0).is_err());
    }

    #[test]
    fn observed_suite_collects_metrics_and_traces() {
        let cfg = tiny();
        let factory = |data: &Dataset| {
            Ok(
                Box::new(BTreeSut::build(data).map_err(|e| crate::BenchError::Sut(e.to_string()))?)
                    as BoxedKvSut,
            )
        };
        let calibrated = calibrate_sla(standard_scenarios(&cfg).unwrap(), 1).unwrap();
        let (result, observation) =
            run_scenarios(factory, &calibrated, 1, ObsConfig::traced()).unwrap();
        assert_eq!(observation.traces.len(), result.summaries.len());
        assert_eq!(observation.spans.len(), result.summaries.len());
        for (summary, (name, trace)) in result.summaries.iter().zip(&observation.traces) {
            assert_eq!(&summary.scenario, name);
            assert!(summary.metrics.counter("ops_completed") > 0);
            assert_eq!(trace.count_kind("run_end"), 1);
        }
        // Tracing never alters results: summaries (metrics included) match
        // an untraced suite run exactly.
        let untraced = run_suite(factory, &cfg, 1).unwrap();
        assert_eq!(untraced, result);
    }

    #[test]
    fn sla_is_calibrated_once_per_scenario_however_many_suts() {
        let cfg = tiny();
        let mut baselines = 0;
        let counting = |data: &Dataset| {
            baselines += 1;
            btree_baseline(data)
        };
        let scenarios = standard_scenarios(&cfg).unwrap();
        let calibrated = calibrate_with(counting, scenarios, 1).unwrap();
        // Two SUTs share the thresholds; neither run calibrates again.
        let (first, _) =
            run_scenarios(btree_baseline, &calibrated, 1, ObsConfig::default()).unwrap();
        let (second, _) =
            run_scenarios(btree_baseline, &calibrated, 1, ObsConfig::default()).unwrap();
        assert_eq!(baselines, calibrated.len());
        assert_eq!(first, second);
    }

    #[test]
    fn suite_deterministic() {
        let cfg = tiny();
        let run = || {
            run_suite(
                |data| {
                    Ok(Box::new(
                        RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05))
                            .map_err(|e| crate::BenchError::Sut(e.to_string()))?,
                    ))
                },
                &cfg,
                1,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
