//! The standard benchmark suite.
//!
//! §V-A envisions the benchmark as "a common framework for executing
//! different scenarios" whose official results come from a fixed,
//! hold-out-bearing suite (possibly run as a service). This module defines
//! that suite: seven standard scenarios covering the paper's dynamism axes
//! — specialization, abrupt and gradual shifts, write bursts, bursty
//! open-loop load, templated repetition, and ledger growth — plus a
//! hold-out pass. The SLA threshold of each scenario is calibrated once
//! from a B+-tree baseline run (as §V-D.2 recommends, [`calibrate_sla`])
//! and shared by every SUT; running a SUT through the calibrated scenarios
//! ([`run_scenarios`]) yields one [`SuiteResult`] combining every metric
//! family:
//!
//! ```text
//! let calibrated = calibrate_sla(standard_scenarios(&cfg)?, cfg.threads)?;
//! let (result, _) = run_scenarios(factory, &calibrated, cfg.threads, ObsConfig::default())?;
//! ```

use crate::metrics::adaptability::AdaptabilityReport;
use crate::metrics::sla::SlaReport;
use crate::obs::{MetricsRegistry, ObsConfig, SpanNode, TraceLog};
use crate::record::RunRecord;
use crate::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use crate::scenario::{ArrivalSpec, DatasetSpec, Scenario};
use crate::{BenchError, Result};
use lsbench_sut::kv::BTreeSut;
use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::families::{LedgerGrowth, Steps, TemplatedRepetition};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
use serde::{Deserialize, Serialize};

/// Scale configuration for the standard suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// Keys in each scenario's dataset.
    pub dataset_size: usize,
    /// Operations per workload phase.
    pub ops_per_phase: u64,
    /// Master seed; every scenario derives its own seeds from it.
    pub seed: u64,
    /// Virtual work units per second.
    pub work_units_per_second: f64,
    /// Concurrency: `1` runs serially; larger values split each scenario's
    /// key space into that many shards
    /// ([`ExecutionMode::Sharded`]) on as many worker threads.
    pub threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            dataset_size: 100_000,
            ops_per_phase: 10_000,
            seed: 0x5EED,
            work_units_per_second: 1_000_000.0,
            threads: 1,
        }
    }
}

const KEY_RANGE: (u64, u64) = (0, 10_000_000);

fn base_dataset(cfg: &SuiteConfig, salt: u64) -> DatasetSpec {
    DatasetSpec {
        distribution: KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        key_range: KEY_RANGE,
        size: cfg.dataset_size,
        seed: cfg.seed ^ salt,
    }
}

fn phase(name: &str, d: KeyDistribution, mix: OperationMix, ops: u64) -> WorkloadPhase {
    WorkloadPhase::new(name, d, KEY_RANGE, mix, ops)
}

fn wrap(e: lsbench_workload::WorkloadError) -> BenchError {
    BenchError::Workload(e.to_string())
}

/// Shared suite defaults on top of [`Scenario::builder`]: the per-config
/// work rate and the suite's maintenance cadence.
fn suite_builder(name: &str, cfg: &SuiteConfig, salt: u64) -> crate::scenario::ScenarioBuilder {
    Scenario::builder(name)
        .dataset_spec(base_dataset(cfg, salt))
        .work_units_per_second(cfg.work_units_per_second)
        .maintenance_every(256)
}

/// S1: specialization sweep over four read distributions + hold-out.
pub fn s1_specialization(cfg: &SuiteConfig) -> Result<Scenario> {
    let ops = cfg.ops_per_phase;
    let workload = PhasedWorkload::new(
        vec![
            phase(
                "uniform",
                KeyDistribution::Uniform,
                OperationMix::ycsb_c(),
                ops,
            ),
            phase(
                "zipf",
                KeyDistribution::Zipf { theta: 1.1 },
                OperationMix::ycsb_c(),
                ops,
            ),
            phase(
                "hotspot",
                KeyDistribution::Hotspot {
                    hot_span: 0.05,
                    hot_fraction: 0.9,
                },
                OperationMix::ycsb_c(),
                ops,
            ),
            phase(
                "clustered",
                KeyDistribution::Clustered {
                    clusters: 4,
                    cluster_std_frac: 0.01,
                },
                OperationMix::ycsb_c(),
                ops,
            ),
        ],
        vec![TransitionKind::Abrupt; 3],
        cfg.seed ^ 0x51,
    )
    .map_err(wrap)?;
    let holdout = PhasedWorkload::single(
        phase(
            "holdout-tail",
            KeyDistribution::Normal {
                center: 0.92,
                std_frac: 0.02,
            },
            OperationMix::ycsb_c(),
            ops / 2,
        ),
        cfg.seed ^ 0x52,
    )
    .map_err(wrap)?;
    suite_builder("S1-specialization", cfg, 0x11)
        .workload(workload)
        .holdout(holdout)
        .build()
}

/// S2: abrupt distribution shift (reads).
pub fn s2_abrupt_shift(cfg: &SuiteConfig) -> Result<Scenario> {
    let ops = cfg.ops_per_phase;
    let workload = PhasedWorkload::new(
        vec![
            phase(
                "head",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                OperationMix::ycsb_c(),
                ops,
            ),
            phase(
                "tail",
                KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.03,
                },
                OperationMix::ycsb_c(),
                ops,
            ),
        ],
        vec![TransitionKind::Abrupt],
        cfg.seed ^ 0x53,
    )
    .map_err(wrap)?;
    suite_builder("S2-abrupt-shift", cfg, 0x22)
        .workload(workload)
        .build()
}

/// S3: gradual shift into a write-heavy phase (adaptation pressure).
pub fn s3_gradual_writes(cfg: &SuiteConfig) -> Result<Scenario> {
    let ops = cfg.ops_per_phase;
    let workload = PhasedWorkload::new(
        vec![
            phase(
                "reads",
                KeyDistribution::LogNormal {
                    mu: 0.0,
                    sigma: 1.2,
                },
                OperationMix::ycsb_c(),
                ops,
            ),
            phase(
                "mixed-writes",
                KeyDistribution::Normal {
                    center: 0.85,
                    std_frac: 0.04,
                },
                OperationMix {
                    read: 0.5,
                    insert: 0.5,
                    update: 0.0,
                    scan: 0.0,
                    delete: 0.0,
                    max_scan_len: 0,
                },
                ops,
            ),
        ],
        vec![TransitionKind::Gradual { window: 0.3 }],
        cfg.seed ^ 0x54,
    )
    .map_err(wrap)?;
    suite_builder("S3-gradual-writes", cfg, 0x33)
        .workload(workload)
        .build()
}

/// S4: scan-bearing mixed workload (YCSB-E flavour).
pub fn s4_scans(cfg: &SuiteConfig) -> Result<Scenario> {
    let ops = cfg.ops_per_phase;
    let workload = PhasedWorkload::new(
        vec![
            phase(
                "points",
                KeyDistribution::Zipf { theta: 0.99 },
                OperationMix::ycsb_b(),
                ops,
            ),
            phase(
                "scans",
                KeyDistribution::Zipf { theta: 0.99 },
                OperationMix::ycsb_e(),
                ops,
            ),
        ],
        vec![TransitionKind::Abrupt],
        cfg.seed ^ 0x55,
    )
    .map_err(wrap)?;
    suite_builder("S4-scans", cfg, 0x44)
        .workload(workload)
        .build()
}

/// S5: bursty open-loop load (diurnal + burst dynamics of §III-A).
pub fn s5_bursty_load(cfg: &SuiteConfig) -> Result<Scenario> {
    let ops = cfg.ops_per_phase;
    let workload = PhasedWorkload::single(
        phase(
            "steady-reads",
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
            OperationMix::ycsb_c(),
            ops * 2,
        ),
        cfg.seed ^ 0x56,
    )
    .map_err(wrap)?;
    suite_builder("S5-bursty-load", cfg, 0x66)
        .workload(workload)
        .arrival(ArrivalSpec {
            process: ArrivalProcess::Poisson {
                // ~60% of the slowest SUT's service rate, so the baseline
                // keeps up at steady state but every system queues during
                // the ×4 bursts.
                rate: cfg.work_units_per_second / 33.0,
            },
            modulation: LoadModulation::Burst {
                period: 0.2,
                burst_len: 0.04,
                multiplier: 4.0,
            },
            seed: cfg.seed ^ 0x57,
        })
        .build()
}

/// S6: templated query repetition with churn (Redbench dynamics).
pub fn s6_templated_repetition(cfg: &SuiteConfig) -> Result<Scenario> {
    let family = TemplatedRepetition {
        steps: Steps {
            name: "templ".to_string(),
            steps: 4,
            ops_per_step: (cfg.ops_per_phase / 2).max(1),
            key_range: KEY_RANGE,
        },
        mix: OperationMix::ycsb_c(),
        templates: 1_000,
        hot_templates: 50,
        theta: 1.1,
        churn: 0.5,
    };
    let (phases, transitions) = family
        .expand()
        .map_err(|e| BenchError::Workload(format!("templated_repetition: {e}")))?;
    let workload = PhasedWorkload::new(phases, transitions, cfg.seed ^ 0x58).map_err(wrap)?;
    suite_builder("S6-templated-repetition", cfg, 0x77)
        .workload(workload)
        .build()
}

/// S7: append-mostly ledger whose key distribution drifts as it grows
/// (CrypQ dynamics).
pub fn s7_ledger_growth(cfg: &SuiteConfig) -> Result<Scenario> {
    let family = LedgerGrowth {
        steps: Steps {
            name: "ledger".to_string(),
            steps: 4,
            ops_per_step: (cfg.ops_per_phase / 2).max(1),
            key_range: KEY_RANGE,
        },
        start_frac: 0.25,
        append_fraction: 0.3,
        recency: 0.1,
    };
    let (phases, transitions) = family
        .expand()
        .map_err(|e| BenchError::Workload(format!("ledger: {e}")))?;
    let workload = PhasedWorkload::new(phases, transitions, cfg.seed ^ 0x59).map_err(wrap)?;
    suite_builder("S7-ledger-growth", cfg, 0x88)
        .workload(workload)
        .build()
}

/// A built-in scenario generator: builds a [`Scenario`] at the given
/// [`SuiteConfig`] scale.
pub type ScenarioGen = fn(&SuiteConfig) -> Result<Scenario>;

/// The standard scenario builders with their registry names and one-line
/// descriptions, in suite order. [`standard_scenarios`] and the
/// [`ScenarioRegistry`](crate::spec::ScenarioRegistry) both derive from
/// this table, so the suite and name resolution can never drift apart.
pub const STANDARD_SCENARIOS: &[(&str, &str, ScenarioGen)] = &[
    (
        "S1-specialization",
        "specialization sweep over four read distributions + hold-out",
        s1_specialization,
    ),
    (
        "S2-abrupt-shift",
        "abrupt distribution shift (reads)",
        s2_abrupt_shift,
    ),
    (
        "S3-gradual-writes",
        "gradual shift into a write-heavy phase",
        s3_gradual_writes,
    ),
    ("S4-scans", "scan-bearing mixed workload (YCSB-E)", s4_scans),
    (
        "S5-bursty-load",
        "bursty open-loop load (Poisson + burst modulation)",
        s5_bursty_load,
    ),
    (
        "S6-templated-repetition",
        "hot query templates with Zipf popularity and churn (Redbench)",
        s6_templated_repetition,
    ),
    (
        "S7-ledger-growth",
        "append-mostly ledger with drifting key distribution (CrypQ)",
        s7_ledger_growth,
    ),
];

/// Builds the seven standard scenarios.
pub fn standard_scenarios(cfg: &SuiteConfig) -> Result<Vec<Scenario>> {
    STANDARD_SCENARIOS
        .iter()
        .map(|(_, _, build)| build(cfg))
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

/// Interval count used for SLA bands inside the suite.
const SLA_INTERVALS: f64 = 40.0;
/// N for the adjustment-speed metric inside the suite.
const ADJUSTMENT_N: usize = 2_000;

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
    let interval = (record.exec_duration() / SLA_INTERVALS).max(f64::MIN_POSITIVE);
    let sla = SlaReport::from_record(record, threshold, interval, ADJUSTMENT_N)?;
    let adjustment_speed = sla
        .adjustment_speed
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max);
    Ok(ScenarioSummary {
        scenario: record.scenario_name.clone(),
        mean_throughput: record.mean_throughput(),
        normalized_area: adapt.normalized_area,
        violation_fraction: sla.violation_fraction,
        adjustment_speed,
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

    /// One SUT through the standard suite at `cfg`.
    fn run_suite<F>(factory: F, cfg: &SuiteConfig) -> Result<SuiteResult>
    where
        F: FnMut(&Dataset) -> Result<BoxedKvSut>,
    {
        let calibrated = calibrate_sla(standard_scenarios(cfg)?, cfg.threads)?;
        run_scenarios(factory, &calibrated, cfg.threads, ObsConfig::default()).map(|(r, _)| r)
    }

    fn tiny() -> SuiteConfig {
        SuiteConfig {
            dataset_size: 4_000,
            ops_per_phase: 600,
            seed: 1,
            work_units_per_second: 1_000_000.0,
            threads: 1,
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
        )
        .unwrap();
        let btree = run_suite(
            |data| {
                Ok(Box::new(
                    BTreeSut::build(data).map_err(|e| crate::BenchError::Sut(e.to_string()))?,
                ))
            },
            &cfg,
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
        let serial = tiny();
        let sharded = SuiteConfig {
            threads: 4,
            ..serial
        };
        let factory = |data: &Dataset| {
            Ok(
                Box::new(BTreeSut::build(data).map_err(|e| crate::BenchError::Sut(e.to_string()))?)
                    as BoxedKvSut,
            )
        };
        let one = run_suite(factory, &serial).unwrap();
        let four = run_suite(factory, &sharded).unwrap();
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
        assert!(run_suite(
            factory,
            &SuiteConfig {
                threads: 0,
                ..serial
            }
        )
        .is_err());
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
        let calibrated = calibrate_sla(standard_scenarios(&cfg).unwrap(), cfg.threads).unwrap();
        let (result, observation) =
            run_scenarios(factory, &calibrated, cfg.threads, ObsConfig::traced()).unwrap();
        assert_eq!(observation.traces.len(), result.summaries.len());
        assert_eq!(observation.spans.len(), result.summaries.len());
        for (summary, (name, trace)) in result.summaries.iter().zip(&observation.traces) {
            assert_eq!(&summary.scenario, name);
            assert!(summary.metrics.counter("ops_completed") > 0);
            assert_eq!(trace.count_kind("run_end"), 1);
        }
        // Tracing never alters results: summaries (metrics included) match
        // an untraced suite run exactly.
        let untraced = run_suite(factory, &cfg).unwrap();
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
        let calibrated = calibrate_with(counting, scenarios, cfg.threads).unwrap();
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
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
