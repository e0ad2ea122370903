//! Hold-out (out-of-sample) evaluation.
//!
//! §V-A: "we propose to include hold-out workload and data distributions
//! that the system is only allowed to execute once. In doing so, the
//! benchmark could measure out-of-sample performance." The
//! [`Runner`](crate::runner::Runner) runs the hold-out workload exactly
//! once — as part of the run that asked for it
//! ([`RunOptions::holdout`](crate::runner::RunOptions::holdout)), never as
//! a pass of its own — *without* phase-change notifications or
//! maintenance slots (no adaptation opportunity), and this module compares
//! in-sample to out-of-sample throughput — the overfitting gap.

use crate::record::RunRecord;
use crate::scenario::{OnlineTrainMode, Scenario};
use crate::{BenchError, Result};
use serde::{Deserialize, Serialize};

/// Out-of-sample comparison for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoldoutReport {
    /// SUT name.
    pub sut_name: String,
    /// Mean throughput during the main (in-sample) run.
    pub in_sample_throughput: f64,
    /// Mean throughput on the hold-out workload.
    pub out_of_sample_throughput: f64,
    /// `out_of_sample / in_sample` — 1.0 means no overfitting; values well
    /// below 1 mean the system specialized to the training distributions.
    pub generalization_ratio: f64,
}

impl HoldoutReport {
    /// Computes the report from a main run and a hold-out run.
    pub fn new(main: &RunRecord, holdout: &RunRecord) -> Result<Self> {
        let in_t = main.mean_throughput();
        let out_t = holdout.mean_throughput();
        if in_t <= 0.0 {
            return Err(BenchError::Metric(
                "in-sample run has zero throughput".to_string(),
            ));
        }
        Ok(HoldoutReport {
            sut_name: main.sut_name.clone(),
            in_sample_throughput: in_t,
            out_of_sample_throughput: out_t,
            generalization_ratio: out_t / in_t,
        })
    }
}

/// Builds the one-shot scenario around a scenario's hold-out workload:
/// no training, effectively-disabled maintenance, no arrival schedule, no
/// nested hold-out, and no fault plan (the builder defaults to `None`, so
/// hold-out passes always measure the unperturbed system). Errors if the
/// scenario has no hold-out.
pub(crate) fn one_shot_scenario(scenario: &Scenario) -> Result<Scenario> {
    let holdout = scenario
        .holdout
        .as_ref()
        .ok_or_else(|| BenchError::InvalidScenario("scenario has no hold-out".to_string()))?;
    Scenario::builder(format!("{}-holdout", scenario.name))
        .dataset_spec(scenario.dataset.clone())
        .workload(holdout.clone())
        .train_budget(0)
        .sla(scenario.sla)
        .work_units_per_second(scenario.work_units_per_second)
        .maintenance_every(u64::MAX)
        .online_train(OnlineTrainMode::Foreground)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunOptions, RunOutcome, Runner};
    use lsbench_sut::kv::{RetrainPolicy, RmiSut};
    use lsbench_workload::keygen::KeyDistribution;
    use lsbench_workload::ops::OperationMix;
    use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};

    fn scenario_with_holdout() -> Scenario {
        let mut s = Scenario::two_phase_shift(
            "main",
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 1.1 },
            2_000,
            1_000,
            5,
        )
        .unwrap();
        s.holdout = Some(
            PhasedWorkload::single(
                WorkloadPhase::new(
                    "holdout-hotspot",
                    KeyDistribution::Hotspot {
                        hot_span: 0.05,
                        hot_fraction: 0.95,
                    },
                    (0, 10_000_000),
                    OperationMix::ycsb_c(),
                    500,
                ),
                99,
            )
            .unwrap(),
        );
        s
    }

    fn run_with_holdout(s: &Scenario) -> Result<RunOutcome> {
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let opts = RunOptions {
            holdout: true,
            ..RunOptions::default()
        };
        Runner::new(&mut sut).config(opts).run(s)
    }

    #[test]
    fn holdout_runs_once() {
        let s = scenario_with_holdout();
        let outcome = run_with_holdout(&s).unwrap();
        let (main, (hold, _)) = (outcome.record, outcome.holdout.unwrap());
        assert_eq!(hold.completed(), 500);
        assert_eq!(hold.train.work, 0, "hold-out must not retrain");
        let report = HoldoutReport::new(&main, &hold).unwrap();
        assert!(report.in_sample_throughput > 0.0);
        assert!(report.out_of_sample_throughput > 0.0);
        assert!(report.generalization_ratio > 0.0);
    }

    #[test]
    fn missing_holdout_errors() {
        let mut s = scenario_with_holdout();
        s.holdout = None;
        assert!(run_with_holdout(&s).is_err());
    }

    #[test]
    fn report_math() {
        let s = scenario_with_holdout();
        let (_, report) = run_with_holdout(&s).unwrap().holdout.unwrap();
        let expect = report.out_of_sample_throughput / report.in_sample_throughput;
        assert!((report.generalization_ratio - expect).abs() < 1e-12);
    }
}
