//! Benchmark scenarios.
//!
//! A [`Scenario`] bundles everything one benchmark run needs (§V-B:
//! "settings for configuring execution with different workload and data
//! distributions as well as setting the training time and associated
//! resource overhead"):
//!
//! * the initial **dataset** (distribution, size, key range, seed),
//! * the **phased workload** (distributions, mixes, transitions, order),
//! * the offline **training budget** in work units,
//! * the **SLA policy** (explicit threshold or calibrate-from-baseline),
//! * optional **hold-out phases** executed exactly once for out-of-sample
//!   measurement (§V-A).

use crate::faults::FaultPlan;
use crate::metrics::sla::SlaPolicy;
use crate::{BenchError, Result};
use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
use serde::{Deserialize, Serialize};

/// Open-loop arrival specification: operations arrive on their own
/// schedule regardless of completions, so queueing delay becomes part of
/// query latency. This is how the benchmark models §III-A's "temporary
/// bursts in query load" and "diurnal query patterns".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// The arrival process (Poisson or uniform; closed-loop is expressed by
    /// leaving [`Scenario::arrival`] as `None`).
    pub process: ArrivalProcess,
    /// Time-varying load modulation.
    pub modulation: LoadModulation,
    /// Seed for the arrival process.
    pub seed: u64,
}

/// Open-loop client population: how many simulated clients the event-heap
/// scheduler ([`ExecutionMode::OpenLoop`](crate::runner::ExecutionMode::OpenLoop))
/// multiplexes onto the worker pool.
/// Spelled as the `[open_loop]` section in `.spec` files; requires an
/// arrival process ([`Scenario::arrival`]) since open-loop clients issue
/// operations on the arrival schedule, not on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenLoopSpec {
    /// Number of simulated open-loop clients (may be millions; per-client
    /// state is four scalars).
    pub clients: u64,
}

/// A closed choice written as one of a few words — in spec files, on the
/// command line, in rendered text. Its one `(spelling, value)` table is
/// what parsing, printing and every "expected …" hint read.
pub trait Choice: Copy + PartialEq + 'static {
    /// Every value with its spelling, in the order hints list them.
    const SPELLINGS: &'static [(&'static str, Self)];

    /// The value `word` spells, if any.
    fn parse(word: &str) -> Option<Self> {
        let found = Self::SPELLINGS.iter().find(|(w, _)| *w == word);
        found.map(|&(_, v)| v)
    }

    /// The word this value is spelled as.
    fn as_str(&self) -> &'static str {
        let found = Self::SPELLINGS.iter().find(|(_, v)| v == self);
        found.expect("every value has a spelling").0
    }

    /// Every spelling, in table order.
    fn words() -> Vec<&'static str> {
        Self::SPELLINGS.iter().map(|&(w, _)| w).collect()
    }
}

/// `"a", "b", or "c"` (`"a" or "b"` for two): how every "unknown …"
/// hint lists the words a closed choice accepts.
pub fn one_of(words: &[&str]) -> String {
    let quoted: Vec<String> = words.iter().map(|w| format!("\"{w}\"")).collect();
    let (last, init) = quoted.split_last().expect("a closed choice has words");
    match init {
        [only] => format!("{only} or {last}"),
        _ => format!("{}, or {last}", init.join(", ")),
    }
}

/// The execution mode a scenario asks for (`mode = "..."` in the spec
/// `[run]` table). This is a *preference*: worker/client counts come from
/// the run options and [`OpenLoopSpec`], so the spec stays portable
/// across machines. `None` lets the caller (CLI flags, run options)
/// decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModePreference {
    /// The serial driver.
    Serial,
    /// Shared-mutex concurrent lanes.
    Shared,
    /// Key-range-sharded concurrent lanes.
    Sharded,
    /// The open-loop event-heap scheduler (requires `[open_loop]` and
    /// `[arrival]`).
    OpenLoop,
}

impl Choice for ModePreference {
    const SPELLINGS: &'static [(&'static str, Self)] = &[
        ("serial", ModePreference::Serial),
        ("shared", ModePreference::Shared),
        ("sharded", ModePreference::Sharded),
        ("open-loop", ModePreference::OpenLoop),
    ];
}

/// The measurement clock a scenario asks for (`clock = "..."` in the spec
/// `[run]` table). Like [`ModePreference`] this is a *preference*: `None`
/// lets the caller (CLI flags, run options) decide.
///
/// * [`Sim`](ClockMode::Sim) — the deterministic virtual clock: work units
///   converted to seconds at `work_units_per_second`. The conformance
///   oracle; records are bit-identical across machines and repeats.
/// * [`Wall`](ClockMode::Wall) — real elapsed time measured around the
///   batched dispatch, reported *alongside* the work-unit record (which
///   stays bit-identical to a sim run of the same scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClockMode {
    /// Deterministic virtual clock (the default).
    #[default]
    Sim,
    /// Wall-clock measurement alongside the work-unit accounting.
    Wall,
}

impl Choice for ClockMode {
    const SPELLINGS: &'static [(&'static str, Self)] =
        &[("sim", ClockMode::Sim), ("wall", ClockMode::Wall)];
}

/// How online adaptation (retraining) work consumes resources (§V-B:
/// "the fraction of system resources to dedicate for online training").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OnlineTrainMode {
    /// Retraining runs in the foreground: the full burst stalls the next
    /// query (one large latency spike).
    Foreground,
    /// Retraining runs in the background on `fraction` of the resources
    /// (processor sharing): queries slow to `1 − fraction` speed until the
    /// backlog drains — a longer, shallower throughput dip instead of a
    /// spike.
    Background {
        /// Fraction of resources dedicated to training, in `(0, 1)`.
        fraction: f64,
    },
}

/// Specification of the initial dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Key distribution to draw from.
    pub distribution: KeyDistribution,
    /// Key range `[lo, hi)`.
    pub key_range: (u64, u64),
    /// Number of unique keys.
    pub size: usize,
    /// Generation seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Materializes the dataset.
    pub fn build(&self) -> Result<Dataset> {
        Dataset::generate(
            self.distribution.clone(),
            self.key_range.0,
            self.key_range.1,
            self.size,
            self.seed,
        )
        .map_err(|e| BenchError::Workload(e.to_string()))
    }
}

/// A complete benchmark scenario.
///
/// Prefer constructing scenarios through [`Scenario::builder`] (or the
/// ready-made [`Scenario::two_phase_shift`] /
/// [`Scenario::specialization_sweep`] presets): the builder fills in the
/// standard defaults and validates on [`ScenarioBuilder::build`], so an
/// inconsistent scenario fails at construction instead of mid-run. The
/// fields stay public for inspection and targeted tweaks of a built
/// scenario; a struct literal compiles with nonsense (zero rates, empty
/// datasets) that the builder rejects, and every run entry point
/// re-validates for exactly that reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name for reports.
    pub name: String,
    /// Initial database.
    pub dataset: DatasetSpec,
    /// The phased execution workload.
    pub workload: PhasedWorkload,
    /// Offline training budget in work units (0 = skip training phase).
    pub train_budget: u64,
    /// SLA policy for Fig. 1c metrics.
    pub sla: SlaPolicy,
    /// Virtual work units per second (converts work to time).
    pub work_units_per_second: f64,
    /// Offer the SUT a maintenance slot every this many operations.
    pub maintenance_every: u64,
    /// Optional hold-out workload, executed once after the main run (§V-A).
    pub holdout: Option<PhasedWorkload>,
    /// `None` = closed loop (next op issued on completion); `Some` = open
    /// loop, where latency includes queueing behind earlier operations.
    pub arrival: Option<ArrivalSpec>,
    /// Open-loop client population for the event-heap scheduler
    /// (`[open_loop]` spec section). Requires `arrival`.
    pub open_loop: Option<OpenLoopSpec>,
    /// Preferred execution mode (`mode` key in the spec `[run]` table);
    /// `None` lets the caller decide.
    pub mode: Option<ModePreference>,
    /// Preferred measurement clock (`clock` key in the spec `[run]`
    /// table); `None` lets the caller decide (default: sim).
    pub clock: Option<ClockMode>,
    /// How online retraining work is scheduled against queries.
    pub online_train: OnlineTrainMode,
    /// Optional deterministic fault-injection plan (`[[fault]]` spec
    /// blocks or the `--faults` CLI flag). `None` = unfaulted run taking
    /// the exact unperturbed code path.
    pub faults: Option<FaultPlan>,
}

/// Refuses a name that one spec `"string"` cannot hold — a `"` or a line
/// break — so that every valid scenario renders to text that parses back.
fn check_name(what: &str, name: &str) -> Result<()> {
    match name.chars().find(|c| matches!(c, '"' | '\n')) {
        Some(c) => Err(BenchError::InvalidScenario(format!(
            "{what} {name:?} contains {c:?}, which a spec string cannot hold"
        ))),
        None => Ok(()),
    }
}

impl Scenario {
    /// Starts a [`ScenarioBuilder`] with the standard defaults (YCSB-C
    /// friendly rates, unlimited training budget, calibrated SLA). Dataset
    /// and workload must be supplied before [`ScenarioBuilder::build`].
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<()> {
        let phases = self.workload.phases().iter();
        let holdout = self.holdout.iter().flat_map(|h| h.phases());
        check_name("scenario name", &self.name)?;
        for phase in phases.chain(holdout) {
            check_name("phase name", &phase.name)?;
        }
        if self.work_units_per_second <= 0.0 {
            return Err(BenchError::InvalidScenario(
                "work_units_per_second must be positive".to_string(),
            ));
        }
        if self.maintenance_every == 0 {
            return Err(BenchError::InvalidScenario(
                "maintenance_every must be positive".to_string(),
            ));
        }
        if self.dataset.size == 0 {
            return Err(BenchError::InvalidScenario(
                "dataset size must be positive".to_string(),
            ));
        }
        if let OnlineTrainMode::Background { fraction } = self.online_train {
            if !(0.0 < fraction && fraction < 1.0) {
                return Err(BenchError::InvalidScenario(
                    "background training fraction must be in (0, 1)".to_string(),
                ));
            }
        }
        if let Some(a) = &self.arrival {
            a.process
                .validate()
                .and_then(|()| a.modulation.validate())
                .map_err(|e| BenchError::InvalidScenario(e.to_string()))?;
            if matches!(a.process, ArrivalProcess::ClosedLoop) {
                return Err(BenchError::InvalidScenario(
                    "closed loop is expressed by arrival = None".to_string(),
                ));
            }
        }
        if let Some(open_loop) = &self.open_loop {
            if open_loop.clients == 0 {
                return Err(BenchError::InvalidScenario(
                    "open_loop clients must be at least 1".to_string(),
                ));
            }
            if self.arrival.is_none() {
                return Err(BenchError::InvalidScenario(
                    "[open_loop] requires an [arrival] section: open-loop clients issue \
                     operations on the arrival schedule"
                        .to_string(),
                ));
            }
        }
        if self.mode == Some(ModePreference::OpenLoop) && self.arrival.is_none() {
            return Err(BenchError::InvalidScenario(format!(
                "mode = \"{}\" requires an [arrival] section",
                ModePreference::OpenLoop.as_str()
            )));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.workload.phases())
                .map_err(BenchError::InvalidScenario)?;
        }
        Ok(())
    }

    /// A ready-made two-phase shift scenario: `ops_per_phase` operations of
    /// reads on `first`, then an abrupt switch to `second` — the canonical
    /// adaptability experiment behind Fig. 1b/1c.
    pub fn two_phase_shift(
        name: impl Into<String>,
        first: KeyDistribution,
        second: KeyDistribution,
        dataset_size: usize,
        ops_per_phase: u64,
        seed: u64,
    ) -> Result<Scenario> {
        let key_range = (0u64, 10_000_000u64);
        let workload = PhasedWorkload::new(
            vec![
                WorkloadPhase::new(
                    first.name().to_string(),
                    first.clone(),
                    key_range,
                    OperationMix::ycsb_c(),
                    ops_per_phase,
                ),
                WorkloadPhase::new(
                    second.name().to_string(),
                    second,
                    key_range,
                    OperationMix::ycsb_c(),
                    ops_per_phase,
                ),
            ],
            vec![TransitionKind::Abrupt],
            seed,
        )
        .map_err(|e| BenchError::Workload(e.to_string()))?;
        Scenario::builder(name)
            .dataset(first, key_range, dataset_size, seed ^ 0xDA7A)
            .workload(workload)
            .build()
    }

    /// A multi-distribution specialization scenario: one phase per given
    /// distribution, all with the same mix — the Fig. 1a experiment.
    pub fn specialization_sweep(
        name: impl Into<String>,
        distributions: Vec<KeyDistribution>,
        dataset_size: usize,
        ops_per_phase: u64,
        mix: OperationMix,
        seed: u64,
    ) -> Result<Scenario> {
        if distributions.is_empty() {
            return Err(BenchError::InvalidScenario(
                "need at least one distribution".to_string(),
            ));
        }
        let key_range = (0u64, 10_000_000u64);
        let phases: Vec<WorkloadPhase> = distributions
            .iter()
            .map(|d| WorkloadPhase::new(d.name(), d.clone(), key_range, mix.clone(), ops_per_phase))
            .collect();
        let transitions = vec![TransitionKind::Abrupt; phases.len() - 1];
        let workload = PhasedWorkload::new(phases, transitions, seed)
            .map_err(|e| BenchError::Workload(e.to_string()))?;
        Scenario::builder(name)
            .dataset(
                KeyDistribution::Uniform,
                key_range,
                dataset_size,
                seed ^ 0xDA7A,
            )
            .workload(workload)
            .build()
    }
}

/// Builder for [`Scenario`] with validate-on-build.
///
/// Defaults mirror the [`Scenario::two_phase_shift`] preset: unlimited
/// offline training budget, SLA calibrated at 4× the baseline p99, one
/// million work units per second, a maintenance slot every 64 operations,
/// closed-loop arrivals, and foreground online training. Only the dataset
/// and the workload are mandatory.
///
/// ```
/// # use lsbench_core::scenario::{DatasetSpec, Scenario};
/// # use lsbench_workload::keygen::KeyDistribution;
/// # use lsbench_workload::ops::OperationMix;
/// # use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};
/// let workload = PhasedWorkload::single(
///     WorkloadPhase::new("steady", KeyDistribution::Uniform, (0, 1_000_000),
///                        OperationMix::ycsb_c(), 1_000),
///     7,
/// ).unwrap();
/// let scenario = Scenario::builder("example")
///     .dataset(KeyDistribution::Uniform, (0, 1_000_000), 10_000, 7)
///     .workload(workload)
///     .train_budget(50_000)
///     .build()
///     .unwrap();
/// assert_eq!(scenario.name, "example");
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    dataset: Option<DatasetSpec>,
    workload: Option<PhasedWorkload>,
    train_budget: u64,
    sla: SlaPolicy,
    work_units_per_second: f64,
    maintenance_every: u64,
    holdout: Option<PhasedWorkload>,
    arrival: Option<ArrivalSpec>,
    open_loop: Option<OpenLoopSpec>,
    mode: Option<ModePreference>,
    clock: Option<ClockMode>,
    online_train: OnlineTrainMode,
    faults: Option<FaultPlan>,
}

impl ScenarioBuilder {
    /// A builder with the standard defaults; equivalent to
    /// [`Scenario::builder`].
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            dataset: None,
            workload: None,
            train_budget: u64::MAX,
            sla: SlaPolicy::FromBaselineP99 { multiplier: 4.0 },
            work_units_per_second: 1_000_000.0,
            maintenance_every: 64,
            holdout: None,
            arrival: None,
            open_loop: None,
            mode: None,
            clock: None,
            online_train: OnlineTrainMode::Foreground,
            faults: None,
        }
    }

    /// Sets the initial dataset (required) from its parts.
    pub fn dataset(
        mut self,
        distribution: KeyDistribution,
        key_range: (u64, u64),
        size: usize,
        seed: u64,
    ) -> Self {
        self.dataset = Some(DatasetSpec {
            distribution,
            key_range,
            size,
            seed,
        });
        self
    }

    /// Sets the initial dataset (required) from a prepared spec.
    pub fn dataset_spec(mut self, spec: DatasetSpec) -> Self {
        self.dataset = Some(spec);
        self
    }

    /// Sets the phased execution workload (required).
    pub fn workload(mut self, workload: PhasedWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the offline training budget in work units (0 = skip training;
    /// default unlimited).
    pub fn train_budget(mut self, budget: u64) -> Self {
        self.train_budget = budget;
        self
    }

    /// Sets the SLA policy (default: 4× the calibrated baseline p99).
    pub fn sla(mut self, sla: SlaPolicy) -> Self {
        self.sla = sla;
        self
    }

    /// Sets the virtual work rate in work units per second (default 10⁶).
    pub fn work_units_per_second(mut self, rate: f64) -> Self {
        self.work_units_per_second = rate;
        self
    }

    /// Offers the SUT a maintenance slot every `n` operations (default 64).
    pub fn maintenance_every(mut self, n: u64) -> Self {
        self.maintenance_every = n;
        self
    }

    /// Adds a hold-out workload executed once after the main run (§V-A).
    pub fn holdout(mut self, workload: PhasedWorkload) -> Self {
        self.holdout = Some(workload);
        self
    }

    /// Switches to open-loop arrivals (default: closed loop).
    pub fn arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Declares an open-loop client population for the event-heap
    /// scheduler (default: none). Requires [`ScenarioBuilder::arrival`].
    pub fn open_loop(mut self, clients: u64) -> Self {
        self.open_loop = Some(OpenLoopSpec { clients });
        self
    }

    /// Sets the scenario's preferred execution mode (default: caller
    /// decides).
    pub fn mode(mut self, mode: ModePreference) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets the scenario's preferred measurement clock (default: caller
    /// decides, which means the deterministic virtual clock).
    pub fn clock(mut self, clock: ClockMode) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Sets how online retraining work is scheduled (default: foreground).
    pub fn online_train(mut self, mode: OnlineTrainMode) -> Self {
        self.online_train = mode;
        self
    }

    /// Attaches a deterministic fault-injection plan (default: none). The
    /// plan is validated against the workload's phases on build.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Assembles and validates the scenario. Errors if the dataset or
    /// workload is missing, or if any field fails [`Scenario::validate`].
    pub fn build(self) -> Result<Scenario> {
        let dataset = self.dataset.ok_or_else(|| {
            BenchError::InvalidScenario(format!("scenario '{}' has no dataset", self.name))
        })?;
        let workload = self.workload.ok_or_else(|| {
            BenchError::InvalidScenario(format!("scenario '{}' has no workload", self.name))
        })?;
        let scenario = Scenario {
            name: self.name,
            dataset,
            workload,
            train_budget: self.train_budget,
            sla: self.sla,
            work_units_per_second: self.work_units_per_second,
            maintenance_every: self.maintenance_every,
            holdout: self.holdout,
            arrival: self.arrival,
            open_loop: self.open_loop,
            mode: self.mode,
            clock: self.clock,
            online_train: self.online_train,
            faults: self.faults,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_spec_builds() {
        let spec = DatasetSpec {
            distribution: KeyDistribution::Uniform,
            key_range: (0, 100_000),
            size: 5000,
            seed: 1,
        };
        let d = spec.build().unwrap();
        assert_eq!(d.len(), 5000);
    }

    #[test]
    fn two_phase_shift_valid() {
        let s = Scenario::two_phase_shift(
            "shift",
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 1.1 },
            1000,
            500,
            7,
        )
        .unwrap();
        s.validate().unwrap();
        assert_eq!(s.workload.phases().len(), 2);
        assert_eq!(s.workload.total_ops(), 1000);
    }

    #[test]
    fn specialization_sweep_valid() {
        let s = Scenario::specialization_sweep(
            "sweep",
            vec![
                KeyDistribution::Uniform,
                KeyDistribution::Zipf { theta: 0.8 },
                KeyDistribution::Zipf { theta: 1.4 },
            ],
            1000,
            200,
            OperationMix::ycsb_c(),
            3,
        )
        .unwrap();
        s.validate().unwrap();
        assert_eq!(s.workload.phases().len(), 3);
    }

    #[test]
    fn builder_applies_defaults_and_validates() {
        let workload = PhasedWorkload::single(
            WorkloadPhase::new(
                "steady",
                KeyDistribution::Uniform,
                (0, 1_000_000),
                OperationMix::ycsb_c(),
                500,
            ),
            3,
        )
        .unwrap();
        let s = Scenario::builder("built")
            .dataset(KeyDistribution::Uniform, (0, 1_000_000), 1_000, 3)
            .workload(workload.clone())
            .build()
            .unwrap();
        assert_eq!(s.maintenance_every, 64);
        assert_eq!(s.work_units_per_second, 1_000_000.0);
        assert!(s.arrival.is_none());

        // Missing pieces fail at build, not mid-run.
        assert!(Scenario::builder("no-dataset")
            .workload(workload.clone())
            .build()
            .is_err());
        assert!(Scenario::builder("no-workload")
            .dataset(KeyDistribution::Uniform, (0, 1_000), 10, 1)
            .build()
            .is_err());
        // Invalid settings are rejected by validate-on-build.
        assert!(Scenario::builder("bad-rate")
            .dataset(KeyDistribution::Uniform, (0, 1_000), 10, 1)
            .workload(workload)
            .work_units_per_second(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn open_loop_spec_requires_arrival_and_clients() {
        let base = Scenario::two_phase_shift(
            "ol",
            KeyDistribution::Uniform,
            KeyDistribution::Uniform,
            100,
            10,
            1,
        )
        .unwrap();
        let mut s = base.clone();
        s.open_loop = Some(OpenLoopSpec { clients: 100 });
        assert!(s.validate().is_err(), "open_loop without arrival");
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson { rate: 1_000.0 },
            modulation: LoadModulation::Constant,
            seed: 1,
        });
        s.validate().unwrap();
        s.open_loop = Some(OpenLoopSpec { clients: 0 });
        assert!(s.validate().is_err(), "zero clients");
        let mut m = base.clone();
        m.mode = Some(ModePreference::OpenLoop);
        assert!(m.validate().is_err(), "open-loop mode without arrival");
        m.mode = Some(ModePreference::Sharded);
        m.validate().unwrap();
        assert_eq!(
            ModePreference::parse("open-loop"),
            Some(ModePreference::OpenLoop)
        );
        assert_eq!(ModePreference::parse("bogus"), None);
        assert_eq!(ModePreference::Shared.as_str(), "shared");
    }

    #[test]
    fn every_spelling_parses_back_to_its_value() {
        fn round_trips<T: Choice + std::fmt::Debug>() {
            for &(word, value) in T::SPELLINGS {
                assert_eq!(T::parse(word), Some(value));
                assert_eq!(value.as_str(), word);
            }
        }
        round_trips::<ModePreference>();
        round_trips::<ClockMode>();
        assert_eq!(one_of(&ClockMode::words()), "\"sim\" or \"wall\"");
        assert_eq!(
            one_of(&ModePreference::words()),
            "\"serial\", \"shared\", \"sharded\", or \"open-loop\""
        );
    }

    #[test]
    fn names_a_spec_string_cannot_hold_are_refused() {
        let valid = Scenario::two_phase_shift(
            "valid",
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 1.1 },
            1000,
            500,
            7,
        )
        .unwrap();
        let single = |name: &str| {
            let phase = WorkloadPhase::new(
                name,
                KeyDistribution::Uniform,
                (0, 1_000),
                OperationMix::ycsb_c(),
                10,
            );
            PhasedWorkload::single(phase, 1).unwrap()
        };
        let named = |scenario: &str, phase: &str| {
            let mut s = valid.clone();
            s.name = scenario.to_string();
            s.workload = single(phase);
            s.validate().map_err(|e| e.to_string())
        };
        assert!(named("plain name", "phase #1 'quoted'").is_ok());
        let quote = named("a\"b", "p").unwrap_err();
        assert!(
            quote.contains(r#"scenario name "a\"b" contains '"'"#),
            "{quote}"
        );
        let newline = named("a\nb", "p").unwrap_err();
        assert!(newline.contains(r"contains '\n'"), "{newline}");
        let phase = named("ok", "two\nlines").unwrap_err();
        assert!(phase.contains(r#"phase name "two\nlines""#), "{phase}");
        let mut s = valid.clone();
        s.holdout = Some(single("hold\"out"));
        assert!(
            s.validate().is_err(),
            "hold-out phase names are checked too"
        );
    }

    #[test]
    fn fault_plans_are_validated() {
        use crate::faults::{FaultPlan, FaultSpec};
        let mut s = Scenario::two_phase_shift(
            "faulted",
            KeyDistribution::Uniform,
            KeyDistribution::Uniform,
            100,
            10,
            1,
        )
        .unwrap();
        s.faults = Some(FaultPlan {
            seed: 1,
            policy: Default::default(),
            faults: vec![FaultSpec::TransientErrors {
                phase: None,
                rate: 0.1,
            }],
        });
        s.validate().unwrap();
        s.faults = Some(FaultPlan {
            seed: 1,
            policy: Default::default(),
            faults: vec![FaultSpec::Stall {
                phase: 0,
                from_op: 5,
                ops: 10,
                duration: 0.1,
            }],
        });
        assert!(s.validate().is_err(), "stall window crosses phase boundary");
    }

    #[test]
    fn validation_rejects_bad_config() {
        let mut s = Scenario::two_phase_shift(
            "s",
            KeyDistribution::Uniform,
            KeyDistribution::Uniform,
            100,
            10,
            1,
        )
        .unwrap();
        s.work_units_per_second = 0.0;
        assert!(s.validate().is_err());
        s.work_units_per_second = 1.0;
        s.maintenance_every = 0;
        assert!(s.validate().is_err());
        s.maintenance_every = 10;
        s.dataset.size = 0;
        assert!(s.validate().is_err());
        assert!(
            Scenario::specialization_sweep("x", vec![], 10, 10, OperationMix::ycsb_c(), 1).is_err()
        );
    }
}
