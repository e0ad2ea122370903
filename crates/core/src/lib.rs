//! The learned-systems benchmark framework — the paper's contribution.
//!
//! This crate implements the benchmark *Towards a Benchmark for Learned
//! Systems* (ICDE 2021) sketches:
//!
//! * [`scenario`] — benchmark scenarios: a dataset, a multi-phase workload
//!   with transitions, a training budget, an SLA policy, and hold-out
//!   phases (§V-A/§V-B configuration).
//! * [`runner`] — **the one way to run a scenario**: a [`Runner`] over
//!   one SUT or a SUT factory, configured by a single [`RunOptions`] whose
//!   explicit [`ExecutionMode`] picks serial, shared-lock, sharded or
//!   open-loop execution; hold-out, observability and the wall clock are
//!   options of the same run, never separate entry points.
//! * [`driver`] — the runs that have no scenario: trace replay and the
//!   query workload. Load → train → phased execution with per-query
//!   records on a deterministic virtual clock, maintenance slots, and
//!   phase-change notifications — that timing rule is written once, in
//!   the crate-private execution core (`exec.rs`: op source,
//!   prologue/epilogue, one `step`, two drivers); serial runs, trace
//!   replay, the query workload, hold-out and every concurrent mode
//!   (crate-private `engine/`: lanes with coordinated-omission-safe
//!   latency recording and deterministic merging, and the event-heap
//!   scheduler multiplexing massive open-loop client populations onto a
//!   worker pool) are policies over it.
//! * [`record`] — run records: every completed query with timestamp,
//!   latency, phase, and success flag, plus training info and SUT metrics.
//! * [`metrics`] — the paper's new metric families:
//!   [`metrics::specialization`] (Fig. 1a), [`metrics::adaptability`]
//!   (Fig. 1b), [`metrics::sla`] (Fig. 1c), [`metrics::cost`] (Fig. 1d),
//!   and the Φ distribution-similarity axis ([`metrics::phi`]).
//! * [`holdout`] — out-of-sample evaluation: hold-out phases executed once,
//!   reported as an overfitting gap (§V-A).
//! * [`capacity`] — the SLA capacity search: a binary-search load driver
//!   that brackets the maximum sustainable arrival rate under a latency
//!   SLA and emits a throughput–latency knee curve per SUT.
//! * [`obs`] — structured observability: deterministic run-event tracing
//!   on the virtual clock, a deterministic metrics registry, and wall-clock
//!   profiling spans; zero-cost when disabled.
//! * [`faults`] — deterministic fault injection: transient errors, latency
//!   spikes, stalls, and crash-restarts driven by a seeded [`FaultPlan`]
//!   plus a virtual-time timeout/retry/backoff policy, bit-identical
//!   across worker counts.
//! * [`spec`] — the declarative scenario subsystem: a line-oriented spec
//!   language with positioned errors, the seven parse-time drift
//!   composers (see the canonical table in the [`spec`] module docs), a
//!   canonical renderer, and the [`spec::ScenarioRegistry`] resolving
//!   suite names and spec files uniformly.
//! * [`sweep`] — the drift-sweep subsystem: the endpoint-exact
//!   [`sweep::DriftAxis`] α ∈ [0, 1] primitive the distribution-drift
//!   composers sample, scenario ladders over an α grid, per-SUT metric-vs-α
//!   curves with the distribution-learnability linear bound as a theory
//!   overlay, and the archived [`results::SweepArtifact`].
//! * [`sut_registry`] — name → constructor registry so CLIs, suites, and
//!   benches resolve systems under test uniformly.
//! * [`report`] — plain-text figures (ASCII), CSV series, and JSON
//!   artifacts so results are comparable across deployments.
//! * [`results`] — the longitudinal layer: a content-addressed,
//!   schema-versioned results store ([`results::store`]), the head-to-head
//!   paired-comparison engine ([`mod@results::compare`]), and the CI
//!   regression gate ([`results::regress`]).
//! * [`wire`] — out-of-process SUTs: a versioned length-prefixed frame
//!   protocol over TCP, the `lsbench serve` server loop hosting any
//!   registered SUT, and the [`wire::RemoteSut`] one-connection client
//!   adapter — with the in-process mode as the conformance oracle.
//! * [`trace`] — the real-workload bridge: CSV/JSON-lines trace import
//!   with positioned errors, open/closed-loop replay at any speed, and
//!   the trace-to-spec fitter (change-point phase segmentation plus
//!   per-phase mix/distribution estimation).

#![warn(missing_docs)]

pub mod capacity;
pub mod driver;
mod engine;
mod exec;
pub mod faults;
pub mod holdout;
pub mod metrics;
pub mod obs;
pub mod record;
pub mod report;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod suite;
pub mod sut_registry;
pub mod sweep;
pub mod trace;
pub mod wire;

pub use capacity::{capacity_search, CapacityConfig, CapacityPoint, CapacityReport, SlaTarget};
pub use driver::{run_kv_trace, run_kv_trace_open_loop, run_query_workload};
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultStats, RetryPolicy};
pub use holdout::HoldoutReport;
pub use metrics::adaptability::AdaptabilityReport;
pub use metrics::cost::CostReport;
pub use metrics::sla::{SlaPolicy, SlaReport};
pub use metrics::specialization::SpecializationReport;
pub use obs::{MetricsRegistry, ObsConfig, RunEvent, TraceEvent, TraceLog};
pub use record::{OpRecord, RunRecord};
pub use results::{
    compare, evaluate_regression, parse_regression_policy, render_comparison_report,
    render_regression, write_bench_summary, ComparisonReport, RegressionPolicy, RegressionReport,
    ResultStore, RunArtifact, RunManifest, StoreError, SuiteArtifact, Transport,
};
pub use results::{CapacityArtifact, CapacityManifest};
pub use results::{SweepArtifact, SweepManifest, SWEEP_SCHEMA_VERSION};
pub use runner::{
    BoxedKvSut, EngineStats, ExecutionMode, RunOptions, RunOutcome, Runner, WallStats,
};
pub use scenario::{ClockMode, ModePreference, OpenLoopSpec, Scenario, ScenarioBuilder};
pub use spec::{parse_fault_plan, parse_scenario, render_scenario, ScenarioRegistry, SpecError};
pub use suite::{
    calibrate_sla, run_scenarios, standard_scenarios, SuiteConfig, SuiteObservation, SuiteResult,
};
pub use sut_registry::SutRegistry;
pub use sweep::{render_sweep_report, rung_scenario, DriftAxis, DriftLadder, SweepCurve};
pub use trace::{fit_scenario, import_str, FitReport, ImportedTrace, TraceError, TraceFormat};
pub use wire::{RemoteSut, ServerHandle, WireError, WireServer, PROTOCOL_VERSION};

/// Errors produced by the benchmark framework.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// Scenario configuration was invalid.
    InvalidScenario(String),
    /// The workload generator failed.
    Workload(String),
    /// The system under test failed fatally.
    Sut(String),
    /// A metric could not be computed from the given records.
    Metric(String),
    /// Result serialization failed.
    Serialization(String),
    /// The results store refused an operation (schema drift, digest
    /// mismatch, or an unresolvable artifact reference).
    Store(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::InvalidScenario(m) => write!(f, "invalid scenario: {m}"),
            BenchError::Workload(m) => write!(f, "workload error: {m}"),
            BenchError::Sut(m) => write!(f, "SUT error: {m}"),
            BenchError::Metric(m) => write!(f, "metric error: {m}"),
            BenchError::Serialization(m) => write!(f, "serialization error: {m}"),
            BenchError::Store(m) => write!(f, "results store error: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, BenchError>;
