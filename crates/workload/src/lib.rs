//! Workload and data generation for the learned-systems benchmark.
//!
//! The paper's Lesson 1 — *"abstain from fixed workloads and databases as
//! their characteristics are easy to learn"* — requires the benchmark to
//! generate workloads and datasets whose distributions **change over time**:
//! evolving workloads, diurnal patterns, bursts, growing skew, growing
//! datasets (§III-A, §V-B). This crate provides all of it:
//!
//! * [`keygen`] — parametric key distributions (uniform, zipf, normal,
//!   lognormal, hotspot, clustered, sequential) over a 64-bit key space.
//! * [`stringkey`] — the synthetic email-address generator the paper uses as
//!   its example of privacy-preserving data substitution (§V-C).
//! * [`dataset`] — dataset construction, growth, and skew drift.
//! * [`ops`] — operation types and mixes (YCSB-style presets plus custom).
//! * [`arrival`] — open/closed-loop arrival processes with diurnal and burst
//!   load modulation.
//! * [`phases`] — multi-phase workloads with abrupt or gradual transitions
//!   between (distribution, mix) pairs, the heart of a dynamic scenario.
//! * [`families`] — generator families modelled on real-workload studies:
//!   templated query repetition (Redbench) and drifting append-mostly
//!   ledgers (CrypQ).
//! * [`trace`] — recording and replaying generated operation streams.
//! * [`quality`] — the dataset/workload quality-scoring tool of §V-C, which
//!   "attribute\[s] low marks to uniform data distributions and workloads
//!   while favoring datasets exhibiting skew or varying query load".
//!
//! All generators are seeded and deterministic: the same configuration and
//! seed produce the same stream on every platform.

#![warn(missing_docs)]

pub mod arrival;
pub mod dataset;
pub mod families;
pub mod keygen;
pub mod ops;
pub mod phases;
pub mod quality;
pub mod stringkey;
pub mod trace;

pub use arrival::{ArrivalProcess, LoadModulation};
pub use dataset::Dataset;
pub use families::{LedgerGrowth, Steps, TemplatedRepetition};
pub use keygen::{KeyDistribution, KeyGenerator};
pub use ops::{Operation, OperationMix};
pub use phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
pub use quality::{score_dataset, score_workload, QualityReport};
pub use stringkey::EmailGenerator;
pub use trace::Trace;

/// Errors produced by workload construction and generation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A configuration parameter was outside its valid domain.
    InvalidParameter(String),
    /// A generator was asked to produce data from an empty domain.
    EmptyDomain,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            WorkloadError::EmptyDomain => write!(f, "generator domain is empty"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, WorkloadError>;
