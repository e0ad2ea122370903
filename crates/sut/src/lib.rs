//! Systems under test (SUTs) and cost accounting.
//!
//! This crate is the glue between the index/query substrates and the
//! benchmark framework: it defines the [`SystemUnderTest`] interface the
//! driver speaks (§IV: the benchmark "should be agnostic to the differences
//! across systems yet capture enough relevant metrics"), adapters that
//! present every index and optimizer as a SUT, and the cost models
//! (hardware profiles, DBA step function) behind the Fig. 1d metrics.
//!
//! Work and time: every SUT operation reports abstract **work units**
//! (memory probes / rows touched / model updates). A [`clock::SimClock`]
//! plus a work→seconds rate turns those into deterministic virtual time, so
//! benchmark runs and figures are exactly reproducible; the criterion
//! microbenches measure the same structures in wall-clock time.

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod kv;
pub mod query_sut;
pub mod sut;

pub use clock::{Clock, SimClock, WallClock};
pub use cost::{DbaCostModel, HardwareProfile, TrainingCost};
pub use kv::{
    AlexSut, BTreeSut, CachedSut, HashSut, LearnedKvSut, PgmSut, RetrainPolicy, RmiSut,
    SortedArraySut, SplineSut,
};
pub use query_sut::{BanditQuerySut, LearnedCardinalitySut, QueryOp, TraditionalQuerySut};
pub use sut::{ExecOutcome, SutMetrics, SystemUnderTest, TransportStats};

/// Errors produced by SUT adapters.
#[derive(Debug, Clone, PartialEq)]
pub enum SutError {
    /// The SUT failed internally; the run should abort.
    Internal(String),
}

impl std::fmt::Display for SutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SutError::Internal(msg) => write!(f, "SUT internal error: {msg}"),
        }
    }
}

impl std::error::Error for SutError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SutError>;
