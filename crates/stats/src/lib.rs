//! Statistical primitives for the learned-systems benchmark.
//!
//! This crate provides every statistical building block the benchmark
//! framework (`lsbench-core`) needs:
//!
//! * [`descriptive`] — exact summaries: moments, quantiles, five-number
//!   summaries, and the box-plot statistics used by the specialization
//!   metric (Fig. 1a of the paper).
//! * [`histogram`] — equi-width, equi-depth, and logarithmic latency
//!   histograms.
//! * [`ks`] — the two-sample Kolmogorov–Smirnov statistic used as the Φ
//!   data-distribution distance (§V-D.1 of the paper).
//! * [`mmd`] — Maximum Mean Discrepancy with an RBF kernel, the alternative
//!   Φ distance proposed by the paper.
//! * [`jaccard`] — Jaccard similarity over sets, used for workload
//!   similarity over query subtrees.
//! * [`timeseries`] — cumulative-completion curves, trapezoid areas, and
//!   area differences backing the adaptability metric (Fig. 1b).
//!
//! All functions are deterministic and allocation-conscious; none of them
//! panic on empty input — fallible operations return [`StatsError`].

#![warn(missing_docs)]

pub mod descriptive;
pub mod histogram;
pub mod jaccard;
pub mod ks;
pub mod mmd;
pub mod timeseries;

pub use descriptive::{BoxPlot, FiveNumber, Summary};
pub use histogram::{EquiDepthHistogram, EquiWidthHistogram, LatencyHistogram};
pub use jaccard::{jaccard_distance, jaccard_similarity};
pub use ks::{ks_statistic, ks_test, KsResult};
pub use mmd::{median_heuristic_bandwidth, mmd_rbf};
pub use timeseries::{area_between, CumulativeCurve, Cursor, Curve, IntervalCounts, TimeSeries};

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The operation requires at least one sample.
    Empty,
    /// The operation requires more samples than were provided.
    InsufficientSamples {
        /// How many samples the operation needs.
        needed: usize,
        /// How many samples were provided.
        got: usize,
    },
    /// A parameter was outside its valid domain (e.g. a quantile not in `[0, 1]`).
    InvalidParameter(&'static str),
    /// Input contained a NaN, which has no defined ordering.
    NanInput,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "operation requires at least one sample"),
            StatsError::InsufficientSamples { needed, got } => {
                write!(f, "operation requires {needed} samples, got {got}")
            }
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            StatsError::NanInput => write!(f, "input contained NaN"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

/// Sorts a copy of `data`, returning an error if any element is NaN.
///
/// Many routines in this crate need sorted input; this helper centralizes
/// the NaN check so ordering is always total.
pub(crate) fn sorted_copy(data: &[f64]) -> Result<Vec<f64>> {
    if data.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let mut copy = data.to_vec();
    copy.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    Ok(copy)
}
