//! The drift-sweep subsystem: metric-vs-α curves over a controllable
//! drift axis.
//!
//! The paper's Fig. 1a–1d metrics are all measured at *one* fixed drift
//! shape per scenario. NeurBench argues the right abstraction is a single
//! drift factor α ∈ [0, 1] that smoothly interpolates between no drift
//! (α = 0) and the full authored drift (α = 1), and Zeighami & Shahabi's
//! distribution-learnability bounds predict *how fast* a learned SUT may
//! degrade as α grows. This module supplies that axis end to end:
//!
//! * [`drift`] — the [`DriftAxis`] primitive: a
//!   deterministic, endpoint-exact interpolation between two same-shape
//!   workload phases (distribution parameters, operation mix, ops,
//!   key range, concurrency burst, and optionally arrival rate). The spec
//!   composers that move a distribution (`[[drift]]`, `[[gradual_shift]]`,
//!   `[[growing_skew]]`) sample it (see [`crate::spec::compose`]).
//! * [`ladder`] — sweep grids and scenario ladders: parse a
//!   `lo..hixN` axis into a monotone α grid and derive the rung scenario
//!   at each α from a base scenario by drifting every phase from the
//!   first phase (the no-drift anchor) toward its authored self.
//! * [`curves`] — per-SUT metric curves over the grid: adaptability area
//!   (Fig. 1b), adjustment speed and SLA violation rate (Fig. 1c), and
//!   specialization spread (Fig. 1a) as functions of α, plus the linear
//!   degradation reference derived from the distribution-learnability
//!   bound and per-rung flags where a SUT degrades faster than it.
//! * [`report`] — rendering: an aligned text table per metric with the
//!   theory overlay, ASCII sparklines per SUT, and bound-violation flags
//!   (JSON comes from serializing the archived
//!   [`SweepArtifact`](crate::results::SweepArtifact)).
//!
//! See DESIGN.md §13 for the axis semantics and why the composer
//! refactor preserves existing expansions bit for bit.

pub mod curves;
pub mod drift;
pub mod ladder;
pub mod report;

pub use curves::{sweep_curve, BoundFlag, SweepCurve, SweepPoint};
pub use drift::DriftAxis;
pub use ladder::{parse_axis, rung_scenario, DriftLadder};
pub use report::render_sweep_report;
