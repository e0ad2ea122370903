//! The declarative scenario subsystem: spec language, drift composers,
//! and the scenario registry.
//!
//! The paper's Lesson 1 makes *dynamic scenarios* the core input of a
//! learned-systems benchmark — yet a scenario that only exists as a Rust
//! value can't be added without recompiling. This module makes scenarios
//! data: a small line-oriented TOML-subset (see the README's "Scenario
//! files" section for the grammar) compiles to the same validated
//! [`Scenario`](crate::scenario::Scenario) the builder produces, so a
//! scenario loaded from a file is *bit-identical* in behavior to the same
//! scenario constructed in code.
//!
//! Four layers:
//!
//! * [`parse`] — the parser + schema. One reading layer serves every
//!   spec-style file (scenarios, `--faults` plans, regression policies):
//!   its `BLOCKS` table is the header vocabulary — every `[section]` and
//!   `[[block]]` name, the seven composers below among them — and its
//!   typed, line-remembering `Fields` are how every key is read. Every
//!   rejection is a positioned [`SpecError`] (`line`, `field`, `reason`);
//!   malformed input never panics.
//! * [`compose`] — *drift composers*: high-level phase generators that
//!   expand into concrete phase lists at parse time, deterministically
//!   (virtual clock arithmetic + the spec seed — see DESIGN.md). The
//!   canonical composer table below is the single source of truth; other
//!   doc comments reference it rather than re-listing the set.
//! * [`render`] — the canonical renderer: [`render_scenario`] emits spec
//!   text that parses back to an equal scenario (`parse ∘ render = id`),
//!   which is how the built-in suite ships as `scenarios/*.spec`.
//! * [`registry`] — [`ScenarioRegistry`]: name → scenario resolution
//!   mirroring [`SutRegistry`](crate::sut_registry::SutRegistry), with
//!   uniform fallback to spec files on disk.
//!
//! # The seven parse-time drift composers
//!
//! | Block | Expands to | Drift shape |
//! |---|---|---|
//! | `[[diurnal]]` | `steps` phases | sinusoidal load swing (concurrency burst) over a fixed distribution |
//! | `[[burst]]` | `steps` phases | calm/surge alternation between two load levels |
//! | `[[gradual_shift]]` | `steps` phases | parameter interpolation from `from` to `to` at full intensity (`drift` at `alpha = 1`) |
//! | `[[growing_skew]]` | `steps` phases | Zipf theta ramp (a `gradual_shift` between two zipf endpoints) |
//! | `[[drift]]` | `steps` phases | `gradual_shift` scaled by an explicit intensity `alpha` ∈ \[0, 1\] |
//! | `[[templated_repetition]]` | template-driven phases | query-template popularity churn (PR-8 workload family) |
//! | `[[ledger]]` | growth-driven phases | append-heavy ledger growth (PR-8 workload family) |
//!
//! All seven unroll through one `Steps::unroll`
//! (`lsbench_workload::families`). `[[gradual_shift]]` *is* `[[drift]]` at
//! `alpha = 1`, and `[[growing_skew]]` is that between two zipf endpoints:
//! the three sample the shared [`DriftAxis`](crate::sweep::DriftAxis)
//! primitive in [`crate::sweep`], where `drift(0)` is the base phase and
//! `drift(1)` the target, exact by construction. `[[diurnal]]` and
//! `[[burst]]` only scale the load of one template phase. The last two
//! wrap `lsbench_workload::families` generators. The `lsbench sweep`
//! ladder ([`DriftLadder`](crate::sweep::DriftLadder)) reuses the same
//! axis at run time to grade whole scenarios by intensity.

pub mod compose;
pub mod parse;
pub mod registry;
pub mod render;

pub use parse::{parse_fault_plan, parse_scenario};
pub use registry::ScenarioRegistry;
pub use render::render_scenario;

/// A positioned scenario-spec error: which line, which field, and why.
///
/// `line` is 1-based; `0` marks a whole-file condition (e.g. an empty
/// spec). `field` names the offending key, section, or composer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line of the offending token (0 = whole file).
    pub line: usize,
    /// The key, section header, or composer the error is about.
    pub field: String,
    /// Human-readable explanation.
    pub reason: String,
}

impl SpecError {
    /// Convenience constructor.
    pub fn new(line: usize, field: impl Into<String>, reason: impl Into<String>) -> Self {
        SpecError {
            line,
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}: {}", self.line, self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for crate::BenchError {
    fn from(e: SpecError) -> Self {
        crate::BenchError::InvalidScenario(format!("spec error: {e}"))
    }
}
