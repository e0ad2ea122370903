//! Structured observability: run-event tracing, metrics, profiling spans.
//!
//! Three layers, all optional and all zero-cost when disabled:
//!
//! 1. **Event tracing** — [`RunEvent`]s (phase changes, train start/end,
//!    retraining bursts, maintenance slots, injected faults, backlog
//!    high-water marks, shard merges) stamped with the **virtual clock**,
//!    merged into a deterministic [`TraceLog`] that renders as tagged
//!    JSON lines ([`TraceLog::to_jsonl_tagged`]).
//! 2. **Metrics** — a [`MetricsRegistry`] of counters, high-water gauges,
//!    and per-interval latency histograms: what the record cannot tell
//!    (phase, maintenance and retraining counts, backlog high-water marks)
//!    accumulated lane-locally and merged at join, the per-op entries
//!    restated from the finished record; exposed per scenario in
//!    [`ScenarioSummary`](crate::suite::ScenarioSummary).
//! 3. **Profiling spans** — wall-clock scope timers around bulk-load,
//!    the run, and the hold-out pass, rendered as a span tree by
//!    `lsbench suite --trace`. Spans measure host time and therefore live
//!    *outside* the deterministic trace.
//!
//! The invariant the whole module is built around: observation never
//! touches the virtual clock, so a run produces a bit-identical
//! [`RunRecord`](crate::record::RunRecord) whether tracing is on, off, or
//! absent (see `tests/observability.rs`).

mod event;
mod observer;
mod registry;
mod span;

pub use event::{RunEvent, TraceEvent, TraceLog};
pub(crate) use observer::{LaneObs, RunObserver};
pub use observer::{ObsConfig, DEFAULT_RING_CAPACITY};
pub use registry::{
    IntervalHistogram, MetricsRegistry, DEFAULT_INTERVAL_WIDTH, MAX_INTERVAL_SLICES,
};
pub use span::{render_spans, SpanNode};
