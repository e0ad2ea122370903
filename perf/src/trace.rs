//! The benchmark's own span recorder.
//!
//! One span per call into a layer, recorded from outside the program:
//! name, start, end, the span that caused it, and the run identifier all
//! spans of one invocation share. SUT calls arrive pre-aggregated per
//! (SUT, phase, call kind) from [`SutTrace`]. Spans stay in memory until
//! [`Tracer::finish`], which derives each span's self time.

use crate::suts::{CallKind, SutTrace};
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// One recorded span. `busy_ns` is the time spent inside the span
/// (`end_ns - start_ns` for a single call, the summed call durations for
/// an aggregated span); `self_ns` is `busy_ns` minus the children's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder; records nothing when disabled so the untraced
/// run shares the traced run's code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant span offsets count from; [`SutTrace`]s share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: String,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
            name,
            start_ns,
            end_ns,
            calls,
            busy_ns,
            self_ns: 0,
        });
        id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.push(name.into(), now, now, 1, 0);
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Adds a finished child span under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |at: Instant| at.duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.push(name.to_string(), start_ns, end_ns, 1, end_ns - start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Adds one aggregated child span per non-empty (phase, call kind)
    /// cell of `trace` under the innermost open span.
    pub fn absorb_sut(&mut self, sut: &str, phase_names: &[String], trace: &SutTrace) {
        if !self.enabled {
            return;
        }
        for phase in 0..trace.phases() {
            for kind in CallKind::ALL {
                let cell = trace.cell(phase, kind);
                let calls = cell.calls.load(Relaxed);
                if calls == 0 {
                    continue;
                }
                let phase_name = phase_names.get(phase).map_or("?", String::as_str);
                self.push(
                    format!("sut.{sut}.{phase_name}.{}", kind.label()),
                    cell.first_ns.load(Relaxed),
                    cell.last_ns.load(Relaxed),
                    calls,
                    cell.busy_ns.load(Relaxed),
                );
            }
        }
    }

    /// Closes the recorder: self time = busy time minus the children's
    /// (floored at zero — lanes on two threads can be busier than their
    /// parent's wall time).
    pub fn finish(mut self) -> Vec<Span> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.busy_ns;
            }
        }
        for (span, child_ns) in self.spans.iter_mut().zip(children) {
            span.self_ns = span.busy_ns.saturating_sub(child_ns);
        }
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_spans_share_the_run_id() {
        let mut t = Tracer::new(true, 7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run_id == 7));
        assert!(spans[1].busy_ns >= 2_000_000);
        assert_eq!(spans[0].self_ns, spans[0].busy_ns - spans[1].busy_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        t.span("outer", |_| ());
        assert!(t.finish().is_empty());
    }
}
