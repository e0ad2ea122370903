//! Profiling spans: wall-clock scope timers with a rendered tree.
//!
//! Spans answer "where did the real time go?" — bulk-load, train,
//! steady-state, merge — and are intentionally kept *out* of the
//! deterministic trace: they measure host wall time, which varies run to
//! run, while [`TraceLog`](super::TraceLog) rides the virtual clock and
//! must not. `lsbench suite --trace` prints the rendered tree.

use std::time::Instant;

/// One timed scope, with nested children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Scope label, e.g. `"train"` or `"steady-state"`.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub wall_s: f64,
    /// Scopes that opened and closed while this one was open.
    pub children: Vec<SpanNode>,
}

/// Token returned by [`SpanCollector::enter`]; pass it back to
/// [`SpanCollector::exit`] to close the scope. Dropping it without exiting
/// simply discards the span (no panic, no poisoning).
#[derive(Debug)]
#[must_use = "pass the timer back to SpanCollector::exit to record the span"]
pub(crate) struct ScopeTimer {
    depth: usize,
    start: Option<Instant>,
}

/// Collects a tree of wall-clock spans. Disabled collectors are inert:
/// `enter`/`exit` do no work and read no clocks.
#[derive(Debug, Default)]
pub(crate) struct SpanCollector {
    enabled: bool,
    /// Open scopes, outermost first: (name, children-so-far).
    stack: Vec<(String, Vec<SpanNode>)>,
    /// Completed top-level spans.
    roots: Vec<SpanNode>,
}

impl SpanCollector {
    /// Creates a collector; when `enabled` is false all methods are no-ops.
    pub fn new(enabled: bool) -> Self {
        SpanCollector {
            enabled,
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Opens a scope. The returned timer must go back to [`exit`](Self::exit).
    pub fn enter(&mut self, name: &str) -> ScopeTimer {
        if !self.enabled {
            return ScopeTimer {
                depth: 0,
                start: None,
            };
        }
        self.stack.push((name.to_string(), Vec::new()));
        ScopeTimer {
            depth: self.stack.len(),
            start: Some(Instant::now()),
        }
    }

    /// Closes a scope opened by [`enter`](Self::enter). Scopes closed out of
    /// order unwind the stack down to the timer's depth.
    pub fn exit(&mut self, timer: ScopeTimer) {
        let Some(start) = timer.start else { return };
        let wall_s = start.elapsed().as_secs_f64();
        while self.stack.len() > timer.depth {
            // An inner scope was never exited; fold it in with zero time.
            let (name, children) = self.stack.pop().expect("stack non-empty");
            self.attach(SpanNode {
                name,
                wall_s: 0.0,
                children,
            });
        }
        if let Some((name, children)) = self.stack.pop() {
            self.attach(SpanNode {
                name,
                wall_s,
                children,
            });
        }
    }

    fn attach(&mut self, node: SpanNode) {
        match self.stack.last_mut() {
            Some((_, siblings)) => siblings.push(node),
            None => self.roots.push(node),
        }
    }

    /// Consumes the collector, returning completed top-level spans.
    pub fn finish(mut self) -> Vec<SpanNode> {
        while let Some((name, children)) = self.stack.pop() {
            self.attach(SpanNode {
                name,
                wall_s: 0.0,
                children,
            });
        }
        self.roots
    }
}

/// Renders a span tree as indented text, one scope per line:
///
/// ```text
/// suite                         1.234s
///   S1-specialization           0.456s
///     train                     0.123s
/// ```
pub fn render_spans(spans: &[SpanNode]) -> String {
    fn walk(out: &mut String, node: &SpanNode, depth: usize) {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", node.name);
        out.push_str(&format!("{label:<40} {:>9.3}s\n", node.wall_s));
        for c in &node.children {
            walk(out, c, depth + 1);
        }
    }
    let mut out = String::new();
    for s in spans {
        walk(&mut out, s, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_a_tree() {
        let mut c = SpanCollector::new(true);
        let outer = c.enter("outer");
        let inner = c.enter("inner");
        c.exit(inner);
        c.exit(outer);
        let roots = c.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "outer");
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "inner");
        assert!(roots[0].wall_s >= roots[0].children[0].wall_s);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let mut c = SpanCollector::new(false);
        let t = c.enter("x");
        c.exit(t);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn unexited_scopes_fold_in_on_finish() {
        let mut c = SpanCollector::new(true);
        let _leak = c.enter("leaked");
        let roots = c.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].wall_s, 0.0);
    }

    #[test]
    fn render_indents_children() {
        let spans = vec![SpanNode {
            name: "a".into(),
            wall_s: 1.0,
            children: vec![SpanNode {
                name: "b".into(),
                wall_s: 0.5,
                children: vec![],
            }],
        }];
        let text = render_spans(&spans);
        assert!(text.contains("a"));
        assert!(text.contains("  b"));
    }
}
