//! Recording and replaying operation traces.
//!
//! The paper's hold-out mechanism (§V-A) requires the *same* workload to be
//! presented to multiple systems exactly once each, and the
//! benchmark-as-a-service idea requires workloads to be shippable artifacts.
//! A [`Trace`] captures a generated stream (operations plus phase labels and
//! optional arrival times) so it can be serialized, replayed, sliced, and
//! compared.

use crate::ops::Operation;
use crate::phases::{LabeledOp, PhasedWorkload};
use crate::Result;
use serde::{Deserialize, Serialize};

/// One recorded trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The operation.
    pub op: Operation,
    /// Phase index the operation belongs to.
    pub phase: usize,
    /// Scheduled arrival time in virtual seconds (0 for closed-loop traces).
    pub arrival: f64,
}

/// A recorded operation stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    /// Names of the phases referenced by entries.
    phase_names: Vec<String>,
}

impl Trace {
    /// Creates an empty trace with the given phase names.
    pub fn new(phase_names: Vec<String>) -> Self {
        Trace {
            entries: Vec::new(),
            phase_names,
        }
    }

    /// Records a whole [`PhasedWorkload`] into a trace (closed-loop: arrival
    /// times are all zero).
    pub fn record(workload: &PhasedWorkload) -> Result<Self> {
        let mut trace = Trace::new(workload.phases().iter().map(|p| p.name.clone()).collect());
        for LabeledOp { op, phase, .. } in workload.stream()? {
            trace.push(TraceEntry {
                op,
                phase,
                arrival: 0.0,
            });
        }
        Ok(trace)
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Phase names.
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }

    /// Iterator over the operations only.
    pub fn operations(&self) -> impl Iterator<Item = Operation> + '_ {
        self.entries.iter().map(|e| e.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyDistribution;
    use crate::ops::OperationMix;
    use crate::phases::{TransitionKind, WorkloadPhase};

    fn two_phase_workload() -> PhasedWorkload {
        PhasedWorkload::new(
            vec![
                WorkloadPhase::new(
                    "a",
                    KeyDistribution::Uniform,
                    (0, 1000),
                    OperationMix::ycsb_c(),
                    50,
                ),
                WorkloadPhase::new(
                    "b",
                    KeyDistribution::Uniform,
                    (0, 1000),
                    OperationMix::ycsb_a(),
                    70,
                ),
            ],
            vec![TransitionKind::Abrupt],
            11,
        )
        .unwrap()
    }

    #[test]
    fn record_captures_everything() {
        let w = two_phase_workload();
        let t = Trace::record(&w).unwrap();
        assert_eq!(t.len(), 120);
        assert_eq!(t.phase_names(), &["a".to_string(), "b".to_string()]);
        let in_phase = |i| t.entries().iter().filter(|e| e.phase == i).count();
        assert_eq!((in_phase(0), in_phase(1)), (50, 70));
    }

    #[test]
    fn replay_is_identical() {
        let w = two_phase_workload();
        let a = Trace::record(&w).unwrap();
        let b = Trace::record(&w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let w = two_phase_workload();
        let t = Trace::record(&w).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(vec!["x".to_string()]);
        assert!(t.is_empty());
        assert_eq!(t.operations().count(), 0);
    }
}
