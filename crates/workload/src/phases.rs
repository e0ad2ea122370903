//! Multi-phase workloads with configurable transitions.
//!
//! The heart of a *dynamic scenario* (§V-B): "a workload can slowly
//! transition to another or transition abruptly. … the benchmark must make
//! it possible to define how many different workload and data distributions
//! to use and in which order they should be executed."
//!
//! A [`PhasedWorkload`] is an ordered list of [`WorkloadPhase`]s (each a key
//! distribution + operation mix + length) joined by [`TransitionKind`]s.
//! Iterating yields [`LabeledOp`]s carrying the phase index, so the metrics
//! layer can attribute every query to a distribution.

use crate::keygen::{KeyDistribution, KeyGenerator};
use crate::ops::{Operation, OperationGenerator, OperationMix};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The most phases a workload may have: a run records each operation's
/// phase in 16 bits.
pub const MAX_PHASES: usize = 1 << 16;

/// One stretch of workload with a fixed key distribution and operation mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPhase {
    /// Human-readable name used in reports (e.g. `"uniform-read-heavy"`).
    pub name: String,
    /// Distribution of accessed keys.
    pub distribution: KeyDistribution,
    /// Key range `[lo, hi)` the distribution covers.
    pub key_range: (u64, u64),
    /// Operation mix.
    pub mix: OperationMix,
    /// Number of operations in this phase.
    pub ops: u64,
    /// Open-loop concurrency multiplier for this phase: the concurrent
    /// driver divides inter-arrival gaps by this factor, so a value of 2.0
    /// doubles the offered load while the phase is active (a *concurrency
    /// burst*). Closed-loop runs ignore it. Must be positive and finite;
    /// defaults to 1.0 (no burst).
    pub concurrency_burst: f64,
}

impl WorkloadPhase {
    /// Convenience constructor (no concurrency burst).
    pub fn new(
        name: impl Into<String>,
        distribution: KeyDistribution,
        key_range: (u64, u64),
        mix: OperationMix,
        ops: u64,
    ) -> Self {
        WorkloadPhase {
            name: name.into(),
            distribution,
            key_range,
            mix,
            ops,
            concurrency_burst: 1.0,
        }
    }

    /// Sets the open-loop concurrency multiplier for this phase.
    pub fn with_concurrency_burst(mut self, factor: f64) -> Self {
        self.concurrency_burst = factor;
        self
    }
}

/// How one phase hands over to the next.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransitionKind {
    /// The next phase starts instantly at full intensity.
    Abrupt,
    /// Over the first `window` fraction (in `(0, 1]`) of the next phase,
    /// operations are drawn from the old and new phases with a linearly
    /// shifting probability (0% new at the start of the window, 100% at
    /// its end).
    Gradual {
        /// Fraction of the next phase over which the mix shifts.
        window: f64,
    },
}

impl TransitionKind {
    fn validate(&self) -> Result<()> {
        match *self {
            TransitionKind::Abrupt => Ok(()),
            TransitionKind::Gradual { window } => {
                if window > 0.0 && window <= 1.0 {
                    Ok(())
                } else {
                    Err(crate::WorkloadError::InvalidParameter(
                        "gradual window must be in (0, 1]".to_string(),
                    ))
                }
            }
        }
    }
}

/// An operation labeled with its originating phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledOp {
    /// The operation to execute.
    pub op: Operation,
    /// Index of the *scheduled* phase (the phase whose ops budget this
    /// operation consumes).
    pub phase: usize,
    /// Index of the phase the operation was actually drawn from — differs
    /// from `phase` only inside a gradual-transition window.
    pub drawn_from: usize,
    /// True while inside a gradual-transition window.
    pub in_transition: bool,
}

/// A full multi-phase workload specification plus generation state.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    phases: Vec<WorkloadPhase>,
    /// `transitions[i]` joins phase `i` to phase `i + 1`.
    transitions: Vec<TransitionKind>,
    seed: u64,
}

impl PhasedWorkload {
    /// Creates a phased workload. `transitions` must have exactly
    /// `phases.len() - 1` entries (empty for a single phase).
    pub fn new(
        phases: Vec<WorkloadPhase>,
        transitions: Vec<TransitionKind>,
        seed: u64,
    ) -> Result<Self> {
        if phases.is_empty() {
            return Err(crate::WorkloadError::InvalidParameter(
                "at least one phase is required".to_string(),
            ));
        }
        if phases.len() > MAX_PHASES {
            return Err(crate::WorkloadError::InvalidParameter(format!(
                "{} phases exceed the limit of {MAX_PHASES}",
                phases.len()
            )));
        }
        if transitions.len() + 1 != phases.len() {
            return Err(crate::WorkloadError::InvalidParameter(format!(
                "need {} transitions for {} phases, got {}",
                phases.len() - 1,
                phases.len(),
                transitions.len()
            )));
        }
        for p in &phases {
            p.distribution.validate()?;
            p.mix.validate()?;
            if p.key_range.0 >= p.key_range.1 {
                return Err(crate::WorkloadError::EmptyDomain);
            }
            if p.ops == 0 {
                return Err(crate::WorkloadError::InvalidParameter(format!(
                    "phase '{}' has zero ops",
                    p.name
                )));
            }
            if !(p.concurrency_burst > 0.0 && p.concurrency_burst.is_finite()) {
                return Err(crate::WorkloadError::InvalidParameter(format!(
                    "phase '{}' concurrency_burst must be positive and finite",
                    p.name
                )));
            }
        }
        for t in &transitions {
            t.validate()?;
        }
        // `total_ops` and `phase_start` sum the phases unchecked.
        if phases
            .iter()
            .try_fold(0u64, |sum, p| sum.checked_add(p.ops))
            .is_none()
        {
            return Err(crate::WorkloadError::InvalidParameter(
                "the phases' ops add up to more than 2^64 - 1".to_string(),
            ));
        }
        Ok(PhasedWorkload {
            phases,
            transitions,
            seed,
        })
    }

    /// Single-phase convenience constructor.
    pub fn single(phase: WorkloadPhase, seed: u64) -> Result<Self> {
        Self::new(vec![phase], vec![], seed)
    }

    /// The phases.
    pub fn phases(&self) -> &[WorkloadPhase] {
        &self.phases
    }

    /// The transitions between consecutive phases.
    pub fn transitions(&self) -> &[TransitionKind] {
        &self.transitions
    }

    /// The generation seed every phase generator derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total operations across all phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// The operation index at which phase `i` begins.
    pub fn phase_start(&self, i: usize) -> u64 {
        self.phases[..i].iter().map(|p| p.ops).sum()
    }

    /// Builds the labeled operation stream generator.
    pub fn stream(&self) -> Result<PhasedStream> {
        let mut generators = Vec::with_capacity(self.phases.len());
        for (i, p) in self.phases.iter().enumerate() {
            let kg = KeyGenerator::new(
                p.distribution.clone(),
                p.key_range.0,
                p.key_range.1,
                self.seed.wrapping_add(i as u64 * 1_000_003),
            )?;
            generators.push(OperationGenerator::new(
                kg,
                p.mix.clone(),
                self.seed.wrapping_add(0xBEEF + i as u64),
            )?);
        }
        let mut stream = PhasedStream {
            workload: self.clone(),
            generators,
            rng: StdRng::seed_from_u64(self.seed ^ 0x5EED),
            produced: 0,
            total: self.total_ops(),
            phase: 0,
            phase_start: 0,
            phase_end: 0,
            window_ops: 0,
        };
        stream.enter(0, 0);
        Ok(stream)
    }
}

/// Iterator state producing [`LabeledOp`]s for a [`PhasedWorkload`].
#[derive(Debug, Clone)]
pub struct PhasedStream {
    workload: PhasedWorkload,
    generators: Vec<OperationGenerator>,
    rng: StdRng,
    produced: u64,
    /// `workload.total_ops()`.
    total: u64,
    /// The phase the next operation falls into, and the operation counters
    /// at which it starts and ends.
    phase: usize,
    phase_start: u64,
    phase_end: u64,
    /// Operations of the gradual-transition window that opens `phase` (0
    /// after an abrupt transition, and for phase 0).
    window_ops: u64,
}

impl PhasedStream {
    /// Total operations this stream will produce.
    pub fn total_ops(&self) -> u64 {
        self.total
    }

    /// Operations produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Moves the phase cursor to phase `i`, which starts at operation
    /// counter `start`.
    fn enter(&mut self, i: usize, start: u64) {
        let ops = self.workload.phases[i].ops;
        self.phase = i;
        self.phase_start = start;
        self.phase_end = start + ops;
        self.window_ops = match i.checked_sub(1).map(|t| self.workload.transitions[t]) {
            Some(TransitionKind::Gradual { window }) => (ops as f64 * window).max(1.0) as u64,
            _ => 0,
        };
    }
}

impl Iterator for PhasedStream {
    type Item = LabeledOp;

    fn next(&mut self) -> Option<LabeledOp> {
        if self.produced >= self.total {
            return None;
        }
        let idx = self.produced;
        self.produced += 1;
        // Every phase has at least one operation, so the counter meets each
        // phase's end exactly once.
        if idx == self.phase_end {
            self.enter(self.phase + 1, idx);
        }
        let phase = self.phase;
        let within = idx - self.phase_start;
        let (drawn_from, in_transition) = if within < self.window_ops {
            // Probability of drawing from the NEW phase ramps linearly
            // from 0 to 1 across the window.
            let p_new = (within as f64 + 0.5) / self.window_ops as f64;
            if self.rng.gen::<f64>() < p_new {
                (phase, true)
            } else {
                (phase - 1, true)
            }
        } else {
            (phase, false)
        };
        let op = self.generators[drawn_from].next_op();
        Some(LabeledOp {
            op,
            phase,
            drawn_from,
            in_transition,
        })
    }

    /// Exact: a stream knows how many operations are left, so collecting
    /// one allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.produced) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, dist: KeyDistribution, ops: u64) -> WorkloadPhase {
        WorkloadPhase::new(name, dist, (0, 100_000), OperationMix::ycsb_c(), ops)
    }

    #[test]
    fn single_phase_stream() {
        let w = PhasedWorkload::single(phase("p0", KeyDistribution::Uniform, 100), 1).unwrap();
        let mut stream = w.stream().unwrap();
        assert_eq!(stream.size_hint(), (100, Some(100)));
        stream.next();
        assert_eq!(stream.size_hint(), (99, Some(99)));
        let ops: Vec<LabeledOp> = w.stream().unwrap().collect();
        assert_eq!(ops.len(), 100);
        assert!(ops.iter().all(|o| o.phase == 0 && !o.in_transition));
    }

    #[test]
    fn abrupt_transition_labels() {
        let w = PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 50),
                phase("b", KeyDistribution::Zipf { theta: 1.0 }, 50),
            ],
            vec![TransitionKind::Abrupt],
            2,
        )
        .unwrap();
        let ops: Vec<LabeledOp> = w.stream().unwrap().collect();
        assert_eq!(ops.len(), 100);
        assert!(ops[..50].iter().all(|o| o.phase == 0 && o.drawn_from == 0));
        assert!(ops[50..].iter().all(|o| o.phase == 1 && o.drawn_from == 1));
        assert!(ops.iter().all(|o| !o.in_transition));
    }

    #[test]
    fn gradual_transition_mixes() {
        let w = PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 1000),
                phase("b", KeyDistribution::Uniform, 1000),
            ],
            vec![TransitionKind::Gradual { window: 0.5 }],
            3,
        )
        .unwrap();
        let ops: Vec<LabeledOp> = w.stream().unwrap().collect();
        // Inside the window (first 500 ops of phase b), some draws come from
        // the old phase and all are marked in_transition.
        let window: Vec<&LabeledOp> = ops[1000..1500].iter().collect();
        assert!(window.iter().all(|o| o.in_transition && o.phase == 1));
        let from_old = window.iter().filter(|o| o.drawn_from == 0).count();
        let from_new = window.iter().filter(|o| o.drawn_from == 1).count();
        assert!(from_old > 100, "from_old = {from_old}");
        assert!(from_new > 100, "from_new = {from_new}");
        // Early window leans old; late window leans new.
        let early_old = ops[1000..1100].iter().filter(|o| o.drawn_from == 0).count();
        let late_old = ops[1400..1500].iter().filter(|o| o.drawn_from == 0).count();
        assert!(early_old > late_old, "early={early_old} late={late_old}");
        // After the window everything is from the new phase.
        assert!(ops[1500..]
            .iter()
            .all(|o| o.drawn_from == 1 && !o.in_transition));
    }

    #[test]
    fn validation_errors() {
        assert!(PhasedWorkload::new(vec![], vec![], 1).is_err());
        assert!(PhasedWorkload::new(
            vec![phase("a", KeyDistribution::Uniform, 10)],
            vec![TransitionKind::Abrupt],
            1
        )
        .is_err());
        assert!(PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 10),
                phase("b", KeyDistribution::Uniform, 0),
            ],
            vec![TransitionKind::Abrupt],
            1
        )
        .is_err());
        assert!(PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 10),
                phase("b", KeyDistribution::Uniform, 10),
            ],
            vec![TransitionKind::Gradual { window: 0.0 }],
            1
        )
        .is_err());
    }

    #[test]
    fn at_most_max_phases() {
        let phases = |n| vec![phase("p", KeyDistribution::Uniform, 1); n];
        let joins = |n| vec![TransitionKind::Abrupt; n - 1];
        let w = PhasedWorkload::new(phases(MAX_PHASES), joins(MAX_PHASES), 1).unwrap();
        let last = w.stream().unwrap().last().unwrap();
        assert_eq!(last.phase, MAX_PHASES - 1);
        let err = PhasedWorkload::new(phases(MAX_PHASES + 1), joins(MAX_PHASES + 1), 1);
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("65537 phases exceed the limit of 65536"),
            "{err}"
        );
    }

    #[test]
    fn phase_start_and_totals() {
        let w = PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 10),
                phase("b", KeyDistribution::Uniform, 20),
                phase("c", KeyDistribution::Uniform, 30),
            ],
            vec![TransitionKind::Abrupt, TransitionKind::Abrupt],
            1,
        )
        .unwrap();
        assert_eq!(w.total_ops(), 60);
        assert_eq!(w.phase_start(0), 0);
        assert_eq!(w.phase_start(1), 10);
        assert_eq!(w.phase_start(2), 30);
    }

    #[test]
    fn deterministic_stream() {
        let w = PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 100),
                phase("b", KeyDistribution::Zipf { theta: 1.2 }, 100),
            ],
            vec![TransitionKind::Gradual { window: 0.3 }],
            9,
        )
        .unwrap();
        let a: Vec<LabeledOp> = w.stream().unwrap().collect();
        let b: Vec<LabeledOp> = w.stream().unwrap().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_phases_use_different_key_patterns() {
        // Phase b concentrates keys near the bottom decile; phase a is uniform.
        let w = PhasedWorkload::new(
            vec![
                phase("a", KeyDistribution::Uniform, 2000),
                WorkloadPhase::new(
                    "b",
                    KeyDistribution::Normal {
                        center: 0.05,
                        std_frac: 0.01,
                    },
                    (0, 100_000),
                    OperationMix::ycsb_c(),
                    2000,
                ),
            ],
            vec![TransitionKind::Abrupt],
            4,
        )
        .unwrap();
        let ops: Vec<LabeledOp> = w.stream().unwrap().collect();
        let low_a = ops[..2000].iter().filter(|o| o.op.key() < 10_000).count();
        let low_b = ops[2000..].iter().filter(|o| o.op.key() < 10_000).count();
        assert!(low_a < 400, "low_a = {low_a}"); // ~10% of uniform
        assert!(low_b > 1800, "low_b = {low_b}"); // nearly all of normal(0.05)
    }

    #[test]
    fn op_counts_that_overflow_are_refused() {
        let huge = |ops| phase("p", KeyDistribution::Uniform, ops);
        let join = vec![TransitionKind::Abrupt];
        let w = PhasedWorkload::new(vec![huge(u64::MAX - 1), huge(1)], join.clone(), 1).unwrap();
        assert_eq!(w.total_ops(), u64::MAX);
        assert_eq!(w.phase_start(2), u64::MAX);
        let err = PhasedWorkload::new(vec![huge(u64::MAX), huge(1)], join, 1).unwrap_err();
        assert!(err.to_string().contains("more than 2^64 - 1"), "{err}");
    }

    #[test]
    fn concurrency_burst_defaults_and_validates() {
        let p = phase("p", KeyDistribution::Uniform, 10);
        assert_eq!(p.concurrency_burst, 1.0);
        let burst = p.clone().with_concurrency_burst(2.5);
        assert_eq!(burst.concurrency_burst, 2.5);
        assert!(PhasedWorkload::single(burst, 1).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let w = PhasedWorkload::single(p.clone().with_concurrency_burst(bad), 1);
            assert!(w.is_err(), "burst {bad} accepted");
        }
    }
}
