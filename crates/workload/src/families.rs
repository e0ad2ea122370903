//! Generator families modelled on real-workload studies.
//!
//! Synthetic generators with uniform template popularity never produce the
//! two dominant traits of production traces (see PAPERS.md):
//!
//! * **Redbench**: real analytical workloads are dominated by *query
//!   repetition* — a small set of hot query templates, Zipf-popular,
//!   accounts for most executions, and the hot set slowly churns.
//! * **CrypQ**: operational datasets are *append-mostly ledgers* — the key
//!   space only grows, recent keys absorb most accesses, and the absolute
//!   key distribution therefore drifts continuously as the ledger grows.
//!
//! This module provides both as phase-expanding families: a family is a
//! plain struct whose [`expand`](TemplatedRepetition::expand) unrolls it
//! into concrete [`WorkloadPhase`]s joined by [`TransitionKind`]s.
//! Expansion is pure arithmetic — families return `String` reasons on
//! invalid parameters and the spec parser attaches source positions. The
//! unrolling itself ([`Steps`]) and the interpolation arithmetic
//! ([`lerp`], [`lerp_t`]) live here once; the core crate's drift composers
//! and drift axis use the same definitions.

use crate::keygen::KeyDistribution;
use crate::ops::OperationMix;
use crate::phases::{TransitionKind, WorkloadPhase};

/// The phases and the transitions *between* them produced by a family
/// (`transitions.len() == phases.len() - 1`).
pub type FamilyExpansion = (Vec<WorkloadPhase>, Vec<TransitionKind>);

/// Unclamped linear interpolation `a + (b − a) · t`.
///
/// At `t = 0` this is exactly `a` (adding a signed zero never changes a
/// nonzero value); at `t = 1` it may differ from `b` by an ulp, which is
/// why the core crate's `DriftAxis::at` clamps the endpoints instead of
/// evaluating them.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Linear interpolation position of step `i` among `steps` (0 at the first
/// step, 1 at the last; 0 for a single step).
pub fn lerp_t(i: u64, steps: u64) -> f64 {
    if steps <= 1 {
        0.0
    } else {
        i as f64 / (steps - 1) as f64
    }
}

/// What every phase-unrolling block states: how many phases, how long
/// each, over which keys, and what to call them. The families below and
/// the core crate's drift composers all unroll through this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct Steps {
    /// Phase-name prefix (phases are `{name}-0`, `{name}-1`, …).
    pub name: String,
    /// Number of phases to expand to.
    pub steps: u64,
    /// Operations per expanded phase.
    pub ops_per_step: u64,
    /// Key range of the block (the ledger's *final* extent).
    pub key_range: (u64, u64),
}

impl Steps {
    /// Rejects fewer than `min_steps` steps, an unreasonable step count,
    /// and empty steps.
    pub fn check(&self, min_steps: u64) -> Result<(), String> {
        if self.steps < min_steps {
            Err(format!(
                "needs at least {min_steps} steps, got {}",
                self.steps
            ))
        } else if self.steps > 100_000 {
            Err(format!(
                "{} steps is unreasonably many (max 100000)",
                self.steps
            ))
        } else if self.ops_per_step == 0 {
            Err("ops_per_step must be positive".to_string())
        } else {
            Ok(())
        }
    }

    /// One step's phase over `range`, named after the block
    /// ([`unroll`](Steps::unroll) numbers it).
    pub fn phase(
        &self,
        distribution: KeyDistribution,
        range: (u64, u64),
        mix: OperationMix,
    ) -> WorkloadPhase {
        WorkloadPhase::new(
            self.name.clone(),
            distribution,
            range,
            mix,
            self.ops_per_step,
        )
    }

    /// Unrolls the block: step `i`'s phase is `phase(i)` renamed
    /// `{name}-{i}`; consecutive steps are joined abruptly, or gradually
    /// over the `smooth` window. Call after [`check`](Steps::check), which
    /// guarantees at least one step.
    pub fn unroll(
        &self,
        smooth: Option<f64>,
        mut phase: impl FnMut(u64) -> WorkloadPhase,
    ) -> FamilyExpansion {
        let phases: Vec<WorkloadPhase> = (0..self.steps)
            .map(|i| {
                let mut p = phase(i);
                p.name = format!("{}-{i}", self.name);
                p
            })
            .collect();
        let join = match smooth {
            Some(window) => TransitionKind::Gradual { window },
            None => TransitionKind::Abrupt,
        };
        let transitions = vec![join; phases.len() - 1];
        (phases, transitions)
    }
}

/// Generalized harmonic number `H(k, theta) = Σ_{r=1..k} r^{-theta}`.
fn harmonic(k: u64, theta: f64) -> f64 {
    (1..=k).map(|r| (r as f64).powf(-theta)).sum()
}

/// `templated_repetition { templates, hot_templates, theta, churn }`:
/// hot query templates with Zipf popularity (Redbench).
///
/// The key range is treated as `templates` equal-width template slots, the
/// first `hot_templates` of which form the hot set. Template popularity is
/// Zipf(`theta`): the fraction of accesses landing in the hot set is the
/// Zipf head mass `H(hot_templates, theta) / H(templates, theta)`, realized
/// as a [`KeyDistribution::Hotspot`] whose `hot_span` is the hot set's share
/// of the key space. With `churn > 0` the head mass erodes linearly toward
/// the uniform baseline over the expanded steps — the hot set losing its
/// dominance as the template population turns over.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatedRepetition {
    /// Step count, length, name prefix, and the key range partitioned into
    /// template slots.
    pub steps: Steps,
    /// Operation mix shared by every step.
    pub mix: OperationMix,
    /// Total number of query templates (≥ 2).
    pub templates: u64,
    /// Size of the hot template set (≥ 1, < `templates`).
    pub hot_templates: u64,
    /// Zipf exponent of template popularity (> 0).
    pub theta: f64,
    /// Fraction of the Zipf head mass eroded by the final step, in `[0, 1]`.
    pub churn: f64,
}

impl TemplatedRepetition {
    /// Expands the family. See the type-level docs for the schedule.
    pub fn expand(&self) -> Result<FamilyExpansion, String> {
        self.steps.check(1)?;
        if self.templates < 2 {
            return Err(format!(
                "needs at least 2 templates, got {}",
                self.templates
            ));
        }
        if self.templates > 1_000_000 {
            return Err(format!(
                "{} templates is unreasonably many (max 1000000)",
                self.templates
            ));
        }
        if self.hot_templates == 0 || self.hot_templates >= self.templates {
            return Err(format!(
                "hot_templates must be in [1, templates), got {} of {}",
                self.hot_templates, self.templates
            ));
        }
        if !(self.theta > 0.0 && self.theta.is_finite()) {
            return Err("theta must be positive and finite".to_string());
        }
        if !(0.0..=1.0).contains(&self.churn) {
            return Err("churn must be in [0, 1]".to_string());
        }
        if self.churn > 0.0 && self.steps.steps < 2 {
            return Err("churn needs at least 2 steps to erode over".to_string());
        }
        let hot_span = self.hot_templates as f64 / self.templates as f64;
        let head_mass =
            harmonic(self.hot_templates, self.theta) / harmonic(self.templates, self.theta);
        Ok(self.steps.unroll(None, |i| {
            // Erode the Zipf head mass toward the uniform baseline (where
            // the hot set receives exactly its span's share).
            let hot_fraction = lerp(
                head_mass,
                hot_span,
                self.churn * lerp_t(i, self.steps.steps),
            );
            self.steps.phase(
                KeyDistribution::Hotspot {
                    hot_fraction,
                    hot_span,
                },
                self.steps.key_range,
                self.mix.clone(),
            )
        }))
    }
}

/// `ledger { start_frac, append_fraction, recency }`: an append-mostly
/// ledger whose key distribution drifts as the ledger grows (CrypQ).
///
/// The key range is the ledger's *final* extent. Step `i` exposes the live
/// prefix `[lo, lo + span · lerp(start_frac, 1, tᵢ))`; accesses concentrate
/// on the most recent `recency` fraction of the live prefix (a truncated
/// normal centered near the live high end), so the *absolute* key
/// distribution drifts every step even though the relative shape is fixed.
/// The mix is derived, not configured: `append_fraction` of operations are
/// inserts (appends — the generator writes fresh keys beyond the live
/// range) and the rest are reads.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerGrowth {
    /// Step count (≥ 2 — growth needs somewhere to go), length, name
    /// prefix, and the ledger's final key range, reached at the last step.
    pub steps: Steps,
    /// Fraction of the final range live at the first step, in `(0, 1)`.
    pub start_frac: f64,
    /// Fraction of operations that append, in `[0, 1)`.
    pub append_fraction: f64,
    /// Fraction of the live prefix absorbing most accesses, in `(0, 1]`.
    pub recency: f64,
}

impl LedgerGrowth {
    /// Expands the family. See the type-level docs for the schedule.
    pub fn expand(&self) -> Result<FamilyExpansion, String> {
        self.steps.check(2)?;
        let (lo, hi) = self.steps.key_range;
        if lo >= hi {
            return Err(format!("key_range {lo}..{hi} is empty"));
        }
        if !(self.start_frac > 0.0 && self.start_frac < 1.0) {
            return Err("start_frac must be in (0, 1)".to_string());
        }
        if !(0.0..1.0).contains(&self.append_fraction) {
            return Err("append_fraction must be in [0, 1)".to_string());
        }
        if !(self.recency > 0.0 && self.recency <= 1.0) {
            return Err("recency must be in (0, 1]".to_string());
        }
        let span = (hi - lo) as f64;
        if span * self.start_frac < 1.0 {
            return Err(format!(
                "key_range too small: start_frac {} of {span} keys is empty",
                self.start_frac
            ));
        }
        let mix = OperationMix {
            read: 1.0 - self.append_fraction,
            insert: self.append_fraction,
            update: 0.0,
            scan: 0.0,
            delete: 0.0,
            max_scan_len: 0,
        };
        // Accesses concentrate on the newest `recency` fraction of the live
        // prefix: a normal centered in the middle of that recent window.
        let distribution = KeyDistribution::Normal {
            center: 1.0 - self.recency / 2.0,
            std_frac: self.recency / 4.0,
        };
        Ok(self.steps.unroll(None, |i| {
            let frac = lerp(self.start_frac, 1.0, lerp_t(i, self.steps.steps));
            // Saturating: `span` rounds up to 2^64 under a range that ends
            // at `u64::MAX`.
            let live_hi = lo.saturating_add((span * frac).round().max(1.0) as u64);
            self.steps.phase(
                distribution.clone(),
                (lo, live_hi.min(hi).max(lo + 1)),
                mix.clone(),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::PhasedWorkload;

    fn steps(name: &str, steps: u64) -> Steps {
        Steps {
            name: name.to_string(),
            steps,
            ops_per_step: 1_000,
            key_range: (0, 1_000_000),
        }
    }

    fn templated() -> TemplatedRepetition {
        TemplatedRepetition {
            steps: steps("templ", 4),
            mix: OperationMix::ycsb_c(),
            templates: 100,
            hot_templates: 10,
            theta: 1.1,
            churn: 0.5,
        }
    }

    fn ledger() -> LedgerGrowth {
        LedgerGrowth {
            steps: steps("ledger", 5),
            start_frac: 0.2,
            append_fraction: 0.3,
            recency: 0.1,
        }
    }

    #[test]
    fn templated_expands_to_validating_workload() {
        let (phases, transitions) = templated().expand().unwrap();
        assert_eq!(phases.len(), 4);
        assert_eq!(transitions.len(), 3);
        PhasedWorkload::new(phases, transitions, 42).unwrap();
    }

    #[test]
    fn templated_head_mass_exceeds_span_and_erodes_with_churn() {
        let (phases, _) = templated().expand().unwrap();
        let fractions: Vec<f64> = phases
            .iter()
            .map(|p| match p.distribution {
                KeyDistribution::Hotspot {
                    hot_fraction,
                    hot_span,
                } => {
                    assert!((hot_span - 0.1).abs() < 1e-12);
                    hot_fraction
                }
                ref other => panic!("expected hotspot, got {other:?}"),
            })
            .collect();
        // Zipf head mass always beats the uniform baseline.
        assert!(fractions[0] > 0.1);
        // Churn erodes the head mass monotonically.
        for w in fractions.windows(2) {
            assert!(w[0] > w[1]);
        }
        // At churn 0.5 the final step keeps half the excess over baseline.
        let expected_last = 0.1 + (fractions[0] - 0.1) * 0.5;
        assert!((fractions[3] - expected_last).abs() < 1e-9);
    }

    #[test]
    fn templated_zero_churn_is_stationary() {
        let mut fam = templated();
        fam.churn = 0.0;
        fam.steps.steps = 1;
        let (phases, transitions) = fam.expand().unwrap();
        assert_eq!(phases.len(), 1);
        assert!(transitions.is_empty());
    }

    #[test]
    fn templated_rejects_bad_parameters() {
        let mut fam = templated();
        fam.hot_templates = 100;
        assert!(fam.expand().unwrap_err().contains("hot_templates"));
        let mut fam = templated();
        fam.theta = 0.0;
        assert!(fam.expand().unwrap_err().contains("theta"));
        let mut fam = templated();
        fam.churn = 1.5;
        assert!(fam.expand().unwrap_err().contains("churn"));
        let mut fam = templated();
        fam.steps.steps = 1;
        assert!(fam.expand().unwrap_err().contains("churn"));
        let mut fam = templated();
        fam.templates = 1;
        assert!(fam.expand().unwrap_err().contains("templates"));
    }

    #[test]
    fn ledger_expands_to_growing_validating_workload() {
        let (phases, transitions) = ledger().expand().unwrap();
        assert_eq!(phases.len(), 5);
        assert_eq!(transitions.len(), 4);
        // The live prefix grows monotonically to the full range.
        let highs: Vec<u64> = phases.iter().map(|p| p.key_range.1).collect();
        for w in highs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(*highs.first().unwrap(), 200_000);
        assert_eq!(*highs.last().unwrap(), 1_000_000);
        // Derived mix: append_fraction inserts, the rest reads.
        for p in &phases {
            assert!((p.mix.insert - 0.3).abs() < 1e-12);
            assert!((p.mix.read - 0.7).abs() < 1e-12);
        }
        PhasedWorkload::new(phases, transitions, 42).unwrap();
    }

    #[test]
    fn ledger_whose_range_ends_at_u64_max_stays_inside_it() {
        let mut fam = ledger();
        fam.steps.key_range = (1, u64::MAX);
        let (phases, _) = fam.expand().unwrap();
        assert_eq!(phases.last().unwrap().key_range, (1, u64::MAX));
        assert!(phases.iter().all(|p| p.key_range.1 > 1));
    }

    #[test]
    fn ledger_rejects_bad_parameters() {
        let mut fam = ledger();
        fam.steps.steps = 1;
        assert!(fam.expand().unwrap_err().contains("steps"));
        let mut fam = ledger();
        fam.start_frac = 1.0;
        assert!(fam.expand().unwrap_err().contains("start_frac"));
        let mut fam = ledger();
        fam.append_fraction = 1.0;
        assert!(fam.expand().unwrap_err().contains("append_fraction"));
        let mut fam = ledger();
        fam.recency = 0.0;
        assert!(fam.expand().unwrap_err().contains("recency"));
        let mut fam = ledger();
        fam.steps.key_range = (10, 10);
        assert!(fam.expand().unwrap_err().contains("empty"));
    }
}
