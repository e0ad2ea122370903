//! Drift composers: high-level phase generators that expand to concrete
//! phase lists.
//!
//! NeurBench-style parameterized drift: instead of hand-writing N phases,
//! a spec states the *shape* of the drift and the composer unrolls it into
//! [`WorkloadPhase`](lsbench_workload::phases::WorkloadPhase)s joined by
//! [`TransitionKind`](lsbench_workload::phases::TransitionKind)s (the
//! canonical table of all seven composer blocks lives in the
//! [`spec`](crate::spec) module docs). Expansion happens at parse time and
//! is pure arithmetic over a virtual clock (step midpoints), so a composed
//! scenario is indistinguishable from one whose phases were written out by
//! hand — the run-time driver never knows composers exist. See DESIGN.md
//! ("Parse-time composer expansion") for why.
//!
//! A composer is a function from the block's [`Steps`] and its own
//! parameters to an [`Expansion`]; all of them unroll through
//! [`Steps::unroll`], as the two workload families
//! (`lsbench_workload::families`) do. The two that move a distribution —
//! [`drift`], and [`growing_skew`] on top of it — sample a [`DriftAxis`]
//! between two distinct endpoint phases; `[[gradual_shift]]` *is*
//! `drift` at `alpha = 1`. The two that only move the load —
//! [`diurnal`] and [`burst`] — scale one template phase (DESIGN.md §13).
//!
//! Composers return plain `String` reasons on invalid parameters; the
//! parser attaches the source position to produce a
//! [`SpecError`](super::SpecError).

use crate::sweep::drift::{lerp_t, DriftAxis};
use lsbench_workload::families::{FamilyExpansion, Steps};
use lsbench_workload::keygen::KeyDistribution;
use lsbench_workload::ops::OperationMix;

/// Re-exported from [`crate::sweep::drift`], where the interpolation
/// arithmetic moved when the composers were refactored onto [`DriftAxis`].
pub use crate::sweep::drift::interpolate_distribution;

/// An expanded composer: the concrete phases and the transitions *between*
/// them (`transitions.len() == phases.len() - 1`).
pub type Expansion = FamilyExpansion;

/// `diurnal { period, amplitude }`: a day/night load cycle.
///
/// Expands to `steps` phases over one shared distribution whose open-loop
/// `concurrency_burst` follows a sinusoid sampled at each step's virtual
/// midpoint: `1 + amplitude · sin(2π · (i + 0.5) / period)`, with `period`
/// in steps. With `amplitude < 1` the factor stays positive, so every
/// expanded phase validates.
pub fn diurnal(
    steps: &Steps,
    mix: OperationMix,
    period: f64,
    amplitude: f64,
    distribution: KeyDistribution,
) -> Result<Expansion, String> {
    steps.check(1)?;
    if !(period > 0.0 && period.is_finite()) {
        return Err("period must be positive and finite".to_string());
    }
    if !(0.0..1.0).contains(&amplitude) {
        return Err("amplitude must be in [0, 1)".to_string());
    }
    let template = steps.phase(distribution, steps.key_range, mix);
    Ok(steps.unroll(None, |i| {
        let t = (i as f64 + 0.5) / period;
        let factor = 1.0 + amplitude * (2.0 * std::f64::consts::PI * t).sin();
        template.clone().with_concurrency_burst(factor)
    }))
}

/// `burst { at, factor, width }`: a flash crowd.
///
/// Expands to `steps` phases; the `width` phases starting at step `at`
/// (0-based) carry `concurrency_burst = factor`, the rest run at 1.0.
pub fn burst(
    steps: &Steps,
    mix: OperationMix,
    at: u64,
    width: u64,
    factor: f64,
    distribution: KeyDistribution,
) -> Result<Expansion, String> {
    steps.check(1)?;
    if width == 0 {
        return Err("width must be at least 1 step".to_string());
    }
    if at.checked_add(width).is_none_or(|end| end > steps.steps) {
        return Err(format!(
            "burst [{at}, {}) runs past the last step ({})",
            at.saturating_add(width),
            steps.steps
        ));
    }
    if !(factor > 0.0 && factor.is_finite()) {
        return Err("factor must be positive and finite".to_string());
    }
    let calm = steps.phase(distribution, steps.key_range, mix);
    let surge = calm.clone().with_concurrency_burst(factor);
    Ok(steps.unroll(None, |i| {
        if i >= at && i < at + width {
            surge.clone()
        } else {
            calm.clone()
        }
    }))
}

/// `drift { alpha, from, to }`: the sweep subsystem's α axis exposed
/// directly in spec files, and — at `alpha = 1` — `[[gradual_shift]]`.
///
/// Expands to `steps` phases (at least 2) that ramp the drift intensity
/// linearly from 0 (the `from` distribution, exactly) up to `alpha` — step
/// `i` sits at `α_i = alpha · i / (steps − 1)` on the [`DriftAxis`] between
/// two same-shape distributions. `alpha = 1` is the full shift from `from`
/// (step 0) to `to` (last step), and since `1.0 · x == x` exactly that is
/// how `[[gradual_shift]]` is defined; smaller values stop the drift
/// partway, which is what a ladder of `[[drift]]` specs at increasing
/// `alpha` sweeps over. Joins between steps are abrupt by default — many
/// small abrupt steps approximate a continuous drift — or gradual with the
/// `smooth` window.
pub fn drift(
    steps: &Steps,
    mix: OperationMix,
    from: KeyDistribution,
    to: KeyDistribution,
    alpha: f64,
    smooth: Option<f64>,
) -> Result<Expansion, String> {
    steps.check(2)?;
    if !(alpha.is_finite() && (0.0..=1.0).contains(&alpha)) {
        return Err(format!("alpha must be in [0, 1], got {alpha}"));
    }
    let axis = DriftAxis::new(
        steps.phase(from, steps.key_range, mix.clone()),
        steps.phase(to, steps.key_range, mix),
    )?;
    Ok(steps.unroll(smooth, |i| axis.at(alpha * lerp_t(i, steps.steps))))
}

/// `growing_skew { start_theta, end_theta }`: access skew that tightens
/// (or relaxes) over time.
///
/// Expands to `steps` zipfian phases with `theta` linearly interpolated —
/// the canonical "a hot set emerges" drift for learned structures: a full
/// [`drift`] between two zipf endpoints.
pub fn growing_skew(
    steps: &Steps,
    mix: OperationMix,
    start_theta: f64,
    end_theta: f64,
    smooth: Option<f64>,
) -> Result<Expansion, String> {
    steps.check(2)?;
    for (label, theta) in [("start_theta", start_theta), ("end_theta", end_theta)] {
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(format!("{label} must be positive and finite"));
        }
    }
    let zipf = |theta| KeyDistribution::Zipf { theta };
    drift(steps, mix, zipf(start_theta), zipf(end_theta), 1.0, smooth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_workload::phases::{TransitionKind, WorkloadPhase};

    fn steps(name: &str, steps: u64, ops_per_step: u64) -> Steps {
        Steps {
            name: name.to_string(),
            steps,
            ops_per_step,
            key_range: (0, 1_000_000),
        }
    }

    #[test]
    fn diurnal_cycle_is_sinusoidal_and_positive() {
        let expand = || {
            diurnal(
                &steps("day", 12, 100),
                OperationMix::ycsb_c(),
                12.0,
                0.9,
                KeyDistribution::Uniform,
            )
        };
        let (phases, transitions) = expand().unwrap();
        assert_eq!(phases.len(), 12);
        assert_eq!(transitions.len(), 11);
        assert!(phases.iter().all(|p| p.concurrency_burst > 0.0));
        // First half of the cycle is above baseline, second half below.
        assert!(phases[2].concurrency_burst > 1.5);
        assert!(phases[8].concurrency_burst < 0.5);
        // Deterministic: same inputs, same expansion.
        assert_eq!(expand().unwrap(), (phases, transitions));
    }

    #[test]
    fn burst_window_carries_factor() {
        let expand = |at| {
            burst(
                &steps("crowd", 6, 50),
                OperationMix::ycsb_b(),
                at,
                2,
                8.0,
                KeyDistribution::Zipf { theta: 0.99 },
            )
        };
        let (phases, _) = expand(2).unwrap();
        let factors: Vec<f64> = phases.iter().map(|p| p.concurrency_burst).collect();
        assert_eq!(factors, [1.0, 1.0, 8.0, 8.0, 1.0, 1.0]);
        // Out-of-range burst rejected.
        assert!(expand(5).is_err());
    }

    #[test]
    fn gradual_shift_interpolates_and_rejects_shape_jumps() {
        let expand = |to| {
            drift(
                &steps("drift", 5, 10),
                OperationMix::ycsb_c(),
                KeyDistribution::Normal {
                    center: 0.1,
                    std_frac: 0.05,
                },
                to,
                1.0,
                Some(0.5),
            )
        };
        let (phases, transitions) = expand(KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.01,
        })
        .unwrap();
        let KeyDistribution::Normal { center, .. } = phases[2].distribution else {
            panic!("shape preserved");
        };
        assert_eq!(center, 0.5);
        assert!(transitions
            .iter()
            .all(|t| *t == TransitionKind::Gradual { window: 0.5 }));
        let err = expand(KeyDistribution::Uniform).unwrap_err();
        assert!(err.contains("cannot interpolate"));
    }

    #[test]
    fn growing_skew_hits_both_endpoints() {
        let (phases, transitions) = growing_skew(
            &steps("skew", 9, 10),
            OperationMix::ycsb_c(),
            0.6,
            1.4,
            None,
        )
        .unwrap();
        let thetas: Vec<f64> = phases
            .iter()
            .map(|p| match p.distribution {
                KeyDistribution::Zipf { theta } => theta,
                _ => panic!("all phases zipf"),
            })
            .collect();
        assert_eq!(thetas[0], 0.6);
        assert_eq!(thetas[8], 1.4);
        assert!(thetas.windows(2).all(|w| w[0] < w[1]));
        assert!(transitions.iter().all(|t| *t == TransitionKind::Abrupt));
    }

    fn zipf_drift(alpha: f64) -> Result<Expansion, String> {
        drift(
            &steps("d", 5, 10),
            OperationMix::ycsb_c(),
            KeyDistribution::Zipf { theta: 0.5 },
            KeyDistribution::Zipf { theta: 1.3 },
            alpha,
            None,
        )
    }

    #[test]
    fn drift_at_zero_alpha_never_leaves_the_base_distribution() {
        let (phases, _) = zipf_drift(0.0).unwrap();
        assert!(phases
            .iter()
            .all(|p| p.distribution == KeyDistribution::Zipf { theta: 0.5 }));
    }

    #[test]
    fn drift_partial_alpha_stops_partway_and_hits_its_endpoint_exactly() {
        let (phases, _) = zipf_drift(0.5).unwrap();
        let theta_of = |p: &WorkloadPhase| match p.distribution {
            KeyDistribution::Zipf { theta } => theta,
            _ => panic!("all phases zipf"),
        };
        assert_eq!(theta_of(&phases[0]), 0.5);
        // The last step sits at α = 0.5 on the axis: lerp(0.5, 1.3, 0.5).
        assert!((theta_of(&phases[4]) - 0.9).abs() < 1e-12);
        let thetas: Vec<f64> = phases.iter().map(theta_of).collect();
        assert!(thetas.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn drift_rejects_out_of_range_alpha() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = zipf_drift(bad).unwrap_err();
            assert!(err.contains("alpha must be in [0, 1]"), "{err}");
        }
    }
}
