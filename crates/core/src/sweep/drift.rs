//! The shared drift primitive: endpoint-exact interpolation between two
//! workload phases at intensity α.
//!
//! A [`DriftAxis`] owns a *base* and a *target* phase of the same
//! distribution shape and produces the phase at any α ∈ [0, 1].
//! `at(0.0)` returns the base and `at(1.0)` the target **exactly** — not
//! "up to floating-point": the endpoints are clamped to clones, because
//! `a + (b − a) · 1.0` is not bitwise `b` in IEEE arithmetic. Interior
//! points use plain linear interpolation (`a + (b − a) · t`), which is
//! precisely the arithmetic the original per-composer code used, so
//! refactoring the composers onto this axis keeps their interior
//! expansions bit-identical.

use lsbench_workload::keygen::{KeyDistribution, Param};
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::WorkloadPhase;

/// The interpolation arithmetic is defined once, next to the workload
/// families that share it. `lerp(a, b, 1)` may differ from `b` by an ulp,
/// which is why [`DriftAxis::at`] clamps the endpoints instead of
/// evaluating them.
pub use lsbench_workload::families::{lerp, lerp_t};

/// Interpolates two same-shape distributions at `t ∈ [0, 1]`.
///
/// Every parameter is lerped; integer parameters (`clusters`) are lerped,
/// rounded and floored at 1. Mismatched shapes are an error — a jump
/// between shapes is what `transition = "gradual"` on an explicit phase is
/// for.
pub fn interpolate_distribution(
    from: &KeyDistribution,
    to: &KeyDistribution,
    t: f64,
) -> Result<KeyDistribution, String> {
    let ((shape, a), (to_shape, b)) = (from.params(), to.params());
    if shape.name != to_shape.name {
        return Err(format!(
            "cannot interpolate '{}' into '{}' (shapes must match; use an explicit phase with \
             transition = \"gradual\" for cross-shape drift)",
            shape.name, to_shape.name
        ));
    }
    let params: Vec<Param> = a
        .into_iter()
        .zip(b)
        .map(|pair| match pair {
            (Param::Int(a), Param::Int(b)) => {
                Param::Int(lerp(a as f64, b as f64, t).round().max(1.0) as u64)
            }
            (a, b) => Param::Num(lerp(a.num(), b.num(), t)),
        })
        .collect();
    Ok(shape.build(&params))
}

fn lerp_mix(a: &OperationMix, b: &OperationMix, t: f64) -> OperationMix {
    let (wa, wb) = (a.weights(), b.weights());
    OperationMix::from_weights(
        std::array::from_fn(|i| lerp(wa[i], wb[i], t)),
        lerp(a.max_scan_len as f64, b.max_scan_len as f64, t).round() as u32,
    )
}

fn lerp_u64(a: u64, b: u64, t: f64) -> u64 {
    lerp(a as f64, b as f64, t).round() as u64
}

/// A deterministic drift axis between a *base* and a *target* phase.
///
/// `at(α)` interpolates every phase parameter — distribution parameters,
/// operation mix (including the integer `max_scan_len`, lerped and
/// rounded), ops, key range, and concurrency burst — and
/// [`rate_at`](DriftAxis::rate_at) does the same for an optional pair of
/// open-loop arrival rates. The endpoints are exact by construction:
/// `at(α ≤ 0)` clones the base and `at(α ≥ 1)` clones the target,
/// field for field. Non-finite α is treated as 0 (no drift).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAxis {
    base: WorkloadPhase,
    target: WorkloadPhase,
    base_rate: Option<f64>,
    target_rate: Option<f64>,
}

impl DriftAxis {
    /// Builds an axis between two phases of the same distribution shape.
    ///
    /// Returns the same "cannot interpolate" reason as
    /// [`interpolate_distribution`] when the shapes differ, so the error
    /// surfaces identically whether drift is authored as a composer block
    /// or driven programmatically by the sweep ladder.
    pub fn new(base: WorkloadPhase, target: WorkloadPhase) -> Result<Self, String> {
        interpolate_distribution(&base.distribution, &target.distribution, 0.5)?;
        Ok(DriftAxis {
            base,
            target,
            base_rate: None,
            target_rate: None,
        })
    }

    /// Attaches an open-loop arrival-rate pair to interpolate alongside
    /// the phase parameters (see [`rate_at`](DriftAxis::rate_at)).
    pub fn with_rates(mut self, base_rate: f64, target_rate: f64) -> Self {
        self.base_rate = Some(base_rate);
        self.target_rate = Some(target_rate);
        self
    }

    /// The α = 0 endpoint.
    pub fn base(&self) -> &WorkloadPhase {
        &self.base
    }

    /// The α = 1 endpoint.
    pub fn target(&self) -> &WorkloadPhase {
        &self.target
    }

    /// The phase at drift intensity `alpha`.
    ///
    /// `alpha ≤ 0` returns a clone of the base, `alpha ≥ 1` a clone of
    /// the target (both exact, field for field); interior values lerp
    /// every parameter. The interpolated phase keeps the base phase's
    /// name — callers that unroll a ladder rename each rung themselves.
    pub fn at(&self, alpha: f64) -> WorkloadPhase {
        // NaN routes to the base rather than poisoning every field.
        if alpha.is_nan() || alpha <= 0.0 {
            return self.base.clone();
        }
        if alpha >= 1.0 {
            return self.target.clone();
        }
        let distribution =
            interpolate_distribution(&self.base.distribution, &self.target.distribution, alpha)
                .expect("shapes were validated when the axis was constructed");
        WorkloadPhase {
            name: self.base.name.clone(),
            distribution,
            key_range: (
                lerp_u64(self.base.key_range.0, self.target.key_range.0, alpha),
                lerp_u64(self.base.key_range.1, self.target.key_range.1, alpha),
            ),
            mix: lerp_mix(&self.base.mix, &self.target.mix, alpha),
            ops: lerp_u64(self.base.ops, self.target.ops, alpha),
            concurrency_burst: lerp(
                self.base.concurrency_burst,
                self.target.concurrency_burst,
                alpha,
            ),
        }
    }

    /// The arrival rate at intensity `alpha`, when a rate pair was
    /// attached with [`with_rates`](DriftAxis::with_rates) — clamped at
    /// the endpoints exactly like [`at`](DriftAxis::at). `None` when the
    /// axis carries no rates.
    pub fn rate_at(&self, alpha: f64) -> Option<f64> {
        let (a, b) = (self.base_rate?, self.target_rate?);
        if alpha.is_nan() || alpha <= 0.0 {
            Some(a)
        } else if alpha >= 1.0 {
            Some(b)
        } else {
            Some(lerp(a, b, alpha))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_workload::phases::WorkloadPhase;

    fn base_phase() -> WorkloadPhase {
        WorkloadPhase::new(
            "base".to_string(),
            KeyDistribution::Zipf { theta: 0.6 },
            (0, 1_000_000),
            OperationMix::ycsb_c(),
            1_000,
        )
    }

    fn target_phase() -> WorkloadPhase {
        WorkloadPhase::new(
            "target".to_string(),
            KeyDistribution::Zipf { theta: 1.4 },
            (0, 2_000_000),
            OperationMix::ycsb_a(),
            3_000,
        )
        .with_concurrency_burst(4.0)
    }

    #[test]
    fn endpoints_are_exact_field_for_field() {
        let axis = DriftAxis::new(base_phase(), target_phase()).unwrap();
        assert_eq!(axis.at(0.0), base_phase());
        assert_eq!(axis.at(-0.5), base_phase());
        assert_eq!(axis.at(1.0), target_phase());
        assert_eq!(axis.at(7.0), target_phase());
        assert_eq!(axis.at(f64::NAN), base_phase(), "NaN α means no drift");
    }

    #[test]
    fn interior_points_interpolate_every_parameter() {
        let axis = DriftAxis::new(base_phase(), target_phase()).unwrap();
        let mid = axis.at(0.5);
        assert_eq!(mid.name, "base");
        assert_eq!(mid.distribution, KeyDistribution::Zipf { theta: 1.0 });
        assert_eq!(mid.key_range, (0, 1_500_000));
        assert_eq!(mid.ops, 2_000);
        assert_eq!(mid.concurrency_burst, 2.5);
        // ycsb_c is all reads; ycsb_a is 50/50 read/update.
        assert!(mid.mix.read < base_phase().mix.read);
        assert!(mid.mix.update > 0.0);
    }

    #[test]
    fn alpha_is_monotone_in_distribution_parameters() {
        let axis = DriftAxis::new(base_phase(), target_phase()).unwrap();
        let thetas: Vec<f64> = (0..=10)
            .map(|i| match axis.at(i as f64 / 10.0).distribution {
                KeyDistribution::Zipf { theta } => theta,
                _ => panic!("shape preserved"),
            })
            .collect();
        assert!(thetas.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cross_shape_axes_are_rejected_at_construction() {
        let mut t = target_phase();
        t.distribution = KeyDistribution::Uniform;
        let err = DriftAxis::new(base_phase(), t).unwrap_err();
        assert!(err.contains("cannot interpolate"));
    }

    #[test]
    fn rates_interpolate_with_exact_endpoints() {
        let axis = DriftAxis::new(base_phase(), target_phase())
            .unwrap()
            .with_rates(100.0, 300.0);
        assert_eq!(axis.rate_at(0.0), Some(100.0));
        assert_eq!(axis.rate_at(1.0), Some(300.0));
        assert_eq!(axis.rate_at(0.5), Some(200.0));
        let bare = DriftAxis::new(base_phase(), target_phase()).unwrap();
        assert_eq!(bare.rate_at(0.5), None);
    }
}
