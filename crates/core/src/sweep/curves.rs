//! Per-SUT metric curves over the α grid, plus the theory overlay.
//!
//! Each sweep cell (one SUT at one rung) yields the four headline
//! figures as scalars: Fig. 1b adaptability area, Fig. 1c adjustment
//! speed and SLA violation rate, and Fig. 1a specialization spread.
//! Stringing the cells of one SUT along the grid gives a [`SweepCurve`].
//!
//! The *theory overlay* comes from Zeighami & Shahabi's
//! distribution-learnability results: for a learnable distribution
//! family, a learned structure's error grows at most proportionally
//! with the distribution shift, so each metric's linear interpolation
//! between its own α-endpoints is the reference slope. A SUT whose
//! measured curve bows *past* that line degrades faster than the bound
//! predicts for a well-behaved learner — [`bound_flags`] marks those
//! rungs.

use crate::metrics::adaptability::AdaptabilityReport;
use crate::metrics::phi::{distribution_phis, DataPhiMethod};
use crate::metrics::sla::SlaReport;
use crate::metrics::specialization::SpecializationReport;
use crate::record::RunRecord;
use crate::scenario::Scenario;
use crate::sweep::drift::lerp;
use crate::{BenchError, Result};
use serde::{Deserialize, Serialize};

/// One sweep cell: every headline metric at one drift intensity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Drift intensity of this rung.
    pub alpha: f64,
    /// Fig. 1b normalized area vs. the ideal curve (higher is better).
    pub adaptability_area: f64,
    /// Fig. 1c adjustment speed: worst Σ over-SLA latency over the first
    /// N queries after any phase change (lower is better).
    pub adjustment_speed: f64,
    /// Fig. 1c fraction of completions over the SLA (lower is better).
    pub sla_violation_rate: f64,
    /// Fig. 1a worst/best per-phase median-throughput ratio (closer to 1
    /// is better; large values mean the SUT over-specialized).
    pub specialization_spread: f64,
}

/// One SUT's metric curve along the α grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurve {
    /// SUT display name.
    pub sut: String,
    /// One point per rung, in grid order.
    pub points: Vec<SweepPoint>,
}

/// One curve metric: display name, accessor, and whether higher values
/// are better (drives the degradation direction of the overlay).
pub(crate) type MetricSpec = (&'static str, fn(&SweepPoint) -> f64, bool);

/// The four curve metrics rendered and flagged per sweep.
pub(crate) const METRICS: [MetricSpec; 4] = [
    ("adaptability area", |p| p.adaptability_area, true),
    ("adjustment speed", |p| p.adjustment_speed, false),
    ("SLA violation rate", |p| p.sla_violation_rate, false),
    ("specialization spread", |p| p.specialization_spread, false),
];

/// Derives one SUT's [`SweepCurve`] from the per-rung run records.
///
/// `rungs` and `records` are parallel to `alphas`. The SLA threshold is
/// resolved once against the α = 0 record — the no-drift control run is
/// the natural baseline for `FromBaselineP99` policies, so every rung is
/// judged against the same bar.
pub fn sweep_curve(
    sut: &str,
    alphas: &[f64],
    rungs: &[Scenario],
    records: &[RunRecord],
) -> Result<SweepCurve> {
    if alphas.len() != rungs.len() || alphas.len() != records.len() || alphas.is_empty() {
        return Err(BenchError::Metric(format!(
            "sweep curve needs matching non-empty grids (alphas {}, rungs {}, records {})",
            alphas.len(),
            rungs.len(),
            records.len()
        )));
    }
    let threshold = rungs[0].sla.resolve(Some(&records[0]))?;
    let mut points = Vec::with_capacity(alphas.len());
    for ((&alpha, rung), record) in alphas.iter().zip(rungs).zip(records) {
        let adapt = AdaptabilityReport::from_record(record)?;
        let sla = SlaReport::headline(record, threshold)?;
        points.push(SweepPoint {
            alpha,
            adaptability_area: adapt.normalized_area,
            adjustment_speed: sla.worst_adjustment(),
            sla_violation_rate: sla.violation_fraction,
            specialization_spread: specialization_spread(rung, record)?,
        });
    }
    Ok(SweepCurve {
        sut: sut.to_string(),
        points,
    })
}

/// Fig. 1a spread for one cell: worst/best per-phase median throughput,
/// with the Φ axis sampled from the rung's own distributions. Degenerate
/// cells (single phase, or windows too small to compare) report 1.0 —
/// no spread.
fn specialization_spread(rung: &Scenario, record: &RunRecord) -> Result<f64> {
    let phases = rung.workload.phases();
    let dists: Vec<_> = phases.iter().map(|p| p.distribution.clone()).collect();
    let phis = distribution_phis(
        &dists,
        phases[0].key_range,
        DataPhiMethod::KolmogorovSmirnov,
        rung.workload.seed(),
    )?;
    let min_ops = phases.iter().map(|p| p.ops).min().unwrap_or(2);
    let ops_per_window = (min_ops / 8).clamp(2, 200) as usize;
    Ok(
        SpecializationReport::from_record(record, &phis, ops_per_window, &[])
            .ok()
            .and_then(|r| r.worst_to_best_ratio())
            .unwrap_or(1.0),
    )
}

/// The linear degradation reference for one metric along a curve: the
/// straight line between the metric's own α-endpoints, evaluated at each
/// grid α (endpoint-exact like everything else on the axis).
pub(crate) fn linear_reference(points: &[SweepPoint], metric: fn(&SweepPoint) -> f64) -> Vec<f64> {
    let (first, last) = match (points.first(), points.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Vec::new(),
    };
    let (a0, a1) = (first.alpha, last.alpha);
    let (m0, m1) = (metric(first), metric(last));
    let span = a1 - a0;
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i == 0 || span <= 0.0 {
                m0
            } else if i == points.len() - 1 {
                m1
            } else {
                lerp(m0, m1, (p.alpha - a0) / span)
            }
        })
        .collect()
}

/// A rung where a SUT's measured metric degrades further than the linear
/// shift bound predicts (by more than the 10% tolerance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundFlag {
    /// SUT the flag applies to.
    pub sut: String,
    /// Which metric bowed past the bound.
    pub metric: String,
    /// The rung's drift intensity.
    pub alpha: f64,
    /// How far past the reference line the measurement sits, as a
    /// fraction of the metric's endpoint-to-endpoint magnitude.
    pub excess_frac: f64,
}

/// Tolerated deviation from the reference line before a rung is flagged,
/// as a fraction of the metric's endpoint scale.
const BOUND_TOLERANCE: f64 = 0.10;

/// Flags every (metric, rung) of `curve` whose measured value is worse
/// than the linear reference by more than the tolerance. Endpoints can
/// never flag — the reference passes through them by construction.
pub fn bound_flags(curve: &SweepCurve) -> Vec<BoundFlag> {
    let mut flags = Vec::new();
    for (name, metric, higher_is_better) in METRICS {
        let reference = linear_reference(&curve.points, metric);
        let (m0, m1) = match (reference.first(), reference.last()) {
            (Some(&m0), Some(&m1)) => (m0, m1),
            _ => continue,
        };
        let scale = (m1 - m0).abs().max(m0.abs()).max(1e-9);
        for (p, &r) in curve.points.iter().zip(&reference) {
            let measured = metric(p);
            let deviation = if higher_is_better {
                r - measured
            } else {
                measured - r
            };
            let excess_frac = deviation / scale;
            if excess_frac > BOUND_TOLERANCE {
                flags.push(BoundFlag {
                    sut: curve.sut.clone(),
                    metric: name.to_string(),
                    alpha: p.alpha,
                    excess_frac,
                });
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(alpha: f64, area: f64, speed: f64) -> SweepPoint {
        SweepPoint {
            alpha,
            adaptability_area: area,
            adjustment_speed: speed,
            sla_violation_rate: 0.0,
            specialization_spread: 1.0,
        }
    }

    #[test]
    fn linear_reference_is_endpoint_exact() {
        let points = vec![
            point(0.0, -0.1, 0.0),
            point(0.5, -0.9, 0.0),
            point(1.0, -0.3, 0.0),
        ];
        let reference = linear_reference(&points, |p| p.adaptability_area);
        assert_eq!(reference[0], -0.1);
        assert_eq!(reference[2], -0.3);
        assert!((reference[1] - -0.2).abs() < 1e-12);
    }

    #[test]
    fn bowing_past_the_bound_flags_the_rung_in_the_right_direction() {
        // Adaptability (higher is better) collapses mid-curve.
        let curve = SweepCurve {
            sut: "rmi".to_string(),
            points: vec![
                point(0.0, 0.0, 0.0),
                point(0.5, -0.9, 0.0),
                point(1.0, -0.3, 0.0),
            ],
        };
        let flags = bound_flags(&curve);
        assert!(flags
            .iter()
            .any(|f| f.metric == "adaptability area" && f.alpha == 0.5 && f.excess_frac > 0.0));
        // A curve that degrades exactly linearly never flags.
        let linear = SweepCurve {
            sut: "btree".to_string(),
            points: vec![
                point(0.0, 0.0, 1.0),
                point(0.5, -0.15, 2.0),
                point(1.0, -0.3, 3.0),
            ],
        };
        assert!(bound_flags(&linear).is_empty());
        // Lower-is-better metrics flag when they spike *above* the line.
        let spiky = SweepCurve {
            sut: "alex".to_string(),
            points: vec![
                point(0.0, 0.0, 1.0),
                point(0.5, -0.15, 9.0),
                point(1.0, -0.3, 3.0),
            ],
        };
        assert!(bound_flags(&spiky)
            .iter()
            .all(|f| f.metric == "adjustment speed"));
        assert_eq!(bound_flags(&spiky).len(), 1);
    }

    #[test]
    fn mismatched_grid_lengths_are_an_error() {
        let err = sweep_curve("x", &[0.0, 1.0], &[], &[]).unwrap_err();
        assert!(matches!(err, BenchError::Metric(_)));
    }
}
