//! Maximum Mean Discrepancy (MMD) with an RBF kernel.
//!
//! The paper (§V-D.1) names MMD (Gretton et al., NeurIPS 2006) as an
//! alternative to the KS test for quantifying how far two *data
//! distributions* are apart. MMD embeds each distribution into an RKHS and
//! measures the distance between the embeddings; with a characteristic
//! kernel (like the Gaussian RBF used here) MMD is zero iff the
//! distributions are identical.
//!
//! We implement the unbiased quadratic-time estimator `MMD²_u` and the
//! standard median heuristic for bandwidth selection. Inputs are 1-D
//! samples, which matches the benchmark's use (key distributions); the
//! paper only needs a *sortable* Φ value, not a precise one.

use crate::{Result, StatsError};

/// Gaussian RBF kernel `k(x, y) = exp(-(x-y)² / (2σ²))`.
#[inline]
fn rbf(x: f64, y: f64, two_sigma_sq: f64) -> f64 {
    let d = x - y;
    (-(d * d) / two_sigma_sq).exp()
}

/// Median-heuristic bandwidth: the median of pairwise distances between the
/// pooled samples. Falls back to `1.0` when the median distance is zero
/// (e.g. constant data), so the kernel stays well-defined.
///
/// For large inputs the pairwise set is subsampled deterministically (first
/// `cap` points of each sample) — the heuristic only needs a scale, not an
/// exact median.
pub fn median_heuristic_bandwidth(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::Empty);
    }
    if a.iter().chain(b.iter()).any(|v| v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    const CAP: usize = 256;
    let pooled: Vec<f64> = a
        .iter()
        .take(CAP)
        .chain(b.iter().take(CAP))
        .copied()
        .collect();
    let mut dists = Vec::with_capacity(pooled.len() * (pooled.len() - 1) / 2);
    for i in 0..pooled.len() {
        for j in (i + 1)..pooled.len() {
            dists.push((pooled[i] - pooled[j]).abs());
        }
    }
    if dists.is_empty() {
        return Ok(1.0);
    }
    dists.sort_by(|x, y| x.partial_cmp(y).expect("NaN filtered above"));
    let median = dists[dists.len() / 2];
    Ok(if median > 0.0 { median } else { 1.0 })
}

/// Unbiased `MMD²_u` estimate between samples `a` and `b` with an RBF kernel
/// of bandwidth `sigma` (pass `None` to use the median heuristic).
///
/// Requires at least two samples on each side. The unbiased estimator can be
/// slightly negative for identical distributions; callers using it as a
/// distance should clamp at zero.
pub fn mmd_rbf(a: &[f64], b: &[f64], sigma: Option<f64>) -> Result<f64> {
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::InsufficientSamples {
            needed: 2,
            got: a.len().min(b.len()),
        });
    }
    if a.iter().chain(b.iter()).any(|v| v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let sigma = match sigma {
        Some(s) if s > 0.0 => s,
        Some(_) => return Err(StatsError::InvalidParameter("sigma must be positive")),
        None => median_heuristic_bandwidth(a, b)?,
    };
    let two_sigma_sq = 2.0 * sigma * sigma;
    let m = a.len() as f64;
    let n = b.len() as f64;

    let mut k_xx = 0.0;
    for i in 0..a.len() {
        for j in 0..a.len() {
            if i != j {
                k_xx += rbf(a[i], a[j], two_sigma_sq);
            }
        }
    }
    let mut k_yy = 0.0;
    for i in 0..b.len() {
        for j in 0..b.len() {
            if i != j {
                k_yy += rbf(b[i], b[j], two_sigma_sq);
            }
        }
    }
    let mut k_xy = 0.0;
    for &x in a {
        for &y in b {
            k_xy += rbf(x, y, two_sigma_sq);
        }
    }
    Ok(k_xx / (m * (m - 1.0)) + k_yy / (n * (n - 1.0)) - 2.0 * k_xy / (m * n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_sample(lo: f64, hi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rand::distributions::Uniform::new(lo, hi);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn same_distribution_near_zero() {
        let a = uniform_sample(0.0, 1.0, 200, 1);
        let b = uniform_sample(0.0, 1.0, 200, 2);
        let m = mmd_rbf(&a, &b, None).unwrap();
        assert!(m.abs() < 0.02, "mmd² = {m}");
    }

    #[test]
    fn different_distributions_positive() {
        let a = uniform_sample(0.0, 1.0, 200, 3);
        let b = uniform_sample(5.0, 6.0, 200, 4);
        let m = mmd_rbf(&a, &b, None).unwrap();
        assert!(m > 0.1, "mmd² = {m}");
    }

    #[test]
    fn distance_orders_by_shift() {
        // Larger mean shift => larger MMD² (with a fixed bandwidth so the
        // estimates are comparable).
        let a = uniform_sample(0.0, 1.0, 150, 5);
        let near = uniform_sample(0.3, 1.3, 150, 6);
        let far = uniform_sample(3.0, 4.0, 150, 7);
        let d_near = mmd_rbf(&a, &near, Some(1.0)).unwrap();
        let d_far = mmd_rbf(&a, &far, Some(1.0)).unwrap();
        assert!(d_near < d_far, "{d_near} !< {d_far}");
    }

    #[test]
    fn symmetric() {
        let a = uniform_sample(0.0, 1.0, 60, 9);
        let b = uniform_sample(0.5, 2.0, 80, 10);
        let ab = mmd_rbf(&a, &b, Some(0.7)).unwrap();
        let ba = mmd_rbf(&b, &a, Some(0.7)).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn rejects_tiny_and_bad_input() {
        assert!(matches!(
            mmd_rbf(&[1.0], &[1.0, 2.0], None),
            Err(StatsError::InsufficientSamples { .. })
        ));
        assert_eq!(
            mmd_rbf(&[1.0, f64::NAN], &[1.0, 2.0], None),
            Err(StatsError::NanInput)
        );
        assert!(matches!(
            mmd_rbf(&[1.0, 2.0], &[1.0, 2.0], Some(-1.0)),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn median_heuristic_constant_data_falls_back() {
        let a = [3.0, 3.0, 3.0];
        let b = [3.0, 3.0];
        assert_eq!(median_heuristic_bandwidth(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn median_heuristic_scales_with_data() {
        let a = uniform_sample(0.0, 1.0, 100, 11);
        let b = uniform_sample(0.0, 1000.0, 100, 12);
        let small = median_heuristic_bandwidth(&a, &a).unwrap();
        let large = median_heuristic_bandwidth(&b, &b).unwrap();
        assert!(large > small * 10.0);
    }
}
