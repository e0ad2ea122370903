//! Dataset and workload quality scoring.
//!
//! §V-C of the paper proposes "a software tool that evaluates the quality
//! and relevance of a given dataset for the benchmark. For example, this
//! tool could attribute low marks to uniform data distributions and
//! workloads while favoring datasets exhibiting skew or varying query
//! load." This module is that tool.
//!
//! Scores are in `[0, 1]` where higher means *more interesting for a
//! learned-system benchmark*: a dataset that is trivially uniform or
//! perfectly sequential scores low, while skew, clustering, and temporal
//! load variation score high.

use lsbench_stats::histogram::EquiWidthHistogram;
use lsbench_stats::Summary;
use serde::{Deserialize, Serialize};

/// Component scores plus the overall quality verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// 1 − normalized entropy of the key histogram: 0 for perfectly uniform
    /// data, approaching 1 for extreme concentration.
    pub skew_score: f64,
    /// Dispersion of bucket masses (coefficient of variation of the
    /// histogram, squashed into `[0, 1]`); rewards clustered / multi-modal
    /// shapes that uniform data lacks.
    pub clustering_score: f64,
    /// Temporal variation of the load (squashed CV of per-interval op
    /// counts); 0 for perfectly steady load.
    pub load_variation_score: f64,
    /// Weighted overall score in `[0, 1]`.
    pub overall: f64,
    /// Number of key samples scored.
    pub key_samples: usize,
    /// Number of load intervals scored (0 when no load series given).
    pub load_intervals: usize,
}

/// Number of histogram buckets used for scoring.
const SCORE_BUCKETS: usize = 64;

/// Squashes a non-negative value into `[0, 1)` via `x / (1 + x)`.
fn squash(x: f64) -> f64 {
    let x = x.max(0.0);
    x / (1.0 + x)
}

/// Scores the *data distribution* quality of a key sample.
///
/// Returns 0 for empty input.
pub fn score_dataset(keys: &[f64]) -> QualityReport {
    if keys.is_empty() {
        return QualityReport {
            skew_score: 0.0,
            clustering_score: 0.0,
            load_variation_score: 0.0,
            overall: 0.0,
            key_samples: 0,
            load_intervals: 0,
        };
    }
    let (skew_score, clustering_score) = distribution_scores(keys);
    let overall = 0.6 * skew_score + 0.4 * clustering_score;
    QualityReport {
        skew_score,
        clustering_score,
        load_variation_score: 0.0,
        overall,
        key_samples: keys.len(),
        load_intervals: 0,
    }
}

/// Scores a full workload: key distribution *plus* temporal load variation.
///
/// `interval_loads` are operation counts per fixed time interval (e.g. the
/// buckets of an [`lsbench_stats::IntervalCounts`]); a diurnal or bursty
/// load earns a high `load_variation_score`, a constant load earns zero.
pub fn score_workload(keys: &[f64], interval_loads: &[usize]) -> QualityReport {
    let mut report = score_dataset(keys);
    if interval_loads.len() >= 2 {
        let loads: Vec<f64> = interval_loads.iter().map(|&c| c as f64).collect();
        let s = Summary::of(&loads).expect("non-empty by check above");
        let cv = s.coefficient_of_variation().unwrap_or(0.0);
        // CV of 0 = steady; CV around 1 = strongly varying.
        report.load_variation_score = squash(2.0 * cv);
        report.load_intervals = interval_loads.len();
    }
    report.overall = 0.45 * report.skew_score
        + 0.25 * report.clustering_score
        + 0.30 * report.load_variation_score;
    report
}

/// Computes (skew, clustering) scores from a key sample.
fn distribution_scores(keys: &[f64]) -> (f64, f64) {
    let hist = match EquiWidthHistogram::from_data(keys, SCORE_BUCKETS) {
        Ok(h) => h,
        // Constant data: a single point mass is maximal skew.
        Err(_) => return (1.0, 0.0),
    };
    let max_entropy = (SCORE_BUCKETS as f64).log2();
    let entropy = hist.entropy_bits();
    let skew = (1.0 - entropy / max_entropy).clamp(0.0, 1.0);
    // Clustering: coefficient of variation of bucket probabilities. Uniform
    // data → all buckets equal → CV 0. A few dense clusters → high CV.
    let probs = hist.probabilities();
    let s = Summary::of(&probs).expect("fixed-size bucket vector");
    let cv = s.coefficient_of_variation().unwrap_or(0.0);
    // Normalize: point mass in 1 of 64 buckets gives CV = sqrt(63) ≈ 7.94.
    let clustering = squash(cv / 2.0);
    (skew, clustering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::{KeyDistribution, KeyGenerator};

    fn sample(dist: KeyDistribution, n: usize) -> Vec<f64> {
        KeyGenerator::new(dist, 0, 1_000_000, 77)
            .unwrap()
            .sample_f64(n)
    }

    #[test]
    fn uniform_scores_low() {
        let report = score_dataset(&sample(KeyDistribution::Uniform, 20_000));
        assert!(report.skew_score < 0.05, "skew = {}", report.skew_score);
        assert!(report.overall < 0.15, "overall = {}", report.overall);
    }

    #[test]
    fn zipf_scores_higher_than_uniform() {
        let uni = score_dataset(&sample(KeyDistribution::Uniform, 20_000));
        let zipf = score_dataset(&sample(KeyDistribution::Zipf { theta: 1.2 }, 20_000));
        assert!(
            zipf.overall > uni.overall + 0.1,
            "zipf {} vs uniform {}",
            zipf.overall,
            uni.overall
        );
    }

    #[test]
    fn clustered_beats_uniform_on_clustering() {
        let uni = score_dataset(&sample(KeyDistribution::Uniform, 20_000));
        let clustered = score_dataset(&sample(
            KeyDistribution::Clustered {
                clusters: 3,
                cluster_std_frac: 0.01,
            },
            20_000,
        ));
        assert!(clustered.clustering_score > uni.clustering_score + 0.2);
    }

    #[test]
    fn skew_ordering_monotone_in_theta() {
        let mild = score_dataset(&sample(KeyDistribution::Zipf { theta: 0.6 }, 20_000));
        let heavy = score_dataset(&sample(KeyDistribution::Zipf { theta: 1.5 }, 20_000));
        assert!(
            heavy.skew_score > mild.skew_score,
            "heavy {} vs mild {}",
            heavy.skew_score,
            mild.skew_score
        );
    }

    #[test]
    fn constant_data_is_max_skew() {
        let report = score_dataset(&[5.0; 100]);
        assert_eq!(report.skew_score, 1.0);
    }

    #[test]
    fn empty_input_scores_zero() {
        let report = score_dataset(&[]);
        assert_eq!(report.overall, 0.0);
        assert_eq!(report.key_samples, 0);
    }

    #[test]
    fn steady_load_scores_zero_variation() {
        let keys = sample(KeyDistribution::Uniform, 5000);
        let report = score_workload(&keys, &[100; 20]);
        assert_eq!(report.load_variation_score, 0.0);
        assert_eq!(report.load_intervals, 20);
    }

    #[test]
    fn bursty_load_scores_high_variation() {
        let keys = sample(KeyDistribution::Uniform, 5000);
        let loads: Vec<usize> = (0..20)
            .map(|i| if i % 5 == 0 { 1000 } else { 10 })
            .collect();
        let report = score_workload(&keys, &loads);
        assert!(
            report.load_variation_score > 0.5,
            "variation = {}",
            report.load_variation_score
        );
        // Overall must exceed the same keys with steady load.
        let steady = score_workload(&keys, &[100; 20]);
        assert!(report.overall > steady.overall);
    }

    #[test]
    fn single_interval_ignored() {
        let keys = sample(KeyDistribution::Uniform, 1000);
        let report = score_workload(&keys, &[500]);
        assert_eq!(report.load_intervals, 0);
        assert_eq!(report.load_variation_score, 0.0);
    }

    #[test]
    fn scores_bounded() {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 2.0 },
            KeyDistribution::Hotspot {
                hot_span: 0.01,
                hot_fraction: 0.99,
            },
        ] {
            let r = score_dataset(&sample(dist, 10_000));
            for v in [r.skew_score, r.clustering_score, r.overall] {
                assert!((0.0..=1.0).contains(&v), "score out of range: {v}");
            }
        }
    }
}
