//! Timing helpers and the metric record every output format shares.

use crate::Res;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One reported metric: `samples` repetitions with their median, extremes
/// and quartiles. `value` is the figure reported: the median, unless the
/// metric is a wall time under the fastest-sample rule (`bench::WallSum`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Every sample, in the order measured.
    pub values: Vec<f64>,
}

impl Metric {
    /// A metric derived from repeated measurements.
    pub fn from_samples(name: impl Into<String>, unit: &str, samples: &[f64]) -> Metric {
        let [min, q1, median, q3, max] = summary(samples);
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            value: median,
            samples: samples.len(),
            min,
            q1,
            median,
            q3,
            max,
            values: samples.to_vec(),
        }
    }

    /// A metric measured or counted once.
    pub fn single(name: impl Into<String>, unit: &str, value: f64) -> Metric {
        Metric::from_samples(name, unit, &[value])
    }
}

/// `[min, q1, median, q3, max]` by linear interpolation; zeros for no
/// samples.
pub fn summary(samples: &[f64]) -> [f64; 5] {
    if samples.is_empty() {
        return [0.0; 5];
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

pub fn median(samples: &[f64]) -> f64 {
    summary(samples)[2]
}

/// Repetition policy of one timed segment: at least `min_reps`, then more
/// until `budget` is spent, never beyond `max_reps`.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub budget: Duration,
    pub min_reps: usize,
    pub max_reps: usize,
}

impl Reps {
    /// Runs `rep` under the policy and collects what it returns (usually
    /// the seconds of the part it timed). The budget is charged the whole
    /// call, untimed set-up included.
    pub fn run<T>(&self, mut rep: impl FnMut() -> Res<T>) -> Res<Vec<T>> {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min_reps
            || (samples.len() < self.max_reps && started.elapsed() < self.budget)
        {
            samples.push(rep()?);
        }
        Ok(samples)
    }
}

/// Times `f` once, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_interpolates() {
        assert_eq!(summary(&[3.0, 1.0, 2.0]), [1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(summary(&[4.0]), [4.0; 5]);
        assert_eq!(summary(&[]), [0.0; 5]);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn reps_honour_minimum_and_maximum() {
        let policy = Reps {
            budget: Duration::ZERO,
            min_reps: 3,
            max_reps: 5,
        };
        assert_eq!(policy.run(|| Ok(1.0)).unwrap().len(), 3);
        let policy = Reps {
            budget: Duration::from_secs(3600),
            ..policy
        };
        assert_eq!(policy.run(|| Ok(1.0)).unwrap().len(), 5);
    }
}
