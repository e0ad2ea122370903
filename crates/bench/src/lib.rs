//! Shared setup for the figure-regeneration benches.
//!
//! Every figure bench (see `benches/`) uses the same substrate: a skewed
//! (log-normal) dataset whose learned-index fit quality *varies across the
//! key space* — dense regions model well, sparse tail regions poorly — so
//! access-distribution changes genuinely move per-query cost, as in the
//! paper's sketches. The two benches that time wall clock
//! (`micro_components`, `fig_concurrency_scaling`) do it through
//! [`fastest_of`].

#![warn(missing_docs)]

use lsbench_core::report::write_artifact;
use lsbench_core::scenario::DatasetSpec;
use lsbench_workload::dataset::Dataset;
use lsbench_workload::keygen::KeyDistribution;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples [`fastest_of`] takes of a routine.
const SAMPLES: u32 = 10;

/// The shared key range of all figure scenarios.
pub const KEY_RANGE: (u64, u64) = (0, 10_000_000);

/// Standard dataset: log-normal keys (dense head, sparse tail).
pub fn standard_dataset(size: usize, seed: u64) -> Dataset {
    DatasetSpec {
        distribution: KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        key_range: KEY_RANGE,
        size,
        seed,
    }
    .build()
    .expect("dataset generation cannot fail for valid spec")
}

/// The distribution ladder used by the specialization figure: baseline
/// first, increasingly different distributions after.
pub fn distribution_ladder() -> Vec<KeyDistribution> {
    vec![
        KeyDistribution::Uniform,
        KeyDistribution::Zipf { theta: 0.8 },
        KeyDistribution::Zipf { theta: 1.3 },
        KeyDistribution::Normal {
            center: 0.5,
            std_frac: 0.08,
        },
        KeyDistribution::Hotspot {
            hot_span: 0.05,
            hot_fraction: 0.95,
        },
        KeyDistribution::Clustered {
            clusters: 4,
            cluster_std_frac: 0.01,
        },
    ]
}

/// Prints a figure to stdout and also writes it under
/// `target/lsbench-results/`.
pub fn emit(name: &str, contents: &str) {
    println!("{contents}");
    match write_artifact(name, contents) {
        Ok(path) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not save {name}: {e}"),
    }
}

/// Wall time of one call of `routine`: the fastest of ten samples, the
/// rule `perf/` reports wall times by. One untimed call first sets how
/// many calls a sample times — enough to fill about a millisecond — so the
/// timer's resolution stays small beside what it times.
pub fn fastest_of<O>(mut routine: impl FnMut() -> O) -> Duration {
    let start = Instant::now();
    black_box(routine());
    let once = start.elapsed().as_nanos().max(1);
    let calls = (1_000_000 / once).clamp(1, 1_000_000) as u32;
    (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            start.elapsed() / calls
        })
        .min()
        .expect("SAMPLES is not zero")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_of_times_every_sample_and_keeps_the_fastest() {
        // The untimed first call is slow, so every sample is one call. The
        // fourth call is quick; every other one sleeps.
        let slow = Duration::from_millis(10);
        let mut calls = 0u32;
        let fastest = fastest_of(|| {
            calls += 1;
            if calls != 4 {
                std::thread::sleep(slow);
            }
        });
        assert_eq!(calls, SAMPLES + 1);
        // A sleeping call takes at least `slow`, and the mean of the
        // samples is 0.9 of it: only the quick sample reads below half.
        assert!(fastest < slow / 2, "{fastest:?}");
    }

    #[test]
    fn dataset_is_skewed() {
        let d = standard_dataset(10_000, 1);
        assert_eq!(d.len(), 10_000);
        // Log-normal: more than half the keys in the bottom 20% of the range.
        let low = d.keys().iter().filter(|&&k| k < KEY_RANGE.1 / 5).count();
        assert!(low > 5_000, "low = {low}");
    }

    #[test]
    fn ladder_is_valid() {
        for d in distribution_ladder() {
            d.validate().unwrap();
        }
    }
}
