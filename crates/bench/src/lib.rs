//! The paper's figures and the benches that print them.
//!
//! [`figures::FIGURES`] holds every deterministic figure; the `figures`
//! bench prints them all. Most KV figures run over a log-normal dataset
//! whose learned-index fit *varies across the key space* — dense regions
//! model well, the sparse tail poorly — so a change of access
//! distribution moves per-query cost, as in the paper's sketches. The two
//! benches that time wall clock (`micro_components`,
//! `fig_concurrency_scaling`) do it through [`fastest_of`].

#![warn(missing_docs)]

pub mod figures;

use lsbench_core::report::write_artifact;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples [`fastest_of`] takes of a routine.
const SAMPLES: u32 = 10;

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
}
