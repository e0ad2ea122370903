//! **M1 (cont.) — microbenches**: wall-clock cost of the metric computations
//! `perf/` does not time — KS, MMD and box plots — to show the framework's
//! overhead is negligible relative to the systems it measures. The key
//! generators, the histogram record and the phased stream are timed by
//! `perf/` (`workload.keygen_ns_per_key.*`, `stats.histogram_record_ns`,
//! `workload.opgen_ns_per_op`).

use lsbench_bench::fastest_of;
use lsbench_stats::descriptive::BoxPlot;
use lsbench_stats::ks::ks_statistic;
use lsbench_stats::mmd::mmd_rbf;
use lsbench_workload::keygen::{KeyDistribution, KeyGenerator};
use std::hint::black_box;

fn main() {
    let mut g =
        KeyGenerator::new(KeyDistribution::Uniform, 0, 1_000_000, 1).expect("valid generator");
    let a = g.sample_f64(4096);
    let b = g.sample_f64(4096);
    let (small_a, small_b) = (&a[..256], &b[..256]);

    let rows = [
        (
            "ks_4096",
            fastest_of(|| ks_statistic(black_box(&a), black_box(&b)).expect("valid input")),
        ),
        (
            "mmd_256",
            fastest_of(|| {
                mmd_rbf(black_box(small_a), black_box(small_b), Some(1000.0)).expect("valid input")
            }),
        ),
        (
            "boxplot_4096",
            fastest_of(|| BoxPlot::of(black_box(&a)).expect("valid input")),
        ),
    ];
    let mut table = String::from("metric        fastest µs/call\n");
    for (name, t) in rows {
        table.push_str(&format!("{name:<12}  {:>15.3}\n", t.as_secs_f64() * 1e6));
    }
    print!("{table}");
}
