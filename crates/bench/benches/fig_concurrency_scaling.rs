//! **Concurrency scaling**: the concurrent engine's throughput as lanes
//! and worker threads grow.
//!
//! Two readings per point:
//!
//! * criterion's wall-clock time for the whole sharded run, dataset build
//!   and shard loading included (does the physical fan-out pay for
//!   itself?), and
//! * the merged *virtual* mean throughput, emitted as a small table (does
//!   the modeled parallelism scale as N lanes should?).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsbench_bench::emit;
use lsbench_core::record::RunRecord;
use lsbench_core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench_core::scenario::Scenario;
use lsbench_core::sut_registry::SutRegistry;
use lsbench_workload::keygen::KeyDistribution;

const CONCURRENCY: [usize; 4] = [1, 2, 4, 8];

fn scenario() -> Scenario {
    Scenario::two_phase_shift(
        "concurrency-scaling",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Zipf { theta: 1.1 },
        50_000,
        5_000,
        21,
    )
    .expect("valid scenario")
}

/// One key-range-sharded B+-tree run on `n` lanes and threads: the runner
/// builds the dataset, splits it and loads one shard SUT per lane.
fn run_sharded(registry: &SutRegistry, s: &Scenario, n: usize) -> RunRecord {
    let factory = registry.factory("btree").expect("registered");
    let opts = RunOptions::with_mode(ExecutionMode::Sharded { workers: n });
    let outcome = Runner::from_factory(factory).config(opts).run(s);
    outcome.expect("run").record
}

fn bench_scaling(c: &mut Criterion) {
    let registry = SutRegistry::default();
    let s = scenario();
    let mut group = c.benchmark_group("sharded_btree_scaling");
    group.sample_size(10);
    let mut table = String::from("threads  virtual-ops/s  speedup\n");
    let mut base = 0.0f64;
    for n in CONCURRENCY {
        let tput = run_sharded(&registry, &s, n).mean_throughput();
        if n == 1 {
            base = tput;
        }
        table.push_str(&format!("{n:>7}  {tput:>13.0}  {:>7.2}\n", tput / base));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| run_sharded(&registry, &s, n))
        });
    }
    group.finish();
    emit("fig_concurrency_scaling.txt", &table);
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
