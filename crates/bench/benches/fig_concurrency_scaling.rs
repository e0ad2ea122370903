//! **Concurrency scaling**: the concurrent engine's throughput as lanes
//! and worker threads grow.
//!
//! Two readings per point, emitted as one small table:
//!
//! * the merged *virtual* mean throughput (does the modeled parallelism
//!   scale as N lanes should?), and
//! * the fastest wall-clock time of the whole sharded run, dataset build
//!   and shard loading included (does the physical fan-out pay for
//!   itself?).

use lsbench_bench::{emit, fastest_of};
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

fn main() {
    let registry = SutRegistry::default();
    let s = scenario();
    let mut table = String::from("threads  virtual-ops/s  speedup  wall-ms\n");
    let mut base = 0.0f64;
    for n in CONCURRENCY {
        let tput = run_sharded(&registry, &s, n).mean_throughput();
        if n == 1 {
            base = tput;
        }
        let wall = fastest_of(|| run_sharded(&registry, &s, n));
        table.push_str(&format!(
            "{n:>7}  {tput:>13.0}  {:>7.2}  {:>7.1}\n",
            tput / base,
            wall.as_secs_f64() * 1e3
        ));
    }
    emit("fig_concurrency_scaling.txt", &table);
}
