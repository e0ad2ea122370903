//! The concurrent engine on the canonical distribution-shift scenario:
//! one serial run vs. a four-way key-range-sharded run, plus an open-loop
//! overload showing why coordinated-omission-safe latency matters.
//!
//! ```sh
//! cargo run --release --example concurrent_shift
//! ```

use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::{ArrivalSpec, Scenario};
use lsbench::core::BenchError;
use lsbench::sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::dataset::Dataset;
use lsbench::workload::keygen::KeyDistribution;

const THREADS: usize = 4;

fn scenario() -> Scenario {
    Scenario::two_phase_shift(
        "concurrent-shift",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        50_000,
        10_000,
        42,
    )
    .expect("valid scenario")
}

fn rmi_factory(data: &Dataset) -> Result<BoxedKvSut, BenchError> {
    Ok(Box::new(
        RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05))
            .map_err(|e| BenchError::Sut(e.to_string()))?,
    ))
}

fn main() {
    let s = scenario();
    let data = s.dataset.build().expect("dataset builds");

    // Serial baseline: one SUT, one virtual clock. The Runner routes
    // concurrency 1 to the serial driver.
    let serial = Runner::from_factory(rmi_factory)
        .run(&s)
        .expect("runs")
        .record;
    println!(
        "serial      : {:>10.0} ops/s  ({} ops)",
        serial.mean_throughput(),
        serial.completed()
    );

    // Sharded: the Runner splits the key space at dataset quantiles,
    // builds one factory SUT per shard, drives each shard on its own
    // lane, and merges per-lane results into a record of the exact
    // serial shape.
    let sharded = Runner::from_factory(rmi_factory)
        .config(RunOptions::with_mode(ExecutionMode::Sharded {
            workers: THREADS,
        }))
        .run(&s)
        .expect("runs");
    println!(
        "{} shards    : {:>10.0} ops/s  ({} ops, {:.2}x)",
        sharded.engine.expect("engine stats").lanes,
        sharded.record.mean_throughput(),
        sharded.record.completed(),
        sharded.record.mean_throughput() / serial.mean_throughput()
    );

    // Open-loop overload on a shared B-tree: arrivals keep their own
    // schedule, so the growing queue is charged to the queued operations.
    // A driver that timed service only (coordinated omission) would report
    // flat latencies here and hide the overload entirely.
    let mut open = scenario();
    open.arrival = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate: 80_000.0 },
        modulation: LoadModulation::Constant,
        seed: 5,
    });
    let mut shared = BTreeSut::build(&data).expect("builds");
    let one_lane = RunOptions::with_mode(ExecutionMode::SharedLock { workers: 1 });
    let over = Runner::new(&mut shared)
        .config(one_lane)
        .run(&open)
        .expect("runs")
        .engine
        .expect("engine stats");
    let q = |p: f64| {
        over.latency
            .quantile(p)
            .map(|ns| ns as f64 / 1e9)
            .unwrap_or(f64::NAN)
    };
    println!(
        "open loop   : p50 {:.6}s  p99 {:.6}s  max-bucket {:.6}s (virtual, from intended start)",
        q(0.50),
        q(0.99),
        over.latency.max() as f64 / 1e9
    );
    println!(
        "\n(latency = completion - intended arrival; queueing delay under overload\n\
         is visible instead of being silently coordinated away)"
    );

    // Massive open-loop multiplexing: the event-heap scheduler runs
    // 100,000 simulated clients on THREADS worker threads — per-client
    // virtual clocks, O(clients) memory, records bit-identical at any
    // worker count.
    let swarm = Runner::from_factory(rmi_factory)
        .config(RunOptions::with_mode(ExecutionMode::OpenLoop {
            clients: 100_000,
            workers: THREADS,
        }))
        .run(&open)
        .expect("runs");
    let stats = swarm.engine.expect("engine stats");
    let qn = |p: f64| {
        stats
            .latency
            .quantile(p)
            .map(|ns| ns as f64 / 1e9)
            .unwrap_or(f64::NAN)
    };
    println!(
        "100k clients: p50 {:.6}s  p99 {:.6}s on {} workers ({} ops)",
        qn(0.50),
        qn(0.99),
        stats.threads,
        swarm.record.completed()
    );
}
