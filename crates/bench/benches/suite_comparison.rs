//! **Suite — the "official result"**: every registered KV SUT through the
//! standard seven-scenario suite, with per-scenario SLA calibration from
//! the B+-tree baseline and the S1 hold-out pass.
//!
//! This is the §V-A "benchmark-as-a-service" artifact: one table that a
//! result submission would consist of. The SUT roster comes from
//! [`SutRegistry`] — the same names `lsbench list` prints — so this bench
//! stays in lockstep with the CLI.

use lsbench_bench::emit;
use lsbench_core::obs::ObsConfig;
use lsbench_core::report::{to_json, write_artifact};
use lsbench_core::suite::{
    calibrate_sla, render_comparison, run_scenarios, standard_scenarios, SuiteConfig, SuiteResult,
};
use lsbench_core::sut_registry::SutRegistry;

fn main() {
    let cfg = SuiteConfig {
        dataset_size: 100_000,
        ops_per_phase: 10_000,
        seed: 0x5EED,
        work_units_per_second: 1_000_000.0,
        threads: 1,
    };
    let registry = SutRegistry::default();
    println!(
        "=== Standard suite: 7 scenarios × {} SUTs ===\n",
        registry.names().len()
    );
    let scenarios = standard_scenarios(&cfg).expect("suite scenarios build");
    let scenarios = calibrate_sla(scenarios, cfg.threads).expect("baselines run");

    let mut results: Vec<SuiteResult> = Vec::new();
    for name in registry.names() {
        print!("running {name} ... ");
        let factory = registry.factory(name).expect("registered");
        let (result, _) = run_scenarios(factory, &scenarios, cfg.threads, ObsConfig::default())
            .expect("suite run succeeds");
        println!("done");
        results.push(result);
    }
    println!();
    emit("suite_comparison.txt", &render_comparison(&results));
    let _ = write_artifact(
        "suite_comparison.json",
        &to_json(&results).expect("serializable"),
    );
}
