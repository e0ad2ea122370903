//! The standard suite (§V-A "benchmark-as-a-service"): one call produces a
//! complete, comparable result for a SUT across standard scenarios — the
//! shape an official result submission would take.
//!
//! The scenarios load from the shipped `scenarios/s*.spec` files — the
//! same definitions `lsbench scenarios` lists by name — so the suite a
//! result submission ran is fully described by data, not code.
//!
//! ```sh
//! cargo run --release --example standard_suite
//! ```

use lsbench::core::obs::ObsConfig;
use lsbench::core::scenario::Scenario;
use lsbench::core::spec::ScenarioRegistry;
use lsbench::core::suite::{calibrate_sla, render_comparison, run_scenarios};
use lsbench::core::sut_registry::SutRegistry;

const SUITE_FILES: [&str; 5] = [
    "scenarios/s1-specialization.spec",
    "scenarios/s2-abrupt-shift.spec",
    "scenarios/s3-gradual-writes.spec",
    "scenarios/s4-scans.spec",
    "scenarios/s5-bursty-load.spec",
];

fn main() {
    let scenarios: Vec<Scenario> = SUITE_FILES
        .iter()
        .map(|f| ScenarioRegistry::load_file(f).unwrap_or_else(|e| panic!("{f}:{e}")))
        .collect();

    // One B+-tree baseline per scenario sets the SLA every SUT is held to.
    let scenarios = calibrate_sla(scenarios, 1).expect("baselines run");

    // SUTs come from the registry — the same names `lsbench list` prints.
    let registry = SutRegistry::default();
    let results = ["rmi", "btree"].map(|name| {
        let factory = registry.factory(name).expect("registered");
        let (result, _) =
            run_scenarios(factory, &scenarios, 1, ObsConfig::default()).expect("suite runs");
        result
    });

    println!("{}", render_comparison(&results));
    println!(
        "(columns: classic mean throughput; Fig.1b normalized area; Fig.1c \
         violation %\n and adjustment speed; Lesson-3 training seconds; failed \
         ops; §V-A generalization)"
    );
}
