//! Every paper figure, pinned byte for byte: the text a figure prints
//! must equal its golden, `tests/figures/<name>.txt`.
//!
//! F1a–F1d, A1–A3 and Q1 run at full size here, a second or two each in a
//! debug build. QS, LC and the standard suite (SU) take minutes in debug,
//! so they are ignored here; CI runs the whole file in release with
//! `--include-ignored`.
//!
//! After a deliberate change to what a figure prints, `LSBENCH_BLESS=1`
//! rewrites the moved lines of its golden (see `tests/support/oracle.rs` at
//! the workspace root); review every one in the diff.

use lsbench_bench::figures::FIGURES;
use lsbench_core::obs::ObsConfig;
use lsbench_core::suite::{
    calibrate_sla, render_comparison, run_scenarios, standard_scenarios, SuiteConfig,
};
use lsbench_core::sut_registry::SutRegistry;

#[path = "../../../tests/support/oracle.rs"]
mod oracle;

/// What `lsbench suite` prints on stdout at its defaults: every registered
/// SUT through the standard scenarios, each held to the SLA its B+-tree
/// baseline calibrates.
fn suite() -> String {
    let scenarios = standard_scenarios(&SuiteConfig::default()).expect("suite scenarios build");
    let scenarios = calibrate_sla(scenarios, 1).expect("baselines run");
    let registry = SutRegistry::default();
    let results: Vec<_> = registry
        .names()
        .iter()
        .map(|name| {
            let factory = registry.factory(name).expect("registered");
            run_scenarios(factory, &scenarios, 1, ObsConfig::default())
                .expect("suite runs")
                .0
        })
        .collect();
    format!("{}\n", render_comparison(&results))
}

fn printed(name: &str) -> String {
    if name == "su" {
        return suite();
    }
    let (_, figure) = FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a figure of that name");
    figure().text
}

macro_rules! pinned {
    ($($(#[$attr:meta])* $name:ident),* $(,)?) => {$(
        #[test]
        $(#[$attr])*
        fn $name() {
            let name = stringify!($name);
            let golden = format!("{}/tests/figures/{name}.txt", env!("CARGO_MANIFEST_DIR"));
            oracle::check_or_bless(golden, &printed(name));
        }
    )*};
}

pinned!(
    f1a,
    f1b,
    f1c,
    f1d,
    a1,
    a2,
    a3,
    q1,
    #[ignore = "minutes in debug: full size in release, CI"]
    qs,
    #[ignore = "minutes in debug: full size in release, CI"]
    lc,
    #[ignore = "minutes in debug: full size in release, CI"]
    su,
);
