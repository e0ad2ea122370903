//! Every paper figure, pinned byte for byte: the text a figure prints
//! must equal its golden, `tests/figures/<name>.txt`.
//!
//! F1a–F1d, A1–A3 and Q1 run at full size here, a second or two each in a
//! debug build. QS, LC and the standard suite (SU) take minutes in debug,
//! so they are ignored here; CI runs the whole file in release with
//! `--include-ignored`.
//!
//! A deliberate change to what a figure prints regenerates the goldens
//! with
//! `cargo test --release -p lsbench-bench --test figures regenerate_figure_goldens -- --ignored`,
//! and every moved line is reviewed in the diff.

use lsbench_bench::figures::FIGURES;
use lsbench_core::obs::ObsConfig;
use lsbench_core::suite::{
    calibrate_sla, render_comparison, run_scenarios, standard_scenarios, SuiteConfig,
};
use lsbench_core::sut_registry::SutRegistry;
use std::path::PathBuf;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/figures/{name}.txt"))
}

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
            let want = std::fs::read_to_string(golden(name)).expect("golden exists");
            assert_eq!(printed(name), want, "figure {name} moved from its golden");
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

/// Regenerates every golden. Deliberately `#[ignore]`d, and skipped by CI:
/// run it only after a deliberate change, and review every moved line.
#[test]
#[ignore = "writes the goldens; run explicitly and review every moved line"]
fn regenerate_figure_goldens() {
    for name in FIGURES.iter().map(|(name, _)| *name).chain(["su"]) {
        std::fs::write(golden(name), printed(name)).expect("writes golden");
    }
}
