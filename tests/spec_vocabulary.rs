//! The spec vocabulary pinned byte for byte in
//! `tests/spec_fixtures/vocabulary.txt`: the rendered text of a one-phase
//! scenario for every distribution shape and every mix form, and the bits
//! of every parameter the drift axis interpolates between two values of
//! each shape.
//!
//! `LSBENCH_BLESS=1` rewrites the moved lines (see
//! `tests/support/oracle.rs`); review every one.

use lsbench::core::scenario::Scenario;
use lsbench::core::spec::render_scenario;
use lsbench::core::sweep::drift::interpolate_distribution;
use lsbench::core::sweep::DriftAxis;
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;
use lsbench::workload::phases::{PhasedWorkload, WorkloadPhase};
use std::fmt::Write as _;

#[path = "support/oracle.rs"]
mod oracle;

/// One value of every shape, with parameters no default shares.
fn one_of_each() -> Vec<KeyDistribution> {
    vec![
        KeyDistribution::Uniform,
        KeyDistribution::Zipf { theta: 1.25 },
        KeyDistribution::Normal {
            center: 0.375,
            std_frac: 0.0625,
        },
        KeyDistribution::LogNormal {
            mu: -0.5,
            sigma: 1.1,
        },
        KeyDistribution::Hotspot {
            hot_span: 0.125,
            hot_fraction: 0.8,
        },
        KeyDistribution::Clustered {
            clusters: 7,
            cluster_std_frac: 0.02,
        },
        KeyDistribution::SequentialNoise { noise_frac: 0.05 },
    ]
}

/// Pairs of same-shape endpoints for the interpolation bits; the
/// `clusters` pair 2 → 3 puts a half on the rounding at t = 0.5.
fn endpoint_pairs() -> Vec<(KeyDistribution, KeyDistribution)> {
    use KeyDistribution as D;
    vec![
        (D::Uniform, D::Uniform),
        (D::Zipf { theta: 0.6 }, D::Zipf { theta: 1.3 }),
        (
            D::Normal {
                center: 0.2,
                std_frac: 0.05,
            },
            D::Normal {
                center: 0.9,
                std_frac: 0.15,
            },
        ),
        (
            D::LogNormal {
                mu: -0.3,
                sigma: 0.7,
            },
            D::LogNormal {
                mu: 0.4,
                sigma: 1.9,
            },
        ),
        (
            D::Hotspot {
                hot_span: 0.01,
                hot_fraction: 0.99,
            },
            D::Hotspot {
                hot_span: 0.3,
                hot_fraction: 0.6,
            },
        ),
        (
            D::Clustered {
                clusters: 2,
                cluster_std_frac: 0.01,
            },
            D::Clustered {
                clusters: 3,
                cluster_std_frac: 0.07,
            },
        ),
        (
            D::Clustered {
                clusters: 1,
                cluster_std_frac: 0.3,
            },
            D::Clustered {
                clusters: 16,
                cluster_std_frac: 0.001,
            },
        ),
        (
            D::SequentialNoise { noise_frac: 0.0 },
            D::SequentialNoise { noise_frac: 0.7 },
        ),
    ]
}

/// Every parameter of `d`: floats as their bits, integers as written.
fn param_bits(d: &KeyDistribution) -> String {
    use KeyDistribution as D;
    let bits = |k: &str, v: f64| format!(" {k}={:016x}", v.to_bits());
    match *d {
        D::Uniform => String::new(),
        D::Zipf { theta } => bits("theta", theta),
        D::Normal { center, std_frac } => bits("center", center) + &bits("std_frac", std_frac),
        D::LogNormal { mu, sigma } => bits("mu", mu) + &bits("sigma", sigma),
        D::Hotspot {
            hot_span,
            hot_fraction,
        } => bits("hot_span", hot_span) + &bits("hot_fraction", hot_fraction),
        D::Clustered {
            clusters,
            cluster_std_frac,
        } => format!(" clusters={clusters}") + &bits("cluster_std_frac", cluster_std_frac),
        D::SequentialNoise { noise_frac } => bits("noise_frac", noise_frac),
    }
}

fn one_phase(name: &str, dist: KeyDistribution, mix: OperationMix) -> String {
    let phase = WorkloadPhase::new(format!("{name}-phase"), dist, (0, 500_000), mix, 1_234);
    let workload = PhasedWorkload::new(vec![phase], vec![], 11).expect("one phase is a workload");
    let scenario = Scenario::builder(name)
        .dataset(KeyDistribution::Uniform, (0, 500_000), 1_000, 5)
        .workload(workload)
        .build()
        .expect("the scenario is valid");
    render_scenario(&scenario)
}

fn mixes() -> Vec<(&'static str, OperationMix)> {
    let custom = OperationMix {
        read: 0.7,
        insert: 0.2,
        update: 0.0,
        scan: 0.0,
        delete: 0.1,
        max_scan_len: 0,
    };
    let with_scans = OperationMix {
        read: 0.6,
        insert: 0.0,
        update: 0.1,
        scan: 0.3,
        delete: 0.0,
        max_scan_len: 50,
    };
    vec![
        ("ycsb-a", OperationMix::ycsb_a()),
        ("ycsb-b", OperationMix::ycsb_b()),
        ("ycsb-c", OperationMix::ycsb_c()),
        ("ycsb-d", OperationMix::ycsb_d()),
        ("ycsb-e", OperationMix::ycsb_e()),
        ("range-heavy", OperationMix::range_heavy()),
        ("custom", custom),
        ("custom-scans", with_scans),
    ]
}

fn mix_bits(m: &OperationMix) -> String {
    let mut out = String::new();
    for (k, v) in [
        ("read", m.read),
        ("insert", m.insert),
        ("update", m.update),
        ("scan", m.scan),
        ("delete", m.delete),
    ] {
        let _ = write!(out, " {k}={:016x}", v.to_bits());
    }
    let _ = write!(out, " max_scan_len={}", m.max_scan_len);
    out
}

#[test]
fn vocabulary_renders_and_interpolates_as_pinned() {
    let mut out = String::new();
    for dist in one_of_each() {
        let name = format!("shape-{}", dist.canonical_name());
        let _ = writeln!(out, "=== render {name}");
        out.push_str(&one_phase(&name, dist, OperationMix::ycsb_c()));
    }
    for (form, mix) in mixes() {
        let name = format!("mix-{form}");
        let _ = writeln!(out, "=== render {name}");
        out.push_str(&one_phase(&name, KeyDistribution::Uniform, mix));
    }
    let _ = writeln!(out, "=== interpolate_distribution");
    for (a, b) in endpoint_pairs() {
        for t in [0.25, 0.5, 0.75] {
            let mid = interpolate_distribution(&a, &b, t).expect("same shapes interpolate");
            let _ = writeln!(out, "{} t={t}:{}", mid.canonical_name(), param_bits(&mid));
        }
    }
    let _ = writeln!(out, "=== DriftAxis::at(0.5)");
    let mut base_mix = OperationMix::ycsb_e();
    base_mix.max_scan_len = 10;
    let mut target_mix = OperationMix::range_heavy();
    target_mix.max_scan_len = 11;
    let base = WorkloadPhase::new(
        "base".to_string(),
        KeyDistribution::Clustered {
            clusters: 2,
            cluster_std_frac: 0.01,
        },
        (0, 1_000),
        base_mix,
        101,
    );
    let target = WorkloadPhase::new(
        "target".to_string(),
        KeyDistribution::Clustered {
            clusters: 3,
            cluster_std_frac: 0.05,
        },
        (0, 2_001),
        target_mix,
        202,
    );
    let mid = DriftAxis::new(base, target).expect("same shapes").at(0.5);
    let _ = writeln!(
        out,
        "{}:{} key_range={:?} ops={} burst={:016x}",
        mid.name,
        param_bits(&mid.distribution),
        mid.key_range,
        mid.ops,
        mid.concurrency_burst.to_bits()
    );
    let _ = writeln!(out, "mix:{}", mix_bits(&mid.mix));
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/spec_fixtures/vocabulary.txt"
    );
    oracle::check_or_bless(fixture, &out);
}
