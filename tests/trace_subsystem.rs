//! Acceptance tests for the trace subsystem: golden-fixture round-trips
//! (`import ∘ export = id`), positioned rejection of malformed traces,
//! and the generate → record → fit loop recovering phase structure,
//! operation mix, and distribution families — with the fitted spec
//! satisfying `parse ∘ render = id` and preserving SUT rankings.

use lsbench::core::driver::{run_kv_trace, run_kv_trace_open_loop};
use lsbench::core::scenario::Scenario;
use lsbench::core::spec::{parse_scenario, render_scenario, ScenarioRegistry};
use lsbench::core::suite::SuiteConfig;
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::trace::{export_csv, export_jsonl, fit_scenario, import_str, TraceFormat};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;
use lsbench::workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
use lsbench::workload::{Dataset, Trace};

const GOLDEN_CSV: &str = include_str!("trace_fixtures/golden.csv");
const GOLDEN_JSONL: &str = include_str!("trace_fixtures/golden.jsonl");
const S2_10K: &str = include_str!("trace_fixtures/s2_10k.csv");

// ---------------------------------------------------------------------------
// Golden round-trips: the canonical exporters reproduce the fixture
// byte-for-byte, and the two formats agree on the parsed trace.
// ---------------------------------------------------------------------------

#[test]
fn golden_csv_round_trips() {
    let imported = import_str(GOLDEN_CSV, TraceFormat::Csv).expect("golden csv parses");
    assert!(imported.had_timestamps);
    assert_eq!(imported.trace.len(), 5);
    assert_eq!(
        export_csv(&imported.trace),
        GOLDEN_CSV,
        "import ∘ export = id"
    );
}

#[test]
fn golden_jsonl_round_trips() {
    let imported = import_str(GOLDEN_JSONL, TraceFormat::Jsonl).expect("golden jsonl parses");
    assert!(imported.had_timestamps);
    assert_eq!(imported.trace.len(), 5);
    assert_eq!(
        export_jsonl(&imported.trace),
        GOLDEN_JSONL,
        "import ∘ export = id"
    );
}

#[test]
fn golden_formats_agree() {
    let csv = import_str(GOLDEN_CSV, TraceFormat::Csv).expect("csv parses");
    let jsonl = import_str(GOLDEN_JSONL, TraceFormat::Jsonl).expect("jsonl parses");
    assert_eq!(csv.trace.entries(), jsonl.trace.entries());
    // Cross-format conversion is also canonical.
    assert_eq!(export_jsonl(&csv.trace), GOLDEN_JSONL);
    assert_eq!(export_csv(&jsonl.trace), GOLDEN_CSV);
}

#[test]
fn speed_scaling_divides_arrivals() {
    let mut imported = import_str(GOLDEN_CSV, TraceFormat::Csv).expect("golden csv parses");
    let original: Vec<f64> = imported.trace.entries().iter().map(|e| e.arrival).collect();
    imported.scale_speed(2.0).expect("positive speed");
    for (entry, before) in imported.trace.entries().iter().zip(&original) {
        assert_eq!(entry.arrival, before / 2.0);
    }
    assert!(imported.scale_speed(0.0).is_err(), "zero speed rejected");
    assert!(
        imported.scale_speed(-1.0).is_err(),
        "negative speed rejected"
    );
}

// ---------------------------------------------------------------------------
// Malformed traces: exact line/field positioning, mirroring the spec
// parser's bad-fixture table.
// ---------------------------------------------------------------------------

/// `(fixture, text, line, field, reason substring)`.
const BAD_FIXTURES: &[(&str, &str, usize, &str, &str)] = &[
    (
        "bad_op",
        include_str!("trace_fixtures/bad/bad_op.csv"),
        3,
        "op",
        "unknown operation 'frobnicate'",
    ),
    (
        "nonmonotonic_ts",
        include_str!("trace_fixtures/bad/nonmonotonic_ts.csv"),
        3,
        "ts",
        "non-decreasing",
    ),
    (
        "missing_key",
        include_str!("trace_fixtures/bad/missing_key.csv"),
        1,
        "key",
        "missing required column 'key'",
    ),
    (
        "truncated",
        include_str!("trace_fixtures/bad/truncated.csv"),
        3,
        "ts",
        "line truncated",
    ),
];

#[test]
fn malformed_traces_are_rejected_with_positions() {
    for (fixture, text, line, field, reason) in BAD_FIXTURES {
        let err = import_str(text, TraceFormat::Csv)
            .map(|t| t.trace.len())
            .expect_err(&format!("{fixture} must not parse"));
        assert_eq!(err.line, *line, "{fixture}: wrong line");
        assert_eq!(err.field, *field, "{fixture}: wrong field");
        assert!(
            err.reason.contains(reason),
            "{fixture}: reason {:?} lacks {reason:?}",
            err.reason
        );
        // Display carries the position for `lsbench trace import` output.
        assert!(err.to_string().starts_with(&format!("line {line}: ")));
    }
}

#[test]
fn jsonl_rejections_are_positioned() {
    let err = import_str("{\"op\":\"read\"}\n", TraceFormat::Jsonl).unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (1, "key"));
    let err = import_str(
        "{\"op\":\"read\",\"key\":1}\n{\"op\":\"read\",\"key\":2,\"bogus\":1}\n",
        TraceFormat::Jsonl,
    )
    .unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (2, "bogus"));
    let err = import_str("not json\n", TraceFormat::Jsonl).unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (1, "json"));
    // A scan length past `u32::MAX` is refused, as the CSV reader does,
    // not truncated to its low bits.
    let err = import_str(
        "{\"op\":\"scan\",\"key\":1,\"len\":4294967297}\n",
        TraceFormat::Jsonl,
    )
    .unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (1, "len"));
}

// ---------------------------------------------------------------------------
// Round-trip acceptance: generate → record → fit recovers the ground
// truth when it lies in the fit vocabulary.
// ---------------------------------------------------------------------------

/// A two-phase ground truth inside the fit vocabulary: a tight hotspot
/// phase, then a uniform phase over a disjoint upper range.
fn fit_ground_truth() -> Scenario {
    let mix = OperationMix::ycsb_c();
    let phases = vec![
        WorkloadPhase::new(
            "hot",
            KeyDistribution::Hotspot {
                hot_span: 0.05,
                hot_fraction: 0.9,
            },
            (0, 1_000_000),
            mix.clone(),
            6_000,
        ),
        WorkloadPhase::new(
            "flat",
            KeyDistribution::Uniform,
            (5_000_000, 6_000_000),
            mix,
            6_000,
        ),
    ];
    let workload =
        PhasedWorkload::new(phases, vec![TransitionKind::Abrupt], 7).expect("valid workload");
    Scenario::builder("fit-ground-truth")
        .dataset(KeyDistribution::Uniform, (0, 6_000_000), 10_000, 11)
        .workload(workload)
        .build()
        .expect("valid scenario")
}

#[test]
fn fit_recovers_phases_mix_and_distribution_families() {
    let scenario = fit_ground_truth();
    let trace = Trace::record(&scenario.workload).expect("record");
    let (fitted, report) = fit_scenario(&trace, "fitted", 99).expect("fit");

    assert_eq!(report.phases.len(), 2, "both phases recovered");
    assert!(
        matches!(
            report.phases[0].distribution,
            KeyDistribution::Hotspot { .. }
        ),
        "phase 0 is a hotspot, got {:?}",
        report.phases[0].distribution
    );
    assert!(
        matches!(report.phases[1].distribution, KeyDistribution::Uniform),
        "phase 1 is uniform, got {:?}",
        report.phases[1].distribution
    );
    for phase in &report.phases {
        assert!(
            (phase.mix.read - 1.0).abs() < 1e-9,
            "read-only mix recovered"
        );
    }
    // Ops are conserved and split near-evenly between the phases.
    let total: u64 = report.phases.iter().map(|p| p.ops).sum();
    assert_eq!(total, trace.len() as u64);
    assert!(report.phases[0].ops.abs_diff(report.phases[1].ops) <= total / 10);
    assert_eq!(fitted.workload.phases().len(), 2);
}

#[test]
fn fitted_spec_satisfies_parse_render_id() {
    let scenario = fit_ground_truth();
    let trace = Trace::record(&scenario.workload).expect("record");
    let (fitted, _) = fit_scenario(&trace, "fitted", 99).expect("fit");
    let rendered = render_scenario(&fitted);
    let reparsed = parse_scenario(&rendered).expect("fitted spec parses");
    assert_eq!(
        render_scenario(&reparsed),
        rendered,
        "parse ∘ render = id on the fitted spec"
    );
}

// ---------------------------------------------------------------------------
// S2 acceptance: fitting a trace recorded from S2-abrupt-shift recovers a
// multi-phase spec whose runs preserve the SUT ranking of the original.
// ---------------------------------------------------------------------------

fn mean_throughput(scenario: &Scenario, sut: &str) -> f64 {
    let registry = SutRegistry::default();
    let data = Dataset::generate(
        scenario.dataset.distribution.clone(),
        scenario.dataset.key_range.0,
        scenario.dataset.key_range.1,
        scenario.dataset.size,
        scenario.dataset.seed,
    )
    .expect("dataset");
    let mut sut = registry.build(sut, &data).expect("known SUT");
    let trace = Trace::record(&scenario.workload).expect("record");
    let record = run_kv_trace(sut.as_mut(), &trace).expect("replay");
    record.mean_throughput()
}

#[test]
fn s2_fit_recovers_multiple_phases_and_preserves_ranking() {
    let registry = ScenarioRegistry::with_config(SuiteConfig {
        dataset_size: 4_000,
        ops_per_phase: 4_000,
        ..SuiteConfig::default()
    });
    let s2 = registry.get("S2-abrupt-shift").expect("registered");
    let trace = Trace::record(&s2.workload).expect("record");
    let (fitted, report) = fit_scenario(&trace, "fitted-s2", 4242).expect("fit");
    assert!(
        report.phases.len() >= 2,
        "abrupt shift must segment into at least two phases, got {}",
        report.phases.len()
    );

    let orig_rmi = mean_throughput(&s2, "rmi");
    let orig_btree = mean_throughput(&s2, "btree");
    let fit_rmi = mean_throughput(&fitted, "rmi");
    let fit_btree = mean_throughput(&fitted, "btree");
    assert_eq!(
        orig_rmi > orig_btree,
        fit_rmi > fit_btree,
        "fitted scenario must preserve the SUT ranking \
         (orig rmi {orig_rmi:.0} vs btree {orig_btree:.0}; \
         fit rmi {fit_rmi:.0} vs btree {fit_btree:.0})"
    );
}

// ---------------------------------------------------------------------------
// Replay determinism: the open-loop replay is a logically serial event
// simulation, so repeated replays — any client count — are bit-identical,
// and the checked-in 10k fixture replays deterministically.
// ---------------------------------------------------------------------------

#[test]
fn ten_k_fixture_replays_bit_identically() {
    let imported = import_str(S2_10K, TraceFormat::Csv).expect("fixture parses");
    assert_eq!(imported.trace.len(), 10_000);
    assert!(imported.had_timestamps);
    let data = Dataset::from_keys(
        imported
            .trace
            .entries()
            .iter()
            .map(|e| e.op.key())
            .collect(),
    );
    let registry = SutRegistry::default();

    let mut sut = registry.build("btree", &data).expect("btree");
    let baseline = run_kv_trace_open_loop(sut.as_mut(), &imported.trace, 1_000).expect("replay");
    assert_eq!(baseline.completed(), 10_000);
    for _ in 0..2 {
        let mut sut = registry.build("btree", &data).expect("btree");
        let again = run_kv_trace_open_loop(sut.as_mut(), &imported.trace, 1_000).expect("replay");
        assert_eq!(again, baseline, "open-loop replay must be bit-identical");
    }
}
