//! The Fig. 1b analysis, frozen to the bit.
//!
//! `tests/record_digests.rs` pins what a run *records*; this file pins what
//! the adaptability metric *derives* from a record: every field of
//! [`AdaptabilityReport`] and [`paired_area_difference`] in both argument
//! orders, as `f64::to_bits`, in `tests/fixtures/analysis_digests_v1.json`.
//! The records come from real runs (serial, four shared lanes, two shards,
//! open loop; abrupt and gradual shifts; one faulted run) and from
//! hand-built edge cases a run never produces but an edited artifact can:
//! tied completion times, phases with too few ops or none, a phase that
//! never recovers, a single op, completions out of order or outside the
//! execution window. How the area is evaluated may change; its bits may not.
//!
//! Regenerate only deliberately, with
//! `cargo test --test analysis_digests regenerate_analysis_digests -- --ignored`,
//! and review which cells moved.

use lsbench::core::faults::{resolve_fault_plan, FaultStats};
use lsbench::core::metrics::adaptability::{paired_area_difference, AdaptabilityReport};
use lsbench::core::record::{OpRecord, RunRecord, TrainInfo};
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::{ArrivalSpec, Scenario};
use lsbench::core::suite::{s2_abrupt_shift, s3_gradual_writes, SuiteConfig};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::sut::sut::SutMetrics;
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use std::collections::BTreeMap;
use std::fmt::Write;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analysis_digests_v1.json")
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// FNV-1a over the bits of every coordinate: 257 points are too many to
/// read in a fixture, and one moved bit moves the digest.
fn curve_digest(curve: &[(f64, f64)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(t, v) in curve {
        for byte in t
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(v.to_bits().to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{} points {h:016x}", curve.len())
}

fn pin_report(cells: &mut BTreeMap<String, String>, key: &str, record: &RunRecord) {
    let report = match AdaptabilityReport::from_record(record) {
        Ok(report) => report,
        Err(e) => {
            cells.insert(format!("{key}/error"), e.to_string());
            return;
        }
    };
    cells.insert(format!("{key}/area_vs_ideal"), bits(report.area_vs_ideal));
    cells.insert(
        format!("{key}/normalized_area"),
        bits(report.normalized_area),
    );
    cells.insert(format!("{key}/curve"), curve_digest(&report.curve));
    let mut recovery = String::new();
    for &(phase, seconds) in &report.recovery_times {
        write!(recovery, "{phase}:{} ", bits(seconds)).expect("writes to a String");
    }
    cells.insert(format!("{key}/recovery_times"), recovery);
    let throughput: Vec<String> = report.phase_throughput.iter().map(|&x| bits(x)).collect();
    cells.insert(format!("{key}/phase_throughput"), throughput.join(" "));
}

fn pin_pair(cells: &mut BTreeMap<String, String>, key: &str, a: &RunRecord, b: &RunRecord) {
    let show = |r: lsbench::core::Result<f64>| match r {
        Ok(x) => bits(x),
        Err(e) => e.to_string(),
    };
    cells.insert(format!("pair/{key}/ab"), show(paired_area_difference(a, b)));
    cells.insert(format!("pair/{key}/ba"), show(paired_area_difference(b, a)));
}

/// S2 (abrupt), S3 (gradual: `in_transition` ops, two phases interleaved)
/// and S2 under `chaos-errors`, each with arrivals so it can run open-loop.
fn scenarios() -> Vec<Scenario> {
    let cfg = SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: 400,
        ..SuiteConfig::default()
    };
    let arrival = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate: 30_000.0 },
        modulation: LoadModulation::Constant,
        seed: 11,
    });
    let mut out = Vec::new();
    for (mut s, plan) in [
        (s2_abrupt_shift(&cfg).expect("S2 builds"), None),
        (s3_gradual_writes(&cfg).expect("S3 builds"), None),
        (
            s2_abrupt_shift(&cfg).expect("S2 builds"),
            Some("chaos-errors"),
        ),
    ] {
        s.arrival = arrival;
        if let Some(plan) = plan {
            s.name = format!("{}+{plan}", s.name);
            s.faults = Some(resolve_fault_plan(plan).expect("builtin plan"));
        }
        s.validate().expect("valid scenario");
        out.push(s);
    }
    out
}

fn run_cells(cells: &mut BTreeMap<String, String>) {
    let modes = [
        ("serial", ExecutionMode::Serial),
        ("shared4", ExecutionMode::SharedLock { workers: 4 }),
        ("sharded2", ExecutionMode::Sharded { workers: 2 }),
        (
            "open64",
            ExecutionMode::OpenLoop {
                clients: 64,
                workers: 1,
            },
        ),
    ];
    let registry = SutRegistry::default();
    for s in scenarios() {
        let mut records = Vec::new();
        for (mode_name, mode) in modes {
            for sut in ["btree", "rmi"] {
                let factory = registry.factory(sut).expect("known SUT");
                let opts = RunOptions {
                    threads: Some(1),
                    ..RunOptions::with_mode(mode)
                };
                let record = Runner::from_factory(factory)
                    .config(opts)
                    .run(&s)
                    .unwrap_or_else(|e| panic!("{} / {sut} / {mode_name}: {e}", s.name))
                    .record;
                let key = format!("{}/{mode_name}/{sut}", s.name);
                pin_report(cells, &format!("run/{key}"), &record);
                records.push((key, record));
            }
        }
        // Two SUTs in one mode, one SUT across modes, and a record with itself.
        let (base_key, base) = &records[0];
        for (key, record) in &records {
            pin_pair(cells, &format!("{base_key}|{key}"), base, record);
        }
        let [.., (ka, a), (kb, b)] = &records[..] else {
            unreachable!("eight records per scenario");
        };
        pin_pair(cells, &format!("{ka}|{kb}"), a, b);
    }
}

/// A record over `phases` phases from `(t_end, phase)` completions.
fn record(name: &str, phases: usize, window: (f64, f64), ops: &[(f64, u16)]) -> RunRecord {
    RunRecord {
        sut_name: name.to_string(),
        scenario_name: "hand-built".to_string(),
        phase_names: (0..phases).map(|p| format!("p{p}")).collect(),
        ops: ops
            .iter()
            .map(|&(t_end, phase)| OpRecord {
                t_end,
                latency: 0.001,
                phase,
                ok: true,
                in_transition: false,
            })
            .collect(),
        phase_change_times: (0..phases).map(|p| (p, window.0 + p as f64)).collect(),
        train: TrainInfo::default(),
        exec_start: window.0,
        exec_end: window.1,
        final_metrics: SutMetrics::default(),
        work_units_per_second: 1.0,
        faults: FaultStats::default(),
    }
}

/// `n` completions of `phase`, `step` seconds apart, the first at `from + step`.
fn stretch(from: f64, step: f64, n: usize, phase: u16) -> Vec<(f64, u16)> {
    (1..=n).map(|i| (from + step * i as f64, phase)).collect()
}

fn hand_built() -> Vec<RunRecord> {
    let mut out = Vec::new();

    // Completion times tied in runs of one to seven, at the window's two
    // ends too; a third of a second is not a dyadic rational, so the
    // plotted samples fall between, on and beside the ties.
    let mut ops = Vec::new();
    let mut t = 1.0;
    for i in 0..240usize {
        if i % (1 + i % 7) == 0 {
            t += 1.0 / 3.0;
        }
        ops.push((t, if i < 90 { 0 } else { 1 }));
    }
    let last = ops.last().expect("240 ops").0;
    ops.extend([(last, 1); 5]);
    ops.splice(0..0, [(1.0, 0); 4]);
    out.push(record("tied", 2, (1.0, last), &ops));

    // Phase 1 has three ops (no steady state), phase 2 one (no throughput),
    // phase 3 none at all, phase 4 is long enough for a full window.
    let mut ops = stretch(0.0, 0.01, 120, 0);
    ops.extend(stretch(1.2, 0.02, 3, 1));
    ops.extend(stretch(1.3, 0.02, 1, 2));
    ops.extend(stretch(1.4, 0.005, 200, 4));
    out.push(record("thin-phases", 5, (0.0, 2.5), &ops));

    // Phase 1 slows down for good: its second half is its fastest stretch
    // only on paper (ten slow ops, then a burst shorter than the window).
    let mut ops = stretch(0.0, 0.01, 80, 0);
    ops.extend(stretch(0.8, 0.5, 10, 1));
    ops.extend(stretch(5.8, 0.001, 12, 1));
    out.push(record("never-recovers", 2, (0.0, 6.0), &ops));

    // A phase whose ops all complete at one instant has no span at all.
    let mut ops = stretch(0.0, 0.01, 60, 0);
    ops.extend([(0.7, 1); 70]);
    out.push(record("zero-span-phase", 2, (0.0, 0.7), &ops));

    out.push(record("single-op", 1, (0.0, 1.0), &[(0.25, 0)]));
    out.push(record("single-op-at-end", 2, (2.0, 3.0), &[(3.0, 1)]));

    // Completions out of order (two lanes appended, not merged), with the
    // phases interleaved: the curve sorts, the phase statistics do not.
    let mut ops = stretch(0.0, 0.004, 150, 0);
    ops.extend(stretch(0.6, 0.002, 150, 1));
    ops.extend(stretch(0.001, 0.004, 150, 0));
    ops.extend(stretch(0.601, 0.002, 150, 1));
    out.push(record("out-of-order", 2, (0.0, 1.0), &ops));

    // Completions before the window opens are clamped to its start, and
    // the window closes before the last one.
    let mut ops = stretch(-0.5, 0.01, 100, 0);
    ops.extend(stretch(0.5, 0.003, 300, 1));
    out.push(record("outside-window", 2, (0.2, 1.1), &ops));

    // Op phases the record has no name for, a phase named twice in
    // `phase_change_times`, and one no `u16` can hold.
    let mut ops = stretch(0.0, 0.01, 100, 0);
    ops.extend(stretch(1.0, 0.004, 100, 7));
    ops.extend(stretch(1.4, 0.002, 100, 1));
    let mut r = record("stray-phases", 2, (0.0, 1.7), &ops);
    r.phase_change_times = vec![(0, 0.0), (7, 1.0), (1, 1.4), (7, 1.2), (70_000, 1.5)];
    out.push(r);

    // An execution window of no length is refused, whatever it holds.
    out.push(record("empty-window", 1, (1.0, 1.0), &[(1.0, 0), (1.0, 0)]));
    out
}

fn hand_built_cells(cells: &mut BTreeMap<String, String>) {
    let records = hand_built();
    for r in &records {
        pin_report(cells, &format!("hand/{}", r.sut_name), r);
    }
    // Nested, touching, disjoint and equal spans, in both orders.
    for (i, a) in records.iter().enumerate() {
        for b in &records[i..] {
            pin_pair(cells, &format!("{}|{}", a.sut_name, b.sut_name), a, b);
        }
    }
}

fn all_cells() -> BTreeMap<String, String> {
    let mut cells = BTreeMap::new();
    run_cells(&mut cells);
    hand_built_cells(&mut cells);
    cells
}

#[test]
fn analysis_matches_the_frozen_bits() {
    let text = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/analysis_digests_v1.json exists (see regenerate test)");
    let expected: BTreeMap<String, String> = serde_json::from_str(&text).expect("fixture parses");
    let actual = all_cells();
    let moved: Vec<&String> = actual
        .iter()
        .filter(|(k, v)| expected.get(*k) != Some(v))
        .map(|(k, _)| k)
        .chain(expected.keys().filter(|k| !actual.contains_key(*k)))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} cells left the oracle: {moved:#?}",
        moved.len(),
        actual.len()
    );
}

/// The fixture is worth something only if its cells differ where they
/// should and agree where they must.
#[test]
fn the_frozen_bits_obey_the_metric_s_laws() {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    let cells: BTreeMap<String, String> = serde_json::from_str(&text).expect("fixture parses");
    let mut pairs = 0;
    for (key, ab) in &cells {
        let Some(stem) = key.strip_suffix("/ab") else {
            continue;
        };
        let ba = &cells[&format!("{stem}/ba")];
        let (Ok(ab), Ok(ba)) = (u64::from_str_radix(ab, 16), u64::from_str_radix(ba, 16)) else {
            assert_eq!(ab, ba, "{stem}: an error is the same in both orders");
            continue;
        };
        let (ab, ba) = (f64::from_bits(ab), f64::from_bits(ba));
        assert_eq!(ab, -ba, "{stem}: exactly antisymmetric");
        let (a, b) = stem
            .strip_prefix("pair/")
            .and_then(|s| s.split_once('|'))
            .expect("pair key");
        if a == b {
            assert_eq!(ab, 0.0, "{stem}: a record against itself");
        }
        pairs += 1;
    }
    assert!(pairs >= 80, "only {pairs} pairs pinned");
    let distinct: std::collections::BTreeSet<&String> = cells
        .iter()
        .filter(|(k, _)| k.ends_with("/area_vs_ideal"))
        .map(|(_, v)| v)
        .collect();
    assert!(distinct.len() >= 20, "only {} areas", distinct.len());
}

/// Regenerates the fixture. Deliberately `#[ignore]`d: the bits are the
/// oracle, so a regeneration is a reviewed event, never a side effect.
#[test]
#[ignore = "writes the oracle fixture; run explicitly and review every moved cell"]
fn regenerate_analysis_digests() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("fixtures dir");
    let json = serde_json::to_string_pretty(&all_cells()).expect("serializes");
    std::fs::write(&path, json + "\n").expect("writes fixture");
}
