//! The execution oracle, frozen as digests.
//!
//! Every cell below runs one (scenario, SUT, execution mode, fault plan,
//! worker count) combination through the public entry points and pins an
//! FNV-1a digest of the serialized [`RunRecord`] (plus the engine
//! statistics and the hold-out pass where they exist) in
//! `tests/fixtures/record_digests_v1.json`. The fixture is the contract a
//! harness refactor must not bend: the virtual-clock record is a function
//! of the scenario and the SUT, never of which loop, lock granularity,
//! dispatch batch or thread count produced it.
//!
//! Regenerate only deliberately, with
//! `cargo test --test record_digests regenerate_record_digests -- --ignored`,
//! and review which cells moved.

use lsbench::core::driver::{run_kv_trace, run_kv_trace_open_loop, run_query_workload};
use lsbench::core::faults::{resolve_fault_plan, FaultPlan, FaultSpec, RetryPolicy};
use lsbench::core::obs::ObsConfig;
use lsbench::core::runner::{ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::{ArrivalSpec, OnlineTrainMode, Scenario};
use lsbench::core::spec::parse_scenario;
use lsbench::core::suite::{standard_scenarios, SuiteConfig};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::trace::{import_str, TraceFormat};
use lsbench::query::generator::JoinQueryGenerator;
use lsbench::query::table::{Catalog, Table};
use lsbench::sut::query_sut::{
    BanditQuerySut, LearnedCardinalitySut, QueryOp, TraditionalQuerySut,
};
use lsbench::sut::sut::SystemUnderTest;
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::trace::Trace;
use lsbench::workload::Dataset;
use serde_json::to_string;
use std::collections::BTreeMap;

const SUTS: [&str; 6] = ["btree", "rmi", "pgm", "alex", "spline", "hash"];

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/record_digests_v1.json")
}

/// FNV-1a over the value's JSON (`digest(to_string(&value))`).
fn digest(json: serde_json::Result<String>) -> String {
    let json = json.expect("serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A shipped `.spec` scenario over a shrunk dataset (the op stream, fault
/// plan and arrival process stay as written).
fn spec(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut s = parse_scenario(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    s.dataset.size = 1_000;
    s
}

/// The open-loop probe of ISSUE 12: a long idle gap before each arrival,
/// which is where `now + (t − now) ≠ t` shows.
fn arrival_probe(name: &str, rate: f64, seed: u64) -> Scenario {
    let mut s = Scenario::two_phase_shift(
        name,
        KeyDistribution::Uniform,
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        2_000,
        400,
        seed,
    )
    .expect("valid scenario");
    s.arrival = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate },
        modulation: LoadModulation::Constant,
        seed,
    });
    s
}

/// The size every suite-derived cell runs at.
fn reduced_suite() -> SuiteConfig {
    SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: 300,
        ..SuiteConfig::default()
    }
}

/// S3 and S7 at the reduced size: the two suite scenarios whose mixes
/// mutate the SUT.
fn write_bearing_bases() -> [Scenario; 2] {
    let cfg = reduced_suite();
    [
        lsbench::core::suite::s3_gradual_writes(&cfg).expect("S3 builds"),
        lsbench::core::suite::s7_ledger_growth(&cfg).expect("S7 builds"),
    ]
}

/// Unmodulated Poisson arrivals at `rate`, to run them open-loop.
fn poisson(rate: f64) -> Option<ArrivalSpec> {
    Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate },
        modulation: LoadModulation::Constant,
        seed: 11,
    })
}

/// The standard suite S1–S7 at reduced size (no op cap).
fn suite_scenarios() -> Vec<(Scenario, u64)> {
    let cfg = reduced_suite();
    let suite = standard_scenarios(&cfg).expect("standard suite builds");
    suite.into_iter().map(|s| (s, u64::MAX)).collect()
}

/// Shipped specs and the arrival probes, each with its op cap.
fn spec_scenarios() -> Vec<(Scenario, u64)> {
    let mut out = Vec::new();
    for file in ["chaos_errors.spec", "chaos_stall.spec", "chaos_crash.spec"] {
        // The cap keeps the crash (global op 3000), the stall window and
        // the slow phase inside the run, and exercises `max_ops` itself.
        out.push((spec(file), 3_200));
    }
    out.push((spec("flash_crowd.spec"), u64::MAX));
    out.push((arrival_probe("probe-idle", 50.0, 1), u64::MAX));
    out.push((arrival_probe("probe-queued", 200_000.0, 4), u64::MAX));
    out
}

fn modes(s: &Scenario) -> Vec<(&'static str, ExecutionMode)> {
    let mut out = vec![
        ("serial", ExecutionMode::Serial),
        ("shared4", ExecutionMode::SharedLock { workers: 4 }),
        ("sharded4", ExecutionMode::Sharded { workers: 4 }),
    ];
    if s.arrival.is_some() {
        out.push((
            "open1000x4",
            ExecutionMode::OpenLoop {
                clients: 1_000,
                workers: 4,
            },
        ));
        out.push((
            "open1x1",
            ExecutionMode::OpenLoop {
                clients: 1,
                workers: 1,
            },
        ));
    }
    out
}

/// Lanes over one shared SUT are documented thread-invariant for
/// read-only workloads; key-range shards always are.
fn thread_invariant(s: &Scenario, mode: ExecutionMode) -> bool {
    let read_only = s
        .workload
        .phases()
        .iter()
        .all(|p| p.mix.insert == 0.0 && p.mix.update == 0.0 && p.mix.delete == 0.0);
    match mode {
        ExecutionMode::Serial => false,
        ExecutionMode::Sharded { .. } => true,
        ExecutionMode::SharedLock { .. } => read_only,
        ExecutionMode::OpenLoop { clients, .. } => read_only && clients > 1,
    }
}

fn run(s: &Scenario, sut: &str, opts: RunOptions) -> RunOutcome {
    let registry = SutRegistry::default();
    let factory = registry.factory(sut).expect("known SUT");
    let outcome = Runner::from_factory(factory).config(opts).run(s);
    outcome.unwrap_or_else(|e| panic!("{} / {sut} / {:?}: {e}", s.name, opts.mode))
}

fn pin_outcome(cells: &mut BTreeMap<String, String>, key: &str, outcome: &RunOutcome) {
    cells.insert(format!("{key}/record"), digest(to_string(&outcome.record)));
    if let Some(engine) = &outcome.engine {
        cells.insert(format!("{key}/engine"), digest(to_string(engine)));
    }
    if let Some(holdout) = &outcome.holdout {
        cells.insert(format!("{key}/holdout"), digest(to_string(holdout)));
    }
}

fn pin_traced(cells: &mut BTreeMap<String, String>, key: &str, outcome: &RunOutcome) {
    let trace = outcome.trace.as_ref().expect("trace requested");
    cells.insert(format!("{key}/trace"), digest(to_string(trace)));
    cells.insert(
        format!("{key}/metrics"),
        digest(to_string(&outcome.metrics)),
    );
    cells.insert(format!("{key}/record"), digest(to_string(&outcome.record)));
}

fn scenario_cells(cells: &mut BTreeMap<String, String>, scenarios: Vec<(Scenario, u64)>) {
    for (base, max_ops) in scenarios {
        for (plan_name, plan) in [("asis", None), ("chaos-errors", Some("chaos-errors"))] {
            let mut s = base.clone();
            if let Some(plan) = plan {
                s.faults = Some(resolve_fault_plan(plan).expect("builtin plan"));
                s.validate().expect("plan fits scenario");
            }
            for (mode_name, mode) in modes(&s) {
                let mut workers = vec![1usize];
                if thread_invariant(&s, mode) {
                    workers.push(4);
                }
                for sut in SUTS {
                    for &threads in &workers {
                        let opts = RunOptions {
                            threads: Some(threads),
                            max_ops,
                            holdout: s.holdout.is_some(),
                            ..RunOptions::with_mode(mode)
                        };
                        let key = format!("{}/{plan_name}/{mode_name}/{sut}/t{threads}", s.name);
                        pin_outcome(cells, &key, &run(&s, sut, opts));
                    }
                }
            }
        }
    }
}

/// A traced run per mode: the merged event trace and the metrics registry
/// are part of the oracle too (one worker — open-loop traces interleave
/// per worker by design).
fn traced_cells(cells: &mut BTreeMap<String, String>) {
    let all = suite_scenarios().into_iter().chain(spec_scenarios());
    for (base, _) in all {
        if !["S2-abrupt-shift", "S5-bursty-load", "chaos-crash"].contains(&base.name.as_str()) {
            continue;
        }
        for (mode_name, mode) in modes(&base) {
            for sut in ["btree", "rmi"] {
                let opts = RunOptions {
                    threads: Some(1),
                    obs: ObsConfig::traced(),
                    ..RunOptions::with_mode(mode)
                };
                let key = format!("traced/{}/{mode_name}/{sut}", base.name);
                pin_traced(cells, &key, &run(&base, sut, opts));
            }
        }
    }
}

fn trace_cells(cells: &mut BTreeMap<String, String>) {
    let registry = SutRegistry::default();
    // The head of a timestamped import (open-loop replay, one phase) …
    let head: Vec<&str> = include_str!("trace_fixtures/s2_10k.csv")
        .lines()
        .take(1_001)
        .collect();
    let imported = import_str(&head.join("\n"), TraceFormat::Csv).expect("fixture parses");
    let imported_data = Dataset::from_keys(
        imported
            .trace
            .entries()
            .iter()
            .map(|e| e.op.key())
            .collect(),
    );
    // … and a recorded closed-loop trace with writes and a phase change.
    let cfg = reduced_suite();
    let s3 = lsbench::core::suite::s3_gradual_writes(&cfg).expect("S3 builds");
    let recorded = Trace::record(&s3.workload).expect("records");
    let recorded_data = s3.dataset.build().expect("dataset");
    for (name, trace, data) in [
        ("imported", &imported.trace, &imported_data),
        ("recorded", &recorded, &recorded_data),
    ] {
        for sut in SUTS {
            let mut fresh = registry.build(sut, data).expect("known SUT");
            let r = run_kv_trace(fresh.as_mut(), trace).expect("replay");
            cells.insert(format!("trace/{name}/closed/{sut}"), digest(to_string(&r)));
            for clients in [1usize, 1_000] {
                let mut fresh = registry.build(sut, data).expect("known SUT");
                let r = run_kv_trace_open_loop(fresh.as_mut(), trace, clients)
                    .expect("open-loop replay");
                cells.insert(
                    format!("trace/{name}/open{clients}/{sut}"),
                    digest(to_string(&r)),
                );
            }
        }
    }
}

/// The phases of `examples/query_steering.rs` (first 25 queries each).
fn query_cells(cells: &mut BTreeMap<String, String>) {
    let mut cat = Catalog::new();
    cat.add(Table::generate("fact", 20_000, 4, 1));
    cat.add(Table::generate("dim_a", 200, 2, 2));
    cat.add(Table::generate("dim_b", 4_000, 2, 3));
    let mut g1 = JoinQueryGenerator::new(
        &cat,
        "fact",
        vec!["dim_a".into(), "dim_b".into()],
        (0, 150),
        4,
    )
    .expect("valid generator");
    let mut g2 = JoinQueryGenerator::new(&cat, "fact", vec!["dim_b".into()], (500, 900), 5)
        .expect("valid generator");
    let ops = |queries: Vec<_>| -> Vec<QueryOp> {
        queries.into_iter().map(|query| QueryOp { query }).collect()
    };
    let phases = vec![
        ("shape-A".to_string(), ops(g1.take(25))),
        ("shape-B".to_string(), ops(g2.take(25))),
    ];
    let mut suts: Vec<Box<dyn SystemUnderTest<QueryOp>>> = vec![
        Box::new(TraditionalQuerySut::build(cat.clone()).expect("builds")),
        Box::new(LearnedCardinalitySut::build(cat.clone()).expect("builds")),
        Box::new(BanditQuerySut::build(cat, 0.1, 6).expect("builds")),
    ];
    for sut in &mut suts {
        let r = run_query_workload(sut.as_mut(), &phases, 1_000_000.0, u64::MAX).expect("runs");
        cells.insert(format!("query/{}", r.sut_name), digest(to_string(&r)));
    }
}

/// What pins the open-loop scheduler's pop order. Every other open-loop
/// cell is `ycsb-c`, and against a read-only shared SUT any pop order
/// produces the same record; these mixes mutate the shared SUT (and the
/// learned SUTs charge a read by the size of the pending delta), so the
/// order in which the scheduler got around to the clients' ops reaches the
/// record. One worker: with writes the record is thread-invariant only by
/// accident. Rates are per client, so "near the knee" is near it at every
/// population: `wide` leaves every client on time, `knee` leaves a mix,
/// `late` (10⁹ ops/s) puts every client behind after its first op, and at
/// `tied` (10³⁰ ops/s) every arrival offset is below an ulp of a trained
/// SUT's `exec_start`, so all intended starts are equal.
fn sched_order_cells(cells: &mut BTreeMap<String, String>) {
    let bases = write_bearing_bases();
    let scenario = |base: &Scenario, rate: f64, maintenance_every: u64, plan: Option<&str>| {
        let mut s = base.clone();
        s.arrival = poisson(rate);
        s.maintenance_every = maintenance_every;
        if let Some(plan) = plan {
            s.faults = Some(resolve_fault_plan(plan).expect("builtin plan"));
        }
        s.validate().expect("valid scenario");
        s
    };
    let open = |clients: usize| ExecutionMode::OpenLoop {
        clients,
        workers: 1,
    };
    for base in &bases {
        for clients in [1usize, 7, 64, 1_000, 5_000] {
            let per_client = clients as f64;
            let rates = [
                ("wide", 2_000.0 * per_client),
                ("knee", 25_000.0 * per_client),
                ("late", 1e9),
                ("tied", 1e30),
            ];
            for (rate_name, rate) in rates {
                for maintenance_every in [256u64, 3] {
                    for (plan_name, plan) in
                        [("asis", None), ("chaos-errors", Some("chaos-errors"))]
                    {
                        let s = scenario(base, rate, maintenance_every, plan);
                        for sut in ["btree", "alex", "rmi", "pgm"] {
                            let opts = RunOptions {
                                threads: Some(1),
                                ..RunOptions::with_mode(open(clients))
                            };
                            let key = format!(
                                "sched_order/{}/{plan_name}/c{clients}/{rate_name}/m{maintenance_every}/{sut}",
                                s.name
                            );
                            pin_outcome(cells, &key, &run(&s, sut, opts));
                        }
                    }
                }
            }
        }
    }
    // Traced: several ops per client, two phases, a slot every third op.
    let s = scenario(&bases[0], 25_000.0 * 64.0, 3, None);
    for sut in ["btree", "rmi"] {
        let opts = RunOptions {
            threads: Some(1),
            obs: ObsConfig::traced(),
            ..RunOptions::with_mode(open(64))
        };
        let key = format!("sched_order/traced/{}/{sut}", s.name);
        pin_traced(cells, &key, &run(&s, sut, opts));
    }
}

/// What pins the fault layer's arithmetic against SUTs whose state a crash
/// position can reach. Every other chaos cell is `ycsb-c` under one fault
/// kind; here one plan holds all four kinds over write-bearing mixes — two
/// error coins, two latency spikes, a stall window that straddles a 64-op
/// dispatch boundary, crashes on adjacent indices, on the first op of a
/// phase and mid-phase — under three retry policies, both training modes
/// and a maintenance slot every third op, and each cell pins the traced
/// event order and the metrics registry beside the record.
fn fault_order_cells(cells: &mut BTreeMap<String, String>) {
    let bases = write_bearing_bases();
    let policy = |timeout, max_retries| RetryPolicy {
        timeout,
        max_retries,
        backoff_base: 5e-4,
        backoff_multiplier: 2.0,
    };
    let policies = [
        ("t2ms-r2", policy(Some(2e-3), 2)),
        ("never-r8", policy(None, 8)),
        ("t500us-r0", policy(Some(5e-4), 0)),
    ];
    let trains = [
        ("fg", OnlineTrainMode::Foreground),
        ("bg30", OnlineTrainMode::Background { fraction: 0.3 }),
    ];
    let open = |clients| ExecutionMode::OpenLoop {
        clients,
        workers: 1,
    };
    let modes = [
        ("serial", ExecutionMode::Serial),
        ("shared4", ExecutionMode::SharedLock { workers: 4 }),
        ("sharded4", ExecutionMode::Sharded { workers: 4 }),
        ("open1", open(1)),
        ("open64", open(64)),
        ("open5000", open(5_000)),
    ];
    for base in &bases {
        let last = base.workload.phases().len() - 1;
        let errors = |phase, rate| FaultSpec::TransientErrors { phase, rate };
        let spike = |phase, add_work, factor| FaultSpec::LatencySpike {
            phase,
            add_work,
            factor,
        };
        let crash = |phase, at_op| FaultSpec::Crash { phase, at_op };
        let faults = vec![
            errors(None, 0.05),
            errors(Some(0), 0.2),
            spike(Some(last), 7, 3.0),
            spike(None, 1, 1.1),
            FaultSpec::Stall {
                phase: 0,
                from_op: 50,
                ops: 100,
                duration: 0.15,
            },
            crash(0, 37),
            crash(0, 38),
            crash(last, 0),
            crash(last, 130),
        ];
        for (policy_name, policy) in policies {
            for (train_name, online_train) in trains {
                for maintenance_every in [256u64, 3] {
                    let mut s = base.clone();
                    s.arrival = poisson(30_000.0);
                    s.maintenance_every = maintenance_every;
                    s.online_train = online_train;
                    s.faults = Some(FaultPlan {
                        seed: 0xFA17,
                        policy,
                        faults: faults.clone(),
                    });
                    s.validate().expect("valid scenario");
                    for (mode_name, mode) in modes {
                        for sut in ["btree", "alex", "rmi", "pgm", "hash"] {
                            let opts = RunOptions {
                                threads: Some(1),
                                obs: ObsConfig::traced(),
                                ..RunOptions::with_mode(mode)
                            };
                            let key = format!(
                                "fault_order/{}/{policy_name}/{train_name}/m{maintenance_every}/{mode_name}/{sut}",
                                s.name
                            );
                            pin_traced(cells, &key, &run(&s, sut, opts));
                        }
                    }
                }
            }
        }
    }
}

/// The oracle is computed (and checked) in six independent groups so the
/// test harness can run them on parallel threads.
const GROUPS: [fn(&mut BTreeMap<String, String>); 6] = [
    |cells| scenario_cells(cells, suite_scenarios()),
    |cells| scenario_cells(cells, spec_scenarios()),
    trace_cells,
    |cells| {
        traced_cells(cells);
        query_cells(cells);
    },
    sched_order_cells,
    fault_order_cells,
];

fn fixture() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/record_digests_v1.json exists (see regenerate test)");
    serde_json::from_str(&text).expect("fixture parses")
}

/// Every cell of `group` equals the fixture, and the fixture holds no cell
/// of the group's key families that the group no longer produces.
fn assert_group_matches(group: usize) {
    let expected = fixture();
    let mut actual = BTreeMap::new();
    GROUPS[group](&mut actual);
    let family = |key: &str| key.split('/').next().map(str::to_string);
    let families: std::collections::BTreeSet<_> = actual.keys().map(|k| family(k)).collect();
    let moved: Vec<&String> = actual
        .iter()
        .filter(|(k, v)| expected.get(*k) != Some(v))
        .map(|(k, _)| k)
        .chain(
            expected
                .keys()
                .filter(|k| families.contains(&family(k)) && !actual.contains_key(*k)),
        )
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} cells left the oracle: {moved:#?}",
        moved.len(),
        actual.len()
    );
}

#[test]
fn suite_scenario_cells_match_the_frozen_oracle() {
    assert_group_matches(0);
}

#[test]
fn spec_scenario_cells_match_the_frozen_oracle() {
    assert_group_matches(1);
}

#[test]
fn trace_replay_cells_match_the_frozen_oracle() {
    assert_group_matches(2);
}

#[test]
fn traced_and_query_cells_match_the_frozen_oracle() {
    assert_group_matches(3);
}

#[test]
fn sched_order_cells_match_the_frozen_oracle() {
    assert_group_matches(4);
}

#[test]
fn fault_order_cells_match_the_frozen_oracle() {
    assert_group_matches(5);
}

/// Worker threads never decide results: every thread-invariant cell has the
/// same record at one and at four workers.
#[test]
fn worker_count_never_reaches_the_record() {
    let cells = fixture();
    let mut pairs = 0;
    for (key, four) in &cells {
        if let Some(stem) = key.strip_suffix("/t4/record") {
            assert_eq!(&cells[&format!("{stem}/t1/record")], four, "{stem}");
            pairs += 1;
        }
    }
    assert!(pairs > 100, "only {pairs} thread-invariant cells pinned");
}

/// One open-loop client *is* the serial policy: `OpenLoop { clients: 1 }`
/// pins the same record as `Serial` in every cell that has both. (The two
/// idle-gap cells of `probe-idle` are where a clock advanced by `t − now`
/// instead of set to `t` used to break this by one ulp.)
#[test]
fn one_open_loop_client_is_the_serial_policy() {
    let cells = fixture();
    let mut pairs = 0;
    for (key, serial) in &cells {
        if key.contains("/serial/") && key.ends_with("/record") {
            if let Some(open) = cells.get(&key.replace("/serial/", "/open1x1/")) {
                assert_eq!(open, serial, "{key}");
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 48, "only {pairs} serial/open-loop twins pinned");
}

/// Regenerates the fixture. Deliberately `#[ignore]`d: the digests are the
/// oracle, so a regeneration is a reviewed event, never a side effect.
#[test]
#[ignore = "writes the oracle fixture; run explicitly and review every moved cell"]
fn regenerate_record_digests() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("fixtures dir");
    let mut cells = BTreeMap::new();
    for group in GROUPS {
        group(&mut cells);
    }
    let json = serde_json::to_string_pretty(&cells).expect("serializes");
    std::fs::write(&path, json + "\n").expect("writes fixture");
}
