//! Integration tests for the scenario-spec subsystem: positioned
//! rejection of malformed files, shipped-file/built-in equivalence, the
//! run-level round-trip fidelity guarantee, and `parse ∘ render = id`
//! property tests over builder-generated scenarios.

use lsbench::core::faults::{FaultPlan, FaultSpec, RetryPolicy};
use lsbench::core::metrics::sla::SlaPolicy;
use lsbench::core::results::parse_regression_policy;
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::{ArrivalSpec, ClockMode, OnlineTrainMode, Scenario};
use lsbench::core::spec::{parse_fault_plan, parse_scenario, render_scenario, ScenarioRegistry};
use lsbench::core::suite::{standard_scenarios, SuiteConfig};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::sweep::parse_axis;
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;
use lsbench::workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Malformed input: every fixture is rejected with a positioned error.
// ---------------------------------------------------------------------------

/// `(fixture, text, line, field, reason substring)` — the exact position
/// and field every malformed fixture must be rejected at.
const BAD_FIXTURES: &[(&str, &str, usize, &str, &str)] = &[
    (
        "unknown_key",
        include_str!("spec_fixtures/bad/unknown_key.spec"),
        10,
        "sized",
        "unknown key",
    ),
    (
        "bad_number",
        include_str!("spec_fixtures/bad/bad_number.spec"),
        8,
        "size",
        "unrecognized value 'twelve'",
    ),
    (
        "transition_on_first",
        include_str!("spec_fixtures/bad/transition_on_first.spec"),
        12,
        "transition",
        "first block",
    ),
    (
        "zero_ops",
        include_str!("spec_fixtures/bad/zero_ops.spec"),
        11,
        "ops",
        "at least one operation",
    ),
    (
        "unterminated_string",
        include_str!("spec_fixtures/bad/unterminated_string.spec"),
        2,
        "name",
        "unterminated",
    ),
    (
        "duplicate_key",
        include_str!("spec_fixtures/bad/duplicate_key.spec"),
        4,
        "seed",
        "duplicate key",
    ),
    (
        "shape_jump",
        include_str!("spec_fixtures/bad/shape_jump.spec"),
        11,
        "gradual_shift",
        "cannot interpolate",
    ),
    (
        "drift_alpha_out_of_range",
        include_str!("spec_fixtures/bad/drift_alpha_out_of_range.spec"),
        11,
        "drift",
        "alpha must be in [0, 1]",
    ),
    (
        "drift_cross_shape",
        include_str!("spec_fixtures/bad/drift_cross_shape.spec"),
        11,
        "drift",
        "cannot interpolate",
    ),
    (
        "clock_unknown",
        include_str!("spec_fixtures/bad/clock_unknown.spec"),
        12,
        "clock",
        "unknown clock 'lunar'",
    ),
    (
        "clock_bad_type",
        include_str!("spec_fixtures/bad/clock_bad_type.spec"),
        12,
        "clock",
        "expected a \"string\"",
    ),
    (
        "fault_unknown_key",
        include_str!("spec_fixtures/bad/fault_unknown_key.spec"),
        23,
        "probability",
        "unknown key",
    ),
    (
        "fault_bad_rate",
        include_str!("spec_fixtures/bad/fault_bad_rate.spec"),
        21,
        "rate",
        "must be within [0, 1]",
    ),
    (
        "fault_stall_overlap",
        include_str!("spec_fixtures/bad/fault_stall_overlap.spec"),
        24,
        "ops",
        "overlapping phase boundary",
    ),
    (
        "too_many_phases",
        include_str!("spec_fixtures/bad/too_many_phases.spec"),
        16,
        "diurnal",
        "expands the workload to 65537 phases, past the limit of 65536",
    ),
];

#[test]
fn every_bad_fixture_is_rejected_with_position() {
    for (fixture, text, line, field, reason) in BAD_FIXTURES {
        let err = parse_scenario(text)
            .map(|s| s.name)
            .expect_err(&format!("{fixture} must not parse"));
        assert_eq!(err.line, *line, "{fixture}: wrong line");
        assert_eq!(err.field, *field, "{fixture}: wrong field");
        assert!(
            err.reason.contains(reason),
            "{fixture}: reason {:?} lacks {reason:?}",
            err.reason
        );
        // Display carries the position for `lsbench validate` output.
        assert!(err.to_string().starts_with(&format!("line {line}: ")));
    }
}

// ---------------------------------------------------------------------------
// Shipped files: the suite round-trips through render at any scale, and the
// exemplars parse clean.
// ---------------------------------------------------------------------------

/// Every suite scenario — the composer-built S6/S7 included — survives
/// `parse ∘ render` unchanged at the default and at a small scale, and a
/// second render is byte-identical.
#[test]
fn every_built_in_round_trips_through_render() {
    let small = SuiteConfig {
        dataset_size: 500,
        ops_per_phase: 7,
        ..SuiteConfig::default()
    };
    for cfg in [SuiteConfig::default(), small] {
        let suite = standard_scenarios(&cfg).expect("the suite builds");
        assert_eq!(suite.len(), 7);
        for built_in in suite {
            let name = &built_in.name;
            let text = render_scenario(&built_in);
            let back = parse_scenario(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            assert_eq!(back, built_in, "{name} changed on the way through a file");
            assert_eq!(
                render_scenario(&back),
                text,
                "{name}: second render differs"
            );
        }
    }
}

/// Every shipped spec file — read from the directories, so a new file
/// cannot be missed — parses, validates, and survives a render:
/// parse ∘ render ∘ parse = parse.
#[test]
fn shipped_exemplars_parse_and_validate() {
    let mut files = Vec::new();
    for dir in ["scenarios", "scenarios/figures"] {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        for entry in std::fs::read_dir(&dir).expect("the spec directory reads") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "spec") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 25, "found only {files:?}");
    for path in files {
        let file = path.display();
        let text = std::fs::read_to_string(&path).expect("the spec file reads");
        let s = parse_scenario(&text).unwrap_or_else(|e| panic!("{file}:{e}"));
        s.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(s.workload.total_ops() > 0, "{file}");
        let rendered = render_scenario(&s);
        let back = parse_scenario(&rendered).unwrap_or_else(|e| panic!("{file}: {e}\n{rendered}"));
        assert_eq!(back, s, "{file} changed on the way through render");
    }
}

/// Integer parameters stay integers end to end: a `clusters` past 2^53,
/// where an `f64` would round it, renders and parses back exactly.
#[test]
fn integer_parameters_round_trip_past_f64_precision() {
    let clusters = (1usize << 53) + 1;
    let s = spec_with_blocks(&format!(
        "[[phase]]\ndistribution = \"clustered\"\nclusters = {clusters}\n\
         cluster_std_frac = 0.01\nmix = \"ycsb-c\"\nops = 10\n"
    ));
    let dist = &s.workload.phases()[0].distribution;
    assert_eq!(
        *dist,
        KeyDistribution::Clustered {
            clusters,
            cluster_std_frac: 0.01
        }
    );
    let rendered = render_scenario(&s);
    assert!(
        rendered.contains(&format!("clusters = {clusters}\n")),
        "{rendered}"
    );
    assert_eq!(parse_scenario(&rendered).expect("rendered spec parses"), s);
}

// ---------------------------------------------------------------------------
// Round-trip fidelity: a built-in resolved by name and its rendered spec
// file loaded from disk produce bit-identical run records, serial and
// concurrent.
// ---------------------------------------------------------------------------

#[test]
fn built_in_and_spec_file_runs_are_bit_identical() {
    let reg = ScenarioRegistry::with_config(SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: 400,
        ..SuiteConfig::default()
    });
    let by_name = reg.get("S2-abrupt-shift").expect("registered");

    // Round-trip the scenario through an actual file on disk, resolved
    // through the same entry point `lsbench run --scenario` uses.
    let path = std::env::temp_dir().join("lsbench_round_trip_s2.spec");
    std::fs::write(&path, render_scenario(&by_name)).expect("temp file writes");
    let by_file = reg
        .resolve(path.to_str().expect("utf-8 temp path"))
        .expect("rendered spec resolves");
    let _ = std::fs::remove_file(&path);
    assert_eq!(by_file, by_name, "value-level equality");

    let suts = SutRegistry::default();
    for workers in [1, 4] {
        let run = |s: &Scenario| {
            Runner::from_factory(suts.factory("btree").expect("registered"))
                .config(RunOptions::with_mode(if workers > 1 {
                    ExecutionMode::Sharded { workers }
                } else {
                    ExecutionMode::Serial
                }))
                .run(s)
                .expect("run succeeds")
        };
        let a = run(&by_name);
        let b = run(&by_file);
        assert_eq!(a.record, b.record, "{workers}-worker records must match");
        assert_eq!(a.record.completed(), b.record.completed());
    }
}

// ---------------------------------------------------------------------------
// Golden tests: each composer's expansion is pinned, through the full
// spec pipeline.
// ---------------------------------------------------------------------------

fn spec_with_blocks(blocks: &str) -> Scenario {
    let text = format!(
        "name = \"golden\"\nseed = 7\n\n[dataset]\ndistribution = \"uniform\"\n\
         key_range = [0, 1000]\nsize = 100\nseed = 8\n\n{blocks}"
    );
    parse_scenario(&text).unwrap_or_else(|e| panic!("golden spec parses: {e}\n{text}"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn diurnal_expansion_is_pinned() {
    let s = spec_with_blocks(
        "[[diurnal]]\nsteps = 4\nops_per_step = 50\nperiod = 4.0\namplitude = 0.5\n\
         distribution = \"uniform\"\nmix = \"ycsb-c\"\n",
    );
    let phases = s.workload.phases();
    assert_eq!(phases.len(), 4);
    // 1 + 0.5·sin(2π(i+0.5)/4): the sinusoid sampled at step midpoints.
    let half_sqrt2 = 0.5 * std::f64::consts::FRAC_1_SQRT_2;
    let expected = [
        1.0 + half_sqrt2,
        1.0 + half_sqrt2,
        1.0 - half_sqrt2,
        1.0 - half_sqrt2,
    ];
    for (i, (p, want)) in phases.iter().zip(expected).enumerate() {
        assert_eq!(p.name, format!("diurnal-{i}"));
        assert_eq!(p.ops, 50);
        assert!(
            close(p.concurrency_burst, want),
            "step {i}: {}",
            p.concurrency_burst
        );
    }
    assert!(s
        .workload
        .transitions()
        .iter()
        .all(|t| *t == TransitionKind::Abrupt));
}

#[test]
fn burst_expansion_is_pinned() {
    let s = spec_with_blocks(
        "[[burst]]\nsteps = 5\nops_per_step = 10\nat = 1\nwidth = 2\nfactor = 3.0\n\
         distribution = \"zipf\"\ntheta = 0.9\nmix = \"ycsb-b\"\n",
    );
    let factors: Vec<f64> = s
        .workload
        .phases()
        .iter()
        .map(|p| p.concurrency_burst)
        .collect();
    assert_eq!(factors, [1.0, 3.0, 3.0, 1.0, 1.0]);
}

#[test]
fn gradual_shift_expansion_is_pinned() {
    let s = spec_with_blocks(
        "[[gradual_shift]]\nsteps = 5\nops_per_step = 10\nfrom = \"zipf\"\nfrom_theta = 0.5\n\
         to = \"zipf\"\nto_theta = 1.3\nmix = \"ycsb-c\"\n",
    );
    let thetas: Vec<f64> = s
        .workload
        .phases()
        .iter()
        .map(|p| match p.distribution {
            KeyDistribution::Zipf { theta } => theta,
            ref other => panic!("expected zipf, got {other:?}"),
        })
        .collect();
    for (got, want) in thetas.iter().zip([0.5, 0.7, 0.9, 1.1, 1.3]) {
        assert!(close(*got, want), "{thetas:?}");
    }
}

#[test]
fn growing_skew_expansion_is_pinned() {
    let s = spec_with_blocks(
        "[[growing_skew]]\nsteps = 3\nops_per_step = 10\nstart_theta = 0.4\n\
         end_theta = 1.2\nsmooth = 0.5\nmix = \"ycsb-c\"\n",
    );
    let thetas: Vec<f64> = s
        .workload
        .phases()
        .iter()
        .map(|p| match p.distribution {
            KeyDistribution::Zipf { theta } => theta,
            ref other => panic!("expected zipf, got {other:?}"),
        })
        .collect();
    for (got, want) in thetas.iter().zip([0.4, 0.8, 1.2]) {
        assert!(close(*got, want), "{thetas:?}");
    }
    assert!(s
        .workload
        .transitions()
        .iter()
        .all(|t| *t == TransitionKind::Gradual { window: 0.5 }));
}

#[test]
fn drift_expansion_is_pinned() {
    // α = 0.5 over zipf 0.5 → 1.3 stops halfway: the last step sits at
    // theta 0.9, and interior steps ramp linearly toward it.
    let s = spec_with_blocks(
        "[[drift]]\nsteps = 5\nops_per_step = 10\nfrom = \"zipf\"\nfrom_theta = 0.5\n\
         to = \"zipf\"\nto_theta = 1.3\nalpha = 0.5\nmix = \"ycsb-c\"\n",
    );
    let thetas: Vec<f64> = s
        .workload
        .phases()
        .iter()
        .map(|p| match p.distribution {
            KeyDistribution::Zipf { theta } => theta,
            ref other => panic!("expected zipf, got {other:?}"),
        })
        .collect();
    for (got, want) in thetas.iter().zip([0.5, 0.6, 0.7, 0.8, 0.9]) {
        assert!(close(*got, want), "{thetas:?}");
    }
    // α = 0 never leaves the base distribution, exactly.
    let frozen = spec_with_blocks(
        "[[drift]]\nsteps = 5\nops_per_step = 10\nfrom = \"zipf\"\nfrom_theta = 0.5\n\
         to = \"zipf\"\nto_theta = 1.3\nalpha = 0.0\nmix = \"ycsb-c\"\n",
    );
    for p in frozen.workload.phases() {
        assert_eq!(p.distribution, KeyDistribution::Zipf { theta: 0.5 });
    }
    // α = 1 is [[gradual_shift]] bit for bit (names aside — each block
    // prefixes phases with its own default name).
    let full = spec_with_blocks(
        "[[drift]]\nname = \"x\"\nsteps = 5\nops_per_step = 10\nfrom = \"zipf\"\n\
         from_theta = 0.5\nto = \"zipf\"\nto_theta = 1.3\nalpha = 1.0\nmix = \"ycsb-c\"\n",
    );
    let shift = spec_with_blocks(
        "[[gradual_shift]]\nname = \"x\"\nsteps = 5\nops_per_step = 10\nfrom = \"zipf\"\n\
         from_theta = 0.5\nto = \"zipf\"\nto_theta = 1.3\nmix = \"ycsb-c\"\n",
    );
    assert_eq!(full.workload.phases(), shift.workload.phases());
    assert_eq!(full.workload.transitions(), shift.workload.transitions());
}

#[test]
fn drift_spec_round_trips_through_render() {
    // Composers expand at parse time and the renderer emits the expanded
    // phases, so parse ∘ render = id holds for [[drift]] specs too.
    let s = spec_with_blocks(
        "[[drift]]\nsteps = 4\nops_per_step = 25\nfrom = \"zipf\"\nfrom_theta = 0.6\n\
         to = \"zipf\"\nto_theta = 1.2\nalpha = 0.75\nsmooth = 0.5\nmix = \"ycsb-a\"\n",
    );
    let rendered = render_scenario(&s);
    let reparsed = parse_scenario(&rendered).expect("rendered drift spec parses");
    assert_eq!(s, reparsed);
}

// ---------------------------------------------------------------------------
// Property tests: parse ∘ render = id, and no input ever panics the
// parser.
// ---------------------------------------------------------------------------

fn arb_distribution() -> impl Strategy<Value = KeyDistribution> {
    prop_oneof![
        Just(KeyDistribution::Uniform),
        (0.3f64..1.8).prop_map(|theta| KeyDistribution::Zipf { theta }),
        (0.05f64..0.95, 0.01f64..0.3)
            .prop_map(|(center, std_frac)| KeyDistribution::Normal { center, std_frac }),
        (-0.5f64..0.5, 0.4f64..1.5)
            .prop_map(|(mu, sigma)| KeyDistribution::LogNormal { mu, sigma }),
        (0.01f64..0.5, 0.5f64..0.99).prop_map(|(hot_span, hot_fraction)| {
            KeyDistribution::Hotspot {
                hot_span,
                hot_fraction,
            }
        }),
        (2u64..20, 0.01f64..0.2).prop_map(|(clusters, cluster_std_frac)| {
            KeyDistribution::Clustered {
                clusters: clusters as usize,
                cluster_std_frac,
            }
        }),
        (0.01f64..0.9).prop_map(|noise_frac| KeyDistribution::SequentialNoise { noise_frac }),
    ]
}

fn arb_mix() -> impl Strategy<Value = OperationMix> {
    prop_oneof![
        Just(OperationMix::ycsb_a()),
        Just(OperationMix::ycsb_c()),
        Just(OperationMix::range_heavy()),
        // Custom weights: read-bearing, scan weight paired with a scan
        // length (a lone max_scan_len would not survive rendering).
        (0.1f64..1.0, 0.0f64..0.5, 0.0f64..0.5).prop_map(|(read, insert, update)| {
            OperationMix {
                read,
                insert,
                update,
                scan: 0.0,
                delete: 0.0,
                max_scan_len: 0,
            }
        }),
        (0.1f64..1.0, 0.01f64..0.5, 1u64..50).prop_map(|(read, scan, len)| OperationMix {
            read,
            insert: 0.0,
            update: 0.0,
            scan,
            delete: 0.0,
            max_scan_len: len as u32,
        }),
    ]
}

fn arb_transition() -> impl Strategy<Value = TransitionKind> {
    prop_oneof![
        Just(TransitionKind::Abrupt),
        (0.05f64..1.0).prop_map(|window| TransitionKind::Gradual { window }),
    ]
}

fn arb_sla() -> impl Strategy<Value = SlaPolicy> {
    prop_oneof![
        (0.1f64..10.0).prop_map(|threshold| SlaPolicy::Fixed { threshold }),
        (1.0f64..8.0).prop_map(|multiplier| SlaPolicy::FromBaselineP99 { multiplier }),
    ]
}

fn arb_arrival() -> impl Strategy<Value = Option<ArrivalSpec>> {
    let process = prop_oneof![
        (1e3f64..1e5).prop_map(|rate| ArrivalProcess::Poisson { rate }),
        (1e3f64..1e5).prop_map(|rate| ArrivalProcess::Uniform { rate }),
    ];
    let modulation = prop_oneof![
        Just(LoadModulation::Constant),
        (2.0f64..50.0, 0.05f64..0.95)
            .prop_map(|(period, amplitude)| LoadModulation::Diurnal { period, amplitude }),
        (4.0f64..50.0, 1.0f64..3.0, 1.5f64..10.0).prop_map(|(period, burst_len, multiplier)| {
            LoadModulation::Burst {
                period,
                burst_len,
                multiplier,
            }
        }),
    ];
    prop_oneof![
        Just(None),
        (process, modulation, 0u64..1000).prop_map(|(process, modulation, seed)| {
            Some(ArrivalSpec {
                process,
                modulation,
                seed,
            })
        }),
    ]
}

/// Raw material for an optional fault plan: `(seed, timeout, retries,
/// backoff base, backoff multiplier)` plus `(error rate, latency factor,
/// add_work, stall position fraction, crash position fraction)`. The
/// position fractions are resolved against phase 0's op count inside
/// `arb_scenario`, so every generated window is valid by construction.
type FaultParts = ((u64, Option<f64>, u32, f64, f64), (f64, f64, u64, f64, f64));

fn arb_fault_parts() -> impl Strategy<Value = Option<FaultParts>> {
    prop_oneof![
        Just(None),
        (
            (
                0u64..10_000,
                prop_oneof![Just(None), (1e-4f64..1e-1).prop_map(Some)],
                0u32..4,
                1e-4f64..1e-2,
                1.0f64..3.0,
            ),
            (
                0.0f64..1.0,
                0.5f64..4.0,
                0u64..1_000,
                0.0f64..1.0,
                0.0f64..1.0,
            ),
        )
            .prop_map(Some),
    ]
}

/// A phase with everything the spec grammar can express on it.
fn arb_phase() -> impl Strategy<Value = (WorkloadPhase, TransitionKind)> {
    (
        ("[a-z][a-z0-9_-]{0,11}", arb_distribution(), arb_mix()),
        (
            1u64..5_000,
            prop_oneof![Just(1.0f64), 0.25f64..4.0],
            arb_transition(),
        ),
    )
        .prop_map(|((name, dist, mix), (ops, burst, transition))| {
            let phase = WorkloadPhase::new(name, dist, (0, 1_000_000), mix, ops)
                .with_concurrency_burst(burst);
            (phase, transition)
        })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            "[a-z][a-z0-9-]{0,11}",
            vec(arb_phase(), 1..4),
            0u64..10_000,
            arb_distribution(),
            100u64..5_000,
        ),
        (
            (
                arb_sla(),
                arb_arrival(),
                prop_oneof![Just(u64::MAX), 0u64..100_000],
                1e3f64..1e7,
            ),
            (
                prop_oneof![Just(u64::MAX), 1u64..1_024],
                prop_oneof![
                    Just(OnlineTrainMode::Foreground),
                    (0.05f64..0.95).prop_map(|fraction| OnlineTrainMode::Background { fraction }),
                ],
                prop_oneof![Just(None), vec(arb_phase(), 1..3).prop_map(Some)],
                arb_fault_parts(),
                prop_oneof![
                    Just(None),
                    Just(Some(ClockMode::Sim)),
                    Just(Some(ClockMode::Wall)),
                ],
            ),
        ),
    )
        .prop_map(
            |(
                (name, phase_list, seed, data_dist, data_size),
                (
                    (sla, arrival, train_budget, wups),
                    (maintenance, online, holdout, fault_parts, clock),
                ),
            )| {
                let ops0 = phase_list[0].0.ops;
                let workload = |list: Vec<(WorkloadPhase, TransitionKind)>, seed: u64| {
                    let transitions = list.iter().skip(1).map(|(_, t)| *t).collect();
                    let phases = list.into_iter().map(|(p, _)| p).collect();
                    PhasedWorkload::new(phases, transitions, seed).expect("generated valid")
                };
                let mut builder = Scenario::builder(name)
                    .dataset(data_dist, (0, 1_000_000), data_size as usize, seed ^ 0xD5)
                    .workload(workload(phase_list, seed))
                    .sla(sla)
                    .train_budget(train_budget)
                    .work_units_per_second(wups)
                    .maintenance_every(maintenance)
                    .online_train(online);
                if let Some(list) = holdout {
                    builder = builder.holdout(workload(list, seed ^ 0x401));
                }
                if let Some(a) = arrival {
                    builder = builder.arrival(a);
                }
                if let Some(c) = clock {
                    builder = builder.clock(c);
                }
                if let Some((
                    (fseed, timeout, max_retries, backoff_base, backoff_multiplier),
                    (rate, factor, add_work, stall_frac, crash_frac),
                )) = fault_parts
                {
                    // Windows computed so they always fit inside phase 0.
                    let window = (ops0 / 2).max(1);
                    let from_op = ((ops0 - window) as f64 * stall_frac) as u64;
                    let at_op = ((ops0 - 1) as f64 * crash_frac) as u64;
                    builder = builder.faults(FaultPlan {
                        seed: fseed,
                        policy: RetryPolicy {
                            timeout,
                            max_retries,
                            backoff_base,
                            backoff_multiplier,
                        },
                        faults: vec![
                            FaultSpec::TransientErrors { phase: None, rate },
                            FaultSpec::LatencySpike {
                                phase: None,
                                add_work,
                                factor,
                            },
                            FaultSpec::Stall {
                                phase: 0,
                                from_op,
                                ops: window,
                                duration: 0.25,
                            },
                            FaultSpec::Crash { phase: 0, at_op },
                        ],
                    });
                }
                builder.build().expect("generated scenario is valid")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse ∘ render = id` over the whole scenario space the builder
    /// accepts — the fidelity guarantee behind `lsbench export`.
    #[test]
    fn parse_render_round_trips_exactly(s in arb_scenario()) {
        let text = render_scenario(&s);
        let back = parse_scenario(&text)
            .unwrap_or_else(|e| panic!("rendered spec must re-parse: {e}\n---\n{text}"));
        prop_assert_eq!(&back, &s, "round trip changed the scenario:\n{}", text);
        // Idempotent: rendering the re-parse yields byte-identical text.
        prop_assert_eq!(render_scenario(&back), text);
    }

    /// The parser never panics: any mangled spec yields a positioned
    /// `SpecError` (or parses, if the mangling happened to be harmless).
    #[test]
    fn mangled_specs_never_panic(
        s in arb_scenario(),
        cut in 0usize..2_000,
        junk in "[ -~]{0,40}",
        line_no in 0usize..40,
    ) {
        let text = render_scenario(&s);
        // Truncate mid-file, then splice a random printable line in.
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &text[..cut];
        let mut lines: Vec<&str> = truncated.lines().collect();
        lines.insert(line_no.min(lines.len()), junk.as_str());
        let mangled = lines.join("\n");
        match parse_scenario(&mangled) {
            Ok(s) => prop_assert!(s.validate().is_ok(), "accepted specs must be valid"),
            Err(e) => {
                // Positioned within the mangled text (0 = whole file).
                prop_assert!(e.line <= mangled.lines().count() + 1);
                prop_assert!(!e.field.is_empty());
            }
        }
    }

    /// Fully random text never panics the parser either, nor the other
    /// parsers of outside text: fault plans, regression policies and
    /// `--drift` axes.
    #[test]
    fn arbitrary_text_never_panics(text in "[ -~\n\"#=\\[\\]]{0,200}") {
        let _ = parse_scenario(&text);
        let _ = parse_fault_plan(&text);
        let _ = parse_regression_policy(&text);
        let _ = parse_axis(&text);
    }

    /// A `lo..hixN` axis with both ends in [0, 1] and 2..=1000 rungs parses
    /// to N strictly ascending rungs, the first `lo` and the last `hi` to
    /// the bit; an end outside [0, 1] or a rung count outside 2..=1000 is
    /// refused with a message.
    #[test]
    fn drift_axes_hit_their_ends_and_refuse_the_rest(
        // Weighted towards the edges of the accepted ranges.
        lo in prop_oneof![0.0f64..0.5, -0.5f64..0.0, 0.5f64..1.5],
        gap in 0.001f64..0.6,
        n in prop_oneof![0usize..4, 2usize..1_000, 998usize..1_003],
    ) {
        let hi = lo + gap;
        let axis = format!("{lo}..{hi}x{n}");
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let well_formed = unit(lo) && unit(hi) && (2..=1_000).contains(&n);
        match parse_axis(&axis) {
            Ok(rungs) => {
                prop_assert!(well_formed, "{axis} accepted");
                prop_assert_eq!(rungs.len(), n);
                prop_assert!(rungs.windows(2).all(|w| w[0] < w[1]), "{axis}: {rungs:?}");
                prop_assert_eq!(rungs[0].to_bits(), lo.to_bits());
                prop_assert_eq!(rungs[n - 1].to_bits(), hi.to_bits());
            }
            Err(msg) => {
                prop_assert!(!well_formed, "{axis} refused: {msg}");
                prop_assert!(!msg.is_empty());
            }
        }
    }

    /// `[[drift]]` blocks never panic the parser, across in-range and
    /// out-of-range alphas, degenerate step counts, and cross-shape
    /// endpoints; whenever such a spec parses, α stays in range and the
    /// result validates.
    #[test]
    fn drift_blocks_never_panic(
        steps in 0u64..8,
        ops in 0u64..200,
        alpha in prop_oneof![
            -2.0f64..3.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
        from_theta in 0.01f64..2.0,
        to_theta in 0.01f64..2.0,
        cross_shape in any::<bool>(),
    ) {
        let from = if cross_shape {
            "from = \"uniform\"".to_string()
        } else {
            format!("from = \"zipf\"\nfrom_theta = {from_theta}")
        };
        let text = format!(
            "name = \"fuzz\"\nseed = 7\n\n[dataset]\ndistribution = \"uniform\"\n\
             key_range = [0, 1000]\nsize = 100\nseed = 8\n\n[[drift]]\n\
             steps = {steps}\nops_per_step = {ops}\n{from}\n\
             to = \"zipf\"\nto_theta = {to_theta}\nalpha = {alpha}\nmix = \"ycsb-c\"\n"
        );
        match parse_scenario(&text) {
            Ok(s) => {
                prop_assert!((0.0..=1.0).contains(&alpha));
                prop_assert!(s.validate().is_ok());
            }
            Err(e) => prop_assert!(!e.field.is_empty()),
        }
    }
}
