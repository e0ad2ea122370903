//! Acceptance tests for the open-loop capacity engine: the event-heap
//! scheduler must multiplex very large simulated client populations onto a
//! small worker pool **bit-identically** at any worker count — including
//! under an injected chaos plan — and the `ExecutionMode` API must route
//! the open-loop mode end to end through the public `Runner`.

use lsbench::core::faults::resolve_fault_plan;
use lsbench::core::runner::{ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::{ArrivalSpec, Scenario};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::KeyDistribution;

fn open_loop_scenario() -> Scenario {
    let mut s = Scenario::two_phase_shift(
        "open-loop-acceptance",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        8_000,
        2_500,
        42,
    )
    .expect("valid scenario");
    s.arrival = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson { rate: 50_000.0 },
        modulation: LoadModulation::Constant,
        seed: 9,
    });
    s
}

fn run_open(scenario: &Scenario, sut: &str, clients: usize, workers: usize) -> RunOutcome {
    let registry = SutRegistry::default();
    let factory = registry.factory(sut).expect("known SUT");
    let outcome = Runner::from_factory(factory)
        .config(RunOptions::with_mode(ExecutionMode::OpenLoop {
            clients,
            workers,
        }))
        .run(scenario)
        .expect("open-loop run succeeds");
    outcome
}

/// The tentpole acceptance criterion: 100,000 simulated open-loop clients
/// multiplexed onto 1, 4, and 8 workers produce **bit-identical** run
/// records and engine histograms. Latency is charged from each op's
/// intended arrival on its owning client's virtual clock, so the schedule
/// — and therefore the record — cannot depend on how the clients were
/// packed onto OS threads.
#[test]
fn hundred_thousand_clients_are_bit_identical_across_worker_counts() {
    let scenario = open_loop_scenario();
    let baseline = run_open(&scenario, "btree", 100_000, 1);
    let base_stats = baseline.engine.as_ref().expect("engine stats");
    assert_eq!(base_stats.lanes, 100_000, "one lane per simulated client");
    for workers in [4usize, 8] {
        let other = run_open(&scenario, "btree", 100_000, workers);
        assert_eq!(
            other.record, baseline.record,
            "open-loop record must be bit-identical (workers={workers})"
        );
        let stats = other.engine.as_ref().expect("engine stats");
        assert_eq!(stats.threads, workers);
        assert_eq!(
            stats.latency, base_stats.latency,
            "coordinated-omission-safe histogram (workers={workers})"
        );
    }
}

/// Worker-count invariance survives an injected chaos plan: retries,
/// timeouts, and crash-recovery all happen on per-client virtual clocks,
/// so the fault ledger and every op outcome stay identical whether the
/// clients share one worker or eight.
#[test]
fn open_loop_chaos_run_is_worker_count_invariant() {
    let mut scenario = open_loop_scenario();
    scenario.faults = Some(resolve_fault_plan("chaos-errors").expect("builtin plan"));
    scenario.validate().expect("plan fits scenario");

    let baseline = run_open(&scenario, "btree", 5_000, 1);
    assert!(
        baseline.record.faults.injected > 0,
        "the chaos plan actually fired"
    );
    for workers in [4usize, 8] {
        let other = run_open(&scenario, "btree", 5_000, workers);
        assert_eq!(
            other.record, baseline.record,
            "chaos open-loop record (workers={workers})"
        );
        assert_eq!(other.record.faults, baseline.record.faults);
    }
}

/// `OpenLoop { clients: 1 }` through the public `Runner` is the serial
/// driver in disguise: one client owns every op and its virtual clock is
/// the serial clock, so the records agree field for field.
#[test]
fn single_client_open_loop_matches_serial_via_runner() {
    let scenario = open_loop_scenario();
    let registry = SutRegistry::default();
    let factory = registry.factory("rmi").expect("known SUT");
    let serial = Runner::from_factory(factory)
        .config(RunOptions::with_mode(ExecutionMode::Serial))
        .run(&scenario)
        .expect("serial run");
    let open = run_open(&scenario, "rmi", 1, 4);
    assert_eq!(open.record, serial.record);
}

/// The same identity over a sweep of idle gaps: the serial policy and the
/// scheduler must idle to an arrival with the *same* arithmetic. Advancing
/// the clock by `t − now` instead of jumping it to `t` differs by one ulp
/// whenever the gap dwarfs the elapsed time (`now + (t − now) ≠ t`), and
/// the ulp then leaks into every later `t_end` and latency. The sweep
/// contains the two cells that caught exactly that: `alex` at
/// `(rate 50, seed 1)` and `(rate 1000, seed 4)`, Poisson.
#[test]
fn single_client_open_loop_matches_serial_across_idle_gaps() {
    let registry = SutRegistry::default();
    for sut in ["btree", "rmi", "pgm", "alex"] {
        for rate in [50.0, 1_000.0, 20_000.0] {
            for seed in [1u64, 4, 7] {
                for process in [
                    ArrivalProcess::Poisson { rate },
                    ArrivalProcess::Uniform { rate },
                ] {
                    let mut scenario = Scenario::two_phase_shift(
                        "probe",
                        KeyDistribution::Uniform,
                        KeyDistribution::Normal {
                            center: 0.9,
                            std_frac: 0.03,
                        },
                        4_000,
                        400,
                        seed,
                    )
                    .expect("valid scenario");
                    scenario.arrival = Some(ArrivalSpec {
                        process,
                        modulation: LoadModulation::Constant,
                        seed,
                    });
                    let run = |mode| {
                        let factory = registry.factory(sut).expect("known SUT");
                        let outcome = Runner::from_factory(factory)
                            .config(RunOptions::with_mode(mode))
                            .run(&scenario);
                        outcome.expect("run succeeds").record
                    };
                    let serial = run(ExecutionMode::Serial);
                    let open = run(ExecutionMode::OpenLoop {
                        clients: 1,
                        workers: 1,
                    });
                    assert_eq!(open, serial, "{sut} {process:?} seed {seed}");
                }
            }
        }
    }
}

/// The trace-replay counterpart of the worker-count guard: an imported,
/// timestamped trace replayed open-loop with a 100,000-client population
/// produces bit-identical records on every replay. The replay is a
/// logically serial event simulation — ops execute in trace order against
/// per-client virtual clocks, so there is no worker schedule that could
/// leak into the record at any `--threads` setting.
#[test]
fn imported_trace_open_loop_replay_is_bit_identical() {
    use lsbench::core::driver::run_kv_trace_open_loop;
    use lsbench::core::trace::{import_str, TraceFormat};
    use lsbench::workload::Dataset;

    let text = include_str!("trace_fixtures/s2_10k.csv");
    let imported = import_str(text, TraceFormat::Csv).expect("fixture parses");
    assert!(imported.had_timestamps, "fixture carries arrival times");
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
    let baseline =
        run_kv_trace_open_loop(sut.as_mut(), &imported.trace, 100_000).expect("open-loop replay");
    assert_eq!(baseline.completed(), imported.trace.len());
    for run in 0..2 {
        let mut sut = registry.build("btree", &data).expect("btree");
        let again = run_kv_trace_open_loop(sut.as_mut(), &imported.trace, 100_000)
            .expect("open-loop replay");
        assert_eq!(again, baseline, "replay {run} must be bit-identical");
    }
}
