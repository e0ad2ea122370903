//! The remote-vs-local conformance oracle.
//!
//! The in-process virtual-clock mode is the ground truth; a remote run of
//! the same scenario through `WireServer` + `RemoteSut` must produce a
//! **bit-identical** `RunRecord` — every op's timestamp, latency, phase,
//! and success flag, the training info, and the final SUT metrics — at 1
//! and 4 workers, with and without an injected fault plan. A separate
//! test pins the unified timeout ledger: a *real* socket deadline expiring
//! on a wall-clock-slow server increments the same `FaultStats` fields and
//! emits the same observability event kinds as a chaos-injected timeout.

use lsbench::core::faults::{FaultPlan, FaultSpec, RetryPolicy};
use lsbench::core::obs::ObsConfig;
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::spec::render_scenario;
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::wire::{RemoteSut, ServerHandle, WireServer};
use lsbench::sut::sut::{ExecOutcome, SutMetrics, SystemUnderTest};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::Operation;
use std::time::Duration;

fn shift_scenario() -> Scenario {
    Scenario::two_phase_shift(
        "remote-conformance",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        5_000,
        1_000,
        42,
    )
    .expect("valid scenario")
}

fn spawn_server(sut: &str) -> ServerHandle {
    WireServer::bind("127.0.0.1:0", SutRegistry::default(), sut)
        .expect("binds")
        .spawn()
        .expect("spawns")
}

/// The historic `--threads N` routing: 1 worker is the serial driver,
/// more run the shared-SUT engine lanes.
fn threads_mode(threads: usize) -> ExecutionMode {
    if threads <= 1 {
        ExecutionMode::Serial
    } else {
        ExecutionMode::Sharded { workers: threads }
    }
}

fn run_local(scenario: &Scenario, sut: &str, threads: usize) -> RunOutcome {
    let data = scenario.dataset.build().expect("dataset builds");
    let mut local = SutRegistry::default().build(sut, &data).expect("builds");
    let outcome = Runner::new(local.as_mut())
        .config(RunOptions::with_mode(threads_mode(threads)))
        .run(scenario)
        .expect("local run");
    outcome
}

fn connect(server: &ServerHandle, scenario: &Scenario, retry: RetryPolicy) -> RemoteSut {
    let mut remote = RemoteSut::connect(&server.addr().to_string(), retry).expect("connects");
    remote
        .load(&render_scenario(scenario))
        .expect("remote load");
    remote
}

fn run_remote(scenario: &Scenario, server: &ServerHandle, threads: usize) -> RunOutcome {
    let mut remote = connect(server, scenario, RetryPolicy::default());
    let outcome = Runner::new(&mut remote)
        .config(RunOptions::with_mode(threads_mode(threads)))
        .run(scenario)
        .expect("remote run");
    outcome
}

/// The acceptance criterion: at 1 and 4 workers, the complete record —
/// not a summary — is equal field-for-field across the process boundary.
#[test]
fn remote_record_is_identical_to_local_at_1_and_4_workers() {
    let scenario = shift_scenario();
    let server = spawn_server("btree");
    for threads in [1usize, 4] {
        let local = run_local(&scenario, "btree", threads);
        let remote = run_remote(&scenario, &server, threads);
        assert_eq!(
            remote.record, local.record,
            "remote and local records must be bit-identical (threads={threads})"
        );
    }
    server.shutdown();
}

/// Conformance is independent of the geometry of the client pool that
/// drives the one connection: one serial client, four shared lanes taking
/// turns on one thread, and three or four key-range shards each produce
/// the same record remotely as locally.
#[test]
fn record_is_invariant_under_client_pool_geometry() {
    let scenario = shift_scenario();
    let server = spawn_server("rmi");
    let geometries = [
        (ExecutionMode::Serial, None),
        (ExecutionMode::SharedLock { workers: 4 }, Some(1)),
        (ExecutionMode::Sharded { workers: 3 }, None),
        (ExecutionMode::Sharded { workers: 4 }, Some(2)),
    ];
    for (mode, threads) in geometries {
        let opts = RunOptions {
            threads,
            ..RunOptions::with_mode(mode)
        };
        let data = scenario.dataset.build().expect("dataset builds");
        let mut local = SutRegistry::default().build("rmi", &data).expect("builds");
        let local = Runner::new(local.as_mut())
            .config(opts)
            .run(&scenario)
            .expect("local run");
        let mut remote = connect(&server, &scenario, RetryPolicy::default());
        let remote = Runner::new(&mut remote)
            .config(opts)
            .run(&scenario)
            .expect("remote run");
        assert_eq!(
            remote.record, local.record,
            "geometry {mode:?}, threads {threads:?}"
        );
    }
    server.shutdown();
}

/// The driver never sends a call longer than one frame (64 ops), so this
/// sends them by hand: calls of 0, 1, 64, 65 and 3·64 + 5 ops answer slot
/// for slot what the same SUT answers locally. Each call reads back keys
/// the op before inserted and deletes keys later calls read, so a frame
/// applied out of order, twice or not at all changes some answer.
#[test]
fn calls_spanning_several_frames_answer_like_local_calls() {
    let scenario = shift_scenario();
    let data = scenario.dataset.build().expect("dataset builds");
    let mut local = SutRegistry::default()
        .build("btree", &data)
        .expect("builds");
    let server = spawn_server("btree");
    let mut remote = connect(&server, &scenario, RetryPolicy::default());
    let keys = data.keys();
    let mut g = 0u64;
    for len in [0usize, 1, 64, 65, 3 * 64 + 5] {
        let ops: Vec<Operation> = (0..len)
            .map(|_| {
                g += 1;
                let key = keys[(g * 7919) as usize % keys.len()];
                match g % 5 {
                    0 => Operation::Read { key },
                    1 => Operation::Insert {
                        key: u64::MAX - g,
                        value: g,
                    },
                    2 => Operation::Read {
                        key: u64::MAX - (g - 1),
                    },
                    3 => Operation::Scan { start: key, len: 8 },
                    _ => Operation::Delete { key },
                }
            })
            .collect();
        let (want, got) = (local.execute_many(&ops), remote.execute_many(&ops));
        assert_eq!(got.len(), len);
        for (slot, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "call of {len} ops, slot {slot}");
        }
    }
    assert_eq!(remote.metrics(), local.metrics());
    drop(remote);
    server.shutdown();
}

/// Injected chaos composes with the remote transport: the driver-side
/// fault layer wraps the remote SUT exactly like a local one, so a
/// chaos-errors run conforms too (including the fault ledger).
#[test]
fn faulted_remote_run_conforms_to_faulted_local_run() {
    let mut scenario = shift_scenario();
    let plan = lsbench::core::faults::resolve_fault_plan("chaos-errors").expect("builtin plan");
    scenario.faults = Some(plan);
    scenario.validate().expect("plan fits scenario");

    let server = spawn_server("btree");
    let local = run_local(&scenario, "btree", 1);
    let remote = run_remote(&scenario, &server, 1);
    assert_eq!(remote.record, local.record);
    assert!(
        local.record.faults.injected > 0,
        "the chaos plan actually fired"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Unified timeout ledger: a real socket deadline and an injected timeout
// land in the same FaultStats fields and obs event kinds.
// ---------------------------------------------------------------------------

/// Wraps a registered SUT and wall-sleeps on chosen execute-call ordinals
/// (1-based, counted server-side) — long enough to blow the client's
/// socket deadline. With an 8-op frame and at-least-once resend, sleeping
/// at calls 3 and 11 times out both the first dispatch of the frame and
/// its retry.
struct SleepySut {
    inner: BoxedKvSut,
    calls: u64,
    sleep_at: Vec<u64>,
    sleep: Duration,
}

impl SystemUnderTest<Operation> for SleepySut {
    fn name(&self) -> String {
        "sleepy".to_string()
    }
    fn train(&mut self, budget: u64) -> u64 {
        self.inner.train(budget)
    }
    fn execute(&mut self, op: &Operation) -> lsbench::sut::Result<ExecOutcome> {
        self.calls += 1;
        if self.sleep_at.contains(&self.calls) {
            std::thread::sleep(self.sleep);
        }
        self.inner.execute(op)
    }
    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.inner.on_phase_change(new_phase)
    }
    fn maintenance(&mut self) -> u64 {
        self.inner.maintenance()
    }
    fn crash(&mut self) -> u64 {
        self.inner.crash()
    }
    fn metrics(&self) -> SutMetrics {
        self.inner.metrics()
    }
}

#[test]
fn socket_deadline_and_injected_timeout_share_one_ledger() {
    let scenario = shift_scenario();

    // Remote side: a server whose SUT wall-sleeps 800ms on execute calls
    // 3 and 11. The client runs with a 600ms socket deadline and one
    // retry. Timeline: the frame (server calls 1–8) replies at ~0.8s,
    // past the 0.6s deadline → timeout + resend; the resend (calls 9–16,
    // behind the abandoned work's mutex hold) replies at ~1.6s, past its
    // 1.2s deadline → timeout + give up (frame poisoned). The run is
    // capped at that one frame, so: exactly timeouts=2, retries=1.
    let mut registry = SutRegistry::default();
    registry.register("sleepy", "btree that naps mid-run", |data| {
        let inner = SutRegistry::default().build("btree", data)?;
        Ok(Box::new(SleepySut {
            inner,
            calls: 0,
            sleep_at: vec![3, 11],
            sleep: Duration::from_millis(800),
        }))
    });
    let server = WireServer::bind("127.0.0.1:0", registry, "sleepy")
        .expect("binds")
        .spawn()
        .expect("spawns");
    let retry = RetryPolicy {
        timeout: Some(0.6),
        max_retries: 1,
        ..RetryPolicy::default()
    };
    let mut remote = connect(&server, &scenario, retry);
    // Cap the run at exactly one frame: abandoned server-side work from
    // the poisoned frame cannot then cascade deadline expiries into later
    // frames, so the ledger is deterministic regardless of scheduling.
    let remote_outcome = Runner::new(&mut remote)
        .config(RunOptions {
            obs: ObsConfig::traced(),
            max_ops: 8,
            ..RunOptions::default()
        })
        .run(&scenario)
        .expect("remote run");
    // Disconnect before shutdown: the server joins its connection
    // threads, which are parked reading from live client connections.
    drop(remote);
    server.shutdown();

    // Local side: the same logical op (global index 2) hit by an injected
    // stall that exceeds the (virtual) timeout on every attempt — the
    // PR-4 semantics give exactly timeouts=2, retries=1 for one retry.
    let mut faulted = shift_scenario();
    faulted.faults = Some(FaultPlan {
        seed: 7,
        policy: RetryPolicy {
            timeout: Some(0.08),
            max_retries: 1,
            ..RetryPolicy::default()
        },
        faults: vec![FaultSpec::Stall {
            phase: 0,
            from_op: 2,
            ops: 1,
            duration: 10.0,
        }],
    });
    faulted.validate().expect("plan fits");
    let data = faulted.dataset.build().expect("dataset");
    let mut local = SutRegistry::default()
        .build("btree", &data)
        .expect("builds");
    let local_outcome = Runner::new(local.as_mut())
        .config(RunOptions {
            obs: ObsConfig::traced(),
            max_ops: 8,
            ..RunOptions::default()
        })
        .run(&faulted)
        .expect("local run");

    let (rf, lf) = (&remote_outcome.record.faults, &local_outcome.record.faults);
    // Field-for-field: the socket deadline lands in the *same* counters
    // an injected timeout does.
    assert_eq!(rf.timeouts, 2, "both dispatch attempts hit the deadline");
    assert_eq!(rf.retries, 1, "one transport-level resend");
    assert_eq!(lf.timeouts, rf.timeouts, "timeouts field parity");
    assert_eq!(lf.retries, rf.retries, "retries field parity");
    assert_eq!(lf.crashes, rf.crashes);
    // The injected path additionally counts the stall it injected; the
    // transport path injected nothing.
    assert_eq!(lf.injected, 1);
    assert_eq!(rf.injected, 0);

    // Same observability vocabulary: both runs narrate the failure with
    // identical event kinds and counts.
    let rt = remote_outcome.trace.as_ref().expect("remote trace");
    let lt = local_outcome.trace.as_ref().expect("local trace");
    assert_eq!(rt.count_kind("query_timed_out"), 2);
    assert_eq!(
        rt.count_kind("query_timed_out"),
        lt.count_kind("query_timed_out")
    );
    assert_eq!(rt.count_kind("query_retried"), 1);
    assert_eq!(
        rt.count_kind("query_retried"),
        lt.count_kind("query_retried")
    );

    // The poisoned frame surfaces as failed ops in the record — the run
    // completes rather than wedging on a slow server.
    assert!(remote_outcome.record.failures() >= 1);
    assert_eq!(
        remote_outcome.record.ops.len(),
        local_outcome.record.ops.len(),
        "every logical op is still accounted exactly once"
    );
}
