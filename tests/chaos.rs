//! Chaos conformance suite: the fault-injection harness must be
//! *deterministic*, *zero-cost when absent*, and *honest in the metrics*.
//!
//! Three properties anchor it (ISSUE 4 acceptance):
//!
//! 1. **Worker-count invariance under faults** — a faulted run merges to
//!    a bit-identical `RunRecord` whether one or four threads executed
//!    it: every fault decision is a pure function of the plan seed and
//!    the operation's global stream index.
//! 2. **Exact passthrough** — attaching an *empty* fault plan produces a
//!    record bit-identical to running with no plan at all; the faulted
//!    code path degenerates to the unfaulted arithmetic.
//! 3. **SLA attribution** — failed and timed-out queries are SLA
//!    violations regardless of how fast the client observed them, and
//!    the trace/counters/record accounting all agree on how many faults
//!    fired.

use lsbench::core::faults::{FaultPlan, FaultSpec, FaultStats, RetryPolicy};
use lsbench::core::metrics::sla::SlaReport;
use lsbench::core::obs::ObsConfig;
use lsbench::core::record::RunRecord;
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::BenchError;
use lsbench::sut::kv::{RetrainPolicy, RmiSut};
use lsbench::workload::dataset::Dataset;
use lsbench::workload::keygen::KeyDistribution;

fn scenario(seed: u64) -> Scenario {
    Scenario::two_phase_shift(
        "chaos",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Zipf { theta: 1.2 },
        20_000,
        3_000,
        seed,
    )
    .expect("valid scenario")
}

/// A plan exercising every fault kind that can run on shared or sharded
/// SUTs, plus a timeout/retry policy tight enough that stalled ops blow
/// through the timeout.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        policy: RetryPolicy {
            timeout: Some(0.002),
            max_retries: 2,
            backoff_base: 5e-4,
            backoff_multiplier: 2.0,
        },
        faults: vec![
            FaultSpec::TransientErrors {
                phase: None,
                rate: 0.05,
            },
            FaultSpec::LatencySpike {
                phase: Some(1),
                add_work: 0,
                factor: 3.0,
            },
            // 2.5 virtual seconds spread over ops [1000, 1500) of phase 0:
            // 5ms per stalled op, past the 2ms timeout.
            FaultSpec::Stall {
                phase: 0,
                from_op: 1000,
                ops: 500,
                duration: 2.5,
            },
            FaultSpec::Crash {
                phase: 1,
                at_op: 1500,
            },
        ],
    }
}

fn factory(data: &Dataset) -> Result<BoxedKvSut, BenchError> {
    Ok(Box::new(
        RmiSut::build("rmi", data, RetrainPolicy::DeltaFraction(0.05))
            .map_err(|e| BenchError::Sut(e.to_string()))?,
    ))
}

fn assert_records_identical(a: &RunRecord, b: &RunRecord) {
    assert_eq!(a.ops, b.ops, "per-op records must be bit-identical");
    assert_eq!(a.exec_start, b.exec_start);
    assert_eq!(a.exec_end, b.exec_end);
    assert_eq!(a.train, b.train);
    assert_eq!(a.phase_change_times, b.phase_change_times);
    assert_eq!(a.final_metrics, b.final_metrics);
    assert_eq!(a.faults, b.faults);
}

// ---------------------------------------------------------------------
// Property 1: faulted runs are worker-count invariant.
// ---------------------------------------------------------------------

#[test]
fn faulted_run_is_bit_identical_across_worker_counts() {
    let mut s = scenario(13);
    s.faults = Some(chaos_plan());
    s.validate().expect("plan fits the scenario");
    let run = |threads: usize| {
        let rmi_shard = |d: &Dataset| {
            let sut = RmiSut::build("rmi", d, RetrainPolicy::DeltaFraction(0.05)).unwrap();
            Ok(Box::new(sut) as BoxedKvSut)
        };
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 })
        };
        Runner::from_factory(rmi_shard)
            .config(opts)
            .run(&s)
            .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_records_identical(&one.record, &four.record);
    let (stats1, stats4) = (one.engine.unwrap(), four.engine.unwrap());
    assert_eq!(stats1.latency, stats4.latency);
    assert_eq!(stats1.completions, stats4.completions);
    // The plan actually did something — this is not passthrough.
    let f = &one.record.faults;
    assert!(f.injected > 0, "faults injected: {f:?}");
    assert!(f.timeouts > 0, "stalled ops must time out: {f:?}");
    assert!(f.retries > 0, "timeouts and errors must retry: {f:?}");
    assert_eq!(f.crashes, 1, "exactly one crash-restart: {f:?}");
}

#[test]
fn faulted_serial_run_is_reproducible() {
    let run = || {
        let mut s = scenario(7);
        s.faults = Some(chaos_plan());
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        Runner::new(&mut sut).run(&s).unwrap().record
    };
    let a = run();
    let b = run();
    assert_records_identical(&a, &b);
}

// ---------------------------------------------------------------------
// Property 2: an empty plan is an exact passthrough.
// ---------------------------------------------------------------------

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let run = |faults: Option<FaultPlan>| {
        let mut s = scenario(29);
        s.faults = faults;
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        Runner::new(&mut sut).run(&s).unwrap().record
    };
    let bare = run(None);
    let wrapped = run(Some(FaultPlan {
        seed: 999,
        policy: RetryPolicy::default(),
        faults: vec![],
    }));
    assert_records_identical(&bare, &wrapped);
    assert_eq!(wrapped.faults, FaultStats::default());
}

#[test]
fn empty_plan_is_bit_identical_on_the_concurrent_engine() {
    let run = |faults: Option<FaultPlan>| {
        let mut s = scenario(31);
        s.faults = faults;
        Runner::from_factory(factory)
            .config(RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 }))
            .run(&s)
            .expect("run succeeds")
    };
    let bare = run(None);
    let wrapped = run(Some(FaultPlan {
        seed: 1234,
        policy: RetryPolicy::default(),
        faults: vec![],
    }));
    assert_records_identical(&bare.record, &wrapped.record);
}

// ---------------------------------------------------------------------
// Property 3: SLA attribution and accounting agree everywhere.
// ---------------------------------------------------------------------

#[test]
fn failed_queries_are_sla_violations_no_matter_how_fast() {
    // 20% error rate, no retries: roughly a fifth of ops fail, and every
    // failure must land in the violated/red buckets even under an SLA
    // threshold no successful op can miss.
    let mut s = scenario(41);
    s.faults = Some(FaultPlan {
        seed: 7,
        policy: RetryPolicy::default(),
        faults: vec![FaultSpec::TransientErrors {
            phase: None,
            rate: 0.2,
        }],
    });
    let data = s.dataset.build().unwrap();
    let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    let record = Runner::new(&mut sut).run(&s).unwrap().record;
    let failures = record.failures();
    assert!(failures > 500, "20% of 6000 ops should fail: {failures}");
    let report = SlaReport::from_record(&record, 1.0, record.exec_end.max(1.0), 50).unwrap();
    let violated: usize = report.bands.iter().map(|b| b.violated).sum();
    let red: usize = report.color_bands.iter().map(|c| c.red).sum();
    assert_eq!(violated, failures, "every failure is a violation");
    assert_eq!(red, failures, "every failure is a red band");
    let expected = failures as f64 / record.ops.len() as f64;
    assert!((report.violation_fraction - expected).abs() < 1e-12);
}

#[test]
fn retries_mask_transient_errors_but_cost_virtual_time() {
    let run = |faults: Option<FaultPlan>| {
        let mut s = scenario(43);
        s.faults = faults;
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        Runner::new(&mut sut).run(&s).unwrap().record
    };
    let bare = run(None);
    let faulted = run(Some(FaultPlan {
        seed: 7,
        policy: RetryPolicy {
            max_retries: 5,
            ..RetryPolicy::default()
        },
        faults: vec![FaultSpec::TransientErrors {
            phase: None,
            rate: 0.05,
        }],
    }));
    // With 5 retries against a 5% error rate, effectively every op
    // eventually succeeds — but the retries and their backoff are charged
    // on the virtual clock.
    assert_eq!(faulted.failures(), 0, "retries absorb transient errors");
    assert!(faulted.faults.injected > 0);
    assert!(faulted.faults.retries >= faulted.faults.injected);
    assert!(
        faulted.exec_end > bare.exec_end,
        "retry backoff must cost virtual time: {} vs {}",
        faulted.exec_end,
        bare.exec_end
    );
}

#[test]
fn stalled_ops_time_out_and_fail_with_exact_accounting() {
    // Only a stall fault + a 1-retry timeout policy: the 500 ops in the
    // window take 5ms each against a 2ms budget, so both attempts of each
    // stalled op time out and the op fails; nothing else is perturbed.
    let mut s = scenario(47);
    s.faults = Some(FaultPlan {
        seed: 3,
        policy: RetryPolicy {
            timeout: Some(0.002),
            max_retries: 1,
            ..RetryPolicy::default()
        },
        faults: vec![FaultSpec::Stall {
            phase: 0,
            from_op: 1000,
            ops: 500,
            duration: 2.5,
        }],
    });
    let data = s.dataset.build().unwrap();
    let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
    let record = Runner::new(&mut sut).run(&s).unwrap().record;
    assert_eq!(record.faults.injected, 500, "one stall per window op");
    assert_eq!(record.faults.timeouts, 1000, "two timed-out attempts each");
    assert_eq!(record.faults.retries, 500, "one retry each");
    assert_eq!(record.failures(), 500, "stalled ops fail after retries");
    // The client walked away at the timeout: observed latency stays near
    // 2 × timeout + backoff even though the server burned ≥ 10ms each.
    let worst = record
        .ops
        .iter()
        .filter(|o| !o.ok)
        .map(|o| o.latency)
        .fold(0.0f64, f64::max);
    assert!(
        worst < 0.01,
        "observed latency must be capped by the timeout, got {worst}"
    );
}

#[test]
fn trace_counters_and_record_accounting_agree() {
    let mut s = scenario(53);
    s.faults = Some(chaos_plan());
    let outcome = Runner::from_factory(factory)
        .config(RunOptions {
            obs: ObsConfig::traced(),
            ..RunOptions::default()
        })
        .run(&s)
        .expect("run succeeds");
    let record = &outcome.record;
    let trace = outcome.trace.expect("tracing was requested");
    assert_eq!(
        trace.count_kind("fault_injected") as u64,
        record.faults.injected
    );
    assert_eq!(
        trace.count_kind("query_retried") as u64,
        record.faults.retries
    );
    assert_eq!(
        trace.count_kind("query_timed_out") as u64,
        record.faults.timeouts
    );
    assert_eq!(
        outcome.metrics.counter("faults_injected"),
        record.faults.injected
    );
    assert_eq!(
        outcome.metrics.counter("query_retries"),
        record.faults.retries
    );
    assert_eq!(
        outcome.metrics.counter("query_timeouts"),
        record.faults.timeouts
    );
    assert!(record.faults.injected > 0, "the plan must actually fire");
}

#[test]
fn crash_drops_learned_state_and_charges_recovery_time() {
    let run = |faults: Option<FaultPlan>| {
        let mut s = scenario(59);
        s.faults = faults;
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        Runner::new(&mut sut).run(&s).unwrap().record
    };
    let bare = run(None);
    let crashed = run(Some(FaultPlan {
        seed: 1,
        policy: RetryPolicy::default(),
        faults: vec![FaultSpec::Crash {
            phase: 1,
            at_op: 1500,
        }],
    }));
    assert_eq!(crashed.faults.crashes, 1);
    assert!(
        crashed.final_metrics.adaptations > bare.final_metrics.adaptations,
        "the rebuild after the crash is an adaptation: {} vs {}",
        crashed.final_metrics.adaptations,
        bare.final_metrics.adaptations
    );
    assert!(
        crashed.exec_end > bare.exec_end,
        "recovery work must cost virtual time: {} vs {}",
        crashed.exec_end,
        bare.exec_end
    );
}

#[test]
fn shipped_chaos_specs_parse_run_and_fire() {
    for (file, expect_crash) in [
        ("scenarios/chaos_errors.spec", false),
        ("scenarios/chaos_stall.spec", false),
        ("scenarios/chaos_crash.spec", true),
    ] {
        let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let s =
            lsbench::core::spec::parse_scenario(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let plan = s
            .faults
            .as_ref()
            .unwrap_or_else(|| panic!("{file}: no plan"));
        assert!(!plan.faults.is_empty(), "{file}: plan has no faults");
        let data = s.dataset.build().unwrap();
        let mut sut = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        let record = Runner::new(&mut sut).run(&s).unwrap().record;
        assert!(record.faults.injected > 0, "{file}: plan never fired");
        assert_eq!(record.faults.crashes > 0, expect_crash, "{file}");
    }
}
