//! The run facade: the one way to run a scenario.
//!
//! **A run is [`Runner`] + [`RunOptions`]; modes are [`ExecutionMode`];
//! there is no other door.** Describe *how* to run with [`RunOptions`] (an
//! explicit [`ExecutionMode`], operation cap, hold-out, observability,
//! clock) and the [`Runner`] builds the SUT(s) once, hands them to the
//! execution core (`exec.rs`), and optionally runs the hold-out pass —
//! once, on the very SUT(s) the main run left behind (§V-A):
//!
//! ```text
//! Runner::new(&mut sut).config(opts).run(&scenario)?          // one SUT
//! Runner::from_factory(|data| build(data)).run(&scenario)?    // per-shard SUTs
//! ```
//!
//! The mode only picks the op partition, the SUT access and the driver:
//!
//! | mode         | partition              | SUT access                       | driver     |
//! |--------------|------------------------|----------------------------------|------------|
//! | `Serial`     | none                   | `&mut S`                         | inline     |
//! | `SharedLock` | round-robin to lanes   | `Mutex<&mut S>`, per dispatch    | inline × N |
//! | `Sharded`    | key-range router       | each lane owns its shard         | inline × N |
//! | `OpenLoop`   | round-robin to clients | `Mutex<&mut S>`, per event batch | event heap |
//!
//! * [`ExecutionMode::Serial`] → one inline client on the caller's thread.
//! * [`ExecutionMode::SharedLock`] → lanes over one shared SUT behind a
//!   mutex (a factory builds one SUT from the full dataset first). The
//!   lock provides physical exclusion only; virtual time assumes the lanes
//!   proceed in parallel. Deterministic for read-only workloads; with
//!   writes, SUT-internal adaptation may depend on thread interleaving.
//! * [`ExecutionMode::Sharded`] → the key space is split at dataset-key
//!   quantiles and each lane owns one factory-built shard. Deterministic
//!   even with writes, since each shard observes exactly its own
//!   key-ordered subsequence. With a single borrowed SUT there is nothing
//!   to shard, so this degrades to shared-lock lanes.
//! * [`ExecutionMode::OpenLoop`] → the event-heap scheduler multiplexes
//!   `clients` simulated open-loop clients onto `workers` threads; the
//!   scenario must carry an
//!   [`ArrivalSpec`](crate::scenario::ArrivalSpec).
//!
//! Lanes — not threads — determine results: a run with 4 lanes produces a
//! bit-identical record on 1, 2 or 4 worker threads
//! ([`RunOptions::threads`]).
//!
//! Every path reports through the same [`RunOutcome`]: the merged
//! [`RunRecord`], optional engine statistics, optional hold-out
//! comparison, and whatever the observability layer collected.

use crate::driver::run_serial;
use crate::engine::sched::run_heap;
use crate::engine::{run_lanes, shard_dataset, LaneSuts, Tuning};
use crate::holdout::{one_shot_scenario, HoldoutReport};
use crate::obs::{MetricsRegistry, ObsConfig, RunObserver, SpanNode, TraceLog};
use crate::record::RunRecord;
use crate::scenario::{ClockMode, Scenario};
use crate::{BenchError, Result};
use lsbench_stats::{IntervalCounts, LatencyHistogram};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A boxed key-value system under test, as produced by SUT factories and
/// the [`SutRegistry`](crate::sut_registry::SutRegistry).
pub type BoxedKvSut = Box<dyn SystemUnderTest<Operation> + Send>;

/// How a run executes: which concurrency model drives the scenario.
///
/// This replaces the old implicit `concurrency: usize` selection (where
/// `1` meant serial and anything larger meant "the engine, shared or
/// sharded depending on how the runner was built"). Each variant names
/// its model explicitly, so call sites say what they mean and the
/// open-loop client population is a first-class axis instead of being
/// conflated with worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// One operation at a time on one virtual clock (the serial policy).
    #[default]
    Serial,
    /// `workers` closed-loop lanes share one SUT behind a mutex.
    SharedLock {
        /// Logical lanes (and default worker threads).
        workers: usize,
    },
    /// The key space is split into `workers` range shards, each owned by
    /// one lane.
    Sharded {
        /// Number of shards/lanes (and default worker threads).
        workers: usize,
    },
    /// `clients` simulated open-loop clients are multiplexed onto
    /// `workers` threads by the event-heap scheduler. Requires the
    /// scenario to define an arrival process.
    OpenLoop {
        /// Simulated open-loop client population (may be millions).
        clients: usize,
        /// Worker threads the clients are multiplexed onto. Never affects
        /// results, only wall-clock speed.
        workers: usize,
    },
}

impl ExecutionMode {
    /// Rejects degenerate parameters (zero workers or clients).
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            ExecutionMode::Serial => true,
            ExecutionMode::SharedLock { workers } | ExecutionMode::Sharded { workers } => {
                workers >= 1
            }
            ExecutionMode::OpenLoop { clients, workers } => clients >= 1 && workers >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(BenchError::InvalidScenario(
                "ExecutionMode workers and clients must be at least 1".to_string(),
            ))
        }
    }

    /// Logical lanes: what partitions the op stream and so determines the
    /// record (the client count in open-loop mode, 1 for serial).
    pub(crate) fn lanes(&self) -> usize {
        match *self {
            ExecutionMode::Serial => 1,
            ExecutionMode::SharedLock { workers } | ExecutionMode::Sharded { workers } => workers,
            ExecutionMode::OpenLoop { clients, .. } => clients,
        }
    }

    /// Worker threads the mode runs on unless [`RunOptions::threads`] says
    /// otherwise (1 for serial) — also the worker count archive manifests
    /// record.
    pub fn workers(&self) -> usize {
        match *self {
            ExecutionMode::Serial => 1,
            ExecutionMode::SharedLock { workers }
            | ExecutionMode::Sharded { workers }
            | ExecutionMode::OpenLoop { workers, .. } => workers,
        }
    }

    /// Short human-readable label (`serial`, `shared`, `sharded`,
    /// `open-loop`) used by CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Serial => "serial",
            ExecutionMode::SharedLock { .. } => "shared",
            ExecutionMode::Sharded { .. } => "sharded",
            ExecutionMode::OpenLoop { .. } => "open-loop",
        }
    }
}

/// How a run executes, independent of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The execution mode (serial, shared-lock, sharded, or open-loop).
    pub mode: ExecutionMode,
    /// Physical worker-thread override for engine runs; `None` = the
    /// mode's `workers`. Never affects results, only wall-clock speed.
    pub threads: Option<usize>,
    /// Cap on executed operations.
    pub max_ops: u64,
    /// Also run the scenario's hold-out workload once after the main run
    /// and report the generalization ratio (§V-A).
    pub holdout: bool,
    /// What to observe (see [`ObsConfig`]); `ObsConfig::default()` collects
    /// metrics only, [`ObsConfig::traced`] adds the event trace and spans.
    pub obs: ObsConfig,
    /// Which clock the run reports on. [`ClockMode::Sim`] (the default)
    /// is the deterministic conformance oracle; [`ClockMode::Wall`]
    /// additionally captures host wall-clock timings into
    /// [`RunOutcome::wall`] without perturbing the virtual record.
    pub clock: ClockMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mode: ExecutionMode::Serial,
            threads: None,
            max_ops: u64::MAX,
            holdout: false,
            obs: ObsConfig::default(),
            clock: ClockMode::Sim,
        }
    }
}

impl RunOptions {
    /// Options running in the given [`ExecutionMode`].
    pub fn with_mode(mode: ExecutionMode) -> Self {
        RunOptions {
            mode,
            ..RunOptions::default()
        }
    }

    /// Physical worker threads of an engine run.
    pub(crate) fn worker_threads(&self) -> usize {
        self.threads.unwrap_or(self.mode.workers()).max(1)
    }
}

/// One pass through the execution core: the record, engine statistics for
/// lane and scheduler runs, wall statistics for a serial wall-clock run.
pub(crate) type Executed = (RunRecord, Option<EngineStats>, Option<WallStats>);

/// Concurrent-engine statistics carried through [`RunOutcome`] when the
/// run went through the engine, and stamped into archived
/// [`RunArtifact`](crate::results::RunArtifact)s (schema v3) so capacity
/// runs can report scheduler occupancy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Merged log-bucketed latency histogram (nanoseconds, virtual).
    pub latency: LatencyHistogram,
    /// Completions per fixed-width interval.
    pub completions: IntervalCounts,
    /// Worker threads used.
    pub threads: usize,
    /// Logical lanes used (the client count in open-loop mode).
    pub lanes: usize,
}

/// Host wall-clock statistics for a run executed with [`ClockMode::Wall`],
/// carried through [`RunOutcome::wall`] and stamped into archived
/// [`RunArtifact`](crate::results::RunArtifact)s (schema v4).
///
/// Wall data lives *beside* the virtual record, never inside it: the
/// work-unit [`RunRecord`] of a wall run is bit-identical to the sim run
/// of the same scenario, which is what keeps the virtual clock the
/// conformance oracle (pinned by `tests/determinism.rs` and
/// `tests/rank_agreement.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// Wall seconds from the end of training to the last completion.
    pub elapsed_seconds: f64,
    /// Operations measured.
    pub ops: u64,
    /// `ops / elapsed_seconds` (0 when elapsed rounds to zero).
    pub throughput: f64,
    /// Coordinated-omission-safe per-op wall latency histogram
    /// (nanoseconds): each op is charged its full dispatch-batch
    /// duration. Empty for engine-path runs, which report only the
    /// coarse elapsed/throughput pair.
    pub latency: LatencyHistogram,
}

impl WallStats {
    /// Packages a finished capture; computes throughput defensively.
    pub fn new(elapsed_seconds: f64, ops: u64, latency: LatencyHistogram) -> Self {
        let throughput = if elapsed_seconds > 0.0 {
            ops as f64 / elapsed_seconds
        } else {
            0.0
        };
        WallStats {
            elapsed_seconds,
            ops,
            throughput,
            latency,
        }
    }

    /// Coarse capture for engine-path runs: elapsed and throughput only,
    /// no per-op histogram (the engine's own latency histogram is virtual
    /// and lives in [`EngineStats`]).
    pub fn coarse(elapsed_seconds: f64, ops: u64) -> Self {
        WallStats::new(elapsed_seconds, ops, LatencyHistogram::new())
    }
}

/// Everything one [`Runner::run`] produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The merged run record (same shape for every execution path).
    pub record: RunRecord,
    /// Engine statistics when the run used the concurrent engine.
    pub engine: Option<EngineStats>,
    /// Host wall-clock statistics when the run used [`ClockMode::Wall`].
    pub wall: Option<WallStats>,
    /// Hold-out record and generalization comparison when
    /// [`RunOptions::holdout`] was set.
    pub holdout: Option<(RunRecord, HoldoutReport)>,
    /// Deterministic event trace when [`ObsConfig::trace`] was on.
    pub trace: Option<TraceLog>,
    /// Counters, gauges, and latency histograms from the run.
    pub metrics: MetricsRegistry,
    /// Wall-clock profiling spans when [`ObsConfig::trace`] was on.
    pub spans: Vec<SpanNode>,
}

/// A boxed per-shard SUT constructor, as held by [`Runner::from_factory`].
type SutFactory<'a> = Box<dyn FnMut(&Dataset) -> Result<BoxedKvSut> + 'a>;

/// The SUT type the runner drives (borrowed or factory-built).
type DynKvSut = dyn SystemUnderTest<Operation> + Send;

/// The system(s) under test a [`Runner`] drives.
enum RunnerSut<'a> {
    /// One caller-built SUT, already loaded with the scenario's dataset.
    Single(&'a mut DynKvSut),
    /// A constructor invoked per shard (or once, for the non-sharded
    /// modes) with the freshly built dataset.
    Factory(SutFactory<'a>),
}

/// The unified run facade. See the [module docs](self) for routing rules.
pub struct Runner<'a> {
    sut: RunnerSut<'a>,
    opts: RunOptions,
}

impl<'a> Runner<'a> {
    /// A runner over one caller-built SUT (already loaded with the
    /// scenario's dataset). The shared-lock and open-loop modes drive it
    /// directly; `Sharded` degrades to shared-lock (one SUT cannot be
    /// range-split).
    pub fn new(sut: &'a mut DynKvSut) -> Self {
        Runner {
            sut: RunnerSut::Single(sut),
            opts: RunOptions::default(),
        }
    }

    /// A runner that builds its SUT(s) from the scenario's dataset: once
    /// per key-range shard in `Sharded` mode, once otherwise.
    pub fn from_factory<F>(factory: F) -> Self
    where
        F: FnMut(&Dataset) -> Result<BoxedKvSut> + 'a,
    {
        Runner {
            sut: RunnerSut::Factory(Box::new(factory)),
            opts: RunOptions::default(),
        }
    }

    /// Sets the run options (builder style).
    pub fn config(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs the scenario: build the SUT(s) once (borrowed, factory-built,
    /// or factory-built per shard), run them through the execution core in
    /// the configured [`ExecutionMode`], then optionally the hold-out pass
    /// on the same SUT(s). Consumes the runner: one runner, one run, one
    /// hold-out pass.
    pub fn run(mut self, scenario: &Scenario) -> Result<RunOutcome> {
        self.opts.mode.validate()?;
        let opts = self.opts;
        let mut obs = RunObserver::new(opts.obs);
        let mut built: Vec<BoxedKvSut> = Vec::new();
        let mut router = None;
        if let RunnerSut::Factory(factory) = &mut self.sut {
            let span = obs.spans.enter("bulk-load");
            let data = scenario.dataset.build()?;
            if let ExecutionMode::Sharded { workers } = opts.mode {
                let (split, shards) = shard_dataset(&data, workers)?;
                built = shards.iter().map(factory).collect::<Result<_>>()?;
                router = Some(split);
            } else {
                built.push(factory(&data)?);
            }
            obs.spans.exit(span);
        }
        let mut suts = match (&mut self.sut, &router) {
            (RunnerSut::Single(sut), _) => LaneSuts::Shared(&mut **sut),
            (RunnerSut::Factory(_), Some(router)) => LaneSuts::Shards(&mut built, router),
            (RunnerSut::Factory(_), None) => LaneSuts::Shared(built[0].as_mut()),
        };

        let span = obs.spans.enter("run");
        // Engine runs have no per-op wall recorder; when clock=wall they
        // get a coarse elapsed/throughput capture of the pass itself —
        // dataset build and SUT construction are behind us.
        let coarse_start = Instant::now();
        let (record, engine, mut wall) = execute(&mut suts, scenario, &opts, &mut obs)?;
        obs.spans.exit(span);
        if engine.is_some() && opts.clock == ClockMode::Wall {
            let elapsed = coarse_start.elapsed().as_secs_f64();
            wall = Some(WallStats::coarse(elapsed, record.ops.len() as u64));
        }
        // The hold-out pass gives the SUT no adaptation opportunity and is
        // not observed, so the main run's trace stays a trace of the main
        // run. Shards re-run sharded; a single SUT runs it serially.
        let holdout = if opts.holdout {
            let span = obs.spans.enter("holdout");
            let one_shot = one_shot_scenario(scenario)?;
            let hold_opts = match suts {
                LaneSuts::Shards(..) => opts,
                LaneSuts::Shared(_) => RunOptions::default(),
            };
            let unobserved = &mut RunObserver::disabled();
            let (hold, _, _) = execute(&mut suts, &one_shot, &hold_opts, unobserved)?;
            obs.spans.exit(span);
            let cmp = HoldoutReport::new(&record, &hold)?;
            Some((hold, cmp))
        } else {
            None
        };
        let report = obs.finish()?;
        Ok(RunOutcome {
            record,
            engine,
            holdout,
            wall,
            trace: report.trace,
            metrics: report.metrics,
            spans: report.spans,
        })
    }
}

/// One pass through the execution core in `opts.mode`.
fn execute(
    suts: &mut LaneSuts<'_, DynKvSut>,
    scenario: &Scenario,
    opts: &RunOptions,
    obs: &mut RunObserver,
) -> Result<Executed> {
    match (opts.mode, suts) {
        (ExecutionMode::Serial, LaneSuts::Shared(sut)) => {
            run_serial(&mut **sut, scenario, opts, obs)
        }
        (ExecutionMode::OpenLoop { .. }, LaneSuts::Shared(sut)) => {
            run_heap(&mut **sut, scenario, opts, Tuning::default(), obs)
        }
        (_, suts) => run_lanes(suts, scenario, opts, Tuning::default(), obs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_sut::kv::BTreeSut;
    use lsbench_workload::keygen::KeyDistribution;
    use lsbench_workload::ops::OperationMix;
    use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};

    fn scenario() -> Scenario {
        Scenario::two_phase_shift(
            "runner-shift",
            KeyDistribution::Uniform,
            KeyDistribution::Normal {
                center: 0.1,
                std_frac: 0.02,
            },
            5_000,
            1_000,
            42,
        )
        .unwrap()
    }

    fn factory(data: &Dataset) -> Result<BoxedKvSut> {
        Ok(Box::new(
            BTreeSut::build(data).map_err(|e| BenchError::Sut(e.to_string()))?,
        ))
    }

    #[test]
    fn serial_runner_matches_direct_driver_call() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut direct_sut = BTreeSut::build(&data).unwrap();
        let unobserved = &mut RunObserver::disabled();
        let (direct, _, _) =
            run_serial(&mut direct_sut, &s, &RunOptions::default(), unobserved).unwrap();
        let mut runner_sut = BTreeSut::build(&data).unwrap();
        let outcome = Runner::new(&mut runner_sut).run(&s).unwrap();
        assert_eq!(outcome.record.ops, direct.ops);
        assert_eq!(outcome.record.exec_end, direct.exec_end);
        assert!(outcome.engine.is_none());
        assert!(outcome.trace.is_none());
        // Default observation still collects metrics.
        assert_eq!(
            outcome.metrics.counter("ops_completed"),
            direct.completed() as u64
        );
    }

    #[test]
    fn factory_sharded_mode_matches_direct_sharded_call() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let (router, shards) = shard_dataset(&data, 4).unwrap();
        let mut suts: Vec<BoxedKvSut> = shards.iter().map(|d| factory(d).unwrap()).collect();
        let opts = RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 });
        let mut shards: LaneSuts<'_, DynKvSut> = LaneSuts::Shards(&mut suts, &router);
        let unobserved = &mut RunObserver::disabled();
        let (direct, direct_stats, _) =
            run_lanes(&mut shards, &s, &opts, Tuning::default(), unobserved).unwrap();
        let outcome = Runner::from_factory(factory).config(opts).run(&s).unwrap();
        assert_eq!(outcome.record.ops, direct.ops);
        let stats = outcome.engine.expect("engine stats for concurrent run");
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.latency, direct_stats.unwrap().latency);
    }

    #[test]
    fn shared_lock_mode_uses_engine() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let outcome = Runner::new(&mut sut)
            .config(RunOptions::with_mode(ExecutionMode::SharedLock {
                workers: 2,
            }))
            .run(&s)
            .unwrap();
        assert_eq!(outcome.engine.as_ref().unwrap().lanes, 2);
        assert_eq!(outcome.record.completed(), 2_000);
    }

    #[test]
    fn holdout_option_reports_generalization() {
        let mut s = scenario();
        s.holdout = Some(
            PhasedWorkload::single(
                WorkloadPhase::new(
                    "holdout",
                    KeyDistribution::Uniform,
                    (0, 10_000_000),
                    OperationMix::ycsb_c(),
                    500,
                ),
                99,
            )
            .unwrap(),
        );
        let opts = RunOptions {
            holdout: true,
            ..RunOptions::default()
        };
        let outcome = Runner::from_factory(factory).config(opts).run(&s).unwrap();
        let (hold, cmp) = outcome.holdout.expect("hold-out requested");
        assert_eq!(hold.completed(), 500);
        assert!(cmp.generalization_ratio > 0.0);
        // Hold-out ops don't pollute the main run's metrics.
        assert_eq!(outcome.metrics.counter("ops_completed"), 2_000);
    }

    #[test]
    fn traced_run_produces_trace_and_spans() {
        let s = scenario();
        let opts = RunOptions {
            obs: ObsConfig::traced(),
            ..RunOptions::default()
        };
        let outcome = Runner::from_factory(factory).config(opts).run(&s).unwrap();
        let trace = outcome.trace.expect("trace requested");
        assert_eq!(trace.count_kind("run_end"), 1);
        assert_eq!(trace.phase_boundaries(), outcome.record.phase_change_times);
        let names: Vec<&str> = outcome.spans.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["bulk-load", "run"]);
    }

    #[test]
    fn engine_wall_window_excludes_dataset_build_and_sut_construction() {
        let s = scenario();
        let slow_factory = |data: &Dataset| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            factory(data)
        };
        let opts = RunOptions {
            clock: ClockMode::Wall,
            ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 2 })
        };
        let outcome = Runner::from_factory(slow_factory)
            .config(opts)
            .run(&s)
            .unwrap();
        let wall = outcome.wall.expect("wall stats in wall mode");
        assert!(
            wall.elapsed_seconds < 0.2,
            "[wall] counted setup: {}s",
            wall.elapsed_seconds
        );
        assert_eq!(wall.ops, outcome.record.ops.len() as u64);
    }

    #[test]
    fn degenerate_modes_rejected() {
        let s = scenario();
        for mode in [
            ExecutionMode::SharedLock { workers: 0 },
            ExecutionMode::Sharded { workers: 0 },
            ExecutionMode::OpenLoop {
                clients: 0,
                workers: 1,
            },
            ExecutionMode::OpenLoop {
                clients: 1,
                workers: 0,
            },
        ] {
            assert!(mode.validate().is_err(), "{mode:?} should be invalid");
            let opts = RunOptions::with_mode(mode);
            assert!(Runner::from_factory(factory).config(opts).run(&s).is_err());
        }
    }

    #[test]
    fn open_loop_mode_requires_arrival_spec() {
        let s = scenario(); // closed loop: no arrival section
        let opts = RunOptions::with_mode(ExecutionMode::OpenLoop {
            clients: 4,
            workers: 2,
        });
        assert!(Runner::from_factory(factory).config(opts).run(&s).is_err());
    }
}
