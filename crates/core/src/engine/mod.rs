//! The concurrent execution engine.
//!
//! The serial policy runs one client on the caller's thread. This module
//! runs the same scenarios — through the same execution core (`exec.rs`)
//! — with **N logical lanes** mapped onto **M worker
//! threads**, in either of the two textbook load models:
//!
//! * **Closed loop** — each lane issues its next operation as soon as the
//!   previous one completes; latency is pure service time.
//! * **Open loop** — operations arrive on their own schedule, taken from
//!   the scenario's [`ArrivalSpec`](crate::scenario::ArrivalSpec). Every
//!   operation's *intended* start time comes from the seeded arrival
//!   process, and latency is *completion − intended start*. A lane that
//!   falls behind does not slow the arrival schedule down, so queueing
//!   delay is fully charged to the operations that queued — the
//!   measurement is **coordinated-omission-safe**.
//!
//! Lanes — not threads — determine results: every lane is one client of
//! the core on its own virtual clock over its own operation subsequence,
//! so a run with 4 lanes produces bit-identical merged output whether it
//! used 1, 2, or 4 worker threads. The partition is a pure function of the
//! stream (index or key): one helper thread deals it while the workers run
//! (lane → worker by `lane % threads`), so workers share nothing but the
//! SUT and the helper's queues.
//!
//! The module is crate-private: an
//! [`ExecutionMode`](crate::runner::ExecutionMode) of the
//! [`Runner`](crate::runner::Runner) chooses the op partition, the SUT
//! access and the driver (the table in [`crate::runner`]) — [`run_lanes`]
//! for `SharedLock` and `Sharded`, [`sched::run_heap`] for `OpenLoop`.
//! Either returns a [`RunRecord`](crate::record::RunRecord) of the exact
//! shape the serial policy produces, so adaptability, SLA-band, and
//! specialization metrics work on concurrent runs unchanged; the runner
//! restates the [`EngineStats`](crate::runner::EngineStats) from it.

pub(crate) mod latency;
mod merge;
pub(crate) mod sched;
mod shard;
mod worker;

pub(crate) use shard::{shard_dataset, KeyRouter};

use crate::exec::{
    lock, made_ahead, op_count, prologue, scenario_ops, CoreOp, Dealt, RunPlan, Sinks, SutRef,
};
use crate::obs::RunObserver;
use crate::runner::{BoxedKvSut, Executed, RunOptions};
use crate::scenario::{ClockMode, Scenario};
use crate::{BenchError, Result};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::ops::Operation;
use merge::{finish_engine, sum_metrics, EngineShape};
use std::sync::Mutex;
use worker::LaneJob;

/// Turns the raw arrival schedule of a stream into the lane modes' one, op
/// by op, in stream order: per-phase
/// [`concurrency_burst`](lsbench_workload::phases::WorkloadPhase::concurrency_burst)
/// factors divide the inter-arrival gaps while their phase is active, so a
/// burst of 2.0 doubles the offered load for that stretch of the stream.
/// (The serial policy and the open-loop scheduler keep the raw process:
/// there the arrival process *is* the offered load.) A no-op on a
/// closed-loop stream.
pub(crate) fn scale_bursts(scenario: &Scenario) -> impl FnMut(&mut CoreOp<Operation>) + '_ {
    let phases = scenario.workload.phases();
    let (mut raw_prev, mut scaled) = (0.0f64, 0.0f64);
    move |op| {
        let Some(raw) = op.meta.arrival else { return };
        let gap = raw - raw_prev;
        raw_prev = raw;
        let phase = phases.get(usize::from(op.meta.phase));
        scaled += gap / phase.map_or(1.0, |p| p.concurrency_burst);
        op.meta.arrival = Some(scaled);
    }
}

/// The lane modes' op source: `ops` with [`scale_bursts`] applied, each op
/// dealt to its lane — op `i` to lane `i mod lanes` over one shared SUT, to
/// the shard owning its key under a `router` — and announcing its phase
/// if it is the first op of that phase the SUT gets: the globally first on
/// a shared SUT, its shard's first on a shard.
fn deal<'a>(
    scenario: &'a Scenario,
    router: Option<&'a KeyRouter>,
    lanes: usize,
    ops: impl Iterator<Item = CoreOp<Operation>> + 'a,
) -> impl Iterator<Item = (usize, CoreOp<Operation>)> + 'a {
    let mut scale = scale_bursts(scenario);
    let mut seen_phase = vec![0u16; lanes];
    ops.map(move |mut op| {
        scale(&mut op);
        let (lane, seen) = match router {
            None => (op.meta.idx as usize % lanes, &mut seen_phase[0]),
            Some(router) => {
                let lane = router.route(&op.op);
                (lane, &mut seen_phase[lane])
            }
        };
        op.meta.announce = op.meta.phase != std::mem::replace(seen, op.meta.phase);
        (lane, op)
    })
}

/// The SUT(s) a lane run executes against.
pub(crate) enum LaneSuts<'a, S: ?Sized> {
    /// One SUT shared by every lane; ops are dealt round-robin
    /// (`stream index mod lanes`).
    Shared(&'a mut S),
    /// `shards[i]` owns shard `i` of the key space and is driven by lane
    /// `i`; the lane of every op is `router.route(op)`.
    Shards(&'a mut [BoxedKvSut], &'a KeyRouter),
}

/// The lane engine: one helper thread deals the stream to the lanes while
/// every lane runs as one inline client of the core on a scoped worker;
/// then the lanes merge.
pub(crate) fn run_lanes<S>(
    suts: &mut LaneSuts<'_, S>,
    scenario: &Scenario,
    opts: &RunOptions,
    obs: &mut RunObserver,
) -> Result<Executed>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
{
    let ops = || scenario_ops(scenario, opts.max_ops);
    lanes_over(suts, scenario, opts, obs, ops)
}

/// [`run_lanes`] over the op source `ops` makes once the run is checked.
fn lanes_over<S, I>(
    suts: &mut LaneSuts<'_, S>,
    scenario: &Scenario,
    opts: &RunOptions,
    obs: &mut RunObserver,
    ops: impl FnOnce() -> Result<I>,
) -> Result<Executed>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
    I: Iterator<Item = CoreOp<Operation>> + Send,
{
    let plan = RunPlan::from_scenario(scenario)?;
    let (lanes, router) = match suts {
        LaneSuts::Shared(_) => (opts.mode.lanes(), None),
        LaneSuts::Shards(shards, router) if shards.len() == router.shards() => {
            (shards.len(), Some(*router))
        }
        LaneSuts::Shards(shards, router) => {
            return Err(BenchError::InvalidScenario(format!(
                "router splits {} ways but {} shard SUTs were given",
                router.shards(),
                shards.len()
            )))
        }
    };
    let dealt = deal(scenario, router, lanes, ops()?);
    let threads = opts.worker_threads().min(lanes);
    let shape = EngineShape {
        lanes,
        threads,
        stable_lanes: true,
    };
    // Room for every op in each lane's sinks: a lane that gets nearly every
    // op (a skewed shard) never regrows them, and what a lane does not
    // write is never touched.
    let ops_hint = plan.ops_hint.min(op_count(scenario, opts.max_ops));
    // A worker's first lane reads its queue at once; the lanes behind it
    // take theirs unbounded.
    let bounded = |lane| lane < threads;
    let run = |queues: Vec<Dealt<Operation>>| {
        let started = match suts {
            LaneSuts::Shared(sut) => prologue(plan, [&mut **sut], obs),
            LaneSuts::Shards(shards, _) => {
                prologue(plan, shards.iter_mut().map(|s| s.as_mut()), obs)
            }
        };
        let params = &started.plan.params;
        let inputs = queues.into_iter().enumerate().map(|(lane, ops)| {
            let sinks = Sinks::new(obs.lane_obs(lane), ClockMode::Sim, ops_hint, false);
            (lane, ops, sinks)
        });
        let (results, final_metrics) = match suts {
            LaneSuts::Shared(sut) => {
                let mutex = Mutex::new(&mut **sut);
                let jobs = inputs.map(|(lane, ops, sinks)| LaneJob {
                    lane,
                    ops,
                    sinks,
                    sut: SutRef::Shared(&mutex),
                });
                let results = worker::run_lane_jobs(jobs.collect(), threads, params)?;
                let final_metrics = lock(&mutex)?.metrics();
                (results, final_metrics)
            }
            LaneSuts::Shards(shards, _) => {
                let jobs = inputs
                    .zip(shards.iter_mut())
                    .map(|((lane, ops, sinks), shard)| LaneJob {
                        lane,
                        ops,
                        sinks,
                        sut: SutRef::Owned(shard.as_mut()),
                    });
                let results = worker::run_lane_jobs(jobs.collect(), threads, params)?;
                (results, sum_metrics(shards.iter().map(|s| s.metrics())))
            }
        };
        Ok(finish_engine(started, results, final_metrics, shape, obs))
    };
    made_ahead(dealt, lanes, bounded, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{unpaced_ops, CHUNK, CHUNKS};
    use crate::obs::ObsConfig;
    use crate::runner::{EngineStats, ExecutionMode, RunOutcome, Runner};
    use crate::scenario::ArrivalSpec;
    use lsbench_sut::kv::BTreeSut;
    use lsbench_sut::sut::{ExecOutcome, SutMetrics};
    use lsbench_sut::{Result as SutResult, SutError};
    use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
    use lsbench_workload::dataset::Dataset;
    use lsbench_workload::keygen::KeyDistribution;
    use lsbench_workload::ops::OperationMix;
    use lsbench_workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};
    use std::sync::{Arc, Condvar};

    fn shift_scenario() -> Scenario {
        Scenario::two_phase_shift(
            "engine-shift",
            KeyDistribution::Uniform,
            KeyDistribution::Normal {
                center: 0.1,
                std_frac: 0.02,
            },
            5_000,
            2_000,
            42,
        )
        .unwrap()
    }

    /// The lane modes' intended arrivals (offsets from `exec_start`).
    fn lane_arrivals(s: &Scenario) -> Vec<f64> {
        let mut scale = scale_bursts(s);
        let ops = scenario_ops(s, u64::MAX).unwrap();
        ops.map(|mut op| {
            scale(&mut op);
            op.meta.arrival.unwrap()
        })
        .collect()
    }

    fn btree(data: &Dataset) -> Result<BoxedKvSut> {
        Ok(Box::new(BTreeSut::build(data).unwrap()))
    }

    fn shared(workers: usize) -> RunOptions {
        RunOptions::with_mode(ExecutionMode::SharedLock { workers })
    }

    /// Four key-range shards on `threads` worker threads.
    fn sharded4(s: &Scenario, threads: usize) -> RunOutcome {
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 })
        };
        Runner::from_factory(btree).config(opts).run(s).unwrap()
    }

    fn stats(outcome: &RunOutcome) -> &EngineStats {
        outcome.engine.as_ref().expect("an engine run")
    }

    #[test]
    fn lanes1_closed_loop_matches_serial_driver() {
        let s = shift_scenario();
        let data = s.dataset.build().unwrap();
        let mut serial_sut = BTreeSut::build(&data).unwrap();
        let serial = Runner::new(&mut serial_sut).run(&s).unwrap().record;
        let mut engine_sut = BTreeSut::build(&data).unwrap();
        let report = Runner::new(&mut engine_sut)
            .config(shared(1))
            .run(&s)
            .unwrap();
        // One lane, closed loop: the engine *is* the serial driver —
        // bit-identical virtual timeline, not just statistically close.
        assert_eq!(report.record.ops, serial.ops);
        assert_eq!(report.record.phase_change_times, serial.phase_change_times);
        assert_eq!(report.record.exec_start, serial.exec_start);
        assert_eq!(report.record.exec_end, serial.exec_end);
        assert_eq!(report.record.final_metrics, serial.final_metrics);
        assert_eq!(stats(&report).latency.total(), serial.ops.len() as u64);
        assert_eq!(stats(&report).completions.total(), serial.ops.len() as u64);
    }

    #[test]
    fn shared_mode_is_thread_invariant_for_reads() {
        let s = shift_scenario();
        let data = s.dataset.build().unwrap();
        let run = |threads: usize| {
            let mut sut = BTreeSut::build(&data).unwrap();
            let opts = RunOptions {
                threads: Some(threads),
                ..shared(4)
            };
            Runner::new(&mut sut).config(opts).run(&s).unwrap()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        for other in [&two, &four] {
            assert_eq!(one.record.ops, other.record.ops);
            assert_eq!(
                one.record.phase_change_times,
                other.record.phase_change_times
            );
            assert_eq!(one.record.exec_end, other.record.exec_end);
            assert_eq!(stats(&one).latency, stats(other).latency);
            assert_eq!(stats(&one).completions, stats(other).completions);
        }
        assert_eq!(one.record.ops.len(), 4_000);
    }

    #[test]
    fn sharded_lanes_raise_throughput() {
        let s = shift_scenario();
        let data = s.dataset.build().unwrap();
        let mut serial_sut = BTreeSut::build(&data).unwrap();
        let serial = Runner::new(&mut serial_sut).run(&s).unwrap().record;
        let report = sharded4(&s, 4);
        assert_eq!(report.record.completed(), serial.completed());
        // Four closed-loop lanes advance four clocks in parallel, so the
        // merged run finishes far sooner than the serial one.
        assert!(
            report.record.mean_throughput() > 2.0 * serial.mean_throughput(),
            "sharded {} vs serial {}",
            report.record.mean_throughput(),
            serial.mean_throughput()
        );
    }

    #[test]
    fn sharded_mode_is_thread_invariant_with_writes() {
        let mut s = shift_scenario();
        let key_range = (0u64, 10_000_000u64);
        let write_mix = OperationMix {
            read: 0.6,
            insert: 0.3,
            update: 0.1,
            scan: 0.0,
            delete: 0.0,
            max_scan_len: 0,
        };
        s.workload = PhasedWorkload::new(
            vec![
                WorkloadPhase::new(
                    "reads",
                    KeyDistribution::Uniform,
                    key_range,
                    OperationMix::ycsb_c(),
                    2_000,
                ),
                WorkloadPhase::new(
                    "writes",
                    KeyDistribution::Uniform,
                    key_range,
                    write_mix,
                    2_000,
                ),
            ],
            vec![TransitionKind::Abrupt],
            42,
        )
        .unwrap();
        let one = sharded4(&s, 1);
        let two = sharded4(&s, 2);
        let four = sharded4(&s, 4);
        for other in [&two, &four] {
            // Key-range routing fixes each shard's op subsequence, so even
            // mutating workloads merge identically for any thread count.
            assert_eq!(one.record.ops, other.record.ops);
            assert_eq!(
                one.record.phase_change_times,
                other.record.phase_change_times
            );
            assert_eq!(one.record.exec_end, other.record.exec_end);
            assert_eq!(one.record.final_metrics, other.record.final_metrics);
            assert_eq!(stats(&one).latency, stats(other).latency);
            assert_eq!(stats(&one).completions, stats(other).completions);
        }
        assert_eq!(one.record.completed(), 4_000);
    }

    /// A deliberately slow SUT: 200 work units per op = 5 000 ops/s
    /// capacity at the default 1 M work-units/s rate.
    struct SlowSut;
    impl SystemUnderTest<Operation> for SlowSut {
        fn name(&self) -> String {
            "slow".to_string()
        }
        fn train(&mut self, _budget: u64) -> u64 {
            0
        }
        fn execute(&mut self, _op: &Operation) -> SutResult<ExecOutcome> {
            Ok(ExecOutcome::ok(200))
        }
        fn metrics(&self) -> SutMetrics {
            SutMetrics::default()
        }
    }

    #[test]
    fn open_loop_overload_charges_queueing_delay() {
        // 10k ops/s offered against a 5k ops/s server: the queue grows for
        // the whole run. A coordinated-omission-prone driver would report
        // flat per-op service times; measuring from *intended* start makes
        // the linearly growing wait visible.
        let mut s = shift_scenario();
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Uniform { rate: 10_000.0 },
            modulation: LoadModulation::Constant,
            seed: 9,
        });
        let mut sut = SlowSut;
        let report = Runner::new(&mut sut).config(shared(1)).run(&s).unwrap();
        let ops = &report.record.ops;
        assert_eq!(ops.len(), 4_000);
        let mean = |slice: &[crate::record::OpRecord]| {
            slice.iter().map(|o| o.latency).sum::<f64>() / slice.len() as f64
        };
        let early = mean(&ops[..200]);
        let late = mean(&ops[ops.len() - 200..]);
        assert!(
            late > 10.0 * early,
            "queueing delay should grow: early {early} late {late}"
        );
        // Every op's latency is at least its 200-unit service time.
        assert!(ops.iter().all(|o| o.latency >= 200.0 / 1e6));
    }

    #[test]
    fn lane_arrivals_track_poisson_rate() {
        let mut s = shift_scenario();
        let rate = 5_000.0;
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson { rate },
            modulation: LoadModulation::Constant,
            seed: 17,
        });
        let times = lane_arrivals(&s);
        assert_eq!(times.len(), 4_000);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times[0] >= 0.0);
        let span = *times.last().unwrap();
        let observed = times.len() as f64 / span;
        assert!(
            (observed - rate).abs() / rate < 0.1,
            "observed rate {observed} vs {rate}"
        );
    }

    #[test]
    fn concurrency_burst_compresses_phase_arrivals() {
        let mut s = shift_scenario();
        let key_range = (0u64, 10_000_000u64);
        let phase = |name: &str, ops| {
            WorkloadPhase::new(
                name,
                KeyDistribution::Uniform,
                key_range,
                OperationMix::ycsb_c(),
                ops,
            )
        };
        s.workload = PhasedWorkload::new(
            vec![
                phase("steady", 2_000),
                phase("burst", 2_000).with_concurrency_burst(2.0),
            ],
            vec![TransitionKind::Abrupt],
            7,
        )
        .unwrap();
        s.arrival = Some(ArrivalSpec {
            process: ArrivalProcess::Uniform { rate: 1_000.0 },
            modulation: LoadModulation::Constant,
            seed: 7,
        });
        let times = lane_arrivals(&s);
        let span0 = times[1_999] - times[0];
        let span1 = times[3_999] - times[2_000];
        // Burst 2.0 halves the inter-arrival gaps, doubling offered load.
        let ratio = span0 / span1;
        assert!((ratio - 2.0).abs() < 0.02, "span ratio {ratio}");
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        let s = shift_scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        for bad in [
            ExecutionMode::SharedLock { workers: 0 },
            ExecutionMode::Sharded { workers: 0 },
        ] {
            let opts = RunOptions::with_mode(bad);
            assert!(Runner::new(&mut sut).config(opts).run(&s).is_err());
        }
        // Shard-count mismatch is rejected too.
        let (router, datasets) = shard_dataset(&data, 3).unwrap();
        let mut suts: Vec<BoxedKvSut> = datasets[..2].iter().map(|d| btree(d).unwrap()).collect();
        let mut shards: LaneSuts<'_, dyn SystemUnderTest<Operation> + Send> =
            LaneSuts::Shards(&mut suts, &router);
        let obs = &mut RunObserver::new(ObsConfig::default());
        let opts = RunOptions::with_mode(ExecutionMode::Sharded { workers: 3 });
        assert!(run_lanes(&mut shards, &s, &opts, obs).is_err());
    }

    #[test]
    fn max_ops_caps_the_stream() {
        let s = shift_scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let opts = RunOptions {
            max_ops: 100,
            ..shared(2)
        };
        let report = Runner::new(&mut sut).config(opts).run(&s).unwrap();
        assert_eq!(report.record.completed(), 100);
    }

    /// Opens once, for every waiter.
    #[derive(Default)]
    struct Gate(Mutex<bool>, Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let open = self.0.lock().unwrap();
            drop(self.1.wait_while(open, |open| !*open).unwrap());
        }
    }

    /// A SUT whose work depends on the key, and which fails — or panics —
    /// when handed its `fail_at`-th op, once `gate` has opened.
    struct Probe {
        seen: usize,
        fail_at: usize,
        panics: bool,
        gate: Arc<Gate>,
    }

    impl SystemUnderTest<Operation> for Probe {
        fn name(&self) -> String {
            "probe".to_string()
        }
        fn train(&mut self, _budget: u64) -> u64 {
            0
        }
        fn execute(&mut self, op: &Operation) -> SutResult<ExecOutcome> {
            let at = self.seen;
            self.seen += 1;
            if at != self.fail_at {
                return Ok(ExecOutcome::ok(op.key() % 97 + 1));
            }
            self.gate.wait();
            if self.panics {
                panic!("probe panics at op {at}");
            }
            Err(SutError::Internal(format!("probe fails at op {at}")))
        }
        fn metrics(&self) -> SutMetrics {
            SutMetrics::default()
        }
    }

    /// Failing in the first chunk's first op, inside it, and chunks in.
    const FAIL_AT: [usize; 3] = [0, 5, 2 * CHUNK + 3];

    /// Chunks of ops per lane of an early stop (of 4 lanes).
    const STOP_CHUNKS: usize = 12;

    /// Every kind of reader of a stream made ahead for the engine: sharded
    /// lanes on one thread (one bounded queue, three unbounded) and on two
    /// (two of each), shared-lock lanes on one, and two scheduler workers.
    const READERS: [(ExecutionMode, usize); 4] = [
        (ExecutionMode::Sharded { workers: 4 }, 1),
        (ExecutionMode::Sharded { workers: 4 }, 2),
        (ExecutionMode::SharedLock { workers: 4 }, 1),
        (
            ExecutionMode::OpenLoop {
                clients: 64,
                workers: 2,
            },
            2,
        ),
    ];

    /// `ops` uniform reads, arriving a millisecond apart: no open-loop
    /// client of 64 is ever late, so each scheduler batch reads 64
    /// consecutive ops.
    fn early_stop_scenario(ops: usize) -> Scenario {
        let range = (0, 1_000_000);
        let mix = OperationMix::ycsb_c();
        let phase = WorkloadPhase::new("reads", KeyDistribution::Uniform, range, mix, ops as u64);
        Scenario::builder("early-stop")
            .dataset(KeyDistribution::Uniform, range, 1_000, 3)
            .workload(PhasedWorkload::single(phase, 5).unwrap())
            .arrival(ArrivalSpec {
                process: ArrivalProcess::Uniform { rate: 1_000.0 },
                modulation: LoadModulation::Constant,
                seed: 1,
            })
            .build()
            .unwrap()
    }

    /// A run of `mode` on `threads` threads whose SUT (each shard's) fails
    /// (or panics) at its op `fail_at`, but only once the helper has made
    /// every op it can get rid of: it then waits to hand over a chunk,
    /// which is where a reader that kept its queue, or a run that ended
    /// without joining the helper, would hang.
    ///
    /// A lane stopped in its chunk `c` holds chunks up to `c`, its bounded
    /// queue `CHUNKS` more, and the helper one more it waits to hand over:
    /// the gate opens when the helper has dealt a worker's first lane
    /// `(c + CHUNKS + 2) · CHUNK` ops. The two scheduler workers are dealt
    /// the even and the odd stream indices, and each has fetched at least
    /// its chunk 0 before it locks the SUT, so the helper deals each at
    /// least `1 + CHUNKS + 1` chunks: it waits to hand over worker 0's last
    /// of them once it has made the op at index `2 · (CHUNKS + 2) · CHUNK −
    /// 2` — no further if the stopped worker is in its first batch and the
    /// other waits for the lock, and not as far if either fetched its
    /// bodies under the lock.
    fn failing(mode: ExecutionMode, threads: usize, fail_at: usize, panics: bool) -> Result<()> {
        let s = early_stop_scenario(4 * STOP_CHUNKS * CHUNK);
        let gate = Arc::new(Gate::default());
        let probe = || Probe {
            seen: 0,
            fail_at,
            panics,
            gate: Arc::clone(&gate),
        };
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::with_mode(mode)
        };
        let obs = &mut RunObserver::new(ObsConfig::default());
        let opener = Arc::clone(&gate);
        if let ExecutionMode::OpenLoop { .. } = mode {
            let last = 2 * (CHUNKS + 2) * CHUNK - 2;
            let ops = || {
                let ops = unpaced_ops(&s, u64::MAX)?;
                Ok(ops.inspect(move |op| {
                    if op.meta.idx == last as u64 {
                        opener.open();
                    }
                }))
            };
            let batch_size = sched::BATCH_SIZE;
            return sched::heap_over(&mut probe(), &s, &opts, batch_size, obs, ops).map(drop);
        }
        let lanes = mode.lanes();
        let (router, _) = shard_dataset(&s.dataset.build()?, lanes)?;
        let sharded = matches!(mode, ExecutionMode::Sharded { .. });
        let lane_of = |op: &CoreOp<Operation>| match sharded {
            true => router.route(&op.op),
            false => op.meta.idx as usize % lanes,
        };
        let full = (fail_at / CHUNK + CHUNKS + 2) * CHUNK;
        let mut dealt = vec![0; lanes];
        let ops = || {
            let ops = scenario_ops(&s, u64::MAX)?;
            Ok(ops.inspect(move |op| {
                let lane = lane_of(op);
                dealt[lane] += 1;
                if lane < threads && dealt[lane] == full {
                    opener.open();
                }
            }))
        };
        if sharded {
            let mut shards: Vec<BoxedKvSut> = (0..lanes).map(|_| Box::new(probe()) as _).collect();
            let mut suts: LaneSuts<'_, Probe> = LaneSuts::Shards(&mut shards, &router);
            lanes_over(&mut suts, &s, &opts, obs, ops).map(drop)
        } else {
            let mut probe = probe();
            lanes_over(&mut LaneSuts::Shared(&mut probe), &s, &opts, obs, ops).map(drop)
        }
    }

    #[test]
    fn made_ahead_engine_runs_return_the_sut_s_error() {
        for (mode, threads) in READERS {
            for fail_at in FAIL_AT {
                let err = failing(mode, threads, fail_at, false).unwrap_err();
                let expected = format!("probe fails at op {fail_at}");
                assert!(
                    err.to_string().contains(&expected),
                    "{mode:?} on {threads}: {err}"
                );
            }
        }
    }

    #[test]
    fn made_ahead_engine_runs_propagate_the_sut_s_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for (mode, threads) in READERS {
            for fail_at in FAIL_AT {
                let run = catch_unwind(AssertUnwindSafe(|| failing(mode, threads, fail_at, true)));
                let payload = run.expect_err("the SUT's panic reaches the caller");
                let message = payload.downcast_ref::<String>().expect("a formatted panic");
                assert_eq!(*message, format!("probe panics at op {fail_at}"));
            }
        }
    }
}
