//! The four benchmark workloads: scenario, execution modes and sizes.
//!
//! Shapes (distributions, mixes, transitions, modes, SUT set) are fixed;
//! only key and operation counts scale, and the full-scale counts below
//! are frozen so that one `Runner::run` of the slowest SUT takes about
//! 0.1 s on a 2-core host: the benchmark reports every timing at its
//! fastest sample, and only a short sample fits into a quiet moment of a
//! shared host.

use crate::Res;
use lsbench::core::faults::resolve_fault_plan;
use lsbench::core::runner::ExecutionMode;
use lsbench::core::scenario::{ArrivalSpec, Scenario};
use lsbench::workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::OperationMix;
use lsbench::workload::phases::{PhasedWorkload, TransitionKind, WorkloadPhase};

/// Every workload, in `BENCHMARK.json` order (which also says why each
/// exists).
pub const WORKLOADS: [&str; 4] = [
    "point_reads",
    "updates_scans",
    "open_loop_fanout",
    "lanes_faulted",
];

/// The real systems every workload runs, after [`NULL`].
pub const SUTS: [&str; 5] = ["btree", "rmi", "pgm", "alex", "spline"];
/// Name of the harness-only run (see `suts::NullSut`).
pub const NULL: &str = "null";

const KEY_RANGE: (u64, u64) = (0, 1_000_000_000);
const WORK_UNITS_PER_SECOND: f64 = 1_000_000.0;
/// Worker threads (and lanes) of every engine mode.
pub const WORKERS: usize = 2;
/// Physical threads the lanes are multiplexed onto in the timed runs of
/// the end-to-end metrics (`RunOptions::threads`, which never changes a
/// record). Two runnable threads that share a mutex on a 2-vCPU guest
/// time the host's scheduler: where it puts them moves a run by a factor
/// of two either way, for minutes on end. On one thread the lanes,
/// channels, routing, event heap and merges do the same work, and the
/// host can only slow it down.
pub const TIMED_THREADS: usize = 1;

/// One workload, built from a seed.
pub struct Workload {
    pub scenario: Scenario,
    /// Execution modes every SUT runs, in order.
    pub modes: Vec<ExecutionMode>,
    /// Operation cap of the archived run (bounds the JSON artifact).
    pub archive_max_ops: u64,
}

fn lognormal() -> KeyDistribution {
    KeyDistribution::LogNormal {
        mu: 0.0,
        sigma: 1.2,
    }
}

fn phase(name: &str, d: KeyDistribution, mix: OperationMix, ops: u64) -> WorkloadPhase {
    WorkloadPhase::new(name, d, KEY_RANGE, mix, ops)
}

/// Short mode label used in metric, span and golden keys.
pub fn mode_label(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Serial => "serial",
        ExecutionMode::SharedLock { .. } => "shared",
        ExecutionMode::Sharded { .. } => "sharded",
        ExecutionMode::OpenLoop { .. } => "sched",
    }
}

impl Workload {
    /// Builds workload `name` from `seed`; `scale` multiplies key,
    /// operation and client counts (1.0 = the frozen benchmark sizes).
    pub fn build(name: &str, seed: u64, scale: f64) -> Res<Workload> {
        let n = |full: u64| ((full as f64 * scale).round() as u64).max(200);
        let builder = |name: &str, keys: u64, salt: u64| {
            Scenario::builder(name)
                .dataset(lognormal(), KEY_RANGE, n(keys) as usize, seed ^ salt)
                .work_units_per_second(WORK_UNITS_PER_SECOND)
                .maintenance_every(256)
        };
        let (scenario, modes) = match name {
            "point_reads" => {
                let ops = n(100_000);
                let tail = KeyDistribution::Normal {
                    center: 0.9,
                    std_frac: 0.03,
                };
                let workload = PhasedWorkload::new(
                    vec![
                        phase("head", lognormal(), OperationMix::ycsb_c(), ops),
                        phase("tail", tail, OperationMix::ycsb_c(), ops),
                    ],
                    vec![TransitionKind::Abrupt],
                    seed ^ 0x53,
                )?;
                let scenario = builder("point_reads", 1_000_000, 0x22)
                    .workload(workload)
                    .build()?;
                (scenario, vec![ExecutionMode::Serial])
            }
            "updates_scans" => {
                let ops = n(20_000);
                let writes = OperationMix {
                    read: 0.4,
                    insert: 0.3,
                    update: 0.2,
                    scan: 0.0,
                    delete: 0.1,
                    max_scan_len: 0,
                };
                let scans = OperationMix {
                    max_scan_len: 100,
                    ..OperationMix::ycsb_e()
                };
                let shifted = KeyDistribution::Normal {
                    center: 0.85,
                    std_frac: 0.04,
                };
                let workload = PhasedWorkload::new(
                    vec![
                        phase("reads", lognormal(), OperationMix::ycsb_c(), ops),
                        phase("writes", shifted, writes, ops),
                        phase("scans", KeyDistribution::Zipf { theta: 0.99 }, scans, ops),
                    ],
                    vec![
                        TransitionKind::Gradual { window: 0.3 },
                        TransitionKind::Abrupt,
                    ],
                    seed ^ 0x54,
                )?;
                let scenario = builder("updates_scans", 100_000, 0x33)
                    .workload(workload)
                    .build()?;
                (scenario, vec![ExecutionMode::Serial])
            }
            "open_loop_fanout" => {
                let workload = PhasedWorkload::single(
                    phase(
                        "steady-reads",
                        lognormal(),
                        OperationMix::ycsb_c(),
                        n(100_000),
                    ),
                    seed ^ 0x56,
                )?;
                // The standard suite's S5 arrival shape: Poisson at ~60% of
                // the slowest SUT's service rate with periodic x4 bursts.
                let arrival = ArrivalSpec {
                    process: ArrivalProcess::Poisson {
                        rate: WORK_UNITS_PER_SECOND / 33.0,
                    },
                    modulation: LoadModulation::Burst {
                        period: 0.2,
                        burst_len: 0.04,
                        multiplier: 4.0,
                    },
                    seed: seed ^ 0x57,
                };
                let scenario = builder("open_loop_fanout", 200_000, 0x66)
                    .workload(workload)
                    .arrival(arrival)
                    .build()?;
                let mode = ExecutionMode::OpenLoop {
                    clients: n(50_000) as usize,
                    workers: WORKERS,
                };
                (scenario, vec![mode])
            }
            "lanes_faulted" => {
                // Read-only: lanes sharing one SUT replay writes in whatever
                // order their threads interleave (engine docs), and every
                // record here must repeat bit for bit.
                let ops = n(30_000);
                let hotspot = KeyDistribution::Hotspot {
                    hot_span: 0.05,
                    hot_fraction: 0.95,
                };
                let workload = PhasedWorkload::new(
                    vec![
                        phase(
                            "zipf",
                            KeyDistribution::Zipf { theta: 0.99 },
                            OperationMix::ycsb_c(),
                            ops,
                        ),
                        phase("hotspot", hotspot, OperationMix::ycsb_c(), ops),
                    ],
                    vec![TransitionKind::Abrupt],
                    seed ^ 0x58,
                )?;
                // chaos-errors retries a 5% transient error twice, which
                // leaves ~0.05^3 of the operations failed. The benchmark
                // must compare runs on which nothing fails, so the retry
                // budget is raised until the residue (0.05^9) is nil; every
                // op still takes the op-at-a-time execute_faulted path.
                let mut plan = resolve_fault_plan("chaos-errors")?;
                plan.policy.max_retries = 8;
                let scenario = builder("lanes_faulted", 250_000, 0x77)
                    .workload(workload)
                    .faults(plan)
                    .build()?;
                let modes = vec![
                    ExecutionMode::Sharded { workers: WORKERS },
                    ExecutionMode::SharedLock { workers: WORKERS },
                ];
                (scenario, modes)
            }
            other => {
                let known = WORKLOADS.join(", ");
                return Err(format!("unknown workload '{other}' (known: {known})").into());
            }
        };
        Ok(Workload {
            scenario,
            modes,
            archive_max_ops: n(40_000),
        })
    }

    /// Whether the workload runs through the concurrent engine.
    pub fn is_engine(&self) -> bool {
        self.modes.iter().any(|m| *m != ExecutionMode::Serial)
    }
}
