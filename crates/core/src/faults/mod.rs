//! Deterministic fault injection and robustness policy.
//!
//! The paper's SLA-band metric (Fig. 1c) and adjustment speed only mean
//! something if the benchmark can exercise systems under *degraded*
//! conditions — transient errors, latency spikes, stalls, and crash
//! restarts are exactly the moments where a learned system's adaptation is
//! measured. This module injects those conditions **deterministically**:
//! every fault decision is a pure function of the [`FaultPlan`] seed and
//! the operation's global stream index, and every perturbation is applied
//! in *virtual* time, so a faulted run is bit-identical across repeated
//! runs and across worker counts (the same discipline as deterministic
//! simulation testing à la FoundationDB).
//!
//! A [`FaultPlan`] carries a list of [`FaultSpec`]s plus a [`RetryPolicy`]
//! (per-query timeout, bounded retry with exponential backoff). Plans
//! attach to a [`Scenario`](crate::scenario::Scenario#structfield.faults) (`faults` field,
//! `[[fault]]` spec blocks, or the `--faults` CLI flag) and are compiled
//! once per run into a [`FaultSession`]. A plan never dispatches anything:
//! the one execution core (`exec::step`) gathers and executes a faulted
//! run's operations exactly as it does an unfaulted run's, delivers a due
//! crash-restart between two operations, and hands each outcome the SUT
//! returned to the session's `settle`, which is arithmetic on that outcome
//! — inflation, stall share, error coins, timeout, bounded retries with
//! backoff — and yields both the *server-busy* time (advances the client's
//! clock) and the *client-observed* time (feeds the latency metrics).
//! Under a timeout the two differ: the server stays busy for the full
//! service time while the client gives up at the timeout. That the SUT
//! executes **once** per logical operation, however often the operation is
//! retried, holds by construction: this module has no SUT to execute with.
//!
//! Error accounting flows into [`RunRecord::faults`]
//! (\[[`FaultStats`]\]), the SLA bands (a failed or timed-out query is an
//! SLA violation), and the observability event stream (`FaultInjected`,
//! `QueryRetried`, `QueryTimedOut`).
//!
//! [`RunRecord::faults`]: crate::record::RunRecord::faults

use crate::exec::service_with_backlog;
use crate::scenario::{OnlineTrainMode, Scenario};
use crate::{BenchError, Result};
use lsbench_sut::sut::ExecOutcome;
use lsbench_workload::phases::WorkloadPhase;
use serde::{Deserialize, Serialize};

/// Driver-level robustness policy applied to every query while a fault
/// plan is active. All quantities are virtual seconds, so retries and
/// timeouts never break determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-query timeout (virtual seconds). A query attempt whose service
    /// time exceeds this is abandoned by the client — the server stays
    /// busy for the full service time, but the client observes only the
    /// timeout. `None` = never time out.
    pub timeout: Option<f64>,
    /// Bounded retry budget for transient (injected) errors and timeouts.
    /// `0` = fail immediately. Permanent SUT failures are never retried.
    pub max_retries: u32,
    /// First backoff delay (virtual seconds) before a retry.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff for each subsequent retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: None,
            max_retries: 0,
            backoff_base: 1e-3,
            backoff_multiplier: 2.0,
        }
    }
}

/// Kind of one injected fault occurrence, as reported in
/// [`RunEvent::FaultInjected`](crate::obs::RunEvent::FaultInjected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A transient-error coin fired.
    Error,
    /// Service time was inflated by a latency spike.
    Latency,
    /// The operation fell inside a stall window.
    Stall,
    /// A crash-restart dropped the SUT's learned state.
    Crash,
}

/// One injected failure mode. Phase indexes refer to the scenario's main
/// workload phase list; operation offsets are phase-relative.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Transient errors: each operation in the matching phase(s) fails
    /// with probability `rate` (a deterministic per-operation coin drawn
    /// from the plan seed and the operation's stream index). Failed
    /// operations are retried under the [`RetryPolicy`].
    TransientErrors {
        /// Restrict to one phase index; `None` = every phase.
        phase: Option<usize>,
        /// Failure probability in `[0, 1]`.
        rate: f64,
    },
    /// Latency spike: service time of matching operations becomes
    /// `service × factor + add_work / work_units_per_second`.
    LatencySpike {
        /// Restrict to one phase index; `None` = every phase.
        phase: Option<usize>,
        /// Additive extra work units per operation.
        add_work: u64,
        /// Multiplicative service-time inflation (`1.0` = none).
        factor: f64,
    },
    /// Full stall: the `ops` operations starting at phase-relative offset
    /// `from_op` of phase `phase` each absorb an equal share of `duration`
    /// virtual seconds of extra service time — the system is unresponsive
    /// for that virtual-time window.
    Stall {
        /// Phase the window lives in.
        phase: usize,
        /// Phase-relative offset of the first stalled operation.
        from_op: u64,
        /// Number of stalled operations (the window must stay inside the
        /// phase).
        ops: u64,
        /// Total stall duration (virtual seconds), spread over the window.
        duration: f64,
    },
    /// Crash-restart: immediately before the operation at phase-relative
    /// offset `at_op` of phase `phase`, the SUT's volatile learned state
    /// is dropped ([`SystemUnderTest::crash`]) and the returned recovery
    /// work is charged to the backlog — subsequent queries stall behind
    /// the rebuild exactly like a retrain burst. In sharded runs only the
    /// shard owning that operation crashes.
    ///
    /// [`SystemUnderTest::crash`]: lsbench_sut::SystemUnderTest::crash
    Crash {
        /// Phase the crash happens in.
        phase: usize,
        /// Phase-relative offset of the operation hit by the crash.
        at_op: u64,
    },
}

impl FaultSpec {
    /// Spec-language kind name (the `kind = "..."` discriminator).
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::TransientErrors { .. } => "errors",
            FaultSpec::LatencySpike { .. } => "latency",
            FaultSpec::Stall { .. } => "stall",
            FaultSpec::Crash { .. } => "crash",
        }
    }

    /// Validates this fault against a concrete phase list. On error,
    /// returns `(field, reason)` so spec-file callers can position the
    /// rejection on the offending key.
    pub fn check(
        &self,
        phases: &[WorkloadPhase],
    ) -> std::result::Result<(), (&'static str, String)> {
        let phase_ops = |idx: usize, field: &'static str| {
            phases.get(idx).map(|p| p.ops).ok_or_else(|| {
                (
                    field,
                    format!(
                        "phase index {idx} out of range (workload has {} phases)",
                        phases.len()
                    ),
                )
            })
        };
        match self {
            FaultSpec::TransientErrors { phase, rate } => {
                if let Some(p) = phase {
                    phase_ops(*p, "phase")?;
                }
                if !(0.0..=1.0).contains(rate) {
                    return Err(("rate", format!("error rate {rate} must be within [0, 1]")));
                }
            }
            FaultSpec::LatencySpike { phase, factor, .. } => {
                if let Some(p) = phase {
                    phase_ops(*p, "phase")?;
                }
                if !(factor.is_finite() && *factor >= 0.0) {
                    return Err((
                        "factor",
                        format!("latency factor {factor} must be finite and non-negative"),
                    ));
                }
            }
            FaultSpec::Stall {
                phase,
                from_op,
                ops,
                duration,
            } => {
                let available = phase_ops(*phase, "phase")?;
                if *ops == 0 {
                    return Err((
                        "ops",
                        "stall window needs at least one operation".to_string(),
                    ));
                }
                if !(duration.is_finite() && *duration > 0.0) {
                    return Err((
                        "duration",
                        format!("stall duration {duration} must be positive and finite"),
                    ));
                }
                if from_op.saturating_add(*ops) > available {
                    return Err((
                        "ops",
                        format!(
                            "stall window [{from_op}, {}) overlapping phase boundary (phase {} has {available} ops)",
                            from_op.saturating_add(*ops),
                            phase
                        ),
                    ));
                }
            }
            FaultSpec::Crash { phase, at_op } => {
                let available = phase_ops(*phase, "phase")?;
                if *at_op >= available {
                    return Err((
                        "at_op",
                        format!(
                            "crash offset {at_op} outside phase {phase} (phase has {available} ops)"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A complete fault-injection plan: the deterministic seed, the driver
/// robustness policy, and the injected failure modes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every per-operation fault coin. Two runs with the same
    /// plan, seed, and scenario are bit-identical.
    pub seed: u64,
    /// Timeout/retry/backoff policy applied while this plan is active.
    pub policy: RetryPolicy,
    /// Failure modes to inject. An empty list with the default policy is
    /// an exact passthrough.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Validates the plan against a concrete workload phase list.
    pub fn validate(&self, phases: &[WorkloadPhase]) -> std::result::Result<(), String> {
        let p = &self.policy;
        if let Some(t) = p.timeout {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!(
                    "fault plan: timeout {t} must be positive and finite"
                ));
            }
        }
        if !(p.backoff_base.is_finite() && p.backoff_base >= 0.0) {
            return Err(format!(
                "fault plan: backoff_base {} must be non-negative and finite",
                p.backoff_base
            ));
        }
        if !(p.backoff_multiplier.is_finite() && p.backoff_multiplier >= 0.0) {
            return Err(format!(
                "fault plan: backoff_multiplier {} must be non-negative and finite",
                p.backoff_multiplier
            ));
        }
        for f in &self.faults {
            f.check(phases)
                .map_err(|(field, reason)| format!("fault '{}' {field}: {reason}", f.kind()))?;
        }
        Ok(())
    }
}

/// Per-run fault accounting, merged into [`RunRecord`]
/// (`record.faults`) and summed across lanes in concurrent runs.
///
/// [`RunRecord`]: crate::record::RunRecord
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Individual fault applications (error coins that fired, latency
    /// inflations, stalled operations, crashes).
    pub injected: u64,
    /// Retry attempts issued by the driver's retry policy.
    pub retries: u64,
    /// Query attempts abandoned at the per-query timeout.
    pub timeouts: u64,
    /// Crash-restart events delivered to the SUT.
    pub crashes: u64,
}

impl FaultStats {
    /// Field-wise sum, used when merging per-lane stats.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.crashes += other.crashes;
    }
}

/// What a plan made of one executed operation ([`FaultSession::settle`]).
/// Fault kinds are reported in the fixed order crash, latency × `spikes`,
/// stall, error × `errors`, so three counts say which were injected.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Settled {
    /// Server-busy virtual seconds: full service of every attempt plus
    /// backoff gaps. Advances the client's clock.
    pub service: f64,
    /// Client-observed virtual seconds: timed-out attempts are capped at
    /// the timeout. Feeds the latency metrics.
    pub observed: f64,
    /// Whether the operation ultimately succeeded.
    pub ok: bool,
    /// Retry attempts issued.
    pub retries: u32,
    /// Attempts abandoned at the timeout.
    pub timeouts: u32,
    /// Latency spikes that inflated the service time.
    pub spikes: u32,
    /// 1 if the operation fell inside a stall window.
    pub stalled: u32,
    /// Transient-error coins that fired, over all attempts.
    pub errors: u32,
}

/// A [`FaultPlan`] compiled against one scenario: phase boundaries are
/// resolved to global stream indexes so every per-operation decision is a
/// pure function of `(plan seed, global index)` — identical on any worker
/// count. Immutable and `Sync`; lanes share one session by reference.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    /// Global stream index where each phase begins (cumulative phase ops).
    phase_starts: Vec<u64>,
    /// Resolved global indexes of crash operations.
    crash_at: Vec<u64>,
}

impl FaultSession {
    /// Compiles the scenario's fault plan, if any. `None` means every
    /// outcome is accounted as the SUT returned it.
    pub fn from_scenario(scenario: &Scenario) -> Option<FaultSession> {
        scenario
            .faults
            .as_ref()
            .map(|plan| FaultSession::new(plan.clone(), scenario.workload.phases()))
    }

    /// Compiles a plan against a phase list. The plan should already have
    /// passed [`FaultPlan::validate`]; out-of-range windows simply never
    /// fire.
    pub fn new(plan: FaultPlan, phases: &[WorkloadPhase]) -> FaultSession {
        let mut phase_starts = Vec::with_capacity(phases.len());
        let mut acc = 0u64;
        for p in phases {
            phase_starts.push(acc);
            acc += p.ops;
        }
        let crash_at = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::Crash { phase, at_op } => phase_starts
                    .get(*phase)
                    .map(|start| start.saturating_add(*at_op)),
                _ => None,
            })
            .collect();
        FaultSession {
            plan,
            phase_starts,
            crash_at,
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether a crash-restart fires immediately before global index
    /// `idx`.
    pub(crate) fn crashes_at(&self, idx: u64) -> bool {
        self.crash_at.contains(&idx)
    }

    /// Total extra stall seconds charged to global index `idx`.
    fn stall_extra(&self, idx: u64) -> f64 {
        let mut extra = 0.0;
        for f in &self.plan.faults {
            if let FaultSpec::Stall {
                phase,
                from_op,
                ops,
                duration,
            } = f
            {
                if let Some(start) = self.phase_starts.get(*phase) {
                    let lo = start.saturating_add(*from_op);
                    if idx >= lo && idx - lo < *ops {
                        extra += duration / *ops as f64;
                    }
                }
            }
        }
        extra
    }

    /// Settles the outcome the SUT returned for the operation at global
    /// index `idx` of phase `phase`: applies latency and stall inflation,
    /// draws transient-error coins, enforces the timeout, and drives the
    /// bounded-backoff retry loop — all in virtual time.
    ///
    /// Retries re-charge the (inflated) service time and re-draw the error
    /// coin; nothing is executed again, so retried inserts are never
    /// double-applied and shared-SUT runs stay deterministic. Permanent SUT
    /// failures (`ExecOutcome::failed`) are not retried. Whichever attempt
    /// runs while `backlog` remains absorbs it, exactly like an unfaulted
    /// operation (foreground: prepended; background: processor-shared).
    pub(crate) fn settle(
        &self,
        outcome: ExecOutcome,
        phase: usize,
        idx: u64,
        rate: f64,
        mode: OnlineTrainMode,
        backlog: &mut f64,
    ) -> Settled {
        let mut res = Settled::default();
        // Per-attempt base service: the SUT's own work, inflated by
        // matching latency spikes, plus the operation's stall share.
        let mut base = outcome.work as f64 / rate;
        for f in &self.plan.faults {
            if let FaultSpec::LatencySpike {
                phase: fphase,
                add_work,
                factor,
            } = f
            {
                if fphase.is_none_or(|p| p == phase) {
                    base = base * factor + *add_work as f64 / rate;
                    res.spikes += 1;
                }
            }
        }
        let stall = self.stall_extra(idx);
        if stall > 0.0 {
            base += stall;
            res.stalled = 1;
        }

        let policy = self.plan.policy;
        let max_attempts = policy.max_retries.saturating_add(1);
        let mut attempt = 0u32;
        loop {
            let service = service_with_backlog(base, backlog, mode);
            res.service += service;

            let mut transient = false;
            if outcome.ok {
                for (fi, f) in self.plan.faults.iter().enumerate() {
                    if let FaultSpec::TransientErrors {
                        phase: fphase,
                        rate: frate,
                    } = f
                    {
                        if fphase.is_none_or(|p| p == phase)
                            && fault_coin(self.plan.seed, fi, idx, attempt) < *frate
                        {
                            transient = true;
                            res.errors += 1;
                        }
                    }
                }
            }
            let timed_out = policy.timeout.filter(|&t| service > t);
            res.timeouts += timed_out.is_some() as u32;
            res.observed += timed_out.unwrap_or(service);

            res.ok = outcome.ok && !transient && timed_out.is_none();
            attempt += 1;
            // A permanent failure is outside the retry policy.
            if res.ok || !outcome.ok || attempt >= max_attempts {
                return res;
            }
            res.retries += 1;
            let backoff = policy.backoff_base * policy.backoff_multiplier.powi(attempt as i32 - 1);
            res.service += backoff;
            res.observed += backoff;
        }
    }
}

/// splitmix64: the standard 64-bit finalizer, used to derive independent
/// per-(fault, operation, attempt) coins from the plan seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform coin in `[0, 1)` that depends only on the plan seed, the
/// fault's position in the plan, the operation's global index, and the
/// attempt number — never on threads or wall time.
fn fault_coin(seed: u64, fault_idx: usize, op_idx: u64, attempt: u32) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(op_idx.wrapping_add((fault_idx as u64) << 40)) ^ ((attempt as u64) << 56),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A built-in chaos plan: `(name, description, constructor)` — resolvable
/// through `--faults NAME` on the CLI, mirroring the scenario registry.
pub type FaultPlanGen = fn() -> FaultPlan;

/// Built-in chaos plans. All are scenario-agnostic (no stall/crash, which
/// need concrete phase offsets — write those in a plan file or `[[fault]]`
/// spec blocks).
pub const BUILTIN_FAULT_PLANS: &[(&str, &str, FaultPlanGen)] = &[
    (
        "chaos-errors",
        "5% transient errors on every phase, 2 retries with exponential backoff",
        chaos_errors,
    ),
    (
        "chaos-latency",
        "3x service-time inflation on every phase",
        chaos_latency,
    ),
    (
        "chaos-timeouts",
        "2ms per-query timeout with one retry",
        chaos_timeouts,
    ),
];

fn chaos_errors() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        policy: RetryPolicy {
            timeout: None,
            max_retries: 2,
            backoff_base: 5e-4,
            backoff_multiplier: 2.0,
        },
        faults: vec![FaultSpec::TransientErrors {
            phase: None,
            rate: 0.05,
        }],
    }
}

fn chaos_latency() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        policy: RetryPolicy::default(),
        faults: vec![FaultSpec::LatencySpike {
            phase: None,
            add_work: 0,
            factor: 3.0,
        }],
    }
}

fn chaos_timeouts() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        policy: RetryPolicy {
            timeout: Some(2e-3),
            max_retries: 1,
            backoff_base: 1e-3,
            backoff_multiplier: 2.0,
        },
        faults: Vec::new(),
    }
}

/// Resolves `--faults NAME|FILE`: a built-in chaos plan name first, then a
/// fault-plan file on disk (root policy keys plus `[[fault]]` blocks; see
/// [`crate::spec::parse_fault_plan`]).
pub fn resolve_fault_plan(name_or_path: &str) -> Result<FaultPlan> {
    if let Some((_, _, gen)) = BUILTIN_FAULT_PLANS
        .iter()
        .find(|(n, _, _)| *n == name_or_path)
    {
        return Ok(gen());
    }
    if std::path::Path::new(name_or_path).exists() {
        let text = std::fs::read_to_string(name_or_path).map_err(|e| {
            BenchError::InvalidScenario(format!("cannot read fault plan {name_or_path}: {e}"))
        })?;
        return crate::spec::parse_fault_plan(&text)
            .map_err(|e| BenchError::InvalidScenario(format!("{name_or_path}:{e}")));
    }
    let names: Vec<&str> = BUILTIN_FAULT_PLANS.iter().map(|(n, _, _)| *n).collect();
    Err(BenchError::InvalidScenario(format!(
        "unknown fault plan '{name_or_path}' (built-ins: {}; or pass a path to a plan file)",
        names.join(", ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_workload::keygen::KeyDistribution;
    use lsbench_workload::ops::OperationMix;

    fn phases(ops: &[u64]) -> Vec<WorkloadPhase> {
        ops.iter()
            .enumerate()
            .map(|(i, &n)| {
                WorkloadPhase::new(
                    format!("p{i}"),
                    KeyDistribution::Uniform,
                    (0, 1_000),
                    OperationMix::ycsb_c(),
                    n,
                )
            })
            .collect()
    }

    #[test]
    fn validation_rejects_bad_windows() {
        let ph = phases(&[100, 50]);
        let overlap = FaultSpec::Stall {
            phase: 1,
            from_op: 40,
            ops: 20,
            duration: 0.5,
        };
        let (field, reason) = overlap.check(&ph).unwrap_err();
        assert_eq!(field, "ops");
        assert!(reason.contains("overlapping phase boundary"), "{reason}");
        let bad_rate = FaultSpec::TransientErrors {
            phase: None,
            rate: 1.5,
        };
        assert_eq!(bad_rate.check(&ph).unwrap_err().0, "rate");
        let bad_phase = FaultSpec::Crash { phase: 7, at_op: 0 };
        assert_eq!(bad_phase.check(&ph).unwrap_err().0, "phase");
        let in_range = FaultSpec::Stall {
            phase: 0,
            from_op: 90,
            ops: 10,
            duration: 0.1,
        };
        in_range.check(&ph).unwrap();
    }

    #[test]
    fn coins_are_deterministic_and_uniform_ish() {
        let a = fault_coin(42, 0, 17, 0);
        assert_eq!(a, fault_coin(42, 0, 17, 0));
        assert_ne!(a, fault_coin(42, 0, 18, 0));
        assert_ne!(a, fault_coin(42, 0, 17, 1));
        assert_ne!(a, fault_coin(42, 1, 17, 0));
        let n = 10_000;
        let hits = (0..n).filter(|&i| fault_coin(7, 0, i, 0) < 0.2).count() as f64;
        let frac = hits / n as f64;
        assert!((0.17..0.23).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn stall_spreads_duration_over_window() {
        let plan = FaultPlan {
            seed: 1,
            policy: RetryPolicy::default(),
            faults: vec![FaultSpec::Stall {
                phase: 1,
                from_op: 10,
                ops: 4,
                duration: 2.0,
            }],
        };
        let session = FaultSession::new(plan, &phases(&[100, 50]));
        assert_eq!(session.stall_extra(109), 0.0);
        for idx in 110..114 {
            assert_eq!(session.stall_extra(idx), 0.5);
        }
        assert_eq!(session.stall_extra(114), 0.0);
    }

    #[test]
    fn crash_index_resolution() {
        let plan = FaultPlan {
            seed: 1,
            policy: RetryPolicy::default(),
            faults: vec![FaultSpec::Crash { phase: 1, at_op: 5 }],
        };
        let session = FaultSession::new(plan, &phases(&[100, 50]));
        assert!(session.crashes_at(105));
        assert!(!session.crashes_at(104));
        assert!(!session.crashes_at(5));
    }

    /// A one-phase session under `policy`, every op failing with `rate`.
    fn erring(rate: f64, policy: RetryPolicy) -> FaultSession {
        let plan = FaultPlan {
            seed: 9,
            policy,
            faults: vec![FaultSpec::TransientErrors { phase: None, rate }],
        };
        FaultSession::new(plan, &phases(&[100]))
    }

    fn settle(session: &FaultSession, outcome: ExecOutcome, idx: u64) -> Settled {
        let mut backlog = 0.0;
        session.settle(
            outcome,
            0,
            idx,
            1e6,
            OnlineTrainMode::Foreground,
            &mut backlog,
        )
    }

    #[test]
    fn a_permanent_failure_draws_no_coin_and_is_not_retried() {
        let policy = RetryPolicy {
            max_retries: 5,
            ..RetryPolicy::default()
        };
        let session = erring(1.0, policy);
        for idx in 0..100 {
            let expected = Settled {
                service: 40e-6,
                observed: 40e-6,
                ..Settled::default()
            };
            assert_eq!(settle(&session, ExecOutcome::failed(40), idx), expected);
        }
    }

    #[test]
    fn without_a_retry_budget_every_errored_op_fails_at_once() {
        let session = erring(1.0, RetryPolicy::default());
        for idx in 0..100 {
            let s = settle(&session, ExecOutcome::ok(40), idx);
            assert_eq!((s.ok, s.retries, s.errors), (false, 0, 1), "op {idx}");
            assert_eq!((s.service, s.observed), (40e-6, 40e-6), "op {idx}");
        }
    }

    #[test]
    fn a_timed_out_attempt_is_observed_up_to_the_timeout() {
        let policy = RetryPolicy {
            timeout: Some(25e-6),
            max_retries: 2,
            backoff_base: 1e-3,
            backoff_multiplier: 2.0,
        };
        // No coin fires: the timeout alone fails all three attempts.
        let s = settle(&erring(0.0, policy), ExecOutcome::ok(40), 3);
        assert_eq!((s.ok, s.retries, s.timeouts, s.errors), (false, 2, 3, 0));
        // The server was busy for every attempt in full, the client gave
        // up on each at the timeout; both sat out the two backoffs.
        assert_eq!(s.service, 40e-6 + 1e-3 + 40e-6 + 2e-3 + 40e-6);
        assert_eq!(s.observed, 25e-6 + 1e-3 + 25e-6 + 2e-3 + 25e-6);
        // Under the timeout the two agree.
        let s = settle(&erring(0.0, policy), ExecOutcome::ok(20), 3);
        assert_eq!((s.ok, s.service, s.observed), (true, 20e-6, 20e-6));
    }

    #[test]
    fn builtin_plans_resolve_and_validate() {
        let ph = phases(&[100]);
        for (name, _, _) in BUILTIN_FAULT_PLANS {
            let plan = resolve_fault_plan(name).unwrap();
            plan.validate(&ph).unwrap();
        }
        assert!(resolve_fault_plan("no-such-plan").is_err());
    }
}
