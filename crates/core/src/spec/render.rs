//! The canonical scenario renderer: [`render_scenario`] turns any
//! [`Scenario`] value into spec text that parses back to an equal
//! scenario (`parse ∘ render = id`, property-tested in
//! `tests/scenario_spec.rs`).
//!
//! The renderer is deliberately explicit — every `[run]` knob, every
//! phase transition, every key range is spelled out even when it matches
//! a parser default — so a rendered file is also complete documentation
//! of what a scenario does. Floats are formatted with Rust's `{:?}`
//! (shortest representation that round-trips exactly), which is what
//! makes bit-identical re-parsing possible. Composer blocks are *not*
//! reconstructed: composers expand at parse time, so a rendered file
//! shows the concrete phase list a composer produced.

use super::parse::MIX_PRESETS;
use crate::faults::FaultSpec;
use crate::metrics::sla::SlaPolicy;
use crate::scenario::{Choice, OnlineTrainMode, Scenario};
use lsbench_workload::arrival::{ArrivalProcess, LoadModulation};
use lsbench_workload::keygen::{KeyDistribution, Param};
use lsbench_workload::ops::OperationMix;
use lsbench_workload::phases::{TransitionKind, WorkloadPhase};
use std::fmt::Write as _;

/// Formats a float so it re-parses to the exact same bits.
fn f(v: f64) -> String {
    format!("{v:?}")
}

fn push_distribution(out: &mut String, name_key: &str, prefix: &str, d: &KeyDistribution) {
    let (shape, params) = d.params();
    let _ = writeln!(out, "{name_key} = \"{}\"", shape.name);
    for (&(key, _), value) in shape.params.iter().zip(params) {
        let value = match value {
            Param::Num(v) => f(v),
            Param::Int(v) => v.to_string(),
        };
        let _ = writeln!(out, "{prefix}{key} = {value}");
    }
}

fn push_mix(out: &mut String, mix: &OperationMix) {
    if let Some((name, _)) = MIX_PRESETS.iter().find(|(_, preset)| preset() == *mix) {
        let _ = writeln!(out, "mix = \"{name}\"");
        return;
    }
    for (key, weight) in OperationMix::WEIGHT_KEYS.iter().zip(mix.weights()) {
        if weight != 0.0 {
            let _ = writeln!(out, "{key} = {}", f(weight));
        }
    }
    // A mix of all-zero weights is invalid, so at least one weight was
    // emitted above and the parser's "needs a mix" check is satisfied.
    if mix.max_scan_len != 0 {
        let _ = writeln!(out, "max_scan_len = {}", mix.max_scan_len);
    }
}

fn push_phase(
    out: &mut String,
    header: &str,
    phase: &WorkloadPhase,
    transition: Option<TransitionKind>,
) {
    let _ = writeln!(out, "\n[[{header}]]");
    let _ = writeln!(out, "name = \"{}\"", phase.name);
    match transition {
        None => {}
        Some(TransitionKind::Abrupt) => {
            let _ = writeln!(out, "transition = \"abrupt\"");
        }
        Some(TransitionKind::Gradual { window }) => {
            let _ = writeln!(out, "transition = \"gradual\"");
            let _ = writeln!(out, "window = {}", f(window));
        }
    }
    push_distribution(out, "distribution", "", &phase.distribution);
    let _ = writeln!(
        out,
        "key_range = [{}, {}]",
        phase.key_range.0, phase.key_range.1
    );
    push_mix(out, &phase.mix);
    let _ = writeln!(out, "ops = {}", phase.ops);
    if phase.concurrency_burst != 1.0 {
        let _ = writeln!(out, "concurrency_burst = {}", f(phase.concurrency_burst));
    }
}

/// Renders a scenario as canonical spec text.
///
/// Feeding the output back through
/// [`parse_scenario`](super::parse_scenario) yields a scenario equal to
/// the input. That needs every name to fit in one spec string, so
/// [`Scenario::validate`] refuses a `"` or a line break in the scenario
/// name and in phase names.
pub fn render_scenario(s: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "name = \"{}\"", s.name);
    let _ = writeln!(out, "seed = {}", s.workload.seed());

    let _ = writeln!(out, "\n[dataset]");
    push_distribution(&mut out, "distribution", "", &s.dataset.distribution);
    let _ = writeln!(
        out,
        "key_range = [{}, {}]",
        s.dataset.key_range.0, s.dataset.key_range.1
    );
    let _ = writeln!(out, "size = {}", s.dataset.size);
    let _ = writeln!(out, "seed = {}", s.dataset.seed);

    let _ = writeln!(out, "\n[sla]");
    match s.sla {
        SlaPolicy::FromBaselineP99 { multiplier } => {
            let _ = writeln!(out, "policy = \"baseline-p99\"");
            let _ = writeln!(out, "multiplier = {}", f(multiplier));
        }
        SlaPolicy::Fixed { threshold } => {
            let _ = writeln!(out, "policy = \"fixed\"");
            let _ = writeln!(out, "threshold = {}", f(threshold));
        }
    }

    let _ = writeln!(out, "\n[run]");
    if s.train_budget == u64::MAX {
        let _ = writeln!(out, "train_budget = \"unlimited\"");
    } else {
        let _ = writeln!(out, "train_budget = {}", s.train_budget);
    }
    let _ = writeln!(
        out,
        "work_units_per_second = {}",
        f(s.work_units_per_second)
    );
    let _ = writeln!(out, "maintenance_every = {}", s.maintenance_every);
    match s.online_train {
        OnlineTrainMode::Foreground => {
            let _ = writeln!(out, "online_train = \"foreground\"");
        }
        OnlineTrainMode::Background { fraction } => {
            let _ = writeln!(out, "online_train = \"background\"");
            let _ = writeln!(out, "train_fraction = {}", f(fraction));
        }
    }
    // Only when set, so pre-existing scenarios render byte-identically.
    if let Some(mode) = s.mode {
        let _ = writeln!(out, "mode = \"{}\"", mode.as_str());
    }
    if let Some(clock) = s.clock {
        let _ = writeln!(out, "clock = \"{}\"", clock.as_str());
    }
    if let Some(holdout) = &s.holdout {
        let _ = writeln!(out, "holdout_seed = {}", holdout.seed());
    }
    // Fault keys only when a plan is attached, so fault-free scenarios
    // render byte-identically to before faults existed.
    if let Some(plan) = &s.faults {
        let _ = writeln!(out, "fault_seed = {}", plan.seed);
        if let Some(t) = plan.policy.timeout {
            let _ = writeln!(out, "timeout = {}", f(t));
        }
        let _ = writeln!(out, "max_retries = {}", plan.policy.max_retries);
        let _ = writeln!(out, "backoff_base = {}", f(plan.policy.backoff_base));
        let _ = writeln!(
            out,
            "backoff_multiplier = {}",
            f(plan.policy.backoff_multiplier)
        );
    }

    if let Some(arrival) = &s.arrival {
        let _ = writeln!(out, "\n[arrival]");
        match arrival.process {
            ArrivalProcess::Poisson { rate } => {
                let _ = writeln!(out, "process = \"poisson\"");
                let _ = writeln!(out, "rate = {}", f(rate));
            }
            ArrivalProcess::Uniform { rate } => {
                let _ = writeln!(out, "process = \"uniform\"");
                let _ = writeln!(out, "rate = {}", f(rate));
            }
            // Unreachable on a validated scenario (closed loop is
            // `arrival: None`); render something re-parseable anyway.
            ArrivalProcess::ClosedLoop => {
                let _ = writeln!(out, "process = \"poisson\"");
                let _ = writeln!(out, "rate = 1.0");
            }
        }
        match arrival.modulation {
            LoadModulation::Constant => {
                let _ = writeln!(out, "modulation = \"constant\"");
            }
            LoadModulation::Diurnal { period, amplitude } => {
                let _ = writeln!(out, "modulation = \"diurnal\"");
                let _ = writeln!(out, "period = {}", f(period));
                let _ = writeln!(out, "amplitude = {}", f(amplitude));
            }
            LoadModulation::Burst {
                period,
                burst_len,
                multiplier,
            } => {
                let _ = writeln!(out, "modulation = \"burst\"");
                let _ = writeln!(out, "period = {}", f(period));
                let _ = writeln!(out, "burst_len = {}", f(burst_len));
                let _ = writeln!(out, "multiplier = {}", f(multiplier));
            }
        }
        let _ = writeln!(out, "seed = {}", arrival.seed);
    }

    // Rendered in full (never as the parser's `arrival = RATE` sugar):
    // the sugar normalizes at parse time, so round-tripping stays exact.
    if let Some(open_loop) = &s.open_loop {
        let _ = writeln!(out, "\n[open_loop]");
        let _ = writeln!(out, "clients = {}", open_loop.clients);
    }

    for (i, phase) in s.workload.phases().iter().enumerate() {
        let transition = (i > 0).then(|| s.workload.transitions()[i - 1]);
        push_phase(&mut out, "phase", phase, transition);
    }

    if let Some(holdout) = &s.holdout {
        for (i, phase) in holdout.phases().iter().enumerate() {
            let transition = (i > 0).then(|| holdout.transitions()[i - 1]);
            push_phase(&mut out, "holdout", phase, transition);
        }
    }

    if let Some(plan) = &s.faults {
        for fault in &plan.faults {
            let _ = writeln!(out, "\n[[fault]]");
            let _ = writeln!(out, "kind = \"{}\"", fault.kind());
            match fault {
                FaultSpec::TransientErrors { phase, rate } => {
                    if let Some(p) = phase {
                        let _ = writeln!(out, "phase = {p}");
                    }
                    let _ = writeln!(out, "rate = {}", f(*rate));
                }
                FaultSpec::LatencySpike {
                    phase,
                    add_work,
                    factor,
                } => {
                    if let Some(p) = phase {
                        let _ = writeln!(out, "phase = {p}");
                    }
                    let _ = writeln!(out, "add_work = {add_work}");
                    let _ = writeln!(out, "factor = {}", f(*factor));
                }
                FaultSpec::Stall {
                    phase,
                    from_op,
                    ops,
                    duration,
                } => {
                    let _ = writeln!(out, "phase = {phase}");
                    let _ = writeln!(out, "from_op = {from_op}");
                    let _ = writeln!(out, "ops = {ops}");
                    let _ = writeln!(out, "duration = {}", f(*duration));
                }
                FaultSpec::Crash { phase, at_op } => {
                    let _ = writeln!(out, "phase = {phase}");
                    let _ = writeln!(out, "at_op = {at_op}");
                }
            }
        }
    }

    out
}
