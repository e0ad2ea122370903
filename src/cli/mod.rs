//! The command table: every `lsbench` command, the flags it accepts, its
//! positional arity, its usage block and the function that runs it, in one
//! place. Dispatch, the usage text, per-command usage errors and argument
//! parsing are all driven from [`COMMANDS`]; a flag's name is spelled once,
//! in [`flag`], and command bodies read it through [`Args`].

mod archive;
mod args;
mod info;
mod run;
mod trace;

pub use args::CliError;
use args::{Args, Command, Flag};

/// Every flag any command accepts.
pub mod flag {
    use super::Flag;

    pub const SCENARIO: Flag = Flag::value("--scenario");
    pub const SUT: Flag = Flag::value("--sut");
    pub const REMOTE: Flag = Flag::value("--remote");
    pub const FAULTS: Flag = Flag::value("--faults");
    pub const TRACE: Flag = Flag::switch("--trace");
    pub const MODE: Flag = Flag::value("--mode");
    pub const CLOCK: Flag = Flag::value("--clock");
    pub const THREADS: Flag = Flag::value("--threads");
    pub const CLIENTS: Flag = Flag::value("--clients");
    pub const SIZE: Flag = Flag::value("--size");
    pub const OPS: Flag = Flag::value("--ops");
    pub const SEED: Flag = Flag::value("--seed");
    pub const STORE: Flag = Flag::value("--store");
    pub const SAVE: Flag = Flag::switch("--save");
    pub const JSON: Flag = Flag::switch("--json");
    pub const SLA: Flag = Flag::value("--sla");
    pub const RATE: Flag = Flag::value("--rate");
    pub const PROBES: Flag = Flag::value("--probes");
    pub const TOLERANCE: Flag = Flag::value("--tolerance");
    pub const DRIFT: Flag = Flag::value("--drift");
    pub const PORT: Flag = Flag::value("--port");
    pub const HOST: Flag = Flag::value("--host");
    pub const DIST: Flag = Flag::value("--dist");
    pub const THETA: Flag = Flag::value("--theta");
    pub const BASELINE: Flag = Flag::value("--baseline");
    pub const CANDIDATE: Flag = Flag::value("--candidate");
    pub const POLICY: Flag = Flag::value("--policy");
    pub const FORMAT: Flag = Flag::value("--format");
    pub const OUT: Flag = Flag::value("--out");
    pub const SPEED: Flag = Flag::value("--speed");
    pub const ARCHIVE: Flag = Flag::switch("--archive");
    pub const NAME: Flag = Flag::value("--name");
}
use flag::*;

/// What to run and against what.
const TARGET: &[Flag] = &[SCENARIO, SUT, REMOTE, FAULTS];
/// How to execute it.
const EXEC: &[Flag] = &[MODE, CLOCK, THREADS, CLIENTS];
/// The scale built-in scenarios are instantiated at.
const SCALE: &[Flag] = &[SIZE, OPS, SEED];

const HEADER: &str = "lsbench — benchmark for learned data systems\n\nUSAGE:\n";

pub const COMMANDS: &[Command] = &[
    Command {
        path: &["suite"],
        flags: &[
            SCALE,
            &[THREADS, SUT.repeatable(), FAULTS, TRACE, SAVE, STORE],
        ],
        positionals: (0, 0),
        usage: "  lsbench suite [--size N] [--ops N] [--seed N] [--threads N] [--sut NAME]...
                [--faults NAME|FILE] [--trace] [--save] [--store DIR]
      Run the standard seven-scenario suite (default: all SUTs) and print
      the cross-SUT comparison. Artifacts land in target/lsbench-results/.
      --threads N > 1 key-range-shards every scenario across N worker
      threads on the concurrent engine. --faults attaches a deterministic
      fault plan (chaos-errors, chaos-latency, chaos-timeouts, or a plan
      file) to every scenario. --trace records the virtual-clock event
      trace (trace.jsonl) and prints per-scenario span trees. --save
      archives every run record into the results store for later
      `lsbench compare` / `lsbench regress`.",
        run: run::suite,
    },
    Command {
        path: &["run"],
        flags: &[TARGET, EXEC, SCALE, &[TRACE]],
        positionals: (0, 0),
        usage: "  lsbench run --scenario NAME|FILE --sut NAME [--mode M] [--clock C]
              [--threads N] [--clients N] [--trace] [--size N] [--ops N]
              [--seed N] [--faults NAME|FILE] [--remote HOST:PORT]
      Run one scenario — a built-in name (see `lsbench scenarios`) or a
      .spec file — for one SUT. --size/--ops/--seed rescale built-in
      scenarios; spec files always run exactly as written. --mode picks
      the execution mode (serial, shared, sharded, open-loop); without it
      the scenario's `[run] mode` / `[open_loop]` section decides, then
      --threads N > 1 implies sharded, else serial. --clock picks the
      reporting clock (sim, wall); without it the scenario's `[run]
      clock` decides, defaulting to sim. Wall mode additionally measures
      host time coordinated-omission-safely beside the virtual record —
      the work-unit record itself is bit-identical across clocks.
      --clients N sets (and implies) the open-loop client population
      multiplexed onto the worker pool. --faults attaches a deterministic
      fault plan on top of whatever [[fault]] blocks the spec itself
      carries (the flag wins). --remote drives a `lsbench serve` server
      over the wire protocol instead of an in-process SUT (the server
      chooses the SUT; --sut is ignored).",
        run: |args| run::run_scenario(args, false),
    },
    Command {
        path: &["capacity"],
        flags: &[
            TARGET,
            SCALE,
            &[SLA, CLIENTS, THREADS, RATE, PROBES, TOLERANCE, STORE, JSON],
        ],
        positionals: (0, 0),
        usage: "  lsbench capacity --scenario NAME|FILE --sut NAME --sla pNN:MS
                   [--clients N] [--threads N] [--rate R] [--probes N]
                   [--tolerance X] [--size N] [--ops N] [--seed N]
                   [--faults NAME|FILE] [--remote HOST:PORT]
                   [--store DIR] [--json]
      Binary-search the maximum sustainable open-loop arrival rate under
      a latency SLA (`p99:5` = p99 at most 5ms, virtual time). Each probe
      runs the scenario open-loop on a fresh SUT with the arrival rate
      substituted, bracketing then bisecting to the SLA knee; every probe
      lands in the printed throughput-latency curve. The report is
      archived as a schema-versioned capacity artifact under the results
      store's capacity/ directory. --rate sets the first probed rate
      (default 1000 ops/s), --probes caps probe runs (default 12),
      --tolerance sets the relative bracket width to stop at (default
      0.05). With --remote every probe drives a `lsbench serve` server.",
        run: run::capacity,
    },
    Command {
        path: &["sweep"],
        flags: &[
            &[SCENARIO, SUT.repeatable(), REMOTE, FAULTS],
            EXEC,
            SCALE,
            &[DRIFT, STORE, JSON],
        ],
        positionals: (0, 0),
        usage: "  lsbench sweep --scenario NAME|FILE --sut A[,B,...] [--drift LO..HIxN]
                [--mode M] [--clock C] [--threads N] [--clients N]
                [--size N] [--ops N] [--seed N]
                [--faults NAME|FILE] [--remote HOST:PORT]
                [--store DIR] [--json]
      Grade the scenario's drift by intensity: expand the --drift axis
      (default 0..1x5) into an N-rung ladder — rung α replays every phase
      pulled toward the first phase so that α=0 is a static control and
      α=1 is the scenario as written — run every (SUT, α) cell, and print
      per-SUT curves of adaptability area, adjustment speed, SLA
      violation rate, and specialization spread against α, with the
      linear distribution-shift bound as a theory overlay (rungs that
      degrade faster are flagged). Multiple lanes: repeat --sut or pass a
      comma list. The curves are archived as a schema-versioned sweep
      artifact under the results store's sweep/ directory; --json prints
      the artifact instead of the text report. The ladder requires every
      phase to share the first phase's distribution shape.",
        run: run::sweep,
    },
    Command {
        path: &["serve"],
        flags: &[&[SUT, PORT, HOST]],
        positionals: (0, 0),
        usage: "  lsbench serve --sut NAME --port P [--host H]
      Host a registered SUT out-of-process: listen on H:P (default host
      127.0.0.1; port 0 picks a free port) and serve the full SUT surface
      over the versioned length-prefixed wire protocol. Clients ship the
      scenario spec in the Load request, so one server handles any
      scenario. Runs until killed.",
        run: run::serve,
    },
    Command {
        path: &["shift"],
        flags: &[SCALE, &[SUT, THREADS, MODE, CLOCK, TRACE]],
        positionals: (0, 0),
        usage: "  lsbench shift --sut NAME [--size N] [--ops N] [--seed N] [--threads N]
                [--mode M] [--clock C] [--trace]
      Run the canonical two-phase distribution-shift scenario for one SUT
      and print its adaptability report. --threads N > 1 runs it sharded
      on the concurrent engine and also prints merged latency quantiles.
      --trace writes shift_trace.jsonl and prints the span tree.",
        run: run::shift,
    },
    Command {
        path: &["quality"],
        flags: &[&[DIST, THETA]],
        positionals: (0, 0),
        usage: "  lsbench quality --dist NAME [--theta X]
      Score a key distribution with the §V-C quality tool.
      NAME: see `lsbench list`",
        run: info::quality,
    },
    Command {
        path: &["archive", "run"],
        flags: &[TARGET, EXEC, SCALE, &[TRACE, STORE]],
        positionals: (0, 0),
        usage: "  lsbench archive run --scenario NAME|FILE --sut NAME [--mode M] [--clock C]
                      [--threads N] [--clients N] [--trace] [--size N]
                      [--ops N] [--seed N] [--faults NAME|FILE]
                      [--store DIR] [--remote HOST:PORT]
      Run one scenario and save the complete run record as a
      schema-versioned, content-addressed artifact (default store:
      .lsbench/results/ at the workspace root). With --remote the run
      executes against a `lsbench serve` server and the manifest records
      the remote transport, so `lsbench compare` can surface
      remote-vs-local pairings.",
        run: |args| run::run_scenario(args, true),
    },
    Command {
        path: &["archive", "list"],
        flags: &[&[STORE]],
        positionals: (0, 0),
        usage: "  lsbench archive list [--store DIR]
      List stored artifacts (digest, SUT, scenario, workers, transport,
      ops).",
        run: archive::list,
    },
    Command {
        path: &["archive", "show"],
        flags: &[&[STORE]],
        positionals: (1, 1),
        usage: "  lsbench archive show ID [--store DIR]
      Print one artifact's manifest and record summary. ID is a file
      path, a digest (prefix), or a unique substring of the file name.",
        run: archive::show,
    },
    Command {
        path: &["compare"],
        flags: &[&[STORE, JSON]],
        positionals: (2, 2),
        usage: "  lsbench compare BASELINE CANDIDATE [--store DIR] [--json]
      Head-to-head comparison of two saved runs: Fig. 1b adaptability
      area difference, per-phase Fig. 1a box-stat deltas, Fig. 1c SLA
      deltas (threshold calibrated from BASELINE), fault accounting, and
      Fig. 1d cost-per-query ratio. --json emits the serialized report.",
        run: archive::compare,
    },
    Command {
        path: &["regress"],
        flags: &[&[BASELINE, CANDIDATE, POLICY, STORE, JSON]],
        positionals: (0, 0),
        usage: "  lsbench regress --baseline ID --candidate ID --policy FILE
                  [--store DIR] [--json]
      Gate the candidate against the baseline under a regression policy
      (spec-style file; see policies/default.policy). Writes
      BENCH_summary.json and exits non-zero on any policy violation.",
        run: archive::regress,
    },
    Command {
        path: &["trace", "import"],
        flags: &[&[FORMAT, OUT, SPEED]],
        positionals: (1, 1),
        usage: "  lsbench trace import FILE [--format csv|jsonl] [--out FILE] [--speed X]
      Parse and validate a keyed-operation trace (CSV or JSON-lines;
      format inferred from the extension) and print its summary:
      op counts, distinct keys, key range, and whether it carries
      timestamps (open-loop replay) or not (closed-loop fallback).
      Errors are positioned (file:line N: field: reason). --out rewrites
      the trace in canonical form; --speed rescales timestamps.",
        run: trace::import,
    },
    Command {
        path: &["trace", "replay"],
        flags: &[&[SUT, SPEED, MODE, CLIENTS, THREADS, FORMAT, ARCHIVE, STORE]],
        positionals: (1, 1),
        usage: "  lsbench trace replay FILE --sut NAME [--speed X] [--mode open-loop]
                      [--clients N] [--threads N] [--format csv|jsonl]
                      [--archive] [--store DIR]
      Replay an imported trace against a SUT on the virtual clock.
      Timestamped traces replay open-loop at the recorded arrival times
      (divided by --speed); timestamp-less traces replay closed-loop.
      --mode open-loop / --clients N multiplexes the trace over an
      open-loop client population (bit-identical for any --threads).
      --archive saves the record into the results store so replays can
      feed `lsbench compare` / `lsbench regress`.",
        run: trace::replay,
    },
    Command {
        path: &["trace", "fit"],
        flags: &[&[NAME, SEED, OUT, FORMAT]],
        positionals: (1, 1),
        usage: "  lsbench trace fit FILE [--name NAME] [--seed N] [--out FILE]
                   [--format csv|jsonl]
      Fit a scenario spec to a trace: change-point phase segmentation
      over windowed op-mix/key statistics, then per-phase mix, key-range,
      and distribution estimation (hotspot / Zipf / uniform) plus a
      repetition-factor report. Prints canonical spec text (or writes
      --out) that `lsbench validate` and `lsbench run` accept as-is.",
        run: trace::fit,
    },
    Command {
        path: &["trace", "record"],
        flags: &[SCALE, &[SCENARIO, OUT, RATE, FORMAT]],
        positionals: (0, 0),
        usage: "  lsbench trace record --scenario NAME|FILE --out FILE [--rate R]
                       [--format csv|jsonl] [--size N] [--ops N] [--seed N]
      Record a scenario's generated operation stream as a trace file.
      --rate R stamps constant-rate timestamps (R ops/s) so the
      recording replays open-loop.",
        run: trace::record,
    },
    Command {
        path: &["scenarios"],
        flags: &[],
        positionals: (0, 0),
        usage: "  lsbench scenarios
      List built-in scenarios (resolvable by name in `lsbench run`).",
        run: info::scenarios,
    },
    Command {
        path: &["validate"],
        flags: &[],
        positionals: (1, usize::MAX),
        usage: "  lsbench validate FILE|DIR...
      Parse and validate scenario spec files, printing positioned
      errors (file:line: field: reason). Directories are scanned for
      *.spec. Exits non-zero if any file is invalid.",
        run: info::validate,
    },
    Command {
        path: &["export"],
        flags: &[SCALE],
        positionals: (1, 1),
        usage: "  lsbench export NAME [--size N] [--ops N] [--seed N]
      Print a built-in scenario as canonical spec text (the format
      shipped in scenarios/).",
        run: info::export,
    },
    Command {
        path: &["list"],
        flags: &[],
        positionals: (0, 0),
        usage: "  lsbench list
      List registered SUTs and distributions.",
        run: info::list,
    },
];

/// The usage blocks of `commands`, one blank line between them.
fn usage_of<'a>(commands: impl Iterator<Item = &'a Command>) -> String {
    commands.map(|c| c.usage).collect::<Vec<_>>().join("\n\n")
}

/// Runs the command `argv` (the process arguments, program name removed)
/// selects. No command, or an unknown one, is answered with the whole usage
/// text; a command group without its subcommand (`lsbench archive`) with
/// the group's blocks.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let selects = |c: &&Command| c.path.iter().eq(argv.iter().take(c.path.len()));
    if let Some(command) = COMMANDS.iter().find(selects) {
        let args = Args::parse(command, &argv[command.path.len()..])?;
        return (command.run)(&args);
    }
    let group = usage_of(
        COMMANDS
            .iter()
            .filter(|c| c.path.len() > 1 && argv.first().is_some_and(|a| a == c.path[0])),
    );
    Err(CliError::usage(if group.is_empty() {
        format!("{HEADER}{}\n", usage_of(COMMANDS.iter()))
    } else {
        format!("USAGE:\n{group}")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--flag` tokens in a usage block.
    fn mentioned(usage: &str) -> BTreeSet<&str> {
        usage
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|token| token.starts_with("--") && token.len() > 2)
            .collect()
    }

    #[test]
    fn every_usage_block_and_flag_list_agree() {
        for command in COMMANDS {
            let declared: BTreeSet<&str> = command
                .flags
                .iter()
                .copied()
                .flatten()
                .map(|f| f.name)
                .collect();
            assert_eq!(
                mentioned(command.usage),
                declared,
                "`lsbench {}`: the flags its usage block mentions (left) are not the flags it \
                 accepts (right)",
                command.path.join(" ")
            );
            let count = command.flags.iter().copied().flatten().count();
            assert_eq!(
                count,
                declared.len(),
                "{:?} declares a flag twice",
                command.path
            );
            assert!(
                command
                    .usage
                    .starts_with(&format!("  lsbench {}", command.path.join(" "))),
                "{:?}: usage block starts with its own synopsis",
                command.path
            );
        }
    }

    #[test]
    fn no_command_path_shadows_another() {
        for (i, a) in COMMANDS.iter().enumerate() {
            for b in &COMMANDS[i + 1..] {
                assert!(!a.path.starts_with(b.path) && !b.path.starts_with(a.path));
            }
        }
    }
}
