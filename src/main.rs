//! `lsbench` — command-line front end for the learned-systems benchmark.
//!
//! The commands, their flags and their usage text are one table,
//! [`cli::COMMANDS`]; run `lsbench` without arguments to print it.
//!
//! SUT names are resolved through
//! [`SutRegistry`](lsbench::core::sut_registry::SutRegistry); scenario
//! names and `scenarios/*.spec` files are resolved through
//! [`ScenarioRegistry`](lsbench::core::spec::ScenarioRegistry);
//! `--faults` takes a built-in chaos-plan name or a fault-plan file and
//! attaches it to the scenario(s) (deterministic fault injection — see
//! [`lsbench::core::faults`]). `--trace` turns on the observability
//! layer: runs emit a deterministic virtual-clock event trace (written to
//! `target/lsbench-results/trace.jsonl`) and print a wall-clock span tree.
//!
//! `lsbench serve` hosts a registered SUT out-of-process behind the
//! length-prefixed wire protocol ([`lsbench::core::wire`]); `--remote
//! HOST:PORT` on `run` / `archive run` drives such a server through the
//! pipelined [`RemoteSut`](lsbench::core::wire::RemoteSut) client pool instead of an in-process SUT. The
//! in-process mode stays the conformance oracle: the same scenario run
//! remotely and locally must produce identical records.
//!
//! The `archive`/`compare`/`regress` family is the longitudinal layer
//! ([`lsbench::core::results`]): `archive run` executes a scenario and
//! saves the complete run record as a schema-versioned, content-addressed
//! artifact under `.lsbench/results/`; `compare` computes the paper's
//! paired metrics (Fig. 1a–1d) head-to-head between two saved runs; and
//! `regress` gates a candidate against a baseline under a policy file,
//! exiting non-zero on violation and emitting `BENCH_summary.json`.

mod cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("{}", e.message);
            }
            ExitCode::from(e.code)
        }
    }
}
