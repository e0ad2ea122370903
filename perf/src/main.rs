//! `lsbench-perf` — the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! lsbench-perf --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]]
//!              [--check-repeat] [--scale F] [--golden FILE] [--write-golden FILE]
//! ```
//!
//! One invocation measures one workload in one process (so `peak_rss_mb`
//! is that workload's), prints every metric as a `name unit value` line,
//! and ends standard output with one JSON object: the end-to-end metrics,
//! or with `--trace` the per-layer ones. Any failed output check makes it
//! exit non-zero without that object. See `README.md` beside this crate.

mod artifacts;
mod bench;
mod layers;
mod measure;
mod suts;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use bench::{Config, Report};
use measure::Metric;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed the pinned facts of `golden.json` were recorded with.
pub const DEFAULT_SEED: u64 = 42;
/// Where every invocation leaves `env.json`, `results.json`, `trace.json`.
const OUT_ROOT: &str = "target/lsbench-perf";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    check_repeat: bool,
    golden: Option<PathBuf>,
    write_golden: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: artifacts::benchmark_spec()?.run_seconds as f64,
        trace: false,
        scale: 1.0,
        check_repeat: false,
        golden: None,
        write_golden: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => args.seed = value("a number")?.parse()?,
            "--seconds" => args.seconds = value("a number of seconds")?.parse()?,
            "--scale" => args.scale = value("a factor")?.parse()?,
            "--golden" => args.golden = Some(value("a file")?.into()),
            "--write-golden" => args.write_golden = Some(value("a file")?.into()),
            "--check-repeat" => args.check_repeat = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload NAME|all is required".into());
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

/// Runs one workload in this process and writes its artifacts.
fn run_here(args: &Args) -> Res<Report> {
    let cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        out_dir: PathBuf::from(OUT_ROOT).join(&args.workload),
    };
    std::fs::create_dir_all(&cfg.out_dir)?;
    let report = bench::run(&cfg)?;
    artifacts::check_against_spec(&report.metrics, cfg.trace)?;

    let prefix = format!("{}/{}/{}/", cfg.scale, cfg.seed, cfg.workload);
    if let Some(path) = &args.write_golden {
        artifacts::merge_golden(path, &prefix, &report.facts)?;
    } else {
        let golden = artifacts::load_golden(args.golden.as_deref())?;
        artifacts::check_golden(&golden, &prefix, &report.facts)?;
    }
    artifacts::write_all(&cfg, &report)?;
    Ok(report)
}

fn print_report(report: &Report) {
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
    println!("{}", artifacts::result_line(report));
}

/// Runs `workload` in a child process of this same binary and returns its
/// metrics, so each workload keeps its own peak RSS.
fn run_child(args: &Args, workload: &str) -> Res<BTreeMap<String, Metric>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(golden) = &args.golden {
        cmd.arg("--golden").arg(golden);
    }
    // `output` waits for the child and collects its standard output.
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8(out.stdout)?;
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("workload {workload} exited with {}", out.status).into());
    }
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    artifacts::parse_result_line(last)
}

fn main_inner() -> Res<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = artifacts::benchmark_spec()?;
    let selected: Vec<&str> = if args.workload == "all" {
        spec.workloads.iter().map(|w| w.name.as_str()).collect()
    } else {
        vec![args.workload.as_str()]
    };
    if args.check_repeat {
        let mut breaches = Vec::new();
        for workload in selected {
            let first = run_child(&args, workload)?;
            let second = run_child(&args, workload)?;
            let (table, differing) = artifacts::compare_repeat(workload, &first, &second)?;
            eprint!("{table}");
            breaches.extend(differing);
        }
        if !breaches.is_empty() {
            let list = breaches.join(", ");
            return Err(
                format!("two runs of the same code differ beyond the bound on: {list}").into(),
            );
        }
    } else if args.workload == "all" {
        for workload in selected {
            run_child(&args, workload)?;
        }
    } else {
        print_report(&run_here(&args)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lsbench-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
