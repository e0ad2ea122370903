//! Everything the benchmark reads or writes beside its measurements:
//! `BENCHMARK.json` (the metric contract), `golden.json` (pinned facts of
//! the default seed), the result line, and the per-invocation artifacts
//! `env.json`, `results.json` and `trace.json`.

use crate::bench::{Config, Report};
use crate::measure::Metric;
use crate::trace::Span;
use crate::Res;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The contract every invocation checks its output against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Pinned facts, compiled in so the binary needs no path to find them.
const GOLDEN_JSON: &str = include_str!("../golden.json");
/// End-to-end metrics that are byte counts, not timings: `--check-repeat`
/// requires them equal, not merely within their bound.
const EXACT: [&str; 1] = ["artifact_bytes_per_op"];

#[derive(Debug, Clone, Deserialize)]
pub struct SpecWorkload {
    pub name: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the median; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this crate acts on.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<SpecWorkload>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

pub fn benchmark_spec() -> Res<Spec> {
    Ok(serde_json::from_str(BENCHMARK_JSON)?)
}

/// Every metric the contract names for this kind of run is emitted exactly
/// once, with its unit, and nothing else is.
pub fn check_against_spec(metrics: &[Metric], trace: bool) -> Res<()> {
    let spec = benchmark_spec()?;
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for want in wanted {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == want.name).collect();
        match found.as_slice() {
            [one] if one.unit == want.unit => {}
            [one] => {
                return Err(format!(
                    "{}: unit {} but BENCHMARK.json says {}",
                    one.name, one.unit, want.unit
                )
                .into())
            }
            other => return Err(format!("{} emitted {} times", want.name, other.len()).into()),
        }
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| wanted.iter().all(|w| w.name != m.name))
    {
        return Err(format!("{} is not in BENCHMARK.json", extra.name).into());
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name).into());
    }
    Ok(())
}

type Golden = BTreeMap<String, String>;

/// The pinned facts: the compiled-in `golden.json`, or `path` instead.
pub fn load_golden(path: Option<&Path>) -> Res<Golden> {
    let text = match path {
        Some(path) => std::fs::read_to_string(path)?,
        None => GOLDEN_JSON.to_string(),
    };
    Ok(serde_json::from_str(&text)?)
}

/// Where the golden pins this scale, seed and workload (`prefix`), every
/// fact the run recorded must be pinned and equal.
pub fn check_golden(golden: &Golden, prefix: &str, facts: &BTreeMap<String, String>) -> Res<()> {
    if !golden.keys().any(|k| k.starts_with(prefix)) {
        return Ok(());
    }
    for (key, value) in facts {
        match golden.get(&format!("{prefix}{key}")) {
            Some(pinned) if pinned == value => {}
            Some(pinned) => {
                return Err(format!(
                    "golden mismatch at {prefix}{key}: got {value}, pinned {pinned}"
                )
                .into())
            }
            None => return Err(format!("golden has no entry {prefix}{key} (got {value})").into()),
        }
    }
    Ok(())
}

/// Replaces the `prefix` entries of the golden file at `path` with `facts`.
pub fn merge_golden(path: &Path, prefix: &str, facts: &BTreeMap<String, String>) -> Res<()> {
    let mut golden: Golden = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)?,
        Err(_) => Golden::new(),
    };
    golden.retain(|k, _| !k.starts_with(prefix));
    for (key, value) in facts {
        golden.insert(format!("{prefix}{key}"), value.clone());
    }
    std::fs::write(path, serde_json::to_string_pretty(&golden)? + "\n")?;
    Ok(())
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Reports that reach this
/// point passed every check, so `correct` is always true.
pub fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (m.name.clone(), Value::Object(entry))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(true)),
        ("attempted".to_string(), Value::UInt(report.attempted)),
        ("failed".to_string(), Value::UInt(report.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}

#[derive(Deserialize)]
struct LineMetric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    metrics: BTreeMap<String, LineMetric>,
}

/// Reads a [`result_line`] back (used on child processes' output).
pub fn parse_result_line(line: &str) -> Res<BTreeMap<String, Metric>> {
    let parsed: ResultLine = serde_json::from_str(line)?;
    if !parsed.correct {
        return Err("the run reported incorrect outputs".into());
    }
    Ok(parsed
        .metrics
        .into_iter()
        .map(|(name, m)| (name.clone(), Metric::single(name, &m.unit, m.value)))
        .collect())
}

/// Compares two runs of one workload: every end-to-end metric must agree
/// within its bound, and the exact ones must be equal. Returns the
/// comparison table and the metrics that did not.
pub fn compare_repeat(
    workload: &str,
    first: &BTreeMap<String, Metric>,
    second: &BTreeMap<String, Metric>,
) -> Res<(String, Vec<String>)> {
    let spec = benchmark_spec()?;
    let mut table = format!("[check-repeat] {workload}\n");
    let mut breaches = Vec::new();
    for want in &spec.end_to_end {
        let get = |run: &BTreeMap<String, Metric>| {
            run.get(&want.name)
                .map(|m| m.value)
                .ok_or_else(|| format!("{}: missing from a run", want.name))
        };
        let (a, b) = (get(first)?, get(second)?);
        let worse = if want.better == "lower" {
            b / a - 1.0
        } else {
            a / b - 1.0
        };
        let bound = want.bound.unwrap_or(0.0);
        let exact = EXACT.contains(&want.name.as_str());
        let breached = worse.abs() > bound || (exact && a != b);
        table += &format!(
            "  {:<28} {a:>16.4} {b:>16.4} {:>+8.2} % (bound {:.0} %{}){}\n",
            want.name,
            worse * 100.0,
            bound * 100.0,
            if exact { ", exact" } else { "" },
            if breached { "  <-- differs" } else { "" },
        );
        if breached {
            breaches.push(format!("{workload}/{}", want.name));
        }
    }
    Ok((table, breaches))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host and inputs a result was measured on.
#[derive(Serialize)]
struct Env {
    cpu_model: String,
    nproc: usize,
    rustc: String,
    commit: String,
    workload: String,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    sizes: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Results {
    workload: String,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

#[derive(Serialize)]
struct TraceFile {
    run_id: u64,
    workload: String,
    spans: Vec<Span>,
}

/// Writes `env.json` and `results.json` (and `trace.json` for a traced
/// run) into the invocation's output directory.
pub fn write_all(cfg: &Config, report: &Report) -> Res<()> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = Env {
        cpu_model,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc: command_line("rustc", &["--version"]),
        commit: command_line("git", &["rev-parse", "HEAD"]),
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        scale: cfg.scale,
        trace: cfg.trace,
        sizes: report.sizes.clone(),
    };
    let write = |name: &str, json: String| std::fs::write(cfg.out_dir.join(name), json + "\n");
    write("env.json", serde_json::to_string_pretty(&env)?)?;
    let results = Results {
        workload: cfg.workload.clone(),
        attempted: report.attempted,
        failed: report.failed,
        metrics: report.metrics.clone(),
    };
    write("results.json", serde_json::to_string_pretty(&results)?)?;
    if cfg.trace {
        let trace = TraceFile {
            run_id: cfg.seed,
            workload: cfg.workload.clone(),
            spans: report.spans.clone(),
        };
        write("trace.json", serde_json::to_string_pretty(&trace)?)?;
    }
    Ok(())
}
