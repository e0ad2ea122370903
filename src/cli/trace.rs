//! `lsbench trace import|replay|fit|record`: real workloads in, specs and
//! shareable traces out.

use super::archive::{archive, open_store};
use super::args::{Args, CliError, Context};
use super::flag::*;
use super::run::{RunArgs, DEFAULT_CLIENTS};
use lsbench::core::driver::{run_kv_trace, run_kv_trace_open_loop};
use lsbench::core::results::{RunArtifact, RunManifest, Transport};
use lsbench::core::scenario::{Choice, ClockMode, ModePreference};
use lsbench::core::spec::render_scenario;
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::trace::{
    export_csv, export_jsonl, fit_scenario, import_str, ImportedTrace, TraceFormat,
};
use lsbench::workload::trace::TraceEntry;
use lsbench::workload::{Dataset, Trace};
use std::path::Path;

/// Reads and imports the trace file named by the command's one positional,
/// resolving the format from `--format` or the file extension. Errors are
/// positioned, `validate`-style: `file:line N: field: reason`.
fn load_trace(args: &Args) -> Result<(&str, ImportedTrace), CliError> {
    let file = args.positionals()[0].as_str();
    let format = match args.choice(&FORMAT, "trace format")? {
        Some(format) => format,
        None => TraceFormat::from_path(file).ok_or_else(|| {
            CliError::usage(format!(
                "cannot infer trace format of {file} (use {} {})",
                FORMAT.name,
                TraceFormat::words().join("|")
            ))
        })?,
    };
    let text = std::fs::read_to_string(file)
        .map_err(|e| CliError::usage(format!("cannot read {file}: {e}")))?;
    let mut imported =
        import_str(&text, format).map_err(|e| CliError::failure(format!("{file}:{e}")))?;
    if let Some(speed) = args.parsed::<f64>(&SPEED, "a number", |_| true)? {
        imported
            .scale_speed(speed)
            .map_err(|e| CliError::usage(e.to_string()))?;
    }
    Ok((file, imported))
}

/// The format to write `path` (the value of `--out`) in: the value of
/// `--format`, else the one the path's extension names, CSV when it names
/// none. A `--format` the extension contradicts is refused, since writing
/// either would belie the other.
fn out_format(args: &Args, path: &str) -> Result<TraceFormat, CliError> {
    let named = TraceFormat::from_path(path);
    match (args.choice::<TraceFormat>(&FORMAT, "trace format")?, named) {
        (Some(format), Some(named)) if format != named => Err(CliError::usage(format!(
            "{} {} contradicts {} {path}, which names {}",
            FORMAT.name,
            format.as_str(),
            OUT.name,
            named.as_str()
        ))),
        (format, _) => Ok(format.or(named).unwrap_or(TraceFormat::Csv)),
    }
}

/// Writes a trace in canonical form to `path` in `format`.
fn write_trace(trace: &Trace, path: &str, format: TraceFormat) -> Result<(), CliError> {
    let text = match format {
        TraceFormat::Csv => export_csv(trace),
        TraceFormat::Jsonl => export_jsonl(trace),
    };
    std::fs::write(path, text).context(&format!("cannot write {path}"))?;
    eprintln!("wrote {} ops to {path}", trace.len());
    Ok(())
}

/// `lsbench trace import`: parse, validate, and summarize a trace file,
/// optionally re-exporting it in canonical form.
pub fn import(args: &Args) -> Result<(), CliError> {
    let out = match args.get(&OUT) {
        Some(path) => Some((path, out_format(args, path)?)),
        None => None,
    };
    let (_, imported) = load_trace(args)?;
    let stats = imported.stats();
    println!(
        "{} ops (read {}, insert {}, update {}, scan {}, delete {})",
        stats.ops,
        stats.by_kind[0],
        stats.by_kind[1],
        stats.by_kind[2],
        stats.by_kind[3],
        stats.by_kind[4]
    );
    println!(
        "{} distinct keys in [{}, {}]",
        stats.distinct_keys, stats.key_range.0, stats.key_range.1
    );
    if imported.had_timestamps {
        println!(
            "timestamped: {:.6}s span, replays open-loop",
            stats.duration
        );
    } else {
        println!("no timestamps: replays closed-loop");
    }
    match out {
        Some((path, format)) => write_trace(&imported.trace, path, format),
        None => Ok(()),
    }
}

/// `lsbench trace replay`: replay an imported trace against a SUT —
/// closed-loop by default, open-loop with `--mode open-loop` /
/// `--clients` — optionally archiving the record into the results store.
pub fn replay(args: &Args) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let sut_name = common.sut()?;
    let (file, imported) = load_trace(args)?;
    let trace = &imported.trace;
    // The dataset a trace replays over: the trace's own key population.
    let data = Dataset::from_keys(trace.entries().iter().map(|e| e.op.key()).collect());
    let mut sut = SutRegistry::default().build(sut_name, &data)?;
    let clients = common.clients.unwrap_or(DEFAULT_CLIENTS);
    let open_loop =
        matches!(common.mode, Some(ModePreference::OpenLoop)) || common.clients.is_some();
    let record = if open_loop {
        eprintln!(
            "replaying {} ops open-loop on {sut_name} ({clients} clients) ...",
            trace.len()
        );
        run_kv_trace_open_loop(sut.as_mut(), trace, clients)
    } else {
        eprintln!(
            "replaying {} ops closed-loop on {sut_name} ...",
            trace.len()
        );
        run_kv_trace(sut.as_mut(), trace)
    }
    .context("replay failed")?;
    println!(
        "{}: {:.0} ops/s mean, {} completed, {} failures",
        record.sut_name,
        record.mean_throughput(),
        record.completed(),
        record.failures()
    );
    if !args.has(&ARCHIVE) {
        return Ok(());
    }
    let store = open_store(args)?;
    // Replays have no Scenario, so the manifest carries a stable
    // descriptor instead of rendered spec text.
    let stem = Path::new(file)
        .file_stem()
        .map_or(file.into(), |s| s.to_string_lossy());
    let mode = if open_loop {
        format!("{}:{clients}", ModePreference::OpenLoop.as_str())
    } else {
        "closed-loop".to_string()
    };
    let manifest = RunManifest {
        sut: sut_name.to_string(),
        scenario: format!("trace-{stem}"),
        spec: format!(
            "# trace replay\nfile = \"{file}\"\nspeed = \"{}\"\nmode = \"{mode}\"\n",
            args.get(&SPEED).unwrap_or("1"),
        ),
        concurrency: common.threads,
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        transport: Transport::Local,
        clock: ClockMode::Sim,
    };
    archive(&store, &RunArtifact::new(manifest, record))
}

/// `lsbench trace fit`: fit a `.spec` scenario to a trace and print (or
/// write) the canonical spec text plus a fit report.
pub fn fit(args: &Args) -> Result<(), CliError> {
    let (_, imported) = load_trace(args)?;
    let name = args.get(&NAME).unwrap_or("fitted-trace");
    let (scenario, report) =
        fit_scenario(&imported.trace, name, args.num(&SEED, 0x5EED)?).context("fit failed")?;
    eprintln!(
        "fit: {} phase(s), repetition factor: distinct ratio {:.3}, top-10 template mass {:.3}",
        report.phases.len(),
        report.distinct_ratio,
        report.top_template_mass
    );
    for p in &report.phases {
        eprintln!(
            "  {}: {} ops, {:?}, key_range [{}, {}), distinct {:.3}, top1 {:.4}",
            p.name,
            p.ops,
            p.distribution,
            p.key_range.0,
            p.key_range.1,
            p.distinct_ratio,
            p.top1_mass
        );
    }
    let spec = render_scenario(&scenario);
    match args.get(&OUT) {
        Some(out) => {
            std::fs::write(out, &spec).context(&format!("cannot write {out}"))?;
            eprintln!("wrote fitted spec to {out}");
        }
        None => print!("{spec}"),
    }
    Ok(())
}

/// `lsbench trace record`: record a scenario's generated operation stream
/// as a trace file — the bridge from generators to shareable traces.
/// `--rate R` stamps constant-rate timestamps (R ops/s) so the recording
/// replays open-loop.
pub fn record(args: &Args) -> Result<(), CliError> {
    let common = RunArgs::parse(args)?;
    let out = args.require(&OUT, "FILE is required")?;
    let format = out_format(args, out)?;
    let scenario = common.scenario()?;
    let mut trace =
        Trace::record(&scenario.workload).context(&format!("cannot record {}", scenario.name))?;
    if let Some(rate) = args.parsed(&RATE, "a positive number", |r: &f64| *r > 0.0)? {
        let mut stamped = Trace::new(trace.phase_names().to_vec());
        for (i, entry) in trace.entries().iter().enumerate() {
            stamped.push(TraceEntry {
                op: entry.op,
                phase: entry.phase,
                arrival: i as f64 / rate,
            });
        }
        trace = stamped;
    }
    write_trace(&trace, out, format)
}
