//! The longitudinal commands over the results store: `archive list|show`,
//! `compare`, `regress`, and the two helpers every archiving command shares.

use super::args::{Args, CliError, Context};
use super::flag::*;
use lsbench::core::report::to_json;
use lsbench::core::results::{
    compare as compare_records, evaluate_regression, parse_regression_policy,
    render_comparison_report, render_regression, render_transport_header, write_bench_summary,
    Artifact, ComparisonReport, ResultStore, RunArtifact,
};

/// Opens the results store named by `--store DIR`, or the default
/// workspace store when the flag is absent.
pub fn open_store(args: &Args) -> Result<ResultStore, CliError> {
    Ok(match args.get(&STORE) {
        Some(dir) => ResultStore::open(dir),
        None => ResultStore::open_default(),
    }?)
}

/// Saves an artifact of any kind and prints where it went.
pub fn archive<A: Artifact>(store: &ResultStore, artifact: &A) -> Result<(), CliError> {
    let path = store.save(artifact).context("archive failed")?;
    println!("archived {} (digest {})", path.display(), artifact.digest());
    Ok(())
}

/// Loads the baseline and candidate runs and compares their records.
fn load_and_compare(
    args: &Args,
    baseline_id: &str,
    candidate_id: &str,
) -> Result<(RunArtifact, RunArtifact, ComparisonReport), CliError> {
    let store = open_store(args)?;
    let baseline = store.load(baseline_id)?;
    let candidate = store.load(candidate_id)?;
    let report =
        compare_records(&baseline.record, &candidate.record).context("comparison failed")?;
    Ok((baseline, candidate, report))
}

pub fn list(args: &Args) -> Result<(), CliError> {
    let store = open_store(args)?;
    let entries = store.list()?;
    if entries.is_empty() {
        println!("(no artifacts in {})", store.dir().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<14} {:<22} {:>7} {:<24} {:>9}",
        "digest", "sut", "scenario", "workers", "transport", "ops"
    );
    for e in &entries {
        println!(
            "{:<16} {:<14} {:<22} {:>7} {:<24} {:>9}",
            e.digest,
            e.sut,
            e.scenario,
            e.concurrency,
            e.transport.to_string(),
            e.completed
        );
    }
    Ok(())
}

pub fn show(args: &Args) -> Result<(), CliError> {
    let store = open_store(args)?;
    let a = store.load(&args.positionals()[0])?;
    let m = &a.manifest;
    println!("digest:        {}", a.digest);
    println!("schema:        v{}", a.schema_version);
    println!("sut:           {}", m.sut);
    println!("scenario:      {}", m.scenario);
    println!("workers:       {}", m.concurrency);
    println!("transport:     {}", m.transport);
    println!("crate version: {}", m.crate_version);
    let r = &a.record;
    println!(
        "record:        {} completed, {} failures, {:.0} ops/s mean, train {:.3}s",
        r.completed(),
        r.failures(),
        r.mean_throughput(),
        r.train.seconds
    );
    println!("--- rendered spec ---");
    print!("{}", m.spec);
    Ok(())
}

pub fn compare(args: &Args) -> Result<(), CliError> {
    let ids = args.positionals();
    let (baseline, candidate, report) = load_and_compare(args, &ids[0], &ids[1])?;
    let transport_header = render_transport_header(&baseline.manifest, &candidate.manifest);
    if args.has(&JSON) {
        eprint!("{transport_header}");
        println!("{}", to_json(&report)?);
    } else {
        print!("{transport_header}");
        print!("{}", render_comparison_report(&report));
    }
    Ok(())
}

pub fn regress(args: &Args) -> Result<(), CliError> {
    let baseline_id = args.require(&BASELINE, "ID is required")?;
    let candidate_id = args.require(&CANDIDATE, "ID is required")?;
    let policy_file = args.require(&POLICY, "FILE is required (see policies/default.policy)")?;
    let policy_text = std::fs::read_to_string(policy_file)
        .map_err(|e| CliError::usage(format!("cannot read {policy_file}: {e}")))?;
    let policy = parse_regression_policy(&policy_text)
        .map_err(|e| CliError::usage(format!("{policy_file}:{e}")))?;
    let (_, _, comparison) = load_and_compare(args, baseline_id, candidate_id)?;
    let verdict = evaluate_regression(&comparison, &policy);
    if args.has(&JSON) {
        println!("{}", to_json(&verdict)?);
    } else {
        print!("{}", render_regression(&verdict));
    }
    let path = write_bench_summary(&verdict).context("summary write failed")?;
    eprintln!("[saved {}]", path.display());
    if verdict.passed {
        Ok(())
    } else {
        // The rendered verdict above is the report; nothing more to say.
        Err(CliError::failure(""))
    }
}
