//! The commands that run nothing: `scenarios`, `validate`, `export`,
//! `quality`, `list`.

use super::args::{Args, CliError, Context};
use super::flag::*;
use super::run::scale;
use lsbench::core::spec::{render_scenario, ScenarioRegistry};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::workload::keygen::{KeyDistribution, KeyGenerator, CANONICAL_DISTRIBUTIONS};
use lsbench::workload::quality::score_dataset;
use std::path::Path;

pub fn scenarios(_: &Args) -> Result<(), CliError> {
    let registry = ScenarioRegistry::default();
    println!("built-in scenarios (run with `lsbench run --scenario NAME`):");
    for (name, description) in registry.descriptions() {
        println!("  {name:<18} {description}");
    }
    println!("spec files: `lsbench run --scenario path/to/file.spec` (see scenarios/)");
    Ok(())
}

/// The spec files a path argument names: a file is taken as-is, a
/// directory contributes its `*.spec` entries sorted by name.
fn specs_in(arg: &str) -> Result<Vec<String>, CliError> {
    let path = Path::new(arg);
    if path.is_file() {
        return Ok(vec![arg.to_string()]);
    }
    if !path.is_dir() {
        return Err(CliError::usage(format!("no such file or directory: {arg}")));
    }
    let entries =
        std::fs::read_dir(path).map_err(|e| CliError::usage(format!("cannot read {arg}: {e}")))?;
    let mut found: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .map(|p| p.display().to_string())
        .collect();
    if found.is_empty() {
        return Err(CliError::usage(format!("no .spec files in {arg}")));
    }
    found.sort();
    Ok(found)
}

pub fn validate(args: &Args) -> Result<(), CliError> {
    let mut files = Vec::new();
    for arg in args.positionals() {
        files.extend(specs_in(arg)?);
    }
    let mut failures = 0usize;
    for file in &files {
        match ScenarioRegistry::load_file(file) {
            Ok(s) => println!(
                "{file}: OK ({}, {} phases, {} ops)",
                s.name,
                s.workload.phases().len(),
                s.workload.total_ops()
            ),
            Err(e) => {
                println!("{file}:{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(CliError::failure(format!(
            "{failures} of {} file(s) invalid",
            files.len()
        )));
    }
    Ok(())
}

pub fn export(args: &Args) -> Result<(), CliError> {
    let registry = ScenarioRegistry::with_config(scale(args)?);
    let scenario = registry.get(&args.positionals()[0])?;
    print!("{}", render_scenario(&scenario));
    Ok(())
}

pub fn quality(args: &Args) -> Result<(), CliError> {
    let dist_name = args.require(&DIST, "NAME is required (see `lsbench list`)")?;
    let theta: f64 = args.num(&THETA, 1.1)?;
    let dist = match KeyDistribution::from_canonical(dist_name) {
        Some(KeyDistribution::Zipf { .. }) => KeyDistribution::Zipf { theta },
        Some(d) => d,
        None => {
            return Err(CliError::usage(format!(
                "unknown distribution '{dist_name}' (see `lsbench list`)"
            )))
        }
    };
    let keys = KeyGenerator::new(dist, 0, 10_000_000, 7)
        .context("invalid distribution")?
        .sample_f64(30_000);
    let r = score_dataset(&keys);
    println!(
        "{dist_name}: skew {:.3}, clustering {:.3}, overall {:.3}",
        r.skew_score, r.clustering_score, r.overall
    );
    println!("(higher = better benchmark material; uniform scores near 0)");
    Ok(())
}

pub fn list(_: &Args) -> Result<(), CliError> {
    let registry = SutRegistry::default();
    println!("SUTs:");
    for (name, description) in registry.descriptions() {
        println!("  {name:<14} {description}");
    }
    println!("distributions:");
    for shape in CANONICAL_DISTRIBUTIONS {
        let keys: Vec<&str> = shape.params.iter().map(|&(key, _)| key).collect();
        let description = if keys.is_empty() {
            shape.summary.to_string()
        } else {
            format!("{} ({})", shape.summary, keys.join(", "))
        };
        println!("  {:<14} {description}", shape.name);
    }
    Ok(())
}
