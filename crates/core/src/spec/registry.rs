//! Name → scenario resolution, mirroring
//! [`SutRegistry`](crate::sut_registry::SutRegistry).
//!
//! A [`ScenarioRegistry`] resolves the standard-suite scenarios (S1–S7,
//! the spec files of [`STANDARD_SCENARIOS`] moved to the registry's
//! [`SuiteConfig`] scale) and user spec files on disk through one
//! interface: [`ScenarioRegistry::resolve`] takes either a suite name or a
//! path. `lsbench scenarios` prints the registry; `lsbench run --scenario`
//! and `lsbench validate` resolve through it.

use super::parse::parse_scenario;
use super::SpecError;
use crate::scenario::Scenario;
use crate::suite::{SuiteConfig, STANDARD_SCENARIOS};
use crate::{BenchError, Result};
use std::path::Path;

/// The standard suite by name, with uniform spec-file fallback. See the
/// [module docs](self).
#[derive(Default)]
pub struct ScenarioRegistry {
    cfg: SuiteConfig,
}

impl ScenarioRegistry {
    /// The standard suite at the given scale.
    pub fn with_config(cfg: SuiteConfig) -> Self {
        ScenarioRegistry { cfg }
    }

    /// The suite's names, in suite order.
    pub fn names(&self) -> Vec<&'static str> {
        STANDARD_SCENARIOS.iter().map(|(name, ..)| *name).collect()
    }

    /// Whether `name` is a suite scenario.
    pub fn contains(&self, name: &str) -> bool {
        self.names().contains(&name)
    }

    /// `(name, description)` pairs in suite order, for `lsbench
    /// scenarios` and similar displays.
    pub fn descriptions(&self) -> Vec<(&'static str, &'static str)> {
        STANDARD_SCENARIOS
            .iter()
            .map(|(name, description, _)| (*name, *description))
            .collect()
    }

    /// Builds the named scenario at the registry's scale. Unknown names
    /// report the suite's names.
    pub fn get(&self, name: &str) -> Result<Scenario> {
        match STANDARD_SCENARIOS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, spec)) => self.cfg.build(spec),
            None => Err(BenchError::InvalidScenario(format!(
                "unknown scenario '{name}' (registered: {})",
                self.names().join(", ")
            ))),
        }
    }

    /// Loads and parses a spec file, keeping the positioned error —
    /// `lsbench validate` prints `line`/`field`/`reason` from it. I/O
    /// failures surface as line 0 ("whole file") errors.
    pub fn load_file(path: impl AsRef<Path>) -> std::result::Result<Scenario, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            SpecError::new(0, "file", format!("cannot read {}: {e}", path.display()))
        })?;
        parse_scenario(&text)
    }

    /// Resolves a scenario from a registered name or a spec-file path —
    /// the uniform entry point behind `lsbench run --scenario`.
    ///
    /// Names are tried first; anything unregistered that exists on disk
    /// is loaded as a spec file. Spec errors are prefixed with the path.
    pub fn resolve(&self, name_or_path: &str) -> Result<Scenario> {
        if self.contains(name_or_path) {
            return self.get(name_or_path);
        }
        if Path::new(name_or_path).exists() {
            return Self::load_file(name_or_path)
                .map_err(|e| BenchError::InvalidScenario(format!("{name_or_path}:{e}")));
        }
        Err(BenchError::InvalidScenario(format!(
            "unknown scenario '{name_or_path}' (registered: {}; or pass a path to a .spec file)",
            self.names().join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SuiteConfig {
        SuiteConfig {
            dataset_size: 2_000,
            ops_per_phase: 500,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn default_registry_builds_every_built_in() {
        let reg = ScenarioRegistry::with_config(tiny_cfg());
        assert_eq!(
            reg.names(),
            [
                "S1-specialization",
                "S2-abrupt-shift",
                "S3-gradual-writes",
                "S4-scans",
                "S5-bursty-load",
                "S6-templated-repetition",
                "S7-ledger-growth"
            ]
        );
        for name in reg.names() {
            let s = reg.get(name).unwrap();
            assert_eq!(s.name, name);
            s.validate().unwrap();
        }
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let reg = ScenarioRegistry::default();
        let msg = reg.get("S9-imaginary").unwrap_err().to_string();
        assert!(msg.contains("S9-imaginary"));
        assert!(msg.contains("S1-specialization"));
        let msg = reg.resolve("no/such/file.spec").unwrap_err().to_string();
        assert!(msg.contains(".spec"));
    }

    #[test]
    fn missing_file_is_a_positioned_error() {
        let err = ScenarioRegistry::load_file("/definitely/not/here.spec").unwrap_err();
        assert_eq!(err.line, 0);
        assert_eq!(err.field, "file");
    }
}
