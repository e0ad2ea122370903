//! Name → scenario resolution, mirroring
//! [`SutRegistry`](crate::sut_registry::SutRegistry).
//!
//! A [`ScenarioRegistry`] resolves the built-in standard-suite scenarios
//! (S1–S7, generated from [`STANDARD_SCENARIOS`] at the registry's
//! [`SuiteConfig`] scale) and user spec files on disk through one
//! interface: [`ScenarioRegistry::resolve`] takes either a registered
//! name or a path. `lsbench scenarios` prints the registry;
//! `lsbench run --scenario` and `lsbench validate` resolve through it.
//!
//! Registration is open, like the SUT registry: embedders can
//! [`ScenarioRegistry::register`] their own generators and they become
//! resolvable by name everywhere.

use super::parse::parse_scenario;
use super::SpecError;
use crate::scenario::Scenario;
use crate::suite::{SuiteConfig, STANDARD_SCENARIOS};
use crate::{BenchError, Result};
use std::path::Path;

/// A registered scenario generator, parameterized by the registry's
/// [`SuiteConfig`] so built-ins and the suite can never drift apart.
type Gen = Box<dyn Fn(&SuiteConfig) -> Result<Scenario> + Send + Sync>;

struct ScenarioEntry {
    name: String,
    description: String,
    gen: Gen,
}

/// Registry of named scenarios with uniform spec-file fallback. See the
/// [module docs](self).
pub struct ScenarioRegistry {
    cfg: SuiteConfig,
    entries: Vec<ScenarioEntry>,
}

impl Default for ScenarioRegistry {
    /// The standard suite (S1–S7) at the default [`SuiteConfig`] scale.
    fn default() -> Self {
        Self::with_config(SuiteConfig::default())
    }
}

impl ScenarioRegistry {
    /// The standard suite registered at the given scale.
    pub fn with_config(cfg: SuiteConfig) -> Self {
        let mut reg = ScenarioRegistry {
            cfg,
            entries: Vec::new(),
        };
        for (name, description, build) in STANDARD_SCENARIOS {
            reg.register(name, description, *build);
        }
        reg
    }

    /// An empty registry (no built-ins) at the given scale.
    pub fn empty(cfg: SuiteConfig) -> Self {
        ScenarioRegistry {
            cfg,
            entries: Vec::new(),
        }
    }

    /// The scale built-in generators are instantiated at.
    pub fn config(&self) -> &SuiteConfig {
        &self.cfg
    }

    /// Registers (or replaces) a named generator. Later registrations
    /// with the same name win, so embedders can shadow built-ins.
    pub fn register<F>(&mut self, name: &str, description: &str, gen: F)
    where
        F: Fn(&SuiteConfig) -> Result<Scenario> + Send + Sync + 'static,
    {
        self.entries.retain(|e| e.name != name);
        self.entries.push(ScenarioEntry {
            name: name.to_string(),
            description: description.to_string(),
            gen: Box::new(gen),
        });
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// `(name, description)` pairs in registration order, for `lsbench
    /// scenarios` and similar displays.
    pub fn descriptions(&self) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.description.as_str()))
            .collect()
    }

    /// Builds the named scenario at the registry's scale. Unknown names
    /// report the registered alternatives.
    pub fn get(&self, name: &str) -> Result<Scenario> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(entry) => (entry.gen)(&self.cfg),
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
    fn registry_scenarios_match_suite() {
        let cfg = tiny_cfg();
        let reg = ScenarioRegistry::with_config(cfg);
        let suite = crate::suite::standard_scenarios(&cfg).unwrap();
        for expected in &suite {
            assert_eq!(&reg.get(&expected.name).unwrap(), expected);
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
    fn registration_shadows_and_extends() {
        let mut reg = ScenarioRegistry::with_config(tiny_cfg());
        let count = reg.names().len();
        reg.register(
            "S1-specialization",
            "shadowed",
            crate::suite::s2_abrupt_shift,
        );
        assert_eq!(reg.names().len(), count, "shadowing does not duplicate");
        reg.register("custom", "embedder-provided", crate::suite::s4_scans);
        assert!(reg.contains("custom"));
        assert_eq!(reg.resolve("custom").unwrap().name, "S4-scans");
    }

    #[test]
    fn missing_file_is_a_positioned_error() {
        let err = ScenarioRegistry::load_file("/definitely/not/here.spec").unwrap_err();
        assert_eq!(err.line, 0);
        assert_eq!(err.field, "file");
    }
}
