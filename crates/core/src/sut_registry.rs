//! Name → constructor registry for systems under test.
//!
//! The CLI, the standard suite, and the figure benches all need to turn
//! a SUT name (`"btree"`, `"rmi"`, …) into a boxed
//! [`SystemUnderTest`](lsbench_sut::sut::SystemUnderTest)
//! built over a dataset. Before this registry each of them carried its own
//! stringly-typed `match`, and the lists drifted. [`SutRegistry`] is the
//! single source of truth: [`SutRegistry::default`] knows every built-in
//! system, `lsbench list` prints it, and downstream code resolves through
//! [`SutRegistry::build`] or hands [`SutRegistry::factory`] straight to a
//! [`Runner`](crate::runner::Runner) or [`run_scenarios`](crate::suite::run_scenarios).
//!
//! Registration is open: embedders can [`SutRegistry::register`] their own
//! systems and they show up everywhere names are resolved.

use crate::runner::BoxedKvSut;
use crate::{BenchError, Result};
use lsbench_sut::kv::{
    AlexSut, BTreeSut, HashSut, PgmSut, RetrainPolicy, RmiSut, SortedArraySut, SplineSut,
};
use lsbench_workload::dataset::Dataset;

/// A registered SUT constructor.
type Ctor = Box<dyn Fn(&Dataset) -> Result<BoxedKvSut> + Send + Sync>;

/// One registry entry: a name, a one-line description, and a constructor.
struct SutEntry {
    name: String,
    description: String,
    ctor: Ctor,
}

/// Registry of named SUT constructors. See the [module docs](self).
pub struct SutRegistry {
    entries: Vec<SutEntry>,
}

/// Learned indexes retrain when 5% of their keys have changed — the same
/// policy the paper's adaptability figures use.
const DEFAULT_RETRAIN: RetrainPolicy = RetrainPolicy::DeltaFraction(0.05);

fn sut_err(e: lsbench_sut::SutError) -> BenchError {
    BenchError::Sut(e.to_string())
}

impl Default for SutRegistry {
    /// The built-in systems, in canonical presentation order: the
    /// traditional baselines first, then the learned indexes.
    fn default() -> Self {
        let mut reg = SutRegistry::empty();
        reg.register("btree", "B-tree index (traditional baseline)", |data| {
            Ok(Box::new(BTreeSut::build(data).map_err(sut_err)?))
        });
        reg.register("sorted-array", "sorted array with binary search", |data| {
            Ok(Box::new(SortedArraySut::build(data).map_err(sut_err)?))
        });
        reg.register("hash", "hash table (no range scans)", |data| {
            Ok(Box::new(HashSut::build(data).map_err(sut_err)?))
        });
        reg.register("alex", "ALEX-style adaptive learned index", |data| {
            Ok(Box::new(AlexSut::build(data).map_err(sut_err)?))
        });
        reg.register("rmi", "recursive model index (learned)", |data| {
            Ok(Box::new(
                RmiSut::build("rmi", data, DEFAULT_RETRAIN).map_err(sut_err)?,
            ))
        });
        reg.register("pgm", "piecewise geometric model index (learned)", |data| {
            Ok(Box::new(
                PgmSut::build("pgm", data, DEFAULT_RETRAIN).map_err(sut_err)?,
            ))
        });
        reg.register("spline", "radix spline index (learned)", |data| {
            Ok(Box::new(
                SplineSut::build("spline", data, DEFAULT_RETRAIN).map_err(sut_err)?,
            ))
        });
        reg
    }
}

impl SutRegistry {
    /// An empty registry (no built-ins). Use [`SutRegistry::default`] for
    /// the standard set.
    pub fn empty() -> Self {
        SutRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers (or replaces) a named constructor. Later registrations
    /// with the same name win, so embedders can shadow built-ins.
    pub fn register<F>(&mut self, name: &str, description: &str, ctor: F)
    where
        F: Fn(&Dataset) -> Result<BoxedKvSut> + Send + Sync + 'static,
    {
        self.entries.retain(|e| e.name != name);
        self.entries.push(SutEntry {
            name: name.to_string(),
            description: description.to_string(),
            ctor: Box::new(ctor),
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
    /// list` and similar displays.
    pub fn descriptions(&self) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.description.as_str()))
            .collect()
    }

    /// Builds the named SUT over `data`. Unknown names report the
    /// registered alternatives.
    pub fn build(&self, name: &str, data: &Dataset) -> Result<BoxedKvSut> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(entry) => (entry.ctor)(data),
            None => Err(BenchError::InvalidScenario(format!(
                "unknown SUT '{name}' (registered: {})",
                self.names().join(", ")
            ))),
        }
    }

    /// A borrowing factory closure for the named SUT, suitable for
    /// [`Runner::from_factory`](crate::runner::Runner::from_factory) and
    /// [`run_scenarios`](crate::suite::run_scenarios). Fails fast on unknown names
    /// instead of failing at first build.
    pub fn factory<'a>(
        &'a self,
        name: &'a str,
    ) -> Result<impl Fn(&Dataset) -> Result<BoxedKvSut> + 'a> {
        if !self.contains(name) {
            return Err(BenchError::InvalidScenario(format!(
                "unknown SUT '{name}' (registered: {})",
                self.names().join(", ")
            )));
        }
        Ok(move |data: &Dataset| self.build(name, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_workload::keygen::KeyDistribution;

    fn small_dataset() -> Dataset {
        Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, 1_000, 7).unwrap()
    }

    #[test]
    fn default_registry_builds_every_built_in() {
        let reg = SutRegistry::default();
        let data = small_dataset();
        assert_eq!(
            reg.names(),
            [
                "btree",
                "sorted-array",
                "hash",
                "alex",
                "rmi",
                "pgm",
                "spline"
            ]
        );
        for name in reg.names() {
            let sut = reg.build(name, &data).unwrap();
            assert!(!sut.name().is_empty(), "{name} built");
        }
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let reg = SutRegistry::default();
        let Err(err) = reg.build("flux-capacitor", &small_dataset()) else {
            panic!("unknown name must not build");
        };
        let msg = err.to_string();
        assert!(msg.contains("flux-capacitor"));
        assert!(msg.contains("btree"));
        assert!(reg.factory("flux-capacitor").is_err());
    }

    #[test]
    fn registration_shadows_and_extends() {
        let mut reg = SutRegistry::default();
        let count = reg.names().len();
        reg.register("btree", "shadowed baseline", |data| {
            Ok(Box::new(
                BTreeSut::build(data).map_err(|e| BenchError::Sut(e.to_string()))?,
            ))
        });
        assert_eq!(reg.names().len(), count, "shadowing does not duplicate");
        reg.register("custom", "embedder-provided", |data| {
            Ok(Box::new(
                BTreeSut::build(data).map_err(|e| BenchError::Sut(e.to_string()))?,
            ))
        });
        assert!(reg.contains("custom"));
        let factory = reg.factory("custom").unwrap();
        assert!(factory(&small_dataset()).is_ok());
    }
}
