//! # lsbench — a benchmark for learned data systems
//!
//! A complete implementation of the benchmark proposed in *Towards a
//! Benchmark for Learned Systems* (ICDE 2021): dynamic multi-phase
//! scenarios, the four new metric families of the paper's Fig. 1
//! (specialization, adaptability, SLA bands, cost), hold-out evaluation,
//! the dataset/workload quality scorer, and a standard seven-scenario
//! suite — together with from-scratch learned and traditional systems
//! under test (RMI, PGM-index, RadixSpline, ALEX-style adaptive index,
//! B+-tree, hash index, a mini query engine with learned cardinality
//! estimation and Bao-style plan steering).
//!
//! This crate re-exports the whole workspace; see the sub-crates for the
//! full APIs:
//!
//! * [`core`] — scenarios, the runner, metrics, reports, the suite.
//! * [`sut`] — the `SystemUnderTest` interface and every adapter.
//! * [`index`] / [`query`] — the systems themselves.
//! * [`workload`] — dynamic workload and dataset generation.
//! * [`stats`] — the statistical substrate (KS, MMD, Jaccard, box plots).
//!
//! ## Example
//!
//! Run a learned index and a B+-tree through the same distribution-shift
//! scenario and compare their adaptability:
//!
//! ```
//! use lsbench::core::metrics::adaptability::AdaptabilityReport;
//! use lsbench::core::runner::Runner;
//! use lsbench::core::scenario::Scenario;
//! use lsbench::sut::kv::{BTreeSut, RetrainPolicy, RmiSut};
//! use lsbench::workload::keygen::KeyDistribution;
//!
//! let scenario = Scenario::two_phase_shift(
//!     "doc-example",
//!     KeyDistribution::Uniform,
//!     KeyDistribution::Zipf { theta: 1.2 },
//!     5_000, // dataset keys
//!     1_000, // operations per phase
//!     42,    // seed — runs are bit-reproducible
//! )
//! .unwrap();
//! let data = scenario.dataset.build().unwrap();
//!
//! let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
//! let mut btree = BTreeSut::build(&data).unwrap();
//! let rmi_run = Runner::new(&mut rmi).run(&scenario).unwrap().record;
//! let btree_run = Runner::new(&mut btree).run(&scenario).unwrap().record;
//!
//! // Lesson 3: training is a first-class result.
//! assert!(rmi_run.train.work > 0);
//! assert_eq!(btree_run.train.work, 0);
//!
//! // Fig. 1b: compare cumulative-completion curves.
//! let a = AdaptabilityReport::from_record(&rmi_run).unwrap();
//! let b = AdaptabilityReport::from_record(&btree_run).unwrap();
//! let area = a.area_vs(&b).unwrap();
//! assert!(area.is_finite());
//! ```

#![warn(missing_docs)]

pub use lsbench_core as core;
pub use lsbench_index as index;
pub use lsbench_query as query;
pub use lsbench_stats as stats;
pub use lsbench_sut as sut;
pub use lsbench_workload as workload;
