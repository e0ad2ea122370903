//! The benchmark proper: drives one workload through the public API and
//! measures it, untraced for the end-to-end metrics or traced for the
//! per-layer ones (`layers.rs` holds the layer micro-benchmarks).

use crate::measure::{peak_rss_mb, time, Metric};
use crate::suts::{CallKind, LapSut, Laps, NullSut, SutTrace, TracingSut};
use crate::trace::{Span, Tracer};
use crate::workloads::{mode_label, Workload, NULL, SUTS, TIMED_THREADS};
use crate::Res;
use lsbench::core::metrics::phi::{distribution_phis, DataPhiMethod};
use lsbench::core::record::RunRecord;
use lsbench::core::results::{ResultStore, RunArtifact, RunManifest};
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::{AdaptabilityReport, SlaReport, SpecializationReport};
use lsbench::workload::dataset::Dataset;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The set-up is repeated in every round whose number this divides.
const SETUP_EVERY: usize = 2;
/// Measurement rounds an untraced run makes at least.
const MIN_ROUNDS: usize = 3;
/// Shortest timed sample of a report, which is looped to reach it.
const MIN_SAMPLE_SECONDS: f64 = 0.005;

/// What to run, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    /// Directory for `env.json`, `results.json`, `trace.json` and the
    /// temporary results store.
    pub out_dir: PathBuf,
}

/// What one invocation measured.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations executed against real SUTs, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Exact facts (digests, counts) compared against `golden.json`.
    pub facts: BTreeMap<String, String>,
    pub spans: Vec<Span>,
    /// Key and operation counts of the scenario, for `env.json`.
    pub sizes: BTreeMap<String, u64>,
}

/// FNV-1a over the bits of every completion: `t_end`, `latency`, phase
/// and success flag. Two records with equal digests are the same virtual
/// run.
pub fn record_digest(record: &RunRecord) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in &record.ops {
        eat(&op.t_end.to_bits().to_le_bytes());
        eat(&op.latency.to_bits().to_le_bytes());
        eat(&op.phase.to_le_bytes());
        eat(&[op.ok as u8]);
    }
    h
}

/// One `Runner::run` call to make.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    pub sut: &'a str,
    pub mode: ExecutionMode,
    pub clock: ClockMode,
    pub threads: Option<usize>,
    pub max_ops: u64,
}

impl<'a> RunSpec<'a> {
    /// The whole scenario on the mode's default thread count.
    pub fn new(sut: &'a str, mode: ExecutionMode, clock: ClockMode) -> Self {
        RunSpec {
            sut,
            mode,
            clock,
            threads: None,
            max_ops: u64::MAX,
        }
    }
}

/// A finished run: wall seconds of the run itself (SUT and dataset
/// construction excluded), of each of its stretches if they were noted
/// (else of the run as its only one), and everything `Runner::run`
/// returned.
pub struct Ran {
    pub wall_s: f64,
    pub laps_s: Vec<f64>,
    pub outcome: RunOutcome,
}

/// What a run's SUT (every shard's, in sharded mode) is wrapped in.
#[derive(Clone, Copy)]
pub enum Wrap<'a> {
    Bare,
    Traced(&'a Arc<SutTrace>),
    Lapped(&'a Arc<Laps>),
}

/// Wall seconds of one measured segment: one list per part of it (a
/// stretch of a run, a report, a set-up step) with one entry per round,
/// and the operations one round of every part executes.
///
/// The figure reported is the segment with every part at its fastest
/// sample. The host's other tenants can only add to a wall time, and they
/// do so for seconds to minutes at a stretch, so the median of a window is
/// the median of their load; the fastest of many short samples is the
/// program's own speed whenever one sample met a quiet moment, and a part
/// of a few milliseconds meets one far more often than a whole run does.
#[derive(Debug, Clone, Default)]
pub struct WallSum {
    parts: Vec<Vec<f64>>,
    pub ops: u64,
}

impl WallSum {
    pub fn over(walls: &[f64], ops: u64) -> WallSum {
        WallSum {
            parts: vec![walls.to_vec()],
            ops,
        }
    }

    /// Adds another part and the operations it executes per round.
    pub fn add(&mut self, walls: &[f64], ops: u64) {
        self.parts.push(walls.to_vec());
        self.ops += ops;
    }

    /// Adds every part of `other` and the operations they execute per
    /// round together.
    pub fn join(&mut self, other: &WallSum, ops: u64) {
        self.parts.extend(other.parts.iter().cloned());
        self.ops += ops;
    }

    /// Adds one round of a segment made of steps (the reports, the
    /// set-up): `seconds[i]` is what step `i` took, and is part `i`'s.
    pub fn push_round(&mut self, seconds: &[f64]) {
        self.parts.resize(seconds.len(), Vec::new());
        for (part, seconds) in self.parts.iter_mut().zip(seconds) {
            part.push(*seconds);
        }
    }

    /// Seconds of the segment with every part at its fastest sample.
    pub fn fastest(&self) -> f64 {
        let fastest = |part: &Vec<f64>| part.iter().copied().fold(f64::INFINITY, f64::min);
        self.parts.iter().map(fastest).sum()
    }

    /// Seconds of the whole segment, round by round.
    fn rounds(&self) -> Vec<f64> {
        let rounds = self.parts.iter().map(Vec::len).min().unwrap_or(0);
        (0..rounds)
            .map(|round| self.parts.iter().map(|part| part[round]).sum())
            .collect()
    }

    /// `per(seconds)` of the fastest segment as the value, of every round
    /// as the samples.
    fn metric(&self, name: impl Into<String>, unit: &str, per: impl Fn(f64) -> f64) -> Metric {
        let samples: Vec<f64> = self.rounds().into_iter().map(&per).collect();
        Metric {
            value: per(self.fastest()),
            ..Metric::from_samples(name, unit, &samples)
        }
    }

    pub fn seconds(&self, name: impl Into<String>) -> Metric {
        self.metric(name, "s", |s| s)
    }

    pub fn ops_per_s(&self, name: impl Into<String>) -> Metric {
        self.metric(name, "ops/s", |s| self.ops as f64 / s)
    }

    pub fn ns_per_op(&self, name: impl Into<String>) -> Metric {
        self.metric(name, "ns", |s| s * 1e9 / self.ops as f64)
    }
}

pub struct Bench<'a> {
    pub cfg: &'a Config,
    pub w: Workload,
    pub reg: SutRegistry,
    pub data: Dataset,
    pub tracer: Tracer,
    pub metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    facts: BTreeMap<String, String>,
}

/// Runs the configured workload and returns what it measured. Every
/// output check is fatal: the first one that fails is the error.
pub fn run(cfg: &Config) -> Res<Report> {
    let w = Workload::build(&cfg.workload, cfg.seed, cfg.scale)?;
    let mut bench = Bench {
        cfg,
        w,
        reg: SutRegistry::default(),
        // Replaced by the first set-up, which both kinds of run start with.
        data: Dataset::from_keys(Vec::new()),
        tracer: Tracer::new(cfg.trace, cfg.seed),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        facts: BTreeMap::new(),
    };
    if cfg.trace {
        bench.layers()?;
    } else {
        bench.end_to_end()?;
    }
    let mut sizes = BTreeMap::new();
    sizes.insert("keys".to_string(), bench.data.len() as u64);
    sizes.insert("ops".to_string(), bench.w.scenario.workload.total_ops());
    sizes.insert("archive_max_ops".to_string(), bench.w.archive_max_ops);
    Ok(Report {
        metrics: bench.metrics,
        attempted: bench.attempted,
        failed: bench.failed,
        facts: bench.facts,
        spans: bench.tracer.finish(),
        sizes,
    })
}

impl Bench<'_> {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share)
    }

    /// Records an exact fact of the run. A fact recorded twice — by the
    /// sim oracle and a traced run, by one and by two threads — must agree.
    pub fn fact(&mut self, key: String, value: impl ToString) -> Res<()> {
        let value = value.to_string();
        match self.facts.get(&key) {
            Some(first) if *first != value => {
                Err(format!("{key}: {value} differs from the {first} recorded earlier").into())
            }
            _ => {
                self.facts.insert(key, value);
                Ok(())
            }
        }
    }

    /// Pins the exact facts of one (SUT, mode) record.
    pub fn pin(&mut self, sut: &str, mode: ExecutionMode, record: &RunRecord) -> Res<u64> {
        let digest = record_digest(record);
        let key = format!("{sut}.{}", mode_label(mode));
        self.fact(format!("digest.{key}"), format!("{digest:016x}"))?;
        let fm = record.final_metrics;
        self.fact(format!("execution_work.{key}"), fm.execution_work)?;
        self.fact(format!("adaptations.{key}"), fm.adaptations)?;
        Ok(digest)
    }

    fn make_sut(&self, sut: &str, data: &Dataset, wrap: Wrap) -> lsbench::core::Result<BoxedKvSut> {
        let inner: BoxedKvSut = if sut == NULL {
            Box::new(NullSut)
        } else {
            self.reg.build(sut, data)?
        };
        Ok(match wrap {
            Wrap::Bare => inner,
            Wrap::Traced(trace) => Box::new(TracingSut::new(inner, trace.clone())),
            Wrap::Lapped(laps) => Box::new(LapSut::new(inner, laps.clone())),
        })
    }

    /// One `Runner::run` over `scenario`, with a fresh SUT. Sharded mode
    /// needs per-shard SUTs, so the runner builds dataset and shards
    /// itself; its wall time counts from the last shard's construction.
    pub fn run_once(&mut self, scenario: &Scenario, spec: RunSpec, wrap: Wrap) -> Res<Ran> {
        let opts = RunOptions {
            threads: spec.threads,
            max_ops: spec.max_ops,
            clock: spec.clock,
            ..RunOptions::with_mode(spec.mode)
        };
        let label = format!("runner.run.{}.{}", spec.sut, mode_label(spec.mode));
        let open = self.tracer.enter(label);
        let called = Instant::now();
        let (started, outcome) = if matches!(spec.mode, ExecutionMode::Sharded { .. }) {
            let built = Cell::new(called);
            let outcome = Runner::from_factory(|shard| {
                let sut = self.make_sut(spec.sut, shard, wrap);
                built.set(Instant::now());
                sut
            })
            .config(opts)
            .run(scenario)?;
            self.tracer.record("runner.bulk_load", called, built.get());
            (built.get(), outcome)
        } else {
            let mut sut = self.make_sut(spec.sut, &self.data, wrap)?;
            let started = Instant::now();
            self.tracer.record("sut.build", called, started);
            let outcome = Runner::new(sut.as_mut()).config(opts).run(scenario)?;
            (started, outcome)
        };
        let wall_s = started.elapsed().as_secs_f64();
        let laps_s = match wrap {
            Wrap::Lapped(laps) => laps.seconds(started),
            _ => vec![wall_s],
        };
        if let Wrap::Traced(trace) = wrap {
            self.tracer
                .absorb_sut(spec.sut, &outcome.record.phase_names, trace);
        }
        self.tracer.exit(open);

        let scheduled = scenario.workload.total_ops().min(spec.max_ops);
        let completed = outcome.record.ops.len() as u64;
        if completed != scheduled {
            return Err(format!(
                "{} on {}: completed {completed} of {scheduled} scheduled operations",
                spec.sut,
                mode_label(spec.mode)
            )
            .into());
        }
        if spec.sut != NULL {
            self.attempted += completed;
            self.failed += outcome.record.failures() as u64;
        }
        Ok(Ran {
            wall_s,
            laps_s,
            outcome,
        })
    }

    /// The oracle of one (SUT, mode): a run on the sim clock whose record
    /// every later run of that pair must equal bit for bit. It doubles as
    /// the discarded warm-up, which is returned with it, and pins the
    /// pair's exact facts.
    pub fn oracle(&mut self, sut: &str, mode: ExecutionMode) -> Res<(Oracle, Ran)> {
        let scenario = self.w.scenario.clone();
        let warm = self.run_once(
            &scenario,
            RunSpec::new(sut, mode, ClockMode::Sim),
            Wrap::Bare,
        )?;
        let oracle = Oracle {
            digest: self.pin(sut, mode, &warm.outcome.record)?,
            ops: warm.outcome.record.ops.len() as u64,
        };
        Ok((oracle, warm))
    }

    /// One timed wall-clock run of (SUT, mode) on `threads` physical
    /// threads (`None`: the mode's workers), its stretches noted, checked
    /// against `oracle`.
    pub fn timed_run(
        &mut self,
        sut: &str,
        mode: ExecutionMode,
        threads: Option<usize>,
        oracle: &Oracle,
    ) -> Res<Ran> {
        let scenario = self.w.scenario.clone();
        let spec = RunSpec {
            threads,
            ..RunSpec::new(sut, mode, ClockMode::Wall)
        };
        let laps = Laps::new(oracle.ops);
        let ran = self.run_once(&scenario, spec, Wrap::Lapped(&laps))?;
        let digest = record_digest(&ran.outcome.record);
        if digest != oracle.digest {
            return Err(format!(
                "{sut}.{}: wall-clock record {digest:016x} differs from the sim oracle {:016x}",
                mode_label(mode),
                oracle.digest
            )
            .into());
        }
        Ok(ran)
    }

    /// Engine runs must not depend on the physical thread count.
    pub fn check_thread_invariance(&mut self, sut: &str, mode: ExecutionMode) -> Res<()> {
        let scenario = self.w.scenario.clone();
        for threads in [1, 2] {
            let spec = RunSpec {
                threads: Some(threads),
                ..RunSpec::new(sut, mode, ClockMode::Sim)
            };
            let record = self.run_once(&scenario, spec, Wrap::Bare)?.outcome.record;
            self.pin(sut, mode, &record)?;
        }
        Ok(())
    }

    /// One set-up as a user pays it: dataset build, then every SUT's
    /// registry build and offline training. Leaves the dataset in place and
    /// returns the seconds of each step, in that order.
    pub fn setup(&mut self) -> Res<Vec<f64>> {
        let (built, data) = self.tracer.span("workload.dataset_build", |_| {
            time(|| self.w.scenario.dataset.build())
        });
        self.data = data?;
        let mut steps = vec![built];
        for sut in SUTS {
            let open = self.tracer.enter(format!("sut.build_train.{sut}"));
            let (trained, built) = time(|| -> Res<()> {
                let mut built = self.reg.build(sut, &self.data)?;
                black_box(built.train(self.w.scenario.train_budget));
                Ok(())
            });
            self.tracer.exit(open);
            built?;
            steps.push(trained);
        }
        Ok(steps)
    }

    /// The untraced run. After the oracles, it measures in rounds: each
    /// round times every (SUT, mode) once, stretch by stretch ([`Laps`]),
    /// each report once, the archive once and, every [`SETUP_EVERY`]
    /// rounds, the set-up; rounds repeat until `--seconds` are spent. Every
    /// part thus has samples all over the window, and is reported at its
    /// fastest one ([`WallSum`]). What a round does depends on its number
    /// alone, never on the time, so that allocations, and with them
    /// `peak_rss_mb`, do not depend on how fast the host happened to be.
    fn end_to_end(&mut self) -> Res<()> {
        let mut setups = WallSum::default();
        setups.push_round(&self.setup()?);
        let modes = self.w.modes.clone();
        let mut pairs = Vec::new();
        let mut btree = None;
        for sut in std::iter::once(NULL).chain(SUTS) {
            for &mode in &modes {
                let (oracle, warm) = self.oracle(sut, mode)?;
                if sut == "btree" {
                    if mode != ExecutionMode::Serial {
                        self.check_thread_invariance(sut, mode)?;
                    }
                    btree.get_or_insert(warm.outcome.record);
                }
                pairs.push(Pair {
                    sut,
                    mode,
                    oracle,
                    laps: WallSum::default(),
                });
            }
        }
        let btree = btree.expect("btree is one of SUTS");
        let analyzer = Analyzer::new(self, &btree)?;
        let archiver = Archiver::new(self)?;

        let window = self.budget(1.0);
        let started = Instant::now();
        let mut analyzed = WallSum {
            ops: btree.ops.len() as u64,
            ..WallSum::default()
        };
        let (mut saved, mut loaded) = (Vec::new(), Vec::new());
        let mut bytes = 0;
        let mut round = 0;
        while round < MIN_ROUNDS || started.elapsed() < window {
            round += 1;
            for pair in &mut pairs {
                let ran = self.timed_run(pair.sut, pair.mode, Some(TIMED_THREADS), &pair.oracle)?;
                pair.laps.push_round(&ran.laps_s);
            }
            analyzed.push_round(&analyzer.sample(&mut self.tracer, &btree)?);
            let sample = archiver.sample(&mut self.tracer, false)?;
            saved.push(sample.save);
            loaded.push(sample.load);
            bytes = sample.bytes;
            if round % SETUP_EVERY == 0 {
                setups.push_round(&self.setup()?);
            }
        }

        self.metrics.push(setups.seconds("setup_s"));
        for sut in std::iter::once(NULL).chain(SUTS) {
            let mut sum = WallSum::default();
            for pair in pairs.iter().filter(|p| p.sut == sut) {
                sum.join(&pair.laps, pair.oracle.ops);
            }
            self.metrics.push(if sut == NULL {
                sum.ns_per_op("harness_ns_per_op")
            } else {
                sum.ops_per_s(format!("run_ops_per_s.{sut}"))
            });
        }
        self.metrics.push(analyzed.ops_per_s("analyze_ops_per_s"));
        let saved = WallSum::over(&saved, archiver.ops);
        self.metrics.push(saved.ops_per_s("archive_save_ops_per_s"));
        let loaded = WallSum::over(&loaded, archiver.ops);
        self.metrics
            .push(loaded.ops_per_s("archive_load_ops_per_s"));
        self.metrics.push(Metric::single(
            "artifact_bytes_per_op",
            "B/op",
            bytes as f64 / archiver.ops as f64,
        ));
        self.fact("artifact_bytes".to_string(), bytes)?;
        self.fact("failed_ops".to_string(), self.failed)?;
        self.metrics
            .push(Metric::single("peak_rss_mb", "MB", peak_rss_mb()));
        Ok(())
    }

    /// The traced run's share of SUT busy time and the `sut.*` metrics of
    /// one SUT over every mode of the workload.
    pub fn traced_runs(&mut self, sut: &str) -> Res<TracedSut> {
        let scenario = self.w.scenario.clone();
        let phases = scenario.workload.phases().len();
        let mut out = TracedSut::default();
        for mode in self.w.modes.clone() {
            let trace = SutTrace::new(self.tracer.epoch(), phases);
            let spec = RunSpec::new(sut, mode, ClockMode::Wall);
            let ran = self.run_once(&scenario, spec, Wrap::Traced(&trace))?;
            let record = &ran.outcome.record;
            self.pin(sut, mode, record)?;
            out.executed += trace.executed_ops();
            out.execution_work += record.final_metrics.execution_work;
            out.adaptations += record.final_metrics.adaptations;
            for kind in CallKind::ALL {
                out.busy_ns[kind as usize] += trace.busy_ns(kind);
            }
            out.modes.push(TracedMode {
                mode,
                wall_s: ran.wall_s,
                busy_ns: trace.total_busy_ns(),
                ops: record.ops.len() as u64,
            });
        }
        Ok(out)
    }
}

/// One (SUT, mode) of the untraced run and the wall seconds of every
/// stretch of its run, round by round.
struct Pair {
    sut: &'static str,
    mode: ExecutionMode,
    oracle: Oracle,
    laps: WallSum,
}

/// What every run of one (SUT, mode) must reproduce.
pub struct Oracle {
    /// [`record_digest`] of the sim-clock record.
    pub digest: u64,
    pub ops: u64,
}

/// The three paper reports over one record, prepared once and sampled
/// many times. Each report is looped often enough per sample to be
/// measurable.
pub struct Analyzer {
    phis: Vec<f64>,
    threshold: f64,
    interval: f64,
    window: usize,
    loops: [usize; 3],
}

/// Report names, in the order [`Analyzer::sample`] returns them.
pub const REPORTS: [&str; 3] = ["adaptability", "sla", "specialization"];

impl Analyzer {
    pub fn new(bench: &Bench, record: &RunRecord) -> Res<Analyzer> {
        let scenario = &bench.w.scenario;
        let distributions: Vec<_> = scenario
            .workload
            .phases()
            .iter()
            .map(|p| p.distribution.clone())
            .collect();
        let phis = distribution_phis(
            &distributions,
            scenario.dataset.key_range,
            DataPhiMethod::KolmogorovSmirnov,
            bench.cfg.seed,
        )?;
        let mut analyzer = Analyzer {
            phis,
            threshold: scenario.sla.resolve(Some(record))?,
            interval: (record.exec_duration() / 40.0).max(f64::MIN_POSITIVE),
            window: (record.ops.len() / 100).clamp(2, 400),
            loops: [1; 3],
        };
        let floor = MIN_SAMPLE_SECONDS.min(bench.cfg.seconds / 100.0);
        for report in 0..REPORTS.len() {
            let (once, built) = time(|| analyzer.report(report, record));
            built?;
            analyzer.loops[report] = (floor / once.max(1e-9)).ceil().clamp(1.0, 1e5) as usize;
        }
        Ok(analyzer)
    }

    fn report(&self, report: usize, record: &RunRecord) -> Res<()> {
        let record = black_box(record);
        match report {
            0 => drop(black_box(AdaptabilityReport::from_record(record)?)),
            1 => drop(black_box(SlaReport::from_record(
                record,
                self.threshold,
                self.interval,
                2_000,
            )?)),
            _ => drop(black_box(SpecializationReport::from_record(
                record,
                &self.phis,
                self.window,
                &[],
            )?)),
        }
        Ok(())
    }

    /// Seconds one build of each report took, in [`REPORTS`] order.
    pub fn sample(&self, tracer: &mut Tracer, record: &RunRecord) -> Res<[f64; 3]> {
        let mut seconds = [0.0; 3];
        for (report, name) in REPORTS.iter().enumerate() {
            let open = tracer.enter(format!("metrics.{name}"));
            let loops = self.loops[report];
            let (wall, looped) = time(|| (0..loops).try_for_each(|_| self.report(report, record)));
            tracer.exit(open);
            looped?;
            seconds[report] = wall / loops as f64;
        }
        Ok(seconds)
    }
}

/// Seconds of one archive round trip and the saved file's size.
pub struct ArchiveSample {
    pub save: f64,
    pub load: f64,
    /// The two serializer steps alone; timed only on request, else 0.
    pub to_json: f64,
    pub from_json: f64,
    pub bytes: u64,
}

/// A capped btree run archived the way `lsbench archive run` does it
/// (`RunArtifact::new` -> `ResultStore::save`) and loaded back with the
/// strict `load_path`; every sample checks the round trip.
pub struct Archiver {
    artifact: RunArtifact,
    store: ResultStore,
    store_dir: PathBuf,
    pub ops: u64,
}

impl Archiver {
    pub fn new(bench: &mut Bench) -> Res<Archiver> {
        let scenario = bench.w.scenario.clone();
        let mode = bench.w.modes[0];
        let spec = RunSpec {
            max_ops: bench.w.archive_max_ops,
            ..RunSpec::new("btree", mode, ClockMode::Sim)
        };
        let outcome = bench.run_once(&scenario, spec, Wrap::Bare)?.outcome;
        let lanes = match mode {
            ExecutionMode::Serial => 1,
            ExecutionMode::SharedLock { workers }
            | ExecutionMode::Sharded { workers }
            | ExecutionMode::OpenLoop { workers, .. } => workers,
        };
        let manifest = RunManifest::for_run(&scenario, "btree", lanes);
        let artifact = RunArtifact::new(manifest, outcome.record).with_engine(outcome.engine);
        if RunArtifact::from_json(&artifact.to_json()?)? != artifact {
            return Err("from_json(to_json(artifact)) differs from the artifact".into());
        }
        let store_dir = bench.cfg.out_dir.join("store");
        // Only ever holds this benchmark's own artifacts from earlier runs.
        let _ = std::fs::remove_dir_all(&store_dir);
        Ok(Archiver {
            ops: artifact.record.ops.len() as u64,
            artifact,
            store: ResultStore::open(&store_dir)?,
            store_dir,
        })
    }

    pub fn sample(&self, tracer: &mut Tracer, serde_apart: bool) -> Res<ArchiveSample> {
        let record = self.artifact.record.clone();
        let engine = self.artifact.engine.clone();
        let manifest = self.artifact.manifest.clone();
        let (save, path) = tracer.span("results.store_save", |_| {
            time(|| {
                let fresh = RunArtifact::new(manifest, record).with_engine(engine);
                self.store.save(&fresh)
            })
        });
        let path = path?;
        let (load, loaded) = tracer.span("results.store_load", |_| {
            time(|| ResultStore::load_path(&path))
        });
        if loaded? != self.artifact {
            return Err("load_path returned a different artifact than was saved".into());
        }
        let bytes = std::fs::metadata(&path)?.len();
        let (mut to_json, mut from_json) = (0.0, 0.0);
        if serde_apart {
            let (t, json) = tracer.span("results.to_json", |_| time(|| self.artifact.to_json()));
            to_json = t;
            let json = json?;
            let (t, parsed) = tracer.span("results.from_json", |_| {
                time(|| RunArtifact::from_json(&json))
            });
            from_json = t;
            black_box(parsed?);
        }
        Ok(ArchiveSample {
            save,
            load,
            to_json,
            from_json,
            bytes,
        })
    }
}

impl Drop for Archiver {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// One traced `Runner::run`.
pub struct TracedMode {
    pub mode: ExecutionMode,
    pub wall_s: f64,
    /// Nanoseconds inside `SystemUnderTest` calls, all lanes summed.
    pub busy_ns: u64,
    pub ops: u64,
}

/// Traced runs of one SUT over the workload's modes.
#[derive(Default)]
pub struct TracedSut {
    pub modes: Vec<TracedMode>,
    /// Operations that reached `execute`/`execute_many`.
    pub executed: u64,
    pub busy_ns: [u64; 5],
    pub execution_work: u64,
    pub adaptations: u64,
}

impl TracedSut {
    pub fn wall_s(&self) -> f64 {
        self.modes.iter().map(|m| m.wall_s).sum()
    }

    pub fn ops(&self) -> u64 {
        self.modes.iter().map(|m| m.ops).sum()
    }

    /// Nanoseconds inside the SUT, every mode and lane summed.
    pub fn total_busy_ns(&self) -> u64 {
        self.modes.iter().map(|m| m.busy_ns).sum()
    }

    pub fn mode(&self, label: &str) -> Option<&TracedMode> {
        self.modes.iter().find(|m| mode_label(m.mode) == label)
    }
}
