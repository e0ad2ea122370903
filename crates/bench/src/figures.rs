//! The paper's figures, one function each, in one table.
//!
//! Every figure is deterministic: it runs on the virtual clock and prints
//! the same text on every host and in every build profile. [`FIGURES`]
//! is what `cargo bench --bench figures` prints, and each entry's text is
//! pinned byte for byte by a golden in `crates/bench/tests/figures/`.

use lsbench_core::driver::run_query_workload;
use lsbench_core::metrics::adaptability::AdaptabilityReport;
use lsbench_core::metrics::cost::{CostReport, TrainingTradeoff};
use lsbench_core::metrics::phi::{distribution_phis, workload_phi, DataPhiMethod};
use lsbench_core::metrics::sla::SlaReport;
use lsbench_core::metrics::specialization::SpecializationReport;
use lsbench_core::record::RunRecord;
use lsbench_core::report::{
    render_adaptability, render_cost, render_sla, render_specialization, render_tradeoff,
    series_csv, to_json,
};
use lsbench_core::runner::{BoxedKvSut, RunOptions, Runner};
use lsbench_core::scenario::{OnlineTrainMode, Scenario};
use lsbench_core::spec::parse_scenario;
use lsbench_core::sut_registry::SutRegistry;
use lsbench_index::cache::{KeyCache, LearnedCache, LruCache};
use lsbench_index::rmi::{Rmi, RmiConfig};
use lsbench_query::generator::JoinQueryGenerator;
use lsbench_query::table::{Catalog, Table};
use lsbench_stats::descriptive::quantile;
use lsbench_sut::cost::{DbaCostModel, HardwareProfile};
use lsbench_sut::kv::{BTreeSut, CachedSut, LearnedKvSut, RetrainPolicy, RmiSut};
use lsbench_sut::query_sut::{BanditQuerySut, LearnedCardinalitySut, QueryOp, TraditionalQuerySut};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::arrival::{ArrivalGenerator, ArrivalProcess, LoadModulation};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::keygen::{KeyDistribution, KeyGenerator};
use lsbench_workload::ops::Operation;
use lsbench_workload::phases::{PhasedWorkload, TransitionKind};
use lsbench_workload::quality::{score_dataset, score_workload};
use lsbench_workload::stringkey::{string_key_to_u64, EmailGenerator};

/// What one figure prints, and the artifacts it saves beside it.
#[derive(Debug)]
pub struct Figure {
    /// The printed text, in order.
    pub text: String,
    /// `(file name, contents)` of every artifact, in the order saved.
    pub artifacts: Vec<(String, String)>,
}

impl Figure {
    fn titled(title: &str) -> Figure {
        Figure {
            text: format!("=== {title} ===\n\n"),
            artifacts: Vec::new(),
        }
    }

    fn line(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// Prints `contents` and a blank line, and saves `contents` as `name`.
    fn emit(&mut self, name: &str, contents: &str) {
        self.line(contents);
        self.line("");
        self.save(name, contents.to_string());
    }

    fn save(&mut self, name: impl Into<String>, contents: String) {
        self.artifacts.push((name.into(), contents));
    }
}

/// A figure's function: it runs the figure and returns what it prints.
pub type FigureFn = fn() -> Figure;

/// Every deterministic figure, by the name of its golden, in print order.
pub const FIGURES: [(&str, FigureFn); 10] = [
    ("f1a", f1a),
    ("f1b", f1b),
    ("f1c", f1c),
    ("f1d", f1d),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
    ("q1", q1),
    ("qs", qs),
    ("lc", lc),
];

/// A figure's scenario, parsed from its spec in `scenarios/figures/`.
macro_rules! figure_spec {
    ($name:literal) => {
        parse_scenario(include_str!(concat!(
            "../../../scenarios/figures/",
            $name,
            ".spec"
        )))
        .expect("figure spec is valid")
    };
}

fn run(sut: &mut (dyn SystemUnderTest<Operation> + Send + 'static), s: &Scenario) -> RunRecord {
    Runner::new(sut).run(s).expect("run succeeds").record
}

/// **F1a — Fig. 1a**: throughput per access distribution, as box plots on
/// an X-axis sorted by Φ, the Kolmogorov–Smirnov distance of the access
/// keys from the uniform baseline. SUTs: a frozen RMI (learned), the
/// B+-tree (traditional) and ALEX (adaptive learned).
///
/// Expected shape: the learned index spreads widely across distributions
/// (it specializes), while the B+-tree is nearly flat.
pub fn f1a() -> Figure {
    let s = figure_spec!("f1a");
    let data = s.dataset.build().expect("dataset builds");
    // Φ is measured over the phases' own distributions, the first being
    // the uniform baseline.
    let phases = s.workload.phases();
    let ladder: Vec<KeyDistribution> = phases.iter().map(|p| p.distribution.clone()).collect();
    let phis = distribution_phis(
        &ladder,
        phases[0].key_range,
        DataPhiMethod::KolmogorovSmirnov,
        11,
    )
    .expect("phi computation succeeds");

    let mut fig =
        Figure::titled("F1a: specialization (throughput box plots per distribution, Φ-sorted)");
    // The RMI is frozen (RetrainPolicy::Never) so the figure shows pure
    // specialization, not adaptation — the registry's default retrains, so
    // this SUT stays hand-built.
    let rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).expect("rmi builds");
    let registry = SutRegistry::default();
    let suts: [BoxedKvSut; 3] = [
        Box::new(rmi),
        registry.build("btree", &data).expect("btree builds"),
        registry.build("alex", &data).expect("alex builds"),
    ];
    for mut sut in suts {
        let record = run(sut.as_mut(), &s);
        let report =
            SpecializationReport::from_record(&record, &phis, 500, &[]).expect("report builds");
        let name = &record.sut_name;
        fig.emit(
            &format!("fig1a_{name}.txt"),
            &render_specialization(&report),
        );
        fig.save(
            format!("fig1a_{name}.json"),
            to_json(&report).expect("serializable"),
        );
        let series: Vec<(f64, f64)> = report
            .entries
            .iter()
            .map(|e| (e.phi, e.throughput.five.median))
            .collect();
        fig.save(
            format!("fig1a_{name}.csv"),
            series_csv(("phi", "median_throughput"), &series),
        );
    }
    fig
}

/// **F1b — Fig. 1b**: cumulative queries completed over time, with the
/// area-difference single values. A read phase, an abrupt insert burst
/// into a new key region, then reads there: the retraining RMI pays
/// training up front and retrains mid-run, the B+-tree neither trains nor
/// stalls.
///
/// Expected shape: the learned curve starts flat, then runs steeper; the
/// two-system area difference tells who wins overall.
pub fn f1b() -> Figure {
    let s = figure_spec!("f1b");
    let data = s.dataset.build().expect("dataset builds");

    let mut fig = Figure::titled("F1b: cumulative queries over time (adaptability)");
    let mut rmi =
        RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.05)).expect("rmi");
    let rmi_record = run(&mut rmi, &s);
    let mut rmi_never = RmiSut::build("rmi-no-retrain", &data, RetrainPolicy::Never).expect("rmi");
    let never_record = run(&mut rmi_never, &s);
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = run(&mut btree, &s);

    let rmi_rep = AdaptabilityReport::from_record(&rmi_record).expect("report");
    let never_rep = AdaptabilityReport::from_record(&never_record).expect("report");
    let btree_rep = AdaptabilityReport::from_record(&btree_record).expect("report");

    let mut text = render_adaptability(&[&rmi_rep, &never_rep, &btree_rep]);
    let rmi_vs_btree = rmi_rep.area_vs(&btree_rep).expect("comparable spans");
    text.push_str(&format!(
        "  two-system area difference (rmi+retrain − btree): {rmi_vs_btree:+.1} op·s\n"
    ));
    let never_vs_btree = never_rep.area_vs(&btree_rep).expect("comparable spans");
    text.push_str(&format!(
        "  two-system area difference (rmi-no-retrain − btree): {never_vs_btree:+.1} op·s\n"
    ));
    text.push_str(&format!(
        "  training time: rmi {:.3}s (work {}), btree {:.3}s\n",
        rmi_record.train.seconds, rmi_record.train.work, btree_record.train.seconds
    ));
    text.push_str(&format!(
        "  retrains during run: {}\n",
        rmi_record.final_metrics.adaptations
    ));
    fig.emit("fig1b.txt", &text);

    for (name, rep) in [
        ("rmi", &rmi_rep),
        ("rmi_never", &never_rep),
        ("btree", &btree_rep),
    ] {
        fig.save(
            format!("fig1b_{name}.csv"),
            series_csv(("t", "completed"), &rep.curve),
        );
        fig.save(
            format!("fig1b_{name}.json"),
            to_json(rep).expect("serializable"),
        );
    }
    fig
}

/// **F1c — Fig. 1c**: per-interval latency bands split by SLA compliance,
/// plus the adjustment speed over the first 5 000 ops after the shift.
/// The threshold is calibrated from the B+-tree baseline's p99 latency.
///
/// Expected shape: the learned system shows violation bands right after
/// the shift (delta growth and retraining bursts); the B+-tree none.
pub fn f1c() -> Figure {
    let s = figure_spec!("f1c");
    let data = s.dataset.build().expect("dataset builds");

    let mut fig = Figure::titled("F1c: SLA violation bands");
    // Baseline run calibrates the SLA threshold (paper §V-D.2).
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = run(&mut btree, &s);
    let threshold = s.sla.resolve(Some(&btree_record)).expect("resolvable");
    fig.line(&format!(
        "SLA threshold (2 × baseline p99): {threshold:.6} virtual seconds\n"
    ));

    let mut rmi =
        RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.005)).expect("rmi");
    let rmi_record = run(&mut rmi, &s);

    // Interval: 1/50 of the execution so both figures have ~50 bands.
    for record in [&btree_record, &rmi_record] {
        let interval = (record.exec_duration() / 50.0).max(1e-6);
        let report =
            SlaReport::from_record(record, threshold, interval, 5_000).expect("report builds");
        let name = &record.sut_name;
        fig.emit(&format!("fig1c_{name}.txt"), &render_sla(&report));
        fig.save(
            format!("fig1c_{name}.json"),
            to_json(&report).expect("serializable"),
        );
    }
    fig
}

/// The F1d run stands for a production deployment 10⁶× larger (200k keys →
/// 200G keys): training work is scaled by this before it becomes dollars.
/// Per-op cost does not change with scale, so throughput is not scaled.
const PRODUCTION_SCALE: u64 = 1_000_000;

/// F1d's training budgets, `(leaf_count, sample_every)`, cheapest first.
const BUDGETS: [(usize, usize); 5] = [(16, 64), (128, 16), (1024, 4), (8192, 1), (32768, 1)];

/// **F1d — Fig. 1d**: throughput per training cost, against the DBA step
/// function of manually tuning the B+-tree. The RMI is trained at five
/// budgets, and training is costed on CPU, GPU and TPU profiles (§V-D.3).
///
/// Expected shape: learned throughput grows with training spend and
/// crosses the tuned-traditional level at some budget.
pub fn f1d() -> Figure {
    let s = figure_spec!("f1d");
    let data = s.dataset.build().expect("dataset builds");
    let pairs: Vec<(u64, u64)> = data.pairs().collect();

    let mut fig = Figure::titled("F1d: throughput per training cost vs. DBA step function");

    // Traditional baseline throughput anchors the DBA step function.
    let mut btree = BTreeSut::build(&data).expect("btree");
    let btree_record = run(&mut btree, &s);
    let dba = DbaCostModel::default_model(btree_record.mean_throughput());
    fig.line(&format!(
        "baseline (untuned btree) throughput: {:.0} ops/s\n",
        btree_record.mean_throughput()
    ));

    // Learned system at increasing training budgets.
    let mut runs: Vec<RunRecord> = Vec::new();
    for (leaf_count, sample_every) in BUDGETS {
        let rmi = Rmi::build(
            &pairs,
            RmiConfig {
                leaf_count,
                sample_every,
            },
        )
        .expect("rmi builds");
        let mut sut = LearnedKvSut::with_trained_base(
            format!("rmi-l{leaf_count}-s{sample_every}"),
            rmi,
            RetrainPolicy::Never,
        );
        let mut record = run(&mut sut, &s);
        fig.line(&format!(
            "  {}: train work {:>12}, throughput {:>8.0} ops/s",
            record.sut_name,
            record.final_metrics.training_work,
            record.mean_throughput()
        ));
        record.final_metrics.training_work = record
            .final_metrics
            .training_work
            .saturating_mul(PRODUCTION_SCALE);
        runs.push(record);
    }
    fig.line("");

    let profiles = [
        HardwareProfile::cpu(),
        HardwareProfile::gpu(),
        HardwareProfile::tpu(),
    ];
    // Cost breakdown for the largest-budget run on all hardware.
    let biggest = runs.last().expect("non-empty budget ladder");
    let cost_report = CostReport::from_record(biggest, &profiles).expect("report builds");
    fig.emit("fig1d_cost_breakdown.txt", &render_cost(&cost_report));
    fig.save(
        "fig1d_cost_breakdown.json",
        to_json(&cost_report).expect("serializable"),
    );

    // Trade-off curve per hardware profile.
    for hw in &profiles {
        let tradeoff = TrainingTradeoff::new(&runs, hw, &dba).expect("tradeoff builds");
        let text = format!(
            "--- hardware: {} ---\n{}",
            hw.name,
            render_tradeoff(&tradeoff)
        );
        fig.emit(&format!("fig1d_tradeoff_{}.txt", hw.name), &text);
        fig.save(
            format!("fig1d_tradeoff_{}.json", hw.name),
            to_json(&tradeoff).expect("serializable"),
        );
    }
    fig
}

/// **A1 — ablation**: transition type × adaptability (§V-B: "the type of
/// transition can impact performance and adaptability in non-obvious
/// ways"). One shift, abrupt and over two gradual windows, for the
/// retraining RMI.
pub fn a1() -> Figure {
    let mut fig = Figure::titled("A1: transition-type ablation (abrupt vs. gradual)");
    let kinds = [
        ("abrupt", TransitionKind::Abrupt),
        ("gradual-20%", TransitionKind::Gradual { window: 0.2 }),
        ("gradual-60%", TransitionKind::Gradual { window: 0.6 }),
    ];
    let mut text =
        String::from("transition     norm-area   recovery-s   retrains   adjust-speed-s\n");
    let base = figure_spec!("a1");
    let data = base.dataset.build().expect("dataset builds");
    for (name, kind) in kinds {
        let mut s = base.clone();
        let phases = base.workload.phases().to_vec();
        s.workload = PhasedWorkload::new(phases, vec![kind], base.workload.seed())
            .expect("a valid transition");
        let mut sut = RmiSut::build("rmi+retrain", &data, RetrainPolicy::DeltaFraction(0.02))
            .expect("rmi builds");
        let record = run(&mut sut, &s);
        let adapt = AdaptabilityReport::from_record(&record).expect("report");
        // The threshold is four times the median latency.
        let threshold = quantile(&record.all_latencies(), 0.5).expect("non-empty") * 4.0;
        let interval = record.exec_duration() / 50.0;
        let sla = SlaReport::from_record(&record, threshold, interval, 12_000).expect("sla report");
        let recovery = adapt.recovery_times.first().map_or(f64::NAN, |&(_, r)| r);
        let adjust = sla.adjustment_speed.first().map_or(f64::NAN, |&(_, a)| a);
        text.push_str(&format!(
            "{:<14} {:>9.4}   {:>9.3}   {:>8}   {:>12.4}\n",
            name, adapt.normalized_area, recovery, record.final_metrics.adaptations, adjust
        ));
    }
    fig.emit("ablation_transitions.txt", &text);
    fig
}

/// **A2 — ablation**: hold-out, out-of-sample evaluation (§V-A). An RMI
/// that retrains on every phase change runs four in-sample distributions,
/// then one pass over two unseen ones.
///
/// Expected shape: the specializing learned system generalizes worse than
/// the B+-tree, whose ratio is about 1.0 by construction.
pub fn a2() -> Figure {
    let mut fig = Figure::titled("A2: hold-out / out-of-sample ablation");
    let s = figure_spec!("a2");
    let data = s.dataset.build().expect("dataset builds");

    let mut text =
        String::from("SUT               in-sample t/s  out-of-sample t/s  generalization\n");
    let with_holdout = RunOptions {
        holdout: true,
        ..RunOptions::default()
    };
    let rmi = RmiSut::build("rmi+specialize", &data, RetrainPolicy::OnPhaseChange).expect("rmi");
    let btree = BTreeSut::build(&data).expect("btree");
    let suts: [BoxedKvSut; 2] = [Box::new(rmi), Box::new(btree)];
    for mut sut in suts {
        let outcome = Runner::new(sut.as_mut()).config(with_holdout).run(&s);
        let (_, rep) = outcome.expect("run").holdout.expect("hold-out pass");
        text.push_str(&format!(
            "{:<17} {:>12.0}  {:>17.0}  {:>13.3}\n",
            rep.sut_name,
            rep.in_sample_throughput,
            rep.out_of_sample_throughput,
            rep.generalization_ratio
        ));
    }
    text.push_str(
        "\n(generalization = out-of-sample / in-sample throughput; 1.0 = no overfitting)\n",
    );
    fig.emit("ablation_holdout.txt", &text);
    fig
}

/// **A3 — ablation**: the online-training resource fraction (§V-B). One
/// retrain at the shift, run in the foreground (it stalls one query) and
/// in the background at three processor shares.
///
/// Expected shape: foreground gives one huge latency spike; background
/// caps the worst case at the price of a longer, shallower slowdown.
pub fn a3() -> Figure {
    let mut fig = Figure::titled("A3: online-training resource fraction (§V-B)");
    let modes = [
        ("foreground", OnlineTrainMode::Foreground),
        (
            "background-10%",
            OnlineTrainMode::Background { fraction: 0.1 },
        ),
        (
            "background-30%",
            OnlineTrainMode::Background { fraction: 0.3 },
        ),
        (
            "background-70%",
            OnlineTrainMode::Background { fraction: 0.7 },
        ),
    ];
    let mut text = String::from(
        "mode             max-lat-ms  p99-lat-ms  viol%>1ms  mean-ops/s  duration-s\n",
    );
    let base = figure_spec!("a3");
    let data = base.dataset.build().expect("dataset builds");
    for (name, mode) in modes {
        let s = Scenario {
            online_train: mode,
            ..base.clone()
        };
        // Retrain only at phase boundaries so every mode pays the same
        // adaptation work, scheduled differently.
        let mut sut =
            RmiSut::build("rmi", &data, RetrainPolicy::OnPhaseChange).expect("rmi builds");
        let record = run(&mut sut, &s);
        let lats = record.all_latencies();
        let max_lat = lats.iter().cloned().fold(0.0f64, f64::max);
        let p99 = quantile(&lats, 0.99).expect("non-empty");
        // A 1 ms fixed threshold highlights the spikes.
        let sla = SlaReport::from_record(&record, 0.001, record.exec_duration() / 50.0, 5_000)
            .expect("report builds");
        text.push_str(&format!(
            "{:<16} {:>10.3} {:>11.4} {:>9.3} {:>11.0} {:>11.4}\n",
            name,
            max_lat * 1e3,
            p99 * 1e3,
            sla.violation_fraction * 100.0,
            record.mean_throughput(),
            record.exec_duration(),
        ));
    }
    text.push_str(
        "\n(foreground concentrates the retrain into one spike; background\n caps worst-case latency at the cost of a longer shallow slowdown)\n",
    );
    fig.emit("ablation_resource_fraction.txt", &text);
    fig
}

/// Keys Q1 scores per distribution.
const Q1_SAMPLES: usize = 30_000;

fn q1_keys(dist: &KeyDistribution, seed: u64) -> Vec<f64> {
    KeyGenerator::new(dist.clone(), 0, 10_000_000, seed)
        .expect("valid distribution")
        .sample_f64(Q1_SAMPLES)
}

/// Per-interval op counts for an arrival process over 100 intervals.
fn q1_load_shape(modulation: LoadModulation) -> Vec<usize> {
    let mut gen = ArrivalGenerator::new(ArrivalProcess::Poisson { rate: 500.0 }, modulation, 5)
        .expect("valid arrival process");
    let mut counts = vec![0usize; 100];
    loop {
        let t = gen.next_arrival();
        if t >= 100.0 {
            break;
        }
        counts[t as usize] += 1;
    }
    counts
}

/// **Q1 — §V-C**: the dataset/workload quality scores ("attribute low
/// marks to uniform data distributions and workloads while favoring
/// datasets exhibiting skew or varying query load"), for every generator
/// family and for steady, diurnal and bursty load.
///
/// Expected shape: uniform ranks last; skew and load variation rank high.
pub fn q1() -> Figure {
    let mut fig = Figure::titled("Q1: dataset/workload quality scores (§V-C tool)");
    let distributions = vec![
        ("uniform", KeyDistribution::Uniform),
        (
            "seq-noise(0.01)",
            KeyDistribution::SequentialNoise { noise_frac: 0.01 },
        ),
        ("zipf(0.8)", KeyDistribution::Zipf { theta: 0.8 }),
        ("zipf(1.3)", KeyDistribution::Zipf { theta: 1.3 }),
        (
            "normal(0.5, 0.1)",
            KeyDistribution::Normal {
                center: 0.5,
                std_frac: 0.1,
            },
        ),
        (
            "lognormal(0, 1.2)",
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.2,
            },
        ),
        (
            "hotspot(5%/95%)",
            KeyDistribution::Hotspot {
                hot_span: 0.05,
                hot_fraction: 0.95,
            },
        ),
        (
            "clustered(4, 0.01)",
            KeyDistribution::Clustered {
                clusters: 4,
                cluster_std_frac: 0.01,
            },
        ),
    ];

    let mut text = String::from(
        "Dataset quality (data only)\n  distribution          skew   clustering  overall\n",
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for (name, dist) in &distributions {
        let r = score_dataset(&q1_keys(dist, 31));
        text.push_str(&format!(
            "  {:<20} {:>6.3}   {:>8.3}   {:>7.3}\n",
            name, r.skew_score, r.clustering_score, r.overall
        ));
        rows.push((name.to_string(), r.overall));
    }

    // Email keys (the paper's synthetic-substitution example).
    let emails = EmailGenerator::new(33).take(Q1_SAMPLES);
    let email_keys: Vec<f64> = emails.iter().map(|e| string_key_to_u64(e) as f64).collect();
    let r = score_dataset(&email_keys);
    text.push_str(&format!(
        "  {:<20} {:>6.3}   {:>8.3}   {:>7.3}\n",
        "email-addresses", r.skew_score, r.clustering_score, r.overall
    ));

    text.push_str("\nWorkload quality (zipf(1.3) keys × load shape)\n");
    text.push_str("  load shape            load-variation  overall\n");
    let zipf_keys = q1_keys(&KeyDistribution::Zipf { theta: 1.3 }, 31);
    for (name, modulation) in [
        ("steady", LoadModulation::Constant),
        (
            "diurnal",
            LoadModulation::Diurnal {
                period: 25.0,
                amplitude: 0.8,
            },
        ),
        (
            "bursty",
            LoadModulation::Burst {
                period: 20.0,
                burst_len: 2.0,
                multiplier: 8.0,
            },
        ),
    ] {
        let r = score_workload(&zipf_keys, &q1_load_shape(modulation));
        text.push_str(&format!(
            "  {:<20} {:>10.3}      {:>7.3}\n",
            name, r.load_variation_score, r.overall
        ));
    }

    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    text.push_str("\nRanking (best benchmark material first):\n");
    for (name, score) in &rows {
        text.push_str(&format!("  {score:>6.3}  {name}\n"));
    }
    fig.emit("quality_scores.txt", &text);
    let csv_rows: Vec<(f64, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, &(_, s))| (i as f64, s))
        .collect();
    fig.save(
        "quality_scores.csv",
        series_csv(("rank", "score"), &csv_rows),
    );
    fig
}

/// QS's three query phases over a star schema: narrow filters, wide
/// filters, then the narrow queries again.
fn qs_phases(cat: &Catalog) -> Vec<(String, Vec<QueryOp>)> {
    let take = |mut g: JoinQueryGenerator| -> Vec<QueryOp> {
        g.take(250)
            .into_iter()
            .map(|query| QueryOp { query })
            .collect()
    };
    // Phase 1: narrow filters (small intermediates).
    let narrow = take(
        JoinQueryGenerator::new(
            cat,
            "fact",
            vec!["dim_small".into(), "dim_mid".into(), "dim_big".into()],
            (0, 120),
            71,
        )
        .expect("valid generator"),
    );
    // Phase 2: wide filters (big intermediates) — different shapes.
    let wide = take(
        JoinQueryGenerator::new(
            cat,
            "fact",
            vec!["dim_big".into(), "dim_mid".into()],
            (600, 1000),
            72,
        )
        .expect("valid generator"),
    );
    // The third phase repeats the first: a bandit that remembers per-shape
    // arms should show no exploration penalty the second time around.
    vec![
        ("narrow-star".to_string(), narrow.clone()),
        ("wide-star".to_string(), wide),
        ("narrow-star-again".to_string(), narrow),
    ]
}

fn qs_run<S: SystemUnderTest<QueryOp>>(
    sut: &mut S,
    phases: &[(String, Vec<QueryOp>)],
) -> RunRecord {
    run_query_workload(sut, phases, 1_000_000.0, u64::MAX).expect("run succeeds")
}

/// **QS — query-optimizer adaptability** (§II). A DP optimizer over
/// histograms, the same with feedback-trained cardinalities (§IV), and a
/// Bao-style ε-greedy plan steerer run a star-join workload whose filter
/// placement shifts and then returns.
///
/// Expected shape: the learned systems lag on the first queries of each
/// phase, then meet the traditional optimizer; the Jaccard workload Φ
/// separates the phases.
pub fn qs() -> Figure {
    let mut fig = Figure::titled("QS: query-optimizer steering under workload shift");
    let mut cat = Catalog::new();
    cat.add(Table::generate("fact", 30_000, 4, 61));
    cat.add(Table::generate("dim_small", 100, 2, 62));
    cat.add(Table::generate("dim_mid", 1_500, 2, 63));
    cat.add(Table::generate("dim_big", 8_000, 2, 64));
    let phases = qs_phases(&cat);

    // Workload Φ between the two phases (Jaccard over query subtrees).
    let trees = |p: usize| -> Vec<_> {
        phases[p]
            .1
            .iter()
            .flat_map(|op| op.query.relations.clone())
            .collect()
    };
    fig.line(&format!(
        "workload Φ (1 − Jaccard over subtrees) between phases: {:.3}\n",
        workload_phi(&trees(0), &trees(1))
    ));

    let mut traditional = TraditionalQuerySut::build(cat.clone()).expect("builds");
    let rec_t = qs_run(&mut traditional, &phases);
    let mut learned = LearnedCardinalitySut::build(cat.clone()).expect("builds");
    let rec_l = qs_run(&mut learned, &phases);
    let mut bandit = BanditQuerySut::build(cat, 0.1, 73).expect("builds");
    let rec_b = qs_run(&mut bandit, &phases);

    let rep_t = AdaptabilityReport::from_record(&rec_t).expect("report");
    let rep_l = AdaptabilityReport::from_record(&rec_l).expect("report");
    let rep_b = AdaptabilityReport::from_record(&rec_b).expect("report");
    let mut text = render_adaptability(&[&rep_t, &rep_l, &rep_b]);

    text.push_str("\nper-phase mean latency (virtual ms/query, lower is better):\n");
    for rec in [&rec_t, &rec_l, &rec_b] {
        text.push_str(&format!("  {:<22}", rec.sut_name));
        for p in 0..rec.phase_names.len() {
            let lats = rec.phase_latencies(p);
            let mean = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
            text.push_str(&format!(" {:>9.3}", mean * 1e3));
        }
        text.push_str(&format!(
            "   label-work: {}\n",
            rec.final_metrics.label_collection_work
        ));
    }
    text.push_str(&format!(
        "\n  two-system area (learned − traditional): {:+.1}\n",
        rep_l.area_vs(&rep_t).expect("comparable")
    ));
    text.push_str(&format!(
        "  two-system area (bandit − traditional):  {:+.1}\n",
        rep_b.area_vs(&rep_t).expect("comparable")
    ));
    fig.emit("fig_query_steering.txt", &text);
    fig
}

/// LC's cache capacity, in keys.
const CACHE_CAPACITY: usize = 4_096;

fn lc_cached<C: KeyCache + 'static>(
    label: &str,
    cache: C,
    s: &Scenario,
    data: &Dataset,
    text: &mut String,
) -> AdaptabilityReport {
    let mut sut = CachedSut::new(BTreeSut::build(data).expect("btree"), cache);
    let record = run(&mut sut, s);
    let stats = sut.cache_stats();
    let rep = AdaptabilityReport::from_record(&record).expect("report");
    text.push_str(&format!(
        "{:<22} hit-rate {:.3}  phase tput {:?}  recovery {:?}\n",
        label,
        stats.hit_rate(),
        rep.phase_throughput
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>(),
        rep.recovery_times
            .iter()
            .map(|&(p, r)| (p, (r * 1000.0).round() / 1000.0))
            .collect::<Vec<_>>(),
    ));
    rep
}

/// **LC — §II "learning-based caches"**: LRU against a learned
/// frequency-predicting cache in front of the same B+-tree, while the hot
/// set moves from region A to region B. The learned cache's decay
/// half-life is its specialize-vs-adapt knob.
pub fn lc() -> Figure {
    let mut fig = Figure::titled("LC: learned cache vs LRU under a hot-set shift");
    let s = figure_spec!("lc");
    let mut text = String::new();

    // Uncached baseline for context.
    let data = s.dataset.build().expect("dataset builds");
    let mut plain = BTreeSut::build(&data).expect("btree");
    let record = run(&mut plain, &s);
    text.push_str(&format!(
        "{:<22} hit-rate   -    mean tput {:.0}\n",
        "btree (no cache)",
        record.mean_throughput()
    ));
    let lru = lc_cached(
        "btree+lru",
        LruCache::new(CACHE_CAPACITY),
        &s,
        &data,
        &mut text,
    );
    let learned_balanced = lc_cached(
        "btree+learned(16x)",
        LearnedCache::new(CACHE_CAPACITY),
        &s,
        &data,
        &mut text,
    );
    let learned_sticky = lc_cached(
        "btree+learned(256x)",
        LearnedCache::with_half_life(CACHE_CAPACITY, CACHE_CAPACITY as f64 * 256.0),
        &s,
        &data,
        &mut text,
    );
    text.push_str(&format!(
        "\narea difference (learned-16x − lru): {:+.1} op·s\n",
        learned_balanced.area_vs(&lru).expect("comparable")
    ));
    text.push_str(&format!(
        "area difference (learned-256x − lru): {:+.1} op·s\n",
        learned_sticky.area_vs(&lru).expect("comparable")
    ));
    text.push_str(
        "\n(under pure zipf access, frequency ~ recency, so all caches serve ~80%;\n the sticky 256x half-life trails LRU after the hot-set move (phase 2)\n but leads it before (phase 1), so over the whole run its area vs LRU\n is positive — the specialize/adapt trade-off of §IV. The scan-pollution\n case where learned frequency decisively beats LRU is exercised in\n crates/index/src/cache.rs::learned_keeps_hot_keys_under_scan_pollution.)\n",
    );
    fig.emit("fig_learned_cache.txt", &text);
    fig
}
