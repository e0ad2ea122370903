//! The traced run: per-layer metrics, measured from outside each layer.
//!
//! Every metric named in `BENCHMARK.json`'s `per_layer` list is emitted
//! on every workload; a layer the workload does not exercise (the engine
//! on a serial workload, inserts on a read-only one) reports 0.

use crate::bench::{
    Analyzer, ArchiveSample, Archiver, Bench, RunSpec, TracedSut, WallSum, Wrap, REPORTS,
};
use crate::measure::{median, time, Metric, Reps};
use crate::suts::CallKind;
use crate::workloads::{NULL, SUTS, WORKERS};
use crate::Res;
use lsbench::core::record::{OpRecord, RunRecord};
use lsbench::core::runner::ExecutionMode;
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::index::{
    AlexIndex, BPlusTree, BulkLoad, DeltaIndex, HashIndex, Index, PgmIndex, RadixSpline, Rmi,
    SortedArray,
};
use lsbench::stats::{IntervalCounts, LatencyHistogram};
use lsbench::workload::arrival::ArrivalGenerator;
use lsbench::workload::keygen::{KeyDistribution, KeyGenerator};
use std::hint::black_box;

/// Shares of `--seconds` given to the layer groups of the traced run.
const WORKLOAD_SHARE: f64 = 0.08;
const INDEX_SHARE: f64 = 0.27;
const STATS_SHARE: f64 = 0.03;
const ANALYZE_SHARE: f64 = 0.05;
const ARCHIVE_SHARE: f64 = 0.12;

/// Untraced and traced btree runs compared with one another, each.
const COMPARED_RUNS: usize = 3;

/// Keys per `execute_many` dispatch of the serial driver
/// (`DriverConfig::dispatch_batch`); `get_many` is timed at that size.
const DISPATCH_BATCH: usize = 64;
/// Rows a timed range scan asks for (the scan phase's `max_scan_len`).
const SCAN_ROWS: usize = 100;

type IndexCtor = fn(&[(u64, u64)]) -> lsbench::index::Result<Box<dyn Index>>;

fn boxed<I: Index + 'static>(
    index: lsbench::index::Result<I>,
) -> lsbench::index::Result<Box<dyn Index>> {
    index.map(|i| Box::new(i) as Box<dyn Index>)
}

/// Every index the registry's SUTs are built on; the read-only learned
/// ones behind the `DeltaIndex` their SUTs use, so inserts are defined.
const INDEXES: [(&str, IndexCtor); 7] = [
    ("btree", |p| boxed(BPlusTree::bulk_load(p))),
    ("rmi", |p| boxed(DeltaIndex::<Rmi>::build(p))),
    ("pgm", |p| boxed(DeltaIndex::<PgmIndex>::build(p))),
    ("alex", |p| boxed(AlexIndex::bulk_load(p))),
    ("spline", |p| boxed(DeltaIndex::<RadixSpline>::build(p))),
    ("hash", |p| boxed(HashIndex::bulk_load(p))),
    ("sorted-array", |p| boxed(SortedArray::bulk_load(p))),
];

/// Folds lookup results into a checksum (`None` counts as a fixed value).
fn fold(sum: u64, hit: Option<u64>) -> u64 {
    sum.wrapping_mul(31)
        .wrapping_add(hit.unwrap_or(0x9E37_79B9_7F4A_7C15))
}

fn ns_per(seconds: f64, count: usize) -> f64 {
    seconds * 1e9 / count.max(1) as f64
}

impl Bench<'_> {
    fn push(&mut self, name: impl Into<String>, unit: &str, samples: &[f64]) {
        self.metrics.push(Metric::from_samples(name, unit, samples));
    }

    fn reps(&self, share: f64, parts: usize) -> Reps {
        Reps {
            budget: self.budget(share) / parts as u32,
            min_reps: 1,
            max_reps: 25,
        }
    }

    /// Keys drawn from the workload's own phase distributions, in equal
    /// parts, the way `PhasedWorkload::stream` seeds them.
    fn probe_keys(&self, count: usize) -> Res<Vec<u64>> {
        let workload = &self.w.scenario.workload;
        let phases = workload.phases();
        let mut keys = Vec::with_capacity(count);
        for (i, p) in phases.iter().enumerate() {
            let seed = workload.seed().wrapping_add(i as u64 * 1_000_003);
            let mut gen =
                KeyGenerator::new(p.distribution.clone(), p.key_range.0, p.key_range.1, seed)?;
            keys.extend(gen.take(count / phases.len()));
        }
        Ok(keys)
    }

    pub fn layers(&mut self) -> Res<()> {
        self.setup()?;
        self.workload_layer()?;
        self.index_layer()?;
        self.run_layers()?;
        self.stats_layer()?;
        Ok(())
    }

    /// `workload.*`: dataset build, key generators, the operation stream
    /// drained alone, and the arrival process.
    fn workload_layer(&mut self) -> Res<()> {
        let scenario = self.w.scenario.clone();
        let reps = self.reps(WORKLOAD_SHARE, 7);
        let keys = self.data.len();

        let samples = reps.run(|| {
            let (t, data) = self.tracer.span("workload.dataset_build", |_| {
                time(|| scenario.dataset.build())
            });
            black_box(data?);
            Ok(ns_per(t, keys))
        })?;
        self.push("workload.dataset_build_ns_per_key", "ns", &samples);

        let (lo, hi) = scenario.dataset.key_range;
        let draws = (scenario.workload.total_ops() as usize).clamp(1_000, 200_000);
        for name in ["uniform", "zipf", "lognormal", "hotspot"] {
            let dist = KeyDistribution::from_canonical(name).expect("canonical distribution name");
            let samples = reps.run(|| {
                let mut gen = KeyGenerator::new(dist.clone(), lo, hi, self.cfg.seed)?;
                let (t, drawn) = self.tracer.span(format!("workload.keygen.{name}"), |_| {
                    time(|| gen.take(draws))
                });
                black_box(drawn);
                Ok(ns_per(t, draws))
            })?;
            self.push(format!("workload.keygen_ns_per_key.{name}"), "ns", &samples);
        }

        let total = scenario.workload.total_ops() as usize;
        let samples = reps.run(|| {
            let stream = scenario.workload.stream()?;
            let (t, n) = self
                .tracer
                .span("workload.opgen", |_| time(|| stream.map(black_box).count()));
            if n != total {
                return Err(format!("operation stream produced {n} of {total} operations").into());
            }
            Ok(ns_per(t, n))
        })?;
        self.push("workload.opgen_ns_per_op", "ns", &samples);

        let samples = match scenario.arrival {
            None => vec![0.0],
            Some(arrival) => reps.run(|| {
                let mut gen =
                    ArrivalGenerator::new(arrival.process, arrival.modulation, arrival.seed)?;
                let (t, last) = self.tracer.span("workload.arrival", |_| {
                    time(|| (0..total).fold(0.0, |_, _| gen.next_arrival()))
                });
                black_box(last);
                Ok(ns_per(t, total))
            })?,
        };
        self.push("workload.arrival_ns_per_op", "ns", &samples);
        Ok(())
    }

    /// `index.<i>.*`: direct `Index` calls over keys drawn from the
    /// workload's distributions, every result checked against the dataset.
    /// Write and scan calls are timed only where the workload issues them.
    fn index_layer(&mut self) -> Res<()> {
        let pairs: Vec<(u64, u64)> = self.data.pairs().collect();
        let keys = self.probe_keys((pairs.len() / 4).clamp(1_000, 100_000))?;
        let expect_gets = keys.iter().fold(0, |s, &k| fold(s, self.data.get(k)));
        let starts: Vec<u64> = keys.iter().copied().step_by(10).collect();
        let sorted = self.data.keys();
        let (mut expect_rows, mut expect_scan) = (0usize, 0u64);
        for &start in &starts {
            let from = sorted.partition_point(|&k| k < start);
            for &k in &sorted[from..sorted.len().min(from + SCAN_ROWS)] {
                expect_rows += 1;
                expect_scan = fold(expect_scan, self.data.get(k));
            }
        }
        let mixes: Vec<_> = self
            .w
            .scenario
            .workload
            .phases()
            .iter()
            .map(|p| p.mix.clone())
            .collect();
        let inserts = mixes.iter().any(|m| m.insert + m.update > 0.0);
        let deletes = mixes.iter().any(|m| m.delete > 0.0);
        let scans = mixes.iter().any(|m| m.scan > 0.0);
        let reps = self.reps(INDEX_SHARE, INDEXES.len() * 4);
        let mismatch = |name: &str, call: &str| -> Res<f64> {
            Err(format!("index.{name}.{call}: results differ from Dataset::get").into())
        };

        for (name, build) in INDEXES {
            let open = self.tracer.enter(format!("index.{name}"));
            let mut index = None;
            let samples = reps.run(|| {
                let (t, built) = self.tracer.span(format!("index.{name}.bulk_load"), |_| {
                    time(|| build(&pairs))
                });
                index = Some(built?);
                Ok(ns_per(t, pairs.len()))
            })?;
            self.push(format!("index.{name}.bulk_load_ns_per_key"), "ns", &samples);
            let mut index = index.expect("at least one repetition ran");
            let bytes = index.stats().size_bytes as f64 / pairs.len() as f64;
            self.push(format!("index.{name}.bytes_per_key"), "count", &[bytes]);

            let samples = reps.run(|| {
                let (t, sum) = self.tracer.span(format!("index.{name}.get"), |_| {
                    time(|| keys.iter().fold(0, |s, &k| fold(s, index.get(k))))
                });
                if sum != expect_gets {
                    return mismatch(name, "get");
                }
                Ok(ns_per(t, keys.len()))
            })?;
            self.push(format!("index.{name}.get_ns"), "ns", &samples);

            let mut hits = Vec::with_capacity(DISPATCH_BATCH);
            let samples = reps.run(|| {
                let (t, sum) = self.tracer.span(format!("index.{name}.get_many"), |_| {
                    time(|| {
                        keys.chunks(DISPATCH_BATCH).fold(0, |s, batch| {
                            hits.clear();
                            index.get_many(batch, &mut hits);
                            hits.iter().fold(s, |s, &hit| fold(s, hit))
                        })
                    })
                });
                if sum != expect_gets {
                    return mismatch(name, "get_many");
                }
                Ok(ns_per(t, keys.len()))
            })?;
            self.push(format!("index.{name}.get_many_ns"), "ns", &samples);

            // Hash indexes have no order: their scan cost stays 0.
            let mut samples = vec![0.0];
            if scans && index.range(0, 1).is_ok() {
                samples = reps.run(|| {
                    let (t, (rows, sum)) = self.tracer.span(format!("index.{name}.range"), |_| {
                        time(|| {
                            starts.iter().fold((0usize, 0u64), |(rows, sum), &start| {
                                let page = index.range(start, SCAN_ROWS).unwrap_or_default();
                                let sum = page.iter().fold(sum, |s, &(_, v)| fold(s, Some(v)));
                                (rows + page.len(), sum)
                            })
                        })
                    });
                    if (rows, sum) != (expect_rows, expect_scan) {
                        return mismatch(name, "range");
                    }
                    Ok(ns_per(t, rows))
                })?;
            }
            self.push(format!("index.{name}.range_ns_per_row"), "ns", &samples);

            // Writes change the index, so each is one pass over the keys:
            // overwrite-or-insert every probe key, then delete them all.
            let mut samples = vec![0.0];
            if inserts {
                let (t, failed) = self.tracer.span(format!("index.{name}.insert"), |_| {
                    time(|| {
                        keys.iter()
                            .filter(|&&k| index.insert(k, !k).is_err())
                            .count()
                    })
                });
                if failed > 0 || keys.iter().any(|&k| index.get(k) != Some(!k)) {
                    return Err(
                        format!("index.{name}.insert: inserted keys do not read back").into(),
                    );
                }
                samples = vec![ns_per(t, keys.len())];
            }
            self.push(format!("index.{name}.insert_ns"), "ns", &samples);
            let mut samples = vec![0.0];
            if deletes {
                let (t, failed) = self.tracer.span(format!("index.{name}.delete"), |_| {
                    time(|| keys.iter().filter(|&&k| index.delete(k).is_err()).count())
                });
                if failed > 0 || keys.iter().any(|&k| index.get(k).is_some()) {
                    return Err(format!("index.{name}.delete: deleted keys still read").into());
                }
                samples = vec![ns_per(t, keys.len())];
            }
            self.push(format!("index.{name}.delete_ns"), "ns", &samples);
            self.tracer.exit(open);
        }
        Ok(())
    }

    /// `sut.*`, `runner.*`, `engine.*`, `faults.*`, `obs.*`, `metrics.*`
    /// and `results.*`: traced `Runner::run`s of every SUT, the untraced
    /// btree runs they are compared with, and the analysis and archive
    /// steps on the btree record.
    fn run_layers(&mut self) -> Res<()> {
        let modes = self.w.modes.clone();

        // Untraced btree: the oracle record, the wall time tracing is
        // compared with, and the serial driver's own latency histogram.
        let mut untraced = WallSum::default();
        let mut btree_record = None;
        let (mut p50, mut p99, mut latency_samples) = (0.0, 0.0, 0);
        for &mode in &modes {
            let (oracle, warm) = self.oracle("btree", mode)?;
            let mut walls = Vec::new();
            let mut wall_stats = None;
            for _ in 0..COMPARED_RUNS {
                let ran = self.timed_run("btree", mode, None, &oracle)?;
                walls.push(ran.wall_s);
                wall_stats = ran.outcome.wall;
            }
            untraced.add(&walls, oracle.ops);
            if mode == ExecutionMode::Serial {
                let latency = wall_stats
                    .ok_or("a clock = wall run returned no WallStats")?
                    .latency;
                p50 = latency.quantile(0.5)? as f64 / 1e3;
                p99 = latency.quantile(0.99)? as f64 / 1e3;
                latency_samples = latency.total() as usize;
            }
            btree_record.get_or_insert(warm.outcome.record);
        }
        let btree_record = btree_record.expect("every workload has a mode");

        let mut traced_btree = None;
        for sut in SUTS {
            let mut traced = self.traced_runs(sut)?;
            if sut == "btree" {
                // Compared with the fastest of as many untraced runs.
                for _ in 1..COMPARED_RUNS {
                    let again = self.traced_runs(sut)?;
                    if again.wall_s() < traced.wall_s() {
                        traced = again;
                    }
                }
            }
            self.sut_metrics(sut, &traced);
            if sut == "btree" {
                traced_btree = Some(traced);
            }
        }
        let traced = traced_btree.expect("btree is one of SUTS");
        // The null SUT traced too, as the harness reference in trace.json.
        self.traced_runs(NULL)?;

        // runner.*: the serial driver around the SUT.
        let serial = traced.mode("serial");
        let self_ns = serial.map_or(0.0, |m| (m.wall_s * 1e9 - m.busy_ns as f64) / m.ops as f64);
        self.push("runner.serial.self_ns_per_op", "ns", &[self_ns.max(0.0)]);
        self.metrics.push(Metric {
            samples: latency_samples,
            ..Metric::single("runner.wall_p50_us", "us", p50)
        });
        self.metrics.push(Metric {
            samples: latency_samples,
            ..Metric::single("runner.wall_p99_us", "us", p99)
        });

        self.engine_layer(&traced, untraced.fastest())?;
        self.faults_layer(&btree_record)?;

        // obs.*: what the benchmark's own tracing costs the btree run.
        let overhead = (traced.wall_s() - untraced.fastest()) / untraced.fastest() * 100.0;
        self.push("obs.trace_overhead_pct", "%", &[overhead]);
        // The SUT's share of the traced btree run, as the README quotes it.
        let lanes = if self.w.is_engine() { WORKERS } else { 1 };
        eprintln!(
            "[trace] btree: SUT busy share of Runner::run {:.1} % ({} ops, {:.0} ns/op traced)",
            traced.total_busy_ns() as f64 / (traced.wall_s() * 1e9 * lanes as f64) * 100.0,
            traced.ops(),
            traced.wall_s() * 1e9 / traced.ops() as f64
        );

        self.reports_layer(&btree_record)?;
        self.results_layer()
    }

    /// `engine.*`: lane threads and the scheduler around the SUT. Sharded
    /// lanes run their SUTs side by side, so at best `1 / WORKERS` of the
    /// summed busy time is on the critical path; a shared SUT is busy
    /// serially.
    fn engine_layer(&mut self, traced: &TracedSut, untraced_wall_s: f64) -> Res<()> {
        let workers = WORKERS as f64;
        let per_op = |label: &str, parallel: f64| {
            traced.mode(label).map_or(0.0, |m| {
                ((m.wall_s * 1e9 - m.busy_ns as f64 / parallel) / m.ops as f64).max(0.0)
            })
        };
        let sharded = per_op("sharded", workers);
        self.push("engine.sharded.self_ns_per_op", "ns", &[sharded]);
        self.push(
            "engine.shared.self_ns_per_op",
            "ns",
            &[per_op("shared", 1.0)],
        );
        let lock_wait = traced.mode("shared").map_or(0.0, |m| {
            (1.0 - m.busy_ns as f64 / (workers * m.wall_s * 1e9)).max(0.0)
        });
        self.push("engine.shared.lock_wait_share", "ratio", &[lock_wait]);
        self.push("engine.sched.self_ns_per_op", "ns", &[per_op("sched", 1.0)]);
        let modes = self.w.modes.clone();
        let clients_per_worker = modes
            .iter()
            .find_map(|m| match *m {
                ExecutionMode::OpenLoop { clients, workers } => {
                    Some(clients as f64 / workers as f64)
                }
                _ => None,
            })
            .unwrap_or(0.0);
        self.push(
            "engine.sched.clients_per_worker",
            "count",
            &[clients_per_worker],
        );
        let mut speedup = 0.0;
        if self.w.is_engine() {
            let scenario = self.w.scenario.clone();
            let mut one_thread = 0.0;
            for mode in modes {
                let spec = RunSpec {
                    threads: Some(1),
                    ..RunSpec::new("btree", mode, ClockMode::Wall)
                };
                let ran = self.run_once(&scenario, spec, Wrap::Bare)?;
                self.pin("btree", mode, &ran.outcome.record)?;
                one_thread += ran.wall_s;
            }
            speedup = one_thread / untraced_wall_s;
        }
        self.push("engine.threads1_vs_2_speedup", "ratio", &[speedup]);
        Ok(())
    }

    /// `faults.*`: the sharded btree run with and without its fault plan
    /// (a difference of two medians: within noise it can come out
    /// negative), and the exact counts of the oracle record.
    fn faults_layer(&mut self, btree_record: &RunRecord) -> Res<()> {
        let scenario = self.w.scenario.clone();
        let (mut fault_ns, mut retries, mut injected) = (0.0, 0.0, 0.0);
        if scenario.faults.is_some() {
            let mut clean = scenario.clone();
            clean.faults = None;
            let mode = ExecutionMode::Sharded { workers: WORKERS };
            let spec = RunSpec::new("btree", mode, ClockMode::Wall);
            let mut wall = |s: &Scenario| -> Res<f64> {
                let mut walls = Vec::new();
                for _ in 0..COMPARED_RUNS {
                    walls.push(self.run_once(s, spec, Wrap::Bare)?.wall_s);
                }
                Ok(median(&walls))
            };
            let (faulted, unfaulted) = (wall(&scenario)?, wall(&clean)?);
            fault_ns = (faulted - unfaulted) * 1e9 / scenario.workload.total_ops() as f64;
            retries = btree_record.faults.retries as f64;
            injected = btree_record.faults.injected as f64;
        }
        self.push("faults.self_ns_per_op", "ns", &[fault_ns]);
        self.push("faults.retries", "count", &[retries]);
        self.push("faults.injected", "count", &[injected]);
        Ok(())
    }

    /// `metrics.*`: each paper report alone, on the btree record.
    fn reports_layer(&mut self, btree_record: &RunRecord) -> Res<()> {
        let ops = btree_record.ops.len() as u64;
        let analyzer = Analyzer::new(self, btree_record)?;
        let samples = self
            .reps(ANALYZE_SHARE, 1)
            .run(|| analyzer.sample(&mut self.tracer, btree_record))?;
        for (report, name) in REPORTS.iter().enumerate() {
            let seconds: Vec<f64> = samples.iter().map(|s| s[report]).collect();
            self.metrics
                .push(WallSum::over(&seconds, ops).ns_per_op(format!("metrics.{name}_ns_per_op")));
        }
        Ok(())
    }

    /// `results.*`: each archive step alone, on a capped btree run.
    fn results_layer(&mut self) -> Res<()> {
        let archiver = Archiver::new(self)?;
        let samples = self
            .reps(ARCHIVE_SHARE, 1)
            .run(|| archiver.sample(&mut self.tracer, true))?;
        let column =
            |pick: fn(&ArchiveSample) -> f64| -> Vec<f64> { samples.iter().map(pick).collect() };
        let ops = archiver.ops;
        let to_json = WallSum::over(&column(|s| s.to_json), ops);
        self.metrics
            .push(to_json.ns_per_op("results.to_json_ns_per_op"));
        let from_json = WallSum::over(&column(|s| s.from_json), ops);
        self.metrics
            .push(from_json.ns_per_op("results.from_json_ns_per_op"));
        self.push("results.store_save_ms", "ms", &column(|s| s.save * 1e3));
        self.push("results.store_load_ms", "ms", &column(|s| s.load * 1e3));
        let footprint = std::mem::size_of::<OpRecord>() as f64;
        self.push("results.record_bytes_per_op", "count", &[footprint]);
        let bytes = samples.last().map_or(0, |s| s.bytes);
        self.fact("artifact_bytes".to_string(), bytes)
    }

    fn sut_metrics(&mut self, sut: &str, traced: &TracedSut) {
        let busy = |kind: CallKind| traced.busy_ns[kind as usize] as f64;
        let execute = busy(CallKind::Execute) / traced.executed.max(1) as f64;
        self.push(format!("sut.{sut}.execute_ns_per_op"), "ns", &[execute]);
        self.push(
            format!("sut.{sut}.maintenance_ms"),
            "ms",
            &[busy(CallKind::Maintenance) / 1e6],
        );
        self.push(
            format!("sut.{sut}.phase_change_ms"),
            "ms",
            &[busy(CallKind::PhaseChange) / 1e6],
        );
        self.push(
            format!("sut.{sut}.train_ms"),
            "ms",
            &[busy(CallKind::Train) / 1e6],
        );
        let work = traced.execution_work as f64 / traced.ops().max(1) as f64;
        self.push(format!("sut.{sut}.work_units_per_op"), "count", &[work]);
        self.push(
            format!("sut.{sut}.adaptations"),
            "count",
            &[traced.adaptations as f64],
        );
    }

    /// `stats.*`: the recorders every lane and the scheduler feed per op.
    fn stats_layer(&mut self) -> Res<()> {
        let reps = self.reps(STATS_SHARE, 3);
        let n = 1_000_000usize;
        // Latencies spread over five decades, as a run's are.
        let value = |i: usize| 1_000 + (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 100_000_000;
        let mut filled = LatencyHistogram::new();
        let samples = reps.run(|| {
            let mut h = LatencyHistogram::new();
            let (t, ()) = self.tracer.span("stats.histogram_record", |_| {
                time(|| (0..n).for_each(|i| h.record(black_box(value(i)))))
            });
            filled = h;
            Ok(ns_per(t, n))
        })?;
        self.push("stats.histogram_record_ns", "ns", &samples);

        let merges = 2_000usize;
        let samples = reps.run(|| {
            let mut into = LatencyHistogram::new();
            let (t, merged) = self.tracer.span("stats.histogram_merge", |_| {
                time(|| (0..merges).try_for_each(|_| into.merge(black_box(&filled))))
            });
            merged?;
            if into.total() != filled.total() * merges as u64 {
                return Err("histogram merge lost samples".into());
            }
            Ok(t * 1e6 / merges as f64)
        })?;
        self.push("stats.histogram_merge_us", "us", &samples);

        let samples = reps.run(|| {
            let mut counts = IntervalCounts::new(0.0, 0.01)?;
            let (t, recorded) = self.tracer.span("stats.interval_counts_record", |_| {
                time(|| (0..n).try_for_each(|i| counts.record(black_box(i as f64 * 1e-5))))
            });
            recorded?;
            black_box(counts);
            Ok(ns_per(t, n))
        })?;
        self.push("stats.interval_counts_record_ns", "ns", &samples);
        Ok(())
    }
}
