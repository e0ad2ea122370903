//! The paper's reports against their definitions, to the bit, on records a
//! run never produces but an edited artifact can: tied completion times,
//! completions before `exec_start` and after `exec_end`, runs out of time
//! order, interleaved and unnamed phases.
//!
//! Each report reads a record in one pass of its own. The references here
//! are the plain definitions those passes must reproduce:
//! - Fig. 1b: [`area_between`] of the completion curve and the ideal line,
//!   and a [`Cursor`] walk for the plotted samples;
//! - Fig. 1a: each phase's completion times collected, then cut into
//!   windows;
//! - Fig. 1c: one interval look-up per op, and the adjustment speed over
//!   every op after the change.

use lsbench::core::faults::FaultStats;
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::sla::{Band, ColorBand, SlaReport};
use lsbench::core::record::{OpRecord, RunRecord, TrainInfo};
use lsbench::stats::timeseries::{area_between, Cursor};
use lsbench::sut::sut::SutMetrics;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A record of `n` ops drawn from `seed`: three named phases and one
/// unnamed, in runs or interleaved; gaps of zero (ties), dyadic and
/// arbitrary; latencies from a small set (ties at any threshold); some
/// failures; with `disorder`, a few stretches reversed; the execution window
/// cut inside the completions, around them or flush with them.
fn drawn_record(seed: u64, n: usize, disorder: bool) -> RunRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let interleaved = rng.gen_bool(0.3);
    let mut phase = 0u16;
    let mut t = rng.gen_range(-1.0..1.0);
    let mut ops: Vec<OpRecord> = (0..n)
        .map(|_| {
            t += match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(1..8) as f64 / 64.0,
                _ => rng.gen_range(0.0..0.01),
            };
            if interleaved || rng.gen_bool(0.01) {
                phase = rng.gen_range(0..4);
            }
            OpRecord {
                t_end: t,
                latency: rng.gen_range(1..9) as f64 / 1024.0,
                phase,
                ok: !rng.gen_bool(0.05),
                in_transition: false,
            }
        })
        .collect();
    if disorder {
        for _ in 0..rng.gen_range(1..4) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a..=n);
            ops[a..b].reverse();
        }
    }
    let times: Vec<f64> = ops.iter().map(|o| o.t_end).collect();
    let (lo, hi) = times
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &t| {
            (l.min(t), h.max(t))
        });
    let pick = |rng: &mut StdRng| times[rng.gen_range(0..n)];
    let start = match rng.gen_range(0..3) {
        0 => lo,
        1 => lo - 0.5,
        _ => pick(&mut rng),
    };
    let end = match rng.gen_range(0..3) {
        0 => hi,
        1 => hi + 0.25,
        _ => pick(&mut rng),
    };
    let end = if end > start { end } else { start + 0.125 };
    let phase_change_times = (0..4)
        .filter_map(|p| {
            ops.iter()
                .find(|o| o.phase == p)
                .map(|o| (p as usize, o.t_end))
        })
        .collect();
    RunRecord {
        sut_name: "drawn".to_string(),
        scenario_name: "analysis-properties".to_string(),
        phase_names: vec!["a".to_string(), "b".to_string(), "c".to_string()],
        ops,
        phase_change_times,
        train: TrainInfo::default(),
        exec_start: start,
        exec_end: end,
        final_metrics: SutMetrics::default(),
        work_units_per_second: 1.0,
        faults: FaultStats::default(),
    }
}

fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// The throughput samples of phase `p` as the per-phase filter computed
/// them: its completion times collected, then cut into windows.
fn samples_by_filter(record: &RunRecord, p: usize, ops_per_window: usize) -> Vec<f64> {
    let times: Vec<f64> = record
        .ops
        .iter()
        .filter(|o| o.phase as usize == p)
        .map(|o| o.t_end)
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + ops_per_window <= times.len() {
        let span = times[i + ops_per_window - 1] - times[i];
        if span > 0.0 {
            out.push((ops_per_window - 1) as f64 / span);
        }
        i += ops_per_window;
    }
    out
}

/// The SLA bands and adjustment speeds op by op: an interval look-up per
/// op, and every op after a change scanned from the first.
fn sla_by_op(record: &RunRecord, threshold: f64, interval: f64, adjustment_n: usize) -> SlaReport {
    let start = record.exec_start;
    let end = record.exec_end.max(start + interval);
    let n_intervals = (((end - start) / interval).ceil() as usize).max(1);
    let mut bands = vec![
        Band {
            within: 0,
            violated: 0
        };
        n_intervals
    ];
    let mut colors = vec![ColorBand::default(); n_intervals];
    let mut violated = 0;
    for op in &record.ops {
        let idx = (((op.t_end - start) / interval) as usize).min(n_intervals - 1);
        if op.ok && op.latency <= threshold {
            bands[idx].within += 1;
        } else {
            bands[idx].violated += 1;
            violated += 1;
        }
        let c = &mut colors[idx];
        if !op.ok {
            c.red += 1;
        } else if op.latency <= 0.5 * threshold {
            c.green += 1;
        } else if op.latency <= threshold {
            c.yellow += 1;
        } else if op.latency <= 2.0 * threshold {
            c.orange += 1;
        } else {
            c.red += 1;
        }
    }
    let speeds = record
        .phase_change_times
        .iter()
        .filter(|&&(phase, _)| phase != 0)
        .map(|&(phase, t)| {
            let over: f64 = record
                .ops
                .iter()
                .filter(|o| o.t_end > t)
                .take(adjustment_n)
                .map(|o| (o.latency - threshold).max(0.0))
                .sum();
            (phase, over)
        })
        .collect();
    SlaReport {
        sut_name: record.sut_name.clone(),
        threshold,
        interval,
        bands,
        color_bands: colors,
        violation_fraction: violated as f64 / record.ops.len() as f64,
        adjustment_speed: speeds,
        adjustment_n,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The closed-form area and the binary-searched samples are what the
    /// generic two-cursor area and a cursor walk give, to the bit.
    #[test]
    fn adaptability_matches_the_generic_area_and_cursor(
        seed in any::<u64>(),
        n in 1usize..2000,
        disorder in any::<bool>(),
    ) {
        let record = drawn_record(seed, n, disorder);
        let report = AdaptabilityReport::from_record(&record).expect("a valid record");
        let (start, end) = (record.exec_start, record.exec_end);
        let completed = record.cumulative_curve().expect("no NaN");
        let ideal = [(start, 0.0), (end, n as f64)];
        let area = area_between(&completed, &ideal[..]).expect("curves");
        prop_assert_eq!(report.area_vs_ideal.to_bits(), area.to_bits());
        let duration = record.exec_duration().max(f64::MIN_POSITIVE);
        let mut at = Cursor::new(&completed).expect("a curve");
        let curve: Vec<(f64, f64)> = (0..=256)
            .map(|i| {
                let t = start + duration * i as f64 / 256.0;
                (t, at.value_at(t))
            })
            .collect();
        prop_assert_eq!(bits(&report.curve), bits(&curve));
    }

    /// One pass fills every phase's windows exactly as collecting each
    /// phase's times and cutting them did.
    #[test]
    fn window_samples_match_the_per_phase_filter(
        seed in any::<u64>(),
        n in 1usize..2000,
        disorder in any::<bool>(),
    ) {
        let record = drawn_record(seed, n, disorder);
        for window in [1, 2, 3, 7, 50] {
            for p in 0..6 {
                let one_pass: Vec<u64> = record
                    .phase_throughput_samples(p, window)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                let filtered: Vec<u64> = samples_by_filter(&record, p, window)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                prop_assert_eq!(one_pass, filtered, "phase {} window {}", p, window);
            }
        }
    }

    /// Bands counted a run of same-interval ops at a time, and adjustment
    /// speeds read from a binary search, are the op-by-op figures.
    #[test]
    fn sla_report_matches_the_op_by_op_bands(
        seed in any::<u64>(),
        n in 1usize..2000,
        disorder in any::<bool>(),
        intervals in 1usize..50,
        adjustment_n in 1usize..300,
    ) {
        let record = drawn_record(seed, n, disorder);
        let interval = (record.exec_duration() / intervals as f64).max(f64::MIN_POSITIVE);
        // Drawn latencies are multiples of 1/1024: thresholds at one of
        // them put ops on the within, green and orange edges.
        for threshold in [record.ops[0].latency, 3.0 / 1024.0, 4.0 / 1024.0] {
            let report = SlaReport::from_record(&record, threshold, interval, adjustment_n)
                .expect("a valid record");
            let by_op = sla_by_op(&record, threshold, interval, adjustment_n);
            prop_assert_eq!(&report.bands, &by_op.bands);
            prop_assert_eq!(&report.color_bands, &by_op.color_bands);
            prop_assert_eq!(
                report.violation_fraction.to_bits(),
                by_op.violation_fraction.to_bits()
            );
            let speed_bits = |s: &[(usize, f64)]| -> Vec<(usize, u64)> {
                s.iter().map(|&(p, x)| (p, x.to_bits())).collect()
            };
            prop_assert_eq!(
                speed_bits(&report.adjustment_speed),
                speed_bits(&by_op.adjustment_speed)
            );
        }
    }
}
