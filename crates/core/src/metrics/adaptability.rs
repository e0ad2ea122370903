//! Adaptability metrics (Fig. 1b).
//!
//! "We suggest reporting throughput variations by plotting the cumulative
//! queries completed over time. … We can derive a single-value result from
//! this plot by computing the area difference between an ideal system with
//! a constant throughput. … When comparing two systems, the area difference
//! between the two systems provides a single-value result."
//!
//! On top of the curve and areas, this module derives a *recovery time* per
//! phase change: how long after a distribution switch the system needs to
//! regain its steady-state throughput (§IV: "capture the time a system
//! takes to adapt to a new workload").

use crate::record::{OpRecord, RunRecord};
use crate::{BenchError, Result};
use lsbench_stats::timeseries::{area_between, check_points, interpolate};
use lsbench_stats::StatsError;
use serde::{Deserialize, Serialize};

/// The full Fig. 1b report for one SUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptabilityReport {
    /// SUT name.
    pub sut_name: String,
    /// `(time, cumulative completions)` sampled curve for plotting.
    pub curve: Vec<(f64, f64)>,
    /// Signed area between the actual curve and the ideal constant-
    /// throughput system (negative = lags the ideal, as in a slow start).
    pub area_vs_ideal: f64,
    /// Same, normalized by `total_ops × duration` into `[-1, 1]`-ish scale
    /// so different runs are comparable.
    pub normalized_area: f64,
    /// Per phase change: `(phase, recovery_seconds)` — time until windowed
    /// throughput first reaches the phase's own steady-state level.
    pub recovery_times: Vec<(usize, f64)>,
    /// Mean throughput per phase (ops/sec), for reference.
    pub phase_throughput: Vec<f64>,
}

/// Number of points the plotted curve is downsampled to.
const CURVE_POINTS: usize = 256;

/// Window (in ops) for recovery-time throughput measurement.
const RECOVERY_WINDOW: usize = 50;

/// Fraction of steady-state throughput that counts as "recovered".
const RECOVERY_LEVEL: f64 = 0.8;

fn metric(e: StatsError) -> BenchError {
    BenchError::Metric(e.to_string())
}

impl AdaptabilityReport {
    /// Builds the report from a run record.
    ///
    /// One walk over `record.ops` where they lie checks that they are in
    /// time order, builds the table of phase spans (one entry per phase)
    /// and sums the area against the ideal system, the line
    /// `(exec_start, 0) → (exec_end, ops)`, in closed form. Only a record
    /// edited out of time order is sorted into a copy, which the same walk
    /// then measures. The 257 plotted samples are binary searches of the
    /// completions, and a phase's steady state and recovery window read its
    /// ops where they lie. Nothing allocated here grows with the record.
    pub fn from_record(record: &RunRecord) -> Result<Self> {
        if record.ops.is_empty() {
            return Err(BenchError::Metric("empty run record".to_string()));
        }
        let (start, end) = (record.exec_start, record.exec_end);
        if end <= start {
            return Err(metric(StatsError::InvalidParameter(
                "end must exceed start",
            )));
        }
        let mut spans = Spans::new(record.phase_names.len());
        let walked = area_vs_ideal(&record.ops, start, end, |i| spans.add(&record.ops, i));
        let spans = spans.finish(&record.ops);
        let by_time;
        let (ops, area) = match walked {
            Some(area) => (&record.ops[..], area),
            None => {
                by_time = record.ops_by_time()?;
                let area = area_vs_ideal(&by_time, start, end, |_| {});
                (&by_time[..], area.expect("in time order"))
            }
        };
        if start.is_nan() || end.is_nan() {
            return Err(metric(StatsError::NanInput));
        }
        let duration = record.exec_duration().max(f64::MIN_POSITIVE);
        let normalized = area / (record.ops.len() as f64 * duration);

        // Downsample the curve for plotting.
        let curve = (0..=CURVE_POINTS)
            .map(|i| {
                let t = start + duration * i as f64 / CURVE_POINTS as f64;
                (t, completed_at(ops, start, t))
            })
            .collect();

        // A phase no op names has an empty span.
        let span_of = |phase: usize| spans.get(phase).copied().unwrap_or_default();
        let phase_throughput = (0..record.phase_names.len())
            .map(|p| span_of(p).throughput())
            .collect();

        // Recovery times per phase change (skip the initial phase 0 entry).
        let mut recovery_times = Vec::new();
        for &(phase, start_t) in &record.phase_change_times {
            if phase == 0 {
                continue;
            }
            let span = span_of(phase);
            let steady = span.steady_throughput(record, phase);
            if steady <= 0.0 {
                continue;
            }
            let recovered = match span.slice(record) {
                Some(ops) => span.recovered_at(ops.iter().map(|o| o.t_end), steady),
                None => span.recovered_at(span.times(record, phase), steady),
            };
            let recovery = match recovered {
                Some(t) => (t - start_t).max(0.0),
                // Never recovered within the phase.
                None => record.exec_end - start_t,
            };
            recovery_times.push((phase, recovery));
        }

        Ok(AdaptabilityReport {
            sut_name: record.sut_name.clone(),
            curve,
            area_vs_ideal: area,
            normalized_area: normalized,
            recovery_times,
            phase_throughput,
        })
    }

    /// The paper's two-system comparison: signed area between this report's
    /// curve and another's over the overlapping span (positive = `self`
    /// completed more work earlier).
    pub fn area_vs(&self, other: &AdaptabilityReport) -> Result<f64> {
        check_points(&self.curve).map_err(metric)?;
        check_points(&other.curve).map_err(metric)?;
        area_between(&self.curve[..], &other.curve[..]).map_err(metric)
    }
}

/// The paired Fig. 1b metric straight from two run records: signed area
/// between the candidate's and the baseline's *full-resolution* cumulative
/// curves over their overlapping span (positive = candidate completed more
/// work earlier).
///
/// Unlike [`AdaptabilityReport::area_vs`], which compares the downsampled
/// plotting curves, this works on every completion timestamp, so the value
/// is a pure function of the two records — a record saved to the results
/// store ([`crate::results`]) and reloaded reproduces it bit-identically.
/// Exactly antisymmetric: swapping the arguments negates the result. One
/// merge of the two records' completions where they lie, in time order.
pub fn paired_area_difference(baseline: &RunRecord, candidate: &RunRecord) -> Result<f64> {
    if baseline.ops.is_empty() || candidate.ops.is_empty() {
        return Err(BenchError::Metric("empty run record".to_string()));
    }
    let b = baseline.cumulative_curve()?;
    let c = candidate.cumulative_curve()?;
    area_between(&c, &b).map_err(metric)
}

/// Signed area between the completion curve of `ops` (see
/// [`RunRecord::cumulative_curve`]) and the ideal line from `(start, 0)` to
/// `(end, n)`, in one walk that also hands every op's index to `each`;
/// `None` if `ops` are not in time order (NaN is not).
///
/// It is what [`area_between`] sums for these two curves, to the bit. The
/// breakpoints inside the shared span `(start, hi)` are the distinct
/// completion times there, where the curve's value is the count of
/// completions so far and the line's is [`interpolate`]d; the last
/// trapezoid ends at `hi`, where both are evaluated as `area_between`
/// evaluates them: the line yields `n` at or past `end`.
fn area_vs_ideal(
    ops: &[OpRecord],
    start: f64,
    end: f64,
    mut each: impl FnMut(usize),
) -> Option<f64> {
    let n = ops.len() as f64;
    let ideal = |t: f64| {
        if t >= end {
            n
        } else {
            interpolate((start, 0.0), (end, n), t)
        }
    };
    let hi = ops[ops.len() - 1].t_end.max(start).min(end);
    let (mut area, mut prev_t, mut prev_d) = (0.0, start, 0.0);
    let mut in_order = true;
    let mut prev_end = f64::NEG_INFINITY;
    // The latest distinct completion time: its count is known once an op
    // completes later. Past `hi`, infinite.
    let mut u = start;
    for (i, op) in ops.iter().enumerate() {
        each(i);
        in_order &= op.t_end >= prev_end;
        prev_end = op.t_end;
        let t = op.t_end.max(start);
        if t > u {
            if u > start {
                let d = i as f64 - ideal(u);
                area += (u - prev_t) * (prev_d + d) / 2.0;
                (prev_t, prev_d) = (u, d);
            }
            u = if t < hi { t } else { f64::INFINITY };
        }
    }
    if !in_order {
        return None;
    }
    if hi <= start {
        return Some(0.0);
    }
    let d = completed_at(ops, start, hi) - ideal(hi);
    Some(area + (hi - prev_t) * (prev_d + d) / 2.0)
}

/// The completion curve of time-ordered `ops` at `t`, as
/// [`lsbench_stats::timeseries::TimeSeries::value_at`] reads it: one
/// binary search, `partition_point(pt <= t)`.
fn completed_at(ops: &[OpRecord], start: f64, t: f64) -> f64 {
    let last = ops[ops.len() - 1].t_end.max(start);
    if t <= start {
        return 0.0;
    }
    if t >= last {
        return ops.len() as f64;
    }
    if t.is_nan() {
        return t;
    }
    // Above `start`, a completion clamped to it is at or before `t` too.
    let k = ops.partition_point(|o| o.t_end <= t);
    let behind = match k.checked_sub(1) {
        None => (start, 0.0),
        Some(op) => (ops[op].t_end.max(start), k as f64),
    };
    interpolate(behind, (ops[k].t_end.max(start), (k + 1) as f64), t)
}

/// Where one phase's completions sit in `record.ops` (in recorded order,
/// which is what "first" and "last" mean here).
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSpan {
    count: usize,
    /// Indexes of the phase's first and last op in `record.ops`.
    first_op: usize,
    last_op: usize,
    first_t: f64,
    last_t: f64,
}

/// The table of phase spans, built a run of same-phase ops at a time.
struct Spans {
    spans: Vec<PhaseSpan>,
    /// The phase of the run being read, and the index of its first op.
    phase: u16,
    run: usize,
}

impl Spans {
    fn new(phases: usize) -> Self {
        Spans {
            spans: vec![PhaseSpan::default(); phases],
            phase: 0,
            run: 0,
        }
    }

    /// Reads op `i` of `ops`: a change of phase ends the run before it.
    #[inline]
    fn add(&mut self, ops: &[OpRecord], i: usize) {
        if ops[i].phase != self.phase {
            self.end_run(ops, i);
            (self.phase, self.run) = (ops[i].phase, i);
        }
    }

    /// Adds the run that ends before op `end` to its phase's span.
    fn end_run(&mut self, ops: &[OpRecord], end: usize) {
        if end == self.run {
            return;
        }
        let phase = self.phase as usize;
        if phase >= self.spans.len() {
            self.spans.resize(phase + 1, PhaseSpan::default());
        }
        let span = &mut self.spans[phase];
        if span.count == 0 {
            span.first_op = self.run;
            span.first_t = ops[self.run].t_end;
        }
        span.count += end - self.run;
        span.last_op = end - 1;
        span.last_t = ops[end - 1].t_end;
    }

    /// The span of every phase an op names, by phase.
    fn finish(mut self, ops: &[OpRecord]) -> Vec<PhaseSpan> {
        self.end_run(ops, ops.len());
        self.spans
    }
}

impl PhaseSpan {
    /// Mean throughput from the phase's first completion to its last.
    fn throughput(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let span = self.last_t - self.first_t;
        if span > 0.0 {
            (self.count - 1) as f64 / span
        } else {
            0.0
        }
    }

    /// The phase's ops, if no other phase's op lies between them.
    fn slice<'a>(&self, record: &'a RunRecord) -> Option<&'a [OpRecord]> {
        let ops = record.ops.get(self.first_op..=self.last_op)?;
        (ops.len() == self.count).then_some(ops)
    }

    /// The completion times of `phase`, whose span this is, in recorded order.
    fn times<'a>(&self, record: &'a RunRecord, phase: usize) -> impl Iterator<Item = f64> + 'a {
        record.ops[self.first_op..]
            .iter()
            .filter(move |o| o.phase as usize == phase)
            .map(|o| o.t_end)
            .take(self.count)
    }

    /// Steady-state throughput of the phase: measured over the second half
    /// of its completions (the first half may include the adaptation
    /// transient).
    fn steady_throughput(&self, record: &RunRecord, phase: usize) -> f64 {
        if self.count < 4 {
            return 0.0;
        }
        let half = self.count / 2;
        let middle = match self.slice(record) {
            Some(ops) => ops[half].t_end,
            None => self.times(record, phase).nth(half).expect("half < count"),
        };
        let span = self.last_t - middle;
        if span > 0.0 {
            (self.count - half - 1) as f64 / span
        } else {
            0.0
        }
    }

    /// The first of the phase's `times` at which throughput over the last
    /// `RECOVERY_WINDOW` completions reaches `RECOVERY_LEVEL × steady`.
    fn recovered_at(&self, times: impl Iterator<Item = f64>, steady: f64) -> Option<f64> {
        let window = RECOVERY_WINDOW.min(self.count.saturating_sub(1)).max(1);
        // `ring[slot]` holds the time of completion `i - window` until
        // completion `i` overwrites it.
        let mut ring = [0.0; RECOVERY_WINDOW];
        let mut slot = 0;
        for (i, t) in times.enumerate() {
            let behind = std::mem::replace(&mut ring[slot], t);
            slot += 1;
            if slot == window {
                slot = 0;
            }
            if i < window {
                continue;
            }
            let span = t - behind;
            if span > 0.0 && window as f64 / span >= RECOVERY_LEVEL * steady {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpRecord, RunRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    /// Record with a slow stretch (per-op seconds `slow`) for `n_slow` ops,
    /// then fast (`fast`) for `n_fast`.
    fn two_speed_record(slow: f64, n_slow: usize, fast: f64, n_fast: usize) -> RunRecord {
        let mut ops = Vec::new();
        let mut t = 0.0;
        for _ in 0..n_slow {
            t += slow;
            ops.push(OpRecord {
                t_end: t,
                latency: slow,
                phase: 1,
                ok: true,
                in_transition: false,
            });
        }
        for _ in 0..n_fast {
            t += fast;
            ops.push(OpRecord {
                t_end: t,
                latency: fast,
                phase: 1,
                ok: true,
                in_transition: false,
            });
        }
        RunRecord {
            sut_name: "two-speed".to_string(),
            scenario_name: "adapt".to_string(),
            phase_names: vec!["p0".to_string(), "p1".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0), (1, 0.0)],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: t,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: crate::faults::FaultStats::default(),
        }
    }

    #[test]
    fn slow_start_negative_area() {
        // Slow first half, fast second half — the Fig. 1b learned-system
        // shape: "starts slow and later catches up".
        let r = two_speed_record(1.0, 100, 0.1, 900);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert!(
            report.area_vs_ideal < 0.0,
            "area = {}",
            report.area_vs_ideal
        );
        assert!(report.normalized_area < 0.0);
        assert!(report.normalized_area > -1.0);
    }

    #[test]
    fn constant_speed_near_zero_area() {
        let r = two_speed_record(0.5, 500, 0.5, 500);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert!(
            report.normalized_area.abs() < 0.01,
            "normalized = {}",
            report.normalized_area
        );
    }

    #[test]
    fn area_vs_other_system() {
        let fast = AdaptabilityReport::from_record(&two_speed_record(0.1, 500, 0.1, 500)).unwrap();
        let slow = AdaptabilityReport::from_record(&two_speed_record(0.5, 500, 0.5, 500)).unwrap();
        // The faster system accumulates completions earlier.
        assert!(fast.area_vs(&slow).unwrap() > 0.0);
        assert!(slow.area_vs(&fast).unwrap() < 0.0);
        assert!(fast.area_vs(&fast).unwrap().abs() < 1e-6);
    }

    #[test]
    fn paired_area_matches_sign_and_antisymmetry() {
        let fast = two_speed_record(0.1, 500, 0.1, 500);
        let slow = two_speed_record(0.5, 500, 0.5, 500);
        // Candidate faster than baseline: positive.
        let ahead = paired_area_difference(&slow, &fast).unwrap();
        assert!(ahead > 0.0, "ahead = {ahead}");
        // Exact antisymmetry and exact zero at identity.
        assert_eq!(paired_area_difference(&fast, &slow).unwrap(), -ahead);
        assert_eq!(paired_area_difference(&fast, &fast).unwrap(), 0.0);
        // Empty records are rejected, not silently zeroed.
        let mut empty = two_speed_record(0.1, 5, 0.1, 5);
        empty.ops.clear();
        assert!(paired_area_difference(&empty, &fast).is_err());
    }

    #[test]
    fn recovery_time_detects_transient() {
        // Phase 1 starts slow (adaptation transient) then reaches steady
        // state: recovery time should be near the transient length.
        let r = two_speed_record(1.0, 100, 0.1, 900);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        let (_, recovery) = report.recovery_times[0];
        // Transient lasts 100 s; recovery detection should fall near it.
        assert!((90.0..=120.0).contains(&recovery), "recovery = {recovery}");
    }

    #[test]
    fn instant_steady_state_recovers_fast() {
        let r = two_speed_record(0.2, 500, 0.2, 500);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        let (_, recovery) = report.recovery_times[0];
        assert!(recovery < 15.0, "recovery = {recovery}");
    }

    /// "Recovered" is windowed throughput *reaching* `RECOVERY_LEVEL ×
    /// steady`: a window exactly at that level counts. Every time here is
    /// dyadic, so the window that lands on the level does so exactly.
    #[test]
    fn a_window_exactly_at_the_recovery_level_has_recovered() {
        // Phase 1 starts at 2 s: 50 ops 1/32 s apart, 52 ops 1/128 s apart,
        // then 28 ops 1/64 s and 72 ops 1/128 s apart, so that its second
        // half (ops 101 to 201) spans exactly 1 s over 100 completions.
        let steps = [(50, 32.0), (52, 128.0), (28, 64.0), (72, 128.0)];
        let mut ops: Vec<OpRecord> = (1..=8)
            .map(|i| OpRecord {
                t_end: 0.25 * i as f64,
                latency: 0.25,
                phase: 0,
                ok: true,
                in_transition: false,
            })
            .collect();
        let mut t = 2.0;
        for (n, per_second) in steps {
            for _ in 0..n {
                t += 1.0 / per_second;
                ops.push(OpRecord {
                    t_end: t,
                    latency: 1.0 / per_second,
                    phase: 1,
                    ok: true,
                    in_transition: false,
                });
            }
        }
        let mut r = two_speed_record(1.0, 0, 1.0, 0);
        r.exec_end = t;
        r.ops = ops;
        r.phase_change_times = vec![(0, 0.0), (1, 2.0)];
        // Steady state 100 ops/s, so the level is 80 ops/s, exactly.
        assert_eq!(RECOVERY_LEVEL * 100.0, 80.0);
        // The window ending at phase-1 op 89 holds 10 slow and 40 fast
        // gaps: 50 completions over 10/32 + 40/128 = 0.625 s, 80 ops/s.
        // The one before it is slower (83/128 s) and the one after faster.
        let at_level = 50.0 / 32.0 + 40.0 / 128.0;
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert_eq!(report.recovery_times, vec![(1, at_level)]);
    }

    /// The ideal line yields `n` at or past `end`, not `n · (end − start) /
    /// (end − start)`, which is an ulp off for some spans: 3 · 0.1 / 0.1 is
    /// not 3. Three ops that all complete at `exec_end` make one trapezoid
    /// as wide as the run, which ends on the line, so the area is 0 exactly
    /// and that ulp, had it been taken, would show.
    #[test]
    fn the_ideal_line_is_n_at_the_end() {
        let mut r = two_speed_record(1.0, 0, 1.0, 0);
        r.exec_end = 0.1;
        r.ops = vec![
            OpRecord {
                t_end: 0.1,
                latency: 0.1,
                phase: 1,
                ok: true,
                in_transition: false,
            };
            3
        ];
        assert_ne!(3.0 * r.exec_end / r.exec_end, 3.0);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        assert_eq!(report.area_vs_ideal, 0.0);
    }

    #[test]
    fn curve_monotone_and_complete() {
        let r = two_speed_record(0.3, 200, 0.1, 200);
        let report = AdaptabilityReport::from_record(&r).unwrap();
        for w in report.curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "curve not monotone");
        }
        assert!((report.curve.last().unwrap().1 - 400.0).abs() < 1.0);
    }

    #[test]
    fn empty_record_rejected() {
        let mut r = two_speed_record(0.1, 10, 0.1, 10);
        r.ops.clear();
        assert!(AdaptabilityReport::from_record(&r).is_err());
    }
}
