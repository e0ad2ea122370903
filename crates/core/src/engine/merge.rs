//! Deterministic folding of per-lane results into one [`RunRecord`].
//!
//! The merged record has the exact shape the serial policy produces, so
//! every downstream metric family — adaptability curves, SLA bands,
//! specialization box plots — works on concurrent runs unchanged. The
//! output is identical for any worker count and any lane-arrival order:
//!
//! * **Lanes** — one lane is one op stream, and it records its ops in
//!   stream order. Their sinks, laid end to end in lane order, take one
//!   stable sort on completion time; ties keep (lane, global index) order.
//! * **Scheduler workers** — a worker's sink interleaves its clients and
//!   is not in completion order, and a worker index changes with the
//!   thread count, so the records sort on (completion, global index).
//! * Phase first-seen times fold by min, fault ledgers add.

use super::worker::LaneResult;
use crate::exec::{epilogue, Merged, Started};
use crate::faults::FaultStats;
use crate::obs::{LaneObs, RunObserver};
use crate::record::OpRecord;
use crate::runner::Executed;
use lsbench_sut::sut::SutMetrics;
use std::collections::BTreeMap;

/// Sums SUT metric counters across shards.
pub(crate) fn sum_metrics<I: IntoIterator<Item = SutMetrics>>(metrics: I) -> SutMetrics {
    metrics
        .into_iter()
        .fold(SutMetrics::default(), |mut acc, m| {
            acc.size_bytes += m.size_bytes;
            acc.training_work += m.training_work;
            acc.execution_work += m.execution_work;
            acc.model_count += m.model_count;
            acc.adaptations += m.adaptations;
            acc.label_collection_work += m.label_collection_work;
            acc
        })
}

/// How the merged drivers were laid out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineShape {
    /// Logical lanes (the client count for the scheduler).
    pub lanes: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Whether `LaneResult::lane` is a stable identity (one lane = one op
    /// stream, recorded in stream order), so that completion ties keep
    /// lane order. Scheduler results are per *worker* — an index that
    /// changes with the thread count — so their ties break on the global
    /// index alone (globally unique, hence still a total order).
    pub stable_lanes: bool,
}

/// The engine's epilogue: hands each driver's observability state to the
/// run observer, folds the results, closes the run.
pub(crate) fn finish_engine(
    started: Started,
    mut results: Vec<LaneResult>,
    final_metrics: SutMetrics,
    shape: EngineShape,
    obs: &mut RunObserver,
) -> Executed {
    let lane_obs = results
        .iter_mut()
        .map(|l| std::mem::replace(&mut l.sinks.obs, LaneObs::inert()))
        .collect();
    obs.absorb(lane_obs);
    let exec_start = started.plan.params.exec_start;
    // Deterministic fold order regardless of which worker finished first.
    results.sort_by_key(|l| l.lane);

    let ops = if shape.stable_lanes {
        lane_order(&mut results)
    } else {
        worker_order(&results)
    };
    let mut faults = FaultStats::default();
    // A phase becomes active when the first lane reaches it.
    let mut first_seen: BTreeMap<usize, f64> = BTreeMap::new();
    first_seen.insert(0, exec_start);
    let mut exec_end = exec_start;
    for result in &results {
        faults.merge(&result.sinks.faults);
        for &(phase, t) in &result.sinks.phase_first {
            first_seen
                .entry(phase)
                .and_modify(|cur| *cur = cur.min(t))
                .or_insert(t);
        }
        exec_end = exec_end.max(result.final_clock);
    }
    let mut phase_change_times: Vec<(usize, f64)> = first_seen.into_iter().collect();
    phase_change_times.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    let merged = Merged {
        ops,
        phase_change_times,
        exec_end,
        faults,
    };
    let engine = Some((shape.lanes, shape.threads));
    let record = epilogue(started, merged, final_metrics, engine, obs);
    (record, engine, None)
}

/// The records of lanes `results` (in lane order) by completion time, ties
/// in (lane, global index) order: lane 0's sink, reserved for the run's
/// ops, takes the others' records in lane order, then one stable sort on
/// `t_end`. A lane records its ops in stream order, so a tie within a lane
/// is already in index order.
fn lane_order(results: &mut [LaneResult]) -> Vec<OpRecord> {
    let Some((first, rest)) = results.split_first_mut() else {
        return Vec::new();
    };
    let mut ops = std::mem::take(&mut first.sinks.ops);
    for result in rest {
        ops.extend_from_slice(&result.sinks.ops);
    }
    ops.sort_by(|a, b| a.t_end.total_cmp(&b.t_end));
    ops
}

/// The records of scheduler workers `results` by completion time, ties in
/// global index order.
fn worker_order(results: &[LaneResult]) -> Vec<OpRecord> {
    let total = results.iter().map(|l| l.sinks.ops.len()).sum();
    let mut tagged: Vec<(u64, OpRecord)> = Vec::with_capacity(total);
    for result in results {
        let idx = result.sinks.idx.iter().flatten();
        tagged.extend(idx.zip(&result.sinks.ops).map(|(&i, &rec)| (i, rec)));
    }
    tagged.sort_by(|a, b| a.1.t_end.total_cmp(&b.1.t_end).then(a.0.cmp(&b.0)));
    tagged.into_iter().map(|(_, rec)| rec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreOp, Sinks};
    use crate::scenario::ClockMode;
    use proptest::prelude::*;

    /// Lane results as the lanes write them — each lane's records in its
    /// stream order, `t_end` non-decreasing — and beside them every record
    /// tagged `(lane, global index)`. `lanes[l]` holds lane `l`'s draws:
    /// a step on a coarse `t_end` grid (0 repeats the previous completion)
    /// and a key; global indices go to the records in `(key, lane,
    /// position)` order, so they ascend within a lane and interleave
    /// across lanes.
    fn lane_results(lanes: &[Vec<(u8, u16)>]) -> (Vec<LaneResult>, Vec<(usize, u64, OpRecord)>) {
        let mut slots: Vec<(u16, usize, usize)> = Vec::new();
        for (lane, draws) in lanes.iter().enumerate() {
            let mut keys: Vec<u16> = draws.iter().map(|&(_, key)| key).collect();
            keys.sort_unstable();
            slots.extend(
                keys.into_iter()
                    .enumerate()
                    .map(|(pos, key)| (key, lane, pos)),
            );
        }
        slots.sort_unstable();
        let mut idx: Vec<Vec<u64>> = lanes.iter().map(|draws| vec![0; draws.len()]).collect();
        for (i, &(_, lane, pos)) in slots.iter().enumerate() {
            idx[lane][pos] = i as u64;
        }
        let mut tagged = Vec::new();
        let results = lanes
            .iter()
            .enumerate()
            .map(|(lane, draws)| {
                let mut sinks = Sinks::new(LaneObs::inert(), ClockMode::Sim, draws.len(), false);
                let mut t_end = 0.0;
                for (&(step, _), &i) in draws.iter().zip(&idx[lane]) {
                    t_end += f64::from(step) * 0.25;
                    let meta = CoreOp::new((), 0, i as usize, None).meta;
                    sinks.complete(t_end, i as f64 * 1e-6, true, &meta);
                    tagged.push((lane, i, *sinks.ops.last().unwrap()));
                }
                LaneResult {
                    lane,
                    sinks,
                    final_clock: t_end,
                }
            })
            .collect();
        (results, tagged)
    }

    /// The reference lane order: every record sorted on (`t_end`, lane,
    /// global index).
    fn tagged_order(mut tagged: Vec<(usize, u64, OpRecord)>) -> Vec<OpRecord> {
        tagged.sort_by(|a, b| {
            a.2.t_end
                .total_cmp(&b.2.t_end)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        tagged.into_iter().map(|(_, _, rec)| rec).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lane_merge_matches_the_tagged_sort_slot_for_slot(
            lanes in prop::collection::vec(
                prop::collection::vec((0u8..3, any::<u16>()), 0..=400),
                1..=8,
            ),
        ) {
            let (mut results, tagged) = lane_results(&lanes);
            let want = tagged_order(tagged);
            let got = lane_order(&mut results);
            prop_assert_eq!(got.len(), want.len());
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.t_end.to_bits(), w.t_end.to_bits(), "t_end of slot {}", slot);
                prop_assert_eq!(g.latency.to_bits(), w.latency.to_bits(), "latency of slot {}", slot);
            }
        }
    }

    #[test]
    fn metrics_sum_fieldwise() {
        let a = SutMetrics {
            size_bytes: 10,
            training_work: 1,
            execution_work: 100,
            model_count: 2,
            adaptations: 3,
            label_collection_work: 4,
        };
        let b = SutMetrics {
            size_bytes: 20,
            training_work: 2,
            execution_work: 200,
            model_count: 1,
            adaptations: 5,
            label_collection_work: 6,
        };
        let s = sum_metrics([a, b]);
        assert_eq!(s.size_bytes, 30);
        assert_eq!(s.training_work, 3);
        assert_eq!(s.execution_work, 300);
        assert_eq!(s.model_count, 3);
        assert_eq!(s.adaptations, 8);
        assert_eq!(s.label_collection_work, 10);
    }
}
