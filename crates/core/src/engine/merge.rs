//! Deterministic folding of per-lane results into one [`RunRecord`].
//!
//! The merged record has the exact shape the serial policy produces, so
//! every downstream metric family — adaptability curves, SLA bands,
//! specialization box plots — works on concurrent runs unchanged. All
//! merge rules are commutative/associative (sorts with total orders, min
//! per phase, sums), so the output is identical for any worker count and
//! any lane-arrival order.

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
    /// stream) and so may break completion ties before the global index.
    /// Scheduler results are per *worker* — an index that changes with the
    /// thread count — so their ties break on the global index alone
    /// (globally unique, hence still a total order).
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
    if obs.is_active() {
        let lane_obs = results
            .iter_mut()
            .map(|l| std::mem::replace(&mut l.sinks.obs, LaneObs::inert()))
            .collect();
        obs.absorb(lane_obs);
    }
    let exec_start = started.plan.params.exec_start;
    // Deterministic fold order regardless of which worker finished first.
    results.sort_by_key(|l| l.lane);

    // Completion order across lanes: by virtual completion time, with
    // (lane, global index) as a total-order tiebreaker for simultaneous
    // completions.
    let total = results.iter().map(|l| l.sinks.ops.len()).sum();
    let mut tagged: Vec<(usize, u64, OpRecord)> = Vec::with_capacity(total);
    let mut faults = FaultStats::default();
    // A phase becomes active when the first lane reaches it.
    let mut first_seen: BTreeMap<usize, f64> = BTreeMap::new();
    first_seen.insert(0, exec_start);
    let mut exec_end = exec_start;
    for result in &results {
        let lane = if shape.stable_lanes { result.lane } else { 0 };
        let idx = result.sinks.idx.iter().flatten();
        tagged.extend(idx.zip(&result.sinks.ops).map(|(&i, &rec)| (lane, i, rec)));
        faults.merge(&result.sinks.faults);
        for &(phase, t) in &result.sinks.phase_first {
            first_seen
                .entry(phase)
                .and_modify(|cur| *cur = cur.min(t))
                .or_insert(t);
        }
        exec_end = exec_end.max(result.final_clock);
    }
    tagged.sort_by(|a, b| {
        a.2.t_end
            .total_cmp(&b.2.t_end)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut phase_change_times: Vec<(usize, f64)> = first_seen.into_iter().collect();
    phase_change_times.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    let merged = Merged {
        ops: tagged.into_iter().map(|(_, _, rec)| rec).collect(),
        phase_change_times,
        exec_end,
        faults,
    };
    let engine = Some((shape.lanes, shape.threads));
    let record = epilogue(started, merged, final_metrics, engine, obs);
    (record, engine, None)
}

#[cfg(test)]
mod tests {
    use super::*;

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
