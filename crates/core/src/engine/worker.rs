//! Worker threads: where lanes physically run.
//!
//! The engine deals the operation stream to *lanes* (logical concurrency)
//! on one helper thread while the lanes run, and maps lanes onto *workers*
//! (physical threads) by `lane % threads`. A worker simply runs each of
//! its lanes to completion, in lane order, with the inline driver
//! ([`drive_inline`]) — the same loop the serial policy runs on the
//! caller's thread. A lane's input is the queue of chunks the helper deals
//! it, its output its sinks. The first lane of each worker reads a bounded
//! queue; a lane waiting behind another on its worker takes its ops
//! unbounded, since nobody reads them until the lanes before it are done.
//! Because each lane's virtual timeline depends only on its operation
//! subsequence (never on thread scheduling), results are reproducible for
//! any worker count.

use crate::exec::{drive_inline, Dealt, LaneParams, Sinks, SutRef};
use crate::Result;
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::ops::Operation;

/// One lane, ready to run: its op queue, sinks and SUT access.
pub(crate) struct LaneJob<'env, 'sut, S: ?Sized> {
    /// Lane index.
    pub lane: usize,
    /// The lane's operations, in stream order, chunk by chunk.
    pub ops: Dealt<Operation>,
    /// The lane's result sinks.
    pub sinks: Sinks,
    /// The shared SUT, or the shard this lane owns.
    pub sut: SutRef<'env, 'sut, S>,
}

/// Everything one driver produced, returned to the coordinator at join.
#[derive(Debug)]
pub(crate) struct LaneResult {
    /// Lane index (worker index for the open-loop scheduler).
    pub lane: usize,
    /// Records, phase first-seen times, statistics, observability state.
    pub sinks: Sinks,
    /// Latest client clock after the final backlog payment.
    pub final_clock: f64,
}

/// Runs `work` over each input on its own scoped thread and joins them all.
/// A worker's panic — a SUT's — resumes on the caller; otherwise the first
/// error in input order is the result.
pub(crate) fn on_workers<T: Send, R: Send>(
    inputs: Vec<T>,
    work: impl Fn(T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| {
                let work = &work;
                scope.spawn(move || work(input))
            })
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
        let mut done = Vec::with_capacity(joined.len());
        for result in joined {
            done.push(result.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done.into_iter().collect()
    })
}

/// Runs every lane on `threads` workers (lane → worker by `lane %
/// threads`, lanes of one worker in lane order).
pub(crate) fn run_lane_jobs<S>(
    jobs: Vec<LaneJob<'_, '_, S>>,
    threads: usize,
    params: &LaneParams,
) -> Result<Vec<LaneResult>>
where
    S: SystemUnderTest<Operation> + Send + ?Sized,
{
    let mut per_worker: Vec<Vec<LaneJob<'_, '_, S>>> = (0..threads).map(|_| Vec::new()).collect();
    for job in jobs {
        per_worker[job.lane % threads].push(job);
    }
    let done = on_workers(per_worker, |jobs| {
        jobs.into_iter()
            .map(|mut job| {
                let final_clock = drive_inline(job.sut, &job.ops, &mut job.sinks, params)?;
                Ok(LaneResult {
                    lane: job.lane,
                    sinks: job.sinks,
                    final_clock,
                })
            })
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(done.into_iter().flatten().collect())
}
