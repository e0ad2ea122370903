//! The SUTs the benchmark owns: [`NullSut`], which does nothing,
//! [`TracingSut`], which wraps a real SUT and counts calls and busy time,
//! and [`LapSut`], which wraps one and notes when each stretch of a timed
//! run ended.

use lsbench::sut::sut::{ExecOutcome, SutMetrics, SystemUnderTest, TransportStats};
use lsbench::sut::Result;
use lsbench::workload::ops::Operation;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Work units [`NullSut`] charges per operation.
pub const NULL_WORK: u64 = 10;

/// A stateless SUT answering every operation with constant work: what is
/// left of a run's wall time is the harness's own cost.
pub struct NullSut;

impl SystemUnderTest<Operation> for NullSut {
    fn name(&self) -> String {
        "null".to_string()
    }
    fn train(&mut self, _budget: u64) -> u64 {
        0
    }
    fn execute(&mut self, _op: &Operation) -> Result<ExecOutcome> {
        Ok(ExecOutcome::ok(NULL_WORK))
    }
    fn metrics(&self) -> SutMetrics {
        SutMetrics::default()
    }
}

/// The `SystemUnderTest` entry points [`TracingSut`] times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Train,
    Execute,
    PhaseChange,
    Maintenance,
    Crash,
}

impl CallKind {
    pub const ALL: [CallKind; 5] = [
        CallKind::Train,
        CallKind::Execute,
        CallKind::PhaseChange,
        CallKind::Maintenance,
        CallKind::Crash,
    ];

    pub fn label(self) -> &'static str {
        match self {
            CallKind::Train => "train",
            CallKind::Execute => "execute",
            CallKind::PhaseChange => "phase_change",
            CallKind::Maintenance => "maintenance",
            CallKind::Crash => "crash",
        }
    }
}

/// Totals of one (phase, call kind) cell. All fields are statistics that
/// publish no other data, so `Relaxed` suffices; they are read after the
/// run's threads have been joined.
#[derive(Debug)]
pub struct CallStats {
    pub calls: AtomicU64,
    pub ops: AtomicU64,
    pub busy_ns: AtomicU64,
    /// Start of the first call, ns since the trace epoch.
    pub first_ns: AtomicU64,
    /// End of the last call, ns since the trace epoch.
    pub last_ns: AtomicU64,
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            calls: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }
}

/// Call counters shared by every [`TracingSut`] of one run (one per shard
/// in sharded mode), aggregated per (phase, call kind) rather than per op.
#[derive(Debug)]
pub struct SutTrace {
    epoch: Instant,
    cells: Vec<[CallStats; 5]>,
}

impl SutTrace {
    pub fn new(epoch: Instant, phases: usize) -> Arc<Self> {
        Arc::new(SutTrace {
            epoch,
            cells: (0..phases.max(1)).map(|_| Default::default()).collect(),
        })
    }

    /// Adds a wrapper's locally accumulated totals.
    fn absorb(&self, local: &[[LocalStats; 5]]) {
        for (cells, locals) in self.cells.iter().zip(local) {
            for (cell, l) in cells.iter().zip(locals) {
                if l.calls == 0 {
                    continue;
                }
                cell.calls.fetch_add(l.calls, Relaxed);
                cell.ops.fetch_add(l.ops, Relaxed);
                // Each timed interval contains one clock read of its own.
                let clock_ns = l.calls * clock_read_ns();
                cell.busy_ns
                    .fetch_add(l.busy_ns.saturating_sub(clock_ns), Relaxed);
                cell.first_ns.fetch_min(l.first_ns, Relaxed);
                cell.last_ns.fetch_max(l.last_ns, Relaxed);
            }
        }
    }

    pub fn phases(&self) -> usize {
        self.cells.len()
    }

    pub fn cell(&self, phase: usize, kind: CallKind) -> &CallStats {
        &self.cells[phase][kind as usize]
    }

    /// Busy nanoseconds of `kind` summed over phases.
    pub fn busy_ns(&self, kind: CallKind) -> u64 {
        self.cells
            .iter()
            .map(|c| c[kind as usize].busy_ns.load(Relaxed))
            .sum()
    }

    /// Busy nanoseconds of every call kind.
    pub fn total_busy_ns(&self) -> u64 {
        CallKind::ALL.iter().map(|&k| self.busy_ns(k)).sum()
    }

    /// Operations passed through `execute`/`execute_many`.
    pub fn executed_ops(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c[CallKind::Execute as usize].ops.load(Relaxed))
            .sum()
    }
}

/// Nanoseconds one `Instant::now()` takes on this host, measured once:
/// the median of nine batches of reads.
fn clock_read_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 10_000;
        let mut batches: Vec<u64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(Instant::now());
                }
                (start.elapsed().as_nanos() / READS as u128) as u64
            })
            .collect();
        batches.sort_unstable();
        batches[batches.len() / 2]
    })
}

/// One wrapper's running totals for a (phase, call kind) cell.
#[derive(Debug, Clone, Copy, Default)]
struct LocalStats {
    calls: u64,
    ops: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

/// Wraps any key-value SUT — boxed registry SUTs and factory-built
/// per-shard SUTs included — forwarding every call unchanged while timing
/// it. Totals accumulate in the wrapper and reach the shared [`SutTrace`]
/// when the wrapper is dropped: two lanes adding to the same atomics on
/// every operation would time their own cache-line traffic. The clock
/// read inside each timed interval is subtracted, so per-op paths are not
/// charged the tracer's own cost as SUT time.
pub struct TracingSut<S: ?Sized> {
    inner: Box<S>,
    trace: Arc<SutTrace>,
    phase: usize,
    local: Vec<[LocalStats; 5]>,
}

impl<S: SystemUnderTest<Operation> + ?Sized> TracingSut<S> {
    pub fn new(inner: Box<S>, trace: Arc<SutTrace>) -> Self {
        let local = vec![Default::default(); trace.phases()];
        TracingSut {
            inner,
            trace,
            phase: 0,
            local,
        }
    }

    fn timed<T>(&mut self, kind: CallKind, ops: u64, f: impl FnOnce(&mut S) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let ns = |at: Instant| at.duration_since(self.trace.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let phase = self.phase.min(self.local.len() - 1);
        let cell = &mut self.local[phase][kind as usize];
        if cell.calls == 0 {
            cell.first_ns = start_ns;
        }
        cell.calls += 1;
        cell.ops += ops;
        cell.busy_ns += end_ns - start_ns;
        cell.last_ns = end_ns;
        out
    }
}

impl<S: ?Sized> Drop for TracingSut<S> {
    fn drop(&mut self) {
        self.trace.absorb(&self.local);
    }
}

impl<S: SystemUnderTest<Operation> + ?Sized> SystemUnderTest<Operation> for TracingSut<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train(&mut self, budget: u64) -> u64 {
        self.timed(CallKind::Train, 0, |s| s.train(budget))
    }
    fn execute(&mut self, op: &Operation) -> Result<ExecOutcome> {
        self.timed(CallKind::Execute, 1, |s| s.execute(op))
    }
    fn execute_many(&mut self, ops: &[Operation]) -> Vec<Result<ExecOutcome>> {
        self.timed(CallKind::Execute, ops.len() as u64, |s| s.execute_many(ops))
    }
    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.phase = new_phase;
        self.timed(CallKind::PhaseChange, 0, |s| s.on_phase_change(new_phase))
    }
    fn maintenance(&mut self) -> u64 {
        self.timed(CallKind::Maintenance, 0, |s| s.maintenance())
    }
    fn crash(&mut self) -> u64 {
        self.timed(CallKind::Crash, 0, |s| s.crash())
    }
    fn metrics(&self) -> SutMetrics {
        self.inner.metrics()
    }
    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// Stretches a timed run is split into.
pub const LAPS: usize = 16;

/// When each stretch of one run ended. A run is split into [`LAPS`]
/// stretches of equal operation counts, so that a stretch lasts a few
/// milliseconds and can be taken at the fastest of its repetitions on its
/// own (`bench::WallSum`): a quiet moment of a shared host is more often
/// that short than as long as a run. Shared by the per-shard wrappers of
/// a sharded run; `Relaxed` suffices because the marks are read after the
/// run's threads have been joined.
#[derive(Debug)]
pub struct Laps {
    epoch: Instant,
    /// Executed operations per stretch.
    every: u64,
    executed: AtomicU64,
    /// When stretch `i` ended, in ns since `epoch`; the last stretch ends
    /// with the run.
    ended_ns: [AtomicU64; LAPS - 1],
}

impl Laps {
    /// Laps for a run of `total_ops` operations.
    pub fn new(total_ops: u64) -> Arc<Self> {
        Arc::new(Laps {
            epoch: Instant::now(),
            every: (total_ops / LAPS as u64).max(1),
            executed: AtomicU64::new(0),
            ended_ns: Default::default(),
        })
    }

    fn count(&self, ops: u64) {
        let before = self.executed.fetch_add(ops, Relaxed);
        let (from, to) = (before / self.every, (before + ops) / self.every);
        if to > from {
            let now = self.epoch.elapsed().as_nanos() as u64;
            for lap in (from as usize..to as usize).take_while(|&lap| lap < LAPS - 1) {
                self.ended_ns[lap].store(now, Relaxed);
            }
        }
    }

    /// Seconds of every stretch of the run that began at `started` and has
    /// just ended, in order; they add up to the run's wall time.
    pub fn seconds(&self, started: Instant) -> Vec<f64> {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (started, ended) = (ns(started), ns(Instant::now()));
        let mut from = started;
        let mut seconds = Vec::with_capacity(LAPS);
        for mark in &self.ended_ns {
            // A stretch no call ended (a run cut short) is empty.
            let to = mark.load(Relaxed).clamp(from, ended);
            seconds.push((to - from) as f64 / 1e9);
            from = to;
        }
        seconds.push((ended - from) as f64 / 1e9);
        seconds
    }
}

/// Wraps any key-value SUT, forwarding every call unchanged and counting
/// the executed operations into [`Laps`]: one counter increment per call
/// and one clock read per stretch, which the timed runs can afford.
pub struct LapSut<S: ?Sized> {
    inner: Box<S>,
    laps: Arc<Laps>,
}

impl<S: ?Sized> LapSut<S> {
    pub fn new(inner: Box<S>, laps: Arc<Laps>) -> Self {
        LapSut { inner, laps }
    }
}

impl<S: SystemUnderTest<Operation> + ?Sized> SystemUnderTest<Operation> for LapSut<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train(&mut self, budget: u64) -> u64 {
        self.inner.train(budget)
    }
    fn execute(&mut self, op: &Operation) -> Result<ExecOutcome> {
        let out = self.inner.execute(op);
        self.laps.count(1);
        out
    }
    fn execute_many(&mut self, ops: &[Operation]) -> Vec<Result<ExecOutcome>> {
        let out = self.inner.execute_many(ops);
        self.laps.count(ops.len() as u64);
        out
    }
    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.inner.on_phase_change(new_phase)
    }
    fn maintenance(&mut self) -> u64 {
        self.inner.maintenance()
    }
    fn crash(&mut self) -> u64 {
        self.inner.crash()
    }
    fn metrics(&self) -> SutMetrics {
        self.inner.metrics()
    }
    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}
