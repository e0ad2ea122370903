//! Host-time complexity of the bookkeeping around a learned index, pinned
//! by counting what reaches the base index rather than by timing.
//!
//! Work units are the cost model; the host time spent computing them is
//! not in it, so it may not scale with the size of the index per op or per
//! maintenance slot (DESIGN §12). A [`DeltaIndex`] over a base that counts
//! its calls shows how often the bookkeeping touches the base. The same
//! goes for the harness above the SUT: a [`Logged`] SUT shows how many
//! dispatches a driver makes of a run's ops — the same ones whether or not
//! a fault plan is attached — and where it puts the maintenance slots and
//! crash-restarts between them. And for the archive below it: an allocator
//! that counts shows that encoding and decoding an artifact allocate for
//! the buffers they fill, not for each op. And for the analysis beside it:
//! the same allocator shows that the Fig. 1b report reads a record where it
//! lies instead of copying it.

use lsbench::core::faults::{resolve_fault_plan, FaultPlan, FaultSpec};
use lsbench::core::runner::{BoxedKvSut, ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::spec::ScenarioRegistry;
use lsbench::core::suite::SuiteConfig;
use lsbench::index::{BulkLoad, DeltaIndex, Index, IndexStats, Result, Rmi};
use lsbench::sut::kv::{AlexSut, BTreeSut, LearnedKvSut, RetrainPolicy};
use lsbench::sut::sut::{ExecOutcome, SutMetrics, TransportStats};
use lsbench::sut::SystemUnderTest;
use lsbench::workload::dataset::Dataset;
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::Operation;
use lsbench::workload::phases::{PhasedWorkload, TransitionKind};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// What a base index was asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Calls {
    /// Keys looked up, through `get` or `get_many`.
    gets: usize,
    /// `range_into` calls.
    ranges: usize,
    /// Rows those `range_into` calls appended.
    rows: usize,
}

thread_local! {
    /// Every test runs on a thread of its own, so this is per test.
    static CALLS: Cell<Calls> = Cell::new(Calls::default());
}

fn count(update: impl FnOnce(&mut Calls)) {
    CALLS.with(|calls| {
        let mut now = calls.get();
        update(&mut now);
        calls.set(now);
    });
}

/// Runs `f` and returns what it asked of any [`Counting`] base meanwhile.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, Calls) {
    CALLS.with(|calls| calls.set(Calls::default()));
    let out = f();
    (out, CALLS.with(|calls| calls.get()))
}

/// A base index that counts the reads it serves.
#[derive(Debug)]
struct Counting<I>(I);

impl<I: BulkLoad> BulkLoad for Counting<I> {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        I::bulk_load(pairs).map(Counting)
    }
}

impl<I: Index> Index for Counting<I> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn get(&self, key: u64) -> Option<u64> {
        count(|c| c.gets += 1);
        self.0.get(key)
    }
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        count(|c| c.gets += keys.len());
        self.0.get_many(keys, out)
    }
    fn range_into(&self, start: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> Result<()> {
        let held = out.len();
        self.0.range_into(start, limit, out)?;
        count(|c| {
            c.ranges += 1;
            c.rows += out.len() - held;
        });
        Ok(())
    }
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        self.0.insert(key, value)
    }
    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        self.0.delete(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn build_work(&self) -> u64 {
        self.0.build_work()
    }
    fn stats(&self) -> IndexStats {
        self.0.stats()
    }
    fn probe_cost(&self, key: u64) -> u64 {
        self.0.probe_cost(key)
    }
}

/// 2000 base pairs on the keys `0, 10, 20, …`.
fn base_pairs() -> Vec<(u64, u64)> {
    (0..2000u64).map(|i| (i * 10, i)).collect()
}

#[test]
fn counters_and_writes_stay_off_the_base() {
    let pairs = base_pairs();
    let mut idx: DeltaIndex<Counting<Rmi>> = DeltaIndex::build(&pairs).unwrap();
    for i in 0..600u64 {
        // Fresh keys, overwrites of base keys, deletes of base keys and of
        // buffered ones, reinserts of tombstoned ones.
        let (_, calls) = calls_during(|| match i % 6 {
            0 => idx.insert(i * 10 + 5, i).unwrap(),
            1 => idx.insert(i * 10, i).unwrap(),
            2 => idx.delete(i * 10 + 10_000).unwrap(),
            3 => idx.delete((i - 3) * 10 + 5).unwrap(),
            4 => idx.insert((i - 2) * 10 + 10_000, i).unwrap(),
            _ => idx.delete(7).unwrap(),
        });
        assert!(calls.gets <= 1 && calls.ranges == 0, "write {i}: {calls:?}");

        let (_, calls) = calls_during(|| (idx.len(), idx.pending(), idx.delta_fraction()));
        assert_eq!(calls, Calls::default(), "counters after write {i}");
    }
    assert_eq!(idx.pending(), 200, "overwrites and reinserts stay buffered");

    let (_, calls) = calls_during(|| idx.retrain().unwrap());
    assert_eq!((calls.gets, calls.ranges), (0, 1), "one pass over the base");
}

#[test]
fn scan_reads_what_it_returns_plus_what_it_skips() {
    let pairs = base_pairs();
    let mut idx: DeltaIndex<Counting<Rmi>> = DeltaIndex::build(&pairs).unwrap();
    // 400 tombstones in the upper half of the key space, and in the lower
    // half a stretch where every fourth base row is tombstoned or
    // overwritten and fresh keys sit in between.
    for i in 1000..1400u64 {
        idx.delete(i * 10).unwrap();
    }
    for i in 100..200u64 {
        match i % 8 {
            0 => drop(idx.delete(i * 10).unwrap()),
            4 => drop(idx.insert(i * 10, 1).unwrap()),
            _ => drop(idx.insert(i * 10 + 3, 2).unwrap()),
        }
    }
    let skippable = |key: u64| match key / 10 {
        i @ 100..=199 => i % 4 == 0,
        i => (1000..1400).contains(&i),
    };

    for (start, limit) in [
        (0, 50),
        (0, 100),
        (995, 1),
        (1000, 20),
        (1500, 100),
        (9_990, 30),
        (19_000, 500),
    ] {
        let (rows, calls) = calls_during(|| idx.range(start, limit).unwrap());
        // Base rows up to the last key the scan returned (every remaining
        // one if it ran out of rows) that could not be returned as they are.
        let scanned_to = match rows.last() {
            Some(&(last, _)) if rows.len() == limit => last,
            _ => u64::MAX,
        };
        let skipped = pairs
            .iter()
            .filter(|p| p.0 >= start && p.0 <= scanned_to && skippable(p.0))
            .count();
        assert!(
            calls.rows <= limit + skipped,
            "range({start}, {limit}) read {} base rows for {} returned and {skipped} skipped",
            calls.rows,
            rows.len()
        );
        assert_eq!(calls.gets, 0, "range({start}, {limit})");
    }

    // Far from any pending write, the tombstones elsewhere cost nothing.
    let (rows, calls) = calls_during(|| idx.range(0, 100).unwrap());
    assert_eq!((rows.len(), calls.ranges, calls.rows), (100, 1, 100));
}

#[test]
fn maintenance_below_its_threshold_never_touches_the_base() {
    let data = Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, 4000, 1).unwrap();
    let policy = RetrainPolicy::DeltaFraction(0.5);
    let mut sut: LearnedKvSut<Counting<Rmi>> = LearnedKvSut::build("rmi", &data, policy).unwrap();
    for i in 0..500u64 {
        let op = match i % 3 {
            0 => Operation::Delete {
                key: data.keys()[i as usize],
            },
            _ => Operation::Insert {
                key: 2_000_000 + i,
                value: i,
            },
        };
        sut.execute(&op).unwrap();
        let (work, calls) = calls_during(|| sut.maintenance());
        assert_eq!((work, calls), (0, Calls::default()), "slot after op {i}");
    }
    assert!(sut.delta_fraction() > 0.1, "the buffer did grow");
}

/// A scan materialises its rows into the adapter's one buffer. With writes
/// pending — in a learned SUT's delta, in the B+-tree's and ALEX's leaves —
/// scanning again once a first round has grown that buffer allocates
/// nothing: not a `Vec` per scan, nor one per base chunk of the delta's
/// merge.
#[test]
fn scans_allocate_nothing_once_the_buffer_has_grown() {
    let data = Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, 4000, 1).unwrap();
    let keys = data.keys();
    // Fresh keys between base keys, updates and deletes of base keys.
    let writes: Vec<Operation> = (0..400usize)
        .flat_map(|i| {
            let at = |j: usize| keys[i * 10 + j];
            [
                Operation::Insert {
                    key: at(0) + 1,
                    value: 1,
                },
                Operation::Update {
                    key: at(3),
                    value: 2,
                },
                Operation::Delete { key: at(5) },
            ]
        })
        .collect();
    let scans: Vec<Operation> = (0..200)
        .map(|i| Operation::Scan {
            start: keys[i * 19].saturating_sub(1),
            len: 1 + (i % 100) as u32,
        })
        .collect();
    let policy = RetrainPolicy::Never;
    let mut rmi: LearnedKvSut<Rmi> = LearnedKvSut::build("rmi", &data, policy).unwrap();
    let mut btree = BTreeSut::build(&data).unwrap();
    let mut alex = AlexSut::build(&data).unwrap();
    for sut in [
        &mut rmi as &mut dyn SystemUnderTest<Operation>,
        &mut btree,
        &mut alex,
    ] {
        for op in writes.iter().chain(&scans) {
            assert!(sut.execute(op).unwrap().ok, "{} {op:?}", sut.name());
        }
        let (_, allocations) = allocations_during(|| {
            for op in &scans {
                sut.execute(op).unwrap();
            }
        });
        assert_eq!(allocations, 0, "{}: 200 scans", sut.name());
    }
    assert!(rmi.delta_fraction() > 0.25, "the writes are pending");
}

/// One call a [`Logged`] SUT received.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Op(Operation),
    MaintenanceSlot,
    PhaseChange(usize),
    Crash,
}

/// What a [`Logged`] SUT was asked for.
#[derive(Debug, Clone, Default, PartialEq)]
struct Log {
    /// Every call, in order (the ops of an `execute_many` one by one).
    seen: Vec<Seen>,
    /// How the ops were dispatched: the length of every `execute` (1) and
    /// `execute_many` slice, in order.
    slices: Vec<usize>,
}

impl Log {
    fn ops(&self) -> usize {
        self.slices.iter().sum()
    }
}

/// A B+-tree SUT that logs what it is given.
struct Logged {
    inner: BTreeSut,
    log: Arc<Mutex<Log>>,
}

impl Logged {
    fn log(&self, call: Seen) {
        self.log.lock().unwrap().seen.push(call);
    }

    /// One `execute` or `execute_many` call over `ops`.
    fn log_dispatch(&self, ops: &[Operation]) {
        let mut log = self.log.lock().unwrap();
        log.seen.extend(ops.iter().map(|op| Seen::Op(*op)));
        log.slices.push(ops.len());
    }
}

impl SystemUnderTest<Operation> for Logged {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train(&mut self, budget: u64) -> u64 {
        self.inner.train(budget)
    }
    fn execute(&mut self, op: &Operation) -> lsbench::sut::Result<ExecOutcome> {
        self.log_dispatch(std::slice::from_ref(op));
        self.inner.execute(op)
    }
    fn execute_many(&mut self, ops: &[Operation]) -> Vec<lsbench::sut::Result<ExecOutcome>> {
        self.log_dispatch(ops);
        self.inner.execute_many(ops)
    }
    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.log(Seen::PhaseChange(new_phase));
        self.inner.on_phase_change(new_phase)
    }
    fn maintenance(&mut self) -> u64 {
        self.log(Seen::MaintenanceSlot);
        self.inner.maintenance()
    }
    fn crash(&mut self) -> u64 {
        self.log(Seen::Crash);
        self.inner.crash()
    }
    fn metrics(&self) -> SutMetrics {
        self.inner.metrics()
    }
    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// Runs `s` in `mode` against [`Logged`] B+-trees and returns their logs:
/// one per shard in `Sharded` mode, one otherwise.
fn logged_run(s: &Scenario, mode: ExecutionMode) -> Vec<Log> {
    let mut logs: Vec<Arc<Mutex<Log>>> = Vec::new();
    let factory = |data: &Dataset| {
        let inner = BTreeSut::build(data).unwrap();
        let log = Arc::default();
        logs.push(Arc::clone(&log));
        Ok(Box::new(Logged { inner, log }) as BoxedKvSut)
    };
    let outcome = Runner::from_factory(factory)
        .config(RunOptions::with_mode(mode))
        .run(s)
        .unwrap();
    let logs: Vec<Log> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
    let dispatched: usize = logs.iter().map(Log::ops).sum();
    assert_eq!(dispatched, outcome.record.ops.len());
    logs
}

const CLIENTS: usize = 5_000;

/// `ops` read-only ops in one phase (S5: Poisson arrivals with bursts, far
/// below what 5 000 clients can serve, so no client is ever late and ops
/// are due in stream order).
fn read_only(ops: u64, maintenance_every: u64) -> Scenario {
    let suite = ScenarioRegistry::with_config(SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: ops / 2,
        ..SuiteConfig::default()
    });
    let mut s = suite.get("S5-bursty-load").unwrap();
    s.maintenance_every = maintenance_every;
    s
}

/// [`read_only`], run open-loop on one worker.
fn open_loop_log(ops: u64, maintenance_every: u64) -> (Scenario, Log) {
    let s = read_only(ops, maintenance_every);
    let mode = ExecutionMode::OpenLoop {
        clients: CLIENTS,
        workers: 1,
    };
    let log = logged_run(&s, mode).remove(0);
    assert_eq!(log.ops() as u64, ops);
    (s, log)
}

#[test]
fn open_loop_events_are_dispatched_as_runs_across_clients() {
    let ops = 20_000;
    let (_, log) = open_loop_log(ops, 1_000_000);
    // Full runs would make it `ops / 64`; the last run of each batch of
    // events is short, and so are the batches at the end of the run.
    assert!(
        log.slices.len() <= ops as usize / 32,
        "{} dispatches for {ops} ops",
        log.slices.len()
    );
    assert!(log.slices.iter().all(|&len| len <= 64));
    assert_eq!(log.seen.len() as u64, ops, "no maintenance slot was due");
}

#[test]
fn open_loop_runs_end_where_a_client_is_due_a_maintenance_slot() {
    // Nine ops per client: one slot each, right before its eighth op.
    let (s, log) = open_loop_log(9 * CLIENTS as u64, 8);
    let mut since_slot = vec![0u64; CLIENTS];
    let mut expected = Vec::new();
    for (i, labeled) in s.workload.stream().unwrap().enumerate() {
        let since_slot = &mut since_slot[i % CLIENTS];
        *since_slot += 1;
        if *since_slot >= 8 {
            *since_slot = 0;
            expected.push(Seen::MaintenanceSlot);
        }
        expected.push(Seen::Op(labeled.op));
    }
    assert_eq!(log.seen.len(), 9 * CLIENTS + CLIENTS);
    let first_difference = log.seen.iter().zip(&expected).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "of {} calls", expected.len());
    assert!(log.slices.iter().all(|&len| len <= 64) && log.slices.len() < expected.len() / 4);
}

/// A fault plan settles outcomes; it dispatches nothing. With a plan of
/// error coins and retries attached, every driver hands the SUT the same
/// slices, call for call, as without it.
#[test]
fn a_fault_plan_never_changes_what_is_dispatched() {
    let ops = 20_000;
    let plain = read_only(ops, 1_000_000);
    let mut faulted = plain.clone();
    faulted.faults = Some(resolve_fault_plan("chaos-errors").unwrap());
    let open = ExecutionMode::OpenLoop {
        clients: CLIENTS,
        workers: 1,
    };
    for mode in [
        ExecutionMode::Serial,
        ExecutionMode::Sharded { workers: 2 },
        open,
    ] {
        let logs = logged_run(&faulted, mode);
        let dispatches: usize = logs.iter().map(|log| log.slices.len()).sum();
        // (Not `assert_eq!`: a failure would print 40 000 ops.)
        assert!(
            logs == logged_run(&plain, mode),
            "{mode:?}: {dispatches} dispatches under the plan"
        );
        assert!(
            dispatches <= ops as usize / 32,
            "{mode:?}: {dispatches} dispatches for {ops} ops"
        );
        let longest = logs.iter().flat_map(|log| &log.slices).max();
        assert!(longest <= Some(&64), "{mode:?}: {longest:?}");
    }
}

/// Crashes aside, a faulted run makes exactly the SUT calls of the
/// unfaulted run: each crash-restart is delivered once, immediately before
/// the op it hits and after that op's maintenance slot or phase
/// announcement, and everything else the SUT sees is unchanged.
#[test]
fn a_crash_is_delivered_between_the_same_two_ops() {
    let suite = ScenarioRegistry::with_config(SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: 3 * 64,
        ..SuiteConfig::default()
    });
    // Reads, then reads and inserts, switched abruptly at op 3·64; a
    // maintenance slot before every 19th op, op 37 among them.
    let mut plain = suite.get("S3-gradual-writes").unwrap();
    let phases = plain.workload.phases().to_vec();
    plain.workload = PhasedWorkload::new(phases, vec![TransitionKind::Abrupt], 5).unwrap();
    plain.maintenance_every = 19;
    plain.arrival = read_only(2, 19).arrival;
    let crash = |phase, at_op| FaultSpec::Crash { phase, at_op };
    let mut faulted = plain.clone();
    faulted.faults = Some(FaultPlan {
        faults: vec![crash(0, 0), crash(0, 37), crash(0, 38), crash(1, 0)],
        ..FaultPlan::default()
    });
    faulted.validate().unwrap();

    for mode in [
        ExecutionMode::Serial,
        ExecutionMode::OpenLoop {
            clients: 1,
            workers: 1,
        },
    ] {
        let unfaulted = logged_run(&plain, mode).remove(0);
        let mut expected = Vec::new();
        let mut idx = 0;
        for &call in &unfaulted.seen {
            if let Seen::Op(_) = call {
                if [0, 37, 38, 3 * 64].contains(&idx) {
                    expected.push(Seen::Crash);
                }
                idx += 1;
            }
            expected.push(call);
        }
        let crashes: Vec<usize> = (0..expected.len())
            .filter(|&i| expected[i] == Seen::Crash)
            .collect();
        assert_eq!(crashes.len(), 4);
        assert_eq!(expected[crashes[1] - 1], Seen::MaintenanceSlot);
        assert_eq!(expected[crashes[3] - 1], Seen::PhaseChange(1));
        assert_eq!(
            logged_run(&faulted, mode).remove(0).seen,
            expected,
            "{mode:?}"
        );
    }
}

/// The system allocator, counting the calls each thread makes of it and
/// the bytes they ask for.
struct CountingAllocator;

thread_local! {
    /// Every test runs on a thread of its own, so these are per test.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// One more call, for `bytes` (a `realloc` counts its whole new size).
fn count_allocation(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local integers with
// no destructor, reached without allocating (`try_with` so that a thread
// tearing down is not counted rather than panicked in).
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        // SAFETY: as for `dealloc`, with the caller's `realloc` obligations.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how often it (this thread) went to the allocator.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns how many bytes it (this thread) asked the allocator for.
fn bytes_allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOCATED_BYTES.with(Cell::get) - before)
}

/// `RunRecord.ops` is the part of an artifact that grows with the run. The
/// encoder writes each op straight into the output text and the decoder
/// reads each straight into the `Vec`, so four times the ops costs the few
/// extra doublings of those two buffers — not a tree node, a key `String`
/// or a formatted number per op.
#[test]
fn archive_encoding_allocates_per_buffer_not_per_op() {
    use lsbench::core::results::{RunArtifact, RunManifest};
    let scenario = read_only(4_000, 1_000);
    let record = Runner::from_factory(|data: &Dataset| {
        Ok(Box::new(BTreeSut::build(data).unwrap()) as BoxedKvSut)
    })
    .run(&scenario)
    .expect("runs")
    .record;
    assert_eq!(record.ops.len(), 4_000);
    let measure = |ops: usize| {
        let mut record = record.clone();
        record.ops.truncate(ops);
        let artifact = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 1), record);
        let (json, encoding) = allocations_during(|| artifact.to_json().expect("encodes"));
        let (back, decoding) = allocations_during(|| RunArtifact::from_json(&json));
        assert_eq!(back.expect("decodes"), artifact);
        (encoding, decoding)
    };
    let (small, large) = (measure(1_000), measure(4_000));
    assert!(
        large.0 < small.0 + 64 && large.1 < small.1 + 64,
        "(to_json, from_json) allocations: {small:?} for 1000 ops, {large:?} for 4000"
    );
}

/// The paper's reports walk `record.ops` where they lie. Fig. 1b keeps a
/// table per phase and a 50-slot ring beside its sums, Fig. 1a one open
/// window per phase and its samples, Fig. 1c one count per band, so a
/// 10⁵-op record (2.4 MB of ops) is analysed, and two of them compared, in
/// a few KiB — the 257 plotted points, the phase tables, 250 samples per
/// phase, 40 bands — where copies of the completion times used to cost
/// several MB.
#[test]
fn adaptability_reads_the_record_in_place() {
    use lsbench::core::faults::FaultStats;
    use lsbench::core::metrics::adaptability::{paired_area_difference, AdaptabilityReport};
    use lsbench::core::metrics::sla::SlaReport;
    use lsbench::core::metrics::specialization::SpecializationReport;
    use lsbench::core::record::{OpRecord, RunRecord, TrainInfo};
    let record = |step: f64| {
        // In time order, faster after the first 40 000 ops.
        let ops: Vec<OpRecord> = (1..=100_000usize)
            .map(|i| OpRecord {
                t_end: step * (i.min(40_000) as f64 + 0.9 * i.saturating_sub(40_000) as f64),
                latency: step,
                phase: (i / 33_334) as u16,
                ok: true,
                in_transition: false,
            })
            .collect();
        RunRecord {
            sut_name: "in-place".to_string(),
            scenario_name: "complexity".to_string(),
            phase_names: vec!["a".to_string(), "b".to_string(), "c".to_string()],
            phase_change_times: (0..3).map(|p| (p, ops[p * 33_334].t_end)).collect(),
            exec_start: 0.0,
            exec_end: ops[ops.len() - 1].t_end,
            ops,
            train: TrainInfo::default(),
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1e6,
            faults: FaultStats::default(),
        }
    };
    let (a, b) = (record(1e-5), record(1.3e-5));
    let (report, bytes) = bytes_allocated_during(|| AdaptabilityReport::from_record(&a));
    let report = report.expect("reports");
    assert_eq!(report.phase_throughput.len(), 3);
    assert_eq!(report.recovery_times.len(), 2);
    assert!(bytes < 64 << 10, "from_record allocated {bytes} bytes");
    let (area, bytes) = bytes_allocated_during(|| paired_area_difference(&a, &b));
    assert!(area.expect("compares") < 0.0, "`b` is the slower run");
    assert!(
        bytes < 64 << 10,
        "paired_area_difference allocated {bytes} bytes"
    );
    let (report, bytes) = bytes_allocated_during(|| {
        SpecializationReport::from_record(&a, &[0.0, 0.5, 0.25], 400, &[])
    });
    assert_eq!(report.expect("reports").entries.len(), 3);
    assert!(bytes < 64 << 10, "specialization allocated {bytes} bytes");
    let interval = a.exec_duration() / 40.0;
    let (report, bytes) =
        bytes_allocated_during(|| SlaReport::from_record(&a, 2e-5, interval, 2_000));
    assert_eq!(report.expect("reports").bands.len(), 40);
    assert!(bytes < 64 << 10, "SLA report allocated {bytes} bytes");
}
