//! Host-time complexity of the bookkeeping around a learned index, pinned
//! by counting what reaches the base index rather than by timing.
//!
//! Work units are the cost model; the host time spent computing them is
//! not in it, so it may not scale with the size of the index per op or per
//! maintenance slot (DESIGN §12). A [`DeltaIndex`] over a base that counts
//! its calls shows how often the bookkeeping touches the base. The same
//! goes for the harness above the SUT: a [`Logged`] SUT shows how many
//! dispatches the open-loop scheduler makes of a run's ops, and where it
//! puts the maintenance slots between them.

use lsbench::core::runner::{ExecutionMode, RunOptions, Runner};
use lsbench::core::scenario::Scenario;
use lsbench::core::suite::{s5_bursty_load, SuiteConfig};
use lsbench::index::{BulkLoad, DeltaIndex, Index, IndexStats, Result, Rmi};
use lsbench::sut::kv::{BTreeSut, LearnedKvSut, RetrainPolicy};
use lsbench::sut::sut::{ExecOutcome, SutMetrics, TransportStats};
use lsbench::sut::SystemUnderTest;
use lsbench::workload::dataset::Dataset;
use lsbench::workload::keygen::KeyDistribution;
use lsbench::workload::ops::Operation;
use std::cell::Cell;

/// What a base index was asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Calls {
    /// Keys looked up, through `get` or `get_many`.
    gets: usize,
    /// `range` calls.
    ranges: usize,
    /// Rows those `range` calls returned.
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
    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        let rows = self.0.range(start, limit)?;
        count(|c| {
            c.ranges += 1;
            c.rows += rows.len();
        });
        Ok(rows)
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

/// What a [`Logged`] SUT was asked for, call by call.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Op(Operation),
    MaintenanceSlot,
}

/// A SUT that logs the ops and maintenance slots it is given, in order,
/// and how they were dispatched.
struct Logged {
    inner: BTreeSut,
    seen: Vec<Seen>,
    /// `execute` and `execute_many` calls together.
    dispatches: usize,
    longest_dispatch: usize,
}

impl SystemUnderTest<Operation> for Logged {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train(&mut self, budget: u64) -> u64 {
        self.inner.train(budget)
    }
    fn execute(&mut self, op: &Operation) -> lsbench::sut::Result<ExecOutcome> {
        self.seen.push(Seen::Op(*op));
        self.dispatches += 1;
        self.longest_dispatch = self.longest_dispatch.max(1);
        self.inner.execute(op)
    }
    fn execute_many(&mut self, ops: &[Operation]) -> Vec<lsbench::sut::Result<ExecOutcome>> {
        self.seen.extend(ops.iter().map(|op| Seen::Op(*op)));
        self.dispatches += 1;
        self.longest_dispatch = self.longest_dispatch.max(ops.len());
        self.inner.execute_many(ops)
    }
    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.inner.on_phase_change(new_phase)
    }
    fn maintenance(&mut self) -> u64 {
        self.seen.push(Seen::MaintenanceSlot);
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

const CLIENTS: usize = 5_000;

/// `ops` read-only ops in one phase (S5: Poisson arrivals with bursts, far
/// below what 5 000 clients can serve, so no client is ever late and ops
/// are due in stream order), run open-loop on one worker against a
/// [`Logged`] B+-tree.
fn open_loop_log(ops: u64, maintenance_every: u64) -> (Scenario, Logged) {
    let cfg = SuiteConfig {
        dataset_size: 2_000,
        ops_per_phase: ops / 2,
        ..SuiteConfig::default()
    };
    let mut s = s5_bursty_load(&cfg).unwrap();
    s.maintenance_every = maintenance_every;
    let mut sut = Logged {
        inner: BTreeSut::build(&s.dataset.build().unwrap()).unwrap(),
        seen: Vec::new(),
        dispatches: 0,
        longest_dispatch: 0,
    };
    let mode = ExecutionMode::OpenLoop {
        clients: CLIENTS,
        workers: 1,
    };
    let outcome = Runner::new(&mut sut)
        .config(RunOptions::with_mode(mode))
        .run(&s)
        .unwrap();
    assert_eq!(outcome.record.ops.len() as u64, ops);
    (s, sut)
}

#[test]
fn open_loop_events_are_dispatched_as_runs_across_clients() {
    let ops = 20_000;
    let (_, sut) = open_loop_log(ops, 1_000_000);
    // Full runs would make it `ops / 64`; the last run of each batch of
    // events is short, and so are the batches at the end of the run.
    assert!(
        sut.dispatches <= ops as usize / 32,
        "{} dispatches for {ops} ops",
        sut.dispatches
    );
    assert!(sut.longest_dispatch <= 64, "{}", sut.longest_dispatch);
    assert_eq!(sut.seen.len() as u64, ops, "no maintenance slot was due");
}

#[test]
fn open_loop_runs_end_where_a_client_is_due_a_maintenance_slot() {
    // Nine ops per client: one slot each, right before its eighth op.
    let (s, sut) = open_loop_log(9 * CLIENTS as u64, 8);
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
    assert_eq!(sut.seen.len(), 9 * CLIENTS + CLIENTS);
    let first_difference = sut.seen.iter().zip(&expected).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "of {} calls", expected.len());
    assert!(sut.longest_dispatch <= 64 && sut.dispatches < expected.len() / 4);
}
