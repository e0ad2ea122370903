//! Key-value SUT adapters over the index substrates.
//!
//! Each adapter presents an index as a [`SystemUnderTest`] over
//! [`Operation`]s, with a documented deterministic cost model (work units ≈
//! memory probes):
//!
//! * traditional structures pay their structural search costs
//!   (`height · log(fanout)` for the B+-tree, `log n` for sorted arrays,
//!   `O(1)` for hashing);
//! * learned structures pay a couple of model evaluations plus a
//!   `log(error-window)` last-mile search — *if* their models fit the data;
//! * mutations pay the structural work the underlying index actually
//!   performed (splits, expansions, retrains), read off its work counters,
//!   so adaptation bursts show up as latency spikes exactly as Fig. 1b/1c
//!   anticipates.
//!
//! Work units are the model; the host time an adapter spends computing
//! them is bookkeeping the model never charges for, so per op and per
//! maintenance slot it is O(1): the work counter is read through
//! [`Index::build_work`], a [`DeltaIndex`] knows its own length and pending
//! count, [`Index::stats`] — which may walk the whole structure to size
//! it — is called from `metrics()` only, once per run, and a batched read
//! is charged from the probe that answered it ([`Index::probe_many`]), not
//! from a second one.

use crate::sut::{ExecOutcome, SutMetrics, SystemUnderTest};
use crate::{Result, SutError};
use lsbench_index::alex::AlexIndex;
use lsbench_index::btree::BPlusTree;
use lsbench_index::delta::DeltaIndex;
use lsbench_index::hash::HashIndex;
use lsbench_index::pgm::PgmIndex;
use lsbench_index::rmi::Rmi;
use lsbench_index::sorted_array::SortedArray;
use lsbench_index::spline::RadixSpline;
use lsbench_index::{BulkLoad, Index, IndexError};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;

/// log2(x + 2), at least 1 — the cost of a binary search over `x` items.
fn search_cost(x: u64) -> u64 {
    (x + 2).ilog2() as u64 + 1
}

/// When a learned SUT merges its delta buffer and retrains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainPolicy {
    /// Never retrain (the delta grows; lookups slow down).
    Never,
    /// Retrain during maintenance once pending writes exceed this fraction
    /// of the dataset.
    DeltaFraction(f64),
    /// Retrain immediately on every announced phase change.
    OnPhaseChange,
}

/// Generic learned KV SUT: a read-only learned index behind a
/// [`DeltaIndex`], with a retrain policy.
#[derive(Debug)]
pub struct LearnedKvSut<I: Index + BulkLoad> {
    name: String,
    index: DeltaIndex<I>,
    policy: RetrainPolicy,
    /// Training work charged when the driver calls `train`.
    pending_train_work: u64,
    training_work: u64,
    execution_work: u64,
    adaptations: u64,
    scratch: ReadScratch,
}

impl<I: Index + BulkLoad> LearnedKvSut<I> {
    /// Builds the SUT from a dataset with the index's default configuration.
    pub fn build(name: impl Into<String>, data: &Dataset, policy: RetrainPolicy) -> Result<Self> {
        let pairs: Vec<(u64, u64)> = data.pairs().collect();
        let index = DeltaIndex::<I>::build(&pairs)
            .map_err(|e| SutError::Internal(format!("build failed: {e}")))?;
        let pending = index.base().build_work();
        Ok(LearnedKvSut {
            name: name.into(),
            index,
            policy,
            pending_train_work: pending,
            training_work: 0,
            execution_work: 0,
            adaptations: 0,
            scratch: ReadScratch::default(),
        })
    }

    /// Wraps an externally trained base index (used by the Fig. 1d bench to
    /// control the training budget precisely).
    pub fn with_trained_base(name: impl Into<String>, base: I, policy: RetrainPolicy) -> Self {
        let pending = base.build_work();
        LearnedKvSut {
            name: name.into(),
            index: DeltaIndex::from_base(base),
            policy,
            pending_train_work: pending,
            training_work: 0,
            execution_work: 0,
            adaptations: 0,
            scratch: ReadScratch::default(),
        }
    }

    /// Pending unmerged writes (diagnostic).
    pub fn delta_fraction(&self) -> f64 {
        self.index.delta_fraction()
    }

    fn retrain_now(&mut self) -> u64 {
        match self.index.retrain() {
            Ok(work) => {
                self.training_work += work;
                self.adaptations += 1;
                work
            }
            Err(_) => 0,
        }
    }

    fn op_cost(&self, op: &Operation) -> u64 {
        // A read, delete or scan pays the per-key probe cost: the base's
        // model/search cost at this key plus a binary search of the pending
        // delta (see DeltaIndex::probe_cost). A buffered write pays only
        // the delta search.
        match *op {
            Operation::Read { key } | Operation::Delete { key } => self.index.probe_cost(key),
            Operation::Insert { .. } | Operation::Update { .. } => {
                search_cost(self.index.pending() as u64) + 2
            }
            Operation::Scan { start, len } => self.index.probe_cost(start) + len as u64,
        }
    }
}

impl<I: Index + BulkLoad> ReadPath for LearnedKvSut<I> {
    type Ix = DeltaIndex<I>;
    fn read_path(&mut self) -> (&Self::Ix, &mut u64, &mut ReadScratch) {
        (&self.index, &mut self.execution_work, &mut self.scratch)
    }
}

impl<I: Index + BulkLoad> SystemUnderTest<Operation> for LearnedKvSut<I> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn train(&mut self, _budget: u64) -> u64 {
        let work = self.pending_train_work;
        self.pending_train_work = 0;
        self.training_work += work;
        work
    }

    fn execute(&mut self, op: &Operation) -> Result<ExecOutcome> {
        let work = self.op_cost(op);
        self.execution_work += work;
        degrade(apply_op(&mut self.index, op, &mut self.scratch.rows), work)
    }

    fn execute_many(&mut self, ops: &[Operation]) -> Vec<Result<ExecOutcome>> {
        // Reads never fail and never mutate, so the batched path skips the
        // per-op cost-model match and the delta-size probe the general
        // path recomputes every call.
        execute_read_runs(self, ops)
    }

    fn on_phase_change(&mut self, _new_phase: usize) -> u64 {
        if self.policy == RetrainPolicy::OnPhaseChange && self.index.pending() > 0 {
            self.retrain_now()
        } else {
            0
        }
    }

    fn maintenance(&mut self) -> u64 {
        if let RetrainPolicy::DeltaFraction(threshold) = self.policy {
            if self.index.delta_fraction() > threshold {
                return self.retrain_now();
            }
        }
        0
    }

    fn crash(&mut self) -> u64 {
        // Crash-restart: the keys survive (base + delta are durable) but
        // the learned models are volatile and lost. Recovery is a full
        // retrain, forced regardless of the retrain policy.
        self.retrain_now()
    }

    fn metrics(&self) -> SutMetrics {
        let stats = self.index.stats();
        SutMetrics {
            size_bytes: stats.size_bytes,
            training_work: self.training_work + self.pending_train_work,
            execution_work: self.execution_work,
            model_count: stats.model_count,
            adaptations: self.adaptations,
            label_collection_work: 0,
        }
    }
}

/// Applies one operation to any index, normalizing outcomes. A scan's rows
/// are materialised into `rows`, the adapter's one scan buffer.
fn apply_op<Ix: Index>(
    index: &mut Ix,
    op: &Operation,
    rows: &mut Vec<(u64, u64)>,
) -> lsbench_index::Result<()> {
    match *op {
        Operation::Read { key } => {
            let _ = index.get(key);
            Ok(())
        }
        Operation::Insert { key, value } | Operation::Update { key, value } => {
            index.insert(key, value).map(|_| ())
        }
        Operation::Scan { start, len } => {
            rows.clear();
            index.range_into(start, len as usize, rows)
        }
        Operation::Delete { key } => index.delete(key).map(|_| ()),
    }
}

/// Capabilities-then-degrade (SNIPPETS.md §3): an operation the index does
/// not support (a scan on a hash table) is a *failed outcome* whose work
/// is still charged — the benchmark ranks that system lower — never a
/// fatal error. Every other index error is.
fn degrade(result: lsbench_index::Result<()>, work: u64) -> Result<ExecOutcome> {
    match result {
        Ok(()) => Ok(ExecOutcome::ok(work)),
        Err(IndexError::Unsupported(_)) => Ok(ExecOutcome::failed(work)),
        Err(e) => Err(SutError::Internal(e.to_string())),
    }
}

/// The buffers one run of reads is gathered into and answered from, and
/// the one a scan's rows land in, kept by the adapter so a dispatch
/// allocates nothing but its outcomes.
#[derive(Debug, Default)]
struct ReadScratch {
    keys: Vec<u64>,
    hits: Vec<Option<u64>>,
    costs: Vec<u64>,
    rows: Vec<(u64, u64)>,
}

/// What the batched read path needs from an adapter: its index, its
/// execution-work counter and its scratch buffers, borrowed together.
trait ReadPath: SystemUnderTest<Operation> {
    type Ix: Index;
    fn read_path(&mut self) -> (&Self::Ix, &mut u64, &mut ReadScratch);
}

/// Batched dispatch shared by every index adapter: each run of consecutive
/// reads goes through `Index::probe_many` in one call, so the index can
/// overlap the probes' cache misses (the B+-tree's group descent, the
/// learned indexes' last-mile searches, ALEX's staged leaf probe) and
/// hand back each read's work units from the probe that answered it;
/// everything else takes the adapter's own `execute`. The work charged per
/// read is what `execute` charges either way — batching never changes the
/// record.
fn execute_read_runs<S: ReadPath>(sut: &mut S, ops: &[Operation]) -> Vec<Result<ExecOutcome>> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let Operation::Read { key } = ops[i] else {
            out.push(sut.execute(&ops[i]));
            i += 1;
            continue;
        };
        let (
            index,
            execution_work,
            ReadScratch {
                keys, hits, costs, ..
            },
        ) = sut.read_path();
        keys.clear();
        keys.push(key);
        while let Some(&Operation::Read { key }) = ops.get(i + keys.len()) {
            keys.push(key);
        }
        hits.clear();
        costs.clear();
        index.probe_many(keys, hits, costs);
        debug_assert_eq!(costs.len(), keys.len());
        *execution_work += costs.iter().sum::<u64>();
        out.extend(costs.iter().map(|&work| Ok(ExecOutcome::ok(work))));
        i += keys.len();
    }
    out
}

/// What an updatable structure's own restructuring counts as in
/// [`SutMetrics`] — the one thing the structural adapters differ in.
pub trait Restructures: Index + BulkLoad {
    /// `(training_work, adaptations)` for `work` units of restructuring
    /// since the bulk load. A traditional structure never trains: every
    /// unit of a split, a rehash or a shift is an adaptation.
    fn restructuring(&self, work: u64) -> (u64, u64) {
        (0, work)
    }
}

impl Restructures for BPlusTree {}
impl Restructures for SortedArray {}
impl Restructures for HashIndex {}

impl Restructures for AlexIndex {
    /// ALEX's online structural retraining *is* training work, and it
    /// counts its own adaptation events.
    fn restructuring(&self, work: u64) -> (u64, u64) {
        (work, self.adapt_events())
    }
}

/// SUT adapter over an index that is updated in place — the traditional
/// structures and ALEX, which trains online, during execution.
#[derive(Debug)]
pub struct StructuralSut<I> {
    index: I,
    execution_work: u64,
    baseline_struct_work: u64,
    scratch: ReadScratch,
}

impl<I: Restructures> StructuralSut<I> {
    /// Bulk-loads the SUT from a dataset.
    pub fn build(data: &Dataset) -> Result<Self> {
        let pairs: Vec<(u64, u64)> = data.pairs().collect();
        let index =
            I::bulk_load(&pairs).map_err(|e| SutError::Internal(format!("build failed: {e}")))?;
        let baseline = index.build_work();
        Ok(StructuralSut {
            index,
            execution_work: 0,
            baseline_struct_work: baseline,
            scratch: ReadScratch::default(),
        })
    }
}

impl<I: Restructures> ReadPath for StructuralSut<I> {
    type Ix = I;
    fn read_path(&mut self) -> (&Self::Ix, &mut u64, &mut ReadScratch) {
        (&self.index, &mut self.execution_work, &mut self.scratch)
    }
}

impl<I: Restructures> SystemUnderTest<Operation> for StructuralSut<I> {
    fn name(&self) -> String {
        self.index.name().to_string()
    }

    fn train(&mut self, _budget: u64) -> u64 {
        0 // nothing is trained ahead of execution
    }

    fn execute(&mut self, op: &Operation) -> Result<ExecOutcome> {
        let read = self.index.probe_cost(op.key());
        let before = self.index.build_work();
        let result = apply_op(&mut self.index, op, &mut self.scratch.rows);
        // Structural maintenance (splits, rehash, shifts, node retrains)
        // shows up in the index's own work counter.
        let structural = self.index.build_work().saturating_sub(before);
        let work = match *op {
            Operation::Scan { len, .. } => read + len as u64,
            Operation::Insert { .. } | Operation::Update { .. } | Operation::Delete { .. } => {
                read + structural + 1
            }
            Operation::Read { .. } => read,
        };
        self.execution_work += work;
        degrade(result, work)
    }

    fn execute_many(&mut self, ops: &[Operation]) -> Vec<Result<ExecOutcome>> {
        // `Index::get` takes `&self`, so a read's structural work is
        // provably zero and the batched path never reads the counter.
        execute_read_runs(self, ops)
    }

    fn metrics(&self) -> SutMetrics {
        let stats = self.index.stats();
        let restructured = stats.build_work.saturating_sub(self.baseline_struct_work);
        let (training_work, adaptations) = self.index.restructuring(restructured);
        SutMetrics {
            size_bytes: stats.size_bytes,
            training_work,
            execution_work: self.execution_work,
            model_count: stats.model_count,
            adaptations,
            label_collection_work: 0,
        }
    }
}

/// B+-tree SUT.
pub type BTreeSut = StructuralSut<BPlusTree>;
/// Sorted-array SUT.
pub type SortedArraySut = StructuralSut<SortedArray>;
/// Hash-index SUT.
pub type HashSut = StructuralSut<HashIndex>;
/// ALEX SUT.
pub type AlexSut = StructuralSut<AlexIndex>;

/// A cache in front of any KV SUT (§II "learning-based caches").
///
/// Reads that hit the cache cost [`CachedSut::HIT_COST`] work units and
/// skip the inner system entirely; misses pay the inner cost plus an
/// admission charge. Writes pass through and invalidate. The benchmark
/// compares [`lsbench_index::cache::LruCache`] against
/// [`lsbench_index::cache::LearnedCache`] by wrapping the same inner SUT.
#[derive(Debug)]
pub struct CachedSut<S, C> {
    inner: S,
    cache: C,
}

impl<S: SystemUnderTest<Operation>, C: lsbench_index::cache::KeyCache> CachedSut<S, C> {
    /// Work units charged for a cache hit.
    pub const HIT_COST: u64 = 2;

    /// Wraps `inner` with `cache`.
    pub fn new(inner: S, cache: C) -> Self {
        CachedSut { inner, cache }
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> lsbench_index::cache::CacheStats {
        self.cache.stats()
    }
}

impl<S, C> SystemUnderTest<Operation> for CachedSut<S, C>
where
    S: SystemUnderTest<Operation>,
    C: lsbench_index::cache::KeyCache,
{
    fn name(&self) -> String {
        format!("{}+{}", self.inner.name(), self.cache.name())
    }

    fn train(&mut self, budget: u64) -> u64 {
        self.inner.train(budget)
    }

    fn execute(&mut self, op: &Operation) -> Result<ExecOutcome> {
        match *op {
            Operation::Read { key } => {
                if self.cache.access(key) {
                    return Ok(ExecOutcome::ok(Self::HIT_COST));
                }
                // Miss: pay the inner lookup plus the admission work.
                let out = self.inner.execute(op)?;
                Ok(ExecOutcome {
                    work: out.work + 1,
                    ok: out.ok,
                })
            }
            Operation::Insert { key, .. }
            | Operation::Update { key, .. }
            | Operation::Delete { key } => {
                self.cache.invalidate(key);
                let out = self.inner.execute(op)?;
                Ok(ExecOutcome {
                    work: out.work + 1,
                    ok: out.ok,
                })
            }
            Operation::Scan { .. } => self.inner.execute(op),
        }
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
        let mut m = self.inner.metrics();
        m.size_bytes += self.cache.len() * 32;
        // Every cache admission is one tiny online-training step.
        m.adaptations += self.cache.stats().evictions;
        m
    }
}

/// Convenience aliases for the three learned KV SUTs.
pub type RmiSut = LearnedKvSut<Rmi>;
/// PGM-index SUT.
pub type PgmSut = LearnedKvSut<PgmIndex>;
/// RadixSpline SUT.
pub type SplineSut = LearnedKvSut<RadixSpline>;

#[cfg(test)]
mod tests {
    use super::*;
    use lsbench_workload::keygen::KeyDistribution;

    fn dataset(n: usize) -> Dataset {
        Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, n, 1).unwrap()
    }

    fn run_ops<S: SystemUnderTest<Operation>>(sut: &mut S, data: &Dataset) -> (u64, u64) {
        let mut ok = 0;
        let mut work = 0;
        for &k in data.keys().iter().take(200) {
            let out = sut.execute(&Operation::Read { key: k }).unwrap();
            if out.ok {
                ok += 1;
            }
            work += out.work;
        }
        (ok, work)
    }

    #[test]
    fn all_kv_suts_serve_reads() {
        let data = dataset(5000);
        let mut btree = BTreeSut::build(&data).unwrap();
        let mut sorted = SortedArraySut::build(&data).unwrap();
        let mut hash = HashSut::build(&data).unwrap();
        let mut alex = AlexSut::build(&data).unwrap();
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let mut pgm = PgmSut::build("pgm", &data, RetrainPolicy::Never).unwrap();
        let mut spline = SplineSut::build("spline", &data, RetrainPolicy::Never).unwrap();
        for (ok, work) in [
            run_ops(&mut btree, &data),
            run_ops(&mut sorted, &data),
            run_ops(&mut hash, &data),
            run_ops(&mut alex, &data),
            run_ops(&mut rmi, &data),
            run_ops(&mut pgm, &data),
            run_ops(&mut spline, &data),
        ] {
            assert_eq!(ok, 200);
            assert!(work > 0);
        }
    }

    #[test]
    fn learned_reads_cheaper_than_btree_on_uniform() {
        // Uniform keys are the learned index's best case: its per-read work
        // must beat the B+-tree's height-bound search.
        let data = dataset(100_000);
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let mut btree = BTreeSut::build(&data).unwrap();
        let (_, rmi_work) = run_ops(&mut rmi, &data);
        let (_, btree_work) = run_ops(&mut btree, &data);
        assert!(
            rmi_work < btree_work,
            "rmi {rmi_work} !< btree {btree_work}"
        );
    }

    #[test]
    fn hash_rejects_scans_gracefully() {
        let data = dataset(1000);
        let mut hash = HashSut::build(&data).unwrap();
        let out = hash
            .execute(&Operation::Scan { start: 0, len: 10 })
            .unwrap();
        assert!(!out.ok);
        assert!(out.work > 0);
    }

    #[test]
    fn training_charged_once() {
        let data = dataset(10_000);
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let w1 = rmi.train(u64::MAX);
        assert!(w1 > 0);
        assert_eq!(rmi.train(u64::MAX), 0);
        assert_eq!(rmi.metrics().training_work, w1);
    }

    #[test]
    fn traditional_suts_do_not_train() {
        let data = dataset(1000);
        let mut btree = BTreeSut::build(&data).unwrap();
        assert_eq!(btree.train(u64::MAX), 0);
        assert_eq!(btree.metrics().training_work, 0);
        assert_eq!(btree.metrics().model_count, 0);
    }

    #[test]
    fn delta_policy_triggers_retrain_in_maintenance() {
        let data = dataset(1000);
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::DeltaFraction(0.05)).unwrap();
        rmi.train(u64::MAX);
        assert_eq!(rmi.maintenance(), 0); // nothing pending
        let max = data.keys().last().copied().unwrap();
        for i in 0..200u64 {
            rmi.execute(&Operation::Insert {
                key: max + 1 + i,
                value: i,
            })
            .unwrap();
        }
        assert!(rmi.delta_fraction() > 0.05);
        let work = rmi.maintenance();
        assert!(work > 0, "maintenance should retrain");
        assert!(rmi.delta_fraction() < 0.01);
        assert_eq!(rmi.metrics().adaptations, 1);
        // Inserted keys survive the retrain.
        let out = rmi.execute(&Operation::Read { key: max + 1 }).unwrap();
        assert!(out.ok);
    }

    #[test]
    fn phase_change_policy_retrains() {
        let data = dataset(1000);
        let mut pgm = PgmSut::build("pgm", &data, RetrainPolicy::OnPhaseChange).unwrap();
        assert_eq!(pgm.on_phase_change(1), 0); // nothing pending
        pgm.execute(&Operation::Insert {
            key: 99_999_999,
            value: 1,
        })
        .unwrap();
        assert!(pgm.on_phase_change(2) > 0);
    }

    #[test]
    fn never_policy_lets_delta_grow() {
        let data = dataset(500);
        let mut spline = SplineSut::build("s", &data, RetrainPolicy::Never).unwrap();
        let max = data.keys().last().copied().unwrap();
        for i in 0..300u64 {
            spline
                .execute(&Operation::Insert {
                    key: max + 1 + i,
                    value: i,
                })
                .unwrap();
        }
        assert_eq!(spline.maintenance(), 0);
        assert_eq!(spline.on_phase_change(1), 0);
        assert!(spline.delta_fraction() > 0.3);
    }

    #[test]
    fn growing_delta_slows_reads() {
        let data = dataset(2000);
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        let k = data.keys()[0];
        let fresh_read = rmi.execute(&Operation::Read { key: k }).unwrap().work;
        let max = data.keys().last().copied().unwrap();
        for i in 0..2000u64 {
            rmi.execute(&Operation::Insert {
                key: max + 1 + i,
                value: i,
            })
            .unwrap();
        }
        let slow_read = rmi.execute(&Operation::Read { key: k }).unwrap().work;
        assert!(
            slow_read > fresh_read,
            "delta growth should slow reads: {slow_read} <= {fresh_read}"
        );
    }

    #[test]
    fn alex_counts_adaptations_as_training() {
        let data = dataset(4000);
        let mut alex = AlexSut::build(&data).unwrap();
        assert_eq!(alex.metrics().training_work, 0);
        for i in 0..4000u64 {
            alex.execute(&Operation::Insert {
                key: 2_000_000 + i,
                value: i,
            })
            .unwrap();
        }
        let m = alex.metrics();
        assert!(m.training_work > 0, "structural retrains count as training");
        assert!(m.adaptations > 0);
    }

    #[test]
    fn cached_sut_hits_reduce_work() {
        use lsbench_index::cache::{LearnedCache, LruCache};
        let data = dataset(10_000);
        let inner = BTreeSut::build(&data).unwrap();
        let mut cached = CachedSut::new(inner, LruCache::new(1024));
        let key = data.keys()[42];
        let miss = cached.execute(&Operation::Read { key }).unwrap();
        let hit = cached.execute(&Operation::Read { key }).unwrap();
        assert!(hit.work < miss.work);
        assert_eq!(hit.work, CachedSut::<BTreeSut, LruCache>::HIT_COST);
        assert_eq!(cached.cache_stats().hits, 1);
        // Learned cache wrapper works identically at the interface level.
        let inner2 = BTreeSut::build(&data).unwrap();
        let mut cached2 = CachedSut::new(inner2, LearnedCache::new(1024));
        cached2.execute(&Operation::Read { key }).unwrap();
        let hit2 = cached2.execute(&Operation::Read { key }).unwrap();
        assert!(hit2.ok && hit2.work == 2);
    }

    #[test]
    fn cached_sut_invalidates_on_writes() {
        use lsbench_index::cache::LruCache;
        let data = dataset(1_000);
        let mut cached = CachedSut::new(BTreeSut::build(&data).unwrap(), LruCache::new(64));
        let key = data.keys()[7];
        cached.execute(&Operation::Read { key }).unwrap();
        assert_eq!(cached.cache_stats().hits, 0);
        cached
            .execute(&Operation::Update { key, value: 1 })
            .unwrap();
        // The update invalidated the cached key: next read misses.
        let after = cached.execute(&Operation::Read { key }).unwrap();
        assert!(after.work > 2, "read after write must miss the cache");
    }

    #[test]
    fn crash_forces_model_rebuild() {
        let data = dataset(2000);
        let mut rmi = RmiSut::build("rmi", &data, RetrainPolicy::Never).unwrap();
        rmi.train(u64::MAX);
        let recovery = rmi.crash();
        assert!(recovery > 0, "crash recovery rebuilds the learned models");
        assert_eq!(rmi.metrics().adaptations, 1);
        // Reads still work after the crash-restart.
        let out = rmi
            .execute(&Operation::Read {
                key: data.keys()[0],
            })
            .unwrap();
        assert!(out.ok);
        // Traditional systems have no volatile learned state.
        assert_eq!(BTreeSut::build(&data).unwrap().crash(), 0);
    }

    #[test]
    fn kv_suts_are_send_and_sync() {
        // Compile-time contract for the concurrent engine: every KV SUT
        // must be shareable across worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BTreeSut>();
        assert_send_sync::<SortedArraySut>();
        assert_send_sync::<HashSut>();
        assert_send_sync::<AlexSut>();
        assert_send_sync::<RmiSut>();
        assert_send_sync::<PgmSut>();
        assert_send_sync::<SplineSut>();
    }

    #[test]
    fn execute_many_fast_path_matches_execute() {
        // The batched read fast path must be outcome-, maintenance- and
        // metric-identical to op-at-a-time dispatch on every adapter, with
        // writes in the stream and (for the learned ones) retrains between
        // batches.
        fn check<S: SystemUnderTest<Operation>>(
            build: impl Fn() -> S,
            ops: &[Operation],
            learned: bool,
        ) {
            let (mut a, mut b) = (build(), build());
            let (mut one, mut many) = (Vec::new(), Vec::new());
            let (mut one_slots, mut many_slots) = (Vec::new(), Vec::new());
            for batch in ops.chunks(64) {
                one.extend(batch.iter().map(|op| a.execute(op).unwrap()));
                many.extend(b.execute_many(batch).into_iter().map(|r| r.unwrap()));
                one_slots.push(a.maintenance());
                many_slots.push(b.maintenance());
            }
            assert_eq!(one, many, "{}", a.name());
            assert_eq!(one_slots, many_slots, "{}", a.name());
            assert_eq!(a.metrics(), b.metrics(), "{}", a.name());
            let retrained = one_slots.iter().any(|&work| work > 0);
            assert_eq!(retrained, learned, "{} retrains mid-sequence", a.name());
        }
        let data = dataset(3000);
        let keys = data.keys();
        let ops: Vec<Operation> = (0..1280)
            .map(|i| {
                let (key, value) = (keys[i], i as u64);
                match i % 8 {
                    0..=2 => Operation::Read { key },
                    3 => Operation::Insert {
                        key: key + 1,
                        value,
                    },
                    4 => Operation::Update { key, value },
                    // Half of these hit a key an earlier op touched.
                    5 => Operation::Delete { key: keys[i / 2] },
                    6 => Operation::Scan { start: key, len: 3 },
                    _ => Operation::Read {
                        key: keys[i / 2] + 1,
                    },
                }
            })
            .collect();
        let policy = RetrainPolicy::DeltaFraction(0.05);
        check(|| BTreeSut::build(&data).unwrap(), &ops, false);
        check(|| SortedArraySut::build(&data).unwrap(), &ops, false);
        check(|| HashSut::build(&data).unwrap(), &ops, false);
        check(|| AlexSut::build(&data).unwrap(), &ops, false);
        check(|| RmiSut::build("rmi", &data, policy).unwrap(), &ops, true);
        check(|| PgmSut::build("pgm", &data, policy).unwrap(), &ops, true);
        check(
            || SplineSut::build("spline", &data, policy).unwrap(),
            &ops,
            true,
        );
    }

    #[test]
    fn only_metrics_sizes_the_index() {
        // `Index::stats` may walk every node, leaf or bucket to size the
        // structure: `metrics()` calls it once per run, and nothing an op
        // or a maintenance slot goes through may.
        let adapters = include_str!("kv.rs").split("#[cfg(test)]").next().unwrap();
        let mut function = "";
        for line in adapters.lines().map(str::trim_start) {
            if let Some(rest) = line.strip_prefix("fn ").or(line.strip_prefix("pub fn ")) {
                function = rest.split(['(', '<']).next().unwrap();
            }
            if line.contains("index.stats()") || line.contains("base.stats()") {
                assert_eq!(function, "metrics", "`{line}`");
            }
        }
    }

    #[test]
    fn scan_work_scales_with_length() {
        let data = dataset(10_000);
        let mut btree = BTreeSut::build(&data).unwrap();
        let short = btree
            .execute(&Operation::Scan { start: 0, len: 5 })
            .unwrap()
            .work;
        let long = btree
            .execute(&Operation::Scan { start: 0, len: 500 })
            .unwrap()
            .work;
        assert!(long > short + 400);
    }
}
