//! Index structures — the systems under test of the benchmark.
//!
//! §II of the paper surveys the learned components the benchmark must be
//! able to evaluate; learned indexes are its flagship example ("models …
//! arranged in a tree, with the prediction of a model being used to pick a
//! more specialized model recursively"). This crate implements, from
//! scratch, both the **traditional baselines** and the **learned indexes**
//! a credible evaluation needs:
//!
//! Traditional:
//! * [`btree::BPlusTree`] — a B+-tree with linked leaves (the classic
//!   baseline the paper's references compare against).
//! * [`hash::HashIndex`] — a chained hash index (point lookups only).
//! * [`sorted_array::SortedArray`] — binary search over a dense sorted
//!   array, the no-model lower bound on space.
//!
//! Learned:
//! * [`learned::Learned`] — the sorted array every read-only learned index
//!   is: `Learned<M>` owns the pairs and puts a [`learned::Model`] in front
//!   of them. A model owes it a `fit`, a two-step probe (`route`, then
//!   `window`: key → `[lo, hi)` positions) that never reads the array and
//!   never panics, and its cost formulas. `Learned` guarantees the rest
//!   whatever window comes back: it clamps and widens it until it provably
//!   brackets the key's lower bound, searches it, and answers `get`,
//!   `get_many` (one staged, prefetching pipeline), `range` and the
//!   read-only refusals exactly as a sorted array would.
//! * [`rmi::Rmi`] — a two-level Recursive Model Index (Kraska et al. \[8]),
//!   `Learned<RmiModel>`.
//! * [`pgm::PgmIndex`] — an ε-bounded piecewise-geometric-model index,
//!   `Learned<PgmModel>`.
//! * [`spline::RadixSpline`] — a radix-table-accelerated spline index,
//!   `Learned<SplineModel>`.
//! * [`alex::AlexIndex`] — an updatable, adaptive gapped-array learned
//!   index in the spirit of ALEX \[33]; its batched reads are one staged
//!   probe that yields each read's work units with its answer
//!   ([`Index::probe_many`]).
//! * [`delta::DeltaIndex`] — an updatable wrapper that pairs any read-only
//!   learned index with a delta buffer and explicit retraining, the
//!   mechanism the benchmark's adaptability metrics exercise.
//! * [`learned_sort::learned_sort`] — the CDF-model sort of \[31], included
//!   as the §II "query execution" example.
//!
//! Every structure reports its memory footprint and the *work units* spent
//! building/training, which the cost metrics (Fig. 1d) convert to dollars.

#![warn(missing_docs)]

pub mod alex;
pub mod btree;
pub mod cache;
pub mod delta;
pub mod hash;
pub mod learned;
pub mod learned_sort;
pub mod model;
pub mod pgm;
pub mod rmi;
pub mod search;
pub mod sorted_array;
pub mod spline;

pub use alex::AlexIndex;
pub use btree::BPlusTree;
pub use cache::{KeyCache, LearnedCache, LruCache};
pub use delta::DeltaIndex;
pub use hash::HashIndex;
pub use learned::{Learned, Model};
pub use pgm::PgmIndex;
pub use rmi::Rmi;
pub use sorted_array::SortedArray;
pub use spline::RadixSpline;

/// Errors produced by index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The index does not support this operation (e.g. range scans on a
    /// hash index, inserts on a read-only learned index).
    Unsupported(&'static str),
    /// Bulk-load input was not sorted by key or contained duplicates.
    UnsortedInput,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            IndexError::UnsortedInput => {
                write!(
                    f,
                    "bulk-load input must be sorted by key without duplicates"
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Statistics every index reports for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Approximate in-memory footprint in bytes.
    pub size_bytes: usize,
    /// Abstract work units spent building/training (key-model updates,
    /// node writes, …). The cost model converts these to time and dollars.
    pub build_work: u64,
    /// Number of learned model instances (0 for traditional structures).
    pub model_count: usize,
}

/// The common interface all indexes expose to the benchmark driver.
///
/// Keys and values are `u64`. Implementations must be deterministic.
pub trait Index: Send {
    /// A short stable name for reports (e.g. `"btree"`, `"rmi"`).
    fn name(&self) -> &'static str;

    /// Point lookup.
    fn get(&self, key: u64) -> Option<u64>;

    /// Range scan: up to `limit` pairs with `key >= start`, ascending.
    ///
    /// Returns [`IndexError::Unsupported`] for structures without order
    /// (hash indexes).
    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>>;

    /// Inserts or overwrites; returns the previous value if the key existed.
    ///
    /// Read-only structures return [`IndexError::Unsupported`].
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>>;

    /// Deletes a key; returns the removed value if it existed.
    fn delete(&mut self, key: u64) -> Result<Option<u64>>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Work units spent building and restructuring so far, read in O(1):
    /// the counter [`IndexStats::build_work`] reports. Callers that charge
    /// an operation for the structural work it caused read this before and
    /// after it; [`Index::stats`] may walk the whole structure to size it
    /// and is meant to be called once per run.
    fn build_work(&self) -> u64;

    /// Size/build-cost statistics.
    fn stats(&self) -> IndexStats;

    /// Deterministic estimate of the work (memory probes) a [`Index::get`]
    /// for `key` costs in this structure, *for this specific key*.
    ///
    /// Learned indexes return their model-evaluation cost plus the
    /// last-mile search of the key's local error window, so lookups in
    /// well-modeled regions are cheap and poorly-modeled regions expensive —
    /// the per-distribution variation the specialization metric (Fig. 1a)
    /// measures. The default is a plain binary search over the whole index.
    fn probe_cost(&self, _key: u64) -> u64 {
        (self.len() as u64 + 2).ilog2() as u64 + 1
    }

    /// Batched point lookups: appends `self.get(k)` for every `k` in
    /// `keys` to `out`, in order.
    ///
    /// The default is the plain loop, so every implementation gets the
    /// exact per-key semantics of [`Index::get`]. Structures whose probe
    /// chases pointers or lands in an unpredictable window override this
    /// with a group-prefetch implementation: the probes in a batch are
    /// independent, so issuing their cache misses together (memory-level
    /// parallelism) hides latency a one-key-at-a-time loop must eat
    /// serially.
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| self.get(k)));
    }

    /// Batched point lookups with their work units: appends what
    /// [`Index::get_many`] appends to `hits` and, to `costs`,
    /// [`Index::probe_cost`] of every key in order — on the state at call
    /// time, `hits[i] == get(keys[i])` and `costs[i] == probe_cost(keys[i])`
    /// (offset by what the vectors held before).
    ///
    /// This is what a harness that charges a read its work units calls: the
    /// default asks twice, a structure whose `probe_cost` repeats the probe
    /// itself ([`alex::AlexIndex`]: the distance its search walks is only
    /// known by walking it) overrides this to read both off one probe.
    fn probe_many(&self, keys: &[u64], hits: &mut Vec<Option<u64>>, costs: &mut Vec<u64>) {
        self.get_many(keys, hits);
        costs.reserve(keys.len());
        costs.extend(keys.iter().map(|&k| self.probe_cost(k)));
    }
}

/// Hints the CPU to pull the cache line holding `*p` into L1.
///
/// No-op on non-x86_64 targets. Safe to call with any pointer value —
/// prefetch never faults — but callers should pass pointers derived from
/// live allocations so the hint is useful.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault even on invalid
    // addresses and has no architectural effect besides cache state.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Indexes that are bulk-loaded from sorted `(key, value)` pairs.
pub trait BulkLoad: Sized {
    /// Builds the index from pairs sorted ascending by unique key.
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self>;
}

/// Cost (probes) of a binary search over a window of `w` items.
pub(crate) fn bsearch_cost(w: u64) -> u64 {
    w.saturating_add(2).ilog2() as u64 + 1
}

/// Validates that `pairs` is sorted ascending by key with no duplicates.
pub(crate) fn check_sorted(pairs: &[(u64, u64)]) -> Result<()> {
    for w in pairs.windows(2) {
        if w[0].0 >= w[1].0 {
            return Err(IndexError::UnsortedInput);
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared conformance tests run against every [`Index`] implementation.

    use super::*;

    /// Sorted test pairs `(k, 31 k)` for k in a deterministic pseudo-random set.
    pub fn test_pairs(n: usize) -> Vec<(u64, u64)> {
        let mut keys: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(2654435761) % (n as u64 * 10))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect()
    }

    /// Checks point lookups for every loaded key plus misses.
    pub fn check_point_lookups<I: Index>(idx: &I, pairs: &[(u64, u64)]) {
        for &(k, v) in pairs {
            assert_eq!(idx.get(k), Some(v), "{}: missing key {k}", idx.name());
        }
        // Keys guaranteed absent.
        let max = pairs.last().map(|&(k, _)| k).unwrap_or(0);
        assert_eq!(idx.get(max + 1), None);
        let present: std::collections::HashSet<u64> = pairs.iter().map(|p| p.0).collect();
        for k in 0..100u64 {
            if !present.contains(&k) {
                assert_eq!(idx.get(k), None, "{}: phantom key {k}", idx.name());
            }
        }
    }

    /// Checks range scans against a reference sorted vector.
    pub fn check_ranges<I: Index>(idx: &I, pairs: &[(u64, u64)]) {
        for &(start, limit) in &[(0u64, 10usize), (5, 3), (1_000, 100), (u64::MAX, 5)] {
            let expected: Vec<(u64, u64)> = pairs
                .iter()
                .copied()
                .filter(|&(k, _)| k >= start)
                .take(limit)
                .collect();
            let got = idx.range(start, limit).expect("range supported");
            assert_eq!(got, expected, "{}: range({start}, {limit})", idx.name());
        }
    }
}
