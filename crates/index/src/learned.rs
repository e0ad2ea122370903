//! A learned index is a model over a sorted array.
//!
//! §II of the paper defines a learned index as "a model over the data": a
//! function from a key to a window of a sorted array, followed by a
//! last-mile search inside that window. [`Model`] is the first half —
//! what RMI, PGM and RadixSpline differ in — and [`Learned`] is the second
//! half, written once: it owns the array, checks every window a model
//! hands it against the array before trusting it, searches the window, and
//! implements [`Index`] and [`BulkLoad`] for every model.
//!
//! The split is also the seam a test needs: behind `Learned` a model may
//! return any window at all — empty, inverted, past the end — and every
//! answer still equals a `BTreeMap`'s (`tests/properties.rs` puts a model
//! that lies behind it). A wrong window costs time, never correctness.

use crate::search::{lower_bound_group, GROUP};
use crate::{check_sorted, prefetch_read, BulkLoad, Index, IndexError, IndexStats, Result};

/// The model half of a learned index: key → `[lo, hi)` window of positions.
///
/// A probe is two steps, neither of which reads the key array: `route`
/// walks the model's own directory (root model, segment levels, radix
/// table) to the piece that covers the key, and `window` evaluates that
/// piece. They are separate so a batch can run each step for every key
/// before the next one starts, overlapping the cache misses of a step
/// across the batch.
///
/// A model owes [`Learned`] two things only: `route` and `window` must not
/// panic for any key once `fit` saw at least one key (they are never
/// called on an empty array), and the cost formulas must be deterministic.
/// The window itself may be anything; a tight one is what makes the index
/// fast.
pub trait Model: Sized + Send {
    /// Construction parameters.
    type Config: Copy;
    /// What [`Model::route`] finds and [`Model::window`] finishes from.
    type Route: Copy + Default;
    /// The [`Index::name`] of the index this model makes.
    const NAME: &'static str;
    /// The configuration [`BulkLoad::bulk_load`] builds with.
    const DEFAULT: Self::Config;

    /// Fits the model to `keys` (sorted ascending, no duplicates); returns
    /// it with the work units the fit cost.
    fn fit(keys: &[u64], config: Self::Config) -> Result<(Self, u64)>;

    /// Starts loading what [`Model::route`] reads first for `key`.
    fn prefetch(&self, _key: u64) {}

    /// Finds the piece of the model that covers `key`.
    fn route(&self, key: u64) -> Self::Route;

    /// The `[lo, hi)` positions `route`'s piece predicts for `key`'s lower
    /// bound, unclamped.
    fn window(&self, route: Self::Route, key: u64) -> (usize, usize);

    /// [`Index::probe_cost`] of `key`: model evaluations plus the last-mile
    /// search of the window the model promises.
    fn probe_cost(&self, key: u64) -> u64;

    /// Bytes the model itself occupies, the array excluded.
    fn size_bytes(&self) -> usize;

    /// [`IndexStats::model_count`].
    fn model_count(&self) -> usize;
}

/// A read-only learned index: a sorted array of pairs behind a [`Model`].
#[derive(Debug, Clone)]
pub struct Learned<M> {
    keys: Vec<u64>,
    values: Vec<u64>,
    model: M,
    build_work: u64,
}

impl<M: Model> Learned<M> {
    /// Builds the index over sorted, duplicate-free `pairs`.
    pub(crate) fn with_config(pairs: &[(u64, u64)], config: M::Config) -> Result<Self> {
        check_sorted(pairs)?;
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let values: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let (model, work) = M::fit(&keys, config)?;
        Ok(Learned {
            keys,
            values,
            model,
            build_work: work.max(1),
        })
    }

    /// The model, for the per-index diagnostics (`Rmi::config`, …).
    pub(crate) fn model(&self) -> &M {
        &self.model
    }

    /// Cuts a model's window down to `lo <= hi <= len`.
    #[inline]
    fn clamp(&self, (lo, hi): (usize, usize)) -> (usize, usize) {
        let hi = hi.min(self.keys.len());
        (lo.min(hi), hi)
    }

    /// Widens a clamped window until it provably holds `key`'s lower bound
    /// `p`: `p >= lo` needs the key left of the window to be smaller,
    /// `p < hi` needs the window's last key not to be. An empty window at 0
    /// has no last key and claims `keys[0] >= key`, so `keys[0]` stands in.
    /// Two boundary reads; a side that fails falls back to that end of the
    /// array.
    #[inline]
    fn bracket(&self, (mut lo, mut hi): (usize, usize), key: u64) -> (usize, usize) {
        if lo > 0 && self.keys[lo - 1] >= key {
            lo = 0;
        }
        if hi < self.keys.len() && self.keys[hi.saturating_sub(1)] < key {
            hi = self.keys.len();
        }
        (lo, hi)
    }

    /// Position of the first key `>= key`: the model's window, validated,
    /// then searched.
    ///
    /// The last mile of a lone probe is `slice::partition_point` whatever
    /// the model and however long the window. A scalar conditional-move
    /// loop (the shape of [`crate::search::partition_point_by`]) was
    /// measured against it on windows of 2 to 4096 keys, cache-resident and
    /// not, and lost at every length (the standard search is itself
    /// branch-free), so the window's length has nothing to select between.
    pub fn lower_bound(&self, key: u64) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        let raw = self.model.window(self.model.route(key), key);
        let (lo, hi) = self.bracket(self.clamp(raw), key);
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }

    /// The value at lower bound `pos` if that is where `key` sits.
    #[inline]
    fn value_at(&self, pos: usize, key: u64) -> Option<u64> {
        (self.keys.get(pos) == Some(&key)).then(|| self.values[pos])
    }
}

impl<M: Model> BulkLoad for Learned<M> {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        Self::with_config(pairs, M::DEFAULT)
    }
}

const READ_ONLY: IndexError =
    IndexError::Unsupported("learned index is read-only; wrap in DeltaIndex for updates");

impl<M: Model> Index for Learned<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.value_at(self.lower_bound(key), key)
    }

    fn range(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        let from = self.lower_bound(start);
        let to = from.saturating_add(limit).min(self.keys.len());
        Ok(self.keys[from..to]
            .iter()
            .copied()
            .zip(self.values[from..to].iter().copied())
            .collect())
    }

    fn insert(&mut self, _key: u64, _value: u64) -> Result<Option<u64>> {
        Err(READ_ONLY)
    }

    fn delete(&mut self, _key: u64) -> Result<Option<u64>> {
        Err(READ_ONLY)
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn build_work(&self) -> u64 {
        self.build_work
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            // The sorted arrays are the dataset itself, but the index owns
            // copies here, so they count.
            size_bytes: self.keys.len() * 16 + self.model.size_bytes(),
            build_work: self.build_work,
            model_count: self.model.model_count(),
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        self.model.probe_cost(key)
    }

    /// Staged batch probe. One lookup chains dependent memory regions —
    /// the model's directory, the piece it routes to, the window's
    /// boundary keys, the window, the value — and each address depends on
    /// the previous read, so a lone [`Index::get`] takes its misses one
    /// after another. The probes of a batch are independent: each stage
    /// runs for the whole group and starts the loads the next stage reads,
    /// ending in the lockstep branchless last mile of
    /// [`lower_bound_group`].
    fn get_many(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        let n = self.keys.len();
        if n == 0 {
            out.resize(out.len() + keys.len(), None);
            return;
        }
        out.reserve(keys.len());
        let mut routes = [M::Route::default(); GROUP];
        let mut windows = [(0usize, 0usize); GROUP];
        let mut pos = [0usize; GROUP];
        for chunk in keys.chunks(GROUP) {
            let g = chunk.len();
            for &key in chunk {
                self.model.prefetch(key);
            }
            for (r, &key) in routes[..g].iter_mut().zip(chunk) {
                *r = self.model.route(key);
            }
            // Predict every window and start the loads of the two boundary
            // keys validation is about to read.
            for ((w, &r), &key) in windows[..g].iter_mut().zip(&routes[..g]).zip(chunk) {
                *w = self.clamp(self.model.window(r, key));
                prefetch_read(&self.keys[w.0.saturating_sub(1)]);
                prefetch_read(&self.keys[w.1.saturating_sub(1)]);
            }
            for (w, &key) in windows[..g].iter_mut().zip(chunk) {
                *w = self.bracket(*w, key);
            }
            lower_bound_group(&self.keys, chunk, &windows[..g], &mut pos[..g]);
            // The values are an allocation of their own: overlap the hits'
            // value misses before reading any of them.
            for &p in &pos[..g] {
                prefetch_read(&self.values[p.min(n - 1)]);
            }
            out.extend(
                pos[..g]
                    .iter()
                    .zip(chunk)
                    .map(|(&p, &k)| self.value_at(p, k)),
            );
        }
    }
}
