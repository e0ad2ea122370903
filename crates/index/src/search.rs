//! Branchless last-mile search.
//!
//! Every learned index in this crate ends its probe with a short sorted
//! scan: the RMI error window, the PGM/spline predicted window. The
//! loops here keep the classic "halve the size, conditionally move the
//! base" shape (Alexandrescu-style branchless lower bound) which LLVM
//! lowers to a conditional move instead of a data-dependent branch.
//!
//! The trade-off, as first measured (ISSUE 9; `perf/` tracks
//! `index.*.get_ns` and `index.*.get_many_ns` now): on *resident* data
//! the cmov loop beats `slice::partition_point` (no mispredict flushes
//! on random probe keys), but on a memory-bound search the cmov makes
//! every load's address depend on the previous load, while a branchy
//! search lets the CPU speculate ahead and overlap the misses. So the
//! scalar functions serve short windows ([`crate::learned::Learned`]
//! picks by the validated window's length), and the real
//! payoff is [`lower_bound_group`]: the explicit `(base, size)` state —
//! impossible to express with `partition_point`'s callback — lets up to
//! [`GROUP`] independent searches advance in lockstep with prefetch,
//! turning the dependent-load problem into memory-level parallelism.
//! `Learned::get_many`, the batched path of every learned index, ends in it.
//!
//! Semantics are pinned to the standard library: [`lower_bound`] equals
//! `slice::partition_point(|&k| k < key)`, [`upper_bound`] equals
//! `slice::partition_point(|&k| k <= key)`, and [`binary_search`]
//! matches `slice::binary_search` on `Ok`/`Err` (on slices with
//! duplicates the stdlib may return *any* matching index; this one
//! always returns the first — both are valid `Ok` answers).
//! `tests/properties.rs` holds the property tests.

/// First index `i` such that `keys[i] >= key` (i.e. the insertion point
/// keeping the slice sorted, before any run of equal keys).
///
/// Equivalent to `keys.partition_point(|&k| k < key)`.
#[inline]
pub fn lower_bound(keys: &[u64], key: u64) -> usize {
    let mut size = keys.len();
    if size == 0 {
        return 0;
    }
    let mut base = 0usize;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        // SAFETY: `base + size <= keys.len()` is a loop invariant (it
        // holds on entry and both updates preserve it), and `size >= 2`
        // here, so `mid - 1 = base + half - 1 < base + size <= len`.
        // Unchecked access keeps the panic path out of the loop so the
        // comparison compiles to a conditional move, not a branch.
        let probe = unsafe { *keys.get_unchecked(mid - 1) };
        base = if probe < key { mid } else { base };
        size -= half;
    }
    // SAFETY: `base < keys.len()` — `base` only ever takes values
    // `mid <= len - 1` and started at 0 on a non-empty slice.
    base + usize::from(unsafe { *keys.get_unchecked(base) } < key)
}

/// First index `i` such that `keys[i] > key` (insertion point after any
/// run of equal keys).
///
/// Equivalent to `keys.partition_point(|&k| k <= key)`.
#[inline]
pub fn upper_bound(keys: &[u64], key: u64) -> usize {
    let mut size = keys.len();
    if size == 0 {
        return 0;
    }
    let mut base = 0usize;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        // SAFETY: same invariant as `lower_bound` — `mid - 1` is in
        // bounds while `size >= 2` and `base + size <= keys.len()`.
        let probe = unsafe { *keys.get_unchecked(mid - 1) };
        base = if probe <= key { mid } else { base };
        size -= half;
    }
    // SAFETY: `base < keys.len()`, as in `lower_bound`.
    base + usize::from(unsafe { *keys.get_unchecked(base) } <= key)
}

/// Branchless generalization of `slice::partition_point`: first index at
/// which `pred` turns false, assuming the slice is partitioned (all
/// `true` items precede all `false` items).
///
/// Used where the probed element is not a bare key — PGM segment
/// directories (`s.first_key <= key`) and spline knot arrays
/// (`sp.key <= key`).
#[inline]
pub fn partition_point_by<T>(items: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut size = items.len();
    if size == 0 {
        return 0;
    }
    let mut base = 0usize;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        // SAFETY: same invariant as `lower_bound` — `mid - 1` is in
        // bounds while `size >= 2` and `base + size <= items.len()`.
        base = if pred(unsafe { items.get_unchecked(mid - 1) }) {
            mid
        } else {
            base
        };
        size -= half;
    }
    // SAFETY: `base < items.len()`, as in `lower_bound`.
    base + usize::from(pred(unsafe { items.get_unchecked(base) }))
}

/// Probes advanced per round by every batched path in this crate, and the
/// most [`lower_bound_group`] accepts per call. Big enough to cover the
/// memory parallelism a core can sustain, small enough to stay in
/// registers/L1.
pub const GROUP: usize = 16;

/// Lockstep batch of lower bounds: `out[i]` becomes the first index in
/// `windows[i] = [lo, hi)` (absolute into `keys`) at which
/// `keys[out[i]] >= queries[i]`, i.e. exactly
/// `lo + keys[lo..hi].partition_point(|&k| k < queries[i])`.
///
/// This is the payoff of the branchless formulation: because each search
/// carries explicit `(base, size)` state instead of hiding it in a call
/// stack, up to [`GROUP`] independent searches advance one halving step
/// per round, and each step prefetches its next probe address. One
/// search's probe loads are serially dependent; across the group the
/// round's loads are independent, so their cache misses overlap
/// (memory-level parallelism) instead of queueing one at a time.
///
/// All slices must share a length `g <= GROUP`; windows must satisfy
/// `lo <= hi <= keys.len()`.
pub fn lower_bound_group(
    keys: &[u64],
    queries: &[u64],
    windows: &[(usize, usize)],
    out: &mut [usize],
) {
    let g = queries.len();
    assert!(g <= GROUP, "group too large: {g} > {GROUP}");
    assert!(
        windows.len() == g && out.len() == g,
        "slice length mismatch"
    );
    let mut base = [0usize; GROUP];
    let mut size = [0usize; GROUP];
    let mut pending = 0usize;
    for i in 0..g {
        let (lo, hi) = windows[i];
        assert!(lo <= hi && hi <= keys.len(), "window out of bounds");
        base[i] = lo;
        size[i] = hi - lo;
        if size[i] > 1 {
            pending += 1;
            crate::prefetch_read(&keys[lo + size[i] / 2 - 1]);
        }
    }
    while pending > 0 {
        for i in 0..g {
            if size[i] > 1 {
                let half = size[i] / 2;
                let mid = base[i] + half;
                // SAFETY: the `base + size <= hi <= keys.len()` invariant
                // from `lower_bound` holds per lane (asserted on entry,
                // preserved by both updates), and `size >= 2` here.
                let probe = unsafe { *keys.get_unchecked(mid - 1) };
                base[i] = if probe < queries[i] { mid } else { base[i] };
                size[i] -= half;
                if size[i] > 1 {
                    // SAFETY: same invariant; `base + size/2 - 1 < keys.len()`.
                    crate::prefetch_read(unsafe { keys.get_unchecked(base[i] + size[i] / 2 - 1) });
                } else {
                    pending -= 1;
                }
            }
        }
    }
    for i in 0..g {
        // Empty windows resolve to `lo`; the short-circuit keeps the
        // `keys[base]` read guarded.
        out[i] = base[i] + usize::from(size[i] == 1 && keys[base[i]] < queries[i]);
    }
}

/// Branchless `slice::binary_search`: `Ok(i)` with `keys[i] == key`
/// (first match) or `Err(i)` with the insertion point.
#[inline]
pub fn binary_search(keys: &[u64], key: u64) -> Result<usize, usize> {
    let i = lower_bound(keys, key);
    if i < keys.len() && keys[i] == key {
        Ok(i)
    } else {
        Err(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice() {
        assert_eq!(lower_bound(&[], 5), 0);
        assert_eq!(upper_bound(&[], 5), 0);
        assert_eq!(binary_search(&[], 5), Err(0));
        assert_eq!(partition_point_by::<u64>(&[], |_| true), 0);
    }

    #[test]
    fn single_element() {
        assert_eq!(lower_bound(&[7], 6), 0);
        assert_eq!(lower_bound(&[7], 7), 0);
        assert_eq!(lower_bound(&[7], 8), 1);
        assert_eq!(upper_bound(&[7], 6), 0);
        assert_eq!(upper_bound(&[7], 7), 1);
        assert_eq!(upper_bound(&[7], 8), 1);
        assert_eq!(binary_search(&[7], 7), Ok(0));
        assert_eq!(binary_search(&[7], 8), Err(1));
    }

    #[test]
    fn matches_partition_point_on_duplicates() {
        let keys = [1u64, 3, 3, 3, 9, 9, 12];
        for key in 0..15u64 {
            assert_eq!(
                lower_bound(&keys, key),
                keys.partition_point(|&k| k < key),
                "lower_bound({key})"
            );
            assert_eq!(
                upper_bound(&keys, key),
                keys.partition_point(|&k| k <= key),
                "upper_bound({key})"
            );
        }
    }

    #[test]
    fn binary_search_err_matches_std() {
        let keys = [2u64, 4, 8, 16, 32];
        for key in 0..40u64 {
            match (binary_search(&keys, key), keys.binary_search(&key)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "unique keys must agree on Ok index for {key}")
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "Err index for {key}"),
                (a, b) => panic!("Ok/Err disagreement for {key}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn partition_point_by_on_structs() {
        let items = [(1u64, 'a'), (5, 'b'), (9, 'c')];
        assert_eq!(partition_point_by(&items, |p| p.0 <= 5), 2);
        assert_eq!(partition_point_by(&items, |p| p.0 < 1), 0);
        assert_eq!(partition_point_by(&items, |p| p.0 <= 99), 3);
    }
}
