//! Branchless search with explicit state.
//!
//! Two loops in the classic "halve the size, conditionally move the base"
//! shape, which LLVM lowers to a conditional move instead of a
//! data-dependent branch:
//!
//! * [`partition_point_by`] searches where the probed element is not a
//!   bare key (PGM's segment directories);
//! * [`lower_bound_group`] is the payoff of the formulation: the explicit
//!   `(base, size)` state — impossible to express with
//!   `partition_point`'s callback — lets up to [`GROUP`] independent
//!   searches advance in lockstep with prefetch, turning one search's
//!   chain of dependent loads into memory-level parallelism across the
//!   group. `Learned::get_many`, the batched path of every learned index,
//!   ends in it.
//!
//! A *lone* probe over bare keys does not come here: its last mile is
//! `slice::partition_point` whatever the model and however long the window
//! (see [`crate::learned::Learned::lower_bound`]). The scalar `lower_bound`
//! / `upper_bound` / `binary_search` this module once offered for that
//! were measured against the standard search on windows of 2 to 4096 keys,
//! cache-resident and not, lost at every length (the standard search is
//! itself branch-free), and are gone.
//!
//! Semantics are pinned to the standard library: [`partition_point_by`]
//! equals `slice::partition_point`, and every lane of
//! [`lower_bound_group`] equals
//! `lo + keys[lo..hi].partition_point(|&k| k < query)`;
//! `tests/properties.rs` holds the property test.

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
        // SAFETY: `base + size <= items.len()` is a loop invariant (it
        // holds on entry and both updates preserve it), and `size >= 2`
        // here, so `mid - 1 = base + half - 1 < base + size <= len`.
        // Unchecked access keeps the panic path out of the loop so the
        // comparison compiles to a conditional move, not a branch.
        base = if pred(unsafe { items.get_unchecked(mid - 1) }) {
            mid
        } else {
            base
        };
        size -= half;
    }
    // SAFETY: `base < items.len()` — `base` only ever takes values
    // `mid <= len - 1` and started at 0 on a non-empty slice.
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
                // of `partition_point_by` holds per lane (asserted on
                // entry, preserved by both updates), and `size >= 2` here.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One window over all of `keys`, through the group search.
    fn group_lower_bound(keys: &[u64], key: u64) -> usize {
        let mut out = [0];
        lower_bound_group(keys, &[key], &[(0, keys.len())], &mut out);
        out[0]
    }

    #[test]
    fn empty_slice() {
        assert_eq!(partition_point_by::<u64>(&[], |_| true), 0);
        assert_eq!(group_lower_bound(&[], 5), 0);
    }

    #[test]
    fn single_element() {
        for (key, lower, upper) in [(6, 0, 0), (7, 0, 1), (8, 1, 1)] {
            assert_eq!(partition_point_by(&[7u64], |&k| k < key), lower);
            assert_eq!(partition_point_by(&[7u64], |&k| k <= key), upper);
            assert_eq!(group_lower_bound(&[7], key), lower);
        }
    }

    #[test]
    fn matches_partition_point_on_duplicates() {
        let keys = [1u64, 3, 3, 3, 9, 9, 12];
        for key in 0..15u64 {
            let lower = keys.partition_point(|&k| k < key);
            assert_eq!(partition_point_by(&keys, |&k| k < key), lower, "< {key}");
            assert_eq!(group_lower_bound(&keys, key), lower, "group {key}");
            assert_eq!(
                partition_point_by(&keys, |&k| k <= key),
                keys.partition_point(|&k| k <= key),
                "<= {key}"
            );
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
