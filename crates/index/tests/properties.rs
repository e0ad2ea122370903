//! Property tests: every index implementation must agree with a reference
//! `BTreeMap` model, and learned-model invariants must hold for arbitrary
//! key sets.

use lsbench_index::alex::AlexIndex;
use lsbench_index::btree::BPlusTree;
use lsbench_index::delta::DeltaIndex;
use lsbench_index::hash::HashIndex;
use lsbench_index::learned::{Learned, Model};
use lsbench_index::model::{pla_segments, LinearModel};
use lsbench_index::pgm::PgmIndex;
use lsbench_index::rmi::Rmi;
use lsbench_index::search::{lower_bound_group, GROUP};
use lsbench_index::sorted_array::SortedArray;
use lsbench_index::spline::RadixSpline;
use lsbench_index::{BulkLoad, Index};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Sorted unique pairs in one of three shapes: keys scattered over the
/// whole key space; a dense run `k, k+1, …` (a slope of exactly 1, under
/// which any probe far above the run predicts a position past every
/// integer); keys up against the top of `u64`.
fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop_oneof![
        prop::collection::btree_set(any::<u64>(), 0..400)
            .prop_map(|set| set.into_iter().collect::<Vec<u64>>()),
        (0u64..1 << 40, 0u64..400).prop_map(|(k, n)| (k..k + n).collect()),
        prop::collection::btree_set(0u64..2000, 0..400).prop_map(|set| set
            .into_iter()
            .rev()
            .map(|d| u64::MAX - d)
            .collect()),
    ]
    .prop_map(|keys| keys.into_iter().map(|k| (k, k.wrapping_mul(31))).collect())
}

fn check_against_model<I: Index>(idx: &I, model: &BTreeMap<u64, u64>, probes: &[u64]) {
    assert_eq!(idx.len(), model.len(), "{} len", idx.name());
    let mut batch = Vec::new();
    idx.get_many(probes, &mut batch);
    let expected: Vec<Option<u64>> = probes.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(batch, expected, "{} get_many", idx.name());
    for &k in probes {
        assert_eq!(
            idx.get(k),
            model.get(&k).copied(),
            "{} get({k})",
            idx.name()
        );
    }
    for (&k, &v) in model.iter().take(50) {
        assert_eq!(idx.get(k), Some(v), "{} get(existing {k})", idx.name());
    }
}

/// What `idx.range_into(start, limit, out)` appends to an `out` that
/// already holds rows, having checked that it kept them.
fn appended<I: Index>(idx: &I, start: u64, limit: usize) -> Vec<(u64, u64)> {
    // Out of order and ending on the largest key, so that a scan that read
    // them as its own rows would stop or skip.
    let held = [(9, 1), (u64::MAX, 2)];
    let mut out = held.to_vec();
    idx.range_into(start, limit, &mut out).unwrap();
    assert_eq!(
        out[..2],
        held,
        "{} range_into({start}, {limit}) kept",
        idx.name()
    );
    out.split_off(2)
}

/// Scans from each of `starts`, and from both ends of `u64`, return what
/// `model` holds there, for no row, one, some and every row there is, and
/// `range_into` appends the same rows after what its buffer held.
fn check_range_against_model<I: Index>(idx: &I, model: &BTreeMap<u64, u64>, starts: &[u64]) {
    for &s in starts.iter().chain(&[0, u64::MAX]) {
        for limit in [0, 1, 20, usize::MAX] {
            let expected: Vec<(u64, u64)> = model
                .range(s..)
                .take(limit)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(
                idx.range(s, limit).unwrap(),
                expected,
                "{} range({s}, {limit})",
                idx.name()
            );
            assert_eq!(
                appended(idx, s, limit),
                expected,
                "{} range_into({s}, {limit})",
                idx.name()
            );
        }
    }
}

/// The keys worth probing around `live`: every key in it, the absent
/// neighbours on both sides of each (the gaps), below its minimum and above
/// its maximum, both ends of `u64`, and `touched` — keys a caller wrote or
/// deleted, wherever they are now.
fn probe_pool(live: &BTreeMap<u64, u64>, touched: &[u64]) -> Vec<u64> {
    let mut pool = vec![0, u64::MAX];
    pool.extend_from_slice(touched);
    for &k in live.keys() {
        pool.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    if let (Some(&min), Some(&max)) = (live.keys().next(), live.keys().next_back()) {
        pool.extend([min / 2, max / 2 + u64::MAX / 2]);
    }
    pool
}

/// The batched reads of `idx` are its scalar reads, slot for slot:
/// `get_many` appends `get` of every key, `probe_many` that and
/// `probe_cost` of every key, and neither disturbs what the vectors held —
/// on batches of every length around the group size of the staged
/// pipelines, `picks` choosing the keys from `pool`.
fn check_batched_equals_scalar<I: Index>(
    idx: &I,
    live: &BTreeMap<u64, u64>,
    pool: &[u64],
    picks: &[u64],
) {
    let who = idx.name();
    for len in [0usize, 1, 15, 16, 17, 64, 100] {
        let keys: Vec<u64> = (0..len)
            .map(|j| pool[picks[(j + len) % picks.len()] as usize % pool.len()])
            .collect();
        let gets: Vec<Option<u64>> = keys.iter().map(|&k| idx.get(k)).collect();
        let expected: Vec<Option<u64>> = keys.iter().map(|k| live.get(k).copied()).collect();
        assert_eq!(gets, expected, "{who} get, {len} keys");
        let probe_costs: Vec<u64> = keys.iter().map(|&k| idx.probe_cost(k)).collect();

        let (held_hits, held_costs) = ([Some(7), None, Some(9)], [u64::MAX, 3]);
        let mut out = held_hits.to_vec();
        idx.get_many(&keys, &mut out);
        assert_eq!(out[..3], held_hits, "{who} get_many kept, {len} keys");
        assert_eq!(out[3..], gets, "{who} get_many, {len} keys {keys:?}");

        let (mut hits, mut costs) = (held_hits.to_vec(), held_costs.to_vec());
        idx.probe_many(&keys, &mut hits, &mut costs);
        assert_eq!(hits[..3], held_hits, "{who} probe_many kept hits");
        assert_eq!(costs[..2], held_costs, "{who} probe_many kept costs");
        assert_eq!(
            hits[3..],
            gets,
            "{who} probe_many hits, {len} keys {keys:?}"
        );
        assert_eq!(
            costs[2..],
            probe_costs,
            "{who} probe_many costs, {len} keys {keys:?}"
        );
    }
}

/// Bulk-loads the four indexes that are only ever loaded and the three that
/// are updated in place, applies `writes` (`Some(value)` inserts, `None`
/// deletes) to the latter, and holds all seven to
/// [`check_batched_equals_scalar`].
fn check_batched_reads_everywhere(
    base: &[(u64, u64)],
    writes: &[(u64, Option<u64>)],
    picks: &[u64],
) {
    fn loaded<I: Index + BulkLoad>(base: &[(u64, u64)], live: &BTreeMap<u64, u64>, picks: &[u64]) {
        let pool = probe_pool(live, &[]);
        check_batched_equals_scalar(&I::bulk_load(base).unwrap(), live, &pool, picks);
    }
    let loaded_pairs: BTreeMap<u64, u64> = base.iter().copied().collect();
    loaded::<Rmi>(base, &loaded_pairs, picks);
    loaded::<PgmIndex>(base, &loaded_pairs, picks);
    loaded::<RadixSpline>(base, &loaded_pairs, picks);
    loaded::<SortedArray>(base, &loaded_pairs, picks);

    let mut live = loaded_pairs;
    let mut bt = BPlusTree::with_fanout(6);
    for &(k, v) in base {
        bt.insert(k, v).unwrap();
    }
    let mut al = AlexIndex::bulk_load(base).unwrap();
    let mut h = HashIndex::bulk_load(base).unwrap();
    for &(key, write) in writes {
        let expect = match write {
            Some(value) => live.insert(key, value),
            None => live.remove(&key),
        };
        for idx in [&mut bt as &mut dyn Index, &mut al, &mut h] {
            let got = match write {
                Some(value) => idx.insert(key, value),
                None => idx.delete(key),
            };
            assert_eq!(got.unwrap(), expect, "{} write {key}", idx.name());
        }
    }
    let touched: Vec<u64> = writes.iter().map(|w| w.0).collect();
    let pool = probe_pool(&live, &touched);
    check_batched_equals_scalar(&bt, &live, &pool, picks);
    check_batched_equals_scalar(&al, &live, &pool, picks);
    check_batched_equals_scalar(&h, &live, &pool, picks);
}

/// Leaves emptied by deletes, a leaf split by a burst of inserts, and
/// batches that cross both: two whole bulk-loaded ALEX leaves (256 keys
/// each) lose every key, and 1200 fresh keys land inside a third.
#[test]
fn batched_reads_cross_emptied_and_split_leaves() {
    let base: Vec<(u64, u64)> = (0..2000u64).map(|i| (500 + i * 100, i)).collect();
    let mut writes: Vec<(u64, Option<u64>)> = base[256..768].iter().map(|p| (p.0, None)).collect();
    writes.extend((0..1200u64).map(|i| (120_001 + i * 7, Some(i))));
    // Keys of the emptied leaves, of the split one and of untouched ones.
    let picks: Vec<u64> = (0..100u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect();
    check_batched_reads_everywhere(&base, &writes, &picks);
    // The same with the pool narrowed to the emptied leaves alone.
    let live: BTreeMap<u64, u64> = base[..256].iter().chain(&base[768..]).copied().collect();
    let mut al = AlexIndex::bulk_load(&base).unwrap();
    for &(k, _) in &base[256..768] {
        al.delete(k).unwrap();
    }
    let emptied: Vec<u64> = base[250..775].iter().flat_map(|p| [p.0, p.0 + 1]).collect();
    check_batched_equals_scalar(&al, &live, &emptied, &picks);
}

/// A model that never looked at the data: the window it returns is a hash
/// of the key — empty, saturated, inverted, everything, or two arbitrary
/// positions in either order and on either side of the array's end.
#[derive(Debug)]
struct Liar;

impl Model for Liar {
    type Config = ();
    type Route = ();
    const NAME: &'static str = "liar";
    const DEFAULT: () = ();

    fn fit(_keys: &[u64], _config: ()) -> lsbench_index::Result<(Self, u64)> {
        Ok((Liar, 0))
    }

    fn route(&self, _key: u64) {}

    fn window(&self, _route: (), key: u64) -> (usize, usize) {
        let h = (key ^ key >> 29).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (a, b) = ((h >> 8) as usize % 300, (h >> 24) as usize % 300);
        match h >> 60 {
            0 | 1 => (a, a),
            2 => (usize::MAX, usize::MAX),
            3 | 4 => (a.max(b) + 1, a.min(b)),
            5 => (0, usize::MAX),
            6 => (0, 0),
            _ => (a, b),
        }
    }

    fn probe_cost(&self, _key: u64) -> u64 {
        1
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn model_count(&self) -> usize {
        1
    }
}

/// Keys from the bottom of `u64`, anywhere, and its top 64 values.
fn arb_edge_key() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        any::<u64>(),
        (0u64..64).prop_map(|d| u64::MAX - d)
    ]
}

/// Bulk-loads each read-only learned index over `pairs` and compares point,
/// batched and range reads at `probes` with a `BTreeMap`.
fn check_learned_indexes(pairs: &[(u64, u64)], probes: &[u64]) {
    fn check<I: Index + BulkLoad>(pairs: &[(u64, u64)], probes: &[u64]) {
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let idx = I::bulk_load(pairs).unwrap();
        check_against_model(&idx, &model, probes);
        check_range_against_model(&idx, &model, probes);
    }
    check::<Rmi>(pairs, probes);
    check::<PgmIndex>(pairs, probes);
    check::<RadixSpline>(pairs, probes);
}

/// A probe far above a dense run predicts a position no integer holds; the
/// RMI's unchecked `+ 1` on it overflowed (debug) or indexed `keys[-1]`
/// (release). Its lower bound is the end of the array, not the start.
#[test]
fn probes_far_above_dense_keys_find_the_end() {
    let pairs: Vec<(u64, u64)> = (0..5000).map(|k| (k, k)).collect();
    check_learned_indexes(&pairs, &[u64::MAX, 3, u64::MAX - 1, 5000, 1 << 63]);
}

/// Above 2^53 two keys can be closer than an `f64` ulp. Subtracting after
/// converting made them look like duplicates: one-key PLA segments, levels
/// that never shrank, and a PGM build that allocated until it was killed.
#[test]
fn keys_closer_than_an_f64_ulp_build_and_answer() {
    let top = [(u64::MAX - 1, 0), (u64::MAX, 1)];
    check_learned_indexes(&top, &[0, u64::MAX - 2, u64::MAX - 1, u64::MAX]);
    let ids: Vec<(u64, u64)> = (0..100_000).map(|k| ((1 << 60) + 10 * k, k)).collect();
    let mut probes: Vec<u64> = ids.iter().step_by(1999).map(|p| p.0).collect();
    probes.extend(ids.iter().step_by(2999).map(|p| p.0 + 1));
    probes.extend([0, (1 << 60) - 1, u64::MAX]);
    check_learned_indexes(&ids, &probes);
}

#[test]
fn linear_keys_are_one_segment_at_any_offset() {
    for offset in [0, 1 << 53, 1 << 60, u64::MAX - 2000] {
        let pairs: Vec<(u64, u64)> = (0..1000).map(|k| (offset + 2 * k, k)).collect();
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let segments = pla_segments(&keys, 32.0).len();
        assert!(segments <= 2, "{segments} PLA segments at offset {offset}");
        let points = RadixSpline::bulk_load(&pairs).unwrap().spline_points();
        assert!(points <= 3, "{points} spline points at offset {offset}");
    }
}

/// A window `lo <= hi <= len` drawn by `shape` from empty, one key, two
/// keys, the whole slice and any length, at any start that fits.
fn draw_window(len: usize, (shape, start, width): (u8, usize, usize)) -> (usize, usize) {
    let width = [0, 1, 2, len, width % (len + 1)][shape as usize % 5].min(len);
    let lo = start % (len - width + 1);
    (lo, lo + width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every lane of the lockstep search is the standard search over its
    /// own window, on sorted slices with duplicates and groups of 1 to
    /// `GROUP` lanes whose windows are drawn independently.
    #[test]
    fn lower_bound_group_matches_std_on_any_windows(
        mut keys in prop::collection::vec(0u64..2_000, 0..400),
        lanes in prop::collection::vec(
            (0u64..2_100, (any::<u8>(), any::<usize>(), any::<usize>())),
            1..=GROUP,
        ),
    ) {
        keys.sort_unstable();
        let queries: Vec<u64> = lanes.iter().map(|l| l.0).collect();
        let windows: Vec<(usize, usize)> =
            lanes.iter().map(|l| draw_window(keys.len(), l.1)).collect();
        let mut got = vec![usize::MAX; lanes.len()];
        lower_bound_group(&keys, &queries, &windows, &mut got);
        for (i, (&key, &(lo, hi))) in queries.iter().zip(&windows).enumerate() {
            let want = lo + keys[lo..hi].partition_point(|&k| k < key);
            prop_assert_eq!(got[i], want, "lane {} for key {} over [{}, {})", i, key, lo, hi);
        }
    }
}

/// One transition of the [`DeltaIndex`] state machine.
#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u64, u64),
    Delete(u64),
    Get(u64),
    Retrain,
}

impl Step {
    /// Maps a drawn `(kind, pick, value)` to a step whose key is one of
    /// the base's own (so base rows get overwritten and tombstoned), one
    /// of a few fresh low keys (so buffered keys are hit again: delete of
    /// a buffered key, tombstone → reinsert → delete), or one of the four
    /// largest keys there are (where a scan must not step past the end).
    fn draw(base: &[(u64, u64)], (kind, pick, value): (u8, u64, u64)) -> Step {
        let key = match pick % 4 {
            0 | 1 if !base.is_empty() => base[(pick / 4) as usize % base.len()].0,
            2 => u64::MAX - (pick / 4) % 4,
            _ => (pick / 4) % 48,
        };
        match kind % 32 {
            0..=13 => Step::Insert(key, value),
            14..=26 => Step::Delete(key),
            27..=30 => Step::Get(key),
            _ => Step::Retrain,
        }
    }
}

/// Drives a `DeltaIndex<I>` and a `BTreeMap` oracle through `steps`,
/// comparing everything observable after every one of them.
fn run_delta_machine<I: Index + BulkLoad>(
    base: &[(u64, u64)],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut idx: DeltaIndex<I> = DeltaIndex::build(base).unwrap();
    let who = idx.base().name();
    // The oracle: the live pairs, plus what `pending()` counts — keys
    // written since the last retrain and keys of that retrain's base
    // deleted since.
    let mut live: BTreeMap<u64, u64> = base.iter().copied().collect();
    let mut merged: BTreeSet<u64> = live.keys().copied().collect();
    let mut written: BTreeSet<u64> = BTreeSet::new();
    let mut dead: BTreeSet<u64> = BTreeSet::new();

    let mut probes: Vec<u64> = base
        .iter()
        .step_by(base.len() / 16 + 1)
        .map(|p| p.0)
        .collect();
    probes.extend(0..48);
    probes.extend(u64::MAX - 3..=u64::MAX);

    for (n, &step) in steps.iter().enumerate() {
        let at = format!("{who} step {n} {step:?}");
        let touched = match step {
            Step::Insert(key, value) => {
                prop_assert_eq!(
                    idx.insert(key, value).unwrap(),
                    live.insert(key, value),
                    "{}",
                    at
                );
                dead.remove(&key);
                written.insert(key);
                key
            }
            Step::Delete(key) => {
                prop_assert_eq!(idx.delete(key).unwrap(), live.remove(&key), "{}", at);
                written.remove(&key);
                if merged.contains(&key) {
                    dead.insert(key);
                }
                key
            }
            Step::Get(key) => key,
            Step::Retrain => {
                idx.retrain().unwrap();
                merged = live.keys().copied().collect();
                written.clear();
                dead.clear();
                0
            }
        };
        prop_assert_eq!(idx.len(), live.len(), "{} len", at);
        prop_assert_eq!(idx.pending(), written.len() + dead.len(), "{} pending", at);
        // The modelled footprint: 16 bytes per buffered pair, 8 per tombstone.
        prop_assert_eq!(
            idx.stats().size_bytes,
            idx.base().stats().size_bytes + written.len() * 16 + dead.len() * 8,
            "{} size_bytes",
            at
        );

        probes.push(touched);
        let mut batch = Vec::new();
        idx.get_many(&probes, &mut batch);
        prop_assert_eq!(batch.len(), probes.len(), "{} get_many length", at);
        for (&key, &slot) in probes.iter().zip(&batch) {
            prop_assert_eq!(idx.get(key), live.get(&key).copied(), "{} get({})", at, key);
            prop_assert_eq!(slot, idx.get(key), "{} get_many slot of {}", at, key);
        }
        probes.pop();

        // Scans from below, inside and above the live key span.
        let mut starts = vec![0, touched, u64::MAX];
        starts.extend(live.keys().nth(live.len() / 2));
        starts.extend(live.keys().next_back().and_then(|k| k.checked_add(1)));
        for &start in &starts {
            for limit in [0, 1, 20, live.len() + 5, usize::MAX] {
                let expected: Vec<(u64, u64)> = live
                    .range(start..)
                    .take(limit)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                prop_assert_eq!(
                    idx.range(start, limit).unwrap(),
                    expected.clone(),
                    "{} range({}, {})",
                    at,
                    start,
                    limit
                );
                prop_assert_eq!(
                    appended(&idx, start, limit),
                    expected,
                    "{} range_into({}, {})",
                    at,
                    start,
                    limit
                );
            }
        }
    }
    Ok(())
}

/// The failing cases proptest once found for the previous form of
/// `delta_index_follows_op_sequence` (`op % 3` picks insert / delete /
/// get, one retrain before op `retrain_at`), read back from the
/// checked-in regressions file and replayed through the state machine.
#[test]
fn delta_index_regression_seeds_replay() {
    fn numbers(text: &str) -> Vec<u64> {
        text.split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect()
    }
    let mut replayed = 0;
    for line in include_str!("properties.proptest-regressions").lines() {
        let Some((_, case)) = line.split_once("shrinks to base = [") else {
            continue;
        };
        let (base, rest) = case.split_once("], ops = [").unwrap();
        let (ops, retrain_at) = rest.split_once("], retrain_at = ").unwrap();
        let base: Vec<(u64, u64)> = numbers(base).chunks(2).map(|p| (p[0], p[1])).collect();
        let retrain_at = numbers(retrain_at)[0] as usize;
        let mut steps = Vec::new();
        for (i, op) in numbers(ops).chunks(3).enumerate() {
            if i == retrain_at {
                steps.push(Step::Retrain);
            }
            steps.push(match op[0] % 3 {
                0 => Step::Insert(op[1], op[2]),
                1 => Step::Delete(op[1]),
                _ => Step::Get(op[1]),
            });
        }
        steps.push(Step::Retrain);
        run_delta_machine::<Rmi>(&base, &steps).unwrap();
        run_delta_machine::<PgmIndex>(&base, &steps).unwrap();
        run_delta_machine::<RadixSpline>(&base, &steps).unwrap();
        replayed += 1;
    }
    assert_eq!(replayed, 1, "every checked-in seed is replayed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn read_only_indexes_agree(pairs in arb_pairs(), probes in prop::collection::vec(any::<u64>(), 20)) {
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let starts: Vec<u64> = probes.iter().take(5).copied().collect();

        let rmi = Rmi::bulk_load(&pairs).unwrap();
        check_against_model(&rmi, &model, &probes);
        check_range_against_model(&rmi, &model, &starts);

        let pgm = PgmIndex::bulk_load(&pairs).unwrap();
        check_against_model(&pgm, &model, &probes);
        check_range_against_model(&pgm, &model, &starts);

        let rs = RadixSpline::bulk_load(&pairs).unwrap();
        check_against_model(&rs, &model, &probes);
        check_range_against_model(&rs, &model, &starts);

        let bt = BPlusTree::bulk_load(&pairs).unwrap();
        check_against_model(&bt, &model, &probes);
        check_range_against_model(&bt, &model, &starts);

        let sa = SortedArray::bulk_load(&pairs).unwrap();
        check_against_model(&sa, &model, &probes);
        check_range_against_model(&sa, &model, &starts);

        let al = AlexIndex::bulk_load(&pairs).unwrap();
        check_against_model(&al, &model, &probes);
        check_range_against_model(&al, &model, &starts);

        let h = HashIndex::bulk_load(&pairs).unwrap();
        check_against_model(&h, &model, &probes);
        let mut out = vec![(1, 2)];
        prop_assert!(h.range_into(0, 5, &mut out).is_err(), "hash scans");
        prop_assert_eq!(out, vec![(1, 2)], "a refused scan appends nothing");
    }

    #[test]
    fn a_lying_model_cannot_make_the_array_wrong(
        keys in prop::collection::btree_set(arb_edge_key(), 0..200),
        probes in prop::collection::vec(arb_edge_key(), 40),
    ) {
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect();
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let idx = Learned::<Liar>::bulk_load(&pairs).unwrap();
        // 40 probes: two full groups of the batched path and a part of one.
        check_against_model(&idx, &model, &probes);
        check_range_against_model(&idx, &model, &probes);
        for &p in &probes {
            prop_assert_eq!(idx.lower_bound(p), model.range(..p).count(), "lower_bound({})", p);
        }
    }

    #[test]
    fn mutable_indexes_follow_op_sequence(
        ops in prop::collection::vec((any::<u8>(), 0u64..2000, any::<u64>()), 1..600),
    ) {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut bt = BPlusTree::with_fanout(6);
        let mut al = AlexIndex::new();
        let mut sa = SortedArray::new();
        let mut h = HashIndex::new();
        for &(op, key, value) in &ops {
            match op % 3 {
                0 => {
                    let expect = model.insert(key, value);
                    prop_assert_eq!(bt.insert(key, value).unwrap(), expect, "btree insert");
                    prop_assert_eq!(al.insert(key, value).unwrap(), expect, "alex insert");
                    prop_assert_eq!(sa.insert(key, value).unwrap(), expect, "sorted insert");
                    prop_assert_eq!(h.insert(key, value).unwrap(), expect, "hash insert");
                }
                1 => {
                    let expect = model.remove(&key);
                    prop_assert_eq!(bt.delete(key).unwrap(), expect, "btree delete");
                    prop_assert_eq!(al.delete(key).unwrap(), expect, "alex delete");
                    prop_assert_eq!(sa.delete(key).unwrap(), expect, "sorted delete");
                    prop_assert_eq!(h.delete(key).unwrap(), expect, "hash delete");
                }
                _ => {
                    let expect = model.get(&key).copied();
                    prop_assert_eq!(bt.get(key), expect, "btree get");
                    prop_assert_eq!(al.get(key), expect, "alex get");
                    prop_assert_eq!(sa.get(key), expect, "sorted get");
                    prop_assert_eq!(h.get(key), expect, "hash get");
                }
            }
        }
        prop_assert_eq!(bt.len(), model.len());
        prop_assert_eq!(al.len(), model.len());
        // Scans agree, from below, inside and above the keys written.
        let starts: Vec<u64> = ops.iter().take(8).map(|op| op.1).collect();
        check_range_against_model(&bt, &model, &starts);
        check_range_against_model(&al, &model, &starts);
        check_range_against_model(&sa, &model, &starts);
    }

    #[test]
    fn batched_reads_equal_scalar_reads(
        base in arb_pairs(),
        draws in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..300),
        picks in prop::collection::vec(any::<u64>(), 100),
    ) {
        // The write steps of the `DeltaIndex` machine: keys of the base, a
        // few fresh low ones written and deleted again and again, the top
        // of `u64`.
        let writes: Vec<(u64, Option<u64>)> = draws
            .iter()
            .filter_map(|&d| match Step::draw(&base, d) {
                Step::Insert(key, value) => Some((key, Some(value))),
                Step::Delete(key) => Some((key, None)),
                Step::Get(_) | Step::Retrain => None,
            })
            .collect();
        check_batched_reads_everywhere(&base, &writes, &picks);
    }

    #[test]
    fn delta_index_follows_op_sequence(
        base in arb_pairs(),
        draws in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..160),
    ) {
        let steps: Vec<Step> = draws.iter().map(|&d| Step::draw(&base, d)).collect();
        run_delta_machine::<Rmi>(&base, &steps)?;
        run_delta_machine::<PgmIndex>(&base, &steps)?;
        run_delta_machine::<RadixSpline>(&base, &steps)?;
    }

    #[test]
    fn pla_epsilon_invariant(keys in prop::collection::btree_set(any::<u64>(), 1..500), eps in 0.5f64..128.0) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let segs = pla_segments(&keys, eps);
        let covered: usize = segs.iter().map(|s| s.len).sum();
        prop_assert_eq!(covered, keys.len());
        for seg in &segs {
            let covered = keys.iter().enumerate().skip(seg.start_pos).take(seg.len);
            for (i, &key) in covered {
                let err = (seg.model.predict(key) - i as f64).abs();
                prop_assert!(err <= eps + 1e-6, "err {err} > eps {eps}");
            }
        }
    }

    #[test]
    fn linear_fit_bounded_by_worst_case(keys in prop::collection::btree_set(0u64..1_000_000_000, 2..300)) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let m = LinearModel::fit(&keys);
        // A least-squares fit can never err by more than n positions.
        prop_assert!(m.max_error(&keys) <= keys.len() as f64);
        // Predictions are monotone for sorted keys (slope >= 0 on CDFs).
        prop_assert!(m.slope >= 0.0, "negative slope {}", m.slope);
    }

    #[test]
    fn lower_bound_agrees_across_learned_indexes(pairs in arb_pairs(), probes in prop::collection::vec(any::<u64>(), 30)) {
        prop_assume!(!pairs.is_empty());
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let rmi = Rmi::bulk_load(&pairs).unwrap();
        let pgm = PgmIndex::bulk_load(&pairs).unwrap();
        let rs = RadixSpline::bulk_load(&pairs).unwrap();
        for &p in &probes {
            let expected = keys.partition_point(|&k| k < p);
            prop_assert_eq!(rmi.lower_bound(p), expected, "rmi lb({})", p);
            prop_assert_eq!(pgm.lower_bound(p), expected, "pgm lb({})", p);
            prop_assert_eq!(rs.lower_bound(p), expected, "spline lb({})", p);
        }
    }
}
