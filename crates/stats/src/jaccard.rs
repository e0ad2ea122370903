//! Jaccard similarity over sets.
//!
//! The paper (§V-D.1) proposes estimating *workload* similarity as "the
//! Jaccard similarity between the sets of all subtrees of the query tree for
//! all queries in the workload". `lsbench-query` enumerates those subtrees
//! (as stable hashes); this module computes the set similarity.

use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` of two sets.
///
/// Returns `1.0` when both sets are empty (identical empty workloads).
pub fn jaccard_similarity<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - intersection;
    intersection / union
}

/// Jaccard distance `1 - similarity`, a proper metric on finite sets.
pub fn jaccard_distance<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

/// Weighted (multiset) Jaccard similarity from item counts:
/// `Σ min(w_a, w_b) / Σ max(w_a, w_b)`.
///
/// More faithful when a workload repeats the same query shape with very
/// different frequencies.
pub fn weighted_jaccard<T: Eq + Hash + Clone>(
    a: &std::collections::HashMap<T, u64>,
    b: &std::collections::HashMap<T, u64>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut min_sum = 0u64;
    let mut max_sum = 0u64;
    for (k, &wa) in a {
        let wb = b.get(k).copied().unwrap_or(0);
        min_sum += wa.min(wb);
        max_sum += wa.max(wb);
    }
    for (k, &wb) in b {
        if !a.contains_key(k) {
            max_sum += wb;
        }
    }
    if max_sum == 0 {
        1.0
    } else {
        min_sum as f64 / max_sum as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn set(items: &[u32]) -> HashSet<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn identical_sets() {
        let a = set(&[1, 2, 3]);
        assert_eq!(jaccard_similarity(&a, &a), 1.0);
        assert_eq!(jaccard_distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_sets() {
        let a = set(&[1, 2]);
        let b = set(&[3, 4]);
        assert_eq!(jaccard_similarity(&a, &b), 0.0);
        assert_eq!(jaccard_distance(&a, &b), 1.0);
    }

    #[test]
    fn partial_overlap() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4]);
        assert!((jaccard_similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn both_empty_is_similar() {
        let a: HashSet<u32> = HashSet::new();
        assert_eq!(jaccard_similarity(&a, &a), 1.0);
    }

    #[test]
    fn one_empty_is_dissimilar() {
        let a = set(&[1]);
        let b: HashSet<u32> = HashSet::new();
        assert_eq!(jaccard_similarity(&a, &b), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = set(&[1, 5, 9]);
        let b = set(&[5, 7]);
        assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&b, &a));
    }

    #[test]
    fn weighted_matches_unweighted_on_unit_weights() {
        let a: HashMap<u32, u64> = [(1, 1), (2, 1), (3, 1)].into_iter().collect();
        let b: HashMap<u32, u64> = [(2, 1), (3, 1), (4, 1)].into_iter().collect();
        assert!((weighted_jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_accounts_for_frequency() {
        // Same support but wildly different frequencies -> low similarity.
        let a: HashMap<u32, u64> = [(1, 100), (2, 1)].into_iter().collect();
        let b: HashMap<u32, u64> = [(1, 1), (2, 100)].into_iter().collect();
        let sim = weighted_jaccard(&a, &b);
        assert!(sim < 0.05, "sim = {sim}");
    }

    #[test]
    fn weighted_empty() {
        let e: HashMap<u32, u64> = HashMap::new();
        assert_eq!(weighted_jaccard(&e, &e), 1.0);
        let a: HashMap<u32, u64> = [(1, 1)].into_iter().collect();
        assert_eq!(weighted_jaccard(&a, &e), 0.0);
    }
}
