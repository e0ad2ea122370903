//! Key-range sharding for the concurrent engine.
//!
//! A [`KeyRouter`] splits the key space at dataset-key quantiles so each
//! shard holds an equal slice of the initial data, and routes every
//! operation to the shard owning its key. Because routing depends only on
//! the operation (never on timing), the lane assignment — and therefore
//! the merged result — is identical for any worker count.

use crate::{BenchError, Result};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;

/// Routes operations to key-range shards.
///
/// Shard `i` owns keys in `[boundaries[i-1], boundaries[i])` (with open
/// ends at both extremes). Scans are routed by their start key and do not
/// cross shard boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyRouter {
    /// `shards - 1` ascending split keys.
    boundaries: Vec<u64>,
}

impl KeyRouter {
    /// Builds a router from explicit ascending split keys.
    pub fn from_boundaries(boundaries: Vec<u64>) -> Result<Self> {
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BenchError::InvalidScenario(
                "shard boundaries must be strictly ascending".to_string(),
            ));
        }
        Ok(KeyRouter { boundaries })
    }

    /// Number of shards this router distributes over.
    pub fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Shard index owning `key`.
    pub fn route_key(&self, key: u64) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// Shard index an operation is executed on (scans go to the shard
    /// owning their start key).
    pub fn route(&self, op: &Operation) -> usize {
        match *op {
            Operation::Read { key }
            | Operation::Insert { key, .. }
            | Operation::Update { key, .. }
            | Operation::Delete { key } => self.route_key(key),
            Operation::Scan { start, .. } => self.route_key(start),
        }
    }
}

/// Splits a dataset into `shards` key-range shards of (near-)equal size.
///
/// Boundaries are the dataset keys at ranks `i·n/shards`, so the initial
/// data is balanced even under skewed key distributions (a quantile split,
/// not an equi-width one). Each shard dataset is rebuilt with
/// [`Dataset::from_keys`], which derives values exactly like the original
/// generation did, so shard SUTs hold the same key→value pairs the
/// unsharded SUT would.
pub(crate) fn shard_dataset(data: &Dataset, shards: usize) -> Result<(KeyRouter, Vec<Dataset>)> {
    if shards == 0 {
        return Err(BenchError::InvalidScenario(
            "shard count must be at least 1".to_string(),
        ));
    }
    let keys = data.keys();
    if keys.len() < shards {
        return Err(BenchError::InvalidScenario(format!(
            "dataset of {} keys cannot fill {} shards",
            keys.len(),
            shards
        )));
    }
    let cut = |i: usize| i * keys.len() / shards;
    let boundaries: Vec<u64> = (1..shards).map(|i| keys[cut(i)]).collect();
    let router = KeyRouter::from_boundaries(boundaries)?;
    let datasets = (0..shards)
        .map(|i| Dataset::from_keys(keys[cut(i)..cut(i + 1)].to_vec()))
        .collect();
    Ok((router, datasets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        // Skewed keys: quantile boundaries must still balance the shards.
        Dataset::from_keys((0..1000u64).map(|i| i * i).collect())
    }

    #[test]
    fn shards_are_balanced_and_partition_the_keys() {
        let data = dataset();
        let (router, shards) = shard_dataset(&data, 4).unwrap();
        assert_eq!(router.shards(), 4);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 250));
        // Concatenated shard keys reproduce the original key set.
        let rebuilt: Vec<u64> = shards.iter().flat_map(|s| s.keys().to_vec()).collect();
        assert_eq!(rebuilt, data.keys());
        // Every shard's keys route back to that shard.
        for (i, shard) in shards.iter().enumerate() {
            assert!(shard.keys().iter().all(|&k| router.route_key(k) == i));
        }
    }

    #[test]
    fn routing_covers_all_operations() {
        let (router, _) = shard_dataset(&dataset(), 3).unwrap();
        let key = 500 * 500;
        let shard = router.route_key(key);
        assert_eq!(router.route(&Operation::Read { key }), shard);
        assert_eq!(router.route(&Operation::Insert { key, value: 1 }), shard);
        assert_eq!(router.route(&Operation::Update { key, value: 1 }), shard);
        assert_eq!(router.route(&Operation::Delete { key }), shard);
        assert_eq!(
            router.route(&Operation::Scan {
                start: key,
                len: 10
            }),
            shard
        );
        // Out-of-range keys still land on an edge shard.
        assert_eq!(router.route_key(0), 0);
        assert_eq!(router.route_key(u64::MAX), 2);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(shard_dataset(&dataset(), 0).is_err());
        let tiny = Dataset::from_keys(vec![1, 2]);
        assert!(shard_dataset(&tiny, 3).is_err());
        assert!(KeyRouter::from_boundaries(vec![5, 5]).is_err());
        assert!(KeyRouter::from_boundaries(vec![7, 3]).is_err());
    }

    #[test]
    fn single_shard_router_routes_everything_to_zero() {
        let (router, shards) = shard_dataset(&dataset(), 1).unwrap();
        assert_eq!(router.shards(), 1);
        assert_eq!(shards[0].len(), 1000);
        assert_eq!(router.route_key(u64::MAX), 0);
    }
}
