//! Chained hash index.
//!
//! The point-lookup specialist among the traditional baselines: `O(1)`
//! expected gets, but no order — range scans return
//! [`IndexError::Unsupported`], which is exactly the trade-off the
//! benchmark's specialization metric should surface when the workload mix
//! shifts from point reads to scans.

use crate::{check_sorted, BulkLoad, Index, IndexError, IndexStats, Result};

/// Multiplicative Fibonacci hashing constant.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maximum load factor before the table doubles.
const MAX_LOAD: f64 = 0.75;

/// A chained hash table from `u64` keys to `u64` values.
#[derive(Debug, Clone)]
pub struct HashIndex {
    buckets: Vec<Vec<(u64, u64)>>,
    len: usize,
    work: u64,
}

impl HashIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an index pre-sized for about `n` keys.
    pub fn with_capacity(n: usize) -> Self {
        let buckets = (n.max(4) * 2).next_power_of_two();
        HashIndex {
            buckets: vec![Vec::new(); buckets],
            len: 0,
            work: buckets as u64,
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(HASH_MUL);
        (h >> (64 - self.buckets.len().trailing_zeros())) as usize
    }

    fn maybe_grow(&mut self) {
        if (self.len as f64) < self.buckets.len() as f64 * MAX_LOAD {
            return;
        }
        let new_size = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); new_size]);
        self.work += new_size as u64;
        for chain in old {
            for (k, v) in chain {
                let b = self.bucket_of(k);
                self.buckets[b].push((k, v));
            }
        }
    }

    /// Longest chain length (diagnostic).
    pub fn max_chain(&self) -> usize {
        self.buckets.iter().map(|c| c.len()).max().unwrap_or(0)
    }
}

impl Default for HashIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BulkLoad for HashIndex {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        check_sorted(pairs)?;
        let mut idx = HashIndex::with_capacity(pairs.len());
        for &(k, v) in pairs {
            let b = idx.bucket_of(k);
            idx.buckets[b].push((k, v));
            idx.len += 1;
            idx.work += 1;
        }
        Ok(idx)
    }
}

impl Index for HashIndex {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn get(&self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    fn range_into(&self, _start: u64, _limit: usize, _out: &mut Vec<(u64, u64)>) -> Result<()> {
        Err(IndexError::Unsupported("range scan on hash index"))
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        self.maybe_grow();
        let b = self.bucket_of(key);
        for entry in &mut self.buckets[b] {
            if entry.0 == key {
                return Ok(Some(std::mem::replace(&mut entry.1, value)));
            }
        }
        self.buckets[b].push((key, value));
        self.len += 1;
        self.work += 1;
        Ok(None)
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        let b = self.bucket_of(key);
        let chain = &mut self.buckets[b];
        if let Some(pos) = chain.iter().position(|&(k, _)| k == key) {
            let (_, v) = chain.swap_remove(pos);
            self.len -= 1;
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn build_work(&self) -> u64 {
        self.work
    }

    fn stats(&self) -> IndexStats {
        let entries: usize = self.buckets.iter().map(|c| c.len()).sum();
        IndexStats {
            size_bytes: self.buckets.len() * 24 + entries * 16,
            build_work: self.build_work(),
            model_count: 0,
        }
    }

    fn probe_cost(&self, key: u64) -> u64 {
        // Hash + walk of this key's chain.
        1 + self.buckets[self.bucket_of(key)].len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, test_pairs};

    #[test]
    fn bulk_load_conformance() {
        let pairs = test_pairs(2000);
        let idx = HashIndex::bulk_load(&pairs).unwrap();
        assert_eq!(idx.len(), pairs.len());
        check_point_lookups(&idx, &pairs);
    }

    #[test]
    fn range_unsupported() {
        let idx = HashIndex::bulk_load(&[(1, 10)]).unwrap();
        assert!(matches!(idx.range(0, 10), Err(IndexError::Unsupported(_))));
    }

    #[test]
    fn insert_overwrite_delete() {
        let mut idx = HashIndex::new();
        assert_eq!(idx.insert(7, 70).unwrap(), None);
        assert_eq!(idx.insert(7, 71).unwrap(), Some(70));
        assert_eq!(idx.delete(7).unwrap(), Some(71));
        assert_eq!(idx.delete(7).unwrap(), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn grows_under_load() {
        let mut idx = HashIndex::with_capacity(4);
        for k in 0..10_000u64 {
            idx.insert(k, k).unwrap();
        }
        assert_eq!(idx.len(), 10_000);
        // Expected chain length stays short after growth.
        assert!(idx.max_chain() < 16, "max_chain = {}", idx.max_chain());
        for k in 0..10_000u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn colliding_patterns_still_work() {
        // Keys that share low bits (power-of-two strides) stress the hash.
        let mut idx = HashIndex::new();
        for i in 0..2000u64 {
            idx.insert(i << 32, i).unwrap();
        }
        for i in 0..2000u64 {
            assert_eq!(idx.get(i << 32), Some(i));
        }
    }

    #[test]
    fn stats_reflect_entries() {
        let idx = HashIndex::bulk_load(&test_pairs(1000)).unwrap();
        assert!(idx.stats().size_bytes > 1000 * 16);
        assert_eq!(idx.stats().model_count, 0);
    }
}
