//! Dense sorted array with binary search — the minimal baseline.
//!
//! Lowest possible space overhead and a `O(log n)` lookup with no model:
//! the floor every learned index must beat. Inserts shift elements, so it
//! also serves as the worst-case "naive updatable" baseline.

use crate::{check_sorted, BulkLoad, Index, IndexStats, Result};

/// Sorted parallel arrays of keys and values.
#[derive(Debug, Clone, Default)]
pub struct SortedArray {
    keys: Vec<u64>,
    values: Vec<u64>,
}

impl SortedArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        SortedArray::default()
    }

    /// Position of the first key `>= key`.
    fn lower_bound(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k < key)
    }
}

impl BulkLoad for SortedArray {
    fn bulk_load(pairs: &[(u64, u64)]) -> Result<Self> {
        check_sorted(pairs)?;
        Ok(SortedArray {
            keys: pairs.iter().map(|p| p.0).collect(),
            values: pairs.iter().map(|p| p.1).collect(),
        })
    }
}

impl Index for SortedArray {
    fn name(&self) -> &'static str {
        "sorted-array"
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|idx| self.values[idx])
    }

    fn range_into(&self, start: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> Result<()> {
        let from = self.lower_bound(start);
        let to = from.saturating_add(limit).min(self.keys.len());
        out.extend(
            self.keys[from..to]
                .iter()
                .copied()
                .zip(self.values[from..to].iter().copied()),
        );
        Ok(())
    }

    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>> {
        match self.keys.binary_search(&key) {
            Ok(idx) => Ok(Some(std::mem::replace(&mut self.values[idx], value))),
            Err(idx) => {
                self.keys.insert(idx, key);
                self.values.insert(idx, value);
                Ok(None)
            }
        }
    }

    fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        match self.keys.binary_search(&key) {
            Ok(idx) => {
                self.keys.remove(idx);
                Ok(Some(self.values.remove(idx)))
            }
            Err(_) => Ok(None),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn build_work(&self) -> u64 {
        self.keys.len() as u64
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            size_bytes: self.keys.len() * 16,
            build_work: self.build_work(),
            model_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{check_point_lookups, check_ranges, test_pairs};
    use crate::IndexError;

    #[test]
    fn conformance() {
        let pairs = test_pairs(1000);
        let idx = SortedArray::bulk_load(&pairs).unwrap();
        assert_eq!(idx.len(), pairs.len());
        check_point_lookups(&idx, &pairs);
        check_ranges(&idx, &pairs);
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        assert_eq!(
            SortedArray::bulk_load(&[(2, 0), (1, 0)]).unwrap_err(),
            IndexError::UnsortedInput
        );
        assert_eq!(
            SortedArray::bulk_load(&[(1, 0), (1, 0)]).unwrap_err(),
            IndexError::UnsortedInput
        );
    }

    #[test]
    fn insert_and_overwrite() {
        let mut idx = SortedArray::new();
        assert_eq!(idx.insert(5, 50).unwrap(), None);
        assert_eq!(idx.insert(3, 30).unwrap(), None);
        assert_eq!(idx.insert(5, 55).unwrap(), Some(50));
        assert_eq!(idx.get(5), Some(55));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.range(0, 9).unwrap(), [(3, 30), (5, 55)]);
    }

    #[test]
    fn delete() {
        let mut idx = SortedArray::bulk_load(&[(1, 10), (2, 20)]).unwrap();
        assert_eq!(idx.delete(1).unwrap(), Some(10));
        assert_eq!(idx.delete(1).unwrap(), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(2), Some(20));
    }

    #[test]
    fn empty_behaviour() {
        let idx = SortedArray::new();
        assert!(idx.is_empty());
        assert_eq!(idx.get(1), None);
        assert!(idx.range(0, 10).unwrap().is_empty());
    }
}
