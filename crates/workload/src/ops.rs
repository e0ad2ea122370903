//! Operations and operation mixes.
//!
//! An [`Operation`] is the unit of work the benchmark driver sends to the
//! system under test. An [`OperationMix`] is a weighted distribution over
//! operation kinds, with YCSB-style presets; phases combine a mix with a key
//! distribution to form the workload (§V-B: "mixes of query streams").

use crate::keygen::KeyGenerator;
use crate::{Result, WorkloadError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single operation against a keyed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operation {
    /// Point lookup of `key`.
    Read {
        /// The key to look up.
        key: u64,
    },
    /// Insert `key` with `value`.
    Insert {
        /// The key to insert.
        key: u64,
        /// The value to store.
        value: u64,
    },
    /// Update the value of an existing `key`.
    Update {
        /// The key to update.
        key: u64,
        /// The new value.
        value: u64,
    },
    /// Range scan of `len` records starting at `start`.
    Scan {
        /// First key of the scan (inclusive).
        start: u64,
        /// Maximum number of records to return.
        len: u32,
    },
    /// Delete `key`.
    Delete {
        /// The key to delete.
        key: u64,
    },
}

impl Operation {
    /// The operation's kind, for mix accounting.
    pub fn kind(&self) -> OpKind {
        match self {
            Operation::Read { .. } => OpKind::Read,
            Operation::Insert { .. } => OpKind::Insert,
            Operation::Update { .. } => OpKind::Update,
            Operation::Scan { .. } => OpKind::Scan,
            Operation::Delete { .. } => OpKind::Delete,
        }
    }

    /// The primary key the operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            Operation::Read { key }
            | Operation::Insert { key, .. }
            | Operation::Update { key, .. }
            | Operation::Delete { key } => key,
            Operation::Scan { start, .. } => start,
        }
    }

    /// Whether the operation mutates the store.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Operation::Insert { .. } | Operation::Update { .. } | Operation::Delete { .. }
        )
    }
}

/// Operation kind without payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Point lookup.
    Read,
    /// Insert of a new key.
    Insert,
    /// Update of an existing key.
    Update,
    /// Range scan.
    Scan,
    /// Deletion.
    Delete,
}

/// Weighted distribution over operation kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperationMix {
    /// Weight of reads.
    pub read: f64,
    /// Weight of inserts.
    pub insert: f64,
    /// Weight of updates.
    pub update: f64,
    /// Weight of scans.
    pub scan: f64,
    /// Weight of deletes.
    pub delete: f64,
    /// Maximum scan length (records); scans draw `1..=max_scan_len`.
    pub max_scan_len: u32,
}

impl OperationMix {
    /// The spec keys of the weights, in the order [`weights`](Self::weights)
    /// lists them.
    pub const WEIGHT_KEYS: [&'static str; 5] = ["read", "insert", "update", "scan", "delete"];

    /// The weights in [`WEIGHT_KEYS`](Self::WEIGHT_KEYS) order.
    pub fn weights(&self) -> [f64; 5] {
        [self.read, self.insert, self.update, self.scan, self.delete]
    }

    /// The mix of `weights` in [`WEIGHT_KEYS`](Self::WEIGHT_KEYS) order.
    pub fn from_weights(weights: [f64; 5], max_scan_len: u32) -> Self {
        let [read, insert, update, scan, delete] = weights;
        OperationMix {
            read,
            insert,
            update,
            scan,
            delete,
            max_scan_len,
        }
    }

    /// Validates and normalizes the mix (weights must be non-negative and
    /// sum to something positive).
    pub fn validate(&self) -> Result<()> {
        let weights = self.weights();
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(WorkloadError::InvalidParameter(
                "mix weights must be non-negative and finite".to_string(),
            ));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(WorkloadError::InvalidParameter(
                "mix weights must not all be zero".to_string(),
            ));
        }
        if self.scan > 0.0 && self.max_scan_len == 0 {
            return Err(WorkloadError::InvalidParameter(
                "max_scan_len must be positive when scans have weight".to_string(),
            ));
        }
        Ok(())
    }

    /// YCSB workload A: 50% reads, 50% updates.
    pub fn ycsb_a() -> Self {
        OperationMix::from_weights([0.5, 0.0, 0.5, 0.0, 0.0], 0)
    }

    /// YCSB workload B: 95% reads, 5% updates.
    pub fn ycsb_b() -> Self {
        OperationMix::from_weights([0.95, 0.0, 0.05, 0.0, 0.0], 0)
    }

    /// YCSB workload C: read-only.
    pub fn ycsb_c() -> Self {
        OperationMix::from_weights([1.0, 0.0, 0.0, 0.0, 0.0], 0)
    }

    /// YCSB workload D: 95% reads, 5% inserts (read-latest flavour).
    pub fn ycsb_d() -> Self {
        OperationMix::from_weights([0.95, 0.05, 0.0, 0.0, 0.0], 0)
    }

    /// YCSB workload E: 95% scans, 5% inserts.
    pub fn ycsb_e() -> Self {
        OperationMix::from_weights([0.0, 0.05, 0.0, 0.95, 0.0], 100)
    }

    /// Read-heavy range workload used by the figure benches.
    pub fn range_heavy() -> Self {
        OperationMix::from_weights([0.5, 0.0, 0.0, 0.5, 0.0], 64)
    }

    /// Draws an operation kind according to the weights.
    fn sample_kind<R: Rng>(&self, rng: &mut R) -> OpKind {
        // Summed per draw, not cached in the generator: the adds overlap the
        // draw, while a cached total measured 8-10 ns per op slower on
        // x86-64, where it left the draw's `cvtsi2sd` a register that made it
        // wait for the previous key's libm calls.
        let total = self.read + self.insert + self.update + self.scan + self.delete;
        let mut u = rng.gen::<f64>() * total;
        for (kind, w) in [
            (OpKind::Read, self.read),
            (OpKind::Insert, self.insert),
            (OpKind::Update, self.update),
            (OpKind::Scan, self.scan),
            (OpKind::Delete, self.delete),
        ] {
            if u < w {
                return kind;
            }
            u -= w;
        }
        OpKind::Read
    }
}

/// Generates a stream of operations from a key generator and a mix.
#[derive(Debug, Clone)]
pub struct OperationGenerator {
    keygen: KeyGenerator,
    mix: OperationMix,
    rng: StdRng,
    /// Monotone counter for fresh insert keys (appended past the dataset).
    insert_counter: u64,
}

impl OperationGenerator {
    /// Creates a generator drawing keys from `keygen` and kinds from `mix`.
    pub fn new(keygen: KeyGenerator, mix: OperationMix, seed: u64) -> Result<Self> {
        mix.validate()?;
        Ok(OperationGenerator {
            keygen,
            mix,
            rng: StdRng::seed_from_u64(seed),
            insert_counter: 0,
        })
    }

    /// The mix in use.
    pub fn mix(&self) -> &OperationMix {
        &self.mix
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> Operation {
        let kind = self.mix.sample_kind(&mut self.rng);
        match kind {
            OpKind::Read => Operation::Read {
                key: self.keygen.next_key(),
            },
            OpKind::Insert => {
                // Inserts target fresh keys beyond the loaded range to model
                // dataset growth; mix with in-range keys occasionally to
                // exercise duplicate handling.
                self.insert_counter += 1;
                let (_, hi) = self.keygen.range();
                let key = if self.insert_counter.is_multiple_of(16) {
                    self.keygen.next_key()
                } else {
                    hi.saturating_add(self.insert_counter)
                };
                Operation::Insert {
                    key,
                    value: key.wrapping_mul(31),
                }
            }
            OpKind::Update => {
                let key = self.keygen.next_key();
                Operation::Update {
                    key,
                    value: self.rng.gen(),
                }
            }
            OpKind::Scan => Operation::Scan {
                start: self.keygen.next_key(),
                len: self.rng.gen_range(1..=self.mix.max_scan_len),
            },
            OpKind::Delete => Operation::Delete {
                key: self.keygen.next_key(),
            },
        }
    }

    /// Produces `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyDistribution;

    fn gen_with_mix(mix: OperationMix) -> OperationGenerator {
        let kg = KeyGenerator::new(KeyDistribution::Uniform, 0, 100_000, 1).unwrap();
        OperationGenerator::new(kg, mix, 2).unwrap()
    }

    #[test]
    fn mix_fractions_respected() {
        let mut g = gen_with_mix(OperationMix::ycsb_b());
        let ops = g.take(10_000);
        let reads = ops.iter().filter(|o| o.kind() == OpKind::Read).count();
        let updates = ops.iter().filter(|o| o.kind() == OpKind::Update).count();
        assert!((reads as f64 / 10_000.0 - 0.95).abs() < 0.02);
        assert!((updates as f64 / 10_000.0 - 0.05).abs() < 0.02);
    }

    #[test]
    fn read_only_mix() {
        let mut g = gen_with_mix(OperationMix::ycsb_c());
        assert!(g.take(1000).iter().all(|o| o.kind() == OpKind::Read));
    }

    #[test]
    fn scan_lengths_bounded() {
        let mut g = gen_with_mix(OperationMix::ycsb_e());
        for op in g.take(1000) {
            if let Operation::Scan { len, .. } = op {
                assert!((1..=100).contains(&len));
            }
        }
    }

    #[test]
    fn invalid_mixes_rejected() {
        let zero = OperationMix {
            read: 0.0,
            insert: 0.0,
            update: 0.0,
            scan: 0.0,
            delete: 0.0,
            max_scan_len: 0,
        };
        assert!(zero.validate().is_err());
        let negative = OperationMix {
            read: -1.0,
            ..OperationMix::ycsb_c()
        };
        assert!(negative.validate().is_err());
        let scan_no_len = OperationMix {
            scan: 1.0,
            max_scan_len: 0,
            ..OperationMix::ycsb_c()
        };
        assert!(scan_no_len.validate().is_err());
    }

    #[test]
    fn deterministic_stream() {
        let mut a = gen_with_mix(OperationMix::ycsb_a());
        let mut b = gen_with_mix(OperationMix::ycsb_a());
        assert_eq!(a.take(200), b.take(200));
    }

    #[test]
    fn inserts_use_fresh_keys_mostly() {
        let mut g = gen_with_mix(OperationMix::ycsb_d());
        let fresh = g
            .take(5000)
            .iter()
            .filter(|o| matches!(o, Operation::Insert { key, .. } if *key >= 100_000))
            .count();
        let total_inserts = 5000 / 20; // about 5%
        assert!(fresh as f64 > total_inserts as f64 * 0.7, "fresh = {fresh}");
    }

    #[test]
    fn operation_accessors() {
        let op = Operation::Scan { start: 42, len: 10 };
        assert_eq!(op.key(), 42);
        assert!(!op.is_write());
        let op = Operation::Delete { key: 7 };
        assert!(op.is_write());
        assert_eq!(op.kind(), OpKind::Delete);
    }
}
