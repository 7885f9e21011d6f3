//! A minimal FNV-1a `Hasher` for itemset-keyed maps.
//!
//! The miner's support store is consulted several times per candidate,
//! by table assembly and by candidate generation's facet probes; std's
//! SipHash is needlessly defensive for that internal workload (keys are
//! our own itemsets, not attacker input).

use std::hash::{BuildHasherDefault, Hasher};

/// An FNV-1a streaming hasher.
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`]; plug into `HashMap::with_hasher`.
pub type BuildFnv = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with FNV-1a.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, BuildFnv>;

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::Itemset;

    #[test]
    fn deterministic_and_spread() {
        let mut map: FnvHashMap<Itemset, u64> = FnvHashMap::default();
        for i in 0..1000u32 {
            map.insert(Itemset::from_ids([i, i + 1]), u64::from(i));
        }
        for i in 0..1000u32 {
            assert_eq!(map.get(&Itemset::from_ids([i, i + 1])), Some(&u64::from(i)));
        }
        assert_eq!(map.len(), 1000);
    }

    #[test]
    fn hasher_distinguishes_permuted_bytes() {
        use std::hash::Hash;
        let hash = |s: &Itemset| {
            let mut h = FnvHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_ne!(
            hash(&Itemset::from_ids([1, 2])),
            hash(&Itemset::from_ids([2, 3]))
        );
        // Canonical ordering makes permutations identical inputs.
        assert_eq!(
            hash(&Itemset::from_ids([2, 1])),
            hash(&Itemset::from_ids([1, 2]))
        );
    }
}
