//! A fast membership table for itemsets.
//!
//! The paper's Step 8 implementation stores NOTSIG and CAND "in perfect hash
//! tables ... insertion, deletion, and lookup all take constant time". We
//! use open addressing with an FNV-1a hash over the item ids — not a true
//! FKS perfect hash, but collision handling is in-table probing with the
//! same amortized O(1) operations and none of the two-level construction
//! cost. (The paper's remark that collisions would break the algorithm
//! refers to *lossy* bucket counting à la Park–Chen–Yu, where distinct sets
//! share a counter; a probing table is exact.)

use bmb_basket::{ItemId, Itemset};

/// FNV-1a over the little-endian bytes of the item ids.
#[inline]
fn fnv1a(items: &[ItemId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for item in items {
        for byte in item.0.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// An insert-and-lookup hash set of itemsets with open addressing.
///
/// # Examples
///
/// ```
/// use bmb_basket::Itemset;
/// use bmb_lattice::ItemsetTable;
///
/// let mut table = ItemsetTable::new();
/// table.insert(Itemset::from_ids([1, 2]));
/// assert!(table.contains(&Itemset::from_ids([2, 1])));
/// assert!(!table.contains(&Itemset::from_ids([1, 3])));
/// ```
#[derive(Clone, Debug)]
pub struct ItemsetTable {
    /// Power-of-two sized slot array; `None` is an empty slot.
    slots: Vec<Option<Itemset>>,
    len: usize,
}

impl Default for ItemsetTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ItemsetTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// An empty table pre-sized for `capacity` itemsets.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 2).next_power_of_two().max(16);
        ItemsetTable {
            slots: vec![None; slots],
            len: 0,
        }
    }

    /// Number of stored itemsets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `set`; returns true if it was newly added.
    pub fn insert(&mut self, set: Itemset) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (fnv1a(&set) as usize) & mask;
        loop {
            match &self.slots[idx] {
                None => {
                    self.slots[idx] = Some(set);
                    self.len += 1;
                    return true;
                }
                Some(existing) if *existing == set => return false,
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, set: &Itemset) -> bool {
        self.contains_items(set.items())
    }

    /// Membership test keyed by a strictly sorted item slice, so a caller
    /// can probe a set it has not allocated as an [`Itemset`]. It hashes
    /// exactly as [`ItemsetTable::contains`] does.
    pub fn contains_items(&self, items: &[ItemId]) -> bool {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let mask = self.slots.len() - 1;
        let mut idx = (fnv1a(items) as usize) & mask;
        loop {
            match &self.slots[idx] {
                None => return false,
                Some(existing) if existing.items() == items => return true,
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    /// Iterates stored itemsets in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Itemset> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Drains the table into a sorted vector (lexicographic itemset order).
    pub fn into_sorted_vec(self) -> Vec<Itemset> {
        let mut v: Vec<Itemset> = self.slots.into_iter().flatten().collect();
        v.sort_unstable();
        v
    }

    fn grow(&mut self) {
        let new_size = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_size]);
        self.len = 0;
        for set in old.into_iter().flatten() {
            self.insert(set);
        }
    }
}

impl FromIterator<Itemset> for ItemsetTable {
    fn from_iter<I: IntoIterator<Item = Itemset>>(iter: I) -> Self {
        let mut table = ItemsetTable::new();
        for set in iter {
            table.insert(set);
        }
        table
    }
}

impl Extend<Itemset> for ItemsetTable {
    fn extend<I: IntoIterator<Item = Itemset>>(&mut self, iter: I) {
        for set in iter {
            self.insert(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut t = ItemsetTable::new();
        assert!(t.insert(Itemset::from_ids([1, 2, 3])));
        assert!(!t.insert(Itemset::from_ids([3, 2, 1]))); // same set
        assert_eq!(t.len(), 1);
        assert!(t.contains(&Itemset::from_ids([1, 2, 3])));
        assert!(!t.contains(&Itemset::from_ids([1, 2])));
    }

    #[test]
    fn growth_preserves_members() {
        let mut t = ItemsetTable::with_capacity(4);
        let sets: Vec<Itemset> = (0..1000u32)
            .map(|i| Itemset::from_ids([i, i + 1, i * 7 % 999]))
            .collect();
        for s in &sets {
            t.insert(s.clone());
        }
        for s in &sets {
            assert!(t.contains(s), "lost {s} after growth");
        }
    }

    #[test]
    fn slice_lookup_agrees_with_itemset_lookup() {
        let t: ItemsetTable = (0..200u32)
            .map(|i| Itemset::from_ids([i, i + 3, i + 9]))
            .collect();
        for i in 0..220u32 {
            for probe in [
                Itemset::from_ids([i, i + 3, i + 9]),
                Itemset::from_ids([i, i + 4]),
            ] {
                assert_eq!(
                    t.contains_items(probe.items()),
                    t.contains(&probe),
                    "{probe}"
                );
            }
        }
        assert!(t.contains_items(&[ItemId(5), ItemId(8), ItemId(14)]));
        assert!(!t.contains_items(&[ItemId(5), ItemId(8)]));
    }

    #[test]
    fn empty_itemset_is_storable() {
        let mut t = ItemsetTable::new();
        assert!(t.insert(Itemset::empty()));
        assert!(t.contains(&Itemset::empty()));
    }

    #[test]
    fn iteration_and_sorted_drain() {
        let t: ItemsetTable = vec![
            Itemset::from_ids([5]),
            Itemset::from_ids([1]),
            Itemset::from_ids([3]),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.iter().count(), 3);
        let sorted = t.into_sorted_vec();
        assert_eq!(
            sorted,
            vec![
                Itemset::from_ids([1]),
                Itemset::from_ids([3]),
                Itemset::from_ids([5])
            ]
        );
    }

    #[test]
    fn extend_merges() {
        let mut t = ItemsetTable::new();
        t.extend([Itemset::from_ids([1]), Itemset::from_ids([2])]);
        t.extend([Itemset::from_ids([2]), Itemset::from_ids([3])]);
        assert_eq!(t.len(), 3);
    }
}
