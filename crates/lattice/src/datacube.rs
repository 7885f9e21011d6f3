//! A count datacube over a small item sub-universe.
//!
//! The paper observes (Sections 2.1 and 6) that "the random walk algorithm
//! has a natural implementation in terms of a datacube of the count values
//! for contingency tables". This module is that implementation detail: one
//! database scan materializes the exact cell counts over up to
//! [`MAX_CUBE_DIMS`] items, a zeta transform derives every group-by support,
//! and from then on *any* contingency table over a subset of those items is
//! answered from the cube without touching the database — exactly what a
//! walk needs while it probes sets near the border.

use bmb_basket::contingency::cell_mask_of;
use bmb_basket::{BasketDatabase, ContingencyTable, Itemset};

/// Largest sub-universe a cube will materialize (2^20 cells ≈ 8 MB).
pub const MAX_CUBE_DIMS: usize = 20;

/// Dense cell counts plus group-by supports over a fixed item subset.
#[derive(Clone, Debug)]
pub struct CountCube {
    items: Itemset,
    n: u64,
    /// `O(r)`: exact contingency cell counts, indexed by presence mask.
    cells: Vec<u64>,
    /// `supp(mask)`: baskets containing all items of `mask` (don't-care on
    /// the rest) — the cube's group-by rollup.
    supports: Vec<u64>,
}

impl CountCube {
    /// Builds the cube with one scan over `db`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or exceeds [`MAX_CUBE_DIMS`].
    pub fn build(db: &BasketDatabase, items: &Itemset) -> Self {
        let m = items.len();
        assert!(m > 0, "cube needs at least one item");
        assert!(m <= MAX_CUBE_DIMS, "cube limited to {MAX_CUBE_DIMS} items");
        let mut cells = vec![0u64; 1 << m];
        for basket in db.baskets() {
            cells[cell_mask_of(basket, items) as usize] += 1;
        }
        // Zeta transform: supports[mask] = Σ_{c ⊇ mask} cells[c].
        let mut supports = cells.clone();
        for bit in 0..m {
            for mask in 0..(1usize << m) {
                if mask & (1 << bit) == 0 {
                    supports[mask] += supports[mask | (1 << bit)];
                }
            }
        }
        CountCube {
            items: items.clone(),
            n: db.len() as u64,
            cells,
            supports,
        }
    }

    /// The cube's item sub-universe.
    pub fn items(&self) -> &Itemset {
        &self.items
    }

    /// Total baskets.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exact cell count `O(r)` for a presence mask over the cube's items.
    pub fn cell(&self, mask: u32) -> u64 {
        self.cells[mask as usize]
    }

    /// Group-by support: baskets containing every item selected by `mask`.
    pub fn support(&self, mask: u32) -> u64 {
        self.supports[mask as usize]
    }

    /// Support of an arbitrary sub-itemset of the cube.
    ///
    /// # Panics
    ///
    /// Panics if `set` contains items outside the cube.
    pub fn itemset_support(&self, set: &Itemset) -> u64 {
        self.support(self.mask_of(set))
    }

    /// Builds the full contingency table for any non-empty subset of the
    /// cube's items, marginalizing the remaining dimensions out — no
    /// database access.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty or not a subset of the cube's items.
    pub fn contingency(&self, set: &Itemset) -> ContingencyTable {
        assert!(!set.is_empty(), "contingency table needs at least one item");
        let positions: Vec<usize> = set
            .items()
            .iter()
            .map(|&item| self.require_position(item))
            .collect();
        let mut counts = vec![0u64; 1 << positions.len()];
        for (full_mask, &count) in self.cells.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut sub_mask = 0usize;
            for (j, &pos) in positions.iter().enumerate() {
                if full_mask & (1 << pos) != 0 {
                    sub_mask |= 1 << j;
                }
            }
            counts[sub_mask] += count;
        }
        ContingencyTable::from_counts(set.clone(), counts)
    }

    fn mask_of(&self, set: &Itemset) -> u32 {
        let mut mask = 0u32;
        for &item in set.items() {
            mask |= 1 << self.require_position(item);
        }
        mask
    }

    /// The cube-internal position of `item`.
    ///
    /// # Panics
    ///
    /// Panics when `item` is not among the cube's items — the documented
    /// contract of every subset-taking method on the cube.
    fn require_position(&self, item: bmb_basket::ItemId) -> usize {
        match self.items.position(item) {
            Some(pos) => pos,
            // Documented contract shared by `contingency`/`count`:
            // callers pass subsets of the cube's items.
            // lint:allow(panic)
            None => panic!("item {item} is not in the cube"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::{BitmapIndex, ItemId};

    fn db() -> BasketDatabase {
        BasketDatabase::from_id_baskets(
            5,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![1, 2, 3],
                vec![0, 2, 4],
                vec![],
                vec![3, 4],
                vec![0, 1, 2, 3, 4],
                vec![2],
            ],
        )
    }

    #[test]
    fn cells_sum_to_n_and_match_scan() {
        let db = db();
        let items = Itemset::from_ids([0, 1, 2]);
        let cube = CountCube::build(&db, &items);
        assert_eq!(cube.cells.iter().sum::<u64>(), 8);
        let direct = ContingencyTable::from_database(&db, &items);
        for (mask, c) in direct.cells() {
            assert_eq!(cube.cell(mask), c);
        }
    }

    #[test]
    fn supports_match_bitmap_index() {
        let db = db();
        let items = Itemset::from_ids([0, 1, 2, 3]);
        let cube = CountCube::build(&db, &items);
        let idx = BitmapIndex::build(&db);
        for mask in 0u32..16 {
            let query: Vec<ItemId> = (0..4)
                .filter(|&j| mask & (1 << j) != 0)
                .map(|j| items.items()[j])
                .collect();
            assert_eq!(
                cube.support(mask),
                idx.support_count(&query),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn empty_mask_support_is_n() {
        let db = db();
        let cube = CountCube::build(&db, &Itemset::from_ids([0, 1]));
        assert_eq!(cube.support(0), 8);
    }

    #[test]
    fn marginalized_contingency_matches_direct() {
        let db = db();
        let cube = CountCube::build(&db, &Itemset::from_ids([0, 1, 2, 3, 4]));
        for sub in [
            Itemset::from_ids([0]),
            Itemset::from_ids([1, 3]),
            Itemset::from_ids([0, 2, 4]),
            Itemset::from_ids([0, 1, 2, 3, 4]),
        ] {
            let from_cube = cube.contingency(&sub);
            let direct = ContingencyTable::from_database(&db, &sub);
            assert_eq!(from_cube, direct, "mismatch for {sub}");
        }
    }

    #[test]
    fn itemset_support_helper() {
        let db = db();
        let cube = CountCube::build(&db, &Itemset::from_ids([0, 1, 2]));
        let index = BitmapIndex::build(&db);
        let probe = Itemset::from_ids([0, 2]);
        assert_eq!(
            cube.itemset_support(&probe),
            index.support_count(probe.items())
        );
    }

    #[test]
    #[should_panic(expected = "not in the cube")]
    fn foreign_item_panics() {
        let db = db();
        let cube = CountCube::build(&db, &Itemset::from_ids([0, 1]));
        cube.contingency(&Itemset::from_ids([4]));
    }
}
