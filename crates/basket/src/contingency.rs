//! Contingency tables over binary items.
//!
//! For an itemset `S = {i_1, ..., i_m}` the contingency table has `2^m`
//! cells, one per combination of presence/absence. We index cells by a
//! bitmask: bit `j` set means the `j`-th item of `S` (in sorted order) is
//! *present* in the cell. `O(r)` is the observed count; the expectation under
//! full independence is `E[r] = n · Π_j p_j` with `p_j = O(i_j)/n` for
//! present items and `1 − O(i_j)/n` for absent ones (Section 3 of the
//! paper).
//!
//! Two representations are provided:
//!
//! * [`ContingencyTable`] — dense `2^m` counts, the natural layout up to
//!   m ≈ 20;
//! * [`SparseContingencyTable`] — only the occupied cells (at most `n` of
//!   them, and at most `min(n, 2^m)`), supporting the paper's massaged
//!   chi-squared formula `Σ O(O − 2E)/E + n`.

use std::collections::HashMap;
use std::convert::Infallible;

use crate::bitmap::BitmapIndex;
use crate::database::BasketDatabase;
use crate::item::ItemId;
use crate::itemset::Itemset;

/// A cell of a contingency table: which items of the itemset are present.
pub type CellMask = u32;

/// Largest itemset dimensionality a dense table will materialize.
pub const MAX_DENSE_DIMS: usize = 24;

/// `E[r] = n · Π_j p_j` for `cell` of a table over `n` baskets whose items
/// have marginals `item_counts` (itemset order): the one formula behind
/// [`ContingencyTable::expected`], for callers that hold only the counts.
pub fn expected_count(n: u64, item_counts: &[u64], cell: CellMask) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let mut e = n;
    for (j, &count) in item_counts.iter().enumerate() {
        let p = count as f64 / n;
        e *= if cell & (1 << j) != 0 { p } else { 1.0 - p };
    }
    e
}

/// A dense `2^m` contingency table for one itemset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContingencyTable {
    itemset: Itemset,
    n: u64,
    /// Observed counts, indexed by [`CellMask`].
    counts: Vec<u64>,
    /// `O(i_j)` for each item of the itemset, in itemset order.
    item_counts: Vec<u64>,
}

impl ContingencyTable {
    /// Debug-build contract applied by every constructor: cell counts
    /// sum to `n`, and each stored item marginal equals the sum of the
    /// cells where that item is present. Free in release builds.
    fn checked(self) -> Self {
        if cfg!(debug_assertions) {
            let cell_sum: u64 = self.counts.iter().sum();
            debug_assert!(
                cell_sum == self.n,
                "contingency contract violated: cells sum to {cell_sum}, n = {}",
                self.n
            );
            for (j, &marginal) in self.item_counts.iter().enumerate() {
                let from_cells: u64 = self
                    .counts
                    .iter()
                    .enumerate()
                    .filter(|(mask, _)| mask & (1 << j) != 0)
                    .map(|(_, &c)| c)
                    .sum();
                debug_assert!(
                    from_cells == marginal,
                    "contingency contract violated: marginal {j} is {from_cells} \
                     from cells but {marginal} was stored"
                );
            }
        }
        self
    }

    /// Builds the table with a single scan over the database — the
    /// counting pass of the paper's Figure 1 algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty or larger than [`MAX_DENSE_DIMS`].
    pub fn from_database(db: &BasketDatabase, itemset: &Itemset) -> Self {
        let m = itemset.len();
        assert_dense_dims(m);
        let mut counts = vec![0u64; 1 << m];
        for basket in db.baskets() {
            counts[cell_mask_of(basket, itemset) as usize] += 1;
        }
        let item_counts = itemset.items().iter().map(|&i| db.item_count(i)).collect();
        ContingencyTable {
            itemset: itemset.clone(),
            n: db.len() as u64,
            counts,
            item_counts,
        }
        .checked()
    }

    /// Builds the table from a vertical bitmap index by computing the
    /// support of every sub-mask and Möbius-inverting the superset sums
    /// ([`ContingencyTable::from_subset_supports`]).
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty or larger than [`MAX_DENSE_DIMS`].
    pub fn from_index(index: &BitmapIndex, itemset: &Itemset) -> Self {
        Self::from_subsets(itemset, |subset| index.support_count(subset))
    }

    /// [`ContingencyTable::try_from_subsets`] for a `support` that cannot
    /// fail.
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty or larger than [`MAX_DENSE_DIMS`].
    pub fn from_subsets(itemset: &Itemset, mut support: impl FnMut(&[ItemId]) -> u64) -> Self {
        let Ok(table) =
            Self::try_from_subsets(itemset, |subset| Ok::<u64, Infallible>(support(subset)));
        table
    }

    /// Builds the table from the supports of `itemset`'s `2^m` subsets.
    ///
    /// `support` is asked for each subset in mask order (bit `j` of the
    /// mask selects the `j`-th item), with the subset's items sorted in a
    /// stack buffer; its answers fill one support vector, which
    /// [`ContingencyTable::from_subset_supports`] inverts in place. The
    /// first `Err` aborts the build and is returned.
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty or larger than [`MAX_DENSE_DIMS`].
    pub fn try_from_subsets<E>(
        itemset: &Itemset,
        mut support: impl FnMut(&[ItemId]) -> Result<u64, E>,
    ) -> Result<Self, E> {
        let m = itemset.len();
        assert_dense_dims(m);
        let items = itemset.items();
        let mut key = [ItemId(0); MAX_DENSE_DIMS];
        let mut supports = Vec::with_capacity(1 << m);
        for mask in 0u32..(1 << m) {
            let mut len = 0;
            for (j, &item) in items.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    key[len] = item;
                    len += 1;
                }
            }
            supports.push(support(&key[..len])?);
        }
        Ok(Self::from_subset_supports(itemset.clone(), supports))
    }

    /// Builds the table from a complete *support vector*:
    /// `supports[mask]` is the number of baskets containing every item
    /// `mask` selects (bit `j` selects the `j`-th item). Every contingency
    /// table assembled from supports — bitmap index, segment snapshot,
    /// query engine, miner and cluster coordinator — goes through this one
    /// inversion, so equal support vectors give bit-identical tables.
    ///
    /// `supp(mask) = Σ_{cell ⊇ mask} O(cell)`, so subtracting the
    /// superset-sum transform bit by bit recovers `O` in `O(m·2^m)`, in
    /// place. A cell that comes out negative (only inconsistent supports
    /// can do that) is clamped to 0; the item marginals are then summed
    /// from the cells, as in [`ContingencyTable::from_counts`].
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty or larger than [`MAX_DENSE_DIMS`],
    /// or if `supports.len() != 2^m`.
    pub fn from_subset_supports(itemset: Itemset, mut supports: Vec<u64>) -> Self {
        let m = itemset.len();
        assert_dense_dims(m);
        assert_eq!(
            supports.len(),
            1 << m,
            "support vector must hold all 2^m subset supports"
        );
        // counts[mask] = Σ_{S ⊇ mask} (−1)^{|S∖mask|} supp[S]. Wrapping u64
        // subtraction is i64 subtraction read as two's complement, so the
        // sign test below sees exactly what signed arithmetic would.
        for bit in 0..m {
            let step = 1usize << bit;
            for mask in 0..supports.len() {
                if mask & step == 0 {
                    supports[mask] = supports[mask].wrapping_sub(supports[mask | step]);
                }
            }
        }
        for count in &mut supports {
            *count = (*count as i64).max(0) as u64;
        }
        Self::from_counts(itemset, supports)
    }

    /// Builds a table directly from raw cell counts and item marginals.
    ///
    /// `counts[mask]` follows the [`CellMask`] convention. Used by dataset
    /// generators and tests that start from published tables.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != 2^m` or the marginals are inconsistent
    /// with the cell counts.
    pub fn from_counts(itemset: Itemset, counts: Vec<u64>) -> Self {
        let m = itemset.len();
        assert_eq!(counts.len(), 1 << m, "need 2^m cell counts");
        let n: u64 = counts.iter().sum();
        let item_counts: Vec<u64> = (0..m)
            .map(|j| {
                counts
                    .iter()
                    .enumerate()
                    .filter(|(mask, _)| mask & (1 << j) != 0)
                    .map(|(_, &c)| c)
                    .sum()
            })
            .collect();
        ContingencyTable {
            itemset,
            n,
            counts,
            item_counts,
        }
        .checked()
    }

    /// The itemset this table describes.
    pub fn itemset(&self) -> &Itemset {
        &self.itemset
    }

    /// Dimensionality `m`.
    pub fn dims(&self) -> usize {
        self.itemset.len()
    }

    /// Total number of cells, `2^m`.
    pub fn n_cells(&self) -> usize {
        self.counts.len()
    }

    /// Total observations `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Observed count `O(r)` for a cell.
    pub fn observed(&self, cell: CellMask) -> u64 {
        self.counts[cell as usize]
    }

    /// Marginal count `O(i_j)` of the `j`-th item of the itemset.
    pub fn item_count(&self, j: usize) -> u64 {
        self.item_counts[j]
    }

    /// Expected count `E[r]` under full independence of all `m` items.
    pub fn expected(&self, cell: CellMask) -> f64 {
        expected_count(self.n, &self.item_counts, cell)
    }

    /// Iterates `(cell, observed)` over all `2^m` cells.
    pub fn cells(&self) -> impl Iterator<Item = (CellMask, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(mask, &c)| (mask as CellMask, c))
    }

    /// Iterates only occupied cells (`O(r) > 0`).
    pub fn occupied_cells(&self) -> impl Iterator<Item = (CellMask, u64)> + '_ {
        self.cells().filter(|&(_, c)| c > 0)
    }

    /// Number of cells whose *observed* value is at least `s` — the quantity
    /// behind the paper's cell-based support definition (Section 4).
    pub fn cells_with_count_at_least(&self, s: u64) -> usize {
        self.counts.iter().filter(|&&c| c >= s).count()
    }

    /// Collapses the table onto a subset of its items, marginalizing the
    /// rest out. `keep` lists positions (0-based, itemset order) to retain.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty, unsorted, or out of range.
    pub fn marginalize(&self, keep: &[usize]) -> ContingencyTable {
        assert!(!keep.is_empty(), "must keep at least one dimension");
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be strictly sorted"
        );
        assert!(
            keep.last().is_some_and(|&j| j < self.dims()),
            "keep position out of range"
        );
        let new_items: Vec<ItemId> = keep.iter().map(|&j| self.itemset.items()[j]).collect();
        let mut counts = vec![0u64; 1 << keep.len()];
        for (mask, c) in self.cells() {
            let mut new_mask: CellMask = 0;
            for (new_j, &old_j) in keep.iter().enumerate() {
                if mask & (1 << old_j) != 0 {
                    new_mask |= 1 << new_j;
                }
            }
            counts[new_mask as usize] += c;
        }
        let item_counts = keep.iter().map(|&j| self.item_counts[j]).collect();
        ContingencyTable {
            itemset: Itemset::from_sorted(new_items),
            n: self.n,
            counts,
            item_counts,
        }
        .checked()
    }

    /// Renders a cell as present/absent item labels, e.g. `ab̄c`.
    pub fn describe_cell(&self, cell: CellMask, names: &[&str]) -> String {
        let mut out = String::new();
        for (j, name) in names.iter().enumerate().take(self.dims()) {
            if cell & (1 << j) != 0 {
                out.push_str(name);
            } else {
                out.push('!');
                out.push_str(name);
            }
            if j + 1 < self.dims() {
                out.push(' ');
            }
        }
        out
    }
}

/// A sparse contingency table holding only occupied cells.
///
/// When `2^m` exceeds `n`, most cells are empty; the paper notes the
/// chi-squared value can still be computed from occupied cells alone via
/// `x² = Σ_{O(r)>0} O(r)(O(r) − 2E[r])/E[r] + n`.
#[derive(Clone, Debug)]
pub struct SparseContingencyTable {
    itemset: Itemset,
    n: u64,
    cells: HashMap<u64, u64>,
    item_counts: Vec<u64>,
}

impl SparseContingencyTable {
    /// Builds by a single scan over the database; memory is proportional to
    /// the number of distinct occupied cells, never `2^m`.
    ///
    /// Supports itemsets of up to 64 items.
    pub fn from_database(db: &BasketDatabase, itemset: &Itemset) -> Self {
        let m = itemset.len();
        assert!(m > 0, "contingency table needs at least one item");
        assert!(m <= 64, "sparse table limited to 64 dimensions");
        let mut cells: HashMap<u64, u64> = HashMap::new();
        for basket in db.baskets() {
            *cells.entry(wide_cell_mask_of(basket, itemset)).or_insert(0) += 1;
        }
        let item_counts = itemset.items().iter().map(|&i| db.item_count(i)).collect();
        SparseContingencyTable {
            itemset: itemset.clone(),
            n: db.len() as u64,
            cells,
            item_counts,
        }
    }

    /// The itemset this table describes.
    pub fn itemset(&self) -> &Itemset {
        &self.itemset
    }

    /// Dimensionality `m`.
    pub fn dims(&self) -> usize {
        self.itemset.len()
    }

    /// Total observations `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of occupied cells.
    pub fn n_occupied(&self) -> usize {
        self.cells.len()
    }

    /// Observed count for a cell (0 when unoccupied).
    pub fn observed(&self, cell: u64) -> u64 {
        self.cells.get(&cell).copied().unwrap_or(0)
    }

    /// Expected count under full independence.
    pub fn expected(&self, cell: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mut e = n;
        for (j, &count) in self.item_counts.iter().enumerate() {
            let p = count as f64 / n;
            e *= if cell & (1 << j) != 0 { p } else { 1.0 - p };
        }
        e
    }

    /// Iterates occupied `(cell, observed)` pairs in unspecified order.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.cells.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of cells (occupied only — unoccupied cells cannot reach any
    /// positive threshold) whose observed value is at least `s`.
    pub fn cells_with_count_at_least(&self, s: u64) -> usize {
        if s == 0 {
            // Every one of the 2^m cells trivially has count >= 0; saturate.
            return usize::MAX;
        }
        self.cells.values().filter(|&&c| c >= s).count()
    }
}

/// The dimension limits every dense constructor but
/// [`ContingencyTable::from_counts`] enforces.
fn assert_dense_dims(m: usize) {
    assert!(m > 0, "contingency table needs at least one item");
    assert!(
        m <= MAX_DENSE_DIMS,
        "dense table limited to {MAX_DENSE_DIMS} dimensions"
    );
}

/// Computes the cell (as a [`CellMask`]) a sorted basket falls into for the
/// given itemset: bit `j` set iff the basket contains the `j`-th item.
#[inline]
pub fn cell_mask_of(basket: &[ItemId], itemset: &Itemset) -> CellMask {
    wide_cell_mask_of(basket, itemset) as CellMask
}

/// 64-bit variant of [`cell_mask_of`] for itemsets of up to 64 items.
#[inline]
pub fn wide_cell_mask_of(basket: &[ItemId], itemset: &Itemset) -> u64 {
    let mut mask: u64 = 0;
    let mut bi = 0;
    for (j, &want) in itemset.items().iter().enumerate() {
        while bi < basket.len() && basket[bi] < want {
            bi += 1;
        }
        if bi < basket.len() && basket[bi] == want {
            mask |= 1 << j;
            bi += 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1 of the paper: tea/coffee percentages of n = 100 baskets.
    /// Cell layout (bit0 = tea present, bit1 = coffee present):
    ///   t∧c = 20, t∧c̄ = 5, t̄∧c = 70, t̄∧c̄ = 5.
    fn tea_coffee_db() -> BasketDatabase {
        let mut baskets = Vec::new();
        for _ in 0..20 {
            baskets.push(vec![0, 1]); // tea & coffee
        }
        for _ in 0..5 {
            baskets.push(vec![0]); // tea only
        }
        for _ in 0..70 {
            baskets.push(vec![1]); // coffee only
        }
        for _ in 0..5 {
            baskets.push(vec![]);
        }
        BasketDatabase::from_id_baskets(2, baskets)
    }

    #[test]
    fn scan_build_matches_paper_example_1() {
        let db = tea_coffee_db();
        let set = Itemset::from_ids([0, 1]);
        let t = ContingencyTable::from_database(&db, &set);
        assert_eq!(t.n(), 100);
        assert_eq!(t.observed(0b11), 20);
        assert_eq!(t.observed(0b01), 5); // tea, no coffee
        assert_eq!(t.observed(0b10), 70); // coffee, no tea
        assert_eq!(t.observed(0b00), 5);
        assert_eq!(t.item_count(0), 25); // tea row sum
        assert_eq!(t.item_count(1), 90); // coffee column sum
                                         // E[t∧c] = 100 · 0.25 · 0.9 = 22.5
        assert!((t.expected(0b11) - 22.5).abs() < 1e-9);
        // E[t̄∧c̄] = 100 · 0.75 · 0.1 = 7.5
        assert!((t.expected(0b00) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn index_build_matches_scan_build() {
        let db = tea_coffee_db();
        let idx = BitmapIndex::build(&db);
        for set in [
            Itemset::from_ids([0]),
            Itemset::from_ids([1]),
            Itemset::from_ids([0, 1]),
        ] {
            let a = ContingencyTable::from_database(&db, &set);
            let b = ContingencyTable::from_index(&idx, &set);
            assert_eq!(a, b, "mismatch for {set}");
        }
    }

    #[test]
    fn cells_sum_to_n() {
        let db = tea_coffee_db();
        let t = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        let total: u64 = t.cells().map(|(_, c)| c).sum();
        assert_eq!(total, t.n());
        let e_total: f64 = t.cells().map(|(c, _)| t.expected(c)).sum();
        assert!((e_total - t.n() as f64).abs() < 1e-6);
    }

    #[test]
    fn from_counts_derives_marginals() {
        let set = Itemset::from_ids([3, 7]);
        let t = ContingencyTable::from_counts(set, vec![5, 20, 70, 5]);
        // bit0 = item 3 present: masks 1 and 3 → 20 + 5 = 25.
        assert_eq!(t.item_count(0), 25);
        // bit1 = item 7 present: masks 2 and 3 → 70 + 5 = 75.
        assert_eq!(t.item_count(1), 75);
        assert_eq!(t.n(), 100);
    }

    #[test]
    fn three_way_table() {
        let db = BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0],
                vec![],
                vec![1, 2],
                vec![2],
            ],
        );
        let set = Itemset::from_ids([0, 1, 2]);
        let t = ContingencyTable::from_database(&db, &set);
        assert_eq!(t.n_cells(), 8);
        assert_eq!(t.observed(0b111), 1);
        assert_eq!(t.observed(0b011), 1);
        assert_eq!(t.observed(0b001), 1);
        assert_eq!(t.observed(0b000), 1);
        assert_eq!(t.observed(0b110), 1);
        assert_eq!(t.observed(0b100), 1);
        let idx = BitmapIndex::build(&db);
        assert_eq!(t, ContingencyTable::from_index(&idx, &set));
    }

    #[test]
    fn marginalize_collapses_correctly() {
        let db = tea_coffee_db();
        let pair = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        let tea_only = pair.marginalize(&[0]);
        assert_eq!(tea_only.observed(0b1), 25);
        assert_eq!(tea_only.observed(0b0), 75);
        let coffee_only = pair.marginalize(&[1]);
        assert_eq!(coffee_only.observed(0b1), 90);
    }

    #[test]
    fn sparse_matches_dense() {
        let db = tea_coffee_db();
        let set = Itemset::from_ids([0, 1]);
        let dense = ContingencyTable::from_database(&db, &set);
        let sparse = SparseContingencyTable::from_database(&db, &set);
        assert_eq!(sparse.n(), dense.n());
        for (mask, c) in dense.cells() {
            assert_eq!(sparse.observed(mask as u64), c);
            if c > 0 {
                assert!((sparse.expected(mask as u64) - dense.expected(mask)).abs() < 1e-9);
            }
        }
        assert_eq!(sparse.n_occupied(), 4);
    }

    #[test]
    fn sparse_occupied_cells_bounded_by_n() {
        let db = BasketDatabase::from_id_baskets(
            40,
            (0..10).map(|i| vec![i, i + 10, i + 20, i + 30]).collect(),
        );
        let set = Itemset::from_items((0..40).map(ItemId));
        let sparse = SparseContingencyTable::from_database(&db, &set);
        assert!(sparse.n_occupied() <= 10);
    }

    #[test]
    fn support_cells_threshold() {
        let db = tea_coffee_db();
        let t = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        assert_eq!(t.cells_with_count_at_least(1), 4);
        assert_eq!(t.cells_with_count_at_least(5), 4);
        assert_eq!(t.cells_with_count_at_least(6), 2);
        assert_eq!(t.cells_with_count_at_least(71), 0);
    }

    #[test]
    fn cell_mask_walks_sorted_baskets() {
        let set = Itemset::from_ids([2, 5, 9]);
        let basket = [ItemId(1), ItemId(5), ItemId(9)];
        assert_eq!(cell_mask_of(&basket, &set), 0b110);
        assert_eq!(cell_mask_of(&[], &set), 0);
        let all = [ItemId(2), ItemId(5), ItemId(9)];
        assert_eq!(cell_mask_of(&all, &set), 0b111);
    }

    #[test]
    fn describe_cell_renders_presence() {
        let db = tea_coffee_db();
        let t = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        assert_eq!(t.describe_cell(0b01, &["t", "c"]), "t !c");
        assert_eq!(t.describe_cell(0b10, &["t", "c"]), "!t c");
    }
}
