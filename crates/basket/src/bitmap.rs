//! The per-item vertical index over a database's baskets.
//!
//! The support of an itemset is "how many baskets contain every item". With
//! one bitmap per item over the baskets, that is a word-wise AND plus
//! popcount ([`BitmapIndex::support_count`]) — the one counting path behind
//! the miner, Apriori, rule evaluation and every sealed segment's
//! supports. Every item's bitmap lives in one item-major
//! `Vec<u64>`, so a build is one allocation plus one pass over the baskets.

use crate::database::BasketDatabase;
use crate::item::ItemId;

/// Words per block of [`BitmapIndex::support_count`]'s multi-way AND: a
/// 512-byte stack buffer covering 4,096 baskets.
const BLOCK_WORDS: usize = 64;

/// A vertical index: one bitmap per item, over the baskets of a database.
///
/// Bit `b` of `index.item(i)` (bit `b % 64` of word `b / 64`) is set iff
/// basket `b` contains item `i`. Bits past the last basket are zero.
#[derive(Clone, Debug)]
pub struct BitmapIndex {
    n_baskets: usize,
    n_items: usize,
    /// Words per item bitmap: `⌈n_baskets / 64⌉`.
    stride: usize,
    /// Item `i`'s bitmap is `words[i * stride..(i + 1) * stride]`.
    words: Vec<u64>,
}

impl BitmapIndex {
    /// Builds the index with one pass over `db`.
    pub fn build(db: &BasketDatabase) -> Self {
        let n_baskets = db.len();
        let n_items = db.n_items();
        let stride = n_baskets.div_ceil(64);
        let mut words = vec![0u64; n_items * stride];
        for (b, basket) in db.baskets().enumerate() {
            let (word, bit) = (b / 64, 1u64 << (b % 64));
            for &item in basket {
                words[item.index() * stride + word] |= bit;
            }
        }
        BitmapIndex {
            n_baskets,
            n_items,
            stride,
            words,
        }
    }

    /// Number of baskets the index covers.
    pub fn n_baskets(&self) -> usize {
        self.n_baskets
    }

    /// Number of items the index covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The bitmap of one item: `⌈n_baskets / 64⌉` words.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    pub fn item(&self, item: ItemId) -> &[u64] {
        let i = item.index();
        assert!(
            i < self.n_items,
            "item {i} out of range for an index over {} items",
            self.n_items
        );
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// `O(S)`: the number of baskets containing every item of `items`.
    ///
    /// The empty set is contained in every basket. Allocation-free and
    /// branch-free per word — this sits in the miner's hottest loop. Pairs
    /// are one zipped AND+popcount. Wider sets walk the words in blocks of
    /// 64: the first two items' block is ANDed into a stack buffer, each
    /// further item's block is ANDed into it, and the buffer is popcounted.
    pub fn support_count(&self, items: &[ItemId]) -> u64 {
        match items {
            [] => self.n_baskets as u64,
            [single] => popcount(self.item(*single)),
            [a, b] => self
                .item(*a)
                .iter()
                .zip(self.item(*b))
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum(),
            [a, b, rest @ ..] => {
                let (a, b) = (self.item(*a), self.item(*b));
                let mut buffer = [0u64; BLOCK_WORDS];
                let mut total = 0u64;
                for start in (0..a.len()).step_by(BLOCK_WORDS) {
                    let end = (start + BLOCK_WORDS).min(a.len());
                    let acc = &mut buffer[..end - start];
                    for ((slot, x), y) in acc.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
                        *slot = x & y;
                    }
                    for item in rest {
                        for (slot, w) in acc.iter_mut().zip(&self.item(*item)[start..end]) {
                            *slot &= w;
                        }
                    }
                    total += popcount(acc);
                }
                total
            }
        }
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::BasketDatabase;
    use crate::itemset::Itemset;

    fn toy_db() -> BasketDatabase {
        // 4 baskets over 3 items:
        //   b0 = {0,1}, b1 = {1}, b2 = {0,2}, b3 = {}
        BasketDatabase::from_id_baskets(3, vec![vec![0, 1], vec![1], vec![0, 2], vec![]])
    }

    #[test]
    fn index_support_counts() {
        let idx = BitmapIndex::build(&toy_db());
        assert_eq!(idx.support_count(&[]), 4);
        assert_eq!(idx.support_count(&[ItemId(0)]), 2);
        assert_eq!(idx.support_count(&[ItemId(1)]), 2);
        assert_eq!(idx.support_count(&[ItemId(2)]), 1);
        assert_eq!(idx.support_count(&[ItemId(0), ItemId(1)]), 1);
        assert_eq!(idx.support_count(&[ItemId(0), ItemId(1), ItemId(2)]), 0);
    }

    /// Baskets containing every item of `items`, one basket at a time.
    fn naive_support(db: &BasketDatabase, items: &[ItemId]) -> u64 {
        db.baskets()
            .filter(|basket| items.iter().all(|item| basket.contains(item)))
            .count() as u64
    }

    #[test]
    fn support_count_matches_a_per_basket_scan() {
        use rand::{Rng, SeedableRng};
        const NEVER: u32 = 0;
        const ALWAYS: u32 = 1;
        let n_items = 8u32;
        let block = BLOCK_WORDS * 64;
        for n in [
            0,
            1,
            63,
            64,
            65,
            block - 1,
            block,
            block + 1,
            2 * block + 1,
            20_000,
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let baskets: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut basket = vec![ALWAYS];
                    // Dense items, so wide sets still have support.
                    basket.extend((2..n_items).filter(|_| rng.gen_bool(0.7)));
                    basket
                })
                .collect();
            let db = BasketDatabase::from_id_baskets(n_items as usize, baskets);
            let index = BitmapIndex::build(&db);
            assert_eq!(index.support_count(&[ItemId(NEVER)]), 0);
            assert_eq!(index.support_count(&[ItemId(ALWAYS)]), n as u64);
            for width in 2..=6 {
                // Every window of `width` consecutive items: the first
                // holds the item in no basket, the second the item in every
                // basket.
                for first in 0..=n_items - width as u32 {
                    let items: Vec<ItemId> = (first..first + width as u32).map(ItemId).collect();
                    assert_eq!(
                        index.support_count(&items),
                        naive_support(&db, &items),
                        "n = {n}, items = {items:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_index_matches_the_baskets_at_word_edges() {
        use rand::{Rng, SeedableRng};
        // Item 5 is in no basket.
        let n_items = 6u32;
        let empty = ItemId(5);
        for n in [0usize, 1, 63, 64, 65, 4_097] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + 7);
            let baskets: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..n_items - 1).filter(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let db = BasketDatabase::from_id_baskets(n_items as usize, baskets);
            let index = BitmapIndex::build(&db);
            assert_eq!((index.n_baskets(), index.n_items()), (n, n_items as usize));
            for i in (0..n_items).map(ItemId) {
                let words = index.item(i);
                assert_eq!(words.len(), n.div_ceil(64), "n = {n}");
                let single = Itemset::singleton(i);
                for b in 0..words.len() * 64 {
                    let bit = words[b / 64] >> (b % 64) & 1 == 1;
                    // Bits past the last basket stay zero.
                    let expected = b < n && db.basket_contains(b, &single);
                    assert_eq!(bit, expected, "n = {n}, item {i:?}, bit {b}");
                }
                assert_eq!(index.support_count(&[i]), naive_support(&db, &[i]));
                for j in (i.0 + 1..n_items).map(ItemId) {
                    assert_eq!(
                        index.support_count(&[i, j]),
                        naive_support(&db, &[i, j]),
                        "n = {n}, pair ({i:?}, {j:?})"
                    );
                }
            }
            assert_eq!(index.support_count(&[empty]), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item_panics() {
        let index = BitmapIndex::build(&toy_db());
        index.item(ItemId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item_panics_over_no_baskets() {
        // With no baskets every bitmap is zero words long, so only the
        // item check can catch this.
        let index = BitmapIndex::build(&BasketDatabase::from_id_baskets(3, vec![]));
        index.support_count(&[ItemId(3)]);
    }
}
