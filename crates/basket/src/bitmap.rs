//! Fixed-width bitmaps and the per-item vertical index.
//!
//! The support of an itemset is "how many baskets contain every item". With
//! one bitmap per item over the baskets, that is a word-wise AND plus
//! popcount ([`BitmapIndex::support_count`]) — the workhorse behind the
//! [`crate::counts::BitmapCounter`], the miner's counting and every sealed
//! segment's supports.

use crate::database::BasketDatabase;
use crate::item::ItemId;

/// A fixed-length bitmap over `len` positions, packed into `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Box<[u64]>,
}

impl Bitmap {
    /// An all-zeros bitmap over `len` positions.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// An all-ones bitmap over `len` positions.
    pub fn ones(len: usize) -> Self {
        let mut bm = Self::zeros(len);
        for w in bm.words.iter_mut() {
            *w = u64::MAX;
        }
        bm.mask_tail();
        bm
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets position `i` to one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears position `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of range for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// In-place AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// In-place AND-NOT with `other` (`self &= !other`).
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// In-place OR with `other`.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place complement (within `len`).
    pub fn not_assign(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// `popcount(self & other)` without materializing the intersection.
    pub fn and_count(&self, other: &Bitmap) -> u64 {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }

    /// Iterates the indexes of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    None
                } else {
                    let tz = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Zeroes any bits past `len` in the final word, restoring the invariant
    /// after whole-word operations like `not_assign`.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Words per block of [`BitmapIndex::support_count`]'s multi-way AND: a
/// 512-byte stack buffer covering 4,096 baskets.
const BLOCK_WORDS: usize = 64;

/// A vertical index: one [`Bitmap`] per item, over the baskets of a database.
///
/// `index.item(i)` has bit `b` set iff basket `b` contains item `i`.
#[derive(Clone, Debug)]
pub struct BitmapIndex {
    n_baskets: usize,
    item_bitmaps: Vec<Bitmap>,
}

impl BitmapIndex {
    /// Builds the index with one pass over `db`.
    pub fn build(db: &BasketDatabase) -> Self {
        let n = db.len();
        let k = db.n_items();
        let mut item_bitmaps = vec![Bitmap::zeros(n); k];
        for (b, basket) in db.baskets().enumerate() {
            for &item in basket {
                item_bitmaps[item.index()].set(b);
            }
        }
        BitmapIndex {
            n_baskets: n,
            item_bitmaps,
        }
    }

    /// Number of baskets the index covers.
    pub fn n_baskets(&self) -> usize {
        self.n_baskets
    }

    /// Number of items the index covers.
    pub fn n_items(&self) -> usize {
        self.item_bitmaps.len()
    }

    /// The bitmap for one item.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    pub fn item(&self, item: ItemId) -> &Bitmap {
        &self.item_bitmaps[item.index()]
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
            [single] => self.item(*single).count_ones(),
            [a, b] => self.item(*a).and_count(self.item(*b)),
            [a, b, rest @ ..] => {
                let (a, b) = (&self.item(*a).words, &self.item(*b).words);
                let mut buffer = [0u64; BLOCK_WORDS];
                let mut total = 0u64;
                for start in (0..a.len()).step_by(BLOCK_WORDS) {
                    let end = (start + BLOCK_WORDS).min(a.len());
                    let acc = &mut buffer[..end - start];
                    for ((slot, x), y) in acc.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
                        *slot = x & y;
                    }
                    for item in rest {
                        for (slot, w) in acc.iter_mut().zip(&self.item(*item).words[start..end]) {
                            *slot &= w;
                        }
                    }
                    total += acc.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                }
                total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::BasketDatabase;

    #[test]
    fn zeros_ones_and_len() {
        let z = Bitmap::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        let o = Bitmap::ones(130);
        assert_eq!(o.count_ones(), 130);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(70);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(69);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(69));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Bitmap::zeros(10).get(10);
    }

    #[test]
    fn not_assign_masks_tail() {
        let mut b = Bitmap::zeros(65);
        b.not_assign();
        assert_eq!(b.count_ones(), 65);
        b.not_assign();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn boolean_ops() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        assert_eq!(a.and_count(&b), 17); // multiples of 6 in [0,100)
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c.count_ones(), 17);
        let mut d = a.clone();
        d.or_assign(&b);
        assert_eq!(d.count_ones(), 50 + 34 - 17);
        let mut e = a.clone();
        e.and_not_assign(&b);
        assert_eq!(e.count_ones(), 50 - 17);
    }

    #[test]
    fn iter_ones_round_trip() {
        let mut b = Bitmap::zeros(200);
        let positions = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &p in &positions {
            b.set(p);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, positions);
    }

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
}
