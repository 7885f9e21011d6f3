//! Incremental basket ingest: sealed segments, a mutable tail, and
//! copy-on-write snapshots.
//!
//! The batch pipeline assumes a static [`BasketDatabase`]; a long-running
//! correlation service cannot afford to rebuild the vertical index on every
//! append. An [`IncrementalStore`] keeps ingested baskets in *sealed*
//! immutable [`Segment`]s — each carrying its own [`BitmapIndex`] and item
//! counts — plus a small mutable tail. Readers obtain an [`std::sync::Arc`]-shared
//! [`Snapshot`] pinned to an *epoch* (the number of baskets ingested when
//! the snapshot was taken); snapshots are immutable, so queries never block
//! ingest and never observe a torn database.
//!
//! Support counting over a snapshot sums per-segment bitmap counts, which
//! is exactly the count over the concatenated database: segments partition
//! the baskets, and `O(S)` is additive over any partition. A segment
//! answers the empty set from its basket count and a singleton from its
//! item counts; only multi-item sets sweep its bitmaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::bitmap::BitmapIndex;
use crate::contingency::ContingencyTable;
use crate::database::BasketDatabase;
use crate::item::ItemId;
use crate::itemset::Itemset;

/// Tuning knobs for an [`IncrementalStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Baskets accumulated in the mutable tail before it is sealed into an
    /// immutable segment. Larger segments mean fewer, bigger bitmap
    /// indexes; smaller segments seal sooner, so the tail a snapshot
    /// copies stays small.
    pub segment_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_capacity: 4096,
        }
    }
}

impl StoreConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `segment_capacity` is zero.
    pub fn validate(&self) {
        assert!(
            self.segment_capacity > 0,
            "segment_capacity must be positive"
        );
    }
}

/// An immutable run of baskets with its vertical index.
///
/// Sealed segments are identified by a stable `id`; equal ids across
/// snapshots of the same store refer to identical contents, so a finding
/// (for example a scrub's) can name the segment it is about.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    db: BasketDatabase,
    index: BitmapIndex,
}

impl Segment {
    /// Seals a database into an immutable segment, building its index.
    pub fn seal(id: u64, db: BasketDatabase) -> Self {
        let index = BitmapIndex::build(&db);
        Segment { id, db, index }
    }

    /// The segment's stable identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of baskets in the segment.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the segment holds no baskets.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// The underlying (immutable) baskets.
    pub fn database(&self) -> &BasketDatabase {
        &self.db
    }

    /// The segment's vertical index.
    pub fn index(&self) -> &BitmapIndex {
        &self.index
    }

    /// `O(S)` within this segment: the basket count for `[]`, the item's
    /// count for `[i]`, and a bitmap AND+popcount otherwise.
    pub fn support(&self, items: &[ItemId]) -> u64 {
        match items {
            [single] => self.db.item_count(*single),
            _ => self.index.support_count(items),
        }
    }

    /// Adds this segment's support of every item pair into `pairs`, the
    /// `(a, b)`-ordered pair triangle of [`Snapshot::pair_supports`]: one
    /// pass over the sorted, deduplicated baskets, adding 1 for every
    /// `a < b` in a basket.
    fn add_pair_supports(&self, pairs: &mut [u64]) {
        let n_items = self.db.n_items();
        for basket in self.db.baskets() {
            for (i, a) in basket.iter().enumerate() {
                let a = a.index();
                // Row `a` of the triangle holds `(a, a+1) .. (a, n-1)`.
                let row = &mut pairs[a * (2 * n_items - a - 1) / 2..];
                for b in &basket[i + 1..] {
                    row[b.index() - a - 1] += 1;
                }
            }
        }
    }
}

/// Error from appending a basket naming an item outside the store's item
/// space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemOutOfRange {
    /// The offending item.
    pub item: ItemId,
    /// The store's item-space size.
    pub n_items: usize,
}

impl std::fmt::Display for ItemOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {} out of range for item space of {} items",
            self.item, self.n_items
        )
    }
}

impl std::error::Error for ItemOutOfRange {}

/// Writer-side state, guarded by one mutex.
#[derive(Debug)]
struct Inner {
    sealed: Vec<Arc<Segment>>,
    tail: BasketDatabase,
    /// Sealed copy of the current tail, reused by snapshots until the next
    /// append invalidates it.
    tail_cache: Option<Arc<Segment>>,
    next_segment_id: u64,
}

/// An append-only basket store with immutable snapshot handles.
///
/// # Examples
///
/// ```
/// use bmb_basket::{IncrementalStore, Itemset, StoreConfig};
///
/// let store = IncrementalStore::new(3, StoreConfig::default());
/// store.append_ids([0, 1]).unwrap();
/// store.append_ids([1, 2]).unwrap();
/// let snap = store.snapshot();
/// assert_eq!(snap.epoch(), 2);
/// assert_eq!(snap.support(Itemset::from_ids([1]).items()), 2);
/// // The snapshot is pinned: later ingest does not change it.
/// store.append_ids([1]).unwrap();
/// assert_eq!(snap.support(Itemset::from_ids([1]).items()), 2);
/// ```
#[derive(Debug)]
pub struct IncrementalStore {
    n_items: usize,
    config: StoreConfig,
    /// Total baskets ever ingested; the epoch of the *next* snapshot.
    epoch: AtomicU64,
    inner: Mutex<Inner>,
    /// The most recently built snapshot, swapped whole on rebuild.
    published: Mutex<Arc<Snapshot>>,
}

impl IncrementalStore {
    /// An empty store over an item space of `n_items` items.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(n_items: usize, config: StoreConfig) -> Self {
        config.validate();
        let empty = Arc::new(Snapshot {
            epoch: 0,
            n_items,
            n_baskets: 0,
            sealed: Vec::new(),
            tail: None,
        });
        IncrementalStore {
            n_items,
            config,
            epoch: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                sealed: Vec::new(),
                tail: BasketDatabase::new(n_items),
                tail_cache: None,
                next_segment_id: 0,
            }),
            published: Mutex::new(empty),
        }
    }

    /// Bulk-loads an existing database (e.g. a basket file) into a fresh
    /// store.
    pub fn from_database(db: &BasketDatabase, config: StoreConfig) -> Self {
        let store = IncrementalStore::new(db.n_items(), config);
        for basket in db.baskets() {
            // Items in an existing database are in range by construction.
            let _ = store.append(basket.iter().copied());
        }
        store
    }

    /// `k`: the size of the item space.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total baskets ingested so far (the epoch a fresh snapshot would
    /// carry).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Appends one basket; items are sorted and deduplicated. Returns the
    /// store epoch after the append.
    ///
    /// # Errors
    ///
    /// Returns [`ItemOutOfRange`] (without ingesting anything) if any item
    /// is outside the item space.
    pub fn append<I: IntoIterator<Item = ItemId>>(&self, items: I) -> Result<u64, ItemOutOfRange> {
        self.append_batch(std::iter::once(items.into_iter().collect::<Vec<ItemId>>()))
    }

    /// Appends a basket of raw `u32` ids; convenient in tests.
    ///
    /// # Errors
    ///
    /// Returns [`ItemOutOfRange`] if any id is outside the item space.
    pub fn append_ids<I: IntoIterator<Item = u32>>(&self, ids: I) -> Result<u64, ItemOutOfRange> {
        self.append(ids.into_iter().map(ItemId))
    }

    /// Appends many baskets under a single writer lock. Returns the store
    /// epoch after the batch. Either the whole batch is ingested or — when
    /// some basket names an out-of-range item — none of it is.
    ///
    /// # Errors
    ///
    /// Returns [`ItemOutOfRange`] for the first offending item.
    pub fn append_batch<B, I>(&self, baskets: B) -> Result<u64, ItemOutOfRange>
    where
        B: IntoIterator<Item = I>,
        I: IntoIterator<Item = ItemId>,
    {
        // Validate outside the lock so a bad batch never blocks readers.
        let baskets: Vec<Vec<ItemId>> = baskets
            .into_iter()
            .map(|b| b.into_iter().collect())
            .collect();
        for basket in &baskets {
            for &item in basket {
                if item.index() >= self.n_items {
                    return Err(ItemOutOfRange {
                        item,
                        n_items: self.n_items,
                    });
                }
            }
        }
        let appended = baskets.len() as u64;
        let mut inner = lock(&self.inner);
        for basket in baskets {
            inner.tail.push_basket(basket);
            if inner.tail.len() >= self.config.segment_capacity {
                let full = std::mem::replace(&mut inner.tail, BasketDatabase::new(self.n_items));
                let id = inner.next_segment_id;
                inner.next_segment_id += 1;
                inner.sealed.push(Arc::new(Segment::seal(id, full)));
            }
        }
        inner.tail_cache = None;
        // The epoch moves only while the writer lock is held, so it stays
        // consistent with the sealed/tail state a snapshot builder sees.
        Ok(self.epoch.fetch_add(appended, Ordering::AcqRel) + appended)
    }

    /// A consistent, immutable view of everything ingested so far.
    ///
    /// Cheap when nothing changed since the last call (an `Arc` clone);
    /// otherwise the tail is sealed into a temporary segment (`O(tail)`)
    /// and the new snapshot is published for subsequent callers.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let epoch = self.epoch();
        {
            let published = lock(&self.published);
            if published.epoch == epoch {
                return Arc::clone(&published);
            }
        }
        let snapshot = {
            let mut inner = lock(&self.inner);
            // Re-read under the writer lock: the store may have advanced
            // past the stale epoch observed above.
            let epoch = self.epoch();
            let tail = if inner.tail.is_empty() {
                None
            } else {
                match &inner.tail_cache {
                    Some(cached) => Some(Arc::clone(cached)),
                    None => {
                        // The tail copy is *not* a sealed segment: its id is
                        // reused across epochs, so nothing may key results
                        // by it. `u64::MAX` marks it clearly.
                        let sealed = Arc::new(Segment::seal(u64::MAX, inner.tail.clone()));
                        inner.tail_cache = Some(Arc::clone(&sealed));
                        Some(sealed)
                    }
                }
            };
            let n_baskets = inner.sealed.iter().map(|s| s.len()).sum::<usize>() + inner.tail.len();
            Arc::new(Snapshot {
                epoch,
                n_items: self.n_items,
                n_baskets,
                sealed: inner.sealed.clone(),
                tail,
            })
        };
        let mut published = lock(&self.published);
        // Another reader may have published an even newer snapshot first;
        // keep whichever is further along.
        if snapshot.epoch >= published.epoch {
            *published = Arc::clone(&snapshot);
        }
        snapshot
    }
}

/// Acquires a mutex, recovering from poisoning: the protected state is
/// only ever mutated through panic-free code paths, so a poisoned lock
/// still holds consistent data.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An immutable view of an [`IncrementalStore`] at one epoch.
///
/// All counting queries are answered by summing per-segment bitmap counts;
/// the result is bit-identical to the same query over the concatenated
/// [`BasketDatabase`] (see [`Snapshot::to_database`]).
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    n_items: usize,
    n_baskets: usize,
    sealed: Vec<Arc<Segment>>,
    tail: Option<Arc<Segment>>,
}

impl Snapshot {
    /// The number of baskets ingested when this snapshot was taken.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `k`: the size of the item space.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// `n`: the number of baskets visible to this snapshot.
    pub fn n_baskets(&self) -> usize {
        self.n_baskets
    }

    /// Whether the snapshot holds no baskets.
    pub fn is_empty(&self) -> bool {
        self.n_baskets == 0
    }

    /// The sealed (immutable, stable-id) segments, oldest first.
    pub fn sealed_segments(&self) -> &[Arc<Segment>] {
        &self.sealed
    }

    /// The sealed copy of the mutable tail, if it held any baskets.
    ///
    /// Its contents are valid only for this snapshot's epoch — results
    /// derived from it must not be cached under the segment's id.
    pub fn tail_segment(&self) -> Option<&Arc<Segment>> {
        self.tail.as_ref()
    }

    /// All segments, sealed then tail.
    pub fn segments(&self) -> impl Iterator<Item = &Arc<Segment>> {
        self.sealed.iter().chain(self.tail.iter())
    }

    /// `O(i)`: baskets containing item `i`.
    pub fn item_count(&self, item: ItemId) -> u64 {
        self.segments().map(|s| s.database().item_count(item)).sum()
    }

    /// `O(S)`: baskets containing every item of `items`.
    pub fn support(&self, items: &[ItemId]) -> u64 {
        self.segments().map(|s| s.support(items)).sum()
    }

    /// `O(ab)` of every item pair `a < b` at this epoch, in `(a, b)`
    /// order: `(0,1), (0,2), …, (0,k−1), (1,2), …, (k−2,k−1)`, one `u64`
    /// per pair.
    ///
    /// Each segment adds its pairs in one pass over its own baskets, so
    /// the cost is the baskets' pair count, not one bitmap sweep per
    /// pair. This answers only "all pairs"; a chosen itemset still counts
    /// through [`Snapshot::support`]. `check` runs after each segment's
    /// pass, and its first error ends the pass.
    ///
    /// # Errors
    ///
    /// The first error of `check`.
    pub fn pair_supports<E>(
        &self,
        mut check: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<u64>, E> {
        let n_items = self.n_items;
        let mut pairs = vec![0u64; n_items * n_items.saturating_sub(1) / 2];
        for segment in self.segments() {
            segment.add_pair_supports(&mut pairs);
            check()?;
        }
        Ok(pairs)
    }

    /// The full `2^m` contingency table of `set` at this epoch, assembled
    /// from per-segment supports by Möbius inversion — no cell-by-cell
    /// AND-NOT sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty or larger than
    /// [`crate::contingency::MAX_DENSE_DIMS`].
    pub fn contingency_table(&self, set: &Itemset) -> ContingencyTable {
        ContingencyTable::from_subsets(set, |subset| self.support(subset))
    }

    /// Exports the baskets appended at epochs `after..=upto` (i.e. with
    /// zero-based ingest indices `after..upto`), in ingest order.
    ///
    /// Basket `i` (zero-based) was acknowledged at epoch `i + 1`, so
    /// `baskets_range(e, f)` returns exactly the baskets a replica at
    /// epoch `e` needs to catch up to epoch `f`. Bounds are clamped to
    /// the snapshot, and an inverted range yields an empty vector. This
    /// is the replication fallback when the WAL segments covering the
    /// range have already been reclaimed by checkpoint retention.
    pub fn baskets_range(&self, after: u64, upto: u64) -> Vec<Vec<ItemId>> {
        let lo = after.min(self.n_baskets as u64) as usize;
        let hi = upto.min(self.n_baskets as u64) as usize;
        if lo >= hi {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(hi - lo);
        let mut base = 0usize;
        for segment in self.segments() {
            let len = segment.len();
            if base + len > lo && base < hi {
                let db = segment.database();
                let start = lo.saturating_sub(base);
                let end = len.min(hi - base);
                for index in start..end {
                    out.push(db.basket(index).to_vec());
                }
            }
            base += len;
            if base >= hi {
                break;
            }
        }
        out
    }

    /// Materializes the snapshot as one flat [`BasketDatabase`] (segment
    /// order, which is ingest order). It copies every basket, so no
    /// serving path calls it: it is the tests' reference, since running
    /// the batch miner over the returned database gives the ground truth
    /// every snapshot query must match.
    pub fn to_database(&self) -> BasketDatabase {
        let mut db = BasketDatabase::new(self.n_items);
        for segment in self.segments() {
            for basket in segment.database().baskets() {
                db.push_basket(basket.iter().copied());
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StoreConfig {
        StoreConfig {
            segment_capacity: 4,
        }
    }

    #[test]
    fn appends_roll_into_segments() {
        let store = IncrementalStore::new(5, small_config());
        for i in 0..10u32 {
            store.append_ids([i % 5, (i + 1) % 5]).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 10);
        assert_eq!(snap.n_baskets(), 10);
        // 10 baskets at capacity 4: two sealed segments + a 2-basket tail.
        assert_eq!(snap.sealed_segments().len(), 2);
        assert_eq!(snap.tail_segment().map(|t| t.len()), Some(2));
        assert_eq!(snap.sealed_segments()[0].id(), 0);
        assert_eq!(snap.sealed_segments()[1].id(), 1);
    }

    /// A segment answers `[]` from its basket count and `[i]` from its
    /// item counts; both agree with its bitmap index, sealed or tail.
    #[test]
    fn segment_support_answers_singletons_from_item_counts() {
        // Item 6 is in every basket and item 7 in none.
        let store = IncrementalStore::new(8, small_config());
        for i in 0..11u32 {
            store.append_ids([i % 3, 3 + i % 2, 6]).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.sealed_segments().len(), 2);
        assert!(snap.tail_segment().is_some());
        for segment in snap.segments() {
            assert_eq!(segment.support(&[]), segment.len() as u64);
            for i in 0..8 {
                let item = [ItemId(i)];
                assert_eq!(
                    segment.support(&item),
                    segment.index().support_count(&item),
                    "segment {} item {i}",
                    segment.id()
                );
            }
        }
    }

    /// The pair triangle equals `support(&[a, b])` for every pair, at
    /// segment capacities from one basket up to the default, with a
    /// tail, empty and one-item baskets, and across an ingest between
    /// two snapshots.
    #[test]
    fn pair_supports_match_support_per_pair() {
        use rand::{Rng, SeedableRng};

        let n_items = 9u32;
        let pairs_of = |snap: &Snapshot| {
            let mut want = Vec::new();
            for a in 0..n_items {
                for b in a + 1..n_items {
                    want.push(snap.support(&[ItemId(a), ItemId(b)]));
                }
            }
            want
        };
        for capacity in [1, 3, 64, 4096] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(capacity as u64);
            let store = IncrementalStore::new(
                n_items as usize,
                StoreConfig {
                    segment_capacity: capacity,
                },
            );
            let mut ingest = |count: usize| {
                for i in 0..count {
                    let basket: Vec<u32> = match i % 7 {
                        0 => Vec::new(),
                        1 => vec![rng.gen_range(0..n_items)],
                        _ => (0..n_items).filter(|_| rng.gen_bool(0.4)).collect(),
                    };
                    store.append_ids(basket).unwrap();
                }
            };
            ingest(4201);
            let before = store.snapshot();
            ingest(130);
            let after = store.snapshot();
            for (name, snap) in [("before", &before), ("after", &after)] {
                let case = format!("capacity {capacity}, {name}");
                assert!(snap.tail_segment().is_some() || capacity == 1, "{case}");
                let got = snap.pair_supports(|| Ok::<(), ()>(())).unwrap();
                assert_eq!(got, pairs_of(snap), "{case}");
            }
            assert_ne!(
                before.pair_supports(|| Ok::<(), ()>(())),
                after.pair_supports(|| Ok::<(), ()>(())),
                "capacity {capacity}: the ingest moved no pair"
            );
        }
        // No pairs in a one-item space, and all zero with no baskets.
        let lone = IncrementalStore::new(1, StoreConfig::default());
        lone.append_ids([0]).unwrap();
        assert!(lone
            .snapshot()
            .pair_supports(|| Ok::<(), ()>(()))
            .unwrap()
            .is_empty());
        let empty = IncrementalStore::new(4, StoreConfig::default()).snapshot();
        assert_eq!(
            empty.pair_supports(|| Ok::<(), ()>(())).unwrap(),
            vec![0; 6]
        );
    }

    /// `check` runs after each segment's pass; the first failure ends
    /// the pass before the next segment is counted.
    #[test]
    fn pair_supports_stop_at_the_first_failed_check() {
        let store = IncrementalStore::new(3, small_config());
        for _ in 0..10 {
            store.append_ids([0, 1, 2]).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.segments().count(), 3);
        let mut checks = 0;
        let counted = snap.pair_supports(|| {
            checks += 1;
            Ok::<(), &str>(())
        });
        assert_eq!(counted.unwrap(), vec![10, 10, 10]);
        assert_eq!(checks, 3);
        let mut checks = 0;
        let stopped = snap.pair_supports(|| {
            checks += 1;
            Err("late")
        });
        assert_eq!(stopped.unwrap_err(), "late");
        assert_eq!(checks, 1, "only the first segment was counted");
    }

    #[test]
    fn baskets_range_slices_across_segment_boundaries() {
        let store = IncrementalStore::new(16, small_config());
        for i in 0..11u32 {
            store.append_ids([i, (i + 1) % 16]).unwrap();
        }
        let snap = store.snapshot();
        // Full range reproduces the flat database.
        let all = snap.baskets_range(0, snap.epoch());
        let flat = snap.to_database();
        assert_eq!(all.len(), flat.len());
        for (i, basket) in all.iter().enumerate() {
            assert_eq!(basket.as_slice(), flat.basket(i));
        }
        // A window straddling two sealed segments and the tail.
        let window = snap.baskets_range(3, 10);
        assert_eq!(window.len(), 7);
        for (offset, basket) in window.iter().enumerate() {
            assert_eq!(basket.as_slice(), flat.basket(3 + offset));
        }
        // Clamped and inverted ranges are safe.
        assert_eq!(snap.baskets_range(9, 100).len(), 2);
        assert!(snap.baskets_range(7, 7).is_empty());
        assert!(snap.baskets_range(8, 2).is_empty());
        assert!(snap.baskets_range(50, 60).is_empty());
    }

    #[test]
    fn snapshot_counts_match_flat_database() {
        let store = IncrementalStore::new(4, small_config());
        let baskets = [
            vec![0u32, 1, 2],
            vec![0, 1],
            vec![1, 2, 3],
            vec![0, 2],
            vec![],
            vec![3],
            vec![0, 1, 2, 3],
            vec![2, 3],
            vec![1],
        ];
        for b in &baskets {
            store.append_ids(b.iter().copied()).unwrap();
        }
        let snap = store.snapshot();
        let flat = snap.to_database();
        assert_eq!(flat.len(), baskets.len());
        for i in 0..4u32 {
            assert_eq!(snap.item_count(ItemId(i)), flat.item_count(ItemId(i)));
        }
        for a in 0..4u32 {
            for b in a + 1..4 {
                let set = Itemset::from_ids([a, b]);
                let index = BitmapIndex::build(&flat);
                assert_eq!(snap.support(set.items()), index.support_count(set.items()));
                assert_eq!(
                    snap.contingency_table(&set),
                    ContingencyTable::from_database(&flat, &set),
                    "table mismatch for {set}"
                );
            }
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_ingest() {
        let store = IncrementalStore::new(3, small_config());
        store.append_ids([0, 1]).unwrap();
        let before = store.snapshot();
        store.append_ids([0, 1]).unwrap();
        store.append_ids([2]).unwrap();
        let after = store.snapshot();
        assert_eq!(before.epoch(), 1);
        assert_eq!(after.epoch(), 3);
        assert_eq!(before.support(Itemset::from_ids([0, 1]).items()), 1);
        assert_eq!(after.support(Itemset::from_ids([0, 1]).items()), 2);
    }

    #[test]
    fn unchanged_store_republishes_the_same_snapshot() {
        let store = IncrementalStore::new(2, small_config());
        store.append_ids([0]).unwrap();
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "snapshot must be reused while idle");
        store.append_ids([1]).unwrap();
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn out_of_range_append_is_rejected_atomically() {
        let store = IncrementalStore::new(2, small_config());
        store.append_ids([0]).unwrap();
        let err = store
            .append_batch([vec![ItemId(1)], vec![ItemId(5)]])
            .unwrap_err();
        assert_eq!(err.item, ItemId(5));
        assert_eq!(err.n_items, 2);
        // Nothing from the failed batch landed.
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().n_baskets(), 1);
    }

    #[test]
    fn bulk_load_matches_source_database() {
        let db = BasketDatabase::from_id_baskets(
            3,
            vec![vec![0, 1], vec![1, 2], vec![0], vec![], vec![0, 1, 2]],
        );
        let store = IncrementalStore::from_database(&db, small_config());
        let snap = store.snapshot();
        assert_eq!(snap.n_baskets(), db.len());
        for i in 0..3u32 {
            assert_eq!(snap.item_count(ItemId(i)), db.item_count(ItemId(i)));
        }
    }

    #[test]
    fn empty_snapshot_is_well_formed() {
        let store = IncrementalStore::new(3, StoreConfig::default());
        let snap = store.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.support(Itemset::from_ids([0]).items()), 0);
        assert_eq!(snap.to_database().len(), 0);
    }

    #[test]
    fn exact_capacity_boundary_seals_without_tail() {
        let store = IncrementalStore::new(2, small_config());
        for _ in 0..4 {
            store.append_ids([0]).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.sealed_segments().len(), 1);
        assert!(snap.tail_segment().is_none());
        assert_eq!(snap.n_baskets(), 4);
    }
}
