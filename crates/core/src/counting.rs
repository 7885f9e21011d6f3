//! Batch support counting and contingency-table assembly.
//!
//! The miner needs, at each level, the support `O(S)` of every candidate.
//! It intersects the item bitmaps of a [`bmb_basket::BitmapIndex`] built
//! once per run. A level is split across scoped threads only when every
//! spawned chunk carries enough work to pay for its spawn
//! ([`crate::counting::COUNT_WORDS_PER_SPAWN`],
//! [`crate::counting::EVAL_CELLS_PER_SPAWN`]); smaller levels run on the
//! calling thread.
//! The paper's one pass over the baskets per level gives the same
//! integers about a hundred times slower (EXPERIMENTS.md, "Retiring the
//! basket scan"). Full contingency tables are then assembled *without
//! further passes*: every proper subset of a candidate was itself counted
//! at a lower level (that is the invariant of candidate generation), so
//! the `2^m` cell counts follow from stored subset supports by the one
//! Möbius inversion every table assembly shares,
//! [`bmb_basket::ContingencyTable::from_subset_supports`].

use std::fmt;

use bmb_basket::{BasketDatabase, BitmapIndex, ContingencyTable, ItemId, Itemset};
use bmb_lattice::FnvHashMap;

/// The per-item marginals table assembly needs: basket count, item-space
/// size, and singleton supports. A [`BasketDatabase`] provides them
/// directly; a cluster coordinator provides a [`Marginals`] summed from
/// per-shard answers — either way the downstream arithmetic is the same
/// integer arithmetic, which is what keeps distributed evaluation
/// bit-identical to local evaluation.
pub trait MarginalSource {
    /// `n`: baskets visible to this source.
    fn n_baskets(&self) -> u64;
    /// `k`: the item-space size.
    fn n_items(&self) -> usize;
    /// `O(i)`: baskets containing item `i`.
    fn item_count(&self, item: ItemId) -> u64;
}

impl MarginalSource for BasketDatabase {
    fn n_baskets(&self) -> u64 {
        self.len() as u64
    }

    fn n_items(&self) -> usize {
        self.n_items()
    }

    fn item_count(&self, item: ItemId) -> u64 {
        self.item_count(item)
    }
}

/// Owned marginals, e.g. gathered from cluster shards (each shard's
/// basket count and singleton supports sum exactly).
#[derive(Clone, Debug, Default)]
pub struct Marginals {
    /// Total baskets across the source.
    pub n_baskets: u64,
    /// `item_counts[i]` = baskets containing item `i`; its length is the
    /// item-space size.
    pub item_counts: Vec<u64>,
}

impl MarginalSource for Marginals {
    fn n_baskets(&self) -> u64 {
        self.n_baskets
    }

    fn n_items(&self) -> usize {
        self.item_counts.len()
    }

    fn item_count(&self, item: ItemId) -> u64 {
        self.item_counts.get(item.index()).copied().unwrap_or(0)
    }
}

/// Word-ANDs (each with its popcount) that one counting chunk must carry
/// before [`count_with_bitmaps`] spawns a thread for it.
///
/// Measured on a 2-vCPU x86-64 VM (release build): the support kernel
/// costs 0.6–1.2 ns per word-AND as the host's speed varies, and a
/// scoped spawn plus its join adds 30–75 µs of wall time to a two-way
/// split of a level over the serial count (16 µs when both threads share
/// one CPU). 2^17 word-ANDs are 80–160 µs of counting, about twice a
/// spawn. Only the serial side of this cut is measured end to end (every
/// mine_quest level runs below it); whether a split above it pays on a
/// second free core is unverified, so the value is a probe estimate, not
/// a tuned one.
pub const COUNT_WORDS_PER_SPAWN: usize = 1 << 17;

/// Table cells that one evaluation chunk must carry before the miner
/// spawns a thread for it.
///
/// Assembling, support-testing and χ²-testing a candidate's `2^m`-cell
/// table costs 0.08–0.15 µs per cell at levels 2–3 on the VM above, so
/// 2^10 cells are 80–150 µs of evaluation: the same margin over a spawn
/// as [`COUNT_WORDS_PER_SPAWN`], and, like it, unverified end to end on
/// the split side.
pub const EVAL_CELLS_PER_SPAWN: usize = 1 << 10;

/// How many contiguous chunks [`split_map`] cuts `n` items carrying
/// `work` units into: at most `threads` and `n`, and few enough that
/// every chunk carries at least `work_per_spawn` units. One chunk means
/// no thread is spawned.
pub(crate) fn chunk_count(n: usize, threads: usize, work: usize, work_per_spawn: usize) -> usize {
    threads.min(n).min(work / work_per_spawn).max(1)
}

/// `(0..n).map(f)`, split into [`chunk_count`] contiguous chunks: the
/// first runs on the calling thread, each other one on a scoped thread,
/// and the results come back in index order. A worker's panic is
/// re-raised in the caller with its own payload, so the original message
/// and location survive.
pub(crate) fn split_map<R, F>(
    n: usize,
    threads: usize,
    work: usize,
    work_per_spawn: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunks = chunk_count(n, threads, work, work_per_spawn);
    if chunks == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(chunks);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (chunk..n)
            .step_by(chunk)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + chunk)).map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(n);
        out.extend((0..chunk).map(f));
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Stored supports of all itemsets counted so far (singletons live in the
/// database's item counts and are consulted directly).
///
/// Keyed with FNV-1a: the store is probed several times per candidate in
/// the miner's hottest loop, and the keys are internal itemsets, not
/// untrusted input.
#[derive(Debug, Default)]
pub struct SupportStore {
    map: FnvHashMap<Itemset, u64>,
}

impl SupportStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counted support.
    pub fn insert(&mut self, set: Itemset, support: u64) {
        self.map.insert(set, support);
    }

    /// Number of stored itemsets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `items` (strictly sorted) is a stored set. Allocation-free:
    /// candidate generation probes the previous level's NOTSIG sets here.
    pub fn contains(&self, items: &[bmb_basket::ItemId]) -> bool {
        self.map.contains_key(items)
    }

    /// Looks up `O(S)` for a set of size >= 2; singletons and the empty set
    /// are answered from the marginal source.
    pub fn support_of<M: MarginalSource>(&self, marginals: &M, set: &Itemset) -> Option<u64> {
        self.support_of_sorted(marginals, set.items())
    }

    /// Slice-keyed variant of [`SupportStore::support_of`]: `items` must be
    /// strictly sorted. Allocation-free — the miner's hot path.
    pub fn support_of_sorted<M: MarginalSource>(
        &self,
        marginals: &M,
        items: &[bmb_basket::ItemId],
    ) -> Option<u64> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        match items {
            [] => Some(marginals.n_baskets()),
            [single] => Some(marginals.item_count(*single)),
            _ => self.map.get(items).copied(),
        }
    }
}

/// Counts `O(S)` for every candidate by bitmap intersection, using up to
/// `threads` workers. An `m`-item candidate costs `m − 1` word-ANDs per
/// word of the index (one pass for a singleton), and each spawned worker
/// gets at least [`COUNT_WORDS_PER_SPAWN`] of them.
pub fn count_with_bitmaps(index: &BitmapIndex, candidates: &[Itemset], threads: usize) -> Vec<u64> {
    let words = index.n_baskets().div_ceil(64);
    let passes: usize = candidates
        .iter()
        .map(|c| c.len().saturating_sub(1).max(1))
        .sum();
    split_map(
        candidates.len(),
        threads,
        passes * words,
        COUNT_WORDS_PER_SPAWN,
        |i| index.support_count(candidates[i].items()),
    )
}

/// Error from [`try_table_from_supports`]: a proper subset's support was
/// absent from the store, violating the candidate-generation invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingSupport {
    /// The subset whose support was not stored.
    pub subset: Vec<bmb_basket::ItemId>,
}

impl fmt::Display for MissingSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "support of {:?} missing from the store", self.subset)
    }
}

impl std::error::Error for MissingSupport {}

/// Assembles the full `2^m` contingency table of `set` from stored subset
/// supports plus the set's own support `own_support = O(set)`, by Möbius
/// inversion of the superset-sum relation.
///
/// Passing `own_support` explicitly lets the miner assemble a candidate's
/// table *before* deciding whether its support is worth retaining — only
/// NOTSIG members' supports are needed by future levels.
///
/// # Panics
///
/// Panics if any proper subset's support is missing — candidate generation
/// guarantees presence, so a miss is a logic error. Use
/// [`try_table_from_supports`] to observe the failure as a value instead.
pub fn table_from_supports<M: MarginalSource>(
    marginals: &M,
    store: &SupportStore,
    set: &Itemset,
    own_support: u64,
) -> ContingencyTable {
    match try_table_from_supports(marginals, store, set, own_support) {
        Ok(table) => table,
        // Documented contract: a missing subset support is a candidate-
        // generation bug that must not silently corrupt mining results.
        // lint:allow(panic)
        Err(err) => panic!("{err}"),
    }
}

/// Fallible variant of [`table_from_supports`], reporting a missing
/// subset support as a [`MissingSupport`] error instead of panicking.
pub fn try_table_from_supports<M: MarginalSource>(
    marginals: &M,
    store: &SupportStore,
    set: &Itemset,
    own_support: u64,
) -> Result<ContingencyTable, MissingSupport> {
    ContingencyTable::try_from_subsets(set, |subset| {
        if subset.len() == set.len() {
            return Ok(own_support);
        }
        store
            .support_of_sorted(marginals, subset)
            .ok_or_else(|| MissingSupport {
                subset: subset.to_vec(),
            })
    })
}

/// Enumerates the `2^m` subsets of `set` in mask order: bit `j` of mask
/// `i` selects the `j`-th (ascending) item. This is the canonical order
/// of a *support vector* — [`table_from_subset_supports`] consumes
/// supports in exactly this order, and a cluster coordinator uses the
/// same enumeration to build its scatter requests so gathered vectors
/// line up without any per-entry keying.
pub fn subset_itemsets(set: &Itemset) -> Vec<Vec<ItemId>> {
    let m = set.len();
    assert!(m <= 24, "subset enumeration supports up to 24 items");
    let items = set.items();
    let mut out = Vec::with_capacity(1 << m);
    for mask in 0u32..(1 << m) {
        out.push(
            (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(|j| items[j])
                .collect(),
        );
    }
    out
}

/// Element-wise sum of per-shard support vectors. Integer supports are
/// additive across disjoint shards, so the accumulated vector equals the
/// vector a single store holding every basket would produce — exactly,
/// not approximately.
///
/// # Panics
///
/// Panics if the vectors' lengths differ (shards answered different
/// subset enumerations — a protocol bug, not a data condition).
pub fn merge_support_vectors(acc: &mut [u64], shard: &[u64]) {
    assert_eq!(
        acc.len(),
        shard.len(),
        "support vectors must cover the same subset enumeration"
    );
    for (a, &s) in acc.iter_mut().zip(shard) {
        *a += s;
    }
}

/// Möbius inversion of a complete support vector (in
/// [`subset_itemsets`] order) into the `2^m` contingency table of `set`,
/// by [`ContingencyTable::from_subset_supports`] — the inversion every
/// other table assembly runs too, so a coordinator that gathers and sums
/// per-shard vectors, then calls this, reproduces the single-store table
/// bit for bit.
///
/// # Panics
///
/// Panics if `subset_supports.len() != 2^set.len()` or the set is empty
/// or larger than 24 items.
pub fn table_from_subset_supports(set: &Itemset, subset_supports: &[u64]) -> ContingencyTable {
    ContingencyTable::from_subset_supports(set.clone(), subset_supports.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> BasketDatabase {
        BasketDatabase::from_id_baskets(
            4,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![1, 2, 3],
                vec![0, 2],
                vec![],
                vec![3],
                vec![0, 1, 2, 3],
                vec![2, 3],
            ],
        )
    }

    fn all_pairs() -> Vec<Itemset> {
        let mut v = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                v.push(Itemset::from_ids([a, b]));
            }
        }
        v
    }

    #[test]
    fn parallel_matches_sequential() {
        // The toy database 512 times over: 64 words per item bitmap, so
        // 8,192 pairs carry four spawns' worth of word-ANDs.
        let small = db();
        let baskets: Vec<Vec<u32>> = (0..512 * small.len())
            .map(|i| {
                small
                    .basket(i % small.len())
                    .iter()
                    .map(|id| id.0)
                    .collect()
            })
            .collect();
        let db = BasketDatabase::from_id_baskets(4, baskets);
        let index = BitmapIndex::build(&db);
        let candidates: Vec<Itemset> = (0..8_192)
            .map(|i| Itemset::from_ids([i % 4, (i + 1) % 4]))
            .collect();
        assert_eq!(
            chunk_count(
                candidates.len(),
                4,
                candidates.len() * 64,
                COUNT_WORDS_PER_SPAWN
            ),
            4
        );
        let seq = count_with_bitmaps(&index, &candidates, 1);
        let par = count_with_bitmaps(&index, &candidates, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn a_level_splits_only_when_every_chunk_pays_for_its_spawn() {
        for per_spawn in [COUNT_WORDS_PER_SPAWN, EVAL_CELLS_PER_SPAWN] {
            let n = 1_000;
            // Just below and at two spawns' worth of work.
            assert_eq!(chunk_count(n, 2, 2 * per_spawn - 1, per_spawn), 1);
            assert_eq!(chunk_count(n, 2, 2 * per_spawn, per_spawn), 2);
            // More threads get a chunk only as the work grows.
            assert_eq!(chunk_count(n, 8, 3 * per_spawn - 1, per_spawn), 2);
            assert_eq!(chunk_count(n, 8, 3 * per_spawn, per_spawn), 3);
            assert_eq!(chunk_count(n, 8, 100 * per_spawn, per_spawn), 8);
            // Never more chunks than items, never fewer than one.
            assert_eq!(chunk_count(3, 8, 100 * per_spawn, per_spawn), 3);
            assert_eq!(chunk_count(0, 8, 0, per_spawn), 1);
            assert_eq!(chunk_count(n, 0, 100 * per_spawn, per_spawn), 1);
        }
    }

    #[test]
    #[should_panic(expected = "worker saw item 199")]
    fn split_map_reraises_a_workers_own_panic() {
        // Item 199 lies in the last of four chunks, run on a spawned thread.
        split_map(200, 4, 4 * 200, 200, |i| {
            if i == 199 {
                panic!("worker saw item {i}");
            }
            i
        });
    }

    #[test]
    fn assembled_table_matches_direct_construction() {
        let db = db();
        let mut store = SupportStore::new();
        let index = BitmapIndex::build(&db);
        // Count and store all pairs, then a triple.
        for pair in all_pairs() {
            let supp = index.support_count(pair.items());
            store.insert(pair, supp);
        }
        let triple = Itemset::from_ids([0, 1, 2]);
        for set in [Itemset::from_ids([0, 1]), triple] {
            let own = index.support_count(set.items());
            let assembled = table_from_supports(&db, &store, &set, own);
            let direct = ContingencyTable::from_database(&db, &set);
            assert_eq!(assembled, direct, "mismatch for {set}");
        }
    }

    #[test]
    fn store_answers_trivial_sets_from_database() {
        let db = db();
        let store = SupportStore::new();
        assert_eq!(store.support_of(&db, &Itemset::empty()), Some(8));
        assert_eq!(store.support_of(&db, &Itemset::from_ids([2])), Some(5));
        assert_eq!(store.support_of(&db, &Itemset::from_ids([0, 1])), None);
    }

    #[test]
    fn contains_answers_only_stored_sets() {
        let mut store = SupportStore::new();
        store.insert(Itemset::from_ids([0, 2]), 3);
        assert!(store.contains(Itemset::from_ids([0, 2]).items()));
        assert!(!store.contains(Itemset::from_ids([0, 1]).items()));
        // Singletons are answered by the marginals, never stored.
        assert!(!store.contains(Itemset::from_ids([0]).items()));
    }

    #[test]
    #[should_panic(expected = "missing from the store")]
    fn missing_subset_is_a_logic_error() {
        let db = db();
        let store = SupportStore::new();
        // A triple needs its pair subsets in the store; none are there.
        table_from_supports(&db, &store, &Itemset::from_ids([0, 1, 2]), 1);
    }

    #[test]
    fn marginals_answer_like_the_database() {
        let db = db();
        let marginals = Marginals {
            n_baskets: db.len() as u64,
            item_counts: db.item_counts().to_vec(),
        };
        assert_eq!(marginals.n_baskets(), 8);
        assert_eq!(marginals.n_items(), 4);
        for i in 0..4u32 {
            assert_eq!(
                MarginalSource::item_count(&marginals, ItemId(i)),
                db.item_count(ItemId(i))
            );
        }
        let store = SupportStore::new();
        assert_eq!(store.support_of(&marginals, &Itemset::empty()), Some(8));
        assert_eq!(
            store.support_of(&marginals, &Itemset::from_ids([2])),
            Some(5)
        );
    }

    #[test]
    fn sharded_vectors_merge_into_the_single_store_table() {
        // Split the database into two "shards"; per-shard support
        // vectors must sum into the whole-database table, bit for bit.
        let whole = db();
        let baskets: Vec<Vec<u32>> = (0..whole.len())
            .map(|i| whole.basket(i).iter().map(|id| id.0).collect())
            .collect();
        let (left, right): (Vec<_>, Vec<_>) = baskets
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let shard_a =
            BasketDatabase::from_id_baskets(4, left.into_iter().map(|(_, b)| b).collect());
        let shard_b =
            BasketDatabase::from_id_baskets(4, right.into_iter().map(|(_, b)| b).collect());
        for set in [Itemset::from_ids([0, 2]), Itemset::from_ids([0, 1, 3])] {
            let subsets = subset_itemsets(&set);
            let index_a = BitmapIndex::build(&shard_a);
            let index_b = BitmapIndex::build(&shard_b);
            let vec_of = |index: &BitmapIndex| -> Vec<u64> {
                subsets.iter().map(|s| index.support_count(s)).collect()
            };
            let mut acc = vec_of(&index_a);
            merge_support_vectors(&mut acc, &vec_of(&index_b));
            let gathered = table_from_subset_supports(&set, &acc);
            let direct = ContingencyTable::from_database(&whole, &set);
            assert_eq!(gathered, direct, "mismatch for {set}");
        }
    }

    #[test]
    fn subset_enumeration_is_in_mask_order() {
        let set = Itemset::from_ids([3, 7]);
        let subsets = subset_itemsets(&set);
        assert_eq!(subsets.len(), 4);
        assert!(subsets[0].is_empty());
        assert_eq!(subsets[1], vec![ItemId(3)]);
        assert_eq!(subsets[2], vec![ItemId(7)]);
        assert_eq!(subsets[3], vec![ItemId(3), ItemId(7)]);
    }
}
