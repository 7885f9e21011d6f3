//! The online correlation-query engine behind `bmb-serve`, and the query
//! core it shares with the cluster coordinator.
//!
//! A [`QueryEngine`] answers chi-squared / interest / top-k / border
//! queries against epoch-pinned [`bmb_basket::Snapshot`]s of an
//! [`bmb_basket::IncrementalStore`], with one capacity-bounded cache: a
//! **table LRU** keyed by `(itemset, epoch)` holding full assembled
//! [`bmb_basket::ContingencyTable`]s. Entries for stale epochs simply stop
//! being hit and age out. A miss assembles the table with
//! [`bmb_basket::Snapshot::contingency_table`]: each subset's support is
//! counted from every segment's bitmap index (singletons from the
//! segments' item counts) and summed, then Möbius-inverted.
//!
//! The cluster coordinator answers through the same functions
//! ([`check_query_shape`], [`check_query_at`], [`Chi2Answer::from_table`],
//! [`InterestAnswer::from_table`], [`rank_pairs`], and
//! [`crate::mine_with_counter`] for `border`); only its supports come from
//! elsewhere: the sum of the shards' `support_vec` answers, or, for
//! `topk`, of their `pair_supports` triangles.
//!
//! Every answer is bit-identical to the batch pipeline on the same epoch:
//! snapshot supports are exact sums over a partition of the baskets, and
//! tables are assembled by the same Möbius inversion the miner uses.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, PoisonError};

use bmb_basket::{ContingencyTable, IncrementalStore, ItemId, Itemset, Snapshot};
use bmb_obs::{Counter, Registry};
use bmb_stats::{Chi2Outcome, Chi2Test, DfConvention, InterestReport};

use crate::config::MinerConfig;
use crate::counting::{count_with_bitmaps, merge_support_vectors, Marginals};
use crate::lru::LruCache;
use crate::miner::{mine_with_counter, MiningResult};
use crate::report::PairCorrelation;

/// Largest itemset a point query may name; bounds the `2^m` table work a
/// single request can demand.
pub const MAX_QUERY_DIMS: usize = 16;

/// Engine configuration: test parameters and cache bounds.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Significance level α for chi-squared verdicts.
    pub alpha: f64,
    /// Degrees-of-freedom convention (the paper's single-df by default).
    pub df: DfConvention,
    /// Optional low-expectation cell exclusion (see [`Chi2Test`]).
    pub low_expectation_cutoff: Option<f64>,
    /// Capacity of the `(itemset, epoch)` table cache.
    pub table_cache: usize,
    /// Retired and ignored: the engine keeps no per-segment support cache,
    /// since counting a sealed segment's bitmaps is cheaper than a lookup.
    /// Kept, at 0, so existing struct literals still compile.
    pub segment_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            alpha: 0.95,
            df: DfConvention::PaperSingle,
            low_expectation_cutoff: None,
            table_cache: 4096,
            segment_cache: 0,
        }
    }
}

/// A query the engine cannot answer, as a value (servers must not panic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The itemset named no items.
    EmptyItemset,
    /// The itemset exceeds [`MAX_QUERY_DIMS`].
    TooManyItems {
        /// Items in the query.
        len: usize,
    },
    /// An item id outside the store's item space.
    ItemOutOfRange {
        /// The offending item.
        item: ItemId,
        /// The store's item-space size.
        n_items: usize,
    },
    /// A cell mask outside the table's `2^m` cells.
    CellOutOfRange {
        /// The offending mask.
        cell: u32,
        /// The table's dimensionality.
        dims: usize,
    },
    /// The snapshot holds no baskets, so no statistic is defined.
    EmptySnapshot,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyItemset => write!(f, "itemset must name at least one item"),
            EngineError::TooManyItems { len } => {
                write!(
                    f,
                    "itemset of {len} items exceeds the {MAX_QUERY_DIMS}-item query limit"
                )
            }
            EngineError::ItemOutOfRange { item, n_items } => {
                write!(
                    f,
                    "item {item} out of range for item space of {n_items} items"
                )
            }
            EngineError::CellOutOfRange { cell, dims } => {
                write!(f, "cell {cell} out of range for a {dims}-item table")
            }
            EngineError::EmptySnapshot => write!(f, "no baskets ingested yet"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Point-in-time cache counters (cumulative since engine creation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Table-cache hits.
    pub table_hits: u64,
    /// Table-cache misses (tables assembled).
    pub table_misses: u64,
    /// Table-cache LRU evictions.
    pub table_evictions: u64,
    /// Retired: always 0 (the per-segment support cache is gone).
    pub segment_hits: u64,
    /// Retired: always 0 (the per-segment support cache is gone).
    pub segment_misses: u64,
    /// Retired: always 0 (the per-segment support cache is gone).
    pub segment_evictions: u64,
}

impl CacheStats {
    /// Table-cache hit rate in `[0, 1]`; 0 when nothing was asked.
    pub fn table_hit_rate(&self) -> f64 {
        let total = self.table_hits + self.table_misses;
        if total == 0 {
            0.0
        } else {
            self.table_hits as f64 / total as f64
        }
    }
}

/// The verdict for one chi-squared point query.
#[derive(Clone, Debug)]
pub struct Chi2Answer {
    /// The queried itemset (canonical order).
    pub itemset: Itemset,
    /// The epoch the answer is pinned to.
    pub epoch: u64,
    /// `O(S)` at that epoch.
    pub support: u64,
    /// The chi-squared outcome (statistic, cutoff, significance, p-value).
    pub outcome: Chi2Outcome,
}

/// The answer to one interest point query.
#[derive(Clone, Debug)]
pub struct InterestAnswer {
    /// The queried itemset (canonical order).
    pub itemset: Itemset,
    /// The queried cell (presence bitmask in itemset order).
    pub cell: u32,
    /// The epoch the answer is pinned to.
    pub epoch: u64,
    /// Observed count `O(r)`.
    pub observed: u64,
    /// Expected count `E[r]` under independence.
    pub expected: f64,
    /// `I(r) = O(r)/E[r]`.
    pub interest: f64,
}

impl Chi2Answer {
    /// The answer for `itemset` at `epoch` from its full table.
    pub fn from_table(
        itemset: Itemset,
        epoch: u64,
        table: &ContingencyTable,
        test: &Chi2Test,
    ) -> Chi2Answer {
        let full_cell = (1u32 << itemset.len()) - 1;
        Chi2Answer {
            support: table.observed(full_cell),
            outcome: test.test_dense(table),
            itemset,
            epoch,
        }
    }
}

impl InterestAnswer {
    /// The interest of `cell` in `itemset`'s full table at `epoch`.
    ///
    /// # Errors
    ///
    /// [`EngineError::CellOutOfRange`] when the table has no such cell.
    pub fn from_table(
        itemset: Itemset,
        cell: u32,
        epoch: u64,
        table: &ContingencyTable,
    ) -> Result<InterestAnswer, EngineError> {
        if cell as usize >= table.n_cells() {
            return Err(EngineError::CellOutOfRange {
                cell,
                dims: table.dims(),
            });
        }
        let info = InterestReport::analyze(table).cells()[cell as usize];
        Ok(InterestAnswer {
            itemset,
            cell,
            epoch,
            observed: info.observed,
            expected: info.expected,
            interest: info.interest,
        })
    }
}

/// The checks a point query passes before any support is read: at least
/// one item, and at most [`MAX_QUERY_DIMS`].
///
/// # Errors
///
/// [`EngineError::EmptyItemset`] or [`EngineError::TooManyItems`].
pub fn check_query_shape(set: &Itemset) -> Result<(), EngineError> {
    if set.is_empty() {
        return Err(EngineError::EmptyItemset);
    }
    if set.len() > MAX_QUERY_DIMS {
        return Err(EngineError::TooManyItems { len: set.len() });
    }
    Ok(())
}

/// The checks a well-shaped query passes against the data answering it:
/// `n_baskets` non-zero, then every item inside the `n_items`-item space.
///
/// # Errors
///
/// [`EngineError::EmptySnapshot`], else [`EngineError::ItemOutOfRange`]
/// for the first item outside the space.
pub fn check_query_at(set: &Itemset, n_baskets: u64, n_items: usize) -> Result<(), EngineError> {
    if n_baskets == 0 {
        return Err(EngineError::EmptySnapshot);
    }
    match set.items().iter().find(|item| item.index() >= n_items) {
        Some(&item) => Err(EngineError::ItemOutOfRange { item, n_items }),
        None => Ok(()),
    }
}

/// The `k` item pairs with the largest χ² statistic (descending, ties in
/// `(a, b)` order), over `n` baskets with `item_counts[i]` = `O(i)` and
/// `pair_supports` = `O(ab)` for every pair `a < b` in `(a, b)` order (the
/// triangle of [`Snapshot::pair_supports`]).
///
/// Pairs are ranked by the statistic alone, keeping only the `k` best
/// seen so far; only those are tested in full.
///
/// # Errors
///
/// [`EngineError::EmptySnapshot`] when `n` is 0.
pub fn rank_pairs(
    n: u64,
    item_counts: &[u64],
    pair_supports: &[u64],
    test: &Chi2Test,
    k: usize,
) -> Result<Vec<PairCorrelation>, EngineError> {
    if n == 0 {
        return Err(EngineError::EmptySnapshot);
    }
    let n_items = item_counts.len() as u32;
    debug_assert_eq!(
        pair_supports.len(),
        item_counts.len() * n_items.saturating_sub(1) as usize / 2
    );
    let marginals = |a: u32, b: u32| [item_counts[a as usize], item_counts[b as usize]];
    let pairs = (0..n_items).flat_map(|a| (a + 1..n_items).map(move |b| (a, b)));
    let mut best: BinaryHeap<RankedPair> = BinaryHeap::with_capacity(k.min(pair_supports.len()));
    for ((a, b), &support) in pairs.zip(pair_supports) {
        let cells = pair_cells(n, marginals(a, b), support);
        let pair = RankedPair {
            statistic: test.dense_statistic_of(n, &marginals(a, b), &cells),
            a,
            b,
            support,
        };
        if best.len() < k {
            best.push(pair);
        } else if let Some(mut worst) = best.peek_mut() {
            if pair < *worst {
                *worst = pair;
            }
        }
    }
    let rows = best.into_sorted_vec().into_iter().map(|pair| {
        let cells = pair_cells(n, marginals(pair.a, pair.b), pair.support).to_vec();
        let table = ContingencyTable::from_counts(Itemset::from_ids([pair.a, pair.b]), cells);
        PairCorrelation::from_table(&table, test)
    });
    Ok(rows.collect())
}

/// One pair in [`rank_pairs`]'s selection. It orders better pairs first
/// (larger statistic, then smaller `(a, b)`), so the top of a max-heap
/// is the worst pair kept.
#[derive(Clone, Copy, Debug)]
struct RankedPair {
    statistic: f64,
    a: u32,
    b: u32,
    support: u64,
}

impl Ord for RankedPair {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .statistic
            .total_cmp(&self.statistic)
            .then_with(|| (self.a, self.b).cmp(&(other.a, other.b)))
    }
}

impl PartialOrd for RankedPair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankedPair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankedPair {}

/// The 2×2 cells of a pair with marginals `[O(a), O(b)]` and support
/// `O(ab)` over `n` baskets, by mask: bit0 = `a` present, bit1 = `b`.
fn pair_cells(n: u64, [o_a, o_b]: [u64; 2], o_ab: u64) -> [u64; 4] {
    [(n + o_ab) - o_a - o_b, o_a - o_ab, o_b - o_ab, o_ab]
}

/// The online query engine; all methods take `&self` and are safe to call
/// from many server threads at once.
pub struct QueryEngine {
    store: Arc<IncrementalStore>,
    test: Chi2Test,
    tables: Mutex<LruCache<(Itemset, u64), Arc<ContingencyTable>>>,
    /// Per-engine metrics registry (`bmb_core_cache_*` families); each
    /// engine owns its own so parallel engines never share counters.
    obs: Arc<Registry>,
    table_hits: Counter,
    table_misses: Counter,
    table_evictions: Counter,
}

impl QueryEngine {
    /// An engine over `store` with the given configuration.
    pub fn new(store: Arc<IncrementalStore>, config: EngineConfig) -> Self {
        let obs = Arc::new(Registry::new());
        let hits_help = "Engine cache hits by cache.";
        let misses_help = "Engine cache misses by cache.";
        let evict_help = "Engine cache LRU evictions by cache.";
        let table = [("cache", "table")];
        QueryEngine {
            store,
            test: Chi2Test::new(config.alpha, config.df, config.low_expectation_cutoff),
            tables: Mutex::new(LruCache::with_capacity(config.table_cache.max(1))),
            table_hits: obs.counter_with("bmb_core_cache_hits_total", hits_help, &table),
            table_misses: obs.counter_with("bmb_core_cache_misses_total", misses_help, &table),
            table_evictions: obs.counter_with("bmb_core_cache_evictions_total", evict_help, &table),
            obs,
        }
    }

    /// The engine's metrics registry, for merging into a server's
    /// `/metrics` exposition.
    pub fn observability(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The underlying store (for ingest).
    pub fn store(&self) -> &Arc<IncrementalStore> {
        &self.store
    }

    /// The chi-squared test configuration in force.
    pub fn test(&self) -> &Chi2Test {
        &self.test
    }

    /// A fresh epoch-pinned snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// Cumulative cache counters; the retired `segment_*` fields read 0.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            table_hits: self.table_hits.get(),
            table_misses: self.table_misses.get(),
            table_evictions: self.table_evictions.get(),
            ..CacheStats::default()
        }
    }

    /// The contingency table of `set` at `snap`'s epoch, from the table
    /// LRU or assembled by [`Snapshot::contingency_table`].
    ///
    /// # Errors
    ///
    /// Rejects empty, oversized, or out-of-range itemsets and empty
    /// snapshots.
    pub fn table(
        &self,
        snap: &Snapshot,
        set: &Itemset,
    ) -> Result<Arc<ContingencyTable>, EngineError> {
        check_query_shape(set)?;
        check_query_at(set, snap.n_baskets() as u64, snap.n_items())?;
        let key = (set.clone(), snap.epoch());
        if let Some(table) = lock(&self.tables).get(&key) {
            self.table_hits.inc();
            return Ok(Arc::clone(table));
        }
        self.table_misses.inc();
        let table = Arc::new(snap.contingency_table(set));
        if lock(&self.tables).insert(key, Arc::clone(&table)) {
            self.table_evictions.inc();
        }
        Ok(table)
    }

    /// Chi-squared verdict for `set` at `snap`'s epoch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryEngine::table`].
    pub fn chi2(&self, snap: &Snapshot, set: &Itemset) -> Result<Chi2Answer, EngineError> {
        let table = self.table(snap, set)?;
        let answer = Chi2Answer::from_table(set.clone(), snap.epoch(), &table, &self.test);
        Ok(answer)
    }

    /// Interest `I(r) = O(r)/E[r]` of one cell of `set`'s table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryEngine::table`], plus an out-of-range
    /// cell mask.
    pub fn interest(
        &self,
        snap: &Snapshot,
        set: &Itemset,
        cell: u32,
    ) -> Result<InterestAnswer, EngineError> {
        let table = self.table(snap, set)?;
        InterestAnswer::from_table(set.clone(), cell, snap.epoch(), &table)
    }

    /// [`QueryEngine::topk_pairs_checked`] with no check.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptySnapshot`] when nothing was ingested.
    pub fn topk_pairs(
        &self,
        snap: &Snapshot,
        k: usize,
    ) -> Result<Vec<PairCorrelation>, EngineError> {
        self.topk_pairs_checked(snap, k, || Ok(()))
    }

    /// The `k` most correlated item *pairs* at `snap`'s epoch, by
    /// [`rank_pairs`] over [`Snapshot::pair_supports`]: one pass over
    /// each segment's baskets, bypassing the table LRU, so a sweep cannot
    /// evict hot point-query entries. `check` runs after each segment's
    /// pass; its first error ends the count.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptySnapshot`] when nothing was ingested, or the
    /// first error of `check`.
    pub fn topk_pairs_checked<E: From<EngineError>>(
        &self,
        snap: &Snapshot,
        k: usize,
        check: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<PairCorrelation>, E> {
        if snap.is_empty() {
            return Err(EngineError::EmptySnapshot.into());
        }
        let marginals = snapshot_marginals(snap);
        let pair_supports = snap.pair_supports(check)?;
        let rows = rank_pairs(
            marginals.n_baskets,
            &marginals.item_counts,
            &pair_supports,
            &self.test,
            k,
        )?;
        Ok(rows)
    }

    /// [`QueryEngine::border_checked`] with no check.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptySnapshot`] when nothing was ingested.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`MinerConfig::validate`]).
    pub fn border(
        &self,
        snap: &Snapshot,
        config: &MinerConfig,
    ) -> Result<MiningResult, EngineError> {
        self.border_checked(snap, config, || Ok(()))
    }

    /// The border of correlation at `snap`'s epoch, by
    /// [`mine_with_counter`]: each level is counted on every segment's own
    /// bitmap index and summed, bypassing the table LRU.
    /// `check` runs after each level's count; its first error ends the mine.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptySnapshot`] when nothing was ingested, or the
    /// first error of `check`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`MinerConfig::validate`]).
    pub fn border_checked<E: From<EngineError>>(
        &self,
        snap: &Snapshot,
        config: &MinerConfig,
        mut check: impl FnMut() -> Result<(), E>,
    ) -> Result<MiningResult, E> {
        if snap.is_empty() {
            return Err(EngineError::EmptySnapshot.into());
        }
        let count = |candidates: &[Itemset]| {
            let mut supports = vec![0; candidates.len()];
            for segment in snap.segments() {
                let counted = count_with_bitmaps(segment.index(), candidates, config.threads);
                merge_support_vectors(&mut supports, &counted);
            }
            check()?;
            Ok(supports)
        };
        mine_with_counter(&snapshot_marginals(snap), count, config)
    }
}

/// `n` and every item's count at `snap`'s epoch.
fn snapshot_marginals(snap: &Snapshot) -> Marginals {
    Marginals {
        n_baskets: snap.n_baskets() as u64,
        item_counts: (0..snap.n_items())
            .map(|i| snap.item_count(ItemId(i as u32)))
            .collect(),
    }
}

/// Acquires a mutex, recovering from poisoning (cache state is always
/// consistent — the critical sections contain no panicking operations on
/// valid inputs).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::StoreConfig;

    fn store_with(baskets: &[Vec<u32>], segment_capacity: usize) -> Arc<IncrementalStore> {
        let store = Arc::new(IncrementalStore::new(10, StoreConfig { segment_capacity }));
        for b in baskets {
            store.append_ids(b.iter().copied()).unwrap();
        }
        store
    }

    fn census_engine() -> (Arc<IncrementalStore>, QueryEngine) {
        let db = bmb_datasets::generate_census();
        let store = Arc::new(IncrementalStore::from_database(
            &db,
            StoreConfig {
                segment_capacity: 8192,
            },
        ));
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        (store, engine)
    }

    #[test]
    fn every_support_path_assembles_the_same_table() {
        use crate::counting::{
            subset_itemsets, table_from_subset_supports, try_table_from_supports, SupportStore,
        };
        use bmb_basket::BitmapIndex;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let baskets: Vec<Vec<u32>> = (0..700)
            .map(|_| (0..10u32).filter(|_| rng.gen_bool(0.45)).collect())
            .collect();
        // Segments of 64: ten sealed, plus a tail of 60.
        let store = store_with(&baskets, 64);
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let snap = engine.snapshot();
        assert!(snap.sealed_segments().len() >= 2 && snap.tail_segment().is_some());
        let flat = snap.to_database();
        let index = BitmapIndex::build(&flat);
        for _ in 0..200 {
            let mut items: Vec<u32> = (0..10).collect();
            items.shuffle(&mut rng);
            let set = Itemset::from_ids(items[..rng.gen_range(1..=5usize)].iter().copied());
            let scanned = ContingencyTable::from_database(&flat, &set);
            let supports: Vec<u64> = subset_itemsets(&set)
                .iter()
                .map(|subset| index.support_count(subset))
                .collect();
            let mut subset_store = SupportStore::new();
            for subset in subset_itemsets(&set).into_iter().filter(|s| s.len() >= 2) {
                let support = index.support_count(&subset);
                subset_store.insert(Itemset::from_sorted(subset), support);
            }
            let own = index.support_count(set.items());
            let paths = [
                ("bitmap index", ContingencyTable::from_index(&index, &set)),
                ("snapshot", snap.contingency_table(&set)),
                ("engine", (*engine.table(&snap, &set).unwrap()).clone()),
                (
                    "support vector",
                    table_from_subset_supports(&set, &supports),
                ),
                (
                    "support store",
                    try_table_from_supports(&flat, &subset_store, &set, own).unwrap(),
                ),
            ];
            for (path, table) in paths {
                assert_eq!(table, scanned, "{path} table differs for {set}");
            }
        }
    }

    #[test]
    fn chi2_matches_batch_table_on_census() {
        let (_store, engine) = census_engine();
        let snap = engine.snapshot();
        let flat = snap.to_database();
        let test = Chi2Test::default();
        for (a, b) in [(2u32, 7u32), (0, 1), (3, 9)] {
            let set = Itemset::from_ids([a, b]);
            let answer = engine.chi2(&snap, &set).unwrap();
            let batch_table = ContingencyTable::from_database(&flat, &set);
            let batch = test.test_dense(&batch_table);
            assert_eq!(
                answer.outcome.statistic.to_bits(),
                batch.statistic.to_bits()
            );
            assert_eq!(answer.outcome.significant, batch.significant);
            assert_eq!(answer.support, batch_table.observed(0b11));
        }
    }

    #[test]
    fn table_cache_hits_on_repeat_and_misses_after_ingest() {
        let store = store_with(&[vec![0, 1], vec![1, 2], vec![0, 1, 2], vec![3]], 2);
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let set = Itemset::from_ids([0, 1]);
        let snap = engine.snapshot();
        engine.chi2(&snap, &set).unwrap();
        engine.chi2(&snap, &set).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.table_misses, 1);
        assert_eq!(stats.table_hits, 1);
        // Ingest advances the epoch: the next query misses the table cache
        // and re-assembles the table from the segments, equal to the batch
        // table of the new epoch.
        store.append_ids([0, 1, 2]).unwrap();
        let snap2 = engine.snapshot();
        let served = engine.chi2(&snap2, &set).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.table_misses, 2);
        let batch = ContingencyTable::from_database(&snap2.to_database(), &set);
        assert_eq!(*engine.table(&snap2, &set).unwrap(), batch);
        assert_eq!(
            served.outcome.statistic.to_bits(),
            engine.test().test_dense(&batch).statistic.to_bits()
        );
    }

    /// Served `chi2` and `interest` answers equal the batch answers on
    /// the flattened snapshot, bit for bit, across segment capacities
    /// (one basket per segment up to the default) and ingests
    /// interleaved with reads, cold and from the table LRU.
    #[test]
    fn served_answers_match_batch_across_capacities_and_ingests() {
        use rand::{Rng, SeedableRng};

        for capacity in [1, 3, 64, 4096] {
            for seed in 0..3u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 31 + capacity as u64);
                let store = store_with(&[], capacity);
                let config = EngineConfig {
                    df: [DfConvention::PaperSingle, DfConvention::Saturated][seed as usize % 2],
                    ..EngineConfig::default()
                };
                let engine = QueryEngine::new(Arc::clone(&store), config);
                // 4,200 baskets: capacity 4096 seals one segment mid-run.
                while store.epoch() < 4200 {
                    let batch = rng
                        .gen_range(1..=700usize)
                        .min(4200 - store.epoch() as usize);
                    let baskets: Vec<Vec<u32>> = (0..batch)
                        .map(|_| (0..10u32).filter(|_| rng.gen_bool(0.4)).collect())
                        .collect();
                    for basket in &baskets {
                        store.append_ids(basket.iter().copied()).unwrap();
                    }
                    let snap = engine.snapshot();
                    let flat = snap.to_database();
                    for _ in 0..4 {
                        let m = rng.gen_range(1..=4usize);
                        let set = Itemset::from_ids((0..m).map(|_| rng.gen_range(0..10u32)));
                        let batch_table = ContingencyTable::from_database(&flat, &set);
                        let want = engine.test().test_dense(&batch_table);
                        let cell = rng.gen_range(0..1u32 << set.len());
                        let info = InterestReport::analyze(&batch_table).cells()[cell as usize];
                        for pass in ["cold", "warm"] {
                            let case = format!("capacity {capacity}, seed {seed}, {set}, {pass}");
                            let got = engine.chi2(&snap, &set).unwrap();
                            let full = (1u32 << set.len()) - 1;
                            assert_eq!(got.support, batch_table.observed(full), "{case}");
                            assert_eq!(outcome_bits(&got.outcome), outcome_bits(&want), "{case}");
                            let interest = engine.interest(&snap, &set, cell).unwrap();
                            assert_eq!(interest.observed, info.observed, "{case}");
                            assert_eq!(
                                interest.expected.to_bits(),
                                info.expected.to_bits(),
                                "{case}"
                            );
                            assert_eq!(
                                interest.interest.to_bits(),
                                info.interest.to_bits(),
                                "{case}"
                            );
                        }
                    }
                }
                let snap = engine.snapshot();
                let sealed = 4200 / capacity;
                assert_eq!(snap.sealed_segments().len(), sealed, "capacity {capacity}");
            }
        }
    }

    /// Every field of an outcome, floats by their bits.
    fn outcome_bits(o: &Chi2Outcome) -> (u64, u64, u64, bool, u64, usize) {
        (
            o.statistic.to_bits(),
            o.df.to_bits(),
            o.cutoff.to_bits(),
            o.significant,
            o.ln_p_value.to_bits(),
            o.cells_ignored,
        )
    }

    /// Every field of a top-k row, floats by their bits.
    fn row_bits(row: &PairCorrelation) -> impl PartialEq + std::fmt::Debug {
        (
            (row.a, row.b),
            outcome_bits(&row.chi2),
            row.interests.map(f64::to_bits),
            row.most_extreme,
        )
    }

    /// [`rank_pairs`] as it was before it ranked by statistic alone: a
    /// full row for every pair, all sorted, then truncated to `k`.
    fn full_sort_reference(
        n: u64,
        item_counts: &[u64],
        test: &Chi2Test,
        k: usize,
        mut pair_support: impl FnMut(&Itemset) -> u64,
    ) -> Vec<PairCorrelation> {
        let n_items = item_counts.len();
        let mut rows: Vec<PairCorrelation> = Vec::new();
        for a in 0..n_items {
            for b in a + 1..n_items {
                let set = Itemset::from_ids([a as u32, b as u32]);
                let s_ab = pair_support(&set);
                let (o_a, o_b) = (item_counts[a], item_counts[b]);
                let counts = vec![(n + s_ab) - o_a - o_b, o_a - s_ab, o_b - s_ab, s_ab];
                let table = ContingencyTable::from_counts(set, counts);
                rows.push(PairCorrelation::from_table(&table, test));
            }
        }
        rows.sort_unstable_by(|x, y| {
            y.chi2
                .statistic
                .total_cmp(&x.chi2.statistic)
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });
        rows.truncate(k);
        rows
    }

    proptest::proptest! {
        /// `rank_pairs` returns exactly the full-sort reference's rows, in
        /// its order and bit for bit, under both df conventions, with and
        /// without a low-expectation cutoff, for every `k`. Items 0 and 1
        /// are copies of each other, so statistics tie.
        #[test]
        fn rank_pairs_matches_the_full_sort_reference(seed in 0u64..1_000_000) {
            use rand::{Rng, SeedableRng};

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n: u64 = rng.gen_range(1..=60);
            let n_items = rng.gen_range(3..=9usize);
            // A few distinct marginals, so unrelated pairs tie too.
            let levels = [0, n / 3, n / 2, n];
            let mut item_counts: Vec<u64> =
                (0..n_items).map(|_| levels[rng.gen_range(0..4usize)]).collect();
            item_counts[1] = item_counts[0];
            let mut supports = vec![vec![0u64; n_items]; n_items];
            for a in 0..n_items {
                for b in a + 1..n_items {
                    let (o_a, o_b) = (item_counts[a], item_counts[b]);
                    let low = (o_a + o_b).saturating_sub(n);
                    let high = o_a.min(o_b);
                    supports[a][b] = [low, high, (low + high) / 2][rng.gen_range(0..3usize)];
                }
            }
            for b in 2..n_items {
                supports[1][b] = supports[0][b];
            }
            supports[0][1] = item_counts[0];
            let n_pairs = n_items * (n_items - 1) / 2;
            let triangle: Vec<u64> = (0..n_items)
                .flat_map(|a| (a + 1..n_items).map(move |b| (a, b)))
                .map(|(a, b)| supports[a][b])
                .collect();
            proptest::prop_assert_eq!(triangle.len(), n_pairs);
            for df in [DfConvention::PaperSingle, DfConvention::Saturated] {
                for cutoff in [None, Some(1.0), Some(5.0)] {
                    let test = Chi2Test::new(0.95, df, cutoff);
                    for k in [0, 1, 3, n_pairs / 2, n_pairs, n_pairs + 5] {
                        let got = rank_pairs(n, &item_counts, &triangle, &test, k).unwrap();
                        let want = full_sort_reference(n, &item_counts, &test, k, |pair| {
                            supports[pair.items()[0].index()][pair.items()[1].index()]
                        });
                        let got: Vec<_> = got.iter().map(row_bits).collect();
                        let want: Vec<_> = want.iter().map(row_bits).collect();
                        proptest::prop_assert_eq!(got, want, "df {:?}, cutoff {:?}, k {}", df, cutoff, k);
                    }
                }
            }
        }
    }

    #[test]
    fn answers_identical_across_cache_states() {
        let store = store_with(
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![1, 2, 3],
                vec![0, 2],
                vec![],
                vec![3],
                vec![0, 1, 2, 3],
                vec![2, 3],
            ],
            3,
        );
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let snap = engine.snapshot();
        let set = Itemset::from_ids([0, 1, 2]);
        let cold = engine.chi2(&snap, &set).unwrap();
        let warm = engine.chi2(&snap, &set).unwrap();
        assert_eq!(
            cold.outcome.statistic.to_bits(),
            warm.outcome.statistic.to_bits()
        );
        assert_eq!(cold.support, warm.support);
        // And identical to the uncached snapshot path.
        let direct = engine.test().test_dense(&snap.contingency_table(&set));
        assert_eq!(cold.outcome.statistic.to_bits(), direct.statistic.to_bits());
    }

    #[test]
    fn topk_ranks_by_statistic_and_matches_pairs_report() {
        let (_store, engine) = census_engine();
        let snap = engine.snapshot();
        let top = engine.topk_pairs(&snap, 5).unwrap();
        assert_eq!(top.len(), 5);
        assert!(top
            .windows(2)
            .all(|w| w[0].chi2.statistic >= w[1].chi2.statistic));
        // Same rows the batch pairs report would produce.
        let flat = snap.to_database();
        let batch = crate::report::pairs_report(&flat, engine.test());
        for row in &top {
            let matching = batch.iter().find(|r| r.a == row.a && r.b == row.b).unwrap();
            assert_eq!(
                row.chi2.statistic.to_bits(),
                matching.chi2.statistic.to_bits()
            );
        }
    }

    #[test]
    fn border_matches_batch_miner() {
        let parity = bmb_datasets::parity_triple(400, 4);
        let planted = bmb_datasets::planted_pair(600, 6, 0.4, 0.8, 11);
        // Segment capacities giving one sealed segment only, many sealed
        // segments plus a tail, and a tail only.
        let cases = [
            ("parity_triple", &parity, 400, (1, false)),
            ("parity_triple", &parity, 64, (6, true)),
            ("parity_triple", &parity, 1024, (0, true)),
            ("planted_pair", &planted, 600, (1, false)),
            ("planted_pair", &planted, 64, (9, true)),
            ("planted_pair", &planted, 1024, (0, true)),
        ];
        for (name, db, segment_capacity, (sealed, tail)) in cases {
            let store = Arc::new(IncrementalStore::from_database(
                db,
                StoreConfig { segment_capacity },
            ));
            let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
            let snap = engine.snapshot();
            assert_eq!(
                snap.sealed_segments().len(),
                sealed,
                "{name}/{segment_capacity}"
            );
            assert_eq!(
                snap.tail_segment().is_some(),
                tail,
                "{name}/{segment_capacity}"
            );
            for threads in [1, 2] {
                let case = format!("{name}, capacity {segment_capacity}, {threads} threads");
                let config = MinerConfig {
                    support: crate::config::SupportSpec::Count(5),
                    support_fraction: 0.26,
                    threads,
                    ..MinerConfig::default()
                };
                let online = engine.border(&snap, &config).unwrap();
                let batch = crate::miner::mine(db, &config);
                assert!(!batch.significant.is_empty(), "{case}: empty border");
                assert_eq!(online.significant.len(), batch.significant.len(), "{case}");
                for (got, want) in online.significant.iter().zip(&batch.significant) {
                    assert_eq!(got.itemset, want.itemset, "{case}");
                    assert_eq!(
                        got.chi2.statistic.to_bits(),
                        want.chi2.statistic.to_bits(),
                        "{case}: {}",
                        want.itemset
                    );
                    assert_eq!(got.table, want.table, "{case}: {}", want.itemset);
                    assert_eq!(got.support_cells, want.support_cells, "{case}");
                }
                assert_eq!(online.levels, batch.levels, "{case}");
                assert_eq!(online.support_count, batch.support_count, "{case}");
                assert_eq!(
                    online.chi2_cutoff.to_bits(),
                    batch.chi2_cutoff.to_bits(),
                    "{case}"
                );
            }
        }
    }

    /// `check` runs once after each level's count. One that fails after
    /// level 2 ends the mine before level 3 is counted.
    #[test]
    fn border_stops_at_the_first_failed_check() {
        #[derive(Debug, PartialEq)]
        enum Stop {
            Deadline,
            Engine(EngineError),
        }
        impl From<EngineError> for Stop {
            fn from(error: EngineError) -> Stop {
                Stop::Engine(error)
            }
        }
        let db = bmb_datasets::parity_triple(400, 4);
        let store = IncrementalStore::from_database(
            &db,
            StoreConfig {
                segment_capacity: 64,
            },
        );
        let engine = QueryEngine::new(Arc::new(store), EngineConfig::default());
        let snap = engine.snapshot();
        let config = MinerConfig {
            support: crate::config::SupportSpec::Count(5),
            support_fraction: 0.26,
            ..MinerConfig::default()
        };
        let mut checks = 0;
        let passing = engine.border_checked(&snap, &config, || {
            checks += 1;
            Ok::<(), Stop>(())
        });
        assert_eq!(passing.unwrap().levels.len(), 2, "levels 2 and 3 counted");
        assert_eq!(checks, 2);
        let mut checks = 0;
        let stopped = engine.border_checked(&snap, &config, || {
            checks += 1;
            Err(Stop::Deadline)
        });
        assert_eq!(stopped.unwrap_err(), Stop::Deadline);
        assert_eq!(checks, 1, "only level 2 was counted");
        // An empty snapshot fails before anything is counted or checked.
        let empty = QueryEngine::new(
            Arc::new(IncrementalStore::new(4, StoreConfig::default())),
            EngineConfig::default(),
        );
        let stopped = empty.border_checked(&empty.snapshot(), &config, || -> Result<(), Stop> {
            unreachable!("checked an empty snapshot")
        });
        assert_eq!(
            stopped.unwrap_err(),
            Stop::Engine(EngineError::EmptySnapshot)
        );
    }

    /// `topk_pairs_checked` runs `check` after each segment's pass. One
    /// that fails after the first segment ends the count with its error;
    /// a passing one changes nothing, and the ranking equals the full-sort
    /// reference over per-pair supports.
    #[test]
    fn topk_stops_at_the_first_failed_check() {
        #[derive(Debug, PartialEq)]
        enum Stop {
            Deadline,
            Engine(EngineError),
        }
        impl From<EngineError> for Stop {
            fn from(error: EngineError) -> Stop {
                Stop::Engine(error)
            }
        }
        let db = bmb_datasets::planted_pair(600, 6, 0.4, 0.8, 11);
        let store = IncrementalStore::from_database(
            &db,
            StoreConfig {
                segment_capacity: 64,
            },
        );
        let engine = QueryEngine::new(Arc::new(store), EngineConfig::default());
        let snap = engine.snapshot();
        let segments = snap.segments().count();
        assert_eq!(segments, 10, "nine sealed segments and a tail");
        let mut checks = 0;
        let passing = engine.topk_pairs_checked(&snap, 4, || {
            checks += 1;
            Ok::<(), Stop>(())
        });
        assert_eq!(checks, segments);
        let want = full_sort_reference(
            snap.n_baskets() as u64,
            &snapshot_marginals(&snap).item_counts,
            engine.test(),
            4,
            |pair| snap.support(pair.items()),
        );
        let got: Vec<_> = passing.unwrap().iter().map(row_bits).collect();
        let want: Vec<_> = want.iter().map(row_bits).collect();
        assert_eq!(got, want);
        let mut checks = 0;
        let stopped = engine.topk_pairs_checked(&snap, 4, || {
            checks += 1;
            Err(Stop::Deadline)
        });
        assert_eq!(stopped.unwrap_err(), Stop::Deadline);
        assert_eq!(checks, 1, "only the first segment was counted");
        // An empty snapshot fails before anything is counted or checked.
        let empty = QueryEngine::new(
            Arc::new(IncrementalStore::new(4, StoreConfig::default())),
            EngineConfig::default(),
        );
        let empty_snap = empty.snapshot();
        assert_eq!(
            empty.topk_pairs(&empty_snap, 3).unwrap_err(),
            EngineError::EmptySnapshot
        );
        let stopped = empty.topk_pairs_checked(&empty_snap, 3, || -> Result<(), Stop> {
            unreachable!("checked an empty snapshot")
        });
        assert_eq!(
            stopped.unwrap_err(),
            Stop::Engine(EngineError::EmptySnapshot)
        );
    }

    #[test]
    fn errors_are_values_not_panics() {
        let store = store_with(&[vec![0, 1]], 4);
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let snap = engine.snapshot();
        assert_eq!(
            engine.chi2(&snap, &Itemset::empty()).unwrap_err(),
            EngineError::EmptyItemset
        );
        assert!(matches!(
            engine.chi2(&snap, &Itemset::from_ids([42])).unwrap_err(),
            EngineError::ItemOutOfRange { .. }
        ));
        assert!(matches!(
            engine
                .chi2(&snap, &Itemset::from_ids(0..(MAX_QUERY_DIMS as u32 + 1)))
                .unwrap_err(),
            EngineError::TooManyItems { .. }
        ));
        assert!(matches!(
            engine
                .interest(&snap, &Itemset::from_ids([0, 1]), 4)
                .unwrap_err(),
            EngineError::CellOutOfRange { .. }
        ));
        let empty = QueryEngine::new(
            Arc::new(IncrementalStore::new(2, StoreConfig::default())),
            EngineConfig::default(),
        );
        let empty_snap = empty.snapshot();
        assert_eq!(
            empty
                .chi2(&empty_snap, &Itemset::from_ids([0]))
                .unwrap_err(),
            EngineError::EmptySnapshot
        );
    }

    #[test]
    fn interest_matches_paper_census_row() {
        let (_store, engine) = census_engine();
        let snap = engine.snapshot();
        let set = Itemset::from_ids([2, 7]);
        // Paper Table 2, (i2, i7): I(āb̄) = 1.988 — mask 0b00.
        let answer = engine.interest(&snap, &set, 0b00).unwrap();
        assert!((answer.interest - 1.988).abs() < 0.05, "{answer:?}");
    }
}
