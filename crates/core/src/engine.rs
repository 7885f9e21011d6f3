//! The online correlation-query engine behind `bmb-serve`, and the query
//! core it shares with the cluster coordinator.
//!
//! A [`QueryEngine`] answers chi-squared / interest / top-k / border
//! queries against epoch-pinned [`bmb_basket::Snapshot`]s of an
//! [`bmb_basket::IncrementalStore`], with two capacity-bounded caches:
//!
//! * a **table cache** keyed by `(itemset, epoch)` — a full assembled
//!   [`bmb_basket::ContingencyTable`]; entries for stale epochs simply
//!   stop being hit and age out of the LRU;
//! * a **segment-support cache** keyed by `(segment id, itemset)` —
//!   per-sealed-segment supports. Sealed segments are immutable, so these
//!   entries stay valid across ingest: after an append only the (small)
//!   tail contribution is recomputed, which is the "invalidated
//!   per-segment" behaviour a mostly-append workload wants.
//!
//! The cluster coordinator answers through the same functions
//! ([`check_query_shape`], [`check_query_at`], [`Chi2Answer::from_table`],
//! [`InterestAnswer::from_table`], [`rank_pairs`], and
//! [`crate::mine_with_counter`] for `border`); only its supports come from
//! elsewhere: the sum of the shards' `support_vec` answers.
//!
//! Every answer is bit-identical to the batch pipeline on the same epoch:
//! snapshot supports are exact sums over a partition of the baskets, and
//! tables are assembled by the same Möbius inversion the miner uses.

use std::sync::{Arc, Mutex, PoisonError};

use bmb_basket::{ContingencyTable, IncrementalStore, ItemId, Itemset, Segment, Snapshot};
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
    /// Capacity of the `(segment, itemset)` support cache.
    pub segment_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            alpha: 0.95,
            df: DfConvention::PaperSingle,
            low_expectation_cutoff: None,
            table_cache: 4096,
            segment_cache: 65536,
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
    /// Sealed-segment support-cache hits.
    pub segment_hits: u64,
    /// Sealed-segment support-cache misses (bitmap sweeps run).
    pub segment_misses: u64,
    /// Sealed-segment support-cache LRU evictions.
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
/// `(a, b)` order), over `n` baskets with `item_counts[i]` = `O(i)`;
/// `pair_support` gives `O(ab)`, called once per pair in `(a, b)` order.
///
/// # Errors
///
/// [`EngineError::EmptySnapshot`] when `n` is 0.
pub fn rank_pairs(
    n: u64,
    item_counts: &[u64],
    test: &Chi2Test,
    k: usize,
    mut pair_support: impl FnMut(&Itemset) -> u64,
) -> Result<Vec<PairCorrelation>, EngineError> {
    if n == 0 {
        return Err(EngineError::EmptySnapshot);
    }
    let n_items = item_counts.len();
    let mut rows: Vec<PairCorrelation> = Vec::new();
    for a in 0..n_items {
        for b in a + 1..n_items {
            let set = Itemset::from_ids([a as u32, b as u32]);
            let s_ab = pair_support(&set);
            let (o_a, o_b) = (item_counts[a], item_counts[b]);
            // Cell masks: bit0 = a present, bit1 = b present.
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
    Ok(rows)
}

/// The online query engine; all methods take `&self` and are safe to call
/// from many server threads at once.
pub struct QueryEngine {
    store: Arc<IncrementalStore>,
    test: Chi2Test,
    tables: Mutex<LruCache<(Itemset, u64), Arc<ContingencyTable>>>,
    segment_supports: Mutex<LruCache<(u64, Itemset), u64>>,
    /// Per-engine metrics registry (`bmb_core_cache_*` families); each
    /// engine owns its own so parallel engines never share counters.
    obs: Arc<Registry>,
    table_hits: Counter,
    table_misses: Counter,
    table_evictions: Counter,
    segment_hits: Counter,
    segment_misses: Counter,
    segment_evictions: Counter,
}

impl QueryEngine {
    /// An engine over `store` with the given configuration.
    pub fn new(store: Arc<IncrementalStore>, config: EngineConfig) -> Self {
        let obs = Arc::new(Registry::new());
        let hits_help = "Engine cache hits by cache.";
        let misses_help = "Engine cache misses by cache.";
        let evict_help = "Engine cache LRU evictions by cache.";
        let table = [("cache", "table")];
        let segment = [("cache", "segment")];
        QueryEngine {
            store,
            test: Chi2Test::new(config.alpha, config.df, config.low_expectation_cutoff),
            tables: Mutex::new(LruCache::with_capacity(config.table_cache.max(1))),
            segment_supports: Mutex::new(LruCache::with_capacity(config.segment_cache.max(1))),
            table_hits: obs.counter_with("bmb_core_cache_hits_total", hits_help, &table),
            table_misses: obs.counter_with("bmb_core_cache_misses_total", misses_help, &table),
            table_evictions: obs.counter_with("bmb_core_cache_evictions_total", evict_help, &table),
            segment_hits: obs.counter_with("bmb_core_cache_hits_total", hits_help, &segment),
            segment_misses: obs.counter_with("bmb_core_cache_misses_total", misses_help, &segment),
            segment_evictions: obs.counter_with(
                "bmb_core_cache_evictions_total",
                evict_help,
                &segment,
            ),
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

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            table_hits: self.table_hits.get(),
            table_misses: self.table_misses.get(),
            table_evictions: self.table_evictions.get(),
            segment_hits: self.segment_hits.get(),
            segment_misses: self.segment_misses.get(),
            segment_evictions: self.segment_evictions.get(),
        }
    }

    /// The contingency table of `set` at `snap`'s epoch, from cache or
    /// assembled from per-segment supports.
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
        let table = Arc::new(self.assemble_table(snap, set));
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

    /// The `k` most correlated item *pairs* at `snap`'s epoch, by
    /// [`rank_pairs`]. Pair supports bypass the caches, so a sweep cannot
    /// evict hot point-query entries.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptySnapshot`] when nothing was ingested.
    pub fn topk_pairs(
        &self,
        snap: &Snapshot,
        k: usize,
    ) -> Result<Vec<PairCorrelation>, EngineError> {
        let marginals = snapshot_marginals(snap);
        rank_pairs(
            marginals.n_baskets,
            &marginals.item_counts,
            &self.test,
            k,
            |pair| snap.support(pair.items()),
        )
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
    /// bitmap index, bypassing the segment-support cache, and summed.
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

    /// Assembles `set`'s table from per-segment supports by Möbius
    /// inversion (sealed-segment supports served from cache).
    fn assemble_table(&self, snap: &Snapshot, set: &Itemset) -> ContingencyTable {
        ContingencyTable::from_subsets(set, |subset| {
            let tail = snap.tail_segment().map_or(0, |tail| tail.support(subset));
            let sealed = snap.sealed_segments().iter();
            let sealed: u64 = sealed
                .map(|segment| self.sealed_support(segment, subset))
                .sum();
            tail + sealed
        })
    }

    /// `O(subset)` within one *sealed* segment, via the per-segment cache.
    /// Empty sets and singletons are answered from the segment's counts
    /// directly — caching them would only displace multi-item entries.
    fn sealed_support(&self, segment: &Segment, subset: &[ItemId]) -> u64 {
        match subset {
            [] => segment.len() as u64,
            [single] => segment.database().item_count(*single),
            _ => {
                let key = (segment.id(), Itemset::from_sorted_slice(subset));
                if let Some(&support) = lock(&self.segment_supports).get(&key) {
                    self.segment_hits.inc();
                    return support;
                }
                self.segment_misses.inc();
                let support = segment.support(subset);
                if lock(&self.segment_supports).insert(key, support) {
                    self.segment_evictions.inc();
                }
                support
            }
        }
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
        // but reuses every sealed segment's supports.
        store.append_ids([0, 1, 2]).unwrap();
        let snap2 = engine.snapshot();
        engine.chi2(&snap2, &set).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.table_misses, 2);
        assert!(
            stats.segment_hits >= 1,
            "sealed-segment supports must survive ingest: {stats:?}"
        );
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
