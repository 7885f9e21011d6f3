//! The online correlation-query engine behind `bmb-serve`.
//!
//! A [`QueryEngine`] answers chi-squared / interest / top-k / border
//! queries against epoch-pinned [`Snapshot`]s of an [`IncrementalStore`],
//! with two capacity-bounded caches:
//!
//! * a **table cache** keyed by `(itemset, epoch)` — a full assembled
//!   [`ContingencyTable`]; entries for stale epochs simply stop being hit
//!   and age out of the LRU;
//! * a **segment-support cache** keyed by `(segment id, itemset)` —
//!   per-sealed-segment supports. Sealed segments are immutable, so these
//!   entries stay valid across ingest: after an append only the (small)
//!   tail contribution is recomputed, which is the "invalidated
//!   per-segment" behaviour a mostly-append workload wants.
//!
//! Every answer is bit-identical to the batch pipeline on the same epoch:
//! snapshot supports are exact sums over a partition of the baskets, and
//! tables are assembled by the same Möbius inversion the miner uses.

use std::sync::{Arc, Mutex, PoisonError};

use bmb_basket::{ContingencyTable, IncrementalStore, ItemId, Itemset, Segment, Snapshot};
use bmb_obs::{Counter, Registry};
use bmb_stats::{Chi2Outcome, Chi2Test, DfConvention, InterestReport};

use crate::config::MinerConfig;
use crate::lru::LruCache;
use crate::miner::{mine, MiningResult};
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
        self.validate(snap, set)?;
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
        let full_cell = (1u32 << set.len()) - 1;
        Ok(Chi2Answer {
            itemset: set.clone(),
            epoch: snap.epoch(),
            support: table.observed(full_cell),
            outcome: self.test.test_dense(&table),
        })
    }

    /// Batched point chi-squared lookups over one pinned snapshot: every
    /// answer refers to the same epoch.
    pub fn chi2_batch(
        &self,
        snap: &Snapshot,
        sets: &[Itemset],
    ) -> Vec<Result<Chi2Answer, EngineError>> {
        sets.iter().map(|set| self.chi2(snap, set)).collect()
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
        if cell as usize >= table.n_cells() {
            return Err(EngineError::CellOutOfRange {
                cell,
                dims: table.dims(),
            });
        }
        let report = InterestReport::analyze(&table);
        let info = report.cells()[cell as usize];
        Ok(InterestAnswer {
            itemset: set.clone(),
            cell,
            epoch: snap.epoch(),
            observed: info.observed,
            expected: info.expected,
            interest: info.interest,
        })
    }

    /// The `k` most correlated item *pairs* at `snap`'s epoch, ranked by
    /// chi-squared statistic (descending). Pair tables are derived from
    /// marginals plus one pair support each, bypassing the caches so a
    /// sweep cannot evict hot point-query entries.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptySnapshot`] when nothing was ingested.
    pub fn topk_pairs(
        &self,
        snap: &Snapshot,
        k: usize,
    ) -> Result<Vec<PairCorrelation>, EngineError> {
        if snap.is_empty() {
            return Err(EngineError::EmptySnapshot);
        }
        let n_items = snap.n_items();
        let n = snap.n_baskets() as u64;
        let item_counts: Vec<u64> = (0..n_items)
            .map(|i| snap.item_count(ItemId(i as u32)))
            .collect();
        let mut rows: Vec<PairCorrelation> = Vec::new();
        for a in 0..n_items {
            for b in a + 1..n_items {
                let set = Itemset::from_ids([a as u32, b as u32]);
                let s_ab = snap.support(set.items());
                let (o_a, o_b) = (item_counts[a], item_counts[b]);
                // Cell masks: bit0 = a present, bit1 = b present.
                let counts = vec![(n + s_ab) - o_a - o_b, o_a - s_ab, o_b - s_ab, s_ab];
                let table = ContingencyTable::from_counts(set, counts);
                rows.push(PairCorrelation::from_table(&table, &self.test));
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

    /// The border of correlation at `snap`'s epoch: materializes the
    /// snapshot and runs the batch miner, so the answer is — by
    /// construction — identical to a batch run over the same baskets.
    /// This is the service's heavyweight analytical query.
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
        if snap.is_empty() {
            return Err(EngineError::EmptySnapshot);
        }
        Ok(mine(&snap.to_database(), config))
    }

    /// Validates a point query against the snapshot.
    fn validate(&self, snap: &Snapshot, set: &Itemset) -> Result<(), EngineError> {
        if set.is_empty() {
            return Err(EngineError::EmptyItemset);
        }
        if set.len() > MAX_QUERY_DIMS {
            return Err(EngineError::TooManyItems { len: set.len() });
        }
        if snap.is_empty() {
            return Err(EngineError::EmptySnapshot);
        }
        for &item in set.items() {
            if item.index() >= snap.n_items() {
                return Err(EngineError::ItemOutOfRange {
                    item,
                    n_items: snap.n_items(),
                });
            }
        }
        Ok(())
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
        let db = bmb_datasets::parity_triple(400, 4);
        let store = Arc::new(IncrementalStore::from_database(
            &db,
            StoreConfig {
                segment_capacity: 128,
            },
        ));
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let config = MinerConfig {
            support: crate::config::SupportSpec::Count(5),
            support_fraction: 0.26,
            ..MinerConfig::default()
        };
        let snap = engine.snapshot();
        let online = engine.border(&snap, &config).unwrap();
        let batch = mine(&db, &config);
        let online_sets: Vec<&Itemset> = online.significant.iter().map(|r| &r.itemset).collect();
        let batch_sets: Vec<&Itemset> = batch.significant.iter().map(|r| &r.itemset).collect();
        assert_eq!(online_sets, batch_sets);
        assert_eq!(online.levels, batch.levels);
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
