//! # bmb-core — correlation-rule mining
//!
//! The primary contribution of *Beyond Market Baskets: Generalizing
//! Association Rules to Correlations* (Brin, Motwani & Silverstein,
//! SIGMOD 1997): mine the itemsets whose presence/absence pattern fails
//! the chi-squared test of independence, exploiting the upward closure of
//! significance to return only the *border* of minimal correlated
//! itemsets, with the paper's cell-based support pruning.
//!
//! ```
//! use bmb_core::{mine, MinerConfig, SupportSpec};
//!
//! // The canonical minimal 3-way correlation: pairwise independent items
//! // whose triple is functionally determined.
//! let db = bmb_datasets::parity_triple(400, 4);
//! let result = mine(&db, &MinerConfig {
//!     support: SupportSpec::Count(5),
//!     ..MinerConfig::default()
//! });
//! assert_eq!(result.significant.len(), 1);
//! assert_eq!(result.significant[0].itemset.len(), 3);
//! ```
//!
//! Modules:
//!
//! * [`miner`] — the level-wise `x²-support` algorithm (Figure 1);
//! * [`walk_miner`] — the random-walk alternative the paper sketches;
//! * [`config`] / [`support`] / [`prune`] — thresholds and pruning rules;
//! * [`locality`] — spatial-locality rules over ordered baskets (the
//!   conclusion's first future-work item);
//! * [`counting`] — batch support counting and Möbius table assembly;
//! * [`engine`] / [`lru`] — the online query engine over incremental
//!   snapshots, with its LRU contingency-table cache;
//! * [`report`] — pairwise χ²-and-interest reports (Table 2);
//! * [`stats`] — per-level accounting (Table 5);
//! * [`sig`] — the significant-itemset output type.

#![warn(missing_docs)]

/// Pairwise reports over multi-valued categorical attributes.
pub mod categorical_report;
/// Miner configuration: support policy, pruning, worker threads.
pub mod config;
/// Batch support counting and Möbius contingency-table assembly.
pub mod counting;
/// The online query engine over incremental-store snapshots.
pub mod engine;
/// Word-adjacency locality analysis (the paper's text experiments).
pub mod locality;
/// A fixed-capacity LRU cache backing the query engine.
pub mod lru;
/// The level-wise significant-itemset miner (Algorithm 2).
pub mod miner;
/// Pruning predicates: support, interest, and χ²-based cuts.
pub mod prune;
/// Pairwise χ²-and-interest reports (the paper's Table 2).
pub mod report;
/// The significant-itemset output type and its major dependences.
pub mod sig;
/// Per-level mining statistics (the paper's Table 5).
pub mod stats;
/// Cell-based support counting over contingency tables (Section 4).
pub mod support;
/// The random-walk border miner over the itemset lattice.
pub mod walk_miner;

pub use categorical_report::{
    categorical_pair, categorical_pairs_report, CategoricalPairCorrelation,
};
pub use config::{Level1Prune, MinerConfig, SupportSpec};
pub use counting::{
    merge_support_vectors, subset_itemsets, table_from_subset_supports, MarginalSource, Marginals,
};
pub use engine::{
    CacheStats, Chi2Answer, EngineConfig, EngineError, InterestAnswer, QueryEngine, MAX_QUERY_DIMS,
};
pub use locality::{locality_test, mine_locality, LocalityReport};
pub use miner::{mine, mine_with_counter, LevelProfile, MinerProfile, MiningResult};
pub use report::{pairs_report, PairCorrelation};
pub use sig::CorrelationRule;
pub use stats::{lattice_level_size, LevelStats};
pub use walk_miner::{mine_walk, WalkMiningResult};
