//! # beyond-market-baskets
//!
//! Umbrella crate for the reproduction of *Beyond Market Baskets:
//! Generalizing Association Rules to Correlations* (Brin, Motwani &
//! Silverstein, SIGMOD 1997). It re-exports every workspace crate under
//! one roof so examples and downstream users need a single dependency:
//!
//! * [`basket`] — items, itemsets, basket databases, contingency tables;
//! * [`stats`] — the chi-squared machinery, interest measure, Fisher exact;
//! * [`lattice`] — candidate generation, borders, random walks, datacubes;
//! * [`corr`] — the `x²-support` correlation miner (the paper's core);
//! * [`apriori`] — the support-confidence baseline;
//! * [`quest`] — the IBM Quest synthetic data generator;
//! * [`datasets`] — census/text/toy workload simulators;
//! * [`serve`] — the long-running correlation-query server.
//!
//! ## Quickstart
//!
//! ```
//! use beyond_market_baskets::prelude::*;
//!
//! // Example 1 of the paper: tea and coffee look associated but are
//! // negatively correlated.
//! let db = beyond_market_baskets::datasets::tea_coffee();
//! let test = Chi2Test::default();
//! let rows = pairs_report(&db, &test);
//! assert!(rows[0].interests[0] < 1.0); // I(tea ∧ coffee) = 0.89
//! ```

pub use bmb_apriori as apriori;
pub use bmb_basket as basket;
pub use bmb_core as corr;
pub use bmb_datasets as datasets;
pub use bmb_lattice as lattice;
pub use bmb_quest as quest;
pub use bmb_sampling as sampling;
pub use bmb_serve as serve;
pub use bmb_stats as stats;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use bmb_apriori::{apriori, generate_rules, MinSupport};
    pub use bmb_basket::{BasketDatabase, ItemCatalog, ItemId, Itemset};
    pub use bmb_core::{
        mine, mine_walk, pairs_report, CorrelationRule, MinerConfig, MiningResult, SupportSpec,
    };
    pub use bmb_stats::{Chi2Test, ChiSquared, InterestReport, SignificanceLevel};
}
