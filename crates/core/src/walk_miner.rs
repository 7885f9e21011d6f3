//! Random-walk correlation mining — the paper's sketched alternative.
//!
//! Sections 2.2, 4, and 6 repeatedly propose random walks on the itemset
//! lattice as the companion to the level-wise algorithm, particularly for
//! pruning criteria that are not downward closed (like the chi-squared
//! ceiling). This module wires `bmb_lattice::walk` to the chi-squared
//! property, serving contingency tables from a [`bmb_lattice::CountCube`]
//! when the item space is small ("the random walk algorithm has a natural
//! implementation in terms of a datacube") and from direct database scans
//! otherwise.

use bmb_basket::{BasketDatabase, ContingencyTable, Itemset};
use bmb_lattice::{random_walk_border, CountCube, WalkConfig, WalkOutcome, MAX_CUBE_DIMS};
use bmb_stats::Chi2Test;

use crate::config::MinerConfig;
use crate::support::cell_support;

/// Result of a walk-based mining run.
#[derive(Debug)]
pub struct WalkMiningResult {
    /// The sampled border of correlation, with per-element support filter
    /// already applied.
    pub border: Vec<Itemset>,
    /// Raw walk outcome (including unsupported border elements and walk
    /// statistics).
    pub raw: WalkOutcome,
}

/// Mines minimal correlated itemsets by random walks.
///
/// The walk property is chi-squared significance alone (upward closed by
/// Theorem 1); the support filter — which is a *downward* closed property
/// and therefore cannot steer an upward walk — is applied to the
/// discovered minimal sets afterwards. An optional χ² ceiling drops
/// too-obvious correlations, the pruning the paper says "a random walk
/// algorithm ... might be appropriate" for.
pub fn mine_walk(
    db: &BasketDatabase,
    config: &MinerConfig,
    walk: WalkConfig,
    chi2_ceiling: Option<f64>,
) -> WalkMiningResult {
    config.validate();
    let n = db.len() as u64;
    let s = config.support.to_count(n).max(1);
    let test = Chi2Test::new(config.alpha, config.df, config.low_expectation_cutoff);
    let k = db.n_items();
    let cube = if k > 0 && k <= MAX_CUBE_DIMS {
        Some(CountCube::build(db, &Itemset::from_ids(0..k as u32)))
    } else {
        None
    };
    let table_for = |set: &Itemset| -> ContingencyTable {
        match &cube {
            Some(cube) => cube.contingency(set),
            None => ContingencyTable::from_database(db, set),
        }
    };
    let property = |set: &Itemset| -> bool {
        if set.is_empty() || set.len() > MAX_CUBE_DIMS {
            return false;
        }
        test.test_dense(&table_for(set)).significant
    };
    let raw = random_walk_border(k as u32, walk, property);
    let border: Vec<Itemset> = raw
        .border
        .minimal_sets()
        .iter()
        .filter(|set| {
            let table = table_for(set);
            if !cell_support(&table, s, config.cells_required(set.len())).supported() {
                return false;
            }
            match chi2_ceiling {
                Some(ceiling) => test.test_dense(&table).statistic < ceiling,
                None => true,
            }
        })
        .cloned()
        .collect();
    WalkMiningResult { border, raw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupportSpec;
    use crate::miner::mine;

    fn config() -> MinerConfig {
        MinerConfig {
            support: SupportSpec::Count(5),
            support_fraction: 0.26,
            ..Default::default()
        }
    }

    fn walk_config() -> WalkConfig {
        WalkConfig {
            walks: 300,
            max_level: 6,
            seed: 77,
        }
    }

    #[test]
    fn walk_finds_the_parity_triple() {
        let db = bmb_datasets::parity_triple(400, 5);
        let result = mine_walk(&db, &config(), walk_config(), None);
        assert_eq!(result.border, vec![Itemset::from_ids([0, 1, 2])]);
        assert!(result.raw.stats.crossings > 0);
    }

    #[test]
    fn walk_agrees_with_levelwise_on_planted_data() {
        let db = bmb_datasets::planted_pair(2000, 6, 0.3, 0.8, 21);
        let levelwise = mine(&db, &config());
        let walked = mine_walk(&db, &config(), walk_config(), None);
        // Every walk discovery is a level-wise discovery (walks may sample
        // a subset of a large border, but here the border is small).
        let level_sets: Vec<&Itemset> = levelwise.significant.iter().map(|r| &r.itemset).collect();
        for set in &walked.border {
            assert!(
                level_sets.contains(&set),
                "walk found {set}, level-wise did not"
            );
        }
        // And the planted pair is found by both.
        assert!(walked.border.contains(&Itemset::from_ids([0, 1])));
    }

    #[test]
    fn ceiling_drops_obvious_correlations() {
        // Parity triple scores χ² = n = 400; a ceiling of 100 suppresses it.
        let db = bmb_datasets::parity_triple(400, 5);
        let result = mine_walk(&db, &config(), walk_config(), Some(100.0));
        assert!(result.border.is_empty());
        // The raw walk still crossed the border — the filter is post-hoc.
        assert!(!result.raw.border.is_empty());
    }

    #[test]
    fn support_filter_applies() {
        // Tiny database: the triple is correlated but cells hold ~5 < s = 20.
        let db = bmb_datasets::parity_triple(20, 3);
        let strict = MinerConfig {
            support: SupportSpec::Count(20),
            ..config()
        };
        let result = mine_walk(&db, &strict, walk_config(), None);
        assert!(result.border.is_empty());
    }

    #[test]
    fn empty_database_is_handled() {
        let db = bmb_basket::BasketDatabase::new(4);
        let result = mine_walk(
            &db,
            &config(),
            WalkConfig {
                walks: 5,
                ..walk_config()
            },
            None,
        );
        assert!(result.border.is_empty());
    }
}
