//! The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB '94).
//!
//! The support half of the support–confidence framework the paper
//! generalizes away from: level-wise search using the *downward closure* of
//! support — "if any subset of an (i+1)-itemset does not have support, then
//! neither can the (i+1)-itemset".

use bmb_basket::{BasketDatabase, BitmapIndex, ItemId, Itemset};
use bmb_lattice::generate_candidates;

/// Minimum support expressed either as an absolute basket count or as a
/// fraction of the database.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MinSupport {
    /// At least this many baskets.
    Count(u64),
    /// At least this fraction of all baskets (the paper's `s%`).
    Fraction(f64),
}

impl MinSupport {
    /// Resolves to an absolute count over a database of `n` baskets.
    ///
    /// Fractions round *up*: support `s%` means `>= ceil(s·n)` baskets.
    pub fn to_count(self, n: u64) -> u64 {
        match self {
            MinSupport::Count(c) => c,
            MinSupport::Fraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "support fraction out of range: {f}"
                );
                (f * n as f64).ceil() as u64
            }
        }
    }
}

/// One frequent itemset with its support count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Number of baskets containing it.
    pub count: u64,
}

impl FrequentItemset {
    /// Support as a fraction of `n` baskets.
    pub fn fraction(&self, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.count as f64 / n as f64
        }
    }
}

/// Per-level accounting, mirroring the correlation miner's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AprioriLevelStats {
    /// Level (itemset size).
    pub level: usize,
    /// Candidates counted at this level.
    pub candidates: usize,
    /// Candidates that met the support threshold.
    pub frequent: usize,
}

/// Result of a full Apriori run.
#[derive(Clone, Debug, Default)]
pub struct AprioriResult {
    /// All frequent itemsets of size >= 1, in ascending (size, lexicographic)
    /// order.
    pub frequent: Vec<FrequentItemset>,
    /// Per-level candidate/survivor counts.
    pub levels: Vec<AprioriLevelStats>,
}

impl AprioriResult {
    /// Looks up the support count of an exact itemset, if frequent: a
    /// binary search, relying on `frequent`'s (size, lexicographic) order.
    pub fn support_of(&self, set: &Itemset) -> Option<u64> {
        self.frequent
            .binary_search_by(|f| (f.itemset.len(), &f.itemset).cmp(&(set.len(), set)))
            .ok()
            .map(|i| self.frequent[i].count)
    }

    /// All frequent itemsets of one size.
    pub fn at_level(&self, level: usize) -> impl Iterator<Item = &FrequentItemset> {
        self.frequent
            .iter()
            .filter(move |f| f.itemset.len() == level)
    }
}

/// Runs Apriori over `db` with the given minimum support.
///
/// `max_level` caps the itemset size explored (use `usize::MAX` for no cap).
/// Every candidate's support is one intersection over a bitmap index built
/// once per run.
pub fn apriori(db: &BasketDatabase, min_support: MinSupport, max_level: usize) -> AprioriResult {
    let n = db.len() as u64;
    let threshold = min_support.to_count(n).max(1);
    let mut result = AprioriResult::default();

    // Level 1: direct item counts, in item (hence lexicographic) order.
    result.frequent.extend(
        (0..db.n_items())
            .map(|i| ItemId(i as u32))
            .filter(|&i| db.item_count(i) >= threshold)
            .map(|i| FrequentItemset {
                itemset: Itemset::singleton(i),
                count: db.item_count(i),
            }),
    );
    result.levels.push(AprioriLevelStats {
        level: 1,
        candidates: db.n_items(),
        frequent: result.frequent.len(),
    });
    // One level's frequent sets, sorted: the join input and facet probe.
    let mut survivors: Vec<Itemset> = result.frequent.iter().map(|f| f.itemset.clone()).collect();

    let index = BitmapIndex::build(db);
    let mut level = 1usize;
    while level < max_level && !survivors.is_empty() {
        level += 1;
        let candidates = generate_candidates(&survivors, |items| {
            survivors.binary_search_by(|s| s.items().cmp(items)).is_ok()
        });
        if candidates.is_empty() {
            break;
        }
        let n_candidates = candidates.len();
        survivors.clear();
        for candidate in candidates {
            let count = index.support_count(candidate.items());
            if count >= threshold {
                result.frequent.push(FrequentItemset {
                    itemset: candidate.clone(),
                    count,
                });
                survivors.push(candidate);
            }
        }
        result.levels.push(AprioriLevelStats {
            level,
            candidates: n_candidates,
            frequent: survivors.len(),
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic 5-transaction example used in many Apriori expositions.
    fn db() -> BasketDatabase {
        BasketDatabase::from_id_baskets(
            5,
            vec![
                vec![0, 1, 4],
                vec![1, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![0, 2],
                vec![1, 2],
                vec![0, 2],
                vec![0, 1, 2, 4],
                vec![0, 1, 2],
            ],
        )
    }

    #[test]
    fn frequent_itemsets_with_count_threshold() {
        let result = apriori(&db(), MinSupport::Count(2), usize::MAX);
        // Hand-checked frequents at count >= 2.
        let expect = [
            (vec![0u32], 6),
            (vec![1], 7),
            (vec![2], 6),
            (vec![3], 2),
            (vec![4], 2),
            (vec![0, 1], 4),
            (vec![0, 2], 4),
            (vec![0, 4], 2),
            (vec![1, 2], 4),
            (vec![1, 3], 2),
            (vec![1, 4], 2),
            (vec![0, 1, 2], 2),
            (vec![0, 1, 4], 2),
        ];
        for (ids, count) in &expect {
            let set = Itemset::from_ids(ids.iter().copied());
            assert_eq!(result.support_of(&set), Some(*count), "for {set}");
        }
        assert_eq!(result.frequent.len(), expect.len());
    }

    #[test]
    fn fraction_threshold_rounds_up() {
        assert_eq!(MinSupport::Fraction(0.01).to_count(30370), 304);
        assert_eq!(MinSupport::Fraction(0.5).to_count(9), 5);
        assert_eq!(MinSupport::Count(7).to_count(100), 7);
    }

    #[test]
    fn downward_closure_holds_on_output() {
        let result = apriori(&db(), MinSupport::Count(2), usize::MAX);
        for f in &result.frequent {
            for facet in f.itemset.facets() {
                if !facet.is_empty() {
                    assert!(
                        result.support_of(&facet).is_some(),
                        "facet {facet} of {} missing",
                        f.itemset
                    );
                }
            }
        }
    }

    #[test]
    fn supports_are_monotone_in_subsets() {
        let result = apriori(&db(), MinSupport::Count(1), usize::MAX);
        for f in &result.frequent {
            for facet in f.itemset.facets() {
                if facet.is_empty() {
                    continue;
                }
                let facet_count = result.support_of(&facet).unwrap();
                assert!(facet_count >= f.count);
            }
        }
    }

    #[test]
    fn max_level_truncates() {
        let result = apriori(&db(), MinSupport::Count(2), 1);
        assert!(result.frequent.iter().all(|f| f.itemset.len() == 1));
        assert_eq!(result.levels.len(), 1);
    }

    #[test]
    fn level_stats_track_candidates() {
        let result = apriori(&db(), MinSupport::Count(2), usize::MAX);
        assert_eq!(result.levels[0].level, 1);
        assert_eq!(result.levels[0].candidates, 5);
        assert_eq!(result.levels[0].frequent, 5);
        // Level 2 candidates: all C(5,2) = 10 pairs of frequent singletons.
        assert_eq!(result.levels[1].candidates, 10);
        assert_eq!(result.levels[1].frequent, 6);
    }

    #[test]
    fn empty_database() {
        let empty = BasketDatabase::new(3);
        let result = apriori(&empty, MinSupport::Count(1), usize::MAX);
        assert!(result.frequent.is_empty());
    }

    /// A seeded random database over `k` items: each item joins each
    /// basket with probability 0.35.
    fn random_db(seed: u64, k: usize, n: usize) -> BasketDatabase {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let baskets = (0..n)
            .map(|_| (0..k as u32).filter(|_| rng.gen_bool(0.35)).collect())
            .collect();
        BasketDatabase::from_id_baskets(k, baskets)
    }

    /// Every non-empty itemset over `k` items with its inline per-basket
    /// count, in (size, lexicographic) order.
    fn all_counts(db: &BasketDatabase) -> Vec<(Itemset, u64)> {
        let universe = Itemset::from_ids(0..db.n_items() as u32);
        (1..=db.n_items())
            .flat_map(|size| universe.subsets_of_size(size))
            .map(|set| {
                let count = db
                    .baskets()
                    .filter(|basket| set.items().iter().all(|i| basket.contains(i)))
                    .count() as u64;
                (set, count)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_databases() {
        for seed in 0..12u64 {
            let k = 3 + (seed % 6) as usize;
            let db = random_db(seed, k, 12 + seed as usize);
            let counts = all_counts(&db);
            for threshold in 1..=4u64 {
                let result = apriori(&db, MinSupport::Count(threshold), usize::MAX);
                let got: Vec<(Itemset, u64)> = result
                    .frequent
                    .iter()
                    .map(|f| (f.itemset.clone(), f.count))
                    .collect();
                let want: Vec<(Itemset, u64)> = counts
                    .iter()
                    .filter(|(_, count)| *count >= threshold)
                    .cloned()
                    .collect();
                assert_eq!(got, want, "seed {seed}, k {k}, threshold {threshold}");
            }
        }
    }

    #[test]
    fn support_of_agrees_with_a_linear_scan() {
        for seed in 20..30u64 {
            let db = random_db(seed, 7, 30);
            let result = apriori(&db, MinSupport::Count(3), usize::MAX);
            assert!(
                result.frequent.len() > 7,
                "seed {seed}: too few frequent sets"
            );
            for (set, count) in all_counts(&db) {
                let linear = result
                    .frequent
                    .iter()
                    .find(|f| f.itemset == set)
                    .map(|f| f.count);
                assert_eq!(result.support_of(&set), linear, "seed {seed}, {set}");
                assert_eq!(linear.is_some(), count >= 3, "seed {seed}, {set}");
            }
        }
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let result = apriori(&db(), MinSupport::Count(100), usize::MAX);
        assert!(result.frequent.is_empty());
    }
}
