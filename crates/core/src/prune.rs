//! Alternative pruning criteria (Section 4's discussion).
//!
//! Beyond cell support the paper sketches two more pruning ideas:
//!
//! * **anti-support** — "only rarely occurring combinations of items are
//!   interesting", e.g. for fire-code mining where the conditions leading
//!   to fires are rare. Since `O(S)` only shrinks as items are added,
//!   anti-support is *upward* closed and composes naturally with the
//!   random-walk miner (it cannot drive a level-wise prune);
//! * **a chi-squared ceiling** — "prune itemsets with very high χ² values,
//!   under the theory that these correlations are probably so obvious as
//!   to be uninteresting". Not closed in either direction; again a
//!   predicate for walks, not levels.

use bmb_basket::{BitmapIndex, ContingencyTable, Itemset};

/// Anti-support: `S` qualifies when its all-present count is at most
/// `threshold` — the combination is *rare*.
pub fn anti_supported(index: &BitmapIndex, set: &Itemset, threshold: u64) -> bool {
    index.support_count(set.items()) <= threshold
}

/// The chi-squared ceiling: `true` when the statistic is "interestingly"
/// significant — at or above `cutoff` but below `ceiling`.
pub fn within_chi2_window(statistic: f64, cutoff: f64, ceiling: f64) -> bool {
    statistic >= cutoff && statistic < ceiling
}

/// Convenience: evaluates the windowed-χ² predicate on a table.
pub fn table_in_window(table: &ContingencyTable, test: &bmb_stats::Chi2Test, ceiling: f64) -> bool {
    let outcome = test.test_dense(table);
    within_chi2_window(outcome.statistic, outcome.cutoff, ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::BasketDatabase;

    #[test]
    fn anti_support_is_upward_closed_on_data() {
        let db = BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1],
                vec![0],
                vec![1],
                vec![0, 1, 2],
                vec![2],
                vec![0, 1],
            ],
        );
        let index = BitmapIndex::build(&db);
        let t = 3u64;
        // Exhaustive: if S anti-supported, every superset is too.
        let universe = Itemset::from_ids(0..3);
        for size in 1..3usize {
            for set in universe.subsets_of_size(size) {
                if !anti_supported(&index, &set, t) {
                    continue;
                }
                for bigger_size in size + 1..=3 {
                    for sup in universe.subsets_of_size(bigger_size) {
                        if set.is_subset_of(&sup) {
                            assert!(
                                anti_supported(&index, &sup, t),
                                "{sup} not anti-supported though {set} is"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn window_excludes_the_obvious() {
        assert!(within_chi2_window(10.0, 3.84, 100.0));
        assert!(!within_chi2_window(2.0, 3.84, 100.0)); // insignificant
        assert!(!within_chi2_window(5000.0, 3.84, 100.0)); // too obvious
        assert!(within_chi2_window(3.84, 3.84, 100.0)); // boundary inclusive below
    }

    #[test]
    fn table_window_on_real_tables() {
        use bmb_stats::Chi2Test;
        let test = Chi2Test::default();
        // Example 1's tea/coffee table scores χ² ≈ 3.70 — just *under*
        // the 95% cutoff; doubled (n = 200) it clears 3.84 with χ² ≈ 7.4
        // and sits inside a (3.84, 100) window.
        let tea_coffee =
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![5, 5, 70, 20]);
        assert!(!table_in_window(&tea_coffee, &test, 100.0));
        let moderate =
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![10, 10, 140, 40]);
        assert!(table_in_window(&moderate, &test, 100.0));
        // Perfect correlation (χ² = n): excluded as too obvious.
        let obvious =
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![500, 0, 0, 500]);
        assert!(!table_in_window(&obvious, &test, 100.0));
    }
}
