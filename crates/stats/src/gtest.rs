//! The likelihood-ratio G-test — the main alternative to Pearson's χ².
//!
//! Section 3.3 of the paper points at the χ² statistic's fragility on
//! small expectations and calls for better tests as future work. The
//! G statistic `G = 2 Σ_r O(r)·ln(O(r)/E[r])` follows the same asymptotic
//! chi-squared distribution but is derived from the likelihood ratio, is
//! additive over table partitions, and degrades differently on sparse
//! tables — a natural companion to compare against, which the ablation
//! benches do.

use bmb_basket::ContingencyTable;

use crate::chi2::{Chi2Outcome, Chi2Test};

/// The raw G statistic of a dense table.
///
/// Cells with `O(r) = 0` contribute zero (the `O·ln O` limit); cells with
/// zero expectation but positive observation cannot occur under consistent
/// marginals and are skipped defensively.
pub fn g_statistic(table: &ContingencyTable) -> f64 {
    let mut g = 0.0;
    for (cell, observed) in table.cells() {
        if observed == 0 {
            continue;
        }
        let expected = table.expected(cell);
        if expected > 0.0 {
            let o = observed as f64;
            g += o * (o / expected).ln();
        }
    }
    2.0 * g
}

/// Runs the G-test with the same configuration conventions as [`Chi2Test`]
/// (significance level, degrees of freedom; the low-expectation policy is
/// not applicable — zero-observation cells already drop out).
pub fn g_test(table: &ContingencyTable, config: &Chi2Test) -> Chi2Outcome {
    config.binary_outcome(g_statistic(table).max(0.0), table.dims(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::Itemset;

    fn table(counts: Vec<u64>) -> ContingencyTable {
        let dims = counts.len().trailing_zeros() as usize;
        ContingencyTable::from_counts(Itemset::from_ids(0..dims as u32), counts)
    }

    #[test]
    fn independent_table_scores_zero() {
        let t = table(vec![36, 24, 24, 16]);
        assert!(g_statistic(&t).abs() < 1e-9);
        assert!(!g_test(&t, &Chi2Test::default()).significant);
    }

    #[test]
    fn g_and_pearson_agree_for_moderate_deviation() {
        // For small relative deviations, G ≈ χ² (second-order Taylor).
        let t = table(vec![380, 220, 215, 185]);
        let g = g_statistic(&t);
        let pearson = crate::chi2::chi2_statistic(&t);
        assert!(pearson > 1.0, "need a non-trivial deviation, got {pearson}");
        assert!(
            (g - pearson).abs() / pearson < 0.05,
            "G = {g} vs chi2 = {pearson}"
        );
    }

    #[test]
    fn g_diverges_from_pearson_on_extreme_tables() {
        // Strong dependence: the two statistics measure differently, but
        // both must be decisively significant.
        let t = table(vec![500, 10, 10, 480]);
        let g = g_test(&t, &Chi2Test::default());
        let pearson = Chi2Test::default().test_dense(&t);
        assert!(g.significant && pearson.significant);
        assert!(g.statistic > 100.0);
        assert!((g.statistic - pearson.statistic).abs() > 1.0);
    }

    #[test]
    fn empty_cells_contribute_nothing() {
        // Perfect exclusion: O(ab) = 0, still finite and significant.
        let t = table(vec![40, 30, 30, 0]);
        let g = g_test(&t, &Chi2Test::default());
        assert!(g.statistic.is_finite());
        assert!(g.significant);
    }

    #[test]
    fn tea_coffee_verdict_matches_pearson() {
        // Example 1's borderline table: both tests agree it misses 3.84.
        let t = table(vec![5, 5, 70, 20]);
        let g = g_test(&t, &Chi2Test::default());
        assert!(!g.significant, "G = {}", g.statistic);
        // And at double the sample both clear it.
        let t2 = table(vec![10, 10, 140, 40]);
        assert!(g_test(&t2, &Chi2Test::default()).significant);
    }

    #[test]
    fn g_is_upward_closed_on_data_like_chi2() {
        // Spot-check Theorem 1's closure behaviour for G on real data.
        let db = bmb_basket::BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1],
                vec![0, 1, 2],
                vec![0],
                vec![1],
                vec![2],
                vec![],
                vec![0, 2],
                vec![1, 2],
            ],
        );
        let pair = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        let triple = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1, 2]));
        assert!(g_statistic(&triple) >= g_statistic(&pair) - 1e-9);
    }
}
