//! The census microdata simulator (substitute for the paper's 1990 census
//! extract).
//!
//! Pipeline: the published pairwise supports
//! ([`crate::census::targets`]) feed an IPF fit ([`crate::census::ipf`]) of
//! the full 2^10 joint distribution; [`crate::census::generate`] materializes
//! it as exactly n = 30,370 baskets by largest-remainder rounding. All 45
//! pairwise contingency tables of the result match the paper's within
//! rounding, so Tables 2 and 3 and Examples 4–5 reproduce faithfully.

/// The *non-collapsed* census: multi-valued attributes.
pub mod expanded;
/// Iterative proportional fitting over a `2^k` joint distribution.
pub mod ipf;
/// The census schema of the paper's Table 1.
pub mod schema;
/// Calibration targets: the paper's published pairwise supports.
pub mod targets;

use bmb_basket::{BasketDatabase, ItemCatalog};

use ipf::{fit, IpfFit, PairConstraint};
use schema::{CENSUS_ATTRIBUTES, CENSUS_N, N_CENSUS_ITEMS};
use targets::PAIR_TARGETS;

/// Iterations used for the calibration fit (converges in well under this).
const IPF_ITERATIONS: usize = 150;

/// Runs the IPF calibration against the paper's 45 pair targets.
pub fn calibrate() -> IpfFit {
    let constraints: Vec<PairConstraint> = PAIR_TARGETS
        .iter()
        .map(|t| PairConstraint {
            a: t.a,
            b: t.b,
            cells: [
                t.percents[0] / 100.0,
                t.percents[1] / 100.0,
                t.percents[2] / 100.0,
                t.percents[3] / 100.0,
            ],
        })
        .collect();
    fit(N_CENSUS_ITEMS, &constraints, IPF_ITERATIONS, 1e-9)
}

/// Materializes a joint distribution as an integer-count database of
/// exactly `n` baskets using largest-remainder rounding, deterministically.
pub fn materialize(fit: &IpfFit, n: usize) -> BasketDatabase {
    let n_cells = fit.probabilities.len();
    let exact: Vec<f64> = fit.probabilities.iter().map(|&p| p * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|&x| x.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    debug_assert!(assigned <= n);
    // Hand the leftover baskets to the cells with the largest remainders.
    let mut by_remainder: Vec<usize> = (0..n_cells).collect();
    by_remainder.sort_by(|&x, &y| {
        let rx = exact[x] - counts[x] as f64;
        let ry = exact[y] - counts[y] as f64;
        // Remainders are finite, but `total_cmp` stays a total order
        // (and panic-free) even if one were not.
        ry.total_cmp(&rx).then(x.cmp(&y))
    });
    for &cell in by_remainder.iter().take(n - assigned) {
        counts[cell] += 1;
    }
    let mut db = BasketDatabase::new(fit.k);
    for (cell, &count) in counts.iter().enumerate() {
        let items: Vec<u32> = (0..fit.k as u32).filter(|&i| cell >> i & 1 == 1).collect();
        for _ in 0..count {
            db.push_basket(items.iter().map(|&i| bmb_basket::ItemId(i)));
        }
    }
    db.set_catalog(census_catalog());
    db
}

/// The item catalog naming `i0..i9` by their Table 1 present-values.
pub fn census_catalog() -> ItemCatalog {
    ItemCatalog::from_names(CENSUS_ATTRIBUTES.iter().map(|a| a.present))
}

/// Generates the full simulated census database: 30,370 baskets over the
/// ten Table 1 items, calibrated to the paper's published statistics.
///
/// Deterministic: the same database every call.
pub fn generate() -> BasketDatabase {
    materialize(&calibrate(), CENSUS_N)
}

/// The 9-person sample of Table 1 (reconstructed).
///
/// The OCR of Table 1's basket listing is unreadable, so the sample is
/// reconstructed from every constraint the text states: persons 1 and 5
/// share the attribute pattern spelled out in the caption
/// (`{i1, i2, i3, i5, i7, i9}` — not driving alone, male-or-few-children,
/// never served, native speaker, citizen, born in the U.S., unmarried, at
/// most 40, female, householder), and the (i8, i9) contingency table of
/// Example 3 holds exactly: O(i8) = 5, O(i9) = 3, one basket with both,
/// two with i9 only, four with i8 only, two with neither.
pub fn paper_sample() -> BasketDatabase {
    let baskets: Vec<Vec<u32>> = vec![
        vec![1, 2, 3, 5, 7, 9],    // person 1 (i9, no i8)
        vec![0, 1, 2, 3, 5, 8, 9], // person 2 (both i8 and i9)
        vec![1, 2, 3, 5, 6, 7, 8], // person 3 (i8 only)
        vec![0, 1, 2, 3, 5, 8],    // person 4 (i8 only)
        vec![1, 2, 3, 5, 7, 9],    // person 5 = person 1
        vec![1, 2, 3, 4, 7, 8],    // person 6 (i8 only)
        vec![0, 1, 3, 5, 6, 8],    // person 7 (i8 only)
        vec![1, 2, 3, 5, 6, 7],    // person 8 (neither)
        vec![0, 1, 2, 5, 7],       // person 9 (neither)
    ];
    let mut db = BasketDatabase::from_id_baskets(N_CENSUS_ITEMS, baskets);
    db.set_catalog(census_catalog());
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::{ContingencyTable, ItemId, Itemset};
    use bmb_stats::Chi2Test;

    #[test]
    fn calibration_converges_to_rounding_floor() {
        let fit = calibrate();
        // The published targets are rounded to 0.1%, so the residual cannot
        // reach zero — but it must reach the rounding floor.
        assert!(
            fit.max_residual < 2.5e-3,
            "IPF residual {} too large",
            fit.max_residual
        );
        let total: f64 = fit.probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generated_database_shape() {
        let db = generate();
        assert_eq!(db.len(), CENSUS_N);
        assert_eq!(db.n_items(), 10);
        assert_eq!(db.catalog().unwrap().len(), 10);
    }

    #[test]
    fn all_45_pairs_match_paper_significance() {
        let db = generate();
        let test = Chi2Test::default();
        for t in &PAIR_TARGETS {
            let set = Itemset::from_ids([t.a as u32, t.b as u32]);
            let table = ContingencyTable::from_database(&db, &set);
            let outcome = test.test_dense(&table);
            assert_eq!(
                outcome.significant,
                t.paper_significant(),
                "pair (i{}, i{}): χ² {:.2} vs paper {:.2}",
                t.a,
                t.b,
                outcome.statistic,
                t.paper_chi2
            );
            // Statistic within 12% + small absolute slack of the paper's.
            let tolerance = 0.12 * t.paper_chi2 + 6.0;
            assert!(
                (outcome.statistic - t.paper_chi2).abs() < tolerance,
                "pair (i{}, i{}): χ² {:.2} vs paper {:.2}",
                t.a,
                t.b,
                outcome.statistic,
                t.paper_chi2
            );
        }
    }

    #[test]
    fn example_4_military_age_reproduces() {
        // χ² for (i2, i7) is 2006.34 in the paper; the dominant dependence
        // is veteran-and-over-40 (both items absent).
        let db = generate();
        let set = Itemset::from_ids([2, 7]);
        let table = ContingencyTable::from_database(&db, &set);
        let outcome = Chi2Test::default().test_dense(&table);
        assert!(
            (outcome.statistic - 2006.34).abs() < 80.0,
            "χ² = {}",
            outcome.statistic
        );
        let report = bmb_stats::InterestReport::analyze(&table);
        assert_eq!(
            report.major_dependence().cell,
            0b00,
            "veteran ∧ over-40 must dominate"
        );
    }

    #[test]
    fn example_5_interest_values_reproduce() {
        // Paper's printed interests for (i2, i7): the veteran/over-40 cell
        // is strongly positive, 40-or-younger/veteran strongly negative
        // (0.44).
        let db = generate();
        let table = ContingencyTable::from_database(&db, &Itemset::from_ids([2, 7]));
        let report = bmb_stats::InterestReport::analyze(&table);
        // Cell (ī2, i7): veteran and young — bit0 = i2 absent, bit1 = i7 present.
        let negative = report.interest(0b10);
        assert!(
            (negative - 0.44).abs() < 0.06,
            "interest(veteran ∧ ≤40) = {negative}, paper says 0.44"
        );
        // Cell (ī2, ī7): veteran and over 40 — strongly positive.
        assert!(report.interest(0b00) > 1.5);
    }

    #[test]
    fn marginals_match_implied_targets() {
        let db = generate();
        for i in 0..10 {
            let implied = targets::implied_marginal(i);
            let got = db.item_frequency(ItemId(i as u32));
            assert!(
                (got - implied).abs() < 0.004,
                "item i{i}: marginal {got} vs implied {implied}"
            );
        }
    }

    #[test]
    fn paper_sample_satisfies_example_3() {
        let db = paper_sample();
        assert_eq!(db.len(), 9);
        assert_eq!(db.item_count(ItemId(8)), 5);
        assert_eq!(db.item_count(ItemId(9)), 3);
        let table = ContingencyTable::from_database(&db, &Itemset::from_ids([8, 9]));
        assert_eq!(table.observed(0b11), 1);
        assert_eq!(table.observed(0b10), 2); // i9 only
        assert_eq!(table.observed(0b01), 4); // i8 only
        assert_eq!(table.observed(0b00), 2);
        let outcome = Chi2Test::default().test_dense(&table);
        assert!((outcome.statistic - 0.900).abs() < 5e-4);
        assert!(!outcome.significant);
    }

    #[test]
    fn paper_sample_duplicate_persons() {
        // Persons 1 and 5 share their attributes, giving the count-2 cell
        // the Table 1 caption mentions.
        let db = paper_sample();
        assert_eq!(db.basket(0), db.basket(4));
    }

    #[test]
    fn materialize_small_n_is_exact() {
        let fit = calibrate();
        let db = materialize(&fit, 1000);
        assert_eq!(db.len(), 1000);
    }
}
