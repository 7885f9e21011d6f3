//! Integration tests reproducing every worked example of the paper
//! end-to-end through the public API.

use beyond_market_baskets::prelude::*;
use beyond_market_baskets::{apriori as sc, datasets, stats};
use bmb_basket::ContingencyTable;

/// Example 1: tea ⇒ coffee has 20% support and 80% confidence, yet the
/// dependence ratio is 0.89 — negative correlation.
#[test]
fn example_1_tea_coffee() {
    let db = datasets::tea_coffee();
    let catalog = db.catalog().unwrap();
    let tea = Itemset::singleton(catalog.get("tea").unwrap());
    let coffee = Itemset::singleton(catalog.get("coffee").unwrap());
    let index = bmb_basket::BitmapIndex::build(&db);
    let rule = sc::evaluate_rule(&index, &tea, &coffee).unwrap();
    assert!((rule.support - 0.20).abs() < 1e-12);
    assert!((rule.confidence - 0.80).abs() < 1e-12);
    assert!((rule.lift - 0.888_888_888).abs() < 1e-6);
}

/// Example 2: confidence is not upward closed.
#[test]
fn example_2_confidence_non_closure() {
    let db = datasets::doughnuts();
    let catalog = db.catalog().unwrap();
    let c = Itemset::singleton(catalog.get("coffee").unwrap());
    let t = Itemset::singleton(catalog.get("tea").unwrap());
    let d = Itemset::singleton(catalog.get("doughnut").unwrap());
    let index = bmb_basket::BitmapIndex::build(&db);
    let small = sc::evaluate_rule(&index, &c, &d).unwrap().confidence;
    let large = sc::evaluate_rule(&index, &c.union(&t), &d)
        .unwrap()
        .confidence;
    assert!(
        small >= 0.5,
        "c => d should clear the 0.5 cutoff, got {small}"
    );
    assert!(large < 0.5, "c,t => d should fail the cutoff, got {large}");
}

/// Example 3: the 9-basket sample gives χ²(i8, i9) = 0.900, insignificant.
#[test]
fn example_3_sample_chi2() {
    let db = datasets::paper_sample();
    let table = ContingencyTable::from_database(&db, &Itemset::from_ids([8, 9]));
    let outcome = Chi2Test::default().test_dense(&table);
    assert!((outcome.statistic - 0.900).abs() < 5e-4);
    assert!(!outcome.significant);
}

/// Example 4: military service vs age on the full census — χ² ≈ 2006,
/// dominant cell = veteran ∧ over 40, and the support-confidence framework
/// passes exactly four directional rules.
#[test]
fn example_4_military_vs_age() {
    let db = datasets::generate_census();
    let table = ContingencyTable::from_database(&db, &Itemset::from_ids([2, 7]));
    let outcome = Chi2Test::default().test_dense(&table);
    assert!(outcome.significant);
    assert!((outcome.statistic - 2006.34).abs() < 80.0);
    let report = sc::PairReport::from_database(&db, ItemId(2), ItemId(7));
    let passing = report.passing_rules(0.01, 0.5);
    assert_eq!(passing.len(), 4, "paper: exactly half of the 8 rules pass");
    // Ranking the passing rules by their cell support puts the
    // chi-squared-dominant one (veteran ∧ over-40 = both items absent) last.
    let dominant = sc::PairRule::NotAToNotB;
    assert!(passing.contains(&dominant));
    let min_support_rule = passing
        .iter()
        .min_by(|x, y| {
            report
                .cell_support(x.cell())
                .partial_cmp(&report.cell_support(y.cell()))
                .unwrap()
        })
        .unwrap();
    assert_eq!(*min_support_rule, dominant);
}

/// Example 5: the interest values of the (i2, i7) table point at the same
/// dominant cell as the χ² contributions.
#[test]
fn example_5_interest_agrees_with_chi2() {
    let db = datasets::generate_census();
    let table = ContingencyTable::from_database(&db, &Itemset::from_ids([2, 7]));
    let report = InterestReport::analyze(&table);
    let major = report.major_dependence();
    let extreme = report.most_extreme();
    assert_eq!(
        major.cell, extreme.cell,
        "paper: the most extreme interest contributes most"
    );
    assert_eq!(major.cell, 0b00);
    assert!(
        major.interest > 1.5,
        "positive dependence, paper prints 1.99"
    );
}

/// Theorem 1, empirically: chi-squared at a fixed significance level is
/// upward closed on real data (the census), so every superset of a
/// significant pair is significant.
#[test]
fn theorem_1_upward_closure_on_census() {
    let db = datasets::generate_census();
    let test = Chi2Test::default();
    for a in 0..10u32 {
        for b in a + 1..10 {
            let pair = Itemset::from_ids([a, b]);
            let pair_stat = test
                .test_dense(&ContingencyTable::from_database(&db, &pair))
                .statistic;
            for c in 0..10u32 {
                if c == a || c == b {
                    continue;
                }
                let triple = pair.with_item(ItemId(c));
                let triple_stat = test
                    .test_dense(&ContingencyTable::from_database(&db, &triple))
                    .statistic;
                assert!(
                    triple_stat >= pair_stat - 1e-6,
                    "closure violated: chi2({triple}) = {triple_stat} < chi2({pair}) = {pair_stat}"
                );
            }
        }
    }
}

/// The limitations section (3.3): the census tables are comfortable, but a
/// high-dimensional table over the same data fails Moore's rules.
#[test]
fn section_3_3_validity_limits() {
    let db = datasets::generate_census();
    let pair_table = ContingencyTable::from_database(&db, &Itemset::from_ids([2, 7]));
    assert!(stats::check_dense(&pair_table, stats::ValidityRule::default()).is_valid());
    let wide = Itemset::from_ids(0..10);
    let wide_table = ContingencyTable::from_database(&db, &wide);
    assert!(
        !stats::check_dense(&wide_table, stats::ValidityRule::default()).is_valid(),
        "a 1024-cell table over n = 30,370 cannot satisfy Moore's rules"
    );
}
