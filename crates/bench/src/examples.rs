//! Examples 1–3: the worked examples of Sections 1–3.

use bmb_apriori::evaluate_rule;
use bmb_basket::{BitmapIndex, ContingencyTable, Itemset};
use bmb_datasets::{doughnuts, paper_sample, tea_coffee};
use bmb_stats::{dependence_ratio, Chi2Test};

use crate::table::{num, TextTable};

/// Example 1: tea ⇒ coffee looks good under support-confidence but the
/// items are negatively correlated.
pub fn example1() -> String {
    let db = tea_coffee();
    let catalog = db.catalog().expect("named items");
    let tea = catalog.get("tea").unwrap();
    let coffee = catalog.get("coffee").unwrap();
    let index = BitmapIndex::build(&db);
    let rule = evaluate_rule(
        &index,
        &Itemset::singleton(tea),
        &Itemset::singleton(coffee),
    )
    .unwrap();
    let dep = dependence_ratio(
        db.len() as u64,
        db.item_count(tea),
        db.item_count(coffee),
        index.support_count(&[tea, coffee]),
    )
    .unwrap();
    let mut t = TextTable::new(["", "c", "!c", "row"]);
    t.row(["t", "20", "5", "25"]);
    t.row(["!t", "70", "5", "75"]);
    t.row(["col", "90", "10", "100"]);
    format!(
        "Example 1 — tea and coffee (percentages of n = 100 baskets)\n\n{}\n\
         support(t => c)    = {:.0}%   (paper: 20%, \"fairly high\")\n\
         confidence(t => c) = {:.0}%   (paper: 80%, \"pretty high\")\n\
         P[t ∧ c]/(P[t]·P[c]) = {:.2}  (paper: 0.89 — less than 1: negative correlation)\n",
        t.render(),
        rule.support * 100.0,
        rule.confidence * 100.0,
        dep,
    )
}

/// Example 2: confidence is not upward closed.
pub fn example2() -> String {
    let db = doughnuts();
    let catalog = db.catalog().expect("named items");
    let c = Itemset::singleton(catalog.get("coffee").unwrap());
    let t = Itemset::singleton(catalog.get("tea").unwrap());
    let d = Itemset::singleton(catalog.get("doughnut").unwrap());
    let index = BitmapIndex::build(&db);
    let c_to_d = evaluate_rule(&index, &c, &d).unwrap();
    let ct_to_d = evaluate_rule(&index, &c.union(&t), &d).unwrap();
    format!(
        "Example 2 — confidence forms no border\n\n\
         confidence(c => d)    = {:.2}  (paper: 0.52)\n\
         confidence(c, t => d) = {:.2}  (paper: 0.44)\n\
         At a cutoff of 0.50, c => d passes but its superset rule fails:\n\
         confidence is not upward closed, so it cannot drive border search.\n",
        c_to_d.confidence, ct_to_d.confidence,
    )
}

/// Example 3: the 9-basket sample's (i8, i9) table and its χ² of 0.900.
pub fn example3() -> String {
    let db = paper_sample();
    let set = Itemset::from_ids([8, 9]);
    let table = ContingencyTable::from_database(&db, &set);
    let outcome = Chi2Test::default().test_dense(&table);
    let mut t = TextTable::new(["", "i8", "!i8", "row"]);
    t.row([
        "i9".to_string(),
        table.observed(0b11).to_string(),
        table.observed(0b10).to_string(),
        (table.observed(0b11) + table.observed(0b10)).to_string(),
    ]);
    t.row([
        "!i9".to_string(),
        table.observed(0b01).to_string(),
        table.observed(0b00).to_string(),
        (table.observed(0b01) + table.observed(0b00)).to_string(),
    ]);
    format!(
        "Example 3 — (i8, i9) over the 9-basket census sample\n\n{}\n\
         chi-squared = {}  (paper: 0.900 = 0.267 + 0.333 + 0.133 + 0.167)\n\
         cutoff at 95% = {:.2}; reject independence: {}\n\
         (0.900 < 3.84, so the independence assumption stands)\n",
        t.render(),
        num(outcome.statistic, 3),
        outcome.cutoff,
        outcome.significant,
    )
}

/// All three worked examples.
pub fn all() -> String {
    format!("{}\n{}\n{}", example1(), example2(), example3())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_reports_the_paradox() {
        let e = example1();
        assert!(e.contains("support(t => c)    = 20%"));
        assert!(e.contains("confidence(t => c) = 80%"));
        assert!(e.contains("= 0.89"));
    }

    #[test]
    fn example2_reports_non_closure() {
        let e = example2();
        assert!(e.contains("= 0.52"));
        assert!(e.contains("= 0.44"));
    }

    #[test]
    fn example3_reports_0_900() {
        let e = example3();
        assert!(e.contains("chi-squared = 0.900"), "{e}");
        assert!(e.contains("reject independence: false"));
    }
}
