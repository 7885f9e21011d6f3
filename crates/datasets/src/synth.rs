//! Small synthetic datasets: the paper's worked examples plus generic
//! generators for tests and benches.

use bmb_basket::{BasketDatabase, ItemId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Example 1's grocery data: 100 baskets over {tea = 0, coffee = 1} with
/// cells t∧c = 20, t∧c̄ = 5, t̄∧c = 70, t̄∧c̄ = 5 (in percent = counts).
///
/// The rule `tea ⇒ coffee` has support 20% and confidence 80%, yet tea and
/// coffee are *negatively* correlated (dependence 0.89).
pub fn tea_coffee() -> BasketDatabase {
    let mut baskets = Vec::with_capacity(100);
    for _ in 0..20 {
        baskets.push(vec!["tea", "coffee"]);
    }
    for _ in 0..5 {
        baskets.push(vec!["tea"]);
    }
    for _ in 0..70 {
        baskets.push(vec!["coffee"]);
    }
    for _ in 0..5 {
        baskets.push(vec![]);
    }
    BasketDatabase::from_named_baskets(baskets)
}

/// Example 2's data: coffee, tea, doughnuts with `P[c] = 93`, `P[c∧d] = 48`,
/// `P[t∧c] = 18`, `P[t∧c∧d] = 8` — the confidence non-closure example
/// (`c ⇒ d` confident, `c,t ⇒ d` not).
pub fn doughnuts() -> BasketDatabase {
    let cells: [(&[&str], usize); 7] = [
        (&["coffee", "tea", "doughnut"], 8),
        (&["tea", "doughnut"], 2),
        (&["coffee", "doughnut"], 40),
        (&["doughnut"], 10),
        (&["coffee", "tea"], 10),
        (&["tea"], 5),
        (&["coffee"], 35),
    ];
    let mut baskets: Vec<Vec<&str>> = Vec::new();
    for (items, count) in cells {
        for _ in 0..count {
            baskets.push(items.to_vec());
        }
    }
    BasketDatabase::from_named_baskets(baskets)
}

/// Fully independent items: each of `k` items appears in each of `n`
/// baskets with probability `p`, independently. The null model — a
/// correctly calibrated miner should flag ≈ α of itemsets as correlated.
pub fn independent(n: usize, k: usize, p: f64, seed: u64) -> BasketDatabase {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = BasketDatabase::new(k);
    for _ in 0..n {
        db.push_basket((0..k as u32).filter(|_| rng.gen_bool(p)).map(ItemId));
    }
    db
}

/// Items 0 and 1 planted to co-occur: item 0 appears with probability `p`,
/// item 1 copies item 0 with probability `copy` (else independent at `p`).
/// Remaining items are independent noise at `p`.
pub fn planted_pair(n: usize, k: usize, p: f64, copy: f64, seed: u64) -> BasketDatabase {
    assert!(k >= 2, "need at least the two planted items");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = BasketDatabase::new(k);
    for _ in 0..n {
        let mut basket: Vec<ItemId> = Vec::new();
        let zero = rng.gen_bool(p);
        if zero {
            basket.push(ItemId(0));
        }
        let one = if rng.gen_bool(copy) {
            zero
        } else {
            rng.gen_bool(p)
        };
        if one {
            basket.push(ItemId(1));
        }
        for i in 2..k as u32 {
            if rng.gen_bool(p) {
                basket.push(ItemId(i));
            }
        }
        db.push_basket(basket);
    }
    db
}

/// The parity construction over items {0, 1, 2}: items 0 and 1 take each
/// of the four presence combinations in strict rotation; item 2 appears iff
/// they agree. Every pair is exactly independent; the triple is maximally
/// 3-way dependent. Items `3..k` are empty noise columns.
///
/// This is the canonical "minimal correlated itemset at level 3" — the
/// miner must *not* report any pair, and must report `{0,1,2}`.
pub fn parity_triple(n: usize, k: usize) -> BasketDatabase {
    assert!(k >= 3, "need at least the three parity items");
    let mut db = BasketDatabase::new(k);
    for row in 0..n {
        let combo = row % 4;
        let (x, y) = (combo & 1 == 1, combo & 2 == 2);
        let mut basket: Vec<ItemId> = Vec::new();
        if x {
            basket.push(ItemId(0));
        }
        if y {
            basket.push(ItemId(1));
        }
        if x == y {
            basket.push(ItemId(2));
        }
        db.push_basket(basket);
    }
    db
}

/// An anti-correlated pair: items 0 and 1 (almost) never co-occur though
/// both are common — the "batteries and cat food" negative-implication
/// example from the paper's introduction.
pub fn negative_pair(n: usize, p: f64, seed: u64) -> BasketDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = BasketDatabase::new(2);
    for _ in 0..n {
        // Choose one of the two with probability p each, never both.
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < p {
            db.push_basket([ItemId(0)]);
        } else if roll < 2.0 * p {
            db.push_basket([ItemId(1)]);
        } else {
            db.push_basket([]);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::{ContingencyTable, Itemset};
    use bmb_stats::{dependence_ratio, Chi2Test};

    #[test]
    fn tea_coffee_matches_example_1() {
        let db = tea_coffee();
        assert_eq!(db.len(), 100);
        let tea = db.catalog().unwrap().get("tea").unwrap();
        let coffee = db.catalog().unwrap().get("coffee").unwrap();
        assert_eq!(db.item_count(tea), 25);
        assert_eq!(db.item_count(coffee), 90);
        let index = bmb_basket::BitmapIndex::build(&db);
        let both = index.support_count(&[tea, coffee]);
        assert_eq!(both, 20);
        let dep = dependence_ratio(100, 25, 90, 20).unwrap();
        assert!((dep - 0.888_888).abs() < 1e-5);
    }

    #[test]
    fn doughnuts_matches_example_2() {
        let db = doughnuts();
        let c = db.catalog().unwrap().get("coffee").unwrap();
        let d = db.catalog().unwrap().get("doughnut").unwrap();
        let t = db.catalog().unwrap().get("tea").unwrap();
        let index = bmb_basket::BitmapIndex::build(&db);
        assert_eq!(index.support_count(&[c]), 93);
        assert_eq!(index.support_count(&[c, d]), 48);
        assert_eq!(index.support_count(&[t, c]), 18);
        assert_eq!(index.support_count(&[t, c, d]), 8);
    }

    #[test]
    fn independent_data_rarely_correlates() {
        let db = independent(5000, 8, 0.3, 42);
        let test = Chi2Test::default();
        let mut significant = 0usize;
        let mut total = 0usize;
        for a in 0..8u32 {
            for b in a + 1..8 {
                let table = ContingencyTable::from_database(&db, &Itemset::from_ids([a, b]));
                if test.test_dense(&table).significant {
                    significant += 1;
                }
                total += 1;
            }
        }
        // 28 pairs at α = 0.95: expect ≈ 1.4 false positives; allow a few.
        assert!(
            significant <= 5,
            "{significant}/{total} pairs significant on independent data"
        );
    }

    #[test]
    fn planted_pair_is_detected() {
        let db = planted_pair(2000, 5, 0.3, 0.8, 7);
        let test = Chi2Test::default();
        let planted = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        assert!(test.test_dense(&planted).statistic > 100.0);
        let noise = ContingencyTable::from_database(&db, &Itemset::from_ids([2, 3]));
        assert!(!test.test_dense(&noise).significant);
    }

    #[test]
    fn parity_triple_structure() {
        let db = parity_triple(400, 4);
        let test = Chi2Test::default();
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2)] {
            let table = ContingencyTable::from_database(&db, &Itemset::from_ids([a, b]));
            let stat = test.test_dense(&table).statistic;
            assert!(stat < 1e-9, "pair ({a},{b}) has χ² = {stat}, expected 0");
        }
        let triple = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1, 2]));
        let outcome = test.test_dense(&triple);
        assert!(
            (outcome.statistic - 400.0).abs() < 1e-6,
            "χ² = {}",
            outcome.statistic
        );
        assert!(outcome.significant);
    }

    #[test]
    fn negative_pair_never_co_occurs() {
        let db = negative_pair(1000, 0.4, 3);
        let index = bmb_basket::BitmapIndex::build(&db);
        assert_eq!(index.support_count(&[ItemId(0), ItemId(1)]), 0);
        let table = ContingencyTable::from_database(&db, &Itemset::from_ids([0, 1]));
        let outcome = Chi2Test::default().test_dense(&table);
        assert!(
            outcome.significant,
            "strong negative correlation must be flagged"
        );
        let report = bmb_stats::InterestReport::analyze(&table);
        assert_eq!(
            report.interest(0b11),
            0.0,
            "co-occurrence cell is impossible"
        );
    }
}
