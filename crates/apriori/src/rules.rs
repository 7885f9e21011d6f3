//! Association-rule generation: the confidence half of support–confidence.
//!
//! A rule `A ⇒ B` (disjoint itemsets) holds at support `s` and confidence
//! `c` when `O(A ∪ B)/n >= s` and `O(A ∪ B)/O(A) >= c` (Section 1.1 of the
//! paper). Confidence is *not* upward closed — the paper's Example 2
//! exhibits `c ⇒ d` with confidence 0.52 whose superset rule `c,t ⇒ d` has
//! only 0.44 — so rule discovery is a post-processing step over the
//! frequent itemsets, exactly as the paper describes.

use bmb_basket::{BitmapIndex, Itemset};

use crate::apriori::AprioriResult;

/// An association rule `antecedent ⇒ consequent` with its statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Left-hand side `A`.
    pub antecedent: Itemset,
    /// Right-hand side `B`, disjoint from `A`.
    pub consequent: Itemset,
    /// `O(A ∪ B)/n`.
    pub support: f64,
    /// `O(A ∪ B)/O(A)` — the estimated conditional probability `P[B|A]`.
    pub confidence: f64,
    /// `P[A ∧ B]/(P[A]·P[B])` — the dependence ratio of the paper's
    /// Example 1 (known elsewhere as lift). 1 means independent.
    pub lift: f64,
}

/// Generates all rules meeting `min_confidence` from the frequent itemsets
/// of an Apriori run.
///
/// Every frequent itemset of size >= 2 is split into every non-trivial
/// (antecedent, consequent) partition. Rule support equals the itemset's
/// support and so already meets the mining threshold.
pub fn generate_rules(result: &AprioriResult, n: u64, min_confidence: f64) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence out of range"
    );
    let mut rules = Vec::new();
    for f in &result.frequent {
        if f.itemset.len() < 2 {
            continue;
        }
        let whole_count = f.count;
        // Every proper non-empty subset is a potential antecedent.
        let items = f.itemset.clone();
        for size in 1..items.len() {
            for antecedent in items.subsets_of_size(size) {
                let Some(antecedent_count) = result.support_of(&antecedent) else {
                    // Downward closure guarantees presence; defensive skip.
                    continue;
                };
                let consequent = Itemset::from_items(
                    items
                        .items()
                        .iter()
                        .copied()
                        .filter(|i| !antecedent.contains(*i)),
                );
                let confidence = whole_count as f64 / antecedent_count as f64;
                if confidence + 1e-12 < min_confidence {
                    continue;
                }
                let consequent_count = result.support_of(&consequent).unwrap_or(0);
                let lift = if consequent_count == 0 || n == 0 {
                    f64::NAN
                } else {
                    (whole_count as f64 * n as f64)
                        / (antecedent_count as f64 * consequent_count as f64)
                };
                rules.push(Rule {
                    antecedent,
                    consequent,
                    support: whole_count as f64 / n as f64,
                    confidence,
                    lift,
                });
            }
        }
    }
    rules.sort_unstable_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules
}

/// Evaluates a single candidate rule directly against a bitmap index,
/// without a prior mining run — used by examples and tests that probe
/// specific rules (like the paper's Example 2).
pub fn evaluate_rule(
    index: &BitmapIndex,
    antecedent: &Itemset,
    consequent: &Itemset,
) -> Option<Rule> {
    if antecedent.is_empty() || consequent.is_empty() {
        return None;
    }
    if !antecedent.intersection(consequent).is_empty() {
        return None;
    }
    let n = index.n_baskets() as u64;
    let whole = antecedent.union(consequent);
    let whole_count = index.support_count(whole.items());
    let antecedent_count = index.support_count(antecedent.items());
    let consequent_count = index.support_count(consequent.items());
    if n == 0 || antecedent_count == 0 {
        return None;
    }
    let lift = if consequent_count == 0 {
        f64::NAN
    } else {
        (whole_count as f64 * n as f64) / (antecedent_count as f64 * consequent_count as f64)
    };
    Some(Rule {
        antecedent: antecedent.clone(),
        consequent: consequent.clone(),
        support: whole_count as f64 / n as f64,
        confidence: whole_count as f64 / antecedent_count as f64,
        lift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, MinSupport};
    use bmb_basket::BasketDatabase;

    /// The paper's Example 2 database: coffee, tea, doughnuts arranged so
    /// the published marginals hold exactly — P[c∧d] = 48, P[c] = 93,
    /// P[t∧c] = 18, P[t∧c∧d] = 8 (in percent-of-100 units; the cells below
    /// realize them as absolute counts).
    fn example2_db() -> BasketDatabase {
        // items: 0 = coffee, 1 = tea, 2 = doughnut
        let mut baskets = Vec::new();
        let mut push = |items: &[u32], count: usize| {
            for _ in 0..count {
                baskets.push(items.to_vec());
            }
        };
        push(&[0, 1, 2], 8);
        push(&[1, 2], 2);
        push(&[0, 2], 40);
        push(&[2], 10);
        push(&[0, 1], 10);
        push(&[1], 5);
        push(&[0], 35);
        push(&[], 0);
        BasketDatabase::from_id_baskets(3, baskets)
    }

    #[test]
    fn paper_example_2_confidence_is_not_upward_closed() {
        let db = example2_db();
        let index = BitmapIndex::build(&db);
        let coffee = Itemset::from_ids([0]);
        let tea_coffee = Itemset::from_ids([0, 1]);
        let doughnut = Itemset::from_ids([2]);
        let c_to_d = evaluate_rule(&index, &coffee, &doughnut).unwrap();
        let ct_to_d = evaluate_rule(&index, &tea_coffee, &doughnut).unwrap();
        // P[c∧d] = 48, P[c] = 93 ⇒ conf 0.516; P[t∧c∧d] = 8, P[t∧c] = 18 ⇒ 0.444.
        assert!((c_to_d.confidence - 48.0 / 93.0).abs() < 1e-12);
        assert!((ct_to_d.confidence - 8.0 / 18.0).abs() < 1e-12);
        // The headline: c ⇒ d clears a 0.50 cutoff, its superset rule fails it.
        assert!(c_to_d.confidence >= 0.5);
        assert!(ct_to_d.confidence < 0.5);
    }

    fn toy_db() -> BasketDatabase {
        BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1],
                vec![0, 1],
                vec![0, 1],
                vec![0],
                vec![1],
                vec![2],
                vec![0, 2],
            ],
        )
    }

    #[test]
    fn generated_rules_meet_cutoff_and_match_direct_evaluation() {
        let db = toy_db();
        let result = apriori(&db, MinSupport::Count(2), usize::MAX);
        let rules = generate_rules(&result, db.len() as u64, 0.5);
        assert!(!rules.is_empty());
        let index = BitmapIndex::build(&db);
        for rule in &rules {
            assert!(rule.confidence >= 0.5 - 1e-12);
            let direct = evaluate_rule(&index, &rule.antecedent, &rule.consequent).unwrap();
            assert!((direct.confidence - rule.confidence).abs() < 1e-12);
            assert!((direct.support - rule.support).abs() < 1e-12);
            assert!((direct.lift - rule.lift).abs() < 1e-12);
        }
    }

    #[test]
    fn rules_are_sorted_by_confidence() {
        let db = toy_db();
        let result = apriori(&db, MinSupport::Count(1), usize::MAX);
        let rules = generate_rules(&result, db.len() as u64, 0.0);
        for w in rules.windows(2) {
            assert!(w[0].confidence >= w[1].confidence - 1e-12);
        }
    }

    #[test]
    fn lift_reads_dependence_direction() {
        // 0 and 1 co-occur 3/7 ≈ 0.43 vs independence (4/7)(4/7) ≈ 0.33 — lift > 1.
        let db = toy_db();
        let index = BitmapIndex::build(&db);
        let rule = evaluate_rule(&index, &Itemset::from_ids([0]), &Itemset::from_ids([1])).unwrap();
        assert!(rule.lift > 1.0);
        // 1 and 2 never co-occur — lift 0.
        let rule = evaluate_rule(&index, &Itemset::from_ids([1]), &Itemset::from_ids([2])).unwrap();
        assert_eq!(rule.lift, 0.0);
    }

    #[test]
    fn overlapping_sides_are_rejected() {
        let db = toy_db();
        let index = BitmapIndex::build(&db);
        assert!(
            evaluate_rule(&index, &Itemset::from_ids([0, 1]), &Itemset::from_ids([1])).is_none()
        );
        assert!(evaluate_rule(&index, &Itemset::empty(), &Itemset::from_ids([1])).is_none());
    }
}
