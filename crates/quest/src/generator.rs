//! Transaction assembly: the Quest generator's main loop.
//!
//! Each transaction draws a Poisson size, then packs in weighted patterns.
//! A chosen pattern is first *corrupted* — items are dropped while a
//! uniform draw stays below the pattern's corruption level — and then
//! added if it fits; an oversized pattern is added anyway half the time
//! and otherwise deferred to the next transaction, exactly as Agrawal &
//! Srikant describe.

use bmb_basket::{BasketDatabase, ItemId};
use bmb_sampling::poisson;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params::QuestParams;
use crate::patterns::{Pattern, PatternPool};

/// Generates a full basket database from `params`.
///
/// Deterministic given `params.seed`.
pub fn generate(params: &QuestParams) -> BasketDatabase {
    params.validate();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let pool = PatternPool::generate(params, &mut rng);
    let mut db = BasketDatabase::new(params.n_items);
    // A pattern pushed out of a full transaction moves to the next one.
    let mut deferred: Option<Vec<ItemId>> = None;
    for _ in 0..params.n_transactions {
        let target = poisson(&mut rng, params.avg_transaction_len) as usize;
        let mut basket: Vec<ItemId> = Vec::with_capacity(target + 4);
        while basket.len() < target {
            let corrupted = match deferred.take() {
                Some(items) => items,
                None => corrupt(pool.sample(&mut rng), &mut rng),
            };
            if corrupted.is_empty() {
                continue;
            }
            if basket.len() + corrupted.len() <= target {
                basket.extend_from_slice(&corrupted);
            } else if rng.gen_bool(0.5) {
                // "If the itemset does not fit ... it is added to the
                // transaction anyway in half the cases."
                basket.extend_from_slice(&corrupted);
                break;
            } else {
                deferred = Some(corrupted);
                break;
            }
        }
        db.push_basket(basket);
    }
    db
}

/// Drops items from a pattern: each drop happens while a uniform draw is
/// below the pattern's corruption level.
fn corrupt<R: Rng + ?Sized>(pattern: &Pattern, rng: &mut R) -> Vec<ItemId> {
    let mut items = pattern.items.clone();
    while !items.is_empty() && rng.gen_range(0.0..1.0) < pattern.corruption {
        let victim = rng.gen_range(0..items.len());
        items.swap_remove(victim);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> QuestParams {
        QuestParams {
            n_transactions: 4000,
            n_items: 200,
            avg_transaction_len: 10.0,
            avg_pattern_len: 4.0,
            n_patterns: 50,
            seed: 2024,
            ..Default::default()
        }
    }

    #[test]
    fn database_shape() {
        let params = small_params();
        let db = generate(&params);
        assert_eq!(db.len(), 4000);
        assert_eq!(db.n_items(), 200);
        // Mean basket size lands near |T| (corruption trims, the
        // half-the-time overshoot adds back).
        let mean = db.mean_basket_len();
        assert!(
            (mean - 10.0).abs() < 1.5,
            "mean basket length {mean} too far from |T| = 10"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let params = small_params();
        let a = generate(&params);
        let b = generate(&params);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.basket(i), b.basket(i), "basket {i} differs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_params());
        let b = generate(&QuestParams {
            seed: 9,
            ..small_params()
        });
        let same = (0..a.len()).all(|i| a.basket(i) == b.basket(i));
        assert!(!same);
    }

    #[test]
    fn planted_patterns_are_frequent() {
        // The heaviest patterns should co-occur far more often than chance:
        // compare the support of a heavy pattern's pair against the product
        // of its item frequencies.
        let params = small_params();
        let db = generate(&params);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let pool = PatternPool::generate(&params, &mut rng);
        let index = bmb_basket::BitmapIndex::build(&db);
        let n = db.len() as f64;
        let heavy = pool
            .patterns()
            .iter()
            .filter(|p| p.items.len() >= 2)
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())
            .expect("some pattern has >= 2 items");
        let pair = [heavy.items[0], heavy.items[1]];
        let joint = index.support_count(&pair) as f64 / n;
        let expected = (db.item_frequency(pair[0])) * (db.item_frequency(pair[1]));
        assert!(
            joint > expected * 2.0,
            "pattern pair not correlated: joint {joint:.5} vs independent {expected:.5}"
        );
    }

    #[test]
    fn all_items_in_range_and_sorted() {
        let db = generate(&small_params());
        for basket in db.baskets() {
            assert!(basket.windows(2).all(|w| w[0] < w[1]));
            assert!(basket.iter().all(|i| i.index() < 200));
        }
    }

    #[test]
    fn zero_transactions() {
        let db = generate(&QuestParams {
            n_transactions: 0,
            ..small_params()
        });
        assert!(db.is_empty());
    }
}
