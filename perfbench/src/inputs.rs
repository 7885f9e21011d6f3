//! Seeded workload inputs. The program under test only ever receives
//! what these functions generate; the same seed gives the same inputs.

use bmb_basket::{BasketDatabase, ItemId};
use bmb_quest::QuestParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Quest database shaped like the paper's Table 5 (Zipf item skew,
/// planted patterns), at a given size.
pub fn quest(seed: u64, baskets: usize, items: usize, avg_len: f64) -> BasketDatabase {
    bmb_quest::generate(&QuestParams {
        n_transactions: baskets,
        n_items: items,
        avg_transaction_len: avg_len,
        avg_pattern_len: 4.0,
        n_patterns: 2000,
        item_zipf_exponent: 1.3,
        seed,
        ..QuestParams::default()
    })
}

/// The baskets of `db` as id vectors.
pub fn basket_ids(db: &BasketDatabase) -> Vec<Vec<u32>> {
    db.baskets()
        .map(|b| b.iter().map(|i| i.0).collect())
        .collect()
}

/// Items sorted by descending support (ties by id).
pub fn items_by_support(db: &BasketDatabase) -> Vec<u32> {
    let mut items: Vec<u32> = (0..db.n_items() as u32).collect();
    items.sort_by_key(|&i| (std::cmp::Reverse(db.item_count(ItemId(i))), i));
    items
}

/// `n` distinct itemsets over the `top` most supported items, sorted
/// each, in popularity-rank order. Every fourth rank is a triple and
/// the rest are pairs, so the cost mix by popularity is the same for
/// every seed; only the items differ.
pub fn hot_set(rng: &mut StdRng, db: &BasketDatabase, n: usize, top: usize) -> Vec<Vec<u32>> {
    let frequent = items_by_support(db);
    let top = top.min(frequent.len());
    let mut seen = std::collections::BTreeSet::new();
    let mut sets = Vec::with_capacity(n);
    while sets.len() < n {
        let width = if sets.len() % 4 == 3 { 3 } else { 2 };
        let mut set: Vec<u32> = Vec::with_capacity(width);
        while set.len() < width {
            let item = frequent[rng.gen_range(0..top)];
            if !set.contains(&item) {
                set.push(item);
            }
        }
        set.sort_unstable();
        if seen.insert(set.clone()) {
            sets.push(set);
        }
    }
    sets
}

/// A JSON array of ids.
pub fn ids_json(ids: &[u32]) -> String {
    let parts: Vec<String> = ids.iter().map(u32::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// A JSON array of baskets.
pub fn baskets_json(baskets: &[Vec<u32>]) -> String {
    let parts: Vec<String> = baskets.iter().map(|b| ids_json(b)).collect();
    format!("[{}]", parts.join(","))
}

/// The seed of the `k`-th independent draw under `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 31;
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A seeded generator for one workload's inputs.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
