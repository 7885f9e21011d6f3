//! Parallel/serial equivalence: sweeping the worker-thread count must
//! never change a single count, verdict, or statistic. The bitmap
//! counting kernel (against a plain per-basket count) and the full miner
//! are exercised on a seeded 20k-basket Quest database (313 words per
//! item bitmap), big enough that a level is really split across threads:
//! each test first checks that its work reaches two spawns' worth of the
//! cut-offs `COUNT_WORDS_PER_SPAWN` (word-ANDs) and
//! `EVAL_CELLS_PER_SPAWN` (table cells).

use beyond_market_baskets::prelude::*;
use beyond_market_baskets::quest;
use bmb_basket::{BitmapIndex, ItemId, Itemset};
use bmb_core::counting::{count_with_bitmaps, COUNT_WORDS_PER_SPAWN, EVAL_CELLS_PER_SPAWN};

fn seeded_db() -> bmb_basket::BasketDatabase {
    let params = quest::QuestParams {
        n_transactions: 20_000,
        n_items: 90,
        avg_transaction_len: 10.0,
        avg_pattern_len: 4.0,
        n_patterns: 30,
        seed: 20260807,
        ..quest::QuestParams::default()
    };
    quest::generate(&params)
}

/// Every pair over the item universe: 90·89/2 = 4005 candidates, about
/// 1.25M word-ANDs over 20k baskets.
fn all_pairs(n_items: u32) -> Vec<Itemset> {
    let mut out = Vec::new();
    for a in 0..n_items {
        for b in a + 1..n_items {
            out.push(Itemset::from_items([ItemId(a), ItemId(b)]));
        }
    }
    out
}

#[test]
fn counting_kernels_agree_across_thread_counts() {
    let db = seeded_db();
    let index = BitmapIndex::build(&db);
    let candidates = all_pairs(db.n_items() as u32);
    assert!(
        candidates.len() * db.len().div_ceil(64) >= 2 * COUNT_WORDS_PER_SPAWN,
        "need two spawns' worth of word-ANDs to engage parallel chunking"
    );

    // Reference: each candidate tested against every basket, no index.
    let baskets: Vec<Itemset> = db
        .baskets()
        .map(|b| Itemset::from_items(b.iter().copied()))
        .collect();
    let reference: Vec<u64> = candidates
        .iter()
        .map(|c| baskets.iter().filter(|b| c.is_subset_of(b)).count() as u64)
        .collect();

    for threads in 1..=8 {
        let bitmaps = count_with_bitmaps(&index, &candidates, threads);
        assert_eq!(
            bitmaps, reference,
            "count_with_bitmaps diverged from the per-basket count at {threads} threads"
        );
    }
}

#[test]
fn miner_results_are_thread_count_invariant() {
    let db = seeded_db();
    let config = |threads: usize| MinerConfig {
        support: SupportSpec::Fraction(0.01),
        threads,
        ..MinerConfig::default()
    };

    let baseline = mine(&db, &config(1));
    // A real split: some level's counting and some level's evaluation
    // each carry at least two spawns' worth of work.
    let words = db.len().div_ceil(64);
    assert!(
        baseline
            .levels
            .iter()
            .any(|l| l.candidates * words * (l.level - 1) >= 2 * COUNT_WORDS_PER_SPAWN),
        "no level's counting crosses the split cut-off"
    );
    assert!(
        baseline
            .levels
            .iter()
            .any(|l| l.candidates << l.level >= 2 * EVAL_CELLS_PER_SPAWN),
        "no level's evaluation crosses the split cut-off"
    );
    assert!(
        !baseline.significant.is_empty(),
        "seeded database must yield significant sets"
    );
    for threads in 2..=8 {
        let run = mine(&db, &config(threads));
        assert_eq!(
            run.levels, baseline.levels,
            "per-level accounting diverged at {threads} threads"
        );
        let sets = |r: &MiningResult| {
            r.significant
                .iter()
                .map(|s| s.itemset.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sets(&run),
            sets(&baseline),
            "significant itemsets diverged at {threads} threads"
        );
        // Statistics must be bit-identical, not merely close: every
        // candidate's χ² is computed from the same integer counts.
        let stats = |r: &MiningResult| {
            r.significant
                .iter()
                .map(|s| s.chi2.statistic.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            stats(&run),
            stats(&baseline),
            "χ² statistics diverged at {threads} threads"
        );
    }
}
