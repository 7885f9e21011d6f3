//! Bitmap-index support counting, sequential vs threaded, for pairs and
//! for the kernel's three-item path, plus the one-off index build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bmb_basket::{BasketDatabase, BitmapIndex, ItemId, Itemset};
use bmb_core::counting::count_with_bitmaps;
use bmb_quest::{generate, QuestParams};

fn workload() -> (BasketDatabase, Vec<Itemset>) {
    let db = generate(&QuestParams {
        n_transactions: 20_000,
        n_items: 300,
        avg_transaction_len: 12.0,
        n_patterns: 100,
        seed: 5,
        ..QuestParams::default()
    });
    // Candidate pairs: the 2000 lexicographically-first frequent pairs.
    let mut candidates = Vec::new();
    'outer: for a in 0..300u32 {
        for b in a + 1..300 {
            candidates.push(Itemset::from_ids([a, b]));
            if candidates.len() == 2000 {
                break 'outer;
            }
        }
    }
    (db, candidates)
}

fn bench_counting(c: &mut Criterion) {
    let (db, candidates) = workload();
    let index = BitmapIndex::build(&db);
    let mut group = c.benchmark_group("counting_2000_pairs");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("bitmap", threads), &threads, |b, &t| {
            b.iter(|| count_with_bitmaps(&index, &candidates, t));
        });
    }
    group.finish();

    // The ≥3-item path of `BitmapIndex::support_count`: the 2000
    // lexicographically-first triples over the 30 most frequent items.
    let mut frequent: Vec<u32> = (0..300).collect();
    frequent.sort_by_key(|&i| std::cmp::Reverse(db.item_count(ItemId(i))));
    frequent.truncate(30);
    frequent.sort_unstable();
    let mut triples = Vec::new();
    'triples: for (x, &a) in frequent.iter().enumerate() {
        for (y, &b) in frequent.iter().enumerate().skip(x + 1) {
            for &c in &frequent[y + 1..] {
                triples.push(Itemset::from_ids([a, b, c]));
                if triples.len() == 2000 {
                    break 'triples;
                }
            }
        }
    }
    let mut group = c.benchmark_group("counting_triples");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("bitmap", threads), &threads, |b, &t| {
            b.iter(|| count_with_bitmaps(&index, &triples, t));
        });
    }
    group.finish();

    c.bench_function("bitmap_index_build_20k_baskets", |b| {
        b.iter(|| BitmapIndex::build(&db));
    });
}

criterion_group!(benches, bench_counting);
criterion_main!(benches);
