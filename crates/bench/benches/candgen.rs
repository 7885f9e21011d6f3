//! Ablation: prefix-join candidate generation vs naive enumeration
//! (DESIGN.md "Candidate generation").

use criterion::{criterion_group, criterion_main, Criterion};

use bmb_basket::{ItemId, Itemset};
use bmb_lattice::levelwise::{generate_candidates, generate_candidates_naive};
use bmb_lattice::FnvHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random NOTSIG-like survivor level of pairs over `k` items, held the
/// way the miner holds it: a sorted list plus a slice-keyed FNV map (the
/// miner's support store).
fn survivors(k: u32, keep: f64, seed: u64) -> (Vec<Itemset>, FnvHashMap<Itemset, u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sorted = Vec::new();
    for a in 0..k {
        for b in a + 1..k {
            if rng.gen_bool(keep) {
                sorted.push(Itemset::from_ids([a, b]));
            }
        }
    }
    let store = sorted.iter().map(|s| (s.clone(), 0)).collect();
    (sorted, store)
}

fn bench_candgen(c: &mut Criterion) {
    // The realistic regime: thousands of surviving pairs, like the paper's
    // NOTSIG(2) = 3582.
    let (big, big_store) = survivors(120, 0.5, 3);
    let big_probe = |items: &[ItemId]| big_store.contains_key(items);
    c.bench_function("candgen_join_3500_pairs", |b| {
        b.iter(|| generate_candidates(&big, big_probe));
    });

    // Naive enumeration is only feasible over a small universe; compare on
    // matching input.
    let (small, small_store) = survivors(24, 0.5, 4);
    let small_probe = |items: &[ItemId]| small_store.contains_key(items);
    let mut group = c.benchmark_group("candgen_small_universe");
    group.bench_function("prefix_join", |b| {
        b.iter(|| generate_candidates(&small, small_probe))
    });
    group.bench_function("naive_enumeration", |b| {
        b.iter(|| generate_candidates_naive(&small, 24, small_probe));
    });
    group.finish();
}

criterion_group!(benches, bench_candgen);
criterion_main!(benches);
