//! Ablation: dense vs sparse chi-squared evaluation, plus the statistic's
//! building blocks (DESIGN.md "Sparse vs. dense x² computation").

use criterion::{criterion_group, criterion_main, Criterion};

use bmb_basket::{BasketDatabase, ContingencyTable, Itemset, SparseContingencyTable};
use bmb_stats::{Chi2Test, ChiSquared, DfConvention};

/// A database whose 14-item tables are sparse: 2^14 cells, 3000 baskets.
fn sparse_workload() -> (BasketDatabase, Itemset) {
    let db = bmb_datasets::independent(3000, 14, 0.3, 9);
    (db, Itemset::from_ids(0..14))
}

fn bench_chi2(c: &mut Criterion) {
    let (db, wide) = sparse_workload();
    let test = Chi2Test::new(0.95, DfConvention::PaperSingle, None);

    let mut group = c.benchmark_group("chi2_14_items_3000_baskets");
    group.sample_size(20);
    group.bench_function("dense_build_and_test", |b| {
        b.iter(|| {
            let t = ContingencyTable::from_database(&db, &wide);
            test.test_dense(&t)
        });
    });
    group.bench_function("sparse_build_and_test", |b| {
        b.iter(|| {
            let t = SparseContingencyTable::from_database(&db, &wide);
            test.test_sparse(&t)
        });
    });
    group.finish();

    // Pair-sized tables: the dominant case in practice.
    let pair = Itemset::from_ids([0, 1]);
    let table = ContingencyTable::from_database(&db, &pair);
    c.bench_function("chi2_test_2x2", |b| b.iter(|| test.test_dense(&table)));

    // Alternative statistics on the same 2x2 table.
    let mut group = c.benchmark_group("statistics_2x2");
    group.bench_function("pearson", |b| b.iter(|| bmb_stats::chi2_statistic(&table)));
    group.bench_function("g_test", |b| b.iter(|| bmb_stats::g_statistic(&table)));
    group.bench_function("yates", |b| b.iter(|| bmb_stats::yates_chi2(&table)));
    group.bench_function("phi", |b| b.iter(|| bmb_stats::phi_coefficient(&table)));
    group.finish();

    // The low-expectation cell policy's cost on a wide sparse table.
    let wide_table = ContingencyTable::from_database(&db, &wide);
    let with_policy = Chi2Test::new(0.95, DfConvention::PaperSingle, Some(1.0));
    let mut group = c.benchmark_group("low_expectation_policy");
    group.sample_size(20);
    group.bench_function("off", |b| b.iter(|| test.test_dense(&wide_table)));
    group.bench_function("on", |b| b.iter(|| with_policy.test_dense(&wide_table)));
    group.finish();

    // Distribution machinery.
    let dist = ChiSquared::new(1.0);
    c.bench_function("chi2_quantile_95", |b| b.iter(|| dist.quantile(0.95)));
    // A test built per table pays the quantile every time; the stored
    // cutoff leaves `chi2_test_2x2` only the statistic and its p-value.
    c.bench_function("test_dense_2x2", |b| {
        b.iter(|| Chi2Test::new(0.95, DfConvention::PaperSingle, None).test_dense(&table))
    });
    c.bench_function("chi2_sf", |b| b.iter(|| dist.sf(7.3)));
}

criterion_group!(benches, bench_chi2);
criterion_main!(benches);
