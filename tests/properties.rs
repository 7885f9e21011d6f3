//! Property-based tests (proptest) over the core invariants:
//! Theorem 1's upward closure, support's downward closure, counting-
//! strategy equivalence, statistic identities, and sampler correctness.

use beyond_market_baskets::prelude::*;
use bmb_basket::{BasketDatabase, BitmapIndex, ContingencyTable, SparseContingencyTable};
use bmb_stats::gamma::{regularized_gamma_p, regularized_gamma_q};
use proptest::prelude::*;

/// Strategy: a random small basket database over `k` items.
fn db_strategy(max_items: usize, max_baskets: usize) -> impl Strategy<Value = BasketDatabase> {
    (2..=max_items, 4..=max_baskets).prop_flat_map(|(k, n)| {
        proptest::collection::vec(proptest::collection::vec(0..k as u32, 0..=k), n..=n)
            .prop_map(move |baskets| BasketDatabase::from_id_baskets(k, baskets))
    })
}

proptest! {
    /// Theorem 1: adding any item to an itemset never decreases its
    /// chi-squared statistic (single-df convention), hence significance at
    /// any level α is upward closed.
    #[test]
    fn chi2_statistic_is_monotone_under_extension(
        db in db_strategy(6, 60),
        seed in 0u32..1000,
    ) {
        let k = db.n_items() as u32;
        let test = Chi2Test::default();
        // Pick a pair and an extension item from the seed.
        let a = seed % k;
        let b = (seed / k) % k;
        let c = (seed / (k * k)) % k;
        prop_assume!(a != b && b != c && a != c);
        let pair = Itemset::from_ids([a, b]);
        let triple = pair.with_item(ItemId(c));
        let s_pair = test.test_dense(&ContingencyTable::from_database(&db, &pair)).statistic;
        let s_triple = test.test_dense(&ContingencyTable::from_database(&db, &triple)).statistic;
        prop_assert!(
            s_triple >= s_pair - 1e-7,
            "upward closure violated: {s_triple} < {s_pair}"
        );
    }

    /// The sparse chi-squared formula equals the dense one.
    #[test]
    fn sparse_chi2_equals_dense(db in db_strategy(5, 50), seed in 0u32..100) {
        let k = db.n_items() as u32;
        let a = seed % k;
        let b = (seed / k) % k;
        prop_assume!(a != b);
        let set = Itemset::from_ids([a, b]);
        let test = Chi2Test::default();
        let dense = test.test_dense(&ContingencyTable::from_database(&db, &set));
        let sparse = test.test_sparse(&SparseContingencyTable::from_database(&db, &set));
        prop_assert!((dense.statistic - sparse.statistic).abs() < 1e-7);
        prop_assert_eq!(dense.significant, sparse.significant);
    }

    /// Contingency cells always sum to n, and expectations do too.
    #[test]
    fn contingency_mass_conservation(db in db_strategy(6, 60), seed in 0u32..100) {
        let k = db.n_items() as u32;
        let a = seed % k;
        let b = (seed / k) % k;
        prop_assume!(a != b);
        let set = Itemset::from_ids([a, b]);
        let t = ContingencyTable::from_database(&db, &set);
        let observed: u64 = t.cells().map(|(_, c)| c).sum();
        prop_assert_eq!(observed, db.len() as u64);
        let expected: f64 = t.cells().map(|(cell, _)| t.expected(cell)).sum();
        prop_assert!((expected - db.len() as f64).abs() < 1e-6);
    }

    /// Bitmap-index construction agrees with direct scanning for every
    /// single item and random pair.
    #[test]
    fn bitmap_index_counts_match_scan(db in db_strategy(7, 80)) {
        let index = BitmapIndex::build(&db);
        // The scan reference: an inline per-basket count.
        let scan = |items: &[ItemId]| {
            db.baskets()
                .filter(|basket| items.iter().all(|i| basket.contains(i)))
                .count() as u64
        };
        for i in 0..db.n_items() as u32 {
            prop_assert_eq!(index.support_count(&[ItemId(i)]), scan(&[ItemId(i)]));
        }
        for a in 0..db.n_items() as u32 {
            for b in a + 1..db.n_items() as u32 {
                let pair = [ItemId(a), ItemId(b)];
                prop_assert_eq!(index.support_count(&pair), scan(&pair));
            }
        }
    }

    /// Gamma identities: P + Q = 1 and monotonicity of P in x.
    #[test]
    fn gamma_p_q_identities(a in 0.1f64..50.0, x in 0.0f64..100.0) {
        let p = regularized_gamma_p(a, x);
        let q = regularized_gamma_q(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-10);
        prop_assert!((0.0..=1.0).contains(&p));
        let p2 = regularized_gamma_p(a, x + 0.5);
        prop_assert!(p2 >= p - 1e-12);
    }

    /// Chi-squared quantile inverts the CDF across dfs and probabilities.
    #[test]
    fn chi2_quantile_roundtrip(df in 1.0f64..200.0, p in 0.001f64..0.999) {
        let dist = ChiSquared::new(df);
        let x = dist.quantile(p);
        prop_assert!((dist.cdf(x) - p).abs() < 1e-8, "df {df} p {p} x {x}");
    }

    /// Itemset algebra: union/intersection/subset laws.
    #[test]
    fn itemset_algebra(
        a in proptest::collection::vec(0u32..40, 0..12),
        b in proptest::collection::vec(0u32..40, 0..12),
    ) {
        let sa = Itemset::from_ids(a);
        let sb = Itemset::from_ids(b);
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        prop_assert!(sa.is_subset_of(&union) && sb.is_subset_of(&union));
        prop_assert!(inter.is_subset_of(&sa) && inter.is_subset_of(&sb));
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
        // Facets: every facet is a subset of size len-1.
        for f in sa.facets() {
            prop_assert_eq!(f.len() + 1, sa.len());
            prop_assert!(f.is_subset_of(&sa));
        }
    }

    /// The miner's output never contains one reported set inside another
    /// (minimality), and all level stats balance.
    #[test]
    fn miner_output_is_antichain(db in db_strategy(6, 120), s in 1u64..6) {
        let config = MinerConfig {
            support: SupportSpec::Count(s),
            ..MinerConfig::default()
        };
        let result = mine(&db, &config);
        for (i, x) in result.significant.iter().enumerate() {
            for y in result.significant.iter().skip(i + 1) {
                prop_assert!(
                    !x.itemset.is_subset_of(&y.itemset) && !y.itemset.is_subset_of(&x.itemset),
                    "{} and {} violate minimality",
                    x.itemset,
                    y.itemset
                );
            }
        }
        for level in &result.levels {
            prop_assert!(level.is_consistent());
        }
    }

    /// Largest-remainder materialization returns exactly n baskets and
    /// approximates the target marginals.
    #[test]
    fn census_materialize_is_exact(n in 1500usize..20_000) {
        // Calibrate once; the fit is deterministic.
        static FIT: std::sync::OnceLock<beyond_market_baskets::datasets::census::ipf::IpfFit> =
            std::sync::OnceLock::new();
        let fit = FIT.get_or_init(beyond_market_baskets::datasets::calibrate);
        let db = beyond_market_baskets::datasets::census::materialize(fit, n);
        prop_assert_eq!(db.len(), n);
        for i in 0..10u32 {
            let got = db.item_frequency(ItemId(i));
            let want = fit.marginal(i as usize);
            // Largest-remainder noise on a marginal aggregates ~sqrt(512)
            // half-basket errors; at n >= 1500 that is well under 2%.
            prop_assert!((got - want).abs() < 0.02, "item {i}: {got} vs {want}");
        }
    }
}

proptest! {
    /// Random contingency tables flow through the chi-squared test with
    /// every numerical contract active (this suite runs in debug builds,
    /// where `bmb_stats::contracts` is live): construction re-derives the
    /// marginals, and the outcome's statistic, cutoff, and p-value all
    /// satisfy their range invariants.
    #[test]
    fn random_tables_satisfy_chi2_contracts(
        dims in 2usize..=4,
        seed in proptest::collection::vec(0u64..500, 16..=16),
    ) {
        let counts: Vec<u64> = seed[..1 << dims].to_vec();
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let set = Itemset::from_ids(0..dims as u32);
        // `from_counts` runs the table-consistency contract internally.
        let table = ContingencyTable::from_counts(set, counts);
        let outcome = Chi2Test::default().test_dense(&table);
        prop_assert!(outcome.statistic.is_finite() && outcome.statistic >= 0.0);
        prop_assert!(outcome.cutoff > 0.0);
        let p = outcome.p_value();
        prop_assert!((0.0..=1.0).contains(&p), "p-value {p} out of range");
        prop_assert!(outcome.ln_p_value <= 1e-9, "ln p {} above 0", outcome.ln_p_value);
    }
}
