//! Cross-crate integration: the full mining pipeline on every workload
//! simulator, plus consistency between the level-wise and walk miners and
//! between the correlation and support-confidence frameworks.

use beyond_market_baskets::prelude::*;
use beyond_market_baskets::{datasets, lattice, quest};
use bmb_core::Level1Prune;
use bmb_lattice::WalkConfig;

fn config(s: u64) -> MinerConfig {
    MinerConfig {
        support: SupportSpec::Count(s),
        ..MinerConfig::default()
    }
}

/// Mining the Quest workload end to end: generation → miner → border.
#[test]
fn quest_pipeline() {
    let params = quest::QuestParams {
        n_transactions: 5_000,
        n_items: 120,
        avg_transaction_len: 8.0,
        avg_pattern_len: 4.0,
        n_patterns: 40,
        seed: 7,
        ..quest::QuestParams::default()
    };
    let db = quest::generate(&params);
    let result = mine(
        &db,
        &MinerConfig {
            support: SupportSpec::Fraction(0.01),
            ..config(1)
        },
    );
    // Planted patterns guarantee plenty of significant pairs.
    assert!(
        result.levels[0].significant > 10,
        "expected planted correlations, got {:?}",
        result.levels
    );
    // The output is a genuine antichain (minimality).
    let border = result.border();
    assert_eq!(border.len(), result.significant.len());
    // And the level accounting is self-consistent.
    for level in &result.levels {
        assert!(level.is_consistent());
    }
}

/// The miner agrees with brute-force exhaustive search on a small universe.
#[test]
fn miner_matches_exhaustive_border() {
    let db = datasets::planted_pair(1200, 6, 0.35, 0.75, 13);
    let cfg = MinerConfig {
        support: SupportSpec::Count(1),
        support_fraction: 0.26,
        level1: Level1Prune::Off,
        ..MinerConfig::default()
    };
    let result = mine(&db, &cfg);
    // Ground truth: exhaustive border of "chi2 significant" over supported
    // sets. With s = 1 and p = 0.26, support requires ceil(0.26·2^m) cells
    // to be non-empty.
    let test = Chi2Test::default();
    let truth = lattice::exhaustive_border(6, 6, |set| {
        if set.is_empty() {
            return false;
        }
        let table = bmb_basket::ContingencyTable::from_database(&db, set);
        let cells_needed = ((0.26 * table.n_cells() as f64).ceil() as usize).max(1);
        table.cells_with_count_at_least(1) >= cells_needed && test.test_dense(&table).significant
    });
    // The miner's SIG must equal the border elements reachable through
    // all-NOTSIG ancestry; on this data (support never binds) that is the
    // full border of minimal correlated sets.
    let mined = result.border();
    assert_eq!(
        mined.minimal_sets(),
        truth.minimal_sets(),
        "miner disagrees with exhaustive search"
    );
}

/// Level-wise and random-walk miners find the same border on clean data.
#[test]
fn walk_and_levelwise_agree() {
    let db = datasets::parity_triple(800, 6);
    let cfg = config(5);
    let levelwise = mine(&db, &cfg);
    let walked = mine_walk(
        &db,
        &cfg,
        WalkConfig {
            walks: 400,
            max_level: 6,
            seed: 3,
        },
        None,
    );
    let level_sets: Vec<Itemset> = levelwise
        .significant
        .iter()
        .map(|r| r.itemset.clone())
        .collect();
    assert_eq!(walked.border, level_sets);
}

/// Thread counts never change the mining output.
#[test]
fn threads_invariant() {
    let db = datasets::planted_pair(3000, 10, 0.25, 0.6, 23);
    let base = mine(&db, &config(8));
    for threads in [1usize, 3] {
        let result = mine(
            &db,
            &MinerConfig {
                threads,
                ..config(8)
            },
        );
        assert_eq!(result.levels, base.levels, "{threads} threads");
        assert_eq!(
            result
                .significant
                .iter()
                .map(|r| &r.itemset)
                .collect::<Vec<_>>(),
            base.significant
                .iter()
                .map(|r| &r.itemset)
                .collect::<Vec<_>>()
        );
    }
}

/// Support-confidence and correlation frameworks disagree exactly where
/// the paper says they do: high-confidence rules on negatively-correlated
/// pairs, and silence on exclusions.
#[test]
fn frameworks_disagree_as_documented() {
    // (a) tea/coffee: S-C produces tea => coffee; chi2 sees only weak
    // evidence (3.70 < 3.84) and interest < 1.
    let db = datasets::tea_coffee();
    let frequent = beyond_market_baskets::apriori::apriori(
        &db,
        beyond_market_baskets::apriori::MinSupport::Fraction(0.05),
        2,
    );
    let rules = beyond_market_baskets::apriori::generate_rules(&frequent, db.len() as u64, 0.5);
    assert!(
        rules.iter().any(|r| r.confidence >= 0.8 && r.lift < 1.0),
        "the misleading high-confidence negative-lift rule must exist"
    );

    // (b) exclusion: S-C has nothing, the miner reports the pair.
    let db = datasets::negative_pair(5000, 0.35, 17);
    let result = mine(
        &db,
        &MinerConfig {
            support: SupportSpec::Fraction(0.01),
            ..MinerConfig::default()
        },
    );
    assert!(result.rule_for(&Itemset::from_ids([0, 1])).is_some());
    let frequent = beyond_market_baskets::apriori::apriori(
        &db,
        beyond_market_baskets::apriori::MinSupport::Fraction(0.01),
        2,
    );
    assert!(
        frequent.support_of(&Itemset::from_ids([0, 1])).is_none(),
        "support-confidence must be blind to the exclusion"
    );
}

/// The datacube serves the walk miner the same tables as direct scans.
#[test]
fn datacube_equivalence() {
    let db = datasets::planted_pair(1000, 8, 0.3, 0.7, 31);
    let cube = lattice::CountCube::build(&db, &Itemset::from_ids(0..8));
    for a in 0..8u32 {
        for b in a + 1..8 {
            let set = Itemset::from_ids([a, b]);
            assert_eq!(
                cube.contingency(&set),
                bmb_basket::ContingencyTable::from_database(&db, &set)
            );
        }
    }
}

/// Serialization round-trip: a generated database written to the basket
/// format and read back mines identically.
#[test]
fn io_round_trip_preserves_mining() {
    let db = datasets::planted_pair(500, 5, 0.4, 0.8, 41);
    let mut buf = Vec::new();
    bmb_basket::io::write(&db, &mut buf).unwrap();
    let back = bmb_basket::io::read_numeric(buf.as_slice()).unwrap();
    let a = mine(&db, &config(3));
    let b = mine(&back, &config(3));
    assert_eq!(a.levels, b.levels);
}
