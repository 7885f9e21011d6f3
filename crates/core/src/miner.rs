//! The `x²-support` algorithm — Figure 1 of the paper.
//!
//! Level-wise search for *significant* (supported and minimally
//! correlated) itemsets:
//!
//! 1. count `O(i)` for every item;
//! 2. CAND ← item pairs passing the level-1 prune;
//! 3. for each candidate: build its contingency table; discard it if fewer
//!    than `p` of the cells reach count `s`; otherwise send it to SIG
//!    (χ² at or above the cutoff) or NOTSIG (below);
//! 4. CAND at the next level ← every set whose facets are all in NOTSIG —
//!    supersets of correlated sets are *not minimal* and supersets of
//!    unsupported sets are unsupported, so only NOTSIG spawns candidates;
//! 5. repeat until CAND is empty.
//!
//! The upward closure of chi-squared significance (Theorem 1) makes SIG
//! exactly the *border of correlation* among supported itemsets.

use std::time::{Duration, Instant};

use bmb_basket::{BasketDatabase, BitmapIndex, ContingencyTable, ItemId, Itemset};
use bmb_lattice::{generate_candidates, Border};
use bmb_stats::{Chi2Outcome, Chi2Test};

use crate::config::{Level1Prune, MinerConfig};
use crate::counting::{
    count_with_bitmaps, split_map, table_from_supports, MarginalSource, SupportStore,
    EVAL_CELLS_PER_SPAWN,
};
use crate::sig::CorrelationRule;
use crate::stats::{lattice_level_size, LevelStats};
use crate::support::cell_support;

/// Result of a mining run.
#[derive(Debug)]
pub struct MiningResult {
    /// All significant itemsets, in discovery (level, lexicographic) order.
    pub significant: Vec<CorrelationRule>,
    /// Per-level accounting (Table 5's columns).
    pub levels: Vec<LevelStats>,
    /// The resolved absolute support threshold `s`.
    pub support_count: u64,
    /// The chi-squared cutoff at the deepest level that tested a
    /// candidate (the pair cutoff when none was tested).
    pub chi2_cutoff: f64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Per-stage wall-time profile (`bmb mine --trace`).
    pub profile: MinerProfile,
}

/// Wall-time accounting for one mined level's stages.
///
/// Kept apart from [`LevelStats`]: level stats are `Eq`-compared across
/// thread counts, and wall times would never agree — counts go there,
/// durations go here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelProfile {
    /// The level these timings belong to (itemset size).
    pub level: usize,
    /// Support counting (bitmap intersection), µs.
    pub count_us: u64,
    /// Candidate evaluation (table assembly, support test, χ²), µs.
    pub evaluate_us: u64,
    /// SIG/NOTSIG bookkeeping and border emission, µs.
    pub emit_us: u64,
    /// Next-level candidate generation from NOTSIG, µs.
    pub candgen_us: u64,
}

impl LevelProfile {
    /// Total wall time attributed to this level, µs.
    pub fn total_us(&self) -> u64 {
        self.count_us + self.evaluate_us + self.emit_us + self.candgen_us
    }
}

/// Whole-run stage profile, populated by every [`mine`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MinerProfile {
    /// Bitmap-index construction, µs.
    pub index_build_us: u64,
    /// Level-1 pruning / initial pair generation, µs.
    pub initial_pairs_us: u64,
    /// Per-level stage timings, parallel to `MiningResult::levels`.
    pub levels: Vec<LevelProfile>,
}

impl MiningResult {
    /// The border of correlation: the significant itemsets as an antichain.
    ///
    /// (They are minimal by construction; assembling the border re-checks
    /// the antichain property in debug builds.)
    pub fn border(&self) -> Border {
        Border::from_minimal(self.significant.iter().map(|r| r.itemset.clone()).collect())
    }

    /// Looks up a significant itemset.
    pub fn rule_for(&self, set: &Itemset) -> Option<&CorrelationRule> {
        self.significant.iter().find(|r| &r.itemset == set)
    }

    /// Total candidates examined across levels.
    pub fn total_candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }
}

/// Runs the miner over `db` with `config`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`MinerConfig::validate`]).
pub fn mine(db: &BasketDatabase, config: &MinerConfig) -> MiningResult {
    config.validate();
    let obs = MinerObs::attach();
    let _mine_span = bmb_obs::trace::span("mine");
    let start = Instant::now();

    let mut profile = MinerProfile::default();
    let index = {
        let _span = bmb_obs::trace::span_timed("index_build", &obs.index_build);
        let stage = Instant::now();
        let index = BitmapIndex::build(db);
        profile.index_build_us = micros(stage.elapsed());
        index
    };
    let count = |candidates: &[Itemset]| -> Result<Vec<u64>, std::convert::Infallible> {
        Ok(count_with_bitmaps(&index, candidates, config.threads))
    };
    match mine_levels(db, count, config, &obs, start, profile) {
        Ok(result) => result,
        Err(never) => match never {},
    }
}

/// Runs the level-wise search with an external support counter — the
/// distributed entry point. `marginals` answers the level-1 prune and
/// singleton/empty-set lookups; `count` answers each level's candidate
/// supports (e.g. by scattering to shards and summing their integer
/// answers). Everything downstream of counting — table assembly, the
/// cell-support test, χ², SIG/NOTSIG bookkeeping, candidate generation —
/// is the *same code* [`mine`] runs, so a counter that returns the same
/// integers produces a bit-identical [`MiningResult`].
///
/// The first `Err` from `count` aborts the run and is returned verbatim
/// (a coordinator maps transport failures here).
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`MinerConfig::validate`]).
pub fn mine_with_counter<M, F, E>(
    marginals: &M,
    count: F,
    config: &MinerConfig,
) -> Result<MiningResult, E>
where
    M: MarginalSource + Sync,
    F: FnMut(&[Itemset]) -> Result<Vec<u64>, E>,
{
    config.validate();
    let obs = MinerObs::attach();
    let _mine_span = bmb_obs::trace::span("mine");
    let start = Instant::now();
    mine_levels(
        marginals,
        count,
        config,
        &obs,
        start,
        MinerProfile::default(),
    )
}

/// The shared level loop of [`mine`] and [`mine_with_counter`].
fn mine_levels<M, F, E>(
    marginals: &M,
    mut count: F,
    config: &MinerConfig,
    obs: &MinerObs,
    start: Instant,
    mut profile: MinerProfile,
) -> Result<MiningResult, E>
where
    M: MarginalSource + Sync,
    F: FnMut(&[Itemset]) -> Result<Vec<u64>, E>,
{
    let n = marginals.n_baskets();
    let k = marginals.n_items();
    let s = config.support.to_count(n).max(1);
    let chi2_test = Chi2Test::new(config.alpha, config.df, config.low_expectation_cutoff);

    let mut store = SupportStore::new();
    let mut significant: Vec<CorrelationRule> = Vec::new();
    let mut levels: Vec<LevelStats> = Vec::new();
    // The deepest level with a tested (non-discarded) candidate: its
    // table width picks the reported cutoff.
    let mut tested_level = None;

    // Step 3: level-1 pruning builds the initial candidate pairs.
    let mut candidates = {
        let _span = bmb_obs::trace::span_timed("initial_pairs", &obs.initial_pairs);
        let stage = Instant::now();
        let candidates = initial_pairs(marginals, s, config.level1);
        profile.initial_pairs_us = micros(stage.elapsed());
        candidates
    };

    let mut level = 2usize;
    while !candidates.is_empty() && level <= config.max_level {
        let mut level_profile = LevelProfile {
            level,
            ..Default::default()
        };
        let supports = {
            let _span = bmb_obs::trace::span_timed("count", &obs.stage_count);
            let stage = Instant::now();
            let supports = count(&candidates)?;
            level_profile.count_us = micros(stage.elapsed());
            supports
        };
        let mut stats = LevelStats {
            level,
            lattice_itemsets: lattice_level_size(k, level),
            candidates: candidates.len(),
            ..Default::default()
        };
        let cells_required = config.cells_required(level);
        let is_last_level = level >= config.max_level;
        // Evaluation (table assembly → support test → χ²) only *reads* the
        // store — every needed subset support was inserted at lower levels
        // and the candidate's own support is passed explicitly — so the
        // per-candidate work parallelizes; SIG/NOTSIG bookkeeping happens
        // afterwards, in order.
        let verdicts = {
            let _span = bmb_obs::trace::span_timed("evaluate", &obs.stage_evaluate);
            let stage = Instant::now();
            let verdicts = evaluate_candidates(
                marginals,
                &store,
                &candidates,
                &supports,
                s,
                cells_required,
                &chi2_test,
                config.threads,
            );
            level_profile.evaluate_us = micros(stage.elapsed());
            verdicts
        };
        let emit_start = Instant::now();
        let _emit_span = bmb_obs::trace::span_timed("emit", &obs.stage_emit);
        // This level's NOTSIG sets, in candidate (sorted) order: the
        // survivors the next level's candidates are joined from.
        let mut notsig = Vec::new();
        for ((candidate, supp), verdict) in candidates.into_iter().zip(supports).zip(verdicts) {
            match verdict {
                Verdict::Discarded => stats.discards += 1,
                Verdict::Significant {
                    chi2,
                    support_cells,
                    table,
                } => {
                    stats.significant += 1;
                    significant.push(CorrelationRule {
                        itemset: candidate,
                        chi2,
                        table,
                        support_cells,
                    });
                }
                Verdict::NotSignificant => {
                    stats.not_significant += 1;
                    // Only NOTSIG members can be subsets of future
                    // candidates, so theirs are the only supports worth
                    // retaining — and none at the final level.
                    if !is_last_level {
                        store.insert(candidate.clone(), supp);
                        notsig.push(candidate);
                    }
                }
            }
        }
        debug_assert!(stats.is_consistent());
        if stats.significant + stats.not_significant > 0 {
            tested_level = Some(level);
        }
        obs.record_level(&stats);
        levels.push(stats);
        level_profile.emit_us = micros(emit_start.elapsed());
        drop(_emit_span);
        // Don't generate candidates the level cap would discard unseen.
        let candgen_start = Instant::now();
        candidates = if is_last_level {
            Vec::new()
        } else {
            let _span = bmb_obs::trace::span_timed("candgen", &obs.stage_candgen);
            // The store holds only NOTSIG sets, so a probe of this
            // level's size asks exactly "is this facet in NOTSIG?".
            generate_candidates(&notsig, |facet| store.contains(facet))
        };
        level_profile.candgen_us = micros(candgen_start.elapsed());
        profile.levels.push(level_profile);
        level += 1;
    }
    let chi2_cutoff = chi2_test.cutoff(tested_level.unwrap_or(2));
    obs.runs.inc();

    Ok(MiningResult {
        significant,
        levels,
        support_count: s,
        chi2_cutoff,
        elapsed: start.elapsed(),
        profile,
    })
}

/// Saturating `Duration` → whole microseconds.
fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Handles into the global registry for the miner's stage metrics
/// (`bmb_core_miner_*`). Registration is idempotent, so attaching on
/// every run just re-fetches the shared cells.
struct MinerObs {
    runs: bmb_obs::Counter,
    candidates: bmb_obs::Counter,
    lattice: bmb_obs::Counter,
    discards: bmb_obs::Counter,
    significant: bmb_obs::Counter,
    not_significant: bmb_obs::Counter,
    index_build: bmb_obs::Histogram,
    initial_pairs: bmb_obs::Histogram,
    stage_count: bmb_obs::Histogram,
    stage_evaluate: bmb_obs::Histogram,
    stage_emit: bmb_obs::Histogram,
    stage_candgen: bmb_obs::Histogram,
}

impl MinerObs {
    fn attach() -> MinerObs {
        let registry = bmb_obs::global();
        let stage_help = "Miner stage wall time in microseconds.";
        let stage = |name: &str| {
            registry.histogram_with("bmb_core_miner_stage_us", stage_help, &[("stage", name)])
        };
        MinerObs {
            runs: registry.counter("bmb_core_miner_runs_total", "Completed mining runs."),
            candidates: registry.counter(
                "bmb_core_miner_candidates_total",
                "Candidates examined across all levels.",
            ),
            lattice: registry.counter(
                "bmb_core_miner_lattice_itemsets_total",
                "Lattice itemsets at visited levels (prune-ratio denominator).",
            ),
            discards: registry.counter(
                "bmb_core_miner_discards_total",
                "Candidates discarded by the cell-support test.",
            ),
            significant: registry.counter(
                "bmb_core_miner_significant_total",
                "Candidates emitted to the border (SIG).",
            ),
            not_significant: registry.counter(
                "bmb_core_miner_notsig_total",
                "Supported but uncorrelated candidates (NOTSIG).",
            ),
            index_build: stage("index_build"),
            initial_pairs: stage("initial_pairs"),
            stage_count: stage("count"),
            stage_evaluate: stage("evaluate"),
            stage_emit: stage("emit"),
            stage_candgen: stage("candgen"),
        }
    }

    fn record_level(&self, stats: &LevelStats) {
        self.candidates.add(stats.candidates as u64);
        self.lattice.add(stats.lattice_itemsets);
        self.discards.add(stats.discards as u64);
        self.significant.add(stats.significant as u64);
        self.not_significant.add(stats.not_significant as u64);
    }
}

/// Per-candidate outcome of one level's evaluation pass. A significant
/// candidate's rule is completed in the emit pass, which owns the
/// candidate and moves it in.
enum Verdict {
    /// Failed the cell-support test.
    Discarded,
    /// Supported and correlated.
    Significant {
        chi2: Chi2Outcome,
        support_cells: usize,
        table: ContingencyTable,
    },
    /// Supported but uncorrelated (NOTSIG).
    NotSignificant,
}

/// Evaluates all candidates of one level, in parallel chunks of at least
/// [`EVAL_CELLS_PER_SPAWN`] table cells when `threads > 1`.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidates<M: MarginalSource + Sync>(
    marginals: &M,
    store: &SupportStore,
    candidates: &[Itemset],
    supports: &[u64],
    s: u64,
    cells_required: usize,
    chi2_test: &Chi2Test,
    threads: usize,
) -> Vec<Verdict> {
    let cells: usize = candidates.iter().map(|c| 1usize << c.len()).sum();
    split_map(
        candidates.len(),
        threads,
        cells,
        EVAL_CELLS_PER_SPAWN,
        |i| {
            let table = table_from_supports(marginals, store, &candidates[i], supports[i]);
            let support = cell_support(&table, s, cells_required);
            if !support.supported() {
                return Verdict::Discarded;
            }
            match chi2_test.test_dense_if_significant(&table) {
                Some(chi2) => Verdict::Significant {
                    chi2,
                    support_cells: support.cells_with_support,
                    table,
                },
                None => Verdict::NotSignificant,
            }
        },
    )
}

/// Step 3: the initial pair candidates under the chosen level-1 policy,
/// in lexicographic order. Each item's count is read once, and only the
/// pairs the policy keeps are visited.
fn initial_pairs<M: MarginalSource>(marginals: &M, s: u64, policy: Level1Prune) -> Vec<Itemset> {
    let k = marginals.n_items() as u32;
    let all: Vec<u32> = (0..k).collect();
    let frequent: Vec<u32> = (0..k)
        .filter(|&i| marginals.item_count(ItemId(i)) >= s)
        .collect();
    let mut out = Vec::new();
    // Pairs `a` with each of `partners` (sorted) above it.
    let mut pair_up = |a: u32, partners: &[u32]| {
        let above = partners.partition_point(|&b| b <= a);
        out.extend(
            partners[above..]
                .iter()
                .map(|&b| Itemset::from_sorted_slice(&[ItemId(a), ItemId(b)])),
        );
    };
    match policy {
        Level1Prune::PaperBothFrequent => {
            for &a in &frequent {
                pair_up(a, &frequent);
            }
        }
        Level1Prune::BothRare => {
            for a in 0..k {
                let a_frequent = frequent.binary_search(&a).is_ok();
                pair_up(a, if a_frequent { &all } else { &frequent });
            }
        }
        Level1Prune::Off => {
            for a in 0..k {
                pair_up(a, &all);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupportSpec;

    fn base_config() -> MinerConfig {
        MinerConfig {
            support: SupportSpec::Count(5),
            support_fraction: 0.26,
            ..Default::default()
        }
    }

    /// Parity data: pairs independent, triple maximally dependent. The
    /// miner must output exactly {0,1,2} — the canonical minimal
    /// level-3 correlation.
    #[test]
    fn finds_minimal_triple_in_parity_data() {
        let db = bmb_datasets::parity_triple(400, 4);
        let result = mine(&db, &base_config());
        let sets: Vec<&Itemset> = result.significant.iter().map(|r| &r.itemset).collect();
        assert_eq!(sets, vec![&Itemset::from_ids([0, 1, 2])]);
        // Level accounting: no level-2 significance, one level-3 hit.
        assert_eq!(result.levels[0].significant, 0);
        assert_eq!(result.levels[1].significant, 1);
    }

    #[test]
    fn planted_pair_is_minimal_at_level_2() {
        let db = bmb_datasets::planted_pair(3000, 6, 0.3, 0.7, 99);
        let result = mine(&db, &base_config());
        let planted = Itemset::from_ids([0, 1]);
        assert!(
            result.rule_for(&planted).is_some(),
            "planted pair not found among {:?}",
            result
                .significant
                .iter()
                .map(|r| r.itemset.to_string())
                .collect::<Vec<_>>()
        );
        // Everything significant is minimal: no reported set contains
        // another.
        let border = result.border();
        assert_eq!(border.len(), result.significant.len());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mutually incomparable")]
    fn border_flags_a_non_minimal_set_in_debug_builds() {
        let db = bmb_datasets::planted_pair(3000, 6, 0.3, 0.7, 99);
        let mut result = mine(&db, &base_config());
        let mut superset = result
            .rule_for(&Itemset::from_ids([0, 1]))
            .expect("planted pair found")
            .clone();
        superset.itemset = Itemset::from_ids([0, 1, 5]);
        result.significant.push(superset);
        result.border();
    }

    #[test]
    fn independent_data_yields_nothing_under_saturated_df() {
        // With the paper's single-df convention, deep levels accumulate
        // statistic over 2^m cells against a 1-df cutoff and false
        // positives appear — a *limitation the paper acknowledges* (its
        // accuracy concerns in Section 3.3). The saturated convention is
        // calibrated at every level: independent data yields nothing.
        let db = bmb_datasets::independent(3000, 6, 0.3, 5);
        let config = MinerConfig {
            alpha: 0.9999,
            df: bmb_stats::DfConvention::Saturated,
            ..base_config()
        };
        let result = mine(&db, &config);
        assert!(
            result.significant.is_empty(),
            "false positives: {:?}",
            result
                .significant
                .iter()
                .map(|r| r.itemset.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_df_convention_overreports_at_deep_levels() {
        // The flip side of the test above, pinned as a documented property:
        // the single-df convention lets some deep itemsets through on
        // independent data.
        let db = bmb_datasets::independent(3000, 6, 0.3, 5);
        let config = MinerConfig {
            alpha: 0.9999,
            ..base_config()
        };
        let result = mine(&db, &config);
        assert!(
            result.significant.iter().all(|r| r.itemset.len() >= 4),
            "levels 2-3 must stay clean even under the paper convention"
        );
    }

    #[test]
    fn initial_pairs_are_the_policy_filter_over_all_pairs() {
        // Items 0, 3 and 5 are in 3 baskets, 1 and 4 in 1, 2 in none.
        let db = BasketDatabase::from_id_baskets(
            6,
            vec![vec![0, 3, 5], vec![0, 1, 3, 5], vec![0, 3, 4, 5]],
        );
        for s in [1, 2, 4] {
            for policy in [
                Level1Prune::PaperBothFrequent,
                Level1Prune::BothRare,
                Level1Prune::Off,
            ] {
                let frequent = |i: u32| db.item_count(ItemId(i)) >= s;
                let mut expected = Vec::new();
                for a in 0..6u32 {
                    for b in a + 1..6 {
                        let keep = match policy {
                            Level1Prune::PaperBothFrequent => frequent(a) && frequent(b),
                            Level1Prune::BothRare => frequent(a) || frequent(b),
                            Level1Prune::Off => true,
                        };
                        if keep {
                            expected.push(Itemset::from_ids([a, b]));
                        }
                    }
                }
                assert_eq!(
                    initial_pairs(&db, s, policy),
                    expected,
                    "s = {s}, {policy:?}"
                );
            }
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let db = bmb_datasets::planted_pair(1500, 8, 0.25, 0.6, 12);
        let a = mine(
            &db,
            &MinerConfig {
                threads: 1,
                ..base_config()
            },
        );
        let b = mine(
            &db,
            &MinerConfig {
                threads: 4,
                ..base_config()
            },
        );
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn max_level_stops_early() {
        let db = bmb_datasets::parity_triple(400, 4);
        let config = MinerConfig {
            max_level: 2,
            ..base_config()
        };
        let result = mine(&db, &config);
        assert!(result.significant.is_empty());
        assert_eq!(result.levels.len(), 1);
    }

    #[test]
    fn support_threshold_discards_rare_structure() {
        // The parity triple on only 40 baskets puts exactly 10 baskets in
        // every pair cell; a support threshold of 11 discards every pair,
        // so NOTSIG stays empty and the genuinely-correlated triple is
        // never even generated — support pruning trades rare structure
        // for speed, as Section 3.3 discusses.
        let db = bmb_datasets::parity_triple(40, 3);
        let config = MinerConfig {
            support: SupportSpec::Count(11),
            level1: Level1Prune::Off,
            ..base_config()
        };
        let result = mine(&db, &config);
        assert_eq!(result.levels[0].discards, result.levels[0].candidates);
        assert_eq!(result.levels.len(), 1, "no level-3 candidates can form");
        assert!(result.significant.is_empty());
    }

    #[test]
    fn reported_cutoff_is_the_deepest_tested_levels() {
        // Parity data under the saturated convention: pairs are NOTSIG at
        // 1 df and the triple is tested at 4 df, so the run reports the
        // triple's cutoff. With every pair discarded, nothing is tested
        // and the pair cutoff is reported.
        let db = bmb_datasets::parity_triple(400, 3);
        let saturated = MinerConfig {
            df: bmb_stats::DfConvention::Saturated,
            ..base_config()
        };
        let test = Chi2Test::new(saturated.alpha, saturated.df, None);
        let result = mine(&db, &saturated);
        assert_eq!(result.levels.len(), 2);
        assert_eq!(result.chi2_cutoff.to_bits(), test.cutoff(3).to_bits());
        let all_discarded = MinerConfig {
            support: SupportSpec::Count(1000),
            level1: Level1Prune::Off,
            ..saturated
        };
        let result = mine(&db, &all_discarded);
        assert_eq!(result.levels[0].discards, result.levels[0].candidates);
        assert_eq!(result.chi2_cutoff.to_bits(), test.cutoff(2).to_bits());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let db = bmb_datasets::planted_pair(2000, 10, 0.2, 0.5, 4);
        let result = mine(&db, &base_config());
        for level in &result.levels {
            assert!(level.is_consistent(), "{level:?}");
        }
        assert!((result.chi2_cutoff - 3.841).abs() < 1e-2);
        assert_eq!(result.support_count, 5);
    }

    #[test]
    fn counter_backed_mine_is_bit_identical_to_local_mine() {
        // Scatter-gather in miniature: four "shards" each count their
        // slice, the counter sums the integer vectors, and the result
        // must match a whole-database run bit for bit — statistics,
        // cutoffs, level accounting, everything.
        let db = bmb_datasets::planted_pair(2000, 8, 0.25, 0.6, 21);
        let shards: Vec<bmb_basket::BasketDatabase> = (0..4)
            .map(|s| {
                bmb_basket::BasketDatabase::from_id_baskets(
                    db.n_items(),
                    (0..db.len())
                        .filter(|i| i % 4 == s)
                        .map(|i| db.basket(i).iter().map(|id| id.0).collect())
                        .collect(),
                )
            })
            .collect();
        let indexes: Vec<BitmapIndex> = shards.iter().map(BitmapIndex::build).collect();
        let marginals = crate::counting::Marginals {
            n_baskets: shards.iter().map(|s| s.len() as u64).sum(),
            item_counts: (0..db.n_items())
                .map(|i| {
                    shards
                        .iter()
                        .map(|s| s.item_count(ItemId(i as u32)))
                        .sum::<u64>()
                })
                .collect(),
        };
        let count = |candidates: &[Itemset]| -> Result<Vec<u64>, String> {
            let mut acc = vec![0u64; candidates.len()];
            for index in &indexes {
                for (slot, c) in acc.iter_mut().zip(candidates) {
                    *slot += index.support_count(c.items());
                }
            }
            Ok(acc)
        };
        let config = base_config();
        let gathered = mine_with_counter(&marginals, count, &config).unwrap();
        let local = mine(&db, &config);
        assert_eq!(gathered.levels, local.levels);
        assert_eq!(gathered.support_count, local.support_count);
        assert_eq!(gathered.chi2_cutoff.to_bits(), local.chi2_cutoff.to_bits());
        assert_eq!(gathered.significant.len(), local.significant.len());
        for (a, b) in gathered.significant.iter().zip(&local.significant) {
            assert_eq!(a.itemset, b.itemset);
            assert_eq!(a.chi2.statistic.to_bits(), b.chi2.statistic.to_bits());
            assert_eq!(a.support_cells, b.support_cells);
            assert_eq!(a.table, b.table);
        }
    }

    #[test]
    fn counter_errors_abort_the_run() {
        let db = bmb_datasets::parity_triple(200, 3);
        let marginals = crate::counting::Marginals {
            n_baskets: db.len() as u64,
            item_counts: db.item_counts().to_vec(),
        };
        let count = |_: &[Itemset]| -> Result<Vec<u64>, String> { Err("shard down".to_string()) };
        let err = mine_with_counter(&marginals, count, &base_config()).unwrap_err();
        assert_eq!(err, "shard down");
    }

    #[test]
    fn census_mine_matches_pairwise_verdicts() {
        // End-to-end: mining the simulated census at the paper's settings
        // finds exactly the pairs Table 2 bolds (all of which are minimal,
        // being pairs), minus none — the support test passes for every
        // pair at s = 1%, p = 0.26.
        let db = bmb_datasets::generate_census();
        let config = MinerConfig {
            support: SupportSpec::Fraction(0.01),
            support_fraction: 0.26,
            max_level: 2,
            ..MinerConfig::default()
        };
        let result = mine(&db, &config);
        let expected: Vec<(usize, usize)> = bmb_datasets::census::targets::PAIR_TARGETS
            .iter()
            .filter(|t| t.paper_significant())
            .map(|t| (t.a, t.b))
            .collect();
        assert_eq!(result.levels[0].candidates, 45);
        assert_eq!(result.significant.len(), expected.len());
        for (a, b) in expected {
            let set = Itemset::from_ids([a as u32, b as u32]);
            assert!(result.rule_for(&set).is_some(), "missing (i{a}, i{b})");
        }
    }
}
