//! Quest reports: Table 5 (pruning effectiveness) and scaling sweeps.
//!
//! Calibration notes (full detail in EXPERIMENTS.md): the paper does not
//! print its absolute support threshold. We choose `s = 1.5%` because it
//! puts the level-2 row close to the published numbers (CAND₂ 8778 vs
//! 8019, NOTSIG₂ 3664 vs 3582). The level-3 candidate count
//! is the one quantity the published description does not pin down — it
//! depends on the *triangle density* of the NOTSIG pair graph, a
//! microstructural property of the authors' Quest binary's output — so the
//! report prints our measured row next to the paper's and the discussion
//! lives in EXPERIMENTS.md. Both degrees-of-freedom conventions are run:
//! the paper's single-df everywhere, and the saturated-model df whose
//! deep-level behaviour (SIG₃ ≪ SIG₂, early termination) matches the
//! published shape.

use bmb_core::{mine, LevelStats, MinerConfig, MiningResult, SupportSpec};
use bmb_quest::{generate, QuestParams};
use bmb_stats::DfConvention;

use crate::table::TextTable;
use crate::timed;

/// The paper's Table 5 rows, for side-by-side display.
pub const PAPER_TABLE5: [LevelStats; 3] = [
    LevelStats {
        level: 2,
        lattice_itemsets: 378_015,
        candidates: 8019,
        discards: 323,
        significant: 4114,
        not_significant: 3582,
    },
    LevelStats {
        level: 3,
        lattice_itemsets: 109_372_340,
        candidates: 782,
        discards: 647,
        significant: 17,
        not_significant: 118,
    },
    LevelStats {
        level: 4,
        lattice_itemsets: 23_706_454_695,
        candidates: 0,
        discards: 0,
        significant: 0,
        not_significant: 0,
    },
];

/// Miner settings for the Quest workload (see module docs for the
/// calibration rationale).
pub fn quest_config(threads: usize) -> MinerConfig {
    MinerConfig {
        support: SupportSpec::Fraction(0.015),
        support_fraction: 0.45,
        low_expectation_cutoff: Some(1.0),
        max_level: 5,
        threads,
        ..MinerConfig::default()
    }
}

/// Renders measured level stats against the paper's Table 5.
pub fn render_table5(label: &str, result: &MiningResult, n: usize, k: usize) -> String {
    let mut table = TextTable::new([
        "level",
        "itemsets",
        "CAND",
        "discards",
        "SIG",
        "NOTSIG",
        "| paper CAND",
        "discards",
        "SIG",
        "NOTSIG",
    ]);
    let max_rows = result.levels.len().max(PAPER_TABLE5.len());
    for i in 0..max_rows {
        let level = i + 2;
        let measured = result.levels.get(i).copied().unwrap_or(LevelStats {
            level,
            lattice_itemsets: bmb_core::lattice_level_size(k, level),
            ..Default::default()
        });
        let paper = PAPER_TABLE5.get(i).copied().unwrap_or(LevelStats {
            level,
            ..Default::default()
        });
        table.row([
            level.to_string(),
            measured.lattice_itemsets.to_string(),
            measured.candidates.to_string(),
            measured.discards.to_string(),
            measured.significant.to_string(),
            measured.not_significant.to_string(),
            format!("| {}", paper.candidates),
            paper.discards.to_string(),
            paper.significant.to_string(),
            paper.not_significant.to_string(),
        ]);
    }
    format!(
        "Table 5 [{label}] — pruning effectiveness on Quest synthetic data\n\
         (n = {n}, k = {k}, |T| = 20, |I| = 4; s = 1.5%, p = 0.45, alpha = 95%,\n\
         cells with E < 1 ignored per Section 3.3; right columns = paper)\n\n{}",
        table.render()
    )
}

/// The full Table 5 experiment.
pub fn table5(threads: usize) -> String {
    table5_at(QuestParams::paper_table5(), threads)
}

/// A reduced-scale variant for quick runs and tests (10% of the baskets).
pub fn table5_small(threads: usize) -> String {
    table5_at(
        QuestParams {
            n_transactions: 10_000,
            ..QuestParams::paper_table5()
        },
        threads,
    )
}

fn table5_at(params: QuestParams, threads: usize) -> String {
    let (db, gen_secs) = timed(|| generate(&params));
    let (paper_df, paper_secs) = timed(|| mine(&db, &quest_config(threads)));
    let (saturated, saturated_secs) = timed(|| {
        mine(
            &db,
            &MinerConfig {
                df: DfConvention::Saturated,
                ..quest_config(threads)
            },
        )
    });
    let mut out = render_table5(
        "paper single-df convention",
        &paper_df,
        db.len(),
        db.n_items(),
    );
    out.push('\n');
    out.push_str(&render_table5(
        "saturated-df convention",
        &saturated,
        db.len(),
        db.n_items(),
    ));
    out.push_str(&format!(
        "\ngeneration: {gen_secs:.1}s; mining: {paper_secs:.1}s (single-df), {saturated_secs:.1}s (saturated)\n\
         (paper: 2349s CPU on a 166 MHz Pentium Pro)\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_are_internally_consistent() {
        for row in PAPER_TABLE5 {
            assert!(row.is_consistent(), "{row:?}");
        }
    }

    #[test]
    fn small_run_shows_the_pruning_shape() {
        // The qualitative claims of Section 5.3 at reduced scale: level-1
        // pruning cuts the lattice by orders of magnitude, and the search
        // terminates within the level cap.
        let params = QuestParams {
            n_transactions: 10_000,
            ..QuestParams::paper_table5()
        };
        let db = generate(&params);
        let result = mine(&db, &quest_config(4));
        let l2 = result.levels[0];
        assert!(l2.candidates > 0);
        assert!(
            (l2.candidates as u64) < l2.lattice_itemsets / 20,
            "level-1 pruning ineffective: {} of {}",
            l2.candidates,
            l2.lattice_itemsets
        );
        for level in &result.levels {
            assert!(level.is_consistent());
        }
        assert!(result.levels.len() <= 4, "level cap respected");
    }

    #[test]
    fn saturated_df_tames_deep_levels() {
        // Under the saturated convention, deep levels face cutoffs that
        // grow with 2^m, so level-3 significance falls below level-2 — the
        // direction of the paper's published rows (17 vs 4114; the full
        // 99,997-basket run in EXPERIMENTS.md shows a 5.3x collapse).
        let params = QuestParams {
            n_transactions: 6_000,
            ..QuestParams::paper_table5()
        };
        let db = generate(&params);
        let paper_df = mine(&db, &quest_config(1));
        let saturated = mine(
            &db,
            &MinerConfig {
                df: DfConvention::Saturated,
                ..quest_config(1)
            },
        );
        let sig2 = saturated.levels[0].significant;
        let sig3 = saturated.levels.get(1).map_or(0, |l| l.significant);
        assert!(sig2 > 0);
        assert!(
            sig3 < sig2,
            "saturated df should reduce level-3 significance: {sig3} vs {sig2}"
        );
        // And it is strictly more conservative than the paper convention.
        let paper_sig3 = paper_df.levels.get(1).map_or(0, |l| l.significant);
        assert!(sig3 <= paper_sig3);
    }

    #[test]
    fn full_paper_workload_pins_the_level_2_row() {
        // The level-2 row that EXPERIMENTS.md and repro_all_output.txt
        // record for the full 99,997-basket workload. Pairs have one
        // degree of freedom under both conventions, so the rows agree.
        let db = generate(&QuestParams::paper_table5());
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let recorded = LevelStats {
            level: 2,
            lattice_itemsets: 378_015,
            candidates: 8_778,
            discards: 4,
            significant: 5_110,
            not_significant: 3_664,
        };
        for df in [DfConvention::PaperSingle, DfConvention::Saturated] {
            let config = MinerConfig {
                df,
                max_level: 2,
                ..quest_config(threads)
            };
            let result = mine(&db, &config);
            assert_eq!(result.levels, [recorded], "{df:?}");
        }
    }

    #[test]
    fn render_includes_paper_columns() {
        let db = generate(&QuestParams {
            n_transactions: 1000,
            n_items: 50,
            n_patterns: 20,
            ..QuestParams::default()
        });
        let result = mine(&db, &quest_config(1));
        let rendered = render_table5("test", &result, db.len(), db.n_items());
        assert!(rendered.contains("| 8019"));
        assert!(rendered.contains("Table 5"));
    }
}
