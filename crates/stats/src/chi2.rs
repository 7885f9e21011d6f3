//! The chi-squared test for independence over contingency tables.
//!
//! For an itemset `S` with table cells `r`, the statistic is
//!
//! ```text
//! χ² = Σ_r (O(r) − E[r])² / E[r]
//! ```
//!
//! compared against the cutoff `χ²_α`. Following Appendix A of the paper,
//! the binomial (presence/absence) table is treated as having **one degree
//! of freedom regardless of the itemset size** — that single-df convention
//! is what makes Theorem 1's upward closure argument go through, and it is
//! the convention all of the paper's numbers (3.84 cutoff everywhere) use.
//! The saturated-model df `2^m − m − 1` is also exposed for users who want
//! the orthodox test.
//!
//! Sparse tables use the paper's massaged form
//! `χ² = Σ_{O(r)>0} O(r)(O(r) − 2E[r])/E[r] + Σ_r E[r]`, so only occupied
//! cells are visited (`Σ_r E[r] = n`).

use bmb_basket::categorical::CategoricalTable;
use bmb_basket::contingency::expected_count;
use bmb_basket::{CellMask, ContingencyTable, SparseContingencyTable, MAX_DENSE_DIMS};

use crate::chi2dist::ChiSquared;
use crate::critical::SignificanceLevel;

/// Which degrees-of-freedom convention to use for binary tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DfConvention {
    /// The paper's Appendix A: always one degree of freedom.
    #[default]
    PaperSingle,
    /// The saturated independence model: `2^m − m − 1` for an `m`-itemset
    /// (reduces to 1 for pairs, matching the classic 2×2 test).
    Saturated,
}

impl DfConvention {
    /// Degrees of freedom for an `m`-item presence/absence table.
    pub fn df_for_dims(self, m: usize) -> f64 {
        match self {
            DfConvention::PaperSingle => 1.0,
            DfConvention::Saturated => {
                // 2^m in f64 is exact, and cannot overflow a shift for
                // sparse tables of up to 64 items.
                let cells = 2f64.powi(m as i32);
                (cells - m as f64 - 1.0).max(1.0)
            }
        }
    }
}

/// Configuration for the chi-squared test.
///
/// The cutoff `χ²_α` depends only on the significance level and the
/// degrees of freedom, so [`Chi2Test::new`] solves it up front for every
/// table width and stores it: testing a table never inverts the
/// distribution.
#[derive(Clone, Copy, Debug)]
pub struct Chi2Test {
    level: SignificanceLevel,
    df: DfConvention,
    low_expectation_cutoff: Option<f64>,
    /// `χ²_α` at `df.df_for_dims(m)`, indexed by the table width `m`.
    cutoffs: [f64; MAX_DENSE_DIMS + 1],
}

impl Default for Chi2Test {
    fn default() -> Self {
        Chi2Test::new(0.95, DfConvention::PaperSingle, None)
    }
}

/// Outcome of one chi-squared test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chi2Outcome {
    /// The statistic value.
    pub statistic: f64,
    /// Degrees of freedom used for the cutoff.
    pub df: f64,
    /// The cutoff `χ²_α`.
    pub cutoff: f64,
    /// Whether the statistic meets or exceeds the cutoff.
    pub significant: bool,
    /// Natural log of the p-value `P[χ² > statistic]`.
    pub ln_p_value: f64,
    /// Number of cells that were skipped by the low-expectation policy.
    pub cells_ignored: usize,
}

impl Chi2Outcome {
    /// The p-value; may underflow to zero for extreme statistics — use
    /// [`Chi2Outcome::ln_p_value`] when that matters.
    pub fn p_value(&self) -> f64 {
        self.ln_p_value.exp()
    }
}

impl Chi2Test {
    /// A test at significance level `alpha` with the given df convention.
    /// When `low_expectation_cutoff` is set, cells with expectation below
    /// it are excluded from the statistic — the paper's pragmatic answer
    /// to the normal approximation breaking down on rare cells
    /// (Section 3.3).
    ///
    /// Computes the cutoff `χ²_α` for every table width up to
    /// [`MAX_DENSE_DIMS`]: one quantile under
    /// [`DfConvention::PaperSingle`], one per width under
    /// [`DfConvention::Saturated`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64, df: DfConvention, low_expectation_cutoff: Option<f64>) -> Self {
        let level = SignificanceLevel::new(alpha);
        let cutoff_at = |m: usize| {
            let cutoff = ChiSquared::new(df.df_for_dims(m)).quantile(alpha);
            crate::contracts::assert_chi2_statistic("χ² cutoff", cutoff);
            cutoff
        };
        let cutoffs = match df {
            DfConvention::PaperSingle => [cutoff_at(1); MAX_DENSE_DIMS + 1],
            DfConvention::Saturated => std::array::from_fn(cutoff_at),
        };
        Chi2Test {
            level,
            df,
            low_expectation_cutoff,
            cutoffs,
        }
    }

    /// A test at significance level α with the paper's conventions.
    pub fn at_level(alpha: f64) -> Self {
        Chi2Test::new(alpha, DfConvention::PaperSingle, None)
    }

    /// The same test with a different low-expectation policy; the cutoffs
    /// do not depend on it and are kept.
    pub fn with_low_expectation_cutoff(self, low_expectation_cutoff: Option<f64>) -> Self {
        Chi2Test {
            low_expectation_cutoff,
            ..self
        }
    }

    /// Significance level α; the cutoff is `χ²_α` at the chosen df.
    pub fn level(&self) -> SignificanceLevel {
        self.level
    }

    /// Degrees-of-freedom convention for binary tables.
    pub fn df(&self) -> DfConvention {
        self.df
    }

    /// The expectation below which cells are excluded, if any.
    pub fn low_expectation_cutoff(&self) -> Option<f64> {
        self.low_expectation_cutoff
    }

    /// The cutoff `χ²_α` for an `m`-item presence/absence table.
    pub fn cutoff(&self, m: usize) -> f64 {
        match self.cutoffs.get(m) {
            Some(&cutoff) => cutoff,
            // Only sparse tables are wider than the stored range.
            None => ChiSquared::new(self.df.df_for_dims(m)).quantile(self.level.alpha()),
        }
    }

    /// Tests a dense presence/absence table.
    pub fn test_dense(&self, table: &ContingencyTable) -> Chi2Outcome {
        let (stat, ignored) = dense_statistic(table, self.low_expectation_cutoff);
        self.binary_outcome(stat, table.dims(), ignored)
    }

    /// [`Chi2Test::test_dense`]'s outcome when the table is significant,
    /// else `None`. The statistic is computed once, and the p-value is
    /// paid only when the statistic meets the cutoff: for callers that
    /// drop NOTSIG outcomes unread, like the miner.
    pub fn test_dense_if_significant(&self, table: &ContingencyTable) -> Option<Chi2Outcome> {
        let (stat, ignored) = dense_statistic(table, self.low_expectation_cutoff);
        let m = table.dims();
        (stat >= self.cutoff(m)).then(|| self.binary_outcome(stat, m, ignored))
    }

    /// The statistic [`Chi2Test::test_dense`] reports for the table of `n`
    /// baskets with item marginals `item_counts` and cell counts `counts`
    /// (indexed by [`CellMask`]), without building the table: a ranking
    /// key for callers that test only their best few tables in full.
    pub fn dense_statistic_of(&self, n: u64, item_counts: &[u64], counts: &[u64]) -> f64 {
        let cells = (0..).zip(counts.iter().copied());
        let expected = |cell| expected_count(n, item_counts, cell);
        statistic(cells, expected, self.low_expectation_cutoff).0
    }

    /// Tests a sparse table using the occupied-cells-only formula.
    ///
    /// The low-expectation policy cannot drop *unoccupied* cells here (they
    /// are never materialized); their aggregate expectation is retained in
    /// the `+ n` term, matching the paper's treatment.
    pub fn test_sparse(&self, table: &SparseContingencyTable) -> Chi2Outcome {
        let mut stat = table.n() as f64;
        let mut ignored = 0usize;
        for (cell, observed) in table.occupied_cells() {
            let expected = table.expected(cell);
            if let Some(cutoff) = self.low_expectation_cutoff {
                if expected < cutoff {
                    ignored += 1;
                    // Remove this cell's (O−E)²/E ≈ contribution entirely:
                    // we also must remove its E from the Σ E = n term so the
                    // skipped cell is fully excluded from the statistic.
                    stat -= expected;
                    continue;
                }
            }
            let o = observed as f64;
            stat += o * (o - 2.0 * expected) / expected;
            // Note: occupied cells always have expected > 0 unless an item
            // marginal is degenerate, which implies the cell is impossible.
        }
        self.binary_outcome(stat.max(0.0), table.dims(), ignored)
    }

    /// Tests a multinomial table with `Π (u_i − 1)` degrees of freedom.
    pub fn test_categorical(&self, table: &CategoricalTable) -> Chi2Outcome {
        let mut stat = 0.0;
        let mut ignored = 0usize;
        for (values, observed) in table.cells() {
            let expected = table.expected(&values);
            if let Some(cutoff) = self.low_expectation_cutoff {
                if expected < cutoff {
                    ignored += 1;
                    continue;
                }
            }
            if expected > 0.0 {
                let d = observed as f64 - expected;
                stat += d * d / expected;
            }
        }
        match table.degrees_of_freedom() {
            // One degree of freedom is the 2×2 case, stored under either
            // convention; wider tables are off the hot path.
            0 | 1 => self.outcome(stat, 1.0, self.cutoff(2), ignored),
            df => {
                let df = df as f64;
                let cutoff = ChiSquared::new(df).quantile(self.level.alpha());
                self.outcome(stat, df, cutoff, ignored)
            }
        }
    }

    /// The outcome for an `m`-item presence/absence table.
    pub(crate) fn binary_outcome(&self, statistic: f64, m: usize, ignored: usize) -> Chi2Outcome {
        self.outcome(statistic, self.df.df_for_dims(m), self.cutoff(m), ignored)
    }

    fn outcome(&self, statistic: f64, df: f64, cutoff: f64, cells_ignored: usize) -> Chi2Outcome {
        crate::contracts::assert_chi2_statistic("χ² statistic", statistic);
        let ln_p_value = ChiSquared::new(df).ln_sf(statistic);
        crate::contracts::assert_ln_probability("χ² ln p-value", ln_p_value);
        Chi2Outcome {
            statistic,
            df,
            cutoff,
            significant: statistic >= cutoff,
            ln_p_value,
            cells_ignored,
        }
    }
}

/// `Σ (O − E)²/E` over a dense table, skipping cells whose expectation is
/// below `low_expectation_cutoff`; returns the statistic and the number of
/// skipped cells.
fn dense_statistic(table: &ContingencyTable, low_expectation_cutoff: Option<f64>) -> (f64, usize) {
    crate::contracts::assert_table_consistent("χ² input table", table);
    statistic(
        table.cells(),
        |cell| table.expected(cell),
        low_expectation_cutoff,
    )
}

/// [`dense_statistic`] over `(cell, observed)` pairs in mask order, with
/// `expected` giving each cell's expectation.
fn statistic(
    cells: impl Iterator<Item = (CellMask, u64)>,
    expected: impl Fn(CellMask) -> f64,
    low_expectation_cutoff: Option<f64>,
) -> (f64, usize) {
    let mut stat = 0.0;
    let mut ignored = 0usize;
    for (cell, observed) in cells {
        let expected = expected(cell);
        if let Some(cutoff) = low_expectation_cutoff {
            if expected < cutoff {
                ignored += 1;
                continue;
            }
        }
        if expected > 0.0 {
            let d = observed as f64 - expected;
            stat += d * d / expected;
        }
        // expected == 0 forces observed == 0 (a zero marginal); the
        // cell's contribution is the 0/0 limit, i.e. zero.
    }
    (stat, ignored)
}

/// The raw statistic of a dense table (no significance machinery).
pub fn chi2_statistic(table: &ContingencyTable) -> f64 {
    dense_statistic(table, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::categorical::CategoricalTable;
    use bmb_basket::{BasketDatabase, ContingencyTable, Itemset, SparseContingencyTable};

    /// The paper's Example 3: the 9-basket census sample, items i8 and i9.
    /// Published table (rows i9/!i9 × cols i8/!i8):
    ///   O(i9 i8) = 1, O(i9 !i8) = 2, O(!i9 i8) = 4, O(!i9 !i8) = 2.
    /// χ² = 0.267 + 0.333 + 0.133 + 0.167 = 0.900, not significant.
    fn example3_table() -> ContingencyTable {
        // Our mask convention: bit0 = i8 present, bit1 = i9 present.
        let set = Itemset::from_ids([8, 9]);
        ContingencyTable::from_counts(set, vec![2, 4, 2, 1])
    }

    #[test]
    fn paper_example_3_statistic() {
        let outcome = Chi2Test::default().test_dense(&example3_table());
        assert!(
            (outcome.statistic - 0.900).abs() < 5e-4,
            "χ² = {}, expected 0.900",
            outcome.statistic
        );
        assert!(!outcome.significant, "0.900 < 3.84 must not be significant");
        assert_eq!(outcome.df, 1.0);
        assert!((outcome.cutoff - 3.841).abs() < 1e-3);
    }

    #[test]
    fn independent_table_scores_near_zero() {
        // Perfectly independent 2×2: O = E exactly.
        let set = Itemset::from_ids([0, 1]);
        let t = ContingencyTable::from_counts(set, vec![36, 24, 24, 16]);
        let outcome = Chi2Test::default().test_dense(&t);
        assert!(outcome.statistic.abs() < 1e-9);
        assert!(!outcome.significant);
        assert!((outcome.p_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_correlated_table_scores_n() {
        // Items always co-occur: all mass on the diagonal. For a 2×2 with
        // p = 1/2 marginals the statistic equals n.
        let set = Itemset::from_ids([0, 1]);
        let t = ContingencyTable::from_counts(set, vec![50, 0, 0, 50]);
        let outcome = Chi2Test::default().test_dense(&t);
        assert!((outcome.statistic - 100.0).abs() < 1e-9);
        assert!(outcome.significant);
    }

    #[test]
    fn sparse_matches_dense() {
        let db = BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0],
                vec![1, 2],
                vec![2],
                vec![],
                vec![0, 2],
                vec![1],
            ],
        );
        let test = Chi2Test::default();
        for set in [
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
        ] {
            let dense = test.test_dense(&ContingencyTable::from_database(&db, &set));
            let sparse = test.test_sparse(&SparseContingencyTable::from_database(&db, &set));
            assert!(
                (dense.statistic - sparse.statistic).abs() < 1e-9,
                "dense {} vs sparse {} for {set}",
                dense.statistic,
                sparse.statistic
            );
            assert_eq!(dense.significant, sparse.significant);
        }
    }

    #[test]
    fn degenerate_marginal_gives_zero_statistic() {
        // Item 1 never occurs: its cells are impossible, E = O = 0 there,
        // and the rest of the table is a perfect 1-dim fit.
        let set = Itemset::from_ids([0, 1]);
        let t = ContingencyTable::from_counts(set, vec![60, 40, 0, 0]);
        let outcome = Chi2Test::default().test_dense(&t);
        assert!(outcome.statistic.abs() < 1e-9);
    }

    #[test]
    fn saturated_df_convention() {
        assert_eq!(DfConvention::Saturated.df_for_dims(2), 1.0);
        assert_eq!(DfConvention::Saturated.df_for_dims(3), 4.0);
        assert_eq!(DfConvention::Saturated.df_for_dims(4), 11.0);
        assert_eq!(DfConvention::PaperSingle.df_for_dims(10), 1.0);
    }

    #[test]
    fn saturated_df_holds_at_sparse_widths() {
        // Sparse tables go up to 64 items. 2^64 − 65 rounds to 2^64 in
        // f64; the point is no shift overflow and no wrap to one degree of
        // freedom.
        assert_eq!(DfConvention::Saturated.df_for_dims(64), 2f64.powi(64));
        assert_eq!(
            DfConvention::Saturated.df_for_dims(40),
            2f64.powi(40) - 41.0
        );
        let cutoff = Chi2Test::new(0.95, DfConvention::Saturated, None).cutoff(64);
        assert!(
            cutoff.is_finite() && cutoff > 2f64.powi(64),
            "cutoff {cutoff}"
        );
    }

    #[test]
    fn test_dense_if_significant_is_test_dense_when_significant() {
        let tables = [
            example3_table(),
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![60, 40, 0, 0]),
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![978, 2, 10, 10]),
            ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![50, 0, 0, 50]),
            ContingencyTable::from_counts(
                Itemset::from_ids([0, 1, 2]),
                vec![9, 2, 3, 1, 4, 1, 2, 8],
            ),
        ];
        let mut seen = [false; 2];
        for df in [DfConvention::PaperSingle, DfConvention::Saturated] {
            for low in [None, Some(1.0)] {
                let test = Chi2Test::new(0.95, df, low);
                for table in &tables {
                    let full = test.test_dense(table);
                    seen[usize::from(full.significant)] = true;
                    match test.test_dense_if_significant(table) {
                        Some(outcome) => {
                            assert!(full.significant);
                            assert_eq!(outcome.statistic.to_bits(), full.statistic.to_bits());
                            assert_eq!(outcome.ln_p_value.to_bits(), full.ln_p_value.to_bits());
                            assert_eq!(outcome, full);
                        }
                        None => assert!(!full.significant),
                    }
                }
            }
        }
        assert_eq!(seen, [true, true], "both verdicts are exercised");
    }

    #[test]
    fn low_expectation_cells_can_be_ignored() {
        // A huge spike in one rare cell: with the policy off it dominates,
        // with the policy on it is excluded.
        let set = Itemset::from_ids([0, 1]);
        // marginals: item0 = 12/1000, item1 = 11/1000, E[both] ≈ 0.13.
        let t = ContingencyTable::from_counts(set, vec![978, 2, 10, 10]);
        let with = Chi2Test::default().test_dense(&t);
        let without = Chi2Test::default()
            .with_low_expectation_cutoff(Some(1.0))
            .test_dense(&t);
        assert!(without.cells_ignored >= 1);
        assert!(without.statistic < with.statistic);
    }

    #[test]
    fn categorical_two_by_two_agrees_with_binary() {
        // The 3×2 commute table from bmb-basket's tests, collapsed:
        // compare a 2×2 categorical against the equivalent binary table.
        let cat = CategoricalTable::from_matrix(2, 2, vec![20, 5, 70, 5]);
        let set = Itemset::from_ids([0, 1]);
        // Binary layout bit0 = row-0 ("tea"), bit1 = col-0 ("coffee"):
        // O(t,c) = 20, O(t,!c) = 5, O(!t,c) = 70, O(!t,!c) = 5.
        let bin = ContingencyTable::from_counts(set, vec![5, 5, 70, 20]);
        let a = Chi2Test::default().test_categorical(&cat);
        let b = Chi2Test::default().test_dense(&bin);
        assert!((a.statistic - b.statistic).abs() < 1e-9);
        assert_eq!(a.df, 1.0);
    }

    #[test]
    fn categorical_df_from_cardinalities() {
        let cat = CategoricalTable::from_matrix(3, 2, vec![30, 10, 5, 15, 5, 35]);
        let outcome = Chi2Test::default().test_categorical(&cat);
        assert_eq!(outcome.df, 2.0);
        assert!(outcome.significant); // strongly associated by construction
    }

    #[test]
    fn stored_cutoffs_match_the_quantile_to_the_bit() {
        for alpha in [0.90, 0.95, 0.975, 0.99] {
            for df in [DfConvention::PaperSingle, DfConvention::Saturated] {
                for low in [None, Some(1.0)] {
                    let test = Chi2Test::new(alpha, df, low);
                    for m in 1..=MAX_DENSE_DIMS {
                        let exact = ChiSquared::new(df.df_for_dims(m)).quantile(alpha);
                        assert_eq!(
                            test.cutoff(m).to_bits(),
                            exact.to_bits(),
                            "α = {alpha}, {df:?}, m = {m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn outcomes_carry_the_stored_cutoff() {
        let test = Chi2Test::new(0.99, DfConvention::Saturated, None);
        let db = BasketDatabase::from_id_baskets(
            3,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![2],
                vec![],
                vec![0, 2],
                vec![1],
            ],
        );
        let set = Itemset::from_ids([0, 1, 2]);
        let dense = test.test_dense(&ContingencyTable::from_database(&db, &set));
        let sparse = test.test_sparse(&SparseContingencyTable::from_database(&db, &set));
        assert_eq!(dense.df, 4.0);
        assert_eq!(dense.cutoff.to_bits(), test.cutoff(3).to_bits());
        assert_eq!(sparse.cutoff.to_bits(), test.cutoff(3).to_bits());
        let cat = CategoricalTable::from_matrix(2, 2, vec![20, 5, 70, 5]);
        let categorical = test.test_categorical(&cat);
        assert_eq!(categorical.cutoff.to_bits(), test.cutoff(2).to_bits());
    }

    #[test]
    fn g_test_uses_the_same_cutoff_as_test_dense() {
        for df in [DfConvention::PaperSingle, DfConvention::Saturated] {
            let test = Chi2Test::new(0.95, df, None);
            for table in [
                example3_table(),
                ContingencyTable::from_counts(
                    Itemset::from_ids([0, 1, 2]),
                    vec![9, 2, 3, 1, 4, 1, 2, 8],
                ),
            ] {
                let g = crate::gtest::g_test(&table, &test);
                let pearson = test.test_dense(&table);
                assert_eq!(g.df, pearson.df);
                assert_eq!(g.cutoff.to_bits(), pearson.cutoff.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "significance level")]
    fn new_rejects_alpha_of_one() {
        Chi2Test::new(1.0, DfConvention::PaperSingle, None);
    }

    #[test]
    #[should_panic(expected = "significance level")]
    fn new_rejects_alpha_of_zero() {
        Chi2Test::new(0.0, DfConvention::Saturated, None);
    }

    #[test]
    fn accessors_and_policy_swap_keep_the_cutoffs() {
        let test = Chi2Test::new(0.99, DfConvention::Saturated, None);
        let swapped = test.with_low_expectation_cutoff(Some(1.0));
        assert_eq!(swapped.level(), SignificanceLevel::P99);
        assert_eq!(swapped.df(), DfConvention::Saturated);
        assert_eq!(swapped.low_expectation_cutoff(), Some(1.0));
        assert_eq!(test.low_expectation_cutoff(), None);
        for m in 1..=MAX_DENSE_DIMS {
            assert_eq!(swapped.cutoff(m).to_bits(), test.cutoff(m).to_bits());
        }
    }

    #[test]
    fn chi2_statistic_matches_test_dense() {
        let table = example3_table();
        assert_eq!(
            chi2_statistic(&table).to_bits(),
            Chi2Test::default().test_dense(&table).statistic.to_bits()
        );
    }

    #[test]
    fn outcome_pvalue_consistency() {
        let outcome = Chi2Test::default().test_dense(&example3_table());
        // χ²(1) survival at 0.9 is about 0.3428.
        assert!((outcome.p_value() - 0.3428).abs() < 1e-3);
    }
}
