//! Pairwise correlation analysis over *multi-valued* attributes.
//!
//! Section 5.1: "Since the chi-squared test extends easily to non-binary
//! data, we can analyze correlations between multiple-choice answers such
//! as those found in census forms." This module runs the Table 2 style
//! pairwise sweep over a [`bmb_basket::categorical::CategoricalData`]
//! table: χ² with the Appendix A degrees of freedom `Π(uᵢ−1)`, Cramér's V
//! as the size-free effect measure, and per-cell interest to locate the
//! dependence.

use bmb_basket::categorical::{CategoricalData, CategoricalTable};
use bmb_stats::{cramers_v_categorical, Chi2Outcome, Chi2Test};

/// The row for one attribute pair.
#[derive(Clone, Debug)]
pub struct CategoricalPairCorrelation {
    /// First attribute position.
    pub a: usize,
    /// Second attribute position.
    pub b: usize,
    /// Chi-squared outcome with `(u_a − 1)(u_b − 1)` degrees of freedom.
    pub chi2: Chi2Outcome,
    /// Cramér's V — comparable across tables of different shapes.
    pub cramers_v: f64,
    /// The cell with the largest χ² contribution: `(value_a, value_b,
    /// observed, expected)`.
    pub major_dependence: (usize, usize, u64, f64),
    /// The full contingency table, for downstream inspection.
    pub table: CategoricalTable,
}

impl CategoricalPairCorrelation {
    /// Interest `O/E` of the major-dependence cell (∞ when E = 0 < O).
    pub fn major_interest(&self) -> f64 {
        let (_, _, observed, expected) = self.major_dependence;
        if expected > 0.0 {
            observed as f64 / expected
        } else if observed == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    }
}

/// Analyzes one attribute pair.
///
/// # Panics
///
/// Panics if `a == b` or either position is out of range.
pub fn categorical_pair(
    data: &CategoricalData,
    a: usize,
    b: usize,
    test: &Chi2Test,
) -> CategoricalPairCorrelation {
    let table = data.contingency(&[a, b]);
    let chi2 = test.test_categorical(&table);
    let cramers_v = cramers_v_categorical(&table);
    let mut major = (0usize, 0usize, 0u64, 0.0f64);
    let mut best_contribution = -1.0f64;
    for (values, observed) in table.cells() {
        let expected = table.expected(&values);
        let contribution = if expected > 0.0 {
            let d = observed as f64 - expected;
            d * d / expected
        } else {
            0.0
        };
        if contribution > best_contribution {
            best_contribution = contribution;
            major = (values[0], values[1], observed, expected);
        }
    }
    CategoricalPairCorrelation {
        a,
        b,
        chi2,
        cramers_v,
        major_dependence: major,
        table,
    }
}

/// The full pairwise sweep, in `(a, b)` order.
pub fn categorical_pairs_report(
    data: &CategoricalData,
    test: &Chi2Test,
) -> Vec<CategoricalPairCorrelation> {
    let k = data.attributes().len();
    let mut out = Vec::with_capacity(k * (k.saturating_sub(1)) / 2);
    for a in 0..k {
        for b in a + 1..k {
            out.push(categorical_pair(data, a, b, test));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::categorical::Attribute;

    /// 3×2 data with a strong planted association.
    fn data() -> CategoricalData {
        let mut d = CategoricalData::new(vec![
            Attribute::new("color", ["red", "green", "blue"]),
            Attribute::new("size", ["small", "large"]),
            Attribute::new("noise", ["x", "y"]),
        ]);
        let mut push = |color: u16, size: u16, noise: u16, count: usize| {
            for _ in 0..count {
                d.push_record(&[color, size, noise]);
            }
        };
        // red↔small, blue↔large; noise alternates independently.
        push(0, 0, 0, 40);
        push(0, 0, 1, 40);
        push(1, 0, 0, 20);
        push(1, 1, 1, 20);
        push(2, 1, 0, 40);
        push(2, 1, 1, 40);
        d
    }

    #[test]
    fn planted_association_found_with_correct_df() {
        let rows = categorical_pairs_report(&data(), &Chi2Test::default());
        assert_eq!(rows.len(), 3);
        let color_size = &rows[0];
        assert_eq!((color_size.a, color_size.b), (0, 1));
        assert_eq!(color_size.chi2.df, 2.0); // (3−1)(2−1)
        assert!(color_size.chi2.significant);
        assert!(color_size.cramers_v > 0.8);
    }

    #[test]
    fn noise_attribute_is_uncorrelated() {
        let rows = categorical_pairs_report(&data(), &Chi2Test::default());
        let color_noise = rows.iter().find(|r| (r.a, r.b) == (0, 2)).unwrap();
        assert!(
            !color_noise.chi2.significant,
            "χ² = {}",
            color_noise.chi2.statistic
        );
        assert!(color_noise.cramers_v < 0.12);
    }

    #[test]
    fn major_dependence_points_at_the_planted_cell() {
        let row = categorical_pair(&data(), 0, 1, &Chi2Test::default());
        let (a_val, b_val, observed, expected) = row.major_dependence;
        // red∧large and blue∧small are impossible (strongest deviations);
        // red∧small / blue∧large are the strong positives. Any of those four
        // may top the contribution list, but interest must be extreme.
        assert!(
            observed as f64 >= 1.9 * expected || (observed == 0 && expected > 10.0),
            "major cell ({a_val},{b_val}): O = {observed}, E = {expected}"
        );
        let interest = row.major_interest();
        assert!(interest > 1.5 || interest < 0.3);
    }

    #[test]
    fn expanded_census_sweep() {
        // End to end with the non-collapsed census: every age/commute/
        // marital pairing is significant; military vs commute is the
        // weakest association.
        let data = bmb_datasets::expanded_census(42);
        let rows = categorical_pairs_report(&data, &Chi2Test::default());
        assert_eq!(rows.len(), 6);
        let get = |a: usize, b: usize| rows.iter().find(|r| (r.a, r.b) == (a, b)).unwrap();
        use bmb_datasets::census::expanded::attr;
        assert!(get(attr::COMMUTE, attr::AGE).chi2.significant);
        assert!(get(attr::COMMUTE, attr::MARITAL).chi2.significant);
        // The planted story: age explains commute better than marriage does.
        assert!(
            get(attr::COMMUTE, attr::AGE).cramers_v > get(attr::COMMUTE, attr::MARITAL).cramers_v
        );
    }
}
