//! Configuration of the `x²-support` miner (Figure 1 of the paper).

use bmb_stats::DfConvention;

/// Minimum cell support `s`, as an absolute count or fraction of `n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SupportSpec {
    /// At least this many baskets in a cell.
    Count(u64),
    /// At least this fraction of all baskets in a cell (the paper's census
    /// run uses 1%, i.e. count 304 of 30,370).
    Fraction(f64),
}

impl SupportSpec {
    /// Resolves to an absolute count for a database of `n` baskets.
    pub fn to_count(self, n: u64) -> u64 {
        match self {
            SupportSpec::Count(c) => c,
            SupportSpec::Fraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "support fraction out of range: {f}"
                );
                (f * n as f64).ceil() as u64
            }
        }
    }
}

/// How candidate pairs are formed at level 1 (the paper's Step 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Level1Prune {
    /// The paper's Step 3 verbatim: keep `{i_a, i_b}` only when *both*
    /// `O(i_a) >= s` and `O(i_b) >= s`. Aggressive: a pair of one rare and
    /// one common item can still meet cell support through the
    /// rare-absent cells, so this can miss borderline pairs — but it is
    /// what produced the paper's Table 5 candidate counts.
    #[default]
    PaperBothFrequent,
    /// Sound variant: prune only pairs where *neither* item reaches `s`
    /// (then at most the both-absent cell can reach `s`, which cannot
    /// satisfy `p > 0.25` of 4 cells). Never loses a supported pair.
    BothRare,
    /// No level-1 pruning: all `C(k,2)` pairs become candidates.
    Off,
}

/// Full miner configuration.
#[derive(Clone, Copy, Debug)]
pub struct MinerConfig {
    /// Chi-squared significance level α (the paper uses 0.95).
    pub alpha: f64,
    /// Cell support threshold `s`.
    pub support: SupportSpec,
    /// Support fraction `p`: at least this fraction of the contingency
    /// table's cells must have observed count `>= s`. The paper requires
    /// `p > 0.25` for level-1 pruning to be available.
    pub support_fraction: f64,
    /// Level-1 candidate pruning policy.
    pub level1: Level1Prune,
    /// Hard cap on itemset size (`usize::MAX` for none).
    pub max_level: usize,
    /// Degrees-of-freedom convention for the chi-squared cutoff.
    pub df: DfConvention,
    /// Optionally ignore cells with expectation below this in the χ²
    /// statistic (Section 3.3's workaround).
    pub low_expectation_cutoff: Option<f64>,
    /// Worker threads for candidate counting and evaluation (1 = sequential).
    pub threads: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            alpha: 0.95,
            support: SupportSpec::Fraction(0.01),
            support_fraction: 0.3,
            level1: Level1Prune::default(),
            max_level: usize::MAX,
            df: DfConvention::PaperSingle,
            low_expectation_cutoff: None,
            threads: 1,
        }
    }
}

impl MinerConfig {
    /// The paper's census-experiment settings: α = 95%, s = 1%, p just
    /// above 25% so one-in-four cells suffices at level 2.
    pub fn paper_census() -> Self {
        MinerConfig {
            support_fraction: 0.26,
            ..Default::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range α or support fraction, on zero threads, or —
    /// per the paper's Step 3 precondition — when level-1 pruning is
    /// requested with `p <= 0.25`.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0,1)"
        );
        assert!(
            self.support_fraction > 0.0 && self.support_fraction <= 1.0,
            "support fraction must be in (0,1]"
        );
        assert!(self.threads >= 1, "need at least one thread");
        if self.level1 == Level1Prune::PaperBothFrequent {
            assert!(
                self.support_fraction > 0.25,
                "the paper's level-1 pruning requires p > 0.25 (got {})",
                self.support_fraction
            );
        }
        if let SupportSpec::Fraction(f) = self.support {
            assert!(
                (0.0..=1.0).contains(&f),
                "support fraction out of range: {f}"
            );
        }
    }

    /// Cells required for support in an `m`-item table:
    /// `ceil(p · 2^m)`, at least 1.
    pub fn cells_required(&self, dims: usize) -> usize {
        let cells = (1u64 << dims) as f64;
        ((self.support_fraction * cells).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_resolution() {
        assert_eq!(SupportSpec::Fraction(0.01).to_count(30_370), 304);
        assert_eq!(SupportSpec::Fraction(0.01).to_count(99_997), 1000);
        assert_eq!(SupportSpec::Count(42).to_count(1), 42);
    }

    #[test]
    fn cells_required_by_level() {
        let config = MinerConfig {
            support_fraction: 0.26,
            ..Default::default()
        };
        assert_eq!(config.cells_required(2), 2); // ceil(0.26·4)
        assert_eq!(config.cells_required(3), 3); // ceil(0.26·8)
        let quarter = MinerConfig {
            support_fraction: 0.25,
            level1: Level1Prune::Off,
            ..Default::default()
        };
        assert_eq!(quarter.cells_required(2), 1);
        assert_eq!(quarter.cells_required(3), 2);
    }

    #[test]
    fn default_config_validates() {
        MinerConfig::default().validate();
        MinerConfig::paper_census().validate();
    }

    #[test]
    #[should_panic(expected = "p > 0.25")]
    fn paper_prune_demands_p_above_quarter() {
        MinerConfig {
            support_fraction: 0.2,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        MinerConfig {
            alpha: 1.0,
            ..Default::default()
        }
        .validate();
    }
}
