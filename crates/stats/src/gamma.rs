//! Gamma-function machinery implemented from scratch.
//!
//! The chi-squared distribution's CDF is a regularized lower incomplete
//! gamma function, so everything in [`crate::chi2dist`] rests on this
//! module: a Lanczos approximation of `ln Γ`, the series expansion of
//! `P(a, x)` for small `x`, a modified-Lentz continued fraction of
//! `Q(a, x)` for large `x`, and Temme's uniform asymptotic expansion for
//! shapes of 10^8 and more.

/// Relative tolerance for the series / continued-fraction iterations.
const EPS: f64 = 1e-14;
/// Iteration cap; generous for small shapes, where convergence is
/// typically < 100 terms. The series adds `10·√a` for wide shapes.
const MAX_ITER: usize = 500;
/// Shape from which [`regularized_gamma_p`], [`regularized_gamma_q`] and
/// [`ln_regularized_gamma_q`] use Temme's uniform asymptotic expansion
/// instead of the series and continued fraction.
/// Those need O(√a) terms, and at a ≈ 10^19 their prefactor
/// `−x + a·ln x − ln Γ(a)` cancels to NaN in `f64`; the expansion is O(1)
/// and its first omitted term is of relative order 1/a, below 10^-8 here.
/// Dense tables (at most 24 items: a < 8.4·10^6 under any df convention)
/// never reach it, so their p-values are unchanged to the bit.
const LARGE_SHAPE: f64 = 1e8;

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey's values).
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)] // published constants, kept verbatim
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~14 significant digits via the Lanczos approximation with
/// reflection for `x < 0.5`.
///
/// # Panics
///
/// Panics if `x` is not finite or `x <= 0` on the reflected branch where
/// `Γ` has poles (non-positive integers).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma needs a finite argument, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        // `.abs() > 0.0` rejects both signed zeros (and NaN) — the poles
        // of Γ at the non-positive integers, where sin(πx) vanishes.
        assert!(
            sin_pi_x.abs() > 0.0,
            "ln_gamma has a pole at non-positive integer {x}"
        );
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, 0) = 0` and `P(a, ∞) = 1`. This is the chi-squared CDF with
/// `a = df/2`, `x = stat/2`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape parameter must be positive, got {a}");
    assert!(x >= 0.0, "argument must be non-negative, got {x}");
    // The asserted lower edge: the incomplete gamma integral is empty.
    if x <= 0.0 {
        return 0.0;
    }
    if a >= LARGE_SHAPE {
        return 1.0 - ln_gamma_q_uniform(a, x).exp();
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
///
/// Computed directly on the continued-fraction branch so the extreme upper
/// tail does not lose precision to cancellation.
pub fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape parameter must be positive, got {a}");
    assert!(x >= 0.0, "argument must be non-negative, got {x}");
    // The asserted lower edge: the incomplete gamma integral is empty.
    if x <= 0.0 {
        return 1.0;
    }
    if a >= LARGE_SHAPE {
        return ln_gamma_q_uniform(a, x).exp();
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Natural log of `Q(a, x)`, stable in the far upper tail where `Q`
/// underflows an `f64` (e.g. chi-squared statistics in the thousands).
pub fn ln_regularized_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape parameter must be positive, got {a}");
    assert!(x >= 0.0, "argument must be non-negative, got {x}");
    // The asserted lower edge: the incomplete gamma integral is empty.
    if x <= 0.0 {
        return 0.0;
    }
    if a >= LARGE_SHAPE {
        return ln_gamma_q_uniform(a, x);
    }
    if x < a + 1.0 {
        return (1.0 - gamma_p_series(a, x)).ln();
    }
    let h = gamma_q_continued_fraction_raw(a, x);
    -x + a * x.ln() - ln_gamma(a) + h.ln()
}

/// `ln Q(a, x)` by Temme's uniform asymptotic expansion, to its first
/// correction term:
///
/// `Q(a, x) ≈ ½·erfc(η·√(a/2)) + e^{−aη²/2} / √(2πa) · c₀(η)`,
///
/// with `λ = x/a`, `η²/2 = λ − 1 − ln λ`, `η` signed like `λ − 1`, and
/// `c₀(η) = 1/(λ − 1) − 1/η`. Uniform in `x`: it holds at the mean and in
/// the far tail alike. Both parts are kept in log form, through
/// `erfc(|y|) = Q(½, y²)`, so a tail far below `f64`'s range stays finite.
fn ln_gamma_q_uniform(a: f64, x: f64) -> f64 {
    // λ − 1, and λ − 1 − ln λ; near λ = 1 the difference cancels, so it
    // comes from its Taylor series t²/2 − t³/3 + t⁴/4 − t⁵/5 + t⁶/6 there.
    let t = x / a - 1.0;
    let near_mean = t.abs() < 1e-3;
    let half_eta_sq = if near_mean {
        t * t * (0.5 - t * (1.0 / 3.0 - t * (0.25 - t * (0.2 - t / 6.0))))
    } else {
        t - t.ln_1p()
    };
    let eta = (2.0 * half_eta_sq).sqrt().copysign(t);
    let c0 = if near_mean {
        -1.0 / 3.0 + eta / 12.0 - 2.0 * eta * eta / 135.0
    } else {
        1.0 / t - 1.0 / eta
    };
    // y = η·√(a/2), so y² = a·η²/2.
    let y_sq = a * half_eta_sq;
    let ln_half_erfc = if eta >= 0.0 {
        ln_regularized_gamma_q(0.5, y_sq) - std::f64::consts::LN_2
    } else {
        (1.0 - 0.5 * regularized_gamma_q(0.5, y_sq)).ln()
    };
    // The correction term relative to ½·erfc(y).
    let ratio = (-y_sq - ln_half_erfc).exp() * c0 / (2.0 * std::f64::consts::PI * a).sqrt();
    ln_half_erfc + ratio.ln_1p()
}

/// Series expansion: `P(a,x) = e^{−x} x^a / Γ(a) · Σ_k x^k / (a(a+1)...(a+k))`.
///
/// Near `x ≈ a` the terms shrink like `e^{−k²/2a}`, so the series needs
/// ~8√a terms to converge; the cap grows with the shape accordingly.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..MAX_ITER + (10.0 * a.sqrt()) as usize {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    let log_prefix = -x + a * x.ln() - ln_gamma(a);
    (sum * log_prefix.exp()).clamp(0.0, 1.0)
}

/// Modified Lentz evaluation of the continued fraction for `Q(a, x)`.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    let h = gamma_q_continued_fraction_raw(a, x);
    let log_prefix = -x + a * x.ln() - ln_gamma(a);
    (h * log_prefix.exp()).clamp(0.0, 1.0)
}

/// The continued-fraction factor `h` with `Q(a,x) = h · e^{−x} x^a / Γ(a)`.
fn gamma_q_continued_fraction_raw(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_at_integers_matches_factorials() {
        // Γ(n) = (n−1)!
        let mut fact = 1.0f64;
        for n in 1..=20u32 {
            close(ln_gamma(n as f64), fact.ln(), 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_at_half_integers() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12);
        close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12);
        close(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // Γ(x+1) = x·Γ(x) ⇒ lnΓ(x+1) = ln x + lnΓ(x)
        for &x in &[0.1, 0.9, 1.3, 4.7, 25.0, 100.5] {
            close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11);
        }
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(regularized_gamma_p(3.0, 0.0), 0.0);
        assert_eq!(regularized_gamma_q(3.0, 0.0), 1.0);
        close(regularized_gamma_p(1.0, 700.0), 1.0, 1e-12);
        assert!(regularized_gamma_q(1.0, 700.0) < 1e-300 * 1e10);
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // a = 1 ⇒ P(1, x) = 1 − e^{−x}.
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0] {
            close(regularized_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn gamma_p_half_matches_erf() {
        // P(1/2, x) = erf(√x); check against tabulated erf values.
        // erf(1) = 0.8427007929497149, erf(0.5) = 0.5204998778130465.
        close(
            regularized_gamma_p(0.5, 1.0),
            0.842_700_792_949_714_9,
            1e-10,
        );
        close(
            regularized_gamma_p(0.5, 0.25),
            0.520_499_877_813_046_5,
            1e-10,
        );
    }

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 55.0] {
            for &x in &[0.1, 1.0, 2.0, 9.0, 40.0, 120.0] {
                let p = regularized_gamma_p(a, x);
                let q = regularized_gamma_q(a, x);
                close(p + q, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_is_monotone_in_x() {
        let a = 3.7;
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.25;
            let p = regularized_gamma_p(a, x);
            assert!(p >= prev, "P({a},{x}) = {p} < previous {prev}");
            prev = p;
        }
    }

    /// `ln_sf` at the saturated df of an m-item table, df = 2^m − m − 1,
    /// where the shape a = df/2 runs far past the fixed iteration cap,
    /// and from m = 28 past [`LARGE_SHAPE`]. References: the normal limit
    /// with the one-term Edgeworth skew correction `φ(z)·(γ/6)·(z² − 1)`,
    /// γ = √(8/df): ln 0.5 at the mean (z = 0) once the correction
    /// vanishes, ≈ −6.6 at +3σ.
    #[test]
    fn chi2_ln_sf_holds_at_wide_saturated_df() {
        const NORMAL_PDF_0: f64 = 0.398_942_280_401_432_7;
        const NORMAL_PDF_3: f64 = 4.431_848_411_938_008e-3;
        const NORMAL_TAIL_3: f64 = 1.349_898_031_630_094_5e-3;
        for m in [10i32, 14, 17, 20, 24, 30, 40, 64] {
            let df = 2f64.powi(m) - f64::from(m) - 1.0;
            let dist = crate::chi2dist::ChiSquared::new(df);
            let skew = (8.0 / df).sqrt();
            let at_mean = dist.ln_sf(df);
            assert!(
                (at_mean - 0.5f64.ln()).abs() < 0.015,
                "m = {m}: ln_sf(df) = {at_mean}"
            );
            let expected = (0.5 - NORMAL_PDF_0 * skew / 6.0).ln();
            assert!(
                (at_mean - expected).abs() < 1e-3,
                "m = {m}: ln_sf(df) = {at_mean}, expected {expected}"
            );
            let at_3sigma = dist.ln_sf(df + 3.0 * (2.0 * df).sqrt());
            let expected = (NORMAL_TAIL_3 + NORMAL_PDF_3 * skew / 6.0 * 8.0).ln();
            assert!(
                (at_3sigma - expected).abs() < 0.03,
                "m = {m}: ln_sf at +3σ = {at_3sigma}, expected {expected}"
            );
            // The plain tail and the quantile (which solves the CDF) run
            // on the same branches: the 95% point sits at the normal z
            // plus its Cornish–Fisher skew term, (z² − 1)·γ/6.
            assert!((dist.sf(df).ln() - at_mean).abs() < 1e-9, "m = {m}");
            const Z_95: f64 = 1.644_853_626_951_472_2;
            let z = (dist.quantile(0.95) - df) / (2.0 * df).sqrt();
            let expected = Z_95 + (Z_95 * Z_95 - 1.0) * skew / 6.0;
            assert!(
                (z - expected).abs() < 1e-3,
                "m = {m}: 95% point at z = {z}, expected {expected}"
            );
        }
    }

    /// Dense tables stay below [`LARGE_SHAPE`] under any df convention, so
    /// their p-values are those of the series and continued fraction, to
    /// the bit: `ln_sf` at the mean, at +3σ and at 4·df of the saturated
    /// df of every width m ≤ 24, as computed before the expansion existed.
    #[test]
    fn dense_table_p_values_keep_their_bits() {
        const PINNED: [(i32, u64, u64, u64); 23] = [
            (
                2,
                0xbff25db19d4b92cd,
                0xc00e84ed37eb2532,
                0xc008b8656620acce,
            ),
            (
                3,
                0xbfecd82b0aa5f9d9,
                0xc0110cf56204f192,
                0xc017360ac2a97e7b,
            ),
            (
                4,
                0xbfea08f0c8d67d68,
                0xc012e2ff7a5f3c42,
                0xc027aa125a13fafc,
            ),
            (
                5,
                0xbfe8a237d5c530af,
                0xc0147e7d9061a396,
                0xc038512458274339,
            ),
            (
                6,
                0xbfe7d0f96662e5fe,
                0xc015d7e78ecb2d4e,
                0xc048d9c1d6f11e6a,
            ),
            (
                7,
                0xbfe74c819cbc402b,
                0xc016f1c84537392a,
                0xc059395432f84e59,
            ),
            (
                8,
                0xbfe6f4b560c5b4b2,
                0xc017d2087d0f9bf8,
                0xc069771f48dbe8f2,
            ),
            (
                9,
                0xbfe6b8f43e5edc0a,
                0xc01880519b949336,
                0xc0799d28eb2aab01,
            ),
            (
                10,
                0xbfe68fa62a49cf93,
                0xc019050298b989b8,
                0xc089b3cb48b121a0,
            ),
            (
                11,
                0xbfe672d5b42f8fc6,
                0xc019684bca459183,
                0xc099c0eecdcb0382,
            ),
            (
                12,
                0xbfe65ea00506fa84,
                0xc019b18ccf79f6db,
                0xc0a9c86acc73a216,
            ),
            (
                13,
                0xbfe65067ae65baca,
                0xc019e7015f832aa7,
                0xc0b9cc9e3983ee95,
            ),
            (
                14,
                0xbfe646615baa3a6f,
                0xc01a0daf98dc6f2b,
                0xc0c9cef2bdbd8850,
            ),
            (
                15,
                0xbfe63f4e1c601c08,
                0xc01a297fc8a7f25c,
                0xc0d9d03a6d23fe75,
            ),
            (
                16,
                0xbfe63a4ee3cd2481,
                0xc01a3d67b5416101,
                0xc0e9d0ecfd47aaf1,
            ),
            (
                17,
                0xbfe636c709068141,
                0xc01a4b9a729c9aa4,
                0xc0f9d14da210886b,
            ),
            (
                18,
                0xbfe634483b5d02ac,
                0xc01a55b493e1c897,
                0xc109d181a2f32ac0,
            ),
            (
                19,
                0xbfe63284ad987042,
                0xc01a5ce158cd2e8e,
                0xc119d19d7aad012a,
            ),
            (
                20,
                0xbfe6314573ba9314,
                0xc01a61f83a711ced,
                0xc129d1ac5230b9c7,
            ),
            (
                21,
                0xbfe63063c28e1af3,
                0xc01a6593904e84ee,
                0xc139d1b433c6ab63,
            ),
            (
                22,
                0xbfe62fc4300be154,
                0xc01a68217eea6138,
                0xc149d1b85f7bdd9f,
            ),
            (
                23,
                0xbfe62f535a2103f3,
                0xc01a69f06a4fb38e,
                0xc159d1ba92cb9fcf,
            ),
            (
                24,
                0xbfe62f0396668be3,
                0xc01a6b3802b338ce,
                0xc169d1bbbb2e18c2,
            ),
        ];
        for (m, at_mean, at_3sigma, at_4df) in PINNED {
            let df = 2f64.powi(m) - f64::from(m) - 1.0;
            assert!(df / 2.0 < LARGE_SHAPE);
            let dist = crate::chi2dist::ChiSquared::new(df);
            let got = [
                dist.ln_sf(df),
                dist.ln_sf(df + 3.0 * (2.0 * df).sqrt()),
                dist.ln_sf(4.0 * df),
            ];
            assert_eq!(
                got.map(f64::to_bits),
                [at_mean, at_3sigma, at_4df],
                "m = {m}"
            );
        }
    }

    /// Where the series and continued fraction still converge (a of 10^6
    /// to 10^7), the expansion agrees with them to its O(1/a) error, from
    /// below the mean to far in the tail.
    #[test]
    fn uniform_expansion_matches_the_exact_branches_at_large_shapes() {
        for a in [1e6f64, 8e6] {
            let sd = a.sqrt();
            for x in [
                a - 4.0 * sd,
                a - sd,
                a,
                a + 0.5,
                a + sd,
                a + 5.0 * sd,
                1.2 * a,
                2.0 * a,
            ] {
                let exact = if x < a + 1.0 {
                    (1.0 - gamma_p_series(a, x)).ln()
                } else {
                    -x + a * x.ln() - ln_gamma(a) + gamma_q_continued_fraction_raw(a, x).ln()
                };
                let uniform = ln_gamma_q_uniform(a, x);
                assert!(
                    (uniform - exact).abs() <= 1e-5 * (1.0 + exact.abs()),
                    "a = {a}, x = {x}: uniform {uniform}, exact {exact}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_shape_panics() {
        regularized_gamma_p(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_argument_panics() {
        regularized_gamma_p(1.0, -0.5);
    }
}
