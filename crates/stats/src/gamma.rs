//! Gamma-function machinery implemented from scratch.
//!
//! The chi-squared distribution's CDF is a regularized lower incomplete
//! gamma function, so everything in [`crate::chi2dist`] rests on this
//! module: a Lanczos approximation of `ln Γ`, the series expansion of
//! `P(a, x)` for small `x`, and a modified-Lentz continued fraction of
//! `Q(a, x)` for large `x`.

/// Relative tolerance for the series / continued-fraction iterations.
const EPS: f64 = 1e-14;
/// Iteration cap; generous for small shapes, where convergence is
/// typically < 100 terms. The series adds `10·√a` for wide shapes.
const MAX_ITER: usize = 500;

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
    if x < a + 1.0 {
        return (1.0 - gamma_p_series(a, x)).ln();
    }
    let h = gamma_q_continued_fraction_raw(a, x);
    -x + a * x.ln() - ln_gamma(a) + h.ln()
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
    /// where the shape a = df/2 runs far past the fixed iteration cap.
    /// References: the normal limit with the one-term Edgeworth skew
    /// correction `φ(z)·(γ/6)·(z² − 1)`, γ = √(8/df): ln 0.5 at the mean
    /// (z = 0) once the correction vanishes, ≈ −6.6 at +3σ.
    #[test]
    fn chi2_ln_sf_holds_at_wide_saturated_df() {
        const NORMAL_PDF_0: f64 = 0.398_942_280_401_432_7;
        const NORMAL_PDF_3: f64 = 4.431_848_411_938_008e-3;
        const NORMAL_TAIL_3: f64 = 1.349_898_031_630_094_5e-3;
        for m in [10u32, 14, 17, 20, 24, 30] {
            let df = ((1u64 << m) - u64::from(m) - 1) as f64;
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
