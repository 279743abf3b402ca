//! Synthetic signal generators with known fractal / multifractal ground
//! truth.
//!
//! Every estimator in this crate is validated against these generators
//! (experiment E5 in DESIGN.md): fractional Gaussian noise and fractional
//! Brownian motion with prescribed Hurst exponent `H`, Weierstrass series
//! with uniform Hölder exponent `h`, and binomial multiplicative cascades
//! with a closed-form multifractal spectrum.
//!
//! All stochastic generators take an explicit seed and are fully
//! deterministic.

use crate::fft::{fft, Complex};
use aging_timeseries::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest `n` accepted by the exact `O(n²)` Hosking generator.
pub const HOSKING_MAX_N: usize = 16_384;

/// Draws one standard normal variate via the Marsaglia polar method.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Autocovariance of unit-variance fractional Gaussian noise at lag `k`:
/// `γ(k) = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`.
pub fn fgn_autocovariance(hurst: f64, k: usize) -> f64 {
    let h2 = 2.0 * hurst;
    let k = k as f64;
    0.5 * ((k + 1.0).powf(h2) - 2.0 * k.powf(h2) + (k - 1.0).abs().powf(h2))
}

fn check_hurst(hurst: f64) -> Result<()> {
    if !(hurst > 0.0 && hurst < 1.0) {
        return Err(Error::invalid("hurst", "must lie strictly in (0, 1)"));
    }
    Ok(())
}

/// Exact fractional Gaussian noise by Hosking's (Durbin–Levinson) method.
///
/// `O(n²)` — intended for cross-validation of the fast generator; use
/// [`fgn`] for long samples.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `hurst ∉ (0,1)`, `n == 0`, or
/// `n >` [`HOSKING_MAX_N`].
pub fn fgn_hosking(n: usize, hurst: f64, seed: u64) -> Result<Vec<f64>> {
    check_hurst(hurst)?;
    if n == 0 {
        return Err(Error::invalid("n", "must be positive"));
    }
    if n > HOSKING_MAX_N {
        return Err(Error::invalid(
            "n",
            format!("Hosking generator limited to {HOSKING_MAX_N} samples; use fgn()"),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let gamma: Vec<f64> = (0..n).map(|k| fgn_autocovariance(hurst, k)).collect();

    let mut x = Vec::with_capacity(n);
    let mut phi_prev: Vec<f64> = Vec::new();
    let mut v = gamma[0];
    x.push(v.sqrt() * standard_normal(&mut rng));
    for t in 1..n {
        let num = gamma[t]
            - phi_prev
                .iter()
                .enumerate()
                .map(|(j, &p)| p * gamma[t - 1 - j])
                .sum::<f64>();
        let kappa = num / v;
        let mut phi = Vec::with_capacity(t);
        for j in 0..t - 1 {
            phi.push(phi_prev[j] - kappa * phi_prev[t - 2 - j]);
        }
        phi.push(kappa);
        v *= 1.0 - kappa * kappa;
        let mean: f64 = phi.iter().enumerate().map(|(j, &p)| p * x[t - 1 - j]).sum();
        x.push(mean + v.max(0.0).sqrt() * standard_normal(&mut rng));
        phi_prev = phi;
    }
    Ok(x)
}

/// Exact fractional Gaussian noise by the Davies–Harte circulant-embedding
/// method — `O(n log n)`, suitable for long samples. Internally works on
/// the next power of two and truncates (fGn is stationary, so truncation is
/// harmless).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `hurst ∉ (0,1)` or `n == 0`,
/// and [`Error::Numerical`] if the circulant embedding is not non-negative
/// definite (does not occur for fGn with `H ∈ (0,1)`).
pub fn fgn(n: usize, hurst: f64, seed: u64) -> Result<Vec<f64>> {
    check_hurst(hurst)?;
    if n == 0 {
        return Err(Error::invalid("n", "must be positive"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let np = n.next_power_of_two().max(2);
    let m = 2 * np;

    // Circulant first row: γ(0), …, γ(np−1), γ(np), γ(np−1), …, γ(1).
    let mut c = vec![Complex::default(); m];
    for (k, slot) in c.iter_mut().enumerate().take(np + 1) {
        slot.re = fgn_autocovariance(hurst, k);
    }
    for k in 1..np {
        c[m - k].re = fgn_autocovariance(hurst, k);
    }
    fft(&mut c)?;
    let lambda: Vec<f64> = c.iter().map(|v| v.re).collect();
    if lambda.iter().any(|&l| l < -1e-8) {
        return Err(Error::Numerical(
            "circulant embedding not non-negative definite".into(),
        ));
    }

    let mut w = vec![Complex::default(); m];
    let mf = m as f64;
    w[0] = Complex::new(
        (lambda[0].max(0.0) / mf).sqrt() * standard_normal(&mut rng),
        0.0,
    );
    w[np] = Complex::new(
        (lambda[np].max(0.0) / mf).sqrt() * standard_normal(&mut rng),
        0.0,
    );
    for k in 1..np {
        let scale = (lambda[k].max(0.0) / (2.0 * mf)).sqrt();
        let re = scale * standard_normal(&mut rng);
        let im = scale * standard_normal(&mut rng);
        w[k] = Complex::new(re, im);
        w[m - k] = Complex::new(re, -im);
    }
    fft(&mut w)?;
    Ok(w.into_iter().take(n).map(|v| v.re).collect())
}

/// Fractional Brownian motion: the cumulative sum of [`fgn`], starting at 0.
///
/// # Errors
///
/// Same failure modes as [`fgn`].
pub fn fbm(n: usize, hurst: f64, seed: u64) -> Result<Vec<f64>> {
    let noise = fgn(n, hurst, seed)?;
    let mut acc = 0.0;
    Ok(noise
        .into_iter()
        .map(|v| {
            acc += v;
            acc
        })
        .collect())
}

/// Deterministic Weierstrass-type series with uniform Hölder exponent `h`
/// at every point: `x(t) = Σ_k 2^{−kh} sin(2π 2^k t/n + φ_k)` summed over
/// all octaves representable at the grid resolution.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `h ∉ (0,1)` or `n < 4`.
pub fn weierstrass(n: usize, h: f64) -> Result<Vec<f64>> {
    if !(h > 0.0 && h < 1.0) {
        return Err(Error::invalid("h", "must lie strictly in (0, 1)"));
    }
    if n < 4 {
        return Err(Error::invalid("n", "must be at least 4"));
    }
    let octaves = (n as f64).log2().floor() as usize;
    Ok((0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (1..=octaves)
                .map(|k| {
                    let freq = (1u64 << k) as f64;
                    let phase = 0.7 * k as f64;
                    freq.powf(-h) * (2.0 * std::f64::consts::PI * freq * t + phase).sin()
                })
                .sum()
        })
        .collect())
}

/// A binomial multiplicative cascade measure on `2^levels` cells.
///
/// Mass 1 is split recursively: fraction `m0` to one child, `1 − m0` to the
/// other, for `levels` generations. With `randomize = false` the split is
/// always (left ← m0); with `randomize = true` each node flips the pair
/// with probability ½ (same multifractal spectrum, no spatial order).
///
/// Ground truth: partition exponents `τ(q) = −log2(m0^q + (1−m0)^q)` and a
/// concave spectrum with width `log2((1−m0)/m0)` spanning
/// `α ∈ [−log2(max), −log2(min)]`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `m0 ∉ (0,1)`, `levels == 0`, or
/// `levels > 30`.
pub fn binomial_cascade(levels: usize, m0: f64, randomize: bool, seed: u64) -> Result<Vec<f64>> {
    if !(m0 > 0.0 && m0 < 1.0) {
        return Err(Error::invalid("m0", "must lie strictly in (0, 1)"));
    }
    if levels == 0 || levels > 30 {
        return Err(Error::invalid("levels", "must lie in 1..=30"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mass = vec![1.0f64];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(mass.len() * 2);
        for &m in &mass {
            let (a, b) = if randomize && rng.gen_bool(0.5) {
                (1.0 - m0, m0)
            } else {
                (m0, 1.0 - m0)
            };
            next.push(m * a);
            next.push(m * b);
        }
        mass = next;
    }
    Ok(mass)
}

/// The closed-form partition exponent `τ(q) = −log2(m0^q + (1−m0)^q)` of a
/// binomial cascade — ground truth for spectrum estimators.
pub fn binomial_cascade_tau(m0: f64, q: f64) -> f64 {
    -(m0.powf(q) + (1.0 - m0).powf(q)).log2()
}

/// Multifractional Brownian motion with a prescribed time-varying Hurst
/// function `H(t)` — the ground truth for **local** Hölder estimation
/// (the pointwise exponent of mBm at `t` equals `H(t)`).
///
/// Uses the Riemann–Liouville moving-average construction
/// `X(t) = c · Σ_{s<t} (t−s)^{H(t)−½} ε_s`, normalised per sample so the
/// marginal variance stays comparable across `H` levels. `O(n²)` — intended
/// for validation-sized signals.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `n == 0`, `n > 32768`, or
/// `hurst_fn` leaves `(0, 1)` anywhere on the grid.
///
/// # Examples
///
/// ```
/// use aging_fractal::generate::mbm;
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// // Regularity degrades linearly over the run — an "aging" signal.
/// let x = mbm(2048, |u| 0.8 - 0.6 * u, 7)?;
/// assert_eq!(x.len(), 2048);
/// # Ok(())
/// # }
/// ```
pub fn mbm(n: usize, hurst_fn: impl Fn(f64) -> f64, seed: u64) -> Result<Vec<f64>> {
    if n == 0 || n > 32_768 {
        return Err(Error::invalid("n", "must lie in 1..=32768"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let noise: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();

    let mut out = Vec::with_capacity(n);
    for t in 0..n {
        let u = t as f64 / n as f64;
        let h = hurst_fn(u);
        if !(h > 0.0 && h < 1.0) {
            return Err(Error::invalid(
                "hurst_fn",
                format!("H({u:.3}) = {h} outside (0, 1)"),
            ));
        }
        let exponent = h - 0.5;
        let mut acc = 0.0;
        let mut norm = 0.0;
        for s in 0..=t {
            let w = ((t - s) as f64 + 1.0).powf(exponent);
            acc += w * noise[s];
            norm += w * w;
        }
        // Normalise so Var[X(t)] ≈ t-independent scale; keeps the local
        // regularity (which lives in the kernel's singularity at s → t)
        // while removing the global variance growth.
        out.push(acc / norm.sqrt());
    }
    Ok(out)
}

/// White Gaussian noise (unit variance).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `n == 0`.
pub fn white_noise(n: usize, seed: u64) -> Result<Vec<f64>> {
    if n == 0 {
        return Err(Error::invalid("n", "must be positive"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..n).map(|_| standard_normal(&mut rng)).collect())
}

/// First-order autoregressive process `x[t] = φ x[t−1] + ε[t]` with unit
/// innovation variance, started at stationarity.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `n == 0` or `|φ| ≥ 1`.
pub fn ar1(n: usize, phi: f64, seed: u64) -> Result<Vec<f64>> {
    if n == 0 {
        return Err(Error::invalid("n", "must be positive"));
    }
    if phi.abs() >= 1.0 {
        return Err(Error::invalid("phi", "must satisfy |phi| < 1"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let stationary_sd = 1.0 / (1.0 - phi * phi).sqrt();
    let mut x = Vec::with_capacity(n);
    let mut prev = stationary_sd * standard_normal(&mut rng);
    x.push(prev);
    for _ in 1..n {
        prev = phi * prev + standard_normal(&mut rng);
        x.push(prev);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_timeseries::stats;

    #[test]
    fn autocovariance_white_case() {
        // H = 0.5 → uncorrelated increments.
        assert!((fgn_autocovariance(0.5, 0) - 1.0).abs() < 1e-12);
        for k in 1..10 {
            assert!(fgn_autocovariance(0.5, k).abs() < 1e-12);
        }
    }

    #[test]
    fn autocovariance_signs() {
        // Persistent (H > 0.5): positive lag-1 covariance; anti-persistent:
        // negative.
        assert!(fgn_autocovariance(0.8, 1) > 0.0);
        assert!(fgn_autocovariance(0.3, 1) < 0.0);
        // ρ(1) = 2^{2H−1} − 1.
        let rho = fgn_autocovariance(0.8, 1);
        assert!((rho - (2.0_f64.powf(0.6) - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn fgn_is_deterministic_per_seed() {
        let a = fgn(256, 0.7, 42).unwrap();
        let b = fgn(256, 0.7, 42).unwrap();
        let c = fgn(256, 0.7, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fgn_has_unit_variance() {
        let x = fgn(16_384, 0.7, 1).unwrap();
        let v = stats::variance(&x).unwrap();
        assert!((v - 1.0).abs() < 0.1, "variance {v}");
    }

    #[test]
    fn fgn_mean_near_zero() {
        let x = fgn(16_384, 0.6, 2).unwrap();
        let m = stats::mean(&x).unwrap();
        // fGn with H > 0.5 has long-range dependence: the sample-mean sd is
        // much larger than n^{-1/2}, so keep a loose bound.
        assert!(m.abs() < 0.2, "mean {m}");
    }

    #[test]
    fn fgn_lag1_matches_theory() {
        for &(h, seed) in &[(0.3, 7u64), (0.5, 8), (0.8, 9)] {
            let x = fgn(16_384, h, seed).unwrap();
            let rho = stats::autocorrelation(&x, 1).unwrap();
            let theory = fgn_autocovariance(h, 1);
            assert!(
                (rho - theory).abs() < 0.05,
                "H={h}: lag-1 {rho} vs {theory}"
            );
        }
    }

    #[test]
    fn hosking_matches_davies_harte_statistics() {
        let a = fgn_hosking(4096, 0.75, 11).unwrap();
        let b = fgn(4096, 0.75, 12).unwrap();
        let ra = stats::autocorrelation(&a, 1).unwrap();
        let rb = stats::autocorrelation(&b, 1).unwrap();
        assert!((ra - rb).abs() < 0.08, "{ra} vs {rb}");
        let va = stats::variance(&a).unwrap();
        let vb = stats::variance(&b).unwrap();
        assert!((va - vb).abs() < 0.2, "{va} vs {vb}");
    }

    #[test]
    fn hosking_guards() {
        assert!(fgn_hosking(0, 0.5, 1).is_err());
        assert!(fgn_hosking(10, 1.0, 1).is_err());
        assert!(fgn_hosking(10, 0.0, 1).is_err());
        assert!(fgn_hosking(HOSKING_MAX_N + 1, 0.5, 1).is_err());
    }

    #[test]
    fn fbm_starts_near_first_increment_and_spreads() {
        let x = fbm(8192, 0.5, 3).unwrap();
        // Spread grows: the last quarter has larger deviation from start
        // than the first quarter on average (probabilistic but stable for a
        // fixed seed).
        let early: f64 = x[..2048].iter().map(|v| v.abs()).sum::<f64>() / 2048.0;
        let late: f64 = x[6144..].iter().map(|v| v.abs()).sum::<f64>() / 2048.0;
        assert!(late > early, "early {early} late {late}");
    }

    #[test]
    fn weierstrass_deterministic_and_bounded() {
        let a = weierstrass(1024, 0.5).unwrap();
        let b = weierstrass(1024, 0.5).unwrap();
        assert_eq!(a, b);
        // Σ 2^{-kh} < 1/(2^h - 1) bounds the amplitude.
        let bound = 1.0 / (2.0_f64.powf(0.5) - 1.0) + 1.0;
        assert!(a.iter().all(|v| v.abs() < bound));
        assert!(weierstrass(1024, 0.0).is_err());
        assert!(weierstrass(2, 0.5).is_err());
    }

    #[test]
    fn cascade_conserves_mass() {
        for randomize in [false, true] {
            let m = binomial_cascade(10, 0.3, randomize, 5).unwrap();
            assert_eq!(m.len(), 1024);
            let total: f64 = m.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
            assert!(m.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn cascade_partition_function_matches_tau() {
        // For the deterministic cascade, Σ μ_i^q = (m0^q + m1^q)^levels
        // exactly, i.e. log2 Σ = −levels · τ(q).
        let levels = 12;
        let m0 = 0.25;
        let m = binomial_cascade(levels, m0, false, 0).unwrap();
        for &q in &[-2.0, -1.0, 0.5, 2.0, 4.0] {
            let s: f64 = m.iter().map(|&v| v.powf(q)).sum();
            let expect = -(levels as f64) * binomial_cascade_tau(m0, q);
            assert!(
                (s.log2() - expect).abs() < 1e-6,
                "q={q}: {} vs {expect}",
                s.log2()
            );
        }
    }

    #[test]
    fn cascade_guards() {
        assert!(binomial_cascade(0, 0.3, false, 0).is_err());
        assert!(binomial_cascade(31, 0.3, false, 0).is_err());
        assert!(binomial_cascade(4, 0.0, false, 0).is_err());
        assert!(binomial_cascade(4, 1.0, false, 0).is_err());
    }

    #[test]
    fn mbm_guards() {
        assert!(mbm(0, |_| 0.5, 1).is_err());
        assert!(mbm(40_000, |_| 0.5, 1).is_err());
        assert!(mbm(64, |_| 1.0, 1).is_err());
        assert!(mbm(64, |u| if u < 0.5 { 0.5 } else { 0.0 }, 1).is_err());
    }

    #[test]
    fn mbm_is_deterministic() {
        let a = mbm(256, |_| 0.6, 5).unwrap();
        let b = mbm(256, |_| 0.6, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mbm_constant_h_has_matching_regularity() {
        use crate::holder::{holder_trace, HolderEstimator};
        for &(h, seed) in &[(0.35, 1u64), (0.75, 2)] {
            let x = mbm(4096, |_| h, seed).unwrap();
            let trace = holder_trace(&x, &HolderEstimator::default()).unwrap();
            // Skip the warmup where the RL kernel has little history.
            let mean = stats::mean(&trace[512..]).unwrap();
            assert!((mean - h).abs() < 0.15, "H={h}: mean {mean}");
        }
    }

    #[test]
    fn mbm_tracks_time_varying_h() {
        use crate::holder::{holder_trace, HolderEstimator};
        // Aging profile: regularity decays from 0.8 to 0.2.
        let x = mbm(8192, |u| 0.8 - 0.6 * u, 3).unwrap();
        let trace = holder_trace(&x, &HolderEstimator::default()).unwrap();
        let n = trace.len();
        let early = stats::mean(&trace[n / 8..n / 4]).unwrap();
        let late = stats::mean(&trace[7 * n / 8..]).unwrap();
        // The discrete Riemann–Liouville construction compresses the
        // effective exponent range toward the middle, so the check is on
        // ordering and separation, not exact levels.
        assert!(
            early > late + 0.15,
            "early {early} vs late {late} — local estimator must track H(t)"
        );
        assert!((early - 0.69).abs() < 0.25, "early {early}");
        assert!((late - 0.24).abs() < 0.25, "late {late}");
    }

    #[test]
    fn white_noise_statistics() {
        let x = white_noise(8192, 21).unwrap();
        assert!(stats::mean(&x).unwrap().abs() < 0.05);
        assert!((stats::variance(&x).unwrap() - 1.0).abs() < 0.08);
        assert!(stats::autocorrelation(&x, 1).unwrap().abs() < 0.05);
    }

    #[test]
    fn ar1_autocorrelation_matches_phi() {
        let x = ar1(16_384, 0.6, 33).unwrap();
        let rho = stats::autocorrelation(&x, 1).unwrap();
        assert!((rho - 0.6).abs() < 0.05, "rho {rho}");
        assert!(ar1(10, 1.0, 0).is_err());
        assert!(ar1(0, 0.5, 0).is_err());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(stats::mean(&xs).unwrap().abs() < 0.03);
        assert!((stats::variance(&xs).unwrap() - 1.0).abs() < 0.05);
        assert!(stats::skewness(&xs).unwrap().abs() < 0.08);
    }
}
