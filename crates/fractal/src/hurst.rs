//! Global Hurst-exponent estimators: rescaled range (R/S), detrended
//! fluctuation analysis (DFA), and aggregated variance.
//!
//! All estimators regress a scale statistic on scale in log–log
//! coordinates and return the fit diagnostics alongside the exponent, so
//! callers can reject poor scaling fits instead of trusting a number.

use aging_timeseries::regression::{log_log_fit, LineFit};
use aging_timeseries::window::{blocks, dyadic_scales};
use aging_timeseries::{detrend, stats, Error, Result};

/// A Hurst estimate together with the log–log fit it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct HurstEstimate {
    /// The estimated Hurst exponent.
    pub hurst: f64,
    /// The underlying scaling fit (slope, R², …).
    pub fit: LineFit,
    /// The `(scale, statistic)` pairs used in the fit.
    pub points: Vec<(f64, f64)>,
}

/// Rescaled-range (R/S) analysis.
///
/// For each scale `s`, the series is cut into blocks of `s` samples; each
/// block contributes `R/S` — the range of its mean-adjusted cumulative sum
/// divided by its standard deviation. `E[R/S] ∝ s^H`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] when fewer than 64 samples are supplied (at
/// least a few dyadic scales with ≥ 4 blocks each are needed for a
/// meaningful fit), and propagates numerical failures.
///
/// # Examples
///
/// ```
/// use aging_fractal::{generate, hurst};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let noise = generate::fgn(4096, 0.7, 1)?;
/// let est = hurst::rescaled_range(&noise)?;
/// assert!((est.hurst - 0.7).abs() < 0.15);
/// # Ok(())
/// # }
/// ```
pub fn rescaled_range(data: &[f64]) -> Result<HurstEstimate> {
    Error::require_len(data, 64)?;
    Error::require_finite(data)?;
    let scales: Vec<usize> = dyadic_scales(data.len(), 4)?
        .into_iter()
        .filter(|&s| s >= 8)
        .collect();
    if scales.len() < 3 {
        return Err(Error::TooShort {
            required: 64,
            actual: data.len(),
        });
    }
    let mut points = Vec::with_capacity(scales.len());
    for &s in &scales {
        let mut ratios = Vec::new();
        for block in blocks(data, s)? {
            let mean = stats::mean(block)?;
            let mut cum = 0.0;
            let mut min = f64::MAX;
            let mut max = f64::MIN;
            for &v in block {
                cum += v - mean;
                min = min.min(cum);
                max = max.max(cum);
            }
            let range = max - min;
            let sd = stats::population_variance(block)?.sqrt();
            if sd > f64::EPSILON {
                ratios.push(range / sd);
            }
        }
        if !ratios.is_empty() {
            points.push((s as f64, stats::mean(&ratios)?));
        }
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let fit = log_log_fit(&xs, &ys)?;
    Ok(HurstEstimate {
        hurst: fit.slope,
        fit,
        points,
    })
}

/// Detrended fluctuation analysis of order `order` (DFA-1 removes linear
/// trends per window, DFA-2 quadratic, …).
///
/// The input is treated as **noise-like** (an increment process): the
/// profile (centred cumulative sum) is built internally and the fluctuation
/// function `F(s)` scales as `s^α` with `α = H` for fGn-like input and
/// `α = H + 1` for fBm-like input.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `order == 0` or `order > 4`,
/// [`Error::TooShort`] below 64 samples, and propagates fit failures.
pub fn dfa(data: &[f64], order: usize) -> Result<HurstEstimate> {
    if order == 0 || order > 4 {
        return Err(Error::invalid("order", "must lie in 1..=4"));
    }
    Error::require_len(data, 64)?;
    Error::require_finite(data)?;

    // Profile.
    let mean = stats::mean(data)?;
    let mut acc = 0.0;
    let profile: Vec<f64> = data
        .iter()
        .map(|&v| {
            acc += v - mean;
            acc
        })
        .collect();

    let min_scale = (order + 2).max(4);
    let scales: Vec<usize> = dyadic_scales(profile.len(), 4)?
        .into_iter()
        .filter(|&s| s >= min_scale)
        .collect();
    if scales.len() < 3 {
        return Err(Error::TooShort {
            required: 64,
            actual: data.len(),
        });
    }

    // Also cover the tail by analysing the reversed profile, as is
    // standard, so the fit is not biased by dropped samples.
    let reversed: Vec<f64> = profile.iter().rev().copied().collect();
    let mut points = Vec::with_capacity(scales.len());
    for &s in &scales {
        let mut sq = Vec::new();
        for block in blocks(&profile, s)? {
            sq.push(detrend::fluctuation(block, order)?);
        }
        for block in blocks(&reversed, s)? {
            sq.push(detrend::fluctuation(block, order)?);
        }
        let f = stats::mean(&sq)?.sqrt();
        if f > 0.0 {
            points.push((s as f64, f));
        }
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let fit = log_log_fit(&xs, &ys)?;
    Ok(HurstEstimate {
        hurst: fit.slope,
        fit,
        points,
    })
}

/// Aggregated-variance estimator: the variance of block means at block size
/// `m` scales as `m^{2H−2}`, so `H = 1 + slope/2`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 64 samples and propagates fit
/// failures.
pub fn aggregated_variance(data: &[f64]) -> Result<HurstEstimate> {
    Error::require_len(data, 64)?;
    Error::require_finite(data)?;
    let scales: Vec<usize> = dyadic_scales(data.len(), 8)?
        .into_iter()
        .filter(|&s| s >= 2)
        .collect();
    if scales.len() < 3 {
        return Err(Error::TooShort {
            required: 64,
            actual: data.len(),
        });
    }
    let mut points = Vec::with_capacity(scales.len());
    for &s in &scales {
        let means: Vec<f64> = blocks(data, s)?
            .into_iter()
            .map(stats::mean)
            .collect::<Result<_>>()?;
        let v = stats::variance(&means)?;
        if v > 0.0 {
            points.push((s as f64, v));
        }
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let fit = log_log_fit(&xs, &ys)?;
    Ok(HurstEstimate {
        hurst: 1.0 + fit.slope / 2.0,
        fit,
        points,
    })
}

/// Periodogram (spectral) estimator: the power spectrum of fGn behaves as
/// `f^{1−2H}` at low frequencies, so a log–log fit over the lowest decade
/// of frequencies gives `H = (1 − slope)/2`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 128 samples and propagates fit
/// failures.
pub fn periodogram_hurst(data: &[f64]) -> Result<HurstEstimate> {
    Error::require_len(data, 128)?;
    let spec = crate::fft::periodogram(data)?;
    // Lowest ~12.5 % of frequencies (but at least 8 points).
    let count = (spec.len() / 8).max(8).min(spec.len());
    let pts: Vec<(f64, f64)> = spec
        .into_iter()
        .take(count)
        .filter(|&(_, p)| p > 0.0)
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
    let fit = log_log_fit(&xs, &ys)?;
    Ok(HurstEstimate {
        hurst: (1.0 - fit.slope) / 2.0,
        fit,
        points: pts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    const N: usize = 8192;

    #[test]
    fn dfa_recovers_hurst_of_fgn() {
        for &(h, seed) in &[(0.3, 1u64), (0.5, 2), (0.7, 3), (0.9, 4)] {
            let x = generate::fgn(N, h, seed).unwrap();
            let est = dfa(&x, 1).unwrap();
            assert!((est.hurst - h).abs() < 0.08, "H={h}: DFA {}", est.hurst);
            assert!(est.fit.r_squared > 0.9, "H={h}: R² {}", est.fit.r_squared);
        }
    }

    #[test]
    fn dfa_on_fbm_gives_h_plus_one() {
        let x = generate::fbm(N, 0.4, 5).unwrap();
        let est = dfa(&x, 2).unwrap();
        assert!((est.hurst - 1.4).abs() < 0.12, "alpha {}", est.hurst);
    }

    #[test]
    fn dfa_white_noise_is_half() {
        let x = generate::white_noise(N, 6).unwrap();
        let est = dfa(&x, 1).unwrap();
        assert!((est.hurst - 0.5).abs() < 0.06, "alpha {}", est.hurst);
    }

    #[test]
    fn dfa_guards() {
        let x = generate::white_noise(128, 0).unwrap();
        assert!(dfa(&x, 0).is_err());
        assert!(dfa(&x, 5).is_err());
        assert!(dfa(&x[..32], 1).is_err());
    }

    #[test]
    fn rs_orders_hurst_correctly() {
        // R/S is biased on finite samples, but must order H levels.
        let lo = rescaled_range(&generate::fgn(N, 0.3, 7).unwrap()).unwrap();
        let mid = rescaled_range(&generate::fgn(N, 0.6, 8).unwrap()).unwrap();
        let hi = rescaled_range(&generate::fgn(N, 0.9, 9).unwrap()).unwrap();
        assert!(lo.hurst < mid.hurst && mid.hurst < hi.hurst);
        assert!((mid.hurst - 0.6).abs() < 0.15, "R/S {}", mid.hurst);
    }

    #[test]
    fn aggregated_variance_recovers_hurst() {
        for &(h, seed) in &[(0.3, 10u64), (0.7, 11)] {
            let x = generate::fgn(N, h, seed).unwrap();
            let est = aggregated_variance(&x).unwrap();
            assert!((est.hurst - h).abs() < 0.12, "H={h}: aggvar {}", est.hurst);
        }
    }

    #[test]
    fn periodogram_recovers_hurst() {
        for &(h, seed) in &[(0.3, 12u64), (0.8, 13)] {
            let x = generate::fgn(N, h, seed).unwrap();
            let est = periodogram_hurst(&x).unwrap();
            assert!(
                (est.hurst - h).abs() < 0.15,
                "H={h}: periodogram {}",
                est.hurst
            );
        }
    }

    #[test]
    fn estimators_expose_fit_points() {
        let x = generate::fgn(1024, 0.5, 14).unwrap();
        let est = dfa(&x, 1).unwrap();
        assert!(est.points.len() >= 3);
        assert!(est.points.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn constant_series_fails_gracefully() {
        // Constant input has zero fluctuation at every scale: no usable
        // fit points, so the estimators report an error instead of NaN.
        let x = vec![5.0; 512];
        assert!(dfa(&x, 1).is_err());
        assert!(rescaled_range(&x).is_err());
        assert!(aggregated_variance(&x).is_err());
    }
}
