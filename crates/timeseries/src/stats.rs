//! Descriptive statistics over sample slices.
//!
//! These free functions operate on `&[f64]` so they are usable both on raw
//! buffers and on [`crate::TimeSeries::values`]. All of them validate their
//! input and return [`crate::Error`] rather than silently producing NaN.

use crate::error::{Error, Result};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`Error::Empty`] for empty input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// assert_eq!(aging_timeseries::stats::mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn mean(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 1)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased sample variance (denominator `n - 1`).
///
/// # Errors
///
/// Returns [`Error::TooShort`] with fewer than two samples.
pub fn variance(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 2)?;
    let m = mean(data)?;
    let ss = data.iter().map(|&v| (v - m) * (v - m)).sum::<f64>();
    Ok(ss / (data.len() - 1) as f64)
}

/// Population variance (denominator `n`).
///
/// # Errors
///
/// Returns [`Error::Empty`] for empty input.
pub fn population_variance(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 1)?;
    let m = mean(data)?;
    let ss = data.iter().map(|&v| (v - m) * (v - m)).sum::<f64>();
    Ok(ss / data.len() as f64)
}

/// Unbiased sample standard deviation.
///
/// # Errors
///
/// Returns [`Error::TooShort`] with fewer than two samples.
pub fn std_dev(data: &[f64]) -> Result<f64> {
    Ok(variance(data)?.sqrt())
}

/// Minimum value (NaN samples are ignored; all-NaN input is an error).
///
/// # Errors
///
/// Returns [`Error::Empty`] for empty input and [`Error::Numerical`] when no
/// finite sample exists.
pub fn min(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 1)?;
    data.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        })
        .ok_or_else(|| Error::Numerical("no non-NaN samples".into()))
}

/// Maximum value (NaN samples are ignored; all-NaN input is an error).
///
/// # Errors
///
/// Same conditions as [`min`].
pub fn max(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 1)?;
    data.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
        .ok_or_else(|| Error::Numerical("no non-NaN samples".into()))
}

/// Quantile with linear interpolation between order statistics
/// (the "type 7" definition used by R and NumPy).
///
/// `q` must lie in `[0, 1]`.
///
/// # Errors
///
/// Returns [`Error::Empty`] for empty input, [`Error::InvalidParameter`] for
/// `q` outside `[0, 1]`, and [`Error::NonFinite`] when the data contain NaN.
pub fn quantile(data: &[f64], q: f64) -> Result<f64> {
    Error::require_len(data, 1)?;
    Error::require_finite(data)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(Error::invalid("q", "must lie in [0, 1]"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50 % quantile).
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn median(data: &[f64]) -> Result<f64> {
    quantile(data, 0.5)
}

/// Median absolute deviation, scaled by 1.4826 so that it estimates the
/// standard deviation for Gaussian data.
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn mad(data: &[f64]) -> Result<f64> {
    let med = median(data)?;
    let deviations: Vec<f64> = data.iter().map(|&v| (v - med).abs()).collect();
    Ok(1.4826 * median(&deviations)?)
}

/// Sample skewness (Fisher definition, biased).
///
/// # Errors
///
/// Returns [`Error::TooShort`] with fewer than three samples and
/// [`Error::Numerical`] for (near-)constant data.
pub fn skewness(data: &[f64]) -> Result<f64> {
    Error::require_len(data, 3)?;
    let m = mean(data)?;
    let n = data.len() as f64;
    let m2 = data.iter().map(|&v| (v - m).powi(2)).sum::<f64>() / n;
    let m3 = data.iter().map(|&v| (v - m).powi(3)).sum::<f64>() / n;
    if m2 <= f64::EPSILON {
        return Err(Error::Numerical("skewness of constant data".into()));
    }
    Ok(m3 / m2.powf(1.5))
}

/// Biased autocovariance at lag `k`:
/// `(1/n) * Σ (x[i] - mean)(x[i+k] - mean)`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] when `k + 1 > n`.
pub fn autocovariance(data: &[f64], k: usize) -> Result<f64> {
    Error::require_len(data, k + 1)?;
    let m = mean(data)?;
    let n = data.len();
    let s: f64 = (0..n - k).map(|i| (data[i] - m) * (data[i + k] - m)).sum();
    Ok(s / n as f64)
}

/// Autocorrelation at lag `k` (autocovariance normalised by lag-0).
///
/// # Errors
///
/// Returns [`Error::TooShort`] when `k + 1 > n` and [`Error::Numerical`] for
/// constant data.
pub fn autocorrelation(data: &[f64], k: usize) -> Result<f64> {
    let c0 = autocovariance(data, 0)?;
    if c0 <= f64::EPSILON {
        return Err(Error::Numerical("autocorrelation of constant data".into()));
    }
    Ok(autocovariance(data, k)? / c0)
}

/// A summary of the usual descriptive statistics computed in one pass over
/// the data (plus one sort for the quantiles).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 when `n == 1`).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// 25 % quantile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75 % quantile.
    pub q75: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] for empty input and [`Error::NonFinite`]
    /// when the data contain NaN or infinities.
    pub fn of(data: &[f64]) -> Result<Self> {
        Error::require_len(data, 1)?;
        Error::require_finite(data)?;
        Ok(Summary {
            n: data.len(),
            mean: mean(data)?,
            std_dev: if data.len() >= 2 { std_dev(data)? } else { 0.0 },
            min: min(data)?,
            q25: quantile(data, 0.25)?,
            median: median(data)?,
            q75: quantile(data, 0.75)?,
            max: max(data)?,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} q25={:.4} med={:.4} q75={:.4} max={:.4}",
            self.n, self.mean, self.std_dev, self.min, self.q25, self.median, self.q75, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: &[f64] = &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn mean_basic() {
        assert_eq!(mean(DATA).unwrap(), 5.0);
        assert_eq!(mean(&[]), Err(Error::Empty));
    }

    #[test]
    fn variance_and_std() {
        // Known example: population std = 2, population var = 4.
        assert!((population_variance(DATA).unwrap() - 4.0).abs() < 1e-12);
        assert!((variance(DATA).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(min(&[3.0, f64::NAN, -1.0]).unwrap(), -1.0);
        assert_eq!(max(&[3.0, f64::NAN, -1.0]).unwrap(), 3.0);
        assert!(min(&[f64::NAN]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&d, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&d, 0.5).unwrap(), 2.5);
        assert!((quantile(&d, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(quantile(&d, 1.5).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn mad_gaussian_scaling() {
        // For symmetric data around the median, MAD is the scaled median
        // of absolute deviations.
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((mad(&d).unwrap() - 1.4826).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed data → positive skewness.
        let right = [1.0, 1.0, 1.0, 2.0, 10.0];
        assert!(skewness(&right).unwrap() > 0.0);
        let left = [10.0, 10.0, 10.0, 9.0, 1.0];
        assert!(skewness(&left).unwrap() < 0.0);
        assert!(skewness(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn autocorrelation_lag0_is_one() {
        let d = [1.0, -2.0, 3.0, 0.5, -1.0];
        assert!((autocorrelation(&d, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_alternating() {
        let d = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(autocorrelation(&d, 1).unwrap() < -0.5);
        assert!(autocorrelation(&d, 2).unwrap() > 0.5);
    }

    #[test]
    fn summary_matches_parts() {
        let s = Summary::of(DATA).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
        assert!(!s.to_string().is_empty());
        assert!(Summary::of(&[]).is_err());
        assert!(Summary::of(&[f64::NAN]).is_err());
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }
}
