//! Detrending transforms.
//!
//! Scaling estimators assume (at most) weak stationarity of the fluctuations
//! around a trend; these helpers difference the series outright or measure
//! the fluctuation left around a polynomial fit.

use crate::error::{Error, Result};
use crate::regression::{polyfit, polyval};

/// Returns the `lag`-differenced series `x[i + lag] - x[i]`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `lag == 0` and
/// [`Error::TooShort`] when `lag >= n`.
pub fn difference(data: &[f64], lag: usize) -> Result<Vec<f64>> {
    if lag == 0 {
        return Err(Error::invalid("lag", "must be positive"));
    }
    Error::require_len(data, lag + 1)?;
    Ok((0..data.len() - lag)
        .map(|i| data[i + lag] - data[i])
        .collect())
}

/// Residuals of a polynomial fit over a window — the core step of DFA.
/// Returns the sum of squared residuals divided by the window length
/// (the mean-square fluctuation).
///
/// # Errors
///
/// Propagates [`crate::regression::polyfit`] failures.
pub fn fluctuation(window: &[f64], degree: usize) -> Result<f64> {
    let x: Vec<f64> = (0..window.len()).map(|i| i as f64).collect();
    let coeffs = polyfit(&x, window, degree)?;
    let ss: f64 = window
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let r = v - polyval(&coeffs, i as f64);
            r * r
        })
        .sum();
    Ok(ss / window.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_basic() {
        let d = [1.0, 4.0, 9.0, 16.0];
        assert_eq!(difference(&d, 1).unwrap(), vec![3.0, 5.0, 7.0]);
        assert_eq!(difference(&d, 2).unwrap(), vec![8.0, 12.0]);
        assert!(difference(&d, 0).is_err());
        assert!(difference(&d, 4).is_err());
    }

    #[test]
    fn fluctuation_zero_for_exact_poly() {
        let w: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert!(fluctuation(&w, 1).unwrap() < 1e-16);
    }

    #[test]
    fn fluctuation_positive_for_noise() {
        let w = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(fluctuation(&w, 1).unwrap() > 0.5);
    }
}
