//! Decimated discrete wavelet transform (DWT) with periodic boundary
//! handling, and its inverse.
//!
//! The DWT underlies the wavelet-leader machinery: detail coefficients
//! `d(j, k)` quantify the signal's local fluctuation at scale `2^j` around
//! position `k · 2^j`, and their decay across scales encodes local
//! regularity.

use crate::filters::Wavelet;
use aging_timeseries::{Error, Result};

/// One analysis step: splits `signal` into approximation and detail
/// coefficients at half the rate, using periodic extension.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when the signal length is odd or
/// shorter than two samples.
pub fn analyze_level(signal: &[f64], wavelet: Wavelet) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = signal.len();
    if n < 2 || !n.is_multiple_of(2) {
        return Err(Error::invalid(
            "signal",
            format!("length must be even and >= 2, got {n}"),
        ));
    }
    let h = wavelet.scaling_filter();
    let g = wavelet.wavelet_filter();
    let half = n / 2;
    let mut approx = vec![0.0; half];
    let mut detail = vec![0.0; half];
    for k in 0..half {
        let mut a = 0.0;
        let mut d = 0.0;
        for (m, (&hm, &gm)) in h.iter().zip(&g).enumerate() {
            let idx = (2 * k + m) % n;
            a += hm * signal[idx];
            d += gm * signal[idx];
        }
        approx[k] = a;
        detail[k] = d;
    }
    Ok((approx, detail))
}

/// One synthesis step: rebuilds the signal from approximation and detail
/// coefficients (inverse of [`analyze_level`]).
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] when the two coefficient arrays differ
/// in length and [`Error::Empty`] when they are empty.
pub fn synthesize_level(approx: &[f64], detail: &[f64], wavelet: Wavelet) -> Result<Vec<f64>> {
    if approx.len() != detail.len() {
        return Err(Error::LengthMismatch {
            left: approx.len(),
            right: detail.len(),
        });
    }
    Error::require_len(approx, 1)?;
    let h = wavelet.scaling_filter();
    let g = wavelet.wavelet_filter();
    let n = approx.len() * 2;
    let mut signal = vec![0.0; n];
    for k in 0..approx.len() {
        for (m, (&hm, &gm)) in h.iter().zip(&g).enumerate() {
            let idx = (2 * k + m) % n;
            signal[idx] += hm * approx[k] + gm * detail[k];
        }
    }
    Ok(signal)
}

/// A multi-level DWT decomposition.
///
/// `detail(1)` is the finest scale (scale `2¹` in samples); the stored
/// approximation is the residual at the coarsest analysed scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    wavelet: Wavelet,
    details: Vec<Vec<f64>>,
    approx: Vec<f64>,
}

impl Decomposition {
    /// Wavelet family used by the decomposition.
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }

    /// Number of analysed levels.
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Detail coefficients at `level` (1-based; 1 is the finest scale).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`Decomposition::levels`].
    pub fn detail(&self, level: usize) -> &[f64] {
        assert!(
            level >= 1 && level <= self.details.len(),
            "level {level} out of range 1..={}",
            self.details.len()
        );
        &self.details[level - 1]
    }

    /// All detail bands, finest first.
    pub fn details(&self) -> &[Vec<f64>] {
        &self.details
    }

    /// Replaces the detail band at `level` (1-based) — the hook used by
    /// coefficient-domain processing such as shrinkage denoising.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `level` is out of range and
    /// [`Error::LengthMismatch`] when the replacement band has the wrong
    /// length.
    pub fn set_detail(&mut self, level: usize, band: Vec<f64>) -> Result<()> {
        if level == 0 || level > self.details.len() {
            return Err(Error::invalid(
                "level",
                format!("must lie in 1..={}", self.details.len()),
            ));
        }
        if band.len() != self.details[level - 1].len() {
            return Err(Error::LengthMismatch {
                left: band.len(),
                right: self.details[level - 1].len(),
            });
        }
        self.details[level - 1] = band;
        Ok(())
    }

    /// Approximation coefficients at the coarsest level.
    pub fn approx(&self) -> &[f64] {
        &self.approx
    }

    /// Total energy (sum of squares) across all coefficients. For an
    /// orthogonal wavelet this equals the energy of the original signal
    /// (Parseval).
    pub fn energy(&self) -> f64 {
        let detail_energy: f64 = self
            .details
            .iter()
            .flat_map(|d| d.iter())
            .map(|v| v * v)
            .sum();
        let approx_energy: f64 = self.approx.iter().map(|v| v * v).sum();
        detail_energy + approx_energy
    }

    /// Reconstructs the original signal (exact up to rounding for
    /// orthogonal filters).
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures (which cannot occur for a decomposition
    /// produced by [`dwt`]).
    pub fn reconstruct(&self) -> Result<Vec<f64>> {
        let mut current = self.approx.clone();
        for detail in self.details.iter().rev() {
            current = synthesize_level(&current, detail, self.wavelet)?;
        }
        Ok(current)
    }
}

/// Multi-level DWT of `signal`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `levels == 0` or when the
/// signal length is not divisible by `2^levels`.
///
/// # Examples
///
/// ```
/// use aging_wavelet::{dwt, Wavelet};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let dec = dwt(&signal, Wavelet::Daubechies4, 3)?;
/// assert_eq!(dec.levels(), 3);
/// assert_eq!(dec.detail(1).len(), 32);
/// let back = dec.reconstruct()?;
/// assert!(signal.iter().zip(&back).all(|(a, b)| (a - b).abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
pub fn dwt(signal: &[f64], wavelet: Wavelet, levels: usize) -> Result<Decomposition> {
    if levels == 0 {
        return Err(Error::invalid("levels", "must be at least 1"));
    }
    let needed = 1usize
        .checked_shl(levels as u32)
        .ok_or_else(|| Error::invalid("levels", "too many levels"))?;
    if signal.len() < needed || !signal.len().is_multiple_of(needed) {
        return Err(Error::invalid(
            "levels",
            format!("signal length {} not divisible by 2^{levels}", signal.len()),
        ));
    }
    Error::require_finite(signal)?;

    let mut details = Vec::with_capacity(levels);
    let mut current = signal.to_vec();
    for _ in 0..levels {
        let (a, d) = analyze_level(&current, wavelet)?;
        details.push(d);
        current = a;
    }
    Ok(Decomposition {
        wavelet,
        details,
        approx: current,
    })
}

/// Truncates a signal to the largest prefix usable for a `levels`-deep DWT
/// (length divisible by `2^levels`), returning the truncated slice.
///
/// # Errors
///
/// Returns [`Error::TooShort`] when even one window of `2^levels` samples
/// does not fit.
pub fn dyadic_prefix(signal: &[f64], levels: usize) -> Result<&[f64]> {
    let block = 1usize
        .checked_shl(levels as u32)
        .ok_or_else(|| Error::invalid("levels", "too many levels"))?;
    let n = (signal.len() / block) * block;
    if n == 0 {
        return Err(Error::TooShort {
            required: block,
            actual: signal.len(),
        });
    }
    Ok(&signal[..n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn haar_level_on_known_signal() {
        // Haar: a[k] = (x[2k]+x[2k+1])/√2, d[k] = (x[2k]-x[2k+1])/√2.
        let x = [4.0, 2.0, 5.0, 7.0];
        let (a, d) = analyze_level(&x, Wavelet::Haar).unwrap();
        let s = std::f64::consts::SQRT_2;
        assert_close(&a, &[6.0 / s, 12.0 / s], 1e-12);
        assert_close(&d, &[2.0 / s, -2.0 / s], 1e-12);
    }

    #[test]
    fn analyze_rejects_odd_length() {
        assert!(analyze_level(&[1.0, 2.0, 3.0], Wavelet::Haar).is_err());
        assert!(analyze_level(&[1.0], Wavelet::Haar).is_err());
    }

    #[test]
    fn single_level_round_trip_all_wavelets() {
        let signal: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 0.7).sin() + 0.2 * (i as f64 * 2.3).cos())
            .collect();
        for w in Wavelet::ALL {
            let (a, d) = analyze_level(&signal, w).unwrap();
            let back = synthesize_level(&a, &d, w).unwrap();
            assert_close(&signal, &back, 1e-10);
        }
    }

    #[test]
    fn multi_level_round_trip() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * i) % 17) as f64).collect();
        for w in Wavelet::ALL {
            let dec = dwt(&signal, w, 4).unwrap();
            assert_eq!(dec.levels(), 4);
            assert_eq!(dec.detail(1).len(), 64);
            assert_eq!(dec.detail(4).len(), 8);
            assert_eq!(dec.approx().len(), 8);
            let back = dec.reconstruct().unwrap();
            assert_close(&signal, &back, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).sin() * 3.0).collect();
        let original_energy: f64 = signal.iter().map(|v| v * v).sum();
        for w in Wavelet::ALL {
            let dec = dwt(&signal, w, 3).unwrap();
            assert!(
                (dec.energy() - original_energy).abs() < 1e-8 * original_energy,
                "{w}"
            );
        }
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let signal = vec![5.0; 64];
        for w in Wavelet::ALL {
            let dec = dwt(&signal, w, 3).unwrap();
            for level in 1..=3 {
                for &d in dec.detail(level) {
                    assert!(d.abs() < 1e-10, "{w} level {level}: {d}");
                }
            }
        }
    }

    #[test]
    fn db2_annihilates_linear_ramp_interior() {
        // db2 has 2 vanishing moments; a linear signal has zero detail
        // coefficients except where the periodic wrap-around breaks
        // linearity.
        let signal: Vec<f64> = (0..64).map(|i| 3.0 * i as f64).collect();
        let (_, d) = analyze_level(&signal, Wavelet::Daubechies4).unwrap();
        // Wrap affects the final filter support: last (filter_len/2) outputs.
        for (k, &dv) in d.iter().enumerate().take(d.len() - 2) {
            assert!(dv.abs() < 1e-9, "k={k}: {dv}");
        }
        // Boundary coefficients are non-zero — confirming the wrap is real.
        assert!(d[d.len() - 1].abs() > 1e-6);
    }

    #[test]
    fn dwt_rejects_bad_inputs() {
        let signal = vec![0.0; 48]; // 48 = 16*3: divisible by 16 but not 32
        assert!(dwt(&signal, Wavelet::Haar, 0).is_err());
        assert!(dwt(&signal, Wavelet::Haar, 5).is_err());
        assert!(dwt(&signal, Wavelet::Haar, 4).is_ok());
        assert!(dwt(&[1.0, f64::NAN], Wavelet::Haar, 1).is_err());
    }

    #[test]
    fn dyadic_prefix_truncates() {
        let signal: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(dyadic_prefix(&signal, 3).unwrap().len(), 48);
        assert_eq!(dyadic_prefix(&signal, 5).unwrap().len(), 32);
        assert!(dyadic_prefix(&signal[..3], 5).is_err());
    }

    #[test]
    fn synthesize_rejects_mismatch() {
        assert!(synthesize_level(&[1.0], &[1.0, 2.0], Wavelet::Haar).is_err());
        assert!(synthesize_level(&[], &[], Wavelet::Haar).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn detail_level_bounds_panic() {
        let dec = dwt(&[0.0; 8], Wavelet::Haar, 2).unwrap();
        let _ = dec.detail(3);
    }
}
