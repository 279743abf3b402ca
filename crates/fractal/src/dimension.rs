//! Fractal dimension of the graph of a time series.
//!
//! The target paper's detector tracks the **box-counting dimension of the
//! local Hölder exponent trace** over a sliding window; a jump in that
//! dimension precedes failure. This module supplies the dimension
//! estimators:
//!
//! - [`box_counting`] — classic grid cover of the normalised graph,
//! - [`variation`] — the oscillation/variation method of Dubuc et al.,
//!   usually better behaved on short windows,
//! - [`higuchi`] — Higuchi's curve-length method.
//!
//! For a self-affine graph with Hurst exponent `H` (e.g. fBm),
//! `D = 2 − H`; a smooth curve has `D = 1`; white noise approaches `D = 2`.

use aging_timeseries::regression::{log_log_fit, ols, LineFit};
use aging_timeseries::{stats, Error, Result};

/// A graph-dimension estimate together with its scaling fit.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionEstimate {
    /// Estimated dimension, clamped to the meaningful range `[1, 2]`.
    pub dimension: f64,
    /// Raw (unclamped) dimension from the fit.
    pub raw_dimension: f64,
    /// The underlying log–log fit.
    pub fit: LineFit,
}

/// Shortest series [`box_counting`] can fit: three dyadic grid levels
/// need `n / 4 ≥ 8` divisions at the finest level.
pub const BOX_COUNTING_MIN_LEN: usize = 32;

/// Box-counting dimension of the graph `{(t, x[t])}`.
///
/// The graph is normalised to the unit square, covered with grids of side
/// `2^{−k}`, and the number of occupied boxes `N(ε)` is regressed against
/// `1/ε`. Columns are swept with linear interpolation between adjacent
/// samples so the "curve", not just the sample points, is covered.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 16 samples (and below
/// [`BOX_COUNTING_MIN_LEN`] for a non-constant series), [`Error::NonFinite`]
/// for NaN input, and [`Error::Numerical`] for a constant series (a
/// degenerate graph; its dimension is 1 by convention but no fit is
/// possible — callers that want the convention use
/// [`box_counting_or_smooth`]).
pub fn box_counting(data: &[f64]) -> Result<DimensionEstimate> {
    Error::require_len(data, 16)?;
    if data.len() < BOX_COUNTING_MIN_LEN {
        // Too short for three grid levels, but a constant series still
        // reports its degenerate graph first.
        Error::require_finite(data)?;
        let (lo, hi) = crate::holder::min_max(data);
        graph_span(lo, hi)?;
    }
    BoxGrid::new(data.len())?.estimate(data)
}

/// The vertical span of a graph whose samples run from `lo` to `hi`.
fn graph_span(lo: f64, hi: f64) -> Result<f64> {
    if hi - lo <= f64::EPSILON * lo.abs().max(1.0) {
        return Err(Error::Numerical(
            "constant series has degenerate graph".into(),
        ));
    }
    Ok(hi - lo)
}

/// The box-counting grid of an `n`-sample graph, built once per length.
///
/// Sample `i` sits at `t = i/(n−1)`, in column `⌊t/ε⌋` (capped at the
/// last) of the level with `2^k` columns of width `ε = 2^{−k}`. Levels run
/// from 2 columns up to ~n/4, so every finest column holds a few samples.
/// The grid stores where each finest column starts; the levels are dyadic,
/// so a coarser column — its interpolation partner included — is exactly
/// two finer ones, and its vertical extent is the pairwise min/max of
/// theirs. DESIGN.md §7 shows why the counts are the per-level column
/// walk's bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct BoxGrid {
    /// Start of each finest-level column, then `n`.
    starts: Vec<usize>,
    /// `ln 2^k` for the levels `k = 1, 2, …`: the fit's abscissae.
    log_divisions: Vec<f64>,
    /// Per-column minimum and maximum, folded in place level by level.
    lows: Vec<f64>,
    highs: Vec<f64>,
}

impl BoxGrid {
    /// The grid for `n`-sample series.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] below [`BOX_COUNTING_MIN_LEN`] samples.
    pub(crate) fn new(n: usize) -> Result<Self> {
        let levels = (n as f64 / 4.0).log2().floor() as usize;
        if levels < 3 {
            return Err(Error::TooShort {
                required: BOX_COUNTING_MIN_LEN,
                actual: n,
            });
        }
        let divisions = 1usize << levels;
        let eps = 1.0 / divisions as f64;
        let mut starts = Vec::with_capacity(divisions + 1);
        for i in 0..n {
            let t = i as f64 / (n - 1) as f64;
            let col = ((t / eps) as usize).min(divisions - 1);
            if col + 1 != starts.len() {
                assert_eq!(col, starts.len(), "box-counting column {col} is empty");
                starts.push(i);
            }
        }
        assert_eq!(starts.len(), divisions, "box-counting columns are empty");
        starts.push(n);
        Ok(BoxGrid {
            starts,
            log_divisions: (1..=levels).map(|k| ((1usize << k) as f64).ln()).collect(),
            lows: vec![0.0; divisions],
            highs: vec![0.0; divisions],
        })
    }

    /// The series length this grid covers.
    pub(crate) fn len(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// Box-counting dimension of `data`; see [`box_counting`]. Allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] when `data` is not [`Self::len`]
    /// long, [`Error::NonFinite`] for NaN input and [`Error::Numerical`]
    /// for a constant series.
    pub(crate) fn estimate(&mut self, data: &[f64]) -> Result<DimensionEstimate> {
        let n = self.len();
        if data.len() != n {
            return Err(Error::LengthMismatch {
                left: data.len(),
                right: n,
            });
        }
        Error::require_finite(data)?;
        // Each finest column's extent includes the interpolation partner
        // (the first sample of the next column). min/max commute with the
        // monotone graph normalisation, so boxes count from raw extremes.
        for (c, w) in self.starts.windows(2).enumerate() {
            let (mn, mx) = crate::holder::min_max(&data[w[0]..=w[1].min(n - 1)]);
            self.lows[c] = mn;
            self.highs[c] = mx;
        }
        let (lo, _) = crate::holder::min_max(&self.lows);
        let (_, hi) = crate::holder::min_max(&self.highs);
        let span = graph_span(lo, hi)?;

        // Finest level first; `* divisions` is the exact `/ ε`. Every
        // extent is ≥ `lo`, so a box coordinate is ≥ 0 (or NaN once an
        // infinite span enters), where truncating `as i64` is `floor`
        // without the libm call. `levels` ≤ 64, so the fit points live
        // on the stack.
        let levels = self.log_divisions.len();
        let mut log_counts = [0.0f64; 64];
        for k in (1..=levels).rev() {
            let divisions = 1usize << k;
            if divisions < self.lows.len() {
                for c in 0..divisions {
                    self.lows[c] = self.lows[2 * c].min(self.lows[2 * c + 1]);
                    self.highs[c] = self.highs[2 * c].max(self.highs[2 * c + 1]);
                }
            }
            let scale = divisions as f64;
            let mut count = 0usize;
            for (&mn, &mx) in self.lows[..divisions].iter().zip(&self.highs) {
                let lo_box = (((mn - lo) / span) * scale) as i64;
                let hi_box = (((mx - lo) / span) * scale) as i64;
                count += (hi_box - lo_box + 1).max(1) as usize;
            }
            log_counts[k - 1] = (count as f64).ln();
        }
        let fit = ols(&self.log_divisions, &log_counts[..levels])?;
        Ok(DimensionEstimate {
            dimension: fit.slope.clamp(1.0, 2.0),
            raw_dimension: fit.slope,
            fit,
        })
    }
}

/// The dimension of an estimate, with a degenerate (constant) graph
/// mapped to 1: a flat line is smooth. Other failures propagate.
pub(crate) fn dimension_or_smooth(estimate: Result<DimensionEstimate>) -> Result<f64> {
    match estimate {
        Ok(est) => Ok(est.dimension),
        Err(Error::Numerical(_)) => Ok(1.0),
        Err(e) => Err(e),
    }
}

/// Like [`box_counting`] but maps the degenerate constant-series case to
/// dimension 1 (a flat line is smooth) instead of an error. Other failures
/// still propagate.
///
/// # Errors
///
/// Same as [`box_counting`] except the constant case.
pub fn box_counting_or_smooth(data: &[f64]) -> Result<f64> {
    dimension_or_smooth(box_counting(data))
}

/// Variation (oscillation) dimension of Dubuc et al.: the mean oscillation
/// of the series over windows of radius `r` scales as `r^{2−D}` for a
/// self-affine graph; regress `log mean-osc` on `log r`.
///
/// More stable than grid box-counting on the short windows used by the
/// sliding detector.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 16 samples, [`Error::NonFinite`] for
/// NaN input, and [`Error::Numerical`] for constant series.
pub fn variation(data: &[f64]) -> Result<DimensionEstimate> {
    Error::require_len(data, 16)?;
    Error::require_finite(data)?;
    let n = data.len();
    let max_r = (n / 4).max(2);
    // Radii are 1, 2, 4, … ≤ max_r, so there are exactly
    // bits(max_r) of them — no materialised radius list needed.
    let n_radii = (usize::BITS - max_r.leading_zeros()) as usize;
    if n_radii < 3 {
        return Err(Error::TooShort {
            required: 16,
            actual: n,
        });
    }
    // At most bits(usize) dyadic radii, so the fit points fit on the
    // stack; this runs per StreamingDimension emission: zero heap.
    let mut xs = [0.0f64; usize::BITS as usize];
    let mut ys = [0.0f64; usize::BITS as usize];
    let mut len = 0usize;
    let mut r = 1usize;
    while r <= max_r {
        let mut total = 0.0;
        for t in 0..n {
            let lo = t.saturating_sub(r);
            let hi = (t + r).min(n - 1);
            let (mn, mx) = crate::holder::min_max(&data[lo..=hi]);
            total += mx - mn;
        }
        let mean_osc = total / n as f64;
        if mean_osc > 0.0 {
            xs[len] = r as f64;
            ys[len] = mean_osc;
            len += 1;
        }
        r *= 2;
    }
    if len < 3 {
        return Err(Error::Numerical(
            "constant series has degenerate oscillation".into(),
        ));
    }
    let fit = log_log_fit(&xs[..len], &ys[..len])?;
    // osc ~ r^H with H = 2 − D.
    Ok(DimensionEstimate {
        dimension: (2.0 - fit.slope).clamp(1.0, 2.0),
        raw_dimension: 2.0 - fit.slope,
        fit,
    })
}

/// Higuchi's fractal dimension: the curve length measured at stride `k`
/// scales as `k^{−D}`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k_max < 3`,
/// [`Error::TooShort`] when `n < 4·k_max`, and [`Error::Numerical`] for
/// constant series.
pub fn higuchi(data: &[f64], k_max: usize) -> Result<DimensionEstimate> {
    if k_max < 3 {
        return Err(Error::invalid("k_max", "must be at least 3"));
    }
    Error::require_len(data, 4 * k_max)?;
    Error::require_finite(data)?;
    let n = data.len();
    let mut points = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let mut lengths = Vec::with_capacity(k);
        for m in 0..k {
            let steps = (n - 1 - m) / k;
            if steps == 0 {
                continue;
            }
            let mut len = 0.0;
            for i in 1..=steps {
                len += (data[m + i * k] - data[m + (i - 1) * k]).abs();
            }
            // Higuchi normalisation.
            let norm = (n - 1) as f64 / (steps as f64 * k as f64);
            lengths.push(len * norm / k as f64);
        }
        if let Ok(mean_len) = stats::mean(&lengths) {
            if mean_len > 0.0 {
                points.push((k as f64, mean_len));
            }
        }
    }
    if points.len() < 3 {
        return Err(Error::Numerical(
            "constant series has degenerate curve length".into(),
        ));
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let fit = log_log_fit(&xs, &ys)?;
    Ok(DimensionEstimate {
        dimension: (-fit.slope).clamp(1.0, 2.0),
        raw_dimension: -fit.slope,
        fit,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generate;
    use proptest::prelude::*;

    /// The per-level column walk [`BoxGrid`] replaced, kept as its oracle:
    /// every level re-derives each sample's column with `t / ε`.
    fn reference_box_counting(data: &[f64]) -> Result<DimensionEstimate> {
        Error::require_len(data, 16)?;
        Error::require_finite(data)?;
        let n = data.len();
        let lo = stats::min(data)?;
        let hi = stats::max(data)?;
        if hi - lo <= f64::EPSILON * lo.abs().max(1.0) {
            return Err(Error::Numerical(
                "constant series has degenerate graph".into(),
            ));
        }
        let span = hi - lo;
        let max_k = ((n as f64 / 4.0).log2().floor() as usize).max(2);
        if max_k < 3 {
            return Err(Error::TooShort {
                required: 32,
                actual: n,
            });
        }
        let mut xs = [0.0f64; 64];
        let mut ys = [0.0f64; 64];
        for k in 1..=max_k {
            let divisions = 1usize << k;
            let eps = 1.0 / divisions as f64;
            let mut count = 0usize;
            let mut i = 0usize;
            while i < n {
                let t = i as f64 / (n - 1) as f64;
                let col = ((t / eps) as usize).min(divisions - 1);
                let mut j = i + 1;
                while j < n {
                    let tj = j as f64 / (n - 1) as f64;
                    if ((tj / eps) as usize).min(divisions - 1) != col {
                        break;
                    }
                    j += 1;
                }
                let (mn, mx) = crate::holder::min_max(&data[i..=j.min(n - 1)]);
                let lo_box = (((mn - lo) / span) / eps).floor() as i64;
                let hi_box = (((mx - lo) / span) / eps).floor() as i64;
                count += (hi_box - lo_box + 1).max(1) as usize;
                i = j;
            }
            xs[k - 1] = divisions as f64;
            ys[k - 1] = count as f64;
        }
        let fit = log_log_fit(&xs[..max_k], &ys[..max_k])?;
        Ok(DimensionEstimate {
            dimension: fit.slope.clamp(1.0, 2.0),
            raw_dimension: fit.slope,
            fit,
        })
    }

    fn estimate_bits(est: &DimensionEstimate) -> [u64; 7] {
        let fit = &est.fit;
        [
            est.dimension.to_bits(),
            est.raw_dimension.to_bits(),
            fit.slope.to_bits(),
            fit.intercept.to_bits(),
            fit.r_squared.to_bits(),
            fit.slope_std_error.to_bits(),
            fit.n as u64,
        ]
    }

    /// Deterministic series of `n` samples in one of four shapes: a rough
    /// walk, constant runs (a single level makes the whole series
    /// constant), spikes spanning ±1e300, and signed zeros among ±1.
    pub(crate) fn shaped_series(n: usize, seed: u64, shape: u8) -> Vec<f64> {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut walk = 0.0;
        let levels = 1 + (seed % 4) as usize;
        let mut level = 0.0;
        (0..n)
            .map(|_| match shape {
                0 => {
                    walk += next() - 0.5;
                    walk
                }
                1 => {
                    if next() < 0.1 {
                        level = (next() * levels as f64).floor();
                    }
                    level
                }
                2 => match (next() * 4.0) as u32 {
                    0 => 1e300,
                    1 => -1e300,
                    _ => (next() - 0.5) * 2e300,
                },
                _ => [0.0, -0.0, 1.0, -1.0][(next() * 4.0) as usize],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lengths 16..=2048: any, or a power of two or its neighbour.
        #[test]
        fn grid_matches_the_column_walk_bitwise(
            any_len in 16usize..=2048,
            power in 4u32..=11,
            offset in 0usize..=2,
            dyadic in 0u8..2,
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let n = if dyadic == 1 {
                ((1usize << power) + offset).clamp(17, 2049) - 1
            } else {
                any_len
            };
            let data = shaped_series(n, seed, shape);
            match (box_counting(&data), reference_box_counting(&data)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(estimate_bits(&got), estimate_bits(&want)),
                (got, want) => prop_assert_eq!(got, want),
            }
        }
    }

    #[test]
    fn grid_is_reused_across_windows_of_its_length() {
        let x = generate::fbm(1024, 0.5, 21).unwrap();
        let mut grid = BoxGrid::new(128).unwrap();
        assert_eq!(grid.len(), 128);
        for w in x.windows(128).step_by(37) {
            let got = grid.estimate(w).unwrap();
            let want = reference_box_counting(w).unwrap();
            assert_eq!(estimate_bits(&got), estimate_bits(&want));
        }
        assert!(matches!(
            grid.estimate(&x[..127]),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            BoxGrid::new(BOX_COUNTING_MIN_LEN - 1),
            Err(Error::TooShort { required: 32, .. })
        ));
    }

    #[test]
    fn smooth_curve_has_dimension_one() {
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.01).sin()).collect();
        let d = box_counting(&x).unwrap();
        assert!(d.dimension < 1.25, "box {}", d.dimension);
        let v = variation(&x).unwrap();
        assert!(v.dimension < 1.2, "variation {}", v.dimension);
        let h = higuchi(&x, 8).unwrap();
        assert!(h.dimension < 1.2, "higuchi {}", h.dimension);
    }

    #[test]
    fn white_noise_dimension_near_two() {
        let x = generate::white_noise(4096, 1).unwrap();
        let v = variation(&x).unwrap();
        assert!(v.dimension > 1.8, "variation {}", v.dimension);
        let h = higuchi(&x, 8).unwrap();
        assert!(h.dimension > 1.8, "higuchi {}", h.dimension);
    }

    #[test]
    fn fbm_dimension_tracks_two_minus_h() {
        for &(hurst, seed) in &[(0.3, 2u64), (0.5, 3), (0.8, 4)] {
            let x = generate::fbm(8192, hurst, seed).unwrap();
            let expect = 2.0 - hurst;
            let v = variation(&x).unwrap();
            assert!(
                (v.dimension - expect).abs() < 0.15,
                "H={hurst}: variation {} vs {expect}",
                v.dimension
            );
            let hg = higuchi(&x, 8).unwrap();
            assert!(
                (hg.dimension - expect).abs() < 0.2,
                "H={hurst}: higuchi {} vs {expect}",
                hg.dimension
            );
        }
    }

    #[test]
    fn box_counting_orders_roughness() {
        let smooth = generate::fbm(4096, 0.8, 5).unwrap();
        let rough = generate::fbm(4096, 0.2, 6).unwrap();
        let ds = box_counting(&smooth).unwrap().dimension;
        let dr = box_counting(&rough).unwrap().dimension;
        assert!(dr > ds + 0.2, "rough {dr} smooth {ds}");
    }

    #[test]
    fn dimension_is_amplitude_invariant() {
        // The graph is normalised, so scaling the values must not move D.
        let x = generate::fbm(2048, 0.5, 7).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| v * 1000.0).collect();
        let a = box_counting(&x).unwrap().dimension;
        let b = box_counting(&scaled).unwrap().dimension;
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn constant_series_handling() {
        let x = vec![2.5; 256];
        assert!(matches!(box_counting(&x), Err(Error::Numerical(_))));
        assert_eq!(box_counting_or_smooth(&x).unwrap(), 1.0);
        assert!(variation(&x).is_err());
        assert!(higuchi(&x, 8).is_err());
    }

    #[test]
    fn guards() {
        let x = generate::white_noise(64, 8).unwrap();
        assert!(box_counting(&x[..8]).is_err());
        assert!(higuchi(&x, 2).is_err());
        assert!(higuchi(&x[..8], 8).is_err());
        let mut bad = x.clone();
        bad[10] = f64::NAN;
        assert!(box_counting(&bad).is_err());
        assert!(variation(&bad).is_err());
    }

    #[test]
    fn estimates_expose_diagnostics() {
        let x = generate::fbm(1024, 0.5, 9).unwrap();
        let d = variation(&x).unwrap();
        assert!(d.fit.r_squared > 0.9);
        assert!(d.raw_dimension > 0.0);
    }

    #[test]
    fn short_window_variation_works_at_64() {
        // The sliding detector uses windows this small.
        let x = generate::fbm(64, 0.5, 10).unwrap();
        let d = variation(&x).unwrap();
        assert!(d.dimension >= 1.0 && d.dimension <= 2.0);
    }
}
