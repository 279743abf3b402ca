//! Local Hölder exponent estimation — step 1 of the target paper's method.
//!
//! The local Hölder exponent `h(t)` quantifies the regularity of a signal
//! at time `t`: small `h` (→ 0) means violent local fluctuation, `h` near 1
//! means near-differentiable behaviour. The paper computes `h(t)` for
//! memory-resource traces and then tracks the fractal dimension of the
//! resulting *Hölder trace*.
//!
//! Three estimators are provided:
//!
//! - **Local increment** (default): regress `log ⟨|x(u+r) − x(u)|⟩` over a
//!   neighbourhood of `t` against `log r` — a localised first-order
//!   structure function. Nearly unbiased on fBm/Weierstrass ground truth
//!   (within ±0.05 across `h ∈ [0.3, 0.9]`).
//! - **Oscillation**: regress `log osc_r(t)` (max − min over a radius-`r`
//!   window) against `log r`. The classical definition, but the discrete
//!   sup under-samples at small radii, giving a known upward bias of up to
//!   ≈ +0.15 at low `h`; kept for cross-checking and because the paper's
//!   era used oscillation-style estimates.
//! - **Wavelet leaders**: regress `log₂ ℓ_j(t)` against the level `j` —
//!   theoretically grounded (Jaffard), needs a dyadic analysis.

use aging_par::Pool;
use aging_timeseries::regression::ols;
use aging_timeseries::{Error, Result};
use aging_wavelet::{Wavelet, WaveletLeaders};

/// Configuration of the local-increment (localised structure-function)
/// estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementConfig {
    /// Neighbourhood radius (in samples) over which increments are
    /// averaged. Must be ≥ 2 × the largest lag.
    pub window_radius: usize,
    /// Largest lag; lags `1, 2, 4, …, max_lag` enter the regression.
    /// Must be ≥ 4.
    pub max_lag: usize,
    /// Cap applied where the regression is degenerate (locally constant
    /// data is "infinitely regular").
    pub max_h: f64,
}

impl Default for IncrementConfig {
    fn default() -> Self {
        IncrementConfig {
            window_radius: 32,
            max_lag: 8,
            max_h: 2.0,
        }
    }
}

/// Configuration of the oscillation estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillationConfig {
    /// Largest window radius (in samples); radii `1, 2, 4, …, max_radius`
    /// enter the regression. Must be ≥ 4.
    pub max_radius: usize,
    /// Cap applied where the regression is degenerate.
    pub max_h: f64,
}

impl Default for OscillationConfig {
    fn default() -> Self {
        OscillationConfig {
            max_radius: 16,
            max_h: 2.0,
        }
    }
}

/// Configuration of the wavelet-leader estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderConfig {
    /// Analysis wavelet.
    pub wavelet: Wavelet,
    /// Number of DWT levels.
    pub levels: usize,
    /// First level included in the regression (the finest levels are
    /// contaminated by sampling effects; 2 is a good default).
    pub fit_min_level: usize,
    /// Cap applied where the regression is degenerate.
    pub max_h: f64,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            wavelet: Wavelet::Daubechies6,
            levels: 6,
            fit_min_level: 2,
            max_h: 2.0,
        }
    }
}

/// Which local-regularity estimator to use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HolderEstimator {
    /// Localised first-order structure function (default; lowest bias).
    LocalIncrement(IncrementConfig),
    /// Oscillation (max − min over growing windows) estimator.
    Oscillation(OscillationConfig),
    /// Wavelet-leader estimator.
    WaveletLeader(LeaderConfig),
}

impl Default for HolderEstimator {
    fn default() -> Self {
        HolderEstimator::LocalIncrement(IncrementConfig::default())
    }
}

impl HolderEstimator {
    /// The default local-increment estimator.
    pub fn local_increment() -> Self {
        HolderEstimator::LocalIncrement(IncrementConfig::default())
    }

    /// The default oscillation estimator.
    pub fn oscillation() -> Self {
        HolderEstimator::Oscillation(OscillationConfig::default())
    }

    /// The default wavelet-leader estimator.
    pub fn wavelet_leader() -> Self {
        HolderEstimator::WaveletLeader(LeaderConfig::default())
    }

    /// Minimum number of samples this estimator needs.
    pub fn min_samples(&self) -> usize {
        match self {
            HolderEstimator::LocalIncrement(c) => (2 * c.window_radius).max(64),
            HolderEstimator::Oscillation(c) => (4 * c.max_radius).max(16),
            HolderEstimator::WaveletLeader(c) => 1 << c.levels,
        }
    }
}

/// Computes the local Hölder exponent trace `h(t)` of `data`, one value per
/// input sample.
///
/// Values are clamped to `[-1, max_h]` (slightly negative estimates occur
/// on pure noise); positions where no regression is possible (locally
/// constant data) receive `max_h`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] when `data` is shorter than
/// [`HolderEstimator::min_samples`], [`Error::NonFinite`] for NaN input,
/// and [`Error::InvalidParameter`] for malformed configurations.
///
/// # Examples
///
/// ```
/// use aging_fractal::{generate, holder};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let signal = generate::weierstrass(2048, 0.5)?;
/// let h = holder::holder_trace(&signal, &holder::HolderEstimator::default())?;
/// assert_eq!(h.len(), signal.len());
/// let mean = h.iter().sum::<f64>() / h.len() as f64;
/// assert!((mean - 0.5).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn holder_trace(data: &[f64], estimator: &HolderEstimator) -> Result<Vec<f64>> {
    holder_trace_in(data, estimator, Pool::global())
}

/// [`holder_trace`] on an explicit pool: trace points are computed in
/// parallel over contiguous index chunks. Every point depends only on the
/// input neighbourhood, so the output is bit-identical to the sequential
/// trace for any pool size.
///
/// # Errors
///
/// Same failure modes as [`holder_trace`].
pub fn holder_trace_in(data: &[f64], estimator: &HolderEstimator, pool: &Pool) -> Result<Vec<f64>> {
    Error::require_finite(data)?;
    match estimator {
        HolderEstimator::LocalIncrement(cfg) => increment_trace(data, cfg, pool),
        HolderEstimator::Oscillation(cfg) => oscillation_trace(data, cfg, pool),
        HolderEstimator::WaveletLeader(cfg) => leader_trace(data, cfg, pool),
    }
}

fn power_of_two_steps(max: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |&r| Some(r * 2))
        .take_while(|&r| r <= max)
        .collect()
}

/// Minimum and maximum of a NaN-free slice in one 4-lane unrolled pass.
///
/// `min`/`max` are associative and commutative on finite data, so the
/// lane-wise reduction is bit-identical to the sequential scan while
/// letting the compiler keep four independent dependency chains (and
/// auto-vectorize). FP *sums* get no such treatment anywhere in this
/// crate — reassociating them would change results.
#[inline]
pub(crate) fn min_max(data: &[f64]) -> (f64, f64) {
    let mut mn = [f64::MAX; 4];
    let mut mx = [f64::MIN; 4];
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        for k in 0..4 {
            mn[k] = mn[k].min(c[k]);
            mx[k] = mx[k].max(c[k]);
        }
    }
    let mut amn = (mn[0].min(mn[1])).min(mn[2].min(mn[3]));
    let mut amx = (mx[0].max(mx[1])).max(mx[2].max(mx[3]));
    for &v in chunks.remainder() {
        amn = amn.min(v);
        amx = amx.max(v);
    }
    (amn, amx)
}

fn increment_trace(data: &[f64], cfg: &IncrementConfig, pool: &Pool) -> Result<Vec<f64>> {
    if cfg.max_lag < 4 {
        return Err(Error::invalid("max_lag", "must be at least 4"));
    }
    if cfg.window_radius < 2 * cfg.max_lag {
        return Err(Error::invalid(
            "window_radius",
            "must be at least twice max_lag",
        ));
    }
    if !(cfg.max_h > 0.0) {
        return Err(Error::invalid("max_h", "must be positive"));
    }
    let min_n = (2 * cfg.window_radius).max(64);
    Error::require_len(data, min_n)?;
    let n = data.len();
    let w = cfg.window_radius;
    // Every neighbourhood, truncated at the edges, keeps at least
    // `window_radius + 1 > max_lag` samples, so every rung has increments.
    let ladder = IncrementLadder::new(cfg.max_lag, cfg.max_h);
    let out = pool.map_range(n, |range| {
        range
            .map(|t| ladder.exponent(&data[t.saturating_sub(w)..=(t + w).min(n - 1)]))
            .collect()
    });
    Ok(out)
}

fn oscillation_trace(data: &[f64], cfg: &OscillationConfig, pool: &Pool) -> Result<Vec<f64>> {
    if cfg.max_radius < 4 {
        return Err(Error::invalid("max_radius", "must be at least 4"));
    }
    if !(cfg.max_h > 0.0) {
        return Err(Error::invalid("max_h", "must be positive"));
    }
    let min_n = (4 * cfg.max_radius).max(16);
    Error::require_len(data, min_n)?;
    let n = data.len();

    let radii = power_of_two_steps(cfg.max_radius);
    let log_r: Vec<f64> = radii.iter().map(|&r| (r as f64).ln()).collect();

    let out = pool.map_range(n, |range| {
        let mut chunk = Vec::with_capacity(range.len());
        let mut xs = Vec::with_capacity(radii.len());
        let mut ys = Vec::with_capacity(radii.len());
        for t in range {
            xs.clear();
            ys.clear();
            for (ri, &r) in radii.iter().enumerate() {
                let lo = t.saturating_sub(r);
                let hi = (t + r).min(n - 1);
                let (mn, mx) = min_max(&data[lo..=hi]);
                let osc = mx - mn;
                if osc > 0.0 {
                    xs.push(log_r[ri]);
                    ys.push(osc.ln());
                }
            }
            chunk.push(fit_or_cap(&xs, &ys, cfg.max_h));
        }
        chunk
    });
    Ok(out)
}

fn leader_trace(data: &[f64], cfg: &LeaderConfig, pool: &Pool) -> Result<Vec<f64>> {
    if cfg.levels < 3 {
        return Err(Error::invalid("levels", "must be at least 3"));
    }
    if cfg.fit_min_level == 0 || cfg.fit_min_level + 2 > cfg.levels {
        return Err(Error::invalid(
            "fit_min_level",
            "must be >= 1 and leave at least 3 levels for the fit",
        ));
    }
    if !(cfg.max_h > 0.0) {
        return Err(Error::invalid("max_h", "must be positive"));
    }
    Error::require_len(data, 1 << cfg.levels)?;

    let leaders = WaveletLeaders::compute(data, cfg.wavelet, cfg.levels)?;
    let n = data.len();
    let out = pool.map_range(n, |range| {
        let mut chunk = Vec::with_capacity(range.len());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in range {
            xs.clear();
            ys.clear();
            for j in cfg.fit_min_level..=cfg.levels {
                let l = leaders.at_time(j, t);
                if l > 0.0 {
                    xs.push(j as f64);
                    ys.push(l.log2());
                }
            }
            chunk.push(fit_or_cap(&xs, &ys, cfg.max_h));
        }
        chunk
    });
    Ok(out)
}

/// Hölder exponent attributed to the centre of a single neighbourhood
/// window, using the local-increment estimator (the streaming detector's
/// building block: feed it the trailing `2·radius + 1` samples and read
/// the exponent of the window centre).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `max_lag < 4` or non-positive
/// `max_h`, [`Error::TooShort`] when `window` has fewer than `4·max_lag`
/// samples, and [`Error::NonFinite`] for NaN input.
///
/// # Examples
///
/// ```
/// use aging_fractal::{generate, holder};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let signal = generate::weierstrass(256, 0.5)?;
/// let h = holder::increment_exponent(&signal[64..192], 8, 2.0)?;
/// assert!(h > 0.2 && h < 0.8);
/// # Ok(())
/// # }
/// ```
pub fn increment_exponent(window: &[f64], max_lag: usize, max_h: f64) -> Result<f64> {
    if max_lag < 4 {
        return Err(Error::invalid("max_lag", "must be at least 4"));
    }
    if !(max_h > 0.0) {
        return Err(Error::invalid("max_h", "must be positive"));
    }
    Error::require_len(window, 4 * max_lag)?;
    Error::require_finite(window)?;
    Ok(IncrementLadder::new(max_lag, max_h).exponent(window))
}

/// A usize has at most 64 doubling steps, so no ladder has more rungs.
const MAX_RUNGS: usize = usize::BITS as usize;

/// Rungs accumulated side by side in one pass; a longer ladder takes one
/// pass per group of this many rungs.
const RUNG_GROUP: usize = 8;

/// The local-increment estimator: the lag ladder `1, 2, 4, …, max_lag`
/// with each rung's `ln(lag)`, built once per configuration. The batch
/// [`holder_trace`] and the streaming
/// [`StreamingHolder`](crate::streaming::StreamingHolder) both run
/// [`IncrementLadder::exponent`], so their traces agree bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct IncrementLadder {
    rungs: usize,
    log_lag: [f64; MAX_RUNGS],
    max_h: f64,
}

impl IncrementLadder {
    /// The ladder for lags up to `max_lag` (callers check `max_lag ≥ 4`)
    /// and exponent cap `max_h`.
    pub(crate) fn new(max_lag: usize, max_h: f64) -> Self {
        let mut log_lag = [0.0f64; MAX_RUNGS];
        let mut rungs = 0;
        let mut r = 1usize;
        while r <= max_lag {
            log_lag[rungs] = (r as f64).ln();
            rungs += 1;
            if r > max_lag / 2 {
                break;
            }
            r *= 2;
        }
        IncrementLadder {
            rungs,
            log_lag,
            max_h,
        }
    }

    /// Hölder exponent attributed to the centre of `window`, which must
    /// hold at least as many samples as the largest lag: the slope of
    /// `ln ⟨|x(u+r) − x(u)|⟩` against `ln r`, capped as in [`holder_trace`].
    /// Allocates nothing.
    pub(crate) fn exponent(&self, window: &[f64]) -> f64 {
        let mut sums = [0.0f64; MAX_RUNGS];
        for (g, group) in sums[..self.rungs].chunks_mut(RUNG_GROUP).enumerate() {
            let first = g * RUNG_GROUP;
            match group.len() {
                1 => increment_sums::<1>(window, first, group),
                2 => increment_sums::<2>(window, first, group),
                3 => increment_sums::<3>(window, first, group),
                4 => increment_sums::<4>(window, first, group),
                5 => increment_sums::<5>(window, first, group),
                6 => increment_sums::<6>(window, first, group),
                7 => increment_sums::<7>(window, first, group),
                _ => increment_sums::<RUNG_GROUP>(window, first, group),
            }
        }
        let mut xs = [0.0f64; MAX_RUNGS];
        let mut ys = [0.0f64; MAX_RUNGS];
        let mut len = 0usize;
        for (ri, &acc) in sums[..self.rungs].iter().enumerate() {
            if acc > 0.0 {
                xs[len] = self.log_lag[ri];
                ys[len] = (acc / (window.len() - (1usize << ri)) as f64).ln();
                len += 1;
            }
        }
        fit_or_cap(&xs[..len], &ys[..len], self.max_h)
    }
}

/// Writes `Σ_u |x(u+r) − x(u)|` into `sums[j]` for the `R` rungs
/// `r = 2^(first+j)`, in one pass over `window`.
///
/// Each rung's sum keeps its own sequential order over `u` (reassociating
/// FP adds would change bits); running the rungs side by side only turns
/// `R` back-to-back dependency chains into `R` independent ones. The
/// shifted slices let the compiler drop the bounds checks.
#[inline]
fn increment_sums<const R: usize>(window: &[f64], first: usize, sums: &mut [f64]) {
    let top = 1usize << (first + R - 1);
    let m = window.len() - top;
    let base = &window[..m];
    let shifted: [&[f64]; R] = std::array::from_fn(|j| &window[1 << (first + j)..][..m]);
    let mut acc = [0.0f64; R];
    for (u, &x) in base.iter().enumerate() {
        for j in 0..R {
            acc[j] += (shifted[j][u] - x).abs();
        }
    }
    // The rungs below the top still have partners past `m`.
    for (j, (a, sum)) in acc.iter().zip(sums.iter_mut()).enumerate() {
        let lag = 1usize << (first + j);
        let mut a = *a;
        for (b, x) in window[m + lag..].iter().zip(&window[m..]) {
            a += (b - x).abs();
        }
        *sum = a;
    }
}

fn fit_or_cap(xs: &[f64], ys: &[f64], max_h: f64) -> f64 {
    // Floor at -1 rather than 0: pure noise can regress slightly negative,
    // and flooring at 0 would flatten rough-signal traces into degenerate
    // constants (breaking the dimension analysis applied to the trace).
    if xs.len() >= 3 {
        match ols(xs, ys) {
            Ok(fit) => fit.slope.clamp(-1.0, max_h),
            Err(_) => max_h,
        }
    } else {
        max_h
    }
}

/// Summary statistics of a Hölder trace (used by the aging analyses to
/// compare early-life and late-life regularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HolderSummary {
    /// Mean exponent.
    pub mean: f64,
    /// Standard deviation of the exponent.
    pub std_dev: f64,
    /// Minimum exponent.
    pub min: f64,
    /// Maximum exponent.
    pub max: f64,
}

impl HolderSummary {
    /// Summarises a Hölder trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] for traces shorter than two samples.
    pub fn of(trace: &[f64]) -> Result<Self> {
        Error::require_len(trace, 2)?;
        Ok(HolderSummary {
            mean: aging_timeseries::stats::mean(trace)?,
            std_dev: aging_timeseries::stats::std_dev(trace)?,
            min: aging_timeseries::stats::min(trace)?,
            max: aging_timeseries::stats::max(trace)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::tests::shaped_series;
    use crate::generate;
    use aging_timeseries::stats;
    use proptest::prelude::*;

    /// The per-rung sequential loop [`IncrementLadder`] replaced, kept as
    /// its oracle: one full pass over the window per lag.
    fn reference_increment_exponent(window: &[f64], max_lag: usize, max_h: f64) -> f64 {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut r = 1usize;
        while r <= max_lag {
            let mut acc = 0.0;
            for (a, b) in window[r..].iter().zip(window.iter()) {
                acc += (a - b).abs();
            }
            let count = window.len() - r;
            if acc > 0.0 {
                xs.push((r as f64).ln());
                ys.push((acc / count as f64).ln());
            }
            if r > max_lag / 2 {
                break;
            }
            r *= 2;
        }
        fit_or_cap(&xs, &ys, max_h)
    }

    /// The batch increment trace as it was before it shared the ladder:
    /// each point walks its (edge-truncated) neighbourhood rung by rung.
    fn reference_increment_trace(data: &[f64], cfg: &IncrementConfig) -> Vec<f64> {
        let n = data.len();
        let w = cfg.window_radius;
        let lags = power_of_two_steps(cfg.max_lag);
        (0..n)
            .map(|t| {
                let lo = t.saturating_sub(w);
                let hi = (t + w).min(n - 1);
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for &r in &lags {
                    if hi - lo < r {
                        continue;
                    }
                    let mut acc = 0.0;
                    let mut count = 0usize;
                    let mut u = lo;
                    while u + r <= hi {
                        acc += (data[u + r] - data[u]).abs();
                        count += 1;
                        u += 1;
                    }
                    if count > 0 && acc > 0.0 {
                        xs.push((r as f64).ln());
                        ys.push((acc / count as f64).ln());
                    }
                }
                fit_or_cap(&xs, &ys, cfg.max_h)
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `max_lag` 4..=40 gives ladders of 3 to 6 rungs; windows run
        /// down to the `4·max_lag` floor.
        #[test]
        fn ladder_matches_the_rung_loop_bitwise(
            max_lag in 4usize..=40,
            extra in 0usize..=160,
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
            cap in 0.1f64..3.0,
            default_cap in 0u8..2,
        ) {
            let max_h = if default_cap == 1 { 2.0 } else { cap };
            let window = shaped_series(4 * max_lag + extra, seed, shape);
            let got = increment_exponent(&window, max_lag, max_h).unwrap();
            let want = reference_increment_exponent(&window, max_lag, max_h);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        /// The batch trace, edges included, at every pool size.
        #[test]
        fn increment_trace_matches_the_rung_loop_bitwise(
            max_lag in 4usize..=40,
            radius_extra in 0usize..=24,
            extra in 0usize..=200,
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let cfg = IncrementConfig {
                window_radius: 2 * max_lag + radius_extra,
                max_lag,
                max_h: 2.0,
            };
            let n = (2 * cfg.window_radius).max(64) + extra;
            let data = shaped_series(n, seed, shape);
            let want = bits(&reference_increment_trace(&data, &cfg));
            for threads in [1, 3] {
                let got = increment_trace(&data, &cfg, &Pool::new(threads)).unwrap();
                prop_assert_eq!(bits(&got), want.clone());
            }
        }
    }

    #[test]
    fn weierstrass_trace_matches_h_increment() {
        for &h in &[0.3, 0.5, 0.7] {
            let x = generate::weierstrass(4096, h).unwrap();
            let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
            let mean = stats::mean(&trace).unwrap();
            assert!((mean - h).abs() < 0.08, "h={h}: mean {mean}");
        }
    }

    #[test]
    fn fbm_trace_tracks_hurst_increment() {
        for &(hurst, seed) in &[(0.3, 1u64), (0.5, 12), (0.7, 2), (0.9, 13)] {
            let x = generate::fbm(8192, hurst, seed).unwrap();
            let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
            let mean = stats::mean(&trace).unwrap();
            assert!((mean - hurst).abs() < 0.08, "H={hurst}: mean {mean}");
        }
    }

    #[test]
    fn oscillation_estimator_biased_but_ordered() {
        // The oscillation variant has a documented upward bias at low h;
        // it must still order regularity levels correctly and stay within
        // a generous band.
        let mut means = Vec::new();
        for &(h, seed) in &[(0.3, 3u64), (0.5, 4), (0.7, 5)] {
            let x = generate::fbm(8192, h, seed).unwrap();
            let trace = holder_trace(&x, &HolderEstimator::oscillation()).unwrap();
            let mean = stats::mean(&trace).unwrap();
            assert!((mean - h).abs() < 0.3, "H={h}: mean {mean}");
            means.push(mean);
        }
        assert!(means[0] < means[1] && means[1] < means[2]);
    }

    #[test]
    fn weierstrass_trace_matches_h_leaders() {
        for &h in &[0.3, 0.6] {
            let x = generate::weierstrass(8192, h).unwrap();
            let trace = holder_trace(&x, &HolderEstimator::wavelet_leader()).unwrap();
            let mean = stats::mean(&trace).unwrap();
            assert!((mean - h).abs() < 0.2, "h={h}: mean {mean}");
        }
    }

    #[test]
    fn rough_signal_has_lower_h_than_smooth() {
        let rough = generate::fbm(2048, 0.2, 3).unwrap();
        let smooth = generate::fbm(2048, 0.8, 4).unwrap();
        for est in [
            HolderEstimator::local_increment(),
            HolderEstimator::oscillation(),
            HolderEstimator::wavelet_leader(),
        ] {
            let hr = stats::mean(&holder_trace(&rough, &est).unwrap()).unwrap();
            let hs = stats::mean(&holder_trace(&smooth, &est).unwrap()).unwrap();
            assert!(hr + 0.2 < hs, "{est:?}: rough {hr} smooth {hs}");
        }
    }

    #[test]
    fn smooth_sine_has_high_h() {
        let x: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.01).sin()).collect();
        let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
        let mean = stats::mean(&trace).unwrap();
        assert!(mean > 0.85, "mean {mean}");
    }

    #[test]
    fn trace_has_input_length() {
        let x = generate::white_noise(300, 5).unwrap();
        for est in [
            HolderEstimator::local_increment(),
            HolderEstimator::oscillation(),
            HolderEstimator::wavelet_leader(),
        ] {
            let t = holder_trace(&x, &est).unwrap();
            assert_eq!(t.len(), 300, "{est:?}");
        }
    }

    #[test]
    fn trace_is_amplitude_invariant() {
        let x = generate::fbm(1024, 0.5, 6).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| 1e4 * v).collect();
        let a = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
        let b = holder_trace(&scaled, &HolderEstimator::local_increment()).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_signal_maps_to_max_h() {
        let x = vec![7.0; 256];
        let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
        assert!(trace.iter().all(|&h| h == 2.0));
    }

    #[test]
    fn values_lie_in_range() {
        let x = generate::white_noise(2048, 7).unwrap();
        for est in [
            HolderEstimator::local_increment(),
            HolderEstimator::oscillation(),
            HolderEstimator::wavelet_leader(),
        ] {
            let trace = holder_trace(&x, &est).unwrap();
            assert!(trace.iter().all(|&h| (-1.0..=2.0).contains(&h)), "{est:?}");
        }
    }

    #[test]
    fn localized_roughness_is_detected() {
        // Smooth sine with a burst of noise in the middle third: the trace
        // must dip there.
        let n = 3000;
        let noise = generate::white_noise(n, 8).unwrap();
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let smooth = (i as f64 * 0.01).sin() * 5.0;
                if (1000..2000).contains(&i) {
                    smooth + 0.5 * noise[i]
                } else {
                    smooth
                }
            })
            .collect();
        let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
        let inside = stats::mean(&trace[1100..1900]).unwrap();
        let outside = stats::mean(&trace[100..900]).unwrap();
        assert!(inside + 0.2 < outside, "inside {inside} outside {outside}");
    }

    #[test]
    fn guards() {
        let x = generate::white_noise(1024, 9).unwrap();
        assert!(holder_trace(&x[..10], &HolderEstimator::local_increment()).is_err());
        let mut bad = x.clone();
        bad[0] = f64::NAN;
        assert!(holder_trace(&bad, &HolderEstimator::local_increment()).is_err());

        let bad_inc = HolderEstimator::LocalIncrement(IncrementConfig {
            window_radius: 8,
            max_lag: 8,
            max_h: 2.0,
        });
        assert!(holder_trace(&x, &bad_inc).is_err());

        let bad_osc = HolderEstimator::Oscillation(OscillationConfig {
            max_radius: 2,
            max_h: 2.0,
        });
        assert!(holder_trace(&x, &bad_osc).is_err());

        let bad_leader = HolderEstimator::WaveletLeader(LeaderConfig {
            fit_min_level: 5,
            levels: 6,
            ..LeaderConfig::default()
        });
        assert!(holder_trace(&x, &bad_leader).is_err());
    }

    #[test]
    fn summary_reports_range() {
        let x = generate::fbm(1024, 0.5, 10).unwrap();
        let trace = holder_trace(&x, &HolderEstimator::local_increment()).unwrap();
        let s = HolderSummary::of(&trace).unwrap();
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.std_dev >= 0.0);
        assert!(HolderSummary::of(&[0.5]).is_err());
    }

    #[test]
    fn increment_exponent_matches_trace_estimates() {
        // The point estimator on a full neighbourhood must land near the
        // ground truth just like the trace does.
        for &h in &[0.3, 0.7] {
            let x = generate::weierstrass(4096, h).unwrap();
            let mut points = Vec::new();
            for centre in (64..4032).step_by(97) {
                let w = &x[centre - 32..=centre + 32];
                points.push(increment_exponent(w, 8, 2.0).unwrap());
            }
            let mean = stats::mean(&points).unwrap();
            assert!((mean - h).abs() < 0.1, "h={h}: mean {mean}");
        }
    }

    #[test]
    fn increment_exponent_guards() {
        let x = generate::white_noise(128, 20).unwrap();
        assert!(increment_exponent(&x, 2, 2.0).is_err());
        assert!(increment_exponent(&x, 8, 0.0).is_err());
        assert!(increment_exponent(&x[..16], 8, 2.0).is_err());
        let constant = vec![1.0; 64];
        assert_eq!(increment_exponent(&constant, 8, 2.0).unwrap(), 2.0);
    }

    #[test]
    fn min_samples_reported() {
        assert_eq!(HolderEstimator::local_increment().min_samples(), 64);
        assert_eq!(HolderEstimator::oscillation().min_samples(), 64);
        assert_eq!(HolderEstimator::wavelet_leader().min_samples(), 64);
    }
}
