//! Multifractal spectrum estimation.
//!
//! The target paper's second headline observation is that memory-resource
//! signals are **multifractal** — their singularity spectrum `f(α)` has
//! positive width — and that multifractality intensifies as the system
//! ages. This module estimates the spectrum three ways:
//!
//! - [`partition_function`] — box-measure partition function (exact tool
//!   for cascade measures),
//! - [`structure_function`] — moment scaling of increments, `ζ(q)`,
//! - [`mfdfa`] — multifractal detrended fluctuation analysis, `h(q)`,
//! - [`leader_cumulants`] — wavelet-leader log-cumulants `c₁, c₂`
//!   (`c₂ < 0` ⇔ multifractality).
//!
//! All scaling exponents convert to an `(α, f(α))` spectrum through the
//! numerical [`legendre`] transform.
//!
//! The paper's *fourth* claim — the spectrum **widens** as the system
//! ages — is served by the rolling estimators at the bottom of this
//! module: [`spectrum`] computes one window's `ζ(q) → τ(q) → f(α)` chain
//! and its width `Δα = α_max − α_min`, [`spectrum_trace`] slides that
//! window over a whole series, and [`StreamingSpectrum`] is the
//! bounded-memory online form. Both rolling estimators run [`spectrum`]
//! on every emitted window, so every emission equals it bit for bit. The
//! q-sweep is embarrassingly parallel and runs on the
//! [`aging_par::Pool`] with pool-size bit-parity.

use aging_par::Pool;
use aging_timeseries::persist::Reader;
use aging_timeseries::regression::ols;
use aging_timeseries::ring::RingBuffer;
use aging_timeseries::window::dyadic_scales;
use aging_timeseries::{detrend, stats, Error, Result};
use aging_wavelet::{Wavelet, WaveletLeaders};

/// One point of a singularity spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumPoint {
    /// Moment order that produced this point.
    pub q: f64,
    /// Singularity strength (Hölder exponent).
    pub alpha: f64,
    /// Spectrum value `f(α)` (dimension of the set with exponent `α`).
    pub f: f64,
}

/// The default grid of moment orders.
pub fn default_qs() -> Vec<f64> {
    vec![
        -5.0, -4.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0,
    ]
}

/// The default moment grid for *rolling* Δα estimation (positive branch
/// only).
///
/// Negative-q structure functions are dominated by the smallest
/// increments and are wildly unstable on the O(100)-sample windows a
/// bounded-memory detector can afford — measured on a stationary random
/// walk, window-to-window Δα under [`default_qs`] swings over [0.1, 2.2]
/// while this grid stays under 0.15. The positive branch is also the one
/// that captures burst intermittency, which is exactly how the spectrum
/// widens as a system ages.
pub fn detection_qs() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
}

/// Scaling exponents `τ(q)` (or `ζ(q)`, or `h(q)` — whichever the producer
/// computed), with per-q fit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingExponents {
    /// Moment orders.
    pub qs: Vec<f64>,
    /// Exponent per moment order.
    pub exponents: Vec<f64>,
    /// R² of each log–log fit.
    pub r_squared: Vec<f64>,
}

impl ScalingExponents {
    /// Width of the spectrum implied by interpreting `exponents` as `τ(q)`
    /// and Legendre-transforming: `max α − min α`.
    ///
    /// # Errors
    ///
    /// Propagates [`legendre`] failures.
    pub fn legendre_width(&self) -> Result<f64> {
        let spec = legendre(&self.qs, &self.exponents)?;
        let alphas: Vec<f64> = spec.iter().map(|p| p.alpha).collect();
        Ok(stats::max(&alphas)? - stats::min(&alphas)?)
    }
}

/// Numerical Legendre transform: `α(q) = dτ/dq` (central differences),
/// `f(α) = q·α − τ(q)`. Endpoint derivatives use one-sided differences.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] or [`Error::TooShort`] (< 3 points).
pub fn legendre(qs: &[f64], tau: &[f64]) -> Result<Vec<SpectrumPoint>> {
    if qs.len() != tau.len() {
        return Err(Error::LengthMismatch {
            left: qs.len(),
            right: tau.len(),
        });
    }
    Error::require_len(qs, 3)?;
    let n = qs.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let alpha = if i == 0 {
            (tau[1] - tau[0]) / (qs[1] - qs[0])
        } else if i == n - 1 {
            (tau[n - 1] - tau[n - 2]) / (qs[n - 1] - qs[n - 2])
        } else {
            (tau[i + 1] - tau[i - 1]) / (qs[i + 1] - qs[i - 1])
        };
        out.push(SpectrumPoint {
            q: qs[i],
            alpha,
            f: qs[i] * alpha - tau[i],
        });
    }
    Ok(out)
}

/// Box partition function of a (non-negative) **measure** on `2^L` cells:
/// `τ(q)` is the scaling exponent of `Σ_boxes μ(box)^q` against box size
/// over dyadic aggregations.
///
/// For a binomial cascade this matches
/// [`crate::generate::binomial_cascade_tau`] exactly.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for non-power-of-two input or
/// negative mass, [`Error::TooShort`] below 8 cells.
pub fn partition_function(measure: &[f64], qs: &[f64]) -> Result<ScalingExponents> {
    Error::require_len(measure, 8)?;
    Error::require_finite(measure)?;
    if !measure.len().is_power_of_two() {
        return Err(Error::invalid("measure", "length must be a power of two"));
    }
    if measure.iter().any(|&v| v < 0.0) {
        return Err(Error::invalid("measure", "mass must be non-negative"));
    }
    if qs.is_empty() {
        return Err(Error::invalid("qs", "must not be empty"));
    }
    let levels = measure.len().trailing_zeros() as usize;

    // Aggregate the measure at every dyadic box size 2^k cells,
    // k = 0..levels (box size fraction 2^{k - levels}).
    let mut aggregates: Vec<Vec<f64>> = vec![measure.to_vec()];
    for _ in 0..levels {
        let prev = aggregates.last().expect("non-empty");
        let next: Vec<f64> = prev.chunks_exact(2).map(|c| c[0] + c[1]).collect();
        aggregates.push(next);
    }

    let mut exponents = Vec::with_capacity(qs.len());
    let mut r2 = Vec::with_capacity(qs.len());
    for &q in qs {
        // log2 Σ μ^q  versus  log2(box size); τ(q) = −slope w.r.t. −log2 ε.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (k, agg) in aggregates.iter().enumerate() {
            if agg.len() < 2 {
                continue; // skip the single-box top level (Σ μ^q = 1 trivially)
            }
            let s: f64 = agg.iter().filter(|&&m| m > 0.0).map(|&m| m.powf(q)).sum();
            if s > 0.0 && s.is_finite() {
                // Box size ε = 2^{k - levels}; use log2 ε.
                xs.push((k as f64) - (levels as f64));
                ys.push(s.log2());
            }
        }
        if xs.len() < 3 {
            return Err(Error::Numerical(format!(
                "not enough valid partition sums for q={q}"
            )));
        }
        let fit = ols(&xs, &ys)?;
        exponents.push(fit.slope); // Σ μ^q ~ ε^{τ(q)}
        r2.push(fit.r_squared);
    }
    Ok(ScalingExponents {
        qs: qs.to_vec(),
        exponents,
        r_squared: r2,
    })
}

/// Structure-function scaling exponents `ζ(q)`:
/// `S_q(s) = ⟨|x(t+s) − x(t)|^q⟩ ∝ s^{ζ(q)}`.
///
/// For monofractal fBm, `ζ(q) = qH` is linear; concavity in `q` indicates
/// multifractality. Note `τ(q) = ζ(q) − 1` links this to the partition
/// formalism.
///
/// The q-sweep runs on the global [`Pool`] (each moment order is an
/// independent log–log fit); use [`structure_function_in`] for explicit
/// pool control. Output is bit-identical at every pool size.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 128 samples, plus parameter and fit
/// failures.
pub fn structure_function(data: &[f64], qs: &[f64]) -> Result<ScalingExponents> {
    structure_function_in(data, qs, Pool::global())
}

/// [`structure_function`] on an explicit [`Pool`].
///
/// # Errors
///
/// Same as [`structure_function`].
pub fn structure_function_in(data: &[f64], qs: &[f64], pool: &Pool) -> Result<ScalingExponents> {
    Error::require_len(data, 128)?;
    Error::require_finite(data)?;
    if qs.is_empty() {
        return Err(Error::invalid("qs", "must not be empty"));
    }
    let scales: Vec<usize> = dyadic_scales(data.len(), 8)?;
    // One task per moment order: each per-q fit is self-contained, so the
    // pool's in-order merge (and lowest-index error selection) keeps the
    // output bit-identical to the sequential loop at any thread count.
    let fits = pool.try_map_indexed(qs.len(), |i| structure_fit_q(data, &scales, qs[i]))?;
    let mut exponents = Vec::with_capacity(qs.len());
    let mut r2 = Vec::with_capacity(qs.len());
    for (slope, r_squared) in fits {
        exponents.push(slope);
        r2.push(r_squared);
    }
    Ok(ScalingExponents {
        qs: qs.to_vec(),
        exponents,
        r_squared: r2,
    })
}

/// One moment order's log–log structure-function fit: `(ζ(q), R²)`.
///
/// The moments `d^q` use exact multiply ladders for the common small
/// orders: `powf` dominated the per-emission profile of the rolling
/// estimators, and the ladders are pure multiplies (plus one
/// correctly-rounded `sqrt`) the compiler keeps in registers. The order
/// is resolved here, once per fit, so no loop dispatches per increment.
fn structure_fit_q(data: &[f64], scales: &[usize], q: f64) -> Result<(f64, f64)> {
    if q == 1.0 {
        structure_fit_with(data, scales, q, |d| d)
    } else if q == 2.0 {
        structure_fit_with(data, scales, q, |d| d * d)
    } else if q == 3.0 {
        structure_fit_with(data, scales, q, |d| (d * d) * d)
    } else if q == 4.0 {
        structure_fit_with(data, scales, q, |d| {
            let d2 = d * d;
            d2 * d2
        })
    } else if q == 5.0 {
        structure_fit_with(data, scales, q, |d| {
            let d2 = d * d;
            (d2 * d2) * d
        })
    } else if q == 0.5 {
        structure_fit_with(data, scales, q, f64::sqrt)
    } else if q == -1.0 {
        structure_fit_with(data, scales, q, |d| 1.0 / d)
    } else if q == -2.0 {
        structure_fit_with(data, scales, q, |d| 1.0 / (d * d))
    } else {
        structure_fit_with(data, scales, q, |d| d.powf(q))
    }
}

/// [`structure_fit_q`] with `pow(d) = d^q`, applied only to `d > 0`.
fn structure_fit_with(
    data: &[f64],
    scales: &[usize],
    q: f64,
    pow: impl Fn(f64) -> f64,
) -> Result<(f64, f64)> {
    let mut xs = Vec::with_capacity(scales.len());
    let mut ys = Vec::with_capacity(scales.len());
    for &s in scales {
        let mut acc = 0.0;
        let mut count = 0usize;
        for t in 0..data.len() - s {
            let d = (data[t + s] - data[t]).abs();
            if d > 0.0 {
                acc += pow(d);
                count += 1;
            }
        }
        if count > 0 {
            let m = acc / count as f64;
            if m > 0.0 && m.is_finite() {
                xs.push((s as f64).ln());
                ys.push(m.ln());
            }
        }
    }
    if xs.len() < 3 {
        return Err(Error::Numerical(format!(
            "not enough valid structure-function points for q={q}"
        )));
    }
    let fit = ols(&xs, &ys)?;
    Ok((fit.slope, fit.r_squared))
}

/// Configuration of the rolling spectrum estimators ([`spectrum_trace`]
/// offline, [`StreamingSpectrum`] online).
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumConfig {
    /// Trailing-window length in samples (the structure-function input).
    pub window: usize,
    /// Pushes between emissions once the window has filled.
    pub stride: usize,
    /// Moment orders of the q-sweep (strictly increasing, at least 3).
    pub qs: Vec<f64>,
}

impl Default for SpectrumConfig {
    fn default() -> Self {
        SpectrumConfig {
            window: 256,
            stride: 64,
            qs: detection_qs(),
        }
    }
}

impl SpectrumConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the window is below the
    /// structure-function floor (128), the stride is zero or exceeds the
    /// window, or the q grid is shorter than 3, non-finite, or not
    /// strictly increasing.
    pub fn validate(&self) -> Result<()> {
        if self.window < 128 {
            return Err(Error::invalid("window", "must be at least 128 samples"));
        }
        if self.stride == 0 {
            return Err(Error::invalid("stride", "must be positive"));
        }
        if self.stride > self.window {
            return Err(Error::invalid("stride", "must not exceed the window"));
        }
        if self.qs.len() < 3 {
            return Err(Error::invalid("qs", "need at least 3 moment orders"));
        }
        if self.qs.iter().any(|q| !q.is_finite()) {
            return Err(Error::invalid("qs", "must be finite"));
        }
        if self.qs.windows(2).any(|w| w[1] <= w[0]) {
            return Err(Error::invalid("qs", "must be strictly increasing"));
        }
        Ok(())
    }
}

/// One window's full spectrum estimate: `ζ(q)`, the Legendre spectrum of
/// `τ(q) = ζ(q) − 1`, and the width `Δα = α_max − α_min` — the paper's
/// aging indicator.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumEstimate {
    /// Structure-function exponents `ζ(q)` with fit quality.
    pub zeta: ScalingExponents,
    /// Legendre spectrum of `τ(q) = ζ(q) − 1`.
    pub spectrum: Vec<SpectrumPoint>,
    /// Smallest singularity strength on the q grid.
    pub alpha_min: f64,
    /// Largest singularity strength on the q grid.
    pub alpha_max: f64,
    /// Spectrum width `α_max − α_min`.
    pub delta_alpha: f64,
}

/// One rolling-window emission: the spectrum width of the trailing window
/// that ends at `input_index`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumWindow {
    /// Zero-based index of the push that completed this window.
    pub input_index: u64,
    /// Smallest singularity strength of the window.
    pub alpha_min: f64,
    /// Largest singularity strength of the window.
    pub alpha_max: f64,
    /// Spectrum width `α_max − α_min`.
    pub delta_alpha: f64,
}

/// Batch reference estimator for one window: `ζ(q)` via
/// [`structure_function_in`], `τ(q) = ζ(q) − 1`, the [`legendre`]
/// transform, and `Δα`. Every emission of the rolling estimators
/// ([`spectrum_trace`] and [`StreamingSpectrum`]) is bit-identical to
/// this routine on the emission's window.
///
/// # Errors
///
/// Propagates [`structure_function`] and [`legendre`] failures.
pub fn spectrum(data: &[f64], qs: &[f64]) -> Result<SpectrumEstimate> {
    spectrum_in(data, qs, Pool::global())
}

/// [`spectrum`] on an explicit [`Pool`].
///
/// # Errors
///
/// Same as [`spectrum`].
pub fn spectrum_in(data: &[f64], qs: &[f64], pool: &Pool) -> Result<SpectrumEstimate> {
    let zeta = structure_function_in(data, qs, pool)?;
    let tau: Vec<f64> = zeta.exponents.iter().map(|&z| z - 1.0).collect();
    let points = legendre(qs, &tau)?;
    let alphas: Vec<f64> = points.iter().map(|p| p.alpha).collect();
    let alpha_min = stats::min(&alphas)?;
    let alpha_max = stats::max(&alphas)?;
    Ok(SpectrumEstimate {
        zeta,
        spectrum: points,
        alpha_min,
        alpha_max,
        delta_alpha: alpha_max - alpha_min,
    })
}

/// Offline rolling-window `Δα(t)` trace: [`spectrum`] on every
/// window/stride grid position, on exactly the grid [`StreamingSpectrum`]
/// emits on. This is the batch reference of E17's streaming-vs-batch
/// parity gate.
///
/// # Errors
///
/// Returns config validation errors, [`Error::NonFinite`], and per-window
/// fit failures.
pub fn spectrum_trace(data: &[f64], config: &SpectrumConfig) -> Result<Vec<SpectrumWindow>> {
    spectrum_trace_in(data, config, Pool::global())
}

/// [`spectrum_trace`] on an explicit [`Pool`].
///
/// # Errors
///
/// Same as [`spectrum_trace`].
pub fn spectrum_trace_in(
    data: &[f64],
    config: &SpectrumConfig,
    pool: &Pool,
) -> Result<Vec<SpectrumWindow>> {
    config.validate()?;
    Error::require_finite(data)?;
    let mut out = Vec::new();
    let mut start = 0usize;
    while start + config.window <= data.len() {
        let end = start + config.window;
        out.push(emission(
            &data[start..end],
            (end - 1) as u64,
            &config.qs,
            pool,
        )?);
        start += config.stride;
    }
    Ok(out)
}

/// [`spectrum_in`] on one rolling window, which ends at input
/// `input_index`.
fn emission(window: &[f64], input_index: u64, qs: &[f64], pool: &Pool) -> Result<SpectrumWindow> {
    let est = spectrum_in(window, qs, pool)?;
    Ok(SpectrumWindow {
        input_index,
        alpha_min: est.alpha_min,
        alpha_max: est.alpha_max,
        delta_alpha: est.delta_alpha,
    })
}

/// Bounded-memory rolling spectrum estimator.
///
/// Holds the trailing `window` samples in a [`RingBuffer`]; once the
/// window has filled, every `stride`-th push runs [`spectrum`] on it, so
/// each emitted [`SpectrumWindow`] equals the offline [`spectrum_trace`]
/// at the same grid position bit for bit, at any pool size and any push
/// chunking.
#[derive(Debug, Clone)]
pub struct StreamingSpectrum {
    config: SpectrumConfig,
    ring: RingBuffer,
    scratch: Vec<f64>,
}

impl StreamingSpectrum {
    /// Builds an estimator from a validated config.
    ///
    /// # Errors
    ///
    /// Propagates [`SpectrumConfig::validate`] failures.
    pub fn new(config: &SpectrumConfig) -> Result<Self> {
        config.validate()?;
        Ok(StreamingSpectrum {
            config: config.clone(),
            ring: RingBuffer::new(config.window)?,
            scratch: Vec::with_capacity(config.window),
        })
    }

    /// Window length in samples.
    pub fn window(&self) -> usize {
        self.config.window
    }

    /// Pushes between emissions.
    pub fn stride(&self) -> usize {
        self.config.stride
    }

    /// The moment-order grid.
    pub fn qs(&self) -> &[f64] {
        &self.config.qs
    }

    /// Total samples pushed over this estimator's lifetime.
    pub fn samples_seen(&self) -> u64 {
        self.ring.pushed()
    }

    /// Pushes one sample on the global [`Pool`]; returns an emission when
    /// the window/stride grid fires.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for a non-finite sample (the sample is
    /// not absorbed), plus per-window [`spectrum`] failures.
    pub fn push(&mut self, value: f64) -> Result<Option<SpectrumWindow>> {
        self.push_in(value, Pool::global())
    }

    /// [`StreamingSpectrum::push`] on an explicit [`Pool`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamingSpectrum::push`].
    pub fn push_in(&mut self, value: f64, pool: &Pool) -> Result<Option<SpectrumWindow>> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.ring.pushed() as usize,
            });
        }
        self.ring.push(value);
        let n = self.ring.pushed();
        let window = self.config.window as u64;
        if n < window || !(n - window).is_multiple_of(self.config.stride as u64) {
            return Ok(None);
        }
        self.ring.copy_to(&mut self.scratch);
        emission(&self.scratch, n - 1, &self.config.qs, pool).map(Some)
    }

    /// Pushes a batch of samples, collecting emissions into `out`
    /// (cleared first). Chunking is irrelevant to the output: any split of
    /// a sample sequence across `push`/`push_slice` calls produces the
    /// same emissions.
    ///
    /// # Errors
    ///
    /// Stops at the first [`StreamingSpectrum::push`] error; emissions
    /// already collected remain in `out`.
    pub fn push_slice(&mut self, values: &[f64], out: &mut Vec<SpectrumWindow>) -> Result<()> {
        self.push_slice_in(values, out, Pool::global())
    }

    /// [`StreamingSpectrum::push_slice`] on an explicit [`Pool`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamingSpectrum::push_slice`].
    pub fn push_slice_in(
        &mut self,
        values: &[f64],
        out: &mut Vec<SpectrumWindow>,
        pool: &Pool,
    ) -> Result<()> {
        out.clear();
        for &value in values {
            if let Some(w) = self.push_in(value, pool)? {
                out.push(w);
            }
        }
        Ok(())
    }

    /// Clears all samples and the emission phase, keeping the parameters.
    pub fn reset(&mut self) {
        self.ring = RingBuffer::new(self.config.window).expect("window already validated");
    }

    /// Serialises the dynamic state: the ring of the last `window`
    /// samples, which carries the push count (the configuration is not
    /// persisted).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.ring.encode_state(out);
    }

    /// Restores dynamic state written by
    /// [`StreamingSpectrum::encode_state`] into an estimator built with
    /// the same configuration.
    ///
    /// Also accepts the layout written while the rolling estimators slid
    /// their moment sums: a ring of `window + stride` samples (its encoded
    /// capacity tells the layouts apart) followed by the sliding kernel's
    /// accumulators. The last `window` samples and the push count are
    /// kept and the accumulators are skipped, since each emission
    /// recomputes its window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or inconsistent
    /// bytes, including an old-layout blob whose accumulator sections do
    /// not fit this configuration's scales and q grid.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        if r.clone().usize_()? == self.config.window {
            return self.ring.restore_state(r);
        }
        let mut legacy = RingBuffer::new(self.config.window + self.config.stride)?;
        legacy.restore_state(r)?;
        // The sliding kernel's initialized flag and slides since its last
        // rebuild, then its per-scale pair counts (u64) and per-(q, scale)
        // moment sums (f64).
        r.bool()?;
        r.u32()?;
        let scales = dyadic_scales(self.config.window, 8)?.len();
        for (section, want) in [
            ("scale", scales),
            ("accumulator", self.config.qs.len() * scales),
        ] {
            let n = r.count(Reader::u64, 8)?;
            if n != want {
                return Err(Error::invalid(
                    "persist",
                    format!("spectrum {section} count {want} != snapshot {n}"),
                ));
            }
            r.take(n * 8)?;
        }
        self.ring = legacy.resized(self.config.window)?;
        Ok(())
    }
}

/// Configuration for [`mfdfa`].
#[derive(Debug, Clone, PartialEq)]
pub struct MfdfaConfig {
    /// Detrending polynomial order (1 = MF-DFA1).
    pub order: usize,
    /// Moment orders.
    pub qs: Vec<f64>,
}

impl Default for MfdfaConfig {
    fn default() -> Self {
        MfdfaConfig {
            order: 1,
            qs: default_qs(),
        }
    }
}

/// Result of an MF-DFA run.
#[derive(Debug, Clone, PartialEq)]
pub struct MfdfaResult {
    /// Generalised Hurst exponents `h(q)`, one per `q`.
    pub h_q: ScalingExponents,
    /// Mass exponents `τ(q) = q·h(q) − 1`.
    pub tau_q: Vec<f64>,
    /// Singularity spectrum from the Legendre transform of `τ(q)`.
    pub spectrum: Vec<SpectrumPoint>,
}

impl MfdfaResult {
    /// Spectrum width `max α − min α` — the paper's multifractality
    /// indicator (larger = more multifractal).
    pub fn width(&self) -> f64 {
        let alphas: Vec<f64> = self.spectrum.iter().map(|p| p.alpha).collect();
        let mx = alphas.iter().copied().fold(f64::MIN, f64::max);
        let mn = alphas.iter().copied().fold(f64::MAX, f64::min);
        mx - mn
    }

    /// `h(2)` — the classical Hurst exponent estimate embedded in the run.
    pub fn hurst(&self) -> Option<f64> {
        self.h_q
            .qs
            .iter()
            .position(|&q| (q - 2.0).abs() < 1e-9)
            .map(|i| self.h_q.exponents[i])
    }
}

/// Multifractal detrended fluctuation analysis (Kantelhardt et al. 2002).
///
/// The input is treated as noise-like; the profile is built internally.
///
/// # Errors
///
/// Returns [`Error::TooShort`] below 256 samples, parameter errors for a
/// bad config, and [`Error::Numerical`] when no valid scaling points
/// survive.
pub fn mfdfa(data: &[f64], config: &MfdfaConfig) -> Result<MfdfaResult> {
    if config.order == 0 || config.order > 4 {
        return Err(Error::invalid("order", "must lie in 1..=4"));
    }
    if config.qs.is_empty() {
        return Err(Error::invalid("qs", "must not be empty"));
    }
    Error::require_len(data, 256)?;
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
    let reversed: Vec<f64> = profile.iter().rev().copied().collect();

    let min_scale = (config.order + 3).max(8);
    let scales: Vec<usize> = dyadic_scales(profile.len(), 4)?
        .into_iter()
        .filter(|&s| s >= min_scale)
        .collect();
    if scales.len() < 3 {
        return Err(Error::TooShort {
            required: 256,
            actual: data.len(),
        });
    }

    // Per-scale squared fluctuations for every window (forward + reversed).
    let mut fluctuations: Vec<Vec<f64>> = Vec::with_capacity(scales.len());
    for &s in &scales {
        let mut sq = Vec::new();
        for block in profile.chunks_exact(s) {
            sq.push(detrend::fluctuation(block, config.order)?);
        }
        for block in reversed.chunks_exact(s) {
            sq.push(detrend::fluctuation(block, config.order)?);
        }
        fluctuations.push(sq);
    }

    let mut exponents = Vec::with_capacity(config.qs.len());
    let mut r2 = Vec::with_capacity(config.qs.len());
    for &q in &config.qs {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (si, sq) in fluctuations.iter().enumerate() {
            let positive: Vec<f64> = sq.iter().copied().filter(|&v| v > 0.0).collect();
            if positive.is_empty() {
                continue;
            }
            let fq = if q.abs() < 1e-9 {
                // q → 0 limit: geometric mean.
                (0.5 * positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
            } else {
                (positive.iter().map(|&v| v.powf(q / 2.0)).sum::<f64>() / positive.len() as f64)
                    .powf(1.0 / q)
            };
            if fq > 0.0 && fq.is_finite() {
                xs.push((scales[si] as f64).ln());
                ys.push(fq.ln());
            }
        }
        if xs.len() < 3 {
            return Err(Error::Numerical(format!(
                "not enough valid MF-DFA points for q={q}"
            )));
        }
        let fit = ols(&xs, &ys)?;
        exponents.push(fit.slope);
        r2.push(fit.r_squared);
    }

    let tau_q: Vec<f64> = config
        .qs
        .iter()
        .zip(&exponents)
        .map(|(&q, &h)| q * h - 1.0)
        .collect();
    let spectrum = legendre(&config.qs, &tau_q)?;
    Ok(MfdfaResult {
        h_q: ScalingExponents {
            qs: config.qs.clone(),
            exponents,
            r_squared: r2,
        },
        tau_q,
        spectrum,
    })
}

/// Wavelet-leader log-cumulants.
///
/// `C₁(j) = mean(ln ℓ_j)` and `C₂(j) = var(ln ℓ_j)` behave as
/// `C_m(j) ≈ c_m⁰ + c_m · j·ln2`; `c₁` estimates the typical Hölder
/// exponent and `c₂ ≤ 0` quantifies multifractality (`c₂ ≈ 0` for a
/// monofractal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogCumulants {
    /// First log-cumulant (typical Hölder exponent).
    pub c1: f64,
    /// Second log-cumulant (≈ 0 monofractal, < 0 multifractal).
    pub c2: f64,
}

/// Estimates wavelet-leader log-cumulants of `data`.
///
/// # Errors
///
/// Returns [`Error::TooShort`] when the dyadic prefix cannot support
/// `levels`, plus parameter and fit failures.
pub fn leader_cumulants(
    data: &[f64],
    wavelet: Wavelet,
    levels: usize,
    fit_min_level: usize,
) -> Result<LogCumulants> {
    if levels < 3 {
        return Err(Error::invalid("levels", "must be at least 3"));
    }
    if fit_min_level == 0 || fit_min_level + 2 > levels {
        return Err(Error::invalid(
            "fit_min_level",
            "must be >= 1 and leave at least 3 levels",
        ));
    }
    let leaders = WaveletLeaders::compute(data, wavelet, levels)?;
    let ln2 = std::f64::consts::LN_2;
    let mut xs = Vec::new();
    let mut c1_y = Vec::new();
    let mut c2_y = Vec::new();
    for j in fit_min_level..=levels {
        let band: Vec<f64> = leaders
            .band(j)
            .iter()
            .copied()
            .filter(|&l| l > 0.0)
            .collect();
        if band.len() < 4 {
            continue;
        }
        let logs: Vec<f64> = band.iter().map(|l| l.ln()).collect();
        xs.push(j as f64 * ln2);
        c1_y.push(stats::mean(&logs)?);
        c2_y.push(stats::population_variance(&logs)?);
    }
    if xs.len() < 3 {
        return Err(Error::Numerical(
            "not enough valid levels for log-cumulants".into(),
        ));
    }
    let c1 = ols(&xs, &c1_y)?.slope;
    let c2 = ols(&xs, &c2_y)?.slope;
    Ok(LogCumulants { c1, c2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn legendre_of_linear_tau_is_single_point() {
        // τ(q) = qH − 1 → α ≡ H, f ≡ 1.
        let qs = default_qs();
        let tau: Vec<f64> = qs.iter().map(|&q| q * 0.6 - 1.0).collect();
        let spec = legendre(&qs, &tau).unwrap();
        for p in &spec {
            assert!((p.alpha - 0.6).abs() < 1e-9);
            assert!((p.f - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn legendre_guards() {
        assert!(legendre(&[1.0, 2.0], &[1.0]).is_err());
        assert!(legendre(&[1.0, 2.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn partition_function_matches_cascade_theory() {
        let m0 = 0.3;
        let measure = generate::binomial_cascade(12, m0, false, 0).unwrap();
        let qs = vec![-3.0, -2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 4.0];
        let est = partition_function(&measure, &qs).unwrap();
        for (i, &q) in qs.iter().enumerate() {
            let theory = generate::binomial_cascade_tau(m0, q);
            assert!(
                (est.exponents[i] - theory).abs() < 0.05,
                "q={q}: {} vs {theory}",
                est.exponents[i]
            );
            assert!(est.r_squared[i] > 0.999, "q={q}");
        }
    }

    #[test]
    fn partition_function_guards() {
        let m = generate::binomial_cascade(6, 0.4, false, 0).unwrap();
        assert!(partition_function(&m[..48], &[1.0]).is_err()); // not pow2
        assert!(partition_function(&m, &[]).is_err());
        assert!(partition_function(&[-1.0; 16], &[1.0]).is_err());
    }

    #[test]
    fn structure_function_linear_for_fbm() {
        let x = generate::fbm(8192, 0.6, 1).unwrap();
        let qs = vec![1.0, 2.0, 3.0];
        let est = structure_function(&x, &qs).unwrap();
        // ζ(q) ≈ qH.
        for (i, &q) in qs.iter().enumerate() {
            assert!(
                (est.exponents[i] - q * 0.6).abs() < 0.15 * q,
                "q={q}: {}",
                est.exponents[i]
            );
        }
    }

    #[test]
    fn structure_fit_matches_a_per_increment_ladder_bitwise() {
        // The rolling grid never reaches the negative and `powf` orders, so
        // this is their only bitwise check. The walk stands still on about
        // a third of its steps, so some increments are zero and the guard
        // is exercised.
        let ladder = |d: f64, q: f64| {
            if q == 1.0 {
                d
            } else if q == 2.0 {
                d * d
            } else if q == 3.0 {
                (d * d) * d
            } else if q == 4.0 {
                (d * d) * (d * d)
            } else if q == 5.0 {
                ((d * d) * (d * d)) * d
            } else if q == 0.5 {
                d.sqrt()
            } else if q == -1.0 {
                1.0 / d
            } else if q == -2.0 {
                1.0 / (d * d)
            } else {
                d.powf(q)
            }
        };
        for seed in 1..=32u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut level = 0.0;
            let x: Vec<f64> = (0..300)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 3 != 0 {
                        level += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    }
                    level
                })
                .collect();
            assert!(x.windows(3).any(|w| w[2] == w[0]), "no zero increment");
            let scales = dyadic_scales(x.len(), 8).unwrap();
            for q in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, -1.5] {
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                for &s in &scales {
                    let (mut acc, mut count) = (0.0, 0usize);
                    for t in 0..x.len() - s {
                        let d = (x[t + s] - x[t]).abs();
                        if d > 0.0 {
                            acc += ladder(d, q);
                            count += 1;
                        }
                    }
                    let m = acc / count as f64;
                    if count > 0 && m > 0.0 && m.is_finite() {
                        xs.push((s as f64).ln());
                        ys.push(m.ln());
                    }
                }
                let fit = ols(&xs, &ys).unwrap();
                let (zeta, r2) = structure_fit_q(&x, &scales, q).unwrap();
                assert_eq!(zeta.to_bits(), fit.slope.to_bits(), "ζ, q={q}, seed {seed}");
                assert_eq!(
                    r2.to_bits(),
                    fit.r_squared.to_bits(),
                    "R², q={q}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn mfdfa_recovers_hurst_of_fgn() {
        for &(h, seed) in &[(0.3, 2u64), (0.7, 3)] {
            let x = generate::fgn(8192, h, seed).unwrap();
            let res = mfdfa(&x, &MfdfaConfig::default()).unwrap();
            let h2 = res.hurst().expect("q=2 in default grid");
            assert!((h2 - h).abs() < 0.1, "H={h}: h(2) {h2}");
        }
    }

    #[test]
    fn mfdfa_monofractal_narrow_multifractal_wide() {
        let mono = generate::fgn(8192, 0.6, 4).unwrap();
        let mono_res = mfdfa(&mono, &MfdfaConfig::default()).unwrap();

        let cascade = generate::binomial_cascade(13, 0.3, true, 5).unwrap();
        let multi_res = mfdfa(&cascade, &MfdfaConfig::default()).unwrap();

        assert!(
            multi_res.width() > mono_res.width() + 0.3,
            "mono {} multi {}",
            mono_res.width(),
            multi_res.width()
        );
    }

    #[test]
    fn mfdfa_h_q_nonincreasing_for_cascade() {
        let cascade = generate::binomial_cascade(13, 0.25, true, 6).unwrap();
        let res = mfdfa(&cascade, &MfdfaConfig::default()).unwrap();
        // h(q) must (weakly) decrease with q for a multiplicative cascade.
        let h = &res.h_q.exponents;
        assert!(
            h.first().unwrap() > h.last().unwrap(),
            "h(-5)={} h(5)={}",
            h.first().unwrap(),
            h.last().unwrap()
        );
    }

    #[test]
    fn mfdfa_spectrum_roughly_concave() {
        let cascade = generate::binomial_cascade(13, 0.3, true, 7).unwrap();
        let res = mfdfa(&cascade, &MfdfaConfig::default()).unwrap();
        // The spectrum apex should exceed the endpoints.
        let fmax = res.spectrum.iter().map(|p| p.f).fold(f64::MIN, f64::max);
        let f_first = res.spectrum.first().unwrap().f;
        let f_last = res.spectrum.last().unwrap().f;
        assert!(fmax >= f_first && fmax >= f_last);
        assert!(fmax <= 1.05, "f_max {fmax}");
    }

    #[test]
    fn mfdfa_guards() {
        let x = generate::white_noise(512, 8).unwrap();
        assert!(mfdfa(&x[..100], &MfdfaConfig::default()).is_err());
        assert!(mfdfa(
            &x,
            &MfdfaConfig {
                order: 0,
                qs: default_qs()
            }
        )
        .is_err());
        assert!(mfdfa(
            &x,
            &MfdfaConfig {
                order: 1,
                qs: vec![]
            }
        )
        .is_err());
    }

    #[test]
    fn cumulants_monofractal_vs_multifractal() {
        let mono = generate::fbm(8192, 0.5, 16).unwrap();
        let lc_mono = leader_cumulants(&mono, Wavelet::Daubechies6, 9, 3).unwrap();
        assert!((lc_mono.c1 - 0.5).abs() < 0.2, "c1 {}", lc_mono.c1);
        assert!(lc_mono.c2.abs() < 0.08, "c2 {}", lc_mono.c2);

        // Multifractal cascade "noise": analyse its profile (random walk
        // with cascade-sized steps).
        let cascade = generate::binomial_cascade(13, 0.25, true, 10).unwrap();
        let mut acc = 0.0;
        let walk: Vec<f64> = cascade
            .iter()
            .map(|&m| {
                acc += m;
                acc
            })
            .collect();
        let lc_multi = leader_cumulants(&walk, Wavelet::Daubechies6, 9, 3).unwrap();
        assert!(
            lc_multi.c2 < lc_mono.c2 - 0.02,
            "mono c2 {} multi c2 {}",
            lc_mono.c2,
            lc_multi.c2
        );
    }

    #[test]
    fn cumulants_guards() {
        let x = generate::white_noise(1024, 11).unwrap();
        assert!(leader_cumulants(&x, Wavelet::Haar, 2, 1).is_err());
        assert!(leader_cumulants(&x, Wavelet::Haar, 6, 5).is_err());
        assert!(leader_cumulants(&x[..16], Wavelet::Haar, 6, 2).is_err());
    }

    fn spectrum_test_config() -> SpectrumConfig {
        SpectrumConfig {
            window: 128,
            stride: 32,
            qs: vec![-2.0, -1.0, 1.0, 2.0, 3.0],
        }
    }

    #[test]
    fn spectrum_config_guards() {
        let base = spectrum_test_config();
        assert!(base.validate().is_ok());
        for bad in [
            SpectrumConfig {
                window: 64,
                ..base.clone()
            },
            SpectrumConfig {
                stride: 0,
                ..base.clone()
            },
            SpectrumConfig {
                stride: 200,
                ..base.clone()
            },
            SpectrumConfig {
                qs: vec![1.0, 2.0],
                ..base.clone()
            },
            SpectrumConfig {
                qs: vec![1.0, f64::NAN, 3.0],
                ..base.clone()
            },
            SpectrumConfig {
                qs: vec![1.0, 3.0, 2.0],
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spectrum_width_matches_legendre_width() {
        let x = generate::fbm(512, 0.6, 21).unwrap();
        let est = spectrum(&x, &default_qs()).unwrap();
        assert!((est.delta_alpha - (est.alpha_max - est.alpha_min)).abs() < 1e-15);
        // Same chain as ScalingExponents::legendre_width on τ(q) = ζ(q) − 1.
        let tau = ScalingExponents {
            qs: est.zeta.qs.clone(),
            exponents: est.zeta.exponents.iter().map(|&z| z - 1.0).collect(),
            r_squared: est.zeta.r_squared.clone(),
        };
        assert_eq!(
            est.delta_alpha.to_bits(),
            tau.legendre_width().unwrap().to_bits()
        );
    }

    #[test]
    fn streaming_spectrum_matches_batch_trace_bitwise() {
        let cfg = spectrum_test_config();
        let x = generate::fbm(400, 0.7, 22).unwrap();
        let batch = spectrum_trace(&x, &cfg).unwrap();
        assert!(batch.len() > 3, "expected several emissions");

        let mut stream = StreamingSpectrum::new(&cfg).unwrap();
        let mut emitted = Vec::new();
        for &v in &x {
            if let Some(w) = stream.push(v).unwrap() {
                emitted.push(w);
            }
        }
        assert_eq!(emitted.len(), batch.len());
        for (s, b) in emitted.iter().zip(&batch) {
            assert_eq!(s.input_index, b.input_index);
            assert_eq!(s.delta_alpha.to_bits(), b.delta_alpha.to_bits());
            assert_eq!(s.alpha_min.to_bits(), b.alpha_min.to_bits());
            assert_eq!(s.alpha_max.to_bits(), b.alpha_max.to_bits());
        }
    }

    #[test]
    fn streaming_spectrum_pool_sizes_are_bit_identical() {
        let cfg = spectrum_test_config();
        let x = generate::fbm(300, 0.55, 23).unwrap();
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let a = spectrum_trace_in(&x, &cfg, &p1).unwrap();
        let b = spectrum_trace_in(&x, &cfg, &p4).unwrap();
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.delta_alpha.to_bits(), wb.delta_alpha.to_bits());
        }
    }

    #[test]
    fn streaming_spectrum_push_slice_matches_scalar_and_persists() {
        let cfg = spectrum_test_config();
        let x = generate::fbm(350, 0.6, 24).unwrap();

        let mut scalar = StreamingSpectrum::new(&cfg).unwrap();
        let mut scalar_out = Vec::new();
        for &v in &x {
            if let Some(w) = scalar.push(v).unwrap() {
                scalar_out.push(w);
            }
        }

        let mut chunked = StreamingSpectrum::new(&cfg).unwrap();
        let mut chunked_out = Vec::new();
        let mut buf = Vec::new();
        for chunk in x.chunks(7) {
            chunked.push_slice(chunk, &mut buf).unwrap();
            chunked_out.extend_from_slice(&buf);
        }
        assert_eq!(scalar_out.len(), chunked_out.len());
        for (a, b) in scalar_out.iter().zip(&chunked_out) {
            assert_eq!(a.input_index, b.input_index);
            assert_eq!(a.delta_alpha.to_bits(), b.delta_alpha.to_bits());
        }

        // Persist round-trip mid-stream: the restored estimator continues
        // exactly where the original would.
        let mut blob = Vec::new();
        chunked.encode_state(&mut blob);
        let mut restored = StreamingSpectrum::new(&cfg).unwrap();
        let mut r = aging_timeseries::persist::Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        let tail = generate::fbm(160, 0.6, 25).unwrap();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        chunked.push_slice(&tail, &mut out_a).unwrap();
        restored.push_slice(&tail, &mut out_b).unwrap();
        assert_eq!(out_a.len(), out_b.len());
        for (a, b) in out_a.iter().zip(&out_b) {
            assert_eq!(a.input_index, b.input_index);
            assert_eq!(a.delta_alpha.to_bits(), b.delta_alpha.to_bits());
        }
    }

    #[test]
    fn streaming_spectrum_rejects_non_finite_and_resets() {
        let cfg = spectrum_test_config();
        let mut stream = StreamingSpectrum::new(&cfg).unwrap();
        assert!(stream.push(f64::NAN).is_err());
        assert_eq!(stream.samples_seen(), 0, "bad sample must not be absorbed");
        stream.push(1.0).unwrap();
        assert_eq!(stream.samples_seen(), 1);
        stream.reset();
        assert_eq!(stream.samples_seen(), 0);
        assert_eq!(stream.window(), cfg.window);
        assert_eq!(stream.stride(), cfg.stride);
        assert_eq!(stream.qs(), cfg.qs.as_slice());
    }

    /// A blob in the layout written while the rolling estimators slid
    /// their moment sums: a `window + stride` ring holding `x`, then the
    /// sliding kernel's flag and cadence and its two counted sections.
    fn sliding_layout_blob(cfg: &SpectrumConfig, x: &[f64], scales: usize, sums: usize) -> Vec<u8> {
        use aging_timeseries::persist::{put_bool, put_f64, put_u32, put_u64, put_usize};
        let mut ring = RingBuffer::new(cfg.window + cfg.stride).unwrap();
        for &v in x {
            ring.push(v);
        }
        let mut blob = Vec::new();
        ring.encode_state(&mut blob);
        put_bool(&mut blob, true);
        put_u32(&mut blob, 3);
        put_usize(&mut blob, scales);
        for _ in 0..scales {
            put_u64(&mut blob, 100);
        }
        put_usize(&mut blob, sums);
        for _ in 0..sums {
            put_f64(&mut blob, 1.0);
        }
        blob
    }

    #[test]
    fn sliding_layout_restores_only_with_matching_sections() {
        let cfg = spectrum_test_config();
        let x = generate::fbm(300, 0.6, 26).unwrap();
        let scales = dyadic_scales(cfg.window, 8).unwrap().len();
        let sums = cfg.qs.len() * scales;
        let restore = |blob: &[u8]| {
            let mut s = StreamingSpectrum::new(&cfg).unwrap();
            let mut r = Reader::new(blob);
            s.restore_state(&mut r)
                .and_then(|()| r.finish())
                .map(|()| s)
        };

        // The old layout resumes like an uninterrupted run.
        let mut restored = restore(&sliding_layout_blob(&cfg, &x, scales, sums)).unwrap();
        let mut live = StreamingSpectrum::new(&cfg).unwrap();
        for &v in &x {
            live.push(v).unwrap();
        }
        assert_eq!(restored.samples_seen(), live.samples_seen());
        let tail = generate::fbm(160, 0.6, 27).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        restored.push_slice(&tail, &mut a).unwrap();
        live.push_slice(&tail, &mut b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b);

        // A section sized for other scales or another q grid is rejected.
        for (s, n) in [
            (scales - 1, sums),
            (scales + 1, sums),
            (scales, sums - scales),
            (scales, sums + scales),
        ] {
            let err = restore(&sliding_layout_blob(&cfg, &x, s, n)).unwrap_err();
            assert!(
                matches!(err, Error::InvalidParameter { .. }),
                "scales {s}, sums {n}: {err:?}"
            );
        }
    }

    #[test]
    fn scaling_exponents_width_helper() {
        let qs = default_qs();
        let tau: Vec<f64> = qs.iter().map(|&q| q * 0.5 - 1.0).collect();
        let se = ScalingExponents {
            qs,
            exponents: tau,
            r_squared: vec![1.0; 12],
        };
        assert!(se.legendre_width().unwrap() < 1e-9);
    }
}
