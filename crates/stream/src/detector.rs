//! Bounded-memory online detectors.
//!
//! [`StreamingHolderDimension`] is the paper's Hölder-dimension crash
//! predictor restated over the incremental kernels: ring-buffered trailing
//! windows ([`StreamingHolder`], [`StreamingDimension`]) replace the batch
//! detector's grow-only history, making per-sample cost O(window) work and
//! O(window) memory **independent of stream length**. The decision logic
//! (warmup skip, median/MAD baseline, jump/collapse rules, consecutive
//! confirmation) is copied statement-for-statement from
//! [`aging_core::detector::HolderDimensionDetector::push`], and each
//! emission hands the same windows to the same estimators — so the alert
//! sequence is identical to the batch detector's on the same input (the
//! `streaming_parity` integration test enforces this alarm-for-alarm).
//!
//! [`StreamingTrend`] is the classical Mann–Kendall + Sen baseline in the
//! same bounded-memory shape, with the O(window²) S-statistic recomputation
//! replaced by [`StreamingMannKendall`]'s O(window) slide.

use aging_core::baseline::{ResourceDirection, TrendPredictorConfig};
use aging_core::detector::{Alert, AlertLevel, Baseline, DetectorConfig, JumpRule, Trigger};
use aging_fractal::spectrum::{SpectrumConfig, StreamingSpectrum};
use aging_fractal::streaming::{StreamingDimension, StreamingHolder};
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::trend::{StreamingMannKendall, TrendDirection};
use aging_timeseries::{stats, Error, Result};

// Local byte codes for the core enums — the persistence schema is owned
// here, not by `aging-core`. `pub(crate)` so the supervisor's alarm
// history codec shares the same codes.
pub(crate) fn level_code(level: AlertLevel) -> u8 {
    match level {
        AlertLevel::Warning => 0,
        AlertLevel::Alarm => 1,
    }
}

pub(crate) fn level_from_code(code: u8) -> Result<AlertLevel> {
    match code {
        0 => Ok(AlertLevel::Warning),
        1 => Ok(AlertLevel::Alarm),
        c => Err(Error::invalid("persist", format!("bad alert level {c}"))),
    }
}

pub(crate) fn trigger_code(trigger: Trigger) -> u8 {
    match trigger {
        Trigger::DimensionJump => 0,
        Trigger::HolderCollapse => 1,
        Trigger::Both => 2,
    }
}

pub(crate) fn trigger_from_code(code: u8) -> Result<Trigger> {
    match code {
        0 => Ok(Trigger::DimensionJump),
        1 => Ok(Trigger::HolderCollapse),
        2 => Ok(Trigger::Both),
        c => Err(Error::invalid("persist", format!("bad trigger {c}"))),
    }
}

fn put_opt_alert(out: &mut Vec<u8>, alert: Option<Alert>) {
    match alert {
        None => persist::put_bool(out, false),
        Some(a) => {
            persist::put_bool(out, true);
            persist::put_usize(out, a.sample_index);
            persist::put_u8(out, level_code(a.level));
            persist::put_u8(out, trigger_code(a.trigger));
            persist::put_f64(out, a.dimension);
            persist::put_f64(out, a.mean_holder);
            persist::put_f64(out, a.dimension_baseline);
            persist::put_f64(out, a.holder_baseline);
        }
    }
}

fn read_opt_alert(r: &mut Reader<'_>) -> Result<Option<Alert>> {
    if !r.bool()? {
        return Ok(None);
    }
    Ok(Some(Alert {
        sample_index: r.usize_()?,
        level: level_from_code(r.u8()?)?,
        trigger: trigger_from_code(r.u8()?)?,
        dimension: r.f64()?,
        mean_holder: r.f64()?,
        dimension_baseline: r.f64()?,
        holder_baseline: r.f64()?,
    }))
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    persist::put_usize(out, v.len());
    for &x in v {
        persist::put_f64(out, x);
    }
}

fn read_f64_vec(r: &mut Reader<'_>, max_len: usize) -> Result<Vec<f64>> {
    let n = r.usize_()?;
    if n > max_len {
        return Err(Error::invalid(
            "persist",
            format!("vector length {n} exceeds bound {max_len}"),
        ));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.f64()?);
    }
    Ok(v)
}

/// Which online detector to run on a stream.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DetectorSpec {
    /// The paper's Hölder-dimension detector (streaming form).
    Holder(DetectorConfig),
    /// Mann–Kendall + Sen-slope exhaustion baseline (streaming form).
    Trend(TrendPredictorConfig),
    /// Multifractal spectrum-width (Δα) detector — the paper's fourth
    /// claim, the spectrum widening with age, as an online signal.
    Spectrum(SpectrumDetectorConfig),
}

impl DetectorSpec {
    /// Short stable name for telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorSpec::Holder(_) => "holder-dimension",
            DetectorSpec::Trend(_) => "mann-kendall-sen",
            DetectorSpec::Spectrum(_) => "spectrum-width",
        }
    }
}

/// Detector-specific payload of a streaming alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertDetail {
    /// Hölder-dimension alert (the batch detector's full measurement).
    Holder(Alert),
    /// Trend alert: estimated time to exhaustion when the alarm fired.
    Trend {
        /// Seconds until the extrapolated series crosses the exhaustion
        /// level.
        eta_secs: Option<f64>,
    },
    /// Spectrum-width alert: the anomalous window's Δα against the frozen
    /// baseline width.
    Spectrum {
        /// Spectrum width Δα of the window that fired.
        delta_alpha: f64,
        /// The baseline width it was compared against.
        baseline_width: f64,
    },
}

/// An alert emitted by a [`StreamingDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAlert {
    /// Zero-based index of the accepted sample that produced the alert.
    pub sample_index: u64,
    /// Severity.
    pub level: AlertLevel,
    /// Detector-specific measurements.
    pub detail: AlertDetail,
}

/// Streaming form of the paper's Hölder-dimension detector.
///
/// See the module docs for the parity contract with
/// [`aging_core::detector::HolderDimensionDetector`].
#[derive(Debug, Clone)]
pub struct StreamingHolderDimension {
    config: DetectorConfig,
    holder: StreamingHolder,
    dimension: StreamingDimension,
    samples_seen: u64,
    windows_seen: usize,
    baseline_dim: Vec<f64>,
    baseline_h: Vec<f64>,
    baseline: Option<Baseline>,
    consecutive_anomalies: usize,
    alarmed: bool,
    warnings_emitted: u64,
    alarms_emitted: u64,
    last_alert: Option<Alert>,
}

impl StreamingHolderDimension {
    /// Creates a streaming detector.
    ///
    /// # Errors
    ///
    /// Propagates [`DetectorConfig::validate`] and kernel-constructor
    /// failures.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        let holder =
            StreamingHolder::new(config.holder_radius, config.holder_max_lag, config.max_h)?;
        let dimension = StreamingDimension::new(
            config.dimension_method.window_dimension(),
            config.dimension_window,
            config.dimension_stride,
        )?;
        Ok(StreamingHolderDimension {
            config,
            holder,
            dimension,
            samples_seen: 0,
            windows_seen: 0,
            baseline_dim: Vec::new(),
            baseline_h: Vec::new(),
            baseline: None,
            consecutive_anomalies: 0,
            alarmed: false,
            warnings_emitted: 0,
            alarms_emitted: 0,
            last_alert: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Feeds one counter sample; returns an alert exactly when the batch
    /// detector would.
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::NonFinite`] for NaN/infinite
    /// samples and propagates estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<Alert>> {
        self.samples_seen += 1;
        // Hölder point for the centre of the trailing neighbourhood.
        let Some(h) = self.holder.push(value)? else {
            return Ok(None);
        };
        // Dimension window due?
        let Some(point) = self.dimension.push(h)? else {
            return Ok(None);
        };
        let (d, mean_h) = (point.dimension, point.mean);
        let raw_index = (self.samples_seen - 1) as usize;
        self.windows_seen += 1;
        let cfg = &self.config;

        // Warmup skip.
        if self.windows_seen <= cfg.skip_windows {
            return Ok(None);
        }

        // Baseline formation.
        if self.baseline.is_none() {
            self.baseline_dim.push(d);
            self.baseline_h.push(mean_h);
            if self.baseline_dim.len() >= cfg.baseline_windows {
                let dim_median = stats::median(&self.baseline_dim)?;
                let dim_mad = stats::mad(&self.baseline_dim)?;
                let h_mad = stats::mad(&self.baseline_h)?;
                self.baseline = Some(Baseline {
                    dimension: dim_median,
                    dimension_delta: (cfg.mad_multiplier * dim_mad)
                        .clamp(cfg.jump_delta, 3.0 * cfg.jump_delta),
                    mean_holder: stats::median(&self.baseline_h)?,
                    holder_delta: (cfg.mad_multiplier * h_mad)
                        .clamp(cfg.holder_drop, 2.0 * cfg.holder_drop),
                });
                // The formation buffers are dead state once the baseline
                // freezes; drop them so long-lived detectors stay lean.
                self.baseline_dim = Vec::new();
                self.baseline_h = Vec::new();
            }
            return Ok(None);
        }
        let baseline = self.baseline.expect("set above");

        // Anomaly rules (verbatim from the batch detector).
        let dim_jump = d > baseline.dimension + baseline.dimension_delta;
        let mut collapse_level = baseline.mean_holder - baseline.holder_delta;
        if baseline.mean_holder > cfg.holder_drop {
            collapse_level = collapse_level.max(cfg.holder_floor_fraction * baseline.mean_holder);
        }
        let collapse = mean_h < collapse_level;
        let anomalous = match cfg.rule {
            JumpRule::DimensionJump => dim_jump,
            JumpRule::HolderCollapse => collapse,
            _ => dim_jump || collapse,
        };
        if !anomalous {
            self.consecutive_anomalies = 0;
            return Ok(None);
        }
        self.consecutive_anomalies += 1;
        if self.alarmed {
            return Ok(None);
        }
        let level = if self.consecutive_anomalies >= cfg.confirm_windows {
            self.alarmed = true;
            AlertLevel::Alarm
        } else if self.consecutive_anomalies == 1 {
            AlertLevel::Warning
        } else {
            return Ok(None);
        };
        let trigger = match (dim_jump, collapse) {
            (true, true) => Trigger::Both,
            (true, false) => Trigger::DimensionJump,
            (false, true) => Trigger::HolderCollapse,
            (false, false) => unreachable!("anomalous implies a trigger"),
        };
        let alert = Alert {
            sample_index: raw_index,
            level,
            trigger,
            dimension: d,
            mean_holder: mean_h,
            dimension_baseline: baseline.dimension,
            holder_baseline: baseline.mean_holder,
        };
        match level {
            AlertLevel::Warning => self.warnings_emitted += 1,
            AlertLevel::Alarm => self.alarms_emitted += 1,
        }
        self.last_alert = Some(alert);
        Ok(Some(alert))
    }

    /// Whether the confirmed alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    /// The established baseline, once formed.
    pub fn baseline(&self) -> Option<Baseline> {
        self.baseline
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<Alert> {
        self.last_alert
    }

    /// Samples consumed over the detector's lifetime.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Upper bound on retained samples across all internal windows — the
    /// detector's memory is O(this), independent of stream length.
    pub fn memory_bound_samples(&self) -> usize {
        2 * self.config.holder_radius
            + 1
            + self.config.dimension_window
            + self.config.baseline_windows
    }

    /// Clears all state (after reboot/rejuvenation or a feed gap); the
    /// configuration and lifetime emission counters are retained.
    pub fn reset(&mut self) {
        self.holder.reset();
        self.dimension.reset();
        self.samples_seen = 0;
        self.windows_seen = 0;
        self.baseline_dim.clear();
        self.baseline_h.clear();
        self.baseline = None;
        self.consecutive_anomalies = 0;
        self.alarmed = false;
        self.last_alert = None;
    }

    /// Serializes all dynamic state (kernels, warmup/baseline progress,
    /// confirmation run, latch and emission counters) via
    /// [`aging_timeseries::persist`]; the config is re-supplied at
    /// construction.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.holder.encode_state(out);
        self.dimension.encode_state(out);
        persist::put_u64(out, self.samples_seen);
        persist::put_usize(out, self.windows_seen);
        put_f64_vec(out, &self.baseline_dim);
        put_f64_vec(out, &self.baseline_h);
        match self.baseline {
            None => persist::put_bool(out, false),
            Some(b) => {
                persist::put_bool(out, true);
                persist::put_f64(out, b.dimension);
                persist::put_f64(out, b.dimension_delta);
                persist::put_f64(out, b.mean_holder);
                persist::put_f64(out, b.holder_delta);
            }
        }
        persist::put_usize(out, self.consecutive_anomalies);
        persist::put_bool(out, self.alarmed);
        persist::put_u64(out, self.warnings_emitted);
        persist::put_u64(out, self.alarms_emitted);
        put_opt_alert(out, self.last_alert);
    }

    /// Restores state written by
    /// [`StreamingHolderDimension::encode_state`] into a detector
    /// constructed with the same config.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a window
    /// mismatch or corrupt enum codes.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.holder.restore_state(r)?;
        self.dimension.restore_state(r)?;
        self.samples_seen = r.u64()?;
        self.windows_seen = r.usize_()?;
        self.baseline_dim = read_f64_vec(r, self.config.baseline_windows)?;
        self.baseline_h = read_f64_vec(r, self.config.baseline_windows)?;
        self.baseline = if r.bool()? {
            Some(Baseline {
                dimension: r.f64()?,
                dimension_delta: r.f64()?,
                mean_holder: r.f64()?,
                holder_delta: r.f64()?,
            })
        } else {
            None
        };
        self.consecutive_anomalies = r.usize_()?;
        self.alarmed = r.bool()?;
        self.warnings_emitted = r.u64()?;
        self.alarms_emitted = r.u64()?;
        self.last_alert = read_opt_alert(r)?;
        Ok(())
    }
}

/// Streaming Mann–Kendall + Sen-slope exhaustion baseline.
///
/// Decision logic mirrors `aging_core::baseline::SenSlopePredictor` —
/// same alarms on the same samples and bit-identical ETAs, pinned push
/// for push by `tests/streaming_parity.rs`; the S statistic and tie term
/// are maintained incrementally instead of recomputed per refit.
#[derive(Debug, Clone)]
pub struct StreamingTrend {
    config: TrendPredictorConfig,
    mk: StreamingMannKendall,
    count: u64,
    eta: Option<f64>,
    alarmed: bool,
    // Refit scratch (window copy, pairwise slopes). Transient:
    // cleared-and-refilled per refit, deliberately absent from
    // `encode_state` — contents never outlive one `push`.
    scratch_window: Vec<f64>,
    scratch_slopes: Vec<f64>,
}

impl StreamingTrend {
    /// Creates the baseline detector.
    ///
    /// # Errors
    ///
    /// Propagates [`TrendPredictorConfig::validate`] failures.
    pub fn new(config: TrendPredictorConfig) -> Result<Self> {
        config.validate()?;
        let mk = StreamingMannKendall::new(config.window)?;
        Ok(StreamingTrend {
            config,
            mk,
            count: 0,
            eta: None,
            alarmed: false,
            scratch_window: Vec::new(),
            scratch_slopes: Vec::new(),
        })
    }

    /// Feeds one sample; returns `true` when the alarm first fires.
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::NonFinite`] for NaN/infinite
    /// input.
    pub fn push(&mut self, value: f64) -> Result<bool> {
        self.mk.push(value)?;
        self.count += 1;
        let cfg = &self.config;
        if !self.mk.is_full() || !self.count.is_multiple_of(cfg.refit_every as u64) {
            return Ok(false);
        }
        let Ok(mk) = self.mk.statistic() else {
            return Ok(false); // degenerate window
        };
        let significant = match cfg.direction {
            ResourceDirection::Depleting => mk.direction(cfg.alpha) == TrendDirection::Decreasing,
            ResourceDirection::Filling => mk.direction(cfg.alpha) == TrendDirection::Increasing,
        };
        if !significant {
            self.eta = None;
            return Ok(false);
        }
        let Ok(sen) = self.mk.sen_slope_with(
            cfg.sample_period_secs,
            &mut self.scratch_window,
            &mut self.scratch_slopes,
        ) else {
            return Ok(false);
        };
        let toward_exhaustion = match cfg.direction {
            ResourceDirection::Depleting => sen.slope < 0.0,
            ResourceDirection::Filling => sen.slope > 0.0,
        };
        if !toward_exhaustion {
            self.eta = None;
            return Ok(false);
        }
        let window_span = (cfg.window - 1) as f64 * cfg.sample_period_secs;
        self.eta = sen
            .time_to_level(cfg.exhaustion_level)
            .map(|t| (t - window_span).max(0.0))
            .filter(|t| t.is_finite());
        let fire = matches!(self.eta, Some(eta) if eta <= cfg.alarm_horizon_secs);
        if fire && !self.alarmed {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    /// Feeds a column of samples; returns the offset of the firing sample
    /// and the ETA captured at fire time, if the alarm first fired inside
    /// this column. State afterwards is bit-identical to calling
    /// [`StreamingTrend::push`] per element.
    ///
    /// Samples that cannot land on a refit boundary go to the window
    /// kernel in runs ([`StreamingMannKendall::push_slice`]); only
    /// boundary samples take the full statistic/Sen refit path — the same
    /// work the scalar loop does, minus a per-sample branch cascade.
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::NonFinite`] at the first
    /// NaN/infinite input, leaving exactly the preceding samples applied.
    pub fn push_slice(&mut self, values: &[f64]) -> Result<Option<(usize, Option<f64>)>> {
        let mut fired = None;
        if values.iter().any(|v| !v.is_finite()) {
            // Slow path: the scalar loop owns the error-index bookkeeping.
            for (k, &value) in values.iter().enumerate() {
                if self.push(value)? && fired.is_none() {
                    fired = Some((k, self.eta));
                }
            }
            return Ok(fired);
        }
        let refit = self.config.refit_every as u64;
        let mut i = 0;
        while i < values.len() {
            // Number of pushes until `count` next hits a refit boundary;
            // everything before it can skip the refit check entirely.
            let until = (refit - self.count % refit) as usize;
            let run = until.min(values.len() - i);
            self.mk.push_slice(&values[i..i + run - 1])?;
            self.count += (run - 1) as u64;
            if self.push(values[i + run - 1])? && fired.is_none() {
                fired = Some((i + run - 1, self.eta));
            }
            i += run;
        }
        Ok(fired)
    }

    /// Whether the alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    /// Latest estimated time to exhaustion, seconds.
    pub fn eta_secs(&self) -> Option<f64> {
        self.eta
    }

    /// Upper bound on retained samples.
    pub fn memory_bound_samples(&self) -> usize {
        self.config.window
    }

    /// Clears all state; the configuration is retained.
    pub fn reset(&mut self) {
        self.mk.reset();
        self.count = 0;
        self.eta = None;
        self.alarmed = false;
    }

    /// Serializes all dynamic state via [`aging_timeseries::persist`].
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.mk.encode_state(out);
        persist::put_u64(out, self.count);
        persist::put_opt_f64(out, self.eta);
        persist::put_bool(out, self.alarmed);
    }

    /// Restores state written by [`StreamingTrend::encode_state`] into a
    /// detector constructed with the same config. A failed restore leaves
    /// the detector unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a window
    /// mismatch, a window the kernel rejects, or a push count the window
    /// cannot have come from.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let mut mk = StreamingMannKendall::new(self.config.window)?;
        mk.restore_state(r)?;
        let count = r.u64()?;
        let eta = r.opt_f64()?;
        let alarmed = r.bool()?;
        // Every push since the last reset entered the window: it holds all
        // of them until it fills, and `window` of them after.
        let len = mk.len() as u64;
        if count < len || (!mk.is_full() && count != len) {
            return Err(Error::invalid(
                "persist",
                format!("trend push count {count} does not fit a window of {len}"),
            ));
        }
        self.mk = mk;
        self.count = count;
        self.eta = eta;
        self.alarmed = alarmed;
        Ok(())
    }
}

/// Configuration of the streaming spectrum-width (Δα) detector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumDetectorConfig {
    /// Rolling estimator parameters (window, stride, q grid).
    pub spectrum: SpectrumConfig,
    /// Emissions discarded before baseline collection begins.
    pub skip_windows: usize,
    /// Emissions that form the Δα baseline (median/MAD).
    pub baseline_windows: usize,
    /// Minimum Δα widening over the baseline that counts as anomalous.
    pub width_delta: f64,
    /// MAD multiplier for the adaptive widening threshold.
    pub mad_multiplier: f64,
    /// Consecutive anomalous emissions required to alarm.
    pub confirm_windows: usize,
}

impl Default for SpectrumDetectorConfig {
    fn default() -> Self {
        SpectrumDetectorConfig {
            spectrum: SpectrumConfig::default(),
            skip_windows: 1,
            baseline_windows: 8,
            width_delta: 0.2,
            mad_multiplier: 4.0,
            confirm_windows: 2,
        }
    }
}

impl SpectrumDetectorConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a bad estimator config or
    /// non-positive thresholds.
    pub fn validate(&self) -> Result<()> {
        self.spectrum.validate()?;
        if self.baseline_windows < 2 {
            return Err(Error::invalid("baseline_windows", "must be at least 2"));
        }
        if !(self.width_delta > 0.0 && self.width_delta.is_finite()) {
            return Err(Error::invalid("width_delta", "must be positive and finite"));
        }
        if !(self.mad_multiplier > 0.0 && self.mad_multiplier.is_finite()) {
            return Err(Error::invalid(
                "mad_multiplier",
                "must be positive and finite",
            ));
        }
        if self.confirm_windows == 0 {
            return Err(Error::invalid("confirm_windows", "must be at least 1"));
        }
        Ok(())
    }
}

/// The frozen Δα baseline of a [`StreamingSpectrumWidth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBaseline {
    /// Median Δα over the baseline emissions.
    pub width: f64,
    /// Widening beyond `width` that counts as anomalous
    /// (MAD-scaled, clamped to `[width_delta, 3·width_delta]`).
    pub delta: f64,
}

/// One emitted spectrum-width alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumAlert {
    /// Zero-based index of the sample that completed the anomalous window.
    pub sample_index: u64,
    /// Severity.
    pub level: AlertLevel,
    /// The window's spectrum width Δα.
    pub delta_alpha: f64,
    /// The frozen baseline width it was compared against.
    pub baseline_width: f64,
}

/// Streaming multifractal spectrum-width detector.
///
/// Runs a [`StreamingSpectrum`] kernel over the counter stream and applies
/// the same decision discipline as [`StreamingHolderDimension`] to the
/// emitted Δα values: warmup skip, a median/MAD baseline frozen after
/// `baseline_windows` emissions, widening anomalies confirmed over
/// `confirm_windows` consecutive emissions, Warning on the first anomaly,
/// a latched Alarm on confirmation.
#[derive(Debug, Clone)]
pub struct StreamingSpectrumWidth {
    config: SpectrumDetectorConfig,
    kernel: StreamingSpectrum,
    windows_seen: usize,
    baseline_widths: Vec<f64>,
    baseline: Option<SpectrumBaseline>,
    consecutive_anomalies: usize,
    alarmed: bool,
    warnings_emitted: u64,
    alarms_emitted: u64,
    last_alert: Option<SpectrumAlert>,
    last_width: Option<f64>,
}

impl StreamingSpectrumWidth {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Propagates [`SpectrumDetectorConfig::validate`] failures.
    pub fn new(config: SpectrumDetectorConfig) -> Result<Self> {
        config.validate()?;
        let kernel = StreamingSpectrum::new(&config.spectrum)?;
        Ok(StreamingSpectrumWidth {
            config,
            kernel,
            windows_seen: 0,
            baseline_widths: Vec::new(),
            baseline: None,
            consecutive_anomalies: 0,
            alarmed: false,
            warnings_emitted: 0,
            alarms_emitted: 0,
            last_alert: None,
            last_width: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SpectrumDetectorConfig {
        &self.config
    }

    /// Feeds one counter sample.
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::NonFinite`] for NaN/infinite
    /// samples (not absorbed) and propagates estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<SpectrumAlert>> {
        let Some(win) = self.kernel.push(value)? else {
            return Ok(None);
        };
        self.last_width = Some(win.delta_alpha);
        self.windows_seen += 1;
        let cfg = &self.config;

        // Warmup skip.
        if self.windows_seen <= cfg.skip_windows {
            return Ok(None);
        }

        // Baseline formation.
        if self.baseline.is_none() {
            self.baseline_widths.push(win.delta_alpha);
            if self.baseline_widths.len() >= cfg.baseline_windows {
                let width = stats::median(&self.baseline_widths)?;
                let mad = stats::mad(&self.baseline_widths)?;
                self.baseline = Some(SpectrumBaseline {
                    width,
                    delta: (cfg.mad_multiplier * mad).clamp(cfg.width_delta, 3.0 * cfg.width_delta),
                });
                // Dead state once the baseline freezes.
                self.baseline_widths = Vec::new();
            }
            return Ok(None);
        }
        let baseline = self.baseline.expect("set above");

        // Anomaly rule: the spectrum widened beyond the baseline band.
        if win.delta_alpha <= baseline.width + baseline.delta {
            self.consecutive_anomalies = 0;
            return Ok(None);
        }
        self.consecutive_anomalies += 1;
        if self.alarmed {
            return Ok(None);
        }
        let level = if self.consecutive_anomalies >= cfg.confirm_windows {
            self.alarmed = true;
            AlertLevel::Alarm
        } else if self.consecutive_anomalies == 1 {
            AlertLevel::Warning
        } else {
            return Ok(None);
        };
        let alert = SpectrumAlert {
            sample_index: win.input_index,
            level,
            delta_alpha: win.delta_alpha,
            baseline_width: baseline.width,
        };
        match level {
            AlertLevel::Warning => self.warnings_emitted += 1,
            AlertLevel::Alarm => self.alarms_emitted += 1,
        }
        self.last_alert = Some(alert);
        Ok(Some(alert))
    }

    /// Whether the confirmed alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    /// The established baseline, once formed.
    pub fn baseline(&self) -> Option<SpectrumBaseline> {
        self.baseline
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<SpectrumAlert> {
        self.last_alert
    }

    /// Δα of the most recently emitted window, if any.
    pub fn last_width(&self) -> Option<f64> {
        self.last_width
    }

    /// Samples consumed over the detector's lifetime.
    pub fn samples_seen(&self) -> u64 {
        self.kernel.samples_seen()
    }

    /// Upper bound on retained samples.
    pub fn memory_bound_samples(&self) -> usize {
        self.kernel.window() + self.config.baseline_windows
    }

    /// Clears all state (after reboot/rejuvenation or a feed gap); the
    /// configuration and lifetime emission counters are retained.
    pub fn reset(&mut self) {
        self.kernel.reset();
        self.windows_seen = 0;
        self.baseline_widths.clear();
        self.baseline = None;
        self.consecutive_anomalies = 0;
        self.alarmed = false;
        self.last_alert = None;
        self.last_width = None;
    }

    /// Serializes all dynamic state via [`aging_timeseries::persist`]; the
    /// config is re-supplied at construction.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.kernel.encode_state(out);
        persist::put_usize(out, self.windows_seen);
        put_f64_vec(out, &self.baseline_widths);
        match self.baseline {
            None => persist::put_bool(out, false),
            Some(b) => {
                persist::put_bool(out, true);
                persist::put_f64(out, b.width);
                persist::put_f64(out, b.delta);
            }
        }
        persist::put_usize(out, self.consecutive_anomalies);
        persist::put_bool(out, self.alarmed);
        persist::put_u64(out, self.warnings_emitted);
        persist::put_u64(out, self.alarms_emitted);
        match self.last_alert {
            None => persist::put_bool(out, false),
            Some(a) => {
                persist::put_bool(out, true);
                persist::put_u64(out, a.sample_index);
                persist::put_u8(out, level_code(a.level));
                persist::put_f64(out, a.delta_alpha);
                persist::put_f64(out, a.baseline_width);
            }
        }
        persist::put_opt_f64(out, self.last_width);
    }

    /// Restores state written by [`StreamingSpectrumWidth::encode_state`]
    /// into a detector constructed with the same config.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a window
    /// mismatch or corrupt enum codes.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.kernel.restore_state(r)?;
        self.windows_seen = r.usize_()?;
        self.baseline_widths = read_f64_vec(r, self.config.baseline_windows)?;
        self.baseline = if r.bool()? {
            Some(SpectrumBaseline {
                width: r.f64()?,
                delta: r.f64()?,
            })
        } else {
            None
        };
        self.consecutive_anomalies = r.usize_()?;
        self.alarmed = r.bool()?;
        self.warnings_emitted = r.u64()?;
        self.alarms_emitted = r.u64()?;
        self.last_alert = if r.bool()? {
            Some(SpectrumAlert {
                sample_index: r.u64()?,
                level: level_from_code(r.u8()?)?,
                delta_alpha: r.f64()?,
                baseline_width: r.f64()?,
            })
        } else {
            None
        };
        self.last_width = r.opt_f64()?;
        Ok(())
    }
}

/// A uniform wrapper so fleets can mix detector families per counter.
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Holder(Box<StreamingHolderDimension>),
    Trend(Box<StreamingTrend>),
    Spectrum(Box<StreamingSpectrumWidth>),
}

impl StreamingDetector {
    /// Instantiates the detector described by `spec`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructor's failures.
    pub fn new(spec: &DetectorSpec) -> Result<Self> {
        let inner = match spec {
            DetectorSpec::Holder(cfg) => {
                Inner::Holder(Box::new(StreamingHolderDimension::new(cfg.clone())?))
            }
            DetectorSpec::Trend(cfg) => Inner::Trend(Box::new(StreamingTrend::new(cfg.clone())?)),
            DetectorSpec::Spectrum(cfg) => {
                Inner::Spectrum(Box::new(StreamingSpectrumWidth::new(cfg.clone())?))
            }
        };
        Ok(StreamingDetector { inner })
    }

    /// Feeds one sample; returns an alert when one fires.
    ///
    /// # Errors
    ///
    /// Propagates the underlying detector's failures.
    pub fn push(&mut self, value: f64) -> Result<Option<StreamAlert>> {
        match &mut self.inner {
            Inner::Holder(det) => Ok(det.push(value)?.map(|alert| StreamAlert {
                sample_index: alert.sample_index as u64,
                level: alert.level,
                detail: AlertDetail::Holder(alert),
            })),
            Inner::Trend(det) => {
                let count_before = det.count;
                if det.push(value)? {
                    Ok(Some(StreamAlert {
                        sample_index: count_before,
                        level: AlertLevel::Alarm,
                        detail: AlertDetail::Trend {
                            eta_secs: det.eta_secs(),
                        },
                    }))
                } else {
                    Ok(None)
                }
            }
            Inner::Spectrum(det) => Ok(det.push(value)?.map(|alert| StreamAlert {
                sample_index: alert.sample_index,
                level: alert.level,
                detail: AlertDetail::Spectrum {
                    delta_alpha: alert.delta_alpha,
                    baseline_width: alert.baseline_width,
                },
            })),
        }
    }

    /// Feeds a column of samples, appending `(offset_in_column, alert)`
    /// pairs to `out` (cleared first) for every alert that fires. State and
    /// alerts are bit-identical to calling [`StreamingDetector::push`] per
    /// element; trend detectors take the chunked
    /// [`StreamingTrend::push_slice`] fast path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying detector's failures; samples before the
    /// offending one remain applied and their alerts remain in `out`.
    pub fn push_slice(
        &mut self,
        values: &[f64],
        out: &mut Vec<(usize, StreamAlert)>,
    ) -> Result<()> {
        out.clear();
        match &mut self.inner {
            Inner::Holder(det) => {
                for (k, &value) in values.iter().enumerate() {
                    if let Some(alert) = det.push(value)? {
                        out.push((
                            k,
                            StreamAlert {
                                sample_index: alert.sample_index as u64,
                                level: alert.level,
                                detail: AlertDetail::Holder(alert),
                            },
                        ));
                    }
                }
                Ok(())
            }
            Inner::Trend(det) => {
                let count_before = det.count;
                if let Some((k, eta_secs)) = det.push_slice(values)? {
                    out.push((
                        k,
                        StreamAlert {
                            sample_index: count_before + k as u64,
                            level: AlertLevel::Alarm,
                            detail: AlertDetail::Trend { eta_secs },
                        },
                    ));
                }
                Ok(())
            }
            Inner::Spectrum(det) => {
                for (k, &value) in values.iter().enumerate() {
                    if let Some(alert) = det.push(value)? {
                        out.push((
                            k,
                            StreamAlert {
                                sample_index: alert.sample_index,
                                level: alert.level,
                                detail: AlertDetail::Spectrum {
                                    delta_alpha: alert.delta_alpha,
                                    baseline_width: alert.baseline_width,
                                },
                            },
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether this is the trend (Mann–Kendall/Sen) family. The columnar
    /// ingest fast path keys off two properties unique to it: the alarm
    /// latch transitions exactly when an Alarm-level alert is emitted
    /// (and is cleared only by [`StreamingDetector::reset`]), and the
    /// estimator cannot fail on gate-accepted (finite) samples.
    pub(crate) fn is_trend_family(&self) -> bool {
        matches!(self.inner, Inner::Trend(_))
    }

    /// Whether the detector's confirmed alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        match &self.inner {
            Inner::Holder(det) => det.is_alarmed(),
            Inner::Trend(det) => det.is_alarmed(),
            Inner::Spectrum(det) => det.is_alarmed(),
        }
    }

    /// Latest spectrum width Δα, when this is the spectrum family and at
    /// least one window has been emitted; `None` for other families.
    pub fn last_delta_alpha(&self) -> Option<f64> {
        match &self.inner {
            Inner::Spectrum(det) => det.last_width(),
            _ => None,
        }
    }

    /// Upper bound on retained samples (memory is O(this) regardless of
    /// stream length).
    pub fn memory_bound_samples(&self) -> usize {
        match &self.inner {
            Inner::Holder(det) => det.memory_bound_samples(),
            Inner::Trend(det) => det.memory_bound_samples(),
            Inner::Spectrum(det) => det.memory_bound_samples(),
        }
    }

    /// Clears state after a reboot or feed discontinuity.
    pub fn reset(&mut self) {
        match &mut self.inner {
            Inner::Holder(det) => det.reset(),
            Inner::Trend(det) => det.reset(),
            Inner::Spectrum(det) => det.reset(),
        }
    }

    /// Serializes all dynamic state, tagged with the detector family so a
    /// spec/blob mismatch is caught at restore time.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        match &self.inner {
            Inner::Holder(det) => {
                persist::put_u8(out, 0);
                det.encode_state(out);
            }
            Inner::Trend(det) => {
                persist::put_u8(out, 1);
                det.encode_state(out);
            }
            Inner::Spectrum(det) => {
                persist::put_u8(out, 2);
                det.encode_state(out);
            }
        }
    }

    /// Restores state written by [`StreamingDetector::encode_state`] into
    /// a detector constructed from the same [`DetectorSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a family tag
    /// mismatch, or corrupt inner state.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let tag = r.u8()?;
        match (&mut self.inner, tag) {
            (Inner::Holder(det), 0) => det.restore_state(r),
            (Inner::Trend(det), 1) => det.restore_state(r),
            (Inner::Spectrum(det), 2) => det.restore_state(r),
            (_, t) => Err(Error::invalid(
                "persist",
                format!("detector family tag {t} does not match the configured spec"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_core::detector::HolderDimensionDetector;

    fn tiny_config() -> DetectorConfig {
        DetectorConfig {
            holder_radius: 16,
            holder_max_lag: 4,
            dimension_window: 64,
            dimension_stride: 16,
            baseline_windows: 8,
            ..DetectorConfig::default()
        }
    }

    /// A degrading synthetic signal: regular oscillation whose noise
    /// roughens sharply in late life.
    fn degrading_signal(n: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|i| {
                let t = i as f64;
                let base = 1e6 - 30.0 * t + (t * 0.45).sin() * 2048.0;
                let late = i > 2 * n / 3;
                let noise = rand() * if late { 6000.0 } else { 120.0 };
                base + noise
            })
            .collect()
    }

    #[test]
    fn streaming_matches_batch_alert_for_alert() {
        let signal = degrading_signal(1400);
        let mut batch = HolderDimensionDetector::new(tiny_config()).unwrap();
        let mut streaming = StreamingHolderDimension::new(tiny_config()).unwrap();
        for &v in &signal {
            let b = batch.push(v).unwrap();
            let s = streaming.push(v).unwrap();
            assert_eq!(b, s, "divergence at sample {}", streaming.samples_seen());
        }
        assert_eq!(batch.is_alarmed(), streaming.is_alarmed());
        assert_eq!(batch.baseline(), streaming.baseline());
    }

    #[test]
    fn memory_stays_bounded() {
        let cfg = tiny_config();
        let det = StreamingHolderDimension::new(cfg.clone()).unwrap();
        let bound = det.memory_bound_samples();
        assert_eq!(
            bound,
            2 * cfg.holder_radius + 1 + cfg.dimension_window + cfg.baseline_windows
        );
        // The bound is what the rings can hold — far below stream length.
        assert!(bound < 200);
    }

    #[test]
    fn trend_detector_alarms_on_depletion() {
        let cfg = TrendPredictorConfig {
            window: 64,
            refit_every: 4,
            alarm_horizon_secs: 1e6,
            ..TrendPredictorConfig::depleting(30.0)
        };
        let mut det = StreamingTrend::new(cfg).unwrap();
        let mut fired_at = None;
        for i in 0..400 {
            let v = 1e6 - 400.0 * i as f64 + ((i * 7) % 13) as f64;
            if det.push(v).unwrap() && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        assert!(det.is_alarmed());
        assert!(fired_at.unwrap() >= 63, "needs a full window first");
        assert!(det.eta_secs().is_some());
        det.reset();
        assert!(!det.is_alarmed());
        assert_eq!(det.eta_secs(), None);
    }

    #[test]
    fn trend_detector_quiet_on_stationary_signal() {
        let cfg = TrendPredictorConfig {
            window: 64,
            refit_every: 4,
            ..TrendPredictorConfig::depleting(30.0)
        };
        let mut det = StreamingTrend::new(cfg).unwrap();
        for i in 0..400u64 {
            let v = 1e6 + ((i * 2654435761) % 4096) as f64;
            det.push(v).unwrap();
        }
        assert!(!det.is_alarmed());
    }

    #[test]
    fn trend_restore_rejects_a_count_the_window_cannot_hold() {
        let cfg = TrendPredictorConfig {
            window: 16,
            refit_every: 4,
            ..TrendPredictorConfig::depleting(30.0)
        };
        let blob_with_count = |pushes: u64, count: u64| {
            let mut det = StreamingTrend::new(cfg.clone()).unwrap();
            for i in 0..pushes {
                det.push(1e6 - 400.0 * i as f64).unwrap();
            }
            let mut blob = Vec::new();
            det.mk.encode_state(&mut blob);
            persist::put_u64(&mut blob, count);
            persist::put_opt_f64(&mut blob, det.eta);
            persist::put_bool(&mut blob, det.alarmed);
            blob
        };
        let mut det = StreamingTrend::new(cfg.clone()).unwrap();
        for i in 0..21 {
            det.push(5e5 - 10.0 * i as f64).unwrap();
        }
        let mut before = Vec::new();
        det.encode_state(&mut before);
        // A full window behind fewer pushes than it holds, and a filling
        // window whose count says otherwise.
        for blob in [blob_with_count(40, 15), blob_with_count(9, 10)] {
            assert!(det.restore_state(&mut Reader::new(&blob)).is_err());
            let mut after = Vec::new();
            det.encode_state(&mut after);
            assert_eq!(
                after, before,
                "a failed restore must leave the detector unchanged"
            );
        }
        // Counts a stream could have left behind these windows restore.
        for (pushes, count) in [(40, 16), (40, 41), (9, 9)] {
            let blob = blob_with_count(pushes, count);
            det.restore_state(&mut Reader::new(&blob)).unwrap();
        }
    }

    #[test]
    fn wrapper_reports_both_families() {
        let holder = DetectorSpec::Holder(tiny_config());
        assert_eq!(holder.name(), "holder-dimension");
        let mut det = StreamingDetector::new(&holder).unwrap();
        for &v in &degrading_signal(1400) {
            det.push(v).unwrap();
        }
        assert!(det.memory_bound_samples() < 200);

        let trend = DetectorSpec::Trend(TrendPredictorConfig {
            window: 64,
            refit_every: 4,
            alarm_horizon_secs: 1e6,
            ..TrendPredictorConfig::depleting(30.0)
        });
        assert_eq!(trend.name(), "mann-kendall-sen");
        let mut det = StreamingDetector::new(&trend).unwrap();
        let mut alert = None;
        for i in 0..400 {
            let v = 1e6 - 400.0 * i as f64;
            if let Some(a) = det.push(v).unwrap() {
                alert.get_or_insert(a);
            }
        }
        let alert = alert.expect("depleting line must alarm");
        assert_eq!(alert.level, AlertLevel::Alarm);
        assert!(matches!(
            alert.detail,
            AlertDetail::Trend { eta_secs: Some(_) }
        ));
        assert!(det.is_alarmed());
    }

    fn tiny_spectrum_config() -> SpectrumDetectorConfig {
        SpectrumDetectorConfig {
            spectrum: SpectrumConfig {
                window: 128,
                stride: 32,
                ..SpectrumConfig::default()
            },
            skip_windows: 0,
            baseline_windows: 4,
            width_delta: 0.2,
            mad_multiplier: 4.0,
            confirm_windows: 2,
        }
    }

    /// A signal whose multifractal width widens in late life: a random
    /// walk with constant-amplitude steps that become intermittent
    /// (occasional large bursts) past `turn`.
    fn widening_signal(n: usize, turn: usize) -> Vec<f64> {
        let mut state = 0x51ce_b00c_5eed_f00du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut acc = 0.0;
        (0..n)
            .map(|i| {
                let u = rand() - 0.5;
                let step = if i > turn && rand() < 0.08 {
                    u * 400.0
                } else {
                    u * 8.0
                };
                acc += step;
                acc
            })
            .collect()
    }

    #[test]
    fn spectrum_detector_alarms_on_widening() {
        let mut det = StreamingSpectrumWidth::new(tiny_spectrum_config()).unwrap();
        let signal = widening_signal(1024, 500);
        let mut alerts = Vec::new();
        for &v in &signal {
            if let Some(a) = det.push(v).unwrap() {
                alerts.push(a);
            }
        }
        assert!(det.is_alarmed(), "intermittent late phase must alarm");
        assert!(det.baseline().is_some());
        let alarm = alerts
            .iter()
            .find(|a| a.level == AlertLevel::Alarm)
            .unwrap();
        assert!(
            alarm.delta_alpha > alarm.baseline_width,
            "alarm Δα {} vs baseline {}",
            alarm.delta_alpha,
            alarm.baseline_width
        );
        assert!(det.last_width().is_some());
    }

    #[test]
    fn spectrum_detector_quiet_on_stationary_signal() {
        let mut det = StreamingSpectrumWidth::new(tiny_spectrum_config()).unwrap();
        // Same generator with the turn pushed past the end: no regime change.
        for &v in &widening_signal(1024, usize::MAX) {
            det.push(v).unwrap();
        }
        assert!(!det.is_alarmed());
    }

    #[test]
    fn spectrum_detector_persist_round_trip_mid_stream() {
        let cfg = tiny_spectrum_config();
        let signal = widening_signal(1024, 500);
        let (head, tail) = signal.split_at(600);
        let mut live = StreamingSpectrumWidth::new(cfg.clone()).unwrap();
        for &v in head {
            live.push(v).unwrap();
        }
        let mut blob = Vec::new();
        live.encode_state(&mut blob);
        let mut restored = StreamingSpectrumWidth::new(cfg).unwrap();
        let mut r = Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        for &v in tail {
            let a = live.push(v).unwrap();
            let b = restored.push(v).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(live.is_alarmed(), restored.is_alarmed());
        assert_eq!(live.last_width(), restored.last_width());
        assert_eq!(live.baseline(), restored.baseline());
    }

    #[test]
    fn spectrum_wrapper_family() {
        let spec = DetectorSpec::Spectrum(tiny_spectrum_config());
        assert_eq!(spec.name(), "spectrum-width");
        let mut det = StreamingDetector::new(&spec).unwrap();
        assert!(!det.is_trend_family(), "spectrum must take the scalar path");
        assert_eq!(det.last_delta_alpha(), None);
        let signal = widening_signal(1024, 500);

        // Chunked pushes match the scalar loop bit-for-bit.
        let mut scalar = StreamingDetector::new(&spec).unwrap();
        let mut scalar_alerts = Vec::new();
        for &v in &signal {
            if let Some(a) = scalar.push(v).unwrap() {
                scalar_alerts.push(a);
            }
        }
        let mut out = Vec::new();
        let mut chunked_alerts = Vec::new();
        for chunk in signal.chunks(7) {
            det.push_slice(chunk, &mut out).unwrap();
            chunked_alerts.extend(out.iter().map(|&(_, a)| a));
        }
        assert_eq!(scalar_alerts, chunked_alerts);
        assert!(det.is_alarmed());
        assert!(det.last_delta_alpha().is_some());
        assert_eq!(det.last_delta_alpha(), scalar.last_delta_alpha());

        // Family-tagged persistence round-trips.
        let mut blob = Vec::new();
        det.encode_state(&mut blob);
        let mut restored = StreamingDetector::new(&spec).unwrap();
        let mut r = Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        assert!(restored.is_alarmed());
        assert_eq!(restored.last_delta_alpha(), det.last_delta_alpha());
    }
}
