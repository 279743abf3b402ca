//! The Hölder-dimension aging detector — the target paper's primary
//! contribution.
//!
//! Pipeline (Shereshevsky et al., DSN 2003):
//!
//! 1. a memory-resource counter (available bytes, used swap) is sampled at
//!    a fixed period;
//! 2. the **local Hölder exponent trace** `h(t)` of the counter is
//!    computed over a sliding history;
//! 3. the **fractal (box-counting) dimension** of the graph of `h(t)` is
//!    computed over a sliding window — the *Hölder dimension trace*
//!    `D_h(t)` — together with the windowed mean of `h(t)`;
//! 4. a window is *anomalous* when `D_h` jumps above its baseline (the
//!    paper's rule) and/or when the mean Hölder exponent collapses below
//!    its baseline (regularity collapse — the dominant pre-crash signal on
//!    the simulated substrate; see DESIGN.md). The first anomalous window
//!    raises a warning; `confirm_windows` consecutive anomalous windows
//!    raise the crash **alarm** (the paper's "two-jump" rule).
//!
//! The jump threshold adapts to the baseline's own variability
//! (`median + max(jump_delta, mad_multiplier · MAD)`), and the first
//! `skip_windows` windows are discarded so boot-time warmup does not
//! contaminate the baseline; [`crate::discipline::AlarmDiscipline`]
//! applies that warmup → baseline → confirm → latch rule.
//!
//! [`HolderDimensionDetector`] is one bounded-memory online detector:
//! ring-buffered trailing windows ([`StreamingHolder`],
//! [`StreamingDimension`]) hold the only history it reads, so each sample
//! costs O(window) work and the detector holds O(window) memory however
//! long the stream runs. Each emission hands the batch estimators the
//! window the batch trace would use, so [`analyze`] reproduces the batch
//! Hölder trace and the sliding-window dimensions exactly. Because the
//! Hölder estimator is centred, the traces trail the newest sample by the
//! estimator's neighbourhood radius — alarms are attributed to the *push*
//! (wall-clock) instant, so evaluation lead times are honest.

use aging_fractal::holder::{HolderEstimator, IncrementConfig};
use aging_fractal::streaming::{
    DimensionPoint, StreamingDimension, StreamingHolder, WindowDimension,
};
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::{Error, Result};

use crate::discipline::{AlarmDiscipline, BandRule};

/// The detector's name for [`WindowDimension`], the graph-dimension
/// estimator it applies to the Hölder trace.
pub use aging_fractal::streaming::WindowDimension as DimensionMethod;

/// Which anomaly rule(s) drive warnings and alarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum JumpRule {
    /// Only the paper's dimension-jump rule.
    DimensionJump,
    /// Only the Hölder-collapse rule.
    HolderCollapse,
    /// Either rule (default — most sensitive, still calm on stationary
    /// signals thanks to the adaptive threshold).
    #[default]
    Either,
}

/// Detector configuration. Defaults follow the calibration on the
/// simulated NT4 workload (see DESIGN.md, E3/E8).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Neighbourhood radius (in samples) of the Hölder estimator.
    pub holder_radius: usize,
    /// Largest lag of the local-increment Hölder estimator.
    pub holder_max_lag: usize,
    /// Hölder cap for degenerate neighbourhoods.
    pub max_h: f64,
    /// Window (in Hölder-trace samples) of the dimension estimator.
    pub dimension_window: usize,
    /// Stride between dimension windows.
    pub dimension_stride: usize,
    /// Dimension method.
    pub dimension_method: WindowDimension,
    /// Initial dimension windows discarded (boot warmup).
    pub skip_windows: usize,
    /// Number of subsequent dimension values that form the baseline.
    pub baseline_windows: usize,
    /// Minimum jump threshold above the baseline median.
    pub jump_delta: f64,
    /// The jump threshold is `max(jump_delta, mad_multiplier · MAD)` of
    /// the baseline windows — it adapts to how noisy the signal's
    /// dimension naturally is. Adaptation is capped at 3 × `jump_delta`
    /// (dimension) and 2 × `holder_drop` (collapse) so a turbulent warmup
    /// cannot disable a rule outright.
    pub mad_multiplier: f64,
    /// Minimum Hölder-collapse threshold: anomalous when the windowed mean
    /// exponent falls below its baseline median by more than
    /// `max(holder_drop, mad_multiplier · MAD)` of the baseline windows.
    pub holder_drop: f64,
    /// Relative collapse floor: a window is also anomalous when its mean
    /// exponent falls below this fraction of the baseline median — the
    /// robust detector of total regularity collapse (`h → 0`) even when a
    /// turbulent warmup inflated the MAD-based threshold.
    pub holder_floor_fraction: f64,
    /// Which rule(s) to apply.
    pub rule: JumpRule,
    /// Consecutive anomalous windows required for a full alarm (2 = the
    /// paper's two-jump rule).
    pub confirm_windows: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            holder_radius: 32,
            holder_max_lag: 8,
            max_h: 2.0,
            dimension_window: 128,
            dimension_stride: 16,
            dimension_method: WindowDimension::BoxCounting,
            skip_windows: 2,
            baseline_windows: 12,
            jump_delta: 0.2,
            mad_multiplier: 5.0,
            holder_drop: 0.3,
            holder_floor_fraction: 0.25,
            rule: JumpRule::Either,
            confirm_windows: 3,
        }
    }
}

impl DetectorConfig {
    /// Starts a fluent builder seeded with the defaults; finish with
    /// [`DetectorConfigBuilder::build`], which validates the result — the
    /// preferred way to construct a customised configuration (invalid
    /// combinations are rejected at build time instead of surfacing later
    /// from [`HolderDimensionDetector::new`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_core::detector::DetectorConfig;
    ///
    /// # fn main() -> Result<(), aging_timeseries::Error> {
    /// let config = DetectorConfig::builder()
    ///     .dimension_window(96)
    ///     .confirm_windows(2)
    ///     .build()?;
    /// assert_eq!(config.dimension_window, 96);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder {
            config: DetectorConfig::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.holder_max_lag < 4 {
            return Err(Error::invalid("holder_max_lag", "must be at least 4"));
        }
        if self.holder_radius < 2 * self.holder_max_lag {
            return Err(Error::invalid(
                "holder_radius",
                "must be at least twice holder_max_lag",
            ));
        }
        if !(self.max_h > 0.0) {
            return Err(Error::invalid("max_h", "must be positive"));
        }
        let min_window = self.dimension_method.min_window();
        if self.dimension_window < min_window {
            return Err(Error::invalid(
                "dimension_window",
                format!(
                    "must be at least {min_window} for {:?}",
                    self.dimension_method
                ),
            ));
        }
        if self.dimension_stride == 0 || self.dimension_stride > self.dimension_window {
            return Err(Error::invalid(
                "dimension_stride",
                "must be positive and at most dimension_window",
            ));
        }
        if self.baseline_windows < 2 {
            return Err(Error::invalid("baseline_windows", "must be at least 2"));
        }
        if !(self.jump_delta > 0.0) {
            return Err(Error::invalid("jump_delta", "must be positive"));
        }
        if !(self.mad_multiplier >= 0.0 && self.mad_multiplier.is_finite()) {
            return Err(Error::invalid(
                "mad_multiplier",
                "must be finite and non-negative",
            ));
        }
        if !(self.holder_drop > 0.0) {
            return Err(Error::invalid("holder_drop", "must be positive"));
        }
        if !(0.0..1.0).contains(&self.holder_floor_fraction) {
            return Err(Error::invalid(
                "holder_floor_fraction",
                "must lie in [0, 1)",
            ));
        }
        if self.confirm_windows == 0 {
            return Err(Error::invalid("confirm_windows", "must be positive"));
        }
        Ok(())
    }

    /// The equivalent offline Hölder estimator.
    pub fn holder_estimator(&self) -> HolderEstimator {
        HolderEstimator::LocalIncrement(IncrementConfig {
            window_radius: self.holder_radius,
            max_lag: self.holder_max_lag,
            max_h: self.max_h,
        })
    }
}

/// Fluent builder for [`DetectorConfig`]; see [`DetectorConfig::builder`].
#[derive(Debug, Clone)]
pub struct DetectorConfigBuilder {
    config: DetectorConfig,
}

impl DetectorConfigBuilder {
    /// Sets the Hölder-estimator neighbourhood radius.
    #[must_use]
    pub fn holder_radius(mut self, holder_radius: usize) -> Self {
        self.config.holder_radius = holder_radius;
        self
    }

    /// Sets the largest lag of the local-increment Hölder estimator.
    #[must_use]
    pub fn holder_max_lag(mut self, holder_max_lag: usize) -> Self {
        self.config.holder_max_lag = holder_max_lag;
        self
    }

    /// Sets the Hölder cap for degenerate neighbourhoods.
    #[must_use]
    pub fn max_h(mut self, max_h: f64) -> Self {
        self.config.max_h = max_h;
        self
    }

    /// Sets the dimension-estimator window length.
    #[must_use]
    pub fn dimension_window(mut self, dimension_window: usize) -> Self {
        self.config.dimension_window = dimension_window;
        self
    }

    /// Sets the stride between dimension windows.
    #[must_use]
    pub fn dimension_stride(mut self, dimension_stride: usize) -> Self {
        self.config.dimension_stride = dimension_stride;
        self
    }

    /// Sets the dimension method.
    #[must_use]
    pub fn dimension_method(mut self, dimension_method: WindowDimension) -> Self {
        self.config.dimension_method = dimension_method;
        self
    }

    /// Sets the number of initial windows discarded as boot warmup.
    #[must_use]
    pub fn skip_windows(mut self, skip_windows: usize) -> Self {
        self.config.skip_windows = skip_windows;
        self
    }

    /// Sets the number of windows that form the baseline.
    #[must_use]
    pub fn baseline_windows(mut self, baseline_windows: usize) -> Self {
        self.config.baseline_windows = baseline_windows;
        self
    }

    /// Sets the minimum dimension-jump threshold.
    #[must_use]
    pub fn jump_delta(mut self, jump_delta: f64) -> Self {
        self.config.jump_delta = jump_delta;
        self
    }

    /// Sets the MAD multiplier of the adaptive thresholds.
    #[must_use]
    pub fn mad_multiplier(mut self, mad_multiplier: f64) -> Self {
        self.config.mad_multiplier = mad_multiplier;
        self
    }

    /// Sets the minimum Hölder-collapse threshold.
    #[must_use]
    pub fn holder_drop(mut self, holder_drop: f64) -> Self {
        self.config.holder_drop = holder_drop;
        self
    }

    /// Sets the relative collapse floor.
    #[must_use]
    pub fn holder_floor_fraction(mut self, holder_floor_fraction: f64) -> Self {
        self.config.holder_floor_fraction = holder_floor_fraction;
        self
    }

    /// Sets which anomaly rule(s) to apply.
    #[must_use]
    pub fn rule(mut self, rule: JumpRule) -> Self {
        self.config.rule = rule;
        self
    }

    /// Sets the number of consecutive anomalous windows required for a
    /// full alarm.
    #[must_use]
    pub fn confirm_windows(mut self, confirm_windows: usize) -> Self {
        self.config.confirm_windows = confirm_windows;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint, exactly like [`DetectorConfig::validate`].
    pub fn build(self) -> Result<DetectorConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Severity of an emitted alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertLevel {
    /// First anomalous window above baseline.
    Warning,
    /// Confirmed anomaly (the paper's crash predictor firing).
    Alarm,
}

impl AlertLevel {
    /// Stable one-byte code used by the persistence and wire codecs.
    pub fn code(self) -> u8 {
        match self {
            AlertLevel::Warning => 0,
            AlertLevel::Alarm => 1,
        }
    }

    /// Inverse of [`AlertLevel::code`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an unknown code.
    pub fn from_code(code: u8) -> Result<AlertLevel> {
        match code {
            0 => Ok(AlertLevel::Warning),
            1 => Ok(AlertLevel::Alarm),
            c => Err(Error::invalid("persist", format!("bad alert level {c}"))),
        }
    }
}

impl std::fmt::Display for AlertLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlertLevel::Warning => f.write_str("warning"),
            AlertLevel::Alarm => f.write_str("alarm"),
        }
    }
}

/// Which rule(s) a window violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Dimension jumped above baseline.
    DimensionJump,
    /// Mean Hölder exponent collapsed below baseline.
    HolderCollapse,
    /// Both at once.
    Both,
}

impl Trigger {
    /// Stable one-byte code used by the persistence and wire codecs.
    pub fn code(self) -> u8 {
        match self {
            Trigger::DimensionJump => 0,
            Trigger::HolderCollapse => 1,
            Trigger::Both => 2,
        }
    }

    /// Inverse of [`Trigger::code`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an unknown code.
    pub fn from_code(code: u8) -> Result<Trigger> {
        match code {
            0 => Ok(Trigger::DimensionJump),
            1 => Ok(Trigger::HolderCollapse),
            2 => Ok(Trigger::Both),
            c => Err(Error::invalid("persist", format!("bad trigger {c}"))),
        }
    }
}

/// An alert emitted by the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Index of the raw sample whose push produced the alert.
    pub sample_index: usize,
    /// Severity.
    pub level: AlertLevel,
    /// Which rule fired.
    pub trigger: Trigger,
    /// Dimension value of the anomalous window.
    pub dimension: f64,
    /// Windowed mean Hölder exponent of the anomalous window.
    pub mean_holder: f64,
    /// Baseline dimension median.
    pub dimension_baseline: f64,
    /// Baseline mean-Hölder median.
    pub holder_baseline: f64,
}

impl Alert {
    /// Length of the [`Alert::encode`] layout in bytes.
    pub const ENCODED_LEN: usize = 42;

    /// Appends the alert's one byte layout, shared by detector state,
    /// alarm journals and the wire: the sample index as a little-endian
    /// `u64`, the level and trigger codes, then the four measurements as
    /// raw IEEE-754 bits, little-endian.
    pub fn encode(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.sample_index);
        persist::put_u8(out, self.level.code());
        persist::put_u8(out, self.trigger.code());
        persist::put_f64(out, self.dimension);
        persist::put_f64(out, self.mean_holder);
        persist::put_f64(out, self.dimension_baseline);
        persist::put_f64(out, self.holder_baseline);
    }

    /// Reads an alert written by [`Alert::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or a bad level or
    /// trigger code.
    pub fn decode(r: &mut Reader<'_>) -> Result<Alert> {
        Ok(Alert {
            sample_index: r.usize_()?,
            level: AlertLevel::from_code(r.u8()?)?,
            trigger: Trigger::from_code(r.u8()?)?,
            dimension: r.f64()?,
            mean_holder: r.f64()?,
            dimension_baseline: r.f64()?,
            holder_baseline: r.f64()?,
        })
    }
}

/// Baseline levels established after warmup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Median dimension of the baseline windows.
    pub dimension: f64,
    /// Effective jump threshold actually applied (`max(jump_delta,
    /// mad_multiplier · MAD)`).
    pub dimension_delta: f64,
    /// Median windowed mean Hölder exponent of the baseline windows.
    pub mean_holder: f64,
    /// Effective collapse threshold actually applied (`max(holder_drop,
    /// mad_multiplier · MAD)`).
    pub holder_delta: f64,
}

/// Bounded-memory Hölder-dimension detector (see the module docs).
///
/// # Examples
///
/// ```
/// use aging_core::detector::{DetectorConfig, HolderDimensionDetector};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let mut det = HolderDimensionDetector::new(DetectorConfig::default())?;
/// for i in 0..800 {
///     let value = (i as f64 * 0.37).sin() * 10.0 + 100.0;
///     det.push(value)?;
/// }
/// // A clean periodic signal never alarms.
/// assert!(!det.is_alarmed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HolderDimensionDetector {
    config: DetectorConfig,
    holder: StreamingHolder,
    dimension: StreamingDimension,
    samples_seen: u64,
    discipline: AlarmDiscipline<2>,
    last_alert: Option<Alert>,
}

/// What one push produced: the Hölder point, the dimension point and the
/// alert, each when due.
struct Step {
    holder: Option<f64>,
    point: Option<DimensionPoint>,
    alert: Option<Alert>,
}

impl HolderDimensionDetector {
    /// Creates a detector.
    ///
    /// # Errors
    ///
    /// Propagates [`DetectorConfig::validate`] failures.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        let holder =
            StreamingHolder::new(config.holder_radius, config.holder_max_lag, config.max_h)?;
        let dimension = StreamingDimension::new(
            config.dimension_method,
            config.dimension_window,
            config.dimension_stride,
        )?;
        let discipline = AlarmDiscipline::new(
            config.skip_windows,
            config.baseline_windows,
            config.confirm_windows,
            config.mad_multiplier,
            [
                BandRule {
                    min_delta: config.jump_delta,
                    max_factor: 3.0,
                },
                BandRule {
                    min_delta: config.holder_drop,
                    max_factor: 2.0,
                },
            ],
        )?;
        Ok(HolderDimensionDetector {
            config,
            holder,
            dimension,
            samples_seen: 0,
            discipline,
            last_alert: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Feeds one counter sample; returns an alert if this sample produced
    /// (or confirmed) an anomalous window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite samples (repair gaps
    /// with [`aging_timeseries::interp`] before feeding; the sample is not
    /// consumed) and propagates internal estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<Alert>> {
        Ok(self.step(value)?.alert)
    }

    fn step(&mut self, value: f64) -> Result<Step> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.samples_seen as usize,
            });
        }
        self.samples_seen += 1;
        let mut step = Step {
            holder: None,
            point: None,
            alert: None,
        };
        // Hölder point for the centre of the trailing neighbourhood.
        step.holder = self.holder.push(value)?;
        let Some(h) = step.holder else {
            return Ok(step);
        };
        // Dimension window due?
        step.point = self.dimension.push(h)?;
        let Some(point) = step.point else {
            return Ok(step);
        };
        let (d, mean_h) = (point.dimension, point.mean);
        let Some([dim, hold]) = self.discipline.admit([d, mean_h])? else {
            return Ok(step);
        };

        // Anomaly rules.
        let cfg = &self.config;
        let dim_jump = d > dim.median + dim.delta;
        let mut collapse_level = hold.median - hold.delta;
        if hold.median > cfg.holder_drop {
            // Only meaningful when there is regularity to collapse from;
            // a noise-like baseline (h ≈ 0) has no lower floor.
            collapse_level = collapse_level.max(cfg.holder_floor_fraction * hold.median);
        }
        let collapse = mean_h < collapse_level;
        let anomalous = match cfg.rule {
            JumpRule::DimensionJump => dim_jump,
            JumpRule::HolderCollapse => collapse,
            JumpRule::Either => dim_jump || collapse,
        };
        let Some(level) = self.discipline.judge(anomalous) else {
            return Ok(step);
        };
        let trigger = match (dim_jump, collapse) {
            (true, true) => Trigger::Both,
            (true, false) => Trigger::DimensionJump,
            (false, true) => Trigger::HolderCollapse,
            (false, false) => unreachable!("anomalous implies a trigger"),
        };
        let alert = Alert {
            sample_index: (self.samples_seen - 1) as usize,
            level,
            trigger,
            dimension: d,
            mean_holder: mean_h,
            dimension_baseline: dim.median,
            holder_baseline: hold.median,
        };
        self.last_alert = Some(alert);
        step.alert = Some(alert);
        Ok(step)
    }

    /// Whether the full alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.discipline.is_alarmed()
    }

    /// The established baseline, once enough windows exist.
    pub fn baseline(&self) -> Option<Baseline> {
        self.discipline.bands().map(|[dim, hold]| Baseline {
            dimension: dim.median,
            dimension_delta: dim.delta,
            mean_holder: hold.median,
            holder_delta: hold.delta,
        })
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<Alert> {
        self.last_alert
    }

    /// Samples consumed since construction or the last reset.
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

    /// Clears all state (after a rejuvenation, reboot or feed gap); the
    /// configuration and lifetime emission counters are retained.
    pub fn reset(&mut self) {
        self.holder.reset();
        self.dimension.reset();
        self.samples_seen = 0;
        self.discipline.reset();
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
        self.discipline.encode_state(out);
        persist::put_bool(out, self.last_alert.is_some());
        if let Some(alert) = &self.last_alert {
            alert.encode(out);
        }
    }

    /// Restores state written by
    /// [`HolderDimensionDetector::encode_state`] into a detector
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
        self.discipline.restore_state(r)?;
        self.last_alert = if r.bool()? {
            Some(Alert::decode(r)?)
        } else {
            None
        };
        Ok(())
    }
}

/// Result of an offline end-to-end analysis of a full counter series.
#[derive(Debug, Clone)]
pub struct OfflineAnalysis {
    /// The Hölder trace (index `i` corresponds to raw sample
    /// `i + holder_radius`).
    pub holder_trace: Vec<f64>,
    /// `(raw-sample index, dimension)` pairs.
    pub dimension_trace: Vec<(usize, f64)>,
    /// `(raw-sample index, windowed mean Hölder)` pairs.
    pub mean_holder_trace: Vec<(usize, f64)>,
    /// All alerts.
    pub alerts: Vec<Alert>,
    /// The baseline, if it formed.
    pub baseline: Option<Baseline>,
}

impl OfflineAnalysis {
    /// The first full alarm, if any.
    pub fn first_alarm(&self) -> Option<Alert> {
        self.alerts
            .iter()
            .copied()
            .find(|a| a.level == AlertLevel::Alarm)
    }
}

/// Runs the detector over a complete series in one call, collecting the
/// Hölder, dimension and mean-Hölder traces along the way.
///
/// # Errors
///
/// Propagates configuration and estimator failures; NaN samples are
/// rejected.
pub fn analyze(values: &[f64], config: &DetectorConfig) -> Result<OfflineAnalysis> {
    let mut det = HolderDimensionDetector::new(config.clone())?;
    let mut analysis = OfflineAnalysis {
        holder_trace: Vec::with_capacity(values.len()),
        dimension_trace: Vec::new(),
        mean_holder_trace: Vec::new(),
        alerts: Vec::new(),
        baseline: None,
    };
    for (i, &v) in values.iter().enumerate() {
        let step = det.step(v)?;
        analysis.holder_trace.extend(step.holder);
        if let Some(point) = step.point {
            analysis.dimension_trace.push((i, point.dimension));
            analysis.mean_holder_trace.push((i, point.mean));
        }
        analysis.alerts.extend(step.alert);
    }
    analysis.baseline = det.baseline();
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_fractal::generate;
    use aging_fractal::holder::holder_trace;
    use aging_timeseries::stats;

    /// Smooth persistent first half, rough noise second half: the
    /// archetypal regularity collapse.
    fn collapse_signal(n: usize, seed: u64) -> Vec<f64> {
        let mut x = generate::fbm(n / 2, 0.9, seed).unwrap();
        let last = *x.last().unwrap();
        let noise = generate::white_noise(n / 2, seed + 1000).unwrap();
        x.extend(noise.iter().map(|v| last + v));
        x
    }

    #[test]
    fn config_validation() {
        assert!(DetectorConfig::default().validate().is_ok());
        let bad = |f: fn(&mut DetectorConfig)| {
            let mut c = DetectorConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.holder_max_lag = 2));
        assert!(bad(|c| c.holder_radius = 8));
        assert!(bad(|c| c.max_h = 0.0));
        assert!(bad(|c| c.dimension_window = 4));
        assert!(bad(|c| c.dimension_window = 24));
        assert!(bad(|c| c.dimension_stride = 0));
        assert!(bad(|c| c.dimension_stride = 129));
        assert!(bad(|c| c.baseline_windows = 1));
        assert!(bad(|c| c.jump_delta = 0.0));
        assert!(bad(|c| c.mad_multiplier = f64::NAN));
        assert!(bad(|c| c.holder_drop = 0.0));
        assert!(bad(|c| c.holder_floor_fraction = 1.0));
        assert!(bad(|c| c.holder_floor_fraction = -0.1));
        assert!(bad(|c| c.confirm_windows = 0));
    }

    /// A box-counting window below 32 samples has no three grid levels:
    /// validation must refuse it up front instead of the first emission
    /// failing. The variation method fits from 16.
    #[test]
    fn dimension_window_floor_depends_on_the_method() {
        let with = |method, window| DetectorConfig {
            dimension_method: method,
            dimension_window: window,
            dimension_stride: 8,
            ..DetectorConfig::default()
        };
        let boxed = with(WindowDimension::BoxCounting, 31);
        let err = boxed.validate().unwrap_err().to_string();
        assert!(err.contains("dimension_window"), "{err}");
        assert!(HolderDimensionDetector::new(boxed).is_err());
        assert!(with(WindowDimension::BoxCounting, 32).validate().is_ok());
        assert!(with(WindowDimension::Variation, 15).validate().is_err());
        assert!(with(WindowDimension::Variation, 16).validate().is_ok());
        assert!(with(WindowDimension::Variation, 24).validate().is_ok());

        // Both floors run: every emission fits, none errors.
        let data = collapse_signal(600, 11);
        for config in [
            with(WindowDimension::BoxCounting, 32),
            with(WindowDimension::Variation, 16),
        ] {
            let mut det = HolderDimensionDetector::new(config).unwrap();
            for &v in &data {
                det.push(v).unwrap();
            }
        }
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let built = DetectorConfig::builder().build().unwrap();
        assert_eq!(built, DetectorConfig::default());

        let custom = DetectorConfig::builder()
            .holder_radius(48)
            .holder_max_lag(16)
            .max_h(1.5)
            .dimension_window(96)
            .dimension_stride(8)
            .dimension_method(WindowDimension::Variation)
            .skip_windows(1)
            .baseline_windows(6)
            .jump_delta(0.15)
            .mad_multiplier(4.0)
            .holder_drop(0.25)
            .holder_floor_fraction(0.3)
            .rule(JumpRule::HolderCollapse)
            .confirm_windows(2)
            .build()
            .unwrap();
        assert_eq!(custom.holder_radius, 48);
        assert_eq!(custom.holder_max_lag, 16);
        assert_eq!(custom.max_h, 1.5);
        assert_eq!(custom.dimension_window, 96);
        assert_eq!(custom.dimension_stride, 8);
        assert_eq!(custom.dimension_method, WindowDimension::Variation);
        assert_eq!(custom.skip_windows, 1);
        assert_eq!(custom.baseline_windows, 6);
        assert_eq!(custom.jump_delta, 0.15);
        assert_eq!(custom.mad_multiplier, 4.0);
        assert_eq!(custom.holder_drop, 0.25);
        assert_eq!(custom.holder_floor_fraction, 0.3);
        assert_eq!(custom.rule, JumpRule::HolderCollapse);
        assert_eq!(custom.confirm_windows, 2);

        // Invalid combinations fail at build time.
        assert!(DetectorConfig::builder().holder_max_lag(2).build().is_err());
        assert!(DetectorConfig::builder().holder_radius(8).build().is_err());
        assert!(DetectorConfig::builder()
            .confirm_windows(0)
            .build()
            .is_err());
    }

    #[test]
    fn stationary_signal_never_alarms() {
        // Stationary fGn at several roughness levels: regularity never
        // changes, so the alarm must stay silent.
        for &(h, seed) in &[(0.3, 1u64), (0.5, 2), (0.7, 3)] {
            let x = generate::fgn(4000, h, seed).unwrap();
            let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
            assert!(analysis.baseline.is_some());
            assert!(
                analysis.first_alarm().is_none(),
                "H={h}: {:?}",
                analysis.alerts
            );
        }
    }

    #[test]
    fn regularity_collapse_triggers_alarm() {
        let n = 4000;
        let x = collapse_signal(n, 2);
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let alarm = analysis.first_alarm().expect("alarm must fire");
        // Alarm must land after the regime change began.
        assert!(alarm.sample_index > n / 2, "index {}", alarm.sample_index);
        // And reasonably soon after it (within the detector's natural
        // latency: holder radius + dimension window + confirmation).
        assert!(
            alarm.sample_index < n / 2 + 500,
            "index {}",
            alarm.sample_index
        );
    }

    #[test]
    fn collapse_rule_reports_holder_trigger() {
        let config = DetectorConfig {
            rule: JumpRule::HolderCollapse,
            ..DetectorConfig::default()
        };
        let x = collapse_signal(4000, 4);
        let analysis = analyze(&x, &config).unwrap();
        let alarm = analysis.first_alarm().expect("collapse rule must fire");
        assert_eq!(alarm.trigger, Trigger::HolderCollapse);
        assert!(alarm.mean_holder < alarm.holder_baseline - 0.3);
    }

    #[test]
    fn dimension_rule_alone_is_silent_on_stationary() {
        let config = DetectorConfig {
            rule: JumpRule::DimensionJump,
            ..DetectorConfig::default()
        };
        let x = generate::fgn(4000, 0.5, 5).unwrap();
        let analysis = analyze(&x, &config).unwrap();
        assert!(analysis.first_alarm().is_none());
    }

    #[test]
    fn warning_precedes_alarm() {
        let x = collapse_signal(4000, 6);
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let warning_idx = analysis
            .alerts
            .iter()
            .position(|a| a.level == AlertLevel::Warning);
        let alarm_idx = analysis
            .alerts
            .iter()
            .position(|a| a.level == AlertLevel::Alarm);
        let (w, a) = (warning_idx.unwrap(), alarm_idx.unwrap());
        assert!(w < a);
        assert!(analysis.alerts[w].sample_index < analysis.alerts[a].sample_index);
    }

    /// The decision rule restated over whole batch traces: skip, freeze
    /// the median/MAD bands, judge, confirm, latch.
    fn reference_alerts(
        config: &DetectorConfig,
        windows: &[(usize, f64, f64)],
    ) -> (Vec<Alert>, Option<Baseline>) {
        let skip = config.skip_windows;
        let formed = skip + config.baseline_windows;
        if windows.len() < formed {
            return (Vec::new(), None);
        }
        let dims: Vec<f64> = windows[skip..formed].iter().map(|w| w.1).collect();
        let means: Vec<f64> = windows[skip..formed].iter().map(|w| w.2).collect();
        let band = |v: &[f64], floor: f64, cap: f64| {
            let delta = (config.mad_multiplier * stats::mad(v).unwrap()).clamp(floor, cap * floor);
            (stats::median(v).unwrap(), delta)
        };
        let (dim_median, dim_delta) = band(&dims, config.jump_delta, 3.0);
        let (h_median, h_delta) = band(&means, config.holder_drop, 2.0);
        let mut alerts = Vec::new();
        let mut run = 0;
        let mut alarmed = false;
        for &(index, d, h) in &windows[formed..] {
            let jump = d > dim_median + dim_delta;
            let mut level = h_median - h_delta;
            if h_median > config.holder_drop {
                level = level.max(config.holder_floor_fraction * h_median);
            }
            let collapse = h < level;
            let anomalous = match config.rule {
                JumpRule::DimensionJump => jump,
                JumpRule::HolderCollapse => collapse,
                JumpRule::Either => jump || collapse,
            };
            run = if anomalous { run + 1 } else { 0 };
            let level = match run {
                0 => continue,
                _ if alarmed => continue,
                r if r >= config.confirm_windows => AlertLevel::Alarm,
                1 => AlertLevel::Warning,
                _ => continue,
            };
            alarmed |= level == AlertLevel::Alarm;
            alerts.push(Alert {
                sample_index: index,
                level,
                trigger: match (jump, collapse) {
                    (true, true) => Trigger::Both,
                    (true, false) => Trigger::DimensionJump,
                    _ => Trigger::HolderCollapse,
                },
                dimension: d,
                mean_holder: h,
                dimension_baseline: dim_median,
                holder_baseline: h_median,
            });
        }
        let baseline = Baseline {
            dimension: dim_median,
            dimension_delta: dim_delta,
            mean_holder: h_median,
            holder_delta: h_delta,
        };
        (alerts, Some(baseline))
    }

    #[test]
    fn analysis_matches_the_batch_kernels_and_the_rule() {
        let cases = [
            (collapse_signal(3000, 12), DetectorConfig::default()),
            (
                collapse_signal(2400, 13),
                DetectorConfig {
                    dimension_method: WindowDimension::Variation,
                    rule: JumpRule::HolderCollapse,
                    confirm_windows: 2,
                    ..DetectorConfig::default()
                },
            ),
            (
                generate::fbm(2000, 0.6, 7).unwrap(),
                DetectorConfig::default(),
            ),
        ];
        let mut alarmed = 0;
        for (x, config) in &cases {
            let analysis = analyze(x, config).unwrap();

            // The Hölder trace is the batch trace's interior, bit for bit.
            let batch = holder_trace(x, &config.holder_estimator()).unwrap();
            let r = config.holder_radius;
            assert_eq!(analysis.holder_trace.len(), x.len() - 2 * r);
            for (k, h) in analysis.holder_trace.iter().enumerate() {
                assert_eq!(h.to_bits(), batch[k + r].to_bits(), "holder point {k}");
            }

            // Each dimension window is the batch estimator on the window
            // of the trace that ends at the emitting sample.
            let mut windows = Vec::new();
            for (&(i, d), &(j, h)) in analysis
                .dimension_trace
                .iter()
                .zip(&analysis.mean_holder_trace)
            {
                assert_eq!(i, j);
                let end = i + 1 - 2 * r;
                let w = &analysis.holder_trace[end - config.dimension_window..end];
                let want = config.dimension_method.estimate(w).unwrap();
                assert_eq!(d.to_bits(), want.to_bits(), "dimension at {i}");
                assert_eq!(h.to_bits(), stats::mean(w).unwrap().to_bits());
                windows.push((i, d, h));
            }
            let expected_windows = (analysis.holder_trace.len() - config.dimension_window)
                / config.dimension_stride
                + 1;
            assert_eq!(windows.len(), expected_windows);

            let (alerts, baseline) = reference_alerts(config, &windows);
            assert_eq!(analysis.alerts, alerts);
            assert_eq!(analysis.baseline, baseline);
            alarmed += usize::from(analysis.first_alarm().is_some());

            // Streaming pushes see the same alerts.
            let mut det = HolderDimensionDetector::new(config.clone()).unwrap();
            let pushed: Vec<Alert> = x.iter().filter_map(|&v| det.push(v).unwrap()).collect();
            assert_eq!(pushed, analysis.alerts);
            assert_eq!(det.last_alert(), analysis.alerts.last().copied());
        }
        assert!(alarmed >= 2, "the collapse signals must alarm");
    }

    #[test]
    fn alarm_latches_until_reset() {
        let x = collapse_signal(4000, 8);
        let mut det = HolderDimensionDetector::new(DetectorConfig::default()).unwrap();
        let mut alarm_count = 0;
        for &v in &x {
            if let Some(a) = det.push(v).unwrap() {
                alarm_count += usize::from(a.level == AlertLevel::Alarm);
            }
        }
        assert!(det.is_alarmed());
        assert_eq!(alarm_count, 1, "alarm must fire exactly once");

        det.reset();
        assert!(!det.is_alarmed());
        assert_eq!(det.samples_seen(), 0);
        assert_eq!(det.last_alert(), None);
        assert_eq!(det.baseline(), None);
    }

    #[test]
    fn persist_round_trip_mid_stream_and_bounded_memory() {
        let config = DetectorConfig::default();
        let x = collapse_signal(4000, 20);
        let mut live = HolderDimensionDetector::new(config.clone()).unwrap();
        for &v in &x[..2100] {
            live.push(v).unwrap();
        }
        let mut blob = Vec::new();
        live.encode_state(&mut blob);
        let mut restored = HolderDimensionDetector::new(config.clone()).unwrap();
        let mut r = Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        for &v in &x[2100..] {
            assert_eq!(live.push(v).unwrap(), restored.push(v).unwrap());
        }
        assert!(live.is_alarmed());
        assert_eq!(live.baseline(), restored.baseline());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        live.encode_state(&mut a);
        restored.encode_state(&mut b);
        assert_eq!(a, b);
        // The rings and the frozen bands are all that is kept.
        assert_eq!(
            live.memory_bound_samples(),
            2 * config.holder_radius + 1 + config.dimension_window + config.baseline_windows
        );
        assert!(a.len() < 16 * live.memory_bound_samples());
        // A truncated blob is rejected.
        assert!(restored
            .restore_state(&mut Reader::new(&blob[..blob.len() - 1]))
            .is_err());
    }

    #[test]
    fn rejects_nan_samples() {
        let mut det = HolderDimensionDetector::new(DetectorConfig::default()).unwrap();
        det.push(1.0).unwrap();
        assert!(det.push(f64::NAN).is_err());
        assert_eq!(det.samples_seen(), 1, "a rejected sample is not consumed");
    }

    #[test]
    fn traces_are_delayed_consistently() {
        let x = generate::fgn(500, 0.5, 9).unwrap();
        let config = DetectorConfig::default();
        let analysis = analyze(&x, &config).unwrap();
        // Hölder trace length = n − 2·radius.
        assert_eq!(analysis.holder_trace.len(), 500 - 64);
        // Dimension indices are valid raw-sample indices; mean-h trace is
        // parallel to the dimension trace.
        assert_eq!(
            analysis.dimension_trace.len(),
            analysis.mean_holder_trace.len()
        );
        for (&(idx, d), &(idx2, h)) in analysis
            .dimension_trace
            .iter()
            .zip(&analysis.mean_holder_trace)
        {
            assert_eq!(idx, idx2);
            assert!(idx < 500);
            assert!((1.0..=2.0).contains(&d));
            assert!((-1.0..=2.0).contains(&h));
        }
    }

    #[test]
    fn dimension_methods_both_work() {
        let x = generate::fgn(2000, 0.5, 10).unwrap();
        for method in [WindowDimension::BoxCounting, WindowDimension::Variation] {
            let config = DetectorConfig {
                dimension_method: method,
                ..DetectorConfig::default()
            };
            let analysis = analyze(&x, &config).unwrap();
            assert!(!analysis.dimension_trace.is_empty(), "{method:?}");
        }
    }

    #[test]
    fn constant_input_is_smooth_not_error() {
        let x = vec![5.0; 1200];
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        // Hölder trace is capped at max_h, dimension of a constant trace
        // is 1, and nothing alarms.
        assert!(analysis.first_alarm().is_none());
        for &(_, d) in &analysis.dimension_trace {
            assert_eq!(d, 1.0);
        }
    }

    #[test]
    fn baseline_reports_adaptive_delta() {
        let x = generate::fgn(2000, 0.5, 11).unwrap();
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let b = analysis.baseline.unwrap();
        assert!(b.dimension_delta >= 0.2); // at least jump_delta
        assert!((1.0..=2.0).contains(&b.dimension));
        assert!((-1.0..=2.0).contains(&b.mean_holder));
    }

    #[test]
    fn alert_codes_and_codec_round_trip() {
        for level in [AlertLevel::Warning, AlertLevel::Alarm] {
            assert_eq!(AlertLevel::from_code(level.code()).unwrap(), level);
        }
        for trigger in [
            Trigger::DimensionJump,
            Trigger::HolderCollapse,
            Trigger::Both,
        ] {
            assert_eq!(Trigger::from_code(trigger.code()).unwrap(), trigger);
        }
        assert!(AlertLevel::from_code(2).is_err());
        assert!(Trigger::from_code(3).is_err());
        let alert = Alert {
            sample_index: 1234,
            level: AlertLevel::Alarm,
            trigger: Trigger::Both,
            dimension: 1.5,
            mean_holder: -0.0,
            dimension_baseline: 1.25,
            holder_baseline: 0.75,
        };
        let mut bytes = Vec::new();
        alert.encode(&mut bytes);
        assert_eq!(bytes.len(), Alert::ENCODED_LEN);
        assert_eq!(&bytes[..10], &[210, 4, 0, 0, 0, 0, 0, 0, 1, 2]);
        let back = Alert::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, alert);
        assert_eq!(back.mean_holder.to_bits(), (-0.0f64).to_bits());
    }
}
