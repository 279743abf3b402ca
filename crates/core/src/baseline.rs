//! Baseline aging predictors from the measurement-based literature the
//! target paper compares against.
//!
//! - [`SenSlopePredictor`] — Mann–Kendall trend test plus Sen's slope
//!   extrapolation to exhaustion (Garg et al. 1998; Vaidyanathan & Trivedi
//!   1998): the classical "estimate time to resource exhaustion" method.
//! - [`OlsPredictor`] — ordinary least-squares extrapolation.
//! - [`ThresholdPredictor`] — naive level crossing.
//!
//! All predictors and the Hölder-dimension detector implement
//! [`AgingPredictor`], so the evaluation harness can score them uniformly.

use crate::detector::HolderDimensionDetector;
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::regression::ols;
use aging_timeseries::trend::{StreamingMannKendall, TrendDirection};
use aging_timeseries::{Error, Result};

/// Whether the monitored resource depletes toward exhaustion (available
/// memory) or fills toward a capacity (used swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceDirection {
    /// Exhaustion is the series *falling* to the level (e.g. free memory).
    Depleting,
    /// Exhaustion is the series *rising* to the level (e.g. used swap).
    Filling,
}

/// A unified streaming interface for aging predictors.
pub trait AgingPredictor {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Feeds one counter sample; returns `true` if the predictor's alarm
    /// fired **on this sample** (first firing only — predictors latch).
    ///
    /// # Errors
    ///
    /// Implementations reject NaN samples and propagate estimator errors.
    fn push(&mut self, value: f64) -> Result<bool>;

    /// Whether the alarm has fired.
    fn is_alarmed(&self) -> bool;

    /// Latest estimated time to exhaustion in seconds, when the method
    /// produces one (`None` for jump-style detectors).
    fn eta_secs(&self) -> Option<f64>;

    /// Clears all state (after rejuvenation/reboot).
    fn reset(&mut self);
}

/// Configuration shared by the trend-extrapolation predictors.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPredictorConfig {
    /// Sampling period of the fed series, seconds.
    pub sample_period_secs: f64,
    /// Number of trailing samples in the regression window.
    pub window: usize,
    /// Recompute the fit every this many samples.
    pub refit_every: usize,
    /// Mann–Kendall significance level (ignored by the OLS variant).
    pub alpha: f64,
    /// The exhaustion level the series is extrapolated to.
    pub exhaustion_level: f64,
    /// Direction of exhaustion.
    pub direction: ResourceDirection,
    /// Alarm when the estimated time to exhaustion falls below this many
    /// seconds.
    pub alarm_horizon_secs: f64,
}

impl TrendPredictorConfig {
    /// A default for a depleting resource sampled every `dt` seconds:
    /// 240-sample window, refit every 8 samples, 2-hour alarm horizon,
    /// exhaustion at level 0.
    pub fn depleting(dt: f64) -> Self {
        TrendPredictorConfig {
            sample_period_secs: dt,
            window: 240,
            refit_every: 8,
            alpha: 0.05,
            exhaustion_level: 0.0,
            direction: ResourceDirection::Depleting,
            alarm_horizon_secs: 7200.0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.sample_period_secs > 0.0 && self.sample_period_secs.is_finite()) {
            return Err(Error::invalid(
                "sample_period_secs",
                "must be finite and positive",
            ));
        }
        if self.window < 16 {
            return Err(Error::invalid("window", "must be at least 16"));
        }
        if self.refit_every == 0 {
            return Err(Error::invalid("refit_every", "must be positive"));
        }
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Err(Error::invalid("alpha", "must lie in (0, 1)"));
        }
        if !self.exhaustion_level.is_finite() {
            return Err(Error::invalid("exhaustion_level", "must be finite"));
        }
        if !(self.alarm_horizon_secs > 0.0) {
            return Err(Error::invalid("alarm_horizon_secs", "must be positive"));
        }
        Ok(())
    }
}

/// Mann–Kendall + Sen-slope exhaustion predictor (the classical baseline),
/// in bounded memory.
///
/// Every `refit_every` samples, once the `window`-sample window has
/// filled, the Mann–Kendall test decides whether the window trends
/// toward exhaustion at significance `alpha`; if so, Sen's slope
/// extrapolates the window to `exhaustion_level`, and the alarm fires
/// (and latches) the first time that estimate falls within
/// `alarm_horizon_secs`. [`StreamingMannKendall`] slides the S statistic
/// and tie term in O(window) per sample, bit-identical to
/// [`aging_timeseries::trend::MannKendall::test`] and
/// [`aging_timeseries::trend::SenSlope::estimate`]
/// on the same window.
#[derive(Debug, Clone)]
pub struct SenSlopePredictor {
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

impl SenSlopePredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates [`TrendPredictorConfig::validate`] failures.
    pub fn new(config: TrendPredictorConfig) -> Result<Self> {
        config.validate()?;
        let mk = StreamingMannKendall::new(config.window)?;
        Ok(SenSlopePredictor {
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
    /// Returns [`Error::NonFinite`] for NaN/infinite input.
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
    /// [`SenSlopePredictor::push`] per element.
    ///
    /// Samples that cannot land on a refit boundary go to the window
    /// kernel in runs ([`StreamingMannKendall::push_slice`]); only
    /// boundary samples take the full statistic/Sen refit path — the same
    /// work the scalar loop does, minus a per-sample branch cascade.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] at the first NaN/infinite input,
    /// leaving exactly the preceding samples applied.
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

    /// Samples consumed since construction or the last reset.
    pub fn samples_seen(&self) -> u64 {
        self.count
    }

    /// Upper bound on retained samples.
    pub fn memory_bound_samples(&self) -> usize {
        self.config.window
    }

    /// Serializes all dynamic state via [`aging_timeseries::persist`].
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.mk.encode_state(out);
        persist::put_u64(out, self.count);
        persist::put_opt_f64(out, self.eta);
        persist::put_bool(out, self.alarmed);
    }

    /// Restores state written by [`SenSlopePredictor::encode_state`] into
    /// a predictor constructed with the same config. A failed restore
    /// leaves the predictor unchanged.
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

impl AgingPredictor for SenSlopePredictor {
    fn name(&self) -> &str {
        "mann-kendall-sen"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        SenSlopePredictor::push(self, value)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        self.eta
    }

    fn reset(&mut self) {
        self.mk.reset();
        self.count = 0;
        self.eta = None;
        self.alarmed = false;
    }
}

/// Ordinary least-squares exhaustion predictor over a trailing window,
/// refit and extrapolated on the same schedule as [`SenSlopePredictor`].
#[derive(Debug, Clone)]
pub struct OlsPredictor {
    config: TrendPredictorConfig,
    buffer: Vec<f64>,
    count: usize,
    eta: Option<f64>,
    alarmed: bool,
}

impl OlsPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates [`TrendPredictorConfig::validate`] failures.
    pub fn new(config: TrendPredictorConfig) -> Result<Self> {
        config.validate()?;
        Ok(OlsPredictor {
            config,
            buffer: Vec::new(),
            count: 0,
            eta: None,
            alarmed: false,
        })
    }
}

impl AgingPredictor for OlsPredictor {
    fn name(&self) -> &str {
        "ols-extrapolation"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        if !value.is_finite() {
            return Err(Error::NonFinite { index: self.count });
        }
        self.count += 1;
        self.buffer.push(value);
        let cfg = &self.config;
        if self.buffer.len() > cfg.window {
            let excess = self.buffer.len() - cfg.window;
            self.buffer.drain(..excess);
        }
        if self.buffer.len() < cfg.window || !self.count.is_multiple_of(cfg.refit_every) {
            return Ok(false);
        }
        let times: Vec<f64> = (0..cfg.window)
            .map(|i| i as f64 * cfg.sample_period_secs)
            .collect();
        let fit = match ols(&times, &self.buffer) {
            Ok(f) => f,
            Err(_) => return Ok(false),
        };
        let toward_exhaustion = match cfg.direction {
            ResourceDirection::Depleting => fit.slope < 0.0,
            ResourceDirection::Filling => fit.slope > 0.0,
        };
        if !toward_exhaustion {
            self.eta = None;
            return Ok(false);
        }
        // The fit crosses the level this long after the window start;
        // the ETA counts from now, the window end.
        let window_span = (cfg.window - 1) as f64 * cfg.sample_period_secs;
        self.eta = fit
            .solve_for(cfg.exhaustion_level)
            .filter(|&t| t >= 0.0)
            .map(|t| (t - window_span).max(0.0))
            .filter(|t| t.is_finite());
        let fire = matches!(self.eta, Some(eta) if eta <= cfg.alarm_horizon_secs);
        if fire && !self.alarmed {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        self.eta
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.count = 0;
        self.eta = None;
        self.alarmed = false;
    }
}

/// Naive level-crossing predictor: alarms the first time the series
/// crosses the configured level in the exhaustion direction.
#[derive(Debug, Clone)]
pub struct ThresholdPredictor {
    level: f64,
    direction: ResourceDirection,
    count: usize,
    alarmed: bool,
}

impl ThresholdPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-finite level.
    pub fn new(level: f64, direction: ResourceDirection) -> Result<Self> {
        if !level.is_finite() {
            return Err(Error::invalid("level", "must be finite"));
        }
        Ok(ThresholdPredictor {
            level,
            direction,
            count: 0,
            alarmed: false,
        })
    }
}

impl AgingPredictor for ThresholdPredictor {
    fn name(&self) -> &str {
        "threshold"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        if !value.is_finite() {
            return Err(Error::NonFinite { index: self.count });
        }
        self.count += 1;
        if self.alarmed {
            return Ok(false);
        }
        let crossed = match self.direction {
            ResourceDirection::Depleting => value <= self.level,
            ResourceDirection::Filling => value >= self.level,
        };
        if crossed {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.count = 0;
        self.alarmed = false;
    }
}

/// CUSUM change-point predictor: alarms on the first mean shift in the
/// exhaustion direction (a classical statistical-process-control baseline,
/// sensitive to level shifts rather than trends).
#[derive(Debug, Clone)]
pub struct CusumPredictor {
    inner: aging_timeseries::changepoint::Cusum,
    direction: ResourceDirection,
    alarmed: bool,
}

impl CusumPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates CUSUM configuration failures.
    pub fn new(
        config: aging_timeseries::changepoint::CusumConfig,
        direction: ResourceDirection,
    ) -> Result<Self> {
        Ok(CusumPredictor {
            inner: aging_timeseries::changepoint::Cusum::new(config)?,
            direction,
            alarmed: false,
        })
    }
}

impl AgingPredictor for CusumPredictor {
    fn name(&self) -> &str {
        "cusum"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        // A constant reference window (e.g. swap pinned at zero) is not an
        // input error at this level — it just means no shift baseline yet.
        let cp = match self.inner.push(value) {
            Ok(cp) => cp,
            Err(Error::Numerical(_)) => None,
            Err(e) => return Err(e),
        };
        if self.alarmed {
            return Ok(false);
        }
        use aging_timeseries::changepoint::ShiftDirection;
        let fire = matches!(
            (cp, self.direction),
            (
                Some(aging_timeseries::changepoint::ChangePoint {
                    direction: ShiftDirection::Down,
                    ..
                }),
                ResourceDirection::Depleting
            ) | (
                Some(aging_timeseries::changepoint::ChangePoint {
                    direction: ShiftDirection::Up,
                    ..
                }),
                ResourceDirection::Filling
            )
        );
        if fire {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.alarmed = false;
    }
}

impl AgingPredictor for HolderDimensionDetector {
    fn name(&self) -> &str {
        "holder-dimension"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        let alert = HolderDimensionDetector::push(self, value)?;
        Ok(matches!(
            alert,
            Some(a) if a.level == crate::detector::AlertLevel::Alarm
        ))
    }

    fn is_alarmed(&self) -> bool {
        HolderDimensionDetector::is_alarmed(self)
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        HolderDimensionDetector::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;

    fn depleting_config() -> TrendPredictorConfig {
        TrendPredictorConfig {
            sample_period_secs: 30.0,
            window: 60,
            refit_every: 4,
            alpha: 0.05,
            exhaustion_level: 0.0,
            direction: ResourceDirection::Depleting,
            alarm_horizon_secs: 3600.0,
        }
    }

    /// Free-memory-like ramp: from `start` falling `rate` per sample with
    /// deterministic wiggle.
    fn falling_ramp(n: usize, start: f64, rate: f64) -> Vec<f64> {
        (0..n)
            .map(|i| start - rate * i as f64 + 50.0 * ((i as f64 * 0.7).sin()))
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(depleting_config().validate().is_ok());
        let bad = |f: fn(&mut TrendPredictorConfig)| {
            let mut c = depleting_config();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.sample_period_secs = 0.0));
        assert!(bad(|c| c.window = 4));
        assert!(bad(|c| c.refit_every = 0));
        assert!(bad(|c| c.alpha = 1.5));
        assert!(bad(|c| c.exhaustion_level = f64::NAN));
        assert!(bad(|c| c.alarm_horizon_secs = 0.0));
    }

    #[test]
    fn sen_predictor_alarms_on_clean_depletion() {
        // 10 000 units, −10/sample at 30 s ⇒ exhaustion after 1000 samples
        // = 30 000 s. Horizon 3600 s: alarm ≈ sample 880.
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut fired_at = None;
        for (i, &v) in series.iter().enumerate() {
            if p.push(v).unwrap() {
                fired_at = Some(i);
                break;
            }
        }
        let fired = fired_at.expect("must alarm");
        assert!((850..=930).contains(&fired), "fired at {fired}");
        assert!(p.is_alarmed());
        let eta = p.eta_secs().expect("eta available");
        assert!(eta <= 3600.0);
    }

    #[test]
    fn sen_restore_rejects_a_count_the_window_cannot_hold() {
        let cfg = TrendPredictorConfig {
            window: 16,
            refit_every: 4,
            ..TrendPredictorConfig::depleting(30.0)
        };
        let blob_with_count = |pushes: u64, count: u64| {
            let mut det = SenSlopePredictor::new(cfg.clone()).unwrap();
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
        let mut det = SenSlopePredictor::new(cfg.clone()).unwrap();
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
                "a failed restore must leave the predictor unchanged"
            );
        }
        // Counts a stream could have left behind these windows restore.
        for (pushes, count) in [(40, 16), (40, 41), (9, 9)] {
            let blob = blob_with_count(pushes, count);
            det.restore_state(&mut Reader::new(&blob)).unwrap();
        }
    }

    #[test]
    fn ols_predictor_alarms_on_clean_depletion() {
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = OlsPredictor::new(depleting_config()).unwrap();
        let mut fired_at = None;
        for (i, &v) in series.iter().enumerate() {
            if p.push(v).unwrap() {
                fired_at = Some(i);
                break;
            }
        }
        let fired = fired_at.expect("must alarm");
        assert!((850..=930).contains(&fired), "fired at {fired}");
    }

    #[test]
    fn trend_predictors_silent_on_stationary_series() {
        let series: Vec<f64> = (0..2000)
            .map(|i| 5000.0 + 100.0 * ((i as f64) * 0.37).sin())
            .collect();
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut lsq = OlsPredictor::new(depleting_config()).unwrap();
        for &v in &series {
            assert!(!sen.push(v).unwrap());
            assert!(!lsq.push(v).unwrap());
        }
        assert!(!sen.is_alarmed());
        assert!(!lsq.is_alarmed());
    }

    #[test]
    fn sen_is_robust_to_spikes_where_ols_is_not() {
        // A strong downward trend with huge upward spikes: Sen's slope
        // still sees depletion; OLS slope is dragged around. We only
        // assert Sen still alarms.
        let mut series = falling_ramp(1000, 10_000.0, 10.0);
        for i in (0..series.len()).step_by(37) {
            series[i] += 20_000.0;
        }
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut fired = false;
        for &v in &series {
            if sen.push(v).unwrap() {
                fired = true;
            }
        }
        assert!(fired, "Sen must alarm despite spikes");
    }

    #[test]
    fn filling_direction_works() {
        let config = TrendPredictorConfig {
            direction: ResourceDirection::Filling,
            exhaustion_level: 10_000.0,
            ..depleting_config()
        };
        let series: Vec<f64> = (0..1000)
            .map(|i| 10.0 * i as f64 + 30.0 * ((i as f64).cos()))
            .collect();
        let mut p = SenSlopePredictor::new(config).unwrap();
        let mut fired = false;
        for &v in &series {
            if p.push(v).unwrap() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn threshold_predictor_crossings() {
        let mut p = ThresholdPredictor::new(100.0, ResourceDirection::Depleting).unwrap();
        assert!(!p.push(500.0).unwrap());
        assert!(p.push(99.0).unwrap());
        assert!(p.is_alarmed());
        // Latched: no second firing.
        assert!(!p.push(5.0).unwrap());
        p.reset();
        assert!(!p.is_alarmed());

        let mut f = ThresholdPredictor::new(100.0, ResourceDirection::Filling).unwrap();
        assert!(!f.push(50.0).unwrap());
        assert!(f.push(150.0).unwrap());
        assert!(ThresholdPredictor::new(f64::NAN, ResourceDirection::Filling).is_err());
    }

    #[test]
    fn predictors_reject_nan() {
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        assert!(sen.push(f64::NAN).is_err());
        let mut thr = ThresholdPredictor::new(0.0, ResourceDirection::Depleting).unwrap();
        assert!(thr.push(f64::INFINITY).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = SenSlopePredictor::new(depleting_config()).unwrap();
        for &v in &series {
            let _ = p.push(v).unwrap();
        }
        assert!(p.is_alarmed());
        p.reset();
        assert!(!p.is_alarmed());
        assert_eq!(p.eta_secs(), None);
        // Works again after reset.
        for &v in &series[..100] {
            let _ = p.push(v).unwrap();
        }
    }

    #[test]
    fn cusum_predictor_fires_on_level_shift() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Depleting,
        )
        .unwrap();
        let mut fired = false;
        for i in 0..400 {
            let level = if i < 250 { 100.0 } else { 80.0 };
            let v = level + ((i * 37 + 11) % 13) as f64 / 13.0;
            fired |= p.push(v).unwrap();
        }
        assert!(fired);
        assert!(p.is_alarmed());
        p.reset();
        assert!(!p.is_alarmed());
    }

    #[test]
    fn cusum_predictor_ignores_wrong_direction_shift() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Depleting,
        )
        .unwrap();
        for i in 0..400 {
            let level = if i < 250 { 100.0 } else { 130.0 }; // upward
            let v = level + ((i * 37 + 11) % 13) as f64 / 13.0;
            assert!(!p.push(v).unwrap());
        }
        assert!(!p.is_alarmed());
    }

    #[test]
    fn cusum_predictor_tolerates_constant_reference() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Filling,
        )
        .unwrap();
        // Swap pinned at zero: constant reference must not be an error.
        for _ in 0..300 {
            assert!(!p.push(0.0).unwrap());
        }
    }

    #[test]
    fn detector_adapts_to_predictor_trait() {
        let mut det = HolderDimensionDetector::new(DetectorConfig::default()).unwrap();
        let p: &mut dyn AgingPredictor = &mut det;
        assert_eq!(p.name(), "holder-dimension");
        assert!(!p.push(1.0).unwrap());
        assert_eq!(p.eta_secs(), None);
        p.reset();
    }
}
