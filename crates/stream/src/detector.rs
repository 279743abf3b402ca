//! Bounded-memory online detectors, one per family, behind one wrapper.
//!
//! [`StreamingDetector`] runs one of three families on a counter stream:
//!
//! - the paper's Hölder-dimension crash predictor,
//!   [`aging_core::detector::HolderDimensionDetector`], which is itself
//!   bounded-memory (ring-buffered Hölder and dimension windows);
//! - the classical Mann–Kendall + Sen baseline,
//!   [`aging_core::baseline::SenSlopePredictor`], whose S statistic and
//!   tie term slide in O(window) per sample;
//! - the multifractal spectrum-width (Δα) detector,
//!   [`StreamingSpectrumWidth`], defined here over the
//!   [`StreamingSpectrum`] kernel.
//!
//! The Hölder and Δα families share one alarm rule,
//! [`aging_core::discipline::AlarmDiscipline`] (warmup skip → frozen
//! median/MAD band → confirm-N → latched Alarm). Every family's alarm
//! latch flips exactly when it emits its Alarm and only
//! [`StreamingDetector::reset`] clears it, which is what lets the
//! columnar ingest path replay fusion votes from the emitted alerts.

use aging_core::baseline::{AgingPredictor, SenSlopePredictor, TrendPredictorConfig};
use aging_core::detector::{Alert, AlertLevel, DetectorConfig, HolderDimensionDetector};
use aging_core::discipline::{AlarmDiscipline, Band, BandRule};
use aging_fractal::spectrum::{SpectrumConfig, StreamingSpectrum};
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::{Error, Result};

/// Which online detector to run on a stream.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DetectorSpec {
    /// The paper's Hölder-dimension detector.
    Holder(DetectorConfig),
    /// Mann–Kendall + Sen-slope exhaustion baseline.
    Trend(TrendPredictorConfig),
    /// Multifractal spectrum-width (Δα) detector — the paper's fourth
    /// claim, the spectrum widening with age, as an online signal.
    Spectrum(SpectrumDetectorConfig),
}

impl DetectorSpec {
    /// Every family's stable name, indexed by its family code — the one
    /// table telemetry, the wire's event codec and persisted alarm
    /// histories read. The order is part of the wire format.
    const FAMILIES: [&'static str; 3] = ["holder-dimension", "mann-kendall-sen", "spectrum-width"];

    /// The family's code on the wire: Hölder 0, trend 1, spectrum 2.
    pub fn family_code(&self) -> u8 {
        match self {
            DetectorSpec::Holder(_) => 0,
            DetectorSpec::Trend(_) => 1,
            DetectorSpec::Spectrum(_) => 2,
        }
    }

    /// Short stable name for telemetry.
    pub fn name(&self) -> &'static str {
        DetectorSpec::FAMILIES[usize::from(self.family_code())]
    }

    /// The family name with code `code`, `None` for an unknown code.
    pub fn family_name(code: u8) -> Option<&'static str> {
        DetectorSpec::FAMILIES.get(usize::from(code)).copied()
    }

    /// The code of the family named `name`, `None` for an unknown name.
    pub fn family_code_of(name: &str) -> Option<u8> {
        let index = DetectorSpec::FAMILIES.iter().position(|&f| f == name)?;
        Some(index as u8)
    }
}

/// Detector-specific payload of a streaming alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertDetail {
    /// Hölder-dimension alert (the detector's full measurement).
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

impl AlertDetail {
    /// Tag of an [`AlertDetail::Holder`] payload.
    pub const HOLDER_TAG: u8 = 0;
    /// Tag of an [`AlertDetail::Trend`] payload.
    pub const TREND_TAG: u8 = 1;
    /// Tag of an [`AlertDetail::Spectrum`] payload.
    pub const SPECTRUM_TAG: u8 = 2;

    /// The payload's tag, which leads it in both alarm codecs (see
    /// [`AlarmKind::tag`](crate::pipeline::AlarmKind::tag)).
    pub fn tag(&self) -> u8 {
        match self {
            AlertDetail::Holder(_) => AlertDetail::HOLDER_TAG,
            AlertDetail::Trend { .. } => AlertDetail::TREND_TAG,
            AlertDetail::Spectrum { .. } => AlertDetail::SPECTRUM_TAG,
        }
    }
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
/// Runs a [`StreamingSpectrum`] kernel over the counter stream and hands
/// each emitted Δα to the shared [`AlarmDiscipline`]: warmup skip, a
/// median/MAD band frozen after `baseline_windows` emissions (half-width
/// clamped to `[width_delta, 3·width_delta]`), widening anomalies
/// confirmed over `confirm_windows` consecutive emissions, Warning on the
/// first anomaly, a latched Alarm on confirmation.
#[derive(Debug, Clone)]
pub struct StreamingSpectrumWidth {
    config: SpectrumDetectorConfig,
    kernel: StreamingSpectrum,
    discipline: AlarmDiscipline<1>,
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
        let discipline = AlarmDiscipline::new(
            config.skip_windows,
            config.baseline_windows,
            config.confirm_windows,
            config.mad_multiplier,
            [BandRule {
                min_delta: config.width_delta,
                max_factor: 3.0,
            }],
        )?;
        Ok(StreamingSpectrumWidth {
            config,
            kernel,
            discipline,
            last_alert: None,
            last_width: None,
        })
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
        let Some([band]) = self.discipline.admit([win.delta_alpha])? else {
            return Ok(None);
        };
        // Anomaly rule: the spectrum widened beyond the baseline band.
        let widened = !(win.delta_alpha <= band.median + band.delta);
        let Some(level) = self.discipline.judge(widened) else {
            return Ok(None);
        };
        let alert = SpectrumAlert {
            sample_index: win.input_index,
            level,
            delta_alpha: win.delta_alpha,
            baseline_width: band.median,
        };
        self.last_alert = Some(alert);
        Ok(Some(alert))
    }

    /// Whether the confirmed alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.discipline.is_alarmed()
    }

    /// The frozen Δα band (median width and widening threshold), once
    /// formed.
    pub fn baseline(&self) -> Option<Band> {
        self.discipline.bands().map(|[band]| band)
    }

    /// Δα of the most recently emitted window, if any.
    pub fn last_width(&self) -> Option<f64> {
        self.last_width
    }

    /// Upper bound on retained samples.
    pub fn memory_bound_samples(&self) -> usize {
        self.kernel.window() + self.config.baseline_windows
    }

    /// Clears all state (after reboot/rejuvenation or a feed gap); the
    /// configuration and lifetime emission counters are retained.
    pub fn reset(&mut self) {
        self.kernel.reset();
        self.discipline.reset();
        self.last_alert = None;
        self.last_width = None;
    }

    /// Serializes all dynamic state via [`aging_timeseries::persist`]; the
    /// config is re-supplied at construction.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.kernel.encode_state(out);
        self.discipline.encode_state(out);
        persist::put_bool(out, self.last_alert.is_some());
        if let Some(a) = self.last_alert {
            persist::put_u64(out, a.sample_index);
            persist::put_u8(out, a.level.code());
            persist::put_f64(out, a.delta_alpha);
            persist::put_f64(out, a.baseline_width);
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
        self.discipline.restore_state(r)?;
        self.last_alert = if r.bool()? {
            Some(SpectrumAlert {
                sample_index: r.u64()?,
                level: AlertLevel::from_code(r.u8()?)?,
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
    Holder(Box<HolderDimensionDetector>),
    Trend(Box<SenSlopePredictor>),
    Spectrum(Box<StreamingSpectrumWidth>),
}

fn trend_alert(sample_index: u64, eta_secs: Option<f64>) -> StreamAlert {
    StreamAlert {
        sample_index,
        level: AlertLevel::Alarm,
        detail: AlertDetail::Trend { eta_secs },
    }
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
                Inner::Holder(Box::new(HolderDimensionDetector::new(cfg.clone())?))
            }
            DetectorSpec::Trend(cfg) => {
                Inner::Trend(Box::new(SenSlopePredictor::new(cfg.clone())?))
            }
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
                let index = det.samples_seen();
                let fired = det.push(value)?;
                Ok(fired.then(|| trend_alert(index, det.eta_secs())))
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
    /// element, for every family; the trend family refits through the
    /// chunked [`SenSlopePredictor::push_slice`].
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
        self.push_run(values, out).map_err(|(_, e)| e)
    }

    /// [`StreamingDetector::push_slice`], reporting with a failure the
    /// offset of the sample whose push failed.
    pub(crate) fn push_run(
        &mut self,
        values: &[f64],
        out: &mut Vec<(usize, StreamAlert)>,
    ) -> std::result::Result<(), (usize, Error)> {
        out.clear();
        let mut start = 0;
        if let Inner::Trend(det) = &mut self.inner {
            // A trend push rejects only non-finite samples: refit in chunks
            // up to the first one, and let the scalar loop below fail on it.
            start = values
                .iter()
                .position(|v| !v.is_finite())
                .unwrap_or(values.len());
            let first = det.samples_seen();
            let fired = det
                .push_slice(&values[..start])
                .map_err(|e| ((det.samples_seen() - first) as usize, e))?;
            if let Some((k, eta_secs)) = fired {
                out.push((k, trend_alert(first + k as u64, eta_secs)));
            }
        }
        for (k, &value) in values.iter().enumerate().skip(start) {
            match self.push(value) {
                Ok(Some(alert)) => out.push((k, alert)),
                Ok(None) => {}
                Err(e) => return Err((k, e)),
            }
        }
        Ok(())
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
    use crate::pipeline::AlarmKind;
    use aging_core::detector::Trigger;

    #[test]
    fn family_codes_and_names_round_trip() {
        let specs = [
            DetectorSpec::Holder(DetectorConfig::default()),
            DetectorSpec::Trend(TrendPredictorConfig::depleting(5.0)),
            DetectorSpec::Spectrum(SpectrumDetectorConfig::default()),
        ];
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(usize::from(spec.family_code()), i);
            assert_eq!(
                DetectorSpec::family_name(spec.family_code()),
                Some(spec.name())
            );
            assert_eq!(
                DetectorSpec::family_code_of(spec.name()),
                Some(spec.family_code())
            );
        }
        assert_eq!(DetectorSpec::family_name(3), None);
        assert_eq!(DetectorSpec::family_code_of("trend"), None);

        // Alarm-event tags: a detail's tag is its family's code, and each
        // kind's tag is its position.
        let alert = Alert {
            sample_index: 7,
            level: AlertLevel::Alarm,
            trigger: Trigger::Both,
            dimension: 1.5,
            mean_holder: 0.2,
            dimension_baseline: 1.2,
            holder_baseline: 0.4,
        };
        let details = [
            AlertDetail::Holder(alert),
            AlertDetail::Trend { eta_secs: None },
            AlertDetail::Spectrum {
                delta_alpha: 0.9,
                baseline_width: 0.5,
            },
        ];
        for (detail, spec) in details.iter().zip(&specs) {
            assert_eq!(detail.tag(), spec.family_code());
        }
        let kinds = [
            AlarmKind::Detector {
                counter: aging_memsim::Counter::AvailableBytes,
                detector: specs[0].name(),
                detail: details[0],
            },
            AlarmKind::MachineAlarm {
                votes: 1,
                members: 2,
            },
            AlarmKind::Restart {
                reason: aging_rejuv::RestartReason::Alarm,
                downtime_secs: 60.0,
            },
        ];
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(usize::from(kind.tag()), i);
        }
    }

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
