//! The alarm discipline shared by the windowed anomaly detectors.
//!
//! A detector emits one measurement per metric every window (the
//! Hölder-dimension detector: dimension and mean Hölder exponent; the
//! spectrum-width detector: Δα). [`AlarmDiscipline`] turns those
//! emissions into alerts with one rule:
//!
//! 1. the first `skip_windows` emissions are discarded (boot warmup);
//! 2. the next `baseline_windows` form a per-metric [`Band`]: the median,
//!    and a half-width of `mad_multiplier · MAD` clamped to the metric's
//!    [`BandRule`] `[min_delta, max_factor · min_delta]`; the band then
//!    freezes;
//! 3. every later emission is judged against the frozen bands by the
//!    detector's own rule; `confirm_windows` consecutive anomalies raise
//!    the Alarm, the first of a run a Warning;
//! 4. the Alarm latches until [`AlarmDiscipline::reset`].

use aging_timeseries::persist::{self, Reader};
use aging_timeseries::{stats, Error, Result};

use crate::detector::AlertLevel;

/// How one metric's band half-width is bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandRule {
    /// Smallest half-width, whatever the baseline's spread.
    pub min_delta: f64,
    /// The half-width is capped at `max_factor · min_delta`, so a
    /// turbulent warmup cannot disable the rule outright.
    pub max_factor: f64,
}

/// A metric's frozen baseline band.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Band {
    /// Median of the baseline emissions.
    pub median: f64,
    /// Half-width actually applied (MAD-scaled, clamped by the
    /// [`BandRule`]).
    pub delta: f64,
}

/// Warmup skip → frozen median/MAD bands → confirm-N → latched Alarm,
/// over `M` metrics per emission.
///
/// # Examples
///
/// ```
/// use aging_core::detector::AlertLevel;
/// use aging_core::discipline::{AlarmDiscipline, BandRule};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let rule = BandRule { min_delta: 0.5, max_factor: 3.0 };
/// let mut d = AlarmDiscipline::new(1, 4, 2, 4.0, [rule])?;
/// let mut levels = Vec::new();
/// for x in [9.0, 1.0, 1.1, 0.9, 1.0, 3.0, 3.0, 3.0] {
///     if let Some([band]) = d.admit([x])? {
///         levels.push(d.judge(x > band.median + band.delta));
///     }
/// }
/// assert_eq!(levels, [Some(AlertLevel::Warning), Some(AlertLevel::Alarm), None]);
/// assert!(d.is_alarmed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AlarmDiscipline<const M: usize> {
    skip_windows: usize,
    baseline_windows: usize,
    confirm_windows: usize,
    mad_multiplier: f64,
    rules: [BandRule; M],
    windows_seen: usize,
    formation: [Vec<f64>; M],
    bands: Option<[Band; M]>,
    consecutive_anomalies: usize,
    alarmed: bool,
    warnings_emitted: u64,
    alarms_emitted: u64,
}

impl<const M: usize> AlarmDiscipline<M> {
    /// Creates the discipline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for fewer than two baseline
    /// windows, zero confirmation windows, a negative or non-finite MAD
    /// multiplier, or a band rule whose `min_delta` is not positive or
    /// whose `max_factor` is below 1 (the detector configs' own
    /// validation rules these out first).
    pub fn new(
        skip_windows: usize,
        baseline_windows: usize,
        confirm_windows: usize,
        mad_multiplier: f64,
        rules: [BandRule; M],
    ) -> Result<Self> {
        if baseline_windows < 2
            || confirm_windows == 0
            || !(mad_multiplier >= 0.0 && mad_multiplier.is_finite())
            || rules
                .iter()
                .any(|r| !(r.min_delta > 0.0 && r.max_factor >= 1.0))
        {
            return Err(Error::invalid(
                "discipline",
                "needs baseline_windows >= 2, confirm_windows >= 1, a finite \
                 mad_multiplier >= 0 and band rules with min_delta > 0, max_factor >= 1",
            ));
        }
        Ok(AlarmDiscipline {
            skip_windows,
            baseline_windows,
            confirm_windows,
            mad_multiplier,
            rules,
            windows_seen: 0,
            formation: std::array::from_fn(|_| Vec::new()),
            bands: None,
            consecutive_anomalies: 0,
            alarmed: false,
            warnings_emitted: 0,
            alarms_emitted: 0,
        })
    }

    /// Admits one emission. Returns the frozen bands when the emission is
    /// to be judged — pass the verdict to [`AlarmDiscipline::judge`] —
    /// and `None` while it is skipped as warmup or absorbed into the
    /// baseline.
    ///
    /// # Errors
    ///
    /// Propagates median/MAD failures when the baseline freezes (only on
    /// NaN measurements).
    pub fn admit(&mut self, values: [f64; M]) -> Result<Option<[Band; M]>> {
        self.windows_seen += 1;
        if self.windows_seen <= self.skip_windows {
            return Ok(None);
        }
        if self.bands.is_some() {
            return Ok(self.bands);
        }
        for (buf, v) in self.formation.iter_mut().zip(values) {
            buf.push(v);
        }
        if self.windows_seen - self.skip_windows >= self.baseline_windows {
            let mut bands = [Band::default(); M];
            for ((band, buf), rule) in bands.iter_mut().zip(&self.formation).zip(&self.rules) {
                band.median = stats::median(buf)?;
                band.delta = (self.mad_multiplier * stats::mad(buf)?)
                    .clamp(rule.min_delta, rule.max_factor * rule.min_delta);
            }
            self.bands = Some(bands);
            // The formation buffers are dead state once the bands freeze;
            // drop them so long-lived detectors stay lean.
            self.formation = std::array::from_fn(|_| Vec::new());
        }
        Ok(None)
    }

    /// Records the verdict on the emission [`AlarmDiscipline::admit`]
    /// just returned bands for, and returns the alert level to emit: a
    /// Warning on the first anomaly of a run, the Alarm when the run
    /// reaches `confirm_windows`, nothing otherwise (and nothing at all
    /// once the Alarm has latched).
    pub fn judge(&mut self, anomalous: bool) -> Option<AlertLevel> {
        if !anomalous {
            self.consecutive_anomalies = 0;
            return None;
        }
        self.consecutive_anomalies += 1;
        if self.alarmed {
            return None;
        }
        if self.consecutive_anomalies >= self.confirm_windows {
            self.alarmed = true;
            self.alarms_emitted += 1;
            Some(AlertLevel::Alarm)
        } else if self.consecutive_anomalies == 1 {
            self.warnings_emitted += 1;
            Some(AlertLevel::Warning)
        } else {
            None
        }
    }

    /// Whether the Alarm has fired (and latched).
    pub fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    /// The frozen bands, once the baseline has formed.
    pub fn bands(&self) -> Option<[Band; M]> {
        self.bands
    }

    /// Clears the warmup, baseline, confirmation run and latch (after a
    /// reboot or feed gap); the lifetime emission counters are retained.
    pub fn reset(&mut self) {
        self.windows_seen = 0;
        for buf in &mut self.formation {
            buf.clear();
        }
        self.bands = None;
        self.consecutive_anomalies = 0;
        self.alarmed = false;
    }

    /// Serializes the dynamic state via [`aging_timeseries::persist`]; the
    /// parameters are re-supplied at construction.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.windows_seen);
        for buf in &self.formation {
            persist::put_usize(out, buf.len());
            for &x in buf {
                persist::put_f64(out, x);
            }
        }
        persist::put_bool(out, self.bands.is_some());
        for band in self.bands.iter().flatten() {
            persist::put_f64(out, band.median);
            persist::put_f64(out, band.delta);
        }
        persist::put_usize(out, self.consecutive_anomalies);
        persist::put_bool(out, self.alarmed);
        persist::put_u64(out, self.warnings_emitted);
        persist::put_u64(out, self.alarms_emitted);
    }

    /// Restores state written by [`AlarmDiscipline::encode_state`] into a
    /// discipline constructed with the same parameters. A failed restore
    /// leaves the discipline unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or a formation
    /// buffer longer than `baseline_windows`.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let windows_seen = r.usize_()?;
        let mut formation: [Vec<f64>; M] = std::array::from_fn(|_| Vec::new());
        for buf in &mut formation {
            let n = r.usize_()?;
            if n > self.baseline_windows {
                return Err(Error::invalid(
                    "persist",
                    format!("vector length {n} exceeds bound {}", self.baseline_windows),
                ));
            }
            buf.reserve_exact(n);
            for _ in 0..n {
                buf.push(r.f64()?);
            }
        }
        let bands = if r.bool()? {
            let mut bands = [Band::default(); M];
            for band in &mut bands {
                band.median = r.f64()?;
                band.delta = r.f64()?;
            }
            Some(bands)
        } else {
            None
        };
        let consecutive_anomalies = r.usize_()?;
        let alarmed = r.bool()?;
        let warnings_emitted = r.u64()?;
        let alarms_emitted = r.u64()?;
        self.windows_seen = windows_seen;
        self.formation = formation;
        self.bands = bands;
        self.consecutive_anomalies = consecutive_anomalies;
        self.alarmed = alarmed;
        self.warnings_emitted = warnings_emitted;
        self.alarms_emitted = alarms_emitted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: BandRule = BandRule {
        min_delta: 0.5,
        max_factor: 3.0,
    };

    fn encoded(d: &AlarmDiscipline<1>) -> Vec<u8> {
        let mut blob = Vec::new();
        d.encode_state(&mut blob);
        blob
    }

    #[test]
    fn rejects_parameters_that_would_break_the_rule() {
        assert!(AlarmDiscipline::new(0, 1, 1, 1.0, [RULE]).is_err());
        assert!(AlarmDiscipline::new(0, 2, 0, 1.0, [RULE]).is_err());
        assert!(AlarmDiscipline::new(0, 2, 1, f64::NAN, [RULE]).is_err());
        let rule = |min_delta, max_factor| BandRule {
            min_delta,
            max_factor,
        };
        for bad in [rule(0.0, 3.0), rule(f64::NAN, 3.0), rule(0.5, 0.9)] {
            assert!(AlarmDiscipline::new(0, 2, 1, 1.0, [bad]).is_err());
        }
        assert!(AlarmDiscipline::new(0, 2, 1, 0.0, [RULE]).is_ok());
    }

    #[test]
    fn bands_clamp_and_reset_keeps_lifetime_counters() {
        let mut d = AlarmDiscipline::new(0, 3, 1, 4.0, [RULE, RULE]).unwrap();
        // A wide spread clamps to 3·min_delta, a tight one to min_delta.
        for v in [[0.0, 1.0], [10.0, 1.0], [20.0, 1.0]] {
            assert_eq!(d.admit(v).unwrap(), None);
        }
        let [wide, tight] = d.bands().unwrap();
        assert_eq!((wide.median, wide.delta), (10.0, 1.5));
        assert_eq!((tight.median, tight.delta), (1.0, 0.5));
        assert_eq!(d.admit([99.0, 1.0]).unwrap(), Some([wide, tight]));
        assert_eq!(d.judge(true), Some(AlertLevel::Alarm));
        d.reset();
        assert!(!d.is_alarmed());
        assert_eq!(d.bands(), None);
        let mut blob = Vec::new();
        d.encode_state(&mut blob);
        // windows, two empty buffers, no bands, run, latch, then the
        // retained counters: no warning, one alarm.
        assert_eq!(
            &blob[blob.len() - 16..],
            &[0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn failed_restore_leaves_state_unchanged() {
        let mut d = AlarmDiscipline::new(1, 2, 2, 1.0, [RULE]).unwrap();
        d.admit([5.0]).unwrap();
        d.admit([6.0]).unwrap();
        let before = encoded(&d);
        // A formation buffer longer than `baseline_windows`, then a
        // truncated blob.
        let mut long = AlarmDiscipline::new(1, 4, 2, 1.0, [RULE]).unwrap();
        for v in [1.0, 2.0, 3.0, 4.0] {
            long.admit([v]).unwrap();
        }
        for blob in [encoded(&long), before[..before.len() - 1].to_vec()] {
            assert!(d.restore_state(&mut Reader::new(&blob)).is_err());
            assert_eq!(encoded(&d), before);
        }
        let mut restored = AlarmDiscipline::new(1, 2, 2, 1.0, [RULE]).unwrap();
        restored.restore_state(&mut Reader::new(&before)).unwrap();
        assert_eq!(encoded(&restored), before);
    }
}
