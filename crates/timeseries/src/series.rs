//! The [`TimeSeries`] container: a uniformly sampled sequence of `f64`
//! observations with an origin timestamp and a fixed sampling period.
//!
//! All analyses in the workspace operate either on raw `&[f64]` slices or on
//! this container; the container exists so that timestamps survive slicing,
//! resampling and windowing without manual bookkeeping.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// A uniformly sampled time series.
///
/// Samples are `f64` values observed at instants `t0 + i * dt` for
/// `i = 0..len`. The sampling period `dt` is strictly positive and the
/// origin `t0` is expressed in the same (arbitrary) unit, typically seconds.
///
/// # Examples
///
/// ```
/// use aging_timeseries::TimeSeries;
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let ts = TimeSeries::from_values(0.0, 30.0, vec![1.0, 2.0, 3.0])?;
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.time_at(2), 60.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    t0: f64,
    dt: f64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with origin `t0` and sampling period `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dt` is not a finite positive
    /// number or `t0` is not finite.
    pub fn new(t0: f64, dt: f64) -> Result<Self> {
        Self::from_values(t0, dt, Vec::new())
    }

    /// Creates a series from existing samples.
    ///
    /// Non-finite samples are allowed at construction (they may denote
    /// missing data and can be repaired with [`crate::interp`]); analyses
    /// that require finite data validate separately.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dt` is not a finite positive
    /// number or `t0` is not finite.
    pub fn from_values(t0: f64, dt: f64, values: Vec<f64>) -> Result<Self> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(Error::invalid("dt", "must be finite and positive"));
        }
        if !t0.is_finite() {
            return Err(Error::invalid("t0", "must be finite"));
        }
        Ok(TimeSeries { t0, dt, values })
    }

    /// Builds a series by evaluating `f` at each sample instant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeSeries::from_values`].
    pub fn from_fn(t0: f64, dt: f64, len: usize, mut f: impl FnMut(f64) -> f64) -> Result<Self> {
        let mut values = Vec::with_capacity(len);
        for i in 0..len {
            values.push(f(t0 + i as f64 * dt));
        }
        Self::from_values(t0, dt, values)
    }

    /// Origin timestamp of the first sample.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sampling period.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of sample `i` (which need not be in range).
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// Index of the sample closest to time `t`, clamped to the valid range.
    ///
    /// Returns `None` when the series is empty.
    pub fn index_of_time(&self, t: f64) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let raw = ((t - self.t0) / self.dt).round();
        let clamped = raw.clamp(0.0, (self.len() - 1) as f64);
        Some(clamped as usize)
    }

    /// Immutable view of the samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the samples.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Appends one sample (streaming ingestion).
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Appends many samples.
    pub fn extend_from_slice(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
    }

    /// Iterates over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.time_at(i), v))
    }

    /// Returns the sub-series covering sample indices `start..end`
    /// (end exclusive), with timestamps preserved.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the range is out of bounds or
    /// reversed.
    pub fn slice(&self, start: usize, end: usize) -> Result<TimeSeries> {
        if start > end || end > self.len() {
            return Err(Error::invalid(
                "range",
                format!("{start}..{end} out of bounds for length {}", self.len()),
            ));
        }
        Ok(TimeSeries {
            t0: self.time_at(start),
            dt: self.dt,
            values: self.values[start..end].to_vec(),
        })
    }

    /// Applies `f` to every sample, producing a new series on the same grid.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> TimeSeries {
        TimeSeries {
            t0: self.t0,
            dt: self.dt,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// First differences `x[i+1] - x[i]`, on the same grid shifted by one
    /// sample (length shrinks by one).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] when fewer than two samples are present.
    pub fn increments(&self) -> Result<TimeSeries> {
        Error::require_len(&self.values, 2)?;
        let values = self.values.windows(2).map(|w| w[1] - w[0]).collect();
        Ok(TimeSeries {
            t0: self.t0 + self.dt,
            dt: self.dt,
            values,
        })
    }

    /// Cumulative sum of the samples (the "profile" used by DFA-style
    /// analyses), mean-centred first so the profile has no linear drift from
    /// the mean level.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] on an empty series.
    pub fn profile(&self) -> Result<TimeSeries> {
        Error::require_len(&self.values, 1)?;
        let mean = self.values.iter().sum::<f64>() / self.len() as f64;
        let mut acc = 0.0;
        let values = self
            .values
            .iter()
            .map(|&v| {
                acc += v - mean;
                acc
            })
            .collect();
        Ok(TimeSeries {
            t0: self.t0,
            dt: self.dt,
            values,
        })
    }

    /// Checks that every sample is finite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] at the first offending index.
    pub fn require_finite(&self) -> Result<()> {
        Error::require_finite(&self.values)
    }
}

impl std::ops::Index<usize> for TimeSeries {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: &[f64]) -> TimeSeries {
        TimeSeries::from_values(0.0, 1.0, values.to_vec()).unwrap()
    }

    #[test]
    fn construction_rejects_bad_dt() {
        assert!(TimeSeries::new(0.0, 0.0).is_err());
        assert!(TimeSeries::new(0.0, -1.0).is_err());
        assert!(TimeSeries::new(0.0, f64::NAN).is_err());
        assert!(TimeSeries::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn timestamps_follow_grid() {
        let s = TimeSeries::from_values(100.0, 30.0, vec![0.0; 4]).unwrap();
        assert_eq!(s.time_at(0), 100.0);
        assert_eq!(s.time_at(3), 190.0);
    }

    #[test]
    fn index_of_time_clamps() {
        let s = TimeSeries::from_values(0.0, 10.0, vec![0.0; 5]).unwrap();
        assert_eq!(s.index_of_time(-100.0), Some(0));
        assert_eq!(s.index_of_time(21.0), Some(2));
        assert_eq!(s.index_of_time(25.0), Some(3)); // rounds to nearest
        assert_eq!(s.index_of_time(1e9), Some(4));
        assert_eq!(TimeSeries::new(0.0, 1.0).unwrap().index_of_time(0.0), None);
    }

    #[test]
    fn from_fn_evaluates_on_grid() {
        let s = TimeSeries::from_fn(1.0, 0.5, 3, |t| 2.0 * t).unwrap();
        assert_eq!(s.values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_preserves_timestamps() {
        let s = TimeSeries::from_values(10.0, 2.0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let sub = s.slice(1, 3).unwrap();
        assert_eq!(sub.t0(), 12.0);
        assert_eq!(sub.values(), &[2.0, 3.0]);
        assert!(s.slice(3, 1).is_err());
        assert!(s.slice(0, 5).is_err());
    }

    #[test]
    fn increments_shrink_by_one() {
        let s = ts(&[1.0, 4.0, 9.0]);
        let d = s.increments().unwrap();
        assert_eq!(d.values(), &[3.0, 5.0]);
        assert_eq!(d.t0(), 1.0);
        assert!(ts(&[1.0]).increments().is_err());
    }

    #[test]
    fn profile_is_centred_cumsum() {
        let s = ts(&[1.0, 2.0, 3.0]);
        let p = s.profile().unwrap();
        // mean = 2: centred = [-1, 0, 1], cumsum = [-1, -1, 0]
        assert_eq!(p.values(), &[-1.0, -1.0, 0.0]);
    }

    #[test]
    fn iter_yields_time_value_pairs() {
        let s = TimeSeries::from_values(5.0, 2.0, vec![10.0, 20.0]).unwrap();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![(5.0, 10.0), (7.0, 20.0)]);
    }

    #[test]
    fn map_preserves_grid() {
        let s = TimeSeries::from_values(5.0, 2.0, vec![1.0, 2.0]).unwrap();
        let m = s.map(|v| v * 10.0);
        assert_eq!(m.t0(), 5.0);
        assert_eq!(m.dt(), 2.0);
        assert_eq!(m.values(), &[10.0, 20.0]);
    }

    #[test]
    fn push_and_extend() {
        let mut s = TimeSeries::new(0.0, 1.0).unwrap();
        s.push(1.0);
        s.extend_from_slice(&[2.0, 3.0]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn implements_serde_traits() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<TimeSeries>();
    }
}
