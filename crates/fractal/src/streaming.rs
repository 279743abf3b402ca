//! Windowed-incremental (online) estimators over unbounded streams.
//!
//! The batch API of this crate computes on whole slices. This module wraps
//! the two kernels the crash predictor runs per sample — the local Hölder
//! exponent of a trailing neighbourhood and the fractal dimension of a
//! sliding Hölder-trace window — as re-entrant streaming estimators backed
//! by [`RingBuffer`]s, so an indefinitely long counter stream is analysed
//! in O(window) work and O(window) memory per sample.
//!
//! These are the kernels underneath the Hölder-dimension detector
//! (`aging_core::detector`); the arithmetic is byte-for-byte the batch
//! estimators' (each emission copies its ring window into a scratch buffer
//! and runs the kernel the batch routine runs, with its lag ladder or
//! box-counting grid built once at construction), so streaming results
//! are identical to re-running the batch code on the same trailing window
//! — only the bookkeeping is incremental.
//!
//! # Examples
//!
//! ```
//! use aging_fractal::streaming::StreamingHolder;
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! let mut holder = StreamingHolder::new(16, 8, 2.0)?;
//! let mut trace = Vec::new();
//! for i in 0..64 {
//!     let v = (i as f64 * 0.7).sin() * 3.0 + i as f64 * 0.05;
//!     if let Some(h) = holder.push(v)? {
//!         trace.push(h);
//!     }
//! }
//! // One Hölder point per sample once the neighbourhood fills.
//! assert_eq!(trace.len(), 64 - 2 * 16);
//! # Ok(())
//! # }
//! ```

use aging_timeseries::ring::RingBuffer;
use aging_timeseries::{stats, Error, Result};

use crate::dimension::{self, BoxGrid, BOX_COUNTING_MIN_LEN};
use crate::holder::IncrementLadder;

/// Streaming local Hölder exponent of the trailing `2·radius + 1`-sample
/// neighbourhood.
///
/// Each push appends one raw sample; once the neighbourhood is full, every
/// push emits the increment-method Hölder exponent of the trailing window
/// (exactly [`crate::holder::increment_exponent`] on those samples), i.e.
/// the online analogue of the batch Hölder trace delayed by `radius`
/// samples.
#[derive(Debug, Clone)]
pub struct StreamingHolder {
    ring: RingBuffer,
    scratch: Vec<f64>,
    ladder: IncrementLadder,
}

impl StreamingHolder {
    /// Creates an estimator with neighbourhood radius `radius` (window
    /// `2·radius + 1`), increment lags up to `max_lag` and exponent cap
    /// `max_h`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero radius, `max_lag <
    /// 4`, a non-positive `max_h`, or a neighbourhood too short for the
    /// requested lags (`2·radius + 1 < 4·max_lag`).
    pub fn new(radius: usize, max_lag: usize, max_h: f64) -> Result<Self> {
        if radius == 0 {
            return Err(Error::invalid("radius", "must be positive"));
        }
        if max_lag < 4 {
            return Err(Error::invalid("max_lag", "must be at least 4"));
        }
        if !(max_h > 0.0) {
            return Err(Error::invalid("max_h", "must be positive"));
        }
        let window = 2 * radius + 1;
        if window < 4 * max_lag {
            return Err(Error::invalid(
                "radius",
                "neighbourhood 2*radius+1 must be at least 4*max_lag",
            ));
        }
        Ok(StreamingHolder {
            ring: RingBuffer::new(window)?,
            scratch: Vec::with_capacity(window),
            ladder: IncrementLadder::new(max_lag, max_h),
        })
    }

    /// The neighbourhood width `2·radius + 1`.
    pub fn window(&self) -> usize {
        self.ring.capacity()
    }

    /// Samples consumed so far.
    pub fn samples_seen(&self) -> u64 {
        self.ring.pushed()
    }

    /// Feeds one raw sample; emits the Hölder exponent of the trailing
    /// neighbourhood once it has filled.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite samples and
    /// propagates estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<f64>> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.ring.pushed() as usize,
            });
        }
        self.ring.push(value);
        if !self.ring.is_full() {
            return Ok(None);
        }
        self.ring.copy_to(&mut self.scratch);
        Ok(Some(self.ladder.exponent(&self.scratch)))
    }

    /// Clears the sample window (e.g. after a reboot).
    pub fn reset(&mut self) {
        self.ring.clear();
    }

    /// Serializes the dynamic state (the neighbourhood ring; parameters
    /// are re-supplied at construction) via [`aging_timeseries::persist`].
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.ring.encode_state(out);
    }

    /// Restores state written by [`StreamingHolder::encode_state`] into an
    /// estimator constructed with the same parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or a window
    /// mismatch.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        self.ring.restore_state(r)
    }
}

/// Which graph-dimension estimator a [`StreamingDimension`] applies to its
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowDimension {
    /// Grid box-counting with smoothing fallback
    /// ([`dimension::box_counting_or_smooth`], the paper's choice).
    #[default]
    BoxCounting,
    /// Variation/oscillation method, mapping degenerate (constant)
    /// windows to dimension 1.
    Variation,
}

impl WindowDimension {
    /// Applies the estimator to one window.
    ///
    /// # Errors
    ///
    /// Propagates the underlying estimator's failures; degenerate windows
    /// are mapped to dimension 1 rather than erroring.
    pub fn estimate(&self, window: &[f64]) -> Result<f64> {
        match self {
            WindowDimension::BoxCounting => dimension::box_counting_or_smooth(window),
            WindowDimension::Variation => {
                dimension::dimension_or_smooth(dimension::variation(window))
            }
        }
    }

    /// Shortest window the estimator can fit: 32 samples for box-counting
    /// (three grid levels), 16 for the variation method (three radii).
    pub fn min_window(&self) -> usize {
        match self {
            WindowDimension::BoxCounting => BOX_COUNTING_MIN_LEN,
            WindowDimension::Variation => 16,
        }
    }
}

/// A dimension emission: the fractal dimension of the current window plus
/// its mean (the detector's two per-window measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimensionPoint {
    /// Zero-based index of the push that produced this window.
    pub input_index: u64,
    /// Estimated graph dimension of the window.
    pub dimension: f64,
    /// Arithmetic mean of the window (mean Hölder exponent when fed a
    /// Hölder trace).
    pub mean: f64,
}

/// Streaming sliding-window fractal dimension: feed it a (Hölder) trace
/// point-by-point and it emits the window's graph dimension every `stride`
/// pushes once `window` points have arrived.
///
/// Emission timing matches the batch detector: the first window fires at
/// push `window`, then every `stride` pushes after that.
#[derive(Debug, Clone)]
pub struct StreamingDimension {
    ring: RingBuffer,
    scratch: Vec<f64>,
    method: WindowDimension,
    /// The window's box-counting grid, built once (box-counting only).
    grid: Option<BoxGrid>,
    stride: usize,
}

impl StreamingDimension {
    /// Creates a sliding estimator over `window`-point windows advancing
    /// `stride` points between emissions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a `window` shorter than the
    /// method's [`WindowDimension::min_window`], a zero `stride`, or
    /// `stride > window` (windows must overlap or tile).
    pub fn new(method: WindowDimension, window: usize, stride: usize) -> Result<Self> {
        if window < method.min_window() {
            return Err(Error::invalid(
                "window",
                format!("must be at least {} for {method:?}", method.min_window()),
            ));
        }
        if stride == 0 {
            return Err(Error::invalid("stride", "must be positive"));
        }
        if stride > window {
            return Err(Error::invalid("stride", "must not exceed the window"));
        }
        let grid = match method {
            WindowDimension::BoxCounting => Some(BoxGrid::new(window)?),
            WindowDimension::Variation => None,
        };
        Ok(StreamingDimension {
            ring: RingBuffer::new(window)?,
            scratch: Vec::with_capacity(window),
            method,
            grid,
            stride,
        })
    }

    /// The window width.
    pub fn window(&self) -> usize {
        self.ring.capacity()
    }

    /// The emission stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Feeds one trace point; emits a [`DimensionPoint`] when a window
    /// boundary is reached.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite input and propagates
    /// estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<DimensionPoint>> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.ring.pushed() as usize,
            });
        }
        self.ring.push(value);
        let n = self.ring.pushed();
        let window = self.ring.capacity() as u64;
        if n < window || !(n - window).is_multiple_of(self.stride as u64) {
            return Ok(None);
        }
        self.ring.copy_to(&mut self.scratch);
        let dimension = match &mut self.grid {
            Some(grid) => dimension::dimension_or_smooth(grid.estimate(&self.scratch))?,
            None => self.method.estimate(&self.scratch)?,
        };
        let mean = stats::mean(&self.scratch)?;
        Ok(Some(DimensionPoint {
            input_index: n - 1,
            dimension,
            mean,
        }))
    }

    /// Clears the window and the emission phase (e.g. after a reboot);
    /// the grid and scratch are kept.
    pub fn reset(&mut self) {
        self.ring = RingBuffer::new(self.ring.capacity()).expect("capacity already valid");
    }

    /// Serializes the dynamic state via [`aging_timeseries::persist`].
    ///
    /// The ring's lifetime push count is part of the blob — the emission
    /// phase is `pushed mod stride`, so restoring it is what keeps the
    /// recovered estimator firing on the same window/stride grid.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.ring.encode_state(out);
    }

    /// Restores state written by [`StreamingDimension::encode_state`] into
    /// an estimator constructed with the same parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or a window
    /// mismatch.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        self.ring.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::tests::shaped_series;
    use crate::generate;
    use crate::holder::{holder_trace, HolderEstimator, IncrementConfig};
    use aging_timeseries::window::SlidingWindows;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Streaming and batch Hölder traces run one kernel: every
        /// streaming emission, from the first full neighbourhood to the
        /// last, is the batch trace's point bit for bit. (The batch
        /// trace's truncated edges are pinned against the old rung loop
        /// in `holder`'s tests.)
        #[test]
        fn streaming_holder_matches_batch_trace_bitwise(
            max_lag in 4usize..=40,
            radius_extra in 0usize..=24,
            extra in 0usize..=200,
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let radius = 2 * max_lag + radius_extra;
            let n = (2 * radius).max(64) + extra;
            let data = shaped_series(n, seed, shape);
            let estimator = HolderEstimator::LocalIncrement(IncrementConfig {
                window_radius: radius,
                max_lag,
                max_h: 2.0,
            });
            let batch = holder_trace(&data, &estimator).unwrap();
            let mut streaming = StreamingHolder::new(radius, max_lag, 2.0).unwrap();
            let mut online = Vec::new();
            for &v in &data {
                online.extend(streaming.push(v).unwrap());
            }
            prop_assert_eq!(online.len(), n - 2 * radius);
            for (k, h) in online.iter().enumerate() {
                prop_assert_eq!(h.to_bits(), batch[k + radius].to_bits(), "point {}", k);
            }
        }

        /// The streaming grid, reused emission after emission and across
        /// a reset, matches the batch box-counting estimate bit for bit.
        #[test]
        fn streaming_box_counting_matches_batch_bitwise(
            window in 32usize..=300,
            stride_frac in 1usize..=8,
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let stride = (window * stride_frac / 8).max(1);
            let data = shaped_series(3 * window, seed, shape);
            let mut dim = StreamingDimension::new(WindowDimension::BoxCounting, window, stride).unwrap();
            for pass in 0..2 {
                let mut emitted = 0;
                for (i, &v) in data.iter().enumerate() {
                    if let Some(p) = dim.push(v).unwrap() {
                        let want = WindowDimension::BoxCounting
                            .estimate(&data[i + 1 - window..=i])
                            .unwrap();
                        prop_assert_eq!(p.dimension.to_bits(), want.to_bits(), "pass {} at {}", pass, i);
                        emitted += 1;
                    }
                }
                prop_assert_eq!(emitted, (data.len() - window) / stride + 1);
                dim.reset();
            }
        }
    }

    fn signal(n: usize) -> Vec<f64> {
        generate::fbm(n, 0.6, 5).unwrap()
    }

    #[test]
    fn constructor_guards() {
        assert!(StreamingHolder::new(0, 8, 2.0).is_err());
        assert!(StreamingHolder::new(16, 3, 2.0).is_err());
        assert!(StreamingHolder::new(16, 8, 0.0).is_err());
        assert!(StreamingHolder::new(8, 8, 2.0).is_err()); // 17 < 32
        assert!(StreamingDimension::new(WindowDimension::BoxCounting, 0, 1).is_err());
        assert!(StreamingDimension::new(WindowDimension::BoxCounting, 64, 0).is_err());
        assert!(StreamingDimension::new(WindowDimension::BoxCounting, 64, 65).is_err());
        // Box-counting needs three grid levels, the variation method three
        // radii.
        assert!(StreamingDimension::new(WindowDimension::BoxCounting, 24, 8).is_err());
        assert!(StreamingDimension::new(WindowDimension::BoxCounting, 31, 8).is_err());
        assert!(StreamingDimension::new(WindowDimension::Variation, 15, 8).is_err());
    }

    #[test]
    fn windows_at_the_method_floor_emit() {
        let trace = signal(160);
        for (method, window) in [
            (WindowDimension::BoxCounting, 32),
            (WindowDimension::Variation, 16),
        ] {
            assert_eq!(method.min_window(), window);
            let mut dim = StreamingDimension::new(method, window, 8).unwrap();
            let mut emitted = 0;
            for &v in &trace {
                emitted += usize::from(dim.push(v).unwrap().is_some());
            }
            assert_eq!(emitted, (trace.len() - window) / 8 + 1, "{method:?}");
        }
    }

    #[test]
    fn streaming_holder_matches_batch_trace() {
        let x = signal(512);
        let radius = 16;
        let estimator = HolderEstimator::LocalIncrement(IncrementConfig {
            window_radius: radius,
            max_lag: 8,
            max_h: 2.0,
        });
        let batch = holder_trace(&x, &estimator).unwrap();
        let mut streaming = StreamingHolder::new(radius, 8, 2.0).unwrap();
        let mut online = Vec::new();
        for &v in &x {
            if let Some(h) = streaming.push(v).unwrap() {
                online.push(h);
            }
        }
        // The batch trace pads the edges; its interior point at index
        // i + radius is the trailing-window emission for sample i + 2r.
        assert_eq!(online.len(), x.len() - 2 * radius);
        for (k, h) in online.iter().enumerate() {
            let batch_h = batch[k + radius];
            assert!(
                (h - batch_h).abs() < 1e-12,
                "point {k}: streaming {h} vs batch {batch_h}"
            );
        }
    }

    #[test]
    fn streaming_dimension_matches_sliding_windows() {
        let trace = signal(400);
        let (window, stride) = (64, 16);
        let mut streaming =
            StreamingDimension::new(WindowDimension::Variation, window, stride).unwrap();
        let mut online = Vec::new();
        for &v in &trace {
            if let Some(p) = streaming.push(v).unwrap() {
                online.push(p);
            }
        }
        let batch: Vec<f64> = SlidingWindows::new(&trace, window, stride)
            .unwrap()
            .map(|w| WindowDimension::Variation.estimate(w).unwrap())
            .collect();
        assert_eq!(online.len(), batch.len());
        for (p, d) in online.iter().zip(&batch) {
            assert!((p.dimension - d).abs() < 1e-12);
        }
        // Emission indices follow the window/stride grid.
        assert_eq!(online[0].input_index, (window - 1) as u64);
        assert_eq!(online[1].input_index, (window - 1 + stride) as u64);
    }

    #[test]
    fn reset_restarts_cleanly() {
        let x = signal(200);
        let mut holder = StreamingHolder::new(16, 8, 2.0).unwrap();
        let mut dim = StreamingDimension::new(WindowDimension::BoxCounting, 64, 16).unwrap();
        for &v in &x[..100] {
            if let Some(h) = holder.push(v).unwrap() {
                dim.push(h).unwrap();
            }
        }
        holder.reset();
        dim.reset();
        // After reset the warmup repeats: no emission until the windows
        // refill.
        let mut emitted = 0;
        for &v in &x[100..100 + 32] {
            if holder.push(v).unwrap().is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 0);
        assert!(holder.push(x[132]).unwrap().is_some());
    }

    #[test]
    fn non_finite_rejected() {
        let mut holder = StreamingHolder::new(16, 8, 2.0).unwrap();
        assert!(holder.push(f64::INFINITY).is_err());
        let mut dim = StreamingDimension::new(WindowDimension::BoxCounting, 32, 2).unwrap();
        assert!(dim.push(f64::NAN).is_err());
    }
}
