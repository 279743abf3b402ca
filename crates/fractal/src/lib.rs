//! # aging-fractal
//!
//! Fractal and multifractal analysis substrate of the `holder-aging`
//! workspace — the reproduction of *"Software Aging and Multifractality of
//! Memory Resources"* (Shereshevsky et al., DSN 2003).
//!
//! The paper's method rests on three measurements, all provided here:
//!
//! 1. **Local Hölder exponents** ([`holder`]) — the regularity trace
//!    `h(t)` of a memory-resource signal;
//! 2. **Fractal dimension of a graph** ([`dimension`]) — applied to the
//!    Hölder trace over sliding windows, whose jumps precede crashes;
//! 3. **Multifractal spectra** ([`spectrum`]) — `f(α)` width and leader
//!    log-cumulants quantify how "turbulent" memory management is.
//!
//! Everything is validated against [`generate`] — synthetic signals (fBm,
//! Weierstrass, binomial cascades) with closed-form ground truth — and
//! classical Hurst estimators live in [`hurst`].
//!
//! # Examples
//!
//! ```
//! use aging_fractal::{generate, holder, dimension};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! // A rough (anti-persistent) signal …
//! let signal = generate::fbm(2048, 0.3, 7)?;
//! // … has a low Hölder exponent …
//! let trace = holder::holder_trace(&signal, &holder::HolderEstimator::default())?;
//! let mean_h = trace.iter().sum::<f64>() / trace.len() as f64;
//! assert!(mean_h < 0.5);
//! // … and a rough graph.
//! let d = dimension::variation(&signal)?;
//! assert!(d.dimension > 1.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dimension;
pub mod fft;
pub mod generate;
pub mod holder;
pub mod hurst;
pub mod spectrum;
pub mod streaming;
pub mod surrogate;

pub use dimension::DimensionEstimate;
pub use holder::{HolderEstimator, HolderSummary};
pub use hurst::HurstEstimate;
pub use spectrum::{
    LogCumulants, MfdfaResult, SpectrumConfig, SpectrumEstimate, SpectrumPoint, SpectrumWindow,
    StreamingSpectrum,
};
