//! # aging-wavelet
//!
//! Wavelet substrate of the `holder-aging` workspace (reproduction of
//! *"Software Aging and Multifractality of Memory Resources"*, DSN 2003).
//!
//! Provides the transforms the multifractal analysis in `aging-fractal` is
//! built on:
//!
//! - [`Wavelet`] — orthogonal filter banks (Haar, Daubechies 4–12 taps),
//! - [`mod@dwt`] — decimated multi-level DWT with periodic extension,
//! - [`mod@modwt`] — maximal-overlap (undecimated, shift-invariant) transform
//!   for arbitrary-length monitor logs,
//! - [`WaveletLeaders`] — wavelet leaders, the basis of local Hölder and
//!   multifractal-spectrum estimation.
//!
//! # Examples
//!
//! ```
//! use aging_wavelet::{dwt, Wavelet, WaveletLeaders};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
//! let dec = dwt(&signal, Wavelet::Daubechies4, 4)?;
//! let leaders = WaveletLeaders::from_decomposition(&dec)?;
//! assert_eq!(leaders.levels(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod denoise;
pub mod dwt;
pub mod filters;
pub mod leaders;
pub mod modwt;

pub use dwt::{dwt, Decomposition};
pub use filters::Wavelet;
pub use leaders::WaveletLeaders;
pub use modwt::{modwt, ModwtDecomposition};
