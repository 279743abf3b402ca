//! # aging-timeseries
//!
//! Foundation crate of the `holder-aging` workspace — the reproduction of
//! *"Software Aging and Multifractality of Memory Resources"*
//! (Shereshevsky, Cukic, Crowell, Gandikota, Liu — DSN 2003).
//!
//! It provides the uniformly sampled [`TimeSeries`] container plus the
//! statistical machinery every layer above relies on:
//!
//! - [`stats`] — descriptive statistics and summaries,
//! - [`window`] — sliding windows, blocks and scale grids,
//! - [`detrend`] — mean/linear/polynomial detrending and differencing,
//! - [`regression`] — OLS, log–log and Theil–Sen fits with diagnostics,
//! - [`trend`] — Mann–Kendall trend test and Sen's slope (the classical
//!   software-aging predictors used as baselines in the paper),
//! - [`interp`] — NaN gap repair for monitor logs,
//! - [`ring`] — fixed-capacity sample store with O(1) windowed statistics
//!   (the bounded-memory backbone of the streaming subsystem).
//!
//! # Examples
//!
//! ```
//! use aging_timeseries::{TimeSeries, trend::SenSlope};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! // A leaking resource sampled every 30 s.
//! let free_mem = TimeSeries::from_fn(0.0, 30.0, 100, |t| 1e6 - 50.0 * t)?;
//! let sen = SenSlope::estimate(free_mem.values(), free_mem.dt())?;
//! assert!(sen.slope < 0.0); // depleting
//! let eta = sen.time_to_level(0.0).expect("depleting series crosses zero");
//! assert!((eta - 20_000.0).abs() < 1.0); // 1e6 / 50 = 20 000 s
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod series;

pub mod changepoint;
pub mod csv;
pub mod detrend;
pub mod interp;
pub mod persist;
pub mod regression;
pub mod ring;
pub mod stats;
pub mod trend;
pub mod window;

pub use error::{Error, Result};
pub use series::TimeSeries;
