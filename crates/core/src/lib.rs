//! # aging-core
//!
//! The primary contribution of the `holder-aging` workspace: the
//! Hölder-dimension software-aging detector of *"Software Aging and
//! Multifractality of Memory Resources"* (Shereshevsky, Cukic, Crowell,
//! Gandikota, Liu — DSN 2003), together with the classical trend-based
//! baselines, a scoring harness and multifractality-progression analysis.
//! The rejuvenation policies the detector exists to trigger run online,
//! in `aging-rejuv` and the `aging-stream` fleet supervisor.
//!
//! - [`detector`] — the streaming Hölder-dimension detector (the paper's
//!   method: Hölder trace → windowed fractal dimension → two-jump alarm);
//! - [`discipline`] — the warmup → median/MAD baseline → confirm → latched
//!   alarm rule shared by the windowed detectors;
//! - [`baseline`] — Mann–Kendall/Sen-slope, OLS and threshold predictors
//!   behind the common [`baseline::AgingPredictor`] trait;
//! - [`eval`] — segment-based alarm scoring (lead time, misses, false
//!   alarms) across simulated fleets;
//! - [`mod@progression`] — early-vs-late-life multifractality measurements.
//!
//! # Examples
//!
//! ```
//! use aging_core::detector::{analyze, DetectorConfig};
//! use aging_memsim::{simulate, Counter, Scenario};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! // Simulate an aggressively aging machine and analyse its free memory.
//! let report = simulate(&Scenario::tiny_aging(42, 512.0), 4.0 * 3600.0)?;
//! let series = report.log.series(Counter::AvailableBytes)?;
//! let analysis = analyze(series.values(), &DetectorConfig {
//!     holder_radius: 16,
//!     holder_max_lag: 4,
//!     dimension_window: 64,
//!     dimension_stride: 8,
//!     baseline_windows: 4,
//!     ..DetectorConfig::default()
//! })?;
//! // The Hölder and dimension traces are available for inspection.
//! assert!(!analysis.dimension_trace.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod detector;
pub mod discipline;
pub mod eval;
pub mod fusion;
pub mod progression;
pub mod report;
pub mod roc;

pub use baseline::{AgingPredictor, ResourceDirection, TrendPredictorConfig};
pub use detector::{Alert, AlertLevel, DetectorConfig, HolderDimensionDetector};
pub use eval::{compare, evaluate, ComparisonRow, PredictorSpec, SegmentOutcome};
pub use fusion::{evaluate_fusion, FusionPredictor, FusionRule};
pub use progression::{progression, ProgressionConfig, SegmentMultifractality};
pub use report::{assess, Assessment, AssessmentConfig, Verdict};
pub use roc::{sweep_detector, RocPoint, SweepParameter};
