//! # aging-stream
//!
//! Online, bounded-memory streaming detection subsystem of the
//! `holder-aging` workspace — the production-shaped counterpart of the
//! offline analyses reproducing *"Software Aging and Multifractality of
//! Memory Resources"* (Shereshevsky et al., DSN 2003).
//!
//! The offline pipeline answers "did this recorded trace show pre-crash
//! multifractal anomalies?"; this crate answers the operational question:
//! *monitor N machines × M counters live, in O(window) memory per stream,
//! and emit crash alarms as they happen.* It is organised in four layers:
//!
//! 1. **Incremental kernels** (in the foundation crates):
//!    [`aging_timeseries::ring::RingBuffer`],
//!    [`aging_timeseries::trend::StreamingMannKendall`],
//!    [`aging_fractal::streaming`] — O(window) work/memory per sample.
//! 2. **Ingestion** ([`source`]): the [`source::SampleSource`] trait with
//!    CSV replay, live simulated-machine and Linux `/proc` sources, plus
//!    the per-source [`gate::SampleGate`] that repairs real-world defects
//!    (NaN, out-of-order timestamps, gaps) with documented policies.
//! 3. **Detection** ([`detector`]): [`detector::StreamingDetector`] — the
//!    paper's Hölder-dimension detector
//!    ([`aging_core::detector::HolderDimensionDetector`]), the
//!    Mann–Kendall baseline and the Δα spectrum-width detector, each a
//!    bounded-memory online detector behind one wrapper.
//! 4. **Fleet supervision & observability** ([`supervisor`],
//!    [`telemetry`]): a thread-per-shard supervisor multiplexing a fleet
//!    through streaming detectors with bounded queues and explicit drop
//!    policy, emitting one time-ordered alarm stream plus JSON status
//!    snapshots and plain-text status lines.
//!
//! # Examples
//!
//! ```
//! use aging_core::detector::DetectorConfig;
//! use aging_stream::detector::{StreamingDetector, DetectorSpec};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! // Stream a slowly-degrading counter through the online detector.
//! let mut det = StreamingDetector::new(&DetectorSpec::Holder(DetectorConfig {
//!     holder_radius: 16,
//!     holder_max_lag: 4,
//!     dimension_window: 64,
//!     dimension_stride: 16,
//!     baseline_windows: 8,
//!     ..DetectorConfig::default()
//! }))?;
//! for i in 0..600 {
//!     let value = 1e6 - 40.0 * i as f64 + (i as f64 * 0.9).sin() * 512.0;
//!     det.push(value)?;
//! }
//! // Bounded memory: the detector holds only its trailing windows.
//! assert!(det.memory_bound_samples() < 200);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detector;
pub mod gate;
pub mod merge;
pub mod pipeline;
pub mod sink;
pub mod source;
pub mod supervisor;
pub mod telemetry;

pub use aging_timeseries::{Error, Result};

pub use detector::{DetectorSpec, SpectrumDetectorConfig, StreamingDetector};
pub use gate::{GateAction, GateConfig, GateHealth, SampleGate};
pub use merge::{MergeKey, WatermarkMerger};
pub use pipeline::{MachinePipeline, PipelineEvent};
pub use sink::{FleetSink, IngestSink};
pub use source::{SamplePerturber, SampleSource, StreamSample};
pub use supervisor::{
    AlarmEvent, AlarmKind, CounterDetector, FleetConfig, FleetReport, FleetSupervisor,
    MachineOutcome, PerturberFactory,
};
pub use telemetry::{
    CounterStreamSnapshot, LatencyHistogram, MachineSnapshot, Snapshot, StageCounters,
    StatusSnapshot,
};
