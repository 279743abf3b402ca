//! # holder-aging
//!
//! A full reproduction of **"Software Aging and Multifractality of Memory
//! Resources"** (M. Shereshevsky, B. Cukic, J. Crowell, V. Gandikota,
//! Y. Liu — DSN 2003) as a Rust workspace.
//!
//! The paper's thesis: memory-resource usage of a long-running system is a
//! *multifractal* signal, and abrupt changes in the fractal dimension of
//! its local Hölder-exponent trace precede crashes — giving an online
//! software-aging (crash-warning) detector that beats classical
//! trend-extrapolation predictors on bursty real-world signals.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`timeseries`] | `aging-timeseries` | series container, statistics, trend tests |
//! | [`par`] | `aging-par` | deterministic chunked scoped-thread parallelism |
//! | [`wavelet`] | `aging-wavelet` | DWT / MODWT / wavelet leaders / denoising |
//! | [`fractal`] | `aging-fractal` | generators, Hölder, Hurst, dimensions, spectra |
//! | [`memsim`] | `aging-memsim` | the simulated testbed (machines, workloads, faults) |
//! | [`core`] | `aging-core` | the detector, baselines, evaluation |
//! | [`rejuv`] | `aging-rejuv` | closed-loop restart policies, arbiter and availability accounting |
//! | [`stream`] | `aging-stream` | online bounded-memory detection, fleet supervisor, telemetry |
//! | [`chaos`] | `aging-chaos` | seeded fault injection and the differential robustness harness |
//! | [`store`] | `aging-store` | crash-safe WAL + snapshot persistence (std-only, CRC-framed) |
//! | [`serve`] | `aging-serve` | networked TCP ingestion/query server and load-generator client |
//!
//! Analysis hot paths (Hölder traces, surrogate ensembles, fleet scoring)
//! run on a deterministic thread pool ([`par`]): results are
//! bit-identical for any thread count, and `AGING_THREADS` caps the
//! parallelism process-wide.
//!
//! # Quickstart
//!
//! ```
//! use holder_aging::prelude::*;
//!
//! # fn main() -> Result<(), holder_aging::Error> {
//! // 1. Simulate an aging web server until it crashes.
//! let scenario = Scenario::tiny_aging(7, 512.0);
//! let report = simulate(&scenario, 4.0 * 3600.0)?;
//! let crash = report.first_crash().expect("the leak crashes the machine");
//!
//! // 2. Run the paper's detector offline over the free-memory counter.
//! let series = report.log.series(Counter::AvailableBytes)?;
//! let config = DetectorConfig::builder()
//!     .holder_radius(16)
//!     .holder_max_lag(4)
//!     .dimension_window(64)
//!     .dimension_stride(8)
//!     .baseline_windows(6)
//!     .build()?;
//! let analysis = analyze(series.values(), &config)?;
//! println!("crash at {}, {} alerts", crash.time, analysis.alerts.len());
//! # Ok(())
//! # }
//! ```

pub use aging_chaos as chaos;
pub use aging_core as core;
pub use aging_fractal as fractal;
pub use aging_memsim as memsim;
pub use aging_par as par;
pub use aging_rejuv as rejuv;
pub use aging_serve as serve;
pub use aging_store as store;
pub use aging_stream as stream;
pub use aging_timeseries as timeseries;
pub use aging_wavelet as wavelet;

pub use aging_timeseries::{Error, Result, TimeSeries};

/// One-line import for applications: the most common types of every layer.
pub mod prelude {
    pub use aging_chaos::{
        fleet_perturber, run_differential, ChaosPlan, ChaosSource, DifferentialReport,
        InjectorSpec, Tolerance,
    };
    pub use aging_core::baseline::{AgingPredictor, ResourceDirection, TrendPredictorConfig};
    pub use aging_core::detector::{
        analyze, AlertLevel, DetectorConfig, DetectorConfigBuilder, HolderDimensionDetector,
        JumpRule,
    };
    pub use aging_core::eval::{compare, compare_in, evaluate, ComparisonRow, PredictorSpec};
    pub use aging_core::progression::{progression, ProgressionConfig};
    pub use aging_core::report::{assess, Assessment, AssessmentConfig, Verdict};
    pub use aging_core::roc::{sweep_detector, sweep_detector_in, RocPoint, SweepParameter};
    pub use aging_fractal::holder::{holder_trace, holder_trace_in, HolderEstimator};
    pub use aging_fractal::spectrum::{
        spectrum_trace, spectrum_trace_in, SpectrumConfig, SpectrumWindow, StreamingSpectrum,
    };
    pub use aging_fractal::surrogate::{surrogate_test, surrogate_test_in};
    pub use aging_fractal::{dimension, generate, hurst, spectrum};
    pub use aging_memsim::{
        simulate, simulate_fleet, simulate_fleet_in, simulate_with_reboots, Bytes, Counter,
        FaultPlan, Machine, MachineConfig, Scenario, SimTime, Tick, WorkloadConfig,
    };
    pub use aging_par::Pool;
    pub use aging_rejuv::{
        availability, AvailabilitySummary, RejuvConfig, RejuvController, RejuvPolicy,
        RestartDecision, RestartReason, RestartRequest,
    };
    pub use aging_serve::{
        drive, BatchMode, LoadgenConfig, LoadgenReport, PersistStats, ServeClient, ServeConfig,
        ServeConfigBuilder, ServeReport, Server, PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
        PROTOCOL_VERSION_V3,
    };
    pub use aging_store::{Store, StoreConfig, StoreError};
    pub use aging_stream::supervisor::{
        AlarmEvent, AlarmKind, CounterDetector, FleetConfig, FleetReport, FleetSupervisor,
    };
    pub use aging_stream::{
        DetectorSpec, FleetSink, GateConfig, IngestSink, SampleGate, SampleSource,
        SpectrumDetectorConfig, StreamingDetector,
    };
    pub use aging_timeseries::{trend::MannKendall, trend::SenSlope, Error, Result, TimeSeries};
    pub use aging_wavelet::{dwt, modwt, Wavelet, WaveletLeaders};
}
