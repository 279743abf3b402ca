//! # aging-serve
//!
//! Networked ingestion/query layer of the `holder-aging` workspace —
//! dependency-free (std-only sockets) TCP serving for the streaming
//! detectors reproducing *"Software Aging and Multifractality of Memory
//! Resources"* (Shereshevsky et al., DSN 2003).
//!
//! Where `aging-stream`'s supervisor multiplexes an *in-process* fleet,
//! this crate moves the machine feeds across a socket: remote monitors
//! publish `(machine_id, counter, t_secs, value)` records over a
//! length-prefixed, CRC-checked, versioned binary protocol (with a
//! line-delimited text fallback for `nc`-style debugging), and the
//! server routes them through the exact same per-machine
//! gate → detector → fusion pipeline
//! ([`aging_stream::pipeline::MachinePipeline`]). Because both paths
//! share one pipeline and one ordering rule, the TCP path is held to
//! *byte-identical* alarm parity with an offline
//! [`FleetSupervisor`](aging_stream::supervisor::FleetSupervisor) run
//! (experiment E14).
//!
//! Layers:
//!
//! 1. **Wire format** ([`protocol`]): frame layout, CRC-32, the
//!    [`protocol::Frame`] grammar, and the canonical event codec whose
//!    bytes double as the parity fingerprint.
//! 2. **Decoding** ([`codec`]): incremental frame extraction across
//!    arbitrary TCP chunk boundaries, distinguishing recoverable
//!    malformed payloads from fatal framing corruption, plus the text
//!    command parser.
//! 3. **Serving** ([`server`]): thread-per-connection sessions over a
//!    shared engine of per-machine pipelines, bounded queues with
//!    advisory backpressure, strike-based quarantine mirroring the
//!    sample gate, watermarked alarm history, live JSON telemetry
//!    (same [`aging_stream::telemetry::Snapshot`] schema as the
//!    supervisor), and graceful drain on shutdown.
//! 4. **Clients** ([`client`], [`loadgen`]): a blocking windowed client
//!    and a multi-connection load generator driving memsim scenarios,
//!    measuring throughput, ack RTT and alarm visibility latency.
//!
//! # Examples
//!
//! ```
//! use aging_serve::{LoadgenConfig, ServeClient, ServeConfig, Server};
//! use aging_memsim::{Counter, Scenario};
//! use aging_serve::loadgen::drive;
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! // An in-process server on an ephemeral loopback port …
//! let detectors = aging_serve::test_detectors();
//! let server = Server::bind("127.0.0.1:0", ServeConfig::new(detectors))?;
//!
//! // … fed by a load generator over real TCP.
//! let report = drive(
//!     server.local_addr(),
//!     &[Scenario::tiny_aging(7, 0.0)],
//!     600.0,
//!     &LoadgenConfig {
//!         counters: vec![Counter::AvailableBytes],
//!         poll_alarms_ms: 0,
//!         ..LoadgenConfig::default()
//!     },
//! )?;
//! assert!(report.records_sent > 0);
//! assert_eq!(report.records_sent, report.records_accepted);
//!
//! let outcome = server.shutdown();
//! assert_eq!(outcome.wire.session_panics, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{AlarmChunk, RejuvAdvice, ServeClient};
pub use codec::{CorruptStream, FrameDecoder, TextCommand};
pub use loadgen::{drive, drive_with_ids, BatchMode, LoadgenConfig, LoadgenReport, ScenarioFeeder};
pub use protocol::{
    column_delta_units, columnar_spans, decode_events, encode_events, expand_column_times, Frame,
    Record, ServeEvent, DEFAULT_MAX_FRAME, PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
    PROTOCOL_VERSION_V3,
};
pub use server::{
    PersistStats, ServeConfig, ServeConfigBuilder, ServeReport, ServeStatus, Server, WireCounters,
};

use aging_core::baseline::TrendPredictorConfig;
use aging_memsim::Counter;
use aging_stream::detector::DetectorSpec;
use aging_stream::supervisor::CounterDetector;

/// A small single-counter detector set sized for the tiny test machine —
/// shared by doctests, integration tests and the quick E14 variant.
pub fn test_detectors() -> Vec<CounterDetector> {
    vec![CounterDetector {
        counter: Counter::AvailableBytes,
        spec: DetectorSpec::Trend(TrendPredictorConfig {
            window: 64,
            refit_every: 4,
            alarm_horizon_secs: 1e6,
            ..TrendPredictorConfig::depleting(5.0)
        }),
    }]
}
