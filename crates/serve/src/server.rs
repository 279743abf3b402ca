//! The ingestion/query server: thread-per-connection sessions feeding a
//! shared engine of per-machine [`MachinePipeline`]s.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──► session threads ──► Engine (mutex)                    ReadSide (mutex)
//!                    │ decode+CRC        ├─ MachinePipeline per id       ├─ released alarm history
//!                    │ quarantine        ├─ WatermarkMerger              │  and its release frontier
//!                    │ acks/replies      │  (time, id, seq)              ├─ fleet status
//!                    │                   ├─ journal (optional)           └─ wire counters
//!                    │                   └─ release() ── publishes ─────►▲
//!                    └ status / alarms queries ──────────────────────────┘
//! ```
//!
//! Each connection gets its own session thread. The sessions share two
//! things, each behind its own mutex. The engine is entered per *batch*
//! (not per byte), so a slow or stalled peer never blocks another
//! session's socket I/O. At the end of every release the engine
//! publishes to the read side: the released history and its frontier,
//! written together, the fleet status and the wire counters. Status and
//! alarm queries read only the read side, so they never wait behind
//! ingest; queries about one machine's pipeline still take the engine.
//! Locks are taken engine → read side, never the reverse, and the read
//! side is never held across socket I/O, JSON encoding or pipeline work.
//! A binary session queues its replies and writes everything one read
//! brought in with a single write before it reads again; an ack is
//! queued only once its batch is applied, published and journaled.
//!
//! # Watermarked history
//!
//! Events enter a single-source [`WatermarkMerger`] keyed
//! `(time, machine_id, emission seq)` — the same shared merge the
//! in-process [`FleetSupervisor`](aging_stream::supervisor::FleetSupervisor)
//! and the `aging-cluster` aggregator use — and move to the released
//! history only once every unfinished machine's pipeline watermark
//! ([`MachinePipeline::completed_time_secs`]) has passed them. Query
//! replies therefore only ever show a prefix of the final ordered
//! history, and the E14 parity gate can demand byte-identity with the
//! offline supervisor run. `QueryAlarms` replies advertise the release
//! frontier (and the server's [`ServeConfig::shard_id`]), so an
//! aggregator merging several shards knows exactly which prefix of
//! global time each shard has promised never to extend.
//!
//! A consequence the operator must know: one stalled feeder holds back
//! the *global* released history (its machine's watermark stops
//! advancing). The stall timeout exists precisely to bound that damage —
//! a session idle past [`ServeConfig::stall_timeout_ms`] is closed and
//! its machines' feeds finished, restoring the watermark.
//!
//! # Client misbehaviour
//!
//! | Fault | Consequence |
//! |---|---|
//! | frame fails CRC / bad length prefix | framing lost → immediate quarantine (connection dropped) |
//! | intact frame, malformed payload | `Error` reply + strike; [`ServeConfig::quarantine_after`] consecutive strikes → quarantine |
//! | EOF or stall mid-frame | truncation → quarantine |
//! | idle past the stall timeout | session closed, machines finished |
//! | byzantine timestamps/values | confined to that machine's own streams by its [`SampleGate`] — the per-machine pipeline is the trust boundary |
//!
//! The strike rule deliberately mirrors [`SampleGate`] quarantine
//! semantics: consecutive failures count toward a threshold and any good
//! frame resets the run. Sessions run under `catch_unwind`, so a bug in
//! frame handling converts to a counted, quarantined close
//! ([`WireCounters::session_panics`]) instead of a dead server.
//!
//! [`SampleGate`]: aging_stream::gate::SampleGate

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use aging_core::detector::AlertLevel;
use aging_core::fusion::FusionRule;
use aging_rejuv::{RejuvConfig, RejuvController, RejuvPolicy, RestartReason, RestartRequest};
use aging_store::{Recovery, Store, StoreConfig, StoreError};
use aging_stream::gate::GateConfig;
use aging_stream::merge::{MergeKey, WatermarkMerger};
use aging_stream::pipeline::{MachinePipeline, PipelineEvent};
use aging_stream::source::StreamSample;
use aging_stream::supervisor::{AlarmKind, CounterDetector, FleetConfig};
use aging_stream::telemetry::{LatencyHistogram, MachineSnapshot, Snapshot, StageCounters};
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::{Error, Result};
use serde::{Deserialize, Serialize};

use aging_memsim::Counter;
use aging_stream::sink::IngestSink;

use crate::codec::{parse_text_line, FrameDecoder, TextCommand};
use crate::protocol::{
    append_frame, decode_event, encode_event, encode_events, expand_column_times, read_events,
    Frame, Record, ServeEvent, DEFAULT_MAX_FRAME, ERR_MALFORMED, ERR_QUARANTINED, ERR_STORE,
    ERR_VERSION, PROTOCOL_VERSION, PROTOCOL_VERSION_V2, PROTOCOL_VERSION_V3, RECORD_BYTES,
    TEXT_PREAMBLE,
};

/// Journal entry kind: a binary [`Frame::Batch`] (replay counts a batch).
const ENTRY_BATCH: u8 = 1;
/// Journal entry kind: one machine's feed was declared complete.
const ENTRY_FINISH: u8 = 2;
/// Journal entry kind: a text-mode sample (replay counts records only).
const ENTRY_TEXT: u8 = 3;
/// Journal entry kind: a columnar batch ([`Frame::BatchColumnar`]),
/// stored with expanded timestamps so replay applies the exact `f64`
/// column the live engine saw.
const ENTRY_COLUMN: u8 = 4;
/// Journaled bytes per sample of an [`ENTRY_COLUMN`] entry: time and
/// value bits.
const ENTRY_SAMPLE_BYTES: usize = 8 + 8;
/// Version byte leading every engine snapshot blob.
const SNAPSHOT_VERSION: u8 = 1;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Detectors instantiated per connected machine (one per counter).
    pub detectors: Vec<CounterDetector>,
    /// How per-counter alarm votes fuse into a machine-level alarm.
    pub fusion: FusionRule,
    /// Defect gate applied to every (machine, counter) stream.
    pub gate: GateConfig,
    /// Maximum accepted frame payload, bytes.
    pub max_frame_bytes: u32,
    /// Credit window advertised in the handshake: max unacked batches a
    /// client may keep in flight before it must wait.
    pub window: u16,
    /// Consecutive malformed frames (or text lines) before a client is
    /// quarantined — the wire-level analogue of
    /// [`GateConfig::quarantine_after`].
    pub quarantine_after: u32,
    /// Socket read poll interval, ms (bounds shutdown latency).
    pub read_poll_ms: u64,
    /// A session idle this long is closed and its machines finished; if
    /// it stalls *mid-frame* it is quarantined as truncated.
    pub stall_timeout_ms: u64,
    /// Socket write timeout, ms (a peer that stops reading its replies
    /// cannot wedge a session thread forever).
    pub write_timeout_ms: u64,
    /// Max events per `AlarmsReply` chunk (keeps replies under the frame
    /// size limit).
    pub alarm_chunk: u16,
    /// Hold all alarm releases until this many distinct machines have
    /// registered (sent their first record). `None` releases freely.
    ///
    /// The global watermark is the minimum completed tick over machines
    /// the server *knows about* — a machine that has not yet sent
    /// anything cannot hold it down, so with concurrent feeders a fast
    /// client could get its early alarms released before a slow client's
    /// first record arrives, permuting the global history order. Parity
    /// and benchmark runs that know their fleet size up front set this
    /// to pin the release order exactly; [`Server::shutdown`]'s drain
    /// ignores the hold.
    pub expected_machines: Option<u64>,
    /// Shard identity advertised in `AlarmsReply` frames. Standalone
    /// servers keep the default `0`; a cluster launcher assigns each
    /// shard its ring index so aggregators and operators can attribute
    /// replies. Purely advisory — it never affects engine behaviour.
    pub shard_id: u64,
    /// Crash-safe persistence. When set, every accepted batch is
    /// journaled to this store *before* its ack goes out (acked ⇒
    /// durable) and [`Server::bind`] replays whatever snapshot + journal
    /// suffix it finds in the directory, reconstructing the engine
    /// bit-identically. `None` (the default) serves purely in memory.
    pub store: Option<StoreConfig>,
    /// Rejuvenation policy answered by `QueryRejuv` (protocol v2). The
    /// serve tier never restarts anything itself — the closed loop lives
    /// in the stream supervisor — so this only drives the shadow
    /// advisory replayed over each machine's released alarm history.
    /// `None` (the default) answers with the `none` policy.
    pub rejuv: Option<RejuvConfig>,
}

impl ServeConfig {
    /// A config with library defaults around the given detectors.
    pub fn new(detectors: Vec<CounterDetector>) -> Self {
        ServeConfig {
            detectors,
            fusion: FusionRule::Majority,
            gate: GateConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME,
            window: 32,
            quarantine_after: 3,
            read_poll_ms: 20,
            stall_timeout_ms: 10_000,
            write_timeout_ms: 5_000,
            alarm_chunk: 256,
            expected_machines: None,
            shard_id: 0,
            store: None,
            rejuv: None,
        }
    }

    /// Adopts the detection parameters (detectors, fusion, gate) of an
    /// offline fleet config, so a server and a
    /// [`FleetSupervisor`](aging_stream::supervisor::FleetSupervisor)
    /// run the identical pipeline — the E14 parity setup.
    pub fn from_fleet(fleet: &FleetConfig) -> Self {
        let mut cfg = ServeConfig::new(fleet.detectors.clone());
        cfg.fusion = fleet.fusion;
        cfg.gate = fleet.gate;
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty detector list, a
    /// too-small frame limit, a zero window/threshold/chunk, and
    /// propagates gate/detector validation.
    pub fn validate(&self) -> Result<()> {
        // Instantiating a probe pipeline surfaces every detector/gate
        // error before any thread or socket exists; sessions may then
        // construct pipelines infallibly.
        MachinePipeline::new(&self.detectors, self.fusion, self.gate)?;
        if self.max_frame_bytes < 64 {
            return Err(Error::invalid("max_frame_bytes", "must be at least 64"));
        }
        if self.window == 0 {
            return Err(Error::invalid("window", "must be at least 1"));
        }
        if self.quarantine_after == 0 {
            return Err(Error::invalid("quarantine_after", "must be at least 1"));
        }
        if self.alarm_chunk == 0 {
            return Err(Error::invalid("alarm_chunk", "must be at least 1"));
        }
        if let Some(store) = &self.store {
            store
                .validate()
                .map_err(|e| Error::invalid("store", e.to_string()))?;
        }
        if let Some(rejuv) = &self.rejuv {
            rejuv.validate()?;
        }
        Ok(())
    }

    /// Starts a validated builder around the given detectors — the same
    /// pattern as `DetectorConfig` in `aging-core`. The
    /// plain-struct literal (`ServeConfig { .. }`) keeps working; the
    /// builder's [`build`](ServeConfigBuilder::build) runs
    /// [`ServeConfig::validate`], so a builder-made config cannot reach
    /// [`Server::bind`] invalid.
    pub fn builder(detectors: Vec<CounterDetector>) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::new(detectors),
        }
    }
}

/// Builder for [`ServeConfig`] — see [`ServeConfig::builder`].
///
/// ```
/// use aging_serve::server::ServeConfig;
/// use aging_stream::supervisor::CounterDetector;
/// use aging_stream::detector::DetectorSpec;
/// use aging_core::detector::DetectorConfig;
/// use aging_memsim::Counter;
///
/// let cfg = ServeConfig::builder(vec![CounterDetector {
///     counter: Counter::AvailableBytes,
///     spec: DetectorSpec::Holder(DetectorConfig::default()),
/// }])
/// .window(16)
/// .expected_machines(Some(4))
/// .build()
/// .unwrap();
/// assert_eq!(cfg.window, 16);
/// // Invalid tunings are caught at build time:
/// assert!(ServeConfig::builder(vec![]).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the per-counter → machine alarm fusion rule.
    pub fn fusion(mut self, fusion: FusionRule) -> Self {
        self.cfg.fusion = fusion;
        self
    }

    /// Sets the defect gate applied to every stream.
    pub fn gate(mut self, gate: GateConfig) -> Self {
        self.cfg.gate = gate;
        self
    }

    /// Sets the maximum accepted frame payload, bytes.
    pub fn max_frame_bytes(mut self, bytes: u32) -> Self {
        self.cfg.max_frame_bytes = bytes;
        self
    }

    /// Sets the credit window (max unacked batches in flight).
    pub fn window(mut self, window: u16) -> Self {
        self.cfg.window = window;
        self
    }

    /// Sets the consecutive-malformed-frame quarantine threshold.
    pub fn quarantine_after(mut self, strikes: u32) -> Self {
        self.cfg.quarantine_after = strikes;
        self
    }

    /// Sets the socket read poll interval, ms.
    pub fn read_poll_ms(mut self, ms: u64) -> Self {
        self.cfg.read_poll_ms = ms;
        self
    }

    /// Sets the idle-session stall timeout, ms.
    pub fn stall_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.stall_timeout_ms = ms;
        self
    }

    /// Sets the socket write timeout, ms.
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.write_timeout_ms = ms;
        self
    }

    /// Sets the max events per `AlarmsReply` chunk.
    pub fn alarm_chunk(mut self, chunk: u16) -> Self {
        self.cfg.alarm_chunk = chunk;
        self
    }

    /// Sets the release hold: alarm releases wait until this many
    /// machines have registered.
    pub fn expected_machines(mut self, machines: Option<u64>) -> Self {
        self.cfg.expected_machines = machines;
        self
    }

    /// Sets the shard identity advertised in `AlarmsReply` frames.
    pub fn shard_id(mut self, shard: u64) -> Self {
        self.cfg.shard_id = shard;
        self
    }

    /// Enables crash-safe persistence backed by the given store.
    pub fn store(mut self, store: Option<StoreConfig>) -> Self {
        self.cfg.store = store;
        self
    }

    /// Sets the rejuvenation policy answered by `QueryRejuv`.
    pub fn rejuv(mut self, rejuv: Option<RejuvConfig>) -> Self {
        self.cfg.rejuv = rejuv;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Everything [`ServeConfig::validate`] rejects: empty detectors,
    /// `max_frame_bytes < 64`, zero window/threshold/chunk, invalid
    /// gate/detector/store tunings.
    pub fn build(self) -> Result<ServeConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Wire-level counters, serialised inside [`ServeStatus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Sessions fully closed.
    pub sessions_closed: u64,
    /// Text-mode sessions among them.
    pub text_sessions: u64,
    /// CRC-verified frames received.
    pub frames: u64,
    /// Batch frames among them.
    pub batches: u64,
    /// Ingestion records received (batched or text).
    pub records: u64,
    /// Records rejected for an unknown counter code.
    pub records_rejected: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Advisory `Busy` frames sent.
    pub busy_sent: u64,
    /// Intact frames (or text lines) whose payload failed to parse.
    pub malformed_frames: u64,
    /// Connections whose framing integrity was lost (bad length prefix,
    /// CRC mismatch, truncation).
    pub corrupt_streams: u64,
    /// Clients quarantined (corrupt stream or strike threshold).
    pub quarantined: u64,
    /// Sessions that panicked (caught; the server keeps serving).
    pub session_panics: u64,
    /// Query frames answered.
    pub queries: u64,
}

impl WireCounters {
    /// Every counter, in the order an engine snapshot stores them.
    fn fields_mut(&mut self) -> [&mut u64; 14] {
        [
            &mut self.connections,
            &mut self.sessions_closed,
            &mut self.text_sessions,
            &mut self.frames,
            &mut self.batches,
            &mut self.records,
            &mut self.records_rejected,
            &mut self.acks_sent,
            &mut self.busy_sent,
            &mut self.malformed_frames,
            &mut self.corrupt_streams,
            &mut self.quarantined,
            &mut self.session_panics,
            &mut self.queries,
        ]
    }

    /// Adds every counter of `other` to this one.
    fn add(&mut self, other: &WireCounters) {
        let mut other = *other;
        for (mine, theirs) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
    }

    /// Appends every counter as a little-endian `u64`, in the order an
    /// engine snapshot stores them; the binary status frame leads with
    /// the same bytes.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        let mut counters = *self;
        for v in counters.fields_mut() {
            persist::put_u64(out, *v);
        }
    }

    /// Restores counters written by [`WireCounters::encode_state`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on a truncated blob.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        for field in self.fields_mut() {
            *field = r.u64()?;
        }
        Ok(())
    }
}

/// The document answering a status query: wire counters plus the same
/// fleet [`Snapshot`] schema the in-process supervisor dumps. It travels
/// as JSON on v1 and v2 sessions and in text mode, and as the binary
/// [`Frame::Status`] on v3.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStatus {
    /// Wire-level counters.
    pub wire: WireCounters,
    /// Fleet-level pipeline snapshot.
    pub fleet: Snapshot,
}

/// Durability counters for a store-backed server (E15's raw material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistStats {
    /// Highest journal entry id ever assigned (monotonic across
    /// restarts of the same store directory).
    pub entries_journaled: u64,
    /// Journal bytes appended by *this* server process.
    pub journal_appended_bytes: u64,
    /// Snapshots committed by this server process.
    pub snapshots_committed: u64,
}

/// Everything a server produced, returned by [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The full released alarm history, globally ordered by
    /// `(time, machine_id, emission)`.
    pub events: Vec<ServeEvent>,
    /// Final fleet snapshot.
    pub status: Snapshot,
    /// Final wire counters.
    pub wire: WireCounters,
    /// Final per-machine snapshots, in machine-id order.
    pub machines: Vec<MachineSnapshot>,
    /// Durability counters, `None` for a memory-only server.
    pub persist: Option<PersistStats>,
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// Everything status and alarm queries read, behind its own short lock.
///
/// The engine publishes here at the end of every [`Engine::release`], so
/// a query never waits behind ingest. Locks are taken engine → read side,
/// never the reverse, and this lock is never held across socket I/O,
/// JSON encoding or pipeline work: a query copies out what it answers
/// with, and encodes it after the lock drops.
struct ReadSide {
    /// The released alarm history, globally ordered by
    /// `(time, machine_id, emission)`.
    released: Vec<ServeEvent>,
    /// The release frontier advertised in `AlarmsReply`, written under
    /// the same lock as `released`: every released event at or below it
    /// is already in `released`, and no future release will be at or
    /// below it. `-inf` while the expected-machines hold is active (or
    /// nothing registered); `+inf` once every known feed has finished —
    /// the per-shard drain barrier.
    watermark_secs: f64,
    /// The fleet status as of the last release; each status read stamps
    /// its own `sequence`.
    fleet: Snapshot,
    /// Status documents handed out so far.
    status_seq: u64,
    /// Wire-level counters.
    wire: WireCounters,
}

impl ReadSide {
    /// The next status document, stamped with a fresh sequence number.
    fn status(&mut self) -> ServeStatus {
        self.status_seq += 1;
        let mut fleet = self.fleet.clone();
        fleet.sequence = self.status_seq;
        ServeStatus {
            wire: self.wire,
            fleet,
        }
    }

    /// Up to `chunk` released events from `since`, with the history
    /// length and the frontier they were read with: `(total, watermark,
    /// events)`.
    fn alarms_since(&self, since: u64, chunk: u16) -> (u64, f64, Vec<ServeEvent>) {
        let total = self.released.len() as u64;
        let start = since.min(total) as usize;
        let end = (start + usize::from(chunk)).min(self.released.len());
        (
            total,
            self.watermark_secs,
            self.released[start..end].to_vec(),
        )
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct MachineEntry {
    name: String,
    pipeline: MachinePipeline,
    /// Session currently feeding this machine; when that session closes
    /// the feed is finished (a later session may resume it).
    session: u64,
}

struct Engine {
    detectors: Vec<CounterDetector>,
    fusion: FusionRule,
    gate: GateConfig,
    /// Release hold until this many machines registered (see
    /// [`ServeConfig::expected_machines`]); cleared by the final drain.
    expected_machines: Option<u64>,
    machines: BTreeMap<u64, MachineEntry>,
    /// Single-source watermark merge: the fleet watermark (computed from
    /// the machine pipelines) advances source 0, and its monotone
    /// frontier doubles as the watermark advertised to aggregators.
    pending: WatermarkMerger<ServeEvent>,
    /// Events the current release popped, on their way to the read side.
    ready: Vec<ServeEvent>,
    seq: u64,
    warnings: u64,
    alarms: u64,
    scratch: Vec<PipelineEvent>,
    /// The journal entry a commit builds, kept between commits.
    entry: Vec<u8>,
    /// Crash-safe journal + snapshot backing; `None` = memory-only.
    store: Option<Store>,
    /// Shadow-advisory policy for `QueryRejuv` (never restarts anything).
    rejuv: Option<RejuvConfig>,
    /// What status and alarm queries read, refreshed by every release.
    read: Arc<Mutex<ReadSide>>,
}

impl Engine {
    fn new(cfg: &ServeConfig) -> Engine {
        let machines = BTreeMap::new();
        let read = ReadSide {
            released: Vec::new(),
            watermark_secs: f64::NEG_INFINITY,
            fleet: fleet_status(&machines, 0, 0, 0),
            status_seq: 0,
            wire: WireCounters::default(),
        };
        Engine {
            detectors: cfg.detectors.clone(),
            fusion: cfg.fusion,
            gate: cfg.gate,
            expected_machines: cfg.expected_machines,
            machines,
            pending: WatermarkMerger::new(1),
            ready: Vec::new(),
            seq: 0,
            warnings: 0,
            alarms: 0,
            scratch: Vec::new(),
            entry: Vec::new(),
            store: None,
            rejuv: cfg.rejuv,
            read: Arc::new(Mutex::new(read)),
        }
    }

    /// Moves everything the last pipeline call emitted into the pending
    /// heap, stamping the global emission sequence.
    fn enqueue(&mut self, machine_id: u64) {
        for pe in self.scratch.drain(..) {
            self.seq += 1;
            self.pending.push(
                MergeKey {
                    time_secs: pe.time_secs,
                    lane: machine_id,
                    seq: self.seq,
                },
                ServeEvent {
                    machine_id,
                    time_secs: pe.time_secs,
                    level: pe.level,
                    kind: pe.kind,
                },
            );
        }
    }

    /// The machine's entry, created on first contact and re-owned by the
    /// feeding session.
    fn machine_entry(&mut self, session: u64, machine_id: u64) -> &mut MachineEntry {
        if !self.machines.contains_key(&machine_id) {
            // Validated at bind time, so construction cannot fail here.
            let pipeline = MachinePipeline::new(&self.detectors, self.fusion, self.gate)
                .expect("config validated at bind");
            self.machines.insert(
                machine_id,
                MachineEntry {
                    name: format!("m{machine_id:03}"),
                    pipeline,
                    session,
                },
            );
        }
        let entry = self
            .machines
            .get_mut(&machine_id)
            .expect("present or just inserted");
        entry.session = session;
        entry
    }

    /// Feeds one record; `false` when it was rejected (unknown counter
    /// code). Creates the machine's pipeline on first contact.
    fn ingest(&mut self, session: u64, rec: Record) -> bool {
        let Some(counter) = Counter::from_code(rec.counter) else {
            return false;
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.machine_entry(session, rec.machine_id).pipeline.ingest(
            counter,
            StreamSample {
                time_secs: rec.time_secs,
                value: rec.value,
            },
            &mut scratch,
        );
        self.scratch = scratch;
        self.enqueue(rec.machine_id);
        true
    }

    /// Applies one columnar batch — counters, the pipeline's slice-driven
    /// [`MachinePipeline::ingest_column`], release — and returns the
    /// accepted record count (`0` for an unknown counter code: a column
    /// carries one code, so rejection is all-or-nothing). Shared verbatim
    /// by the live wire path and [`ENTRY_COLUMN`] journal replay.
    fn apply_column(
        &mut self,
        session: u64,
        machine_id: u64,
        counter: u8,
        times: &[f64],
        values: &[f64],
    ) -> u16 {
        let n = times.len().min(values.len());
        let mut counted = WireCounters {
            batches: 1,
            records: n as u64,
            ..WireCounters::default()
        };
        let Some(counter) = Counter::from_code(counter) else {
            counted.records_rejected = n as u64;
            self.release(&counted);
            return 0;
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.machine_entry(session, machine_id)
            .pipeline
            .ingest_column(counter, times, values, &mut scratch);
        self.scratch = scratch;
        self.enqueue(machine_id);
        self.release(&counted);
        n.min(usize::from(u16::MAX)) as u16
    }

    /// Applies one batch of records: counters, ingestion, release.
    /// Shared verbatim by the live wire path and journal replay, so a
    /// recovered engine reconstructs the exact same state (including the
    /// global emission sequence) the live run produced.
    fn apply_batch(&mut self, session: u64, records: &[Record], counts_batch: bool) -> u16 {
        let mut accepted = 0u16;
        let mut rejected = 0u64;
        for rec in records {
            if self.ingest(session, *rec) {
                accepted = accepted.saturating_add(1);
            } else {
                rejected += 1;
            }
        }
        self.release(&WireCounters {
            batches: u64::from(counts_batch),
            records: records.len() as u64,
            records_rejected: rejected,
            ..WireCounters::default()
        });
        accepted
    }

    /// Finishes one machine's feed (idempotent; shared by live path and
    /// journal replay).
    fn apply_finish(&mut self, machine_id: u64) {
        if let Some(entry) = self.machines.get_mut(&machine_id) {
            entry.pipeline.finish(&mut self.scratch);
            self.enqueue(machine_id);
        }
        self.release(&WireCounters::default());
    }

    /// Finishes every machine the closing session was feeding, so a dead
    /// client cannot hold the global watermark hostage.
    fn session_closed(&mut self, session: u64) {
        let ids: Vec<u64> = self
            .machines
            .iter()
            .filter(|(_, e)| e.session == session && !e.pipeline.is_finished())
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            let entry = self.machines.get_mut(&id).expect("listed above");
            entry.pipeline.finish(&mut self.scratch);
            self.enqueue(id);
            // Best effort: there is no peer left to report a journal
            // failure to, and an unjournaled finish only re-opens the
            // feed on recovery (the resuming client finishes it again).
            let _ = self.persist_finish(id);
        }
        self.release(&WireCounters::default());
    }

    // -- durable ingest: apply, then journal, then the snapshot cadence ----
    //
    // Every input that changes the engine goes through one of the three
    // `commit_*` methods under the caller's one engine lock, so the
    // journal is a linearisation of engine mutations. On a journal error
    // the input stays applied but must not be acknowledged.

    /// Applies `records`, journals them as a `kind` entry
    /// ([`ENTRY_BATCH`] or [`ENTRY_TEXT`]) and runs the snapshot cadence;
    /// returns the accepted record count.
    fn commit_records(
        &mut self,
        session: u64,
        kind: u8,
        records: &[Record],
    ) -> aging_store::Result<u16> {
        let accepted = self.apply_batch(session, records, kind == ENTRY_BATCH);
        if let Some(store) = self.store.as_mut() {
            let payload = &mut self.entry;
            payload.clear();
            persist::put_u8(payload, kind);
            persist::put_u32(payload, records.len() as u32);
            for rec in records {
                rec.put(payload);
            }
            store.append(payload)?;
        }
        self.maybe_snapshot();
        Ok(accepted)
    }

    /// Applies one columnar batch, journals it as an [`ENTRY_COLUMN`]
    /// with its timestamps already expanded (so replay feeds
    /// [`Engine::apply_column`] the identical `f64` column) and runs the
    /// snapshot cadence; returns the accepted record count.
    fn commit_column(
        &mut self,
        session: u64,
        machine_id: u64,
        counter: u8,
        times: &[f64],
        values: &[f64],
    ) -> aging_store::Result<u16> {
        let accepted = self.apply_column(session, machine_id, counter, times, values);
        if let Some(store) = self.store.as_mut() {
            let n = times.len().min(values.len());
            let payload = &mut self.entry;
            payload.clear();
            persist::put_u8(payload, ENTRY_COLUMN);
            persist::put_u64(payload, machine_id);
            persist::put_u8(payload, counter);
            persist::put_u32(payload, n as u32);
            for (&t, &v) in times[..n].iter().zip(&values[..n]) {
                persist::put_f64(payload, t);
                persist::put_f64(payload, v);
            }
            store.append(payload)?;
        }
        self.maybe_snapshot();
        Ok(accepted)
    }

    /// Finishes one machine's feed, journals an [`ENTRY_FINISH`] and runs
    /// the snapshot cadence.
    fn commit_finish(&mut self, machine_id: u64) -> aging_store::Result<()> {
        self.apply_finish(machine_id);
        self.persist_finish(machine_id)?;
        self.maybe_snapshot();
        Ok(())
    }

    // -- persistence ------------------------------------------------------

    /// Journals a feed-finish entry (no-op for a memory-only engine).
    fn persist_finish(&mut self, machine_id: u64) -> aging_store::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let payload = &mut self.entry;
        payload.clear();
        persist::put_u8(payload, ENTRY_FINISH);
        persist::put_u64(payload, machine_id);
        store.append(payload)?;
        Ok(())
    }

    /// Commits a snapshot when the journal cadence says one is due. A
    /// failed commit is tolerated: the journal remains authoritative and
    /// recovery just replays a longer suffix.
    fn maybe_snapshot(&mut self) {
        if !self.store.as_ref().is_some_and(Store::snapshot_due) {
            return;
        }
        let blob = self.encode_snapshot_blob();
        if let Some(store) = self.store.as_mut() {
            let _ = store.commit_snapshot(&blob);
        }
    }

    /// Serialises the complete engine state — machines, pending heap,
    /// the read side's released history, sequence and wire counters —
    /// into one deterministic blob (pending events sorted by their
    /// release order).
    fn encode_snapshot_blob(&self) -> Vec<u8> {
        let mut out = Vec::new();
        persist::put_u8(&mut out, SNAPSHOT_VERSION);
        persist::put_u64(&mut out, self.machines.len() as u64);
        let mut state = Vec::new();
        for (&id, entry) in &self.machines {
            persist::put_u64(&mut out, id);
            persist::put_str(&mut out, &entry.name);
            state.clear();
            entry.pipeline.encode_state(&mut state);
            persist::put_bytes(&mut out, &state);
        }
        let mut pend: Vec<(&MergeKey, &ServeEvent)> = self.pending.iter().collect();
        pend.sort_by(|(a, _), (b, _)| {
            a.time_secs
                .total_cmp(&b.time_secs)
                .then_with(|| a.lane.cmp(&b.lane))
                .then_with(|| a.seq.cmp(&b.seq))
        });
        persist::put_u64(&mut out, pend.len() as u64);
        for (key, event) in pend {
            persist::put_u64(&mut out, key.seq);
            state.clear();
            encode_event(event, &mut state);
            persist::put_bytes(&mut out, &state);
        }
        let read = lock(&self.read);
        persist::put_bytes(&mut out, &encode_events(&read.released));
        persist::put_u64(&mut out, self.seq);
        persist::put_u64(&mut out, read.status_seq);
        persist::put_u64(&mut out, self.warnings);
        persist::put_u64(&mut out, self.alarms);
        read.wire.encode_state(&mut out);
        out
    }

    /// Rebuilds the engine from a snapshot blob. Restored machines carry
    /// session id 0 (live sessions start at 1), so no running session
    /// owns them until a resuming client sends its next record.
    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<()> {
        let mut r = Reader::new(blob);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::invalid(
                "snapshot",
                format!("unsupported snapshot version {version}"),
            ));
        }
        // A machine is its id, then the length words of its name and state.
        let machines = r.count(Reader::u64, 8 + 8 + 8)?;
        self.machines.clear();
        for _ in 0..machines {
            let id = r.u64()?;
            let name = r.str_()?;
            let mut state = Reader::new(r.bytes()?);
            let mut pipeline = MachinePipeline::new(&self.detectors, self.fusion, self.gate)?;
            pipeline.restore_state(&mut state)?;
            state.finish()?;
            self.machines.insert(
                id,
                MachineEntry {
                    name,
                    pipeline,
                    session: 0,
                },
            );
        }
        // A pending event is its sequence, then its length word.
        let pending = r.count(Reader::u64, 8 + 8)?;
        self.pending = WatermarkMerger::new(1);
        for _ in 0..pending {
            let seq = r.u64()?;
            let mut er = Reader::new(r.bytes()?);
            let event = decode_event(&mut er)?;
            er.finish()?;
            self.pending.push(
                MergeKey {
                    time_secs: event.time_secs,
                    lane: event.machine_id,
                    seq,
                },
                event,
            );
        }
        let released = read_events(r.bytes()?)?;
        self.seq = r.u64()?;
        let status_seq = r.u64()?;
        self.warnings = r.u64()?;
        self.alarms = r.u64()?;
        let mut wire = WireCounters::default();
        wire.restore_state(&mut r)?;
        r.finish()?;
        let mut read = lock(&self.read);
        read.released = released;
        read.status_seq = status_seq;
        read.wire = wire;
        Ok(())
    }

    /// Replays one journal entry through the same `apply_*` paths the
    /// live wire uses. A declared count is checked against the bytes left
    /// before anything is allocated for it: a CRC-valid entry may still
    /// lie.
    fn apply_journal_entry(&mut self, payload: &[u8]) -> Result<()> {
        let mut r = Reader::new(payload);
        match r.u8()? {
            kind @ (ENTRY_BATCH | ENTRY_TEXT) => {
                let n = r.count(Reader::u32, RECORD_BYTES)?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(Record::read(&mut r)?);
                }
                r.finish()?;
                self.apply_batch(0, &records, kind == ENTRY_BATCH);
            }
            ENTRY_COLUMN => {
                let machine_id = r.u64()?;
                let counter = r.u8()?;
                let n = r.count(Reader::u32, ENTRY_SAMPLE_BYTES)?;
                let mut times = Vec::with_capacity(n);
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    times.push(r.f64()?);
                    values.push(r.f64()?);
                }
                r.finish()?;
                self.apply_column(0, machine_id, counter, &times, &values);
            }
            ENTRY_FINISH => {
                let machine_id = r.u64()?;
                r.finish()?;
                self.apply_finish(machine_id);
            }
            other => {
                return Err(Error::invalid(
                    "journal",
                    format!("unknown journal entry kind {other}"),
                ))
            }
        }
        Ok(())
    }

    /// Rebuilds engine state from what [`Store::open`] found on disk:
    /// snapshot first (if any), then the surviving journal suffix in
    /// entry order.
    fn recover(&mut self, recovery: &Recovery) -> std::result::Result<(), String> {
        if let Some(blob) = &recovery.snapshot {
            self.restore_snapshot(blob)
                .map_err(|e| format!("snapshot: {e}"))?;
        }
        for entry in &recovery.entries {
            self.apply_journal_entry(&entry.payload)
                .map_err(|e| format!("journal entry {}: {e}", entry.id))?;
        }
        Ok(())
    }

    fn persist_stats(&self) -> Option<PersistStats> {
        self.store.as_ref().map(|s| PersistStats {
            entries_journaled: s.last_entry_id(),
            journal_appended_bytes: s.appended_bytes(),
            snapshots_committed: s.snapshots_committed(),
        })
    }

    /// Moves every pending event at or below the fleet watermark (the
    /// minimum completed tick over unfinished machines) into the released
    /// history, then publishes to the read side on every path: the
    /// released events together with the frontier, the fleet status, and
    /// `counted` added to the wire counters.
    fn release(&mut self, counted: &WireCounters) {
        // With a fleet-size expectation, the watermark is meaningless
        // until everyone has checked in — a machine the server has never
        // heard from cannot hold it down.
        let held = self
            .expected_machines
            .is_some_and(|n| (self.machines.len() as u64) < n)
            // No expectation and no machine yet: an empty minimum would
            // read as +inf, which is not a promise this server can keep
            // (the first feeder may start anywhere in time). Keep the
            // frontier at -inf.
            || (self.machines.is_empty() && self.expected_machines.is_none());
        if !held {
            let watermark = self
                .machines
                .values()
                .filter(|e| !e.pipeline.is_finished())
                .map(|e| e.pipeline.completed_time_secs())
                .fold(f64::INFINITY, f64::min);
            // The merger keeps the running maximum, so a recovered engine
            // (whose pipelines replay from an older completed tick) cannot
            // regress the advertised frontier.
            self.pending.advance(0, watermark);
            while let Some(event) = self.pending.pop_ready() {
                match event.level {
                    AlertLevel::Warning => self.warnings += 1,
                    AlertLevel::Alarm => self.alarms += 1,
                }
                self.ready.push(event);
            }
        }
        // The fleet status is built before the read-side lock is taken.
        let fleet = fleet_status(
            &self.machines,
            self.warnings,
            self.alarms,
            self.pending.len(),
        );
        let mut read = lock(&self.read);
        read.released.append(&mut self.ready);
        read.watermark_secs = self.pending.frontier();
        read.fleet = fleet;
        read.wire.add(counted);
    }

    /// Finishes every feed and releases everything — shutdown drain.
    fn drain_all(&mut self) {
        // The drain must empty the heap even if fewer machines than
        // expected ever showed up.
        self.expected_machines = None;
        let ids: Vec<u64> = self.machines.keys().copied().collect();
        for id in ids {
            let entry = self.machines.get_mut(&id).expect("listed above");
            entry.pipeline.finish(&mut self.scratch);
            self.enqueue(id);
        }
        self.release(&WireCounters::default());
        debug_assert!(self.pending.is_empty());
    }

    fn machine_snapshot(&self, machine_id: u64) -> Option<MachineSnapshot> {
        self.machines
            .get(&machine_id)
            .map(|e| e.pipeline.snapshot(machine_id, &e.name))
    }

    /// Shadow rejuvenation advisory for one machine: replays the
    /// configured policy over the machine's released alarm history
    /// through a real [`RejuvController`] and reports
    /// `(policy code, restarts, denied, last restart time)`. `None`
    /// when the machine is unknown. Purely observational — nothing is
    /// restarted; operators use this to vet a policy against live
    /// alarms before enabling it in the supervisor's closed loop.
    fn rejuv_advice(&self, machine_id: u64) -> Option<(u8, u64, u64, Option<f64>)> {
        let entry = self.machines.get(&machine_id)?;
        let Some(cfg) = self.rejuv else {
            return Some((RejuvPolicy::None.code(), 0, 0, None));
        };
        // Validated at bind time, so construction cannot fail here.
        let mut controller = RejuvController::new(cfg, 1).expect("rejuv config validated at bind");
        match cfg.policy {
            RejuvPolicy::None => {}
            RejuvPolicy::Periodic { period_secs } => {
                // One request per elapsed interval up to the machine's
                // completed tick (what the cron-style baseline would
                // have done by now).
                let end = entry
                    .pipeline
                    .tick_time_secs()
                    .unwrap_or_else(|| entry.pipeline.completed_time_secs());
                if end.is_finite() {
                    let mut t = period_secs;
                    while t <= end {
                        let _ = controller.decide(&RestartRequest {
                            machine_index: 0,
                            time_secs: t,
                            reason: RestartReason::Periodic,
                        });
                        t += period_secs;
                    }
                }
            }
            RejuvPolicy::AlarmTriggered => {
                // Copied out under the read-side lock, decided after it.
                let alarms: Vec<f64> = lock(&self.read)
                    .released
                    .iter()
                    .filter(|e| {
                        e.machine_id == machine_id
                            && matches!(e.kind, AlarmKind::MachineAlarm { .. })
                    })
                    .map(|e| e.time_secs)
                    .collect();
                for time_secs in alarms {
                    let _ = controller.decide(&RestartRequest {
                        machine_index: 0,
                        time_secs,
                        reason: RestartReason::Alarm,
                    });
                }
            }
        }
        Some((
            cfg.policy.code(),
            controller.granted(),
            controller.denied_cooldown() + controller.denied_budget(),
            controller.last_restart_secs(0),
        ))
    }

    /// Latest streaming Δα per counter for one machine, in wire form
    /// (counter code, width). `None` when the machine is unknown.
    fn spectrum_widths(&self, machine_id: u64) -> Option<Vec<(u8, f64)>> {
        self.machines.get(&machine_id).map(|e| {
            e.pipeline
                .spectrum_widths()
                .into_iter()
                .map(|(counter, width)| (counter.code(), width))
                .collect()
        })
    }
}

/// The fleet status over every machine, with `sequence` 0: each status
/// read stamps its own ([`ReadSide::status`]).
fn fleet_status(
    machines: &BTreeMap<u64, MachineEntry>,
    warnings: u64,
    alarms: u64,
    alarm_queue_depth: usize,
) -> Snapshot {
    let mut ingestion = StageCounters::default();
    let mut latency = LatencyHistogram::default();
    let mut detector_errors = 0u64;
    let mut live = 0usize;
    let mut finished = 0usize;
    let mut t = 0.0f64;
    for e in machines.values() {
        ingestion.merge(&e.pipeline.counters());
        latency.merge(e.pipeline.latency());
        detector_errors += e.pipeline.detector_errors();
        if e.pipeline.is_finished() {
            finished += 1;
        } else {
            live += 1;
        }
        let machine_t = e
            .pipeline
            .tick_time_secs()
            .unwrap_or_else(|| e.pipeline.completed_time_secs());
        if machine_t.is_finite() {
            t = t.max(machine_t);
        }
    }
    Snapshot {
        sequence: 0,
        stream_time_secs: t,
        machines_live: live,
        machines_finished: finished,
        ingestion,
        detector_latency: latency,
        warnings_emitted: warnings,
        alarms_emitted: alarms,
        alarm_queue_depth,
        telemetry_dropped: 0,
        // The serve tier observes; restarts are issued by the stream
        // supervisor's closed loop, never by this engine.
        restarts_granted: 0,
        restarts_denied: 0,
        detector_errors,
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServeConfig,
    engine: Mutex<Engine>,
    /// The engine's read side, reached without the engine lock.
    read: Arc<Mutex<ReadSide>>,
    shutdown: AtomicBool,
    /// Crash simulation: like `shutdown` but sessions stop *without*
    /// finishing feeds or counting closes — the state left behind is
    /// exactly what a killed process would leave.
    aborted: AtomicBool,
}

impl Shared {
    fn engine(&self) -> MutexGuard<'_, Engine> {
        lock(&self.engine)
    }

    /// Locks the read side. Never lock the engine while holding it.
    fn read_side(&self) -> MutexGuard<'_, ReadSide> {
        lock(&self.read)
    }
}

/// Locks `mutex`, recovering from poisoning: a panicked session (already
/// counted) must not take the whole server down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running ingestion/query server.
///
/// Bind with [`Server::bind`], connect clients to [`Server::local_addr`],
/// and call [`Server::shutdown`] to drain and collect the
/// [`ServeReport`].
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener (use `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`] failures and socket errors
    /// (as [`Error::Io`]).
    pub fn bind(addr: &str, cfg: ServeConfig) -> Result<Server> {
        cfg.validate()?;
        let mut engine = Engine::new(&cfg);
        if let Some(store_cfg) = &cfg.store {
            let (store, recovery) = Store::open(store_cfg.clone())
                .map_err(|e| Error::Io(format!("store open: {e}")))?;
            engine
                .recover(&recovery)
                .map_err(|e| Error::Io(format!("store recovery: {e}")))?;
            engine.store = Some(store);
        }
        // Publish once before any query can arrive, so the first one
        // already sees the recovered history and its frontier.
        engine.release(&WireCounters::default());
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let local_addr = listener.local_addr().map_err(io_err)?;
        let shared = Arc::new(Shared {
            read: Arc::clone(&engine.read),
            engine: Mutex::new(engine),
            cfg,
            shutdown: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(io_err)?;
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live status document (same schema as the wire query reply),
    /// read without waiting on ingest.
    pub fn status(&self) -> ServeStatus {
        self.shared.read_side().status()
    }

    /// Number of alarm-history events released so far.
    pub fn released_events(&self) -> usize {
        self.shared.read_side().released.len()
    }

    /// Live durability counters, `None` for a memory-only server.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.shared.engine().persist_stats()
    }

    /// Kills the server as a crash simulation: sessions stop immediately
    /// without acking buffered batches, finishing feeds, or draining the
    /// pending heap. Nothing is reported — whatever survives lives in
    /// the persistent store, and a subsequent [`Server::bind`] with the
    /// same [`ServeConfig::store`] must reconstruct it.
    pub fn abort(mut self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            if let Ok(sessions) = accept.join() {
                for handle in sessions {
                    let _ = handle.join();
                }
            }
        }
    }

    /// Stops accepting, lets every session drain its buffered frames,
    /// finishes all feeds and returns the full report. Alarms from every
    /// acked batch are present — acks are only sent after the batch has
    /// been ingested by the engine.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            match accept.join() {
                Ok(sessions) => {
                    for handle in sessions {
                        let _ = handle.join();
                    }
                }
                Err(_) => {
                    self.shared.read_side().wire.session_panics += 1;
                }
            }
        }
        let mut engine = self.shared.engine();
        engine.drain_all();
        let machines = engine
            .machines
            .iter()
            .map(|(&id, e)| e.pipeline.snapshot(id, &e.name))
            .collect();
        let mut read = self.shared.read_side();
        ServeReport {
            events: std::mem::take(&mut read.released),
            status: read.status().fleet,
            wire: read.wire,
            machines,
            persist: engine.persist_stats(),
        }
    }
}

/// In-process ingestion: a [`Server`] is itself an [`IngestSink`], so
/// feeders written against the trait can target the serve engine
/// directly — same apply/journal paths as the wire (records journal as
/// text-mode entries, columns as `ENTRY_COLUMN`), no socket. Samples
/// enter under session id `0` (no live session owns the machines), and
/// every call upholds the durability discipline: an `Ok` return means
/// the samples are applied *and* journaled.
impl IngestSink for Server {
    type Error = Error;

    fn ingest_record(
        &mut self,
        machine_id: u64,
        counter: Counter,
        time_secs: f64,
        value: f64,
    ) -> Result<()> {
        let rec = Record {
            machine_id,
            counter: counter.code(),
            time_secs,
            value,
        };
        let committed =
            self.shared
                .engine()
                .commit_records(0, ENTRY_TEXT, std::slice::from_ref(&rec));
        committed.map(drop).map_err(journal_failed)
    }

    fn ingest_column(
        &mut self,
        machine_id: u64,
        counter: Counter,
        times: &[f64],
        values: &[f64],
    ) -> Result<()> {
        let committed =
            self.shared
                .engine()
                .commit_column(0, machine_id, counter.code(), times, values);
        committed.map(drop).map_err(journal_failed)
    }

    fn machine_done(&mut self, machine_id: u64) -> Result<()> {
        let committed = self.shared.engine().commit_finish(machine_id);
        committed.map_err(journal_failed)
    }
}

fn journal_failed(e: StoreError) -> Error {
    Error::Io(format!("journal append failed: {e}"))
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(e.to_string())
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<std::thread::JoinHandle<()>> {
    let mut sessions = Vec::new();
    let mut session_id = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                session_id += 1;
                let id = session_id;
                shared.read_side().wire.connections += 1;
                let session_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("serve-session-{id}"))
                    .spawn(move || session_thread(&session_shared, &stream, id));
                match handle {
                    Ok(h) => sessions.push(h),
                    Err(_) => {
                        shared.read_side().wire.sessions_closed += 1;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    sessions
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Why a session ended.
enum SessionEnd {
    /// Clean close (EOF, `Bye`, shutdown, idle timeout).
    Clean,
    /// The peer was quarantined; `corrupt` marks lost framing integrity
    /// (vs. a strike threshold reached on intact frames).
    Quarantined { corrupt: bool },
}

fn session_thread(shared: &Arc<Shared>, stream: &TcpStream, session_id: u64) {
    let end = catch_unwind(AssertUnwindSafe(|| run_session(shared, stream, session_id)));
    if shared.aborted.load(Ordering::SeqCst) {
        // Crash simulation: no close accounting, no feed finishing —
        // the machines this session fed stay unfinished, exactly as a
        // killed process would leave them.
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    shared.engine().session_closed(session_id);
    let mut read = shared.read_side();
    match end {
        Ok(SessionEnd::Clean) => {}
        Ok(SessionEnd::Quarantined { corrupt }) => {
            read.wire.quarantined += 1;
            if corrupt {
                read.wire.corrupt_streams += 1;
            }
        }
        Err(_) => {
            read.wire.session_panics += 1;
            read.wire.quarantined += 1;
        }
    }
    read.wire.sessions_closed += 1;
    drop(read);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Bytes a binary session's [`Outbox`] may hold before it is written in
/// the middle of a read burst.
const OUTBOX_FLUSH_BYTES: usize = 64 * 1024;

/// A binary session's replies, queued in wire order and written with one
/// `write_all` per read burst.
///
/// Every frame the session sends is appended here, encoded in place.
/// The session writes the outbox before each blocking read, so a client
/// waiting on a reply never waits on the server's next read, and once
/// more when it ends, whatever the reason. The outbox also writes itself
/// as soon as it holds [`OUTBOX_FLUSH_BYTES`], which bounds its memory
/// by that plus one frame.
struct Outbox<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> Outbox<W> {
    fn new(out: W) -> Self {
        Outbox {
            out,
            buf: Vec::new(),
        }
    }

    /// Queues one frame behind those already queued.
    fn push(&mut self, frame: &Frame) {
        append_frame(frame, &mut self.buf);
        if self.buf.len() >= OUTBOX_FLUSH_BYTES {
            self.flush();
        }
    }

    /// Writes everything queued and empties the outbox, whether or not
    /// the write succeeded: a failed write means the peer is gone or has
    /// not read for the whole write timeout, and the session never
    /// retries a reply.
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let _ = self.out.write_all(&self.buf);
            self.buf.clear();
        }
    }
}

fn send_line(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    stream.write_all(&out)
}

enum ReadOutcome {
    Data(usize),
    Eof,
    Timeout,
    Err,
}

fn read_some(mut stream: &TcpStream, buf: &mut [u8]) -> ReadOutcome {
    match stream.read(buf) {
        Ok(0) => ReadOutcome::Eof,
        Ok(n) => ReadOutcome::Data(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            ReadOutcome::Timeout
        }
        Err(_) => ReadOutcome::Err,
    }
}

/// Reads the first bytes, decides binary vs text mode, then runs the
/// session to completion.
fn run_session(shared: &Arc<Shared>, stream: &TcpStream, session_id: u64) -> SessionEnd {
    let cfg = &shared.cfg;
    let poll = Duration::from_millis(cfg.read_poll_ms.max(1));
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);

    // Mode detection: accumulate until the prefix diverges from the text
    // preamble or covers it entirely.
    let mut first = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let started = Instant::now();
    let is_text = loop {
        let matched = first
            .iter()
            .zip(TEXT_PREAMBLE.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if matched < first.len().min(TEXT_PREAMBLE.len()) {
            break false; // diverged: binary framing
        }
        if first.len() >= TEXT_PREAMBLE.len() {
            break true; // full preamble matched
        }
        match read_some(stream, &mut buf) {
            ReadOutcome::Data(n) => first.extend_from_slice(&buf[..n]),
            ReadOutcome::Eof => return SessionEnd::Clean, // nothing useful sent
            ReadOutcome::Timeout => {
                if shared.shutdown.load(Ordering::SeqCst) || started.elapsed() >= stall {
                    return SessionEnd::Clean;
                }
            }
            ReadOutcome::Err => return SessionEnd::Clean,
        }
    };

    if is_text {
        shared.read_side().wire.text_sessions += 1;
        let rest = first[TEXT_PREAMBLE.len()..].to_vec();
        run_text_session(shared, stream, session_id, &rest, &mut buf)
    } else {
        run_binary_session(shared, stream, session_id, &first, &mut buf)
    }
}

enum FrameOutcome {
    Continue,
    Close,
    /// An intact frame that violates session rules (e.g. a columnar
    /// batch on a v1-negotiated session): reported like a malformed
    /// payload, counting a strike.
    Malformed(String),
}

/// Per-session mutable state for a binary session.
struct SessionState {
    /// Negotiated protocol version. Starts at [`PROTOCOL_VERSION`] (v1)
    /// so a client that skips `Hello` gets baseline semantics; the
    /// handshake raises it to `min(client, PROTOCOL_VERSION_V3)`.
    version: u8,
    /// Reused expansion buffer for columnar timestamps.
    times: Vec<f64>,
}

fn run_binary_session(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    session_id: u64,
    initial: &[u8],
    buf: &mut [u8],
) -> SessionEnd {
    let mut outbox = Outbox::new(stream);
    let end = serve_frames(shared, stream, &mut outbox, session_id, initial, buf);
    // Every way out of the loop — quarantine, `Bye`, abort, EOF, stall —
    // still delivers the replies queued before it.
    outbox.flush();
    end
}

/// The binary session loop: decodes every complete frame a read brought
/// in, queues the replies in `outbox`, and writes them before blocking on
/// the next read.
fn serve_frames(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    outbox: &mut Outbox<&TcpStream>,
    session_id: u64,
    initial: &[u8],
    buf: &mut [u8],
) -> SessionEnd {
    let cfg = &shared.cfg;
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let mut dec = FrameDecoder::new(cfg.max_frame_bytes);
    dec.feed(initial);
    maybe_busy(shared, outbox, &dec);
    let mut sess = SessionState {
        version: PROTOCOL_VERSION,
        times: Vec::new(),
    };
    let mut strikes = 0u32;
    let mut last_activity = Instant::now();

    loop {
        // Drain every complete frame currently buffered.
        loop {
            match dec.next_payload_ref() {
                Err(corrupt) => {
                    outbox.push(&Frame::Error {
                        code: ERR_QUARANTINED,
                        message: corrupt.reason,
                    });
                    return SessionEnd::Quarantined { corrupt: true };
                }
                Ok(None) => break,
                Ok(Some(payload)) => {
                    shared.read_side().wire.frames += 1;
                    let outcome = match Frame::decode_payload(payload) {
                        Err(reason) => FrameOutcome::Malformed(reason),
                        Ok(frame) => handle_frame(shared, outbox, session_id, &mut sess, frame),
                    };
                    match outcome {
                        FrameOutcome::Continue => strikes = 0,
                        FrameOutcome::Close => return SessionEnd::Clean,
                        FrameOutcome::Malformed(reason) => {
                            strikes += 1;
                            shared.read_side().wire.malformed_frames += 1;
                            outbox.push(&Frame::Error {
                                code: ERR_MALFORMED,
                                message: reason,
                            });
                            if strikes >= cfg.quarantine_after {
                                outbox.push(&Frame::Error {
                                    code: ERR_QUARANTINED,
                                    message: format!("{strikes} consecutive malformed frames"),
                                });
                                return SessionEnd::Quarantined { corrupt: false };
                            }
                        }
                    }
                }
            }
        }

        outbox.flush();
        match read_some(stream, buf) {
            ReadOutcome::Data(n) => {
                last_activity = Instant::now();
                dec.feed(&buf[..n]);
                maybe_busy(shared, outbox, &dec);
            }
            ReadOutcome::Eof => {
                // All complete frames were processed above; dying with a
                // partial frame on the wire is a truncation.
                if dec.mid_frame() {
                    return SessionEnd::Quarantined { corrupt: true };
                }
                return SessionEnd::Clean;
            }
            ReadOutcome::Timeout => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Graceful drain: everything buffered was already
                    // processed and acked before we got here.
                    return SessionEnd::Clean;
                }
                if last_activity.elapsed() >= stall {
                    if dec.mid_frame() {
                        return SessionEnd::Quarantined { corrupt: true };
                    }
                    return SessionEnd::Clean;
                }
            }
            ReadOutcome::Err => return SessionEnd::Clean,
        }
    }
}

/// Queues an advisory `Busy` frame when a read burst left more complete
/// frames buffered than the advertised credit window. It goes ahead of
/// the burst's acks and is written with them.
fn maybe_busy(shared: &Arc<Shared>, outbox: &mut Outbox<&TcpStream>, dec: &FrameDecoder) {
    let backlog = dec.buffered_frames();
    if backlog > u32::from(shared.cfg.window) {
        outbox.push(&Frame::Busy { backlog });
        shared.read_side().wire.busy_sent += 1;
    }
}

fn handle_frame(
    shared: &Arc<Shared>,
    outbox: &mut Outbox<&TcpStream>,
    session_id: u64,
    sess: &mut SessionState,
    frame: Frame,
) -> FrameOutcome {
    let cfg = &shared.cfg;
    if shared.aborted.load(Ordering::SeqCst) {
        // Crashing: stop processing buffered frames mid-stream so the
        // kill point lands between batches, not at a frame boundary the
        // graceful drain would have chosen.
        return FrameOutcome::Close;
    }
    match frame {
        Frame::Hello { version, name: _ } => {
            if version < PROTOCOL_VERSION {
                outbox.push(&Frame::Error {
                    code: ERR_VERSION,
                    message: format!(
                        "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION}..={PROTOCOL_VERSION_V3})"
                    ),
                });
                return FrameOutcome::Close;
            }
            // Negotiate down to the highest version both sides speak; a
            // future client above v3 is served at v3.
            sess.version = version.min(PROTOCOL_VERSION_V3);
            outbox.push(&Frame::HelloAck {
                version: sess.version,
                window: cfg.window,
                max_frame: cfg.max_frame_bytes,
            });
            FrameOutcome::Continue
        }
        Frame::Batch { seq, records } => ack_committed(shared, outbox, seq, |engine| {
            engine.commit_records(session_id, ENTRY_BATCH, &records)
        }),
        Frame::BatchColumnar {
            seq,
            machine_id,
            counter,
            t0,
            dt_units,
            values,
        } => {
            // Columnar frames are a v2 capability; on a v1 session they
            // are intact-but-invalid, i.e. a strike, not a quarantine.
            if sess.version < PROTOCOL_VERSION_V2 {
                return FrameOutcome::Malformed(format!(
                    "columnar batch requires protocol v{PROTOCOL_VERSION_V2} (session negotiated v{})",
                    sess.version
                ));
            }
            expand_column_times(t0, &dt_units, &mut sess.times);
            ack_committed(shared, outbox, seq, |engine| {
                engine.commit_column(session_id, machine_id, counter, &sess.times, &values)
            })
        }
        Frame::MachineDone { machine_id } => {
            let committed = shared.engine().commit_finish(machine_id);
            match committed {
                Ok(()) => FrameOutcome::Continue,
                Err(e) => store_failed(outbox, &e),
            }
        }
        Frame::QueryStatus => {
            let status = status_reply(shared);
            if sess.version >= PROTOCOL_VERSION_V3 {
                outbox.push(&Frame::Status { status });
            } else {
                outbox.push(&Frame::StatusReply {
                    json: status_json(&status),
                });
            }
            FrameOutcome::Continue
        }
        Frame::QueryMachine { machine_id } => {
            shared.read_side().wire.queries += 1;
            let snapshot = shared.engine().machine_snapshot(machine_id);
            let json = snapshot.map(|snap| {
                serde_json::to_string(&snap).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
            });
            outbox.push(&Frame::MachineReply { json });
            FrameOutcome::Continue
        }
        Frame::QuerySpectrum { machine_id } => {
            // Spectrum queries are a v2 capability; on a v1 session they
            // are intact-but-invalid, i.e. a strike, not a quarantine.
            if sess.version < PROTOCOL_VERSION_V2 {
                return FrameOutcome::Malformed(format!(
                    "spectrum query requires protocol v{PROTOCOL_VERSION_V2} (session negotiated v{})",
                    sess.version
                ));
            }
            shared.read_side().wire.queries += 1;
            let widths = shared.engine().spectrum_widths(machine_id);
            let known = widths.is_some();
            outbox.push(&Frame::SpectrumReply {
                machine_id,
                known,
                widths: widths.unwrap_or_default(),
            });
            FrameOutcome::Continue
        }
        Frame::QueryRejuv { machine_id } => {
            // Rejuv queries are a v2 capability; on a v1 session they
            // are intact-but-invalid, i.e. a strike, not a quarantine.
            if sess.version < PROTOCOL_VERSION_V2 {
                return FrameOutcome::Malformed(format!(
                    "rejuv query requires protocol v{PROTOCOL_VERSION_V2} (session negotiated v{})",
                    sess.version
                ));
            }
            shared.read_side().wire.queries += 1;
            // Every engine mutation ends in a release, so the history the
            // advisory replays is already watermark-complete.
            let advice = shared.engine().rejuv_advice(machine_id);
            let known = advice.is_some();
            let (policy, restarts, denied, last_restart_secs) = advice.unwrap_or((0, 0, 0, None));
            outbox.push(&Frame::RejuvReply {
                machine_id,
                known,
                policy,
                restarts,
                denied,
                last_restart_secs,
            });
            FrameOutcome::Continue
        }
        Frame::QueryAlarms { since } => {
            let (total, watermark_secs, events) = alarms_reply(shared, since);
            outbox.push(&Frame::AlarmsReply {
                since,
                total,
                shard: cfg.shard_id,
                watermark_secs,
                events,
            });
            FrameOutcome::Continue
        }
        Frame::Bye => {
            // Finish this session's feeds *before* acking, so `ByeAck`
            // is a barrier: once the client sees it, every event its
            // records produced has been released (or awaits only other
            // sessions' watermarks).
            shared.engine().session_closed(session_id);
            outbox.push(&Frame::ByeAck);
            FrameOutcome::Close
        }
        // Server-to-client frames arriving at the server are protocol
        // violations carried by intact frames: report and continue.
        Frame::HelloAck { .. }
        | Frame::Ack { .. }
        | Frame::Busy { .. }
        | Frame::StatusReply { .. }
        | Frame::Status { .. }
        | Frame::MachineReply { .. }
        | Frame::AlarmsReply { .. }
        | Frame::SpectrumReply { .. }
        | Frame::RejuvReply { .. }
        | Frame::ByeAck
        | Frame::Error { .. } => {
            outbox.push(&Frame::Error {
                code: ERR_MALFORMED,
                message: "unexpected server-side frame".into(),
            });
            FrameOutcome::Continue
        }
    }
}

/// Commits one batch under one engine lock and queues its ack. The ack
/// goes out only once the batch is applied, published and journaled, so
/// an acked batch is always durable and every later query sees what it
/// released. A journal failure closes the session *without* acking: the
/// client re-sends and the gates dedup any records that did reach the
/// journal.
fn ack_committed(
    shared: &Arc<Shared>,
    outbox: &mut Outbox<&TcpStream>,
    seq: u64,
    commit: impl FnOnce(&mut Engine) -> aging_store::Result<u16>,
) -> FrameOutcome {
    let committed = commit(&mut shared.engine());
    match committed {
        Ok(accepted) => {
            shared.read_side().wire.acks_sent += 1;
            outbox.push(&Frame::Ack { seq, accepted });
            FrameOutcome::Continue
        }
        Err(e) => store_failed(outbox, &e),
    }
}

/// Answers a status query, binary or text, from the read side alone:
/// counts it and stamps the next status sequence. The lock is held only
/// while the status is copied out; the caller encodes it after.
fn status_reply(shared: &Shared) -> ServeStatus {
    let mut read = shared.read_side();
    read.wire.queries += 1;
    read.status()
}

/// The JSON form of a status: the v1/v2 [`Frame::StatusReply`] and the
/// text-mode `status` line.
fn status_json(status: &ServeStatus) -> String {
    serde_json::to_string(status).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Answers an alarms query, binary or text, from the read side alone:
/// counts it and returns `(total, watermark, events)` from `since`. All
/// three are read under one lock, so together they keep the promise the
/// aggregator relies on: every released event at or below the watermark
/// is within the first `total` events.
fn alarms_reply(shared: &Shared, since: u64) -> (u64, f64, Vec<ServeEvent>) {
    let mut read = shared.read_side();
    read.wire.queries += 1;
    read.alarms_since(since, shared.cfg.alarm_chunk)
}

/// Reports a failed journal append and closes the session.
fn store_failed(outbox: &mut Outbox<&TcpStream>, e: &StoreError) -> FrameOutcome {
    outbox.push(&Frame::Error {
        code: ERR_STORE,
        message: format!("journal append failed: {e}"),
    });
    FrameOutcome::Close
}

// ---------------------------------------------------------------------------
// Text sessions
// ---------------------------------------------------------------------------

/// Appends one event's text-mode line, newline included.
fn render_event_text(event: &ServeEvent, out: &mut String) {
    use std::fmt::Write as _;
    let level = match event.level {
        AlertLevel::Warning => "warning",
        AlertLevel::Alarm => "alarm",
    };
    let _ = match event.kind {
        AlarmKind::Detector {
            counter, detector, ..
        } => writeln!(
            out,
            "event {} {:.3} {} detector {} {}",
            event.machine_id, event.time_secs, level, counter, detector
        ),
        AlarmKind::MachineAlarm { votes, members } => writeln!(
            out,
            "event {} {:.3} {} machine-alarm {}/{}",
            event.machine_id, event.time_secs, level, votes, members
        ),
        AlarmKind::Restart {
            reason,
            downtime_secs,
        } => writeln!(
            out,
            "event {} {:.3} {} restart {} {:.0}s",
            event.machine_id,
            event.time_secs,
            level,
            reason.name(),
            downtime_secs
        ),
    };
}

fn run_text_session(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    session_id: u64,
    initial: &[u8],
    buf: &mut [u8],
) -> SessionEnd {
    let cfg = &shared.cfg;
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let mut acc: Vec<u8> = initial.to_vec();
    let mut strikes = 0u32;
    let mut last_activity = Instant::now();

    loop {
        while let Some(nl) = acc.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = acc.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_text_line(line) {
                Err(reason) => {
                    strikes += 1;
                    shared.read_side().wire.malformed_frames += 1;
                    let _ = send_line(stream, &format!("err {reason}"));
                    if strikes >= cfg.quarantine_after {
                        let _ = send_line(stream, "err quarantined");
                        return SessionEnd::Quarantined { corrupt: false };
                    }
                }
                Ok(cmd) => {
                    strikes = 0;
                    match handle_text(shared, stream, session_id, cmd) {
                        // Text commands have no version-gated frames.
                        FrameOutcome::Continue | FrameOutcome::Malformed(_) => {}
                        FrameOutcome::Close => return SessionEnd::Clean,
                    }
                }
            }
        }
        // Unbounded-line guard: a peer that never sends a newline would
        // otherwise grow the accumulator forever.
        if acc.len() > cfg.max_frame_bytes as usize {
            let _ = send_line(stream, "err line too long");
            return SessionEnd::Quarantined { corrupt: true };
        }

        match read_some(stream, buf) {
            ReadOutcome::Data(n) => {
                last_activity = Instant::now();
                acc.extend_from_slice(&buf[..n]);
            }
            ReadOutcome::Eof => return SessionEnd::Clean,
            ReadOutcome::Timeout => {
                if shared.shutdown.load(Ordering::SeqCst) || last_activity.elapsed() >= stall {
                    return SessionEnd::Clean;
                }
            }
            ReadOutcome::Err => return SessionEnd::Clean,
        }
    }
}

fn handle_text(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    session_id: u64,
    cmd: TextCommand,
) -> FrameOutcome {
    if shared.aborted.load(Ordering::SeqCst) {
        return FrameOutcome::Close;
    }
    match cmd {
        TextCommand::Hello { .. } => {
            let _ = send_line(stream, &format!("ok aging-serve v{PROTOCOL_VERSION}"));
            FrameOutcome::Continue
        }
        TextCommand::Sample {
            machine_id,
            counter,
            time_secs,
            value,
        } => {
            let rec = Record {
                machine_id,
                counter,
                time_secs,
                value,
            };
            // Same discipline as the binary batch path: "ok" implies
            // durable.
            let committed =
                shared
                    .engine()
                    .commit_records(session_id, ENTRY_TEXT, std::slice::from_ref(&rec));
            match committed {
                Ok(accepted) => {
                    let _ = send_line(stream, if accepted == 1 { "ok" } else { "err rejected" });
                    FrameOutcome::Continue
                }
                Err(e) => {
                    let _ = send_line(stream, &format!("err store {e}"));
                    FrameOutcome::Close
                }
            }
        }
        TextCommand::Done { machine_id } => {
            let committed = shared.engine().commit_finish(machine_id);
            match committed {
                Ok(()) => {
                    let _ = send_line(stream, "ok");
                    FrameOutcome::Continue
                }
                Err(e) => {
                    let _ = send_line(stream, &format!("err store {e}"));
                    FrameOutcome::Close
                }
            }
        }
        TextCommand::Status => {
            let _ = send_line(stream, &status_json(&status_reply(shared)));
            FrameOutcome::Continue
        }
        TextCommand::Machine { machine_id } => {
            shared.read_side().wire.queries += 1;
            let snapshot = shared.engine().machine_snapshot(machine_id);
            match snapshot.and_then(|snap| serde_json::to_string(&snap).ok()) {
                Some(json) => {
                    let _ = send_line(stream, &json);
                }
                None => {
                    let _ = send_line(stream, "err unknown machine");
                }
            }
            FrameOutcome::Continue
        }
        TextCommand::Alarms { since } => {
            let (total, _, events) = alarms_reply(shared, since);
            // The header, one line per event and `end`, in one write.
            let mut reply = format!("alarms {total}\n");
            for event in &events {
                render_event_text(event, &mut reply);
            }
            reply.push_str("end\n");
            let mut out = stream;
            let _ = out.write_all(reply.as_bytes());
            FrameOutcome::Continue
        }
        TextCommand::Bye => {
            // Same barrier as the binary `Bye`: finish this session's
            // feeds before the farewell line goes out.
            shared.engine().session_closed(session_id);
            let _ = send_line(stream, "ok bye");
            FrameOutcome::Close
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;

    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::encode_frame;

    /// How long any one reply may take while the engine is held.
    const REPLY_WITHIN: Duration = Duration::from_secs(2);

    /// Status and alarm queries, binary and text, and `Server::status` and
    /// `Server::released_events` are answered from the read side while
    /// the engine lock is held, as it is during a long commit; a batch
    /// sent meanwhile is acked once the lock drops.
    #[test]
    fn queries_are_answered_while_a_commit_holds_the_engine() {
        let server = Arc::new(
            Server::bind("127.0.0.1:0", ServeConfig::new(crate::test_detectors())).expect("bind"),
        );
        let addr = server.local_addr();
        let engine = server.shared.engine();
        let (tx, rx) = mpsc::channel::<(&str, bool)>();

        let binary = tx.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, "reader").expect("connect");
            let status = client.query_status();
            let _ = binary.send(("binary status", status.is_ok_and(|s| s.wire.queries >= 1)));
            let alarms = client.query_alarms_chunk(0);
            let _ = binary.send((
                "binary alarms",
                alarms.is_ok_and(|c| c.total == 0 && c.watermark_secs == f64::NEG_INFINITY),
            ));
        });
        let text = tx.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = stream.set_read_timeout(Some(REPLY_WITHIN));
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            let _ = stream.write_all(b"TEXT\nstatus\n");
            let status = reader.read_line(&mut line).is_ok() && line.starts_with("{\"wire\"");
            let _ = text.send(("text status", status));
            let _ = stream.write_all(b"alarms 0\n");
            let mut lines = Vec::new();
            for _ in 0..2 {
                line.clear();
                if reader.read_line(&mut line).is_err() {
                    break;
                }
                lines.push(line.trim_end().to_string());
            }
            let _ = text.send(("text alarms", lines == ["alarms 0", "end"]));
        });
        let direct = tx.clone();
        let handle = Arc::clone(&server);
        std::thread::spawn(move || {
            let released = handle.released_events();
            let sequence = handle.status().fleet.sequence;
            drop(handle);
            let _ = direct.send(("Server::status", released == 0 && sequence >= 1));
        });
        for _ in 0..5 {
            let (query, ok) = rx
                .recv_timeout(REPLY_WITHIN)
                .expect("every query is answered while the engine is held");
            assert!(ok, "{query}: unexpected reply");
        }

        // A batch arriving now waits for the engine, and is acked once
        // the lock drops.
        let feeder = tx;
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, "feeder").expect("connect");
            let record = Record {
                machine_id: 1,
                counter: Counter::AvailableBytes.code(),
                time_secs: 0.0,
                value: 1e6,
            };
            let acked = client.send_batch(&[record]).is_ok() && client.flush().is_ok();
            let _ = feeder.send(("batch", acked && client.records_accepted() == 1));
        });
        // Two binary sessions sent a Hello each, then two queries and
        // the batch: once the batch frame is counted, its commit is
        // waiting on the engine.
        let deadline = Instant::now() + REPLY_WITHIN;
        while server.shared.read_side().wire.frames < 5 {
            assert!(Instant::now() < deadline, "the batch frame never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            rx.try_recv().is_err(),
            "a batch was acked while the engine was held"
        );
        drop(engine);
        let (_, acked) = rx
            .recv_timeout(REPLY_WITHIN)
            .expect("the batch is acked once the engine is free");
        assert!(acked, "the batch was not acked with its one record");
        let report = Arc::try_unwrap(server)
            .expect("every other handle is gone")
            .shutdown();
        assert_eq!(report.wire.records, 1);
        assert_eq!(report.wire.queries, 4);
    }

    /// A `Write` that records every call, standing in for the socket.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: Vec<usize>,
        fail: bool,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every kind of frame a binary session sends, `acks` acks among them.
    fn session_replies(acks: u64) -> Vec<Frame> {
        let mut frames = vec![
            Frame::HelloAck {
                version: PROTOCOL_VERSION_V2,
                window: 32,
                max_frame: DEFAULT_MAX_FRAME,
            },
            Frame::Busy { backlog: 40 },
        ];
        frames.extend((1..=acks).map(|seq| Frame::Ack {
            seq,
            accepted: (seq % 200) as u16,
        }));
        frames.extend([
            Frame::StatusReply {
                json: "{\"machines\":3}".repeat(1_000),
            },
            Frame::MachineReply { json: None },
            Frame::Error {
                code: ERR_MALFORMED,
                message: "bad tag".into(),
            },
            Frame::ByeAck,
        ]);
        frames
    }

    /// The bytes the old one-write-per-frame path put on the wire.
    fn per_frame_bytes(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(encode_frame).collect()
    }

    #[test]
    fn outbox_below_the_bound_is_one_write_of_the_per_frame_bytes() {
        let frames = session_replies(100);
        let expected = per_frame_bytes(&frames);
        assert!(expected.len() < OUTBOX_FLUSH_BYTES);
        let mut sink = CountingWriter::default();
        let mut outbox = Outbox::new(&mut sink);
        for frame in &frames {
            outbox.push(frame);
        }
        outbox.flush();
        outbox.flush(); // nothing queued: no empty write
        assert_eq!(sink.writes, vec![expected.len()]);
        assert_eq!(sink.bytes, expected);
    }

    #[test]
    fn outbox_past_the_bound_writes_in_bounded_pieces() {
        let frames = session_replies(10_000);
        let expected = per_frame_bytes(&frames);
        let largest = frames.iter().map(|f| encode_frame(f).len()).max().unwrap();
        let mut sink = CountingWriter::default();
        let mut outbox = Outbox::new(&mut sink);
        for frame in &frames {
            outbox.push(frame);
            assert!(outbox.buf.len() < OUTBOX_FLUSH_BYTES);
        }
        outbox.flush();
        assert_eq!(sink.bytes, expected);
        let (last, full) = sink.writes.split_last().unwrap();
        assert!(full.len() >= 2, "{:?}", sink.writes);
        for &n in full {
            assert!((OUTBOX_FLUSH_BYTES..OUTBOX_FLUSH_BYTES + largest).contains(&n));
        }
        assert!(*last > 0);
    }

    #[test]
    fn outbox_is_emptied_even_when_the_write_fails() {
        let mut sink = CountingWriter {
            fail: true,
            ..CountingWriter::default()
        };
        let mut outbox = Outbox::new(&mut sink);
        outbox.push(&Frame::Ack {
            seq: 1,
            accepted: 4,
        });
        outbox.flush();
        assert!(outbox.buf.is_empty());
        outbox.out.fail = false;
        outbox.push(&Frame::ByeAck);
        outbox.flush();
        assert_eq!(sink.bytes, encode_frame(&Frame::ByeAck));
        assert_eq!(sink.writes.len(), 1);
    }
}
