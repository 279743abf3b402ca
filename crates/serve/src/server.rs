//! The ingestion/query server: thread-per-connection sessions feeding a
//! shared engine of per-machine [`MachinePipeline`]s.
//!
//! # Architecture
//!
//! ```text
//!  clients ──TCP──► session threads ──► Engine (mutex)
//!                     │ decode+CRC        ├─ MachinePipeline per machine_id
//!                     │ quarantine        ├─ WatermarkMerger (time, id, seq)
//!                     └ acks/replies      └─ released alarm history
//! ```
//!
//! Each connection gets its own session thread; the only shared state is
//! the engine behind one mutex, entered per *batch* (not per byte), so a
//! slow or stalled peer never blocks another session's socket I/O.
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
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use aging_core::detector::AlertLevel;
use aging_core::fusion::FusionRule;
use aging_rejuv::{RejuvConfig, RejuvController, RejuvPolicy, RestartReason, RestartRequest};
use aging_store::{Recovery, Store, StoreConfig};
use aging_stream::gate::GateConfig;
use aging_stream::merge::{MergeKey, WatermarkMerger};
use aging_stream::pipeline::{MachinePipeline, PipelineEvent};
use aging_stream::source::StreamSample;
use aging_stream::supervisor::{AlarmKind, CounterDetector, FleetConfig};
use aging_stream::telemetry::{LatencyHistogram, MachineSnapshot, Snapshot, StageCounters};
use aging_timeseries::{persist, Error, Result};
use serde::{Deserialize, Serialize};

use aging_memsim::Counter;
use aging_stream::sink::IngestSink;

use crate::codec::{parse_text_line, FrameDecoder, TextCommand};
use crate::protocol::{
    counter_code, counter_from_code, decode_event, decode_events, encode_event, encode_events,
    encode_frame, expand_column_times, Frame, Reader as EventReader, Record, ServeEvent,
    DEFAULT_MAX_FRAME, ERR_MALFORMED, ERR_QUARANTINED, ERR_STORE, ERR_VERSION, PROTOCOL_VERSION,
    PROTOCOL_VERSION_V2, TEXT_PREAMBLE,
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
    /// pattern as `DetectorConfig`/`WtmmConfig` in `aging-core`. The
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

/// The JSON document answering a status query: wire counters plus the
/// same fleet [`Snapshot`] schema the in-process supervisor dumps.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    released: Vec<ServeEvent>,
    seq: u64,
    status_seq: u64,
    warnings: u64,
    alarms: u64,
    wire: WireCounters,
    scratch: Vec<PipelineEvent>,
    /// Crash-safe journal + snapshot backing; `None` = memory-only.
    store: Option<Store>,
    /// Shadow-advisory policy for `QueryRejuv` (never restarts anything).
    rejuv: Option<RejuvConfig>,
}

impl Engine {
    fn new(cfg: &ServeConfig) -> Engine {
        Engine {
            detectors: cfg.detectors.clone(),
            fusion: cfg.fusion,
            gate: cfg.gate,
            expected_machines: cfg.expected_machines,
            machines: BTreeMap::new(),
            pending: WatermarkMerger::new(1),
            released: Vec::new(),
            seq: 0,
            status_seq: 0,
            warnings: 0,
            alarms: 0,
            wire: WireCounters::default(),
            scratch: Vec::new(),
            store: None,
            rejuv: cfg.rejuv,
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
        let Some(counter) = counter_from_code(rec.counter) else {
            self.wire.records_rejected += 1;
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
        self.wire.batches += 1;
        let n = times.len().min(values.len());
        self.wire.records += n as u64;
        let Some(counter) = counter_from_code(counter) else {
            self.wire.records_rejected += n as u64;
            self.release();
            return 0;
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.machine_entry(session, machine_id)
            .pipeline
            .ingest_column(counter, times, values, &mut scratch);
        self.scratch = scratch;
        self.enqueue(machine_id);
        self.release();
        n.min(usize::from(u16::MAX)) as u16
    }

    /// Applies one batch of records: counters, ingestion, release.
    /// Shared verbatim by the live wire path and journal replay, so a
    /// recovered engine reconstructs the exact same state (including the
    /// global emission sequence) the live run produced.
    fn apply_batch(&mut self, session: u64, records: &[Record], counts_batch: bool) -> u16 {
        if counts_batch {
            self.wire.batches += 1;
        }
        self.wire.records += records.len() as u64;
        let mut accepted = 0u16;
        for rec in records {
            if self.ingest(session, *rec) {
                accepted = accepted.saturating_add(1);
            }
        }
        self.release();
        accepted
    }

    /// Finishes one machine's feed (idempotent; shared by live path and
    /// journal replay).
    fn apply_finish(&mut self, machine_id: u64) {
        if let Some(entry) = self.machines.get_mut(&machine_id) {
            entry.pipeline.finish(&mut self.scratch);
            self.enqueue(machine_id);
        }
        self.release();
    }

    fn machine_done(&mut self, machine_id: u64) -> aging_store::Result<()> {
        self.apply_finish(machine_id);
        self.persist_finish(machine_id)
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
        self.release();
    }

    // -- persistence ------------------------------------------------------

    /// Journals a record entry (no-op for a memory-only engine). Called
    /// *after* the records were applied and *before* the ack goes out.
    fn persist_records(&mut self, kind: u8, records: &[Record]) -> aging_store::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let mut payload = Vec::with_capacity(5 + records.len() * 25);
        persist::put_u8(&mut payload, kind);
        persist::put_u32(&mut payload, records.len() as u32);
        for rec in records {
            persist::put_u64(&mut payload, rec.machine_id);
            persist::put_u8(&mut payload, rec.counter);
            persist::put_u64(&mut payload, rec.time_secs.to_bits());
            persist::put_u64(&mut payload, rec.value.to_bits());
        }
        store.append(&payload)?;
        Ok(())
    }

    /// Journals a columnar batch (no-op for a memory-only engine) with
    /// its timestamps already expanded, so replay feeds
    /// [`Engine::apply_column`] the identical `f64` column. Called after
    /// apply, before the ack — same discipline as
    /// [`Engine::persist_records`].
    fn persist_column(
        &mut self,
        machine_id: u64,
        counter: u8,
        times: &[f64],
        values: &[f64],
    ) -> aging_store::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let n = times.len().min(values.len());
        let mut payload = Vec::with_capacity(14 + n * 16);
        persist::put_u8(&mut payload, ENTRY_COLUMN);
        persist::put_u64(&mut payload, machine_id);
        persist::put_u8(&mut payload, counter);
        persist::put_u32(&mut payload, n as u32);
        for (&t, &v) in times[..n].iter().zip(&values[..n]) {
            persist::put_u64(&mut payload, t.to_bits());
            persist::put_u64(&mut payload, v.to_bits());
        }
        store.append(&payload)?;
        Ok(())
    }

    /// Journals a feed-finish entry (no-op for a memory-only engine).
    fn persist_finish(&mut self, machine_id: u64) -> aging_store::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let mut payload = Vec::with_capacity(9);
        persist::put_u8(&mut payload, ENTRY_FINISH);
        persist::put_u64(&mut payload, machine_id);
        store.append(&payload)?;
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
    /// released history, sequence counters, wire counters — into one
    /// deterministic blob (pending events sorted by their release order).
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
        persist::put_bytes(&mut out, &encode_events(&self.released));
        persist::put_u64(&mut out, self.seq);
        persist::put_u64(&mut out, self.status_seq);
        persist::put_u64(&mut out, self.warnings);
        persist::put_u64(&mut out, self.alarms);
        let w = &self.wire;
        for v in [
            w.connections,
            w.sessions_closed,
            w.text_sessions,
            w.frames,
            w.batches,
            w.records,
            w.records_rejected,
            w.acks_sent,
            w.busy_sent,
            w.malformed_frames,
            w.corrupt_streams,
            w.quarantined,
            w.session_panics,
            w.queries,
        ] {
            persist::put_u64(&mut out, v);
        }
        out
    }

    /// Rebuilds the engine from a snapshot blob. Restored machines carry
    /// session id 0 (live sessions start at 1), so no running session
    /// owns them until a resuming client sends its next record.
    fn restore_snapshot(&mut self, blob: &[u8]) -> std::result::Result<(), String> {
        fn ps<T>(r: Result<T>) -> std::result::Result<T, String> {
            r.map_err(|e| e.to_string())
        }
        let mut r = persist::Reader::new(blob);
        let version = ps(r.u8())?;
        if version != SNAPSHOT_VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let machines = ps(r.u64())?;
        self.machines.clear();
        for _ in 0..machines {
            let id = ps(r.u64())?;
            let name = ps(r.str_())?;
            let state = ps(r.bytes())?;
            let mut pipeline = MachinePipeline::new(&self.detectors, self.fusion, self.gate)
                .map_err(|e| e.to_string())?;
            let mut sr = persist::Reader::new(state);
            pipeline.restore_state(&mut sr).map_err(|e| e.to_string())?;
            ps(sr.finish())?;
            self.machines.insert(
                id,
                MachineEntry {
                    name,
                    pipeline,
                    session: 0,
                },
            );
        }
        let pending = ps(r.u64())?;
        self.pending = WatermarkMerger::new(1);
        for _ in 0..pending {
            let seq = ps(r.u64())?;
            let bytes = ps(r.bytes())?;
            let mut er = EventReader::new(bytes);
            let event = decode_event(&mut er)?;
            if er.remaining() != 0 {
                return Err("trailing bytes after pending event".into());
            }
            self.pending.push(
                MergeKey {
                    time_secs: event.time_secs,
                    lane: event.machine_id,
                    seq,
                },
                event,
            );
        }
        self.released = decode_events(ps(r.bytes())?)?;
        self.seq = ps(r.u64())?;
        self.status_seq = ps(r.u64())?;
        self.warnings = ps(r.u64())?;
        self.alarms = ps(r.u64())?;
        let mut w = WireCounters::default();
        for field in [
            &mut w.connections,
            &mut w.sessions_closed,
            &mut w.text_sessions,
            &mut w.frames,
            &mut w.batches,
            &mut w.records,
            &mut w.records_rejected,
            &mut w.acks_sent,
            &mut w.busy_sent,
            &mut w.malformed_frames,
            &mut w.corrupt_streams,
            &mut w.quarantined,
            &mut w.session_panics,
            &mut w.queries,
        ] {
            *field = ps(r.u64())?;
        }
        self.wire = w;
        ps(r.finish())?;
        Ok(())
    }

    /// Replays one journal entry through the same `apply_*` paths the
    /// live wire uses.
    fn apply_journal_entry(&mut self, payload: &[u8]) -> std::result::Result<(), String> {
        fn ps<T>(r: Result<T>) -> std::result::Result<T, String> {
            r.map_err(|e| e.to_string())
        }
        let mut r = persist::Reader::new(payload);
        let kind = ps(r.u8())?;
        match kind {
            ENTRY_BATCH | ENTRY_TEXT => {
                let n = ps(r.u32())?;
                let mut records = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let machine_id = ps(r.u64())?;
                    let counter = ps(r.u8())?;
                    let time_secs = f64::from_bits(ps(r.u64())?);
                    let value = f64::from_bits(ps(r.u64())?);
                    records.push(Record {
                        machine_id,
                        counter,
                        time_secs,
                        value,
                    });
                }
                ps(r.finish())?;
                self.apply_batch(0, &records, kind == ENTRY_BATCH);
            }
            ENTRY_COLUMN => {
                let machine_id = ps(r.u64())?;
                let counter = ps(r.u8())?;
                let n = ps(r.u32())? as usize;
                let mut times = Vec::with_capacity(n);
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    times.push(f64::from_bits(ps(r.u64())?));
                    values.push(f64::from_bits(ps(r.u64())?));
                }
                ps(r.finish())?;
                self.apply_column(0, machine_id, counter, &times, &values);
            }
            ENTRY_FINISH => {
                let machine_id = ps(r.u64())?;
                ps(r.finish())?;
                self.apply_finish(machine_id);
            }
            other => return Err(format!("unknown journal entry kind {other}")),
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
    /// minimum completed tick over unfinished machines) into the
    /// released history.
    fn release(&mut self) {
        // With a fleet-size expectation, the watermark is meaningless
        // until everyone has checked in — a machine the server has never
        // heard from cannot hold it down.
        if self
            .expected_machines
            .is_some_and(|n| (self.machines.len() as u64) < n)
        {
            return;
        }
        // No expectation and no machine yet: an empty minimum would read
        // as +inf, which is not a promise this server can keep (the first
        // feeder may start anywhere in time). Keep the frontier at -inf.
        if self.machines.is_empty() && self.expected_machines.is_none() {
            return;
        }
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
            self.released.push(event);
        }
    }

    /// The release frontier advertised in `AlarmsReply`: all released
    /// events at or below it are already in `released`, and no future
    /// release will be at or below it. `-inf` while the expected-machines
    /// hold is active (or nothing registered); `+inf` once every known
    /// feed has finished — the per-shard drain barrier.
    fn advertised_watermark(&self) -> f64 {
        self.pending.frontier()
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
        self.release();
        debug_assert!(self.pending.is_empty());
    }

    fn snapshot(&mut self) -> Snapshot {
        self.status_seq += 1;
        let mut ingestion = StageCounters::default();
        let mut latency = LatencyHistogram::default();
        let mut detector_errors = 0u64;
        let mut live = 0usize;
        let mut finished = 0usize;
        let mut t = 0.0f64;
        for e in self.machines.values() {
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
            sequence: self.status_seq,
            stream_time_secs: t,
            machines_live: live,
            machines_finished: finished,
            ingestion,
            detector_latency: latency,
            warnings_emitted: self.warnings,
            alarms_emitted: self.alarms,
            alarm_queue_depth: self.pending.len(),
            telemetry_dropped: 0,
            // The serve tier observes; restarts are issued by the
            // stream supervisor's closed loop, never by this engine.
            restarts_granted: 0,
            restarts_denied: 0,
            detector_errors,
        }
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
                for event in &self.released {
                    if event.machine_id == machine_id
                        && matches!(event.kind, AlarmKind::MachineAlarm { .. })
                    {
                        let _ = controller.decide(&RestartRequest {
                            machine_index: 0,
                            time_secs: event.time_secs,
                            reason: RestartReason::Alarm,
                        });
                    }
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
                .map(|(counter, width)| (counter_code(counter), width))
                .collect()
        })
    }

    fn status_json(&mut self) -> String {
        let status = ServeStatus {
            wire: self.wire,
            fleet: self.snapshot(),
        };
        serde_json::to_string(&status).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    fn alarms_since(&self, since: u64, chunk: u16) -> (u64, Vec<ServeEvent>) {
        let total = self.released.len() as u64;
        let start = since.min(total) as usize;
        let end = (start + usize::from(chunk)).min(self.released.len());
        (total, self.released[start..end].to_vec())
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServeConfig,
    engine: Mutex<Engine>,
    shutdown: AtomicBool,
    /// Crash simulation: like `shutdown` but sessions stop *without*
    /// finishing feeds or counting closes — the state left behind is
    /// exactly what a killed process would leave.
    aborted: AtomicBool,
}

impl Shared {
    /// Locks the engine, recovering from poisoning: a panicked session
    /// (already counted) must not take the whole server down with it.
    fn engine(&self) -> MutexGuard<'_, Engine> {
        match self.engine.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
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
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let local_addr = listener.local_addr().map_err(io_err)?;
        let shared = Arc::new(Shared {
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

    /// A live status document (same schema as the wire query reply).
    pub fn status(&self) -> ServeStatus {
        let mut engine = self.shared.engine();
        ServeStatus {
            wire: engine.wire,
            fleet: engine.snapshot(),
        }
    }

    /// Number of alarm-history events released so far.
    pub fn released_events(&self) -> usize {
        self.shared.engine().released.len()
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
                    self.shared.engine().wire.session_panics += 1;
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
        ServeReport {
            events: std::mem::take(&mut engine.released),
            status: engine.snapshot(),
            wire: engine.wire,
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
            counter: counter_code(counter),
            time_secs,
            value,
        };
        let mut engine = self.shared.engine();
        engine.apply_batch(0, std::slice::from_ref(&rec), false);
        engine
            .persist_records(ENTRY_TEXT, std::slice::from_ref(&rec))
            .map_err(|e| Error::Io(format!("journal append failed: {e}")))?;
        engine.maybe_snapshot();
        Ok(())
    }

    fn ingest_column(
        &mut self,
        machine_id: u64,
        counter: Counter,
        times: &[f64],
        values: &[f64],
    ) -> Result<()> {
        let mut engine = self.shared.engine();
        engine.apply_column(0, machine_id, counter_code(counter), times, values);
        engine
            .persist_column(machine_id, counter_code(counter), times, values)
            .map_err(|e| Error::Io(format!("journal append failed: {e}")))?;
        engine.maybe_snapshot();
        Ok(())
    }

    fn machine_done(&mut self, machine_id: u64) -> Result<()> {
        let mut engine = self.shared.engine();
        engine
            .machine_done(machine_id)
            .map_err(|e| Error::Io(format!("journal append failed: {e}")))?;
        engine.maybe_snapshot();
        Ok(())
    }
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
                shared.engine().wire.connections += 1;
                let session_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("serve-session-{id}"))
                    .spawn(move || session_thread(&session_shared, &stream, id));
                match handle {
                    Ok(h) => sessions.push(h),
                    Err(_) => {
                        shared.engine().wire.sessions_closed += 1;
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
    let mut engine = shared.engine();
    match end {
        Ok(SessionEnd::Clean) => {}
        Ok(SessionEnd::Quarantined { corrupt }) => {
            engine.wire.quarantined += 1;
            if corrupt {
                engine.wire.corrupt_streams += 1;
            }
        }
        Err(_) => {
            engine.wire.session_panics += 1;
            engine.wire.quarantined += 1;
        }
    }
    engine.session_closed(session_id);
    engine.wire.sessions_closed += 1;
    drop(engine);
    let _ = stream.shutdown(Shutdown::Both);
}

fn send_frame(mut stream: &TcpStream, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&encode_frame(frame))
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
        shared.engine().wire.text_sessions += 1;
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
    /// handshake raises it to `min(client, PROTOCOL_VERSION_V2)`.
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
    let cfg = &shared.cfg;
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let mut dec = FrameDecoder::new(cfg.max_frame_bytes);
    dec.feed(initial);
    maybe_busy(shared, stream, &dec);
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
                    let _ = send_frame(
                        stream,
                        &Frame::Error {
                            code: ERR_QUARANTINED,
                            message: corrupt.reason,
                        },
                    );
                    return SessionEnd::Quarantined { corrupt: true };
                }
                Ok(None) => break,
                Ok(Some(payload)) => {
                    shared.engine().wire.frames += 1;
                    match Frame::decode_payload(payload) {
                        Err(reason) => {
                            strikes += 1;
                            shared.engine().wire.malformed_frames += 1;
                            let _ = send_frame(
                                stream,
                                &Frame::Error {
                                    code: ERR_MALFORMED,
                                    message: reason,
                                },
                            );
                            if strikes >= cfg.quarantine_after {
                                let _ = send_frame(
                                    stream,
                                    &Frame::Error {
                                        code: ERR_QUARANTINED,
                                        message: format!("{strikes} consecutive malformed frames"),
                                    },
                                );
                                return SessionEnd::Quarantined { corrupt: false };
                            }
                        }
                        Ok(frame) => {
                            match handle_frame(shared, stream, session_id, &mut sess, frame) {
                                FrameOutcome::Continue => strikes = 0,
                                FrameOutcome::Close => return SessionEnd::Clean,
                                FrameOutcome::Malformed(reason) => {
                                    strikes += 1;
                                    shared.engine().wire.malformed_frames += 1;
                                    let _ = send_frame(
                                        stream,
                                        &Frame::Error {
                                            code: ERR_MALFORMED,
                                            message: reason,
                                        },
                                    );
                                    if strikes >= cfg.quarantine_after {
                                        let _ = send_frame(
                                            stream,
                                            &Frame::Error {
                                                code: ERR_QUARANTINED,
                                                message: format!(
                                                    "{strikes} consecutive malformed frames"
                                                ),
                                            },
                                        );
                                        return SessionEnd::Quarantined { corrupt: false };
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        match read_some(stream, buf) {
            ReadOutcome::Data(n) => {
                last_activity = Instant::now();
                dec.feed(&buf[..n]);
                maybe_busy(shared, stream, &dec);
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

/// Sends an advisory `Busy` frame when a read burst left more complete
/// frames buffered than the advertised credit window.
fn maybe_busy(shared: &Arc<Shared>, stream: &TcpStream, dec: &FrameDecoder) {
    let backlog = dec.buffered_frames();
    if backlog > u32::from(shared.cfg.window) {
        let _ = send_frame(stream, &Frame::Busy { backlog });
        shared.engine().wire.busy_sent += 1;
    }
}

fn handle_frame(
    shared: &Arc<Shared>,
    stream: &TcpStream,
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
                let _ = send_frame(
                    stream,
                    &Frame::Error {
                        code: ERR_VERSION,
                        message: format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION}..={PROTOCOL_VERSION_V2})"
                        ),
                    },
                );
                return FrameOutcome::Close;
            }
            // Negotiate down to the highest version both sides speak; a
            // future client above v2 is served at v2.
            sess.version = version.min(PROTOCOL_VERSION_V2);
            let _ = send_frame(
                stream,
                &Frame::HelloAck {
                    version: sess.version,
                    window: cfg.window,
                    max_frame: cfg.max_frame_bytes,
                },
            );
            FrameOutcome::Continue
        }
        Frame::Batch { seq, records } => {
            // Apply, then journal, then ack — all under one engine lock,
            // so the journal is a linearisation of engine mutations and
            // an acked batch is always durable. A journal failure closes
            // the session *without* acking: the client re-sends and the
            // gates dedup any records that did reach the journal.
            let outcome = {
                let mut engine = shared.engine();
                let accepted = engine.apply_batch(session_id, &records, true);
                match engine.persist_records(ENTRY_BATCH, &records) {
                    Ok(()) => {
                        engine.maybe_snapshot();
                        engine.wire.acks_sent += 1;
                        Ok(accepted)
                    }
                    Err(e) => Err(e.to_string()),
                }
            };
            match outcome {
                Ok(accepted) => {
                    let _ = send_frame(stream, &Frame::Ack { seq, accepted });
                    FrameOutcome::Continue
                }
                Err(msg) => {
                    let _ = send_frame(
                        stream,
                        &Frame::Error {
                            code: ERR_STORE,
                            message: format!("journal append failed: {msg}"),
                        },
                    );
                    FrameOutcome::Close
                }
            }
        }
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
            // Same apply → journal → ack discipline as `Frame::Batch`.
            let outcome = {
                let mut engine = shared.engine();
                let accepted =
                    engine.apply_column(session_id, machine_id, counter, &sess.times, &values);
                match engine.persist_column(machine_id, counter, &sess.times, &values) {
                    Ok(()) => {
                        engine.maybe_snapshot();
                        engine.wire.acks_sent += 1;
                        Ok(accepted)
                    }
                    Err(e) => Err(e.to_string()),
                }
            };
            match outcome {
                Ok(accepted) => {
                    let _ = send_frame(stream, &Frame::Ack { seq, accepted });
                    FrameOutcome::Continue
                }
                Err(msg) => {
                    let _ = send_frame(
                        stream,
                        &Frame::Error {
                            code: ERR_STORE,
                            message: format!("journal append failed: {msg}"),
                        },
                    );
                    FrameOutcome::Close
                }
            }
        }
        Frame::MachineDone { machine_id } => {
            let res = {
                let mut engine = shared.engine();
                let res = engine.machine_done(machine_id);
                if res.is_ok() {
                    engine.maybe_snapshot();
                }
                res
            };
            match res {
                Ok(()) => FrameOutcome::Continue,
                Err(e) => {
                    let _ = send_frame(
                        stream,
                        &Frame::Error {
                            code: ERR_STORE,
                            message: format!("journal append failed: {e}"),
                        },
                    );
                    FrameOutcome::Close
                }
            }
        }
        Frame::QueryStatus => {
            let json = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.status_json()
            };
            let _ = send_frame(stream, &Frame::StatusReply { json });
            FrameOutcome::Continue
        }
        Frame::QueryMachine { machine_id } => {
            let json = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.machine_snapshot(machine_id).map(|snap| {
                    serde_json::to_string(&snap)
                        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
                })
            };
            let _ = send_frame(stream, &Frame::MachineReply { json });
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
            let widths = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.spectrum_widths(machine_id)
            };
            let known = widths.is_some();
            let _ = send_frame(
                stream,
                &Frame::SpectrumReply {
                    machine_id,
                    known,
                    widths: widths.unwrap_or_default(),
                },
            );
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
            let advice = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                // Release first so the advisory sees the freshest
                // watermark-complete history (same discipline as
                // `QueryAlarms`).
                engine.release();
                engine.rejuv_advice(machine_id)
            };
            let known = advice.is_some();
            let (policy, restarts, denied, last_restart_secs) = advice.unwrap_or((0, 0, 0, None));
            let _ = send_frame(
                stream,
                &Frame::RejuvReply {
                    machine_id,
                    known,
                    policy,
                    restarts,
                    denied,
                    last_restart_secs,
                },
            );
            FrameOutcome::Continue
        }
        Frame::QueryAlarms { since } => {
            // `total` and the advertised watermark are read under one
            // engine lock, so together they form a consistent promise:
            // every released event at or below the watermark is within
            // the first `total` events.
            let (total, watermark_secs, events) = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.release();
                let (total, events) = engine.alarms_since(since, cfg.alarm_chunk);
                (total, engine.advertised_watermark(), events)
            };
            let _ = send_frame(
                stream,
                &Frame::AlarmsReply {
                    since,
                    total,
                    shard: cfg.shard_id,
                    watermark_secs,
                    events,
                },
            );
            FrameOutcome::Continue
        }
        Frame::Bye => {
            // Finish this session's feeds *before* acking, so `ByeAck`
            // is a barrier: once the client sees it, every event its
            // records produced has been released (or awaits only other
            // sessions' watermarks).
            shared.engine().session_closed(session_id);
            let _ = send_frame(stream, &Frame::ByeAck);
            FrameOutcome::Close
        }
        // Server-to-client frames arriving at the server are protocol
        // violations carried by intact frames: report and continue.
        Frame::HelloAck { .. }
        | Frame::Ack { .. }
        | Frame::Busy { .. }
        | Frame::StatusReply { .. }
        | Frame::MachineReply { .. }
        | Frame::AlarmsReply { .. }
        | Frame::SpectrumReply { .. }
        | Frame::RejuvReply { .. }
        | Frame::ByeAck
        | Frame::Error { .. } => {
            let _ = send_frame(
                stream,
                &Frame::Error {
                    code: ERR_MALFORMED,
                    message: "unexpected server-side frame".into(),
                },
            );
            FrameOutcome::Continue
        }
    }
}

// ---------------------------------------------------------------------------
// Text sessions
// ---------------------------------------------------------------------------

fn render_event_text(event: &ServeEvent) -> String {
    let level = match event.level {
        AlertLevel::Warning => "warning",
        AlertLevel::Alarm => "alarm",
    };
    match event.kind {
        AlarmKind::Detector {
            counter, detector, ..
        } => format!(
            "event {} {:.3} {} detector {} {}",
            event.machine_id, event.time_secs, level, counter, detector
        ),
        AlarmKind::MachineAlarm { votes, members } => format!(
            "event {} {:.3} {} machine-alarm {}/{}",
            event.machine_id, event.time_secs, level, votes, members
        ),
        AlarmKind::Restart {
            reason,
            downtime_secs,
        } => format!(
            "event {} {:.3} {} restart {} {:.0}s",
            event.machine_id,
            event.time_secs,
            level,
            reason.name(),
            downtime_secs
        ),
    }
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
                    shared.engine().wire.malformed_frames += 1;
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
            // Same discipline as the binary batch path: apply, journal,
            // then confirm — "ok" implies durable.
            let outcome = {
                let mut engine = shared.engine();
                let ok = engine.apply_batch(session_id, std::slice::from_ref(&rec), false) == 1;
                match engine.persist_records(ENTRY_TEXT, std::slice::from_ref(&rec)) {
                    Ok(()) => {
                        engine.maybe_snapshot();
                        Ok(ok)
                    }
                    Err(e) => Err(e),
                }
            };
            match outcome {
                Ok(ok) => {
                    let _ = send_line(stream, if ok { "ok" } else { "err rejected" });
                    FrameOutcome::Continue
                }
                Err(e) => {
                    let _ = send_line(stream, &format!("err store {e}"));
                    FrameOutcome::Close
                }
            }
        }
        TextCommand::Done { machine_id } => {
            let res = {
                let mut engine = shared.engine();
                let res = engine.machine_done(machine_id);
                if res.is_ok() {
                    engine.maybe_snapshot();
                }
                res
            };
            match res {
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
            let json = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.status_json()
            };
            let _ = send_line(stream, &json);
            FrameOutcome::Continue
        }
        TextCommand::Machine { machine_id } => {
            let reply = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine
                    .machine_snapshot(machine_id)
                    .and_then(|snap| serde_json::to_string(&snap).ok())
            };
            match reply {
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
            let (total, events) = {
                let mut engine = shared.engine();
                engine.wire.queries += 1;
                engine.release();
                engine.alarms_since(since, shared.cfg.alarm_chunk)
            };
            let _ = send_line(stream, &format!("alarms {total}"));
            for event in &events {
                let _ = send_line(stream, &render_event_text(event));
            }
            let _ = send_line(stream, "end");
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
