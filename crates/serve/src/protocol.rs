//! Wire protocol: frame layout, payload encodings and the event codec.
//!
//! # Frame layout
//!
//! Every binary frame on the wire is
//!
//! ```text
//! ┌──────────────┬───────────────────┬────────────────────┐
//! │ len: u32 LE  │ payload (len B)   │ crc: u32 LE        │
//! └──────────────┴───────────────────┴────────────────────┘
//! ```
//!
//! where `crc` is the CRC-32 (IEEE, reflected) of the payload bytes and
//! `len` must be in `1..=max_frame` (negotiated in the handshake, default
//! [`DEFAULT_MAX_FRAME`]). The journal uses the same layout, and
//! [`aging_store`] holds its one implementation: the in-place frame
//! writer, the header scan and the CRC check. A zero or oversized `len`,
//! or a CRC mismatch, means framing is lost: the receiver cannot trust
//! any later byte boundary and must drop the connection
//! ([`crate::codec::CorruptStream`]).
//! A frame that passes CRC but whose payload does not parse is *malformed*
//! but consumable — the receiver skips it, counts a strike, and keeps the
//! session (until the strike quarantine threshold).
//!
//! The first payload byte is the frame kind tag; multi-byte integers are
//! little-endian; floats travel as their IEEE-754 bit patterns
//! (`f64::to_bits`), so NaN payloads survive the round trip bit-exactly.
//! Strings are UTF-8 with a `u16` length prefix. Every payload decodes
//! through [`aging_timeseries::persist::Reader`], which checks each
//! declared element count against the bytes left before anything is
//! allocated for it. Counters and detector families travel as the codes
//! their enums define ([`Counter::code`], [`DetectorSpec::family_code`]).
//!
//! # Version negotiation
//!
//! The client opens with [`Frame::Hello`] carrying its highest spoken
//! version; the server answers [`Frame::HelloAck`] whose `version` is the
//! *negotiated* version — the minimum of the client's and the server's
//! ([`PROTOCOL_VERSION_V3`]) — plus the credit `window` (max unacked
//! batches the client may have in flight) and `max_frame`. A client
//! version below [`PROTOCOL_VERSION`] is answered with [`Frame::Error`]
//! (code [`ERR_VERSION`]) and the connection closes; a version *above*
//! the server's is fine (the server negotiates down), so future clients
//! keep working against old servers.
//!
//! Version 2 adds the columnar batch frame [`Frame::BatchColumnar`]: one
//! machine and counter, delta-encoded timestamps (`u32` ticks of
//! 2⁻²⁰ s — see [`DT_UNITS_PER_SEC`]) and one contiguous value column,
//! ~12 B/record against the 25 B of a v1 [`Record`]. A columnar frame on
//! a session negotiated at v1 is malformed (strike). The delta encoding
//! is *bit-exact by construction*: [`column_delta_units`] only yields a
//! delta whose reconstruction (`prev + units/2²⁰`, the decoder's exact
//! arithmetic) reproduces the next timestamp's bit pattern, and
//! [`columnar_spans`] splits a column at every record where it cannot
//! (non-finite, non-monotone, too coarse, or `u32` overflow), so senders
//! fall back to fresh-`t0` spans rather than ship lossy deltas.
//!
//! Version 3 answers [`Frame::QueryStatus`] with the fixed-layout binary
//! [`Frame::Status`] instead of the JSON [`Frame::StatusReply`], so
//! neither side of a status round trip does any JSON. Sessions at v1 and
//! v2 keep the JSON reply byte for byte, and so does text mode.
//!
//! # Text fallback
//!
//! A connection whose first five bytes are `TEXT\n` (see [`TEXT_PREAMBLE`])
//! speaks the line-delimited debug protocol instead — see
//! [`crate::codec::TextCommand`]. The preamble is unambiguous: read as a
//! binary length prefix it would be 0x54584554 ≈ 1.4 GB, far above any
//! permitted `max_frame`.

use aging_core::detector::{Alert, AlertLevel};
use aging_memsim::Counter;
use aging_stream::detector::{AlertDetail, DetectorSpec};
use aging_stream::supervisor::AlarmKind;
use aging_timeseries::persist::Reader;
use aging_timeseries::{Error, Result};

use crate::server::ServeStatus;

/// Baseline protocol version: record batches only.
pub const PROTOCOL_VERSION: u8 = 1;

/// Protocol version 2: baseline plus the columnar batch frame
/// ([`Frame::BatchColumnar`]) and the spectrum and rejuvenation queries.
pub const PROTOCOL_VERSION_V2: u8 = 2;

/// Protocol version 3: v2 with status queries answered by the binary
/// [`Frame::Status`] instead of the JSON [`Frame::StatusReply`]. The
/// highest version this crate speaks; sessions negotiate
/// `min(client, server)` in the handshake.
pub const PROTOCOL_VERSION_V3: u8 = 3;

/// Timestamp resolution of a columnar frame: delta units per second.
/// One unit is 2⁻²⁰ s (~0.95 µs) — an exact binary fraction, so scaling
/// by it never rounds and reconstruction is deterministic.
pub const DT_UNITS_PER_SEC: f64 = (1u64 << 20) as f64;

/// Default maximum frame payload size, bytes (64 KiB).
pub const DEFAULT_MAX_FRAME: u32 = 64 * 1024;

/// First bytes of a text-mode connection.
pub const TEXT_PREAMBLE: &[u8] = b"TEXT\n";

/// Error code: protocol version mismatch.
pub const ERR_VERSION: u8 = 1;
/// Error code: client quarantined (too many malformed frames, or framing
/// integrity lost).
pub const ERR_QUARANTINED: u8 = 2;
/// Error code: malformed frame (reported, connection kept).
pub const ERR_MALFORMED: u8 = 3;
/// Error code: the server could not journal the batch to its persistent
/// store; the batch is *not* acked and the connection is closed, so the
/// acked⇒durable invariant holds even under disk failure.
pub const ERR_STORE: u8 = 4;

/// One ingestion record: a counter reading of one machine at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Caller-assigned machine identity.
    pub machine_id: u64,
    /// Counter code ([`Counter::code`]).
    pub counter: u8,
    /// Sample timestamp, seconds.
    pub time_secs: f64,
    /// Counter value.
    pub value: f64,
}

/// Encoded size of one [`Record`], on the wire and in the journal.
pub const RECORD_BYTES: usize = 8 + 1 + 8 + 8;

impl Record {
    /// Appends the record's [`RECORD_BYTES`] encoding: machine id, counter
    /// code, time bits, value bits. Wire batches and journal entries share
    /// it.
    #[inline]
    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.machine_id.to_le_bytes());
        out.push(self.counter);
        out.extend_from_slice(&self.time_secs.to_bits().to_le_bytes());
        out.extend_from_slice(&self.value.to_bits().to_le_bytes());
    }

    /// Reads a record written by [`Record::put`].
    #[inline]
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Record> {
        Ok(Record {
            machine_id: r.u64()?,
            counter: r.u8()?,
            time_secs: r.f64()?,
            value: r.f64()?,
        })
    }
}

/// Amortised per-record wire cost inside a [`Frame::BatchColumnar`]:
/// one `u32` timestamp delta plus one `f64` value.
pub const COLUMN_RECORD_BYTES: usize = 4 + 8;

/// Fixed wire overhead of a [`Frame::BatchColumnar`] payload: tag, seq,
/// machine id, counter code, `t0` bits and the record count.
pub const COLUMN_HEADER_BYTES: usize = 1 + 8 + 8 + 1 + 8 + 2;

/// One event in the server's watermark-ordered alarm history.
///
/// The networked analogue of [`aging_stream::supervisor::AlarmEvent`],
/// keyed by wire `machine_id` instead of a fleet slice index.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Machine identity from the ingestion records.
    pub machine_id: u64,
    /// Stream time of the tick that produced the event, seconds.
    pub time_secs: f64,
    /// Severity.
    pub level: AlertLevel,
    /// What fired.
    pub kind: AlarmKind,
}

/// A parsed frame payload.
// `Status` holds its document inline, several times the size of any
// other variant, so that decoding it allocates nothing; a boxed status
// would cost an allocation per read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: protocol version and a display name.
    Hello {
        /// Client's protocol version.
        version: u8,
        /// Client display name (diagnostics only).
        name: String,
    },
    /// Server handshake reply.
    HelloAck {
        /// Server's protocol version.
        version: u8,
        /// Credit window: max unacked [`Frame::Batch`]es in flight.
        window: u16,
        /// Maximum frame payload the server accepts, bytes.
        max_frame: u32,
    },
    /// A batch of ingestion records; acked by seq.
    Batch {
        /// Client-chosen batch sequence number (echoed in the ack).
        seq: u64,
        /// The records.
        records: Vec<Record>,
    },
    /// A columnar batch (protocol v2): one machine and one counter, `N`
    /// delta-encoded timestamps and one contiguous value column. Shares
    /// the seq/ack/credit machinery of [`Frame::Batch`] — an ack for a
    /// columnar seq means the whole column is in the engine and durable.
    ///
    /// Timestamps expand as `t[0] = t0`,
    /// `t[k] = t[k-1] + dt_units[k-1] / 2²⁰` (see [`expand_column_times`]);
    /// `values.len()` must be `dt_units.len() + 1` and at least 1.
    BatchColumnar {
        /// Client-chosen batch sequence number (echoed in the ack).
        seq: u64,
        /// Machine identity shared by every record of the column.
        machine_id: u64,
        /// Counter code shared by every record of the column.
        counter: u8,
        /// Timestamp of the first record, seconds.
        t0: f64,
        /// Timestamp deltas in 2⁻²⁰ s units, one per record after the
        /// first.
        dt_units: Vec<u32>,
        /// The value column, one per record.
        values: Vec<f64>,
    },
    /// Server acknowledgement of a batch: once received, the batch's
    /// records are in the engine and its alarms survive shutdown drain.
    Ack {
        /// Sequence of the acked batch.
        seq: u64,
        /// Records accepted into pipelines (rejects carried bad counter
        /// codes).
        accepted: u16,
    },
    /// Advisory backpressure: the server is reading faster than it can
    /// process; `backlog` complete frames were buffered when it was sent.
    Busy {
        /// Buffered frame count at send time.
        backlog: u32,
    },
    /// The feed for one machine has ended (its final tick may now close).
    MachineDone {
        /// Machine whose feed ended.
        machine_id: u64,
    },
    /// Request the fleet-level status snapshot.
    QueryStatus,
    /// Fleet status as JSON — serialises [`ServeStatus`], whose `fleet`
    /// field is the same [`aging_stream::telemetry::Snapshot`] schema the
    /// supervisor dumps. The reply on sessions negotiated below
    /// [`PROTOCOL_VERSION_V3`].
    StatusReply {
        /// The JSON document.
        json: String,
    },
    /// Fleet status in binary (protocol v3): the reply to
    /// [`Frame::QueryStatus`] on a session negotiated at
    /// [`PROTOCOL_VERSION_V3`]. The payload has a fixed layout: the 14
    /// wire counters ([`crate::server::WireCounters::encode_state`]),
    /// then the fleet snapshot field by field
    /// ([`aging_stream::telemetry::StatusSnapshot::encode_state`]). Every
    /// integer is a little-endian `u64`, the `usize` fields included, and
    /// `stream_time_secs` travels as its `f64` bits.
    Status {
        /// The status document.
        status: ServeStatus,
    },
    /// Request one machine's pipeline snapshot.
    QueryMachine {
        /// Machine to query.
        machine_id: u64,
    },
    /// Per-machine snapshot as JSON
    /// ([`aging_stream::telemetry::MachineSnapshot`]); `None` if the
    /// machine is unknown.
    MachineReply {
        /// The JSON document, if the machine exists.
        json: Option<String>,
    },
    /// Request the latest per-counter spectrum widths (Δα) of one machine
    /// (protocol v2; on a v1 session this is malformed and counts a
    /// strike).
    QuerySpectrum {
        /// Machine to query.
        machine_id: u64,
    },
    /// Per-counter Δα measurements of one machine: one `(counter code,
    /// Δα)` entry for every enabled stream whose spectrum-width detector
    /// has emitted at least one window. `known = false` (and no entries)
    /// when the machine id is unknown to this server.
    SpectrumReply {
        /// Echo of the queried machine.
        machine_id: u64,
        /// Whether the machine id is known.
        known: bool,
        /// `(counter code, Δα)` pairs, in pipeline stream order.
        widths: Vec<(u8, f64)>,
    },
    /// Request the rejuvenation advisory for one machine (protocol v2;
    /// on a v1 session this is malformed and counts a strike).
    QueryRejuv {
        /// Machine to query.
        machine_id: u64,
    },
    /// Shadow-controller rejuvenation advisory for one machine: the
    /// server replays its configured [`aging_rejuv::RejuvPolicy`] over
    /// the machine's released alarm history and reports what the policy
    /// would have decided. The serve tier observes — the closed loop
    /// that actually restarts machines lives in the stream supervisor —
    /// so this is the operator's what-if surface for policy selection.
    /// `known = false` (and zeroed advice) when the machine id is
    /// unknown to this server.
    RejuvReply {
        /// Echo of the queried machine.
        machine_id: u64,
        /// Whether the machine id is known.
        known: bool,
        /// Configured policy ([`aging_rejuv::RejuvPolicy::code`]; `0`
        /// when the server has no rejuvenation config).
        policy: u8,
        /// Restarts the policy would have granted so far.
        restarts: u64,
        /// Requests the policy would have denied (cooldown or budget).
        denied: u64,
        /// Time of the last granted shadow restart, if any.
        last_restart_secs: Option<f64>,
    },
    /// Request the watermark-released alarm history from offset `since`.
    QueryAlarms {
        /// Offset into the released history.
        since: u64,
    },
    /// A chunk of released alarm history.
    AlarmsReply {
        /// Echo of the request offset.
        since: u64,
        /// Total released events on the server (fetch is chunked; keep
        /// querying from `since + events.len()` until caught up).
        total: u64,
        /// Shard identity advertisement ([`crate::ServeConfig::shard_id`]):
        /// which cluster shard answered, `0` for a standalone server.
        shard: u64,
        /// Release-watermark advertisement, computed atomically with
        /// `total`: every released event at or below this time is within
        /// the first `total` events, and the server will never release
        /// another event at or below it. `-inf` while the release hold
        /// ([`crate::ServeConfig::expected_machines`]) is active or no
        /// machine is known; `+inf` once every known feed has finished
        /// (the per-shard drain barrier an aggregator waits on).
        watermark_secs: f64,
        /// The events at `since..since + events.len()`.
        events: Vec<ServeEvent>,
    },
    /// Graceful close request.
    Bye,
    /// Graceful close acknowledgement.
    ByeAck,
    /// Error report.
    Error {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_BATCH: u8 = 0x03;
const TAG_ACK: u8 = 0x04;
const TAG_BUSY: u8 = 0x05;
const TAG_MACHINE_DONE: u8 = 0x06;
const TAG_QUERY_STATUS: u8 = 0x07;
const TAG_STATUS_REPLY: u8 = 0x08;
const TAG_QUERY_MACHINE: u8 = 0x09;
const TAG_MACHINE_REPLY: u8 = 0x0a;
const TAG_QUERY_ALARMS: u8 = 0x0b;
const TAG_ALARMS_REPLY: u8 = 0x0c;
const TAG_BYE: u8 = 0x0d;
const TAG_BYE_ACK: u8 = 0x0e;
const TAG_ERROR: u8 = 0x0f;
const TAG_BATCH_COLUMNAR: u8 = 0x10;
const TAG_QUERY_SPECTRUM: u8 = 0x11;
const TAG_SPECTRUM_REPLY: u8 = 0x12;
const TAG_QUERY_REJUV: u8 = 0x13;
const TAG_REJUV_REPLY: u8 = 0x14;
const TAG_STATUS: u8 = 0x15;

/// CRC-32 (IEEE, reflected) — the per-frame checksum. The journal's
/// [`aging_store`] implementation is the one copy: wire frames and
/// journal entries are checked by the same code.
pub use aging_store::crc32;

/// Wire code of a counter ([`Counter::code`]).
pub fn counter_code(counter: Counter) -> u8 {
    counter.code()
}

/// A payload that arrived intact but does not parse.
fn malformed(reason: String) -> Error {
    Error::invalid("payload", reason)
}

/// Appends `s` behind a `u16` length, cut at the last char boundary at or
/// below 65 535 bytes, so a long name or message never becomes invalid
/// UTF-8 on the wire.
fn put_string(out: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(usize::from(u16::MAX))];
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a UTF-8 string behind the length word `read_len` reads (`u16`
/// for names and messages, `u32` for JSON documents).
fn read_string<'a, T: Into<u64>>(
    r: &mut Reader<'a>,
    read_len: fn(&mut Reader<'a>) -> Result<T>,
) -> Result<String> {
    let len = r.count(read_len, 1)?;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| malformed("invalid UTF-8 string".into()))
}

// ---------------------------------------------------------------------------
// Columnar timestamp deltas
// ---------------------------------------------------------------------------

/// The timestamp delta, in 2⁻²⁰ s units, that makes a columnar frame
/// reproduce `next` *bit-exactly* after `prev` — or `None` if no such
/// delta exists and the column must split (fresh `t0`) at `next`.
///
/// `None` when either endpoint is non-finite, the step is negative
/// (non-monotone), the step is not an exact multiple of 2⁻²⁰ s, the
/// delta overflows `u32`, or rounding in `prev + dt` fails to land on
/// `next`'s exact bit pattern (large magnitudes where one ulp exceeds
/// the unit). The check *is* the decoder's arithmetic, so a `Some`
/// delta can never decode to anything but `next`.
pub fn column_delta_units(prev: f64, next: f64) -> Option<u32> {
    if !prev.is_finite() || !next.is_finite() {
        return None;
    }
    let units = (next - prev) * DT_UNITS_PER_SEC;
    if !(units >= 0.0) || units > f64::from(u32::MAX) || units.fract() != 0.0 {
        return None;
    }
    let units = units as u32;
    (expand_column_step(prev, units).to_bits() == next.to_bits()).then_some(units)
}

/// One step of columnar timestamp reconstruction — the *only* arithmetic
/// either side uses, so encoder verification and decoder expansion can
/// never diverge.
#[inline]
pub fn expand_column_step(prev: f64, dt_units: u32) -> f64 {
    prev + f64::from(dt_units) / DT_UNITS_PER_SEC
}

/// Expands a columnar frame's timestamp column into `out` (cleared
/// first): `t0`, then one [`expand_column_step`] per delta.
pub fn expand_column_times(t0: f64, dt_units: &[u32], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(dt_units.len() + 1);
    let mut t = t0;
    out.push(t);
    for &dt in dt_units {
        t = expand_column_step(t, dt);
        out.push(t);
    }
}

/// Splits a timestamp column into maximal `(start, len)` spans, each
/// encodable as one [`Frame::BatchColumnar`] with bit-exact timestamp
/// reconstruction. Appends to `out` (cleared first); spans cover
/// `times` exactly, in order.
///
/// A span grows while [`column_delta_units`] accepts the next step and
/// the span is shorter than `max_span` (callers derive `max_span` from
/// the negotiated `max_frame`; it is clamped to `u16::MAX`, the frame's
/// count field). Every record is coverable — a degenerate span of one
/// record carries any `f64` timestamp bit pattern, even NaN — so this
/// never fails; pathological columns just split often.
pub fn columnar_spans(times: &[f64], max_span: usize, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let max_span = max_span.clamp(1, usize::from(u16::MAX));
    let mut start = 0usize;
    for i in 1..times.len() {
        if i - start >= max_span || column_delta_units(times[i - 1], times[i]).is_none() {
            out.push((start, i - start));
            start = i;
        }
    }
    if start < times.len() {
        out.push((start, times.len() - start));
    }
}

// ---------------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------------

/// Size of the shortest encoded event, a restart: machine id, time, level,
/// kind tag, reason code and downtime.
const EVENT_MIN_BYTES: usize = 8 + 8 + 1 + 1 + 1 + 8;

/// Appends one event's canonical wire encoding to `out`.
///
/// This encoding doubles as the parity fingerprint: E14 compares the
/// offline and TCP alarm histories by encoding both with
/// [`encode_events`] and requiring byte identity.
pub fn encode_event(event: &ServeEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&event.machine_id.to_le_bytes());
    out.extend_from_slice(&event.time_secs.to_bits().to_le_bytes());
    out.push(event.level.code());
    out.push(event.kind.tag());
    match &event.kind {
        AlarmKind::Detector {
            counter,
            detector,
            detail,
        } => {
            out.push(counter.code());
            // Every DetectorSpec name has a code; any other name gets one
            // no decoder accepts, so it fails on the way back in rather
            // than reading as another family.
            out.push(DetectorSpec::family_code_of(detector).unwrap_or(u8::MAX));
            out.push(detail.tag());
            match detail {
                AlertDetail::Holder(alert) => alert.encode(out),
                AlertDetail::Trend { eta_secs } => {
                    out.push(u8::from(eta_secs.is_some()));
                    out.extend_from_slice(&eta_secs.unwrap_or(0.0).to_bits().to_le_bytes());
                }
                AlertDetail::Spectrum {
                    delta_alpha,
                    baseline_width,
                } => {
                    out.extend_from_slice(&delta_alpha.to_bits().to_le_bytes());
                    out.extend_from_slice(&baseline_width.to_bits().to_le_bytes());
                }
            }
        }
        AlarmKind::MachineAlarm { votes, members } => {
            out.extend_from_slice(&(*votes as u64).to_le_bytes());
            out.extend_from_slice(&(*members as u64).to_le_bytes());
        }
        AlarmKind::Restart {
            reason,
            downtime_secs,
        } => {
            out.push(reason.code());
            out.extend_from_slice(&downtime_secs.to_bits().to_le_bytes());
        }
    }
}

/// Canonical encoding of a whole event sequence (the E14 parity
/// fingerprint — see [`encode_event`]).
pub fn encode_events(events: &[ServeEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 48);
    for e in events {
        encode_event(e, &mut out);
    }
    out
}

/// Decodes a canonical event sequence — the inverse of
/// [`encode_events`], used when restoring a persisted alarm history.
///
/// # Errors
///
/// Returns a description of the first malformation; a valid prefix is
/// not returned (the sequence is all-or-nothing, like a frame payload).
pub fn decode_events(bytes: &[u8]) -> Result<Vec<ServeEvent>, String> {
    read_events(bytes).map_err(|e| e.to_string())
}

/// [`decode_events`] with the reader's typed error.
pub(crate) fn read_events(bytes: &[u8]) -> Result<Vec<ServeEvent>> {
    let mut r = Reader::new(bytes);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        out.push(decode_event(&mut r)?);
    }
    Ok(out)
}

/// Reads one event written by [`encode_event`].
pub(crate) fn decode_event(r: &mut Reader<'_>) -> Result<ServeEvent> {
    let machine_id = r.u64()?;
    let time_secs = r.f64()?;
    let level = AlertLevel::from_code(r.u8()?)?;
    let kind = match r.u8()? {
        AlarmKind::DETECTOR_TAG => {
            let code = r.u8()?;
            let counter = Counter::from_code(code)
                .ok_or_else(|| malformed(format!("bad counter code {code}")))?;
            let code = r.u8()?;
            let detector = DetectorSpec::family_name(code)
                .ok_or_else(|| malformed(format!("bad detector code {code}")))?;
            let detail = match r.u8()? {
                AlertDetail::HOLDER_TAG => AlertDetail::Holder(Alert::decode(r)?),
                AlertDetail::TREND_TAG => {
                    let has_eta = r.u8()? != 0;
                    let eta = r.f64()?;
                    AlertDetail::Trend {
                        eta_secs: has_eta.then_some(eta),
                    }
                }
                AlertDetail::SPECTRUM_TAG => {
                    let delta_alpha = r.f64()?;
                    let baseline_width = r.f64()?;
                    AlertDetail::Spectrum {
                        delta_alpha,
                        baseline_width,
                    }
                }
                t => return Err(malformed(format!("bad detail tag {t}"))),
            };
            AlarmKind::Detector {
                counter,
                detector,
                detail,
            }
        }
        AlarmKind::MACHINE_ALARM_TAG => AlarmKind::MachineAlarm {
            votes: r.u64()? as usize,
            members: r.u64()? as usize,
        },
        AlarmKind::RESTART_TAG => AlarmKind::Restart {
            reason: aging_rejuv::RestartReason::from_code(r.u8()?)?,
            downtime_secs: r.f64()?,
        },
        t => return Err(malformed(format!("bad event kind tag {t}"))),
    };
    Ok(ServeEvent {
        machine_id,
        time_secs,
        level,
        kind,
    })
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

impl Frame {
    /// Serialises the frame payload (no length prefix / CRC — see
    /// [`encode_frame`] for the full on-wire form).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_payload(&mut out);
        out
    }

    /// Appends the payload bytes to `out` without clearing.
    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, name } => {
                out.push(TAG_HELLO);
                out.push(*version);
                put_string(out, name);
            }
            Frame::HelloAck {
                version,
                window,
                max_frame,
            } => {
                out.push(TAG_HELLO_ACK);
                out.push(*version);
                out.extend_from_slice(&window.to_le_bytes());
                out.extend_from_slice(&max_frame.to_le_bytes());
            }
            Frame::Batch { seq, records } => put_batch(out, *seq, records),
            Frame::BatchColumnar {
                seq,
                machine_id,
                counter,
                t0,
                dt_units,
                values,
            } => {
                debug_assert!(
                    values.is_empty() || values.len() == dt_units.len() + 1,
                    "ragged column"
                );
                out.push(TAG_BATCH_COLUMNAR);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&machine_id.to_le_bytes());
                out.push(*counter);
                out.extend_from_slice(&t0.to_bits().to_le_bytes());
                let n = values.len().min(usize::from(u16::MAX));
                out.extend_from_slice(&(n as u16).to_le_bytes());
                for dt in &dt_units[..n.saturating_sub(1)] {
                    out.extend_from_slice(&dt.to_le_bytes());
                }
                for v in &values[..n] {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Frame::Ack { seq, accepted } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&accepted.to_le_bytes());
            }
            Frame::Busy { backlog } => {
                out.push(TAG_BUSY);
                out.extend_from_slice(&backlog.to_le_bytes());
            }
            Frame::MachineDone { machine_id } => {
                out.push(TAG_MACHINE_DONE);
                out.extend_from_slice(&machine_id.to_le_bytes());
            }
            Frame::QueryStatus => out.push(TAG_QUERY_STATUS),
            Frame::StatusReply { json } => {
                out.push(TAG_STATUS_REPLY);
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Frame::Status { status } => {
                out.push(TAG_STATUS);
                status.wire.encode_state(out);
                status.fleet.encode_state(out);
            }
            Frame::QueryMachine { machine_id } => {
                out.push(TAG_QUERY_MACHINE);
                out.extend_from_slice(&machine_id.to_le_bytes());
            }
            Frame::MachineReply { json } => {
                out.push(TAG_MACHINE_REPLY);
                match json {
                    Some(json) => {
                        out.push(1);
                        out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                        out.extend_from_slice(json.as_bytes());
                    }
                    None => out.push(0),
                }
            }
            Frame::QuerySpectrum { machine_id } => {
                out.push(TAG_QUERY_SPECTRUM);
                out.extend_from_slice(&machine_id.to_le_bytes());
            }
            Frame::SpectrumReply {
                machine_id,
                known,
                widths,
            } => {
                out.push(TAG_SPECTRUM_REPLY);
                out.extend_from_slice(&machine_id.to_le_bytes());
                out.push(u8::from(*known));
                let n = widths.len().min(usize::from(u16::MAX));
                out.extend_from_slice(&(n as u16).to_le_bytes());
                for (counter, delta_alpha) in &widths[..n] {
                    out.push(*counter);
                    out.extend_from_slice(&delta_alpha.to_bits().to_le_bytes());
                }
            }
            Frame::QueryRejuv { machine_id } => {
                out.push(TAG_QUERY_REJUV);
                out.extend_from_slice(&machine_id.to_le_bytes());
            }
            Frame::RejuvReply {
                machine_id,
                known,
                policy,
                restarts,
                denied,
                last_restart_secs,
            } => {
                out.push(TAG_REJUV_REPLY);
                out.extend_from_slice(&machine_id.to_le_bytes());
                out.push(u8::from(*known));
                out.push(*policy);
                out.extend_from_slice(&restarts.to_le_bytes());
                out.extend_from_slice(&denied.to_le_bytes());
                out.push(u8::from(last_restart_secs.is_some()));
                out.extend_from_slice(&last_restart_secs.unwrap_or(0.0).to_bits().to_le_bytes());
            }
            Frame::QueryAlarms { since } => {
                out.push(TAG_QUERY_ALARMS);
                out.extend_from_slice(&since.to_le_bytes());
            }
            Frame::AlarmsReply {
                since,
                total,
                shard,
                watermark_secs,
                events,
            } => {
                out.push(TAG_ALARMS_REPLY);
                out.extend_from_slice(&since.to_le_bytes());
                out.extend_from_slice(&total.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&watermark_secs.to_bits().to_le_bytes());
                let n = events.len().min(usize::from(u16::MAX));
                out.extend_from_slice(&(n as u16).to_le_bytes());
                for event in &events[..n] {
                    encode_event(event, out);
                }
            }
            Frame::Bye => out.push(TAG_BYE),
            Frame::ByeAck => out.push(TAG_BYE_ACK),
            Frame::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(*code);
                put_string(out, message);
            }
        }
    }

    /// Parses a frame payload (the bytes between length prefix and CRC).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation. A payload that fails
    /// here arrived inside an intact frame: the connection's framing is
    /// still sound and the session may continue (it counts a strike).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, String> {
        Frame::read(payload).map_err(|e| e.to_string())
    }

    /// [`Frame::decode_payload`] with the reader's typed error.
    fn read(payload: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello {
                version: r.u8()?,
                name: read_string(&mut r, Reader::u16)?,
            },
            TAG_HELLO_ACK => Frame::HelloAck {
                version: r.u8()?,
                window: r.u16()?,
                max_frame: r.u32()?,
            },
            TAG_BATCH => {
                let seq = r.u64()?;
                let n = r.count(Reader::u16, RECORD_BYTES)?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(Record::read(&mut r)?);
                }
                Frame::Batch { seq, records }
            }
            TAG_BATCH_COLUMNAR => {
                let seq = r.u64()?;
                let machine_id = r.u64()?;
                let counter = r.u8()?;
                let t0 = r.f64()?;
                // `n` values behind `n - 1` deltas: at least a value's
                // eight bytes per record.
                let n = r.count(Reader::u16, 8)?;
                if n == 0 {
                    return Err(malformed("empty columnar batch".into()));
                }
                let mut dt_units = Vec::with_capacity(n - 1);
                for _ in 1..n {
                    dt_units.push(r.u32()?);
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.f64()?);
                }
                Frame::BatchColumnar {
                    seq,
                    machine_id,
                    counter,
                    t0,
                    dt_units,
                    values,
                }
            }
            TAG_ACK => Frame::Ack {
                seq: r.u64()?,
                accepted: r.u16()?,
            },
            TAG_BUSY => Frame::Busy { backlog: r.u32()? },
            TAG_MACHINE_DONE => Frame::MachineDone {
                machine_id: r.u64()?,
            },
            TAG_QUERY_STATUS => Frame::QueryStatus,
            TAG_STATUS_REPLY => Frame::StatusReply {
                json: read_string(&mut r, Reader::u32)?,
            },
            TAG_STATUS => {
                let mut status = ServeStatus::default();
                status.wire.restore_state(&mut r)?;
                status.fleet.restore_state(&mut r)?;
                Frame::Status { status }
            }
            TAG_QUERY_MACHINE => Frame::QueryMachine {
                machine_id: r.u64()?,
            },
            TAG_MACHINE_REPLY => Frame::MachineReply {
                json: match r.u8()? {
                    0 => None,
                    _ => Some(read_string(&mut r, Reader::u32)?),
                },
            },
            TAG_QUERY_SPECTRUM => Frame::QuerySpectrum {
                machine_id: r.u64()?,
            },
            TAG_SPECTRUM_REPLY => {
                let machine_id = r.u64()?;
                let known = r.u8()? != 0;
                let n = r.count(Reader::u16, 1 + 8)?;
                let mut widths = Vec::with_capacity(n);
                for _ in 0..n {
                    widths.push((r.u8()?, r.f64()?));
                }
                Frame::SpectrumReply {
                    machine_id,
                    known,
                    widths,
                }
            }
            TAG_QUERY_REJUV => Frame::QueryRejuv {
                machine_id: r.u64()?,
            },
            TAG_REJUV_REPLY => {
                let machine_id = r.u64()?;
                let known = r.u8()? != 0;
                let policy = r.u8()?;
                let restarts = r.u64()?;
                let denied = r.u64()?;
                let has_last = r.u8()? != 0;
                let last = r.f64()?;
                Frame::RejuvReply {
                    machine_id,
                    known,
                    policy,
                    restarts,
                    denied,
                    last_restart_secs: has_last.then_some(last),
                }
            }
            TAG_QUERY_ALARMS => Frame::QueryAlarms { since: r.u64()? },
            TAG_ALARMS_REPLY => {
                let since = r.u64()?;
                let total = r.u64()?;
                let shard = r.u64()?;
                let watermark_secs = r.f64()?;
                let n = r.count(Reader::u16, EVENT_MIN_BYTES)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(decode_event(&mut r)?);
                }
                Frame::AlarmsReply {
                    since,
                    total,
                    shard,
                    watermark_secs,
                    events,
                }
            }
            TAG_BYE => Frame::Bye,
            TAG_BYE_ACK => Frame::ByeAck,
            TAG_ERROR => Frame::Error {
                code: r.u8()?,
                message: read_string(&mut r, Reader::u16)?,
            },
            tag => return Err(malformed(format!("unknown frame tag 0x{tag:02x}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Serialises a frame into its full on-wire form:
/// `len | payload | crc32(payload)`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Serialises a frame's full on-wire form into a reused buffer (cleared
/// first) — the allocation-free form of [`encode_frame`].
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    append_frame(frame, out);
}

/// Appends a frame's full on-wire form to `out`, keeping what is already
/// there — how a sender queues several frames for one socket write. The
/// payload is written in place after a length placeholder, so no
/// intermediate payload buffer exists even for large batches.
pub(crate) fn append_frame(frame: &Frame, out: &mut Vec<u8>) {
    let start = aging_store::begin_frame(out);
    frame.put_payload(out);
    aging_store::finish_frame(out, start);
}

/// Appends a [`Frame::Batch`] payload; records beyond the count field's
/// `u16::MAX` ceiling are dropped.
fn put_batch(out: &mut Vec<u8>, seq: u64, records: &[Record]) {
    out.push(TAG_BATCH);
    out.extend_from_slice(&seq.to_le_bytes());
    let n = records.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for rec in &records[..n] {
        rec.put(out);
    }
}

/// Encodes a [`Frame::Batch`]'s full on-wire form directly from a record
/// slice — no owned `Frame` (and no `records.to_vec()`) on the send
/// path. `out` is cleared first; records beyond the count field's
/// `u16::MAX` ceiling are dropped, matching [`Frame::encode_payload`].
pub fn encode_batch_frame_into(seq: u64, records: &[Record], out: &mut Vec<u8>) {
    out.clear();
    let start = aging_store::begin_frame(out);
    put_batch(out, seq, records);
    aging_store::finish_frame(out, start);
}

/// Encodes a [`Frame::BatchColumnar`]'s full on-wire form directly from
/// parallel time/value slices, computing the deltas on the fly — the
/// whole column is serialised without a single per-record allocation.
/// `out` is cleared first. Extra elements beyond the shorter slice are
/// ignored.
///
/// # Errors
///
/// When the column is empty, longer than the count field's `u16::MAX`
/// ceiling, or some timestamp step is not delta-encodable
/// ([`column_delta_units`] returns `None`) — split such columns with
/// [`columnar_spans`] first. On error `out`'s contents are unspecified.
pub fn encode_columnar_frame_into(
    seq: u64,
    machine_id: u64,
    counter: u8,
    times: &[f64],
    values: &[f64],
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let n = times.len().min(values.len());
    if n == 0 {
        return Err("empty column".to_string());
    }
    if n > usize::from(u16::MAX) {
        return Err(format!("column of {n} records exceeds the u16 count"));
    }
    out.clear();
    let start = aging_store::begin_frame(out);
    out.push(TAG_BATCH_COLUMNAR);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&machine_id.to_le_bytes());
    out.push(counter);
    out.extend_from_slice(&times[0].to_bits().to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for w in times[..n].windows(2) {
        let dt = column_delta_units(w[0], w[1]).ok_or_else(|| {
            format!(
                "timestamp step {:?} -> {:?} is not delta-encodable",
                w[0], w[1]
            )
        })?;
        out.extend_from_slice(&dt.to_le_bytes());
    }
    for v in &values[..n] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    aging_store::finish_frame(out, start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::WireCounters;
    use aging_core::detector::Trigger;
    use aging_stream::telemetry::{LatencyHistogram, StageCounters, StatusSnapshot};

    /// A status at stream time `t`, every counter at `n`.
    fn status(t: f64, n: u64) -> ServeStatus {
        ServeStatus {
            wire: WireCounters {
                connections: n,
                sessions_closed: 1,
                text_sessions: 2,
                frames: n,
                batches: 4,
                records: 5,
                records_rejected: 6,
                acks_sent: 7,
                busy_sent: 8,
                malformed_frames: 9,
                corrupt_streams: 10,
                quarantined: 11,
                session_panics: 12,
                queries: n,
            },
            fleet: StatusSnapshot {
                sequence: n,
                stream_time_secs: t,
                machines_live: 3,
                machines_finished: usize::try_from(n).unwrap_or(usize::MAX),
                ingestion: StageCounters {
                    ingested: n,
                    accepted: 13,
                    dropped_non_finite: 14,
                    dropped_out_of_order: 15,
                    gaps_detected: 16,
                    quarantines: 17,
                },
                detector_latency: LatencyHistogram {
                    counts: [1, 2, 3, 4, 5, 6, 7, 8, n],
                    total: n,
                    sum_us: 18,
                    max_us: n,
                },
                warnings_emitted: 19,
                alarms_emitted: 20,
                alarm_queue_depth: 21,
                telemetry_dropped: 22,
                detector_errors: 23,
                restarts_granted: 24,
                restarts_denied: n,
            },
        }
    }

    #[test]
    fn counter_codes_round_trip() {
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter_code(c), i as u8);
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                name: "loadgen-0".into(),
            },
            // Longer than the u16 length allows, and two bytes a char: the
            // cut must land on a char boundary.
            Frame::Hello {
                version: PROTOCOL_VERSION,
                name: "é".repeat(35_000),
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
                window: 32,
                max_frame: DEFAULT_MAX_FRAME,
            },
            Frame::Batch {
                seq: 7,
                records: vec![
                    Record {
                        machine_id: 3,
                        counter: 0,
                        time_secs: 5.0,
                        value: 1e6,
                    },
                    Record {
                        machine_id: 3,
                        counter: 1,
                        time_secs: 5.0,
                        value: f64::NAN,
                    },
                ],
            },
            Frame::BatchColumnar {
                seq: 8,
                machine_id: 3,
                counter: 0,
                t0: 5.0,
                dt_units: vec![5 << 20, 0, 7 << 20],
                values: vec![1e6, 9.5e5, f64::NAN, 8.75e5],
            },
            Frame::Ack {
                seq: 7,
                accepted: 2,
            },
            Frame::Busy { backlog: 99 },
            Frame::MachineDone { machine_id: 3 },
            Frame::QueryStatus,
            Frame::StatusReply {
                json: "{\"x\":1}".into(),
            },
            Frame::Status {
                status: status(277_950.0, 79),
            },
            Frame::Status {
                status: status(f64::NAN, u64::MAX),
            },
            Frame::Status {
                status: status(f64::INFINITY, 0),
            },
            Frame::Status {
                status: status(f64::NEG_INFINITY, u64::MAX),
            },
            Frame::QueryMachine { machine_id: 3 },
            Frame::MachineReply { json: None },
            Frame::MachineReply {
                json: Some("{}".into()),
            },
            Frame::QueryAlarms { since: 4 },
            Frame::AlarmsReply {
                since: 4,
                total: 6,
                shard: 2,
                watermark_secs: f64::NEG_INFINITY,
                events: vec![
                    ServeEvent {
                        machine_id: 3,
                        time_secs: 120.0,
                        level: AlertLevel::Alarm,
                        kind: AlarmKind::MachineAlarm {
                            votes: 1,
                            members: 1,
                        },
                    },
                    ServeEvent {
                        machine_id: 4,
                        time_secs: 60.0,
                        level: AlertLevel::Warning,
                        kind: AlarmKind::Detector {
                            counter: Counter::AvailableBytes,
                            detector: "holder-dimension",
                            detail: AlertDetail::Holder(Alert {
                                sample_index: 512,
                                level: AlertLevel::Warning,
                                trigger: Trigger::Both,
                                dimension: 1.4,
                                mean_holder: 0.3,
                                dimension_baseline: 1.1,
                                holder_baseline: 0.5,
                            }),
                        },
                    },
                    ServeEvent {
                        machine_id: 5,
                        time_secs: 90.0,
                        level: AlertLevel::Alarm,
                        kind: AlarmKind::Detector {
                            counter: Counter::UsedSwapBytes,
                            detector: "mann-kendall-sen",
                            detail: AlertDetail::Trend {
                                eta_secs: Some(1234.5),
                            },
                        },
                    },
                    ServeEvent {
                        machine_id: 6,
                        time_secs: 95.0,
                        level: AlertLevel::Alarm,
                        kind: AlarmKind::Detector {
                            counter: Counter::AvailableBytes,
                            detector: "spectrum-width",
                            detail: AlertDetail::Spectrum {
                                delta_alpha: 0.81,
                                baseline_width: 0.07,
                            },
                        },
                    },
                    ServeEvent {
                        machine_id: 7,
                        time_secs: 130.0,
                        level: AlertLevel::Warning,
                        kind: AlarmKind::Restart {
                            reason: aging_rejuv::RestartReason::Alarm,
                            downtime_secs: 30.0,
                        },
                    },
                ],
            },
            Frame::QuerySpectrum { machine_id: 3 },
            Frame::SpectrumReply {
                machine_id: 3,
                known: true,
                widths: vec![(0, 0.42), (1, 0.13)],
            },
            Frame::SpectrumReply {
                machine_id: 9,
                known: false,
                widths: vec![],
            },
            Frame::QueryRejuv { machine_id: 4 },
            Frame::RejuvReply {
                machine_id: 4,
                known: true,
                policy: 2,
                restarts: 3,
                denied: 1,
                last_restart_secs: Some(7200.0),
            },
            Frame::RejuvReply {
                machine_id: 11,
                known: false,
                policy: 0,
                restarts: 0,
                denied: 0,
                last_restart_secs: None,
            },
            Frame::Bye,
            Frame::ByeAck,
            Frame::Error {
                code: ERR_MALFORMED,
                message: "bad tag".into(),
            },
        ];
        for frame in frames {
            let payload = frame.encode_payload();
            let back = Frame::decode_payload(&payload).unwrap();
            // NaN-carrying batches can't use PartialEq; compare by
            // re-encoding, which is bit-exact.
            assert_eq!(payload, back.encode_payload(), "{frame:?}");
            if let Frame::Status { status } = &frame {
                // A fixed layout: the tag, then 14 wire counters and the
                // snapshot's 29 words.
                assert_eq!(payload.len(), 1 + (14 + 29) * 8);
                assert_eq!(payload[0], 0x15);
                if !status.fleet.stream_time_secs.is_nan() {
                    assert_eq!(&back, &frame);
                }
            }
        }
    }

    #[test]
    fn long_strings_are_cut_on_a_char_boundary() {
        let payload = Frame::Error {
            code: ERR_MALFORMED,
            message: format!("x{}", "é".repeat(40_000)),
        }
        .encode_payload();
        let Frame::Error { message, .. } = Frame::decode_payload(&payload).unwrap() else {
            panic!("not an error frame");
        };
        assert_eq!(message.len(), 65_535);
        assert!(message.starts_with('x') && message.ends_with('é'));
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let event = ServeEvent {
            machine_id: 4,
            time_secs: 60.0,
            level: AlertLevel::Alarm,
            kind: AlarmKind::Restart {
                reason: aging_rejuv::RestartReason::Alarm,
                downtime_secs: 30.0,
            },
        };
        // Each payload with the offset of its `u16` count, if it has one.
        let cases = [
            (Frame::MachineDone { machine_id: 9 }, None),
            (
                Frame::Batch {
                    seq: 7,
                    records: vec![
                        Record {
                            machine_id: 3,
                            counter: 0,
                            time_secs: 5.0,
                            value: 1e6,
                        };
                        3
                    ],
                },
                Some(1 + 8),
            ),
            (
                Frame::BatchColumnar {
                    seq: 8,
                    machine_id: 3,
                    counter: 0,
                    t0: 5.0,
                    dt_units: vec![5 << 20, 0],
                    values: vec![1e6, 9.5e5, 8.75e5],
                },
                Some(1 + 8 + 8 + 1 + 8),
            ),
            (
                Frame::SpectrumReply {
                    machine_id: 3,
                    known: true,
                    widths: vec![(0, 0.42), (1, 0.13)],
                },
                Some(1 + 8 + 1),
            ),
            (
                Frame::Status {
                    status: status(f64::NAN, u64::MAX),
                },
                None,
            ),
            (
                Frame::AlarmsReply {
                    since: 0,
                    total: 2,
                    shard: 0,
                    watermark_secs: 61.0,
                    events: vec![event.clone(), event],
                },
                Some(1 + 8 + 8 + 8 + 8),
            ),
        ];
        for (frame, count_at) in cases {
            let payload = frame.encode_payload();
            for cut in 0..payload.len() {
                assert!(
                    Frame::decode_payload(&payload[..cut]).is_err(),
                    "{frame:?} cut at {cut}"
                );
            }
            let mut extended = payload.clone();
            extended.push(0);
            assert!(Frame::decode_payload(&extended).is_err(), "{frame:?}");
            if let Some(at) = count_at {
                let mut inflated = payload.clone();
                inflated[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
                assert!(
                    Frame::decode_payload(&inflated).is_err(),
                    "{frame:?} with 65 535 elements"
                );
            }
        }
    }

    #[test]
    fn empty_columnar_batch_rejected() {
        let payload = Frame::BatchColumnar {
            seq: 1,
            machine_id: 2,
            counter: 0,
            t0: 0.0,
            dt_units: vec![],
            values: vec![],
        }
        .encode_payload();
        assert!(Frame::decode_payload(&payload).is_err());
    }

    #[test]
    fn column_delta_rules() {
        // Exact 2⁻²⁰ s multiples round-trip, including dt = 0.
        assert_eq!(column_delta_units(5.0, 10.0), Some(5 << 20));
        assert_eq!(column_delta_units(5.0, 5.0), Some(0));
        // Non-monotone, non-finite and sub-resolution steps split.
        assert_eq!(column_delta_units(10.0, 5.0), None);
        assert_eq!(column_delta_units(f64::NAN, 5.0), None);
        assert_eq!(column_delta_units(5.0, f64::INFINITY), None);
        assert_eq!(column_delta_units(0.0, 2f64.powi(-21)), None);
        // u32 overflow: max delta is (2³² − 1) units = 4095.999… s.
        let max_dt = f64::from(u32::MAX) / DT_UNITS_PER_SEC;
        assert_eq!(column_delta_units(0.0, max_dt), Some(u32::MAX));
        assert_eq!(column_delta_units(0.0, 4096.0), None);
        // At 2⁶⁰ one ulp is 256 s, so `+ 5.0` is absorbed outright: the
        // pair collapses to dt = 0 and still round-trips bit-exactly.
        assert_eq!(
            column_delta_units(2f64.powi(60), 2f64.powi(60) + 5.0),
            Some(0)
        );
        // A real one-ulp step at that magnitude is 256 s = 2²⁸ units.
        assert_eq!(
            column_delta_units(2f64.powi(60), 2f64.powi(60) + 256.0),
            Some(256 << 20)
        );
    }

    #[test]
    fn columnar_spans_cover_and_split() {
        let times = [0.0, 5.0, 10.0, 9.0, 14.0, f64::NAN, 20.0, 25.0];
        let mut spans = Vec::new();
        columnar_spans(&times, 64, &mut spans);
        assert_eq!(spans, vec![(0, 3), (3, 2), (5, 1), (6, 2)]);
        assert_eq!(spans.iter().map(|&(_, l)| l).sum::<usize>(), times.len());

        // max_span caps growth.
        columnar_spans(&[0.0, 5.0, 10.0, 15.0], 2, &mut spans);
        assert_eq!(spans, vec![(0, 2), (2, 2)]);

        // Every span reconstructs its slice bit-exactly.
        columnar_spans(&times, 64, &mut spans);
        let mut expanded = Vec::new();
        for &(start, len) in &spans {
            let slice = &times[start..start + len];
            let dt: Vec<u32> = slice
                .windows(2)
                .map(|w| column_delta_units(w[0], w[1]).unwrap())
                .collect();
            expand_column_times(slice[0], &dt, &mut expanded);
            assert_eq!(expanded.len(), len);
            for (a, b) in expanded.iter().zip(slice) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn text_preamble_is_not_a_plausible_length() {
        let as_len = u32::from_le_bytes(TEXT_PREAMBLE[..4].try_into().unwrap());
        assert!(as_len > 16 * 1024 * 1024, "{as_len}");
    }
}
