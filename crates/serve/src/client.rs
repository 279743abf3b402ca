//! Blocking client for the aging-serve wire protocol.
//!
//! [`ServeClient`] speaks the binary framing from [`crate::protocol`]:
//! it performs the version handshake, streams record batches under the
//! server-advertised credit window (blocking on acks when the window is
//! full), and issues status/machine/alarm queries. Ack round-trip times
//! are folded into a [`LatencyHistogram`] so load generators get ingest
//! latency for free.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use aging_memsim::Counter;
use aging_stream::sink::IngestSink;
use aging_stream::telemetry::{LatencyHistogram, MachineSnapshot};
use aging_timeseries::{Error, Result};

use crate::codec::FrameDecoder;
use crate::protocol::{
    columnar_spans, encode_batch_frame_into, encode_columnar_frame_into, encode_frame_into, Frame,
    Record, ServeEvent, COLUMN_HEADER_BYTES, COLUMN_RECORD_BYTES, PROTOCOL_VERSION,
    PROTOCOL_VERSION_V2, PROTOCOL_VERSION_V3, RECORD_BYTES,
};
use crate::server::ServeStatus;

/// How long [`ServeClient`] waits for any single reply frame before
/// giving up with [`Error::Io`].
pub const CLIENT_REPLY_TIMEOUT_MS: u64 = 10_000;

/// One `AlarmsReply` with its shard/watermark advertisement — what a
/// cluster aggregator consumes per poll.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmChunk {
    /// Shard identity the server advertises
    /// ([`crate::ServeConfig::shard_id`]; `0` for standalone servers).
    pub shard: u64,
    /// Release watermark consistent with `total`: every released event
    /// at or below this time is within the first `total` events, and the
    /// server will never release another event at or below it. `+inf`
    /// means the shard has drained (no feed can reopen the promise).
    pub watermark_secs: f64,
    /// Total released events on the server at reply time.
    pub total: u64,
    /// The events at `since..since + events.len()`.
    pub events: Vec<ServeEvent>,
}

/// One machine's shadow rejuvenation advisory (a decoded
/// `Frame::RejuvReply` for a known machine): what the server's
/// configured [`aging_rejuv::RejuvPolicy`] would have decided over the
/// machine's released alarm history. Purely observational — the serve
/// tier never restarts anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejuvAdvice {
    /// Configured policy ([`aging_rejuv::RejuvPolicy::code`]).
    pub policy: u8,
    /// Restarts the policy would have granted so far.
    pub restarts: u64,
    /// Requests the policy would have denied (cooldown or budget).
    pub denied: u64,
    /// Time of the last granted shadow restart, if any.
    pub last_restart_secs: Option<f64>,
}

/// A connected, handshaken client session.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Credit window granted by the server's `HelloAck`.
    window: u16,
    /// Frame size limit granted by the server's `HelloAck`.
    max_frame: u32,
    /// Protocol version negotiated in the handshake.
    version: u8,
    inflight: VecDeque<(u64, Instant)>,
    next_seq: u64,
    ack_rtt: LatencyHistogram,
    records_accepted: u64,
    busy_frames: u64,
    /// Reused wire-encoding buffer — batch sends allocate nothing.
    enc: Vec<u8>,
    /// Reused span-split scratch for [`ServeClient::send_column`].
    spans: Vec<(usize, usize)>,
    /// Reused socket read buffer — a read zeroes nothing.
    rx: Box<[u8]>,
}

impl ServeClient {
    /// Connects and completes the `Hello`/`HelloAck` handshake, offering
    /// [`PROTOCOL_VERSION_V3`] (the server negotiates down to what it
    /// speaks — check [`ServeClient::version`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure, a rejected protocol version, or
    /// an unexpected handshake reply.
    pub fn connect(addr: SocketAddr, name: &str) -> Result<ServeClient> {
        ServeClient::connect_with_version(addr, name, PROTOCOL_VERSION_V3)
    }

    /// Connects offering a specific protocol version — how a v1-only
    /// client presents itself (and how back-compat tests pin the
    /// negotiated session down).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::connect`].
    pub fn connect_with_version(addr: SocketAddr, name: &str, version: u8) -> Result<ServeClient> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(io_err)?;
        let mut client = ServeClient {
            stream,
            dec: FrameDecoder::new(u32::MAX),
            window: 1,
            max_frame: u32::MAX,
            version: PROTOCOL_VERSION,
            inflight: VecDeque::new(),
            next_seq: 0,
            ack_rtt: LatencyHistogram::default(),
            records_accepted: 0,
            busy_frames: 0,
            enc: Vec::new(),
            spans: Vec::new(),
            rx: vec![0u8; 16 * 1024].into_boxed_slice(),
        };
        client.send(&Frame::Hello {
            version,
            name: name.to_string(),
        })?;
        match client.recv_reply()? {
            Frame::HelloAck {
                version: negotiated,
                window,
                max_frame,
            } => {
                // Never speak above what we offered, whatever the server
                // claims.
                client.version = negotiated.min(version);
                client.window = window.max(1);
                client.max_frame = max_frame;
                Ok(client)
            }
            Frame::Error { code, message } => Err(Error::Io(format!(
                "handshake rejected (code {code}): {message}"
            ))),
            other => Err(Error::Io(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// The protocol version negotiated in the handshake; columnar sends
    /// require [`PROTOCOL_VERSION_V2`].
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Ack round-trip latency observed so far (one sample per batch).
    pub fn ack_rtt(&self) -> &LatencyHistogram {
        &self.ack_rtt
    }

    /// Total records the server has acked as accepted.
    pub fn records_accepted(&self) -> u64 {
        self.records_accepted
    }

    /// Advisory `Busy` frames received (backpressure signals).
    pub fn busy_frames(&self) -> u64 {
        self.busy_frames
    }

    /// Sequence numbers of batches sent but not yet acked, oldest first.
    ///
    /// After a server crash these are exactly the batches whose
    /// durability is unknown — a resuming client re-sends them (the
    /// engine's gates drop any records that were in fact journaled, so
    /// redelivery is idempotent).
    pub fn unacked_seqs(&self) -> Vec<u64> {
        self.inflight.iter().map(|&(seq, _)| seq).collect()
    }

    /// Sends one batch, blocking for an ack first if the credit window
    /// is exhausted.
    ///
    /// **Deprecated in favor of the unified ingestion surface** — new
    /// code should feed through [`IngestSink`] (`ingest_record` /
    /// `ingest_column`) or [`ServeClient::send_column`], which pick the
    /// best wire framing for the negotiated protocol version. This
    /// method stays (not removed) as the protocol-v1 record-framing
    /// primitive those paths fall back to.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a server `Error` frame.
    pub fn send_batch(&mut self, records: &[Record]) -> Result<u64> {
        while self.inflight.len() >= usize::from(self.window) {
            self.pump_one()?;
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        // Encode straight from the slice into the reused buffer: no
        // owned `Frame`, no `records.to_vec()`.
        let mut enc = std::mem::take(&mut self.enc);
        encode_batch_frame_into(seq, records, &mut enc);
        let sent = self.stream.write_all(&enc).map_err(io_err);
        self.enc = enc;
        sent?;
        self.inflight.push_back((seq, Instant::now()));
        // Opportunistically drain any acks already on the wire.
        self.drain_ready()?;
        Ok(seq)
    }

    /// Sends one column — `counter` on `machine_id` with parallel
    /// `times`/`values` slices — as [`Frame::BatchColumnar`] frames,
    /// splitting wherever the delta encoding cannot reproduce a
    /// timestamp bit-exactly ([`columnar_spans`]) and at the negotiated
    /// frame size. Extra elements beyond the shorter slice are ignored.
    /// Returns the number of frames sent; credit-window blocking and
    /// ack/RTT accounting are identical to [`ServeClient::send_batch`].
    ///
    /// On a session negotiated below [`PROTOCOL_VERSION_V2`] the column
    /// falls back to equivalent record batches, so callers never need to
    /// care what the server speaks.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a server `Error` frame.
    pub fn send_column(
        &mut self,
        machine_id: u64,
        counter: u8,
        times: &[f64],
        values: &[f64],
    ) -> Result<u64> {
        let n = times.len().min(values.len());
        if n == 0 {
            return Ok(0);
        }
        if self.version < PROTOCOL_VERSION_V2 {
            return self.send_column_as_batches(machine_id, counter, &times[..n], &values[..n]);
        }
        let max_span = ((self.max_frame as usize).saturating_sub(COLUMN_HEADER_BYTES)
            / COLUMN_RECORD_BYTES)
            .max(1);
        let mut spans = std::mem::take(&mut self.spans);
        columnar_spans(&times[..n], max_span, &mut spans);
        let mut frames = 0u64;
        for &(start, len) in &spans {
            while self.inflight.len() >= usize::from(self.window) {
                if let Err(e) = self.pump_one() {
                    self.spans = spans;
                    return Err(e);
                }
            }
            self.next_seq += 1;
            let seq = self.next_seq;
            let mut enc = std::mem::take(&mut self.enc);
            let sent = encode_columnar_frame_into(
                seq,
                machine_id,
                counter,
                &times[start..start + len],
                &values[start..start + len],
                &mut enc,
            )
            .map_err(Error::Io)
            .and_then(|()| self.stream.write_all(&enc).map_err(io_err));
            self.enc = enc;
            if let Err(e) = sent {
                self.spans = spans;
                return Err(e);
            }
            self.inflight.push_back((seq, Instant::now()));
            frames += 1;
            if let Err(e) = self.drain_ready() {
                self.spans = spans;
                return Err(e);
            }
        }
        self.spans = spans;
        Ok(frames)
    }

    /// v1 fallback for [`ServeClient::send_column`]: the same records as
    /// classic [`Frame::Batch`]es sized to the negotiated frame limit.
    fn send_column_as_batches(
        &mut self,
        machine_id: u64,
        counter: u8,
        times: &[f64],
        values: &[f64],
    ) -> Result<u64> {
        let per_batch = ((self.max_frame as usize).saturating_sub(11) / RECORD_BYTES)
            .clamp(1, usize::from(u16::MAX));
        let mut records = Vec::with_capacity(per_batch.min(times.len()));
        let mut frames = 0u64;
        for chunk_start in (0..times.len()).step_by(per_batch) {
            let end = (chunk_start + per_batch).min(times.len());
            records.clear();
            for k in chunk_start..end {
                records.push(Record {
                    machine_id,
                    counter,
                    time_secs: times[k],
                    value: values[k],
                });
            }
            self.send_batch(&records)?;
            frames += 1;
        }
        Ok(frames)
    }

    /// Blocks until every outstanding batch has been acked.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or reply timeout.
    pub fn flush(&mut self) -> Result<()> {
        while !self.inflight.is_empty() {
            self.pump_one()?;
        }
        Ok(())
    }

    /// Declares a machine's feed complete (its pipeline is flushed and
    /// stops holding the fleet watermark).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure.
    pub fn machine_done(&mut self, machine_id: u64) -> Result<()> {
        self.send(&Frame::MachineDone { machine_id })
    }

    /// Fetches the server's status document: decoded from the binary
    /// [`Frame::Status`] on a v3 session, parsed from the JSON
    /// [`Frame::StatusReply`] below it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_status(&mut self) -> Result<ServeStatus> {
        self.send(&Frame::QueryStatus)?;
        match self.recv_reply()? {
            Frame::Status { status } => Ok(status),
            Frame::StatusReply { json } => {
                serde_json::from_str(&json).map_err(|e| Error::Io(format!("bad status reply: {e}")))
            }
            other => Err(Error::Io(format!("unexpected status reply: {other:?}"))),
        }
    }

    /// Fetches one machine's pipeline snapshot, `None` when the server
    /// has never seen that machine.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_machine(&mut self, machine_id: u64) -> Result<Option<MachineSnapshot>> {
        self.send(&Frame::QueryMachine { machine_id })?;
        match self.recv_reply()? {
            Frame::MachineReply { json: None } => Ok(None),
            Frame::MachineReply { json: Some(json) } => serde_json::from_str(&json)
                .map(Some)
                .map_err(|e| Error::Io(format!("bad machine reply: {e}"))),
            other => Err(Error::Io(format!("unexpected machine reply: {other:?}"))),
        }
    }

    /// Fetches one machine's latest streaming Δα width per counter,
    /// `None` when the server has never seen that machine. Requires a
    /// v2-negotiated session; on a v1 session the server treats the
    /// query as a strike.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_spectrum(&mut self, machine_id: u64) -> Result<Option<Vec<(Counter, f64)>>> {
        self.send(&Frame::QuerySpectrum { machine_id })?;
        match self.recv_reply()? {
            Frame::SpectrumReply {
                machine_id: m,
                known,
                widths,
            } if m == machine_id => {
                if !known {
                    return Ok(None);
                }
                let mut decoded = Vec::with_capacity(widths.len());
                for (code, width) in widths {
                    let counter = Counter::from_code(code).ok_or_else(|| {
                        Error::Io(format!("bad counter code {code} in spectrum reply"))
                    })?;
                    decoded.push((counter, width));
                }
                Ok(Some(decoded))
            }
            other => Err(Error::Io(format!("unexpected spectrum reply: {other:?}"))),
        }
    }

    /// Fetches one machine's shadow rejuvenation advisory — what the
    /// server's configured policy would have decided over the machine's
    /// released alarm history. `None` when the server has never seen
    /// that machine. Requires a v2-negotiated session; on a v1 session
    /// the server treats the query as a strike.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_rejuv(&mut self, machine_id: u64) -> Result<Option<RejuvAdvice>> {
        self.send(&Frame::QueryRejuv { machine_id })?;
        match self.recv_reply()? {
            Frame::RejuvReply {
                machine_id: m,
                known,
                policy,
                restarts,
                denied,
                last_restart_secs,
            } if m == machine_id => Ok(known.then_some(RejuvAdvice {
                policy,
                restarts,
                denied,
                last_restart_secs,
            })),
            other => Err(Error::Io(format!("unexpected rejuv reply: {other:?}"))),
        }
    }

    /// Fetches one chunk of released alarm history starting at `since`;
    /// returns `(total_released, chunk)`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_alarms(&mut self, since: u64) -> Result<(u64, Vec<ServeEvent>)> {
        let chunk = self.query_alarms_chunk(since)?;
        Ok((chunk.total, chunk.events))
    }

    /// Fetches one chunk of released alarm history starting at `since`,
    /// including the server's shard/watermark advertisement — what the
    /// cluster aggregator's merge loop consumes.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_alarms_chunk(&mut self, since: u64) -> Result<AlarmChunk> {
        self.send(&Frame::QueryAlarms { since })?;
        match self.recv_reply()? {
            Frame::AlarmsReply {
                since: _,
                total,
                shard,
                watermark_secs,
                events,
            } => Ok(AlarmChunk {
                shard,
                watermark_secs,
                total,
                events,
            }),
            other => Err(Error::Io(format!("unexpected alarms reply: {other:?}"))),
        }
    }

    /// Fetches the complete released alarm history, following the chunk
    /// cursor until caught up.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on socket failure or a malformed reply.
    pub fn query_alarms_all(&mut self) -> Result<Vec<ServeEvent>> {
        let mut events: Vec<ServeEvent> = Vec::new();
        loop {
            let (total, chunk) = self.query_alarms(events.len() as u64)?;
            let done = chunk.is_empty();
            events.extend(chunk);
            if done || events.len() as u64 >= total {
                return Ok(events);
            }
        }
    }

    /// Flushes outstanding acks and closes the session with `Bye`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the flush fails; a missing `ByeAck` (server
    /// already gone) is tolerated.
    pub fn bye(mut self) -> Result<LatencyHistogram> {
        self.flush()?;
        self.send(&Frame::Bye)?;
        // Best effort: the reply may race the close.
        let _ = self.recv_reply();
        Ok(self.ack_rtt)
    }

    // -- internals --------------------------------------------------------

    fn send(&mut self, frame: &Frame) -> Result<()> {
        let mut enc = std::mem::take(&mut self.enc);
        encode_frame_into(frame, &mut enc);
        let sent = self.stream.write_all(&enc).map_err(io_err);
        self.enc = enc;
        sent
    }

    /// Handles one already-decoded incoming frame; `true` when it was an
    /// ack (progress for window flushing).
    fn absorb(&mut self, frame: Frame) -> Result<bool> {
        match frame {
            Frame::Ack { seq, accepted } => {
                self.records_accepted += u64::from(accepted);
                if let Some(pos) = self.inflight.iter().position(|&(s, _)| s == seq) {
                    let (_, sent) = self.inflight.remove(pos).expect("position just found");
                    self.ack_rtt.record(sent.elapsed());
                }
                Ok(true)
            }
            Frame::Busy { .. } => {
                self.busy_frames += 1;
                Ok(false)
            }
            Frame::Error { code, message } => {
                Err(Error::Io(format!("server error (code {code}): {message}")))
            }
            other => Err(Error::Io(format!("unsolicited frame: {other:?}"))),
        }
    }

    /// Decodes frames already buffered locally without blocking.
    fn drain_ready(&mut self) -> Result<()> {
        while let Some(payload) = self.dec.next_payload_ref().map_err(corrupt_err)? {
            let frame = Frame::decode_payload(payload).map_err(Error::Io)?;
            self.absorb(frame)?;
        }
        Ok(())
    }

    /// Blocks until one ack arrives (absorbing busy frames on the way).
    fn pump_one(&mut self) -> Result<()> {
        let deadline = Instant::now() + Duration::from_millis(CLIENT_REPLY_TIMEOUT_MS);
        loop {
            while let Some(payload) = self.dec.next_payload_ref().map_err(corrupt_err)? {
                let frame = Frame::decode_payload(payload).map_err(Error::Io)?;
                if self.absorb(frame)? {
                    return Ok(());
                }
            }
            self.fill(deadline)?;
        }
    }

    /// Blocks until the next non-ack reply frame arrives; acks and busy
    /// frames encountered on the way are absorbed.
    fn recv_reply(&mut self) -> Result<Frame> {
        let deadline = Instant::now() + Duration::from_millis(CLIENT_REPLY_TIMEOUT_MS);
        loop {
            while let Some(payload) = self.dec.next_payload_ref().map_err(corrupt_err)? {
                let frame = Frame::decode_payload(payload).map_err(Error::Io)?;
                match frame {
                    Frame::Ack { .. } | Frame::Busy { .. } => {
                        self.absorb(frame)?;
                    }
                    other => return Ok(other),
                }
            }
            self.fill(deadline)?;
        }
    }

    /// Reads more bytes from the socket into the decoder, failing past
    /// the deadline.
    fn fill(&mut self, deadline: Instant) -> Result<()> {
        loop {
            match self.stream.read(&mut self.rx) {
                Ok(0) => return Err(Error::Io("server closed the connection".into())),
                Ok(n) => {
                    self.dec.feed(&self.rx[..n]);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err(Error::Io("timed out waiting for server reply".into()));
                    }
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }
}

/// Wire-side [`IngestSink`]: feeders written against the trait can push
/// samples through a live socket exactly as they would into an
/// in-process sink. Records travel as single-record batches (prefer the
/// column method or explicit [`ServeClient::send_batch`] calls for
/// throughput); columns use the columnar fast path with automatic v1
/// fallback. An `Ok` return means the frame was *sent*, not acked —
/// call [`ServeClient::flush`] for the durability barrier.
impl IngestSink for ServeClient {
    type Error = Error;

    fn ingest_record(
        &mut self,
        machine_id: u64,
        counter: Counter,
        time_secs: f64,
        value: f64,
    ) -> Result<()> {
        self.send_batch(&[Record {
            machine_id,
            counter: counter.code(),
            time_secs,
            value,
        }])
        .map(|_seq| ())
    }

    fn ingest_column(
        &mut self,
        machine_id: u64,
        counter: Counter,
        times: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.send_column(machine_id, counter.code(), times, values)
            .map(|_frames| ())
    }

    fn machine_done(&mut self, machine_id: u64) -> Result<()> {
        ServeClient::machine_done(self, machine_id)
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(e.to_string())
}

fn corrupt_err(c: crate::codec::CorruptStream) -> Error {
    Error::Io(format!("corrupt reply stream: {}", c.reason))
}
