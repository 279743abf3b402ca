//! Incremental frame decoding and the line-delimited text fallback.
//!
//! [`FrameDecoder`] turns an arbitrary byte stream — fed in whatever
//! chunks the socket produced — into complete, CRC-verified frame
//! payloads. The frame layout itself (header scan, CRC check) is
//! [`aging_store`]'s, shared with the journal. The decoder distinguishes
//! two failure classes with different session consequences (see the
//! [`crate::protocol`] module docs):
//!
//! - [`CorruptStream`]: the *framing* is untrustworthy (zero/oversized
//!   length prefix, CRC mismatch). No later byte boundary can be
//!   recovered; the session must quarantine the connection.
//! - a payload that fails [`crate::protocol::Frame::decode_payload`]:
//!   malformed but *consumable* — the stream stays in sync and the
//!   session counts a strike instead of dropping the client.

use aging_memsim::Counter;
use aging_store::{frame_head, frame_payload, FrameHead};

/// Framing integrity lost: the byte stream can no longer be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptStream {
    /// What broke (for diagnostics).
    pub reason: String,
}

impl std::fmt::Display for CorruptStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame stream: {}", self.reason)
    }
}

impl std::error::Error for CorruptStream {}

/// Incremental decoder for the length-prefixed CRC-checked framing.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_frame: u32,
    corrupt: bool,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_frame` as the payload size limit.
    pub fn new(max_frame: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
            corrupt: false,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing, so the buffer stays
        // bounded by the unconsumed backlog rather than stream length.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete, CRC-verified frame payload as an
    /// owned buffer — an allocating convenience over
    /// [`FrameDecoder::next_payload_ref`].
    ///
    /// # Errors
    ///
    /// Same as [`FrameDecoder::next_payload_ref`].
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, CorruptStream> {
        Ok(self.next_payload_ref()?.map(<[u8]>::to_vec))
    }

    /// Extracts the next complete, CRC-verified frame payload, or `None`
    /// when more bytes are needed. The returned slice borrows the
    /// decoder's internal buffer — no per-frame allocation — and stays
    /// valid until the next `feed`/`next_payload*` call.
    ///
    /// # Errors
    ///
    /// [`CorruptStream`] when framing integrity is lost (zero or
    /// oversized length prefix, CRC mismatch). Once returned, every later
    /// call returns the same error — there is no resynchronisation.
    pub fn next_payload_ref(&mut self) -> Result<Option<&[u8]>, CorruptStream> {
        if self.corrupt {
            return Err(CorruptStream {
                reason: "stream already corrupt".into(),
            });
        }
        let rest = &self.buf[self.pos..];
        let reason = match frame_head(rest, 1, self.max_frame) {
            FrameHead::Partial => return Ok(None),
            FrameHead::Whole { span } => match frame_payload(&rest[..span]) {
                Ok(payload) => {
                    self.pos += span;
                    return Ok(Some(payload));
                }
                Err(crc) => format!(
                    "CRC mismatch: frame says {:#010x}, payload is {:#010x}",
                    crc.stored, crc.actual
                ),
            },
            // In bounds yet rejected: the span overflows this target's
            // `usize` (a 32-bit host with `max_frame` near `u32::MAX`).
            FrameHead::BadLength(len) if (1..=self.max_frame).contains(&len) => {
                format!("length prefix {len} unaddressable on this target")
            }
            FrameHead::BadLength(len) => {
                format!("length prefix {len} outside 1..={}", self.max_frame)
            }
        };
        self.corrupt = true;
        Err(CorruptStream { reason })
    }

    /// Walks the whole frames buffered past the read position by their
    /// headers alone — no CRC is computed, so this is cheap enough to run
    /// after every read. Returns how many there are and the header of
    /// what follows them.
    fn walk(&self) -> (u32, FrameHead, &[u8]) {
        let mut rest = &self.buf[self.pos..];
        let mut count = 0u32;
        loop {
            match frame_head(rest, 1, self.max_frame) {
                FrameHead::Whole { span } => {
                    count += 1;
                    rest = &rest[span..];
                }
                head => return (count, head, rest),
            }
        }
    }

    /// Number of complete frames currently sitting undecoded in the
    /// buffer — the backlog reported by advisory `Busy` frames.
    pub fn buffered_frames(&self) -> u32 {
        if self.corrupt {
            return 0;
        }
        self.walk().0
    }

    /// Whether a frame has been started but not completed (bytes are
    /// buffered past the last complete frame). At EOF this means the
    /// peer died mid-frame — a truncation. A bad length prefix is
    /// corruption, not truncation; `next_payload` reports it.
    pub fn mid_frame(&self) -> bool {
        let (_, head, rest) = self.walk();
        head == FrameHead::Partial && !rest.is_empty()
    }

    /// Whether the decoder has entered the unrecoverable corrupt state.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }
}

// ---------------------------------------------------------------------------
// Text fallback
// ---------------------------------------------------------------------------

/// One command of the line-delimited debug protocol.
///
/// A text session opens with the literal line `TEXT`; each subsequent
/// line is one command. Counter names are the [`aging_memsim::Counter`]
/// display names (`available_bytes`, …).
#[derive(Debug, Clone, PartialEq)]
pub enum TextCommand {
    /// `hello <name>` — handshake.
    Hello {
        /// Client display name.
        name: String,
    },
    /// `sample <machine_id> <counter> <t_secs> <value>` — one record.
    Sample {
        /// Machine identity.
        machine_id: u64,
        /// Counter code (already resolved from the name).
        counter: u8,
        /// Sample timestamp, seconds.
        time_secs: f64,
        /// Counter value.
        value: f64,
    },
    /// `done <machine_id>` — end of one machine's feed.
    Done {
        /// Machine whose feed ended.
        machine_id: u64,
    },
    /// `status` — fleet status snapshot as JSON.
    Status,
    /// `machine <machine_id>` — one machine's snapshot as JSON.
    Machine {
        /// Machine to query.
        machine_id: u64,
    },
    /// `alarms <since>` — alarm history from an offset.
    Alarms {
        /// Offset into the released history.
        since: u64,
    },
    /// `bye` — graceful close.
    Bye,
}

/// Parses one line of the text protocol.
///
/// # Errors
///
/// Returns a human-readable reason; the session reports it as an `err`
/// line and counts a strike.
pub fn parse_text_line(line: &str) -> Result<TextCommand, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().ok_or("empty line")?;
    let mut arg = |name: &str| parts.next().ok_or(format!("missing <{name}>"));
    let parsed = match cmd {
        "hello" => TextCommand::Hello {
            name: arg("name")?.to_string(),
        },
        "sample" => {
            let machine_id = arg("machine_id")?
                .parse::<u64>()
                .map_err(|e| format!("bad machine_id: {e}"))?;
            let counter_name = arg("counter")?;
            let counter = Counter::from_name(counter_name)
                .ok_or(format!("unknown counter {counter_name:?}"))?
                .code();
            let time_secs = arg("t_secs")?
                .parse::<f64>()
                .map_err(|e| format!("bad t_secs: {e}"))?;
            let value = arg("value")?
                .parse::<f64>()
                .map_err(|e| format!("bad value: {e}"))?;
            TextCommand::Sample {
                machine_id,
                counter,
                time_secs,
                value,
            }
        }
        "done" => TextCommand::Done {
            machine_id: arg("machine_id")?
                .parse::<u64>()
                .map_err(|e| format!("bad machine_id: {e}"))?,
        },
        "status" => TextCommand::Status,
        "machine" => TextCommand::Machine {
            machine_id: arg("machine_id")?
                .parse::<u64>()
                .map_err(|e| format!("bad machine_id: {e}"))?,
        },
        "alarms" => TextCommand::Alarms {
            since: arg("since")?
                .parse::<u64>()
                .map_err(|e| format!("bad since: {e}"))?,
        },
        "bye" => TextCommand::Bye,
        other => return Err(format!("unknown command {other:?}")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("unexpected trailing argument {extra:?}"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_frame, Frame, DEFAULT_MAX_FRAME};

    #[test]
    fn decodes_across_arbitrary_chunk_boundaries() {
        let frames = [
            Frame::QueryStatus,
            Frame::MachineDone { machine_id: 42 },
            Frame::Bye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // Feed one byte at a time — worst-case fragmentation.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            while let Some(p) = dec.next_payload().unwrap() {
                got.push(Frame::decode_payload(&p).unwrap());
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn zero_and_oversized_lengths_corrupt_the_stream() {
        let mut dec = FrameDecoder::new(16);
        dec.feed(&0u32.to_le_bytes());
        assert!(dec.next_payload().is_err());
        assert!(dec.is_corrupt());

        let mut dec = FrameDecoder::new(16);
        dec.feed(&17u32.to_le_bytes());
        assert!(dec.next_payload().is_err());
        // Corruption is sticky.
        assert!(dec.next_payload().is_err());
    }

    #[test]
    fn crc_mismatch_corrupts_the_stream() {
        let mut wire = encode_frame(&Frame::Bye);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&wire);
        assert!(dec.next_payload().is_err());
    }

    #[test]
    fn mid_frame_reports_truncation() {
        let wire = encode_frame(&Frame::MachineDone { machine_id: 7 });
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&wire[..wire.len() - 3]);
        assert_eq!(dec.next_payload().unwrap(), None);
        assert!(dec.mid_frame());
        dec.feed(&wire[wire.len() - 3..]);
        assert!(dec.next_payload().unwrap().is_some());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn buffered_frames_counts_backlog() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        assert_eq!(dec.buffered_frames(), 0);
        let one = encode_frame(&Frame::Bye);
        let mut wire = Vec::new();
        for _ in 0..5 {
            wire.extend_from_slice(&one);
        }
        wire.extend_from_slice(&one[..3]); // a partial sixth
        dec.feed(&wire);
        assert_eq!(dec.buffered_frames(), 5);
        assert!(dec.mid_frame());
    }

    #[test]
    fn near_u32_max_length_prefix_never_panics() {
        // With the frame limit raised to the u32 ceiling, a maximal
        // length prefix exercises the `4 + len + 4` span arithmetic that
        // used to overflow on 32-bit targets. The decoder must either
        // wait for more bytes (64-bit: the span is representable) or
        // corrupt the stream (32-bit) — panicking takes the session
        // thread down and counts as a server bug.
        for len in [u32::MAX, u32::MAX - 1, u32::MAX - 8] {
            let mut dec = FrameDecoder::new(u32::MAX);
            dec.feed(&len.to_le_bytes());
            dec.feed(&[0xab; 32]);
            let first = dec.next_payload();
            if cfg!(target_pointer_width = "32") {
                assert!(first.is_err(), "len {len}: span overflow must corrupt");
                assert_eq!(dec.buffered_frames(), 0);
                assert!(!dec.mid_frame());
            } else {
                assert_eq!(first.unwrap(), None, "len {len}: awaiting frame body");
                assert_eq!(dec.buffered_frames(), 0);
                assert!(dec.mid_frame());
            }
        }
    }

    #[test]
    fn max_frame_sized_payload_still_decodes() {
        // The checked arithmetic must not reject legitimate frames at the
        // configured limit itself.
        let payload = vec![0x5au8; 100];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&crate::protocol::crc32(&payload).to_le_bytes());
        let mut dec = FrameDecoder::new(100);
        dec.feed(&wire);
        assert_eq!(dec.next_payload().unwrap(), Some(payload));
    }

    #[test]
    fn text_lines_parse() {
        assert_eq!(
            parse_text_line("hello probe-1").unwrap(),
            TextCommand::Hello {
                name: "probe-1".into()
            }
        );
        assert_eq!(
            parse_text_line("sample 7 available_bytes 5.0 123456.0").unwrap(),
            TextCommand::Sample {
                machine_id: 7,
                counter: 0,
                time_secs: 5.0,
                value: 123456.0,
            }
        );
        assert_eq!(
            parse_text_line("done 7").unwrap(),
            TextCommand::Done { machine_id: 7 }
        );
        assert_eq!(parse_text_line("status").unwrap(), TextCommand::Status);
        assert_eq!(
            parse_text_line("alarms 3").unwrap(),
            TextCommand::Alarms { since: 3 }
        );
        assert_eq!(parse_text_line("bye").unwrap(), TextCommand::Bye);
        for bad in [
            "",
            "nope",
            "sample 7",
            "sample x available_bytes 1 2",
            "sample 7 no_such_counter 1 2",
            "done 7 extra",
        ] {
            assert!(parse_text_line(bad).is_err(), "{bad:?}");
        }
    }
}
