//! Property tests for the wire protocol:
//!
//! 1. codec round-trip identity — any frame encoded, chunked arbitrarily
//!    through the [`FrameDecoder`] and decoded again yields the same
//!    payload bytes;
//! 2. garbage tolerance — arbitrary byte soup fed in arbitrary chunks
//!    never panics the decoder: every byte is either consumed as a
//!    CRC-valid frame, left buffered, or the stream is flagged corrupt;
//! 3. max-frame enforcement — a length prefix above the limit always
//!    flags corruption, no matter what follows.

use aging_memsim::Counter;
use aging_serve::codec::FrameDecoder;
use aging_serve::protocol::{
    columnar_spans, counter_code, crc32, encode_columnar_frame_into, encode_frame,
    expand_column_times, Frame, Record, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use aging_serve::{ServeStatus, WireCounters};
use aging_stream::telemetry::{LatencyHistogram, StageCounters, StatusSnapshot};
use proptest::prelude::*;

/// Builds a frame from generated scalars. The `kind` index picks the
/// variant; the numeric payloads reuse whatever generated values apply
/// (the vendored proptest has no enum/tuple strategies).
fn build_frame(kind: usize, a: u64, b: u64, f: f64, text: &str, n_records: usize) -> Frame {
    let records: Vec<Record> = (0..n_records)
        .map(|i| Record {
            machine_id: a.wrapping_add(i as u64),
            counter: counter_code(Counter::ALL[i % Counter::ALL.len()]),
            // Exercise non-finite and negative floats too.
            time_secs: if i % 7 == 3 { f64::NAN } else { f + i as f64 },
            value: if i % 5 == 4 {
                f64::NEG_INFINITY
            } else {
                -f * i as f64
            },
        })
        .collect();
    match kind {
        0 => Frame::Hello {
            version: (a % 256) as u8,
            name: text.to_string(),
        },
        1 => Frame::HelloAck {
            version: PROTOCOL_VERSION,
            window: (a % 65536) as u16,
            max_frame: b as u32,
        },
        2 => Frame::Batch { seq: a, records },
        3 => Frame::Ack {
            seq: a,
            accepted: (b % 65536) as u16,
        },
        4 => Frame::Busy {
            backlog: (a % (u64::from(u32::MAX) + 1)) as u32,
        },
        5 => Frame::MachineDone { machine_id: a },
        6 => Frame::QueryStatus,
        7 => Frame::StatusReply {
            json: text.to_string(),
        },
        8 => Frame::QueryMachine { machine_id: a },
        9 => Frame::MachineReply {
            json: if a.is_multiple_of(2) {
                None
            } else {
                Some(text.to_string())
            },
        },
        10 => Frame::QueryAlarms { since: a },
        11 => Frame::Bye,
        12 => Frame::ByeAck,
        13 => {
            // One machine/counter, delta-encoded times, one value column
            // (protocol v2). Raw u32 deltas round-trip whatever they are.
            let n = n_records.max(1);
            Frame::BatchColumnar {
                seq: a,
                machine_id: b,
                counter: (b % 256) as u8,
                t0: f,
                dt_units: (1..n).map(|i| a.rotate_left(i as u32) as u32).collect(),
                values: (0..n)
                    .map(|i| if i % 4 == 1 { f64::NAN } else { -f * i as f64 })
                    .collect(),
            }
        }
        14 => Frame::QuerySpectrum { machine_id: a },
        15 => Frame::SpectrumReply {
            machine_id: a,
            known: b.is_multiple_of(2),
            widths: (0..n_records)
                .map(|i| {
                    // Counter codes and Δα values round-trip whatever
                    // they are — including non-finite widths.
                    let width = if i % 3 == 2 {
                        f64::INFINITY
                    } else {
                        f * i as f64
                    };
                    ((b.wrapping_add(i as u64) % 256) as u8, width)
                })
                .collect(),
        },
        16 => Frame::QueryRejuv { machine_id: a },
        17 => Frame::RejuvReply {
            machine_id: a,
            known: b.is_multiple_of(2),
            policy: (b % 256) as u8,
            restarts: b,
            denied: a ^ b,
            last_restart_secs: if a.is_multiple_of(3) {
                None
            } else {
                // Non-finite stamps must round-trip like any other f64.
                Some(if a.is_multiple_of(7) { f64::NAN } else { f })
            },
        },
        18 => {
            // Every counter takes one of the generated words, and the
            // stream clock may be non-finite.
            let w = |i: u32| a.rotate_left(i) ^ b;
            Frame::Status {
                status: ServeStatus {
                    wire: WireCounters {
                        connections: w(0),
                        sessions_closed: w(1),
                        text_sessions: w(2),
                        frames: w(3),
                        batches: w(4),
                        records: w(5),
                        records_rejected: w(6),
                        acks_sent: w(7),
                        busy_sent: w(8),
                        malformed_frames: w(9),
                        corrupt_streams: w(10),
                        quarantined: w(11),
                        session_panics: w(12),
                        queries: w(13),
                    },
                    fleet: StatusSnapshot {
                        sequence: w(14),
                        stream_time_secs: match a % 4 {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            _ => f,
                        },
                        machines_live: n_records,
                        machines_finished: usize::try_from(w(15)).unwrap_or(usize::MAX),
                        ingestion: StageCounters {
                            ingested: w(16),
                            accepted: w(17),
                            dropped_non_finite: w(18),
                            dropped_out_of_order: w(19),
                            gaps_detected: w(20),
                            quarantines: w(21),
                        },
                        detector_latency: LatencyHistogram {
                            counts: [
                                w(22),
                                w(23),
                                w(24),
                                w(25),
                                w(26),
                                w(27),
                                w(28),
                                w(29),
                                w(30),
                            ],
                            total: w(31),
                            sum_us: w(32),
                            max_us: w(33),
                        },
                        warnings_emitted: w(34),
                        alarms_emitted: w(35),
                        alarm_queue_depth: text.len(),
                        telemetry_dropped: w(36),
                        detector_errors: w(37),
                        restarts_granted: w(38),
                        restarts_denied: w(39),
                    },
                },
            }
        }
        _ => Frame::Error {
            code: (a % 256) as u8,
            message: text.to_string(),
        },
    }
}

/// Splits `bytes` into chunks whose sizes cycle through `cuts`, feeding
/// each into the decoder.
fn feed_chunked(dec: &mut FrameDecoder, bytes: &[u8], cuts: &[usize]) {
    let mut pos = 0;
    let mut i = 0;
    while pos < bytes.len() {
        let step = cuts[i % cuts.len()].max(1).min(bytes.len() - pos);
        dec.feed(&bytes[pos..pos + step]);
        pos += step;
        i += 1;
    }
}

proptest! {
    /// Round-trip identity: re-encoded payload bytes are identical (the
    /// byte-level comparison sidesteps NaN != NaN on decoded floats).
    #[test]
    fn frames_survive_arbitrary_chunking(
        kinds in prop::collection::vec(0usize..20, 1..=12),
        seeds in prop::collection::vec(0u64..u64::MAX, 12..=12),
        floats in prop::collection::vec(-1e12f64..1e12, 12..=12),
        lens in prop::collection::vec(0usize..40, 12..=12),
        cuts in prop::collection::vec(1usize..37, 1..=8),
    ) {
        let mut wire = Vec::new();
        let mut payloads = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let text: String = "multifractal-".chars().cycle().take(lens[i]).collect();
            let frame = build_frame(kind, seeds[i], seeds[(i + 1) % seeds.len()], floats[i], &text, lens[i] % 9);
            wire.extend_from_slice(&encode_frame(&frame));
            payloads.push(frame.encode_payload());
        }

        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        feed_chunked(&mut dec, &wire, &cuts);
        for expected in &payloads {
            let got = dec.next_payload().unwrap().expect("frame present");
            prop_assert_eq!(&got, expected);
            let decoded = Frame::decode_payload(&got).expect("decodes");
            prop_assert_eq!(&decoded.encode_payload(), expected);
        }
        prop_assert!(dec.next_payload().unwrap().is_none());
        prop_assert!(!dec.mid_frame());
    }

    /// Arbitrary garbage never panics: each pulled payload either
    /// decodes or is rejected with an error string, and the decoder ends
    /// in a sane state (corrupt, mid-frame, or fully drained).
    #[test]
    fn garbage_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..=600),
        cuts in prop::collection::vec(1usize..41, 1..=8),
    ) {
        let mut dec = FrameDecoder::new(1024);
        feed_chunked(&mut dec, &bytes, &cuts);
        let mut pulled = 0usize;
        loop {
            match dec.next_payload() {
                Err(_) => {
                    prop_assert!(dec.is_corrupt());
                    // Corruption is sticky.
                    prop_assert!(dec.next_payload().is_err());
                    break;
                }
                Ok(None) => break,
                Ok(Some(payload)) => {
                    // A CRC-passing payload may still be semantic junk;
                    // decode_payload must reject it gracefully, not panic.
                    let _ = Frame::decode_payload(&payload);
                    pulled += 1;
                    prop_assert!(pulled <= bytes.len() / 8 + 1);
                }
            }
        }
    }

    /// Oversized (or zero) length prefixes always corrupt the stream.
    #[test]
    fn max_frame_size_is_enforced(
        excess in prop::collection::vec(1u64..1_000_000, 1..=1),
        tail in prop::collection::vec(0u8..=255, 0..=64),
    ) {
        let max_frame = 256u32;
        let bad_len = u64::from(max_frame) + excess[0];
        let bad_len = u32::try_from(bad_len).unwrap_or(u32::MAX);

        // A frame that would be perfectly valid except for its size.
        let mut wire = bad_len.to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        let mut dec = FrameDecoder::new(max_frame);
        dec.feed(&wire);
        prop_assert!(dec.next_payload().is_err());
        prop_assert!(dec.is_corrupt());

        // Sanity: the same payload passes under a larger limit when the
        // frame is honestly sized.
        let payload = vec![0xau8; 16];
        let mut ok = (payload.len() as u32).to_le_bytes().to_vec();
        ok.extend_from_slice(&payload);
        ok.extend_from_slice(&crc32(&payload).to_le_bytes());
        let mut dec = FrameDecoder::new(max_frame);
        dec.feed(&ok);
        prop_assert_eq!(dec.next_payload().unwrap(), Some(payload));
    }

    /// Columnar encoding is total and bit-exact: any f64 time sequence —
    /// dt = 0 runs, non-monotone jumps, deltas past the u32 horizon
    /// (~4096 s), sub-resolution steps, NaN stamps — splits into spans
    /// whose delta-encoded wire frames reconstruct every timestamp and
    /// value bit for bit.
    #[test]
    fn columnar_spans_reconstruct_any_times(
        steps in prop::collection::vec(0.0f64..6000.0, 1..=80),
        start in -1e9f64..1e9,
        max_span in 1usize..20,
    ) {
        let mut times = Vec::with_capacity(steps.len());
        let mut t = start;
        for (i, &s) in steps.iter().enumerate() {
            match i % 5 {
                0 => t += s,            // arbitrary (usually inexact) step
                1 => {}                 // dt = 0: a repeated stamp
                2 => t += s.floor(),    // integral seconds; > 4095 s overflows u32 deltas
                3 => t -= s,            // non-monotone jump back
                _ => {
                    if i % 10 == 4 {
                        t = f64::NAN;   // a poisoned stamp forces a 1-record span
                    } else {
                        t += s / 1e9;   // usually below the 2⁻²⁰ s resolution
                    }
                }
            }
            times.push(t);
            if !t.is_finite() {
                t = start;
            }
        }

        // The spans form a disjoint cover regardless of the input shape.
        let mut spans = Vec::new();
        columnar_spans(&times, max_span, &mut spans);
        let mut covered = 0usize;
        for &(s, l) in &spans {
            prop_assert_eq!(s, covered);
            prop_assert!((1..=max_span).contains(&l));
            covered += l;
        }
        prop_assert_eq!(covered, times.len());

        // Each span round-trips through a real wire frame bit-exactly.
        let mut expanded = Vec::new();
        for &(s, l) in &spans {
            let slice = &times[s..s + l];
            let values: Vec<f64> = slice.iter().map(|&t| t * 0.5 - 1.0).collect();
            let mut wire = Vec::new();
            encode_columnar_frame_into(7, 1, 0, slice, &values, &mut wire)
                .expect("every span from columnar_spans is encodable");
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            dec.feed(&wire);
            let payload = dec.next_payload().unwrap().expect("frame present");
            let Frame::BatchColumnar { t0, dt_units, values: decoded_values, .. } =
                Frame::decode_payload(&payload).expect("decodes")
            else {
                panic!("columnar frame decoded to another variant");
            };
            expand_column_times(t0, &dt_units, &mut expanded);
            prop_assert_eq!(expanded.len(), slice.len());
            for (got, want) in expanded.iter().zip(slice) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            for (got, want) in decoded_values.iter().zip(&values) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
