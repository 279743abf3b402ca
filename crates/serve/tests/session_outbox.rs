//! A binary session queues its replies and writes them once per read
//! burst. These raw-socket cases send a whole conversation in one write
//! and require every reply, in order, before the server closes:
//!
//! 1. `Hello`, K columnar batches, `QueryStatus` and a frame with a
//!    broken CRC read back as `HelloAck`, K acks in seq order,
//!    `StatusReply`, `Error(ERR_QUARANTINED)` and EOF;
//! 2. K batches then `Bye` read back as K acks, `ByeAck` and EOF.
//!
//! K is large enough that the batches span several server reads, so the
//! replies are written in several bursts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use aging_memsim::Counter;
use aging_serve::codec::FrameDecoder;
use aging_serve::protocol::{
    counter_code, encode_frame, Frame, DEFAULT_MAX_FRAME, DT_UNITS_PER_SEC, ERR_QUARANTINED,
    PROTOCOL_VERSION_V2,
};
use aging_serve::{ServeConfig, Server};

/// Batches per conversation: about 64 KiB of columnar frames.
const K: u64 = 512;
/// Records per batch.
const RECORDS: usize = 8;
/// Sampling step of the fed machine, seconds.
const STEP_SECS: f64 = 5.0;

/// A server whose credit window admits all K batches at once, so no
/// advisory `Busy` frame joins the replies.
fn test_server() -> Server {
    let cfg = ServeConfig::builder(aging_serve::test_detectors())
        .window(1024)
        .build()
        .expect("valid config");
    Server::bind("127.0.0.1:0", cfg).expect("bind server")
}

/// Batch `seq` (from 1) of one machine's steadily draining counter.
fn batch(seq: u64) -> Frame {
    let first = (seq - 1) * RECORDS as u64;
    Frame::BatchColumnar {
        seq,
        machine_id: 7,
        counter: counter_code(Counter::AvailableBytes),
        t0: first as f64 * STEP_SECS,
        dt_units: vec![(STEP_SECS * DT_UNITS_PER_SEC) as u32; RECORDS - 1],
        values: (0..RECORDS as u64)
            .map(|i| 1e9 - (first + i) as f64 * 1e3)
            .collect(),
    }
}

/// Sends `frames` (plus any raw `tail` bytes) in one write and reads
/// every reply until the server closes the connection.
fn converse(server: &Server, frames: &[Frame], tail: &[u8]) -> Vec<Frame> {
    let mut wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
    wire.extend_from_slice(tail);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&wire).expect("one write");

    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("replies end in EOF");
        if n == 0 {
            assert!(!dec.mid_frame(), "the server closed mid-frame");
            return replies;
        }
        dec.feed(&buf[..n]);
        while let Some(payload) = dec.next_payload_ref().expect("intact reply stream") {
            replies.push(Frame::decode_payload(payload).expect("server frames decode"));
        }
    }
}

fn acks() -> impl Iterator<Item = Frame> {
    (1..=K).map(|seq| Frame::Ack {
        seq,
        accepted: RECORDS as u16,
    })
}

#[test]
fn replies_reach_the_client_before_a_quarantine_close() {
    let server = test_server();
    let mut frames = vec![Frame::Hello {
        version: PROTOCOL_VERSION_V2,
        name: "outbox".into(),
    }];
    frames.extend((1..=K).map(batch));
    frames.push(Frame::QueryStatus);
    let mut broken = encode_frame(&Frame::QueryStatus);
    *broken.last_mut().expect("crc bytes") ^= 0x01;

    let replies = converse(&server, &frames, &broken);

    assert_eq!(replies.len() as u64, K + 3, "{:?}", replies.last());
    assert!(matches!(
        replies[0],
        Frame::HelloAck {
            version: PROTOCOL_VERSION_V2,
            ..
        }
    ));
    assert!(replies[1..=K as usize].iter().cloned().eq(acks()));
    assert!(matches!(replies[K as usize + 1], Frame::StatusReply { .. }));
    assert!(matches!(
        replies[K as usize + 2],
        Frame::Error {
            code: ERR_QUARANTINED,
            ..
        }
    ));

    let outcome = server.shutdown();
    assert_eq!(outcome.wire.records, K * RECORDS as u64);
    assert_eq!(outcome.wire.acks_sent, K);
    assert_eq!(outcome.wire.quarantined, 1);
    assert_eq!(outcome.wire.corrupt_streams, 1);
    assert_eq!(outcome.wire.session_panics, 0);
}

#[test]
fn every_ack_precedes_the_bye_ack() {
    let server = test_server();
    let mut frames = vec![Frame::Hello {
        version: PROTOCOL_VERSION_V2,
        name: "outbox".into(),
    }];
    frames.extend((1..=K).map(batch));
    frames.push(Frame::Bye);

    let replies = converse(&server, &frames, &[]);

    assert!(matches!(replies[0], Frame::HelloAck { .. }));
    let mut expected: Vec<Frame> = acks().collect();
    expected.push(Frame::ByeAck);
    assert_eq!(&replies[1..], expected.as_slice());

    let outcome = server.shutdown();
    assert_eq!(outcome.wire.records, K * RECORDS as u64);
    assert_eq!(outcome.wire.quarantined, 0);
    assert_eq!(outcome.wire.session_panics, 0);
}
