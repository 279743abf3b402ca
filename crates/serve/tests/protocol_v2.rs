//! Protocol v2 negotiation and back-compat suite:
//!
//! 1. a v1 client against a v2 server negotiates down, and
//!    `send_column` silently falls back to per-record `Batch` frames —
//!    same acks, no strikes, no quarantine;
//! 2. a client offering a *future* version is negotiated down to the
//!    server's highest, v3, rather than rejected;
//! 3. a pre-v1 (version 0) `Hello` is refused with `ERR_VERSION`;
//! 4. a columnar frame on a v1-negotiated session is intact-but-invalid:
//!    each one draws `ERR_MALFORMED` and a strike, and the strike
//!    threshold quarantines the session — exactly the sample-gate
//!    mirror the record path uses;
//! 5. a spectrum query on a v1-negotiated session is gated the same way:
//!    strikes, then quarantine — v2 capabilities never leak down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use aging_memsim::Counter;
use aging_serve::codec::FrameDecoder;
use aging_serve::protocol::{
    counter_code, encode_frame, Frame, DEFAULT_MAX_FRAME, ERR_MALFORMED, ERR_QUARANTINED,
    ERR_VERSION, PROTOCOL_VERSION, PROTOCOL_VERSION_V3,
};
use aging_serve::{ServeClient, ServeConfig, Server};

fn test_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServeConfig::new(aging_serve::test_detectors()),
    )
    .expect("bind server")
}

/// Reads frames off a raw socket until one arrives or the peer closes.
fn read_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        match dec.next_payload() {
            Ok(Some(payload)) => {
                return Some(Frame::decode_payload(&payload).expect("server frames decode"))
            }
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => dec.feed(&buf[..n]),
            Err(_) => return None,
        }
    }
}

fn raw_connect(addr: SocketAddr) -> (TcpStream, FrameDecoder) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (stream, FrameDecoder::new(DEFAULT_MAX_FRAME))
}

#[test]
fn v1_client_negotiates_down_and_send_column_falls_back_to_batches() {
    let server = test_server();
    let mut client =
        ServeClient::connect_with_version(server.local_addr(), "v1-feeder", PROTOCOL_VERSION)
            .expect("v1 connect");
    assert_eq!(client.version(), PROTOCOL_VERSION, "server must echo v1");

    let times: Vec<f64> = (0..50).map(|i| i as f64 * 5.0).collect();
    let values: Vec<f64> = (0..50).map(|i| 1e6 - i as f64 * 100.0).collect();
    let frames = client
        .send_column(7, counter_code(Counter::AvailableBytes), &times, &values)
        .expect("column falls back to record batches");
    assert!(frames >= 1, "fallback must actually send");
    client.machine_done(7).expect("machine done");
    client.flush().expect("flush");
    assert_eq!(client.records_accepted(), 50, "every record acked");
    client.bye().expect("bye");

    let outcome = server.shutdown();
    assert_eq!(outcome.wire.records, 50);
    assert_eq!(
        outcome.wire.malformed_frames, 0,
        "the v1 fallback must never draw a strike"
    );
    assert_eq!(outcome.wire.quarantined, 0);
    assert_eq!(outcome.wire.session_panics, 0);
}

#[test]
fn future_version_client_is_negotiated_down_to_v3() {
    let server = test_server();
    let client = ServeClient::connect_with_version(
        server.local_addr(),
        "from-the-future",
        PROTOCOL_VERSION_V3 + 5,
    )
    .expect("future-version connect");
    assert_eq!(
        client.version(),
        PROTOCOL_VERSION_V3,
        "server caps negotiation at its own maximum"
    );
    // The default constructor offers v3 and lands on v3.
    let default_client =
        ServeClient::connect(server.local_addr(), "default").expect("default connect");
    assert_eq!(default_client.version(), PROTOCOL_VERSION_V3);
    server.shutdown();
}

#[test]
fn version_zero_hello_is_refused() {
    let server = test_server();
    let (mut stream, mut dec) = raw_connect(server.local_addr());
    stream
        .write_all(&encode_frame(&Frame::Hello {
            version: 0,
            name: "ancient".into(),
        }))
        .expect("send hello");
    let reply = read_frame(&mut stream, &mut dec).expect("server replies before closing");
    let Frame::Error { code, message } = reply else {
        panic!("expected an error frame, got {reply:?}");
    };
    assert_eq!(code, ERR_VERSION, "{message}");
    assert!(
        read_frame(&mut stream, &mut dec).is_none(),
        "connection closes after the version refusal"
    );
    server.shutdown();
}

#[test]
fn columnar_frame_on_v1_session_strikes_then_quarantines() {
    let server = test_server();
    let (mut stream, mut dec) = raw_connect(server.local_addr());
    stream
        .write_all(&encode_frame(&Frame::Hello {
            version: PROTOCOL_VERSION,
            name: "v1-but-columnar".into(),
        }))
        .expect("send hello");
    let ack = read_frame(&mut stream, &mut dec).expect("hello ack");
    let Frame::HelloAck { version, .. } = ack else {
        panic!("expected HelloAck, got {ack:?}");
    };
    assert_eq!(version, PROTOCOL_VERSION);

    // A perfectly well-formed columnar frame — just illegal on a v1
    // session. Each draws ERR_MALFORMED; the third quarantines.
    let mut saw_quarantine = false;
    for seq in 1..=3u64 {
        stream
            .write_all(&encode_frame(&Frame::BatchColumnar {
                seq,
                machine_id: 1,
                counter: counter_code(Counter::AvailableBytes),
                t0: 0.0,
                dt_units: vec![5 << 20],
                values: vec![1e6, 1e6 - 100.0],
            }))
            .expect("send columnar frame");
        let reply = read_frame(&mut stream, &mut dec).expect("strike reply");
        let Frame::Error { code, message } = reply else {
            panic!("expected an error frame, got {reply:?}");
        };
        assert_eq!(code, ERR_MALFORMED, "strike {seq}: {message}");
        assert!(
            message.contains("protocol v2"),
            "the strike names the version gate: {message}"
        );
        if seq == 3 {
            let last = read_frame(&mut stream, &mut dec).expect("quarantine notice");
            let Frame::Error { code, .. } = last else {
                panic!("expected the quarantine error, got {last:?}");
            };
            assert_eq!(code, ERR_QUARANTINED);
            saw_quarantine = true;
        }
    }
    assert!(saw_quarantine);

    let outcome = server.shutdown();
    assert_eq!(outcome.wire.quarantined, 1, "exactly this session");
    assert_eq!(outcome.wire.malformed_frames, 3);
    assert_eq!(outcome.wire.records, 0, "no column was ever applied");
    assert_eq!(outcome.wire.session_panics, 0);
}

#[test]
fn spectrum_query_on_v1_session_strikes_then_quarantines() {
    let server = test_server();
    let (mut stream, mut dec) = raw_connect(server.local_addr());
    stream
        .write_all(&encode_frame(&Frame::Hello {
            version: PROTOCOL_VERSION,
            name: "v1-but-curious".into(),
        }))
        .expect("send hello");
    let ack = read_frame(&mut stream, &mut dec).expect("hello ack");
    let Frame::HelloAck { version, .. } = ack else {
        panic!("expected HelloAck, got {ack:?}");
    };
    assert_eq!(version, PROTOCOL_VERSION);

    // A perfectly well-formed spectrum query — just illegal on a v1
    // session. Each draws ERR_MALFORMED; the third quarantines.
    let mut saw_quarantine = false;
    for attempt in 1..=3u32 {
        stream
            .write_all(&encode_frame(&Frame::QuerySpectrum { machine_id: 1 }))
            .expect("send spectrum query");
        let reply = read_frame(&mut stream, &mut dec).expect("strike reply");
        let Frame::Error { code, message } = reply else {
            panic!("expected an error frame, got {reply:?}");
        };
        assert_eq!(code, ERR_MALFORMED, "strike {attempt}: {message}");
        assert!(
            message.contains("protocol v2"),
            "the strike names the version gate: {message}"
        );
        if attempt == 3 {
            let last = read_frame(&mut stream, &mut dec).expect("quarantine notice");
            let Frame::Error { code, .. } = last else {
                panic!("expected the quarantine error, got {last:?}");
            };
            assert_eq!(code, ERR_QUARANTINED);
            saw_quarantine = true;
        }
    }
    assert!(saw_quarantine);

    let outcome = server.shutdown();
    assert_eq!(outcome.wire.quarantined, 1, "exactly this session");
    assert_eq!(outcome.wire.malformed_frames, 3);
    assert_eq!(outcome.wire.session_panics, 0);
}
