//! The status reply at every protocol version, against one quiescent
//! server:
//!
//! 1. `ServeClient::query_status` at v1, v2 and v3 returns exactly what
//!    `Server::status()` reads right after it, except `sequence`: every
//!    read, over the wire or in process, takes the next one;
//! 2. on the wire, v1 and v2 sessions get a JSON `StatusReply` whose text
//!    is exactly `serde_json::to_string` of that status, and only a v3
//!    session gets the binary `Status` frame (tag 0x15), which decodes to
//!    the same status.
//!
//! The feed is acked and its machine finished before any status is read,
//! and every connection is open by then, so nothing but the status
//! sequence and the query counters moves while the reads are compared.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use aging_memsim::Counter;
use aging_serve::codec::FrameDecoder;
use aging_serve::protocol::{
    counter_code, encode_frame, Frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
    PROTOCOL_VERSION_V3,
};
use aging_serve::{ServeClient, ServeConfig, ServeStatus, Server};

const VERSIONS: [u8; 3] = [PROTOCOL_VERSION, PROTOCOL_VERSION_V2, PROTOCOL_VERSION_V3];

/// A raw binary session, handshaken at `version`.
struct Raw {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl Raw {
    fn connect(addr: SocketAddr, version: u8) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut raw = Raw {
            stream,
            dec: FrameDecoder::new(DEFAULT_MAX_FRAME),
        };
        let ack = raw.request(&Frame::Hello {
            version,
            name: format!("raw-v{version}"),
        });
        assert!(
            matches!(Frame::decode_payload(&ack), Ok(Frame::HelloAck { version: v, .. }) if v == version),
            "v{version} handshake: {ack:?}"
        );
        raw
    }

    /// Sends `frame` and returns the payload of the next frame back.
    fn request(&mut self, frame: &Frame) -> Vec<u8> {
        self.stream
            .write_all(&encode_frame(frame))
            .expect("send request");
        let mut buf = [0u8; 4096];
        loop {
            if let Some(payload) = self.dec.next_payload().expect("intact reply stream") {
                return payload;
            }
            let n = self.stream.read(&mut buf).expect("read reply");
            assert!(n > 0, "server closed the connection");
            self.dec.feed(&buf[..n]);
        }
    }
}

/// Checks one read against the `Server::status()` taken right after it
/// and returns the sequence that in-process read took: the read's own
/// `sequence` is one below it, and nothing else differs.
fn check_read(server: &Server, read: &ServeStatus, last_seq: u64, what: &str) -> u64 {
    let after = server.status();
    assert_eq!(read.fleet.sequence, last_seq + 1, "{what}: sequence");
    assert_eq!(after.fleet.sequence, read.fleet.sequence + 1, "{what}");
    let mut expected = after.clone();
    expected.fleet.sequence = read.fleet.sequence;
    assert_eq!(read, &expected, "{what}");
    after.fleet.sequence
}

#[test]
fn every_version_reads_the_same_status_and_only_v3_reads_it_in_binary() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::new(aging_serve::test_detectors()),
    )
    .expect("bind server");
    let addr = server.local_addr();

    // Feed one depleting machine to the end and wait for it: an alarms
    // reply on the same session comes after `MachineDone` is applied.
    let mut clients: Vec<ServeClient> = VERSIONS
        .iter()
        .map(|&v| ServeClient::connect_with_version(addr, &format!("v{v}"), v).expect("connect"))
        .collect();
    for (client, &v) in clients.iter().zip(&VERSIONS) {
        assert_eq!(client.version(), v);
    }
    let times: Vec<f64> = (0..400).map(|i| f64::from(i) * 5.0).collect();
    let values: Vec<f64> = (0..400).map(|i| 1e9 - f64::from(i) * 2e6).collect();
    let feeder = &mut clients[2];
    feeder
        .send_column(3, counter_code(Counter::AvailableBytes), &times, &values)
        .expect("send column");
    feeder.flush().expect("flush");
    feeder.machine_done(3).expect("machine done");
    feeder.query_alarms_all().expect("alarms");
    let mut raws: Vec<Raw> = VERSIONS.iter().map(|&v| Raw::connect(addr, v)).collect();

    let first = server.status();
    assert_eq!(first.wire.records, 400);
    assert_eq!(first.fleet.ingestion.ingested, 400);
    assert_eq!(first.fleet.machines_finished, 1);
    assert!(first.fleet.stream_time_secs > 0.0);
    let mut seq = first.fleet.sequence;

    for round in 0..2 {
        for (client, &v) in clients.iter_mut().zip(&VERSIONS) {
            let read = client.query_status().expect("query status");
            seq = check_read(&server, &read, seq, &format!("client v{v}, round {round}"));
        }
        for (raw, &v) in raws.iter_mut().zip(&VERSIONS) {
            let payload = raw.request(&Frame::QueryStatus);
            let what = format!("raw v{v}, round {round}");
            let frame = Frame::decode_payload(&payload).expect("status reply decodes");
            let read = match frame {
                Frame::Status { status } => {
                    assert_eq!(v, PROTOCOL_VERSION_V3, "{what}: a binary status");
                    assert_eq!(payload[0], 0x15, "{what}");
                    status
                }
                Frame::StatusReply { json } => {
                    assert!(v < PROTOCOL_VERSION_V3, "{what}: a JSON status");
                    assert_eq!(payload[0], 0x08, "{what}");
                    // The text is exactly the JSON of the status it reads
                    // as, which `check_read` compares with the server's.
                    let status: ServeStatus = serde_json::from_str(&json).expect("status JSON");
                    assert_eq!(json, serde_json::to_string(&status).expect("encode"));
                    status
                }
                other => panic!("{what}: {other:?}"),
            };
            seq = check_read(&server, &read, seq, &what);
        }
    }

    for client in clients {
        client.bye().expect("bye");
    }
    drop(raws);
    let report = server.shutdown();
    assert_eq!(report.wire.malformed_frames, 0);
    assert_eq!(report.wire.session_panics, 0);
}
