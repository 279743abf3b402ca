//! Pins the bytes of the wire, the serve journal, the engine snapshot
//! and the supervisor's event store with fixtures made by an older build.
//!
//! `fixtures/byte_layer.txt` holds one `<name> <hex>` line per pinned
//! byte string:
//!
//! - `frame.<i>`: [`encode_frame`] of every [`Frame`] variant, NaN
//!   payloads included. `frame.23`, the protocol-v3 binary status, was
//!   written from its documented layout rather than by the encoder, with
//!   a distinct value in every field so a swap of two fields shows;
//! - `batch_frame` and `columnar_frame.<i>`: [`encode_batch_frame_into`]
//!   and [`encode_columnar_frame_into`] on a fixed feed;
//! - `serve_journal`: the `journal.wal` a store-backed server writes for
//!   one fixed conversation (`Batch`, `BatchColumnar`, `MachineDone`,
//!   then a text-session `sample`), snapshots off;
//! - `fleet_journal` and `fleet_snapshot`: the event journal and the
//!   snapshot a store-backed `FleetSupervisor` writes for a small fleet;
//! - `engine_snapshot`, `engine_journal` and `engine_history`: a
//!   `snapshot.bin` + `journal.wal` pair an older server left when it was
//!   killed, and the alarm history that pair recovered to then. Latency
//!   histograms make an engine snapshot differ from run to run, so only
//!   its decode is pinned.
//!
//! A change made alike to a writer and its reader passes every same-build
//! round trip, but fails here. There is no regenerate path on purpose: a
//! deliberate format change needs a version bump and a test that still
//! reads these bytes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aging_core::baseline::TrendPredictorConfig;
use aging_core::detector::{Alert, AlertLevel, DetectorConfig, Trigger};
use aging_memsim::{Counter, Scenario};
use aging_rejuv::RestartReason;
use aging_serve::codec::FrameDecoder;
use aging_serve::protocol::{
    columnar_spans, encode_batch_frame_into, encode_columnar_frame_into, encode_events,
    encode_frame, Frame, Record, ServeEvent, DEFAULT_MAX_FRAME, ERR_MALFORMED, PROTOCOL_VERSION,
    PROTOCOL_VERSION_V2,
};
use aging_serve::{ServeConfig, ServeStatus, Server, WireCounters};
use aging_store::{StoreConfig, JOURNAL_FILE, SNAPSHOT_FILE};
use aging_stream::detector::{AlertDetail, DetectorSpec};
use aging_stream::supervisor::{AlarmKind, CounterDetector, FleetConfig, FleetSupervisor};
use aging_stream::telemetry::{LatencyHistogram, StageCounters, StatusSnapshot};

const FIXTURE: &str = include_str!("fixtures/byte_layer.txt");

fn from_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The committed bytes named `name`.
fn pinned(name: &str) -> Vec<u8> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, hex) = l.split_once(' ')?;
            (key == name).then(|| from_hex(hex.trim()))
        })
        .unwrap_or_else(|| panic!("no fixture named {name}"))
}

/// A scratch directory wiped on create and drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("aging-bytes-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every frame variant, as `protocol::tests::frames_round_trip` lists
/// them.
fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            name: "loadgen-0".into(),
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
                        reason: RestartReason::Alarm,
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
        Frame::Status {
            status: ServeStatus {
                wire: WireCounters {
                    connections: 1,
                    sessions_closed: 2,
                    text_sessions: 3,
                    frames: 4,
                    batches: 5,
                    records: 6,
                    records_rejected: 7,
                    acks_sent: 8,
                    busy_sent: 9,
                    malformed_frames: 10,
                    corrupt_streams: 11,
                    quarantined: 12,
                    session_panics: 13,
                    queries: 14,
                },
                fleet: StatusSnapshot {
                    sequence: 15,
                    stream_time_secs: 277_950.5,
                    machines_live: 16,
                    machines_finished: 17,
                    ingestion: StageCounters {
                        ingested: 18,
                        accepted: 19,
                        dropped_non_finite: 20,
                        dropped_out_of_order: 21,
                        gaps_detected: 22,
                        quarantines: 23,
                    },
                    detector_latency: LatencyHistogram {
                        counts: [24, 25, 26, 27, 28, 29, 30, 31, 32],
                        total: 33,
                        sum_us: 34,
                        max_us: 35,
                    },
                    warnings_emitted: 36,
                    alarms_emitted: 37,
                    alarm_queue_depth: 38,
                    telemetry_dropped: 39,
                    detector_errors: 40,
                    restarts_granted: 41,
                    restarts_denied: 42,
                },
            },
        },
    ]
}

/// Decodes one whole wire frame and re-encodes what it decoded.
fn reencode(wire: &[u8]) -> Vec<u8> {
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    dec.feed(wire);
    let payload = dec.next_payload().expect("intact frame").expect("whole");
    assert!(!dec.mid_frame(), "one frame, nothing after it");
    encode_frame(&Frame::decode_payload(&payload).expect("valid payload"))
}

#[test]
fn every_frame_variant_encodes_to_the_pinned_bytes() {
    for (i, frame) in frames().iter().enumerate() {
        let want = pinned(&format!("frame.{i}"));
        assert_eq!(encode_frame(frame), want, "frame.{i}: {frame:?}");
        assert_eq!(reencode(&want), want, "frame.{i} decode + re-encode");
    }
}

/// Fixed records over several machines and every counter code, with a
/// NaN value, a signed zero and an infinity among them.
fn batch_feed() -> Vec<Record> {
    (0..24u32)
        .map(|i| Record {
            machine_id: u64::from(i % 3) * 0x0101_0101 + 7,
            counter: (i % 7) as u8,
            time_secs: if i == 5 { -0.0 } else { 5.0 * f64::from(i) },
            value: match i {
                9 => f64::NAN,
                17 => f64::INFINITY,
                _ => 1e9 - 1234.5 * f64::from(i),
            },
        })
        .collect()
}

/// A column that splits: a 5 s cadence, a dt = 0 repeat, a backwards
/// step, a NaN stamp and a gap beyond the `u32` delta range.
fn column_feed() -> (Vec<f64>, Vec<f64>) {
    let times = vec![
        0.0,
        5.0,
        10.0,
        10.0,
        15.0,
        12.5,
        17.5,
        f64::NAN,
        30.0,
        35.0,
        5000.0,
        5005.0,
        5010.25,
    ];
    let values = (0..times.len())
        .map(|i| {
            if i == 3 {
                f64::from_bits(0x7ff8_0000_c0ff_ee00)
            } else {
                2e9 - 4096.0 * i as f64
            }
        })
        .collect();
    (times, values)
}

#[test]
fn batch_and_columnar_encoders_write_the_pinned_bytes() {
    let mut out = Vec::new();
    encode_batch_frame_into(41, &batch_feed(), &mut out);
    let want = pinned("batch_frame");
    assert_eq!(out, want, "batch_frame");
    assert_eq!(reencode(&want), want, "batch_frame decode + re-encode");

    let (times, values) = column_feed();
    let mut spans = Vec::new();
    columnar_spans(&times, 64, &mut spans);
    assert_eq!(spans.len(), 5, "{spans:?}");
    for (i, &(start, len)) in spans.iter().enumerate() {
        let range = start..start + len;
        encode_columnar_frame_into(
            100 + i as u64,
            9,
            2,
            &times[range.clone()],
            &values[range],
            &mut out,
        )
        .expect("span encodes");
        let want = pinned(&format!("columnar_frame.{i}"));
        assert_eq!(out, want, "columnar_frame.{i}");
        assert_eq!(
            reencode(&want),
            want,
            "columnar_frame.{i} decode + re-encode"
        );
    }
}

/// E14's trend detector: 10-minute window, 15-minute alarm horizon.
fn trend() -> CounterDetector {
    CounterDetector {
        counter: Counter::AvailableBytes,
        spec: DetectorSpec::Trend(TrendPredictorConfig {
            window: 120,
            refit_every: 8,
            alarm_horizon_secs: 900.0,
            ..TrendPredictorConfig::depleting(5.0)
        }),
    }
}

/// The paper's stack over an 8-hour horizon: Hölder and trend on
/// available bytes, Δα on committed bytes.
fn paper_fleet() -> FleetConfig {
    let detectors = vec![
        CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Holder(DetectorConfig::default()),
        },
        CounterDetector {
            counter: Counter::CommittedBytes,
            spec: DetectorSpec::Spectrum(Default::default()),
        },
        trend(),
    ];
    let mut cfg = FleetConfig::new(detectors, 8.0 * 3600.0);
    cfg.gate.nominal_period_secs = 5.0;
    cfg.shards = 1;
    cfg
}

fn store_config(dir: &Path, snapshot_every_entries: u64) -> StoreConfig {
    let mut store = StoreConfig::new(dir);
    store.snapshot_every_entries = snapshot_every_entries;
    store
}

/// Reads frames from `stream` until one matches `last`.
fn read_until(stream: &mut TcpStream, last: &Frame) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut dec = FrameDecoder::new(u32::MAX);
    let mut buf = [0u8; 4096];
    loop {
        while let Some(payload) = dec.next_payload().expect("intact reply") {
            let frame = Frame::decode_payload(&payload).expect("valid reply");
            assert!(
                !matches!(frame, Frame::Error { .. }),
                "server refused: {frame:?}"
            );
            if &frame == last {
                return;
            }
        }
        assert!(Instant::now() < deadline, "no {last:?} from the server");
        match stream.read(&mut buf) {
            Ok(0) => panic!("server closed before {last:?}"),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// Runs the fixed conversation against a store-backed server (snapshots
/// off) and returns the journal it left.
fn conversation_journal(dir: &Path) -> Vec<u8> {
    let mut cfg = ServeConfig::new(vec![trend()]);
    cfg.store = Some(store_config(dir, 0));
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");

    let mut wire = Vec::new();
    for frame in [
        Frame::Hello {
            version: PROTOCOL_VERSION_V2,
            name: "fixture".into(),
        },
        Frame::Batch {
            seq: 1,
            records: (0..4)
                .map(|i| Record {
                    machine_id: 1,
                    counter: 0,
                    time_secs: 5.0 * f64::from(i),
                    value: 4e6 - 1024.0 * f64::from(i),
                })
                .collect(),
        },
        Frame::BatchColumnar {
            seq: 2,
            machine_id: 1,
            counter: 0,
            t0: 20.0,
            dt_units: vec![5 << 20, 5 << 20],
            values: vec![3.9e6, f64::NAN, 3.8e6],
        },
        Frame::MachineDone { machine_id: 1 },
        Frame::Bye,
    ] {
        wire.extend_from_slice(&encode_frame(&frame));
    }
    let mut binary = TcpStream::connect(server.local_addr()).expect("connect");
    binary
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    binary.write_all(&wire).expect("send");
    read_until(&mut binary, &Frame::ByeAck);

    let mut text = TcpStream::connect(server.local_addr()).expect("connect");
    text.write_all(b"TEXT\nsample 2 available_bytes 5 123456.5\nbye\n")
        .expect("send");
    let mut reply = String::new();
    text.read_to_string(&mut reply).expect("text replies");
    assert_eq!(reply, "ok\nok bye\n");

    let report = server.shutdown();
    assert_eq!(report.wire.batches, 2);
    assert_eq!(report.wire.records, 4 + 3 + 1);
    std::fs::read(dir.join(JOURNAL_FILE)).expect("journal")
}

#[test]
fn store_backed_server_journals_the_pinned_bytes() {
    let dir = TempDir::new("conversation");
    let want = pinned("serve_journal");
    assert_eq!(conversation_journal(&dir.0), want);

    // The pinned journal replays: a server bound on it holds the
    // conversation's batches and records.
    let replay = TempDir::new("conversation-replay");
    std::fs::create_dir_all(&replay.0).unwrap();
    std::fs::write(replay.0.join(JOURNAL_FILE), &want).unwrap();
    let mut cfg = ServeConfig::new(vec![trend()]);
    cfg.store = Some(store_config(&replay.0, 0));
    let report = Server::bind("127.0.0.1:0", cfg).expect("replay").shutdown();
    assert_eq!(report.wire.batches, 2);
    assert_eq!(report.wire.records, 4 + 3 + 1);
    assert_eq!(report.machines.len(), 2);
}

#[test]
fn store_backed_supervisor_writes_the_pinned_bytes() {
    let dir = TempDir::new("fleet");
    let mut cfg = paper_fleet();
    cfg.store = Some(StoreConfig::new(&dir.0));
    let fleet: Vec<Scenario> = vec![
        Scenario::tiny_aging(11, 192.0),
        Scenario::tiny_aging(12, 0.0),
    ];
    // The journal as it stood when the last event was released: the run
    // compacts it into the snapshot when it completes.
    let mut journal = Vec::new();
    let report = FleetSupervisor::new(cfg)
        .expect("fleet")
        .run_with(
            &fleet,
            |_| journal = std::fs::read(dir.0.join(JOURNAL_FILE)).expect("journal"),
            |_| {},
        )
        .expect("run");
    assert!(!report.events.is_empty(), "the leaking machine alarms");
    assert_eq!(journal, pinned("fleet_journal"), "fleet_journal");
    let snapshot = std::fs::read(dir.0.join(SNAPSHOT_FILE)).expect("snapshot");
    assert_eq!(snapshot, pinned("fleet_snapshot"), "fleet_snapshot");
    assert_eq!(
        FleetSupervisor::recover_events(&StoreConfig::new(&dir.0)).expect("recover"),
        report.events
    );
}

#[test]
fn older_engine_snapshot_and_journal_recover_to_their_history() {
    let dir = TempDir::new("engine");
    std::fs::create_dir_all(&dir.0).unwrap();
    std::fs::write(dir.0.join(SNAPSHOT_FILE), pinned("engine_snapshot")).unwrap();
    let journal = pinned("engine_journal");
    assert!(!journal.is_empty(), "the pair carries a journal suffix");
    std::fs::write(dir.0.join(JOURNAL_FILE), &journal).unwrap();
    let mut cfg = ServeConfig::from_fleet(&paper_fleet());
    cfg.store = Some(store_config(&dir.0, 0));
    let report = Server::bind("127.0.0.1:0", cfg)
        .expect("recover")
        .shutdown();
    assert!(!report.events.is_empty());
    assert_eq!(encode_events(&report.events), pinned("engine_history"));
}
