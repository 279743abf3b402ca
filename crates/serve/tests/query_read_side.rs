//! The promises status and alarm queries make, checked while the engine
//! ingests. Both queries are answered from the read side the engine
//! publishes at the end of every release, never from the engine itself.
//!
//! - **Alarms.** Every `AlarmsReply` is a prefix window of the final
//!   history: its events are the final history's at `since`, every
//!   final event at or below its watermark lies within its `total`, and
//!   the watermark never moves back. The `aging-cluster` aggregator
//!   relies on the middle promise to advance its merge.
//! - **Status.** `wire.records` never decreases, and once a batch is
//!   acked, a status query on the feeder's own connection counts its
//!   records in both `wire.records` and `fleet.ingestion.ingested`.
//! - **Recovery.** After `Server::abort` and a rebind on the same store,
//!   the first alarms reply repeats the `(total, watermark)` read before
//!   the kill, whether recovery ends in an empty journal suffix or not.
//!
//! Every wait has a timeout, so a lock-order mistake fails instead of
//! hanging. ci.sh runs this file under `AGING_THREADS=1` and `=4`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use aging_core::baseline::TrendPredictorConfig;
use aging_memsim::{Counter, Scenario};
use aging_serve::protocol::{counter_code, encode_events, Record, ServeEvent};
use aging_serve::{AlarmChunk, ServeClient, ServeConfig, Server};
use aging_store::StoreConfig;
use aging_stream::detector::DetectorSpec;
use aging_stream::source::{MachineSource, SampleSource};
use aging_stream::supervisor::{CounterDetector, FleetConfig};
use aging_stream::GateConfig;

const BATCH_RECORDS: usize = 16;
/// Batches acked before a kill, of the fleet's 537: not a multiple of
/// the default snapshot cadence (64 entries), so recovery at that cadence
/// replays a journal suffix of 44 entries after the snapshot.
const FED_BATCHES: usize = 300;
/// The longest any one test thread may take to report back.
const THREAD_WITHIN: Duration = Duration::from_secs(120);

fn fleet_config() -> FleetConfig {
    let detectors = vec![CounterDetector {
        counter: Counter::AvailableBytes,
        spec: DetectorSpec::Trend(TrendPredictorConfig {
            window: 120,
            refit_every: 8,
            alarm_horizon_secs: 900.0,
            ..TrendPredictorConfig::depleting(5.0)
        }),
    }];
    let mut cfg = FleetConfig::new(detectors, 8.0 * 3600.0);
    cfg.gate = GateConfig {
        nominal_period_secs: 5.0,
        ..GateConfig::default()
    };
    cfg
}

/// The E14 fleet shape, three leaking machines and a healthy control,
/// with the leaks staggered so that alarms are released at three
/// different times instead of all at the first full trend window.
fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = [192.0, 96.0, 48.0]
        .iter()
        .zip(seed..)
        .map(|(&mib_per_hour, s)| Scenario::tiny_aging(s, mib_per_hour))
        .collect();
    out.push(Scenario::tiny_aging(seed + 3, 0.0));
    out
}

/// The full record sequence, round-robin across machines by sample
/// index (preserving each machine's time order), chunked into batches.
fn build_batches(fleet: &[Scenario], horizon_secs: f64) -> Vec<Vec<Record>> {
    let code = counter_code(Counter::AvailableBytes);
    let traces: Vec<Vec<Record>> = fleet
        .iter()
        .enumerate()
        .map(|(m, scenario)| {
            let mut source = MachineSource::new(scenario, Counter::AvailableBytes, horizon_secs)
                .expect("source");
            let mut out = Vec::new();
            while let Some(s) = source.next_sample().expect("infallible source") {
                out.push(Record {
                    machine_id: m as u64,
                    counter: code,
                    time_secs: s.time_secs,
                    value: s.value,
                });
            }
            out
        })
        .collect();
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut records = Vec::new();
    for i in 0..longest {
        for trace in &traces {
            if let Some(rec) = trace.get(i) {
                records.push(*rec);
            }
        }
    }
    records
        .chunks(BATCH_RECORDS)
        .map(<[Record]>::to_vec)
        .collect()
}

fn serve_config(cfg: &FleetConfig, machines: usize) -> ServeConfig {
    let mut serve_cfg = ServeConfig::from_fleet(cfg);
    serve_cfg.expected_machines = Some(machines as u64);
    serve_cfg
}

/// Runs `f` on its own thread and waits for its result, failing the test
/// if it takes longer than [`THREAD_WITHIN`] or panics.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(THREAD_WITHIN)
        .unwrap_or_else(|e| panic!("{what}: no result ({e})"))
}

/// What the polling reader saw.
#[derive(Default)]
struct Seen {
    alarms: Vec<(u64, AlarmChunk)>,
    records: Vec<u64>,
}

#[test]
fn live_replies_are_windows_of_the_final_history() {
    let cfg = fleet_config();
    let fleet = scenarios(0x5eed);
    let batches = build_batches(&fleet, cfg.horizon_secs);
    let server = Server::bind("127.0.0.1:0", serve_config(&cfg, fleet.len())).expect("bind");
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    // The reader polls alarms and status in a tight loop until the
    // feeder is done, then reads once more.
    let (started_tx, started_rx) = mpsc::channel();
    let reader_done = Arc::clone(&done);
    let (seen_tx, seen_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr, "reader").expect("reader connect");
        let mut seen = Seen::default();
        let mut since = 0u64;
        loop {
            let last = reader_done.load(Ordering::SeqCst);
            let chunk = client.query_alarms_chunk(since).expect("alarms query");
            let next = since + chunk.events.len() as u64;
            seen.alarms.push((since, chunk));
            since = next;
            let status = client.query_status().expect("status query");
            seen.records.push(status.wire.records);
            if seen.alarms.len() == 1 {
                let _ = started_tx.send(());
            }
            if last {
                break;
            }
        }
        let _ = seen_tx.send(seen);
    });
    started_rx
        .recv_timeout(THREAD_WITHIN)
        .expect("the reader answers its first queries");

    // The feeder keeps a full credit window in flight and, at every
    // checkpoint, waits for its acks and asks for status on its own
    // connection.
    let mut feeder = within("feeder", move || {
        let mut client = ServeClient::connect(addr, "feeder").expect("feeder connect");
        let mut records = 0u64;
        for (i, batch) in batches.iter().enumerate() {
            client.send_batch(batch).expect("send batch");
            records += batch.len() as u64;
            if i % 256 == 255 || i + 1 == batches.len() {
                client.flush().expect("acks");
                let status = client.query_status().expect("feeder status");
                assert_eq!(status.wire.records, records, "acked records on the wire");
                assert_eq!(
                    status.fleet.ingestion.ingested, records,
                    "acked records in the fleet status"
                );
            }
        }
        client
    });
    done.store(true, Ordering::SeqCst);
    let seen = seen_rx
        .recv_timeout(THREAD_WITHIN)
        .expect("the reader finishes");
    for m in 0..fleet.len() {
        feeder.machine_done(m as u64).expect("machine done");
    }
    let _ = feeder.bye().expect("bye");
    let report = server.shutdown();
    let history = &report.events;
    assert!(!history.is_empty(), "the leaking machines raise alarms");

    assert!(seen.alarms.len() >= 2, "the reader polled during ingest");
    let mut last_watermark = f64::NEG_INFINITY;
    let mut released_mid_run = 0u64;
    for (since, chunk) in &seen.alarms {
        let start = *since as usize;
        assert!(chunk.total <= history.len() as u64, "total beyond history");
        assert_eq!(
            encode_events(&chunk.events),
            encode_events(&history[start..start + chunk.events.len()]),
            "reply at {since} is not the final history's window"
        );
        let promised: Vec<&ServeEvent> = history[chunk.total as usize..]
            .iter()
            .filter(|e| e.time_secs <= chunk.watermark_secs)
            .collect();
        assert!(
            promised.is_empty(),
            "watermark {} promised an event after total {}: {:?}",
            chunk.watermark_secs,
            chunk.total,
            promised[0]
        );
        assert!(
            chunk.watermark_secs >= last_watermark,
            "watermark moved back: {last_watermark} -> {}",
            chunk.watermark_secs
        );
        last_watermark = chunk.watermark_secs;
        released_mid_run = released_mid_run.max(chunk.total);
    }
    assert!(
        last_watermark.is_finite(),
        "the frontier advanced while feeds were open"
    );
    assert!(released_mid_run > 0, "some alarms were released mid-run");
    assert!(
        seen.records.windows(2).all(|w| w[0] <= w[1]),
        "wire.records decreased"
    );
}

/// A store directory wiped on create and drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("aging-read-side-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Acks part of the fleet into a store-backed server, reads
/// `(total, watermark)`, kills the server, rebinds on the same store and
/// returns both readings.
fn alarms_across_a_kill(store: StoreConfig) -> ((u64, f64), (u64, f64)) {
    let cfg = fleet_config();
    let fleet = scenarios(0xab0);
    let batches = build_batches(&fleet, cfg.horizon_secs);
    assert!(batches.len() > FED_BATCHES, "the kill lands mid-feed");
    let mut serve_cfg = serve_config(&cfg, fleet.len());
    // No session may close on its own between the reading and the kill.
    serve_cfg.stall_timeout_ms = 600_000;
    serve_cfg.store = Some(store);
    let rebind_cfg = serve_cfg.clone();

    let before = within("first incarnation", move || {
        let server = Server::bind("127.0.0.1:0", serve_cfg).expect("bind");
        let mut client = ServeClient::connect(server.local_addr(), "feeder").expect("connect");
        for batch in &batches[..FED_BATCHES] {
            client.send_batch(batch).expect("send batch");
        }
        client.flush().expect("acks");
        let chunk = client.query_alarms_chunk(0).expect("alarms");
        server.abort();
        (chunk.total, chunk.watermark_secs)
    });
    let after = within("second incarnation", move || {
        let server = Server::bind("127.0.0.1:0", rebind_cfg).expect("rebind");
        let mut client = ServeClient::connect(server.local_addr(), "reader").expect("connect");
        let chunk = client.query_alarms_chunk(0).expect("alarms");
        let _ = client.bye();
        let _ = server.shutdown();
        (chunk.total, chunk.watermark_secs)
    });
    (before, after)
}

#[test]
fn the_first_reply_after_recovery_repeats_the_last_before_the_kill() {
    let every_entry = TempDir::new("every-entry");
    let default = TempDir::new("default");
    for (what, store) in [
        (
            "snapshot after every entry",
            StoreConfig {
                snapshot_every_entries: 1,
                ..StoreConfig::new(&every_entry.0)
            },
        ),
        ("default snapshot cadence", StoreConfig::new(&default.0)),
    ] {
        let (before, after) = alarms_across_a_kill(store);
        assert!(before.0 > 0, "{what}: alarms were released before the kill");
        assert!(before.1.is_finite(), "{what}: the frontier advanced");
        assert_eq!(before.0, after.0, "{what}: total");
        assert_eq!(
            before.1.to_bits(),
            after.1.to_bits(),
            "{what}: watermark {} -> {}",
            before.1,
            after.1
        );
    }
}
