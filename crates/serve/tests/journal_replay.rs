//! Journal replay must refuse an entry whose declared record count its
//! bytes cannot hold, before allocating for that count: a CRC-valid
//! entry declaring 2³²−1 records would otherwise ask for tens of
//! gigabytes and abort recovery instead of failing it.

use std::path::PathBuf;

use aging_core::detector::DetectorConfig;
use aging_memsim::Counter;
use aging_serve::server::{ServeConfig, Server};
use aging_store::{Store, StoreConfig};
use aging_stream::pipeline::CounterDetector;
use aging_stream::DetectorSpec;
use aging_timeseries::persist;

/// A store directory wiped on create and drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("aging-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Binds a store-backed server over a journal holding `payload` alone
/// and returns why binding failed, if it did.
fn bind_error(tag: &str, payload: &[u8]) -> Option<String> {
    let dir = TempDir::new(tag);
    let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).expect("open store");
    store.append(payload).expect("append entry");
    drop(store);
    let mut cfg = ServeConfig::new(vec![CounterDetector {
        counter: Counter::AvailableBytes,
        spec: DetectorSpec::Holder(DetectorConfig::default()),
    }]);
    cfg.store = Some(StoreConfig::new(&dir.0));
    Server::bind("127.0.0.1:0", cfg)
        .err()
        .map(|e| e.to_string())
}

#[test]
fn inflated_entry_counts_fail_recovery_without_allocating() {
    // Record entries (binary batch = 1, text = 3): kind, count, records.
    for kind in [1u8, 3] {
        let mut payload = Vec::new();
        persist::put_u8(&mut payload, kind);
        persist::put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0u8; 25]);
        let err = bind_error(&format!("records-{kind}"), &payload)
            .expect("an inflated record count must fail recovery");
        assert!(err.contains("store recovery: journal entry"), "{err}");
    }

    // Column entry (4): kind, machine id, counter, count, samples.
    let mut payload = Vec::new();
    persist::put_u8(&mut payload, 4);
    persist::put_u64(&mut payload, 7);
    persist::put_u8(&mut payload, 0);
    persist::put_u32(&mut payload, u32::MAX);
    payload.extend_from_slice(&[0u8; 16]);
    let err = bind_error("column", &payload).expect("an inflated column count must fail recovery");
    assert!(err.contains("store recovery: journal entry"), "{err}");

    // One record short of its declared count is refused the same way.
    let mut payload = Vec::new();
    persist::put_u8(&mut payload, 1);
    persist::put_u32(&mut payload, 2);
    payload.extend_from_slice(&[0u8; 25]);
    assert!(bind_error("short", &payload).is_some());
}
