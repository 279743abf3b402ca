//! Allocation guard for the status document, in JSON and in binary.
//!
//! A counting `#[global_allocator]` wraps the system allocator, like
//! `crates/store/tests/append_alloc.rs`. `serde_json` writes a
//! [`ServeStatus`] straight into one output buffer, so encoding it costs
//! only that buffer's growth, and parses it with no allocation at all:
//! every key is borrowed from the input and every field is a number. The
//! protocol-v3 binary [`Frame::Status`] allocates nothing either way once
//! its buffer is warm.
//!
//! Std only. Each thread counts its own allocator calls in a
//! thread-local counter, so neither the test harness nor the other test,
//! which the harness may run at the same time on another thread, can
//! charge its allocations to a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aging_serve::protocol::{encode_frame_into, Frame};
use aging_serve::{ServeStatus, WireCounters};
use aging_stream::{LatencyHistogram, StageCounters, StatusSnapshot};

struct CountingAlloc;

thread_local! {
    /// This thread's allocator calls. The `const` init keeps the TLS
    /// access itself allocation-free, and `try_with` tolerates allocator
    /// calls during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn charge() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` on this thread; returns how many allocator calls (alloc /
/// alloc_zeroed / realloc) it made.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A status as a server answers it mid-run: four machines, a few
/// hundred thousand records, every counter of realistic width.
fn status() -> ServeStatus {
    ServeStatus {
        wire: WireCounters {
            connections: 3,
            sessions_closed: 1,
            text_sessions: 0,
            frames: 5_871,
            batches: 5_790,
            records: 370_560,
            records_rejected: 0,
            acks_sent: 5_790,
            busy_sent: 12,
            malformed_frames: 0,
            corrupt_streams: 0,
            quarantined: 0,
            session_panics: 0,
            queries: 79,
        },
        fleet: StatusSnapshot {
            sequence: 5_791,
            stream_time_secs: 277_950.0,
            machines_live: 4,
            machines_finished: 0,
            ingestion: StageCounters {
                ingested: 370_560,
                accepted: 370_548,
                dropped_non_finite: 12,
                dropped_out_of_order: 0,
                gaps_detected: 0,
                quarantines: 0,
            },
            detector_latency: LatencyHistogram {
                counts: [360_112, 9_870, 512, 47, 7, 0, 0, 0, 0],
                total: 370_548,
                sum_us: 1_481_224,
                max_us: 2_731,
            },
            warnings_emitted: 6,
            alarms_emitted: 3,
            alarm_queue_depth: 0,
            telemetry_dropped: 0,
            detector_errors: 0,
            restarts_granted: 0,
            restarts_denied: 0,
        },
    }
}

#[test]
fn status_json_encodes_into_one_buffer_and_parses_without_allocating() {
    let status = status();
    let json = serde_json::to_string(&status).expect("encode");
    assert!(json.len() > 600, "a full status document: {json}");

    let (allocations, again) = counted(|| serde_json::to_string(&status).expect("encode"));
    assert_eq!(again, json);
    assert!(
        allocations <= 12,
        "encoding a {}-byte status allocated {allocations} times",
        json.len()
    );

    let (allocations, parsed) = counted(|| serde_json::from_str::<ServeStatus>(&json));
    let parsed = parsed.expect("parse");
    assert_eq!(
        allocations, 0,
        "parsing the status allocated {allocations} times"
    );
    assert_eq!(serde_json::to_string(&parsed).expect("encode"), json);

    // The pretty form parses the same way: whitespace costs nothing.
    let pretty = serde_json::to_string_pretty(&status).expect("encode");
    let (allocations, parsed) = counted(|| serde_json::from_str::<ServeStatus>(&pretty));
    assert_eq!(
        allocations, 0,
        "parsing the pretty status allocated {allocations} times"
    );
    assert_eq!(
        serde_json::to_string(&parsed.expect("parse")).expect("encode"),
        json
    );
}

#[test]
fn status_frame_encodes_and_decodes_without_allocating() {
    let frame = Frame::Status { status: status() };
    let mut wire = Vec::new();
    encode_frame_into(&frame, &mut wire);
    let warm = wire.clone();

    let (allocations, ()) = counted(|| encode_frame_into(&frame, &mut wire));
    assert_eq!(wire, warm);
    assert_eq!(
        allocations,
        0,
        "encoding a {}-byte status frame into a warm buffer allocated {allocations} times",
        wire.len()
    );

    // The payload sits between the length word and the CRC.
    let payload = &wire[4..wire.len() - 4];
    let (allocations, decoded) = counted(|| Frame::decode_payload(payload));
    assert_eq!(
        allocations, 0,
        "decoding the status frame allocated {allocations} times"
    );
    assert_eq!(decoded.expect("decode"), frame);
}
