//! Allocation guard for the journal append path.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After the
//! first append, a journal fed payloads no larger than that one must
//! perform **zero** heap allocations: `Store::append` builds each frame in
//! one buffer it keeps between calls, and writes it with one `write_all`
//! on an unbuffered `File`.
//!
//! Std only, like `crates/stream/tests/alloc_regression.rs`, so
//! `aging-store` keeps no dependency. Everything runs in ONE `#[test]`,
//! and counting is gated per thread, so the test harness cannot charge
//! its own allocations to the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use aging_store::{Store, StoreConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocator calls are counted. The `const`
    /// init keeps the TLS access itself allocation-free, and `try_with`
    /// tolerates allocator calls during thread teardown.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

fn charge() {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

/// Runs `f` with this thread's allocations counted; returns how many
/// allocator calls (alloc / alloc_zeroed / realloc) it made.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A store directory wiped on create and drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn appends_after_the_first_allocate_nothing() {
    let dir = TempDir(
        std::env::temp_dir().join(format!("aging-store-append-alloc-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let cfg = StoreConfig {
        // The store never snapshots on its own; the cadence is only a
        // hint, so turn it off to make that plain.
        snapshot_every_entries: 0,
        ..StoreConfig::new(&dir.0)
    };
    let (mut store, recovery) = Store::open(cfg).expect("open store");
    assert!(recovery.is_empty());

    // A serve-sized entry: a 64-record batch is about 1.6 KB.
    let largest: Vec<u8> = (0..1_600u32).map(|i| (i * 31 % 251) as u8).collect();
    store.append(&largest).expect("first append");

    let (allocations, appended) = counted(|| {
        let mut appended = 0u64;
        for i in 0..1_000usize {
            let len = largest.len() - (i * 7) % largest.len();
            appended += store.append(&largest[..len]).map(|_| 1).unwrap_or(0);
        }
        appended
    });
    assert_eq!(appended, 1_000, "every append must succeed");
    assert_eq!(
        allocations, 0,
        "1 000 appends no larger than the first allocated {allocations} times"
    );
    assert_eq!(store.last_entry_id(), 1_001);

    // The journal still replays every entry intact.
    drop(store);
    let (_, recovery) = Store::open(StoreConfig::new(&dir.0)).expect("reopen store");
    assert_eq!(recovery.entries.len(), 1_001);
    assert_eq!(recovery.entries[0].payload, largest);
    let last = &recovery.entries[1_000].payload;
    assert_eq!(
        last[..],
        largest[..largest.len() - (999 * 7) % largest.len()]
    );
}
