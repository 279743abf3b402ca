//! Allocation guard for the simulator step.
//!
//! A counting `#[global_allocator]` wraps the system allocator, like
//! `crates/serve/tests/json_alloc.rs`. Once warm, `Machine::step` books
//! its cohorts in the expiry ledger's calendar ring and gets them from
//! the workload sampler inline, so the only allocator calls left are the
//! monitor log's amortised growth (one reallocation per counter column
//! each time it doubles) and the rare cohort booked beyond the ring.
//!
//! Std only. Each thread counts its own allocator calls in a
//! thread-local counter, so neither the test harness nor a test running
//! at the same time on another thread can charge a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aging_memsim::{Machine, Scenario};

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

/// Runs `f` on this thread; returns how many allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const STEPS: usize = 10_000;

#[test]
fn warm_machine_steps_allocate_only_for_log_growth() {
    // The healthy control of the benchmark fleet: it never crashes, so
    // every step runs the workload, the ledger and the monitor.
    let mut machine = Machine::boot(&Scenario::tiny_aging(7922, 0.0)).expect("boot");
    for _ in 0..STEPS {
        assert!(machine.step().is_none());
    }
    let rows = machine.log().len();

    let (allocations, crashed) = counted(|| (0..STEPS).any(|_| machine.step().is_some()));
    assert!(!crashed, "the healthy control survives");
    assert_eq!(machine.log().len(), 2 * rows, "one row every five steps");
    assert!(
        allocations <= 32,
        "{STEPS} warm steps made {allocations} allocator calls"
    );
}
