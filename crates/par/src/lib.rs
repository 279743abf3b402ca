//! # aging-par
//!
//! Deterministic parallel execution for the `holder-aging` workspace: a
//! tiny chunked work-distribution layer built on scoped threads, with no
//! external dependencies and no `unsafe`.
//!
//! # Determinism contract
//!
//! Every operation on a [`Pool`] is **bit-identical to its sequential
//! counterpart, regardless of thread count**:
//!
//! - work is split into contiguous index *chunks*; workers claim chunks
//!   dynamically (an atomic counter — the chunked analogue of work
//!   stealing) but every result lands in its input's slot, so the output
//!   order is the input order;
//! - no reductions are performed across threads — merging is a plain
//!   in-order concatenation on the calling thread, so there is no
//!   floating-point reduction-order drift;
//! - fallible maps report the error of the **smallest failing index**, the
//!   same error a sequential loop that runs to completion would pick.
//!
//! The hot kernels (`holder_trace`, surrogate ensembles, fleet simulation
//! and scoring, detector sweeps) parallelise over items that are mutually
//! independent, so the per-item arithmetic is untouched and the contract
//! holds end to end.
//! Parity is enforced by proptests in `aging-fractal` and `aging-core`
//! that compare 1-, 2- and 7-thread pools element for element.
//!
//! # Thread-count resolution
//!
//! [`Pool::global`] resolves its size once per process:
//!
//! 1. `AGING_THREADS` environment variable, when set to a positive
//!    integer (`AGING_THREADS=1` forces the inline sequential path);
//! 2. otherwise [`std::thread::available_parallelism`].
//!
//! Explicit sizes ([`Pool::new`]) always win over the environment; the
//! `*_in` function variants across the workspace take a `&Pool` for
//! callers that need per-call control (tests, benchmarks, the `repro e12`
//! speedup experiment).
//!
//! # Examples
//!
//! ```
//! use aging_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1i64, 2, 3, 4, 5], |&v| v * v);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Identical output on any pool size — including the sequential one.
//! assert_eq!(squares, Pool::sequential().map(&[1i64, 2, 3, 4, 5], |&v| v * v));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Name of the environment variable that sizes the global pool.
pub const THREADS_ENV: &str = "AGING_THREADS";

/// Minimum number of items a chunk carries (amortises the per-chunk
/// scheduling cost for cheap per-item work).
const MIN_CHUNK: usize = 16;

/// Chunks issued per worker thread; > 1 so threads that finish early can
/// claim more work (dynamic load balancing).
const CHUNKS_PER_THREAD: usize = 4;

/// A deterministic chunked thread pool.
///
/// The pool is a *policy* object — it records how many worker threads an
/// operation may use. Threads themselves are scoped to each call
/// ([`std::thread::scope`]), so a `Pool` is trivially cheap to create,
/// `Copy`-free but `Clone`, and never leaks OS resources.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that may use up to `threads` worker threads. `0` resolves
    /// the automatic size (environment, then hardware) like
    /// [`Pool::global`] does.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            auto_threads()
        } else {
            threads
        };
        Pool { threads }
    }

    /// The single-threaded pool: every operation runs inline on the
    /// calling thread. Useful as an explicit "no parallelism" choice and
    /// for parity tests.
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// The process-wide shared pool, sized once from `AGING_THREADS` (a
    /// positive integer) or, when unset or invalid, from
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(0))
    }

    /// Number of worker threads operations on this pool may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scheduler core: maps `f` over `0..n` by contiguous index
    /// ranges of at least `min_chunk` items, concatenating the per-range
    /// outputs in index order.
    fn chunked<U, F>(&self, n: usize, min_chunk: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
    {
        let check = |range: std::ops::Range<usize>, out: &Vec<U>| {
            assert_eq!(
                out.len(),
                range.len(),
                "map_range closure returned {} results for a {}-item range",
                out.len(),
                range.len(),
            );
        };
        if self.threads <= 1 || n <= min_chunk {
            let out = f(0..n);
            check(0..n, &out);
            return out;
        }

        let chunk = (n.div_ceil(self.threads * CHUNKS_PER_THREAD)).max(min_chunk);
        let num_chunks = n.div_ceil(chunk);
        let workers = self.threads.min(num_chunks);
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Vec<U>>>> = Mutex::new((0..num_chunks).map(|_| None).collect());

        std::thread::scope(|scope| {
            let worker = || loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    return;
                }
                let range = c * chunk..((c + 1) * chunk).min(n);
                let out = f(range.clone());
                check(range, &out);
                slots.lock().expect("result mutex poisoned")[c] = Some(out);
            };
            // The calling thread is worker 0; spawn the remainder.
            for _ in 1..workers {
                scope.spawn(worker);
            }
            worker();
        });

        let mut merged = Vec::with_capacity(n);
        for slot in slots.into_inner().expect("result mutex poisoned") {
            merged.extend(slot.expect("every chunk was claimed"));
        }
        merged
    }

    /// Maps `f` over `0..n` by contiguous index ranges, concatenating the
    /// per-range outputs in index order.
    ///
    /// `f` receives a range and must return exactly `range.len()` results
    /// for it; ranges partition `0..n`, so the output has length `n` and
    /// `output[i]` is produced by the range containing `i`. This is the
    /// building block for *fine-grained* kernels (cheap per-index work,
    /// large `n`) that carry per-chunk scratch buffers; ranges are at
    /// least 16 items so scheduling cost stays amortised.
    ///
    /// # Panics
    ///
    /// Panics when `f` returns the wrong number of results for a range,
    /// and propagates panics raised inside `f`.
    pub fn map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
    {
        self.chunked(n, MIN_CHUNK, f)
    }

    /// Maps `f` over the index range `0..n`, returning the results in
    /// index order.
    ///
    /// Indices are treated as *coarse* tasks (chunks shrink to a single
    /// index when threads outnumber work), so even a handful of expensive
    /// items — surrogate replicas, machines, sweep values — spread across
    /// the pool.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.chunked(n, 1, |range| range.map(&f).collect())
    }

    /// Maps `f` over `items`, returning the results in input order.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Fallible [`Pool::map`]: on failure, returns the error of the
    /// smallest failing input index (sequential-loop-equivalent and
    /// independent of thread interleaving).
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) error `f` produced.
    pub fn try_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        let results = self.map(items, f);
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r?);
        }
        Ok(out)
    }

    /// Fallible [`Pool::map_indexed`] with the same lowest-index error
    /// guarantee as [`Pool::try_map`].
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) error `f` produced.
    pub fn try_map_indexed<U, E, F>(&self, n: usize, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize) -> Result<U, E> + Sync,
    {
        let results = self.map_indexed(n, f);
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r?);
        }
        Ok(out)
    }
}

impl Default for Pool {
    /// The automatic size — same resolution as [`Pool::global`].
    fn default() -> Self {
        Pool::new(0)
    }
}

/// Resolves the automatic thread count: `AGING_THREADS` when it parses as
/// a positive integer, otherwise the hardware parallelism (≥ 1).
fn auto_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<Pool> {
        vec![Pool::sequential(), Pool::new(2), Pool::new(7)]
    }

    #[test]
    fn map_preserves_order_on_every_pool_size() {
        let items: Vec<i64> = (0..1000).collect();
        let expected: Vec<i64> = items.iter().map(|v| v * 3 - 1).collect();
        for pool in pools() {
            assert_eq!(pool.map(&items, |&v| v * 3 - 1), expected);
        }
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let expected: Vec<usize> = (0..513).map(|i| i * i).collect();
        for pool in pools() {
            assert_eq!(pool.map_indexed(513, |i| i * i), expected);
        }
    }

    #[test]
    fn map_range_chunks_partition_the_index_space() {
        for pool in pools() {
            let out = pool.map_range(1003, |range| range.collect::<Vec<usize>>());
            assert_eq!(out, (0..1003).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_pool_sizes() {
        // Transcendental per-item work: any reduction-order drift or chunk
        // dependence would show up as bit differences.
        let f = |i: usize| ((i as f64) * 0.7311).sin().exp().ln_1p();
        let baseline = Pool::sequential().map_indexed(4096, f);
        for pool in [Pool::new(2), Pool::new(3), Pool::new(7), Pool::new(16)] {
            let out = pool.map_indexed(4096, f);
            assert_eq!(out.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for pool in pools() {
            assert_eq!(pool.map(&[] as &[i32], |&v| v), Vec::<i32>::new());
            assert_eq!(pool.map(&[42], |&v| v + 1), vec![43]);
        }
    }

    #[test]
    fn try_map_collects_all_successes() {
        for pool in pools() {
            let out: Result<Vec<i64>, String> = pool.try_map(&[1i64, 2, 3], |&v| Ok(v * 2));
            assert_eq!(out.unwrap(), vec![2, 4, 6]);
        }
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let items: Vec<usize> = (0..500).collect();
        for pool in pools() {
            let err = pool
                .try_map(&items, |&i| {
                    if i == 137 || i == 401 {
                        Err(format!("bad {i}"))
                    } else {
                        Ok(i)
                    }
                })
                .unwrap_err();
            assert_eq!(err, "bad 137");
        }
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one() {
        assert!(Pool::new(0).threads() >= 1);
        assert!(Pool::default().threads() >= 1);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn sequential_pool_has_one_thread() {
        assert_eq!(Pool::sequential().threads(), 1);
    }

    #[test]
    #[should_panic(expected = "map_range closure returned")]
    fn map_range_length_mismatch_panics() {
        Pool::sequential().map_range(8, |_| vec![0u8; 3]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map_indexed(1000, |i| {
                assert!(i != 700, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
