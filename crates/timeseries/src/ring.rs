//! Fixed-capacity ring buffer with O(1) windowed running statistics.
//!
//! [`RingBuffer`] is the sample store underlying the streaming subsystem:
//! every incremental kernel (`aging-fractal`'s streaming estimators, the
//! streaming Mann–Kendall baseline, `aging-stream`'s detectors) keeps its
//! trailing window in one of these instead of an unbounded `Vec`, which is
//! what bounds the whole online pipeline's memory.
//!
//! Running first/second moments are maintained incrementally and rebuilt
//! exactly once per buffer generation (every `capacity` pushes once full),
//! so `mean`/`variance` stay within a few ULPs of the batch formulas in
//! [`crate::stats`] no matter how long the stream runs. Min/max are tracked
//! with monotonic deques, giving O(1) amortised pushes.
//!
//! # Examples
//!
//! ```
//! use aging_timeseries::ring::RingBuffer;
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! let mut ring = RingBuffer::new(3)?;
//! for v in [1.0, 2.0, 3.0, 4.0] {
//!     ring.push(v);
//! }
//! assert_eq!(ring.to_vec(), vec![2.0, 3.0, 4.0]); // 1.0 evicted
//! assert_eq!(ring.mean()?, 3.0);
//! assert_eq!(ring.min()?, 2.0);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use crate::error::{Error, Result};

/// A fixed-capacity FIFO of `f64` samples with windowed running statistics.
///
/// Pushing beyond capacity evicts the oldest sample. All statistics are
/// over the samples currently held (the trailing window of the stream).
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buf: Vec<f64>,
    capacity: usize,
    /// Index of the logically-oldest element once the buffer has wrapped.
    head: usize,
    /// Total samples pushed over the buffer's lifetime.
    pushed: u64,
    /// Running sum of the held samples.
    sum: f64,
    /// Running sum of squares of the held samples.
    sum_sq: f64,
    /// Pushes since the running sums were last rebuilt exactly.
    since_rebuild: usize,
    /// Monotonically decreasing (value) deque of (push-id, value): front is
    /// the current maximum.
    max_deque: VecDeque<(u64, f64)>,
    /// Monotonically increasing deque: front is the current minimum.
    min_deque: VecDeque<(u64, f64)>,
}

impl RingBuffer {
    /// Creates an empty ring holding at most `capacity` samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::invalid("capacity", "must be positive"));
        }
        Ok(RingBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
            sum: 0.0,
            sum_sq: 0.0,
            since_rebuild: 0,
            // Each live push id appears in a deque at most once, so
            // `capacity` entries is a hard bound — reserving it up front
            // keeps every steady-state push allocation-free.
            max_deque: VecDeque::with_capacity(capacity),
            min_deque: VecDeque::with_capacity(capacity),
        })
    }

    /// Maximum number of samples held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the ring has reached capacity (pushes now evict).
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Total samples pushed over the ring's lifetime (≥ `len`).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Appends a sample, evicting the oldest if full. Returns the evicted
    /// sample, if any.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let evicted = if self.buf.len() < self.capacity {
            self.buf.push(value);
            None
        } else {
            let old = std::mem::replace(&mut self.buf[self.head], value);
            self.head = (self.head + 1) % self.capacity;
            Some(old)
        };
        self.account(value, evicted);
        evicted
    }

    /// Appends a column of samples, evicting as needed; state after the
    /// call is bit-identical to pushing each element with
    /// [`RingBuffer::push`] (same float accumulation order, same rebuild
    /// cadence, same deque contents).
    ///
    /// The loop is split into a fill phase and a steady-state phase so the
    /// hot (full-ring) path runs without the capacity branch per element.
    pub fn push_slice(&mut self, values: &[f64]) {
        let mut rest = values;
        if self.buf.len() < self.capacity {
            let take = rest.len().min(self.capacity - self.buf.len());
            for &value in &rest[..take] {
                self.buf.push(value);
                self.account(value, None);
            }
            rest = &rest[take..];
        }
        for &value in rest {
            let old = std::mem::replace(&mut self.buf[self.head], value);
            self.head = (self.head + 1) % self.capacity;
            self.account(value, Some(old));
        }
    }

    /// Per-sample bookkeeping shared by [`RingBuffer::push`] and
    /// [`RingBuffer::push_slice`]: runs after the buffer insert, in the
    /// exact order the bit-identity contract pins down.
    #[inline]
    fn account(&mut self, value: f64, evicted: Option<f64>) {
        let id = self.pushed;
        self.pushed += 1;

        // Running moments: subtract the evicted term, add the new one, and
        // rebuild exactly once per generation to stop drift accumulating.
        self.sum += value;
        self.sum_sq += value * value;
        if let Some(old) = evicted {
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.since_rebuild += 1;
        if self.since_rebuild >= self.capacity {
            self.rebuild_sums();
        }

        // Monotonic deques keyed by push id; ids ≤ `pushed - len - 1` have
        // been evicted from the window.
        let oldest_live = self.pushed - self.buf.len() as u64;
        while self
            .max_deque
            .front()
            .is_some_and(|&(i, _)| i < oldest_live)
        {
            self.max_deque.pop_front();
        }
        while self
            .min_deque
            .front()
            .is_some_and(|&(i, _)| i < oldest_live)
        {
            self.min_deque.pop_front();
        }
        while self.max_deque.back().is_some_and(|&(_, v)| v <= value) {
            self.max_deque.pop_back();
        }
        self.max_deque.push_back((id, value));
        while self.min_deque.back().is_some_and(|&(_, v)| v >= value) {
            self.min_deque.pop_back();
        }
        self.min_deque.push_back((id, value));
    }

    fn rebuild_sums(&mut self) {
        self.sum = self.buf.iter().sum();
        self.sum_sq = self.buf.iter().map(|v| v * v).sum();
        self.since_rebuild = 0;
    }

    /// The two contiguous slices of the window in logical (oldest-first)
    /// order. The second slice is empty until the ring wraps.
    pub fn as_slices(&self) -> (&[f64], &[f64]) {
        let (tail, front) = self.buf.split_at(self.head);
        (front, tail)
    }

    /// Copies the window, oldest first, into `out` (cleared first).
    ///
    /// This is the zero-allocation path the streaming kernels use to hand
    /// a contiguous window to batch estimators.
    pub fn copy_to(&self, out: &mut Vec<f64>) {
        out.clear();
        let (a, b) = self.as_slices();
        out.extend_from_slice(a);
        out.extend_from_slice(b);
    }

    /// The window as a freshly-allocated `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.buf.len());
        self.copy_to(&mut out);
        out
    }

    /// Iterates the held samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let (a, b) = self.as_slices();
        a.iter().chain(b.iter()).copied()
    }

    /// The most recently pushed sample.
    pub fn last(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last().copied()
        } else {
            Some(self.buf[self.head - 1])
        }
    }

    /// The logically `i`-th sample (0 = oldest).
    pub fn get(&self, i: usize) -> Option<f64> {
        if i >= self.buf.len() {
            return None;
        }
        Some(self.buf[(self.head + i) % self.buf.len().max(1)])
    }

    /// Mean of the held samples (matches [`crate::stats::mean`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] on an empty ring.
    pub fn mean(&self) -> Result<f64> {
        if self.buf.is_empty() {
            return Err(Error::Empty);
        }
        Ok(self.sum / self.buf.len() as f64)
    }

    /// Unbiased sample variance (matches [`crate::stats::variance`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] with fewer than two samples.
    pub fn variance(&self) -> Result<f64> {
        let n = self.buf.len();
        if n < 2 {
            return Err(Error::TooShort {
                required: 2,
                actual: n,
            });
        }
        let mean = self.sum / n as f64;
        // sum_sq − n·mean² in one pass; clamp tiny negative round-off.
        let var = (self.sum_sq - self.sum * mean) / (n - 1) as f64;
        Ok(var.max(0.0))
    }

    /// Sample standard deviation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingBuffer::variance`].
    pub fn std_dev(&self) -> Result<f64> {
        Ok(self.variance()?.sqrt())
    }

    /// Minimum of the held samples, O(1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] on an empty ring.
    pub fn min(&self) -> Result<f64> {
        self.min_deque.front().map(|&(_, v)| v).ok_or(Error::Empty)
    }

    /// Maximum of the held samples, O(1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] on an empty ring.
    pub fn max(&self) -> Result<f64> {
        self.max_deque.front().map(|&(_, v)| v).ok_or(Error::Empty)
    }

    /// Serializes the complete dynamic state (window contents, head
    /// position, lifetime push count, running moments, rebuild phase and
    /// both extremum deques) with [`crate::persist`].
    ///
    /// Capacity is written too, but only as a restore-time cross-check —
    /// configuration is re-supplied by the caller, never recovered from
    /// the blob. Together with [`RingBuffer::restore_state`] this makes a
    /// restored ring *bit-identical*: the rebuild cadence and incremental
    /// `sum`/`sum_sq` round-off resume exactly where the snapshot left
    /// off.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::persist::{put_f64, put_u64, put_usize};
        put_usize(out, self.capacity);
        put_usize(out, self.head);
        put_u64(out, self.pushed);
        put_f64(out, self.sum);
        put_f64(out, self.sum_sq);
        put_usize(out, self.since_rebuild);
        put_usize(out, self.buf.len());
        for &v in &self.buf {
            put_f64(out, v);
        }
        for dq in [&self.max_deque, &self.min_deque] {
            put_usize(out, dq.len());
            for &(id, v) in dq {
                put_u64(out, id);
                put_f64(out, v);
            }
        }
    }

    /// Restores state written by [`RingBuffer::encode_state`] into a
    /// freshly-constructed ring of the same capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the blob is truncated, the
    /// recorded capacity disagrees with this ring's, or any structural
    /// invariant (head/window/deque bounds) is violated.
    pub fn restore_state(&mut self, r: &mut crate::persist::Reader<'_>) -> Result<()> {
        let capacity = r.usize_()?;
        if capacity != self.capacity {
            return Err(Error::invalid(
                "persist",
                format!("ring capacity {} != snapshot {capacity}", self.capacity),
            ));
        }
        let head = r.usize_()?;
        let pushed = r.u64()?;
        let sum = r.f64()?;
        let sum_sq = r.f64()?;
        let since_rebuild = r.usize_()?;
        let len = r.usize_()?;
        if len > capacity || head >= capacity.max(1) || (len < capacity && head != 0) {
            return Err(Error::invalid("persist", "ring geometry corrupt"));
        }
        if (pushed as u128) < len as u128 {
            return Err(Error::invalid("persist", "ring pushed < len"));
        }
        let mut buf = Vec::with_capacity(capacity);
        for _ in 0..len {
            buf.push(r.f64()?);
        }
        // Mirror `new`: full-capacity reservation keeps the restored
        // ring's steady-state pushes allocation-free as well.
        let mut deques: [VecDeque<(u64, f64)>; 2] = [
            VecDeque::with_capacity(capacity),
            VecDeque::with_capacity(capacity),
        ];
        for dq in &mut deques {
            let n = r.usize_()?;
            if n > len {
                return Err(Error::invalid("persist", "ring deque longer than window"));
            }
            for _ in 0..n {
                let id = r.u64()?;
                let v = r.f64()?;
                dq.push_back((id, v));
            }
        }
        let [max_deque, min_deque] = deques;
        self.buf = buf;
        self.head = head;
        self.pushed = pushed;
        self.sum = sum;
        self.sum_sq = sum_sq;
        self.since_rebuild = since_rebuild;
        self.max_deque = max_deque;
        self.min_deque = min_deque;
        Ok(())
    }

    /// The ring of `capacity` samples that this ring's pushes would have
    /// built: its last `capacity` samples under the push count, head
    /// position, rebuild phase and extremum deques an uninterrupted ring
    /// of that capacity reaches. Only the running sums may differ: they
    /// are exact here, and meet the uninterrupted ring's again at its
    /// next rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `capacity` is zero or larger
    /// than this ring's.
    pub fn resized(&self, capacity: usize) -> Result<RingBuffer> {
        if capacity > self.capacity {
            return Err(Error::invalid("capacity", "must not exceed the ring's own"));
        }
        let mut ring = RingBuffer::new(capacity)?;
        let keep = self.len().min(capacity);
        // Replay the kept samples under the push ids they had here.
        ring.pushed = self.pushed - keep as u64;
        for v in self.iter().skip(self.len() - keep) {
            ring.push(v);
        }
        if ring.is_full() {
            let phase = (ring.pushed % capacity as u64) as usize;
            ring.buf.rotate_right(phase);
            ring.head = phase;
            ring.rebuild_sums();
            ring.since_rebuild = phase;
        }
        Ok(ring)
    }

    /// Removes all samples; capacity and lifetime counters are retained.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.since_rebuild = 0;
        self.max_deque.clear();
        self.min_deque.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn rejects_zero_capacity() {
        assert!(RingBuffer::new(0).is_err());
    }

    #[test]
    fn fifo_eviction_order() {
        let mut ring = RingBuffer::new(3).unwrap();
        assert_eq!(ring.push(1.0), None);
        assert_eq!(ring.push(2.0), None);
        assert_eq!(ring.push(3.0), None);
        assert!(ring.is_full());
        assert_eq!(ring.push(4.0), Some(1.0));
        assert_eq!(ring.push(5.0), Some(2.0));
        assert_eq!(ring.to_vec(), vec![3.0, 4.0, 5.0]);
        assert_eq!(ring.last(), Some(5.0));
        assert_eq!(ring.get(0), Some(3.0));
        assert_eq!(ring.get(2), Some(5.0));
        assert_eq!(ring.get(3), None);
        assert_eq!(ring.pushed(), 5);
    }

    #[test]
    fn slices_concatenate_to_window() {
        let mut ring = RingBuffer::new(4).unwrap();
        for v in 0..7 {
            ring.push(v as f64);
        }
        let (a, b) = ring.as_slices();
        let joined: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(joined, vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ring.iter().collect::<Vec<_>>(), joined);
    }

    #[test]
    fn push_slice_matches_push_bitwise() {
        // Irregular values (including repeats) across several rebuild
        // generations; encode_state covers buf/head/pushed/sums/
        // since_rebuild/deques, so byte equality is full-state equality.
        let values: Vec<f64> = (0..157u64)
            .map(|i| ((i.wrapping_mul(2654435761) % 997) as f64) * 0.3125 - 150.0)
            .collect();
        for chunk in [1usize, 2, 7, 64] {
            let mut looped = RingBuffer::new(5).unwrap();
            let mut sliced = RingBuffer::new(5).unwrap();
            for block in values.chunks(chunk) {
                for &v in block {
                    looped.push(v);
                }
                sliced.push_slice(block);
                let mut a = Vec::new();
                let mut b = Vec::new();
                looped.encode_state(&mut a);
                sliced.encode_state(&mut b);
                assert_eq!(a, b, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn resized_ring_continues_like_an_uninterrupted_one() {
        let values: Vec<f64> = (0..97u64)
            .map(|i| ((i.wrapping_mul(2654435761) % 997) as f64) * 0.3125 - 150.0)
            .collect();
        // Cut before the wide ring fills, between, and after it wraps.
        for cut in [3usize, 9, 12, 41, 60] {
            let mut wide = RingBuffer::new(12).unwrap();
            let mut narrow = RingBuffer::new(5).unwrap();
            for &v in &values[..cut] {
                wide.push(v);
                narrow.push(v);
            }
            let mut resized = wide.resized(5).unwrap();
            assert_eq!(resized.to_vec(), narrow.to_vec(), "cut={cut}");
            assert_eq!(resized.pushed(), narrow.pushed());
            assert_eq!(resized.min().ok(), narrow.min().ok());
            assert_eq!(resized.max().ok(), narrow.max().ok());
            // One rebuild generation later the whole state agrees.
            for &v in &values[cut..cut + 5] {
                resized.push(v);
                narrow.push(v);
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            resized.encode_state(&mut a);
            narrow.encode_state(&mut b);
            assert_eq!(a, b, "cut={cut}");
        }
        assert!(RingBuffer::new(4).unwrap().resized(5).is_err());
    }

    #[test]
    fn stats_match_batch_formulas_after_wrapping() {
        let mut ring = RingBuffer::new(16).unwrap();
        // Push far past capacity so sums are rebuilt several times.
        for i in 0..1000 {
            ring.push(((i * 37) % 101) as f64 - 50.0);
        }
        let window = ring.to_vec();
        assert!((ring.mean().unwrap() - stats::mean(&window).unwrap()).abs() < 1e-9);
        assert!((ring.variance().unwrap() - stats::variance(&window).unwrap()).abs() < 1e-6);
        assert_eq!(ring.min().unwrap(), stats::min(&window).unwrap());
        assert_eq!(ring.max().unwrap(), stats::max(&window).unwrap());
    }

    #[test]
    fn extremes_track_evictions() {
        let mut ring = RingBuffer::new(3).unwrap();
        ring.push(9.0);
        ring.push(1.0);
        ring.push(2.0);
        assert_eq!(ring.max().unwrap(), 9.0);
        ring.push(3.0); // evicts 9.0
        assert_eq!(ring.max().unwrap(), 3.0);
        assert_eq!(ring.min().unwrap(), 1.0);
        ring.push(0.5); // evicts 1.0
        ring.push(0.7); // evicts 2.0
        assert_eq!(ring.min().unwrap(), 0.5);
        assert_eq!(ring.max().unwrap(), 3.0);
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut ring = RingBuffer::new(7).unwrap();
        for i in 0..23 {
            ring.push(((i * 31) % 17) as f64 * 0.1 - 0.5);
        }
        let mut blob = Vec::new();
        ring.encode_state(&mut blob);
        let mut restored = RingBuffer::new(7).unwrap();
        let mut r = crate::persist::Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();

        // Continue both with the same suffix: every statistic must agree
        // to the bit, including incremental round-off in the sums.
        for i in 0..40 {
            let v = ((i * 13) % 29) as f64 * 0.07;
            ring.push(v);
            restored.push(v);
            assert_eq!(
                ring.mean().unwrap().to_bits(),
                restored.mean().unwrap().to_bits()
            );
            assert_eq!(
                ring.variance().unwrap().to_bits(),
                restored.variance().unwrap().to_bits()
            );
            assert_eq!(ring.min().unwrap(), restored.min().unwrap());
            assert_eq!(ring.max().unwrap(), restored.max().unwrap());
            assert_eq!(ring.to_vec(), restored.to_vec());
            assert_eq!(ring.pushed(), restored.pushed());
        }
    }

    #[test]
    fn restore_rejects_capacity_mismatch_and_corruption() {
        let mut ring = RingBuffer::new(4).unwrap();
        for v in 0..9 {
            ring.push(v as f64);
        }
        let mut blob = Vec::new();
        ring.encode_state(&mut blob);

        let mut wrong = RingBuffer::new(5).unwrap();
        let mut r = crate::persist::Reader::new(&blob);
        assert!(wrong.restore_state(&mut r).is_err());

        let mut same = RingBuffer::new(4).unwrap();
        let mut r = crate::persist::Reader::new(&blob[..blob.len() - 3]);
        assert!(same.restore_state(&mut r).is_err(), "truncated blob");
        // The failed restore must not have corrupted the target.
        same.push(1.0);
        assert_eq!(same.len(), 1);
    }

    #[test]
    fn clear_resets_window_not_lifetime() {
        let mut ring = RingBuffer::new(2).unwrap();
        ring.push(1.0);
        ring.push(2.0);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.pushed(), 2);
        assert!(ring.mean().is_err());
        ring.push(7.0);
        assert_eq!(ring.mean().unwrap(), 7.0);
    }
}
