//! Watermark-gated k-way merge: the release-hold discipline behind every
//! ordered alarm stream in the workspace, extracted so all three
//! consumers share one implementation:
//!
//! * [`supervisor::FleetSupervisor`](crate::supervisor::FleetSupervisor)
//!   merges its shard threads' event streams,
//! * `aging-serve`'s engine gates its pending heap on the fleet
//!   watermark (a single-source merger), and
//! * `aging-cluster`'s aggregator k-way merges per-shard alarm streams
//!   into one global history.
//!
//! # Model
//!
//! Events are buffered in a min-heap keyed
//! `(time_secs, lane, seq)` — [`MergeKey`] — where `lane` is the machine
//! identity and `seq` an emission sequence that breaks residual ties in
//! source order. Each of the merger's `sources` owns a *watermark*: a
//! promise that it will never again contribute an event at or below that
//! time. An event is *ready* once its time is at or below the
//! [`frontier`](WatermarkMerger::frontier) — the minimum watermark over
//! all sources — because no source can still be holding an earlier event.
//!
//! Watermarks are monotone by construction:
//! [`advance`](WatermarkMerger::advance) rejects a regressing (late) watermark and
//! keeps the maximum seen, so a source that restarts and briefly
//! re-advertises an older promise (e.g. a recovered shard replaying its
//! journal) cannot un-release history.
//!
//! Popping ready events therefore yields a globally ordered,
//! deterministic sequence no matter how the sources interleave — the
//! property the E14/E16 byte-parity gates are built on.

use std::collections::BinaryHeap;

/// Ordering key of one buffered event: `(time, lane, seq)`, compared in
/// that priority. `lane` is the machine identity (fleet index or wire
/// machine id); `seq` breaks `(time, lane)` ties in emission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeKey {
    /// Event timestamp, seconds.
    pub time_secs: f64,
    /// Machine identity (total order across the fleet).
    pub lane: u64,
    /// Emission sequence within the source, for residual tie-breaking.
    pub seq: u64,
}

impl MergeKey {
    fn cmp_key(&self, other: &MergeKey) -> std::cmp::Ordering {
        self.time_secs
            .total_cmp(&other.time_secs)
            .then_with(|| self.lane.cmp(&other.lane))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

struct Pending<T> {
    key: MergeKey,
    value: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key.cmp_key(&other.key) == std::cmp::Ordering::Equal
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and the earliest key must
        // pop first.
        other.key.cmp_key(&self.key)
    }
}

/// A watermark-gated k-way merge buffer over `sources` ordered streams.
///
/// See the [module docs](self) for the model. Typical loop:
///
/// ```
/// use aging_stream::merge::{MergeKey, WatermarkMerger};
///
/// let mut m: WatermarkMerger<&str> = WatermarkMerger::new(2);
/// m.push(MergeKey { time_secs: 10.0, lane: 0, seq: 1 }, "a");
/// m.push(MergeKey { time_secs: 5.0, lane: 1, seq: 1 }, "b");
/// m.advance(0, 10.0);
/// assert!(m.pop_ready().is_none()); // source 1 still at -inf
/// m.advance(1, 7.0);
/// assert_eq!(m.pop_ready(), Some("b")); // 5.0 <= min(10.0, 7.0)
/// assert_eq!(m.pop_ready(), None); // 10.0 > 7.0: source 1 may emit earlier
/// m.finish(1);
/// assert_eq!(m.pop_ready(), Some("a"));
/// ```
pub struct WatermarkMerger<T> {
    heap: BinaryHeap<Pending<T>>,
    watermarks: Vec<f64>,
    frontier: f64,
}

impl<T> std::fmt::Debug for WatermarkMerger<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatermarkMerger")
            .field("pending", &self.heap.len())
            .field("watermarks", &self.watermarks)
            .field("frontier", &self.frontier)
            .finish()
    }
}

impl<T> WatermarkMerger<T> {
    /// A merger over `sources` streams, every watermark starting at
    /// negative infinity (nothing is ready until every source promises).
    ///
    /// # Panics
    ///
    /// Panics when `sources` is zero — a merge over no streams has no
    /// meaningful frontier.
    pub fn new(sources: usize) -> WatermarkMerger<T> {
        assert!(sources > 0, "WatermarkMerger needs at least one source");
        WatermarkMerger {
            heap: BinaryHeap::new(),
            watermarks: vec![f64::NEG_INFINITY; sources],
            frontier: f64::NEG_INFINITY,
        }
    }

    /// Number of sources this merger was built over.
    pub fn sources(&self) -> usize {
        self.watermarks.len()
    }

    /// Buffers one event. Pushing an event at or below its source's
    /// already-passed watermark is a contract violation by the caller;
    /// the merger still accepts it (it will pop immediately) rather than
    /// panicking mid-stream.
    pub fn push(&mut self, key: MergeKey, value: T) {
        self.heap.push(Pending { key, value });
    }

    /// Raises `source`'s watermark to `watermark_secs`.
    ///
    /// Returns `false` — and leaves the stored watermark untouched — for
    /// a *late* watermark (one at or below the current promise, or NaN):
    /// watermarks are monotone, so a restarted source replaying an older
    /// promise cannot drag the frontier backwards. An equal re-promise is
    /// an idempotent no-op and also returns `false` (nothing advanced).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn advance(&mut self, source: usize, watermark_secs: f64) -> bool {
        if !(watermark_secs > self.watermarks[source]) {
            return false; // late, equal, or NaN: rejected
        }
        self.watermarks[source] = watermark_secs;
        self.frontier = self
            .watermarks
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        true
    }

    /// Marks `source` complete: its watermark jumps to infinity and it
    /// can never hold the frontier again. Returns `false` if it was
    /// already finished.
    pub fn finish(&mut self, source: usize) -> bool {
        self.advance(source, f64::INFINITY)
    }

    /// The release frontier: the minimum watermark over all sources.
    /// Events at or below it are safe to pop in globally sorted order.
    pub fn frontier(&self) -> f64 {
        self.frontier
    }

    /// `source`'s current watermark.
    pub fn watermark(&self, source: usize) -> f64 {
        self.watermarks[source]
    }

    /// Pops the earliest buffered event if it is at or below the
    /// frontier; `None` when nothing is ready yet.
    pub fn pop_ready(&mut self) -> Option<T> {
        if self
            .heap
            .peek()
            .is_some_and(|p| p.key.time_secs <= self.frontier)
        {
            return self.heap.pop().map(|p| p.value);
        }
        None
    }

    /// Pops the earliest buffered event regardless of the frontier — the
    /// final flush once every source has hung up.
    pub fn pop_any(&mut self) -> Option<T> {
        self.heap.pop().map(|p| p.value)
    }

    /// The key of the earliest buffered event, ready or not — lets a
    /// caller interleave its own timestamped actions (e.g. restart
    /// arbitration) with the release stream without popping blind.
    pub fn peek_key(&self) -> Option<MergeKey> {
        self.heap.peek().map(|p| p.key)
    }

    /// Pops the earliest buffered event only if it is ready *and* at or
    /// below `limit_secs` — [`pop_ready`](Self::pop_ready) with an extra
    /// ceiling, for releasing history up to an arbitration point while
    /// holding everything after it.
    pub fn pop_ready_until(&mut self, limit_secs: f64) -> Option<T> {
        if self
            .heap
            .peek()
            .is_some_and(|p| p.key.time_secs <= self.frontier && p.key.time_secs <= limit_secs)
        {
            return self.heap.pop().map(|p| p.value);
        }
        None
    }

    /// Buffered (not yet released) event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterates the buffered events in unspecified order (with their
    /// keys) — for snapshot encoding, which sorts by key itself.
    pub fn iter(&self) -> impl Iterator<Item = (&MergeKey, &T)> {
        self.heap.iter().map(|p| (&p.key, &p.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time_secs: f64, lane: u64, seq: u64) -> MergeKey {
        MergeKey {
            time_secs,
            lane,
            seq,
        }
    }

    #[test]
    fn releases_in_time_order_across_sources() {
        let mut m: WatermarkMerger<u32> = WatermarkMerger::new(2);
        m.push(key(30.0, 0, 1), 30);
        m.push(key(10.0, 1, 1), 10);
        m.push(key(20.0, 0, 2), 20);
        assert!(m.pop_ready().is_none(), "nothing promised yet");
        assert!(m.advance(0, 35.0));
        assert!(m.pop_ready().is_none(), "source 1 still at -inf");
        assert!(m.advance(1, 25.0));
        assert_eq!(m.frontier(), 25.0);
        assert_eq!(m.pop_ready(), Some(10));
        assert_eq!(m.pop_ready(), Some(20));
        assert_eq!(m.pop_ready(), None, "30.0 above the 25.0 frontier");
        assert!(m.finish(1));
        assert_eq!(m.frontier(), 35.0);
        assert_eq!(m.pop_ready(), Some(30));
        assert!(m.is_empty());
    }

    #[test]
    fn ties_break_by_lane_then_seq() {
        let mut m: WatermarkMerger<&str> = WatermarkMerger::new(1);
        // Same timestamp everywhere: lane decides, then emission seq.
        m.push(key(5.0, 2, 1), "lane2");
        m.push(key(5.0, 1, 9), "lane1-late");
        m.push(key(5.0, 1, 3), "lane1-early");
        m.finish(0);
        assert_eq!(m.pop_ready(), Some("lane1-early"));
        assert_eq!(m.pop_ready(), Some("lane1-late"));
        assert_eq!(m.pop_ready(), Some("lane2"));
    }

    #[test]
    fn late_watermarks_are_rejected() {
        let mut m: WatermarkMerger<u32> = WatermarkMerger::new(2);
        assert!(m.advance(0, 50.0));
        assert!(m.advance(1, 40.0));
        assert_eq!(m.frontier(), 40.0);
        // A restarted source re-advertising an older promise must not
        // drag the frontier back.
        assert!(!m.advance(1, 10.0), "regression rejected");
        assert_eq!(m.watermark(1), 40.0);
        assert_eq!(m.frontier(), 40.0);
        assert!(!m.advance(1, 40.0), "equal re-promise is a no-op");
        assert!(!m.advance(1, f64::NAN), "NaN rejected");
        assert_eq!(m.frontier(), 40.0);
        // Events above the un-regressed frontier stay held.
        m.push(key(45.0, 0, 1), 45);
        assert!(m.pop_ready().is_none());
        assert!(m.advance(1, 60.0), "a genuine advance still works");
        assert_eq!(m.pop_ready(), Some(45));
    }

    #[test]
    fn finished_sources_never_hold_the_frontier() {
        let mut m: WatermarkMerger<u32> = WatermarkMerger::new(3);
        assert!(m.finish(0));
        assert!(!m.finish(0), "double-finish is a no-op");
        assert!(m.finish(1));
        m.push(key(100.0, 7, 1), 1);
        assert!(m.pop_ready().is_none(), "source 2 still open");
        assert!(m.advance(2, 99.0));
        assert!(m.pop_ready().is_none());
        assert!(m.finish(2));
        assert_eq!(m.frontier(), f64::INFINITY);
        assert_eq!(m.pop_ready(), Some(1));
    }

    #[test]
    fn pop_ready_until_holds_events_past_the_ceiling() {
        let mut m: WatermarkMerger<u32> = WatermarkMerger::new(1);
        m.push(key(10.0, 0, 1), 10);
        m.push(key(20.0, 0, 2), 20);
        m.push(key(30.0, 0, 3), 30);
        assert_eq!(m.peek_key(), Some(key(10.0, 0, 1)));
        assert!(
            m.pop_ready_until(f64::INFINITY).is_none(),
            "not ready: watermark still at -inf"
        );
        assert!(m.advance(0, 25.0));
        assert_eq!(m.pop_ready_until(15.0), Some(10));
        assert_eq!(m.pop_ready_until(15.0), None, "20.0 above the ceiling");
        assert_eq!(m.pop_ready_until(20.0), Some(20));
        assert_eq!(
            m.pop_ready_until(f64::INFINITY),
            None,
            "30.0 above the 25.0 frontier even with no ceiling"
        );
        assert_eq!(m.peek_key(), Some(key(30.0, 0, 3)));
    }

    #[test]
    fn pop_any_drains_in_key_order() {
        let mut m: WatermarkMerger<u32> = WatermarkMerger::new(2);
        m.push(key(3.0, 0, 1), 3);
        m.push(key(1.0, 1, 1), 1);
        m.push(key(2.0, 0, 2), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(m.pop_any(), Some(1));
        assert_eq!(m.pop_any(), Some(2));
        assert_eq!(m.pop_any(), Some(3));
        assert_eq!(m.pop_any(), None);
    }
}
