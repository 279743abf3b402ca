//! In-memory span recording around the benchmark's calls into each
//! layer, and the self-time arithmetic the per-layer ledger uses.
//!
//! A span is `(name, start, end, parent)`; spans opened under the same
//! pass share its trace id. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover. Spans stay in
//! memory until the run ends and are then written out as one JSON file.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies an open or closed span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Disabled recorders read no clock and keep
/// nothing, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this recorder hands out, so recorders of
    /// different threads can be merged without collisions.
    tag: u64,
    trace: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tag: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            tag: tag << 40,
            trace: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A recorder for another thread sharing this one's clock and
    /// switch.
    pub fn fork(&self, tag: u64) -> Tracer {
        Tracer::new(self.enabled, self.epoch, tag)
    }

    /// Spans opened from now on belong to trace `trace` (one per pass).
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        let id = self.tag | (self.spans.len() as u64 + 1);
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.0,
            trace: self.trace,
            name,
            start_ns: now,
            end_ns: now,
        });
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.enabled || id == SpanId::ROOT {
            return;
        }
        let now = self.now_ns();
        let index = (id.0 & ((1 << 40) - 1)) as usize - 1;
        self.spans[index].end_ns = now;
    }

    /// Takes another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time per span name, nanoseconds: each span's duration minus the
/// union of its children's intervals (clipped to the parent's own
/// interval), summed over the spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *out.entry(s.name).or_default() += duration.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "send", 10, 30),
            span(3, 1, "flush", 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 70);
        assert_eq!(t["send"], 20);
        assert_eq!(t["flush"], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),
            span(4, 1, "c", 45, 45),
        ];
        assert_eq!(self_times(&spans)["pass"], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, 0, "pass", 20, 60),
            span(2, 1, "early", 0, 30),
            span(3, 1, "late", 50, 90),
        ];
        assert_eq!(self_times(&spans)["pass"], 20);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "send", 0, 50),
            span(3, 2, "encode", 0, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 50);
        assert_eq!(t["send"], 30);
        assert_eq!(t["encode"], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 1);
        let id = tr.open("x", SpanId::ROOT);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn forked_tracers_merge_without_id_collisions() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 1);
        let mut b = a.fork(2);
        let pa = a.open("pass", SpanId::ROOT);
        let pb = b.open("reader", SpanId::ROOT);
        b.close(pb);
        a.close(pa);
        a.absorb(b);
        let ids: Vec<u64> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }
}
