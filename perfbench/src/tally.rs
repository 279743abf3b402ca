//! What a run's passes accumulate, shared by the wire and in-process
//! workloads.

use std::time::{Duration, Instant};

/// Per-run accumulation over every measured pass.
#[derive(Debug, Default)]
pub struct Tally {
    /// Records every pass (warm-up included) tried to ingest.
    pub attempted: u64,
    /// Records sent but never acked as accepted.
    pub unacked: u64,
    /// Records the server refused (unknown counter code).
    pub refused: u64,
    /// Records of passes whose session was quarantined.
    pub quarantined_records: u64,
    /// Passes whose alarm history differed from the offline reference.
    pub mismatches: u64,
    /// Closed-loop ingest rate of each untraced pass, records/s.
    pub closed_rates: Vec<f64>,
    /// Closed-loop ingest rate of each traced pass, records/s.
    pub traced_rates: Vec<f64>,
    /// Records and wall time of the traced closed-loop passes.
    pub traced_records: u64,
    pub traced_wall_s: f64,
    /// Clock at the start and after each step of every untraced
    /// closed-loop pass, seconds from the pass's start.
    pub closed_marks: Vec<Vec<f64>>,
    /// Ack latency of each batch with one in flight (wire) or of each
    /// ingest call (in process), µs: one vector per pass, in plan order.
    pub acks: Vec<Vec<f64>>,
    /// Paced phase: ack latency from each batch's due time, µs.
    pub paced_ack_us: Vec<f64>,
    /// Paced phase: how late the generator issued each batch, µs.
    pub gen_late_us: Vec<f64>,
    /// Frames due by a paced pass's scheduled end but unacked then, at
    /// worst over the paced passes.
    pub backlog_frames_end: u64,
    /// Reader round trips beside the one-in-flight loop (wire) or read
    /// waits (in process), µs: one vector per pass, in the order taken.
    pub queries: Vec<Vec<f64>>,
    /// Alarm send-to-visibility latency seen by the reader, ms.
    pub visible_ms: Vec<f64>,
    /// Client-side frame accounting.
    pub frames_sent: u64,
    pub busy_frames: u64,
    /// Server-side counters summed over passes.
    pub server_frames: u64,
    pub server_malformed: u64,
    pub server_quarantined: u64,
    pub server_session_panics: u64,
    /// Journal volume and snapshots summed over passes.
    pub journal_bytes: u64,
    pub journal_records: u64,
    pub snapshots: u64,
}

impl Tally {
    /// Every ack latency, in the order taken.
    pub fn ack_us(&self) -> Vec<f64> {
        self.acks.concat()
    }

    /// Every query latency, in the order taken.
    pub fn query_us(&self) -> Vec<f64> {
        self.queries.concat()
    }

    /// Failed operations: unacked, refused and quarantined records plus
    /// mismatched alarm histories.
    pub fn failed(&self) -> u64 {
        self.unacked + self.refused + self.quarantined_records + self.mismatches
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps until shortly before `due`, then spins the rest, so a paced
/// generator is not late by the timer slack of one sleep.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Resident set size of this process, MiB.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
