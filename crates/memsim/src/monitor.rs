//! The performance monitor: periodic sampling of system counters into
//! time series, mirroring the collector the target paper ran on its
//! testbed machines.

use crate::memory::CrashCause;
use crate::units::{Bytes, SimTime};
use aging_timeseries::{Error, Result, TimeSeries};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The counters the monitor records each sampling period.
///
/// `AvailableBytes` and `UsedSwapBytes` are the two resources the target
/// paper analysed; the others provide context and extra experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Counter {
    /// Free real memory (the paper's primary signal).
    AvailableBytes,
    /// Used swap space (the paper's second signal).
    UsedSwapBytes,
    /// Total commit charge.
    CommittedBytes,
    /// Live (non-leaked) workload heap.
    LiveHeapBytes,
    /// Page faults per second.
    PageFaultsPerSec,
    /// Leaked handle count.
    HandleCount,
    /// Workload allocation rate, bytes/second.
    AllocRateBytesPerSec,
}

impl Counter {
    /// All counters, in display order. A counter's position here is its
    /// code on the wire, in journals and in persisted alarm histories
    /// ([`Counter::code`]), so the order is part of those formats.
    pub const ALL: [Counter; 7] = [
        Counter::AvailableBytes,
        Counter::UsedSwapBytes,
        Counter::CommittedBytes,
        Counter::LiveHeapBytes,
        Counter::PageFaultsPerSec,
        Counter::HandleCount,
        Counter::AllocRateBytesPerSec,
    ];

    /// The counter's code: its index in [`Counter::ALL`], which lists the
    /// counters in declaration order.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The counter with code `code`, `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Counter> {
        Counter::ALL.get(usize::from(code)).copied()
    }

    /// The counter's display name (`available_bytes`, …).
    fn name(self) -> &'static str {
        match self {
            Counter::AvailableBytes => "available_bytes",
            Counter::UsedSwapBytes => "used_swap_bytes",
            Counter::CommittedBytes => "committed_bytes",
            Counter::LiveHeapBytes => "live_heap_bytes",
            Counter::PageFaultsPerSec => "page_faults_per_sec",
            Counter::HandleCount => "handle_count",
            Counter::AllocRateBytesPerSec => "alloc_rate_bytes_per_sec",
        }
    }

    /// The counter with display name `name`, `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sample row (all counters at one instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample timestamp.
    pub time: SimTime,
    /// Free real memory.
    pub available: Bytes,
    /// Used swap.
    pub used_swap: Bytes,
    /// Commit charge.
    pub committed: Bytes,
    /// Live workload heap.
    pub live_heap: Bytes,
    /// Page faults per second.
    pub page_faults_per_sec: f64,
    /// Handle count.
    pub handle_count: u64,
    /// Allocation rate (bytes/second) over the last period.
    pub alloc_rate: f64,
}

impl Sample {
    /// The value of one counter in this row — the single source of truth
    /// for the counter ↔ field mapping (used by [`MonitorLog::record`] and
    /// by live feeds such as `aging-stream`'s machine source).
    pub fn value(&self, counter: Counter) -> f64 {
        match counter {
            Counter::AvailableBytes => self.available.as_f64(),
            Counter::UsedSwapBytes => self.used_swap.as_f64(),
            Counter::CommittedBytes => self.committed.as_f64(),
            Counter::LiveHeapBytes => self.live_heap.as_f64(),
            Counter::PageFaultsPerSec => self.page_faults_per_sec,
            Counter::HandleCount => self.handle_count as f64,
            Counter::AllocRateBytesPerSec => self.alloc_rate,
        }
    }
}

/// A crash event observed by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// When the machine died.
    pub time: SimTime,
    /// Why it died.
    pub cause: CrashCause,
}

/// The complete log of one monitored run: per-counter time series plus
/// crash events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorLog {
    sample_period: f64,
    samples: BTreeMap<Counter, Vec<f64>>,
    crashes: Vec<CrashEvent>,
}

impl MonitorLog {
    /// Creates an empty log with the given sampling period (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive period.
    pub fn new(sample_period: f64) -> Result<Self> {
        if !(sample_period > 0.0 && sample_period.is_finite()) {
            return Err(Error::invalid(
                "sample_period",
                "must be finite and positive",
            ));
        }
        let samples = Counter::ALL.iter().map(|&c| (c, Vec::new())).collect();
        Ok(MonitorLog {
            sample_period,
            samples,
            crashes: Vec::new(),
        })
    }

    /// Sampling period in seconds.
    pub fn sample_period(&self) -> f64 {
        self.sample_period
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples
            .get(&Counter::AvailableBytes)
            .map_or(0, Vec::len)
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one sample row.
    pub fn record(&mut self, s: &Sample) {
        for c in Counter::ALL {
            self.samples.entry(c).or_default().push(s.value(c));
        }
    }

    /// Records a crash event.
    pub fn record_crash(&mut self, event: CrashEvent) {
        self.crashes.push(event);
    }

    /// The crash events, in time order.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.crashes
    }

    /// Raw values of one counter.
    pub fn values(&self, counter: Counter) -> &[f64] {
        self.samples.get(&counter).map_or(&[], Vec::as_slice)
    }

    /// Serialises the full log (all counters + crash events) to JSON, so
    /// simulated campaigns can be archived and re-analysed without
    /// re-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] wrapping serialisation failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::Numerical(format!("monitor json: {e}")))
    }

    /// Restores a log saved by [`MonitorLog::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] wrapping parse failures.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::Numerical(format!("monitor json: {e}")))
    }

    /// One counter as a [`TimeSeries`] anchored at time 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when no samples were recorded.
    pub fn series(&self, counter: Counter) -> Result<TimeSeries> {
        let values = self.values(counter);
        if values.is_empty() {
            return Err(Error::Empty);
        }
        TimeSeries::from_values(0.0, self.sample_period, values.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_codes_and_names_round_trip() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(c.code()), i);
            assert_eq!(Counter::from_code(c.code()), Some(c));
            assert_eq!(Counter::from_name(&c.to_string()), Some(c));
        }
        assert_eq!(Counter::from_code(Counter::ALL.len() as u8), None);
        assert_eq!(Counter::from_name("no_such_counter"), None);
    }

    fn sample(t: f64, avail_mib: u64) -> Sample {
        Sample {
            time: SimTime::from_secs(t),
            available: Bytes::mib(avail_mib),
            used_swap: Bytes::mib(1),
            committed: Bytes::mib(100),
            live_heap: Bytes::mib(40),
            page_faults_per_sec: 3.5,
            handle_count: 120,
            alloc_rate: 5e5,
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut log = MonitorLog::new(30.0).unwrap();
        assert!(log.is_empty());
        log.record(&sample(0.0, 50));
        log.record(&sample(30.0, 48));
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.values(Counter::AvailableBytes),
            &[Bytes::mib(50).as_f64(), Bytes::mib(48).as_f64()]
        );
        assert_eq!(log.values(Counter::HandleCount), &[120.0, 120.0]);
    }

    #[test]
    fn series_carries_sampling_grid() {
        let mut log = MonitorLog::new(30.0).unwrap();
        log.record(&sample(0.0, 50));
        log.record(&sample(30.0, 48));
        let ts = log.series(Counter::AvailableBytes).unwrap();
        assert_eq!(ts.dt(), 30.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.time_at(1), 30.0);
    }

    #[test]
    fn empty_series_is_error() {
        let log = MonitorLog::new(30.0).unwrap();
        assert!(log.series(Counter::UsedSwapBytes).is_err());
        assert_eq!(log.values(Counter::UsedSwapBytes), &[] as &[f64]);
    }

    #[test]
    fn crash_events_accumulate() {
        let mut log = MonitorLog::new(5.0).unwrap();
        log.record_crash(CrashEvent {
            time: SimTime::from_secs(100.0),
            cause: CrashCause::OutOfMemory,
        });
        assert_eq!(log.crashes().len(), 1);
        assert_eq!(log.crashes()[0].cause, CrashCause::OutOfMemory);
    }

    #[test]
    fn invalid_period_rejected() {
        assert!(MonitorLog::new(0.0).is_err());
        assert!(MonitorLog::new(f64::NAN).is_err());
    }

    #[test]
    fn json_round_trip() {
        let mut log = MonitorLog::new(30.0).unwrap();
        log.record(&sample(0.0, 50));
        log.record(&sample(30.0, 48));
        log.record_crash(CrashEvent {
            time: SimTime::from_secs(60.0),
            cause: CrashCause::Thrashing,
        });
        let json = log.to_json().unwrap();
        let back = MonitorLog::from_json(&json).unwrap();
        assert_eq!(log, back);
        assert!(MonitorLog::from_json("not json").is_err());
    }

    #[test]
    fn counter_names_are_snake_case() {
        for c in Counter::ALL {
            let name = c.to_string();
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
        }
    }
}
