//! Ingestion sources: where streamed counter samples come from.
//!
//! Every source yields timestamped raw samples through the pull-based
//! [`SampleSource`] trait; defect handling (NaN, gaps, reordering) is the
//! job of the downstream [`crate::gate::SampleGate`], so sources stay
//! faithful to what the underlying feed actually produced.

use aging_memsim::{Counter, Machine, Scenario, Tick};
use aging_timeseries::csv::{CsvDefects, CsvTable};
use aging_timeseries::{Error, Result};

/// One timestamped counter reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSample {
    /// Sample time in seconds (source-defined epoch).
    pub time_secs: f64,
    /// Counter value (may be NaN for a recorded gap — gates repair it).
    pub value: f64,
}

/// A pull-based stream of counter samples.
///
/// `next_sample` returns `Ok(None)` when the stream is exhausted (end of
/// file, crashed machine, closed feed). Sources are infallible on defects
/// *within* samples — a recorded NaN is returned as-is for the gate to
/// judge — and error only on structural failures (unreadable file, bad
/// column).
pub trait SampleSource {
    /// Short stable identifier for telemetry and logs.
    fn name(&self) -> &str;

    /// Pulls the next sample.
    ///
    /// # Errors
    ///
    /// Source-specific structural failures (I/O, malformed tables).
    fn next_sample(&mut self) -> Result<Option<StreamSample>>;
}

impl std::fmt::Debug for dyn SampleSource + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SampleSource({})", self.name())
    }
}

/// Rewrites raw samples between a source and the defect gate.
///
/// A perturber sees each sample exactly once, in feed order, and pushes
/// zero or more samples into `out`: zero models a dropout, one a
/// (possibly corrupted) pass-through, several a duplicate or replay
/// burst. The supervisor installs one perturber per counter stream (see
/// [`crate::supervisor::FleetConfig::perturb`]), downstream of the
/// machine clock — so event timestamps keep the *true* machine time and
/// watermark ordering is never at the mercy of an injected clock defect.
///
/// Implementations must be deterministic for a fixed construction seed:
/// the differential chaos harness replays the same plan across thread
/// counts and asserts bit-identical streams.
pub trait SamplePerturber: Send {
    /// Transforms one raw sample into zero or more perturbed samples.
    fn perturb(&mut self, raw: StreamSample, out: &mut Vec<StreamSample>);
}

/// Replays one column of a recorded CSV table against its time column —
/// the offline-trace ingestion path (reuses [`aging_timeseries::csv`]).
#[derive(Debug, Clone)]
pub struct CsvReplaySource {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
    cursor: usize,
}

impl CsvReplaySource {
    /// Builds a replay source from a parsed table and two column names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown columns and
    /// [`Error::LengthMismatch`] if the table is ragged.
    pub fn new(table: &CsvTable, time_column: &str, value_column: &str) -> Result<Self> {
        let ti = table
            .column_index(time_column)
            .ok_or_else(|| Error::invalid("time_column", format!("no column `{time_column}`")))?;
        let vi = table
            .column_index(value_column)
            .ok_or_else(|| Error::invalid("value_column", format!("no column `{value_column}`")))?;
        let times = table.columns[ti].clone();
        let values = table.columns[vi].clone();
        if times.len() != values.len() {
            return Err(Error::LengthMismatch {
                left: times.len(),
                right: values.len(),
            });
        }
        Ok(CsvReplaySource {
            name: format!("csv:{value_column}"),
            times,
            values,
            cursor: 0,
        })
    }

    /// Parses CSV text and builds a replay source in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`aging_timeseries::csv::read_csv`] and
    /// [`CsvReplaySource::new`] failures.
    pub fn from_csv_str(text: &str, time_column: &str, value_column: &str) -> Result<Self> {
        let table = aging_timeseries::csv::read_csv(text.as_bytes())?;
        CsvReplaySource::new(&table, time_column, value_column)
    }

    /// Parses structurally damaged CSV text with the lossy reader and
    /// builds a replay source from the surviving rows, reporting what was
    /// skipped (see [`aging_timeseries::csv::read_csv_lossy`]).
    ///
    /// # Errors
    ///
    /// Propagates [`aging_timeseries::csv::read_csv_lossy`] and
    /// [`CsvReplaySource::new`] failures.
    pub fn from_csv_str_lossy(
        text: &str,
        time_column: &str,
        value_column: &str,
    ) -> Result<(Self, CsvDefects)> {
        let (table, defects) = aging_timeseries::csv::read_csv_lossy(text.as_bytes())?;
        Ok((
            CsvReplaySource::new(&table, time_column, value_column)?,
            defects,
        ))
    }

    /// Samples remaining to replay.
    pub fn remaining(&self) -> usize {
        self.times.len() - self.cursor
    }
}

impl SampleSource for CsvReplaySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_sample(&mut self) -> Result<Option<StreamSample>> {
        if self.cursor >= self.times.len() {
            return Ok(None);
        }
        let s = StreamSample {
            time_secs: self.times[self.cursor],
            value: self.values[self.cursor],
        };
        self.cursor += 1;
        Ok(Some(s))
    }
}

/// Live feed from a simulated [`Machine`]: steps the simulation until its
/// monitor publishes the next sample of the chosen counter.
///
/// The stream ends (`Ok(None)`) when the machine crashes or the configured
/// horizon is reached — exactly how a real exporter behaves when its host
/// dies.
#[derive(Debug)]
pub struct MachineSource {
    name: String,
    machine: Machine,
    counter: Counter,
    horizon_secs: f64,
    finished: bool,
}

impl MachineSource {
    /// Boots `scenario` and streams `counter` until `horizon_secs` of
    /// simulated time or a crash.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::boot`] failures and rejects a non-positive
    /// horizon.
    pub fn new(scenario: &Scenario, counter: Counter, horizon_secs: f64) -> Result<Self> {
        if !(horizon_secs > 0.0) {
            return Err(Error::invalid("horizon_secs", "must be positive"));
        }
        Ok(MachineSource {
            name: format!("machine:{}:{counter}", scenario.name),
            machine: Machine::boot(scenario)?,
            counter,
            horizon_secs,
            finished: false,
        })
    }

    /// The machine being stepped (e.g. to inspect crash state afterwards).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl SampleSource for MachineSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_sample(&mut self) -> Result<Option<StreamSample>> {
        if self.finished {
            return Ok(None);
        }
        match self.machine.next_sample(self.horizon_secs) {
            Tick::Sample(sample) => Ok(Some(StreamSample {
                time_secs: sample.time.as_secs(),
                value: sample.value(self.counter),
            })),
            // A crash kills the feed with the machine.
            Tick::Crash(_) | Tick::Horizon => {
                self.finished = true;
                Ok(None)
            }
        }
    }
}

/// Which live Linux memory statistic a [`ProcSource`] reads.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcCounter {
    /// `MemAvailable` from `/proc/meminfo`, in bytes.
    MemAvailableBytes,
    /// `SwapTotal − SwapFree` from `/proc/meminfo`, in bytes.
    UsedSwapBytes,
    /// `Committed_AS` from `/proc/meminfo`, in bytes.
    CommittedBytes,
    /// Cumulative `pgfault` count from `/proc/vmstat`.
    PageFaults,
}

/// Samples the local kernel's memory counters from `/proc/meminfo` and
/// `/proc/vmstat` — the "this actual machine" ingestion path.
///
/// Each `next_sample` call performs one read; pacing (one sample every
/// N seconds) belongs to the caller's scheduler, keeping the source
/// non-blocking. Timestamps are monotonic seconds since source creation.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct ProcSource {
    name: String,
    counter: ProcCounter,
    started: std::time::Instant,
}

#[cfg(target_os = "linux")]
impl ProcSource {
    /// Creates a sampler for one `/proc` counter.
    pub fn new(counter: ProcCounter) -> Self {
        ProcSource {
            name: format!("proc:{counter:?}"),
            counter,
            started: std::time::Instant::now(),
        }
    }

    /// Parses `key: value [kB]` lines from a `/proc` pseudo-file, in the
    /// requested unit (kB entries are converted to bytes).
    fn read_field(path: &str, key: &str, kb: bool) -> Result<f64> {
        let text =
            std::fs::read_to_string(path).map_err(|e| Error::Io(format!("read {path}: {e}")))?;
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let Some(name) = parts.next() else { continue };
            if name.trim_end_matches(':') != key {
                continue;
            }
            let Some(value) = parts.next() else { continue };
            let v: f64 = value
                .parse()
                .map_err(|e| Error::Numerical(format!("parse {key} in {path}: {e}")))?;
            return Ok(if kb { v * 1024.0 } else { v });
        }
        Err(Error::Numerical(format!("{key} not found in {path}")))
    }

    fn read_counter(counter: ProcCounter) -> Result<f64> {
        const MEMINFO: &str = "/proc/meminfo";
        const VMSTAT: &str = "/proc/vmstat";
        match counter {
            ProcCounter::MemAvailableBytes => Self::read_field(MEMINFO, "MemAvailable", true),
            ProcCounter::UsedSwapBytes => {
                let total = Self::read_field(MEMINFO, "SwapTotal", true)?;
                let free = Self::read_field(MEMINFO, "SwapFree", true)?;
                Ok(total - free)
            }
            ProcCounter::CommittedBytes => Self::read_field(MEMINFO, "Committed_AS", true),
            ProcCounter::PageFaults => Self::read_field(VMSTAT, "pgfault", false),
        }
    }
}

#[cfg(target_os = "linux")]
impl SampleSource for ProcSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_sample(&mut self) -> Result<Option<StreamSample>> {
        let value = Self::read_counter(self.counter)?;
        Ok(Some(StreamSample {
            time_secs: self.started.elapsed().as_secs_f64(),
            value,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_replay_yields_rows_in_order() {
        let text = "time,free\n0,100\n30,95\n60,not-a-number\n90,85\n";
        let mut src = CsvReplaySource::from_csv_str(text, "time", "free").unwrap();
        assert_eq!(src.name(), "csv:free");
        assert_eq!(src.remaining(), 4);
        let a = src.next_sample().unwrap().unwrap();
        assert_eq!((a.time_secs, a.value), (0.0, 100.0));
        let b = src.next_sample().unwrap().unwrap();
        assert_eq!((b.time_secs, b.value), (30.0, 95.0));
        // Non-numeric cells surface as NaN for the gate to handle.
        assert!(src.next_sample().unwrap().unwrap().value.is_nan());
        assert_eq!(src.next_sample().unwrap().unwrap().value, 85.0);
        assert!(src.next_sample().unwrap().is_none());
        assert!(src.next_sample().unwrap().is_none());
    }

    #[test]
    fn csv_replay_lossy_survives_truncated_rows() {
        // Row `60` was truncated mid-write; the strict path refuses it,
        // the lossy path replays around it and reports the damage.
        let text = "time,free\n0,100\n30,95\n60\n90,85\n";
        assert!(CsvReplaySource::from_csv_str(text, "time", "free").is_err());
        let (mut src, defects) = CsvReplaySource::from_csv_str_lossy(text, "time", "free").unwrap();
        assert_eq!(defects.ragged_rows, 1);
        assert_eq!(src.remaining(), 3);
        let mut times = Vec::new();
        while let Some(s) = src.next_sample().unwrap() {
            times.push(s.time_secs);
        }
        assert_eq!(times, vec![0.0, 30.0, 90.0]);
    }

    #[test]
    fn csv_replay_rejects_unknown_columns() {
        let text = "time,free\n0,1\n";
        assert!(CsvReplaySource::from_csv_str(text, "time", "nope").is_err());
        assert!(CsvReplaySource::from_csv_str(text, "nope", "free").is_err());
    }

    #[test]
    fn machine_source_streams_monitor_samples() {
        let scenario = Scenario::tiny_aging(3, 0.0);
        let mut src = MachineSource::new(&scenario, Counter::AvailableBytes, 600.0).unwrap();
        let mut times = Vec::new();
        while let Some(s) = src.next_sample().unwrap() {
            assert!(s.value > 0.0);
            times.push(s.time_secs);
        }
        assert!(times.len() >= 100, "{} samples", times.len());
        // Strictly increasing sample clock.
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        // Horizon respected.
        assert!(times.last().unwrap() <= &600.0);
        // Exhausted stays exhausted.
        assert!(src.next_sample().unwrap().is_none());
    }

    #[test]
    fn machine_source_ends_at_crash() {
        // An aggressive leak on the tiny machine crashes well inside 6 h.
        let scenario = Scenario::tiny_aging(5, 192.0);
        let mut src = MachineSource::new(&scenario, Counter::AvailableBytes, 6.0 * 3600.0).unwrap();
        let mut n = 0usize;
        while src.next_sample().unwrap().is_some() {
            n += 1;
        }
        assert!(src.machine().is_crashed());
        assert!(n > 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_source_reads_live_kernel_counters() {
        let mut src = ProcSource::new(ProcCounter::MemAvailableBytes);
        let a = src.next_sample().unwrap().unwrap();
        assert!(a.value > 0.0, "MemAvailable {}", a.value);
        let mut faults = ProcSource::new(ProcCounter::PageFaults);
        let f1 = faults.next_sample().unwrap().unwrap();
        assert!(f1.value >= 0.0);
        let f2 = faults.next_sample().unwrap().unwrap();
        assert!(f2.value >= f1.value, "pgfault is cumulative");
        assert!(f2.time_secs >= f1.time_secs);
    }
}
