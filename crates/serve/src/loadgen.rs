//! Load generator: drives N concurrent synthetic machines from memsim
//! scenarios into a running server.
//!
//! Each worker thread owns one [`ServeClient`] connection and a slice of
//! the fleet's [`ScenarioFeeder`]s, interleaving their ticks into record
//! batches at a configurable aggregate rate. A separate poller
//! connection repeatedly fetches the released alarm history, measuring
//! how long an alarm takes to become visible after the sample that made
//! it decidable was sent (send-to-visibility latency; its floor is the
//! poll interval).
//!
//! With [`drive`], machine ids are the scenario indices, so the report's
//! alarm history is directly comparable with an offline
//! [`FleetSupervisor`](aging_stream::supervisor::FleetSupervisor) run
//! over the same scenario slice — the E14 parity setup. A sharded
//! cluster partitions one global fleet across several servers, so each
//! shard's driver publishes under the *global* ids of the machines it
//! owns via [`drive_with_ids`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aging_memsim::{Counter, Machine, Scenario, Tick};
use aging_stream::telemetry::LatencyHistogram;
use aging_timeseries::{Error, Result};

use crate::client::ServeClient;
use crate::protocol::{Record, ServeEvent};

/// How the feeders frame records on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Per-record `Batch` frames (protocol v1).
    #[default]
    Record,
    /// Columnar `BatchColumnar` frames (protocol v2): delta-encoded
    /// per-counter columns.
    Columnar,
}

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent feeder connections; machines are dealt round-robin.
    pub connections: usize,
    /// Records per batch frame.
    pub batch_records: usize,
    /// Aggregate record rate across all connections; `0.0` = unthrottled.
    pub rate_records_per_sec: f64,
    /// Alarm poll interval for the visibility poller; `0` disables it.
    pub poll_alarms_ms: u64,
    /// Counters shipped per tick, in detector order. Empty = all
    /// counters. Must cover the server's detector set for parity runs.
    pub counters: Vec<Counter>,
    /// Wire framing: per-record batches or v2 columnar batches.
    pub mode: BatchMode,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 4,
            batch_records: 64,
            rate_records_per_sec: 0.0,
            poll_alarms_ms: 50,
            counters: Vec::new(),
            mode: BatchMode::Record,
        }
    }
}

impl LoadgenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on zero connections or batch
    /// size, or a negative rate.
    pub fn validate(&self) -> Result<()> {
        if self.connections == 0 {
            return Err(Error::invalid("connections", "must be at least 1"));
        }
        if self.batch_records == 0 {
            return Err(Error::invalid("batch_records", "must be at least 1"));
        }
        if self.rate_records_per_sec < 0.0 || !self.rate_records_per_sec.is_finite() {
            return Err(Error::invalid(
                "rate_records_per_sec",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// What a load-generation run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Records sent across all connections.
    pub records_sent: u64,
    /// Records the server acked as accepted.
    pub records_accepted: u64,
    /// Batch frames sent.
    pub batches: u64,
    /// Wall-clock duration of the feeding phase, seconds.
    pub wall_secs: f64,
    /// Ack round-trip latency (one sample per batch) — the ingest
    /// latency a feeder observes.
    pub ack_rtt: LatencyHistogram,
    /// Send-to-visibility latency for released alarms, as seen by the
    /// poller. Empty when polling is disabled.
    pub alarm_visibility: LatencyHistogram,
    /// Visibility observations whose clock pair was inverted (the poll
    /// instant predated the recorded send instant, so the measurement
    /// was clamped to zero rather than silently folded into the
    /// histogram's lowest bucket). A non-zero count means the
    /// `alarm_visibility` floor is measurement noise, not real latency.
    pub visibility_clamped: u64,
    /// Advisory `Busy` frames received across connections.
    pub busy_frames: u64,
    /// The complete released alarm history fetched after all feeds
    /// finished (every machine done ⇒ the watermark releases everything).
    pub alarms: Vec<ServeEvent>,
    /// Per machine: simulated crash time, `None` for survivors.
    pub crash_times: Vec<(u64, Option<f64>)>,
}

impl LoadgenReport {
    /// Sustained ingest throughput, records per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.records_sent as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Steps one memsim scenario and turns each monitor tick into wire
/// records — the client-side mirror of the supervisor's machine feed.
#[derive(Debug)]
pub struct ScenarioFeeder {
    machine_id: u64,
    machine: Machine,
    horizon_secs: f64,
    crash_time_secs: Option<f64>,
    finished: bool,
}

impl ScenarioFeeder {
    /// Boots the scenario.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation from [`Machine::boot`].
    pub fn new(machine_id: u64, scenario: &Scenario, horizon_secs: f64) -> Result<ScenarioFeeder> {
        Ok(ScenarioFeeder {
            machine_id,
            machine: Machine::boot(scenario)?,
            horizon_secs,
            crash_time_secs: None,
            finished: false,
        })
    }

    /// The wire machine id this feeder publishes under.
    pub fn machine_id(&self) -> u64 {
        self.machine_id
    }

    /// `true` once the feed ended (crash or horizon).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Simulated crash time, `None` while alive / for survivors.
    pub fn crash_time_secs(&self) -> Option<f64> {
        self.crash_time_secs
    }

    /// Appends one monitor tick (one record per counter, in `counters`
    /// order) to `out`; `false` when the feed just ended.
    pub fn next_tick(&mut self, counters: &[Counter], out: &mut Vec<Record>) -> bool {
        if self.finished {
            return false;
        }
        // The supervisor's shard feed steps by the same rule.
        let sample = match self.machine.next_sample(self.horizon_secs) {
            Tick::Sample(sample) => sample,
            Tick::Crash(crash) => {
                self.crash_time_secs = Some(crash.time.as_secs());
                self.finished = true;
                return false;
            }
            Tick::Horizon => {
                self.finished = true;
                return false;
            }
        };
        let time_secs = sample.time.as_secs();
        for &counter in counters {
            out.push(Record {
                machine_id: self.machine_id,
                counter: counter.code(),
                time_secs,
                value: sample.value(counter),
            });
        }
        true
    }
}

/// Per-machine log of "a batch whose newest tick is T was sent at this
/// wall instant" — what the poller consults to date an alarm's
/// decidability.
type FrontierLog = Mutex<HashMap<u64, Vec<(f64, Instant)>>>;

/// Drives `scenarios` into the server at `addr` and reports throughput,
/// latency and the final alarm history.
///
/// # Errors
///
/// Propagates config validation, scenario boot failures and any
/// connection's socket error.
pub fn drive(
    addr: SocketAddr,
    scenarios: &[Scenario],
    horizon_secs: f64,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport> {
    let machine_ids: Vec<u64> = (0..scenarios.len() as u64).collect();
    drive_with_ids(addr, scenarios, &machine_ids, horizon_secs, cfg)
}

/// [`drive`] with explicit wire machine ids: `scenarios[i]` publishes
/// under `machine_ids[i]` instead of its index.
///
/// This is the shard-local entry point of a cluster fleet drive: the
/// router partitions global machine ids across shards, and each shard's
/// driver replays exactly the scenarios it owns under their global ids,
/// so the aggregator's merged history lines up with a whole-fleet
/// offline run.
///
/// # Errors
///
/// Propagates everything [`drive`] can fail with, plus
/// [`Error::InvalidParameter`] when `machine_ids` and `scenarios`
/// disagree in length or contain a duplicate id.
pub fn drive_with_ids(
    addr: SocketAddr,
    scenarios: &[Scenario],
    machine_ids: &[u64],
    horizon_secs: f64,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport> {
    cfg.validate()?;
    if scenarios.is_empty() {
        return Err(Error::invalid("scenarios", "need at least one machine"));
    }
    if machine_ids.len() != scenarios.len() {
        return Err(Error::invalid(
            "machine_ids",
            "must name exactly one id per scenario",
        ));
    }
    {
        let mut sorted = machine_ids.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::invalid("machine_ids", "ids must be unique"));
        }
    }
    if !(horizon_secs > 0.0) {
        return Err(Error::invalid("horizon_secs", "must be positive"));
    }
    let counters: Vec<Counter> = if cfg.counters.is_empty() {
        Counter::ALL.to_vec()
    } else {
        cfg.counters.clone()
    };

    let workers = cfg.connections.min(scenarios.len());
    // Deal machines round-robin so each connection carries a similar mix.
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for idx in 0..scenarios.len() {
        assignments[idx % workers].push(idx);
    }
    let per_worker_rate = if cfg.rate_records_per_sec > 0.0 {
        cfg.rate_records_per_sec / workers as f64
    } else {
        0.0
    };

    let frontier: FrontierLog = Mutex::new(HashMap::new());
    let feeding_done = AtomicBool::new(false);

    // Both modes simulate every feed up front so the timed wall below
    // measures the wire-and-ingest path alone, never scenario stepping.
    // Columnar has always done this; record mode replays the same
    // pre-generated ticks as v1 frames, so the e14 record baseline is an
    // honest apples-to-apples wire+ingest number.
    let feeds: Vec<MachineFeed> = scenarios
        .iter()
        .zip(machine_ids)
        .map(|(scenario, &id)| generate_feed(id, scenario, horizon_secs, &counters))
        .collect::<Result<Vec<_>>>()?;
    let feeds: &[MachineFeed] = &feeds;
    let started = Instant::now();

    let (worker_results, poll_result) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for machine_indices in &assignments {
            let frontier = &frontier;
            let counters = &counters;
            let handle = match cfg.mode {
                BatchMode::Columnar => scope.spawn(move || {
                    feed_worker_columnar(
                        addr,
                        feeds,
                        machine_indices,
                        counters,
                        cfg.batch_records,
                        per_worker_rate,
                        frontier,
                    )
                }),
                BatchMode::Record => scope.spawn(move || {
                    feed_worker_record(
                        addr,
                        feeds,
                        machine_indices,
                        counters,
                        cfg.batch_records,
                        per_worker_rate,
                        frontier,
                    )
                }),
            };
            handles.push(handle);
        }
        let poller = if cfg.poll_alarms_ms > 0 {
            let frontier = &frontier;
            let feeding_done = &feeding_done;
            let interval = Duration::from_millis(cfg.poll_alarms_ms);
            Some(scope.spawn(move || poll_worker(addr, interval, frontier, feeding_done)))
        } else {
            None
        };
        let worker_results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::Io("feed worker panicked".into())))
            })
            .collect();
        feeding_done.store(true, Ordering::SeqCst);
        let poll_result = poller.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(Error::Io("alarm poller panicked".into())))
        });
        (worker_results, poll_result)
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut report = LoadgenReport {
        records_sent: 0,
        records_accepted: 0,
        batches: 0,
        wall_secs,
        ack_rtt: LatencyHistogram::default(),
        alarm_visibility: LatencyHistogram::default(),
        visibility_clamped: 0,
        busy_frames: 0,
        alarms: Vec::new(),
        crash_times: Vec::new(),
    };
    for result in worker_results {
        let worker = result?;
        report.records_sent += worker.records_sent;
        report.records_accepted += worker.records_accepted;
        report.batches += worker.batches;
        report.ack_rtt.merge(&worker.ack_rtt);
        report.busy_frames += worker.busy_frames;
        report.crash_times.extend(worker.crash_times);
    }
    report.crash_times.sort_by_key(|&(id, _)| id);
    if let Some(polled) = poll_result {
        let (visibility, clamped) = polled?;
        report.alarm_visibility = visibility;
        report.visibility_clamped = clamped;
    }

    // Every machine is done, so the watermark has released the complete
    // history; fetch it on a fresh connection.
    let mut client = ServeClient::connect(addr, "loadgen-final")?;
    report.alarms = client.query_alarms_all()?;
    client.bye()?;
    Ok(report)
}

struct WorkerOutcome {
    records_sent: u64,
    records_accepted: u64,
    batches: u64,
    ack_rtt: LatencyHistogram,
    busy_frames: u64,
    crash_times: Vec<(u64, Option<f64>)>,
}

/// Replays pre-generated feeds as v1 per-record batches, one tick per
/// machine per round-robin pass — byte-for-byte the wire traffic the old
/// live-stepping worker produced, with the simulation cost moved outside
/// the timed wall.
fn feed_worker_record(
    addr: SocketAddr,
    feeds: &[MachineFeed],
    machine_indices: &[usize],
    counters: &[Counter],
    batch_records: usize,
    rate_records_per_sec: f64,
    frontier: &FrontierLog,
) -> Result<WorkerOutcome> {
    let mut client = ServeClient::connect(addr, "loadgen-feeder")?;
    let started = Instant::now();
    let mut records_sent = 0u64;
    let mut batches = 0u64;
    let mut batch: Vec<Record> = Vec::with_capacity(batch_records + counters.len());
    // cursor == ticks ⇒ the done marker is still owed; ticks + 1 ⇒ done.
    let mut cursors = vec![0usize; machine_indices.len()];

    loop {
        let mut progressed = false;
        for (slot, &idx) in machine_indices.iter().enumerate() {
            let feed = &feeds[idx];
            let cursor = cursors[slot];
            if cursor > feed.times.len() {
                continue;
            }
            if cursor < feed.times.len() {
                let time_secs = feed.times[cursor];
                for (counter, column) in counters.iter().zip(&feed.columns) {
                    batch.push(Record {
                        machine_id: feed.machine_id,
                        counter: counter.code(),
                        time_secs,
                        value: column[cursor],
                    });
                }
                cursors[slot] = cursor + 1;
                progressed = true;
            } else {
                // Flush first: the server must see every record of this
                // machine before its done marker, or the pipeline would
                // finish on a stale tick and the late records would
                // resurrect the feed with its tail events stuck pending.
                if !batch.is_empty() {
                    let flushed = batch.len() as u64;
                    flush_batch(&mut client, &mut batch, frontier)?;
                    records_sent += flushed;
                    batches += 1;
                }
                client.machine_done(feed.machine_id)?;
                cursors[slot] = feed.times.len() + 1;
            }
            if batch.len() >= batch_records {
                let flushed = batch.len() as u64;
                flush_batch(&mut client, &mut batch, frontier)?;
                records_sent += flushed;
                batches += 1;
                throttle(records_sent, rate_records_per_sec, started);
            }
        }
        if !progressed {
            break;
        }
    }
    if !batch.is_empty() {
        records_sent += batch.len() as u64;
        flush_batch(&mut client, &mut batch, frontier)?;
        batches += 1;
    }
    client.flush()?;
    let records_accepted = client.records_accepted();
    let busy_frames = client.busy_frames();
    let ack_rtt = client.bye()?;
    Ok(WorkerOutcome {
        records_sent,
        records_accepted,
        batches,
        ack_rtt,
        busy_frames,
        crash_times: machine_indices
            .iter()
            .map(|&idx| (feeds[idx].machine_id, feeds[idx].crash_time_secs))
            .collect(),
    })
}

/// One machine's fully simulated feed: tick times plus one value column
/// per configured counter, generated before the timed wall in both wire
/// modes.
struct MachineFeed {
    machine_id: u64,
    times: Vec<f64>,
    /// `columns[c][t]` = value of `counters[c]` at tick `t`.
    columns: Vec<Vec<f64>>,
    crash_time_secs: Option<f64>,
}

fn generate_feed(
    machine_id: u64,
    scenario: &Scenario,
    horizon_secs: f64,
    counters: &[Counter],
) -> Result<MachineFeed> {
    let mut feeder = ScenarioFeeder::new(machine_id, scenario, horizon_secs)?;
    let mut feed = MachineFeed {
        machine_id,
        times: Vec::new(),
        columns: vec![Vec::new(); counters.len()],
        crash_time_secs: None,
    };
    let mut records: Vec<Record> = Vec::with_capacity(counters.len());
    while feeder.next_tick(counters, &mut records) {
        let Some(first) = records.first() else {
            continue;
        };
        feed.times.push(first.time_secs);
        for (column, record) in feed.columns.iter_mut().zip(&records) {
            column.push(record.value);
        }
        records.clear();
    }
    feed.crash_time_secs = feeder.crash_time_secs();
    Ok(feed)
}

/// Ships pre-generated feeds as v2 columnar frames, chunk-interleaved
/// across this worker's machines like the record-mode tick interleave.
fn feed_worker_columnar(
    addr: SocketAddr,
    feeds: &[MachineFeed],
    machine_indices: &[usize],
    counters: &[Counter],
    batch_records: usize,
    rate_records_per_sec: f64,
    frontier: &FrontierLog,
) -> Result<WorkerOutcome> {
    let mut client = ServeClient::connect(addr, "loadgen-feeder")?;
    let started = Instant::now();
    let mut records_sent = 0u64;
    let mut batches = 0u64;
    // A chunk carries about `batch_records` records across the counter
    // columns, matching record-mode batch sizing.
    let ticks_per_chunk = (batch_records / counters.len().max(1)).max(1);
    let mut cursors = vec![0usize; machine_indices.len()];
    let mut remaining = machine_indices.len();
    while remaining > 0 {
        for (slot, &idx) in machine_indices.iter().enumerate() {
            let cursor = cursors[slot];
            let feed = &feeds[idx];
            if cursor > feed.times.len() {
                continue; // already done
            }
            if cursor == feed.times.len() {
                client.machine_done(feed.machine_id)?;
                cursors[slot] = feed.times.len() + 1;
                remaining -= 1;
                continue;
            }
            let end = (cursor + ticks_per_chunk).min(feed.times.len());
            let times = &feed.times[cursor..end];
            for (counter, column) in counters.iter().zip(&feed.columns) {
                batches += client.send_column(
                    feed.machine_id,
                    counter.code(),
                    times,
                    &column[cursor..end],
                )?;
                records_sent += times.len() as u64;
            }
            cursors[slot] = end;
            let now = Instant::now();
            let newest = times[times.len() - 1];
            let mut log = frontier.lock().unwrap_or_else(|p| p.into_inner());
            let entries = log.entry(feed.machine_id).or_default();
            if entries.last().is_none_or(|&(t, _)| newest > t) {
                entries.push((newest, now));
            }
            drop(log);
            throttle(records_sent, rate_records_per_sec, started);
        }
    }
    client.flush()?;
    let records_accepted = client.records_accepted();
    let busy_frames = client.busy_frames();
    let ack_rtt = client.bye()?;
    Ok(WorkerOutcome {
        records_sent,
        records_accepted,
        batches,
        ack_rtt,
        busy_frames,
        crash_times: machine_indices
            .iter()
            .map(|&idx| (feeds[idx].machine_id, feeds[idx].crash_time_secs))
            .collect(),
    })
}

fn flush_batch(
    client: &mut ServeClient,
    batch: &mut Vec<Record>,
    frontier: &FrontierLog,
) -> Result<()> {
    client.send_batch(batch)?;
    let now = Instant::now();
    let mut log = frontier.lock().unwrap_or_else(|p| p.into_inner());
    for rec in batch.iter() {
        let entries = log.entry(rec.machine_id).or_default();
        if entries.last().is_none_or(|&(t, _)| rec.time_secs > t) {
            entries.push((rec.time_secs, now));
        }
    }
    batch.clear();
    Ok(())
}

fn throttle(records_sent: u64, rate_records_per_sec: f64, started: Instant) {
    if rate_records_per_sec <= 0.0 {
        return;
    }
    let target = records_sent as f64 / rate_records_per_sec;
    let actual = started.elapsed().as_secs_f64();
    if target > actual {
        std::thread::sleep(Duration::from_secs_f64((target - actual).min(0.25)));
    }
}

/// Polls the alarm history, dating each newly visible event against the
/// frontier log: an event at machine time T became decidable when the
/// first batch with a strictly later tick for that machine was sent.
fn poll_worker(
    addr: SocketAddr,
    interval: Duration,
    frontier: &FrontierLog,
    feeding_done: &AtomicBool,
) -> Result<(LatencyHistogram, u64)> {
    let mut client = ServeClient::connect(addr, "loadgen-poller")?;
    let mut visibility = LatencyHistogram::default();
    let mut clamped = 0u64;
    let mut seen = 0u64;
    loop {
        let done_before_poll = feeding_done.load(Ordering::SeqCst);
        let (total, chunk) = client.query_alarms(seen)?;
        let now = Instant::now();
        if !chunk.is_empty() {
            let log = frontier.lock().unwrap_or_else(|p| p.into_inner());
            for event in &chunk {
                if let Some(entries) = log.get(&event.machine_id) {
                    let sent_at = entries
                        .iter()
                        .find(|&&(t, _)| t > event.time_secs)
                        .or_else(|| entries.last())
                        .map(|&(_, at)| at);
                    if let Some(at) = sent_at {
                        // An inverted clock pair (the event polled before
                        // its frontier entry was stamped) records as zero
                        // but is counted, so the report can tell a true
                        // sub-bucket latency from a clamped artefact.
                        match now.checked_duration_since(at) {
                            Some(elapsed) => visibility.record(elapsed),
                            None => {
                                clamped += 1;
                                visibility.record(Duration::ZERO);
                            }
                        }
                    }
                }
            }
            seen += chunk.len() as u64;
        }
        if done_before_poll && seen >= total && chunk.is_empty() {
            break;
        }
        std::thread::sleep(interval);
    }
    client.bye()?;
    Ok((visibility, clamped))
}
