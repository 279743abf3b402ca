//! Workload inputs: the simulated fleet, its detector stack, the
//! pre-generated feeds, the send plan every phase replays, and the
//! offline reference history each pass is checked against.

use aging_core::baseline::TrendPredictorConfig;
use aging_core::detector::DetectorConfig;
use aging_memsim::{Counter, Scenario};
use aging_serve::loadgen::ScenarioFeeder;
use aging_serve::protocol::{counter_code, encode_events, Record, ServeEvent};
use aging_stream::detector::{DetectorSpec, SpectrumDetectorConfig};
use aging_stream::{AlarmEvent, CounterDetector, FleetConfig, FleetSupervisor};
use aging_timeseries::Result;

use crate::trace::{SpanId, Tracer};

/// Simulated horizon of every machine feed, seconds (E14's 24 h).
pub const HORIZON_SECS: f64 = 24.0 * 3600.0;
/// Leaking machines per fleet; one healthy control is added (E14 recipe).
pub const LEAKY_MACHINES: usize = 3;
/// Records per batch frame (record mode) or per machine chunk across
/// all counters (columnar mode), as in E14.
pub const BATCH_RECORDS: usize = 64;

/// Which detectors the server (or sink) runs per machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The Mann–Kendall/Sen trend baseline alone, on `AvailableBytes`.
    Trend,
    /// The paper's fused stack: Hölder dimension and trend on
    /// `AvailableBytes`, Δα spectrum width on `CommittedBytes`.
    Paper,
}

impl Stack {
    /// Counters each tick carries, in detector order.
    pub fn counters(self) -> &'static [Counter] {
        match self {
            Stack::Trend => &[Counter::AvailableBytes],
            Stack::Paper => &[Counter::AvailableBytes, Counter::CommittedBytes],
        }
    }

    /// The fleet config shared by the server, the sink and the offline
    /// supervisor. Detector settings are the ones E10, E11, E14 and E17
    /// validate.
    pub fn fleet_config(self) -> FleetConfig {
        let trend = CounterDetector {
            counter: Counter::AvailableBytes,
            spec: trend_spec(),
        };
        let detectors = match self {
            Stack::Trend => vec![trend],
            Stack::Paper => vec![
                CounterDetector {
                    counter: Counter::AvailableBytes,
                    spec: DetectorSpec::Holder(DetectorConfig::default()),
                },
                CounterDetector {
                    counter: Counter::CommittedBytes,
                    spec: DetectorSpec::Spectrum(SpectrumDetectorConfig::default()),
                },
                trend,
            ],
        };
        let mut cfg = FleetConfig::new(detectors, HORIZON_SECS);
        cfg.gate.nominal_period_secs = 5.0;
        // One supervisor shard: the offline reference runs on the calling
        // thread, so set-up time does not depend on scheduling.
        cfg.shards = 1;
        cfg
    }
}

/// E14's trend detector: 10-minute window, 15-minute alarm horizon.
pub fn trend_spec() -> DetectorSpec {
    DetectorSpec::Trend(TrendPredictorConfig {
        window: 120,
        refit_every: 8,
        alarm_horizon_secs: 900.0,
        ..TrendPredictorConfig::depleting(5.0)
    })
}

/// The E14 fleet for `seed`: leaking tiny machines plus a healthy control.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut fleet: Vec<Scenario> = (0..LEAKY_MACHINES)
        .map(|i| Scenario::tiny_aging(seed.wrapping_add(i as u64), 192.0 + 32.0 * i as f64))
        .collect();
    fleet.push(Scenario::tiny_aging(
        seed.wrapping_add(LEAKY_MACHINES as u64),
        0.0,
    ));
    fleet
}

/// One machine's simulated feed: tick times plus one column per counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Feed {
    pub machine_id: u64,
    pub times: Vec<f64>,
    /// `columns[c][t]`: counter `c` (stack order) at tick `t`.
    pub columns: Vec<Vec<f64>>,
}

/// Steps every scenario through [`ScenarioFeeder::next_tick`] up front.
pub fn generate_feeds(
    scenarios: &[Scenario],
    counters: &[Counter],
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Vec<Feed>, u64)> {
    let mut feeds = Vec::with_capacity(scenarios.len());
    let mut ticks = 0u64;
    let mut records: Vec<Record> = Vec::with_capacity(counters.len());
    for (id, scenario) in scenarios.iter().enumerate() {
        let span = tracer.open("memsim.feed_gen", parent);
        let mut feeder = ScenarioFeeder::new(id as u64, scenario, HORIZON_SECS)?;
        let mut feed = Feed {
            machine_id: id as u64,
            times: Vec::new(),
            columns: vec![Vec::new(); counters.len()],
        };
        while feeder.next_tick(counters, &mut records) {
            feed.times.push(records[0].time_secs);
            for (column, record) in feed.columns.iter_mut().zip(&records) {
                column.push(record.value);
            }
            records.clear();
        }
        tracer.close(span);
        ticks += feed.times.len() as u64;
        feeds.push(feed);
    }
    Ok((feeds, ticks))
}

/// The offline supervisor's history over the same scenarios, in the
/// serve wire encoding (E14's byte-identity rule).
pub fn offline_reference(cfg: &FleetConfig, scenarios: &[Scenario]) -> Result<Vec<ServeEvent>> {
    let report = FleetSupervisor::new(cfg.clone())?.run(scenarios)?;
    Ok(report.events.iter().map(to_serve_event).collect())
}

/// An in-process alarm event as the wire reports it.
pub fn to_serve_event(e: &AlarmEvent) -> ServeEvent {
    ServeEvent {
        machine_id: e.machine_index as u64,
        time_secs: e.time_secs,
        level: e.level,
        kind: e.kind,
    }
}

/// One send in a pass, in the order the feeder issues them.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// A v1 record batch: `records[start..end]` of the plan.
    Batch { start: usize, end: usize },
    /// One machine's ticks `start..end`, sent as one column per counter.
    Chunk {
        feed: usize,
        start: usize,
        end: usize,
    },
    /// The machine's feed is complete.
    Done { machine_id: u64 },
}

/// Everything one pass sends, fixed before any timing starts.
#[derive(Debug)]
pub struct Plan {
    pub steps: Vec<Step>,
    /// Record-mode batches index into this flat list.
    pub records: Vec<Record>,
    /// Records the pass carries in total.
    pub total_records: u64,
    /// For each offline event, the step whose send made it decidable.
    pub decidable_step: Vec<usize>,
}

impl Plan {
    /// Records carried by `step` (zero for a done marker).
    pub fn step_records(&self, step: &Step, counters: usize) -> u64 {
        match *step {
            Step::Batch { start, end } => (end - start) as u64,
            Step::Chunk { start, end, .. } => ((end - start) * counters) as u64,
            Step::Done { .. } => 0,
        }
    }

    /// Records carried by the steps before each step, and by all of
    /// them at the end: one more entry than there are steps.
    pub fn records_before(&self, counters: usize) -> Vec<u64> {
        let mut cum = vec![0u64];
        for step in &self.steps {
            cum.push(cum[cum.len() - 1] + self.step_records(step, counters));
        }
        cum
    }
}

/// Record mode: one tick per machine per round-robin pass, flushed every
/// [`BATCH_RECORDS`] records; a machine's batch goes out before its done
/// marker (the E14 loadgen interleave).
pub fn record_plan(feeds: &[Feed], counters: &[Counter], offline: &[ServeEvent]) -> Plan {
    let mut steps = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    let mut batch_start = 0usize;
    // Per machine: (newest tick time sent, step index) in send order.
    let mut frontier: Vec<Vec<(f64, usize)>> = vec![Vec::new(); feeds.len()];
    let mut done_step = vec![0usize; feeds.len()];
    let mut cursors = vec![0usize; feeds.len()];
    let mut finished = vec![false; feeds.len()];
    let close_batch = |steps: &mut Vec<Step>, start: &mut usize, end: usize| {
        if end > *start {
            steps.push(Step::Batch { start: *start, end });
            *start = end;
        }
    };
    // Every round, each unfinished machine either sends a tick or ends.
    while !finished.iter().all(|&f| f) {
        for (slot, feed) in feeds.iter().enumerate() {
            if finished[slot] {
                continue;
            }
            let cursor = cursors[slot];
            if cursor < feed.times.len() {
                for (c, &counter) in counters.iter().enumerate() {
                    records.push(Record {
                        machine_id: feed.machine_id,
                        counter: counter_code(counter),
                        time_secs: feed.times[cursor],
                        value: feed.columns[c][cursor],
                    });
                }
                frontier[slot].push((feed.times[cursor], steps.len()));
                cursors[slot] += 1;
            } else {
                close_batch(&mut steps, &mut batch_start, records.len());
                done_step[slot] = steps.len();
                steps.push(Step::Done {
                    machine_id: feed.machine_id,
                });
                finished[slot] = true;
            }
            if records.len() - batch_start >= BATCH_RECORDS {
                close_batch(&mut steps, &mut batch_start, records.len());
            }
        }
    }
    close_batch(&mut steps, &mut batch_start, records.len());
    let total_records = records.len() as u64;
    let decidable_step = decidable_steps(offline, &frontier, &done_step);
    Plan {
        steps,
        records,
        total_records,
        decidable_step,
    }
}

/// Columnar mode: chunks of [`BATCH_RECORDS`] records across the
/// counters, round-robin over machines (the E14 loadgen interleave).
pub fn chunk_plan(feeds: &[Feed], counters: &[Counter], offline: &[ServeEvent]) -> Plan {
    let ticks_per_chunk = (BATCH_RECORDS / counters.len()).max(1);
    let mut steps = Vec::new();
    let mut frontier: Vec<Vec<(f64, usize)>> = vec![Vec::new(); feeds.len()];
    let mut done_step = vec![0usize; feeds.len()];
    let mut cursors = vec![0usize; feeds.len()];
    let mut remaining = feeds.len();
    let mut total_records = 0u64;
    while remaining > 0 {
        for (slot, feed) in feeds.iter().enumerate() {
            let cursor = cursors[slot];
            if cursor > feed.times.len() {
                continue;
            }
            if cursor == feed.times.len() {
                done_step[slot] = steps.len();
                steps.push(Step::Done {
                    machine_id: feed.machine_id,
                });
                cursors[slot] = cursor + 1;
                remaining -= 1;
                continue;
            }
            let end = (cursor + ticks_per_chunk).min(feed.times.len());
            frontier[slot].push((feed.times[end - 1], steps.len()));
            steps.push(Step::Chunk {
                feed: slot,
                start: cursor,
                end,
            });
            total_records += ((end - cursor) * counters.len()) as u64;
            cursors[slot] = end;
        }
    }
    let decidable_step = decidable_steps(offline, &frontier, &done_step);
    Plan {
        steps,
        records: Vec::new(),
        total_records,
        decidable_step,
    }
}

/// An event at machine time `t` becomes decidable with the first send
/// carrying a strictly later tick of its machine, or with the machine's
/// done marker when no later tick exists.
fn decidable_steps(
    offline: &[ServeEvent],
    frontier: &[Vec<(f64, usize)>],
    done_step: &[usize],
) -> Vec<usize> {
    offline
        .iter()
        .map(|e| {
            let m = e.machine_id as usize;
            let sent = &frontier[m];
            let k = sent.partition_point(|&(t, _)| t <= e.time_secs);
            sent.get(k).map_or(done_step[m], |&(_, step)| step)
        })
        .collect()
}

/// Everything set-up produces for a workload.
#[derive(Debug)]
pub struct Inputs {
    pub stack: Stack,
    pub cfg: FleetConfig,
    pub feeds: Vec<Feed>,
    pub ticks: u64,
    pub offline_bytes: Vec<u8>,
    pub plan: Plan,
}

/// Builds a workload's inputs from its seed: feeds, offline reference
/// and send plan.
pub fn build_inputs(
    seed: u64,
    stack: Stack,
    record_mode: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Inputs> {
    let scenarios = scenarios(seed);
    let cfg = stack.fleet_config();
    let counters = stack.counters();
    let (feeds, ticks) = generate_feeds(&scenarios, counters, tracer, parent)?;
    let span = tracer.open("stream.offline_reference", parent);
    let offline = offline_reference(&cfg, &scenarios)?;
    tracer.close(span);
    let offline_bytes = encode_events(&offline);
    let plan = if record_mode {
        record_plan(&feeds, counters, &offline)
    } else {
        chunk_plan(&feeds, counters, &offline)
    };
    Ok(Inputs {
        stack,
        cfg,
        feeds,
        ticks,
        offline_bytes,
        plan,
    })
}
