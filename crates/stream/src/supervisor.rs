//! Fleet supervisor: N machines × M counters through streaming detectors
//! on a thread-per-shard pool, fused per machine, emitting one
//! time-ordered alarm stream.
//!
//! # Architecture
//!
//! Machines are partitioned round-robin across shards; each shard is one
//! scoped thread owning its machines' simulations,
//! [`SampleGate`](crate::gate::SampleGate)s and [`StreamingDetector`]s, so
//! the hot path needs no locks at all. Shards
//! talk to the supervisor over a single bounded [`std::sync::mpsc`]
//! channel carrying three message kinds with two delivery policies:
//!
//! | Message | Send | Policy when the queue is full |
//! |---|---|---|
//! | alarm/warning events | blocking `send` | **backpressure** — the shard stalls; alarms are never dropped |
//! | shard watermarks | blocking `send`, after a sweep that sent events or restart requests, when a status snapshot is due, before the shard blocks on its verdict channel, else once every `WATERMARK_EVERY` (64) sweeps | backpressure (ordering depends on them) |
//! | telemetry snapshots | `try_send` | **dropped** and counted (`telemetry_dropped`) — observability is lossy by design |
//!
//! # Ordered merge
//!
//! Every machine's sample clock is strictly increasing, so after a shard
//! finishes a round-robin sweep, no future event from it can carry a
//! timestamp at or below the minimum last-sample time of its live
//! machines. Shards publish that value as a *watermark*; the supervisor
//! buffers incoming events in a min-heap and releases them only once every
//! live shard's watermark has passed them. The released stream is
//! therefore globally ordered by `(time, machine, emission)` no matter how
//! threads interleave — and, because the simulations are deterministic,
//! two runs of the same fleet produce the identical event sequence.
//!
//! A watermark only ever lags the shard's true one, so publishing fewer
//! of them cannot change what is released or in which order. It moves
//! only the wall-clock moment an event reaches `on_alarm`: by at most
//! `WATERMARK_EVERY` sweeps of the slowest shard. A shard sends its
//! restart requests before any watermark that passes them, and publishes
//! before it blocks waiting for a verdict, so arbitration stays live and
//! deterministic. A watermark per sweep would wake the merge thread
//! once per row; on one CPU that costs more than the trend detector's
//! work on the row.
//!
//! Per-machine fusion applies the existing [`FusionRule`] vote logic:
//! each counter's detector contributes one vote once its confirmed alarm
//! has latched, and the machine-level alarm fires when the rule says the
//! votes suffice.

use std::sync::mpsc;

use aging_core::detector::Alert;
use aging_core::fusion::FusionRule;
use aging_memsim::{Counter, Machine, Sample, Scenario, Tick};
use aging_rejuv::{
    AvailabilitySummary, RejuvConfig, RejuvController, RejuvPolicy, RestartDecision, RestartReason,
    RestartRequest,
};
use aging_store::{Store, StoreConfig};
use aging_timeseries::persist;
use aging_timeseries::{Error, Result};

use crate::detector::{AlertDetail, DetectorSpec, StreamingDetector};
use crate::gate::GateConfig;
use crate::merge::{MergeKey, WatermarkMerger};
use crate::pipeline::{MachinePipeline, PipelineEvent};
use crate::source::SamplePerturber;
use crate::telemetry::{LatencyHistogram, StageCounters, StatusSnapshot};

pub use crate::pipeline::{AlarmKind, CounterDetector};
pub use aging_core::detector::AlertLevel;

/// Builds one [`SamplePerturber`] per `(machine index, counter)` stream.
///
/// Installed via [`FleetConfig::perturb`]; the supervisor calls the
/// factory once per counter stream at boot, on the supervisor thread, and
/// moves each perturber onto its shard. Factories must be deterministic
/// in `(machine_index, counter)` so two runs of the same fleet stay
/// bit-identical regardless of shard count.
pub type PerturberFactory =
    std::sync::Arc<dyn Fn(usize, Counter) -> Box<dyn SamplePerturber> + Send + Sync>;

/// Fleet supervisor configuration.
#[derive(Clone)]
pub struct FleetConfig {
    /// Detectors instantiated per machine (one per monitored counter).
    pub detectors: Vec<CounterDetector>,
    /// How per-counter alarm votes combine into a machine-level alarm.
    pub fusion: FusionRule,
    /// Defect gate applied to every (machine, counter) stream.
    pub gate: GateConfig,
    /// Simulated-time horizon per machine, seconds.
    pub horizon_secs: f64,
    /// Shard (worker thread) count; `0` picks
    /// `min(machines, aging_par::Pool::global().threads())` — i.e. it
    /// honours the `AGING_THREADS` override.
    pub shards: usize,
    /// Bound of the shard→supervisor channel. Full queue stalls shards
    /// (alarms are lossless) and sheds telemetry (lossy).
    pub queue_capacity: usize,
    /// Emit a telemetry snapshot each time a shard's stream clock crosses
    /// a multiple of this many seconds.
    pub status_every_secs: f64,
    /// Optional fault-injection hook: perturbs each raw sample between
    /// the machine monitor and the defect gate. `None` feeds machines
    /// straight through. Event timestamps always keep the true machine
    /// time, so injected clock defects cannot corrupt watermark ordering.
    pub perturb: Option<PerturberFactory>,
    /// Crash-safe alarm history persistence. When set, every event is
    /// journaled to this store as the ordered merge releases it, and a
    /// completed run commits the full history as a snapshot (truncating
    /// the journal). After a crash mid-run,
    /// [`FleetSupervisor::recover_events`] returns the journaled prefix
    /// for post-mortem; a deterministic re-run onto a *fresh* directory
    /// reproduces the full history. Runs append to whatever the
    /// directory already holds, so point each run at its own directory.
    /// `None` (the default) keeps the run entirely in memory.
    pub store: Option<StoreConfig>,
    /// Closed-loop rejuvenation. When set, the supervisor arbitrates
    /// restart requests against this policy on the ordered alarm stream:
    /// alarm-triggered or periodic restarts are granted/denied by a
    /// [`RejuvController`] (per-machine cooldown, fleet-wide concurrency
    /// budget), crashes become forced repair reboots instead of ending
    /// the machine's feed, and every granted restart is emitted (and
    /// journaled) as an [`AlarmKind::Restart`] event in stream order.
    /// `None` (the default) keeps the classic open-loop behaviour where
    /// a crash terminates the machine.
    pub rejuv: Option<RejuvConfig>,
}

impl std::fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetConfig")
            .field("detectors", &self.detectors)
            .field("fusion", &self.fusion)
            .field("gate", &self.gate)
            .field("horizon_secs", &self.horizon_secs)
            .field("shards", &self.shards)
            .field("queue_capacity", &self.queue_capacity)
            .field("status_every_secs", &self.status_every_secs)
            .field(
                "perturb",
                &self.perturb.as_ref().map(|_| "PerturberFactory"),
            )
            .field("store", &self.store)
            .field("rejuv", &self.rejuv)
            .finish()
    }
}

impl FleetConfig {
    /// A config with library defaults: majority fusion, default gate,
    /// 256-slot queue, 10-minute status cadence.
    pub fn new(detectors: Vec<CounterDetector>, horizon_secs: f64) -> Self {
        FleetConfig {
            detectors,
            fusion: FusionRule::Majority,
            gate: GateConfig::default(),
            horizon_secs,
            shards: 0,
            queue_capacity: 256,
            status_every_secs: 600.0,
            perturb: None,
            store: None,
            rejuv: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an empty detector list,
    /// non-positive horizon/status period or a zero queue capacity, and
    /// propagates [`GateConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        if self.detectors.is_empty() {
            return Err(Error::invalid("detectors", "need at least one counter"));
        }
        if !(self.horizon_secs > 0.0) {
            return Err(Error::invalid("horizon_secs", "must be positive"));
        }
        if self.queue_capacity == 0 {
            return Err(Error::invalid("queue_capacity", "must be at least 1"));
        }
        if !(self.status_every_secs > 0.0) {
            return Err(Error::invalid("status_every_secs", "must be positive"));
        }
        if let Some(store) = &self.store {
            store
                .validate()
                .map_err(|e| Error::invalid("store", e.to_string()))?;
        }
        if let Some(rejuv) = &self.rejuv {
            rejuv.validate()?;
        }
        self.gate.validate()
    }
}

/// One event in the supervisor's ordered output stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmEvent {
    /// Index of the machine in the `scenarios` slice passed to `run`.
    pub machine_index: usize,
    /// Machine display name (`m<index>:<scenario>`).
    pub machine: String,
    /// Stream time of the sample that produced the event, seconds.
    pub time_secs: f64,
    /// Severity.
    pub level: AlertLevel,
    /// What fired.
    pub kind: AlarmKind,
}

// ---------------------------------------------------------------------------
// Alarm history codec (store payloads)
// ---------------------------------------------------------------------------

/// Version byte leading the persisted alarm-history snapshot blob.
const FLEET_SNAPSHOT_VERSION: u8 = 1;

fn encode_alarm_event(event: &AlarmEvent, out: &mut Vec<u8>) {
    persist::put_u64(out, event.machine_index as u64);
    persist::put_str(out, &event.machine);
    persist::put_f64(out, event.time_secs);
    persist::put_u8(out, event.level.code());
    persist::put_u8(out, event.kind.tag());
    match &event.kind {
        AlarmKind::Detector {
            counter,
            detector,
            detail,
        } => {
            persist::put_u8(out, counter.code());
            persist::put_str(out, detector);
            persist::put_u8(out, detail.tag());
            match detail {
                AlertDetail::Holder(alert) => alert.encode(out),
                AlertDetail::Trend { eta_secs } => persist::put_opt_f64(out, *eta_secs),
                AlertDetail::Spectrum {
                    delta_alpha,
                    baseline_width,
                } => {
                    persist::put_f64(out, *delta_alpha);
                    persist::put_f64(out, *baseline_width);
                }
            }
        }
        AlarmKind::MachineAlarm { votes, members } => {
            persist::put_usize(out, *votes);
            persist::put_usize(out, *members);
        }
        AlarmKind::Restart {
            reason,
            downtime_secs,
        } => {
            persist::put_u8(out, reason.code());
            persist::put_f64(out, *downtime_secs);
        }
    }
}

fn decode_alarm_event(r: &mut persist::Reader<'_>) -> Result<AlarmEvent> {
    let machine_index = r.u64()? as usize;
    let machine = r.str_()?;
    let time_secs = r.f64()?;
    let level = AlertLevel::from_code(r.u8()?)?;
    let kind = match r.u8()? {
        AlarmKind::DETECTOR_TAG => {
            let code = r.u8()?;
            let counter = Counter::from_code(code)
                .ok_or_else(|| Error::invalid("store", format!("bad counter code {code}")))?;
            // Interns the persisted name back to its `&'static str`.
            let name = r.str_()?;
            let detector = DetectorSpec::family_code_of(&name)
                .and_then(DetectorSpec::family_name)
                .ok_or_else(|| {
                    Error::invalid("store", format!("unknown detector name {name:?}"))
                })?;
            let detail = match r.u8()? {
                AlertDetail::HOLDER_TAG => AlertDetail::Holder(Alert::decode(r)?),
                AlertDetail::TREND_TAG => AlertDetail::Trend {
                    eta_secs: r.opt_f64()?,
                },
                AlertDetail::SPECTRUM_TAG => AlertDetail::Spectrum {
                    delta_alpha: r.f64()?,
                    baseline_width: r.f64()?,
                },
                t => return Err(Error::invalid("store", format!("bad detail tag {t}"))),
            };
            AlarmKind::Detector {
                counter,
                detector,
                detail,
            }
        }
        AlarmKind::MACHINE_ALARM_TAG => AlarmKind::MachineAlarm {
            votes: r.usize_()?,
            members: r.usize_()?,
        },
        AlarmKind::RESTART_TAG => AlarmKind::Restart {
            reason: RestartReason::from_code(r.u8()?)?,
            downtime_secs: r.f64()?,
        },
        t => return Err(Error::invalid("store", format!("bad event kind tag {t}"))),
    };
    Ok(AlarmEvent {
        machine_index,
        machine,
        time_secs,
        level,
        kind,
    })
}

/// Terminal state of one machine after a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutcome {
    /// Index of the machine in the `scenarios` slice.
    pub machine_index: usize,
    /// Machine display name.
    pub machine: String,
    /// First crash time, seconds — `None` if the machine never crashed.
    /// In a closed-loop ([`FleetConfig::rejuv`]) run the crash is
    /// repaired and the feed continues, so this records the first
    /// incident rather than a terminal state.
    pub crash_time_secs: Option<f64>,
    /// Monitor samples the machine produced.
    pub samples: u64,
    /// Planned (alarm- or period-driven) restarts applied to the machine.
    pub restarts: u64,
    /// Crashes the machine suffered (each forced a repair reboot in a
    /// closed-loop run; at most one terminal crash otherwise).
    pub crashes: u64,
    /// Seconds the machine spent down: planned restart transients, crash
    /// repairs, and — for an open-loop terminal crash — the dead tail to
    /// the horizon.
    pub downtime_secs: f64,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// All events, globally ordered by `(time, machine, emission)`.
    pub events: Vec<AlarmEvent>,
    /// Per-machine terminal states, by machine index.
    pub outcomes: Vec<MachineOutcome>,
    /// Final aggregated telemetry.
    pub status: StatusSnapshot,
    /// Every restart decision the [`RejuvController`] made, in
    /// arbitration order — empty when [`FleetConfig::rejuv`] is `None`.
    /// Deterministic for a given fleet, bit for bit, across shard
    /// counts; the golden-fixture and parity suites pin exactly this.
    pub decisions: Vec<RestartDecision>,
}

impl FleetReport {
    /// Seconds between a machine's fused alarm and its crash — the
    /// prediction lead time. `None` if it never alarmed or never crashed.
    pub fn lead_time_secs(&self, machine_index: usize) -> Option<f64> {
        let crash = self
            .outcomes
            .iter()
            .find(|o| o.machine_index == machine_index)?
            .crash_time_secs?;
        let alarm = self
            .events
            .iter()
            .find(|e| {
                e.machine_index == machine_index && matches!(e.kind, AlarmKind::MachineAlarm { .. })
            })?
            .time_secs;
        Some(crash - alarm)
    }

    /// Iterates the machine-level fused alarms in stream order.
    pub fn machine_alarms(&self) -> impl Iterator<Item = &AlarmEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::MachineAlarm { .. }))
    }

    /// Iterates the granted restart events in stream order.
    pub fn restart_events(&self) -> impl Iterator<Item = &AlarmEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::Restart { .. }))
    }

    /// Availability accounting over `horizon_secs`: per-machine uptime
    /// net of planned-restart transients, crash repairs, and terminal
    /// dead time (see [`MachineOutcome::downtime_secs`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive or
    /// non-finite horizon, or when the run had no machines.
    pub fn availability(&self, horizon_secs: f64) -> Result<AvailabilitySummary> {
        let machines: Vec<(u64, u64, f64)> = self
            .outcomes
            .iter()
            .map(|o| (o.restarts, o.crashes, o.downtime_secs))
            .collect();
        AvailabilitySummary::from_machines(horizon_secs, &machines)
    }
}

// ---------------------------------------------------------------------------
// Shard internals
// ---------------------------------------------------------------------------

/// Per-shard cumulative telemetry, merged by the supervisor.
#[derive(Debug, Clone, Copy, Default)]
struct ShardTelemetry {
    stream_time_secs: f64,
    live: usize,
    finished: usize,
    counters: StageCounters,
    latency: LatencyHistogram,
    telemetry_dropped: u64,
    detector_errors: u64,
}

enum ShardMsg {
    Event {
        seq: u64,
        event: AlarmEvent,
    },
    Watermark {
        shard: usize,
        time_secs: f64,
    },
    Telemetry {
        shard: usize,
        telemetry: Box<ShardTelemetry>,
    },
    Done {
        shard: usize,
        telemetry: Box<ShardTelemetry>,
        outcomes: Vec<MachineOutcome>,
    },
    /// A machine asks to restart; the shard has *parked* it (stopped
    /// stepping it, pinning the shard watermark at the request time)
    /// until the supervisor sends a verdict back on the shard's decision
    /// channel. FIFO order guarantees the request reaches the supervisor
    /// before any watermark that could release events past it.
    Restart {
        shard: usize,
        request: RestartRequest,
    },
}

struct ShardMachine {
    index: usize,
    name: String,
    machine: Machine,
    /// The gate → detector → fusion core, shared with `aging-serve`.
    pipeline: MachinePipeline,
    /// Fault injectors sitting between the monitor and the gate, one
    /// slot per counter stream (parallel to the pipeline's streams).
    perturbers: Vec<Option<Box<dyn SamplePerturber>>>,
    finished: bool,
    crash_time_secs: Option<f64>,
    samples: u64,
    last_time_secs: f64,
    /// Awaiting a restart verdict: skipped in sweeps, pins the watermark.
    parked: bool,
    /// Crash the shard has not yet converted into a repair request.
    pending_crash_secs: Option<f64>,
    /// Shard-local mirror of the controller's cooldown epoch, used to
    /// prefilter requests (both sides update it only on grants, at the
    /// same times, so they agree exactly).
    last_restart_secs: f64,
    /// Deterministic re-request backoff after a denial.
    retry_after_secs: f64,
    restarts: u64,
    crashes: u64,
}

impl ShardMachine {
    /// Boots machine `index` of the fleet with its pipeline and its
    /// perturbers (the factory runs on the calling thread).
    fn boot(index: usize, scenario: &Scenario, cfg: &FleetConfig) -> Result<ShardMachine> {
        Ok(ShardMachine {
            index,
            name: format!("m{index:03}:{}", scenario.name),
            machine: Machine::boot(scenario)?,
            pipeline: MachinePipeline::new(&cfg.detectors, cfg.fusion, cfg.gate)?,
            perturbers: cfg
                .detectors
                .iter()
                .map(|d| cfg.perturb.as_ref().map(|f| f(index, d.counter)))
                .collect(),
            finished: false,
            crash_time_secs: None,
            samples: 0,
            last_time_secs: f64::NEG_INFINITY,
            parked: false,
            pending_crash_secs: None,
            last_restart_secs: 0.0,
            retry_after_secs: 0.0,
            restarts: 0,
            crashes: 0,
        })
    }

    /// The machine's next monitor row ([`Machine::next_sample`]); `None`
    /// ends the feed (crash or horizon), recording a crash.
    fn next_sample(&mut self, horizon_secs: f64) -> Option<Sample> {
        match self.machine.next_sample(horizon_secs) {
            Tick::Sample(sample) => Some(sample),
            Tick::Crash(crash) => {
                let t = crash.time.as_secs();
                self.pending_crash_secs = Some(t);
                if self.crash_time_secs.is_none() {
                    self.crash_time_secs = Some(t);
                }
                None
            }
            Tick::Horizon => None,
        }
    }
}

/// Applies one restart verdict on the shard side: a granted restart
/// takes the machine down (counter reset + refill transient), re-arms
/// its pipeline so a later aging episode can alarm again, and advances
/// the shard-local cooldown epoch; a denial just unparks with a backoff
/// so the machine re-asks later instead of every tick.
fn apply_restart_decision(machines: &mut [ShardMachine], decision: RestartDecision) {
    let Some(m) = machines
        .iter_mut()
        .find(|m| m.index == decision.machine_index)
    else {
        return;
    };
    m.parked = false;
    if decision.granted {
        m.machine.begin_restart(decision.downtime_secs);
        m.pipeline.rearm();
        m.last_restart_secs = decision.time_secs;
        match decision.reason {
            RestartReason::CrashReboot => m.crashes += 1,
            RestartReason::Alarm | RestartReason::Periodic => m.restarts += 1,
        }
    } else {
        m.retry_after_secs = decision.time_secs + decision.downtime_secs.max(60.0);
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Runs fleets of simulated machines through streaming detectors.
#[derive(Debug, Clone)]
pub struct FleetSupervisor {
    config: FleetConfig,
}

impl FleetSupervisor {
    /// Creates a supervisor.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetConfig::validate`] and instantiates every
    /// detector spec once to surface bad tunings before any thread spawns.
    pub fn new(config: FleetConfig) -> Result<Self> {
        config.validate()?;
        for d in &config.detectors {
            StreamingDetector::new(&d.spec)?;
        }
        Ok(FleetSupervisor { config })
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Monitors the fleet to its horizon, collecting all events.
    ///
    /// # Errors
    ///
    /// Propagates machine-boot failures.
    pub fn run(&self, scenarios: &[Scenario]) -> Result<FleetReport> {
        self.run_with(scenarios, |_| {}, |_| {})
    }

    /// Monitors the fleet, invoking `on_alarm` for each event as the
    /// ordered merge releases it and `on_status` for each telemetry
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Propagates machine-boot failures (before any thread starts).
    pub fn run_with(
        &self,
        scenarios: &[Scenario],
        mut on_alarm: impl FnMut(&AlarmEvent),
        mut on_status: impl FnMut(&StatusSnapshot),
    ) -> Result<FleetReport> {
        let cfg = &self.config;

        // Open the event store (if any) before any thread spawns, so a
        // bad directory fails the run up front.
        let mut store = match &cfg.store {
            Some(store_cfg) => Some(
                Store::open(store_cfg.clone())
                    .map_err(|e| Error::Io(format!("event store open: {e}")))?
                    .0,
            ),
            None => None,
        };
        let mut journal_err: Option<String> = None;

        // Boot everything up front so errors surface before threads spawn.
        let machines = scenarios
            .iter()
            .enumerate()
            .map(|(index, scenario)| ShardMachine::boot(index, scenario, cfg))
            .collect::<Result<Vec<_>>>()?;

        // The restart arbiter (if closed-loop rejuvenation is on) lives
        // on the supervisor side of the channel; shards get one verdict
        // channel each. Built before partitioning so a bad rejuv config
        // fails the run before any thread spawns.
        let controller = match &cfg.rejuv {
            Some(rejuv) => Some(RejuvController::new(*rejuv, scenarios.len().max(1))?),
            None => None,
        };
        let machine_names: Vec<String> = machines.iter().map(|m| m.name.clone()).collect();

        let shard_count = if cfg.shards == 0 {
            aging_par::Pool::global()
                .threads()
                .min(machines.len())
                .max(1)
        } else {
            cfg.shards.min(machines.len()).max(1)
        };

        // Round-robin partition.
        let mut shards: Vec<Vec<ShardMachine>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, m) in machines.into_iter().enumerate() {
            shards[i % shard_count].push(m);
        }

        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_capacity);
        let mut decision_txs = Vec::with_capacity(shard_count);
        let mut decision_rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (dtx, drx) = mpsc::channel::<RestartDecision>();
            decision_txs.push(dtx);
            decision_rxs.push(drx);
        }
        let arbiter = controller.map(|controller| RestartArbiter {
            controller,
            decision_txs,
            machine_names,
            pending: Vec::new(),
        });
        // Journal each event as the ordered merge releases it, *before*
        // the caller's hook sees it — what the hook observed is durable.
        let mut alarm_hook = |event: &AlarmEvent| {
            if journal_err.is_none() {
                if let Some(store) = store.as_mut() {
                    let mut payload = Vec::with_capacity(64);
                    encode_alarm_event(event, &mut payload);
                    if let Err(e) = store.append(&payload) {
                        journal_err = Some(e.to_string());
                    }
                }
            }
            on_alarm(event);
        };
        let mut report = std::thread::scope(|scope| {
            for ((shard_id, shard_machines), drx) in
                shards.into_iter().enumerate().zip(decision_rxs)
            {
                let tx = tx.clone();
                let cfg = &self.config;
                let drx = cfg.rejuv.is_some().then_some(drx);
                scope.spawn(move || shard_loop(shard_id, shard_machines, cfg, &tx, drx));
            }
            drop(tx); // the merge loop ends when every shard hangs up
            merge_loop(shard_count, rx, arbiter, &mut alarm_hook, &mut on_status)
        });
        report.outcomes.sort_by_key(|o| o.machine_index);
        if let Some(e) = journal_err {
            return Err(Error::Io(format!("event journal append failed: {e}")));
        }
        // A completed run compacts its history into one snapshot and
        // truncates the journal.
        if let Some(store) = store.as_mut() {
            let mut blob = Vec::with_capacity(16 + report.events.len() * 64);
            persist::put_u8(&mut blob, FLEET_SNAPSHOT_VERSION);
            persist::put_u64(&mut blob, report.events.len() as u64);
            for event in &report.events {
                encode_alarm_event(event, &mut blob);
            }
            store
                .commit_snapshot(&blob)
                .map_err(|e| Error::Io(format!("event snapshot commit failed: {e}")))?;
        }
        Ok(report)
    }

    /// Reads back the alarm history a store-backed run left on disk: the
    /// last completed run's snapshot plus the journaled prefix of any
    /// interrupted run after it. A torn final journal entry (the crash
    /// landed mid-append) is discarded by the store layer; everything
    /// before it is returned in release order.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the store cannot be opened,
    /// [`Error::InvalidParameter`] when a surviving payload does not
    /// decode (foreign or corrupted store directory).
    pub fn recover_events(store_cfg: &StoreConfig) -> Result<Vec<AlarmEvent>> {
        let (_store, recovery) = Store::open(store_cfg.clone())
            .map_err(|e| Error::Io(format!("event store open: {e}")))?;
        let mut events = Vec::new();
        if let Some(blob) = &recovery.snapshot {
            let mut r = persist::Reader::new(blob);
            let version = r.u8()?;
            if version != FLEET_SNAPSHOT_VERSION {
                return Err(Error::invalid(
                    "store",
                    format!("unsupported fleet snapshot version {version}"),
                ));
            }
            let count = r.u64()?;
            for _ in 0..count {
                events.push(decode_alarm_event(&mut r)?);
            }
            r.finish()?;
        }
        for entry in &recovery.entries {
            let mut r = persist::Reader::new(&entry.payload);
            events.push(decode_alarm_event(&mut r)?);
            r.finish()?;
        }
        Ok(events)
    }
}

/// Sweeps a shard may run without publishing its watermark (see the
/// module docs for when it publishes sooner).
const WATERMARK_EVERY: u32 = 64;

/// One shard's whole life: sweep its machines round-robin, gate and
/// detect every counter sample, vote, and publish events + watermarks.
fn shard_loop(
    shard_id: usize,
    mut machines: Vec<ShardMachine>,
    cfg: &FleetConfig,
    tx: &mpsc::SyncSender<ShardMsg>,
    decisions: Option<mpsc::Receiver<RestartDecision>>,
) {
    let mut telemetry_dropped = 0u64;
    let mut seq = 0u64;
    let mut next_status = cfg.status_every_secs;
    // Scratch buffers reused across samples so the hot path stays
    // allocation-free: one the perturber (if any) expands each raw sample
    // into, one the pipeline appends its events to.
    let mut scratch: Vec<crate::source::StreamSample> = Vec::new();
    let mut pipeline_events: Vec<PipelineEvent> = Vec::new();
    // The watermark the merge side has not seen yet, and the sweeps since
    // the last one it has.
    let mut unpublished: Option<f64> = None;
    let mut quiet_sweeps = 0u32;

    loop {
        // Apply restart verdicts before sweeping. When every live
        // machine is parked the shard has nothing to step, so it blocks
        // on the verdict channel instead of spinning; progress is
        // guaranteed because the globally earliest pending request is
        // always decidable (every shard's watermark reaches it).
        if let Some(rx) = &decisions {
            loop {
                match rx.try_recv() {
                    Ok(d) => apply_restart_decision(&mut machines, d),
                    Err(mpsc::TryRecvError::Empty) => {
                        let live = machines.iter().filter(|m| !m.finished);
                        let mut any = false;
                        let all_parked = live.inspect(|_| any = true).all(|m| m.parked);
                        if any && all_parked {
                            // The frontier must see this shard's parked
                            // requests before it can decide them.
                            if let Some(time_secs) = unpublished.take() {
                                let msg = ShardMsg::Watermark {
                                    shard: shard_id,
                                    time_secs,
                                };
                                if tx.send(msg).is_err() {
                                    return;
                                }
                            }
                            match rx.recv() {
                                Ok(d) => apply_restart_decision(&mut machines, d),
                                Err(_) => return, // supervisor gone
                            }
                        } else {
                            break;
                        }
                    }
                    Err(mpsc::TryRecvError::Disconnected) => {
                        if machines.iter().any(|m| !m.finished && m.parked) {
                            return; // verdicts can never arrive now
                        }
                        break;
                    }
                }
            }
        }

        let mut events = Vec::new();
        let mut requested = false;
        for m in machines.iter_mut().filter(|m| !m.finished && !m.parked) {
            let Some(sample) = m.next_sample(cfg.horizon_secs) else {
                if cfg.rejuv.is_some() {
                    if let Some(crash_t) = m.pending_crash_secs.take() {
                        // Closed loop: the crash becomes a forced repair
                        // request instead of ending the feed. The machine
                        // emitted nothing between its last sample and the
                        // crash, so lifting its clock to the crash time
                        // keeps the watermark truthful (and lets the
                        // frontier reach the request).
                        m.last_time_secs = crash_t;
                        m.parked = true;
                        let request = RestartRequest {
                            machine_index: m.index,
                            time_secs: crash_t,
                            reason: RestartReason::CrashReboot,
                        };
                        requested = true;
                        if tx
                            .send(ShardMsg::Restart {
                                shard: shard_id,
                                request,
                            })
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                }
                m.finished = true;
                continue;
            };
            m.samples += 1;
            let time_secs = sample.time.as_secs();
            m.last_time_secs = time_secs;
            pipeline_events.clear();
            for (stream, d) in cfg.detectors.iter().enumerate() {
                if m.pipeline.stream_disabled(stream) {
                    continue;
                }
                let raw = crate::source::StreamSample {
                    time_secs,
                    value: sample.value(d.counter),
                };
                // The perturber may corrupt, duplicate or swallow the raw
                // sample; the event timestamp stays the true machine time
                // either way, so watermark ordering is untouched.
                scratch.clear();
                match m.perturbers[stream].as_mut() {
                    Some(p) => p.perturb(raw, &mut scratch),
                    None => scratch.push(raw),
                }
                for perturbed in scratch.drain(..) {
                    m.pipeline
                        .push_record(stream, perturbed, time_secs, &mut pipeline_events);
                }
            }
            m.pipeline.end_tick(time_secs, &mut pipeline_events);
            for pe in pipeline_events.drain(..) {
                events.push(AlarmEvent {
                    machine_index: m.index,
                    machine: m.name.clone(),
                    time_secs: pe.time_secs,
                    level: pe.level,
                    kind: pe.kind,
                });
            }

            // Planned restart requests: the shard prefilters on its local
            // cooldown mirror (so it only asks when the controller could
            // plausibly grant) and parks the machine until the verdict.
            if let Some(rejuv) = &cfg.rejuv {
                let reason = match rejuv.policy {
                    RejuvPolicy::None => None,
                    RejuvPolicy::Periodic { period_secs } => (time_secs - m.last_restart_secs
                        >= period_secs)
                        .then_some(RestartReason::Periodic),
                    RejuvPolicy::AlarmTriggered => (m.pipeline.is_fused()
                        && time_secs - m.last_restart_secs >= rejuv.cooldown_secs)
                        .then_some(RestartReason::Alarm),
                };
                if let Some(reason) = reason {
                    if time_secs >= m.retry_after_secs {
                        m.parked = true;
                        let request = RestartRequest {
                            machine_index: m.index,
                            time_secs,
                            reason,
                        };
                        requested = true;
                        if tx
                            .send(ShardMsg::Restart {
                                shard: shard_id,
                                request,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            }
        }

        // Lossless path: block when the queue is full (backpressure).
        let sent = requested || !events.is_empty();
        for event in events {
            seq += 1;
            if tx.send(ShardMsg::Event { seq, event }).is_err() {
                return; // supervisor gone
            }
        }

        let live = machines.iter().filter(|m| !m.finished).count();
        let watermark = machines
            .iter()
            .filter(|m| !m.finished)
            .map(|m| m.last_time_secs)
            .fold(f64::INFINITY, f64::min);

        let telemetry = |wm: f64, dropped: u64| {
            let mut counters = StageCounters::default();
            let mut latency = LatencyHistogram::default();
            let mut detector_errors = 0u64;
            for m in &machines {
                counters.merge(&m.pipeline.counters());
                latency.merge(m.pipeline.latency());
                detector_errors += m.pipeline.detector_errors();
            }
            Box::new(ShardTelemetry {
                stream_time_secs: if wm.is_finite() { wm } else { 0.0 },
                live,
                finished: machines.len() - live,
                counters,
                latency,
                telemetry_dropped: dropped,
                detector_errors,
            })
        };

        if live == 0 {
            let outcomes = machines
                .iter()
                .map(|m| {
                    // An open-loop terminal crash leaves the machine dead
                    // from the crash to the horizon; closed-loop repairs
                    // already accrued their downtime on the machine.
                    let mut downtime_secs = m.machine.downtime_secs();
                    if m.machine.is_crashed() {
                        if let Some(t) = m.crash_time_secs {
                            downtime_secs += (cfg.horizon_secs - t).max(0.0);
                        }
                    }
                    MachineOutcome {
                        machine_index: m.index,
                        machine: m.name.clone(),
                        crash_time_secs: m.crash_time_secs,
                        samples: m.samples,
                        restarts: m.restarts,
                        crashes: m.crashes + u64::from(m.machine.is_crashed()),
                        downtime_secs,
                    }
                })
                .collect();
            let last_time = machines
                .iter()
                .map(|m| m.last_time_secs)
                .fold(0.0, f64::max);
            let _ = tx.send(ShardMsg::Done {
                shard: shard_id,
                telemetry: telemetry(last_time, telemetry_dropped),
                outcomes,
            });
            return;
        }

        let status_due = watermark >= next_status;
        quiet_sweeps += 1;
        if sent || status_due || quiet_sweeps >= WATERMARK_EVERY {
            unpublished = None;
            quiet_sweeps = 0;
            if tx
                .send(ShardMsg::Watermark {
                    shard: shard_id,
                    time_secs: watermark,
                })
                .is_err()
            {
                return;
            }
        } else {
            unpublished = Some(watermark);
        }

        // Lossy path: shed telemetry rather than stall detection.
        if status_due {
            while watermark >= next_status {
                next_status += cfg.status_every_secs;
            }
            if let Err(mpsc::TrySendError::Full(_)) = tx.try_send(ShardMsg::Telemetry {
                shard: shard_id,
                telemetry: telemetry(watermark, telemetry_dropped),
            }) {
                telemetry_dropped += 1;
            }
        }
    }
}

/// Supervisor-side state of the closed rejuvenation loop: the arbiter
/// itself plus the per-shard verdict channels and the display names the
/// synthesized restart events carry.
struct RestartArbiter {
    controller: RejuvController,
    decision_txs: Vec<mpsc::Sender<RestartDecision>>,
    machine_names: Vec<String>,
    /// Pending requests, kept sorted by `(time, machine)` — the order
    /// decisions must be made in for determinism across shard counts.
    pending: Vec<(usize, RestartRequest)>,
}

impl RestartArbiter {
    /// Buffers one request in `(time, machine)` order.
    fn enqueue(&mut self, shard: usize, request: RestartRequest) {
        let pos = self.pending.partition_point(|(_, r)| {
            (r.time_secs, r.machine_index) <= (request.time_secs, request.machine_index)
        });
        self.pending.insert(pos, (shard, request));
    }
}

/// Decides every pending request the frontier has reached (all of them
/// when `force` is set, for the final error-path flush), releasing the
/// merged history up to each arbitration point first so the journaled
/// stream stays globally time-ordered around the restart events.
///
/// Two invariants make the decision order deterministic: a shard sends a
/// request *before* the watermark that could lift the frontier to it
/// (FIFO), and a parked machine pins its shard's watermark at the
/// request time — so the frontier can never pass a request that is not
/// yet pending, and requests are always decided in `(time, machine)`
/// order no matter how shards interleave.
#[allow(clippy::too_many_arguments)]
fn arbitrate(
    arb: &mut RestartArbiter,
    merger: &mut WatermarkMerger<AlarmEvent>,
    force: bool,
    released: &mut Vec<AlarmEvent>,
    warnings: &mut u64,
    alarms: &mut u64,
    on_alarm: &mut dyn FnMut(&AlarmEvent),
) {
    while let Some(&(shard, request)) = arb.pending.first() {
        if !force && !(request.time_secs <= merger.frontier()) {
            break;
        }
        while let Some(event) = merger.pop_ready_until(request.time_secs) {
            match event.level {
                AlertLevel::Warning => *warnings += 1,
                AlertLevel::Alarm => *alarms += 1,
            }
            on_alarm(&event);
            released.push(event);
        }
        let decision = arb.controller.decide(&request);
        if decision.granted {
            let event = AlarmEvent {
                machine_index: request.machine_index,
                machine: arb
                    .machine_names
                    .get(request.machine_index)
                    .cloned()
                    .unwrap_or_default(),
                time_secs: request.time_secs,
                // A planned restart is an operator action (Warning); a
                // crash repair is the incident itself (Alarm).
                level: if request.reason == RestartReason::CrashReboot {
                    AlertLevel::Alarm
                } else {
                    AlertLevel::Warning
                },
                kind: AlarmKind::Restart {
                    reason: request.reason,
                    downtime_secs: decision.downtime_secs,
                },
            };
            match event.level {
                AlertLevel::Warning => *warnings += 1,
                AlertLevel::Alarm => *alarms += 1,
            }
            on_alarm(&event);
            released.push(event);
        }
        let _ = arb.decision_txs[shard].send(decision);
        arb.pending.remove(0);
    }
}

/// The supervisor side: merge shard streams into one ordered event
/// sequence using the shard watermarks (via the shared
/// [`WatermarkMerger`]), arbitrate restart requests on it, and aggregate
/// telemetry.
fn merge_loop(
    shard_count: usize,
    rx: mpsc::Receiver<ShardMsg>,
    mut arbiter: Option<RestartArbiter>,
    on_alarm: &mut impl FnMut(&AlarmEvent),
    on_status: &mut impl FnMut(&StatusSnapshot),
) -> FleetReport {
    let mut latest_tel: Vec<Option<Box<ShardTelemetry>>> = (0..shard_count).map(|_| None).collect();
    let mut merger: WatermarkMerger<AlarmEvent> = WatermarkMerger::new(shard_count);
    let mut released = Vec::new();
    let mut outcomes = Vec::new();
    let mut warnings = 0u64;
    let mut alarms = 0u64;
    let mut sequence = 0u64;

    // `drain` pops past the frontier — only for the final flush once
    // every shard has hung up.
    let release = |merger: &mut WatermarkMerger<AlarmEvent>,
                   drain: bool,
                   released: &mut Vec<AlarmEvent>,
                   warnings: &mut u64,
                   alarms: &mut u64,
                   on_alarm: &mut dyn FnMut(&AlarmEvent)| {
        while let Some(event) = if drain {
            merger.pop_any()
        } else {
            merger.pop_ready()
        } {
            match event.level {
                AlertLevel::Warning => *warnings += 1,
                AlertLevel::Alarm => *alarms += 1,
            }
            on_alarm(&event);
            released.push(event);
        }
    };

    let build_snapshot = |sequence: u64,
                          latest_tel: &[Option<Box<ShardTelemetry>>],
                          heap_len: usize,
                          warnings: u64,
                          alarms: u64,
                          restarts_granted: u64,
                          restarts_denied: u64| {
        let mut ingestion = StageCounters::default();
        let mut latency = LatencyHistogram::default();
        let mut live = 0;
        let mut finished = 0;
        let mut dropped = 0;
        let mut errors = 0;
        let mut t = 0.0f64;
        for tel in latest_tel.iter().flatten() {
            ingestion.merge(&tel.counters);
            latency.merge(&tel.latency);
            live += tel.live;
            finished += tel.finished;
            dropped += tel.telemetry_dropped;
            errors += tel.detector_errors;
            t = t.max(tel.stream_time_secs);
        }
        StatusSnapshot {
            sequence,
            stream_time_secs: t,
            machines_live: live,
            machines_finished: finished,
            ingestion,
            detector_latency: latency,
            warnings_emitted: warnings,
            alarms_emitted: alarms,
            alarm_queue_depth: heap_len,
            telemetry_dropped: dropped,
            detector_errors: errors,
            restarts_granted,
            restarts_denied,
        }
    };

    // Restart tallies for telemetry; `(granted, denied)`.
    let restart_tallies = |arbiter: &Option<RestartArbiter>| {
        arbiter.as_ref().map_or((0, 0), |a| {
            (
                a.controller.granted(),
                a.controller.denied_cooldown() + a.controller.denied_budget(),
            )
        })
    };

    for msg in rx {
        match msg {
            ShardMsg::Event { seq, event } => merger.push(
                MergeKey {
                    time_secs: event.time_secs,
                    lane: event.machine_index as u64,
                    seq,
                },
                event,
            ),
            ShardMsg::Watermark { shard, time_secs } => {
                merger.advance(shard, time_secs);
                if let Some(arb) = arbiter.as_mut() {
                    arbitrate(
                        arb,
                        &mut merger,
                        false,
                        &mut released,
                        &mut warnings,
                        &mut alarms,
                        on_alarm,
                    );
                }
                release(
                    &mut merger,
                    false,
                    &mut released,
                    &mut warnings,
                    &mut alarms,
                    on_alarm,
                );
            }
            ShardMsg::Restart { shard, request } => {
                if let Some(arb) = arbiter.as_mut() {
                    arb.enqueue(shard, request);
                    arbitrate(
                        arb,
                        &mut merger,
                        false,
                        &mut released,
                        &mut warnings,
                        &mut alarms,
                        on_alarm,
                    );
                }
            }
            ShardMsg::Telemetry { shard, telemetry } => {
                latest_tel[shard] = Some(telemetry);
                sequence += 1;
                let (granted, denied) = restart_tallies(&arbiter);
                let snap = build_snapshot(
                    sequence,
                    &latest_tel,
                    merger.len(),
                    warnings,
                    alarms,
                    granted,
                    denied,
                );
                on_status(&snap);
            }
            ShardMsg::Done {
                shard,
                telemetry,
                outcomes: shard_outcomes,
            } => {
                merger.finish(shard);
                latest_tel[shard] = Some(telemetry);
                outcomes.extend(shard_outcomes);
                if let Some(arb) = arbiter.as_mut() {
                    arbitrate(
                        arb,
                        &mut merger,
                        false,
                        &mut released,
                        &mut warnings,
                        &mut alarms,
                        on_alarm,
                    );
                }
                release(
                    &mut merger,
                    false,
                    &mut released,
                    &mut warnings,
                    &mut alarms,
                    on_alarm,
                );
            }
        }
    }

    // Every shard has hung up: decide any still-pending requests (their
    // shards died mid-park — error paths only), then flush the heap.
    if let Some(arb) = arbiter.as_mut() {
        arbitrate(
            arb,
            &mut merger,
            true,
            &mut released,
            &mut warnings,
            &mut alarms,
            on_alarm,
        );
    }
    release(
        &mut merger,
        true,
        &mut released,
        &mut warnings,
        &mut alarms,
        on_alarm,
    );
    sequence += 1;
    let (granted, denied) = restart_tallies(&arbiter);
    let status = build_snapshot(
        sequence,
        &latest_tel,
        merger.len(),
        warnings,
        alarms,
        granted,
        denied,
    );
    on_status(&status);
    FleetReport {
        events: released,
        outcomes,
        decisions: arbiter.map_or_else(Vec::new, |a| a.controller.decisions().to_vec()),
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorSpec;
    use aging_core::baseline::TrendPredictorConfig;

    /// A cheap trend detector suited to the 5-second tiny-machine feed.
    fn trend_spec() -> DetectorSpec {
        DetectorSpec::Trend(TrendPredictorConfig {
            window: 120,
            refit_every: 8,
            alarm_horizon_secs: 900.0,
            ..TrendPredictorConfig::depleting(5.0)
        })
    }

    fn fleet_config(horizon_secs: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(
            vec![CounterDetector {
                counter: Counter::AvailableBytes,
                spec: trend_spec(),
            }],
            horizon_secs,
        );
        cfg.gate.nominal_period_secs = 5.0;
        cfg.status_every_secs = 300.0;
        cfg.shards = 3;
        cfg
    }

    #[test]
    fn config_guards() {
        assert!(FleetConfig::new(Vec::new(), 100.0).validate().is_err());
        let mut c = fleet_config(0.0);
        assert!(c.validate().is_err());
        c.horizon_secs = 100.0;
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
        c.queue_capacity = 16;
        c.status_every_secs = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn aging_fleet_alarms_before_crashes() {
        // Aggressive leaks: every machine crashes inside the horizon.
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| Scenario::tiny_aging(100 + i, 192.0))
            .collect();
        let sup = FleetSupervisor::new(fleet_config(8.0 * 3600.0)).unwrap();
        let mut seen = 0usize;
        let mut statuses = 0usize;
        let report = sup
            .run_with(&scenarios, |_| seen += 1, |_| statuses += 1)
            .unwrap();

        assert_eq!(report.events.len(), seen);
        assert!(statuses >= 1, "final snapshot always emitted");
        assert_eq!(report.outcomes.len(), scenarios.len());

        // Globally ordered event stream.
        assert!(report
            .events
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));

        // Every machine crashed, alarmed first, with positive lead time.
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.machine_index, i);
            let crash = outcome.crash_time_secs.expect("leak must crash");
            let lead = report.lead_time_secs(i).expect("alarm before crash");
            assert!(lead > 0.0, "machine {i}: lead {lead} (crash at {crash})");
        }
        assert_eq!(report.machine_alarms().count(), scenarios.len());

        // Telemetry adds up.
        let s = &report.status;
        assert_eq!(s.machines_live, 0);
        assert_eq!(s.machines_finished, scenarios.len());
        assert!(s.ingestion.accepted > 0);
        assert_eq!(s.ingestion.ingested, s.ingestion.accepted);
        assert_eq!(
            s.alarms_emitted as usize,
            report.machine_alarms().count() * 2
        );
        assert_eq!(s.detector_errors, 0);
        assert!(s.detector_latency.total >= s.ingestion.accepted - 1);
    }

    #[test]
    fn healthy_fleet_stays_quiet() {
        let scenarios: Vec<Scenario> = (0..4).map(|i| Scenario::tiny_aging(7 + i, 0.0)).collect();
        let sup = FleetSupervisor::new(fleet_config(2.0 * 3600.0)).unwrap();
        let report = sup.run(&scenarios).unwrap();
        assert_eq!(report.machine_alarms().count(), 0);
        for o in &report.outcomes {
            assert_eq!(o.crash_time_secs, None, "{} crashed", o.machine);
            assert!(o.samples > 0);
        }
        assert_eq!(report.status.alarms_emitted, 0);
    }

    #[test]
    fn a_shard_publishes_its_watermark_once_per_block_of_sweeps() {
        // One shard, three leaking tiny machines and a healthy control
        // for 24 h: a watermark per sweep would be one per row.
        let mut scenarios: Vec<Scenario> = (0..3)
            .map(|i| Scenario::tiny_aging(31 + i, 192.0 + 32.0 * i as f64))
            .collect();
        scenarios.push(Scenario::tiny_aging(34, 0.0));
        let mut cfg = fleet_config(24.0 * 3600.0);
        // Hourly snapshots, so blocks of sweeps, not statuses, set the
        // cadence.
        cfg.status_every_secs = 3600.0;
        let machines = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| ShardMachine::boot(i, s, &cfg).unwrap())
            .collect();
        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_capacity);
        let (mut watermarks, mut statuses, mut sweeps) = (0u64, 0u64, 0u64);
        let mut event_times: Vec<f64> = Vec::new();
        std::thread::scope(|scope| {
            let cfg = &cfg;
            scope.spawn(move || shard_loop(0, machines, cfg, &tx, None));
            for msg in rx {
                match msg {
                    ShardMsg::Event { event, .. } => event_times.push(event.time_secs),
                    ShardMsg::Watermark { .. } => watermarks += 1,
                    ShardMsg::Telemetry { .. } => statuses += 1,
                    ShardMsg::Done { outcomes, .. } => {
                        // Every sweep steps each live machine one row;
                        // the last one finds none left.
                        sweeps = 1 + outcomes.iter().map(|o| o.samples).max().unwrap();
                    }
                    ShardMsg::Restart { .. } => panic!("open loop"),
                }
            }
        });
        event_times.dedup();
        assert!(!event_times.is_empty(), "the leaking machines alarm");
        let bound =
            sweeps.div_ceil(u64::from(WATERMARK_EVERY)) + event_times.len() as u64 + statuses + 1;
        assert!(
            watermarks <= bound,
            "{watermarks} watermarks over {sweeps} sweeps (bound {bound})"
        );
    }

    /// A store directory wiped on create and drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("aging-fleetstore-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn store_backed_run_round_trips_its_event_history() {
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| Scenario::tiny_aging(400 + i, 192.0))
            .collect();
        let dir = TempDir::new("roundtrip");
        let store_cfg = aging_store::StoreConfig::new(&dir.0);
        let mut cfg = fleet_config(8.0 * 3600.0);
        cfg.store = Some(store_cfg.clone());
        let report = FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap();
        assert!(!report.events.is_empty(), "leaky fleet must alarm");

        // The completed run compacted everything into the snapshot.
        let recovered = FleetSupervisor::recover_events(&store_cfg).unwrap();
        assert_eq!(recovered, report.events);

        // A crash mid-(second-)run leaves journal entries after the
        // snapshot; recovery returns snapshot + suffix in order.
        let (mut store, _) = aging_store::Store::open(store_cfg.clone()).unwrap();
        let extra = report.events.last().unwrap().clone();
        let mut payload = Vec::new();
        encode_alarm_event(&extra, &mut payload);
        store.append(&payload).unwrap();
        drop(store);
        let recovered = FleetSupervisor::recover_events(&store_cfg).unwrap();
        assert_eq!(recovered.len(), report.events.len() + 1);
        assert_eq!(recovered.last().unwrap(), &extra);

        // Holder-detail events survive the codec too (not just trend).
        let holder_event = AlarmEvent {
            machine_index: 9,
            machine: "m009:probe".to_string(),
            time_secs: 123.5,
            level: AlertLevel::Alarm,
            kind: AlarmKind::Detector {
                counter: Counter::AvailableBytes,
                detector: "holder-dimension",
                detail: AlertDetail::Holder(Alert {
                    sample_index: 41,
                    level: AlertLevel::Alarm,
                    trigger: aging_core::detector::Trigger::Both,
                    dimension: 1.25,
                    mean_holder: 0.5,
                    dimension_baseline: 1.0,
                    holder_baseline: 0.75,
                }),
            },
        };
        let mut payload = Vec::new();
        encode_alarm_event(&holder_event, &mut payload);
        let mut r = persist::Reader::new(&payload);
        let decoded = decode_alarm_event(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, holder_event);
    }

    #[test]
    fn event_stream_is_deterministic_across_runs() {
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| Scenario::tiny_aging(200 + i, 192.0))
            .collect();
        let run = |shards: usize| {
            let mut cfg = fleet_config(8.0 * 3600.0);
            cfg.shards = shards;
            FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap()
        };
        let a = run(2);
        let b = run(5);
        assert_eq!(a.events, b.events, "order must not depend on sharding");
        assert_eq!(a.outcomes, b.outcomes);
    }

    /// A deterministic test perturber: every 17th sample becomes NaN,
    /// every 23rd is followed by a stale duplicate.
    struct NastyFeed {
        n: u64,
        last: Option<crate::source::StreamSample>,
    }

    impl SamplePerturber for NastyFeed {
        fn perturb(
            &mut self,
            raw: crate::source::StreamSample,
            out: &mut Vec<crate::source::StreamSample>,
        ) {
            self.n += 1;
            if self.n.is_multiple_of(17) {
                out.push(crate::source::StreamSample {
                    value: f64::NAN,
                    ..raw
                });
                // The real reading still arrives afterwards.
            }
            out.push(raw);
            if self.n.is_multiple_of(23) {
                // Retransmission of the previous sample (out of order).
                if let Some(stale) = self.last {
                    out.push(stale);
                }
            }
            self.last = Some(raw);
        }
    }

    #[test]
    fn perturbed_fleet_reconciles_and_stays_deterministic() {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::tiny_aging(300 + i, 192.0))
            .collect();
        let run = |shards: usize| {
            let mut cfg = fleet_config(8.0 * 3600.0);
            cfg.shards = shards;
            cfg.perturb = Some(std::sync::Arc::new(|_, _| {
                Box::new(NastyFeed { n: 0, last: None })
            }));
            FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap()
        };
        let a = run(2);
        // Defects were injected and accounted for, exactly.
        let s = &a.status.ingestion;
        assert!(s.dropped_non_finite > 0, "NaNs injected");
        assert!(s.dropped_out_of_order > 0, "stale duplicates injected");
        assert_eq!(s.ingested, s.accepted + s.dropped());
        // Gate repair preserves detection: every leaking machine still
        // alarms ahead of its crash.
        for (i, o) in a.outcomes.iter().enumerate() {
            assert!(o.crash_time_secs.is_some());
            assert!(a.lead_time_secs(i).is_some(), "machine {i} never alarmed");
        }
        // Ordering and cross-shard determinism hold under perturbation.
        assert!(a
            .events
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));
        let b = run(4);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.status.ingestion, b.status.ingestion);
    }

    fn rejuv_config(policy: RejuvPolicy) -> RejuvConfig {
        RejuvConfig {
            policy,
            cooldown_secs: 900.0,
            restart_downtime_secs: 30.0,
            crash_repair_secs: 900.0,
            max_concurrent_restarts: 2,
        }
    }

    #[test]
    fn alarm_triggered_loop_restarts_and_accounts_downtime() {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::tiny_aging(500 + i, 192.0))
            .collect();
        let horizon = 8.0 * 3600.0;
        let mut cfg = fleet_config(horizon);
        cfg.rejuv = Some(rejuv_config(RejuvPolicy::AlarmTriggered));
        let report = FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap();

        // The loop closed: restarts were granted and landed inside the
        // globally ordered event stream.
        let restarts: Vec<&AlarmEvent> = report.restart_events().collect();
        assert!(
            !restarts.is_empty(),
            "aggressive leak must trigger restarts"
        );
        assert!(report
            .events
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));

        // One restart event per granted decision, and telemetry agrees.
        let granted = report.decisions.iter().filter(|d| d.granted).count();
        assert_eq!(granted, restarts.len());
        assert_eq!(report.status.restarts_granted as usize, granted);
        assert_eq!(
            report.status.restarts_denied as usize,
            report.decisions.iter().filter(|d| !d.granted).count()
        );

        // Outcome counters reconcile with the decision log.
        let planned = report
            .decisions
            .iter()
            .filter(|d| d.granted && d.reason != RestartReason::CrashReboot)
            .count();
        let reboots = granted - planned;
        let outcome_restarts: u64 = report.outcomes.iter().map(|o| o.restarts).sum();
        let outcome_crashes: u64 = report.outcomes.iter().map(|o| o.crashes).sum();
        assert_eq!(outcome_restarts as usize, planned);
        assert_eq!(outcome_crashes as usize, reboots);

        // Cooldown holds per machine across granted planned restarts.
        for i in 0..scenarios.len() {
            let mut last: Option<f64> = None;
            for d in report
                .decisions
                .iter()
                .filter(|d| d.machine_index == i && d.granted)
            {
                if let Some(prev) = last {
                    assert!(
                        d.reason == RestartReason::CrashReboot || d.time_secs - prev >= 900.0,
                        "machine {i}: planned restart at {} within cooldown of {prev}",
                        d.time_secs
                    );
                }
                last = Some(d.time_secs);
            }
        }

        // Downtime is accounted and availability lands in (0, 1].
        let avail = report.availability(horizon).unwrap();
        assert_eq!(avail.machines, scenarios.len());
        assert_eq!(avail.restarts, outcome_restarts);
        assert!(avail.downtime_secs > 0.0, "restarts cost downtime");
        assert!(avail.mean_availability > 0.5 && avail.mean_availability <= 1.0);
    }

    #[test]
    fn restart_decisions_are_identical_across_shard_counts() {
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| Scenario::tiny_aging(600 + i, 192.0))
            .collect();
        let run = |shards: usize| {
            let mut cfg = fleet_config(8.0 * 3600.0);
            cfg.shards = shards;
            cfg.rejuv = Some(rejuv_config(RejuvPolicy::AlarmTriggered));
            FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap()
        };
        let a = run(1);
        let b = run(3);
        let c = run(5);
        assert!(!a.decisions.is_empty());
        assert_eq!(a.decisions, b.decisions, "1 vs 3 shards");
        assert_eq!(a.decisions, c.decisions, "1 vs 5 shards");
        assert_eq!(a.events, b.events);
        assert_eq!(a.events, c.events);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn periodic_policy_restarts_on_schedule_without_alarms() {
        // Healthy fleet: no alarms, so every restart is the cron-style
        // schedule acting alone.
        let scenarios: Vec<Scenario> = (0..3).map(|i| Scenario::tiny_aging(9 + i, 0.0)).collect();
        let horizon = 2.0 * 3600.0;
        let mut cfg = fleet_config(horizon);
        cfg.rejuv = Some(rejuv_config(RejuvPolicy::Periodic {
            period_secs: 3600.0,
        }));
        let report = FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap();
        for o in &report.outcomes {
            assert_eq!(o.crash_time_secs, None, "{} crashed", o.machine);
            assert!(
                o.restarts >= 1,
                "{}: periodic policy never restarted it",
                o.machine
            );
            assert!(o.downtime_secs > 0.0);
        }
        for d in &report.decisions {
            assert_eq!(d.reason, RestartReason::Periodic);
        }
        assert_eq!(report.machine_alarms().count(), 0);
    }

    #[test]
    fn none_policy_on_a_healthy_fleet_matches_the_open_loop() {
        let scenarios: Vec<Scenario> = (0..3).map(|i| Scenario::tiny_aging(21 + i, 0.0)).collect();
        let run = |rejuv: Option<RejuvConfig>| {
            let mut cfg = fleet_config(2.0 * 3600.0);
            cfg.rejuv = rejuv;
            FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap()
        };
        let open = run(None);
        let noop = run(Some(rejuv_config(RejuvPolicy::None)));
        // No crash, no alarm, no restart: the closed loop in `none` mode
        // is byte-for-byte the open loop.
        assert_eq!(open.events, noop.events);
        assert!(noop.decisions.is_empty());
        for (a, b) in open.outcomes.iter().zip(&noop.outcomes) {
            assert_eq!(a.restarts, b.restarts);
            assert_eq!(a.samples, b.samples);
            assert_eq!(b.downtime_secs, 0.0);
        }
    }

    #[test]
    fn store_backed_closed_loop_round_trips_restart_events() {
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| Scenario::tiny_aging(700 + i, 192.0))
            .collect();
        let dir = TempDir::new("rejuv-roundtrip");
        let store_cfg = aging_store::StoreConfig::new(&dir.0);
        let mut cfg = fleet_config(8.0 * 3600.0);
        cfg.store = Some(store_cfg.clone());
        cfg.rejuv = Some(rejuv_config(RejuvPolicy::AlarmTriggered));
        let report = FleetSupervisor::new(cfg).unwrap().run(&scenarios).unwrap();
        assert!(
            report.restart_events().count() > 0,
            "restart actions must be journaled"
        );
        // acked ⇒ durable holds for restart actions too: recovery
        // replays the identical history, restart events included.
        let recovered = FleetSupervisor::recover_events(&store_cfg).unwrap();
        assert_eq!(recovered, report.events);
    }
}
