//! Per-machine detection pipeline: the gate → detector → fusion core of
//! the fleet supervisor, factored out so *any* transport can feed it one
//! sample at a time.
//!
//! A [`MachinePipeline`] owns one machine's counter streams — one
//! [`SampleGate`] and one [`StreamingDetector`] per monitored counter —
//! plus the machine-level [`FusionRule`] vote. It is the single shared
//! implementation behind two callers:
//!
//! - the in-process [`crate::supervisor::FleetSupervisor`], which steps
//!   simulated machines itself and knows exactly when a monitor *tick*
//!   (one sample of every counter at one timestamp) is complete, and
//! - the networked ingestion server (`aging-serve`), which receives
//!   `(machine, counter, time, value)` records one at a time over TCP
//!   and cannot see tick boundaries directly.
//!
//! Because both paths run the identical pipeline code on the identical
//! sample sequences, the network layer is alarm-for-alarm equivalent to
//! the offline supervisor *by construction* — the E14 parity experiment
//! turns that equivalence into a hard byte-identity gate.
//!
//! # Tick semantics
//!
//! Fusion votes are evaluated once per tick, after every counter's sample
//! of that tick has been consumed. The supervisor calls [`end_tick`]
//! explicitly. The record-at-a-time path uses [`ingest`], which infers
//! tick boundaries from the sample clock: a record with a strictly later
//! timestamp completes the previous tick (running its deferred fusion
//! vote first, so emission order matches the supervisor's), and
//! [`finish`] completes the final tick when the feed ends. The deferred
//! vote is why [`completed_time_secs`] — the watermark up to which this
//! machine's event stream is final — trails the newest sample by one
//! tick on the incremental path.
//!
//! [`end_tick`]: MachinePipeline::end_tick
//! [`ingest`]: MachinePipeline::ingest
//! [`finish`]: MachinePipeline::finish
//! [`completed_time_secs`]: MachinePipeline::completed_time_secs

use std::time::Instant;

use aging_core::fusion::FusionRule;
use aging_memsim::Counter;
use aging_timeseries::Result;

use crate::detector::{AlertDetail, DetectorSpec, StreamingDetector};
use crate::gate::{GateAction, GateConfig, GateHealth, SampleGate};
use crate::source::StreamSample;
use crate::telemetry::{CounterStreamSnapshot, LatencyHistogram, MachineSnapshot, StageCounters};

pub use aging_core::detector::AlertLevel;

/// One counter to monitor on a machine, and the detector to run on it.
#[derive(Debug, Clone)]
pub struct CounterDetector {
    /// The monitored counter.
    pub counter: Counter,
    /// The detector family and tuning for this counter.
    pub spec: DetectorSpec,
}

/// What fired: a single detector, or the machine-level fused vote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlarmKind {
    /// One counter's detector emitted an alert.
    Detector {
        /// The counter that triggered.
        counter: Counter,
        /// Stable detector-family name (see [`DetectorSpec::name`]).
        detector: &'static str,
        /// The detector's measurements.
        detail: AlertDetail,
    },
    /// The fusion rule's vote threshold was reached for a machine.
    MachineAlarm {
        /// Counters whose detectors had latched alarms.
        votes: usize,
        /// Counters voting in total.
        members: usize,
    },
    /// A rejuvenation restart was granted and applied to the machine —
    /// emitted by the supervisor's arbitration loop, not by the
    /// pipeline itself, but part of the same ordered alarm stream.
    Restart {
        /// Why the restart fired.
        reason: aging_rejuv::RestartReason,
        /// Seconds the machine was held down by this restart.
        downtime_secs: f64,
    },
}

impl AlarmKind {
    /// Tag of an [`AlarmKind::Detector`] event.
    pub const DETECTOR_TAG: u8 = 0;
    /// Tag of an [`AlarmKind::MachineAlarm`] event.
    pub const MACHINE_ALARM_TAG: u8 = 1;
    /// Tag of an [`AlarmKind::Restart`] event.
    pub const RESTART_TAG: u8 = 2;

    /// The kind's tag, which leads the kind in both alarm codecs: the
    /// wire's event codec and the supervisor's persisted history. The two
    /// lay out the rest of an event differently; the tags are part of
    /// both formats.
    pub fn tag(&self) -> u8 {
        match self {
            AlarmKind::Detector { .. } => AlarmKind::DETECTOR_TAG,
            AlarmKind::MachineAlarm { .. } => AlarmKind::MACHINE_ALARM_TAG,
            AlarmKind::Restart { .. } => AlarmKind::RESTART_TAG,
        }
    }
}

/// One event produced by a machine pipeline.
///
/// `time_secs` is the *true* stream time of the tick that produced the
/// event — for the supervisor path that is the machine's monitor clock
/// even when a perturber rewrote the sample's own timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineEvent {
    /// Stream time of the sample/tick that produced the event, seconds.
    pub time_secs: f64,
    /// Severity.
    pub level: AlertLevel,
    /// What fired.
    pub kind: AlarmKind,
}

/// One counter stream: gate, detector and its poisoned flag.
#[derive(Debug)]
struct CounterStream {
    counter: Counter,
    detector_name: &'static str,
    gate: SampleGate,
    detector: StreamingDetector,
    /// Poisoned by an estimator error; keeps its latched vote but stops
    /// consuming samples.
    disabled: bool,
}

/// Scratch buffers for [`MachinePipeline::ingest_column`], reused across
/// columns so the hot path stays allocation-free. Transient by contract:
/// cleared-and-refilled per column and deliberately absent from
/// [`MachinePipeline::encode_state`].
#[derive(Debug, Default)]
struct ColumnScratch {
    /// `(offset of the sample opening the next tick, completed tick time)`.
    boundaries: Vec<(usize, f64)>,
    /// Indices of streams monitoring the column's counter.
    matching: Vec<usize>,
    /// Alarm latch per matching stream at the current replay point.
    flags: Vec<bool>,
    /// Gate-accepted values for the stream currently being processed.
    accepted: Vec<f64>,
    /// Column offset of each accepted value (parallel to `accepted`).
    offsets: Vec<u32>,
    /// `(start, len, reset_before)` runs into `accepted`, split where the
    /// gate demanded a detector reset.
    runs: Vec<(usize, usize, bool)>,
    /// Per-run alert staging for [`StreamingDetector::push_slice`].
    alerts: Vec<(usize, crate::detector::StreamAlert)>,
    /// Alarm-latch transitions: `(offset, matching position, new state)`.
    latch: Vec<(usize, usize, bool)>,
    /// Events staged for ordered emission:
    /// `(offset, phase 0=fusion 1=detector, stream index, event)`.
    staged: Vec<(usize, u8, usize, PipelineEvent)>,
}

/// The gate → detector → fusion pipeline for one machine.
#[derive(Debug)]
pub struct MachinePipeline {
    streams: Vec<CounterStream>,
    fusion: FusionRule,
    fused: bool,
    latency: LatencyHistogram,
    detector_errors: u64,
    /// Tick currently being filled on the incremental ([`ingest`]) path.
    ///
    /// [`ingest`]: MachinePipeline::ingest
    tick_time: Option<f64>,
    /// Newest tick whose events are final (watermark), `-inf` initially.
    completed_time: f64,
    finished: bool,
    column_scratch: ColumnScratch,
}

impl MachinePipeline {
    /// Builds the pipeline: one gate + detector per entry of `detectors`.
    ///
    /// # Errors
    ///
    /// Propagates [`GateConfig::validate`] and detector-constructor
    /// failures; rejects an empty detector list.
    pub fn new(
        detectors: &[CounterDetector],
        fusion: FusionRule,
        gate: GateConfig,
    ) -> Result<Self> {
        if detectors.is_empty() {
            return Err(aging_timeseries::Error::invalid(
                "detectors",
                "need at least one counter",
            ));
        }
        let streams = detectors
            .iter()
            .map(|d| {
                Ok(CounterStream {
                    counter: d.counter,
                    detector_name: d.spec.name(),
                    gate: SampleGate::new(gate)?,
                    detector: StreamingDetector::new(&d.spec)?,
                    disabled: false,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MachinePipeline {
            streams,
            fusion,
            fused: false,
            latency: LatencyHistogram::default(),
            detector_errors: 0,
            tick_time: None,
            completed_time: f64::NEG_INFINITY,
            finished: false,
            column_scratch: ColumnScratch::default(),
        })
    }

    /// Feeds one sample to the counter stream at `stream` (an index into
    /// the `detectors` slice the pipeline was built from), appending any
    /// detector events to `out`.
    ///
    /// `true_time_secs` is the stream time stamped onto events — pass the
    /// machine's real monitor clock, which may differ from
    /// `sample.time_secs` when a perturber corrupted the sample.
    ///
    /// **Deprecated in favor of the unified ingestion surface** — new
    /// code should go through [`MachinePipeline::ingest`] (which infers
    /// tick boundaries) or [`MachinePipeline::ingest_column`] for whole
    /// columns; this low-level single-stream entry stays (not removed)
    /// for callers that manage tick boundaries themselves, like the
    /// supervisor's shard loop.
    pub fn push_record(
        &mut self,
        stream: usize,
        sample: StreamSample,
        true_time_secs: f64,
        out: &mut Vec<PipelineEvent>,
    ) {
        let cs = &mut self.streams[stream];
        if cs.disabled {
            return;
        }
        let accepted = match cs.gate.push(sample) {
            GateAction::Accept(s) => s,
            GateAction::AcceptAfterGap(s) => {
                cs.detector.reset();
                s
            }
            GateAction::DropNonFinite | GateAction::DropOutOfOrder => return,
        };
        let started = Instant::now();
        let alert = cs.detector.push(accepted.value);
        self.latency.record(started.elapsed());
        match alert {
            Ok(Some(alert)) => out.push(PipelineEvent {
                time_secs: true_time_secs,
                level: alert.level,
                kind: AlarmKind::Detector {
                    counter: cs.counter,
                    detector: cs.detector_name,
                    detail: alert.detail,
                },
            }),
            Ok(None) => {}
            Err(_) => {
                self.detector_errors += 1;
                cs.disabled = true;
            }
        }
    }

    /// Completes one tick: evaluates the fusion vote over the latched
    /// per-counter alarms, appending the machine-level alarm to `out`
    /// the first time the rule fires.
    pub fn end_tick(&mut self, time_secs: f64, out: &mut Vec<PipelineEvent>) {
        self.completed_time = self.completed_time.max(time_secs);
        if self.fused {
            return;
        }
        let members = self.streams.len();
        let votes = self
            .streams
            .iter()
            .filter(|cs| cs.detector.is_alarmed())
            .count();
        if self.fusion.fires(votes, members) {
            self.fused = true;
            out.push(PipelineEvent {
                time_secs,
                level: AlertLevel::Alarm,
                kind: AlarmKind::MachineAlarm { votes, members },
            });
        }
    }

    /// Feeds one `(counter, sample)` record on the incremental path,
    /// routing it to every stream monitoring `counter` and inferring tick
    /// boundaries from the sample clock (see the module docs).
    ///
    /// Records whose counter matches no stream are ignored; records with
    /// a non-finite timestamp never advance the tick clock (the gates
    /// drop them).
    ///
    /// For whole per-counter columns prefer
    /// [`MachinePipeline::ingest_column`], which produces bit-identical
    /// events without the per-record dispatch overhead.
    pub fn ingest(&mut self, counter: Counter, sample: StreamSample, out: &mut Vec<PipelineEvent>) {
        if sample.time_secs.is_finite() {
            match self.tick_time {
                Some(t) if sample.time_secs > t => {
                    self.end_tick(t, out);
                    self.tick_time = Some(sample.time_secs);
                }
                None => self.tick_time = Some(sample.time_secs),
                _ => {}
            }
            // A fresh sample resurrects a feed that was marked ended.
            self.finished = false;
        }
        for i in 0..self.streams.len() {
            if self.streams[i].counter == counter {
                self.push_record(i, sample, sample.time_secs, out);
            }
        }
    }

    /// Feeds one column — `counter` with parallel `times`/`values` — on
    /// the incremental path. State and emitted events are bit-identical
    /// to calling [`ingest`](MachinePipeline::ingest) once per
    /// `(times[k], values[k])` pair, in order, for every detector family
    /// and also when a detector fails mid-column; only telemetry differs
    /// (detector latency is recorded once per gate-accepted run instead
    /// of once per sample).
    ///
    /// Tick boundaries are precomputed, each stream's gate splits the
    /// column into accepted runs, runs go to the detector through
    /// [`StreamingDetector::push_slice`], and the deferred per-tick
    /// fusion votes are replayed afterwards from the recorded alarm-latch
    /// transitions: every family latches its alarm exactly when it emits
    /// its Alarm alert, and only a gate-triggered reset clears it, so the
    /// vote count at every boundary is reconstructible. A detector that
    /// fails stops its stream at the failing sample, as the per-sample
    /// path does: the alerts before that sample are kept, and the gate is
    /// rewound to the column start and replayed through that sample.
    ///
    /// Extra `times` or `values` beyond the shorter slice are ignored.
    pub fn ingest_column(
        &mut self,
        counter: Counter,
        times: &[f64],
        values: &[f64],
        out: &mut Vec<PipelineEvent>,
    ) {
        let n = times.len().min(values.len());
        let mut scratch = std::mem::take(&mut self.column_scratch);
        scratch.matching.clear();
        for (i, cs) in self.streams.iter().enumerate() {
            if cs.counter == counter {
                scratch.matching.push(i);
            }
        }

        // Tick clock pre-pass: identical decisions to the scalar path —
        // `push_record` never reads the clock, and the deferred fusion
        // votes are replayed below.
        scratch.boundaries.clear();
        for (k, &t) in times.iter().enumerate().take(n) {
            if t.is_finite() {
                match self.tick_time {
                    Some(prev) if t > prev => {
                        scratch.boundaries.push((k, prev));
                        self.tick_time = Some(t);
                    }
                    None => self.tick_time = Some(t),
                    _ => {}
                }
                self.finished = false;
            }
        }

        // Alarm state at column start: matching streams get tracked
        // flags; every other stream's vote is constant for this column.
        let mut base_votes = 0usize;
        for (i, cs) in self.streams.iter().enumerate() {
            if !scratch.matching.contains(&i) && cs.detector.is_alarmed() {
                base_votes += 1;
            }
        }
        scratch.flags.clear();
        for &si in &scratch.matching {
            scratch.flags.push(self.streams[si].detector.is_alarmed());
        }

        // Gate + detector pass, one matching stream at a time. Streams
        // are independent state machines, so per-stream processing leaves
        // the same state as the scalar sample-major order; the staged
        // sort below restores sample-major emission order.
        scratch.staged.clear();
        scratch.latch.clear();
        for (pos, &si) in scratch.matching.iter().enumerate() {
            let cs = &mut self.streams[si];
            if cs.disabled {
                continue;
            }
            let gate_at_start = cs.gate.clone();
            scratch.accepted.clear();
            scratch.offsets.clear();
            scratch.runs.clear();
            let mut run_start = 0usize;
            let mut run_reset = false;
            for k in 0..n {
                let sample = StreamSample {
                    time_secs: times[k],
                    value: values[k],
                };
                match cs.gate.push(sample) {
                    GateAction::Accept(s) => {
                        scratch.accepted.push(s.value);
                        scratch.offsets.push(k as u32);
                    }
                    GateAction::AcceptAfterGap(s) => {
                        let len = scratch.accepted.len() - run_start;
                        if len > 0 {
                            scratch.runs.push((run_start, len, run_reset));
                        }
                        run_start = scratch.accepted.len();
                        run_reset = true;
                        scratch.accepted.push(s.value);
                        scratch.offsets.push(k as u32);
                    }
                    GateAction::DropNonFinite | GateAction::DropOutOfOrder => {}
                }
            }
            let len = scratch.accepted.len() - run_start;
            if len > 0 {
                scratch.runs.push((run_start, len, run_reset));
            }

            for &(start, len, reset) in &scratch.runs {
                if reset {
                    cs.detector.reset();
                    scratch
                        .latch
                        .push((scratch.offsets[start] as usize, pos, false));
                }
                let started = Instant::now();
                let res = cs
                    .detector
                    .push_run(&scratch.accepted[start..start + len], &mut scratch.alerts);
                self.latency.record(started.elapsed());
                for (off_in_run, alert) in scratch.alerts.drain(..) {
                    let off = scratch.offsets[start + off_in_run] as usize;
                    if alert.level == AlertLevel::Alarm {
                        scratch.latch.push((off, pos, true));
                    }
                    scratch.staged.push((
                        off,
                        1,
                        si,
                        PipelineEvent {
                            time_secs: times[off],
                            level: alert.level,
                            kind: AlarmKind::Detector {
                                counter: cs.counter,
                                detector: cs.detector_name,
                                detail: alert.detail,
                            },
                        },
                    ));
                }
                if let Err((k, _)) = res {
                    self.detector_errors += 1;
                    cs.disabled = true;
                    // The per-sample path gates up to and including the
                    // failing sample, then skips the disabled stream.
                    let failed = scratch.offsets[start + k] as usize;
                    cs.gate = gate_at_start;
                    for (&time_secs, &value) in times.iter().zip(values).take(failed + 1) {
                        cs.gate.push(StreamSample { time_secs, value });
                    }
                    break;
                }
            }
        }

        // Deferred fusion replay: walk the tick boundaries applying latch
        // transitions strictly before each boundary's sample, exactly the
        // state `end_tick` would have read in the scalar interleaving.
        scratch.latch.sort_by_key(|&(off, pos, _)| (off, pos));
        let mut votes = base_votes + scratch.flags.iter().filter(|&&f| f).count();
        let members = self.streams.len();
        let mut li = 0usize;
        for &(b, t) in &scratch.boundaries {
            while li < scratch.latch.len() && scratch.latch[li].0 < b {
                let (_, pos, state) = scratch.latch[li];
                if scratch.flags[pos] != state {
                    scratch.flags[pos] = state;
                    votes = if state { votes + 1 } else { votes - 1 };
                }
                li += 1;
            }
            self.completed_time = self.completed_time.max(t);
            if !self.fused && self.fusion.fires(votes, members) {
                self.fused = true;
                scratch.staged.push((
                    b,
                    0,
                    0,
                    PipelineEvent {
                        time_secs: t,
                        level: AlertLevel::Alarm,
                        kind: AlarmKind::MachineAlarm { votes, members },
                    },
                ));
            }
        }

        // Emit in scalar order: the boundary vote before sample `b`
        // (phase 0) precedes sample `b`'s detector events (phase 1);
        // same-sample detector events keep stream order.
        scratch
            .staged
            .sort_by_key(|&(off, phase, si, _)| (off, phase, si));
        out.extend(scratch.staged.drain(..).map(|(_, _, _, ev)| ev));
        self.column_scratch = scratch;
    }

    /// Ends the incremental feed: completes the final pending tick (its
    /// deferred fusion vote runs now) and marks the feed finished.
    /// Idempotent; a later [`ingest`](MachinePipeline::ingest) resumes
    /// the feed.
    pub fn finish(&mut self, out: &mut Vec<PipelineEvent>) {
        if self.finished {
            return;
        }
        if let Some(t) = self.tick_time.take() {
            self.end_tick(t, out);
        }
        self.finished = true;
    }

    /// Re-arms the pipeline after a machine restart: every enabled
    /// detector is reset (dropping its window and latched alarm) and the
    /// fused latch cleared, so the machine can alarm again in a later
    /// aging episode. Gates keep their clocks — the post-restart sample
    /// gap goes through the ordinary gap policy like any other outage.
    pub fn rearm(&mut self) {
        for cs in &mut self.streams {
            if !cs.disabled {
                cs.detector.reset();
            }
        }
        self.fused = false;
    }

    /// Whether the machine-level fused alarm has fired.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// Whether the incremental feed has been [`finish`]ed (and not
    /// resumed since).
    ///
    /// [`finish`]: MachinePipeline::finish
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Newest tick whose event stream is final — the machine's watermark
    /// on the incremental path. `-inf` before the first completed tick.
    pub fn completed_time_secs(&self) -> f64 {
        self.completed_time
    }

    /// Timestamp of the tick currently being filled on the incremental
    /// path, if any.
    pub fn tick_time_secs(&self) -> Option<f64> {
        self.tick_time
    }

    /// Gate counters aggregated over all counter streams.
    pub fn counters(&self) -> StageCounters {
        let mut total = StageCounters::default();
        for cs in &self.streams {
            total.merge(cs.gate.counters());
        }
        total
    }

    /// Per-sample detector latency accumulated so far.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Detector streams poisoned by an estimator error and disabled.
    pub fn detector_errors(&self) -> u64 {
        self.detector_errors
    }

    /// Whether the counter stream at `stream` has been disabled by an
    /// estimator error. Lets callers skip producing work (e.g. running a
    /// perturber) for a stream that would discard it anyway.
    pub fn stream_disabled(&self, stream: usize) -> bool {
        self.streams[stream].disabled
    }

    /// Serializes the pipeline's complete dynamic state — every stream's
    /// gate, detector and poisoned flag, the fused latch, telemetry, and
    /// the incremental-path tick/watermark clocks — via
    /// [`aging_timeseries::persist`].
    ///
    /// Configuration (detector specs, fusion rule, gate knobs) is *not*
    /// written: recovery constructs a fresh pipeline from the same config
    /// and then calls [`MachinePipeline::restore_state`], which makes the
    /// restored pipeline bit-identical to the snapshotted one — feeding
    /// both the same subsequent records produces the same events with the
    /// same floating-point state down to the last ULP (the
    /// `pipeline_persistence` test drives this exact differential).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use aging_timeseries::persist::{put_bool, put_f64, put_opt_f64, put_u64, put_usize};
        put_usize(out, self.streams.len());
        for cs in &self.streams {
            cs.gate.encode_state(out);
            cs.detector.encode_state(out);
            put_bool(out, cs.disabled);
        }
        put_bool(out, self.fused);
        self.latency.encode_state(out);
        put_u64(out, self.detector_errors);
        put_opt_f64(out, self.tick_time);
        put_f64(out, self.completed_time);
        put_bool(out, self.finished);
    }

    /// Restores state written by [`MachinePipeline::encode_state`] into a
    /// pipeline freshly constructed from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::InvalidParameter`] on
    /// truncation, a stream-count or detector-family mismatch, or corrupt
    /// inner state.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        let n = r.usize_()?;
        if n != self.streams.len() {
            return Err(aging_timeseries::Error::invalid(
                "persist",
                format!("pipeline has {} streams, snapshot {n}", self.streams.len()),
            ));
        }
        for cs in &mut self.streams {
            cs.gate.restore_state(r)?;
            cs.detector.restore_state(r)?;
            cs.disabled = r.bool()?;
        }
        self.fused = r.bool()?;
        self.latency.restore_state(r)?;
        self.detector_errors = r.u64()?;
        self.tick_time = r.opt_f64()?;
        self.completed_time = r.f64()?;
        self.finished = r.bool()?;
        Ok(())
    }

    /// Serialisable point-in-time state of this machine's pipeline.
    pub fn snapshot(&self, machine_id: u64, name: &str) -> MachineSnapshot {
        MachineSnapshot {
            machine_id,
            name: name.to_string(),
            last_time_secs: self.tick_time.or_else(|| {
                self.completed_time
                    .is_finite()
                    .then_some(self.completed_time)
            }),
            finished: self.finished,
            fused: self.fused,
            detector_errors: self.detector_errors,
            ingestion: self.counters(),
            streams: self
                .streams
                .iter()
                .map(|cs| CounterStreamSnapshot {
                    counter: cs.counter.to_string(),
                    detector: cs.detector_name.to_string(),
                    alarmed: cs.detector.is_alarmed(),
                    disabled: cs.disabled,
                    degraded: cs.gate.health() == GateHealth::Degraded,
                    delta_alpha: cs.detector.last_delta_alpha(),
                    ingestion: *cs.gate.counters(),
                })
                .collect(),
        }
    }

    /// Latest spectrum width per counter: one `(counter, Δα)` entry for
    /// every enabled stream whose spectrum-width detector has emitted at
    /// least one window. Empty when no spectrum detectors are configured
    /// (or none has filled its first window yet).
    pub fn spectrum_widths(&self) -> Vec<(Counter, f64)> {
        self.streams
            .iter()
            .filter(|cs| !cs.disabled)
            .filter_map(|cs| cs.detector.last_delta_alpha().map(|da| (cs.counter, da)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_core::baseline::TrendPredictorConfig;

    fn trend_detectors() -> Vec<CounterDetector> {
        vec![CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Trend(TrendPredictorConfig {
                window: 64,
                refit_every: 4,
                alarm_horizon_secs: 1e6,
                ..TrendPredictorConfig::depleting(5.0)
            }),
        }]
    }

    fn gate() -> GateConfig {
        GateConfig {
            nominal_period_secs: 5.0,
            ..GateConfig::default()
        }
    }

    #[test]
    fn rejects_empty_detector_list() {
        assert!(MachinePipeline::new(&[], FusionRule::Any, gate()).is_err());
    }

    #[test]
    fn incremental_feed_alarms_and_fuses_once() {
        let mut p = MachinePipeline::new(&trend_detectors(), FusionRule::Any, gate()).unwrap();
        let mut out = Vec::new();
        for i in 0..400 {
            let s = StreamSample {
                time_secs: i as f64 * 5.0,
                value: 1e6 - 400.0 * i as f64,
            };
            p.ingest(Counter::AvailableBytes, s, &mut out);
        }
        p.finish(&mut out);
        assert!(p.is_fused());
        assert!(p.is_finished());
        let fused: Vec<_> = out
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::MachineAlarm { .. }))
            .collect();
        assert_eq!(fused.len(), 1);
        let det: Vec<_> = out
            .iter()
            .filter(|e| {
                e.level == AlertLevel::Alarm && matches!(e.kind, AlarmKind::Detector { .. })
            })
            .collect();
        assert_eq!(det.len(), 1);
        // The deferred fusion vote lands on the same tick as the
        // detector alarm, and emission order preserves that tick order.
        assert_eq!(fused[0].time_secs, det[0].time_secs);
        assert!(p.completed_time_secs() >= fused[0].time_secs);
        // Idempotent finish.
        let before = out.len();
        p.finish(&mut out);
        assert_eq!(out.len(), before);
    }

    #[test]
    fn watermark_trails_by_one_tick_then_catches_up() {
        let mut p = MachinePipeline::new(&trend_detectors(), FusionRule::Any, gate()).unwrap();
        let mut out = Vec::new();
        assert_eq!(p.completed_time_secs(), f64::NEG_INFINITY);
        let s = |t: f64| StreamSample {
            time_secs: t,
            value: 1e6,
        };
        p.ingest(Counter::AvailableBytes, s(0.0), &mut out);
        assert_eq!(p.completed_time_secs(), f64::NEG_INFINITY);
        p.ingest(Counter::AvailableBytes, s(5.0), &mut out);
        assert_eq!(p.completed_time_secs(), 0.0);
        // Stale and non-finite records never advance the tick clock.
        p.ingest(Counter::AvailableBytes, s(5.0), &mut out);
        p.ingest(Counter::AvailableBytes, s(f64::NAN), &mut out);
        assert_eq!(p.completed_time_secs(), 0.0);
        p.finish(&mut out);
        assert_eq!(p.completed_time_secs(), 5.0);
    }

    #[test]
    fn unknown_counter_records_are_ignored() {
        let mut p = MachinePipeline::new(&trend_detectors(), FusionRule::Any, gate()).unwrap();
        let mut out = Vec::new();
        p.ingest(
            Counter::HandleCount,
            StreamSample {
                time_secs: 0.0,
                value: 1.0,
            },
            &mut out,
        );
        assert_eq!(p.counters().ingested, 0);
        assert!(out.is_empty());
    }

    /// The perfbench paper stack: Hölder and trend on available bytes,
    /// spectrum width on committed bytes.
    fn paper_detectors() -> Vec<CounterDetector> {
        let mut detectors = vec![CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Holder(aging_core::detector::DetectorConfig::default()),
        }];
        detectors.extend(trend_detectors());
        detectors.push(CounterDetector {
            counter: Counter::CommittedBytes,
            spec: DetectorSpec::Spectrum(crate::detector::SpectrumDetectorConfig::default()),
        });
        detectors
    }

    /// One tick: `(time, available bytes, committed bytes)`.
    type Tick = (f64, f64, f64);

    /// `n` ticks at the 5 s period with a hard gap at tick 150 (every
    /// detector resets), an out-of-order tick, a NaN tick and a duplicate
    /// tick. Available bytes decline and roughen after tick 1000;
    /// committed bytes random-walk and turn bursty after tick 1100. From
    /// `poison_from` on, committed bytes alternate ±1.7e308, which makes
    /// the spectrum kernel fail at its next emission.
    fn feed(n: u32, poison_from: Option<u32>) -> Vec<Tick> {
        let mut state = 0x51ce_b00c_5eed_f00du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut ticks: Vec<Tick> = Vec::new();
        let (mut t, mut walk) = (0.0f64, 0.0f64);
        for i in 0..n {
            if i == 150 {
                t += 5000.0; // hard gap: AcceptAfterGap resets the detectors
            }
            let x = f64::from(i);
            let rough = if i > 1000 { 6000.0 } else { 120.0 };
            let available = 1e6 - 350.0 * x + (x * 0.45).sin() * 2048.0 + rough * rand();
            let u = rand();
            walk += if i > 1100 && rand() < -0.42 {
                u * 400.0
            } else {
                u * 8.0
            };
            let committed = match poison_from {
                Some(p) if i >= p => 1.7e308 * if i % 2 == 0 { 1.0 } else { -1.0 },
                _ => 5e8 + walk,
            };
            ticks.push((t, available, committed));
            if i == 80 {
                ticks.push((t - 25.0, 5.0, 5.0)); // out-of-order: dropped
            }
            if i == 90 {
                ticks.push((t, f64::NAN, f64::NAN)); // non-finite value: dropped
            }
            if i == 100 {
                let &(_, a, c) = ticks.last().unwrap();
                ticks.push((t, a, c)); // duplicate tick
            }
            t += 5.0;
        }
        ticks
    }

    /// Gate, detector and disabled flag of every stream, plus the fused
    /// latch, error count and watermark. Latency telemetry legitimately
    /// differs (per-run vs per-sample stamps) and is left out.
    fn comparable_state(p: &MachinePipeline) -> Vec<u8> {
        let mut bytes = Vec::new();
        for cs in &p.streams {
            cs.gate.encode_state(&mut bytes);
            cs.detector.encode_state(&mut bytes);
            bytes.push(u8::from(cs.disabled));
        }
        bytes.push(u8::from(p.fused));
        bytes.extend_from_slice(&p.detector_errors.to_le_bytes());
        bytes.extend_from_slice(&p.completed_time.to_le_bytes());
        bytes.push(u8::from(p.finished));
        bytes
    }

    /// Feeds `ticks` in blocks of `chunk`, each block counter by counter,
    /// once record by record through `ingest` and once column by column
    /// through `ingest_column`; both runs must agree bit for bit. Returns
    /// the scalar run's events and pipeline.
    fn assert_column_parity(
        detectors: &[CounterDetector],
        ticks: &[Tick],
        chunk: usize,
    ) -> (Vec<PipelineEvent>, MachinePipeline) {
        let counters = [Counter::AvailableBytes, Counter::CommittedBytes];
        let mut scalar = MachinePipeline::new(detectors, FusionRule::Any, gate()).unwrap();
        let mut columnar = MachinePipeline::new(detectors, FusionRule::Any, gate()).unwrap();
        let mut scalar_out = Vec::new();
        let mut columnar_out = Vec::new();
        let mut values = Vec::new();
        for block in ticks.chunks(chunk) {
            let times: Vec<f64> = block.iter().map(|&(t, _, _)| t).collect();
            for (c, &counter) in counters.iter().enumerate() {
                values.clear();
                values.extend(block.iter().map(|&(_, a, b)| if c == 0 { a } else { b }));
                for (&time_secs, &value) in times.iter().zip(&values) {
                    scalar.ingest(counter, StreamSample { time_secs, value }, &mut scalar_out);
                }
                columnar.ingest_column(counter, &times, &values, &mut columnar_out);
            }
        }
        scalar.finish(&mut scalar_out);
        columnar.finish(&mut columnar_out);
        assert_eq!(scalar_out, columnar_out, "events diverged at chunk={chunk}");
        assert_eq!(
            scalar.detector_errors(),
            columnar.detector_errors(),
            "detector errors diverged at chunk={chunk}"
        );
        assert_eq!(
            comparable_state(&scalar),
            comparable_state(&columnar),
            "state diverged at chunk={chunk}"
        );
        (scalar_out, scalar)
    }

    /// Alerts of the detector family `name` among `events`.
    fn family_alerts(events: &[PipelineEvent], name: &str) -> usize {
        events
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::Detector { detector, .. } if detector == name))
            .count()
    }

    /// Column ingestion must be a pure restructuring of the scalar loop:
    /// same events (order included), same persisted pipeline state, for
    /// any chunking of the same feed — including gate gaps (detector
    /// resets), out-of-order drops, NaN values, duplicate timestamps, and
    /// a detector failing mid-column.
    #[test]
    fn ingest_column_matches_scalar_ingest_bitwise() {
        let trend_feed: Vec<Tick> = feed(600, None)
            .into_iter()
            .map(|(t, a, _)| (t, a, f64::NAN))
            .collect();
        let clean = feed(1450, None);
        let poisoned = feed(1450, Some(1350));
        for (detectors, ticks, failing) in [
            (trend_detectors(), &trend_feed, false),
            (paper_detectors(), &clean, false),
            (paper_detectors(), &poisoned, true),
        ] {
            for chunk in [1usize, 2, 7, 64, ticks.len()] {
                let (events, pipeline) = assert_column_parity(&detectors, ticks, chunk);
                assert!(pipeline.is_fused(), "scenario must alarm");
                assert_eq!(pipeline.detector_errors(), u64::from(failing));
                if detectors.len() == 3 {
                    for name in ["holder-dimension", "mann-kendall-sen", "spectrum-width"] {
                        assert!(family_alerts(&events, name) > 0, "{name} must alert");
                    }
                    // The spectrum stream fails only after its alerts.
                    assert_eq!(pipeline.stream_disabled(2), failing);
                }
            }
        }
    }

    #[test]
    fn rearm_clears_the_fused_latch_and_detector_windows() {
        let mut p = MachinePipeline::new(&trend_detectors(), FusionRule::Any, gate()).unwrap();
        let mut out = Vec::new();
        let feed = |p: &mut MachinePipeline, out: &mut Vec<PipelineEvent>, t0: f64| {
            for i in 0..400 {
                let s = StreamSample {
                    time_secs: t0 + i as f64 * 5.0,
                    value: 1e6 - 400.0 * i as f64,
                };
                p.ingest(Counter::AvailableBytes, s, out);
            }
        };
        feed(&mut p, &mut out, 0.0);
        assert!(p.is_fused());
        p.rearm();
        assert!(!p.is_fused());
        let before = out
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::MachineAlarm { .. }))
            .count();
        // A second depletion episode alarms again after re-arming.
        feed(&mut p, &mut out, 10_000.0);
        p.finish(&mut out);
        assert!(p.is_fused());
        let after = out
            .iter()
            .filter(|e| matches!(e.kind, AlarmKind::MachineAlarm { .. }))
            .count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn snapshot_reflects_stream_state() {
        let mut p = MachinePipeline::new(&trend_detectors(), FusionRule::Any, gate()).unwrap();
        let mut out = Vec::new();
        for i in 0..10 {
            p.ingest(
                Counter::AvailableBytes,
                StreamSample {
                    time_secs: i as f64 * 5.0,
                    value: 1e6,
                },
                &mut out,
            );
        }
        let snap = p.snapshot(7, "m007:test");
        assert_eq!(snap.machine_id, 7);
        assert_eq!(snap.name, "m007:test");
        assert_eq!(snap.last_time_secs, Some(45.0));
        assert!(!snap.fused);
        assert_eq!(snap.streams.len(), 1);
        assert_eq!(snap.streams[0].counter, "available_bytes");
        assert_eq!(snap.streams[0].detector, "mann-kendall-sen");
        assert_eq!(snap.ingestion.ingested, 10);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("available_bytes"), "{json}");
    }
}
