//! The unified ingestion surface: one [`IngestSink`] trait over every
//! way samples enter the detection pipelines.
//!
//! Three very different components accept the same logical feed — a
//! stream of `(machine, counter, time, value)` samples, now also
//! batchable as columns (one machine/counter, parallel time/value
//! slices):
//!
//! * the `aging-serve` ingestion engine (samples arrive over TCP),
//! * a [`FleetSink`] — the offline supervisor's pipelines fed manually
//!   instead of from simulated machines it steps itself, and
//! * `aging-serve`'s `ServeClient` (samples *leave* through it, toward a
//!   remote engine).
//!
//! `IngestSink` abstracts over all three so loadgen-style feeders,
//! differential tests and replay tools can target any of them without
//! caring whether the samples cross a socket. The column method defaults
//! to a per-record loop, so implementing the record method alone is
//! always correct; implementations with a real columnar fast path (the
//! serve engine, the wire client) override it.

use std::collections::BTreeMap;

use aging_core::fusion::FusionRule;
use aging_memsim::Counter;
use aging_timeseries::{Error, Result};

use crate::gate::GateConfig;
use crate::pipeline::{CounterDetector, MachinePipeline, PipelineEvent};
use crate::supervisor::{AlarmEvent, FleetConfig};

/// A destination for `(machine, counter, time, value)` sample feeds.
///
/// The two methods describe the same logical stream at two granularities:
/// [`ingest_column`](IngestSink::ingest_column) must be equivalent to
/// calling [`ingest_record`](IngestSink::ingest_record) once per
/// `(times[k], values[k])` pair in order — implementations may restructure
/// the work (batch frames, slice kernels) but not the semantics.
pub trait IngestSink {
    /// The sink's failure type (I/O for wire sinks, validation for
    /// in-process ones).
    type Error;

    /// Feeds one sample of `counter` on machine `machine_id`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; a failed record may leave earlier records
    /// applied.
    fn ingest_record(
        &mut self,
        machine_id: u64,
        counter: Counter,
        time_secs: f64,
        value: f64,
    ) -> std::result::Result<(), Self::Error>;

    /// Feeds one column: `counter` on `machine_id` with parallel
    /// `times`/`values`. Extra elements beyond the shorter slice are
    /// ignored. Defaults to the record loop.
    ///
    /// # Errors
    ///
    /// Same contract as [`IngestSink::ingest_record`]; a failure may
    /// leave a prefix of the column applied.
    fn ingest_column(
        &mut self,
        machine_id: u64,
        counter: Counter,
        times: &[f64],
        values: &[f64],
    ) -> std::result::Result<(), Self::Error> {
        for (&t, &v) in times.iter().zip(values.iter()) {
            self.ingest_record(machine_id, counter, t, v)?;
        }
        Ok(())
    }

    /// Declares machine `machine_id`'s feed complete: its final pending
    /// tick is closed (deferred fusion votes run) and no further samples
    /// are expected. Idempotent.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn machine_done(&mut self, machine_id: u64) -> std::result::Result<(), Self::Error>;
}

struct SinkMachine {
    name: String,
    pipeline: MachinePipeline,
    events: Vec<PipelineEvent>,
}

/// A manually-fed fleet: the same gate → detector → fusion pipelines the
/// [`crate::supervisor::FleetSupervisor`] runs, but with samples pushed
/// in by the caller ([`IngestSink`]) instead of pulled from simulated
/// machines. Pipelines are created lazily per machine id.
///
/// Feed every machine, call
/// [`machine_done`](IngestSink::machine_done) (or let
/// [`into_events`](FleetSink::into_events) finish the stragglers), and
/// the drained history is ordered by `(time, machine, emission)` — the
/// supervisor's release order, so a sink fed the supervisor's exact
/// per-machine sample sequences reproduces its event stream.
pub struct FleetSink {
    detectors: Vec<CounterDetector>,
    fusion: FusionRule,
    gate: GateConfig,
    machines: BTreeMap<u64, SinkMachine>,
}

impl std::fmt::Debug for FleetSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSink")
            .field("detectors", &self.detectors)
            .field("fusion", &self.fusion)
            .field("machines", &self.machines.len())
            .finish()
    }
}

impl FleetSink {
    /// A sink running `config`'s detectors/fusion/gate per machine.
    /// Horizon, sharding and store settings of the config are ignored —
    /// the caller owns pacing and persistence.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetConfig::validate`] failures.
    pub fn new(config: &FleetConfig) -> Result<Self> {
        config.validate()?;
        Ok(FleetSink {
            detectors: config.detectors.clone(),
            fusion: config.fusion,
            gate: config.gate,
            machines: BTreeMap::new(),
        })
    }

    /// Registers `machine_id` with a display name before its first
    /// sample (otherwise the name defaults to `m<id>:manual`). Re-naming
    /// an existing machine keeps its pipeline state.
    ///
    /// # Errors
    ///
    /// Propagates pipeline construction failures.
    pub fn register(&mut self, machine_id: u64, name: &str) -> Result<()> {
        match self.machines.get_mut(&machine_id) {
            Some(m) => m.name = name.to_string(),
            None => {
                let m = SinkMachine {
                    name: name.to_string(),
                    pipeline: MachinePipeline::new(&self.detectors, self.fusion, self.gate)?,
                    events: Vec::new(),
                };
                self.machines.insert(machine_id, m);
            }
        }
        Ok(())
    }

    fn machine(&mut self, machine_id: u64) -> Result<&mut SinkMachine> {
        if !self.machines.contains_key(&machine_id) {
            let name = format!("m{machine_id:03}:manual");
            self.register(machine_id, &name)?;
        }
        Ok(self.machines.get_mut(&machine_id).expect("just inserted"))
    }

    /// Number of machines seen so far.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Finishes every machine's feed and drains the full event history,
    /// ordered by `(time, machine, emission)` — the watermark-merge
    /// release order of the supervisor and the serve engine.
    pub fn into_events(mut self) -> Vec<AlarmEvent> {
        let ids: Vec<u64> = self.machines.keys().copied().collect();
        for id in ids {
            let _ = IngestSink::machine_done(&mut self, id);
        }
        let mut keyed: Vec<(f64, u64, u64, AlarmEvent)> = Vec::new();
        let mut seq = 0u64;
        for (id, m) in self.machines {
            for pe in m.events {
                seq += 1;
                keyed.push((
                    pe.time_secs,
                    id,
                    seq,
                    AlarmEvent {
                        machine_index: id as usize,
                        machine: m.name.clone(),
                        time_secs: pe.time_secs,
                        level: pe.level,
                        kind: pe.kind,
                    },
                ));
            }
        }
        keyed.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        keyed.into_iter().map(|(_, _, _, e)| e).collect()
    }
}

impl IngestSink for FleetSink {
    type Error = Error;

    fn ingest_record(
        &mut self,
        machine_id: u64,
        counter: Counter,
        time_secs: f64,
        value: f64,
    ) -> Result<()> {
        let m = self.machine(machine_id)?;
        let sample = crate::source::StreamSample { time_secs, value };
        let events = &mut m.events;
        m.pipeline.ingest(counter, sample, events);
        Ok(())
    }

    fn ingest_column(
        &mut self,
        machine_id: u64,
        counter: Counter,
        times: &[f64],
        values: &[f64],
    ) -> Result<()> {
        let m = self.machine(machine_id)?;
        let events = &mut m.events;
        m.pipeline.ingest_column(counter, times, values, events);
        Ok(())
    }

    fn machine_done(&mut self, machine_id: u64) -> Result<()> {
        let m = self.machine(machine_id)?;
        let events = &mut m.events;
        m.pipeline.finish(events);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorSpec;
    use aging_core::baseline::TrendPredictorConfig;

    fn config() -> FleetConfig {
        let detectors = vec![CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Trend(TrendPredictorConfig {
                window: 64,
                refit_every: 4,
                alarm_horizon_secs: 1e6,
                ..TrendPredictorConfig::depleting(5.0)
            }),
        }];
        let mut cfg = FleetConfig::new(detectors, 3600.0);
        cfg.fusion = FusionRule::Any;
        cfg.gate = GateConfig {
            nominal_period_secs: 5.0,
            ..GateConfig::default()
        };
        cfg
    }

    #[test]
    fn record_and_column_feeds_agree() {
        let mut by_record = FleetSink::new(&config()).unwrap();
        let mut by_column = FleetSink::new(&config()).unwrap();
        for id in [3u64, 9] {
            let slope = if id == 3 { 400.0 } else { 0.0 };
            let times: Vec<f64> = (0..300).map(|i| f64::from(i) * 5.0).collect();
            let values: Vec<f64> = (0..300)
                .map(|i| 1e6 - slope * f64::from(i) + f64::from(i % 13) * 64.0)
                .collect();
            for (&t, &v) in times.iter().zip(values.iter()) {
                by_record
                    .ingest_record(id, Counter::AvailableBytes, t, v)
                    .unwrap();
            }
            by_column
                .ingest_column(id, Counter::AvailableBytes, &times, &values)
                .unwrap();
        }
        let a = by_record.into_events();
        let b = by_column.into_events();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|e| e.machine_index == 3
                && matches!(e.kind, crate::pipeline::AlarmKind::MachineAlarm { .. })),
            "leaky machine must fuse: {a:?}"
        );
        assert!(
            !a.iter().any(|e| e.machine_index == 9),
            "healthy machine must stay quiet"
        );
    }

    /// A sink fed the supervisor's exact per-machine sample sequences
    /// must reproduce its event history — including ordering.
    #[test]
    fn sink_reproduces_supervisor_run() {
        use aging_memsim::{Machine, Scenario, Tick};
        let mut cfg = config();
        cfg.horizon_secs = 6.0 * 3600.0;
        let scenarios = vec![
            Scenario::tiny_aging(11, 256.0),
            Scenario::tiny_aging(12, 0.0),
        ];
        let report = crate::supervisor::FleetSupervisor::new(cfg.clone())
            .unwrap()
            .run(&scenarios)
            .unwrap();
        assert!(
            report.machine_alarms().count() > 0,
            "leaky machine must alarm"
        );

        let mut sink = FleetSink::new(&cfg).unwrap();
        for (i, scenario) in scenarios.iter().enumerate() {
            sink.register(i as u64, &format!("m{i:03}:{}", scenario.name))
                .unwrap();
            let mut machine = Machine::boot(scenario).unwrap();
            let mut times = Vec::new();
            let mut values = Vec::new();
            while let Tick::Sample(sample) = machine.next_sample(cfg.horizon_secs) {
                times.push(sample.time.as_secs());
                values.push(sample.value(Counter::AvailableBytes));
            }
            sink.ingest_column(i as u64, Counter::AvailableBytes, &times, &values)
                .unwrap();
        }
        assert_eq!(sink.into_events(), report.events);
    }

    #[test]
    fn default_column_impl_loops_records() {
        struct Counting(Vec<(u64, f64, f64)>);
        impl IngestSink for Counting {
            type Error = std::convert::Infallible;
            fn ingest_record(
                &mut self,
                machine_id: u64,
                _counter: Counter,
                time_secs: f64,
                value: f64,
            ) -> std::result::Result<(), Self::Error> {
                self.0.push((machine_id, time_secs, value));
                Ok(())
            }
            fn machine_done(&mut self, _machine_id: u64) -> std::result::Result<(), Self::Error> {
                Ok(())
            }
        }
        let mut sink = Counting(Vec::new());
        sink.ingest_column(7, Counter::AvailableBytes, &[1.0, 2.0], &[10.0, 20.0, 30.0])
            .unwrap();
        // Zip truncates to the shorter slice.
        assert_eq!(sink.0, vec![(7, 1.0, 10.0), (7, 2.0, 20.0)]);
    }
}
