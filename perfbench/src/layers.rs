//! Per-layer replays for the traced run: each layer's public entry point
//! driven alone over the run's own feed, frames or journal entries.
//!
//! A traced run takes [`REPS`] samples of every replay spread evenly over
//! its timed window, so they see the same host conditions as the passes
//! they are compared with, and keeps the median of each figure. Every
//! `*_ns_per_rec` figure divides by the records of the whole feed (all
//! counters), so the layers of one workload add up. A layer a workload
//! does not run reads zero.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use aging_core::fusion::FusionRule;
use aging_fractal::spectrum::{SpectrumConfig, StreamingSpectrum};
use aging_memsim::Counter;
use aging_par::Pool;
use aging_serve::protocol::{
    columnar_spans, counter_code, encode_batch_frame_into, encode_columnar_frame_into, Frame,
    COLUMN_HEADER_BYTES, COLUMN_RECORD_BYTES, DEFAULT_MAX_FRAME,
};
use aging_serve::FrameDecoder;
use aging_store::{Store, StoreConfig};
use aging_stream::detector::{DetectorSpec, StreamAlert, StreamingDetector};
use aging_stream::{FleetSink, GateConfig, IngestSink, MachinePipeline, SampleGate, StreamSample};
use aging_timeseries::persist::{put_u32, put_u64, put_u8};
use aging_timeseries::{Error, Result};

use crate::fleet::{Inputs, Stack, Step, BATCH_RECORDS};
use crate::stats::{median, Summary};
use crate::tally::micros;
use crate::trace::{SpanId, Tracer};

/// Replay samples per traced run; the median of each figure is kept.
/// Five journal replays give p99 of the append time ten samples beyond it.
pub const REPS: usize = 5;

/// What one round of replays measured, or the median of several.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub wire_bytes_per_rec: f64,
    pub gate_ns: f64,
    pub gate_dropped: u64,
    /// Per detector family (`trend`, `holder`, `spectrum`).
    pub family_ns: BTreeMap<&'static str, f64>,
    pub spectrum_emissions: u64,
    pub us_per_emission: f64,
    pub pipeline_ns: f64,
    /// Every journal append's time, µs (empty without a journal).
    pub store_append_us: Vec<f64>,
    pub store_ns: f64,
    /// `FleetSink::into_events` over the whole fed fleet, per record.
    pub release_ns: f64,
}

impl LayerCosts {
    pub fn families_ns(&self) -> f64 {
        self.family_ns.values().sum()
    }

    pub fn store_append(&self) -> Summary {
        Summary::of(&self.store_append_us)
    }

    /// The median of each figure over `rounds`; journal appends pooled.
    pub fn median_of(rounds: &[LayerCosts]) -> LayerCosts {
        let m = |f: &dyn Fn(&LayerCosts) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let first = &rounds[0];
        LayerCosts {
            encode_ns: m(&|c| c.encode_ns),
            decode_ns: m(&|c| c.decode_ns),
            wire_bytes_per_rec: first.wire_bytes_per_rec,
            gate_ns: m(&|c| c.gate_ns),
            gate_dropped: first.gate_dropped,
            family_ns: first
                .family_ns
                .keys()
                .map(|&k| (k, m(&|c| c.family_ns[k])))
                .collect(),
            spectrum_emissions: first.spectrum_emissions,
            us_per_emission: m(&|c| c.us_per_emission),
            pipeline_ns: m(&|c| c.pipeline_ns),
            store_append_us: rounds
                .iter()
                .flat_map(|c| c.store_append_us.iter().copied())
                .collect(),
            store_ns: m(&|c| c.store_ns),
            release_ns: m(&|c| c.release_ns),
        }
    }
}

/// Short family name of a detector spec.
pub fn family(spec: &DetectorSpec) -> &'static str {
    match spec {
        DetectorSpec::Trend(_) => "trend",
        DetectorSpec::Holder(_) => "holder",
        _ => "spectrum",
    }
}

/// Runs `f` once under a span; nanoseconds per record.
fn timed<F: FnMut() -> Result<()>>(
    tr: &mut Tracer,
    name: &'static str,
    records: u64,
    mut f: F,
) -> Result<f64> {
    let span = tr.open(name, SpanId::ROOT);
    let t0 = Instant::now();
    f()?;
    let ns = t0.elapsed().as_nanos() as f64 / records as f64;
    tr.close(span);
    Ok(ns)
}

/// One round of replays of every layer the workload's feed passes
/// through.
pub fn measure(
    inputs: &Inputs,
    wire: Option<bool>,
    journal: bool,
    out_dir: &Path,
    tr: &mut Tracer,
) -> Result<LayerCosts> {
    let records = inputs.plan.total_records;
    let mut costs = LayerCosts::default();
    if let Some(record_frames) = wire {
        codec(inputs, record_frames, tr, &mut costs)?;
    }
    if journal {
        store(inputs, out_dir, tr, &mut costs)?;
    }

    let counters = inputs.stack.counters();
    let column_of = |counter: Counter| {
        counters
            .iter()
            .position(|&c| c == counter)
            .expect("stack counters cover every detector")
    };
    let gate_cfg = inputs.cfg.gate;
    let mut dropped = 0u64;
    costs.gate_ns = timed(tr, "stream.gate", records, || {
        dropped = gate_replay(inputs, gate_cfg)?;
        Ok(())
    })?;
    costs.gate_dropped = dropped;

    let chunk = (BATCH_RECORDS / counters.len()).max(1);
    for d in &inputs.cfg.detectors {
        let column = column_of(d.counter);
        let span_name = match family(&d.spec) {
            "trend" => "stream.detector.trend",
            "holder" => "stream.detector.holder",
            _ => "stream.detector.spectrum",
        };
        let ns = timed(tr, span_name, records, || {
            family_replay(inputs, &d.spec, column, chunk)
        })?;
        *costs.family_ns.entry(family(&d.spec)).or_default() += ns;
    }

    if inputs.stack == Stack::Paper {
        let column = column_of(Counter::CommittedBytes);
        let mut emissions = 0u64;
        let ns = timed(tr, "fractal.spectrum", records, || {
            emissions = spectrum_replay(inputs, column)?;
            Ok(())
        })?;
        costs.spectrum_emissions = emissions;
        costs.us_per_emission = ns * records as f64 / 1e3 / emissions.max(1) as f64;
    }

    let record_path = wire == Some(true);
    let (detectors, fusion) = (&inputs.cfg.detectors, inputs.cfg.fusion);
    costs.pipeline_ns = timed(tr, "stream.pipeline", records, || {
        pipeline_replay(inputs, detectors, fusion, gate_cfg, record_path, chunk)
    })?;
    costs.release_ns = release_replay(inputs, chunk, tr)? / records as f64;
    Ok(costs)
}

/// Feeds the whole fleet into a [`FleetSink`] untimed, then times
/// `FleetSink::into_events`; nanoseconds in total.
fn release_replay(inputs: &Inputs, chunk: usize, tr: &mut Tracer) -> Result<f64> {
    let mut sink = FleetSink::new(&inputs.cfg)?;
    for f in &inputs.feeds {
        for start in (0..f.times.len()).step_by(chunk) {
            let end = (start + chunk).min(f.times.len());
            for (c, &counter) in inputs.stack.counters().iter().enumerate() {
                sink.ingest_column(
                    f.machine_id,
                    counter,
                    &f.times[start..end],
                    &f.columns[c][start..end],
                )?;
            }
        }
        sink.machine_done(f.machine_id)?;
    }
    let span = tr.open("stream.sink.release", SpanId::ROOT);
    let t0 = Instant::now();
    std::hint::black_box(sink.into_events());
    let ns = t0.elapsed().as_nanos() as f64;
    tr.close(span);
    Ok(ns)
}

fn codec(
    inputs: &Inputs,
    record_frames: bool,
    tr: &mut Tracer,
    costs: &mut LayerCosts,
) -> Result<()> {
    let plan = &inputs.plan;
    let counters = inputs.stack.counters();
    let records = plan.total_records;
    let max_span = (DEFAULT_MAX_FRAME as usize - COLUMN_HEADER_BYTES) / COLUMN_RECORD_BYTES;
    let mut wire: Vec<u8> = Vec::new();
    let mut frames = 0u64;
    costs.encode_ns = timed(tr, "serve.protocol.encode", records, || {
        wire.clear();
        frames = 0;
        let mut buf = Vec::new();
        let mut spans = Vec::new();
        for (seq, step) in plan.steps.iter().enumerate() {
            match *step {
                Step::Batch { start, end } if record_frames => {
                    encode_batch_frame_into(seq as u64, &plan.records[start..end], &mut buf);
                    wire.extend_from_slice(&buf);
                    frames += 1;
                }
                Step::Chunk { feed, start, end } if !record_frames => {
                    let f = &inputs.feeds[feed];
                    let times = &f.times[start..end];
                    columnar_spans(times, max_span, &mut spans);
                    for (c, &counter) in counters.iter().enumerate() {
                        for &(s, len) in &spans {
                            encode_columnar_frame_into(
                                seq as u64,
                                f.machine_id,
                                counter_code(counter),
                                &times[s..s + len],
                                &f.columns[c][start + s..start + s + len],
                                &mut buf,
                            )
                            .map_err(Error::Io)?;
                            wire.extend_from_slice(&buf);
                            frames += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    })?;
    costs.wire_bytes_per_rec = wire.len() as f64 / records as f64;
    costs.decode_ns = timed(tr, "serve.protocol.decode", records, || {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut decoded = 0u64;
        for piece in wire.chunks(16 * 1024) {
            dec.feed(piece);
            while let Some(payload) = dec
                .next_payload_ref()
                .map_err(|e| Error::Io(e.reason.to_string()))?
            {
                std::hint::black_box(Frame::decode_payload(payload).map_err(Error::Io)?);
                decoded += 1;
            }
        }
        if decoded != frames {
            return Err(Error::Io(format!("decoded {decoded} of {frames} frames")));
        }
        Ok(())
    })?;
    Ok(())
}

/// Appends the run's journal entries, at their real sizes, to a scratch
/// store and times each append.
fn store(inputs: &Inputs, out_dir: &Path, tr: &mut Tracer, costs: &mut LayerCosts) -> Result<()> {
    let plan = &inputs.plan;
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for step in &plan.steps {
        let mut p = Vec::new();
        match *step {
            Step::Batch { start, end } => {
                put_u8(&mut p, 1);
                put_u32(&mut p, (end - start) as u32);
                for r in &plan.records[start..end] {
                    put_u64(&mut p, r.machine_id);
                    put_u8(&mut p, r.counter);
                    put_u64(&mut p, r.time_secs.to_bits());
                    put_u64(&mut p, r.value.to_bits());
                }
            }
            Step::Done { machine_id } => {
                put_u8(&mut p, 2);
                put_u64(&mut p, machine_id);
            }
            Step::Chunk { .. } => continue,
        }
        payloads.push(p);
    }
    let dir = out_dir.join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) =
        Store::open(StoreConfig::new(&dir)).map_err(|e| Error::Io(e.to_string()))?;
    let span = tr.open("store.append", SpanId::ROOT);
    let t0 = Instant::now();
    for p in &payloads {
        let t = Instant::now();
        store.append(p).map_err(|e| Error::Io(e.to_string()))?;
        costs.store_append_us.push(micros(t.elapsed()));
    }
    costs.store_ns = t0.elapsed().as_nanos() as f64 / plan.total_records as f64;
    tr.close(span);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn gate_replay(inputs: &Inputs, cfg: GateConfig) -> Result<u64> {
    let mut dropped = 0u64;
    for f in &inputs.feeds {
        for column in &f.columns {
            let mut gate = SampleGate::new(cfg)?;
            for (&time_secs, &value) in f.times.iter().zip(column) {
                std::hint::black_box(gate.push(StreamSample { time_secs, value }));
            }
            dropped += gate.counters().dropped();
        }
    }
    Ok(dropped)
}

fn family_replay(inputs: &Inputs, spec: &DetectorSpec, column: usize, chunk: usize) -> Result<()> {
    let mut alerts: Vec<(usize, StreamAlert)> = Vec::new();
    for f in &inputs.feeds {
        let mut det = StreamingDetector::new(spec)?;
        for values in f.columns[column].chunks(chunk) {
            det.push_slice(values, &mut alerts)?;
        }
    }
    std::hint::black_box(&alerts);
    Ok(())
}

fn spectrum_replay(inputs: &Inputs, column: usize) -> Result<u64> {
    let pool = Pool::sequential();
    let mut windows = Vec::new();
    let mut emissions = 0u64;
    for f in &inputs.feeds {
        let mut spectrum = StreamingSpectrum::new(&SpectrumConfig::default())?;
        spectrum.push_slice_in(&f.columns[column], &mut windows, &pool)?;
        emissions += windows.len() as u64;
    }
    Ok(emissions)
}

fn pipeline_replay(
    inputs: &Inputs,
    detectors: &[aging_stream::CounterDetector],
    fusion: FusionRule,
    gate: GateConfig,
    record_path: bool,
    chunk: usize,
) -> Result<()> {
    let counters = inputs.stack.counters();
    let mut events = Vec::new();
    for f in &inputs.feeds {
        let mut pipeline = MachinePipeline::new(detectors, fusion, gate)?;
        if record_path {
            for (k, &time_secs) in f.times.iter().enumerate() {
                for (c, &counter) in counters.iter().enumerate() {
                    let value = f.columns[c][k];
                    pipeline.ingest(counter, StreamSample { time_secs, value }, &mut events);
                }
            }
        } else {
            for start in (0..f.times.len()).step_by(chunk) {
                let end = (start + chunk).min(f.times.len());
                for (c, &counter) in counters.iter().enumerate() {
                    pipeline.ingest_column(
                        counter,
                        &f.times[start..end],
                        &f.columns[c][start..end],
                        &mut events,
                    );
                }
            }
        }
        pipeline.finish(&mut events);
    }
    std::hint::black_box(&events);
    Ok(())
}
