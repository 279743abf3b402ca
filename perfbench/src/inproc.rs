//! The in-process workload: the paper-stack feeds pushed straight into a
//! [`FleetSink`] through [`IngestSink::ingest_column`] on one thread, no
//! socket and no store.
//!
//! Passes are closed-loop: with nothing between feeder and engine, a
//! batch's ack is the return of its ingest calls. The single thread also
//! answers a status read due every [`QUERY_EVERY`]: a read that falls due
//! while a column is being ingested waits for it, as a reader waits for
//! the engine lock behind an ingest call, so its latency is measured from
//! its due time.

use std::time::Instant;

use aging_serve::protocol::{encode_events, ServeEvent};
use aging_stream::{FleetSink, IngestSink};
use aging_timeseries::Result;

use crate::fleet::{to_serve_event, Inputs, Step};
use crate::tally::{micros, Tally};
use crate::trace::{SpanId, Tracer};
use crate::wire::QUERY_EVERY;

/// Serves every status read due by now; returns when the next one is due.
fn serve_reads(
    sink: &FleetSink,
    next: &mut Instant,
    tr: &mut Tracer,
    root: SpanId,
    waits: &mut Vec<f64>,
) {
    let now = Instant::now();
    while *next <= now {
        let span = tr.open("stream.sink.query", root);
        std::hint::black_box(sink.machine_count());
        tr.close(span);
        waits.push(micros(next.elapsed()));
        *next += QUERY_EVERY;
    }
}

/// One closed-loop pass over the plan into a fresh sink.
pub fn pass(inputs: &Inputs, pass_no: u64, tr: &mut Tracer, tally: &mut Tally) -> Result<()> {
    let plan = &inputs.plan;
    let counters = inputs.stack.counters();
    tr.set_trace(pass_no);
    let root = tr.open("bench.pass", SpanId::ROOT);
    let mut sink = FleetSink::new(&inputs.cfg)?;
    let mut marks = Vec::with_capacity(plan.steps.len() + 1);
    let mut acks = Vec::with_capacity(plan.steps.len());
    let mut waits = Vec::new();
    let t0 = Instant::now();
    let mut next_read = t0 + QUERY_EVERY;
    marks.push(0.0);
    for step in &plan.steps {
        let started = Instant::now();
        match *step {
            Step::Chunk { feed, start, end } => {
                let f = &inputs.feeds[feed];
                let span = tr.open("stream.sink.ingest_column", root);
                for (c, &counter) in counters.iter().enumerate() {
                    sink.ingest_column(
                        f.machine_id,
                        counter,
                        &f.times[start..end],
                        &f.columns[c][start..end],
                    )?;
                }
                tr.close(span);
                acks.push(micros(started.elapsed()));
            }
            Step::Done { machine_id } => sink.machine_done(machine_id)?,
            Step::Batch { .. } => unreachable!("the in-process plan is columnar"),
        }
        serve_reads(&sink, &mut next_read, tr, root, &mut waits);
        marks.push(t0.elapsed().as_secs_f64());
    }
    tally.acks.push(acks);
    tally.queries.push(waits);
    let span = tr.open("stream.sink.release", root);
    let events: Vec<ServeEvent> = sink.into_events().iter().map(to_serve_event).collect();
    tr.close(span);
    let wall = t0.elapsed();
    tr.close(root);

    let mismatch = encode_events(&events) != inputs.offline_bytes;
    tally.attempted += plan.total_records;
    tally.mismatches += u64::from(mismatch);
    let rate = plan.total_records as f64 / wall.as_secs_f64();
    if tr.enabled() {
        tally.traced_rates.push(rate);
        tally.traced_records += plan.total_records;
        tally.traced_wall_s += wall.as_secs_f64();
    } else {
        tally.closed_rates.push(rate);
        tally.closed_marks.push(marks);
    }
    Ok(())
}
