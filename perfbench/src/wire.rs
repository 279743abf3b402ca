//! The wire workloads: an in-process `aging-serve` server on loopback,
//! one feeder connection and, beside the one-batch-in-flight loop, one
//! reader connection.
//!
//! Every pass binds a fresh server, streams the whole planned fleet,
//! reads the released alarm history back and checks it byte for byte
//! against the offline supervisor. See [`Pace`] for the three kinds of
//! pass. The pipelined loop runs the feeder alone: with a reader beside
//! it, four busy threads share the benchmark's CPU, and its rate follows
//! the scheduler rather than the program.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aging_serve::protocol::{counter_code, encode_events, ServeEvent, PROTOCOL_VERSION};
use aging_serve::{ServeClient, ServeConfig, Server};
use aging_store::StoreConfig;
use aging_timeseries::{Error, Result};

use crate::fleet::{Inputs, Step};
use crate::tally::{micros, wait_until, Tally};
use crate::trace::{SpanId, Tracer};

/// Reader cadence: one query every this long, alternating
/// `QueryStatus` and `QueryAlarms`.
pub const QUERY_EVERY: Duration = Duration::from_millis(2);

/// Steps per burst of a pipelined pass: the server's default credit
/// window of 32 batches. Each burst is sent as fast as credit allows and
/// flushed, so it starts and ends with an empty pipeline and its time is
/// the server's work on those steps, comparable from pass to pass.
pub const BURST_STEPS: usize = 32;

/// How a wire workload talks to the server.
#[derive(Debug, Clone)]
pub struct WireMode {
    /// Protocol-v1 record batches instead of v2 columnar frames.
    pub record_frames: bool,
    /// Journal every accepted batch to an `aging-store` directory.
    pub journal: Option<PathBuf>,
}

/// Binds a server for `inputs` (journal directory emptied first).
pub fn bind(inputs: &Inputs, mode: &WireMode) -> Result<Server> {
    let mut cfg = ServeConfig::from_fleet(&inputs.cfg);
    // Pin the release order: nothing is released until every machine has
    // checked in, as in E14.
    cfg.expected_machines = Some(inputs.feeds.len() as u64);
    if let Some(dir) = &mode.journal {
        let _ = std::fs::remove_dir_all(dir);
        cfg.store = Some(StoreConfig::new(dir));
    }
    Server::bind("127.0.0.1:0", cfg)
}

/// What the reader thread saw.
#[derive(Debug, Default)]
struct ReaderOut {
    rtt_us: Vec<f64>,
    seen: Vec<ServeEvent>,
    /// When each event of `seen` first became visible.
    visible_at: Vec<Instant>,
}

fn reader(addr: std::net::SocketAddr, stop: &AtomicBool, tr: &mut Tracer) -> Result<ReaderOut> {
    let mut client = ServeClient::connect(addr, "perfbench-reader")?;
    let root = tr.open("serve.reader", SpanId::ROOT);
    let mut out = ReaderOut::default();
    let mut next = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let t0 = Instant::now();
        if k.is_multiple_of(2) {
            let span = tr.open("serve.query.status", root);
            client.query_status()?;
            tr.close(span);
        } else {
            let span = tr.open("serve.query.alarms", root);
            let (_, chunk) = client.query_alarms(out.seen.len() as u64)?;
            tr.close(span);
            let at = Instant::now();
            out.visible_at.extend(chunk.iter().map(|_| at));
            out.seen.extend(chunk);
        }
        out.rtt_us.push(micros(t0.elapsed()));
        k += 1;
        next += QUERY_EVERY;
        next = next.max(Instant::now());
    }
    tr.close(root);
    client.bye()?;
    Ok(out)
}

/// How a pass paces its batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop, pipelined: send as fast as the credit window allows,
    /// flushing after every [`BURST_STEPS`] steps. Gives the ingest rate.
    Closed,
    /// Closed loop, one batch in flight: each batch is sent as soon as
    /// the previous one is acked. Gives the ack latency of a caller that
    /// waits for every reply, and the reader's round trip beside it.
    Sync,
    /// Open loop: batches fall due on a fixed schedule at this many
    /// records/s and each is acked before the next; latency is timed
    /// from the due time. Gives the generator's lateness and backlog.
    Open(f64),
}

/// One pass over the plan against a fresh server.
pub fn pass(
    inputs: &Inputs,
    mode: &WireMode,
    pace: Pace,
    pass_no: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<()> {
    let plan = &inputs.plan;
    tracer.set_trace(pass_no);
    let root = tracer.open("bench.pass", SpanId::ROOT);
    let span = tracer.open("serve.server.bind", root);
    let server = bind(inputs, mode)?;
    tracer.close(span);
    let addr = server.local_addr();
    let mut client = if mode.record_frames {
        ServeClient::connect_with_version(addr, "perfbench-feeder", PROTOCOL_VERSION)?
    } else {
        ServeClient::connect(addr, "perfbench-feeder")?
    };
    let stop = AtomicBool::new(false);
    let mut reader_tracer = tracer.fork(2);
    reader_tracer.set_trace(pass_no);
    let traced = tracer.enabled();
    let mut sent_at: Vec<Instant> = Vec::with_capacity(plan.steps.len());
    let mut acks: Vec<f64> = Vec::new();
    let mut acked_at: Vec<(Instant, u64)> = Vec::new();

    let (feed_result, reader_result) = std::thread::scope(|scope| {
        let reader =
            (pace == Pace::Sync).then(|| scope.spawn(|| reader(addr, &stop, &mut reader_tracer)));
        let fed = feed(
            inputs,
            pace,
            &mut client,
            tracer,
            root,
            &mut sent_at,
            &mut acks,
            &mut acked_at,
            tally,
        );
        stop.store(true, Ordering::SeqCst);
        let read = reader.map_or(Ok(ReaderOut::default()), |r| {
            r.join()
                .unwrap_or_else(|_| Err(Error::Io("reader thread panicked".into())))
        });
        (fed, read)
    });
    let (wall, t0) = feed_result?;
    let read = reader_result?;
    tracer.absorb(reader_tracer);

    let span = tracer.open("bench.verify", root);
    let history = client.query_alarms_all()?;
    let accepted = client.records_accepted();
    tally.busy_frames += client.busy_frames();
    client.bye()?;
    let report = server.shutdown();
    let mut mismatch = encode_events(&history) != inputs.offline_bytes
        || encode_events(&report.events) != inputs.offline_bytes;
    mismatch |= read.seen.len() > history.len()
        || encode_events(&read.seen) != encode_events(&history[..read.seen.len()]);
    tracer.close(span);
    tracer.close(root);

    let records = plan.total_records;
    tally.attempted += records;
    tally.unacked += records.saturating_sub(accepted);
    tally.refused += report.wire.records_rejected;
    tally.mismatches += u64::from(mismatch);
    if report.wire.quarantined > 0 {
        tally.quarantined_records += records;
    }
    tally.server_frames += report.wire.frames;
    tally.server_malformed += report.wire.malformed_frames;
    tally.server_quarantined += report.wire.quarantined;
    tally.server_session_panics += report.wire.session_panics;
    if let Some(p) = report.persist {
        tally.journal_bytes += p.journal_appended_bytes;
        tally.journal_records += records;
        tally.snapshots += p.snapshots_committed;
    }
    if pace == Pace::Sync {
        tally.queries.push(read.rtt_us);
    }

    match pace {
        Pace::Closed => {
            let rate = accepted as f64 / wall.as_secs_f64();
            if traced {
                tally.traced_rates.push(rate);
                tally.traced_records += accepted;
                tally.traced_wall_s += wall.as_secs_f64();
            } else {
                tally.closed_rates.push(rate);
                let marks = std::iter::once(t0).chain(sent_at.iter().copied());
                tally
                    .closed_marks
                    .push(marks.map(|at| (at - t0).as_secs_f64()).collect());
            }
        }
        Pace::Sync => tally.acks.push(acks),
        Pace::Open(rate) => {
            let scheduled_end = t0 + Duration::from_secs_f64(records as f64 / rate);
            let backlog: u64 = acked_at
                .iter()
                .filter(|&&(at, _)| at > scheduled_end)
                .map(|&(_, frames)| frames)
                .sum();
            tally.backlog_frames_end = tally.backlog_frames_end.max(backlog);
        }
    }
    if traced && !mismatch {
        for (k, &visible) in read.visible_at.iter().enumerate() {
            let sent = sent_at[plan.decidable_step[k]];
            tally
                .visible_ms
                .push(micros(visible.saturating_duration_since(sent)) / 1e3);
        }
    }
    Ok(())
}

/// The feeder side of a pass; returns the feed wall (first send to last
/// ack) and its start instant. `sent_at` gets the instant each step's
/// send (and a burst's flush) returned; `acks` the one-in-flight ack
/// latencies, µs.
#[allow(clippy::too_many_arguments)]
fn feed(
    inputs: &Inputs,
    pace: Pace,
    client: &mut ServeClient,
    tr: &mut Tracer,
    root: SpanId,
    sent_at: &mut Vec<Instant>,
    acks: &mut Vec<f64>,
    acked_at: &mut Vec<(Instant, u64)>,
    tally: &mut Tally,
) -> Result<(Duration, Instant)> {
    let plan = &inputs.plan;
    let counters = inputs.stack.counters();
    let t0 = Instant::now();
    let mut cum = 0u64;
    for (k, step) in plan.steps.iter().enumerate() {
        let records = plan.step_records(step, counters.len());
        let due = match pace {
            Pace::Open(rate) if records > 0 => {
                let due = t0 + Duration::from_secs_f64(cum as f64 / rate);
                let span = tr.open("bench.pace_wait", root);
                wait_until(due);
                tr.close(span);
                tally.gen_late_us.push(micros(due.elapsed()));
                Some(due)
            }
            Pace::Sync if records > 0 => Some(Instant::now()),
            _ => None,
        };
        let frames = match *step {
            Step::Batch { start, end } => {
                let span = tr.open("serve.client.send", root);
                client.send_batch(&plan.records[start..end])?;
                tr.close(span);
                1
            }
            Step::Chunk { feed, start, end } => {
                let f = &inputs.feeds[feed];
                let span = tr.open("serve.client.send", root);
                let mut frames = 0;
                for (c, &counter) in counters.iter().enumerate() {
                    frames += client.send_column(
                        f.machine_id,
                        counter_code(counter),
                        &f.times[start..end],
                        &f.columns[c][start..end],
                    )?;
                }
                tr.close(span);
                frames
            }
            Step::Done { machine_id } => {
                let span = tr.open("serve.client.done", root);
                client.machine_done(machine_id)?;
                tr.close(span);
                0
            }
        };
        if pace == Pace::Closed && (k + 1) % BURST_STEPS == 0 {
            let span = tr.open("serve.client.flush", root);
            client.flush()?;
            tr.close(span);
        }
        sent_at.push(Instant::now());
        tally.frames_sent += frames;
        cum += records;
        if let Some(due) = due {
            let span = tr.open("serve.client.flush", root);
            client.flush()?;
            tr.close(span);
            let acked = Instant::now();
            if pace == Pace::Sync {
                acks.push(micros(acked - due));
            } else {
                tally.paced_ack_us.push(micros(acked - due));
                acked_at.push((acked, frames));
            }
        }
    }
    let span = tr.open("serve.client.flush", root);
    client.flush()?;
    tr.close(span);
    Ok((t0.elapsed(), t0))
}

/// The journal directory a record workload writes under `out_dir`.
pub fn journal_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("journal-{}", std::process::id()))
}
