//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs the system through
//! its public API, checks every pass's alarm history against the offline
//! supervisor, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A human-readable summary with sample counts goes to
//! standard error. Exits 1 when any output was wrong, 2 on a usage or
//! run error (then without a result line). See `README.md`.

mod fleet;
mod inproc;
mod layers;
mod stats;
mod tally;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::time::Instant;

use aging_timeseries::{Error, Result};

use crate::fleet::{build_inputs, Inputs, Stack};
use crate::layers::LayerCosts;
use crate::stats::{
    block_mean, block_median, median, median_by_position, median_pass_median, percentile,
    steady_rate, Summary,
};
use crate::tally::{rss_mib, Tally};
use crate::trace::{SpanId, Tracer};
use crate::wire::{Pace, WireMode};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// p99 blocks a run's latency samples must fill.
const MIN_BLOCKS: usize = 3;
/// Reads a pass must hold for its median to count: a pass is about
/// 100 ms, so 50 reads at one every 2 ms.
const MIN_PASS_READS: usize = 20;
/// Where journals, probes and span files go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WireRecordTrend,
    WireColumnarPaper,
    InprocPaperReplay,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::WireRecordTrend,
        Workload::WireColumnarPaper,
        Workload::InprocPaperReplay,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::WireRecordTrend => "wire-record-trend",
            Workload::WireColumnarPaper => "wire-columnar-paper",
            Workload::InprocPaperReplay => "inproc-paper-replay",
        }
    }

    fn stack(self) -> Stack {
        match self {
            Workload::WireRecordTrend => Stack::Trend,
            _ => Stack::Paper,
        }
    }

    /// Offered rate of the wire workloads' paced phase, records/s. Each
    /// paced batch is acked before the next is sent, so the paced phase
    /// saturates well below the pipelined closed-loop rate; these rates
    /// are about a quarter of the closed-loop rate measured on a 2-vCPU
    /// x86-64 VM, which keeps the paced phase below saturation through
    /// the host's slow spells. The in-process workload has no paced phase:
    /// with nothing between feeder and engine, its ack is the ingest call
    /// itself.
    fn paced_rate(self) -> Option<f64> {
        match self {
            Workload::WireRecordTrend => Some(40_000.0),
            Workload::WireColumnarPaper => Some(60_000.0),
            Workload::InprocPaperReplay => None,
        }
    }

    fn wire_mode(self, out_dir: &Path) -> Option<WireMode> {
        match self {
            Workload::WireRecordTrend => Some(WireMode {
                record_frames: true,
                journal: Some(wire::journal_dir(out_dir)),
            }),
            Workload::WireColumnarPaper => Some(WireMode {
                record_frames: false,
                journal: None,
            }),
            Workload::InprocPaperReplay => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Everything a run measured, before it is turned into metrics.
struct Run {
    tally: Tally,
    setup_s: Vec<f64>,
    feed_gen_s: f64,
    ticks: u64,
    deterministic: bool,
    rss_growth_mib: f64,
    paced_passes: u64,
    /// See [`steady_rate`]; `None` without a whole window.
    steady_rate: Option<f64>,
    /// The median ack latency at each plan position, ascending, µs.
    typical_acks: Vec<f64>,
    /// See [`median_pass_median`]; `None` if no pass had enough reads.
    query_p50: Option<f64>,
    layers: Option<LayerCosts>,
    tracer: Tracer,
    inputs: Inputs,
}

fn run(args: &Args, out_dir: &Path) -> Result<Run> {
    let w = args.workload;
    let mode = w.wire_mode(out_dir);
    let record_frames = mode.as_ref().is_some_and(|m| m.record_frames);
    let mut tracer = Tracer::new(args.trace, Instant::now(), 1);

    // Set-up, repeated: feed generation, offline reference, server bind.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs: Option<Inputs> = None;
    let mut deterministic = true;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let root = tracer.open("bench.setup", SpanId::ROOT);
        let built = build_inputs(args.seed, w.stack(), record_frames, &mut tracer, root)?;
        if let Some(mode) = &mode {
            let span = tracer.open("serve.server.bind", root);
            wire::bind(&built, mode)?.shutdown();
            tracer.close(span);
        }
        tracer.close(root);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &inputs {
            deterministic &= prev.feeds == built.feeds && prev.offline_bytes == built.offline_bytes;
        }
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let feed_gen_s = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "memsim.feed_gen")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum::<f64>()
        / SETUP_REPEATS as f64;

    let mut tally = Tally::default();
    let mut pass_no = 0u64;
    let mut one_pass = |pace: Pace, tracer: &mut Tracer, tally: &mut Tally| -> Result<()> {
        pass_no += 1;
        match &mode {
            Some(mode) => wire::pass(&inputs, mode, pace, pass_no, tracer, tally),
            None => inproc::pass(&inputs, pass_no, tracer, tally),
        }
    };

    // Warm-up: one untraced closed-loop pass, checked but not timed.
    tracer.set_enabled(false);
    let mut warm = Tally::default();
    one_pass(Pace::Closed, &mut tracer, &mut warm)?;
    tally.attempted += warm.attempted;
    tally.mismatches += warm.mismatches;
    tally.unacked += warm.unacked;

    // The timed window interleaves the workload's kinds of pass, always
    // running the kind that has had the least time so far, so all of them
    // sample the same stretch of host conditions. A traced run traces
    // every other pipelined pass, so traced and untraced rates compare.
    let rss0 = rss_mib();
    let kinds: Vec<Pace> = match w.paced_rate() {
        Some(rate) => vec![Pace::Closed, Pace::Sync, Pace::Open(rate)],
        None => vec![Pace::Closed],
    };
    let mut spent = vec![0.0f64; kinds.len()];
    let mut passes = vec![0u64; kinds.len()];
    // A traced run also replays every layer alone, REPS times spread
    // over the window; replay time does not count against the window.
    let journal = mode.as_ref().is_some_and(|m| m.journal.is_some());
    let wire_frames = mode.as_ref().map(|m| m.record_frames);
    let mut rounds: Vec<LayerCosts> = Vec::new();
    while passes.iter().any(|&n| n < 2) || spent.iter().sum::<f64>() < args.seconds {
        let due_rounds =
            (spent.iter().sum::<f64>() / args.seconds * layers::REPS as f64 + 0.5) as usize;
        if args.trace && rounds.len() < due_rounds.min(layers::REPS) {
            tracer.set_enabled(true);
            rounds.push(layers::measure(
                &inputs,
                wire_frames,
                journal,
                out_dir,
                &mut tracer,
            )?);
        }
        let k = (0..kinds.len())
            .min_by(|&a, &b| spent[a].total_cmp(&spent[b]))
            .expect("at least one kind of pass");
        tracer.set_enabled(args.trace && (kinds[k] != Pace::Closed || passes[k] % 2 == 1));
        let t0 = Instant::now();
        one_pass(kinds[k], &mut tracer, &mut tally)?;
        spent[k] += t0.elapsed().as_secs_f64();
        passes[k] += 1;
    }
    let paced_passes = kinds
        .iter()
        .zip(&passes)
        .filter(|(k, _)| matches!(k, Pace::Open(_)))
        .map(|(_, &n)| n)
        .sum();
    tracer.set_enabled(args.trace);
    let rss_growth_mib = rss_mib() - rss0;

    while args.trace && rounds.len() < layers::REPS {
        rounds.push(layers::measure(
            &inputs,
            wire_frames,
            journal,
            out_dir,
            &mut tracer,
        )?);
    }
    let layers = args.trace.then(|| LayerCosts::median_of(&rounds));
    if let Some(dir) = mode.as_ref().and_then(|m| m.journal.as_ref()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let records_before = inputs.plan.records_before(w.stack().counters().len());
    let steady = steady_rate(&tally.closed_marks, &records_before, wire::BURST_STEPS);
    let mut typical_acks = median_by_position(&tally.acks);
    typical_acks.sort_by(f64::total_cmp);
    let query_p50 = median_pass_median(&tally.queries, MIN_PASS_READS);
    Ok(Run {
        tally,
        setup_s,
        feed_gen_s,
        ticks: inputs.ticks,
        deterministic,
        rss_growth_mib,
        paced_passes,
        steady_rate: steady,
        typical_acks,
        query_p50,
        layers,
        tracer,
        inputs,
    })
}

fn block(samples: &[f64], p: f64) -> f64 {
    block_median(samples, p).expect("sample count checked")
}

/// Every pass replays the same plan, so each figure is a median over the
/// run's passes: a host stall that hits a burst, a batch or a pass in
/// fewer than half of them does not move it. The rate sums each burst's
/// median time ([`steady_rate`]); the ack p90 is over each plan
/// position's median ack ([`median_by_position`]), not the p50, which
/// jumps between the two modes of a two-valued chunk cost; reads are due
/// on a clock, not at plan positions, so the query p50 is the median of
/// the per-pass medians ([`median_pass_median`]). Raw-sample means and
/// percentiles move with the host and are in the summary and the
/// per-layer ledger.
fn end_to_end(r: &Run) -> Vec<Metric> {
    let ack_p90 = if r.typical_acks.is_empty() {
        f64::NAN
    } else {
        percentile(&r.typical_acks, 90.0)
    };
    vec![
        metric(
            "ingest_rec_per_s",
            r.steady_rate.unwrap_or(f64::NAN),
            "rec/s",
        ),
        metric("ack_p90_us", ack_p90, "us"),
        metric("query_p50_us", r.query_p50.unwrap_or(f64::NAN), "us"),
        metric("setup_s", median(&r.setup_s), "s"),
    ]
}

fn per_layer(r: &Run, w: Workload) -> Vec<Metric> {
    let t = &r.tally;
    let l = r.layers.as_ref().expect("traced runs measure layers");
    let records = r.inputs.plan.total_records as f64;
    let times = trace::self_times(r.tracer.spans());
    let self_s = |name: &str| times.get(name).map_or(0.0, |&ns| ns as f64 / 1e9);
    let wire = w != Workload::InprocPaperReplay;
    let traced_wall_ns = t.traced_wall_s * 1e9 / t.traced_records.max(1) as f64;
    let untraced_wall_ns = 1e9 / median(&t.closed_rates);
    let accounted = if wire {
        l.decode_ns + l.pipeline_ns + l.store_ns
    } else {
        l.pipeline_ns + l.release_ns
    };
    let family = |f: &str| l.family_ns.get(f).copied().unwrap_or(0.0);
    let store = l.store_append();
    let gen_late = Summary::of(&t.gen_late_us);
    let paced = Summary::of(&t.paced_ack_us);
    let visible = Summary::of(&t.visible_ms);
    let frames = t.frames_sent.max(1) as f64;
    let ack_us = t.ack_us();
    let query_us = t.query_us();
    vec![
        metric("memsim.feed_gen_s", r.feed_gen_s, "s"),
        metric("memsim.ticks", r.ticks as f64, "count"),
        metric("serve.protocol.encode_ns_per_rec", l.encode_ns, "ns/rec"),
        metric("serve.protocol.decode_ns_per_rec", l.decode_ns, "ns/rec"),
        metric(
            "serve.protocol.wire_bytes_per_rec",
            l.wire_bytes_per_rec,
            "B/rec",
        ),
        metric(
            "serve.client.send_block_s",
            self_s("serve.client.send"),
            "s",
        ),
        metric(
            "serve.client.flush_wait_s",
            self_s("serve.client.flush"),
            "s",
        ),
        metric("serve.client.frames", t.frames_sent as f64, "count"),
        metric(
            "serve.client.busy_frac",
            t.busy_frames as f64 / frames,
            "ratio",
        ),
        metric("serve.server.frames", t.server_frames as f64, "count"),
        metric("serve.server.malformed", t.server_malformed as f64, "count"),
        metric(
            "serve.server.quarantined",
            t.server_quarantined as f64,
            "count",
        ),
        metric(
            "serve.server.session_panics",
            t.server_session_panics as f64,
            "count",
        ),
        metric(
            "serve.server.overhead_ns_per_rec",
            if wire {
                untraced_wall_ns - l.pipeline_ns
            } else {
                0.0
            },
            "ns/rec",
        ),
        metric("serve.query.count", query_us.len() as f64, "count"),
        metric("serve.alarm_visible_p50_ms", visible.p50, "ms"),
        metric("store.append_us_p50", store.p50, "us"),
        metric("store.append_us_p99", store.p99, "us"),
        metric(
            "store.journal_bytes_per_rec",
            t.journal_bytes as f64 / t.journal_records.max(1) as f64,
            "B/rec",
        ),
        metric(
            "store.snapshots",
            t.snapshots as f64 * records / t.journal_records.max(1) as f64,
            "count",
        ),
        metric("stream.gate.ns_per_rec", l.gate_ns, "ns/rec"),
        metric("stream.gate.dropped", l.gate_dropped as f64, "count"),
        metric(
            "stream.detector.trend.ns_per_rec",
            family("trend"),
            "ns/rec",
        ),
        metric(
            "stream.detector.holder.ns_per_rec",
            family("holder"),
            "ns/rec",
        ),
        metric(
            "stream.detector.spectrum.ns_per_rec",
            family("spectrum"),
            "ns/rec",
        ),
        metric(
            "fractal.spectrum.emissions",
            l.spectrum_emissions as f64,
            "count",
        ),
        metric("fractal.spectrum.us_per_emission", l.us_per_emission, "us"),
        metric("stream.pipeline.ns_per_rec", l.pipeline_ns, "ns/rec"),
        metric(
            "stream.fusion.self_ns_per_rec",
            l.pipeline_ns - l.gate_ns - l.families_ns(),
            "ns/rec",
        ),
        metric("stream.sink.release_ns_per_rec", l.release_ns, "ns/rec"),
        metric("bench.ledger_coverage", accounted / traced_wall_ns, "ratio"),
        metric(
            "bench.trace_overhead_frac",
            1.0 - median(&t.traced_rates) / median(&t.closed_rates),
            "ratio",
        ),
        metric("bench.paced_ack_p50_us", paced.p50, "us"),
        metric("bench.paced_ack_p99_us", paced.p99, "us"),
        metric("bench.gen_late_p99_us", gen_late.p99, "us"),
        metric(
            "bench.backlog_frames_end",
            t.backlog_frames_end as f64,
            "count",
        ),
        metric("bench.ack_p50_us", block(&ack_us, 50.0), "us"),
        metric(
            "bench.ack_mean_us",
            block_mean(&ack_us).expect("sample count checked"),
            "us",
        ),
        metric("bench.ack_p99_us", block(&ack_us, 99.0), "us"),
        metric("bench.ack_samples", ack_us.len() as f64, "count"),
        metric("bench.query_p90_us", block(&query_us, 90.0), "us"),
        metric("bench.query_p99_us", block(&query_us, 99.0), "us"),
        metric("bench.query_samples", query_us.len() as f64, "count"),
        metric(
            "bench.failed_ops_frac",
            t.failed() as f64 / t.attempted.max(1) as f64,
            "ratio",
        ),
        metric("bench.rss_growth_mib", r.rss_growth_mib, "MiB"),
    ]
}

fn summarise(args: &Args, r: &Run, ack: &Summary, query: &Summary) {
    let t = &r.tally;
    let top = |s: &Summary| match s.top {
        Some((p, v)) => format!("p{p} = {v:.1}"),
        None => "none".to_string(),
    };
    eprintln!(
        "perfbench {} seed {}: {} closed-loop passes (median {:.0} rec/s, steady {:.0} rec/s), \
         {} ack passes, {} paced passes at {:.0} rec/s, {} records/pass, {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        t.closed_rates.len() + t.traced_rates.len(),
        median(&t.closed_rates),
        r.steady_rate.unwrap_or(f64::NAN),
        t.acks.len(),
        r.paced_passes,
        args.workload.paced_rate().unwrap_or(0.0),
        r.inputs.plan.total_records,
        t.attempted,
        t.failed(),
    );
    if !r.typical_acks.is_empty() {
        eprintln!(
            "  median ack per plan position over passes: n={} p50={:.1}us p90={:.1}us p99={:.1}us; \
             median per-pass query median {:.1}us",
            r.typical_acks.len(),
            percentile(&r.typical_acks, 50.0),
            percentile(&r.typical_acks, 90.0),
            percentile(&r.typical_acks, 99.0),
            r.query_p50.unwrap_or(f64::NAN)
        );
    }
    let ack_us = t.ack_us();
    let query_us = t.query_us();
    for (what, s, samples) in [("ack", ack, &ack_us), ("query", query, &query_us)] {
        let block = |p: f64| block_median(samples, p).unwrap_or(f64::NAN);
        eprintln!(
            "  {what:5} n={} pooled p50={:.1}us p99={:.1}us highest supported: {}; \
             block mean={:.1}us, block-median p50={:.1}us p90={:.1}us p99={:.1}us",
            s.n,
            s.p50,
            s.p99,
            top(s),
            block_mean(samples).unwrap_or(f64::NAN),
            block(50.0),
            block(90.0),
            block(99.0)
        );
    }
    let gen_late = Summary::of(&t.gen_late_us);
    let paced = Summary::of(&t.paced_ack_us);
    eprintln!(
        "  paced ack from due time n={} p50={:.1}us p99={:.1}us; generator late p50={:.1}us \
         p99={:.1}us; worst backlog at a paced pass's end {} frames",
        paced.n, paced.p50, paced.p99, gen_late.p50, gen_late.p99, t.backlog_frames_end
    );
    eprintln!(
        "  set-up {:?} s (median of {SETUP_REPEATS}); rss growth {:.2} MiB; deterministic inputs: {}",
        r.setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        r.rss_growth_mib,
        r.deterministic
    );
}

fn outcome(args: &Args, r: &Run) -> std::result::Result<Outcome, String> {
    let ack = Summary::of(&r.tally.ack_us());
    let query = Summary::of(&r.tally.query_us());
    summarise(args, r, &ack, &query);
    for (what, s) in [("ack", &ack), ("query", &query)] {
        let needed = MIN_BLOCKS * stats::block_len(99.0);
        if s.n < needed {
            return Err(format!(
                "{what} latency has {} samples, fewer than the {needed} a p99 block median needs",
                s.n
            ));
        }
    }
    let metrics = if args.trace {
        per_layer(r, args.workload)
    } else {
        end_to_end(r)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let failed = r.tally.failed() + u64::from(!r.deterministic);
    Ok(Outcome {
        correct: failed == 0,
        attempted: r.tally.attempted,
        failed,
        metrics,
    })
}

fn to_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU it is running on. Unpinned, the scheduler may put the feeder
/// and the server's session on one CPU or on two, pass by pass, and on a
/// shared 2-vCPU host single pipelined passes ran up to 40 % above the
/// median pass. Pinned, the passes run alike. Returns the CPU.
fn pin_to_current_cpu() -> std::result::Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 CPUs.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= 64 * mask.len() {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live, initialised
    // buffer of the byte size passed, and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // Detector kernels run on a pool of width 1: the in-process workload
    // is the single-threaded baseline, and the whole process runs on one
    // CPU.
    std::env::set_var(aging_par::THREADS_ENV, "1");
    match pin_to_current_cpu() {
        Ok(cpu) => eprintln!("perfbench: pinned to cpu {cpu}"),
        Err(e) => eprintln!("perfbench: running unpinned: {e}"),
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let result = run(&args, &out_dir)
        .map_err(|e: Error| e.to_string())
        .and_then(|r| {
            if args.trace {
                let path =
                    out_dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
                r.tracer
                    .write_json(&path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                eprintln!(
                    "  spans: {} written to {}",
                    r.tracer.spans().len(),
                    path.display()
                );
            }
            outcome(&args, &r)
        });
    match result {
        Ok(o) => {
            println!("{}", to_json(&o));
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
