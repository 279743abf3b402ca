//! JSON fixtures: the bytes `serde_json` writes and the values it parses.
//!
//! Three promises, each checked against committed data:
//!
//! 1. `to_string` and `to_string_pretty` of one value of every type in
//!    the workspace that derives `Serialize`/`Deserialize` equal the text
//!    in `fixtures/json_fixtures.txt`. The values cover NaN and infinite
//!    floats, `None`, every enum-variant shape, enum map keys and
//!    strings that need escapes. Both texts parse back to a value that
//!    re-emits the compact text byte for byte.
//! 2. A table of `from_str` inputs gives its recorded value (by `Debug`
//!    text) or an error: whitespace, trailing input, unknown and repeated
//!    keys, missing fields, integral floats into integers, out-of-range
//!    integers, surrogate pairs and deep nesting.
//! 3. Every committed `bench_results/BENCH_*.json` trajectory re-emits
//!    byte for byte through `from_str`, `to_string_pretty` and `"\n"`,
//!    which is how `trajectory::append` writes it.
//!
//! The fixture file has no regenerate path: a change to these bytes is a
//! change to every JSON document the workspace has ever written.

use std::collections::BTreeMap;
use std::fmt::Debug;

use aging_bench::trajectory::BenchEntry;
use aging_chaos::{
    ActiveWindow, ChaosPlan, CsvChaosConfig, CsvGarbleCounts, InjectionCounters, InjectorSpec,
};
use aging_memsim::{
    Bytes, Counter, CrashCause, CrashEvent, FaultPlan, FragmentationSpec, HandleLeakSpec, LeakMode,
    LeakSpec, MachineConfig, MonitorLog, ReclaimSpec, Sample, SimTime, WorkloadConfig,
};
use aging_serve::{PersistStats, ServeStatus, WireCounters};
use aging_stream::{
    CounterStreamSnapshot, LatencyHistogram, MachineSnapshot, StageCounters, StatusSnapshot,
};
use aging_timeseries::TimeSeries;
use serde::de::DeserializeOwned;
use serde::Serialize;

const FIXTURES: &str = include_str!("fixtures/json_fixtures.txt");

/// A name needing every escape the writer knows, plus text it must not
/// escape (`/`, DEL, non-ASCII).
const AWKWARD: &str = "quote\" back\\ nl\n cr\r tab\t nul\u{0} us\u{1f} del\u{7f} /é😀";

fn stage(base: u64) -> StageCounters {
    StageCounters {
        ingested: base,
        accepted: base - 3,
        dropped_non_finite: 1,
        dropped_out_of_order: 2,
        gaps_detected: 0,
        quarantines: u64::MAX,
    }
}

fn histogram() -> LatencyHistogram {
    LatencyHistogram {
        counts: [0, 1, 2, 3, 4, 5, 6, 7, 8],
        total: 36,
        sum_us: 1_234_567,
        max_us: 250_000,
    }
}

fn status(time: f64) -> StatusSnapshot {
    StatusSnapshot {
        sequence: 42,
        stream_time_secs: time,
        machines_live: 3,
        machines_finished: 1,
        ingestion: stage(18_304),
        detector_latency: histogram(),
        warnings_emitted: 2,
        alarms_emitted: 1,
        alarm_queue_depth: 0,
        telemetry_dropped: 0,
        detector_errors: 0,
        restarts_granted: 5,
        restarts_denied: 7,
    }
}

fn wire() -> WireCounters {
    WireCounters {
        connections: 2,
        sessions_closed: 1,
        text_sessions: 0,
        frames: 1_205,
        batches: 1_180,
        records: 75_520,
        records_rejected: 0,
        acks_sent: 1_180,
        busy_sent: 3,
        malformed_frames: 0,
        corrupt_streams: 0,
        quarantined: 0,
        session_panics: 0,
        queries: 24,
    }
}

fn stream_snapshot(counter: Counter, delta_alpha: Option<f64>) -> CounterStreamSnapshot {
    CounterStreamSnapshot {
        counter: counter.to_string(),
        detector: "holder".to_string(),
        alarmed: true,
        disabled: false,
        degraded: true,
        delta_alpha,
        ingestion: stage(600),
    }
}

fn machine(last_time_secs: Option<f64>) -> MachineSnapshot {
    MachineSnapshot {
        machine_id: 7,
        name: AWKWARD.to_string(),
        last_time_secs,
        finished: false,
        fused: true,
        detector_errors: 0,
        ingestion: stage(1_200),
        streams: vec![
            stream_snapshot(Counter::AvailableBytes, None),
            stream_snapshot(Counter::CommittedBytes, Some(0.4375)),
            stream_snapshot(Counter::UsedSwapBytes, Some(f64::NAN)),
        ],
    }
}

/// One of each `InjectorSpec` variant, with windows and awkward floats.
fn injectors() -> Vec<InjectorSpec> {
    vec![
        InjectorSpec::nan_bursts(0.01, 4),
        InjectorSpec::duplicates(0.02, 3).with_window(60.0, 120.5),
        InjectorSpec::replays(0.005, 8),
        InjectorSpec::clock_step(3_600.0, -42.25),
        InjectorSpec::clock_skew(1.000_5),
        InjectorSpec::spikes(1e-3, 1024.0),
        InjectorSpec::counter_wrap(4_294_967_296.0),
        InjectorSpec::stalls(0.1, u32::MAX).with_window(-0.0, f64::INFINITY),
    ]
}

fn sample(t: f64, available: u64, page_faults: f64) -> Sample {
    Sample {
        time: SimTime::from_secs(t),
        available: Bytes::new(available),
        used_swap: Bytes::mib(3),
        committed: Bytes::gib(1),
        live_heap: Bytes::kib(640),
        page_faults_per_sec: page_faults,
        handle_count: 1_024,
        alloc_rate: 0.1 + 0.2,
    }
}

fn monitor_log() -> MonitorLog {
    let mut log = MonitorLog::new(30.0).expect("valid period");
    log.record(&sample(0.0, 200 << 20, 12.5));
    log.record(&sample(30.0, u64::MAX, f64::NAN));
    log.record_crash(CrashEvent {
        time: SimTime::from_secs(90.0),
        cause: CrashCause::Thrashing,
    });
    log
}

fn bench_entry() -> BenchEntry {
    let mut metrics = BTreeMap::new();
    metrics.insert("ingest_rec_per_s".to_string(), 625_123.456_789);
    metrics.insert("nan_metric".to_string(), f64::NAN);
    metrics.insert("tiny".to_string(), 5e-324);
    metrics.insert("huge".to_string(), 1e300);
    metrics.insert("whole".to_string(), -3.0);
    metrics.insert(AWKWARD.to_string(), f64::MAX);
    BenchEntry {
        experiment: "e14".to_string(),
        unix_secs: 1_760_000_000,
        quick: true,
        metrics,
    }
}

/// Renders one fixture section: compact text on one line, then the
/// pretty text.
fn section<T: Serialize + DeserializeOwned>(name: &str, value: &T) -> (String, String) {
    let compact = serde_json::to_string(value).expect("to_string");
    let pretty = serde_json::to_string_pretty(value).expect("to_string_pretty");
    for text in [&compact, &pretty] {
        let back: T = serde_json::from_str(text)
            .unwrap_or_else(|e| panic!("{name}: its own output does not parse: {e}\n{text}"));
        assert_eq!(
            serde_json::to_string(&back).expect("to_string"),
            compact,
            "{name}: parse then re-emit changed the bytes"
        );
    }
    (name.to_string(), format!("{compact}\n{pretty}\n"))
}

/// Every derived type, in a fixed order.
fn sections() -> Vec<(String, String)> {
    let mut plan = ChaosPlan::new(0xDEAD_BEEF);
    for spec in injectors() {
        plan = plan.with(spec);
    }
    let mut no_reclaim = FaultPlan::aging(12.5);
    no_reclaim.leaks.push(LeakSpec {
        bytes_per_hour: 1e6,
        mode: LeakMode::Step {
            period_secs: 86_400.0,
        },
        start_secs: 7_200.0,
    });
    no_reclaim.leaks.push(LeakSpec {
        bytes_per_hour: 0.0,
        mode: LeakMode::Bursty { p: 0.05 },
        start_secs: 0.0,
    });
    let with_reclaim = FaultPlan {
        reclaim: Some(ReclaimSpec {
            period_secs: 600.0,
            reclaim_fraction: 0.75,
        }),
        ..FaultPlan::healthy()
    };
    let mut config = MachineConfig::workstation_nt4();
    config.name = AWKWARD.to_string();
    let mut workload = WorkloadConfig::web_server();
    workload.diurnal_amplitude = 0.3;
    vec![
        // aging-chaos
        section("CsvChaosConfig", &CsvChaosConfig::default()),
        section(
            "CsvGarbleCounts",
            &CsvGarbleCounts {
                truncated: 1,
                garbled: 0,
                blanked: u64::MAX,
            },
        ),
        section(
            "InjectionCounters",
            &InjectionCounters {
                offered: 10_000,
                emitted: 10_012,
                non_finite: 7,
                duplicated: 20,
                replayed: 4,
                clock_stepped: 5_000,
                clock_skewed: 0,
                spiked: 3,
                wrapped: 0,
                stalled: 12,
            },
        ),
        section("ActiveWindow", &ActiveWindow::new(1.5, 1e18)),
        section("InjectorSpec", &injectors()),
        section("ChaosPlan", &plan),
        // aging-serve
        section("WireCounters", &wire()),
        section(
            "ServeStatus",
            &ServeStatus {
                wire: wire(),
                fleet: status(86_399.999_999_5),
            },
        ),
        section(
            "PersistStats",
            &PersistStats {
                entries_journaled: 1_001,
                journal_appended_bytes: 1_638_400,
                snapshots_committed: 2,
            },
        ),
        // aging-timeseries
        section(
            "TimeSeries",
            &TimeSeries::from_values(
                -30.0,
                0.5,
                vec![
                    1.0,
                    -2.5,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e-7,
                    123_456_789.0,
                ],
            )
            .expect("valid series"),
        ),
        // aging-stream
        section("StageCounters", &stage(99)),
        section("LatencyHistogram", &histogram()),
        section("StatusSnapshot", &status(f64::NAN)),
        section(
            "CounterStreamSnapshot",
            &stream_snapshot(Counter::HandleCount, Some(-0.0)),
        ),
        section(
            "MachineSnapshot",
            &vec![machine(None), machine(Some(1_800.25))],
        ),
        // aging-memsim
        section("WorkloadConfig", &workload),
        section("Counter", &Counter::ALL.to_vec()),
        section(
            "CrashEvent",
            &CrashEvent {
                time: SimTime::from_hours(36.5),
                cause: CrashCause::OutOfMemory,
            },
        ),
        section("MonitorLog", &monitor_log()),
        section(
            "Bytes",
            &vec![Bytes::ZERO, Bytes::mib(256), Bytes::new(u64::MAX)],
        ),
        section(
            "SimTime",
            &vec![
                SimTime::ZERO,
                SimTime::from_secs(0.1),
                SimTime::from_secs(f64::NAN),
            ],
        ),
        section(
            "CrashCause",
            &vec![CrashCause::OutOfMemory, CrashCause::Thrashing],
        ),
        section("MachineConfig", &config),
        section(
            "LeakMode",
            &vec![
                LeakMode::Linear,
                LeakMode::Step {
                    period_secs: 3_600.0,
                },
                LeakMode::Bursty { p: 0.25 },
            ],
        ),
        section("LeakSpec", &LeakSpec::linear_mib_per_hour(64.0)),
        section(
            "FragmentationSpec",
            &FragmentationSpec {
                fraction_per_hour: 0.004,
                max_fraction: 0.9,
            },
        ),
        section(
            "HandleLeakSpec",
            &HandleLeakSpec {
                handles_per_hour: 360.0,
                bytes_per_handle: 4_096,
            },
        ),
        section("ReclaimSpec", &with_reclaim.reclaim.expect("set above")),
        section(
            "FaultPlan",
            &vec![FaultPlan::healthy(), no_reclaim, with_reclaim],
        ),
        // aging-bench
        section("BenchEntry", &vec![bench_entry()]),
    ]
}

/// The fixture file's sections: `@ <name>` lines, each followed by the
/// compact line and the pretty text. `#` lines before the first section
/// are comments.
fn committed_sections() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in FIXTURES.lines() {
        if let Some(name) = line.strip_prefix("@ ") {
            out.push((name.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        } else {
            assert!(
                line.starts_with('#'),
                "text before the first section: {line}"
            );
        }
    }
    out
}

#[test]
fn every_derived_type_writes_its_committed_bytes() {
    let actual = sections();
    let committed = committed_sections();
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let committed_names: Vec<&str> = committed.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, committed_names, "fixture sections differ");
    for ((name, text), (_, want)) in actual.iter().zip(&committed) {
        assert_eq!(text, want, "{name}: written bytes differ from the fixture");
    }
}

/// What one `from_str` input must give.
enum Want {
    /// `Ok`, with this `Debug` text.
    Value(&'static str),
    /// `Err`, with a message containing this text.
    Error(&'static str),
}

fn check<T: DeserializeOwned + Debug>(input: &str, want: Want) {
    let got = serde_json::from_str::<T>(input);
    let ty = std::any::type_name::<T>();
    match (want, got) {
        (Want::Value(text), Ok(value)) => {
            assert_eq!(format!("{value:?}"), text, "{ty} from {input:?}");
        }
        (Want::Error(part), Err(e)) => {
            assert!(
                e.to_string().contains(part),
                "{ty} from {input:?}: error {e} does not mention {part:?}"
            );
        }
        (Want::Value(text), Err(e)) => panic!("{ty} from {input:?}: want {text}, got error {e}"),
        (Want::Error(_), Ok(value)) => panic!("{ty} from {input:?}: want an error, got {value:?}"),
    }
}

#[test]
fn parse_table() {
    use Want::{Error, Value};

    // Scalars, whitespace and trailing input.
    check::<u64>("5", Value("5"));
    check::<u64>(" \t\r\n5 \n", Value("5"));
    check::<u64>("5 x", Error(""));
    check::<u64>("5,", Error(""));
    check::<u64>("", Error(""));
    check::<u64>("5.0", Value("5"));
    check::<u64>("1e3", Value("1000"));
    check::<u64>("5.5", Error(""));
    check::<u64>("-1", Error(""));
    check::<u64>("01", Value("1"));
    check::<u64>("+1", Error(""));
    check::<u64>("18446744073709551615", Value("18446744073709551615"));
    check::<u64>("\"5\"", Error(""));
    check::<u64>("null", Error(""));
    check::<u8>("255", Value("255"));
    check::<u8>("300", Error(""));
    check::<i64>("-1", Value("-1"));
    check::<i64>("-5.0", Value("-5"));
    check::<i64>("9223372036854775808", Error(""));
    check::<f64>("2.5", Value("2.5"));
    check::<f64>("-0", Value("0.0"));
    check::<f64>("-0.0", Value("-0.0"));
    check::<f64>("null", Value("NaN"));
    check::<f64>("1e400", Value("inf"));
    check::<f64>("12345678901234567890123", Value("1.2345678901234568e22"));
    check::<f64>("1.5e", Error(""));
    check::<f64>("-", Error(""));
    check::<f64>("nul", Error(""));
    check::<f64>("true", Error(""));
    check::<bool>("true", Value("true"));
    check::<bool>("false ", Value("false"));
    check::<bool>("1", Error(""));
    check::<Option<u64>>("null", Value("None"));
    check::<Option<u64>>("7", Value("Some(7)"));

    // Strings: escapes, surrogate pairs, raw control characters.
    check::<String>(
        r#""a\u00e9\ud83d\ude00\n\/\"\\\b\f\r\t""#,
        Value(r#""aé😀\n/\"\\\u{8}\u{c}\r\t""#),
    );
    check::<String>("\"é😀\"", Value("\"é😀\""));
    check::<String>(r#""\ud83d""#, Error(""));
    check::<String>(r#""\ud83dx""#, Error(""));
    check::<String>(r#""\ude00""#, Error(""));
    check::<String>(r#""\u12""#, Error(""));
    check::<String>(r#""\x""#, Error(""));
    check::<String>("\"tab\there\"", Error(""));
    check::<String>("\"open", Error(""));

    // Sequences and fixed arrays.
    check::<Vec<f64>>("[1,2.5,null]", Value("[1.0, 2.5, NaN]"));
    check::<Vec<f64>>(" [ ] ", Value("[]"));
    check::<Vec<f64>>("[1,]", Error(""));
    check::<Vec<f64>>("[,1]", Error(""));
    check::<Vec<f64>>("[1 2]", Error(""));
    check::<Vec<f64>>("[1", Error(""));
    check::<Vec<u64>>("[1,-1]", Error(""));
    let counts = "\"counts\":[1,2,3,4,5,6,7,8,9],\"total\":45,\"sum_us\":10,\"max_us\":3";
    check::<LatencyHistogram>(
        &format!("{{{counts}}}"),
        Value("LatencyHistogram { counts: [1, 2, 3, 4, 5, 6, 7, 8, 9], total: 45, sum_us: 10, max_us: 3 }"),
    );
    check::<LatencyHistogram>(
        "{\"counts\":[1,2,3,4,5,6,7,8],\"total\":45,\"sum_us\":10,\"max_us\":3}",
        Error(""),
    );
    check::<LatencyHistogram>(
        "{\"counts\":[1,2,3,4,5,6,7,8,9,10],\"total\":45,\"sum_us\":10,\"max_us\":3}",
        Error(""),
    );

    // Structs: unknown keys are skipped, the first of a repeated key
    // wins, and a missing field is `None` for an `Option` and otherwise
    // an error naming it (even a float, which reads `null` as NaN).
    check::<ActiveWindow>(
        "{\"onset_secs\":1,\"duration_secs\":2}",
        Value("ActiveWindow { onset_secs: 1.0, duration_secs: 2.0 }"),
    );
    check::<ActiveWindow>(
        " {\n  \"duration_secs\" : 2 ,\n  \"onset_secs\" : 1\n} \n",
        Value("ActiveWindow { onset_secs: 1.0, duration_secs: 2.0 }"),
    );
    check::<ActiveWindow>(
        "{\"onset_secs\":1,\"extra\":[{\"x\":null,\"y\":[true,\"\\u0041\"]}],\"duration_secs\":2}",
        Value("ActiveWindow { onset_secs: 1.0, duration_secs: 2.0 }"),
    );
    check::<ActiveWindow>(
        "{\"onset_secs\":1,\"extra\":[1,],\"duration_secs\":2}",
        Error(""),
    );
    check::<ActiveWindow>(
        "{\"onset_secs\":1,\"onset_secs\":\"x\",\"duration_secs\":2,\"duration_secs\":3}",
        Value("ActiveWindow { onset_secs: 1.0, duration_secs: 2.0 }"),
    );
    check::<ActiveWindow>(
        "{\"onset\\u005fsecs\":1,\"duration_secs\":2}",
        Value("ActiveWindow { onset_secs: 1.0, duration_secs: 2.0 }"),
    );
    check::<ActiveWindow>("{\"onset_secs\":1}", Error("missing field `duration_secs`"));
    check::<ActiveWindow>("{\"onset_secs\":1,\"duration_secs\":2} x", Error(""));
    check::<ActiveWindow>("{\"onset_secs\":1,\"duration_secs\":2,}", Error(""));
    check::<ActiveWindow>("{\"onset_secs\" 1,\"duration_secs\":2}", Error(""));
    check::<ActiveWindow>("{onset_secs:1,\"duration_secs\":2}", Error(""));
    check::<ActiveWindow>("[1,2]", Error(""));
    check::<CsvGarbleCounts>(
        "{\"truncated\":1,\"blanked\":2}",
        Error("missing field `garbled`"),
    );
    check::<CsvGarbleCounts>(
        "{\"truncated\":1,\"garbled\":null,\"blanked\":2}",
        Error(""),
    );
    check::<FaultPlan>(
        "{\"leaks\":[]}",
        Value("FaultPlan { leaks: [], fragmentation: None, handle_leak: None, reclaim: None }"),
    );
    check::<FaultPlan>("{}", Error("missing field `leaks`"));
    check::<ServeStatus>("{\"wire\":{}}", Error("missing field `connections`"));
    let wire_json = serde_json::to_string(&wire()).expect("to_string");
    check::<ServeStatus>(
        &format!("{{\"wire\":{wire_json}}}"),
        Error("missing field `fleet`"),
    );
    check::<SimTime>("12.5", Value("SimTime(12.5)"));
    check::<SimTime>("[12.5]", Error(""));
    check::<Bytes>("4096.0", Value("Bytes(4096)"));
    check::<Bytes>("-4096", Error(""));
    check::<WorkloadConfig>(
        &serde_json::to_string(&WorkloadConfig::web_server())
            .expect("to_string")
            .replace("[0.72,0.23,0.05]", "[0.72,0.23]"),
        Error(""),
    );

    // Enums: a unit variant is its name, a struct variant a one-key map.
    check::<LeakMode>("\"Linear\"", Value("Linear"));
    check::<LeakMode>(
        "{\"Step\":{\"period_secs\":60}}",
        Value("Step { period_secs: 60.0 }"),
    );
    check::<LeakMode>(
        "{ \"Bursty\" : { \"p\" : 0.5 , \"q\" : 1 } }",
        Value("Bursty { p: 0.5 }"),
    );
    check::<LeakMode>("\"Step\"", Error(""));
    check::<LeakMode>("{\"Linear\":null}", Error(""));
    check::<LeakMode>(
        "{\"Step\":{\"period_secs\":1},\"Bursty\":{\"p\":0.5}}",
        Error(""),
    );
    check::<LeakMode>("{}", Error(""));
    check::<LeakMode>("\"Nope\"", Error(""));
    check::<LeakMode>("{\"Nope\":{}}", Error(""));
    check::<LeakMode>("0", Error(""));
    check::<Counter>("\"HandleCount\"", Value("HandleCount"));
    check::<Counter>("\"handle_count\"", Error(""));
    check::<CrashCause>("\"Thrashing\"", Value("Thrashing"));

    // Maps: enum keys parse from their string token, integer keys are
    // refused, and a repeated map key keeps its last value.
    check::<MonitorLog>(
        "{\"sample_period\":30,\"samples\":{\"HandleCount\":[1,2],\"AvailableBytes\":[null]},\"crashes\":[]}",
        Value("MonitorLog { sample_period: 30.0, samples: {AvailableBytes: [NaN], HandleCount: [1.0, 2.0]}, crashes: [] }"),
    );
    check::<MonitorLog>(
        "{\"sample_period\":30,\"samples\":{\"5\":[1]},\"crashes\":[]}",
        Error(""),
    );
    check::<MonitorLog>(
        "{\"sample_period\":30,\"samples\":{\"Bogus\":[1]},\"crashes\":[]}",
        Error(""),
    );
    check::<Vec<BenchEntry>>(
        "[{\"experiment\":\"e1\",\"unix_secs\":1,\"quick\":false,\"metrics\":{\"a\":1,\"b\":2,\"a\":3}}]",
        Value("[BenchEntry { experiment: \"e1\", unix_secs: 1, quick: false, metrics: {\"a\": 3.0, \"b\": 2.0} }]"),
    );

    // Nesting: deep enough to be refused, shallow enough to be safe on
    // any thread.
    let deep = format!("{{\"wire\":{}", "[".repeat(1_000));
    check::<ServeStatus>(&deep, Error(""));
    let deep_unknown = format!("{{\"extra\":{}", "[".repeat(1_000));
    check::<ServeStatus>(&deep_unknown, Error(""));
}

#[test]
fn committed_trajectories_re_emit_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    for id in ["e10", "e14", "e16", "e17", "e18", "e19"] {
        let path = dir.join(format!("BENCH_{id}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let entries: Vec<BenchEntry> =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!entries.is_empty(), "{}: no entries", path.display());
        let again = serde_json::to_string_pretty(&entries).expect("to_string_pretty") + "\n";
        assert!(
            again == text,
            "{}: re-emitted trajectory differs from the committed file",
            path.display()
        );
    }
}
