//! Pins the simulator's output: for every scenario family the crate
//! ships, one committed line holds the sample count, every crash (time
//! and cause) and a 64-bit digest of each counter's `f64` bits. Any
//! change to the draws, their order or the bookkeeping between them —
//! intended or not — fails here with the scenario and counter named.
//!
//! The fixture was written before the step's bookkeeping was reworked,
//! so it holds the simulator to bit identity across that rework. To
//! regenerate it after an *intentional* model change:
//!
//! ```text
//! cargo test -p aging-memsim --test sim_fixtures -- --ignored regenerate
//! ```
//!
//! then review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use aging_memsim::procsim::{MultiMachine, MultiScenario};
use aging_memsim::{
    simulate, simulate_with_reboots, Bytes, Counter, FaultPlan, Machine, MachineConfig, MonitorLog,
    Scenario, WorkloadConfig,
};

const FIXTURE: &str = "sim_digests.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

/// FNV-1a over the little-endian bytes of each word.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(values: &[f64]) -> u64 {
    digest(values.iter().map(|v| v.to_bits()))
}

/// One fixture line: the log's length, its crashes and one digest per
/// counter, plus any extra named series.
fn line(name: &str, log: &MonitorLog, extra: &[(&str, &[f64])]) -> String {
    let mut out = format!("{name} samples={}", log.len());
    let crashes: Vec<String> = log
        .crashes()
        .iter()
        .map(|c| format!("{}:{}", c.time.as_secs(), c.cause))
        .collect();
    let _ = write!(out, " crashes=[{}]", crashes.join(","));
    for c in Counter::ALL {
        let _ = write!(out, " {c}={:016x}", bits(log.values(c)));
    }
    for (label, values) in extra {
        let _ = write!(out, " {label}={:016x}", bits(values));
    }
    out
}

fn simulated(scenario: &Scenario, secs: f64) -> MonitorLog {
    simulate(scenario, secs).expect("valid scenario").log
}

/// The tiny workload under a ±60 % load cycle two hours long, so a
/// short run crosses several peaks and troughs.
fn diurnal_tiny(seed: u64) -> Scenario {
    Scenario {
        name: format!("diurnal-tiny-{seed}"),
        machine: MachineConfig::tiny_test(),
        workload: WorkloadConfig {
            diurnal_amplitude: 0.6,
            diurnal_period_secs: 2.0 * 3600.0,
            ..WorkloadConfig::tiny_test()
        },
        faults: FaultPlan::healthy(),
        seed,
    }
}

/// A leaky app with two healthy neighbours, scaled to the tiny machine.
fn tiny_multi(seed: u64, leak_mib_per_hour: f64) -> MultiScenario {
    let mut s = MultiScenario::leaky_app_with_neighbours(seed, leak_mib_per_hour);
    s.machine = MachineConfig::tiny_test();
    for p in &mut s.processes {
        p.workload = WorkloadConfig::tiny_test();
        p.workload.base_rate = 6.0;
        p.workload.batch_bytes = Bytes::ZERO;
    }
    s
}

/// Every pinned line, in fixture order.
fn lines() -> Vec<String> {
    let mut out = vec![
        line(
            "tiny-aging-leaky",
            &simulated(&Scenario::tiny_aging(42, 512.0), 4.0 * 3600.0),
            &[],
        ),
        line(
            "tiny-aging-healthy",
            &simulated(&Scenario::tiny_aging(43, 0.0), 12.0 * 3600.0),
            &[],
        ),
        line(
            "nt4-web-aging",
            &simulated(&Scenario::aging_web_server(7), 36.0 * 3600.0),
            &[],
        ),
        line(
            "nt4-web-healthy",
            &simulated(&Scenario::healthy_web_server(8), 6.0 * 3600.0),
            &[],
        ),
        line(
            "gpu-serving",
            &simulated(&Scenario::gpu_serving(777, 192.0), 8.0 * 3600.0),
            &[],
        ),
        line(
            "gpu-serving-healthy",
            &simulated(&Scenario::gpu_serving_healthy(778), 8.0 * 3600.0),
            &[],
        ),
        line(
            "mobile-churn",
            &simulated(&Scenario::mobile_churn(777, 72.0), 12.0 * 3600.0),
            &[],
        ),
        line(
            "mobile-churn-healthy",
            &simulated(&Scenario::mobile_churn_healthy(778), 12.0 * 3600.0),
            &[],
        ),
        line(
            "diurnal-tiny",
            &simulated(&diurnal_tiny(5), 6.0 * 3600.0),
            &[],
        ),
        line(
            "reboots",
            &simulate_with_reboots(&Scenario::tiny_aging(6, 512.0), 6.0 * 3600.0)
                .expect("valid scenario")
                .log,
            &[],
        ),
    ];

    // Planned restarts and a crash repair: outages emit nothing, and the
    // heap refills from empty afterwards.
    let mut machine = Machine::boot(&Scenario::tiny_aging(9, 512.0)).expect("boot");
    machine.run_for(600.0);
    machine.begin_restart(60.0);
    machine.run_for(3.0 * 3600.0);
    machine.begin_restart(900.0);
    machine.run_for(2.0 * 3600.0);
    let downtime = [machine.downtime_secs(), machine.now().as_secs()];
    out.push(line(
        "restart-outage",
        machine.log(),
        &[("downtime", &downtime)],
    ));

    let scenario = tiny_multi(3, 96.0);
    let mut multi = MultiMachine::boot(&scenario).expect("boot");
    multi.run_for(2.0 * 3600.0);
    multi.restart_process("app").expect("known process");
    multi.run_for(2.0 * 3600.0);
    let private: Vec<(String, Vec<f64>)> = scenario
        .processes
        .iter()
        .map(|p| {
            let series = multi.private_bytes_series(&p.name).expect("sampled");
            (format!("private_{}", p.name), series.values().to_vec())
        })
        .collect();
    let extra: Vec<(&str, &[f64])> = private
        .iter()
        .map(|(label, values)| (label.as_str(), values.as_slice()))
        .collect();
    out.push(line("multi-machine", multi.log(), &extra));
    out
}

#[test]
fn simulator_output_matches_the_pinned_digests() {
    let want = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {FIXTURE} ({e}); run \
             `cargo test -p aging-memsim --test sim_fixtures -- --ignored regenerate`"
        )
    });
    let want: Vec<&str> = want.lines().collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "scenario count");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "simulator output drifted");
    }
}

#[test]
#[ignore = "regenerates the committed simulator fixture"]
fn regenerate() {
    let mut text = lines().join("\n");
    text.push('\n');
    std::fs::create_dir_all(fixture_path().parent().expect("dir")).expect("mkdir");
    std::fs::write(fixture_path(), text).expect("write fixture");
}
