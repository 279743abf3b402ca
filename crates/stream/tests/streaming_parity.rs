//! End-to-end parity: each streaming detector family must reproduce the
//! batch kernels on the same data, and emit the same alerts at the same
//! sample times however the samples arrive.
//!
//! - The Hölder-dimension family: [`analyze`]'s traces against the batch
//!   Hölder trace and the batch dimension estimator, and its alerts
//!   against the same detector fed through the full ingestion path (CSV
//!   replay → defect gate → detector). The trace is the benchmark suite's
//!   "machine A" (E3) scenario: an NT4-class workstation running the
//!   web-server mix with an injected aging fault, simulated until it
//!   crashes.
//! - The trend family ([`SenSlopePredictor`]) against the rule restated
//!   over a plain trailing window with [`MannKendall::test`] and
//!   [`SenSlope::estimate`], on E14-style feeds, push for push.

use std::fmt::Write as _;

use aging_core::baseline::{
    AgingPredictor, ResourceDirection, SenSlopePredictor, TrendPredictorConfig,
};
use aging_core::detector::{analyze, Alert, AlertLevel, DetectorConfig};
use aging_fractal::holder::holder_trace;
use aging_memsim::{simulate, Counter, FaultPlan, MachineConfig, Scenario, WorkloadConfig};
use aging_stream::detector::{AlertDetail, DetectorSpec, StreamingDetector};
use aging_stream::gate::{GateAction, SampleGate};
use aging_stream::source::{CsvReplaySource, MachineSource, SampleSource};
use aging_stream::GateConfig;
use aging_timeseries::stats;
use aging_timeseries::trend::{MannKendall, SenSlope, TrendDirection};

/// The E3 "machine A" scenario (workstation-NT4 + web mix + aging fault).
fn e3_scenario() -> Scenario {
    Scenario {
        name: "machine-a-nt4-777".into(),
        machine: MachineConfig::workstation_nt4(),
        workload: WorkloadConfig::web_server(),
        faults: FaultPlan::aging(24.0),
        seed: 777,
    }
}

fn e3_trace() -> (Vec<f64>, f64) {
    let report = simulate(&e3_scenario(), 48.0 * 3600.0).expect("simulation runs");
    assert!(
        report.first_crash().is_some(),
        "the aging fault must crash machine A inside the horizon"
    );
    let series = report
        .log
        .series(Counter::AvailableBytes)
        .expect("counter recorded");
    (series.values().to_vec(), series.dt())
}

fn config() -> DetectorConfig {
    DetectorConfig::default()
}

#[test]
fn streaming_detector_matches_batch_alarm_times_on_e3_trace() {
    let (values, dt) = e3_trace();
    let batch = analyze(&values, &config()).expect("batch analysis");
    assert!(
        batch.alerts.iter().any(|a| a.level == AlertLevel::Alarm),
        "E3 trace must raise a confirmed alarm ({} alerts)",
        batch.alerts.len()
    );

    // The analysis traces are the batch kernels' output, bit for bit.
    let cfg = config();
    let r = cfg.holder_radius;
    let trace = holder_trace(&values, &cfg.holder_estimator()).unwrap();
    assert_eq!(batch.holder_trace.len(), values.len() - 2 * r);
    for (k, h) in batch.holder_trace.iter().enumerate() {
        assert_eq!(h.to_bits(), trace[k + r].to_bits(), "Hölder point {k}");
    }
    assert!(batch.dimension_trace.len() > 100);
    for (&(i, d), &(_, mean)) in batch.dimension_trace.iter().zip(&batch.mean_holder_trace) {
        let end = i + 1 - r;
        let window = &trace[end - cfg.dimension_window..end];
        let want = cfg.dimension_method.estimate(window).unwrap();
        assert_eq!(d.to_bits(), want.to_bits(), "dimension at sample {i}");
        assert_eq!(mean.to_bits(), stats::mean(window).unwrap().to_bits());
    }

    // Feed the identical trace through the full streaming ingestion path:
    // serialize to CSV, replay it, gate it, detect.
    let mut csv = String::from("time,available\n");
    for (i, v) in values.iter().enumerate() {
        writeln!(csv, "{},{v}", i as f64 * dt).unwrap();
    }
    let mut source = CsvReplaySource::from_csv_str(&csv, "time", "available").unwrap();
    let mut gate = SampleGate::new(GateConfig {
        nominal_period_secs: dt,
        max_gap_factor: 4.0,
        ..GateConfig::default()
    })
    .unwrap();
    let mut detector = StreamingDetector::new(&DetectorSpec::Holder(config())).unwrap();

    let mut streamed: Vec<Alert> = Vec::new();
    while let Some(raw) = source.next_sample().unwrap() {
        let accepted = match gate.push(raw) {
            GateAction::Accept(s) => s,
            GateAction::AcceptAfterGap(s) => {
                detector.reset();
                s
            }
            GateAction::DropNonFinite | GateAction::DropOutOfOrder => continue,
        };
        if let Some(alert) = detector.push(accepted.value).unwrap() {
            let AlertDetail::Holder(holder_alert) = alert.detail else {
                panic!("holder spec must yield holder alerts");
            };
            assert_eq!(alert.sample_index, holder_alert.sample_index as u64);
            assert_eq!(alert.level, holder_alert.level);
            streamed.push(holder_alert);
        }
    }

    // A clean trace passes the gate untouched, so parity must be exact:
    // same alerts, same sample indices (hence same alarm times), same
    // measured dimensions and baselines.
    assert_eq!(
        streamed, batch.alerts,
        "streaming and batch alert sequences diverged"
    );
    let batch_alarm = batch
        .alerts
        .iter()
        .find(|a| a.level == AlertLevel::Alarm)
        .unwrap();
    let stream_alarm = streamed
        .iter()
        .find(|a| a.level == AlertLevel::Alarm)
        .unwrap();
    assert_eq!(
        batch_alarm.sample_index as f64 * dt,
        stream_alarm.sample_index as f64 * dt,
        "alarm wall-clock times must agree"
    );
}

#[test]
fn gate_defects_do_not_change_clean_sample_parity() {
    // Corrupt the stream with defects the gate is documented to repair:
    // NaN injections and duplicated (out-of-order) rows. The accepted
    // subsequence equals the clean trace, so alarms must still match the
    // batch run exactly.
    let (values, dt) = e3_trace();
    let batch = analyze(&values, &config()).expect("batch analysis");

    let mut gate = SampleGate::new(GateConfig {
        nominal_period_secs: dt,
        max_gap_factor: 1e9, // the injected NaNs must not register as gaps
        ..GateConfig::default()
    })
    .unwrap();
    let mut detector = StreamingDetector::new(&DetectorSpec::Holder(config())).unwrap();
    let mut streamed = Vec::new();
    let feed = |t: f64, v: f64, gate: &mut SampleGate, det: &mut StreamingDetector| {
        let raw = aging_stream::StreamSample {
            time_secs: t,
            value: v,
        };
        match gate.push(raw) {
            GateAction::Accept(s) | GateAction::AcceptAfterGap(s) => det.push(s.value).unwrap(),
            GateAction::DropNonFinite | GateAction::DropOutOfOrder => None,
        }
    };
    for (i, &v) in values.iter().enumerate() {
        let t = i as f64 * dt;
        if i % 97 == 13 {
            // Exporter hiccup: a NaN reading between real samples.
            assert!(feed(t - 0.5 * dt, f64::NAN, &mut gate, &mut detector).is_none());
        }
        if let Some(alert) = feed(t, v, &mut gate, &mut detector) {
            let AlertDetail::Holder(a) = alert.detail else {
                panic!("holder alerts expected")
            };
            streamed.push(a);
        }
        if i % 53 == 7 {
            // Retransmitted (stale) sample: same value, old timestamp.
            assert!(feed(t, v, &mut gate, &mut detector).is_none());
        }
    }
    assert!(gate.counters().dropped_non_finite > 0);
    assert!(gate.counters().dropped_out_of_order > 0);
    assert_eq!(gate.counters().gaps_detected, 0);
    assert_eq!(streamed, batch.alerts, "defect repair must preserve parity");
}

/// E14-style `AvailableBytes` feeds at the 5 s monitor period, over at
/// most 6 h: leaking `tiny_aging` machines, each until it crashes, and a
/// healthy control.
fn e14_feeds() -> Vec<Vec<f64>> {
    [(41, 192.0), (42, 256.0), (43, 0.0)]
        .into_iter()
        .map(|(seed, mib_per_hour)| {
            let scenario = Scenario::tiny_aging(seed, mib_per_hour);
            let mut source =
                MachineSource::new(&scenario, Counter::AvailableBytes, 6.0 * 3600.0).unwrap();
            let mut values = Vec::new();
            while let Some(sample) = source.next_sample().unwrap() {
                values.push(sample.value);
            }
            values
        })
        .collect()
}

/// The trend rule over a plain trailing window with the batch kernels:
/// the ETA bits after every push, and the sample where the alarm first
/// fired.
fn batch_trend(config: &TrendPredictorConfig, values: &[f64]) -> (Vec<Option<u64>>, Option<usize>) {
    assert_eq!(config.direction, ResourceDirection::Depleting);
    let dt = config.sample_period_secs;
    let span = (config.window - 1) as f64 * dt;
    let mut eta = None;
    let mut fired_at = None;
    let mut etas = Vec::with_capacity(values.len());
    for k in 0..values.len() {
        let count = k + 1;
        if count >= config.window && count % config.refit_every == 0 {
            let window = &values[count - config.window..count];
            if let Ok(mk) = MannKendall::test(window) {
                if mk.direction(config.alpha) != TrendDirection::Decreasing {
                    eta = None;
                } else if let Ok(sen) = SenSlope::estimate(window, dt) {
                    eta = (sen.slope < 0.0)
                        .then(|| sen.time_to_level(config.exhaustion_level))
                        .flatten()
                        .map(|t| (t - span).max(0.0))
                        .filter(|t| t.is_finite());
                    if fired_at.is_none()
                        && matches!(eta, Some(e) if e <= config.alarm_horizon_secs)
                    {
                        fired_at = Some(k);
                    }
                }
            }
        }
        etas.push(eta.map(f64::to_bits));
    }
    (etas, fired_at)
}

#[test]
fn streaming_trend_matches_batch_kernels_push_for_push() {
    let feeds = e14_feeds();
    // E14's window and the default, both refitting every 8 samples.
    for window in [120, 240] {
        let config = TrendPredictorConfig {
            window,
            alarm_horizon_secs: 900.0,
            ..TrendPredictorConfig::depleting(5.0)
        };
        let mut fired_feeds = 0;
        for (f, values) in feeds.iter().enumerate() {
            let (etas, fired_at) = batch_trend(&config, values);
            fired_feeds += usize::from(fired_at.is_some());

            let mut scalar = SenSlopePredictor::new(config.clone()).unwrap();
            for (k, &v) in values.iter().enumerate() {
                let at = format!("window {window}, feed {f}, sample {k}");
                assert_eq!(scalar.push(v).unwrap(), fired_at == Some(k), "{at}");
                assert_eq!(scalar.eta_secs().map(f64::to_bits), etas[k], "{at}");
            }

            for chunk in [1, 2, 7, 64] {
                let mut sliced = SenSlopePredictor::new(config.clone()).unwrap();
                for (c, block) in values.chunks(chunk).enumerate() {
                    let start = c * chunk;
                    let end = start + block.len();
                    let at =
                        format!("window {window}, feed {f}, chunk {chunk}, samples {start}..{end}");
                    let fired = sliced.push_slice(block).unwrap();
                    let want = fired_at
                        .filter(|k| (start..end).contains(k))
                        .map(|k| (k - start, etas[k]));
                    assert_eq!(
                        fired.map(|(k, eta)| (k, eta.map(f64::to_bits))),
                        want,
                        "{at}"
                    );
                    assert_eq!(sliced.eta_secs().map(f64::to_bits), etas[end - 1], "{at}");
                }
            }
        }
        assert!(
            fired_feeds > 0,
            "window {window}: no feed reached the alarm"
        );
    }
}
