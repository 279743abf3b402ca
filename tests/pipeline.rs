//! End-to-end integration tests spanning every crate in the workspace:
//! simulate → monitor → analyse → detect → score → rejuvenate.

use holder_aging::prelude::*;

/// A detector sized for the tiny test machine's 5 s sampling.
fn tiny_detector() -> DetectorConfig {
    DetectorConfig {
        holder_radius: 16,
        holder_max_lag: 4,
        dimension_window: 64,
        dimension_stride: 16,
        baseline_windows: 8,
        ..DetectorConfig::default()
    }
}

#[test]
fn simulate_analyze_detect_score() {
    // Simulate a crashing machine.
    let scenario = Scenario::tiny_aging(11, 192.0);
    let report = simulate(&scenario, 6.0 * 3600.0).unwrap();
    let crash = report.first_crash().expect("machine must crash");

    // The free-memory series trends down (Mann–Kendall agrees).
    let series = report.log.series(Counter::AvailableBytes).unwrap();
    let mk = MannKendall::test(series.values()).unwrap();
    assert!(mk.s < 0, "free memory must trend down, S = {}", mk.s);

    // The detector alarms before the crash.
    let spec = PredictorSpec::HolderDimension(tiny_detector());
    let outcomes = evaluate(&spec, &report, Counter::AvailableBytes).unwrap();
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert_eq!(outcome.crash_secs.unwrap(), crash.time.as_secs());
    assert!(
        outcome.detected(),
        "detector must predict this crash: {outcome:?}"
    );
    assert!(
        outcome.lead_secs.unwrap() > 60.0,
        "lead {:?}",
        outcome.lead_secs
    );
}

#[test]
fn holder_trace_of_simulated_counter_is_sane() {
    let report = simulate(&Scenario::tiny_aging(12, 0.0), 3.0 * 3600.0).unwrap();
    let series = report.log.series(Counter::AvailableBytes).unwrap();
    let trace = holder_trace(series.values(), &HolderEstimator::default()).unwrap();
    assert_eq!(trace.len(), series.len());
    // A healthy machine's trace is non-degenerate and mid-range on
    // average.
    let mean = trace.iter().sum::<f64>() / trace.len() as f64;
    assert!(mean > 0.05 && mean < 1.5, "mean h {mean}");
}

#[test]
fn streaming_online_agrees_with_offline_evaluation() {
    let scenario = Scenario::tiny_aging(13, 192.0);

    // Online: drive the machine row by row, as a live feed does.
    let mut machine = Machine::boot(&scenario).unwrap();
    let mut det = HolderDimensionDetector::new(tiny_detector()).unwrap();
    let mut online_alarm: Option<f64> = None;
    while let Tick::Sample(sample) = machine.next_sample(6.0 * 3600.0) {
        if let Some(alert) = det.push(sample.available.as_f64()).unwrap() {
            if alert.level == AlertLevel::Alarm && online_alarm.is_none() {
                online_alarm = Some(machine.now().as_secs());
            }
        }
    }

    // Offline: same scenario, batch analysis.
    let report = simulate(&scenario, 6.0 * 3600.0).unwrap();
    let spec = PredictorSpec::HolderDimension(tiny_detector());
    let outcome = &evaluate(&spec, &report, Counter::AvailableBytes).unwrap()[0];

    match (online_alarm, outcome.alarm_secs) {
        (Some(online), Some(offline)) => {
            // The online loop timestamps by step clock, offline by sample
            // grid — they must agree to within one sampling period.
            assert!(
                (online - offline).abs() <= report.log.sample_period() + 1.0,
                "online {online} vs offline {offline}"
            );
        }
        (a, b) => panic!("alarm mismatch: online {a:?} offline {b:?}"),
    }
}

#[test]
fn multifractality_progression_on_aging_trace() {
    // Finer sampling so each life segment is long enough for MF-DFA.
    let mut scenario = Scenario::tiny_aging(14, 48.0);
    scenario.machine.sample_period_secs = 2.0;
    let report = simulate(&scenario, 4.0 * 3600.0).unwrap();
    let series = report.log.series(Counter::AvailableBytes).unwrap();
    assert!(series.len() >= 2048, "{} samples", series.len());
    let prog = progression(series.values(), &ProgressionConfig::default()).unwrap();
    assert_eq!(prog.len(), 4);
    // Every segment produces finite measurements.
    for seg in &prog {
        assert!(seg.mean_holder.is_finite());
        assert!(seg.spectrum_width.is_finite() && seg.spectrum_width >= 0.0);
    }
}

#[test]
fn rejuvenation_policies_end_to_end() {
    let scenario = Scenario::tiny_aging(16, 256.0);
    let horizon = 10.0 * 3600.0;
    // Each policy closes the loop in a one-machine fleet, triggered by the
    // trend detector sized for the tiny machine's 5 s feed.
    let run = |policy| {
        let mut config = FleetConfig::new(
            vec![CounterDetector {
                counter: Counter::AvailableBytes,
                spec: DetectorSpec::Trend(TrendPredictorConfig {
                    window: 120,
                    refit_every: 8,
                    alarm_horizon_secs: 900.0,
                    ..TrendPredictorConfig::depleting(5.0)
                }),
            }],
            horizon,
        );
        config.gate.nominal_period_secs = 5.0;
        config.rejuv = Some(RejuvConfig {
            policy,
            cooldown_secs: 600.0,
            restart_downtime_secs: 60.0,
            crash_repair_secs: 900.0,
            max_concurrent_restarts: 1,
        });
        let report = FleetSupervisor::new(config)
            .unwrap()
            .run(std::slice::from_ref(&scenario))
            .unwrap();
        report.availability(horizon).unwrap()
    };

    let none = run(RejuvPolicy::None);
    let periodic = run(RejuvPolicy::Periodic {
        period_secs: 1200.0,
    });
    let triggered = run(RejuvPolicy::AlarmTriggered);

    assert!(none.crashes > 0);
    assert_eq!(periodic.crashes, 0);
    assert_eq!(triggered.crashes, 0);
    // Both proactive policies beat doing nothing.
    assert!(periodic.mean_availability > none.mean_availability);
    assert!(triggered.mean_availability > none.mean_availability);
    // The triggered policy restarts at the depletion rate, not wildly more
    // often.
    assert!(triggered.restarts >= 1);
    assert!(triggered.restarts <= 3 * periodic.restarts);
}

#[test]
fn wavelet_analysis_of_simulated_counter() {
    let report = simulate(&Scenario::tiny_aging(16, 0.0), 2.0 * 3600.0).unwrap();
    let series = report.log.series(Counter::AvailableBytes).unwrap();
    // MODWT works on the non-dyadic monitor log and reconstructs it.
    let dec = modwt(series.values(), Wavelet::Daubechies4, 3).unwrap();
    let back = dec.reconstruct();
    for (a, b) in series.values().iter().zip(&back) {
        assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
    }
    // Leaders of the counter are computable and positive somewhere.
    let lead = WaveletLeaders::compute(series.values(), Wavelet::Daubechies4, 5).unwrap();
    assert!(lead.band(3).iter().any(|&v| v > 0.0));
}

#[test]
fn prelude_exposes_cross_crate_workflow() {
    // Compile-time check that the umbrella prelude suffices for the
    // README workflow (plus a smoke run).
    let noise = generate::fgn(512, 0.7, 99).unwrap();
    let est = hurst::dfa(&noise, 1).unwrap();
    assert!((est.hurst - 0.7).abs() < 0.15);
    let ts = TimeSeries::from_values(0.0, 30.0, noise).unwrap();
    let sen = SenSlope::estimate(ts.values(), ts.dt()).unwrap();
    assert!(sen.slope.is_finite());
}
