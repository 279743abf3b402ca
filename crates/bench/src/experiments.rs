//! The reconstructed experiments E1–E8 (see DESIGN.md for the index).
//!
//! Every function regenerates one table/figure of the target paper's
//! (reconstructed) evaluation and prints it; when an output directory is
//! given, the underlying series/tables are also written as CSV.

use crate::scenarios;
use crate::trajectory;
use crate::util::{hours, opt_fmt, write_series_csv, Table};
use aging_core::baseline::{ResourceDirection, TrendPredictorConfig};
use aging_core::detector::{analyze, DetectorConfig, JumpRule};
use aging_core::eval::{compare, evaluate, PredictorSpec};
use aging_core::progression::{progression, ProgressionConfig};
use aging_fractal::holder::{holder_trace, HolderEstimator};
use aging_fractal::spectrum::{leader_cumulants, mfdfa, partition_function, MfdfaConfig};
use aging_fractal::streaming::WindowDimension;
use aging_fractal::{generate, hurst};
use aging_memsim::{simulate_fleet, simulate_with_reboots, Counter, SimReport};
use aging_timeseries::{stats, Result};
use aging_wavelet::Wavelet;
use std::path::Path;

const HOUR: f64 = 3600.0;

fn ram_bytes() -> f64 {
    aging_memsim::MachineConfig::workstation_nt4().ram.as_f64()
}

fn swap_bytes() -> f64 {
    aging_memsim::MachineConfig::workstation_nt4().swap.as_f64()
}

/// Trend-predictor configuration for the NT4 free-memory counter.
fn trend_available() -> TrendPredictorConfig {
    TrendPredictorConfig {
        sample_period_secs: 30.0,
        window: 240,
        refit_every: 8,
        alpha: 0.05,
        exhaustion_level: 0.02 * ram_bytes(),
        direction: ResourceDirection::Depleting,
        alarm_horizon_secs: 2.0 * HOUR,
    }
}

/// Trend-predictor configuration for the NT4 used-swap counter.
fn trend_swap() -> TrendPredictorConfig {
    TrendPredictorConfig {
        exhaustion_level: 0.95 * swap_bytes(),
        direction: ResourceDirection::Filling,
        ..trend_available()
    }
}

/// The standard E4 predictor set for a counter direction.
fn predictor_specs(counter: Counter) -> Vec<PredictorSpec> {
    match counter {
        Counter::UsedSwapBytes => vec![
            PredictorSpec::HolderDimension(DetectorConfig::default()),
            PredictorSpec::SenSlope(trend_swap()),
            PredictorSpec::Ols(trend_swap()),
            PredictorSpec::Threshold {
                level: 0.85 * swap_bytes(),
                direction: ResourceDirection::Filling,
            },
            PredictorSpec::Cusum {
                config: aging_timeseries::changepoint::CusumConfig::default(),
                direction: ResourceDirection::Filling,
            },
        ],
        _ => vec![
            PredictorSpec::HolderDimension(DetectorConfig::default()),
            PredictorSpec::SenSlope(trend_available()),
            PredictorSpec::Ols(trend_available()),
            PredictorSpec::Threshold {
                level: 0.05 * ram_bytes(),
                direction: ResourceDirection::Depleting,
            },
            PredictorSpec::Cusum {
                config: aging_timeseries::changepoint::CusumConfig::default(),
                direction: ResourceDirection::Depleting,
            },
        ],
    }
}

fn banner(id: &str, title: &str, expectation: &str) {
    println!("\n════ {id}: {title} ════");
    println!("reconstructed expectation: {expectation}\n");
}

/// E1 — memory-resource traces of two aging machines run to crash.
pub fn e1(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E1",
        "resource traces of aging machines (paper Fig. traces)",
        "free memory falls (with violent fluctuation) and used swap climbs until the crash",
    );
    let horizon = if quick { 24.0 * HOUR } else { 120.0 * HOUR };
    let scenarios = [scenarios::machine_a(101), scenarios::machine_b(202)];
    let reports = simulate_fleet(&scenarios, horizon)?;

    let mut table = Table::new(vec![
        "machine",
        "crash[h]",
        "cause",
        "samples",
        "avail_first[MiB]",
        "avail_last[MiB]",
        "swap_first[MiB]",
        "swap_last[MiB]",
    ]);
    for report in &reports {
        let avail = report.log.series(Counter::AvailableBytes)?;
        let swap = report.log.series(Counter::UsedSwapBytes)?;
        let crash = report.first_crash();
        let mib = 1024.0 * 1024.0;
        table.row(vec![
            report.scenario_name.clone(),
            opt_fmt(crash.map(|c| c.time.as_secs()), hours),
            crash.map_or("-".into(), |c| c.cause.to_string()),
            format!("{}", avail.len()),
            format!("{:.1}", avail.values()[0] / mib),
            format!("{:.1}", avail.values()[avail.len() - 1] / mib),
            format!("{:.1}", swap.values()[0] / mib),
            format!("{:.1}", swap.values()[swap.len() - 1] / mib),
        ]);

        // "Figure": 16-bucket means of the two resources over the run.
        println!(
            "{} — free memory / used swap (16-bucket means, MiB):",
            report.scenario_name
        );
        for counter in [Counter::AvailableBytes, Counter::UsedSwapBytes] {
            let s = report.log.series(counter)?;
            let bucket = (s.len() / 16).max(1);
            let means: Vec<String> = s
                .values()
                .chunks(bucket)
                .take(16)
                .map(|c| format!("{:5.0}", c.iter().sum::<f64>() / c.len() as f64 / mib))
                .collect();
            println!("  {:<18} [{}]", counter.to_string(), means.join(" "));
        }
        if let Some(dir) = out {
            let times: Vec<f64> = (0..avail.len()).map(|i| avail.time_at(i)).collect();
            write_series_csv(
                &dir.join(format!("e1_{}.csv", report.scenario_name)),
                &["t_secs", "available_bytes", "used_swap_bytes"],
                &[&times, avail.values(), swap.values()],
            )?;
        }
    }
    println!("\n{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e1_summary.csv"))?;
    }
    Ok(())
}

/// E2 — local Hölder exponent traces of the E1 machines.
pub fn e2(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E2",
        "local Hölder exponent traces (paper Fig. h(t))",
        "h(t) is rough but stable early in life and collapses toward 0 as the crash nears",
    );
    let horizon = if quick { 24.0 * HOUR } else { 120.0 * HOUR };
    let scenarios = [scenarios::machine_a(101), scenarios::machine_b(202)];
    let reports = simulate_fleet(&scenarios, horizon)?;

    let mut table = Table::new(vec![
        "machine",
        "resource",
        "q1 mean h",
        "q2 mean h",
        "q3 mean h",
        "q4 mean h",
    ]);
    for report in &reports {
        for counter in [Counter::AvailableBytes, Counter::UsedSwapBytes] {
            let s = report.log.series(counter)?;
            let trace = holder_trace(s.values(), &HolderEstimator::default())?;
            let q = trace.len() / 4;
            if q == 0 {
                continue;
            }
            let mut cells = vec![report.scenario_name.clone(), counter.to_string()];
            for k in 0..4 {
                let lo = k * q;
                let hi = if k == 3 { trace.len() } else { (k + 1) * q };
                cells.push(format!("{:.3}", stats::mean(&trace[lo..hi])?));
            }
            table.row(cells);
            if let Some(dir) = out {
                let idx: Vec<f64> = (0..trace.len()).map(|i| i as f64 * s.dt()).collect();
                write_series_csv(
                    &dir.join(format!("e2_{}_{}.csv", report.scenario_name, counter)),
                    &["t_secs", "holder_exponent"],
                    &[&idx, &trace],
                )?;
            }
        }
    }
    println!("{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e2_summary.csv"))?;
    }
    Ok(())
}

/// E3 — windowed Hölder-dimension traces with crash markers and the
/// alarm-vs-crash table on a multi-crash reboot log.
pub fn e3(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E3",
        "Hölder-dimension jumps before crashes (paper Fig. D_h + alarm table)",
        "the detector's anomaly (dimension jump / regularity collapse) precedes every crash with hours of lead",
    );
    let horizon = if quick {
        48.0 * HOUR
    } else {
        10.0 * 24.0 * HOUR
    };
    let scenario = scenarios::machine_a(777);
    let report = simulate_with_reboots(&scenario, horizon)?;
    println!(
        "{}: {} crashes over {} h",
        report.scenario_name,
        report.log.crashes().len(),
        hours(report.simulated_secs),
    );

    let spec = PredictorSpec::HolderDimension(DetectorConfig::default());
    let outcomes = evaluate(&spec, &report, Counter::AvailableBytes)?;
    let mut table = Table::new(vec!["segment", "crash[h]", "cause", "alarm[h]", "lead[h]"]);
    for outcome in outcomes.iter().filter(|o| o.crash_secs.is_some()) {
        let cause = report
            .log
            .crashes()
            .get(outcome.segment)
            .map_or("-".into(), |c| c.cause.to_string());
        table.row(vec![
            format!("{}", outcome.segment),
            opt_fmt(outcome.crash_secs, hours),
            cause,
            opt_fmt(outcome.alarm_secs, hours),
            opt_fmt(outcome.lead_secs, hours),
        ]);
    }
    println!("{table}");

    // Dimension trace of the first segment as the "figure".
    let series = report.log.series(Counter::AvailableBytes)?;
    let first_crash_idx = report
        .first_crash()
        .and_then(|c| series.index_of_time(c.time.as_secs()))
        .unwrap_or(series.len() - 1);
    let segment = series.slice(0, first_crash_idx + 1)?;
    let analysis = analyze(segment.values(), &DetectorConfig::default())?;
    if let Some(b) = analysis.baseline {
        println!(
            "segment 0 baseline: D = {:.3} (+{:.3} jump threshold), mean h = {:.3} (−{:.3} collapse threshold)",
            b.dimension, b.dimension_delta, b.mean_holder, b.holder_delta
        );
    }
    if let Some(dir) = out {
        let t: Vec<f64> = analysis
            .dimension_trace
            .iter()
            .map(|&(i, _)| i as f64 * series.dt())
            .collect();
        let d: Vec<f64> = analysis.dimension_trace.iter().map(|&(_, v)| v).collect();
        let h: Vec<f64> = analysis.mean_holder_trace.iter().map(|&(_, v)| v).collect();
        write_series_csv(
            &dir.join("e3_dimension_trace.csv"),
            &["t_secs", "holder_dimension", "mean_holder"],
            &[&t, &d, &h],
        )?;
        table.write_csv(&dir.join("e3_alarms.csv"))?;
    }
    Ok(())
}

/// E4 — the headline comparison: the Hölder-dimension detector against
/// trend-based predictors across a fleet with diverse aging dynamics.
pub fn e4(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E4",
        "detector comparison across a fleet (paper's comparison table)",
        "the multifractal detector covers all aging shapes (incl. bursty/late-onset, where \
         trend extrapolation mispredicts) with few false alarms; trend methods shine only on \
         clean monotone leaks",
    );
    let (aging_n, healthy_n) = if quick { (4, 2) } else { (12, 8) };
    let mut fleet = scenarios::aging_fleet(aging_n);
    fleet.extend(scenarios::healthy_fleet(healthy_n));
    let horizon = if quick { 36.0 * HOUR } else { 72.0 * HOUR };
    println!(
        "simulating {} machines for up to {} h…",
        fleet.len(),
        hours(horizon)
    );
    let reports = simulate_fleet(&fleet, horizon)?;
    let crashed = reports.iter().filter(|r| r.first_crash().is_some()).count();
    println!("{crashed}/{} machines crashed\n", reports.len());

    for counter in [Counter::AvailableBytes, Counter::UsedSwapBytes] {
        let mut table = Table::new(vec![
            "predictor",
            "crashes",
            "detected",
            "missed",
            "false",
            "mean lead[h]",
            "median lead[h]",
        ]);
        for spec in predictor_specs(counter) {
            let row = compare(&spec, &reports, counter)?;
            table.row(vec![
                row.predictor.clone(),
                format!("{}", row.crashes),
                format!("{}", row.detected),
                format!("{}", row.missed),
                format!("{}", row.false_alarms),
                opt_fmt(row.mean_lead_secs, hours),
                opt_fmt(row.median_lead_secs, hours),
            ]);
        }
        println!("monitored counter: {counter}");
        println!("{table}");
        if let Some(dir) = out {
            table.write_csv(&dir.join(format!("e4_{counter}.csv")))?;
        }
    }
    Ok(())
}

/// E5 — estimator validation on synthetic ground truth (gates everything
/// else).
pub fn e5(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E5",
        "estimator validation on known ground truth",
        "every estimator recovers the known exponents within its documented tolerance",
    );
    let n = if quick { 4096 } else { 16_384 };

    let mut hurst_table = Table::new(vec![
        "true H",
        "DFA",
        "R/S",
        "aggvar",
        "periodogram",
        "holder mean",
        "MF-DFA h(2)",
    ]);
    for (i, &h) in [0.2, 0.3, 0.5, 0.7, 0.8, 0.9].iter().enumerate() {
        let noise = generate::fgn(n, h, 500 + i as u64)?;
        let motion = generate::fbm(n, h, 600 + i as u64)?;
        let trace = holder_trace(&motion, &HolderEstimator::default())?;
        let mf = mfdfa(&noise, &MfdfaConfig::default())?;
        hurst_table.row(vec![
            format!("{h:.1}"),
            format!("{:.3}", hurst::dfa(&noise, 1)?.hurst),
            format!("{:.3}", hurst::rescaled_range(&noise)?.hurst),
            format!("{:.3}", hurst::aggregated_variance(&noise)?.hurst),
            format!("{:.3}", hurst::periodogram_hurst(&noise)?.hurst),
            format!("{:.3}", stats::mean(&trace)?),
            opt_fmt(mf.hurst(), |v| format!("{v:.3}")),
        ]);
    }
    println!("fractional Gaussian noise / motion (H = Hölder ground truth):");
    println!("{hurst_table}");

    let mut wei_table = Table::new(vec!["true h", "holder mean", "leader c1"]);
    for &h in &[0.3, 0.5, 0.7] {
        let x = generate::weierstrass(n, h)?;
        let trace = holder_trace(&x, &HolderEstimator::default())?;
        let lc = leader_cumulants(&x, Wavelet::Daubechies6, 9, 3)?;
        wei_table.row(vec![
            format!("{h:.1}"),
            format!("{:.3}", stats::mean(&trace)?),
            format!("{:.3}", lc.c1),
        ]);
    }
    println!("Weierstrass series (uniform Hölder exponent):");
    println!("{wei_table}");

    let m0 = 0.3;
    let levels = if quick { 12 } else { 14 };
    let cascade = generate::binomial_cascade(levels, m0, false, 0)?;
    let qs = [-4.0, -2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 4.0];
    let est = partition_function(&cascade, &qs)?;
    let mut tau_table = Table::new(vec!["q", "tau(q) measured", "tau(q) theory", "error"]);
    for (i, &q) in qs.iter().enumerate() {
        let theory = generate::binomial_cascade_tau(m0, q);
        tau_table.row(vec![
            format!("{q:.1}"),
            format!("{:.4}", est.exponents[i]),
            format!("{theory:.4}"),
            format!("{:+.4}", est.exponents[i] - theory),
        ]);
    }
    println!("binomial cascade (m0 = {m0}) partition exponents:");
    println!("{tau_table}");

    // Multifractality discrimination.
    let mono = generate::fgn(n.min(8192), 0.6, 42)?;
    let cascade_rand = generate::binomial_cascade(13, 0.3, true, 43)?;
    let w_mono = mfdfa(&mono, &MfdfaConfig::default())?.width();
    let w_multi = mfdfa(&cascade_rand, &MfdfaConfig::default())?.width();
    println!("MF-DFA spectrum width: monofractal fGn = {w_mono:.3}, cascade = {w_multi:.3} (cascade ≫ fGn)\n");

    if let Some(dir) = out {
        hurst_table
            .write_csv(&dir.join("e5_hurst.csv"))
            .and_then(|_| wei_table.write_csv(&dir.join("e5_weierstrass.csv")))
            .and_then(|_| tau_table.write_csv(&dir.join("e5_cascade_tau.csv")))?;
    }
    Ok(())
}

/// E6 — multifractal spectrum widening / regularity loss with age.
pub fn e6(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E6",
        "multifractality intensifies with age (paper Fig. f(α) early vs late)",
        "late-life segments show lower mean Hölder exponent than early life; healthy controls stay flat",
    );
    // Finer sampling so each life segment is long enough for MF-DFA.
    let mut aging = scenarios::machine_a(303);
    aging.machine.sample_period_secs = 10.0;
    aging.faults = aging_memsim::FaultPlan::aging(18.0);
    let mut healthy = scenarios::healthy_control(404);
    healthy.machine.sample_period_secs = 10.0;
    let horizon = if quick { 20.0 * HOUR } else { 60.0 * HOUR };
    let reports = simulate_fleet(&[aging, healthy], horizon)?;

    let mut table = Table::new(vec![
        "machine",
        "segment",
        "mean h",
        "f(α) width",
        "h(2)",
        "leader c2",
    ]);
    for report in &reports {
        let series = report.log.series(Counter::AvailableBytes)?;
        let prog = progression(series.values(), &ProgressionConfig::default())?;
        for (i, seg) in prog.iter().enumerate() {
            table.row(vec![
                report.scenario_name.clone(),
                format!("{}/{}", i + 1, prog.len()),
                format!("{:.3}", seg.mean_holder),
                format!("{:.3}", seg.spectrum_width),
                opt_fmt(seg.hurst, |v| format!("{v:.3}")),
                opt_fmt(seg.c2, |v| format!("{v:.3}")),
            ]);
        }
        let signature = aging_core::progression::is_aging_signature(&prog);
        println!(
            "{}: crash {:?}, aging signature = {signature}",
            report.scenario_name,
            report
                .first_crash()
                .map(|c| format!("{} ({})", c.time, c.cause)),
        );
    }
    println!("\n{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e6_progression.csv"))?;
    }
    Ok(())
}

/// E7 — rejuvenation policy availability (the motivating application).
/// Each policy closes the loop on one machine under the fleet supervisor,
/// so every restart and repair outage passes on the machine clock.
/// **Hard gate:** Hölder-triggered rejuvenation has no crash, fewer
/// restarts than periodic-6 h and higher availability than both it and
/// no-rejuvenation; trend-triggered rejuvenation restarts more often than
/// Hölder-triggered.
pub fn e7(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_rejuv::{RejuvConfig, RejuvPolicy};
    use aging_stream::detector::DetectorSpec;
    use aging_stream::supervisor::{CounterDetector, FleetConfig, FleetSupervisor};

    banner(
        "E7",
        "rejuvenation policies (paper's motivating application)",
        "prediction-triggered rejuvenation avoids crash outages with fewer restarts than blind periodic policies",
    );
    let scenario = scenarios::machine_a(555);
    let horizon = if quick {
        3.0 * 24.0 * HOUR
    } else {
        14.0 * 24.0 * HOUR
    };
    let base = RejuvConfig {
        policy: RejuvPolicy::None,
        cooldown_secs: 3600.0,
        restart_downtime_secs: 120.0,
        crash_repair_secs: 1800.0,
        max_concurrent_restarts: 1,
    };
    let holder = DetectorSpec::Holder(DetectorConfig::default());
    let periodic = |hours| RejuvPolicy::Periodic {
        period_secs: hours * HOUR,
    };
    // Only the alarm-triggered policies act on their detector's alarms.
    let policies = [
        (RejuvPolicy::None, holder.clone()),
        (periodic(6.0), holder.clone()),
        (periodic(12.0), holder.clone()),
        (periodic(24.0), holder.clone()),
        (RejuvPolicy::AlarmTriggered, holder),
        (
            RejuvPolicy::AlarmTriggered,
            DetectorSpec::Trend(trend_available()),
        ),
    ];
    println!(
        "scenario {} over {} days (crash outage {} min, restart {} min)…",
        scenario.name,
        horizon / 24.0 / HOUR,
        base.crash_repair_secs / 60.0,
        base.restart_downtime_secs / 60.0
    );

    let mut table = Table::new(vec![
        "policy",
        "availability",
        "crashes",
        "rejuvenations",
        "downtime[h]",
    ]);
    let mut rows = Vec::with_capacity(policies.len());
    for (policy, spec) in policies {
        let label = match policy {
            RejuvPolicy::None => "no-rejuvenation".to_string(),
            RejuvPolicy::Periodic { period_secs } => {
                format!("periodic-{:.1}h", period_secs / HOUR)
            }
            RejuvPolicy::AlarmTriggered => format!("triggered-{}", spec.name()),
        };
        let detectors = vec![CounterDetector {
            counter: Counter::AvailableBytes,
            spec,
        }];
        let mut cfg = FleetConfig::new(detectors, horizon);
        cfg.rejuv = Some(RejuvConfig { policy, ..base });
        let report = FleetSupervisor::new(cfg)?.run(std::slice::from_ref(&scenario))?;
        let avail = report.availability(horizon)?;
        table.row(vec![
            label,
            format!("{:.5}", avail.mean_availability),
            format!("{}", avail.crashes),
            format!("{}", avail.restarts),
            hours(avail.downtime_secs),
        ]);
        rows.push(avail);
    }
    println!("{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e7_policies.csv"))?;
    }

    let (none, six, holder, trend) = (rows[0], rows[1], rows[4], rows[5]);
    if holder.crashes != 0
        || holder.restarts >= six.restarts
        || holder.mean_availability <= none.mean_availability.max(six.mean_availability)
        || trend.restarts <= holder.restarts
    {
        return Err(aging_timeseries::Error::invalid(
            "e7",
            "Hölder-triggered rejuvenation must have no crash, fewer restarts than \
             periodic-6.0h and higher availability than it and no-rejuvenation, and \
             trend-triggered rejuvenation must restart more often (table above)",
        ));
    }
    println!(
        "claim gate held: Hölder-triggered has no crash and {} restarts (periodic-6.0h {}, \
         trend-triggered {})",
        holder.restarts, six.restarts, trend.restarts
    );
    Ok(())
}

/// E8 — ablation: sensitivity of the detector to its design choices.
pub fn e8(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E8",
        "detector design ablation",
        "the two-rule default is robust; single rules / tiny windows trade lead time against false alarms",
    );
    let (aging_n, healthy_n) = if quick { (4, 2) } else { (8, 6) };
    let mut fleet = scenarios::aging_fleet(aging_n);
    fleet.extend(scenarios::healthy_fleet(healthy_n));
    let horizon = if quick { 36.0 * HOUR } else { 72.0 * HOUR };
    println!("simulating {} machines…", fleet.len());
    let reports: Vec<SimReport> = simulate_fleet(&fleet, horizon)?;

    let base = DetectorConfig::default();
    let variants: Vec<(String, DetectorConfig)> = vec![
        ("default (either rule)".into(), base.clone()),
        (
            "rule: dimension-jump only".into(),
            DetectorConfig {
                rule: JumpRule::DimensionJump,
                ..base.clone()
            },
        ),
        (
            "rule: holder-collapse only".into(),
            DetectorConfig {
                rule: JumpRule::HolderCollapse,
                ..base.clone()
            },
        ),
        (
            "dimension: variation".into(),
            DetectorConfig {
                dimension_method: WindowDimension::Variation,
                ..base.clone()
            },
        ),
        (
            "window 64".into(),
            DetectorConfig {
                dimension_window: 64,
                ..base.clone()
            },
        ),
        (
            "window 256".into(),
            DetectorConfig {
                dimension_window: 256,
                ..base.clone()
            },
        ),
        (
            "confirm 1 (single jump)".into(),
            DetectorConfig {
                confirm_windows: 1,
                ..base.clone()
            },
        ),
        (
            "confirm 5".into(),
            DetectorConfig {
                confirm_windows: 5,
                ..base.clone()
            },
        ),
        (
            "holder radius 16".into(),
            DetectorConfig {
                holder_radius: 16,
                holder_max_lag: 4,
                ..base.clone()
            },
        ),
        (
            "holder radius 64".into(),
            DetectorConfig {
                holder_radius: 64,
                ..base.clone()
            },
        ),
    ];

    let mut table = Table::new(vec![
        "variant",
        "detected",
        "missed",
        "false",
        "mean lead[h]",
    ]);
    for (name, config) in &variants {
        let row = compare(
            &PredictorSpec::HolderDimension(config.clone()),
            &reports,
            Counter::AvailableBytes,
        )?;
        table.row(vec![
            name.clone(),
            format!("{}/{}", row.detected, row.crashes),
            format!("{}", row.missed),
            format!("{}", row.false_alarms),
            opt_fmt(row.mean_lead_secs, hours),
        ]);
    }
    println!("{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e8_ablation.csv"))?;
    }
    Ok(())
}

/// E9 — operating characteristic: sweep the detector's sensitivity
/// parameters and chart coverage against false alarms.
pub fn e9(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E9",
        "detector operating characteristic (threshold sweep)",
        "coverage and false alarms trade off monotonically; the default sits at full coverage with ~zero false alarms",
    );
    use aging_core::roc::{sweep_detector, SweepParameter};
    let (aging_n, healthy_n) = if quick { (4, 2) } else { (8, 8) };
    let mut fleet = scenarios::aging_fleet(aging_n);
    fleet.extend(scenarios::healthy_fleet(healthy_n));
    let horizon = if quick { 36.0 * HOUR } else { 72.0 * HOUR };
    println!("simulating {} machines…", fleet.len());
    let reports = simulate_fleet(&fleet, horizon)?;

    let base = DetectorConfig::default();
    let sweeps: [(&str, SweepParameter, Vec<f64>); 3] = [
        (
            "holder_drop",
            SweepParameter::HolderDrop,
            vec![0.1, 0.2, 0.3, 0.45, 0.6, 0.8],
        ),
        (
            "jump_delta",
            SweepParameter::JumpDelta,
            vec![0.1, 0.15, 0.2, 0.3, 0.45],
        ),
        (
            "confirm_windows",
            SweepParameter::ConfirmWindows,
            vec![1.0, 2.0, 3.0, 5.0, 8.0],
        ),
    ];
    for (name, param, values) in sweeps {
        let points = sweep_detector(&base, param, &values, &reports, Counter::AvailableBytes)?;
        let mut table = Table::new(vec![
            "value",
            "detected",
            "false-alarm rate",
            "mean lead[h]",
        ]);
        for p in &points {
            table.row(vec![
                format!("{:.2}", p.parameter),
                format!("{}/{}", p.row.detected, p.row.crashes),
                format!("{:.2}", p.false_alarm_rate()),
                opt_fmt(p.row.mean_lead_secs, hours),
            ]);
        }
        println!("sweep: {name} (default marked in DetectorConfig::default)");
        println!("{table}");
        if let Some(dir) = out {
            table.write_csv(&dir.join(format!("e9_{name}.csv")))?;
        }
    }
    Ok(())
}

/// E10 — seasonality robustness: a strong diurnal load cycle must not be
/// mistaken for aging, and aging must still be caught under it.
pub fn e10(quick: bool, out: Option<&Path>) -> Result<()> {
    banner(
        "E10",
        "diurnal-load robustness (extension)",
        "day/night load cycles alone cause no alarms; aging under diurnal load is still detected",
    );
    let n = if quick { 2 } else { 4 };
    let horizon = if quick { 36.0 * HOUR } else { 96.0 * HOUR };
    let mut fleet = Vec::new();
    // Peak diurnal load must stay within the machine's capacity, or the
    // "healthy" controls genuinely die of overload; derate the base rate.
    let mut workload = aging_memsim::WorkloadConfig::web_server_diurnal();
    workload.base_rate = 15.0;
    for seed in 0..n as u64 {
        fleet.push(aging_memsim::Scenario {
            name: format!("diurnal-healthy-{seed}"),
            machine: aging_memsim::MachineConfig::workstation_nt4(),
            workload: workload.clone(),
            faults: aging_memsim::FaultPlan::healthy(),
            seed: 3000 + seed,
        });
        fleet.push(aging_memsim::Scenario {
            name: format!("diurnal-aging-{seed}"),
            machine: aging_memsim::MachineConfig::workstation_nt4(),
            workload: workload.clone(),
            faults: aging_memsim::FaultPlan::aging(20.0),
            seed: 4000 + seed,
        });
    }
    println!(
        "simulating {} machines under ±60 % day/night load…",
        fleet.len()
    );
    let reports = simulate_fleet(&fleet, horizon)?;

    let mut table = Table::new(vec![
        "predictor",
        "crashes",
        "detected",
        "missed",
        "false",
        "mean lead[h]",
    ]);
    for spec in predictor_specs(Counter::AvailableBytes) {
        let row = compare(&spec, &reports, Counter::AvailableBytes)?;
        table.row(vec![
            row.predictor.clone(),
            format!("{}", row.crashes),
            format!("{}", row.detected),
            format!("{}", row.missed),
            format!("{}", row.false_alarms),
            opt_fmt(row.mean_lead_secs, hours),
        ]);
    }
    println!("{table}");
    if let Some(dir) = out {
        table.write_csv(&dir.join("e10_diurnal.csv"))?;
    }

    // Δα false-alarm sweep: the streaming spectrum-width detector over
    // the same diurnal fleet. A ±60 % day/night cycle modulates the
    // *amplitude* of the allocation process but not its correlation
    // structure, so the multifractal spectrum width must stay inside its
    // frozen baseline on the healthy controls — every confirmed Δα alarm
    // on a healthy diurnal machine is a seasonality artifact, and that
    // rate is the hard gate here. Coverage on the leaking machines is
    // recorded but NOT gated: a smooth leak drifts in amplitude, the
    // mode Δα is blind to by design, so under heavy load cycles the
    // spectrum width is a corroborating signal — isolating its
    // discriminative power needs the calm-workload regime E17 pins.
    {
        use aging_stream::detector::{
            DetectorSpec as StreamSpec, SpectrumDetectorConfig, StreamingDetector,
        };
        let spec = StreamSpec::Spectrum(SpectrumDetectorConfig::default());
        let mut table = Table::new(vec![
            "scenario",
            "samples",
            "Δα alarm[h]",
            "crash[h]",
            "verdict",
        ]);
        let (mut healthy_total, mut healthy_false) = (0u32, 0u32);
        let (mut aging_total, mut aging_hits) = (0u32, 0u32);
        for report in &reports {
            let series = report.log.series(Counter::CommittedBytes)?;
            let dt = series.dt();
            let mut detector = StreamingDetector::new(&spec)?;
            let mut alarm_secs: Option<f64> = None;
            for (i, &v) in series.values().iter().enumerate() {
                if let Some(alert) = detector.push(v)? {
                    if alert.level == aging_core::detector::AlertLevel::Alarm {
                        alarm_secs = Some(i as f64 * dt);
                        break;
                    }
                }
            }
            let crash_secs = report.first_crash().map(|c| c.time.as_secs());
            let is_aging = report.scenario_name.contains("aging");
            let verdict = if is_aging {
                aging_total += 1;
                match alarm_secs {
                    Some(_) => {
                        aging_hits += 1;
                        "detected"
                    }
                    None => "missed",
                }
            } else {
                healthy_total += 1;
                match alarm_secs {
                    Some(_) => {
                        healthy_false += 1;
                        "FALSE ALARM"
                    }
                    None => "quiet",
                }
            };
            table.row(vec![
                report.scenario_name.clone(),
                format!("{}", series.values().len()),
                opt_fmt(alarm_secs, hours),
                opt_fmt(crash_secs, hours),
                verdict.to_string(),
            ]);
        }
        println!("Δα spectrum-width detector under the same diurnal cycle:");
        println!("{table}");
        let false_rate = f64::from(healthy_false) / f64::from(healthy_total.max(1));
        println!(
            "Δα false-alarm rate on healthy diurnal controls: {healthy_false}/{healthy_total} \
             ({false_rate:.2}); coverage on smooth leaks (informational — Δα corroborates, \
             the trend predictors above carry detection here): {aging_hits}/{aging_total}"
        );
        if healthy_false > 0 {
            return Err(aging_timeseries::Error::invalid(
                "e10",
                format!(
                    "the spectrum-width detector mistook the day/night cycle for aging on \
                     {healthy_false}/{healthy_total} healthy machines"
                ),
            ));
        }
        if let Some(dir) = out {
            table.write_csv(&dir.join("e10_spectrum.csv"))?;
        }
    }
    Ok(())
}

/// E11 — streaming/batch parity and throughput (aging-stream subsystem).
pub fn e11(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_stream::detector::{AlertDetail, DetectorSpec, StreamingDetector};
    use aging_stream::gate::GateAction;
    use aging_stream::{GateConfig, SampleGate};

    banner(
        "E11",
        "online streaming detector: parity with the batch detector + throughput",
        "the bounded-memory streaming detector fires the identical alerts at the identical \
         sample times as the offline batch run, at >10x the throughput of re-running the \
         batch detector per sample",
    );
    let horizon = if quick {
        48.0 * HOUR
    } else {
        10.0 * 24.0 * HOUR
    };
    let report = aging_memsim::simulate(&scenarios::machine_a(777), horizon)?;
    let series = report.log.series(Counter::AvailableBytes)?;
    let values = series.values();
    let dt = series.dt();
    println!(
        "machine A trace: {} samples ({} h), crash: {}",
        values.len(),
        hours(report.simulated_secs),
        opt_fmt(report.first_crash().map(|c| c.time.as_secs()), hours),
    );

    // Batch (offline) run.
    let config = DetectorConfig::default();
    let batch = analyze(values, &config)?;

    // Streaming run through the full ingestion path: gate + detector.
    let mut gate = SampleGate::new(GateConfig {
        nominal_period_secs: dt,
        max_gap_factor: 4.0,
        ..GateConfig::default()
    })?;
    let mut streaming = StreamingDetector::new(&DetectorSpec::Holder(config.clone()))?;
    let mut streamed = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let raw = aging_stream::StreamSample {
            time_secs: i as f64 * dt,
            value: v,
        };
        let accepted = match gate.push(raw) {
            GateAction::Accept(s) | GateAction::AcceptAfterGap(s) => s,
            GateAction::DropNonFinite | GateAction::DropOutOfOrder => continue,
        };
        if let Some(alert) = streaming.push(accepted.value)? {
            if let AlertDetail::Holder(a) = alert.detail {
                streamed.push(a);
            }
        }
    }

    let mut table = Table::new(vec!["metric", "batch", "stream", "note"]);
    let match_count = batch
        .alerts
        .iter()
        .zip(&streamed)
        .filter(|(a, b)| a == b)
        .count();
    let parity = batch.alerts.len() == streamed.len() && match_count == streamed.len();
    table.row(vec![
        "alerts".to_string(),
        format!("{}", batch.alerts.len()),
        format!("{}", streamed.len()),
        if parity {
            "identical".into()
        } else {
            "MISMATCH".to_string()
        },
    ]);
    for (k, (a, b)) in batch.alerts.iter().zip(&streamed).enumerate() {
        table.row(vec![
            format!("alert{k}_{:?}_t[h]", a.level),
            hours(a.sample_index as f64 * dt),
            hours(b.sample_index as f64 * dt),
            if a == b {
                "same sample".into()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }

    // Amortized throughput: streaming vs re-running the batch detector
    // from scratch on every arriving sample (the stateless alternative).
    let m = values.len().min(1500);
    let prefix = &values[..m];
    let t0 = std::time::Instant::now();
    let mut det = StreamingDetector::new(&DetectorSpec::Holder(config.clone()))?;
    for &v in prefix {
        let _ = det.push(v)?;
    }
    let stream_us = t0.elapsed().as_secs_f64() * 1e6 / m as f64;
    let t0 = std::time::Instant::now();
    for i in 1..=m {
        let mut det = aging_core::detector::HolderDimensionDetector::new(config.clone())?;
        for &v in &prefix[..i] {
            let _ = det.push(v)?;
        }
    }
    let scratch_us = t0.elapsed().as_secs_f64() * 1e6 / m as f64;
    let speedup = scratch_us / stream_us;
    table.row(vec![
        "amortized_us_per_sample".to_string(),
        format!("{scratch_us:.1}"),
        format!("{stream_us:.2}"),
        format!("{speedup:.0}x speedup over {m} samples"),
    ]);
    println!("{table}");
    println!(
        "parity: {} | streaming memory bound: {} samples | speedup: {speedup:.0}x (target >=10x)",
        if parity { "EXACT" } else { "BROKEN" },
        det.memory_bound_samples(),
    );

    if let Some(dir) = out {
        table.write_csv(&dir.join("e11_stream_parity.csv"))?;
    }
    if !parity {
        return Err(aging_timeseries::Error::Numerical(
            "streaming/batch alert parity broken".into(),
        ));
    }
    if speedup < 10.0 {
        return Err(aging_timeseries::Error::Numerical(format!(
            "streaming speedup {speedup:.1}x below the 10x floor"
        )));
    }
    Ok(())
}

/// E12 — the parallel analysis engine: bit-identical parity plus wall-clock
/// speedup of the pooled hot paths versus thread count.
pub fn e12(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_core::eval::compare_in;
    use aging_fractal::holder::holder_trace_in;
    use aging_par::Pool;

    banner(
        "E12",
        "deterministic parallel engine: holder_trace + fleet compare vs thread count",
        "parallel output is bit-identical to sequential at every thread count; on >=4 \
         hardware threads the 4-thread wall clock beats sequential by >=2.5x",
    );
    let hw_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("hardware threads: {hw_threads} (AGING_THREADS overrides pool sizing elsewhere)");

    // E3-scale trace: machine A with reboots.
    let horizon = if quick {
        48.0 * HOUR
    } else {
        10.0 * 24.0 * HOUR
    };
    let report = simulate_with_reboots(&scenarios::machine_a(777), horizon)?;
    let series = report.log.series(Counter::AvailableBytes)?;
    let values = series.values();
    println!(
        "machine A trace: {} samples ({} h), {} crashes",
        values.len(),
        hours(report.simulated_secs),
        report.log.crashes().len(),
    );

    // Fleet for the scoring path.
    let fleet_scenarios = scenarios::aging_fleet(if quick { 3 } else { 6 });
    let fleet = aging_memsim::simulate_fleet_in(
        &fleet_scenarios,
        if quick { 24.0 * HOUR } else { 72.0 * HOUR },
        &Pool::sequential(),
    )?;
    let spec = PredictorSpec::HolderDimension(DetectorConfig::default());

    let estimator = HolderEstimator::default();
    let thread_counts = [1usize, 2, 4];
    let mut table = Table::new(vec![
        "threads",
        "holder_ms",
        "holder_speedup",
        "compare_ms",
        "compare_speedup",
        "parity",
    ]);

    // Sequential references (timed as the 1-thread row).
    let mut holder_ref: Option<Vec<f64>> = None;
    let mut compare_ref = None;
    let mut holder_base_ms = 0.0;
    let mut compare_base_ms = 0.0;
    let mut holder_speedup_at = vec![0.0f64; thread_counts.len()];
    let mut compare_speedup_at = vec![0.0f64; thread_counts.len()];

    for (ti, &threads) in thread_counts.iter().enumerate() {
        let pool = Pool::new(threads);

        let t0 = std::time::Instant::now();
        let trace = holder_trace_in(values, &estimator, &pool)?;
        let holder_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = std::time::Instant::now();
        let row = compare_in(&spec, &fleet, Counter::AvailableBytes, &pool)?;
        let compare_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Hard bit-level parity against the 1-thread reference.
        let parity = match (&holder_ref, &compare_ref) {
            (None, None) => {
                holder_ref = Some(trace);
                compare_ref = Some(row);
                holder_base_ms = holder_ms;
                compare_base_ms = compare_ms;
                true
            }
            (Some(h), Some(r)) => {
                let holder_ok = h.len() == trace.len()
                    && h.iter()
                        .zip(&trace)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                holder_ok && *r == row
            }
            _ => unreachable!("references are set together"),
        };
        holder_speedup_at[ti] = holder_base_ms / holder_ms;
        compare_speedup_at[ti] = compare_base_ms / compare_ms;
        table.row(vec![
            format!("{threads}"),
            format!("{holder_ms:.1}"),
            format!("{:.2}x", holder_speedup_at[ti]),
            format!("{compare_ms:.1}"),
            format!("{:.2}x", compare_speedup_at[ti]),
            if parity {
                "exact".into()
            } else {
                "MISMATCH".to_string()
            },
        ]);
        if !parity {
            println!("{table}");
            return Err(aging_timeseries::Error::Numerical(format!(
                "parallel output diverged from sequential at {threads} threads"
            )));
        }
    }
    println!("{table}");

    if let Some(dir) = out {
        table.write_csv(&dir.join("e12_par_speedup.csv"))?;
    }

    // The speedup floor is a hardware claim: it only holds where 4 real
    // threads exist. Parity above is asserted unconditionally.
    let h4 = holder_speedup_at[thread_counts.len() - 1];
    let c4 = compare_speedup_at[thread_counts.len() - 1];
    if hw_threads >= 4 {
        println!("speedup gate (>=2.5x at 4 threads): holder {h4:.2}x, compare {c4:.2}x");
        if h4 < 2.5 || c4 < 2.5 {
            return Err(aging_timeseries::Error::Numerical(format!(
                "4-thread speedup below the 2.5x floor: holder {h4:.2}x, compare {c4:.2}x"
            )));
        }
    } else {
        println!(
            "speedup gate skipped: only {hw_threads} hardware thread(s) — measured holder \
             {h4:.2}x, compare {c4:.2}x at 4 pool threads (parity still asserted)"
        );
    }
    Ok(())
}

/// E13 — chaos differential robustness: the fleet supervisor under seeded
/// fault injection, clean vs. chaos-wrapped, with the robustness contract
/// (no panic, exact reconciliation, ordered watermarks, bounded lead
/// degradation) hard-checked by the harness.
pub fn e13(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_chaos::{run_differential, ChaosPlan, Tolerance};
    use aging_stream::detector::DetectorSpec;
    use aging_stream::{CounterDetector, FleetConfig};

    banner(
        "E13",
        "chaos differential: fleet supervisor under seeded fault injection",
        "under NaN bursts, replays, clock defects, spikes and stalls the supervisor \
         never panics, reconciles every sample exactly, keeps watermark order, and \
         loses at most a bounded amount of crash-warning lead time",
    );

    let (machines, horizon, seeds): (usize, f64, &[u64]) = if quick {
        (3, 8.0 * HOUR, &[0x00c0_ffee, 42])
    } else {
        (5, 12.0 * HOUR, &[42, 7, 1234, 2026])
    };
    // Aggressively-leaking tiny machines (5 s sampling) plus one healthy
    // control that must stay silent under injection.
    let mut fleet: Vec<aging_memsim::Scenario> = (0..machines)
        .map(|i| aging_memsim::Scenario::tiny_aging(500 + i as u64, 192.0 + 32.0 * i as f64))
        .collect();
    fleet.push(aging_memsim::Scenario::tiny_aging(900, 0.0));

    let mut cfg = FleetConfig::new(
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
    cfg.gate.nominal_period_secs = 5.0;
    cfg.gate.quarantine_after = 8;
    cfg.status_every_secs = 600.0;
    cfg.shards = 2;

    let tolerance = Tolerance::default();
    let mut table = Table::new(vec![
        "seed",
        "scenario",
        "crash[h]",
        "clean_lead[h]",
        "chaos_lead[h]",
        "note",
    ]);
    for &seed in seeds {
        let report = run_differential(&fleet, &cfg, &ChaosPlan::nasty(seed), &tolerance)?;
        println!(
            "seed {seed:#x}: injected {} faults, gate dropped {} samples",
            report.injected.injected(),
            report.chaos.status.ingestion.dropped(),
        );
        println!("{}", report.table());
        for row in &report.rows {
            let note = match (row.clean_lead_secs, row.chaos_lead_secs) {
                (Some(c), Some(x)) => format!("lead_loss {:.2} h", (c - x).max(0.0) / HOUR),
                (None, None) => "silent (healthy)".to_string(),
                (Some(_), None) => "MISSED under chaos".to_string(),
                (None, Some(_)) => "extra alarm under chaos".to_string(),
            };
            table.row(vec![
                format!("{seed:#x}"),
                row.scenario.clone(),
                opt_fmt(row.crash_time_secs, hours),
                opt_fmt(row.clean_lead_secs, hours),
                opt_fmt(row.chaos_lead_secs, hours),
                note,
            ]);
        }
    }
    println!("{table}");
    println!(
        "robustness contract held at all {} seed(s) (tolerance: {} missed, {:.1} h lead loss, \
         {} extra false alarms)",
        seeds.len(),
        tolerance.max_missed_detections,
        tolerance.max_lead_loss_secs / HOUR,
        tolerance.max_extra_false_alarms,
    );
    if let Some(dir) = out {
        table.write_csv(&dir.join("e13_chaos_differential.csv"))?;
    }
    Ok(())
}

/// E14 — networked ingestion parity and latency: the `aging-serve` TCP
/// server, fed by the load-generator client over loopback, must
/// reproduce the offline fleet supervisor's alarm history **byte for
/// byte** (a hard gate), while the run also reports sustained ingest
/// throughput, ack round-trip latency and alarm send-to-visibility
/// latency.
pub fn e14(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_serve::loadgen::{drive, BatchMode, LoadgenConfig};
    use aging_serve::protocol::{encode_events, ServeEvent};
    use aging_serve::{ServeConfig, Server};
    use aging_stream::detector::DetectorSpec;
    use aging_stream::{CounterDetector, FleetConfig, FleetSupervisor};

    banner(
        "E14",
        "networked ingestion: TCP server + loadgen vs. offline supervisor",
        "the alarm history ingested over loopback TCP is byte-identical to the \
         offline fleet supervisor's, with no panics, no quarantines and every \
         record acked; throughput and ingest-to-alarm latency are reported",
    );

    // The horizon must be long enough that the loadgen wall is dominated
    // by actual ingest rather than connection setup and the final poller
    // drain: at 8 h the whole columnar run fits inside a couple of poll
    // intervals and "throughput" mostly measures fixed overhead.
    let (leaky, horizon, seeds): (usize, f64, &[u64]) = if quick {
        (3, 24.0 * HOUR, &[0x00c0_ffee, 42])
    } else {
        (9, 24.0 * HOUR, &[42, 7, 1234])
    };

    let mut cfg = FleetConfig::new(
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
    cfg.gate.nominal_period_secs = 5.0;

    let loadgen_for = |mode: BatchMode| LoadgenConfig {
        connections: 4,
        batch_records: 64,
        rate_records_per_sec: 0.0,
        poll_alarms_ms: 20,
        counters: vec![Counter::AvailableBytes],
        mode,
    };

    // The shared telemetry histogram buckets are tuned for µs-scale
    // detector latencies; for ms-scale socket round-trips the exact mean
    // is the sharper statistic, with the bucketed p99 as an upper bound.
    let ms = |us: Option<u64>| opt_fmt(us.map(|v| v as f64 / 1000.0), |v| format!("{v:.2}"));
    let mean_ms =
        |h: &aging_stream::telemetry::LatencyHistogram| format!("{:.2}", h.mean_us() / 1000.0);
    let mut table = Table::new(vec![
        "seed",
        "mode",
        "machines",
        "records",
        "rec/s",
        "ack_mean[ms]",
        "ack_p99<=[ms]",
        "vis_mean[ms]",
        "vis_p99<=[ms]",
        "alarms",
        "parity",
    ]);
    let mut pooled_ack = aging_stream::telemetry::LatencyHistogram::default();
    let mut pooled_vis = aging_stream::telemetry::LatencyHistogram::default();
    // (records, wall seconds) per wire mode, Record then Columnar.
    let modes = [BatchMode::Record, BatchMode::Columnar];
    let mut totals = [(0u64, 0.0f64); 2];
    for &seed in seeds {
        // Leaky machines plus one healthy control, same recipe as E13.
        let mut fleet: Vec<aging_memsim::Scenario> = (0..leaky)
            .map(|i| aging_memsim::Scenario::tiny_aging(seed + i as u64, 192.0 + 32.0 * i as f64))
            .collect();
        fleet.push(aging_memsim::Scenario::tiny_aging(seed + leaky as u64, 0.0));

        let offline_report = FleetSupervisor::new(cfg.clone())?.run(&fleet)?;
        let offline: Vec<ServeEvent> = offline_report
            .events
            .iter()
            .map(|e| ServeEvent {
                machine_id: e.machine_index as u64,
                time_secs: e.time_secs,
                level: e.level,
                kind: e.kind,
            })
            .collect();

        for (mode_idx, &mode) in modes.iter().enumerate() {
            let mut serve_cfg = ServeConfig::from_fleet(&cfg);
            // Pin the release order: hold alarms until the whole fleet has
            // checked in, so concurrent feeders cannot permute the history.
            serve_cfg.expected_machines = Some(fleet.len() as u64);
            let server = Server::bind("127.0.0.1:0", serve_cfg)?;
            let report = drive(
                server.local_addr(),
                &fleet,
                cfg.horizon_secs,
                &loadgen_for(mode),
            )?;
            let outcome = server.shutdown();

            if outcome.wire.session_panics != 0 || outcome.wire.quarantined != 0 {
                return Err(aging_timeseries::Error::invalid(
                    "e14",
                    format!(
                        "seed {seed:#x} ({mode:?}): server misbehaved (panics {}, quarantined {})",
                        outcome.wire.session_panics, outcome.wire.quarantined
                    ),
                ));
            }
            if report.records_sent != report.records_accepted {
                return Err(aging_timeseries::Error::invalid(
                    "e14",
                    format!(
                        "seed {seed:#x} ({mode:?}): {} of {} records not acked as accepted",
                        report.records_sent - report.records_accepted,
                        report.records_sent
                    ),
                ));
            }
            if mode == BatchMode::Record {
                // Pool latency over record mode only, so the trajectory
                // metrics stay comparable commit-over-commit.
                pooled_ack.merge(&report.ack_rtt);
                pooled_vis.merge(&report.alarm_visibility);
            }
            totals[mode_idx].0 += report.records_sent;
            totals[mode_idx].1 += report.wall_secs;
            let parity = encode_events(&offline) == encode_events(&outcome.events)
                && encode_events(&report.alarms) == encode_events(&outcome.events);
            table.row(vec![
                format!("{seed:#x}"),
                format!("{mode:?}").to_lowercase(),
                format!("{}", fleet.len()),
                format!("{}", report.records_sent),
                format!("{:.0}", report.records_per_sec()),
                mean_ms(&report.ack_rtt),
                ms(report.ack_rtt.quantile_upper_bound_us(0.99)),
                mean_ms(&report.alarm_visibility),
                ms(report.alarm_visibility.quantile_upper_bound_us(0.99)),
                format!("{}", outcome.events.len()),
                if parity { "IDENTICAL" } else { "DIVERGED" }.to_string(),
            ]);
            if !parity {
                println!("{table}");
                return Err(aging_timeseries::Error::invalid(
                    "e14",
                    format!(
                        "seed {seed:#x} ({mode:?}): TCP-path alarm history diverged from the \
                         offline supervisor ({} offline vs {} online events)",
                        offline.len(),
                        outcome.events.len()
                    ),
                ));
            }
        }
    }
    println!("{table}");
    let record_rps = totals[0].0 as f64 / totals[0].1.max(1e-9);
    let columnar_rps = totals[1].0 as f64 / totals[1].1.max(1e-9);
    println!(
        "parity gate held at all {} seed(s) in both wire modes: the networked path is \
         alarm-for-alarm identical to the offline supervisor",
        seeds.len()
    );
    println!(
        "columnar ingest: {columnar_rps:.0} rec/s vs {record_rps:.0} rec/s record-at-a-time \
         ({:.1}x)",
        columnar_rps / record_rps.max(1e-9)
    );
    trajectory::record("records_per_sec", record_rps);
    trajectory::record("columnar_records_per_sec", columnar_rps);
    trajectory::record("columnar_speedup", columnar_rps / record_rps.max(1e-9));
    trajectory::record("ack_mean_ms", pooled_ack.mean_us() / 1000.0);
    trajectory::record("vis_mean_ms", pooled_vis.mean_us() / 1000.0);
    if let Some(us) = pooled_ack.quantile_upper_bound_us(0.99) {
        trajectory::record("ack_p99_ms", us as f64 / 1000.0);
    }
    if let Some(dir) = out {
        table.write_csv(&dir.join("e14_serve_parity.csv"))?;
    }
    Ok(())
}

/// E15 — crash-safe persistence: the store-backed server journals every
/// accepted batch before acking (acked ⇒ durable), so the run measures
/// what that costs and what it buys: ingest throughput with the journal
/// on vs. off, pooled over alternating rounds of both passes (**hard
/// gate: < 20 % overhead**), journal volume and snapshot cadence, and
/// the wall-clock time to recover a server from its snapshot + journal —
/// with every recovered alarm history held byte-identical to every
/// in-memory and persisted pass.
pub fn e15(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_serve::loadgen::{drive, BatchMode, LoadgenConfig};
    use aging_serve::protocol::encode_events;
    use aging_serve::{PersistStats, ServeConfig, Server};
    use aging_store::StoreConfig;
    use aging_stream::detector::DetectorSpec;
    use aging_stream::{CounterDetector, FleetConfig};
    use std::time::Instant;

    banner(
        "E15",
        "crash-safe persistence: journal overhead and recovery time",
        "journaling every batch before the ack costs < 20% of loopback ingest \
         throughput (fsync off), and a server recovered from the snapshot + \
         journal reproduces the persisted alarm history byte for byte",
    );

    let (leaky, horizon, seeds): (usize, f64, &[u64]) = if quick {
        (3, 8.0 * HOUR, &[0x00c0_ffee, 42])
    } else {
        (9, 12.0 * HOUR, &[42, 7, 1234])
    };

    let mut cfg = FleetConfig::new(
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
    cfg.gate.nominal_period_secs = 5.0;

    let loadgen = LoadgenConfig {
        connections: 4,
        batch_records: 64,
        rate_records_per_sec: 0.0,
        poll_alarms_ms: 20,
        counters: vec![Counter::AvailableBytes],
        mode: BatchMode::Record,
    };

    let store_dir = std::env::temp_dir().join(format!("aging-e15-{}", std::process::id()));
    let store_config = || StoreConfig {
        // Several snapshots per run, so recovery exercises the
        // snapshot-restore + journal-suffix path, not a cold replay.
        snapshot_every_entries: 16,
        ..StoreConfig::new(&store_dir)
    };

    let mut table = Table::new(vec![
        "seed",
        "machines",
        "records",
        "base[rec/s]",
        "store[rec/s]",
        "overhead[%]",
        "journal[KiB]",
        "entries",
        "snaps",
        "recover[ms]",
        "parity",
    ]);
    // One quick pass carries only a few thousand records, so a single pair
    // of passes per seed is mostly noise. Each seed runs `ROUNDS` rounds
    // of a memory-only and a journaled pass instead, alternating which
    // goes first, so drift in host speed charges both sides alike.
    const ROUNDS: usize = 4;
    let (mut base_total, mut base_secs) = (0u64, 0.0f64);
    let (mut store_total, mut store_secs) = (0u64, 0.0f64);
    let mut recover_ms_sum = 0.0f64;
    for &seed in seeds {
        let mut fleet: Vec<aging_memsim::Scenario> = (0..leaky)
            .map(|i| aging_memsim::Scenario::tiny_aging(seed + i as u64, 192.0 + 32.0 * i as f64))
            .collect();
        fleet.push(aging_memsim::Scenario::tiny_aging(seed + leaky as u64, 0.0));
        let mut serve_cfg = ServeConfig::from_fleet(&cfg);
        serve_cfg.expected_machines = Some(fleet.len() as u64);

        // Every pass and every recovery must reproduce the seed's first
        // alarm history byte for byte.
        let mut canonical = None;
        let (mut base, mut store) = ((0u64, 0.0f64), (0u64, 0.0f64));
        let (mut records, mut persist, mut recover_ms) = (0, PersistStats::default(), 0.0);
        for round in 0..ROUNDS {
            for journaled in [round % 2 == 1, round % 2 == 0] {
                let mut pass_cfg = serve_cfg.clone();
                if journaled {
                    // Same workload, journaled: every ack now implies
                    // durability.
                    let _ = std::fs::remove_dir_all(&store_dir);
                    pass_cfg.store = Some(store_config());
                }
                let server = Server::bind("127.0.0.1:0", pass_cfg)?;
                let report = drive(server.local_addr(), &fleet, cfg.horizon_secs, &loadgen)?;
                let outcome = server.shutdown();
                records = report.records_sent;
                let totals = if journaled { &mut store } else { &mut base };
                totals.0 += report.records_sent;
                totals.1 += report.records_sent as f64 / report.records_per_sec().max(1e-9);
                let pass = if journaled {
                    "store-backed"
                } else {
                    "memory-only"
                };
                let mut histories = vec![(pass, outcome.events)];
                if journaled {
                    persist = outcome.persist.ok_or_else(|| {
                        aging_timeseries::Error::invalid(
                            "e15",
                            "store-backed report lacks persist stats",
                        )
                    })?;
                    if persist.entries_journaled == 0 || persist.snapshots_committed == 0 {
                        return Err(aging_timeseries::Error::invalid(
                            "e15",
                            format!(
                                "seed {seed:#x}: store-backed run journaled {} entries and \
                                 committed {} snapshots; the persistence path was not exercised",
                                persist.entries_journaled, persist.snapshots_committed
                            ),
                        ));
                    }
                    // Recovery: re-open the same directory and time the
                    // rebuild (snapshot restore + journal-suffix replay
                    // inside `bind`).
                    let mut recover_cfg = serve_cfg.clone();
                    recover_cfg.store = Some(store_config());
                    let t0 = Instant::now();
                    let recovered = Server::bind("127.0.0.1:0", recover_cfg)?;
                    recover_ms += t0.elapsed().as_secs_f64() * 1000.0;
                    histories.push(("recovered", recovered.shutdown().events));
                    let _ = std::fs::remove_dir_all(&store_dir);
                }
                for (pass, events) in histories {
                    let history = encode_events(&events);
                    if *canonical.get_or_insert_with(|| history.clone()) != history {
                        return Err(aging_timeseries::Error::invalid(
                            "e15",
                            format!(
                                "seed {seed:#x} round {round}: the {pass} alarm history \
                                 diverged from the seed's first pass"
                            ),
                        ));
                    }
                }
            }
        }
        base_total += base.0;
        base_secs += base.1;
        store_total += store.0;
        store_secs += store.1;
        recover_ms /= ROUNDS as f64;
        recover_ms_sum += recover_ms;
        let (base_rps, store_rps) = (base.0 as f64 / base.1, store.0 as f64 / store.1);
        table.row(vec![
            format!("{seed:#x}"),
            format!("{}", fleet.len()),
            format!("{records}"),
            format!("{base_rps:.0}"),
            format!("{store_rps:.0}"),
            format!("{:.1}", 100.0 * (1.0 - store_rps / base_rps)),
            format!("{:.1}", persist.journal_appended_bytes as f64 / 1024.0),
            format!("{}", persist.entries_journaled),
            format!("{}", persist.snapshots_committed),
            format!("{recover_ms:.2}"),
            "IDENTICAL".to_string(),
        ]);
    }
    println!("{table}");
    // Gate on the aggregate across seeds: per-seed loopback throughput is
    // noisy, the pooled ratio is what the < 20% contract is about.
    let base_rps = base_total as f64 / base_secs.max(1e-9);
    let store_rps = store_total as f64 / store_secs.max(1e-9);
    let overhead = 1.0 - store_rps / base_rps;
    println!(
        "aggregate ingest: {base_rps:.0} rec/s without the journal, {store_rps:.0} rec/s \
         with it ({:.1}% overhead; gate < 20%)",
        100.0 * overhead
    );
    if overhead >= 0.20 {
        return Err(aging_timeseries::Error::invalid(
            "e15",
            format!(
                "journal overhead {:.1}% exceeds the 20% budget \
                 ({base_rps:.0} rec/s baseline vs {store_rps:.0} rec/s store-backed)",
                100.0 * overhead
            ),
        ));
    }
    trajectory::record("base_records_per_sec", base_rps);
    trajectory::record("store_records_per_sec", store_rps);
    trajectory::record("overhead_pct", 100.0 * overhead);
    trajectory::record("recover_ms_mean", recover_ms_sum / seeds.len() as f64);
    if let Some(dir) = out {
        table.write_csv(&dir.join("e15_store_overhead.csv"))?;
    }
    Ok(())
}

/// E16 — the sharded cluster tier: machine ids partitioned across N
/// `aging-serve` shards by the consistent-hash ring, each shard's
/// watermark-ordered alarm stream pulled and k-way merged by the
/// aggregator node. **Hard gate:** the merged global history is
/// byte-identical to the offline whole-fleet supervisor at 1, 2 and 4
/// shards, *including* a run where one store-backed shard is killed and
/// recovered mid-stream; on ≥ 4 hardware threads, 4-shard aggregate
/// ingest must additionally beat the single-shard rate (on fewer
/// threads the scale-out comparison is reported but not gated — shards
/// would just time-slice one core).
pub fn e16(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_cluster::{drive_fleet, Aggregator, AggregatorConfig, HashRing, LocalCluster};
    use aging_serve::loadgen::{BatchMode, LoadgenConfig};
    use aging_serve::protocol::{counter_code, encode_events, Record, ServeEvent};
    use aging_serve::{ServeClient, ServeConfig};
    use aging_stream::detector::DetectorSpec;
    use aging_stream::source::{MachineSource, SampleSource};
    use aging_stream::{CounterDetector, FleetConfig, FleetSupervisor};
    use std::collections::HashMap;

    const RING_VNODES: u32 = 64;
    const RING_SEED: u64 = 0x00e1_6000;

    banner(
        "E16",
        "sharded cluster: hash-ring shards + watermark-merging aggregator",
        "the aggregator's merged alarm history is byte-identical to the offline \
         supervisor at 1/2/4 shards — also when one store-backed shard is killed \
         and recovered mid-stream — and on >=4 hardware threads the 4-shard \
         aggregate ingest rate beats the single-shard rate",
    );

    let (leaky, horizon, seeds): (usize, f64, &[u64]) = if quick {
        (3, 8.0 * HOUR, &[0x00c0_ffee])
    } else {
        (9, 12.0 * HOUR, &[42, 7])
    };
    let hw_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("hardware threads: {hw_threads}");

    let mut cfg = FleetConfig::new(
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
    cfg.gate.nominal_period_secs = 5.0;
    let loadgen = LoadgenConfig {
        connections: 2,
        batch_records: 64,
        rate_records_per_sec: 0.0,
        poll_alarms_ms: 0,
        counters: vec![Counter::AvailableBytes],
        mode: BatchMode::Record,
    };

    let shard_counts = [1u64, 2, 4];
    let mut table = Table::new(vec![
        "seed",
        "shards",
        "machines",
        "records",
        "rec/s",
        "alarms",
        "reconnects",
        "parity",
        "note",
    ]);
    // Pooled per shard count across seeds, for the scale-out comparison.
    let mut pooled: HashMap<u64, (u64, f64)> = HashMap::new();

    let fail = |seed: u64, what: &str, offline: usize, merged: usize| {
        aging_timeseries::Error::invalid(
            "e16",
            format!(
                "seed {seed:#x}: {what} merged history diverged from the offline \
                 supervisor ({offline} offline vs {merged} merged events)"
            ),
        )
    };

    for &seed in seeds {
        let mut fleet: Vec<aging_memsim::Scenario> = (0..leaky)
            .map(|i| aging_memsim::Scenario::tiny_aging(seed + i as u64, 192.0 + 32.0 * i as f64))
            .collect();
        fleet.push(aging_memsim::Scenario::tiny_aging(seed + leaky as u64, 0.0));
        let ids: Vec<u64> = (0..fleet.len() as u64).collect();

        let offline_report = FleetSupervisor::new(cfg.clone())?.run(&fleet)?;
        let offline: Vec<ServeEvent> = offline_report
            .events
            .iter()
            .map(|e| ServeEvent {
                machine_id: e.machine_index as u64,
                time_secs: e.time_secs,
                level: e.level,
                kind: e.kind,
            })
            .collect();
        let offline_bytes = encode_events(&offline);

        // Shard sweep: the same fleet through 1-, 2- and 4-shard clusters.
        for &shards in &shard_counts {
            let ring = HashRing::new(shards, RING_VNODES, RING_SEED)?;
            let template = ServeConfig::from_fleet(&cfg);
            let cluster = LocalCluster::launch(&ring, &template, &ids, None)?;
            let aggregator = Aggregator::new(AggregatorConfig::default())?;
            let (drive_result, agg_result) = std::thread::scope(|scope| {
                let agg = scope.spawn(|| aggregator.run(cluster.directory()));
                let drive = drive_fleet(
                    &ring,
                    cluster.directory(),
                    &fleet,
                    &ids,
                    cfg.horizon_secs,
                    &loadgen,
                );
                (drive, agg.join().expect("aggregator thread"))
            });
            let drive = drive_result?;
            let merged = agg_result?;
            for outcome in cluster.shutdown().into_iter().flatten() {
                if outcome.wire.session_panics != 0 || outcome.wire.quarantined != 0 {
                    return Err(aging_timeseries::Error::invalid(
                        "e16",
                        format!(
                            "seed {seed:#x}, {shards} shard(s): shard misbehaved (panics {}, \
                             quarantined {})",
                            outcome.wire.session_panics, outcome.wire.quarantined
                        ),
                    ));
                }
            }
            let parity = offline_bytes == encode_events(&merged.events);
            let entry = pooled.entry(shards).or_insert((0, 0.0));
            entry.0 += drive.records_sent();
            entry.1 += drive.wall_secs;
            table.row(vec![
                format!("{seed:#x}"),
                format!("{shards}"),
                format!("{}", fleet.len()),
                format!("{}", drive.records_sent()),
                format!("{:.0}", drive.records_per_sec()),
                format!("{}", merged.events.len()),
                format!("{}", merged.reconnects),
                if parity { "IDENTICAL" } else { "DIVERGED" }.to_string(),
                String::new(),
            ]);
            if !parity {
                println!("{table}");
                return Err(fail(
                    seed,
                    &format!("{shards}-shard"),
                    offline.len(),
                    merged.events.len(),
                ));
            }
        }

        // Kill-and-recover: a 2-shard store-backed cluster; the shard
        // owning the most machines is killed mid-stream and re-bound
        // from its WAL + snapshot, while the aggregator reconnects
        // through the directory. Parity must still hold.
        let shards = 2u64;
        let ring = HashRing::new(shards, RING_VNODES, RING_SEED)?;
        let parts = ring.partition_indices(&ids);
        let victim = (0..parts.len())
            .max_by_key(|&s| parts[s].len())
            .expect("two shards");
        let store_root = std::env::temp_dir().join(format!("aging-e16-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        let template = ServeConfig::from_fleet(&cfg);
        let cluster = LocalCluster::launch(&ring, &template, &ids, Some(&store_root))?;
        let aggregator = Aggregator::new(AggregatorConfig::default())?;

        // The victim's records, round-robin across its machines by
        // sample index (preserving per-machine time order), in batches
        // small enough that the kill lands mid-stream.
        let code = counter_code(Counter::AvailableBytes);
        let traces: Vec<Vec<Record>> = parts[victim]
            .iter()
            .map(|&pos| -> Result<Vec<Record>> {
                let mut source =
                    MachineSource::new(&fleet[pos], Counter::AvailableBytes, cfg.horizon_secs)?;
                let mut out = Vec::new();
                while let Some(s) = source.next_sample()? {
                    out.push(Record {
                        machine_id: ids[pos],
                        counter: code,
                        time_secs: s.time_secs,
                        value: s.value,
                    });
                }
                Ok(out)
            })
            .collect::<Result<_>>()?;
        let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut records = Vec::new();
        for i in 0..longest {
            for trace in &traces {
                if let Some(rec) = trace.get(i) {
                    records.push(*rec);
                }
            }
        }
        let batches: Vec<Vec<Record>> = records.chunks(16).map(<[Record]>::to_vec).collect();
        let kill_at = batches.len() / 2;

        let agg_result = std::thread::scope(|scope| -> Result<_> {
            let agg = scope.spawn(|| aggregator.run(cluster.directory()));
            let mut healthy = Vec::new();
            for (shard, positions) in parts.iter().enumerate() {
                if shard == victim || positions.is_empty() {
                    continue;
                }
                let shard_fleet: Vec<aging_memsim::Scenario> =
                    positions.iter().map(|&p| fleet[p].clone()).collect();
                let shard_ids: Vec<u64> = positions.iter().map(|&p| ids[p]).collect();
                let addr = cluster.directory().addr(shard);
                let horizon_secs = cfg.horizon_secs;
                let loadgen = &loadgen;
                healthy.push(scope.spawn(move || {
                    aging_serve::loadgen::drive_with_ids(
                        addr,
                        &shard_fleet,
                        &shard_ids,
                        horizon_secs,
                        loadgen,
                    )
                }));
            }
            // At-least-once feeder for the victim, killed once mid-feed.
            let mut cursor = 0usize;
            let mut carry: Vec<Vec<Record>> = Vec::new();
            let mut killed = false;
            loop {
                let mut client = ServeClient::connect(cluster.directory().addr(victim), "e16")?;
                let mut sent: HashMap<u64, Vec<Record>> = HashMap::new();
                for batch in carry.drain(..) {
                    let seq = client.send_batch(&batch)?;
                    sent.insert(seq, batch);
                }
                while cursor < batches.len() {
                    if !killed && cursor == kill_at {
                        break;
                    }
                    let batch = batches[cursor].clone();
                    let seq = client.send_batch(&batch)?;
                    sent.insert(seq, batch);
                    cursor += 1;
                }
                if !killed && cursor == kill_at {
                    cluster.abort_shard(victim)?;
                    killed = true;
                    carry = client
                        .unacked_seqs()
                        .into_iter()
                        .filter_map(|seq| sent.remove(&seq))
                        .collect();
                    cluster.rebind_shard(victim)?;
                    continue;
                }
                for &pos in &parts[victim] {
                    client.machine_done(ids[pos])?;
                }
                let _ = client.bye()?;
                break;
            }
            for handle in healthy {
                handle.join().expect("healthy driver thread")?;
            }
            agg.join().expect("aggregator thread")
        });
        let merged = agg_result?;
        let _ = std::fs::remove_dir_all(&store_root);
        for outcome in cluster.shutdown().into_iter().flatten() {
            if outcome.wire.session_panics != 0 {
                return Err(aging_timeseries::Error::invalid(
                    "e16",
                    format!("seed {seed:#x}: kill-and-recover run saw a shard panic"),
                ));
            }
        }
        let parity = offline_bytes == encode_events(&merged.events);
        table.row(vec![
            format!("{seed:#x}"),
            format!("{shards}"),
            format!("{}", fleet.len()),
            "-".to_string(),
            "-".to_string(),
            format!("{}", merged.events.len()),
            format!("{}", merged.reconnects),
            if parity { "IDENTICAL" } else { "DIVERGED" }.to_string(),
            format!("shard {victim} killed+recovered"),
        ]);
        if !parity {
            println!("{table}");
            return Err(fail(
                seed,
                "kill-and-recover",
                offline.len(),
                merged.events.len(),
            ));
        }
        if merged.reconnects == 0 {
            return Err(aging_timeseries::Error::invalid(
                "e16",
                format!(
                    "seed {seed:#x}: the aggregator never reconnected — the kill did not \
                     exercise the recovery path"
                ),
            ));
        }
    }
    println!("{table}");

    let rate = |shards: u64| {
        let (records, secs) = pooled[&shards];
        records as f64 / secs.max(1e-9)
    };
    let (r1, r4) = (rate(1), rate(4));
    println!(
        "parity gate held at all {} seed(s) and shard counts {{1, 2, 4}}, including one \
         kill-and-recover run per seed",
        seeds.len()
    );
    println!(
        "aggregate ingest: {r1:.0} rec/s at 1 shard, {:.0} rec/s at 2, {r4:.0} rec/s at 4 \
         ({:.2}x scale-out at 4 shards)",
        rate(2),
        r4 / r1.max(1e-9),
    );
    if hw_threads >= 4 {
        if r4 <= r1 {
            return Err(aging_timeseries::Error::invalid(
                "e16",
                format!(
                    "4-shard aggregate ingest ({r4:.0} rec/s) did not beat the single-shard \
                     rate ({r1:.0} rec/s) on {hw_threads} hardware threads"
                ),
            ));
        }
        println!("scale-out gate held: 4-shard ingest beats single-shard on {hw_threads} threads");
    } else {
        println!(
            "scale-out gate SKIPPED: only {hw_threads} hardware thread(s); shards would \
             time-slice one core, so the comparison is reported but not enforced"
        );
    }

    for &shards in &shard_counts {
        trajectory::record(&format!("shard{shards}_records_per_sec"), rate(shards));
    }
    trajectory::record("scaleout_4shard", r4 / r1.max(1e-9));
    if let Some(dir) = out {
        table.write_csv(&dir.join("e16_cluster_parity.csv"))?;
    }
    Ok(())
}

/// E17 — the streaming multifractal spectrum: Δα(t) (the f(α) width of
/// the trailing window) as a first-class aging signal. **Hard gates:**
/// on aging machines Δα(t) drifts upward (positive OLS slope and a
/// last-quarter mean clearly above the first-quarter mean) while
/// healthy controls stay flat, at every seed; and the bounded-memory
/// [`StreamingSpectrum`](aging_fractal::spectrum::StreamingSpectrum) is
/// bit-identical to the offline
/// [`spectrum_trace`](aging_fractal::spectrum::spectrum_trace) reference,
/// which runs [`spectrum_in`](aging_fractal::spectrum::spectrum_in) on
/// every window, at 1 and 4 pool threads.
pub fn e17(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_fractal::spectrum::{spectrum_trace_in, SpectrumConfig, StreamingSpectrum};
    use aging_par::Pool;
    use aging_timeseries::regression::ols;

    banner(
        "E17",
        "streaming multifractal spectrum: Δα(t) drift as an aging signal",
        "the rolling f(α) width widens as aging machines approach the crash (positive \
         Δα(t) slope, last-quarter mean above first-quarter mean) and stays flat on \
         healthy controls; the bounded-memory streaming estimator is bit-identical to \
         the offline per-window reference at every window and pool size",
    );

    let horizon = if quick { 20.0 * HOUR } else { 30.0 * HOUR };
    let seeds: &[u64] = &[777, 1234];
    let config = SpectrumConfig::default();
    println!(
        "spectrum: window {} stride {} over q {:?}, counter {}",
        config.window,
        config.stride,
        config.qs,
        Counter::CommittedBytes
    );

    // Gate margins (empirical, see EXPERIMENTS.md E17): aging runs rise
    // by > `rise_margin` between first- and last-quarter means; healthy
    // controls stay within `flat_margin`. Measured at seeds {777, 1234,
    // 42}: aging rise >= +0.059, healthy |drift| <= 0.010.
    let rise_margin = 0.04;
    let flat_margin = 0.05;

    let mut table = Table::new(vec![
        "scenario",
        "windows",
        "Δα q1 mean",
        "Δα q4 mean",
        "slope[/win]",
        "parity",
    ]);
    let mut aging_rise_min = f64::INFINITY;
    let mut aging_slope_min = f64::INFINITY;
    let mut healthy_drift_max = 0.0f64;
    for &seed in seeds {
        let aging = scenarios::spectrum_aging(seed);
        let healthy = scenarios::spectrum_healthy(seed);
        for (is_aging, scenario) in [(true, aging), (false, healthy)] {
            let report = aging_memsim::simulate(&scenario, horizon)?;
            let series = report.log.series(Counter::CommittedBytes)?;
            let values = series.values();

            // Offline reference at 1 and 4 pool threads, plus the
            // streaming estimator at both pool sizes: four runs, one
            // answer, compared bit-for-bit window-for-window.
            let reference = spectrum_trace_in(values, &config, &Pool::new(1))?;
            let mut parity = true;
            let mut variants = vec![spectrum_trace_in(values, &config, &Pool::new(4))?];
            for threads in [1usize, 4] {
                let pool = Pool::new(threads);
                let mut streaming = StreamingSpectrum::new(&config)?;
                let mut windows = Vec::with_capacity(reference.len());
                for &v in values {
                    if let Some(w) = streaming.push_in(v, &pool)? {
                        windows.push(w);
                    }
                }
                variants.push(windows);
            }
            for variant in &variants {
                parity &= variant.len() == reference.len()
                    && variant.iter().zip(&reference).all(|(a, b)| {
                        a.input_index == b.input_index
                            && a.alpha_min.to_bits() == b.alpha_min.to_bits()
                            && a.alpha_max.to_bits() == b.alpha_max.to_bits()
                            && a.delta_alpha.to_bits() == b.delta_alpha.to_bits()
                    });
            }

            let widths: Vec<f64> = reference.iter().map(|w| w.delta_alpha).collect();
            let q = widths.len() / 4;
            if q == 0 {
                return Err(aging_timeseries::Error::invalid(
                    "e17",
                    format!(
                        "{}: only {} spectrum windows — trace too short to quarter",
                        scenario.name,
                        widths.len()
                    ),
                ));
            }
            let first_mean = stats::mean(&widths[..q])?;
            let last_mean = stats::mean(&widths[widths.len() - q..])?;
            let idx: Vec<f64> = (0..widths.len()).map(|i| i as f64).collect();
            let slope = ols(&idx, &widths)?.slope;
            table.row(vec![
                scenario.name.clone(),
                format!("{}", widths.len()),
                format!("{first_mean:.3}"),
                format!("{last_mean:.3}"),
                format!("{slope:+.5}"),
                if parity { "exact" } else { "MISMATCH" }.to_string(),
            ]);
            if !parity {
                println!("{table}");
                return Err(aging_timeseries::Error::invalid(
                    "e17",
                    format!(
                        "{}: streaming spectrum diverged from the offline reference",
                        scenario.name
                    ),
                ));
            }
            if let Some(dir) = out {
                let t: Vec<f64> = reference
                    .iter()
                    .map(|w| w.input_index as f64 * series.dt())
                    .collect();
                write_series_csv(
                    &dir.join(format!("e17_{}.csv", scenario.name)),
                    &["t_secs", "delta_alpha"],
                    &[&t, &widths],
                )?;
            }

            // Drift gates.
            let rise = last_mean - first_mean;
            if is_aging {
                aging_rise_min = aging_rise_min.min(rise);
                aging_slope_min = aging_slope_min.min(slope);
                if slope <= 0.0 || rise <= rise_margin {
                    println!("{table}");
                    return Err(aging_timeseries::Error::invalid(
                        "e17",
                        format!(
                            "{}: Δα(t) did not drift upward (slope {slope:+.5}/window, \
                             quarter-mean rise {rise:+.3}; gate: slope > 0, rise > {rise_margin})",
                            scenario.name
                        ),
                    ));
                }
            } else {
                healthy_drift_max = healthy_drift_max.max(rise.abs());
                if rise.abs() >= flat_margin {
                    println!("{table}");
                    return Err(aging_timeseries::Error::invalid(
                        "e17",
                        format!(
                            "{}: healthy control drifted (quarter-mean drift {rise:+.3}; \
                             gate: |drift| < {flat_margin})",
                            scenario.name
                        ),
                    ));
                }
            }
        }
    }
    println!("{table}");
    println!(
        "drift gate held at all {} seed(s): aging Δα rises >= {aging_rise_min:+.3} \
         (slope >= {aging_slope_min:+.5}/window), healthy drift <= {healthy_drift_max:.3} \
         (margins: rise > {rise_margin}, |healthy drift| < {flat_margin})",
        seeds.len()
    );
    println!("parity gate held: streaming == offline bit-for-bit at 1 and 4 pool threads");
    trajectory::record("aging_rise_min", aging_rise_min);
    trajectory::record("aging_slope_min", aging_slope_min);
    trajectory::record("healthy_drift_max", healthy_drift_max);
    if let Some(dir) = out {
        table.write_csv(&dir.join("e17_spectrum_drift.csv"))?;
    }
    Ok(())
}

/// E18 — closed-loop software rejuvenation: the alarm-driven controller
/// acting online on the fused detector stream must buy availability over
/// both the cron-style periodic baseline and the no-op
/// (crash-repair-only) baseline, on two scenario families — GPU
/// inference serving and mobile app churn — at every seed. **Hard
/// gates:** alarm-driven mean availability strictly exceeds periodic and
/// no-op per (family, seed); healthy controls stay within the
/// false-alarm budget (at most one spurious restart per machine-day, no
/// crashes, three-nines availability); under the no-op policy at least
/// 3 in 4 crashing machines alarmed before their first crash with
/// positive lead time; and a store-backed closed-loop run
/// recovers a byte-identical event history — restart events included —
/// while matching the unjournaled run decision for decision
/// (acked ⇒ durable holds for actions, and the journal replays them).
pub fn e18(quick: bool, out: Option<&Path>) -> Result<()> {
    use aging_memsim::Scenario;
    use aging_rejuv::{RejuvConfig, RejuvPolicy};
    use aging_store::StoreConfig;
    use aging_stream::detector::DetectorSpec;
    use aging_stream::supervisor::{CounterDetector, FleetConfig, FleetSupervisor};

    banner(
        "E18",
        "closed-loop rejuvenation: availability under three restart policies",
        "restarting on the fused alarm (before the crash) strictly beats both \
         cron-style periodic restarts and crash-repair-only operation on mean \
         availability, for the GPU-serving and mobile-churn families at every seed; \
         healthy controls stay inside the false-alarm budget; the journaled closed \
         loop recovers its restart decisions byte for byte",
    );

    let machines = if quick { 2usize } else { 4 };
    let seeds: &[u64] = &[777, 1234];
    type Build = fn(u64) -> Scenario;
    // Per-family detector tuning (window samples, alarm horizon secs) at
    // the 5 s sample period. The window must sit well inside a machine's
    // time-to-crash (a fit spanning a restart discontinuity is blind),
    // yet long enough to average out the workload's own cycle: the GPU
    // machines die every ~45 min, so they get a 30-minute window; the
    // mobile sawtooth reclaims every 30 min and dies in ~2.3 h, so its
    // window spans two reclaim cycles.
    let families: [(&str, f64, usize, f64, Build, Build); 2] = [
        (
            "gpu-serving",
            8.0 * HOUR,
            240,
            600.0,
            |seed| Scenario::gpu_serving(seed, 192.0),
            Scenario::gpu_serving_healthy,
        ),
        (
            "mobile-churn",
            12.0 * HOUR,
            900,
            900.0,
            |seed| Scenario::mobile_churn(seed, 72.0),
            Scenario::mobile_churn_healthy,
        ),
    ];

    let base = RejuvConfig {
        policy: RejuvPolicy::AlarmTriggered,
        // Boot counts as a restart epoch, so the cooldown must clear
        // before the first pre-crash alarm: 15 min (vs the one-hour
        // default) keeps the controller armed on the fast-aging tiny
        // machines while still riding out the post-restart refill.
        cooldown_secs: 900.0,
        restart_downtime_secs: 30.0,
        crash_repair_secs: 900.0,
        max_concurrent_restarts: 2,
    };
    let policies: [(&str, RejuvConfig); 3] = [
        (
            "no-op",
            RejuvConfig {
                policy: RejuvPolicy::None,
                ..base
            },
        ),
        (
            "periodic-1h",
            RejuvConfig {
                policy: RejuvPolicy::Periodic {
                    period_secs: 3600.0,
                },
                ..base
            },
        ),
        ("alarm-driven", base),
    ];
    let fleet_config = |horizon: f64, window: usize, alarm_horizon_secs: f64| {
        let mut cfg = FleetConfig::new(
            vec![CounterDetector {
                counter: Counter::AvailableBytes,
                spec: DetectorSpec::Trend(TrendPredictorConfig {
                    window,
                    refit_every: 8,
                    alarm_horizon_secs,
                    ..TrendPredictorConfig::depleting(5.0)
                }),
            }],
            horizon,
        );
        cfg.gate.nominal_period_secs = 5.0;
        cfg
    };

    let mut table = Table::new(vec![
        "family",
        "seed",
        "policy",
        "restarts",
        "crashes",
        "alarms",
        "downtime[h]",
        "avail mean",
        "avail min",
    ]);
    let store_dir = std::env::temp_dir().join(format!("aging-e18-{}", std::process::id()));
    let mut alarm_vs_periodic_min = f64::INFINITY;
    let mut alarm_vs_noop_min = f64::INFINITY;
    let mut alarm_avail_min = f64::INFINITY;
    let mut lead_time_min = f64::INFINITY;
    let mut healthy_false_restarts = 0u64;

    for &(family, horizon, window, alarm_horizon, build_aging, build_healthy) in &families {
        for &seed in seeds {
            let fleet: Vec<Scenario> = (0..machines)
                .map(|i| build_aging(seed + i as u64))
                .collect();
            let mut mean_by_policy = Vec::with_capacity(policies.len());
            let mut alarm_report = None;
            for &(policy_name, rejuv) in &policies {
                let mut cfg = fleet_config(horizon, window, alarm_horizon);
                cfg.rejuv = Some(rejuv);
                let report = FleetSupervisor::new(cfg)?.run(&fleet)?;
                let avail = report.availability(horizon)?;
                table.row(vec![
                    family.to_string(),
                    format!("{seed}"),
                    policy_name.to_string(),
                    format!("{}", avail.restarts),
                    format!("{}", avail.crashes),
                    format!("{}", report.machine_alarms().count()),
                    format!("{:.2}", avail.downtime_secs / HOUR),
                    format!("{:.4}", avail.mean_availability),
                    format!("{:.4}", avail.min_availability),
                ]);

                if rejuv.policy == RejuvPolicy::None {
                    // Lead-time budget, measured where nothing intervenes:
                    // every aging machine must crash (else the separation
                    // premise is void), and at least 3 in 4 must have
                    // alarmed strictly before their first crash. Not all:
                    // a seed can draw a first life shorter than the trend
                    // window, and a detector that misses one fast death
                    // is a budgeted miss, not a broken experiment.
                    let mut crashed = 0usize;
                    let mut led = 0usize;
                    for outcome in &report.outcomes {
                        if outcome.crash_time_secs.is_none() {
                            return Err(aging_timeseries::Error::invalid(
                                "e18",
                                format!(
                                    "{family} seed {seed}: {} survived the no-op run — the \
                                     family is not aging hard enough to separate policies",
                                    outcome.machine
                                ),
                            ));
                        }
                        crashed += 1;
                        if let Some(lead) = report.lead_time_secs(outcome.machine_index) {
                            if lead > 0.0 {
                                led += 1;
                                lead_time_min = lead_time_min.min(lead);
                            }
                        }
                    }
                    if led * 4 < crashed * 3 {
                        return Err(aging_timeseries::Error::invalid(
                            "e18",
                            format!(
                                "{family} seed {seed}: only {led}/{crashed} machines alarmed \
                                 before their first crash (lead-time budget: >= 3/4)"
                            ),
                        ));
                    }
                }
                if rejuv.policy == RejuvPolicy::AlarmTriggered {
                    alarm_report = Some(report);
                }
                mean_by_policy.push((policy_name, avail.mean_availability));
            }

            // Availability separation: the whole point of closing the loop.
            let mean_of = |name: &str| {
                mean_by_policy
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |(_, a)| *a)
            };
            let (noop, periodic, alarm) = (
                mean_of("no-op"),
                mean_of("periodic-1h"),
                mean_of("alarm-driven"),
            );
            alarm_vs_periodic_min = alarm_vs_periodic_min.min(alarm - periodic);
            alarm_vs_noop_min = alarm_vs_noop_min.min(alarm - noop);
            alarm_avail_min = alarm_avail_min.min(alarm);
            if !(alarm > periodic && alarm > noop) {
                println!("{table}");
                return Err(aging_timeseries::Error::invalid(
                    "e18",
                    format!(
                        "{family} seed {seed}: alarm-driven availability {alarm:.4} does not \
                         strictly beat periodic {periodic:.4} and no-op {noop:.4}"
                    ),
                ));
            }

            // False-alarm budget: the same policy on the healthy controls
            // must (nearly) leave them alone — at most one spurious
            // restart per healthy machine-day (the detector tuned sharp
            // enough to catch a ~35-minute GPU life occasionally reads a
            // workload burst as depletion), zero crashes, and three-nines
            // availability.
            let healthy: Vec<Scenario> = (0..machines)
                .map(|i| build_healthy(seed + i as u64))
                .collect();
            let mut cfg = fleet_config(horizon, window, alarm_horizon);
            cfg.rejuv = Some(base);
            let healthy_report = FleetSupervisor::new(cfg)?.run(&healthy)?;
            let healthy_avail = healthy_report.availability(horizon)?;
            table.row(vec![
                family.to_string(),
                format!("{seed}"),
                "alarm (healthy)".to_string(),
                format!("{}", healthy_avail.restarts),
                format!("{}", healthy_avail.crashes),
                format!("{}", healthy_report.machine_alarms().count()),
                format!("{:.2}", healthy_avail.downtime_secs / HOUR),
                format!("{:.4}", healthy_avail.mean_availability),
                format!("{:.4}", healthy_avail.min_availability),
            ]);
            healthy_false_restarts += healthy_avail.restarts;
            let false_alarm_budget = (machines as f64 * horizon / (24.0 * HOUR)).ceil() as u64;
            if healthy_avail.restarts > false_alarm_budget
                || healthy_avail.crashes != 0
                || healthy_avail.mean_availability < 0.999
            {
                println!("{table}");
                return Err(aging_timeseries::Error::invalid(
                    "e18",
                    format!(
                        "{family} seed {seed}: healthy controls drew {} restart(s) and {} \
                         crash(es) at availability {:.4} under the alarm policy (budget: \
                         <= {false_alarm_budget} restart(s), 0 crashes, >= 0.999)",
                        healthy_avail.restarts,
                        healthy_avail.crashes,
                        healthy_avail.mean_availability
                    ),
                ));
            }

            // Kill-and-recover: journal the closed loop, then replay. The
            // journaled run must decide exactly like the unjournaled one,
            // and recovery must reproduce the full event history — restart
            // events included — byte for byte.
            let _ = std::fs::remove_dir_all(&store_dir);
            let store_cfg = StoreConfig::new(&store_dir);
            let mut cfg = fleet_config(horizon, window, alarm_horizon);
            cfg.rejuv = Some(base);
            cfg.store = Some(store_cfg.clone());
            let journaled = FleetSupervisor::new(cfg)?.run(&fleet)?;
            let recovered = FleetSupervisor::recover_events(&store_cfg)?;
            let _ = std::fs::remove_dir_all(&store_dir);
            let alarm_report = alarm_report.ok_or_else(|| {
                aging_timeseries::Error::invalid("e18", "alarm-driven run missing from the matrix")
            })?;
            if journaled.decisions != alarm_report.decisions {
                return Err(aging_timeseries::Error::invalid(
                    "e18",
                    format!(
                        "{family} seed {seed}: journaling changed the restart decisions \
                         ({} vs {})",
                        journaled.decisions.len(),
                        alarm_report.decisions.len()
                    ),
                ));
            }
            if recovered != journaled.events {
                return Err(aging_timeseries::Error::invalid(
                    "e18",
                    format!(
                        "{family} seed {seed}: recovery replayed {} event(s), run produced {} \
                         — the histories must be byte-identical",
                        recovered.len(),
                        journaled.events.len()
                    ),
                ));
            }
        }
    }
    println!("{table}");
    println!(
        "availability gate held on {} (family, seed) cells: alarm-driven beats periodic by \
         >= {alarm_vs_periodic_min:+.4} and no-op by >= {alarm_vs_noop_min:+.4} \
         (alarm-driven mean availability >= {alarm_avail_min:.4})",
        2 * seeds.len()
    );
    println!(
        "budgets held: {healthy_false_restarts} false restart(s) on healthy controls \
         (budget: one per machine-day); no-op alarm lead >= {lead_time_min:.0} s on >= 3/4 \
         of first crashes; journaled decisions and recovered histories byte-identical"
    );
    trajectory::record("alarm_vs_periodic_min", alarm_vs_periodic_min);
    trajectory::record("alarm_vs_noop_min", alarm_vs_noop_min);
    trajectory::record("alarm_avail_min", alarm_avail_min);
    trajectory::record("lead_time_min_secs", lead_time_min);
    trajectory::record("healthy_false_restarts", healthy_false_restarts as f64);
    if let Some(dir) = out {
        table.write_csv(&dir.join("e18_rejuvenation.csv"))?;
    }
    Ok(())
}

/// Runs one experiment by id, appending its perf trajectory entry
/// (`BENCH_<id>.json` under `out`) when the run succeeds: wall-clock
/// seconds for every experiment, plus whatever domain metrics the
/// experiment [`trajectory::record`]ed while it ran.
///
/// # Errors
///
/// Propagates the experiment's failures; unknown ids are an
/// `InvalidParameter` error.
pub fn run_experiment(id: &str, quick: bool, out: Option<&Path>) -> Result<()> {
    run_experiment_with(id, quick, out, true)
}

/// [`run_experiment`] with the trajectory append switchable: quick/dev
/// probe runs pass `trajectory = false` (`repro --no-trajectory`) so
/// they don't pollute the committed `BENCH_<id>.json` histories with
/// stray entries. CSV outputs under `out` are unaffected.
///
/// # Errors
///
/// Propagates the experiment's failures; unknown ids are an
/// `InvalidParameter` error.
pub fn run_experiment_with(
    id: &str,
    quick: bool,
    out: Option<&Path>,
    trajectory: bool,
) -> Result<()> {
    // Clear any metrics a previously failed experiment left behind on
    // this thread — they belong to that run, not this one.
    let _ = trajectory::take_metrics();
    let started = std::time::Instant::now();
    let result = dispatch_experiment(id, quick, out);
    let mut metrics = trajectory::take_metrics();
    if result.is_ok() {
        if let Some(dir) = out {
            metrics.insert("wall_secs".to_string(), started.elapsed().as_secs_f64());
            let path = trajectory::append_if(dir, id, quick, metrics, trajectory)
                .map_err(|e| aging_timeseries::Error::Io(format!("bench trajectory: {e}")))?;
            match path {
                Some(p) => println!("trajectory entry appended to {}", p.display()),
                None => println!("trajectory append skipped (--no-trajectory)"),
            }
        }
    }
    result
}

fn dispatch_experiment(id: &str, quick: bool, out: Option<&Path>) -> Result<()> {
    match id {
        "e1" => e1(quick, out),
        "e2" => e2(quick, out),
        "e3" => e3(quick, out),
        "e4" => e4(quick, out),
        "e5" => e5(quick, out),
        "e6" => e6(quick, out),
        "e7" => e7(quick, out),
        "e8" => e8(quick, out),
        "e9" => e9(quick, out),
        "e10" => e10(quick, out),
        "e11" => e11(quick, out),
        "e12" => e12(quick, out),
        "e13" => e13(quick, out),
        "e14" => e14(quick, out),
        "e15" => e15(quick, out),
        "e16" => e16(quick, out),
        "e17" => e17(quick, out),
        "e18" => e18(quick, out),
        other => Err(aging_timeseries::Error::invalid(
            "experiment",
            format!("unknown experiment `{other}` (expected e1..e18)"),
        )),
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_error() {
        assert!(run_experiment("e99", true, None).is_err());
    }

    #[test]
    fn predictor_specs_cover_both_directions() {
        assert_eq!(predictor_specs(Counter::AvailableBytes).len(), 5);
        assert_eq!(predictor_specs(Counter::UsedSwapBytes).len(), 5);
    }

    #[test]
    fn trend_configs_validate() {
        trend_available().validate().unwrap();
        trend_swap().validate().unwrap();
    }
}
