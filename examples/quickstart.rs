//! Quickstart: simulate an aging machine, run the paper's detector online,
//! and report the warning lead time.
//!
//! Run with: `cargo run --example quickstart`

use holder_aging::prelude::*;

fn main() -> Result<()> {
    // A small machine with a brisk (128 MiB/h) heap leak so the demo
    // finishes in seconds — the machine dies in under an hour of simulated
    // time. `Scenario::aging_web_server` is the paper-scale version.
    let scenario = Scenario::tiny_aging(42, 128.0);
    println!("scenario : {}", scenario.name);
    println!(
        "machine  : {} ({} RAM + {} swap)",
        scenario.machine.name, scenario.machine.ram, scenario.machine.swap
    );

    // Online loop: step the machine to each monitor row and feed it into
    // the streaming detector, exactly as a production agent would.
    let mut machine = Machine::boot(&scenario)?;
    let mut detector = HolderDimensionDetector::new(
        DetectorConfig::builder()
            .holder_radius(16)
            .holder_max_lag(4)
            .dimension_window(64)
            .dimension_stride(8)
            .baseline_windows(6)
            .build()?,
    )?;

    let mut first_alarm: Option<SimTime> = None;
    let crash = loop {
        let sample = match machine.next_sample(12.0 * 3600.0) {
            Tick::Sample(sample) => sample,
            Tick::Crash(crash) => break crash,
            Tick::Horizon => {
                println!("machine survived 12 h — raise the leak rate for a faster demo");
                return Ok(());
            }
        };
        if let Some(alert) = detector.push(sample.available.as_f64())? {
            println!(
                "[{}] {}: dimension {:.3} vs baseline {:.3}, mean h {:.3} (trigger: {:?})",
                machine.now(),
                alert.level,
                alert.dimension,
                alert.dimension_baseline,
                alert.mean_holder,
                alert.trigger,
            );
            if alert.level == AlertLevel::Alarm && first_alarm.is_none() {
                first_alarm = Some(machine.now());
            }
        }
    };

    println!("[{}] CRASH ({})", crash.time, crash.cause);
    match first_alarm {
        Some(t) => {
            let lead = crash.time - t;
            println!(
                "alarm fired {:.1} minutes before the crash — enough to rejuvenate",
                lead / 60.0
            );
        }
        None => println!("no alarm before the crash (tune the detector config)"),
    }
    Ok(())
}
