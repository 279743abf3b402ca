//! Pins the persisted `StreamingDetector` state format with committed
//! blobs.
//!
//! `fixtures/detector_state.txt` holds `encode_state` output for a
//! Hölder, a trend and a spectrum detector, each at two points of a fixed
//! input: while its baseline (or trend window) is still forming, and after
//! its alarm has fired. Every blob must restore, re-encode to the same
//! bytes, match the state a fresh run reaches at that point, and continue
//! to the same alerts and final state as an uninterrupted run. A
//! reordered, resized or re-coded field fails here even when a same-build
//! round trip would still pass.
//!
//! The `spectrum-sliding` rows are spectrum states in the layout written
//! while the rolling spectrum slid its moment sums. They must restore and
//! continue like the others, but they re-encode in the current layout,
//! and their baseline and last alert hold widths the sliding kernel
//! computed, which differ from a current run's in the low bits. So the
//! uninterrupted run they are held to is a current run that carries the
//! blob's alarm state from the committed point on.

use aging_core::baseline::TrendPredictorConfig;
use aging_core::detector::{AlertLevel, DetectorConfig};
use aging_fractal::spectrum::StreamingSpectrum;
use aging_stream::detector::{
    DetectorSpec, SpectrumDetectorConfig, StreamAlert, StreamingDetector,
};
use aging_timeseries::persist::Reader;

const FIXTURE: &str = include_str!("fixtures/detector_state.txt");

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A declining sinusoid whose noise roughens sharply after sample 1400.
fn holder_signal() -> Vec<f64> {
    let mut rand = xorshift(0x9e37_79b9_7f4a_7c15);
    (0..2400)
        .map(|i| {
            let t = f64::from(i);
            let noise = (rand() - 0.5) * if i > 1400 { 6000.0 } else { 120.0 };
            1e6 - 30.0 * t + (t * 0.45).sin() * 2048.0 + noise
        })
        .collect()
}

/// A noisy linear depletion toward zero.
fn trend_signal() -> Vec<f64> {
    let mut rand = xorshift(0x2545_f491_4f6c_dd1d);
    (0..1950)
        .map(|i| 2e5 - 100.0 * f64::from(i) + (rand() - 0.5) * 400.0)
        .collect()
}

/// A random walk whose steps turn intermittent after sample 1500.
fn spectrum_signal() -> Vec<f64> {
    let mut rand = xorshift(0x51ce_b00c_5eed_f00d);
    let mut acc = 0.0;
    (0..3000)
        .map(|i| {
            let u = rand() - 0.5;
            acc += if i > 1500 && rand() < 0.08 {
                u * 400.0
            } else {
                u * 8.0
            };
            acc
        })
        .collect()
}

/// The spec and input behind each fixture family.
fn case(family: &str) -> (DetectorSpec, Vec<f64>) {
    match family {
        "holder" => (
            DetectorSpec::Holder(DetectorConfig::default()),
            holder_signal(),
        ),
        "trend" => (
            DetectorSpec::Trend(TrendPredictorConfig {
                window: 120,
                refit_every: 8,
                alarm_horizon_secs: 900.0,
                ..TrendPredictorConfig::depleting(5.0)
            }),
            trend_signal(),
        ),
        "spectrum" => (
            DetectorSpec::Spectrum(SpectrumDetectorConfig::default()),
            spectrum_signal(),
        ),
        other => panic!("unknown fixture family {other}"),
    }
}

fn from_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn encoded(det: &StreamingDetector) -> Vec<u8> {
    let mut blob = Vec::new();
    det.encode_state(&mut blob);
    blob
}

/// Pushes `values`, returning `(offset, alert)` for every alert.
fn run(det: &mut StreamingDetector, values: &[f64]) -> Vec<(usize, StreamAlert)> {
    values
        .iter()
        .enumerate()
        .filter_map(|(k, &v)| det.push(v).unwrap().map(|a| (k, a)))
        .collect()
}

/// `live`, a spectrum detector that has taken `head`, with its alarm
/// state (the discipline, last alert and last width that follow the
/// estimator in the encoding) replaced by `restored`'s.
fn carrying_alarm_state(
    spec: &DetectorSpec,
    live: &StreamingDetector,
    head: &[f64],
    restored: &StreamingDetector,
) -> StreamingDetector {
    let DetectorSpec::Spectrum(cfg) = spec else {
        panic!("only spectrum states have a sliding layout");
    };
    let mut estimator = StreamingSpectrum::new(&cfg.spectrum).unwrap();
    for &v in head {
        estimator.push(v).unwrap();
    }
    let mut estimator_state = Vec::new();
    estimator.encode_state(&mut estimator_state);
    // The family tag, the estimator, then the alarm state.
    let split = 1 + estimator_state.len();
    let mut blob = encoded(live);
    assert_eq!(blob[1..split], estimator_state[..]);
    blob.truncate(split);
    blob.extend_from_slice(&encoded(restored)[split..]);
    let mut twin = StreamingDetector::new(spec).unwrap();
    twin.restore_state(&mut Reader::new(&blob)).unwrap();
    twin
}

#[test]
fn committed_states_restore_reencode_and_resume_identically() {
    let mut checked = Vec::new();
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split_whitespace();
        let row = fields.next().expect("family");
        let (family, sliding) = match row.strip_suffix("-sliding") {
            Some(family) => (family, true),
            None => (row, false),
        };
        let point: usize = fields.next().expect("point").parse().expect("sample count");
        let blob = from_hex(fields.next().expect("state"));
        let (spec, signal) = case(family);
        let at = format!("{row} after {point} samples");

        // The blob restores, and a current-layout blob re-encodes to the
        // same bytes.
        let mut restored = StreamingDetector::new(&spec).unwrap();
        let mut r = Reader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        if !sliding {
            assert_eq!(encoded(&restored), blob, "{at}: re-encoding differs");
        }

        // A fresh run reaches exactly a current-layout blob's state at
        // that point.
        let mut live = StreamingDetector::new(&spec).unwrap();
        let head = run(&mut live, &signal[..point]);
        if sliding {
            live = carrying_alarm_state(&spec, &live, &signal[..point], &restored);
        } else {
            assert_eq!(encoded(&live), blob, "{at}: fresh run's state differs");
        }

        // Both continue to the same alerts and the same final state.
        let tail = &signal[point..];
        let live_alerts = run(&mut live, tail);
        let restored_alerts = run(&mut restored, tail);
        assert_eq!(restored_alerts, live_alerts, "{at}: alerts diverged");
        assert_eq!(
            encoded(&restored),
            encoded(&live),
            "{at}: final state differs"
        );
        assert_eq!(restored.is_alarmed(), live.is_alarmed());

        // The input alarms, either before or after the committed point.
        let alarmed_before = head.iter().any(|(_, a)| a.level == AlertLevel::Alarm);
        assert!(live.is_alarmed(), "{at}: the input must alarm");
        checked.push((row.to_string(), alarmed_before));
    }
    // Every family is pinned both while forming and after its alarm.
    for family in ["holder", "trend", "spectrum", "spectrum-sliding"] {
        for alarmed in [false, true] {
            assert!(
                checked.contains(&(family.to_string(), alarmed)),
                "missing {family} fixture with alarmed={alarmed}"
            );
        }
    }
}
