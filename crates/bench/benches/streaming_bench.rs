//! Streaming-kernel benchmarks: the bounded-memory online detector
//! against the naive alternative of replaying the whole history through a
//! fresh detector on every new sample.
//!
//! The streaming detector does O(window) work per sample; the
//! re-run-from-scratch baseline does O(history × window), so at a
//! dimension window of 512 the amortized per-sample throughput gap is
//! well over an order of magnitude (the `streaming-throughput` test in
//! this file's sibling experiment, `repro e11`, asserts the ≥10× floor).

use aging_core::detector::{DetectorConfig, HolderDimensionDetector};
use aging_memsim::{simulate, Counter, Scenario};
use aging_timeseries::trend::{MannKendall, StreamingMannKendall};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn wide_config() -> DetectorConfig {
    DetectorConfig {
        dimension_window: 512,
        dimension_stride: 64,
        ..DetectorConfig::default()
    }
}

fn trace(n_hours: f64) -> Vec<f64> {
    let report = simulate(&Scenario::aging_web_server(9), n_hours * 3600.0).unwrap();
    report
        .log
        .series(Counter::AvailableBytes)
        .unwrap()
        .values()
        .to_vec()
}

fn bench_streaming_vs_rescratch(c: &mut Criterion) {
    // ~1560 samples at the NT4 30 s period.
    let values = trace(13.0);
    let n = values.len();

    let mut group = c.benchmark_group("streaming/window-512");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut det = HolderDimensionDetector::new(wide_config()).unwrap();
            for &v in &values {
                let _ = det.push(std::hint::black_box(v)).unwrap();
            }
            det.is_alarmed()
        })
    });
    group.bench_function("rescratch-per-sample", |b| {
        b.iter(|| {
            // The naive online alternative: no retained state, so every
            // arriving sample replays the whole history through a fresh
            // detector.
            let mut alarmed = false;
            for i in 1..=n {
                let mut det = HolderDimensionDetector::new(wide_config()).unwrap();
                for &v in &values[..i] {
                    let _ = det.push(std::hint::black_box(v)).unwrap();
                }
                alarmed = det.is_alarmed();
            }
            alarmed
        })
    });
    group.finish();
}

fn bench_streaming_mann_kendall(c: &mut Criterion) {
    let values = trace(13.0);
    let n = values.len();
    let window = 512;

    let mut group = c.benchmark_group("streaming/mann-kendall-512");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("incremental-s", |b| {
        b.iter(|| {
            let mut mk = StreamingMannKendall::new(window).unwrap();
            let mut last = 0i64;
            for &v in &values {
                mk.push(std::hint::black_box(v)).unwrap();
                last = mk.s();
            }
            last
        })
    });
    group.bench_function("recompute-window", |b| {
        b.iter(|| {
            // O(window²) recomputation on every slide.
            let mut last = 0i64;
            for i in window..=n {
                let mk = MannKendall::test(&values[i - window..i]).unwrap();
                last = mk.s;
            }
            last
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_streaming_vs_rescratch,
    bench_streaming_mann_kendall
);
criterion_main!(benches);
