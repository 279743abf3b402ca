//! Allocation-regression guard for the steady-state ingest hot paths.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warmup that establishes every ring, scratch buffer, and refit arena,
//! the hot loops below must perform **zero** heap allocations:
//!
//! - `MachinePipeline::ingest_column` on a trend-family detector (the
//!   e14 columnar serving path), including the sorted-window updates and
//!   the Mann–Kendall and Sen-slope refits,
//! - `MachinePipeline::ingest_column` on the Hölder + trend stack over
//!   one counter, every column through the slice path,
//! - `HolderDimensionDetector::push` once its baseline has frozen,
//!   emissions included — and the push that freezes it must free the
//!   baseline formation buffers,
//! - `HolderDimensionDetector::push` right after `restore_state` and
//!   right after `reset`, emissions included: the lag ladder and the
//!   box-counting grid come from the config, never from the state blob,
//!   and a reset keeps them,
//! - `StreamingHolder::push` including emissions,
//! - `StreamingDimension::push` (both window methods) including
//!   emissions,
//! - `StreamingSpectrum::push_in` between emissions (emissions
//!   themselves go through the pool's `try_map_indexed`, which returns
//!   its results in a fresh `Vec` — that per-emission cost is bounded by
//!   `repro e19`, not by this guard).
//!
//! Everything runs in ONE `#[test]` so no concurrent test can pollute
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use aging_core::baseline::{AgingPredictor, SenSlopePredictor, TrendPredictorConfig};
use aging_core::detector::{analyze, DetectorConfig, HolderDimensionDetector};
use aging_core::fusion::FusionRule;
use aging_fractal::spectrum::{SpectrumConfig, StreamingSpectrum};
use aging_fractal::streaming::{StreamingDimension, StreamingHolder, WindowDimension};
use aging_memsim::Counter;
use aging_par::Pool;
use aging_stream::pipeline::{CounterDetector, MachinePipeline, PipelineEvent};
use aging_stream::{DetectorSpec, GateConfig};
use aging_timeseries::persist::Reader;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Net heap bytes allocated by tracked code (allocations minus frees).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Counting is gated per thread so the libtest harness (which keeps
    /// its own threads alive alongside the test body) cannot charge its
    /// bookkeeping allocations to a measured window. The `const` init
    /// keeps the TLS access itself allocation-free, and `try_with`
    /// tolerates allocator calls during thread teardown.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

fn tracking() -> bool {
    TRACK.try_with(Cell::get).unwrap_or(false)
}

/// Charges one allocator call that changes the live heap by `delta` bytes.
fn charge(calls: u64, delta: i64) {
    if tracking() {
        ALLOCATIONS.fetch_add(calls, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns how many
/// allocator calls (alloc / alloc_zeroed / realloc) it performed.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (calls, _, out) = counted_bytes(f);
    (calls, out)
}

/// [`counted`], also returning the net change of the live heap in bytes.
fn counted_bytes<R>(f: impl FnOnce() -> R) -> (u64, i64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes_before = LIVE_BYTES.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes_before,
        out,
    )
}

/// Deterministic rough noise in [-1, 1] (splitmix-style LCG) — enough
/// variation that every estimator stays off its degenerate paths.
fn noise(n: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// e14-style trend pipeline: columnar steady-state ingest must not
/// allocate once the gate runs, refit arena and event vec are warm —
/// Mann–Kendall refits, sorted-window updates and Sen-slope refits alike.
fn trend_pipeline_stays_allocation_free() {
    let config = TrendPredictorConfig {
        window: 64,
        refit_every: 4,
        alarm_horizon_secs: 1e6,
        ..TrendPredictorConfig::depleting(5.0)
    };
    let detectors = [CounterDetector {
        counter: Counter::AvailableBytes,
        spec: DetectorSpec::Trend(config.clone()),
    }];
    let gate = GateConfig {
        nominal_period_secs: 5.0,
        ..GateConfig::default()
    };
    let mut pipeline = MachinePipeline::new(&detectors, FusionRule::Any, gate).unwrap();
    let mut out: Vec<PipelineEvent> = Vec::with_capacity(64);

    // A noisy decline of 20 B/s from 1 GB: Mann–Kendall reports a
    // significant decrease, so every refit runs Sen's slope, yet the
    // ETA (~5e7 s) stays beyond the 1e6 s horizon and no alert is ever
    // pushed into `out`. The noise has ties and keeps the slopes varied.
    let wiggle = noise(64 * 24);
    let column = |start: usize| decline_column(&wiggle, start);

    // Warmup: fill the 64-sample window and run many refits (every 4
    // samples), sizing the Sen-slope arena and the column scratch.
    let mut fed = 0usize;
    for _ in 0..16 {
        let (times, values) = column(fed);
        pipeline.ingest_column(Counter::AvailableBytes, &times, &values, &mut out);
        fed += 64;
    }

    let measured: Vec<(Vec<f64>, Vec<f64>)> = (0..8).map(|c| column(fed + 64 * c)).collect();
    let (delta, ()) = counted(|| {
        for (times, values) in &measured {
            pipeline.ingest_column(Counter::AvailableBytes, times, values, &mut out);
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state ingest_column allocated {delta} times"
    );
    assert!(out.is_empty(), "unexpected pipeline events: {out:?}");

    // The same values through a bare detector: an ETA proves the refits
    // above reached Sen's slope.
    let mut trend = SenSlopePredictor::new(config).unwrap();
    for c in 0..fed / 64 + measured.len() {
        let (_, values) = column(64 * c);
        trend.push_slice(&values).unwrap();
    }
    assert!(trend.eta_secs().is_some(), "the Sen-slope path never ran");
}

/// The noisy slow decline of the trend case, as `(times, values)` for the
/// 64 samples from `start`: Mann–Kendall finds a significant decrease, so
/// every trend refit runs Sen's slope, yet the ETA (~5e7 s) stays beyond
/// the 1e6 s horizon, and the regularity never changes.
fn decline_column(wiggle: &[f64], start: usize) -> (Vec<f64>, Vec<f64>) {
    let times = (0..64).map(|k| 5.0 * (start + k) as f64).collect();
    let values = (start..start + 64)
        .map(|i| 1e9 - 100.0 * i as f64 + (wiggle[i] * 150.0).round())
        .collect();
    (times, values)
}

/// The paper stack's Hölder and trend detectors on one counter: every
/// column takes the slice path, which must stay allocation-free once the
/// Hölder baseline has frozen and the refit arena is sized.
fn holder_trend_pipeline_stays_allocation_free() {
    let detectors = [
        CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Holder(DetectorConfig::default()),
        },
        CounterDetector {
            counter: Counter::AvailableBytes,
            spec: DetectorSpec::Trend(TrendPredictorConfig {
                window: 120,
                refit_every: 8,
                alarm_horizon_secs: 1e6,
                ..TrendPredictorConfig::depleting(5.0)
            }),
        },
    ];
    let gate = GateConfig {
        nominal_period_secs: 5.0,
        ..GateConfig::default()
    };
    let mut pipeline = MachinePipeline::new(&detectors, FusionRule::Any, gate).unwrap();
    let mut out: Vec<PipelineEvent> = Vec::with_capacity(64);
    let wiggle = noise(64 * 24);

    // Warmup: 448 samples put the default Hölder detector past its
    // baseline; 640 also run many trend refits.
    let mut fed = 0usize;
    for _ in 0..10 {
        let (times, values) = decline_column(&wiggle, fed);
        pipeline.ingest_column(Counter::AvailableBytes, &times, &values, &mut out);
        fed += 64;
    }

    let measured: Vec<(Vec<f64>, Vec<f64>)> = (0..8)
        .map(|c| decline_column(&wiggle, fed + 64 * c))
        .collect();
    let (delta, ()) = counted(|| {
        for (times, values) in &measured {
            pipeline.ingest_column(Counter::AvailableBytes, times, values, &mut out);
        }
    });
    assert_eq!(
        delta, 0,
        "Hölder + trend ingest_column allocated {delta} times"
    );
    assert!(out.is_empty(), "unexpected pipeline events: {out:?}");
    assert_eq!(pipeline.detector_errors(), 0);
}

/// The Hölder-family detector frees its baseline formation buffers when
/// the baseline freezes, and allocates nothing per emission after.
fn holder_detector_after_baseline_stays_allocation_free() {
    let config = DetectorConfig::default();
    let mut det = HolderDimensionDetector::new(config.clone()).unwrap();
    let data: Vec<f64> = noise(1200).iter().map(|v| 1e6 + 4096.0 * v).collect();
    let mut fed = 0;
    while det.baseline().is_none() {
        let (_, freed, _) = counted_bytes(|| det.push(data[fed]).unwrap());
        fed += 1;
        if det.baseline().is_some() {
            // Two formation buffers of `baseline_windows` f64 each.
            let formation = 2 * 8 * config.baseline_windows as i64;
            assert!(
                freed <= -formation,
                "the freezing push left {freed} net bytes, wanted <= -{formation}"
            );
        }
    }

    let measured = &data[fed..];
    let (delta, ()) = counted(|| {
        for &v in measured {
            det.push(v).unwrap();
        }
    });
    assert_eq!(
        delta, 0,
        "HolderDimensionDetector push allocated {delta} times"
    );
    assert!(
        measured.len() >= 8 * config.dimension_stride,
        "the measured pushes must span several emissions"
    );
}

/// A restored or reset Hölder detector builds its lag ladder and
/// box-counting grid from its config, never from the state blob, so its
/// emissions right after `restore_state` and right after `reset` allocate
/// nothing, as after warm-up.
fn holder_detector_after_restore_and_reset_stays_allocation_free() {
    let config = DetectorConfig {
        skip_windows: 6,
        ..DetectorConfig::default()
    };
    let data: Vec<f64> = noise(1600).iter().map(|v| 1e6 + 4096.0 * v).collect();
    let mut det = HolderDimensionDetector::new(config.clone()).unwrap();
    let mut fed = 0;
    while det.baseline().is_none() {
        det.push(data[fed]).unwrap();
        fed += 1;
    }
    let mut blob = Vec::new();
    det.encode_state(&mut blob);

    // Restored with full rings: every stride of pushes emits.
    let mut restored = HolderDimensionDetector::new(config.clone()).unwrap();
    restored.restore_state(&mut Reader::new(&blob)).unwrap();
    let measured = &data[fed..fed + 4 * config.dimension_stride];
    let (delta, ()) = counted(|| {
        for &v in measured {
            restored.push(v).unwrap();
        }
    });
    assert_eq!(
        delta, 0,
        "HolderDimensionDetector push after restore_state allocated {delta} times"
    );
    for &v in measured {
        det.push(v).unwrap();
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    det.encode_state(&mut a);
    restored.encode_state(&mut b);
    assert_eq!(a, b, "the restored detector diverged from its source");

    // Reset: the rings refill and the skipped warm-up windows emit,
    // before baseline formation starts buffering.
    restored.reset();
    let quiet = &data[..2 * config.holder_radius
        + config.dimension_window
        + (config.skip_windows - 1) * config.dimension_stride];
    let (delta, ()) = counted(|| {
        for &v in quiet {
            restored.push(v).unwrap();
        }
    });
    assert_eq!(
        delta, 0,
        "HolderDimensionDetector push after reset allocated {delta} times"
    );
    let emitted = analyze(quiet, &config).unwrap().dimension_trace.len();
    assert_eq!(emitted, config.skip_windows, "the reset detector must emit");
}

/// Streaming Hölder pushes — including per-push emissions once the ring
/// is full — must not allocate.
fn streaming_holder_stays_allocation_free() {
    let mut holder = StreamingHolder::new(32, 8, 2.0).unwrap();
    let data = noise(392);
    let (warmup, measured) = data.split_at(136);
    for &v in warmup {
        holder.push(v).unwrap();
    }

    let (delta, emissions) = counted(|| {
        let mut emissions = 0usize;
        for &v in measured {
            if holder.push(v).unwrap().is_some() {
                emissions += 1;
            }
        }
        emissions
    });
    assert_eq!(delta, 0, "StreamingHolder push allocated {delta} times");
    assert_eq!(emissions, measured.len(), "ring was full, every push emits");
}

/// Streaming dimension pushes — including windowed emissions — must not
/// allocate for either window method.
fn streaming_dimension_stays_allocation_free(method: WindowDimension) {
    let mut dim = StreamingDimension::new(method, 64, 16).unwrap();
    let data = noise(384);
    let (warmup, measured) = data.split_at(128);
    for &v in warmup {
        dim.push(v).unwrap();
    }

    let (delta, emissions) = counted(|| {
        let mut emissions = 0usize;
        for &v in measured {
            if dim.push(v).unwrap().is_some() {
                emissions += 1;
            }
        }
        emissions
    });
    assert_eq!(
        delta, 0,
        "StreamingDimension({method:?}) allocated {delta} times"
    );
    assert_eq!(emissions, measured.len() / 16, "one emission per stride");
}

/// Streaming spectrum pushes between emissions must not allocate (the
/// emission itself pays one pool fan-out, gated by `repro e19`).
fn streaming_spectrum_between_emissions_stays_allocation_free() {
    let config = SpectrumConfig::default();
    let (window, stride) = (config.window, config.stride);
    let mut spectrum = StreamingSpectrum::new(&config).unwrap();
    let pool = Pool::new(1);
    let data = noise(window + stride);

    // Warmup through the first emission so ring + kernel are built.
    for &v in &data[..window] {
        spectrum.push_in(v, &pool).unwrap();
    }

    let (delta, ()) = counted(|| {
        for &v in &data[window..window + stride - 1] {
            let emitted = spectrum.push_in(v, &pool).unwrap();
            assert!(emitted.is_none(), "mid-stride push must not emit");
        }
    });
    assert_eq!(
        delta, 0,
        "non-emitting spectrum push allocated {delta} times"
    );

    // The next push completes the stride and emits again.
    let emitted = spectrum.push_in(data[window + stride - 1], &pool).unwrap();
    assert!(emitted.is_some(), "stride-completing push must emit");
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    trend_pipeline_stays_allocation_free();
    holder_trend_pipeline_stays_allocation_free();
    holder_detector_after_baseline_stays_allocation_free();
    holder_detector_after_restore_and_reset_stays_allocation_free();
    streaming_holder_stays_allocation_free();
    streaming_dimension_stays_allocation_free(WindowDimension::BoxCounting);
    streaming_dimension_stays_allocation_free(WindowDimension::Variation);
    streaming_spectrum_between_emissions_stays_allocation_free();
}
