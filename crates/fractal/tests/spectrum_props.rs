//! Property tests for the streaming multifractal spectrum: the
//! bounded-memory [`StreamingSpectrum`] must be **bit-identical** to the
//! offline [`spectrum_trace`] reference on every emitted window — for
//! scalar pushes, for `push_slice` at chunk cuts {1, 2, 7} (with the
//! internal state probed past the slice boundary), and across pool
//! sizes {1, 2, 7} — and to a from-scratch [`spectrum_in`] on each
//! window. All inputs are built from generated scalars (fBm traces
//! parameterized by Hurst exponent and seed).

use aging_fractal::generate;
use aging_fractal::spectrum::{
    spectrum_in, spectrum_trace_in, SpectrumConfig, SpectrumWindow, StreamingSpectrum,
};
use aging_par::Pool;
use proptest::prelude::*;

fn config(window: usize, stride: usize) -> SpectrumConfig {
    SpectrumConfig {
        window,
        stride,
        ..SpectrumConfig::default()
    }
}

fn trace(len: usize, hurst_pct: u8, seed: u64) -> Vec<f64> {
    // hurst_pct in 20..=90 keeps fBm well-conditioned.
    let hurst = f64::from(hurst_pct) / 100.0;
    generate::fbm(len, hurst, seed).expect("fbm generation")
}

fn assert_windows_bit_equal(a: &[SpectrumWindow], b: &[SpectrumWindow]) {
    prop_assert_eq!(a.len(), b.len(), "emission count diverged");
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.input_index, y.input_index);
        prop_assert_eq!(x.alpha_min.to_bits(), y.alpha_min.to_bits());
        prop_assert_eq!(x.alpha_max.to_bits(), y.alpha_max.to_bits());
        prop_assert_eq!(x.delta_alpha.to_bits(), y.delta_alpha.to_bits());
    }
}

fn stream_scalar(cfg: &SpectrumConfig, data: &[f64], pool: &Pool) -> Vec<SpectrumWindow> {
    let mut streaming = StreamingSpectrum::new(cfg).expect("streaming estimator");
    let mut windows = Vec::new();
    for &v in data {
        if let Some(w) = streaming.push_in(v, pool).expect("finite sample") {
            windows.push(w);
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scalar streaming == offline batch trace, bit for bit.
    #[test]
    fn streaming_matches_batch_trace(
        window_step in 0usize..3,
        stride in 16usize..64,
        extra in 0usize..160,
        hurst_pct in 20u8..=90,
        seed in 0u64..1024,
    ) {
        let window = 128 + 16 * window_step;
        let cfg = config(window, stride.min(window));
        let data = trace(window + extra, hurst_pct, seed);
        let pool = Pool::new(1);
        let batch = spectrum_trace_in(&data, &cfg, &pool).expect("batch trace");
        let streamed = stream_scalar(&cfg, &data, &pool);
        assert_windows_bit_equal(&batch, &streamed);
    }

    /// `push_slice` at fixed chunk cuts {1, 2, 7} == scalar pushes, and
    /// the internal state agrees afterwards: both estimators keep
    /// emitting identical windows when driven past the slice boundary.
    #[test]
    fn chunked_pushes_match_scalar_and_state_survives(
        stride in 16usize..64,
        extra in 0usize..128,
        hurst_pct in 20u8..=90,
        seed in 0u64..1024,
    ) {
        let window = 128usize;
        let cfg = config(window, stride.min(window));
        let data = trace(window + extra, hurst_pct, seed);
        let probes = trace(2 * window, hurst_pct.wrapping_add(7).clamp(20, 90), seed ^ 0x5eed);
        let pool = Pool::new(1);

        let mut scalar = StreamingSpectrum::new(&cfg).expect("scalar estimator");
        let mut scalar_windows = Vec::new();
        for &v in &data {
            if let Some(w) = scalar.push_in(v, &pool).expect("finite sample") {
                scalar_windows.push(w);
            }
        }

        for chunk in [1usize, 2, 7] {
            let mut sliced = StreamingSpectrum::new(&cfg).expect("sliced estimator");
            let mut windows = Vec::new();
            let mut out = Vec::new();
            for piece in data.chunks(chunk) {
                sliced.push_slice_in(piece, &mut out, &pool).expect("finite samples");
                windows.append(&mut out);
            }
            assert_windows_bit_equal(&scalar_windows, &windows);
            prop_assert_eq!(scalar.samples_seen(), sliced.samples_seen());

            // Post-slice state probe: a fresh scalar twin continues from
            // the same prefix; the sliced estimator must track it.
            let mut twin = StreamingSpectrum::new(&cfg).expect("twin estimator");
            for &v in &data {
                let _ = twin.push_in(v, &pool).expect("finite sample");
            }
            for &v in &probes {
                let a = twin.push_in(v, &pool).expect("finite probe");
                let b = sliced.push_in(v, &pool).expect("finite probe");
                match (a, b) {
                    (Some(x), Some(y)) => assert_windows_bit_equal(&[x], &[y]),
                    (None, None) => {}
                    _ => panic!("post-slice emission phase diverged"),
                }
            }
        }
    }

    /// Every emission equals a from-scratch [`spectrum_in`] on its
    /// window, bit for bit: streaming output has no drift to bound.
    #[test]
    fn every_emission_equals_spectrum_in_bitwise(
        stride in 16usize..48,
        slides in 8usize..40,
        hurst_pct in 20u8..=90,
        seed in 0u64..1024,
    ) {
        let window = 128usize;
        let cfg = config(window, stride);
        let data = trace(window + stride * slides, hurst_pct, seed);
        let pool = Pool::new(1);
        let streamed = stream_scalar(&cfg, &data, &pool);
        prop_assert_eq!(streamed.len(), slides + 1, "one emission per stride");

        for w in &streamed {
            let end = w.input_index as usize + 1;
            let naive =
                spectrum_in(&data[end - window..end], &cfg.qs, &pool).expect("naive window");
            prop_assert_eq!(w.alpha_min.to_bits(), naive.alpha_min.to_bits());
            prop_assert_eq!(w.alpha_max.to_bits(), naive.alpha_max.to_bits());
            prop_assert_eq!(w.delta_alpha.to_bits(), naive.delta_alpha.to_bits());
        }
    }

    /// Pool sizes {1, 2, 7} produce bit-identical emissions: the q-sweep
    /// merge is order-deterministic regardless of worker count.
    #[test]
    fn pool_sizes_are_bit_identical(
        stride in 16usize..64,
        extra in 0usize..128,
        hurst_pct in 20u8..=90,
        seed in 0u64..1024,
    ) {
        let window = 128usize;
        let cfg = config(window, stride.min(window));
        let data = trace(window + extra, hurst_pct, seed);
        let reference = stream_scalar(&cfg, &data, &Pool::new(1));
        for threads in [2usize, 7] {
            let other = stream_scalar(&cfg, &data, &Pool::new(threads));
            assert_windows_bit_equal(&reference, &other);
        }
    }
}
