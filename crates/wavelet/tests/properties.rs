//! Property-based tests for wavelet transform invariants.

use aging_wavelet::{dwt, modwt, Wavelet, WaveletLeaders};
use proptest::prelude::*;

fn signal_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len..=len)
}

fn any_wavelet() -> impl Strategy<Value = Wavelet> {
    prop::sample::select(Wavelet::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dwt_perfect_reconstruction(signal in signal_strategy(64), w in any_wavelet()) {
        let dec = dwt(&signal, w, 3).unwrap();
        let back = dec.reconstruct().unwrap();
        let scale = signal.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in signal.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn dwt_parseval(signal in signal_strategy(64), w in any_wavelet()) {
        let e0: f64 = signal.iter().map(|v| v * v).sum();
        let dec = dwt(&signal, w, 3).unwrap();
        prop_assert!((dec.energy() - e0).abs() < 1e-8 * e0.max(1.0));
    }

    #[test]
    fn dwt_linearity(a in signal_strategy(32), b in signal_strategy(32), w in any_wavelet()) {
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let da = dwt(&a, w, 2).unwrap();
        let db = dwt(&b, w, 2).unwrap();
        let ds = dwt(&sum, w, 2).unwrap();
        let scale = sum.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for level in 1..=2 {
            for ((x, y), z) in da.detail(level).iter().zip(db.detail(level)).zip(ds.detail(level)) {
                prop_assert!((x + y - z).abs() < 1e-9 * scale);
            }
        }
    }

    #[test]
    fn modwt_perfect_reconstruction(signal in prop::collection::vec(-100.0f64..100.0, 8..120), w in any_wavelet()) {
        // Keep the filter span valid for this length.
        let span_ok = |lv: usize| ((1usize << lv) - 1) * (w.filter_len() - 1) < signal.len();
        let levels = (1..=3).rev().find(|&lv| span_ok(lv));
        prop_assume!(levels.is_some());
        let dec = modwt(&signal, w, levels.unwrap()).unwrap();
        let back = dec.reconstruct();
        let scale = signal.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in signal.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn modwt_energy_preserved(signal in signal_strategy(80), w in any_wavelet()) {
        let e0: f64 = signal.iter().map(|v| v * v).sum();
        let dec = modwt(&signal, w, 2).unwrap();
        prop_assert!((dec.energy() - e0).abs() < 1e-8 * e0.max(1.0));
    }

    #[test]
    fn modwt_shift_equivariance(signal in signal_strategy(64), shift in 0usize..64) {
        let mut shifted = signal.clone();
        shifted.rotate_right(shift);
        let a = modwt(&signal, Wavelet::Daubechies4, 2).unwrap();
        let b = modwt(&shifted, Wavelet::Daubechies4, 2).unwrap();
        let mut expect = a.detail(1).to_vec();
        expect.rotate_right(shift);
        let scale = signal.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (x, y) in expect.iter().zip(b.detail(1)) {
            prop_assert!((x - y).abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn leaders_nonnegative_and_monotone(signal in signal_strategy(64), w in any_wavelet()) {
        let lead = WaveletLeaders::compute(&signal, w, 4).unwrap();
        for t in 0..64 {
            let mut prev = -1.0;
            for j in 1..=lead.levels() {
                let l = lead.at_time(j, t);
                prop_assert!(l >= 0.0);
                prop_assert!(l >= prev - 1e-12, "leader shrank at t={t} j={j}");
                prev = l;
            }
        }
    }

    #[test]
    fn denoise_output_length_matches_prefix(signal in signal_strategy(300)) {
        // 300 → prefix 296 for 3 levels.
        match aging_wavelet::denoise::denoise(
            &signal,
            Wavelet::Haar,
            3,
            aging_wavelet::denoise::Shrinkage::Soft,
        ) {
            Ok(out) => {
                prop_assert_eq!(out.signal.len(), 296);
                prop_assert!(out.noise_sigma > 0.0);
                prop_assert!((0.0..=1.0).contains(&out.kill_fraction));
            }
            Err(_) => {
                // Constant-ish finest band: legitimate failure.
            }
        }
    }

    #[test]
    fn leaders_scale_equivariant(signal in signal_strategy(64), k in 0.1f64..50.0) {
        // Scaling the signal by k scales every leader by |k|.
        let scaled: Vec<f64> = signal.iter().map(|v| k * v).collect();
        let a = WaveletLeaders::compute(&signal, Wavelet::Haar, 3).unwrap();
        let b = WaveletLeaders::compute(&scaled, Wavelet::Haar, 3).unwrap();
        for j in 1..=3 {
            for (x, y) in a.band(j).iter().zip(b.band(j)) {
                prop_assert!((k * x - y).abs() < 1e-9 * (1.0 + k * x.abs()));
            }
        }
    }
}
