//! Property-based tests for `aging-timeseries` invariants.

use aging_timeseries::{
    interp,
    regression::{self, ols, theil_sen},
    stats,
    trend::{MannKendall, SenSlope},
    window::{dyadic_scales, SlidingWindows},
    TimeSeries,
};
use proptest::prelude::*;

/// Strategy: a vector of "reasonable" finite floats.
fn finite_vec(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6f64, min_len..=max_len)
}

proptest! {
    #[test]
    fn mean_is_within_min_max(data in finite_vec(1, 200)) {
        let m = stats::mean(&data).unwrap();
        let lo = stats::min(&data).unwrap();
        let hi = stats::max(&data).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_nonnegative(data in finite_vec(2, 200)) {
        prop_assert!(stats::variance(&data).unwrap() >= 0.0);
    }

    #[test]
    fn quantiles_monotone(data in finite_vec(1, 100), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let qa = stats::quantile(&data, lo).unwrap();
        let qb = stats::quantile(&data, hi).unwrap();
        prop_assert!(qa <= qb + 1e-9);
    }

    #[test]
    fn ols_residuals_orthogonal_to_x(data in finite_vec(3, 100)) {
        let x: Vec<f64> = (0..data.len()).map(|i| i as f64).collect();
        let fit = ols(&x, &data).unwrap();
        // Σ residual = 0 and Σ residual·x = 0 (normal equations).
        let resid: Vec<f64> = x.iter().zip(&data).map(|(&a, &b)| b - fit.predict(a)).collect();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        let s: f64 = resid.iter().sum();
        let sx: f64 = resid.iter().zip(&x).map(|(r, &a)| r * a).sum();
        prop_assert!(s.abs() <= 1e-6 * scale * data.len() as f64);
        prop_assert!(sx.abs() <= 1e-6 * scale * (data.len() * data.len()) as f64);
    }

    #[test]
    fn theil_sen_equivariance_under_scaling(data in finite_vec(3, 60), k in 0.1f64..10.0) {
        let x: Vec<f64> = (0..data.len()).map(|i| i as f64).collect();
        let base = theil_sen(&x, &data).unwrap();
        let scaled: Vec<f64> = data.iter().map(|v| k * v).collect();
        let s = theil_sen(&x, &scaled).unwrap();
        prop_assert!((s.slope - k * base.slope).abs() < 1e-6 * (1.0 + base.slope.abs()) * k);
    }

    #[test]
    fn mann_kendall_antisymmetric(data in finite_vec(4, 80)) {
        let neg: Vec<f64> = data.iter().map(|v| -v).collect();
        let a = MannKendall::test(&data).unwrap();
        let b = MannKendall::test(&neg).unwrap();
        prop_assert_eq!(a.s, -b.s);
        prop_assert!((a.var_s - b.var_s).abs() < 1e-9 * a.var_s.max(1.0));
    }

    #[test]
    fn mann_kendall_invariant_under_monotone_map(data in finite_vec(4, 60)) {
        // exp is strictly increasing; S depends only on pairwise order.
        let mapped: Vec<f64> = data.iter().map(|v| (v / 1e6).exp()).collect();
        let a = MannKendall::test(&data).unwrap();
        let b = MannKendall::test(&mapped).unwrap();
        prop_assert_eq!(a.s, b.s);
    }

    #[test]
    fn sen_slope_shift_invariant(data in finite_vec(2, 60), shift in -1e5f64..1e5) {
        let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
        let a = SenSlope::estimate(&data, 1.0).unwrap();
        let b = SenSlope::estimate(&shifted, 1.0).unwrap();
        prop_assert!((a.slope - b.slope).abs() < 1e-9 * (1.0 + a.slope.abs()));
    }

    #[test]
    fn fill_gaps_leaves_valid_samples(
        data in finite_vec(2, 50),
        gap_idx in prop::collection::vec(0usize..50, 0..10),
    ) {
        let mut holed = data.clone();
        for &g in &gap_idx {
            if g < holed.len() {
                holed[g] = f64::NAN;
            }
        }
        // Need at least one valid sample.
        prop_assume!(holed.iter().any(|v| v.is_finite()));
        let reference = holed.clone();
        interp::fill_gaps(&mut holed, interp::FillMethod::Linear).unwrap();
        for (i, (&orig, &filled)) in reference.iter().zip(&holed).enumerate() {
            if orig.is_finite() {
                prop_assert_eq!(orig, filled, "valid sample {} changed", i);
            } else {
                prop_assert!(filled.is_finite(), "gap {} not filled", i);
            }
        }
    }

    #[test]
    fn sliding_windows_cover_exact_count(len in 1usize..300, width in 1usize..50, stride in 1usize..20) {
        let data = vec![0.0; len];
        match SlidingWindows::new(&data, width, stride) {
            Ok(plan) => {
                let expected = plan.count_windows();
                prop_assert_eq!(plan.count(), expected);
                prop_assert_eq!(expected, (len - width) / stride + 1);
            }
            Err(_) => prop_assert!(len < width),
        }
    }

    #[test]
    fn dyadic_scales_fit(n in 4usize..100_000, min_blocks in 1usize..16) {
        if let Ok(scales) = dyadic_scales(n, min_blocks) {
            for s in scales {
                prop_assert!(s * min_blocks <= n);
                prop_assert!(s.is_power_of_two());
            }
        }
    }

    #[test]
    fn series_profile_ends_near_zero(data in finite_vec(1, 200)) {
        let ts = TimeSeries::from_values(0.0, 1.0, data.clone()).unwrap();
        let p = ts.profile().unwrap();
        // Centred cumulative sum always ends at (numerically) zero.
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max) * data.len() as f64;
        prop_assert!(p.values().last().unwrap().abs() <= 1e-9 * scale);
    }

    #[test]
    fn log_log_fit_recovers_exponent(exponent in -2.0f64..2.0, scale in 0.1f64..100.0) {
        let x: Vec<f64> = (1..=32).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| scale * v.powf(exponent)).collect();
        let fit = regression::log_log_fit(&x, &y).unwrap();
        prop_assert!((fit.slope - exponent).abs() < 1e-6);
    }
}

proptest! {
    #[test]
    fn ring_windowed_stats_match_batch_stats(data in finite_vec(2, 160), cap_sel in 0.0f64..1.0) {
        use aging_timeseries::ring::RingBuffer;
        // Capacity anywhere in 2..=len, derived from an independent draw.
        let cap = 2 + (cap_sel * (data.len() - 2) as f64) as usize;
        let mut ring = RingBuffer::new(cap).unwrap();
        for (i, &v) in data.iter().enumerate() {
            ring.push(v);
            // The ring must agree with `stats` on exactly the trailing
            // window at every point in the stream, not just at the end.
            let start = (i + 1).saturating_sub(cap);
            let window = &data[start..=i];
            prop_assert_eq!(ring.to_vec(), window.to_vec());
            let scale = window.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
            let mean = stats::mean(window).unwrap();
            prop_assert!((ring.mean().unwrap() - mean).abs() <= 1e-9 * scale);
            prop_assert_eq!(ring.min().unwrap(), stats::min(window).unwrap());
            prop_assert_eq!(ring.max().unwrap(), stats::max(window).unwrap());
            if window.len() >= 2 {
                let var = stats::variance(window).unwrap();
                prop_assert!(
                    (ring.variance().unwrap() - var).abs() <= 1e-7 * scale * scale.max(1.0),
                    "{} vs {}", ring.variance().unwrap(), var
                );
            }
        }
    }

    #[test]
    fn ring_eviction_returns_stream_prefix(data in finite_vec(2, 160), cap_sel in 0.0f64..1.0) {
        use aging_timeseries::ring::RingBuffer;
        let cap = 2 + (cap_sel * (data.len() - 2) as f64) as usize;
        let mut ring = RingBuffer::new(cap).unwrap();
        let mut evicted = Vec::new();
        for &v in &data {
            if let Some(old) = ring.push(v) {
                evicted.push(old);
            }
        }
        // Evictions replay the stream prefix in arrival order.
        let expect = &data[..data.len().saturating_sub(cap)];
        prop_assert_eq!(evicted, expect.to_vec());
        prop_assert_eq!(ring.len(), data.len().min(cap));
    }
}
