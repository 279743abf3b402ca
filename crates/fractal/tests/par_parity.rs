//! Parallel/sequential parity: every `*_in` entry point must produce
//! bit-identical results for any pool size. These properties back the
//! determinism contract documented in `aging-par` (see DESIGN.md) — the
//! chunked scheduler merges results in input order and never reorders a
//! floating-point reduction, so equality here is exact (`to_bits`), not
//! approximate.

use aging_fractal::generate;
use aging_fractal::holder::{
    holder_trace_in, HolderEstimator, IncrementConfig, LeaderConfig, OscillationConfig,
};
use aging_fractal::spectrum::{mfdfa, MfdfaConfig};
use aging_fractal::surrogate::surrogate_test_in;
use aging_par::Pool;
use proptest::prelude::*;

/// Pool sizes exercised against the sequential reference: single worker,
/// the common small case, and a count that never divides chunk counts
/// evenly.
const POOL_SIZES: [usize; 3] = [1, 2, 7];

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn holder_trace_parity_increment(seed in 0u64..500, hurst in 0.2f64..0.85) {
        let x = generate::fbm(700, hurst, seed).unwrap();
        let est = HolderEstimator::LocalIncrement(IncrementConfig::default());
        let reference = holder_trace_in(&x, &est, &Pool::sequential()).unwrap();
        for threads in POOL_SIZES {
            let par = holder_trace_in(&x, &est, &Pool::new(threads)).unwrap();
            assert_bits_eq(&reference, &par, &format!("increment trace, {threads} threads"));
        }
    }

    #[test]
    fn holder_trace_parity_oscillation(seed in 0u64..500, hurst in 0.2f64..0.85) {
        let x = generate::fbm(600, hurst, seed).unwrap();
        let est = HolderEstimator::Oscillation(OscillationConfig::default());
        let reference = holder_trace_in(&x, &est, &Pool::sequential()).unwrap();
        for threads in POOL_SIZES {
            let par = holder_trace_in(&x, &est, &Pool::new(threads)).unwrap();
            assert_bits_eq(&reference, &par, &format!("oscillation trace, {threads} threads"));
        }
    }

    #[test]
    fn holder_trace_parity_leaders(seed in 0u64..500, hurst in 0.2f64..0.85) {
        let x = generate::fbm(512, hurst, seed).unwrap();
        let est = HolderEstimator::WaveletLeader(LeaderConfig::default());
        let reference = holder_trace_in(&x, &est, &Pool::sequential()).unwrap();
        for threads in POOL_SIZES {
            let par = holder_trace_in(&x, &est, &Pool::new(threads)).unwrap();
            assert_bits_eq(&reference, &par, &format!("leader trace, {threads} threads"));
        }
    }

    #[test]
    fn surrogate_test_parity(seed in 0u64..500) {
        let x = generate::fgn(256, 0.6, seed).unwrap();
        let stat = |d: &[f64]| aging_timeseries::stats::variance(d);
        let reference = surrogate_test_in(&x, 8, seed, stat, &Pool::sequential()).unwrap();
        for threads in POOL_SIZES {
            let par = surrogate_test_in(&x, 8, seed, stat, &Pool::new(threads)).unwrap();
            prop_assert_eq!(par.observed.to_bits(), reference.observed.to_bits());
            prop_assert_eq!(par.p_value.to_bits(), reference.p_value.to_bits());
            assert_bits_eq(
                &reference.surrogate_values,
                &par.surrogate_values,
                &format!("surrogate values, {threads} threads"),
            );
        }
    }
}

/// One non-property smoke check with a real multifractality statistic, so
/// parity is also exercised through a nested analysis pipeline.
#[test]
fn surrogate_parity_with_mfdfa_width() {
    let cascade = generate::binomial_cascade(10, 0.3, true, 5).unwrap();
    let width = |d: &[f64]| mfdfa(d, &MfdfaConfig::default()).map(|r| r.width());
    let reference = surrogate_test_in(&cascade, 6, 42, width, &Pool::sequential()).unwrap();
    for threads in POOL_SIZES {
        let par = surrogate_test_in(&cascade, 6, 42, width, &Pool::new(threads)).unwrap();
        assert_bits_eq(
            &reference.surrogate_values,
            &par.surrogate_values,
            &format!("mfdfa width surrogates, {threads} threads"),
        );
        assert_eq!(par.p_value.to_bits(), reference.p_value.to_bits());
    }
}
