//! Cross-estimator consistency: independent estimators must agree on the
//! same signals (within their documented tolerances). This is the E5
//! methodology gate in test form, extended across the whole estimator zoo.

use aging_fractal::spectrum::{mfdfa, MfdfaConfig};
use aging_fractal::{generate, hurst};
use aging_wavelet::Wavelet;

#[test]
fn four_hurst_estimators_agree_on_fgn() {
    for &(h, seed) in &[(0.3, 1u64), (0.6, 2), (0.8, 3)] {
        let x = generate::fgn(8192, h, seed).unwrap();
        let estimates = [
            ("dfa", hurst::dfa(&x, 1).unwrap().hurst),
            ("aggvar", hurst::aggregated_variance(&x).unwrap().hurst),
            ("periodogram", hurst::periodogram_hurst(&x).unwrap().hurst),
            (
                "mfdfa-h2",
                mfdfa(&x, &MfdfaConfig::default()).unwrap().hurst().unwrap(),
            ),
        ];
        for (name, est) in estimates {
            assert!((est - h).abs() < 0.15, "H={h}: {name} estimated {est}");
        }
    }
}

#[test]
fn leader_c1_matches_fbm_regularity() {
    let h = 0.6;
    let x = generate::fbm(8192, h, 4).unwrap();
    // Leader c1 ≈ H.
    let lc = aging_fractal::spectrum::leader_cumulants(&x, Wavelet::Daubechies6, 9, 3).unwrap();
    assert!((lc.c1 - h).abs() < 0.15, "leader c1 {}", lc.c1);
}

#[test]
fn denoising_preserves_hurst_of_smooth_component() {
    // fBm(H=0.8) plus white measurement noise: denoising should push the
    // DFA estimate back toward the smooth component's persistence.
    let clean = generate::fbm(4096, 0.8, 5).unwrap();
    let spread = {
        let mx = clean.iter().cloned().fold(f64::MIN, f64::max);
        let mn = clean.iter().cloned().fold(f64::MAX, f64::min);
        mx - mn
    };
    let noise = generate::white_noise(4096, 6).unwrap();
    let noisy: Vec<f64> = clean
        .iter()
        .zip(&noise)
        .map(|(c, e)| c + 0.02 * spread * e)
        .collect();
    let denoised = aging_wavelet::denoise::denoise(
        &noisy,
        Wavelet::Daubechies8,
        5,
        aging_wavelet::denoise::Shrinkage::Soft,
    )
    .unwrap();
    let before = hurst::dfa(&noisy, 2).unwrap().hurst;
    let after = hurst::dfa(&denoised.signal, 2).unwrap().hurst;
    let clean_h = hurst::dfa(&clean, 2).unwrap().hurst;
    assert!(
        (after - clean_h).abs() <= (before - clean_h).abs() + 0.02,
        "denoising moved DFA away from truth: clean {clean_h}, noisy {before}, denoised {after}"
    );
}

#[test]
fn multifractality_verdict_consistent_across_formalisms() {
    // Monofractal: both MF-DFA width and leader |c2| small.
    let mono = generate::fgn(8192, 0.6, 16).unwrap();
    let mono_width = mfdfa(&mono, &MfdfaConfig::default()).unwrap().width();
    let mono_c2 = aging_fractal::spectrum::leader_cumulants(
        &generate::fbm(8192, 0.6, 16).unwrap(),
        Wavelet::Daubechies6,
        9,
        3,
    )
    .unwrap()
    .c2;

    // Multifractal cascade: both large.
    let cascade = generate::binomial_cascade(13, 0.25, true, 8).unwrap();
    let multi_width = mfdfa(&cascade, &MfdfaConfig::default()).unwrap().width();
    let mut acc = 0.0;
    let walk: Vec<f64> = cascade
        .iter()
        .map(|&m| {
            acc += m;
            acc
        })
        .collect();
    let multi_c2 = aging_fractal::spectrum::leader_cumulants(&walk, Wavelet::Daubechies6, 9, 3)
        .unwrap()
        .c2;

    assert!(
        multi_width > mono_width + 0.3,
        "{multi_width} vs {mono_width}"
    );
    assert!(multi_c2 < mono_c2, "{multi_c2} vs {mono_c2}");
    assert!(mono_c2.abs() < 0.15, "monofractal c2 {mono_c2}");
}

#[test]
fn mbm_regularity_ordering_matches_design() {
    // Three mBm signals with increasing (constant) H must order their
    // graph dimensions decreasingly and their Hölder means increasingly.
    use aging_fractal::dimension;
    use aging_fractal::holder::{holder_trace, HolderEstimator};
    let mut dims = Vec::new();
    let mut holders = Vec::new();
    for (i, &h) in [0.25, 0.5, 0.75].iter().enumerate() {
        let x = generate::mbm(4096, move |_| h, 10 + i as u64).unwrap();
        dims.push(dimension::variation(&x).unwrap().dimension);
        let trace = holder_trace(&x, &HolderEstimator::default()).unwrap();
        holders.push(trace[512..].iter().sum::<f64>() / (trace.len() - 512) as f64);
    }
    assert!(dims[0] > dims[1] && dims[1] > dims[2], "{dims:?}");
    assert!(
        holders[0] < holders[1] && holders[1] < holders[2],
        "{holders:?}"
    );
}
