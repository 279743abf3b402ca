//! Stochastic workload generation.
//!
//! The target paper stressed its testbed machines with synthetic load until
//! they crashed. This module reproduces the *statistical character* of such
//! load: request-driven allocation with log-normal sizes, a heavy-tailed
//! lifetime mixture (mostly short-lived buffers, some long-lived session
//! state), and bursty arrival intensity driven by heavy-tailed ON/OFF
//! sessions — the textbook recipe for self-similar, multifractal resource
//! usage.

use crate::dist;
use crate::units::Bytes;
use aging_timeseries::{Error, Result};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Lifetime class of an allocation cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifetimeClass {
    /// Request-scoped buffers (seconds).
    Short,
    /// Session state (minutes).
    Medium,
    /// Caches / long sessions (heavy-tailed, possibly hours).
    Long,
}

/// Workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Base request arrival rate (requests/second) before burst modulation.
    pub base_rate: f64,
    /// Log-space standard deviation of the burst modulation factor (0
    /// disables burstiness).
    pub burst_sigma: f64,
    /// Mean duration of a burst regime in seconds (how long one modulation
    /// factor persists); heavy-tailed around this mean.
    pub burst_mean_secs: f64,
    /// Log-space mean of the per-request allocation size (bytes).
    pub alloc_mu_log: f64,
    /// Log-space standard deviation of the per-request allocation size.
    pub alloc_sigma_log: f64,
    /// Probability mix of lifetime classes `(short, medium, long)`;
    /// must sum to 1.
    pub lifetime_mix: (f64, f64, f64),
    /// Mean short lifetime (seconds, exponential).
    pub short_mean_secs: f64,
    /// Mean medium lifetime (seconds, exponential).
    pub medium_mean_secs: f64,
    /// Pareto scale of the long lifetime (seconds).
    pub long_xm_secs: f64,
    /// Pareto shape of the long lifetime (≤ 2 ⇒ infinite variance).
    pub long_alpha: f64,
    /// Size of a periodic batch job's transient allocation (0 disables).
    pub batch_bytes: Bytes,
    /// Period of the batch job in seconds.
    pub batch_period_secs: f64,
    /// Batch job working time in seconds (allocation held this long).
    pub batch_hold_secs: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the arrival rate is
    /// multiplied by `1 + A·sin(2π t / period)` (0 disables; realistic
    /// server load follows day/night cycles).
    pub diurnal_amplitude: f64,
    /// Diurnal period in seconds (default one day).
    pub diurnal_period_secs: f64,
}

impl WorkloadConfig {
    /// A web-server-like mix sized for the 256 MiB
    /// [`crate::MachineConfig::workstation_nt4`] preset: ~90–130 MiB of
    /// steady live heap with tens-of-MiB swings.
    pub fn web_server() -> Self {
        WorkloadConfig {
            base_rate: 20.0,
            burst_sigma: 0.7,
            burst_mean_secs: 45.0,
            // exp(mu) ≈ 32 KiB median request buffer.
            alloc_mu_log: (32.0 * 1024.0f64).ln(),
            alloc_sigma_log: 1.0,
            lifetime_mix: (0.72, 0.23, 0.05),
            short_mean_secs: 5.0,
            medium_mean_secs: 120.0,
            long_xm_secs: 300.0,
            long_alpha: 1.4,
            batch_bytes: Bytes::mib(24),
            batch_period_secs: 1800.0,
            batch_hold_secs: 90.0,
            diurnal_amplitude: 0.0,
            diurnal_period_secs: 24.0 * 3600.0,
        }
    }

    /// The web-server mix with a ±60 % day/night load cycle.
    pub fn web_server_diurnal() -> Self {
        WorkloadConfig {
            diurnal_amplitude: 0.6,
            ..WorkloadConfig::web_server()
        }
    }

    /// A lighter interactive mix (fewer, smaller requests).
    pub fn interactive() -> Self {
        WorkloadConfig {
            base_rate: 4.0,
            burst_sigma: 0.9,
            burst_mean_secs: 120.0,
            alloc_mu_log: (16.0 * 1024.0f64).ln(),
            alloc_sigma_log: 1.2,
            lifetime_mix: (0.6, 0.3, 0.1),
            short_mean_secs: 8.0,
            medium_mean_secs: 300.0,
            long_xm_secs: 600.0,
            long_alpha: 1.3,
            batch_bytes: Bytes::ZERO,
            batch_period_secs: 3600.0,
            batch_hold_secs: 60.0,
            diurnal_amplitude: 0.0,
            diurnal_period_secs: 24.0 * 3600.0,
        }
    }

    /// GPU-serving-style inference load, sized for the tiny test
    /// machine: highly bursty request batches (burst regimes flip every
    /// few seconds, heavy log-normal modulation), dominated by
    /// short-lived activation buffers with a heavy-tailed residue of
    /// session/KV-cache state that lingers. Pair with a monotone
    /// leak + fragmentation fault plan for the LLM-serving aging
    /// texture (KV-cache growth under bursty inference traffic).
    pub fn gpu_inference() -> Self {
        WorkloadConfig {
            base_rate: 25.0,
            burst_sigma: 1.0,
            burst_mean_secs: 8.0,
            // exp(mu) ≈ 16 KiB median activation buffer.
            alloc_mu_log: (16.0 * 1024.0f64).ln(),
            alloc_sigma_log: 1.0,
            lifetime_mix: (0.85, 0.10, 0.05),
            short_mean_secs: 1.5,
            medium_mean_secs: 25.0,
            long_xm_secs: 90.0,
            long_alpha: 1.6,
            batch_bytes: Bytes::mib(2), // periodic compaction/checkpoint
            batch_period_secs: 300.0,
            batch_hold_secs: 15.0,
            diurnal_amplitude: 0.0,
            diurnal_period_secs: 24.0 * 3600.0,
        }
    }

    /// Mobile-style app-churn load, sized for the tiny test machine:
    /// moderate-rate interactive sessions with strong burst persistence
    /// (an app in the foreground), a balanced lifetime mix, periodic
    /// sync jobs and a mild usage cycle. Pair with a
    /// leak-plus-partial-reclaim fault plan for the Android-study aging
    /// texture (leak-accumulate-then-partial-reclaim cycles).
    pub fn mobile_app_churn() -> Self {
        WorkloadConfig {
            base_rate: 12.0,
            burst_sigma: 0.8,
            burst_mean_secs: 60.0,
            // exp(mu) ≈ 12 KiB median UI/session allocation.
            alloc_mu_log: (12.0 * 1024.0f64).ln(),
            alloc_sigma_log: 1.0,
            lifetime_mix: (0.70, 0.25, 0.05),
            short_mean_secs: 3.0,
            medium_mean_secs: 60.0,
            long_xm_secs: 180.0,
            long_alpha: 1.6,
            batch_bytes: Bytes::mib(2), // periodic background sync
            batch_period_secs: 600.0,
            batch_hold_secs: 30.0,
            diurnal_amplitude: 0.3,
            diurnal_period_secs: 24.0 * 3600.0,
        }
    }

    /// A small, fast mix matched to [`crate::MachineConfig::tiny_test`].
    pub fn tiny_test() -> Self {
        WorkloadConfig {
            base_rate: 30.0,
            burst_sigma: 0.7,
            burst_mean_secs: 20.0,
            alloc_mu_log: (8.0 * 1024.0f64).ln(),
            alloc_sigma_log: 1.0,
            lifetime_mix: (0.75, 0.2, 0.05),
            short_mean_secs: 2.0,
            medium_mean_secs: 30.0,
            long_xm_secs: 60.0,
            long_alpha: 1.4,
            batch_bytes: Bytes::mib(4),
            batch_period_secs: 240.0,
            batch_hold_secs: 20.0,
            diurnal_amplitude: 0.0,
            diurnal_period_secs: 24.0 * 3600.0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.base_rate >= 0.0 && self.base_rate.is_finite()) {
            return Err(Error::invalid("base_rate", "must be finite and >= 0"));
        }
        if !(self.burst_sigma >= 0.0 && self.burst_sigma < 3.0) {
            return Err(Error::invalid("burst_sigma", "must lie in [0, 3)"));
        }
        if self.burst_mean_secs <= 0.0 {
            return Err(Error::invalid("burst_mean_secs", "must be positive"));
        }
        let (a, b, c) = self.lifetime_mix;
        if a < 0.0 || b < 0.0 || c < 0.0 || (a + b + c - 1.0).abs() > 1e-9 {
            return Err(Error::invalid(
                "lifetime_mix",
                "components must be non-negative and sum to 1",
            ));
        }
        if self.short_mean_secs <= 0.0 || self.medium_mean_secs <= 0.0 || self.long_xm_secs <= 0.0 {
            return Err(Error::invalid("lifetimes", "means must be positive"));
        }
        if self.long_alpha <= 1.0 {
            return Err(Error::invalid(
                "long_alpha",
                "must exceed 1 (finite mean required)",
            ));
        }
        if self.batch_period_secs <= 0.0 || self.batch_hold_secs <= 0.0 {
            return Err(Error::invalid("batch", "periods must be positive"));
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(Error::invalid("diurnal_amplitude", "must lie in [0, 1)"));
        }
        if self.diurnal_period_secs <= 0.0 {
            return Err(Error::invalid("diurnal_period_secs", "must be positive"));
        }
        Ok(())
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::web_server()
    }
}

/// Runtime sampler driving a [`WorkloadConfig`]: tracks the current burst
/// regime and draws per-step arrivals, sizes and lifetimes.
#[derive(Debug)]
pub struct WorkloadSampler {
    config: WorkloadConfig,
    burst_factor: f64,
    burst_until: f64,
}

/// One cohort of allocations made in a step: total size and expiry delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationRequest {
    /// Total bytes allocated.
    pub bytes: Bytes,
    /// Seconds until the cohort is freed.
    pub lifetime_secs: f64,
}

/// The cohorts one [`WorkloadSampler::step`] draws — at most one per
/// [`LifetimeClass`], held inline so a step allocates nothing. Reads as a
/// slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cohorts {
    requests: [AllocationRequest; 3],
    len: usize,
}

impl Cohorts {
    const EMPTY: Cohorts = Cohorts {
        requests: [AllocationRequest {
            bytes: Bytes::ZERO,
            lifetime_secs: 0.0,
        }; 3],
        len: 0,
    };

    fn push(&mut self, request: AllocationRequest) {
        self.requests[self.len] = request;
        self.len += 1;
    }
}

impl std::ops::Deref for Cohorts {
    type Target = [AllocationRequest];

    fn deref(&self) -> &[AllocationRequest] {
        &self.requests[..self.len]
    }
}

impl IntoIterator for Cohorts {
    type Item = AllocationRequest;
    type IntoIter = std::iter::Take<std::array::IntoIter<AllocationRequest, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter().take(self.len)
    }
}

impl WorkloadSampler {
    /// Creates a sampler.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadConfig::validate`] failures.
    pub fn new(config: WorkloadConfig) -> Result<Self> {
        config.validate()?;
        Ok(WorkloadSampler {
            config,
            burst_factor: 1.0,
            burst_until: 0.0,
        })
    }

    /// The underlying configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Current burst modulation factor (diagnostic).
    pub fn burst_factor(&self) -> f64 {
        self.burst_factor
    }

    /// Draws the allocation cohorts for one step of `dt` seconds at time
    /// `now` (seconds).
    pub fn step(&mut self, now: f64, dt: f64, rng: &mut StdRng) -> Cohorts {
        let cfg = &self.config;
        // Renew the burst regime if expired (heavy-tailed persistence).
        if now >= self.burst_until {
            self.burst_factor = if cfg.burst_sigma > 0.0 {
                // Mean-one log-normal modulation.
                dist::log_normal(
                    rng,
                    -0.5 * cfg.burst_sigma * cfg.burst_sigma,
                    cfg.burst_sigma,
                )
            } else {
                1.0
            };
            self.burst_until = now + dist::pareto(rng, cfg.burst_mean_secs * 0.4, 1.5);
        }

        // A zero amplitude skips the `sin`: 1 + 0·x is exactly 1 for any
        // finite x.
        let diurnal = if cfg.diurnal_amplitude == 0.0 {
            1.0
        } else {
            1.0 + cfg.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * now / cfg.diurnal_period_secs).sin()
        };
        let mean_arrivals = cfg.base_rate * self.burst_factor * diurnal * dt;
        let count = dist::poisson(rng, mean_arrivals);
        let mut out = Cohorts::EMPTY;
        if count == 0 {
            return out;
        }

        // Group this step's arrivals into one cohort per lifetime class to
        // bound ledger size; sizes are drawn per arrival so heavy tails
        // survive aggregation.
        let mut short = 0.0f64;
        let mut medium = 0.0f64;
        let mut long = 0.0f64;
        let (p_short, p_medium, _) = cfg.lifetime_mix;
        for _ in 0..count {
            let size = dist::log_normal(rng, cfg.alloc_mu_log, cfg.alloc_sigma_log);
            let u: f64 = rand::Rng::gen_range(rng, 0.0..1.0);
            if u < p_short {
                short += size;
            } else if u < p_short + p_medium {
                medium += size;
            } else {
                long += size;
            }
        }
        if short > 0.0 {
            out.push(AllocationRequest {
                bytes: Bytes::from_f64(short),
                lifetime_secs: dist::exponential(rng, cfg.short_mean_secs),
            });
        }
        if medium > 0.0 {
            out.push(AllocationRequest {
                bytes: Bytes::from_f64(medium),
                lifetime_secs: dist::exponential(rng, cfg.medium_mean_secs),
            });
        }
        if long > 0.0 {
            out.push(AllocationRequest {
                bytes: Bytes::from_f64(long),
                lifetime_secs: dist::pareto(rng, cfg.long_xm_secs, cfg.long_alpha),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn presets_validate() {
        WorkloadConfig::web_server().validate().unwrap();
        WorkloadConfig::interactive().validate().unwrap();
        WorkloadConfig::tiny_test().validate().unwrap();
        WorkloadConfig::gpu_inference().validate().unwrap();
        WorkloadConfig::mobile_app_churn().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_mix() {
        let mut cfg = WorkloadConfig::web_server();
        cfg.lifetime_mix = (0.5, 0.5, 0.5);
        assert!(cfg.validate().is_err());
        cfg.lifetime_mix = (-0.1, 0.6, 0.5);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_heavy_tail_without_mean() {
        let mut cfg = WorkloadConfig::web_server();
        cfg.long_alpha = 0.9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn sampler_produces_allocations_at_positive_rate() {
        let mut sampler = WorkloadSampler::new(WorkloadConfig::web_server()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = Bytes::ZERO;
        for step in 0..600 {
            for req in sampler.step(step as f64, 1.0, &mut rng) {
                assert!(req.lifetime_secs > 0.0);
                total += req.bytes;
            }
        }
        // 20 req/s × 600 s × ~53 KiB mean ≈ 600 MiB; accept a broad band.
        assert!(total > Bytes::mib(100), "total {total}");
        assert!(total < Bytes::gib(4), "total {total}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut cfg = WorkloadConfig::web_server();
        cfg.base_rate = 0.0;
        let mut sampler = WorkloadSampler::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for step in 0..100 {
            assert!(sampler.step(step as f64, 1.0, &mut rng).is_empty());
        }
    }

    #[test]
    fn burst_factor_changes_over_time() {
        let mut sampler = WorkloadSampler::new(WorkloadConfig::web_server()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut factors = std::collections::BTreeSet::new();
        for step in 0..5000 {
            sampler.step(step as f64, 1.0, &mut rng);
            factors.insert((sampler.burst_factor() * 1e9) as i64);
        }
        assert!(factors.len() > 5, "only {} regimes", factors.len());
    }

    #[test]
    fn burstiness_raises_variance() {
        let count_variance = |sigma: f64, seed: u64| {
            let mut cfg = WorkloadConfig::web_server();
            cfg.burst_sigma = sigma;
            let mut sampler = WorkloadSampler::new(cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let counts: Vec<f64> = (0..4000)
                .map(|s| {
                    sampler
                        .step(s as f64, 1.0, &mut rng)
                        .iter()
                        .map(|r| r.bytes.as_f64())
                        .sum::<f64>()
                })
                .collect();
            let m = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / counts.len() as f64
        };
        let calm = count_variance(0.0, 4);
        let bursty = count_variance(1.2, 4);
        assert!(bursty > 2.0 * calm, "calm {calm} bursty {bursty}");
    }

    #[test]
    fn diurnal_validation() {
        let mut cfg = WorkloadConfig::web_server_diurnal();
        cfg.validate().unwrap();
        cfg.diurnal_amplitude = 1.0;
        assert!(cfg.validate().is_err());
        cfg.diurnal_amplitude = 0.5;
        cfg.diurnal_period_secs = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let mut cfg = WorkloadConfig::web_server_diurnal();
        cfg.burst_sigma = 0.0; // isolate the diurnal effect
        let period = cfg.diurnal_period_secs;
        let mut sampler = WorkloadSampler::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut volume_at = |t0: f64| -> f64 {
            (0..600)
                .flat_map(|i| sampler.step(t0 + i as f64, 1.0, &mut rng))
                .map(|r| r.bytes.as_f64())
                .sum()
        };
        let peak = volume_at(period * 0.25); // sin = +1
        let trough = volume_at(period * 0.75); // sin = −1
        assert!(peak > 2.0 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn sampler_is_deterministic() {
        let run = || {
            let mut sampler = WorkloadSampler::new(WorkloadConfig::tiny_test()).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            (0..200)
                .flat_map(|s| sampler.step(s as f64, 1.0, &mut rng))
                .map(|r| r.bytes.as_u64())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
