//! The per-stream injection engine: turns a [`ChaosPlan`] into a
//! deterministic sample-by-sample perturbation.
//!
//! One [`ChaosEngine`] owns one stream's generator and injector state.
//! Its seed mixes the plan seed with a caller-chosen stream key, so every
//! stream in a fleet draws an independent — but individually reproducible
//! — fault sequence, no matter how streams are scheduled across threads.

use std::collections::VecDeque;

use aging_stream::StreamSample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::plan::{ChaosPlan, InjectorSpec, REPLAY_BUFFER};

/// What the engine did, per defect class. `offered` is raw samples in,
/// `emitted` is perturbed samples out; the identity
/// `emitted == offered - stalled + duplicated + replayed` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionCounters {
    /// Raw samples fed in.
    pub offered: u64,
    /// Samples pushed out (primaries + duplicates + replays).
    pub emitted: u64,
    /// Values overwritten with NaN/±Inf.
    pub non_finite: u64,
    /// Extra duplicate deliveries emitted.
    pub duplicated: u64,
    /// Stale replays emitted.
    pub replayed: u64,
    /// Samples whose clock carried a step offset.
    pub clock_stepped: u64,
    /// Samples whose clock was skewed.
    pub clock_skewed: u64,
    /// Values spiked.
    pub spiked: u64,
    /// Values wrapped by a modulus.
    pub wrapped: u64,
    /// Samples swallowed by a stall.
    pub stalled: u64,
}

impl InjectionCounters {
    /// Component-wise accumulation (for fleet-level totals).
    pub fn merge(&mut self, other: &InjectionCounters) {
        self.offered += other.offered;
        self.emitted += other.emitted;
        self.non_finite += other.non_finite;
        self.duplicated += other.duplicated;
        self.replayed += other.replayed;
        self.clock_stepped += other.clock_stepped;
        self.clock_skewed += other.clock_skewed;
        self.spiked += other.spiked;
        self.wrapped += other.wrapped;
        self.stalled += other.stalled;
    }

    /// Total samples corrupted, delayed or dropped in some way.
    pub fn injected(&self) -> u64 {
        self.non_finite
            + self.duplicated
            + self.replayed
            + self.clock_stepped
            + self.clock_skewed
            + self.spiked
            + self.wrapped
            + self.stalled
    }
}

/// Mutable per-injector state (burst/stall run lengths).
#[derive(Debug, Clone, Copy, Default)]
struct SpecState {
    /// Remaining samples in an active burst or stall run.
    remaining: u32,
}

/// Applies one plan to one stream of samples, deterministically.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    specs: Vec<InjectorSpec>,
    state: Vec<SpecState>,
    rng: StdRng,
    counters: InjectionCounters,
    /// Recent primary emissions, newest last (replay material).
    recent: VecDeque<StreamSample>,
}

impl ChaosEngine {
    /// Builds the engine for one stream.
    ///
    /// `stream_key` distinguishes streams sharing a plan (e.g.
    /// `(machine_index << 8) | counter code` in a fleet); the generator
    /// seed is a mix of the plan seed and the key.
    pub fn new(plan: &ChaosPlan, stream_key: u64) -> Self {
        let seed = plan
            .seed
            .wrapping_add(stream_key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        ChaosEngine {
            specs: plan.injectors.clone(),
            state: vec![SpecState::default(); plan.injectors.len()],
            rng: StdRng::seed_from_u64(seed),
            counters: InjectionCounters::default(),
            recent: VecDeque::with_capacity(REPLAY_BUFFER),
        }
    }

    /// What the engine has done so far.
    pub fn counters(&self) -> &InjectionCounters {
        &self.counters
    }

    /// Draws one non-finite stand-in value.
    fn non_finite_value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0u32..3) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    fn emit(&mut self, s: StreamSample, out: &mut Vec<StreamSample>) {
        self.counters.emitted += 1;
        out.push(s);
    }

    /// Feeds one raw sample through every injector, pushing the resulting
    /// zero or more perturbed samples into `out` (which is *not* cleared).
    ///
    /// Activation windows are evaluated against the raw sample clock, so
    /// injected clock defects never shift other injectors. Injectors run
    /// in plan order; value and clock corruptions compose onto the same
    /// primary sample, stalls swallow it, duplicates and replays append
    /// extra deliveries after it.
    pub fn feed(&mut self, raw: StreamSample, out: &mut Vec<StreamSample>) {
        self.counters.offered += 1;
        let raw_t = raw.time_secs;
        let mut s = raw;
        let mut stalled = false;
        let mut extra_copies = 0u32;
        let mut replay_age: Option<usize> = None;

        for (i, spec) in self.specs.iter().enumerate() {
            match *spec {
                InjectorSpec::ClockStep {
                    at_secs,
                    offset_secs,
                } => {
                    if raw_t >= at_secs {
                        s.time_secs += offset_secs;
                        self.counters.clock_stepped += 1;
                    }
                }
                InjectorSpec::ClockSkew { factor, ref window } => {
                    if window.contains(raw_t) {
                        s.time_secs =
                            window.onset_secs + (s.time_secs - window.onset_secs) * factor;
                        self.counters.clock_skewed += 1;
                    }
                }
                InjectorSpec::CounterWrap {
                    modulus,
                    ref window,
                } => {
                    if window.contains(raw_t) && s.value.is_finite() {
                        let wrapped = s.value.rem_euclid(modulus);
                        if wrapped != s.value {
                            s.value = wrapped;
                            self.counters.wrapped += 1;
                        }
                    }
                }
                InjectorSpec::Spike {
                    rate,
                    magnitude,
                    ref window,
                } => {
                    if window.contains(raw_t) && self.rng.gen_bool(rate) {
                        if self.rng.gen_bool(0.5) {
                            s.value *= magnitude;
                        } else {
                            s.value /= magnitude;
                        }
                        self.counters.spiked += 1;
                    }
                }
                InjectorSpec::NonFiniteBurst {
                    rate,
                    max_len,
                    ref window,
                } => {
                    if self.state[i].remaining > 0 {
                        self.state[i].remaining -= 1;
                        s.value = Self::non_finite_value(&mut self.rng);
                        self.counters.non_finite += 1;
                    } else if window.contains(raw_t) && self.rng.gen_bool(rate) {
                        // This sample starts the burst; the rest follow.
                        self.state[i].remaining = self.rng.gen_range(1..=max_len) - 1;
                        s.value = Self::non_finite_value(&mut self.rng);
                        self.counters.non_finite += 1;
                    }
                }
                InjectorSpec::Stall {
                    rate,
                    max_len,
                    ref window,
                } => {
                    if self.state[i].remaining > 0 {
                        self.state[i].remaining -= 1;
                        stalled = true;
                        self.counters.stalled += 1;
                    } else if window.contains(raw_t) && self.rng.gen_bool(rate) {
                        self.state[i].remaining = self.rng.gen_range(1..=max_len) - 1;
                        stalled = true;
                        self.counters.stalled += 1;
                    }
                }
                InjectorSpec::Duplicate {
                    rate,
                    max_copies,
                    ref window,
                } => {
                    if window.contains(raw_t) && self.rng.gen_bool(rate) {
                        extra_copies += self.rng.gen_range(1..=max_copies);
                    }
                }
                InjectorSpec::Replay {
                    rate,
                    max_age,
                    ref window,
                } => {
                    if window.contains(raw_t) && self.rng.gen_bool(rate) {
                        replay_age = Some(self.rng.gen_range(1..=max_age) as usize);
                    }
                }
            }
        }

        if stalled {
            // The reading never arrives — nothing downstream, and it is
            // not replay material either.
            return;
        }

        self.emit(s, out);
        if self.recent.len() == REPLAY_BUFFER {
            self.recent.pop_front();
        }
        self.recent.push_back(s);

        for _ in 0..extra_copies {
            self.counters.duplicated += 1;
            self.emit(s, out);
        }
        if let Some(age) = replay_age {
            // `recent` ends with the sample just emitted (age 0).
            if self.recent.len() > age {
                let stale = self.recent[self.recent.len() - 1 - age];
                self.counters.replayed += 1;
                self.emit(stale, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize, dt: f64) -> Vec<StreamSample> {
        (0..n)
            .map(|i| StreamSample {
                time_secs: i as f64 * dt,
                value: 1e6 - i as f64,
            })
            .collect()
    }

    fn run(plan: &ChaosPlan, key: u64, input: &[StreamSample]) -> (Vec<StreamSample>, ChaosEngine) {
        let mut engine = ChaosEngine::new(plan, key);
        let mut out = Vec::new();
        for &s in input {
            engine.feed(s, &mut out);
        }
        (out, engine)
    }

    /// Bit-pattern view, so injected NaNs compare equal to themselves.
    fn bits(samples: &[StreamSample]) -> Vec<(u64, u64)> {
        samples
            .iter()
            .map(|s| (s.time_secs.to_bits(), s.value.to_bits()))
            .collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let input = samples(100, 5.0);
        let (out, engine) = run(&ChaosPlan::new(1), 0, &input);
        assert_eq!(out, input);
        let c = engine.counters();
        assert_eq!(c.offered, 100);
        assert_eq!(c.emitted, 100);
        assert_eq!(c.injected(), 0);
    }

    #[test]
    fn same_seed_and_key_is_bit_identical() {
        let input = samples(2000, 5.0);
        let plan = ChaosPlan::nasty(42);
        let (a, ea) = run(&plan, 7, &input);
        let (b, eb) = run(&plan, 7, &input);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(ea.counters(), eb.counters());
        // A different stream key draws a different fault sequence.
        let (c, _) = run(&plan, 8, &input);
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn counters_reconcile_with_emissions() {
        let input = samples(5000, 5.0);
        let (out, engine) = run(&ChaosPlan::nasty(3), 1, &input);
        let c = engine.counters();
        assert_eq!(c.offered, 5000);
        assert_eq!(c.emitted as usize, out.len());
        assert_eq!(c.emitted, c.offered - c.stalled + c.duplicated + c.replayed);
        assert!(c.non_finite > 0 && c.stalled > 0 && c.duplicated > 0 && c.replayed > 0);
    }

    #[test]
    fn nan_bursts_are_bounded_runs() {
        let plan = ChaosPlan::new(11).with(InjectorSpec::nan_bursts(0.05, 4));
        let (out, engine) = run(&plan, 0, &samples(4000, 5.0));
        assert_eq!(out.len(), 4000);
        let c = engine.counters();
        assert!(c.non_finite > 0);
        // Every corruption is accounted for (adjacent bursts may chain,
        // so run lengths are not bounded by max_len — but counts are
        // exact).
        assert_eq!(
            c.non_finite as usize,
            out.iter().filter(|s| !s.value.is_finite()).count()
        );
        // Timestamps still advance: corruption hits values, not clocks.
        assert!(out.windows(2).all(|w| w[1].time_secs > w[0].time_secs));
    }

    #[test]
    fn duplicates_and_replays_reuse_real_samples() {
        let plan = ChaosPlan::new(5)
            .with(InjectorSpec::duplicates(0.1, 2))
            .with(InjectorSpec::replays(0.1, 8));
        let input = samples(2000, 5.0);
        let (out, engine) = run(&plan, 0, &input);
        let c = engine.counters();
        assert!(c.duplicated > 0 && c.replayed > 0);
        assert_eq!(out.len(), 2000 + (c.duplicated + c.replayed) as usize);
        // Every emitted sample is some true input sample, unmodified.
        for s in &out {
            assert!(input.contains(s));
        }
    }

    #[test]
    fn negative_clock_step_regresses_timestamps() {
        let plan = ChaosPlan::new(9).with(InjectorSpec::clock_step(500.0, -100.0));
        let (out, engine) = run(&plan, 0, &samples(200, 5.0));
        // Before the step: untouched. After: shifted back 100 s.
        assert_eq!(out[99].time_secs, 495.0);
        assert_eq!(out[100].time_secs, 400.0);
        assert_eq!(out[199].time_secs, 895.0);
        assert_eq!(engine.counters().clock_stepped, 100);
    }

    #[test]
    fn clock_skew_dilates_from_onset() {
        let plan = ChaosPlan::new(9).with(InjectorSpec::clock_skew(2.0).with_window(100.0, 200.0));
        let (out, _) = run(&plan, 0, &samples(100, 5.0));
        assert_eq!(out[19].time_secs, 95.0); // before onset
        assert_eq!(out[20].time_secs, 100.0); // onset is the fixed point
        assert_eq!(out[30].time_secs, 200.0); // 100 + (150-100)*2
        assert_eq!(out[70].time_secs, 350.0); // window over at raw t=300
    }

    #[test]
    fn counter_wrap_folds_large_values() {
        let plan = ChaosPlan::new(2).with(InjectorSpec::counter_wrap(1000.0));
        let input = vec![
            StreamSample {
                time_secs: 0.0,
                value: 999.0,
            },
            StreamSample {
                time_secs: 5.0,
                value: 1001.0,
            },
        ];
        let (out, engine) = run(&plan, 0, &input);
        assert_eq!(out[0].value, 999.0);
        assert_eq!(out[1].value, 1.0);
        assert_eq!(engine.counters().wrapped, 1);
    }

    #[test]
    fn windows_confine_injection() {
        let plan =
            ChaosPlan::new(77).with(InjectorSpec::nan_bursts(0.5, 1).with_window(1000.0, 500.0));
        let (out, _) = run(&plan, 0, &samples(1000, 5.0));
        for s in &out {
            let armed = (1000.0..1500.0).contains(&s.time_secs);
            assert!(s.value.is_finite() || armed, "NaN at t={}", s.time_secs);
        }
        assert!(out.iter().any(|s| !s.value.is_finite()));
    }

    #[test]
    fn stalls_drop_bounded_runs() {
        let plan = ChaosPlan::new(4).with(InjectorSpec::stalls(0.05, 3));
        let (out, engine) = run(&plan, 0, &samples(3000, 5.0));
        let c = engine.counters();
        assert!(c.stalled > 0);
        assert_eq!(out.len(), 3000 - c.stalled as usize);
        // Survivors keep their order and true timestamps.
        assert!(out.windows(2).all(|w| w[1].time_secs > w[0].time_secs));
    }
}
