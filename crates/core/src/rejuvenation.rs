//! Rejuvenation policy analysis — the motivating application of aging
//! prediction (Huang et al. 1995; Vaidyanathan et al. 2001).
//!
//! A crash costs a long repair outage; a planned rejuvenation costs a
//! short restart. A *predictive* policy that rejuvenates only when an
//! aging detector alarms should beat both doing nothing (crash outages)
//! and blind periodic restarts (unnecessary downtime) — experiment E7.
//!
//! **Superseded for new code by the `aging-rejuv` crate.** This module
//! is the *offline, single-machine* policy study: it replays a recorded
//! trace through a batch predictor and integrates downtime analytically.
//! The shared `RejuvPolicy` / `RejuvController` types in `aging-rejuv`
//! are the *online* face of the same policies — fleet-wide cooldown and
//! concurrency budgets, deterministic restart arbitration inside the
//! streaming supervisor, and the E18 closed-loop availability gate.
//! [`Policy`] here stays for the E2/E7/E8 batch comparisons, but policy
//! semantics added going forward land in `aging-rejuv`, not here.

// `!(x > 0)`-style comparisons below are deliberate: unlike `x <= 0`,
// they also reject NaN, which is exactly what parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
use crate::eval::PredictorSpec;
use aging_memsim::{Machine, Scenario};
use aging_timeseries::{Error, Result};

/// A rejuvenation policy (offline study form).
///
/// For online, fleet-wide control use `aging_rejuv::RejuvPolicy` — the
/// shared policy type the streaming supervisor, serve tier and E18 gate
/// on. This enum remains only for the batch experiments (see the module
/// docs) and deliberately gains no new variants.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Policy {
    /// Never rejuvenate; ride every crash.
    None,
    /// Restart on a fixed period.
    Periodic {
        /// Seconds between planned restarts.
        period_secs: f64,
    },
    /// Restart when the given predictor alarms on the monitored counter.
    PredictorTriggered {
        /// The predictor to drive the policy with.
        spec: PredictorSpec,
        /// Monitored counter.
        counter: aging_memsim::Counter,
        /// Samples are withheld from the predictor for this long after
        /// every restart, so the post-restart heap-refill transient is not
        /// mistaken for depletion.
        cooldown_secs: f64,
    },
}

impl Policy {
    /// Policy name for reports.
    pub fn name(&self) -> String {
        match self {
            Policy::None => "no-rejuvenation".into(),
            Policy::Periodic { period_secs } => {
                format!("periodic-{:.1}h", period_secs / 3600.0)
            }
            Policy::PredictorTriggered { spec, .. } => format!("triggered-{}", spec.name()),
        }
    }
}

/// Cost model of outages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageCosts {
    /// Downtime of an unplanned crash (detection + repair + reboot),
    /// seconds.
    pub crash_downtime_secs: f64,
    /// Downtime of a planned rejuvenation, seconds.
    pub rejuvenation_downtime_secs: f64,
}

impl Default for OutageCosts {
    fn default() -> Self {
        OutageCosts {
            crash_downtime_secs: 1800.0,       // 30 min unplanned outage
            rejuvenation_downtime_secs: 120.0, // 2 min planned restart
        }
    }
}

impl OutageCosts {
    /// Validates the cost model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive downtimes.
    pub fn validate(&self) -> Result<()> {
        if !(self.crash_downtime_secs > 0.0) {
            return Err(Error::invalid("crash_downtime_secs", "must be positive"));
        }
        if !(self.rejuvenation_downtime_secs > 0.0) {
            return Err(Error::invalid(
                "rejuvenation_downtime_secs",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// Result of running one policy over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Wall-clock horizon covered (uptime + downtime), seconds.
    pub horizon_secs: f64,
    /// Productive uptime, seconds.
    pub uptime_secs: f64,
    /// Outage time, seconds.
    pub downtime_secs: f64,
    /// Number of crashes suffered.
    pub crashes: usize,
    /// Number of planned rejuvenations performed.
    pub rejuvenations: usize,
}

impl PolicyOutcome {
    /// Steady-state availability over the horizon.
    pub fn availability(&self) -> f64 {
        if self.horizon_secs <= 0.0 {
            return 1.0;
        }
        self.uptime_secs / self.horizon_secs
    }
}

impl std::fmt::Display for PolicyOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<28} availability={:.5} crashes={:<3} rejuvenations={:<4} downtime={:.1}h",
            self.policy,
            self.availability(),
            self.crashes,
            self.rejuvenations,
            self.downtime_secs / 3600.0
        )
    }
}

/// Runs `policy` on `scenario` for `horizon_secs` of wall-clock time
/// (uptime plus outage time) and accounts availability.
///
/// # Errors
///
/// Propagates configuration validation and predictor failures.
pub fn run_policy(
    scenario: &Scenario,
    policy: &Policy,
    horizon_secs: f64,
    costs: OutageCosts,
) -> Result<PolicyOutcome> {
    costs.validate()?;
    if !(horizon_secs > 0.0) {
        return Err(Error::invalid("horizon_secs", "must be positive"));
    }
    let mut machine = Machine::boot(scenario)?;
    let step = scenario.machine.step_secs;

    let mut predictor = match policy {
        Policy::PredictorTriggered { spec, .. } => Some(spec.build()?),
        _ => None,
    };
    let counter = match policy {
        Policy::PredictorTriggered { counter, .. } => Some(*counter),
        _ => None,
    };

    let mut wall = 0.0f64;
    let mut uptime = 0.0f64;
    let mut downtime = 0.0f64;
    let mut crashes = 0usize;
    let mut rejuvenations = 0usize;
    let mut since_restart = 0.0f64;

    while wall < horizon_secs {
        let crash = machine.step();
        wall += step;
        uptime += step;
        since_restart += step;

        if let Some(_event) = crash {
            crashes += 1;
            wall += costs.crash_downtime_secs;
            downtime += costs.crash_downtime_secs;
            machine.rejuvenate(); // reboot
            since_restart = 0.0;
            if let Some(p) = predictor.as_mut() {
                p.reset();
            }
            continue;
        }

        let mut want_rejuvenation = false;
        match policy {
            Policy::None => {}
            Policy::Periodic { period_secs } => {
                if since_restart >= *period_secs {
                    want_rejuvenation = true;
                }
            }
            Policy::PredictorTriggered { cooldown_secs, .. } => {
                if since_restart < *cooldown_secs {
                    // Transient after restart: withhold samples.
                } else if let Some(sample) = machine.last_sample() {
                    let value = match counter.expect("set for this policy") {
                        aging_memsim::Counter::AvailableBytes => sample.available.as_f64(),
                        aging_memsim::Counter::UsedSwapBytes => sample.used_swap.as_f64(),
                        aging_memsim::Counter::CommittedBytes => sample.committed.as_f64(),
                        aging_memsim::Counter::LiveHeapBytes => sample.live_heap.as_f64(),
                        aging_memsim::Counter::PageFaultsPerSec => sample.page_faults_per_sec,
                        aging_memsim::Counter::HandleCount => sample.handle_count as f64,
                        aging_memsim::Counter::AllocRateBytesPerSec => sample.alloc_rate,
                        _ => sample.available.as_f64(),
                    };
                    if predictor
                        .as_mut()
                        .expect("predictor set for this policy")
                        .push(value)?
                    {
                        want_rejuvenation = true;
                    }
                }
            }
        }
        if want_rejuvenation {
            rejuvenations += 1;
            wall += costs.rejuvenation_downtime_secs;
            downtime += costs.rejuvenation_downtime_secs;
            machine.rejuvenate();
            since_restart = 0.0;
            if let Some(p) = predictor.as_mut() {
                p.reset();
            }
        }
    }

    Ok(PolicyOutcome {
        policy: policy.name(),
        scenario: scenario.name.clone(),
        horizon_secs: wall,
        uptime_secs: uptime,
        downtime_secs: downtime,
        crashes,
        rejuvenations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ResourceDirection;
    use aging_memsim::Scenario;

    const HOUR: f64 = 3600.0;

    fn costs() -> OutageCosts {
        OutageCosts {
            crash_downtime_secs: 600.0,
            rejuvenation_downtime_secs: 30.0,
        }
    }

    #[test]
    fn cost_validation() {
        assert!(OutageCosts::default().validate().is_ok());
        assert!(OutageCosts {
            crash_downtime_secs: 0.0,
            ..costs()
        }
        .validate()
        .is_err());
        assert!(OutageCosts {
            rejuvenation_downtime_secs: -1.0,
            ..costs()
        }
        .validate()
        .is_err());
    }

    // The tiny machine has ~110 MiB of commit headroom over its steady
    // state, so a 128 MiB/h leak kills it in roughly an hour and a
    // 256 MiB/h leak in roughly half an hour.

    #[test]
    fn no_rejuvenation_rides_crashes() {
        let scenario = Scenario::tiny_aging(1, 256.0);
        let outcome = run_policy(&scenario, &Policy::None, 8.0 * HOUR, costs()).unwrap();
        assert!(outcome.crashes >= 3, "crashes {}", outcome.crashes);
        assert_eq!(outcome.rejuvenations, 0);
        assert!(outcome.availability() < 1.0);
        assert!(!outcome.to_string().is_empty());
    }

    #[test]
    fn periodic_policy_prevents_crashes() {
        let scenario = Scenario::tiny_aging(1, 128.0);
        // Machine dies in roughly an hour at this rate; restart every 30
        // minutes.
        let policy = Policy::Periodic {
            period_secs: 0.5 * HOUR,
        };
        let outcome = run_policy(&scenario, &policy, 8.0 * HOUR, costs()).unwrap();
        assert_eq!(outcome.crashes, 0, "{outcome}");
        assert!(outcome.rejuvenations >= 10, "{outcome}");
    }

    #[test]
    fn periodic_beats_none_on_availability() {
        let scenario = Scenario::tiny_aging(2, 256.0);
        let none = run_policy(&scenario, &Policy::None, 12.0 * HOUR, costs()).unwrap();
        let periodic = run_policy(
            &scenario,
            &Policy::Periodic {
                period_secs: 0.25 * HOUR,
            },
            12.0 * HOUR,
            costs(),
        )
        .unwrap();
        assert!(none.crashes > 0);
        assert!(
            periodic.availability() > none.availability(),
            "periodic {} vs none {}",
            periodic.availability(),
            none.availability()
        );
    }

    #[test]
    fn triggered_policy_with_threshold_prevents_crashes() {
        let scenario = Scenario::tiny_aging(3, 128.0);
        let policy = Policy::PredictorTriggered {
            spec: PredictorSpec::Threshold {
                level: 8.0 * 1024.0 * 1024.0,
                direction: ResourceDirection::Depleting,
            },
            counter: aging_memsim::Counter::AvailableBytes,
            cooldown_secs: 0.0,
        };
        let outcome = run_policy(&scenario, &policy, 8.0 * HOUR, costs()).unwrap();
        assert_eq!(outcome.crashes, 0, "{outcome}");
        assert!(outcome.rejuvenations >= 1);
        assert!(outcome.rejuvenations <= 40, "{outcome}");
    }

    #[test]
    fn horizon_is_respected() {
        let scenario = Scenario::tiny_aging(4, 0.0);
        let outcome = run_policy(&scenario, &Policy::None, HOUR, costs()).unwrap();
        assert!(outcome.horizon_secs >= HOUR);
        assert!(outcome.horizon_secs < HOUR + 700.0);
        assert!((outcome.uptime_secs + outcome.downtime_secs - outcome.horizon_secs).abs() < 1.0);
    }

    #[test]
    fn guards() {
        let scenario = Scenario::tiny_aging(6, 0.0);
        assert!(run_policy(&scenario, &Policy::None, 0.0, costs()).is_err());
        let bad = OutageCosts {
            crash_downtime_secs: -1.0,
            rejuvenation_downtime_secs: 1.0,
        };
        assert!(run_policy(&scenario, &Policy::None, HOUR, bad).is_err());
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::None.name(), "no-rejuvenation");
        assert_eq!(
            Policy::Periodic {
                period_secs: 7200.0
            }
            .name(),
            "periodic-2.0h"
        );
    }
}
