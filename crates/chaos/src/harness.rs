//! The differential robustness harness: the same fleet, clean vs.
//! chaos-wrapped, with the robustness contract hard-asserted.
//!
//! # The robustness contract
//!
//! For any valid [`ChaosPlan`], a chaos-wrapped fleet run must:
//!
//! 1. **never panic** — every run executes under `catch_unwind`;
//! 2. **keep telemetry exact** — `ingested == accepted +
//!    dropped_non_finite + dropped_out_of_order` at the fleet level, and
//!    the gate must have ingested *exactly* what the injection engines
//!    emitted;
//! 3. **preserve watermark ordering** — the released event stream stays
//!    sorted by time and the reorder heap drains to zero;
//! 4. **stay deterministic** — the same plan seed reproduces bit-identical
//!    events, outcomes and counters across runs *and shard counts*;
//! 5. **leave the simulation untouched** — injection happens downstream
//!    of the machines, so crash times and sample counts equal the clean
//!    run's;
//! 6. **degrade gracefully** — crash-warning lead time may shrink under
//!    injection, but only within the caller's quantified [`Tolerance`];
//!    silence (missed detection) and noise (new false alarms) are budgeted,
//!    never unlimited.
//!
//! Violations surface as [`Error::Numerical`] with a message naming the
//! broken clause, which is exactly what CI prints on failure.

use std::sync::{Arc, Mutex};

use aging_memsim::{Counter, Scenario};
use aging_stream::supervisor::PerturberFactory;
use aging_stream::{FleetConfig, FleetReport, FleetSupervisor, SamplePerturber, StreamSample};
use aging_timeseries::{Error, Result};

use crate::inject::{ChaosEngine, InjectionCounters};
use crate::plan::ChaosPlan;

/// Thread-safe accumulator for fleet-wide injection totals.
///
/// Each [`ChaosPerturber`] merges its engine's counters here when its
/// shard retires it, so after `FleetSupervisor::run` returns the total is
/// complete.
#[derive(Debug, Clone, Default)]
pub struct InjectionTotals(Arc<Mutex<InjectionCounters>>);

impl InjectionTotals {
    /// The totals accumulated so far.
    pub fn snapshot(&self) -> InjectionCounters {
        *self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn merge(&self, counters: &InjectionCounters) {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge(counters);
    }
}

/// A [`SamplePerturber`] driving one stream's [`ChaosEngine`] inside the
/// fleet supervisor.
#[derive(Debug)]
pub struct ChaosPerturber {
    engine: ChaosEngine,
    totals: InjectionTotals,
}

impl SamplePerturber for ChaosPerturber {
    fn perturb(&mut self, raw: StreamSample, out: &mut Vec<StreamSample>) {
        self.engine.feed(raw, out);
    }
}

impl Drop for ChaosPerturber {
    fn drop(&mut self) {
        self.totals.merge(self.engine.counters());
    }
}

/// Builds a supervisor perturber factory from a plan, plus the shared
/// totals it reports into.
///
/// Stream keys are `(machine_index << 8) | counter code`, so every
/// `(machine, counter)` stream draws an independent, individually
/// reproducible fault sequence regardless of sharding.
///
/// # Errors
///
/// Propagates [`ChaosPlan::validate`].
pub fn fleet_perturber(plan: &ChaosPlan) -> Result<(PerturberFactory, InjectionTotals)> {
    plan.validate()?;
    let totals = InjectionTotals::default();
    let plan = plan.clone();
    let shared = totals.clone();
    let factory: PerturberFactory = Arc::new(move |machine_index, counter: Counter| {
        let key = ((machine_index as u64) << 8) | u64::from(counter.code());
        Box::new(ChaosPerturber {
            engine: ChaosEngine::new(&plan, key),
            totals: shared.clone(),
        })
    });
    Ok((factory, totals))
}

/// Quantified degradation budget for the differential checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Machines that alarmed clean but may stay silent under chaos.
    pub max_missed_detections: usize,
    /// How much crash-warning lead time may shrink, seconds.
    pub max_lead_loss_secs: f64,
    /// Machines that may newly alarm under chaos without crashing.
    pub max_extra_false_alarms: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            max_missed_detections: 0,
            max_lead_loss_secs: 1800.0,
            max_extra_false_alarms: 1,
        }
    }
}

/// Per-machine outcome of the clean/chaos comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialRow {
    /// Scenario name.
    pub scenario: String,
    /// Crash time (identical clean/chaos by contract), seconds.
    pub crash_time_secs: Option<f64>,
    /// Crash-warning lead time in the clean run, seconds.
    pub clean_lead_secs: Option<f64>,
    /// Crash-warning lead time under injection, seconds.
    pub chaos_lead_secs: Option<f64>,
}

/// Everything a differential sweep produced.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Per-machine comparison rows, by machine index.
    pub rows: Vec<DifferentialRow>,
    /// The clean reference run.
    pub clean: FleetReport,
    /// The chaos-wrapped run (first of the determinism replicas).
    pub chaos: FleetReport,
    /// Fleet-wide injection totals of the chaos run.
    pub injected: InjectionCounters,
}

impl DifferentialReport {
    /// A plain-text comparison table for logs and experiment output.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "machine                          crash[s]   lead clean[s]   lead chaos[s]\n",
        );
        for row in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:>10.0}"),
                None => format!("{:>10}", "-"),
            };
            out.push_str(&format!(
                "{:<32} {}      {}      {}\n",
                row.scenario,
                fmt(row.crash_time_secs),
                fmt(row.clean_lead_secs),
                fmt(row.chaos_lead_secs),
            ));
        }
        out
    }
}

/// Runs the fleet under `catch_unwind`, converting panics into errors —
/// robustness-contract clause 1.
fn run_guarded(cfg: FleetConfig, scenarios: &[Scenario], label: &str) -> Result<FleetReport> {
    let supervisor = FleetSupervisor::new(cfg)?;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| supervisor.run(scenarios))) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(Error::Numerical(format!(
                "{label}: fleet run panicked: {msg}"
            )))
        }
    }
}

/// Contract clauses 2 and 3 on one report: exact counter reconciliation,
/// ordered events, drained reorder heap.
fn check_invariants(report: &FleetReport, label: &str) -> Result<()> {
    let s = &report.status.ingestion;
    let accounted = s.accepted + s.dropped_non_finite + s.dropped_out_of_order;
    if s.ingested != accounted {
        return Err(Error::Numerical(format!(
            "{label}: telemetry does not reconcile: ingested {} != accepted {} + dropped {}",
            s.ingested,
            s.accepted,
            s.dropped_non_finite + s.dropped_out_of_order,
        )));
    }
    if let Some(w) = report
        .events
        .windows(2)
        .find(|w| w[0].time_secs > w[1].time_secs)
    {
        return Err(Error::Numerical(format!(
            "{label}: event stream out of order at t={} > t={}",
            w[0].time_secs, w[1].time_secs
        )));
    }
    if report.status.alarm_queue_depth != 0 {
        return Err(Error::Numerical(format!(
            "{label}: reorder heap not drained ({} pending)",
            report.status.alarm_queue_depth
        )));
    }
    Ok(())
}

/// Runs `scenarios` clean and chaos-wrapped through the full fleet
/// supervisor and hard-asserts the module-level robustness contract.
///
/// The chaos configuration is executed three times — twice at the base
/// shard count and once at a different one — to prove clause 4
/// (bit-identical reproduction across runs and thread counts). `base`'s
/// own `perturb` hook is ignored; the clean run always feeds machines
/// straight through.
///
/// # Errors
///
/// Returns [`Error::Numerical`] naming the first violated contract
/// clause, and propagates plan/config validation and boot failures.
pub fn run_differential(
    scenarios: &[Scenario],
    base: &FleetConfig,
    plan: &ChaosPlan,
    tolerance: &Tolerance,
) -> Result<DifferentialReport> {
    if scenarios.is_empty() {
        return Err(Error::invalid("scenarios", "need at least one machine"));
    }
    plan.validate()?;

    let mut clean_cfg = base.clone();
    clean_cfg.perturb = None;
    let clean = run_guarded(clean_cfg, scenarios, "clean")?;
    check_invariants(&clean, "clean")?;

    let chaos_run = |shards: usize, label: &str| -> Result<(FleetReport, InjectionCounters)> {
        let (factory, totals) = fleet_perturber(plan)?;
        let mut cfg = base.clone();
        cfg.shards = shards;
        cfg.perturb = Some(factory);
        let report = run_guarded(cfg, scenarios, label)?;
        Ok((report, totals.snapshot()))
    };

    let (chaos, injected) = chaos_run(base.shards, "chaos")?;
    check_invariants(&chaos, "chaos")?;

    // Clause 2b: the gates ingested exactly what the engines emitted.
    if chaos.status.ingestion.ingested != injected.emitted {
        return Err(Error::Numerical(format!(
            "chaos: gate ingested {} but engines emitted {}",
            chaos.status.ingestion.ingested, injected.emitted
        )));
    }

    // Clause 4: bit-identical replay, same and different shard counts.
    let (replica, replica_injected) = chaos_run(base.shards, "chaos-replica")?;
    let alt_shards = scenarios.len().max(1);
    let (resharded, resharded_injected) = chaos_run(alt_shards, "chaos-resharded")?;
    for (other, other_injected, label) in [
        (&replica, &replica_injected, "replica"),
        (&resharded, &resharded_injected, "resharded"),
    ] {
        if other.events != chaos.events {
            return Err(Error::Numerical(format!(
                "chaos {label}: event stream not reproducible ({} vs {} events)",
                other.events.len(),
                chaos.events.len()
            )));
        }
        if other.outcomes != chaos.outcomes {
            return Err(Error::Numerical(format!(
                "chaos {label}: outcomes not reproducible"
            )));
        }
        if *other_injected != injected {
            return Err(Error::Numerical(format!(
                "chaos {label}: injection counters not reproducible"
            )));
        }
        if other.status.ingestion != chaos.status.ingestion {
            return Err(Error::Numerical(format!(
                "chaos {label}: ingestion telemetry not reproducible"
            )));
        }
    }

    // Clause 5: injection is downstream of the simulation.
    if chaos.outcomes != clean.outcomes {
        return Err(Error::Numerical(
            "chaos run changed machine outcomes (crash times / sample counts)".into(),
        ));
    }

    // Clause 6: graceful, budgeted degradation.
    let mut missed = 0usize;
    let mut false_alarms = 0usize;
    let mut rows = Vec::with_capacity(scenarios.len());
    for (i, scenario) in scenarios.iter().enumerate() {
        let crash = clean.outcomes[i].crash_time_secs;
        let clean_lead = clean.lead_time_secs(i);
        let chaos_lead = chaos.lead_time_secs(i);
        match (clean_lead, chaos_lead) {
            (Some(cl), Some(ch)) if ch < cl - tolerance.max_lead_loss_secs => {
                return Err(Error::Numerical(format!(
                    "{}: lead time degraded beyond tolerance: clean {cl:.0}s, \
                     chaos {ch:.0}s (budget {:.0}s)",
                    scenario.name, tolerance.max_lead_loss_secs
                )));
            }
            (Some(_), None) => missed += 1,
            _ => {}
        }
        if crash.is_none() {
            let clean_alarmed = clean.machine_alarms().any(|e| e.machine_index == i);
            let chaos_alarmed = chaos.machine_alarms().any(|e| e.machine_index == i);
            if chaos_alarmed && !clean_alarmed {
                false_alarms += 1;
            }
        }
        rows.push(DifferentialRow {
            scenario: scenario.name.clone(),
            crash_time_secs: crash,
            clean_lead_secs: clean_lead,
            chaos_lead_secs: chaos_lead,
        });
    }
    if missed > tolerance.max_missed_detections {
        return Err(Error::Numerical(format!(
            "{missed} detections missed under chaos (budget {})",
            tolerance.max_missed_detections
        )));
    }
    if false_alarms > tolerance.max_extra_false_alarms {
        return Err(Error::Numerical(format!(
            "{false_alarms} extra false alarms under chaos (budget {})",
            tolerance.max_extra_false_alarms
        )));
    }

    Ok(DifferentialReport {
        rows,
        clean,
        chaos,
        injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_perturber_keys_streams_independently() {
        let plan = ChaosPlan::nasty(5);
        let (factory, totals) = fleet_perturber(&plan).unwrap();
        let mut a = factory(0, Counter::AvailableBytes);
        let mut b = factory(1, Counter::AvailableBytes);
        let raw = StreamSample {
            time_secs: 0.0,
            value: 1e6,
        };
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for i in 0..500 {
            let s = StreamSample {
                time_secs: raw.time_secs + i as f64 * 5.0,
                ..raw
            };
            a.perturb(s, &mut out_a);
            b.perturb(s, &mut out_b);
        }
        assert_ne!(out_a, out_b, "machines must draw independent faults");
        // Totals only land once the perturbers retire.
        assert_eq!(totals.snapshot().offered, 0);
        drop(a);
        assert_eq!(totals.snapshot().offered, 500);
        drop(b);
        assert_eq!(totals.snapshot().offered, 1000);
    }

    #[test]
    fn invalid_plans_are_rejected_up_front() {
        let bad = ChaosPlan::new(1).with(crate::plan::InjectorSpec::spikes(2.0, 4.0));
        assert!(fleet_perturber(&bad).is_err());
    }
}
