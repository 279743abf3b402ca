//! The simulated machine: glue between workload, faults, memory subsystem
//! and monitor, plus fleet helpers.

use crate::config::MachineConfig;
use crate::faults::{FaultPlan, FaultState};
use crate::memory::{CrashCause, MemorySubsystem};
use crate::monitor::{CrashEvent, MonitorLog, Sample};
use crate::units::{Bytes, SimTime};
use crate::workload::{WorkloadConfig, WorkloadSampler};
use aging_timeseries::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete, reproducible experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label used in reports.
    pub name: String,
    /// Machine description.
    pub machine: MachineConfig,
    /// Workload description.
    pub workload: WorkloadConfig,
    /// Injected aging faults.
    pub faults: FaultPlan,
    /// RNG seed (scenarios are fully deterministic given the seed).
    pub seed: u64,
}

impl Scenario {
    /// The canonical aging web server on the NT4-class workstation.
    pub fn aging_web_server(seed: u64) -> Self {
        Scenario {
            name: format!("aging-web-server-{seed}"),
            machine: MachineConfig::workstation_nt4(),
            workload: WorkloadConfig::web_server(),
            faults: FaultPlan::aging(24.0),
            seed,
        }
    }

    /// A healthy (non-aging) control machine.
    pub fn healthy_web_server(seed: u64) -> Self {
        Scenario {
            name: format!("healthy-web-server-{seed}"),
            machine: MachineConfig::workstation_nt4(),
            workload: WorkloadConfig::web_server(),
            faults: FaultPlan::healthy(),
            seed,
        }
    }

    /// A fast-crashing scenario on the tiny test machine (for tests).
    pub fn tiny_aging(seed: u64, mib_per_hour: f64) -> Self {
        Scenario {
            name: format!("tiny-aging-{seed}"),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::tiny_test(),
            faults: FaultPlan::aging(mib_per_hour),
            seed,
        }
    }

    /// GPU-serving-style aging on the tiny test machine: monotone
    /// KV-cache-style heap growth plus aggressive fragmentation under
    /// the bursty [`WorkloadConfig::gpu_inference`] load — the
    /// LLM-serving aging mode (cache growth + allocator fragmentation)
    /// PAPERS.md's GPU-serving study characterises.
    pub fn gpu_serving(seed: u64, mib_per_hour: f64) -> Self {
        Scenario {
            name: format!("gpu-serving-{seed}"),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::gpu_inference(),
            faults: FaultPlan {
                leaks: vec![crate::faults::LeakSpec::linear_mib_per_hour(mib_per_hour)],
                fragmentation: Some(crate::faults::FragmentationSpec {
                    fraction_per_hour: 0.02,
                    max_fraction: 0.4,
                }),
                handle_leak: None,
                reclaim: None,
            },
            seed,
        }
    }

    /// Healthy control for [`Scenario::gpu_serving`]: identical bursty
    /// inference load, no injected aging.
    pub fn gpu_serving_healthy(seed: u64) -> Self {
        Scenario {
            name: format!("gpu-serving-healthy-{seed}"),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::gpu_inference(),
            faults: FaultPlan::healthy(),
            seed,
        }
    }

    /// Mobile-style app churn on the tiny test machine: a load-coupled
    /// (bursty) leak whose accumulation is partially reclaimed every
    /// half hour — the platform killing background components — leaving
    /// a residue that still ratchets toward exhaustion, per the Android
    /// aging study in PAPERS.md. The sawtooth rides the
    /// [`WorkloadConfig::mobile_app_churn`] usage cycle.
    pub fn mobile_churn(seed: u64, mib_per_hour: f64) -> Self {
        Scenario {
            name: format!("mobile-churn-{seed}"),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::mobile_app_churn(),
            faults: FaultPlan {
                leaks: vec![crate::faults::LeakSpec {
                    bytes_per_hour: mib_per_hour * 1024.0 * 1024.0,
                    mode: crate::faults::LeakMode::Bursty { p: 0.08 },
                    start_secs: 0.0,
                }],
                fragmentation: Some(crate::faults::FragmentationSpec {
                    fraction_per_hour: 0.004,
                    max_fraction: 0.25,
                }),
                handle_leak: None,
                reclaim: Some(crate::faults::ReclaimSpec {
                    period_secs: 1800.0,
                    reclaim_fraction: 0.2,
                }),
            },
            seed,
        }
    }

    /// Healthy control for [`Scenario::mobile_churn`]: identical churny
    /// load and reclaim cycling, but nothing leaks, so the reclaim has
    /// nothing to bite on.
    pub fn mobile_churn_healthy(seed: u64) -> Self {
        Scenario {
            name: format!("mobile-churn-healthy-{seed}"),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::mobile_app_churn(),
            faults: FaultPlan {
                reclaim: Some(crate::faults::ReclaimSpec {
                    period_secs: 1800.0,
                    reclaim_fraction: 0.2,
                }),
                ..FaultPlan::healthy()
            },
            seed,
        }
    }
}

/// Result of simulating one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario label.
    pub scenario_name: String,
    /// The monitor log (counter series + crash events).
    pub log: MonitorLog,
    /// Total simulated (up) time in seconds.
    pub simulated_secs: f64,
    /// Number of rejuvenations performed (by external policy drivers).
    pub rejuvenations: usize,
}

impl SimReport {
    /// The first crash, if any.
    pub fn first_crash(&self) -> Option<CrashEvent> {
        self.log.crashes().first().copied()
    }
}

/// Where [`Machine::next_sample`] stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tick {
    /// The monitor published a new row.
    Sample(Sample),
    /// The machine crashed before publishing one.
    Crash(CrashEvent),
    /// The clock reached the horizon before the next row.
    Horizon,
}

/// A running simulated machine.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    scenario_name: String,
    sampler: WorkloadSampler,
    faults: FaultState,
    fault_plan: FaultPlan,
    workload_config: WorkloadConfig,
    memory: MemorySubsystem,
    rng: StdRng,
    step_index: u64,
    steps_per_sample: u64,
    thrash_secs: f64,
    alloc_bytes_since_sample: f64,
    alloc_bytes_this_step: f64,
    log: MonitorLog,
    last_sample: Option<Sample>,
    crashed: Option<CrashEvent>,
    rejuvenations: usize,
    down_until_step: u64,
    downtime_secs: f64,
}

impl Machine {
    /// Boots a machine for the given scenario.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn boot(scenario: &Scenario) -> Result<Self> {
        scenario.machine.validate()?;
        let steps_per_sample =
            (scenario.machine.sample_period_secs / scenario.machine.step_secs).round() as u64;
        Ok(Machine {
            config: scenario.machine.clone(),
            scenario_name: scenario.name.clone(),
            sampler: WorkloadSampler::new(scenario.workload.clone())?,
            faults: FaultState::new(scenario.faults.clone())?,
            fault_plan: scenario.faults.clone(),
            workload_config: scenario.workload.clone(),
            memory: MemorySubsystem::new(&scenario.machine)?,
            rng: StdRng::seed_from_u64(scenario.seed),
            step_index: 0,
            steps_per_sample,
            thrash_secs: 0.0,
            alloc_bytes_since_sample: 0.0,
            alloc_bytes_this_step: 0.0,
            log: MonitorLog::new(scenario.machine.sample_period_secs)?,
            last_sample: None,
            crashed: None,
            rejuvenations: 0,
            down_until_step: 0,
            downtime_secs: 0.0,
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.step_index as f64 * self.config.step_secs)
    }

    /// Whether the machine has crashed (and stopped).
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// The machine's monitor log so far.
    pub fn log(&self) -> &MonitorLog {
        &self.log
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of rejuvenations performed so far.
    pub fn rejuvenations(&self) -> usize {
        self.rejuvenations
    }

    /// Advances one simulation step. Returns the crash event if the machine
    /// died during this step; a crashed machine no longer advances.
    pub fn step(&mut self) -> Option<CrashEvent> {
        if self.crashed.is_some() {
            return self.crashed;
        }
        // Down for a restart: the simulation clock advances but nothing
        // runs — no workload, no fault accrual, no monitor samples.
        if self.step_index < self.down_until_step {
            self.last_sample = None;
            self.step_index += 1;
            return None;
        }
        let dt = self.config.step_secs;
        let now = self.step_index as f64 * dt;

        // Workload allocations.
        self.alloc_bytes_this_step = 0.0;
        let requests = self.sampler.step(now, dt, &mut self.rng);
        for req in requests {
            let expiry = self.step_index + 1 + (req.lifetime_secs / dt).ceil() as u64;
            self.memory.allocate(req.bytes, expiry);
            self.alloc_bytes_this_step += req.bytes.as_f64();
        }
        // Periodic batch job: a transient lump held for batch_hold_secs.
        let wl = &self.workload_config;
        if wl.batch_bytes > Bytes::ZERO && wl.batch_period_secs > 0.0 {
            let period_steps = (wl.batch_period_secs / dt).round().max(1.0) as u64;
            if self.step_index % period_steps == period_steps - 1 {
                let expiry = self.step_index + 1 + (wl.batch_hold_secs / dt).ceil() as u64;
                self.memory.allocate(wl.batch_bytes, expiry);
                self.alloc_bytes_this_step += wl.batch_bytes.as_f64();
            }
        }
        self.alloc_bytes_since_sample += self.alloc_bytes_this_step;

        // Frees and aging.
        self.memory.expire(self.step_index);
        self.faults.step(now, dt, &mut self.rng);

        // Fatal conditions.
        if self
            .memory
            .check_oom(self.faults.leaked(), self.faults.handle_bytes())
        {
            return self.die(CrashCause::OutOfMemory);
        }
        let metrics = self.current_metrics();
        if metrics.thrashing {
            self.thrash_secs += dt;
            if self.thrash_secs >= self.config.thrash_crash_secs {
                return self.die(CrashCause::Thrashing);
            }
        } else {
            self.thrash_secs = 0.0;
        }

        // Sampling.
        if self.step_index % self.steps_per_sample == self.steps_per_sample - 1 {
            let alloc_rate = self.alloc_bytes_since_sample / self.config.sample_period_secs;
            let sample = Sample {
                time: self.now(),
                available: metrics.available,
                used_swap: metrics.used_swap,
                committed: metrics.committed,
                live_heap: metrics.live_heap,
                page_faults_per_sec: metrics.page_faults_per_sec,
                handle_count: self.faults.handle_count(),
                alloc_rate,
            };
            self.log.record(&sample);
            self.last_sample = Some(sample);
            self.alloc_bytes_since_sample = 0.0;
        } else {
            self.last_sample = None;
        }

        self.step_index += 1;
        None
    }

    /// Steps until the monitor publishes a new row, stopping once the
    /// clock reaches `horizon_secs` or on a crash. This is the one
    /// stepping rule every live feed uses — the fleet supervisor's
    /// shards, the stream crate's machine source and the wire load
    /// generator — so they all see the same rows. A crashed machine
    /// reports its crash again.
    pub fn next_sample(&mut self, horizon_secs: f64) -> Tick {
        loop {
            if self.now().as_secs() >= horizon_secs {
                return Tick::Horizon;
            }
            if let Some(crash) = self.step() {
                return Tick::Crash(crash);
            }
            if let Some(sample) = self.last_sample {
                return Tick::Sample(sample);
            }
        }
    }

    fn current_metrics(&mut self) -> crate::memory::MemoryMetrics {
        let jitter: f64 = self.rng.gen_range(0.0..1.0);
        self.memory.metrics(
            self.faults.leaked(),
            self.faults.handle_bytes(),
            self.faults.fragmentation_fraction(),
            self.alloc_bytes_this_step / self.config.step_secs,
            jitter,
        )
    }

    fn die(&mut self, cause: CrashCause) -> Option<CrashEvent> {
        let event = CrashEvent {
            time: self.now(),
            cause,
        };
        self.log.record_crash(event);
        self.crashed = Some(event);
        self.crashed
    }

    /// Runs for up to `secs` of simulated time, stopping early on a crash.
    /// Returns the crash event if one occurred.
    pub fn run_for(&mut self, secs: f64) -> Option<CrashEvent> {
        let steps = (secs / self.config.step_secs).ceil() as u64;
        for _ in 0..steps {
            if let Some(crash) = self.step() {
                return Some(crash);
            }
        }
        None
    }

    /// Rejuvenates the machine: restarts the workload process(es), clearing
    /// the live heap, leaked memory, leaked handles and accumulated
    /// fragmentation. The monitor log continues across the restart.
    ///
    /// A crashed machine is also revived (reboot).
    pub fn rejuvenate(&mut self) {
        self.memory.clear_live();
        // Reset aging state: a restart releases leaked memory and handles.
        self.faults = FaultState::new(self.fault_plan.clone()).expect("plan validated at boot");
        self.thrash_secs = 0.0;
        self.crashed = None;
        self.rejuvenations += 1;
    }

    /// Begins a restart (planned rejuvenation or crash-repair reboot):
    /// the machine [`Machine::rejuvenate`]s — live heap, leaks, handles,
    /// fragmentation and thrash accumulation all reset — and then stays
    /// *down* for `downtime_secs` of simulated time. While down, the
    /// clock advances but no workload runs, no faults accrue and no
    /// monitor samples are emitted; afterwards the heap refills from
    /// empty (the post-restart transient detectors must ride out). The
    /// outage accrues into [`Machine::downtime_secs`].
    pub fn begin_restart(&mut self, downtime_secs: f64) {
        self.rejuvenate();
        let steps = (downtime_secs / self.config.step_secs).ceil().max(0.0) as u64;
        self.down_until_step = self.step_index + steps;
        self.downtime_secs += downtime_secs;
    }

    /// Whether the machine is inside a restart outage window.
    pub fn is_down(&self) -> bool {
        self.step_index < self.down_until_step
    }

    /// Total restart/repair outage accrued so far, in seconds.
    pub fn downtime_secs(&self) -> f64 {
        self.downtime_secs
    }

    /// Finishes the run, producing the report.
    pub fn into_report(self) -> SimReport {
        SimReport {
            scenario_name: self.scenario_name,
            log: self.log,
            simulated_secs: self.step_index as f64 * self.config.step_secs,
            rejuvenations: self.rejuvenations,
        }
    }
}

/// Simulates one scenario for up to `max_secs`, stopping at the first
/// crash.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn simulate(scenario: &Scenario, max_secs: f64) -> Result<SimReport> {
    let mut machine = Machine::boot(scenario)?;
    machine.run_for(max_secs);
    Ok(machine.into_report())
}

/// Simulates a scenario for `total_secs`, rebooting after every crash, so
/// the resulting log contains multiple crash events — like the multi-week,
/// multi-crash logs of the paper's testbed.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn simulate_with_reboots(scenario: &Scenario, total_secs: f64) -> Result<SimReport> {
    let mut machine = Machine::boot(scenario)?;
    let steps = (total_secs / scenario.machine.step_secs).ceil() as u64;
    for _ in 0..steps {
        if machine.step().is_some() {
            machine.rejuvenate(); // reboot
        }
    }
    let mut report = machine.into_report();
    // Reboots are not policy rejuvenations; expose them via crash count.
    report.rejuvenations = 0;
    Ok(report)
}

/// Simulates several scenarios in parallel on the global
/// [`aging_par::Pool`] (bounded by `AGING_THREADS`, unlike the former
/// thread-per-scenario fan-out).
///
/// # Errors
///
/// Propagates the first (lowest-index) scenario failure.
pub fn simulate_fleet(scenarios: &[Scenario], max_secs: f64) -> Result<Vec<SimReport>> {
    simulate_fleet_in(scenarios, max_secs, aging_par::Pool::global())
}

/// [`simulate_fleet`] on an explicit pool. Each scenario is simulated
/// independently from its own seed, so the fleet is bit-identical to the
/// sequential runs for any pool size.
///
/// # Errors
///
/// Same failure modes as [`simulate_fleet`].
pub fn simulate_fleet_in(
    scenarios: &[Scenario],
    max_secs: f64,
    pool: &aging_par::Pool,
) -> Result<Vec<SimReport>> {
    pool.try_map(scenarios, |sc| simulate(sc, max_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Counter;

    #[test]
    fn healthy_machine_survives() {
        let scenario = Scenario {
            name: "healthy".into(),
            machine: MachineConfig::tiny_test(),
            workload: WorkloadConfig::tiny_test(),
            faults: FaultPlan::healthy(),
            seed: 1,
        };
        let report = simulate(&scenario, 3600.0).unwrap();
        assert!(report.first_crash().is_none());
        assert_eq!(report.log.len(), 720); // 3600 s / 5 s sampling
        assert!((report.simulated_secs - 3600.0).abs() < 2.0);
    }

    #[test]
    fn aggressive_leak_crashes_tiny_machine() {
        // 1 GiB/hour leak on a 128 MiB commit limit: crash well within 1 h.
        let scenario = Scenario::tiny_aging(2, 1024.0);
        let report = simulate(&scenario, 3600.0 * 2.0).unwrap();
        let crash = report.first_crash().expect("machine must crash");
        assert!(crash.time.as_secs() < 3600.0, "crash at {}", crash.time);
        // Crash recorded in the log too.
        assert_eq!(report.log.crashes().len(), 1);
    }

    #[test]
    fn crash_is_preceded_by_resource_depletion() {
        let scenario = Scenario::tiny_aging(3, 512.0);
        let report = simulate(&scenario, 3600.0 * 4.0).unwrap();
        assert!(report.first_crash().is_some());
        let avail = report.log.values(Counter::AvailableBytes);
        let swap = report.log.values(Counter::UsedSwapBytes);
        assert!(avail.len() > 20);
        // Early free memory far exceeds late free memory.
        let early = avail[2];
        let late = avail[avail.len() - 2];
        assert!(late < early, "early {early} late {late}");
        // Swap climbs before the end.
        assert!(swap[swap.len() - 2] > swap[1]);
    }

    #[test]
    fn simulation_is_deterministic() {
        let scenario = Scenario::tiny_aging(7, 256.0);
        let a = simulate(&scenario, 1800.0).unwrap();
        let b = simulate(&scenario, 1800.0).unwrap();
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate(&Scenario::tiny_aging(1, 256.0), 900.0).unwrap();
        let b = simulate(&Scenario::tiny_aging(2, 256.0), 900.0).unwrap();
        assert_ne!(
            a.log.values(Counter::AvailableBytes),
            b.log.values(Counter::AvailableBytes)
        );
    }

    #[test]
    fn next_sample_yields_each_row_then_the_crash_or_the_horizon() {
        let scenario = Scenario::tiny_aging(4, 2048.0);
        let mut machine = Machine::boot(&scenario).unwrap();
        let mut rows = 0;
        let crash = loop {
            match machine.next_sample(4.0 * 3600.0) {
                Tick::Sample(sample) => {
                    rows += 1;
                    assert_eq!(machine.log().len(), rows);
                    assert_eq!(Some(sample), machine.last_sample);
                }
                Tick::Crash(crash) => break crash,
                Tick::Horizon => panic!("the leak crashes first"),
            }
        };
        assert_eq!(machine.next_sample(4.0 * 3600.0), Tick::Crash(crash));
        assert_eq!(
            simulate(&scenario, 4.0 * 3600.0).unwrap().log,
            *machine.log()
        );

        let mut healthy = Machine::boot(&Scenario::tiny_aging(4, 0.0)).unwrap();
        let mut rows = 0;
        while let Tick::Sample(_) = healthy.next_sample(600.0) {
            rows += 1;
        }
        assert_eq!(rows, 120, "600 s of 5 s rows");
        assert_eq!(healthy.next_sample(600.0), Tick::Horizon);
    }

    #[test]
    fn crashed_machine_stops_stepping() {
        let mut machine = Machine::boot(&Scenario::tiny_aging(4, 2048.0)).unwrap();
        let crash = machine.run_for(3600.0 * 4.0).expect("crash");
        let len_at_crash = machine.log().len();
        assert!(machine.is_crashed());
        // Further steps are no-ops.
        assert_eq!(machine.step(), Some(crash));
        assert_eq!(machine.log().len(), len_at_crash);
    }

    #[test]
    fn rejuvenation_restores_headroom_and_revives() {
        let mut machine = Machine::boot(&Scenario::tiny_aging(5, 2048.0)).unwrap();
        machine.run_for(3600.0 * 4.0).expect("crash");
        assert!(machine.is_crashed());
        machine.rejuvenate();
        assert!(!machine.is_crashed());
        assert_eq!(machine.rejuvenations(), 1);
        // Should survive a while again after rejuvenation.
        let crash = machine.run_for(60.0);
        assert!(crash.is_none());
    }

    #[test]
    fn reboot_logs_capture_multiple_crashes() {
        let scenario = Scenario::tiny_aging(6, 2048.0);
        let report = simulate_with_reboots(&scenario, 3600.0 * 6.0).unwrap();
        assert!(
            report.log.crashes().len() >= 2,
            "only {} crashes",
            report.log.crashes().len()
        );
        // Crash times strictly increase.
        let times: Vec<f64> = report
            .log
            .crashes()
            .iter()
            .map(|c| c.time.as_secs())
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn begin_restart_holds_the_machine_down_then_revives_it() {
        let mut machine = Machine::boot(&Scenario::tiny_aging(9, 512.0)).unwrap();
        machine.run_for(300.0);
        assert!(!machine.is_crashed());
        let samples_before = machine.log().len();
        machine.begin_restart(60.0);
        assert!(machine.is_down());
        assert_eq!(machine.rejuvenations(), 1);
        // 60 s at 1 s steps: the outage emits no samples at all.
        for _ in 0..60 {
            assert!(machine.step().is_none());
            assert!(machine.last_sample.is_none());
        }
        assert!(!machine.is_down());
        assert_eq!(machine.log().len(), samples_before);
        assert!((machine.downtime_secs() - 60.0).abs() < 1e-9);
        // Back up: sampling resumes on the same 5 s grid, strictly after
        // the outage, and the refilled heap starts from a clean slate.
        machine.run_for(120.0);
        assert!(machine.log().len() > samples_before);
        let times = machine.log().values(Counter::AvailableBytes);
        assert!(times.len() == machine.log().len());
        assert!(!machine.is_crashed());
    }

    #[test]
    fn begin_restart_also_repairs_a_crash() {
        let mut machine = Machine::boot(&Scenario::tiny_aging(10, 2048.0)).unwrap();
        machine.run_for(3600.0 * 4.0).expect("crash");
        assert!(machine.is_crashed());
        machine.begin_restart(300.0);
        assert!(!machine.is_crashed());
        assert!(machine.is_down());
        let crash = machine.run_for(400.0);
        assert!(crash.is_none(), "fresh heap must survive the transient");
        assert!((machine.downtime_secs() - 300.0).abs() < 1e-9);
    }

    /// The GPU-serving family: monotone growth statistics — committed
    /// bytes trend strictly upward until the machine dies, across seeds,
    /// while the healthy control survives flat.
    #[test]
    fn gpu_serving_ages_monotonically_across_seeds() {
        for seed in [777u64, 1234, 41] {
            let scenario = Scenario::gpu_serving(seed, 192.0);
            let report = simulate(&scenario, 8.0 * 3600.0).unwrap();
            let crash = report.first_crash().expect("gpu aging must crash");
            assert!(
                crash.time.as_secs() > 600.0,
                "seed {seed}: crashed implausibly early at {}",
                crash.time
            );
            // Long-run growth rate: compare mean committed bytes in the
            // first and last quarters of the (pre-crash) trace.
            let committed = report.log.values(Counter::CommittedBytes);
            let q = committed.len() / 4;
            assert!(q > 4, "seed {seed}: trace too short ({})", committed.len());
            let early: f64 = committed[..q].iter().sum::<f64>() / q as f64;
            let late: f64 = committed[committed.len() - q..].iter().sum::<f64>() / q as f64;
            assert!(
                late > 1.5 * early,
                "seed {seed}: committed grew {early} → {late}, not monotone aging"
            );
        }
        for seed in [777u64, 1234] {
            let report = simulate(&Scenario::gpu_serving_healthy(seed), 8.0 * 3600.0).unwrap();
            assert!(
                report.first_crash().is_none(),
                "seed {seed}: healthy gpu control crashed"
            );
        }
    }

    /// The mobile-churn family: reclaim-cycle statistics — the committed
    /// trace shows repeated partial-reclaim drops (a sawtooth, not a
    /// ramp) yet still ratchets toward exhaustion, across seeds.
    #[test]
    fn mobile_churn_sawtooths_then_exhausts_across_seeds() {
        for seed in [777u64, 1234, 41] {
            let scenario = Scenario::mobile_churn(seed, 72.0);
            let report = simulate(&scenario, 12.0 * 3600.0).unwrap();
            let crash = report.first_crash().expect("mobile churn must crash");
            // The machine must live through several reclaim cycles (the
            // whole point of the family): > 2 × the 1800 s period.
            assert!(
                crash.time.as_secs() > 2.0 * 1800.0,
                "seed {seed}: crashed at {} before the sawtooth developed",
                crash.time
            );
            let committed = report.log.values(Counter::CommittedBytes);
            // Count large single-sample drops: reclaim releases ≥ a few
            // MiB at once, far beyond workload-level fluctuation.
            let threshold = 4.0 * 1024.0 * 1024.0;
            let drops = committed
                .windows(2)
                .filter(|w| w[0] - w[1] > threshold)
                .count();
            assert!(
                drops >= 2,
                "seed {seed}: only {drops} reclaim drops in the committed trace"
            );
            // Still a net ratchet: the last quarter sits above the first.
            let q = committed.len() / 4;
            let early: f64 = committed[..q].iter().sum::<f64>() / q as f64;
            let late: f64 = committed[committed.len() - q..].iter().sum::<f64>() / q as f64;
            assert!(
                late > early,
                "seed {seed}: no residual growth ({early} → {late})"
            );
        }
        for seed in [777u64, 1234] {
            let report = simulate(&Scenario::mobile_churn_healthy(seed), 12.0 * 3600.0).unwrap();
            assert!(
                report.first_crash().is_none(),
                "seed {seed}: healthy mobile control crashed"
            );
        }
    }

    #[test]
    fn fleet_runs_all_scenarios() {
        let scenarios = vec![
            Scenario::tiny_aging(1, 512.0),
            Scenario::tiny_aging(2, 512.0),
            Scenario {
                name: "control".into(),
                machine: MachineConfig::tiny_test(),
                workload: WorkloadConfig::tiny_test(),
                faults: FaultPlan::healthy(),
                seed: 3,
            },
        ];
        let reports = simulate_fleet(&scenarios, 1800.0).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].scenario_name, "control");
        // Fleet must equal individual runs (thread scheduling must not
        // affect determinism).
        let solo = simulate(&scenarios[0], 1800.0).unwrap();
        assert_eq!(solo.log, reports[0].log);
    }

    #[test]
    fn counters_are_recorded_for_all_kinds() {
        let report = simulate(&Scenario::tiny_aging(8, 128.0), 600.0).unwrap();
        for c in Counter::ALL {
            assert_eq!(report.log.values(c).len(), report.log.len(), "{c}");
        }
        let ts = report.log.series(Counter::AvailableBytes).unwrap();
        assert_eq!(ts.dt(), 5.0);
    }
}
