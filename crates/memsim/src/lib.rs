//! # aging-memsim
//!
//! Discrete-time operating-system memory-subsystem simulator — the testbed
//! substitute for the `holder-aging` workspace (reproduction of *"Software
//! Aging and Multifractality of Memory Resources"*, DSN 2003).
//!
//! The paper instrumented Windows NT 4.0 / 2000 machines under synthetic
//! stress load and recorded memory counters until the systems crashed.
//! That hardware and its crash logs are unavailable, so this crate rebuilds
//! the pipeline's *data source*: a seeded, deterministic simulator whose
//! sampled counters have the same qualitative structure — bursty,
//! heavy-tailed allocation traffic superimposed on slow exhaustion trends,
//! terminated by out-of-memory or thrashing crashes.
//!
//! - [`MachineConfig`] — RAM/swap/OS parameters (NT4/W2K-era presets),
//! - [`WorkloadConfig`] — heavy-tailed, bursty allocation workloads,
//! - [`FaultPlan`] — leak / fragmentation / handle-leak aging injection,
//! - [`Machine`] / [`simulate`] / [`simulate_fleet`] — execution,
//! - [`MonitorLog`] — sampled counter series + crash events.
//!
//! # Examples
//!
//! ```
//! use aging_memsim::{simulate, Scenario};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! let scenario = Scenario::tiny_aging(42, 512.0); // 512 MiB/h leak
//! let report = simulate(&scenario, 4.0 * 3600.0)?;
//! let crash = report.first_crash().expect("aggressive leak crashes");
//! println!("crashed at {} ({})", crash.time, crash.cause);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod dist;
pub mod faults;
pub mod machine;
pub mod memory;
pub mod monitor;
pub mod procsim;
pub mod units;
pub mod workload;

pub use config::MachineConfig;
pub use faults::{FaultPlan, FragmentationSpec, HandleLeakSpec, LeakMode, LeakSpec, ReclaimSpec};
pub use machine::{
    simulate, simulate_fleet, simulate_fleet_in, simulate_with_reboots, Machine, Scenario,
    SimReport, Tick,
};
pub use memory::{CrashCause, PagingModel};
pub use monitor::{Counter, CrashEvent, MonitorLog, Sample};
pub use procsim::{MultiMachine, MultiScenario, ProcessSpec};
pub use units::{Bytes, SimTime};
pub use workload::WorkloadConfig;
