//! Closed-loop software-rejuvenation control plane.
//!
//! Everything below the alarm stream *predicts*; this crate *acts*. It
//! turns watermark-ordered fused alarms into restart actions under a
//! configurable [`RejuvPolicy`]:
//!
//! - [`RejuvPolicy::None`] — never restart proactively (crashes still
//!   force a repair reboot): the no-op baseline.
//! - [`RejuvPolicy::Periodic`] — fixed-interval restarts regardless of
//!   machine health: the classic cron-driven rejuvenation baseline.
//! - [`RejuvPolicy::AlarmTriggered`] — restart when the fused detector
//!   vote says the machine is aging: the closed loop the 2003 paper
//!   motivates.
//!
//! The [`RejuvController`] is the deterministic arbiter in the middle:
//! it consumes [`RestartRequest`]s in global `(time, machine)` order and
//! grants or denies each against a per-machine cooldown and a
//! fleet-wide concurrent-restart budget, producing an auditable
//! [`RestartDecision`] log. Determinism is a hard requirement — the
//! stream supervisor journals granted actions (acked ⇒ durable), and
//! crash recovery replays the same request sequence expecting
//! byte-identical decisions.
//!
//! The crate deliberately knows nothing about simulations, detectors or
//! wire protocols: `aging-memsim` provides the restart *seam*,
//! `aging-stream` provides the alarm *signal* and `aging-bench` scores
//! the result with the [`availability()`] metric defined here.

pub mod availability;
pub mod controller;
pub mod policy;

pub use availability::{availability, AvailabilitySummary};
pub use controller::{DenyReason, RejuvController, RestartDecision, RestartReason, RestartRequest};
pub use policy::{RejuvConfig, RejuvPolicy};
