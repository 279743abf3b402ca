//! The memory-subsystem model: commit accounting, an expiry ledger for
//! workload allocations, and an aggregate paging model.
//!
//! The ledger books each allocation cohort under the step it expires at.
//! Steps within [`LEDGER_RING_STEPS`] of the last expired step live in a
//! calendar ring of per-step byte totals, so booking and expiring them
//! touch one slot and never allocate; only the rare cohort booked beyond
//! the ring (or at a step already expired) goes to an ordered map.
//! Totals are integer byte counts, so where a cohort is booked cannot
//! change what is freed, or when.
//!
//! The model is deliberately counter-level, not page-level: the detector
//! under study only ever sees sampled counters (as the paper's collector
//! did), so the simulator models exactly the quantities those counters
//! report — committed bytes, available (free) real memory, used swap,
//! page-fault activity — and the aging mechanisms that move them.

use crate::config::MachineConfig;
use crate::units::Bytes;
use aging_timeseries::Result;
use std::collections::BTreeMap;

/// Why a machine crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum CrashCause {
    /// Commit charge exceeded RAM + swap.
    OutOfMemory,
    /// Sustained paging storm (the system "hangs").
    Thrashing,
}

impl std::fmt::Display for CrashCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CrashCause::OutOfMemory => "out-of-memory",
            CrashCause::Thrashing => "thrashing",
        };
        f.write_str(s)
    }
}

/// Per-step snapshot of memory metrics (the raw material for the monitor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryMetrics {
    /// Free real memory available to programs.
    pub available: Bytes,
    /// Used swap space.
    pub used_swap: Bytes,
    /// Total commit charge.
    pub committed: Bytes,
    /// Live (non-leaked) workload heap.
    pub live_heap: Bytes,
    /// Page faults per second this step.
    pub page_faults_per_sec: f64,
    /// Whether the pager is in the thrashing regime.
    pub thrashing: bool,
}

/// The machine-level paging model: converts a commit charge into the
/// observable metrics (available bytes, used swap, fault rate, thrash
/// flag). Factored out of [`MemorySubsystem`] so multi-process machines
/// can apply it to an *aggregated* commit charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagingModel {
    /// Physical RAM.
    pub ram: Bytes,
    /// Swap capacity.
    pub swap: Bytes,
    /// Thrash threshold as a fraction of the commit limit.
    pub thrash_threshold: f64,
}

impl PagingModel {
    /// Builds the model from a machine configuration.
    pub fn of(config: &crate::config::MachineConfig) -> Self {
        PagingModel {
            ram: config.ram,
            swap: config.swap,
            thrash_threshold: config.thrash_threshold,
        }
    }

    /// Computes the metric snapshot for a given total commit charge.
    ///
    /// `frag_fraction` is the fraction of RAM made unusable by allocator
    /// fragmentation; `alloc_rate` the workload allocation activity
    /// (bytes/sec) driving fault pressure; `jitter` a uniform value in
    /// `[0, 1)` perturbing the pager's free floor.
    pub fn metrics(
        &self,
        committed: Bytes,
        live_heap: Bytes,
        frag_fraction: f64,
        alloc_rate_bytes_per_sec: f64,
        jitter: f64,
    ) -> MemoryMetrics {
        let effective_ram = Bytes::from_f64(self.ram.as_f64() * (1.0 - frag_fraction));

        // Free floor the pager defends: ~1.5 % of RAM, with jitter.
        let floor = Bytes::from_f64(self.ram.as_f64() * (0.01 + 0.01 * jitter));

        let (available, used_swap) = if committed.saturating_add(floor) <= effective_ram {
            (effective_ram - committed, Bytes::ZERO)
        } else {
            // Overcommitted: pager keeps only the floor free and pushes the
            // excess to swap.
            let resident_capacity = effective_ram.saturating_sub(floor);
            let swapped = committed.saturating_sub(resident_capacity);
            (floor, swapped.min(self.swap))
        };

        // Aggregate paging model: pressure rises once the commit charge
        // nears effective RAM; fault rate scales with allocation activity.
        let pressure =
            (committed.as_f64() / effective_ram.as_f64().max(1.0) - 0.85).max(0.0) / 0.15;
        let page_faults_per_sec =
            2.0 + pressure.min(4.0) * (alloc_rate_bytes_per_sec / 4096.0).max(1.0) * 0.5;

        let commit_limit = self.ram + self.swap;
        let thrashing = committed.as_f64() / commit_limit.as_f64() > self.thrash_threshold;

        MemoryMetrics {
            available,
            used_swap,
            committed,
            live_heap,
            page_faults_per_sec,
            thrashing,
        }
    }

    /// The fatal condition: commit charge above the commit limit.
    pub fn is_oom(&self, committed: Bytes) -> bool {
        committed > self.ram + self.swap
    }
}

/// Steps the expiry ledger's calendar ring spans: cohorts expiring this
/// many steps or fewer past the last expired step are booked in the ring.
/// At one-second steps that is over an hour, past every short, medium and
/// batch lifetime of the shipped workloads and most of the Pareto tail.
pub const LEDGER_RING_STEPS: u64 = 4096;

/// The memory subsystem of one machine.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    ram: Bytes,
    swap: Bytes,
    os_overhead: Bytes,
    thrash_threshold: f64,
    /// Live workload heap bytes.
    live: Bytes,
    /// Near ledger: slot `s % LEDGER_RING_STEPS` holds the bytes to free
    /// at step `s`, for every `s` in `ring_start..ring_start + LEDGER_RING_STEPS`.
    ring: Box<[Bytes]>,
    /// First step the ring spans: one past the last expired step.
    ring_start: u64,
    /// Non-empty ring slots.
    ring_cohorts: usize,
    /// Far ledger: step index → bytes to free at that step, for steps
    /// outside the ring's span. No step is booked in both ledgers.
    far: BTreeMap<u64, Bytes>,
}

impl MemorySubsystem {
    /// Creates the subsystem for a validated machine configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineConfig::validate`] failures.
    pub fn new(config: &MachineConfig) -> Result<Self> {
        config.validate()?;
        Ok(MemorySubsystem {
            ram: config.ram,
            swap: config.swap,
            os_overhead: config.os_overhead,
            thrash_threshold: config.thrash_threshold,
            live: Bytes::ZERO,
            ring: vec![Bytes::ZERO; LEDGER_RING_STEPS as usize].into_boxed_slice(),
            ring_start: 0,
            ring_cohorts: 0,
            far: BTreeMap::new(),
        })
    }

    /// Whether `step` lies in the ring's span.
    fn in_ring(&self, step: u64) -> bool {
        step >= self.ring_start && step - self.ring_start < LEDGER_RING_STEPS
    }

    /// Adds `bytes` to the ring slot of `step`, which must be in its span.
    fn book_in_ring(&mut self, step: u64, bytes: Bytes) {
        let slot = &mut self.ring[(step % LEDGER_RING_STEPS) as usize];
        if *slot == Bytes::ZERO {
            self.ring_cohorts += 1;
        }
        *slot += bytes;
    }

    /// Records an allocation of `bytes` that will be freed at `expiry_step`.
    pub fn allocate(&mut self, bytes: Bytes, expiry_step: u64) {
        if bytes == Bytes::ZERO {
            return;
        }
        self.live += bytes;
        if self.in_ring(expiry_step) {
            self.book_in_ring(expiry_step, bytes);
        } else {
            *self.far.entry(expiry_step).or_insert(Bytes::ZERO) += bytes;
        }
    }

    /// Frees every cohort whose expiry step is ≤ `step`; returns the bytes
    /// freed.
    pub fn expire(&mut self, step: u64) -> Bytes {
        let mut freed = Bytes::ZERO;
        while let Some(cohort) = self.far.first_entry() {
            if *cohort.key() > step {
                break;
            }
            freed += cohort.remove();
        }
        if step >= self.ring_start {
            let due = (step - self.ring_start).min(LEDGER_RING_STEPS - 1);
            for s in self.ring_start..=self.ring_start + due {
                let slot = &mut self.ring[(s % LEDGER_RING_STEPS) as usize];
                if *slot != Bytes::ZERO {
                    freed += std::mem::take(slot);
                    self.ring_cohorts -= 1;
                }
            }
            self.ring_start = step.saturating_add(1);
            // Far cohorts the advanced span now covers move into the ring.
            while let Some((&at, _)) = self.far.first_key_value() {
                if !self.in_ring(at) {
                    break;
                }
                let (at, bytes) = self.far.pop_first().expect("first cohort exists");
                self.book_in_ring(at, bytes);
            }
        }
        self.live = self.live.saturating_sub(freed);
        freed
    }

    /// Drops a fraction of the live heap immediately (used by rejuvenation:
    /// restarting the workload clears its heap).
    pub fn clear_live(&mut self) -> Bytes {
        let dropped = self.live;
        self.live = Bytes::ZERO;
        if self.ring_cohorts > 0 {
            self.ring.fill(Bytes::ZERO);
            self.ring_cohorts = 0;
        }
        self.far.clear();
        dropped
    }

    /// Current live workload heap.
    pub fn live(&self) -> Bytes {
        self.live
    }

    /// Number of pending expiry cohorts: distinct steps with bytes still
    /// to free (diagnostic).
    pub fn pending_cohorts(&self) -> usize {
        self.ring_cohorts + self.far.len()
    }

    /// Total commit charge given the current fault totals.
    pub fn committed(&self, leaked: Bytes, handle_pinned: Bytes) -> Bytes {
        self.os_overhead + self.live + leaked + handle_pinned
    }

    /// Computes the metric snapshot for this step.
    ///
    /// `frag_fraction` is the fraction of RAM made unusable by allocator
    /// fragmentation; `alloc_rate` is the workload allocation activity
    /// (bytes/sec) driving fault pressure; `jitter` is a small uniform
    /// random value in `[0, 1)` that perturbs the free-floor (real pagers
    /// never sit at an exact floor).
    pub fn metrics(
        &self,
        leaked: Bytes,
        handle_pinned: Bytes,
        frag_fraction: f64,
        alloc_rate_bytes_per_sec: f64,
        jitter: f64,
    ) -> MemoryMetrics {
        let committed = self.committed(leaked, handle_pinned);
        let model = PagingModel {
            ram: self.ram,
            swap: self.swap,
            thrash_threshold: self.thrash_threshold,
        };
        model.metrics(
            committed,
            self.live,
            frag_fraction,
            alloc_rate_bytes_per_sec,
            jitter,
        )
    }

    /// Checks the fatal condition: commit charge above the commit limit.
    pub fn check_oom(&self, leaked: Bytes, handle_pinned: Bytes) -> bool {
        self.committed(leaked, handle_pinned) > self.ram + self.swap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn subsystem() -> MemorySubsystem {
        MemorySubsystem::new(&MachineConfig::tiny_test()).unwrap()
    }

    #[test]
    fn allocate_and_expire_conserve_bytes() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(4), 10);
        m.allocate(Bytes::mib(2), 5);
        m.allocate(Bytes::mib(1), 10);
        assert_eq!(m.live(), Bytes::mib(7));
        assert_eq!(m.pending_cohorts(), 2);

        assert_eq!(m.expire(4), Bytes::ZERO);
        assert_eq!(m.expire(5), Bytes::mib(2));
        assert_eq!(m.live(), Bytes::mib(5));
        assert_eq!(m.expire(100), Bytes::mib(5));
        assert_eq!(m.live(), Bytes::ZERO);
        assert_eq!(m.pending_cohorts(), 0);
    }

    #[test]
    fn ring_and_far_ledgers_free_like_one_ordered_map() {
        // Cohorts booked near, beyond the ring, at expired steps and on a
        // far step the ring later reaches, expired in jumps of every size.
        let mut m = subsystem();
        let mut reference: BTreeMap<u64, Bytes> = BTreeMap::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for round in 0..4000 {
            let r = next();
            let at = match r % 5 {
                0 => now + 1 + next() % 8,
                1 => now + next() % (2 * LEDGER_RING_STEPS),
                2 => now.saturating_sub(next() % 16),
                3 => now + LEDGER_RING_STEPS + next() % 64,
                _ => now + next() % 300,
            };
            let bytes = Bytes::new(1 + next() % 4096);
            m.allocate(bytes, at);
            *reference.entry(at).or_insert(Bytes::ZERO) += bytes;
            if round % 3 == 0 {
                now += match next() % 7 {
                    0 => LEDGER_RING_STEPS + next() % 100,
                    1 => 0,
                    _ => 1 + next() % 20,
                };
                let want: Bytes = reference.range(..=now).map(|(_, &b)| b).sum();
                reference.retain(|&k, _| k > now);
                assert_eq!(m.expire(now), want, "round {round}");
                assert_eq!(m.pending_cohorts(), reference.len(), "round {round}");
            }
            if round % 1000 == 999 {
                // An expiry call behind the ring frees only what is due.
                let behind = now.saturating_sub(5);
                m.allocate(Bytes::new(7), behind);
                *reference.entry(behind).or_insert(Bytes::ZERO) += Bytes::new(7);
                let want: Bytes = reference.range(..=behind).map(|(_, &b)| b).sum();
                reference.retain(|&k, _| k > behind);
                assert_eq!(m.expire(behind), want, "round {round}");
                assert_eq!(m.pending_cohorts(), reference.len(), "round {round}");
            }
        }
        let rest: Bytes = reference.values().copied().sum();
        assert_eq!(m.live(), rest);
        assert_eq!(m.expire(u64::MAX), rest);
        assert_eq!(m.pending_cohorts(), 0);
        assert_eq!(m.live(), Bytes::ZERO);
    }

    #[test]
    fn zero_allocation_is_noop() {
        let mut m = subsystem();
        m.allocate(Bytes::ZERO, 10);
        assert_eq!(m.pending_cohorts(), 0);
    }

    #[test]
    fn clear_live_drops_everything() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(10), 100);
        let dropped = m.clear_live();
        assert_eq!(dropped, Bytes::mib(10));
        assert_eq!(m.live(), Bytes::ZERO);
        assert_eq!(m.pending_cohorts(), 0);
        assert_eq!(m.expire(1000), Bytes::ZERO);
    }

    #[test]
    fn committed_includes_all_components() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(10), 100);
        let committed = m.committed(Bytes::mib(3), Bytes::mib(1));
        // os_overhead (8 MiB) + live (10) + leaked (3) + handles (1).
        assert_eq!(committed, Bytes::mib(22));
    }

    #[test]
    fn metrics_when_plenty_free() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(10), 100);
        let metrics = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 0.0, 0.0);
        // 64 MiB RAM − 18 MiB committed = 46 MiB available.
        assert_eq!(metrics.available, Bytes::mib(46));
        assert_eq!(metrics.used_swap, Bytes::ZERO);
        assert!(!metrics.thrashing);
    }

    #[test]
    fn metrics_when_overcommitted_swap_grows_and_available_floors() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(80), 100); // above the 64 MiB of RAM
        let metrics = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 0.0, 0.5);
        assert!(metrics.used_swap > Bytes::mib(20));
        // Floor: between 1 % and 2 % of RAM.
        assert!(metrics.available >= Bytes::from_f64(0.01 * Bytes::mib(64).as_f64()));
        assert!(metrics.available <= Bytes::from_f64(0.021 * Bytes::mib(64).as_f64()));
    }

    #[test]
    fn fragmentation_shrinks_effective_ram() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(10), 100);
        let healthy = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 0.0, 0.0);
        let fragged = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.25, 0.0, 0.0);
        assert!(fragged.available < healthy.available);
    }

    #[test]
    fn fault_rate_rises_with_pressure() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(20), 100);
        let calm = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 1e6, 0.0);
        let mut m2 = subsystem();
        m2.allocate(Bytes::mib(70), 100);
        let pressured = m2.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 1e6, 0.0);
        assert!(pressured.page_faults_per_sec > calm.page_faults_per_sec);
    }

    #[test]
    fn oom_detection() {
        let mut m = subsystem();
        assert!(!m.check_oom(Bytes::ZERO, Bytes::ZERO));
        // tiny_test: commit limit 128 MiB, overhead 8 MiB.
        m.allocate(Bytes::mib(115), 100);
        assert!(!m.check_oom(Bytes::ZERO, Bytes::ZERO)); // 123 ≤ 128
        assert!(m.check_oom(Bytes::mib(10), Bytes::ZERO)); // 133 > 128
    }

    #[test]
    fn thrashing_flag_near_commit_limit() {
        let mut m = subsystem();
        m.allocate(Bytes::mib(118), 100); // 126/128 = 0.984 > 0.96
        let metrics = m.metrics(Bytes::ZERO, Bytes::ZERO, 0.0, 0.0, 0.0);
        assert!(metrics.thrashing);
    }

    #[test]
    fn crash_cause_display() {
        assert_eq!(CrashCause::OutOfMemory.to_string(), "out-of-memory");
        assert_eq!(CrashCause::Thrashing.to_string(), "thrashing");
    }
}
