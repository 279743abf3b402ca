//! Observability: per-stage counters, fixed-bucket latency histograms and
//! serialisable status snapshots.
//!
//! Every stage of the streaming pipeline counts what it does; the
//! supervisor aggregates those counts into a [`StatusSnapshot`] that
//! serialises to JSON (machine consumption) and renders as a one-line
//! plain-text status (operator consumption). Nothing here locks or
//! allocates on the hot path — counters are plain integers owned by their
//! stage and snapshotted by value.

use serde::{Deserialize, Serialize};

use aging_timeseries::Result;

/// Ingestion/gating counters for one stream (or aggregated over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCounters {
    /// Raw samples pulled from the source.
    pub ingested: u64,
    /// Samples accepted into the detector.
    pub accepted: u64,
    /// Samples dropped for non-finite value or timestamp.
    pub dropped_non_finite: u64,
    /// Samples dropped for a non-advancing timestamp.
    pub dropped_out_of_order: u64,
    /// Feed discontinuities (detector resets forced by long gaps).
    pub gaps_detected: u64,
    /// Quarantine recoveries: detector resets forced after a run of
    /// `quarantine_after` consecutive drops (see
    /// [`crate::gate::GateConfig::quarantine_after`]).
    pub quarantines: u64,
}

impl StageCounters {
    /// Component-wise accumulation (for fleet-level aggregation).
    pub fn merge(&mut self, other: &StageCounters) {
        self.ingested += other.ingested;
        self.accepted += other.accepted;
        self.dropped_non_finite += other.dropped_non_finite;
        self.dropped_out_of_order += other.dropped_out_of_order;
        self.gaps_detected += other.gaps_detected;
        self.quarantines += other.quarantines;
    }

    /// Total dropped samples.
    pub fn dropped(&self) -> u64 {
        self.dropped_non_finite + self.dropped_out_of_order
    }

    /// Serializes the counters via [`aging_timeseries::persist`].
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use aging_timeseries::persist::put_u64;
        put_u64(out, self.ingested);
        put_u64(out, self.accepted);
        put_u64(out, self.dropped_non_finite);
        put_u64(out, self.dropped_out_of_order);
        put_u64(out, self.gaps_detected);
        put_u64(out, self.quarantines);
    }

    /// Restores counters written by [`StageCounters::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::InvalidParameter`] on a
    /// truncated blob.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        self.ingested = r.u64()?;
        self.accepted = r.u64()?;
        self.dropped_non_finite = r.u64()?;
        self.dropped_out_of_order = r.u64()?;
        self.gaps_detected = r.u64()?;
        self.quarantines = r.u64()?;
        Ok(())
    }
}

/// Upper edges of the fixed latency buckets, in microseconds. The last
/// bucket is unbounded.
pub const LATENCY_BUCKET_EDGES_US: [u64; 8] = [10, 30, 100, 300, 1_000, 3_000, 10_000, 100_000];

/// A fixed-bucket histogram of per-sample detector latencies.
///
/// Fixed buckets keep recording O(1) with zero allocation and make
/// snapshots trivially mergeable across shards — the standard trade
/// against exact quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// `counts[i]` = observations ≤ `LATENCY_BUCKET_EDGES_US[i]` (and
    /// above the previous edge); the final slot counts the overflow.
    pub counts: [u64; 9],
    /// Total observations.
    pub total: u64,
    /// Sum of all observed latencies, µs (for the mean).
    pub sum_us: u64,
    /// Largest observed latency, µs.
    pub max_us: u64,
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let slot = LATENCY_BUCKET_EDGES_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_BUCKET_EDGES_US.len());
        self.counts[slot] += 1;
        self.total += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Records an elapsed [`std::time::Duration`].
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64
        }
    }

    /// Smallest bucket edge covering at least `q` (0..=1) of the mass —
    /// an upper bound on the true quantile. Returns `None` when empty.
    pub fn quantile_upper_bound_us(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // Clamp the rank to ≥ 1: with q = 0 a zero target would be
        // "reached" at the first bucket even when it is empty, reporting
        // the lowest edge regardless of where the mass actually lies. The
        // 0-quantile is the minimum — the first *non-empty* bucket's edge.
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(
                    LATENCY_BUCKET_EDGES_US
                        .get(i)
                        .copied()
                        .unwrap_or(self.max_us.max(1)),
                );
            }
        }
        Some(self.max_us.max(1))
    }

    /// Merges another histogram into this one.
    ///
    /// Audited field by field against the replay semantics (recording
    /// both underlying observation streams into one histogram): bucket
    /// counts — including the overflow slot, `counts[8]` — `total` and
    /// `sum_us` are sums, while `max_us` combines with `max` (the maximum
    /// of a concatenation is the maximum of the maxima). The equivalence
    /// `merge(a, b) == replay(a ++ b)` is locked by a proptest in
    /// `tests/telemetry_props.rs`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Serializes the histogram via [`aging_timeseries::persist`].
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use aging_timeseries::persist::put_u64;
        for &c in &self.counts {
            put_u64(out, c);
        }
        put_u64(out, self.total);
        put_u64(out, self.sum_us);
        put_u64(out, self.max_us);
    }

    /// Restores a histogram written by [`LatencyHistogram::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::InvalidParameter`] on a
    /// truncated blob.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        for c in &mut self.counts {
            *c = r.u64()?;
        }
        self.total = r.u64()?;
        self.sum_us = r.u64()?;
        self.max_us = r.u64()?;
        Ok(())
    }
}

/// Point-in-time state of the whole streaming pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Monotonic snapshot ordinal (one per status period).
    pub sequence: u64,
    /// Simulated/stream clock at the snapshot, seconds.
    pub stream_time_secs: f64,
    /// Machines still feeding samples.
    pub machines_live: usize,
    /// Machines whose feeds have ended (crash or horizon).
    pub machines_finished: usize,
    /// Fleet-aggregated ingestion counters.
    pub ingestion: StageCounters,
    /// Fleet-aggregated per-sample detector latency.
    pub detector_latency: LatencyHistogram,
    /// Warnings emitted so far.
    pub warnings_emitted: u64,
    /// Alarms emitted so far.
    pub alarms_emitted: u64,
    /// Alarm-channel depth at the snapshot (backpressure signal).
    pub alarm_queue_depth: usize,
    /// Telemetry snapshots dropped because the channel was full (the
    /// documented lossy path).
    pub telemetry_dropped: u64,
    /// Detector streams poisoned by an estimator error and disabled.
    pub detector_errors: u64,
    /// Rejuvenation restarts granted by the controller so far (zero when
    /// no rejuvenation policy is configured).
    pub restarts_granted: u64,
    /// Restart requests denied (cooldown or budget) so far.
    pub restarts_denied: u64,
}

/// Canonical name for the serialisable pipeline snapshot schema.
///
/// The supervisor's JSON status dump and the `aging-serve` query replies
/// both serialise exactly this type, so operators see one schema no
/// matter which surface they scrape.
pub type Snapshot = StatusSnapshot;

/// Serialisable state of one counter stream inside a machine pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStreamSnapshot {
    /// Monitored counter, by its stable display name.
    pub counter: String,
    /// Detector family name running on the counter.
    pub detector: String,
    /// Whether the detector's confirmed alarm has latched.
    pub alarmed: bool,
    /// Whether the stream was poisoned by an estimator error and disabled.
    pub disabled: bool,
    /// Whether the gate currently holds the stream in quarantine
    /// (a drop burst is in progress).
    pub degraded: bool,
    /// Latest multifractal spectrum width Δα, when the stream runs a
    /// spectrum-width detector that has emitted at least one window.
    pub delta_alpha: Option<f64>,
    /// This stream's gate counters.
    pub ingestion: StageCounters,
}

/// Serialisable state of one machine's whole detection pipeline —
/// the payload of a per-machine query reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    /// Caller-assigned machine identity.
    pub machine_id: u64,
    /// Display name.
    pub name: String,
    /// Newest sample-clock reading seen, seconds (`None` before the
    /// first finite sample).
    pub last_time_secs: Option<f64>,
    /// Whether the feed has ended.
    pub finished: bool,
    /// Whether the machine-level fused alarm has fired.
    pub fused: bool,
    /// Detector streams poisoned by an estimator error.
    pub detector_errors: u64,
    /// Gate counters aggregated over all this machine's streams.
    pub ingestion: StageCounters,
    /// Per-counter stream states, in detector-config order.
    pub streams: Vec<CounterStreamSnapshot>,
}

impl StatusSnapshot {
    /// Serializes the snapshot via [`aging_timeseries::persist`], field by
    /// field in declaration order: integers as `u64` (the `usize` fields
    /// widened), the stream clock as its `f64` bits, and the ingestion
    /// counters and latency histogram through their own codecs.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use aging_timeseries::persist::{put_f64, put_u64, put_usize};
        put_u64(out, self.sequence);
        put_f64(out, self.stream_time_secs);
        put_usize(out, self.machines_live);
        put_usize(out, self.machines_finished);
        self.ingestion.encode_state(out);
        self.detector_latency.encode_state(out);
        put_u64(out, self.warnings_emitted);
        put_u64(out, self.alarms_emitted);
        put_usize(out, self.alarm_queue_depth);
        put_u64(out, self.telemetry_dropped);
        put_u64(out, self.detector_errors);
        put_u64(out, self.restarts_granted);
        put_u64(out, self.restarts_denied);
    }

    /// Restores a snapshot written by [`StatusSnapshot::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`aging_timeseries::Error::InvalidParameter`] on a
    /// truncated blob or a `usize` field the host cannot hold.
    pub fn restore_state(&mut self, r: &mut aging_timeseries::persist::Reader<'_>) -> Result<()> {
        self.sequence = r.u64()?;
        self.stream_time_secs = r.f64()?;
        self.machines_live = r.usize_()?;
        self.machines_finished = r.usize_()?;
        self.ingestion.restore_state(r)?;
        self.detector_latency.restore_state(r)?;
        self.warnings_emitted = r.u64()?;
        self.alarms_emitted = r.u64()?;
        self.alarm_queue_depth = r.usize_()?;
        self.telemetry_dropped = r.u64()?;
        self.detector_errors = r.u64()?;
        self.restarts_granted = r.u64()?;
        self.restarts_denied = r.u64()?;
        Ok(())
    }

    /// Serialises the snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| aging_timeseries::Error::Numerical(format!("status snapshot: {e}")))
    }

    /// One-line operator-readable status.
    pub fn status_line(&self) -> String {
        format!(
            "[t={:>8.0}s] live={:<3} done={:<3} in={} ok={} drop={} gap={} quar={} warn={} alarm={} lat(mean={:.0}us p99<={}us) qd={} tdrop={} derr={}",
            self.stream_time_secs,
            self.machines_live,
            self.machines_finished,
            self.ingestion.ingested,
            self.ingestion.accepted,
            self.ingestion.dropped(),
            self.ingestion.gaps_detected,
            self.ingestion.quarantines,
            self.warnings_emitted,
            self.alarms_emitted,
            self.detector_latency.mean_us(),
            self.detector_latency
                .quantile_upper_bound_us(0.99)
                .unwrap_or(0),
            self.alarm_queue_depth,
            self.telemetry_dropped,
            self.detector_errors,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_componentwise() {
        let mut a = StageCounters {
            ingested: 10,
            accepted: 8,
            dropped_non_finite: 1,
            dropped_out_of_order: 1,
            gaps_detected: 2,
            quarantines: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.ingested, 20);
        assert_eq!(a.dropped(), 4);
        assert_eq!(a.gaps_detected, 4);
        assert_eq!(a.quarantines, 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for us in [5, 9, 50, 200, 2_000, 500_000] {
            h.record_us(us);
        }
        assert_eq!(h.total, 6);
        assert_eq!(h.counts[0], 2); // ≤10
        assert_eq!(h.counts[2], 1); // ≤100
        assert_eq!(h.counts[8], 1); // overflow
        assert_eq!(h.max_us, 500_000);
        // Median falls in the ≤300 bucket edge or lower.
        assert!(h.quantile_upper_bound_us(0.5).unwrap() <= 300);
        // Extreme quantile reports the overflow max.
        assert_eq!(h.quantile_upper_bound_us(1.0).unwrap(), 500_000);
        let mut other = LatencyHistogram::default();
        other.record_us(1);
        other.merge(&h);
        assert_eq!(other.total, 7);
        assert!(other.mean_us() > 0.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: no quantile at any q.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_upper_bound_us(0.0), None);
        assert_eq!(empty.quantile_upper_bound_us(1.0), None);

        // All mass in one high bucket: q = 0 must skip the empty low
        // buckets and report that bucket's edge, not the lowest edge.
        let mut high = LatencyHistogram::default();
        for _ in 0..5 {
            high.record_us(2_000); // ≤3_000 bucket
        }
        assert_eq!(high.quantile_upper_bound_us(0.0), Some(3_000));
        assert_eq!(high.quantile_upper_bound_us(0.5), Some(3_000));
        assert_eq!(high.quantile_upper_bound_us(1.0), Some(3_000));

        // Single sample: every quantile is that sample's bucket edge.
        let mut one = LatencyHistogram::default();
        one.record_us(250);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile_upper_bound_us(q), Some(300), "q={q}");
        }

        // All mass in the overflow slot: the bound is the observed max.
        let mut over = LatencyHistogram::default();
        over.record_us(200_000);
        over.record_us(900_000);
        assert_eq!(over.quantile_upper_bound_us(0.0), Some(900_000));
        assert_eq!(over.quantile_upper_bound_us(1.0), Some(900_000));

        // Out-of-range q is clamped.
        assert_eq!(one.quantile_upper_bound_us(-3.0), Some(300));
        assert_eq!(one.quantile_upper_bound_us(7.0), Some(300));
    }

    #[test]
    fn telemetry_state_round_trips() {
        let mut h = LatencyHistogram::default();
        for us in [5, 9, 50, 200, 2_000, 500_000] {
            h.record_us(us);
        }
        let c = StageCounters {
            ingested: 10,
            accepted: 8,
            dropped_non_finite: 1,
            dropped_out_of_order: 1,
            gaps_detected: 2,
            quarantines: 1,
        };
        let mut blob = Vec::new();
        h.encode_state(&mut blob);
        c.encode_state(&mut blob);
        let mut h2 = LatencyHistogram::default();
        let mut c2 = StageCounters::default();
        let mut r = aging_timeseries::persist::Reader::new(&blob);
        h2.restore_state(&mut r).unwrap();
        c2.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(h, h2);
        assert_eq!(c, c2);

        let snap = StatusSnapshot {
            sequence: u64::MAX,
            stream_time_secs: f64::NEG_INFINITY,
            machines_live: 49,
            machines_finished: usize::MAX,
            ingestion: c,
            detector_latency: h,
            alarm_queue_depth: 3,
            restarts_denied: 7,
            ..StatusSnapshot::default()
        };
        blob.clear();
        snap.encode_state(&mut blob);
        assert_eq!(blob.len(), (4 + 6 + 12 + 7) * 8);
        let mut back = StatusSnapshot::default();
        let mut r = aging_timeseries::persist::Reader::new(&blob);
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snap);
        let mut r = aging_timeseries::persist::Reader::new(&blob[..blob.len() - 1]);
        assert!(StatusSnapshot::default().restore_state(&mut r).is_err());
    }

    #[test]
    fn snapshot_serialises_and_renders() {
        let snap = StatusSnapshot {
            sequence: 3,
            stream_time_secs: 1800.0,
            machines_live: 49,
            machines_finished: 1,
            ingestion: StageCounters {
                ingested: 1000,
                accepted: 990,
                dropped_non_finite: 6,
                dropped_out_of_order: 4,
                gaps_detected: 1,
                quarantines: 0,
            },
            detector_latency: LatencyHistogram::default(),
            warnings_emitted: 5,
            alarms_emitted: 2,
            alarm_queue_depth: 0,
            telemetry_dropped: 0,
            detector_errors: 0,
            restarts_granted: 0,
            restarts_denied: 0,
        };
        let json = snap.to_json().unwrap();
        assert!(json.contains("\"alarms_emitted\":2"), "{json}");
        let back: StatusSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.machines_live, 49);
        let line = snap.status_line();
        assert!(line.contains("alarm=2"), "{line}");
        assert!(line.contains("live=49"), "{line}");
    }
}
