//! The aggregator node: merges per-shard watermarked alarm streams into
//! one global, byte-deterministic history.
//!
//! Each shard (an `aging-serve` server) releases its local alarm stream
//! in `(time, machine_id, seq)` order and advertises, with every
//! `AlarmsReply`, a watermark `W` meaning *"the first `total` events of
//! my history contain everything I will ever release at or below `W`"*
//! (`total` and `W` are published together under the shard's read-side
//! lock, so the pair is consistent). The aggregator keeps one cursor per shard, pulls each
//! stream chunk by chunk into a shared [`WatermarkMerger`], and only
//! advances a shard's merger watermark to a reply's `W` once its cursor
//! has consumed that *same* reply's `total` events — at which point the
//! merger provably holds every event of that shard at or below `W`.
//! Events then leave the merger strictly below the minimum shard
//! watermark, keyed `(time, machine_id, per-shard stream position)`.
//!
//! Because every machine lives on exactly one shard and each shard's
//! stream is already in global key order for its own machines, the
//! k-way merge reproduces exactly the order an offline
//! [`FleetSupervisor`](aging_stream::supervisor::FleetSupervisor) run
//! over the whole fleet emits — the E16 parity invariant.
//!
//! A shard is *finished* once it advertises a `+inf` watermark (its
//! drain barrier: every machine done) and the cursor has its full
//! history. Connection errors are retried against the
//! [`ShardDirectory`], whose entries a supervisor may rewrite after
//! killing and re-binding a shard — the recovered server reconstructs
//! its engine bit-identically from its store, so the aggregator's
//! cursor stays valid across the crash.
//!
//! When a [`StoreConfig`] is given, every merged event is journaled
//! (one canonical-codec payload per entry) before it enters the report,
//! and snapshots compact the log on the store's cadence —
//! [`Aggregator::recover_events`] rebuilds the merged history from disk
//! for cluster-wide kill-and-recover.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aging_serve::protocol::{decode_events, encode_event, encode_events};
use aging_serve::{ServeClient, ServeEvent};
use aging_store::{Store, StoreConfig};
use aging_stream::merge::{MergeKey, WatermarkMerger};
use aging_timeseries::{Error, Result};

/// Version byte prefixing aggregator snapshot blobs.
const SNAPSHOT_VERSION: u8 = 1;

/// Where each shard currently listens.
///
/// Interior-mutable so a supervising process can [`update`] a shard's
/// address after killing and re-binding it while an
/// [`Aggregator::run`] is mid-stream on another thread.
///
/// [`update`]: ShardDirectory::update
#[derive(Debug)]
pub struct ShardDirectory {
    addrs: Mutex<Vec<SocketAddr>>,
}

impl ShardDirectory {
    /// A directory over the given shard addresses (index = shard id).
    pub fn new(addrs: Vec<SocketAddr>) -> ShardDirectory {
        ShardDirectory {
            addrs: Mutex::new(addrs),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.addrs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// `true` when the directory holds no shards.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current address of `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn addr(&self, shard: usize) -> SocketAddr {
        self.addrs.lock().unwrap_or_else(|p| p.into_inner())[shard]
    }

    /// Rewrites the address of `shard` — the rebind hook after a shard
    /// is killed and recovered on a fresh port.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn update(&self, shard: usize, addr: SocketAddr) {
        self.addrs.lock().unwrap_or_else(|p| p.into_inner())[shard] = addr;
    }
}

/// Aggregator knobs.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Sleep between poll sweeps that made no progress, ms.
    pub poll_ms: u64,
    /// Sleep before re-attempting a failed shard connection, ms.
    pub reconnect_backoff_ms: u64,
    /// Abort the run when no shard makes progress for this long —
    /// distinguishes "shard being recovered" (transient) from "shard
    /// gone for good" (the run would otherwise hang on its watermark).
    pub stall_timeout_secs: f64,
    /// Journal every merged event (and snapshot on cadence) to this
    /// store; [`Aggregator::recover_events`] reads it back. `None`
    /// aggregates purely in memory.
    pub store: Option<StoreConfig>,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            poll_ms: 10,
            reconnect_backoff_ms: 50,
            stall_timeout_secs: 30.0,
            store: None,
        }
    }
}

impl AggregatorConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive or
    /// non-finite stall timeout, or an invalid store config.
    pub fn validate(&self) -> Result<()> {
        if !(self.stall_timeout_secs > 0.0) || !self.stall_timeout_secs.is_finite() {
            return Err(Error::invalid(
                "stall_timeout_secs",
                "must be positive and finite",
            ));
        }
        if let Some(store) = &self.store {
            store
                .validate()
                .map_err(|e| Error::invalid("store", e.to_string()))?;
        }
        Ok(())
    }
}

/// What an aggregation run produced.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// The merged global alarm history, in `(time, machine_id, shard
    /// stream position)` order — byte-comparable (via the canonical
    /// event codec) with an offline whole-fleet run.
    pub events: Vec<ServeEvent>,
    /// Events contributed by each shard.
    pub per_shard: Vec<u64>,
    /// `QueryAlarms` round trips performed.
    pub polls: u64,
    /// Re-connection attempts after a lost or failed shard connection.
    pub reconnects: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
}

/// Per-shard pull state inside a run.
struct ShardPull {
    client: Option<ServeClient>,
    /// Events consumed so far == next `since` cursor.
    cursor: u64,
    /// Ever connected successfully (first attempts are not "reconnects").
    connected_once: bool,
    done: bool,
}

/// The aggregator node. See the module docs for the protocol.
#[derive(Debug)]
pub struct Aggregator {
    cfg: AggregatorConfig,
}

impl Aggregator {
    /// Builds an aggregator.
    ///
    /// # Errors
    ///
    /// Propagates [`AggregatorConfig::validate`].
    pub fn new(cfg: AggregatorConfig) -> Result<Aggregator> {
        cfg.validate()?;
        Ok(Aggregator { cfg })
    }

    /// Pulls every shard in `directory` to completion and returns the
    /// merged global history.
    ///
    /// Blocks until all shards have drained (advertised a `+inf`
    /// watermark with their full history consumed), so it is typically
    /// run on its own thread alongside the fleet drivers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty directory or a
    /// journaling store that already holds state, [`Error::Io`] when no
    /// shard makes progress for
    /// [`stall_timeout_secs`](AggregatorConfig::stall_timeout_secs),
    /// and propagates store write failures. Connection and query errors
    /// against shards are *not* fatal — they trigger reconnects.
    pub fn run(&self, directory: &ShardDirectory) -> Result<AggregateReport> {
        let shard_count = directory.len();
        if shard_count == 0 {
            return Err(Error::invalid("directory", "need at least one shard"));
        }
        let mut store = match &self.cfg.store {
            Some(cfg) => {
                let (store, recovery) =
                    Store::open(cfg.clone()).map_err(|e| Error::Io(e.to_string()))?;
                if !recovery.is_empty() {
                    return Err(Error::invalid(
                        "store",
                        "aggregator store must start empty; use recover_events to read it",
                    ));
                }
                Some(store)
            }
            None => None,
        };

        let mut merger: WatermarkMerger<(usize, ServeEvent)> = WatermarkMerger::new(shard_count);
        let mut pulls: Vec<ShardPull> = (0..shard_count)
            .map(|_| ShardPull {
                client: None,
                cursor: 0,
                connected_once: false,
                done: false,
            })
            .collect();
        let mut report = AggregateReport {
            events: Vec::new(),
            per_shard: vec![0; shard_count],
            polls: 0,
            reconnects: 0,
            wall_secs: 0.0,
        };
        let started = Instant::now();
        let mut last_progress = Instant::now();

        loop {
            let mut progressed = false;
            let mut all_done = true;
            for (shard, pull) in pulls.iter_mut().enumerate() {
                if pull.done {
                    continue;
                }
                all_done = false;
                if pull.client.is_none() {
                    if pull.connected_once {
                        report.reconnects += 1;
                    }
                    match ServeClient::connect(directory.addr(shard), "aggregator") {
                        Ok(client) => {
                            pull.client = Some(client);
                            pull.connected_once = true;
                        }
                        Err(_) => {
                            std::thread::sleep(Duration::from_millis(
                                self.cfg.reconnect_backoff_ms,
                            ));
                            continue;
                        }
                    }
                }
                let client = pull.client.as_mut().expect("connected above");
                let chunk = match client.query_alarms_chunk(pull.cursor) {
                    Ok(chunk) => chunk,
                    Err(_) => {
                        // Lost mid-query (shard killed?); drop the
                        // connection and retry via the directory, which
                        // may meanwhile point at the recovered process.
                        pull.client = None;
                        continue;
                    }
                };
                report.polls += 1;
                if !chunk.events.is_empty() {
                    progressed = true;
                }
                for event in chunk.events {
                    merger.push(
                        MergeKey {
                            time_secs: event.time_secs,
                            lane: event.machine_id,
                            // Absolute position in the shard's stream:
                            // the residual tie-break reproducing the
                            // shard's own release order.
                            seq: pull.cursor,
                        },
                        (shard, event),
                    );
                    pull.cursor += 1;
                }
                if pull.cursor == chunk.total {
                    // Caught up with this very reply, so the merger now
                    // holds every event of this shard at or below the
                    // watermark computed alongside `total` — only now is
                    // adopting it sound.
                    if merger.advance(shard, chunk.watermark_secs) {
                        progressed = true;
                    }
                    if chunk.watermark_secs == f64::INFINITY {
                        pull.done = true;
                        if let Some(client) = pull.client.take() {
                            let _ = client.bye();
                        }
                    }
                }
            }

            while let Some((shard, event)) = merger.pop_ready() {
                if let Some(store) = store.as_mut() {
                    journal_event(store, &event, &report.events)?;
                }
                report.per_shard[shard] += 1;
                report.events.push(event);
            }

            if all_done {
                break;
            }
            if progressed {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed().as_secs_f64() > self.cfg.stall_timeout_secs {
                    return Err(Error::Io(format!(
                        "aggregator stalled: no shard progressed for {:.1}s",
                        self.cfg.stall_timeout_secs
                    )));
                }
                std::thread::sleep(Duration::from_millis(self.cfg.poll_ms));
            }
        }

        debug_assert!(
            merger.is_empty(),
            "all shards at +inf watermark must drain the merger"
        );
        report.wall_secs = started.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Reconstructs a merged history previously journaled by
    /// [`run`](Aggregator::run) with a store config — snapshot plus
    /// journal suffix, in release order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the store cannot be opened or a blob
    /// fails to decode.
    pub fn recover_events(store: &StoreConfig) -> Result<Vec<ServeEvent>> {
        let (_store, recovery) =
            Store::open(store.clone()).map_err(|e| Error::Io(e.to_string()))?;
        let mut events = Vec::new();
        if let Some(blob) = &recovery.snapshot {
            let Some((&version, body)) = blob.split_first() else {
                return Err(Error::Io("aggregator snapshot: empty blob".into()));
            };
            if version != SNAPSHOT_VERSION {
                return Err(Error::Io(format!(
                    "aggregator snapshot: unknown version {version}"
                )));
            }
            events =
                decode_events(body).map_err(|e| Error::Io(format!("aggregator snapshot: {e}")))?;
        }
        for entry in &recovery.entries {
            let mut decoded = decode_events(&entry.payload)
                .map_err(|e| Error::Io(format!("aggregator journal entry {}: {e}", entry.id)))?;
            events.append(&mut decoded);
        }
        Ok(events)
    }
}

/// Appends one merged event to the journal, compacting into a snapshot
/// on the store's cadence. `released` is the history so far (the event
/// itself not yet included).
fn journal_event(store: &mut Store, event: &ServeEvent, released: &[ServeEvent]) -> Result<()> {
    let mut payload = Vec::with_capacity(48);
    encode_event(event, &mut payload);
    store
        .append(&payload)
        .map_err(|e| Error::Io(format!("aggregator journal: {e}")))?;
    if store.snapshot_due() {
        let mut blob = Vec::with_capacity(1 + (released.len() + 1) * 48);
        blob.push(SNAPSHOT_VERSION);
        blob.extend_from_slice(&encode_events(released));
        encode_event(event, &mut blob);
        store
            .commit_snapshot(&blob)
            .map_err(|e| Error::Io(format!("aggregator snapshot: {e}")))?;
    }
    Ok(())
}
