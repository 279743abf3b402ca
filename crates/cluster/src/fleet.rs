//! Local cluster harness: boots one `aging-serve` server per shard and
//! drives a fleet of memsim scenarios across them, partitioned by the
//! [`HashRing`].
//!
//! This is the test/bench topology of the cluster tier — every node is
//! an in-process [`Server`] on an ephemeral loopback port, but all
//! traffic crosses real TCP sockets, so the pieces compose exactly as a
//! multi-host deployment would: ring → per-shard loadgen drivers →
//! shards → aggregator.
//!
//! The launcher pins each shard for byte-determinism: a shard learns
//! its ring index ([`ServeConfig::shard_id`]), the exact number of
//! machines the ring assigns it ([`ServeConfig::expected_machines`], so
//! its release order cannot depend on feeder timing), and optionally a
//! per-shard store directory for kill-and-recover runs.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;

use aging_memsim::Scenario;
use aging_serve::loadgen::{drive_with_ids, LoadgenConfig, LoadgenReport};
use aging_serve::{ServeConfig, ServeReport, Server};
use aging_store::StoreConfig;
use aging_timeseries::{Error, Result};

use crate::aggregator::ShardDirectory;
use crate::ring::HashRing;

/// Journal-entries-per-snapshot cadence for per-shard stores — small
/// enough that kill-and-recover tests exercise both replay paths.
const SHARD_SNAPSHOT_EVERY: u64 = 24;

/// A running set of in-process shard servers plus their directory.
#[derive(Debug)]
pub struct LocalCluster {
    /// `None` where a shard was killed via [`abort_shard`] and not yet
    /// re-bound. Behind a mutex so a supervising test can kill and
    /// recover a shard while driver/aggregator threads share `&self`.
    ///
    /// [`abort_shard`]: LocalCluster::abort_shard
    servers: Mutex<Vec<Option<Server>>>,
    /// Each shard's full launch config, kept for re-binding after a
    /// kill (the store config inside points at the shard's directory).
    cfgs: Vec<ServeConfig>,
    directory: ShardDirectory,
    ring: HashRing,
}

impl LocalCluster {
    /// Boots one server per ring shard on ephemeral loopback ports.
    ///
    /// `template` supplies the detection parameters; per shard the
    /// launcher overrides `shard_id` (ring index), `expected_machines`
    /// (ring partition size of `machine_ids`) and, when `store_root` is
    /// given, `store` (directory `shard-<id>` under the root).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for duplicate machine ids
    /// and propagates server bind/validation failures.
    pub fn launch(
        ring: &HashRing,
        template: &ServeConfig,
        machine_ids: &[u64],
        store_root: Option<&Path>,
    ) -> Result<LocalCluster> {
        {
            let mut sorted = machine_ids.to_vec();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(Error::invalid("machine_ids", "ids must be unique"));
            }
        }
        let assignments = ring.partition(machine_ids);
        let mut servers = Vec::with_capacity(assignments.len());
        let mut cfgs = Vec::with_capacity(assignments.len());
        let mut addrs = Vec::with_capacity(assignments.len());
        for (shard, owned) in assignments.iter().enumerate() {
            let mut cfg = template.clone();
            cfg.shard_id = shard as u64;
            // Pinning the exact fleet size makes the shard's release
            // order independent of feeder connection timing — the
            // cluster-side prerequisite of byte parity.
            cfg.expected_machines = Some(owned.len() as u64);
            if let Some(root) = store_root {
                let mut store = StoreConfig::new(root.join(format!("shard-{shard}")));
                store.snapshot_every_entries = SHARD_SNAPSHOT_EVERY;
                cfg.store = Some(store);
            }
            let server = Server::bind("127.0.0.1:0", cfg.clone())?;
            addrs.push(server.local_addr());
            servers.push(Some(server));
            cfgs.push(cfg);
        }
        Ok(LocalCluster {
            servers: Mutex::new(servers),
            cfgs,
            directory: ShardDirectory::new(addrs),
            ring: ring.clone(),
        })
    }

    /// The shard address directory (shared with aggregators; updated in
    /// place by [`rebind_shard`](LocalCluster::rebind_shard)).
    pub fn directory(&self) -> &ShardDirectory {
        &self.directory
    }

    /// The ring the cluster was launched with.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cfgs.len()
    }

    /// Current address of `shard`.
    pub fn addr(&self, shard: usize) -> SocketAddr {
        self.directory.addr(shard)
    }

    /// Kills `shard` abruptly — sockets dropped, no drain, exactly like
    /// a process crash. The directory keeps the stale address until
    /// [`rebind_shard`](LocalCluster::rebind_shard).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the shard is already
    /// down.
    pub fn abort_shard(&self, shard: usize) -> Result<()> {
        let server = self.servers.lock().unwrap_or_else(|p| p.into_inner())[shard].take();
        match server {
            Some(server) => {
                server.abort();
                Ok(())
            }
            None => Err(Error::invalid("shard", "already aborted")),
        }
    }

    /// Re-binds a killed shard from its (store-backed) launch config on
    /// a fresh port and publishes the new address in the directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the shard is still
    /// running, and propagates bind/recovery failures.
    pub fn rebind_shard(&self, shard: usize) -> Result<SocketAddr> {
        let mut servers = self.servers.lock().unwrap_or_else(|p| p.into_inner());
        if servers[shard].is_some() {
            return Err(Error::invalid("shard", "still running; abort it first"));
        }
        let server = Server::bind("127.0.0.1:0", self.cfgs[shard].clone())?;
        let addr = server.local_addr();
        servers[shard] = Some(server);
        self.directory.update(shard, addr);
        Ok(addr)
    }

    /// Gracefully drains and shuts down every live shard, returning
    /// their reports in shard order (killed shards yield `None`).
    pub fn shutdown(self) -> Vec<Option<ServeReport>> {
        self.servers
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .into_iter()
            .map(|server| server.map(Server::shutdown))
            .collect()
    }
}

/// What a fleet drive across all shards produced.
#[derive(Debug)]
pub struct FleetDriveReport {
    /// Per-shard loadgen reports, in shard order. A shard with no
    /// machines yields `None`.
    pub shards: Vec<Option<LoadgenReport>>,
    /// Wall-clock duration of the whole drive (all shards), seconds.
    pub wall_secs: f64,
}

impl FleetDriveReport {
    /// Records sent across all shards.
    pub fn records_sent(&self) -> u64 {
        self.shards.iter().flatten().map(|r| r.records_sent).sum()
    }

    /// Aggregate ingest throughput, records per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.records_sent() as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Drives `scenarios[i]` (publishing as `machine_ids[i]`) into the
/// cluster behind `directory`, partitioned by `ring` — one loadgen
/// driver thread per non-empty shard, all concurrent.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for mismatched input lengths or
/// a directory/ring shard-count disagreement, and propagates the first
/// failing shard driver.
pub fn drive_fleet(
    ring: &HashRing,
    directory: &ShardDirectory,
    scenarios: &[Scenario],
    machine_ids: &[u64],
    horizon_secs: f64,
    cfg: &LoadgenConfig,
) -> Result<FleetDriveReport> {
    if machine_ids.len() != scenarios.len() {
        return Err(Error::invalid(
            "machine_ids",
            "must name exactly one id per scenario",
        ));
    }
    if directory.len() != ring.shards() as usize {
        return Err(Error::invalid(
            "directory",
            "shard count must match the ring",
        ));
    }
    let parts = ring.partition_indices(machine_ids);
    let started = std::time::Instant::now();
    let results: Vec<Option<Result<LoadgenReport>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(shard, positions)| {
                if positions.is_empty() {
                    return None;
                }
                let addr = directory.addr(shard);
                let shard_scenarios: Vec<Scenario> =
                    positions.iter().map(|&p| scenarios[p].clone()).collect();
                let shard_ids: Vec<u64> = positions.iter().map(|&p| machine_ids[p]).collect();
                Some(scope.spawn(move || {
                    drive_with_ids(addr, &shard_scenarios, &shard_ids, horizon_secs, cfg)
                }))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Error::Io("shard driver panicked".into())))
                })
            })
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut shards = Vec::with_capacity(results.len());
    for result in results {
        shards.push(result.transpose()?);
    }
    Ok(FleetDriveReport { shards, wall_secs })
}
