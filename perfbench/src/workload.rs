//! The three benchmark workloads.
//!
//! All three drive the paper's closed-loop Retwis client
//! ([`retwis::driver::run_instance`]) against 2 shards × 3 replicas with
//! PTP-software clocks and 16 clients, one outstanding transaction each
//! (what `faultkit::History` needs to split a client's events into
//! transactions). They differ in mix, skew, keyspace and backend so that
//! each one puts a different layer on top.

use std::time::Duration;

use flashsim::types::TUPLE_HEADER;
use flashsim::{BackendKind, NandConfig};
use milana::client::TxnClientConfig;
use milana::cluster::MilanaClusterConfig;
use milana::server::ServerTuning;
use obskit::Obs;
use readkit::ReadRoute;
use retwis::driver::WorkloadConfig;
use retwis::mix::{GetCount, Mix, TxnType};
use timesync::ClockSpec;

/// Shards in every workload's cluster.
pub const SHARDS: u32 = 2;
/// Replicas per shard.
pub const REPLICAS: u32 = 3;
/// Closed-loop clients, one outstanding transaction each.
pub const CLIENTS: u32 = 16;
/// Key bytes as stored (`Key::from(u64)`).
const KEY_BYTES: usize = 16;

/// One benchmark workload: cluster shape, Retwis parameters and windows.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name (the `--workload` argument).
    pub name: &'static str,
    /// Retwis mix, keyspace, skew and value size.
    pub retwis: WorkloadConfig,
    /// Storage backend of every replica.
    pub backend: BackendKind,
    /// Flash utilisation the device is sized for (ignored on DRAM).
    pub utilisation: f64,
    /// Backup snapshot reads (p2c routing with a snapshot lag).
    pub backup_reads: bool,
    /// Virtual warm-up before the measured window.
    pub warmup: Duration,
    /// Virtual length of the measured window.
    pub measure: Duration,
    /// Whether the traced run must show the `skip_validation` fraud
    /// raising checker violations above the clean count.
    pub fraud_gate: bool,
    /// Simulations one `--trace 0` run averages its virtual-time figures
    /// over, each with its own seed derived from the run's seed.
    pub sub_seeds: u64,
}

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["retwis_mftl", "timeline_200k", "hotkey_dram"];

fn txn(name: &'static str, gets: GetCount, puts: u32, weight: u32) -> TxnType {
    TxnType {
        name,
        gets,
        puts,
        weight,
    }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            retwis: WorkloadConfig::default(),
            backend: BackendKind::Mftl,
            utilisation: 0.5,
            backup_reads: false,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(500),
            fraud_gate: false,
            sub_seeds: 3,
        };
        let w = match name {
            // The paper's Table 2 mix at Zipf 0.8 on the multi-version FTL,
            // with the device small enough that GC and pruning cycle.
            "retwis_mftl" => Workload {
                name: "retwis_mftl",
                retwis: WorkloadConfig {
                    mix: Mix::retwis(),
                    keyspace: 20_000,
                    zipf_alpha: 0.8,
                    value_size: 472,
                    max_retries: 64,
                },
                utilisation: 0.3,
                sub_seeds: 4,
                ..base
            },
            // 95 % read-only timelines over a large preload, served by
            // backups through p2c routing behind a snapshot lag.
            "timeline_200k" => Workload {
                name: "timeline_200k",
                retwis: WorkloadConfig {
                    mix: Mix::new(vec![
                        txn("add_user", GetCount::Fixed(1), 2, 1),
                        txn("follow_user", GetCount::Fixed(2), 2, 1),
                        txn("post_tweet", GetCount::Fixed(3), 5, 3),
                        txn("get_timeline", GetCount::Uniform(1, 10), 0, 95),
                    ]),
                    keyspace: 200_000,
                    zipf_alpha: 0.6,
                    value_size: 128,
                    max_retries: 64,
                },
                backup_reads: true,
                // Seeds barely move its virtual figures; set-up dominates.
                sub_seeds: 2,
                ..base
            },
            // Write-only Retwis subset on a hot DRAM keyspace: validation
            // aborts and message traffic dominate, flash does nothing.
            "hotkey_dram" => Workload {
                name: "hotkey_dram",
                retwis: WorkloadConfig {
                    mix: Mix::new(vec![
                        txn("add_user", GetCount::Fixed(1), 2, 5),
                        txn("follow_user", GetCount::Fixed(2), 2, 10),
                        txn("post_tweet", GetCount::Fixed(3), 5, 35),
                    ]),
                    keyspace: 10_000,
                    zipf_alpha: 0.9,
                    value_size: 64,
                    max_retries: 64,
                },
                backend: BackendKind::Dram,
                fraud_gate: true,
                // About half the transactions commit on their first
                // attempt, so a seed's median lands on either side of the
                // retry gap; many short seeded runs average that out.
                measure: Duration::from_millis(300),
                sub_seeds: 16,
                ..base
            },
            _ => return None,
        };
        Some(w)
    }

    /// The seed of simulation `i` of a run with seed `seed`.
    pub fn sub_seed(seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(1_000).wrapping_add(i)
    }

    /// Device geometry: sized for one replica's share of the keyspace at
    /// the workload's utilisation.
    pub fn nand(&self) -> NandConfig {
        let tuple = KEY_BYTES + self.retwis.value_size + TUPLE_HEADER;
        NandConfig::default().sized_for(
            self.retwis.keyspace / SHARDS as u64,
            tuple,
            self.utilisation,
        )
    }

    /// The cluster configuration, reporting into `obs`. `skip_validation`
    /// seeds the validation-skip fraud on every primary.
    pub fn cluster(&self, obs: Obs, skip_validation: bool) -> MilanaClusterConfig {
        let mut client_cfg = TxnClientConfig {
            obs: obs.clone(),
            ..TxnClientConfig::default()
        };
        let mut tuning = ServerTuning {
            obs,
            ..ServerTuning::default()
        };
        tuning.skip_validation.set(skip_validation);
        if self.backup_reads {
            client_cfg.read_route = ReadRoute::PowerOfTwo;
            client_cfg.snapshot_lag = Duration::from_millis(3);
            client_cfg.watermark_interval = Duration::from_millis(1);
            tuning.gossip_every = Some(Duration::from_millis(1));
        }
        MilanaClusterConfig {
            shards: SHARDS,
            replicas: REPLICAS,
            clients: CLIENTS,
            backend: self.backend,
            nand: self.nand(),
            clock: ClockSpec::ptp_software(),
            preload_keys: self.retwis.keyspace,
            value_size: self.retwis.value_size,
            client_cfg,
            tuning,
            ..MilanaClusterConfig::default()
        }
    }
}
