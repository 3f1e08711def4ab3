//! Configuration of the VP technique.

use std::path::PathBuf;

use vp_geom::{Point, Rect};
use vp_storage::{FaultHandle, RetryPolicy};
use vp_wal::SyncPolicy;

/// Tunables for the velocity analyzer and the VP index manager.
///
/// Defaults follow the paper's experimental setup (Section 6): 2 DVA
/// indexes, a 10,000-point velocity sample, a 100-bucket histogram for
/// τ selection, and the 100 km × 100 km data domain of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct VpConfig {
    /// Number of DVA partitions (`k`). The paper sets 2 for road
    /// networks ("most road networks have two dominant traffic
    /// directions").
    pub k: usize,
    /// Velocity sample size fed to the analyzer.
    pub sample_size: usize,
    /// Buckets in the per-partition cumulative speed histogram used for
    /// τ selection.
    pub tau_buckets: usize,
    /// Seed for the k-means random initialization (the analyzer is
    /// fully deterministic given this seed).
    pub seed: u64,
    /// Maximum k-means reassignment rounds.
    pub max_iters: usize,
    /// World-space data domain; DVA frames pivot about its center.
    pub domain: Rect,
    /// Directory of the durability artifacts (the log, manifest,
    /// checkpoints). `None` (the default) keeps the index purely in
    /// memory — the seed behaviour, used by all paper reproductions.
    /// Set it and construct with [`crate::VpIndex::open`] /
    /// [`crate::VpIndex::recover`] for a durable index.
    pub wal_dir: Option<PathBuf>,
    /// When WAL commits reach stable storage: fsync per commit
    /// ([`SyncPolicy::Always`]), OS-buffered ([`SyncPolicy::Never`]),
    /// or fsync amortized over every n-th tick
    /// ([`SyncPolicy::EveryTicks`] — cross-tick group commit; an OS
    /// crash loses at most the ticks since the last boundary). A
    /// single insert, delete or update is a one-object tick and
    /// counts toward n. Ignored without `wal_dir`.
    pub sync_policy: SyncPolicy,
    /// Automatic checkpoint cadence: flush sub-index storage, snapshot
    /// the object table, and truncate the log every this many ticks
    /// ([`crate::VpIndex::apply_updates`] calls and single inserts,
    /// deletes and updates, each a one-object tick). `0` (the default)
    /// means checkpoints happen only via the explicit
    /// [`crate::VpIndex::checkpoint`] call.
    pub checkpoint_every_ticks: u64,
    /// Fault injector wired into the durability layer (the log and the
    /// checkpoint/manifest atomic-publish path) at open time —
    /// the test harness's handle for torn writes, ENOSPC, and fsync
    /// failures. `None` (the default) injects nothing. Runtime-only:
    /// never persisted in the manifest; attach one to a recovered
    /// index with [`crate::VpIndex::set_fault_injector`].
    pub fault: Option<FaultHandle>,
    /// Retry policy for transient WAL I/O errors (EIO, ENOSPC) at the
    /// flush sites. Failed fsyncs are **never** retried — they poison
    /// the log instead. Runtime-only, like `fault`.
    pub wal_retry: RetryPolicy,
}

impl Default for VpConfig {
    fn default() -> Self {
        VpConfig {
            k: 2,
            sample_size: 10_000,
            tau_buckets: 100,
            seed: 0x5eed,
            max_iters: 100,
            domain: Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0),
            wal_dir: None,
            sync_policy: SyncPolicy::Always,
            checkpoint_every_ticks: 0,
            fault: None,
            wal_retry: RetryPolicy::standard(),
        }
    }
}

impl VpConfig {
    /// The pivot about which DVA frames rotate (domain center).
    pub fn pivot(&self) -> Point {
        self.domain.center()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be >= 1".into());
        }
        if self.tau_buckets == 0 {
            return Err("tau_buckets must be >= 1".into());
        }
        if self.domain.is_empty() || self.domain.area() <= 0.0 {
            return Err("domain must have positive area".into());
        }
        // Rejected here — where the config enters the system — because
        // the manifest codec also refuses it, and a value that only
        // failed at recovery time would leave the index unrecoverable.
        if self.sync_policy == SyncPolicy::EveryTicks(0) {
            return Err("sync_policy EveryTicks(n) requires n >= 1".into());
        }
        Ok(())
    }

    /// Returns the configuration with durability enabled in `dir`
    /// (builder-style convenience).
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> VpConfig {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Returns the configuration with the given WAL sync policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> VpConfig {
        self.sync_policy = policy;
        self
    }

    /// Returns the configuration checkpointing every `ticks` ticks
    /// (`0` = only explicit checkpoints).
    pub fn with_checkpoint_every_ticks(mut self, ticks: u64) -> VpConfig {
        self.checkpoint_every_ticks = ticks;
        self
    }

    /// Returns the configuration with a fault injector attached to the
    /// durability layer (builder-style convenience; test harnesses).
    pub fn with_fault_injector(mut self, handle: FaultHandle) -> VpConfig {
        self.fault = Some(handle);
        self
    }

    /// Returns the configuration with the given transient-error retry
    /// policy for WAL flushes.
    pub fn with_wal_retry(mut self, policy: RetryPolicy) -> VpConfig {
        self.wal_retry = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = VpConfig::default();
        assert_eq!(c.k, 2);
        assert_eq!(c.sample_size, 10_000);
        assert_eq!(c.tau_buckets, 100);
        assert_eq!(c.domain.width(), 100_000.0);
        assert!(c.validate().is_ok());
        assert_eq!(c.pivot(), Point::new(50_000.0, 50_000.0));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = VpConfig {
            k: 0,
            ..VpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = VpConfig {
            tau_buckets: 0,
            ..VpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = VpConfig {
            domain: Rect::EMPTY,
            ..VpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = VpConfig {
            sync_policy: SyncPolicy::EveryTicks(0),
            ..VpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = VpConfig {
            sync_policy: SyncPolicy::EveryTicks(1),
            ..VpConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn durability_knobs_default_off() {
        let c = VpConfig::default();
        assert_eq!(c.wal_dir, None);
        assert_eq!(c.sync_policy, SyncPolicy::Always);
        assert_eq!(c.checkpoint_every_ticks, 0);
        let c = c
            .with_wal_dir("/tmp/vp-wal")
            .with_sync_policy(SyncPolicy::Never)
            .with_checkpoint_every_ticks(8);
        assert_eq!(
            c.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/vp-wal"))
        );
        assert_eq!(c.sync_policy, SyncPolicy::Never);
        assert_eq!(c.checkpoint_every_ticks, 8);
        assert!(c.validate().is_ok());
    }
}
