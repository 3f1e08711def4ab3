//! Building the systems under test and checking their answers.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vp_bx::{BxConfig, BxTree};
use vp_core::traits::reference::ScanIndex;
use vp_core::{
    knn_at, AnalyzerOutput, IndexResult, KnnQuery, MovingObject, MovingObjectIndex, Neighbor,
    RangeQuery, SnapshotIndex, VelocityAnalyzer, VpConfig, VpIndex,
};
use vp_geom::{Rect, Vec2};
use vp_storage::{BufferPool, DiskManager};
use vp_tpr::{TprConfig, TprTree};

use crate::inputs;
use crate::util::Rng;

/// Page size of every pool in the benchmark (paper Table 1).
pub const PAGE_SIZE: usize = 4096;
/// Maximum update interval the indexes are tuned for (paper Table 1).
pub const UPDATE_INTERVAL: f64 = 120.0;

/// A sub-index family the VP manager can partition.
pub trait SubIndex: MovingObjectIndex + SnapshotIndex + Send + Sync + Sized + 'static {
    /// Prefix of the family's per-layer metrics.
    const LAYER: &'static str;
    /// An empty sub-index over `pool` covering `domain`.
    fn create(pool: Arc<BufferPool>, domain: Rect) -> Self;
}

impl SubIndex for BxTree {
    const LAYER: &'static str = "bx";
    fn create(pool: Arc<BufferPool>, domain: Rect) -> BxTree {
        BxTree::new(
            pool,
            BxConfig {
                domain,
                update_interval: UPDATE_INTERVAL,
                ..BxConfig::default()
            },
        )
        .expect("empty Bx-tree over a fresh pool")
    }
}

impl SubIndex for TprTree {
    const LAYER: &'static str = "tpr";
    fn create(pool: Arc<BufferPool>, _domain: Rect) -> TprTree {
        TprTree::new(
            pool,
            TprConfig {
                horizon: UPDATE_INTERVAL,
                ..TprConfig::default()
            },
        )
    }
}

/// Where a pool keeps its pages.
#[derive(Debug, Clone)]
pub enum Backend {
    Memory,
    /// A real page file at this path (created or truncated).
    File(PathBuf),
}

/// One buffer pool's shape; recorded in provenance.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    pub pages: usize,
    pub shards: usize,
    pub backend: Backend,
}

impl PoolSpec {
    pub fn memory(pages: usize, shards: usize) -> PoolSpec {
        PoolSpec {
            pages,
            shards,
            backend: Backend::Memory,
        }
    }

    pub fn file(pages: usize, shards: usize, path: impl Into<PathBuf>) -> PoolSpec {
        PoolSpec {
            pages,
            shards,
            backend: Backend::File(path.into()),
        }
    }

    pub fn open(&self) -> Arc<BufferPool> {
        let disk = match &self.backend {
            Backend::Memory => DiskManager::with_page_size(PAGE_SIZE),
            Backend::File(path) => {
                DiskManager::create_file(path, PAGE_SIZE).expect("create page file")
            }
        };
        Arc::new(BufferPool::with_shards(disk, self.pages, self.shards))
    }
}

/// The VP configuration every workload starts from: paper defaults,
/// k-means seeded from `--seed`.
pub fn vp_config(seed: u64) -> VpConfig {
    VpConfig {
        seed,
        domain: inputs::domain(),
        ..VpConfig::default()
    }
}

/// A seeded velocity sample of the fleet (the analyzer's input).
pub fn velocity_sample(seed: u64, fleet: &[MovingObject], n: usize) -> Vec<Vec2> {
    let mut rng = Rng::new(seed, "velocity-sample");
    (0..n.min(fleet.len()))
        .map(|_| fleet[rng.below(fleet.len() as u64) as usize].vel)
        .collect()
}

pub fn analyze(cfg: &VpConfig, sample: &[Vec2]) -> AnalyzerOutput {
    VelocityAnalyzer::new(cfg.clone()).analyze(sample)
}

/// Builds an empty velocity-partitioned index whose partitions share
/// `pool`; durable (`VpIndex::open`) when `cfg.wal_dir` is set.
pub fn build_vp<I: SubIndex>(
    cfg: &VpConfig,
    analysis: &AnalyzerOutput,
    pool: &Arc<BufferPool>,
) -> VpIndex<I> {
    let factory = |spec: &vp_core::PartitionSpec| I::create(Arc::clone(pool), spec.domain);
    if cfg.wal_dir.is_some() {
        VpIndex::open(cfg.clone(), analysis, factory)
    } else {
        VpIndex::build(cfg.clone(), analysis, factory)
    }
    .expect("build VP index")
}

/// Reopens a crashed durable index from `dir` over a fresh `pool`.
pub fn recover_vp<I: SubIndex>(
    dir: &Path,
    pool: &Arc<BufferPool>,
) -> IndexResult<(VpIndex<I>, vp_core::RecoveryReport)> {
    VpIndex::recover(dir, |spec: &vp_core::PartitionSpec| {
        I::create(Arc::clone(pool), spec.domain)
    })
}

/// Partition sizes → (max ÷ mean over all partitions, outlier share).
pub fn partition_shape<I: MovingObjectIndex>(index: &VpIndex<I>) -> (f64, f64) {
    let sizes = index.partition_sizes();
    let total: usize = sizes.iter().sum();
    let mean = total as f64 / sizes.len() as f64;
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    let outliers = *sizes.last().expect("outlier partition") as f64;
    (max / mean.max(1.0), outliers / (total as f64).max(1.0))
}

/// A scratch directory under the benchmark's own `out/`, removed on
/// drop. Everything the benchmark writes stays inside its checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> WorkDir {
        // Unique per process and per use: self-tests run workloads on
        // parallel threads.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = crate::out_dir()
            .join("work")
            .join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create work dir");
        WorkDir(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create work sub-dir");
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// --- answer checking --------------------------------------------------------

/// The reference: a linear scan fed the same updates.
pub struct Oracle {
    scan: ScanIndex,
    domain: Rect,
}

impl Oracle {
    pub fn new(fleet: &[MovingObject]) -> Oracle {
        let mut scan = ScanIndex::new();
        for o in fleet {
            scan.insert(*o).expect("fleet ids are unique");
        }
        Oracle {
            scan,
            domain: inputs::domain(),
        }
    }

    pub fn apply(&mut self, updates: &[MovingObject]) {
        self.scan.update_batch(updates).expect("oracle upsert");
    }

    pub fn update(&mut self, obj: MovingObject) {
        self.scan.update(obj).expect("oracle update");
    }

    /// The reference answer, sorted.
    pub fn range(&self, q: &RangeQuery) -> Vec<u64> {
        let mut want = MovingObjectIndex::range_query(&self.scan, q).expect("oracle range");
        want.sort_unstable();
        want
    }

    /// True when `got` is exactly the reference answer (as a set).
    pub fn range_ok(&self, q: &RangeQuery, got: &[u64]) -> bool {
        sorted(got) == self.range(q)
    }

    /// True when `got` names the reference neighbours in order.
    pub fn knn_ok(&self, q: &KnnQuery, got: &[Neighbor]) -> bool {
        let want = knn_at(&self.scan, q.center, q.k, q.t, &self.domain).expect("oracle knn");
        got.iter().map(|n| n.id).eq(want.iter().map(|n| n.id))
    }
}

/// Sorted copy, for comparing two answers as sets.
pub fn sorted(ids: &[u64]) -> Vec<u64> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
}
