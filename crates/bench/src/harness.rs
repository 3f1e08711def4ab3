//! Index construction, trace replay, and metric collection.

use std::sync::Arc;
use std::time::Instant;

use vp_bx::{BxConfig, BxEnlargement, BxTree};
use vp_core::{IndexResult, MovingObjectIndex, VelocityAnalyzer, VpConfig, VpIndex};
use vp_storage::{BufferPool, DiskManager, IoStats};
use vp_tpr::{TprConfig, TprTree};
use vp_workload::{Dataset, Workload, WorkloadConfig, WorkloadEvent};

/// The contenders of the paper's experiments (Section 6) plus the
/// Bx enlargement ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Unpartitioned Bx-tree.
    Bx,
    /// Velocity-partitioned Bx-tree — "Bx(VP)".
    BxVp,
    /// Unpartitioned TPR\*-tree.
    TprStar,
    /// Velocity-partitioned TPR\*-tree — "TPR\*(VP)".
    TprStarVp,
    /// Bx-tree scanning exact qualifying cells instead of one window
    /// (ablation: our improvement over the paper's enlargement).
    BxCellSet,
}

impl IndexKind {
    /// The four contenders of the paper's figures, in plot order.
    pub const PAPER: [IndexKind; 4] = [
        IndexKind::Bx,
        IndexKind::BxVp,
        IndexKind::TprStar,
        IndexKind::TprStarVp,
    ];

    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Bx => "Bx",
            IndexKind::BxVp => "Bx(VP)",
            IndexKind::TprStar => "TPR*",
            IndexKind::TprStarVp => "TPR*(VP)",
            IndexKind::BxCellSet => "Bx(cells)",
        }
    }

    /// True for velocity-partitioned kinds.
    pub fn is_vp(&self) -> bool {
        matches!(self, IndexKind::BxVp | IndexKind::TprStarVp)
    }
}

/// One experiment cell: a dataset/workload and an index configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub dataset: Dataset,
    pub workload: WorkloadConfig,
    /// Buffer pool pages (Table 1: 50).
    pub buffer_pages: usize,
    /// Page size in bytes (Table 1: 4 KB).
    pub page_size: usize,
    /// VP configuration (k, sample size, τ buckets...).
    pub vp: VpConfig,
    /// Override: fixed τ for every DVA partition instead of the
    /// automatic algorithm (Figure 17's sweep).
    pub fixed_tau: Option<f64>,
    /// Bx histogram cells per axis.
    pub bx_hist_cells: usize,
    /// Bx time buckets.
    pub bx_buckets: u32,
    /// Synthetic latency charged per physical page I/O when reporting
    /// execution times (ms). The paper ran on a real disk; our pager is
    /// simulated, so wall-clock alone would miss the I/O component that
    /// dominates the paper's timing figures. 2 ms/page approximates the
    /// 2012-era random-I/O cost implied by the paper's numbers.
    pub io_latency_ms: f64,
    /// Self-check every query against a linear-scan oracle (slow; used
    /// by the integration tests).
    pub verify: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            dataset: Dataset::Chicago,
            workload: WorkloadConfig::default(),
            buffer_pages: 50,
            page_size: 4096,
            vp: VpConfig::default(),
            fixed_tau: None,
            bx_hist_cells: 1000,
            bx_buckets: 2,
            io_latency_ms: 2.0,
            verify: false,
        }
    }
}

impl RunConfig {
    /// A scaled-down configuration that preserves the experiment shape
    /// (for smoke runs and CI).
    pub fn quick(mut self) -> RunConfig {
        self.workload.n_objects = self.workload.n_objects.min(10_000);
        self.workload.n_queries = self.workload.n_queries.min(60);
        self.workload.duration = self.workload.duration.min(120.0);
        self.bx_hist_cells = self.bx_hist_cells.min(250);
        self.vp.sample_size = self.vp.sample_size.min(2_000);
        self
    }
}

/// Averaged per-operation metrics (the paper's reporting unit).
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics {
    pub queries: u64,
    pub updates: u64,
    pub query_io_total: u64,
    pub update_io_total: u64,
    pub query_ns_total: u128,
    pub update_ns_total: u128,
    /// Total objects returned across all queries (sanity signal).
    pub results_total: u64,
}

impl Metrics {
    /// Average physical reads per query — "query I/O".
    pub fn avg_query_io(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.query_io_total as f64 / self.queries as f64
        }
    }

    /// Average physical I/O per update — "update I/O".
    pub fn avg_update_io(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.update_io_total as f64 / self.updates as f64
        }
    }

    /// Average query execution time in milliseconds.
    pub fn avg_query_ms(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.query_ns_total as f64 / self.queries as f64 / 1e6
        }
    }

    /// Average update execution time in milliseconds.
    pub fn avg_update_ms(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.update_ns_total as f64 / self.updates as f64 / 1e6
        }
    }
}

/// Outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub kind: IndexKind,
    pub dataset: Dataset,
    pub metrics: Metrics,
    /// Velocity-analyzer wall time (VP kinds only).
    pub analyzer_ms: f64,
    /// Fraction of the velocity sample classified as outliers.
    pub outlier_fraction: f64,
    /// Chosen τ per DVA partition (VP kinds only).
    pub taus: Vec<f64>,
    /// Objects indexed after the initial load.
    pub loaded: usize,
}

/// A constructed index with access to the concrete type for
/// figure-specific diagnostics.
pub enum BuiltIndex {
    Bx(BxTree),
    BxVp(VpIndex<BxTree>),
    Tpr(TprTree),
    TprVp(VpIndex<TprTree>),
}

impl BuiltIndex {
    /// The index as the common trait object.
    pub fn as_index_mut(&mut self) -> &mut dyn MovingObjectIndex {
        match self {
            BuiltIndex::Bx(i) => i,
            BuiltIndex::BxVp(i) => i,
            BuiltIndex::Tpr(i) => i,
            BuiltIndex::TprVp(i) => i,
        }
    }

    /// The index as the common trait object (shared).
    pub fn as_index(&self) -> &dyn MovingObjectIndex {
        match self {
            BuiltIndex::Bx(i) => i,
            BuiltIndex::BxVp(i) => i,
            BuiltIndex::Tpr(i) => i,
            BuiltIndex::TprVp(i) => i,
        }
    }
}

/// Everything needed to replay and inspect one experiment cell.
pub struct Prepared {
    pub index: BuiltIndex,
    pub workload: Workload,
    pub pool: Arc<BufferPool>,
    pub analyzer_ms: f64,
    pub outlier_fraction: f64,
    pub taus: Vec<f64>,
}

/// Builds the index for `kind`, runs the velocity analyzer for VP
/// kinds, and loads the initial objects.
pub fn prepare(kind: IndexKind, cfg: &RunConfig) -> IndexResult<Prepared> {
    let workload = Workload::generate(cfg.dataset, &cfg.workload);
    prepare_with_workload(kind, cfg, workload)
}

/// Like [`prepare`] but reusing an already generated workload (the
/// sweeps reuse one trace across all four contenders).
pub fn prepare_with_workload(
    kind: IndexKind,
    cfg: &RunConfig,
    workload: Workload,
) -> IndexResult<Prepared> {
    // `with_capacity` is single-shard: the paper's experiments
    // (Table 1: one 50-page buffer) assume one global LRU order, and
    // replay is sequential — per-shard LRU would silently shift the
    // reported query-I/O numbers away from the seed baseline.
    let pool = Arc::new(BufferPool::with_capacity(
        DiskManager::with_page_size(cfg.page_size),
        cfg.buffer_pages,
    ));

    let tpr_cfg = || TprConfig {
        horizon: cfg.workload.max_update_interval,
    };
    let bx_cfg = |domain: vp_geom::Rect, enlargement: BxEnlargement| BxConfig {
        domain,
        num_buckets: cfg.bx_buckets,
        update_interval: cfg.workload.max_update_interval,
        hist_cells: cfg.bx_hist_cells,
        enlargement,
        ..BxConfig::default()
    };

    let mut analyzer_ms = 0.0;
    let mut outlier_fraction = 0.0;
    let mut taus = Vec::new();

    let mut analysis_for_vp = || {
        let sample = workload.velocity_sample(cfg.vp.sample_size, cfg.vp.seed ^ 0xA11A);
        let mut analysis = VelocityAnalyzer::new(cfg.vp.clone()).analyze(&sample);
        if let Some(tau) = cfg.fixed_tau {
            // Figure 17: override the automatic τ with a fixed value
            // (re-partitioning the sample accordingly).
            for p in &mut analysis.partitions {
                p.tau = tau;
            }
        }
        analyzer_ms = analysis.elapsed.as_secs_f64() * 1e3;
        outlier_fraction = analysis.outlier_fraction();
        taus = analysis.partitions.iter().map(|p| p.tau).collect();
        analysis
    };

    let mut index = match kind {
        IndexKind::Bx => BuiltIndex::Bx(BxTree::new(
            Arc::clone(&pool),
            bx_cfg(workload.domain, BxEnlargement::Window),
        )?),
        IndexKind::BxCellSet => BuiltIndex::Bx(BxTree::new(
            Arc::clone(&pool),
            bx_cfg(workload.domain, BxEnlargement::CellSet),
        )?),
        IndexKind::TprStar => BuiltIndex::Tpr(TprTree::new(Arc::clone(&pool), tpr_cfg())),
        IndexKind::BxVp => {
            let analysis = analysis_for_vp();
            let p = Arc::clone(&pool);
            BuiltIndex::BxVp(VpIndex::build(cfg.vp.clone(), &analysis, |spec| {
                BxTree::new(Arc::clone(&p), bx_cfg(spec.domain, BxEnlargement::Window))
                    .expect("bx sub-index")
            })?)
        }
        IndexKind::TprStarVp => {
            let analysis = analysis_for_vp();
            let p = Arc::clone(&pool);
            BuiltIndex::TprVp(VpIndex::build(cfg.vp.clone(), &analysis, |spec| {
                let _ = spec;
                TprTree::new(Arc::clone(&p), tpr_cfg())
            })?)
        }
    };

    // Initial load.
    for obj in &workload.initial {
        index.as_index_mut().insert(*obj)?;
    }

    Ok(Prepared {
        index,
        workload,
        pool,
        analyzer_ms,
        outlier_fraction,
        taus,
    })
}

/// Replays the trace on a prepared index, measuring per-operation I/O
/// and wall time exactly as the paper does (averages over the run).
pub fn replay(kind: IndexKind, cfg: &RunConfig, mut prep: Prepared) -> IndexResult<RunResult> {
    use vp_core::traits::reference::ScanIndex;

    let mut oracle = if cfg.verify {
        let mut s = ScanIndex::new();
        for o in &prep.workload.initial {
            s.insert(*o)?;
        }
        Some(s)
    } else {
        None
    };

    // Cold-start the cache after the bulk load so query I/O is not an
    // artifact of load order.
    prep.pool.clear_cache()?;
    let index = prep.index.as_index_mut();
    index.reset_io_stats();

    let mut m = Metrics::default();
    let mut io_before: IoStats;

    for (_, event) in &prep.workload.events {
        match event {
            WorkloadEvent::Update(obj) => {
                io_before = index.io_stats();
                let t0 = Instant::now();
                index.update(*obj)?;
                let d = index.io_stats().delta(&io_before);
                m.update_ns_total += t0.elapsed().as_nanos()
                    + (d.physical_total() as f64 * cfg.io_latency_ms * 1e6) as u128;
                m.update_io_total += d.physical_total();
                m.updates += 1;
                if let Some(s) = oracle.as_mut() {
                    s.update(*obj)?;
                }
            }
            WorkloadEvent::Query(q) => {
                io_before = index.io_stats();
                let t0 = Instant::now();
                let result = index.range_query(q)?;
                let d = index.io_stats().delta(&io_before);
                m.query_ns_total += t0.elapsed().as_nanos()
                    + (d.physical_total() as f64 * cfg.io_latency_ms * 1e6) as u128;
                m.query_io_total += d.physical_total();
                m.queries += 1;
                m.results_total += result.len() as u64;
                if let Some(s) = oracle.as_ref() {
                    let mut got = result.clone();
                    let mut want = s.range_query(q)?;
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{} diverged from oracle", kind.label());
                }
            }
        }
    }

    Ok(RunResult {
        kind,
        dataset: cfg.dataset,
        metrics: m,
        analyzer_ms: prep.analyzer_ms,
        outlier_fraction: prep.outlier_fraction,
        taus: prep.taus,
        loaded: prep.workload.initial.len(),
    })
}

/// Convenience: prepare + replay.
pub fn run(kind: IndexKind, cfg: &RunConfig) -> IndexResult<RunResult> {
    let prep = prepare(kind, cfg)?;
    replay(kind, cfg, prep)
}

/// Convenience: run all four paper contenders on one shared trace.
pub fn run_paper_contenders(cfg: &RunConfig) -> IndexResult<Vec<RunResult>> {
    let workload = Workload::generate(cfg.dataset, &cfg.workload);
    IndexKind::PAPER
        .iter()
        .map(|&kind| {
            let prep = prepare_with_workload(kind, cfg, workload.clone())?;
            replay(kind, cfg, prep)
        })
        .collect()
}

/// Parses the common CLI convention of the figure binaries: `--quick`
/// scales the run down, `--objects N` / `--queries N` override counts.
pub fn parse_common_args(mut cfg: RunConfig) -> RunConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = cfg.quick(),
            "--objects" if i + 1 < args.len() => {
                cfg.workload.n_objects = args[i + 1].parse().expect("--objects N");
                i += 1;
            }
            "--queries" if i + 1 < args.len() => {
                cfg.workload.n_queries = args[i + 1].parse().expect("--queries N");
                i += 1;
            }
            "--seed" if i + 1 < args.len() => {
                cfg.workload.seed = args[i + 1].parse().expect("--seed N");
                i += 1;
            }
            other => {
                panic!("unknown argument {other} (supported: --quick --objects --queries --seed)")
            }
        }
        i += 1;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(dataset: Dataset) -> RunConfig {
        RunConfig {
            dataset,
            workload: WorkloadConfig {
                n_objects: 800,
                n_queries: 15,
                duration: 90.0,
                ..WorkloadConfig::default()
            },
            bx_hist_cells: 100,
            vp: VpConfig {
                sample_size: 800,
                ..VpConfig::default()
            },
            verify: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn all_contenders_match_oracle_on_chicago() {
        let cfg = tiny_cfg(Dataset::Chicago);
        for kind in IndexKind::PAPER {
            let r = run(kind, &cfg).unwrap();
            assert_eq!(r.loaded, 800);
            assert!(r.metrics.queries > 0);
            assert!(r.metrics.updates > 0);
            if kind.is_vp() {
                assert!(!r.taus.is_empty());
            }
        }
    }

    #[test]
    fn all_contenders_match_oracle_on_uniform() {
        let cfg = tiny_cfg(Dataset::Uniform);
        for kind in IndexKind::PAPER {
            let r = run(kind, &cfg).unwrap();
            assert!(r.metrics.queries > 0, "{:?}", kind);
        }
    }

    #[test]
    fn ablation_kinds_run() {
        let cfg = tiny_cfg(Dataset::SanFrancisco);
        let r = run(IndexKind::BxCellSet, &cfg).unwrap();
        assert!(r.metrics.queries > 0);
    }

    #[test]
    fn fixed_tau_override_applies() {
        let mut cfg = tiny_cfg(Dataset::Chicago);
        cfg.fixed_tau = Some(2.5);
        let r = run(IndexKind::BxVp, &cfg).unwrap();
        assert!(r.taus.iter().all(|&t| (t - 2.5).abs() < 1e-12));
    }

    #[test]
    fn quick_scales_down() {
        let cfg = RunConfig::default().quick();
        assert!(cfg.workload.n_objects <= 10_000);
        assert!(cfg.bx_hist_cells <= 250);
    }

    #[test]
    fn metrics_averages() {
        let m = Metrics {
            queries: 4,
            updates: 2,
            query_io_total: 40,
            update_io_total: 10,
            query_ns_total: 8_000_000,
            update_ns_total: 1_000_000,
            results_total: 100,
        };
        assert_eq!(m.avg_query_io(), 10.0);
        assert_eq!(m.avg_update_io(), 5.0);
        assert!((m.avg_query_ms() - 2.0).abs() < 1e-12);
        assert!((m.avg_update_ms() - 0.5).abs() < 1e-12);
        assert_eq!(Metrics::default().avg_query_io(), 0.0);
    }
}
