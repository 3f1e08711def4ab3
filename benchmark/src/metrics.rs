//! Every metric the benchmark emits: name, unit, direction, bound.
//!
//! `BENCHMARK.json` lists [`END_TO_END`] and [`PER_LAYER`]; a self-test
//! keeps the two in step. [`EXTRA`] are end-to-end metrics that only
//! some workloads can report (a recovery time needs a WAL, a physical
//! read needs a pool smaller than the index), or that do not repeat
//! well enough on the reference host to carry a bound: the driver's
//! contract wants every listed end-to-end metric from every workload,
//! never zero, and steady within its bound, so these are printed,
//! written to `out/<workload>.json` and compared by `vpbench repeat`,
//! but are not in `BENCHMARK.json`'s end-to-end list.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
    /// Repeats bit for bit on the same code and seed.
    pub exact: bool,
    /// Workloads that report it; empty means all four.
    pub workloads: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
        workloads: &[],
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

pub const WORKLOADS: [&str; 4] = ["paper_replay", "engine_batch", "serve_read", "serve_mixed"];

/// Reported by every workload; listed in `BENCHMARK.json`.
///
/// The bounds are what the reference host allows, not what one would
/// wish: on this shared two-vCPU machine the same code and seed read
/// 10–20 % apart from one quarter of an hour to the next on every
/// timing metric (see README, "Bounds"), and the driver refuses a
/// benchmark whose run-to-run spread exceeds its own bound, so every
/// timing bound sits at the contract's ceiling of 25 %.
/// `pages_scanned_per_query` repeats bit for bit for a seed; its bound
/// covers the seed-to-seed spread of ten seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("update_us_per_obj", "us", Lower, 0.25),
    Metric {
        exact: true,
        ..e2e("pages_scanned_per_query", "pages", Lower, 0.20)
    },
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

const P: &[&str] = &["paper_replay"];
const E: &[&str] = &["engine_batch"];
const R: &[&str] = &["serve_read"];

/// End-to-end metrics demoted from `BENCHMARK.json`'s end-to-end list:
/// over ten seeds they spread 22–30 % on some workload even in a quiet
/// half hour (see README, "Demoted"), and no bound may exceed 25 %. The
/// traced run reports its untraced pass's values per layer as
/// `untraced.<name>`.
pub const DEMOTED: [&str; 3] = ["query_p99_us", "query_qps", "tick_p95_ms"];

/// Not in `BENCHMARK.json`'s end-to-end list.
pub const EXTRA: &[Metric] = &[
    // [`DEMOTED`], reported by every workload.
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.25),
    e2e("tick_p95_ms", "ms", Lower, 0.25),
    Metric {
        workloads: R,
        ..e2e("scan_p50_ms", "ms", Lower, 0.25)
    },
    Metric {
        workloads: P,
        exact: true,
        ..e2e("phys_io_per_query", "pages", Lower, 0.01)
    },
    Metric {
        workloads: P,
        exact: true,
        ..e2e("phys_io_per_update", "pages", Lower, 0.01)
    },
    Metric {
        workloads: P,
        exact: true,
        ..e2e("vp_io_gain", "x", Higher, 0.01)
    },
    Metric {
        workloads: E,
        ..e2e("recover_s", "s", Lower, 0.25)
    },
    Metric {
        workloads: E,
        exact: true,
        ..e2e("stored_bytes_per_obj", "B", Lower, 0.01)
    },
    // Any increase is a regression.
    e2e("failed_share", "ratio", Lower, 0.0),
];

/// Reported by the traced run; listed in `BENCHMARK.json`.
pub const PER_LAYER: &[Metric] = &[
    layer("geom.frame_transform_ns_per_obj", "ns", Lower),
    layer("storage.hit_ratio", "ratio", Higher),
    layer("storage.phys_reads_per_query", "pages", Lower),
    layer("storage.phys_writes_per_update", "pages", Lower),
    layer("storage.logical_writes_per_obj", "pages", Lower),
    layer("storage.page_hit_ns.mem", "ns", Lower),
    layer("storage.page_miss_ns.mem", "ns", Lower),
    layer("storage.page_hit_ns.file", "ns", Lower),
    layer("storage.page_miss_ns.file", "ns", Lower),
    layer("storage.overlay_versions_peak", "count", Lower),
    layer("storage.pages_per_kobj", "pages", Lower),
    layer("storage.flush_ms", "ms", Lower),
    layer("wal.bytes_per_obj", "B", Lower),
    layer("wal.commit_us_sync", "us", Lower),
    layer("wal.commit_us_nosync", "us", Lower),
    layer("wal.tick_share", "ratio", Lower),
    layer("wal.replay_ms", "ms", Lower),
    layer("wal.records_replayed", "count", Lower),
    layer("wal.segments_after_ckpt", "count", Lower),
    layer("bptree.apply_batch_ns_per_key", "ns", Lower),
    layer("bptree.scan_batch_ns_per_entry", "ns", Lower),
    layer("bptree.single_update_ns", "ns", Lower),
    layer("bptree.pages_per_scan", "pages", Lower),
    layer("bx.phys_io_per_query.unpart", "pages", Lower),
    layer("bx.phys_io_per_query.vp", "pages", Lower),
    layer("bx.phys_io_per_update.vp", "pages", Lower),
    layer("bx.range_batch_us_per_query", "us", Lower),
    layer("bx.knn_us_per_search", "us", Lower),
    layer("bx.knn_pages_per_search", "pages", Lower),
    layer("bx.results_per_page", "ratio", Higher),
    layer("bx.update_batch_us_per_obj", "us", Lower),
    layer("bx.tick_ms", "ms", Lower),
    layer("tpr.phys_io_per_query.unpart", "pages", Lower),
    layer("tpr.phys_io_per_query.vp", "pages", Lower),
    layer("tpr.phys_io_per_update.vp", "pages", Lower),
    layer("tpr.range_batch_us_per_query", "us", Lower),
    layer("tpr.knn_us_per_search", "us", Lower),
    layer("tpr.knn_pages_per_search", "pages", Lower),
    layer("tpr.results_per_page", "ratio", Higher),
    layer("tpr.update_batch_us_per_obj", "us", Lower),
    layer("tpr.tick_ms", "ms", Lower),
    layer("core.analyze_ms", "ms", Lower),
    layer("core.load_ms", "ms", Lower),
    layer("core.tick_ms.mem", "ms", Lower),
    layer("core.tick_ms.durable", "ms", Lower),
    layer("core.tick_self_share", "ratio", Lower),
    layer("core.snapshot_us", "us", Lower),
    layer("core.cow_tick_ratio", "x", Lower),
    layer("core.read_self_share", "ratio", Lower),
    layer("core.partition_skew", "x", Lower),
    layer("core.outlier_share", "ratio", Lower),
    layer("core.migrations_per_tick", "count", Lower),
    layer("core.checkpoint_ms", "ms", Lower),
    layer("core.recover_ms", "ms", Lower),
    layer("core.sub_on_tick_us", "us", Lower),
    layer("core.sub_events_per_tick", "count", Lower),
    layer("core.sub_pages_per_tick", "pages", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.get_rtt_us", "us", Lower),
    layer("server.range_rtt_us", "us", Lower),
    layer("server.range_exec_us", "us", Lower),
    layer("server.window_self_us", "us", Lower),
    layer("server.encode_ns_per_req", "ns", Lower),
    layer("server.decode_ns_per_req", "ns", Lower),
    layer("server.encode_ns_per_kid", "ns", Lower),
    layer("server.scan_rtt_ms", "ms", Lower),
    layer("server.scan_exec_ms", "ms", Lower),
    layer("server.chunks_per_scan", "count", Lower),
    layer("server.reqs_per_window", "count", Higher),
    layer("server.overloaded", "count", Lower),
    layer("server.writes", "count", Higher),
    layer("server.tick_rtt_ms", "ms", Lower),
    layer("server.write_overhead_ms", "ms", Lower),
    layer("server.event_lag_ms", "ms", Lower),
    layer("server.query_p50_us.range", "us", Lower),
    layer("server.query_p50_us.knn", "us", Lower),
    layer("loadgen.late_p50_us", "us", Lower),
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.backlog_end", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("untraced.query_p99_us", "us", Lower),
    layer("untraced.query_qps", "1/s", Higher),
    layer("untraced.tick_p95_ms", "ms", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(EXTRA)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

impl Metric {
    pub fn reported_by(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}
