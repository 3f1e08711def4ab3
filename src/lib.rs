//! # velocity-partitioning
//!
//! A from-scratch Rust reproduction of **"Boosting Moving Object
//! Indexing through Velocity Partitioning"** (Nguyen, He, Zhang, Ward —
//! PVLDB 5(9), VLDB 2012), including every substrate the paper's
//! system depends on:
//!
//! * the **TPR\*-tree** ([`TprTree`]) over a paged storage engine
//!   with an I/O-counting LRU buffer pool, with batched
//!   maintenance via bulk TPBR re-clustering (`bulk_load`,
//!   `update_batch`, `remove_batch` — one page write per touched node);
//! * the **Bx-tree** ([`BxTree`]) over a from-scratch B+-tree, with a
//!   Hilbert curve, time buckets, and velocity-histogram query
//!   enlargement;
//! * the **velocity partitioning (VP)** technique itself
//!   ([`VpIndex`]): PCA-guided k-means discovery of dominant velocity
//!   axes (DVAs), cost-model-driven outlier thresholds (τ), and an
//!   index manager that keeps one rotated-frame sub-index per DVA;
//! * the benchmark workload generator (road networks with controlled
//!   direction skew, network-constrained movement, query streams).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use velocity_partitioning::prelude::*;
//!
//! // A velocity sample: traffic along two roads (the analyzer input).
//! let mut sample = Vec::new();
//! for i in 1..=500 {
//!     let s = 10.0 + (i % 90) as f64;
//!     let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     sample.push(Point::new(s * sign, 0.1)); // east-west road
//!     sample.push(Point::new(-0.1, s * sign)); // north-south road
//! }
//!
//! // Analyze: find DVAs and outlier thresholds (Algorithm 1).
//! let config = VpConfig::default();
//! let analysis = VelocityAnalyzer::new(config.clone()).analyze(&sample);
//! assert_eq!(analysis.partitions.len(), 2);
//!
//! // Build a velocity-partitioned TPR*-tree: one sub-tree per DVA
//! // plus an outlier tree, all sharing one 50-page buffer pool.
//! let pool = Arc::new(BufferPool::new(DiskManager::new()));
//! let mut index = VpIndex::build(config, &analysis, |_spec| {
//!     TprTree::new(Arc::clone(&pool), TprConfig::default())
//! })
//! .unwrap();
//!
//! // Insert a moving object and run a predictive range query.
//! index
//!     .insert(MovingObject::new(
//!         1,
//!         Point::new(50_000.0, 50_000.0),
//!         Point::new(30.0, 0.0), // eastbound, 30 m/ts
//!         0.0,
//!     ))
//!     .unwrap();
//! let query = RangeQuery::time_slice(
//!     QueryRegion::Circle(Circle::new(Point::new(51_800.0, 50_000.0), 200.0)),
//!     60.0, // 60 timestamps into the future
//! );
//! assert_eq!(index.range_query(&query).unwrap(), vec![1]);
//! ```
//!
//! ## Durability
//!
//! The paper's system is in-memory, but this reproduction grows
//! toward production scale, and production indexes survive crashes.
//! A [`VpIndex`] constructed through the durable lifecycle —
//! [`VpIndex::open`] with `VpConfig::wal_dir` set — write-ahead logs
//! every mutation through the [`vp_wal`] crate on **one log stream**:
//! each tick is one record holding its updates, committed once every
//! partition has applied and fsync'd per `VpConfig::sync_policy`;
//! recovery replays it through `apply_updates` itself. Sub-index
//! pages can live in real page files ([`DiskManager::create_file`]),
//! and
//! [`VpIndex::checkpoint`] — manual or every
//! `VpConfig::checkpoint_every_ticks` ticks — flushes dirty
//! buffer-pool shards, snapshots the object table atomically, and
//! truncates the log. After a crash, [`VpIndex::recover`] rebuilds
//! from manifest + latest checkpoint + the log's longest valid
//! prefix, reproducing the pre-crash query results exactly (property
//! tested against random crash points in `tests/recovery.rs`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use velocity_partitioning::prelude::*;
//!
//! let config = VpConfig::default().with_wal_dir("/var/lib/vp-index");
//! # let sample = vec![Point::new(30.0, 0.1)];
//! let analysis = VelocityAnalyzer::new(config.clone()).analyze(&sample);
//! let mut index = VpIndex::open(config, &analysis, |spec| {
//!     let disk =
//!         DiskManager::create_file(format!("/var/lib/vp-index/part-{}.pages", spec.id), 4096)
//!             .unwrap();
//!     BxTree::new(
//!         Arc::new(BufferPool::with_capacity(disk, 256)),
//!         BxConfig { domain: spec.domain, ..BxConfig::default() },
//!     )
//!     .unwrap()
//! })
//! .unwrap();
//! // ... apply_updates(ticks), checkpoint(), crash ...
//! let (index, report) = VpIndex::<BxTree>::recover("/var/lib/vp-index", |spec| {
//!     # let _ = spec; todo!()
//! })
//! .unwrap();
//! println!("recovered {} events past checkpoint {}", report.events_replayed, report.checkpoint_seq);
//! ```
//!
//! See `examples/durable_quickstart.rs` for the runnable version, and
//! `vpbench`'s `engine_batch` workload (`wal.commit_us_sync`,
//! `wal.commit_us_nosync`, `wal.tick_share`) for what each position
//! of the durability dial costs.
//!
//! ### Failure model
//!
//! Storage is allowed to fail, and every failure mode has a defined
//! outcome (the *degradation ladder*, documented in full in
//! `docs/ARCHITECTURE.md` § "Failure model & degradation ladder"):
//! transient I/O errors (EIO, ENOSPC) are retried with bounded
//! backoff ([`RetryPolicy`]); a tick that still fails **rolls back**
//! to the pre-tick snapshot and returns a structured error with the
//! index unchanged and queryable; a failed fsync poisons the WAL
//! (its durability is unknowable — it is never retried) and
//! demotes the index to an explicit read-only mode
//! ([`vp_core::Health`]); and [`VpIndex::recover`] is the way back
//! from there. The whole ladder is exercised by a scriptable fault
//! injector ([`FaultInjector`], wired in via
//! `VpConfig::with_fault_injector`) that can deal out torn writes,
//! ENOSPC, read errors, and fsync failures at exact operation counts
//! — see `tests/fault_injection.rs`.
//!
//! ## Serving over the network
//!
//! The workspace's `vp-server` crate (not re-exported here — it sits
//! beside this facade, the way `vp-bench` does) puts a TCP front-end
//! over a built index: a length-prefixed binary protocol, connection
//! threads that combine concurrent range/kNN requests into windows
//! executed via [`VpSnapshot`] batch queries, a single
//! writer thread owning the `&mut` [`VpIndex`], bounded admission
//! queues with typed `Overloaded` rejection, and chunk-streamed
//! large results. See `docs/ARCHITECTURE.md` § "Service layer &
//! batch formation", `examples/server_quickstart.rs`, and
//! `vpbench`'s `serve_read` and `serve_mixed` workloads
//! (`query_p50_us`, `untraced.query_qps`, `server.window_self_us`)
//! for what the request coalescing costs and buys.
//!
//! ## Where everything lives
//!
//! `docs/ARCHITECTURE.md` in the repository maps the workspace: the
//! crate dependency diagram (geom → storage/wal → bptree/bx/tpr →
//! core → workload/server → bench), the tick/batch data flow from
//! `VpIndex::apply_updates` down to the page files, the durability
//! lifecycle, the serving edge's batch formation, and which benches
//! and tests guard which path.
//!
//! See `examples/` for larger scenarios and `crates/bench/src/bin/`
//! for the binaries regenerating every figure of the paper.

pub use vp_bptree;
pub use vp_bx;
pub use vp_core;
pub use vp_geom;
pub use vp_storage;
pub use vp_tpr;
pub use vp_wal;
pub use vp_workload;

/// The commonly used API surface in one import.
pub mod prelude {
    pub use vp_bx::{BxConfig, BxEnlargement, BxTree};
    pub use vp_core::{
        knn_at, knn_batch, Health, IndexError, IndexResult, IndexSnapshot, KnnQuery, KnnSubSpec,
        MovingObject, MovingObjectIndex, Neighbor, ObjectId, PartitionSpec, QueryRegion,
        RangeQuery, RangeSubSpec, RecoveryReport, SnapshotIndex, SubEvent, SubEventKind,
        SubscriptionConfig, SubscriptionId, SubscriptionSet, SyncPolicy, TickDelta,
        VelocityAnalyzer, VpConfig, VpIndex, VpSnapshot,
    };
    pub use vp_geom::{Circle, Frame, Point, Rect, Vec2};
    pub use vp_storage::{
        BufferPool, DiskManager, FaultHandle, FaultInjector, FaultKind, FaultOp, FaultPoint,
        IoStats, RetryPolicy,
    };
    pub use vp_tpr::{TprConfig, TprTree};
    pub use vp_workload::{
        Dataset, QueryShape, QuerySpec, ScenarioConfig, ScenarioKind, ScenarioTrace, Workload,
        WorkloadConfig,
    };
}

pub use prelude::*;
