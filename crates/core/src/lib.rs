//! # vp-core — the velocity partitioning (VP) technique
//!
//! This crate implements the paper's primary contribution plus the
//! shared vocabulary of the workspace:
//!
//! * [`MovingObject`], [`RangeQuery`] and the [`MovingObjectIndex`]
//!   trait — the common interface implemented by the TPR\*-tree
//!   (`vp-tpr`) and the Bx-tree (`vp-bx`), and *wrapped* by the VP
//!   index manager.
//! * [`pca`] / [`kmeans`] — principal components analysis in velocity
//!   space and the paper's k-means variant that clusters velocity
//!   points by perpendicular distance to each cluster's 1st principal
//!   component (Algorithm 2, `FindDVAs`).
//! * [`tau`] — selection of the outlier threshold τ per DVA partition
//!   by minimizing the rate of search-area expansion (Section 5.2,
//!   Equations 8–10) over a cumulative speed histogram.
//! * [`analyzer`] — the velocity analyzer (Algorithm 1): find DVAs,
//!   pick τ, evict outliers, refit the DVAs.
//! * [`manager`] — the index manager: one sub-index per DVA (in the
//!   DVA's rotated coordinate frame) plus an outlier index in world
//!   coordinates; routes insertions/deletions/updates and executes
//!   range queries by transforming them into every frame and merging
//!   the exact-filtered results (Algorithm 3).
//! * [`sub`] — standing continuous queries: registered range/kNN
//!   subscriptions re-evaluated incrementally per tick from the
//!   [`TickDelta`], emitting `Enter`/`Leave`/`Moved` events.
//!
//! The crate is index-agnostic: anything implementing
//! [`MovingObjectIndex`] can be velocity partitioned, mirroring the
//! paper's claim that VP is a generic technique.

pub mod analyzer;
pub mod cell;
pub mod config;
pub mod durable;
pub mod error;
pub mod histogram;
pub mod kmeans;
pub mod knn;
pub mod manager;
pub mod object;
pub mod pca;
pub mod query;
pub mod sub;
pub mod tau;
pub mod traits;

pub use analyzer::{AnalyzerOutput, DvaPartition, VelocityAnalyzer};
pub use cell::SnapshotCell;
pub use config::VpConfig;
pub use durable::RecoveryReport;
pub use error::{IndexError, IndexResult};
pub use histogram::CumulativeHistogram;
pub use knn::{knn_at, knn_batch, KnnQuery, Neighbor};
pub use manager::{Health, PartitionId, PartitionSpec, VpIndex, VpSnapshot};
pub use object::{MovingObject, ObjectId};
pub use query::{QueryRegion, RangeQuery};
pub use sub::{
    KnnSubSpec, RangeSubSpec, RetainedBatch, SubEvent, SubEventKind, SubscriptionConfig,
    SubscriptionId, SubscriptionSet, TickDelta,
};
pub use traits::{IndexSnapshot, MovingObjectIndex, SnapshotIndex};
pub use vp_wal::SyncPolicy;
