//! # vp-bx — the Bx-tree
//!
//! The paper's second baseline index (Jensen, Lin, Ooi — VLDB 2004): a
//! B+-tree over a space-filling-curve linearization of the space,
//! partitioned into time buckets, with *query window enlargement*
//! driven by velocity histograms and the iterative-expansion
//! improvement of Jensen et al. (MDM 2006).
//!
//! * [`curve`] — the Hilbert curve with exact decomposition of a cell
//!   window into contiguous curve ranges; each range is one segment of
//!   the query's shared leaf sweep, not a scan of its own.
//! * [`grid`] — the velocity histogram: per-cell min/max velocity
//!   components used to bound the enlargement (the paper's setup keeps
//!   a 1000×1000-cell histogram).
//! * [`tree`] — the Bx-tree proper, implementing
//!   [`vp_core::MovingObjectIndex`] over `vp-bptree`.

pub mod curve;
pub mod grid;
pub mod snapshot;
pub mod tree;

pub use curve::HilbertCurve;
pub use grid::VelocityGrid;
pub use snapshot::BxSnapshot;
pub use tree::{BxConfig, BxEnlargement, BxTree, EnlargedWindow};
