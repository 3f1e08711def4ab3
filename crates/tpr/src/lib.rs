//! # vp-tpr — the TPR\*-tree
//!
//! A from-scratch, paged implementation of the TPR\*-tree (Tao,
//! Papadias, Sun — VLDB 2003), the paper's first baseline index:
//! insertion chooses subtrees and split points by minimizing
//! *sweep-region volume* integrals over a horizon (the
//! expected-node-access cost model of the paper's Equation 1), with
//! R\*-style forced reinsertion.
//!
//! Every structural decision — subtree choice, reinsertion
//! candidates, split points — is steered by the [`cost`] metric: the
//! sweep volume a query-inflated node TPBR covers over the tree's
//! horizon. See [`cost::sweep_cost`].
//!
//! Nodes live in 4 KB pages behind the `vp-storage` buffer pool; every
//! node visit is a logical page access, so the paper's query/update I/O
//! metrics fall out of the pool statistics. The tree implements
//! [`vp_core::MovingObjectIndex`], so it can be wrapped by the VP index
//! manager unchanged. Every write runs one engine, a top-down pass
//! that writes each touched page once, under one of two overflow
//! rules: single ops force-reinsert as the TPR\*-tree does, and tick
//! batches (`update_batch`, `remove_batch`) re-cluster multi-way. See
//! the [`tree`] module docs for the algorithm.

pub mod cost;
pub mod node;
pub mod snapshot;
pub mod tree;

pub use cost::sweep_cost;
pub use node::{InternalEntry, LeafEntry, Node, NodeLayout};
pub use snapshot::TprSnapshot;
pub use tree::{TprConfig, TprTree};
