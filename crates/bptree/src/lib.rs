//! # vp-bptree — a paged B+-tree
//!
//! The disk-resident B+-tree underneath the Bx-tree (`vp-bx`). Keys are
//! 128-bit composites ([`Key128`]) — the Bx-tree packs
//! `(time-bucket ‖ space-filling-curve value, object id)` into them so
//! that objects sharing a grid cell coexist without duplicate-key
//! machinery. Values are fixed-size byte records ([`VALUE_LEN`] bytes),
//! large enough for the Bx-tree's `(position, velocity, ref time)`
//! payload.
//!
//! Features: one write engine, [`BPlusTree::apply_batch`], that applies
//! a sorted run of upserts and deletes in one tree walk — multi-way
//! splits on overflow, and merging or even redistribution of drained
//! siblings on underflow — with single inserts and deletes as batches
//! of one; bulk loading; point lookups; and ordered range scans — one
//! left-to-right sweep per batch of ranges that reads each page at most
//! once. All node accesses go through the shared `vp-storage` buffer
//! pool and are attributed to the tree's own I/O counters, matching
//! the accounting discipline of the other indexes.
//!
//! The hot path never decodes a node: writes that fit their leaf, point
//! lookups and scans run over zero-copy page views
//! ([`node::LeafView`], [`node::LeafViewMut`], [`node::InternalView`]).

pub mod node;
pub mod tree;
pub mod view;

pub use node::{InternalView, Key128, LeafView, LeafViewMut, Value, VALUE_LEN};
pub use tree::{BPlusTree, BatchOp, BatchOutcome};
pub use view::BPlusTreeSnapshot;
