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
//! Features: recursive insert with node splits, full deletion with
//! sibling borrowing and merging, point lookups, and ordered range
//! scans — one left-to-right sweep per batch of ranges that reads each
//! page at most once. All node accesses go through the shared
//! `vp-storage` buffer pool and are attributed to the tree's own I/O
//! counters, matching the accounting discipline of the other indexes.
//!
//! The hot path never decodes a node: point ops and scans run over
//! zero-copy page views ([`node::LeafView`], [`node::InternalView`]
//! and their `Mut` variants), and two batched entry points —
//! [`BPlusTree::bulk_load`] and [`BPlusTree::apply_batch`] — amortize
//! descents and page writes across sorted runs of keys.

pub mod node;
pub mod tree;
pub mod view;

pub use node::{InternalView, InternalViewMut, Key128, LeafView, LeafViewMut, Value, VALUE_LEN};
pub use tree::{BPlusTree, BatchOp, BatchOutcome};
pub use view::BPlusTreeSnapshot;
