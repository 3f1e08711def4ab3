//! # vp-bench — the experiment harness
//!
//! Rebuilds every table and figure of the paper's evaluation (Section
//! 6). The library provides:
//!
//! * [`harness`] — index construction for the four contenders
//!   (Bx-tree, Bx(VP), TPR\*-tree, TPR\*(VP), plus the Bx enlargement
//!   ablation), trace replay with per-operation I/O and wall-clock
//!   accounting, and the averaged metrics the paper reports.
//! * [`report`] — plain-text table formatting shared by the
//!   `fig*` binaries (one binary per paper figure; see
//!   `crates/bench/src/bin/`).
//!
//! Run e.g. `cargo run --release -p vp-bench --bin fig19_datasets` to
//! regenerate the paper's Figure 19. Every binary accepts `--quick`
//! for a scaled-down smoke run.

pub mod harness;
pub mod report;

pub use harness::{BuiltIndex, IndexKind, Metrics, RunConfig, RunResult};
pub use report::Table;
