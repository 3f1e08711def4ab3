//! Ablation benches for the design choices described in
//! `docs/ARCHITECTURE.md` § "The query data flow" (Bx time buckets,
//! velocity enlargement, and the retired variants).
//!
//! * Window enlargement (paper) vs per-cell scanning (our refinement),
//!   beside the TPR\*-tree.
//! * 1 vs 2 vs 4 time buckets in the Bx-tree.
//! * k = 1, 2, 3 DVA partitions for the VP technique.

use vp_bench::harness::{parse_common_args, run, IndexKind, RunConfig};
use vp_bench::report::{fmt, Table};
use vp_workload::Dataset;

fn main() {
    let base = parse_common_args(RunConfig {
        dataset: Dataset::Chicago,
        ..RunConfig::default()
    });

    println!("# Ablation A: index variants (CH)");
    let mut t = Table::new(&["variant", "query I/O", "query ms", "update I/O"]);
    for kind in [IndexKind::TprStar, IndexKind::Bx, IndexKind::BxCellSet] {
        eprintln!("ablation: {}", kind.label());
        let r = run(kind, &base).expect("run");
        t.row(vec![
            kind.label().into(),
            fmt(r.metrics.avg_query_io()),
            fmt(r.metrics.avg_query_ms()),
            fmt(r.metrics.avg_update_io()),
        ]);
    }
    t.print();

    println!("\n# Ablation B: Bx time buckets (CH)");
    let mut t = Table::new(&["buckets", "query I/O", "update I/O"]);
    for buckets in [1u32, 2, 4] {
        let mut cfg = base.clone();
        cfg.bx_buckets = buckets;
        eprintln!("ablation: {buckets} buckets");
        let r = run(IndexKind::Bx, &cfg).expect("run");
        t.row(vec![
            buckets.to_string(),
            fmt(r.metrics.avg_query_io()),
            fmt(r.metrics.avg_update_io()),
        ]);
    }
    t.print();

    println!("\n# Ablation C: number of DVA partitions k (CH)");
    let mut t = Table::new(&["k", "index", "query I/O", "outlier %"]);
    for k in [1usize, 2, 3] {
        let mut cfg = base.clone();
        cfg.vp.k = k;
        for kind in [IndexKind::BxVp, IndexKind::TprStarVp] {
            eprintln!("ablation: k={k} {}", kind.label());
            let r = run(kind, &cfg).expect("run");
            t.row(vec![
                k.to_string(),
                kind.label().into(),
                fmt(r.metrics.avg_query_io()),
                fmt(r.outlier_fraction * 100.0),
            ]);
        }
    }
    t.print();
}
