//! WAL throughput: what durability costs.
//!
//! Two layers are measured:
//!
//! 1. **Raw log** — `vp_wal::Wal` append + group commit of tick-sized
//!    records, fsync on every commit (`SyncPolicy::Always`) vs.
//!    OS-buffered (`SyncPolicy::Never`). This isolates the price of
//!    the fsync itself.
//! 2. **Index level** — a durable velocity-partitioned Bx-tree
//!    applying full ticks, comparing no durability / WAL without
//!    fsync / WAL with fsync. This is the number an operator cares
//!    about: tick throughput with the safety dial at each position.
//!
//! Results print as a table and land in `BENCH_wal.json`, or the
//! file `--out` names (via [`vp_bench::report::write_bench_json`]), so
//! the perf trajectory tracks durability overhead alongside the paper
//! metrics.
//!
//! ```text
//! cargo run --release -p vp-bench --bin wal_throughput             # full
//! cargo run --release -p vp-bench --bin wal_throughput -- --quick --out target/B.json  # CI smoke
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vp_bench::report::{fmt, write_bench_json, Table};
use vp_bx::{BxConfig, BxTree};
use vp_core::{MovingObject, SyncPolicy, VelocityAnalyzer, VpConfig, VpIndex};
use vp_geom::Point;
use vp_storage::{BufferPool, DiskManager};
use vp_wal::Wal;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vp-wal-bench-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Raw stream: `records` appends of `payload_len` bytes, one commit
/// each (the worst-case commit cadence). Returns records/s.
fn raw_log_throughput(records: u64, payload_len: usize, policy: SyncPolicy) -> f64 {
    let t = TempDir::new(match policy {
        SyncPolicy::Always => "raw-sync",
        SyncPolicy::Never => "raw-nosync",
        SyncPolicy::EveryTicks(_) => "raw-group",
    });
    let payload = vec![0xA5u8; payload_len];
    let mut wal = Wal::open(&t.0, "bench").unwrap();
    let start = Instant::now();
    for seq in 1..=records {
        wal.append(seq, 1, &payload).unwrap();
        wal.commit(policy).unwrap();
    }
    records as f64 / start.elapsed().as_secs_f64()
}

fn fleet(n: u64) -> Vec<MovingObject> {
    (0..n)
        .map(|id| {
            let s = 10.0 + (id % 80) as f64 * if id % 2 == 0 { 1.0 } else { -1.0 };
            let vel = if id % 4 < 2 {
                Point::new(s, 0.05)
            } else {
                Point::new(0.05, s)
            };
            MovingObject::new(
                id,
                Point::new((id % 320) as f64 * 312.0, (id / 320) as f64 * 1_600.0),
                vel,
                0.0,
            )
        })
        .collect()
}

fn bx_factory(dir: Option<&Path>) -> impl FnMut(&vp_core::PartitionSpec) -> BxTree + '_ {
    move |spec| {
        let disk = match dir {
            Some(d) => {
                DiskManager::create_file(d.join(format!("part-{}.pages", spec.id)), 4096).unwrap()
            }
            None => DiskManager::new(),
        };
        let pool = Arc::new(BufferPool::with_capacity(disk, 512));
        BxTree::new(
            pool,
            BxConfig {
                domain: spec.domain,
                update_interval: 120.0,
                ..BxConfig::default()
            },
        )
        .unwrap()
    }
}

/// Index-level: apply `ticks` full ticks of `objects` updates each.
/// Returns updates/s. `file_pages` puts the partition pools on real
/// page files (always true with a WAL); `policy == None` means no WAL
/// — so (false, None) is the paper's in-memory baseline and
/// (true, None) isolates the page-file cost from the log cost.
fn index_throughput(
    objects: u64,
    ticks: usize,
    file_pages: bool,
    policy: Option<SyncPolicy>,
) -> f64 {
    let t = TempDir::new("index");
    let mut config = VpConfig::default();
    if let Some(p) = policy {
        config = config.with_wal_dir(&t.0).with_sync_policy(p);
    }
    let sample: Vec<Point> = fleet(10_000).iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(config.clone()).analyze(&sample);
    let pages_dir = file_pages.then_some(t.0.as_path());
    let mut index = if policy.is_some() {
        VpIndex::open(config, &analysis, bx_factory(pages_dir)).unwrap()
    } else {
        VpIndex::build(config, &analysis, bx_factory(pages_dir)).unwrap()
    };

    let mut objs = fleet(objects);
    index.apply_updates(&objs).unwrap();
    let start = Instant::now();
    for tick in 1..=ticks {
        let t = tick as f64 * 10.0;
        for o in objs.iter_mut() {
            *o = MovingObject::new(o.id, o.position_at(t), o.vel, t);
        }
        index.apply_updates(&objs).unwrap();
    }
    (objects as usize * ticks) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_wal.json".into());
    let (raw_records, payload, objects, ticks) = if quick {
        (200u64, 4_096usize, 2_000u64, 2usize)
    } else {
        (2_000, 4_096, 20_000, 5)
    };

    println!("wal_throughput: {raw_records} raw records x {payload} B, index {objects} objs x {ticks} ticks");

    let raw_sync = raw_log_throughput(raw_records, payload, SyncPolicy::Always);
    let raw_nosync = raw_log_throughput(raw_records, payload, SyncPolicy::Never);
    let mb_nosync = raw_nosync * payload as f64 / (1024.0 * 1024.0);

    let idx_none = index_throughput(objects, ticks, false, None);
    let idx_pages = index_throughput(objects, ticks, true, None);
    let idx_nosync = index_throughput(objects, ticks, true, Some(SyncPolicy::Never));
    let idx_sync = index_throughput(objects, ticks, true, Some(SyncPolicy::Always));
    // Cross-tick group commit: fsync amortized over 8 ticks.
    let group_n = 8u32;
    let idx_group = index_throughput(objects, ticks, true, Some(SyncPolicy::EveryTicks(group_n)));

    let mut table = Table::new(&["layer", "config", "throughput", "unit", "vs baseline"]);
    table.row(vec![
        "raw log".into(),
        "fsync/commit".into(),
        fmt(raw_sync),
        "records/s".into(),
        format!("{}%", fmt(raw_sync / raw_nosync * 100.0)),
    ]);
    table.row(vec![
        "raw log".into(),
        "no fsync".into(),
        fmt(raw_nosync),
        "records/s".into(),
        "100%".into(),
    ]);
    table.row(vec![
        "index".into(),
        "memory, no wal".into(),
        fmt(idx_none),
        "updates/s".into(),
        "100%".into(),
    ]);
    table.row(vec![
        "index".into(),
        "file pages, no wal".into(),
        fmt(idx_pages),
        "updates/s".into(),
        format!("{}%", fmt(idx_pages / idx_none * 100.0)),
    ]);
    table.row(vec![
        "index".into(),
        "wal, no fsync".into(),
        fmt(idx_nosync),
        "updates/s".into(),
        format!("{}%", fmt(idx_nosync / idx_none * 100.0)),
    ]);
    table.row(vec![
        "index".into(),
        "wal, fsync".into(),
        fmt(idx_sync),
        "updates/s".into(),
        format!("{}%", fmt(idx_sync / idx_none * 100.0)),
    ]);
    table.row(vec![
        "index".into(),
        format!("wal, fsync/{group_n} ticks"),
        fmt(idx_group),
        "updates/s".into(),
        format!("{}%", fmt(idx_group / idx_none * 100.0)),
    ]);
    table.print();

    write_bench_json(
        &out_path,
        "wal_throughput",
        &[
            ("raw_records_per_s_fsync", raw_sync),
            ("raw_records_per_s_nofsync", raw_nosync),
            ("raw_mb_per_s_nofsync", mb_nosync),
            ("index_updates_per_s_memory", idx_none),
            ("index_updates_per_s_file_pages", idx_pages),
            ("index_updates_per_s_wal_nofsync", idx_nosync),
            ("index_updates_per_s_wal_fsync", idx_sync),
            (
                "durability_overhead_pct_nofsync",
                (1.0 - idx_nosync / idx_none) * 100.0,
            ),
            (
                "durability_overhead_pct_fsync",
                (1.0 - idx_sync / idx_none) * 100.0,
            ),
            (
                "wal_only_overhead_pct_nofsync",
                (1.0 - idx_nosync / idx_pages) * 100.0,
            ),
            ("index_updates_per_s_wal_group8", idx_group),
            (
                "durability_overhead_pct_group8",
                (1.0 - idx_group / idx_none) * 100.0,
            ),
            ("group8_speedup_over_fsync", idx_group / idx_sync),
        ],
    )
    .expect("write the results file");
    println!("wrote {out_path}");
}
