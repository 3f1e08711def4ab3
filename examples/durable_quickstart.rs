//! Durable quickstart: open a durable velocity-partitioned Bx-tree,
//! apply tick batches, checkpoint, "crash" (drop without any
//! shutdown), recover from WAL + checkpoint, and verify the queries
//! come back exactly.
//!
//! Run with: `cargo run --release --example durable_quickstart`

use std::fs;
use std::path::Path;
use std::sync::Arc;

use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::SyncPolicy;

/// One Bx-tree per partition, pages in a real file per partition.
fn factory(dir: &Path) -> impl FnMut(&PartitionSpec) -> BxTree + '_ {
    move |spec| {
        let disk = DiskManager::create_file(dir.join(format!("part-{}.pages", spec.id)), 4096)
            .expect("create page file");
        let pool = Arc::new(BufferPool::with_capacity(disk, 256));
        let config = BxConfig {
            domain: spec.domain,
            update_interval: 120.0,
            ..BxConfig::default()
        };
        BxTree::new(pool, config).expect("build Bx-tree")
    }
}

fn tick(objs: &mut [MovingObject], t: f64) -> Vec<MovingObject> {
    let mut updates = Vec::new();
    for o in objs.iter_mut() {
        if (o.id + t as u64).is_multiple_of(3) {
            // A third of the fleet reports in; even ids also turn 90°,
            // which migrates them between velocity partitions.
            let vel = if o.id % 2 == 0 {
                Point::new(-o.vel.y, o.vel.x)
            } else {
                o.vel
            };
            *o = MovingObject::new(o.id, o.position_at(t), vel, t);
            updates.push(*o);
        }
    }
    updates
}

fn probe(index: &VpIndex<BxTree>, t: f64) -> Vec<u64> {
    let q = RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 25_000.0)),
        t,
    );
    let mut got = index.range_query(&q).expect("range query");
    got.sort_unstable();
    got
}

fn main() {
    let dir = std::env::temp_dir().join(format!("vp-durable-quickstart-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // 1. A fleet on two synthetic roads, and the analyzer sample.
    let mut sample = Vec::new();
    for i in 1..=500 {
        let s = 10.0 + (i % 80) as f64;
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        sample.push(Point::new(s * sign, 0.1));
        sample.push(Point::new(-0.1, s * sign));
    }
    let config = VpConfig::default()
        .with_wal_dir(&dir)
        .with_sync_policy(SyncPolicy::Always)
        .with_checkpoint_every_ticks(4);
    let analysis = VelocityAnalyzer::new(config.clone()).analyze(&sample);

    let mut objs: Vec<MovingObject> = (0..2_000u64)
        .map(|id| {
            let s = 10.0 + (id % 80) as f64 * if id % 2 == 0 { 1.0 } else { -1.0 };
            let vel = if id % 4 < 2 {
                Point::new(s, 0.05)
            } else {
                Point::new(0.05, s)
            };
            MovingObject::new(
                id,
                Point::new((id % 100) as f64 * 1_000.0, (id / 100) as f64 * 5_000.0),
                vel,
                0.0,
            )
        })
        .collect();

    // 2. Open the durable index and run ticks. Every tick is one WAL
    //    record holding its updates; every 4th tick auto-checkpoints
    //    (object-table snapshot + log truncation).
    let before;
    {
        let mut index =
            VpIndex::open(config.clone(), &analysis, factory(&dir)).expect("open durable index");
        index.apply_updates(&objs).expect("initial load");
        for step in 1..=6 {
            let t = step as f64 * 10.0;
            let updates = tick(&mut objs, t);
            index.apply_updates(&updates).expect("tick");
        }
        before = probe(&index, 60.0);
        println!(
            "pre-crash: {} objects, probe query hits {}",
            index.len(),
            before.len()
        );
        // 3. Crash. No checkpoint, no flush, no goodbye: the last two
        //    ticks exist only in the WAL.
    }

    // 4. Recover: manifest -> latest checkpoint -> replay the log tail.
    let (recovered, report) = VpIndex::<BxTree>::recover(&dir, factory(&dir)).expect("recover");
    println!(
        "recovered from checkpoint seq {} + {} replayed events (last seq {})",
        report.checkpoint_seq, report.events_replayed, report.last_seq
    );

    // 5. Same queries, same answers.
    let after = probe(&recovered, 60.0);
    assert_eq!(before, after, "recovered query results must match");
    println!(
        "post-recovery: {} objects, probe query hits {} — identical ✓",
        recovered.len(),
        after.len()
    );

    let wal_files = fs::read_dir(&dir)
        .expect("list wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg") || n.ends_with(".vpck"))
        .count();
    println!(
        "durability artifacts in {}: {wal_files} files",
        dir.display()
    );

    let _ = fs::remove_dir_all(&dir);
}
