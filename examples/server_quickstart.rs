//! Serve a velocity-partitioned index over TCP and talk to it.
//!
//! Spawns the batch-formation server on an ephemeral port, then acts
//! as a fleet-telemetry client: insert a small fleet, commit a few
//! ticks, run range + kNN queries (coalesced server-side into batch
//! windows), inspect server stats, and shut down cleanly.
//!
//! Run with: `cargo run --release --example server_quickstart`

use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::traits::reference::ScanIndex;
use vp_server::{spawn, ServerConfig, VpClient};

fn main() {
    // 1. Build an index: velocities sampled from two orthogonal roads.
    let mut sample = Vec::new();
    for i in 1..=200 {
        let s = 15.0 + (i % 60) as f64;
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        sample.push(Point::new(s * sign, 0.0));
        sample.push(Point::new(0.0, s * sign));
    }
    let cfg = VpConfig::default();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample);
    let index: VpIndex<ScanIndex> =
        VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();

    // 2. Serve it. Port 0 picks an ephemeral port; `max_batch` caps
    //    how many reads that are queued at the same moment coalesce
    //    into one snapshot query batch (a lone read never waits).
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_batch: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind failed");
    println!("serving on {}", handle.addr());

    // 3. A client populates the fleet and commits ticks.
    let mut client = VpClient::connect(handle.addr()).unwrap();
    let mut fleet: Vec<MovingObject> = (0..500u64)
        .map(|id| {
            let lane = (id % 50) as f64 * 1_000.0 + 10_000.0;
            let (pos, vel) = if id % 2 == 0 {
                (
                    Point::new(10_000.0 + (id as f64) * 50.0, lane),
                    Point::new(40.0, 0.0),
                )
            } else {
                (
                    Point::new(lane, 10_000.0 + (id as f64) * 50.0),
                    Point::new(0.0, -35.0),
                )
            };
            MovingObject::new(id, pos, vel, 0.0)
        })
        .collect();
    client.tick(&fleet).unwrap();
    for t in 1..=3 {
        let time = t as f64 * 10.0;
        for o in fleet.iter_mut() {
            *o = MovingObject::new(o.id, o.position_at(time), o.vel, time);
        }
        client.tick(&fleet).unwrap();
    }
    println!("committed 4 ticks of 500 objects");

    // 4. Queries — predictive range and kNN.
    let q = RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(Point::new(30_000.0, 30_000.0), 8_000.0)),
        45.0,
    );
    let hits = client.range(&q).unwrap();
    println!("range @t=45: {} objects near (30k, 30k)", hits.len());
    let nn = client
        .knn(&KnnQuery {
            center: Point::new(30_000.0, 30_000.0),
            k: 5,
            t: 45.0,
        })
        .unwrap();
    println!(
        "5 nearest @t=45: {:?}",
        nn.iter().map(|n| n.id).collect::<Vec<_>>()
    );

    // 5. Server-side view: how many batch windows the reads formed.
    let stats = client.stats().unwrap();
    println!(
        "server stats: {} objects, {} partitions, {} writes, {} read requests in {} windows",
        stats.objects, stats.partitions, stats.writes, stats.batched_requests, stats.batches
    );

    // 6. Client-initiated shutdown; join() waits for service threads.
    client.shutdown_server().unwrap();
    handle.join();
    println!("server stopped");
}
