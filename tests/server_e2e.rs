//! Whole-lifecycle smoke test of the network front-end from the root
//! crate: build → serve → mutate → query → typed errors → client
//! initiated shutdown. The deep concurrency/fault coverage lives in
//! `crates/server/tests/server_integration.rs`; this test pins the
//! public workflow a library user follows. Two more pin read
//! combining: a burst of readers strands none of them, and a drain
//! answers every admitted read.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Barrier;
use std::thread;

use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::traits::reference::ScanIndex;
use vp_server::protocol::{write_frame, ErrorCode, FrameReader, Response};
use vp_server::{spawn, ServerConfig, StatsReply, VpClient};

fn sample() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 1..=300 {
        let s = 10.0 + (i % 90) as f64;
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        pts.push(Point::new(s * sign, (i % 5) as f64 * 0.2 - 0.4));
        pts.push(Point::new((i % 5) as f64 * 0.2 - 0.4, s * sign));
    }
    for i in 0..20 {
        pts.push(Point::new(40.0 + i as f64, 40.0 + i as f64));
    }
    pts
}

#[test]
fn full_lifecycle_over_the_wire() {
    let cfg = VpConfig::default();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample());
    let index: VpIndex<ScanIndex> =
        VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();

    let handle = spawn(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut c = VpClient::connect(addr).unwrap();

    // Empty index: queries answer, lookups miss.
    let q = RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 10_000.0)),
        0.0,
    );
    assert!(c.range(&q).unwrap().is_empty());
    assert_eq!(c.get_object(7).unwrap(), None);

    // Writes become visible to subsequent reads (the writer publishes
    // a fresh snapshot per committed mutation).
    let obj = MovingObject::new(
        7,
        Point::new(50_000.0, 50_000.0),
        Point::new(30.0, 1.0),
        0.0,
    );
    c.insert(obj).unwrap();
    assert_eq!(c.get_object(7).unwrap(), Some(obj));
    assert_eq!(c.range(&q).unwrap(), vec![7]);
    let nn = c
        .knn(&KnnQuery {
            center: Point::new(50_100.0, 50_000.0),
            k: 1,
            t: 0.0,
        })
        .unwrap();
    assert_eq!(nn.len(), 1);
    assert_eq!(nn[0].id, 7);

    // Typed rejections for precondition violations.
    assert_eq!(
        c.insert(obj).unwrap_err().code(),
        Some(ErrorCode::DuplicateObject)
    );
    assert_eq!(
        c.delete(999).unwrap_err().code(),
        Some(ErrorCode::UnknownObject)
    );

    // A tick moves the fleet atomically.
    let moved = MovingObject::new(7, obj.position_at(5.0), obj.vel, 5.0);
    c.tick(&[moved]).unwrap();
    assert_eq!(c.get_object(7).unwrap(), Some(moved));

    // A garbage frame gets BadRequest, and the connection survives it.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &[0xFF, 0x01, 0x02]).unwrap();
    raw.flush().unwrap();
    let mut frames = FrameReader::new();
    let payload = frames.read_frame(&mut raw).unwrap().expect("a reply frame");
    let Response::Error { code, .. } = Response::decode(&payload).unwrap() else {
        panic!("expected an error response");
    };
    assert_eq!(code, ErrorCode::BadRequest);
    write_frame(&mut raw, &vp_server::Request::Stats.encode()).unwrap();
    raw.flush().unwrap();
    let payload = frames
        .read_frame(&mut raw)
        .unwrap()
        .expect("stats after bad frame");
    let Response::Stats(stats) = Response::decode(&payload).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.objects, 1);
    assert_eq!(
        stats.writes, 2,
        "insert + tick committed; rejects don't count"
    );

    // Cleanup path: delete, then client-initiated shutdown; join()
    // returns once the service threads have exited.
    c.delete(7).unwrap();
    assert_eq!(c.get_object(7).unwrap(), None);
    c.shutdown_server().unwrap();
    handle.join();
}

const READERS: usize = 8;

/// Releases eight readers through one barrier against one-read windows
/// that each stall 20 ms, so every combiner but the last must hand its
/// role on. With `drain`, `shutdown()` runs while the reads are in
/// flight. Every reader gets its full answer or a typed `Draining`;
/// returns how many were answered and, without `drain`, the counters.
fn read_burst(drain: bool) -> (usize, Option<StatsReply>) {
    let cfg = VpConfig::default();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample());
    let mut index: VpIndex<ScanIndex> =
        VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();
    let fleet: Vec<MovingObject> = (0u64..)
        .zip(sample())
        .map(|(id, vel)| {
            let pos = Point::new(
                5_000.0 + 137.0 * id as f64,
                20_000.0 + (id % 60) as f64 * 1e3,
            );
            MovingObject::new(id, pos, vel, 0.0)
        })
        .collect();
    index.apply_updates(&fleet).unwrap();
    let oracle = index.snapshot().unwrap();
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_batch: 1,
            former_stall_us: 20_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut observer = VpClient::connect(addr).unwrap();
    let barrier = Barrier::new(READERS + 1);
    let mut handle = Some(handle);
    let answered = thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let (barrier, oracle) = (&barrier, &oracle);
                s.spawn(move || {
                    let x = 10_000.0 * i as f64;
                    let region = QueryRegion::Rect(Rect::from_bounds(x, 0.0, x + 30_000.0, 1e5));
                    let q = RangeQuery::time_slice(region, 0.0);
                    let mut c = VpClient::connect(addr).unwrap();
                    barrier.wait();
                    match c.range(&q) {
                        Ok(mut got) => {
                            let mut want = IndexSnapshot::range_query(oracle, &q).unwrap();
                            got.sort_unstable();
                            want.sort_unstable();
                            assert_eq!(got, want, "reader {i}");
                            true
                        }
                        Err(e) => {
                            assert_eq!(e.code(), Some(ErrorCode::Draining), "reader {i}: {e}");
                            false
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        if drain {
            // Once the first window has run, every read was sent at
            // least one 20 ms stall ago.
            while observer.stats().unwrap().batches == 0 {}
            handle.take().unwrap().shutdown();
        }
        readers
            .into_iter()
            .map(|r| r.join().unwrap())
            .filter(|&ok| ok)
            .count()
    });
    let stats = handle.map(|h| {
        let stats = observer.stats().unwrap();
        h.shutdown();
        stats
    });
    (answered, stats)
}

#[test]
fn combined_reads_strand_no_waiter() {
    let (answered, stats) = read_burst(false);
    let stats = stats.unwrap();
    assert_eq!(answered, READERS);
    assert_eq!(stats.batched_requests, READERS as u64);
    assert_eq!(
        stats.batches, READERS as u64,
        "max_batch 1: one read per window"
    );
}

#[test]
fn a_drain_answers_admitted_reads_and_rejects_the_rest_typed() {
    let (answered, _) = read_burst(true);
    assert!(
        answered >= 1,
        "the window that ran before the drain went unanswered"
    );
}
