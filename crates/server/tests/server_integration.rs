//! End-to-end tests of the batch-formation server.
//!
//! The contracts under test:
//!
//! 1. **Coalescing correctness** — N concurrent clients issuing mixed
//!    range/kNN streams while a tick storm commits underneath get
//!    responses bit-identical to a direct, quiesced `VpSnapshot`
//!    query. The workload uses *integer-valued* coordinates and
//!    trajectory-preserving re-reports (`pos + vel·t` stays exactly
//!    representable), so every snapshot the server could answer from
//!    gives the same exact answers as the pre-spawn oracle snapshot.
//! 2. **Backpressure** — overflowing the bounded admission queue
//!    yields a structured `Overloaded` rejection; every request gets
//!    *some* answer (never a hang, never a dropped connection) and the
//!    server keeps serving afterwards.
//! 3. **Streaming** — a range result far larger than `max_frame`
//!    arrives as multiple chunks whose concatenation is byte-identical
//!    to the materialized answer.
//! 4. **Fault surfacing** — with an injected fsync failure, a client
//!    write sees the typed `WalPoisoned` / `ReadOnly` error codes
//!    while reads keep answering the pre-fault state.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use std::time::Duration;

use vp_bx::{BxConfig, BxTree};
use vp_core::traits::reference::ScanIndex;
use vp_core::{
    KnnQuery, KnnSubSpec, MovingObject, MovingObjectIndex, PartitionSpec, QueryRegion, RangeQuery,
    RangeSubSpec, SubEventKind, VelocityAnalyzer, VpConfig, VpIndex,
};
use vp_geom::{Circle, Point, Rect};
use vp_server::protocol::ErrorCode;
use vp_server::{spawn, ClientError, EventBatch, ServerConfig, VpClient};
use vp_storage::{
    BufferPool, DiskManager, FaultHandle, FaultInjector, FaultKind, FaultOp, FaultPoint,
    RetryPolicy,
};
use vp_wal::SyncPolicy;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vp-server-{}-{name}", std::process::id()));
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

/// Deterministic xorshift emitting *integers* (as f64) so that every
/// position, velocity, and timestamp in these tests is exactly
/// representable and closed under `pos + vel * t`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Integer in `[lo, hi]`, returned as f64.
    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + (self.next() % (hi - lo + 1) as u64) as i64) as f64
    }
}

/// Road-network velocities with integer components: two orthogonal
/// roads plus diagonal outliers (the shape the velocity analyzer
/// expects from the paper's workloads).
fn integer_fleet(n: usize, rng: &mut Rng) -> Vec<MovingObject> {
    (0..n as u64)
        .map(|id| {
            let speed = rng.int(10, 80);
            let sign = if rng.next().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let jitter = rng.int(-1, 1);
            let vel = match id % 10 {
                0..=3 => Point::new(speed * sign, jitter),
                4..=7 => Point::new(jitter, speed * sign),
                _ => Point::new(speed * sign, speed * sign),
            };
            // Keep a wide margin so 60 ticks at |v| <= 80 never leave
            // the 100k x 100k domain.
            let pos = Point::new(rng.int(20_000, 80_000), rng.int(20_000, 80_000));
            MovingObject::new(id, pos, vel, 0.0)
        })
        .collect()
}

fn bx_factory(dir: Option<&Path>) -> impl FnMut(&PartitionSpec) -> BxTree + '_ {
    move |spec| {
        let disk = match dir {
            Some(d) => {
                DiskManager::create_file(d.join(format!("part-{}.pages", spec.id)), 1024).unwrap()
            }
            None => DiskManager::with_page_size(1024),
        };
        let pool = Arc::new(BufferPool::with_capacity(disk, 256));
        let config = BxConfig {
            domain: spec.domain,
            update_interval: 120.0,
            ..BxConfig::default()
        };
        BxTree::new(pool, config).unwrap()
    }
}

fn build_bx_index(objs: &[MovingObject], dir: Option<&Path>, cfg: VpConfig) -> VpIndex<BxTree> {
    let velocities: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index = if cfg.wal_dir.is_some() {
        VpIndex::open(cfg, &analysis, bx_factory(dir)).unwrap()
    } else {
        VpIndex::build(cfg, &analysis, bx_factory(dir)).unwrap()
    };
    index.apply_updates(objs).unwrap();
    index
}

fn build_scan_index(objs: &[MovingObject]) -> VpIndex<ScanIndex> {
    let cfg = VpConfig::default();
    let velocities: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index = VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();
    index.apply_updates(objs).unwrap();
    index
}

/// A trajectory-preserving tick: every object re-reports its *exact*
/// extrapolated position at integer time `t` with its velocity
/// unchanged, so all query answers are invariant across ticks.
fn preserve_tick(objs: &mut [MovingObject], t: f64) -> Vec<MovingObject> {
    for o in objs.iter_mut() {
        *o = MovingObject::new(o.id, o.position_at(t), o.vel, t);
    }
    objs.to_vec()
}

// ---------------------------------------------------------------------
// 1. Coalescing correctness under a tick storm
// ---------------------------------------------------------------------

#[test]
fn multi_client_mixed_reads_match_quiesced_snapshot_under_tick_storm() {
    let mut rng = Rng(0xC0A1E5CE);
    let fleet = integer_fleet(600, &mut rng);
    let index = build_bx_index(&fleet, None, VpConfig::default());
    let oracle = Arc::new(index.snapshot().unwrap());
    let domain = index.domain();

    // A 20 ms stall per window makes coalescing deterministic: the
    // clients leave the barrier together, and whatever the first
    // window misses is queued long before the second one opens.
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_batch: 8,
            former_stall_us: 20_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 6;
    const QUERIES: usize = 30;
    const TICKS: usize = 25;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));

    thread::scope(|s| {
        // The tick storm: full-fleet trajectory-preserving re-reports
        // committing concurrently with every read below.
        {
            let barrier = Arc::clone(&barrier);
            let mut fleet = fleet.clone();
            s.spawn(move || {
                let mut c = VpClient::connect(addr).unwrap();
                barrier.wait();
                for i in 1..=TICKS {
                    let updates = preserve_tick(&mut fleet, i as f64);
                    c.tick(&updates).unwrap();
                }
            });
        }
        for client_id in 0..CLIENTS {
            let barrier = Arc::clone(&barrier);
            let oracle = Arc::clone(&oracle);
            s.spawn(move || {
                let mut c = VpClient::connect(addr).unwrap();
                let mut rng = Rng(0xBEEF + client_id as u64);
                barrier.wait();
                for qi in 0..QUERIES {
                    let center = Point::new(rng.int(20_000, 80_000), rng.int(20_000, 80_000));
                    let t = rng.int(0, TICKS as i64);
                    match qi % 3 {
                        0 => {
                            let q = RangeQuery::time_slice(
                                QueryRegion::Circle(Circle::new(center, rng.int(3_000, 9_000))),
                                t,
                            );
                            let mut got = c.range(&q).unwrap();
                            let mut want = oracle.range_query(&q).unwrap();
                            got.sort_unstable();
                            want.sort_unstable();
                            assert_eq!(got, want, "client {client_id} range {qi}");
                        }
                        1 => {
                            let hw = rng.int(2_000, 8_000);
                            let q = RangeQuery::time_slice(
                                QueryRegion::Rect(Rect::centered(center, hw, hw)),
                                t,
                            );
                            let mut got = c.range(&q).unwrap();
                            let mut want = oracle.range_query(&q).unwrap();
                            got.sort_unstable();
                            want.sort_unstable();
                            assert_eq!(got, want, "client {client_id} rect range {qi}");
                        }
                        _ => {
                            let q = KnnQuery {
                                center,
                                k: 5 + (qi % 4),
                                t,
                            };
                            let got = c.knn(&q).unwrap();
                            let want = oracle.knn_batch(&[q], &domain).unwrap().remove(0);
                            // Bit-identical: same ids AND same f64
                            // distance bits, in the same order.
                            assert_eq!(got, want, "client {client_id} knn {qi}");
                        }
                    }
                }
            });
        }
    });

    // The server really did coalesce: fewer windows than requests.
    let mut c = VpClient::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.batched_requests, (CLIENTS * QUERIES) as u64);
    assert!(
        stats.batches < stats.batched_requests,
        "some window held >1 request ({} batches / {} requests)",
        stats.batches,
        stats.batched_requests
    );
    assert_eq!(stats.writes, TICKS as u64);
    assert_eq!(stats.objects, 600);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 2. Backpressure: Overloaded, never a hang
// ---------------------------------------------------------------------

#[test]
fn queue_overflow_yields_overloaded_not_hangs_or_drops() {
    let mut rng = Rng(0x0B5E55);
    let fleet = integer_fleet(120, &mut rng);
    let index = build_scan_index(&fleet);

    // One-request windows, a 2-deep admission queue, and a 20 ms
    // artificial stall per window: a burst of 12 concurrent requests
    // must overflow the queue deterministically.
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_batch: 1,
            queue_depth: 2,
            former_stall_us: 20_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const BURST: usize = 12;
    let barrier = Arc::new(Barrier::new(BURST));
    let served = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let q = RangeQuery::time_slice(
        QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0)),
        0.0,
    );

    thread::scope(|s| {
        for _ in 0..BURST {
            let barrier = Arc::clone(&barrier);
            let served = Arc::clone(&served);
            let shed = Arc::clone(&shed);
            s.spawn(move || {
                let mut c = VpClient::connect(addr).unwrap();
                barrier.wait();
                match c.range(&q) {
                    Ok(ids) => {
                        assert_eq!(ids.len(), 120, "admitted requests answer fully");
                        served.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::Server { code, .. }) => {
                        assert_eq!(code, ErrorCode::Overloaded, "only structured shedding");
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("neither served nor shed: {other}"),
                }
                // The connection survived the rejection: the same
                // client can retry on the same socket.
                let _ = c.stats().unwrap();
            });
        }
    });

    let served = served.load(Ordering::SeqCst);
    let shed = shed.load(Ordering::SeqCst);
    assert_eq!(served + shed, BURST, "every request got an answer");
    assert!(served >= 1, "the combiner kept serving under overload");
    assert!(shed >= 1, "the bounded queue actually shed load");

    // After the burst drains the server serves normally again.
    let mut c = VpClient::connect(addr).unwrap();
    assert_eq!(c.range(&q).unwrap().len(), 120);
    let stats = c.stats().unwrap();
    assert_eq!(stats.overloaded, shed as u64, "rejections are counted");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 3. Chunked streaming of large range results
// ---------------------------------------------------------------------

#[test]
fn huge_range_result_streams_in_frames_byte_identical_to_materialized() {
    // 50k objects, all hit by a whole-domain query.
    let mut rng = Rng(0x57EA4);
    let fleet = integer_fleet(50_000, &mut rng);
    let index = build_scan_index(&fleet);
    let oracle = index.snapshot().unwrap();

    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_frame: 1000,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let q = RangeQuery::time_slice(
        QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0)),
        0.0,
    );
    let want = oracle.range_query(&q).unwrap();
    assert_eq!(want.len(), 50_000, "whole domain hits everything");

    let mut c = VpClient::connect(handle.addr()).unwrap();
    let frames = c.range_frames(&q).unwrap();
    assert_eq!(frames.len(), 50, "50k ids / 1000 per frame");
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.len(), 1000, "frame {i} is full");
    }

    // The streamed answer is *byte*-identical to the materialized one:
    // same ids, same order, same little-endian encoding.
    let streamed: Vec<u64> = frames.into_iter().flatten().collect();
    assert_eq!(streamed, want);
    let streamed_bytes: Vec<u8> = streamed.iter().flat_map(|id| id.to_le_bytes()).collect();
    let want_bytes: Vec<u8> = want.iter().flat_map(|id| id.to_le_bytes()).collect();
    assert_eq!(streamed_bytes, want_bytes);

    // A small result still arrives as exactly one final frame.
    let small = RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 2_000.0)),
        0.0,
    );
    let small_frames = c.range_frames(&small).unwrap();
    assert_eq!(small_frames.len(), 1);
    let mut got: Vec<u64> = small_frames.into_iter().flatten().collect();
    let mut want_small = oracle.range_query(&small).unwrap();
    got.sort_unstable();
    want_small.sort_unstable();
    assert_eq!(got, want_small);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 4. Fault injection: typed WalPoisoned / ReadOnly, reads survive
// ---------------------------------------------------------------------

#[test]
fn poisoned_wal_rejects_writes_with_typed_codes_while_reads_keep_answering() {
    let t = TempDir::new("poison");
    let inj = FaultInjector::new();
    let cfg = VpConfig::default()
        .with_wal_dir(&t.0)
        .with_sync_policy(SyncPolicy::Always)
        .with_fault_injector(FaultHandle::new(Arc::clone(&inj)))
        .with_wal_retry(RetryPolicy::none());

    let mut rng = Rng(0xFA11);
    let mut fleet = integer_fleet(200, &mut rng);
    let index = build_bx_index(&fleet, Some(&t.0), cfg);
    let oracle = index.snapshot().unwrap();

    // Poison the *next* meta-stream fsync — i.e. the commit of the
    // first tick the server's writer thread attempts.
    inj.inject(FaultPoint {
        site: "wal:meta".into(),
        op: FaultOp::Sync,
        at: inj.op_count("wal:meta", FaultOp::Sync),
        kind: FaultKind::SyncFail,
    });

    let handle = spawn(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = VpClient::connect(handle.addr()).unwrap();

    // The tick hits the failed fsync: a typed WalPoisoned error.
    let updates = preserve_tick(&mut fleet, 1.0);
    let err = c.tick(&updates).unwrap_err();
    assert_eq!(
        err.code(),
        Some(ErrorCode::WalPoisoned),
        "failed fsync surfaces as its own code: {err}"
    );
    assert_eq!(inj.fired_count(), 1, "the scripted fault fired");

    // Every subsequent write sees the demotion as ReadOnly.
    let insert_err = c
        .insert(MovingObject::new(
            999_999,
            Point::new(50_000.0, 50_000.0),
            Point::new(30.0, 0.0),
            1.0,
        ))
        .unwrap_err();
    assert_eq!(insert_err.code(), Some(ErrorCode::ReadOnly));
    let delete_err = c.delete(0).unwrap_err();
    assert_eq!(delete_err.code(), Some(ErrorCode::ReadOnly));
    let tick_err = c.tick(&updates).unwrap_err();
    assert_eq!(tick_err.code(), Some(ErrorCode::ReadOnly));

    // Reads keep answering — and answer the *pre-fault* state (the
    // poisoned tick never became snapshot-visible).
    let stats = c.stats().unwrap();
    assert!(stats.read_only, "demotion is visible in stats");
    assert_eq!(stats.objects, 200);
    assert_eq!(stats.writes, 0, "no write ever committed");
    let q = RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 20_000.0)),
        0.0,
    );
    let mut got = c.range(&q).unwrap();
    let mut want = oracle.range_query(&q).unwrap();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "reads answer the pre-fault state");
    assert_eq!(
        c.get_object(0).unwrap(),
        oracle.get_object(0).unwrap(),
        "point lookups too"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 5. Standing queries: registration, pushed events, unsubscribe
// ---------------------------------------------------------------------

/// Waits until `client` has accumulated `n` event batches (or panics
/// after ~2s). Event frames ride the same connection as replies, so
/// some may already be stashed and some still in flight.
fn collect_batches(client: &mut VpClient, n: usize) -> Vec<EventBatch> {
    let mut got = Vec::new();
    for _ in 0..40 {
        got.extend(client.wait_events(Duration::from_millis(50)).unwrap());
        if got.len() >= n {
            return got;
        }
    }
    panic!("only {} of {n} event batches arrived", got.len());
}

#[test]
fn subscriptions_receive_backfill_and_pushed_events_end_to_end() {
    // Three stationary objects around the query center; every move
    // below is an explicit re-report, so expected events are exact.
    let fleet = vec![
        MovingObject::new(1, Point::new(50_000.0, 50_000.0), Point::new(0.0, 0.0), 0.0),
        MovingObject::new(2, Point::new(70_000.0, 50_000.0), Point::new(0.0, 0.0), 0.0),
        MovingObject::new(3, Point::new(54_000.0, 50_000.0), Point::new(0.0, 0.0), 0.0),
    ];
    let index = build_scan_index(&fleet);
    let handle = spawn(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let mut sub_client = VpClient::connect(addr).unwrap();
    let region = QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 5_000.0));
    let range_sub = sub_client
        .subscribe_range(RangeSubSpec {
            region,
            predictive_dt: 0.0,
        })
        .unwrap();
    let knn_sub = sub_client
        .subscribe_knn(KnnSubSpec {
            center: Point::new(50_000.0, 50_000.0),
            k: 2,
            predictive_dt: 0.0,
        })
        .unwrap();
    assert_ne!(range_sub, knn_sub);

    // Backfill: ids 1 and 3 are inside the circle and are the 2
    // nearest neighbors, so both subscriptions announce them.
    let backfill = collect_batches(&mut sub_client, 2);
    for b in &backfill {
        assert_eq!(b.time, 0.0, "backfill carries registration time");
        assert_eq!(
            b.events,
            vec![(SubEventKind::Enter, 1), (SubEventKind::Enter, 3)],
            "sub {} backfill",
            b.sub
        );
    }
    assert_eq!(backfill[0].sub, range_sub);
    assert_eq!(backfill[1].sub, knn_sub);

    // A tick from a *different* connection: 1 jumps out, 2 jumps in,
    // 3 moves but stays inside (and stays a nearest neighbor).
    let mut tick_client = VpClient::connect(addr).unwrap();
    tick_client
        .tick(&[
            MovingObject::new(1, Point::new(70_000.0, 50_000.0), Point::new(0.0, 0.0), 1.0),
            MovingObject::new(2, Point::new(52_000.0, 50_000.0), Point::new(0.0, 0.0), 1.0),
            MovingObject::new(3, Point::new(53_000.0, 50_000.0), Point::new(0.0, 0.0), 1.0),
        ])
        .unwrap();

    let pushed = collect_batches(&mut sub_client, 2);
    assert_eq!(pushed.len(), 2, "one frame per subscription");
    for b in &pushed {
        assert_eq!(b.time, 1.0, "events carry the commit time");
        assert_eq!(
            b.events,
            vec![
                (SubEventKind::Enter, 2),
                (SubEventKind::Leave, 1),
                (SubEventKind::Moved, 3),
            ],
            "sub {} tick events",
            b.sub
        );
    }
    assert_eq!(pushed[0].sub, range_sub, "frames arrive in sub-id order");
    assert_eq!(pushed[1].sub, knn_sub);

    // Request/reply still works on the subscriber's connection, and
    // event frames interleaved with replies are stashed, not lost.
    assert_eq!(sub_client.stats().unwrap().objects, 3);

    // After unsubscribing the range sub, only the kNN sub reports.
    sub_client.unsubscribe(range_sub).unwrap();
    sub_client.unsubscribe(range_sub).unwrap(); // idempotent
    tick_client
        .tick(&[MovingObject::new(
            2,
            Point::new(51_000.0, 50_000.0),
            Point::new(0.0, 0.0),
            2.0,
        )])
        .unwrap();
    let after = collect_batches(&mut sub_client, 1);
    assert_eq!(after.len(), 1, "range sub is gone");
    assert_eq!(after[0].sub, knn_sub);
    assert_eq!(after[0].events, vec![(SubEventKind::Moved, 2)]);
    assert!(
        sub_client
            .wait_events(Duration::from_millis(60))
            .unwrap()
            .is_empty(),
        "no further frames in flight"
    );

    // A subscriber disconnecting does not wedge the writer: later
    // ticks still commit.
    drop(sub_client);
    tick_client
        .tick(&[MovingObject::new(
            2,
            Point::new(51_500.0, 50_000.0),
            Point::new(0.0, 0.0),
            3.0,
        )])
        .unwrap();
    assert_eq!(tick_client.stats().unwrap().writes, 3);
    handle.shutdown();
}

#[test]
fn subscription_survives_interleaved_queries_and_range_chunking() {
    // A subscription on a connection that also streams a chunked range
    // result: chunks must not be torn by event pushes.
    let mut rng = Rng(0x5B5C81);
    let fleet = integer_fleet(5_000, &mut rng);
    let index = build_scan_index(&fleet);
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_frame: 512,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut c = VpClient::connect(addr).unwrap();
    let sub = c
        .subscribe_range(RangeSubSpec {
            region: QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0)),
            predictive_dt: 0.0,
        })
        .unwrap();
    // Whole-domain sub: backfill announces the entire fleet.
    let backfill = collect_batches(&mut c, 1);
    assert_eq!(backfill[0].sub, sub);
    assert_eq!(backfill[0].events.len(), 5_000);

    // Fire a tick from another connection while this one streams a
    // large chunked range result; the reassembled result must be
    // complete and every tick's event batch must still arrive.
    let mut ticker = VpClient::connect(addr).unwrap();
    let mut fleet2 = fleet.clone();
    let updates = preserve_tick(&mut fleet2, 1.0);
    let q = RangeQuery::time_slice(
        QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0)),
        1.0,
    );
    thread::scope(|s| {
        s.spawn(move || {
            ticker.tick(&updates).unwrap();
        });
        let ids = c.range(&q).unwrap();
        assert_eq!(ids.len(), 5_000, "chunked result is complete");
    });
    // Trajectory-preserving tick: every object re-reported but none
    // entered or left, so the frame carries only Moved events.
    let batches = collect_batches(&mut c, 1);
    assert_eq!(batches[0].sub, sub);
    assert_eq!(batches[0].events.len(), 5_000);
    assert!(batches[0]
        .events
        .iter()
        .all(|(k, _)| *k == SubEventKind::Moved));
    handle.shutdown();
}

#[test]
fn tick_that_fires_many_subscriptions_is_one_fast_round_trip() {
    // A ticker that owns 16 standing queries, all of which fire on
    // every tick: the pushes and the ack must cost one round trip, not
    // one delayed-ACK stall per small frame.
    const SUBS: usize = 16;
    const TICKS: usize = 20;
    let mut rng = Rng(0x7E11);
    let mut fleet = integer_fleet(500, &mut rng);
    // Object 0 sits still at the centre of every subscription.
    let centre = Point::new(50_000.0, 50_000.0);
    fleet[0] = MovingObject::new(0, centre, Point::new(0.0, 0.0), 0.0);
    let index = build_bx_index(&fleet, None, VpConfig::default());
    let handle = spawn(index, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut c = VpClient::connect(handle.addr()).unwrap();
    let subs: Vec<u64> = (0..SUBS)
        .map(|i| {
            c.subscribe_range(RangeSubSpec {
                region: QueryRegion::Circle(Circle::new(centre, 100.0 + i as f64)),
                predictive_dt: 0.0,
            })
            .unwrap()
        })
        .collect();
    let mut last_seq = std::collections::HashMap::new();
    for b in collect_batches(&mut c, SUBS) {
        assert!(b.events.contains(&(SubEventKind::Enter, 0)));
        last_seq.insert(b.sub, b.seq);
    }

    let mut rtts = Vec::with_capacity(TICKS);
    for tick in 1..=TICKS {
        let t = tick as f64;
        let report = MovingObject::new(0, centre, Point::new(0.0, 0.0), t);
        let sent = std::time::Instant::now();
        c.tick(&[report]).unwrap();
        rtts.push(sent.elapsed());
        // Pushes precede the ack on the stream, so all of them were
        // read (and stashed) on the way to it.
        let pushed = c.take_events();
        assert_eq!(
            pushed.iter().map(|b| b.sub).collect::<Vec<_>>(),
            subs,
            "tick {tick}: one batch per subscription, ascending, before the ack"
        );
        for b in pushed {
            assert_eq!(b.time, t);
            assert_eq!(b.events, vec![(SubEventKind::Moved, 0)]);
            let prev = last_seq.insert(b.sub, b.seq).unwrap();
            assert_eq!(
                b.seq,
                prev + 1,
                "sub {} skipped a seq at tick {tick}",
                b.sub
            );
        }
    }
    rtts.sort_unstable();
    let median = rtts[TICKS / 2];
    assert!(
        median < Duration::from_millis(20),
        "median tick round trip {median:?} over loopback (all: {rtts:?})"
    );
    handle.shutdown();
}
