//! Serving-edge robustness: deadlines, dead peers, graceful drain,
//! and resumable subscriptions.
//!
//! The contracts under test:
//!
//! 1. **Deadlines** — a request whose deadline budget expires is
//!    answered with the typed `DeadlineExceeded` code (never executed
//!    to completion, never hung), and the connection keeps working.
//! 2. **Idle eviction** — a peer that completes no frame within the
//!    idle window is evicted; a peer that heartbeats with `Ping`
//!    stays.
//! 3. **Disconnect mid-chunk-stream** — a client that walks away in
//!    the middle of a ~50k-hit chunked range response costs the server
//!    nothing: the next client gets complete, correct answers.
//! 4. **Graceful drain** — shutdown under a tick storm answers
//!    in-flight work, pushes terminal `fin` event frames, checkpoints
//!    the durable index (the following `recover` replays zero events),
//!    and completes within the drain budget.
//! 5. **Resume** — a subscriber that reconnects inside the retention
//!    window replays missed event batches gap-free under their
//!    original sequence numbers; past the window it gets a `reset`
//!    backfill equivalent to a fresh registration.
//! 6. **Back-off hints** — `Overloaded` carries a non-zero
//!    `retry_after_us`.
//! 7. **Client read timeouts** — a `wait_events` timeout that fires
//!    mid-frame loses no bytes: the frame completes on the next wait
//!    and the stream stays in sync.

use std::collections::HashSet;
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vp_bx::{BxConfig, BxTree};
use vp_core::traits::reference::ScanIndex;
use vp_core::{
    MovingObject, MovingObjectIndex, PartitionSpec, QueryRegion, RangeQuery, RangeSubSpec,
    SubEventKind, VelocityAnalyzer, VpConfig, VpIndex,
};
use vp_geom::{Point, Rect};
use vp_server::protocol::{write_frame, ErrorCode, FrameReader, Request, Response};
use vp_server::{spawn, ClientError, EventBatch, ServerConfig, SubscribeSpec, VpClient};
use vp_storage::{BufferPool, DiskManager};

// ---------------------------------------------------------------------
// Harness (same integer-workload idiom as server_integration.rs)
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vp-robust-{}-{name}", std::process::id()));
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

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + (self.next() % (hi - lo + 1) as u64) as i64) as f64
    }
}

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

fn build_scan_index(objs: &[MovingObject]) -> VpIndex<ScanIndex> {
    let cfg = VpConfig::default();
    let velocities: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index = VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();
    index.apply_updates(objs).unwrap();
    index
}

/// Trajectory-preserving tick: exact re-reports, so range answers are
/// invariant while every in-result object emits a `Moved` event.
fn preserve_tick(objs: &mut [MovingObject], t: f64) -> Vec<MovingObject> {
    for o in objs.iter_mut() {
        *o = MovingObject::new(o.id, o.position_at(t), o.vel, t);
    }
    objs.to_vec()
}

fn whole_domain() -> QueryRegion {
    QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0))
}

// ---------------------------------------------------------------------
// 1. Deadlines
// ---------------------------------------------------------------------

#[test]
fn expired_deadlines_answer_typed_errors_and_fresh_work_still_runs() {
    let mut rng = Rng(0xDEAD11);
    let fleet = integer_fleet(300, &mut rng);
    let index = build_scan_index(&fleet);
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            // Every window stalls 30ms in the combiner, so a 5ms budget
            // reliably expires *after* admission but *before* (or
            // during) execution.
            former_stall_us: 30_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = VpClient::connect(handle.addr()).unwrap();
    let q = RangeQuery::time_slice(whole_domain(), 0.0);

    // Pre-expired budget: rejected before admission.
    c.set_deadline_budget(Some(Duration::ZERO));
    let err = c.range(&q).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded), "{err}");

    // Budget shorter than the combiner's stall: expires in queue or
    // after execution; either way the typed code comes back.
    c.set_deadline_budget(Some(Duration::from_millis(5)));
    let err = c.range(&q).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded), "{err}");

    // Same connection, generous budget: full answer.
    c.set_deadline_budget(Some(Duration::from_secs(30)));
    let ids = c.range(&q).unwrap();
    assert_eq!(ids.len(), fleet.len());

    // And no budget at all still works.
    c.set_deadline_budget(None);
    assert_eq!(c.range(&q).unwrap().len(), fleet.len());
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 2. Idle eviction vs heartbeats
// ---------------------------------------------------------------------

#[test]
fn idle_peers_are_evicted_while_pinging_peers_survive() {
    let mut rng = Rng(0x1D1E);
    let fleet = integer_fleet(50, &mut rng);
    let index = build_scan_index(&fleet);
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            read_timeout_ms: 20,
            idle_timeout_ms: 250,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut idle = VpClient::connect(addr).unwrap();
    let mut beating = VpClient::connect(addr).unwrap();
    // Prove both start healthy.
    idle.ping().unwrap();
    beating.ping().unwrap();

    // 600ms of silence on `idle`; `beating` pings every 100ms.
    for _ in 0..6 {
        thread::sleep(Duration::from_millis(100));
        beating.ping().unwrap();
    }

    // The silent connection was evicted: its next call fails at the
    // transport/protocol layer (no typed server error — the server is
    // simply gone for this socket).
    let err = idle.stats().unwrap_err();
    assert!(err.code().is_none(), "eviction is not a typed reply: {err}");

    // The heartbeating connection still answers queries.
    let q = RangeQuery::time_slice(whole_domain(), 0.0);
    assert_eq!(beating.range(&q).unwrap().len(), fleet.len());
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 3. Disconnect mid-chunk-stream (~50k hits)
// ---------------------------------------------------------------------

#[test]
fn disconnect_mid_chunk_stream_leaves_server_serving_correct_answers() {
    let mut rng = Rng(0x50C4);
    let fleet = integer_fleet(50_000, &mut rng);
    let index = build_scan_index(&fleet);
    let oracle: HashSet<u64> = fleet.iter().map(|o| o.id).collect();
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            // ~100 chunks for the full-domain scan.
            max_frame: 512,
            // Writes to a vanished peer must fail fast, not tie up the
            // reply path for the default 5s.
            write_timeout_ms: 500,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let q = RangeQuery::time_slice(whole_domain(), 0.0);

    // Three rude clients: send the 50k-hit query, read one frame's
    // worth of bytes, vanish without closing cleanly.
    for _ in 0..3 {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &Request::Range(q).encode()).unwrap();
        s.flush().unwrap();
        let mut first = [0u8; 1024];
        s.read_exact(&mut first).unwrap();
        drop(s);
    }

    // A polite client immediately afterwards gets the complete,
    // correct result.
    let mut c = VpClient::connect(addr).unwrap();
    let ids = c.range(&q).unwrap();
    assert_eq!(ids.len(), oracle.len());
    assert_eq!(ids.iter().copied().collect::<HashSet<_>>(), oracle);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 4. Graceful drain under a tick storm
// ---------------------------------------------------------------------

#[test]
fn graceful_drain_flushes_subscribers_and_checkpoints_so_recover_replays_nothing() {
    let t = TempDir::new("drain");
    let mut rng = Rng(0xD4A1);
    let fleet = integer_fleet(150, &mut rng);
    let cfg = VpConfig::default().with_wal_dir(&t.0);
    let velocities: Vec<Point> = fleet.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index = VpIndex::open(cfg, &analysis, bx_factory(Some(&t.0))).unwrap();
    index.apply_updates(&fleet).unwrap();

    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            drain_budget_ms: 3_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A subscriber that collects everything it is pushed, watching
    // for the terminal `fin` frame.
    let (fin_tx, fin_rx) = mpsc::channel::<bool>();
    let subscriber = thread::spawn(move || {
        let mut c = VpClient::connect(addr).unwrap();
        c.subscribe_range(RangeSubSpec {
            region: whole_domain(),
            predictive_dt: 0.0,
        })
        .unwrap();
        let mut saw_fin = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        'outer: while Instant::now() < deadline {
            match c.wait_events(Duration::from_millis(200)) {
                Ok(batches) => {
                    for b in batches {
                        if b.fin {
                            saw_fin = true;
                            break 'outer;
                        }
                    }
                }
                // Connection closed after drain: stop collecting.
                Err(_) => break,
            }
        }
        let _ = fin_tx.send(saw_fin);
    });

    // The tick storm: full-fleet re-reports until drain cuts it off.
    let storm = thread::spawn(move || {
        let mut c = VpClient::connect(addr).unwrap();
        let mut fleet = fleet.clone();
        let mut ok_ticks = 0usize;
        for i in 1..=10_000 {
            let updates = preserve_tick(&mut fleet, i as f64);
            match c.tick(&updates) {
                Ok(()) => ok_ticks += 1,
                // Draining (typed) or the connection went away —
                // both are clean ends to the storm.
                Err(ClientError::Server { code, .. }) => {
                    assert!(
                        code == ErrorCode::Draining || code == ErrorCode::Internal,
                        "unexpected typed error during drain: {code:?}"
                    );
                    break;
                }
                Err(_) => break,
            }
        }
        ok_ticks
    });

    // Let the storm commit real work, then drain while it rages.
    thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    handle.shutdown();
    let drain_wall = started.elapsed();
    assert!(
        drain_wall < Duration::from_secs(10),
        "drain took {drain_wall:?}, exceeding any reasonable budget"
    );

    let ok_ticks = storm.join().unwrap();
    assert!(ok_ticks > 0, "storm never landed a tick before the drain");
    let saw_fin = fin_rx.recv_timeout(Duration::from_secs(20)).unwrap();
    subscriber.join().unwrap();
    assert!(saw_fin, "subscriber never received the terminal fin frame");

    // The drain checkpointed: recovery replays *zero* events and the
    // index state is complete.
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(
        report.events_replayed, 0,
        "drain checkpoint must leave an empty log tail, got {report:?}"
    );
    assert_eq!(recovered.len(), 150);
}

// ---------------------------------------------------------------------
// 5. Resume: gap-free replay inside the ring, reset beyond it
// ---------------------------------------------------------------------

/// Folds event batches into a result set, asserting seq contiguity.
/// Returns the last applied seq.
fn apply_batches(
    set: &mut HashSet<u64>,
    batches: &[vp_server::EventBatch],
    mut last_seq: u64,
) -> u64 {
    for b in batches {
        if b.fin {
            continue;
        }
        if b.reset {
            set.clear();
        } else {
            assert_eq!(
                b.seq,
                last_seq + 1,
                "non-reset batches must be seq-contiguous (skipped or duplicated events)"
            );
        }
        last_seq = b.seq;
        for &(kind, id) in &b.events {
            match kind {
                SubEventKind::Enter => {
                    set.insert(id);
                }
                SubEventKind::Leave => {
                    set.remove(&id);
                }
                SubEventKind::Moved => {
                    assert!(set.contains(&id), "Moved for an object not in the set");
                }
            }
        }
    }
    last_seq
}

/// Keeps draining pushed batches into the mirror until `target` seq is
/// reached (batches may arrive across several `wait_events` calls).
fn collect_until_seq(
    c: &mut VpClient,
    mirror: &mut HashSet<u64>,
    mut last_seq: u64,
    target: u64,
) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while last_seq < target && Instant::now() < deadline {
        let got = c.wait_events(Duration::from_millis(300)).unwrap();
        last_seq = apply_batches(mirror, &got, last_seq);
    }
    assert_eq!(last_seq, target, "timed out before reaching seq {target}");
    last_seq
}

#[test]
fn resume_replays_gap_free_within_ring_and_resets_beyond_it() {
    let mut rng = Rng(0x4E5);
    let fleet = integer_fleet(80, &mut rng);
    let index = build_scan_index(&fleet);
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            // Tiny ring so the gap case is easy to hit; long linger so
            // the subscription itself survives every reconnect below.
            sub_retain: 4,
            sub_linger_ms: 60_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let spec = RangeSubSpec {
        region: whole_domain(),
        predictive_dt: 0.0,
    };
    let mut mirror: HashSet<u64> = HashSet::new();

    // Subscribe; the backfill (seq 1) enters the whole fleet.
    let mut sub_client = VpClient::connect(addr).unwrap();
    let sub = sub_client.subscribe_range(spec).unwrap();
    let backfill = sub_client.wait_events(Duration::from_secs(5)).unwrap();
    assert!(!backfill.is_empty(), "non-empty backfill expected");
    let mut last_seq = 0;
    // The backfill is seq 1 exactly.
    assert_eq!(backfill[0].seq, 1);
    last_seq = apply_batches(&mut mirror, &backfill, last_seq);
    assert_eq!(mirror.len(), fleet.len());

    // A separate mutator connection drives ticks (every tick moves
    // every object → one event batch per tick).
    let mut mutator = VpClient::connect(addr).unwrap();
    let mut moving = fleet.clone();
    let mut t = 0.0;
    let tick = |mutator: &mut VpClient, moving: &mut Vec<MovingObject>, t: &mut f64| {
        *t += 1.0;
        let updates = preserve_tick(moving, *t);
        mutator.tick(&updates).unwrap();
    };

    // Two live ticks, events observed normally.
    for _ in 0..2 {
        tick(&mut mutator, &mut moving, &mut t);
    }
    last_seq = collect_until_seq(&mut sub_client, &mut mirror, last_seq, 3);

    // Vanish rudely, miss 2 ticks (within the 4-batch ring), resume:
    // the missed batches replay under their original seqs.
    drop(sub_client);
    thread::sleep(Duration::from_millis(100));
    for _ in 0..2 {
        tick(&mut mutator, &mut moving, &mut t);
    }
    let mut resumed = VpClient::connect(addr).unwrap();
    let got_id = resumed
        .subscribe_resume(SubscribeSpec::Range(spec), sub, last_seq)
        .unwrap();
    assert_eq!(got_id, sub);
    // The two missed batches replay incrementally under their
    // original seqs (apply_batches panics on any reset or seq gap).
    last_seq = collect_until_seq(&mut resumed, &mut mirror, last_seq, 5);
    assert_eq!(mirror.len(), fleet.len());

    // Live pushes continue seamlessly after the resume.
    tick(&mut mutator, &mut moving, &mut t);
    last_seq = collect_until_seq(&mut resumed, &mut mirror, last_seq, 6);

    // Vanish again and miss 6 ticks — more than the ring holds. The
    // resume must come back as a reset backfill, not a torn replay.
    drop(resumed);
    thread::sleep(Duration::from_millis(100));
    for _ in 0..6 {
        tick(&mut mutator, &mut moving, &mut t);
    }
    let mut reset_client = VpClient::connect(addr).unwrap();
    reset_client
        .subscribe_resume(SubscribeSpec::Range(spec), sub, last_seq)
        .unwrap();
    let reset = reset_client.wait_events(Duration::from_secs(5)).unwrap();
    assert!(
        reset.first().is_some_and(|b| b.reset),
        "beyond the ring the resume must reset, got {reset:?}"
    );
    last_seq = apply_batches(&mut mirror, &reset, last_seq);
    // Six missed batches (seqs 7–12) plus the resnapshot itself.
    assert_eq!(last_seq, 13, "reset consumed a fresh seq");
    assert_eq!(
        mirror.len(),
        fleet.len(),
        "reset backfill equals the live result set"
    );

    // A resume token for a different spec is rejected with a typed
    // error rather than silently rebinding the id.
    let wrong_spec = RangeSubSpec {
        region: QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 10.0, 10.0)),
        predictive_dt: 0.0,
    };
    let mut probe = VpClient::connect(addr).unwrap();
    let err = probe
        .subscribe_resume(SubscribeSpec::Range(wrong_spec), sub, last_seq)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadRequest), "{err}");

    handle.shutdown();
}

// ---------------------------------------------------------------------
// 6. Overloaded carries a back-off hint
// ---------------------------------------------------------------------

#[test]
fn overloaded_rejections_carry_retry_after_hints() {
    let mut rng = Rng(0x0E1);
    let fleet = integer_fleet(100, &mut rng);
    let index = build_scan_index(&fleet);
    let handle = spawn(
        index,
        "127.0.0.1:0",
        ServerConfig {
            max_batch: 1,
            queue_depth: 1,
            // Each window takes ≥20ms, so a burst reliably overflows
            // the depth-1 queue.
            former_stall_us: 20_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let q = RangeQuery::time_slice(whole_domain(), 0.0);

    // Fire a burst from many threads; at least one must be rejected,
    // and every rejection must carry a hint.
    let hits = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let mut c = VpClient::connect(addr).unwrap();
                    let mut overloaded_hints = 0usize;
                    for _ in 0..4 {
                        match c.range(&q) {
                            Ok(ids) => assert_eq!(ids.len(), fleet.len()),
                            Err(e) => {
                                assert_eq!(e.code(), Some(ErrorCode::Overloaded), "{e}");
                                assert!(
                                    e.retry_after().is_some(),
                                    "Overloaded must carry retry_after_us"
                                );
                                overloaded_hints += 1;
                            }
                        }
                    }
                    overloaded_hints
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<usize>()
    });
    assert!(hits > 0, "burst never tripped the admission queue");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// 7. Client read timeouts
// ---------------------------------------------------------------------

#[test]
fn wait_events_timeout_mid_frame_keeps_the_stream_in_sync() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let batch = EventBatch {
        sub: 7,
        time: 3.0,
        seq: 1,
        reset: false,
        fin: false,
        events: vec![(SubEventKind::Enter, 42), (SubEventKind::Leave, 43)],
    };
    let mut frame = Vec::new();
    let events = Response::Events {
        sub: batch.sub,
        time: batch.time,
        seq: batch.seq,
        reset: batch.reset,
        fin: batch.fin,
        events: batch.events.clone(),
    };
    write_frame(&mut frame, &events.encode()).unwrap();
    let peer = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        s.write_all(head).unwrap();
        thread::sleep(Duration::from_millis(400));
        s.write_all(tail).unwrap();
        // Then answer one ordinary request.
        let req = FrameReader::new().read_frame(&mut s).unwrap().unwrap();
        let Request::Ping(nonce) = Request::decode(&req).unwrap() else {
            panic!("expected a ping");
        };
        write_frame(&mut s, &Response::Pong(nonce).encode()).unwrap();
    });

    let mut c = VpClient::connect(addr).unwrap();
    let timed_out = c.wait_events(Duration::from_millis(100)).unwrap();
    assert!(timed_out.is_empty(), "half a frame is not a batch");
    assert_eq!(c.wait_events(Duration::from_secs(5)).unwrap(), [batch]);
    c.ping().unwrap();
    peer.join().unwrap();
}
