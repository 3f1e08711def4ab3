//! The network chaos matrix: every client observation under a faulty
//! wire is **correct-and-complete or a typed error** — never a hang,
//! never an accepted torn frame, never a duplicated or skipped
//! subscription event.
//!
//! A [`vp_server::ChaosProxy`] sits between the clients and the
//! server, mangling traffic per a seeded, deterministic plan (delays,
//! byte-by-byte splits, mid-frame truncation, connection kills). The
//! properties:
//!
//! 1. **Reads**: a range query through the proxy either returns the
//!    exact oracle id set or fails with a transport/typed error. The
//!    auto-reconnecting client retries through fresh connections;
//!    whatever happens, each case finishes within a wall-clock bound.
//! 2. **Subscriptions**: a subscriber whose connections keep dying
//!    reconnects with resume tokens. Sequence numbers prove the event
//!    stream is gap-free within each reset epoch, and the folded
//!    result set ends exactly equal to the server's live answer —
//!    kills may delay events, never lose or double-apply them.
//!
//! Everything is deterministic per proptest case: the workload RNG,
//! the chaos plan, and the tick stream all derive from the case seed.

use std::collections::HashSet;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use vp_core::traits::reference::ScanIndex;
use vp_core::{
    MovingObject, QueryRegion, RangeQuery, RangeSubSpec, SubEventKind, VelocityAnalyzer, VpConfig,
    VpIndex,
};
use vp_geom::{Point, Rect};
use vp_server::{spawn, ChaosPlan, ChaosProxy, ClientError, EventBatch, ServerConfig, VpClient};
use vp_storage::RetryPolicy;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

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
            let vel = if id % 2 == 0 {
                Point::new(speed * sign, rng.int(-1, 1))
            } else {
                Point::new(rng.int(-1, 1), speed * sign)
            };
            let pos = Point::new(rng.int(20_000, 80_000), rng.int(20_000, 80_000));
            MovingObject::new(id, pos, vel, 0.0)
        })
        .collect()
}

fn build_scan_index(objs: &[MovingObject]) -> VpIndex<ScanIndex> {
    let cfg = VpConfig::default();
    let velocities: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index = VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap();
    index.apply_updates(objs).unwrap();
    index
}

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
// 1. Reads through the mangler: exact or typed, never hung
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn range_reads_under_chaos_are_exact_or_typed_errors(
        seed in 1u64..1_000_000,
        kill_ppk in 0u32..80,
        truncate_ppk in 0u32..80,
        split_ppk in 0u32..300,
        delay_ppk in 0u32..200,
    ) {
        let mut rng = Rng(seed | 1);
        let fleet = integer_fleet(400, &mut rng);
        let oracle: HashSet<u64> = fleet.iter().map(|o| o.id).collect();
        let index = build_scan_index(&fleet);
        let handle = spawn(
            index,
            "127.0.0.1:0",
            ServerConfig {
                // ~8 chunks per full answer: kills regularly land
                // mid-chunk-stream, not just between requests.
                max_frame: 50,
                write_timeout_ms: 1_000,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let proxy = ChaosProxy::spawn(
            handle.addr(),
            ChaosPlan {
                seed,
                kill_ppk,
                truncate_ppk,
                split_ppk,
                delay_ppk,
                delay_ms: 20,
                ..ChaosPlan::default()
            },
        )
        .unwrap();

        let started = Instant::now();
        let mut c = VpClient::connect(proxy.addr())
            .unwrap()
            .with_reconnect(RetryPolicy::standard())
            ;
        let q = RangeQuery::time_slice(whole_domain(), 0.0);
        let mut ok = 0usize;
        let mut failed = 0usize;
        for _ in 0..12 {
            match c.range(&q) {
                // The answer is all-or-nothing: a torn chunk stream
                // must never surface as a short id list.
                Ok(ids) => {
                    prop_assert_eq!(
                        ids.iter().copied().collect::<HashSet<_>>(),
                        oracle.clone(),
                        "chaos produced a wrong/short answer"
                    );
                    ok += 1;
                }
                // Transport or typed failure is legal; a wrong answer
                // is not. Reconnect for the next attempt.
                Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                    failed += 1;
                    let _ = c.reconnect();
                }
                Err(e @ ClientError::Server { .. }) => {
                    prop_assert!(e.code().is_some(), "untyped server error {e}");
                    failed += 1;
                }
            }
        }
        // Liveness: the whole case is bounded (nothing hung on a dead
        // or mangled socket).
        prop_assert!(
            started.elapsed() < Duration::from_secs(30),
            "chaos case exceeded its wall-clock bound (ok={ok} failed={failed})"
        );
        proxy.stop();
        handle.kill();
    }
}

// ---------------------------------------------------------------------
// 2. Subscriptions through the mangler: gap-free, exactly-once
// ---------------------------------------------------------------------

/// Folds batches into the mirrored result set, proving seq contiguity
/// within each reset epoch. Returns the new last_seq.
fn fold(mirror: &mut HashSet<u64>, batches: &[EventBatch], mut last_seq: u64) -> u64 {
    for b in batches {
        if b.fin {
            continue;
        }
        if b.reset {
            mirror.clear();
        } else {
            // The client deduplicates; what surfaces must be the very
            // next batch of the epoch — a skip here means events were
            // lost, a repeat means they were double-applied.
            assert_eq!(b.seq, last_seq + 1, "seq gap/dup under chaos");
        }
        last_seq = b.seq;
        for &(kind, id) in &b.events {
            match kind {
                SubEventKind::Enter => {
                    mirror.insert(id);
                }
                SubEventKind::Leave => {
                    mirror.remove(&id);
                }
                SubEventKind::Moved => {}
            }
        }
    }
    last_seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn subscription_stream_under_chaos_is_gap_free_and_exactly_once(
        seed in 1u64..1_000_000,
        kill_ppk in 10u32..120,
        split_ppk in 0u32..300,
        n_ticks in 5usize..10,
        // Scripted prefix: guarantee at least one early kill so every
        // case actually exercises a resume, whatever the seed rolls.
        kill_at in 2usize..6,
    ) {
        let mut rng = Rng(seed.wrapping_mul(3) | 1);
        let fleet = integer_fleet(120, &mut rng);
        let index = build_scan_index(&fleet);
        let handle = spawn(
            index,
            "127.0.0.1:0",
            ServerConfig {
                sub_retain: 64,
                sub_linger_ms: 60_000,
                write_timeout_ms: 1_000,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let direct = handle.addr();
        let mut script = vec![vp_server::ChaosAction::Forward; kill_at];
        script.push(vp_server::ChaosAction::Kill);
        let proxy = ChaosProxy::spawn(
            direct,
            ChaosPlan {
                seed,
                script,
                kill_ppk,
                split_ppk,
                delay_ppk: 100,
                delay_ms: 5,
                ..ChaosPlan::default()
            },
        )
        .unwrap();
        let chaos_addr = proxy.addr();

        let started = Instant::now();

        // Subscribe through the mangler, with resume-on-reconnect.
        let mut sub_client = VpClient::connect(chaos_addr)
            .unwrap()
            .with_reconnect(RetryPolicy::standard().with_max_backoff(Duration::from_millis(50)));
        let spec = RangeSubSpec { region: whole_domain(), predictive_dt: 0.0 };
        loop {
            match sub_client.subscribe_range(spec) {
                Ok(_id) => break,
                Err(_) => {
                    prop_assert!(
                        started.elapsed() < Duration::from_secs(20),
                        "could not subscribe through chaos in time"
                    );
                    let _ = sub_client.reconnect();
                }
            }
        }

        // Drive the ticks over a *clean* connection: the chaos under
        // test is between subscriber and server only.
        let mutator = thread::spawn(move || {
            let mut c = VpClient::connect(direct).unwrap();
            let mut moving = fleet;
            for i in 1..=n_ticks {
                let updates = preserve_tick(&mut moving, i as f64);
                c.tick(&updates).unwrap();
                thread::sleep(Duration::from_millis(30));
            }
        });

        // Collect until every tick's batch surfaced (backfill seq 1 +
        // one batch per tick, minus whatever a reset collapsed), the
        // stream is quiet, and the mirror matches the live answer.
        let mut mirror: HashSet<u64> = HashSet::new();
        let mut last_seq = 0u64;
        let target_seq = 1 + n_ticks as u64;
        let deadline = Instant::now() + Duration::from_secs(40);
        let mut quiet_rounds = 0u32;
        while Instant::now() < deadline {
            match sub_client.wait_events(Duration::from_millis(200)) {
                Ok(batches) if !batches.is_empty() => {
                    quiet_rounds = 0;
                    last_seq = fold(&mut mirror, &batches, last_seq);
                    if last_seq >= target_seq {
                        break;
                    }
                }
                Ok(_) => {
                    // Nothing surfaced. The resume itself may have
                    // been eaten by the proxy; after a few quiet
                    // rounds force a fresh reconnect — resuming is
                    // idempotent (seq dedupe), so this is always safe.
                    quiet_rounds += 1;
                    if quiet_rounds >= 3 {
                        quiet_rounds = 0;
                        let _ = sub_client.reconnect();
                    }
                }
                Err(_) => {
                    // Connection mangled: resume from the last seq we
                    // actually surfaced.
                    let _ = sub_client.reconnect();
                }
            }
        }
        mutator.join().unwrap();
        // Drain any final replay then assert the end state.
        if let Ok(batches) = sub_client.wait_events(Duration::from_millis(300)) {
            last_seq = fold(&mut mirror, &batches, last_seq);
        }
        prop_assert!(
            last_seq >= target_seq,
            "stream never caught up: reached seq {last_seq} of {target_seq}"
        );

        // Oracle: a fresh, clean client's range answer at the final
        // committed state.
        let mut oracle_client = VpClient::connect(direct).unwrap();
        let q = RangeQuery::time_slice(whole_domain(), n_ticks as f64);
        let expect: HashSet<u64> = oracle_client.range(&q).unwrap().into_iter().collect();
        prop_assert_eq!(mirror, expect, "folded event stream diverged from the live answer");
        prop_assert!(
            started.elapsed() < Duration::from_secs(60),
            "subscription chaos case exceeded its wall-clock bound"
        );

        proxy.stop();
        handle.kill();
    }
}
