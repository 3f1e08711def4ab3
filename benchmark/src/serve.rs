//! `serve_read` and `serve_mixed` — the TCP server under an open loop.
//!
//! Both spawn `vp_server::spawn` over loopback with the default
//! `ServerConfig`, a Bx(VP) index and a generous memory pool, and
//! drive it from one process with two generator threads, one
//! connection each (the host has two cores; the server's own threads
//! are the system under test). Every request is due on a fixed
//! schedule and its latency runs from the instant it was **due**.
//!
//! `serve_read`: a static fleet and no writes. Connection 1 is the
//! `interactive` class (75 % small ranges, 25 % kNN, 70 % of centres on
//! four hotspots); connection 2 is the `scan` class, a few r = 5 km
//! ranges per second whose replies are thousands of ids, some past
//! `max_frame` and chunk-streamed. Why it exists: wire, codec,
//! admission queue, window wait and chunk streaming dominate and the
//! writer thread is idle, so a write-path change must leave it flat.
//! Its only writes are the fleet's load batches during set-up; they
//! are what `update_us_per_obj` and `tick_p95_ms` mean here.
//!
//! `serve_mixed`: the same server and fleet; connection 1 is
//! `interactive` (query times ahead of the current tick), connection 2
//! is a paced ticker that re-reports a slice of the fleet (10 %
//! turning) many times a second, owns the standing range and kNN
//! subscriptions and drains their pushed events. Why it exists: the
//! writer thread (apply, object-table clone, `on_tick`, snapshot
//! publish, event push — all before the ack) runs beside the read
//! path, so a gain for reads that costs writes, or the reverse, shows.
//! There is no WAL here, so a WAL change must leave it flat.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use vp_bx::BxTree;
use vp_core::{
    KnnQuery, KnnSubSpec, MovingObject, MovingObjectIndex, Neighbor, QueryRegion, RangeQuery,
    RangeSubSpec, SubEventKind, SubscriptionConfig, SubscriptionSet, VpIndex,
};
use vp_geom::{Circle, Point};
use vp_server::{spawn, ClientError, ServerConfig, ServerHandle, StatsReply, VpClient};
use vp_storage::DEFAULT_POOL_SHARDS;

use crate::awake::KeepAwake;
use crate::engine::{self, Oracle, PoolSpec};
use crate::inputs::{self, Interactive, Ticker};
use crate::json::{obj, Json};
use crate::pacer::Pacer;
use crate::probes;
use crate::trace::Tracer;
use crate::util::{median_of, peak_rss_mb, Rng, Samples};
use crate::{Outcome, RunCfg, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Read,
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Read => "serve_read",
            Mix::Mixed => "serve_mixed",
        }
    }
}

/// One interactive request in this many is checked against the
/// reference scan (`serve_read`; `serve_mixed` checks at its end).
const CHECK_EVERY: u64 = 16;
/// One scan in this many is checked.
const SCAN_CHECK_EVERY: u64 = 4;
/// Standing range subscriptions sit this far around a hotspot.
const SUB_RADIUS: f64 = 3_000.0;

#[derive(Clone, Copy)]
struct Sizing {
    objects: usize,
    interactive_rate: f64,
    scan_rate: f64,
    tick_rate: f64,
    per_tick: usize,
    range_subs: usize,
    knn_subs: usize,
    warmup_s: f64,
    pool_pages: usize,
    /// Queries of the quiesced check that ends `serve_mixed`.
    final_checks: usize,
    /// Unloaded round trips per probe in a traced run.
    probe_calls: usize,
    /// In-process ticks on the twin that stand in for `serve_read`'s
    /// write metrics.
    twin_ticks: u64,
}

fn sizing(scale: Scale, mix: Mix) -> Sizing {
    let full = Sizing {
        objects: 40_000,
        interactive_rate: if mix == Mix::Read { 500.0 } else { 300.0 },
        scan_rate: 8.0,
        tick_rate: 12.0,
        per_tick: 250,
        range_subs: 32,
        knn_subs: 8,
        warmup_s: 1.0,
        pool_pages: 16_384,
        final_checks: 2_048,
        probe_calls: 300,
        twin_ticks: 2_000,
    };
    match scale {
        Scale::Full => full,
        Scale::Smoke => Sizing {
            objects: 4_000,
            warmup_s: 0.2,
            pool_pages: 4_096,
            final_checks: 64,
            probe_calls: 60,
            twin_ticks: 60,
            ..full
        },
    }
}

struct Built {
    fleet: Vec<MovingObject>,
    index: VpIndex<BxTree>,
    analyze_ms: f64,
    load_ms: f64,
}

/// A Bx(VP) index over a generous memory pool, loaded with `fleet` in
/// one batch. Returns the index and the analyzer's and the load's ms.
fn build_index(cfg: &RunCfg, sz: &Sizing, fleet: &[MovingObject]) -> (VpIndex<BxTree>, f64, f64) {
    let vp_cfg = engine::vp_config(cfg.seed);
    let sample = engine::velocity_sample(cfg.seed, fleet, vp_cfg.sample_size);
    let t0 = Instant::now();
    let analysis = engine::analyze(&vp_cfg, &sample);
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pool = PoolSpec::memory(sz.pool_pages, DEFAULT_POOL_SHARDS).open();
    let mut index: VpIndex<BxTree> = engine::build_vp(&vp_cfg, &analysis, &pool);
    let t0 = Instant::now();
    index.apply_updates(fleet).expect("initial load");
    (index, analyze_ms, t0.elapsed().as_secs_f64() * 1e3)
}

fn set_up(cfg: &RunCfg, sz: &Sizing) -> Built {
    let fleet = inputs::fleet(cfg.seed, sz.objects);
    let (index, analyze_ms, load_ms) = build_index(cfg, sz, &fleet);
    Built {
        fleet,
        index,
        analyze_ms,
        load_ms,
    }
}

#[derive(Debug)]
enum Answer {
    Ids(Vec<u64>),
    Neighbors(Vec<Neighbor>),
}

/// What one generator thread measured.
struct Generated {
    tracer: Tracer,
    /// Every interactive request in arrival order: due → last reply
    /// byte, and send → last reply byte.
    interactive_us: Samples,
    service_us: Samples,
    range_us: Samples,
    knn_us: Samples,
    scan_ms: Samples,
    chunks: Samples,
    tick_ms: Samples,
    tick_us_per_obj: Samples,
    event_lag_ms: Samples,
    late_us: Samples,
    backlog: u64,
    attempted: u64,
    failed: u64,
    /// Replies in the measured window.
    completed: u64,
    /// Every measured interactive request, for the page-count replay.
    asked: Vec<Interactive>,
    /// The sampled requests and the server's answers.
    checks: Vec<(Interactive, Answer)>,
    scan_checks: Vec<(RangeQuery, Vec<u64>)>,
    stats: Option<(StatsReply, StatsReply)>,
    ticks_sent: u64,
    /// Result set of each range subscription, rebuilt from events.
    sub_sets: BTreeMap<u64, BTreeSet<u64>>,
    range_sub_ids: Vec<u64>,
    events: u64,
}

impl Generated {
    fn new(tracer: Tracer) -> Generated {
        Generated {
            tracer,
            interactive_us: Samples::new(),
            service_us: Samples::new(),
            range_us: Samples::new(),
            knn_us: Samples::new(),
            scan_ms: Samples::new(),
            chunks: Samples::new(),
            tick_ms: Samples::new(),
            tick_us_per_obj: Samples::new(),
            event_lag_ms: Samples::new(),
            late_us: Samples::new(),
            backlog: 0,
            attempted: 0,
            failed: 0,
            completed: 0,
            asked: Vec::new(),
            checks: Vec::new(),
            scan_checks: Vec::new(),
            stats: None,
            ticks_sent: 0,
            sub_sets: BTreeMap::new(),
            range_sub_ids: Vec::new(),
            events: 0,
        }
    }
}

/// The measured window and the warm-up before it, shared by both
/// generator threads.
#[derive(Clone, Copy)]
struct Window {
    begin: Instant,
    start: Instant,
    end: Instant,
}

impl Window {
    fn measured(&self, due: Instant) -> bool {
        due >= self.start
    }
}

fn note_failure(e: &ClientError) {
    // Refusals are counted by the caller; the first few are shown so a
    // failing run says why.
    static SHOWN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    if SHOWN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 5 {
        eprintln!("vpbench: request failed: {e}");
    }
}

/// Simulated time the ticker will have reached one second from now:
/// interactive queries of `serve_mixed` look at or beyond it, so they
/// never ask about a time the index has already moved past.
fn mixed_now(w: &Window, sz: &Sizing) -> f64 {
    let ticks_due = (w.begin.elapsed().as_secs_f64() * sz.tick_rate).floor() as u64 + 1;
    Ticker::time_of(ticks_due + sz.tick_rate.ceil() as u64)
}

fn interactive_thread(
    addr: SocketAddr,
    mix: Mix,
    cfg: &RunCfg,
    sz: &Sizing,
    w: Window,
    tracer: Tracer,
) -> Generated {
    let mut g = Generated::new(tracer);
    let mut client = VpClient::connect(addr).expect("connect interactive");
    let hot = inputs::hotspots(cfg.seed);
    let mut rng = Rng::new(cfg.seed, "interactive");
    let mut pacer = Pacer::new(w.begin, sz.interactive_rate);
    // Server counters are read outside the paced loop; the delta
    // includes the warm-up, which runs the same mix.
    let stats_before = client.stats().ok();
    while let Some(due) = pacer.wait_next(w.end) {
        let measured = w.measured(due);
        let now = match mix {
            Mix::Read => 0.0,
            Mix::Mixed => mixed_now(&w, sz),
        };
        let req = inputs::interactive(&mut rng, &hot, now);
        let n = pacer.next_index();
        let sent = Instant::now();
        let answer = match &req {
            Interactive::Range(q) => client.range(q).map(Answer::Ids),
            Interactive::Knn(q) => client.knn(q).map(Answer::Neighbors),
        };
        let done = Instant::now();
        if !measured {
            continue;
        }
        g.attempted += 1;
        match answer {
            Ok(answer) => {
                g.completed += 1;
                g.service_us.push_dur_us(done - sent);
                let us = (done - due).as_secs_f64() * 1e6;
                g.interactive_us.push(us);
                let span = match req {
                    Interactive::Range(_) => {
                        g.range_us.push(us);
                        "server.rtt.range"
                    }
                    Interactive::Knn(_) => {
                        g.knn_us.push(us);
                        "server.rtt.knn"
                    }
                };
                g.tracer.record(span, None, n, sent, done);
                if mix == Mix::Read {
                    g.asked.push(req);
                    if n.is_multiple_of(CHECK_EVERY) {
                        g.checks.push((req, answer));
                    }
                }
            }
            Err(e) => {
                g.failed += 1;
                note_failure(&e);
            }
        }
    }
    g.backlog = pacer.backlog(w.end);
    g.late_us = pacer.late_us;
    if let (Some(a), Ok(b)) = (stats_before, client.stats()) {
        g.stats = Some((a, b));
    }
    g
}

fn scan_thread(
    addr: SocketAddr,
    cfg: &RunCfg,
    sz: &Sizing,
    w: Window,
    tracer: Tracer,
) -> Generated {
    let mut g = Generated::new(tracer);
    let mut client = VpClient::connect(addr).expect("connect scan");
    let hot = inputs::hotspots(cfg.seed);
    let mut rng = Rng::new(cfg.seed, "scan");
    let mut pacer = Pacer::new(w.begin, sz.scan_rate);
    while let Some(due) = pacer.wait_next(w.end) {
        let q = inputs::scan(&mut rng, &hot, 0.0);
        let n = pacer.next_index();
        let sent = Instant::now();
        let frames = client.range_frames(&q);
        let done = Instant::now();
        if !w.measured(due) {
            continue;
        }
        g.attempted += 1;
        match frames {
            Ok(frames) => {
                g.completed += 1;
                g.scan_ms.push((done - due).as_secs_f64() * 1e3);
                g.chunks.push(frames.len() as f64);
                g.tracer.record("server.rtt.scan", None, n, sent, done);
                if n.is_multiple_of(SCAN_CHECK_EVERY) {
                    g.scan_checks
                        .push((q, frames.into_iter().flatten().collect()));
                }
            }
            Err(e) => {
                g.failed += 1;
                note_failure(&e);
            }
        }
    }
    g.backlog = pacer.backlog(w.end);
    g.late_us = pacer.late_us;
    g
}

/// The standing queries of `serve_mixed`: range subscriptions ringed
/// around the hotspots, kNN subscriptions on them.
fn subscriptions(seed: u64, sz: &Sizing) -> (Vec<RangeSubSpec>, Vec<KnnSubSpec>) {
    let hot = inputs::hotspots(seed);
    let mut rng = Rng::new(seed, "subscriptions");
    let ranges = (0..sz.range_subs)
        .map(|i| {
            let h = hot[i % 4];
            let c = Point::new(
                (h.x + rng.range(-4_000.0, 4_000.0)).clamp(0.0, inputs::DOMAIN),
                (h.y + rng.range(-4_000.0, 4_000.0)).clamp(0.0, inputs::DOMAIN),
            );
            RangeSubSpec {
                region: QueryRegion::Circle(Circle::new(c, SUB_RADIUS)),
                predictive_dt: 0.0,
            }
        })
        .collect();
    let knns = (0..sz.knn_subs)
        .map(|i| KnnSubSpec {
            center: hot[i % 4],
            k: 10,
            predictive_dt: 0.0,
        })
        .collect();
    (ranges, knns)
}

fn ticker_thread(
    addr: SocketAddr,
    cfg: &RunCfg,
    sz: &Sizing,
    w: Window,
    fleet: Vec<MovingObject>,
    tracer: Tracer,
) -> Generated {
    let mut g = Generated::new(tracer);
    let mut client = VpClient::connect(addr).expect("connect ticker");
    let (ranges, knns) = subscriptions(cfg.seed, sz);
    for spec in ranges {
        let id = client.subscribe_range(spec).expect("subscribe range");
        g.range_sub_ids.push(id);
        g.sub_sets.insert(id, BTreeSet::new());
    }
    for spec in knns {
        client.subscribe_knn(spec).expect("subscribe knn");
    }
    let mut ticker = Ticker::new(cfg.seed, fleet, sz.per_tick);
    let mut pacer = Pacer::new(w.begin, sz.tick_rate);
    let absorb = |g: &mut Generated, client: &mut VpClient| -> u64 {
        let mut n = 0;
        for batch in client.take_events() {
            n += batch.events.len() as u64;
            if let Some(set) = g.sub_sets.get_mut(&batch.sub) {
                if batch.reset {
                    set.clear();
                }
                for (kind, id) in batch.events {
                    match kind {
                        SubEventKind::Enter => {
                            set.insert(id);
                        }
                        SubEventKind::Leave => {
                            set.remove(&id);
                        }
                        SubEventKind::Moved => {}
                    }
                }
            }
        }
        n
    };
    absorb(&mut g, &mut client);
    while let Some(due) = pacer.wait_next(w.end) {
        let batch = ticker.next_batch();
        let n = pacer.next_index();
        let sent = Instant::now();
        let res = client.tick(&batch);
        let done = Instant::now();
        g.ticks_sent += 1;
        let events = absorb(&mut g, &mut client);
        if !w.measured(due) {
            if let Err(e) = &res {
                panic!("warm-up tick failed: {e}");
            }
            continue;
        }
        g.attempted += batch.len() as u64;
        match res {
            Ok(()) => {
                g.completed += 1;
                let lat = done - due;
                g.tick_ms.push(lat.as_secs_f64() * 1e3);
                g.tick_us_per_obj
                    .push(lat.as_secs_f64() * 1e6 / batch.len() as f64);
                g.tracer.record("server.rtt.tick", None, n, sent, done);
                g.events += events;
                if events > 0 {
                    // Pushes precede the ack on the same stream, so they
                    // have all been read by the time `tick` returns.
                    g.event_lag_ms.push(lat.as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                g.failed += batch.len() as u64;
                note_failure(&e);
            }
        }
    }
    g.backlog = pacer.backlog(w.end);
    g.late_us = pacer.late_us;
    g
}

/// Unloaded round trips, and the same requests in process on the twin:
/// what is left of a small range's round trip after the wire floor
/// (`ping`) and its execution is queue hops plus window wait.
fn unloaded_probes(
    out: &mut Outcome,
    tracer: &mut Tracer,
    addr: SocketAddr,
    cfg: &RunCfg,
    sz: &Sizing,
    twin: &VpIndex<BxTree>,
) {
    let mut client = VpClient::connect(addr).expect("connect probe");
    let hot = inputs::hotspots(cfg.seed);
    let mut rng = Rng::new(cfg.seed, "probe-serve");
    let n = sz.probe_calls;
    let timed = |name: &'static str, tracer: &mut Tracer, i: usize, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        tracer.record(name, None, i as u64, t0, t1);
        (t1 - t0).as_secs_f64() * 1e6
    };
    let mut ping = Samples::new();
    let mut get = Samples::new();
    for i in 0..n {
        ping.push(timed("server.rtt.ping", tracer, i, &mut || {
            client.ping().expect("ping")
        }));
        let id = rng.below(sz.objects as u64);
        get.push(timed("server.rtt.get", tracer, i, &mut || {
            client.get_object(id).expect("get").expect("object present");
        }));
    }
    let ranges: Vec<RangeQuery> =
        std::iter::repeat_with(|| inputs::interactive(&mut rng, &hot, 0.0))
            .filter_map(|r| match r {
                Interactive::Range(q) => Some(q),
                Interactive::Knn(_) => None,
            })
            .take(n)
            .collect();
    let knns: Vec<KnnQuery> = inputs::knn_batch(&mut rng, &hot, 0.0, 16);
    let mut rtt = Samples::new();
    for (i, q) in ranges.iter().enumerate() {
        rtt.push(timed("server.rtt.range", tracer, i, &mut || {
            std::hint::black_box(client.range(q).expect("probe range"));
        }));
    }
    let snap = twin.snapshot().expect("twin snapshot");
    let mut exec = Samples::new();
    for (i, q) in ranges.iter().enumerate() {
        exec.push(timed("core.range_batch", tracer, i, &mut || {
            std::hint::black_box(
                snap.range_query_batch(std::slice::from_ref(q))
                    .expect("twin range"),
            );
        }));
    }
    let scans: Vec<RangeQuery> = (0..10).map(|_| inputs::scan(&mut rng, &hot, 0.0)).collect();
    let mut scan_rtt = Samples::new();
    let mut scan_exec = Samples::new();
    for (i, q) in scans.iter().enumerate() {
        scan_rtt.push(timed("server.rtt.scan", tracer, i, &mut || {
            std::hint::black_box(client.range(q).expect("probe scan"));
        }));
        scan_exec.push(timed("core.range_batch", tracer, n + i, &mut || {
            std::hint::black_box(
                snap.range_query_batch(std::slice::from_ref(q))
                    .expect("twin scan"),
            );
        }));
    }
    out.layer("server.ping_rtt_us", ping.median());
    out.layer("server.get_rtt_us", get.median());
    out.layer("server.range_rtt_us", rtt.median());
    out.layer("server.range_exec_us", exec.median());
    out.layer(
        "server.window_self_us",
        rtt.median() - ping.median() - exec.median(),
    );
    out.layer("server.scan_rtt_ms", scan_rtt.median() / 1e3);
    out.layer("server.scan_exec_ms", scan_exec.median() / 1e3);
    // One full chunk of ids (the content does not matter to the codec).
    let chunk: Vec<u64> = (0..ServerConfig::default().max_frame as u64).collect();
    probes::codec(out, tracer, &ranges[..ranges.len().min(48)], &knns, &chunk);
}

/// Applies the ticks `serve_mixed` sent to the in-process twin, timed,
/// with a benchmark-owned `SubscriptionSet` fed the same deltas.
struct TwinReplay {
    apply_ms: Samples,
    sub_us: Samples,
    sub_events: Samples,
    sub_pages: Samples,
}

fn replay_ticks_on_twin(
    cfg: &RunCfg,
    sz: &Sizing,
    fleet: &[MovingObject],
    ticks: u64,
    twin: &mut VpIndex<BxTree>,
    oracle: &mut Oracle,
    tracer: &mut Tracer,
) -> TwinReplay {
    let mut r = TwinReplay {
        apply_ms: Samples::new(),
        sub_us: Samples::new(),
        sub_events: Samples::new(),
        sub_pages: Samples::new(),
    };
    let mut subs = SubscriptionSet::new(
        SubscriptionConfig::new(inputs::domain()).with_horizon(ServerConfig::default().sub_horizon),
    );
    if tracer.on() {
        let (ranges, knns) = subscriptions(cfg.seed, sz);
        for spec in ranges {
            subs.register_range(&*twin, 0.0, spec)
                .expect("twin range sub");
        }
        for spec in knns {
            subs.register_knn(&*twin, 0.0, spec).expect("twin knn sub");
        }
    }
    let mut ticker = Ticker::new(cfg.seed, fleet.to_vec(), sz.per_tick);
    for i in 1..=ticks {
        let batch = ticker.next_batch();
        let t0 = Instant::now();
        let delta = twin.apply_updates_delta(&batch).expect("twin tick");
        let t1 = Instant::now();
        r.apply_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let tick_span = tracer.record("core.tick", None, i, t0, t1);
        if tracer.on() {
            let before = twin.io_stats();
            let t0 = Instant::now();
            let events = subs.on_tick(&*twin, &delta).expect("twin on_tick");
            let t1 = Instant::now();
            tracer.record_replay("sub.on_tick", tick_span, i, t0, t1);
            r.sub_us.push_dur_us(t1 - t0);
            r.sub_events.push(events.len() as f64);
            r.sub_pages
                .push(twin.io_stats().delta(&before).logical_reads as f64);
        }
        oracle.apply(&batch);
    }
    r
}

/// Logical pages the index reads for these requests, each as a batch
/// of one on the live twin (snapshot reads are not counted anywhere).
fn pages_for(twin: &VpIndex<BxTree>, asked: &[Interactive]) -> f64 {
    let domain = inputs::domain();
    let before = twin.io_stats();
    for req in asked {
        match req {
            Interactive::Range(q) => {
                std::hint::black_box(
                    twin.range_query_batch(std::slice::from_ref(q))
                        .expect("twin range"),
                );
            }
            Interactive::Knn(q) => {
                std::hint::black_box(
                    twin.knn_batch(std::slice::from_ref(q), &domain)
                        .expect("twin knn"),
                );
            }
        }
    }
    twin.io_stats().delta(&before).logical_reads as f64 / asked.len().max(1) as f64
}

fn server_config_json(c: &ServerConfig) -> Json {
    obj(vec![
        ("max_batch", Json::from(c.max_batch)),
        ("window_us", Json::from(c.window_us)),
        ("queue_depth", Json::from(c.queue_depth)),
        ("max_frame", Json::from(c.max_frame)),
        ("sub_horizon", Json::from(c.sub_horizon)),
        ("sub_retain", Json::from(c.sub_retain)),
        ("read_timeout_ms", Json::from(c.read_timeout_ms)),
        ("write_timeout_ms", Json::from(c.write_timeout_ms)),
        ("idle_timeout_ms", Json::from(c.idle_timeout_ms)),
    ])
}

pub fn run(mix: Mix, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(mix.name());
    let sz = sizing(cfg.scale, mix);
    let server_cfg = ServerConfig::default();

    let mut setups = Vec::new();
    let mut last: Option<(ServerHandle, Vec<MovingObject>, f64, f64)> = None;
    for _ in 0..cfg.setups {
        // The previous set-up's server is stopped before the next one
        // is built, so at most one is ever running.
        if let Some((handle, ..)) = last.take() {
            handle.shutdown();
        }
        let t0 = Instant::now();
        let b = set_up(cfg, &sz);
        let handle = spawn(b.index, "127.0.0.1:0", server_cfg.clone()).expect("spawn server");
        drop(VpClient::connect(handle.addr()).expect("first connection"));
        setups.push(t0.elapsed().as_secs_f64());
        last = Some((handle, b.fleet, b.analyze_ms, b.load_ms));
    }
    let (handle, fleet, analyze_ms, load_ms) = last.expect("at least one set-up");
    let addr = handle.addr();
    // From here until the server stops, idle-class spinners keep the
    // vCPUs from halting (see `awake`): wake-up cost is the host's idle
    // policy, and it made whole runs bimodal.
    let awake = KeepAwake::start();
    // An identical index kept in process: page counts, in-process
    // execution times, `serve_read`'s write metrics and the
    // `serve_mixed` reference all come from it.
    let (mut twin, ..) = build_index(cfg, &sz, &fleet);

    if tracer.on() {
        out.layer("core.analyze_ms", analyze_ms);
        out.layer("core.load_ms", load_ms);
        if mix == Mix::Read {
            unloaded_probes(&mut out, tracer, addr, cfg, &sz, &twin);
        }
    }

    let begin = Instant::now() + Duration::from_millis(20);
    let start = begin + Duration::from_secs_f64(sz.warmup_s);
    let w = Window {
        begin,
        start,
        end: start + Duration::from_secs_f64(cfg.seconds),
    };
    let (origin, on) = (tracer.origin(), tracer.on());
    let (first, second) = thread::scope(|s| {
        let a = s.spawn(|| interactive_thread(addr, mix, cfg, &sz, w, Tracer::new(on, origin)));
        let b = s.spawn(|| match mix {
            Mix::Read => scan_thread(addr, cfg, &sz, w, Tracer::new(on, origin)),
            Mix::Mixed => ticker_thread(addr, cfg, &sz, w, fleet.clone(), Tracer::new(on, origin)),
        });
        (
            a.join().expect("interactive generator"),
            b.join().expect("second generator"),
        )
    });

    // Answers.
    let mut oracle = Oracle::new(&fleet);
    let mut wrong = 0u64;
    let mut checked = 0u64;
    let mut asked = first.asked.clone();
    let mut twin_replay = None;
    match mix {
        Mix::Read => {
            for (req, answer) in &first.checks {
                checked += 1;
                wrong += u64::from(!match (req, answer) {
                    (Interactive::Range(q), Answer::Ids(ids)) => oracle.range_ok(q, ids),
                    (Interactive::Knn(q), Answer::Neighbors(ns)) => oracle.knn_ok(q, ns),
                    _ => false,
                });
            }
            for (q, ids) in &second.scan_checks {
                checked += 1;
                wrong += u64::from(!oracle.range_ok(q, ids));
            }
        }
        Mix::Mixed => {
            // Quiesced: the ticker has stopped. Bring the twin and the
            // reference to the same tick, then ask the server afresh.
            twin_replay = Some(replay_ticks_on_twin(
                cfg,
                &sz,
                &fleet,
                second.ticks_sent,
                &mut twin,
                &mut oracle,
                tracer,
            ));
            let now = Ticker::time_of(second.ticks_sent);
            let hot = inputs::hotspots(cfg.seed);
            let mut rng = Rng::new(cfg.seed, "final-check");
            let mut client = VpClient::connect(addr).expect("connect checker");
            for _ in 0..sz.final_checks {
                let req = inputs::interactive(&mut rng, &hot, now);
                out.attempted += 1;
                checked += 1;
                let ok = match &req {
                    Interactive::Range(q) => client.range(q).map(|ids| oracle.range_ok(q, &ids)),
                    Interactive::Knn(q) => client.knn(q).map(|ns| oracle.knn_ok(q, &ns)),
                };
                match ok {
                    Ok(ok) => wrong += u64::from(!ok),
                    Err(e) => {
                        out.failed += 1;
                        note_failure(&e);
                    }
                }
                asked.push(req);
            }
            let (range_specs, _) = subscriptions(cfg.seed, &sz);
            for (id, spec) in second.range_sub_ids.iter().zip(&range_specs) {
                checked += 1;
                let want = oracle.range(&RangeQuery::time_slice(spec.region, now));
                let got: Vec<u64> = second.sub_sets[id].iter().copied().collect();
                wrong += u64::from(got != want);
            }
        }
    }
    let pages = pages_for(&twin, &asked);
    handle.shutdown();
    let keep_awake_spinners = awake.spinners();
    drop(awake);
    // `serve_read` takes no writes, so its two write metrics are the
    // same re-report ticks `serve_mixed` sends, applied in process to
    // the twin once the served phase is over.
    let read_ticks = (mix == Mix::Read).then(|| {
        let ticks = sz.twin_ticks;
        replay_ticks_on_twin(
            cfg,
            &sz,
            &fleet,
            ticks,
            &mut twin,
            &mut oracle,
            &mut Tracer::off(),
        )
        .apply_ms
    });

    // End to end.
    let interactive_us = &first.interactive_us;
    out.attempted += first.attempted + second.attempted;
    out.failed += first.failed + second.failed + wrong;
    out.wrong = wrong;
    let tick_ms = read_ticks.as_ref().unwrap_or(&second.tick_ms);
    let us_per_obj = match &read_ticks {
        Some(ms) => ms.median() * 1e3 / sz.per_tick as f64,
        None => second.tick_us_per_obj.median(),
    };
    out.metric("setup_s", median_of(&setups));
    out.metric("query_p50_us", interactive_us.median());
    out.metric(
        "query_p99_us",
        crate::tail(interactive_us, 0.99, cfg.scale, "serve query_p99_us"),
    );
    // What one connection sustains: queries over the time spent
    // inside query calls (send to last reply byte), as in the
    // in-process workloads; the median over blocks of 1 000 requests.
    // (The offered rate is in the provenance.)
    out.metric("query_qps", first.service_us.rate(1_000) * 1e6);
    out.metric("update_us_per_obj", us_per_obj);
    out.metric(
        "tick_p95_ms",
        crate::tail(tick_ms, 0.95, cfg.scale, "serve tick_p95_ms"),
    );
    out.metric("pages_scanned_per_query", pages);
    out.metric("peak_rss_mb", peak_rss_mb());
    if mix == Mix::Read {
        out.metric("scan_p50_ms", second.scan_ms.median());
    }

    let mut late = Samples::new();
    late.extend(&first.late_us);
    late.extend(&second.late_us);
    let backlog = first.backlog + second.backlog;
    out.sample_count("interactive_us", interactive_us.len());
    out.sample_count("tick_ms", tick_ms.len());
    out.sample_count("scan_ms", second.scan_ms.len());
    out.note("objects", Json::from(sz.objects));
    out.note("pool_pages", Json::from(sz.pool_pages));
    out.note("pool_backend", Json::from("memory"));
    out.note("pool_shards", Json::from(DEFAULT_POOL_SHARDS));
    out.note("sync_policy", Json::from("none (no WAL)"));
    out.note("server_config", server_config_json(&server_cfg));
    out.note("interactive_rate_per_s", Json::from(sz.interactive_rate));
    match mix {
        Mix::Read => out.note("scan_rate_per_s", Json::from(sz.scan_rate)),
        Mix::Mixed => {
            out.note("tick_rate_per_s", Json::from(sz.tick_rate));
            out.note("objects_per_tick", Json::from(sz.per_tick));
            out.note("range_subscriptions", Json::from(sz.range_subs));
            out.note("knn_subscriptions", Json::from(sz.knn_subs));
            out.note("ticks_sent", Json::from(second.ticks_sent));
            out.note("events_received", Json::from(second.events));
            if let Some(tr) = &twin_replay {
                out.note("twin_apply_ms_p50", Json::from(tr.apply_ms.median()));
            }
        }
    }
    out.note("warmup_s", Json::from(sz.warmup_s));
    out.note("generator_threads", Json::from(2usize));
    out.note("keep_awake_spinners", Json::from(keep_awake_spinners));
    out.note("checked_answers", Json::from(checked));
    out.note(
        "loadgen_late_p99_us",
        Json::from(late.percentile(0.99).unwrap_or(f64::NAN)),
    );
    out.note("loadgen_backlog_end", Json::from(backlog));

    if on {
        out.layer("loadgen.late_p50_us", late.median());
        out.layer(
            "loadgen.late_p99_us",
            late.percentile(0.99).unwrap_or_else(|| late.max()),
        );
        out.layer("loadgen.backlog_end", backlog as f64);
        if !first.range_us.is_empty() && !first.knn_us.is_empty() {
            out.layer("server.query_p50_us.range", first.range_us.median());
            out.layer("server.query_p50_us.knn", first.knn_us.median());
        }
        if let Some((a, b)) = first.stats {
            let batches = (b.batches - a.batches).max(1);
            out.layer(
                "server.reqs_per_window",
                (b.batched_requests - a.batched_requests) as f64 / batches as f64,
            );
            out.layer("server.overloaded", (b.overloaded - a.overloaded) as f64);
            if mix == Mix::Mixed {
                out.layer("server.writes", (b.writes - a.writes) as f64);
            }
        }
        if mix == Mix::Read {
            out.layer("server.chunks_per_scan", second.chunks.mean());
        }
        if let Some(tr) = &twin_replay {
            out.layer("server.tick_rtt_ms", second.tick_ms.median());
            out.layer(
                "server.write_overhead_ms",
                second.tick_ms.median() - tr.apply_ms.median(),
            );
            if !second.event_lag_ms.is_empty() {
                out.layer("server.event_lag_ms", second.event_lag_ms.median());
            }
            out.layer("core.sub_on_tick_us", tr.sub_us.median());
            out.layer("core.sub_events_per_tick", tr.sub_events.mean());
            out.layer("core.sub_pages_per_tick", tr.sub_pages.mean());
        }
        tracer.merge(first.tracer);
        tracer.merge(second.tracer);
    }
    out
}
