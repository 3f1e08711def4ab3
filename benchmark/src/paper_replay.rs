//! `paper_replay` — the paper's Section 6 default cell.
//!
//! A Chicago road-network trace (max speed 100, max update interval
//! 120) is replayed op by op, on one thread, through
//! `MovingObjectIndex::{update, range_query}` on the four contenders
//! of the paper's figures — Bx, Bx(VP), TPR\*, TPR\*(VP) — each over
//! its own 50-page single-shard memory pool, cache cleared after the
//! load.
//!
//! Why it exists: it is the only workload where the pool is far
//! smaller than the index, so buffer misses dominate and the single-op
//! paths carry everything; it is the paper's headline, and its page
//! counts repeat exactly for a seed. The end-to-end numbers pool the
//! two VP contenders; their unpartitioned twins are the base of
//! `vp_io_gain`.
//!
//! The amount of work is fixed by `--seconds` (trace length and query
//! count scale with it), never by the clock, so that counts repeat.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use vp_bx::BxTree;
use vp_core::{MovingObjectIndex, VpIndex};
use vp_storage::{BufferPool, IoStats};
use vp_tpr::TprTree;
use vp_workload::{Workload, WorkloadEvent};

use crate::engine::{self, Oracle, PoolSpec, SubIndex};
use crate::inputs;
use crate::json::Json;
use crate::probes;
use crate::trace::Tracer;
use crate::util::{mean_of, median_of, peak_rss_mb, Samples};
use crate::{Outcome, RunCfg, Scale};

/// Buffer pool of every contender (paper Table 1).
const POOL_PAGES: usize = 50;
/// One query in this many is compared with the reference scan.
const CHECK_EVERY: usize = 16;
/// `query_qps` is the median rate over blocks of this many queries.
const QPS_BLOCK: usize = 1_000;
/// A "tick" of this workload is the updates of one such slice of a
/// trace timestamp (about sixty single updates): fine enough that a
/// 240-timestamp trace yields a dozen blocks of samples for
/// `tick_p95_ms`, so one hiccup of the host cannot move it.
const TICKS_PER_TIMESTAMP: f64 = 12.0;

struct Sizing {
    objects: usize,
    /// Trace length in timestamps per second of `--seconds`.
    ts_per_second: f64,
    /// Queries per second of `--seconds`.
    queries_per_second: f64,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Full => Sizing {
            objects: 40_000,
            ts_per_second: 12.0,
            queries_per_second: 300.0,
        },
        Scale::Smoke => Sizing {
            objects: 3_000,
            ts_per_second: 12.0,
            queries_per_second: 300.0,
        },
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bx,
    BxVp,
    Tpr,
    TprVp,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Bx, Kind::BxVp, Kind::Tpr, Kind::TprVp];

    fn is_vp(self) -> bool {
        matches!(self, Kind::BxVp | Kind::TprVp)
    }

    fn layer(self) -> &'static str {
        match self {
            Kind::Bx | Kind::BxVp => BxTree::LAYER,
            Kind::Tpr | Kind::TprVp => TprTree::LAYER,
        }
    }
}

/// A contender, kept by concrete type so the VP ones still expose
/// their partition sizes.
enum Index {
    Bx(BxTree),
    BxVp(VpIndex<BxTree>),
    Tpr(TprTree),
    TprVp(VpIndex<TprTree>),
}

impl Index {
    fn as_dyn(&mut self) -> &mut dyn MovingObjectIndex {
        match self {
            Index::Bx(i) => i,
            Index::BxVp(i) => i,
            Index::Tpr(i) => i,
            Index::TprVp(i) => i,
        }
    }
}

struct Contender {
    kind: Kind,
    index: Index,
    pool: Arc<BufferPool>,
}

struct Built {
    trace: Workload,
    contenders: Vec<Contender>,
    setup_s: f64,
    analyze_ms: f64,
    load_ms: f64,
    /// (max ÷ mean partition size, outlier share) of Bx(VP).
    shape: (f64, f64),
    /// Objects in the largest Bx(VP) partition.
    largest_partition: usize,
}

fn set_up(cfg: &RunCfg, seconds: f64) -> Built {
    let sz = sizing(cfg.scale);
    let t0 = Instant::now();
    let trace = inputs::paper_trace(
        cfg.seed,
        sz.objects,
        (sz.ts_per_second * seconds).round(),
        (sz.queries_per_second * seconds).round() as usize,
    );
    let vp_cfg = engine::vp_config(cfg.seed);
    let sample = engine::velocity_sample(cfg.seed, &trace.initial, vp_cfg.sample_size);
    let ta = Instant::now();
    let analysis = engine::analyze(&vp_cfg, &sample);
    let analyze_ms = ta.elapsed().as_secs_f64() * 1e3;

    let tl = Instant::now();
    let contenders = Kind::ALL
        .iter()
        .map(|&kind| {
            // Single shard: the paper's one 50-page buffer has one
            // global LRU order, and the page counts depend on it.
            let pool = PoolSpec::memory(POOL_PAGES, 1).open();
            let mut index = match kind {
                Kind::Bx => Index::Bx(BxTree::create(Arc::clone(&pool), trace.domain)),
                Kind::Tpr => Index::Tpr(TprTree::create(Arc::clone(&pool), trace.domain)),
                Kind::BxVp => Index::BxVp(engine::build_vp(&vp_cfg, &analysis, &pool)),
                Kind::TprVp => Index::TprVp(engine::build_vp(&vp_cfg, &analysis, &pool)),
            };
            for obj in &trace.initial {
                index.as_dyn().insert(*obj).expect("initial load");
            }
            Contender { kind, index, pool }
        })
        .collect::<Vec<_>>();
    let load_ms = tl.elapsed().as_secs_f64() * 1e3;
    let (shape, largest_partition) = contenders
        .iter()
        .find_map(|c| match &c.index {
            Index::BxVp(vp) => Some((
                engine::partition_shape(vp),
                vp.partition_sizes().into_iter().max().unwrap_or(0),
            )),
            _ => None,
        })
        .expect("Bx(VP) is a contender");
    Built {
        trace,
        contenders,
        setup_s: t0.elapsed().as_secs_f64(),
        analyze_ms,
        load_ms,
        shape,
        largest_partition,
    }
}

/// What one contender's replay measured.
#[derive(Default)]
struct Replay {
    query_us: Samples,
    update_us: Samples,
    /// Summed update time per slice of a trace timestamp, ms.
    tick_ms: Samples,
    query_io: IoStats,
    update_io: IoStats,
    queries: u64,
    updates: u64,
    wrong: u64,
    errors: u64,
}

/// Reference answers of the sampled queries, keyed by query ordinal.
fn reference_answers(trace: &Workload) -> BTreeMap<usize, Vec<u64>> {
    let mut oracle = Oracle::new(&trace.initial);
    let mut answers = BTreeMap::new();
    let mut qi = 0usize;
    for (_, event) in &trace.events {
        match event {
            WorkloadEvent::Update(obj) => oracle.update(*obj),
            WorkloadEvent::Query(q) => {
                if qi.is_multiple_of(CHECK_EVERY) {
                    answers.insert(qi, oracle.range(q));
                }
                qi += 1;
            }
        }
    }
    answers
}

fn replay(
    c: &mut Contender,
    trace: &Workload,
    reference: &BTreeMap<usize, Vec<u64>>,
    tracer: &mut Tracer,
) -> Replay {
    // Cold cache after the load, so query I/O is not an artefact of
    // load order (as in the paper's harness).
    c.pool.clear_cache().expect("clear cache");
    c.pool.reset_stats();
    let (q_span, u_span) = match c.kind.layer() {
        "bx" => ("bx.range_query", "bx.update"),
        _ => ("tpr.range_query", "tpr.update"),
    };
    let mut r = Replay::default();
    let mut tick_acc: BTreeMap<u64, f64> = BTreeMap::new();
    let mut qi = 0usize;
    for (t, event) in &trace.events {
        let io0 = c.pool.stats();
        match event {
            WorkloadEvent::Update(obj) => {
                let t0 = Instant::now();
                let res = c.index.as_dyn().update(*obj);
                let t1 = Instant::now();
                let us = (t1 - t0).as_secs_f64() * 1e6;
                r.update_us.push(us);
                *tick_acc
                    .entry((t * TICKS_PER_TIMESTAMP).floor() as u64)
                    .or_insert(0.0) += us / 1e3;
                r.update_io += c.pool.stats().delta(&io0);
                r.updates += 1;
                r.errors += u64::from(res.is_err());
                tracer.record(u_span, None, r.updates, t0, t1);
            }
            WorkloadEvent::Query(q) => {
                let t0 = Instant::now();
                let res = c.index.as_dyn().range_query(q);
                let t1 = Instant::now();
                r.query_us.push((t1 - t0).as_secs_f64() * 1e6);
                r.query_io += c.pool.stats().delta(&io0);
                r.queries += 1;
                tracer.record(q_span, None, qi as u64, t0, t1);
                match res {
                    Ok(ids) => {
                        if let Some(want) = reference.get(&qi) {
                            r.wrong += u64::from(engine::sorted(&ids) != *want);
                        }
                    }
                    Err(_) => r.errors += 1,
                }
                qi += 1;
            }
        }
    }
    for ms in tick_acc.into_values() {
        r.tick_ms.push(ms);
    }
    r
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("paper_replay");
    let seconds = cfg.seconds;

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups {
        drop(built.take());
        let b = set_up(cfg, seconds);
        setups.push(b.setup_s);
        built = Some(b);
    }
    let mut built = built.expect("at least one set-up");
    let reference = reference_answers(&built.trace);

    let t_phase = Instant::now();
    let mut replays: Vec<(Kind, Replay)> = Vec::new();
    for c in &mut built.contenders {
        let r = replay(c, &built.trace, &reference, tracer);
        replays.push((c.kind, r));
    }
    let phase_s = t_phase.elapsed().as_secs_f64();

    // End to end: the two VP contenders. Counts are pooled; each
    // latency statistic is taken per contender and the two averaged,
    // because Bx and TPR* latencies barely overlap and a pooled median
    // would sit in the gap between them.
    let (mut q_io, mut u_io) = (IoStats::zero(), IoStats::zero());
    let (mut queries, mut updates) = (0u64, 0u64);
    for (kind, r) in &replays {
        out.attempted += r.queries + r.updates;
        out.wrong += r.wrong;
        out.failed += r.wrong + r.errors;
        if kind.is_vp() {
            q_io += r.query_io;
            u_io += r.update_io;
            queries += r.queries;
            updates += r.updates;
        }
    }
    let vp = |f: &dyn Fn(&Replay) -> f64| {
        let each: Vec<f64> = replays
            .iter()
            .filter(|(kind, _)| kind.is_vp())
            .map(|(_, r)| f(r))
            .collect();
        mean_of(&each)
    };
    let per_query = |r: &Replay| r.query_io.physical_reads as f64 / r.queries.max(1) as f64;
    let of = |k: Kind| {
        &replays
            .iter()
            .find(|(kk, _)| *kk == k)
            .expect("contender")
            .1
    };
    let gain_bx = per_query(of(Kind::Bx)) / per_query(of(Kind::BxVp));
    let gain_tpr = per_query(of(Kind::Tpr)) / per_query(of(Kind::TprVp));

    out.metric("setup_s", median_of(&setups));
    out.metric("query_p50_us", vp(&|r| r.query_us.median()));
    out.metric(
        "query_p99_us",
        vp(&|r| crate::tail(&r.query_us, 0.99, cfg.scale, "paper_replay query_p99_us")),
    );
    out.metric("query_qps", vp(&|r| r.query_us.rate(QPS_BLOCK) * 1e6));
    out.metric("update_us_per_obj", vp(&|r| r.update_us.median()));
    out.metric(
        "tick_p95_ms",
        vp(&|r| crate::tail(&r.tick_ms, 0.95, cfg.scale, "paper_replay tick_p95_ms")),
    );
    out.metric(
        "pages_scanned_per_query",
        q_io.logical_reads as f64 / queries as f64,
    );
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric(
        "phys_io_per_query",
        q_io.physical_reads as f64 / queries as f64,
    );
    out.metric(
        "phys_io_per_update",
        u_io.physical_total() as f64 / updates as f64,
    );
    out.metric("vp_io_gain", (gain_bx * gain_tpr).sqrt());

    out.sample_count("query_us_per_contender", of(Kind::BxVp).query_us.len());
    out.sample_count("update_us_per_contender", of(Kind::BxVp).update_us.len());
    out.sample_count("tick_ms_per_contender", of(Kind::BxVp).tick_ms.len());
    out.note("objects", Json::from(built.trace.initial.len()));
    out.note(
        "trace_timestamps",
        Json::from(sizing(cfg.scale).ts_per_second * seconds),
    );
    out.note("updates_per_contender", Json::from(of(Kind::Bx).updates));
    out.note("queries_per_contender", Json::from(of(Kind::Bx).queries));
    out.note("pool_pages", Json::from(POOL_PAGES));
    out.note("pool_backend", Json::from("memory"));
    out.note("pool_shards", Json::from(1usize));
    out.note("measured_s", Json::from(phase_s));
    out.note("checked_queries_per_contender", Json::from(reference.len()));

    if tracer.on() {
        let all_io = q_io + u_io;
        out.layer("storage.hit_ratio", all_io.hit_ratio());
        out.layer(
            "storage.phys_reads_per_query",
            q_io.physical_reads as f64 / queries as f64,
        );
        out.layer(
            "storage.phys_writes_per_update",
            u_io.physical_writes as f64 / updates as f64,
        );
        for (unpart, vp) in [(Kind::Bx, Kind::BxVp), (Kind::Tpr, Kind::TprVp)] {
            let l = vp.layer();
            out.layer(
                &format!("{l}.phys_io_per_query.unpart"),
                per_query(of(unpart)),
            );
            out.layer(&format!("{l}.phys_io_per_query.vp"), per_query(of(vp)));
            out.layer(
                &format!("{l}.phys_io_per_update.vp"),
                of(vp).update_io.physical_total() as f64 / of(vp).updates.max(1) as f64,
            );
        }
        out.layer("core.analyze_ms", built.analyze_ms);
        out.layer("core.load_ms", built.load_ms);
        out.layer("core.partition_skew", built.shape.0);
        out.layer("core.outlier_share", built.shape.1);
        probes::storage(&mut out, tracer);
        probes::bptree(
            &mut out,
            tracer,
            built.largest_partition.max(1_000),
            cfg.seed,
        );
    }
    out
}
