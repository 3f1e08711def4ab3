//! `engine_batch` — the durable batched engine, in process, one
//! thread, no network.
//!
//! For Bx(VP) and then TPR\*(VP): a durable `VpIndex` (`wal_dir`,
//! `SyncPolicy::Always`, a checkpoint every 16 ticks, `tick_workers =
//! 1`) over a file-backed sharded pool at least twice the live pages
//! (warm; hit ratio ≈ 1) runs a **fixed number of rounds**. A round is
//! one `apply_updates` of re-reports (10 % of them turning 90°, which
//! migrates them between partitions) while the previous round's
//! snapshot is still held, then `snapshot()`, one
//! `VpSnapshot::range_query_batch` (time-slice / interval / moving mix,
//! hotspot-skewed) and one `knn_batch` (k = 10). After the rounds the
//! index is dropped without a checkpoint — a crash — and
//! `VpIndex::recover` is timed; its answers must equal the pre-crash
//! ones.
//!
//! Why it exists: group updates, WAL append + fsync, checkpoints, the
//! MVCC overlay / object-table copy-on-write and the shared-sweep
//! batched reads do all the work here; the wire and the batch former
//! do none, and buffer misses do none. It mirrors `paper_replay` for
//! the storage layer and `serve_*` for the server, and it drives the
//! Bx and TPR\* trees by batch where `paper_replay` drives them op by
//! op.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vp_bx::BxTree;
use vp_core::{
    knn_at, KnnQuery, MovingObject, MovingObjectIndex, Neighbor, RangeQuery, SyncPolicy, VpConfig,
    VpIndex,
};
use vp_storage::{BufferPool, DEFAULT_POOL_SHARDS};
use vp_tpr::TprTree;
use vp_wal::Wal;

use crate::engine::{self, Oracle, PoolSpec, SubIndex, WorkDir};
use crate::inputs::{self, Ticker};
use crate::json::Json;
use crate::probes;
use crate::trace::{SpanId, Tracer};
use crate::util::{dir_bytes, mean_of, median_of, peak_rss_mb, Rng, Samples};
use crate::{Outcome, RunCfg, Scale};

/// Checkpoint cadence, ticks. One tick in 16 is a checkpoint tick, so
/// the slowest twentieth of the ticks are all checkpoint ticks and
/// `tick_p95_ms` is one of them, not whichever ordinary tick was
/// unlucky.
const CHECKPOINT_EVERY: u64 = 16;
/// One round in this many has its answers compared with the reference
/// scan, and its read batch replayed on the live index to count pages.
const CHECK_EVERY: u64 = 8;
/// Bytes of one logged upsert (id + position + velocity + time).
const LOGGED_OBJECT_BYTES: usize = 48;

#[derive(Clone, Copy)]
struct Sizing {
    objects: usize,
    per_tick: usize,
    ranges: usize,
    knns: usize,
    /// Rounds per family per second of `--seconds`.
    rounds_per_second: f64,
    pool_pages: usize,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Full => Sizing {
            objects: 40_000,
            per_tick: 2_000,
            ranges: 64,
            knns: 16,
            rounds_per_second: 13.0,
            pool_pages: 8_192,
        },
        Scale::Smoke => Sizing {
            objects: 4_000,
            per_tick: 400,
            ranges: 32,
            knns: 8,
            rounds_per_second: 10.0,
            pool_pages: 2_048,
        },
    }
}

/// One family's durable index, loaded and checkpointed.
struct Loaded<I> {
    index: VpIndex<I>,
    pool: Arc<BufferPool>,
    vp_cfg: VpConfig,
    analysis: vp_core::AnalyzerOutput,
}

fn pages_path(dir: &Path) -> std::path::PathBuf {
    dir.join("pages.vpdisk")
}

fn load<I: SubIndex>(cfg: &RunCfg, sz: &Sizing, dir: &Path, fleet: &[MovingObject]) -> Loaded<I> {
    let vp_cfg = engine::vp_config(cfg.seed)
        .with_wal_dir(dir)
        .with_sync_policy(SyncPolicy::Always)
        .with_checkpoint_every_ticks(CHECKPOINT_EVERY);
    let sample = engine::velocity_sample(cfg.seed, fleet, vp_cfg.sample_size);
    let analysis = engine::analyze(&vp_cfg, &sample);
    let pool = PoolSpec::file(sz.pool_pages, DEFAULT_POOL_SHARDS, pages_path(dir)).open();
    let mut index: VpIndex<I> = engine::build_vp(&vp_cfg, &analysis, &pool);
    index.apply_updates(fleet).expect("initial load");
    index.checkpoint().expect("checkpoint after load");
    Loaded {
        index,
        pool,
        vp_cfg,
        analysis,
    }
}

/// What one family's rounds measured.
#[derive(Default)]
struct Rounds {
    /// Per query: its batch's time ÷ queries in the batch, µs.
    query_us: Samples,
    /// Per round: queries ÷ time inside the two read calls.
    round_qps: Samples,
    queries: u64,
    tick_ms: Samples,
    tick_us_per_obj: Samples,
    updates: u64,
    /// Logical page reads of the replayed read batches, and the
    /// queries in them.
    replay_pages: u64,
    replay_queries: u64,
    replay_results: u64,
    logical_writes: u64,
    logical_reads: u64,
    physical_reads: u64,
    overlay_peak: usize,
    snapshot_us: Samples,
    wrong: u64,
    errors: u64,
    recover_s: f64,
    records_replayed: usize,
    stored_bytes: u64,
    live_objects: usize,
    live_pages: usize,
    checked_rounds: u64,
}

/// The traced run's twins of one family: a non-durable index fed the
/// same ticks, one standalone sub-index per partition fed exactly the
/// batch the manager routes to that partition, and bare log streams
/// fed records of the same sizes.
struct Twins<I> {
    mem: VpIndex<I>,
    parts: Vec<I>,
    logs: Vec<Wal>,
    log_seq: u64,
    mem_tick_ms_held: Samples,
    mem_tick_ms_free: Samples,
    sub_batch_us: Samples,
    sub_batch_us_per_obj: Samples,
    migrations: Samples,
    range_us_per_query: Samples,
    read_self_share: Samples,
    knn_us: Samples,
    knn_pages: Samples,
    wal_bytes: u64,
    wal_objects: u64,
}

impl<I: SubIndex> Twins<I> {
    fn new(
        vp_cfg: &VpConfig,
        analysis: &vp_core::AnalyzerOutput,
        pool_pages: usize,
        fleet: &[MovingObject],
        dir: &Path,
    ) -> Twins<I> {
        let mem_cfg = VpConfig {
            wal_dir: None,
            checkpoint_every_ticks: 0,
            ..vp_cfg.clone()
        };
        let pool = PoolSpec::memory(pool_pages, DEFAULT_POOL_SHARDS).open();
        let mut mem: VpIndex<I> = engine::build_vp(&mem_cfg, analysis, &pool);
        mem.apply_updates(fleet).expect("twin load");
        let parts = mem
            .specs()
            .iter()
            .map(|spec| {
                let pool = PoolSpec::memory(pool_pages, 1).open();
                let mut sub = I::create(pool, spec.domain);
                let mine: Vec<MovingObject> = fleet
                    .iter()
                    .filter(|o| mem.partition_of(o.id) == Some(spec.id))
                    .map(|o| o.to_frame(&spec.frame))
                    .collect();
                sub.update_batch(&mine).expect("standalone load");
                sub
            })
            .collect();
        let probe_dir = dir.join("probe-log");
        let logs = (0..=mem.specs().len())
            .map(|i| Wal::open(&probe_dir, &format!("s{i}")).expect("open probe stream"))
            .collect();
        Twins {
            mem,
            parts,
            logs,
            log_seq: 0,
            mem_tick_ms_held: Samples::new(),
            mem_tick_ms_free: Samples::new(),
            sub_batch_us: Samples::new(),
            sub_batch_us_per_obj: Samples::new(),
            migrations: Samples::new(),
            range_us_per_query: Samples::new(),
            read_self_share: Samples::new(),
            knn_us: Samples::new(),
            knn_pages: Samples::new(),
            wal_bytes: 0,
            wal_objects: 0,
        }
    }

    /// Replays one tick below the manager, as children of `tick`.
    fn replay_tick(
        &mut self,
        tracer: &mut Tracer,
        tick: Option<SpanId>,
        round: u64,
        batch: &[MovingObject],
    ) {
        // What the manager will do with this batch, read off the twin
        // before it ticks: where each object is, and where it goes.
        let nparts = self.parts.len();
        let mut removals: Vec<Vec<u64>> = vec![Vec::new(); nparts];
        let mut upserts: Vec<Vec<MovingObject>> = vec![Vec::new(); nparts];
        let mut migrations = 0u64;
        for o in batch {
            let to = self.mem.choose_partition(o.vel);
            if let Some(from) = self.mem.partition_of(o.id) {
                if from != to {
                    removals[from].push(o.id);
                    migrations += 1;
                }
            }
            upserts[to].push(o.to_frame(&self.mem.specs()[to].frame));
        }
        self.migrations.push(migrations as f64);

        // The identical tick on the non-durable twin; every other
        // round with a snapshot held across it.
        let held = round
            .is_multiple_of(2)
            .then(|| self.mem.snapshot().expect("twin snapshot"));
        let t0 = Instant::now();
        self.mem.apply_updates(batch).expect("twin tick");
        let t1 = Instant::now();
        tracer.record("core.tick.mem", None, round, t0, t1);
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        if held.is_some() {
            self.mem_tick_ms_held.push(ms);
        } else {
            self.mem_tick_ms_free.push(ms);
        }
        drop(held);

        // Each partition's share, straight to a standalone sub-index.
        let span = if I::LAYER == "bx" {
            "bx.update_batch"
        } else {
            "tpr.update_batch"
        };
        let mut total_us = 0.0;
        for p in 0..nparts {
            if removals[p].is_empty() && upserts[p].is_empty() {
                continue;
            }
            let sub = &mut self.parts[p];
            let t0 = Instant::now();
            sub.remove_batch(&removals[p]).expect("standalone removals");
            sub.update_batch(&upserts[p]).expect("standalone upserts");
            let t1 = Instant::now();
            tracer.record_replay(span, tick, round, t0, t1);
            total_us += (t1 - t0).as_secs_f64() * 1e6;
        }
        self.sub_batch_us.push(total_us);
        self.sub_batch_us_per_obj
            .push(total_us / batch.len() as f64);

        // And what the manager logs: one record per touched partition
        // stream, then the commit record, each with its own fsync.
        for p in 0..nparts {
            let bytes = upserts[p].len() * LOGGED_OBJECT_BYTES + removals[p].len() * 8;
            if bytes > 0 {
                self.log_commit(tracer, tick, round, p, bytes);
            }
        }
        self.log_commit(tracer, tick, round, nparts, 16);
    }

    fn log_commit(
        &mut self,
        tracer: &mut Tracer,
        tick: Option<SpanId>,
        round: u64,
        stream: usize,
        bytes: usize,
    ) {
        self.log_seq += 1;
        let payload = vec![0x5Au8; bytes];
        let t0 = Instant::now();
        self.logs[stream]
            .append(self.log_seq, 3, &payload)
            .expect("probe append");
        self.logs[stream]
            .commit(SyncPolicy::Always)
            .expect("probe commit");
        tracer.record_replay("wal.commit", tick, round, t0, Instant::now());
    }

    /// Replays one read batch below the manager, as children of
    /// `batch_span`: each partition's sub-index is called directly with
    /// the queries in its frame.
    fn replay_reads(
        &mut self,
        tracer: &mut Tracer,
        index: &VpIndex<I>,
        (batch_span, knn_span): (Option<SpanId>, Option<SpanId>),
        round: u64,
        ranges: &[RangeQuery],
        knns: &[KnnQuery],
    ) {
        let (range_name, knn_name) = if I::LAYER == "bx" {
            ("bx.range_batch", "bx.knn")
        } else {
            ("tpr.range_batch", "tpr.knn")
        };
        let t0 = Instant::now();
        let whole = index.range_query_batch(ranges).expect("live range batch");
        let whole_us = t0.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(whole);
        let mut parts_us = 0.0;
        for spec in index.specs() {
            let local: Vec<RangeQuery> = ranges
                .iter()
                .map(|q| {
                    if spec.is_outlier {
                        *q
                    } else {
                        q.to_frame(&spec.frame)
                    }
                })
                .collect();
            let t0 = Instant::now();
            let got = index
                .partition_index(spec.id)
                .range_query_batch(&local)
                .expect("partition range batch");
            let t1 = Instant::now();
            std::hint::black_box(got);
            tracer.record_replay(range_name, batch_span, round, t0, t1);
            parts_us += (t1 - t0).as_secs_f64() * 1e6;
        }
        self.range_us_per_query.push(parts_us / ranges.len() as f64);
        self.read_self_share.push(1.0 - parts_us / whole_us);

        // kNN straight on the largest partition's sub-index.
        let sizes = index.partition_sizes();
        let p0 = (0..sizes.len())
            .max_by_key(|&p| sizes[p])
            .expect("partitions");
        let spec = &index.specs()[p0];
        let sub = index.partition_index(p0);
        for q in knns {
            let before = sub.io_stats();
            let t0 = Instant::now();
            let got = knn_at(sub, spec.frame.to_frame(q.center), q.k, q.t, &spec.domain)
                .expect("partition knn");
            let t1 = Instant::now();
            std::hint::black_box(got);
            tracer.record_replay(knn_name, knn_span, round, t0, t1);
            self.knn_us.push_dur_us(t1 - t0);
            self.knn_pages
                .push(sub.io_stats().delta(&before).logical_reads as f64);
        }
    }
}

fn seg_bytes(dir: &Path) -> (u64, usize) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    rd.flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .fold((0, 0), |(bytes, n), e| {
            (bytes + e.metadata().map_or(0, |m| m.len()), n + 1)
        })
}

fn ids_of(ns: &[Neighbor]) -> Vec<u64> {
    ns.iter().map(|n| n.id).collect()
}

#[allow(clippy::too_many_arguments)]
fn run_rounds<I: SubIndex>(
    cfg: &RunCfg,
    sz: &Sizing,
    rounds: u64,
    loaded: Loaded<I>,
    dir: &Path,
    fleet: &[MovingObject],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Rounds {
    let Loaded {
        mut index,
        pool,
        vp_cfg,
        analysis,
    } = loaded;
    let mut twins = tracer
        .on()
        .then(|| Twins::new(&vp_cfg, &analysis, sz.pool_pages, fleet, dir));
    let hot = inputs::hotspots(cfg.seed);
    let domain = inputs::domain();
    let mut rng = Rng::new(cfg.seed, I::LAYER);
    let mut ticker = Ticker::new(cfg.seed, fleet.to_vec(), sz.per_tick);
    let mut oracle = Oracle::new(fleet);
    let mut r = Rounds::default();
    let mut held = None;
    let io_start = pool.stats();

    for round in 1..=rounds {
        let batch = ticker.next_batch();
        let now = Ticker::time_of(round);
        let log_before = tracer.on().then(|| seg_bytes(dir).0);

        let io0 = pool.stats();
        let t0 = Instant::now();
        let res = index.apply_updates(&batch);
        let t1 = Instant::now();
        r.errors += u64::from(res.is_err());
        r.updates += batch.len() as u64;
        r.tick_ms.push((t1 - t0).as_secs_f64() * 1e3);
        r.tick_us_per_obj
            .push((t1 - t0).as_secs_f64() * 1e6 / batch.len() as f64);
        r.logical_writes += pool.stats().delta(&io0).logical_writes;
        r.overlay_peak = r.overlay_peak.max(pool.overlay_versions());
        let tick_span = tracer.record("core.tick", None, round, t0, t1);
        if let (Some(tw), Some(before)) = (&mut twins, log_before) {
            let after = seg_bytes(dir).0;
            if after > before {
                tw.wal_bytes += after - before;
                tw.wal_objects += batch.len() as u64;
            }
            tw.replay_tick(tracer, tick_span, round, &batch);
        }
        oracle.apply(&batch);

        // The snapshot taken last round was held across this tick.
        drop(held.take());
        let t0 = Instant::now();
        let snap = index.snapshot().expect("snapshot");
        let t1 = Instant::now();
        r.snapshot_us.push_dur_us(t1 - t0);
        tracer.record("core.snapshot", None, round, t0, t1);

        let ranges = inputs::range_batch(&mut rng, &hot, now, sz.ranges);
        let knns = inputs::knn_batch(&mut rng, &hot, now, sz.knns);
        let t0 = Instant::now();
        let range_res = snap.range_query_batch(&ranges);
        let t1 = Instant::now();
        let knn_res = snap.knn_batch(&knns, &domain);
        let t2 = Instant::now();
        r.query_us.push_n(
            (t1 - t0).as_secs_f64() * 1e6 / ranges.len() as f64,
            ranges.len(),
        );
        r.query_us.push_n(
            (t2 - t1).as_secs_f64() * 1e6 / knns.len() as f64,
            knns.len(),
        );
        r.round_qps
            .push((ranges.len() + knns.len()) as f64 / (t2 - t0).as_secs_f64());
        r.queries += (ranges.len() + knns.len()) as u64;
        let range_span = tracer.record("core.range_batch", None, round, t0, t1);
        let knn_span = tracer.record("core.knn_batch", None, round, t1, t2);

        match (range_res, knn_res) {
            (Ok(range_res), Ok(knn_res)) => {
                if round.is_multiple_of(CHECK_EVERY) {
                    r.checked_rounds += 1;
                    for (q, got) in ranges.iter().zip(&range_res) {
                        r.wrong += u64::from(!oracle.range_ok(q, got));
                    }
                    for (q, got) in knns.iter().zip(&knn_res) {
                        r.wrong += u64::from(!oracle.knn_ok(q, got));
                    }
                    // Snapshot reads are not counted by the pool, so
                    // pages are counted on the live index, which holds
                    // the same committed state.
                    let before = index.io_stats();
                    let live = index.range_query_batch(&ranges).expect("live replay");
                    let live_knn = index.knn_batch(&knns, &domain).expect("live knn replay");
                    r.replay_pages += index.io_stats().delta(&before).logical_reads;
                    r.replay_queries += (ranges.len() + knns.len()) as u64;
                    r.replay_results += live.iter().map(|ids| ids.len() as u64).sum::<u64>();
                    for (a, b) in live.iter().zip(&range_res) {
                        r.wrong += u64::from(engine::sorted(a) != engine::sorted(b));
                    }
                    for (a, b) in live_knn.iter().zip(&knn_res) {
                        r.wrong += u64::from(ids_of(a) != ids_of(b));
                    }
                    if let Some(tw) = &mut twins {
                        tw.replay_reads(
                            tracer,
                            &index,
                            (range_span, knn_span),
                            round,
                            &ranges,
                            &knns,
                        );
                    }
                }
            }
            _ => r.errors += 1,
        }
        held = Some(snap);
    }
    drop(held);
    let io = pool.stats().delta(&io_start);
    r.logical_reads = io.logical_reads;
    r.physical_reads = io.physical_reads;

    // Pre-crash answers, then the crash: no checkpoint, no goodbye.
    let now = Ticker::time_of(rounds);
    let final_ranges = inputs::range_batch(&mut rng, &hot, now, sz.ranges);
    let final_knns = inputs::knn_batch(&mut rng, &hot, now, sz.knns);
    let pre_ranges = index
        .range_query_batch(&final_ranges)
        .expect("pre-crash ranges");
    let pre_knns = index
        .knn_batch(&final_knns, &domain)
        .expect("pre-crash knn");
    drop(index);
    drop(pool);

    if tracer.on() {
        let t0 = Instant::now();
        let mut records = 0usize;
        for stream in
            std::iter::once("meta".to_owned()).chain((0..=vp_cfg.k).map(|p| format!("part-{p}")))
        {
            let log = Wal::open(dir, &stream).expect("open crashed stream");
            records += log.replay(0).expect("replay crashed stream").len();
        }
        let t1 = Instant::now();
        tracer.record("wal.replay", None, 0, t0, t1);
        out.layer("wal.replay_ms", (t1 - t0).as_secs_f64() * 1e3);
        out.note(
            &format!("{}.wal_records_on_disk", I::LAYER),
            Json::from(records),
        );
    }

    let pool = PoolSpec::file(sz.pool_pages, DEFAULT_POOL_SHARDS, pages_path(dir)).open();
    let t0 = Instant::now();
    let (mut index, report) = engine::recover_vp::<I>(dir, &pool).expect("recover");
    let t1 = Instant::now();
    r.recover_s = (t1 - t0).as_secs_f64();
    r.records_replayed = report.events_replayed;
    tracer.record("core.recover", None, 0, t0, t1);
    let post_ranges = index
        .range_query_batch(&final_ranges)
        .expect("post-crash ranges");
    let post_knns = index
        .knn_batch(&final_knns, &domain)
        .expect("post-crash knn");
    for (a, b) in pre_ranges.iter().zip(&post_ranges) {
        r.wrong += u64::from(engine::sorted(a) != engine::sorted(b));
    }
    for (a, b) in pre_knns.iter().zip(&post_knns) {
        r.wrong += u64::from(ids_of(a) != ids_of(b));
    }
    for (q, got) in final_ranges.iter().zip(&post_ranges) {
        r.wrong += u64::from(!oracle.range_ok(q, got));
    }

    let t0 = Instant::now();
    index.checkpoint().expect("final checkpoint");
    let t1 = Instant::now();
    tracer.record("core.checkpoint", None, 0, t0, t1);
    // The probe streams are the benchmark's, not the index's.
    let _ = std::fs::remove_dir_all(dir.join("probe-log"));
    r.stored_bytes = dir_bytes(dir);
    r.live_objects = index.len();
    r.live_pages = pool.live_pages();

    if let Some(tw) = twins {
        let l = I::LAYER;
        out.layer("core.checkpoint_ms", (t1 - t0).as_secs_f64() * 1e3);
        out.layer("wal.segments_after_ckpt", seg_bytes(dir).1 as f64);
        // One more tick dirties pages again; flushing them is the
        // storage share of a checkpoint.
        index
            .apply_updates(&ticker.next_batch())
            .expect("tick before flush probe");
        let t0 = Instant::now();
        pool.checkpoint().expect("pool checkpoint");
        let t1 = Instant::now();
        tracer.record("storage.flush", None, 0, t0, t1);
        out.layer("storage.flush_ms", (t1 - t0).as_secs_f64() * 1e3);

        let durable_ms = r.tick_ms.median();
        let mem_ms = tw.mem_tick_ms_free.median();
        out.layer(&format!("{l}.tick_ms"), durable_ms);
        out.layer(
            &format!("{l}.update_batch_us_per_obj"),
            tw.sub_batch_us_per_obj.median(),
        );
        out.layer(
            &format!("{l}.range_batch_us_per_query"),
            tw.range_us_per_query.median(),
        );
        out.layer(&format!("{l}.knn_us_per_search"), tw.knn_us.median());
        out.layer(&format!("{l}.knn_pages_per_search"), tw.knn_pages.mean());
        out.layer(
            &format!("{l}.results_per_page"),
            r.replay_results as f64 / r.replay_pages.max(1) as f64,
        );
        // The shared `core.*` / `wal.*` / `storage.*` numbers are the
        // mean of the two families; the first family writes them, the
        // second averages in.
        let mut shared = |name: &str, value: f64| {
            let v = match out.get(name) {
                Some(first) if I::LAYER == "tpr" => (first + value) / 2.0,
                _ => value,
            };
            out.layer(name, v);
        };
        shared("core.tick_ms.durable", durable_ms);
        shared("core.tick_ms.mem", mem_ms);
        shared(
            "core.tick_self_share",
            1.0 - tw.sub_batch_us.median() / 1e3 / mem_ms,
        );
        shared("core.cow_tick_ratio", tw.mem_tick_ms_held.median() / mem_ms);
        shared("core.snapshot_us", r.snapshot_us.median());
        shared("core.read_self_share", tw.read_self_share.median());
        shared("core.migrations_per_tick", tw.migrations.mean());
        shared("core.recover_ms", r.recover_s * 1e3);
        shared("wal.tick_share", (durable_ms - mem_ms) / durable_ms);
        shared(
            "wal.bytes_per_obj",
            tw.wal_bytes as f64 / tw.wal_objects.max(1) as f64,
        );
        shared("wal.records_replayed", r.records_replayed as f64);
        shared("storage.overlay_versions_peak", r.overlay_peak as f64);
        shared(
            "storage.logical_writes_per_obj",
            r.logical_writes as f64 / r.updates.max(1) as f64,
        );
        shared(
            "storage.pages_per_kobj",
            r.live_pages as f64 / (r.live_objects as f64 / 1e3),
        );
        shared(
            "storage.hit_ratio",
            1.0 - r.physical_reads as f64 / r.logical_reads.max(1) as f64,
        );
    }
    r
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("engine_batch");
    let sz = sizing(cfg.scale);
    let rounds = (sz.rounds_per_second * cfg.seconds).round().max(1.0) as u64;
    let work = WorkDir::new("engine_batch");

    let mut setups = Vec::new();
    let mut built = None;
    for i in 0..cfg.setups {
        drop(built.take());
        let t0 = Instant::now();
        let fleet = inputs::fleet(cfg.seed, sz.objects);
        let bx_dir = work.sub(&format!("bx-{i}"));
        let tpr_dir = work.sub(&format!("tpr-{i}"));
        let bx = load::<BxTree>(cfg, &sz, &bx_dir, &fleet);
        let tpr = load::<TprTree>(cfg, &sz, &tpr_dir, &fleet);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((fleet, bx, bx_dir, tpr, tpr_dir));
    }
    let (fleet, bx, bx_dir, tpr, tpr_dir) = built.expect("at least one set-up");

    if tracer.on() {
        let t0 = Instant::now();
        let analysis = engine::analyze(
            &bx.vp_cfg,
            &engine::velocity_sample(cfg.seed, &fleet, bx.vp_cfg.sample_size),
        );
        out.layer("core.analyze_ms", t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(analysis);
        let (skew, outliers) = engine::partition_shape(&bx.index);
        out.layer("core.partition_skew", skew);
        out.layer("core.outlier_share", outliers);
        let batch = Ticker::new(cfg.seed, fleet.clone(), sz.per_tick).next_batch();
        probes::geom(&mut out, tracer, &bx.index.specs()[0].frame, &batch);
        probes::wal(
            &mut out,
            tracer,
            &work.sub("probe-wal"),
            sz.per_tick / 2 * LOGGED_OBJECT_BYTES,
        );
    }

    let t_phase = Instant::now();
    let a = run_rounds(cfg, &sz, rounds, bx, &bx_dir, &fleet, tracer, &mut out);
    let b = run_rounds(cfg, &sz, rounds, tpr, &tpr_dir, &fleet, tracer, &mut out);
    let phase_s = t_phase.elapsed().as_secs_f64();

    for r in [&a, &b] {
        out.attempted += r.updates + r.queries;
        out.wrong += r.wrong;
        out.failed += r.wrong + r.errors;
    }
    // Each statistic is taken per family and the two are averaged: Bx
    // and TPR* latencies do not overlap, so a pooled median would sit
    // in the gap between them.
    let both = |f: &dyn Fn(&Rounds) -> f64| mean_of(&[f(&a), f(&b)]);
    out.metric("setup_s", median_of(&setups));
    out.metric("query_p50_us", both(&|r| r.query_us.median()));
    out.metric(
        "query_p99_us",
        both(&|r| crate::tail(&r.query_us, 0.99, cfg.scale, "engine_batch query_p99_us")),
    );
    out.metric("query_qps", both(&|r| r.round_qps.median()));
    out.metric("update_us_per_obj", both(&|r| r.tick_us_per_obj.median()));
    out.metric(
        "tick_p95_ms",
        both(&|r| crate::tail(&r.tick_ms, 0.95, cfg.scale, "engine_batch tick_p95_ms")),
    );
    out.metric(
        "pages_scanned_per_query",
        (a.replay_pages + b.replay_pages) as f64 / (a.replay_queries + b.replay_queries) as f64,
    );
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("recover_s", a.recover_s + b.recover_s);
    out.metric(
        "stored_bytes_per_obj",
        (a.stored_bytes + b.stored_bytes) as f64 / (a.live_objects + b.live_objects) as f64,
    );

    out.sample_count("query_us_per_family", a.query_us.len());
    out.sample_count("tick_ms_per_family", a.tick_ms.len());
    out.note("objects", Json::from(sz.objects));
    out.note("objects_per_tick", Json::from(sz.per_tick));
    out.note("rounds_per_family", Json::from(rounds));
    out.note("range_queries_per_batch", Json::from(sz.ranges));
    out.note("knn_queries_per_batch", Json::from(sz.knns));
    out.note(
        "checked_rounds",
        Json::from(a.checked_rounds + b.checked_rounds),
    );
    out.note("pool_pages", Json::from(sz.pool_pages));
    out.note("pool_backend", Json::from("file"));
    out.note("pool_shards", Json::from(DEFAULT_POOL_SHARDS));
    out.note("live_pages", Json::from(a.live_pages + b.live_pages));
    out.note("sync_policy", Json::from("always"));
    out.note("checkpoint_every_ticks", Json::from(CHECKPOINT_EVERY));
    out.note("tick_workers", Json::from(1usize));
    out.note(
        "events_replayed_at_recovery",
        Json::from(a.records_replayed + b.records_replayed),
    );
    out.note("measured_s", Json::from(phase_s));
    out
}
