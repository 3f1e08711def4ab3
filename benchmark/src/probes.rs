//! Standalone layer probes: a layer's public functions timed on their
//! own, with inputs shaped like the workload's. They run in traced
//! runs only and are recorded as spans like everything else.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vp_bptree::{BPlusTree, BatchOp, Key128, Value, VALUE_LEN};
use vp_core::{KnnQuery, MovingObject, RangeQuery, SyncPolicy};
use vp_geom::Frame;
use vp_server::{Request, Response};
use vp_storage::{BufferPool, PageId};
use vp_wal::Wal;

use crate::engine::{PoolSpec, WorkDir};
use crate::trace::Tracer;
use crate::util::{Rng, Samples};
use crate::Outcome;

/// Frames of the probed pool, and pages cycled through to defeat it.
const POOL_FRAMES: usize = 64;
const COLD_PAGES: usize = 512;
const PAGE_TOUCHES: usize = 20_000;

fn page_probe(pool: &Arc<BufferPool>) -> (f64, f64) {
    let pages: Vec<PageId> = (0..COLD_PAGES)
        .map(|i| {
            let pid = pool.new_page().expect("allocate probe page");
            pool.with_page_mut(pid, |buf| buf[0] = i as u8)
                .expect("write probe page");
            pid
        })
        .collect();
    pool.flush_all().expect("flush probe pages");
    // Resident: a set half the pool's size, touched round-robin.
    let hot = &pages[..POOL_FRAMES / 2];
    for &pid in hot {
        pool.with_page(pid, |b| black_box(b[0])).expect("warm");
    }
    let t0 = Instant::now();
    for i in 0..PAGE_TOUCHES {
        pool.with_page(hot[i % hot.len()], |b| black_box(b[0]))
            .expect("hit");
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / PAGE_TOUCHES as f64;
    // Evicted: cycling through eight times the pool under LRU means
    // every touch finds its page gone.
    let before = pool.stats();
    let t0 = Instant::now();
    for i in 0..PAGE_TOUCHES {
        pool.with_page(pages[i % pages.len()], |b| black_box(b[0]))
            .expect("miss");
    }
    let miss_ns = t0.elapsed().as_nanos() as f64 / PAGE_TOUCHES as f64;
    let misses = pool.stats().delta(&before).physical_reads;
    assert!(
        misses as usize >= PAGE_TOUCHES * 9 / 10,
        "miss probe mostly hit ({misses} of {PAGE_TOUCHES})"
    );
    (hit_ns, miss_ns)
}

/// `BufferPool::with_page` on a resident and on an evicted page, over
/// the memory and the file backend.
pub fn storage(out: &mut Outcome, tracer: &mut Tracer) {
    let work = WorkDir::new("probe-storage");
    for (label, spec) in [
        ("mem", PoolSpec::memory(POOL_FRAMES, 1)),
        (
            "file",
            PoolSpec::file(POOL_FRAMES, 1, work.path().join("probe.pages")),
        ),
    ] {
        let pool = spec.open();
        let t0 = Instant::now();
        let (hit, miss) = page_probe(&pool);
        tracer.record("storage.with_page", None, 0, t0, Instant::now());
        out.layer(&format!("storage.page_hit_ns.{label}"), hit);
        out.layer(&format!("storage.page_miss_ns.{label}"), miss);
    }
}

fn value_of(i: u64) -> Value {
    let mut v = [0u8; VALUE_LEN];
    v[..8].copy_from_slice(&i.to_le_bytes());
    v
}

/// A standalone `BPlusTree` with the cardinality of one Bx partition:
/// batched and single updates (each a delete plus an insert, as the
/// Bx-tree issues them) and a shared-sweep batched scan.
pub fn bptree(out: &mut Outcome, tracer: &mut Tracer, keys: usize, seed: u64) {
    const BATCHES: usize = 40;
    const MOVES_PER_BATCH: usize = 256;
    const SINGLES: usize = 2_000;
    const SCANS: usize = 40;
    const RANGES_PER_SCAN: usize = 32;
    const SPAN: u64 = 100;

    // Keys sit 16 apart in `hi`, like objects spread along the curve,
    // so a moved object has somewhere to go.
    let key = |i: u64| Key128::new(i * 16, i);
    let pool = PoolSpec::memory(keys / 20 + 256, 1).open();
    let mut tree = BPlusTree::bulk_load(
        Arc::clone(&pool),
        (0..keys as u64).map(|i| (key(i), value_of(i))),
    )
    .expect("bulk load probe tree");
    let mut rng = Rng::new(seed, "probe-bptree");
    // `moved[i]` is how far key i currently sits from its home slot.
    let mut moved = vec![0u64; keys];

    let mut batch_ns = Samples::new();
    for b in 0..BATCHES {
        let mut picks: Vec<u64> = (0..MOVES_PER_BATCH)
            .map(|_| rng.below(keys as u64))
            .collect();
        picks.sort_unstable();
        picks.dedup();
        let mut ops: Vec<(Key128, BatchOp)> = Vec::with_capacity(picks.len() * 2);
        for &i in &picks {
            let old = Key128::new(i * 16 + moved[i as usize], i);
            moved[i as usize] = (moved[i as usize] + 1) % 16;
            let new = Key128::new(i * 16 + moved[i as usize], i);
            ops.push((old, BatchOp::Delete));
            ops.push((new, BatchOp::Put(value_of(i))));
        }
        ops.sort_unstable_by_key(|(k, _)| *k);
        let t0 = Instant::now();
        let done = tree.apply_batch(&ops).expect("apply_batch");
        let t1 = Instant::now();
        assert_eq!(
            done.deleted + done.inserted,
            ops.len(),
            "probe batch applied"
        );
        tracer.record("bptree.apply_batch", None, b as u64, t0, t1);
        batch_ns.push((t1 - t0).as_nanos() as f64 / ops.len() as f64);
    }
    out.layer("bptree.apply_batch_ns_per_key", batch_ns.median());

    let t0 = Instant::now();
    for _ in 0..SINGLES {
        let i = rng.below(keys as u64);
        let old = Key128::new(i * 16 + moved[i as usize], i);
        moved[i as usize] = (moved[i as usize] + 1) % 16;
        let new = Key128::new(i * 16 + moved[i as usize], i);
        assert!(tree.delete(old).expect("delete"), "probe key present");
        tree.insert(new, value_of(i)).expect("insert");
    }
    let t1 = Instant::now();
    tracer.record("bptree.single_update", None, 0, t0, t1);
    out.layer(
        "bptree.single_update_ns",
        (t1 - t0).as_nanos() as f64 / SINGLES as f64,
    );

    let mut scan_ns = Samples::new();
    let mut pages = 0u64;
    for s in 0..SCANS {
        let ranges: Vec<(Key128, Key128)> = (0..RANGES_PER_SCAN)
            .map(|_| {
                let lo = rng.below(keys as u64 - SPAN);
                (Key128::new(lo * 16, 0), Key128::new((lo + SPAN) * 16, 0))
            })
            .collect();
        let before = tree.io_stats();
        let t0 = Instant::now();
        let entries = tree
            .range_scan_batch(&ranges, |r, k, v| {
                black_box((r, k, v[0]));
            })
            .expect("range_scan_batch");
        let t1 = Instant::now();
        tracer.record("bptree.scan_batch", None, s as u64, t0, t1);
        pages += tree.io_stats().delta(&before).logical_reads;
        scan_ns.push((t1 - t0).as_nanos() as f64 / entries.max(1) as f64);
    }
    out.layer("bptree.scan_batch_ns_per_entry", scan_ns.median());
    out.layer(
        "bptree.pages_per_scan",
        pages as f64 / (SCANS * RANGES_PER_SCAN) as f64,
    );
}

/// `Wal::append` + `commit` of a record the size of one partition's
/// tick batch, with an fsync per commit and without.
pub fn wal(out: &mut Outcome, tracer: &mut Tracer, dir: &Path, record_bytes: usize) {
    const COMMITS: u64 = 200;
    let payload = vec![0xA5u8; record_bytes.max(64)];
    for (name, prefix, policy) in [
        ("wal.commit_us_sync", "probe-sync", SyncPolicy::Always),
        ("wal.commit_us_nosync", "probe-nosync", SyncPolicy::Never),
    ] {
        let mut log = Wal::open(dir, prefix).expect("open probe log");
        let mut us = Samples::new();
        for seq in 1..=COMMITS {
            let t0 = Instant::now();
            log.append(seq, 3, &payload).expect("append");
            log.commit(policy).expect("commit");
            let t1 = Instant::now();
            tracer.record("wal.commit", None, seq, t0, t1);
            us.push_dur_us(t1 - t0);
        }
        out.layer(name, us.median());
    }
}

/// `Frame` world → DVA on a tick's objects.
pub fn geom(out: &mut Outcome, tracer: &mut Tracer, frame: &Frame, batch: &[MovingObject]) {
    const ROUNDS: usize = 200;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for o in batch {
            black_box(black_box(o).to_frame(frame));
        }
    }
    let t1 = Instant::now();
    tracer.record("geom.to_frame", None, 0, t0, t1);
    out.layer(
        "geom.frame_transform_ns_per_obj",
        (t1 - t0).as_nanos() as f64 / (ROUNDS * batch.len().max(1)) as f64,
    );
}

/// `Request` / `Response` `encode` / `decode`, timed directly.
pub fn codec(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ranges: &[RangeQuery],
    knns: &[KnnQuery],
    ids: &[u64],
) {
    const ROUNDS: usize = 50;
    let reqs: Vec<Request> = ranges
        .iter()
        .map(|q| Request::Range(*q))
        .chain(knns.iter().map(|q| Request::Knn(*q)))
        .collect();
    assert!(
        !reqs.is_empty() && !ids.is_empty(),
        "codec probe needs inputs"
    );

    let t0 = Instant::now();
    let mut frames = Vec::new();
    for _ in 0..ROUNDS {
        frames.clear();
        frames.extend(reqs.iter().map(|r| black_box(r).encode()));
    }
    let t1 = Instant::now();
    tracer.record("server.encode", None, 0, t0, t1);
    out.layer(
        "server.encode_ns_per_req",
        (t1 - t0).as_nanos() as f64 / (ROUNDS * reqs.len()) as f64,
    );

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for f in &frames {
            black_box(Request::decode(black_box(f)).expect("decode own frame"));
        }
    }
    let t1 = Instant::now();
    tracer.record("server.decode", None, 0, t0, t1);
    out.layer(
        "server.decode_ns_per_req",
        (t1 - t0).as_nanos() as f64 / (ROUNDS * frames.len()) as f64,
    );

    let reply = Response::Ids {
        done: true,
        ids: ids.to_vec(),
    };
    let t0 = Instant::now();
    for _ in 0..ROUNDS * 10 {
        black_box(black_box(&reply).encode());
    }
    let t1 = Instant::now();
    tracer.record("server.encode", None, 1, t0, t1);
    out.layer(
        "server.encode_ns_per_kid",
        (t1 - t0).as_nanos() as f64 / (ROUNDS * 10) as f64 / (ids.len() as f64 / 1_000.0),
    );
}
