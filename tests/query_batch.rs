//! Batched-query equivalence properties.
//!
//! The contract under test: **for any tick stream and any query
//! batch, the batched query engine answers exactly what looping the
//! single-query paths answers** — per index family (Bx and TPR\*)
//! and per query flavor (range and kNN). Plus the attributable perf
//! claim: the shared leaf sweep reads fewer pages than looped queries
//! on overlapping batches.
//!
//! The HTAP contract rides along: a [`VpSnapshot`] taken at any cut
//! point of a tick stream must answer bit-identically to the quiesced
//! index at that point — from multiple reader threads, while later
//! ticks commit underneath it on the writer thread.

use std::sync::Arc;

use proptest::prelude::*;
use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::{knn_at, knn_batch, KnnQuery, MovingObject};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

const DOMAIN: f64 = 100_000.0;

/// Two roads (0° and 90°) plus diagonal outliers.
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

fn build_bx() -> VpIndex<BxTree> {
    let cfg = VpConfig::default();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample());
    let pool = Arc::new(BufferPool::with_capacity(
        DiskManager::with_page_size(1024),
        512,
    ));
    VpIndex::build(cfg, &analysis, |spec| {
        BxTree::new(
            Arc::clone(&pool),
            BxConfig {
                domain: spec.domain,
                hist_cells: 120,
                ..BxConfig::default()
            },
        )
        .unwrap()
    })
    .unwrap()
}

fn build_tpr() -> VpIndex<TprTree> {
    let cfg = VpConfig::default();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample());
    let pool = Arc::new(BufferPool::with_capacity(
        DiskManager::with_page_size(1024),
        512,
    ));
    VpIndex::build(cfg, &analysis, |_spec| {
        TprTree::new(Arc::clone(&pool), TprConfig::default())
    })
    .unwrap()
}

/// Random tick stream: tick 0 populates, later ticks move a rotating
/// third of the fleet (half of which turn 90°, forcing partition
/// migrations) and add a fresh id per tick.
fn make_ticks(seed: u64, n_objects: u64, n_ticks: usize) -> Vec<Vec<MovingObject>> {
    let mut rng = Rng::new(seed);
    let mut objs: Vec<MovingObject> = (0..n_objects)
        .map(|id| {
            let ang = rng.f64() * std::f64::consts::TAU;
            let speed = rng.f64() * 80.0;
            MovingObject::new(
                id,
                Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
                Point::new(ang.cos() * speed, ang.sin() * speed),
                0.0,
            )
        })
        .collect();
    let mut ticks = vec![objs.clone()];
    for tick in 1..n_ticks {
        let t = tick as f64 * 10.0;
        let mut updates = Vec::new();
        for o in objs.iter_mut() {
            if o.id % 3 == (tick as u64) % 3 {
                let vel = if o.id % 2 == 0 {
                    Point::new(-o.vel.y, o.vel.x)
                } else {
                    o.vel
                };
                *o = MovingObject::new(o.id, o.position_at(t), vel, t);
                updates.push(*o);
            }
        }
        let fresh = MovingObject::new(
            10_000 + tick as u64,
            Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
            Point::new(30.0, 0.5),
            t,
        );
        objs.push(fresh);
        updates.push(fresh);
        ticks.push(updates);
    }
    ticks
}

/// Random query batch: clustered (overlapping) circles, far-away
/// probes, interval and moving queries, at mixed timestamps.
fn make_queries(seed: u64, n: usize, t_max: f64) -> Vec<RangeQuery> {
    let mut rng = Rng::new(seed);
    let hotspot = Point::new(
        20_000.0 + rng.f64() * 60_000.0,
        20_000.0 + rng.f64() * 60_000.0,
    );
    (0..n)
        .map(|qi| {
            let c = if qi % 2 == 0 {
                // Half the batch piles onto one hotspot: the shared
                // sweep's bread and butter.
                Point::new(
                    hotspot.x + rng.f64() * 4_000.0 - 2_000.0,
                    hotspot.y + rng.f64() * 4_000.0 - 2_000.0,
                )
            } else {
                Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN)
            };
            let t = (rng.next() % 5) as f64 * t_max / 5.0;
            match qi % 4 {
                0 | 1 => RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(c, 1_000.0 + rng.f64() * 6_000.0)),
                    t,
                ),
                2 => RangeQuery::time_interval(
                    QueryRegion::Rect(Rect::centered(c, 8_000.0, 5_000.0)),
                    t,
                    t + 20.0,
                ),
                _ => RangeQuery::moving(
                    QueryRegion::Circle(Circle::new(c, 3_000.0)),
                    Point::new(rng.f64() * 40.0 - 20.0, 15.0),
                    t,
                    t + 25.0,
                ),
            }
        })
        .collect()
}

/// Batched results must equal looped single-query results — and the
/// scan oracle — for every query in the batch.
fn assert_batch_equivalent<I: MovingObjectIndex>(
    vp: &VpIndex<I>,
    objects: &[MovingObject],
    queries: &[RangeQuery],
    label: &str,
) {
    let batched = vp.range_query_batch(queries).unwrap();
    assert_eq!(batched.len(), queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let mut got = batched[qi].clone();
        let mut looped = vp.range_query(q).unwrap();
        got.sort_unstable();
        looped.sort_unstable();
        assert_eq!(got, looped, "{label}: query {qi} batched != looped");
        let mut oracle: Vec<u64> = objects
            .iter()
            .filter(|o| q.matches(o))
            .map(|o| o.id)
            .collect();
        oracle.sort_unstable();
        assert_eq!(got, oracle, "{label}: query {qi} diverged from oracle");
    }
}

/// Drives one index family through the snapshot-under-ticks scenario:
/// tick to `cut`, record the quiesced answers, snapshot, then hammer
/// the snapshot from reader threads while the writer thread commits
/// the rest of the stream. Every read must be bit-identical to the
/// quiesced baseline; the baseline itself must match the scan oracle
/// at the cut point; and a fresh snapshot must track the live index.
fn check_snapshot_under_ticks<I>(
    mut vp: VpIndex<I>,
    ticks: &[Vec<MovingObject>],
    cut: usize,
    queries: &[RangeQuery],
    knn_queries: &[KnnQuery],
    domain: &Rect,
    label: &str,
) where
    I: SnapshotIndex + Send + Sync,
{
    for tick in &ticks[..cut] {
        vp.apply_updates(tick).unwrap();
    }
    let baseline = vp.range_query_batch(queries).unwrap();
    let baseline_knn = vp.knn_batch(knn_queries, domain).unwrap();

    // The quiesced baseline must itself be honest: compare against
    // the scan oracle over the prefix, so "snapshot == baseline"
    // below can't vacuously pass on a shared wrong answer.
    let at_cut = live_objects(&ticks[..cut]);
    for (qi, q) in queries.iter().enumerate() {
        let mut got = baseline[qi].clone();
        got.sort_unstable();
        let mut oracle: Vec<u64> = at_cut
            .iter()
            .filter(|o| q.matches(o))
            .map(|o| o.id)
            .collect();
        oracle.sort_unstable();
        assert_eq!(
            got, oracle,
            "{label}: query {qi} diverged from quiesced oracle"
        );
    }

    let mut snap = vp.snapshot().unwrap();
    std::thread::scope(|s| {
        for reader in 0..2 {
            let snap = &snap;
            let baseline = &baseline;
            let baseline_knn = &baseline_knn;
            s.spawn(move || {
                for round in 0..8 {
                    assert_eq!(
                        &snap.range_query_batch(queries).unwrap(),
                        baseline,
                        "{label}: reader {reader} round {round} saw a torn range read"
                    );
                    assert_eq!(
                        &snap.knn_batch(knn_queries, domain).unwrap(),
                        baseline_knn,
                        "{label}: reader {reader} round {round} saw a torn knn read"
                    );
                }
            });
        }
        // Writer: commit the rest of the stream under the readers.
        for tick in &ticks[cut..] {
            vp.apply_updates(tick).unwrap();
        }
    });

    // The snapshot outlives the concurrent ticks unchanged, and stays
    // read-only.
    assert_eq!(
        snap.range_query_batch(queries).unwrap(),
        baseline,
        "{label}: snapshot drifted after concurrent ticks"
    );
    let probe = MovingObject::new(999_999, Point::new(1.0, 1.0), Point::new(0.0, 0.0), 0.0);
    assert!(
        matches!(
            MovingObjectIndex::insert(&mut snap, probe),
            Err(IndexError::ReadOnly(_))
        ),
        "{label}: snapshot accepted a write"
    );
    drop(snap);

    // After the old epoch retires, a fresh snapshot tracks the live
    // index bit-for-bit.
    let live_range = vp.range_query_batch(queries).unwrap();
    let live_knn = vp.knn_batch(knn_queries, domain).unwrap();
    let snap2 = vp.snapshot().unwrap();
    assert_eq!(
        snap2.range_query_batch(queries).unwrap(),
        live_range,
        "{label}: fresh snapshot diverged from live range answers"
    );
    assert_eq!(
        snap2.knn_batch(knn_queries, domain).unwrap(),
        live_knn,
        "{label}: fresh snapshot diverged from live knn answers"
    );
}

/// The live fleet after a tick stream (last write per id wins).
fn live_objects(ticks: &[Vec<MovingObject>]) -> Vec<MovingObject> {
    let mut last = std::collections::BTreeMap::new();
    for tick in ticks {
        for o in tick {
            last.insert(o.id, *o);
        }
    }
    last.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random tick streams, then a random query batch: batched ==
    /// looped == oracle for both index families.
    #[test]
    fn batched_range_queries_match_looped_and_oracle(
        seed in 1u64..1_000_000,
        n_ticks in 2usize..5,
        n_queries in 1usize..24,
    ) {
        let ticks = make_ticks(seed, 250, n_ticks);
        let t_max = (n_ticks - 1) as f64 * 10.0;
        let queries = make_queries(seed ^ 0xABCD, n_queries, t_max + 30.0);
        let objects = live_objects(&ticks);

        let mut bx = build_bx();
        let mut tpr = build_tpr();
        for tick in &ticks {
            bx.apply_updates(tick).unwrap();
            tpr.apply_updates(tick).unwrap();
        }

        assert_batch_equivalent(&bx, &objects, &queries, "bx");
        assert_batch_equivalent(&tpr, &objects, &queries, "tpr");
    }

    /// Tentpole guard (HTAP mode): for random tick streams and a
    /// random cut point, snapshot reads from concurrent reader
    /// threads are bit-identical to the quiesced oracle while the
    /// writer thread commits the rest of the stream — on both index
    /// families — and the snapshot rejects writes.
    #[test]
    fn snapshot_readers_race_concurrent_ticks(
        seed in 1u64..1_000_000,
        n_ticks in 3usize..6,
        n_queries in 4usize..14,
    ) {
        let ticks = make_ticks(seed, 200, n_ticks);
        let cut = 1 + (seed as usize) % (n_ticks - 1);
        let t_max = (n_ticks - 1) as f64 * 10.0;
        let queries = make_queries(seed ^ 0x5EED, n_queries, t_max + 30.0);
        let domain = Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN);
        let mut rng = Rng::new(seed ^ 0x77);
        let knn_queries: Vec<KnnQuery> = (0..4)
            .map(|i| KnnQuery {
                center: Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
                k: 1 + (i % 6),
                t: t_max,
            })
            .collect();

        check_snapshot_under_ticks(build_bx(), &ticks, cut, &queries, &knn_queries, &domain, "bx");
        check_snapshot_under_ticks(build_tpr(), &ticks, cut, &queries, &knn_queries, &domain, "tpr");
    }

    /// Incremental batched kNN == looped incremental kNN == brute
    /// force, on both families.
    #[test]
    fn batched_knn_matches_looped_and_brute_force(
        seed in 1u64..1_000_000,
        n_ticks in 2usize..4,
        n_knn in 1usize..10,
    ) {
        let ticks = make_ticks(seed, 220, n_ticks);
        let t_max = (n_ticks - 1) as f64 * 10.0;
        let objects = live_objects(&ticks);
        let domain = Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN);
        let mut rng = Rng::new(seed ^ 0x1313);
        let knn_queries: Vec<KnnQuery> = (0..n_knn)
            .map(|i| KnnQuery {
                center: Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
                k: 1 + (i % 8),
                t: t_max + (rng.next() % 4) as f64 * 10.0,
            })
            .collect();

        let mut bx = build_bx();
        let mut tpr = build_tpr();
        for tick in &ticks {
            bx.apply_updates(tick).unwrap();
            tpr.apply_updates(tick).unwrap();
        }

        let bx_batch = bx.knn_batch(&knn_queries, &domain).unwrap();
        let tpr_batch = tpr.knn_batch(&knn_queries, &domain).unwrap();
        // The free function answers as the method does.
        prop_assert_eq!(
            &tpr_batch,
            &knn_batch(&tpr, &knn_queries, &domain).unwrap(),
            "tpr knn batch diverged from the free function"
        );

        for (i, q) in knn_queries.iter().enumerate() {
            // Brute force at q.t.
            let mut want: Vec<(u64, f64)> = objects
                .iter()
                .map(|o| (o.id, o.position_at(q.t).dist(q.center)))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            want.truncate(q.k);

            for (family, got) in [("bx", &bx_batch[i]), ("tpr", &tpr_batch[i])] {
                prop_assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    want.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                    "{} knn query {} diverged from brute force", family, i
                );
            }
            // And the batch equals looping knn_at.
            prop_assert_eq!(
                &bx_batch[i],
                &knn_at(&bx, q.center, q.k, q.t, &domain).unwrap(),
                "bx knn batch vs looped, query {}", i
            );
        }
    }
}

/// The attributable perf claim of the shared sweep: an overlapping
/// query batch must read fewer pages than the same queries looped,
/// for both families.
#[test]
fn shared_sweep_reads_fewer_pages_on_overlapping_batches() {
    let ticks = make_ticks(0xFEED5, 2_000, 3);
    let queries = make_queries(0x0715, 48, 40.0);
    let mut bx = build_bx();
    let mut tpr = build_tpr();
    for tick in &ticks {
        bx.apply_updates(tick).unwrap();
        tpr.apply_updates(tick).unwrap();
    }
    for (label, vp) in [
        ("bx", &bx as &dyn MovingObjectIndex),
        ("tpr", &tpr as &dyn MovingObjectIndex),
    ] {
        vp.reset_io_stats();
        let batched = vp.range_query_batch(&queries).unwrap();
        let batched_reads = vp.io_stats().logical_reads;

        vp.reset_io_stats();
        let looped: Vec<Vec<u64>> = queries.iter().map(|q| vp.range_query(q).unwrap()).collect();
        let looped_reads = vp.io_stats().logical_reads;

        for (qi, (a, b)) in batched.iter().zip(&looped).enumerate() {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{label}: query {qi}");
        }
        assert!(
            batched_reads < looped_reads,
            "{label}: shared sweep should read fewer pages: \
             {batched_reads} batched vs {looped_reads} looped"
        );
    }
}

/// Snapshot reads are tallied on the snapshot: the same range and kNN
/// batches cost a fresh snapshot exactly the logical page reads they
/// cost the quiesced live index, and leave the live counters alone.
#[test]
fn snapshot_page_counts_match_the_quiesced_live_index() {
    fn check<I: SnapshotIndex>(label: &str, mut vp: VpIndex<I>) {
        for tick in &make_ticks(0xC0DE, 2_000, 3) {
            vp.apply_updates(tick).unwrap();
        }
        let ranges = make_queries(0x0715, 48, 40.0);
        let domain = Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN);
        let mut rng = Rng::new(0x1313);
        let knns: Vec<KnnQuery> = (0..12)
            .map(|i| KnnQuery {
                center: Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
                k: 1 + i % 8,
                t: 20.0,
            })
            .collect();

        let snap = vp.snapshot().unwrap();
        assert_eq!(snap.io_stats(), IoStats::zero(), "{label}: fresh snapshot");

        vp.reset_io_stats();
        let live_ranges = vp.range_query_batch(&ranges).unwrap();
        let live_knn = vp.knn_batch(&knns, &domain).unwrap();
        let live = vp.io_stats();
        assert!(live.logical_reads > 0, "{label}: the batches read pages");

        assert_eq!(snap.range_query_batch(&ranges).unwrap(), live_ranges);
        assert_eq!(snap.knn_batch(&knns, &domain).unwrap(), live_knn);
        let tally = snap.io_stats();
        assert_eq!(
            tally.logical_reads, live.logical_reads,
            "{label}: snapshot vs live logical page reads"
        );
        assert_eq!((tally.logical_writes, tally.physical_writes), (0, 0));
        assert_eq!(vp.io_stats(), live, "{label}: live counters untouched");

        // The single-query paths too: every range alone, then one kNN
        // probe chain (probe n covered by probe n - 1).
        let probes: Vec<RangeQuery> = (0..4)
            .map(|n| {
                let c = Circle::new(
                    Point::new(DOMAIN / 2.0, DOMAIN / 2.0),
                    1_500.0 * 2f64.powi(n),
                );
                RangeQuery::time_slice(QueryRegion::Circle(c), 20.0)
            })
            .collect();
        fn singles<X: MovingObjectIndex>(
            x: &X,
            ranges: &[RangeQuery],
            probes: &[RangeQuery],
        ) -> Vec<Vec<ObjectId>> {
            let mut out: Vec<Vec<ObjectId>> =
                ranges.iter().map(|q| x.range_query(q).unwrap()).collect();
            for (n, probe) in probes.iter().enumerate() {
                let covered = n.checked_sub(1).map(|c| &probes[c]);
                out.push(x.knn_candidates(probe, covered).unwrap());
            }
            out
        }
        let live_singles = singles(&vp, &ranges, &probes);
        let live_reads = vp.io_stats().logical_reads - live.logical_reads;
        assert!(live_reads > 0, "{label}: the single queries read pages");
        assert_eq!(
            singles(&snap, &ranges, &probes),
            live_singles,
            "{label}: single-query ids"
        );
        assert_eq!(
            snap.io_stats().logical_reads - tally.logical_reads,
            live_reads,
            "{label}: single-query logical page reads, snapshot vs live"
        );
    }
    check("bx", build_bx());
    check("tpr", build_tpr());
}
