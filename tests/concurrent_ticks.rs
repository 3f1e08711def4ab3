//! Tick application against a `BTreeMap` oracle.
//!
//! `VpIndex::apply_updates` buckets a tick per partition and applies
//! each partition's removals and upserts over the sharded buffer pool.
//! Ticks move, turn (migrating objects between partitions) and insert;
//! after each one the stored objects, range queries and kNN must
//! answer exactly what the oracle does.

use std::collections::BTreeMap;
use std::sync::Arc;

use vp_bx::{BxConfig, BxTree};
use vp_core::{
    knn_at, MovingObject, MovingObjectIndex, ObjectId, QueryRegion, RangeQuery, VelocityAnalyzer,
    VpConfig, VpIndex,
};
use vp_geom::{Circle, Point, Rect};
use vp_storage::{BufferPool, DiskManager, DEFAULT_POOL_SHARDS};

const DOMAIN: f64 = 100_000.0;

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn next(&mut self) -> f64 {
        (self.next_u64() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// A velocity clustered on one of four road directions, plus a few
/// fast diagonal outliers — gives the analyzer clear DVAs so ticks
/// touch every partition including the outlier one.
fn road_velocity(rng: &mut Rng) -> Point {
    if rng.next() < 0.03 {
        let s = 90.0 + rng.next() * 30.0;
        return Point::new(s, s * (0.4 + rng.next()));
    }
    let ang = (rng.next_u64() % 4) as f64 * std::f64::consts::FRAC_PI_4;
    let speed = (10.0 + rng.next() * 50.0) * if rng.next() < 0.5 { 1.0 } else { -1.0 };
    Point::new(ang.cos() * speed, ang.sin() * speed)
}

fn initial_objects(rng: &mut Rng, n: usize) -> Vec<MovingObject> {
    (0..n as u64)
        .map(|id| {
            MovingObject::new(
                id,
                Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN),
                road_velocity(rng),
                0.0,
            )
        })
        .collect()
}

/// Builds a velocity-partitioned Bx-tree over its own sharded pool.
fn build_vp(sample: &[Point], pool_pages: usize) -> VpIndex<BxTree> {
    let cfg = VpConfig {
        k: 2,
        sample_size: sample.len(),
        ..VpConfig::default()
    };
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(sample);
    let pool = Arc::new(BufferPool::with_shards(
        DiskManager::new(),
        pool_pages,
        DEFAULT_POOL_SHARDS,
    ));
    VpIndex::build(cfg, &analysis, |spec| {
        BxTree::new(
            Arc::clone(&pool),
            BxConfig {
                domain: spec.domain,
                // Coarse grid/histogram: full-domain check queries in
                // these tests visit every qualifying cell, and debug
                // builds pay for each one.
                lambda: 6,
                hist_cells: 64,
                ..BxConfig::default()
            },
        )
        .expect("bx sub-index")
    })
    .expect("vp index")
}

/// One tick: a rotating third of the population advances (some turning
/// 90°, which migrates partitions), plus a couple of brand-new ids.
fn make_tick(objs: &mut Vec<MovingObject>, rng: &mut Rng, tick: u64, t: f64) -> Vec<MovingObject> {
    let mut updates = Vec::new();
    for o in objs.iter_mut() {
        if o.id % 3 == tick % 3 {
            let vel = if o.id % 5 == tick % 5 {
                Point::new(-o.vel.y, o.vel.x)
            } else {
                o.vel
            };
            *o = MovingObject::new(o.id, o.position_at(t), vel, t);
            updates.push(*o);
        }
    }
    for extra in 0..2 {
        let fresh = MovingObject::new(
            100_000 + tick * 10 + extra,
            Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN),
            road_velocity(rng),
            t,
        );
        updates.push(fresh);
        objs.push(fresh);
    }
    updates
}

fn sorted_query(vp: &VpIndex<BxTree>, q: &RangeQuery) -> Vec<ObjectId> {
    let mut ids = vp.range_query(q).unwrap();
    ids.sort_unstable();
    ids
}

#[test]
fn parallel_ticks_match_btreemap_oracle() {
    let mut rng = Rng::new(0xC0FFEE);
    let mut objs = initial_objects(&mut rng, 800);
    let sample: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let mut vp = build_vp(&sample, 4_096);
    let mut oracle: BTreeMap<ObjectId, MovingObject> = BTreeMap::new();

    let first_tick: Vec<MovingObject> = objs.clone();
    for u in &first_tick {
        oracle.insert(u.id, *u);
    }
    vp.apply_updates(&first_tick).unwrap();

    for tick in 1..=6u64 {
        let t = tick as f64 * 20.0;
        let updates = make_tick(&mut objs, &mut rng, tick, t);
        for u in &updates {
            oracle.insert(u.id, *u);
        }
        vp.apply_updates(&updates).unwrap();

        assert_eq!(vp.len(), oracle.len(), "tick {tick}");
        for (&id, want) in &oracle {
            assert_eq!(
                vp.get_object(id).unwrap(),
                Some(*want),
                "tick {tick}: object {id} state diverged"
            );
        }

        // Range queries against the oracle's exact predicate.
        for qi in 0..5 {
            let center = Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN);
            let q = RangeQuery::time_slice(
                QueryRegion::Circle(Circle::new(center, 8_000.0)),
                t + qi as f64,
            );
            let want: Vec<ObjectId> = oracle
                .values()
                .filter(|o| q.matches(o))
                .map(|o| o.id)
                .collect();
            assert_eq!(
                sorted_query(&vp, &q),
                want,
                "tick {tick} query {qi} diverged from oracle"
            );
        }

        // kNN against the oracle's brute-force nearest set.
        let center = Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN);
        let domain = Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN);
        let got = knn_at(&vp, center, 10, t, &domain).unwrap();
        let mut brute: Vec<(f64, ObjectId)> = oracle
            .values()
            .map(|o| (o.position_at(t).dist(center), o.id))
            .collect();
        brute.sort_by(|x, y| x.0.total_cmp(&y.0));
        let want_ids: Vec<ObjectId> = brute.iter().take(10).map(|&(_, id)| id).collect();
        let got_ids: Vec<ObjectId> = got.iter().map(|n| n.id).collect();
        assert_eq!(got_ids, want_ids, "tick {tick}: kNN diverged from oracle");
    }
}
