//! Seeded property test: the TPR\*-tree's two overflow rules are
//! observationally equivalent.
//!
//! Every write is a pass of one engine. For **random tick streams** —
//! moves, direction turns, fresh insertions, batch deletions,
//! duplicate ids within one batch — a tree maintained through
//! `update_batch` / `remove_batch` (group passes that re-cluster every
//! overflow) must answer every range and kNN query exactly like a twin
//! maintained through looped `insert` / `update` / `delete` (passes of
//! one under the R\* rule, which force-reinserts). Tree *shapes*
//! legitimately differ; query answers, contents, and structural
//! invariants must not.

use proptest::prelude::*;
use vp_core::{knn_at, MovingObject, MovingObjectIndex, QueryRegion, RangeQuery};
use vp_geom::{Circle, Point, Rect};
use vp_storage::{BufferPool, DiskManager};
use vp_tpr::{TprConfig, TprTree};

use std::sync::Arc;

const DOMAIN: f64 = 10_000.0;

/// Deterministic xorshift stream (the shared idiom of this
/// workspace's tests).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x % 1_000_000) as f64 / 1_000_000.0
    }
}

fn tree() -> TprTree {
    // 512-byte pages: 10 leaf entries, 6 internal entries — small
    // fanout exercises multi-way splits and underflow repair with few
    // objects.
    let pool = Arc::new(BufferPool::with_capacity(
        DiskManager::with_page_size(512),
        64,
    ));
    TprTree::new(pool, TprConfig::default())
}

fn random_object(id: u64, t: f64, rng: &mut Rng) -> MovingObject {
    let pos = Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN);
    let ang = rng.next() * std::f64::consts::TAU;
    let speed = rng.next() * 90.0;
    MovingObject::new(id, pos, Point::new(ang.cos() * speed, ang.sin() * speed), t)
}

/// Every observable of the two trees must agree: size, per-object
/// state, a spread of range queries, kNN answers, and the batched
/// tree's structural invariants.
fn assert_equivalent(batched: &TprTree, oracle: &TprTree, t: f64, rng: &mut Rng, ctx: &str) {
    assert_eq!(batched.len(), oracle.len(), "{ctx}: len diverged");
    batched
        .check_invariants()
        .unwrap()
        .unwrap_or_else(|e| panic!("{ctx}: invariant violated: {e}"));
    let domain = Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN);
    for qi in 0..6 {
        let c = Point::new(rng.next() * DOMAIN, rng.next() * DOMAIN);
        let q = if qi % 2 == 0 {
            RangeQuery::time_slice(
                QueryRegion::Circle(Circle::new(c, 300.0 + rng.next() * 1_500.0)),
                t + qi as f64 * 10.0,
            )
        } else {
            RangeQuery::time_interval(
                QueryRegion::Rect(Rect::centered(c, 900.0, 700.0)),
                t,
                t + 40.0,
            )
        };
        let mut a = batched.range_query(&q).unwrap();
        let mut b = oracle.range_query(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{ctx}: range query {qi} diverged");
        let k = 1 + (qi * 5) % 16;
        let a = knn_at(batched, c, k, t, &domain).unwrap();
        let b = knn_at(oracle, c, k, t, &domain).unwrap();
        assert_eq!(a, b, "{ctx}: {k}-NN at {c:?} diverged");
    }
}

fn run_stream(seed: u64, n: usize, ticks: usize) {
    let mut rng = Rng(seed | 1);
    let mut batched = tree();
    let mut oracle = tree();

    // Seed population: the batched twin loads it through one
    // update_batch on an empty tree (the bulk re-clustering path).
    let mut live: Vec<MovingObject> = (0..n as u64)
        .map(|id| random_object(id, 0.0, &mut rng))
        .collect();
    batched.update_batch(&live).unwrap();
    for o in &live {
        oracle.insert(*o).unwrap();
    }
    let mut next_id = n as u64;
    assert_equivalent(&batched, &oracle, 0.0, &mut rng, "after load");

    for tick in 1..=ticks {
        let t = tick as f64 * 15.0;

        // Movers: about a third of the population reports; half of
        // those turn 90 degrees (stressing velocity re-clustering).
        let mut updates = Vec::new();
        let mut stale = None;
        for o in live.iter_mut() {
            if (o.id.wrapping_add(tick as u64)) % 3 == 0 {
                if stale.is_none() {
                    stale = Some(*o);
                }
                let vel = if o.id % 2 == 0 {
                    Point::new(-o.vel.y, o.vel.x)
                } else {
                    o.vel
                };
                *o = MovingObject::new(o.id, o.position_at(t), vel, t);
                updates.push(*o);
            }
        }
        // A duplicate id inside the batch: the stale pre-tick state
        // rides first; the fresh update must win.
        if let Some(stale) = stale {
            updates.insert(0, stale);
        }
        // A few brand-new ids exercise the upsert path.
        for _ in 0..(1 + (rng.next() * 4.0) as usize) {
            let fresh = random_object(next_id, t, &mut rng);
            next_id += 1;
            updates.push(fresh);
            live.push(fresh);
        }

        batched.update_batch(&updates).unwrap();
        for u in &updates {
            if oracle.get_object(u.id).unwrap().is_some() {
                oracle.update(*u).unwrap();
            } else {
                oracle.insert(*u).unwrap();
            }
        }
        for o in &live {
            assert_eq!(
                batched.get_object(o.id).unwrap(),
                oracle.get_object(o.id).unwrap(),
                "tick {tick}: object {} state diverged",
                o.id
            );
        }
        assert_equivalent(
            &batched,
            &oracle,
            t,
            &mut rng,
            &format!("tick {tick} updates"),
        );

        // Batched deletion of roughly a seventh of the population.
        let doomed: Vec<u64> = live
            .iter()
            .map(|o| o.id)
            .filter(|id| (id.wrapping_mul(31).wrapping_add(tick as u64)) % 7 == 0)
            .collect();
        if !doomed.is_empty() {
            batched.remove_batch(&doomed).unwrap();
            for &id in &doomed {
                oracle.delete(id).unwrap();
            }
            live.retain(|o| !doomed.contains(&o.id));
        }
        assert_equivalent(
            &batched,
            &oracle,
            t,
            &mut rng,
            &format!("tick {tick} removals"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tick streams against the single-op oracle.
    #[test]
    fn star_batched_ticks_match_single_op_oracle(
        seed in 0u64..u64::MAX,
        n in 40usize..180,
        ticks in 1usize..5,
    ) {
        run_stream(seed, n, ticks);
    }
}
