//! Seeded inputs: fleets, query mixes and tick batches.
//!
//! Everything here is a pure function of `--seed`; the product crates
//! only ever see what these functions generate.

use vp_core::{KnnQuery, MovingObject, QueryRegion, RangeQuery};
use vp_geom::{Circle, Point, Rect, Vec2};
use vp_workload::{Dataset, Workload, WorkloadConfig};

use crate::util::Rng;

/// Side of the square data domain, metres (paper Table 1).
pub const DOMAIN: f64 = 100_000.0;
/// Objects faster than this are not generated (paper default).
pub const MAX_SPEED: f64 = 100.0;
/// Simulated time between two ticks of a tick-driven workload.
pub const TICK_DT: f64 = 0.25;

pub fn domain() -> Rect {
    Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN)
}

/// The paper's Chicago road-network trace (Section 6 default cell):
/// `n` objects, max speed 100, max update interval 120, `duration`
/// timestamps, `queries` circular r = 500 m time-slice queries 60 ts
/// ahead.
pub fn paper_trace(seed: u64, n: usize, duration: f64, queries: usize) -> Workload {
    Workload::generate(
        Dataset::Chicago,
        &WorkloadConfig {
            n_objects: n,
            max_speed: MAX_SPEED,
            duration,
            max_update_interval: 120.0,
            n_queries: queries,
            seed,
            ..WorkloadConfig::default()
        },
    )
}

/// A fleet at time 0 on the Chicago road network: the trace
/// generator's initial placement, no movement simulated.
pub fn fleet(seed: u64, n: usize) -> Vec<MovingObject> {
    paper_trace(seed, n, 0.0, 0).initial
}

/// Four busy districts most queries and all subscriptions sit on.
pub fn hotspots(seed: u64) -> [Point; 4] {
    let mut rng = Rng::new(seed, "hotspots");
    std::array::from_fn(|_| {
        Point::new(rng.range(20_000.0, 80_000.0), rng.range(20_000.0, 80_000.0))
    })
}

/// A query centre: 70 % within 4 km of a hotspot, 30 % anywhere.
fn centre(rng: &mut Rng, hot: &[Point; 4]) -> Point {
    if rng.chance(0.7) {
        let h = hot[rng.below(4) as usize];
        Point::new(
            (h.x + rng.range(-4_000.0, 4_000.0)).clamp(0.0, DOMAIN),
            (h.y + rng.range(-4_000.0, 4_000.0)).clamp(0.0, DOMAIN),
        )
    } else {
        Point::new(rng.range(0.0, DOMAIN), rng.range(0.0, DOMAIN))
    }
}

/// One request of the `interactive` class.
#[derive(Debug, Clone, Copy)]
pub enum Interactive {
    Range(RangeQuery),
    Knn(KnnQuery),
}

/// The `interactive` mix: 75 % range (r in [300, 800] m, time slice),
/// 25 % kNN (k = 10); query time `now + [0, 60]`.
pub fn interactive(rng: &mut Rng, hot: &[Point; 4], now: f64) -> Interactive {
    let c = centre(rng, hot);
    let t = now + rng.range(0.0, 60.0);
    if rng.chance(0.25) {
        Interactive::Knn(KnnQuery {
            center: c,
            k: 10,
            t,
        })
    } else {
        let r = rng.range(300.0, 800.0);
        Interactive::Range(RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(c, r)),
            t,
        ))
    }
}

/// Radius of the `scan` class: a circle holding about an eighth of the
/// fleet, so most replies exceed the server's `max_frame` ids and are
/// chunk-streamed.
pub const SCAN_RADIUS: f64 = 20_000.0;

/// The `scan` class: one wide time-slice range on a hotspot —
/// thousands of ids.
pub fn scan(rng: &mut Rng, hot: &[Point; 4], now: f64) -> RangeQuery {
    let h = hot[rng.below(4) as usize];
    RangeQuery::time_slice(
        QueryRegion::Circle(Circle::new(h, SCAN_RADIUS)),
        now + rng.range(0.0, 60.0),
    )
}

/// A read batch for the engine: `n` hotspot-skewed range queries
/// mixing time-slice (4 in 6), moving (1 in 6) and interval (1 in 6)
/// flavours, all starting at or after `now`.
pub fn range_batch(rng: &mut Rng, hot: &[Point; 4], now: f64, n: usize) -> Vec<RangeQuery> {
    (0..n)
        .map(|qi| {
            let c = centre(rng, hot);
            let r = rng.range(300.0, 800.0);
            let t = now + rng.range(0.0, 40.0);
            match qi % 6 {
                5 => RangeQuery::time_interval(
                    QueryRegion::Rect(Rect::centered(c, r, r * 0.7)),
                    t,
                    t + 20.0,
                ),
                4 => RangeQuery::moving(
                    QueryRegion::Circle(Circle::new(c, r)),
                    Vec2::new(rng.range(-15.0, 15.0), 10.0),
                    t,
                    t + 20.0,
                ),
                _ => RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, r)), t),
            }
        })
        .collect()
}

/// `n` kNN queries (k = 10) on the same centres distribution.
pub fn knn_batch(rng: &mut Rng, hot: &[Point; 4], now: f64, n: usize) -> Vec<KnnQuery> {
    (0..n)
        .map(|_| KnnQuery {
            center: centre(rng, hot),
            k: 10,
            t: now + rng.range(0.0, 40.0),
        })
        .collect()
}

/// A fleet that re-reports in rotating slices.
///
/// Each tick re-reports the next `per_tick` objects at the tick's
/// time: position advanced along the old trajectory (reflected at the
/// domain border, with the velocity component reversed), velocity kept
/// — except that `turn_share` of them turn 90°, which on a road grid
/// moves them to the other dominant axis and so to another partition.
pub struct Ticker {
    fleet: Vec<MovingObject>,
    cursor: usize,
    tick: u64,
    rng: Rng,
    per_tick: usize,
    turn_share: f64,
}

impl Ticker {
    pub fn new(seed: u64, fleet: Vec<MovingObject>, per_tick: usize) -> Ticker {
        Ticker {
            per_tick: per_tick.min(fleet.len()),
            fleet,
            cursor: 0,
            tick: 0,
            rng: Rng::new(seed, "ticker"),
            turn_share: 0.10,
        }
    }

    /// Simulated time of tick number `i` (the first tick is 1).
    pub fn time_of(i: u64) -> f64 {
        i as f64 * TICK_DT
    }

    /// The next tick's batch.
    pub fn next_batch(&mut self) -> Vec<MovingObject> {
        self.tick += 1;
        let t = Ticker::time_of(self.tick);
        let n = self.fleet.len();
        let mut batch = Vec::with_capacity(self.per_tick);
        for k in 0..self.per_tick {
            let o = &mut self.fleet[(self.cursor + k) % n];
            let mut pos = o.position_at(t);
            let mut vel = o.vel;
            if pos.x < 0.0 || pos.x > DOMAIN {
                pos.x = pos.x.clamp(0.0, DOMAIN);
                vel.x = -vel.x;
            }
            if pos.y < 0.0 || pos.y > DOMAIN {
                pos.y = pos.y.clamp(0.0, DOMAIN);
                vel.y = -vel.y;
            }
            if self.rng.chance(self.turn_share) {
                vel = Vec2::new(-vel.y, vel.x);
            }
            *o = MovingObject::new(o.id, pos, vel, t);
            batch.push(*o);
        }
        self.cursor = (self.cursor + self.per_tick) % n;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_every_generator() {
        let a = fleet(1, 200);
        assert_eq!(a, fleet(1, 200));
        assert_ne!(a, fleet(2, 200));
        assert_ne!(hotspots(1), hotspots(2));
        let hot = hotspots(1);
        let q = |seed| {
            let mut r = Rng::new(seed, "q");
            format!("{:?}", range_batch(&mut r, &hot, 3.0, 12))
        };
        assert_eq!(q(1), q(1));
        assert_ne!(q(1), q(2));
    }

    #[test]
    fn ticker_rotates_stays_in_domain_and_turns_some() {
        let f = fleet(3, 500);
        let mut last = f.clone();
        let mut t = Ticker::new(3, f, 100);
        let mut turned = 0;
        for round in 1..=40u64 {
            let batch = t.next_batch();
            assert_eq!(batch.len(), 100);
            for o in &batch {
                assert_eq!(o.ref_time, Ticker::time_of(round));
                assert!((0.0..=DOMAIN).contains(&o.pos.x) && (0.0..=DOMAIN).contains(&o.pos.y));
                let old = std::mem::replace(&mut last[o.id as usize], *o);
                let dot = o.vel.x * old.vel.x + o.vel.y * old.vel.y;
                if dot.abs() < 1e-6 * old.speed().max(1.0) {
                    turned += 1;
                }
            }
        }
        // 4 000 re-reports, 10 % of them turning 90 degrees.
        assert!((250..=550).contains(&turned), "turned {turned}");
    }

    #[test]
    fn queries_never_look_into_the_past() {
        let hot = hotspots(5);
        let mut r = Rng::new(5, "q");
        for q in range_batch(&mut r, &hot, 7.5, 60) {
            assert!(q.t_start >= 7.5 && q.t_end >= q.t_start);
        }
        for _ in 0..100 {
            match interactive(&mut r, &hot, 2.0) {
                Interactive::Range(q) => assert!(q.t_start >= 2.0),
                Interactive::Knn(q) => assert!(q.t >= 2.0 && q.k == 10),
            }
        }
    }
}
