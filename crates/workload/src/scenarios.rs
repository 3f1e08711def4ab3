//! Tick-structured scenario generators for standing-query workloads.
//!
//! The [`generator`](crate::generator) module reproduces the paper's
//! *benchmark* traces (time-sorted update/query event streams). The
//! subscription engine instead consumes whole **ticks** — atomic
//! batches of re-reports — and cares about *where the action is*:
//! events per tick are driven by how much of the population churns
//! near the registered regions. The three scenarios here are the
//! ROADMAP's named workload shapes:
//!
//! * [`ScenarioKind::Hotspot`] — a skewed steady state: most objects
//!   orbit a handful of fixed attraction centers, the rest drift
//!   uniformly. Subscriptions on the centers see high churn;
//!   elsewhere, near none.
//! * [`ScenarioKind::FlashCrowd`] — a non-stationary ramp: objects
//!   start uniform, and tick by tick a growing fraction turns toward
//!   one rally point, so density (and event rate) there explodes over
//!   the run.
//! * [`ScenarioKind::RoadGrid`] — road-network-like correlated
//!   velocities: objects ride an axis-aligned grid of roads, so the
//!   velocity distribution concentrates on two dominant directions
//!   (the shape velocity partitioning exploits).
//!
//! Traces are fully materialized and deterministic per seed: tick 0
//! is the initial population (reference time 0), tick `i` re-reports
//! every object at time `i × tick_interval`. Each scenario also
//! suggests [`focus`](ScenarioTrace::focus) points — the natural
//! places to register subscriptions (hotspot centers, the rally
//! point, busy junctions).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vp_core::MovingObject;
use vp_geom::{Point, Rect};

/// Which workload shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Skewed steady state around fixed attraction centers.
    Hotspot,
    /// Population converging on one rally point over the run.
    FlashCrowd,
    /// Axis-aligned road grid with two dominant travel directions.
    RoadGrid,
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioKind::Hotspot => write!(f, "hotspot"),
            ScenarioKind::FlashCrowd => write!(f, "flash-crowd"),
            ScenarioKind::RoadGrid => write!(f, "road-grid"),
        }
    }
}

/// Generation parameters (defaults sized for tests; benches scale up).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Population size.
    pub n_objects: usize,
    /// Number of re-report ticks after the initial population.
    pub n_ticks: usize,
    /// Timestamps between consecutive ticks.
    pub tick_interval: f64,
    /// Maximum object speed in units/ts.
    pub max_speed: f64,
    /// Master seed; same seed → byte-identical trace.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_objects: 2_000,
            n_ticks: 10,
            tick_interval: 10.0,
            max_speed: 100.0,
            seed: 0x5CEA7,
        }
    }
}

/// A fully materialized scenario trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// The shape this trace was generated from.
    pub kind: ScenarioKind,
    /// The data domain every position stays inside.
    pub domain: Rect,
    /// `ticks[0]`: the initial population at reference time 0;
    /// `ticks[i]`: every object's re-report at time
    /// `i × tick_interval`. Each batch is ascending by object id.
    pub ticks: Vec<Vec<MovingObject>>,
    /// Where the action is — suggested subscription centers.
    pub focus: Vec<Point>,
}

impl ScenarioTrace {
    /// The time of tick `i` under the config that produced this trace.
    pub fn tick_time(&self, i: usize) -> f64 {
        self.ticks
            .get(i)
            .and_then(|b| b.first())
            .map_or(0.0, |o| o.ref_time)
    }
}

const DOMAIN_SIDE: f64 = 100_000.0;
/// Fraction of the hotspot population bound to a center.
const HOTSPOT_CLUSTERED: f64 = 0.7;
const HOTSPOT_CENTERS: usize = 4;

/// Generates the trace for one scenario shape.
pub fn generate(kind: ScenarioKind, cfg: &ScenarioConfig) -> ScenarioTrace {
    let domain = Rect::from_bounds(0.0, 0.0, DOMAIN_SIDE, DOMAIN_SIDE);
    match kind {
        ScenarioKind::Hotspot => hotspot(cfg, domain),
        ScenarioKind::FlashCrowd => flash_crowd(cfg, domain),
        ScenarioKind::RoadGrid => road_grid(cfg, domain),
    }
}

/// ~N(0,1) from three uniforms (Irwin–Hall, rescaled) — close enough
/// for cluster shapes and cheap in the rand shim.
fn gaussish(rng: &mut StdRng) -> f64 {
    let s: f64 =
        rng.random_range(0.0..1.0) + rng.random_range(0.0..1.0) + rng.random_range(0.0..1.0);
    (s - 1.5) * 2.0
}

fn clamp_to(domain: &Rect, p: Point) -> Point {
    Point::new(
        p.x.clamp(domain.lo.x, domain.hi.x),
        p.y.clamp(domain.lo.y, domain.hi.y),
    )
}

fn hotspot(cfg: &ScenarioConfig, domain: Rect) -> ScenarioTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1407_5707);
    let side = domain.hi.x - domain.lo.x;
    // Fixed centers on a deterministic diagonal-ish layout.
    let focus: Vec<Point> = (0..HOTSPOT_CENTERS)
        .map(|i| {
            Point::new(
                domain.lo.x + side * (0.2 + 0.6 * i as f64 / (HOTSPOT_CENTERS - 1) as f64),
                domain.lo.y + side * (0.8 - 0.6 * i as f64 / (HOTSPOT_CENTERS - 1) as f64),
            )
        })
        .collect();
    let sigma = side * 0.03;
    let n_clustered = (cfg.n_objects as f64 * HOTSPOT_CLUSTERED) as usize;

    // Per-object home: Some(center) for clustered, None for drifters.
    let homes: Vec<Option<Point>> = (0..cfg.n_objects)
        .map(|i| {
            if i < n_clustered {
                Some(focus[rng.random_range(0..focus.len())])
            } else {
                None
            }
        })
        .collect();

    let mut positions: Vec<Point> = homes
        .iter()
        .map(|home| match home {
            Some(c) => clamp_to(
                &domain,
                Point::new(
                    c.x + gaussish(&mut rng) * sigma,
                    c.y + gaussish(&mut rng) * sigma,
                ),
            ),
            None => Point::new(
                rng.random_range(domain.lo.x..=domain.hi.x),
                rng.random_range(domain.lo.y..=domain.hi.y),
            ),
        })
        .collect();

    let mut ticks: Vec<Vec<MovingObject>> = Vec::with_capacity(cfg.n_ticks + 1);
    for tick in 0..=cfg.n_ticks {
        let t = tick as f64 * cfg.tick_interval;
        let mut batch = Vec::with_capacity(cfg.n_objects);
        for (id, home) in homes.iter().enumerate() {
            if tick > 0 {
                // Advance along the previous report's velocity.
                let prev = ticks[tick - 1][id];
                positions[id] = clamp_to(&domain, prev.pos.advance(prev.vel, cfg.tick_interval));
            }
            let pos = positions[id];
            let vel = match home {
                Some(c) => {
                    // Steer toward a jittered point near home: orbiting
                    // churn that keeps the cluster tight.
                    let target = Point::new(
                        c.x + gaussish(&mut rng) * sigma,
                        c.y + gaussish(&mut rng) * sigma,
                    );
                    let d = pos.dist(target).max(1e-9);
                    // Cap at exact arrival by the next tick so the
                    // cluster stays `sigma`-tight at any tick length.
                    let speed = (rng.random_range(0.2..=1.0f64) * cfg.max_speed)
                        .min(d / cfg.tick_interval.max(1e-9));
                    (target - pos) / d * speed
                }
                None => {
                    let ang = rng.random_range(0.0..std::f64::consts::TAU);
                    let speed = rng.random_range(0.05..=1.0) * cfg.max_speed;
                    Point::new(ang.cos() * speed, ang.sin() * speed)
                }
            };
            batch.push(MovingObject::new(id as u64, pos, vel, t));
        }
        ticks.push(batch);
    }
    ScenarioTrace {
        kind: ScenarioKind::Hotspot,
        domain,
        ticks,
        focus,
    }
}

fn flash_crowd(cfg: &ScenarioConfig, domain: Rect) -> ScenarioTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF1A5_4C20);
    let side = domain.hi.x - domain.lo.x;
    let rally = Point::new(domain.lo.x + side * 0.5, domain.lo.y + side * 0.5);

    let mut positions: Vec<Point> = (0..cfg.n_objects)
        .map(|_| {
            Point::new(
                rng.random_range(domain.lo.x..=domain.hi.x),
                rng.random_range(domain.lo.y..=domain.hi.y),
            )
        })
        .collect();
    // Objects join the crowd in a deterministic-per-object order: the
    // lower the draw, the earlier they turn toward the rally point.
    let join_at: Vec<f64> = (0..cfg.n_objects)
        .map(|_| rng.random_range(0.0..1.0))
        .collect();

    let mut ticks: Vec<Vec<MovingObject>> = Vec::with_capacity(cfg.n_ticks + 1);
    for tick in 0..=cfg.n_ticks {
        let t = tick as f64 * cfg.tick_interval;
        // Ramp: by the last tick (almost) everyone has joined.
        let progress = if cfg.n_ticks == 0 {
            0.0
        } else {
            tick as f64 / cfg.n_ticks as f64
        };
        let mut batch = Vec::with_capacity(cfg.n_objects);
        for id in 0..cfg.n_objects {
            if tick > 0 {
                let prev = ticks[tick - 1][id];
                positions[id] = clamp_to(&domain, prev.pos.advance(prev.vel, cfg.tick_interval));
            }
            let pos = positions[id];
            let vel = if join_at[id] < progress {
                // Converge: rush straight for the rally point at full
                // speed, braking on arrival so the crowd stays dense.
                let d = pos.dist(rally);
                let speed = cfg.max_speed.min(d / cfg.tick_interval.max(1e-9));
                if d > 1e-9 {
                    (rally - pos) / d * speed
                } else {
                    Point::ZERO
                }
            } else {
                let ang = rng.random_range(0.0..std::f64::consts::TAU);
                let speed = rng.random_range(0.05..=1.0) * cfg.max_speed;
                Point::new(ang.cos() * speed, ang.sin() * speed)
            };
            batch.push(MovingObject::new(id as u64, pos, vel, t));
        }
        ticks.push(batch);
    }
    ScenarioTrace {
        kind: ScenarioKind::FlashCrowd,
        domain,
        ticks,
        focus: vec![rally],
    }
}

const ROAD_LINES: usize = 16;
/// Per-tick probability of turning at the nearest junction.
const TURN_PROB: f64 = 0.25;

fn road_grid(cfg: &ScenarioConfig, domain: Rect) -> ScenarioTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x60AD_6E1D);
    let side = domain.hi.x - domain.lo.x;
    let spacing = side / ROAD_LINES as f64;
    let line = |i: usize| domain.lo.x + (i as f64 + 0.5) * spacing;

    // State per object: horizontal? (moving along x), the cross-axis
    // line it rides, direction, position along the road.
    let mut horizontal: Vec<bool> = (0..cfg.n_objects).map(|_| rng.random::<bool>()).collect();
    let mut dir: Vec<f64> = (0..cfg.n_objects)
        .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let mut positions: Vec<Point> = (0..cfg.n_objects)
        .map(|i| {
            let on = line(rng.random_range(0..ROAD_LINES));
            let along = rng.random_range(domain.lo.x..=domain.hi.x);
            if horizontal[i] {
                Point::new(along, on)
            } else {
                Point::new(on, along)
            }
        })
        .collect();

    let nearest_line = |v: f64| {
        let i = ((v - domain.lo.x) / spacing - 0.5)
            .round()
            .clamp(0.0, (ROAD_LINES - 1) as f64);
        domain.lo.x + (i + 0.5) * spacing
    };

    let mut ticks: Vec<Vec<MovingObject>> = Vec::with_capacity(cfg.n_ticks + 1);
    for tick in 0..=cfg.n_ticks {
        let t = tick as f64 * cfg.tick_interval;
        let mut batch = Vec::with_capacity(cfg.n_objects);
        for id in 0..cfg.n_objects {
            if tick > 0 {
                let prev = ticks[tick - 1][id];
                let mut p = prev.pos.advance(prev.vel, cfg.tick_interval);
                // Bounce off the domain border: reverse travel.
                if p.x < domain.lo.x || p.x > domain.hi.x || p.y < domain.lo.y || p.y > domain.hi.y
                {
                    dir[id] = -dir[id];
                    p = clamp_to(&domain, p);
                }
                positions[id] = p;
                // Turn at (the nearest) junction with fixed chance:
                // swap travel axis, snap onto the crossing road.
                if rng.random_range(0.0..1.0) < TURN_PROB {
                    horizontal[id] = !horizontal[id];
                    dir[id] = if rng.random::<bool>() { 1.0 } else { -1.0 };
                    positions[id] =
                        Point::new(nearest_line(positions[id].x), nearest_line(positions[id].y));
                }
            }
            let speed = rng.random_range(0.2..=1.0) * cfg.max_speed;
            let vel = if horizontal[id] {
                Point::new(dir[id] * speed, 0.0)
            } else {
                Point::new(0.0, dir[id] * speed)
            };
            batch.push(MovingObject::new(id as u64, positions[id], vel, t));
        }
        ticks.push(batch);
    }
    // Busy junctions: the central crossings.
    let mid = ROAD_LINES / 2;
    let focus = vec![
        Point::new(line(mid), line(mid)),
        Point::new(line(mid / 2), line(mid + mid / 2)),
    ];
    ScenarioTrace {
        kind: ScenarioKind::RoadGrid,
        domain,
        ticks,
        focus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScenarioConfig {
        ScenarioConfig {
            n_objects: 800,
            n_ticks: 10,
            // Long ticks: enough travel budget for the flash crowd to
            // actually reach the rally point within the run.
            tick_interval: 100.0,
            ..ScenarioConfig::default()
        }
    }

    const ALL: [ScenarioKind; 3] = [
        ScenarioKind::Hotspot,
        ScenarioKind::FlashCrowd,
        ScenarioKind::RoadGrid,
    ];

    #[test]
    fn traces_are_deterministic_per_seed() {
        // Same seed → byte-identical streams; different seed → not.
        for kind in ALL {
            let a = generate(kind, &small_cfg());
            let b = generate(kind, &small_cfg());
            assert_eq!(a, b, "{kind}: same seed must reproduce exactly");
            let c = generate(
                kind,
                &ScenarioConfig {
                    seed: 0xD1FF,
                    ..small_cfg()
                },
            );
            assert_ne!(a.ticks, c.ticks, "{kind}: different seed, same trace");
        }
    }

    #[test]
    fn traces_are_well_formed() {
        for kind in ALL {
            let cfg = small_cfg();
            let w = generate(kind, &cfg);
            assert_eq!(w.ticks.len(), cfg.n_ticks + 1);
            assert!(!w.focus.is_empty());
            for (i, batch) in w.ticks.iter().enumerate() {
                assert_eq!(batch.len(), cfg.n_objects, "{kind}: tick {i} size");
                let t = i as f64 * cfg.tick_interval;
                for pair in batch.windows(2) {
                    assert!(pair[0].id < pair[1].id, "{kind}: ids ascending");
                }
                for o in batch {
                    assert_eq!(o.ref_time, t, "{kind}: tick {i} ref time");
                    assert!(w.domain.contains_point(o.pos), "{kind}: {:?}", o.pos);
                    assert!(
                        o.vel.x.abs() <= cfg.max_speed && o.vel.y.abs() <= cfg.max_speed,
                        "{kind}: speed bound"
                    );
                }
            }
            assert_eq!(
                w.tick_time(cfg.n_ticks),
                cfg.n_ticks as f64 * cfg.tick_interval
            );
        }
    }

    /// Fraction of `batch` within `r` of any focus point.
    fn near_focus(w: &ScenarioTrace, batch: &[MovingObject], r: f64) -> f64 {
        batch
            .iter()
            .filter(|o| w.focus.iter().any(|c| o.pos.dist(*c) <= r))
            .count() as f64
            / batch.len() as f64
    }

    #[test]
    fn hotspot_skews_toward_centers() {
        let w = generate(ScenarioKind::Hotspot, &small_cfg());
        let r = DOMAIN_SIDE * 0.1;
        // 4 focus discs of radius 10% of the side ≈ 12.6% of the area:
        // a uniform population would put ~1/8 of the objects there; the
        // hotspot shape must be several times denser, on every tick.
        for (i, batch) in w.ticks.iter().enumerate() {
            let frac = near_focus(&w, batch, r);
            assert!(
                frac > 0.5,
                "tick {i}: only {frac:.2} of objects near the centers"
            );
        }
    }

    #[test]
    fn flash_crowd_density_ramps_up() {
        let w = generate(ScenarioKind::FlashCrowd, &small_cfg());
        let r = DOMAIN_SIDE * 0.1;
        let start = near_focus(&w, &w.ticks[0], r);
        let end = near_focus(&w, w.ticks.last().unwrap(), r);
        // Starts uniform (~π% of the area ≈ 3%), ends crowded.
        assert!(start < 0.1, "tick 0 already crowded: {start:.2}");
        assert!(end > 0.5, "final tick not crowded: {end:.2}");
        assert!(end > start * 4.0, "no ramp: {start:.2} → {end:.2}");
    }

    #[test]
    fn road_grid_velocities_are_axis_aligned() {
        let w = generate(ScenarioKind::RoadGrid, &small_cfg());
        for batch in &w.ticks {
            let aligned = batch
                .iter()
                .filter(|o| o.vel.x == 0.0 || o.vel.y == 0.0)
                .count();
            assert!(
                aligned as f64 > batch.len() as f64 * 0.95,
                "only {aligned}/{} axis-aligned",
                batch.len()
            );
        }
        // And both axes are actually used (two dominant directions).
        let horiz = w.ticks[0].iter().filter(|o| o.vel.y == 0.0).count();
        let frac = horiz as f64 / w.ticks[0].len() as f64;
        assert!(
            (0.3..=0.7).contains(&frac),
            "axis mix degenerate: {frac:.2} horizontal"
        );
    }

    #[test]
    fn hotspot_is_skewed_but_uniform_baseline_is_not() {
        // The drifter fraction alone (last 30%) behaves ~uniformly:
        // cross-check the clustered fraction is what skews the total.
        let w = generate(ScenarioKind::Hotspot, &small_cfg());
        let n = w.ticks[0].len();
        let drifters: Vec<MovingObject> =
            w.ticks[0][(n as f64 * HOTSPOT_CLUSTERED) as usize..].to_vec();
        let frac = near_focus(&w, &drifters, DOMAIN_SIDE * 0.1);
        assert!(
            frac < 0.35,
            "background population too clustered: {frac:.2}"
        );
    }
}
