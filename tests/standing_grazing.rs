//! Standing range queries on the boundary: a deterministic companion to
//! the property test in `tests/standing_queries.rs`.
//!
//! `on_tick` re-tests a range candidate only when the delta re-reports
//! it or when it could have reached the region's boundary since it was
//! last tested. The cases that stress that schedule are the ones where
//! an object sits on, skims or crosses the boundary exactly: motion
//! tangent to a circle, motion along a rectangle's edge or through its
//! corner, crossings that land exactly on a tick's slice time, and
//! parked objects on the boundary. Every coordinate, velocity and time
//! below is an integer or a half, so the predicates decide each of
//! those cases without rounding, and the objects really do touch the
//! boundary at the tick they are meant to.
//!
//! Every tick's events are compared with full re-evaluation (the exact
//! slice predicate over the whole live fleet, diffed against the
//! previous result), for circles and rectangles, with and without a
//! predictive offset, across window refreshes (a short horizon) and a
//! mid-stream `resnapshot`. The index is the reference scan index,
//! which answers the interval probes with the same exact predicate:
//! a VP index rotates each query into its partition's frame, and that
//! rounding can drop an object lying exactly on the boundary from the
//! probe, whatever `on_tick` does afterwards.

use std::collections::{BTreeMap, BTreeSet};

use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::traits::reference::ScanIndex;

const C: Point = Point::new(50_000.0, 50_000.0);
const R: f64 = 3_000.0;

fn circle() -> QueryRegion {
    QueryRegion::Circle(Circle::new(C, R))
}

fn rect() -> QueryRegion {
    QueryRegion::Rect(Rect::from_bounds(40_000.0, 55_000.0, 43_000.0, 58_000.0))
}

fn obj(id: u64, x: f64, y: f64, vx: f64, vy: f64, t: f64) -> MovingObject {
    MovingObject::new(id, Point::new(x, y), Point::new(vx, vy), t)
}

/// The fleet at time 0. Comments give the ticks at which each object
/// touches a region for the subscriptions without a predictive offset.
fn fleet() -> Vec<MovingObject> {
    vec![
        // Tangent to the circle's top at t = 20, in for that tick only.
        obj(1, 48_000.0, 53_000.0, 100.0, 0.0, 0.0),
        // Tangent to the circle's left side at t = 20.
        obj(2, 47_000.0, 48_000.0, 0.0, 100.0, 0.0),
        // Crosses the circle's bottom exactly at t = 10; turned back
        // at t = 25, out again after t = 40.
        obj(3, 50_000.0, 46_000.0, 0.0, 100.0, 0.0),
        // Along the rectangle's left edge: in from t = 10 to t = 40.
        obj(4, 40_000.0, 54_000.0, 0.0, 100.0, 0.0),
        // Along the rectangle's top edge: in from t = 5 to t = 20.
        obj(5, 39_000.0, 58_000.0, 200.0, 0.0, 0.0),
        // Diagonally through two corners: in from t = 10 to t = 40.
        obj(6, 39_000.0, 54_000.0, 100.0, 100.0, 0.0),
        // Grazes the top-left corner at t = 20 from outside.
        obj(7, 38_000.0, 57_000.0, 100.0, 50.0, 0.0),
        // Parked: inside, on the circle, on a rectangle corner, outside.
        obj(8, 50_000.0, 50_000.0, 0.0, 0.0, 0.0),
        obj(9, 53_000.0, 50_000.0, 0.0, 0.0, 0.0),
        obj(10, 43_000.0, 58_000.0, 0.0, 0.0, 0.0),
        obj(11, 10_000.0, 10_000.0, 0.0, 0.0, 0.0),
        // Creeps out through the circle's right side: on it at t = 2.
        obj(12, 52_999.0, 50_000.0, 0.5, 0.0, 0.0),
        // Fast: in from t = 3 to t = 9.
        obj(13, 44_000.0, 50_000.0, 1_000.0, 0.0, 0.0),
        // Parked inside, removed at t = 15.
        obj(14, 50_500.0, 50_500.0, 0.0, 0.0, 0.0),
        // Far away until it re-reports inside at t = 12.
        obj(15, 90_000.0, 90_000.0, -10.0, 0.0, 0.0),
    ]
}

enum Step {
    Upsert(MovingObject),
    Remove(ObjectId),
}

/// What happens at tick `t` beyond the fleet's drift.
fn steps(t: f64) -> Vec<Step> {
    match t as u64 {
        // Re-reports on the same trajectory: Moved while inside.
        6 => vec![Step::Upsert(obj(13, 50_000.0, 50_000.0, 1_000.0, 0.0, 6.0))],
        12 => vec![Step::Upsert(obj(15, 50_000.0, 47_000.0, 0.0, -100.0, 12.0))],
        15 => vec![Step::Remove(14)],
        25 => vec![Step::Upsert(obj(3, 50_000.0, 48_500.0, 0.0, -100.0, 25.0))],
        30 => vec![
            Step::Upsert(obj(16, 41_000.0, 53_000.0, 0.0, 250.0, 30.0)),
            Step::Upsert(obj(4, 40_000.0, 56_000.0, 0.0, 50.0, 30.0)),
        ],
        _ => Vec::new(),
    }
}

/// The exact slice result of `spec` at tick `t` over the live fleet.
fn full(live: &BTreeMap<ObjectId, MovingObject>, spec: &RangeSubSpec, t: f64) -> BTreeSet<u64> {
    let q = RangeQuery::time_slice(spec.region, t + spec.predictive_dt);
    live.values()
        .filter(|o| q.matches(o))
        .map(|o| o.id)
        .collect()
}

fn diff(
    sub: SubscriptionId,
    old: &BTreeSet<u64>,
    new: &BTreeSet<u64>,
    moved: &BTreeSet<u64>,
) -> Vec<SubEvent> {
    let event = |kind, id| SubEvent { sub, kind, id };
    new.difference(old)
        .map(|&id| event(SubEventKind::Enter, id))
        .chain(
            old.difference(new)
                .map(|&id| event(SubEventKind::Leave, id)),
        )
        .chain(
            new.intersection(old)
                .filter(|id| moved.contains(id))
                .map(|&id| event(SubEventKind::Moved, id)),
        )
        .collect()
}

/// Drives the scenario and checks every tick against full
/// re-evaluation; returns how many events it saw.
fn drive(horizon: f64, label: &str) -> usize {
    let mut index = ScanIndex::new();
    let mut live: BTreeMap<ObjectId, MovingObject> =
        fleet().into_iter().map(|o| (o.id, o)).collect();
    index
        .update_batch(&live.values().copied().collect::<Vec<_>>())
        .unwrap();
    let specs: Vec<RangeSubSpec> = [circle(), rect()]
        .into_iter()
        .flat_map(|region| {
            [0.0, 2.0].map(|predictive_dt| RangeSubSpec {
                region,
                predictive_dt,
            })
        })
        .collect();
    let mut subs = SubscriptionSet::new(
        SubscriptionConfig::new(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0))
            .with_horizon(horizon),
    );
    let mut oracle = Vec::new();
    for spec in &specs {
        let (sub, backfill) = subs.register_range(&index, 0.0, *spec).unwrap();
        let want = full(&live, spec, 0.0);
        assert_eq!(
            backfill,
            diff(sub, &BTreeSet::new(), &want, &BTreeSet::new()),
            "{label}: backfill"
        );
        oracle.push((sub, *spec, want));
    }

    let mut seen = 0;
    for tick in 1..=48u64 {
        let t = tick as f64;
        let mut upserts = Vec::new();
        let mut removals = Vec::new();
        for step in steps(t) {
            match step {
                Step::Upsert(o) => upserts.push(o),
                Step::Remove(id) => removals.push(id),
            }
        }
        index.update_batch(&upserts).unwrap();
        index.remove_batch(&removals).unwrap();
        for o in &upserts {
            live.insert(o.id, *o);
        }
        for id in &removals {
            live.remove(id);
        }
        let mut delta = TickDelta::from_updates(&upserts);
        delta.time = t;
        delta.removals = removals;

        let events = subs.on_tick(&index, &delta).unwrap();
        let moved: BTreeSet<u64> = upserts.iter().map(|o| o.id).collect();
        let mut want = Vec::new();
        for (sub, spec, old) in &mut oracle {
            let new = full(&live, spec, t);
            want.extend(diff(*sub, old, &new, &moved));
            *old = new;
        }
        assert_eq!(events, want, "{label}: tick {tick}");
        seen += events.len();

        // Mid-stream resnapshot: a full backfill of the current result.
        if tick == 24 {
            let (sub, spec, old) = &oracle[1];
            let batch = subs.resnapshot(&index, *sub, t).unwrap().unwrap();
            let backfill: Vec<(SubEventKind, u64)> =
                old.iter().map(|&id| (SubEventKind::Enter, id)).collect();
            assert_eq!(batch.events, backfill, "{label}: resnapshot");
            assert_eq!(*old, full(&live, spec, t));
        }
    }
    for (sub, _, result) in &oracle {
        let want: Vec<u64> = result.iter().copied().collect();
        assert_eq!(
            subs.result(*sub),
            Some(want),
            "{label}: sub {sub} at the end"
        );
    }
    seen
}

#[test]
fn boundary_motion_emits_what_full_reevaluation_emits() {
    // Horizon 8 refreshes every window each ninth tick; 1 000 never
    // does, so every crossing is found by the re-check schedule alone.
    for horizon in [8.0, 1_000.0] {
        let seen = drive(horizon, &format!("horizon {horizon}"));
        assert!(
            seen >= 40,
            "only {seen} events: the scenario lost its crossings"
        );
    }
}
