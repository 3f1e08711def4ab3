//! Standing-query (subscription) equivalence properties.
//!
//! The contract under test: **for any tick stream and any subscription
//! set, the incremental event stream produced by
//! [`SubscriptionSet::on_tick`] is identical to what full
//! re-evaluation would emit** — per index family (Bx and TPR\*), per
//! subscription flavor (range and kNN), including mid-stream
//! registration (with its `Enter` backfill) and unregistration, object
//! deletion, and candidate-window expiry (small horizons force the
//! grouped refresh path).
//!
//! The oracle re-runs every subscription from scratch after every
//! tick — a brute-force slice filter for range subs, brute-force
//! nearest neighbors for kNN subs — over the last-write-wins live
//! fleet, then diffs consecutive result sets: `Enter` = newly in,
//! `Leave` = dropped out, `Moved` = still in ∧ re-reported this tick.
//! Both index families must match the oracle event-for-event (same
//! order: ascending subscription id, Enters then Leaves then Moveds,
//! ascending object id within each kind) and must match each other.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::{
    KnnSubSpec, MovingObject, RangeSubSpec, SubEvent, SubEventKind, SubscriptionConfig,
    SubscriptionId, SubscriptionSet, TickDelta,
};

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
const TICK_DT: f64 = 10.0;

/// Two roads (0° and 90°) plus diagonal outliers, for the analyzer.
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

// ---------------------------------------------------------------------
// Scenario plan (shared verbatim by both index families)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum SubSpec {
    Range(RangeSubSpec),
    Knn(KnnSubSpec),
}

#[derive(Clone, Debug)]
enum Step {
    /// An atomic batch of upserts (re-reports + fresh inserts).
    Tick(Vec<MovingObject>),
    /// Delete the `n`-th currently-live id (wraps around).
    Delete(usize),
}

struct Plan {
    initial: Vec<MovingObject>,
    initial_subs: Vec<SubSpec>,
    steps: Vec<Step>,
    /// Registered mid-stream, after step `steps.len() / 2`.
    late_sub: SubSpec,
}

fn random_spec(rng: &mut Rng) -> SubSpec {
    let center = Point::new(
        10_000.0 + rng.f64() * 80_000.0,
        10_000.0 + rng.f64() * 80_000.0,
    );
    match rng.next() % 3 {
        0 => SubSpec::Range(RangeSubSpec {
            region: QueryRegion::Circle(Circle::new(center, 4_000.0 + rng.f64() * 10_000.0)),
            predictive_dt: (rng.next() % 3) as f64 * 2.5,
        }),
        1 => SubSpec::Range(RangeSubSpec {
            region: QueryRegion::Rect(Rect::centered(
                center,
                3_000.0 + rng.f64() * 9_000.0,
                3_000.0 + rng.f64() * 9_000.0,
            )),
            predictive_dt: (rng.next() % 3) as f64 * 2.5,
        }),
        _ => SubSpec::Knn(KnnSubSpec {
            center,
            k: 1 + (rng.next() % 8) as usize,
            predictive_dt: (rng.next() % 3) as f64 * 2.5,
        }),
    }
}

/// Random plan: a populated fleet, 4 initial subscriptions, then a
/// step stream of re-report ticks (a rotating third of the fleet, half
/// turning 90°) with fresh inserts, interleaved with deletes.
fn make_plan(seed: u64, n_objects: u64, n_steps: usize) -> Plan {
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
    let initial = objs.clone();
    let initial_subs = (0..4).map(|_| random_spec(&mut rng)).collect();
    let late_sub = random_spec(&mut rng);

    let mut steps = Vec::new();
    for step in 1..=n_steps {
        if step % 4 == 3 {
            steps.push(Step::Delete(rng.next() as usize));
            continue;
        }
        let t = step as f64 * TICK_DT;
        let mut updates = Vec::new();
        for o in objs.iter_mut() {
            if o.id % 3 == (step as u64) % 3 {
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
            10_000 + step as u64,
            Point::new(rng.f64() * DOMAIN, rng.f64() * DOMAIN),
            Point::new(30.0, 0.5),
            t,
        );
        objs.push(fresh);
        updates.push(fresh);
        steps.push(Step::Tick(updates));
    }
    Plan {
        initial,
        initial_subs,
        steps,
        late_sub,
    }
}

// ---------------------------------------------------------------------
// Full re-evaluation oracle
// ---------------------------------------------------------------------

/// Brute-force result set of one subscription over the live fleet.
fn oracle_result(live: &BTreeMap<u64, MovingObject>, spec: &SubSpec, t: f64) -> BTreeSet<u64> {
    match spec {
        SubSpec::Range(s) => {
            let q = RangeQuery::time_slice(s.region, t + s.predictive_dt);
            live.values()
                .filter(|o| q.matches(o))
                .map(|o| o.id)
                .collect()
        }
        SubSpec::Knn(s) => {
            let tq = t + s.predictive_dt;
            let mut d: Vec<(f64, u64)> = live
                .values()
                .map(|o| (o.position_at(tq).dist(s.center), o.id))
                .collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            d.truncate(s.k);
            d.into_iter().map(|(_, id)| id).collect()
        }
    }
}

/// Diffs one subscription's consecutive full results into the event
/// stream `on_tick` must emit for it.
fn diff_events(
    sub: SubscriptionId,
    old: &BTreeSet<u64>,
    new: &BTreeSet<u64>,
    batch: &BTreeSet<u64>,
) -> Vec<SubEvent> {
    let mut events = Vec::new();
    for &id in new.difference(old) {
        events.push(SubEvent {
            sub,
            kind: SubEventKind::Enter,
            id,
        });
    }
    for &id in old.difference(new) {
        events.push(SubEvent {
            sub,
            kind: SubEventKind::Leave,
            id,
        });
    }
    for &id in new.intersection(old) {
        if batch.contains(&id) {
            events.push(SubEvent {
                sub,
                kind: SubEventKind::Moved,
                id,
            });
        }
    }
    events
}

// ---------------------------------------------------------------------
// Driving one engine through the plan
// ---------------------------------------------------------------------

/// Runs `plan` against one index family, checking every tick's event
/// stream and every subscription's result set against the oracle.
/// Returns the per-step event streams for cross-family comparison.
fn drive<I>(mut vp: VpIndex<I>, plan: &Plan, horizon: f64, label: &str) -> Vec<Vec<SubEvent>>
where
    I: MovingObjectIndex,
{
    vp.apply_updates(&plan.initial).unwrap();
    let mut live: BTreeMap<u64, MovingObject> = plan.initial.iter().map(|o| (o.id, *o)).collect();

    let mut subs = SubscriptionSet::new(SubscriptionConfig::new(vp.domain()).with_horizon(horizon));
    // Oracle-side registry: spec + last full result per live sub.
    let mut oracle: BTreeMap<SubscriptionId, (SubSpec, BTreeSet<u64>)> = BTreeMap::new();

    let register = |subs: &mut SubscriptionSet,
                    oracle: &mut BTreeMap<SubscriptionId, (SubSpec, BTreeSet<u64>)>,
                    vp: &VpIndex<I>,
                    live: &BTreeMap<u64, MovingObject>,
                    spec: &SubSpec,
                    now: f64| {
        let (id, backfill) = match spec {
            SubSpec::Range(s) => subs.register_range(vp, now, *s).unwrap(),
            SubSpec::Knn(s) => subs.register_knn(vp, now, *s).unwrap(),
        };
        let want = oracle_result(live, spec, now);
        let want_backfill: Vec<SubEvent> = want
            .iter()
            .map(|&oid| SubEvent {
                sub: id,
                kind: SubEventKind::Enter,
                id: oid,
            })
            .collect();
        assert_eq!(
            backfill, want_backfill,
            "{label}: sub {id} backfill diverged from full evaluation"
        );
        oracle.insert(id, (spec.clone(), want));
        id
    };

    let mut ids = Vec::new();
    for spec in &plan.initial_subs {
        ids.push(register(&mut subs, &mut oracle, &vp, &live, spec, 0.0));
    }

    let mid = plan.steps.len() / 2;
    let mut all_events = Vec::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let t = (i + 1) as f64 * TICK_DT;
        // Apply the mutation to the index and to the oracle fleet.
        let delta = match step {
            Step::Tick(updates) => {
                let delta = vp.apply_updates_delta(updates).unwrap();
                for o in updates {
                    live.insert(o.id, *o);
                }
                delta
            }
            Step::Delete(nth) => {
                let keys: Vec<u64> = live.keys().copied().collect();
                let id = keys[nth % keys.len()];
                vp.delete(id).unwrap();
                live.remove(&id);
                TickDelta::from_delete(id, t)
            }
        };

        let events = subs.on_tick(&vp, &delta).unwrap();

        // Oracle: full re-evaluation of every live subscription, then
        // diff against its previous full result.
        let batch: BTreeSet<u64> = delta.upserts.iter().map(|o| o.id).collect();
        let mut want = Vec::new();
        for (&sub, (spec, old)) in oracle.iter_mut() {
            let new = oracle_result(&live, spec, delta.time);
            want.extend(diff_events(sub, old, &new, &batch));
            *old = new;
        }
        assert_eq!(
            events, want,
            "{label}: step {i} (t={t}) incremental events diverged from full re-evaluation"
        );
        for (&sub, (_, result)) in oracle.iter() {
            let got = subs.result(sub).unwrap();
            let want: Vec<u64> = result.iter().copied().collect();
            assert_eq!(got, want, "{label}: step {i} sub {sub} result set drifted");
        }
        all_events.push(events);

        // Mid-stream churn: drop the oldest subscription, add a fresh
        // one (its backfill is checked inside `register`).
        if i == mid {
            assert!(subs.unregister(ids[0]), "{label}: unregister known sub");
            assert!(!subs.unregister(ids[0]), "{label}: double unregister");
            oracle.remove(&ids[0]);
            ids.push(register(
                &mut subs,
                &mut oracle,
                &vp,
                &live,
                &plan.late_sub,
                t,
            ));
        }
    }
    assert!(
        subs.result(ids[0]).is_none(),
        "{label}: unregistered sub still answers"
    );
    all_events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random tick streams × random subscription sets: the incremental
    /// event stream equals the full-re-evaluation diff oracle on both
    /// index families, and the two families agree event-for-event.
    /// Small horizons force the window-expiry refresh path mid-stream.
    #[test]
    fn incremental_events_match_full_reevaluation_oracle(
        seed in 1u64..1_000_000,
        n_steps in 3usize..8,
        horizon_sel in 0usize..3,
    ) {
        let horizon = [25.0, 60.0, 10_000.0][horizon_sel];
        let plan = make_plan(seed, 220, n_steps);
        let bx_events = drive(build_bx(), &plan, horizon, "bx");
        let tpr_events = drive(build_tpr(), &plan, horizon, "tpr");
        prop_assert_eq!(
            bx_events, tpr_events,
            "index families emitted different event streams"
        );
    }
}
