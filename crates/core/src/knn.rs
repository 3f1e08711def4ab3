//! k-nearest-neighbour queries on top of range queries.
//!
//! The paper motivates circular range queries as "the filter step of
//! the k Nearest Neighbor query" (Section 6). This module supplies
//! that refinement loop: an expanding sequence of circular time-slice
//! probes, starting from a density-derived radius estimate, doubling
//! while fewer than k candidates are in hand and otherwise reaching
//! just past the k-th nearest candidate, until that candidate provably
//! lies inside the probed circle — at which point no closer object can
//! exist outside it and the answer is exact.
//!
//! The enlargement is **incremental**: each round hands the index the
//! previous round's probe as the *covered* region
//! ([`MovingObjectIndex::knn_candidates`]), so batched indexes scan
//! only the delta ring between the two circles instead of rescanning
//! the whole enlarged region, and a seen-map caches every candidate's
//! distance so no object is fetched or evaluated twice across rounds.
//!
//! Works over any [`MovingObjectIndex`], so a velocity-partitioned
//! index accelerates kNN for free. [`knn_batch`] answers a slice of
//! searches in order.

use std::collections::HashMap;

use vp_geom::{Circle, Point, Rect};

use crate::error::IndexResult;
use crate::object::ObjectId;
use crate::query::{QueryRegion, RangeQuery};
use crate::traits::MovingObjectIndex;

/// One kNN result: the object and its distance from the query point at
/// the query time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: ObjectId,
    pub distance: f64,
}

/// One kNN search of a [`knn_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnQuery {
    /// Query point.
    pub center: Point,
    /// How many neighbors to report.
    pub k: usize,
    /// The (future) time the distances are evaluated at.
    pub t: f64,
}

/// Finds the `k` objects nearest to `center` at (future) time `t`.
///
/// `domain` bounds the search (the expansion stops once the probe
/// circle covers it). Returns at most `k` neighbors ordered by
/// ascending distance; fewer when the index holds fewer objects
/// within the domain-covering probe.
///
/// Each enlargement round asks the index only for the candidates of
/// the **delta ring** between the previous probe and the current one
/// ([`MovingObjectIndex::knn_candidates`]), and every candidate's
/// distance is computed exactly once — the seen-map carries the
/// evaluations across rounds, so enlarging never re-fetches or
/// re-scores an object.
pub fn knn_at<I: MovingObjectIndex + ?Sized>(
    index: &I,
    center: Point,
    k: usize,
    t: f64,
    domain: &Rect,
) -> IndexResult<Vec<Neighbor>> {
    if k == 0 || index.is_empty() {
        return Ok(Vec::new());
    }
    // Initial radius from a uniform-density estimate: a circle expected
    // to hold ~k objects.
    let density = index.len() as f64 / domain.area().max(1.0);
    let mut radius = ((k as f64 / (std::f64::consts::PI * density)).sqrt())
        .max(domain.width().min(domain.height()) / 1_000.0);
    // The probe circle covering the farthest domain corner is the hard
    // stop: beyond it, expansion cannot find anything new.
    let max_radius = domain
        .corners()
        .iter()
        .map(|c| c.dist(center))
        .fold(0.0_f64, f64::max)
        .max(radius)
        * 1.01;

    // Distance of every candidate evaluated so far (the cross-round
    // seen-set), and the same entries kept sorted for the cutoff test.
    let mut seen: HashMap<ObjectId, f64> = HashMap::new();
    let mut neighbors: Vec<Neighbor> = Vec::new();
    let mut covered: Option<RangeQuery> = None;

    loop {
        let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, radius)), t);
        for id in index.knn_candidates(&q, covered.as_ref())? {
            let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(id) else {
                continue;
            };
            let Some(obj) = index.get_object(id)? else {
                continue;
            };
            let distance = obj.position_at(t).dist(center);
            slot.insert(distance);
            neighbors.push(Neighbor { id, distance });
        }
        neighbors.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));

        // Done when the k-th candidate is provably inside the probe —
        // every object at most that close is then among the seen
        // candidates — or the probe already covers the whole domain.
        if neighbors.len() >= k && neighbors[k - 1].distance <= radius {
            neighbors.truncate(k);
            return Ok(neighbors);
        }
        if radius >= max_radius {
            // Candidates are a superset of the probe's matches; only
            // what is provably inside the probe is reported, keeping
            // the result independent of how generous the index's
            // candidate sets are.
            neighbors.retain(|n| n.distance <= radius);
            neighbors.truncate(k);
            return Ok(neighbors);
        }
        // Expand: with k candidates in hand, just past the k-th one's
        // distance (which exceeds the radius, or the search would have
        // ended), so the next round ends it; otherwise double.
        let target = if neighbors.len() >= k {
            neighbors[k - 1].distance * 1.001
        } else {
            radius * 2.0
        };
        covered = Some(q);
        radius = target.min(max_radius);
    }
}

/// Answers a batch of kNN searches, returning one result list per
/// query in query order — identical to looping [`knn_at`].
pub fn knn_batch<I: MovingObjectIndex + ?Sized>(
    index: &I,
    queries: &[KnnQuery],
    domain: &Rect,
) -> IndexResult<Vec<Vec<Neighbor>>> {
    queries
        .iter()
        .map(|q| knn_at(index, q.center, q.k, q.t, domain))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MovingObject;
    use crate::traits::reference::ScanIndex;
    use vp_geom::Vec2;

    fn grid_index(n_side: u64, spacing: f64, vel: Vec2) -> ScanIndex {
        let mut idx = ScanIndex::new();
        for i in 0..n_side {
            for j in 0..n_side {
                idx.insert(MovingObject::new(
                    i * n_side + j,
                    Point::new(i as f64 * spacing, j as f64 * spacing),
                    vel,
                    0.0,
                ))
                .unwrap();
            }
        }
        idx
    }

    fn domain() -> Rect {
        Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0)
    }

    /// Brute-force oracle.
    fn brute(idx: &ScanIndex, center: Point, k: usize, t: f64) -> Vec<Neighbor> {
        let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, f64::INFINITY)), t);
        let mut all: Vec<Neighbor> = idx
            .range_query(&q)
            .unwrap()
            .into_iter()
            .map(|id| Neighbor {
                id,
                distance: idx
                    .get_object(id)
                    .unwrap()
                    .unwrap()
                    .position_at(t)
                    .dist(center),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force_static() {
        let idx = grid_index(20, 500.0, Point::ZERO);
        for (cx, cy, k) in [
            (5_000.0, 5_000.0, 1),
            (5_000.0, 5_000.0, 7),
            (100.0, 9_900.0, 5),
            (0.0, 0.0, 3),
        ] {
            let got = knn_at(&idx, Point::new(cx, cy), k, 0.0, &domain()).unwrap();
            let want = brute(&idx, Point::new(cx, cy), k, 0.0);
            assert_eq!(got, want, "center ({cx},{cy}) k={k}");
        }
    }

    #[test]
    fn knn_is_predictive() {
        // Everything drifts east at 50 m/ts; at t=10 the nearest
        // neighbors of a point are those 500 m west of it now.
        let idx = grid_index(20, 500.0, Point::new(50.0, 0.0));
        let center = Point::new(5_000.0, 5_000.0);
        let got = knn_at(&idx, center, 4, 10.0, &domain()).unwrap();
        let want = brute(&idx, center, 4, 10.0);
        assert_eq!(got, want);
        // The single nearest at t=10 started at (4500, 5000).
        let top = idx.get_object(got[0].id).unwrap().unwrap();
        assert_eq!(top.pos, Point::new(4_500.0, 5_000.0));
    }

    #[test]
    fn knn_handles_small_indexes() {
        let mut idx = ScanIndex::new();
        assert!(knn_at(&idx, Point::ZERO, 5, 0.0, &domain())
            .unwrap()
            .is_empty());
        idx.insert(MovingObject::new(
            1,
            Point::new(9_000.0, 9_000.0),
            Point::ZERO,
            0.0,
        ))
        .unwrap();
        // k exceeds population: return what exists.
        let got = knn_at(&idx, Point::ZERO, 5, 0.0, &domain()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1);
        // k = 0.
        assert!(knn_at(&idx, Point::ZERO, 0, 0.0, &domain())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn knn_ties_break_deterministically() {
        let mut idx = ScanIndex::new();
        for id in 0..4u64 {
            // Four objects at identical distance from the center.
            let (dx, dy) = match id {
                0 => (100.0, 0.0),
                1 => (-100.0, 0.0),
                2 => (0.0, 100.0),
                _ => (0.0, -100.0),
            };
            idx.insert(MovingObject::new(
                id,
                Point::new(5_000.0 + dx, 5_000.0 + dy),
                Point::ZERO,
                0.0,
            ))
            .unwrap();
        }
        let got = knn_at(&idx, Point::new(5_000.0, 5_000.0), 2, 0.0, &domain()).unwrap();
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1]);
    }
}
