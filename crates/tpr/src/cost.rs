//! Insertion cost metrics (Tao et al. cost model).
//!
//! The TPR\*-tree steers every structural decision — subtree choice,
//! reinsertion candidates, split points — by the *sweep-region volume*
//! a node contributes to an average query: the node's TPBR, inflated by
//! half the optimization query's extent per axis, integrated over the
//! tree's horizon (Section 3.1 / Equation 1 of the paper).

use vp_geom::Tpbr;

/// The expected-access cost of a node over `[now, now + horizon]` for
/// queries of extent `query_len` per axis: the sweep volume of the
/// query-inflated TPBR.
pub fn sweep_cost(tpbr: &Tpbr, now: f64, horizon: f64, query_len: f64) -> f64 {
    if tpbr.is_empty() {
        return 0.0;
    }
    let inflated = Tpbr::new(
        tpbr.rect.inflate(query_len * 0.5, query_len * 0.5),
        tpbr.vbr,
        tpbr.ref_time,
    );
    inflated.sweep_volume(now, now + horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_geom::{Point, Rect, Vbr};

    fn growing(v: f64) -> Tpbr {
        Tpbr::new(
            Rect::from_bounds(0.0, 0.0, 10.0, 10.0),
            Vbr::new(Point::new(-v, -v), Point::new(v, v)),
            0.0,
        )
    }

    #[test]
    fn faster_nodes_cost_more() {
        let slow = sweep_cost(&growing(1.0), 0.0, 10.0, 2.0);
        let fast = sweep_cost(&growing(5.0), 0.0, 10.0, 2.0);
        assert!(fast > slow);
    }

    #[test]
    fn inflation_increases_cost() {
        let small_q = sweep_cost(&growing(1.0), 0.0, 10.0, 0.0);
        let big_q = sweep_cost(&growing(1.0), 0.0, 10.0, 100.0);
        assert!(big_q > small_q);
    }

    #[test]
    fn empty_costs_nothing() {
        assert_eq!(sweep_cost(&Tpbr::empty(0.0), 0.0, 10.0, 1.0), 0.0);
    }

    #[test]
    fn anisotropic_growth_cheaper_than_isotropic() {
        // The core observation of the paper (Section 4): a node whose
        // objects all move along one axis sweeps far less volume than a
        // node expanding along both axes at the same top speed.
        let along_x = Tpbr::new(
            Rect::from_bounds(0.0, 0.0, 10.0, 10.0),
            Vbr::new(Point::new(-5.0, 0.0), Point::new(5.0, 0.0)),
            0.0,
        );
        let both = growing(5.0);
        let cx = sweep_cost(&along_x, 0.0, 60.0, 1.0);
        let cb = sweep_cost(&both, 0.0, 60.0, 1.0);
        assert!(
            cb > cx * 10.0,
            "2-D expansion ({cb:.0}) should dwarf 1-D ({cx:.0})"
        );
    }
}
