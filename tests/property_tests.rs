//! Property-based tests (proptest) over the core invariants:
//! geometry, curves, the analyzer, and index-vs-oracle equivalence on
//! arbitrary workloads.

use std::sync::Arc;

use proptest::prelude::*;
use velocity_partitioning::prelude::*;
use vp_bptree::{BPlusTree, BatchOp, Key128};
use vp_bx::HilbertCurve;
use vp_core::traits::reference::ScanIndex;
use vp_geom::Tpbr;
use vp_geom::Vbr;

fn arb_point(range: f64) -> impl Strategy<Value = Point> {
    (-range..range, -range..range).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_object(id: u64) -> impl Strategy<Value = MovingObject> {
    (
        0.0..100_000.0_f64,
        0.0..100_000.0_f64,
        arb_point(100.0),
        0.0..120.0_f64,
    )
        .prop_map(move |(x, y, vel, t)| MovingObject::new(id, Point::new(x, y), vel, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frame transforms are isometries: distances and (frame) queries
    /// are preserved in both directions.
    #[test]
    fn frame_round_trip(axis in arb_point(10.0), pivot in arb_point(1e5),
                        a in arb_point(1e5), b in arb_point(1e5)) {
        prop_assume!(axis.norm() > 1e-6);
        let f = Frame::new(axis, pivot);
        let ra = f.from_frame(f.to_frame(a));
        prop_assert!((ra.x - a.x).abs() < 1e-6 && (ra.y - a.y).abs() < 1e-6);
        prop_assert!((f.to_frame(a).dist(f.to_frame(b)) - a.dist(b)).abs() < 1e-6);
    }

    /// TPBR unions dominate their inputs at every future time.
    #[test]
    fn tpbr_union_dominates(ax in -100.0..100.0_f64, ay in -100.0..100.0_f64,
                            bx in -100.0..100.0_f64, by in -100.0..100.0_f64,
                            pa in arb_point(1000.0), pb in arb_point(1000.0),
                            dt in 0.0..50.0_f64) {
        let a = Tpbr::from_moving_point(pa, Point::new(ax, ay), 0.0);
        let b = Tpbr::from_moving_point(pb, Point::new(bx, by), 0.0);
        let u = a.union(&b);
        let t = dt;
        prop_assert!(u.rect_at(t).contains_point(pa.advance(Point::new(ax, ay), t)));
        prop_assert!(u.rect_at(t).contains_point(pb.advance(Point::new(bx, by), t)));
    }

    /// Sweep volume is monotone in the interval and non-negative.
    #[test]
    fn sweep_volume_monotone(w in 0.0..100.0_f64, h in 0.0..100.0_f64,
                             gx in -5.0..5.0_f64, gy in -5.0..5.0_f64,
                             t1 in 0.0..20.0_f64, d1 in 0.0..20.0_f64, d2 in 0.0..20.0_f64) {
        let tp = Tpbr::new(
            Rect::from_bounds(0.0, 0.0, w, h),
            Vbr::new(Point::new(0.0, 0.0), Point::new(gx, gy)),
            0.0,
        );
        let v1 = tp.sweep_volume(t1, t1 + d1);
        let v2 = tp.sweep_volume(t1, t1 + d1 + d2);
        prop_assert!(v1 >= -1e-9);
        prop_assert!(v2 >= v1 - 1e-9, "longer interval sweeps at least as much");
    }

    /// The Hilbert curve is a bijection cell -> value.
    #[test]
    fn curves_bijective(x in 0u32..256, y in 0u32..256) {
        let h = HilbertCurve::new(8);
        prop_assert_eq!(h.decode(h.encode(x, y)), (x, y));
    }

    /// The analyzer never drops sample points: partitions + outliers
    /// form a partition of the input.
    #[test]
    fn analyzer_partitions_input(seed in 0u64..1000) {
        let mut pts = Vec::new();
        let mut s = seed.wrapping_mul(0x9E3779B9).max(1);
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s % 1000) as f64 / 1000.0 };
        for i in 0..300 {
            let ang: f64 = if i % 2 == 0 { 0.1 } else { 1.65 };
            let speed = 5.0 + next() * 50.0;
            let sign = if i % 4 < 2 { 1.0 } else { -1.0 };
            pts.push(Point::new(
                ang.cos() * speed * sign + next() - 0.5,
                ang.sin() * speed * sign + next() - 0.5,
            ));
        }
        let out = VelocityAnalyzer::new(VpConfig::default()).analyze(&pts);
        let mut seen = vec![false; pts.len()];
        for p in &out.partitions {
            for &m in &p.members {
                prop_assert!(!seen[m]);
                seen[m] = true;
            }
        }
        for &o in &out.outliers {
            prop_assert!(!seen[o]);
            seen[o] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Bulk loading a sorted set builds a tree equivalent to
    /// incremental insertion: same length, valid invariants, and
    /// identical full range scans.
    #[test]
    fn bulk_load_equivalent_to_incremental(raw in prop::collection::vec(0u64..50_000, 1..600)) {
        let mut ks: Vec<u64> = raw;
        ks.sort_unstable();
        ks.dedup();
        let items: Vec<(Key128, [u8; vp_bptree::VALUE_LEN])> = ks
            .iter()
            .map(|&k| {
                let mut v = [0u8; vp_bptree::VALUE_LEN];
                v[..8].copy_from_slice(&k.to_le_bytes());
                (Key128::new(k / 9, k), v)
            })
            .collect();
        let bulk = BPlusTree::bulk_load(
            Arc::new(BufferPool::with_capacity(DiskManager::with_page_size(512), 32)),
            items.clone(),
        ).unwrap();
        let mut incr = BPlusTree::new(
            Arc::new(BufferPool::with_capacity(DiskManager::with_page_size(512), 32)),
        ).unwrap();
        for &(k, v) in &items {
            incr.insert(k, v).unwrap();
        }
        prop_assert_eq!(bulk.len(), incr.len());
        prop_assert!(bulk.height() <= incr.height());
        let check = bulk.check_invariants().unwrap();
        prop_assert!(check.is_ok(), "bulk tree invariants: {:?}", check);
        let mut a = Vec::new();
        bulk.range_scan(Key128::MIN, Key128::MAX, |k, v| a.push((k, *v))).unwrap();
        let mut b = Vec::new();
        incr.range_scan(Key128::MIN, Key128::MAX, |k, v| b.push((k, *v))).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `apply_batch` over arbitrary sorted batches matches an equal
    /// sequence of single-op calls against a BTreeMap oracle.
    #[test]
    fn apply_batch_matches_oracle(
        batches in prop::collection::vec(prop::collection::vec((0u8..2, 0u64..3_000), 1..200), 1..6),
    ) {
        let pool = Arc::new(BufferPool::with_capacity(DiskManager::with_page_size(512), 32));
        let mut tree = BPlusTree::new(pool).unwrap();
        let mut oracle = std::collections::BTreeMap::new();
        for batch in batches {
            // Sorted unique keys; last op wins for duplicates.
            let mut dedup = std::collections::BTreeMap::new();
            for (op, k) in batch {
                let key = Key128::new(k / 5, k);
                let mut val = [0u8; vp_bptree::VALUE_LEN];
                val[..8].copy_from_slice(&k.to_le_bytes());
                let op = if op == 0 { BatchOp::Put(val) } else { BatchOp::Delete };
                dedup.insert(key, op);
            }
            let ops: Vec<(Key128, BatchOp)> = dedup.into_iter().collect();
            let out = tree.apply_batch(&ops).unwrap();
            let mut inserted = 0; let mut replaced = 0; let mut deleted = 0; let mut missing = 0;
            for &(k, op) in &ops {
                match op {
                    BatchOp::Put(v) => {
                        if oracle.insert(k, v).is_none() { inserted += 1; } else { replaced += 1; }
                    }
                    BatchOp::Delete => {
                        if oracle.remove(&k).is_some() { deleted += 1; } else { missing += 1; }
                    }
                }
            }
            prop_assert_eq!(out.inserted, inserted);
            prop_assert_eq!(out.replaced, replaced);
            prop_assert_eq!(out.deleted, deleted);
            prop_assert_eq!(out.missing, missing);
            prop_assert_eq!(tree.len(), oracle.len());
        }
        let check = tree.check_invariants().unwrap();
        prop_assert!(check.is_ok(), "invariants after batches: {:?}", check);
        let mut got = Vec::new();
        tree.range_scan(Key128::MIN, Key128::MAX, |k, v| got.push((k, *v))).unwrap();
        let want: Vec<_> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// B+-tree agrees with BTreeMap under arbitrary operation streams.
    #[test]
    fn bptree_matches_btreemap(ops in prop::collection::vec((0u8..3, 0u64..500), 1..400)) {
        let pool = Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(512), 32));
        let mut tree = BPlusTree::new(pool).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for (op, k) in ops {
            let key = Key128::new(k / 3, k);
            let mut val = [0u8; vp_bptree::VALUE_LEN];
            val[..8].copy_from_slice(&k.to_le_bytes());
            match op {
                0 => {
                    let a = tree.insert(key, val).unwrap();
                    let b = reference.insert(key, val).is_none();
                    prop_assert_eq!(a, b);
                }
                1 => {
                    let a = tree.delete(key).unwrap();
                    let b = reference.remove(&key).is_some();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    prop_assert_eq!(tree.get(key).unwrap(), reference.get(&key).copied());
                }
            }
            prop_assert_eq!(tree.len(), reference.len());
        }
    }
}

proptest! {
    // Index-vs-oracle equivalence is expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TPR*-tree and Bx-tree match the oracle on arbitrary
    /// insert/query mixes.
    #[test]
    fn indexes_match_oracle(objs in prop::collection::vec(arb_object(0), 20..120),
                            centers in prop::collection::vec(arb_point(1e5), 3..8),
                            radius in 500.0..20_000.0_f64,
                            qt in 120.0..240.0_f64) {
        // qt >= 120 = the max object reference time: moving-object
        // indexes answer present/future queries only (see the
        // MovingObjectIndex::range_query contract).
        let pool = Arc::new(BufferPool::new(DiskManager::new()));
        let mut tpr = TprTree::new(Arc::clone(&pool), TprConfig::default());
        let mut bx = BxTree::new(Arc::clone(&pool), BxConfig {
            hist_cells: 60,
            ..BxConfig::default()
        }).unwrap();
        let mut oracle = ScanIndex::new();
        for (i, o) in objs.iter().enumerate() {
            let obj = MovingObject::new(i as u64, o.pos, o.vel, o.ref_time);
            tpr.insert(obj).unwrap();
            bx.insert(obj).unwrap();
            oracle.insert(obj).unwrap();
        }
        for c in centers {
            let q = RangeQuery::time_slice(
                QueryRegion::Circle(Circle::new(
                    Point::new(c.x.abs(), c.y.abs()), radius)), qt);
            let mut want = MovingObjectIndex::range_query(&oracle, &q).unwrap();
            want.sort_unstable();
            let mut a = tpr.range_query(&q).unwrap();
            a.sort_unstable();
            prop_assert_eq!(&a, &want, "TPR* diverged");
            let mut b = bx.range_query(&q).unwrap();
            b.sort_unstable();
            prop_assert_eq!(&b, &want, "Bx diverged");
        }
    }
}
