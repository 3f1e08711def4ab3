//! The Bx-tree read path, shared between the live tree and its
//! lock-free snapshots.
//!
//! `BxView` (crate-private) bundles the query planner's state
//! (configuration, curve, velocity histogram, bucket census) with any
//! `BtreeRead`
//! implementor and runs the window-enlargement planning against it.
//! A single query, a batch and a kNN ring are all read the same way:
//! their curve ranges in every live bucket feed one B+-tree sweep that
//! reads each page at most once. The live
//! [`BxTree`] builds a view over its own `BPlusTree` for every query;
//! [`BxSnapshot`] owns a clone of the planner state plus a
//! [`BPlusTreeSnapshot`], so its queries touch no shared mutable state
//! at all and need no coordination with writers mutating the live
//! tree.
//!
//! [`BxTree`]: crate::tree::BxTree

use std::collections::BTreeMap;

use vp_bptree::{BPlusTree, BPlusTreeSnapshot, Key128, Value};
use vp_core::{IndexError, IndexResult, IndexSnapshot, MovingObject, ObjectId, RangeQuery};
use vp_geom::{Point, Rect};
use vp_storage::{IoStats, StorageResult};

use crate::curve::merge_sorted;
use crate::grid::VelocityGrid;
use crate::tree::{subtract_ranges, BxConfig, BxEnlargement, BxTree, CellSpan, Curve};

/// Ordered key access to a B+-tree — implemented by the live
/// [`BPlusTree`] and by [`BPlusTreeSnapshot`], so the Bx-tree query
/// paths are written once and run against either.
pub(crate) trait BtreeRead {
    /// Answers many key ranges in one shared sweep that reads each
    /// page at most once; contract as [`BPlusTree::range_scan_batch`].
    fn scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize>;
}

impl BtreeRead for BPlusTree {
    fn scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        BPlusTree::range_scan_batch(self, ranges, f)
    }
}

impl BtreeRead for BPlusTreeSnapshot {
    fn scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        BPlusTreeSnapshot::range_scan_batch(self, ranges, f)
    }
}

/// Read-only Bx-tree operations over any `(planner state, B+-tree)`
/// pair: the live tree or a committed snapshot. Semantics (and code)
/// are identical either way — only where the state comes from differs.
pub(crate) struct BxView<'a, B> {
    pub config: &'a BxConfig,
    pub curve: &'a Curve,
    pub hist: &'a VelocityGrid,
    pub buckets: &'a BTreeMap<u64, usize>,
    pub btree: &'a B,
}

impl<'a, B> BxView<'a, B> {
    fn label_of(&self, seq: u64) -> f64 {
        BxTree::label_cfg(self.config, seq)
    }

    fn cell_of(&self, p: Point) -> (u32, u32) {
        BxTree::cell_cfg(self.config, p)
    }

    /// Clamps a window's corners into the domain (degenerating to an
    /// edge strip when fully outside — clamped object cells live there).
    fn clamp_window(&self, w: &Rect) -> Rect {
        let d = &self.config.domain;
        Rect {
            lo: w.lo.max(d.lo).min(d.hi),
            hi: w.hi.max(d.lo).min(d.hi),
        }
    }

    /// The domain rectangle of a histogram cell at a pyramid level,
    /// with edge cells extended to infinity — positions outside the
    /// domain clamp onto the boundary cells of both grids, so those
    /// cells stand in for everything beyond the edge.
    fn hist_cell_rect_extended(&self, level: usize, hx: usize, hy: usize) -> Rect {
        let mut r = self.hist.cell_rect_at(level, hx, hy);
        let n = self.hist.cells_per_axis_at(level);
        if hx == 0 {
            r.lo.x = f64::NEG_INFINITY;
        }
        if hy == 0 {
            r.lo.y = f64::NEG_INFINITY;
        }
        if hx + 1 == n {
            r.hi.x = f64::INFINITY;
        }
        if hy + 1 == n {
            r.hi.y = f64::INFINITY;
        }
        r
    }

    /// Collects the curve-grid regions that could hold a candidate for
    /// one bucket — see the long-form discussion on
    /// [`BxTree::enlarged_windows`] and the module docs of
    /// [`crate::tree`]. Descends the histogram's bounds pyramid,
    /// pruning regions whose coarse velocity bounds cannot reach the
    /// query, and yields each qualifying finest-level cell's curve
    /// cells as one inclusive rectangle.
    ///
    /// Returns `(cell rectangles, bounding box in domain space)`, or
    /// `None` when nothing qualifies.
    pub fn qualifying_regions(
        &self,
        query: &RangeQuery,
        label: f64,
    ) -> Option<(Vec<CellSpan>, Rect)> {
        let samples = BxTree::sample_rects(query, label);
        self.hist.global_bounds()?;
        let mut spans = Vec::new();
        let mut bbox = Rect::EMPTY;
        let root = self.hist.levels() - 1;
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, 0, 0)];
        while let Some((level, hx, hy)) = stack.pop() {
            let Some(bounds) = self.hist.cell_bounds_at(level, hx, hy) else {
                continue;
            };
            let reach = BxTree::reach_bbox(&samples, label, bounds);
            let region = self
                .hist_cell_rect_extended(level, hx, hy)
                .intersection(&reach);
            if region.is_empty() {
                continue;
            }
            if level > 0 {
                let child_n = self.hist.cells_per_axis_at(level - 1);
                for dy in 0..2usize {
                    for dx in 0..2usize {
                        let (cx, cy) = (hx * 2 + dx, hy * 2 + dy);
                        if cx < child_n && cy < child_n {
                            stack.push((level - 1, cx, cy));
                        }
                    }
                }
                continue;
            }
            // Clamping maps out-of-domain strips onto the boundary
            // cells, mirroring how label positions clamp.
            let clamped = self.clamp_window(&region);
            let (cx0, cy0) = self.cell_of(clamped.lo);
            let (cx1, cy1) = self.cell_of(clamped.hi);
            spans.push((cx0, cy0, cx1, cy1));
            bbox = bbox.union(&clamped);
        }
        if spans.is_empty() {
            None
        } else {
            Some((spans, bbox))
        }
    }

    /// The curve-value ranges a query scans in bucket `seq` — the
    /// qualifying-region computation plus the enlargement strategy's
    /// decomposition, shared by the single, batched, and incremental
    /// query paths (all three must agree exactly: the incremental kNN
    /// path subtracts an earlier probe's ranges by recomputing them
    /// through this function). Ranges are disjoint, merged, and
    /// ascending, and cover exactly the strategy's cells: nothing
    /// outside the enlarged window is scanned. `None` when no cell
    /// qualifies.
    fn scan_ranges(&self, query: &RangeQuery, seq: u64) -> Option<Vec<(u64, u64)>> {
        let label = self.label_of(seq);
        let (spans, _bbox) = self.qualifying_regions(query, label)?;
        let ranges = match self.config.enlargement {
            BxEnlargement::Window => {
                // The paper's single enlarged window: the bounding
                // rectangle of all qualifying cells, decomposed into
                // curve ranges.
                let (mut cx0, mut cy0, mut cx1, mut cy1) = spans[0];
                for &(ax0, ay0, ax1, ay1) in &spans {
                    cx0 = cx0.min(ax0);
                    cy0 = cy0.min(ay0);
                    cx1 = cx1.max(ax1);
                    cy1 = cy1.max(ay1);
                }
                self.curve.ranges(cx0, cy0, cx1, cy1)
            }
            BxEnlargement::CellSet => {
                // Ablation: linearize exactly the qualifying cells
                // (cells shared by several spans merge away).
                let mut values: Vec<u64> = Vec::new();
                for &(ax0, ay0, ax1, ay1) in &spans {
                    for cy in ay0..=ay1 {
                        for cx in ax0..=ax1 {
                            values.push(self.curve.encode(cx, cy));
                        }
                    }
                }
                values.sort_unstable();
                merge_sorted(values.into_iter().map(|v| (v, v)))
            }
        };
        Some(ranges)
    }
}

impl<'a, B: BtreeRead> BxView<'a, B> {
    /// The one read path: gathers the key ranges of `probes` probes
    /// across **all** live buckets — probe `p`'s curve ranges in bucket
    /// `seq` are `ranges_of(p, seq)` — and answers them in one
    /// [`BPlusTree::range_scan_batch`] sweep, which reads each page at
    /// most once however many ranges, probes and buckets share it.
    /// `f(probe, key, value)` sees each probe's entries in ascending
    /// key order, which (the bucket being the key's high part) is
    /// bucket-ascending too. `ranges_of` must yield disjoint ranges
    /// per probe and bucket, so no entry is reported twice to a probe.
    fn sweep(
        &self,
        probes: usize,
        ranges_of: impl Fn(usize, u64) -> Option<Vec<(u64, u64)>>,
        mut f: impl FnMut(usize, Key128, &Value),
    ) -> IndexResult<()> {
        let mut key_ranges: Vec<(Key128, Key128)> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        for &seq in self.buckets.keys() {
            let seq_base = seq << (2 * self.config.lambda);
            for p in 0..probes {
                for (a, b) in ranges_of(p, seq).into_iter().flatten() {
                    key_ranges.push((
                        Key128::new(seq_base | a, 0),
                        Key128::new(seq_base | b, u64::MAX),
                    ));
                    owner.push(p);
                }
            }
        }
        self.btree
            .scan_batch(&key_ranges, |ri, k, v| f(owner[ri], k, v))
            .map_err(IndexError::from)?;
        Ok(())
    }

    /// Exact range query: a batch of one; contract as
    /// [`vp_core::MovingObjectIndex::range_query`].
    pub fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        let mut results = self.range_query_batch(std::slice::from_ref(query))?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Every query's curve ranges in every bucket, answered by one
    /// shared sweep: a leaf holding candidates for N overlapping
    /// queries is fetched once, not N times. Per query the result is
    /// identical to [`BxView::range_query`] — same candidates, same
    /// exact filter, same key-ascending order.
    pub fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        let mut results: Vec<Vec<ObjectId>> = vec![Vec::new(); queries.len()];
        self.sweep(
            queries.len(),
            |qi, seq| self.scan_ranges(&queries[qi], seq),
            |qi, k, v| {
                let (pos, vel, lab) = BxTree::decode_value(v);
                if queries[qi].matches(&MovingObject::new(k.lo, pos, vel, lab)) {
                    results[qi].push(k.lo);
                }
            },
        )?;
        Ok(results)
    }

    /// Incremental kNN candidates: sweeps only the **delta ring** — the
    /// current probe's curve ranges minus the ranges the `covered`
    /// probe already swept (recomputed, deterministically, rather than
    /// remembered), in every bucket at once — and reports every id in
    /// it without exact filtering; contract as
    /// [`vp_core::MovingObjectIndex::knn_candidates`].
    pub fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        let mut out = Vec::new();
        self.sweep(
            1,
            |_, seq| {
                let ranges = self.scan_ranges(query, seq)?;
                Some(match covered.and_then(|c| self.scan_ranges(c, seq)) {
                    Some(done) => subtract_ranges(&ranges, &done),
                    None => ranges,
                })
            },
            |_, k, _| out.push(k.lo),
        )?;
        Ok(out)
    }
}

/// A point-in-time, read-only handle on a [`BxTree`]: the query
/// planner's state as of snapshot creation plus a
/// [`BPlusTreeSnapshot`] serving that epoch's pages.
///
/// Queries run against it with no coordination with — and no
/// visibility into — writers mutating the live tree, and acquire **no
/// shared locks** for pages resident when the snapshot was taken. Safe
/// to share across reader threads. Obtained via
/// [`vp_core::SnapshotIndex::snapshot`] on [`BxTree`].
pub struct BxSnapshot {
    pub(crate) config: BxConfig,
    pub(crate) curve: Curve,
    pub(crate) hist: VelocityGrid,
    pub(crate) buckets: BTreeMap<u64, usize>,
    pub(crate) btree: BPlusTreeSnapshot,
    pub(crate) len: usize,
}

impl BxSnapshot {
    /// The committed pool epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.btree.epoch()
    }

    fn view(&self) -> BxView<'_, BPlusTreeSnapshot> {
        BxView {
            config: &self.config,
            curve: &self.curve,
            hist: &self.hist,
            buckets: &self.buckets,
            btree: &self.btree,
        }
    }
}

impl IndexSnapshot for BxSnapshot {
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        self.view().range_query(query)
    }

    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        self.view().range_query_batch(queries)
    }

    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        self.view().knn_candidates(query, covered)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn io_stats(&self) -> IoStats {
        self.btree.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vp_core::{MovingObjectIndex, QueryRegion, SnapshotIndex};
    use vp_geom::Circle;
    use vp_storage::{BufferPool, DiskManager};

    use super::*;
    use crate::tree::BxTree;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(512),
            64,
        ))
    }

    fn small_config() -> BxConfig {
        BxConfig {
            domain: Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0),
            lambda: 8,
            hist_cells: 64,
            ..BxConfig::default()
        }
    }

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

    fn random_objects(n: usize, seed: u64, max_speed: f64, t: f64) -> Vec<MovingObject> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|i| {
                MovingObject::new(
                    i as u64,
                    Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0),
                    Point::new(
                        (rng.next() - 0.5) * 2.0 * max_speed,
                        (rng.next() - 0.5) * 2.0 * max_speed,
                    ),
                    t,
                )
            })
            .collect()
    }

    fn queries(n: usize, seed: u64, t: f64) -> Vec<RangeQuery> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|_| {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, 1_100.0)), t)
            })
            .collect()
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BxSnapshot>();
    }

    #[test]
    fn snapshot_isolated_from_later_ticks() {
        let objs = random_objects(600, 0x5EED, 60.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let qs = queries(20, 0xCAFE, 10.0);
        let baseline = t.range_query_batch(&qs).unwrap();
        let knn_probe = &qs[0];
        let baseline_knn = t.knn_candidates(knn_probe, None).unwrap();

        let snap = t.snapshot().unwrap();
        assert_eq!(snap.len(), 600);

        // Move every object far into later buckets, add and remove some.
        let moved: Vec<MovingObject> = objs
            .iter()
            .map(|o| MovingObject::new(o.id, o.position_at(90.0), o.vel, 90.0))
            .collect();
        t.update_batch(&moved).unwrap();
        t.delete(0).unwrap();
        t.insert(MovingObject::new(
            7_777,
            Point::new(5_000.0, 5_000.0),
            Point::new(1.0, 1.0),
            90.0,
        ))
        .unwrap();

        // Bit-identical to the quiesced pre-tick answers: same ids,
        // same order.
        assert_eq!(snap.range_query_batch(&qs).unwrap(), baseline);
        for (q, want) in qs.iter().zip(&baseline) {
            assert_eq!(&IndexSnapshot::range_query(&snap, q).unwrap(), want);
        }
        assert_eq!(
            IndexSnapshot::knn_candidates(&snap, knn_probe, None).unwrap(),
            baseline_knn
        );
        assert_eq!(snap.len(), 600, "snapshot census unaffected");

        // A fresh snapshot observes the post-tick state.
        let snap2 = t.snapshot().unwrap();
        assert_eq!(snap2.len(), 600);
        assert_eq!(
            snap2.range_query_batch(&queries(20, 0xCAFE, 95.0)).unwrap(),
            t.range_query_batch(&queries(20, 0xCAFE, 95.0)).unwrap()
        );
    }

    #[test]
    fn snapshot_readable_while_writer_thread_ticks() {
        let objs = random_objects(400, 0xF00D, 50.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let qs = queries(8, 0xBEEF, 5.0);
        let baseline = t.range_query_batch(&qs).unwrap();
        let snap = t.snapshot().unwrap();

        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..12 {
                    assert_eq!(snap.range_query_batch(&qs).unwrap(), baseline);
                }
            });
            for round in 1..=5 {
                let at = round as f64 * 25.0;
                let moved: Vec<MovingObject> = objs
                    .iter()
                    .map(|o| MovingObject::new(o.id, o.position_at(at), o.vel, at))
                    .collect();
                t.update_batch(&moved).unwrap();
                t.publish_epoch();
            }
        });
        assert_eq!(t.len(), 400);
    }

    /// The read entry points and the logical page counter of the live
    /// tree or of a snapshot.
    trait Reads {
        fn range(&self, q: &RangeQuery) -> Vec<ObjectId>;
        fn batch(&self, qs: &[RangeQuery]) -> Vec<Vec<ObjectId>>;
        fn knn(&self, q: &RangeQuery, covered: Option<&RangeQuery>) -> Vec<ObjectId>;
        fn reads(&self) -> u64;
    }

    impl Reads for BxTree {
        fn range(&self, q: &RangeQuery) -> Vec<ObjectId> {
            MovingObjectIndex::range_query(self, q).unwrap()
        }
        fn batch(&self, qs: &[RangeQuery]) -> Vec<Vec<ObjectId>> {
            MovingObjectIndex::range_query_batch(self, qs).unwrap()
        }
        fn knn(&self, q: &RangeQuery, covered: Option<&RangeQuery>) -> Vec<ObjectId> {
            MovingObjectIndex::knn_candidates(self, q, covered).unwrap()
        }
        fn reads(&self) -> u64 {
            MovingObjectIndex::io_stats(self).logical_reads
        }
    }

    impl Reads for BxSnapshot {
        fn range(&self, q: &RangeQuery) -> Vec<ObjectId> {
            IndexSnapshot::range_query(self, q).unwrap()
        }
        fn batch(&self, qs: &[RangeQuery]) -> Vec<Vec<ObjectId>> {
            IndexSnapshot::range_query_batch(self, qs).unwrap()
        }
        fn knn(&self, q: &RangeQuery, covered: Option<&RangeQuery>) -> Vec<ObjectId> {
            IndexSnapshot::knn_candidates(self, q, covered).unwrap()
        }
        fn reads(&self) -> u64 {
            IndexSnapshot::io_stats(self).logical_reads
        }
    }

    /// A single query is a batch of one — same ids, same order, same
    /// logical page reads — and a kNN probe chain (probe n covered by
    /// probe n − 1) reports exactly the union of its probes' standalone
    /// candidates.
    fn assert_one_read_path(label: &str, x: &impl Reads, qs: &[RangeQuery], probes: &[RangeQuery]) {
        let mut answered = 0;
        for (qi, q) in qs.iter().enumerate() {
            let r0 = x.reads();
            let single = x.range(q);
            let r1 = x.reads();
            let batch = x.batch(std::slice::from_ref(q)).pop().unwrap();
            let r2 = x.reads();
            assert_eq!(single, batch, "{label}: query {qi} ids");
            assert_eq!(r1 - r0, r2 - r1, "{label}: query {qi} logical reads");
            answered += usize::from(!single.is_empty());
        }
        assert!(answered > qs.len() / 2, "{label}: most queries answer ids");
        let mut chain = std::collections::BTreeSet::new();
        let mut standalone = std::collections::BTreeSet::new();
        for (n, probe) in probes.iter().enumerate() {
            chain.extend(x.knn(probe, n.checked_sub(1).map(|c| &probes[c])));
            standalone.extend(x.knn(probe, None));
            assert_eq!(chain, standalone, "{label}: kNN chain through probe {n}");
        }
        assert!(!chain.is_empty(), "{label}: the probes found candidates");
    }

    /// 3 000 objects, of which a third report again in the next time
    /// bucket, so several buckets are live.
    fn two_bucket_tree() -> BxTree {
        let objs = random_objects(3_000, 0x0E5, 60.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let later: Vec<MovingObject> = objs
            .iter()
            .step_by(3)
            .map(|o| MovingObject::new(o.id, o.position_at(70.0), o.vel, 70.0))
            .collect();
        t.update_batch(&later).unwrap();
        t
    }

    #[test]
    fn every_query_shape_reads_through_one_sweep() {
        let t = two_bucket_tree();
        let snap = t.snapshot().unwrap();
        assert!(snap.buckets.len() >= 2, "several live buckets");
        assert!(t.btree_height() >= 3, "height {}", t.btree_height());

        let qs = queries(24, 0x0F1E, 75.0);
        let center = Point::new(5_000.0, 5_000.0);
        let probes: Vec<RangeQuery> = [250.0, 600.0, 1_400.0, 3_000.0]
            .iter()
            .map(|&r| RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), 75.0))
            .collect();
        assert_one_read_path("live", &t, &qs, &probes);
        assert_one_read_path("snapshot", &snap, &qs, &probes);
    }

    /// In `Window` mode the curve values a query plans in a bucket are
    /// exactly the cells of that bucket's enlarged window, enumerated
    /// cell by cell: the sweep reads no leaf for a cell outside it.
    #[test]
    fn a_query_plans_exactly_its_enlarged_window() {
        let t = two_bucket_tree();
        let snap = t.snapshot().unwrap();
        let view = snap.view();
        assert_eq!(view.config.enlargement, BxEnlargement::Window);
        for (qi, q) in queries(24, 0x3A7E, 75.0).iter().enumerate() {
            let windows = t.enlarged_windows(q);
            assert_eq!(windows.len(), view.buckets.len(), "query {qi}");
            for w in &windows {
                let at = format!("query {qi}, bucket {}", w.bucket_seq);
                let ranges = view.scan_ranges(q, w.bucket_seq).expect(&at);
                let planned: Vec<u64> = ranges.into_iter().flat_map(|(a, b)| a..=b).collect();
                let (cx0, cy0) = view.cell_of(w.enlarged.lo);
                let (cx1, cy1) = view.cell_of(w.enlarged.hi);
                let mut cells = Vec::new();
                for cy in cy0..=cy1 {
                    for cx in cx0..=cx1 {
                        cells.push(view.curve.encode(cx, cy));
                    }
                }
                cells.sort_unstable();
                assert_eq!(planned.len(), cells.len(), "{at}: planned values");
                assert!(planned == cells, "{at}: planned values differ");
            }
        }
    }
}
