//! The Bx-tree read path, shared between the live tree and its
//! lock-free snapshots.
//!
//! `BxView` (crate-private) bundles the query planner's state
//! (configuration, curve, velocity histogram, bucket census) with any
//! `BtreeRead`
//! implementor and runs the window-enlargement planning against it.
//! A single query, a batch and a kNN ring are all read the same way:
//! their curve ranges in every live bucket feed one B+-tree sweep that
//! reads each page at most once.
//!
//! Planning a probe is one descent of the velocity-bounds pyramid for
//! all live buckets at once (a kNN ring's covered probe rides in the
//! same descent). Each pyramid cell carries a bitmask of the (probe,
//! bucket) pairs still alive under it; a pair keeps its own enlarged
//! window, and in `CellSet` mode its own qualifying cells. The buckets
//! share one grid and differ only in label time, so a cell's bounds
//! are read once for all of them, and each pair's plan is exactly what
//! a descent of its own would find. The curve ranges are then walked
//! in curve order straight into the sweep's key ranges. One scratch
//! per sweep holds the stack and the pairs, so planning allocates
//! nothing per bucket or per cell.
//!
//! The live [`BxTree`] builds a view over its own `BPlusTree` for
//! every query; [`BxSnapshot`] owns a clone of the planner state plus
//! a [`BPlusTreeSnapshot`], so its queries touch no shared mutable
//! state at all and need no coordination with writers mutating the
//! live tree.
//!
//! [`BxTree`]: crate::tree::BxTree

use std::collections::BTreeMap;

use vp_bptree::{BPlusTree, BPlusTreeSnapshot, Key128, Value};
use vp_core::{IndexError, IndexResult, IndexSnapshot, MovingObject, ObjectId, RangeQuery};
use vp_geom::{Point, Rect, Vec2};
use vp_storage::{IoStats, StorageResult};

use crate::curve::{HilbertCurve, Merge};
use crate::grid::VelocityGrid;
use crate::tree::{subtract_ranges, BxConfig, BxEnlargement, BxTree, EnlargedWindow};

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
    pub curve: &'a HilbertCurve,
    pub hist: &'a VelocityGrid,
    pub buckets: &'a BTreeMap<u64, usize>,
    pub btree: &'a B,
}

/// (Probe, bucket) pairs one descent carries: one bit each of a
/// pyramid cell's alive mask.
const PAIRS_PER_DESCENT: usize = u64::BITS as usize;

/// One (probe, bucket) pair of a descent.
struct Pair {
    seq: u64,
    label: f64,
    /// The probe's sample rectangles at `label`, the first `samples.1`
    /// of them; see [`BxTree::sample_rects`].
    samples: ([(f64, Rect); 3], usize),
    /// Bounding box of the pair's qualifying regions, clamped into the
    /// domain: its enlarged window. Empty when no cell qualifies.
    bbox: Rect,
}

/// A pyramid cell on the descent stack: the pairs still alive at it,
/// and its velocity bounds, read before it was pushed.
struct Frame {
    level: usize,
    hx: usize,
    hy: usize,
    alive: u64,
    bounds: (Vec2, Vec2),
}

/// Scratch that every plan of one sweep reuses.
#[derive(Default)]
struct Plan {
    /// The current descent's pairs, bucket-major.
    pairs: Vec<Pair>,
    stack: Vec<Frame>,
    /// `CellSet` only: `(pair, curve value)` of every qualifying curve
    /// cell, sorted when the descent ends.
    cells: Vec<(usize, u64)>,
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

    /// One descent of the histogram's bounds pyramid for every pair of
    /// `plan` — see the long-form discussion on
    /// [`BxTree::enlarged_windows`] and the module docs of
    /// [`crate::tree`]. A cell is tested only for the pairs its parent
    /// qualified for: it qualifies for a pair when its rectangle meets
    /// the reach of the pair's samples under the cell's (coarse,
    /// superset) velocity bounds. Each qualifying finest-level cell
    /// widens the pair's `bbox`, and in `CellSet` mode lists its curve
    /// cells. Per pair this is exactly a descent of its own. Returns
    /// the pyramid cells whose bounds it read.
    fn descend(&self, plan: &mut Plan) -> usize {
        let Plan {
            pairs,
            stack,
            cells,
        } = plan;
        debug_assert!((1..=PAIRS_PER_DESCENT).contains(&pairs.len()));
        cells.clear();
        let cell_set = self.config.enlargement == BxEnlargement::CellSet;
        let hist = self.hist;
        let (d, n) = (*hist.domain(), hist.cells_per_axis());
        let (cw, ch) = (d.width() / n as f64, d.height() / n as f64);
        let root = hist.levels() - 1;
        let mut read = 1;
        if let Some(bounds) = hist.cell_bounds_at(root, 0, 0) {
            stack.push(Frame {
                level: root,
                hx: 0,
                hy: 0,
                alive: u64::MAX >> (PAIRS_PER_DESCENT - pairs.len()),
                bounds,
            });
        }
        while let Some(Frame {
            level,
            hx,
            hy,
            alive,
            bounds,
        }) = stack.pop()
        {
            // The cell's domain rectangle, edge cells extended to
            // infinity: positions outside the domain clamp onto the
            // boundary cells of both grids, so those cells stand in for
            // everything beyond the edge.
            let last = hist.cells_per_axis_at(level) - 1;
            let side = |c: usize, lo: f64, w: f64| match c {
                0 => f64::NEG_INFINITY,
                c if c > last => f64::INFINITY,
                c => lo + (c << level) as f64 * w,
            };
            let rect = Rect {
                lo: Point::new(side(hx, d.lo.x, cw), side(hy, d.lo.y, ch)),
                hi: Point::new(side(hx + 1, d.lo.x, cw), side(hy + 1, d.lo.y, ch)),
            };
            let mut next = 0u64;
            let mut bits = alive;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pair = &mut pairs[i];
                let samples = &pair.samples.0[..pair.samples.1];
                let region = rect.intersection(&BxTree::reach_bbox(samples, pair.label, bounds));
                if region.is_empty() {
                    continue;
                }
                next |= 1 << i;
                if level > 0 {
                    continue;
                }
                // Clamping maps out-of-domain strips onto the boundary
                // cells, mirroring how label positions clamp.
                let clamped = self.clamp_window(&region);
                pair.bbox = pair.bbox.union(&clamped);
                if cell_set {
                    let (cx0, cy0) = self.cell_of(clamped.lo);
                    let (cx1, cy1) = self.cell_of(clamped.hi);
                    for cy in cy0..=cy1 {
                        for cx in cx0..=cx1 {
                            cells.push((i, self.curve.encode(cx, cy)));
                        }
                    }
                }
            }
            if level == 0 || next == 0 {
                continue;
            }
            let child_n = hist.cells_per_axis_at(level - 1);
            for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let (cx, cy) = (hx * 2 + dx, hy * 2 + dy);
                if cx < child_n && cy < child_n {
                    read += 1;
                    if let Some(bounds) = hist.cell_bounds_at(level - 1, cx, cy) {
                        stack.push(Frame {
                            level: level - 1,
                            hx: cx,
                            hy: cy,
                            alive: next,
                            bounds,
                        });
                    }
                }
            }
        }
        cells.sort_unstable();
        read
    }

    /// Plans `probes` in every live bucket: pair `b * probes.len() + p`
    /// of a descent is probe `p` in its `b`-th bucket, and one descent
    /// carries up to [`PAIRS_PER_DESCENT`] pairs. Calls `each(plan,
    /// first)` per bucket, ascending, with the index of the bucket's
    /// first pair. Returns the pyramid cells read.
    fn descend_buckets(
        &self,
        probes: &[&RangeQuery],
        plan: &mut Plan,
        mut each: impl FnMut(&Plan, usize),
    ) -> usize {
        let mut read = 0;
        let mut seqs = self.buckets.keys().copied().peekable();
        while seqs.peek().is_some() {
            plan.pairs.clear();
            for seq in seqs.by_ref().take(PAIRS_PER_DESCENT / probes.len()) {
                let label = self.label_of(seq);
                plan.pairs.extend(probes.iter().map(|q| Pair {
                    seq,
                    label,
                    samples: BxTree::sample_rects(q, label),
                    bbox: Rect::EMPTY,
                }));
            }
            read += self.descend(plan);
            for first in (0..plan.pairs.len()).step_by(probes.len()) {
                each(plan, first);
            }
        }
        read
    }

    /// Pair `i`'s curve ranges, handed to `emit` disjoint, merged and
    /// ascending; nothing outside the strategy's cells is scanned.
    fn pair_ranges(&self, plan: &Plan, i: usize, emit: impl FnMut(u64, u64)) {
        let bbox = plan.pairs[i].bbox;
        if bbox.is_empty() {
            return;
        }
        match self.config.enlargement {
            BxEnlargement::Window => {
                // The paper's single enlarged window: the bounding
                // rectangle of all qualifying cells (cell coordinates
                // are monotone in position, so these are the cells of
                // the bounding box), decomposed into curve ranges.
                let (cx0, cy0) = self.cell_of(bbox.lo);
                let (cx1, cy1) = self.cell_of(bbox.hi);
                self.curve.for_each_range((cx0, cy0, cx1, cy1), emit);
            }
            BxEnlargement::CellSet => {
                // Ablation: linearize exactly the qualifying cells
                // (cells shared by several regions merge away).
                let from = plan.cells.partition_point(|&(p, _)| p < i);
                let to = plan.cells.partition_point(|&(p, _)| p <= i);
                let mut merge = Merge::new(emit);
                for &(_, v) in &plan.cells[from..to] {
                    merge.push(v, v);
                }
                merge.finish();
            }
        }
    }

    /// Plans one probe in every live bucket and hands `emit(seq, lo,
    /// hi)` its curve ranges, buckets ascending and each bucket's
    /// ranges ascending — the shape every read path scans. With
    /// `covered`, that probe rides in the same descent and only the
    /// ring is emitted: the probe's ranges minus the covered probe's.
    /// Returns the pyramid cells read.
    fn plan_probe(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
        plan: &mut Plan,
        mut emit: impl FnMut(u64, u64, u64),
    ) -> usize {
        let Some(covered) = covered else {
            return self.descend_buckets(&[query], plan, |plan, i| {
                let seq = plan.pairs[i].seq;
                self.pair_ranges(plan, i, |a, b| emit(seq, a, b));
            });
        };
        let (mut ring, mut done) = (Vec::new(), Vec::new());
        self.descend_buckets(&[query, covered], plan, |plan, i| {
            ring.clear();
            done.clear();
            self.pair_ranges(plan, i, |a, b| ring.push((a, b)));
            self.pair_ranges(plan, i + 1, |a, b| done.push((a, b)));
            let seq = plan.pairs[i].seq;
            subtract_ranges(&ring, &done, |a, b| emit(seq, a, b));
        })
    }

    /// Contract as [`BxTree::enlarged_windows`].
    pub fn enlarged_windows(&self, query: &RangeQuery) -> Vec<EnlargedWindow> {
        let base = query.region.bounding_rect();
        let mut windows = Vec::new();
        self.descend_buckets(&[query], &mut Plan::default(), |plan, i| {
            let pair = &plan.pairs[i];
            if !pair.bbox.is_empty() {
                windows.push(EnlargedWindow {
                    bucket_seq: pair.seq,
                    label: pair.label,
                    base,
                    enlarged: pair.bbox,
                });
            }
        });
        windows
    }
}

impl<'a, B: BtreeRead> BxView<'a, B> {
    /// The one read path: plans every probe — a query, or a kNN probe
    /// and the probe it covers — across **all** live buckets, and
    /// answers every curve range in one
    /// [`BPlusTree::range_scan_batch`] sweep, which reads each page at
    /// most once however many ranges, probes and buckets share it.
    /// `f(probe, key, value)` sees each probe's entries in ascending
    /// key order, which (the bucket being the key's high part) is
    /// bucket-ascending too. A probe's ranges are disjoint, so no entry
    /// is reported twice to a probe.
    fn sweep<'q>(
        &self,
        probes: impl IntoIterator<Item = (&'q RangeQuery, Option<&'q RangeQuery>)>,
        mut f: impl FnMut(usize, Key128, &Value),
    ) -> IndexResult<()> {
        let shift = 2 * self.config.lambda;
        let mut plan = Plan::default();
        let mut key_ranges: Vec<(Key128, Key128)> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        for (p, (query, covered)) in probes.into_iter().enumerate() {
            self.plan_probe(query, covered, &mut plan, |seq, a, b| {
                let seq_base = seq << shift;
                key_ranges.push((
                    Key128::new(seq_base | a, 0),
                    Key128::new(seq_base | b, u64::MAX),
                ));
                owner.push(p);
            });
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
        self.sweep(queries.iter().map(|q| (q, None)), |qi, k, v| {
            let (pos, vel, lab) = BxTree::decode_value(v);
            if queries[qi].matches(&MovingObject::new(k.lo, pos, vel, lab)) {
                results[qi].push(k.lo);
            }
        })?;
        Ok(results)
    }

    /// Incremental kNN candidates: sweeps only the **delta ring** — the
    /// current probe's curve ranges minus the ranges the `covered`
    /// probe already swept (planned again in the same descent rather
    /// than remembered), in every bucket at once — and reports every id
    /// in it without exact filtering; contract as
    /// [`vp_core::MovingObjectIndex::knn_candidates`].
    pub fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        let mut out = Vec::new();
        self.sweep([(query, covered)], |_, k, _| out.push(k.lo))?;
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
    pub(crate) curve: HilbertCurve,
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
        two_bucket_tree_with(small_config())
    }

    fn two_bucket_tree_with(config: BxConfig) -> BxTree {
        let objs = random_objects(3_000, 0x0E5, 60.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), config, &objs).unwrap();
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

    /// A probe's planned curve ranges per live bucket (buckets with
    /// none left out), and the pyramid cells the plan read.
    fn plan_of<B>(
        view: &BxView<'_, B>,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> (BTreeMap<u64, Vec<(u64, u64)>>, usize) {
        let mut planned: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let read = view.plan_probe(query, covered, &mut Plan::default(), |seq, a, b| {
            planned.entry(seq).or_default().push((a, b));
        });
        (planned, read)
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
            let (mut planned, _) = plan_of(&view, q, None);
            for w in &windows {
                let at = format!("query {qi}, bucket {}", w.bucket_seq);
                let ranges = planned.remove(&w.bucket_seq).expect(&at);
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

    /// An inclusive rectangle of curve-grid cells, `(cx0, cy0, cx1,
    /// cy1)`.
    type CellSpan = (u32, u32, u32, u32);

    /// The per-bucket planner the shared descent replaced, kept as its
    /// oracle: one descent of the bounds pyramid for one probe at one
    /// bucket's label time. Returns the qualifying finest cells' curve
    /// cells (none when nothing qualifies), their bounding box in
    /// domain space, and the pyramid cells whose bounds it read.
    fn oracle_regions<B>(
        view: &BxView<'_, B>,
        query: &RangeQuery,
        label: f64,
    ) -> (Vec<CellSpan>, Rect, usize) {
        let (samples, n) = BxTree::sample_rects(query, label);
        let hist = view.hist;
        let (mut spans, mut bbox, mut read) = (Vec::new(), Rect::EMPTY, 0);
        if hist.global_bounds().is_none() {
            return (spans, bbox, read);
        }
        let mut stack: Vec<(usize, usize, usize)> = vec![(hist.levels() - 1, 0, 0)];
        while let Some((level, hx, hy)) = stack.pop() {
            read += 1;
            let Some(bounds) = hist.cell_bounds_at(level, hx, hy) else {
                continue;
            };
            let reach = BxTree::reach_bbox(&samples[..n], label, bounds);
            let mut cell = hist.cell_rect_at(level, hx, hy);
            let last = hist.cells_per_axis_at(level) - 1;
            if hx == 0 {
                cell.lo.x = f64::NEG_INFINITY;
            }
            if hy == 0 {
                cell.lo.y = f64::NEG_INFINITY;
            }
            if hx == last {
                cell.hi.x = f64::INFINITY;
            }
            if hy == last {
                cell.hi.y = f64::INFINITY;
            }
            let region = cell.intersection(&reach);
            if region.is_empty() {
                continue;
            }
            if level > 0 {
                let child_n = hist.cells_per_axis_at(level - 1);
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
            let clamped = view.clamp_window(&region);
            let (cx0, cy0) = view.cell_of(clamped.lo);
            let (cx1, cy1) = view.cell_of(clamped.hi);
            spans.push((cx0, cy0, cx1, cy1));
            bbox = bbox.union(&clamped);
        }
        (spans, bbox, read)
    }

    /// The oracle's curve ranges for one probe in bucket `seq`, and the
    /// pyramid cells it read.
    fn oracle_ranges<B>(
        view: &BxView<'_, B>,
        query: &RangeQuery,
        seq: u64,
    ) -> (Vec<(u64, u64)>, usize) {
        let (spans, _, read) = oracle_regions(view, query, view.label_of(seq));
        let mut ranges = Vec::new();
        let Some(&first) = spans.first() else {
            return (ranges, read);
        };
        match view.config.enlargement {
            BxEnlargement::Window => {
                let (mut cx0, mut cy0, mut cx1, mut cy1) = first;
                for &(ax0, ay0, ax1, ay1) in &spans {
                    cx0 = cx0.min(ax0);
                    cy0 = cy0.min(ay0);
                    cx1 = cx1.max(ax1);
                    cy1 = cy1.max(ay1);
                }
                view.curve
                    .for_each_range((cx0, cy0, cx1, cy1), |a, b| ranges.push((a, b)));
            }
            BxEnlargement::CellSet => {
                let mut values = Vec::new();
                for &(ax0, ay0, ax1, ay1) in &spans {
                    for cy in ay0..=ay1 {
                        for cx in ax0..=ax1 {
                            values.push(view.curve.encode(cx, cy));
                        }
                    }
                }
                values.sort_unstable();
                let mut merge = Merge::new(|a, b| ranges.push((a, b)));
                for v in values {
                    merge.push(v, v);
                }
                merge.finish();
            }
        }
        (ranges, read)
    }

    /// Seeded time-slice, interval and moving queries, some reaching
    /// past the domain's edge. The interval and moving ones span bucket
    /// 1's label (60) but not bucket 2's (120), so a plan samples one,
    /// two or three rectangles.
    fn mixed_queries(n: usize, seed: u64) -> Vec<RangeQuery> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|i| {
                let c = Point::new(rng.next() * 11_000.0 - 500.0, rng.next() * 11_000.0 - 500.0);
                let r = 300.0 + rng.next() * 1_200.0;
                match i % 3 {
                    0 => RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, r)), 75.0),
                    1 => RangeQuery::time_interval(
                        QueryRegion::Rect(Rect::centered(c, r, r)),
                        50.0,
                        90.0,
                    ),
                    _ => RangeQuery::moving(
                        QueryRegion::Circle(Circle::new(c, r)),
                        Point::new(rng.next() * 40.0 - 20.0, rng.next() * 40.0 - 20.0),
                        40.0,
                        100.0,
                    ),
                }
            })
            .collect()
    }

    /// Seeded kNN probe chains: circles of growing radius at time 75,
    /// each probe covering the one before.
    fn knn_chains(n: usize, seed: u64) -> Vec<Vec<RangeQuery>> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|_| {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                [250.0, 600.0, 1_400.0, 3_000.0]
                    .iter()
                    .map(|&r| RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, r)), 75.0))
                    .collect()
            })
            .collect()
    }

    /// Every query's plan per bucket, and its enlarged windows, equal
    /// the per-bucket oracle's; every kNN ring's plan equals the
    /// oracle's plan of the probe minus its plan of the covered probe.
    fn assert_plans_match_oracle<B>(
        at: &str,
        view: &BxView<'_, B>,
        qs: &[RangeQuery],
        chains: &[Vec<RangeQuery>],
    ) {
        let mut planned_ranges = 0;
        for (qi, q) in qs.iter().enumerate() {
            let mut want = BTreeMap::new();
            let mut want_windows = Vec::new();
            for &seq in view.buckets.keys() {
                let (ranges, _) = oracle_ranges(view, q, seq);
                if !ranges.is_empty() {
                    want.insert(seq, ranges);
                }
                let label = view.label_of(seq);
                let (_, bbox, _) = oracle_regions(view, q, label);
                if !bbox.is_empty() {
                    want_windows.push((seq, label, bbox));
                }
            }
            let (planned, _) = plan_of(view, q, None);
            assert_eq!(planned, want, "{at}: query {qi} ranges");
            planned_ranges += planned.values().map(Vec::len).sum::<usize>();
            let windows: Vec<(u64, f64, Rect)> = view
                .enlarged_windows(q)
                .iter()
                .map(|w| (w.bucket_seq, w.label, w.enlarged))
                .collect();
            assert_eq!(windows, want_windows, "{at}: query {qi} enlarged windows");
        }
        assert!(planned_ranges > qs.len(), "{at}: queries plan ranges");
        let mut ring_ranges = 0;
        for (ci, chain) in chains.iter().enumerate() {
            for (n, w) in chain.windows(2).enumerate() {
                let (probe, covered) = (&w[1], &w[0]);
                let mut want = BTreeMap::new();
                for &seq in view.buckets.keys() {
                    let mut ring = Vec::new();
                    subtract_ranges(
                        &oracle_ranges(view, probe, seq).0,
                        &oracle_ranges(view, covered, seq).0,
                        |a, b| ring.push((a, b)),
                    );
                    if !ring.is_empty() {
                        want.insert(seq, ring);
                    }
                }
                let (planned, _) = plan_of(view, probe, Some(covered));
                assert_eq!(planned, want, "{at}: chain {ci} ring {n}");
                ring_ranges += planned.values().map(Vec::len).sum::<usize>();
            }
        }
        assert!(ring_ranges > chains.len(), "{at}: rings plan ranges");
    }

    #[test]
    fn one_descent_plans_what_per_bucket_descents_plan() {
        let qs = mixed_queries(30, 0x0DE5C);
        let samples: Vec<usize> = qs[..3]
            .iter()
            .map(|q| BxTree::sample_rects(q, 60.0).1)
            .collect();
        assert_eq!(samples, [1, 3, 3], "sample rectangles per query shape");
        let chains = knn_chains(6, 0x417);
        for enlargement in [BxEnlargement::Window, BxEnlargement::CellSet] {
            let t = two_bucket_tree_with(BxConfig {
                enlargement,
                ..small_config()
            });
            let snap = t.snapshot().unwrap();
            assert!(snap.buckets.len() >= 2, "several live buckets");
            let at = format!("{enlargement:?}");
            assert_plans_match_oracle(&format!("{at} live"), &t.view(), &qs, &chains);
            assert_plans_match_oracle(&format!("{at} snapshot"), &snap.view(), &qs, &chains);
        }
        // 70 live buckets: a plan takes two descents, a ring three.
        let config = BxConfig {
            num_buckets: 70,
            update_interval: 70.0,
            ..small_config()
        };
        let objs: Vec<MovingObject> = random_objects(700, 0x3B0C, 5.0, 0.0)
            .iter()
            .enumerate()
            .map(|(i, o)| MovingObject::new(o.id, o.pos, o.vel, (i % 70) as f64))
            .collect();
        let t = BxTree::bulk_load(pool(), config, &objs).unwrap();
        assert_eq!(t.snapshot().unwrap().buckets.len(), 70);
        assert_plans_match_oracle("70 buckets", &t.view(), &qs, &chains);
    }

    /// Pyramid cells the shared descents read to plan the 30 queries of
    /// `pyramid_cells_of_a_plan_are_pinned` on `two_bucket_tree`
    /// (Hilbert, `Window`, two live buckets). PR 31 measured 47 782,
    /// against 64 076 for the per-bucket descents it replaced (1.34×;
    /// two buckets bound the saving at 2×).
    const RANGE_PLAN_CELLS: usize = 47_782;
    /// The per-bucket oracle's count for the same 30 plans (PR 31).
    const RANGE_ORACLE_CELLS: usize = 64_076;
    /// Pyramid cells the shared descents read to plan the 18 kNN rings
    /// of the same test, each descent carrying the ring's probe and the
    /// probe it covers. PR 31 measured 25 706, against 56 568 for
    /// planning both probes bucket by bucket (2.20×).
    const KNN_RING_PLAN_CELLS: usize = 25_706;
    /// The per-bucket oracle's count for the same 18 rings (PR 31).
    const KNN_RING_ORACLE_CELLS: usize = 56_568;
    /// A ring's shared descent reads at least this many times fewer
    /// pyramid cells than planning its two probes bucket by bucket.
    const KNN_RING_CELLS_SAVING_MIN: usize = 2;

    #[test]
    fn pyramid_cells_of_a_plan_are_pinned() {
        let t = two_bucket_tree();
        let view = t.view();
        let oracle = |q: &RangeQuery| -> usize {
            view.buckets
                .keys()
                .map(|&seq| oracle_ranges(&view, q, seq).1)
                .sum()
        };
        let (mut range_plan, mut range_oracle) = (0, 0);
        for q in &mixed_queries(30, 0x0DE5C) {
            range_plan += plan_of(&view, q, None).1;
            range_oracle += oracle(q);
        }
        let (mut ring_plan, mut ring_oracle) = (0, 0);
        for chain in &knn_chains(6, 0x417) {
            for w in chain.windows(2) {
                ring_plan += plan_of(&view, &w[1], Some(&w[0])).1;
                ring_oracle += oracle(&w[1]) + oracle(&w[0]);
            }
        }
        assert_eq!(
            (range_plan, range_oracle),
            (RANGE_PLAN_CELLS, RANGE_ORACLE_CELLS)
        );
        assert_eq!(
            (ring_plan, ring_oracle),
            (KNN_RING_PLAN_CELLS, KNN_RING_ORACLE_CELLS)
        );
        assert!(ring_oracle >= KNN_RING_CELLS_SAVING_MIN * ring_plan);
    }
}
