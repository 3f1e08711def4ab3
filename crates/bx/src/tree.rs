//! The Bx-tree proper.
//!
//! Key construction (Section 3.2): time is partitioned into buckets of
//! `update_interval / num_buckets` timestamps. An object inserted at
//! time `t` belongs to the bucket containing `t`; its position is
//! projected forward to the bucket's *label timestamp* (the bucket's
//! end), mapped to a grid cell, and linearized by a space-filling
//! curve. The B+-tree key is `(bucket_seq ‖ curve_value, object_id)` —
//! packing the object id into the key's low half sidesteps duplicate
//! keys when objects share a cell.
//!
//! Queries enlarge their window per live bucket: the window is pushed
//! to the bucket's label time using min/max velocities from the
//! velocity histogram. Rather than one global enlargement, each
//! histogram cell is qualified with *its own* recorded velocity bounds
//! (the refinement spirit of Jensen et al., MDM 2006 — reference \[14\]
//! of the paper), so a distant speeder cannot inflate unrelated
//! queries. The qualifying cells decompose into contiguous curve
//! ranges scanned on the B+-tree, and candidates are exact-filtered.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vp_bptree::{BPlusTree, BatchOp, Key128, Value};
use vp_core::{
    IndexError, IndexResult, MovingObject, MovingObjectIndex, ObjectId, RangeQuery, SnapshotIndex,
};
use vp_geom::{Point, Rect, Vec2};
use vp_storage::{BufferPool, IoStats};

use crate::curve::HilbertCurve;
use crate::grid::VelocityGrid;
use crate::snapshot::{BxSnapshot, BxView};

/// Bx-tree configuration.
#[derive(Debug, Clone)]
pub struct BxConfig {
    /// Data domain mapped onto the curve grid.
    pub domain: Rect,
    /// Bits per axis of the curve grid (`2^lambda` cells per axis).
    pub lambda: u32,
    /// Number of time buckets (the paper uses 2).
    pub num_buckets: u32,
    /// Maximum update interval Δt_mu (paper Table 1: 120 ts).
    pub update_interval: f64,
    /// Velocity histogram cells per axis (paper: 1000).
    pub hist_cells: usize,
    /// How the enlarged region is turned into B+-tree scans.
    pub enlargement: BxEnlargement,
}

/// Strategy for scanning the velocity-enlarged query region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BxEnlargement {
    /// Scan the single bounding window of all qualifying cells — the
    /// paper's behaviour ("the enlarged query window"), including its
    /// drawback that a few fast objects make the window unnecessarily
    /// large for everyone else.
    Window,
    /// Scan only the qualifying cells themselves (tighter; an
    /// improvement over the paper, kept as an ablation).
    CellSet,
}

impl Default for BxConfig {
    fn default() -> Self {
        BxConfig {
            domain: Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0),
            lambda: 10,
            num_buckets: 2,
            update_interval: 120.0,
            hist_cells: 1000,
            enlargement: BxEnlargement::Window,
        }
    }
}

/// One bucket's enlarged query window (diagnostics for the paper's
/// Figure 7: query expansion rates).
#[derive(Debug, Clone, Copy)]
pub struct EnlargedWindow {
    /// Bucket sequence number.
    pub bucket_seq: u64,
    /// The bucket's label timestamp.
    pub label: f64,
    /// Query window before enlargement.
    pub base: Rect,
    /// Window after velocity enlargement to the label timestamp.
    pub enlarged: Rect,
}

/// The Bx-tree, a [`MovingObjectIndex`] over a paged B+-tree.
pub struct BxTree {
    config: BxConfig,
    curve: HilbertCurve,
    btree: BPlusTree,
    hist: VelocityGrid,
    /// Live object count per bucket sequence number.
    buckets: BTreeMap<u64, usize>,
    /// Lookup table: object id -> its current B+-tree key.
    keys: HashMap<ObjectId, Key128>,
    now: f64,
}

impl BxTree {
    fn validate_config(config: &BxConfig) {
        assert!(
            config.lambda >= 1 && config.lambda <= 20,
            "lambda out of range"
        );
        assert!(config.num_buckets >= 1, "need at least one time bucket");
        assert!(
            config.update_interval > 0.0,
            "update interval must be positive"
        );
    }

    /// Creates an empty Bx-tree over the shared buffer pool.
    pub fn new(pool: Arc<BufferPool>, config: BxConfig) -> IndexResult<BxTree> {
        Self::validate_config(&config);
        let curve = HilbertCurve::new(config.lambda);
        let hist = VelocityGrid::new(config.domain, config.hist_cells);
        let btree = BPlusTree::new(pool)?;
        Ok(BxTree {
            config,
            curve,
            btree,
            hist,
            buckets: BTreeMap::new(),
            keys: HashMap::new(),
            now: 0.0,
        })
    }

    /// Builds a Bx-tree from a snapshot of objects via B+-tree bulk
    /// loading: every object's key is computed up front, the entries
    /// are sorted once, and the underlying tree is packed
    /// left-to-right without any per-object root descent. Equivalent
    /// to inserting every object individually, much cheaper.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        config: BxConfig,
        objects: &[MovingObject],
    ) -> IndexResult<BxTree> {
        Self::validate_config(&config);
        let curve = HilbertCurve::new(config.lambda);
        let mut hist = VelocityGrid::new(config.domain, config.hist_cells);
        let mut keys = HashMap::with_capacity(objects.len());
        let mut buckets = BTreeMap::new();
        let mut entries: Vec<(Key128, Value)> = Vec::with_capacity(objects.len());
        let mut now = 0.0f64;
        for obj in objects {
            now = now.max(obj.ref_time);
            let seq = Self::bucket_seq_cfg(&config, obj.ref_time);
            let label = Self::label_cfg(&config, seq);
            let pos_label = obj.position_at(label);
            let (cx, cy) = Self::cell_cfg(&config, pos_label);
            let key = Self::make_key_cfg(&config, seq, curve.encode(cx, cy), obj.id);
            if keys.insert(obj.id, key).is_some() {
                return Err(IndexError::DuplicateObject(obj.id));
            }
            *buckets.entry(seq).or_insert(0) += 1;
            hist.record(pos_label, obj.vel);
            entries.push((key, Self::encode_value(pos_label, obj.vel, label)));
        }
        entries.sort_unstable_by_key(|(k, _)| *k);
        let btree = BPlusTree::bulk_load(pool, entries).map_err(IndexError::from)?;
        Ok(BxTree {
            config,
            curve,
            btree,
            hist,
            buckets,
            keys,
            now,
        })
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BxConfig {
        &self.config
    }

    /// Height of the underlying B+-tree.
    pub fn btree_height(&self) -> u8 {
        self.btree.height()
    }

    /// Bucket duration Δt_mu / n.
    fn bucket_duration_cfg(config: &BxConfig) -> f64 {
        config.update_interval / config.num_buckets as f64
    }

    /// The bucket holding insertion time `t` (1-based so label > t - ε).
    fn bucket_seq_cfg(config: &BxConfig, t: f64) -> u64 {
        (t / Self::bucket_duration_cfg(config)).floor() as u64 + 1
    }

    fn bucket_seq(&self, t: f64) -> u64 {
        Self::bucket_seq_cfg(&self.config, t)
    }

    /// Label timestamp (end) of a bucket.
    pub(crate) fn label_cfg(config: &BxConfig, seq: u64) -> f64 {
        seq as f64 * Self::bucket_duration_cfg(config)
    }

    fn label_of(&self, seq: u64) -> f64 {
        Self::label_cfg(&self.config, seq)
    }

    /// Cell coordinates of a position on the curve grid (clamped).
    pub(crate) fn cell_cfg(config: &BxConfig, p: Point) -> (u32, u32) {
        let side = (1u32 << config.lambda) as f64;
        let d = &config.domain;
        let fx = ((p.x - d.lo.x) / d.width()).clamp(0.0, 1.0);
        let fy = ((p.y - d.lo.y) / d.height()).clamp(0.0, 1.0);
        let cx = ((fx * side) as u32).min(side as u32 - 1);
        let cy = ((fy * side) as u32).min(side as u32 - 1);
        (cx, cy)
    }

    fn cell_of(&self, p: Point) -> (u32, u32) {
        Self::cell_cfg(&self.config, p)
    }

    fn make_key_cfg(config: &BxConfig, seq: u64, curve_value: u64, id: ObjectId) -> Key128 {
        Key128::new((seq << (2 * config.lambda)) | curve_value, id)
    }

    fn make_key(&self, seq: u64, curve_value: u64, id: ObjectId) -> Key128 {
        Self::make_key_cfg(&self.config, seq, curve_value, id)
    }

    /// The bucket sequence number packed into a B+-tree key.
    fn seq_of_key(&self, key: Key128) -> u64 {
        key.hi >> (2 * self.config.lambda)
    }

    /// Drops one object from a bucket's live count.
    fn bucket_decrement(&mut self, seq: u64) {
        if let Some(n) = self.buckets.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                self.buckets.remove(&seq);
            }
        }
    }

    fn encode_value(pos: Point, vel: Vec2, label: f64) -> Value {
        let mut v = [0u8; vp_bptree::VALUE_LEN];
        v[0..8].copy_from_slice(&pos.x.to_le_bytes());
        v[8..16].copy_from_slice(&pos.y.to_le_bytes());
        v[16..24].copy_from_slice(&vel.x.to_le_bytes());
        v[24..32].copy_from_slice(&vel.y.to_le_bytes());
        v[32..40].copy_from_slice(&label.to_le_bytes());
        v
    }

    pub(crate) fn decode_value(v: &Value) -> (Point, Vec2, f64) {
        let f = |r: std::ops::Range<usize>| f64::from_le_bytes(v[r].try_into().unwrap());
        (
            Point::new(f(0..8), f(8..16)),
            Point::new(f(16..24), f(24..32)),
            f(32..40),
        )
    }

    /// Per-axis window enlargement: where must an object indexed at the
    /// label time have been, given it lies in `rect` at the query time
    /// and moves within `bounds`? (`s` = label − query time; both signs
    /// supported.)
    fn enlarge(rect: &Rect, s: f64, bounds: (Vec2, Vec2)) -> Rect {
        let (vlo, vhi) = bounds;
        let lo_shift = |vl: f64, vh: f64| (vl * s).min(vh * s);
        let hi_shift = |vl: f64, vh: f64| (vl * s).max(vh * s);
        Rect {
            lo: Point::new(
                rect.lo.x + lo_shift(vlo.x, vhi.x),
                rect.lo.y + lo_shift(vlo.y, vhi.y),
            ),
            hi: Point::new(
                rect.hi.x + hi_shift(vlo.x, vhi.x),
                rect.hi.y + hi_shift(vlo.y, vhi.y),
            ),
        }
    }

    /// Sample times at which the enlargement must be evaluated so that
    /// its bounding box covers every instant of the query window. The
    /// reach rectangle's corners are piecewise-linear in `t` with a
    /// single kink at `t = label` (where the enlargement changes sign),
    /// so the endpoints plus that kink suffice: the first `n` of the
    /// returned `(samples, n)`, at most three.
    pub(crate) fn sample_rects(query: &RangeQuery, label: f64) -> ([(f64, Rect); 3], usize) {
        let region = query.region.bounding_rect();
        let sample = |te: f64| {
            let d = query.velocity * (te - query.region_ref_time);
            let rect = Rect {
                lo: region.lo + d,
                hi: region.hi + d,
            };
            (te, rect)
        };
        let mut samples = [sample(query.t_start); 3];
        let mut n = 1;
        if !query.is_time_slice() {
            samples[1] = sample(query.t_end);
            n = 2;
            if label > query.t_start && label < query.t_end {
                samples[2] = sample(label);
                n = 3;
            }
        }
        (samples, n)
    }

    /// Bounding box of the enlargement over all sample times for the
    /// given velocity bounds — a sound superset of where a candidate's
    /// label position can be.
    pub(crate) fn reach_bbox(samples: &[(f64, Rect)], label: f64, bounds: (Vec2, Vec2)) -> Rect {
        let mut w = Rect::EMPTY;
        for (te, r) in samples {
            w = w.union(&Self::enlarge(r, label - te, bounds));
        }
        w
    }

    /// A read view over the live planner state and B+-tree — the
    /// machinery shared with [`BxSnapshot`]; see [`crate::snapshot`].
    pub(crate) fn view(&self) -> BxView<'_, BPlusTree> {
        BxView {
            config: &self.config,
            curve: &self.curve,
            hist: &self.hist,
            buckets: &self.buckets,
            btree: &self.btree,
        }
    }

    /// The enlarged windows a query would scan, per live bucket —
    /// diagnostics for the paper's Figure 7 (query expansion rates).
    /// `enlarged` is the bounding box of the qualifying cells: a curve
    /// cell qualifies when an object indexed there (its label position
    /// falls in the cell) moving within the velocity bounds *recorded
    /// for its histogram cell* could intersect the query region at
    /// some endpoint — the "enlarge according to the max/min velocity
    /// in the region it covers" rule of Section 3.2, evaluated per
    /// histogram cell. This is sound (every candidate's label position
    /// lies in exactly one histogram cell, whose bounds cover its
    /// velocity) and keeps a distant speeder from inflating unrelated
    /// queries. One pyramid descent plans every bucket, exactly as a
    /// query's scan plans them.
    pub fn enlarged_windows(&self, query: &RangeQuery) -> Vec<EnlargedWindow> {
        self.view().enlarged_windows(query)
    }

    /// Rebuilds the velocity histogram from the indexed objects
    /// (supports the periodic-rebuild maintenance strategy; deletions
    /// otherwise leave the histogram conservatively loose).
    pub fn rebuild_histogram(&mut self) -> IndexResult<()> {
        self.hist.reset();
        let mut records = Vec::with_capacity(self.keys.len());
        self.btree
            .range_scan(Key128::MIN, Key128::MAX, |_k, v| {
                let (pos, vel, _label) = Self::decode_value(v);
                records.push((pos, vel));
            })
            .map_err(IndexError::from)?;
        for (pos, vel) in records {
            self.hist.record(pos, vel);
        }
        Ok(())
    }
}

/// A single op is its checks plus a batch of one, so a bare Bx-tree
/// is maintained exactly as a Bx sub-index of a VP index is.
impl MovingObjectIndex for BxTree {
    fn insert(&mut self, obj: MovingObject) -> IndexResult<()> {
        if self.keys.contains_key(&obj.id) {
            return Err(IndexError::DuplicateObject(obj.id));
        }
        self.update_batch(std::slice::from_ref(&obj))
    }

    fn delete(&mut self, id: ObjectId) -> IndexResult<()> {
        self.remove_batch(&[id])
    }

    /// One B+-tree batch (delete old key + put new key), not the trait
    /// default's two.
    fn update(&mut self, obj: MovingObject) -> IndexResult<()> {
        if !self.keys.contains_key(&obj.id) {
            return Err(IndexError::UnknownObject(obj.id));
        }
        self.update_batch(std::slice::from_ref(&obj))
    }

    /// Batched per-tick maintenance: the implied delete-old-key /
    /// insert-new-key pairs of the whole tick are gathered, sorted
    /// into B+-tree key order, and applied through
    /// [`BPlusTree::apply_batch`] — one descent and one page write per
    /// touched leaf instead of per object. Objects whose key is
    /// unchanged (same bucket, same curve cell) degenerate to an
    /// in-place value overwrite.
    fn update_batch(&mut self, updates: &[MovingObject]) -> IndexResult<()> {
        // Last write wins within one tick.
        let mut latest: HashMap<ObjectId, usize> = HashMap::with_capacity(updates.len());
        for (i, obj) in updates.iter().enumerate() {
            latest.insert(obj.id, i);
        }
        let mut ops: Vec<(Key128, BatchOp)> = Vec::with_capacity(updates.len() * 2);
        for (i, obj) in updates.iter().enumerate() {
            if latest[&obj.id] != i {
                continue;
            }
            self.now = self.now.max(obj.ref_time);
            let seq = self.bucket_seq(obj.ref_time);
            let label = self.label_of(seq);
            let pos_label = obj.position_at(label);
            let (cx, cy) = self.cell_of(pos_label);
            let new_key = self.make_key(seq, self.curve.encode(cx, cy), obj.id);
            let value = Self::encode_value(pos_label, obj.vel, label);
            match self.keys.insert(obj.id, new_key) {
                Some(old_key) if old_key != new_key => {
                    ops.push((old_key, BatchOp::Delete));
                    let old_seq = self.seq_of_key(old_key);
                    self.bucket_decrement(old_seq);
                    *self.buckets.entry(seq).or_insert(0) += 1;
                }
                Some(_) => {} // same cell and bucket: value overwrite
                None => *self.buckets.entry(seq).or_insert(0) += 1,
            }
            ops.push((new_key, BatchOp::Put(value)));
            self.hist.record(pos_label, obj.vel);
        }
        // Keys are unique across ops: every key carries its object id
        // in the low half, and per object old != new here.
        ops.sort_unstable_by_key(|(k, _)| *k);
        let out = self.btree.apply_batch(&ops).map_err(IndexError::from)?;
        debug_assert_eq!(out.missing, 0, "lookup table out of sync with B+-tree");
        Ok(())
    }

    /// Batched deletion: all doomed keys are sorted and removed in one
    /// leaf walk via [`BPlusTree::apply_batch`].
    fn remove_batch(&mut self, ids: &[ObjectId]) -> IndexResult<()> {
        // Resolve every id before mutating any bookkeeping, so an
        // unknown or duplicated id rejects the whole batch and leaves
        // the index untouched.
        let mut ops: Vec<(Key128, BatchOp)> = Vec::with_capacity(ids.len());
        for &id in ids {
            let Some(&key) = self.keys.get(&id) else {
                return Err(IndexError::UnknownObject(id));
            };
            ops.push((key, BatchOp::Delete));
        }
        ops.sort_unstable_by_key(|(k, _)| *k);
        if let Some(w) = ops.windows(2).find(|w| w[0].0 == w[1].0) {
            // Keys embed the object id, so equal keys = duplicated id.
            return Err(IndexError::DuplicateObject(w[0].0.lo));
        }
        for &id in ids {
            let key = self.keys.remove(&id).expect("resolved above");
            let seq = self.seq_of_key(key);
            self.bucket_decrement(seq);
        }
        let out = self.btree.apply_batch(&ops).map_err(IndexError::from)?;
        debug_assert_eq!(
            out.deleted,
            ops.len(),
            "lookup table out of sync with B+-tree"
        );
        Ok(())
    }

    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        self.view().range_query(query)
    }

    /// One shared sweep for the whole batch; see `BxView::range_query_batch`.
    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        self.view().range_query_batch(queries)
    }

    /// One sweep of the delta ring; see `BxView::knn_candidates`.
    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        self.view().knn_candidates(query, covered)
    }

    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
        let Some(key) = self.keys.get(&id) else {
            return Ok(None);
        };
        // Propagate storage errors instead of collapsing them into
        // "absent": a known key whose leaf read fails is an I/O
        // failure, not a miss.
        let Some(value) = self.btree.get(*key).map_err(IndexError::from)? else {
            return Ok(None);
        };
        let (pos, vel, label) = Self::decode_value(&value);
        Ok(Some(MovingObject::new(id, pos, vel, label)))
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn io_stats(&self) -> IoStats {
        self.btree.io_stats()
    }

    fn reset_io_stats(&self) {
        self.btree.reset_io_stats();
    }

    fn flush_storage(&self) -> IndexResult<()> {
        self.btree.checkpoint().map_err(IndexError::from)
    }

    fn publish_epoch(&self) {
        self.btree.publish_epoch();
    }
}

impl SnapshotIndex for BxTree {
    type Snapshot = BxSnapshot;

    /// Captures the tree's current state: the query planner's state
    /// (configuration, curve, velocity histogram, bucket census) is
    /// cloned under `&self`, and the underlying B+-tree publishes its
    /// writes as a fresh committed pool epoch and pins it. Cheap — no
    /// page copies; resident pages are shared by refcount.
    fn snapshot(&self) -> IndexResult<BxSnapshot> {
        Ok(BxSnapshot {
            config: self.config.clone(),
            curve: self.curve,
            hist: self.hist.clone(),
            buckets: self.buckets.clone(),
            btree: self.btree.snapshot(),
            len: self.keys.len(),
        })
    }
}

/// Interval-set difference `a \ b` over inclusive `(lo, hi)` u64
/// ranges, handed to `emit`. Both inputs must be disjoint and
/// ascending (the shape the scan-range decomposition produces); the
/// result is too.
pub(crate) fn subtract_ranges(a: &[(u64, u64)], b: &[(u64, u64)], mut emit: impl FnMut(u64, u64)) {
    let mut bi = 0usize;
    for &(alo, ahi) in a {
        // Blockers entirely before this range can never matter again.
        while bi < b.len() && b[bi].1 < alo {
            bi += 1;
        }
        let mut lo = alo;
        let mut covered_tail = false;
        // A blocker may span several `a` ranges, so scan from `bi`
        // without consuming it.
        let mut j = bi;
        while let Some(&(blo, bhi)) = b.get(j) {
            if blo > ahi {
                break;
            }
            if lo < blo {
                emit(lo, blo - 1);
            }
            if bhi >= ahi {
                covered_tail = true;
                break;
            }
            lo = bhi + 1;
            j += 1;
        }
        if !covered_tail && lo <= ahi {
            emit(lo, ahi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_core::QueryRegion;
    use vp_geom::Circle;
    use vp_storage::DiskManager;

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

    fn tree() -> BxTree {
        BxTree::new(pool(), small_config()).unwrap()
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BxTree>();
    }

    fn obj(id: u64, x: f64, y: f64, vx: f64, vy: f64, t: f64) -> MovingObject {
        MovingObject::new(id, Point::new(x, y), Point::new(vx, vy), t)
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
        (0..n as u64)
            .map(|id| {
                let x = rng.next() * 10_000.0;
                let y = rng.next() * 10_000.0;
                let ang = rng.next() * std::f64::consts::TAU;
                let speed = rng.next() * max_speed;
                obj(id, x, y, ang.cos() * speed, ang.sin() * speed, t)
            })
            .collect()
    }

    #[test]
    fn bucket_and_label_arithmetic() {
        let t = tree();
        // Default: 120 / 2 = 60 ts buckets.
        assert_eq!(t.bucket_seq(0.0), 1);
        assert_eq!(t.label_of(t.bucket_seq(0.0)), 60.0);
        assert_eq!(t.bucket_seq(59.9), 1);
        assert_eq!(t.bucket_seq(60.0), 2);
        assert_eq!(t.label_of(t.bucket_seq(60.0)), 120.0);
    }

    #[test]
    fn insert_query_basic() {
        let mut t = tree();
        t.insert(obj(1, 5_000.0, 5_000.0, 10.0, 0.0, 0.0)).unwrap();
        t.insert(obj(2, 1_000.0, 1_000.0, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(t.len(), 2);
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(5_000.0, 5_000.0), 100.0)),
            0.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![1]);
        // Predictive query at t=50: object 1 has moved 500 m right.
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(5_500.0, 5_000.0), 100.0)),
            50.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![1]);
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let mut t = tree();
        t.insert(obj(1, 0.0, 0.0, 0.0, 0.0, 0.0)).unwrap();
        assert!(matches!(
            t.insert(obj(1, 1.0, 1.0, 0.0, 0.0, 0.0)),
            Err(IndexError::DuplicateObject(1))
        ));
        assert!(matches!(t.delete(7), Err(IndexError::UnknownObject(7))));
    }

    #[test]
    fn matches_scan_on_random_workload() {
        let mut t = tree();
        let objs = random_objects(500, 0xB0B, 100.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x9);
        for qi in 0..40 {
            let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
            let tq = (qi % 7) as f64 * 10.0;
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, 600.0)), tq);
            let mut got = t.range_query(&q).unwrap();
            let mut want: Vec<u64> = objs.iter().filter(|o| q.matches(o)).map(|o| o.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} (t={tq}) diverged");
        }
    }

    #[test]
    fn objects_in_multiple_buckets() {
        let mut t = tree();
        // Insert at different times spanning several buckets.
        let mut all = Vec::new();
        for (i, ti) in [(0u64, 0.0), (1, 30.0), (2, 61.0), (3, 100.0), (4, 125.0)] {
            let o = obj(i, 3_000.0 + i as f64 * 10.0, 3_000.0, 5.0, 5.0, ti);
            t.insert(o).unwrap();
            all.push(o);
        }
        assert!(t.buckets.len() >= 2, "expected several live buckets");
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(3_700.0, 3_650.0), 800.0)),
            130.0,
        );
        let mut got = t.range_query(&q).unwrap();
        let mut want: Vec<u64> = all.iter().filter(|o| q.matches(o)).map(|o| o.id).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert!(!want.is_empty(), "test should have matches");
        assert_eq!(got, want);
    }

    #[test]
    fn interval_and_moving_queries() {
        let mut t = tree();
        let objs = random_objects(300, 0x77AA, 80.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x31337);
        for qi in 0..30 {
            let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
            let region = QueryRegion::Rect(Rect::centered(c, 400.0, 400.0));
            let q = if qi % 2 == 0 {
                RangeQuery::time_interval(region, 5.0, 40.0)
            } else {
                RangeQuery::moving(
                    region,
                    Point::new(rng.next() * 40.0 - 20.0, 10.0),
                    5.0,
                    40.0,
                )
            };
            let mut got = t.range_query(&q).unwrap();
            let mut want: Vec<u64> = objs.iter().filter(|o| q.matches(o)).map(|o| o.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} diverged");
        }
    }

    #[test]
    fn update_migrates_to_new_bucket() {
        let mut t = tree();
        t.insert(obj(1, 5_000.0, 5_000.0, 20.0, 0.0, 10.0)).unwrap();
        let seq_before = *t.buckets.keys().next().unwrap();
        // Update well into a later bucket.
        t.update(obj(1, 6_400.0, 5_000.0, -20.0, 0.0, 80.0))
            .unwrap();
        let seq_after = *t.buckets.keys().next().unwrap();
        assert!(seq_after > seq_before);
        assert_eq!(t.len(), 1);
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(6_000.0, 5_000.0), 50.0)),
            100.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![1]);
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let objs = random_objects(700, 0xB17, 80.0, 15.0);
        let bulk = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let mut incr = tree();
        for o in &objs {
            incr.insert(*o).unwrap();
        }
        assert_eq!(bulk.len(), incr.len());
        let mut rng = Rng(0x41);
        for qi in 0..30 {
            let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
            let q = RangeQuery::time_slice(
                QueryRegion::Circle(Circle::new(c, 900.0)),
                20.0 + (qi % 5) as f64 * 10.0,
            );
            let mut a = bulk.range_query(&q).unwrap();
            let mut b = incr.range_query(&q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {qi} diverged");
        }
        // Bulk-loaded trees accept further maintenance.
        let mut bulk = bulk;
        bulk.delete(0).unwrap();
        bulk.insert(obj(9_000, 5_000.0, 5_000.0, 1.0, 1.0, 15.0))
            .unwrap();
        assert_eq!(bulk.len(), incr.len());
    }

    #[test]
    fn bulk_load_rejects_duplicate_ids() {
        let objs = vec![
            obj(1, 100.0, 100.0, 1.0, 0.0, 0.0),
            obj(1, 200.0, 200.0, 0.0, 1.0, 0.0),
        ];
        assert!(matches!(
            BxTree::bulk_load(pool(), small_config(), &objs),
            Err(IndexError::DuplicateObject(1))
        ));
    }

    #[test]
    fn update_batch_matches_looped_updates() {
        let objs = random_objects(500, 0x600D, 60.0, 0.0);
        let mut batched = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let mut looped = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let mut current = objs;
        for tick in 1..=5 {
            let t = tick as f64 * 25.0; // crosses bucket boundaries
            let mut updates = Vec::new();
            for o in current.iter_mut() {
                if o.id % 4 == tick % 4 {
                    *o = MovingObject::new(o.id, o.position_at(t), o.vel, t);
                    updates.push(*o);
                }
            }
            // Plus a brand-new object (upsert path).
            let fresh = obj(10_000 + tick, 4_000.0, 4_000.0, 10.0, -5.0, t);
            updates.push(fresh);
            current.push(fresh);

            batched.update_batch(&updates).unwrap();
            for u in &updates {
                if looped.get_object(u.id).unwrap().is_some() {
                    looped.update(*u).unwrap();
                } else {
                    looped.insert(*u).unwrap();
                }
            }
            assert_eq!(batched.len(), looped.len(), "tick {tick}");

            let mut rng = Rng(tick * 77 + 1);
            for qi in 0..10 {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                let q =
                    RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, 1_200.0)), t + 5.0);
                let mut a = batched.range_query(&q).unwrap();
                let mut b = looped.range_query(&q).unwrap();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "tick {tick} query {qi} diverged");
            }
        }
    }

    #[test]
    fn update_batch_writes_fewer_pages_than_looped_updates() {
        let objs = random_objects(2_000, 0x10A, 50.0, 0.0);
        let mut batched = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let mut looped = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let updates: Vec<MovingObject> = objs
            .iter()
            .map(|o| MovingObject::new(o.id, o.position_at(70.0), o.vel, 70.0))
            .collect();

        batched.reset_io_stats();
        batched.update_batch(&updates).unwrap();
        let batch_writes = batched.io_stats().logical_writes;

        looped.reset_io_stats();
        for u in &updates {
            looped.update(*u).unwrap();
        }
        let loop_writes = looped.io_stats().logical_writes;
        assert!(
            batch_writes < loop_writes,
            "batched {batch_writes} page writes vs looped {loop_writes}"
        );
    }

    #[test]
    fn update_batch_last_write_wins() {
        let mut t = tree();
        t.update_batch(&[
            obj(7, 1_000.0, 1_000.0, 5.0, 0.0, 0.0),
            obj(7, 8_000.0, 8_000.0, 0.0, 5.0, 0.0),
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
        let got = t.get_object(7).unwrap().unwrap();
        assert!(got.pos.x > 7_000.0, "last update should win: {got:?}");
    }

    #[test]
    fn remove_batch_clears_objects_and_buckets() {
        let objs = random_objects(300, 0xDEAD, 40.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        let doomed: Vec<u64> = (0..150).collect();
        t.remove_batch(&doomed).unwrap();
        assert_eq!(t.len(), 150);
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0)),
            0.0,
        );
        let got = t.range_query(&q).unwrap();
        assert_eq!(got.len(), 150);
        assert!(got.iter().all(|id| *id >= 150));
        assert!(matches!(
            t.remove_batch(&[0]),
            Err(IndexError::UnknownObject(0))
        ));
    }

    #[test]
    fn remove_batch_is_atomic_on_bad_input() {
        let objs = random_objects(50, 0xA70, 30.0, 0.0);
        let mut t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        // One unknown id: nothing may change.
        assert!(matches!(
            t.remove_batch(&[1, 2, 999]),
            Err(IndexError::UnknownObject(999))
        ));
        assert_eq!(t.len(), 50);
        assert!(t.get_object(1).unwrap().is_some() && t.get_object(2).unwrap().is_some());
        // A duplicated id: same guarantee.
        assert!(matches!(
            t.remove_batch(&[3, 4, 3]),
            Err(IndexError::DuplicateObject(3))
        ));
        assert_eq!(t.len(), 50);
        assert!(t.get_object(3).unwrap().is_some());
        // Queries still see everything.
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0)),
            0.0,
        );
        assert_eq!(t.range_query(&q).unwrap().len(), 50);
    }

    #[test]
    fn delete_then_absent_from_queries() {
        let mut t = tree();
        let objs = random_objects(200, 0xD1E, 50.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        for o in objs.iter().take(100) {
            t.delete(o.id).unwrap();
        }
        assert_eq!(t.len(), 100);
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0)),
            0.0,
        );
        let got = t.range_query(&q).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|id| *id >= 100));
    }

    #[test]
    fn fast_outlier_far_away_does_not_bloat_local_queries() {
        // With the CellSet enlargement (our refinement), a single fast
        // object in a far corner shouldn't enlarge scans near slow
        // traffic. (The paper's Window enlargement *does* suffer from
        // this — its documented drawback — see the ablation benches.)
        let mut cfg = small_config();
        cfg.enlargement = BxEnlargement::CellSet;
        let mut slow_only = BxTree::new(pool(), cfg.clone()).unwrap();
        let mut with_fast = BxTree::new(pool(), cfg).unwrap();
        let mut objs = random_objects(300, 0xFA57, 10.0, 0.0);
        // Guarantee slow traffic right where the query looks, so the
        // enlargement windows are non-empty in both trees.
        for i in 0..20 {
            objs.push(obj(
                1_000 + i,
                1_900.0 + i as f64 * 10.0,
                2_000.0,
                5.0,
                0.0,
                0.0,
            ));
        }
        for o in &objs {
            slow_only.insert(*o).unwrap();
            with_fast.insert(*o).unwrap();
        }
        with_fast
            .insert(obj(9_999, 9_900.0, 9_900.0, 400.0, 400.0, 0.0))
            .unwrap();
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(2_000.0, 2_000.0), 300.0)),
            40.0,
        );
        assert!(!slow_only.enlarged_windows(&q).is_empty());
        // The relevant metric is the scan cost: the distant speeder may
        // add its own edge cells but must not multiply the local scan.
        slow_only.reset_io_stats();
        with_fast.reset_io_stats();
        let a = slow_only.range_query(&q).unwrap();
        let b = with_fast.range_query(&q).unwrap();
        assert_eq!(a.len(), b.len(), "same matches either way");
        let slow_io = slow_only.io_stats().logical_reads;
        let fast_io = with_fast.io_stats().logical_reads;
        assert!(
            fast_io <= slow_io * 3 + 20,
            "distant speeder bloated query I/O: {fast_io} vs {slow_io}"
        );
    }

    #[test]
    fn rebuild_histogram_tightens_after_deletes() {
        let mut t = tree();
        // A fast cohort that later disappears.
        for i in 0..50 {
            t.insert(obj(i, 5_000.0, 5_000.0, 300.0, 300.0, 0.0))
                .unwrap();
        }
        for i in 50..100 {
            t.insert(obj(i, 2_000.0, 2_000.0, 5.0, 5.0, 0.0)).unwrap();
        }
        for i in 0..50 {
            t.delete(i).unwrap();
        }
        // The slow cohort sits at (2000,2000) moving at (5,5): by t=50
        // it has reached (2250,2250).
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(2_250.0, 2_250.0), 200.0)),
            50.0,
        );
        let before: f64 = t
            .enlarged_windows(&q)
            .iter()
            .map(|w| w.enlarged.area())
            .sum();
        t.rebuild_histogram().unwrap();
        let after: f64 = t
            .enlarged_windows(&q)
            .iter()
            .map(|w| w.enlarged.area())
            .sum();
        assert!(after <= before, "rebuild should not loosen windows");
        // Queries still correct after rebuild.
        let got = t.range_query(&q).unwrap();
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn objects_leaving_domain_remain_queryable() {
        let mut t = tree();
        // Heads out of the domain; its label position clamps to the edge.
        t.insert(obj(1, 9_950.0, 5_000.0, 100.0, 0.0, 0.0)).unwrap();
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(11_950.0, 5_000.0), 100.0)),
            20.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![1]);
    }

    #[test]
    fn subtract_ranges_cases() {
        let d = |a: &[(u64, u64)], b: &[(u64, u64)]| {
            let mut out = Vec::new();
            subtract_ranges(a, b, |lo, hi| out.push((lo, hi)));
            out
        };
        assert_eq!(d(&[(5, 10)], &[]), vec![(5, 10)]);
        assert_eq!(d(&[(5, 10)], &[(5, 10)]), vec![]);
        assert_eq!(d(&[(5, 10)], &[(0, 20)]), vec![]);
        assert_eq!(d(&[(5, 10)], &[(7, 8)]), vec![(5, 6), (9, 10)]);
        assert_eq!(d(&[(5, 10)], &[(0, 5)]), vec![(6, 10)]);
        assert_eq!(d(&[(5, 10)], &[(10, 12)]), vec![(5, 9)]);
        // One blocker spanning two ranges; blockers between ranges.
        assert_eq!(d(&[(0, 10), (20, 30)], &[(8, 25)]), vec![(0, 7), (26, 30)]);
        assert_eq!(
            d(&[(0, 10), (20, 30)], &[(12, 15)]),
            vec![(0, 10), (20, 30)]
        );
        // Multiple blockers inside one range.
        assert_eq!(
            d(&[(0, 100)], &[(10, 19), (30, 39), (90, 200)]),
            vec![(0, 9), (20, 29), (40, 89)]
        );
    }

    #[test]
    fn range_query_batch_matches_looped_queries() {
        let mut t = tree();
        let objs = random_objects(600, 0xBA7C, 80.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x5EED5);
        // Overlapping hotspot circles plus a couple of far-away and
        // interval/moving queries in one batch.
        let mut queries = Vec::new();
        for qi in 0..24 {
            let c = Point::new(
                4_000.0 + rng.next() * 2_000.0,
                4_000.0 + rng.next() * 2_000.0,
            );
            let q = match qi % 3 {
                0 => RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(c, 500.0 + rng.next() * 1_000.0)),
                    (qi % 5) as f64 * 10.0,
                ),
                1 => RangeQuery::time_interval(
                    QueryRegion::Rect(Rect::centered(c, 900.0, 600.0)),
                    5.0,
                    30.0,
                ),
                _ => RangeQuery::moving(
                    QueryRegion::Circle(Circle::new(c, 700.0)),
                    Point::new(rng.next() * 30.0 - 15.0, 10.0),
                    0.0,
                    25.0,
                ),
            };
            queries.push(q);
        }
        let batched = t.range_query_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let looped = t.range_query(q).unwrap();
            assert_eq!(batched[qi], looped, "query {qi} diverged (order included)");
        }
    }

    #[test]
    fn range_query_batch_reads_fewer_pages_than_looped_queries() {
        let objs = random_objects(3_000, 0x10AD, 60.0, 0.0);
        let t = BxTree::bulk_load(pool(), small_config(), &objs).unwrap();
        // A hotspot batch: many overlapping circles over one area.
        let queries: Vec<RangeQuery> = (0..32)
            .map(|i| {
                RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(
                        Point::new(5_000.0 + (i % 8) as f64 * 60.0, 5_000.0),
                        1_200.0,
                    )),
                    10.0,
                )
            })
            .collect();

        t.reset_io_stats();
        let batched = t.range_query_batch(&queries).unwrap();
        let batched_reads = t.io_stats().logical_reads;

        t.reset_io_stats();
        let looped: Vec<Vec<u64>> = queries.iter().map(|q| t.range_query(q).unwrap()).collect();
        let looped_reads = t.io_stats().logical_reads;

        assert_eq!(batched, looped);
        assert!(
            batched_reads * 2 < looped_reads,
            "shared sweep should at least halve page reads: {batched_reads} vs {looped_reads}"
        );
    }

    #[test]
    fn knn_candidates_delta_rings_cover_matches() {
        let mut t = tree();
        let objs = random_objects(800, 0xD317A, 50.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let center = Point::new(5_000.0, 5_000.0);
        let tq = 20.0;
        // An expanding probe chain, as knn_at issues it.
        let radii = [300.0, 700.0, 1_500.0, 3_200.0];
        let mut union: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut covered: Option<RangeQuery> = None;
        let mut delta_reads = Vec::new();
        for &r in &radii {
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), tq);
            t.reset_io_stats();
            union.extend(t.knn_candidates(&q, covered.as_ref()).unwrap());
            delta_reads.push(t.io_stats().logical_reads);
            // The union over the chain covers the current probe's
            // exact matches.
            let want: std::collections::BTreeSet<u64> =
                t.range_query(&q).unwrap().into_iter().collect();
            assert!(
                union.is_superset(&want),
                "radius {r}: union misses {:?}",
                want.difference(&union).collect::<Vec<_>>()
            );
            covered = Some(q);
        }
        // And the delta rounds are cheaper than rescanning the full
        // final region from scratch.
        let final_q =
            RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, radii[3])), tq);
        t.reset_io_stats();
        t.knn_candidates(&final_q, None).unwrap();
        let full_reads = t.io_stats().logical_reads;
        assert!(
            *delta_reads.last().unwrap() < full_reads,
            "delta ring ({}) should read fewer pages than the full region ({full_reads})",
            delta_reads.last().unwrap()
        );
    }

    /// Pins the half of the `knn_candidates` contract that holds with
    /// no chain at all: a standalone call (covered = `None`) returns a
    /// superset of the exact matches, at every radius and probe time
    /// the kNN driver would use. The subscription engine's kNN path
    /// leans on this directly.
    #[test]
    fn knn_candidates_standalone_is_superset() {
        let mut t = tree();
        for o in random_objects(600, 0xCA17D, 50.0, 0.0) {
            t.insert(o).unwrap();
        }
        let center = Point::new(4_000.0, 6_000.0);
        for &tq in &[0.0, 20.0, 55.0] {
            for &r in &[250.0, 900.0, 2_500.0] {
                let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), tq);
                let got: std::collections::BTreeSet<u64> =
                    t.knn_candidates(&q, None).unwrap().into_iter().collect();
                let want: std::collections::BTreeSet<u64> =
                    t.range_query(&q).unwrap().into_iter().collect();
                assert!(
                    got.is_superset(&want),
                    "t={tq} r={r}: candidates miss {:?}",
                    want.difference(&got).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Pins the omission rule verbatim: within one expanding chain, a
    /// call may omit an id matching its probe *only* if some earlier
    /// call of the chain already returned it — a sharper per-step
    /// check than the cumulative union-superset assertion above.
    #[test]
    fn knn_candidates_chain_omissions_were_previously_returned() {
        let mut t = tree();
        for o in random_objects(800, 0xFACE1, 50.0, 0.0) {
            t.insert(o).unwrap();
        }
        let center = Point::new(5_000.0, 5_000.0);
        let tq = 20.0;
        let mut earlier: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut covered: Option<RangeQuery> = None;
        for &r in &[300.0, 700.0, 1_500.0, 3_200.0] {
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), tq);
            let returned: std::collections::BTreeSet<u64> = t
                .knn_candidates(&q, covered.as_ref())
                .unwrap()
                .into_iter()
                .collect();
            let want: std::collections::BTreeSet<u64> =
                t.range_query(&q).unwrap().into_iter().collect();
            let omitted: Vec<u64> = want.difference(&returned).copied().collect();
            assert!(
                omitted.iter().all(|id| earlier.contains(id)),
                "radius {r}: omitted ids never returned earlier: {:?}",
                omitted
                    .iter()
                    .filter(|id| !earlier.contains(id))
                    .collect::<Vec<_>>()
            );
            earlier.extend(returned);
            covered = Some(q);
        }
    }

    /// The chain contract only holds on an otherwise unmodified index;
    /// after a tick the consumer must restart with covered = `None`.
    /// Pins that a fresh chain over the post-update state is sound —
    /// what the subscription engine does on every tick.
    #[test]
    fn knn_candidates_fresh_chain_after_updates_is_sound() {
        let mut t = tree();
        let objs = random_objects(600, 0x0DDBA11, 50.0, 0.0);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        // A tick: every third object re-reports near the query center.
        let moved: Vec<MovingObject> = objs
            .iter()
            .step_by(3)
            .enumerate()
            .map(|(i, o)| {
                obj(
                    o.id,
                    4_900.0 + (i % 40) as f64 * 5.0,
                    5_000.0,
                    10.0,
                    0.0,
                    10.0,
                )
            })
            .collect();
        t.update_batch(&moved).unwrap();
        let center = Point::new(5_000.0, 5_000.0);
        let tq = 15.0;
        let mut union: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut covered: Option<RangeQuery> = None;
        for &r in &[200.0, 600.0, 1_400.0] {
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), tq);
            union.extend(t.knn_candidates(&q, covered.as_ref()).unwrap());
            let want: std::collections::BTreeSet<u64> =
                t.range_query(&q).unwrap().into_iter().collect();
            assert!(
                union.is_superset(&want),
                "radius {r}: post-update chain misses {:?}",
                want.difference(&union).collect::<Vec<_>>()
            );
            covered = Some(q);
        }
    }

    #[test]
    fn io_stats_flow_through() {
        let mut t = tree();
        for o in random_objects(200, 0x5, 50.0, 0.0) {
            t.insert(o).unwrap();
        }
        assert!(t.io_stats().logical_reads > 0);
        t.reset_io_stats();
        assert_eq!(t.io_stats(), IoStats::zero());
    }
}
