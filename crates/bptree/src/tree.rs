//! The paged B+-tree.
//!
//! ## One write engine
//!
//! Every write is [`BPlusTree::apply_batch`]: [`BPlusTree::insert`]
//! and [`BPlusTree::delete`] are batches of one. The batch walks the
//! tree once, routing each child's run of ops with one zero-copy
//! `InternalView` access per internal node, and every touched leaf
//! absorbs its run **in place** through a [`LeafViewMut`] (memmoves,
//! no decode). Only structural surgery — a leaf or internal node that
//! overflows or underflows — falls back to the decoded [`BNode`]
//! machinery, which is the rare case by design: multi-way splits into
//! `[min, max]`-sized pieces, and repairs that merge a drained node
//! into a sibling or redistribute the pair evenly.
//!
//! ## Bulk loading
//!
//! [`BPlusTree::bulk_load`] builds a tree from a sorted stream,
//! packing leaves left-to-right and stacking internal levels without
//! any per-key root descent.

use std::sync::Arc;

use vp_storage::{AtomicIoStats, BufferPool, IoStats, PageId, StorageError, StorageResult};

use crate::node::{BLayout, BNode, InternalView, Key128, LeafViewMut, Value};
use crate::view::{BPlusTreeSnapshot, ReadView};

/// A disk-paged B+-tree with 128-bit keys and fixed-size values.
///
/// Like every index in this workspace it shares a buffer pool and
/// tracks its own attributable I/O via thread-local stat deltas.
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    layout: BLayout,
    root: PageId,
    /// Levels in the tree; the root is at `height - 1`, leaves at 0.
    height: u8,
    len: usize,
    /// I/O attributable to this tree, tracked as thread-local
    /// ([`vp_storage::thread_io`]) deltas around each operation —
    /// exact even when other trees hammer the same pool from other
    /// threads, since each operation runs on exactly one thread.
    /// Atomic so a shared handle stays `Sync`.
    own: AtomicIoStats,
    /// The batch walk's scratch stacks, kept between batches so a
    /// write allocates nothing to route: the child routes of the
    /// nodes where the walk fans out, and the `(node, slot)` spine of
    /// the nodes that passed a whole run to one child.
    routes: Vec<Route>,
    spine: Vec<(PageId, usize)>,
}

/// One operation of a sorted batch handed to [`BPlusTree::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert the value, or overwrite the existing one (upsert).
    Put(Value),
    /// Remove the key if present.
    Delete,
}

/// Tallies of what [`BPlusTree::apply_batch`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Keys newly inserted by `Put`.
    pub inserted: usize,
    /// Keys whose existing value a `Put` overwrote.
    pub replaced: usize,
    /// Keys removed by `Delete`.
    pub deleted: usize,
    /// `Delete`s whose key was absent.
    pub missing: usize,
}

impl BPlusTree {
    /// Creates an empty tree (a single empty leaf root).
    pub fn new(pool: Arc<BufferPool>) -> StorageResult<BPlusTree> {
        let layout = BLayout::for_page_size(pool.page_size());
        let root = pool.new_page()?;
        let tree = BPlusTree {
            pool,
            layout,
            root,
            height: 1,
            len: 0,
            own: AtomicIoStats::zero(),
            routes: Vec::new(),
            spine: Vec::new(),
        };
        tree.write_node(tree.root, &BNode::empty_leaf())?;
        Ok(tree)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// I/O attributable to this tree.
    pub fn io_stats(&self) -> IoStats {
        self.own.snapshot()
    }

    /// Resets the attributable I/O counters.
    pub fn reset_io_stats(&self) {
        self.own.reset();
    }

    /// Forces every page of this tree to a durable, self-consistent
    /// on-disk state: flushes the shared pool's dirty shards and syncs
    /// the disk ([`BufferPool::checkpoint`]). Note the pool is shared,
    /// so this checkpoints co-resident trees too — exactly what the VP
    /// manager's checkpoint wants.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.pool.checkpoint()
    }

    // ----- page helpers -------------------------------------------------

    fn read_node(&self, pid: PageId) -> StorageResult<BNode> {
        self.pool.with_page(pid, BNode::decode)?
    }

    fn write_node(&self, pid: PageId, node: &BNode) -> StorageResult<()> {
        self.pool.with_page_mut(pid, |buf| node.encode(buf))?
    }

    fn alloc_node(&self, node: &BNode) -> StorageResult<PageId> {
        let pid = self.pool.new_page()?;
        self.write_node(pid, node)?;
        Ok(pid)
    }

    fn track<R>(&self, f: impl FnOnce(&Self) -> StorageResult<R>) -> StorageResult<R> {
        let before = vp_storage::thread_io::snapshot();
        let out = f(self);
        self.own
            .add(vp_storage::thread_io::snapshot().delta(&before));
        out
    }

    fn track_mut<R>(&mut self, f: impl FnOnce(&mut Self) -> StorageResult<R>) -> StorageResult<R> {
        let before = vp_storage::thread_io::snapshot();
        let out = f(self);
        self.own
            .add(vp_storage::thread_io::snapshot().delta(&before));
        out
    }

    /// The tree's read machinery bound to the live pool (see
    /// [`ReadView`] — snapshots bind the same code to a
    /// [`vp_storage::PageSnapshot`]).
    fn view(&self) -> ReadView<'_, BufferPool> {
        ReadView {
            pages: &*self.pool,
            root: self.root,
            height: self.height,
        }
    }

    // ----- lookup -------------------------------------------------------

    /// Returns the value stored for `key`, if any. Zero-copy: the
    /// descent and the leaf probe never decode a node.
    pub fn get(&self, key: Key128) -> StorageResult<Option<Value>> {
        self.track(|t| t.view().get(key))
    }

    // ----- snapshots ----------------------------------------------------

    /// Takes a lock-free point-in-time read handle on the tree,
    /// switching the shared pool into versioned mode on first use.
    ///
    /// Publishes any still-uncommitted writes as a fresh committed
    /// epoch first (the caller holds `&self`, so no write is in
    /// flight), then pins that epoch. The snapshot serves
    /// [`BPlusTreeSnapshot::get`] / range scans against the pinned
    /// state no matter how the live tree is mutated — or committed —
    /// afterwards.
    pub fn snapshot(&self) -> BPlusTreeSnapshot {
        self.pool.enable_versioning();
        self.pool.commit_epoch();
        BPlusTreeSnapshot::new(self.pool.page_snapshot(), self.root, self.height, self.len)
    }

    /// Publishes everything written so far as the next committed pool
    /// epoch, making it visible to snapshots taken from now on and
    /// letting the pool reclaim versions only departed readers pinned.
    /// No-op until the pool is switched into versioned mode by the
    /// first [`BPlusTree::snapshot`] call.
    pub fn publish_epoch(&self) {
        if self.pool.is_versioned() {
            self.pool.commit_epoch();
        }
    }

    // ----- single ops ---------------------------------------------------

    /// Inserts `key -> value`: [`BPlusTree::apply_batch`] of one `Put`.
    /// Returns `true` when the key was new, `false` when an existing
    /// value was overwritten.
    pub fn insert(&mut self, key: Key128, value: Value) -> StorageResult<bool> {
        Ok(self.apply_batch(&[(key, BatchOp::Put(value))])?.inserted == 1)
    }

    /// Deletes `key`: [`BPlusTree::apply_batch`] of one `Delete`.
    /// Returns `true` when it was present.
    pub fn delete(&mut self, key: Key128) -> StorageResult<bool> {
        Ok(self.apply_batch(&[(key, BatchOp::Delete)])?.deleted == 1)
    }

    /// Exhaustively validates the B+-tree's structural invariants;
    /// returns a human-readable violation description on failure.
    /// Intended for tests and debugging (visits every page).
    ///
    /// Checked invariants:
    /// * keys strictly ordered within nodes;
    /// * every subtree's keys respect the parent separator bounds (so
    ///   the leaves, left to right, hold the keys in global order);
    /// * occupancy limits for non-root nodes;
    /// * uniform leaf depth;
    /// * the leaves hold exactly the tree's key count.
    pub fn check_invariants(&self) -> StorageResult<Result<(), String>> {
        // Recursive structural walk with key-range bounds.
        fn walk(
            t: &BPlusTree,
            pid: PageId,
            depth: u8,
            lo: Option<Key128>,
            hi: Option<Key128>,
            leaf_depth: &mut Option<u8>,
            count: &mut usize,
        ) -> StorageResult<Result<(), String>> {
            let node = t.read_node(pid)?;
            let is_root = pid == t.root;
            match node {
                BNode::Leaf { keys, values } => {
                    if keys.len() != values.len() {
                        return Ok(Err(format!("leaf {pid}: key/value arity mismatch")));
                    }
                    if !is_root && keys.len() < t.layout.min_leaf {
                        return Ok(Err(format!("leaf {pid} underfull: {}", keys.len())));
                    }
                    if keys.len() > t.layout.max_leaf {
                        return Ok(Err(format!("leaf {pid} overfull: {}", keys.len())));
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) if *d != depth => {
                            return Ok(Err(format!("leaf {pid} at depth {depth}, expected {d}")))
                        }
                        _ => {}
                    }
                    for w in keys.windows(2) {
                        if w[0] >= w[1] {
                            return Ok(Err(format!("leaf {pid}: keys out of order")));
                        }
                    }
                    if let Some(lo) = lo {
                        if keys.first().is_some_and(|k| *k < lo) {
                            return Ok(Err(format!("leaf {pid}: key below separator")));
                        }
                    }
                    if let Some(hi) = hi {
                        if keys.last().is_some_and(|k| *k >= hi) {
                            return Ok(Err(format!("leaf {pid}: key above separator")));
                        }
                    }
                    *count += keys.len();
                }
                BNode::Internal { keys, children, .. } => {
                    if children.len() != keys.len() + 1 {
                        return Ok(Err(format!("internal {pid}: arity mismatch")));
                    }
                    if !is_root && keys.len() < t.layout.min_internal {
                        return Ok(Err(format!("internal {pid} underfull")));
                    }
                    if keys.len() > t.layout.max_internal {
                        return Ok(Err(format!("internal {pid} overfull")));
                    }
                    for w in keys.windows(2) {
                        if w[0] >= w[1] {
                            return Ok(Err(format!("internal {pid}: separators out of order")));
                        }
                    }
                    for (i, &child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                        match walk(t, child, depth + 1, clo, chi, leaf_depth, count)? {
                            Ok(()) => {}
                            Err(e) => return Ok(Err(e)),
                        }
                    }
                }
            }
            Ok(Ok(()))
        }

        let mut leaf_depth = None;
        let mut count = 0usize;
        match walk(self, self.root, 0, None, None, &mut leaf_depth, &mut count)? {
            Ok(()) => {}
            Err(e) => return Ok(Err(e)),
        }
        if count != self.len {
            return Ok(Err(format!("structural count {count} != len {}", self.len)));
        }
        Ok(Ok(()))
    }

    // ----- scans ----------------------------------------------------------

    /// Visits every `(key, value)` with `lo <= key <= hi` in key order:
    /// the one-range case of [`BPlusTree::range_scan_batch`]. Returns
    /// the number of entries visited.
    ///
    /// Zero-copy: values are handed to `f` as borrows into the page
    /// buffer, and entries outside the range are never touched — the
    /// scan binary-searches the start slot and stops at the first key
    /// past `hi` without materializing the rest of the leaf.
    pub fn range_scan(
        &self,
        lo: Key128,
        hi: Key128,
        f: impl FnMut(Key128, &Value),
    ) -> StorageResult<usize> {
        self.track(|t| t.view().range_scan(lo, hi, f))
    }

    /// Answers many `[lo, hi]` key ranges in **one shared sweep**:
    /// the ranges are ordered by `lo`, and the leaves are visited left
    /// to right with the set of currently *active* ranges. The sweep
    /// keeps its root-to-leaf path cached — each internal node's
    /// separators, child ids and key fences `[lo, hi)`, copied once —
    /// and finds the next leaf, or the leaf past a gap no active range
    /// covers, by descending from the lowest cached node whose fences
    /// cover the key it needs, never from the root again. So **each
    /// page is read at most once per sweep**, however many ranges
    /// overlap it, and the leaves read are exactly those whose fences
    /// meet a range. Memory is one node per tree level.
    ///
    /// `f` is invoked as `f(range_index, key, value)` for every entry
    /// of every range, in ascending key order per range. An entry in
    /// the overlap of several ranges is reported once per range, as
    /// consecutive calls with the same key; their relative range
    /// order is deterministic but unspecified. Empty ranges
    /// (`hi < lo`) report nothing. Returns the total number of `f`
    /// invocations.
    pub fn range_scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        self.track(|t| t.view().range_scan_batch(ranges, f))
    }

    // ----- bulk loading ---------------------------------------------------

    /// Builds a tree from an iterator of **strictly ascending** keyed
    /// entries, without any per-key root descent: leaves are packed
    /// left-to-right at maximum fanout, then internal levels are
    /// stacked on top until a single root remains. The tail of each
    /// level is split evenly so every non-root node meets minimum
    /// occupancy.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, items: I) -> StorageResult<BPlusTree>
    where
        I: IntoIterator<Item = (Key128, Value)>,
    {
        let layout = BLayout::for_page_size(pool.page_size());
        let before = vp_storage::thread_io::snapshot();

        let items: Vec<(Key128, Value)> = items.into_iter().collect();
        for w in items.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StorageError::Corrupt(
                    "bulk_load input keys not strictly ascending".into(),
                ));
            }
        }
        let len = items.len();
        if len == 0 {
            return BPlusTree::new(pool);
        }

        // Pack leaves. `chunk_sizes` keeps every chunk within
        // [min, max] except a lone root.
        let leaf_sizes = chunk_sizes(len, layout.min_leaf, layout.max_leaf);
        let leaf_pids: Vec<PageId> = (0..leaf_sizes.len())
            .map(|_| pool.new_page())
            .collect::<StorageResult<_>>()?;
        let mut level: Vec<(Option<Key128>, PageId)> = Vec::with_capacity(leaf_sizes.len());
        let mut cursor = items.into_iter();
        for (&size, &pid) in leaf_sizes.iter().zip(&leaf_pids) {
            let (keys, values): (Vec<Key128>, Vec<Value>) = cursor.by_ref().take(size).unzip();
            level.push((Some(keys[0]), pid));
            pool.with_page_mut(pid, |buf| BNode::Leaf { keys, values }.encode(buf))??;
        }

        // Stack internal levels until one node remains.
        let (root, height) = stack_internal_levels(&pool, &layout, level, 1)?;

        let own = AtomicIoStats::zero();
        own.add(vp_storage::thread_io::snapshot().delta(&before));
        Ok(BPlusTree {
            root,
            pool,
            layout,
            height,
            len,
            own,
            routes: Vec::new(),
            spine: Vec::new(),
        })
    }

    // ----- batched updates ------------------------------------------------

    /// Applies a batch of operations whose keys are **strictly
    /// ascending** in one recursive tree walk: ops are partitioned
    /// among children at each internal node, every touched leaf
    /// absorbs its whole run in a single page write (in place when the
    /// result fits, multi-way split when it overflows), and occupancy
    /// repairs happen once per parent — merging or redistributing
    /// drained siblings — instead of once per key. A batch of one op
    /// costs what a single descent does: one page read per level, and
    /// one write when its leaf absorbs it in place.
    pub fn apply_batch(&mut self, ops: &[(Key128, BatchOp)]) -> StorageResult<BatchOutcome> {
        if ops.is_empty() {
            return Ok(BatchOutcome::default());
        }
        for w in ops.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StorageError::Corrupt(
                    "apply_batch op keys not strictly ascending".into(),
                ));
            }
        }
        self.track_mut(|t| {
            // A failed batch may have left its stacks behind.
            t.routes.clear();
            t.spine.clear();
            let mut out = BatchOutcome::default();
            let effect = t.apply_rec(t.root, t.height - 1, true, ops, &mut out)?;
            t.len = t.len + out.inserted - out.deleted;
            match effect {
                ApplyEffect::Done => {}
                ApplyEffect::Splits(splits) => t.grow_root(splits)?,
                ApplyEffect::Underflow => t.collapse_root()?,
            }
            Ok(out)
        })
    }

    /// Applies `ops` (all belonging to `pid`'s key range) to the
    /// subtree under `pid`, whose node sits at `level`, reporting the
    /// structural effect the parent must absorb.
    ///
    /// While the whole run routes to one child — all the way down for
    /// a single op — the walk descends in a loop, stacking each node
    /// passed with the slot it took, and unwinds that spine only as
    /// far as some child changed shape. Where the run fans out over
    /// several children, each child's run recurses.
    fn apply_rec(
        &mut self,
        pid: PageId,
        level: u8,
        is_root: bool,
        ops: &[(Key128, BatchOp)],
        out: &mut BatchOutcome,
    ) -> StorageResult<ApplyEffect> {
        let base = self.spine.len();
        let (mut node, mut level) = (pid, level);
        let mut effect = loop {
            let node_is_root = is_root && self.spine.len() == base;
            if level == 0 {
                break self.apply_leaf(node, node_is_root, ops, out)?;
            }
            let routed = self.routes.len();
            let child_level = self.route(node, ops)?;
            if self.routes.len() > routed + 1 {
                break self.fan_out(node, node_is_root, child_level, routed, ops, out)?;
            }
            let Route { slot, child, .. } = self.routes.pop().expect("a run routes somewhere");
            self.spine.push((node, slot));
            (node, level) = (child, child_level);
        };
        // Unwind the spine only as far as some child changed shape.
        while self.spine.len() > base && !matches!(effect, ApplyEffect::Done) {
            let (node, slot) = self.spine.pop().expect("spine above base");
            let node_is_root = is_root && self.spine.len() == base;
            effect = self.absorb_effects(node, node_is_root, vec![(slot, effect)])?;
        }
        self.spine.truncate(base);
        Ok(effect)
    }

    /// Pushes `pid`'s routes for `ops` onto the route stack with one
    /// zero-copy page access; returns the children's level.
    fn route(&mut self, pid: PageId, ops: &[(Key128, BatchOp)]) -> StorageResult<u8> {
        let routes = &mut self.routes;
        self.pool.with_page(pid, |buf| -> StorageResult<u8> {
            let v = InternalView::parse(buf)?;
            let mut start = 0usize;
            while start < ops.len() {
                let slot = v.child_for(ops[start].0);
                let end = if slot < v.count() {
                    let fence = v.key_at(slot);
                    start + ops[start..].partition_point(|(k, _)| *k < fence)
                } else {
                    ops.len()
                };
                routes.push(Route {
                    slot,
                    child: v.child_at(slot),
                    end,
                });
                start = end;
            }
            v.level()
                .checked_sub(1)
                .ok_or_else(|| StorageError::Corrupt(format!("internal node {pid} at level 0")))
        })?
    }

    /// Recurses into each child's run of the routes above `base`, then
    /// absorbs the children's structural effects. The node is only
    /// decoded and rewritten when some child changed shape.
    fn fan_out(
        &mut self,
        pid: PageId,
        is_root: bool,
        child_level: u8,
        base: usize,
        ops: &[(Key128, BatchOp)],
        out: &mut BatchOutcome,
    ) -> StorageResult<ApplyEffect> {
        let mut effects: Vec<(usize, ApplyEffect)> = Vec::new();
        let mut start = 0usize;
        for r in base..self.routes.len() {
            let Route { slot, child, end } = self.routes[r];
            let effect = self.apply_rec(child, child_level, false, &ops[start..end], out)?;
            if !matches!(effect, ApplyEffect::Done) {
                effects.push((slot, effect));
            }
            start = end;
        }
        self.routes.truncate(base);
        if effects.is_empty() {
            return Ok(ApplyEffect::Done); // no separator moved: node untouched
        }
        self.absorb_effects(pid, is_root, effects)
    }

    /// Leaf case: try the whole run in place through [`LeafViewMut`];
    /// only an overflow or (non-root) underflow falls back to one
    /// decode covering the rest of the run.
    fn apply_leaf(
        &mut self,
        pid: PageId,
        is_root: bool,
        ops: &[(Key128, BatchOp)],
        out: &mut BatchOutcome,
    ) -> StorageResult<ApplyEffect> {
        let max_leaf = self.layout.max_leaf;
        let min_leaf = self.layout.min_leaf;
        let applied =
            self.pool
                .with_page_probe_mut(pid, |buf| -> (StorageResult<usize>, bool) {
                    let mut v = match LeafViewMut::parse(buf) {
                        Ok(v) => v,
                        Err(e) => return (Err(e), false),
                    };
                    let mut modified = false;
                    let mut j = 0usize;
                    while j < ops.len() {
                        let (k, op) = ops[j];
                        match op {
                            BatchOp::Put(val) => match v.search(k) {
                                Ok(s) => {
                                    v.set_value_at(s, &val);
                                    out.replaced += 1;
                                    modified = true;
                                }
                                Err(s) if v.count() < max_leaf => {
                                    v.insert_at(s, k, &val);
                                    out.inserted += 1;
                                    modified = true;
                                }
                                Err(_) => break, // overflow: decode path
                            },
                            BatchOp::Delete => match v.search(k) {
                                Ok(s) if is_root || v.count() > min_leaf => {
                                    v.remove_at(s);
                                    out.deleted += 1;
                                    modified = true;
                                }
                                Ok(_) => break, // underflow: decode path
                                Err(_) => out.missing += 1,
                            },
                        }
                        j += 1;
                    }
                    (Ok(j), modified)
                })??;
        if applied == ops.len() {
            return Ok(ApplyEffect::Done);
        }
        self.apply_leaf_decoded(pid, is_root, &ops[applied..], out)
    }

    /// The structural leaf case: decode once, absorb the rest of the
    /// run, and split the leaf multi-way or report its underflow.
    fn apply_leaf_decoded(
        &mut self,
        pid: PageId,
        is_root: bool,
        ops: &[(Key128, BatchOp)],
        out: &mut BatchOutcome,
    ) -> StorageResult<ApplyEffect> {
        let (max_leaf, min_leaf) = (self.layout.max_leaf, self.layout.min_leaf);
        let BNode::Leaf {
            mut keys,
            mut values,
        } = self.read_node(pid)?
        else {
            return Err(StorageError::Corrupt(
                "leaf became internal mid-batch".into(),
            ));
        };
        for &(k, op) in ops {
            match op {
                BatchOp::Put(val) => match keys.binary_search(&k) {
                    Ok(s) => {
                        values[s] = val;
                        out.replaced += 1;
                    }
                    Err(s) => {
                        keys.insert(s, k);
                        values.insert(s, val);
                        out.inserted += 1;
                    }
                },
                BatchOp::Delete => match keys.binary_search(&k) {
                    Ok(s) => {
                        keys.remove(s);
                        values.remove(s);
                        out.deleted += 1;
                    }
                    Err(_) => out.missing += 1,
                },
            }
        }

        if keys.len() > max_leaf {
            // Multi-way split: repack into [min, max]-sized leaves.
            let sizes = chunk_sizes(keys.len(), min_leaf, max_leaf);
            let extra_pids: Vec<PageId> = (1..sizes.len())
                .map(|_| self.pool.new_page())
                .collect::<StorageResult<_>>()?;
            let mut splits = Vec::with_capacity(extra_pids.len());
            let mut keys = keys.into_iter();
            let mut values = values.into_iter();
            for (gi, &size) in sizes.iter().enumerate() {
                let node_keys: Vec<Key128> = keys.by_ref().take(size).collect();
                let node_values: Vec<Value> = values.by_ref().take(size).collect();
                let node_pid = if gi == 0 { pid } else { extra_pids[gi - 1] };
                if gi > 0 {
                    splits.push((node_keys[0], node_pid));
                }
                self.write_node(
                    node_pid,
                    &BNode::Leaf {
                        keys: node_keys,
                        values: node_values,
                    },
                )?;
            }
            return Ok(ApplyEffect::Splits(splits));
        }

        let underflow = !is_root && keys.len() < min_leaf;
        self.write_node(pid, &BNode::Leaf { keys, values })?;
        Ok(if underflow {
            ApplyEffect::Underflow
        } else {
            ApplyEffect::Done
        })
    }

    /// The structural internal case: decode the node, splice in the
    /// children's splits, repair the children that underflowed, and
    /// split the node multi-way or report its own underflow.
    fn absorb_effects(
        &mut self,
        pid: PageId,
        is_root: bool,
        effects: Vec<(usize, ApplyEffect)>,
    ) -> StorageResult<ApplyEffect> {
        let BNode::Internal {
            level,
            mut keys,
            mut children,
        } = self.read_node(pid)?
        else {
            return Err(StorageError::Corrupt(
                "internal became leaf mid-batch".into(),
            ));
        };

        // Splice child splits in right-to-left so indices stay valid;
        // remember underflowed children by page id (repairs below may
        // shift or even merge them away).
        let mut underflowed: Vec<PageId> = Vec::new();
        for (i, effect) in effects.into_iter().rev() {
            match effect {
                ApplyEffect::Done => {}
                ApplyEffect::Underflow => underflowed.push(children[i]),
                ApplyEffect::Splits(splits) => {
                    let (seps, pids): (Vec<Key128>, Vec<PageId>) = splits.into_iter().unzip();
                    keys.splice(i..i, seps);
                    children.splice(i + 1..i + 1, pids);
                }
            }
        }
        for upid in underflowed {
            let Some(idx) = children.iter().position(|c| *c == upid) else {
                continue; // merged away by an earlier repair
            };
            self.repair_child(&mut keys, &mut children, idx)?;
        }

        if keys.len() > self.layout.max_internal {
            return Ok(ApplyEffect::Splits(
                self.split_internal_multiway(pid, level, keys, children)?,
            ));
        }
        // A root left without a separator reports underflow, so the
        // caller collapses it.
        let min_keys = if is_root { 1 } else { self.layout.min_internal };
        let underflow = keys.len() < min_keys;
        self.write_node(
            pid,
            &BNode::Internal {
                level,
                keys,
                children,
            },
        )?;
        Ok(if underflow {
            ApplyEffect::Underflow
        } else {
            ApplyEffect::Done
        })
    }

    /// Restores `children[idx]` to minimum occupancy after a bulk
    /// drain, which may have left it far below minimum (even empty):
    /// repeatedly merge it into a sibling when the pair fits one page,
    /// or redistribute evenly when it does not.
    fn repair_child(
        &mut self,
        keys: &mut Vec<Key128>,
        children: &mut Vec<PageId>,
        mut idx: usize,
    ) -> StorageResult<()> {
        loop {
            if children.len() == 1 {
                return Ok(()); // lone child: parent underflow handles it
            }
            let node = self.read_node(children[idx])?;
            let deficient = match &node {
                BNode::Leaf { keys, .. } => keys.len() < self.layout.min_leaf,
                BNode::Internal { keys, .. } => keys.len() < self.layout.min_internal,
            };
            if !deficient {
                return Ok(());
            }
            // Pair with the left sibling when one exists.
            let at = if idx > 0 { idx - 1 } else { idx };
            let left = self.read_node(children[at])?;
            let right = self.read_node(children[at + 1])?;
            match (left, right) {
                (
                    BNode::Leaf {
                        keys: mut lk,
                        values: mut lv,
                    },
                    BNode::Leaf {
                        keys: rk,
                        values: rv,
                    },
                ) => {
                    lk.extend(rk);
                    lv.extend(rv);
                    if lk.len() <= self.layout.max_leaf {
                        self.write_node(
                            children[at],
                            &BNode::Leaf {
                                keys: lk,
                                values: lv,
                            },
                        )?;
                        self.pool.free_page(children[at + 1])?;
                        keys.remove(at);
                        children.remove(at + 1);
                        idx = at;
                    } else {
                        let h = lk.len() - lk.len() / 2;
                        let rk2 = lk.split_off(h);
                        let rv2 = lv.split_off(h);
                        keys[at] = rk2[0];
                        self.write_node(
                            children[at + 1],
                            &BNode::Leaf {
                                keys: rk2,
                                values: rv2,
                            },
                        )?;
                        self.write_node(
                            children[at],
                            &BNode::Leaf {
                                keys: lk,
                                values: lv,
                            },
                        )?;
                        return Ok(());
                    }
                }
                (
                    BNode::Internal {
                        level,
                        keys: mut lk,
                        children: mut lc,
                    },
                    BNode::Internal {
                        keys: rk,
                        children: rc,
                        ..
                    },
                ) => {
                    // Combine through the parent separator.
                    lk.push(keys[at]);
                    lk.extend(rk);
                    lc.extend(rc);
                    if lc.len() <= self.layout.max_internal + 1 {
                        self.write_node(
                            children[at],
                            &BNode::Internal {
                                level,
                                keys: lk,
                                children: lc,
                            },
                        )?;
                        self.pool.free_page(children[at + 1])?;
                        keys.remove(at);
                        children.remove(at + 1);
                        idx = at;
                    } else {
                        let m = lc.len() / 2; // left child count
                        let rc2 = lc.split_off(m);
                        let rk2 = lk.split_off(m);
                        let sep_up = lk.pop().expect("split leaves a separator");
                        keys[at] = sep_up;
                        self.write_node(
                            children[at],
                            &BNode::Internal {
                                level,
                                keys: lk,
                                children: lc,
                            },
                        )?;
                        self.write_node(
                            children[at + 1],
                            &BNode::Internal {
                                level,
                                keys: rk2,
                                children: rc2,
                            },
                        )?;
                        return Ok(());
                    }
                }
                _ => {
                    return Err(StorageError::Corrupt(
                        "sibling level mismatch during batch repair".into(),
                    ))
                }
            }
        }
    }

    /// Splits an overfull internal node into `[min, max]`-sized pieces,
    /// reusing `pid` for the leftmost; returns the promoted separators
    /// and new page ids for the parent to splice in.
    fn split_internal_multiway(
        &mut self,
        pid: PageId,
        level: u8,
        keys: Vec<Key128>,
        children: Vec<PageId>,
    ) -> StorageResult<Vec<(Key128, PageId)>> {
        let sizes = chunk_sizes(
            children.len(),
            self.layout.min_internal + 1,
            self.layout.max_internal + 1,
        );
        let mut splits = Vec::with_capacity(sizes.len() - 1);
        let mut cpos = 0usize;
        for (gi, &size) in sizes.iter().enumerate() {
            let node_children = children[cpos..cpos + size].to_vec();
            let node_keys = keys[cpos..cpos + size - 1].to_vec();
            let node = BNode::Internal {
                level,
                keys: node_keys,
                children: node_children,
            };
            if gi == 0 {
                self.write_node(pid, &node)?;
            } else {
                let sep = keys[cpos - 1]; // promoted between the groups
                let new_pid = self.alloc_node(&node)?;
                splits.push((sep, new_pid));
            }
            cpos += size;
        }
        Ok(splits)
    }

    /// Grows the root after a batched split: stacks internal levels on
    /// top of the old root until one node holds everything.
    fn grow_root(&mut self, splits: Vec<(Key128, PageId)>) -> StorageResult<()> {
        let nodes: Vec<(Option<Key128>, PageId)> = std::iter::once((None, self.root))
            .chain(splits.into_iter().map(|(k, p)| (Some(k), p)))
            .collect();
        let (root, height) = stack_internal_levels(&self.pool, &self.layout, nodes, self.height)?;
        self.root = root;
        self.height = height;
        Ok(())
    }

    /// Replaces a root that lost its last separator by its only child,
    /// level by level, until the root is a leaf or has a separator.
    fn collapse_root(&mut self) -> StorageResult<()> {
        while self.height > 1 {
            let only_child = self.pool.with_page(self.root, |buf| -> StorageResult<_> {
                let v = InternalView::parse(buf)?;
                Ok((v.count() == 0).then(|| v.child_at(0)))
            })??;
            let Some(child) = only_child else {
                break;
            };
            self.pool.free_page(self.root)?;
            self.root = child;
            self.height -= 1;
        }
        Ok(())
    }
}

/// Stacks internal levels over `nodes` — `(subtree min key, page)`
/// pairs, where only the globally leftmost subtree may carry `None` —
/// until a single node remains. `next_level` is the level number of
/// the first layer built; returns the final root and the resulting
/// tree height. Shared by [`BPlusTree::bulk_load`] and the post-batch
/// root growth.
fn stack_internal_levels(
    pool: &BufferPool,
    layout: &BLayout,
    mut nodes: Vec<(Option<Key128>, PageId)>,
    mut next_level: u8,
) -> StorageResult<(PageId, u8)> {
    while nodes.len() > 1 {
        let sizes = chunk_sizes(
            nodes.len(),
            layout.min_internal + 1,
            layout.max_internal + 1,
        );
        let mut parent = Vec::with_capacity(sizes.len());
        let mut it = nodes.into_iter();
        for size in sizes {
            let group: Vec<(Option<Key128>, PageId)> = it.by_ref().take(size).collect();
            let node = BNode::Internal {
                level: next_level,
                keys: group[1..]
                    .iter()
                    .map(|(k, _)| k.expect("only the leftmost node lacks a separator"))
                    .collect(),
                children: group.iter().map(|(_, p)| *p).collect(),
            };
            let pid = pool.new_page()?;
            pool.with_page_mut(pid, |buf| node.encode(buf))??;
            parent.push((group[0].0, pid));
        }
        nodes = parent;
        next_level += 1;
    }
    Ok((nodes[0].1, next_level))
}

/// One child's share of a batch at an internal node: the child's slot
/// and page, and where (exclusive) its run of the node's ops ends.
#[derive(Clone, Copy)]
struct Route {
    slot: usize,
    child: PageId,
    end: usize,
}

/// Structural effect a subtree reports to its parent after a batch.
enum ApplyEffect {
    /// Absorbed in place; no separator changes needed.
    Done,
    /// Split into additional right siblings `(separator, page)`.
    Splits(Vec<(Key128, PageId)>),
    /// Dropped below minimum occupancy; parent must repair.
    Underflow,
}

/// Splits `n` items into chunk sizes within `[min, max]`, filling at
/// `max` and evening out the tail (a single chunk may undercut `min`
/// only when `n < min` — the lone-root case).
fn chunk_sizes(n: usize, min: usize, max: usize) -> Vec<usize> {
    debug_assert!(min >= 1 && min <= max);
    let mut sizes = Vec::with_capacity(n / max + 2);
    let mut rem = n;
    while rem > max + min {
        sizes.push(max);
        rem -= max;
    }
    if rem > max {
        // Two final chunks, split evenly: both land in [min, max].
        sizes.push(rem - rem / 2);
        sizes.push(rem / 2);
    } else if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vp_storage::DiskManager;

    fn pool(page: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(page),
            64,
        ))
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BPlusTree>();
        assert_send_sync::<crate::BPlusTreeSnapshot>();
    }

    #[test]
    fn snapshot_isolated_from_later_writes() {
        let mut t = BPlusTree::new(pool(256)).unwrap();
        for i in 0..300u64 {
            t.insert(key(i), val(i)).unwrap();
        }
        let snap = t.snapshot();
        // Mutate heavily after the snapshot: overwrites, deletes, and
        // enough inserts to split leaves and grow the tree.
        for i in 0..100u64 {
            t.delete(key(i)).unwrap();
        }
        for i in 300..900u64 {
            t.insert(key(i), val(i + 1)).unwrap();
        }
        // The snapshot still answers exactly as of its epoch.
        assert_eq!(snap.len(), 300);
        for i in 0..300u64 {
            assert_eq!(snap.get(key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        assert_eq!(snap.get(key(500)).unwrap(), None);
        let mut seen = 0usize;
        snap.range_scan(Key128::MIN, Key128::MAX, |k, v| {
            let n = u64::from_le_bytes(v[..8].try_into().unwrap());
            assert_eq!(k, key(n));
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 300);
        // The live tree sees the new state.
        assert_eq!(t.get(key(0)).unwrap(), None);
        assert_eq!(t.get(key(500)).unwrap(), Some(val(501)));
        // A fresh snapshot sees it too, and the two coexist.
        let snap2 = t.snapshot();
        assert_eq!(snap2.get(key(0)).unwrap(), None);
        assert_eq!(snap2.get(key(500)).unwrap(), Some(val(501)));
        assert_eq!(snap.get(key(0)).unwrap(), Some(val(0)));
    }

    #[test]
    fn snapshot_readable_while_writer_thread_mutates() {
        let mut t = BPlusTree::new(pool(256)).unwrap();
        for i in 0..400u64 {
            t.insert(key(i), val(i)).unwrap();
        }
        let snap = t.snapshot();
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                for _ in 0..20 {
                    for i in (0..400u64).step_by(7) {
                        assert_eq!(snap.get(key(i)).unwrap(), Some(val(i)));
                    }
                    let mut n = 0;
                    snap.range_scan(key(0), key(399), |_, _| n += 1).unwrap();
                    assert_eq!(n, 400);
                }
            });
            for i in 400..1200u64 {
                t.insert(key(i), val(i)).unwrap();
            }
            for i in (0..400u64).step_by(2) {
                t.delete(key(i)).unwrap();
            }
            reader.join().unwrap();
        });
        assert_eq!(t.len(), 1000);
    }

    fn val(n: u64) -> Value {
        let mut v = [0u8; crate::VALUE_LEN];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    }

    fn key(n: u64) -> Key128 {
        Key128::new(n / 7, n)
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        assert!(t.is_empty());
        for i in 0..10u64 {
            assert!(t.insert(key(i), val(i)).unwrap());
        }
        assert_eq!(t.len(), 10);
        for i in 0..10u64 {
            assert_eq!(t.get(key(i)).unwrap(), Some(val(i)));
        }
        assert_eq!(t.get(key(99)).unwrap(), None);
    }

    #[test]
    fn overwrite_returns_false() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        assert!(t.insert(key(1), val(1)).unwrap());
        assert!(!t.insert(key(1), val(2)).unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(key(1)).unwrap(), Some(val(2)));
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let n = 2000u64;
        for i in 0..n {
            t.insert(key(i), val(i)).unwrap();
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.height() >= 3, "tree should be deep, got {}", t.height());
        for i in (0..n).step_by(37) {
            assert_eq!(t.get(key(i)).unwrap(), Some(val(i)));
        }
    }

    #[test]
    fn range_scan_matches_btreemap() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let mut reference = BTreeMap::new();
        let mut rng = Rng(0xCAFE);
        for _ in 0..1500 {
            let k = rng.next() % 10_000;
            t.insert(key(k), val(k)).unwrap();
            reference.insert(key(k), val(k));
        }
        for _ in 0..50 {
            let a = rng.next() % 10_000;
            let b = rng.next() % 10_000;
            let (lo, hi) = (key(a.min(b)), key(a.max(b)));
            let mut got = Vec::new();
            t.range_scan(lo, hi, |k, v| got.push((k, *v))).unwrap();
            let want: Vec<(Key128, Value)> =
                reference.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn full_range_scan_is_ordered() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let mut rng = Rng(0x5150);
        for _ in 0..800 {
            let k = rng.next() % 100_000;
            t.insert(key(k), val(k)).unwrap();
        }
        let mut prev: Option<Key128> = None;
        let n = t
            .range_scan(Key128::MIN, Key128::MAX, |k, _| {
                if let Some(p) = prev {
                    assert!(p < k, "scan out of order");
                }
                prev = Some(k);
            })
            .unwrap();
        assert_eq!(n, t.len());
    }

    #[test]
    fn delete_random_matches_btreemap() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let mut reference = BTreeMap::new();
        let mut rng = Rng(0xBEEF);
        for _ in 0..1200 {
            let k = rng.next() % 3_000;
            t.insert(key(k), val(k)).unwrap();
            reference.insert(key(k), val(k));
        }
        // Delete half at random.
        let all: Vec<u64> = (0..3_000).collect();
        for &k in all.iter().filter(|k| *k % 2 == 0) {
            let got = t.delete(key(k)).unwrap();
            let want = reference.remove(&key(k)).is_some();
            assert_eq!(got, want, "delete {k}");
        }
        assert_eq!(t.len(), reference.len());
        for (&k, v) in &reference {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        // Scan still consistent.
        let mut got = Vec::new();
        t.range_scan(Key128::MIN, Key128::MAX, |k, v| got.push((k, *v)))
            .unwrap();
        let want: Vec<(Key128, Value)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_then_reuse() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        for i in 0..500u64 {
            t.insert(key(i), val(i)).unwrap();
        }
        for i in 0..500u64 {
            assert!(t.delete(key(i)).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "tree should collapse to a single leaf");
        t.check_invariants().unwrap().expect("empty tree is valid");
        assert!(!t.delete(key(0)).unwrap());
        // Reusable after emptying.
        for i in 0..100u64 {
            t.insert(key(i), val(i)).unwrap();
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn mixed_operations_fuzz() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let mut reference = BTreeMap::new();
        let mut rng = Rng(0x1DEA);
        for step in 0..5000 {
            let k = rng.next() % 2_000;
            match rng.next() % 3 {
                0 => {
                    let got = t.insert(key(k), val(step)).unwrap();
                    let want = reference.insert(key(k), val(step)).is_none();
                    assert_eq!(got, want);
                }
                1 => {
                    let got = t.delete(key(k)).unwrap();
                    let want = reference.remove(&key(k)).is_some();
                    assert_eq!(got, want);
                }
                _ => {
                    assert_eq!(
                        t.get(key(k)).unwrap(),
                        reference.get(&key(k)).copied(),
                        "get {k} at step {step}"
                    );
                }
            }
            assert_eq!(t.len(), reference.len());
            if step % 500 == 0 {
                t.check_invariants()
                    .unwrap()
                    .expect("invariants hold mid-fuzz");
            }
        }
        t.check_invariants()
            .unwrap()
            .expect("invariants hold at end");
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        for n in 1..500usize {
            let (min, max) = (3, 7);
            let sizes = chunk_sizes(n, min, max);
            assert_eq!(sizes.iter().sum::<usize>(), n, "n={n}");
            if sizes.len() == 1 {
                assert!(sizes[0] <= max);
            } else {
                assert!(
                    sizes.iter().all(|&s| (min..=max).contains(&s)),
                    "n={n}: {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_load_matches_incremental() {
        for n in [0usize, 1, 7, 72, 73, 500, 2000] {
            let items: Vec<(Key128, Value)> = (0..n as u64).map(|i| (key(i * 3), val(i))).collect();
            let bulk = BPlusTree::bulk_load(pool(512), items.clone()).unwrap();
            let mut incr = BPlusTree::new(pool(512)).unwrap();
            for &(k, v) in &items {
                incr.insert(k, v).unwrap();
            }
            assert_eq!(bulk.len(), n, "n={n}");
            bulk.check_invariants()
                .unwrap()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            let mut a = Vec::new();
            bulk.range_scan(Key128::MIN, Key128::MAX, |k, v| a.push((k, *v)))
                .unwrap();
            let mut b = Vec::new();
            incr.range_scan(Key128::MIN, Key128::MAX, |k, v| b.push((k, *v)))
                .unwrap();
            assert_eq!(a, b, "n={n}");
            // Bulk loading packs leaves full, so it can never be taller.
            assert!(bulk.height() <= incr.height(), "n={n}");
        }
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let items = vec![(key(5), val(5)), (key(3), val(3))];
        assert!(BPlusTree::bulk_load(pool(512), items).is_err());
        let dup = vec![(key(5), val(5)), (key(5), val(6))];
        assert!(BPlusTree::bulk_load(pool(512), dup).is_err());
    }

    #[test]
    fn bulk_loaded_tree_supports_all_ops() {
        let items: Vec<(Key128, Value)> = (0..1000u64).map(|i| (key(i * 2), val(i))).collect();
        let mut t = BPlusTree::bulk_load(pool(512), items).unwrap();
        assert_eq!(t.get(key(500 * 2)).unwrap(), Some(val(500)));
        assert_eq!(t.get(key(501)).unwrap(), None);
        assert!(t.insert(key(501), val(9)).unwrap());
        assert!(t.delete(key(0)).unwrap());
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap().expect("still valid");
    }

    #[test]
    fn apply_batch_matches_single_ops() {
        let mut batched = BPlusTree::new(pool(512)).unwrap();
        let mut single = BPlusTree::new(pool(512)).unwrap();
        let mut reference = BTreeMap::new();
        let mut rng = Rng(0xABCD);
        for _round in 0..30 {
            // A sorted run of mixed upserts and deletes.
            let mut ops: Vec<(Key128, BatchOp)> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..120 {
                let k = rng.next() % 4_000;
                if !seen.insert(k) {
                    continue;
                }
                let op = if rng.next().is_multiple_of(3) {
                    BatchOp::Delete
                } else {
                    BatchOp::Put(val(k))
                };
                ops.push((key(k), op));
            }
            ops.sort_unstable_by_key(|(k, _)| *k);

            let out = batched.apply_batch(&ops).unwrap();
            let mut expect = BatchOutcome::default();
            for &(k, op) in &ops {
                match op {
                    BatchOp::Put(v) => {
                        if single.insert(k, v).unwrap() {
                            expect.inserted += 1;
                            reference.insert(k, v);
                        } else {
                            expect.replaced += 1;
                            reference.insert(k, v);
                        }
                    }
                    BatchOp::Delete => {
                        if single.delete(k).unwrap() {
                            expect.deleted += 1;
                            reference.remove(&k);
                        } else {
                            expect.missing += 1;
                        }
                    }
                }
            }
            assert_eq!(out, expect);
            assert_eq!(batched.len(), single.len());
            assert_eq!(batched.len(), reference.len());
        }
        batched
            .check_invariants()
            .unwrap()
            .expect("batched tree valid");
        let mut a = Vec::new();
        batched
            .range_scan(Key128::MIN, Key128::MAX, |k, v| a.push((k, *v)))
            .unwrap();
        let want: Vec<(Key128, Value)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, want);
    }

    #[test]
    fn apply_batch_rejects_unsorted() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let ops = vec![(key(5), BatchOp::Delete), (key(3), BatchOp::Delete)];
        assert!(t.apply_batch(&ops).is_err());
    }

    #[test]
    fn apply_batch_writes_fewer_pages_than_single_ops() {
        // The attributable win: a sorted tick of co-located updates
        // touches each leaf once, so the batched path must dirty
        // strictly fewer pages than one-at-a-time delete/insert.
        let items: Vec<(Key128, Value)> = (0..5_000u64).map(|i| (key(i * 2), val(i))).collect();
        let mut batched = BPlusTree::bulk_load(pool(4096), items.clone()).unwrap();
        let mut single = BPlusTree::bulk_load(pool(4096), items).unwrap();

        // One "tick": every 5th object moves to a nearby key.
        let mut ops: Vec<(Key128, BatchOp)> = Vec::new();
        for i in (0..5_000u64).step_by(5) {
            ops.push((key(i * 2), BatchOp::Delete));
            ops.push((key(i * 2 + 1), BatchOp::Put(val(i))));
        }
        ops.sort_unstable_by_key(|(k, _)| *k);

        batched.reset_io_stats();
        batched.apply_batch(&ops).unwrap();
        let batch_writes = batched.io_stats().logical_writes;

        single.reset_io_stats();
        for &(k, op) in &ops {
            match op {
                BatchOp::Put(v) => {
                    single.insert(k, v).unwrap();
                }
                BatchOp::Delete => {
                    single.delete(k).unwrap();
                }
            }
        }
        let single_writes = single.io_stats().logical_writes;

        assert!(
            batch_writes < single_writes,
            "batched {batch_writes} page writes vs single-op {single_writes}"
        );
        assert_eq!(batched.len(), single.len());
    }

    /// A single op is a batch of one that costs what one descent does:
    /// a fitting insert and a non-underflowing delete each read one
    /// page per level and write only their leaf. Any further page
    /// access on the walk — a tag probe, a second read of an internal
    /// node to decode it, a re-read of the root — breaks the count.
    #[test]
    fn single_ops_cost_one_read_per_level_and_one_write() {
        let items: Vec<(Key128, Value)> = (0..5_000u64).map(|i| (key(i * 2), val(i))).collect();
        let mut t = BPlusTree::bulk_load(pool(512), items).unwrap();
        assert!(t.height() >= 3, "height {}", t.height());
        let cost = |t: &BPlusTree| {
            let io = t.io_stats();
            (io.logical_reads, io.logical_writes)
        };
        let per_op = (t.height() as u64, 1);
        for i in [0u64, 1_234, 4_999] {
            // Bulk-loaded leaves are full: the delete makes room in
            // the leaf the insert then lands in.
            t.reset_io_stats();
            assert!(t.delete(key(i * 2)).unwrap());
            assert_eq!(cost(&t), per_op, "delete {i}");
            t.reset_io_stats();
            assert!(t.insert(key(i * 2 + 1), val(i)).unwrap());
            assert_eq!(cost(&t), per_op, "insert {i}");
        }
        t.check_invariants().unwrap().expect("still valid");
    }

    #[test]
    fn io_stats_attributed() {
        let mut t = BPlusTree::new(pool(4096)).unwrap();
        t.reset_io_stats();
        for i in 0..200u64 {
            t.insert(key(i), val(i)).unwrap();
        }
        assert!(t.io_stats().logical_reads > 0);
        t.reset_io_stats();
        assert_eq!(t.io_stats(), IoStats::zero());
    }

    /// Each range of a batch answers what the same range of a
    /// `BTreeMap` holds (`range_scan` is the one-range sweep itself,
    /// so it cannot be the oracle).
    #[test]
    fn range_scan_batch_matches_looped_scans() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        let mut reference = BTreeMap::new();
        let mut rng = Rng(0xBA7C4);
        for _ in 0..1_500 {
            let k = rng.next() % 20_000;
            t.insert(key(k), val(k)).unwrap();
            reference.insert(key(k), val(k));
        }
        // Random, heavily overlapping range batches.
        for round in 0..20 {
            let nranges = 1 + (round % 7);
            let ranges: Vec<(Key128, Key128)> = (0..nranges)
                .map(|_| {
                    let a = rng.next() % 20_000;
                    let b = a + rng.next() % 4_000;
                    (key(a), key(b))
                })
                .collect();
            let mut batched: Vec<Vec<(Key128, Value)>> = vec![Vec::new(); ranges.len()];
            t.range_scan_batch(&ranges, |r, k, v| batched[r].push((k, *v)))
                .unwrap();
            for (r, &(lo, hi)) in ranges.iter().enumerate() {
                let want: Vec<(Key128, Value)> =
                    reference.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(batched[r], want, "round {round}, range {r}");
            }
        }
    }

    #[test]
    fn range_scan_batch_handles_edge_ranges() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        for i in 0..300u64 {
            t.insert(key(i * 2), val(i)).unwrap();
        }
        // Empty (hi < lo), duplicate, fully-covering, and disjoint
        // ranges in one batch.
        let ranges = vec![
            (key(100), key(50)),        // empty
            (Key128::MIN, Key128::MAX), // everything
            (key(40), key(80)),         // inner
            (key(40), key(80)),         // duplicate of the inner
            (key(10_000), key(20_000)), // beyond all keys
        ];
        let mut got: Vec<Vec<Key128>> = vec![Vec::new(); ranges.len()];
        let n = t
            .range_scan_batch(&ranges, |r, k, _| got[r].push(k))
            .unwrap();
        assert!(got[0].is_empty());
        assert_eq!(got[1].len(), 300);
        assert_eq!(got[2], got[3]);
        assert!(got[4].is_empty());
        assert_eq!(n, got.iter().map(Vec::len).sum::<usize>());
        // An empty batch is a no-op.
        assert_eq!(
            t.range_scan_batch(&[], |_, _, _| panic!("no ranges"))
                .unwrap(),
            0
        );
    }

    #[test]
    fn range_scan_batch_reads_fewer_pages_than_looped_scans() {
        // The attributable win of the shared sweep: N overlapping
        // ranges fetch each shared leaf once, not N times.
        let items: Vec<(Key128, Value)> = (0..5_000u64).map(|i| (key(i), val(i))).collect();
        let t = BPlusTree::bulk_load(pool(512), items).unwrap();
        let ranges: Vec<(Key128, Key128)> = (0..16u64)
            .map(|i| (key(1_000 + i * 10), key(3_000 + i * 10)))
            .collect();

        t.reset_io_stats();
        let batched_n = t.range_scan_batch(&ranges, |_, _, _| {}).unwrap();
        let batched_reads = t.io_stats().logical_reads;

        t.reset_io_stats();
        let mut looped_n = 0;
        for &(lo, hi) in &ranges {
            looped_n += t.range_scan(lo, hi, |_, _| {}).unwrap();
        }
        let looped_reads = t.io_stats().logical_reads;

        assert_eq!(batched_n, looped_n);
        assert!(
            batched_reads * 2 < looped_reads,
            "shared sweep should at least halve page reads: {batched_reads} vs {looped_reads}"
        );
    }

    #[test]
    fn empty_scan_ranges() {
        let mut t = BPlusTree::new(pool(512)).unwrap();
        t.insert(key(5), val(5)).unwrap();
        let n = t
            .range_scan(key(10), key(2), |_, _| panic!("nothing in range"))
            .unwrap();
        assert_eq!(n, 0);
        let n = t.range_scan(key(6), key(9), |_, _| {}).unwrap();
        assert_eq!(n, 0);
    }
}
