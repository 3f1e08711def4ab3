//! The TPR\*-tree proper.
//!
//! * **ChooseSubtree** — descend towards the child whose cost metric
//!   (sweep volume over the horizon) increases least when absorbing
//!   the new entry.
//! * **Split** — candidate sortings along position x/y and velocity
//!   x/y; every legal split point is scored by the summed cost metric
//!   of the groups using prefix/suffix TPBR unions, and the cheapest
//!   is taken. Sorting by velocity lets the TPR\*-tree group objects
//!   moving in the same direction — the local optimization the paper
//!   contrasts with VP's global partitioning.
//! * **Delete** — guided descent using the recorded entry (the paper's
//!   "simple lookup table", Section 5.3); underflowing nodes are
//!   dissolved and their entries reinserted (R-tree condense).
//! * **Tightening** — parent entries on a changed path are rewritten
//!   with the exact union of the child's contents, curbing MBR/VBR
//!   drift. A subtree a write visits but does not change is neither
//!   written nor re-tightened.
//!
//! ## One write engine, two overflow rules
//!
//! Every write is a **pass**: one top-down walk that removes a set of
//! stored entries and group-inserts a set of new ones, reading and
//! writing every touched page at most once. An overflowing node
//! re-clusters multi-way (`ceil(n/max)` nodes, boundaries refined by
//! the prefix/suffix cost scan; with `max + 1` entries that is the
//! 2-way split), and the new nodes go after their parent's existing
//! entries. The caller picks what an overflowing *leaf* does:
//!
//! * `insert` and `delete` are passes of one under the **R\* rule**
//!   the TPR\*-tree inserts with: the first overflowing non-root leaf
//!   *force-reinserts* — it evicts its entries farthest from its
//!   center at the horizon midpoint instead of splitting. Each evicted
//!   entry goes back in as a pass of one that may not evict, and each
//!   orphan of a dissolved node as a pass of one that may. `update` is
//!   delete then insert.
//! * `update_batch` and `remove_batch` (VP's ticks) **re-cluster**
//!   every overflow, and reinsert their orphans as one group pass.
//!
//! [`TprTree::bulk_load`] packs a whole population with the same
//! re-clustering, with no per-object root descent.
//!
//! ## Nodes stay on their pages
//!
//! A pass reads each node through a zero-copy view ([`crate::node`]):
//! ChooseSubtree reads each child's TPBR off the page, and a leaf
//! claims its removals by id in place. The write fetch on the way back
//! up edits a node that neither overflows nor dissolves in place — a
//! leaf shifts later entries down over its removals and appends its
//! inserts, a parent patches the 80-byte slot of each changed child —
//! and folds the node's bounding TPBR over the page in entry order, so
//! the floats are bit-identical to folding a decoded node. A whole
//! [`Node`] is decoded only when the node overflows (re-cluster or R\*
//! eviction, inside its write fetch) or dissolves, and built only by
//! those paths and by bulk load. Each written node is still fetched
//! twice, once to read on the way down and once to write on the way up.
//!
//! All node accesses go through the shared buffer pool; the tree keeps
//! its own attributable I/O counters (thread-local stat deltas), so
//! several trees (the VP sub-indexes) can share one pool — even with
//! snapshot readers on other threads — without double counting.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use vp_core::{
    IndexError, IndexResult, MovingObject, MovingObjectIndex, ObjectId, RangeQuery, SnapshotIndex,
};
#[cfg(test)]
use vp_geom::Point;
use vp_geom::Tpbr;
use vp_storage::{AtomicIoStats, BufferPool, IoStats, PageId};

use crate::cost::sweep_cost;
use crate::node::{
    EditEntries, InternalEntry, InternalView, InternalViewMut, LeafEntry, LeafView, LeafViewMut,
    Node, NodeLayout, NodeView,
};
use crate::snapshot::{one, query_from, Report, TprSnapshot};

/// TPR\*-tree configuration.
#[derive(Debug, Clone)]
pub struct TprConfig {
    /// Cost-integration horizon (timestamps). The paper's workloads use
    /// a 120 ts maximum update interval; costs are integrated that far.
    pub horizon: f64,
}

impl Default for TprConfig {
    fn default() -> Self {
        TprConfig { horizon: 120.0 }
    }
}

/// Extent of the optimization query per axis (the paper optimizes the
/// TPR\*-tree for 1000 m × 1000 m queries).
const QUERY_LEN: f64 = 1000.0;
/// Fraction of a leaf force-reinserted on first overflow.
const REINSERT_FRACTION: f64 = 0.3;

/// Tolerances for guided-descent containment tests (deletion). Erring
/// on the inclusive side only costs a little extra traversal.
const EPS_POS: f64 = 1e-4;
const EPS_VEL: f64 = 1e-6;

/// A paged TPR\*-tree implementing [`MovingObjectIndex`].
pub struct TprTree {
    pool: Arc<BufferPool>,
    config: TprConfig,
    layout: NodeLayout,
    root: PageId,
    /// Number of levels (0 = empty tree; root level = height - 1).
    height: u8,
    /// Logical clock: the largest reference time seen.
    now: f64,
    /// Lookup table: object id -> the exact entry stored in the tree.
    entries: HashMap<ObjectId, LeafEntry>,
    /// I/O attributable to this tree, tracked as thread-local
    /// ([`vp_storage::thread_io`]) deltas around each operation —
    /// exact even with other trees on the same pool running
    /// concurrently. Atomic so a shared handle stays `Sync`.
    own: AtomicIoStats,
}

impl TprTree {
    /// Creates an empty tree over the shared buffer pool.
    pub fn new(pool: Arc<BufferPool>, config: TprConfig) -> TprTree {
        let layout = NodeLayout::for_page_size(pool.page_size());
        TprTree {
            pool,
            config,
            layout,
            root: PageId::INVALID,
            height: 0,
            now: 0.0,
            entries: HashMap::new(),
            own: AtomicIoStats::zero(),
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TprConfig {
        &self.config
    }

    /// Tree height in levels (0 when empty).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The logical current time (max reference time inserted).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Visits the exact bounding TPBR of every leaf (used to plot the
    /// paper's Figure 7 — leaf MBR expansion rates).
    pub fn visit_leaf_tpbrs(&self, mut f: impl FnMut(&Tpbr)) -> IndexResult<()> {
        if !self.root.is_valid() {
            return Ok(());
        }
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid)? {
                leaf @ Node::Leaf { .. } => {
                    let b = leaf.bounding_tpbr();
                    if !b.is_empty() {
                        f(&b);
                    }
                }
                Node::Internal { entries, .. } => {
                    stack.extend(entries.iter().map(|e| e.child));
                }
            }
        }
        Ok(())
    }

    /// Exhaustively validates the tree's structural invariants; returns
    /// a human-readable violation description on failure. Intended for
    /// tests and debugging (visits every page).
    ///
    /// Checked invariants:
    /// * stored entry count equals the lookup table's (`len()`);
    /// * every parent entry's TPBR dominates its child's exact bounding
    ///   TPBR (within float tolerance) at the union reference time;
    /// * fanout bounds: non-root nodes hold at least the minimum and at
    ///   most the maximum number of entries;
    /// * levels decrease by exactly one per tree level and leaves sit
    ///   at level 0;
    /// * every object in the lookup table is reachable by guided
    ///   descent.
    pub fn check_invariants(&self) -> IndexResult<Result<(), String>> {
        if !self.root.is_valid() {
            return Ok(if self.entries.is_empty() {
                Ok(())
            } else {
                Err(format!("empty tree but len = {}", self.entries.len()))
            });
        }
        let mut total_entries = 0usize;
        // (pid, expected_level, bounding tpbr claimed by the parent)
        let mut stack: Vec<(PageId, u8, Option<Tpbr>)> = vec![(self.root, self.height - 1, None)];
        while let Some((pid, level, claimed)) = stack.pop() {
            let node = self.read_node(pid)?;
            if node.level() != level {
                return Ok(Err(format!(
                    "node {pid} has level {} but expected {level}",
                    node.level()
                )));
            }
            let is_root = pid == self.root;
            let min = self.layout.min_for_level(level);
            let max = self.layout.max_for_level(level);
            if node.len() > max {
                return Ok(Err(format!("node {pid} overfull: {} > {max}", node.len())));
            }
            if !is_root && node.len() < min {
                return Ok(Err(format!("node {pid} underfull: {} < {min}", node.len())));
            }
            if let Some(parent_tpbr) = claimed {
                let exact = node.bounding_tpbr();
                let t0 = parent_tpbr.ref_time.max(exact.ref_time);
                let pr = parent_tpbr.rect_at(t0).inflate(EPS_POS, EPS_POS);
                if !pr.contains_rect(&exact.rect_at(t0)) {
                    return Ok(Err(format!(
                        "parent TPBR does not dominate child {pid} at t={t0}"
                    )));
                }
            }
            match node {
                Node::Leaf { entries } => {
                    total_entries += entries.len();
                    if let Some(e) = entries.iter().find(|e| self.entries.get(&e.id) != Some(e)) {
                        return Ok(Err(format!("lookup table misses or is stale for {}", e.id)));
                    }
                }
                Node::Internal { entries, .. } => {
                    for e in &entries {
                        stack.push((e.child, level - 1, Some(e.tpbr)));
                    }
                }
            }
        }
        if total_entries != self.entries.len() {
            return Ok(Err(format!(
                "entry count mismatch: tree {total_entries}, table {}",
                self.entries.len()
            )));
        }
        Ok(Ok(()))
    }

    // ----- page helpers -------------------------------------------------

    /// Reads and decodes a whole node (diagnostics and dismantling).
    fn read_node(&self, pid: PageId) -> IndexResult<Node> {
        Ok(self.pool.with_page(pid, Node::decode)??)
    }

    fn write_node(&self, pid: PageId, node: &Node) -> IndexResult<()> {
        self.pool.with_page_mut(pid, |buf| node.encode(buf))??;
        Ok(())
    }

    fn alloc_node(&self, node: &Node) -> IndexResult<PageId> {
        let pid = self.pool.new_page()?;
        self.write_node(pid, node)?;
        Ok(pid)
    }

    fn track_begin(&self) -> IoStats {
        vp_storage::thread_io::snapshot()
    }

    fn track_end(&self, before: IoStats) {
        self.own
            .add(vp_storage::thread_io::snapshot().delta(&before));
    }

    /// The one read walk over the live pool, tallied in this tree's
    /// own I/O counters.
    fn read(&self, queries: &[RangeQuery], report: Report<'_>) -> IndexResult<Vec<Vec<ObjectId>>> {
        let before = self.track_begin();
        let result = query_from(&*self.pool, self.root, queries, report);
        self.track_end(before);
        result
    }

    // ----- cost metric --------------------------------------------------

    fn metric(&self, tpbr: &Tpbr) -> f64 {
        sweep_cost(tpbr, self.now, self.config.horizon, QUERY_LEN)
    }

    // ----- routing, eviction and clustering -----------------------------

    /// Picks the child minimizing the cost-metric increase.
    fn choose_subtree<E: Borrow<InternalEntry>>(
        &self,
        children: impl IntoIterator<Item = E>,
        entry: &LeafEntry,
    ) -> usize {
        let e_tpbr = entry.tpbr();
        let mut best = 0usize;
        let mut best_delta = f64::INFINITY;
        let mut best_cost = f64::INFINITY;
        for (i, ie) in children.into_iter().enumerate() {
            let tpbr = &ie.borrow().tpbr;
            let cost = self.metric(tpbr);
            let grown = self.metric(&tpbr.union(&e_tpbr));
            let delta = grown - cost;
            if delta < best_delta - 1e-12
                || ((delta - best_delta).abs() <= 1e-12 && cost < best_cost)
            {
                best = i;
                best_delta = delta;
                best_cost = cost;
            }
        }
        best
    }

    /// Reorders `entries` so the kept prefix stays in the node; returns
    /// the prefix length. Eviction candidates are the entries farthest
    /// from the node center at the horizon midpoint.
    fn select_reinsert(&self, entries: &mut [LeafEntry]) -> usize {
        let tm = self.now + self.config.horizon * 0.5;
        let bound = entries
            .iter()
            .fold(Tpbr::empty(0.0), |acc, e| acc.union(&e.tpbr()));
        let center = bound.rect_at(tm).center();
        entries.sort_by(|a, b| {
            let da = a.position_at(tm).dist_sq(center);
            let db = b.position_at(tm).dist_sq(center);
            da.total_cmp(&db) // ascending: nearest first (kept)
        });
        let n = entries.len();
        let evict = ((n as f64 * REINSERT_FRACTION).ceil() as usize)
            .min(n - self.layout.min_leaf)
            .max(1);
        n - evict
    }

    /// Re-clusters leaf entries into `ceil(n / max_leaf)` groups using
    /// the TPR\*-tree's candidate orderings: position x/y advanced to
    /// `now` and velocity x/y (sorting by velocity is what lets the
    /// tree group objects moving in the same direction).
    fn cluster_leaves(&self, entries: Vec<LeafEntry>) -> Vec<Vec<LeafEntry>> {
        let now = self.now;
        let px = move |e: &LeafEntry| e.position_at(now).x;
        let py = move |e: &LeafEntry| e.position_at(now).y;
        let vx = |e: &LeafEntry| e.vel.x;
        let vy = |e: &LeafEntry| e.vel.y;
        let keys: [&dyn Fn(&LeafEntry) -> f64; 4] = [&px, &py, &vx, &vy];
        self.cluster(
            entries,
            &keys,
            &|e: &LeafEntry| e.tpbr(),
            self.layout.min_leaf,
            self.layout.max_leaf,
        )
    }

    /// Re-clusters internal entries into `ceil(n / max_internal)`
    /// groups, ordering by MBR center and VBR center.
    fn cluster_internals(&self, entries: Vec<InternalEntry>) -> Vec<Vec<InternalEntry>> {
        let px = |e: &InternalEntry| e.tpbr.rect.center().x;
        let py = |e: &InternalEntry| e.tpbr.rect.center().y;
        let vx = |e: &InternalEntry| (e.tpbr.vbr.lo.x + e.tpbr.vbr.hi.x) * 0.5;
        let vy = |e: &InternalEntry| (e.tpbr.vbr.lo.y + e.tpbr.vbr.hi.y) * 0.5;
        let keys: [&dyn Fn(&InternalEntry) -> f64; 4] = [&px, &py, &vx, &vy];
        self.cluster(
            entries,
            &keys,
            &|e: &InternalEntry| e.tpbr,
            self.layout.min_internal,
            self.layout.max_internal,
        )
    }

    /// The multi-way re-clustering core of every split and of bulk
    /// loading: partitions `items` into `ceil(n / max)` groups of
    /// between `min` and `max` items. For each candidate ordering the
    /// items are sorted, balanced contiguous chunks are seeded, and
    /// every interior chunk boundary is refined between its (fixed)
    /// neighbors by the O(window) prefix/suffix TPBR cost scan of
    /// [`TprTree::best_split_in`]. The ordering with the smallest
    /// summed group cost wins. With `n == max + 1` this is exactly the
    /// classic TPR\*-tree 2-way split.
    fn cluster<T: Clone>(
        &self,
        items: Vec<T>,
        keys: &[&dyn Fn(&T) -> f64],
        tpbr_of: &dyn Fn(&T) -> Tpbr,
        min: usize,
        max: usize,
    ) -> Vec<Vec<T>> {
        let n = items.len();
        if n <= max {
            return vec![items];
        }
        let m = n.div_ceil(max);
        let mut best: Option<(f64, Vec<T>, Vec<usize>)> = None;
        for key in keys {
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
            let tpbrs: Vec<Tpbr> = sorted.iter().map(tpbr_of).collect();
            // Balanced seeds: group g covers [g*n/m, (g+1)*n/m). Since
            // n > (m-1)*max, every seed already holds >= max/2 >= min
            // entries.
            let mut bounds: Vec<usize> = (0..=m).map(|g| g * n / m).collect();
            for bi in 1..m {
                let (s, e) = (bounds[bi - 1], bounds[bi + 1]);
                let lo = (s + min).max(e.saturating_sub(max));
                let hi = (s + max).min(e.saturating_sub(min));
                if lo <= hi {
                    if let Some((_, at)) = self.best_split_in(&tpbrs[s..e], lo - s, hi - s) {
                        bounds[bi] = s + at;
                    }
                }
            }
            let cost: f64 = (0..m)
                .map(|g| {
                    let group = &tpbrs[bounds[g]..bounds[g + 1]];
                    self.metric(&group.iter().fold(Tpbr::empty(0.0), |acc, t| acc.union(t)))
                })
                .sum();
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, sorted, bounds));
            }
        }
        let (_, sorted, bounds) = best.expect("at least one candidate ordering");
        let groups: Vec<Vec<T>> = bounds
            .windows(2)
            .map(|w| sorted[w[0]..w[1]].to_vec())
            .collect();
        debug_assert!(groups.iter().all(|g| (min..=max).contains(&g.len())));
        groups
    }

    /// For a fixed ordering, the split index in `[lo, hi]` minimizing
    /// the summed cost metric of the two groups, computed with O(n)
    /// prefix/suffix TPBR unions.
    fn best_split_in(&self, tpbrs: &[Tpbr], lo: usize, hi: usize) -> Option<(f64, usize)> {
        let n = tpbrs.len();
        if n < 2 || lo == 0 || hi >= n || lo > hi {
            return None;
        }
        let running = |acc: &mut Tpbr, t: &Tpbr| {
            *acc = acc.union(t);
            Some(*acc)
        };
        let prefix: Vec<Tpbr> = tpbrs.iter().scan(Tpbr::empty(0.0), running).collect();
        let mut suffix: Vec<Tpbr> = tpbrs.iter().rev().scan(Tpbr::empty(0.0), running).collect();
        suffix.reverse();
        let mut best: Option<(f64, usize)> = None;
        for at in lo..=hi {
            let cost = self.metric(&prefix[at - 1]) + self.metric(&suffix[at]);
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, at));
            }
        }
        best
    }

    // ----- condensing ---------------------------------------------------

    /// Collapses trivial roots left behind by removals: an internal
    /// root with a single child loses a level (repeatedly), and an
    /// empty root of either kind empties the tree.
    fn shrink_root(&mut self) -> IndexResult<()> {
        if !self.root.is_valid() {
            return Ok(());
        }
        loop {
            let (len, only_child) = self.pool.with_page(self.root, |buf| {
                NodeView::parse(buf).map(|v| match v {
                    NodeView::Internal(v) if v.len() == 1 => (1, Some(v.child_at(0))),
                    v => (v.len(), None),
                })
            })??;
            if let Some(child) = only_child {
                let old_root = self.root;
                self.root = child;
                self.height -= 1;
                self.pool.free_page(old_root)?;
            } else if len == 0 {
                // Everything was removed or dissolved into orphans.
                self.pool.free_page(self.root)?;
                self.root = PageId::INVALID;
                self.height = 0;
                return Ok(());
            } else {
                return Ok(());
            }
        }
    }

    /// Dismantles a subtree into its leaf entries, freeing every page
    /// (condensing an internal node: reinserting leaf entries is simpler
    /// than grafting subtrees at matching levels, and rare).
    fn dismantle_subtree(&self, root: PageId, out: &mut Vec<LeafEntry>) -> IndexResult<()> {
        let mut stack = vec![root];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid)? {
                Node::Leaf { entries } => out.extend(entries),
                Node::Internal { entries, .. } => {
                    stack.extend(entries.iter().map(|e| e.child));
                }
            }
            self.pool.free_page(pid)?;
        }
        Ok(())
    }

    // ----- bulk load and the write pass ---------------------------------

    /// Builds a tree over `objects` bottom-up: the multi-way clustering
    /// core packs the leaves and stacks internal levels on top, with no
    /// per-object root descent. Same contents as inserting each object,
    /// far cheaper. Fails with [`IndexError::DuplicateObject`] on a
    /// repeated id.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        config: TprConfig,
        objects: &[MovingObject],
    ) -> IndexResult<TprTree> {
        let mut tree = TprTree::new(pool, config);
        let mut table = HashMap::with_capacity(objects.len());
        let mut leaves = Vec::with_capacity(objects.len());
        for obj in objects {
            let entry = LeafEntry::from_object(obj);
            if table.insert(obj.id, entry).is_some() {
                return Err(IndexError::DuplicateObject(obj.id));
            }
            tree.now = tree.now.max(obj.ref_time);
            leaves.push(entry);
        }
        let before = tree.track_begin();
        let built = tree.build_from_entries(leaves);
        tree.track_end(before);
        built?;
        tree.entries = table;
        Ok(tree)
    }

    /// Builds the tree bottom-up over `entries` (the tree must be
    /// empty): cluster into leaves, then stack internal levels.
    fn build_from_entries(&mut self, entries: Vec<LeafEntry>) -> IndexResult<()> {
        debug_assert!(!self.root.is_valid());
        if entries.is_empty() {
            return Ok(());
        }
        let leaves = self.recluster(Node::Leaf { entries });
        let nodes = self.write_siblings(leaves)?;
        self.install_root(nodes, 0)
    }

    /// Installs a root above `nodes` (which all sit at `child_level`),
    /// re-clustering each internal level until a single node remains.
    fn install_root(
        &mut self,
        mut nodes: Vec<InternalEntry>,
        mut child_level: u8,
    ) -> IndexResult<()> {
        while nodes.len() > 1 {
            child_level += 1;
            let parents = self.recluster(Node::Internal {
                level: child_level,
                entries: nodes,
            });
            nodes = self.write_siblings(parents)?;
        }
        self.root = nodes[0].child;
        self.height = child_level + 1;
        Ok(())
    }

    /// One pass over the tree: remove the given stored entries and
    /// group-insert `inserts`, reading and writing every touched page
    /// at most once. `rule` says what an overflowing leaf does and how
    /// the entries the pass spills (evicted or orphaned) go back in.
    fn apply_group(
        &mut self,
        removals: &[LeafEntry],
        inserts: &[LeafEntry],
        rule: Overflow,
    ) -> IndexResult<()> {
        if removals.is_empty() && inserts.is_empty() {
            return Ok(());
        }
        if !self.root.is_valid() {
            debug_assert!(removals.is_empty(), "nothing to remove from an empty tree");
            return self.build_from_entries(inserts.to_vec());
        }
        let mut pending: HashSet<ObjectId> = removals.iter().map(|e| e.id).collect();
        let mut spill = Spill {
            may_evict: rule == Overflow::Reinsert,
            evicted: Vec::new(),
            orphans: Vec::new(),
        };
        let mut routed: Vec<Routed> = inserts.iter().map(|&e| (0, e)).collect();
        let outcome = self.batch_rec(self.root, removals, &mut pending, &mut routed, &mut spill)?;
        if let GroupOutcome::Many(nodes) = outcome {
            let child_level = self.height - 1;
            self.install_root(nodes, child_level)?;
        }
        if !pending.is_empty() {
            // The lookup table said these exist; a miss means drift
            // beyond the containment epsilons — surface loudly rather
            // than corrupting the table.
            let mut ids: Vec<ObjectId> = pending.into_iter().collect();
            ids.sort_unstable();
            return Err(IndexError::Storage(vp_storage::StorageError::Corrupt(
                format!("entries for objects {ids:?} not reachable by guided descent"),
            )));
        }
        if !removals.is_empty() {
            self.shrink_root()?;
        }
        // Reinsertion passes insert only, so they dissolve nothing and
        // this recursion ends after one round.
        match rule {
            Overflow::Reinsert => {
                while let Some(e) = spill.evicted.pop() {
                    self.apply_group(&[], &[e], Overflow::Recluster)?;
                }
                for e in spill.orphans {
                    self.apply_group(&[], &[e], Overflow::Reinsert)?;
                }
                Ok(())
            }
            Overflow::Recluster => self.apply_group(&[], &spill.orphans, rule),
        }
    }

    /// The recursive pass over page `pid`. `cands` are the pending
    /// removals whose stored entry this subtree could contain;
    /// `pending` holds the ids not yet removed (claimed at the leaves,
    /// so overlapping sibling subtrees never search for an
    /// already-removed entry); `inserts` are the entries bound for the
    /// subtree.
    ///
    /// The read fetch looks at the node through a view. The write
    /// fetch edits a node that neither overflows nor dissolves in place
    /// and returns its bounding TPBR folded over the page.
    fn batch_rec(
        &self,
        pid: PageId,
        cands: &[LeafEntry],
        pending: &mut HashSet<ObjectId>,
        inserts: &mut [Routed],
        spill: &mut Spill,
    ) -> IndexResult<GroupOutcome> {
        let root = pid == self.root;
        let seen = self.pool.with_page(pid, |buf| {
            NodeView::parse(buf).map(|v| match v {
                NodeView::Leaf(v) => self.see_leaf(v, root, cands, pending, inserts),
                NodeView::Internal(v) => self.see_internal(v, root, cands, inserts),
            })
        })??;
        match seen {
            Seen::Unchanged => Ok(GroupOutcome::Unchanged),
            Seen::Leaf {
                removed,
                len,
                survivors,
            } => self.pass_leaf(pid, &removed, len, survivors, inserts, spill),
            Seen::Internal(fanout) => self.pass_internal(pid, fanout, pending, inserts, spill),
        }
    }

    /// A leaf's read: claims its pending removals. Only a leaf that
    /// dissolves has its survivors copied out, as its page is freed
    /// unwritten.
    fn see_leaf(
        &self,
        v: LeafView<'_>,
        root: bool,
        cands: &[LeafEntry],
        pending: &mut HashSet<ObjectId>,
        inserts: &[Routed],
    ) -> Seen {
        let mut removed = Vec::new();
        if !cands.is_empty() {
            removed.extend((0..v.len()).filter(|&i| pending.remove(&v.id_at(i))));
        }
        if removed.is_empty() && inserts.is_empty() {
            return Seen::Unchanged;
        }
        let len = v.len() - removed.len() + inserts.len();
        let survivors = (!root && len < self.layout.min_leaf).then(|| {
            let mut entries: Vec<LeafEntry> = v.entries().collect();
            entries.remove_entries(removed.iter().copied());
            entries
        });
        Seen::Leaf {
            removed,
            len,
            survivors,
        }
    }

    /// An internal node's read: routes every insert to the child whose
    /// cost metric grows least, evaluated against the pre-pass child
    /// TPBRs on the page, and lists the children the pass descends
    /// into. A stable sort by child makes each child's inserts one run
    /// of `inserts`, in pass order.
    fn see_internal(
        &self,
        v: InternalView<'_>,
        root: bool,
        cands: &[LeafEntry],
        inserts: &mut [Routed],
    ) -> Seen {
        for r in inserts.iter_mut() {
            r.0 = self.choose_subtree(v.entries(), &r.1);
        }
        inserts.sort_by_key(|r| r.0);
        let mut visits = Vec::new();
        let mut next = 0;
        for slot in 0..v.len() {
            let start = next;
            while next < inserts.len() && inserts[next].0 == slot {
                next += 1;
            }
            if start == next && cands.is_empty() {
                continue;
            }
            let tpbr = v.tpbr_at(slot);
            let cands: Vec<LeafEntry> = cands
                .iter()
                .filter(|t| could_contain(&tpbr, t))
                .copied()
                .collect();
            if start == next && cands.is_empty() {
                continue;
            }
            visits.push(Visit {
                slot,
                child: v.child_at(slot),
                cands,
                inserts: start..next,
                outcome: GroupOutcome::Unchanged,
            });
        }
        // Only a visited child can dissolve, so a node keeps at least
        // `len - visits` entries; one that might fall below its minimum
        // keeps its children's pages to dismantle.
        let children = (!root && v.len() - visits.len() < self.layout.min_internal)
            .then(|| (0..v.len()).map(|i| v.child_at(i)).collect());
        Seen::Internal(Fanout {
            len: v.len(),
            visits,
            children,
        })
    }

    /// A leaf's write: dissolves into the orphans, re-clusters or
    /// evicts when it overflows, and otherwise is edited in place.
    fn pass_leaf(
        &self,
        pid: PageId,
        removed: &[usize],
        len: usize,
        survivors: Option<Vec<LeafEntry>>,
        inserts: &[Routed],
        spill: &mut Spill,
    ) -> IndexResult<GroupOutcome> {
        let fresh = inserts.iter().map(|r| r.1);
        if let Some(survivors) = survivors {
            spill.orphans.extend(survivors);
            spill.orphans.extend(fresh);
            self.pool.free_page(pid)?;
            return Ok(GroupOutcome::Dissolved);
        }
        if len > self.layout.max_leaf {
            let evict = spill.may_evict && pid != self.root;
            return self.split(pid, |node| {
                let Node::Leaf { entries } = node else {
                    unreachable!("page {pid} was read as a leaf");
                };
                entries.remove_entries(removed.iter().copied());
                entries.extend(fresh);
                if evict {
                    spill.may_evict = false;
                    let keep = self.select_reinsert(entries);
                    spill.evicted.extend(entries.drain(keep..));
                }
            });
        }
        let tpbr = self.pool.with_page_mut(pid, |buf| {
            LeafViewMut::parse(buf).map(|mut v| {
                v.remove_entries(removed.iter().copied());
                for e in fresh {
                    v.push_entry(e);
                }
                v.as_view().bounding_tpbr()
            })
        })??;
        Ok(GroupOutcome::One(tpbr))
    }

    /// An internal node's write: runs the pass in each visited child,
    /// then re-clusters when the node overflows, dissolves it when it
    /// underflows, and otherwise patches it in place.
    fn pass_internal(
        &self,
        pid: PageId,
        fanout: Fanout,
        pending: &mut HashSet<ObjectId>,
        inserts: &mut [Routed],
        spill: &mut Spill,
    ) -> IndexResult<GroupOutcome> {
        let Fanout {
            len: mut new_len,
            mut visits,
            children,
        } = fanout;
        let mut changed = false;
        for v in &mut visits {
            v.cands.retain(|t| pending.contains(&t.id));
            if v.inserts.is_empty() && v.cands.is_empty() {
                continue;
            }
            let ins = &mut inserts[v.inserts.clone()];
            v.outcome = self.batch_rec(v.child, &v.cands, pending, ins, spill)?;
            match &v.outcome {
                GroupOutcome::Unchanged => continue,
                GroupOutcome::One(_) => {}
                GroupOutcome::Many(nodes) => new_len += nodes.len() - 1,
                GroupOutcome::Dissolved => new_len -= 1,
            }
            changed = true;
        }
        if !changed {
            return Ok(GroupOutcome::Unchanged);
        }
        if new_len > self.layout.max_internal {
            return self.split(pid, |node| {
                let Node::Internal { entries, .. } = node else {
                    unreachable!("page {pid} was read as an internal node");
                };
                apply_outcomes(entries, &visits);
            });
        }
        if pid != self.root && new_len < self.layout.min_internal {
            let children = children.expect("a node that can dissolve kept its children");
            let mut visit = visits.iter().peekable();
            for (slot, child) in children.into_iter().enumerate() {
                match visit.next_if(|v| v.slot == slot) {
                    Some(v) if matches!(v.outcome, GroupOutcome::Dissolved) => {}
                    _ => self.dismantle_subtree(child, &mut spill.orphans)?,
                }
            }
            for v in &visits {
                if let GroupOutcome::Many(nodes) = &v.outcome {
                    for n in &nodes[1..] {
                        self.dismantle_subtree(n.child, &mut spill.orphans)?;
                    }
                }
            }
            self.pool.free_page(pid)?;
            return Ok(GroupOutcome::Dissolved);
        }
        let tpbr = self.pool.with_page_mut(pid, |buf| {
            InternalViewMut::parse(buf).map(|mut v| {
                apply_outcomes(&mut v, &visits);
                v.as_view().bounding_tpbr()
            })
        })??;
        Ok(GroupOutcome::One(tpbr))
    }

    /// Rewrites an overflowing node. Its page still holds the pre-pass
    /// contents, so the write fetch decodes them, `edit` applies the
    /// pass, and the entries re-cluster multi-way: the first node goes
    /// over page `pid`, the rest on fresh pages after it. An R\*
    /// eviction may leave one node that fits.
    fn split(&self, pid: PageId, edit: impl FnOnce(&mut Node)) -> IndexResult<GroupOutcome> {
        let (tpbr, rest) = self.pool.with_page_mut(pid, |buf| {
            let mut node = Node::decode(buf)?;
            edit(&mut node);
            let mut nodes = self.recluster(node).into_iter();
            let first = nodes.next().expect("re-clustering yields a node");
            first.encode(buf)?;
            Ok::<_, vp_storage::StorageError>((first.bounding_tpbr(), nodes.collect::<Vec<_>>()))
        })??;
        if rest.is_empty() {
            return Ok(GroupOutcome::One(tpbr));
        }
        let mut out = vec![InternalEntry { child: pid, tpbr }];
        out.extend(self.write_siblings(rest)?);
        Ok(GroupOutcome::Many(out))
    }

    /// Re-clusters a node's entries into `ceil(n / max)` nodes at its
    /// level (the node itself when it fits).
    fn recluster(&self, node: Node) -> Vec<Node> {
        match node {
            Node::Leaf { entries } => self
                .cluster_leaves(entries)
                .into_iter()
                .map(|entries| Node::Leaf { entries })
                .collect(),
            Node::Internal { level, entries } => self
                .cluster_internals(entries)
                .into_iter()
                .map(|entries| Node::Internal { level, entries })
                .collect(),
        }
    }

    /// Writes sibling nodes to fresh pages and returns their parent
    /// entries.
    fn write_siblings(&self, nodes: Vec<Node>) -> IndexResult<Vec<InternalEntry>> {
        nodes
            .into_iter()
            .map(|node| {
                Ok(InternalEntry {
                    child: self.alloc_node(&node)?,
                    tpbr: node.bounding_tpbr(),
                })
            })
            .collect()
    }
}

/// Applies the children's outcomes to their parent's entries:
/// dissolved children are removed, each changed child's slot is then
/// patched with its new TPBR (a split child's with its first node), and
/// the rest of each split goes after the existing entries.
fn apply_outcomes(node: &mut impl EditEntries<InternalEntry>, visits: &[Visit]) {
    let dissolved = |v: &&Visit| matches!(v.outcome, GroupOutcome::Dissolved);
    node.remove_entries(visits.iter().filter(dissolved).map(|v| v.slot));
    let mut gone = 0;
    for v in visits {
        let patch = match &v.outcome {
            GroupOutcome::One(tpbr) => InternalEntry {
                child: v.child,
                tpbr: *tpbr,
            },
            GroupOutcome::Many(nodes) => nodes[0],
            GroupOutcome::Dissolved => {
                gone += 1;
                continue;
            }
            GroupOutcome::Unchanged => continue,
        };
        node.set_entry(v.slot - gone, patch);
    }
    for v in visits {
        if let GroupOutcome::Many(nodes) = &v.outcome {
            for n in &nodes[1..] {
                node.push_entry(*n);
            }
        }
    }
}

/// What a pass does with a leaf that overflows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Overflow {
    /// The R\*-tree's rule, as the TPR\*-tree inserts: the first
    /// overflowing non-root leaf of the pass evicts its
    /// `REINSERT_FRACTION` farthest entries instead of splitting. After
    /// the pass each evicted entry goes back in as a pass of its own
    /// that may not evict (last-evicted first), then each orphan as a
    /// pass of its own that may. The single ops use it.
    Reinsert,
    /// Every overflow re-clusters multi-way, and the orphans go back in
    /// as one trailing group pass. The batches use it.
    Recluster,
}

/// What one pass leaves to reinsert.
struct Spill {
    /// Whether an overflowing non-root leaf may still evict.
    may_evict: bool,
    /// Entries evicted under [`Overflow::Reinsert`], in eviction order.
    evicted: Vec<LeafEntry>,
    /// Survivors of the nodes dissolved by underflow.
    orphans: Vec<LeafEntry>,
}

/// An entry a pass inserts, with the child slot it routes to at the
/// level being passed (rewritten at every level).
type Routed = (usize, LeafEntry);

/// What the read fetch of a node tells its write.
enum Seen {
    /// A leaf with nothing to remove or insert.
    Unchanged,
    Leaf {
        /// Slots of the claimed removals, ascending.
        removed: Vec<usize>,
        /// Entries after the pass.
        len: usize,
        /// The entries left after the pass when the leaf dissolves.
        survivors: Option<Vec<LeafEntry>>,
    },
    Internal(Fanout),
}

/// What an internal node's read fetch tells its write.
struct Fanout {
    /// Entries before the pass.
    len: usize,
    /// The children the pass descends into, by slot.
    visits: Vec<Visit>,
    /// Every child's page, kept only when the node might dissolve.
    children: Option<Vec<PageId>>,
}

/// A child an internal node's share of a pass descends into.
struct Visit {
    slot: usize,
    child: PageId,
    /// Pending removals the child's TPBR could contain.
    cands: Vec<LeafEntry>,
    /// The run of the parent's routed inserts bound for the child.
    inserts: Range<usize>,
    /// What the child's pass did.
    outcome: GroupOutcome,
}

/// Outcome of one subtree's share of a pass.
enum GroupOutcome {
    /// Nothing in the subtree changed: no page was written, and the
    /// parent keeps its entry as it is.
    Unchanged,
    /// The node absorbed its ops in place; its new exact bounding TPBR.
    One(Tpbr),
    /// The node overflowed and re-clustered into several nodes (the
    /// original page is reused for the first); all at the node's level.
    Many(Vec<InternalEntry>),
    /// The node underflowed and dissolved: its surviving entries moved
    /// to the orphans and its page was freed.
    Dissolved,
}

/// Conservative test: could this node's TPBR contain the given entry?
/// Exact containment holds by construction (parent TPBRs are unions of
/// their children); epsilons absorb floating-point drift.
fn could_contain(node: &Tpbr, e: &LeafEntry) -> bool {
    let t0 = node.ref_time.max(e.ref_time);
    let r = node.rect_at(t0);
    let p = e.position_at(t0);
    r.inflate(EPS_POS, EPS_POS).contains_point(p)
        && node.vbr.lo.x - EPS_VEL <= e.vel.x
        && e.vel.x <= node.vbr.hi.x + EPS_VEL
        && node.vbr.lo.y - EPS_VEL <= e.vel.y
        && e.vel.y <= node.vbr.hi.y + EPS_VEL
}

impl MovingObjectIndex for TprTree {
    fn insert(&mut self, obj: MovingObject) -> IndexResult<()> {
        if self.entries.contains_key(&obj.id) {
            return Err(IndexError::DuplicateObject(obj.id));
        }
        let before = self.track_begin();
        self.now = self.now.max(obj.ref_time);
        let entry = LeafEntry::from_object(&obj);
        let result = self.apply_group(&[], &[entry], Overflow::Reinsert);
        self.track_end(before);
        result?;
        self.entries.insert(obj.id, entry);
        Ok(())
    }

    fn delete(&mut self, id: ObjectId) -> IndexResult<()> {
        let Some(entry) = self.entries.get(&id).copied() else {
            return Err(IndexError::UnknownObject(id));
        };
        let before = self.track_begin();
        let result = self.apply_group(&[entry], &[], Overflow::Reinsert);
        self.track_end(before);
        result?;
        self.entries.remove(&id);
        Ok(())
    }

    /// Batched upsert: the stale stored entries of already-present ids
    /// are removed and every winner group-inserted in **one pass**
    /// under the re-cluster rule. Same contents as the looped default
    /// (last occurrence of an id wins), usually a different shape.
    fn update_batch(&mut self, updates: &[MovingObject]) -> IndexResult<()> {
        if updates.is_empty() {
            return Ok(());
        }
        // Each id's last occurrence wins, in the order those occur.
        let mut seen = HashSet::with_capacity(updates.len());
        let (mut winners, mut removals) = (Vec::new(), Vec::new());
        for obj in updates.iter().rev().filter(|o| seen.insert(o.id)) {
            self.now = self.now.max(obj.ref_time);
            removals.extend(self.entries.get(&obj.id).copied());
            winners.push(LeafEntry::from_object(obj));
        }
        winners.reverse();
        removals.reverse();
        let before = self.track_begin();
        let result = self.apply_group(&removals, &winners, Overflow::Recluster);
        self.track_end(before);
        result?;
        for e in winners {
            self.entries.insert(e.id, e);
        }
        Ok(())
    }

    /// Batched deletion: all doomed entries are removed in one pass
    /// under the re-cluster rule. Every id is resolved
    /// before the tree is touched, so an unknown or duplicated id
    /// rejects the whole batch with the index unchanged.
    fn remove_batch(&mut self, ids: &[ObjectId]) -> IndexResult<()> {
        if ids.is_empty() {
            return Ok(());
        }
        let mut targets = Vec::with_capacity(ids.len());
        let mut seen = HashSet::with_capacity(ids.len());
        for &id in ids {
            let Some(entry) = self.entries.get(&id) else {
                return Err(IndexError::UnknownObject(id));
            };
            if !seen.insert(id) {
                return Err(IndexError::DuplicateObject(id));
            }
            targets.push(*entry);
        }
        let before = self.track_begin();
        let result = self.apply_group(&targets, &[], Overflow::Recluster);
        self.track_end(before);
        result?;
        for &id in ids {
            self.entries.remove(&id);
        }
        Ok(())
    }

    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        one(self.read(std::slice::from_ref(query), Report::Matches))
    }

    /// One shared walk over the whole batch (see
    /// [`crate::snapshot`]): every node page is read once
    /// for all queries that reach it.
    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        self.read(queries, Report::Matches)
    }

    /// Incremental kNN candidates: the same walk, reporting visited
    /// leaves unfiltered and skipping subtrees whose footprint lies
    /// entirely inside the `covered` probe's region, so only the delta
    /// ring between the two probes is re-read.
    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        one(self.read(std::slice::from_ref(query), Report::Candidates(covered)))
    }

    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
        Ok(self.entries.get(&id).map(|e| e.to_object()))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn io_stats(&self) -> IoStats {
        self.own.snapshot()
    }

    fn reset_io_stats(&self) {
        self.own.reset();
    }

    fn flush_storage(&self) -> IndexResult<()> {
        Ok(self.pool.checkpoint()?)
    }

    fn publish_epoch(&self) {
        if self.pool.is_versioned() {
            self.pool.commit_epoch();
        }
    }
}

impl SnapshotIndex for TprTree {
    type Snapshot = TprSnapshot;

    /// Captures the tree's current state: publishes everything written
    /// so far as a fresh committed pool epoch (the caller holds
    /// `&self`, so no write is in flight) and pins it, switching the
    /// shared pool into versioned mode on first use. Cheap — no page
    /// copies; resident pages are shared by refcount.
    fn snapshot(&self) -> IndexResult<TprSnapshot> {
        self.pool.enable_versioning();
        self.pool.commit_epoch();
        Ok(TprSnapshot {
            pages: self.pool.page_snapshot(),
            root: self.root,
            len: self.entries.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_core::QueryRegion;
    use vp_geom::{Circle, Rect};
    use vp_storage::DiskManager;

    fn small_pool() -> Arc<BufferPool> {
        // 512-byte pages: 10 leaf entries, 6 internal entries. Small
        // fanout exercises splits/underflows with few objects.
        Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(512),
            50,
        ))
    }

    fn tree() -> TprTree {
        TprTree::new(small_pool(), TprConfig::default())
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TprTree>();
    }

    fn obj(id: u64, x: f64, y: f64, vx: f64, vy: f64, t: f64) -> MovingObject {
        MovingObject::new(id, Point::new(x, y), Point::new(vx, vy), t)
    }

    /// Deterministic pseudo-random stream.
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

    fn random_objects(n: usize, seed: u64) -> Vec<MovingObject> {
        let mut rng = Rng(seed);
        (0..n as u64)
            .map(|id| {
                let x = rng.next() * 10_000.0;
                let y = rng.next() * 10_000.0;
                let ang = rng.next() * std::f64::consts::TAU;
                let speed = rng.next() * 100.0;
                obj(id, x, y, ang.cos() * speed, ang.sin() * speed, 0.0)
            })
            .collect()
    }

    /// The batched path's semantic contract: `update_batch` (one
    /// top-down group pass with re-clustering) must behave exactly
    /// like looping `update` / `insert` by hand — same contents, same
    /// query answers, same structural invariants. (The tree *shapes*
    /// legitimately differ; queries must not.) The seeded proptest in
    /// `tests/batch_equivalence.rs` generalizes this to random tick
    /// streams with range + kNN oracles.
    #[test]
    fn update_batch_matches_looped_updates() {
        let mut batched = tree();
        let mut looped = tree();
        let mut objs = random_objects(300, 0x7EE7);
        for o in &objs {
            batched.insert(*o).unwrap();
            looped.insert(*o).unwrap();
        }
        let mut rng = Rng(0x1CE);
        for tick in 1..=4u64 {
            let t = tick as f64 * 15.0;
            let mut updates = Vec::new();
            let mut stale = None;
            for o in objs.iter_mut() {
                if o.id % 4 == tick % 4 {
                    // Remember the first mover's pre-tick state to use
                    // as a genuinely different duplicate below.
                    if stale.is_none() {
                        stale = Some(*o);
                    }
                    // Half the movers turn 90°, stressing re-clustering.
                    let vel = if o.id % 2 == 0 {
                        Point::new(-o.vel.y, o.vel.x)
                    } else {
                        o.vel
                    };
                    *o = MovingObject::new(o.id, o.position_at(t), vel, t);
                    updates.push(*o);
                }
            }
            // Duplicate id inside one batch: the stale pre-tick state
            // rides first, the fresh update last — last write must
            // win, like the documented upsert semantics. (A
            // first-write-wins bug would keep the stale position and
            // diverge from the looped twin below.)
            if let Some(stale) = stale {
                updates.insert(0, stale);
            }
            // A brand-new id exercises the upsert path.
            let fresh = obj(
                50_000 + tick,
                rng.next() * 10_000.0,
                rng.next() * 10_000.0,
                10.0,
                -5.0,
                t,
            );
            updates.push(fresh);
            objs.push(fresh);

            batched.update_batch(&updates).unwrap();
            for u in &updates {
                if looped.get_object(u.id).unwrap().is_some() {
                    looped.update(*u).unwrap();
                } else {
                    looped.insert(*u).unwrap();
                }
            }

            assert_eq!(batched.len(), looped.len(), "tick {tick}");
            for o in &objs {
                assert_eq!(
                    batched.get_object(o.id).unwrap(),
                    looped.get_object(o.id).unwrap(),
                    "tick {tick}, object {}",
                    o.id
                );
            }
            let mut qrng = Rng(tick * 31 + 7);
            for qi in 0..8 {
                let c = Point::new(qrng.next() * 10_000.0, qrng.next() * 10_000.0);
                let q = RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(c, 1_500.0)),
                    t + qi as f64,
                );
                let mut a = batched.range_query(&q).unwrap();
                let mut b = looped.range_query(&q).unwrap();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "tick {tick} query {qi} diverged");
            }
            batched.check_invariants().unwrap().unwrap();
        }
    }

    /// `remove_batch`'s sibling contract: looped deletes and the
    /// batched one-pass removal answer every query identically.
    #[test]
    fn remove_batch_matches_looped_deletes() {
        let objs = random_objects(200, 0xD00D);
        let mut batched = tree();
        let mut looped = tree();
        for o in &objs {
            batched.insert(*o).unwrap();
            looped.insert(*o).unwrap();
        }
        let doomed: Vec<u64> = objs.iter().map(|o| o.id).filter(|id| id % 3 == 0).collect();
        batched.remove_batch(&doomed).unwrap();
        for &id in &doomed {
            looped.delete(id).unwrap();
        }
        assert_eq!(batched.len(), looped.len());
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 10_000.0, 10_000.0)),
            0.0,
        );
        let mut a = batched.range_query(&q).unwrap();
        let mut b = looped.range_query(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(a.iter().all(|id| id % 3 != 0));
        batched.check_invariants().unwrap().unwrap();
    }

    /// `bulk_load` must hold the same contents and answer the same
    /// queries as incremental insertion, through several multi-level
    /// tree sizes.
    #[test]
    fn bulk_load_matches_incremental_inserts() {
        for n in [0usize, 5, 60, 400, 1200] {
            let objs = random_objects(n, 0xB01D ^ n as u64);
            let bulk = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
            let mut inc = tree();
            for o in &objs {
                inc.insert(*o).unwrap();
            }
            assert_eq!(bulk.len(), inc.len(), "n = {n}");
            bulk.check_invariants().unwrap().unwrap();
            let mut rng = Rng(0x5EED ^ n as u64 | 1);
            for qi in 0..10 {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                let q = RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(c, 1_200.0)),
                    (qi % 4) as f64 * 20.0,
                );
                let mut a = bulk.range_query(&q).unwrap();
                let mut b = inc.range_query(&q).unwrap();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "n = {n}, query {qi}");
            }
        }
    }

    #[test]
    fn bulk_load_rejects_duplicate_ids() {
        let mut objs = random_objects(20, 0xD0D0);
        objs.push(objs[3]);
        assert!(matches!(
            TprTree::bulk_load(small_pool(), TprConfig::default(), &objs),
            Err(IndexError::DuplicateObject(3))
        ));
    }

    /// A bulk-loaded tree keeps working under the single-op paths.
    #[test]
    fn bulk_loaded_tree_supports_all_ops() {
        let objs = random_objects(300, 0x1DEA);
        let mut t = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        t.insert(obj(9_999, 1.0, 1.0, 0.0, 0.0, 0.0)).unwrap();
        t.delete(0).unwrap();
        t.update(obj(1, 5_000.0, 5_000.0, 3.0, -2.0, 10.0)).unwrap();
        assert_eq!(t.len(), 300);
        t.check_invariants().unwrap().unwrap();
    }

    /// The attributable win of the tentpole: one full tick applied
    /// batched must write strictly fewer pages than looped single-op
    /// updates (one write per touched page vs. one path rewrite per
    /// object).
    #[test]
    fn update_batch_writes_fewer_pages_than_looped() {
        let objs = random_objects(600, 0x10C0);
        let updates: Vec<MovingObject> = objs
            .iter()
            .map(|o| MovingObject::new(o.id, o.position_at(30.0), o.vel, 30.0))
            .collect();

        let mut batched = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        batched.reset_io_stats();
        batched.update_batch(&updates).unwrap();
        let io_batched = batched.io_stats();

        let mut looped = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        looped.reset_io_stats();
        for u in &updates {
            looped.update(*u).unwrap();
        }
        let io_looped = looped.io_stats();

        assert!(
            io_batched.logical_writes < io_looped.logical_writes / 2,
            "batched tick should write far fewer pages: batched {} vs looped {}",
            io_batched.logical_writes,
            io_looped.logical_writes
        );
        batched.check_invariants().unwrap().unwrap();
    }

    #[test]
    fn remove_batch_rejects_unknown_and_duplicate_ids() {
        let objs = random_objects(50, 0xBAD);
        let mut t = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        assert!(matches!(
            t.remove_batch(&[1, 2, 999]),
            Err(IndexError::UnknownObject(999))
        ));
        assert!(matches!(
            t.remove_batch(&[1, 2, 1]),
            Err(IndexError::DuplicateObject(1))
        ));
        // Both rejections left the index untouched.
        assert_eq!(t.len(), 50);
        t.check_invariants().unwrap().unwrap();
        t.remove_batch(&[1, 2]).unwrap();
        assert_eq!(t.len(), 48);
    }

    /// A giant batch landing on a tiny tree must grow it through
    /// multiple levels in one pass (multi-way splits cascading through
    /// `install_root`).
    #[test]
    fn update_batch_grows_tree_multiple_levels() {
        let mut t = tree();
        t.insert(obj(100_000, 5_000.0, 5_000.0, 1.0, 1.0, 0.0))
            .unwrap();
        let objs = random_objects(800, 0x9E0);
        t.update_batch(&objs).unwrap();
        assert_eq!(t.len(), 801);
        assert!(t.height() >= 3, "expected >= 3 levels, got {}", t.height());
        t.check_invariants().unwrap().unwrap();
        // And shrink back down through batched removal.
        let doomed: Vec<u64> = objs.iter().map(|o| o.id).collect();
        t.remove_batch(&doomed).unwrap();
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap().unwrap();
    }

    #[test]
    fn insert_and_point_query() {
        let mut t = tree();
        t.insert(obj(1, 100.0, 100.0, 1.0, 0.0, 0.0)).unwrap();
        t.insert(obj(2, 500.0, 500.0, 0.0, 1.0, 0.0)).unwrap();
        assert_eq!(t.len(), 2);
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(90.0, 90.0, 110.0, 110.0)),
            0.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![1]);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = tree();
        t.insert(obj(1, 0.0, 0.0, 0.0, 0.0, 0.0)).unwrap();
        assert!(matches!(
            t.insert(obj(1, 5.0, 5.0, 0.0, 0.0, 0.0)),
            Err(IndexError::DuplicateObject(1))
        ));
    }

    #[test]
    fn grows_and_queries_through_splits() {
        let mut t = tree();
        let objs = random_objects(500, 0xABCD);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2, "tree should have split");
        // Every object findable by a tight query at its own position.
        for o in objs.iter().step_by(37) {
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(o.pos, 1.0)), 0.0);
            let got = t.range_query(&q).unwrap();
            assert!(got.contains(&o.id), "object {} lost", o.id);
        }
    }

    #[test]
    fn matches_linear_scan_on_predictive_queries() {
        let mut t = tree();
        let objs = random_objects(400, 0x77);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x1234);
        for qi in 0..40 {
            let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
            let horizon = (qi % 5) as f64 * 20.0;
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(c, 800.0)), horizon);
            let mut got = t.range_query(&q).unwrap();
            let mut want: Vec<u64> = objs.iter().filter(|o| q.matches(o)).map(|o| o.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} diverged");
        }
    }

    #[test]
    fn interval_and_moving_queries_match_scan() {
        let mut t = tree();
        let objs = random_objects(300, 0x99);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x555);
        for qi in 0..30 {
            let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
            let region = QueryRegion::Rect(Rect::centered(c, 500.0, 500.0));
            let q = if qi % 2 == 0 {
                RangeQuery::time_interval(region, 10.0, 50.0)
            } else {
                RangeQuery::moving(region, Point::new(rng.next() * 50.0, 0.0), 10.0, 50.0)
            };
            let mut got = t.range_query(&q).unwrap();
            let mut want: Vec<u64> = objs.iter().filter(|o| q.matches(o)).map(|o| o.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} diverged");
        }
    }

    #[test]
    fn delete_all_objects() {
        let mut t = tree();
        let objs = random_objects(300, 0x31);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        for (i, o) in objs.iter().enumerate() {
            t.delete(o.id).unwrap();
            assert_eq!(t.len(), 300 - i - 1);
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap().expect("empty tree is valid");
        assert_eq!(t.height(), 0);
        // Everything gone.
        let q = RangeQuery::time_slice(
            QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 1e5, 1e5)),
            0.0,
        );
        assert!(t.range_query(&q).unwrap().is_empty());
    }

    #[test]
    fn delete_unknown_errors() {
        let mut t = tree();
        assert!(matches!(t.delete(9), Err(IndexError::UnknownObject(9))));
    }

    #[test]
    fn update_moves_object() {
        let mut t = tree();
        for o in random_objects(200, 0x42) {
            t.insert(o).unwrap();
        }
        t.update(obj(5, 9_999.0, 9_999.0, 0.0, 0.0, 10.0)).unwrap();
        assert_eq!(t.len(), 200);
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(9_999.0, 9_999.0), 5.0)),
            10.0,
        );
        assert_eq!(t.range_query(&q).unwrap(), vec![5]);
    }

    #[test]
    fn mixed_workload_stays_consistent() {
        let mut t = tree();
        let mut live: std::collections::BTreeMap<u64, MovingObject> = Default::default();
        let mut rng = Rng(0xFEED);
        let mut next_id = 0u64;
        for step in 0..2000 {
            let r = rng.next();
            if r < 0.5 || live.is_empty() {
                let o = obj(
                    next_id,
                    rng.next() * 10_000.0,
                    rng.next() * 10_000.0,
                    rng.next() * 100.0 - 50.0,
                    rng.next() * 100.0 - 50.0,
                    (step / 100) as f64,
                );
                next_id += 1;
                t.insert(o).unwrap();
                live.insert(o.id, o);
            } else if r < 0.75 {
                let k = *live
                    .keys()
                    .nth((rng.next() * live.len() as f64) as usize)
                    .unwrap();
                t.delete(k).unwrap();
                live.remove(&k);
            } else {
                let k = *live
                    .keys()
                    .nth((rng.next() * live.len() as f64) as usize)
                    .unwrap();
                let o = obj(
                    k,
                    rng.next() * 10_000.0,
                    rng.next() * 10_000.0,
                    rng.next() * 100.0 - 50.0,
                    rng.next() * 100.0 - 50.0,
                    (step / 100) as f64,
                );
                t.update(o).unwrap();
                live.insert(k, o);
            }
            assert_eq!(t.len(), live.len());
            if step % 500 == 0 {
                t.check_invariants()
                    .unwrap()
                    .expect("invariants hold mid-fuzz");
            }
        }
        t.check_invariants()
            .unwrap()
            .expect("invariants hold at end");
        // Final consistency check against a scan.
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(5_000.0, 5_000.0), 3_000.0)),
            25.0,
        );
        let mut got = t.range_query(&q).unwrap();
        let mut want: Vec<u64> = live
            .values()
            .filter(|o| q.matches(o))
            .map(|o| o.id)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn io_stats_accumulate_and_reset() {
        let mut t = tree();
        for o in random_objects(200, 0x10) {
            t.insert(o).unwrap();
        }
        assert!(t.io_stats().logical_reads > 0);
        t.reset_io_stats();
        assert_eq!(t.io_stats(), IoStats::zero());
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(5_000.0, 5_000.0), 2_000.0)),
            0.0,
        );
        t.range_query(&q).unwrap();
        assert!(t.io_stats().logical_reads > 0);
    }

    #[test]
    fn two_trees_share_pool_without_stat_crosstalk() {
        let pool = small_pool();
        let mut a = TprTree::new(Arc::clone(&pool), TprConfig::default());
        let mut b = TprTree::new(Arc::clone(&pool), TprConfig::default());
        for o in random_objects(100, 0x1) {
            a.insert(o).unwrap();
        }
        let a_io = a.io_stats();
        assert!(a_io.logical_reads > 0);
        assert_eq!(b.io_stats(), IoStats::zero());
        for o in random_objects(100, 0x2) {
            b.insert(o).unwrap();
        }
        // a unchanged while b worked.
        assert_eq!(a.io_stats(), a_io);
    }

    #[test]
    fn range_query_batch_matches_looped_queries() {
        let mut t = tree();
        let objs = random_objects(500, 0xBA7C2);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut rng = Rng(0x9A7);
        let queries: Vec<RangeQuery> = (0..20)
            .map(|qi| {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                match qi % 3 {
                    0 => RangeQuery::time_slice(
                        QueryRegion::Circle(Circle::new(c, 400.0 + rng.next() * 1_600.0)),
                        (qi % 5) as f64 * 12.0,
                    ),
                    1 => RangeQuery::time_interval(
                        QueryRegion::Rect(Rect::centered(c, 1_200.0, 800.0)),
                        5.0,
                        35.0,
                    ),
                    _ => RangeQuery::moving(
                        QueryRegion::Circle(Circle::new(c, 800.0)),
                        Point::new(rng.next() * 20.0 - 10.0, 8.0),
                        0.0,
                        30.0,
                    ),
                }
            })
            .collect();
        let batched = t.range_query_batch(&queries).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let looped = t.range_query(q).unwrap();
            assert_eq!(batched[qi], looped, "query {qi} diverged (order included)");
        }
    }

    #[test]
    fn range_query_batch_reads_fewer_pages_than_looped_queries() {
        let mut t = tree();
        let objs = random_objects(1_500, 0x10AD2);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        // Overlapping hotspot queries: the shared traversal reads the
        // upper levels and hot leaves once for the whole batch.
        let queries: Vec<RangeQuery> = (0..24)
            .map(|i| {
                RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(
                        Point::new(5_000.0 + (i % 6) as f64 * 80.0, 5_000.0),
                        1_500.0,
                    )),
                    15.0,
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
            "shared traversal should at least halve page reads: {batched_reads} vs {looped_reads}"
        );
    }

    #[test]
    fn knn_candidates_delta_rings_cover_matches() {
        let mut t = tree();
        let objs = random_objects(900, 0xD317A2);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let center = Point::new(5_000.0, 5_000.0);
        // Early probe time: node TPBRs inflate with velocity bounds
        // over time, and the containment pruning only bites while the
        // covered circle is large relative to the inflated footprints.
        let tq = 2.0;
        let radii = [400.0, 1_200.0, 3_000.0, 6_500.0];
        let mut union: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut covered: Option<RangeQuery> = None;
        let mut last_delta_reads = 0;
        for &r in &radii {
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, r)), tq);
            t.reset_io_stats();
            union.extend(t.knn_candidates(&q, covered.as_ref()).unwrap());
            last_delta_reads = t.io_stats().logical_reads;
            let want: std::collections::BTreeSet<u64> =
                t.range_query(&q).unwrap().into_iter().collect();
            assert!(
                union.is_superset(&want),
                "radius {r}: union misses {:?}",
                want.difference(&union).collect::<Vec<_>>()
            );
            covered = Some(q);
        }
        // The pruned re-descent of the last ring beats a full rescan
        // of the final region.
        let final_q =
            RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, radii[3])), tq);
        t.reset_io_stats();
        t.knn_candidates(&final_q, None).unwrap();
        let full_reads = t.io_stats().logical_reads;
        assert!(
            last_delta_reads < full_reads,
            "delta ring ({last_delta_reads}) should read fewer pages than the full region ({full_reads})"
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
        for o in random_objects(600, 0xCA17D2) {
            t.insert(o).unwrap();
        }
        let center = Point::new(4_000.0, 6_000.0);
        for &tq in &[0.0, 10.0, 30.0] {
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
        for o in random_objects(800, 0xFACE12) {
            t.insert(o).unwrap();
        }
        let center = Point::new(5_000.0, 5_000.0);
        let tq = 2.0;
        let mut earlier: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut covered: Option<RangeQuery> = None;
        for &r in &[400.0, 1_200.0, 3_000.0, 6_500.0] {
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
        let objs = random_objects(600, 0x0DDBA112);
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
    fn visit_leaf_tpbrs_covers_objects() {
        let mut t = tree();
        let objs = random_objects(150, 0x8);
        for o in &objs {
            t.insert(*o).unwrap();
        }
        let mut count = 0;
        let mut total_entries_bound = 0.0;
        t.visit_leaf_tpbrs(|tp| {
            count += 1;
            total_entries_bound += tp.rect_at(0.0).area();
        })
        .unwrap();
        assert!(count >= 150 / 10, "expected several leaves, got {count}");
        assert!(total_entries_bound >= 0.0);
    }

    /// The single ops' exact page work, phase by phase: logical and
    /// physical reads and writes of a seeded stream over 512-byte
    /// pages and an 8-page pool (so the pool misses). The load grows
    /// the tree to height 5; the mixed phase interleaves inserts,
    /// delete-then-insert updates and deletes; the drain deletes down
    /// to 5 % of the load, dissolving internal nodes until the root
    /// has shrunk to height 3. Every phase's answers match a scan.
    ///
    /// Measured at `fa2bf35`, where the single ops still ran their own
    /// recursive engine (split in two, R\* forced reinsertion once per
    /// insertion, condense by reinserting orphans one at a time).
    #[test]
    fn single_ops_io_is_pinned() {
        // (logical reads, logical writes, physical reads, physical
        // writes) of the load, the mixed phase and the drain.
        const PINNED: [[u64; 4]; 3] = [
            [26_318, 13_594, 4_548, 4_830],
            [83_385, 38_728, 22_807, 18_947],
            [40_305, 18_564, 8_511, 6_846],
        ];
        let pool = BufferPool::with_capacity(DiskManager::with_page_size(512), 8);
        let mut t = TprTree::new(Arc::new(pool), TprConfig::default());
        let mut live: std::collections::BTreeMap<u64, MovingObject> = Default::default();
        let mut rng = Rng(0x5EED_0905);
        let fresh = |rng: &mut Rng, id: u64, t: f64| {
            let (ang, speed) = (rng.next() * std::f64::consts::TAU, rng.next() * 100.0);
            let (x, y) = (rng.next() * 10_000.0, rng.next() * 10_000.0);
            obj(id, x, y, ang.cos() * speed, ang.sin() * speed, t)
        };
        let (mut measured, mut heights, mut next_id) = (Vec::new(), Vec::new(), 0);
        for phase in 0..3 {
            t.reset_io_stats();
            let mut step = 0;
            while [step < 1_500, step < 3_000, live.len() > 75][phase] {
                let now = [0.0, 1.0 + (step / 100) as f64][phase.min(1)];
                // Below 0.25 inserts, below 0.5 deletes, else updates.
                let r = match phase {
                    0 => 0.0,
                    1 => rng.next(),
                    _ => 0.4,
                };
                step += 1;
                if r < 0.25 {
                    let o = fresh(&mut rng, next_id, now);
                    next_id += 1;
                    t.insert(o).unwrap();
                    live.insert(o.id, o);
                    continue;
                }
                let at = (rng.next() * live.len() as f64) as usize;
                let k = live.keys().copied().nth(at).unwrap();
                if r < 0.5 {
                    t.delete(k).unwrap();
                    live.remove(&k);
                } else {
                    let o = fresh(&mut rng, k, now);
                    t.update(o).unwrap();
                    live.insert(k, o);
                }
            }
            let io = t.io_stats();
            measured.push([
                io.logical_reads,
                io.logical_writes,
                io.physical_reads,
                io.physical_writes,
            ]);
            heights.push(t.height());
            t.check_invariants().unwrap().unwrap();
            for qi in 0..20 {
                let c = Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0);
                let q = RangeQuery::time_slice(
                    QueryRegion::Circle(Circle::new(c, 1_500.0)),
                    t.now() + (qi % 4) as f64 * 10.0,
                );
                let mut got = t.range_query(&q).unwrap();
                got.sort_unstable();
                let want: Vec<u64> = live
                    .values()
                    .filter(|o| q.matches(o))
                    .map(|o| o.id)
                    .collect();
                assert_eq!(got, want, "phase {phase} query {qi}");
            }
        }
        assert_eq!(heights, [5, 5, 3]);
        assert_eq!(measured, PINNED);
    }

    /// Path cost as a budget: on a tree of height ≥ 3, an insert that
    /// fits its leaf reads and writes exactly one page per level, and
    /// a delete that underflows nothing writes exactly one page per
    /// level (its reads may include false-positive subtrees). The pool
    /// counts the fetch behind every page write as a logical read too,
    /// so the insert's `logical_reads` is twice the height.
    #[test]
    fn single_ops_cost_one_path_when_nothing_splits_or_dissolves() {
        // The leaf a pass of one routes `e` to, or the one holding it.
        let leaf_len = |t: &TprTree, e: &LeafEntry, holding: bool| {
            let mut stack = vec![t.root];
            while let Some(pid) = stack.pop() {
                match t.read_node(pid).unwrap() {
                    Node::Internal { entries, .. } if holding => {
                        stack.extend(entries.iter().map(|c| c.child))
                    }
                    Node::Internal { entries, .. } => {
                        stack.push(entries[t.choose_subtree(&entries, e)].child)
                    }
                    Node::Leaf { entries } if !holding || entries.contains(e) => {
                        return entries.len()
                    }
                    Node::Leaf { .. } => {}
                }
            }
            unreachable!("object {} not in the tree", e.id)
        };
        let mut t = tree();
        for o in random_objects(400, 0xC057) {
            t.insert(o).unwrap();
        }
        let h = u64::from(t.height());
        assert!(h >= 3, "height {h}");
        let (mut inserts, mut deletes) = (0, 0);
        for o in random_objects(200, 0xF17) {
            let o = MovingObject::new(o.id + 10_000, o.pos, o.vel, o.ref_time);
            if leaf_len(&t, &LeafEntry::from_object(&o), false) < t.layout.max_leaf {
                t.reset_io_stats();
                t.insert(o).unwrap();
                let io = t.io_stats();
                assert_eq!((io.logical_reads, io.logical_writes), (2 * h, h));
                inserts += 1;
            }
        }
        for id in 0..200 {
            if leaf_len(&t, &t.entries[&id], true) > t.layout.min_leaf {
                t.reset_io_stats();
                t.delete(id).unwrap();
                assert_eq!(t.io_stats().logical_writes, h, "delete {id}");
                deletes += 1;
            }
        }
        assert_eq!(u64::from(t.height()), h);
        assert!(inserts >= 50 && deletes >= 50);
    }

    /// Codec budget: on a tree of height ≥ 3, an insert that fits its
    /// leaf and a delete that dissolves nothing read and edit every
    /// node through its page view — zero `Node::decode` and zero
    /// `Node::encode` calls. The ops that do overflow decode and
    /// re-encode only the nodes they split or evict from.
    #[test]
    fn single_ops_decode_no_node_when_nothing_splits_or_dissolves() {
        use crate::node::codec_calls;
        // Whether the leaf a pass of one routes `e` to (or the one
        // holding it) has room to gain (or lose) an entry.
        let leaf_has_room = |t: &TprTree, e: &LeafEntry, holding: bool| {
            let mut stack = vec![t.root];
            while let Some(pid) = stack.pop() {
                match t.read_node(pid).unwrap() {
                    Node::Internal { entries, .. } if holding => {
                        stack.extend(entries.iter().map(|c| c.child))
                    }
                    Node::Internal { entries, .. } => {
                        stack.push(entries[t.choose_subtree(&entries, e)].child)
                    }
                    Node::Leaf { entries } if holding && entries.contains(e) => {
                        return entries.len() > t.layout.min_leaf
                    }
                    Node::Leaf { entries } if !holding => return entries.len() < t.layout.max_leaf,
                    Node::Leaf { .. } => {}
                }
            }
            unreachable!("object {} not in the tree", e.id)
        };
        let mut t = tree();
        let before_load = codec_calls::get();
        for o in random_objects(400, 0xC057) {
            t.insert(o).unwrap();
        }
        let load = codec_calls::get();
        assert!(t.height() >= 3, "height {}", t.height());
        // The load overflowed: those splits decoded and re-encoded.
        assert!(load.0 > before_load.0 && load.1 > before_load.1);
        let (mut inserts, mut deletes) = (0, 0);
        for o in random_objects(200, 0xF17) {
            let o = MovingObject::new(o.id + 10_000, o.pos, o.vel, o.ref_time);
            if leaf_has_room(&t, &LeafEntry::from_object(&o), false) {
                let before = codec_calls::get();
                t.insert(o).unwrap();
                assert_eq!(codec_calls::get(), before, "insert {}", o.id);
                inserts += 1;
            }
        }
        for id in 0..200 {
            if leaf_has_room(&t, &t.entries[&id], true) {
                let before = codec_calls::get();
                t.delete(id).unwrap();
                assert_eq!(codec_calls::get(), before, "delete {id}");
                deletes += 1;
            }
        }
        assert!(inserts >= 50 && deletes >= 50);
        t.check_invariants().unwrap().unwrap();
    }
}
