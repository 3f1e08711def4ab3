//! The B+-tree read path, generic over its page source.
//!
//! `ReadView` (crate-private) bundles a root handle (root page + height) with any
//! [`PageRead`] implementor and runs the zero-copy descent, lookup,
//! and range-scan machinery against it. The live [`BPlusTree`] wraps
//! its buffer pool in a view for every read; [`BPlusTreeSnapshot`]
//! wraps a [`PageSnapshot`], giving lock-free point-in-time reads that
//! need no coordination with writers mutating the live tree.
//!
//! [`BPlusTree`]: crate::BPlusTree

use vp_storage::{IoStats, PageId, PageRead, PageSnapshot, StorageResult};

use crate::node::{InternalView, Key128, LeafView, Value};

/// Read-only tree operations over any page source: the live pool or a
/// committed snapshot. Semantics (and code) are identical either way —
/// only where the bytes come from differs.
pub(crate) struct ReadView<'a, P: PageRead> {
    pub pages: &'a P,
    pub root: PageId,
    pub height: u8,
}

impl<'a, P: PageRead> ReadView<'a, P> {
    /// Walks from the root to the leaf owning `key` via zero-copy
    /// [`InternalView`] binary searches.
    pub fn descend_to_leaf(&self, key: Key128) -> StorageResult<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            pid = self.pages.read_page(pid, |buf| -> StorageResult<PageId> {
                let v = InternalView::parse(buf)?;
                Ok(v.child_at(v.child_for(key)))
            })??;
        }
        Ok(pid)
    }

    /// Returns the value stored for `key`, if any. Zero-copy: the
    /// descent and the leaf probe never decode a node.
    pub fn get(&self, key: Key128) -> StorageResult<Option<Value>> {
        let leaf = self.descend_to_leaf(key)?;
        self.pages.read_page(leaf, |buf| -> StorageResult<_> {
            let v = LeafView::parse(buf)?;
            Ok(v.search(key).ok().map(|i| *v.value_at(i)))
        })?
    }

    /// Visits every `(key, value)` with `lo <= key <= hi` in key
    /// order. Returns the number of entries visited.
    pub fn range_scan(
        &self,
        lo: Key128,
        hi: Key128,
        mut f: impl FnMut(Key128, &Value),
    ) -> StorageResult<usize> {
        if hi < lo {
            return Ok(0);
        }
        let mut pid = self.descend_to_leaf(lo)?;
        let mut count = 0usize;
        loop {
            let next = self
                .pages
                .read_page(pid, |buf| -> StorageResult<Option<PageId>> {
                    let v = LeafView::parse(buf)?;
                    for i in v.lower_bound(lo)..v.count() {
                        let k = v.key_at(i);
                        if k > hi {
                            return Ok(None);
                        }
                        f(k, v.value_at(i));
                        count += 1;
                    }
                    Ok(Some(v.next()).filter(|n| n.is_valid()))
                })??;
            match next {
                Some(n) => pid = n,
                None => return Ok(count),
            }
        }
    }

    /// Answers many `[lo, hi]` key ranges in one shared sweep of the
    /// leaf chain; see [`crate::BPlusTree::range_scan_batch`] for the
    /// full contract (this is that code, generic over the page
    /// source).
    pub fn range_scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        mut f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        /// What the per-leaf visit tells the sweep loop to do next.
        enum Step {
            /// All ranges exhausted (or the chain ended).
            Done,
            /// Keep walking the chain to this sibling.
            Follow(PageId),
            /// Nothing active and the next pending `lo` lies beyond
            /// this leaf's keys: try a fresh root descent to skip the
            /// gap (the sibling is the fallback when the descent
            /// lands back on the same leaf — `lo` can sit between the
            /// leaf's last key and its separator).
            Redescend(PageId),
        }

        // Process ranges in ascending-lo order without reordering
        // the caller's indices.
        let mut order: Vec<usize> = (0..ranges.len())
            .filter(|&r| ranges[r].0 <= ranges[r].1)
            .collect();
        order.sort_by_key(|&r| ranges[r]);
        let mut next = 0usize; // next entry of `order` to activate
        let mut active: Vec<usize> = Vec::new();
        let mut count = 0usize;
        if order.is_empty() {
            return Ok(0);
        }
        let mut pid = self.descend_to_leaf(ranges[order[0]].0)?;
        loop {
            let step = self.pages.read_page(pid, |buf| -> StorageResult<Step> {
                let v = LeafView::parse(buf)?;
                let mut slot = if active.is_empty() {
                    v.lower_bound(ranges[order[next]].0)
                } else {
                    0
                };
                'slots: while slot < v.count() {
                    let k = v.key_at(slot);
                    while next < order.len() && ranges[order[next]].0 <= k {
                        active.push(order[next]);
                        next += 1;
                    }
                    active.retain(|&r| ranges[r].1 >= k);
                    if active.is_empty() {
                        // Jump to the next pending range — within
                        // this leaf when possible.
                        let Some(&r) = order.get(next) else {
                            return Ok(Step::Done);
                        };
                        let jump = v.lower_bound(ranges[r].0);
                        debug_assert!(jump > slot, "pending lo is past k");
                        slot = jump;
                        if slot >= v.count() {
                            break 'slots;
                        }
                        continue;
                    }
                    let value = v.value_at(slot);
                    for &r in &active {
                        f(r, k, value);
                    }
                    count += active.len();
                    slot += 1;
                }
                let sibling = v.next();
                if !sibling.is_valid() || (active.is_empty() && next >= order.len()) {
                    return Ok(Step::Done);
                }
                if active.is_empty() {
                    // Don't chain through an uncovered gap.
                    return Ok(Step::Redescend(sibling));
                }
                Ok(Step::Follow(sibling))
            })??;
            match step {
                Step::Done => return Ok(count),
                Step::Follow(sibling) => pid = sibling,
                Step::Redescend(sibling) => {
                    let target = self.descend_to_leaf(ranges[order[next]].0)?;
                    pid = if target == pid { sibling } else { target };
                }
            }
        }
    }
}

/// A point-in-time, read-only handle on a [`crate::BPlusTree`]: the
/// root handle as of one committed epoch plus a [`PageSnapshot`]
/// serving that epoch's pages. Queries run against it with no
/// coordination with — and no visibility into — writers mutating the
/// live tree. Safe to share across reader threads.
pub struct BPlusTreeSnapshot {
    pages: PageSnapshot,
    root: PageId,
    height: u8,
    len: usize,
}

impl BPlusTreeSnapshot {
    pub(crate) fn new(pages: PageSnapshot, root: PageId, height: u8, len: usize) -> Self {
        BPlusTreeSnapshot {
            pages,
            root,
            height,
            len,
        }
    }

    /// The committed pool epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.pages.epoch()
    }

    /// Number of keys stored (as of the snapshot).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored (as of the snapshot).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page reads served by this snapshot so far.
    pub fn io_stats(&self) -> IoStats {
        self.pages.stats()
    }

    fn view(&self) -> ReadView<'_, PageSnapshot> {
        ReadView {
            pages: &self.pages,
            root: self.root,
            height: self.height,
        }
    }

    /// Returns the value stored for `key` as of the snapshot, if any.
    pub fn get(&self, key: Key128) -> StorageResult<Option<Value>> {
        self.view().get(key)
    }

    /// Visits every `(key, value)` with `lo <= key <= hi` in key
    /// order, as of the snapshot. Returns the number visited.
    pub fn range_scan(
        &self,
        lo: Key128,
        hi: Key128,
        f: impl FnMut(Key128, &Value),
    ) -> StorageResult<usize> {
        self.view().range_scan(lo, hi, f)
    }

    /// Answers many key ranges in one shared leaf-chain sweep, as of
    /// the snapshot; contract as [`crate::BPlusTree::range_scan_batch`].
    pub fn range_scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        self.view().range_scan_batch(ranges, f)
    }
}
