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
    /// order: the one-range case of [`ReadView::range_scan_batch`].
    /// Returns the number of entries visited.
    pub fn range_scan(
        &self,
        lo: Key128,
        hi: Key128,
        mut f: impl FnMut(Key128, &Value),
    ) -> StorageResult<usize> {
        self.range_scan_batch(&[(lo, hi)], |_, k, v| f(k, v))
    }

    /// Answers many `[lo, hi]` key ranges in one left-to-right sweep
    /// that reads each page at most once; see
    /// [`crate::BPlusTree::range_scan_batch`] for the full contract
    /// (this is that code, generic over the page source).
    ///
    /// The sweep is driven by a *target* key that only grows: the
    /// upper fence of the leaf just visited while a range is still
    /// open, else the next pending range's `lo`. Each target is found
    /// from the cached root-to-leaf [`Path`], so neither chaining to
    /// the next leaf nor skipping a gap re-reads an internal node, and
    /// a leaf's fences say exactly when the ranges it ends are done.
    pub fn range_scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        mut f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        // Process ranges in ascending-lo order without reordering
        // the caller's indices.
        let mut order: Vec<usize> = (0..ranges.len())
            .filter(|&r| ranges[r].0 <= ranges[r].1)
            .collect();
        order.sort_by_key(|&r| ranges[r]);
        let Some(&first) = order.first() else {
            return Ok(0);
        };
        let mut next = 0usize; // next entry of `order` to activate
        let mut active: Vec<usize> = Vec::new();
        let mut count = 0usize;
        let mut path = Path::default();
        let mut target = ranges[first].0;
        loop {
            let (pid, leaf_hi) = path.seek(self, target)?;
            self.pages.read_page(pid, |buf| -> StorageResult<()> {
                let v = LeafView::parse(buf)?;
                let mut slot = if active.is_empty() {
                    v.lower_bound(ranges[order[next]].0)
                } else {
                    0
                };
                while slot < v.count() {
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
                            return Ok(());
                        };
                        let jump = v.lower_bound(ranges[r].0);
                        debug_assert!(jump > slot, "pending lo is past k");
                        slot = jump;
                        continue;
                    }
                    let value = v.value_at(slot);
                    for &r in &active {
                        f(r, k, value);
                    }
                    count += active.len();
                    slot += 1;
                }
                Ok(())
            })??;
            // Every key below the leaf's upper fence has been seen: a
            // range starting below it has begun, and one ending below
            // it is done — even when its `lo` sits between the leaf's
            // last key and the fence.
            let Some(leaf_hi) = leaf_hi else {
                return Ok(count);
            };
            while next < order.len() && ranges[order[next]].0 < leaf_hi {
                active.push(order[next]);
                next += 1;
            }
            active.retain(|&r| ranges[r].1 >= leaf_hi);
            target = if !active.is_empty() {
                leaf_hi
            } else if let Some(&r) = order.get(next) {
                ranges[r].0
            } else {
                return Ok(count);
            };
        }
    }
}

/// One cached internal node of a sweep's root-to-leaf path: its page
/// bytes (separators and child ids, copied once when the node is
/// read) and the key fences `[lo, hi)` its subtree covers (`hi` is
/// `None` on the right spine).
struct PathNode {
    page: Vec<u8>,
    lo: Key128,
    hi: Option<Key128>,
}

impl PathNode {
    fn covers(&self, key: Key128) -> bool {
        self.lo <= key && self.hi.is_none_or(|hi| key < hi)
    }

    /// The child owning `key`, with that child's fences.
    fn child_for(&self, key: Key128) -> StorageResult<(PageId, Key128, Option<Key128>)> {
        let v = InternalView::parse(&self.page)?;
        let i = v.child_for(key);
        let lo = if i == 0 { self.lo } else { v.key_at(i - 1) };
        let hi = if i == v.count() {
            self.hi
        } else {
            Some(v.key_at(i))
        };
        Ok((v.child_at(i), lo, hi))
    }
}

/// The internal nodes on the path from the root to the leaf a sweep
/// visited last. Nodes are kept per level and their buffers reused, so
/// a sweep holds at most `height - 1` node copies and allocates
/// nothing once every level has been read.
#[derive(Default)]
struct Path {
    nodes: Vec<PathNode>,
    /// Levels of `nodes` on the current path (root first).
    depth: usize,
}

impl Path {
    /// Returns the leaf whose fences cover `target` and that leaf's
    /// upper fence. Descends from the lowest cached node covering
    /// `target` — from the root only on the first call — and caches
    /// every internal node it reads on the way down.
    fn seek<P: PageRead>(
        &mut self,
        view: &ReadView<'_, P>,
        target: Key128,
    ) -> StorageResult<(PageId, Option<Key128>)> {
        while self.depth > 0 && !self.nodes[self.depth - 1].covers(target) {
            self.depth -= 1;
        }
        let (mut pid, mut lo, mut hi) = match self.depth {
            0 => (view.root, Key128::MIN, None),
            d => self.nodes[d - 1].child_for(target)?,
        };
        while self.depth + 1 < view.height as usize {
            if self.depth == self.nodes.len() {
                self.nodes.push(PathNode {
                    page: Vec::new(),
                    lo: Key128::MIN,
                    hi: None,
                });
            }
            let node = &mut self.nodes[self.depth];
            view.pages.read_page(pid, |buf| -> StorageResult<()> {
                node.page.clear();
                node.page
                    .extend_from_slice(InternalView::parse(buf)?.encoded_bytes());
                Ok(())
            })??;
            (node.lo, node.hi) = (lo, hi);
            (pid, lo, hi) = node.child_for(target)?;
            self.depth += 1;
        }
        Ok((pid, hi))
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

    /// Answers many key ranges in one shared sweep, as of the
    /// snapshot; contract as [`crate::BPlusTree::range_scan_batch`].
    pub fn range_scan_batch(
        &self,
        ranges: &[(Key128, Key128)],
        f: impl FnMut(usize, Key128, &Value),
    ) -> StorageResult<usize> {
        self.view().range_scan_batch(ranges, f)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashSet};
    use std::sync::Arc;

    use proptest::prelude::*;
    use vp_storage::{BufferPool, DiskManager};

    use super::*;
    use crate::{BPlusTree, VALUE_LEN};

    /// A page source that logs the id of every page read through it.
    struct Logging<'a> {
        pages: &'a PageSnapshot,
        reads: RefCell<Vec<PageId>>,
    }

    impl PageRead for Logging<'_> {
        fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
            self.reads.borrow_mut().push(pid);
            self.pages.read_page(pid, f)
        }
    }

    impl Logging<'_> {
        /// Takes the ids logged since the last call.
        fn take(&self) -> Vec<PageId> {
            std::mem::take(&mut self.reads.borrow_mut())
        }
    }

    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n.max(1)
        }
    }

    fn key(n: u64) -> Key128 {
        Key128::new(n / 7, n)
    }

    fn val(n: u64) -> Value {
        let mut v = [0u8; VALUE_LEN];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    }

    /// A tree of `n` random keys spaced so that gaps lie between
    /// neighbours: bulk loaded (`build` 0), inserted in random order
    /// (1), or inserted and then half deleted, so leaves are merged and
    /// borrowed from (2). Returns the tree and its oracle.
    fn random_tree(
        page: usize,
        n: usize,
        build: u8,
        rng: &mut Rng,
    ) -> (BPlusTree, BTreeMap<Key128, Value>) {
        let pool = Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(page),
            4096,
        ));
        let universe = 4 * n as u64 + 8;
        let mut reference = BTreeMap::new();
        while reference.len() < n {
            let x = rng.below(universe);
            reference.insert(key(x), val(x));
        }
        let mut t = if build == 0 {
            BPlusTree::bulk_load(pool, reference.iter().map(|(k, v)| (*k, *v))).unwrap()
        } else {
            let mut t = BPlusTree::new(pool).unwrap();
            let mut keys: Vec<Key128> = reference.keys().copied().collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for k in &keys {
                t.insert(*k, reference[k]).unwrap();
            }
            t
        };
        if build == 2 {
            let doomed: Vec<Key128> = reference
                .keys()
                .copied()
                .filter(|k| k.lo % 2 == 0)
                .collect();
            for k in doomed {
                assert!(t.delete(k).unwrap());
                reference.remove(&k);
            }
        }
        (t, reference)
    }

    /// One random range over a tree whose largest key is `max`: random
    /// bounds in either order, a duplicate of an earlier range, a
    /// range past the last key, or one whose `lo` sits just above a
    /// stored key — between a leaf's last key and its separator
    /// whenever that key ends a leaf.
    fn random_range(
        rng: &mut Rng,
        max: u64,
        stored: &[Key128],
        earlier: &[(Key128, Key128)],
    ) -> (Key128, Key128) {
        match rng.below(4) {
            0 if !earlier.is_empty() => earlier[rng.below(earlier.len() as u64) as usize],
            1 => {
                let lo = max + 1 + rng.below(8);
                (key(lo), key(lo + rng.below(50)))
            }
            2 if !stored.is_empty() => {
                let after = stored[rng.below(stored.len() as u64) as usize].lo + 1;
                (key(after), key(after + rng.below(3 * max / 4 + 2)))
            }
            _ => (key(rng.below(max + 2)), key(rng.below(max + 2))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep's page contract against independent oracles, over
        /// random trees of heights 1–4 at 256- and 512-byte pages:
        /// every range answers its `BTreeMap` range in key order, no
        /// page is read twice in one sweep, and the sweep reads no more
        /// pages than looping its ranges one by one.
        #[test]
        fn sweep_matches_btreemap_and_reads_each_page_once(
            page_kind in 0u8..2,
            size_tier in 0u8..4,
            raw_n in 0usize..100_000,
            build in 0u8..3,
            n_ranges in 0usize..12,
            seed in 1u64..u64::MAX,
        ) {
            let page = if page_kind == 0 { 256 } else { 512 };
            // Caps keep the height at most 4 even at minimum occupancy.
            let cap = match (size_tier, page) {
                (0, _) => 12,
                (1, _) => 80,
                (2, _) => 400,
                (_, 256) => 860,
                _ => 6_000,
            };
            let mut rng = Rng(seed);
            let (tree, reference) = random_tree(page, raw_n % cap, build, &mut rng);
            prop_assert!((1..=4).contains(&tree.height()), "height {}", tree.height());

            let stored: Vec<Key128> = reference.keys().copied().collect();
            let max = stored.last().map_or(0, |k| k.lo);
            let mut ranges: Vec<(Key128, Key128)> = Vec::new();
            for _ in 0..n_ranges {
                let r = random_range(&mut rng, max, &stored, &ranges);
                ranges.push(r);
            }

            let snap = tree.snapshot();
            let pages = Logging { pages: &snap.pages, reads: RefCell::default() };
            let view = ReadView { pages: &pages, root: snap.root, height: snap.height };

            let mut got: Vec<Vec<(Key128, Value)>> = vec![Vec::new(); ranges.len()];
            let n = view.range_scan_batch(&ranges, |r, k, v| got[r].push((k, *v))).unwrap();
            let swept = pages.take();
            prop_assert_eq!(n, got.iter().map(Vec::len).sum::<usize>());
            for (r, &(lo, hi)) in ranges.iter().enumerate() {
                let want: Vec<(Key128, Value)> = if lo <= hi {
                    reference.range(lo..=hi).map(|(k, v)| (*k, *v)).collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(&got[r], &want, "range {} of {:?}", r, ranges);
            }

            let distinct: HashSet<PageId> = swept.iter().copied().collect();
            prop_assert_eq!(distinct.len(), swept.len(), "a page was read twice: {:?}", swept);

            let mut looped = 0usize;
            for &(lo, hi) in &ranges {
                view.range_scan(lo, hi, |_, _| {}).unwrap();
                looped += pages.take().len();
            }
            prop_assert!(
                swept.len() <= looped,
                "sweep read {} pages, looped ranges {}", swept.len(), looped
            );
        }
    }
}
