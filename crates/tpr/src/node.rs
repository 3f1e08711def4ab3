//! TPR-tree node layout, page codec and zero-copy page views.
//!
//! A node is either a leaf (moving-point entries) or an internal node
//! (child pointers with time-parameterized bounding rectangles). Nodes
//! serialize into fixed-size pages:
//!
//! ```text
//! header: tag(u8) level(u8) count(u16) pad(u32)            = 8 bytes
//! leaf entry:     id(u64) x y vx vy ref_time (6 x f64)     = 48 bytes
//! internal entry: child(u64) rect(4 x f64) vbr(4 x f64)
//!                 ref_time(f64)                            = 80 bytes
//! ```
//!
//! With 4 KB pages this gives 85 leaf entries and 51 internal entries
//! per node — comparable to the fanouts in the paper's setup.
//!
//! Two access models share this layout:
//!
//! * [`LeafView`] / [`InternalView`] (parsed together by [`NodeView`])
//!   and [`LeafViewMut`] / [`InternalViewMut`] — zero-copy views over
//!   the page buffer. Parsing checks the header once (the tag, and that
//!   the count fits the page); every field is then read and written
//!   through `vp_storage::codec::slots`. The read walk tests TPBRs and
//!   leaf predicates straight from the page, and the write pass routes
//!   through the views and edits a node that neither overflows nor
//!   dissolves in place ([`EditEntries`]): removals shift the later
//!   entries down, inserts are appended, a child's slot is patched.
//! * [`Node`] — a decoded node, for whole-node surgery: the write pass
//!   decodes one only when it overflows (re-cluster or R\* eviction) or
//!   dissolves, bulk loading builds them, and diagnostics walk them.
//!
//! Both models read and write the identical bytes: an in-place edit
//! leaves exactly the page that [`Node::encode`] writes for the same
//! edit of the decoded node, so the views are an optimization, not a
//! second format.

use vp_core::{MovingObject, ObjectId};
use vp_geom::{Point, Rect, Tpbr, Vbr, Vec2};
use vp_storage::codec::slots;
use vp_storage::{PageId, StorageError, StorageResult};

const HEADER_LEN: usize = 8;
const LEAF_ENTRY_LEN: usize = 48;
const INTERNAL_ENTRY_LEN: usize = 80;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const OFF_TAG: usize = 0;
const OFF_LEVEL: usize = 1;
const OFF_COUNT: usize = 2;

/// A moving-point entry in a leaf node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    pub id: ObjectId,
    /// Position at `ref_time`.
    pub pos: Point,
    pub vel: Vec2,
    pub ref_time: f64,
}

impl LeafEntry {
    /// Creates a leaf entry from a moving object.
    pub fn from_object(obj: &MovingObject) -> LeafEntry {
        LeafEntry {
            id: obj.id,
            pos: obj.pos,
            vel: obj.vel,
            ref_time: obj.ref_time,
        }
    }

    /// The entry as a moving object (for exact query predicates).
    pub fn to_object(&self) -> MovingObject {
        MovingObject::new(self.id, self.pos, self.vel, self.ref_time)
    }

    /// The degenerate TPBR of this moving point.
    pub fn tpbr(&self) -> Tpbr {
        Tpbr::from_moving_point(self.pos, self.vel, self.ref_time)
    }

    /// Predicted position at time `t`.
    pub fn position_at(&self, t: f64) -> Point {
        self.pos.advance(self.vel, t - self.ref_time)
    }
}

/// A child reference in an internal node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternalEntry {
    pub child: PageId,
    pub tpbr: Tpbr,
}

/// A decoded TPR-tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Leaf {
        /// Leaf level is 0.
        entries: Vec<LeafEntry>,
    },
    Internal {
        /// Level above the leaves (1 = parents of leaves).
        level: u8,
        entries: Vec<InternalEntry>,
    },
}

impl Node {
    /// Creates an empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { entries, .. } => entries.len(),
        }
    }

    /// True when the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Node level: 0 for leaves.
    pub fn level(&self) -> u8 {
        match self {
            Node::Leaf { .. } => 0,
            Node::Internal { level, .. } => *level,
        }
    }

    /// The tightest TPBR covering all entries, anchored at the maximum
    /// entry reference time (empty TPBR for an empty node).
    pub fn bounding_tpbr(&self) -> Tpbr {
        match self {
            Node::Leaf { entries } => fold_tpbrs(entries.iter().map(LeafEntry::tpbr)),
            Node::Internal { entries, .. } => fold_tpbrs(entries.iter().map(|e| e.tpbr)),
        }
    }

    /// Serializes the node into a page buffer; fails without writing
    /// when its entries do not fit. Bytes past the last entry are left
    /// as they were.
    pub fn encode(&self, buf: &mut [u8]) -> StorageResult<()> {
        #[cfg(test)]
        codec_calls::bump(false);
        let (tag, level, count, stride) = match self {
            Node::Leaf { entries } => (TAG_LEAF, 0, entries.len(), LEAF_ENTRY_LEN),
            Node::Internal { level, entries } => {
                (TAG_INTERNAL, *level, entries.len(), INTERNAL_ENTRY_LEN)
            }
        };
        let len = HEADER_LEN + count * stride;
        if len > buf.len() || count > usize::from(u16::MAX) {
            return Err(StorageError::PageOverflow {
                offset: 0,
                len,
                capacity: buf.len(),
            });
        }
        buf[OFF_TAG] = tag;
        buf[OFF_LEVEL] = level;
        slots::put_u16(buf, OFF_COUNT, count as u16);
        buf[OFF_COUNT + 2..HEADER_LEN].fill(0);
        match self {
            Node::Leaf { entries } => {
                for (i, e) in entries.iter().enumerate() {
                    put_leaf_entry(buf, i, e);
                }
            }
            Node::Internal { entries, .. } => {
                for (i, e) in entries.iter().enumerate() {
                    put_internal_entry(buf, i, e);
                }
            }
        }
        Ok(())
    }

    /// Deserializes a node from a page buffer. A buffer shorter than
    /// the header, an unknown tag or a count past the page's capacity
    /// is [`StorageError::Corrupt`].
    pub fn decode(buf: &[u8]) -> StorageResult<Node> {
        #[cfg(test)]
        codec_calls::bump(true);
        Ok(match NodeView::parse(buf)? {
            NodeView::Leaf(v) => Node::Leaf {
                entries: v.entries().collect(),
            },
            NodeView::Internal(v) => Node::Internal {
                level: v.level(),
                entries: v.entries().collect(),
            },
        })
    }
}

/// Folds TPBRs into their union in iteration order — the one bounding
/// rule of decoded nodes and views alike, so both give bit-identical
/// floats for the same entries.
fn fold_tpbrs(tpbrs: impl Iterator<Item = Tpbr>) -> Tpbr {
    tpbrs.fold(Tpbr::empty(0.0), |acc, t| acc.union(&t))
}

/// Per-thread tallies of [`Node::decode`] and [`Node::encode`] calls,
/// so tests can pin which write paths materialise a whole node.
#[cfg(test)]
pub(crate) mod codec_calls {
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// `(decodes, encodes)` on this thread so far.
    pub(crate) fn get() -> (u64, u64) {
        CALLS.with(Cell::get)
    }

    pub(super) fn bump(decode: bool) {
        CALLS.with(|c| {
            let (d, e) = c.get();
            c.set(if decode { (d + 1, e) } else { (d, e + 1) });
        });
    }
}

// ----- zero-copy page views ---------------------------------------------

/// Checks that the header's count of `stride`-byte entries fits the
/// page (the buffer is known to hold a header); returns the count.
#[inline]
fn check_count(buf: &[u8], stride: usize) -> StorageResult<usize> {
    let count = usize::from(slots::get_u16(buf, OFF_COUNT));
    if HEADER_LEN + count * stride > buf.len() {
        return Err(StorageError::Corrupt(format!(
            "node count {count} exceeds the capacity of a {}-byte page",
            buf.len()
        )));
    }
    Ok(count)
}

/// Checks that the buffer holds a header with a known tag; returns the
/// tag.
#[inline]
fn check_tag(buf: &[u8]) -> StorageResult<u8> {
    if buf.len() < HEADER_LEN {
        return Err(StorageError::Corrupt(format!(
            "node page of {} bytes is shorter than its header",
            buf.len()
        )));
    }
    match buf[OFF_TAG] {
        tag @ (TAG_LEAF | TAG_INTERNAL) => Ok(tag),
        other => Err(StorageError::Corrupt(format!("unknown node tag {other}"))),
    }
}

/// Checks that `buf` holds a node of kind `tag`; returns its count.
#[inline]
fn check_header(buf: &[u8], tag: u8, stride: usize) -> StorageResult<usize> {
    let found = check_tag(buf)?;
    if found != tag {
        return Err(StorageError::Corrupt(format!(
            "node tag {found} where tag {tag} was expected"
        )));
    }
    check_count(buf, stride)
}

#[inline(always)]
fn leaf_entry_at(buf: &[u8], i: usize) -> LeafEntry {
    let b = slots::get_array::<LEAF_ENTRY_LEN>(buf, HEADER_LEN + i * LEAF_ENTRY_LEN);
    LeafEntry {
        id: slots::get_u64(b, 0),
        pos: Point::new(slots::get_f64(b, 8), slots::get_f64(b, 16)),
        vel: Point::new(slots::get_f64(b, 24), slots::get_f64(b, 32)),
        ref_time: slots::get_f64(b, 40),
    }
}

#[inline(always)]
fn put_leaf_entry(buf: &mut [u8], i: usize, e: &LeafEntry) {
    let off = HEADER_LEN + i * LEAF_ENTRY_LEN;
    let b = &mut buf[off..off + LEAF_ENTRY_LEN];
    slots::put_u64(b, 0, e.id);
    slots::put_f64(b, 8, e.pos.x);
    slots::put_f64(b, 16, e.pos.y);
    slots::put_f64(b, 24, e.vel.x);
    slots::put_f64(b, 32, e.vel.y);
    slots::put_f64(b, 40, e.ref_time);
}

#[inline(always)]
fn internal_tpbr_at(buf: &[u8], i: usize) -> Tpbr {
    let off = HEADER_LEN + i * INTERNAL_ENTRY_LEN;
    let b = slots::get_array::<INTERNAL_ENTRY_LEN>(buf, off);
    let f = |at: usize| slots::get_f64(b, at);
    Tpbr::new(
        Rect::new(Point::new(f(8), f(16)), Point::new(f(24), f(32))),
        Vbr::new(Point::new(f(40), f(48)), Point::new(f(56), f(64))),
        f(72),
    )
}

#[inline(always)]
fn internal_child_at(buf: &[u8], i: usize) -> PageId {
    slots::get_page_id(buf, HEADER_LEN + i * INTERNAL_ENTRY_LEN)
}

#[inline(always)]
fn put_internal_entry(buf: &mut [u8], i: usize, e: &InternalEntry) {
    let off = HEADER_LEN + i * INTERNAL_ENTRY_LEN;
    let b = &mut buf[off..off + INTERNAL_ENTRY_LEN];
    let t = &e.tpbr;
    slots::put_page_id(b, 0, e.child);
    for (at, v) in [
        t.rect.lo.x,
        t.rect.lo.y,
        t.rect.hi.x,
        t.rect.hi.y,
        t.vbr.lo.x,
        t.vbr.lo.y,
        t.vbr.hi.x,
        t.vbr.hi.y,
        t.ref_time,
    ]
    .into_iter()
    .enumerate()
    {
        slots::put_f64(b, 8 + at * 8, v);
    }
}

/// A parsed node page of either kind.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    Leaf(LeafView<'a>),
    Internal(InternalView<'a>),
}

impl<'a> NodeView<'a> {
    /// Checks the header once — a buffer that holds it, a known tag, a
    /// count that fits the page — and views the node.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> StorageResult<NodeView<'a>> {
        Ok(match check_tag(buf)? {
            TAG_LEAF => NodeView::Leaf(LeafView {
                count: check_count(buf, LEAF_ENTRY_LEN)?,
                buf,
            }),
            _ => NodeView::Internal(InternalView {
                count: check_count(buf, INTERNAL_ENTRY_LEN)?,
                buf,
            }),
        })
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            NodeView::Leaf(v) => v.len(),
            NodeView::Internal(v) => v.len(),
        }
    }

    /// True when the node holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A borrowed, read-only view of an encoded leaf page.
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a> {
    buf: &'a [u8],
    count: usize,
}

impl<'a> LeafView<'a> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the leaf holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The object id of entry `i`.
    #[inline]
    pub fn id_at(&self, i: usize) -> ObjectId {
        debug_assert!(i < self.count);
        slots::get_u64(self.buf, HEADER_LEN + i * LEAF_ENTRY_LEN)
    }

    /// The entries in page order.
    pub fn entries(self) -> impl Iterator<Item = LeafEntry> + 'a {
        (0..self.count).map(move |i| leaf_entry_at(self.buf, i))
    }

    /// [`Node::bounding_tpbr`] of the viewed leaf, bit for bit.
    pub fn bounding_tpbr(&self) -> Tpbr {
        fold_tpbrs(self.entries().map(|e| e.tpbr()))
    }
}

/// A borrowed, read-only view of an encoded internal page.
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a> {
    buf: &'a [u8],
    count: usize,
}

impl<'a> InternalView<'a> {
    /// Number of children.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the node holds no children.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Level above the leaves (1 = parents of leaves).
    #[inline]
    pub fn level(&self) -> u8 {
        self.buf[OFF_LEVEL]
    }

    /// The page of child `i`.
    #[inline]
    pub fn child_at(&self, i: usize) -> PageId {
        debug_assert!(i < self.count);
        internal_child_at(self.buf, i)
    }

    /// The TPBR stored for child `i`.
    #[inline]
    pub fn tpbr_at(&self, i: usize) -> Tpbr {
        debug_assert!(i < self.count);
        internal_tpbr_at(self.buf, i)
    }

    /// Entry `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> InternalEntry {
        InternalEntry {
            child: self.child_at(i),
            tpbr: self.tpbr_at(i),
        }
    }

    /// The entries in page order.
    pub fn entries(self) -> impl Iterator<Item = InternalEntry> + 'a {
        (0..self.count).map(move |i| self.entry(i))
    }

    /// [`Node::bounding_tpbr`] of the viewed node, bit for bit.
    pub fn bounding_tpbr(&self) -> Tpbr {
        fold_tpbrs((0..self.count).map(|i| internal_tpbr_at(self.buf, i)))
    }
}

/// The in-place edits a write pass makes to a node's entries. The
/// mutable views make them on the page, `Vec` on a decoded node; both
/// leave the page [`Node::encode`] would write for the edited node.
///
/// A pass removes before it patches: a patch written before the
/// removals shift it could be left behind past the last entry, where
/// encoding leaves the page's old bytes.
pub trait EditEntries<E> {
    /// Overwrites entry `i`.
    fn set_entry(&mut self, i: usize, e: E);
    /// Removes the entries at `slots` (ascending), shifting the later
    /// entries down so their order is kept.
    fn remove_entries(&mut self, slots: impl IntoIterator<Item = usize>);
    /// Appends an entry after the last one.
    fn push_entry(&mut self, e: E);
}

impl<E> EditEntries<E> for Vec<E> {
    fn set_entry(&mut self, i: usize, e: E) {
        self[i] = e;
    }

    fn remove_entries(&mut self, slots: impl IntoIterator<Item = usize>) {
        let mut doomed = slots.into_iter().peekable();
        let mut i = 0;
        self.retain(|_| {
            let keep = doomed.next_if_eq(&i).is_none();
            i += 1;
            keep
        });
        debug_assert!(doomed.next().is_none(), "removal slots out of range");
    }

    fn push_entry(&mut self, e: E) {
        self.push(e);
    }
}

/// Shifts the survivors of removing `doomed` (ascending) down over the
/// holes, run by run; returns the new count.
fn compact(
    buf: &mut [u8],
    count: usize,
    stride: usize,
    doomed: impl IntoIterator<Item = usize>,
) -> usize {
    let at = |i: usize| HEADER_LEN + i * stride;
    let (mut gone, mut from) = (0, 0);
    for r in doomed {
        assert!(
            from <= r && r < count,
            "removal slots out of order or range"
        );
        if gone > 0 {
            buf.copy_within(at(from)..at(r), at(from - gone));
        }
        gone += 1;
        from = r + 1;
    }
    if gone > 0 {
        buf.copy_within(at(from)..at(count), at(from - gone));
        slots::put_u16(buf, OFF_COUNT, (count - gone) as u16);
    }
    count - gone
}

/// Grows the count by one, checking the page has room; returns the
/// new entry's slot.
fn grow(buf: &mut [u8], count: &mut usize, stride: usize) -> usize {
    assert!(
        HEADER_LEN + (*count + 1) * stride <= buf.len(),
        "node page full"
    );
    *count += 1;
    slots::put_u16(buf, OFF_COUNT, *count as u16);
    *count - 1
}

/// A borrowed, mutable view of an encoded leaf page.
#[derive(Debug)]
pub struct LeafViewMut<'a> {
    buf: &'a mut [u8],
    count: usize,
}

impl<'a> LeafViewMut<'a> {
    /// Checks the header (see [`NodeView::parse`]) and views the leaf.
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> StorageResult<LeafViewMut<'a>> {
        let count = check_header(buf, TAG_LEAF, LEAF_ENTRY_LEN)?;
        Ok(LeafViewMut { buf, count })
    }

    /// Read-only alias of this view.
    #[inline]
    pub fn as_view(&self) -> LeafView<'_> {
        LeafView {
            buf: self.buf,
            count: self.count,
        }
    }
}

impl EditEntries<LeafEntry> for LeafViewMut<'_> {
    fn set_entry(&mut self, i: usize, e: LeafEntry) {
        assert!(i < self.count, "entry slot out of range");
        put_leaf_entry(self.buf, i, &e);
    }

    fn remove_entries(&mut self, slots: impl IntoIterator<Item = usize>) {
        self.count = compact(self.buf, self.count, LEAF_ENTRY_LEN, slots);
    }

    fn push_entry(&mut self, e: LeafEntry) {
        let i = grow(self.buf, &mut self.count, LEAF_ENTRY_LEN);
        put_leaf_entry(self.buf, i, &e);
    }
}

/// A borrowed, mutable view of an encoded internal page.
#[derive(Debug)]
pub struct InternalViewMut<'a> {
    buf: &'a mut [u8],
    count: usize,
}

impl<'a> InternalViewMut<'a> {
    /// Checks the header (see [`NodeView::parse`]) and views the node.
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> StorageResult<InternalViewMut<'a>> {
        let count = check_header(buf, TAG_INTERNAL, INTERNAL_ENTRY_LEN)?;
        Ok(InternalViewMut { buf, count })
    }

    /// Read-only alias of this view.
    #[inline]
    pub fn as_view(&self) -> InternalView<'_> {
        InternalView {
            buf: self.buf,
            count: self.count,
        }
    }
}

impl EditEntries<InternalEntry> for InternalViewMut<'_> {
    fn set_entry(&mut self, i: usize, e: InternalEntry) {
        assert!(i < self.count, "entry slot out of range");
        put_internal_entry(self.buf, i, &e);
    }

    fn remove_entries(&mut self, slots: impl IntoIterator<Item = usize>) {
        self.count = compact(self.buf, self.count, INTERNAL_ENTRY_LEN, slots);
    }

    fn push_entry(&mut self, e: InternalEntry) {
        let i = grow(self.buf, &mut self.count, INTERNAL_ENTRY_LEN);
        put_internal_entry(self.buf, i, &e);
    }
}

/// Minimum node fill factor.
const MIN_FILL: f64 = 0.4;

/// Fanout limits derived from the page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    pub max_leaf: usize,
    pub max_internal: usize,
    pub min_leaf: usize,
    pub min_internal: usize,
}

impl NodeLayout {
    /// Computes fanouts for a page size, each minimum at 40 % of its
    /// maximum (the R\*-tree convention).
    pub fn for_page_size(page_size: usize) -> NodeLayout {
        let max_leaf = (page_size - HEADER_LEN) / LEAF_ENTRY_LEN;
        let max_internal = (page_size - HEADER_LEN) / INTERNAL_ENTRY_LEN;
        assert!(
            max_leaf >= 4 && max_internal >= 4,
            "page size {page_size} too small for a TPR node"
        );
        let min_leaf = ((max_leaf as f64 * MIN_FILL) as usize).max(2);
        let min_internal = ((max_internal as f64 * MIN_FILL) as usize).max(2);
        NodeLayout {
            max_leaf,
            max_internal,
            min_leaf,
            min_internal,
        }
    }

    /// Maximum entries for a node of the given level.
    pub fn max_for_level(&self, level: u8) -> usize {
        if level == 0 {
            self.max_leaf
        } else {
            self.max_internal
        }
    }

    /// Minimum entries for a non-root node of the given level.
    pub fn min_for_level(&self, level: u8) -> usize {
        if level == 0 {
            self.min_leaf
        } else {
            self.min_internal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_entry(id: u64) -> LeafEntry {
        LeafEntry {
            id,
            pos: Point::new(id as f64, -(id as f64)),
            vel: Point::new(0.5, -0.25),
            ref_time: 3.0,
        }
    }

    #[test]
    fn leaf_round_trip() {
        let node = Node::Leaf {
            entries: (0..10).map(leaf_entry).collect(),
        };
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf).unwrap();
        let back = Node::decode(&buf).unwrap();
        assert_eq!(node, back);
        assert!(back.is_leaf());
        assert_eq!(back.level(), 0);
        assert_eq!(back.len(), 10);
    }

    #[test]
    fn internal_round_trip() {
        let entries: Vec<InternalEntry> = (0..7)
            .map(|i| InternalEntry {
                child: PageId(i),
                tpbr: Tpbr::new(
                    Rect::from_bounds(i as f64, 0.0, i as f64 + 1.0, 2.0),
                    Vbr::new(Point::new(-1.0, 0.0), Point::new(1.0, 0.5)),
                    i as f64 * 0.5,
                ),
            })
            .collect();
        let node = Node::Internal { level: 3, entries };
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf).unwrap();
        let back = Node::decode(&buf).unwrap();
        assert_eq!(node, back);
        assert_eq!(back.level(), 3);
    }

    /// Every way in — the views of either kind and mutability and
    /// `Node::decode` — refuses a bad header with an error instead of
    /// panicking or reading past the page: an unknown tag, a count past
    /// the page's capacity, and a buffer shorter than the header.
    #[test]
    fn decode_rejects_garbage() {
        fn all_reject(buf: &[u8]) -> bool {
            let mut copy = buf.to_vec();
            let corrupt = |r: StorageResult<()>| matches!(r, Err(StorageError::Corrupt(_)));
            corrupt(Node::decode(buf).map(drop))
                && corrupt(NodeView::parse(buf).map(drop))
                && corrupt(LeafViewMut::parse(&mut copy).map(drop))
                && corrupt(InternalViewMut::parse(&mut copy).map(drop))
        }
        for page in [512usize, 4096] {
            let layout = NodeLayout::for_page_size(page);
            for tag in [0u8, 3, 0xFF] {
                let mut buf = vec![0u8; page];
                buf[OFF_TAG] = tag;
                assert!(all_reject(&buf), "tag {tag} at {page} B");
            }
            for (tag, max) in [
                (TAG_LEAF, layout.max_leaf),
                (TAG_INTERNAL, layout.max_internal),
            ] {
                for count in [max + 1, usize::from(u16::MAX)] {
                    let mut buf = vec![0u8; page];
                    buf[OFF_TAG] = tag;
                    slots::put_u16(&mut buf, OFF_COUNT, count as u16);
                    assert!(all_reject(&buf), "tag {tag} count {count} at {page} B");
                }
                // A full node is still accepted by its own kind.
                let mut buf = vec![0u8; page];
                buf[OFF_TAG] = tag;
                slots::put_u16(&mut buf, OFF_COUNT, max as u16);
                assert_eq!(Node::decode(&buf).unwrap().len(), max);
                assert_eq!(NodeView::parse(&buf).unwrap().len(), max);
            }
            for len in 0..HEADER_LEN {
                for tag in [TAG_LEAF, TAG_INTERNAL] {
                    let mut buf = vec![0u8; page];
                    buf[OFF_TAG] = tag;
                    assert!(all_reject(&buf[..len]), "{len}-byte buffer, tag {tag}");
                }
            }
        }
    }

    /// Deterministic xorshift stream for the seeded node tests.
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
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn f64(&mut self) -> f64 {
            (self.next() % 2_000_001) as f64 - 1_000_000.0
        }
        fn leaf_entry(&mut self) -> LeafEntry {
            LeafEntry {
                id: self.next(),
                pos: Point::new(self.f64(), self.f64()),
                vel: Point::new(self.f64() * 1e-4, self.f64() * 1e-4),
                ref_time: (self.next() % 100) as f64,
            }
        }
        fn internal_entry(&mut self) -> InternalEntry {
            let (x, y) = (self.f64(), self.f64());
            let (vx, vy) = (self.f64() * 1e-4, self.f64() * 1e-4);
            InternalEntry {
                child: PageId(self.next() >> 8),
                tpbr: Tpbr::new(
                    Rect::from_bounds(x, y, x + 500.0, y + 300.0),
                    Vbr::new(Point::new(vx - 1.0, vy - 2.0), Point::new(vx, vy)),
                    (self.next() % 100) as f64,
                ),
            }
        }
    }

    /// A seeded edit of the kind a write pass makes: removals
    /// (ascending), then patches of surviving slots, then appends up
    /// to `cap`.
    fn edit<E, S: EditEntries<E>>(
        target: &mut S,
        len: usize,
        cap: usize,
        rng: &mut Rng,
        mut fresh: impl FnMut(&mut Rng) -> E,
    ) {
        let doomed: Vec<usize> = (0..len).filter(|_| rng.below(3) == 0).collect();
        target.remove_entries(doomed.iter().copied());
        let kept = len - doomed.len();
        for i in 0..kept {
            if rng.below(4) == 0 {
                target.set_entry(i, fresh(rng));
            }
        }
        for _ in 0..rng.below(cap - kept + 1) {
            target.push_entry(fresh(rng));
        }
    }

    /// The in-place edits leave exactly the page `Node::encode` writes
    /// for the same edit of the decoded node — header, entries and the
    /// stale tail alike — and fold the same bounding TPBR bit for bit,
    /// so the page format (and with it checkpoints and recovery) is
    /// what it was. Seeded leaf and internal nodes, empty to full, at
    /// 512 B and 4 KiB pages.
    #[test]
    fn in_place_edits_match_encoding_the_edited_node() {
        let mut rng = Rng(0x0F0E_5EED);
        for page in [512usize, 4096] {
            let layout = NodeLayout::for_page_size(page);
            for leaf in [true, false] {
                let max = if leaf {
                    layout.max_leaf
                } else {
                    layout.max_internal
                };
                for n in 0..=max {
                    // Garbage past the entries: an edit must leave the
                    // tail exactly as encoding does.
                    let mut page_bytes: Vec<u8> = (0..page).map(|_| rng.next() as u8).collect();
                    let node = if leaf {
                        Node::Leaf {
                            entries: (0..n).map(|_| rng.leaf_entry()).collect(),
                        }
                    } else {
                        Node::Internal {
                            level: 1 + rng.below(4) as u8,
                            entries: (0..n).map(|_| rng.internal_entry()).collect(),
                        }
                    };
                    node.encode(&mut page_bytes).unwrap();
                    let seed = rng.next();
                    let mut in_place = page_bytes.clone();
                    let view_tpbr = if leaf {
                        let mut v = LeafViewMut::parse(&mut in_place).unwrap();
                        edit(&mut v, n, max, &mut Rng(seed), Rng::leaf_entry);
                        v.as_view().bounding_tpbr()
                    } else {
                        let mut v = InternalViewMut::parse(&mut in_place).unwrap();
                        edit(&mut v, n, max, &mut Rng(seed), Rng::internal_entry);
                        v.as_view().bounding_tpbr()
                    };
                    let mut decoded = Node::decode(&page_bytes).unwrap();
                    match &mut decoded {
                        Node::Leaf { entries } => {
                            edit(entries, n, max, &mut Rng(seed), Rng::leaf_entry)
                        }
                        Node::Internal { entries, .. } => {
                            edit(entries, n, max, &mut Rng(seed), Rng::internal_entry)
                        }
                    }
                    let mut encoded = page_bytes.clone();
                    decoded.encode(&mut encoded).unwrap();
                    assert!(in_place == encoded, "{page} B, leaf {leaf}, {n} entries");
                    let want = decoded.bounding_tpbr();
                    assert_eq!(format!("{view_tpbr:?}"), format!("{want:?}"));
                    assert_eq!(Node::decode(&in_place).unwrap(), decoded);
                }
            }
        }
    }

    #[test]
    fn layout_for_4k_pages() {
        let l = NodeLayout::for_page_size(4096);
        assert_eq!(l.max_leaf, 85);
        assert_eq!(l.max_internal, 51);
        assert_eq!(l.min_leaf, 34);
        assert_eq!(l.min_internal, 20);
        assert_eq!(l.max_for_level(0), 85);
        assert_eq!(l.max_for_level(2), 51);
        assert_eq!(l.min_for_level(0), 34);
        assert_eq!(l.min_for_level(1), 20);
    }

    #[test]
    fn full_leaf_fits_page() {
        let l = NodeLayout::for_page_size(4096);
        let node = Node::Leaf {
            entries: (0..l.max_leaf as u64).map(leaf_entry).collect(),
        };
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf).unwrap();
        assert_eq!(Node::decode(&buf).unwrap().len(), l.max_leaf);
    }

    #[test]
    fn bounding_tpbr_covers_entries() {
        let node = Node::Leaf {
            entries: (0..5).map(leaf_entry).collect(),
        };
        let b = node.bounding_tpbr();
        for e in (0..5).map(leaf_entry) {
            for t in [3.0, 5.0, 10.0] {
                assert!(b.rect_at(t).contains_point(e.position_at(t)));
            }
        }
        assert!(Node::empty_leaf().bounding_tpbr().is_empty());
    }

    #[test]
    fn leaf_entry_object_round_trip() {
        let o = MovingObject::new(5, Point::new(1.0, 2.0), Point::new(3.0, 4.0), 6.0);
        let e = LeafEntry::from_object(&o);
        assert_eq!(e.to_object(), o);
        assert_eq!(e.position_at(7.0), Point::new(4.0, 6.0));
    }
}
