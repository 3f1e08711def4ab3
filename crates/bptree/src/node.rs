//! B+-tree node layout and page codec.
//!
//! ```text
//! header:        tag(u8) level(u8) count(u16) pad(u32)      = 8 bytes
//! leaf:          reserved(u64), written as PageId::INVALID  = 8 bytes
//!                entries: key(16) value(VALUE_LEN)          = 56 bytes each
//! internal:      keys: count x 16 bytes
//!                children: (count + 1) x 8 bytes
//! ```
//!
//! Two access models share this layout:
//!
//! * [`BNode`] — a fully decoded node (`Vec<Key128>`, `Vec<Value>`,
//!   …). Used for structural surgery — multi-way splits, merging or
//!   redistributing drained siblings — and bulk construction, where
//!   whole-node rewrites are unavoidable anyway.
//! * [`LeafView`] / [`InternalView`] (and [`LeafViewMut`]) —
//!   zero-copy typed views over the raw page buffer. These validate
//!   the header once, then do binary search, slot reads, and
//!   memmove-style insert/remove **in place**, so the hot path of a
//!   moving-object update (descend, overwrite/insert/delete one leaf
//!   entry) allocates nothing and touches only the bytes it must.
//!
//! Both models read and write the identical wire format; the views are
//! an optimization, not a second codec.

use vp_storage::codec::{slots, PageReader, PageWriter};
use vp_storage::{PageId, StorageError, StorageResult};

/// Fixed value record length (fits the Bx-tree payload: object id is in
/// the key; x, y, vx, vy, ref_time are 5 × f64 = 40 bytes).
pub const VALUE_LEN: usize = 40;

/// A fixed-size value record.
pub type Value = [u8; VALUE_LEN];

const HEADER_LEN: usize = 8;
const KEY_LEN: usize = 16;
/// A leaf's reserved header word, always written as
/// `PageId::INVALID`; kept so the on-disk page format does not change.
const LEAF_META: usize = 8;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// A 128-bit composite key ordered by `(hi, lo)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key128 {
    pub hi: u64,
    pub lo: u64,
}

impl Key128 {
    /// Creates a key from its components.
    #[inline]
    pub const fn new(hi: u64, lo: u64) -> Key128 {
        Key128 { hi, lo }
    }

    /// The smallest key.
    pub const MIN: Key128 = Key128 { hi: 0, lo: 0 };

    /// The largest key.
    pub const MAX: Key128 = Key128 {
        hi: u64::MAX,
        lo: u64::MAX,
    };
}

/// A decoded B+-tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum BNode {
    Leaf {
        keys: Vec<Key128>,
        values: Vec<Value>,
    },
    Internal {
        level: u8,
        /// Separator keys; `children.len() == keys.len() + 1`. Subtree
        /// `children[i]` holds keys `< keys[i]`; `children[last]` holds
        /// the rest.
        keys: Vec<Key128>,
        children: Vec<PageId>,
    },
}

impl BNode {
    /// Creates an empty leaf.
    pub fn empty_leaf() -> BNode {
        BNode::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        match self {
            BNode::Leaf { keys, .. } => keys.len(),
            BNode::Internal { keys, .. } => keys.len(),
        }
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, BNode::Leaf { .. })
    }

    /// Serializes into a page buffer.
    pub fn encode(&self, buf: &mut [u8]) -> StorageResult<()> {
        let mut w = PageWriter::new(buf);
        match self {
            BNode::Leaf { keys, values } => {
                debug_assert_eq!(keys.len(), values.len());
                w.put_u8(TAG_LEAF)?;
                w.put_u8(0)?;
                w.put_u16(keys.len() as u16)?;
                w.put_u32(0)?;
                w.put_page_id(PageId::INVALID)?; // LEAF_META
                for (k, v) in keys.iter().zip(values) {
                    w.put_u64(k.hi)?;
                    w.put_u64(k.lo)?;
                    w.put_bytes(v)?;
                }
            }
            BNode::Internal {
                level,
                keys,
                children,
            } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                w.put_u8(TAG_INTERNAL)?;
                w.put_u8(*level)?;
                w.put_u16(keys.len() as u16)?;
                w.put_u32(0)?;
                for k in keys {
                    w.put_u64(k.hi)?;
                    w.put_u64(k.lo)?;
                }
                for c in children {
                    w.put_page_id(*c)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes from a page buffer.
    pub fn decode(buf: &[u8]) -> StorageResult<BNode> {
        let mut r = PageReader::new(buf);
        let tag = r.get_u8()?;
        let level = r.get_u8()?;
        let count = r.get_u16()? as usize;
        let _pad = r.get_u32()?;
        match tag {
            TAG_LEAF => {
                let _reserved = r.get_page_id()?; // LEAF_META
                let mut keys = Vec::with_capacity(count);
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(Key128::new(r.get_u64()?, r.get_u64()?));
                    let mut v = [0u8; VALUE_LEN];
                    v.copy_from_slice(r.get_bytes(VALUE_LEN)?);
                    values.push(v);
                }
                Ok(BNode::Leaf { keys, values })
            }
            TAG_INTERNAL => {
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(Key128::new(r.get_u64()?, r.get_u64()?));
                }
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..=count {
                    children.push(r.get_page_id()?);
                }
                Ok(BNode::Internal {
                    level,
                    keys,
                    children,
                })
            }
            other => Err(StorageError::Corrupt(format!("unknown bnode tag {other}"))),
        }
    }
}

/// Fanout limits derived from the page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BLayout {
    /// Max key/value pairs per leaf.
    pub max_leaf: usize,
    /// Max separator keys per internal node (children = keys + 1).
    pub max_internal: usize,
    pub min_leaf: usize,
    pub min_internal: usize,
}

impl BLayout {
    /// Computes fanouts for a page size.
    pub fn for_page_size(page_size: usize) -> BLayout {
        let max_leaf = (page_size - HEADER_LEN - LEAF_META) / (KEY_LEN + VALUE_LEN);
        // keys * 16 + (keys + 1) * 8 <= page - header
        let max_internal = (page_size - HEADER_LEN - 8) / (KEY_LEN + 8);
        assert!(
            max_leaf >= 4 && max_internal >= 4,
            "page size {page_size} too small for a B+-tree node"
        );
        BLayout {
            max_leaf,
            max_internal,
            min_leaf: (max_leaf / 2).max(1),
            min_internal: (max_internal / 2).max(1),
        }
    }
}

// ----- zero-copy page views ---------------------------------------------

const OFF_TAG: usize = 0;
const OFF_COUNT: usize = 2;
const LEAF_ENTRIES: usize = HEADER_LEN + LEAF_META;
const ENTRY_LEN: usize = KEY_LEN + VALUE_LEN;
const INT_KEYS: usize = HEADER_LEN;

/// Reads a [`Key128`] at a byte offset.
#[inline(always)]
fn key_at_off(buf: &[u8], off: usize) -> Key128 {
    Key128::new(slots::get_u64(buf, off), slots::get_u64(buf, off + 8))
}

/// Writes a [`Key128`] at a byte offset.
#[inline(always)]
fn put_key_at_off(buf: &mut [u8], off: usize, key: Key128) {
    slots::put_u64(buf, off, key.hi);
    slots::put_u64(buf, off + 8, key.lo);
}

#[inline]
fn check_leaf_header(buf: &[u8]) -> StorageResult<usize> {
    if buf.len() < LEAF_ENTRIES || buf[OFF_TAG] != TAG_LEAF {
        return Err(StorageError::Corrupt("not a leaf page".into()));
    }
    let count = slots::get_u16(buf, OFF_COUNT) as usize;
    if LEAF_ENTRIES + count * ENTRY_LEN > buf.len() {
        return Err(StorageError::Corrupt(format!(
            "leaf count {count} exceeds page capacity"
        )));
    }
    Ok(count)
}

#[inline]
fn check_internal_header(buf: &[u8]) -> StorageResult<usize> {
    if buf.len() < HEADER_LEN || buf[OFF_TAG] != TAG_INTERNAL {
        return Err(StorageError::Corrupt("not an internal page".into()));
    }
    let count = slots::get_u16(buf, OFF_COUNT) as usize;
    if INT_KEYS + count * KEY_LEN + (count + 1) * 8 > buf.len() {
        return Err(StorageError::Corrupt(format!(
            "internal count {count} exceeds page capacity"
        )));
    }
    Ok(count)
}

/// A borrowed, read-only view of an encoded leaf page.
///
/// Header bounds are validated by [`LeafView::parse`]; afterwards all
/// slot accesses are in range by construction (indexes are still
/// bounds-checked by the slice layer, so a logic bug panics instead of
/// reading wild memory).
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a> {
    buf: &'a [u8],
    count: usize,
}

impl<'a> LeafView<'a> {
    /// Validates the header and constructs the view.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> StorageResult<LeafView<'a>> {
        let count = check_leaf_header(buf)?;
        Ok(LeafView { buf, count })
    }

    /// Number of entries stored.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The key of entry `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key128 {
        debug_assert!(i < self.count);
        key_at_off(self.buf, LEAF_ENTRIES + i * ENTRY_LEN)
    }

    /// Borrows the value bytes of entry `i` (no copy).
    #[inline]
    pub fn value_at(&self, i: usize) -> &'a Value {
        debug_assert!(i < self.count);
        slots::get_array::<VALUE_LEN>(self.buf, LEAF_ENTRIES + i * ENTRY_LEN + KEY_LEN)
    }

    /// Binary search for `key`: `Ok(slot)` when present, `Err(slot)`
    /// with the insertion position otherwise.
    #[inline]
    pub fn search(&self, key: Key128) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key_at(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Index of the first entry with key `>= key` (for range scans).
    #[inline]
    pub fn lower_bound(&self, key: Key128) -> usize {
        match self.search(key) {
            Ok(i) | Err(i) => i,
        }
    }
}

/// A borrowed, mutable view of an encoded leaf page: in-place entry
/// insertion/removal (memmove of the entry tail) and value overwrite,
/// so a fitting update rewrites only the bytes that changed instead of
/// re-encoding the whole node.
#[derive(Debug)]
pub struct LeafViewMut<'a> {
    buf: &'a mut [u8],
    count: usize,
}

impl<'a> LeafViewMut<'a> {
    /// Validates the header and constructs the view.
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> StorageResult<LeafViewMut<'a>> {
        let count = check_leaf_header(buf)?;
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

    /// Number of entries stored.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The key of entry `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key128 {
        self.as_view().key_at(i)
    }

    /// Binary search (see [`LeafView::search`]).
    #[inline]
    pub fn search(&self, key: Key128) -> Result<usize, usize> {
        self.as_view().search(key)
    }

    /// Entries this page can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        (self.buf.len() - LEAF_ENTRIES) / ENTRY_LEN
    }

    /// Overwrites the value of entry `i` in place.
    #[inline]
    pub fn set_value_at(&mut self, i: usize, value: &Value) {
        debug_assert!(i < self.count);
        slots::put_array(self.buf, LEAF_ENTRIES + i * ENTRY_LEN + KEY_LEN, value);
    }

    /// Inserts `key -> value` at slot `i`, shifting later entries right
    /// by one stride. The caller must have room (`count < capacity`).
    pub fn insert_at(&mut self, i: usize, key: Key128, value: &Value) {
        assert!(i <= self.count, "insert slot out of range");
        assert!(self.count < self.capacity(), "leaf page full");
        let start = LEAF_ENTRIES + i * ENTRY_LEN;
        let end = LEAF_ENTRIES + self.count * ENTRY_LEN;
        self.buf.copy_within(start..end, start + ENTRY_LEN);
        put_key_at_off(self.buf, start, key);
        slots::put_array(self.buf, start + KEY_LEN, value);
        self.count += 1;
        slots::put_u16(self.buf, OFF_COUNT, self.count as u16);
    }

    /// Removes entry `i`, shifting later entries left by one stride.
    pub fn remove_at(&mut self, i: usize) {
        assert!(i < self.count, "remove slot out of range");
        let start = LEAF_ENTRIES + (i + 1) * ENTRY_LEN;
        let end = LEAF_ENTRIES + self.count * ENTRY_LEN;
        self.buf.copy_within(start..end, start - ENTRY_LEN);
        self.count -= 1;
        slots::put_u16(self.buf, OFF_COUNT, self.count as u16);
    }
}

/// A borrowed, read-only view of an encoded internal page: binary
/// search over the separator keys and child-slot reads, used by the
/// descent loop without decoding the node.
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a> {
    buf: &'a [u8],
    count: usize,
}

impl<'a> InternalView<'a> {
    /// Validates the header and constructs the view.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> StorageResult<InternalView<'a>> {
        let count = check_internal_header(buf)?;
        Ok(InternalView { buf, count })
    }

    /// Number of separator keys (children = count + 1).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The node's level (leaves are level 0).
    #[inline]
    pub fn level(&self) -> u8 {
        self.buf[1]
    }

    /// The encoded node — header, separators and child ids — without
    /// the page's unused tail; it parses back into the same view.
    #[inline]
    pub(crate) fn encoded_bytes(&self) -> &'a [u8] {
        &self.buf[..INT_KEYS + self.count * KEY_LEN + (self.count + 1) * 8]
    }

    /// Separator key `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key128 {
        debug_assert!(i < self.count);
        key_at_off(self.buf, INT_KEYS + i * KEY_LEN)
    }

    /// Child pointer `i` (`0..=count`).
    #[inline]
    pub fn child_at(&self, i: usize) -> PageId {
        debug_assert!(i <= self.count);
        slots::get_page_id(self.buf, INT_KEYS + self.count * KEY_LEN + i * 8)
    }

    /// The child slot to descend into for `key`: the first slot whose
    /// separator exceeds `key` (binary search; separators bound their
    /// right subtree from below).
    #[inline]
    pub fn child_for(&self, key: Key128) -> usize {
        let (mut lo, mut hi) = (0usize, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(b: u8) -> Value {
        [b; VALUE_LEN]
    }

    #[test]
    fn key_ordering() {
        assert!(Key128::new(1, 0) < Key128::new(2, 0));
        assert!(Key128::new(1, 5) < Key128::new(1, 6));
        assert!(Key128::new(1, u64::MAX) < Key128::new(2, 0));
        assert!(Key128::MIN < Key128::MAX);
    }

    #[test]
    fn leaf_round_trip() {
        let node = BNode::Leaf {
            keys: (0..5).map(|i| Key128::new(i, i * 2)).collect(),
            values: (0..5).map(|i| val(i as u8)).collect(),
        };
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf).unwrap();
        assert_eq!(BNode::decode(&buf).unwrap(), node);
        // The reserved word keeps the page format: an invalid page id.
        assert_eq!(slots::get_page_id(&buf, HEADER_LEN), PageId::INVALID);
    }

    #[test]
    fn internal_round_trip() {
        let node = BNode::Internal {
            level: 2,
            keys: (0..4).map(|i| Key128::new(i, 0)).collect(),
            children: (0..5).map(PageId).collect(),
        };
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf).unwrap();
        assert_eq!(BNode::decode(&buf).unwrap(), node);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            BNode::decode(&[9u8; 64]),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn layout_4k() {
        let l = BLayout::for_page_size(4096);
        assert_eq!(l.max_leaf, (4096 - 16) / 56); // 72
        assert_eq!(l.max_internal, (4096 - 16) / 24); // 170
        assert!(l.min_leaf >= 1 && l.min_leaf <= l.max_leaf / 2);
    }

    #[test]
    fn leaf_view_reads_encoded_node() {
        let node = BNode::Leaf {
            keys: (0..5).map(|i| Key128::new(i, i * 2)).collect(),
            values: (0..5).map(|i| val(i as u8)).collect(),
        };
        let mut buf = vec![0u8; 512];
        node.encode(&mut buf).unwrap();

        let v = LeafView::parse(&buf).unwrap();
        assert_eq!(v.count(), 5);
        for i in 0..5u64 {
            assert_eq!(v.key_at(i as usize), Key128::new(i, i * 2));
            assert_eq!(v.value_at(i as usize), &val(i as u8));
        }
        assert_eq!(v.search(Key128::new(3, 6)), Ok(3));
        assert_eq!(v.search(Key128::new(3, 5)), Err(3));
        assert_eq!(v.lower_bound(Key128::new(2, 4)), 2);
        assert_eq!(v.lower_bound(Key128::MAX), 5);
    }

    #[test]
    fn leaf_view_mut_matches_decode_after_edits() {
        let node = BNode::Leaf {
            keys: vec![Key128::new(1, 0), Key128::new(3, 0), Key128::new(5, 0)],
            values: vec![val(1), val(3), val(5)],
        };
        let mut buf = vec![0u8; 512];
        node.encode(&mut buf).unwrap();

        let mut m = LeafViewMut::parse(&mut buf).unwrap();
        // Insert in the middle, at the front, at the back.
        m.insert_at(1, Key128::new(2, 0), &val(2));
        m.insert_at(0, Key128::new(0, 0), &val(0));
        m.insert_at(5, Key128::new(6, 0), &val(6));
        m.set_value_at(2, &val(99));
        m.remove_at(4); // drop key (5,0)

        let decoded = BNode::decode(&buf).unwrap();
        assert_eq!(
            decoded,
            BNode::Leaf {
                keys: [0u64, 1, 2, 3, 6]
                    .iter()
                    .map(|&h| Key128::new(h, 0))
                    .collect(),
                values: vec![val(0), val(1), val(99), val(3), val(6)],
            }
        );
    }

    #[test]
    fn leaf_view_mut_fill_then_drain() {
        let layout = BLayout::for_page_size(512);
        let mut buf = vec![0u8; 512];
        BNode::empty_leaf().encode(&mut buf).unwrap();
        let mut m = LeafViewMut::parse(&mut buf).unwrap();
        assert_eq!(m.capacity(), layout.max_leaf);
        for i in 0..layout.max_leaf as u64 {
            let slot = m.search(Key128::new(0, i)).unwrap_err();
            m.insert_at(slot, Key128::new(0, i), &val(i as u8));
        }
        assert_eq!(m.count(), layout.max_leaf);
        for _ in 0..layout.max_leaf {
            m.remove_at(0);
        }
        assert_eq!(m.count(), 0);
        assert_eq!(BNode::decode(&buf).unwrap(), BNode::empty_leaf());
    }

    #[test]
    fn internal_view_reads_and_routes() {
        let node = BNode::Internal {
            level: 2,
            keys: (1..=4).map(|i| Key128::new(i * 10, 0)).collect(),
            children: (0..5).map(PageId).collect(),
        };
        let mut buf = vec![0u8; 512];
        node.encode(&mut buf).unwrap();

        let v = InternalView::parse(&buf).unwrap();
        assert_eq!(v.count(), 4);
        assert_eq!(v.level(), 2);
        assert_eq!(v.key_at(0), Key128::new(10, 0));
        assert_eq!(v.child_at(4), PageId(4));
        // Routing mirrors partition_point(|k| k <= key).
        assert_eq!(v.child_for(Key128::new(5, 0)), 0);
        assert_eq!(v.child_for(Key128::new(10, 0)), 1, "separator goes right");
        assert_eq!(v.child_for(Key128::new(35, 0)), 3);
        assert_eq!(v.child_for(Key128::MAX), 4);
    }

    #[test]
    fn views_reject_wrong_tags_and_garbage() {
        let mut buf = vec![0u8; 128];
        BNode::empty_leaf().encode(&mut buf).unwrap();
        assert!(InternalView::parse(&buf).is_err());
        assert!(LeafView::parse(&buf).is_ok());

        let internal = BNode::Internal {
            level: 1,
            keys: vec![Key128::new(1, 0)],
            children: vec![PageId(1), PageId(2)],
        };
        internal.encode(&mut buf).unwrap();
        assert!(LeafView::parse(&buf).is_err());
        assert!(InternalView::parse(&buf).is_ok());

        assert!(LeafView::parse(&[9u8; 16]).is_err());
        assert!(InternalView::parse(&[9u8; 16]).is_err());
        // A count that cannot fit the page is corrupt, not a panic.
        let mut bad = vec![0u8; 64];
        BNode::empty_leaf().encode(&mut bad).unwrap();
        bad[OFF_COUNT] = 200;
        assert!(LeafView::parse(&bad).is_err());
    }

    #[test]
    fn full_nodes_fit_page() {
        let l = BLayout::for_page_size(4096);
        let leaf = BNode::Leaf {
            keys: (0..l.max_leaf as u64).map(|i| Key128::new(i, 0)).collect(),
            values: (0..l.max_leaf).map(|i| val(i as u8)).collect(),
        };
        let mut buf = vec![0u8; 4096];
        leaf.encode(&mut buf).unwrap();

        let internal = BNode::Internal {
            level: 1,
            keys: (0..l.max_internal as u64)
                .map(|i| Key128::new(i, 0))
                .collect(),
            children: (0..=l.max_internal as u64).map(PageId).collect(),
        };
        internal.encode(&mut buf).unwrap();
    }
}
