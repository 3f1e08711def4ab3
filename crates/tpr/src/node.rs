//! TPR-tree node layout and page codec.
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

use vp_core::{MovingObject, ObjectId};
use vp_geom::{Point, Rect, Tpbr, Vbr, Vec2};
use vp_storage::codec::{PageReader, PageWriter};
use vp_storage::{PageId, StorageError, StorageResult};

const HEADER_LEN: usize = 8;
const LEAF_ENTRY_LEN: usize = 48;
const INTERNAL_ENTRY_LEN: usize = 80;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

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
        let empty = Tpbr::empty(0.0);
        match self {
            Node::Leaf { entries } => entries.iter().fold(empty, |acc, e| acc.union(&e.tpbr())),
            Node::Internal { entries, .. } => {
                entries.iter().fold(empty, |acc, e| acc.union(&e.tpbr))
            }
        }
    }

    /// Serializes the node into a page buffer.
    pub fn encode(&self, buf: &mut [u8]) -> StorageResult<()> {
        let mut w = PageWriter::new(buf);
        match self {
            Node::Leaf { entries } => {
                w.put_u8(TAG_LEAF)?;
                w.put_u8(0)?;
                w.put_u16(entries.len() as u16)?;
                w.put_u32(0)?;
                for e in entries {
                    w.put_u64(e.id)?;
                    w.put_f64(e.pos.x)?;
                    w.put_f64(e.pos.y)?;
                    w.put_f64(e.vel.x)?;
                    w.put_f64(e.vel.y)?;
                    w.put_f64(e.ref_time)?;
                }
            }
            Node::Internal { level, entries } => {
                w.put_u8(TAG_INTERNAL)?;
                w.put_u8(*level)?;
                w.put_u16(entries.len() as u16)?;
                w.put_u32(0)?;
                for e in entries {
                    w.put_page_id(e.child)?;
                    w.put_f64(e.tpbr.rect.lo.x)?;
                    w.put_f64(e.tpbr.rect.lo.y)?;
                    w.put_f64(e.tpbr.rect.hi.x)?;
                    w.put_f64(e.tpbr.rect.hi.y)?;
                    w.put_f64(e.tpbr.vbr.lo.x)?;
                    w.put_f64(e.tpbr.vbr.lo.y)?;
                    w.put_f64(e.tpbr.vbr.hi.x)?;
                    w.put_f64(e.tpbr.vbr.hi.y)?;
                    w.put_f64(e.tpbr.ref_time)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a node from a page buffer.
    pub fn decode(buf: &[u8]) -> StorageResult<Node> {
        let mut r = PageReader::new(buf);
        let tag = r.get_u8()?;
        let level = r.get_u8()?;
        let count = r.get_u16()? as usize;
        let _pad = r.get_u32()?;
        match tag {
            TAG_LEAF => {
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = r.get_u64()?;
                    let pos = Point::new(r.get_f64()?, r.get_f64()?);
                    let vel = Point::new(r.get_f64()?, r.get_f64()?);
                    let ref_time = r.get_f64()?;
                    entries.push(LeafEntry {
                        id,
                        pos,
                        vel,
                        ref_time,
                    });
                }
                Ok(Node::Leaf { entries })
            }
            TAG_INTERNAL => {
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = r.get_page_id()?;
                    let rect = Rect::new(
                        Point::new(r.get_f64()?, r.get_f64()?),
                        Point::new(r.get_f64()?, r.get_f64()?),
                    );
                    let vbr = Vbr::new(
                        Point::new(r.get_f64()?, r.get_f64()?),
                        Point::new(r.get_f64()?, r.get_f64()?),
                    );
                    let ref_time = r.get_f64()?;
                    entries.push(InternalEntry {
                        child,
                        tpbr: Tpbr::new(rect, vbr, ref_time),
                    });
                }
                Ok(Node::Internal { level, entries })
            }
            other => Err(StorageError::Corrupt(format!("unknown node tag {other}"))),
        }
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

    #[test]
    fn decode_rejects_garbage() {
        let buf = vec![0xFFu8; 64];
        assert!(matches!(Node::decode(&buf), Err(StorageError::Corrupt(_))));
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
