//! The `MovingObjectIndex` abstraction.

use vp_storage::IoStats;

use crate::error::IndexResult;
use crate::object::{MovingObject, ObjectId};
use crate::query::RangeQuery;

/// The interface every moving-object index in this workspace exposes.
///
/// Both baseline indexes (`vp-tpr`'s TPR/TPR\*-tree and `vp-bx`'s
/// Bx-tree) implement this trait, and the VP index manager
/// ([`crate::manager::VpIndex`]) both *consumes* it (for its per-DVA
/// sub-indexes) and *implements* it (so velocity-partitioned and plain
/// indexes are interchangeable in the benchmark harness) — mirroring
/// the paper's claim that VP applies to a wide range of index
/// structures.
pub trait MovingObjectIndex {
    /// Inserts a new object. Fails with
    /// [`crate::IndexError::DuplicateObject`] if the id is present.
    fn insert(&mut self, obj: MovingObject) -> IndexResult<()>;

    /// Deletes an object by id. Fails with
    /// [`crate::IndexError::UnknownObject`] if absent.
    fn delete(&mut self, id: ObjectId) -> IndexResult<()>;

    /// Updates an object (new position/velocity sample). The default
    /// implementation is the paper's delete-then-insert.
    fn update(&mut self, obj: MovingObject) -> IndexResult<()> {
        self.delete(obj.id)?;
        self.insert(obj)
    }

    /// Applies one tick's worth of updates with **upsert** semantics:
    /// objects already present are moved, new ids are inserted. When
    /// an id appears multiple times in one batch, the last occurrence
    /// wins.
    ///
    /// The default implementation loops the single-object path.
    /// Indexes with a cheaper batched plan (e.g. the Bx-tree, which
    /// sorts the implied delete/insert pairs into one B+-tree leaf
    /// walk) override it; callers that buffer a tick of updates should
    /// prefer this over per-object `update` calls.
    fn update_batch(&mut self, updates: &[MovingObject]) -> IndexResult<()> {
        for obj in updates {
            if self.get_object(obj.id)?.is_some() {
                self.delete(obj.id)?;
            }
            self.insert(*obj)?;
        }
        Ok(())
    }

    /// Deletes a set of objects. Each id must be present and appear at
    /// most once. The default implementation loops `delete`; batched
    /// indexes override it to share one index walk.
    fn remove_batch(&mut self, ids: &[ObjectId]) -> IndexResult<()> {
        for &id in ids {
            self.delete(id)?;
        }
        Ok(())
    }

    /// Executes a range query, returning the ids of all matching
    /// objects (exact — any index-internal approximation must be
    /// filtered before returning).
    ///
    /// Moving-object indexes answer queries about the **present and
    /// future** (Section 2.1 of the paper): `query.t_start` must not
    /// precede the reference time of any stored object. Historical
    /// queries (back-extrapolation) are outside the data model — node
    /// bounding regions only dominate their entries forward in time.
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>>;

    /// Answers a whole batch of range queries, returning one exact
    /// result list per query, in query order. Each result is
    /// identical (as a set) to what [`MovingObjectIndex::range_query`]
    /// returns for that query alone.
    ///
    /// The default loops the single-query path. Indexes with a
    /// cheaper shared plan override it: the Bx-tree merges every
    /// query's decomposed curve ranges in every time bucket into **one
    /// shared sweep** (each page is read at most once for all queries
    /// overlapping it), and the TPR-tree runs
    /// one top-down traversal carrying the set of still-alive queries
    /// per subtree (each node page is read once for the whole batch).
    /// Callers holding several concurrent queries should prefer this
    /// over a loop.
    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        queries.iter().map(|q| self.range_query(q)).collect()
    }

    /// Candidate fetch for the incremental kNN filter step
    /// ([`crate::knn`]): returns a **superset** of the ids matching
    /// `query`, without necessarily applying the exact predicate —
    /// the caller evaluates distances itself (and deduplicates).
    ///
    /// `covered` is the previous, strictly smaller probe of an
    /// expanding-query chain `q_1 ⊆ q_2 ⊆ …` over the **same time
    /// window** (each call receives the previous probe of the chain,
    /// on an otherwise unmodified index). An implementation may omit
    /// any id it already returned for the earlier probes of the
    /// chain; the contract is that the union of the returned sets
    /// over the chain's calls `1..=r` covers every id matching `q_r`.
    /// Batched indexes exploit this to scan only the **delta ring**
    /// of each enlargement round — new curve ranges minus
    /// already-scanned ranges for the Bx-tree, re-descent pruned to
    /// subtrees not fully inside the covered region for the TPR-tree
    /// — instead of rescanning the whole enlarged region every round.
    ///
    /// The default ignores `covered` and returns the exact matches of
    /// `query`, which satisfies the contract trivially.
    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        let _ = covered;
        self.range_query(query)
    }

    /// Looks up the current state of an object by id (every index in
    /// this workspace maintains the Section-5.3 lookup table anyway).
    /// Needed by the kNN search built on top of range queries
    /// ([`crate::knn`]).
    ///
    /// Fallible: a disk-backed lookup table can hit an I/O error, and
    /// that error must be distinguishable from "not present" — an
    /// earlier infallible signature silently turned injected read
    /// failures into `None`.
    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>>;

    /// Number of objects currently indexed.
    fn len(&self) -> usize;

    /// True when no objects are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the I/O counters attributable to this index.
    fn io_stats(&self) -> IoStats;

    /// Resets the I/O counters.
    fn reset_io_stats(&self);

    /// Forces the index's storage to a durable, self-consistent state:
    /// dirty buffer-pool shards are flushed and (for file-backed
    /// disks) fsync'd. Called by the VP manager's checkpoint path. The
    /// default is a no-op for purely in-memory indexes.
    fn flush_storage(&self) -> IndexResult<()> {
        Ok(())
    }

    /// Publishes the index's current state as the next committed
    /// snapshot epoch: everything written so far becomes visible to
    /// snapshots taken from now on, and pre-images pinned only by
    /// departed readers become reclaimable. Called by the VP manager
    /// at each tick commit point (after the tick's log record is
    /// committed). The default is a no-op for indexes without
    /// versioned storage.
    fn publish_epoch(&self) {}
}

/// A point-in-time, read-only view of a [`MovingObjectIndex`].
///
/// Snapshots are immutable and safe to share across threads; their
/// query methods run against the state captured at creation with no
/// coordination with — and no visibility into — concurrent writers
/// mutating the live index. Query semantics match the live trait
/// method of the same name, evaluated on the captured state.
pub trait IndexSnapshot: Send + Sync {
    /// Exact range query over the captured state; contract as
    /// [`MovingObjectIndex::range_query`].
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>>;

    /// Batched range queries over the captured state; contract as
    /// [`MovingObjectIndex::range_query_batch`].
    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        queries.iter().map(|q| self.range_query(q)).collect()
    }

    /// kNN candidate superset over the captured state; contract as
    /// [`MovingObjectIndex::knn_candidates`].
    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        let _ = covered;
        self.range_query(query)
    }

    /// Number of objects captured.
    fn len(&self) -> usize;

    /// True when the snapshot holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Page reads this snapshot has served since it was taken. They
    /// are tallied on the snapshot, never on the live index it came
    /// from. Zero for snapshots that hold no pages.
    fn io_stats(&self) -> IoStats {
        IoStats::zero()
    }
}

/// A [`MovingObjectIndex`] that can produce lock-free point-in-time
/// snapshots of itself.
///
/// Kept separate from [`MovingObjectIndex`] (instead of adding an
/// associated type there) so `&dyn MovingObjectIndex` stays
/// object-safe for the benchmark harness.
pub trait SnapshotIndex: MovingObjectIndex {
    /// The snapshot handle type.
    type Snapshot: IndexSnapshot + 'static;

    /// Captures the index's current state. The returned snapshot keeps
    /// answering queries against that state while the live index keeps
    /// mutating; it must be dropped for the storage layer to reclaim
    /// the page versions it pins.
    fn snapshot(&self) -> IndexResult<Self::Snapshot>;
}

pub mod reference {
    //! A trivially correct in-memory reference index.
    //!
    //! Used throughout the workspace to validate the real indexes: it
    //! answers every query by exhaustively applying the exact
    //! predicate, so any divergence from it is a bug in the index
    //! under test. Also handy as the "ground truth" oracle in the
    //! benchmark harness's self-checks.

    use std::collections::BTreeMap;

    use super::*;
    use crate::error::IndexError;

    /// Linear-scan reference index.
    #[derive(Debug, Default, Clone)]
    pub struct ScanIndex {
        objects: BTreeMap<ObjectId, MovingObject>,
    }

    impl ScanIndex {
        pub fn new() -> Self {
            ScanIndex::default()
        }
    }

    impl MovingObjectIndex for ScanIndex {
        fn insert(&mut self, obj: MovingObject) -> IndexResult<()> {
            if self.objects.contains_key(&obj.id) {
                return Err(IndexError::DuplicateObject(obj.id));
            }
            self.objects.insert(obj.id, obj);
            Ok(())
        }

        fn delete(&mut self, id: ObjectId) -> IndexResult<()> {
            self.objects
                .remove(&id)
                .map(|_| ())
                .ok_or(IndexError::UnknownObject(id))
        }

        fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
            Ok(self
                .objects
                .values()
                .filter(|o| query.matches(o))
                .map(|o| o.id)
                .collect())
        }

        fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
            Ok(self.objects.get(&id).copied())
        }

        fn len(&self) -> usize {
            self.objects.len()
        }

        fn io_stats(&self) -> IoStats {
            IoStats::zero()
        }

        fn reset_io_stats(&self) {}
    }

    impl IndexSnapshot for ScanIndex {
        fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
            MovingObjectIndex::range_query(self, query)
        }

        fn len(&self) -> usize {
            MovingObjectIndex::len(self)
        }
    }

    impl SnapshotIndex for ScanIndex {
        type Snapshot = ScanIndex;

        /// Snapshot by value: the reference index is fully in memory,
        /// so a deep clone *is* a consistent point-in-time view.
        fn snapshot(&self) -> IndexResult<ScanIndex> {
            Ok(self.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScanIndex;
    use super::*;
    use crate::query::QueryRegion;
    use vp_geom::{Circle, Point};

    #[test]
    fn scan_index_basic_lifecycle() {
        let mut idx = ScanIndex::new();
        assert!(MovingObjectIndex::is_empty(&idx));
        let o = MovingObject::new(1, Point::new(0.0, 0.0), Point::new(1.0, 0.0), 0.0);
        idx.insert(o).unwrap();
        assert_eq!(MovingObjectIndex::len(&idx), 1);
        assert!(matches!(
            idx.insert(o),
            Err(crate::IndexError::DuplicateObject(1))
        ));
        // Update via the default delete+insert path.
        idx.update(MovingObject::new(1, Point::new(5.0, 5.0), Point::ZERO, 1.0))
            .unwrap();
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(5.0, 5.0), 1.0)),
            1.0,
        );
        assert_eq!(MovingObjectIndex::range_query(&idx, &q).unwrap(), vec![1]);
        idx.delete(1).unwrap();
        assert!(matches!(
            idx.delete(1),
            Err(crate::IndexError::UnknownObject(1))
        ));
    }
}
