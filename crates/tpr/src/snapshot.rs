//! The TPR-tree read path, shared between the live tree and its
//! lock-free snapshots.
//!
//! One traversal answers single, batched and incremental-kNN queries
//! (a single query is a batch of one), generic over a [`PageRead`]
//! page source: the live [`TprTree`] runs it against its buffer pool
//! (wrapped in I/O tracking), [`TprSnapshot`] against a pinned
//! [`PageSnapshot`] — giving point-in-time query results with no
//! coordination with writers mutating the live tree.
//!
//! [`TprTree`]: crate::tree::TprTree

use std::slice;

use vp_core::{IndexResult, IndexSnapshot, ObjectId, RangeQuery};
use vp_geom::Tpbr;
use vp_storage::{IoStats, PageId, PageRead, PageSnapshot};

use crate::node::NodeView;

/// What a visited leaf reports to each query that reaches it.
#[derive(Clone, Copy)]
pub(crate) enum Report<'a> {
    /// The entries the query matches exactly. Contract as
    /// [`vp_core::MovingObjectIndex::range_query_batch`].
    Matches,
    /// kNN candidate mode: every entry, unfiltered, skipping subtrees
    /// whose footprint over the query window lies entirely inside the
    /// `covered` probe's region (already swept by earlier rounds of
    /// the chain). Contract as
    /// [`vp_core::MovingObjectIndex::knn_candidates`].
    Candidates(Option<&'a RangeQuery>),
}

/// The answer of a batch of one.
pub(crate) fn one(batch: IndexResult<Vec<Vec<ObjectId>>>) -> IndexResult<Vec<ObjectId>> {
    Ok(batch?.pop().unwrap_or_default())
}

/// The one read walk: a DFS from `root` carrying, per subtree, the
/// indices of the queries whose TPBR still intersects it over their
/// time windows — every node page is read once for all queries that
/// reach it, and tested in place through its view (no node is
/// decoded). Per query the visited subtrees and the report order are
/// those of a walk for that query alone, so a single query is a batch
/// of one.
pub(crate) fn query_from<P: PageRead>(
    pages: &P,
    root: PageId,
    queries: &[RangeQuery],
    report: Report<'_>,
) -> IndexResult<Vec<Vec<ObjectId>>> {
    let mut results: Vec<Vec<ObjectId>> = vec![Vec::new(); queries.len()];
    if !root.is_valid() || queries.is_empty() {
        return Ok(results);
    }
    // The containment test evaluates node footprints at a single
    // instant, which is only sound for time-slice probes over the
    // same instant.
    let (candidates, covered) = match report {
        Report::Matches => (false, None),
        Report::Candidates(covered) => (
            true,
            covered.filter(|c| {
                c.is_time_slice()
                    && queries
                        .iter()
                        .all(|q| q.is_time_slice() && q.t_start == c.t_start)
            }),
        ),
    };
    let q_tpbrs: Vec<Tpbr> = queries.iter().map(RangeQuery::tpbr).collect();
    let mut stack: Vec<(PageId, Vec<usize>)> = vec![(root, (0..queries.len()).collect())];
    while let Some((pid, alive)) = stack.pop() {
        pages.read_page(pid, |buf| {
            match NodeView::parse(buf)? {
                NodeView::Leaf(v) if candidates => {
                    for &qi in &alive {
                        results[qi].extend((0..v.len()).map(|i| v.id_at(i)));
                    }
                }
                NodeView::Leaf(v) => {
                    for e in v.entries() {
                        let obj = e.to_object();
                        for &qi in &alive {
                            if queries[qi].matches(&obj) {
                                results[qi].push(e.id);
                            }
                        }
                    }
                }
                NodeView::Internal(v) => {
                    for i in 0..v.len() {
                        let tpbr = v.tpbr_at(i);
                        let survivors: Vec<usize> = alive
                            .iter()
                            .copied()
                            .filter(|&qi| {
                                tpbr.intersects_during(
                                    &q_tpbrs[qi],
                                    queries[qi].t_start,
                                    queries[qi].t_end,
                                )
                            })
                            .collect();
                        if survivors.is_empty() {
                            continue;
                        }
                        if let Some(c) = covered {
                            if c.region.contains_rect(&tpbr.rect_at(c.t_start)) {
                                continue; // fully swept by earlier rounds
                            }
                        }
                        stack.push((v.child_at(i), survivors));
                    }
                }
            }
            Ok::<_, vp_storage::StorageError>(())
        })??;
    }
    Ok(results)
}

/// A point-in-time, read-only handle on a [`TprTree`]: the root handle
/// as of one committed pool epoch plus a [`PageSnapshot`] serving that
/// epoch's pages.
///
/// Queries run against it with no coordination with — and no
/// visibility into — writers mutating the live tree, and acquire **no
/// shared locks** for pages resident when the snapshot was taken.
/// Snapshot reads are invisible to the live tree's I/O counters (the
/// snapshot tallies its own). Safe to share across reader threads.
/// Obtained via [`vp_core::SnapshotIndex::snapshot`] on [`TprTree`].
///
/// [`TprTree`]: crate::tree::TprTree
pub struct TprSnapshot {
    pub(crate) pages: PageSnapshot,
    pub(crate) root: PageId,
    pub(crate) len: usize,
}

impl TprSnapshot {
    /// The committed pool epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.pages.epoch()
    }

    fn read(&self, queries: &[RangeQuery], report: Report<'_>) -> IndexResult<Vec<Vec<ObjectId>>> {
        query_from(&self.pages, self.root, queries, report)
    }
}

impl IndexSnapshot for TprSnapshot {
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        one(self.read(slice::from_ref(query), Report::Matches))
    }

    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>> {
        self.read(queries, Report::Matches)
    }

    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        one(self.read(slice::from_ref(query), Report::Candidates(covered)))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn io_stats(&self) -> IoStats {
        self.pages.stats()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vp_core::{MovingObject, MovingObjectIndex, QueryRegion, SnapshotIndex};
    use vp_geom::{Circle, Point};
    use vp_storage::{BufferPool, DiskManager};

    use super::*;
    use crate::tree::{TprConfig, TprTree};

    fn small_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(512),
            50,
        ))
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

    fn random_objects(n: usize, seed: u64, t: f64) -> Vec<MovingObject> {
        let mut rng = Rng(seed);
        (0..n as u64)
            .map(|id| {
                MovingObject::new(
                    id,
                    Point::new(rng.next() * 10_000.0, rng.next() * 10_000.0),
                    Point::new((rng.next() - 0.5) * 100.0, (rng.next() - 0.5) * 100.0),
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
        assert_send_sync::<TprSnapshot>();
    }

    #[test]
    fn snapshot_isolated_from_later_ticks() {
        let objs = random_objects(500, 0x7B1, 0.0);
        let mut t = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        let qs = queries(16, 0xABCD, 10.0);
        let baseline = t.range_query_batch(&qs).unwrap();
        let knn_probe = &qs[0];
        let baseline_knn = t.knn_candidates(knn_probe, None).unwrap();

        let snap = t.snapshot().unwrap();
        assert_eq!(snap.len(), 500);

        // Move everything, drop one, add one.
        let moved: Vec<MovingObject> = objs
            .iter()
            .map(|o| MovingObject::new(o.id, o.position_at(60.0), o.vel, 60.0))
            .collect();
        t.update_batch(&moved).unwrap();
        t.delete(0).unwrap();
        t.insert(MovingObject::new(
            9_999,
            Point::new(5_000.0, 5_000.0),
            Point::new(2.0, -3.0),
            60.0,
        ))
        .unwrap();

        // Bit-identical to the quiesced pre-tick answers.
        assert_eq!(snap.range_query_batch(&qs).unwrap(), baseline);
        for (q, want) in qs.iter().zip(&baseline) {
            assert_eq!(&IndexSnapshot::range_query(&snap, q).unwrap(), want);
        }
        assert_eq!(
            IndexSnapshot::knn_candidates(&snap, knn_probe, None).unwrap(),
            baseline_knn
        );

        // Fresh snapshot observes the post-tick state.
        let snap2 = t.snapshot().unwrap();
        assert_eq!(snap2.len(), 500);
        let later = queries(16, 0xABCD, 65.0);
        assert_eq!(
            snap2.range_query_batch(&later).unwrap(),
            t.range_query_batch(&later).unwrap()
        );
    }

    #[test]
    fn snapshot_readable_while_writer_thread_ticks() {
        let objs = random_objects(300, 0xD0C, 0.0);
        let mut t = TprTree::bulk_load(small_pool(), TprConfig::default(), &objs).unwrap();
        let qs = queries(6, 0x51AB, 5.0);
        let baseline = t.range_query_batch(&qs).unwrap();
        let snap = t.snapshot().unwrap();

        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..12 {
                    assert_eq!(snap.range_query_batch(&qs).unwrap(), baseline);
                }
            });
            for round in 1..=5 {
                let at = round as f64 * 20.0;
                let moved: Vec<MovingObject> = objs
                    .iter()
                    .map(|o| MovingObject::new(o.id, o.position_at(at), o.vel, at))
                    .collect();
                t.update_batch(&moved).unwrap();
                t.publish_epoch();
            }
        });
        assert_eq!(t.len(), 300);
        assert!(t.check_invariants().unwrap().is_ok());
    }
}
