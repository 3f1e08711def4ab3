//! A VP index whose every object routes to the outlier partition is
//! the unpartitioned index, page for page.
//!
//! The outlier partition stores world coordinates, so a `VpIndex` whose
//! DVA partitions all have τ < 0 holds exactly the objects of a bare
//! index in the same frame. Fed the same stream, the two must give the
//! same answers and do the same page work in every phase; anything
//! else means the paper's "index X" and "X under VP" are maintained
//! differently, and every VP-vs-unpartitioned figure compares two
//! maintenance policies as well as two indexes.

use std::sync::Arc;

use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_workload::scenarios::generate;

/// Pages per buffer pool: small enough that the load, the updates and
/// the ticks miss and write back, so physical counts are compared too.
const POOL_PAGES: usize = 64;
const QUERIES: usize = 40;

fn trace() -> ScenarioTrace {
    generate(
        ScenarioKind::Hotspot,
        &ScenarioConfig {
            n_objects: 4_000,
            n_ticks: 6,
            seed: 0x0E1A,
            ..ScenarioConfig::default()
        },
    )
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::with_capacity(DiskManager::new(), POOL_PAGES))
}

fn bx(pool: Arc<BufferPool>, domain: Rect, enlargement: BxEnlargement) -> BxTree {
    let cfg = BxConfig {
        domain,
        hist_cells: 200,
        enlargement,
        ..BxConfig::default()
    };
    BxTree::new(pool, cfg).expect("bx tree")
}

/// A one-partition `VpIndex` and a bare Bx-tree, each on its own pool.
struct Pair {
    vp: VpIndex<BxTree>,
    bare: BxTree,
    /// DVA partitions: each holds an empty sub-tree.
    dvas: usize,
}

impl Pair {
    fn new(trace: &ScenarioTrace, enlargement: BxEnlargement) -> Pair {
        let cfg = VpConfig {
            k: 4,
            domain: trace.domain,
            ..VpConfig::default()
        };
        let sample: Vec<Point> = trace.ticks[0]
            .iter()
            .take(cfg.sample_size)
            .map(|o| o.vel)
            .collect();
        let mut analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample);
        for p in &mut analysis.partitions {
            p.tau = -1.0;
        }
        let dvas = analysis.partitions.len();
        assert!(dvas >= 1, "the fixture has a DVA to route around");
        let vp_pool = pool();
        let vp = VpIndex::build(cfg, &analysis, |spec| {
            bx(Arc::clone(&vp_pool), spec.domain, enlargement)
        })
        .expect("vp index");
        Pair {
            vp,
            bare: bx(pool(), trace.domain, enlargement),
            dvas,
        }
    }

    /// Runs `op` on both indexes and returns each side's page work.
    fn phase(&mut self, mut op: impl FnMut(&mut dyn MovingObjectIndex)) -> (IoStats, IoStats) {
        let before = (self.vp.io_stats(), self.bare.io_stats());
        op(&mut self.vp);
        op(&mut self.bare);
        (
            delta(before.0, self.vp.io_stats()),
            delta(before.1, self.bare.io_stats()),
        )
    }
}

fn delta(before: IoStats, after: IoStats) -> IoStats {
    IoStats {
        logical_reads: after.logical_reads - before.logical_reads,
        logical_writes: after.logical_writes - before.logical_writes,
        physical_reads: after.physical_reads - before.physical_reads,
        physical_writes: after.physical_writes - before.physical_writes,
    }
}

fn queries(trace: &ScenarioTrace, t: f64) -> Vec<(Point, RangeQuery)> {
    let mut state = 0x0E1A_5EEDu64;
    let mut unit = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000_000) as f64 / 1_000_000.0
    };
    (0..QUERIES)
        .map(|i| {
            let f = trace.focus[i % trace.focus.len()];
            let center = Point::new(
                f.x + unit() * 10_000.0 - 5_000.0,
                f.y + unit() * 10_000.0 - 5_000.0,
            );
            let region = QueryRegion::Circle(Circle::new(center, 1_000.0 + unit() * 4_000.0));
            (center, RangeQuery::time_slice(region, t))
        })
        .collect()
}

fn sorted(mut ids: Vec<ObjectId>) -> Vec<ObjectId> {
    ids.sort_unstable();
    ids
}

fn check(enlargement: BxEnlargement) {
    let trace = trace();
    let mut pair = Pair::new(&trace, enlargement);
    let ctx = format!("{enlargement:?}");

    // Per-object load. Each empty DVA sub-tree has a root page that
    // the bare tree lacks, and the small pool writes each one back
    // once it is evicted.
    let (vp, bare) = pair.phase(|idx| {
        for o in &trace.ticks[0] {
            idx.insert(*o).expect("insert");
        }
    });
    assert_eq!(vp.logical_reads, bare.logical_reads, "{ctx}: load reads");
    assert_eq!(vp.logical_writes, bare.logical_writes, "{ctx}: load writes");
    assert_eq!(vp.physical_reads, bare.physical_reads, "{ctx}: load misses");
    assert_eq!(
        vp.physical_writes,
        bare.physical_writes + pair.dvas as u64,
        "{ctx}: load write-backs"
    );
    for p in 0..pair.dvas {
        assert_eq!(pair.vp.partition_index(p).len(), 0, "{ctx}: DVA {p} empty");
    }

    // Per-object updates, then whole ticks, then deletes: identical
    // page work, logical and physical.
    let mut phases = vec![(
        "per-object updates",
        pair.phase(|idx| {
            for tick in &trace.ticks[1..3] {
                for o in tick {
                    idx.update(*o).expect("update");
                }
            }
        }),
    )];
    phases.push((
        "ticks",
        pair.phase(|idx| {
            for tick in &trace.ticks[3..] {
                idx.update_batch(tick).expect("tick");
            }
        }),
    ));
    phases.push((
        "deletes",
        pair.phase(|idx| {
            for id in (0..trace.ticks[0].len() as u64).step_by(7) {
                idx.delete(id).expect("delete");
            }
        }),
    ));
    assert_eq!(pair.vp.len(), pair.bare.len(), "{ctx}: object count");

    let t = trace.tick_time(trace.ticks.len() - 1) + 5.0;
    let queries = queries(&trace, t);
    let mut answers = Vec::new();
    phases.push((
        "range queries",
        pair.phase(|idx| {
            answers.push(
                queries
                    .iter()
                    .map(|(_, q)| sorted(idx.range_query(q).expect("range")))
                    .collect::<Vec<_>>(),
            );
        }),
    ));
    assert_eq!(answers[0], answers[1], "{ctx}: range answers");
    assert!(
        answers[0].iter().any(|a| !a.is_empty()),
        "{ctx}: the queries find objects"
    );
    for (phase, (vp, bare)) in &phases {
        assert_eq!(vp, bare, "{ctx}: {phase} page work");
    }

    // kNN neighbours only. A bare Bx-tree fetches each candidate from
    // its B+-tree, where the VP layer reads its object table, so their
    // pages differ; and the B+-tree holds positions projected to the
    // bucket's label time, so distances differ in the last bits.
    for (i, (center, _)) in queries.iter().enumerate() {
        let k = 1 + i % 10;
        let ids = |n: Vec<Neighbor>| n.iter().map(|n| n.id).collect::<Vec<_>>();
        let a = knn_at(&pair.vp, *center, k, t, &trace.domain).expect("vp knn");
        let b = knn_at(&pair.bare, *center, k, t, &trace.domain).expect("bare knn");
        assert_eq!(a.len(), k, "{ctx}: kNN search {i} is full");
        assert_eq!(ids(a), ids(b), "{ctx}: kNN search {i}");
    }
}

#[test]
fn one_partition_bx_window_is_the_bare_bx_tree() {
    check(BxEnlargement::Window);
}

#[test]
fn one_partition_bx_cell_set_is_the_bare_bx_tree() {
    check(BxEnlargement::CellSet);
}
