//! End-to-end I/O failure hardening of the durable VP index, driven
//! by the scriptable fault injector (`vp_storage::FaultInjector`).
//!
//! The contract under test is the degradation ladder documented in
//! `docs/ARCHITECTURE.md`:
//!
//! 1. every operation under injected faults returns `Ok` or a
//!    *structured* error — never a panic, never silent corruption;
//! 2. a tick that fails before its log record is committed **rolls
//!    back**: the index answers every query exactly as it did before
//!    the tick and stays writable;
//! 3. a failed fsync (fsyncgate semantics: durability unknowable)
//!    demotes the index to explicit read-only mode — queries keep
//!    working, mutations return `IndexError::ReadOnly`;
//! 4. recovery from any fault point equals the uncrashed oracle at
//!    the last committed tick;
//! 5. a failed checkpoint publish (torn write / ENOSPC / failed
//!    rename) leaves the previous manifest + checkpoint + log intact.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::{
    knn_at, KnnSubSpec, RangeSubSpec, SubEvent, SubEventKind, SubscriptionConfig, SubscriptionSet,
    TickDelta,
};

// ---------------------------------------------------------------------
// Harness (the recovery-test harness, plus an injector)
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vp-fault-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sample() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 1..=300 {
        let s = 10.0 + (i % 90) as f64;
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        pts.push(Point::new(s * sign, (i % 5) as f64 * 0.2 - 0.4));
        pts.push(Point::new((i % 5) as f64 * 0.2 - 0.4, s * sign));
    }
    for i in 0..20 {
        pts.push(Point::new(40.0 + i as f64, 40.0 + i as f64));
    }
    pts
}

fn bx_factory(dir: Option<&Path>) -> impl FnMut(&PartitionSpec) -> BxTree + '_ {
    move |spec| {
        let disk = match dir {
            Some(d) => page_file(d, spec),
            None => DiskManager::with_page_size(1024),
        };
        bx_over(spec, BufferPool::with_capacity(disk, 256))
    }
}

/// Durable partitions with four-frame pools wired to the injector at
/// `disk:part-<id>`, so applying a batch reads pages from disk.
fn small_pool_factory<'a>(
    dir: &'a Path,
    inj: &'a Arc<FaultInjector>,
) -> impl FnMut(&PartitionSpec) -> BxTree + 'a {
    move |spec| {
        let pool = BufferPool::with_capacity(page_file(dir, spec), 4);
        pool.set_fault_injector(Arc::clone(inj), format!("disk:part-{}", spec.id));
        bx_over(spec, pool)
    }
}

fn page_file(dir: &Path, spec: &PartitionSpec) -> DiskManager {
    DiskManager::create_file(dir.join(format!("part-{}.pages", spec.id)), 1024).unwrap()
}

fn bx_over(spec: &PartitionSpec, pool: BufferPool) -> BxTree {
    let config = BxConfig {
        domain: spec.domain,
        update_interval: 120.0,
        ..BxConfig::default()
    };
    BxTree::new(Arc::new(pool), config).unwrap()
}

fn analysis(cfg: &VpConfig) -> velocity_partitioning::vp_core::AnalyzerOutput {
    VelocityAnalyzer::new(cfg.clone()).analyze(&sample())
}

/// Durable config with the injector wired in and WAL retry disabled,
/// so a single scripted fault deterministically surfaces instead of
/// being healed by the retry layer (the retry layer has its own test).
fn faulty_config(dir: &Path, policy: SyncPolicy, inj: &Arc<FaultInjector>) -> VpConfig {
    VpConfig::default()
        .with_wal_dir(dir)
        .with_sync_policy(policy)
        .with_fault_injector(FaultHandle::new(Arc::clone(inj)))
        .with_wal_retry(RetryPolicy::none())
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

const N_OBJECTS: u64 = 160;

/// Tick 0 populates the fleet; later ticks move a rotating third
/// (half of which turn 90°, forcing partition migrations). Every tick
/// `i` — including tick 0 — also inserts one fresh id `10_000 + i`
/// that **no later tick ever touches**: the per-tick marker the fault
/// tests use to tell which ticks a recovered index contains.
fn make_ticks(seed: u64, n_ticks: usize) -> Vec<Vec<MovingObject>> {
    let mut rng = Rng(seed);
    let mut objs: Vec<MovingObject> = (0..N_OBJECTS)
        .map(|id| {
            let ang = rng.f64() * std::f64::consts::TAU;
            let speed = rng.f64() * 80.0;
            MovingObject::new(
                id,
                Point::new(rng.f64() * 100_000.0, rng.f64() * 100_000.0),
                Point::new(ang.cos() * speed, ang.sin() * speed),
                0.0,
            )
        })
        .collect();
    objs.push(MovingObject::new(
        10_000,
        Point::new(rng.f64() * 100_000.0, rng.f64() * 100_000.0),
        Point::new(30.0, 0.5),
        0.0,
    ));
    let mut ticks = vec![objs.clone()];
    for tick in 1..n_ticks {
        let t = tick as f64 * 10.0;
        let mut updates = Vec::new();
        for o in objs.iter_mut() {
            // Markers (id >= 10_000) are insert-once: a later upsert
            // of an earlier marker would make "marker present" an
            // ambiguous signal for "its tick committed".
            if o.id < N_OBJECTS && o.id % 3 == (tick as u64) % 3 {
                let vel = if o.id % 2 == 0 {
                    Point::new(-o.vel.y, o.vel.x)
                } else {
                    o.vel
                };
                *o = MovingObject::new(o.id, o.position_at(t), vel, t);
                updates.push(*o);
            }
        }
        let fresh = MovingObject::new(
            10_000 + tick as u64,
            Point::new(rng.f64() * 100_000.0, rng.f64() * 100_000.0),
            Point::new(30.0, 0.5),
            t,
        );
        objs.push(fresh);
        updates.push(fresh);
        ticks.push(updates);
    }
    ticks
}

/// In-memory, non-durable oracle over the same analysis, replayed
/// through an arbitrary subset of the tick stream (`applied[i]` =
/// apply `ticks[i]`). Fault runs commit a *subsequence* of their
/// attempts, not always a prefix — a tick after a rolled-back one
/// commits fine.
fn oracle_over(
    cfg_seed: &VpConfig,
    ticks: &[Vec<MovingObject>],
    applied: &[bool],
) -> VpIndex<BxTree> {
    let cfg = VpConfig {
        wal_dir: None,
        fault: None,
        ..cfg_seed.clone()
    };
    let analysis = analysis(&cfg);
    let mut vp = VpIndex::build(cfg, &analysis, bx_factory(None)).unwrap();
    for (tick, &on) in ticks.iter().zip(applied) {
        if on {
            vp.apply_updates(tick).unwrap();
        }
    }
    vp
}

fn prefix(n_ticks: usize, applied: usize) -> Vec<bool> {
    (0..n_ticks).map(|i| i < applied).collect()
}

/// Logical equality: object table, routing, range + kNN probes; and
/// `got`'s routing agrees with its sub-indexes (each present id is
/// held by its partition, and the partitions hold `len()` objects).
fn assert_same_state<I: MovingObjectIndex>(got: &VpIndex<I>, want: &VpIndex<I>, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: object count");
    assert_eq!(
        got.partition_sizes().iter().sum::<usize>(),
        got.len(),
        "{context}: partition sizes sum to the object count"
    );
    for id in (0..N_OBJECTS).chain(10_000..10_020) {
        assert_eq!(
            got.get_object(id).unwrap(),
            want.get_object(id).unwrap(),
            "{context}: object {id} state"
        );
        assert_eq!(
            got.partition_of(id),
            want.partition_of(id),
            "{context}: object {id} routing"
        );
        if let Some(p) = got.partition_of(id) {
            assert!(
                got.partition_index(p).get_object(id).unwrap().is_some(),
                "{context}: object {id} missing from its partition {p}"
            );
        }
    }
    let domain = Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0);
    let mut probe = Rng(0xFA17);
    for qi in 0..8 {
        let center = Point::new(probe.f64() * 100_000.0, probe.f64() * 100_000.0);
        let t = (qi % 4) as f64 * 15.0;
        let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, 9_000.0)), t);
        let mut a = got.range_query(&q).unwrap();
        let mut b = want.range_query(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{context}: range query {qi}");
        let ka: Vec<u64> = knn_at(got, center, 5, t, &domain)
            .unwrap()
            .iter()
            .map(|n| n.id)
            .collect();
        let kb: Vec<u64> = knn_at(want, center, 5, t, &domain)
            .unwrap()
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(ka, kb, "{context}: kNN query {qi}");
    }
}

/// Schedules one fault on the *next* `(site, op)` operation.
fn next_op(inj: &FaultInjector, site: &str, op: FaultOp, kind: FaultKind) {
    inj.inject(FaultPoint {
        site: site.into(),
        op,
        at: inj.op_count(site, op),
        kind,
    });
}

// ---------------------------------------------------------------------
// Tick atomicity under WAL faults
// ---------------------------------------------------------------------

/// Tick atomicity at the log-commit fault point: every partition has
/// applied its batch when the tick record's flush fails, so the
/// rollback has real sub-index work to undo.
#[test]
fn meta_commit_write_failure_rolls_back_the_whole_tick() {
    let t = TempDir::new("meta-eio");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0xFEED, 5);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..3] {
        vp.apply_updates(tick).unwrap();
    }

    next_op(&inj, "wal:meta", FaultOp::Write, FaultKind::Eio);
    let err = vp.apply_updates(&ticks[3]).unwrap_err();
    assert!(
        matches!(err, IndexError::Wal(_)),
        "structured error: {err:?}"
    );
    assert_eq!(inj.fired_count(), 1, "the scripted fault fired");

    // Rolled back: the index answers exactly as it did pre-tick, and
    // is still healthy and writable.
    assert!(!vp.is_read_only(), "EIO on a write is recoverable");
    let pre = oracle_over(&cfg, &ticks, &prefix(5, 3));
    assert_same_state(&vp, &pre, "post-fault = pre-tick");

    // The same tick applies cleanly on retry (the dead attempt's
    // record never reached the log).
    vp.apply_updates(&ticks[3]).unwrap();
    vp.apply_updates(&ticks[4]).unwrap();
    let post = oracle_over(&cfg, &ticks, &prefix(5, 5));
    assert_same_state(&vp, &post, "post-retry");
    drop(vp);

    inj.set_enabled(false);
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 5, "all five committed ticks");
    assert_same_state(&recovered, &post, "recovery");
}

/// ENOSPC on the log: the fault fires after every partition applied
/// its batch — rollback must undo all of them.
#[test]
fn enospc_on_partition_stream_rolls_back_and_clears() {
    let t = TempDir::new("part-enospc");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0x5107, 4);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..3] {
        vp.apply_updates(tick).unwrap();
    }

    next_op(&inj, "wal:meta", FaultOp::Write, FaultKind::NoSpace);
    let err = vp.apply_updates(&ticks[3]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("ENOSPC"), "classified as out-of-space: {msg}");
    assert!(!vp.is_read_only());
    assert_same_state(
        &vp,
        &oracle_over(&cfg, &ticks, &prefix(4, 3)),
        "post-ENOSPC",
    );

    // "Space freed": the tick goes through.
    vp.apply_updates(&ticks[3]).unwrap();
    assert_same_state(
        &vp,
        &oracle_over(&cfg, &ticks, &prefix(4, 4)),
        "after retry",
    );
}

/// A torn write of the tick record: a record prefix lands on disk, the
/// tick errors, the log amputates the torn bytes — and both the live
/// index and recovery stay at the pre-tick state.
#[test]
fn torn_partition_write_rolls_back_live_and_recovered_state() {
    let t = TempDir::new("part-torn");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0x709A, 4);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks[..3] {
            vp.apply_updates(tick).unwrap();
        }
        next_op(
            &inj,
            "wal:meta",
            FaultOp::Write,
            FaultKind::Torn { keep: 13 },
        );
        vp.apply_updates(&ticks[3]).unwrap_err();
        assert!(!vp.is_read_only());
        assert_same_state(
            &vp,
            &oracle_over(&cfg, &ticks, &prefix(4, 3)),
            "live post-torn",
        );
        // Crash here (drop without checkpoint).
    }
    inj.set_enabled(false);
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 3);
    assert_same_state(
        &recovered,
        &oracle_over(&cfg, &ticks, &prefix(4, 3)),
        "recovered post-torn",
    );
}

// ---------------------------------------------------------------------
// Fsync failure: poisoning and read-only degradation
// ---------------------------------------------------------------------

/// The tick record's fsync fails after its flush. The live index rolls
/// back and demotes to read-only; the record *did* reach the OS before
/// the failed fsync, so recovery — which reads what the OS kept —
/// legitimately returns the tick. What it must never return is a torn
/// state.
#[test]
fn fsync_failure_between_data_flush_and_commit_demotes_to_read_only() {
    let t = TempDir::new("fsyncgate");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0xF5C, 4);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks[..3] {
            vp.apply_updates(tick).unwrap();
        }
        next_op(&inj, "wal:meta", FaultOp::Sync, FaultKind::SyncFail);
        let err = vp.apply_updates(&ticks[3]).unwrap_err();
        assert!(err.to_string().contains("fsync"), "poisoned error: {err}");

        // Demoted: mutations refuse, queries answer the pre-tick state.
        assert!(vp.is_read_only());
        assert!(matches!(vp.health(), Health::ReadOnly { reason } if reason.contains("fsync")));
        assert!(matches!(
            vp.apply_updates(&ticks[3]),
            Err(IndexError::ReadOnly(_))
        ));
        assert!(matches!(
            vp.insert(MovingObject::new(
                77_777,
                Point::new(1.0, 1.0),
                Point::ZERO,
                0.0
            )),
            Err(IndexError::ReadOnly(_))
        ));
        assert!(matches!(vp.checkpoint(), Err(IndexError::ReadOnly(_))));
        assert_same_state(
            &vp,
            &oracle_over(&cfg, &ticks, &prefix(4, 3)),
            "read-only view",
        );
    }
    // Recovery is the way back. The Schrödinger tick resurfaces here
    // (its record was flushed before the fsync failed and this process
    // never actually crashed), and the recovered index is writable
    // again.
    inj.set_enabled(false);
    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 4);
    assert!(!recovered.is_read_only());
    assert_same_state(
        &recovered,
        &oracle_over(&cfg, &ticks, &prefix(4, 4)),
        "recovered",
    );
    recovered
        .insert(MovingObject::new(
            88_888,
            Point::new(2.0, 2.0),
            Point::ZERO,
            40.0,
        ))
        .unwrap();
}

// ---------------------------------------------------------------------
// Storage faults mid-apply
// ---------------------------------------------------------------------

/// A disk read error in the last partition, after the earlier
/// partitions applied their batches: the tick is half applied and not
/// yet logged. The rollback must reconcile the mixed state, leave the
/// index healthy, and let the same tick through on retry.
#[test]
fn half_applied_tick_rolls_back_on_a_partition_read_error() {
    let t = TempDir::new("half-applied");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0x4A1F, 5);
    let mut vp =
        VpIndex::open(cfg.clone(), &analysis(&cfg), small_pool_factory(&t.0, &inj)).unwrap();
    for tick in &ticks[..3] {
        vp.apply_updates(tick).unwrap();
    }

    // One worker applies partitions in ascending order, so a fault in
    // the last one strikes after the others touched by the tick applied.
    let last = vp.specs().len() - 1;
    assert!(
        ticks[3].iter().any(|o| vp.choose_partition(o.vel) < last),
        "the tick must reach an earlier partition"
    );
    let site = format!("disk:part-{last}");
    next_op(&inj, &site, FaultOp::Read, FaultKind::Eio);
    let err = vp.apply_updates(&ticks[3]).unwrap_err();
    assert!(
        matches!(err, IndexError::Storage(_)),
        "structured error: {err:?}"
    );
    let fired: Vec<String> = inj.fired().into_iter().map(|f| f.site).collect();
    assert_eq!(fired, [site], "the scripted fault fired");
    assert_eq!(vp.health(), &Health::Healthy);
    assert_same_state(
        &vp,
        &oracle_over(&cfg, &ticks, &prefix(5, 3)),
        "post-fault = pre-tick",
    );

    vp.apply_updates(&ticks[3]).unwrap();
    vp.apply_updates(&ticks[4]).unwrap();
    assert_same_state(&vp, &oracle_over(&cfg, &ticks, &prefix(5, 5)), "post-retry");
}

// ---------------------------------------------------------------------
// Single-op (insert/delete) log failures
// ---------------------------------------------------------------------

#[test]
fn insert_and_delete_log_failures_roll_back_in_memory_state() {
    let t = TempDir::new("single-ops");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    let a = MovingObject::new(1, Point::new(10.0, 10.0), Point::new(20.0, 0.0), 0.0);
    let b = MovingObject::new(2, Point::new(20.0, 20.0), Point::new(0.0, 20.0), 0.0);
    vp.insert(a).unwrap();

    // Failed insert: the object must not be visible afterwards.
    next_op(&inj, "wal:meta", FaultOp::Write, FaultKind::Eio);
    assert!(matches!(vp.insert(b), Err(IndexError::Wal(_))));
    assert_eq!(vp.len(), 1);
    assert_eq!(vp.get_object(2).unwrap(), None);
    assert!(!vp.is_read_only());
    vp.insert(b).unwrap();

    // Failed delete: the object must survive, still queryable and
    // still held by its partition.
    let home = vp.partition_of(1).unwrap();
    next_op(&inj, "wal:meta", FaultOp::Write, FaultKind::NoSpace);
    assert!(matches!(vp.delete(1), Err(IndexError::Wal(_))));
    assert_eq!(vp.len(), 2);
    assert_eq!(vp.get_object(1).unwrap(), Some(a));
    assert_eq!(vp.partition_of(1), Some(home));
    assert!(vp.partition_index(home).get_object(1).unwrap().is_some());
    vp.delete(1).unwrap();
    assert_eq!(vp.len(), 1);
    drop(vp);

    // The log tells the same story.
    inj.set_enabled(false);
    let (recovered, _) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered.get_object(2).unwrap(), Some(b));
    assert_eq!(recovered.get_object(1).unwrap(), None);
}

// ---------------------------------------------------------------------
// Retry-with-backoff at the WAL flush site
// ---------------------------------------------------------------------

#[test]
fn transient_wal_errors_are_healed_by_bounded_retry() {
    let t = TempDir::new("retry");
    let inj = FaultInjector::new();
    // Standard policy: 3 attempts — a single transient fault heals.
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj).with_wal_retry(RetryPolicy::standard());
    let ticks = make_ticks(0x4E7, 4);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..3] {
        vp.apply_updates(tick).unwrap();
    }
    next_op(&inj, "wal:meta", FaultOp::Write, FaultKind::NoSpace);
    vp.apply_updates(&ticks[3]).unwrap();
    assert_eq!(inj.fired_count(), 1, "the fault fired and was retried over");
    assert!(!vp.is_read_only());
    assert_same_state(&vp, &oracle_over(&cfg, &ticks, &prefix(4, 4)), "healed");
}

// ---------------------------------------------------------------------
// Checkpoint publish hardening (satellite 3)
// ---------------------------------------------------------------------

fn list_ckpts(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".vpck"))
        .collect();
    v.sort();
    v
}

fn no_tmp_litter(dir: &Path) -> bool {
    !fs::read_dir(dir)
        .unwrap()
        .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
}

/// Every fault point of the atomic publish — torn temp write, ENOSPC,
/// failed temp fsync (before the rename), and the rename itself —
/// must leave the previous checkpoint, the manifest, and the log
/// untouched, with no `.tmp` litter; the index stays healthy and a
/// clean checkpoint succeeds afterwards.
#[test]
fn failed_checkpoint_publish_keeps_previous_checkpoint_and_log() {
    let t = TempDir::new("ckpt-publish");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0xCC9, 5);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..2] {
        vp.apply_updates(tick).unwrap();
    }
    vp.checkpoint().unwrap();
    let published = list_ckpts(&t.0);
    assert_eq!(published.len(), 1, "baseline checkpoint");
    for tick in &ticks[2..4] {
        vp.apply_updates(tick).unwrap();
    }

    // Before the rename: torn temp write, ENOSPC, failed temp fsync.
    for kind in [
        FaultKind::Torn { keep: 9 },
        FaultKind::NoSpace,
        FaultKind::SyncFail,
    ] {
        let (site_op, k) = match kind {
            FaultKind::SyncFail => (FaultOp::Sync, kind),
            k => (FaultOp::Write, k),
        };
        next_op(&inj, "ckpt", site_op, k);
        let err = vp.checkpoint().unwrap_err();
        assert!(
            matches!(err, IndexError::Storage(_) | IndexError::Wal(_)),
            "structured error for {kind:?}: {err:?}"
        );
        assert_eq!(
            list_ckpts(&t.0),
            published,
            "old checkpoint intact ({kind:?})"
        );
        assert!(no_tmp_litter(&t.0), "tmp cleaned up ({kind:?})");
        assert!(
            !vp.is_read_only(),
            "checkpoint failure is not fatal ({kind:?})"
        );
    }

    // At the rename.
    next_op(&inj, "ckpt", FaultOp::Rename, FaultKind::Eio);
    vp.checkpoint().unwrap_err();
    assert_eq!(
        list_ckpts(&t.0),
        published,
        "old checkpoint intact (rename)"
    );
    assert!(no_tmp_litter(&t.0), "tmp cleaned up (rename)");

    // The log was never truncated by the failed publishes: a crash now
    // still recovers everything.
    drop(vp);
    inj.set_enabled(false);
    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(
        report.events_replayed, 2,
        "two ticks past the good checkpoint"
    );
    assert_same_state(
        &recovered,
        &oracle_over(&cfg, &ticks, &prefix(5, 4)),
        "recovered past failed publishes",
    );
    // And a clean checkpoint still goes through.
    recovered.apply_updates(&ticks[4]).unwrap();
    recovered.checkpoint().unwrap();
}

/// Regression: the atomic publish used to swallow the post-rename
/// *directory* fsync (`let _ = d.sync_all()`) — reporting a checkpoint
/// durable that a crash could still undo (until the directory entry is
/// synced, the rename itself is not stable). The failure must surface
/// as a structured error through the publish path (site `ckpt:dir`),
/// stay non-fatal, and a clean retry must go through.
#[test]
fn checkpoint_directory_sync_failure_surfaces_and_is_retryable() {
    let t = TempDir::new("ckpt-dirsync");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0xD14, 3);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..2] {
        vp.apply_updates(tick).unwrap();
    }

    for kind in [FaultKind::Eio, FaultKind::SyncFail] {
        next_op(&inj, "ckpt:dir", FaultOp::Sync, kind);
        let err = vp.checkpoint().unwrap_err();
        assert!(
            matches!(err, IndexError::Storage(_) | IndexError::Wal(_)),
            "structured error for {kind:?}: {err:?}"
        );
        // The log was not truncated behind the unacknowledged publish:
        // everything is still replayable.
        assert!(
            !vp.is_read_only(),
            "a failed checkpoint publish is retryable ({kind:?})"
        );
    }
    assert_eq!(inj.fired_count(), 2, "both scripted dir-sync faults fired");

    // Retry with the schedule drained: publish succeeds end-to-end.
    vp.checkpoint().unwrap();
    vp.apply_updates(&ticks[2]).unwrap();
    drop(vp);
    inj.set_enabled(false);
    let (recovered, _) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_same_state(
        &recovered,
        &oracle_over(&cfg, &ticks, &prefix(3, 3)),
        "recovered across failed dir syncs",
    );
}

/// Regression: single-op records (inserts/deletes) are far too small
/// to roll the meta stream's active segment, and `truncate_below` only
/// deletes whole sealed segments — so the meta stream never shrank at
/// a checkpoint, retaining every dead record forever. The checkpoint
/// path now seals the active segment first; the on-disk meta stream
/// must get smaller and recovery must still tell the same story.
#[test]
fn checkpoint_compacts_single_op_meta_records() {
    let meta_bytes = |dir: &Path| -> u64 {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with("meta-") && n.ends_with(".seg")
            })
            .map(|e| e.metadata().unwrap().len())
            .sum()
    };

    let t = TempDir::new("meta-compaction");
    let cfg = VpConfig::default()
        .with_wal_dir(&t.0)
        .with_sync_policy(SyncPolicy::Always);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    let mut rng = Rng(0x5E9);
    let objs: Vec<MovingObject> = (0..120u64)
        .map(|id| {
            let ang = rng.f64() * std::f64::consts::TAU;
            let speed = rng.f64() * 80.0;
            MovingObject::new(
                id,
                Point::new(rng.f64() * 100_000.0, rng.f64() * 100_000.0),
                Point::new(ang.cos() * speed, ang.sin() * speed),
                0.0,
            )
        })
        .collect();
    // Single-op traffic only: every record is a few dozen bytes, so
    // the stream never rolls a segment on its own.
    for o in &objs {
        vp.insert(*o).unwrap();
    }
    for id in 0..40u64 {
        vp.delete(id).unwrap();
    }
    let before = meta_bytes(&t.0);
    vp.checkpoint().unwrap();
    let after = meta_bytes(&t.0);
    assert!(
        after < before / 2,
        "meta stream must shrink at checkpoint: {after} !< {before}/2"
    );

    // The compacted log + checkpoint still recover the exact state.
    drop(vp);
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 0, "everything is in the checkpoint");
    assert_eq!(recovered.len(), 80);
    for id in 0..40u64 {
        assert_eq!(recovered.get_object(id).unwrap(), None);
    }
    for o in &objs[40..] {
        assert_eq!(recovered.get_object(o.id).unwrap(), Some(*o));
    }
}

// ---------------------------------------------------------------------
// Randomized fault schedules (the acceptance proptest)
// ---------------------------------------------------------------------

/// One randomized scenario: a tick stream under seeded random faults
/// on every durability site. Invariants checked at every step:
/// every attempt is `Ok` or a structured `Err` (a panic fails the
/// test); after a rolled-back tick the index matches the model of the
/// committed subsequence; after a demotion all mutations refuse and
/// queries still answer; recovery matches the model of exactly the
/// ticks whose markers it contains, and never serves a torn state.
fn run_random_fault_scenario(seed: u64, per_mille: u16, n_ticks: usize) {
    let t = TempDir::new(&format!("prop-{seed}-{per_mille}-{n_ticks}"));
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(seed | 1, n_ticks);

    // Build with faults disabled (the construction path is exercised
    // by the deterministic tests; here the tick loop is the target).
    inj.set_enabled(false);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    inj.set_enabled(true);
    inj.set_random(seed, per_mille);

    let mut applied = vec![false; n_ticks];
    for (i, tick) in ticks.iter().enumerate() {
        if vp.is_read_only() {
            break;
        }
        match vp.apply_updates(tick) {
            Ok(()) => applied[i] = true,
            Err(IndexError::ReadOnly(_)) => unreachable!("checked above"),
            Err(_) if vp.is_read_only() => {
                // Unrecoverable (fsync) — stop mutating; the read-only
                // view must still answer as the committed subsequence.
                break;
            }
            Err(_) => {
                // Rolled back; light spot-check against the model to
                // keep the proptest fast — the full comparison runs
                // once at the end.
                assert_eq!(
                    vp.get_object(10_000 + i as u64).unwrap(),
                    None,
                    "rolled-back tick {i} leaked its fresh object"
                );
            }
        }
    }
    let model = oracle_over(&cfg, &ticks, &applied);
    assert_same_state(&vp, &model, "live index vs committed subsequence");
    if vp.is_read_only() {
        assert!(matches!(
            vp.insert(MovingObject::new(
                99_999,
                Point::new(1.0, 1.0),
                Point::ZERO,
                0.0
            )),
            Err(IndexError::ReadOnly(_))
        ));
    }
    drop(vp);

    // Recovery with the injector off. A tick that errored *after* its
    // commit record reached the OS (the fsync-poisoned tail) may
    // legitimately resurface: take the recovered marker set as truth,
    // require it to differ from the live set only by additions, and
    // require full logical equality against that set's model.
    inj.set_enabled(false);
    let (recovered, _report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    let mut recovered_set = vec![false; n_ticks];
    for (i, slot) in recovered_set.iter_mut().enumerate() {
        *slot = recovered.get_object(10_000 + i as u64).unwrap().is_some();
    }
    for (i, (&live, &rec)) in applied.iter().zip(&recovered_set).enumerate() {
        assert!(
            !live || rec,
            "tick {i} committed in the live run but missing after recovery"
        );
    }
    let rec_model = oracle_over(&cfg, &ticks, &recovered_set);
    assert_same_state(&recovered, &rec_model, "recovered index vs its marker set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fault_schedules_preserve_atomicity_and_recover(
        seed in 1u64..1_000_000,
        per_mille in 5u16..90,
        n_ticks in 3usize..6,
    ) {
        run_random_fault_scenario(seed, per_mille, n_ticks);
    }
}

/// The CI fault-matrix smoke: one fixed schedule, one fixed seed,
/// fully deterministic — fails loudly if the ladder regresses.
#[test]
fn deterministic_fault_smoke() {
    run_random_fault_scenario(0xD15EA5E, 40, 5);
}

// ---------------------------------------------------------------------
// Standing queries × the degradation ladder
// ---------------------------------------------------------------------

/// Demotion to read-only must not silence standing queries. The
/// poison gates mutations, never reads — so a subscription set over
/// the demoted index keeps emitting drift events: objects still move
/// on their last committed trajectories, and boundary crossings
/// produce `Enter`/`Leave` with zero further mutations (an
/// empty-upsert [`TickDelta`] per wall-clock tick). The identical
/// stream must also flow from the last published snapshot, which is
/// what vp-server actually evaluates against after a demotion.
#[test]
fn subscriptions_keep_emitting_after_read_only_demotion() {
    let t = TempDir::new("sub-readonly");
    let inj = FaultInjector::new();
    let cfg = faulty_config(&t.0, SyncPolicy::Always, &inj);
    let ticks = make_ticks(0x5AB5, 4);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks[..3] {
        vp.apply_updates(tick).unwrap();
    }

    let domain = vp.domain();
    let center = Point::new(50_000.0, 50_000.0);
    let region = QueryRegion::Circle(Circle::new(center, 18_000.0));
    let range_spec = RangeSubSpec {
        region,
        predictive_dt: 0.0,
    };
    let knn_spec = KnnSubSpec {
        center,
        k: 6,
        predictive_dt: 0.0,
    };
    let now = 20.0; // newest reference time after three ticks

    let full_range = |vp: &VpIndex<BxTree>, t_eval: f64| -> BTreeSet<u64> {
        vp.range_query(&RangeQuery::time_slice(region, t_eval))
            .unwrap()
            .into_iter()
            .collect()
    };
    let full_knn = |vp: &VpIndex<BxTree>, t_eval: f64| -> BTreeSet<u64> {
        knn_at(vp, center, 6, t_eval, &domain)
            .unwrap()
            .iter()
            .map(|n| n.id)
            .collect()
    };

    let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain).with_horizon(500.0));
    let (range_sub, range_backfill) = subs.register_range(&vp, now, range_spec).unwrap();
    let (knn_sub, _) = subs.register_knn(&vp, now, knn_spec).unwrap();
    assert_eq!(
        range_backfill.iter().map(|e| e.id).collect::<BTreeSet<_>>(),
        full_range(&vp, now),
        "registration backfill = full evaluation"
    );

    // Demote: fsyncgate on the WAL meta stream.
    next_op(&inj, "wal:meta", FaultOp::Sync, FaultKind::SyncFail);
    vp.apply_updates(&ticks[3]).unwrap_err();
    assert!(vp.is_read_only());

    // Twin subscription set over the last published snapshot — the
    // server-side evaluation surface. Same specs, same registration
    // time, so it allocates the same subscription ids.
    let snap = vp.snapshot().unwrap();
    let mut snap_subs = SubscriptionSet::new(SubscriptionConfig::new(domain).with_horizon(500.0));
    snap_subs.register_range(&snap, now, range_spec).unwrap();
    snap_subs.register_knn(&snap, now, knn_spec).unwrap();

    let mut prev_range = full_range(&vp, now);
    let mut prev_knn = full_knn(&vp, now);
    let mut total_events = 0usize;
    for step in 1..=3u32 {
        let t_eval = now + f64::from(step) * 20.0;
        let drift = TickDelta {
            time: t_eval,
            upserts: Vec::new(),
            removals: Vec::new(),
        };
        let events = subs.on_tick(&vp, &drift).unwrap();
        let snap_events = snap_subs.on_tick(&snap, &drift).unwrap();
        assert_eq!(
            events, snap_events,
            "snapshot evaluation diverges at t={t_eval}"
        );

        // Full re-evaluation oracle: queries still answer on the
        // read-only index, objects drift on committed trajectories.
        let new_range = full_range(&vp, t_eval);
        let new_knn = full_knn(&vp, t_eval);
        let mut expected = Vec::new();
        for (sub, old, new) in [
            (range_sub, &prev_range, &new_range),
            (knn_sub, &prev_knn, &new_knn),
        ] {
            for &id in new.difference(old) {
                expected.push(SubEvent {
                    sub,
                    kind: SubEventKind::Enter,
                    id,
                });
            }
            for &id in old.difference(new) {
                expected.push(SubEvent {
                    sub,
                    kind: SubEventKind::Leave,
                    id,
                });
            }
        }
        assert_eq!(events, expected, "drift events at t={t_eval}");
        assert!(
            events.iter().all(|e| e.kind != SubEventKind::Moved),
            "nothing re-reported, so nothing may claim Moved"
        );
        total_events += events.len();
        prev_range = new_range;
        prev_knn = new_knn;
    }
    assert!(
        total_events > 0,
        "drift over 60 time units must cross the guard boundaries"
    );
}
