//! Crash-recovery properties of the durable VP index.
//!
//! The contract under test: **for any injected crash point, reopening
//! from WAL + last checkpoint reproduces the exact pre-crash query
//! results** (range and kNN) of the longest consistent log prefix —
//! and WAL-on parallel ticks stay bit-identical to sequential, down
//! to the log stream bytes.
//!
//! Crash injection is filesystem-level: the durable index is dropped
//! (no checkpoint, no graceful anything) and its on-disk artifacts
//! are then mutilated — segment tails truncated mid-record, bogus
//! half-written checkpoint files planted — before `VpIndex::recover`
//! runs. An uncrashed oracle replayed to the recovered tick count is
//! the ground truth.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use velocity_partitioning::prelude::*;
use velocity_partitioning::vp_core::knn_at;
use velocity_partitioning::vp_core::SyncPolicy;
use velocity_partitioning::vp_core::{
    KnnSubSpec, RangeSubSpec, SubEventKind, SubscriptionConfig, SubscriptionSet,
};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vp-recovery-{}-{name}", std::process::id()));
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

/// Two roads (0 and 90 degrees) plus diagonal outliers — the standard
/// analyzer sample of the manager tests.
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
            // Durable partitions keep their pages in real files.
            Some(d) => {
                DiskManager::create_file(d.join(format!("part-{}.pages", spec.id)), 1024).unwrap()
            }
            None => DiskManager::with_page_size(1024),
        };
        let pool = Arc::new(BufferPool::with_capacity(disk, 256));
        let config = BxConfig {
            domain: spec.domain,
            update_interval: 120.0,
            ..BxConfig::default()
        };
        BxTree::new(pool, config).unwrap()
    }
}

fn analysis(cfg: &VpConfig) -> velocity_partitioning::vp_core::AnalyzerOutput {
    VelocityAnalyzer::new(cfg.clone()).analyze(&sample())
}

fn durable_config(dir: &Path, policy: SyncPolicy) -> VpConfig {
    VpConfig::default()
        .with_wal_dir(dir)
        .with_sync_policy(policy)
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

const N_OBJECTS: u64 = 220;

/// Deterministic tick stream: tick 1 populates, later ticks move a
/// rotating third of the fleet (half of which also turn 90°, forcing
/// partition migrations) and add one fresh id per tick.
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
    let mut ticks = vec![objs.clone()];
    for tick in 1..n_ticks {
        let t = tick as f64 * 10.0;
        let mut updates = Vec::new();
        for o in objs.iter_mut() {
            if o.id % 3 == (tick as u64) % 3 {
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

/// The oracle: an in-memory, non-durable index over the same analysis,
/// replayed through the first `n_ticks` ticks.
fn oracle_at(cfg_seed: &VpConfig, ticks: &[Vec<MovingObject>], n_ticks: usize) -> VpIndex<BxTree> {
    oracle_at_with(cfg_seed, ticks, n_ticks, bx_factory(None))
}

/// [`oracle_at`] generalized over the sub-index factory (the TPR
/// recovery tests build TPR-backed oracles through it).
fn oracle_at_with<I: MovingObjectIndex>(
    cfg_seed: &VpConfig,
    ticks: &[Vec<MovingObject>],
    n_ticks: usize,
    factory: impl FnMut(&PartitionSpec) -> I,
) -> VpIndex<I> {
    let cfg = VpConfig {
        wal_dir: None,
        ..cfg_seed.clone()
    };
    let analysis = analysis(&cfg);
    let mut vp = VpIndex::build(cfg, &analysis, factory).unwrap();
    for tick in &ticks[..n_ticks] {
        vp.apply_updates(tick).unwrap();
    }
    vp
}

/// Full logical-equality check: object table, routing, range queries
/// at several times/places, and kNN. Queries probe from `t = 0`
/// upward; callers whose twin indexes differ structurally (the TPR
/// tests) use [`assert_matches_oracle_from`] to keep every probe at
/// or after the newest reference time — earlier probes are
/// *historical* queries, outside the moving-object data model, which
/// two differently-shaped exact indexes may legitimately answer
/// differently.
fn assert_matches_oracle<I: MovingObjectIndex>(
    got: &VpIndex<I>,
    oracle: &VpIndex<I>,
    context: &str,
) {
    assert_matches_oracle_from(got, oracle, 0.0, context)
}

fn assert_matches_oracle_from<I: MovingObjectIndex>(
    got: &VpIndex<I>,
    oracle: &VpIndex<I>,
    t0: f64,
    context: &str,
) {
    assert_eq!(got.len(), oracle.len(), "{context}: object count");
    for id in (0..N_OBJECTS).chain(10_000..10_050) {
        assert_eq!(
            got.get_object(id).unwrap(),
            oracle.get_object(id).unwrap(),
            "{context}: object {id} state"
        );
        assert_eq!(
            got.partition_of(id),
            oracle.partition_of(id),
            "{context}: object {id} routing"
        );
    }
    for (spec_got, spec_oracle) in got.specs().iter().zip(oracle.specs()) {
        assert_eq!(spec_got.tau, spec_oracle.tau, "{context}: tau");
    }
    let domain = Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0);
    let mut probe = Rng(0xCAFE);
    for qi in 0..12 {
        let center = Point::new(probe.f64() * 100_000.0, probe.f64() * 100_000.0);
        let t = t0 + (qi % 6) as f64 * 15.0;
        let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, 9_000.0)), t);
        let mut a = got.range_query(&q).unwrap();
        let mut b = oracle.range_query(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{context}: range query {qi}");

        let ka = knn_at(got, center, 5, t, &domain).unwrap();
        let kb = knn_at(oracle, center, 5, t, &domain).unwrap();
        let ida: Vec<u64> = ka.iter().map(|n| n.id).collect();
        let idb: Vec<u64> = kb.iter().map(|n| n.id).collect();
        assert_eq!(ida, idb, "{context}: kNN query {qi}");
    }
}

fn list_segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map(|e| e == "seg").unwrap_or(false))
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Deterministic scenarios
// ---------------------------------------------------------------------

#[test]
fn crash_without_checkpoint_recovers_everything() {
    let t = TempDir::new("no-ckpt");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xA11CE, 6);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks {
            vp.apply_updates(tick).unwrap();
        }
        // Crash: drop with no checkpoint, no shutdown.
    }
    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.checkpoint_seq, 0, "no checkpoint existed");
    assert_eq!(report.events_replayed, ticks.len());
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "full replay");

    // The recovered index keeps working and logging.
    let more = make_ticks(0xBEEF, 2).pop().unwrap();
    recovered.apply_updates(&more).unwrap();
    assert!(recovered.len() >= oracle.len());
}

#[test]
fn cross_tick_group_commit_recovers_everything_after_clean_drop() {
    // EveryTicks(n) commits flush every tick and fsync only at tick
    // boundaries; a process crash (drop without shutdown) loses
    // nothing because every commit reached the OS. The manifest must
    // also round-trip the parameterized policy.
    let t = TempDir::new("group-commit");
    let cfg = durable_config(&t.0, SyncPolicy::EveryTicks(3));
    let ticks = make_ticks(0x6C0117, 8); // deliberately not a multiple of 3
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks {
            vp.apply_updates(tick).unwrap();
        }
    }
    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, ticks.len());
    assert_eq!(
        recovered.config().sync_policy,
        SyncPolicy::EveryTicks(3),
        "manifest round-trips the parameterized policy"
    );
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "group-commit full replay");
    // Keeps working (and crossing further sync boundaries) after
    // recovery.
    for tick in make_ticks(0xF00D5, 5) {
        recovered.apply_updates(&tick).unwrap();
    }
}

#[test]
fn crash_after_checkpoint_replays_only_the_tail() {
    let t = TempDir::new("ckpt-tail");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xD00D, 8);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks[..5] {
            vp.apply_updates(tick).unwrap();
        }
        let seq = vp.checkpoint().unwrap();
        assert_eq!(seq, 5);
        for tick in &ticks[5..] {
            vp.apply_updates(tick).unwrap();
        }
    }
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.checkpoint_seq, 5);
    assert_eq!(report.events_replayed, 3, "only the post-checkpoint tail");
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "checkpoint + tail");
}

#[test]
fn mid_checkpoint_crash_falls_back_to_previous_checkpoint() {
    let t = TempDir::new("mid-ckpt");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xF00D, 7);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks[..3] {
            vp.apply_updates(tick).unwrap();
        }
        vp.checkpoint().unwrap();
        for tick in &ticks[3..] {
            vp.apply_updates(tick).unwrap();
        }
    }
    // Crash *during* a later checkpoint: the atomic publish (tmp +
    // fsync + rename) means all that survives is an unfinished temp
    // file, which recovery must ignore in favour of the previous
    // checkpoint + log tail.
    fs::write(t.0.join("ckpt.tmp"), b"half a checkpoint").unwrap();

    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(
        report.checkpoint_seq, 3,
        "torn temp checkpoint ignored, published one used"
    );
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "mid-checkpoint crash");
}

#[test]
fn bitrotted_published_checkpoint_is_a_hard_error() {
    let t = TempDir::new("ckpt-bitrot");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xB17, 4);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks {
            vp.apply_updates(tick).unwrap();
        }
        vp.checkpoint().unwrap();
    }
    // The checkpoint truncated the log below seq 4, so a damaged
    // published snapshot cannot be silently "recovered around" — an
    // older state can no longer be completed. Flip one byte:
    let path = t.0.join("ckpt-0000000000000004.vpck");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    fs::write(&path, &bytes).unwrap();

    let got = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0)));
    assert!(
        matches!(got, Err(IndexError::Wal(_))),
        "bitrot must surface, not produce a silently incomplete index"
    );
}

#[test]
fn recovery_amputates_the_dead_suffix_so_later_events_survive() {
    let t = TempDir::new("dead-suffix");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xDEAD5, 5);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks[..3] {
            vp.apply_updates(tick).unwrap();
        }
    }
    // Crash mid-write: the last tick record is torn. Recovery must stop
    // before it — and must also *remove* it, or the ticks logged after
    // this recovery would sit behind garbage that the next recovery
    // stops at.
    let files = list_segment_files(&t.0);
    assert_eq!(files.len(), 1, "one log stream: {files:?}");
    let len = fs::metadata(&files[0]).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&files[0])
        .unwrap()
        .set_len(len - 20)
        .unwrap();
    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.last_seq, 2, "stops before the torn tick");
    assert_matches_oracle(&recovered, &oracle_at(&cfg, &ticks, 2), "torn tick");

    // Life goes on: two more ticks, committed and acknowledged.
    recovered.apply_updates(&ticks[2]).unwrap();
    recovered.apply_updates(&ticks[3]).unwrap();
    drop(recovered);

    // A second recovery must see them.
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.last_seq, 4, "post-recovery events survived");
    assert_matches_oracle(
        &recovered,
        &oracle_at(&cfg, &ticks, 4),
        "events after an amputated suffix",
    );
}

/// A directory written by another on-disk format is refused, not
/// misread. Format 4's log holds single insert and delete records that
/// format 5 has no replay for, and its tick records no removal list.
#[test]
fn manifest_of_another_format_version_is_refused() {
    let t = TempDir::new("format-version");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    drop(VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap());
    // The version word (bytes 8..12) sits outside the CRC.
    let path = t.0.join("MANIFEST");
    let mut bytes = fs::read(&path).unwrap();
    assert_eq!(bytes[8..12], 5u32.to_le_bytes(), "current format");
    bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    match VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))) {
        Err(IndexError::Wal(msg)) => assert!(msg.contains("unsupported version 4"), "{msg}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a format-4 directory was recovered"),
    }
}

#[test]
fn single_op_and_tau_events_replay_in_order() {
    let t = TempDir::new("single-ops");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0x7A0, 4);
    let extra = MovingObject::new(
        77_777,
        Point::new(42_000.0, 42_000.0),
        Point::new(25.0, 0.3),
        5.0,
    );
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        vp.apply_updates(&ticks[0]).unwrap();
        vp.insert(extra).unwrap();
        vp.apply_updates(&ticks[1]).unwrap();
        vp.refresh_tau().unwrap();
        vp.apply_updates(&ticks[2]).unwrap();
        vp.delete(extra.id).unwrap();
        vp.apply_updates(&ticks[3]).unwrap();
    }
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 7);

    // Oracle: the same event sequence, in memory.
    let ocfg = VpConfig {
        wal_dir: None,
        ..cfg.clone()
    };
    let mut oracle = VpIndex::build(ocfg.clone(), &analysis(&ocfg), bx_factory(None)).unwrap();
    oracle.apply_updates(&ticks[0]).unwrap();
    oracle.insert(extra).unwrap();
    oracle.apply_updates(&ticks[1]).unwrap();
    oracle.refresh_tau().unwrap();
    oracle.apply_updates(&ticks[2]).unwrap();
    oracle.delete(extra.id).unwrap();
    oracle.apply_updates(&ticks[3]).unwrap();

    assert_matches_oracle(&recovered, &oracle, "mixed event replay");
    assert_eq!(recovered.get_object(extra.id).unwrap(), None);
}

#[test]
fn single_object_update_is_one_atomic_logged_event() {
    let t = TempDir::new("atomic-update");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let obj = MovingObject::new(
        9,
        Point::new(30_000.0, 30_000.0),
        Point::new(40.0, 0.2),
        0.0,
    );
    let moved = MovingObject::new(
        9,
        Point::new(31_000.0, 30_000.0),
        Point::new(0.2, 40.0),
        5.0,
    );
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        vp.insert(obj).unwrap();
        // The trait-default delete+insert would log two independently
        // committed records; the VP override must log exactly one, so
        // no crash point can separate the delete from the insert.
        vp.update(moved).unwrap();
        assert!(matches!(
            vp.update(MovingObject::new(555, obj.pos, obj.vel, 0.0)),
            Err(IndexError::UnknownObject(555))
        ));
    }
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.events_replayed, 2, "insert + one atomic update");
    assert_eq!(recovered.get_object(9).unwrap(), Some(moved));
    assert_eq!(recovered.len(), 1);
}

/// One event of [`mixed_events_recover_at_every_record_boundary`].
enum Event {
    Tick(usize),
    Insert(MovingObject),
    Delete(u64),
}

/// Every mutation is one record, so a crash at any record boundary of a
/// mixed stream of ticks, single inserts and single deletes, or inside
/// any record, recovers equal to the uncrashed twin taken through
/// exactly the events that survived.
#[test]
fn mixed_events_recover_at_every_record_boundary() {
    let t = TempDir::new("mixed-events");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0xB0DA, 4);
    let fresh = |id: u64, x: f64| {
        MovingObject::new(id, Point::new(x, 42_000.0), Point::new(25.0, 0.3), 5.0)
    };
    let events = [
        Event::Tick(0),
        Event::Insert(fresh(77_777, 42_000.0)),
        Event::Delete(5),
        Event::Tick(1),
        Event::Insert(fresh(77_778, 61_000.0)),
        Event::Delete(77_777),
        Event::Tick(2),
        Event::Delete(7),
        Event::Tick(3),
    ];
    let apply = |vp: &mut VpIndex<BxTree>, e: &Event| match e {
        Event::Tick(i) => vp.apply_updates(&ticks[*i]).unwrap(),
        Event::Insert(o) => vp.insert(*o).unwrap(),
        Event::Delete(id) => vp.delete(*id).unwrap(),
    };
    // The log's length after each committed event: its record ends.
    let mut ends = Vec::new();
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for e in &events {
            apply(&mut vp, e);
            let files = list_segment_files(&t.0);
            assert_eq!(files.len(), 1, "one log segment: {files:?}");
            ends.push(fs::metadata(&files[0]).unwrap().len());
        }
    }
    let segment = list_segment_files(&t.0).remove(0);
    let ocfg = VpConfig {
        wal_dir: None,
        ..cfg.clone()
    };
    for (i, &end) in ends.iter().enumerate() {
        // Cut at the end of record i, and one byte into its tail.
        for (cut, survived) in [(end, i + 1), (end - 1, i)] {
            let c = TempDir::new(&format!("mixed-events-cut-{cut}"));
            fs::copy(t.0.join("MANIFEST"), c.0.join("MANIFEST")).unwrap();
            let copy = c.0.join(segment.file_name().unwrap());
            fs::copy(&segment, &copy).unwrap();
            fs::OpenOptions::new()
                .write(true)
                .open(&copy)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let (recovered, report) =
                VpIndex::<BxTree>::recover(&c.0, bx_factory(Some(&c.0))).unwrap();
            assert_eq!(report.events_replayed, survived, "cut at byte {cut}");
            let mut twin =
                VpIndex::build(ocfg.clone(), &analysis(&ocfg), bx_factory(None)).unwrap();
            for e in &events[..survived] {
                apply(&mut twin, e);
            }
            assert_matches_oracle(&recovered, &twin, &format!("{survived} events survive"));
            for id in [77_777, 77_778] {
                assert_eq!(
                    recovered.get_object(id).unwrap(),
                    twin.get_object(id).unwrap(),
                    "{survived} events survive: object {id}"
                );
            }
        }
    }
}

#[test]
fn automatic_checkpoint_cadence_truncates_the_log() {
    let t = TempDir::new("auto-ckpt");
    let cfg = durable_config(&t.0, SyncPolicy::Always).with_checkpoint_every_ticks(3);
    let ticks = make_ticks(0xAB1E, 7);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for tick in &ticks {
            vp.apply_updates(tick).unwrap();
        }
    }
    // Two automatic checkpoints fired (after ticks 3 and 6).
    let ckpts: Vec<PathBuf> = fs::read_dir(&t.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map(|e| e == "vpck").unwrap_or(false))
        .collect();
    assert_eq!(ckpts.len(), 1, "old checkpoints pruned: {ckpts:?}");
    let (recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.checkpoint_seq, 6);
    assert_eq!(report.events_replayed, 1);
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "auto checkpoint");
}

/// A durable run writes one log stream, and its checkpoint plus log
/// recover to the uncrashed in-memory state.
#[test]
fn parallel_ticks_with_wal_are_bit_identical_to_sequential() {
    let t = TempDir::new("one-stream");
    let ticks = make_ticks(0x9A9A, 6);
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    for tick in &ticks {
        vp.apply_updates(tick).unwrap();
    }
    vp.checkpoint().unwrap();
    drop(vp);

    let files = list_segment_files(&t.0);
    assert!(!files.is_empty());
    assert!(
        files.iter().all(|p| p
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("meta-")),
        "one log stream: {files:?}"
    );
    assert!(t.0.join("ckpt-0000000000000006.vpck").exists());

    let (recovered, _) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    let oracle = oracle_at(&cfg, &ticks, ticks.len());
    assert_matches_oracle(&recovered, &oracle, "checkpoint recovery");
}

fn tpr_factory() -> impl FnMut(&PartitionSpec) -> TprTree {
    // Logical checkpoints rebuild the trees from the snapshot, so the
    // TPR partitions keep their pages in memory — durability comes
    // entirely from the WAL + snapshot.
    move |_spec| {
        let pool = Arc::new(BufferPool::with_capacity(
            DiskManager::with_page_size(1024),
            256,
        ));
        TprTree::new(pool, TprConfig::default())
    }
}

/// TPR\*-backed durable index: recovery replays the WAL through the
/// batched `update_batch`/`remove_batch` path (checkpoint snapshot
/// bulk-fed, tick batches group-applied) and must reproduce the
/// uncrashed oracle's answers exactly — the same contract the Bx
/// backend is held to, now on the re-clustering group-insert path.
#[test]
fn tpr_backed_index_recovers_through_the_batched_path() {
    let t = TempDir::new("tpr-recover");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0x7EE7, 7);
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), tpr_factory()).unwrap();
        for tick in &ticks[..4] {
            vp.apply_updates(tick).unwrap();
        }
        vp.checkpoint().unwrap();
        for tick in &ticks[4..] {
            vp.apply_updates(tick).unwrap();
        }
        // Crash: no checkpoint, no graceful shutdown.
    }
    let (recovered, report) = VpIndex::<TprTree>::recover(&t.0, tpr_factory()).unwrap();
    assert_eq!(report.checkpoint_seq, 4);
    assert_eq!(report.events_replayed, 3, "the post-checkpoint tail");
    let oracle = oracle_at_with(&cfg, &ticks, ticks.len(), tpr_factory());
    // Probe from the newest tick time: the trees are differently
    // shaped, so only non-historical queries are comparable.
    assert_matches_oracle_from(&recovered, &oracle, 60.0, "tpr full replay");
    // The group-applied trees are structurally sound, partition by
    // partition.
    for p in 0..recovered.specs().len() {
        recovered
            .partition_index(p)
            .check_invariants()
            .unwrap()
            .unwrap_or_else(|e| panic!("partition {p} invariant violated: {e}"));
    }
}

/// A tick record carries its input in world coordinates, never
/// index-specific bytes, so a TPR\*-backed log replays through the
/// batched path to the uncrashed state.
#[test]
fn tpr_parallel_wal_streams_are_bit_identical_to_sequential() {
    let t = TempDir::new("tpr-stream");
    let ticks = make_ticks(0x5CA1E, 5);
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), tpr_factory()).unwrap();
    for tick in &ticks {
        vp.apply_updates(tick).unwrap();
    }
    drop(vp);
    assert!(!list_segment_files(&t.0).is_empty());
    let (recovered, _) = VpIndex::<TprTree>::recover(&t.0, tpr_factory()).unwrap();
    let oracle = oracle_at_with(&cfg, &ticks, ticks.len(), tpr_factory());
    assert_matches_oracle_from(&recovered, &oracle, 40.0, "tpr recovery");
}

#[test]
fn reopening_a_live_directory_requires_recover() {
    let t = TempDir::new("double-open");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let _vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
    let again: IndexResult<VpIndex<BxTree>> =
        VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0)));
    assert!(matches!(again, Err(IndexError::Config(_))));
}

/// Standing queries are process state: a crash loses the
/// [`SubscriptionSet`], not the data. Re-registering the same specs
/// over the recovered index must resume exactly where the lost
/// subscriptions stopped — the `Enter` backfill reproduces the
/// pre-crash result sets, and the first post-recovery tick emits the
/// same event stream an uncrashed twin emits: no phantom `Leave` for
/// an object that never left, no duplicate `Enter` for one that never
/// left the result.
#[test]
fn recovered_subscriptions_backfill_enters_without_phantom_leaves() {
    let t = TempDir::new("sub-recover");
    let cfg = durable_config(&t.0, SyncPolicy::Always);
    let ticks = make_ticks(0x5AB6, 5);

    let center = Point::new(50_000.0, 50_000.0);
    let region = QueryRegion::Circle(Circle::new(center, 25_000.0));
    let range_spec = RangeSubSpec {
        region,
        predictive_dt: 0.0,
    };
    let knn_spec = KnnSubSpec {
        center,
        k: 8,
        predictive_dt: 0.0,
    };
    let now = 30.0; // newest reference time after four ticks
    let sub_cfg = || {
        SubscriptionConfig::new(Rect::from_bounds(0.0, 0.0, 100_000.0, 100_000.0))
            .with_horizon(120.0)
    };

    // Pre-crash run: four ticks (checkpoint after the second, so
    // recovery exercises checkpoint + tail), live subscriptions,
    // then an unceremonious crash that takes them with it.
    let pre_crash: Vec<BTreeSet<u64>>;
    {
        let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0))).unwrap();
        for (i, tick) in ticks[..4].iter().enumerate() {
            vp.apply_updates(tick).unwrap();
            if i == 1 {
                vp.checkpoint().unwrap();
            }
        }
        let mut subs = SubscriptionSet::new(sub_cfg());
        let (rs, _) = subs.register_range(&vp, now, range_spec).unwrap();
        let (ks, _) = subs.register_knn(&vp, now, knn_spec).unwrap();
        pre_crash = vec![
            subs.result(rs).unwrap().into_iter().collect(),
            subs.result(ks).unwrap().into_iter().collect(),
        ];
        assert!(!pre_crash[0].is_empty(), "guard region must be populated");
        // Crash: drop with no checkpoint, no shutdown.
    }

    // The uncrashed twin: same logical state, same subscriptions,
    // never went down.
    let mut twin = oracle_at(&cfg, &ticks, 4);
    let mut twin_subs = SubscriptionSet::new(sub_cfg());
    let (twin_rs, _) = twin_subs.register_range(&twin, now, range_spec).unwrap();
    let (twin_ks, _) = twin_subs.register_knn(&twin, now, knn_spec).unwrap();

    let (mut recovered, report) = VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
    assert_eq!(report.checkpoint_seq, 2);
    assert_eq!(report.events_replayed, 2, "only the post-checkpoint tail");

    // Re-register at the last committed time: pure-Enter backfill
    // reproducing the lost result sets.
    let mut rec_subs = SubscriptionSet::new(sub_cfg());
    let (rec_rs, rec_r_backfill) = rec_subs
        .register_range(&recovered, now, range_spec)
        .unwrap();
    let (rec_ks, rec_k_backfill) = rec_subs.register_knn(&recovered, now, knn_spec).unwrap();
    assert_eq!(
        (rec_rs, rec_ks),
        (twin_rs, twin_ks),
        "same allocation order"
    );
    for (backfill, want, what) in [
        (&rec_r_backfill, &pre_crash[0], "range"),
        (&rec_k_backfill, &pre_crash[1], "knn"),
    ] {
        assert!(
            backfill.iter().all(|e| e.kind == SubEventKind::Enter),
            "{what}: backfill is Enter-only"
        );
        assert_eq!(
            &backfill.iter().map(|e| e.id).collect::<BTreeSet<_>>(),
            want,
            "{what}: backfill reproduces the pre-crash result set"
        );
    }

    // First post-recovery tick: the recovered stream is the uncrashed
    // stream. Equality rules out phantom `Leave`s (and spurious
    // `Enter`s) in one stroke; the explicit probe below states the
    // phantom-`Leave` half directly against the index.
    let rec_delta = recovered.apply_updates_delta(&ticks[4]).unwrap();
    let twin_delta = twin.apply_updates_delta(&ticks[4]).unwrap();
    assert_eq!(rec_delta, twin_delta, "identical committed delta");
    let rec_events = rec_subs.on_tick(&recovered, &rec_delta).unwrap();
    let twin_events = twin_subs.on_tick(&twin, &twin_delta).unwrap();
    assert_eq!(
        rec_events, twin_events,
        "post-recovery event stream == uncrashed stream"
    );
    assert!(
        !rec_events.is_empty(),
        "the tick moves a third of the fleet through a 25km guard"
    );
    for e in rec_events
        .iter()
        .filter(|e| e.sub == rec_rs && e.kind == SubEventKind::Leave)
    {
        let obj = recovered.get_object(e.id).unwrap().unwrap();
        assert!(
            !RangeQuery::time_slice(region, rec_delta.time).matches(&obj),
            "phantom Leave: object {} is still inside the region",
            e.id
        );
    }
}

// ---------------------------------------------------------------------
// Property: any crash point recovers a consistent prefix
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random crash injection: run `n_ticks` (optionally checkpointing
    /// mid-run), drop, then truncate the tails of 1–3 randomly chosen
    /// segment files by random amounts — torn final records, whole
    /// lost records, even decapitated segments.
    /// Recovery must come back to *some* tick boundary `S` (at or
    /// after the checkpoint) and match the oracle replayed to exactly
    /// `S` ticks.
    #[test]
    fn random_crash_points_recover_a_consistent_tick_boundary(
        seed in 1u64..1_000_000,
        n_ticks in 3usize..7,
        ckpt_after in 0usize..5,
        cuts in collection::vec((0u8..255, 1u32..4000), 1..4),
    ) {
        let t = TempDir::new(&format!("prop-{seed}-{n_ticks}"));
        let cfg = durable_config(&t.0, SyncPolicy::Always);
        let ticks = make_ticks(seed, n_ticks);
        let ckpt_at = if ckpt_after >= n_ticks { None } else { Some(ckpt_after) };
        {
            let mut vp = VpIndex::open(cfg.clone(), &analysis(&cfg), bx_factory(Some(&t.0)))
                .unwrap();
            for (i, tick) in ticks.iter().enumerate() {
                vp.apply_updates(tick).unwrap();
                if Some(i + 1) == ckpt_at {
                    vp.checkpoint().unwrap();
                }
            }
        }

        // Mutilate stream tails.
        let files = list_segment_files(&t.0);
        prop_assert!(!files.is_empty());
        for (pick, cut) in &cuts {
            let path = &files[*pick as usize % files.len()];
            let len = fs::metadata(path).unwrap().len();
            let new_len = len.saturating_sub(*cut as u64);
            fs::OpenOptions::new()
                .write(true)
                .open(path)
                .unwrap()
                .set_len(new_len)
                .unwrap();
        }

        let (recovered, report) =
            VpIndex::<BxTree>::recover(&t.0, bx_factory(Some(&t.0))).unwrap();
        // The recovered state is some consistent tick boundary at or
        // after the checkpoint, never past what ran.
        let survived = report.last_seq as usize;
        prop_assert!(survived <= n_ticks);
        if let Some(c) = ckpt_at {
            prop_assert!(survived >= c, "checkpointed ticks can never be lost");
        }
        let oracle = oracle_at(&cfg, &ticks, survived);
        assert_matches_oracle(&recovered, &oracle, &format!("crash at tick {survived}"));
        drop(t);
    }
}
