//! Durable storage for the VP index: write-ahead logging of ticks,
//! logical checkpoints, and crash recovery.
//!
//! ## Architecture
//!
//! A durable [`VpIndex`] (built with [`VpIndex::open`]) owns **one**
//! [`vp_wal::Wal`] stream, `meta`, inside `VpConfig::wal_dir`:
//!
//! ```text
//! wal_dir/
//!   MANIFEST              config + partition axes/τ + histogram bounds
//!   ckpt-<seq>.vpck       latest logical checkpoint (object table)
//!   meta-<seq>.seg        ticks and τ refreshes
//! ```
//!
//! Every logged event is one record under one increasing sequence
//! number. A tick is one record holding its input updates in world
//! coordinates and the ids it removes; a single insert, delete or
//! update is a one-object tick, so it has no record kind of its own.
//! A tick is appended and committed (flushed, and fsync'd per
//! [`SyncPolicy`]) on the calling thread once every partition has
//! applied; an error before the commit rolls the tick back. Partitions
//! are a layout, not a unit of durability: routing is a pure function
//! of τ, whose refreshes are logged, and of the histograms, which
//! replay rebuilds.
//!
//! [`SyncPolicy::EveryTicks`]`(n)` amortizes the fsync: ordinary ticks
//! (single ops included) only flush, and every n-th tick fsyncs the
//! log, which makes it and every record before it (τ refreshes
//! included) survive an OS crash.
//!
//! Checkpoints are **logical**: [`VpIndex::checkpoint`] flushes every
//! sub-index's storage, snapshots the object table + per-partition τ +
//! online histograms into `ckpt-<seq>.vpck` (temp file, fsync, rename)
//! and truncates the log below it. Recovery rebuilds the sub-indexes
//! from the snapshot through their batched upsert path, then replays
//! the log's longest valid prefix in order. A tick record goes back
//! through the tick path itself, so every mutation has one code path
//! live and on replay.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vp_geom::Frame;
use vp_storage::{FaultHandle, FaultKind, FaultOp, RetryPolicy, ThreadSleeper};
use vp_wal::{crc32, SyncPolicy, Wal};

use crate::analyzer::AnalyzerOutput;
use crate::config::VpConfig;
use crate::error::{IndexError, IndexResult};
use crate::histogram::CumulativeHistogram;
use crate::manager::{PartitionSpec, VpIndex};
use crate::object::{MovingObject, ObjectId};
use crate::traits::MovingObjectIndex;

/// Record kinds on the log. Kinds 1 and 2 were the single insert and
/// delete records of formats 1–4, kinds 3 and 4 format 2's
/// per-partition tick records; none is reused.
pub(crate) const KIND_TAU_REFRESH: u8 = 5;
pub(crate) const KIND_TICK: u8 = 6;

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 8] = b"VPMANIF1";
const CKPT_MAGIC: &[u8; 8] = b"VPCKPT01";
/// On-disk format version of the manifest and checkpoint files.
/// History: 1 = original layout (1-byte sync policy); 2 = the sync
/// policy widened to the 5-byte [`SyncPolicy::to_bytes`] encoding
/// (cross-tick group commit); 3 = one log stream, a tick is one
/// [`KIND_TICK`] record (format 2 kept a stream per partition); 4 = the
/// manifest no longer carries a tick worker count; 5 = a
/// [`KIND_TICK`] record also carries removed ids, and single inserts
/// and deletes are ticks (format 4 had a record kind for each). A
/// mismatch is a clean "unsupported version" error rather than a
/// misparse.
const FORMAT_VERSION: u32 = 5;

/// What [`VpIndex::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Seq of the checkpoint the rebuild started from (0 = none).
    pub checkpoint_seq: u64,
    /// Highest event seq applied (checkpoint or replayed record).
    pub last_seq: u64,
    /// Log events replayed on top of the checkpoint.
    pub events_replayed: usize,
}

/// The durability state of a [`VpIndex`]: the log and the bookkeeping
/// between checkpoints.
pub(crate) struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) policy: SyncPolicy,
    pub(crate) checkpoint_every: u64,
    /// The log: every event, in seq order (stream prefix `meta`).
    pub(crate) log: Wal,
    /// Next event seq to assign.
    pub(crate) next_seq: u64,
    pub(crate) ticks_since_ckpt: u64,
    /// Ticks committed since the last cross-tick fsync boundary (only
    /// read under [`SyncPolicy::EveryTicks`]).
    pub(crate) ticks_since_sync: u64,
    /// True while recovery replays the log: suppresses re-logging.
    pub(crate) replaying: bool,
    /// Fault injector covering this index's durability I/O (the log at
    /// site `wal:meta`, atomic publishes at sites `ckpt` / `ckpt:dir`).
    /// `None` outside the fault-injection harness.
    pub(crate) fault: Option<FaultHandle>,
}

impl Durability {
    /// Opens (or creates) the log, wiring in the fault injector and
    /// retry policy.
    pub(crate) fn open(
        dir: &Path,
        policy: SyncPolicy,
        checkpoint_every: u64,
        fault: Option<FaultHandle>,
        retry: RetryPolicy,
    ) -> IndexResult<Durability> {
        let mut log = Wal::open(dir, "meta")?;
        if let Some(h) = &fault {
            log.set_fault_injector(h.0.clone(), "wal:meta");
        }
        log.set_retry(retry, Arc::new(ThreadSleeper));
        Ok(Durability {
            dir: dir.to_path_buf(),
            policy,
            checkpoint_every,
            next_seq: log.last_seq() + 1,
            log,
            ticks_since_ckpt: 0,
            ticks_since_sync: 0,
            replaying: false,
            fault,
        })
    }

    /// Appends one record under the next seq and commits it per
    /// `policy`. A failed attempt burns its seq; gaps are harmless.
    fn append(&mut self, kind: u8, payload: &[u8], policy: SyncPolicy) -> IndexResult<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.append(seq, kind, payload)?;
        self.log.commit(policy)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Little-endian payload codecs
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> IndexResult<&'a [u8]> {
        if self.off + n > self.buf.len() {
            return Err(IndexError::Wal(format!(
                "payload truncated at byte {} (wanted {n} more of {})",
                self.off,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> IndexResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> IndexResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> IndexResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> IndexResult<()> {
        if self.off != self.buf.len() {
            return Err(IndexError::Wal(format!(
                "payload has {} trailing bytes",
                self.buf.len() - self.off
            )));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// 48-byte object encoding: id, pos, vel, ref_time.
fn put_object(out: &mut Vec<u8>, obj: &MovingObject) {
    put_u64(out, obj.id);
    put_f64(out, obj.pos.x);
    put_f64(out, obj.pos.y);
    put_f64(out, obj.vel.x);
    put_f64(out, obj.vel.y);
    put_f64(out, obj.ref_time);
}

fn get_object(cur: &mut Cursor<'_>) -> IndexResult<MovingObject> {
    Ok(MovingObject {
        id: cur.u64()?,
        pos: vp_geom::Point::new(cur.f64()?, cur.f64()?),
        vel: vp_geom::Point::new(cur.f64()?, cur.f64()?),
        ref_time: cur.f64()?,
    })
}

/// `TICK` payload: `u32 n ‖ n objects ‖ u32 m ‖ m ids` — the tick's
/// input updates in world coordinates and input order, then the ids it
/// removes. Replay re-derives last-write-wins, routing and frames.
fn encode_tick(updates: &[MovingObject], removed: &[ObjectId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + updates.len() * 48 + removed.len() * 8);
    put_u32(&mut out, updates.len() as u32);
    for obj in updates {
        put_object(&mut out, obj);
    }
    put_u32(&mut out, removed.len() as u32);
    for &id in removed {
        put_u64(&mut out, id);
    }
    out
}

fn decode_tick(payload: &[u8]) -> IndexResult<(Vec<MovingObject>, Vec<ObjectId>)> {
    let mut cur = Cursor::new(payload);
    // Clamp the reservations: a corrupt count must fail in the cursor
    // (truncated payload) rather than abort on a huge allocation.
    let n = cur.u32()? as usize;
    let mut updates = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        updates.push(get_object(&mut cur)?);
    }
    let m = cur.u32()? as usize;
    let mut removed = Vec::with_capacity(m.min(1 << 20));
    for _ in 0..m {
        removed.push(cur.u64()?);
    }
    cur.done()?;
    Ok((updates, removed))
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// Wraps a payload in `magic ‖ version ‖ payload ‖ crc32(payload)` and
/// writes it to a temp file, fsyncs, renames into place, and fsyncs
/// the directory — the atomic-publish dance.
///
/// Failure at **any** step — temp write (including a torn one or
/// ENOSPC), temp fsync, the rename itself, or the post-rename
/// directory fsync — surfaces as an error and leaves whatever file
/// previously held `name` valid: the new bytes only become visible
/// through the final atomic rename, and until the *directory* entry
/// is synced a crash may legally resurrect the old file, so a failed
/// directory sync must not report the publish as durable. The temp
/// file is removed best-effort on the error path so a failed publish
/// can't strand `.tmp` litter that a later publish would trip over.
///
/// Fault-injection sites: `"ckpt"` for the temp write/fsync/rename,
/// `"ckpt:dir"` ([`FaultOp::Sync`]) for the directory fsync.
fn write_file_atomic(
    dir: &Path,
    name: &str,
    magic: &[u8; 8],
    payload: &[u8],
    fault: Option<&FaultHandle>,
) -> IndexResult<()> {
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    let tmp = dir.join(format!("{name}.tmp"));
    let check = |op: FaultOp| -> Option<FaultKind> { fault.and_then(|h| h.check("ckpt", op)) };
    let publish = || -> IndexResult<()> {
        match check(FaultOp::Write) {
            Some(FaultKind::Torn { keep }) => {
                // Model a torn publish write: a prefix lands, then the
                // device gives out.
                let keep = keep.min(bytes.len());
                let _ = fs::write(&tmp, &bytes[..keep]);
                return Err(IndexError::Wal(format!(
                    "injected torn write at ckpt: {keep} of {} bytes",
                    bytes.len()
                )));
            }
            Some(kind) => return Err(kind.to_error("ckpt", FaultOp::Write).into()),
            None => fs::write(&tmp, &bytes).map_err(io_err)?,
        }
        let f = fs::File::open(&tmp).map_err(io_err)?;
        match check(FaultOp::Sync) {
            Some(kind) => return Err(kind.to_error("ckpt", FaultOp::Sync).into()),
            None => f.sync_all().map_err(io_err)?,
        }
        match check(FaultOp::Rename) {
            Some(kind) => return Err(kind.to_error("ckpt", FaultOp::Rename).into()),
            None => fs::rename(&tmp, dir.join(name)).map_err(io_err)?,
        }
        Ok(())
    };
    if let Err(e) = publish() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // The rename is only durable once the directory entry itself is
    // synced; swallowing a failure here would report a publish as
    // durable that a crash could still undo.
    match fault.and_then(|h| h.check("ckpt:dir", FaultOp::Sync)) {
        Some(kind) => return Err(kind.to_error("ckpt:dir", FaultOp::Sync).into()),
        None => {
            let d = fs::File::open(dir).map_err(io_err)?;
            d.sync_all().map_err(io_err)?;
        }
    }
    Ok(())
}

/// Reads and validates a `magic ‖ version ‖ payload ‖ crc` file.
fn read_validated(path: &Path, magic: &[u8; 8]) -> IndexResult<Vec<u8>> {
    let bytes = fs::read(path).map_err(io_err)?;
    if bytes.len() < 16 || &bytes[..8] != magic {
        return Err(IndexError::Wal(format!("{}: bad magic", path.display())));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(IndexError::Wal(format!(
            "{}: unsupported version {version}",
            path.display()
        )));
    }
    let payload = &bytes[12..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(payload) != crc {
        return Err(IndexError::Wal(format!("{}: crc mismatch", path.display())));
    }
    Ok(payload.to_vec())
}

fn io_err(e: std::io::Error) -> IndexError {
    IndexError::Wal(e.to_string())
}

fn write_manifest(
    dir: &Path,
    config: &VpConfig,
    specs: &[PartitionSpec],
    hist_bounds: &[f64],
    fault: Option<&FaultHandle>,
) -> IndexResult<()> {
    let mut p = Vec::new();
    put_u64(&mut p, config.k as u64);
    put_u64(&mut p, config.sample_size as u64);
    put_u64(&mut p, config.tau_buckets as u64);
    put_u64(&mut p, config.seed);
    put_u64(&mut p, config.max_iters as u64);
    put_f64(&mut p, config.domain.lo.x);
    put_f64(&mut p, config.domain.lo.y);
    put_f64(&mut p, config.domain.hi.x);
    put_f64(&mut p, config.domain.hi.y);
    p.extend_from_slice(&config.sync_policy.to_bytes());
    put_u64(&mut p, config.checkpoint_every_ticks);
    put_u32(&mut p, specs.len() as u32);
    for spec in specs {
        put_f64(&mut p, spec.frame.axis().x);
        put_f64(&mut p, spec.frame.axis().y);
        put_f64(&mut p, spec.tau);
        p.push(u8::from(spec.is_outlier));
    }
    put_u32(&mut p, hist_bounds.len() as u32);
    for b in hist_bounds {
        put_f64(&mut p, *b);
    }
    write_file_atomic(dir, MANIFEST_NAME, MANIFEST_MAGIC, &p, fault)
}

/// The manifest's partition description (enough to rebuild a
/// [`PartitionSpec`] without re-running the analyzer).
struct SpecDesc {
    axis: vp_geom::Vec2,
    tau: f64,
    is_outlier: bool,
}

fn read_manifest(dir: &Path) -> IndexResult<(VpConfig, Vec<SpecDesc>, Vec<f64>)> {
    let payload = read_validated(&dir.join(MANIFEST_NAME), MANIFEST_MAGIC)?;
    let mut cur = Cursor::new(&payload);
    let mut config = VpConfig {
        k: cur.u64()? as usize,
        sample_size: cur.u64()? as usize,
        tau_buckets: cur.u64()? as usize,
        seed: cur.u64()?,
        max_iters: cur.u64()? as usize,
        ..VpConfig::default()
    };
    let lo = (cur.f64()?, cur.f64()?);
    let hi = (cur.f64()?, cur.f64()?);
    config.domain = vp_geom::Rect::from_bounds(lo.0, lo.1, hi.0, hi.1);
    config.sync_policy = SyncPolicy::from_bytes(cur.take(5)?.try_into().expect("5 bytes"))?;
    config.checkpoint_every_ticks = cur.u64()?;
    config.wal_dir = Some(dir.to_path_buf());
    let nspecs = cur.u32()? as usize;
    let mut specs = Vec::with_capacity(nspecs.min(1 << 16));
    for _ in 0..nspecs {
        specs.push(SpecDesc {
            axis: vp_geom::Point::new(cur.f64()?, cur.f64()?),
            tau: cur.f64()?,
            is_outlier: cur.u8()? != 0,
        });
    }
    let nbounds = cur.u32()? as usize;
    let mut bounds = Vec::with_capacity(nbounds.min(1 << 16));
    for _ in 0..nbounds {
        bounds.push(cur.f64()?);
    }
    cur.done()?;
    if specs.is_empty() || !specs.last().map(|s| s.is_outlier).unwrap_or(false) {
        return Err(IndexError::Wal("manifest: malformed partition list".into()));
    }
    Ok((config, specs, bounds))
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

struct Checkpoint {
    seq: u64,
    taus: Vec<f64>,
    hists: Vec<CumulativeHistogram>,
    /// `(world object, partition)` pairs, sorted by id.
    objects: Vec<(MovingObject, usize)>,
}

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.vpck")
}

fn write_checkpoint(
    dir: &Path,
    seq: u64,
    taus: &[f64],
    hists: &[CumulativeHistogram],
    objects: &HashMap<ObjectId, (MovingObject, usize)>,
    fault: Option<&FaultHandle>,
) -> IndexResult<()> {
    let mut p = Vec::new();
    put_u64(&mut p, seq);
    put_u32(&mut p, taus.len() as u32);
    for t in taus {
        put_f64(&mut p, *t);
    }
    put_u32(&mut p, hists.len() as u32);
    for h in hists {
        put_f64(&mut p, h.max_value());
        put_u32(&mut p, h.counts().len() as u32);
        for c in h.counts() {
            put_u64(&mut p, *c);
        }
    }
    // Sorted object table: deterministic bytes for a given state.
    let mut entries: Vec<&(MovingObject, usize)> = objects.values().collect();
    entries.sort_unstable_by_key(|(obj, _)| obj.id);
    put_u64(&mut p, entries.len() as u64);
    for (obj, part) in entries {
        put_object(&mut p, obj);
        put_u32(&mut p, *part as u32);
    }
    write_file_atomic(dir, &ckpt_name(seq), CKPT_MAGIC, &p, fault)
}

fn decode_checkpoint(payload: &[u8]) -> IndexResult<Checkpoint> {
    let mut cur = Cursor::new(payload);
    let seq = cur.u64()?;
    let ntaus = cur.u32()? as usize;
    let mut taus = Vec::with_capacity(ntaus.min(1 << 16));
    for _ in 0..ntaus {
        taus.push(cur.f64()?);
    }
    let nhists = cur.u32()? as usize;
    let mut hists = Vec::with_capacity(nhists.min(1 << 16));
    for _ in 0..nhists {
        let max = cur.f64()?;
        let nbuckets = cur.u32()? as usize;
        let mut counts = Vec::with_capacity(nbuckets.min(1 << 20));
        for _ in 0..nbuckets {
            counts.push(cur.u64()?);
        }
        if counts.is_empty() || !(max.is_finite() && max > 0.0) {
            return Err(IndexError::Wal("checkpoint: malformed histogram".into()));
        }
        hists.push(CumulativeHistogram::from_parts(counts, max));
    }
    let nobjects = cur.u64()? as usize;
    let mut objects = Vec::with_capacity(nobjects.min(1 << 20));
    for _ in 0..nobjects {
        let obj = get_object(&mut cur)?;
        let part = cur.u32()? as usize;
        objects.push((obj, part));
    }
    cur.done()?;
    Ok(Checkpoint {
        seq,
        taus,
        hists,
        objects,
    })
}

/// Lists checkpoint files, newest first.
fn list_checkpoints(dir: &Path) -> IndexResult<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(".vpck"))
        else {
            continue;
        };
        if let Ok(seq) = u64::from_str_radix(hex, 16) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_unstable_by_key(|(s, _)| std::cmp::Reverse(*s));
    Ok(found)
}

/// Loads the newest checkpoint. A published checkpoint that fails
/// validation is a **hard error**, not a fallback: checkpoints are
/// published atomically (tmp + fsync + rename — a crash leaves only a
/// `.tmp` that is never listed), and the log below the newest
/// checkpoint was truncated when it was written, so an older
/// checkpoint can no longer be completed from the log — falling back
/// would return a silently incomplete index. An invalid published
/// file therefore means bitrot or tampering, which must surface.
fn load_latest_checkpoint(dir: &Path) -> IndexResult<Option<Checkpoint>> {
    let checkpoints = list_checkpoints(dir)?;
    let Some((_, path)) = checkpoints.first() else {
        return Ok(None);
    };
    let ckpt = read_validated(path, CKPT_MAGIC)
        .and_then(|p| decode_checkpoint(&p))
        .map_err(|e| {
            IndexError::Wal(format!(
                "newest checkpoint {} failed validation ({e}); the log below it \
                 was truncated at checkpoint time, so no older state can be \
                 completed — restore the file or rebuild the index",
                path.display()
            ))
        })?;
    Ok(Some(ckpt))
}

fn prune_checkpoints_below(dir: &Path, seq: u64) -> IndexResult<()> {
    for (s, path) in list_checkpoints(dir)? {
        if s < seq {
            fs::remove_file(path).map_err(io_err)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The durable VpIndex lifecycle
// ---------------------------------------------------------------------

impl<I> VpIndex<I> {
    /// Builds a **durable** partitioned index: like [`VpIndex::build`],
    /// plus a manifest and the log in `config.wal_dir`. Every
    /// subsequent mutation is logged; [`VpIndex::checkpoint`] (or the
    /// `checkpoint_every_ticks` cadence) bounds the log. Errors if the
    /// directory already holds a manifest — reopen an existing durable
    /// index with [`VpIndex::recover`].
    pub fn open<F>(
        config: VpConfig,
        analysis: &AnalyzerOutput,
        factory: F,
    ) -> IndexResult<VpIndex<I>>
    where
        F: FnMut(&PartitionSpec) -> I,
    {
        let dir = config
            .wal_dir
            .clone()
            .ok_or_else(|| IndexError::Config("VpIndex::open requires config.wal_dir".into()))?;
        fs::create_dir_all(&dir).map_err(io_err)?;
        if dir.join(MANIFEST_NAME).exists() {
            return Err(IndexError::Config(format!(
                "{} already holds a durable index; use VpIndex::recover",
                dir.display()
            )));
        }
        let mut vp = VpIndex::build(config, analysis, factory)?;
        let bounds: Vec<f64> = vp.perp_hists.iter().map(|h| h.max_value()).collect();
        write_manifest(
            &dir,
            &vp.config,
            &vp.specs,
            &bounds,
            vp.config.fault.as_ref(),
        )?;
        vp.durability = Some(Durability::open(
            &dir,
            vp.config.sync_policy,
            vp.config.checkpoint_every_ticks,
            vp.config.fault.clone(),
            vp.config.wal_retry,
        )?);
        Ok(vp)
    }

    /// Rebuilds a durable index from its directory: manifest → latest
    /// valid checkpoint → replay of the log's consistent prefix. The
    /// recovered index answers every query exactly as the pre-crash
    /// index did at the last committed event, and keeps logging from
    /// there.
    pub fn recover<F>(
        dir: impl AsRef<Path>,
        factory: F,
    ) -> IndexResult<(VpIndex<I>, RecoveryReport)>
    where
        I: MovingObjectIndex,
        F: FnMut(&PartitionSpec) -> I,
    {
        let dir = dir.as_ref().to_path_buf();
        let (config, descs, bounds) = read_manifest(&dir)?;
        if bounds.len() + 1 != descs.len() {
            return Err(IndexError::Wal(
                "manifest: histogram bounds do not match DVA count".into(),
            ));
        }
        let pivot = config.pivot();
        let specs: Vec<PartitionSpec> = descs
            .iter()
            .enumerate()
            .map(|(id, d)| {
                let frame = if d.is_outlier {
                    Frame::identity()
                } else {
                    Frame::new(d.axis, pivot)
                };
                PartitionSpec {
                    id,
                    frame,
                    domain: if d.is_outlier {
                        config.domain
                    } else {
                        frame.domain_in_frame(&config.domain)
                    },
                    tau: d.tau,
                    is_outlier: d.is_outlier,
                }
            })
            .collect();
        let perp_hists = bounds
            .iter()
            .map(|&b| CumulativeHistogram::new(config.tau_buckets, b))
            .collect();
        let indexes: Vec<I> = specs.iter().map(factory).collect();
        let mut vp = VpIndex::from_parts(config, specs, indexes, perp_hists);

        // Load the newest valid checkpoint.
        let mut ckpt_seq = 0;
        if let Some(ckpt) = load_latest_checkpoint(&dir)? {
            if ckpt.taus.len() != vp.specs.len() || ckpt.hists.len() + 1 != vp.specs.len() {
                return Err(IndexError::Wal(
                    "checkpoint: partition count mismatch".into(),
                ));
            }
            ckpt_seq = ckpt.seq;
            for (spec, tau) in vp.specs.iter_mut().zip(&ckpt.taus) {
                spec.tau = *tau;
            }
            vp.perp_hists = ckpt.hists;
            let mut buckets: Vec<Vec<MovingObject>> = vec![Vec::new(); vp.specs.len()];
            for (obj, p) in &ckpt.objects {
                if *p >= vp.specs.len() {
                    return Err(IndexError::Wal(format!(
                        "checkpoint: object {} in unknown partition {p}",
                        obj.id
                    )));
                }
                std::sync::Arc::make_mut(&mut vp.objects).insert(obj.id, (*obj, *p));
                buckets[*p].push(obj.to_frame(&vp.specs[*p].frame));
            }
            for (p, batch) in buckets.iter().enumerate() {
                if !batch.is_empty() {
                    vp.indexes[p].update_batch(batch)?;
                }
            }
        }

        // Open the log and replay its valid prefix above the
        // checkpoint, every event through its live code path.
        let mut dur = Durability::open(
            &dir,
            vp.config.sync_policy,
            vp.config.checkpoint_every_ticks,
            // The manifest never records an injector (runtime-only);
            // attach one to the recovered index with
            // `set_fault_injector` if the harness needs it.
            None,
            vp.config.wal_retry,
        )?;
        let records = dur.log.replay(ckpt_seq)?;
        dur.replaying = true;
        vp.durability = Some(dur);

        let mut last_seq = ckpt_seq;
        for rec in &records {
            match rec.kind {
                KIND_TAU_REFRESH => {
                    vp.refresh_tau()?;
                }
                KIND_TICK => {
                    let (updates, removed) = decode_tick(&rec.payload)?;
                    vp.apply_tick(&updates, &removed)?
                }
                k => {
                    return Err(IndexError::Wal(format!(
                        "log holds unknown record kind {k}"
                    )))
                }
            }
            last_seq = rec.seq;
        }

        let d = vp.durability.as_mut().expect("just installed");
        d.replaying = false;
        // Amputate the dead suffix: replay stops at the first torn or
        // corrupt record, and anything behind it is physically
        // removed. Otherwise it would sit ahead of everything logged
        // from now on, and the *next* recovery would stop at the same
        // spot — silently dropping events committed after this
        // recovery succeeded.
        d.log.truncate_after(last_seq)?;
        d.next_seq = last_seq + 1;
        let report = RecoveryReport {
            checkpoint_seq: ckpt_seq,
            last_seq,
            events_replayed: records.len(),
        };
        Ok((vp, report))
    }

    /// True when this index was opened with a durability directory
    /// ([`VpIndex::open`]) and so supports
    /// [`checkpoint`](VpIndex::checkpoint). Serving layers consult
    /// this on the drain path: a purely in-memory index has nothing
    /// to checkpoint and drains without one.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Writes a checkpoint: flushes every sub-index's storage to a
    /// consistent on-disk state, snapshots the logical index state
    /// (object table, per-partition τ, online histograms) atomically,
    /// and truncates the log below it. Returns the checkpoint seq.
    pub fn checkpoint(&mut self) -> IndexResult<u64>
    where
        I: MovingObjectIndex,
    {
        self.check_writable()?;
        if self.durability.is_none() {
            return Err(IndexError::Config(
                "checkpoint requires a durable index (VpIndex::open)".into(),
            ));
        }
        for idx in &self.indexes {
            idx.flush_storage()?;
        }
        let taus: Vec<f64> = self.specs.iter().map(|s| s.tau).collect();
        let d = self.durability.as_mut().expect("checked above");
        let seq = d.next_seq - 1;
        // A failed publish (torn temp write, ENOSPC, failed rename) is
        // contained by the atomic-publish path: the previous
        // checkpoint and the whole log survive untouched, so the
        // caller may simply retry later.
        write_checkpoint(
            &d.dir,
            seq,
            &taus,
            &self.perp_hists,
            &self.objects,
            d.fault.as_ref(),
        )?;
        // Only after the snapshot is durably published may the log
        // and older snapshots shrink.
        prune_checkpoints_below(&d.dir, seq)?;
        // The checkpoint snapshot subsumes every record at or below
        // `seq`, which may never push the active segment over its roll
        // threshold. Seal it so that dead prefix becomes a truncatable
        // segment instead of riding along forever.
        d.log.seal_active()?;
        d.log.truncate_below(seq + 1)?;
        d.ticks_since_ckpt = 0;
        // A checkpoint leaves nothing unsynced behind it: the next
        // EveryTicks window starts fresh.
        d.ticks_since_sync = 0;
        Ok(seq)
    }

    /// Attaches a fault injector to the log and the checkpoint-publish
    /// path (sites `wal:meta`, `ckpt`, `ckpt:dir`). The injector in
    /// [`VpConfig::fault`] is wired automatically at
    /// [`VpIndex::open`]; this setter exists for indexes that came back
    /// through [`VpIndex::recover`], whose manifest deliberately does
    /// not persist the handle.
    pub fn set_fault_injector(&mut self, handle: FaultHandle) {
        self.config.fault = Some(handle.clone());
        if let Some(d) = &mut self.durability {
            d.log.set_fault_injector(handle.0.clone(), "wal:meta");
            d.fault = Some(handle);
        }
    }

    /// Changes the log's transient-error retry policy (see
    /// [`VpConfig::wal_retry`]).
    pub fn set_wal_retry(&mut self, policy: RetryPolicy) {
        self.config.wal_retry = policy;
        if let Some(d) = &mut self.durability {
            d.log.set_retry(policy, Arc::new(ThreadSleeper));
        }
    }

    /// The log while it records events: `None` on non-durable indexes
    /// and during replay.
    fn live_log(&mut self) -> Option<&mut Durability> {
        self.durability.as_mut().filter(|d| !d.replaying)
    }

    /// Logs a single-record event (a τ refresh), committed per the
    /// policy and outside the tick cadence.
    pub(crate) fn log_single(&mut self, kind: u8, payload: &[u8]) -> IndexResult<()> {
        match self.live_log() {
            Some(d) => d.append(kind, payload, d.policy),
            None => Ok(()),
        }
    }

    /// Logs a tick every partition has applied, as one record. Returns
    /// whether the checkpoint cadence came due. The cadence counters
    /// move only once the record is committed, so a failed tick leaves
    /// them as they were.
    pub(crate) fn log_tick(
        &mut self,
        updates: &[MovingObject],
        removed: &[ObjectId],
    ) -> IndexResult<bool> {
        let Some(d) = self.live_log() else {
            return Ok(false);
        };
        // Cross-tick group commit: under `EveryTicks(n)` ordinary ticks
        // only flush, and every n-th tick fsyncs the log — which covers
        // every record before it.
        let boundary = match d.policy {
            SyncPolicy::EveryTicks(n) => d.ticks_since_sync + 1 >= u64::from(n.max(1)),
            _ => false,
        };
        let policy = if boundary {
            SyncPolicy::Always
        } else {
            d.policy
        };
        d.append(KIND_TICK, &encode_tick(updates, removed), policy)?;
        d.ticks_since_sync = if boundary { 0 } else { d.ticks_since_sync + 1 };
        d.ticks_since_ckpt += 1;
        Ok(d.checkpoint_every > 0 && d.ticks_since_ckpt >= d.checkpoint_every)
    }
}
