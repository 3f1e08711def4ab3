//! The segmented log stream: an append/commit writer fused with the
//! recovery-time reader over one directory of segment files.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vp_storage::{FaultInjector, FaultKind, FaultOp, RetryPolicy, Sleeper, ThreadSleeper};

use crate::record::{
    decode_record, decode_segment_header, encode_record, encode_segment_header, Decoded,
    SEGMENT_HEADER_LEN,
};
use crate::{SyncPolicy, WalError, WalRecord, WalResult};

/// Default segment roll threshold: 1 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// One log stream (see the crate docs for the format).
///
/// Appends buffer in process memory; [`Wal::flush`] writes the pending
/// batch with one syscall, [`Wal::sync`] additionally fsyncs —
/// [`Wal::commit`] picks between them by [`SyncPolicy`]. Opening an
/// existing stream truncates a torn tail record (the expected state
/// after a crash) and resumes appending after the last valid record.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    prefix: String,
    segment_bytes: u64,
    /// `(first_seq, path)` per segment, ascending; the last entry is
    /// the active segment.
    segments: Vec<(u64, PathBuf)>,
    /// Lazily opened append handle on the active segment.
    file: Option<File>,
    /// Bytes currently in the active segment file.
    seg_size: u64,
    /// Pending encoded records not yet written to the OS.
    buf: Vec<u8>,
    /// Seq of the first pending record (segment naming on roll).
    buf_first_seq: Option<u64>,
    /// Highest seq appended or recovered; 0 before the first record.
    last_seq: u64,
    /// The tail segment's records, decoded during open-time
    /// validation and retained so the recovery-path [`Wal::replay`]
    /// reads that segment once, not twice. `(first_seq, records)`;
    /// dropped as soon as the file and the retained copy could
    /// diverge (first flush, or a tail amputation).
    retained_tail: Option<(u64, Vec<WalRecord>)>,
    /// Highest seq that has reached the OS (flushed). Appends above it
    /// are process-memory only and can be dropped by
    /// [`Wal::discard_pending`] (tick rollback).
    flushed_seq: u64,
    /// `Some(reason)` once an fsync has failed: the stream refuses all
    /// further appends/flushes/syncs (fsyncgate semantics — the
    /// dropped dirty pages make "retry the fsync" a durability lie).
    poisoned: Option<String>,
    /// Optional fault schedule consulted before segment file ops, plus
    /// the site label this stream registers under.
    fault: Option<(Arc<FaultInjector>, String)>,
    /// Bounded retry for *transient* flush failures (the pending batch
    /// stays buffered between attempts). Fsync is never retried.
    retry: RetryPolicy,
    /// Clock behind the retry backoff — injectable for tests.
    sleeper: Arc<dyn Sleeper>,
}

impl Wal {
    /// Opens (or creates) the stream `prefix` inside `dir` with the
    /// default segment size.
    pub fn open(dir: impl AsRef<Path>, prefix: &str) -> WalResult<Wal> {
        Wal::open_with_segment_bytes(dir, prefix, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (or creates) the stream with an explicit segment roll
    /// threshold (useful to force multi-segment coverage in tests).
    pub fn open_with_segment_bytes(
        dir: impl AsRef<Path>,
        prefix: &str,
        segment_bytes: u64,
    ) -> WalResult<Wal> {
        assert!(segment_bytes >= 1, "segment size must be positive");
        assert!(
            !prefix.is_empty()
                && prefix
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-'),
            "stream prefix must be non-empty [A-Za-z0-9-]"
        );
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments = Wal::scan_segments(&dir, prefix)?;
        let mut last_seq = 0;
        let mut seg_size = 0;
        let mut retained_tail = None;
        // Validate from the newest segment backwards: a crash during a
        // roll can leave an empty or header-torn file at the tail,
        // which is discarded like any other torn suffix. The records
        // decoded while validating are retained for `replay`, which
        // would otherwise read the tail segment a second time.
        while let Some((first_seq, path)) = segments.last().cloned() {
            match Wal::recover_segment(&path, first_seq)? {
                Some((tail_seq, valid_len, records)) => {
                    last_seq = tail_seq;
                    seg_size = valid_len;
                    retained_tail = Some((first_seq, records));
                    break;
                }
                None => {
                    fs::remove_file(&path)?;
                    segments.pop();
                }
            }
        }
        Ok(Wal {
            dir,
            prefix: prefix.to_string(),
            segment_bytes,
            segments,
            file: None,
            seg_size,
            buf: Vec::new(),
            buf_first_seq: None,
            last_seq,
            retained_tail,
            flushed_seq: last_seq,
            poisoned: None,
            fault: None,
            retry: RetryPolicy::standard(),
            sleeper: Arc::new(ThreadSleeper),
        })
    }

    /// Attaches a fault injector under `site`; segment writes and
    /// fsyncs consult the schedule first (see [`vp_storage::fault`]).
    pub fn set_fault_injector(&mut self, inj: Arc<FaultInjector>, site: impl Into<String>) {
        self.fault = Some((inj, site.into()));
    }

    /// Replaces the transient-flush retry policy and backoff clock.
    pub fn set_retry(&mut self, policy: RetryPolicy, sleeper: Arc<dyn Sleeper>) {
        self.retry = policy;
        self.sleeper = sleeper;
    }

    /// `Some(reason)` once a failed fsync has poisoned this stream
    /// (every later append/flush/sync returns
    /// [`WalError::Poisoned`]). Cleared only by reopening the stream,
    /// which re-reads the file's actual consistent prefix.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Drops every appended-but-unflushed record (the tick-rollback
    /// path: a failed tick abandons its partially logged batch), and
    /// rewinds `last_seq` to the highest seq that reached the OS so
    /// the seqs of the dead batch can be reused or skipped freely.
    pub fn discard_pending(&mut self) {
        self.buf.clear();
        self.buf_first_seq = None;
        self.last_seq = self.flushed_seq;
    }

    /// Number of bytes currently buffered in process memory.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    fn check_poisoned(&self) -> WalResult<()> {
        match &self.poisoned {
            Some(msg) => Err(WalError::Poisoned(msg.clone())),
            None => Ok(()),
        }
    }

    /// The directory holding this stream's segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest sequence number appended or recovered (0 before any).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Buffers one record. `seq` must exceed every previously appended
    /// seq. Nothing reaches the OS until [`Wal::flush`] /
    /// [`Wal::commit`].
    pub fn append(&mut self, seq: u64, kind: u8, payload: &[u8]) -> WalResult<()> {
        self.check_poisoned()?;
        if seq <= self.last_seq {
            return Err(WalError::Corrupt(format!(
                "append seq {seq} not above last seq {}",
                self.last_seq
            )));
        }
        if self.buf_first_seq.is_none() {
            self.buf_first_seq = Some(seq);
        }
        encode_record(&mut self.buf, seq, kind, payload);
        self.last_seq = seq;
        Ok(())
    }

    /// Writes the pending batch to the OS in one syscall, rolling to a
    /// fresh segment first when the active one is over the threshold.
    ///
    /// A failed write (e.g. transient `ENOSPC`) leaves the stream in a
    /// retryable state: the pending batch is kept, and the segment is
    /// cut back to its last known-good length so a partial write can
    /// never leave torn garbage *ahead of* later successful commits —
    /// which replay would silently stop at.
    pub fn flush(&mut self) -> WalResult<()> {
        self.check_poisoned()?;
        if self.buf.is_empty() {
            return Ok(());
        }
        // Transient failures (EIO, ENOSPC — injected or real) retry
        // with bounded exponential backoff: each failed attempt leaves
        // the stream in the retryable state documented above, so a
        // retry is simply another flush of the still-pending batch.
        let mut backoff = self.retry.base_backoff;
        let mut attempt: u32 = 1;
        loop {
            match self.flush_once() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    attempt += 1;
                    let sleeper = Arc::clone(&self.sleeper);
                    sleeper.sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One flush attempt (see [`Wal::flush`] for the retry loop).
    fn flush_once(&mut self) -> WalResult<()> {
        let first = self.buf_first_seq.expect("non-empty buffer has a seq");
        // The file is about to grow past the open-time snapshot; the
        // retained copy no longer tells the whole story.
        self.retained_tail = None;
        if self.segments.is_empty() || self.seg_size >= self.segment_bytes {
            self.roll(first)?;
        }
        // Consult the fault schedule: a torn fault writes only a
        // prefix of the batch before failing — the state a power cut
        // mid-write leaves — and the amputation below must cut it
        // back off.
        let fault = self
            .fault
            .as_ref()
            .and_then(|(inj, site)| inj.check(site, FaultOp::Write).map(|k| (k, site.clone())));
        let pending = std::mem::take(&mut self.buf);
        let wrote = match fault {
            Some((FaultKind::Torn { keep }, site)) => {
                let keep = keep.min(pending.len());
                self.active_file()
                    .and_then(|f| f.write_all(&pending[..keep]).map_err(WalError::from))
                    .and_then(|()| {
                        Err(WalError::Io(format!(
                            "injected torn record write at {site}: {keep} of {} bytes",
                            pending.len()
                        )))
                    })
            }
            Some((kind, site)) => Err(kind.to_error(&site, FaultOp::Write).into()),
            None => self
                .active_file()
                .and_then(|f| f.write_all(&pending).map_err(WalError::from)),
        };
        match wrote {
            Ok(()) => {
                self.seg_size += pending.len() as u64;
                // Keep the allocation for the next batch.
                self.buf = pending;
                self.buf.clear();
                self.buf_first_seq = None;
                self.flushed_seq = self.last_seq;
                Ok(())
            }
            Err(e) => {
                // Amputate whatever partially landed and force a
                // re-open + re-seek; the batch stays buffered
                // (`buf_first_seq` untouched) for a retry.
                if let Some((_, path)) = self.segments.last() {
                    if let Ok(f) = OpenOptions::new().write(true).open(path) {
                        let _ = f.set_len(self.seg_size);
                        let _ = f.sync_data();
                    }
                }
                self.file = None;
                self.buf = pending;
                Err(e)
            }
        }
    }

    /// [`Wal::flush`] plus fsync of the active segment.
    ///
    /// A failed fsync — injected or real — **poisons the stream**: per
    /// fsyncgate semantics the kernel may have dropped the dirty pages
    /// it could not write, so retrying the fsync and assuming
    /// durability would be a lie. Every subsequent append/flush/sync
    /// returns [`WalError::Poisoned`]; only a fresh
    /// [`Wal::open`] (which re-reads the file's actual consistent
    /// prefix) resumes the stream.
    pub fn sync(&mut self) -> WalResult<()> {
        self.flush()?;
        let injected = self
            .fault
            .as_ref()
            .filter(|_| self.file.is_some())
            .and_then(|(inj, site)| inj.check(site, FaultOp::Sync).map(|k| (k, site.clone())));
        let res: WalResult<()> = match injected {
            Some((kind, site)) => Err(kind.to_error(&site, FaultOp::Sync).into()),
            None => match &self.file {
                Some(f) => f.sync_data().map_err(WalError::from),
                None => Ok(()),
            },
        };
        if let Err(e) = res {
            let msg = e.to_string();
            self.poisoned = Some(msg.clone());
            // Drop the handle: nothing may write behind a failed sync.
            self.file = None;
            return Err(WalError::Poisoned(msg));
        }
        Ok(())
    }

    /// Group commit: flush, and fsync when the policy demands it.
    /// [`SyncPolicy::EveryTicks`] flushes only — its cross-tick fsync
    /// cadence is the caller's job (the caller escalates boundary
    /// commits to [`SyncPolicy::Always`] or [`Wal::sync`]).
    pub fn commit(&mut self, policy: SyncPolicy) -> WalResult<()> {
        match policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::Never | SyncPolicy::EveryTicks(_) => self.flush(),
        }
    }

    /// Reads every on-disk record with `seq > from_seq`, in order,
    /// stopping at the first torn or corrupt record (consistent-prefix
    /// semantics). Pending unflushed appends are not visible; recovery
    /// always runs on a freshly opened stream.
    ///
    /// The tail segment was already read and validated when the
    /// stream was opened; as long as nothing has been flushed since,
    /// its records are served from the retained open-time copy, so a
    /// long un-checkpointed tail costs one read, not two.
    pub fn replay(&self, from_seq: u64) -> WalResult<Vec<WalRecord>> {
        let mut out = Vec::new();
        let mut prev_seq = from_seq;
        for (i, (first_seq, path)) in self.segments.iter().enumerate() {
            // Skip segments that end before the cut: all their seqs
            // are below the successor's first seq.
            if let Some((next_first, _)) = self.segments.get(i + 1) {
                if *next_first <= from_seq + 1 {
                    continue;
                }
            }
            // The open-time handoff: the validated tail segment.
            if let Some((retained_first, records)) = &self.retained_tail {
                if retained_first == first_seq {
                    for rec in records {
                        if rec.seq > from_seq {
                            if rec.seq <= prev_seq {
                                return Err(WalError::Corrupt(format!(
                                    "non-monotonic seq {} after {prev_seq}",
                                    rec.seq
                                )));
                            }
                            prev_seq = rec.seq;
                            out.push(rec.clone());
                        }
                    }
                    continue;
                }
            }
            let data = fs::read(path)?;
            let got = decode_segment_header(&data)?;
            if got != *first_seq {
                return Err(WalError::Corrupt(format!(
                    "segment {} header seq {got} != name seq {first_seq}",
                    path.display()
                )));
            }
            let mut off = SEGMENT_HEADER_LEN;
            loop {
                match decode_record(&data[off..]) {
                    Decoded::End => break,
                    Decoded::Torn => return Ok(out),
                    Decoded::Record {
                        seq,
                        kind,
                        payload,
                        consumed,
                    } => {
                        if seq > from_seq {
                            if seq <= prev_seq {
                                return Err(WalError::Corrupt(format!(
                                    "non-monotonic seq {seq} after {prev_seq}"
                                )));
                            }
                            prev_seq = seq;
                            out.push(WalRecord {
                                seq,
                                kind,
                                payload: payload.to_vec(),
                            });
                        }
                        off += consumed;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Seals the active segment and starts a fresh one, so records
    /// already on it become reclaimable by [`Wal::truncate_below`].
    ///
    /// `truncate_below` only deletes whole *non-active* segments; a
    /// stream dominated by small records (single-op inserts/deletes)
    /// may never reach the roll threshold, leaving every dead record
    /// below a checkpoint pinned on the active segment forever. The checkpoint path calls
    /// this before truncating so the dead prefix lives in a sealed
    /// segment that truncation can drop.
    ///
    /// Pending appends are flushed first; a no-op when the stream has
    /// no segments or the active segment holds no records (repeated
    /// sealing cannot accumulate empty segment files).
    pub fn seal_active(&mut self) -> WalResult<()> {
        self.check_poisoned()?;
        self.flush()?;
        if self.segments.is_empty() || self.seg_size <= SEGMENT_HEADER_LEN as u64 {
            return Ok(());
        }
        // The roll replaces the validated open-time tail.
        self.retained_tail = None;
        self.roll(self.last_seq + 1)
    }

    /// Drops every segment that holds only records with `seq < cutoff`
    /// (checkpoint truncation). The active segment is always kept.
    pub fn truncate_below(&mut self, cutoff: u64) -> WalResult<()> {
        while self.segments.len() >= 2 && self.segments[1].0 <= cutoff {
            let (_, path) = self.segments.remove(0);
            fs::remove_file(&path)?;
        }
        Ok(())
    }

    /// Physically discards every record with `seq > cutoff` — the
    /// recovery path's amputation of a dead log suffix (records behind
    /// the first torn or corrupt one). Without this, later appends would sit
    /// *behind* the dead records in seq order and a future replay
    /// would stop at the same inconsistency forever, silently dropping
    /// them. Must be called with no pending appends (recovery calls it
    /// on freshly opened streams); resets `last_seq` accordingly.
    pub fn truncate_after(&mut self, cutoff: u64) -> WalResult<()> {
        assert!(
            self.buf.is_empty(),
            "truncate_after with buffered appends would lose them"
        );
        // Keep the open-time tail copy honest: records above the cut
        // die in the retained copy exactly as they do in the file.
        if let Some((_, records)) = &mut self.retained_tail {
            records.retain(|r| r.seq <= cutoff);
        }
        // Whole segments strictly above the cutoff go first.
        while let Some((first_seq, path)) = self.segments.last().cloned() {
            if first_seq <= cutoff {
                break;
            }
            fs::remove_file(&path)?;
            self.segments.pop();
        }
        self.file = None;
        self.seg_size = 0;
        self.last_seq = cutoff.min(self.last_seq);
        let Some((first_seq, path)) = self.segments.last().cloned() else {
            self.last_seq = 0;
            self.flushed_seq = 0;
            return Ok(());
        };
        // Walk the (now) active segment to the first record past the
        // cutoff and cut the file there.
        let data = fs::read(&path)?;
        let mut off = SEGMENT_HEADER_LEN;
        let mut last_seq = first_seq.saturating_sub(1);
        loop {
            match decode_record(&data[off..]) {
                Decoded::End | Decoded::Torn => break,
                Decoded::Record { seq, consumed, .. } => {
                    if seq > cutoff {
                        break;
                    }
                    last_seq = seq;
                    off += consumed;
                }
            }
        }
        if (off as u64) < data.len() as u64 {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(off as u64)?;
            f.sync_data()?;
        }
        self.seg_size = off as u64;
        self.last_seq = last_seq;
        self.flushed_seq = last_seq;
        Ok(())
    }

    fn segment_path(dir: &Path, prefix: &str, first_seq: u64) -> PathBuf {
        dir.join(format!("{prefix}-{first_seq:016x}.seg"))
    }

    /// Lists and orders this stream's segment files.
    fn scan_segments(dir: &Path, prefix: &str) -> WalResult<Vec<(u64, PathBuf)>> {
        let mut segments = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name
                .strip_prefix(prefix)
                .and_then(|r| r.strip_prefix('-'))
                .and_then(|r| r.strip_suffix(".seg"))
            else {
                continue;
            };
            if rest.len() != 16 {
                continue;
            }
            let Ok(first_seq) = u64::from_str_radix(rest, 16) else {
                continue;
            };
            segments.push((first_seq, entry.path()));
        }
        segments.sort_unstable_by_key(|(s, _)| *s);
        Ok(segments)
    }

    /// Validates one segment's header and record run, truncating a
    /// torn tail in place. Returns `(last_seq, valid_len, records)` —
    /// the decoded record run is handed back so the caller can retain
    /// it for [`Wal::replay`] — with `last_seq == first_seq - 1` for a
    /// record-less segment, or `None` when even the header is unusable
    /// (crash during roll).
    #[allow(clippy::type_complexity)]
    fn recover_segment(
        path: &Path,
        first_seq: u64,
    ) -> WalResult<Option<(u64, u64, Vec<WalRecord>)>> {
        let data = fs::read(path)?;
        if decode_segment_header(&data).map(|s| s == first_seq) != Ok(true) {
            return Ok(None);
        }
        let mut off = SEGMENT_HEADER_LEN;
        let mut last_seq = first_seq.saturating_sub(1);
        let mut records = Vec::new();
        loop {
            match decode_record(&data[off..]) {
                Decoded::End => break,
                Decoded::Torn => {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(off as u64)?;
                    f.sync_data()?;
                    break;
                }
                Decoded::Record {
                    seq,
                    kind,
                    payload,
                    consumed,
                } => {
                    last_seq = seq;
                    records.push(WalRecord {
                        seq,
                        kind,
                        payload: payload.to_vec(),
                    });
                    off += consumed;
                }
            }
        }
        Ok(Some((last_seq, off as u64, records)))
    }

    /// Starts a fresh segment whose first record will carry
    /// `first_seq`.
    fn roll(&mut self, first_seq: u64) -> WalResult<()> {
        let path = Wal::segment_path(&self.dir, &self.prefix, first_seq);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        // The header write shares the stream's Write schedule: a torn
        // fault leaves a half-written header on disk first, exactly
        // the artifact a crash mid-roll produces (and which open-time
        // validation discards).
        let header = encode_segment_header(first_seq);
        let fault = self
            .fault
            .as_ref()
            .and_then(|(inj, site)| inj.check(site, FaultOp::Write).map(|k| (k, site.clone())));
        let wrote: WalResult<()> = match fault {
            Some((FaultKind::Torn { keep }, site)) => {
                let keep = keep.min(header.len());
                file.write_all(&header[..keep])
                    .map_err(WalError::from)
                    .and_then(|()| {
                        Err(WalError::Io(format!(
                            "injected torn roll-over header at {site}: {keep} of {} bytes",
                            header.len()
                        )))
                    })
            }
            Some((kind, site)) => Err(kind.to_error(&site, FaultOp::Write).into()),
            None => file.write_all(&header).map_err(WalError::from),
        };
        if let Err(e) = wrote {
            // A half-written header would block the next roll attempt
            // (`create_new` refuses existing files); take it with us.
            let _ = fs::remove_file(&path);
            return Err(e);
        }
        // Make the new directory entry itself durable; record
        // durability is still governed by the commit-time policy.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.segments.push((first_seq, path));
        self.file = Some(file);
        self.seg_size = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }

    /// The append handle on the active segment, opened on demand after
    /// a reopen.
    fn active_file(&mut self) -> WalResult<&mut File> {
        if self.file.is_none() {
            let (_, path) = self
                .segments
                .last()
                .expect("flush rolls before writing when no segment exists");
            let mut f = OpenOptions::new().write(true).open(path)?;
            f.seek(SeekFrom::Start(self.seg_size))?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().expect("just opened"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let p = std::env::temp_dir().join(format!(
                "vp-wal-{}-{}-{name}",
                std::process::id(),
                std::thread::current()
                    .name()
                    .unwrap_or("t")
                    .replace("::", "-")
            ));
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

    #[test]
    fn append_commit_replay_round_trip() {
        let t = TempDir::new("round-trip");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 0);
        wal.append(1, 7, b"alpha").unwrap();
        wal.append(2, 8, b"").unwrap();
        wal.commit(SyncPolicy::Always).unwrap();
        wal.append(3, 7, b"gamma").unwrap();
        wal.commit(SyncPolicy::Never).unwrap();

        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            got[0],
            WalRecord {
                seq: 1,
                kind: 7,
                payload: b"alpha".to_vec()
            }
        );
        assert_eq!(got[2].seq, 3);
        // from_seq skips the prefix.
        let got = wal.replay(2).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 3);
    }

    #[test]
    fn sync_policy_encoding_round_trips() {
        for policy in [
            SyncPolicy::Always,
            SyncPolicy::Never,
            SyncPolicy::EveryTicks(1),
            SyncPolicy::EveryTicks(64),
        ] {
            assert_eq!(SyncPolicy::from_bytes(&policy.to_bytes()), Ok(policy));
        }
        // Degenerate and unknown encodings are rejected.
        assert!(SyncPolicy::from_bytes(&[2, 0, 0, 0, 0]).is_err());
        assert!(SyncPolicy::from_bytes(&[9, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn every_ticks_commit_flushes_like_never() {
        // At the log layer EveryTicks is a flush-only commit: records
        // survive a clean reopen (the cross-tick fsync cadence lives
        // with the caller).
        let t = TempDir::new("group-commit");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.append(1, 1, b"a").unwrap();
        wal.commit(SyncPolicy::EveryTicks(4)).unwrap();
        wal.append(2, 1, b"b").unwrap();
        wal.commit(SyncPolicy::EveryTicks(4)).unwrap();
        drop(wal);
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.replay(0).unwrap().len(), 2);
    }

    #[test]
    fn uncommitted_appends_stay_in_memory() {
        let t = TempDir::new("buffered");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.append(1, 1, b"x").unwrap();
        wal.commit(SyncPolicy::Always).unwrap();
        wal.append(2, 1, b"y").unwrap(); // never flushed
        drop(wal);
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 1, "unflushed record is gone");
        assert_eq!(wal.replay(0).unwrap().len(), 1);
    }

    #[test]
    fn seq_must_increase() {
        let t = TempDir::new("monotonic");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.append(5, 1, b"x").unwrap();
        assert!(wal.append(5, 1, b"y").is_err());
        assert!(wal.append(4, 1, b"y").is_err());
        wal.append(6, 1, b"y").unwrap();
    }

    #[test]
    fn rolls_segments_and_replays_across_them() {
        let t = TempDir::new("roll");
        let mut wal = Wal::open_with_segment_bytes(&t.0, "part-0", 64).unwrap();
        for seq in 1..=20u64 {
            wal.append(seq, 2, &[seq as u8; 10]).unwrap();
            wal.commit(SyncPolicy::Never).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "expected multiple segments");
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 20);
        assert_eq!(got.last().unwrap().payload, vec![20u8; 10]);

        // Reopen finds the same state and keeps appending.
        drop(wal);
        let mut wal = Wal::open_with_segment_bytes(&t.0, "part-0", 64).unwrap();
        assert_eq!(wal.last_seq(), 20);
        wal.append(21, 2, b"tail").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.replay(19).unwrap().len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let t = TempDir::new("torn");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        for seq in 1..=3u64 {
            wal.append(seq, 1, b"0123456789").unwrap();
        }
        wal.sync().unwrap();
        let (_, path) = wal.segments.last().cloned().unwrap();
        drop(wal);
        // Crash mid-write: chop the final record in half.
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let mut wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 2, "torn record dropped");
        assert_eq!(wal.replay(0).unwrap().len(), 2);
        // The stream continues cleanly after the cut.
        wal.append(3, 1, b"replacement").unwrap();
        wal.sync().unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].payload, b"replacement".to_vec());
    }

    #[test]
    fn header_torn_tail_segment_is_discarded() {
        let t = TempDir::new("torn-header");
        let mut wal = Wal::open_with_segment_bytes(&t.0, "meta", 32).unwrap();
        wal.append(1, 1, b"first").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Crash during roll: a next-segment file with half a header.
        let bogus = Wal::segment_path(&t.0, "meta", 2);
        fs::write(&bogus, b"VPWA").unwrap();
        let wal = Wal::open_with_segment_bytes(&t.0, "meta", 32).unwrap();
        assert_eq!(wal.last_seq(), 1);
        assert_eq!(wal.segment_count(), 1);
        assert!(!bogus.exists());
    }

    #[test]
    fn seal_active_makes_small_records_truncatable() {
        let t = TempDir::new("seal");
        // Default roll threshold: these tiny records never roll on
        // their own, so without sealing truncate_below can't reclaim
        // a single byte.
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        for seq in 1..=50u64 {
            wal.append(seq, 1, &[7u8; 24]).unwrap();
            wal.commit(SyncPolicy::Never).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.segment_count(), 1);
        wal.truncate_below(51).unwrap();
        assert_eq!(wal.segment_count(), 1, "active segment never dropped");
        let fat = fs::metadata(&wal.segments[0].1).unwrap().len();

        // Seal, then truncate: the dead prefix is reclaimed.
        wal.seal_active().unwrap();
        assert_eq!(wal.segment_count(), 2);
        wal.truncate_below(51).unwrap();
        assert_eq!(wal.segment_count(), 1);
        let lean = fs::metadata(&wal.segments[0].1).unwrap().len();
        assert!(lean < fat, "stream shrank: {lean} < {fat}");
        assert_eq!(wal.replay(50).unwrap().len(), 0);

        // Sealing an empty active segment is a no-op — repeated
        // checkpoints can't accumulate empty segment files.
        wal.seal_active().unwrap();
        wal.seal_active().unwrap();
        assert_eq!(wal.segment_count(), 1);

        // The stream keeps appending and survives a reopen.
        wal.append(51, 1, b"after-seal").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 51);
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"after-seal".to_vec());
    }

    #[test]
    fn truncate_below_drops_whole_segments() {
        let t = TempDir::new("truncate");
        let mut wal = Wal::open_with_segment_bytes(&t.0, "meta", 48).unwrap();
        for seq in 1..=12u64 {
            wal.append(seq, 1, &[0u8; 16]).unwrap();
            wal.commit(SyncPolicy::Never).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        assert!(before >= 3);
        wal.truncate_below(9).unwrap();
        assert!(wal.segment_count() < before);
        // Everything from seq 9 on is still replayable.
        let got = wal.replay(8).unwrap();
        assert_eq!(got.first().unwrap().seq, 9);
        assert_eq!(got.last().unwrap().seq, 12);
        // Truncating everything still keeps the active segment.
        wal.truncate_below(u64::MAX).unwrap();
        assert_eq!(wal.segment_count(), 1);
    }

    #[test]
    fn truncate_after_amputates_the_suffix() {
        let t = TempDir::new("truncate-after");
        let mut wal = Wal::open_with_segment_bytes(&t.0, "meta", 64).unwrap();
        for seq in 1..=10u64 {
            wal.append(seq, 1, &[seq as u8; 12]).unwrap();
            wal.commit(SyncPolicy::Never).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1);

        // Cut mid-stream: records 6..=10 die, including whole segments.
        wal.truncate_after(5).unwrap();
        assert_eq!(wal.last_seq(), 5);
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got.last().unwrap().seq, 5);

        // The stream accepts fresh appends right after the cut, and a
        // reopen sees the amputation as the truth.
        wal.append(6, 2, b"new-six").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let wal = Wal::open_with_segment_bytes(&t.0, "meta", 64).unwrap();
        assert_eq!(wal.last_seq(), 6);
        let got = wal.replay(4).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[1],
            WalRecord {
                seq: 6,
                kind: 2,
                payload: b"new-six".to_vec()
            }
        );

        // Cutting everything empties the stream.
        let mut wal = wal;
        wal.truncate_after(0).unwrap();
        assert_eq!(wal.last_seq(), 0);
        assert!(wal.replay(0).unwrap().is_empty());
        wal.append(1, 1, b"fresh").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.replay(0).unwrap().len(), 1);
    }

    /// The open → replay handoff: the tail segment is read once, at
    /// open time. Proven behaviorally — mutilating the tail file
    /// *after* open must not change what replay returns, because
    /// replay serves the retained open-time copy. After a flush the
    /// retained copy is dropped and replay goes back to the file.
    #[test]
    fn replay_after_open_reads_tail_segment_once() {
        let t = TempDir::new("handoff");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        for seq in 1..=4u64 {
            wal.append(seq, 1, &[seq as u8; 8]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&t.0, "meta").unwrap();
        let (_, path) = wal.segments.last().cloned().unwrap();
        // Zero the whole file behind the Wal's back. A replay that
        // re-read the segment would now see garbage.
        let len = fs::metadata(&path).unwrap().len();
        fs::write(&path, vec![0u8; len as usize]).unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 4, "replay must come from the retained copy");
        assert_eq!(got[3].payload, vec![4u8; 8]);
        // A narrower cut is also served from memory.
        assert_eq!(wal.replay(2).unwrap().len(), 2);

        // Restore the file, append + flush: the retained copy is
        // invalidated and replay reads the (restored + extended) file.
        let mut restore = Vec::new();
        restore.extend_from_slice(&encode_segment_header(1));
        for seq in 1..=4u64 {
            encode_record(&mut restore, seq, 1, &[seq as u8; 8]);
        }
        fs::write(&path, &restore).unwrap();
        wal.append(5, 1, b"tail").unwrap();
        wal.sync().unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[4].payload, b"tail".to_vec());
    }

    /// `truncate_after` must amputate the retained open-time copy in
    /// lockstep with the file, or the next replay would resurrect
    /// dead records from memory.
    #[test]
    fn truncate_after_trims_the_retained_tail_copy() {
        let t = TempDir::new("handoff-truncate");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        for seq in 1..=6u64 {
            wal.append(seq, 1, &[seq as u8; 4]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.truncate_after(3).unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.last().unwrap().seq, 3);
        // And the file agrees after a reopen.
        drop(wal);
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.replay(0).unwrap().len(), 3);
    }

    #[test]
    fn empty_stream_replays_empty() {
        let t = TempDir::new("empty");
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert!(wal.replay(0).unwrap().is_empty());
        assert_eq!(wal.segment_count(), 0);
    }

    // ----- fault injection & edge cases ---------------------------------

    use vp_storage::{FaultPoint, RecordingSleeper};

    fn point(site: &str, op: FaultOp, at: u64, kind: FaultKind) -> FaultPoint {
        FaultPoint {
            site: site.into(),
            op,
            at,
            kind,
        }
    }

    #[test]
    fn zero_length_segment_file_is_discarded_on_open() {
        let t = TempDir::new("zero-len");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.append(1, 1, b"keep").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Crash immediately after the roll's create_new, before the
        // header write: an empty file at the tail.
        let empty = Wal::segment_path(&t.0, "meta", 2);
        fs::write(&empty, b"").unwrap();
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 1);
        assert_eq!(wal.segment_count(), 1);
        assert!(!empty.exists(), "zero-length tail segment removed");
        assert_eq!(wal.replay(0).unwrap().len(), 1);
    }

    #[test]
    fn zero_length_only_segment_leaves_an_empty_stream() {
        let t = TempDir::new("zero-only");
        fs::write(Wal::segment_path(&t.0, "meta", 1), b"").unwrap();
        let wal = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(wal.last_seq(), 0);
        assert_eq!(wal.segment_count(), 0);
        assert!(wal.replay(0).unwrap().is_empty());
    }

    #[test]
    fn failed_fsync_poisons_the_stream() {
        let t = TempDir::new("poison");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        let inj = FaultInjector::new();
        wal.set_fault_injector(inj.clone(), "wal");
        wal.append(1, 1, b"pre").unwrap();
        wal.sync().unwrap(); // sync #0: clean
        wal.append(2, 1, b"doomed").unwrap();
        inj.inject(point("wal", FaultOp::Sync, 1, FaultKind::SyncFail));
        assert!(matches!(wal.sync(), Err(WalError::Poisoned(_))));
        // Everything after the poison refuses to run — including a
        // retry of the sync itself.
        assert!(matches!(wal.append(3, 1, b"x"), Err(WalError::Poisoned(_))));
        assert!(matches!(wal.flush(), Err(WalError::Poisoned(_))));
        assert!(matches!(wal.sync(), Err(WalError::Poisoned(_))));
        assert!(wal.poisoned().is_some());
        // Replay (read-only) still works on the poisoned handle.
        assert!(wal.replay(0).is_ok());
        // A fresh open re-reads the real consistent prefix and
        // resumes: records 1 and 2 were flushed (write succeeded, only
        // the fsync failed) so both may legitimately be present.
        drop(wal);
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        assert!(wal.poisoned().is_none());
        let next = wal.last_seq() + 1;
        wal.append(next, 1, b"resumed").unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn discard_pending_drops_unflushed_appends_and_rewinds_seq() {
        let t = TempDir::new("discard");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        wal.append(1, 1, b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(2, 3, b"tick-part").unwrap();
        wal.append(3, 4, b"tick-commit").unwrap();
        assert!(wal.pending_bytes() > 0);
        wal.discard_pending();
        assert_eq!(wal.pending_bytes(), 0);
        assert_eq!(wal.last_seq(), 1, "rewound to the flushed prefix");
        // The abandoned seqs are reusable by the next tick.
        wal.append(2, 3, b"retried").unwrap();
        wal.sync().unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].payload, b"retried".to_vec());
    }

    #[test]
    fn torn_record_write_amputates_and_stays_retryable() {
        let t = TempDir::new("torn-record");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        let inj = FaultInjector::new();
        wal.set_fault_injector(inj.clone(), "wal");
        wal.set_retry(RetryPolicy::none(), Arc::new(RecordingSleeper::new()));
        wal.append(1, 1, b"committed").unwrap();
        wal.sync().unwrap(); // writes #0 (roll header) and #1 (batch)
        wal.append(2, 1, b"torn-then-fine").unwrap();
        inj.inject(point("wal", FaultOp::Write, 2, FaultKind::Torn { keep: 9 }));
        assert!(matches!(wal.flush(), Err(WalError::Io(_))));
        // The torn prefix was cut back off: a reopened reader sees
        // only the committed prefix...
        let reader = Wal::open(&t.0, "meta").unwrap();
        assert_eq!(reader.replay(0).unwrap().len(), 1);
        drop(reader);
        // ...and the writer still holds the batch: the retry lands it.
        wal.sync().unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].payload, b"torn-then-fine".to_vec());
    }

    #[test]
    fn transient_flush_failure_retries_with_backoff() {
        let t = TempDir::new("retry");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        let inj = FaultInjector::new();
        let sleeper = Arc::new(RecordingSleeper::new());
        wal.set_fault_injector(inj.clone(), "wal");
        wal.set_retry(RetryPolicy::standard(), sleeper.clone());
        wal.append(1, 1, b"eventually").unwrap();
        inj.inject(point("wal", FaultOp::Write, 0, FaultKind::NoSpace));
        wal.sync().unwrap();
        assert_eq!(sleeper.slept().len(), 1, "one backoff before success");
        assert_eq!(wal.replay(0).unwrap().len(), 1);
    }

    #[test]
    fn torn_rollover_header_is_cleaned_up_and_retried() {
        let t = TempDir::new("torn-roll");
        // Tiny segments: the second batch forces a roll.
        let mut wal = Wal::open_with_segment_bytes(&t.0, "meta", 40).unwrap();
        let inj = FaultInjector::new();
        wal.set_fault_injector(inj.clone(), "wal");
        wal.set_retry(RetryPolicy::none(), Arc::new(RecordingSleeper::new()));
        wal.append(1, 1, &[1u8; 24]).unwrap();
        wal.sync().unwrap(); // writes #0 (header) + #1 fill past 40 B
        wal.append(2, 1, b"next-segment").unwrap();
        // Write #2 is the roll-over header of segment 2: tear it.
        inj.inject(point("wal", FaultOp::Write, 2, FaultKind::Torn { keep: 7 }));
        assert!(matches!(wal.flush(), Err(WalError::Io(_))));
        // The half-written segment file was taken down with the error
        // so the retry's create_new cannot collide.
        assert!(!Wal::segment_path(&t.0, "meta", 2).exists());
        assert_eq!(wal.last_seq(), 2, "batch still pending");
        wal.sync().unwrap();
        assert_eq!(wal.segment_count(), 2);
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].payload, b"next-segment".to_vec());
        // A crash-style torn header (file left behind) is also
        // survivable: plant one and reopen.
        drop(wal);
        fs::write(Wal::segment_path(&t.0, "meta", 3), &b"VPWALSE"[..]).unwrap();
        let wal = Wal::open_with_segment_bytes(&t.0, "meta", 40).unwrap();
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(wal.replay(0).unwrap().len(), 2);
    }

    #[test]
    fn enospc_surfaces_as_no_space_and_batch_survives() {
        let t = TempDir::new("enospc");
        let mut wal = Wal::open(&t.0, "meta").unwrap();
        let inj = FaultInjector::new();
        wal.set_fault_injector(inj.clone(), "wal");
        wal.set_retry(RetryPolicy::none(), Arc::new(RecordingSleeper::new()));
        wal.append(1, 1, b"squeezed").unwrap();
        inj.inject(point("wal", FaultOp::Write, 0, FaultKind::NoSpace));
        assert_eq!(wal.flush(), Err(WalError::NoSpace));
        // Space "freed": the same batch lands untouched.
        wal.sync().unwrap();
        let got = wal.replay(0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"squeezed".to_vec());
    }
}
