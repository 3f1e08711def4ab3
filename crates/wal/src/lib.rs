//! # vp-wal — a segmented, checksummed, append-only log
//!
//! The durability substrate of the workspace: the VP index manager
//! (`vp-core`) logs every committed tick batch through this crate and
//! replays the log after a crash. The log is deliberately generic —
//! records are `(seq, kind, payload)` triples with opaque payloads —
//! so the record vocabulary lives with the layer that owns the data
//! model, not here.
//!
//! ## On-disk format
//!
//! A log *stream* is a directory of segment files named
//! `<prefix>-<first_seq:016x>.seg`. Every segment starts with a fixed
//! header and is followed by back-to-back records:
//!
//! ```text
//! segment header (24 bytes)
//! +----------------+-------------+--------------+----------------+
//! | magic (8B)     | version u32 | reserved u32 | first_seq u64  |
//! | b"VPWALSEG"    |     1       |      0       |                |
//! +----------------+-------------+--------------+----------------+
//!
//! record (17-byte header + payload)
//! +---------+---------+---------+---------+------------------+
//! | len u32 | crc u32 | seq u64 | kind u8 | payload (len B)  |
//! +---------+---------+---------+---------+------------------+
//!            \________ crc32 covers seq ‖ kind ‖ payload ____/
//! ```
//!
//! All integers are little-endian. `len` is the payload length alone.
//! The CRC is the IEEE CRC-32 over everything after itself, so a torn
//! or bit-rotted record is detected and treated as the end of the
//! stream ("consistent prefix" semantics — exactly the contract crash
//! recovery wants for the *tail*, and the strictest detection possible
//! without page-level versioning for the middle).
//!
//! ## Group commit
//!
//! [`Wal::append`] only buffers in process memory; nothing reaches the
//! operating system until [`Wal::commit`] (or [`Wal::flush`]) writes
//! the whole pending batch with a single `write` call, and nothing is
//! crash-durable until the file is fsync'd. [`SyncPolicy`] picks the
//! trade-off: [`SyncPolicy::Always`] fsyncs every commit (no committed
//! record is ever lost), [`SyncPolicy::Never`] leaves persistence to
//! the OS page cache (a process crash loses nothing, an OS crash can
//! lose the tail). `vpbench`'s `wal.commit_us_sync` and
//! `wal.commit_us_nosync` measure the gap.
//!
//! ## Sequence numbers
//!
//! Callers assign strictly increasing `seq` numbers; the VP manager
//! stamps every logged event on its one stream with the next one.
//! Segments are named by the first seq they hold, which makes
//! checkpoint truncation
//! ([`Wal::truncate_below`]) a pure directory operation: drop every
//! segment whose successor starts at or below the checkpoint.
//!
//! ## Recovery reads each byte once
//!
//! Opening a stream validates the tail segment (truncating a torn
//! tail in place) and **retains the records it decoded**; the first
//! [`Wal::replay`] after open serves that segment from the retained
//! copy instead of re-reading the file, so a cold start over a long
//! un-checkpointed tail costs one read of the tail, not two. The copy
//! is dropped the moment the file could diverge from it (first flush,
//! or a [`Wal::truncate_after`] amputation trims it in lockstep).

mod log;
mod record;

pub use log::{Wal, DEFAULT_SEGMENT_BYTES};
pub use record::{crc32, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SEGMENT_VERSION};

/// When the log forces its buffered bytes down to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` on every commit: a committed record survives OS crash
    /// and power loss. The durable default.
    Always,
    /// Flush to the OS on commit but never `fsync`: survives process
    /// crashes; an OS crash may lose the most recent commits. Fastest.
    Never,
    /// Cross-tick group commit: flush on every commit, but the fsync
    /// is issued by the *owner* of the log (the VP index manager) only
    /// on every n-th tick boundary, amortizing the dominant fsync cost
    /// over n ticks. An OS crash can lose at most the ticks since the
    /// last boundary. At the log layer this behaves like
    /// [`SyncPolicy::Never`]; the tick cadence lives with the caller,
    /// which escalates boundary commits to a sync.
    EveryTicks(u32),
}

impl SyncPolicy {
    /// Stable five-byte encoding (manifest files): a tag byte plus a
    /// little-endian u32 parameter (zero for the parameterless
    /// policies).
    pub fn to_bytes(self) -> [u8; 5] {
        let (tag, n) = match self {
            SyncPolicy::Always => (0u8, 0u32),
            SyncPolicy::Never => (1, 0),
            SyncPolicy::EveryTicks(n) => (2, n),
        };
        let mut out = [0u8; 5];
        out[0] = tag;
        out[1..].copy_from_slice(&n.to_le_bytes());
        out
    }

    /// Inverse of [`SyncPolicy::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 5]) -> Result<SyncPolicy, WalError> {
        let n = u32::from_le_bytes(bytes[1..].try_into().expect("4 bytes"));
        match (bytes[0], n) {
            (0, _) => Ok(SyncPolicy::Always),
            (1, _) => Ok(SyncPolicy::Never),
            (2, n) if n >= 1 => Ok(SyncPolicy::EveryTicks(n)),
            (2, _) => Err(WalError::Corrupt("EveryTicks(0) sync policy".into())),
            (b, _) => Err(WalError::Corrupt(format!("unknown sync policy byte {b}"))),
        }
    }
}

/// Errors surfaced by log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// A segment or record failed validation (bad magic, CRC mismatch
    /// in a non-tail position, out-of-order sequence numbers, ...).
    Corrupt(String),
    /// The device is out of space (`ENOSPC`). Transient: the pending
    /// batch stays buffered for a retry once space is reclaimed.
    NoSpace,
    /// The stream is poisoned after a failed fsync. Per fsyncgate
    /// semantics the kernel may have dropped the dirty pages it could
    /// not write, so the durability of everything since the last
    /// successful sync is unknown — the stream refuses all further
    /// appends/flushes; only a fresh open (which re-reads the file's
    /// actual consistent prefix) can resume the stream.
    Poisoned(String),
}

impl WalError {
    /// Whether a bounded retry of the same operation is sound. A
    /// poisoned stream is never retryable.
    pub fn is_transient(&self) -> bool {
        matches!(self, WalError::Io(_) | WalError::NoSpace)
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::NoSpace => write!(f, "wal device out of space (ENOSPC)"),
            WalError::Poisoned(msg) => {
                write!(f, "wal stream poisoned by failed fsync: {msg}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        if e.raw_os_error() == Some(28) {
            WalError::NoSpace
        } else {
            WalError::Io(e.to_string())
        }
    }
}

impl From<vp_storage::StorageError> for WalError {
    fn from(e: vp_storage::StorageError) -> Self {
        match e {
            vp_storage::StorageError::NoSpace => WalError::NoSpace,
            vp_storage::StorageError::SyncFailed(msg) => WalError::Poisoned(msg),
            vp_storage::StorageError::Io(msg) => WalError::Io(msg),
            other => WalError::Io(other.to_string()),
        }
    }
}

/// Result alias for log operations.
pub type WalResult<T> = Result<T, WalError>;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Caller-assigned, strictly increasing within a stream.
    pub seq: u64,
    /// Caller-defined record type tag.
    pub kind: u8,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}
