//! # vp-storage — simulated disk pages and an I/O-counting buffer pool
//!
//! Every disk-based index in this workspace (the TPR/TPR\*-tree, the
//! B+-tree under the Bx-tree) stores its nodes in fixed-size pages
//! managed by this crate:
//!
//! * [`DiskManager`] — the disk under the pool, with two backends.
//!   **Memory** (the default): an append-mostly array of fixed-size
//!   pages with a free list — the paper's simulated disk, whose
//!   physical read/write counting every figure reproduction relies
//!   on. **File** ([`DiskManager::create_file`]): a real page file
//!   for the durable configurations, laid out as one header page
//!   followed by the data pages:
//!
//!   ```text
//!   header page (32 bytes used)
//!   +----------------+-------------+----------------+----------------+----------------+
//!   | magic (8B)     | version u32 | page_size u32  | page_count u64 | free_head u64  |
//!   | b"VPDISK01"    |      1      |                |                |                |
//!   +----------------+-------------+----------------+----------------+----------------+
//!   ```
//!
//!   Freed pages thread into an in-file free list through their first
//!   8 bytes. The header (and deferred file shrinking) is written and
//!   fsync'd only by [`DiskManager::sync`] — the checkpoint path — so
//!   the at-rest metadata always describes the last checkpoint; see
//!   [`disk`] for the crash-consistency contract.
//! * [`BufferPool`] — a fixed-capacity page cache with LRU eviction,
//!   sharded into lock-per-shard frame groups so snapshot readers and
//!   the writer access pages concurrently. The paper's experiments use a
//!   50-page buffer over 4 KB pages (Table 1); *query I/O* is the
//!   number of buffer misses, which is exactly what
//!   [`IoStats::physical_reads`] counts.
//! * [`codec`] — bounds-checked little-endian readers/writers used by
//!   the node serializers of the index crates.
//! * [`fault`] — a deterministic [`FaultInjector`] the whole storage
//!   stack (disk, pool, WAL segments, checkpoint publish) consults
//!   before physical operations, injecting EIO / ENOSPC / torn writes
//!   / fsync failures from a seeded, scriptable schedule.
//! * [`retry`] — bounded retry with exponential backoff
//!   ([`with_retry`]) for transient errors, with an injectable
//!   [`Sleeper`] clock; failed fsyncs are never retried.
//!
//! The design goal is faithful *logical* I/O accounting rather than raw
//! speed: every page access goes through the pool, misses hit the
//! simulated disk, and hot top levels of a tree stay resident exactly as
//! they would in the paper's setup (the paper notes non-leaf nodes are
//! typically cached; with LRU this emerges naturally).

pub mod buffer;
pub mod codec;
pub mod disk;
pub mod error;
pub mod fault;
pub mod retry;
pub mod snapshot;
pub mod stats;

pub use buffer::BufferPool;
pub use disk::DiskManager;
pub use error::{StorageError, StorageResult};
pub use fault::{FaultHandle, FaultInjector, FaultKind, FaultOp, FaultPoint, InjectedFault};
pub use retry::{
    with_retry, with_retry_deadline, RecordingSleeper, RetryPolicy, Sleeper, ThreadSleeper,
};
pub use snapshot::{PageRead, PageSnapshot};
pub use stats::{thread_io, AtomicIoStats, IoStats};

/// Default page size in bytes (paper Table 1: 4 KB disk pages).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Default buffer-pool capacity in pages (paper Table 1: 50 pages).
pub const DEFAULT_BUFFER_PAGES: usize = 50;

/// Recommended shard count for concurrent pools
/// ([`BufferPool::with_shards`] clamps it to the capacity so every
/// shard holds at least one frame). Eight lock-per-shard frame groups
/// keep snapshot readers and the writer from contending on one mutex
/// while staying small enough that per-shard LRU still approximates
/// global LRU. Plain [`BufferPool::with_capacity`] stays single-shard
/// so the paper reproductions keep the seed's exact eviction order and
/// I/O counts.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel for "no page" (e.g. absent child pointers).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// True when this is a real page id.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            write!(f, "P{}", self.0)
        } else {
            write!(f, "P<invalid>")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{}", PageId(7)), "P7");
        assert_eq!(format!("{}", PageId::INVALID), "P<invalid>");
    }
}
