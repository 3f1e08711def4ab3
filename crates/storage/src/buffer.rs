//! Fixed-capacity buffer pool, sharded for concurrent access, with
//! per-shard LRU eviction.
//!
//! ## Snapshot versioning (opt-in)
//!
//! The pool can additionally run in **versioned** mode (enabled by the
//! first [`BufferPool::page_snapshot`] or an explicit
//! [`BufferPool::enable_versioning`] call): every frame carries the
//! *epoch* of the version it holds, and the first modification of a
//! page within an epoch first freezes the page's pre-image into a
//! per-shard version overlay. A [`crate::PageSnapshot`] then reads the
//! page state as of a committed epoch while writers keep producing the
//! next one; [`BufferPool::commit_epoch`] publishes the writers' work
//! as the new committed state, and overlay versions are reclaimed as
//! soon as no committed epoch or registered reader can still observe
//! them. The default (unversioned) mode keeps the exact seed
//! behaviour: no overlay, no epoch bookkeeping, identical I/O counts
//! and eviction order.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::disk::DiskManager;
use crate::fault::FaultInjector;
use crate::retry::{with_retry, RetryPolicy, Sleeper, ThreadSleeper};
use crate::stats::{thread_io, AtomicIoStats, IoStats};
use crate::{PageId, StorageError, StorageResult, DEFAULT_BUFFER_PAGES};

// Each access bumps the page's shard counters (the pool-wide view)
// and the calling thread's tally (`thread_io`, the attribution view)
// together.

fn count_logical_read(stats: &AtomicIoStats) {
    stats.bump_logical_reads();
    thread_io::bump(|s| s.logical_reads += 1);
}

fn count_logical_write(stats: &AtomicIoStats) {
    stats.bump_logical_writes();
    thread_io::bump(|s| s.logical_writes += 1);
}

fn count_physical_read(stats: &AtomicIoStats) {
    stats.bump_physical_reads();
    thread_io::bump(|s| s.physical_reads += 1);
}

fn count_physical_write(stats: &AtomicIoStats) {
    stats.bump_physical_writes();
    thread_io::bump(|s| s.physical_writes += 1);
}

/// Runs `f` over a frame with its pin held, clearing the pin even when
/// `f` panics — an unwinding closure must not leave the frame
/// unevictable forever (on a 1-frame shard that would brick every
/// later access to the shard).
fn with_pinned<R>(frame: &mut Frame, f: impl FnOnce(&mut Frame) -> R) -> R {
    frame.pinned = true;
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(frame)));
    frame.pinned = false;
    match out {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A frame holding one cached page.
#[derive(Debug)]
struct Frame {
    pid: PageId,
    /// Page contents. An `Arc` so snapshot machinery can retain a
    /// pre-image by cloning the handle; on the unversioned path the
    /// refcount is always 1 and [`Arc::make_mut`] mutates in place.
    data: Arc<Vec<u8>>,
    dirty: bool,
    /// Last-use tick for LRU. Larger = more recent.
    tick: u64,
    pinned: bool,
    /// The snapshot epoch this frame's contents belong to (0 when the
    /// pool is unversioned or the page predates versioning).
    epoch: u64,
}

/// One retained historical version of a page in a shard's overlay.
///
/// Versions of a page are kept in push order, which is non-decreasing
/// tag order; when two entries share a tag the **later** one is newer
/// (a free + reallocation within one epoch).
#[derive(Debug, Clone)]
enum PageVersion {
    /// The page's contents as of epoch `tag` (a pre-image frozen by
    /// the first overwrite or free in a later epoch).
    Data { tag: u64, data: Arc<Vec<u8>> },
    /// The page was freed in epoch `tag`: snapshots at or after it
    /// (and before any reallocation) must not see the page at all.
    Freed { tag: u64 },
}

impl PageVersion {
    fn tag(&self) -> u64 {
        match self {
            PageVersion::Data { tag, .. } | PageVersion::Freed { tag } => *tag,
        }
    }
}

/// The lock-protected state of one shard: its frames, the page → frame
/// map, and the LRU clock.
#[derive(Debug)]
struct ShardInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    clock: u64,
    capacity: usize,
    /// Copied from the disk at construction so frame growth never
    /// touches the disk mutex.
    page_size: usize,
    /// Historical page versions still observable by some committed
    /// epoch or registered snapshot reader. Empty while the pool is
    /// unversioned.
    overlay: HashMap<PageId, Vec<PageVersion>>,
    /// The epoch of the version each *on-disk* page holds, recorded at
    /// write-back. Pages absent from the map hold epoch-0 (pre-
    /// versioning) content. Entries are removed on free; a missing
    /// entry for a page with overlay history means the page is freed.
    disk_epoch: HashMap<PageId, u64>,
}

/// One shard: a mutex over its frames plus lock-free I/O counters.
#[derive(Debug)]
struct Shard {
    inner: Mutex<ShardInner>,
    stats: AtomicIoStats,
}

impl Shard {
    /// Locks the frames. A page-accessor closure that panics unwinds
    /// through this guard after [`with_pinned`] has cleared its pin, so
    /// the shard stays consistent and the poison flag is ignored.
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A page cache in front of a [`DiskManager`], sharded for concurrency.
///
/// ## Sharding and locking contract
///
/// Frames are split into `N` shards, each guarded by its own mutex;
/// a page always lives in the shard `page_id % N`, so accesses to
/// pages in different shards proceed fully in parallel. LRU state and
/// pinning are **per shard** — eviction picks the least-recently-used
/// unpinned frame *of the page's shard*, never scanning other shards.
/// The backing [`DiskManager`] sits behind its own mutex, touched only
/// on a miss, an eviction write-back, or a flush. Lock order is
/// strictly `shard → disk` (the disk lock is never held while waiting
/// on a shard, and no operation holds two shard locks at once), so the
/// pool is deadlock-free by construction.
///
/// Accessors take closures rather than returning guards: the closure
/// runs with the page's *shard* lock held, which keeps the API
/// misuse-proof (no dangling frames, no double-pin bugs). Concurrent
/// accesses to pages of **different** shards run in parallel; accesses
/// to the same shard serialize on its lock. Pages touched inside a
/// closure are pinned for its duration, and re-entrant page access
/// from within a closure is not supported (it would self-deadlock on
/// the shard lock — and is not needed by the indexes).
///
/// I/O counters are lock-free [`AtomicIoStats`], one set per shard so
/// writers never share a cache line across shards; [`BufferPool::stats`]
/// sums the per-shard snapshots without taking any lock, so the global
/// totals equal the per-shard sums by construction (and exactly so
/// once the pool is quiescent).
#[derive(Debug)]
pub struct BufferPool {
    disk: Mutex<DiskManager>,
    shards: Box<[Shard]>,
    page_size: usize,
    capacity: usize,
    /// Retry policy for write-back I/O (eviction and flush). Transient
    /// disk errors are retried up to the bound; sync failures never.
    retry: RetryPolicy,
    /// Clock behind the retry backoff — injectable so fault tests run
    /// without wall-clock sleeps.
    sleeper: Arc<dyn Sleeper>,
    /// Whether snapshot versioning is on. Off by default; flipped (one
    /// way) by [`BufferPool::enable_versioning`] /
    /// [`BufferPool::page_snapshot`].
    versioned: AtomicBool,
    /// The last committed snapshot epoch. Writers produce epoch
    /// `committed + 1`; [`BufferPool::commit_epoch`] publishes it.
    committed: AtomicU64,
    /// Registered snapshot readers: epoch → reader count. Guarded by
    /// its own mutex; lock order is `readers → shard` (never the
    /// reverse), so epoch registration, release, and pruning can walk
    /// the shards without deadlocking against page accessors (which
    /// take only shard locks).
    readers: Mutex<BTreeMap<u64, usize>>,
}

impl BufferPool {
    /// Creates a pool with the paper's default capacity (50 pages) over
    /// the given disk.
    pub fn new(disk: DiskManager) -> BufferPool {
        BufferPool::with_capacity(disk, DEFAULT_BUFFER_PAGES)
    }

    /// Creates a single-shard pool with an explicit frame capacity
    /// (>= 1): one global LRU order, exactly the seed's semantics —
    /// the physical-I/O numbers of the paper reproductions depend on
    /// it. Concurrent call sites opt into sharding via
    /// [`BufferPool::with_shards`] (typically with
    /// [`crate::DEFAULT_POOL_SHARDS`]).
    pub fn with_capacity(disk: DiskManager, capacity: usize) -> BufferPool {
        BufferPool::with_shards(disk, capacity, 1)
    }

    /// Creates a pool with an explicit frame capacity (>= 1) split
    /// across `shards` lock-per-shard frame groups (>= 1). The shard
    /// count is clamped to the capacity so every shard holds at least
    /// one frame; capacity is distributed as evenly as possible.
    ///
    /// `shards == 1` restores the old single-lock pool exactly — one
    /// global LRU order — which the order-sensitive eviction tests and
    /// the paper-faithful 50-page experiment configuration rely on.
    pub fn with_shards(disk: DiskManager, capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!(shards >= 1, "buffer pool needs at least one shard");
        let n = shards.min(capacity);
        let page_size = disk.page_size();
        let shards: Box<[Shard]> = (0..n)
            .map(|i| {
                // Distribute capacity evenly; the first `capacity % n`
                // shards take the remainder.
                let cap = capacity / n + usize::from(i < capacity % n);
                Shard {
                    inner: Mutex::new(ShardInner {
                        frames: Vec::with_capacity(cap),
                        map: HashMap::with_capacity(cap * 2),
                        clock: 0,
                        capacity: cap,
                        page_size,
                        overlay: HashMap::new(),
                        disk_epoch: HashMap::new(),
                    }),
                    stats: AtomicIoStats::zero(),
                }
            })
            .collect();
        BufferPool {
            disk: Mutex::new(disk),
            shards,
            page_size,
            capacity,
            retry: RetryPolicy::standard(),
            sleeper: Arc::new(ThreadSleeper),
            versioned: AtomicBool::new(false),
            committed: AtomicU64::new(0),
            readers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Replaces the write-back retry policy and backoff clock (tests
    /// inject [`crate::RecordingSleeper`] / [`RetryPolicy::none`]).
    pub fn set_retry(&mut self, policy: RetryPolicy, sleeper: Arc<dyn Sleeper>) {
        self.retry = policy;
        self.sleeper = sleeper;
    }

    /// Attaches a fault injector to the underlying disk under `site`
    /// (see [`crate::fault`]).
    pub fn set_fault_injector(&self, inj: Arc<FaultInjector>, site: impl Into<String>) {
        self.disk.lock().unwrap().set_fault_injector(inj, site);
    }

    /// The page size of the underlying disk.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The total frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a page id maps to.
    #[inline]
    fn shard_for(&self, pid: PageId) -> &Shard {
        &self.shards[(pid.0 % self.shards.len() as u64) as usize]
    }

    /// Snapshot of the global I/O counters: the sum of the per-shard
    /// counters. Lock-free (a handful of relaxed loads per shard).
    pub fn stats(&self) -> IoStats {
        self.shards
            .iter()
            .map(|s| s.stats.snapshot())
            .fold(IoStats::zero(), |a, b| a + b)
    }

    /// Snapshot of one shard's I/O counters. Lock-free; the shard
    /// snapshots sum to [`BufferPool::stats`].
    pub fn shard_stats(&self, shard: usize) -> IoStats {
        self.shards[shard].stats.snapshot()
    }

    /// Resets the I/O counters (not the cache contents).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.stats.reset();
        }
    }

    /// Number of frames currently pinned across all shards. Outside an
    /// accessor closure this is always zero — pins are strictly scoped
    /// to the closure that took them, surviving not even a panic in
    /// the closure (diagnostics / property tests).
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().frames.iter().filter(|f| f.pinned).count())
            .sum()
    }

    // ----- snapshot versioning ------------------------------------------

    /// Switches the pool into versioned (snapshot-capable) mode. A
    /// one-way switch; idempotent. All pre-existing page contents are
    /// treated as epoch 0, which is also the initial committed epoch,
    /// so a snapshot taken immediately afterwards sees exactly the
    /// current state.
    ///
    /// Enabling versioning (or taking a snapshot) must not race
    /// in-flight writers — callers quiesce writes first, which the
    /// index layer gets for free from `&mut self` on its write path.
    pub fn enable_versioning(&self) {
        self.versioned.store(true, Ordering::SeqCst);
    }

    /// Whether snapshot versioning is on.
    pub fn is_versioned(&self) -> bool {
        self.versioned.load(Ordering::SeqCst)
    }

    /// The last committed snapshot epoch (0 until the first
    /// [`BufferPool::commit_epoch`]).
    pub fn committed_epoch(&self) -> u64 {
        self.committed.load(Ordering::SeqCst)
    }

    /// The epoch in-flight writes are tagged with when versioning is
    /// on.
    fn version_ctx(&self) -> Option<u64> {
        if self.versioned.load(Ordering::SeqCst) {
            Some(self.committed.load(Ordering::SeqCst) + 1)
        } else {
            None
        }
    }

    /// Publishes all writes made since the last commit as the new
    /// committed epoch and reclaims overlay versions no snapshot can
    /// still observe. Returns the new committed epoch (0 and a no-op
    /// while the pool is unversioned).
    ///
    /// This is the snapshot **commit point**: a
    /// [`BufferPool::page_snapshot`] taken after this call observes
    /// everything written before it. Like snapshot creation it must
    /// not race in-flight writers on this pool (callers commit from
    /// their write path, which owns the writer exclusively).
    pub fn commit_epoch(&self) -> u64 {
        if !self.is_versioned() {
            return 0;
        }
        // The epoch bump and the prune happen under the readers lock,
        // so a concurrent snapshot registration either lands before
        // (and pins its epoch's versions against this prune) or after
        // (and observes the new epoch) — never in between.
        let readers = self.readers.lock().unwrap();
        let now = self.committed.fetch_add(1, Ordering::SeqCst) + 1;
        self.prune_overlays(&readers, now);
        now
    }

    /// Registers a reader at the current committed epoch and captures
    /// every resident frame already at or below it. Returns the epoch
    /// and the captured pages. Atomic against [`commit_epoch`] (both
    /// serialize on the readers lock).
    ///
    /// [`commit_epoch`]: BufferPool::commit_epoch
    pub(crate) fn register_reader(&self) -> (u64, HashMap<PageId, Arc<Vec<u8>>>) {
        let mut readers = self.readers.lock().unwrap();
        let epoch = self.committed.load(Ordering::SeqCst);
        *readers.entry(epoch).or_insert(0) += 1;
        let mut captured = HashMap::new();
        for shard in self.shards.iter() {
            let g = shard.lock();
            for (&pid, &idx) in &g.map {
                if g.frames[idx].epoch <= epoch {
                    captured.insert(pid, Arc::clone(&g.frames[idx].data));
                }
            }
        }
        (epoch, captured)
    }

    /// Drops one reader registration at `epoch` and reclaims overlay
    /// versions that became unobservable.
    pub(crate) fn release_reader(&self, epoch: u64) {
        let mut readers = self.readers.lock().unwrap();
        match readers.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                readers.remove(&epoch);
            }
        }
        let committed = self.committed.load(Ordering::SeqCst);
        self.prune_overlays(&readers, committed);
    }

    /// Reads the version of `pid` visible at committed epoch `epoch`,
    /// from the cache, the overlay, or the disk. Errors with
    /// [`StorageError::InvalidPage`] when the page did not exist at
    /// that epoch (no committed tree root of that epoch references
    /// such a page, so hitting this is a caller bug).
    ///
    /// Deliberately bypasses the cache and the pool's I/O counters:
    /// snapshot reads install nothing (they must not perturb the live
    /// LRU state), and a disk read is counted on the snapshot's own
    /// `tally`, keeping the pool's counters exactly the live
    /// workload's.
    pub(crate) fn snapshot_read(
        &self,
        pid: PageId,
        epoch: u64,
        tally: &AtomicIoStats,
    ) -> StorageResult<Arc<Vec<u8>>> {
        let shard = self.shard_for(pid);
        let g = shard.lock();
        // Newest overlay version at or below the epoch (later entries
        // of a tag tie are newer).
        let best = g
            .overlay
            .get(&pid)
            .and_then(|vs| vs.iter().rev().find(|v| v.tag() <= epoch));
        // The live version: the cached frame, else the disk contents
        // (tag 0 when the page predates versioning). A page with
        // overlay history but neither a frame nor a disk tag is
        // currently freed — only its overlay may serve it.
        let live_tag = if let Some(&idx) = g.map.get(&pid) {
            Some(g.frames[idx].epoch)
        } else if let Some(&d) = g.disk_epoch.get(&pid) {
            Some(d)
        } else if g.overlay.contains_key(&pid) {
            None
        } else {
            Some(0)
        };
        // The live version wins ties: an overlay entry with the same
        // tag is either an identical flushed pre-image or a free
        // marker superseded by a same-epoch reallocation.
        if let Some(l) = live_tag.filter(|&l| l <= epoch) {
            if best.is_none_or(|v| v.tag() <= l) {
                if let Some(&idx) = g.map.get(&pid) {
                    return Ok(Arc::clone(&g.frames[idx].data));
                }
                let mut buf = vec![0u8; self.page_size];
                self.disk.lock().unwrap().read(pid, &mut buf)?;
                tally.bump_physical_reads();
                return Ok(Arc::new(buf));
            }
        }
        match best {
            Some(PageVersion::Data { data, .. }) => Ok(Arc::clone(data)),
            Some(PageVersion::Freed { .. }) | None => Err(StorageError::InvalidPage(pid)),
        }
    }

    /// Reclaims overlay versions not observable by any registered
    /// reader or by snapshots at the committed epoch. Runs with the
    /// readers lock held (the caller's guard proves it).
    fn prune_overlays(&self, readers: &BTreeMap<u64, usize>, committed: u64) {
        let floor = readers
            .keys()
            .next()
            .copied()
            .unwrap_or(u64::MAX)
            .min(committed);
        for shard in self.shards.iter() {
            shard.lock().prune_overlay(floor);
        }
    }

    /// Total overlay versions retained across all shards (diagnostics
    /// and reclamation tests).
    pub fn overlay_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().overlay.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Allocates a fresh zeroed page, caches it, and returns its id.
    /// The new page is dirty (it must eventually reach the disk).
    pub fn new_page(&self) -> StorageResult<PageId> {
        let ver = self.version_ctx();
        let pid = self.disk.lock().unwrap().allocate()?;
        let shard = self.shard_for(pid);
        let mut g = shard.lock();
        let idx = match g.acquire_frame(
            &self.disk,
            &shard.stats,
            pid,
            self.retry,
            &*self.sleeper,
            ver,
        ) {
            Ok(idx) => idx,
            Err(e) => {
                // Don't leak the just-allocated disk page.
                let _ = self.disk.lock().unwrap().deallocate(pid);
                return Err(e);
            }
        };
        count_logical_write(&shard.stats);
        let f = &mut g.frames[idx];
        f.data = Arc::new(vec![0u8; self.page_size]);
        f.dirty = true;
        f.pinned = false;
        // A freshly allocated page belongs to the in-flight epoch:
        // older snapshots never see it (their committed roots cannot
        // reference it).
        f.epoch = ver.unwrap_or(0);
        Ok(pid)
    }

    /// Frees a page: drops it from the cache and the disk.
    ///
    /// Freeing a page while another thread still accesses it is a
    /// caller bug (as it would be on a real pager); the pool only
    /// guarantees that *subsequent* accesses error.
    pub fn free_page(&self, pid: PageId) -> StorageResult<()> {
        let ver = self.version_ctx();
        let shard = self.shard_for(pid);
        let mut g = shard.lock();
        if let Some(cur) = ver {
            // Snapshots below the current epoch must keep seeing the
            // page: freeze its committed pre-image (from the frame, or
            // from disk when uncached), then mark the free itself.
            match g.map.get(&pid).copied() {
                Some(idx) if g.frames[idx].epoch < cur => {
                    let tag = g.frames[idx].epoch;
                    let data = Arc::clone(&g.frames[idx].data);
                    g.overlay
                        .entry(pid)
                        .or_default()
                        .push(PageVersion::Data { tag, data });
                }
                Some(_) => {}
                None => {
                    let tag = g.disk_epoch.get(&pid).copied().unwrap_or(0);
                    if tag < cur {
                        let mut buf = vec![0u8; self.page_size];
                        // An unreadable page has no pre-image to keep
                        // (the deallocate below reports the bug).
                        if self.disk.lock().unwrap().read(pid, &mut buf).is_ok() {
                            g.overlay.entry(pid).or_default().push(PageVersion::Data {
                                tag,
                                data: Arc::new(buf),
                            });
                        }
                    }
                }
            }
            g.overlay
                .entry(pid)
                .or_default()
                .push(PageVersion::Freed { tag: cur });
            // The disk slot is going away; from here on the overlay is
            // the page's only history until a reallocation.
            g.disk_epoch.remove(&pid);
        }
        if let Some(idx) = g.map.remove(&pid) {
            // Forget the frame contents; mark the slot reusable by
            // pointing it at the invalid pid.
            g.frames[idx].pid = PageId::INVALID;
            g.frames[idx].dirty = false;
        }
        self.disk.lock().unwrap().deallocate(pid)
    }

    /// Runs `f` with read access to the page contents.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let ver = self.version_ctx();
        let shard = self.shard_for(pid);
        let mut g = shard.lock();
        let idx = g.fetch(
            &self.disk,
            &shard.stats,
            pid,
            self.retry,
            &*self.sleeper,
            ver,
        )?;
        Ok(with_pinned(&mut g.frames[idx], |fr| f(&fr.data)))
    }

    /// Runs `f` with write access to the page contents; marks the page
    /// dirty.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> StorageResult<R> {
        let ver = self.version_ctx();
        let shard = self.shard_for(pid);
        let mut g = shard.lock();
        let idx = g.fetch(
            &self.disk,
            &shard.stats,
            pid,
            self.retry,
            &*self.sleeper,
            ver,
        )?;
        if let Some(cur) = ver {
            g.freeze(idx, cur);
        }
        count_logical_write(&shard.stats);
        g.frames[idx].dirty = true;
        Ok(with_pinned(&mut g.frames[idx], |fr| {
            f(Arc::make_mut(&mut fr.data).as_mut_slice())
        }))
    }

    /// Runs `f` with write access to the page contents; the closure
    /// reports whether it actually modified the page, and only then is
    /// the page marked dirty and counted as a logical write. For
    /// fast-path probes that may turn out to be no-ops (e.g. a delete
    /// of an absent key), where unconditional dirtying would inflate
    /// the write metrics and force a pointless flush.
    pub fn with_page_probe_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8]) -> (R, bool),
    ) -> StorageResult<R> {
        let ver = self.version_ctx();
        let shard = self.shard_for(pid);
        let mut g = shard.lock();
        let idx = g.fetch(
            &self.disk,
            &shard.stats,
            pid,
            self.retry,
            &*self.sleeper,
            ver,
        )?;
        // The pre-image must be pinned down *before* the probe runs,
        // but frozen into the overlay only if the probe modified —
        // clone the handle now, publish it after.
        let pre = ver.map(|_| (Arc::clone(&g.frames[idx].data), g.frames[idx].epoch));
        let (out, modified) = with_pinned(&mut g.frames[idx], |fr| {
            f(Arc::make_mut(&mut fr.data).as_mut_slice())
        });
        if modified {
            g.frames[idx].dirty = true;
            count_logical_write(&shard.stats);
            if let (Some(cur), Some((data, tag))) = (ver, pre) {
                if tag < cur {
                    g.frames[idx].epoch = cur;
                    g.overlay
                        .entry(pid)
                        .or_default()
                        .push(PageVersion::Data { tag, data });
                }
            }
        }
        Ok(out)
    }

    /// Writes all dirty pages back to the disk.
    pub fn flush_all(&self) -> StorageResult<()> {
        let ver = self.version_ctx();
        for shard in self.shards.iter() {
            shard
                .lock()
                .flush(&self.disk, &shard.stats, self.retry, &*self.sleeper, ver)?;
        }
        Ok(())
    }

    /// The checkpoint path: flushes every dirty shard and then forces
    /// the disk itself — pages, page count, free list — to stable
    /// storage ([`DiskManager::sync`]; a no-op on the in-memory
    /// backend). After this returns, the on-disk page file is a
    /// self-consistent snapshot that a crashed process can reopen.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.flush_all()?;
        self.disk.lock().unwrap().sync()
    }

    /// Drops every cached page (flushing dirty ones), so the next access
    /// to any page is a miss. Used between experiment phases to cold-start
    /// the cache. Each shard is flushed *and* dropped under one lock
    /// acquisition, so a concurrent writer can never dirty a frame in
    /// the window between the flush and the drop.
    pub fn clear_cache(&self) -> StorageResult<()> {
        let ver = self.version_ctx();
        for shard in self.shards.iter() {
            let mut g = shard.lock();
            g.flush(&self.disk, &shard.stats, self.retry, &*self.sleeper, ver)?;
            g.map.clear();
            g.frames.clear();
        }
        Ok(())
    }

    /// Number of live pages on the underlying disk.
    pub fn live_pages(&self) -> usize {
        self.disk.lock().unwrap().live_pages()
    }
}

impl ShardInner {
    /// Freezes the pre-image of frame `idx` into the overlay before
    /// its first modification in epoch `cur` (no-op when the frame is
    /// already at `cur`).
    fn freeze(&mut self, idx: usize, cur: u64) {
        let f = &mut self.frames[idx];
        if f.epoch < cur {
            let tag = f.epoch;
            let data = Arc::clone(&f.data);
            f.epoch = cur;
            self.overlay
                .entry(f.pid)
                .or_default()
                .push(PageVersion::Data { tag, data });
        }
    }

    /// Drops overlay versions invisible to every epoch at or above
    /// `floor` (the smaller of the committed epoch and the oldest
    /// registered reader). A version is invisible exactly when its
    /// successor — the next overlay version, else the newer live
    /// version — is itself at or below the floor.
    fn prune_overlay(&mut self, floor: u64) {
        let map = &self.map;
        let frames = &self.frames;
        let disk_epoch = &self.disk_epoch;
        self.overlay.retain(|pid, versions| {
            let live_tag = if let Some(&idx) = map.get(pid) {
                Some(frames[idx].epoch)
            } else {
                disk_epoch.get(pid).copied()
            };
            let mut keep = Vec::with_capacity(versions.len());
            for (j, v) in versions.iter().enumerate() {
                let succ = match versions.get(j + 1) {
                    Some(next) => next.tag(),
                    // The last entry is superseded only by a strictly
                    // newer live version; a freed page's stale disk
                    // tag never supersedes its own history.
                    None => match live_tag {
                        Some(l) if l > v.tag() => l,
                        _ => u64::MAX,
                    },
                };
                if succ > floor {
                    keep.push(v.clone());
                }
            }
            *versions = keep;
            !versions.is_empty()
        });
    }

    /// Writes this shard's dirty frames back to disk. Runs under the
    /// shard lock held by the caller.
    fn flush(
        &mut self,
        disk: &Mutex<DiskManager>,
        stats: &AtomicIoStats,
        retry: RetryPolicy,
        sleeper: &dyn Sleeper,
        ver: Option<u64>,
    ) -> StorageResult<()> {
        for idx in 0..self.frames.len() {
            if self.frames[idx].pid.is_valid() && self.frames[idx].dirty {
                let pid = self.frames[idx].pid;
                // Transient write errors retry with backoff; on final
                // failure the frame stays cached *and dirty*, so no
                // update is lost and a later flush can still succeed.
                let data = Arc::clone(&self.frames[idx].data);
                with_retry(retry, sleeper, || disk.lock().unwrap().write(pid, &data))?;
                self.frames[idx].dirty = false;
                if ver.is_some() {
                    // The disk now holds this frame's version.
                    let e = self.frames[idx].epoch;
                    self.disk_epoch.insert(pid, e);
                }
                count_physical_write(stats);
            }
        }
        Ok(())
    }

    /// Returns the frame index holding `pid`, reading it from disk on a
    /// miss (counted as a physical read).
    fn fetch(
        &mut self,
        disk: &Mutex<DiskManager>,
        stats: &AtomicIoStats,
        pid: PageId,
        retry: RetryPolicy,
        sleeper: &dyn Sleeper,
        ver: Option<u64>,
    ) -> StorageResult<usize> {
        count_logical_read(stats);
        self.clock += 1;
        if let Some(&idx) = self.map.get(&pid) {
            self.frames[idx].tick = self.clock;
            return Ok(idx);
        }
        let idx = self.acquire_frame(disk, stats, pid, retry, sleeper, ver)?;
        // Miss: load from disk. The recycled frame's buffer may still
        // be shared with a retained snapshot version — give the frame
        // a fresh one rather than copying contents we are about to
        // overwrite.
        if Arc::get_mut(&mut self.frames[idx].data).is_none() {
            self.frames[idx].data = Arc::new(vec![0u8; self.page_size]);
        }
        let buf = Arc::get_mut(&mut self.frames[idx].data).expect("frame buffer is unshared");
        let res = disk.lock().unwrap().read(pid, buf.as_mut_slice());
        if let Err(e) = res {
            // The frame was already registered for `pid`; un-register
            // it, or the next access would hit garbage data. (The
            // pre-shard pool had this hole too: a failed read cached
            // the dead page.)
            self.map.remove(&pid);
            self.frames[idx].pid = PageId::INVALID;
            self.frames[idx].dirty = false;
            return Err(e);
        }
        // The frame now holds whatever version the disk held.
        self.frames[idx].epoch = match ver {
            Some(_) => self.disk_epoch.get(&pid).copied().unwrap_or(0),
            None => 0,
        };
        count_physical_read(stats);
        Ok(idx)
    }

    /// Finds a frame for `pid`: an unused slot, a new slot under
    /// capacity, or the shard's LRU victim (flushed if dirty).
    /// Registers the mapping and bumps the tick.
    ///
    /// Eviction never loses a page: when the LRU victim's write-back
    /// fails even after retries, that frame stays cached *and dirty*
    /// and the next-least-recently-used unpinned frame is tried
    /// instead (a clean one needs no I/O and always succeeds). Only
    /// when every candidate fails does the error surface — and even
    /// then all dirty pages are still resident for a later flush.
    fn acquire_frame(
        &mut self,
        disk: &Mutex<DiskManager>,
        stats: &AtomicIoStats,
        pid: PageId,
        retry: RetryPolicy,
        sleeper: &dyn Sleeper,
        ver: Option<u64>,
    ) -> StorageResult<usize> {
        self.clock += 1;
        // Reuse a tombstoned frame, or grow under capacity — neither
        // needs an eviction.
        let mut victim: Option<usize> = self.frames.iter().position(|f| !f.pid.is_valid());
        if victim.is_none() && self.frames.len() < self.capacity {
            self.frames.push(Frame {
                pid: PageId::INVALID,
                data: Arc::new(vec![0u8; self.page_size]),
                dirty: false,
                tick: 0,
                pinned: false,
                epoch: 0,
            });
            victim = Some(self.frames.len() - 1);
        }
        if let Some(idx) = victim {
            return Ok(self.install(idx, pid));
        }
        // LRU order over unpinned frames. Shard capacities are small
        // so sorting a scratch index list is both simple and fast.
        // The first candidate is exactly the victim the pre-fault
        // pool picked, so eviction order — and the paper's physical
        // I/O counts — are unchanged on the no-failure path.
        let mut candidates: Vec<usize> = (0..self.frames.len())
            .filter(|&i| !self.frames[i].pinned)
            .collect();
        candidates.sort_by_key(|&i| self.frames[i].tick);
        let mut last_err: Option<StorageError> = None;
        for idx in candidates {
            if self.frames[idx].dirty {
                let old_pid = self.frames[idx].pid;
                let data = Arc::clone(&self.frames[idx].data);
                let res = with_retry(retry, sleeper, || {
                    disk.lock().unwrap().write(old_pid, &data)
                });
                match res {
                    Ok(()) => {
                        if ver.is_some() {
                            let e = self.frames[idx].epoch;
                            self.disk_epoch.insert(old_pid, e);
                        }
                        count_physical_write(stats)
                    }
                    Err(e) => {
                        // Victim stays cached and dirty; try the next
                        // least-recently-used frame.
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            self.map.remove(&self.frames[idx].pid);
            return Ok(self.install(idx, pid));
        }
        Err(last_err.unwrap_or(StorageError::PoolExhausted))
    }

    /// Points frame `idx` at `pid` (clean, freshly ticked) and
    /// registers the mapping.
    fn install(&mut self, idx: usize, pid: PageId) -> usize {
        self.frames[idx].pid = pid;
        self.frames[idx].dirty = false;
        self.frames[idx].tick = self.clock;
        self.frames[idx].epoch = 0;
        self.map.insert(pid, idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-shard pool: exact global LRU order, as the seed had.
    fn pool(cap: usize) -> BufferPool {
        BufferPool::with_shards(DiskManager::with_page_size(32), cap, 1)
    }

    fn sharded(cap: usize, shards: usize) -> BufferPool {
        BufferPool::with_shards(DiskManager::with_page_size(32), cap, shards)
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }

    #[test]
    fn new_page_read_write() {
        let p = pool(4);
        let pid = p.new_page().unwrap();
        p.with_page_mut(pid, |d| d[0] = 42).unwrap();
        let v = p.with_page(pid, |d| d[0]).unwrap();
        assert_eq!(v, 42);
        // Both accesses were hits (page was created in cache).
        let s = p.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 0);
    }

    #[test]
    fn eviction_counts_misses_lru_order() {
        let p = pool(2);
        let a = p.new_page().unwrap();
        let b = p.new_page().unwrap();
        let c = p.new_page().unwrap(); // evicts LRU = a
        p.with_page(b, |_| ()).unwrap(); // hit
        p.with_page(c, |_| ()).unwrap(); // hit
        assert_eq!(p.stats().physical_reads, 0);
        p.with_page(a, |_| ()).unwrap(); // miss: a was evicted
        assert_eq!(p.stats().physical_reads, 1);
        // a's load evicted b (LRU after b/c touches... b touched before c,
        // so b is LRU): touching b again must miss.
        p.with_page(b, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 2);
        // c remained resident through a's load? c was evicted only if it
        // was LRU; it wasn't. But b's reload evicted c.
        p.with_page(c, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 3);
    }

    #[test]
    fn probe_mut_only_dirties_on_modification() {
        let p = pool(4);
        let a = p.new_page().unwrap();
        p.flush_all().unwrap();
        let w0 = p.stats();
        // A probe that backs off: no dirty mark, no write counted.
        p.with_page_probe_mut(a, |_d| ((), false)).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.stats().physical_writes, w0.physical_writes);
        assert_eq!(p.stats().logical_writes, w0.logical_writes);
        // A probe that commits: counted and flushed.
        p.with_page_probe_mut(a, |d| {
            d[0] = 9;
            ((), true)
        })
        .unwrap();
        assert_eq!(p.stats().logical_writes, w0.logical_writes + 1);
        p.flush_all().unwrap();
        assert_eq!(p.stats().physical_writes, w0.physical_writes + 1);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let p = pool(1);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[5] = 99).unwrap();
        // Force eviction by touching another page.
        let b = p.new_page().unwrap();
        p.with_page(b, |_| ()).unwrap();
        // Re-read a: must come back from disk with the write intact.
        let v = p.with_page(a, |d| d[5]).unwrap();
        assert_eq!(v, 99);
        assert!(p.stats().physical_writes >= 1);
    }

    #[test]
    fn flush_all_persists_and_clears_dirty() {
        let p = pool(4);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 7).unwrap();
        p.flush_all().unwrap();
        let w = p.stats().physical_writes;
        // Second flush writes nothing new.
        p.flush_all().unwrap();
        assert_eq!(p.stats().physical_writes, w);
    }

    #[test]
    fn clear_cache_cold_starts() {
        let p = pool(4);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[1] = 5).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        let v = p.with_page(a, |d| d[1]).unwrap();
        assert_eq!(v, 5);
        assert_eq!(p.stats().physical_reads, 1, "cold read after clear");
    }

    #[test]
    fn free_page_invalidates() {
        let p = pool(4);
        let a = p.new_page().unwrap();
        p.free_page(a).unwrap();
        assert!(p.with_page(a, |_| ()).is_err());
        // Freed slot reused by next allocation.
        let b = p.new_page().unwrap();
        assert_eq!(a, b);
        assert_eq!(p.live_pages(), 1);
    }

    #[test]
    fn stats_reset() {
        let p = pool(2);
        let a = p.new_page().unwrap();
        p.with_page(a, |_| ()).unwrap();
        assert!(p.stats().logical_reads > 0);
        p.reset_stats();
        assert_eq!(p.stats(), IoStats::zero());
        assert_eq!(p.shard_stats(0), IoStats::zero());
    }

    #[test]
    fn many_pages_round_trip_through_small_pool() {
        let p = pool(3);
        let pids: Vec<PageId> = (0..20).map(|_| p.new_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8).unwrap();
        }
        for (i, &pid) in pids.iter().enumerate() {
            let v = p.with_page(pid, |d| d[0]).unwrap();
            assert_eq!(v, i as u8);
        }
    }

    // ----- sharded behaviour --------------------------------------------

    #[test]
    fn shard_count_clamps_to_capacity() {
        assert_eq!(sharded(3, 8).shards(), 3);
        assert_eq!(sharded(16, 4).shards(), 4);
        assert_eq!(sharded(50, 8).capacity(), 50);
        // The plain constructors stay single-shard (seed-exact LRU).
        let p = BufferPool::with_capacity(DiskManager::with_page_size(32), 64);
        assert_eq!(p.shards(), 1);
    }

    #[test]
    fn pages_spread_across_shards() {
        let p = sharded(16, 4);
        let pids: Vec<PageId> = (0..16).map(|_| p.new_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8).unwrap();
        }
        // Sequential page ids round-robin over shards, so every shard
        // saw traffic.
        for s in 0..p.shards() {
            assert!(
                p.shard_stats(s).logical_reads > 0,
                "shard {s} saw no traffic"
            );
        }
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(p.with_page(pid, |d| d[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn totals_equal_shard_sums() {
        let p = sharded(8, 4);
        let pids: Vec<PageId> = (0..32).map(|_| p.new_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[1] = i as u8).unwrap();
        }
        for &pid in &pids {
            p.with_page(pid, |_| ()).unwrap();
        }
        p.flush_all().unwrap();
        let sum = (0..p.shards())
            .map(|s| p.shard_stats(s))
            .fold(IoStats::zero(), |a, b| a + b);
        assert_eq!(p.stats(), sum);
    }

    #[test]
    fn sharded_round_trip_with_eviction() {
        // 2 frames per shard, 10 pages per shard: heavy eviction in
        // every shard, nothing may be lost.
        let p = sharded(8, 4);
        let pids: Vec<PageId> = (0..40).map(|_| p.new_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| {
                d[0] = i as u8;
                d[31] = !(i as u8);
            })
            .unwrap();
        }
        for (i, &pid) in pids.iter().enumerate() {
            let (a, b) = p.with_page(pid, |d| (d[0], d[31])).unwrap();
            assert_eq!(a, i as u8);
            assert_eq!(b, !(i as u8));
        }
    }

    // ----- fault injection ----------------------------------------------

    use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPoint};
    use crate::retry::{RecordingSleeper, RetryPolicy};

    /// Write-op counter layout in these tests (single-shard pool):
    /// `new_page` consumes one write check for the disk allocation,
    /// then eviction write-backs consume one each.
    fn faulty_pool(cap: usize) -> (BufferPool, Arc<FaultInjector>) {
        let mut p = BufferPool::with_shards(DiskManager::with_page_size(32), cap, 1);
        p.set_retry(RetryPolicy::none(), Arc::new(RecordingSleeper::new()));
        let inj = FaultInjector::new();
        p.set_fault_injector(inj.clone(), "disk");
        (p, inj)
    }

    #[test]
    fn failed_victim_flush_picks_another_victim_and_keeps_page_dirty() {
        let (p, inj) = faulty_pool(2);
        let a = p.new_page().unwrap(); // write #0 (alloc)
        let b = p.new_page().unwrap(); // write #1 (alloc)
        p.with_page_mut(a, |d| d[0] = 42).unwrap();
        p.with_page_mut(b, |d| d[0] = 43).unwrap();
        // Next page: alloc = write #2, then the eviction of LRU victim
        // `a` = write #3 — which we fail.
        inj.inject(FaultPoint {
            site: "disk".into(),
            op: FaultOp::Write,
            at: 3,
            kind: FaultKind::Eio,
        });
        let c = p.new_page().unwrap();
        assert_eq!(inj.fired_count(), 1, "the eviction write-back failed");
        // `b` was evicted instead (write #4 succeeded); `a` must still
        // be cached and dirty — reading it is a hit with the data
        // intact.
        let r0 = p.stats().physical_reads;
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 42);
        assert_eq!(p.stats().physical_reads, r0, "a stayed resident");
        // Nothing was lost: a later flush persists `a`, and everything
        // reads back after a cold start.
        p.clear_cache().unwrap();
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 42);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 43);
        p.with_page(c, |_| ()).unwrap();
    }

    #[test]
    fn all_victims_failing_surfaces_error_without_losing_pages() {
        let (p, inj) = faulty_pool(2);
        let a = p.new_page().unwrap();
        let b = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 7).unwrap();
        p.with_page_mut(b, |d| d[0] = 8).unwrap();
        // Fail both candidate write-backs (#3 = a, #4 = b).
        for at in [3, 4] {
            inj.inject(FaultPoint {
                site: "disk".into(),
                op: FaultOp::Write,
                at,
                kind: FaultKind::Eio,
            });
        }
        assert!(matches!(p.new_page(), Err(StorageError::Io(_))));
        // Both dirty pages survived the failed eviction attempts.
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 7);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 8);
        // And the schedule is spent, so recovery is immediate.
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 7);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 8);
    }

    #[test]
    fn transient_flush_failures_retry_with_backoff() {
        let mut p = BufferPool::with_shards(DiskManager::with_page_size(32), 2, 1);
        let sleeper = Arc::new(RecordingSleeper::new());
        p.set_retry(RetryPolicy::standard(), sleeper.clone());
        let inj = FaultInjector::new();
        p.set_fault_injector(inj.clone(), "disk");
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 5).unwrap();
        // First flush attempt fails (write #1 after alloc #0), the
        // bounded retry succeeds.
        inj.inject(FaultPoint {
            site: "disk".into(),
            op: FaultOp::Write,
            at: 1,
            kind: FaultKind::NoSpace,
        });
        p.flush_all().unwrap();
        assert_eq!(sleeper.slept().len(), 1, "one backoff sleep");
        p.clear_cache().unwrap();
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 5);
    }

    #[test]
    fn torn_page_write_surfaces_error_and_page_stays_dirty() {
        let (p, inj) = faulty_pool(2);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d.fill(0xEE)).unwrap();
        inj.inject(FaultPoint {
            site: "disk".into(),
            op: FaultOp::Write,
            at: 1,
            kind: FaultKind::Torn { keep: 10 },
        });
        assert!(p.flush_all().is_err(), "torn write reports failure");
        // The frame is still dirty: the retry-capable caller can flush
        // again and the full page lands.
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        assert!(p
            .with_page(a, |d| d.to_vec())
            .unwrap()
            .iter()
            .all(|&x| x == 0xEE));
    }

    #[test]
    fn concurrent_disjoint_pages_round_trip() {
        let p = sharded(16, 8);
        // Pre-allocate so threads only read/write (allocation order
        // stays deterministic).
        let pids: Vec<PageId> = (0..64).map(|_| p.new_page().unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let p = &p;
                let pids = &pids;
                s.spawn(move || {
                    for round in 0..8u8 {
                        for (i, &pid) in pids.iter().enumerate().skip(t).step_by(4) {
                            p.with_page_mut(pid, |d| {
                                d[2] = i as u8;
                                d[3] = round;
                            })
                            .unwrap();
                            let v = p.with_page(pid, |d| d[2]).unwrap();
                            assert_eq!(v, i as u8);
                        }
                    }
                });
            }
        });
        assert_eq!(p.pinned_frames(), 0, "pins must not leak");
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(p.with_page(pid, |d| d[2]).unwrap(), i as u8);
        }
        // Quiescent: global totals match the per-shard sums.
        let sum = (0..p.shards())
            .map(|s| p.shard_stats(s))
            .fold(IoStats::zero(), |a, b| a + b);
        assert_eq!(p.stats(), sum);
    }
}
