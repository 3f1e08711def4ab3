//! Lock-free point-in-time page reads over a versioned
//! [`BufferPool`].
//!
//! A [`PageSnapshot`] pins one committed epoch and serves every page
//! as of that epoch while writers keep mutating the pool and
//! committing later epochs. Pages resident in the cache at snapshot
//! creation are captured up front (by cloning their refcounted
//! buffers, not their bytes) and served **without any shared lock**;
//! pages that were on disk fall back to a locked, memoized read the
//! first time they are touched. Dropping the snapshot releases its
//! epoch so the pool can reclaim the overlay versions it pinned.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::buffer::BufferPool;
use crate::stats::{AtomicIoStats, IoStats};
use crate::{PageId, StorageResult};

/// Read access to pages by id — implemented by the live
/// [`BufferPool`] and by [`PageSnapshot`], so index read paths can be
/// written once and run against either.
pub trait PageRead {
    /// Runs `f` over the contents of page `pid`.
    fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R>;
}

impl PageRead for BufferPool {
    fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        self.with_page(pid, f)
    }
}

/// A consistent view of every page as of one committed epoch.
///
/// Cheap to create (no page copies — captured buffers are shared by
/// refcount) and safe to share across reader threads (`Sync`).
/// Snapshot reads never touch the pool's I/O counters or LRU state:
/// they are invisible to the live workload, and tallied on the
/// snapshot itself ([`PageSnapshot::stats`]).
#[derive(Debug)]
pub struct PageSnapshot {
    pool: Arc<BufferPool>,
    epoch: u64,
    /// Pages resident at creation, served lock-free.
    captured: HashMap<PageId, Arc<Vec<u8>>>,
    /// Pages faulted in from the pool after creation, memoized so each
    /// is resolved (and its shard lock taken) at most once per
    /// snapshot.
    extra: Mutex<HashMap<PageId, Arc<Vec<u8>>>>,
    /// Reads served by this snapshot (relaxed: a statistic).
    stats: AtomicIoStats,
}

impl PageSnapshot {
    /// The committed epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Page reads served by this snapshot so far: every
    /// [`PageSnapshot::with_page`] is a logical read, and one that had
    /// to fetch its version from the disk is also a physical read.
    /// Writes are always zero.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Runs `f` over the contents of page `pid` as of the snapshot
    /// epoch. Errors with [`crate::StorageError::InvalidPage`] when
    /// the page did not exist at that epoch.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        self.stats.bump_logical_reads();
        if let Some(data) = self.captured.get(&pid) {
            return Ok(f(data));
        }
        let memoized = self.extra.lock().unwrap().get(&pid).cloned();
        let data = match memoized {
            Some(data) => data,
            None => {
                let data = self.pool.snapshot_read(pid, self.epoch, &self.stats)?;
                self.extra.lock().unwrap().insert(pid, Arc::clone(&data));
                data
            }
        };
        Ok(f(&data))
    }
}

impl PageRead for PageSnapshot {
    fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        self.with_page(pid, f)
    }
}

impl Drop for PageSnapshot {
    fn drop(&mut self) {
        self.pool.release_reader(self.epoch);
    }
}

impl BufferPool {
    /// Takes a snapshot of the pool at its current committed epoch,
    /// enabling versioning on first use.
    ///
    /// Safe against concurrent writes and commits of later epochs —
    /// with one exception: the **first** call (the one that enables
    /// versioning) must not race an in-flight writer, because writes
    /// issued before the switch freeze no pre-images. Index layers
    /// guarantee this structurally: their write paths take
    /// `&mut self`.
    pub fn page_snapshot(self: &Arc<Self>) -> PageSnapshot {
        self.enable_versioning();
        let (epoch, captured) = self.register_reader();
        PageSnapshot {
            pool: Arc::clone(self),
            epoch,
            captured,
            extra: Mutex::new(HashMap::new()),
            stats: AtomicIoStats::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskManager, StorageError};

    fn pool(cap: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::with_shards(
            DiskManager::with_page_size(32),
            cap,
            1,
        ))
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PageSnapshot>();
    }

    #[test]
    fn unversioned_pool_keeps_empty_overlay() {
        let p = pool(2);
        let a = p.new_page().unwrap();
        for i in 0..8u8 {
            p.with_page_mut(a, |d| d[0] = i).unwrap();
            let _ = p.new_page().unwrap(); // churn / evictions
        }
        assert!(!p.is_versioned());
        assert_eq!(p.overlay_versions(), 0);
        assert_eq!(p.committed_epoch(), 0);
    }

    #[test]
    fn snapshot_sees_pre_write_state() {
        let p = pool(8);
        let a = p.new_page().unwrap();
        let b = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 1).unwrap();
        p.with_page_mut(b, |d| d[0] = 2).unwrap();
        let snap = p.page_snapshot();
        // Writes of the next epoch are invisible to the snapshot but
        // visible to the live pool.
        p.with_page_mut(a, |d| d[0] = 10).unwrap();
        p.with_page_probe_mut(b, |d| {
            d[0] = 20;
            ((), true)
        })
        .unwrap();
        assert_eq!(snap.with_page(a, |d| d[0]).unwrap(), 1);
        assert_eq!(snap.with_page(b, |d| d[0]).unwrap(), 2);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 10);
        // ... and stay invisible after the writes commit.
        p.commit_epoch();
        assert_eq!(snap.with_page(a, |d| d[0]).unwrap(), 1);
        // A fresh snapshot sees the committed writes.
        let snap2 = p.page_snapshot();
        assert_eq!(snap2.with_page(a, |d| d[0]).unwrap(), 10);
        assert_eq!(snap2.with_page(b, |d| d[0]).unwrap(), 20);
    }

    #[test]
    fn snapshot_survives_eviction_of_new_versions() {
        // One frame: every write of the new epoch evicts through disk,
        // yet the snapshot keeps serving pre-images.
        let p = pool(1);
        let pids: Vec<_> = (0..4).map(|_| p.new_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8).unwrap();
        }
        let snap = p.page_snapshot();
        for &pid in &pids {
            p.with_page_mut(pid, |d| d[0] = 0xAA).unwrap();
        }
        p.flush_all().unwrap();
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(snap.with_page(pid, |d| d[0]).unwrap(), i as u8);
            assert_eq!(p.with_page(pid, |d| d[0]).unwrap(), 0xAA);
        }
    }

    #[test]
    fn snapshot_reads_do_not_touch_live_stats() {
        let p = pool(2);
        let pids: Vec<_> = (0..6).map(|_| p.new_page().unwrap()).collect();
        for &pid in &pids {
            p.with_page_mut(pid, |d| d[0] = 7).unwrap();
        }
        let snap = p.page_snapshot();
        let before = p.stats();
        for &pid in &pids {
            snap.with_page(pid, |_| ()).unwrap();
        }
        assert_eq!(p.stats(), before, "snapshot reads are uncounted");
    }

    #[test]
    fn snapshot_tallies_its_own_reads() {
        // Two frames, six pages: four pages are on disk when the
        // snapshot is taken.
        let p = pool(2);
        let pids: Vec<_> = (0..6).map(|_| p.new_page().unwrap()).collect();
        for &pid in &pids {
            p.with_page_mut(pid, |d| d[0] = 7).unwrap();
        }
        let snap = p.page_snapshot();
        assert_eq!(snap.stats(), IoStats::zero());
        for _ in 0..2 {
            for &pid in &pids {
                snap.with_page(pid, |_| ()).unwrap();
            }
        }
        // The second pass is served from the memo: logical only.
        assert_eq!(
            snap.stats(),
            IoStats {
                logical_reads: 12,
                physical_reads: 4,
                ..IoStats::zero()
            }
        );
    }

    #[test]
    fn freed_page_visible_to_older_snapshot_only() {
        let p = pool(8);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 42).unwrap();
        let old = p.page_snapshot();
        p.free_page(a).unwrap();
        p.commit_epoch();
        let newer = p.page_snapshot();
        // The old snapshot still reads the freed page's pre-image; the
        // newer one sees no such page.
        assert_eq!(old.with_page(a, |d| d[0]).unwrap(), 42);
        assert!(matches!(
            newer.with_page(a, |_| ()),
            Err(StorageError::InvalidPage(_))
        ));
        // Reallocation reuses the id with fresh content; the old
        // snapshot is unaffected.
        let b = p.new_page().unwrap();
        assert_eq!(a, b);
        p.with_page_mut(b, |d| d[0] = 9).unwrap();
        assert_eq!(old.with_page(a, |d| d[0]).unwrap(), 42);
        p.commit_epoch();
        let latest = p.page_snapshot();
        assert_eq!(latest.with_page(b, |d| d[0]).unwrap(), 9);
    }

    #[test]
    fn freed_then_evicted_pre_image_comes_from_disk_history() {
        // Page flushed to disk, dropped from cache, then freed: the
        // pre-image has to be rescued from the disk at free time.
        let p = pool(8);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 5).unwrap();
        p.clear_cache().unwrap();
        let snap = p.page_snapshot();
        p.free_page(a).unwrap();
        assert_eq!(snap.with_page(a, |d| d[0]).unwrap(), 5);
    }

    #[test]
    fn overlay_reclaimed_when_readers_drop() {
        let p = pool(8);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 1).unwrap();
        let snap = p.page_snapshot();
        p.with_page_mut(a, |d| d[0] = 2).unwrap();
        assert!(p.overlay_versions() > 0, "pre-image frozen");
        p.commit_epoch();
        assert!(p.overlay_versions() > 0, "reader still pins the old epoch");
        drop(snap);
        assert_eq!(p.overlay_versions(), 0, "last reader reclaims");
    }

    #[test]
    fn pre_images_survive_even_with_no_readers() {
        // An uncommitted write's pre-image must stay: the *next*
        // snapshot (at the still-current committed epoch) needs it.
        let p = pool(8);
        let a = p.new_page().unwrap();
        p.with_page_mut(a, |d| d[0] = 1).unwrap();
        drop(p.page_snapshot()); // enables versioning, then goes away
        p.commit_epoch();
        p.with_page_mut(a, |d| d[0] = 2).unwrap(); // uncommitted
        assert!(p.overlay_versions() > 0);
        let snap = p.page_snapshot();
        assert_eq!(snap.with_page(a, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn concurrent_readers_vs_writer_epochs() {
        // A writer keeps producing epochs while reader threads verify
        // their pinned snapshots never change.
        let p = pool(4);
        let pids: Vec<_> = (0..8).map(|_| p.new_page().unwrap()).collect();
        for &pid in &pids {
            p.with_page_mut(pid, |d| d[0] = 0).unwrap();
        }
        p.page_snapshot(); // enable versioning before the race
        std::thread::scope(|s| {
            for _ in 0..3 {
                let p = Arc::clone(&p);
                let pids = pids.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        let snap = p.page_snapshot();
                        let want = snap.with_page(pids[0], |d| d[0]).unwrap();
                        for &pid in &pids {
                            assert_eq!(snap.with_page(pid, |d| d[0]).unwrap(), want);
                        }
                    }
                });
            }
            s.spawn(|| {
                for round in 1..=30u8 {
                    for &pid in &pids {
                        p.with_page_mut(pid, |d| d[0] = round).unwrap();
                    }
                    p.commit_epoch();
                }
            });
        });
        p.commit_epoch();
        assert_eq!(p.overlay_versions(), 0, "quiescent pool fully reclaimed");
    }
}
