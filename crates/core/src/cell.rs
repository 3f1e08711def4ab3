//! The writer→reader snapshot handoff used by serving layers.
//!
//! A service front-end (e.g. the `vp-server` crate) keeps exactly one
//! writer thread that owns the `&mut` index and any number of reader
//! threads answering queries from [`IndexSnapshot`](crate::traits::IndexSnapshot)s. The
//! [`SnapshotCell`] is the single point where the two sides meet: the
//! writer [`publish`es](SnapshotCell::publish) a fresh snapshot after
//! every committed tick, readers [`load`](SnapshotCell::load) the
//! current one — an `Arc` bump under a momentary lock, never blocking
//! on query execution or tick application. Readers keep using a loaded
//! snapshot for as long as they like; the storage layer reclaims the
//! page versions a superseded snapshot pins once its last `Arc` drops.

use std::sync::{Arc, Mutex};

use crate::sub::TickDelta;

/// A shared slot holding the most recently published snapshot.
///
/// The lock is held only to swap or clone the `Arc` — queries run
/// entirely outside it — so readers and the writer never contend on
/// anything proportional to the data.
///
/// Alongside the snapshot the cell can carry the [`TickDelta`] of the
/// mutation that produced it ([`SnapshotCell::publish_with_delta`]),
/// so a subscription evaluator reading via
/// [`SnapshotCell::load_with_delta`] sees an atomic (state, change)
/// pair — the delta always describes exactly the step from the
/// previously published snapshot to this one.
pub struct SnapshotCell<S> {
    slot: Mutex<(Arc<S>, Option<Arc<TickDelta>>)>,
}

impl<S> SnapshotCell<S> {
    /// Creates a cell holding `snapshot` as the current view.
    pub fn new(snapshot: S) -> SnapshotCell<S> {
        SnapshotCell {
            slot: Mutex::new((Arc::new(snapshot), None)),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone); the returned
    /// handle stays valid — and keeps answering from its captured
    /// state — even after later [`SnapshotCell::publish`] calls.
    pub fn load(&self) -> Arc<S> {
        Arc::clone(&self.slot.lock().expect("snapshot cell poisoned").0)
    }

    /// The current snapshot plus the delta of the mutation that
    /// published it (`None` when the snapshot was published without
    /// one — initial state, or via [`SnapshotCell::publish`]).
    pub fn load_with_delta(&self) -> (Arc<S>, Option<Arc<TickDelta>>) {
        let slot = self.slot.lock().expect("snapshot cell poisoned");
        (Arc::clone(&slot.0), slot.1.clone())
    }

    /// Replaces the current snapshot. Called by the writer thread
    /// after each committed mutation batch; readers holding the old
    /// snapshot are unaffected. Clears any carried delta.
    pub fn publish(&self, snapshot: S) {
        self.swap((Arc::new(snapshot), None));
    }

    /// Replaces the current snapshot and attaches the change set that
    /// produced it, atomically.
    pub fn publish_with_delta(&self, snapshot: S, delta: TickDelta) {
        self.swap((Arc::new(snapshot), Some(Arc::new(delta))));
    }

    /// Swaps the slot's content under the lock and drops the previous
    /// content after releasing it: if this was the superseded
    /// snapshot's last handle, its teardown (page versions, planner
    /// state) must not stall every reader's `load`.
    fn swap(&self, next: (Arc<S>, Option<Arc<TickDelta>>)) {
        let previous = std::mem::replace(
            &mut *self.slot.lock().expect("snapshot cell poisoned"),
            next,
        );
        drop(previous);
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for SnapshotCell<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_supersedes_but_old_handles_survive() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.publish(vec![4, 5]);
        assert_eq!(*old, vec![1, 2, 3], "held snapshot unaffected");
        assert_eq!(*cell.load(), vec![4, 5], "new loads see the publish");
    }

    #[test]
    fn concurrent_loads_and_publishes() {
        let cell = Arc::new(SnapshotCell::new(0u64));
        std::thread::scope(|s| {
            let c = Arc::clone(&cell);
            s.spawn(move || {
                for i in 1..=100u64 {
                    c.publish(i);
                }
            });
            for _ in 0..4 {
                let c = Arc::clone(&cell);
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let v = *c.load();
                        assert!(v >= last, "published values only move forward");
                        last = v;
                    }
                });
            }
        });
        assert_eq!(*cell.load(), 100);
    }

    #[test]
    fn superseded_snapshot_is_dropped_outside_the_lock() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Weak;

        /// Counts the drops that found the cell's lock free.
        struct Probe {
            cell: Weak<SnapshotCell<Probe>>,
            dropped_unlocked: Arc<AtomicU32>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.upgrade() {
                    if cell.slot.try_lock().is_ok() {
                        self.dropped_unlocked.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }

        let dropped_unlocked = Arc::new(AtomicU32::new(0));
        let probe = |cell: &Weak<SnapshotCell<Probe>>| Probe {
            cell: cell.clone(),
            dropped_unlocked: Arc::clone(&dropped_unlocked),
        };
        let cell = Arc::new_cyclic(|w| SnapshotCell::new(probe(w)));
        let weak = Arc::downgrade(&cell);
        cell.publish(probe(&weak));
        assert_eq!(dropped_unlocked.load(Ordering::SeqCst), 1, "publish");
        cell.publish_with_delta(probe(&weak), TickDelta::from_delete(1, 0.0));
        assert_eq!(
            dropped_unlocked.load(Ordering::SeqCst),
            2,
            "publish_with_delta"
        );
    }

    #[test]
    fn delta_rides_along_with_the_publish() {
        let cell = SnapshotCell::new(vec![1]);
        assert!(cell.load_with_delta().1.is_none(), "initial: no delta");
        cell.publish_with_delta(vec![1, 2], TickDelta::from_delete(9, 4.0));
        let (snap, delta) = cell.load_with_delta();
        assert_eq!(*snap, vec![1, 2]);
        assert_eq!(delta.unwrap().removals, vec![9]);
        // A plain publish clears the carried delta.
        cell.publish(vec![3]);
        assert!(cell.load_with_delta().1.is_none());
    }
}
