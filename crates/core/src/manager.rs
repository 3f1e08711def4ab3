//! The index manager — routing and querying of partitioned indexes
//! (Sections 5.3–5.5, Algorithm 3).
//!
//! [`VpIndex`] owns one sub-index per DVA plus one outlier sub-index.
//! Each DVA sub-index stores objects in the DVA's rotated coordinate
//! [`Frame`]; the outlier index uses world coordinates. The manager:
//!
//! * routes an insertion to the DVA whose axis is closest (by
//!   perpendicular velocity distance) to the object's velocity, unless
//!   that distance exceeds the partition's τ — then to the outlier
//!   index;
//! * applies whole ticks of updates partition-bucketed, one batched
//!   removal and upsert per touched partition, in partition order on
//!   the calling thread ([`VpIndex::apply_updates`]); an object whose
//!   direction of travel changed partitions migrates as a removal from
//!   its old partition plus an upsert into its new one, and a single
//!   insert, delete or update is a one-object tick down the same path;
//! * executes range queries by transforming the query into every DVA
//!   frame (Algorithm 3), running the underlying index's query, and
//!   exact-filtering the merged candidates in world space — written
//!   once, in `VpView`, through which both `VpIndex` and its
//!   [`VpSnapshot`] answer every query;
//! * maintains online perpendicular-speed histograms so τ can be
//!   recomputed cheaply as speed distributions drift (Section 5.5,
//!   [`VpIndex::refresh_tau`]).
//!
//! `VpIndex` itself implements [`MovingObjectIndex`], so a partitioned
//! index is a drop-in replacement for its unpartitioned counterpart.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use vp_geom::{Frame, Rect, Vec2};
use vp_storage::IoStats;

use crate::analyzer::AnalyzerOutput;
use crate::config::VpConfig;
use crate::durable::{self, Durability};
use crate::error::{IndexError, IndexResult};
use crate::histogram::CumulativeHistogram;
use crate::object::{MovingObject, ObjectId};
use crate::query::RangeQuery;
use crate::tau::optimal_tau;
use crate::traits::{IndexSnapshot, MovingObjectIndex, SnapshotIndex};

/// Index of a partition inside a [`VpIndex`]: `0..k` are DVA
/// partitions, `k` is the outlier partition.
pub type PartitionId = usize;

/// Operational health of a [`VpIndex`] — the rungs of the failure
/// model's degradation ladder (see `docs/ARCHITECTURE.md`).
///
/// Transient I/O errors are retried below this level (WAL flushes,
/// buffer-pool writes); a tick that still fails rolls back and leaves
/// the index `Healthy`. Only an **unrecoverable** durability failure —
/// a failed fsync (whose on-disk effect is unknowable, so no retry may
/// assume durability) or a failed rollback — demotes the index to
/// [`Health::ReadOnly`]: queries keep answering from memory, every
/// mutation returns [`IndexError::ReadOnly`], and the way back is
/// [`VpIndex::recover`] from the on-disk state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Fully operational.
    Healthy,
    /// Mutations refused; queries still served. The reason records the
    /// failure that forced the demotion.
    ReadOnly {
        /// Why the index stopped accepting writes.
        reason: String,
    },
}

/// One result list per query of a batch, in query order.
type BatchResults = Vec<Vec<ObjectId>>;

/// Everything a sub-index factory needs to construct one partition's
/// index.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Which partition this is.
    pub id: PartitionId,
    /// Rotation frame of the partition (identity for the outlier
    /// partition).
    pub frame: Frame,
    /// Data domain in *frame coordinates* — the coordinate range the
    /// sub-index must accommodate (the rotated bounding box of the
    /// world domain).
    pub domain: Rect,
    /// Outlier threshold (`f64::INFINITY` for the outlier partition).
    pub tau: f64,
    /// True for the outlier partition.
    pub is_outlier: bool,
}

impl PartitionSpec {
    /// The query in this partition's coordinate frame (identity for
    /// the outlier partition).
    pub(crate) fn query_in_frame(&self, query: &RangeQuery) -> RangeQuery {
        if self.is_outlier {
            *query
        } else {
            query.to_frame(&self.frame)
        }
    }
}

/// A velocity-partitioned moving-object index.
///
/// Generic over the underlying index type `I`; construct with
/// [`VpIndex::build`] and a factory closure that creates one `I` per
/// [`PartitionSpec`].
pub struct VpIndex<I> {
    pub(crate) config: VpConfig,
    pub(crate) specs: Vec<PartitionSpec>,
    pub(crate) indexes: Vec<I>,
    /// Each live object's world-space state and the partition it
    /// resides in (the "simple lookup table" of Section 5.3), used for
    /// exact query filtering and for delete/update routing. Behind an
    /// [`Arc`] so a [`VpSnapshot`] captures it by reference count; the
    /// copy-on-write ([`Arc::make_mut`]) at mutation sites only pays
    /// for a deep clone while a snapshot is actually alive.
    pub(crate) objects: Arc<HashMap<ObjectId, (MovingObject, PartitionId)>>,
    /// Online per-DVA histograms of perpendicular speeds (Section 5.5).
    pub(crate) perp_hists: Vec<CumulativeHistogram>,
    /// The log and checkpoint bookkeeping; `Some` only for indexes
    /// constructed through the durable lifecycle
    /// ([`VpIndex::open`] / [`VpIndex::recover`]).
    pub(crate) durability: Option<Durability>,
    /// Degradation state — see [`Health`].
    pub(crate) health: Health,
}

impl<I> VpIndex<I> {
    /// Builds a partitioned index from analyzer output. The factory is
    /// invoked once per partition, DVA partitions first, outlier last.
    pub fn build<F>(
        config: VpConfig,
        analysis: &AnalyzerOutput,
        factory: F,
    ) -> IndexResult<VpIndex<I>>
    where
        F: FnMut(&PartitionSpec) -> I,
    {
        config.validate().map_err(IndexError::Config)?;
        if analysis.partitions.is_empty() {
            return Err(IndexError::Config(
                "analyzer produced no partitions (empty sample?)".into(),
            ));
        }
        let pivot = config.pivot();
        let mut specs = Vec::with_capacity(analysis.partitions.len() + 1);
        for (i, p) in analysis.partitions.iter().enumerate() {
            let frame = Frame::new(p.axis, pivot);
            specs.push(PartitionSpec {
                id: i,
                frame,
                domain: frame.domain_in_frame(&config.domain),
                tau: p.tau,
                is_outlier: false,
            });
        }
        let outlier_id = specs.len();
        specs.push(PartitionSpec {
            id: outlier_id,
            frame: Frame::identity(),
            domain: config.domain,
            tau: f64::INFINITY,
            is_outlier: true,
        });

        let indexes: Vec<I> = specs.iter().map(factory).collect();
        let perp_hists = analysis
            .partitions
            .iter()
            .map(|p| {
                CumulativeHistogram::new(
                    config.tau_buckets,
                    // Track speeds up to well beyond the current τ so a
                    // drifting distribution stays in range.
                    (p.tau_decision.tau * 4.0).clamp(1.0, 1e9),
                )
            })
            .collect();

        Ok(VpIndex::from_parts(config, specs, indexes, perp_hists))
    }

    /// Assembles an empty index from its parts (recovery rebuilds
    /// them from the manifest instead of re-running the analyzer).
    pub(crate) fn from_parts(
        config: VpConfig,
        specs: Vec<PartitionSpec>,
        indexes: Vec<I>,
        perp_hists: Vec<CumulativeHistogram>,
    ) -> VpIndex<I> {
        VpIndex {
            config,
            specs,
            indexes,
            objects: Arc::new(HashMap::new()),
            perp_hists,
            durability: None,
            health: Health::Healthy,
        }
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &VpConfig {
        &self.config
    }

    /// The index's current degradation state.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// True once the index has been demoted to read-only mode (an
    /// unrecoverable durability failure; see [`Health`]).
    pub fn is_read_only(&self) -> bool {
        matches!(self.health, Health::ReadOnly { .. })
    }

    /// Refuses mutations on a demoted index.
    pub(crate) fn check_writable(&self) -> IndexResult<()> {
        match &self.health {
            Health::Healthy => Ok(()),
            Health::ReadOnly { reason } => Err(IndexError::ReadOnly(reason.clone())),
        }
    }

    /// Demotes the index to read-only mode. The first demotion wins —
    /// its reason describes the original failure, which later errors
    /// are usually consequences of.
    pub(crate) fn enter_read_only(&mut self, reason: String) {
        if matches!(self.health, Health::Healthy) {
            self.health = Health::ReadOnly { reason };
        }
    }

    /// The world-space data domain (convenience accessor for callers
    /// that only hold the index — the kNN driver and the serving
    /// layer both bound searches by it).
    pub fn domain(&self) -> Rect {
        self.config.domain
    }

    /// The partition specifications (DVA partitions then outlier).
    pub fn specs(&self) -> &[PartitionSpec] {
        &self.specs
    }

    /// Number of DVA partitions (excluding the outlier partition).
    pub fn dva_count(&self) -> usize {
        self.specs.len() - 1
    }

    /// The partition currently holding `id`, if present.
    pub fn partition_of(&self, id: ObjectId) -> Option<PartitionId> {
        self.objects.get(&id).map(|&(_, p)| p)
    }

    /// Number of objects in each partition.
    pub fn partition_sizes(&self) -> Vec<usize>
    where
        I: MovingObjectIndex,
    {
        self.indexes.iter().map(|i| i.len()).collect()
    }

    /// Direct access to a partition's sub-index (diagnostics /
    /// figure-generation).
    pub fn partition_index(&self, p: PartitionId) -> &I {
        &self.indexes[p]
    }

    fn view(&self) -> VpView<'_, I, Live> {
        VpView {
            specs: &self.specs,
            parts: &self.indexes,
            objects: &self.objects,
            read: PhantomData,
        }
    }

    /// Chooses the partition for a velocity: the DVA with the smallest
    /// perpendicular distance, or the outlier partition when that
    /// distance exceeds the DVA's τ (Section 5.3).
    pub fn choose_partition(&self, vel: Vec2) -> PartitionId {
        match self.nearest_dva(vel) {
            Some((p, d)) if d <= self.specs[p].tau => p,
            _ => self.specs.len() - 1,
        }
    }

    /// The DVA partition whose axis is perpendicularly closest to
    /// `vel`, with that distance (first wins ties).
    fn nearest_dva(&self, vel: Vec2) -> Option<(PartitionId, f64)> {
        let outlier = self.specs.len() - 1;
        let mut best: Option<(PartitionId, f64)> = None;
        for spec in &self.specs[..outlier] {
            let d = vel.perp_distance_to_axis(spec.frame.axis());
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((spec.id, d)),
            }
        }
        best
    }

    /// Recomputes each DVA partition's τ from the online histograms
    /// (Section 5.5). Cheap — Equation 10 over the histogram edges —
    /// and intended to be called periodically by the application.
    /// Returns the new τ per DVA partition. Existing objects are not
    /// re-routed; the thresholds apply to future insertions/updates.
    ///
    /// On a durable index the refresh is logged (its effect on routing
    /// is deterministic given the histogram state, which replay
    /// rebuilds, so the record carries no payload); the only error
    /// source is that log append.
    pub fn refresh_tau(&mut self) -> IndexResult<Vec<f64>> {
        self.check_writable()?;
        let tau_snapshot: Vec<f64> = self.specs.iter().map(|s| s.tau).collect();
        let hist_snapshot = self.perp_hists.clone();
        let mut taus = Vec::with_capacity(self.perp_hists.len());
        for (spec, hist) in self.specs.iter_mut().zip(self.perp_hists.iter_mut()) {
            if hist.total() > 0 {
                spec.tau = optimal_tau(hist).tau;
                // Start a fresh accumulation period so the next refresh
                // reflects the *current* speed distribution rather than
                // an all-time average (Section 5.5).
                hist.reset();
            }
            taus.push(spec.tau);
        }
        if let Err(e) = self.log_single(durable::KIND_TAU_REFRESH, &[]) {
            // Un-log-able refresh: restore the thresholds and
            // histograms so memory never runs ahead of the log.
            for (spec, tau) in self.specs.iter_mut().zip(&tau_snapshot) {
                spec.tau = *tau;
            }
            self.perp_hists = hist_snapshot;
            return Err(self.handle_failure(Ok(()), e));
        }
        Ok(taus)
    }

    /// Common failure handling once an event's in-memory effect has
    /// been undone (`undo` is the undo's own result): discards the
    /// dead event's buffered log record, demotes to read-only when the
    /// undo failed or the log was poisoned by a failed fsync, and hands
    /// the original error back for returning.
    fn handle_failure(&mut self, undo: IndexResult<()>, e: IndexError) -> IndexError {
        let poisoned = self.durability.as_mut().and_then(|d| {
            d.log.discard_pending();
            d.log.poisoned().map(str::to_owned)
        });
        if let Err(re) = undo {
            self.enter_read_only(format!(
                "rollback failed ({re}) after error ({e}); \
                 in-memory state may be torn — rebuild via recovery"
            ));
        } else if let Some(reason) = poisoned {
            self.enter_read_only(format!("WAL fsync failed (durability unknown): {reason}"));
        }
        e
    }

    /// Applies one tick of updates across the partitioned index
    /// (upsert semantics, like [`MovingObjectIndex::update_batch`]).
    ///
    /// Instead of routing objects one at a time, the whole tick is
    /// bucketed first: each update is assigned its destination
    /// partition, migrations are split into a removal from the old
    /// partition plus an upsert into the new one, and only then is
    /// each sub-index touched — once, with its full batch, via
    /// [`MovingObjectIndex::remove_batch`] /
    /// [`MovingObjectIndex::update_batch`]. Sub-indexes that exploit
    /// batching (the Bx-tree sorts its batch into B+-tree key order
    /// and walks each leaf once) therefore see ordered runs rather
    /// than interleaved single ops.
    ///
    /// When the same id appears multiple times in `updates`, the last
    /// occurrence wins.
    ///
    /// Once the tick is bucketed, every touched partition applies its
    /// removals (migrations away) and then its upserts, in partition
    /// order on the calling thread.
    ///
    /// A single-object [`insert`](MovingObjectIndex::insert),
    /// [`delete`](MovingObjectIndex::delete) or
    /// [`update`](MovingObjectIndex::update) is a one-object tick down
    /// this same path, with the same record, rollback and commit.
    ///
    /// ## Durability
    ///
    /// On a durable index ([`VpIndex::open`]) a tick is one log record
    /// holding `updates` in world coordinates (and, for a delete, the
    /// removed ids), appended and committed (flushed, and fsync'd per
    /// [`VpConfig::sync_policy`]) on the calling thread after every
    /// partition has applied. Recovery replays that record through
    /// this same path.
    ///
    /// ## Error contract (tick atomicity)
    ///
    /// A tick either applies completely or not at all. Any error
    /// before its record is committed — a sub-index storage error, a
    /// log append or flush failure — **rolls the in-memory state back
    /// to the pre-tick snapshot**: object table (with its routing),
    /// online histograms, and every touched sub-index are restored,
    /// the buffered record is discarded, and the call returns a
    /// structured error with the index still [`Health::Healthy`] and
    /// queryable. Two failures are unrecoverable and demote the index
    /// to [`Health::ReadOnly`] instead: a failed fsync (the poisoned
    /// log's durability is unknowable) and a failure during the
    /// rollback itself (the in-memory state can no longer be trusted).
    /// [`VpIndex::recover`] is the way back from either.
    pub fn apply_updates(&mut self, updates: &[MovingObject]) -> IndexResult<()>
    where
        I: MovingObjectIndex,
    {
        self.apply_tick(updates, &[])
    }

    /// The one write path: a tick of upserts (`updates`, last write
    /// wins) and removals (`removed`), applied, logged and committed
    /// as one event; see [`VpIndex::apply_updates`] for the contract.
    /// A tick that removes an absent id ([`IndexError::UnknownObject`])
    /// or names a removed id twice, or also upserts it
    /// ([`IndexError::DuplicateObject`]), is rejected whole with the
    /// index unchanged.
    pub(crate) fn apply_tick(
        &mut self,
        updates: &[MovingObject],
        removed: &[ObjectId],
    ) -> IndexResult<()>
    where
        I: MovingObjectIndex,
    {
        self.check_writable()?;
        if updates.is_empty() && removed.is_empty() {
            return Ok(());
        }
        // Last write wins within one tick.
        let mut latest: HashMap<ObjectId, usize> = HashMap::with_capacity(updates.len());
        for (i, obj) in updates.iter().enumerate() {
            latest.insert(obj.id, i);
        }

        // Pre-tick snapshot backing the rollback contract above: each
        // touched id's previous world object + partition (None = not
        // present) and the online histograms. Cost is proportional to
        // the tick, not the index. Removals are captured (and
        // validated) before anything moves.
        let mut prior: HashMap<ObjectId, Option<(MovingObject, PartitionId)>> =
            HashMap::with_capacity(latest.len() + removed.len());
        for &id in removed {
            let Some(&entry) = self.objects.get(&id) else {
                return Err(IndexError::UnknownObject(id));
            };
            if latest.contains_key(&id) || prior.insert(id, Some(entry)).is_some() {
                return Err(IndexError::DuplicateObject(id));
            }
        }
        let hist_snapshot = self.perp_hists.clone();
        let parts = self.specs.len();
        let mut removals: Vec<Vec<ObjectId>> = vec![Vec::new(); parts];
        let mut upserts: Vec<Vec<MovingObject>> = vec![Vec::new(); parts];

        for &id in removed {
            let (_, p) = Arc::make_mut(&mut self.objects)
                .remove(&id)
                .expect("validated above");
            removals[p].push(id);
        }
        for (i, obj) in updates.iter().enumerate() {
            if latest[&obj.id] != i {
                continue;
            }
            let p = self.choose_partition(obj.vel);
            // One probe returns the prior object and its partition.
            let old = Arc::make_mut(&mut self.objects).insert(obj.id, (*obj, p));
            match old {
                Some((_, q)) if q != p => removals[q].push(obj.id),
                _ => {}
            }
            prior.insert(obj.id, old);
            upserts[p].push(obj.to_frame(&self.specs[p].frame));
            self.record_perp_speed(obj.vel);
        }

        match self
            .apply_partitions(&removals, &upserts)
            .and_then(|()| self.log_tick(updates, removed))
        {
            Ok(want_ckpt) => {
                // The tick is committed: publish the sub-indexes' new
                // state as the next snapshot epoch. Ordering matters —
                // the tick's log record is already committed, so a
                // snapshot taken from here on only ever observes logged
                // state; the epoch publish is the snapshot-visible
                // commit point.
                for i in &self.indexes {
                    i.publish_epoch();
                }
                // An error from the automatic checkpoint below must
                // NOT roll the tick back (the publish path leaves the
                // previous checkpoint + log intact, so the state is
                // consistent — only the log didn't shrink).
                if want_ckpt {
                    self.checkpoint()?;
                }
                Ok(())
            }
            Err(e) => {
                let rollback = self.rollback_tick(&prior, hist_snapshot, &removals, &upserts);
                Err(self.handle_failure(rollback, e))
            }
        }
    }

    /// [`VpIndex::apply_updates`] plus the tick's change set: on
    /// success, returns the [`TickDelta`](crate::sub::TickDelta) a
    /// subscription engine needs to re-evaluate standing queries
    /// (last write per id wins, winners ascending by id, `time` = the
    /// batch's newest reference time). On error nothing was applied
    /// (same atomicity contract as `apply_updates`) and no delta is
    /// produced.
    pub fn apply_updates_delta(
        &mut self,
        updates: &[MovingObject],
    ) -> IndexResult<crate::sub::TickDelta>
    where
        I: MovingObjectIndex,
    {
        self.apply_updates(updates)?;
        Ok(crate::sub::TickDelta::from_updates(updates))
    }

    /// Applies every partition's batch; the first error stops the
    /// tick. The caller owns the rollback on error — this method only
    /// computes.
    fn apply_partitions(
        &mut self,
        removals: &[Vec<ObjectId>],
        upserts: &[Vec<MovingObject>],
    ) -> IndexResult<()>
    where
        I: MovingObjectIndex,
    {
        for ((index, removals), upserts) in self.indexes.iter_mut().zip(removals).zip(upserts) {
            if !removals.is_empty() {
                index.remove_batch(removals)?;
            }
            if !upserts.is_empty() {
                index.update_batch(upserts)?;
            }
        }
        Ok(())
    }

    /// Restores the pre-tick state captured by `apply_tick`: every
    /// touched partition's sub-index is *reconciled* object by object
    /// against the snapshot (so the undo is correct whether a
    /// partition applied fully, partially, or not at all — each object
    /// is compared to its desired pre-tick state and fixed only if it
    /// diverged), then the object table's touched entries and the
    /// histograms are restored.
    fn rollback_tick(
        &mut self,
        prior: &HashMap<ObjectId, Option<(MovingObject, PartitionId)>>,
        hist_snapshot: Vec<CumulativeHistogram>,
        removals: &[Vec<ObjectId>],
        upserts: &[Vec<MovingObject>],
    ) -> IndexResult<()>
    where
        I: MovingObjectIndex,
    {
        for p in 0..self.specs.len() {
            let ids = removals[p]
                .iter()
                .copied()
                .chain(upserts[p].iter().map(|o| o.id));
            for id in ids {
                // Pre-tick, partition p held the object iff the
                // snapshot places it there.
                let desired: Option<MovingObject> = match prior.get(&id) {
                    Some(Some((o, q))) if *q == p => Some(o.to_frame(&self.specs[p].frame)),
                    _ => None,
                };
                let current = self.indexes[p].get_object(id)?;
                match (desired, current) {
                    (Some(want), Some(cur)) => {
                        if cur != want {
                            self.indexes[p].update(want)?;
                        }
                    }
                    (Some(want), None) => self.indexes[p].insert(want)?,
                    (None, Some(_)) => self.indexes[p].delete(id)?,
                    (None, None) => {}
                }
            }
        }
        let objects = Arc::make_mut(&mut self.objects);
        for (&id, &pr) in prior {
            match pr {
                Some(entry) => objects.insert(id, entry),
                None => objects.remove(&id),
            };
        }
        self.perp_hists = hist_snapshot;
        Ok(())
    }

    /// Answers a whole batch of range queries: every partition
    /// transforms the batch into its frame once, answers it through the
    /// sub-index's batched path ([`MovingObjectIndex::range_query_batch`]
    /// — one shared sweep per partition instead of one scan per query)
    /// and exact-filters its candidates in world space.
    ///
    /// The merge concatenates in ascending partition order, so the
    /// output is set-equal to looping [`MovingObjectIndex::range_query`].
    pub fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<Vec<Vec<ObjectId>>>
    where
        I: MovingObjectIndex,
    {
        self.view().range_query_batch(queries)
    }

    /// Answers a batch of kNN queries in query order, each through the
    /// incremental [`crate::knn::knn_at`] against `&self` — identical
    /// to looping `knn_at`.
    pub fn knn_batch(
        &self,
        queries: &[crate::knn::KnnQuery],
        domain: &Rect,
    ) -> IndexResult<Vec<Vec<crate::knn::Neighbor>>>
    where
        I: MovingObjectIndex,
    {
        crate::knn::knn_batch(self, queries, domain)
    }

    fn record_perp_speed(&mut self, vel: Vec2) {
        // Track the perpendicular speed against the *closest* DVA — the
        // candidate population of that DVA's τ decision.
        if let Some((i, d)) = self.nearest_dva(vel) {
            self.perp_hists[i].add(d);
        }
    }
}

impl<I: MovingObjectIndex> MovingObjectIndex for VpIndex<I> {
    /// A one-object tick after the duplicate check: logged, committed
    /// and snapshot-published as one event, with the tick's rollback
    /// on failure ([`VpIndex::apply_updates`] has the contract).
    fn insert(&mut self, obj: MovingObject) -> IndexResult<()> {
        if self.objects.contains_key(&obj.id) {
            return Err(IndexError::DuplicateObject(obj.id));
        }
        self.apply_tick(std::slice::from_ref(&obj), &[])
    }

    /// A one-removal tick; an absent id is
    /// [`IndexError::UnknownObject`].
    fn delete(&mut self, id: ObjectId) -> IndexResult<()> {
        self.apply_tick(&[], &[id])
    }

    /// Unlike the trait default (delete + insert — which on a durable
    /// index would log two *independently committed* records, so a
    /// crash between them would lose the object entirely), a VP
    /// update routes through the one-element tick path: a single,
    /// crash-atomic logged event. The index state produced is
    /// identical; the object must already exist, as the trait
    /// requires.
    fn update(&mut self, obj: MovingObject) -> IndexResult<()> {
        if !self.objects.contains_key(&obj.id) {
            return Err(IndexError::UnknownObject(obj.id));
        }
        self.apply_updates(std::slice::from_ref(&obj))
    }

    fn update_batch(&mut self, updates: &[MovingObject]) -> IndexResult<()> {
        self.apply_updates(updates)
    }

    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        self.view().range_query(query)
    }

    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
        self.view().range_query_batch(queries)
    }

    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        self.view().knn_candidates(query, covered)
    }

    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
        self.view().get_object(id)
    }

    fn len(&self) -> usize {
        self.view().len()
    }

    fn io_stats(&self) -> IoStats {
        self.view().io_stats()
    }

    fn reset_io_stats(&self) {
        for i in &self.indexes {
            i.reset_io_stats();
        }
    }

    fn flush_storage(&self) -> IndexResult<()> {
        for i in &self.indexes {
            i.flush_storage()?;
        }
        Ok(())
    }

    /// Publishes every sub-index's current state as its next committed
    /// snapshot epoch. Every mutation already does this at its commit
    /// (a single op is a one-object tick), so callers never need to.
    fn publish_epoch(&self) {
        for i in &self.indexes {
            i.publish_epoch();
        }
    }
}

/// A point-in-time, read-only view of a [`VpIndex`]: per-partition
/// sub-index snapshots plus the world-space object table as of one
/// committed epoch.
///
/// Obtained via [`VpIndex::snapshot`]. Queries run against it with
/// **no tick coordination**: a concurrent [`VpIndex::apply_updates`]
/// on another thread neither blocks the snapshot's readers nor leaks
/// into their results — every query batch answers bit-identically to
/// the same batch against the (quiesced) live index at capture time,
/// because both answer through the same `VpView`. The query hot path
/// acquires no shared locks for pages resident at capture; storage
/// reclaims the page versions the snapshot pins once it is dropped.
///
/// `VpSnapshot` also implements [`MovingObjectIndex`] (mutations
/// return [`IndexError::ReadOnly`]) so the incremental kNN driver
/// ([`crate::knn`]) and the benchmark harness run against snapshots
/// unchanged.
pub struct VpSnapshot<S> {
    specs: Vec<PartitionSpec>,
    indexes: Vec<S>,
    objects: Arc<HashMap<ObjectId, (MovingObject, PartitionId)>>,
}

impl<S: IndexSnapshot> VpSnapshot<S> {
    fn view(&self) -> VpView<'_, S, Snap> {
        VpView {
            specs: &self.specs,
            parts: &self.indexes,
            objects: &self.objects,
            read: PhantomData,
        }
    }

    /// Batched range queries over the captured state — same contract
    /// as [`VpIndex::range_query_batch`].
    pub fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
        self.view().range_query_batch(queries)
    }

    /// Batched kNN over the captured state — same contract as
    /// [`VpIndex::knn_batch`].
    pub fn knn_batch(
        &self,
        queries: &[crate::knn::KnnQuery],
        domain: &Rect,
    ) -> IndexResult<Vec<Vec<crate::knn::Neighbor>>> {
        crate::knn::knn_batch(self, queries, domain)
    }

    /// Page reads this snapshot has served, summed over its
    /// partitions. The live index's counters never see them.
    pub fn io_stats(&self) -> IoStats {
        self.view().io_stats()
    }
}

/// Writes are refused; `update`, `update_batch` and `remove_batch`
/// keep their trait defaults, which go through these two.
impl<S: IndexSnapshot> MovingObjectIndex for VpSnapshot<S> {
    fn insert(&mut self, _: MovingObject) -> IndexResult<()> {
        Err(IndexError::ReadOnly("snapshot is read-only".into()))
    }

    fn delete(&mut self, _: ObjectId) -> IndexResult<()> {
        Err(IndexError::ReadOnly("snapshot is read-only".into()))
    }

    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        self.view().range_query(query)
    }

    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
        self.view().range_query_batch(queries)
    }

    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        self.view().knn_candidates(query, covered)
    }

    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
        self.view().get_object(id)
    }

    fn len(&self) -> usize {
        self.view().len()
    }

    fn io_stats(&self) -> IoStats {
        self.view().io_stats()
    }

    /// A snapshot's tally only grows; take deltas instead.
    fn reset_io_stats(&self) {}
}

impl<S: IndexSnapshot> IndexSnapshot for VpSnapshot<S> {
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        self.view().range_query(query)
    }

    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
        self.view().range_query_batch(queries)
    }

    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        self.view().knn_candidates(query, covered)
    }

    fn len(&self) -> usize {
        self.view().len()
    }

    fn io_stats(&self) -> IoStats {
        self.view().io_stats()
    }
}

/// How [`VpView`] reads one sub-index: [`Live`] through
/// [`MovingObjectIndex`], [`Snap`] through [`IndexSnapshot`]. Selector
/// types rather than a blanket impl per trait, which would conflict on
/// types implementing both (`ScanIndex` does).
pub(crate) trait SubRead<X> {
    fn range_query(x: &X, query: &RangeQuery) -> IndexResult<Vec<ObjectId>>;
    fn range_query_batch(x: &X, queries: &[RangeQuery]) -> IndexResult<BatchResults>;
    fn knn_candidates(
        x: &X,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>>;
    fn io_stats(x: &X) -> IoStats;
}

/// Reads a live sub-index ([`MovingObjectIndex`]).
pub(crate) struct Live;

/// Reads a sub-index snapshot ([`IndexSnapshot`]).
pub(crate) struct Snap;

macro_rules! sub_read {
    ($selector:ident, $read:ident) => {
        impl<X: $read> SubRead<X> for $selector {
            fn range_query(x: &X, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
                $read::range_query(x, query)
            }
            fn range_query_batch(x: &X, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
                $read::range_query_batch(x, queries)
            }
            fn knn_candidates(
                x: &X,
                query: &RangeQuery,
                covered: Option<&RangeQuery>,
            ) -> IndexResult<Vec<ObjectId>> {
                $read::knn_candidates(x, query, covered)
            }
            fn io_stats(x: &X) -> IoStats {
                $read::io_stats(x)
            }
        }
    };
}

sub_read!(Live, MovingObjectIndex);
sub_read!(Snap, IndexSnapshot);

/// The partition layer's one read path, shared by [`VpIndex`] and
/// [`VpSnapshot`]: the partition specs, one sub-index (or sub-index
/// snapshot) per partition and the object table, all borrowed.
pub(crate) struct VpView<'a, X, R> {
    specs: &'a [PartitionSpec],
    parts: &'a [X],
    objects: &'a HashMap<ObjectId, (MovingObject, PartitionId)>,
    read: PhantomData<fn() -> R>,
}

impl<X, R: SubRead<X>> VpView<'_, X, R> {
    /// The exact world-space filter of a candidate.
    fn matches(&self, query: &RangeQuery, id: &ObjectId) -> bool {
        self.objects.get(id).is_some_and(|(o, _)| query.matches(o))
    }

    /// Algorithm 3: query every partition in its own frame, exact-filter
    /// in world space, concatenate in partition order.
    fn range_query(&self, query: &RangeQuery) -> IndexResult<Vec<ObjectId>> {
        let mut results = Vec::new();
        for (spec, part) in self.specs.iter().zip(self.parts) {
            let candidates = R::range_query(part, &spec.query_in_frame(query))?;
            results.extend(candidates.into_iter().filter(|id| self.matches(query, id)));
        }
        Ok(results)
    }

    /// Algorithm 3 for a batch, one batched sweep per partition — see
    /// [`VpIndex::range_query_batch`].
    fn range_query_batch(&self, queries: &[RangeQuery]) -> IndexResult<BatchResults> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut merged: BatchResults = vec![Vec::new(); queries.len()];
        for (spec, part) in self.specs.iter().zip(self.parts) {
            let local: Vec<RangeQuery> = queries.iter().map(|q| spec.query_in_frame(q)).collect();
            let candidates = R::range_query_batch(part, &local)?;
            for ((ids, q), out) in candidates.into_iter().zip(queries).zip(&mut merged) {
                out.extend(ids.into_iter().filter(|id| self.matches(q, id)));
            }
        }
        Ok(merged)
    }

    /// Incremental kNN candidates: each partition answers the probe
    /// chain in its own frame (the transform is deterministic, so a
    /// partition sees a consistent chain), unfiltered — the kNN driver
    /// evaluates every candidate's exact world-space distance itself.
    fn knn_candidates(
        &self,
        query: &RangeQuery,
        covered: Option<&RangeQuery>,
    ) -> IndexResult<Vec<ObjectId>> {
        let mut out = Vec::new();
        for (spec, part) in self.specs.iter().zip(self.parts) {
            let local = spec.query_in_frame(query);
            let local_covered = covered.map(|c| spec.query_in_frame(c));
            out.extend(R::knn_candidates(part, &local, local_covered.as_ref())?);
        }
        Ok(out)
    }

    fn get_object(&self, id: ObjectId) -> IndexResult<Option<MovingObject>> {
        Ok(self.objects.get(&id).map(|&(o, _)| o))
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    /// Summed over the partitions.
    fn io_stats(&self) -> IoStats {
        self.parts
            .iter()
            .map(R::io_stats)
            .fold(IoStats::zero(), |a, b| a + b)
    }
}

impl<I: SnapshotIndex> VpIndex<I> {
    /// Captures a point-in-time, read-only [`VpSnapshot`] of the whole
    /// partitioned index: one [`SnapshotIndex::snapshot`] per
    /// sub-index (pinning each at its last committed epoch) plus the
    /// world-space object table (an `Arc` bump — the live index
    /// copy-on-writes it under snapshots).
    ///
    /// Works on a read-only index too ([`Health::ReadOnly`] refuses
    /// mutations, not reads), so in-memory state stays queryable —
    /// and snapshot-queryable — through a demotion.
    pub fn snapshot(&self) -> IndexResult<VpSnapshot<I::Snapshot>> {
        let indexes = self
            .indexes
            .iter()
            .map(|i| i.snapshot())
            .collect::<IndexResult<Vec<_>>>()?;
        Ok(VpSnapshot {
            specs: self.specs.clone(),
            indexes,
            objects: Arc::clone(&self.objects),
        })
    }
}

impl<I: SnapshotIndex> SnapshotIndex for VpIndex<I> {
    type Snapshot = VpSnapshot<I::Snapshot>;

    fn snapshot(&self) -> IndexResult<Self::Snapshot> {
        VpIndex::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::VelocityAnalyzer;
    use crate::query::QueryRegion;
    use crate::traits::reference::ScanIndex;
    use vp_geom::{Circle, Point};

    fn sample() -> Vec<Point> {
        // Two roads at 0 and 90 degrees plus diagonal outliers.
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

    fn build_vp() -> VpIndex<ScanIndex> {
        let cfg = VpConfig::default();
        let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&sample());
        VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).unwrap()
    }

    #[test]
    fn builds_k_plus_one_partitions() {
        let vp = build_vp();
        assert_eq!(vp.specs().len(), 3);
        assert_eq!(vp.dva_count(), 2);
        assert!(vp.specs()[2].is_outlier);
        assert!(vp.specs()[2].frame.is_identity());
        assert_eq!(vp.specs()[2].tau, f64::INFINITY);
        // DVA domains are the rotated world domain.
        assert!(vp.specs()[0].domain.area() >= vp.config.domain.area());
    }

    #[test]
    fn routes_by_direction_and_tau() {
        let vp = build_vp();
        // Identify which DVA is (near) horizontal.
        let horiz = (0..2)
            .min_by(|&a, &b| {
                vp.specs()[a]
                    .frame
                    .axis()
                    .y
                    .abs()
                    .total_cmp(&vp.specs()[b].frame.axis().y.abs())
            })
            .unwrap();
        let vert = 1 - horiz;
        assert_eq!(vp.choose_partition(Point::new(50.0, 0.05)), horiz);
        assert_eq!(vp.choose_partition(Point::new(-40.0, 0.0)), horiz);
        assert_eq!(vp.choose_partition(Point::new(0.05, 70.0)), vert);
        // Fast diagonal: far from both axes -> outlier.
        assert_eq!(vp.choose_partition(Point::new(60.0, 60.0)), 2);
    }

    #[test]
    fn insert_query_delete_round_trip() {
        let mut vp = build_vp();
        let objs = [
            MovingObject::new(
                1,
                Point::new(50_000.0, 50_000.0),
                Point::new(30.0, 0.1),
                0.0,
            ),
            MovingObject::new(
                2,
                Point::new(50_100.0, 50_000.0),
                Point::new(0.1, 30.0),
                0.0,
            ),
            MovingObject::new(
                3,
                Point::new(50_000.0, 50_100.0),
                Point::new(40.0, 40.0),
                0.0,
            ),
            MovingObject::new(
                4,
                Point::new(90_000.0, 90_000.0),
                Point::new(-30.0, 0.0),
                0.0,
            ),
        ];
        for o in objs {
            vp.insert(o).unwrap();
        }
        assert_eq!(vp.len(), 4);
        // Objects 1-3 are near (50k, 50k): a 300m circle finds them all,
        // regardless of partition.
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 300.0)),
            0.0,
        );
        let mut got = vp.range_query(&q).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);

        vp.delete(2).unwrap();
        let mut got = vp.range_query(&q).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
        assert!(matches!(vp.delete(2), Err(IndexError::UnknownObject(2))));
    }

    #[test]
    fn update_migrates_partitions() {
        let mut vp = build_vp();
        let o = MovingObject::new(
            7,
            Point::new(50_000.0, 50_000.0),
            Point::new(30.0, 0.0),
            0.0,
        );
        vp.insert(o).unwrap();
        let before = vp.partition_of(7).unwrap();
        // The object turns 90 degrees: must migrate to the other DVA.
        vp.update(MovingObject::new(
            7,
            Point::new(50_010.0, 50_000.0),
            Point::new(0.0, 30.0),
            1.0,
        ))
        .unwrap();
        let after = vp.partition_of(7).unwrap();
        assert_ne!(before, after);
        assert_eq!(vp.len(), 1);
        // Still findable by query after migration.
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(50_010.0, 50_000.0), 50.0)),
            1.0,
        );
        assert_eq!(vp.range_query(&q).unwrap(), vec![7]);
    }

    #[test]
    fn predictive_query_crosses_partitions() {
        let mut vp = build_vp();
        // Two objects converging on (60k, 50k) at t=100 from different
        // directions/partitions.
        vp.insert(MovingObject::new(
            1,
            Point::new(59_000.0, 50_000.0),
            Point::new(10.0, 0.0),
            0.0,
        ))
        .unwrap();
        vp.insert(MovingObject::new(
            2,
            Point::new(60_000.0, 49_000.0),
            Point::new(0.0, 10.0),
            0.0,
        ))
        .unwrap();
        let q = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(60_000.0, 50_000.0), 100.0)),
            100.0,
        );
        let mut got = vp.range_query(&q).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        // At t=0 neither matches.
        let q0 = RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(60_000.0, 50_000.0), 100.0)),
            0.0,
        );
        assert!(vp.range_query(&q0).unwrap().is_empty());
    }

    #[test]
    fn matches_reference_index_on_random_workload() {
        let mut vp = build_vp();
        let mut reference = ScanIndex::new();
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64 / 1_000_000.0
        };
        for id in 0..500u64 {
            let pos = Point::new(next() * 100_000.0, next() * 100_000.0);
            let ang = next() * std::f64::consts::TAU;
            let speed = next() * 100.0;
            let vel = Point::new(ang.cos() * speed, ang.sin() * speed);
            let o = MovingObject::new(id, pos, vel, 0.0);
            vp.insert(o).unwrap();
            reference.insert(o).unwrap();
        }
        for qi in 0..50 {
            let center = Point::new(next() * 100_000.0, next() * 100_000.0);
            let t = (qi % 10) as f64 * 12.0;
            let q = RangeQuery::time_slice(QueryRegion::Circle(Circle::new(center, 2_000.0)), t);
            let mut a = vp.range_query(&q).unwrap();
            let mut b = MovingObjectIndex::range_query(&reference, &q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {qi} diverged");
        }
    }

    #[test]
    fn apply_updates_matches_looped_single_ops() {
        let mut batched = build_vp();
        let mut looped = build_vp();
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64 / 1_000_000.0
        };
        // Seed population.
        let mut objs = Vec::new();
        for id in 0..300u64 {
            let o = MovingObject::new(
                id,
                Point::new(next() * 100_000.0, next() * 100_000.0),
                Point::new(next() * 120.0 - 60.0, next() * 120.0 - 60.0),
                0.0,
            );
            batched.insert(o).unwrap();
            looped.insert(o).unwrap();
            objs.push(o);
        }
        // Several ticks: moves, direction changes (migrations), and
        // brand-new ids (upserts).
        for tick in 1..=4 {
            let t = tick as f64 * 10.0;
            let mut updates = Vec::new();
            for o in objs.iter_mut() {
                if o.id % 3 == tick % 3 {
                    let turn = o.id % 2 == 0;
                    let vel = if turn {
                        Point::new(-o.vel.y, o.vel.x)
                    } else {
                        o.vel
                    };
                    *o = MovingObject::new(o.id, o.position_at(t), vel, t);
                    updates.push(*o);
                }
            }
            let fresh = MovingObject::new(
                10_000 + tick,
                Point::new(next() * 100_000.0, next() * 100_000.0),
                Point::new(30.0, 0.5),
                t,
            );
            updates.push(fresh);
            objs.push(fresh);

            batched.apply_updates(&updates).unwrap();
            for u in &updates {
                if looped.get_object(u.id).unwrap().is_some() {
                    looped.update(*u).unwrap();
                } else {
                    looped.insert(*u).unwrap();
                }
            }

            assert_eq!(batched.len(), looped.len(), "tick {tick}");
            for o in &objs {
                assert_eq!(
                    batched.partition_of(o.id),
                    looped.partition_of(o.id),
                    "tick {tick}, object {}",
                    o.id
                );
            }
            let q = RangeQuery::time_slice(
                QueryRegion::Circle(Circle::new(Point::new(50_000.0, 50_000.0), 40_000.0)),
                t,
            );
            let mut a = batched.range_query(&q).unwrap();
            let mut b = looped.range_query(&q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "tick {tick}");
        }
    }

    #[test]
    fn apply_updates_last_write_wins() {
        let mut vp = build_vp();
        let a = MovingObject::new(
            1,
            Point::new(10_000.0, 10_000.0),
            Point::new(30.0, 0.0),
            0.0,
        );
        let b = MovingObject::new(
            1,
            Point::new(90_000.0, 90_000.0),
            Point::new(0.0, 30.0),
            0.0,
        );
        vp.apply_updates(&[a, b]).unwrap();
        assert_eq!(vp.len(), 1);
        let got = vp.get_object(1).unwrap().unwrap();
        assert_eq!(got.pos.x, 90_000.0);
        // Only the winning update's partition holds the object.
        let sizes = vp.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1);
    }

    fn query_batch(n: usize, seed: u64) -> Vec<RangeQuery> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64 / 1_000_000.0
        };
        (0..n)
            .map(|qi| {
                let c = Point::new(next() * 100_000.0, next() * 100_000.0);
                match qi % 3 {
                    0 => RangeQuery::time_slice(
                        QueryRegion::Circle(Circle::new(c, 2_000.0 + next() * 8_000.0)),
                        (qi % 6) as f64 * 10.0,
                    ),
                    1 => RangeQuery::time_interval(
                        QueryRegion::Rect(vp_geom::Rect::centered(c, 9_000.0, 6_000.0)),
                        5.0,
                        40.0,
                    ),
                    _ => RangeQuery::moving(
                        QueryRegion::Circle(Circle::new(c, 4_000.0)),
                        Point::new(next() * 40.0 - 20.0, 15.0),
                        0.0,
                        30.0,
                    ),
                }
            })
            .collect()
    }

    fn populated_vp(seed: u64) -> VpIndex<ScanIndex> {
        let mut vp = build_vp();
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64 / 1_000_000.0
        };
        let objs: Vec<MovingObject> = (0..600u64)
            .map(|id| {
                let ang = next() * std::f64::consts::TAU;
                let speed = next() * 90.0;
                MovingObject::new(
                    id,
                    Point::new(next() * 100_000.0, next() * 100_000.0),
                    Point::new(ang.cos() * speed, ang.sin() * speed),
                    0.0,
                )
            })
            .collect();
        vp.apply_updates(&objs).unwrap();
        vp
    }

    #[test]
    fn range_query_batch_matches_looped_queries() {
        let vp = populated_vp(0xFA7B);
        let queries = query_batch(30, 0x0B47);
        let batched = vp.range_query_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(batched[qi], vp.range_query(q).unwrap(), "query {qi}");
        }
        assert!(
            batched.iter().any(|r| !r.is_empty()),
            "batch should have matches"
        );
        assert!(vp.range_query_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn knn_batch_matches_looped_knn() {
        use crate::knn::{knn_at, KnnQuery};
        let vp = populated_vp(0x5EED7);
        let domain = vp.config().domain;
        let queries: Vec<KnnQuery> = (0..12)
            .map(|i| KnnQuery {
                center: Point::new(
                    10_000.0 + (i as f64) * 7_000.0,
                    90_000.0 - (i as f64) * 6_500.0,
                ),
                k: 1 + i % 7,
                t: (i % 4) as f64 * 15.0,
            })
            .collect();
        let batched = vp.knn_batch(&queries, &domain).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let looped = knn_at(&vp, q.center, q.k, q.t, &domain).unwrap();
            assert_eq!(batched[i], looped, "knn query {i}");
            assert_eq!(batched[i].len(), q.k.min(vp.len()), "knn query {i} arity");
        }
    }

    #[test]
    fn snapshot_isolated_from_later_ticks_and_read_only() {
        let mut vp = populated_vp(0xBEEF);
        let queries = query_batch(25, 0xABC);
        let baseline = vp.range_query_batch(&queries).unwrap();
        let domain = vp.config().domain;
        let knn_queries: Vec<crate::knn::KnnQuery> = (0..6)
            .map(|i| crate::knn::KnnQuery {
                center: Point::new(20_000.0 + i as f64 * 12_000.0, 50_000.0),
                k: 3 + i,
                t: 10.0,
            })
            .collect();
        let knn_baseline = vp.knn_batch(&knn_queries, &domain).unwrap();

        let snap = vp.snapshot().unwrap();
        assert_eq!(MovingObjectIndex::len(&snap), vp.len());

        // Tick the live index forward and mutate it; the snapshot must
        // keep answering from the captured state.
        let moved: Vec<MovingObject> = (0..600u64)
            .filter_map(|id| vp.get_object(id).unwrap())
            .map(|o| MovingObject::new(o.id, o.position_at(50.0), o.vel, 50.0))
            .collect();
        vp.apply_updates(&moved).unwrap();
        vp.delete(0).unwrap();

        assert_eq!(snap.range_query_batch(&queries).unwrap(), baseline);
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                MovingObjectIndex::range_query(&snap, q).unwrap(),
                baseline[qi],
                "query {qi}"
            );
        }
        assert_eq!(snap.knn_batch(&knn_queries, &domain).unwrap(), knn_baseline);
        assert_eq!(snap.get_object(0).unwrap().map(|o| o.id), Some(0));

        // Snapshots refuse mutations.
        let mut snap = snap;
        let o = MovingObject::new(7_777, Point::new(1.0, 1.0), Point::ZERO, 0.0);
        assert!(matches!(snap.insert(o), Err(IndexError::ReadOnly(_))));
        assert!(matches!(snap.delete(1), Err(IndexError::ReadOnly(_))));
        assert!(matches!(snap.update(o), Err(IndexError::ReadOnly(_))));
        assert!(matches!(
            snap.update_batch(&[o]),
            Err(IndexError::ReadOnly(_))
        ));
        assert!(matches!(
            snap.remove_batch(&[1]),
            Err(IndexError::ReadOnly(_))
        ));

        // A fresh snapshot observes the post-tick state.
        let snap2 = vp.snapshot().unwrap();
        assert_eq!(
            snap2.range_query_batch(&queries).unwrap(),
            vp.range_query_batch(&queries).unwrap()
        );
    }

    #[test]
    fn snapshot_readable_while_writer_thread_ticks() {
        let mut vp = populated_vp(0x0DDB);
        let queries = query_batch(10, 0x515);
        let baseline = vp.range_query_batch(&queries).unwrap();
        let snap = vp.snapshot().unwrap();

        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..10 {
                    assert_eq!(snap.range_query_batch(&queries).unwrap(), baseline);
                }
            });
            for round in 1..=4 {
                let at = round as f64 * 15.0;
                let moved: Vec<MovingObject> = (0..600u64)
                    .filter_map(|id| vp.get_object(id).unwrap())
                    .map(|o| MovingObject::new(o.id, o.position_at(at), o.vel, at))
                    .collect();
                vp.apply_updates(&moved).unwrap();
            }
        });
        assert_eq!(vp.len(), 600);
    }

    #[test]
    fn refresh_tau_tracks_speed_drift() {
        let mut vp = build_vp();
        let tau0 = vp.specs()[0].tau;
        // Feed many inserts whose perpendicular speeds are tiny: τ should
        // tighten (or at least not blow up) after refresh.
        for id in 0..2000u64 {
            let o = MovingObject::new(
                id,
                Point::new(50_000.0, 50_000.0),
                Point::new(20.0 + (id % 50) as f64, 0.01),
                0.0,
            );
            vp.insert(o).unwrap();
        }
        let taus = vp.refresh_tau().unwrap();
        assert_eq!(taus.len(), 2);
        let tau1 = vp.specs()[0].tau.min(vp.specs()[1].tau);
        assert!(tau1.is_finite());
        // With a nearly perfectly 1-D feed, τ should not exceed the
        // original by much.
        assert!(tau1 <= tau0.max(1.0) * 4.0);
    }

    #[test]
    fn build_rejects_empty_analysis() {
        let cfg = VpConfig::default();
        let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&[]);
        let r: IndexResult<VpIndex<ScanIndex>> =
            VpIndex::build(cfg, &analysis, |_s| ScanIndex::new());
        assert!(matches!(r, Err(IndexError::Config(_))));
    }
}
