//! Standing continuous queries (subscriptions) over a moving-object
//! index.
//!
//! The paper's signature workloads — geofence alerts, fleet dispatch,
//! "notify me when a courier is within 500 m" — are *standing* queries
//! re-evaluated every tick, not one-shots. A [`SubscriptionSet`] holds
//! the registered queries and, once per committed tick, turns the
//! tick's [`TickDelta`] into per-subscription [`SubEvent`]s
//! (`Enter`/`Leave`/`Moved`) without re-running every query from
//! scratch.
//!
//! ## Incremental evaluation
//!
//! Each **range** subscription caches a *candidate set*: the exact
//! answer of one time-interval probe
//! `time_interval(region, t₀+dt, t₀+horizon+dt)` issued at
//! registration (or refresh) time `t₀`. Trajectories are linear, so
//! for any later tick time `t ≤ t₀ + horizon` an object that was not
//! updated since the probe matches the slice at `t+dt` only if it
//! matched the interval probe — its candidates entry is still valid.
//! Objects that *were* updated are patched in memory from the tick
//! delta alone: each upsert is tested against the *remaining* window
//! `time_interval(region, t+dt, window_end+dt)` with the exact
//! [`RangeQuery::matches`] predicate (added on match, dropped
//! otherwise), and removals are dropped. The per-tick result is then
//! the candidates filtered by the exact `time_slice(region, t+dt)`
//! predicate — pure in-memory math, no index pages touched. Only when
//! a subscription's window expires (`t > window_end`) does it go back
//! to the index, and all expired subscriptions refresh together
//! through one [`MovingObjectIndex::range_query_batch`] call so the
//! shared-sweep machinery groups their scans.
//!
//! ## Sequence numbers & resume
//!
//! Every *emitted* event batch (a non-empty per-subscription event
//! group from one tick, or a registration backfill) consumes one
//! monotone per-subscription **sequence number**, and the last
//! [`SubscriptionConfig::retain`] batches are kept in a per-sub ring
//! ([`RetainedBatch`]). A serving layer whose client reconnects asks
//! [`retained_since`](SubscriptionSet::retained_since) for a gap-free
//! replay; when the ring no longer reaches back far enough the layer
//! falls back to [`resnapshot`](SubscriptionSet::resnapshot), which
//! re-evaluates the subscription from the index, resets its state,
//! and emits a fresh full backfill under the next sequence number.
//! Sequence arithmetic is what lets the wire layer prove "no event
//! duplicated, none skipped" end to end.
//!
//! **kNN** subscriptions have no static region to cache against, so
//! they re-run each tick through [`knn_batch`] — which is itself
//! incremental *within* the query: its expanding probe chain passes
//! the previously covered region to
//! [`MovingObjectIndex::knn_candidates`], so each enlargement round
//! scans only the delta ring beyond the last probe.
//!
//! ## Event semantics
//!
//! For each subscription, per tick: `Enter` for ids in the new result
//! but not the previous one, `Leave` for ids that dropped out, and
//! `Moved` for ids that stayed in the result *and* were re-reported in
//! this tick's batch. Events are emitted in ascending subscription-id
//! order; within one subscription all `Enter`s (ascending object id)
//! precede all `Leave`s, which precede all `Moved`s. The stream is
//! deterministic for a given registration/tick history.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vp_geom::{Point, Rect};

use crate::error::IndexResult;
use crate::knn::{knn_at, knn_batch, KnnQuery};
use crate::object::{MovingObject, ObjectId};
use crate::query::{QueryRegion, RangeQuery};
use crate::traits::MovingObjectIndex;

/// Identifies one registered subscription within a [`SubscriptionSet`].
pub type SubscriptionId = u64;

/// What happened to one object relative to one subscription's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SubEventKind {
    /// The object joined the subscription's result set this tick.
    Enter,
    /// The object left the result set this tick.
    Leave,
    /// The object stayed in the result set and re-reported (was part
    /// of this tick's update batch).
    Moved,
}

/// One subscription event, emitted by [`SubscriptionSet::on_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubEvent {
    /// The subscription this event belongs to.
    pub sub: SubscriptionId,
    /// Enter / Leave / Moved.
    pub kind: SubEventKind,
    /// The object the event is about.
    pub id: ObjectId,
}

/// A standing range query: objects inside `region` at `now +
/// predictive_dt`, re-evaluated every tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeSubSpec {
    /// The (static) query region.
    pub region: QueryRegion,
    /// Predictive offset: the slice time evaluated each tick is the
    /// tick time plus this. Zero for "where is everyone right now".
    pub predictive_dt: f64,
}

/// A standing kNN query: the `k` objects nearest `center` at `now +
/// predictive_dt`, re-evaluated every tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnSubSpec {
    /// Query point.
    pub center: Point,
    /// Result size.
    pub k: usize,
    /// Predictive offset, as in [`RangeSubSpec::predictive_dt`].
    pub predictive_dt: f64,
}

/// The per-tick change set: what one committed mutation batch did.
///
/// Produced by [`crate::VpIndex::apply_updates_delta`] (or built
/// directly for single-op mutations) and consumed by
/// [`SubscriptionSet::on_tick`]. `upserts` carries the post-tick state
/// of every object written this tick (last write wins within the
/// batch, ascending id); `removals` the ids deleted this tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickDelta {
    /// The tick's logical time (the newest `ref_time` in the batch).
    pub time: f64,
    /// Post-tick state of each object written this tick, ascending id.
    pub upserts: Vec<MovingObject>,
    /// Ids deleted this tick, ascending.
    pub removals: Vec<ObjectId>,
}

impl TickDelta {
    /// The delta of one tick batch with upsert semantics: last write
    /// per id wins, winners sorted by id, `time` = the newest
    /// reference time in the batch.
    pub fn from_updates(updates: &[MovingObject]) -> TickDelta {
        let mut latest: BTreeMap<ObjectId, MovingObject> = BTreeMap::new();
        let mut time = f64::NEG_INFINITY;
        for obj in updates {
            latest.insert(obj.id, *obj);
            time = time.max(obj.ref_time);
        }
        TickDelta {
            time: if latest.is_empty() { 0.0 } else { time },
            upserts: latest.into_values().collect(),
            removals: Vec::new(),
        }
    }

    /// The delta of a single insert.
    pub fn from_insert(obj: MovingObject) -> TickDelta {
        TickDelta {
            time: obj.ref_time,
            upserts: vec![obj],
            removals: Vec::new(),
        }
    }

    /// The delta of a single delete. Deletes carry no timestamp of
    /// their own, so the caller supplies the current logical time.
    pub fn from_delete(id: ObjectId, time: f64) -> TickDelta {
        TickDelta {
            time,
            upserts: Vec::new(),
            removals: vec![id],
        }
    }

    /// True when the delta writes or removes nothing.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removals.is_empty()
    }
}

/// Evaluation parameters for a [`SubscriptionSet`].
#[derive(Debug, Clone)]
pub struct SubscriptionConfig {
    /// The data domain (bounds kNN probe expansion).
    pub domain: Rect,
    /// How far ahead (in timestamps) each range subscription's
    /// interval probe reaches. Larger horizons refresh less often but
    /// probe a larger region per refresh.
    pub horizon: f64,
    /// Emitted event batches retained per subscription for
    /// reconnect replay ([`SubscriptionSet::retained_since`]).
    /// 0 disables replay — every resume becomes a full
    /// [`resnapshot`](SubscriptionSet::resnapshot).
    pub retain: usize,
}

impl SubscriptionConfig {
    /// Defaults: 60-timestamp horizon, 64 retained batches per
    /// subscription.
    pub fn new(domain: Rect) -> SubscriptionConfig {
        SubscriptionConfig {
            domain,
            horizon: 60.0,
            retain: 64,
        }
    }

    /// Sets the candidate-probe horizon.
    pub fn with_horizon(mut self, horizon: f64) -> SubscriptionConfig {
        self.horizon = horizon;
        self
    }

    /// Sets the per-subscription replay-ring capacity.
    pub fn with_retain(mut self, retain: usize) -> SubscriptionConfig {
        self.retain = retain;
        self
    }
}

/// One emitted event batch, retained for reconnect replay: everything
/// a serving layer needs to re-send the frame (sequence number,
/// evaluation time, the `(kind, id)` pairs in emission order).
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedBatch {
    /// The batch's per-subscription sequence number (1-based,
    /// contiguous across emitted batches).
    pub seq: u64,
    /// Evaluation time of the tick (or registration) that produced it.
    pub time: f64,
    /// `(kind, object id)` pairs in emission order.
    pub events: Vec<(SubEventKind, ObjectId)>,
}

/// Per-subscription sequence counter + bounded replay ring.
#[derive(Debug, Clone, Default)]
struct SubLog {
    /// Last assigned sequence number (0 = nothing emitted yet).
    seq: u64,
    retained: VecDeque<RetainedBatch>,
}

impl SubLog {
    /// Assigns the next sequence number to `events` and retains the
    /// batch (evicting the oldest beyond `retain`).
    fn record(&mut self, time: f64, events: Vec<(SubEventKind, ObjectId)>, retain: usize) -> u64 {
        self.seq += 1;
        self.retained.push_back(RetainedBatch {
            seq: self.seq,
            time,
            events,
        });
        while self.retained.len() > retain {
            self.retained.pop_front();
        }
        self.seq
    }
}

#[derive(Debug, Clone)]
struct RangeSub {
    spec: RangeSubSpec,
    /// Exact answer of the last interval probe, patched per tick from
    /// deltas; superset of the slice result for any `t ≤ window_end`.
    candidates: BTreeSet<ObjectId>,
    /// Result set as of the last evaluation.
    result: BTreeSet<ObjectId>,
    /// Last tick time the candidate set is valid for.
    window_end: f64,
    log: SubLog,
}

#[derive(Debug, Clone)]
struct KnnSub {
    spec: KnnSubSpec,
    result: BTreeSet<ObjectId>,
    log: SubLog,
}

/// The registered standing queries plus their cached evaluation state.
///
/// Owned by whoever owns the tick loop (the `vp-server` writer
/// thread, a test harness): call
/// [`register_range`](SubscriptionSet::register_range) /
/// [`register_knn`](SubscriptionSet::register_knn) /
/// [`unregister`](SubscriptionSet::unregister) between ticks, and
/// [`on_tick`](SubscriptionSet::on_tick) after each committed
/// mutation with the index (or a snapshot of it) and the tick's
/// delta.
#[derive(Debug)]
pub struct SubscriptionSet {
    cfg: SubscriptionConfig,
    next_id: SubscriptionId,
    ranges: BTreeMap<SubscriptionId, RangeSub>,
    knns: BTreeMap<SubscriptionId, KnnSub>,
}

impl SubscriptionSet {
    /// An empty set evaluating under `cfg`.
    pub fn new(cfg: SubscriptionConfig) -> SubscriptionSet {
        SubscriptionSet {
            cfg,
            next_id: 1,
            ranges: BTreeMap::new(),
            knns: BTreeMap::new(),
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.ranges.len() + self.knns.len()
    }

    /// True when no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && self.knns.is_empty()
    }

    /// The evaluation parameters.
    pub fn config(&self) -> &SubscriptionConfig {
        &self.cfg
    }

    /// Registers a range subscription as of logical time `now` (the
    /// last committed tick time; must not precede any stored object's
    /// reference time). Returns the new id plus the `Enter` backfill:
    /// one event per object currently in the result, ascending id. A
    /// non-empty backfill consumes the subscription's first sequence
    /// number.
    pub fn register_range<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        now: f64,
        spec: RangeSubSpec,
    ) -> IndexResult<(SubscriptionId, Vec<SubEvent>)> {
        let id = self.next_id;
        let backfill = self.register_range_as(index, now, spec, id)?;
        Ok((id, backfill))
    }

    /// [`register_range`](SubscriptionSet::register_range) under a
    /// caller-chosen id — the serving layer uses this to revive a
    /// reaped subscription under its original id so a resuming client
    /// keeps a stable handle. Fails when the id is already live.
    pub fn register_range_as<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        now: f64,
        spec: RangeSubSpec,
        sub: SubscriptionId,
    ) -> IndexResult<Vec<SubEvent>> {
        self.claim_id(sub)?;
        let dt = spec.predictive_dt;
        let window_end = now + self.cfg.horizon;
        let probe = RangeQuery::time_interval(spec.region, now + dt, window_end + dt);
        let candidates: BTreeSet<ObjectId> = index.range_query(&probe)?.into_iter().collect();
        let slice = RangeQuery::time_slice(spec.region, now + dt);
        let mut result = BTreeSet::new();
        for &id in &candidates {
            if let Some(obj) = index.get_object(id)? {
                if slice.matches(&obj) {
                    result.insert(id);
                }
            }
        }
        let mut log = SubLog::default();
        if !result.is_empty() {
            log.record(
                now,
                result.iter().map(|&id| (SubEventKind::Enter, id)).collect(),
                self.cfg.retain,
            );
        }
        let backfill = result
            .iter()
            .map(|&id| SubEvent {
                sub,
                kind: SubEventKind::Enter,
                id,
            })
            .collect();
        self.ranges.insert(
            sub,
            RangeSub {
                spec,
                candidates,
                result,
                window_end,
                log,
            },
        );
        Ok(backfill)
    }

    /// Registers a kNN subscription as of logical time `now`. Returns
    /// the new id plus the `Enter` backfill for the current `k`
    /// nearest, ascending id.
    pub fn register_knn<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        now: f64,
        spec: KnnSubSpec,
    ) -> IndexResult<(SubscriptionId, Vec<SubEvent>)> {
        let id = self.next_id;
        let backfill = self.register_knn_as(index, now, spec, id)?;
        Ok((id, backfill))
    }

    /// [`register_knn`](SubscriptionSet::register_knn) under a
    /// caller-chosen id (see
    /// [`register_range_as`](SubscriptionSet::register_range_as)).
    pub fn register_knn_as<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        now: f64,
        spec: KnnSubSpec,
        sub: SubscriptionId,
    ) -> IndexResult<Vec<SubEvent>> {
        self.claim_id(sub)?;
        let neighbors = knn_at(
            index,
            spec.center,
            spec.k,
            now + spec.predictive_dt,
            &self.cfg.domain,
        )?;
        let result: BTreeSet<ObjectId> = neighbors.iter().map(|n| n.id).collect();
        let mut log = SubLog::default();
        if !result.is_empty() {
            log.record(
                now,
                result.iter().map(|&id| (SubEventKind::Enter, id)).collect(),
                self.cfg.retain,
            );
        }
        let backfill = result
            .iter()
            .map(|&id| SubEvent {
                sub,
                kind: SubEventKind::Enter,
                id,
            })
            .collect();
        self.knns.insert(sub, KnnSub { spec, result, log });
        Ok(backfill)
    }

    /// Reserves `sub` for a new registration: errors when live,
    /// advances the allocator past it otherwise (ids are never
    /// recycled by the automatic allocator).
    fn claim_id(&mut self, sub: SubscriptionId) -> IndexResult<()> {
        if self.ranges.contains_key(&sub) || self.knns.contains_key(&sub) {
            return Err(crate::error::IndexError::Config(format!(
                "subscription id {sub} is already registered"
            )));
        }
        self.next_id = self.next_id.max(sub + 1);
        Ok(())
    }

    /// Drops a subscription. Returns false when the id is unknown
    /// (already unregistered); no events are emitted either way.
    pub fn unregister(&mut self, sub: SubscriptionId) -> bool {
        self.ranges.remove(&sub).is_some() || self.knns.remove(&sub).is_some()
    }

    /// Advances every subscription past one committed tick and returns
    /// the resulting events (ordering documented at module level).
    ///
    /// `index` must reflect the post-tick state `delta` describes — the
    /// live index right after the mutation committed, or the snapshot
    /// published for it. Tick times must be non-decreasing across
    /// calls and must not precede the `now` passed to any earlier
    /// registration.
    pub fn on_tick<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        delta: &TickDelta,
    ) -> IndexResult<Vec<SubEvent>> {
        let t = delta.time;

        // Pass 1 — grouped refresh: every range subscription whose
        // cached interval window expired goes back to the index, all
        // of them through ONE range_query_batch call so the
        // shared-sweep plan groups their scans.
        let expired: Vec<SubscriptionId> = self
            .ranges
            .iter()
            .filter(|(_, s)| t > s.window_end)
            .map(|(&id, _)| id)
            .collect();
        if !expired.is_empty() {
            let probes: Vec<RangeQuery> = expired
                .iter()
                .map(|id| {
                    let s = &self.ranges[id];
                    let dt = s.spec.predictive_dt;
                    RangeQuery::time_interval(s.spec.region, t + dt, t + self.cfg.horizon + dt)
                })
                .collect();
            let answers = index.range_query_batch(&probes)?;
            for (id, ids) in expired.iter().zip(answers) {
                let s = self.ranges.get_mut(id).expect("expired sub present");
                s.candidates = ids.into_iter().collect();
                s.window_end = t + self.cfg.horizon;
            }
        }

        // Pass 2 — delta patch, zero index I/O: each upsert is tested
        // against each still-cached subscription's remaining window
        // with the exact predicate; removals drop out. Freshly
        // refreshed subscriptions already absorbed the tick (the probe
        // ran post-commit), and re-testing is a no-op for them, so one
        // uniform loop is fine.
        if !delta.is_empty() {
            for s in self.ranges.values_mut() {
                let dt = s.spec.predictive_dt;
                let remaining = RangeQuery::time_interval(s.spec.region, t + dt, s.window_end + dt);
                for obj in &delta.upserts {
                    if remaining.matches(obj) {
                        s.candidates.insert(obj.id);
                    } else {
                        s.candidates.remove(&obj.id);
                    }
                }
                for id in &delta.removals {
                    s.candidates.remove(id);
                }
            }
        }

        // Pass 3 — evaluate. Range results come from the candidate
        // cache (in-memory exact slice filter); kNN results from one
        // knn_batch whose probe chains are internally incremental via
        // the knn_candidates covered-region contract.
        let mut new_results: BTreeMap<SubscriptionId, BTreeSet<ObjectId>> = BTreeMap::new();
        for (&sub, s) in &self.ranges {
            let slice = RangeQuery::time_slice(s.spec.region, t + s.spec.predictive_dt);
            let mut result = BTreeSet::new();
            for &id in &s.candidates {
                if let Some(obj) = index.get_object(id)? {
                    if slice.matches(&obj) {
                        result.insert(id);
                    }
                }
            }
            new_results.insert(sub, result);
        }
        if !self.knns.is_empty() {
            let ids: Vec<SubscriptionId> = self.knns.keys().copied().collect();
            let queries: Vec<KnnQuery> = self
                .knns
                .values()
                .map(|s| KnnQuery {
                    center: s.spec.center,
                    k: s.spec.k,
                    t: t + s.spec.predictive_dt,
                })
                .collect();
            let answers = knn_batch(index, &queries, &self.cfg.domain)?;
            for (sub, neighbors) in ids.into_iter().zip(answers) {
                new_results.insert(sub, neighbors.into_iter().map(|n| n.id).collect());
            }
        }

        // Pass 4 — diff and emit, ascending subscription id. Each
        // subscription's non-empty batch is also recorded in its
        // replay ring under the next sequence number.
        let moved_ids: BTreeSet<ObjectId> = delta.upserts.iter().map(|o| o.id).collect();
        let retain = self.cfg.retain;
        let mut events = Vec::new();
        for (sub, new) in new_results {
            let old = if let Some(s) = self.ranges.get(&sub) {
                &s.result
            } else {
                &self.knns[&sub].result
            };
            let mut batch: Vec<(SubEventKind, ObjectId)> = Vec::new();
            for &id in new.difference(old) {
                batch.push((SubEventKind::Enter, id));
            }
            for &id in old.difference(&new) {
                batch.push((SubEventKind::Leave, id));
            }
            for &id in new.intersection(old) {
                if moved_ids.contains(&id) {
                    batch.push((SubEventKind::Moved, id));
                }
            }
            events.extend(batch.iter().map(|&(kind, id)| SubEvent { sub, kind, id }));
            if let Some(s) = self.ranges.get_mut(&sub) {
                s.result = new;
                if !batch.is_empty() {
                    s.log.record(t, batch, retain);
                }
            } else {
                let s = self.knns.get_mut(&sub).expect("knn sub present");
                s.result = new;
                if !batch.is_empty() {
                    s.log.record(t, batch, retain);
                }
            }
        }
        Ok(events)
    }

    /// True when `sub` is currently registered.
    pub fn contains(&self, sub: SubscriptionId) -> bool {
        self.ranges.contains_key(&sub) || self.knns.contains_key(&sub)
    }

    /// The range spec of `sub`, if it is a live range subscription.
    pub fn range_spec(&self, sub: SubscriptionId) -> Option<RangeSubSpec> {
        self.ranges.get(&sub).map(|s| s.spec)
    }

    /// The kNN spec of `sub`, if it is a live kNN subscription.
    pub fn knn_spec(&self, sub: SubscriptionId) -> Option<KnnSubSpec> {
        self.knns.get(&sub).map(|s| s.spec)
    }

    /// The last sequence number emitted for `sub` (0 = nothing
    /// emitted yet), or None if the id is unknown.
    pub fn last_seq(&self, sub: SubscriptionId) -> Option<u64> {
        self.log_of(sub).map(|l| l.seq)
    }

    /// Gap-free replay: every retained batch of `sub` with sequence
    /// number strictly greater than `after_seq`, ascending.
    ///
    /// Returns `Some(batches)` only when the ring provably covers the
    /// whole gap — i.e. the oldest retained batch's seq is
    /// `≤ after_seq + 1` (or nothing was emitted past `after_seq`).
    /// Returns `None` when the id is unknown, `after_seq` lies beyond
    /// the current seq (the client is ahead — a stale token), or the
    /// ring was trimmed past the gap; the caller should fall back to
    /// [`resnapshot`](SubscriptionSet::resnapshot).
    pub fn retained_since(
        &self,
        sub: SubscriptionId,
        after_seq: u64,
    ) -> Option<Vec<RetainedBatch>> {
        let log = self.log_of(sub)?;
        if after_seq > log.seq {
            return None;
        }
        if after_seq == log.seq {
            return Some(Vec::new());
        }
        match log.retained.front() {
            Some(first) if first.seq <= after_seq + 1 => Some(
                log.retained
                    .iter()
                    .filter(|b| b.seq > after_seq)
                    .cloned()
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Re-evaluates `sub` from the index as of `now`, replacing its
    /// cached state, clearing its replay ring, and emitting a fresh
    /// full backfill (every current member as `Enter`) under the next
    /// sequence number — the resume path of last resort when
    /// [`retained_since`](SubscriptionSet::retained_since) cannot
    /// bridge the gap. The backfill batch **always** consumes a
    /// sequence number, even when empty, so the resuming client
    /// observes the seq advance and discards its stale state.
    ///
    /// Returns `None` when the id is unknown.
    pub fn resnapshot<I: MovingObjectIndex + ?Sized>(
        &mut self,
        index: &I,
        sub: SubscriptionId,
        now: f64,
    ) -> IndexResult<Option<RetainedBatch>> {
        let retain = self.cfg.retain;
        if let Some(s) = self.ranges.get(&sub) {
            let spec = s.spec;
            let dt = spec.predictive_dt;
            let window_end = now + self.cfg.horizon;
            let probe = RangeQuery::time_interval(spec.region, now + dt, window_end + dt);
            let candidates: BTreeSet<ObjectId> = index.range_query(&probe)?.into_iter().collect();
            let slice = RangeQuery::time_slice(spec.region, now + dt);
            let mut result = BTreeSet::new();
            for &id in &candidates {
                if let Some(obj) = index.get_object(id)? {
                    if slice.matches(&obj) {
                        result.insert(id);
                    }
                }
            }
            let events: Vec<(SubEventKind, ObjectId)> =
                result.iter().map(|&id| (SubEventKind::Enter, id)).collect();
            let s = self.ranges.get_mut(&sub).expect("checked above");
            s.candidates = candidates;
            s.window_end = window_end;
            s.result = result;
            s.log.retained.clear();
            let seq = s.log.record(now, events.clone(), retain.max(1));
            return Ok(Some(RetainedBatch {
                seq,
                time: now,
                events,
            }));
        }
        if let Some(s) = self.knns.get(&sub) {
            let spec = s.spec;
            let neighbors = knn_at(
                index,
                spec.center,
                spec.k,
                now + spec.predictive_dt,
                &self.cfg.domain,
            )?;
            let result: BTreeSet<ObjectId> = neighbors.iter().map(|n| n.id).collect();
            let events: Vec<(SubEventKind, ObjectId)> =
                result.iter().map(|&id| (SubEventKind::Enter, id)).collect();
            let s = self.knns.get_mut(&sub).expect("checked above");
            s.result = result;
            s.log.retained.clear();
            let seq = s.log.record(now, events.clone(), retain.max(1));
            return Ok(Some(RetainedBatch {
                seq,
                time: now,
                events,
            }));
        }
        Ok(None)
    }

    fn log_of(&self, sub: SubscriptionId) -> Option<&SubLog> {
        self.ranges
            .get(&sub)
            .map(|s| &s.log)
            .or_else(|| self.knns.get(&sub).map(|s| &s.log))
    }

    /// The current result set of a subscription (None if unknown).
    /// Ascending object id; what the event stream has cumulatively
    /// built.
    pub fn result(&self, sub: SubscriptionId) -> Option<Vec<ObjectId>> {
        self.ranges
            .get(&sub)
            .map(|s| s.result.iter().copied().collect())
            .or_else(|| {
                self.knns
                    .get(&sub)
                    .map(|s| s.result.iter().copied().collect())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::reference::ScanIndex;
    use vp_geom::Circle;

    fn domain() -> Rect {
        Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0)
    }

    fn obj(id: u64, x: f64, y: f64, vx: f64, vy: f64, t: f64) -> MovingObject {
        MovingObject::new(id, Point::new(x, y), Point::new(vx, vy), t)
    }

    fn circle(x: f64, y: f64, r: f64) -> QueryRegion {
        QueryRegion::Circle(Circle::new(Point::new(x, y), r))
    }

    fn apply(idx: &mut ScanIndex, delta: &TickDelta) {
        idx.update_batch(&delta.upserts).unwrap();
        for &id in &delta.removals {
            idx.delete(id).unwrap();
        }
    }

    #[test]
    fn range_sub_enter_leave_moved() {
        let mut idx = ScanIndex::new();
        // Object 1 sits inside the region, object 2 approaches it.
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        idx.insert(obj(2, 200.0, 100.0, -10.0, 0.0, 0.0)).unwrap();

        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()).with_horizon(30.0));
        let (sub, backfill) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        assert_eq!(
            backfill,
            vec![SubEvent {
                sub,
                kind: SubEventKind::Enter,
                id: 1
            }]
        );

        // Tick at t=10: object 2 re-reports at (100,100) → Enter; the
        // re-report of object 1 inside → Moved.
        let delta = TickDelta::from_updates(&[
            obj(1, 101.0, 100.0, 0.0, 0.0, 10.0),
            obj(2, 100.0, 100.0, 0.0, 0.0, 10.0),
        ]);
        apply(&mut idx, &delta);
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![
                SubEvent {
                    sub,
                    kind: SubEventKind::Enter,
                    id: 2
                },
                SubEvent {
                    sub,
                    kind: SubEventKind::Moved,
                    id: 1
                },
            ]
        );

        // Tick at t=20: object 1 jumps away → Leave.
        let delta = TickDelta::from_updates(&[obj(1, 500.0, 500.0, 0.0, 0.0, 20.0)]);
        apply(&mut idx, &delta);
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![SubEvent {
                sub,
                kind: SubEventKind::Leave,
                id: 1
            }]
        );
        assert_eq!(subs.result(sub), Some(vec![2]));
    }

    #[test]
    fn drift_without_updates_still_emits() {
        // An object drifting into the region with no re-report must
        // still Enter — from the cached interval candidates alone.
        let mut idx = ScanIndex::new();
        idx.insert(obj(7, 200.0, 100.0, -10.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()).with_horizon(100.0));
        let (sub, backfill) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        assert!(backfill.is_empty());
        // Empty tick at t=10: object 7 is now at (100,100).
        let delta = TickDelta {
            time: 10.0,
            upserts: Vec::new(),
            removals: Vec::new(),
        };
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![SubEvent {
                sub,
                kind: SubEventKind::Enter,
                id: 7
            }]
        );
    }

    #[test]
    fn window_expiry_refreshes_from_index() {
        let mut idx = ScanIndex::new();
        // Too far to be a candidate of the registration probe
        // (horizon 5, speed 0 → never matches the first window).
        idx.insert(obj(3, 400.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()).with_horizon(5.0));
        let (sub, _) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        // Teleport object 3 inside via a tick far past the window;
        // the refresh probe must pick it up.
        let delta = TickDelta::from_updates(&[obj(3, 100.0, 100.0, 0.0, 0.0, 50.0)]);
        apply(&mut idx, &delta);
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![SubEvent {
                sub,
                kind: SubEventKind::Enter,
                id: 3
            }]
        );
    }

    #[test]
    fn knn_sub_tracks_nearest() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        idx.insert(obj(2, 150.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        idx.insert(obj(3, 900.0, 900.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()));
        let (sub, backfill) = subs
            .register_knn(
                &idx,
                0.0,
                KnnSubSpec {
                    center: Point::new(100.0, 100.0),
                    k: 2,
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        assert_eq!(backfill.len(), 2);
        assert_eq!(subs.result(sub), Some(vec![1, 2]));

        // Object 3 teleports next to the center → displaces object 2.
        let delta = TickDelta::from_updates(&[obj(3, 101.0, 100.0, 0.0, 0.0, 10.0)]);
        apply(&mut idx, &delta);
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![
                SubEvent {
                    sub,
                    kind: SubEventKind::Enter,
                    id: 3
                },
                SubEvent {
                    sub,
                    kind: SubEventKind::Leave,
                    id: 2
                },
            ]
        );
    }

    #[test]
    fn unregister_stops_events() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()));
        let (sub, _) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        assert!(subs.unregister(sub));
        assert!(!subs.unregister(sub), "second unregister is a no-op");
        let delta = TickDelta::from_updates(&[obj(1, 500.0, 500.0, 0.0, 0.0, 10.0)]);
        apply(&mut idx, &delta);
        assert!(subs.on_tick(&idx, &delta).unwrap().is_empty());
    }

    #[test]
    fn tick_delta_last_write_wins_sorted() {
        let d = TickDelta::from_updates(&[
            obj(5, 1.0, 1.0, 0.0, 0.0, 3.0),
            obj(2, 2.0, 2.0, 0.0, 0.0, 4.0),
            obj(5, 9.0, 9.0, 0.0, 0.0, 5.0),
        ]);
        assert_eq!(d.time, 5.0);
        assert_eq!(d.upserts.len(), 2);
        assert_eq!(d.upserts[0].id, 2);
        assert_eq!(d.upserts[1].id, 5);
        assert_eq!(d.upserts[1].pos, Point::new(9.0, 9.0));
        assert!(TickDelta::from_updates(&[]).is_empty());
    }

    #[test]
    fn sequence_numbers_count_emitted_batches() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()).with_horizon(100.0));
        let (sub, backfill) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        assert_eq!(backfill.len(), 1);
        assert_eq!(subs.last_seq(sub), Some(1), "backfill consumed seq 1");

        // Quiet tick: nothing changes, no batch, seq stays.
        let quiet = TickDelta {
            time: 5.0,
            upserts: Vec::new(),
            removals: Vec::new(),
        };
        assert!(subs.on_tick(&idx, &quiet).unwrap().is_empty());
        assert_eq!(subs.last_seq(sub), Some(1), "empty batches consume no seq");

        // Eventful tick: Moved → seq 2.
        let delta = TickDelta::from_updates(&[obj(1, 101.0, 100.0, 0.0, 0.0, 10.0)]);
        apply(&mut idx, &delta);
        assert_eq!(subs.on_tick(&idx, &delta).unwrap().len(), 1);
        assert_eq!(subs.last_seq(sub), Some(2));

        // Replay from 0 returns both batches, contiguous.
        let replay = subs.retained_since(sub, 0).unwrap();
        assert_eq!(replay.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(replay[0].events, vec![(SubEventKind::Enter, 1)]);
        assert_eq!(replay[1].events, vec![(SubEventKind::Moved, 1)]);
        // Replay from the tip is empty, not a gap.
        assert_eq!(subs.retained_since(sub, 2), Some(Vec::new()));
        // A token from the future is a stale client — gap.
        assert_eq!(subs.retained_since(sub, 3), None);
        assert_eq!(subs.retained_since(9999, 0), None, "unknown id");
    }

    #[test]
    fn retention_trim_turns_replay_into_gap() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(
            SubscriptionConfig::new(domain())
                .with_horizon(1000.0)
                .with_retain(2),
        );
        let (sub, _) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        // Three eventful ticks → seqs 2, 3, 4; ring keeps the last 2.
        for i in 0..3 {
            let t = 10.0 * (i + 1) as f64;
            let delta = TickDelta::from_updates(&[obj(1, 101.0 + i as f64, 100.0, 0.0, 0.0, t)]);
            apply(&mut idx, &delta);
            subs.on_tick(&idx, &delta).unwrap();
        }
        assert_eq!(subs.last_seq(sub), Some(4));
        assert_eq!(
            subs.retained_since(sub, 2).map(|v| v.len()),
            Some(2),
            "ring still reaches back to seq 3"
        );
        assert_eq!(
            subs.retained_since(sub, 1),
            None,
            "seq 2 was trimmed — caller must resnapshot"
        );

        // Resnapshot: fresh backfill under seq 5, ring reset.
        let snap = subs.resnapshot(&idx, sub, 30.0).unwrap().unwrap();
        assert_eq!(snap.seq, 5, "resnapshot always consumes a seq");
        assert_eq!(snap.events, vec![(SubEventKind::Enter, 1)]);
        assert_eq!(subs.retained_since(sub, 4).map(|v| v.len()), Some(1));
        assert_eq!(subs.resnapshot(&idx, 9999, 30.0).unwrap(), None);

        // The stream continues seamlessly after the snapshot.
        let delta = TickDelta::from_updates(&[obj(1, 500.0, 500.0, 0.0, 0.0, 40.0)]);
        apply(&mut idx, &delta);
        subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(subs.last_seq(sub), Some(6));
    }

    #[test]
    fn register_as_revives_reaped_id() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()));
        let spec = RangeSubSpec {
            region: circle(100.0, 100.0, 50.0),
            predictive_dt: 0.0,
        };
        let (sub, _) = subs.register_range(&idx, 0.0, spec).unwrap();
        assert!(subs.register_range_as(&idx, 0.0, spec, sub).is_err());
        assert!(subs.unregister(sub));
        let backfill = subs.register_range_as(&idx, 0.0, spec, sub).unwrap();
        assert_eq!(backfill.len(), 1);
        assert!(subs.contains(sub));
        assert_eq!(subs.range_spec(sub), Some(spec));
        // The allocator never re-issues a caller-claimed id.
        let (next, _) = subs.register_range(&idx, 0.0, spec).unwrap();
        assert!(next > sub);
    }

    #[test]
    fn removal_emits_leave() {
        let mut idx = ScanIndex::new();
        idx.insert(obj(1, 100.0, 100.0, 0.0, 0.0, 0.0)).unwrap();
        let mut subs = SubscriptionSet::new(SubscriptionConfig::new(domain()));
        let (sub, _) = subs
            .register_range(
                &idx,
                0.0,
                RangeSubSpec {
                    region: circle(100.0, 100.0, 50.0),
                    predictive_dt: 0.0,
                },
            )
            .unwrap();
        let delta = TickDelta::from_delete(1, 5.0);
        apply(&mut idx, &delta);
        let events = subs.on_tick(&idx, &delta).unwrap();
        assert_eq!(
            events,
            vec![SubEvent {
                sub,
                kind: SubEventKind::Leave,
                id: 1
            }]
        );
    }
}
