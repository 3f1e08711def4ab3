//! # vp-server — networked batch-formation front-end
//!
//! Everything inside the index is batched (`range_query_batch` /
//! `knn_batch` beat looped queries 1.5–2.9×) and snapshot reads are
//! lock-free under concurrent ticks — but those wins only materialize
//! if something *forms batches* from independent client requests. This
//! crate is that something: a std-only TCP server whose connection
//! threads **combine** their reads — the one holding the combiner lock
//! executes the range/kNN requests queued at the same moment as one
//! size-bounded window against the current [`vp_core::VpSnapshot`],
//! its own included, and a lone read runs where it arrived with no
//! thread hand-off — while a single writer thread owns
//! the `&mut` [`vp_core::VpIndex`] and publishes a fresh snapshot
//! after every committed mutation. Group commit, applied to reads.
//!
//! The same connection also carries **standing queries**: a client
//! registers a range or kNN subscription ([`Request::Subscribe`]) and
//! the writer thread — which sees every committed mutation as a
//! [`vp_core::TickDelta`] — evaluates the whole subscription set
//! incrementally ([`vp_core::SubscriptionSet::on_tick`]) and pushes
//! `Enter`/`Leave`/`Moved` event frames back over the registering
//! connection.
//!
//! * [`protocol`] — the length-prefixed binary wire format (requests,
//!   responses, typed error codes, chunked range results, event
//!   pushes, deadline envelopes, heartbeats, and the incremental
//!   [`protocol::FrameReader`] that survives socket timeouts
//!   mid-frame).
//! * [`server`] — [`spawn`], the thread topology, the
//!   combining policy, bounded-queue admission control, per-request
//!   deadlines, idle-peer eviction, graceful drain, and resumable
//!   subscriptions.
//! * [`client`] — [`VpClient`], a small blocking client used by the
//!   tests, the load generator, and the quickstart example; optional
//!   auto-reconnect with subscription resume.
//! * [`chaos`] — a deterministic in-process TCP fault proxy
//!   (delay / split / truncate / kill / reset), the wire-layer
//!   sibling of `vp_storage::FaultInjector`.
//!
//! See `docs/ARCHITECTURE.md` ("Service layer & batch formation" and
//! "Failure model & the degradation ladder") for the request lifecycle
//! and the guard matrix rows that pin this crate's behavior, and
//! `crates/server/README.md` for the operator runbook.

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;

pub use chaos::{ChaosAction, ChaosPlan, ChaosProxy};
pub use client::{ClientError, ClientResult, EventBatch, VpClient};
pub use protocol::{
    ErrorCode, FrameReader, Request, Response, ResumeFrom, StatsReply, SubscribeSpec,
};
pub use server::{spawn, ServerConfig, ServerHandle};
