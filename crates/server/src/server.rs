//! The threaded server: acceptor → connection threads, which combine
//! their reads among themselves, and one writer.
//!
//! # Thread topology
//!
//! ```text
//!  clients ──TCP──▶ acceptor ──▶ conn thread (one per connection)
//!                                  │
//!                  Range/Knn ──────┼──push──────▶ read queue ──▶ combiner
//!                  Insert/Delete/  │                          (the conn thread
//!                  Tick ───────────┼──try_send──▶ write queue  holding the lock)
//!                  GetObject/Stats─┘               │                │ load()
//!                  (answered inline                ▼                ▼
//!                   from the snapshot)          writer ──publish──▶ SnapshotCell
//!                                               (&mut VpIndex)
//! ```
//!
//! Reads never touch the live index, and no thread exists only to run
//! them: they are *flat-combined* (Hendler, Incze, Shavit and
//! Tzafrir, SPAA 2010). A connection thread queues its read and tries
//! the combiner lock. The thread that gets it loads the current
//! [`SnapshotCell`] snapshot and executes a whole *window* — what the
//! read queue holds, up to [`ServerConfig::max_batch`], its own read
//! included — through `range_query_batch` / `knn_batch`, so the
//! in-index batching wins apply to independent network clients. It
//! leaves every other read's frames in that connection's slot, where
//! its thread is parked. A window never waits for reads that have not
//! arrived, so a lone read executes on the thread that received it
//! with no hand-off; under load the queue fills while a combiner
//! executes and batches form by themselves (group commit). A combiner
//! that releases the lock with reads still queued wakes the owner of
//! the first to combine next, so no read waits on a timer. The single
//! writer thread owns the `&mut` [`VpIndex`]; after every committed
//! mutation it publishes a fresh snapshot, so the next read window
//! observes it. Ticks and query windows therefore never contend on
//! anything.
//!
//! # Admission control
//!
//! Both queues are bounded (`queue_depth`). A full queue rejects the
//! request immediately with [`ErrorCode::Overloaded`] — the connection
//! stays open, nothing is buffered, and the client can retry after the
//! `retry_after_us` hint (windows queued ahead of it ×
//! [`ServerConfig::window_us`], the nominal cost of one). This is
//! the structured alternative to unbounded buildup: under overload the
//! server sheds load at the edge while in-flight windows keep their
//! latency.
//!
//! # Failure model at the wire
//!
//! Every connection carries socket read/write timeouts, so a dead or
//! stalled peer can never pin a thread: reads go through the
//! incremental [`FrameReader`] (partial frames survive timeout ticks),
//! and a peer that stays silent — no frame, no [`Request::Ping`] —
//! beyond [`ServerConfig::idle_timeout_ms`] is evicted. Requests may
//! arrive wrapped in a [`Request::Deadline`] envelope; expired work is
//! dropped at admission, again when a combiner opens the window, and
//! once more before the reply is written, each time answered with
//! [`ErrorCode::DeadlineExceeded`].
//!
//! # Graceful drain
//!
//! [`ServerHandle::shutdown`] (and a client's [`Request::Shutdown`])
//! runs a two-phase drain rather than an abrupt stop: the acceptor
//! closes, new work is rejected with [`ErrorCode::Draining`],
//! already-admitted reads and mutations are answered (reads by
//! combiners, which run in any mode), every routed subscription
//! receives a terminal `Events` frame with the `fin` flag, a durable
//! index is checkpointed (so the following start replays nothing),
//! and only then does the writer exit.
//! [`ServerHandle::kill`] keeps the old abrupt path for tests.
//!
//! # Resumable subscriptions
//!
//! Each `Events` push carries the subscription's monotone sequence
//! number. When a subscriber's connection dies, its subscriptions
//! *detach* (stay registered, keep recording into their replay rings)
//! for [`ServerConfig::sub_linger_ms`]; a client that reconnects and
//! subscribes with a `resume` token gets a gap-free replay from the
//! ring, or — past the ring or past the linger window — a fresh
//! backfill flagged `reset`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::mem;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vp_core::{
    IndexError, IndexSnapshot, KnnQuery, MovingObjectIndex, RangeQuery, RetainedBatch,
    SnapshotCell, SnapshotIndex, SubEvent, SubEventKind, SubscriptionConfig, SubscriptionId,
    SubscriptionSet, TickDelta, VpIndex, VpSnapshot,
};
use vp_geom::Rect;

use crate::protocol::{
    is_timeout, write_frame, ErrorCode, FrameReader, Request, Response, ResumeFrom, StatsReply,
    SubscribeSpec,
};

/// Tuning knobs for [`spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most read requests one batch window executes together; the
    /// window takes what is already queued and never waits for more.
    pub max_batch: usize,
    /// Nominal cost of one window (µs) — only the unit of the
    /// `retry_after_us` hint on [`ErrorCode::Overloaded`]. It delays
    /// nothing.
    pub window_us: u64,
    /// Bound on each admission queue (reads and writes separately);
    /// a full queue yields [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Maximum number of ids per [`Response::Ids`] frame; larger range
    /// results stream as multiple chunks.
    pub max_frame: usize,
    /// Test/bench knob: artificial delay (µs) the combiner spends
    /// holding each window before it executes it. Lets tests fill the
    /// admission queue deterministically; leave at 0 in production.
    pub former_stall_us: u64,
    /// Prediction horizon (time units) for standing queries: how far a
    /// range subscription's cached candidate set stays valid before
    /// the writer refreshes it from the index.
    pub sub_horizon: f64,
    /// Event batches retained per subscription for reconnect replay.
    pub sub_retain: usize,
    /// How long a subscription survives its connection (ms): within
    /// this window a resume replays from the ring; past it the
    /// subscription is reaped and a resume re-registers with `reset`.
    pub sub_linger_ms: u64,
    /// Socket read timeout (ms) — the cadence at which connection
    /// threads notice shutdown, drain, and idle peers. Never a
    /// correctness knob: partial frames survive timeout ticks.
    pub read_timeout_ms: u64,
    /// Socket write timeout (ms) — bounds how long a reply or event
    /// push can block on a peer that stopped reading; on expiry the
    /// connection is treated as dead.
    pub write_timeout_ms: u64,
    /// A connection that completes no frame for this long (ms) is
    /// evicted as half-open. Idle-but-healthy clients (e.g. passive
    /// subscribers) stay alive by sending [`Request::Ping`].
    pub idle_timeout_ms: u64,
    /// Upper bound (ms) the writer spends draining its queue during
    /// graceful shutdown before giving up on the remainder. Admitted
    /// reads need no budget: combiners answer them in any mode.
    pub drain_budget_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_batch: 32,
            window_us: 200,
            queue_depth: 1024,
            max_frame: 4096,
            former_stall_us: 0,
            sub_horizon: 60.0,
            sub_retain: 64,
            sub_linger_ms: 10_000,
            read_timeout_ms: 50,
            write_timeout_ms: 5_000,
            idle_timeout_ms: 30_000,
            drain_budget_ms: 5_000,
        }
    }
}

/// Lifecycle phase, shared by every thread (and the handle) as an
/// atomic. Transitions only move forward: Running → Draining → Stopped
/// (or Running → Stopped on [`ServerHandle::kill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Running,
    Draining,
    Stopped,
}

const MODE_RUNNING: u8 = 0;
const MODE_DRAINING: u8 = 1;
const MODE_STOPPED: u8 = 2;

fn load_mode(m: &AtomicU8) -> Mode {
    match m.load(Ordering::SeqCst) {
        MODE_RUNNING => Mode::Running,
        MODE_DRAINING => Mode::Draining,
        _ => Mode::Stopped,
    }
}

/// Counters shared by every thread; served to clients via
/// [`Request::Stats`].
struct Counters {
    read_only: AtomicBool,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    writes: AtomicU64,
    overloaded: AtomicU64,
    /// Jobs currently sitting in the write admission queue — feeds the
    /// `retry_after_us` hint on `Overloaded`.
    write_queued: AtomicU64,
    /// Read replies a combiner left for another connection's thread.
    /// Relaxed: a statistic the unit tests pin through the
    /// [`ServerHandle`], hence its own `Arc`; served nowhere.
    handoffs: Arc<AtomicU64>,
}

/// Everything the connection threads and the writer share. The mode
/// word is its own `Arc` so the (non-generic) [`ServerHandle`] can
/// hold it too.
struct Shared<S> {
    cell: SnapshotCell<VpSnapshot<S>>,
    domain: Rect,
    partitions: u32,
    counters: Counters,
    mode: Arc<AtomicU8>,
    addr: SocketAddr,
    cfg: ServerConfig,
    /// Allocator for per-connection ids (used to route subscription
    /// event pushes back to the owning connection).
    next_conn: AtomicU64,
    /// The bounded read admission queue; only the thread holding
    /// `combiner` takes jobs out of it.
    reads: Mutex<VecDeque<ReadJob>>,
    /// Held by the connection thread that executes read windows.
    combiner: Mutex<()>,
}

impl<S> Shared<S> {
    fn mode(&self) -> Mode {
        load_mode(&self.mode)
    }

    /// Called by the writer when it finishes (drain or plain exit):
    /// stops the world, so connection threads exit.
    fn service_thread_done(&self) {
        self.mode.store(MODE_STOPPED, Ordering::SeqCst);
    }
}

/// Queue-drain estimate (µs): full windows ahead of the caller, the
/// caller's own included, × `window_us` as the nominal cost of one.
/// Saturating, so no queue depth can overflow it or yield 0.
fn retry_hint_us(queued: u64, cfg: &ServerConfig) -> u64 {
    let windows = (queued / cfg.max_batch.max(1) as u64).saturating_add(1);
    windows.saturating_mul(cfg.window_us.max(1))
}

/// A connection's outgoing half, shared between its conn thread and
/// the writer thread (which pushes subscription event frames onto the
/// same stream). Every frame write takes this lock; multi-frame
/// sequences hold it across the whole sequence so pushed events never
/// interleave mid-response.
type ConnWriter = Arc<Mutex<BufWriter<TcpStream>>>;

type ConnId = u64;

/// Locks a mutex whose every update leaves its data valid, so a panic
/// on another thread while it was held leaves nothing to repair.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A connection's reply slot, reused by every request it sends. Its
/// thread parks here for a read's frames (from whichever thread
/// combined it), for a write's reply from the writer, or for the
/// combiner role.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    wake: Condvar,
}

#[derive(Default)]
enum SlotState {
    #[default]
    Empty,
    /// A combiner released the lock with this connection's read first
    /// in the queue: take the lock and combine.
    Combine,
    /// The whole reply; empty when the writer already wrote it on the
    /// stream (the Subscribe path).
    Frames(Vec<Response>),
}

impl Slot {
    fn put(&self, frames: Vec<Response>) {
        *lock(&self.state) = SlotState::Frames(frames);
        self.wake.notify_one();
    }

    /// Hands the combiner role to this slot's waiter — unless its reply
    /// already arrived, from a thread that took the lock after the
    /// caller released it and so makes the same hand-off on release.
    fn offer_combine(&self) {
        let mut state = lock(&self.state);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Combine;
            self.wake.notify_one();
        }
    }

    fn answered(&self) -> bool {
        matches!(*lock(&self.state), SlotState::Frames(_))
    }

    /// Parks until the reply arrives (`Some`) or the combiner role is
    /// handed over (`None`).
    fn wait(&self) -> Option<Vec<Response>> {
        let mut state = lock(&self.state);
        loop {
            match mem::take(&mut *state) {
                SlotState::Frames(frames) => return Some(frames),
                SlotState::Combine => return None,
                SlotState::Empty => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// Where a job's answer goes: the asking connection's slot. A job
/// dropped unanswered (the writer stopped first) answers `Internal`,
/// so no connection thread waits for it forever.
struct Reply {
    slot: Arc<Slot>,
    sent: bool,
}

impl Reply {
    fn to(slot: &Arc<Slot>) -> Reply {
        Reply {
            slot: Arc::clone(slot),
            sent: false,
        }
    }

    fn send(mut self, frames: Vec<Response>) {
        self.slot.put(frames);
        self.sent = true;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            self.slot.put(vec![internal("server shutting down")]);
        }
    }
}

enum ReadKind {
    Range(RangeQuery),
    Knn(KnnQuery),
}

struct ReadJob {
    kind: ReadKind,
    /// Absolute expiry derived from a [`Request::Deadline`] envelope;
    /// the combiner drops the job (with `DeadlineExceeded`) instead of
    /// executing it once this passes.
    deadline: Option<Instant>,
    /// Receives the full frame sequence for this request (one frame
    /// for kNN; one or more chunks for range).
    reply: Reply,
}

enum WriteKind {
    Insert(vp_core::MovingObject),
    Delete(u64),
    Tick(Vec<vp_core::MovingObject>),
    /// Register (or resume) a standing query. The writer thread
    /// answers on the connection's stream directly (`Subscribed` +
    /// backfill/replay) so a concurrent tick's event push can never
    /// overtake the registration reply.
    Subscribe {
        spec: SubscribeSpec,
        resume: Option<ResumeFrom>,
        conn: ConnId,
        writer: ConnWriter,
    },
    Unsubscribe(u64),
    /// Connection closed: detach every subscription it owned (kept
    /// registered for `sub_linger_ms` so a reconnect can resume).
    Disconnect(ConnId),
}

struct WriteJob {
    kind: WriteKind,
    /// The frames the conn thread writes: one reply, or none when the
    /// writer thread already wrote them directly on the connection
    /// (Subscribe path).
    reply: Reply,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send [`Request::Shutdown`] from
/// a client and [`ServerHandle::join`]).
pub struct ServerHandle {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    threads: Vec<JoinHandle<()>>,
    #[cfg(test)]
    handoffs: Arc<AtomicU64>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful two-phase drain: stop accepting, reject new work with
    /// [`ErrorCode::Draining`], answer everything already admitted,
    /// push terminal `fin` event frames to every live subscription,
    /// checkpoint a durable index, then stop. Returns once the
    /// writer has exited (bounded by [`ServerConfig::drain_budget_ms`]).
    pub fn shutdown(mut self) {
        let _ = self.mode.compare_exchange(
            MODE_RUNNING,
            MODE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        // Wake the blocking accept loop.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Hard kill for tests: stop immediately without draining queues,
    /// pushing `fin` frames, or checkpointing.
    pub fn kill(mut self) {
        self.mode.store(MODE_STOPPED, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Waits until a client-initiated [`Request::Shutdown`] (or an
    /// earlier [`ServerHandle::shutdown`]) has stopped the writer and
    /// the acceptor.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and spawns the server over `index`.
///
/// The index is moved into the writer thread (the single `&mut`
/// owner); an initial snapshot seeds the [`SnapshotCell`] so reads can
/// be answered before the first write.
pub fn spawn<I, A>(index: VpIndex<I>, addr: A, config: ServerConfig) -> io::Result<ServerHandle>
where
    I: MovingObjectIndex + SnapshotIndex + Send + Sync + 'static,
    A: ToSocketAddrs,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let snapshot = index
        .snapshot()
        .map_err(|e| io::Error::other(format!("initial snapshot failed: {e}")))?;
    let mode = Arc::new(AtomicU8::new(MODE_RUNNING));
    let shared = Arc::new(Shared {
        cell: SnapshotCell::new(snapshot),
        domain: index.domain(),
        partitions: index.specs().len() as u32,
        counters: Counters {
            read_only: AtomicBool::new(index.is_read_only()),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            write_queued: AtomicU64::new(0),
            handoffs: Arc::new(AtomicU64::new(0)),
        },
        mode: Arc::clone(&mode),
        addr,
        cfg: config.clone(),
        next_conn: AtomicU64::new(0),
        reads: Mutex::new(VecDeque::new()),
        combiner: Mutex::new(()),
    });
    let (write_tx, write_rx) = mpsc::sync_channel::<WriteJob>(config.queue_depth.max(1));
    #[cfg(test)]
    let handoffs = Arc::clone(&shared.counters.handoffs);

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("vp-writer".into())
                .spawn(move || writer_loop(index, write_rx, shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("vp-acceptor".into())
                .spawn(move || accept_loop(listener, shared, write_tx))?,
        );
    }
    Ok(ServerHandle {
        addr,
        mode,
        threads,
        #[cfg(test)]
        handoffs,
    })
}

// --- connection handling ---------------------------------------------------

fn accept_loop<S: IndexSnapshot + 'static>(
    listener: TcpListener,
    shared: Arc<Shared<S>>,
    write_tx: SyncSender<WriteJob>,
) {
    loop {
        let conn = listener.accept();
        if shared.mode() != Mode::Running {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&shared);
        let write_tx = write_tx.clone();
        let _ = thread::Builder::new()
            .name("vp-conn".into())
            .spawn(move || {
                let slot = Arc::new(Slot::default());
                let _ = handle_conn(stream, conn_id, shared, &slot, &write_tx);
                // However the connection ended, detach its standing
                // queries; nobody waits for the reply. (Errors mean the
                // writer is gone too.)
                let _ = write_tx.send(WriteJob {
                    kind: WriteKind::Disconnect(conn_id),
                    reply: Reply::to(&slot),
                });
            });
    }
}

fn overloaded(retry_after_us: u64) -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        message: "admission queue full, retry later".into(),
        retry_after_us,
    }
}

fn internal(msg: &str) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message: msg.into(),
        retry_after_us: 0,
    }
}

fn draining() -> Response {
    Response::Error {
        code: ErrorCode::Draining,
        message: "server draining for shutdown".into(),
        retry_after_us: 0,
    }
}

fn deadline_exceeded(where_: &str) -> Response {
    Response::Error {
        code: ErrorCode::DeadlineExceeded,
        message: format!("deadline expired {where_}"),
        retry_after_us: 0,
    }
}

fn handle_conn<S>(
    stream: TcpStream,
    conn_id: ConnId,
    shared: Arc<Shared<S>>,
    slot: &Arc<Slot>,
    write_tx: &SyncSender<WriteJob>,
) -> io::Result<()>
where
    S: IndexSnapshot + 'static,
{
    // Socket timeouts are the dead-peer bugfix: without them a silent
    // peer pins this thread (and a stopped-reading peer pins whoever
    // writes to it) forever.
    stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )))?;
    stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.write_timeout_ms.max(1),
    )))?;
    // Every write below is a whole reply (or a whole commit's pushes)
    // flushed once, so Nagle has nothing to coalesce and only adds a
    // delayed-ACK round to each small frame.
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let writer: ConnWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    let mut frames = FrameReader::new();
    let idle_timeout = Duration::from_millis(shared.cfg.idle_timeout_ms.max(1));
    let mut last_frame = Instant::now();
    loop {
        if shared.mode() == Mode::Stopped {
            return Ok(());
        }
        let payload = match frames.read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean close at a frame boundary.
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                // Idle tick. A peer that completes no frame within the
                // idle window — whether silent or stalled mid-frame —
                // is treated as half-open and evicted. Live-but-quiet
                // clients refresh the window with Ping.
                if last_frame.elapsed() >= idle_timeout {
                    return Ok(());
                }
                continue;
            }
            // Torn frame, reset, or any other I/O failure: a clean
            // disconnect, never a panic.
            Err(_) => return Ok(()),
        };
        last_frame = Instant::now();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                send_one(
                    &writer,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                        retry_after_us: 0,
                    },
                )?;
                continue;
            }
        };
        // Peel the deadline envelope; the budget becomes absolute at
        // decode time (it travelled as a duration, so clock skew
        // between client and server is irrelevant).
        let (budget_us, request) = request.into_parts();
        let deadline = budget_us.map(|us| Instant::now() + Duration::from_micros(us));

        // During drain only liveness probes and the (idempotent)
        // shutdown request are honored; everything else is new work.
        if shared.mode() != Mode::Running
            && !matches!(request, Request::Ping(_) | Request::Shutdown)
        {
            send_one(&writer, &draining())?;
            continue;
        }
        // First deadline gate: don't even admit expired work.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            send_one(&writer, &deadline_exceeded("before admission"))?;
            continue;
        }
        let read = |kind| enqueue_read(&shared, slot, kind, deadline, &writer);
        let write = |kind| enqueue_write(&shared, write_tx, slot, kind, &writer);
        match request {
            Request::Range(q) => read(ReadKind::Range(q))?,
            Request::Knn(q) => read(ReadKind::Knn(q))?,
            Request::Insert(o) => write(WriteKind::Insert(o))?,
            Request::Delete(id) => write(WriteKind::Delete(id))?,
            Request::Tick(updates) => write(WriteKind::Tick(updates))?,
            Request::Subscribe { spec, resume } => {
                let kind = WriteKind::Subscribe {
                    spec,
                    resume,
                    conn: conn_id,
                    writer: Arc::clone(&writer),
                };
                write(kind)?
            }
            Request::Unsubscribe(id) => write(WriteKind::Unsubscribe(id))?,
            Request::GetObject(id) => {
                let snap = shared.cell.load();
                let resp = match snap.get_object(id) {
                    Ok(o) => Response::Object(o),
                    Err(e) => error_response(&e),
                };
                send_one(&writer, &resp)?;
            }
            Request::Stats => {
                let snap = shared.cell.load();
                let c = &shared.counters;
                send_one(
                    &writer,
                    &Response::Stats(StatsReply {
                        objects: IndexSnapshot::len(&*snap) as u64,
                        partitions: shared.partitions,
                        read_only: c.read_only.load(Ordering::SeqCst),
                        batches: c.batches.load(Ordering::SeqCst),
                        batched_requests: c.batched_requests.load(Ordering::SeqCst),
                        writes: c.writes.load(Ordering::SeqCst),
                        overloaded: c.overloaded.load(Ordering::SeqCst),
                    }),
                )?;
            }
            Request::Ping(nonce) => {
                send_one(&writer, &Response::Pong(nonce))?;
            }
            Request::Shutdown => {
                let _ = shared.mode.compare_exchange(
                    MODE_RUNNING,
                    MODE_DRAINING,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                send_one(&writer, &Response::Ok)?;
                // Wake the blocking accept() so the acceptor observes
                // the mode and exits.
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
            Request::Deadline { .. } => unreachable!("peeled above; envelopes do not nest"),
        }
    }
}

fn poisoned() -> io::Error {
    io::Error::other("connection writer poisoned")
}

fn send_one(w: &ConnWriter, resp: &Response) -> io::Result<()> {
    let mut w = w.lock().map_err(|_| poisoned())?;
    write_frame(&mut *w, &resp.encode())?;
    w.flush()
}

/// Admits a read, sees it executed (by this thread or a combiner) and
/// writes its reply.
fn enqueue_read<S: IndexSnapshot>(
    shared: &Shared<S>,
    slot: &Arc<Slot>,
    kind: ReadKind,
    deadline: Option<Instant>,
    w: &ConnWriter,
) -> io::Result<()> {
    {
        let mut queue = lock(&shared.reads);
        if queue.len() >= shared.cfg.queue_depth.max(1) {
            let hint = retry_hint_us(queue.len() as u64, &shared.cfg);
            drop(queue);
            shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
            return send_one(w, &overloaded(hint));
        }
        queue.push_back(ReadJob {
            kind,
            deadline,
            reply: Reply::to(slot),
        });
    }
    // Combine if the lock is free; otherwise park until a combiner
    // answers this read or hands its role over.
    let frames = loop {
        combine(shared, slot);
        if let Some(frames) = slot.wait() {
            break frames;
        }
    };
    // Last deadline gate: the result is ready, but if the client's
    // budget ran out while it was computed, the answer is
    // DeadlineExceeded (the client has already abandoned the call;
    // keep its stream in sync).
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return send_one(w, &deadline_exceeded("after execution"));
    }
    // One locked write for all chunks, so a pushed Events frame cannot
    // split a chunked range reply.
    write_direct(w, &frames)
}

fn enqueue_write<S>(
    shared: &Shared<S>,
    write_tx: &SyncSender<WriteJob>,
    slot: &Arc<Slot>,
    kind: WriteKind,
    w: &ConnWriter,
) -> io::Result<()> {
    // Count before sending: the writer decrements as soon as it
    // receives, and must never get there first.
    shared.counters.write_queued.fetch_add(1, Ordering::SeqCst);
    if let Err(e) = write_tx.try_send(WriteJob {
        kind,
        reply: Reply::to(slot),
    }) {
        shared.counters.write_queued.fetch_sub(1, Ordering::SeqCst);
        if let TrySendError::Full(job) = e {
            shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
            let queued = shared.counters.write_queued.load(Ordering::SeqCst);
            job.reply
                .send(vec![overloaded(retry_hint_us(queued, &shared.cfg))]);
        }
        // Disconnected: the writer has exited, and dropping the job
        // left `Internal` in the slot.
    }
    // A combiner role handed over here is stale: this connection's
    // last read was answered, by whoever took the lock after the
    // hand-off was decided.
    let frames = loop {
        if let Some(frames) = slot.wait() {
            break frames;
        }
    };
    write_direct(w, &frames)
}

// --- read combining ----------------------------------------------------------

/// Flat combining: if the combiner lock is free, executes windows from
/// the head of the read queue until `own`'s read is answered, then
/// hands the role to the owner of the first read still queued.
fn combine<S: IndexSnapshot>(shared: &Shared<S>, own: &Arc<Slot>) {
    let held = match shared.combiner.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return,
    };
    let max_batch = shared.cfg.max_batch.max(1);
    // `own`'s read is queued or answered: reads leave the queue only
    // here, under the lock, and are answered before it is released.
    while !own.answered() {
        // Take what is already queued; never wait for more.
        let window: Vec<ReadJob> = {
            let mut queue = lock(&shared.reads);
            let n = queue.len().min(max_batch);
            queue.drain(..n).collect()
        };
        if shared.cfg.former_stall_us > 0 {
            thread::sleep(Duration::from_micros(shared.cfg.former_stall_us));
        }
        execute_window(window, shared, own);
    }
    drop(held);
    // A read pushed while the lock was held failed its `try_lock`
    // after the push, so it is visible here. If a thread took the lock
    // in between, it serves that read and repeats this check itself.
    let next = lock(&shared.reads)
        .front()
        .map(|job| Arc::clone(&job.reply.slot));
    if let Some(next) = next {
        next.offer_combine();
    }
}

/// Splits a range result into `done`-terminated chunks of at most
/// `max_frame` ids (always at least one frame, so empty results still
/// answer).
fn chunk_ids(ids: Vec<u64>, max_frame: usize) -> Vec<Response> {
    if ids.len() <= max_frame {
        return vec![Response::Ids { done: true, ids }];
    }
    let mut frames = Vec::with_capacity(ids.len() / max_frame + 1);
    let mut chunks = ids.chunks(max_frame).peekable();
    while let Some(chunk) = chunks.next() {
        frames.push(Response::Ids {
            done: chunks.peek().is_none(),
            ids: chunk.to_vec(),
        });
    }
    frames
}

/// Executes one window against the current snapshot and leaves each
/// read's frames in its slot; `own` is the combining thread's slot.
fn execute_window<S>(window: Vec<ReadJob>, shared: &Shared<S>, own: &Arc<Slot>)
where
    S: IndexSnapshot,
{
    let deliver = |reply: Reply, frames| {
        if !Arc::ptr_eq(&reply.slot, own) {
            shared.counters.handoffs.fetch_add(1, Ordering::Relaxed);
        }
        reply.send(frames);
    };
    let max_frame = shared.cfg.max_frame.max(1);
    let snap = shared.cell.load();
    shared.counters.batches.fetch_add(1, Ordering::SeqCst);
    shared
        .counters
        .batched_requests
        .fetch_add(window.len() as u64, Ordering::SeqCst);

    // Second deadline gate: drop entries whose budget expired while
    // they queued — their snapshot work would be wasted.
    let now = Instant::now();
    let mut range_qs = Vec::new();
    let mut range_jobs = Vec::new();
    let mut knn_qs = Vec::new();
    let mut knn_jobs = Vec::new();
    for job in window {
        if job.deadline.is_some_and(|d| now >= d) {
            deliver(job.reply, vec![deadline_exceeded("in queue")]);
            continue;
        }
        match job.kind {
            ReadKind::Range(q) => {
                range_qs.push(q);
                range_jobs.push(job.reply);
            }
            ReadKind::Knn(q) => {
                knn_qs.push(q);
                knn_jobs.push(job.reply);
            }
        }
    }

    if !range_qs.is_empty() {
        match snap.range_query_batch(&range_qs) {
            Ok(results) => {
                for (reply, ids) in range_jobs.into_iter().zip(results) {
                    deliver(reply, chunk_ids(ids, max_frame));
                }
            }
            Err(e) => {
                for reply in range_jobs {
                    deliver(reply, vec![error_response(&e)]);
                }
            }
        }
    }
    if !knn_qs.is_empty() {
        match snap.knn_batch(&knn_qs, &shared.domain) {
            Ok(results) => {
                for (reply, ns) in knn_jobs.into_iter().zip(results) {
                    deliver(reply, vec![Response::Neighbors(ns)]);
                }
            }
            Err(e) => {
                for reply in knn_jobs {
                    deliver(reply, vec![error_response(&e)]);
                }
            }
        }
    }
}

// --- writer ----------------------------------------------------------------

/// The writer thread's registry of standing queries: the engine state
/// plus, per subscription, the connection that receives its events.
struct SubRegistry {
    subs: SubscriptionSet,
    routes: HashMap<SubscriptionId, (ConnId, ConnWriter)>,
    /// Subscriptions whose connection died, with the detach instant.
    /// They keep recording into their replay rings until either a
    /// resume re-routes them or the linger window reaps them.
    detached: HashMap<SubscriptionId, Instant>,
    /// Largest commit time seen; used as "now" for registrations and
    /// as the evaluation time of pure-removal deltas.
    last_time: f64,
}

impl SubRegistry {
    /// Detaches every subscription owned by `conn`: the route is gone
    /// but the subscription state (and replay ring) survives for the
    /// linger window so a reconnect can resume gap-free.
    fn drop_conn(&mut self, conn: ConnId) {
        let ids: Vec<SubscriptionId> = self
            .routes
            .iter()
            .filter(|(_, (c, _))| *c == conn)
            .map(|(&id, _)| id)
            .collect();
        let now = Instant::now();
        for id in ids {
            self.routes.remove(&id);
            self.detached.insert(id, now);
        }
    }

    /// Reaps detached subscriptions whose linger window expired.
    fn reap_detached(&mut self, linger: Duration) {
        if self.detached.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<SubscriptionId> = self
            .detached
            .iter()
            .filter(|(_, &at)| now.duration_since(at) >= linger)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.detached.remove(&id);
            self.subs.unregister(id);
        }
    }

    /// Groups `events` by subscription into one [`Response::Events`]
    /// frame each, stamped with the sequence number `on_tick` just
    /// recorded, and pushes all of a connection's frames in one write
    /// (one lock, one flush per connection per commit). A connection
    /// whose stream errors loses its route (the subscriptions detach
    /// and can be resumed).
    fn push_events(&mut self, time: f64, events: Vec<SubEvent>) {
        if events.is_empty() {
            return;
        }
        let mut by_sub: BTreeMap<SubscriptionId, Vec<(SubEventKind, u64)>> = BTreeMap::new();
        for e in events {
            by_sub.entry(e.sub).or_default().push((e.kind, e.id));
        }
        // Ascending by connection, and by subscription within one.
        let mut by_conn: BTreeMap<ConnId, (&ConnWriter, Vec<Response>)> = BTreeMap::new();
        for (sub, events) in by_sub {
            let Some((conn, w)) = self.routes.get(&sub) else {
                continue;
            };
            let frame = Response::Events {
                sub,
                time,
                seq: self.subs.last_seq(sub).unwrap_or(0),
                reset: false,
                fin: false,
                events,
            };
            by_conn
                .entry(*conn)
                .or_insert((w, Vec::new()))
                .1
                .push(frame);
        }
        let dead: Vec<ConnId> = by_conn
            .into_iter()
            .filter(|(_, (w, frames))| write_direct(w, frames).is_err())
            .map(|(conn, _)| conn)
            .collect();
        for conn in dead {
            self.drop_conn(conn);
        }
    }

    /// Pushes the terminal drain frame (`fin`, no events) to every
    /// routed subscription: "this server will push nothing more —
    /// reconnect elsewhere and resume from the seq you have".
    fn push_fin(&mut self, time: f64) {
        for (&sub, (_, w)) in &self.routes {
            let frame = Response::Events {
                sub,
                time,
                seq: self.subs.last_seq(sub).unwrap_or(0),
                reset: false,
                fin: true,
                events: Vec::new(),
            };
            let _ = write_direct(w, &[frame]);
        }
        self.routes.clear();
    }
}

/// Writes `frames` to a connection under its lock, flushing once.
fn write_direct(w: &ConnWriter, frames: &[Response]) -> io::Result<()> {
    let mut w = w.lock().map_err(|_| poisoned())?;
    for f in frames {
        write_frame(&mut *w, &f.encode())?;
    }
    w.flush()
}

/// How often the idle writer re-checks the lifecycle mode.
const IDLE_POLL: Duration = Duration::from_millis(20);

fn writer_loop<I>(mut index: VpIndex<I>, rx: Receiver<WriteJob>, shared: Arc<Shared<I::Snapshot>>)
where
    I: MovingObjectIndex + SnapshotIndex + Send + Sync,
{
    let cfg = shared.cfg.clone();
    let linger = Duration::from_millis(cfg.sub_linger_ms);
    let mut reg = SubRegistry {
        subs: SubscriptionSet::new(
            SubscriptionConfig::new(index.domain())
                .with_horizon(cfg.sub_horizon)
                .with_retain(cfg.sub_retain),
        ),
        routes: HashMap::new(),
        detached: HashMap::new(),
        last_time: 0.0,
    };
    loop {
        match shared.mode() {
            Mode::Stopped => {
                // Hard kill: no drain, no fin frames, no checkpoint.
                shared.service_thread_done();
                return;
            }
            Mode::Draining => break,
            Mode::Running => {}
        }
        reg.reap_detached(linger);
        let job = match rx.recv_timeout(IDLE_POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                shared.service_thread_done();
                return;
            }
        };
        shared.counters.write_queued.fetch_sub(1, Ordering::SeqCst);
        apply_write_job(&mut index, &mut reg, &shared, job);
    }
    // Drain: apply every already-admitted mutation (the edge rejects
    // new ones), bounded by the drain budget…
    let drain_deadline = Instant::now() + Duration::from_millis(cfg.drain_budget_ms);
    while Instant::now() < drain_deadline {
        match rx.try_recv() {
            Ok(job) => {
                shared.counters.write_queued.fetch_sub(1, Ordering::SeqCst);
                apply_write_job(&mut index, &mut reg, &shared, job);
            }
            Err(_) => break,
        }
    }
    // …tell every live subscriber this stream is over…
    reg.push_fin(reg.last_time);
    // …and leave a checkpoint so the next open replays nothing
    // (clean-restart equivalence). Checkpoint failure is tolerated:
    // the WAL still holds everything, recovery just replays it.
    if index.is_durable() && !index.is_read_only() {
        let _ = index.checkpoint();
    }
    shared.service_thread_done();
}

/// Applies one write-queue job: a mutation (tick/insert/delete, with
/// snapshot publish + standing-query evaluation) or a subscription
/// control operation.
fn apply_write_job<I>(
    index: &mut VpIndex<I>,
    reg: &mut SubRegistry,
    shared: &Shared<I::Snapshot>,
    job: WriteJob,
) where
    I: MovingObjectIndex + SnapshotIndex + Send + Sync,
{
    // Subscription control plane: no index mutation involved.
    let kind = match job.kind {
        WriteKind::Subscribe {
            spec,
            resume,
            conn,
            writer,
        } => {
            let resp = handle_subscribe(index, reg, spec, resume, conn, writer);
            job.reply.send(resp.into_iter().collect());
            return;
        }
        WriteKind::Unsubscribe(id) => {
            reg.subs.unregister(id);
            reg.routes.remove(&id);
            reg.detached.remove(&id);
            job.reply.send(vec![Response::Ok]);
            return;
        }
        WriteKind::Disconnect(conn) => {
            reg.drop_conn(conn);
            return;
        }
        other => other,
    };
    let result = match kind {
        WriteKind::Insert(o) => index.insert(o).map(|()| TickDelta::from_insert(o)),
        WriteKind::Delete(id) => index
            .delete(id)
            .map(|()| TickDelta::from_delete(id, reg.last_time)),
        WriteKind::Tick(updates) => index.apply_updates_delta(&updates),
        _ => unreachable!("control kinds handled above"),
    };
    let resp = match result {
        Ok(mut delta) => {
            // Commit time never runs backwards even if a client
            // reports a stale ref_time.
            delta.time = delta.time.max(reg.last_time);
            reg.last_time = delta.time;
            // Evaluate standing queries against the committed
            // state before publishing, so a subscriber that reacts
            // to an event always finds a snapshot at least as new.
            let events = if reg.subs.is_empty() {
                Vec::new()
            } else {
                // An evaluation error (storage fault mid-scan)
                // drops this tick's events; the next successful
                // tick re-diffs against the stale result sets, so
                // no Enter/Leave is lost permanently.
                reg.subs.on_tick(&*index, &delta).unwrap_or_default()
            };
            if let Ok(snap) = index.snapshot() {
                shared.cell.publish_with_delta(snap, delta);
            }
            reg.push_events(reg.last_time, events);
            shared.counters.writes.fetch_add(1, Ordering::SeqCst);
            Response::Ok
        }
        Err(e) => {
            if index.is_read_only() {
                shared.counters.read_only.store(true, Ordering::SeqCst);
            }
            error_response(&e)
        }
    };
    job.reply.send(vec![resp]);
}

/// Registers or resumes a standing query, answering on the connection
/// stream directly: `Subscribed(id)`, then replay/backfill `Events`
/// frames. Returning `None` tells the conn thread the reply is already
/// on the wire — this is what makes the registration handshake atomic
/// with respect to event pushes from subsequent ticks.
///
/// Resume contract (`resume: Some`):
/// * live (or detached) id + ring covers the gap → replay the retained
///   batches under their original sequence numbers (`reset == false`);
/// * live id, ring trimmed past the gap (or stale token) → full
///   re-backfill via `resnapshot` (`reset == true`);
/// * unknown id (reaped or never existed) → re-register under the
///   requested id and push the fresh backfill with `reset == true`;
/// * live id whose spec does not match the resume's spec → `BadRequest`
///   (the token belongs to a different query).
fn handle_subscribe<I>(
    index: &VpIndex<I>,
    reg: &mut SubRegistry,
    spec: SubscribeSpec,
    resume: Option<ResumeFrom>,
    conn: ConnId,
    writer: ConnWriter,
) -> Option<Response>
where
    I: MovingObjectIndex + SnapshotIndex + Send + Sync,
{
    let now = reg.last_time;
    let Some(resume) = resume else {
        // Fresh registration (the pre-resume path, unchanged).
        let registered = match spec {
            SubscribeSpec::Range(s) => reg.subs.register_range(index, now, s),
            SubscribeSpec::Knn(s) => reg.subs.register_knn(index, now, s),
        };
        return match registered {
            Ok((id, backfill)) => {
                let mut frames = vec![Response::Subscribed(id)];
                if !backfill.is_empty() {
                    frames.push(Response::Events {
                        sub: id,
                        time: now,
                        seq: reg.subs.last_seq(id).unwrap_or(0),
                        reset: false,
                        fin: false,
                        events: backfill.iter().map(|e| (e.kind, e.id)).collect(),
                    });
                }
                if write_direct(&writer, &frames).is_ok() {
                    reg.routes.insert(id, (conn, writer));
                } else {
                    // The client never saw the id; don't leak the sub.
                    reg.subs.unregister(id);
                }
                None
            }
            Err(e) => Some(error_response(&e)),
        };
    };

    let id = resume.sub;
    if reg.subs.contains(id) {
        // The subscription survived (possibly detached). The token
        // must belong to the same query.
        let matches = match spec {
            SubscribeSpec::Range(s) => reg.subs.range_spec(id) == Some(s),
            SubscribeSpec::Knn(s) => reg.subs.knn_spec(id) == Some(s),
        };
        if !matches {
            return Some(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("resume token for subscription {id} does not match its spec"),
                retry_after_us: 0,
            });
        }
        let mut frames = vec![Response::Subscribed(id)];
        match reg.subs.retained_since(id, resume.after_seq) {
            Some(batches) => {
                // Gap-free replay under the original seq numbers.
                for b in batches {
                    frames.push(Response::Events {
                        sub: id,
                        time: b.time,
                        seq: b.seq,
                        reset: false,
                        fin: false,
                        events: b.events,
                    });
                }
            }
            None => {
                // Ring trimmed past the gap (or a stale token): full
                // re-backfill; the client discards its state.
                match reg.subs.resnapshot(index, id, now) {
                    Ok(Some(RetainedBatch { seq, time, events })) => {
                        frames.push(Response::Events {
                            sub: id,
                            time,
                            seq,
                            reset: true,
                            fin: false,
                            events,
                        });
                    }
                    Ok(None) => return Some(internal("subscription vanished during resume")),
                    Err(e) => return Some(error_response(&e)),
                }
            }
        }
        if write_direct(&writer, &frames).is_ok() {
            reg.detached.remove(&id);
            reg.routes.insert(id, (conn, writer));
        }
        return None;
    }

    // Reaped (or never existed): re-register under the requested id so
    // the client keeps a stable handle; the backfill is a reset.
    let registered = match spec {
        SubscribeSpec::Range(s) => reg.subs.register_range_as(index, now, s, id),
        SubscribeSpec::Knn(s) => reg.subs.register_knn_as(index, now, s, id),
    };
    match registered {
        Ok(backfill) => {
            let frames = vec![
                Response::Subscribed(id),
                Response::Events {
                    sub: id,
                    time: now,
                    seq: reg.subs.last_seq(id).unwrap_or(0),
                    reset: true,
                    fin: false,
                    events: backfill.iter().map(|e| (e.kind, e.id)).collect(),
                },
            ];
            if write_direct(&writer, &frames).is_ok() {
                reg.routes.insert(id, (conn, writer));
            } else {
                reg.subs.unregister(id);
            }
            None
        }
        Err(e) => Some(error_response(&e)),
    }
}

/// Maps an [`IndexError`] onto the protocol's typed error codes.
/// `WalPoisoned` is checked before the generic WAL arm so a demotion
/// in progress is distinguishable from an ordinary logging failure.
fn error_response(e: &IndexError) -> Response {
    let code = if e.is_wal_poisoned() {
        ErrorCode::WalPoisoned
    } else {
        match e {
            IndexError::ReadOnly(_) => ErrorCode::ReadOnly,
            IndexError::UnknownObject(_) => ErrorCode::UnknownObject,
            IndexError::DuplicateObject(_) => ErrorCode::DuplicateObject,
            IndexError::OutOfDomain(_) => ErrorCode::OutOfDomain,
            IndexError::Storage(_) | IndexError::Wal(_) => ErrorCode::Storage,
            IndexError::Config(_) => ErrorCode::Internal,
        }
    };
    Response::Error {
        code,
        message: e.to_string(),
        retry_after_us: 0,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use vp_core::traits::reference::ScanIndex;
    use vp_core::{MovingObject, QueryRegion, VelocityAnalyzer, VpConfig};
    use vp_geom::Point;

    use super::*;
    use crate::client::VpClient;

    /// Replies a combiner leaves for another connection's thread while
    /// reads arrive one at a time: none, since each executes on the
    /// thread that received it.
    const LONE_READ_HANDOFFS: u64 = 0;

    /// Serves a 200-object fleet on scan partitions; returns the server
    /// and the quiesced snapshot every served answer must equal.
    fn serve(config: ServerConfig) -> (ServerHandle, impl IndexSnapshot) {
        let fleet: Vec<MovingObject> = (0..200u64)
            .map(|id| {
                let pos = Point::new(1_000.0 + 450.0 * id as f64, 90_000.0 - 400.0 * id as f64);
                let vel = if id % 2 == 0 {
                    Point::new(20.0 + (id % 7) as f64, 0.5)
                } else {
                    Point::new(0.5, -30.0 - (id % 5) as f64)
                };
                MovingObject::new(id, pos, vel, 0.0)
            })
            .collect();
        let cfg = VpConfig::default();
        let velocities: Vec<Point> = fleet.iter().map(|o| o.vel).collect();
        let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
        let mut index = VpIndex::build(cfg, &analysis, |_| ScanIndex::new()).expect("build");
        index.apply_updates(&fleet).expect("load the fleet");
        let oracle = index.snapshot().expect("quiesced snapshot");
        (spawn(index, "127.0.0.1:0", config).expect("spawn"), oracle)
    }

    /// Serves read `i` (a 20 km strip sliding along the fleet) and
    /// checks it against the quiesced snapshot.
    fn read_and_check(c: &mut VpClient, oracle: &impl IndexSnapshot, i: usize) {
        let x = 2_000.0 * i as f64;
        let region = QueryRegion::Rect(Rect::from_bounds(x, 0.0, x + 20_000.0, 100_000.0));
        let q = RangeQuery::time_slice(region, 0.0);
        let mut got = c.range(&q).expect("served range");
        let mut want = oracle.range_query(&q).expect("oracle range");
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "read {i}");
    }

    #[test]
    fn lone_reads_pay_no_handoffs() {
        let (handle, oracle) = serve(ServerConfig::default());
        let mut c = VpClient::connect(handle.addr()).expect("connect");
        for i in 0..40 {
            read_and_check(&mut c, &oracle, i);
        }
        let handoffs = handle.handoffs.load(Ordering::Relaxed);
        handle.shutdown();
        assert_eq!(handoffs, LONE_READ_HANDOFFS);
    }

    /// Eight readers released together while each window stalls 20 ms:
    /// whoever combines also answers readers parked on their slots.
    #[test]
    fn a_burst_handoffs_answer_parked_readers() {
        const READERS: usize = 8;
        let (handle, oracle) = serve(ServerConfig {
            former_stall_us: 20_000,
            ..ServerConfig::default()
        });
        let (addr, barrier) = (handle.addr(), Barrier::new(READERS));
        thread::scope(|s| {
            for i in 0..READERS {
                let (barrier, oracle) = (&barrier, &oracle);
                s.spawn(move || {
                    let mut c = VpClient::connect(addr).expect("connect");
                    barrier.wait();
                    read_and_check(&mut c, oracle, i);
                });
            }
        });
        let handoffs = handle.handoffs.load(Ordering::Relaxed);
        handle.shutdown();
        assert!(handoffs >= 1, "no combiner answered another reader");
    }

    #[test]
    fn chunking_covers_all_ids_and_marks_last() {
        let ids: Vec<u64> = (0..10).collect();
        let frames = chunk_ids(ids.clone(), 3);
        assert_eq!(frames.len(), 4);
        let mut seen = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let Response::Ids { done, ids } = f else {
                panic!("not an Ids frame")
            };
            assert_eq!(*done, i == 3);
            seen.extend_from_slice(ids);
        }
        assert_eq!(seen, ids);

        // Empty and exact-fit results are a single final frame.
        assert_eq!(
            chunk_ids(vec![], 3),
            vec![Response::Ids {
                done: true,
                ids: vec![]
            }]
        );
        assert_eq!(chunk_ids((0..3).collect(), 3).len(), 1);
    }

    #[test]
    fn error_mapping_distinguishes_poisoned_wal() {
        let poisoned = IndexError::Wal("wal stream poisoned by failed fsync: disk".into());
        let Response::Error { code, .. } = error_response(&poisoned) else {
            panic!()
        };
        assert_eq!(code, ErrorCode::WalPoisoned);

        let plain = IndexError::Wal("disk full".into());
        let Response::Error { code, .. } = error_response(&plain) else {
            panic!()
        };
        assert_eq!(code, ErrorCode::Storage);

        let ro = IndexError::ReadOnly("poisoned earlier".into());
        let Response::Error { code, .. } = error_response(&ro) else {
            panic!()
        };
        assert_eq!(code, ErrorCode::ReadOnly);
    }

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        let cfg = ServerConfig {
            max_batch: 8,
            window_us: 200,
            ..ServerConfig::default()
        };
        // windows-ahead = queued / max_batch + 1 → µs.
        assert_eq!(retry_hint_us(0, &cfg), 200, "empty queue: one window");
        assert_eq!(retry_hint_us(7, &cfg), 200);
        assert_eq!(retry_hint_us(8, &cfg), 400);
        assert_eq!(retry_hint_us(80, &cfg), 2200);
        // A wrapped or absurd depth saturates; it neither overflows
        // nor tells the client to retry at once.
        assert_eq!(retry_hint_us(u64::MAX, &cfg), u64::MAX);
        let one_by_one = ServerConfig {
            max_batch: 1,
            window_us: 0,
            ..ServerConfig::default()
        };
        assert_eq!(retry_hint_us(u64::MAX, &one_by_one), u64::MAX);
    }
}
