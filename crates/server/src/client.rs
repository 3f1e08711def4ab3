//! A small blocking client for the vp-server protocol.
//!
//! One [`VpClient`] wraps one TCP connection and issues synchronous
//! request/response calls. It exists for the integration tests, the
//! load generator, and the quickstart example — it is intentionally
//! not a connection pool.
//!
//! # Robustness features
//!
//! * **Deadlines** — [`VpClient::set_deadline_budget`] makes every
//!   subsequent request travel inside a [`Request::Deadline`] envelope;
//!   the server answers [`ErrorCode::DeadlineExceeded`] instead of
//!   doing (or finishing) expired work.
//! * **Auto-reconnect** — with a [`RetryPolicy`] installed via
//!   [`VpClient::with_reconnect`], a transport failure on an
//!   *idempotent* call (range / knn / get / stats) redials with
//!   bounded exponential backoff and retries once. Mutations are never
//!   retried automatically: a lost reply leaves "applied or not"
//!   unknowable, so that decision stays with the caller.
//! * **Resumable subscriptions** — the client remembers every live
//!   subscription (spec + last sequence number seen). A reconnect
//!   re-subscribes each with a `resume` token; the server either
//!   replays the missed event batches gap-free or pushes a `reset`
//!   backfill. Duplicate frames (seq ≤ last seen) are dropped, so the
//!   caller observes each batch exactly once per reset epoch.
//! * **Heartbeats** — [`VpClient::ping`] round-trips a nonce; passive
//!   subscribers should call it within the server's idle window to
//!   avoid eviction.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use vp_core::{
    KnnQuery, KnnSubSpec, MovingObject, Neighbor, RangeQuery, RangeSubSpec, SubEventKind,
};
use vp_storage::RetryPolicy;

use crate::protocol::{
    is_timeout, write_frame, ErrorCode, FrameReader, Request, Response, ResumeFrom, StatsReply,
    SubscribeSpec,
};

/// The failure a reply other than the expected one stands for: the
/// server's typed error, or else a protocol violation.
fn unexpected(reply: Response) -> ClientError {
    match reply {
        Response::Error {
            code,
            message,
            retry_after_us,
        } => ClientError::Server {
            code,
            message,
            retry_after_us,
        },
        other => ClientError::Protocol(format!("unexpected reply {other:?}")),
    }
}

/// Client-side failure: transport, codec, or a typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / framing failure (includes decode errors, which are
    /// `InvalidData` I/O errors).
    Io(io::Error),
    /// The server answered with a frame the call did not expect.
    Protocol(String),
    /// The server rejected the request with a typed error.
    Server {
        /// The protocol error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Back-off hint in µs (0 = none); set on `Overloaded`.
        retry_after_us: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error {code:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, when this is a typed rejection.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The server's back-off hint, when there is one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Server { retry_after_us, .. } if *retry_after_us > 0 => {
                Some(Duration::from_micros(*retry_after_us))
            }
            _ => None,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// One pushed [`Response::Events`] frame: the result-set changes of
/// one subscription at one commit time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// The subscription the events belong to.
    pub sub: u64,
    /// Evaluation time of the tick that produced them.
    pub time: f64,
    /// The subscription's monotone sequence number for this batch.
    pub seq: u64,
    /// `true`: discard all accumulated result-set state first — the
    /// events are a fresh backfill, not an incremental diff.
    pub reset: bool,
    /// `true`: the server is draining; this is the last frame this
    /// subscription will receive on this connection.
    pub fin: bool,
    /// `(kind, object id)` pairs, grouped by kind with ascending ids
    /// inside each group.
    pub events: Vec<(SubEventKind, u64)>,
}

/// What the client remembers about a live subscription so it can be
/// resumed across reconnects.
#[derive(Debug, Clone)]
struct SubState {
    spec: SubscribeSpec,
    /// Highest sequence number surfaced to the caller (0 = none yet).
    last_seq: u64,
}

/// A blocking connection to a vp-server.
pub struct VpClient {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Partial-frame state of `reader`: a read timeout in
    /// [`VpClient::wait_events`] can fire mid-frame, and the next read
    /// must resume where it stopped.
    frames: FrameReader,
    writer: BufWriter<TcpStream>,
    /// Event frames the server pushed while we were waiting for some
    /// other response; drained by [`VpClient::take_events`] /
    /// [`VpClient::wait_events`].
    pending_events: VecDeque<EventBatch>,
    /// Live subscriptions, for resume-on-reconnect and seq dedupe.
    subs: HashMap<u64, SubState>,
    /// Reconnect policy; `None` disables auto-reconnect.
    reconnect: Option<RetryPolicy>,
    /// When set, every request is wrapped in a deadline envelope with
    /// this budget.
    deadline_budget: Option<Duration>,
    next_nonce: u64,
}

impl VpClient {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<VpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let (stream, reader, writer) = Self::dial(addr)?;
        Ok(VpClient {
            addr,
            stream,
            reader,
            frames: FrameReader::new(),
            writer,
            pending_events: VecDeque::new(),
            subs: HashMap::new(),
            reconnect: None,
            deadline_budget: None,
            next_nonce: 1,
        })
    }

    fn dial(
        addr: SocketAddr,
    ) -> io::Result<(TcpStream, BufReader<TcpStream>, BufWriter<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream.try_clone()?);
        Ok((stream, reader, writer))
    }

    /// Enables auto-reconnect (and read retry) with the given backoff
    /// policy. `RetryPolicy::standard()` is a sensible default.
    pub fn with_reconnect(mut self, policy: RetryPolicy) -> VpClient {
        self.reconnect = Some(policy);
        self
    }

    /// Sets (or clears) the per-request deadline budget. While set,
    /// every request travels inside a [`Request::Deadline`] envelope
    /// and expired work is answered with
    /// [`ErrorCode::DeadlineExceeded`].
    pub fn set_deadline_budget(&mut self, budget: Option<Duration>) {
        self.deadline_budget = budget;
    }

    /// Redials the server (with the reconnect policy's backoff) and
    /// resumes every tracked subscription from its last seen sequence
    /// number. Replayed/backfill event batches land in the pending
    /// queue exactly like server pushes.
    pub fn reconnect(&mut self) -> ClientResult<()> {
        let policy = self.reconnect.unwrap_or_else(RetryPolicy::none);
        let mut retry: u32 = 0;
        let conn = loop {
            match Self::dial(self.addr) {
                Ok(conn) => break conn,
                Err(e) => {
                    if retry + 1 >= policy.max_attempts.max(1) {
                        return Err(e.into());
                    }
                    std::thread::sleep(policy.backoff_for(retry));
                    retry += 1;
                }
            }
        };
        (self.stream, self.reader, self.writer) = conn;
        self.frames = FrameReader::new();
        // Resume subscriptions under their original ids. The server
        // replays missed batches (dropped here if it over-replays) or
        // pushes a reset backfill.
        let resumes: Vec<(u64, SubscribeSpec, u64)> = self
            .subs
            .iter()
            .map(|(&id, st)| (id, st.spec, st.last_seq))
            .collect();
        for (id, spec, after_seq) in resumes {
            let got = self.subscribe_resume(spec, id, after_seq)?;
            if got != id {
                return Err(ClientError::Protocol(format!(
                    "resume of subscription {id} came back as {got}"
                )));
            }
        }
        Ok(())
    }

    fn send(&mut self, req: &Request) -> ClientResult<()> {
        let encoded = match (self.deadline_budget, req) {
            // Pings are liveness probes; a deadline envelope on them
            // is noise.
            (Some(budget), req) if !matches!(req, Request::Ping(_)) => Request::Deadline {
                budget_us: budget.as_micros().min(u64::MAX as u128) as u64,
                inner: Box::new(req.clone()),
            }
            .encode(),
            _ => req.encode(),
        };
        write_frame(&mut self.writer, &encoded)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Stashes one pushed event frame, deduplicating by sequence
    /// number: within a reset epoch each seq is surfaced at most once,
    /// and a `reset` frame restarts the epoch.
    fn ingest_events(
        &mut self,
        sub: u64,
        time: f64,
        seq: u64,
        reset: bool,
        fin: bool,
        events: Vec<(SubEventKind, u64)>,
    ) {
        if let Some(st) = self.subs.get_mut(&sub) {
            if fin {
                // Terminal marker; carries no events and no new seq.
            } else if reset {
                st.last_seq = seq;
            } else {
                if seq <= st.last_seq {
                    return; // duplicate (e.g. resume over-replay)
                }
                st.last_seq = seq;
            }
        }
        self.pending_events.push_back(EventBatch {
            sub,
            time,
            seq,
            reset,
            fin,
            events,
        });
    }

    /// Reads one frame: a pushed [`Response::Events`] frame is stashed
    /// for [`VpClient::take_events`] (`None`), any other response is
    /// returned.
    fn recv_frame(&mut self) -> ClientResult<Option<Response>> {
        let Some(payload) = self.frames.read_frame(&mut self.reader)? else {
            return Err(ClientError::Protocol("server closed the connection".into()));
        };
        match Response::decode(&payload)? {
            Response::Events {
                sub,
                time,
                seq,
                reset,
                fin,
                events,
            } => self.ingest_events(sub, time, seq, reset, fin, events),
            other => return Ok(Some(other)),
        }
        Ok(None)
    }

    /// Receives the next *non-event* response, stashing the event
    /// frames that arrive in between.
    fn recv(&mut self) -> ClientResult<Response> {
        loop {
            if let Some(response) = self.recv_frame()? {
                return Ok(response);
            }
        }
    }

    fn expect_ok(&mut self) -> ClientResult<()> {
        match self.recv()? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Runs an idempotent call; on a transport error with a reconnect
    /// policy installed, redials (resuming subscriptions) and retries
    /// the call once.
    fn retry_read<T>(
        &mut self,
        mut f: impl FnMut(&mut VpClient) -> ClientResult<T>,
    ) -> ClientResult<T> {
        match f(self) {
            Err(ClientError::Io(first)) if self.reconnect.is_some() => {
                if self.reconnect().is_err() {
                    return Err(ClientError::Io(first));
                }
                f(self)
            }
            other => other,
        }
    }

    /// Executes a range query; chunked responses are reassembled into
    /// one id list (see [`VpClient::range_frames`] to observe chunk
    /// boundaries).
    pub fn range(&mut self, query: &RangeQuery) -> ClientResult<Vec<u64>> {
        Ok(self.range_frames(query)?.into_iter().flatten().collect())
    }

    /// Executes a range query and returns each response chunk as its
    /// own vector, in arrival order. Tests use this to assert the
    /// streaming behavior; most callers want [`VpClient::range`].
    pub fn range_frames(&mut self, query: &RangeQuery) -> ClientResult<Vec<Vec<u64>>> {
        let query = *query;
        self.retry_read(move |c| {
            c.send(&Request::Range(query))?;
            let mut frames = Vec::new();
            loop {
                match c.recv()? {
                    Response::Ids { done, ids } => {
                        frames.push(ids);
                        if done {
                            return Ok(frames);
                        }
                    }
                    other => return Err(unexpected(other)),
                }
            }
        })
    }

    /// Executes a kNN query.
    pub fn knn(&mut self, query: &KnnQuery) -> ClientResult<Vec<Neighbor>> {
        let query = *query;
        self.retry_read(move |c| {
            c.send(&Request::Knn(query))?;
            match c.recv()? {
                Response::Neighbors(ns) => Ok(ns),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Inserts one object. Never auto-retried (see module docs).
    pub fn insert(&mut self, obj: MovingObject) -> ClientResult<()> {
        self.send(&Request::Insert(obj))?;
        self.expect_ok()
    }

    /// Deletes one object by id. Never auto-retried.
    pub fn delete(&mut self, id: u64) -> ClientResult<()> {
        self.send(&Request::Delete(id))?;
        self.expect_ok()
    }

    /// Applies one tick (an atomic batch of position re-reports).
    /// Never auto-retried.
    pub fn tick(&mut self, updates: &[MovingObject]) -> ClientResult<()> {
        self.send(&Request::Tick(updates.to_vec()))?;
        self.expect_ok()
    }

    /// Looks up an object's last reported state.
    pub fn get_object(&mut self, id: u64) -> ClientResult<Option<MovingObject>> {
        self.retry_read(move |c| {
            c.send(&Request::GetObject(id))?;
            match c.recv()? {
                Response::Object(o) => Ok(o),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Fetches server + index statistics.
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        self.retry_read(|c| {
            c.send(&Request::Stats)?;
            match c.recv()? {
                Response::Stats(s) => Ok(s),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Round-trips a heartbeat. Keeps an otherwise-passive connection
    /// (e.g. a subscriber between event pushes) from being evicted by
    /// the server's idle timer.
    pub fn ping(&mut self) -> ClientResult<()> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.send(&Request::Ping(nonce))?;
        match self.recv()? {
            Response::Pong(n) if n == nonce => Ok(()),
            Response::Pong(n) => Err(ClientError::Protocol(format!(
                "pong nonce mismatch: sent {nonce}, got {n}"
            ))),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain and shut down (acknowledged before it
    /// exits).
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.send(&Request::Shutdown)?;
        self.expect_ok()
    }

    // --- standing queries --------------------------------------------------

    fn subscribe_inner(
        &mut self,
        spec: SubscribeSpec,
        resume: Option<ResumeFrom>,
    ) -> ClientResult<u64> {
        self.send(&Request::Subscribe { spec, resume })?;
        match self.recv()? {
            Response::Subscribed(id) => {
                // Track (or keep tracking) the subscription *before*
                // its backfill/replay frames are read, so their seqs
                // are recorded.
                self.subs
                    .entry(id)
                    .or_insert(SubState { spec, last_seq: 0 });
                Ok(id)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Registers a standing range query. The initial result set
    /// arrives as an `Enter` backfill event batch (when non-empty);
    /// afterwards the server pushes result-set changes on this
    /// connection after every committed mutation.
    pub fn subscribe_range(&mut self, spec: RangeSubSpec) -> ClientResult<u64> {
        self.subscribe_inner(SubscribeSpec::Range(spec), None)
    }

    /// Registers a standing kNN query (see [`VpClient::subscribe_range`]).
    pub fn subscribe_knn(&mut self, spec: KnnSubSpec) -> ClientResult<u64> {
        self.subscribe_inner(SubscribeSpec::Knn(spec), None)
    }

    /// Resumes subscription `sub` after a reconnect, asking for replay
    /// of everything after `after_seq`. Usually called for you by
    /// [`VpClient::reconnect`]; exposed for tests and for clients that
    /// carry resume tokens across processes.
    pub fn subscribe_resume(
        &mut self,
        spec: SubscribeSpec,
        sub: u64,
        after_seq: u64,
    ) -> ClientResult<u64> {
        let id = self.subscribe_inner(spec, Some(ResumeFrom { sub, after_seq }))?;
        // If this client had no state for the sub (cross-process
        // resume), start dedupe from the caller's token.
        let st = self
            .subs
            .entry(id)
            .or_insert(SubState { spec, last_seq: 0 });
        st.last_seq = st.last_seq.max(after_seq);
        Ok(id)
    }

    /// Drops a standing query. Event batches already in flight may
    /// still surface afterwards; none are produced by later ticks.
    pub fn unsubscribe(&mut self, sub: u64) -> ClientResult<()> {
        self.send(&Request::Unsubscribe(sub))?;
        self.subs.remove(&sub);
        self.expect_ok()
    }

    /// The last sequence number surfaced for a subscription (its
    /// resume token), or `None` if the subscription is unknown.
    pub fn last_seq(&self, sub: u64) -> Option<u64> {
        self.subs.get(&sub).map(|st| st.last_seq)
    }

    /// Drains the event batches already received (those that arrived
    /// interleaved with other responses). Does not touch the socket.
    pub fn take_events(&mut self) -> Vec<EventBatch> {
        self.pending_events.drain(..).collect()
    }

    /// Waits up to `timeout` for at least one event batch, then
    /// returns everything pending. An empty vector means the deadline
    /// passed without the server pushing anything.
    ///
    /// Uses a socket read timeout; intended for an idle connection
    /// (no concurrent request awaiting its reply).
    pub fn wait_events(&mut self, timeout: Duration) -> ClientResult<Vec<EventBatch>> {
        let deadline = Instant::now() + timeout;
        while self.pending_events.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            let got = self.recv_frame();
            self.stream.set_read_timeout(None)?;
            match got {
                // A stray Pong (e.g. from a keepalive whose reply
                // raced an event wait) is dropped, not an error.
                Ok(None | Some(Response::Pong(_))) => {}
                Ok(Some(other)) => {
                    return Err(ClientError::Protocol(format!(
                        "unsolicited non-event frame {other:?}"
                    )))
                }
                Err(ClientError::Io(e)) if is_timeout(&e) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.take_events())
    }
}
