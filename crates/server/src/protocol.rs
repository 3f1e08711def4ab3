//! The wire protocol: length-prefixed binary frames.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. The first payload byte is a message kind
//! tag; the rest is a fixed-layout body (little-endian integers, IEEE
//! `f64` bits). There is no versioning or compression — the protocol
//! exists to carry the batch-formation experiment, not to be a wire
//! standard — but the frame layer already supports the one structural
//! feature the index needs: **chunked range results**. A range query
//! whose hit set exceeds the server's `max_frame` knob streams as a
//! sequence of [`Response::Ids`] frames, all but the last carrying
//! `done == false`; clients accumulate until `done`.
//!
//! Requests and responses both roundtrip through [`Request::encode`] /
//! [`Request::decode`] (resp. [`Response`]) so the client and server
//! cannot drift apart; the unit tests pin the roundtrips.

use std::io::{self, Read, Write};

use vp_core::{
    KnnQuery, KnnSubSpec, MovingObject, Neighbor, QueryRegion, RangeQuery, RangeSubSpec,
    SubEventKind,
};
use vp_geom::{Circle, Point, Rect};

/// Upper bound on a single frame's payload, as a corruption guard: a
/// garbled length prefix should fail fast, not attempt a multi-gigabyte
/// allocation. 64 MiB comfortably fits any real response (a range hit
/// set of 8M ids) while rejecting nonsense.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Protocol error codes carried by [`Response::Error`].
///
/// `ReadOnly` and `WalPoisoned` are deliberately distinct from
/// `Storage`: they tell the client the *index* has demoted (writes will
/// keep failing until recovery) rather than that one request hit a
/// transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed or unknown request frame.
    BadRequest = 1,
    /// Admission queue full — retry later. The request was *not*
    /// executed.
    Overloaded = 2,
    /// The index is in `Health::ReadOnly`; mutations are rejected but
    /// reads keep answering.
    ReadOnly = 3,
    /// A write failed because the WAL stream is poisoned by a failed
    /// fsync (`WalError::Poisoned`) — the demotion to read-only is
    /// happening right now.
    WalPoisoned = 4,
    /// Delete/update of an id the index does not contain.
    UnknownObject = 5,
    /// Insert of an id already present.
    DuplicateObject = 6,
    /// Object position outside the configured data domain.
    OutOfDomain = 7,
    /// Underlying page storage failed.
    Storage = 8,
    /// Anything else (server-side panic shields, shutdown races).
    Internal = 9,
    /// The request's deadline budget expired before the server could
    /// (finish) execut(ing) it. The work was dropped; whether any
    /// partial execution happened is unspecified for mutations wrapped
    /// in a deadline (clients should only stamp deadlines on reads).
    DeadlineExceeded = 10,
    /// The server is draining for shutdown: in-flight work is being
    /// answered but new work is rejected. Reconnect to another
    /// replica or retry after the restart.
    Draining = 11,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::ReadOnly,
            4 => ErrorCode::WalPoisoned,
            5 => ErrorCode::UnknownObject,
            6 => ErrorCode::DuplicateObject,
            7 => ErrorCode::OutOfDomain,
            8 => ErrorCode::Storage,
            9 => ErrorCode::Internal,
            10 => ErrorCode::DeadlineExceeded,
            11 => ErrorCode::Draining,
            _ => return None,
        })
    }
}

/// What a [`Request::Subscribe`] frame registers: a standing range or
/// kNN query, evaluated incrementally server-side after every
/// committed mutation. The prediction horizon is a server-side knob
/// (`ServerConfig::sub_horizon`), not part of the wire spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubscribeSpec {
    /// Standing range subscription (region + predictive offset).
    Range(RangeSubSpec),
    /// Standing kNN subscription (center, k, predictive offset).
    Knn(KnnSubSpec),
}

/// Resume token carried by [`Request::Subscribe`]: "re-attach me to
/// subscription `sub`, whose events I have applied through `after_seq`".
///
/// The server replays retained batches `after_seq+1 ..= last_seq`
/// gap-free when its ring still covers them, and otherwise pushes a
/// fresh full backfill with the `reset` flag set (the client must
/// discard its accumulated state). Sequence numbers are per
/// subscription and count only emitted (non-empty) batches plus
/// resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeFrom {
    /// The subscription id from the original `Subscribed` reply.
    pub sub: u64,
    /// Highest sequence number the client has fully applied
    /// (0 = nothing).
    pub after_seq: u64,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a range query (batched server-side).
    Range(RangeQuery),
    /// Execute a kNN query (batched server-side).
    Knn(KnnQuery),
    /// Insert one object (routed to the writer thread).
    Insert(MovingObject),
    /// Delete one object by id (routed to the writer thread).
    Delete(u64),
    /// Apply a tick: a batch of position re-reports, atomically.
    Tick(Vec<MovingObject>),
    /// Point lookup of an object's last reported state.
    GetObject(u64),
    /// Server + index statistics.
    Stats,
    /// Ask the server to shut down (acked with `Response::Ok`).
    Shutdown,
    /// Register a standing query. Answered with
    /// [`Response::Subscribed`], immediately followed by a
    /// [`Response::Events`] backfill frame when the initial result set
    /// is non-empty. Afterwards the server pushes an `Events` frame on
    /// this connection whenever a committed mutation changes the
    /// subscription's result set. With `resume`, re-attaches to an
    /// existing (or reaped) subscription instead of allocating a new
    /// one; the `spec` must match the original registration.
    Subscribe {
        /// What to watch.
        spec: SubscribeSpec,
        /// Present on reconnect: replay from this point.
        resume: Option<ResumeFrom>,
    },
    /// Drop a standing query by its id (acked with `Response::Ok`;
    /// idempotent).
    Unsubscribe(u64),
    /// Deadline envelope: execute `inner` only if it can be answered
    /// within `budget_us` microseconds of the server *decoding* this
    /// frame. The budget is relative (a duration, not a wall-clock
    /// timestamp) so client and server clocks need not agree. Expired
    /// work is dropped — before admission, before batch formation, and
    /// again before the reply is written — and answered with
    /// [`ErrorCode::DeadlineExceeded`]. Envelopes do not nest.
    Deadline {
        /// Microseconds the client is still willing to wait.
        budget_us: u64,
        /// The enveloped request.
        inner: Box<Request>,
    },
    /// Liveness probe; answered immediately with [`Response::Pong`]
    /// from the connection thread (it never enters the batch queues).
    /// Clients send these on idle connections so half-open peers are
    /// detected on both sides.
    Ping(u64),
}

/// Server + index statistics returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Objects currently indexed.
    pub objects: u64,
    /// Partition count (DVA partitions + outlier).
    pub partitions: u32,
    /// True once the index has demoted to read-only.
    pub read_only: bool,
    /// Query batches executed so far.
    pub batches: u64,
    /// Read requests that travelled inside those batches.
    pub batched_requests: u64,
    /// Mutations (inserts + deletes + ticks) applied.
    pub writes: u64,
    /// Requests rejected with `Overloaded`.
    pub overloaded: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One chunk of a range result. `done == false` means more chunks
    /// follow for the *same* request; ids arrive in ascending order
    /// across the whole sequence.
    Ids { done: bool, ids: Vec<u64> },
    /// A kNN result (sorted by distance, then id).
    Neighbors(Vec<Neighbor>),
    /// Mutation / shutdown acknowledged.
    Ok,
    /// Point-lookup result.
    Object(Option<MovingObject>),
    /// Statistics snapshot.
    Stats(StatsReply),
    /// Typed failure; the request had no effect (for `Overloaded` it
    /// was never admitted).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Back-off hint in microseconds (0 = none). For
        /// [`ErrorCode::Overloaded`] this is the server's current
        /// queue-drain estimate (windows queued ahead × a nominal cost
        /// each; see `ServerConfig::window_us`): wait at least this
        /// long before retrying.
        retry_after_us: u64,
    },
    /// A standing query was registered under this id.
    Subscribed(u64),
    /// Pushed result-set changes for one subscription at one commit
    /// time. Events within a frame arrive grouped by kind (Enter,
    /// Leave, Moved) with ascending ids inside each group.
    Events {
        /// The subscription these events belong to.
        sub: u64,
        /// Evaluation time of the tick that produced them.
        time: f64,
        /// Per-subscription sequence number (1-based, contiguous
        /// across pushed frames; replayed frames reuse their original
        /// numbers so a resuming client can dedupe).
        seq: u64,
        /// True when this frame is a full backfill replacing — not
        /// extending — everything the client accumulated before
        /// (resume fell outside the retained window, or the
        /// subscription was re-registered).
        reset: bool,
        /// True on the terminal frame of a graceful drain: no further
        /// events will be pushed for this subscription by this server
        /// process. `events` is empty on fin frames.
        fin: bool,
        /// `(kind, object id)` pairs.
        events: Vec<(SubEventKind, u64)>,
    },
    /// Liveness reply to [`Request::Ping`], echoing its nonce.
    Pong(u64),
}

// --- frame layer -----------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads length-prefixed frames, including from sockets with read
/// timeouts.
///
/// A `read_exact` loop is only safe on a blocking stream: if the
/// socket has a read timeout and it fires mid-frame, `read_exact`
/// returns an error *after having consumed some bytes*, desynchronizing
/// the stream. `FrameReader` instead accumulates partial progress
/// across calls — a `WouldBlock`/`TimedOut` from the underlying reader
/// surfaces to the caller (who treats it as an idle tick: check
/// heartbeats, check shutdown, call again) and the half-read frame
/// resumes exactly where it stopped.
///
/// `Ok(None)` means clean EOF **at a frame boundary**; EOF mid-frame is
/// an `UnexpectedEof` error (a torn frame, never silently accepted).
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_filled: usize,
    /// Payload buffer; allocated once the header completes.
    payload: Vec<u8>,
    payload_filled: usize,
    /// Some(len) once the header has been parsed and validated.
    expect: Option<usize>,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True when a frame is partially read — used by callers to
    /// distinguish "idle, nothing arriving" from "peer stalled
    /// mid-frame" when a read timeout fires.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.expect.is_some()
    }

    /// Reads until one full frame is buffered, returning its payload.
    /// Propagates `WouldBlock`/`TimedOut` (and any other I/O error)
    /// from `r` with all partial progress retained.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Vec<u8>>> {
        loop {
            if self.expect.is_none() {
                // Header phase.
                let n = match r.read(&mut self.header[self.header_filled..]) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if n == 0 {
                    if self.header_filled == 0 {
                        return Ok(None);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ));
                }
                self.header_filled += n;
                if self.header_filled < 4 {
                    continue;
                }
                let len = u32::from_le_bytes(self.header);
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
                    ));
                }
                self.expect = Some(len as usize);
                self.payload = vec![0u8; len as usize];
                self.payload_filled = 0;
            }
            let want = self.expect.expect("header parsed");
            if self.payload_filled == want {
                // Frame complete (covers zero-length payloads too).
                self.header_filled = 0;
                self.expect = None;
                self.payload_filled = 0;
                return Ok(Some(std::mem::take(&mut self.payload)));
            }
            let n = match r.read(&mut self.payload[self.payload_filled..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ));
            }
            self.payload_filled += n;
        }
    }
}

/// True when `e` is a socket-timeout error (`WouldBlock` on Unix,
/// `TimedOut` on some platforms) rather than a real failure.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// --- body codec ------------------------------------------------------------

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(buf: &mut Vec<u8>, p: Point) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn put_object(buf: &mut Vec<u8>, o: &MovingObject) {
    buf.extend_from_slice(&o.id.to_le_bytes());
    put_point(buf, o.pos);
    put_point(buf, o.vel);
    put_f64(buf, o.ref_time);
}

fn put_region(buf: &mut Vec<u8>, region: &QueryRegion) {
    match region {
        QueryRegion::Circle(c) => {
            buf.push(0);
            put_point(buf, c.center);
            put_f64(buf, c.radius);
        }
        QueryRegion::Rect(r) => {
            buf.push(1);
            put_point(buf, r.lo);
            put_point(buf, r.hi);
        }
    }
}

fn event_kind_to_u8(kind: SubEventKind) -> u8 {
    match kind {
        SubEventKind::Enter => 1,
        SubEventKind::Leave => 2,
        SubEventKind::Moved => 3,
    }
}

fn event_kind_from_u8(b: u8) -> Option<SubEventKind> {
    Some(match b {
        1 => SubEventKind::Enter,
        2 => SubEventKind::Leave,
        3 => SubEventKind::Moved,
        _ => return None,
    })
}

/// Sequential reader over a frame payload. Every getter returns
/// `InvalidData` on underrun so a truncated frame surfaces as a decode
/// error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated frame",
            ));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn point(&mut self) -> io::Result<Point> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    fn region(&mut self) -> io::Result<QueryRegion> {
        Ok(match self.u8()? {
            0 => QueryRegion::Circle(Circle::new(self.point()?, self.f64()?)),
            1 => QueryRegion::Rect(Rect::new(self.point()?, self.point()?)),
            t => return Err(bad(&format!("region tag {t}"))),
        })
    }

    fn object(&mut self) -> io::Result<MovingObject> {
        let id = self.u64()?;
        let pos = self.point()?;
        let vel = self.point()?;
        let ref_time = self.f64()?;
        Ok(MovingObject {
            id,
            pos,
            vel,
            ref_time,
        })
    }

    /// Consumes and returns everything left in the frame (used for
    /// nested-message envelopes).
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    fn done(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in frame",
            ))
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {what}"))
}

impl Request {
    /// Serializes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            Request::Range(q) => {
                buf.push(1);
                put_region(&mut buf, &q.region);
                put_point(&mut buf, q.velocity);
                put_f64(&mut buf, q.region_ref_time);
                put_f64(&mut buf, q.t_start);
                put_f64(&mut buf, q.t_end);
            }
            Request::Knn(q) => {
                buf.push(2);
                put_point(&mut buf, q.center);
                buf.extend_from_slice(&(q.k as u32).to_le_bytes());
                put_f64(&mut buf, q.t);
            }
            Request::Insert(o) => {
                buf.push(3);
                put_object(&mut buf, o);
            }
            Request::Delete(id) => {
                buf.push(4);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Request::Tick(updates) => {
                buf.push(5);
                buf.extend_from_slice(&(updates.len() as u32).to_le_bytes());
                for o in updates {
                    put_object(&mut buf, o);
                }
            }
            Request::GetObject(id) => {
                buf.push(6);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Request::Stats => buf.push(7),
            Request::Shutdown => buf.push(8),
            Request::Subscribe { spec, resume } => {
                buf.push(9);
                match spec {
                    SubscribeSpec::Range(s) => {
                        buf.push(0);
                        put_region(&mut buf, &s.region);
                        put_f64(&mut buf, s.predictive_dt);
                    }
                    SubscribeSpec::Knn(s) => {
                        buf.push(1);
                        put_point(&mut buf, s.center);
                        buf.extend_from_slice(&(s.k as u32).to_le_bytes());
                        put_f64(&mut buf, s.predictive_dt);
                    }
                }
                match resume {
                    None => buf.push(0),
                    Some(r) => {
                        buf.push(1);
                        buf.extend_from_slice(&r.sub.to_le_bytes());
                        buf.extend_from_slice(&r.after_seq.to_le_bytes());
                    }
                }
            }
            Request::Unsubscribe(id) => {
                buf.push(10);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Request::Deadline { budget_us, inner } => {
                buf.push(11);
                buf.extend_from_slice(&budget_us.to_le_bytes());
                buf.extend_from_slice(&inner.encode());
            }
            Request::Ping(nonce) => {
                buf.push(12);
                buf.extend_from_slice(&nonce.to_le_bytes());
            }
        }
        buf
    }

    /// Parses a frame payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            1 => {
                let region = c.region()?;
                let velocity = c.point()?;
                let region_ref_time = c.f64()?;
                let t_start = c.f64()?;
                let t_end = c.f64()?;
                Request::Range(RangeQuery {
                    region,
                    velocity,
                    region_ref_time,
                    t_start,
                    t_end,
                })
            }
            2 => {
                let center = c.point()?;
                let k = c.u32()? as usize;
                let t = c.f64()?;
                Request::Knn(KnnQuery { center, k, t })
            }
            3 => Request::Insert(c.object()?),
            4 => Request::Delete(c.u64()?),
            5 => {
                let n = c.u32()? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    updates.push(c.object()?);
                }
                Request::Tick(updates)
            }
            6 => Request::GetObject(c.u64()?),
            7 => Request::Stats,
            8 => Request::Shutdown,
            9 => {
                let spec = match c.u8()? {
                    0 => SubscribeSpec::Range(RangeSubSpec {
                        region: c.region()?,
                        predictive_dt: c.f64()?,
                    }),
                    1 => SubscribeSpec::Knn(KnnSubSpec {
                        center: c.point()?,
                        k: c.u32()? as usize,
                        predictive_dt: c.f64()?,
                    }),
                    t => return Err(bad(&format!("subscribe kind {t}"))),
                };
                let resume = match c.u8()? {
                    0 => None,
                    1 => Some(ResumeFrom {
                        sub: c.u64()?,
                        after_seq: c.u64()?,
                    }),
                    t => return Err(bad(&format!("resume tag {t}"))),
                };
                Request::Subscribe { spec, resume }
            }
            10 => Request::Unsubscribe(c.u64()?),
            11 => {
                let budget_us = c.u64()?;
                // The rest of the payload is the enveloped request;
                // envelopes must not nest.
                let inner = Request::decode(c.rest())?;
                if matches!(inner, Request::Deadline { .. }) {
                    return Err(bad("nested deadline envelope"));
                }
                return Ok(Request::Deadline {
                    budget_us,
                    inner: Box::new(inner),
                });
            }
            12 => Request::Ping(c.u64()?),
            t => return Err(bad(&format!("request tag {t}"))),
        };
        c.done()?;
        Ok(req)
    }

    /// Peels a deadline envelope: `(budget, inner)` for
    /// [`Request::Deadline`], `(None, self)` otherwise.
    pub fn into_parts(self) -> (Option<u64>, Request) {
        match self {
            Request::Deadline { budget_us, inner } => (Some(budget_us), *inner),
            other => (None, other),
        }
    }
}

impl Response {
    /// Serializes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Response::Ids { done, ids } => {
                buf.push(1);
                buf.push(u8::from(*done));
                buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
            Response::Neighbors(ns) => {
                buf.push(2);
                buf.extend_from_slice(&(ns.len() as u32).to_le_bytes());
                for n in ns {
                    buf.extend_from_slice(&n.id.to_le_bytes());
                    put_f64(&mut buf, n.distance);
                }
            }
            Response::Ok => buf.push(3),
            Response::Object(o) => {
                buf.push(4);
                match o {
                    Some(o) => {
                        buf.push(1);
                        put_object(&mut buf, o);
                    }
                    None => buf.push(0),
                }
            }
            Response::Stats(s) => {
                buf.push(5);
                buf.extend_from_slice(&s.objects.to_le_bytes());
                buf.extend_from_slice(&s.partitions.to_le_bytes());
                buf.push(u8::from(s.read_only));
                buf.extend_from_slice(&s.batches.to_le_bytes());
                buf.extend_from_slice(&s.batched_requests.to_le_bytes());
                buf.extend_from_slice(&s.writes.to_le_bytes());
                buf.extend_from_slice(&s.overloaded.to_le_bytes());
            }
            Response::Error {
                code,
                message,
                retry_after_us,
            } => {
                buf.push(6);
                buf.push(*code as u8);
                buf.extend_from_slice(&retry_after_us.to_le_bytes());
                let msg = message.as_bytes();
                buf.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                buf.extend_from_slice(msg);
            }
            Response::Subscribed(id) => {
                buf.push(7);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Response::Events {
                sub,
                time,
                seq,
                reset,
                fin,
                events,
            } => {
                buf.push(8);
                buf.extend_from_slice(&sub.to_le_bytes());
                put_f64(&mut buf, *time);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(u8::from(*reset) | (u8::from(*fin) << 1));
                buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for (kind, id) in events {
                    buf.push(event_kind_to_u8(*kind));
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
            Response::Pong(nonce) => {
                buf.push(9);
                buf.extend_from_slice(&nonce.to_le_bytes());
            }
        }
        buf
    }

    /// Parses a frame payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            1 => {
                let done = c.u8()? != 0;
                let n = c.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    ids.push(c.u64()?);
                }
                Response::Ids { done, ids }
            }
            2 => {
                let n = c.u32()? as usize;
                let mut ns = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let id = c.u64()?;
                    let distance = c.f64()?;
                    ns.push(Neighbor { id, distance });
                }
                Response::Neighbors(ns)
            }
            3 => Response::Ok,
            4 => match c.u8()? {
                0 => Response::Object(None),
                1 => Response::Object(Some(c.object()?)),
                t => return Err(bad(&format!("option tag {t}"))),
            },
            5 => {
                let objects = c.u64()?;
                let partitions = c.u32()?;
                let read_only = c.u8()? != 0;
                let batches = c.u64()?;
                let batched_requests = c.u64()?;
                let writes = c.u64()?;
                let overloaded = c.u64()?;
                Response::Stats(StatsReply {
                    objects,
                    partitions,
                    read_only,
                    batches,
                    batched_requests,
                    writes,
                    overloaded,
                })
            }
            6 => {
                let code = ErrorCode::from_u8(c.u8()?).ok_or_else(|| bad("error code"))?;
                let retry_after_us = c.u64()?;
                let len = c.u32()? as usize;
                let message = String::from_utf8(c.take(len)?.to_vec())
                    .map_err(|_| bad("error message utf8"))?;
                Response::Error {
                    code,
                    message,
                    retry_after_us,
                }
            }
            7 => Response::Subscribed(c.u64()?),
            8 => {
                let sub = c.u64()?;
                let time = c.f64()?;
                let seq = c.u64()?;
                let flags = c.u8()?;
                if flags & !0b11 != 0 {
                    return Err(bad("events flags"));
                }
                let n = c.u32()? as usize;
                let mut events = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let kind = event_kind_from_u8(c.u8()?).ok_or_else(|| bad("event kind"))?;
                    events.push((kind, c.u64()?));
                }
                Response::Events {
                    sub,
                    time,
                    seq,
                    reset: flags & 0b01 != 0,
                    fin: flags & 0b10 != 0,
                    events,
                }
            }
            9 => Response::Pong(c.u64()?),
            t => return Err(bad(&format!("response tag {t}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let payload = r.encode();
        assert_eq!(Request::decode(&payload).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        let payload = r.encode();
        assert_eq!(Response::decode(&payload).unwrap(), r);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Range(RangeQuery::time_slice(
            QueryRegion::Circle(Circle::new(Point::new(10.0, -3.5), 42.0)),
            7.0,
        )));
        roundtrip_req(Request::Range(RangeQuery::moving(
            QueryRegion::Rect(Rect::from_bounds(0.0, 1.0, 2.0, 3.0)),
            Point::new(1.0, -2.0),
            5.0,
            9.0,
        )));
        roundtrip_req(Request::Knn(KnnQuery {
            center: Point::new(1.0, 2.0),
            k: 17,
            t: 3.0,
        }));
        roundtrip_req(Request::Insert(MovingObject::new(
            9,
            Point::new(1.0, 2.0),
            Point::new(-0.5, 0.25),
            4.0,
        )));
        roundtrip_req(Request::Delete(1234));
        roundtrip_req(Request::Tick(vec![
            MovingObject::new(1, Point::new(0.0, 0.0), Point::new(1.0, 1.0), 0.0),
            MovingObject::new(2, Point::new(5.0, 5.0), Point::new(-1.0, 0.0), 0.0),
        ]));
        roundtrip_req(Request::GetObject(55));
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Subscribe {
            spec: SubscribeSpec::Range(RangeSubSpec {
                region: QueryRegion::Circle(Circle::new(Point::new(4.0, -1.0), 12.5)),
                predictive_dt: 3.0,
            }),
            resume: None,
        });
        roundtrip_req(Request::Subscribe {
            spec: SubscribeSpec::Range(RangeSubSpec {
                region: QueryRegion::Rect(Rect::from_bounds(0.0, 0.0, 9.0, 4.0)),
                predictive_dt: 0.0,
            }),
            resume: Some(ResumeFrom {
                sub: 12,
                after_seq: 7,
            }),
        });
        roundtrip_req(Request::Subscribe {
            spec: SubscribeSpec::Knn(KnnSubSpec {
                center: Point::new(-7.0, 2.0),
                k: 5,
                predictive_dt: 1.5,
            }),
            resume: None,
        });
        roundtrip_req(Request::Unsubscribe(42));
        roundtrip_req(Request::Deadline {
            budget_us: 250_000,
            inner: Box::new(Request::Knn(KnnQuery {
                center: Point::new(0.0, 0.0),
                k: 3,
                t: 1.0,
            })),
        });
        roundtrip_req(Request::Ping(0xDEAD_BEEF));
    }

    #[test]
    fn deadline_envelopes_do_not_nest() {
        let inner = Request::Deadline {
            budget_us: 10,
            inner: Box::new(Request::Stats),
        };
        let mut payload = vec![11u8];
        payload.extend_from_slice(&99u64.to_le_bytes());
        payload.extend_from_slice(&inner.encode());
        assert!(Request::decode(&payload).is_err(), "nested envelope");

        let (budget, peeled) = Request::Deadline {
            budget_us: 7,
            inner: Box::new(Request::Stats),
        }
        .into_parts();
        assert_eq!(budget, Some(7));
        assert_eq!(peeled, Request::Stats);
        assert_eq!(Request::Stats.into_parts(), (None, Request::Stats));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ids {
            done: false,
            ids: vec![1, 2, 3],
        });
        roundtrip_resp(Response::Ids {
            done: true,
            ids: vec![],
        });
        roundtrip_resp(Response::Neighbors(vec![
            Neighbor {
                id: 3,
                distance: 1.25,
            },
            Neighbor {
                id: 9,
                distance: 2.5,
            },
        ]));
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Object(None));
        roundtrip_resp(Response::Object(Some(MovingObject::new(
            7,
            Point::new(3.0, 4.0),
            Point::new(0.0, -1.0),
            2.0,
        ))));
        roundtrip_resp(Response::Stats(StatsReply {
            objects: 100,
            partitions: 5,
            read_only: true,
            batches: 12,
            batched_requests: 96,
            writes: 7,
            overloaded: 2,
        }));
        roundtrip_resp(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retry_after_us: 40_000,
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::DeadlineExceeded,
            message: "budget expired in queue".to_string(),
            retry_after_us: 0,
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Draining,
            message: "server draining".to_string(),
            retry_after_us: 0,
        });
        roundtrip_resp(Response::Subscribed(17));
        roundtrip_resp(Response::Events {
            sub: 17,
            time: 40.0,
            seq: 3,
            reset: false,
            fin: false,
            events: vec![
                (SubEventKind::Enter, 3),
                (SubEventKind::Leave, 8),
                (SubEventKind::Moved, 11),
            ],
        });
        roundtrip_resp(Response::Events {
            sub: 1,
            time: 0.0,
            seq: 9,
            reset: true,
            fin: false,
            events: vec![],
        });
        roundtrip_resp(Response::Events {
            sub: 2,
            time: 10.0,
            seq: 12,
            reset: false,
            fin: true,
            events: vec![],
        });
        roundtrip_resp(Response::Pong(77));
    }

    #[test]
    fn frame_layer_roundtrip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.encode()).unwrap();
        write_frame(&mut buf, &Request::Delete(3).encode()).unwrap();
        let mut r = &buf[..];
        let mut fr = FrameReader::new();
        assert_eq!(
            Request::decode(&fr.read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::decode(&fr.read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Delete(3)
        );
        assert!(fr.read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // A garbled length prefix fails fast instead of allocating.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(FrameReader::new().read_frame(&mut r).is_err());

        // Truncation inside a payload is an error, not a hang.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Delete(3).encode()).unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(FrameReader::new().read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let payload = Request::Insert(MovingObject::new(
            9,
            Point::new(1.0, 2.0),
            Point::new(-0.5, 0.25),
            4.0,
        ))
        .encode();
        for cut in 1..payload.len() {
            assert!(Request::decode(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = payload;
        extended.push(0);
        assert!(Request::decode(&extended).is_err(), "trailing byte");
    }

    #[test]
    fn truncated_subscribe_and_events_error_cleanly() {
        let payload = Request::Subscribe {
            spec: SubscribeSpec::Range(RangeSubSpec {
                region: QueryRegion::Circle(Circle::new(Point::new(1.0, 2.0), 3.0)),
                predictive_dt: 4.0,
            }),
            resume: Some(ResumeFrom {
                sub: 3,
                after_seq: 1,
            }),
        }
        .encode();
        for cut in 1..payload.len() {
            assert!(Request::decode(&payload[..cut]).is_err(), "cut {cut}");
        }

        let payload = Response::Events {
            sub: 9,
            time: 5.0,
            seq: 2,
            reset: false,
            fin: false,
            events: vec![(SubEventKind::Enter, 1), (SubEventKind::Moved, 2)],
        }
        .encode();
        for cut in 1..payload.len() {
            assert!(Response::decode(&payload[..cut]).is_err(), "cut {cut}");
        }

        // An unknown event kind is a decode error, not a panic.
        let mut garbled = payload.clone();
        let kind_at = 1 + 8 + 8 + 8 + 1 + 4; // tag, sub, time, seq, flags, count
        garbled[kind_at] = 99;
        assert!(Response::decode(&garbled).is_err(), "bad event kind");

        // Unknown flag bits are a decode error too.
        let mut garbled = payload;
        garbled[1 + 8 + 8 + 8] = 0b100;
        assert!(Response::decode(&garbled).is_err(), "bad flags");
    }

    /// A reader that dribbles bytes one at a time and interleaves
    /// timeouts, exercising FrameReader's partial-progress contract.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        timeout_every: usize,
        reads: usize,
    }

    impl io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.timeout_every > 0 && self.reads.is_multiple_of(self.timeout_every) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Delete(7).encode()).unwrap();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let mut r = Dribble {
            data: wire,
            pos: 0,
            timeout_every: 3,
            reads: 0,
        };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0;
        loop {
            match fr.read_frame(&mut r) {
                Ok(Some(p)) => frames.push(Request::decode(&p).unwrap()),
                Ok(None) => break,
                Err(e) if is_timeout(&e) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![Request::Delete(7), Request::Stats]);
        assert!(timeouts > 0, "the dribble injected timeouts");
        assert!(!fr.mid_frame(), "clean EOF at a frame boundary");
    }

    #[test]
    fn frame_reader_rejects_torn_eof_and_huge_lengths() {
        // EOF mid-payload is UnexpectedEof, not a clean close.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Delete(7).encode()).unwrap();
        wire.truncate(wire.len() - 2);
        let mut fr = FrameReader::new();
        let mut r = &wire[..];
        let err = fr.read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // EOF mid-header likewise.
        let mut fr = FrameReader::new();
        let mut r = &wire[..2];
        let err = fr.read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(fr.mid_frame());

        // A garbled length prefix fails fast instead of allocating.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut fr = FrameReader::new();
        let mut r = &huge[..];
        assert!(fr.read_frame(&mut r).is_err());

        // Zero-length frames are legal and terminate.
        let zero = 0u32.to_le_bytes();
        let mut fr = FrameReader::new();
        let mut r = &zero[..];
        assert_eq!(fr.read_frame(&mut r).unwrap(), Some(Vec::new()));
    }
}
