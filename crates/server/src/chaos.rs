//! Deterministic network chaos: an in-process TCP proxy that sits
//! between a client and a vp-server and mangles the byte stream.
//!
//! This is the wire-layer sibling of `vp_storage::FaultInjector`: the
//! same two fault sources — a **scripted schedule** (exact action per
//! forwarded chunk) and a **seeded random mode** (an xorshift64*
//! stream rolls per chunk; same seed + same traffic ⇒ same faults) —
//! applied to TCP instead of the page file. The faults it produces are
//! the ones real networks produce:
//!
//! * [`ChaosAction::Delay`] — the chunk sits in the proxy before it is
//!   forwarded (latency spike / congestion).
//! * [`ChaosAction::Split`] — the chunk is forwarded one byte at a
//!   time with `TCP_NODELAY`, maximally fragmenting frames (a
//!   middlebox or tiny MTU). Correct peers reassemble; peers that
//!   assume one `read` = one frame break instantly.
//! * [`ChaosAction::Truncate`] — a *prefix* of the chunk is forwarded
//!   and then the connection dies: the peer observes a torn frame
//!   (length prefix with a short body), exactly what a crashed proxy
//!   or yanked cable leaves behind.
//! * [`ChaosAction::Kill`] — the connection dies at a chunk boundary
//!   (clean FIN, no data loss beyond the cut).
//! * [`ChaosAction::Reset`] — like `Kill` but with `SO_LINGER 0`, so
//!   the peer sees ECONNRESET instead of EOF.
//!
//! Every connection through the proxy gets two *streams* (client →
//! server and server → client) with independent fault schedules; the
//! stream id and per-stream chunk counter feed the random roll, so a
//! run is reproducible from its seed alone. The proxy keeps accepting
//! new connections after a kill — reconnect-and-resume flows exercise
//! a fresh schedule on each attempt.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What to do with one forwarded chunk (one upstream `read`'s worth of
/// bytes, at most `CHUNK` (4096) of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Forward unchanged.
    Forward,
    /// Sleep this many milliseconds, then forward.
    Delay(u64),
    /// Forward one byte at a time.
    Split,
    /// Forward only the first `n` bytes, then kill the connection
    /// (tears whatever frame the cut lands inside).
    Truncate(usize),
    /// Drop the chunk and kill the connection (clean FIN).
    Kill,
    /// Drop the chunk and kill the connection with RST.
    Reset,
}

/// Per-chunk fault policy. Scripted entries are consulted first (per
/// stream, by chunk index); past the script's end the seeded random
/// rolls decide. All probabilities are per-mille (‰).
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for the per-chunk xorshift roll.
    pub seed: u64,
    /// Exact action for chunk `i` of *every* stream (both directions,
    /// every connection). Beyond the script, random mode applies.
    pub script: Vec<ChaosAction>,
    /// ‰ chance a chunk is delayed by `delay_ms`.
    pub delay_ppk: u32,
    /// Delay applied by the `Delay` roll (ms).
    pub delay_ms: u64,
    /// ‰ chance a chunk is forwarded byte-by-byte.
    pub split_ppk: u32,
    /// ‰ chance the connection is truncated at this chunk (a seeded
    /// prefix of it is forwarded first).
    pub truncate_ppk: u32,
    /// ‰ chance the connection is killed at this chunk boundary; the
    /// same roll decides FIN vs RST.
    pub kill_ppk: u32,
}

impl ChaosPlan {
    /// A proxy that forwards everything untouched (control runs).
    pub fn quiet() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// A scripted plan: action per chunk index, `Forward` beyond the
    /// end.
    pub fn scripted(script: Vec<ChaosAction>) -> ChaosPlan {
        ChaosPlan {
            script,
            ..ChaosPlan::default()
        }
    }

    /// Picks the action for chunk `chunk` of stream `stream`, which
    /// currently holds `len` bytes.
    fn action(&self, stream: u64, chunk: u64, len: usize) -> ChaosAction {
        if let Some(&a) = self.script.get(chunk as usize) {
            return a;
        }
        // xorshift64* over (seed, stream, chunk): deterministic and
        // independent per chunk, like FaultInjector's random mode.
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(chunk.wrapping_mul(0x94D0_49BB_1331_11EB))
            | 1;
        let mut roll = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let die = (roll() % 1000) as u32;
        let mut gate = self.kill_ppk;
        if die < gate {
            return if roll() % 2 == 0 {
                ChaosAction::Kill
            } else {
                ChaosAction::Reset
            };
        }
        gate += self.truncate_ppk;
        if die < gate {
            let keep = if len <= 1 { 0 } else { (roll() as usize) % len };
            return ChaosAction::Truncate(keep);
        }
        gate += self.split_ppk;
        if die < gate {
            return ChaosAction::Split;
        }
        gate += self.delay_ppk;
        if die < gate {
            return ChaosAction::Delay(self.delay_ms);
        }
        ChaosAction::Forward
    }
}

/// Largest chunk pulled from the source socket per action roll.
const CHUNK: usize = 4096;

/// A running chaos proxy. Connect clients to [`ChaosProxy::addr`];
/// every accepted connection is piped to the upstream address through
/// the fault plan. Dropping the handle leaves the proxy running;
/// call [`ChaosProxy::stop`].
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Connections killed by a fault so far (Truncate/Kill/Reset).
    kills: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to
    /// `upstream`.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let kills = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let kills = Arc::clone(&kills);
            thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || {
                    let mut conn_idx: u64 = 0;
                    loop {
                        let Ok((down, _)) = listener.accept() else {
                            return;
                        };
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(up) = TcpStream::connect(upstream) else {
                            // Upstream gone (e.g. server shut down);
                            // drop the client and keep accepting.
                            conn_idx += 1;
                            continue;
                        };
                        let _ = down.set_nodelay(true);
                        let _ = up.set_nodelay(true);
                        // Both directions share one flag: a fault in
                        // each (a scripted action applies to chunk 0
                        // of both) is still one killed connection.
                        let killed = Arc::new(AtomicBool::new(false));
                        let tally = (&kills, &killed);
                        spawn_pump(&down, &up, conn_idx * 2, plan.clone(), tally);
                        spawn_pump(&up, &down, conn_idx * 2 + 1, plan.clone(), tally);
                        conn_idx += 1;
                    }
                })?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            kills,
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections a fault has killed so far (torn, FIN or RST).
    pub fn kill_count(&self) -> u64 {
        self.kills.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the acceptor. Established pumps die
    /// with their sockets (their peers close when client and server
    /// go away).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

/// Kills both sockets of a pump pair. `abortive` skips the read-side
/// half-close first, so any bytes the peer sends after the cut hit a
/// closed receive queue and elicit an RST (std has no stable
/// `SO_LINGER`, so this is the portable way to look like a reset
/// rather than a polite FIN; with no in-flight data it degrades to a
/// FIN, which peers must tolerate anyway).
fn kill_pair(src: &TcpStream, dst: &TcpStream, abortive: bool) {
    if !abortive {
        let _ = src.shutdown(Shutdown::Read);
        let _ = dst.shutdown(Shutdown::Read);
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// One direction of one proxied connection: read a chunk, roll the
/// plan, act.
fn spawn_pump(
    src: &TcpStream,
    dst: &TcpStream,
    stream_id: u64,
    plan: ChaosPlan,
    (kills, killed): (&Arc<AtomicU64>, &Arc<AtomicBool>),
) {
    let (Ok(mut src), Ok(mut dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let (kills, killed) = (Arc::clone(kills), Arc::clone(killed));
    let count_kill = move || {
        if !killed.swap(true, Ordering::SeqCst) {
            kills.fetch_add(1, Ordering::SeqCst);
        }
    };
    let _ = thread::Builder::new()
        .name("chaos-pump".into())
        .spawn(move || {
            let mut buf = [0u8; CHUNK];
            let mut chunk: u64 = 0;
            loop {
                let n = match src.read(&mut buf) {
                    Ok(0) | Err(_) => {
                        // Source side closed: propagate the close.
                        let _ = dst.shutdown(Shutdown::Both);
                        return;
                    }
                    Ok(n) => n,
                };
                match plan.action(stream_id, chunk, n) {
                    ChaosAction::Forward => {
                        if forward(&mut dst, &buf[..n]).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    ChaosAction::Delay(ms) => {
                        thread::sleep(Duration::from_millis(ms));
                        if forward(&mut dst, &buf[..n]).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    ChaosAction::Split => {
                        for b in &buf[..n] {
                            if forward(&mut dst, std::slice::from_ref(b)).is_err() {
                                let _ = src.shutdown(Shutdown::Both);
                                return;
                            }
                        }
                    }
                    ChaosAction::Truncate(keep) => {
                        let keep = keep.min(n);
                        let _ = forward(&mut dst, &buf[..keep]);
                        count_kill();
                        kill_pair(&src, &dst, false);
                        return;
                    }
                    ChaosAction::Kill => {
                        count_kill();
                        kill_pair(&src, &dst, false);
                        return;
                    }
                    ChaosAction::Reset => {
                        count_kill();
                        kill_pair(&src, &dst, true);
                        return;
                    }
                }
                chunk += 1;
            }
        });
}

fn forward(dst: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    dst.write_all(bytes)?;
    dst.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// An upstream that echoes everything it receives.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => {
                                if s.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, t)
    }

    #[test]
    fn quiet_proxy_is_transparent_even_with_split_writes() {
        let (upstream, _t) = echo_server();
        // Split every chunk: bytes arrive, just maximally fragmented.
        let proxy = ChaosProxy::spawn(
            upstream,
            ChaosPlan {
                split_ppk: 1000,
                ..ChaosPlan::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let msg = b"through the mangler";
        c.write_all(msg).unwrap();
        let mut got = vec![0u8; msg.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, msg);
        assert_eq!(proxy.kill_count(), 0);
        proxy.stop();
    }

    #[test]
    fn scripted_truncate_tears_the_stream_and_counts_the_kill() {
        let (upstream, _t) = echo_server();
        // Chunk 0 (client→server) forwards 2 of the bytes, then the
        // connection dies in both directions.
        let proxy = ChaosProxy::spawn(
            upstream,
            ChaosPlan::scripted(vec![ChaosAction::Truncate(2)]),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"doomed payload").unwrap();
        let mut got = Vec::new();
        // The echo of the surviving prefix may arrive; after that the
        // socket must report EOF or reset — never hang.
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let r = c.read_to_end(&mut got);
        assert!(r.is_ok() || r.is_err(), "read returned");
        assert!(got.len() <= 2, "at most the truncated prefix echoes back");
        assert_eq!(proxy.kill_count(), 1);
        proxy.stop();
    }

    #[test]
    fn seeded_rolls_are_deterministic() {
        let plan = ChaosPlan {
            seed: 42,
            delay_ppk: 100,
            split_ppk: 100,
            truncate_ppk: 50,
            kill_ppk: 50,
            delay_ms: 1,
            ..ChaosPlan::default()
        };
        for stream in 0..4u64 {
            for chunk in 0..64u64 {
                assert_eq!(
                    plan.action(stream, chunk, 100),
                    plan.action(stream, chunk, 100),
                    "same (seed, stream, chunk) must give the same action"
                );
            }
        }
        // And the script overrides the rolls.
        let scripted = ChaosPlan {
            script: vec![ChaosAction::Kill],
            ..plan
        };
        assert_eq!(scripted.action(3, 0, 10), ChaosAction::Kill);
    }
}
