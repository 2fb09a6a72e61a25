//! Real multi-process socket transport.
//!
//! [`SocketTransport`] is the first [`Transport`] backend whose hosts are
//! genuinely separate OS processes: peers exchange length-prefixed,
//! CRC-protected frames over TCP or Unix-domain stream sockets. Everything
//! above the trait — the Gluon sync paths, the collectives, the crash
//! supervisor — runs unmodified, which is the paper's central claim about
//! the substrate being swappable under unchanged analytics code (Figure
//! 1's "Network" box).
//!
//! # Architecture
//!
//! Each endpoint owns one *event-loop thread* servicing `world - 1`
//! nonblocking peer connections (established by [`crate::bootstrap`]):
//!
//! * **Outbound:** [`Transport::try_send`] encodes a frame and appends it
//!   to the destination's send queue; the loop drains queues into the
//!   sockets, carrying partial writes across iterations.
//! * **Inbound:** the loop accumulates bytes per peer, parses complete
//!   frames, verifies their CRC, and files payloads into the same
//!   [`Inbox`] index the in-memory backend uses, waking blocked
//!   receivers through a condvar.
//! * **Supervision:** EOF, a socket error or a frame that fails its CRC
//!   on a peer connection latches a typed [`NetError::PeerDown`] for that
//!   rank (stamped with the last round reported via
//!   [`Transport::note_round`]) and wakes every waiter. A dropped
//!   [`crate::MemoryTransport`] produces the same latch, and every
//!   operation then follows the same rules (`transport.rs`, "Peer death").
//!
//! # Frame format
//!
//! ```text
//! | len: u32 LE | tag: u32 LE | crc: u32 LE | payload: len bytes |
//! ```
//!
//! `len` counts payload bytes only; `crc` is CRC-32 (IEEE, [`crc32_parts`],
//! which the checkpoint record shares) over the tag bytes followed by the
//! payload, so neither header corruption nor payload corruption goes
//! unnoticed even on transports without end-to-end checksums (Unix-domain
//! sockets).
//!
//! # Counter parity
//!
//! Payload bytes and message counts are recorded at `try_send` time with
//! the same [`NetStats::record_send`] call and arguments the in-memory
//! backend uses — framing overhead is *not* counted — so on identical
//! inputs the byte/message matrices (and therefore the communication-
//! volume figures and the report fingerprint) match `MemoryTransport`
//! bit-for-bit. Wire mechanics are observable separately through the
//! `socket_*` counters on [`NetStats`].

use crate::error::NetError;
use crate::inbox::Inbox;
use crate::stats::NetStats;
use crate::transport::{Envelope, Transport};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) over the concatenation of `parts`: the checksum of every
/// socket frame, and of the on-disk checkpoint record.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &byte in *part {
            c = CRC_TABLE[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Frame header size on the wire: `len | tag | crc`, each a `u32` LE.
pub(crate) const FRAME_HEADER: usize = 12;

/// How long the event loop sleeps when neither reads nor writes made
/// progress. Short enough to add little latency to a round; long enough
/// not to burn a core spinning.
const IDLE_BACKOFF: Duration = Duration::from_micros(50);

/// How long a blocked receiver waits on the condvar before re-checking
/// for latched peer failures (belt and braces — failures also notify).
const RECV_POLL: Duration = Duration::from_millis(1);

/// Bound on how long `Drop` waits for the event loop to flush queued
/// outbound frames to peers that have stopped reading.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// One established peer connection, TCP or Unix-domain.
///
/// Both variants are stream sockets with identical framing; the enum lets
/// one event loop service either family (and lets tests mix assertions
/// across both without generics leaking into [`SocketTransport`]).
#[derive(Debug)]
pub(crate) enum PeerStream {
    /// TCP connection (Nagle disabled by the bootstrap).
    Tcp(TcpStream),
    /// Unix-domain stream connection.
    Unix(UnixStream),
}

impl PeerStream {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            PeerStream::Tcp(s) => s.set_nonblocking(nb),
            PeerStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            PeerStream::Tcp(s) => s.read(buf),
            PeerStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            PeerStream::Tcp(s) => s.write(buf),
            PeerStream::Unix(s) => s.write(buf),
        }
    }
}

/// Per-peer connection state owned by the event-loop thread.
struct Conn {
    stream: PeerStream,
    /// Bytes read off the wire but not yet parsed into complete frames.
    inbuf: Vec<u8>,
    /// Encoded frames accepted from send queues but not yet fully written.
    outbuf: Vec<u8>,
}

/// Receiver-visible state: arrived messages plus latched failures.
struct RecvState {
    inbox: Inbox,
    /// First terminal error observed per peer (EOF, reset, broken pipe,
    /// a failed CRC), latched for the lifetime of the endpoint.
    dead: Vec<Option<NetError>>,
}

/// State shared between the endpoint handle and its event-loop thread.
struct Shared {
    rank: usize,
    world: usize,
    stats: NetStats,
    state: Mutex<RecvState>,
    wake: Condvar,
    /// Per-peer queues of encoded frames awaiting the event loop.
    out: Vec<Mutex<VecDeque<Bytes>>>,
    /// Last sync-phase index reported through [`Transport::note_round`];
    /// stamps peer-failure errors for checkpoint rollback decisions.
    round: AtomicU64,
    /// Set by `Drop`; tells the loop to flush and exit.
    shutdown: AtomicBool,
}

impl Shared {
    /// Files one received payload and wakes blocked receivers.
    fn file(&self, src: usize, tag: u32, payload: Bytes) {
        let mut st = self.state.lock().expect("socket state lock");
        st.inbox.file(src, tag, payload);
        drop(st);
        self.wake.notify_all();
    }

    /// Latches a terminal error for `peer` and wakes every waiter so
    /// blocked receives return the typed failure promptly.
    fn mark_dead(&self, peer: usize) {
        let err = NetError::PeerDown {
            peer,
            round: self.round.load(Ordering::Relaxed),
        };
        let mut st = self.state.lock().expect("socket state lock");
        if st.dead[peer].is_none() {
            st.dead[peer] = Some(err);
        }
        drop(st);
        self.wake.notify_all();
    }
}

/// A [`Transport`] endpoint whose peers are separate processes reached
/// over TCP or Unix-domain stream sockets.
///
/// Construct via [`crate::bootstrap`] ([`crate::Rendezvous::lead`] on
/// rank 0, [`crate::bootstrap::join`] elsewhere); this type only drives
/// already-established connections. See the module docs for the wire
/// format and supervision semantics.
pub struct SocketTransport {
    shared: Arc<Shared>,
    /// Event-loop thread; joined (after a bounded flush) on drop.
    pump: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("rank", &self.shared.rank)
            .field("world", &self.shared.world)
            .finish_non_exhaustive()
    }
}

/// Encodes one wire frame: header plus payload (see module docs).
pub(crate) fn encode_frame(tag: u32, payload: &[u8]) -> Bytes {
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&tag.to_le_bytes());
    f.extend_from_slice(&crc32_parts(&[&tag.to_le_bytes(), payload]).to_le_bytes());
    f.extend_from_slice(payload);
    Bytes::from(f)
}

impl SocketTransport {
    /// Wraps established peer connections into a live endpoint and starts
    /// its event loop. `conns[p]` must be `Some` exactly for `p != rank`.
    ///
    /// # Panics
    ///
    /// Panics if the connection table disagrees with `rank`/`world` or if
    /// `stats` is sized for a different cluster.
    pub(crate) fn from_conns(
        rank: usize,
        world: usize,
        conns: Vec<Option<PeerStream>>,
        stats: NetStats,
    ) -> SocketTransport {
        assert_eq!(conns.len(), world, "connection table sized for world");
        assert_eq!(stats.world_size(), world, "stats sized for world");
        for (p, c) in conns.iter().enumerate() {
            assert_eq!(
                c.is_some(),
                p != rank,
                "exactly the non-self slots must hold connections"
            );
        }
        let shared = Arc::new(Shared {
            rank,
            world,
            stats,
            state: Mutex::new(RecvState {
                inbox: Inbox::new(),
                dead: vec![None; world],
            }),
            wake: Condvar::new(),
            out: (0..world).map(|_| Mutex::new(VecDeque::new())).collect(),
            round: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut table: Vec<Option<Conn>> = conns
            .into_iter()
            .map(|c| {
                c.map(|stream| {
                    stream
                        .set_nonblocking(true)
                        .expect("set peer stream nonblocking");
                    Conn {
                        stream,
                        inbuf: Vec::with_capacity(64 * 1024),
                        outbuf: Vec::with_capacity(64 * 1024),
                    }
                })
            })
            .collect();
        let loop_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name(format!("gluon-sock-{rank}"))
            .spawn(move || event_loop(&loop_shared, &mut table))
            .expect("spawn socket event loop");
        SocketTransport {
            shared,
            pump: Some(pump),
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn world_size(&self) -> usize {
        self.shared.world
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        assert!(dst < self.shared.world, "destination rank out of range");
        // Counted before any wire activity, with the same arguments the
        // in-memory backend counts — this is what makes the byte/message
        // matrices transport-independent (see module docs).
        self.shared
            .stats
            .record_send(self.shared.rank, dst, payload.len() as u64);
        if dst == self.shared.rank {
            // Self-sends never touch a socket; deliver through the stash
            // like any other message.
            self.shared.file(dst, tag, payload);
            return Ok(());
        }
        if let Some(err) = self.shared.state.lock().expect("socket state lock").dead[dst] {
            // The peer's connection is gone: nothing sent now can arrive.
            return Err(err);
        }
        self.shared.out[dst]
            .lock()
            .expect("socket send queue lock")
            .push_back(encode_frame(tag, &payload));
        Ok(())
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.shared.world, "source rank out of range");
        let mut st = self.shared.state.lock().expect("socket state lock");
        loop {
            // Buffered data outranks failure: frames the peer sent before
            // dying are still delivered in order.
            if let Some((_, payload)) = st.inbox.take(Some(src), tag) {
                return Ok(payload);
            }
            if let Some(err) = st.dead[src] {
                return Err(err);
            }
            st = self
                .shared
                .wake
                .wait_timeout(st, RECV_POLL)
                .expect("socket state lock")
                .0;
        }
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        let mut st = self.shared.state.lock().expect("socket state lock");
        loop {
            if let Some((src, payload)) = st.inbox.take(None, tag) {
                return Ok(Envelope { src, tag, payload });
            }
            // Any dead peer fails the wait: a blocking any-recv is only
            // issued when the caller still expects frames, and it cannot
            // know whether the missing frame was owed by the peer that
            // just died. Buffered frames the peer sent before dying were
            // already taken above.
            if let Some(&err) = st.dead.iter().flatten().next() {
                return Err(err);
            }
            st = self
                .shared
                .wake
                .wait_timeout(st, RECV_POLL)
                .expect("socket state lock")
                .0;
        }
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        let taken = self
            .shared
            .state
            .lock()
            .expect("socket state lock")
            .inbox
            .take(None, tag);
        Ok(taken.map(|(src, payload)| Envelope { src, tag, payload }))
    }

    fn note_round(&self, round: u64) {
        self.shared.round.fetch_max(round, Ordering::Relaxed);
    }

    fn stats(&self) -> &NetStats {
        &self.shared.stats
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// The per-endpoint event loop: drains send queues into the sockets,
/// parses inbound frames into the stashes, and latches peer failures.
/// Runs until shutdown is requested and all outbound traffic is flushed
/// (bounded by [`DRAIN_DEADLINE`]), so frames queued just before teardown
/// still reach their peers.
fn event_loop(shared: &Shared, table: &mut [Option<Conn>]) {
    let mut scratch = [0u8; 64 * 1024];
    let mut draining_since: Option<Instant> = None;
    loop {
        let mut progress = false;
        for (peer, slot) in table.iter_mut().enumerate() {
            if peer == shared.rank {
                continue;
            }
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let alive = service_writes(shared, conn, peer, &mut progress)
                && service_reads(shared, conn, peer, &mut scratch, &mut progress);
            if !alive {
                shared.mark_dead(peer);
                *slot = None;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            // Pending work must be recomputed *after* observing the
            // shutdown flag: `Drop` stores it after the caller's last
            // `try_send`, so any frame enqueued just before teardown is
            // visible to this check — a flag computed mid-sweep could
            // predate it and strand the frame.
            let pending = table.iter().enumerate().any(|(peer, conn)| {
                conn.as_ref().is_some_and(|c| !c.outbuf.is_empty())
                    || (conn.is_some()
                        && !shared.out[peer]
                            .lock()
                            .expect("socket send queue lock")
                            .is_empty())
            });
            if !pending {
                break;
            }
            let since = *draining_since.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_DEADLINE {
                break;
            }
        }
        if !progress {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }
}

/// Moves queued frames into the peer's write buffer and writes as much as
/// the socket accepts. Returns `false` when the connection is broken.
fn service_writes(shared: &Shared, conn: &mut Conn, peer: usize, progress: &mut bool) -> bool {
    {
        let mut q = shared.out[peer].lock().expect("socket send queue lock");
        while let Some(frame) = q.pop_front() {
            conn.outbuf.extend_from_slice(&frame);
            shared.stats.record_socket_frame_sent();
        }
    }
    let mut written = 0;
    while written < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[written..]) {
            Ok(0) => break,
            Ok(n) => {
                written += n;
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    conn.outbuf.drain(..written);
    true
}

/// Reads whatever the kernel has, parses complete frames into the stash,
/// and counts a short read when a partial frame stays buffered. Returns
/// `false` on EOF, a connection error or a frame that fails its CRC.
fn service_reads(
    shared: &Shared,
    conn: &mut Conn,
    peer: usize,
    scratch: &mut [u8],
    progress: &mut bool,
) -> bool {
    let mut alive = true;
    let mut got_data = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                alive = false;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&scratch[..n]);
                got_data = true;
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                alive = false;
                break;
            }
        }
    }
    let mut consumed = 0;
    while conn.inbuf.len() - consumed >= FRAME_HEADER {
        let at = &conn.inbuf[consumed..];
        let len = u32::from_le_bytes(at[0..4].try_into().expect("len")) as usize;
        if at.len() < FRAME_HEADER + len {
            break;
        }
        let tag = u32::from_le_bytes(at[4..8].try_into().expect("tag"));
        let crc = u32::from_le_bytes(at[8..12].try_into().expect("crc"));
        let payload = &at[FRAME_HEADER..FRAME_HEADER + len];
        if crc32_parts(&[&tag.to_le_bytes(), payload]) != crc {
            // A stream transport should never corrupt, and a stream that
            // did cannot be trusted past this frame: the peer is down.
            alive = false;
            break;
        }
        shared.stats.record_socket_frame_received();
        shared.file(peer, tag, Bytes::copy_from_slice(payload));
        consumed += FRAME_HEADER + len;
    }
    conn.inbuf.drain(..consumed);
    if got_data && !conn.inbuf.is_empty() {
        shared.stats.record_socket_short_read();
    }
    // Deliver everything the peer managed to send before closing: frames
    // already parsed above are in the stash, so marking the peer dead now
    // cannot reorder data before failure.
    alive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_layout() {
        let f = encode_frame(7, b"abc");
        assert_eq!(f.len(), FRAME_HEADER + 3);
        assert_eq!(u32::from_le_bytes(f[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(f[4..8].try_into().unwrap()), 7);
        let crc = u32::from_le_bytes(f[8..12].try_into().unwrap());
        assert_eq!(crc, crc32_parts(&[&7u32.to_le_bytes(), b"abc"]));
        assert_eq!(&f[12..], b"abc");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard CRC-32/IEEE check value, whole and split.
        assert_eq!(crc32_parts(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn a_frame_failing_its_crc_takes_the_peer_down() {
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let t = SocketTransport::from_conns(
            0,
            2,
            vec![None, Some(PeerStream::Unix(ours))],
            NetStats::new(2),
        );
        let good = encode_frame(5, b"intact");
        let mut bad = encode_frame(5, b"flipped").to_vec();
        bad[FRAME_HEADER] ^= 1;
        theirs.write_all(&good).expect("write");
        theirs.write_all(&bad).expect("write");
        assert_eq!(&t.try_recv(1, 5).expect("the intact frame")[..], b"intact");
        assert_eq!(
            t.try_recv(1, 5),
            Err(NetError::PeerDown { peer: 1, round: 0 })
        );
    }

    #[test]
    fn zero_length_frames_are_legal() {
        let f = encode_frame(0, b"");
        assert_eq!(f.len(), FRAME_HEADER);
        assert_eq!(u32::from_le_bytes(f[0..4].try_into().unwrap()), 0);
    }
}
