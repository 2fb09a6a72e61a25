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
//! An endpoint holds `world - 1` blocking peer connections (established by
//! [`crate::bootstrap`]); every wait blocks in the kernel, nothing polls:
//!
//! * **Outbound:** [`Transport::try_send`] encodes a frame and writes it
//!   inline with `write_all`, under the peer's stream lock. The write waits
//!   at most for the peer's reader thread to take the bytes, never for the
//!   peer's compute: every reader drains its socket all the time, so two
//!   hosts writing large frames to each other cannot deadlock.
//! * **Inbound:** one reader thread per peer (`gluon-sock-{rank}-{peer}`),
//!   on a clone of the stream, reads a frame's header, then its payload,
//!   verifies the CRC and files the payload into the same [`Inbox`] index
//!   the in-memory backend uses, waking blocked receivers through a
//!   condvar.
//! * **Supervision:** EOF, a socket error or a frame that fails its CRC
//!   ends the reader, which latches a typed [`NetError::PeerDown`] for that
//!   rank (stamped with the last round reported via
//!   [`Transport::note_round`]) and wakes every waiter; a failed write
//!   latches the same error. Frames filed before the latch are delivered
//!   first, in order. A dropped [`crate::MemoryTransport`] produces the
//!   same latch, and every operation then follows the same rules
//!   (`transport.rs`, "Peer death").
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
//! sockets). `len` itself is not covered, so a reader never sizes a buffer
//! from it beyond [`READ_RESERVE`]: the payload grows with the bytes that
//! actually arrive.
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
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// The most a reader reserves for a payload on the word of a header alone;
/// a longer payload grows as its bytes arrive.
const READ_RESERVE: usize = 64 * 1024;

/// One established peer connection, TCP or Unix-domain.
///
/// Both variants are stream sockets with identical framing; the enum keeps
/// the one `match` on the family here, so the reader, the writer and the
/// bootstrap serve either without generics leaking into
/// [`SocketTransport`].
#[derive(Debug)]
pub(crate) enum PeerStream {
    /// TCP connection (Nagle disabled by the bootstrap).
    Tcp(TcpStream),
    /// Unix-domain stream connection.
    Unix(UnixStream),
}

impl PeerStream {
    /// A second handle on the same connection (for the reader thread).
    fn try_clone(&self) -> io::Result<PeerStream> {
        Ok(match self {
            PeerStream::Tcp(s) => PeerStream::Tcp(s.try_clone()?),
            PeerStream::Unix(s) => PeerStream::Unix(s.try_clone()?),
        })
    }

    /// Bounds (or with `None`, unbounds) every blocking read on the
    /// connection, through any handle.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            PeerStream::Tcp(s) => s.set_read_timeout(timeout),
            PeerStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            PeerStream::Tcp(s) => s.shutdown(how),
            PeerStream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for PeerStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            PeerStream::Tcp(s) => s.read(buf),
            PeerStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for PeerStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            PeerStream::Tcp(s) => s.write(buf),
            PeerStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Stream sockets buffer nothing in user space.
        Ok(())
    }
}

/// Receiver-visible state: arrived messages plus latched failures.
struct RecvState {
    inbox: Inbox,
    /// First terminal error observed per peer (EOF, reset, broken pipe,
    /// a failed CRC), latched for the lifetime of the endpoint.
    dead: Vec<Option<NetError>>,
}

/// State shared between the endpoint handle and its reader threads.
struct Shared {
    rank: usize,
    world: usize,
    stats: NetStats,
    state: Mutex<RecvState>,
    /// Notified on every filed frame and every latched death.
    wake: Condvar,
    /// Last sync-phase index reported through [`Transport::note_round`];
    /// stamps peer-failure errors for checkpoint rollback decisions.
    round: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, RecvState> {
        self.state.lock().expect("socket state lock")
    }

    /// Files one received payload and wakes blocked receivers.
    fn file(&self, src: usize, tag: u32, payload: Bytes) {
        self.lock().inbox.file(src, tag, payload);
        self.wake.notify_all();
    }

    /// Latches a terminal error for `peer`, wakes every waiter so blocked
    /// receives return the typed failure promptly, and returns the error
    /// latched first.
    fn mark_dead(&self, peer: usize) -> NetError {
        let err = NetError::PeerDown {
            peer,
            round: self.round.load(Ordering::Relaxed),
        };
        let latched = *self.lock().dead[peer].get_or_insert(err);
        self.wake.notify_all();
        latched
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
    /// Write handle per peer rank, `None` at this rank.
    writers: Vec<Option<Mutex<PeerStream>>>,
    /// One reader thread per peer; joined on drop.
    readers: Vec<JoinHandle<()>>,
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
pub(crate) fn encode_frame(tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&tag.to_le_bytes());
    f.extend_from_slice(&crc32_parts(&[&tag.to_le_bytes(), payload]).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

impl SocketTransport {
    /// Wraps established peer connections into a live endpoint and starts
    /// one reader thread per peer. `conns[p]` must be `Some` exactly for
    /// `p != rank`.
    ///
    /// # Errors
    ///
    /// Clearing a connection's read timeout, cloning its read handle or
    /// spawning its reader failed. Readers already started are shut down
    /// and joined first.
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
    ) -> io::Result<SocketTransport> {
        assert_eq!(conns.len(), world, "connection table sized for world");
        assert_eq!(stats.world_size(), world, "stats sized for world");
        for (p, c) in conns.iter().enumerate() {
            assert_eq!(
                c.is_some(),
                p != rank,
                "exactly the non-self slots must hold connections"
            );
        }
        let mut t = SocketTransport {
            shared: Arc::new(Shared {
                rank,
                world,
                stats,
                state: Mutex::new(RecvState {
                    inbox: Inbox::new(),
                    dead: vec![None; world],
                }),
                wake: Condvar::new(),
                round: AtomicU64::new(0),
            }),
            writers: Vec::with_capacity(world),
            readers: Vec::with_capacity(world),
        };
        for (peer, conn) in conns.into_iter().enumerate() {
            let Some(stream) = conn else {
                t.writers.push(None);
                continue;
            };
            // The bootstrap bounds its handshake reads; a reader that kept
            // that bound would take a healthy but idle link down.
            stream.set_read_timeout(None)?;
            let reader = stream.try_clone()?;
            t.writers.push(Some(Mutex::new(stream)));
            let shared = Arc::clone(&t.shared);
            t.readers.push(
                std::thread::Builder::new()
                    .name(format!("gluon-sock-{rank}-{peer}"))
                    .spawn(move || read_frames(&shared, peer, reader))?,
            );
        }
        Ok(t)
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
        if let Some(err) = self.shared.lock().dead[dst] {
            // The peer's connection is gone: nothing sent now can arrive.
            return Err(err);
        }
        let frame = encode_frame(tag, &payload);
        let written = self.writers[dst]
            .as_ref()
            .expect("a stream to every peer")
            .lock()
            .expect("socket stream lock")
            .write_all(&frame);
        match written {
            Ok(()) => {
                self.shared.stats.record_socket_frame_sent();
                Ok(())
            }
            Err(_) => Err(self.shared.mark_dead(dst)),
        }
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.shared.world, "source rank out of range");
        let mut st = self.shared.lock();
        loop {
            // Buffered data outranks failure: frames the peer sent before
            // dying are still delivered in order.
            if let Some((_, payload)) = st.inbox.take(Some(src), tag) {
                return Ok(payload);
            }
            if let Some(err) = st.dead[src] {
                return Err(err);
            }
            st = self.shared.wake.wait(st).expect("socket state lock");
        }
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        let mut st = self.shared.lock();
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
            st = self.shared.wake.wait(st).expect("socket state lock");
        }
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        let taken = self.shared.lock().inbox.take(None, tag);
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
    /// Every frame a send wrote is already in the kernel; shutting both
    /// directions down sends each peer EOF behind those frames and ends
    /// every reader's blocking read.
    fn drop(&mut self) {
        for writer in self.writers.iter_mut().flatten() {
            let stream = writer.get_mut().unwrap_or_else(PoisonError::into_inner);
            let _ = stream.shutdown(Shutdown::Both);
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// A peer's reader thread: files `peer`'s frames into the inbox until EOF,
/// a socket error, a short payload or a frame that fails its CRC, then
/// latches the peer's death. Every frame filed before the latch is taken
/// ahead of it, so a receiver sees the peer's last frames before
/// `PeerDown`.
fn read_frames(shared: &Shared, peer: usize, mut stream: PeerStream) {
    let mut header = [0u8; FRAME_HEADER];
    while stream.read_exact(&mut header).is_ok() {
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let (len, tag, crc) = (word(0), word(4), word(8));
        let mut payload = Vec::with_capacity((len as usize).min(READ_RESERVE));
        match (&mut stream).take(u64::from(len)).read_to_end(&mut payload) {
            Ok(n) if n == len as usize => {}
            _ => break,
        }
        if crc32_parts(&[&tag.to_le_bytes(), &payload]) != crc {
            // A stream transport should never corrupt, and a stream that
            // did cannot be trusted past this frame: the peer is down.
            break;
        }
        shared.stats.record_socket_frame_received();
        shared.file(peer, tag, Bytes::from(payload));
    }
    shared.mark_dead(peer);
    // Whatever ended the stream, the peer sees this end close too.
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank 0 of a two-host endpoint whose peer is the far end of a
    /// `UnixStream` pair that the test drives by hand; `ours` is given
    /// `timeout` as its read timeout first, as the bootstrap does.
    fn endpoint_with_raw_peer(timeout: Option<Duration>) -> (SocketTransport, UnixStream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        ours.set_read_timeout(timeout).expect("read timeout");
        let t = SocketTransport::from_conns(
            0,
            2,
            vec![None, Some(PeerStream::Unix(ours))],
            NetStats::new(2),
        )
        .expect("endpoint");
        (t, theirs)
    }

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
        )
        .expect("endpoint");
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
    fn an_idle_link_outlives_the_handshake_timeout() {
        let (t, mut theirs) = endpoint_with_raw_peer(Some(Duration::from_millis(50)));
        std::thread::sleep(Duration::from_millis(200));
        theirs.write_all(&encode_frame(3, b"late")).expect("write");
        assert_eq!(&t.try_recv(1, 3).expect("the late frame")[..], b"late");
    }

    #[test]
    fn a_header_claiming_more_than_arrives_takes_the_peer_down() {
        let (t, mut theirs) = endpoint_with_raw_peer(None);
        let mut lie = u32::MAX.to_le_bytes().to_vec();
        lie.extend_from_slice(&5u32.to_le_bytes());
        lie.extend_from_slice(&0u32.to_le_bytes());
        lie.extend_from_slice(&[7u8; 10]);
        theirs.write_all(&lie).expect("write");
        drop(theirs);
        let t = Arc::new(t);
        let (done, finished) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&t);
        std::thread::spawn(move || {
            let _ = done.send(waiter.try_recv(1, 5));
        });
        assert_eq!(
            finished.recv_timeout(Duration::from_secs(10)),
            Ok(Err(NetError::PeerDown { peer: 1, round: 0 }))
        );
        assert_eq!(t.try_recv_any_now(5), Ok(None));
        assert_eq!(t.stats().socket_frames_received(), 0);
    }

    #[test]
    fn zero_length_frames_are_legal() {
        let f = encode_frame(0, b"");
        assert_eq!(f.len(), FRAME_HEADER);
        assert_eq!(u32::from_le_bytes(f[0..4].try_into().unwrap()), 0);
    }
}
