//! Point-to-point message transport.
//!
//! [`Transport`] is the narrow waist the rest of the workspace programs
//! against — the role MPI/LCI play in the paper (Figure 1 shows Gluon
//! sitting on "Network (LCI/MPI)"). This module holds the in-memory
//! [`MemoryTransport`], which simulates a cluster with one OS thread per
//! host; [`crate::SocketTransport`] puts separate processes behind the same
//! trait, and [`crate::JitterTransport`] / [`crate::FaultyTransport`] wrap
//! either.
//!
//! Matching semantics mirror MPI two-sided messaging: a receive names a
//! `(source, tag)` pair, messages between a given pair of hosts with the
//! same tag are delivered in FIFO order, and messages with different tags
//! may be consumed out of order (they are buffered until asked for).
//!
//! # Peer death
//!
//! Both wires are reliable FIFO streams, so the one fault a peer can show
//! is death, and both report it alike. When an endpoint goes away (a
//! dropped [`MemoryTransport`], a socket at EOF) every peer latches
//! [`NetError::PeerDown`], stamped with the peer's own last
//! [`Transport::note_round`]. From then on a named receive from the dead
//! host delivers what it sent before dying and then fails, a blocking
//! any-source receive fails once nothing is buffered, and a send to it
//! fails. A host that *finished* its program leaves quietly instead: the
//! cluster runner marks it before its endpoint drops, because a peer may
//! still be draining what it sent.

use crate::error::NetError;
use crate::inbox::Inbox;
use crate::stats::NetStats;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

/// How long a parked blocking receive sleeps between checks of the
/// cluster's [`CancelToken`]. A peer's death wakes it at once; the token
/// has no one to wake it.
const CANCEL_POLL: Duration = Duration::from_millis(1);

/// Polls of its inbox's arrival counter, a `yield_now` before each, that an
/// empty-handed receive makes before it parks. Alone on its core a yield
/// returns at once (about 0.25 µs here), so the stage lasts about as long
/// as the futex wake that parking would cost (20–40 µs across cores);
/// oversubscribed, every yield runs another host's thread instead. There
/// is no busy-wait stage ahead of it: DESIGN.md, "The in-memory hand-off",
/// has the measurement.
const YIELD_POLLS: u32 = 128;

/// A shared abort flag for one simulated cluster.
///
/// Every endpoint created by [`MemoryTransport::cluster`] holds a clone of
/// the same token. When a host fails with a typed error that its peers
/// cannot observe on the wire, tripping the token makes every sibling's
/// blocking receive return [`NetError::Cancelled`] promptly instead of
/// waiting for traffic that will never come.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    tripped: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token; every clone observes it. Idempotent.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether any clone has been tripped.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }
}

/// A received message: sending rank plus payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Rank of the sending host.
    pub src: usize,
    /// Multiplexing tag chosen by the sender.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Two-sided point-to-point messaging between the hosts of a cluster.
///
/// All methods may be called concurrently from multiple threads of one host.
///
/// # Fallibility is the primary contract
///
/// Real backends fail: a peer dies mid-round, a sibling host trips the
/// cluster's cancellation token, an injected crash kills this host. Every
/// operation therefore returns a typed [`NetError`], and every runtime
/// call site — the Gluon sync paths, the collectives — propagates it. The
/// module docs state what each operation does once a peer is dead.
pub trait Transport: Send + Sync {
    /// This host's rank in `0..world_size()`.
    fn rank(&self) -> usize;

    /// Number of hosts in the cluster.
    fn world_size(&self) -> usize;

    /// Sends `payload` to host `dst` with multiplexing tag `tag`.
    ///
    /// Sends are asynchronous and never block for peer progress (they may
    /// copy into a local queue). Sending to self is allowed (the message is
    /// delivered through the normal path).
    ///
    /// # Errors
    ///
    /// [`NetError::PeerDown`] once `dst` is known dead; a wrapper may add
    /// its own (an injected crash's [`NetError::HostCrashed`]).
    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError>;

    /// Blocks until a message from `src` with tag `tag` arrives and returns
    /// its payload.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`] when the wait cannot complete: `src` is dead
    /// and nothing it sent under `tag` is left, the cluster was cancelled,
    /// or this host was crashed by fault injection.
    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError>;

    /// Blocks until a message with tag `tag` arrives from *any* host.
    ///
    /// # Errors
    ///
    /// As [`Transport::try_recv`], failing once *any* peer is dead and
    /// nothing under `tag` is buffered: the caller cannot know whether the
    /// frame it waits for was owed by the dead peer.
    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError>;

    /// Non-blocking poll for a message with tag `tag` from any host:
    /// `Ok(None)` when nothing is buffered right now.
    ///
    /// This is the sync schedule's drain hook — called between
    /// per-peer sends to pull already-arrived frames off the wire and
    /// decode them eagerly without ever blocking the send side. It looks
    /// at the buffer only; a dead peer surfaces at the next blocking
    /// receive.
    ///
    /// # Errors
    ///
    /// Only a wrapper's own (an injected crash's [`NetError::HostCrashed`]).
    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError>;

    /// Reports the sync-phase index the application has reached.
    ///
    /// The Gluon runtime ticks this once per sync phase. Wrappers must
    /// forward it inward; backends stamp [`NetError::PeerDown`] with it,
    /// and [`crate::FaultyTransport`] fires round-triggered crashes from
    /// it. The default is a no-op.
    fn note_round(&self, round: u64) {
        let _ = round;
    }

    /// Communication counters for the whole cluster.
    fn stats(&self) -> &NetStats;
}

/// One endpoint's receive side, reachable by every sender of its cluster.
#[derive(Debug)]
struct Mailbox {
    state: Mutex<MailState>,
    /// Signalled by a sender that found a receiver parked, and by a
    /// departing peer.
    arrived: Condvar,
    /// Messages ever filed here: bumped under the lock, polled without it
    /// by a receiver that has not parked yet.
    arrivals: AtomicU64,
    /// The owner's last [`Transport::note_round`]: the round a peer's death
    /// is stamped with here.
    round: AtomicU64,
    /// Set when the owner finished its program: its endpoint's drop is
    /// then a departure, not a death.
    finished: AtomicBool,
}

#[derive(Debug)]
struct MailState {
    inbox: Inbox,
    /// Receivers blocked on `arrived`; a sender that reads 0 skips the
    /// wake system call.
    parked: usize,
    /// Set when the owning endpoint is dropped; later sends to it fail.
    closed: bool,
    /// Per peer rank, the [`NetError::PeerDown`] latched when that peer's
    /// endpoint was dropped.
    dead: Vec<Option<NetError>>,
}

/// One host's endpoint of the in-memory cluster transport.
///
/// Created in bulk by [`MemoryTransport::cluster`]. A send files the
/// message straight into the destination's inbox, under that inbox's lock;
/// a receive that finds nothing polls the inbox's arrival counter, yielding
/// its core between polls, then parks on the inbox's condvar (DESIGN.md,
/// "The in-memory hand-off"). Dropping an endpoint is its host's death:
/// every peer latches [`NetError::PeerDown`] (module docs).
///
/// # Examples
///
/// ```
/// use gluon_net::{MemoryTransport, Transport};
/// use bytes::Bytes;
///
/// let mut eps = MemoryTransport::cluster(2);
/// let b = eps.pop().expect("endpoint for host 1");
/// let a = eps.pop().expect("endpoint for host 0");
/// a.try_send(1, 7, Bytes::from_static(b"hi")).unwrap();
/// assert_eq!(&b.try_recv(0, 7).unwrap()[..], b"hi");
/// ```
#[derive(Debug)]
pub struct MemoryTransport {
    rank: usize,
    /// Every endpoint's mailbox, in rank order.
    wire: Arc<[Mailbox]>,
    stats: NetStats,
    /// Shared abort flag; one token per cluster.
    cancel: CancelToken,
}

impl MemoryTransport {
    /// Creates the endpoints of a fully connected in-memory cluster of
    /// `world_size` hosts, returned in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero.
    pub fn cluster(world_size: usize) -> Vec<MemoryTransport> {
        Self::cluster_with_stats(world_size, NetStats::new(world_size))
    }

    /// As [`MemoryTransport::cluster`], with caller-provided counters (e.g.
    /// history-recording ones).
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero or disagrees with `stats`.
    pub fn cluster_with_stats(world_size: usize, stats: NetStats) -> Vec<MemoryTransport> {
        assert!(world_size > 0, "cluster needs at least one host");
        assert_eq!(
            stats.world_size(),
            world_size,
            "stats sized for a different cluster"
        );
        let mailbox = |_| Mailbox {
            state: Mutex::new(MailState {
                inbox: Inbox::new(),
                parked: 0,
                closed: false,
                dead: vec![None; world_size],
            }),
            arrived: Condvar::new(),
            arrivals: AtomicU64::new(0),
            round: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        };
        let wire: Arc<[Mailbox]> = (0..world_size).map(mailbox).collect();
        let cancel = CancelToken::new();
        (0..world_size)
            .map(|rank| MemoryTransport {
                rank,
                wire: Arc::clone(&wire),
                stats: stats.clone(),
                cancel: cancel.clone(),
            })
            .collect()
    }

    /// A clone of this cluster's shared [`CancelToken`]. Every endpoint of
    /// one [`MemoryTransport::cluster`] call returns clones of the same
    /// token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// A handle with which the cluster runner, once this endpoint is
    /// wrapped and out of its reach, can mark the host as finished.
    pub(crate) fn departure(&self) -> Departure {
        Departure {
            wire: Arc::clone(&self.wire),
            rank: self.rank,
        }
    }

    /// Takes the oldest message under `tag` (from `src`, if named), waiting
    /// for one in two stages: poll the arrival counter without the lock,
    /// offering the core between polls, then park on the condvar. Only the
    /// parked stage looks for failure, once nothing matching is buffered:
    /// a tripped [`CancelToken`] as [`NetError::Cancelled`], else a latched
    /// [`NetError::PeerDown`] (of `src`, or of any peer when `src` is
    /// `None`).
    fn recv(&self, src: Option<usize>, tag: u32) -> Result<Envelope, NetError> {
        let mail = &self.wire[self.rank];
        let envelope = |(src, payload)| Envelope { src, tag, payload };
        // Read before the look it guards: a message filed after the look
        // moves the counter past `seen`.
        let mut seen = mail.arrivals.load(Ordering::Acquire);
        if let Some(m) = mail.state.lock().inbox.take(src, tag) {
            return Ok(envelope(m));
        }
        for _ in 0..YIELD_POLLS {
            std::thread::yield_now();
            let now = mail.arrivals.load(Ordering::Acquire);
            if now != seen {
                seen = now;
                if let Some(m) = mail.state.lock().inbox.take(src, tag) {
                    return Ok(envelope(m));
                }
            }
        }
        let mut st = mail.state.lock();
        loop {
            // Buffered data outranks failure: frames a peer sent before
            // dying are still delivered in order.
            if let Some(m) = st.inbox.take(src, tag) {
                return Ok(envelope(m));
            }
            if self.cancel.is_tripped() {
                return Err(NetError::Cancelled);
            }
            let down = match src {
                Some(p) => st.dead[p],
                None => st.dead.iter().flatten().next().copied(),
            };
            if let Some(err) = down {
                return Err(err);
            }
            st.parked += 1;
            st = mail
                .arrived
                .wait_timeout(st, CANCEL_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.parked -= 1;
        }
    }
}

/// One endpoint's way out of its cluster ([`MemoryTransport::departure`]).
#[derive(Debug)]
pub(crate) struct Departure {
    wire: Arc<[Mailbox]>,
    rank: usize,
}

impl Departure {
    /// Marks the host as finished: when its endpoint drops, its peers are
    /// not told it died. A peer may still be draining what it sent, and an
    /// any-source receive fails once any peer is down.
    pub(crate) fn quietly(self) {
        self.wire[self.rank].finished.store(true, Ordering::Release);
    }
}

/// A dropped endpoint is a dead host: its unread mail is discarded, later
/// sends to it fail, and every peer latches [`NetError::PeerDown`] — the
/// same shapes a socket peer's EOF produces. A host the cluster runner
/// saw finish leaves without the latch (`Departure::quietly`).
impl Drop for MemoryTransport {
    fn drop(&mut self) {
        let mine = &self.wire[self.rank];
        let mut st = mine.state.lock();
        st.closed = true;
        st.inbox.clear();
        drop(st);
        if mine.finished.load(Ordering::Acquire) {
            return;
        }
        for (peer, mail) in self.wire.iter().enumerate() {
            if peer == self.rank {
                continue;
            }
            let down = NetError::PeerDown {
                peer: self.rank,
                round: mail.round.load(Ordering::Relaxed),
            };
            let mut st = mail.state.lock();
            st.dead[self.rank].get_or_insert(down);
            let wake = st.parked > 0;
            drop(st);
            if wake {
                mail.arrived.notify_all();
            }
        }
    }
}

impl Transport for MemoryTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.wire.len()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        assert!(dst < self.world_size(), "destination rank out of range");
        self.stats.record_send(self.rank, dst, payload.len() as u64);
        let mail = &self.wire[dst];
        let mut st = mail.state.lock();
        if st.closed {
            return Err(NetError::PeerDown {
                peer: dst,
                round: self.wire[self.rank].round.load(Ordering::Relaxed),
            });
        }
        st.inbox.file(self.rank, tag, payload);
        mail.arrivals.fetch_add(1, Ordering::Release);
        let wake = st.parked > 0;
        drop(st);
        if wake {
            mail.arrived.notify_all();
        }
        Ok(())
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.world_size(), "source rank out of range");
        self.recv(Some(src), tag).map(|env| env.payload)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        self.recv(None, tag)
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        let taken = self.wire[self.rank].state.lock().inbox.take(None, tag);
        Ok(taken.map(|(src, payload)| Envelope { src, tag, payload }))
    }

    fn note_round(&self, round: u64) {
        self.wire[self.rank].round.store(round, Ordering::Relaxed);
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn send(t: &MemoryTransport, dst: usize, tag: u32, payload: &'static [u8]) {
        t.try_send(dst, tag, Bytes::from_static(payload))
            .expect("memory send cannot fail");
    }

    fn recv(t: &MemoryTransport, src: usize, tag: u32) -> Bytes {
        t.try_recv(src, tag).expect("receive failed")
    }

    #[test]
    fn point_to_point_delivery() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        send(&a, 1, 1, b"x");
        assert_eq!(&recv(&b, 0, 1)[..], b"x");
    }

    #[test]
    fn fifo_per_tag() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        send(&a, 1, 1, b"first");
        send(&a, 1, 1, b"second");
        assert_eq!(&recv(&b, 0, 1)[..], b"first");
        assert_eq!(&recv(&b, 0, 1)[..], b"second");
    }

    #[test]
    fn different_tags_consumed_out_of_order() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        send(&a, 1, 1, b"one");
        send(&a, 1, 2, b"two");
        // Ask for tag 2 first; tag 1 must be stashed, not lost.
        assert_eq!(&recv(&b, 0, 2)[..], b"two");
        assert_eq!(&recv(&b, 0, 1)[..], b"one");
    }

    #[test]
    fn recv_any_takes_from_either_source() {
        let mut eps = MemoryTransport::cluster(3);
        let c = eps.pop().expect("three endpoints");
        let b = eps.pop().expect("three endpoints");
        let a = eps.pop().expect("three endpoints");
        send(&a, 2, 5, b"from a");
        send(&b, 2, 5, b"from b");
        let mut seen = vec![
            c.try_recv_any(5).expect("first").src,
            c.try_recv_any(5).expect("second").src,
        ];
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn self_send_works() {
        let mut eps = MemoryTransport::cluster(1);
        let a = eps.pop().expect("one endpoint");
        send(&a, 0, 0, b"me");
        assert_eq!(&recv(&a, 0, 0)[..], b"me");
    }

    #[test]
    fn cross_thread_ping_pong() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100u32 {
                    a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .expect("send");
                    let echo = recv(&a, 1, 1);
                    assert_eq!(&echo[..], &i.to_le_bytes());
                }
            });
            s.spawn(|| {
                for _ in 0..100 {
                    let m = recv(&b, 0, 0);
                    b.try_send(0, 1, m).expect("send");
                }
            });
        });
    }

    #[test]
    fn stats_count_payload_bytes() {
        let mut eps = MemoryTransport::cluster(2);
        let _b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        send(&a, 1, 0, b"12345");
        assert_eq!(a.stats().total_bytes(), 5);
        assert_eq!(a.stats().total_messages(), 1);
    }

    #[test]
    fn a_dropped_peer_is_down_after_its_frames() {
        let mut eps = MemoryTransport::cluster(3);
        let c = eps.pop().expect("three endpoints");
        let b = eps.pop().expect("three endpoints");
        let a = eps.pop().expect("three endpoints");
        a.note_round(4);
        send(&b, 0, 1, b"last words");
        drop(b);
        let down = NetError::PeerDown { peer: 1, round: 4 };
        assert_eq!(&recv(&a, 1, 1)[..], b"last words");
        assert_eq!(a.try_recv(1, 1), Err(down));
        assert_eq!(a.try_recv_any(1), Err(down));
        assert_eq!(a.try_recv_any_now(1), Ok(None));
        assert_eq!(a.try_send(1, 1, Bytes::new()), Err(down));
        // A live peer's stream is unaffected.
        send(&c, 0, 2, b"alive");
        assert_eq!(&recv(&a, 2, 2)[..], b"alive");
    }

    #[test]
    fn a_parked_receiver_wakes_when_its_peer_drops() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        thread::scope(|s| {
            let waiter = s.spawn(|| a.try_recv(1, 0));
            thread::sleep(Duration::from_millis(20));
            drop(b);
            assert_eq!(
                waiter.join().expect("no panic"),
                Err(NetError::PeerDown { peer: 1, round: 0 })
            );
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_bad_rank_panics() {
        let eps = MemoryTransport::cluster(1);
        let _ = eps[0].try_send(3, 0, Bytes::new());
    }
}
