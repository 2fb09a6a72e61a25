//! Point-to-point message transport.
//!
//! [`Transport`] is the narrow waist the rest of the workspace programs
//! against — the role MPI/LCI play in the paper (Figure 1 shows Gluon
//! sitting on "Network (LCI/MPI)"). This module holds the in-memory
//! [`MemoryTransport`], which simulates a cluster with one OS thread per
//! host; [`crate::SocketTransport`] puts separate processes behind the same
//! trait, and [`crate::ReliableTransport`] / [`crate::FaultyTransport`] wrap
//! either.
//!
//! Matching semantics mirror MPI two-sided messaging: a receive names a
//! `(source, tag)` pair, messages between a given pair of hosts with the
//! same tag are delivered in FIFO order, and messages with different tags
//! may be consumed out of order (they are buffered until asked for).

use crate::error::NetError;
use crate::inbox::Inbox;
use crate::stats::NetStats;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// How long a parked blocking receive sleeps between checks of the
/// cluster's [`CancelToken`]. Chosen well below any failure-detector
/// threshold so cancellation latency is never the bottleneck.
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
/// the same token. When any host fails with a typed error, tripping the
/// token makes every sibling's blocking receive return
/// [`NetError::Cancelled`] promptly instead of waiting for traffic that
/// will never come.
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
/// Real backends fail: a socket peer dies mid-round, a retransmission
/// budget runs out, a sibling host trips the cluster's cancellation token.
/// The `try_*` methods are therefore the *required* surface every
/// implementation provides, and every runtime call site — the Gluon sync
/// paths, the collectives, the reliability layer — programs against them.
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
    /// A typed [`NetError`] when the backend knows the send cannot succeed:
    /// the reliability layer reports a peer that exhausted its
    /// retransmission budget, a socket backend reports a broken pipe.
    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError>;

    /// Blocks until a message from `src` with tag `tag` arrives and returns
    /// its payload.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`] when the wait cannot complete: the source peer
    /// is down, the cluster was cancelled, or this host was crashed by
    /// fault injection.
    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError>;

    /// Blocks until a message with tag `tag` arrives from *any* host.
    ///
    /// # Errors
    ///
    /// As [`Transport::try_recv`].
    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError>;

    /// Waits up to `timeout` for a message with tag `tag` from any host.
    ///
    /// Expiry returns the typed [`NetError::Timeout`] — uniformly across
    /// backends, never a sentinel value — which callers treat as observed
    /// silence, not failure. A zero timeout polls: already-buffered
    /// messages are still returned. This is the primitive that lets a
    /// reliability layer interleave retransmission timers with receiving,
    /// so every implementation must provide it.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry; other [`NetError`]s as
    /// [`Transport::try_recv`].
    fn try_recv_any_timeout(&self, tag: u32, timeout: Duration) -> Result<Envelope, NetError>;

    /// Non-blocking poll for a message with tag `tag` from any host:
    /// `Ok(None)` when nothing is buffered right now.
    ///
    /// This is the sync schedule's drain hook — called between
    /// per-peer sends to pull already-arrived frames off the wire and
    /// decode them eagerly without ever blocking the send side. The
    /// default delegates to [`Transport::try_recv_any_timeout`] with a
    /// zero timeout and maps the typed expiry to `Ok(None)`; backends
    /// with a cheaper pure poll may override it.
    ///
    /// # Errors
    ///
    /// As [`Transport::try_recv`] — every [`NetError`] other than the
    /// absorbed [`NetError::Timeout`] propagates.
    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        match self.try_recv_any_timeout(tag, Duration::ZERO) {
            Ok(env) => Ok(Some(env)),
            Err(NetError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reports the sync-phase index the application has reached.
    ///
    /// The Gluon runtime ticks this once per sync phase. Wrappers must
    /// forward it inward; implementations use it to stamp errors with the
    /// round they happened in ([`crate::ReliableTransport`]) and to fire
    /// round-triggered fault injection ([`crate::FaultyTransport`]). The
    /// default is a no-op.
    fn note_round(&self, round: u64) {
        let _ = round;
    }

    /// Returns the terminal error this endpoint should abort with, if any.
    ///
    /// Checked inside fallible blocking loops: a tripped [`CancelToken`]
    /// yields [`NetError::Cancelled`], an injected crash yields
    /// [`NetError::HostCrashed`]. Wrappers must forward inward. The default
    /// (`None`) means "keep blocking".
    fn cancelled(&self) -> Option<NetError> {
        None
    }

    /// Communication counters for the whole cluster.
    fn stats(&self) -> &NetStats;
}

/// One endpoint's receive side, reachable by every sender of its cluster.
#[derive(Debug)]
struct Mailbox {
    state: Mutex<MailState>,
    /// Signalled by a sender that found a receiver parked.
    arrived: Condvar,
    /// Messages ever filed here: bumped under the lock, polled without it
    /// by a receiver that has not parked yet.
    arrivals: AtomicU64,
}

#[derive(Debug)]
struct MailState {
    inbox: Inbox,
    /// Receivers blocked on `arrived`; a sender that reads 0 skips the
    /// wake system call.
    parked: usize,
    /// Set when the owning endpoint is dropped; later sends are discarded.
    closed: bool,
}

/// What the endpoints of one cluster share.
#[derive(Debug)]
struct Wire {
    /// In rank order.
    mailboxes: Vec<Mailbox>,
    /// Endpoints not yet dropped.
    alive: AtomicUsize,
}

/// One host's endpoint of the in-memory cluster transport.
///
/// Created in bulk by [`MemoryTransport::cluster`]. A send files the
/// message straight into the destination's inbox, under that inbox's lock;
/// a receive that finds nothing polls the inbox's arrival counter, yielding
/// its core between polls, then parks on the inbox's condvar (DESIGN.md,
/// "The in-memory hand-off").
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
    wire: Arc<Wire>,
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
            }),
            arrived: Condvar::new(),
            arrivals: AtomicU64::new(0),
        };
        let wire = Arc::new(Wire {
            mailboxes: (0..world_size).map(mailbox).collect(),
            alive: AtomicUsize::new(world_size),
        });
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

    /// Takes the oldest message under `tag` (from `src`, if named), waiting
    /// for one in two stages: poll the arrival counter without the lock,
    /// offering the core between polls, then park on the condvar. Without
    /// a `deadline` the parked stage wakes every [`CANCEL_POLL`] to look for
    /// a tripped [`CancelToken`] or a cluster whose other endpoints are all
    /// gone — nothing can ever arrive — and reports either as
    /// [`NetError::Cancelled`]; with one, expiry is [`NetError::Timeout`]
    /// and nothing else ends the wait.
    fn recv(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Envelope, NetError> {
        let mail = &self.wire.mailboxes[self.rank];
        let envelope = |(src, payload)| Envelope { src, tag, payload };
        // Read before the look it guards: a message filed after the look
        // moves the counter past `seen`.
        let mut seen = mail.arrivals.load(Ordering::Acquire);
        if let Some(m) = mail.state.lock().inbox.take(src, tag) {
            return Ok(envelope(m));
        }
        for _ in 0..YIELD_POLLS {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(NetError::Timeout);
            }
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
            // Buffered data outranks cancellation and expiry.
            if let Some(m) = st.inbox.take(src, tag) {
                return Ok(envelope(m));
            }
            let wait = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(NetError::Timeout);
                    }
                    left
                }
                None => {
                    if self.cancel.is_tripped() || self.alone() {
                        return Err(NetError::Cancelled);
                    }
                    CANCEL_POLL
                }
            };
            st.parked += 1;
            st = mail
                .arrived
                .wait_timeout(st, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.parked -= 1;
        }
    }

    /// Whether every other endpoint of a multi-host cluster was dropped.
    fn alone(&self) -> bool {
        self.world_size() > 1 && self.wire.alive.load(Ordering::Acquire) == 1
    }
}

impl Drop for MemoryTransport {
    fn drop(&mut self) {
        let mut st = self.wire.mailboxes[self.rank].state.lock();
        st.closed = true;
        st.inbox.clear();
        drop(st);
        self.wire.alive.fetch_sub(1, Ordering::Release);
    }
}

impl Transport for MemoryTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.wire.mailboxes.len()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        assert!(dst < self.world_size(), "destination rank out of range");
        self.stats.record_send(self.rank, dst, payload.len() as u64);
        let mail = &self.wire.mailboxes[dst];
        let mut st = mail.state.lock();
        // A send to a departed endpoint vanishes silently, like a packet to
        // a crashed host on a real network. This matters during teardown: a
        // reliability layer may still be retransmitting to a peer whose
        // thread already finished and dropped its endpoint.
        if st.closed {
            return Ok(());
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

    /// Cancel-aware [`Transport::try_recv`]: blocks until a matching
    /// message arrives or the cluster's [`CancelToken`] trips.
    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.world_size(), "source rank out of range");
        self.recv(Some(src), tag, None).map(|env| env.payload)
    }

    /// Cancel-aware [`Transport::try_recv_any`].
    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        self.recv(None, tag, None)
    }

    fn cancelled(&self) -> Option<NetError> {
        self.cancel.is_tripped().then_some(NetError::Cancelled)
    }

    /// A zero timeout still observes what has arrived — the reliability
    /// layer polls this way to collect ACKs without waiting. Every peer
    /// endpoint being gone is silence like any other: the wait runs out.
    fn try_recv_any_timeout(&self, tag: u32, timeout: Duration) -> Result<Envelope, NetError> {
        self.recv(None, tag, Some(Instant::now() + timeout))
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
    fn timeout_expiry_is_typed() {
        let eps = MemoryTransport::cluster(2);
        assert_eq!(
            eps[0]
                .try_recv_any_timeout(9, Duration::from_millis(1))
                .unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_bad_rank_panics() {
        let eps = MemoryTransport::cluster(1);
        let _ = eps[0].try_send(3, 0, Bytes::new());
    }
}
