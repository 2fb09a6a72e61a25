//! Point-to-point message transport.
//!
//! [`Transport`] is the narrow waist the rest of the workspace programs
//! against — the role MPI/LCI play in the paper (Figure 1 shows Gluon
//! sitting on "Network (LCI/MPI)"). The only implementation here is the
//! in-memory [`MemoryTransport`], which simulates a cluster with one OS
//! thread per host; a real MPI binding would slot in behind the same trait.
//!
//! Matching semantics mirror MPI two-sided messaging: a receive names a
//! `(source, tag)` pair, messages between a given pair of hosts with the
//! same tag are delivered in FIFO order, and messages with different tags
//! may be consumed out of order (they are buffered until asked for).

use crate::error::NetError;
use crate::stats::NetStats;
use bytes::Bytes;
use crossbeam::channel::{unbounded_with_capacity, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a cancel-aware blocking receive sleeps between checks of the
/// cluster's [`CancelToken`]. Chosen well below any failure-detector
/// threshold so cancellation latency is never the bottleneck.
const CANCEL_POLL: Duration = Duration::from_millis(1);

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

type Packet = (usize, u32, Bytes);

/// One host's endpoint of the in-memory cluster transport.
///
/// Created in bulk by [`MemoryTransport::cluster`]; every endpoint can reach
/// every other through unbounded FIFO channels.
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
    world_size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Messages that arrived but did not match the pending `recv`.
    stash: Mutex<Stash<(usize, u32), Bytes>>,
    /// Stash for `recv_any`, keyed by tag only.
    stash_any: Mutex<Stash<u32, (usize, Bytes)>>,
    stats: NetStats,
    /// Shared abort flag; one token per cluster.
    cancel: CancelToken,
}

/// One stash index plus a free-list of emptied queues.
///
/// Sync tags cycle through a large window (and collective tags through
/// epochs), so map keys keep appearing and disappearing far past any
/// warm-up. Removing an emptied queue keeps the map small, but dropping
/// it would allocate a fresh `VecDeque` ring for every future message;
/// parking the capacity-retaining husk on `free` and handing it back out
/// on the next insert keeps steady-state filing allocation-free. Both
/// the map's table and a stock of queues are reserved at construction:
/// the number of *simultaneously* pending keys depends on how far peers
/// drift apart, which peaks long after any warm-up, so a first-touch
/// high-water must not cost an allocation mid-run.
#[derive(Debug)]
pub(crate) struct Stash<K, T> {
    pub(crate) map: HashMap<K, VecDeque<T>>,
    free: Vec<VecDeque<T>>,
}

/// Map-table slots reserved per stash (distinct simultaneously pending
/// `(src, tag)` keys; drift bounds this at a few per peer).
const STASH_KEY_RESERVE: usize = 64;
/// Pre-stocked queues on the free-list, each with a few message slots.
const STASH_QUEUE_RESERVE: usize = 32;
/// Message slots per pre-stocked queue (per-key queues are nearly always
/// length 1: sync tags encode the round, so a key collects one message).
const STASH_QUEUE_DEPTH: usize = 8;

impl<K: Eq + std::hash::Hash, T> Stash<K, T> {
    pub(crate) fn new() -> Self {
        let mut free = Vec::with_capacity(STASH_QUEUE_RESERVE);
        free.resize_with(STASH_QUEUE_RESERVE, || {
            VecDeque::with_capacity(STASH_QUEUE_DEPTH)
        });
        Stash {
            map: HashMap::with_capacity(STASH_KEY_RESERVE),
            free,
        }
    }

    /// Appends `item` to `key`'s queue, reviving a recycled queue (or, on
    /// a cold pool, allocating one) if the key is new.
    pub(crate) fn push(&mut self, key: K, item: T) {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push_back(item),
            std::collections::hash_map::Entry::Vacant(e) => {
                let mut q = self.free.pop().unwrap_or_default();
                q.push_back(item);
                e.insert(q);
            }
        }
    }

    /// Drops `key`'s (empty) queue from the map, parking its storage on
    /// the free-list.
    pub(crate) fn retire(&mut self, key: &K) {
        if let Some(q) = self.map.remove(key) {
            debug_assert!(q.is_empty(), "retired a non-empty stash queue");
            self.free.push(q);
        }
    }
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
        let mut senders = Vec::with_capacity(world_size);
        let mut receivers = Vec::with_capacity(world_size);
        for _ in 0..world_size {
            // Reserved up front: a host's inbound backlog (packets sent but
            // not yet pumped) peaks when a receiver lags its peers, which
            // happens mid-run — growing the ring then would allocate in
            // what must be an allocation-free steady state.
            let (tx, rx) = unbounded_with_capacity::<Packet>(1024);
            senders.push(tx);
            receivers.push(rx);
        }
        let cancel = CancelToken::new();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| MemoryTransport {
                rank,
                world_size,
                senders: senders.clone(),
                receiver,
                stash: Mutex::new(Stash::new()),
                stash_any: Mutex::new(Stash::new()),
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

    /// Pulls one packet from the wire into the appropriate stash, waking up
    /// periodically to check the cluster's [`CancelToken`] instead of
    /// blocking indefinitely, so a failed sibling host can abort this one
    /// promptly. A disconnected channel (every other endpoint dropped) is
    /// reported as [`NetError::Cancelled`] too: nothing can ever arrive.
    fn pump_cancellable(&self) -> Result<(), NetError> {
        loop {
            // Drain without blocking first so an already-delivered packet
            // is never delayed by the cancellation check.
            if let Ok(packet) = self.receiver.try_recv() {
                self.file(packet);
                return Ok(());
            }
            if let Some(err) = self.cancelled() {
                return Err(err);
            }
            match self.receiver.recv_timeout(CANCEL_POLL) {
                Ok(packet) => {
                    self.file(packet);
                    return Ok(());
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Cancelled);
                }
            }
        }
    }

    /// Files one wire packet into the twin stash indexes. A packet serves
    /// either a `(src, tag)` recv or a tag-only recv_any; whichever recv
    /// runs first takes it, removing it from the twin index.
    fn file(&self, (src, tag, payload): Packet) {
        self.stash.lock().push((src, tag), payload.clone());
        self.stash_any.lock().push(tag, (src, payload));
    }

    fn take_exact(&self, src: usize, tag: u32) -> Option<Bytes> {
        let mut stash = self.stash.lock();
        let queue = stash.map.get_mut(&(src, tag))?;
        let payload = queue.pop_front()?;
        if queue.is_empty() {
            stash.retire(&(src, tag));
        }
        // Remove the twin entry from the any-index.
        let mut any = self.stash_any.lock();
        if let Some(q) = any.map.get_mut(&tag) {
            if let Some(pos) = q
                .iter()
                .position(|(s, p)| *s == src && Bytes::ptr_eq_len(p, &payload))
            {
                q.remove(pos);
            }
            if q.is_empty() {
                any.retire(&tag);
            }
        }
        Some(payload)
    }

    fn take_any(&self, tag: u32) -> Option<(usize, Bytes)> {
        let mut any = self.stash_any.lock();
        let queue = any.map.get_mut(&tag)?;
        let (src, payload) = queue.pop_front()?;
        if queue.is_empty() {
            any.retire(&tag);
        }
        drop(any);
        let mut stash = self.stash.lock();
        if let Some(q) = stash.map.get_mut(&(src, tag)) {
            if let Some(pos) = q.iter().position(|p| Bytes::ptr_eq_len(p, &payload)) {
                q.remove(pos);
            }
            if q.is_empty() {
                stash.retire(&(src, tag));
            }
        }
        Some((src, payload))
    }
}

/// Identity comparison helper for de-duplicating the two stash indexes.
pub(crate) trait PtrEqLen {
    fn ptr_eq_len(a: &Bytes, b: &Bytes) -> bool;
}

impl PtrEqLen for Bytes {
    /// True when `a` and `b` are the same buffer (pointer and length).
    fn ptr_eq_len(a: &Bytes, b: &Bytes) -> bool {
        a.as_ptr() == b.as_ptr() && a.len() == b.len()
    }
}

impl Transport for MemoryTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world_size
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        assert!(dst < self.world_size, "destination rank out of range");
        self.stats
            .record_send(self.rank, dst, tag, payload.len() as u64);
        // A send to a departed endpoint vanishes silently, like a packet to
        // a crashed host on a real network. This matters during teardown: a
        // reliability layer may still be retransmitting to a peer whose
        // thread already finished and dropped its endpoint.
        let _ = self.senders[dst].send((self.rank, tag, payload));
        Ok(())
    }

    /// Cancel-aware [`Transport::try_recv`]: blocks until a matching
    /// message arrives or the cluster's [`CancelToken`] trips.
    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.world_size, "source rank out of range");
        loop {
            if let Some(payload) = self.take_exact(src, tag) {
                return Ok(payload);
            }
            self.pump_cancellable()?;
        }
    }

    /// Cancel-aware [`Transport::try_recv_any`].
    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        loop {
            if let Some((src, payload)) = self.take_any(tag) {
                return Ok(Envelope { src, tag, payload });
            }
            self.pump_cancellable()?;
        }
    }

    fn cancelled(&self) -> Option<NetError> {
        self.cancel.is_tripped().then_some(NetError::Cancelled)
    }

    fn try_recv_any_timeout(&self, tag: u32, timeout: Duration) -> Result<Envelope, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Drain everything already on the wire first, so that a
            // zero-timeout call still observes packets that have arrived —
            // the reliability layer polls this way to collect ACKs without
            // waiting.
            while let Ok(packet) = self.receiver.try_recv() {
                self.file(packet);
            }
            if let Some((src, payload)) = self.take_any(tag) {
                return Ok(Envelope { src, tag, payload });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            match self.receiver.recv_timeout(deadline - now) {
                Ok(packet) => self.file(packet),
                // Timed out, or every peer endpoint is gone: either way
                // nothing more can arrive within the deadline, which is
                // silence, not failure.
                Err(_) => return Err(NetError::Timeout),
            }
        }
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
    fn recv_any_and_recv_share_one_message_pool() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        send(&a, 1, 3, b"only");
        let env = b.try_recv_any(3).expect("delivered");
        assert_eq!(env.src, 0);
        // The message must not be receivable twice.
        send(&a, 1, 3, b"next");
        assert_eq!(&recv(&b, 0, 3)[..], b"next");
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

    /// The sync schedule's drain hook: silence is `Ok(None)`, an
    /// already-arrived frame is returned without blocking, and the
    /// message pool is shared with the blocking receives.
    #[test]
    fn recv_any_now_polls_without_blocking() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        assert_eq!(b.try_recv_any_now(4).expect("poll"), None);
        send(&a, 1, 4, b"early");
        let env = b.try_recv_any_now(4).expect("poll").expect("buffered");
        assert_eq!(env.src, 0);
        assert_eq!(&env.payload[..], b"early");
        assert_eq!(b.try_recv_any_now(4).expect("poll"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_bad_rank_panics() {
        let eps = MemoryTransport::cluster(1);
        let _ = eps[0].try_send(3, 0, Bytes::new());
    }
}
