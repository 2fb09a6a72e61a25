//! Communication statistics.
//!
//! The Gluon paper's headline evaluation metric (Figures 8b and 10) is the
//! *communication volume*: bytes moved between hosts. Because our transport
//! is in-memory, these counters are exact — every payload byte that would
//! have crossed the wire on a real cluster is counted here.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe communication counters for one cluster run.
///
/// Cloning is cheap (an [`Arc`] bump); all clones observe the same counters.
#[derive(Clone, Debug)]
pub struct NetStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug)]
struct StatsInner {
    world_size: usize,
    bytes: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
    /// Socket-level counters ([`crate::SocketTransport`] only). These live
    /// beside — not inside — [`StatsSnapshot`]: they describe the wire
    /// mechanics of one backend, not the algorithm's communication volume,
    /// and must never perturb the transport-independent report schema.
    socket_connects: AtomicU64,
    /// Connection attempts retried after a refused/failed connect during
    /// bootstrap (backoff loop iterations past the first attempt).
    socket_reconnect_attempts: AtomicU64,
    /// Frames a send wrote whole into its peer's socket.
    socket_frames_sent: AtomicU64,
    /// Frames a reader thread took whole off the wire, CRC checked, and
    /// filed.
    socket_frames_received: AtomicU64,
}

/// A point-in-time copy of the counters, used to compute per-phase deltas.
///
/// # Examples
///
/// ```
/// use gluon_net::NetStats;
///
/// let stats = NetStats::new(2);
/// let before = stats.snapshot();
/// stats.record_send(0, 1, 100);
/// let delta = stats.snapshot().since(&before);
/// assert_eq!(delta.total_bytes, 100);
/// assert_eq!(delta.total_messages, 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Row-major `world_size x world_size` byte matrix (`[src][dst]`).
    pub bytes: Vec<u64>,
    /// Row-major message-count matrix.
    pub messages: Vec<u64>,
    /// Hosts per side of the matrices.
    pub world_size: usize,
}

/// Difference between two snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct StatsDelta {
    /// Total payload bytes sent in the interval.
    pub total_bytes: u64,
    /// Total messages sent in the interval.
    pub total_messages: u64,
    /// Largest per-host outgoing byte count (the straggler for cost models).
    pub max_host_bytes: u64,
    /// Largest per-host outgoing message count.
    pub max_host_messages: u64,
}

impl NetStats {
    /// Creates counters for a cluster of `world_size` hosts.
    pub fn new(world_size: usize) -> Self {
        let n = world_size * world_size;
        NetStats {
            inner: Arc::new(StatsInner {
                world_size,
                bytes: (0..n).map(|_| AtomicU64::new(0)).collect(),
                messages: (0..n).map(|_| AtomicU64::new(0)).collect(),
                socket_connects: AtomicU64::new(0),
                socket_reconnect_attempts: AtomicU64::new(0),
                socket_frames_sent: AtomicU64::new(0),
                socket_frames_received: AtomicU64::new(0),
            }),
        }
    }

    /// Number of hosts the counters cover.
    pub fn world_size(&self) -> usize {
        self.inner.world_size
    }

    /// Records one payload of `bytes` bytes sent from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn record_send(&self, src: usize, dst: usize, bytes: u64) {
        let n = self.inner.world_size;
        assert!(src < n && dst < n, "host out of range");
        let idx = src * n + dst;
        self.inner.bytes[idx].fetch_add(bytes, Ordering::Relaxed);
        self.inner.messages[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes and messages host `src` has sent, summed straight off
    /// the atomic matrices — the allocation-free fast path the sync layer
    /// brackets every round with (unlike [`NetStats::snapshot`], which
    /// copies both matrices).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn host_sent(&self, src: usize) -> (u64, u64) {
        let n = self.inner.world_size;
        assert!(src < n, "host out of range");
        let bytes = self.inner.bytes[src * n..(src + 1) * n]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        let messages = self.inner.messages[src * n..(src + 1) * n]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        (bytes, messages)
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes: self
                .inner
                .bytes
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            messages: self
                .inner
                .messages
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            world_size: self.inner.world_size,
        }
    }

    /// Records one established socket connection (rendezvous or mesh).
    pub fn record_socket_connect(&self) {
        self.inner.socket_connects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried connection attempt during bootstrap backoff.
    pub fn record_socket_reconnect_attempt(&self) {
        self.inner
            .socket_reconnect_attempts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one framed message handed to the wire.
    pub fn record_socket_frame_sent(&self) {
        self.inner
            .socket_frames_sent
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one framed message parsed off the wire.
    pub fn record_socket_frame_received(&self) {
        self.inner
            .socket_frames_received
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Established socket connections so far.
    pub fn socket_connects(&self) -> u64 {
        self.inner.socket_connects.load(Ordering::Relaxed)
    }

    /// Retried connection attempts so far.
    pub fn socket_reconnect_attempts(&self) -> u64 {
        self.inner.socket_reconnect_attempts.load(Ordering::Relaxed)
    }

    /// Framed messages handed to the wire so far.
    pub fn socket_frames_sent(&self) -> u64 {
        self.inner.socket_frames_sent.load(Ordering::Relaxed)
    }

    /// Framed messages parsed off the wire so far.
    pub fn socket_frames_received(&self) -> u64 {
        self.inner.socket_frames_received.load(Ordering::Relaxed)
    }

    /// Total bytes sent so far across all host pairs.
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .bytes
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total messages sent so far across all host pairs.
    pub fn total_messages(&self) -> u64 {
        self.inner
            .messages
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }
}

impl StatsSnapshot {
    /// Bytes sent from `src` to `dst` at snapshot time.
    pub fn bytes_between(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.world_size + dst]
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all pairs.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Number of distinct destinations `src` has sent at least one byte to —
    /// the "communication partners" count discussed in §5.4 of the paper.
    pub fn fan_out(&self, src: usize) -> usize {
        (0..self.world_size)
            .filter(|&dst| dst != src && self.bytes_between(src, dst) > 0)
            .count()
    }

    /// Computes the delta from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different world sizes or if `earlier`
    /// is not actually earlier (counters are monotone).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsDelta {
        assert_eq!(self.world_size, earlier.world_size, "world size mismatch");
        let n = self.world_size;
        let mut total_bytes = 0u64;
        let mut total_messages = 0u64;
        let mut max_host_bytes = 0u64;
        let mut max_host_messages = 0u64;
        for src in 0..n {
            let mut host_bytes = 0u64;
            let mut host_msgs = 0u64;
            for dst in 0..n {
                let i = src * n + dst;
                let db = self.bytes[i]
                    .checked_sub(earlier.bytes[i])
                    .expect("snapshot taken before `earlier`");
                let dm = self.messages[i]
                    .checked_sub(earlier.messages[i])
                    .expect("snapshot taken before `earlier`");
                host_bytes += db;
                host_msgs += dm;
            }
            total_bytes += host_bytes;
            total_messages += host_msgs;
            max_host_bytes = max_host_bytes.max(host_bytes);
            max_host_messages = max_host_messages.max(host_msgs);
        }
        StatsDelta {
            total_bytes,
            total_messages,
            max_host_bytes,
            max_host_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_pair() {
        let s = NetStats::new(3);
        s.record_send(0, 1, 10);
        s.record_send(0, 1, 5);
        s.record_send(2, 0, 7);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_between(0, 1), 15);
        assert_eq!(snap.bytes_between(2, 0), 7);
        assert_eq!(snap.bytes_between(1, 2), 0);
        assert_eq!(snap.total_bytes(), 22);
        assert_eq!(snap.total_messages(), 3);
    }

    #[test]
    fn delta_reports_straggler() {
        let s = NetStats::new(2);
        let before = s.snapshot();
        s.record_send(0, 1, 100);
        s.record_send(1, 0, 30);
        let d = s.snapshot().since(&before);
        assert_eq!(d.total_bytes, 130);
        assert_eq!(d.max_host_bytes, 100);
        assert_eq!(d.max_host_messages, 1);
    }

    #[test]
    fn fan_out_ignores_self_and_silent_pairs() {
        let s = NetStats::new(4);
        s.record_send(0, 1, 1);
        s.record_send(0, 3, 1);
        s.record_send(0, 0, 1);
        assert_eq!(s.snapshot().fan_out(0), 2);
        assert_eq!(s.snapshot().fan_out(1), 0);
    }

    #[test]
    fn socket_counters_accumulate_outside_snapshots() {
        let s = NetStats::new(2);
        s.record_socket_connect();
        s.record_socket_connect();
        s.record_socket_reconnect_attempt();
        s.record_socket_frame_sent();
        s.record_socket_frame_received();
        assert_eq!(s.socket_connects(), 2);
        assert_eq!(s.socket_reconnect_attempts(), 1);
        assert_eq!(s.socket_frames_sent(), 1);
        assert_eq!(s.socket_frames_received(), 1);
        // The transport-independent snapshot schema is untouched: a quiet
        // snapshot still deltas to zero against a fresh one.
        let quiet = NetStats::new(2);
        assert_eq!(s.snapshot().since(&quiet.snapshot()), StatsDelta::default());
    }

    #[test]
    fn clones_share_counters() {
        let s = NetStats::new(2);
        let s2 = s.clone();
        s.record_send(0, 1, 8);
        assert_eq!(s2.total_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn rejects_out_of_range_host() {
        NetStats::new(2).record_send(0, 2, 1);
    }
}
