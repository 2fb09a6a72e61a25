//! Reliable exactly-once in-order delivery over a lossy [`Transport`].
//!
//! [`ReliableTransport`] restores the delivery guarantees the rest of the
//! stack assumes — every message arrives exactly once, uncorrupted, in
//! per-stream FIFO order — on top of a transport that may drop, duplicate,
//! corrupt, or reorder messages (e.g. [`crate::FaultyTransport`]). The
//! protocol is go-back-N per peer pair:
//!
//! - Every user message is framed with a per-peer cumulative **sequence
//!   number**, its original tag, and a CRC32 checksum, and tunneled over
//!   the single reserved wire tag [`RELIABLE_TAG`]. One sequence space per
//!   peer (rather than per tag) suffices because each peer pair shares one
//!   FIFO tunnel; the original tag rides inside the frame and messages are
//!   demultiplexed back after reassembly.
//! - The receiver delivers in-sequence frames, **ACK**s cumulatively,
//!   **NACK**s on a sequence gap (rate-limited to one NACK per gap), drops
//!   and re-ACKs duplicates, and drops frames that fail their checksum
//!   (the go-back retransmission recovers them).
//! - The sender keeps unacknowledged frames in a bounded window and
//!   retransmits them all when the retransmission timeout (RTO) expires,
//!   backing off exponentially. A NACK triggers the same go-back
//!   retransmission immediately. Consecutive timeouts without any ACK
//!   progress count as *strikes*; at [`RetryPolicy::max_retries`] strikes
//!   the peer is declared dead and every subsequent operation involving it
//!   returns [`NetError::PeerUnreachable`] instead of blocking forever.
//!
//! There are no background threads: retransmission timers are checked
//! whenever this endpoint touches the network (every send polls for ACKs
//! without waiting; every receive pumps the wire in RTO-sized slices), so
//! the wrapper composes with the workspace's one-thread-per-host cluster
//! simulation unchanged.
//!
//! Self-sends (`dst == rank`) never touch the wire: they are moved
//! directly into the local delivery buffer, which is trivially
//! exactly-once.
//!
//! # Corruption contract with the codec
//!
//! The CRC check here is the *first* line of defence: a frame mangled on
//! the wire fails its checksum, is dropped, and is recovered by
//! retransmission — the sync codec never sees the damage. Payloads that
//! bypass this layer (a bare transport, or corruption introduced beyond
//! the CRC) hit the codec's own validators instead, which surface them as
//! [`gluon` `DecodeError`]s through `try_sync` rather than panicking. The
//! chaos suite exercises both lines: corruption under `ReliableTransport`
//! must stay bit-identical, corruption on a bare `FaultyTransport` must
//! surface as counted decode errors.

use crate::detector::{DetectorConfig, FailureDetector};
use crate::error::NetError;
use crate::inbox::Inbox;
use crate::stats::NetStats;
use crate::transport::{Envelope, Transport};
use bytes::Bytes;
use gluon_metrics::NetMetrics;
use gluon_trace::Tracer;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wire tag reserved for reliability frames.
///
/// User tags live in `[0, MAX_USER_TAG)` and collective tags in
/// `[COLLECTIVE_TAG_BASE, RELIABLE_TAG)`; both are tunneled inside
/// reliability frames, so this single tag is the only one that appears on
/// the wire below a [`ReliableTransport`].
pub const RELIABLE_TAG: u32 = 1 << 25;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_NACK: u8 = 2;
/// Heartbeat frame: carries no sequence state, only proves liveness to the
/// receiver's failure detector. Fire-and-forget (never retransmitted).
const KIND_BEAT: u8 = 3;

/// DATA frame header: kind(1) + seq(8) + orig_tag(4) + crc(4).
const DATA_HEADER: usize = 17;
/// ACK/NACK frame: kind(1) + seq(8) + crc(4).
const CTRL_FRAME: usize = 13;

/// Retransmission tuning for a [`ReliableTransport`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Initial retransmission timeout.
    pub initial_rto: Duration,
    /// RTO multiplier applied per strike (exponential backoff).
    pub backoff: u32,
    /// Ceiling on the backed-off RTO.
    pub max_rto: Duration,
    /// Consecutive timeouts without ACK progress before a peer is
    /// declared dead.
    pub max_retries: u32,
    /// Maximum in-flight (unacknowledged) frames per peer; sends past the
    /// window block until the window opens.
    pub window: usize,
    /// Upper bound on how long one receive may wait without any delivery
    /// progress before reporting the awaited peer unreachable.
    pub recv_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            initial_rto: Duration::from_millis(1),
            backoff: 2,
            max_rto: Duration::from_millis(16),
            max_retries: 25,
            window: 64,
            recv_budget: Duration::from_secs(10),
        }
    }
}

/// Full reliability-layer configuration: the retransmission policy plus an
/// optional heartbeat failure detector.
///
/// With `detector: None` (the default, and what [`ReliableTransport::over`]
/// / [`ReliableTransport::with_policy`] use) behavior is exactly the
/// legacy go-back-N protocol: no heartbeat traffic, and peer failure only
/// ever surfaces as [`NetError::PeerUnreachable`] after budget exhaustion.
/// With a detector, hosts additionally exchange heartbeats whenever they
/// touch the wire and sustained silence from a peer surfaces as the much
/// faster [`NetError::PeerDown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReliableConfig {
    /// Retransmission tuning.
    pub retry: RetryPolicy,
    /// Heartbeat failure detection; `None` disables it.
    pub detector: Option<DetectorConfig>,
}

impl ReliableConfig {
    /// The default policy with the default failure detector enabled.
    pub fn detecting() -> ReliableConfig {
        ReliableConfig {
            retry: RetryPolicy::default(),
            detector: Some(DetectorConfig::default()),
        }
    }

    /// Replaces the retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ReliableConfig {
        self.retry = retry;
        self
    }

    /// Enables (or reconfigures) the failure detector.
    pub fn with_detector(mut self, detector: DetectorConfig) -> ReliableConfig {
        self.detector = Some(detector);
        self
    }
}

/// Sender-side state for one peer.
#[derive(Debug)]
struct OutPeer {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Sent but unacknowledged frames, oldest first.
    unacked: VecDeque<(u64, Bytes)>,
    /// Current (possibly backed-off) retransmission timeout.
    rto: Duration,
    /// Consecutive RTO expiries without ACK progress.
    strikes: u32,
    /// When the window base was last (re)transmitted.
    last_tx: Instant,
    /// When a NACK last triggered a fast retransmission (rate limit).
    last_fast_retx: Instant,
}

/// Receiver-side state for one peer.
#[derive(Debug)]
struct InPeer {
    /// Next sequence number we will accept.
    expected: u64,
    /// The `expected` value we last NACKed, to send one NACK per gap.
    last_nacked: Option<u64>,
}

#[derive(Debug)]
struct State {
    out: Vec<OutPeer>,
    inc: Vec<InPeer>,
    /// Reassembled messages awaiting a receive, filed once each and taken
    /// by `(src, tag)` or by tag alone.
    inbox: Inbox,
    /// Peers declared dead, with the error that killed them (retry budget
    /// exhaustion or failure-detector suspicion); every later operation
    /// involving a dead peer returns its stored error immediately.
    dead: Vec<Option<NetError>>,
    /// Heartbeat failure detector, when configured.
    detector: Option<FailureDetector>,
    /// When this host last emitted a heartbeat volley.
    last_beat: Instant,
}

impl State {
    fn is_dead(&self, peer: usize) -> bool {
        self.dead[peer].is_some()
    }
}

/// Go-back-N reliability wrapper around any [`Transport`].
///
/// # Examples
///
/// ```
/// use gluon_net::{FaultCounters, FaultPlan, FaultyTransport,
///                 MemoryTransport, ReliableTransport, Transport};
/// use bytes::Bytes;
/// use std::thread;
///
/// let mut eps = MemoryTransport::cluster(2);
/// let counters = FaultCounters::new();
/// let wrap = |ep: MemoryTransport| {
///     let seed = ep.rank() as u64;
///     ReliableTransport::over(FaultyTransport::new(
///         ep,
///         FaultPlan::lossy(seed),
///         counters.clone(),
///     ))
/// };
/// let b = wrap(eps.pop().unwrap());
/// let a = wrap(eps.pop().unwrap());
/// thread::scope(|s| {
///     s.spawn(|| {
///         for i in 0..64u32 {
///             a.try_send(1, 3, Bytes::copy_from_slice(&i.to_le_bytes()))
///                 .unwrap();
///         }
///         a.flush();
///     });
///     s.spawn(|| {
///         for i in 0..64u32 {
///             // Exactly once, in order, despite the lossy wire.
///             assert_eq!(&b.try_recv(0, 3).unwrap()[..], &i.to_le_bytes());
///         }
///     });
/// });
/// ```
#[derive(Debug)]
pub struct ReliableTransport<T: Transport> {
    inner: T,
    policy: RetryPolicy,
    tracer: Tracer,
    metrics: NetMetrics,
    state: Mutex<State>,
    /// Last sync-phase index reported via [`Transport::note_round`]; stamps
    /// peer-failure errors so a supervisor knows where to roll back to.
    round: AtomicU64,
}

/// Best-effort delivery of anything still unacknowledged when the wrapper
/// goes away (bounded by the retry budget; errors are swallowed since the
/// host is already shutting down).
impl<T: Transport> Drop for ReliableTransport<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner` with the default [`RetryPolicy`].
    pub fn over(inner: T) -> ReliableTransport<T> {
        ReliableTransport::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy (no failure detector).
    pub fn with_policy(inner: T, policy: RetryPolicy) -> ReliableTransport<T> {
        ReliableTransport::with_config(
            inner,
            ReliableConfig {
                retry: policy,
                detector: None,
            },
        )
    }

    /// Wraps `inner` with a full [`ReliableConfig`] (retransmission policy
    /// plus optional heartbeat failure detection).
    pub fn with_config(inner: T, config: ReliableConfig) -> ReliableTransport<T> {
        let world = inner.world_size();
        let now = Instant::now();
        let policy = config.retry;
        ReliableTransport {
            inner,
            policy,
            tracer: Tracer::disabled(),
            metrics: NetMetrics::disabled(),
            state: Mutex::new(State {
                out: (0..world)
                    .map(|_| OutPeer {
                        next_seq: 0,
                        unacked: VecDeque::new(),
                        rto: policy.initial_rto,
                        strikes: 0,
                        last_tx: now,
                        last_fast_retx: now,
                    })
                    .collect(),
                inc: (0..world)
                    .map(|_| InPeer {
                        expected: 0,
                        last_nacked: None,
                    })
                    .collect(),
                inbox: Inbox::new(),
                dead: vec![None; world],
                detector: config.detector.map(|d| FailureDetector::new(d, world)),
                last_beat: now,
            }),
            round: AtomicU64::new(0),
        }
    }

    /// Attaches a [`Tracer`]: retransmissions, suppressed duplicates, and
    /// CRC rejections are then tagged as distinct instant events in the
    /// trace, distinguishing recovery traffic from first-transmission
    /// traffic in chaos runs.
    pub fn with_tracer(mut self, tracer: Tracer) -> ReliableTransport<T> {
        self.tracer = tracer;
        self
    }

    /// Attaches a [`NetMetrics`] bundle: retransmissions (frames and
    /// bytes), suppressed duplicates, CRC rejections, and peers declared
    /// dead are then published as queryable counters alongside the
    /// existing `NetStats` books and trace events.
    pub fn with_metrics(mut self, metrics: NetMetrics) -> ReliableTransport<T> {
        self.metrics = metrics;
        self
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active retransmission policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Pumps the wire until every peer has acknowledged everything we
    /// sent, a peer dies trying, or the retry budget elapses.
    pub fn flush(&self) {
        let deadline = Instant::now() + self.policy.recv_budget;
        let mut st = self.state.lock();
        loop {
            let pending =
                (0..st.out.len()).any(|p| !st.is_dead(p) && !st.out[p].unacked.is_empty());
            if !pending || Instant::now() >= deadline {
                return;
            }
            let wait = self.pump_wait(&st, Duration::from_millis(5));
            self.pump(&mut st, wait);
        }
    }

    /// How long the next wire wait may be without missing a
    /// retransmission deadline, capped at `cap`.
    fn pump_wait(&self, st: &State, cap: Duration) -> Duration {
        let now = Instant::now();
        let mut wait = cap;
        for (p, o) in st.out.iter().enumerate() {
            if st.is_dead(p) || o.unacked.is_empty() {
                continue;
            }
            wait = wait.min((o.last_tx + o.rto).saturating_duration_since(now));
        }
        wait.max(Duration::from_micros(50))
    }

    /// Waits up to `wait` for one wire frame, processes it, and fires any
    /// expired retransmission timers.
    fn pump(&self, st: &mut State, wait: Duration) {
        self.maybe_beat(st);
        self.pump_once(st, wait);
        self.check_timers(st);
    }

    /// Drains frames already on the wire without waiting (used after
    /// sends so ACKs keep flowing during send-heavy phases).
    fn poll(&self, st: &mut State) {
        self.maybe_beat(st);
        while self.pump_once(st, Duration::ZERO) {}
        self.check_timers(st);
    }

    /// Pulls at most one wire frame (waiting up to `wait`) and processes
    /// it; returns whether a frame was consumed.
    ///
    /// This is where the unified timeout contract pays off: expiry is the
    /// typed [`NetError::Timeout`], which — on `MemoryTransport` and
    /// `SocketTransport` alike — is fed into the detector's silence
    /// accounting simply by *not* registering a `heard`, exactly as the old
    /// `None` sentinel did. A backend-reported *peer* failure (a socket
    /// peer's connection broke) is latched as a dead peer so the failure
    /// detector and crash supervisor above work unmodified.
    fn pump_once(&self, st: &mut State, wait: Duration) -> bool {
        match self.inner.try_recv_any_timeout(RELIABLE_TAG, wait) {
            Ok(env) => {
                self.process(st, env);
                true
            }
            Err(NetError::Timeout) => false,
            Err(err) => {
                if let Some(peer) = err.peer() {
                    if !st.is_dead(peer) {
                        self.declare_dead(st, peer, err);
                    }
                }
                // Local terminal failures (cancellation, injected crash)
                // surface through `inner_failure` in the blocking loops.
                false
            }
        }
    }

    /// Emits a heartbeat volley to every live peer if the detector is
    /// configured and the heartbeat interval elapsed. Heartbeat send
    /// errors are swallowed — a crashed [`crate::FaultyTransport`] or a
    /// broken socket delivers nothing, which is exactly the silence peers
    /// must observe.
    fn maybe_beat(&self, st: &mut State) {
        let Some(detector) = &st.detector else {
            return;
        };
        if st.last_beat.elapsed() < detector.config().heartbeat_every {
            return;
        }
        st.last_beat = Instant::now();
        let me = self.inner.rank();
        for p in 0..st.out.len() {
            if p != me && !st.is_dead(p) {
                self.send_ctrl(p, KIND_BEAT, 0);
            }
        }
    }

    /// Declares `peer` down with `err`: records it so every later
    /// operation fails fast, drops its retransmission queue, and emits a
    /// trace event.
    fn declare_dead(&self, st: &mut State, peer: usize, err: NetError) {
        st.dead[peer] = Some(err);
        st.out[peer].unacked.clear();
        let kind = match err {
            NetError::PeerDown { .. } => "peer_down",
            _ => "peer_unreachable",
        };
        self.tracer.record_event(self.inner.rank(), kind, peer, 0);
        self.metrics.on_peer_down();
    }

    /// Polls the failure detector: if any live peer has been silent past
    /// the suspicion threshold, declares it down and returns the error.
    fn check_detector(&self, st: &mut State) -> Option<NetError> {
        let now = Instant::now();
        let world = st.out.len();
        let me = self.inner.rank();
        for p in 0..world {
            if p == me || st.is_dead(p) {
                continue;
            }
            let suspect = match &mut st.detector {
                Some(d) => d.suspect(p, now),
                None => false,
            };
            if suspect {
                let err = NetError::PeerDown {
                    peer: p,
                    round: self.round.load(Ordering::Relaxed),
                };
                self.declare_dead(st, p, err);
                return Some(err);
            }
        }
        None
    }

    /// A failure observed below us (an injected local crash or a tripped
    /// cluster cancellation token), checked from every blocking loop so
    /// this host unwinds instead of pumping a wire that is gone.
    fn inner_failure(&self) -> Option<NetError> {
        self.inner.cancelled()
    }

    /// Retransmits expired windows and converts persistent silence into
    /// dead peers.
    fn check_timers(&self, st: &mut State) {
        let now = Instant::now();
        for p in 0..st.out.len() {
            if st.is_dead(p) || st.out[p].unacked.is_empty() {
                continue;
            }
            if now.saturating_duration_since(st.out[p].last_tx) < st.out[p].rto {
                continue;
            }
            self.retransmit(&mut st.out[p], p);
            let o = &mut st.out[p];
            o.strikes += 1;
            o.rto = (o.rto * self.policy.backoff).min(self.policy.max_rto);
            if o.strikes >= self.policy.max_retries {
                // Stop retransmitting into the void.
                let err = self.unreachable(p);
                self.declare_dead(st, p, err);
            }
        }
    }

    /// Resends every unacknowledged frame to `peer` (go-back-N).
    fn retransmit(&self, o: &mut OutPeer, peer: usize) {
        for (_, frame) in &o.unacked {
            self.inner.stats().record_retransmit(frame.len() as u64);
            self.tracer
                .record_event(self.inner.rank(), "retransmit", peer, frame.len() as u64);
            self.metrics.on_retransmit(frame.len() as u64);
            // A failed retransmission is just more silence: the strike
            // counter and detector convert it into a dead peer.
            let _ = self.inner.try_send(peer, RELIABLE_TAG, frame.clone());
        }
        o.last_tx = Instant::now();
    }

    /// Handles one incoming wire frame.
    fn process(&self, st: &mut State, env: Envelope) {
        let src = env.src;
        if src == self.inner.rank() {
            // Self traffic bypasses the wire; anything here is stray.
            return;
        }
        // Any frame — data, control, heartbeat, even one that fails its
        // checksum — proves the peer's stack is alive.
        if let Some(d) = &mut st.detector {
            d.heard(src, Instant::now());
        }
        let f = &env.payload;
        if f.len() == CTRL_FRAME && f[0] == KIND_BEAT {
            // Liveness only; `heard` above already consumed it.
            return;
        }
        if f.len() >= DATA_HEADER && f[0] == KIND_DATA {
            let stored = read_u32(&f[13..17]);
            if crc32_parts(&[&f[..13], &f[DATA_HEADER..]]) != stored {
                self.on_corrupt(st, src);
                return;
            }
            let seq = read_u64(&f[1..9]);
            let tag = read_u32(&f[9..13]);
            self.on_data(st, src, seq, tag, Bytes::copy_from_slice(&f[DATA_HEADER..]));
        } else if f.len() == CTRL_FRAME && (f[0] == KIND_ACK || f[0] == KIND_NACK) {
            if crc32_parts(&[&f[..9]]) != read_u32(&f[9..13]) {
                self.on_corrupt(st, src);
                return;
            }
            let seq = read_u64(&f[1..9]);
            if f[0] == KIND_ACK {
                self.on_ack(st, src, seq);
            } else {
                self.on_nack(st, src, seq);
            }
        } else {
            // A flipped bit in the kind byte (or a malformed frame) lands
            // here; the checksum paths above catch everything else.
            self.on_corrupt(st, src);
        }
    }

    /// A frame from `src` failed validation: count it and ask for a
    /// go-back retransmission of whatever we are missing.
    fn on_corrupt(&self, st: &mut State, src: usize) {
        self.inner.stats().record_corruption_detected();
        self.tracer
            .record_event(self.inner.rank(), "corruption_detected", src, 0);
        self.metrics.on_crc_rejection();
        self.nack_gap(st, src);
    }

    fn on_data(&self, st: &mut State, src: usize, seq: u64, tag: u32, payload: Bytes) {
        let expected = st.inc[src].expected;
        if seq == expected {
            st.inc[src].expected += 1;
            st.inc[src].last_nacked = None;
            st.inbox.file(src, tag, payload);
            self.send_ctrl(src, KIND_ACK, st.inc[src].expected);
        } else if seq < expected {
            self.inner.stats().record_dup_suppressed();
            self.metrics.on_dup_suppressed();
            self.tracer.record_event(
                self.inner.rank(),
                "dup_suppressed",
                src,
                payload.len() as u64,
            );
            // Re-ACK so the sender stops resending this prefix.
            self.send_ctrl(src, KIND_ACK, expected);
        } else {
            // Sequence gap: something before `seq` was lost or reordered.
            self.nack_gap(st, src);
        }
    }

    /// Sends at most one NACK per distinct gap position.
    fn nack_gap(&self, st: &mut State, src: usize) {
        let expected = st.inc[src].expected;
        if st.inc[src].last_nacked != Some(expected) {
            st.inc[src].last_nacked = Some(expected);
            self.send_ctrl(src, KIND_NACK, expected);
        }
    }

    fn on_ack(&self, st: &mut State, src: usize, acked_up_to: u64) {
        let o = &mut st.out[src];
        let before = o.unacked.len();
        while o.unacked.front().is_some_and(|&(seq, _)| seq < acked_up_to) {
            o.unacked.pop_front();
        }
        if o.unacked.len() < before {
            // Progress: the peer is alive, restart the budget.
            o.strikes = 0;
            o.rto = self.policy.initial_rto;
            o.last_tx = Instant::now();
        }
    }

    fn on_nack(&self, st: &mut State, src: usize, expected_by_peer: u64) {
        {
            let o = &mut st.out[src];
            // A NACK carries the same cumulative information as an ACK.
            while o
                .unacked
                .front()
                .is_some_and(|&(seq, _)| seq < expected_by_peer)
            {
                o.unacked.pop_front();
            }
        }
        let fast_ok = st.out[src].last_fast_retx.elapsed() >= self.policy.initial_rto / 2;
        if !st.out[src].unacked.is_empty() && fast_ok && !st.is_dead(src) {
            st.out[src].last_fast_retx = Instant::now();
            self.retransmit(&mut st.out[src], src);
        }
    }

    fn send_ctrl(&self, dst: usize, kind: u8, seq: u64) {
        let mut f = Vec::with_capacity(CTRL_FRAME);
        f.push(kind);
        f.extend_from_slice(&seq.to_le_bytes());
        let crc = crc32_parts(&[&f[..9]]);
        f.extend_from_slice(&crc.to_le_bytes());
        // Control frames are fire-and-forget; losing one to a dead backend
        // is indistinguishable from losing it on the wire.
        let _ = self.inner.try_send(dst, RELIABLE_TAG, Bytes::from(f));
    }

    fn unreachable(&self, peer: usize) -> NetError {
        NetError::PeerUnreachable {
            peer,
            retries: self.policy.max_retries,
            round: self.round.load(Ordering::Relaxed),
        }
    }

    /// Picks whom to blame when a receive-any exhausts its budget: a peer
    /// we are still retransmitting to if any, else the first other host.
    fn blame(&self, st: &State) -> usize {
        (0..st.out.len())
            .find(|&p| st.is_dead(p) || !st.out[p].unacked.is_empty())
            .unwrap_or_else(|| usize::from(self.inner.rank() == 0))
    }
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

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

/// CRC32 (IEEE) over the concatenation of `parts`.
pub(crate) fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &byte in *part {
            c = CRC_TABLE[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

fn encode_data(seq: u64, tag: u32, payload: &[u8]) -> Bytes {
    let mut f = Vec::with_capacity(DATA_HEADER + payload.len());
    f.push(KIND_DATA);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&tag.to_le_bytes());
    let crc = crc32_parts(&[&f[..13], payload]);
    f.extend_from_slice(&crc.to_le_bytes());
    f.extend_from_slice(payload);
    Bytes::from(f)
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn try_recv_any_timeout(&self, tag: u32, timeout: Duration) -> Result<Envelope, NetError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if let Some((src, payload)) = st.inbox.take(None, tag) {
                return Ok(Envelope { src, tag, payload });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let wait = self.pump_wait(&st, deadline.saturating_duration_since(now));
            self.pump(&mut st, wait);
        }
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        assert!(
            dst < self.inner.world_size(),
            "destination rank out of range"
        );
        debug_assert!(
            tag < RELIABLE_TAG,
            "tag {tag:#x} collides with the reserved reliability tag space"
        );
        let mut st = self.state.lock();
        if dst == self.inner.rank() {
            // Local delivery: no wire, no sequence numbers needed.
            st.inbox.file(dst, tag, payload);
            return Ok(());
        }
        if let Some(err) = st.dead[dst] {
            return Err(err);
        }
        if let Some(err) = self.inner_failure() {
            return Err(err);
        }
        let deadline = Instant::now() + self.policy.recv_budget;
        while st.out[dst].unacked.len() >= self.policy.window {
            if let Some(err) = self.inner_failure() {
                return Err(err);
            }
            self.check_detector(&mut st);
            if let Some(err) = st.dead[dst] {
                return Err(err);
            }
            if Instant::now() >= deadline {
                let err = self.unreachable(dst);
                self.declare_dead(&mut st, dst, err);
                return Err(err);
            }
            let wait = self.pump_wait(&st, Duration::from_millis(5));
            self.pump(&mut st, wait);
            if let Some(err) = st.dead[dst] {
                return Err(err);
            }
        }
        let o = &mut st.out[dst];
        let seq = o.next_seq;
        o.next_seq += 1;
        let frame = encode_data(seq, tag, &payload);
        if o.unacked.is_empty() {
            // This frame is the new window base; start its timer fresh.
            o.last_tx = Instant::now();
            o.rto = self.policy.initial_rto;
        }
        o.unacked.push_back((seq, frame.clone()));
        if let Err(err) = self.inner.try_send(dst, RELIABLE_TAG, frame) {
            // The backend already knows the peer is gone (broken socket):
            // no amount of retransmission will help, so latch it now.
            if err.peer() == Some(dst) {
                self.declare_dead(&mut st, dst, err);
                return Err(err);
            }
        }
        self.poll(&mut st);
        Ok(())
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        assert!(src < self.inner.world_size(), "source rank out of range");
        let deadline = Instant::now() + self.policy.recv_budget;
        let mut st = self.state.lock();
        loop {
            if let Some((_, payload)) = st.inbox.take(Some(src), tag) {
                return Ok(payload);
            }
            if let Some(err) = st.dead[src] {
                return Err(err);
            }
            if let Some(err) = self.inner_failure() {
                return Err(err);
            }
            self.check_detector(&mut st);
            if let Some(err) = st.dead[src] {
                return Err(err);
            }
            let now = Instant::now();
            if now >= deadline {
                // No delivery progress from `src` within the whole budget:
                // treat it as gone so callers fail fast from here on.
                let err = self.unreachable(src);
                self.declare_dead(&mut st, src, err);
                return Err(err);
            }
            let wait = self.pump_wait(
                &st,
                deadline
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(5)),
            );
            self.pump(&mut st, wait);
        }
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        let deadline = Instant::now() + self.policy.recv_budget;
        let mut st = self.state.lock();
        loop {
            if let Some((src, payload)) = st.inbox.take(None, tag) {
                return Ok(Envelope { src, tag, payload });
            }
            if let Some(err) = (0..st.dead.len()).find_map(|p| st.dead[p]) {
                return Err(err);
            }
            if let Some(err) = self.inner_failure() {
                return Err(err);
            }
            if let Some(err) = self.check_detector(&mut st) {
                return Err(err);
            }
            if Instant::now() >= deadline {
                let blamed = self.blame(&st);
                let err = self.unreachable(blamed);
                self.declare_dead(&mut st, blamed, err);
                return Err(err);
            }
            let wait = self.pump_wait(&st, Duration::from_millis(5));
            self.pump(&mut st, wait);
        }
    }

    fn note_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
        self.inner.note_round(round);
    }

    fn cancelled(&self) -> Option<NetError> {
        self.inner.cancelled()
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultCounters, FaultPlan, FaultRule, FaultyTransport};
    use crate::transport::MemoryTransport;
    use std::thread;

    type Chaos = ReliableTransport<FaultyTransport<MemoryTransport>>;

    fn chaos_pair(plan: impl Fn(u64) -> FaultPlan) -> (Chaos, Chaos, FaultCounters) {
        let counters = FaultCounters::new();
        let mut eps = MemoryTransport::cluster(2);
        let b = ReliableTransport::over(FaultyTransport::new(
            eps.pop().expect("two endpoints"),
            plan(1),
            counters.clone(),
        ));
        let a = ReliableTransport::over(FaultyTransport::new(
            eps.pop().expect("two endpoints"),
            plan(0),
            counters.clone(),
        ));
        (a, b, counters)
    }

    /// Both directions, several tags, a representative lossy plan: every
    /// message must arrive exactly once, in per-stream order.
    #[test]
    fn lossy_bidirectional_traffic_is_delivered_in_order() {
        let (a, b, counters) = chaos_pair(FaultPlan::lossy);
        const N: u32 = 150;
        let side = |me: &Chaos, peer: usize| {
            for i in 0..N {
                me.try_send(peer, i % 3, Bytes::copy_from_slice(&i.to_le_bytes()))
                    .unwrap();
            }
            // A host that goes quiet stops pumping its retransmission
            // timers, so push the tail out before the receive phase (the
            // cluster runner's Drop does this for real programs).
            me.flush();
            let mut next = [0u32; 3];
            for _ in 0..N {
                // Round-robin the tags to exercise out-of-order matching.
                let tag = next
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &v)| v)
                    .map(|(t, _)| t)
                    .expect("3 tags") as u32;
                let m = me.try_recv(peer, tag).unwrap();
                let v = u32::from_le_bytes(m[..4].try_into().expect("4 bytes"));
                assert_eq!(v % 3, tag, "message on the wrong stream");
                assert_eq!(v, next[tag as usize] * 3 + tag, "stream order broken");
                next[tag as usize] += 1;
            }
        };
        thread::scope(|s| {
            s.spawn(|| side(&a, 1));
            s.spawn(|| side(&b, 0));
        });
        assert!(counters.total() > 0, "the plan must have injected faults");
        let stats = a.stats().clone();
        drop((a, b));
        assert!(
            stats.retransmit_messages() > 0,
            "drops must have forced retransmissions"
        );
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (a, b, counters) = chaos_pair(|seed| FaultPlan::none(seed).with_duplicate_rate(1.0));
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..40u32 {
                    a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                }
                a.flush();
            });
            s.spawn(|| {
                for i in 0..40u32 {
                    assert_eq!(&b.try_recv(0, 0).unwrap()[..4], &i.to_le_bytes());
                }
                // The 41st message must not exist: duplicates were eaten.
                assert!(matches!(
                    b.try_recv_any_timeout(0, Duration::from_millis(50)),
                    Err(NetError::Timeout)
                ));
            });
        });
        assert!(counters.duplicated() > 0);
        assert!(b.stats().dup_suppressed() > 0);
    }

    #[test]
    fn corruption_is_detected_and_repaired() {
        let (a, b, counters) = chaos_pair(|seed| FaultPlan::none(seed).with_corrupt_rate(0.3));
        const N: u32 = 80;
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    a.try_send(1, 5, Bytes::copy_from_slice(&[i as u8; 32]))
                        .unwrap();
                }
                a.flush();
            });
            s.spawn(|| {
                for i in 0..N {
                    let m = b.try_recv(0, 5).unwrap();
                    assert_eq!(&m[..], &[i as u8; 32], "payload must arrive intact");
                }
            });
        });
        assert!(counters.corrupted() > 0, "corruption must have fired");
        assert!(b.stats().corruption_detected() > 0);
    }

    #[test]
    fn delays_cannot_reorder_delivery() {
        let (a, b, _) = chaos_pair(|seed| FaultPlan::none(seed).with_delay_rate(0.8));
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100u32 {
                    a.try_send(1, 2, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                }
                a.flush();
            });
            s.spawn(|| {
                for i in 0..100u32 {
                    assert_eq!(&b.try_recv(0, 2).unwrap()[..4], &i.to_le_bytes());
                }
            });
        });
    }

    #[test]
    fn self_sends_round_trip() {
        let mut eps = MemoryTransport::cluster(1);
        let a = ReliableTransport::over(eps.pop().expect("one endpoint"));
        a.try_send(0, 4, Bytes::from_static(b"loop")).unwrap();
        assert_eq!(&a.try_recv(0, 4).unwrap()[..], b"loop");
        a.try_send(0, 4, Bytes::from_static(b"any")).unwrap();
        assert_eq!(&a.try_recv_any(4).unwrap().payload[..], b"any");
    }

    #[test]
    fn unreachable_peer_is_an_error_not_a_hang() {
        let fast = RetryPolicy {
            initial_rto: Duration::from_micros(200),
            max_retries: 4,
            recv_budget: Duration::from_millis(250),
            ..RetryPolicy::default()
        };
        let counters = FaultCounters::new();
        let mut eps = MemoryTransport::cluster(2);
        let _b = eps.pop().expect("two endpoints");
        // Every frame host 0 sends to host 1 is dropped; host 1 never acks.
        let a = ReliableTransport::with_policy(
            FaultyTransport::new(
                eps.pop().expect("two endpoints"),
                FaultPlan::none(0).with_rule(FaultRule::always(FaultAction::Drop).to_peer(1)),
                counters.clone(),
            ),
            fast,
        );
        a.try_send(1, 0, Bytes::from_static(b"doomed"))
            .expect("first send is asynchronous");
        let started = Instant::now();
        let err = a.try_recv(1, 0).expect_err("peer must be declared dead");
        assert_eq!(err.peer(), Some(1));
        assert!(
            matches!(err, NetError::PeerUnreachable { .. }),
            "budget exhaustion surfaces as PeerUnreachable, got {err:?}"
        );
        assert!(counters.dropped() > 0, "drops must have been injected");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "must fail fast, not hang"
        );
        // Every further operation on the dead peer fails immediately.
        assert!(a.try_send(1, 0, Bytes::new()).is_err());
        assert!(a.try_recv(1, 0).is_err());
    }

    #[test]
    fn window_backpressure_does_not_deadlock() {
        let small = RetryPolicy {
            window: 4,
            ..RetryPolicy::default()
        };
        let mut eps = MemoryTransport::cluster(2);
        let b = ReliableTransport::over(eps.pop().expect("two endpoints"));
        let a = ReliableTransport::with_policy(eps.pop().expect("two endpoints"), small);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..64u32 {
                    a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                }
                a.flush();
            });
            s.spawn(|| {
                for i in 0..64u32 {
                    assert_eq!(&b.try_recv(0, 0).unwrap()[..4], &i.to_le_bytes());
                }
            });
        });
    }

    #[test]
    fn detector_declares_a_silent_peer_down() {
        use crate::detector::DetectorConfig;
        let cfg = ReliableConfig::default()
            .with_retry(RetryPolicy {
                recv_budget: Duration::from_secs(30),
                ..RetryPolicy::default()
            })
            .with_detector(DetectorConfig::default().with_max_silence(Duration::from_millis(60)));
        let mut eps = MemoryTransport::cluster(2);
        // Host 1 exists but never runs: total silence from it.
        let _b = eps.pop().expect("two endpoints");
        let a = ReliableTransport::with_config(eps.pop().expect("two endpoints"), cfg);
        a.note_round(7);
        let started = Instant::now();
        let err = a
            .try_recv(1, 0)
            .expect_err("detector must declare the silent peer down");
        assert_eq!(
            err,
            NetError::PeerDown { peer: 1, round: 7 },
            "silence surfaces as PeerDown stamped with the noted round"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "detector must fire long before the 30s receive budget"
        );
        // The peer stays dead for every later operation.
        assert_eq!(a.try_send(1, 0, Bytes::new()), Err(err));
        assert_eq!(a.try_recv_any(0), Err(err));
    }

    #[test]
    fn heartbeats_keep_a_quiet_but_alive_peer_undeclared() {
        let cfg = ReliableConfig::detecting();
        let mut eps = MemoryTransport::cluster(2);
        let b = ReliableTransport::with_config(eps.pop().expect("two endpoints"), cfg);
        let a = ReliableTransport::with_config(eps.pop().expect("two endpoints"), cfg);
        let stop = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|s| {
            // Host 1 sends no application traffic for well past max_silence
            // (500ms default) but keeps pumping, so its heartbeats flow.
            s.spawn(|| {
                let deadline = Instant::now() + Duration::from_millis(700);
                while Instant::now() < deadline {
                    let _ = b.try_recv_any_timeout(0, Duration::from_millis(1));
                }
                b.try_send(0, 0, Bytes::from_static(b"alive")).unwrap();
                // Keep heartbeating until host 0 confirms delivery, so the
                // data frame's ACK exchange cannot race our shutdown.
                while !stop.load(Ordering::Acquire) {
                    let _ = b.try_recv_any_timeout(0, Duration::from_millis(1));
                }
            });
            s.spawn(|| {
                let got = a.try_recv(1, 0).expect("peer is alive, just quiet");
                assert_eq!(&got[..], b"alive");
                stop.store(true, Ordering::Release);
            });
        });
    }

    #[test]
    fn beat_frames_do_not_disturb_sequencing() {
        let cfg = ReliableConfig::detecting();
        let mut eps = MemoryTransport::cluster(2);
        let b = ReliableTransport::with_config(eps.pop().expect("two endpoints"), cfg);
        let a = ReliableTransport::with_config(eps.pop().expect("two endpoints"), cfg);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u32 {
                    a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                    // Interleave explicit beats between data frames.
                    let _ = a.try_recv_any_timeout(99, Duration::from_micros(600));
                }
                a.flush();
            });
            s.spawn(|| {
                for i in 0..50u32 {
                    assert_eq!(&b.try_recv(0, 0).unwrap()[..4], &i.to_le_bytes());
                }
            });
        });
        assert_eq!(a.stats().corruption_detected(), 0);
        assert_eq!(b.stats().corruption_detected(), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32_parts(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn frames_survive_a_plain_wire_unchanged() {
        let mut eps = MemoryTransport::cluster(2);
        let b = ReliableTransport::over(eps.pop().expect("two endpoints"));
        let a = ReliableTransport::over(eps.pop().expect("two endpoints"));
        a.try_send(1, 123, Bytes::from_static(b"payload")).unwrap();
        assert_eq!(&b.try_recv(0, 123).unwrap()[..], b"payload");
        // Exactly one data frame and one ack crossed the wire; nothing
        // was retransmitted on a clean network.
        assert_eq!(a.stats().retransmit_messages(), 0);
        assert_eq!(a.stats().corruption_detected(), 0);
    }
}
