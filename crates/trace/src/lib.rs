//! `gluon-trace`: structured span tracing and per-phase metrics for the
//! Gluon sync stack.
//!
//! The paper's evaluation attributes time and bytes to the *stages* of a
//! sync call — extract, address translation, encoding choice, transfer,
//! decode, apply (§4, Figs. 6–10). This crate records exactly that
//! breakdown at runtime, cheaply enough to leave compiled in:
//!
//! * **Spans** ([`SpanEvent`]): one timed slice per micro-stage visit,
//!   tagged with host, sync-phase index, [`Stage`], and peer. The runtime
//!   emits them as *contiguous segments* of each sync call, so the child
//!   spans of a phase sum exactly to that phase's recorded `comm_secs`.
//! * **Events** ([`InstantEvent`]): point-in-time occurrences — a
//!   retransmitted frame, a suppressed duplicate, a CRC rejection — tagged
//!   by the reliability layer so chaos runs can be dissected.
//! * **Metrics**: monotonic counters — a per-field wire-mode selection
//!   histogram (which §4.2 encoding each field's messages picked), a
//!   log₂ message-size histogram, and cumulative barrier-wait time.
//!
//! Storage is per-host: every simulated host appends to its own bounded
//! ring buffer, so the hot path never contends with other hosts (the
//! per-buffer lock is single-writer and therefore uncontended; metric
//! counters are lock-free atomics). When a buffer overflows, the oldest
//! records are dropped and counted ([`Tracer::dropped_spans`]).
//!
//! A disabled tracer ([`Tracer::disabled`], also [`Tracer::default`]) is a
//! no-op handle: every record call returns after one `Option` check, takes
//! no timestamps, and allocates nothing — instrumented code pays nothing
//! when tracing is off.
//!
//! Two exporters turn a recording into artifacts:
//! [`Tracer::chrome_trace_json`] produces a `chrome://tracing`-loadable
//! trace-event file (one track per simulated host), and
//! [`Tracer::summary`] renders a plain-text per-run table.
//!
//! # Examples
//!
//! ```
//! use gluon_trace::{Stage, Tracer};
//!
//! let tracer = Tracer::new(2);
//! let t0 = tracer.now_ns();
//! // ... do stage work ...
//! tracer.record_span(0, 0, Stage::Encode, Some(1), t0, 1_500);
//! tracer.record_wire_mode("MinField<u32>", 3, 25); // Indices, 25 bytes
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].stage, Stage::Encode);
//! assert!(tracer.chrome_trace_json().contains("\"encode\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod summary;

pub use chrome::ChromeTraceBuilder;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sync-phase spans that are not tied to a numbered phase (e.g. the
/// memoization handshake) carry this sentinel phase index.
pub const SETUP_PHASE: u32 = u32::MAX;

/// Number of wire modes tracked by the per-field histogram: the §4.2 mode
/// bytes (`Empty`, `Dense`, `Bitvec`, `Indices`, `GidValues`) plus the
/// codec-v2 compressed modes (`IndicesDelta`, `RunLength`,
/// `SameIndicesDelta`, `SameRunLength`).
pub const NUM_WIRE_MODES: usize = 9;

/// Display names of the wire modes, indexed by mode byte.
pub const MODE_NAMES: [&str; NUM_WIRE_MODES] = [
    "empty",
    "dense",
    "bitvec",
    "indices",
    "gid_values",
    "idx_delta",
    "run_len",
    "same_idx",
    "same_run",
];

/// Log₂ buckets of the message-size histogram (bucket `i` counts payloads
/// with `floor(log2(len)) == i`; zero-length payloads land in bucket 0).
pub const NUM_SIZE_BUCKETS: usize = 40;

/// Default per-host span/event ring capacity.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The micro-stages of one sync call, plus the coarse stages that frame
/// them. See DESIGN.md "Tracing and metrics" for the taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Stage {
    /// Scanning the dirty set to collect updated positions of the agreed
    /// proxy list.
    Extract = 0,
    /// Address translation for the non-memoized path: looking up global
    /// IDs for every updated proxy (absent under temporal invariance,
    /// which is the point of §4.1).
    MemoTranslate = 1,
    /// Building the wire payload (§4.2 mode selection + value extraction).
    Encode = 2,
    /// Handing the payload to the transport (each peer's send issues as
    /// soon as its payload is ready, while later peers are still
    /// extracting/encoding).
    Send = 3,
    /// Resetting shipped mirrors to the reduction identity.
    Reset = 4,
    /// Blocking on an expected payload from a peer.
    RecvWait = 5,
    /// Parsing a received payload back into (position, value) entries,
    /// as each frame arrives (the apply itself stays in rank order).
    Decode = 6,
    /// Reducing/overwriting local proxies with received values.
    Apply = 7,
    /// A whole collective (termination detection, global sums) timed as
    /// one slice — these phases have no finer structure.
    Collective = 8,
    /// Parent span covering one entire sync phase.
    Sync = 9,
    /// The memoization handshake of §4.1 (setup, not a numbered phase).
    Memo = 10,
    /// Partition construction (setup, not a numbered phase): routing the
    /// host's edge slice, the all-to-all edge exchange, building the local
    /// graph and, when the algorithm pulls, its transpose.
    Partition = 11,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 12] = [
        Stage::Extract,
        Stage::MemoTranslate,
        Stage::Encode,
        Stage::Send,
        Stage::Reset,
        Stage::RecvWait,
        Stage::Decode,
        Stage::Apply,
        Stage::Collective,
        Stage::Sync,
        Stage::Memo,
        Stage::Partition,
    ];

    /// Stable lower-case name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Extract => "extract",
            Stage::MemoTranslate => "memo_translate",
            Stage::Encode => "encode",
            Stage::Send => "send",
            Stage::Reset => "reset",
            Stage::RecvWait => "recv_wait",
            Stage::Decode => "decode",
            Stage::Apply => "apply",
            Stage::Collective => "collective",
            Stage::Sync => "sync",
            Stage::Memo => "memo",
            Stage::Partition => "partition",
        }
    }

    /// True for the micro-stages whose durations decompose a phase's
    /// `comm_secs` (everything except the [`Stage::Sync`] parent and the
    /// [`Stage::Memo`] and [`Stage::Partition`] setup spans).
    pub fn is_child(self) -> bool {
        !matches!(self, Stage::Sync | Stage::Memo | Stage::Partition)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed slice of a sync phase on one host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanEvent {
    /// Host that executed the stage.
    pub host: usize,
    /// Sync-phase index on that host (aligned with
    /// `SyncStats::phases`), or [`SETUP_PHASE`] for setup spans.
    pub phase: u32,
    /// Which stage the slice belongs to.
    pub stage: Stage,
    /// Peer the stage was directed at, if any.
    pub peer: Option<usize>,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A point-in-time occurrence (retransmission, duplicate, CRC failure).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstantEvent {
    /// Host that observed the event.
    pub host: usize,
    /// Stable event name (e.g. `"retransmit"`, `"dup_suppressed"`).
    pub name: &'static str,
    /// Peer involved.
    pub peer: usize,
    /// Bytes associated with the event (frame size for retransmissions).
    pub bytes: u64,
    /// Offset from the tracer's epoch, nanoseconds.
    pub at_ns: u64,
}

/// Bounded ring: keeps the most recent `cap` records, counts the rest.
#[derive(Debug)]
struct Ring<T> {
    buf: std::collections::VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            buf: std::collections::VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    /// One span ring per host; each is written only by that host's thread,
    /// so the lock is uncontended on the hot path.
    spans: Vec<Mutex<Ring<SpanEvent>>>,
    /// One instant-event ring per host.
    events: Vec<Mutex<Ring<InstantEvent>>>,
    /// `field name -> per-mode message and byte totals`.
    wire_modes: Mutex<HashMap<&'static str, ModeTotals>>,
    /// Log₂ payload-size histogram across all sync messages.
    size_buckets: Vec<AtomicU64>,
    /// Cumulative time spent waiting in barriers, nanoseconds.
    barrier_wait_ns: AtomicU64,
    /// Frames retransmitted (mirrors the event stream as a cheap counter).
    retransmit_events: AtomicU64,
    /// Duplicates suppressed.
    dup_events: AtomicU64,
    /// Sync payloads that failed to decode.
    decode_error_events: AtomicU64,
    /// Peers declared down by a failure detector.
    peer_down_events: AtomicU64,
    /// Supervised recovery attempts (rollback-restarts after a failure).
    recovery_events: AtomicU64,
    /// Checkpoint snapshots taken.
    checkpoint_events: AtomicU64,
}

/// Per-field wire-mode totals: how many messages picked each mode and how
/// many payload bytes they carried.
#[derive(Clone, Copy, Debug, Default)]
struct ModeTotals {
    counts: [u64; NUM_WIRE_MODES],
    bytes: [u64; NUM_WIRE_MODES],
}

/// The tracing handle threaded through the sync stack.
///
/// Cloning is cheap (an [`Arc`] bump); all clones record into the same
/// buffers. A default-constructed or [`Tracer::disabled`] handle is a
/// no-op: no buffers exist and every record call returns immediately.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An enabled tracer for a cluster of `world_size` hosts, with the
    /// default per-host ring capacity.
    pub fn new(world_size: usize) -> Tracer {
        Tracer::with_capacity(world_size, DEFAULT_CAPACITY)
    }

    /// As [`Tracer::new`] with an explicit per-host ring capacity.
    pub fn with_capacity(world_size: usize, capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                spans: (0..world_size)
                    .map(|_| Mutex::new(Ring::new(capacity)))
                    .collect(),
                events: (0..world_size)
                    .map(|_| Mutex::new(Ring::new(capacity)))
                    .collect(),
                wire_modes: Mutex::new(HashMap::new()),
                size_buckets: (0..NUM_SIZE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                barrier_wait_ns: AtomicU64::new(0),
                retransmit_events: AtomicU64::new(0),
                dup_events: AtomicU64::new(0),
                decode_error_events: AtomicU64::new(0),
                peer_down_events: AtomicU64::new(0),
                recovery_events: AtomicU64::new(0),
                checkpoint_events: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op tracer (equivalent to `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of hosts the tracer was sized for (0 when disabled).
    pub fn world_size(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.spans.len())
    }

    /// Nanoseconds since the tracer's epoch (0 when disabled — callers
    /// should gate timestamping on [`Tracer::is_enabled`]).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records one stage slice.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range (enabled tracers only).
    #[inline]
    pub fn record_span(
        &self,
        host: usize,
        phase: u32,
        stage: Stage,
        peer: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.spans[host].lock().push(SpanEvent {
            host,
            phase,
            stage,
            peer,
            start_ns,
            dur_ns,
        });
    }

    /// Records a point-in-time event (timestamped now).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range (enabled tracers only).
    #[inline]
    pub fn record_event(&self, host: usize, name: &'static str, peer: usize, bytes: u64) {
        let Some(inner) = &self.inner else { return };
        match name {
            "retransmit" => {
                inner.retransmit_events.fetch_add(1, Ordering::Relaxed);
            }
            "dup_suppressed" => {
                inner.dup_events.fetch_add(1, Ordering::Relaxed);
            }
            "decode_error" => {
                inner.decode_error_events.fetch_add(1, Ordering::Relaxed);
            }
            "peer_down" => {
                inner.peer_down_events.fetch_add(1, Ordering::Relaxed);
            }
            "recovery" => {
                inner.recovery_events.fetch_add(1, Ordering::Relaxed);
            }
            "checkpoint" => {
                inner.checkpoint_events.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let at_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.events[host].lock().push(InstantEvent {
            host,
            name,
            peer,
            bytes,
            at_ns,
        });
    }

    /// Counts one sync message of `bytes` payload bytes whose payload
    /// selected wire mode byte `mode` (0..=8: the §4.2 mode bytes plus the
    /// codec-v2 compressed modes) for the field named `field`.
    #[inline]
    pub fn record_wire_mode(&self, field: &'static str, mode: u8, bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let idx = (mode as usize).min(NUM_WIRE_MODES - 1);
        let mut modes = inner.wire_modes.lock();
        let totals = modes.entry(field).or_default();
        totals.counts[idx] += 1;
        totals.bytes[idx] += bytes;
    }

    /// Counts one sync message of `len` payload bytes in the log₂
    /// size histogram.
    #[inline]
    pub fn record_message_size(&self, len: usize) {
        let Some(inner) = &self.inner else { return };
        let bucket = if len == 0 {
            0
        } else {
            (usize::BITS - 1 - len.leading_zeros()) as usize
        };
        inner.size_buckets[bucket.min(NUM_SIZE_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `dur_ns` to the cumulative barrier-wait counter.
    #[inline]
    pub fn add_barrier_wait(&self, dur_ns: u64) {
        let Some(inner) = &self.inner else { return };
        inner.barrier_wait_ns.fetch_add(dur_ns, Ordering::Relaxed);
    }

    /// All recorded spans, ordered by host then recording order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .spans
            .iter()
            .flat_map(|m| m.lock().buf.iter().copied().collect::<Vec<_>>())
            .collect()
    }

    /// All recorded instant events, ordered by host then recording order.
    pub fn events(&self) -> Vec<InstantEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .events
            .iter()
            .flat_map(|m| m.lock().buf.iter().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Spans dropped because a host's ring wrapped.
    pub fn dropped_spans(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner.spans.iter().map(|m| m.lock().dropped).sum()
    }

    /// Instant events dropped because a host's ring wrapped.
    pub fn dropped_events(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner.events.iter().map(|m| m.lock().dropped).sum()
    }

    /// The per-field wire-mode histogram: `field name -> message counts`
    /// indexed by mode byte (see [`MODE_NAMES`]). Keys are sorted for
    /// deterministic output.
    pub fn wire_mode_histogram(&self) -> Vec<(String, [u64; NUM_WIRE_MODES])> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut rows: Vec<(String, [u64; NUM_WIRE_MODES])> = inner
            .wire_modes
            .lock()
            .iter()
            .map(|(k, v)| (short_type_name(k).to_owned(), v.counts))
            .collect();
        rows.sort();
        rows
    }

    /// As [`Tracer::wire_mode_histogram`], but totalling payload *bytes*
    /// instead of message counts — the per-mode byte breakdown the bench
    /// binaries report.
    pub fn wire_mode_bytes(&self) -> Vec<(String, [u64; NUM_WIRE_MODES])> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut rows: Vec<(String, [u64; NUM_WIRE_MODES])> = inner
            .wire_modes
            .lock()
            .iter()
            .map(|(k, v)| (short_type_name(k).to_owned(), v.bytes))
            .collect();
        rows.sort();
        rows
    }

    /// The log₂ message-size histogram (`bucket i` counts payloads in
    /// `[2^i, 2^(i+1))` bytes; empty payloads land in bucket 0).
    pub fn message_size_histogram(&self) -> [u64; NUM_SIZE_BUCKETS] {
        let mut out = [0u64; NUM_SIZE_BUCKETS];
        if let Some(inner) = &self.inner {
            for (slot, bucket) in out.iter_mut().zip(&inner.size_buckets) {
                *slot = bucket.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Cumulative barrier-wait time, seconds.
    pub fn barrier_wait_secs(&self) -> f64 {
        let Some(inner) = &self.inner else { return 0.0 };
        inner.barrier_wait_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Frames retransmitted (as observed by [`Tracer::record_event`]).
    pub fn retransmit_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.retransmit_events.load(Ordering::Relaxed))
    }

    /// Duplicate frames suppressed (as observed by
    /// [`Tracer::record_event`]).
    pub fn dup_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dup_events.load(Ordering::Relaxed))
    }

    /// Sync payloads that failed to decode (as observed by
    /// [`Tracer::record_event`] with the `"decode_error"` name).
    pub fn decode_error_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.decode_error_events.load(Ordering::Relaxed))
    }

    /// Peers declared down by a failure detector (as observed by
    /// [`Tracer::record_event`] with the `"peer_down"` name).
    pub fn peer_down_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.peer_down_events.load(Ordering::Relaxed))
    }

    /// Supervised recovery attempts (as observed by
    /// [`Tracer::record_event`] with the `"recovery"` name).
    pub fn recovery_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.recovery_events.load(Ordering::Relaxed))
    }

    /// Checkpoint snapshots taken (as observed by
    /// [`Tracer::record_event`] with the `"checkpoint"` name).
    pub fn checkpoint_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.checkpoint_events.load(Ordering::Relaxed))
    }

    /// Exports the recording as a standalone Chrome trace-event JSON
    /// document (load via `chrome://tracing` or Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.add("gluon", self);
        b.finish()
    }

    /// Renders the plain-text per-run summary table (stage totals,
    /// wire-mode histogram, message sizes, reliability events).
    pub fn summary(&self, label: &str) -> String {
        summary::render(self, label)
    }
}

/// Trims a Rust type path down to a readable field label:
/// `gluon::field::MinField<'_, u32>` becomes `MinField<'_, u32>`.
pub fn short_type_name(full: &str) -> &str {
    let head_len = full.find('<').unwrap_or(full.len());
    match full[..head_len].rfind("::") {
        Some(pos) => &full[pos + 2..],
        None => full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), 0);
        t.record_span(0, 0, Stage::Encode, None, 0, 10);
        t.record_event(0, "retransmit", 1, 64);
        t.record_wire_mode("f", 1, 9);
        t.record_message_size(128);
        t.add_barrier_wait(5);
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        assert!(t.wire_mode_histogram().is_empty());
        assert!(t.wire_mode_bytes().is_empty());
        assert_eq!(t.decode_error_events(), 0);
        assert_eq!(t.message_size_histogram(), [0; NUM_SIZE_BUCKETS]);
        assert_eq!(t.barrier_wait_secs(), 0.0);
        assert_eq!(t.dropped_spans(), 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn spans_and_events_round_trip() {
        let t = Tracer::new(2);
        t.record_span(1, 3, Stage::RecvWait, Some(0), 100, 50);
        t.record_event(0, "retransmit", 1, 17);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].host, 1);
        assert_eq!(spans[0].phase, 3);
        assert_eq!(spans[0].stage, Stage::RecvWait);
        assert_eq!(spans[0].peer, Some(0));
        assert_eq!(spans[0].dur_ns, 50);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "retransmit");
        assert_eq!(events[0].bytes, 17);
        assert_eq!(t.retransmit_events(), 1);
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let t = Tracer::with_capacity(1, 4);
        for i in 0..10u64 {
            t.record_span(0, 0, Stage::Encode, None, i, 1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        // The newest four survive.
        assert_eq!(spans[0].start_ns, 6);
        assert_eq!(spans[3].start_ns, 9);
        assert_eq!(t.dropped_spans(), 6);
    }

    #[test]
    fn wire_mode_histogram_accumulates_per_field() {
        let t = Tracer::new(1);
        t.record_wire_mode("core::MinField<u32>", 3, 25);
        t.record_wire_mode("core::MinField<u32>", 3, 17);
        t.record_wire_mode("core::MinField<u32>", 1, 401);
        t.record_wire_mode("SumField<f64>", 2, 33);
        t.record_wire_mode("SumField<f64>", 7, 6); // codec-v2 same_idx
        let h = t.wire_mode_histogram();
        assert_eq!(h.len(), 2);
        assert_eq!(
            h[0],
            ("MinField<u32>".to_owned(), [0, 1, 0, 2, 0, 0, 0, 0, 0])
        );
        assert_eq!(
            h[1],
            ("SumField<f64>".to_owned(), [0, 0, 1, 0, 0, 0, 0, 1, 0])
        );
        let b = t.wire_mode_bytes();
        assert_eq!(
            b[0],
            ("MinField<u32>".to_owned(), [0, 401, 0, 42, 0, 0, 0, 0, 0])
        );
        assert_eq!(
            b[1],
            ("SumField<f64>".to_owned(), [0, 0, 33, 0, 0, 0, 0, 6, 0])
        );
    }

    #[test]
    fn decode_errors_are_counted_like_reliability_events() {
        let t = Tracer::new(2);
        t.record_event(1, "decode_error", 0, 12);
        t.record_event(1, "decode_error", 0, 3);
        assert_eq!(t.decode_error_events(), 2);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "decode_error");
        assert_eq!(events[0].bytes, 12);
    }

    #[test]
    fn fault_tolerance_events_are_counted() {
        let t = Tracer::new(3);
        t.record_event(0, "peer_down", 2, 0);
        t.record_event(1, "recovery", 0, 1);
        t.record_event(1, "recovery", 0, 2);
        t.record_event(2, "checkpoint", 2, 128);
        t.record_event(2, "checkpoint", 2, 128);
        t.record_event(2, "checkpoint", 2, 128);
        assert_eq!(t.peer_down_events(), 1);
        assert_eq!(t.recovery_events(), 2);
        assert_eq!(t.checkpoint_events(), 3);
        // A disabled tracer reports zeros, never panics.
        let off = Tracer::disabled();
        assert_eq!(off.peer_down_events(), 0);
        assert_eq!(off.recovery_events(), 0);
        assert_eq!(off.checkpoint_events(), 0);
    }

    #[test]
    fn message_sizes_land_in_log2_buckets() {
        let t = Tracer::new(1);
        t.record_message_size(0); // bucket 0
        t.record_message_size(1); // bucket 0
        t.record_message_size(9); // bucket 3
        t.record_message_size(1024); // bucket 10
        let h = t.message_size_histogram();
        assert_eq!(h[0], 2);
        assert_eq!(h[3], 1);
        assert_eq!(h[10], 1);
        assert_eq!(h.iter().sum::<u64>(), 4);
    }

    #[test]
    fn clones_share_buffers() {
        let t = Tracer::new(1);
        let t2 = t.clone();
        t2.record_span(0, 0, Stage::Apply, None, 0, 1);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn stage_order_matches_discriminants() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "Stage::ALL order must match discriminants");
        }
    }

    #[test]
    fn now_ns_is_monotone() {
        let t = Tracer::new(1);
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn short_names_strip_paths_but_keep_generics() {
        assert_eq!(
            short_type_name("gluon::field::MinField<'_, u32>"),
            "MinField<'_, u32>"
        );
        assert_eq!(short_type_name("MinField"), "MinField");
        assert_eq!(
            short_type_name("a::b::SumField<alloc::vec::Vec<u8>>"),
            "SumField<alloc::vec::Vec<u8>>"
        );
    }
}
