//! `gluon-trace`: structured span tracing for the Gluon sync stack.
//!
//! The paper's evaluation attributes time and bytes to the *stages* of a
//! sync call — extract, address translation, encoding choice, transfer,
//! decode, apply (§4, Figs. 6–10). This crate records *when* each stage
//! ran, cheaply enough to leave compiled in:
//!
//! * **Spans** ([`SpanEvent`]): one timed slice per micro-stage visit,
//!   tagged with host, sync-phase index, [`Stage`], and peer. The runtime
//!   emits them as *contiguous segments* of each sync call, so the child
//!   spans of a phase sum exactly to that phase's recorded `comm_secs`.
//! * **Events** ([`InstantEvent`]): point-in-time occurrences — a
//!   checkpoint written, a payload that failed to decode, a recovery
//!   restart — tagged so faulty runs can be dissected.
//!
//! *How much* — bytes per wire mode, payload sizes, decode errors — is
//! counted once, in `gluon-metrics`' hub (and the
//! transport's `NetStats` traffic matrix), not here.
//!
//! Storage is per-host: every simulated host appends to its own bounded
//! ring buffer, so the hot path never contends with other hosts (the
//! per-buffer lock is single-writer and therefore uncontended). When a
//! buffer overflows, the oldest records are dropped and counted
//! ([`Tracer::dropped_spans`], [`Tracer::dropped_events`]).
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
//! tracer.record_event(1, "recovery", 0, 64);
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
use std::sync::Arc;
use std::time::Instant;

/// Sync-phase spans that are not tied to a numbered phase (e.g. the
/// memoization handshake) carry this sentinel phase index.
pub const SETUP_PHASE: u32 = u32::MAX;

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

/// A point-in-time occurrence (checkpoint, decode error, recovery).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstantEvent {
    /// Host that observed the event.
    pub host: usize,
    /// Stable event name (e.g. `"checkpoint"`, `"recovery"`).
    pub name: &'static str,
    /// Peer involved.
    pub peer: usize,
    /// Bytes associated with the event (a checkpoint's record size).
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
        let at_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.events[host].lock().push(InstantEvent {
            host,
            name,
            peer,
            bytes,
            at_ns,
        });
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

    /// Exports the recording as a standalone Chrome trace-event JSON
    /// document (load via `chrome://tracing` or Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.add("gluon", self);
        b.finish()
    }

    /// Renders the plain-text per-run summary: the truncation banner when a
    /// ring wrapped, per-stage span totals, and retained events per name.
    pub fn summary(&self, label: &str) -> String {
        summary::render(self, label)
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
        t.record_event(0, "recovery", 1, 64);
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_spans(), 0);
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn spans_and_events_round_trip() {
        let t = Tracer::new(2);
        t.record_span(1, 3, Stage::RecvWait, Some(0), 100, 50);
        t.record_event(0, "recovery", 1, 17);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].host, 1);
        assert_eq!(spans[0].phase, 3);
        assert_eq!(spans[0].stage, Stage::RecvWait);
        assert_eq!(spans[0].peer, Some(0));
        assert_eq!(spans[0].dur_ns, 50);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "recovery");
        assert_eq!(events[0].bytes, 17);
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let t = Tracer::with_capacity(1, 4);
        for i in 0..10u64 {
            t.record_span(0, 0, Stage::Encode, None, i, 1);
            t.record_event(0, "checkpoint", 0, i);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        // The newest four survive.
        assert_eq!(spans[0].start_ns, 6);
        assert_eq!(spans[3].start_ns, 9);
        assert_eq!(t.dropped_spans(), 6);
        let events = t.events();
        assert_eq!(
            events.iter().map(|e| e.bytes).collect::<Vec<_>>(),
            [6, 7, 8, 9]
        );
        assert_eq!(t.dropped_events(), 6);
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
}
