//! Typed metrics for the Gluon substrate: per-host registries of counters,
//! gauges, and log₂ histograms; a per-host round ledger; and export
//! renderers (Prometheus text exposition via [`MetricsHub::prometheus`],
//! machine-readable JSON via [`json`]).
//!
//! The tracer (`gluon-trace`) answers "what happened, when" with bounded
//! span and event rings and counts nothing; this crate answers "how much,
//! per host" with unbounded-precision counters that CI and calibration
//! tooling can diff. Each fact is counted here once. The per-round record
//! is the sync context's phase log (`SyncStats::phases`); what this crate
//! keeps per round is one 64-bit ledger head per host
//! ([`SyncMetrics::round_end`]), which pins every round's traffic.
//! Every handle follows the tracer's no-op-when-disabled idiom: a
//! [`MetricsHub::disabled`] hub hands out handles whose every operation is
//! a branch on a `None` — safe to thread through the hot path
//! unconditionally.
//!
//! # Deterministic and observed
//!
//! Each host has two registries, and the one a metric is registered in is
//! its declaration. [`HostMetrics::deterministic`] holds what a
//! deterministic run reproduces exactly — payload bytes and messages,
//! wire-mode counts, rounds, pool hits, the round ledger — at any thread
//! count, on any transport, and after a crash recovery.
//! [`HostMetrics::observed`] holds everything else: stage times,
//! critical-path work, checkpoints. The cluster registry
//! ([`MetricsHub::cluster`]) is observed. A run report's fingerprint is the
//! deterministic side, rendered; nothing else decides what it contains.
//!
//! # Allocation discipline
//!
//! Registration ([`Registry::counter`] and friends) allocates and must
//! happen at setup time. After that, every publication — counter adds,
//! gauge stores, histogram observes, ledger folds — is lock-free atomics,
//! so a metrics-enabled sync round performs **zero** heap allocations
//! (enforced by the workspace's alloc-guard test).
//!
//! # Attempt baselines
//!
//! A supervised run may execute several attempts (crash → restore →
//! replay). [`MetricsHub::begin_attempt`] snapshots every metric's current
//! value as its *baseline* and zeroes every gauge, the round ledger
//! included; reads are baseline-relative, so a report built after a
//! recovered run describes the final (successful) attempt — which
//! determinism makes identical, in every non-timing field, to a crash-free
//! run.
//!
//! # Examples
//!
//! ```
//! use gluon_metrics::MetricsHub;
//!
//! let hub = MetricsHub::new(2);
//! let host0 = hub.host(0);
//! let bytes = host0.deterministic().counter("bytes_sent");
//! bytes.add(1024);
//! assert_eq!(host0.deterministic().counter_value("bytes_sent"), 1024);
//! hub.begin_attempt();
//! assert_eq!(host0.deterministic().counter_value("bytes_sent"), 0);
//! assert!(hub.prometheus().contains("gluon_bytes_sent"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of wire modes tracked by the per-mode byte/message counters —
/// the §4.2 mode bytes plus the codec-v2 compressed modes. The codec's
/// `WireMode::ALL` is the source of truth; the core crate's tests pin
/// [`WIRE_MODE_NAMES`] to it.
pub const NUM_WIRE_MODES: usize = 9;

/// Display names of the wire modes, indexed by mode byte.
pub const WIRE_MODE_NAMES: [&str; NUM_WIRE_MODES] = [
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

/// Number of per-round micro-stages whose durations
/// [`SyncMetrics::round_end`] adds to the stage counters. Indices coincide
/// with the first eight `gluon_trace::Stage` variants and with
/// [`STAGE_COUNTER_NAMES`].
pub const NUM_ROUND_STAGES: usize = 8;

/// Number of log₂ buckets a [`Histogram`] tracks (bucket `i` counts
/// observations with `floor(log2(v)) == i`; zero lands in bucket 0).
pub const NUM_HISTOGRAM_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Metric cells and handles
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
    base: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
}

#[derive(Debug)]
struct HistCell {
    buckets: Vec<AtomicU64>,
    base_buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    base_count: AtomicU64,
    base_sum: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: (0..NUM_HISTOGRAM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            base_buckets: (0..NUM_HISTOGRAM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            base_count: AtomicU64::new(0),
            base_sum: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing counter. Cheap to clone; clones share the
/// cell. A default-constructed counter is disabled: every operation is a
/// no-op and every read returns 0.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Value accumulated since the last [`MetricsHub::begin_attempt`].
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| {
            c.value
                .load(Ordering::Relaxed)
                .saturating_sub(c.base.load(Ordering::Relaxed))
        })
    }
}

/// A last-write-wins gauge. Rebaselining resets it to 0.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A log₂ histogram: bucket `i` counts observations whose `floor(log2)`
/// is `i` (zero lands in bucket 0), plus a total count and sum.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistCell>>,
}

/// The log₂ bucket index an observation of `v` lands in.
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(NUM_HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
            c.count.fetch_add(1, Ordering::Relaxed);
            c.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Per-bucket counts since the last rebaseline.
    pub fn buckets(&self) -> [u64; NUM_HISTOGRAM_BUCKETS] {
        let mut out = [0u64; NUM_HISTOGRAM_BUCKETS];
        if let Some(c) = &self.cell {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = c.buckets[i]
                    .load(Ordering::Relaxed)
                    .saturating_sub(c.base_buckets[i].load(Ordering::Relaxed));
            }
        }
        out
    }

    /// Observation count since the last rebaseline.
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| {
            c.count
                .load(Ordering::Relaxed)
                .saturating_sub(c.base_count.load(Ordering::Relaxed))
        })
    }

    /// Observation sum since the last rebaseline.
    pub fn sum(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| {
            c.sum
                .load(Ordering::Relaxed)
                .saturating_sub(c.base_sum.load(Ordering::Relaxed))
        })
    }
}

/// A read-only snapshot of one metric's attempt-relative value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram buckets, count, and sum.
    Histogram {
        /// Per-log₂-bucket counts.
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn rebaseline(&self) {
        match self {
            Metric::Counter(c) => {
                c.base
                    .store(c.value.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                for (b, base) in h.buckets.iter().zip(&h.base_buckets) {
                    base.store(b.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                h.base_count
                    .store(h.count.load(Ordering::Relaxed), Ordering::Relaxed);
                h.base_sum
                    .store(h.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }

    fn read(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(
                c.value
                    .load(Ordering::Relaxed)
                    .saturating_sub(c.base.load(Ordering::Relaxed)),
            ),
            Metric::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
            Metric::Histogram(h) => {
                let mut buckets = vec![0u64; NUM_HISTOGRAM_BUCKETS];
                for (i, slot) in buckets.iter_mut().enumerate() {
                    *slot = h.buckets[i]
                        .load(Ordering::Relaxed)
                        .saturating_sub(h.base_buckets[i].load(Ordering::Relaxed));
                }
                MetricValue::Histogram {
                    buckets,
                    count: h
                        .count
                        .load(Ordering::Relaxed)
                        .saturating_sub(h.base_count.load(Ordering::Relaxed)),
                    sum: h
                        .sum
                        .load(Ordering::Relaxed)
                        .saturating_sub(h.base_sum.load(Ordering::Relaxed)),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    entries: Mutex<Vec<(&'static str, Metric)>>,
}

/// A named collection of metrics. Registration interns by name: asking for
/// the same name twice returns handles to the same cell, which is how
/// independently constructed publishers share a counter.
///
/// Cloning is cheap; clones register into the same collection. A
/// default-constructed registry is disabled and hands out disabled handles.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The no-op registry.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut entries = inner.entries.lock().expect("registry poisoned");
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Counter(c) => {
                    return Counter {
                        cell: Some(c.clone()),
                    }
                }
                other => panic!("metric {name} already registered as a {}", other.kind()),
            }
        }
        let cell = Arc::new(CounterCell::default());
        entries.push((name, Metric::Counter(cell.clone())));
        Counter { cell: Some(cell) }
    }

    /// Registers (or re-fetches) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut entries = inner.entries.lock().expect("registry poisoned");
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Gauge(g) => {
                    return Gauge {
                        cell: Some(g.clone()),
                    }
                }
                other => panic!("metric {name} already registered as a {}", other.kind()),
            }
        }
        let cell = Arc::new(GaugeCell::default());
        entries.push((name, Metric::Gauge(cell.clone())));
        Gauge { cell: Some(cell) }
    }

    /// Registers (or re-fetches) the log₂ histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let mut entries = inner.entries.lock().expect("registry poisoned");
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Histogram(h) => {
                    return Histogram {
                        cell: Some(h.clone()),
                    };
                }
                other => panic!("metric {name} already registered as a {}", other.kind()),
            }
        }
        let cell = Arc::new(HistCell::new());
        entries.push((name, Metric::Histogram(cell.clone())));
        Histogram { cell: Some(cell) }
    }

    /// Attempt-relative values of every registered metric, in registration
    /// order.
    pub fn snapshot(&self) -> Vec<(&'static str, MetricValue)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let entries = inner.entries.lock().expect("registry poisoned");
        entries.iter().map(|(n, m)| (*n, m.read())).collect()
    }

    /// The attempt-relative value of counter `name` (0 when absent, not a
    /// counter, or the registry is disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let entries = inner.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, m)| match m.read() {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Merges one externally captured metric into this registry.
    ///
    /// This is the ingestion half of [`Registry::snapshot`]: the
    /// multi-process launcher ships each worker's snapshot over the wire
    /// and folds it into the parent hub so a socket-cluster report is
    /// shaped exactly like an in-process one. Counters and histograms
    /// accumulate onto any existing value; gauges take the imported value.
    /// Names not seen before are registered on the fly (interned for the
    /// process lifetime, matching the `&'static str` registration API).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn import(&self, name: &str, value: &MetricValue) {
        let Some(inner) = &self.inner else { return };
        let mut entries = inner.entries.lock().expect("registry poisoned");
        let metric = match entries.iter().find(|(n, _)| *n == name) {
            Some((_, m)) => m.clone(),
            None => {
                let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
                let m = match value {
                    MetricValue::Counter(_) => Metric::Counter(Arc::new(CounterCell::default())),
                    MetricValue::Gauge(_) => Metric::Gauge(Arc::new(GaugeCell::default())),
                    MetricValue::Histogram { .. } => Metric::Histogram(Arc::new(HistCell::new())),
                };
                entries.push((interned, m.clone()));
                m
            }
        };
        drop(entries);
        match (&metric, value) {
            (Metric::Counter(c), MetricValue::Counter(v)) => {
                c.value.fetch_add(*v, Ordering::Relaxed);
            }
            (Metric::Gauge(g), MetricValue::Gauge(v)) => {
                g.value.store(*v, Ordering::Relaxed);
            }
            (
                Metric::Histogram(h),
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                },
            ) => {
                for (cell, v) in h.buckets.iter().zip(buckets) {
                    cell.fetch_add(*v, Ordering::Relaxed);
                }
                h.count.fetch_add(*count, Ordering::Relaxed);
                h.sum.fetch_add(*sum, Ordering::Relaxed);
            }
            (m, _) => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    fn rebaseline(&self) {
        let Some(inner) = &self.inner else { return };
        let entries = inner.entries.lock().expect("registry poisoned");
        for (_, m) in entries.iter() {
            m.rebaseline();
        }
    }
}

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HubInner {
    hosts: Vec<HostMetrics>,
    cluster: Registry,
}

/// The run-wide metrics root: per host a deterministic and an observed
/// [`Registry`] (bundled as [`HostMetrics`]), and a cluster-level registry
/// the supervisor publishes into. Cheap to clone; clones share everything.
#[derive(Clone, Debug, Default)]
pub struct MetricsHub {
    inner: Option<Arc<HubInner>>,
}

impl MetricsHub {
    /// An enabled hub for `world_size` hosts.
    pub fn new(world_size: usize) -> MetricsHub {
        MetricsHub {
            inner: Some(Arc::new(HubInner {
                hosts: (0..world_size)
                    .map(|_| HostMetrics {
                        deterministic: Registry::new(),
                        observed: Registry::new(),
                    })
                    .collect(),
                cluster: Registry::new(),
            })),
        }
    }

    /// The no-op hub: every handle it hands out is disabled.
    pub fn disabled() -> MetricsHub {
        MetricsHub { inner: None }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of hosts the hub was sized for (0 when disabled).
    pub fn world_size(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.hosts.len())
    }

    /// The bundled per-host handles for `rank` (all disabled when the hub
    /// is disabled; `rank` is ignored in that case).
    pub fn host(&self, rank: usize) -> HostMetrics {
        match &self.inner {
            Some(i) => i.hosts[rank].clone(),
            None => HostMetrics::disabled(),
        }
    }

    /// The cluster-level registry (supervisor counters: recoveries,
    /// attempts; the socket backend's wire counters). Observed.
    pub fn cluster(&self) -> Registry {
        match &self.inner {
            Some(i) => i.cluster.clone(),
            None => Registry::disabled(),
        }
    }

    /// Marks the start of a (re)attempt: snapshots every metric's current
    /// value, on both sides of every host, as its baseline and zeroes every
    /// gauge, so subsequent reads describe only the newest attempt.
    pub fn begin_attempt(&self) {
        let Some(i) = &self.inner else { return };
        for h in &i.hosts {
            h.deterministic.rebaseline();
            h.observed.rebaseline();
        }
        i.cluster.rebaseline();
    }

    /// Sums the attempt-relative value of counter `name` across all hosts,
    /// on whichever side it was registered.
    pub fn counter_across_hosts(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.hosts
                .iter()
                .map(|h| h.deterministic.counter_value(name) + h.observed.counter_value(name))
                .sum()
        })
    }

    /// Renders every metric in Prometheus text exposition format: one
    /// `# TYPE` header per metric name, one `{host="N"}`-labelled sample
    /// per host (histograms expand into cumulative `_bucket` series plus
    /// `_sum`/`_count`), cluster metrics unlabelled. Values are
    /// attempt-relative. Empty string when disabled.
    pub fn prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = String::new();
        // Union of metric names across hosts, in first-seen order so the
        // exposition is stable for a deterministic run.
        let mut names: Vec<(&'static str, &'static str)> = Vec::new();
        let per_host: Vec<Vec<(&'static str, MetricValue)>> = inner
            .hosts
            .iter()
            .map(|h| {
                let mut snap = h.deterministic.snapshot();
                snap.extend(h.observed.snapshot());
                snap
            })
            .collect();
        for snap in &per_host {
            for (name, value) in snap {
                if !names.iter().any(|(n, _)| n == name) {
                    names.push((name, metric_value_kind(value)));
                }
            }
        }
        for (name, kind) in &names {
            out.push_str(&format!("# TYPE gluon_{name} {kind}\n"));
            for (host, snap) in per_host.iter().enumerate() {
                let Some((_, value)) = snap.iter().find(|(n, _)| n == name) else {
                    continue;
                };
                render_prom_sample(&mut out, name, &format!("host=\"{host}\""), value);
            }
        }
        let cluster = inner.cluster.snapshot();
        for (name, value) in &cluster {
            out.push_str(&format!(
                "# TYPE gluon_{name} {}\n",
                metric_value_kind(value)
            ));
            render_prom_sample(&mut out, name, "", value);
        }
        out
    }
}

fn metric_value_kind(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram { .. } => "histogram",
    }
}

fn render_prom_sample(out: &mut String, name: &str, labels: &str, value: &MetricValue) {
    let brace = |extra: &str| -> String {
        match (labels.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{extra}}}"),
            (false, true) => format!("{{{labels}}}"),
            (false, false) => format!("{{{labels},{extra}}}"),
        }
    };
    match value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
            out.push_str(&format!("gluon_{name}{} {v}\n", brace("")));
        }
        MetricValue::Histogram {
            buckets,
            count,
            sum,
        } => {
            let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, b) in buckets.iter().take(last).enumerate() {
                cum += b;
                // Bucket `i` holds values with floor(log2(v)) == i, whose
                // maximum is 2^(i+1) - 1.
                let le = (1u128 << (i + 1)) - 1;
                out.push_str(&format!(
                    "gluon_{name}_bucket{} {cum}\n",
                    brace(&format!("le=\"{le}\""))
                ));
            }
            out.push_str(&format!(
                "gluon_{name}_bucket{} {count}\n",
                brace("le=\"+Inf\"")
            ));
            out.push_str(&format!("gluon_{name}_sum{} {sum}\n", brace("")));
            out.push_str(&format!("gluon_{name}_count{} {count}\n", brace("")));
        }
    }
}

/// The per-host bundle a publisher needs: the two registries. Obtained
/// from [`MetricsHub::host`].
#[derive(Clone, Debug, Default)]
pub struct HostMetrics {
    deterministic: Registry,
    observed: Registry,
}

impl HostMetrics {
    /// The all-disabled bundle.
    pub fn disabled() -> HostMetrics {
        HostMetrics::default()
    }

    /// Whether the bundle records anything.
    pub fn is_enabled(&self) -> bool {
        self.deterministic.is_enabled()
    }

    /// The host's deterministic registry: what a deterministic run
    /// reproduces exactly, at any thread count, on any transport, after
    /// any recovery.
    pub fn deterministic(&self) -> &Registry {
        &self.deterministic
    }

    /// The host's observed registry: timings, and counts that depend on
    /// the clock, the schedule or the attempt.
    pub fn observed(&self) -> &Registry {
        &self.observed
    }
}

// ---------------------------------------------------------------------------
// Pre-registered publisher bundles
// ---------------------------------------------------------------------------

/// Names of the per-stage cumulative time counters, indexed like the first
/// [`NUM_ROUND_STAGES`] `gluon_trace::Stage` variants (`stage_<name>_ns`).
pub const STAGE_COUNTER_NAMES: [&str; NUM_ROUND_STAGES] = [
    "stage_extract_ns",
    "stage_memo_translate_ns",
    "stage_encode_ns",
    "stage_send_ns",
    "stage_reset_ns",
    "stage_recv_wait_ns",
    "stage_decode_ns",
    "stage_apply_ns",
];

/// Names of the per-mode message counters, indexed like
/// [`WIRE_MODE_NAMES`].
pub const MODE_MSG_COUNTER_NAMES: [&str; NUM_WIRE_MODES] = [
    "wire_msgs_empty",
    "wire_msgs_dense",
    "wire_msgs_bitvec",
    "wire_msgs_indices",
    "wire_msgs_gid_values",
    "wire_msgs_idx_delta",
    "wire_msgs_run_len",
    "wire_msgs_same_idx",
    "wire_msgs_same_run",
];

/// Names of the per-mode payload byte counters, indexed like
/// [`WIRE_MODE_NAMES`].
pub const MODE_BYTE_COUNTER_NAMES: [&str; NUM_WIRE_MODES] = [
    "wire_bytes_empty",
    "wire_bytes_dense",
    "wire_bytes_bitvec",
    "wire_bytes_indices",
    "wire_bytes_gid_values",
    "wire_bytes_idx_delta",
    "wire_bytes_run_len",
    "wire_bytes_same_idx",
    "wire_bytes_same_run",
];

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The sync runtime's pre-registered per-host metrics: wire-mode traffic,
/// stage times, pool hit/miss, rounds, decode errors, and the round
/// ledger. Constructed once per context via [`SyncMetrics::register`];
/// every publication afterwards is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SyncMetrics {
    sync_rounds: Counter,
    collective_ops: Counter,
    bytes_sent: Counter,
    messages_sent: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    decode_errors: Counter,
    checkpoints_saved: Counter,
    stage_ns: [Counter; NUM_ROUND_STAGES],
    mode_msgs: [Counter; NUM_WIRE_MODES],
    mode_bytes: [Counter; NUM_WIRE_MODES],
    payload_bytes: Histogram,
    round_ledger: Gauge,
}

impl SyncMetrics {
    /// The all-disabled bundle.
    pub fn disabled() -> SyncMetrics {
        SyncMetrics::default()
    }

    /// Registers the sync runtime's metrics on `host`: traffic, rounds,
    /// pool hit/miss, decode errors and the round ledger on the
    /// deterministic side; stage times and checkpoints on the observed
    /// side.
    pub fn register(host: &HostMetrics) -> SyncMetrics {
        let (det, obs) = (host.deterministic(), host.observed());
        SyncMetrics {
            sync_rounds: det.counter("sync_rounds"),
            collective_ops: det.counter("collective_ops"),
            bytes_sent: det.counter("bytes_sent"),
            messages_sent: det.counter("messages_sent"),
            pool_hits: det.counter("pool_hits"),
            pool_misses: det.counter("pool_misses"),
            decode_errors: det.counter("decode_errors"),
            checkpoints_saved: obs.counter("checkpoints_saved"),
            stage_ns: STAGE_COUNTER_NAMES.map(|n| obs.counter(n)),
            mode_msgs: MODE_MSG_COUNTER_NAMES.map(|n| det.counter(n)),
            mode_bytes: MODE_BYTE_COUNTER_NAMES.map(|n| det.counter(n)),
            payload_bytes: det.histogram("payload_bytes"),
            round_ledger: det.gauge("round_ledger"),
        }
    }

    /// Whether this bundle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sync_rounds.cell.is_some()
    }

    /// Books one outgoing sync payload: `mode` is the wire-mode byte,
    /// `len` the payload length in bytes.
    #[inline]
    pub fn on_payload(&self, mode: u8, len: u64) {
        if !self.is_enabled() {
            return;
        }
        let m = (mode as usize).min(NUM_WIRE_MODES - 1);
        self.mode_msgs[m].incr();
        self.mode_bytes[m].add(len);
        self.bytes_sent.add(len);
        self.messages_sent.incr();
        self.payload_bytes.observe(len);
    }

    /// Books a send-buffer pool hit.
    #[inline]
    pub fn pool_hit(&self) {
        self.pool_hits.incr();
    }

    /// Books a send-buffer pool miss.
    #[inline]
    pub fn pool_miss(&self) {
        self.pool_misses.incr();
    }

    /// Books one undecodable payload.
    #[inline]
    pub fn on_decode_error(&self) {
        self.decode_errors.incr();
    }

    /// Books one collective operation (termination detection, global sum).
    #[inline]
    pub fn on_collective(&self) {
        self.collective_ops.incr();
    }

    /// Books one checkpoint snapshot.
    #[inline]
    pub fn on_checkpoint(&self) {
        self.checkpoints_saved.incr();
    }

    /// Completes sync round `round`: adds its stage durations to the
    /// cumulative stage counters, counts it, and folds it into the
    /// `round_ledger` gauge.
    ///
    /// The ledger is FNV-1a over the previous head, `round`, and the
    /// attempt-relative running values of the payload bytes and messages,
    /// the nine per-mode payload bytes, and the pool hits and misses.
    /// Folding running values after every round pins what folding each
    /// round's deltas would: two runs end on the same head only if every
    /// round moved the same traffic (up to a 64-bit collision).
    pub fn round_end(&self, round: u64, stage_ns: [u64; NUM_ROUND_STAGES]) {
        if !self.is_enabled() {
            return;
        }
        for (c, ns) in self.stage_ns.iter().zip(stage_ns) {
            c.add(ns);
        }
        self.sync_rounds.incr();
        let running = [&self.bytes_sent, &self.messages_sent]
            .into_iter()
            .chain(&self.mode_bytes)
            .chain([&self.pool_hits, &self.pool_misses])
            .map(Counter::value);
        let words = [self.round_ledger.value(), round]
            .into_iter()
            .chain(running);
        self.round_ledger.set(fnv1a(words));
    }
}

/// The exec pool's pre-registered metrics: parallel operations and the
/// sequential/critical-path work split.
#[derive(Clone, Debug, Default)]
pub struct ExecMetrics {
    parallel_ops: Counter,
    seq_work: Counter,
    crit_work: Counter,
}

impl ExecMetrics {
    /// The all-disabled bundle.
    pub fn disabled() -> ExecMetrics {
        ExecMetrics::default()
    }

    /// Registers the pool's metrics on `host`: operations and total work
    /// are deterministic; the critical path varies with the thread count,
    /// so it is observed.
    pub fn register(host: &HostMetrics) -> ExecMetrics {
        ExecMetrics {
            parallel_ops: host.deterministic().counter("pool_parallel_ops"),
            seq_work: host.deterministic().counter("pool_seq_work"),
            crit_work: host.observed().counter("pool_crit_work"),
        }
    }

    /// Books one metered pool operation: `seq` total work units whose
    /// critical path was `crit` units.
    #[inline]
    pub fn on_work(&self, seq: u64, crit: u64) {
        self.parallel_ops.incr();
        self.seq_work.add(seq);
        self.crit_work.add(crit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host's `round_ledger` gauge.
    fn ledger(host: &HostMetrics) -> u64 {
        match host
            .deterministic()
            .snapshot()
            .into_iter()
            .find(|(n, _)| *n == "round_ledger")
        {
            Some((_, MetricValue::Gauge(v))) => v,
            other => panic!("no round_ledger gauge: {other:?}"),
        }
    }

    /// The ledger head after `rounds` on a fresh host, each round a list of
    /// `(wire mode, payload length)` sends.
    fn ledger_after(rounds: &[&[(u8, u64)]]) -> u64 {
        let hub = MetricsHub::new(1);
        let sm = SyncMetrics::register(&hub.host(0));
        for (round, sends) in rounds.iter().enumerate() {
            for &(mode, len) in *sends {
                sm.on_payload(mode, len);
            }
            sm.round_end(round as u64, [0; NUM_ROUND_STAGES]);
        }
        ledger(&hub.host(0))
    }

    #[test]
    fn disabled_handles_are_noops() {
        let hub = MetricsHub::disabled();
        assert!(!hub.is_enabled());
        let host = hub.host(0);
        assert!(!host.is_enabled());
        let c = host.deterministic().counter("x");
        c.add(7);
        assert_eq!(c.value(), 0);
        let sm = SyncMetrics::register(&host);
        assert!(!sm.is_enabled());
        sm.on_payload(1, 100);
        sm.round_end(0, [0; NUM_ROUND_STAGES]);
        assert!(host.deterministic().snapshot().is_empty());
        assert_eq!(hub.prometheus(), "");
    }

    #[test]
    fn counters_intern_by_name() {
        let r = Registry::new();
        let a = r.counter("n");
        let b = r.counter("n");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        assert_eq!(r.counter_value("n"), 7);
    }

    #[test]
    fn import_merges_snapshots_across_registries() {
        let src = Registry::new();
        src.counter("rounds").add(7);
        src.gauge("depth").set(9);
        let h = src.histogram("payload");
        h.observe(3);
        h.observe(300);

        let dst = Registry::new();
        dst.counter("rounds").add(1); // accumulates under import
        for (name, value) in src.snapshot() {
            dst.import(name, &value);
        }
        // Re-import into the same names a second time: counters and
        // histograms add, gauges overwrite.
        for (name, value) in src.snapshot() {
            dst.import(name, &value);
        }
        assert_eq!(dst.counter_value("rounds"), 1 + 7 + 7);
        let snap = dst.snapshot();
        let get = |n: &str| snap.iter().find(|(k, _)| *k == n).unwrap().1.clone();
        assert_eq!(get("depth"), MetricValue::Gauge(9));
        match get("payload") {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                assert_eq!(count, 4);
                assert_eq!(sum, 2 * 303);
                assert_eq!(buckets[log2_bucket(3)], 2);
                assert_eq!(buckets[log2_bucket(300)], 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn import_kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("n");
        r.import("n", &MetricValue::Gauge(1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("n");
        let _ = r.gauge("n");
    }

    #[test]
    fn rebaseline_resets_reads() {
        let hub = MetricsHub::new(1);
        let c = hub.host(0).deterministic().counter("c");
        let h = hub.host(0).deterministic().histogram("h");
        c.add(10);
        h.observe(5);
        hub.begin_attempt();
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        c.add(2);
        h.observe(9);
        assert_eq!(c.value(), 2);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 9);
        assert_eq!(h.buckets()[3], 1);
    }

    #[test]
    fn log2_buckets_match_convention() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn sync_metrics_book_traffic_rounds_and_stage_times() {
        let hub = MetricsHub::new(2);
        let sm = SyncMetrics::register(&hub.host(0));
        sm.on_payload(1, 100);
        sm.on_payload(3, 50);
        sm.pool_hit();
        let mut stage = [0u64; NUM_ROUND_STAGES];
        stage[5] = 77;
        sm.round_end(0, stage);
        sm.on_payload(1, 10);
        sm.pool_miss();
        sm.round_end(1, [0; NUM_ROUND_STAGES]);
        let host = hub.host(0);
        let det = host.deterministic();
        assert_eq!(det.counter_value("sync_rounds"), 2);
        assert_eq!(det.counter_value(MODE_BYTE_COUNTER_NAMES[1]), 110);
        assert_eq!(det.counter_value(MODE_BYTE_COUNTER_NAMES[3]), 50);
        assert_eq!(det.counter_value(MODE_MSG_COUNTER_NAMES[1]), 2);
        assert_eq!(det.counter_value("pool_hits"), 1);
        assert_eq!(det.counter_value("pool_misses"), 1);
        assert_eq!(host.observed().counter_value("stage_recv_wait_ns"), 77);
        assert_eq!(det.counter_value("stage_recv_wait_ns"), 0);
        assert_eq!(hub.counter_across_hosts("bytes_sent"), 160);
        assert_eq!(hub.counter_across_hosts("stage_recv_wait_ns"), 77);
    }

    #[test]
    fn round_ledger_pins_how_traffic_split_across_rounds() {
        let rounds: [&[(u8, u64)]; 2] = [&[(1, 100), (3, 50)], &[(1, 10)]];
        let head = ledger_after(&rounds);
        assert_ne!(head, 0);
        assert_eq!(head, ledger_after(&rounds), "same rounds, same ledger");
        // The same totals, with one send moved to the other round.
        assert_ne!(head, ledger_after(&[&[(1, 100)], &[(3, 50), (1, 10)]]));
        // The same bytes per round, one send in another wire mode.
        assert_ne!(head, ledger_after(&[&[(1, 100), (4, 50)], &[(1, 10)]]));
        // One more round that sends nothing.
        assert_ne!(head, ledger_after(&[rounds[0], rounds[1], &[]]));
    }

    #[test]
    fn begin_attempt_zeroes_the_round_ledger() {
        let hub = MetricsHub::new(1);
        let sm = SyncMetrics::register(&hub.host(0));
        sm.on_payload(1, 100);
        sm.round_end(0, [0; NUM_ROUND_STAGES]);
        let first = ledger(&hub.host(0));
        assert_ne!(first, 0);
        hub.begin_attempt();
        assert_eq!(ledger(&hub.host(0)), 0);
        // The ledger folds attempt-relative values, so a replay of the same
        // round reaches the same head.
        sm.on_payload(1, 100);
        sm.round_end(0, [0; NUM_ROUND_STAGES]);
        assert_eq!(ledger(&hub.host(0)), first);
    }

    #[test]
    fn begin_attempt_rebaselines_both_sides_and_import_keeps_the_side() {
        let src = MetricsHub::new(1);
        let host = src.host(0);
        let bytes = host.deterministic().counter("bytes_sent");
        let waited = host.observed().counter("stage_recv_wait_ns");
        bytes.add(5);
        waited.add(7);
        src.begin_attempt();
        assert_eq!(bytes.value(), 0);
        assert_eq!(waited.value(), 0);
        bytes.add(3);
        waited.add(4);

        // What the multi-process launcher does: ship each side's snapshot
        // and import it into the same side of another hub.
        let dst = MetricsHub::new(1);
        let into = dst.host(0);
        for (name, value) in host.deterministic().snapshot() {
            into.deterministic().import(name, &value);
        }
        for (name, value) in host.observed().snapshot() {
            into.observed().import(name, &value);
        }
        assert_eq!(into.deterministic().counter_value("bytes_sent"), 3);
        assert_eq!(into.observed().counter_value("stage_recv_wait_ns"), 4);
        assert!(into
            .deterministic()
            .snapshot()
            .iter()
            .all(|(n, _)| *n != "stage_recv_wait_ns"));
        assert!(into
            .observed()
            .snapshot()
            .iter()
            .all(|(n, _)| *n != "bytes_sent"));
    }

    #[test]
    fn prometheus_renders_counters_and_histograms() {
        let hub = MetricsHub::new(2);
        hub.host(0).deterministic().counter("bytes_sent").add(100);
        hub.host(1).deterministic().counter("bytes_sent").add(50);
        hub.host(1).observed().counter("stage_send_ns").add(9);
        let h = hub.host(0).deterministic().histogram("payload_bytes");
        h.observe(3);
        h.observe(100);
        hub.cluster().counter("recoveries").incr();
        let text = hub.prometheus();
        assert!(text.contains("# TYPE gluon_bytes_sent counter\n"));
        assert!(text.contains("gluon_bytes_sent{host=\"0\"} 100\n"));
        assert!(text.contains("gluon_bytes_sent{host=\"1\"} 50\n"));
        assert!(text.contains("# TYPE gluon_payload_bytes histogram\n"));
        assert!(text.contains("gluon_payload_bytes_bucket{host=\"0\",le=\"3\"} 1\n"));
        assert!(text.contains("gluon_payload_bytes_bucket{host=\"0\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("gluon_payload_bytes_sum{host=\"0\"} 103\n"));
        assert!(text.contains("gluon_stage_send_ns{host=\"1\"} 9\n"));
        assert!(text.contains("gluon_recoveries 1\n"));
    }

    #[test]
    fn exec_metrics_accumulate() {
        let hub = MetricsHub::new(1);
        let host = hub.host(0);
        let em = ExecMetrics::register(&host);
        em.on_work(100, 30);
        em.on_work(10, 10);
        let det = host.deterministic();
        assert_eq!(det.counter_value("pool_parallel_ops"), 2);
        assert_eq!(det.counter_value("pool_seq_work"), 110);
        assert_eq!(host.observed().counter_value("pool_crit_work"), 40);
    }
}
