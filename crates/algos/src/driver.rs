//! End-to-end drivers: partition, run, gather, aggregate.
//!
//! [`Run`] is the single entry point: a builder that executes one
//! benchmark configuration — algorithm × engine × partitioning policy ×
//! optimization level × host count × intra-host thread count — on the
//! simulated cluster and returns globally assembled labels plus the
//! statistics the paper's tables and figures report.
//!
//! ```ignore
//! let out = Run::new(&graph, Algorithm::Bfs)
//!     .hosts(4)
//!     .policy(Policy::Cvc)
//!     .opt_level(OptLevel::OSTI)
//!     .threads(4)
//!     .launch();
//! ```
//!
//! `.transport(|ep| …)` threads every host's endpoint through a wrapper,
//! so the full suite can run over jittered or fault-injecting transport
//! stacks (`JitterTransport`, `FaultyTransport`); `.tracer(&t)` records
//! micro-stage spans.
//!
//! A host fails in one way that its peers can see: its endpoint closes.
//! A crashed host's thread returns and drops its endpoint (a killed
//! `gluon-host` worker's sockets close), and every peer's next blocking
//! operation on it returns `NetError::PeerDown`. The supervisor then rolls
//! every host back to the newest complete checkpoint epoch.
//!
//! Both deployments of a run share this module's pieces: one SPMD body
//! every host runs (`host_program`), one input preparation, one assembler
//! (`assemble`), and one supervisor loop (`supervise`) over a set of hosts
//! — the threads of this process here, `gluon-host` worker processes in
//! [`crate::launcher`]. [`Run::launch`] is one attempt of the thread set;
//! [`Run::try_launch`] is the supervisor loop over it.

use crate::apps::{self, PagerankConfig};
use crate::reference::symmetrize;
use crate::{Algorithm, EngineKind};
use gluon::{CheckpointStore, GluonContext, OptLevel, Pool, RunStats, SyncError, SyncStats};
use gluon_graph::{max_out_degree_node, Csr, Gid};
use gluon_metrics::{ExecMetrics, MetricsHub};
use gluon_net::{
    run_cluster_fallible, CancelToken, Communicator, CostModel, MemoryTransport, NetError,
    NetStats, SocketFactory, SocketKind, SocketTransport, StatsSnapshot, Transport,
};
use gluon_partition::{partition_on_host, LocalGraph, PartitionStats, Policy};
use gluon_trace::{Stage, Tracer, SETUP_PHASE};
use std::borrow::Cow;
use std::time::Instant;

/// What the supervisor behind [`Run::try_launch`] does once a host failure
/// is detected mid-computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FailurePolicy {
    /// Tear the cluster down, restore every host from the latest complete
    /// checkpoint epoch (from scratch when none exists), and replay
    /// forward — up to [`Run::max_recoveries`] times. Deterministic
    /// execution makes the replay bit-identical to a crash-free run.
    #[default]
    Recover,
    /// Return a typed error as soon as the cluster has stopped; never
    /// restart.
    AbortClean,
    /// Restore the latest complete checkpoint and surface its (stale)
    /// labels as a degraded outcome, without recomputing anything.
    ContinueStale,
}

/// Why a supervised run ([`Run::try_launch`]) could not produce a result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunError {
    /// A host hit a failure that no restart can fix: deterministic replay
    /// of the same rounds would fail identically (e.g. an undecodable
    /// payload on an unprotected transport).
    Host {
        /// The host that reported the failure.
        host: usize,
        /// What it reported.
        error: SyncError,
    },
    /// Every allowed attempt failed (or `ContinueStale` found no complete
    /// checkpoint epoch to fall back to).
    Unrecoverable {
        /// How many attempts were made.
        attempts: u32,
        /// The failure that ended the last attempt.
        last: SyncError,
    },
    /// [`FailurePolicy::AbortClean`] stopped the run at the first
    /// detected failure.
    Aborted {
        /// The host whose failure aborted the run.
        host: usize,
        /// What it reported.
        error: SyncError,
    },
    /// The workload has no fallible/checkpointable path yet (k-core,
    /// betweenness); use [`Run::launch`].
    Unsupported(&'static str),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Host { host, error } => {
                write!(f, "host {host} failed unrecoverably: {error}")
            }
            RunError::Unrecoverable { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            RunError::Aborted { host, error } => {
                write!(f, "aborted on first failure (host {host}): {error}")
            }
            RunError::Unsupported(what) => {
                write!(f, "workload {what} has no supervised execution path")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Host { error, .. }
            | RunError::Aborted { error, .. }
            | RunError::Unrecoverable { last: error, .. } => Some(error),
            RunError::Unsupported(_) => None,
        }
    }
}

/// One benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of simulated hosts.
    pub hosts: usize,
    /// Partitioning policy.
    pub policy: Policy,
    /// Communication optimization level.
    pub opts: OptLevel,
    /// Shared-memory compute engine.
    pub engine: EngineKind,
}

impl DistConfig {
    /// A sensible default: 4 hosts, CVC (the paper's at-scale choice),
    /// full Gluon, the Galois engine.
    pub fn new(hosts: usize) -> DistConfig {
        DistConfig {
            hosts,
            policy: Policy::Cvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        }
    }
}

/// Everything one run produces.
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// Per-global-node integer labels (bfs/sssp distances, cc labels);
    /// empty for pagerank.
    pub int_labels: Vec<u32>,
    /// Per-global-node ranks (pagerank only).
    pub ranks: Vec<f64>,
    /// BSP rounds (or pagerank iterations) executed.
    pub rounds: u32,
    /// Aggregated compute/communication statistics.
    pub run: RunStats,
    /// Per-host raw statistics (phase-aligned).
    pub host_stats: Vec<SyncStats>,
    /// Maximum per-host wall-clock of the algorithm proper (seconds),
    /// excluding partitioning.
    pub algo_secs: f64,
    /// Maximum per-host wall-clock of partitioning + graph construction.
    pub partition_secs: f64,
    /// Partition quality of the configuration.
    pub partition: PartitionStats,
    /// Whole-cluster traffic snapshot at the end of the run.
    pub net: StatsSnapshot,
    /// Supervised restarts it took to produce this result (0 for a
    /// crash-free run, and always 0 from [`Run::launch`]).
    pub recoveries: u32,
    /// True when [`FailurePolicy::ContinueStale`] surfaced the last
    /// checkpoint instead of a completed computation.
    pub degraded: bool,
}

impl DistOutcome {
    /// Total sync-phase communication volume in bytes.
    pub fn comm_bytes(&self) -> u64 {
        self.run.total_bytes
    }

    /// Projected end-to-end time on a real cluster: the BSP compute
    /// critical path (modeled from work units — the simulated hosts share
    /// physical cores, so wall-clock compute cannot show scaling) plus the
    /// communication charged by the network cost model.
    pub fn projected_secs(&self, model: &CostModel) -> f64 {
        self.run.projected_secs(model, gluon::DEFAULT_EDGES_PER_SEC)
    }

    /// As [`projected_secs`](Self::projected_secs), with each host's
    /// compute spread over `cores` cores (bounded by the measured
    /// critical path of its parallel phases).
    pub fn projected_secs_with_cores(&self, model: &CostModel, cores: usize) -> f64 {
        self.run
            .projected_secs_with_cores(model, gluon::DEFAULT_EDGES_PER_SEC, cores)
    }
}

/// What a [`Run`] computes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Workload {
    /// One of the four paper benchmarks.
    Algo(Algorithm),
    /// k-core membership with the given k (input symmetrized internally).
    Kcore(u32),
    /// Single-source betweenness centrality.
    Betweenness,
}

/// The identity transport wrapper the builder starts with. Wrappers are
/// attempt-aware: the supervisor passes the 0-based attempt number so
/// chaos tests can arm fault plans per attempt
/// (`FaultPlan::for_attempt`).
fn identity(ep: MemoryTransport, _attempt: u32) -> MemoryTransport {
    ep
}

/// Builder for one distributed run. Construct with [`Run::new`],
/// [`Run::kcore`], or [`Run::betweenness`]; chain settings; finish with
/// [`launch`](Run::launch).
#[derive(Debug)]
pub struct Run<'g, W = MemoryTransport, F = fn(MemoryTransport, u32) -> MemoryTransport>
where
    W: Transport,
    F: Fn(MemoryTransport, u32) -> W + Send + Sync,
{
    setup: Setup<'g>,
    wrap: F,
}

impl<'g> Run<'g> {
    /// A run of one of the four paper benchmarks with the defaults of
    /// [`DistConfig::new`]: 4 hosts, CVC, OSTI, the Galois engine, one
    /// compute thread per host. bfs/sssp default to the maximum
    /// out-degree source (the paper's §5.1 convention); cc symmetrizes
    /// the input internally.
    pub fn new(graph: &'g Csr, algo: Algorithm) -> Run<'g> {
        Run::with_workload(graph, Workload::Algo(algo))
    }

    /// A k-core membership run (see [`apps::kcore`]): `int_labels` holds
    /// 1 for nodes in the k-core of the undirected view, else 0. The
    /// input is symmetrized internally, like cc.
    pub fn kcore(graph: &'g Csr, k: u32) -> Run<'g> {
        Run::with_workload(graph, Workload::Kcore(k))
    }

    /// A single-source betweenness-centrality run (see
    /// [`apps::betweenness_source`]): `ranks` holds the per-node
    /// dependency values, `rounds` the number of BFS levels.
    pub fn betweenness(graph: &'g Csr, source: Gid) -> Run<'g> {
        Run::with_workload(graph, Workload::Betweenness).source(source)
    }

    fn with_workload(graph: &'g Csr, workload: Workload) -> Run<'g> {
        let defaults = DistConfig::new(4);
        Run {
            setup: Setup {
                graph,
                workload,
                hosts: defaults.hosts,
                policy: defaults.policy,
                opts: defaults.opts,
                engine: defaults.engine,
                source: None,
                pr: PagerankConfig::default(),
                threads: 1,
                tracer: Tracer::disabled(),
                metrics: MetricsHub::disabled(),
                ckpt_every: None,
                ckpt_store: None,
                on_failure: FailurePolicy::Recover,
                max_recoveries: 2,
            },
            wrap: identity,
        }
    }
}

impl<'g, W, F> Run<'g, W, F>
where
    W: Transport,
    F: Fn(MemoryTransport, u32) -> W + Send + Sync,
{
    /// Number of simulated hosts.
    #[must_use]
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.setup.hosts = hosts;
        self
    }

    /// Partitioning policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.setup.policy = policy;
        self
    }

    /// Communication optimization level.
    #[must_use]
    pub fn opt_level(mut self, opts: OptLevel) -> Self {
        self.setup.opts = opts;
        self
    }

    /// Shared-memory compute engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.setup.engine = engine;
        self
    }

    /// Sets hosts, policy, optimization level, and engine at once.
    #[must_use]
    pub fn config(mut self, cfg: &DistConfig) -> Self {
        self.setup.hosts = cfg.hosts;
        self.setup.policy = cfg.policy;
        self.setup.opts = cfg.opts;
        self.setup.engine = cfg.engine;
        self
    }

    /// Source node for bfs/sssp/betweenness (default: the maximum
    /// out-degree node).
    #[must_use]
    pub fn source(mut self, source: Gid) -> Self {
        self.setup.source = Some(source);
        self
    }

    /// Pagerank settings (damping, tolerance, iteration cap).
    #[must_use]
    pub fn pagerank(mut self, pr: PagerankConfig) -> Self {
        self.setup.pr = pr;
        self
    }

    /// Number of intra-host compute threads. Results are bit-identical
    /// at any value — the deterministic pool chunks work on fixed
    /// boundaries and combines per-chunk results in order.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.setup.threads = threads.max(1);
        self
    }

    /// Records micro-stage spans and sync metrics into `tracer` (size it
    /// with `Tracer::new(hosts)`). After the run, export with
    /// `tracer.chrome_trace_json()` or `tracer.summary(..)`.
    #[must_use]
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.setup.tracer = tracer.clone();
        self
    }

    /// Publishes typed metrics into `hub` (size it with
    /// `MetricsHub::new(hosts)`): per-host counters/gauges/histograms,
    /// deterministic and observed, each host's round ledger included.
    /// After the run, build a [`crate::RunReport`] with
    /// [`DistOutcome::report`], or scrape [`MetricsHub::prometheus`]
    /// directly. Each supervised attempt rebaselines the hub
    /// ([`MetricsHub::begin_attempt`]), so post-run reads always describe
    /// the final attempt.
    ///
    /// Unlike [`DistOutcome::net`] (everything handed to the transport,
    /// collectives included), the hub's `bytes_sent`/`messages_sent` count
    /// raw sync payloads, which are deterministic for a given
    /// configuration.
    #[must_use]
    pub fn metrics(mut self, hub: &MetricsHub) -> Self {
        self.setup.metrics = hub.clone();
        self
    }

    /// Enables epoch checkpointing: every `rounds` completed sync rounds
    /// (pagerank: iterations) each host snapshots its owned field state
    /// into the checkpoint store ([`Run::checkpoint_store`], in-memory by
    /// default). Only [`Run::try_launch`] consumes checkpoints; the
    /// steady state stays allocation-free when this is off.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    #[must_use]
    pub fn checkpoint_every(mut self, rounds: u64) -> Self {
        assert!(rounds >= 1, "checkpoint interval must be at least 1 round");
        self.setup.ckpt_every = Some(rounds);
        self
    }

    /// Where checkpoints live (default: a fresh in-memory store per
    /// launch). Pass a [`CheckpointStore::on_disk`] store to survive
    /// process restarts.
    #[must_use]
    pub fn checkpoint_store(mut self, store: CheckpointStore) -> Self {
        self.setup.ckpt_store = Some(store);
        self
    }

    /// What [`Run::try_launch`]'s supervisor does when a host failure is
    /// detected (default: [`FailurePolicy::Recover`]).
    #[must_use]
    pub fn on_failure(mut self, policy: FailurePolicy) -> Self {
        self.setup.on_failure = policy;
        self
    }

    /// Restart budget for [`FailurePolicy::Recover`] (default: 2). The
    /// supervisor makes at most `1 + max_recoveries` attempts.
    #[must_use]
    pub fn max_recoveries(mut self, max_recoveries: u32) -> Self {
        self.setup.max_recoveries = max_recoveries;
        self
    }

    /// Threads every host's endpoint through `wrap`, so the whole run
    /// uses the wrapped transport stack.
    #[must_use]
    pub fn transport<W2, F2>(
        self,
        wrap: F2,
    ) -> Run<'g, W2, impl Fn(MemoryTransport, u32) -> W2 + Send + Sync>
    where
        W2: Transport,
        F2: Fn(MemoryTransport) -> W2 + Send + Sync,
    {
        self.transport_per_attempt(move |ep, _attempt| wrap(ep))
    }

    /// Replaces every host's in-memory endpoint with a real
    /// [`SocketTransport`] bootstrapped in-process through a
    /// [`SocketFactory`]: the run's hosts still live on threads, but all
    /// payload traffic crosses actual TCP-loopback or Unix-domain
    /// sockets. Payload accounting is identical to the memory backend
    /// (the parity contract the socket tests assert); the wire mechanics
    /// land in the `net_socket_*` counters.
    ///
    /// The supervisor's attempt number selects a fresh rendezvous per
    /// attempt, so recovery relaunches rebuild the mesh from scratch.
    ///
    /// # Panics
    ///
    /// A host panics (tearing down the run) if its socket bootstrap
    /// fails.
    #[must_use]
    pub fn transport_sockets(
        self,
        kind: SocketKind,
    ) -> Run<'g, SocketTransport, impl Fn(MemoryTransport, u32) -> SocketTransport + Send + Sync>
    {
        let factory = SocketFactory::new(kind);
        self.transport_per_attempt(move |ep, attempt| {
            factory
                .endpoint(ep.rank(), ep.world_size(), ep.stats().clone(), attempt)
                .expect("socket bootstrap")
        })
    }

    /// As [`Run::transport`], with the supervisor's 0-based attempt
    /// number passed alongside each endpoint — chaos tests use it to arm
    /// fault plans for specific attempts (`FaultPlan::for_attempt`).
    #[must_use]
    pub fn transport_per_attempt<W2, F2>(self, wrap: F2) -> Run<'g, W2, F2>
    where
        W2: Transport,
        F2: Fn(MemoryTransport, u32) -> W2 + Send + Sync,
    {
        Run {
            setup: self.setup,
            wrap,
        }
    }

    /// Executes the run on the simulated cluster: one attempt, without
    /// checkpoints ([`Run::try_launch`] supervises attempts and can
    /// recover from crashes).
    ///
    /// # Panics
    ///
    /// Panics if a host fails, naming the host and its typed error.
    pub fn launch(self) -> DistOutcome {
        self.with_threads(false, |_, threads| {
            threads
                .attempt(0, None, false)
                .unwrap_or_else(|failed| failed.raise())
        })
    }

    /// Executes the run under the crash supervisor: host failures surface
    /// as typed [`RunError`]s instead of panics, and — per
    /// [`Run::on_failure`] — the cluster is restarted from the latest
    /// complete checkpoint epoch and replayed forward. Deterministic
    /// execution makes a recovered run bit-identical to a crash-free one.
    ///
    /// # Errors
    ///
    /// [`RunError::Unsupported`] for k-core/betweenness workloads;
    /// [`RunError::Host`] for deterministic failures (decode errors);
    /// [`RunError::Aborted`]/[`RunError::Unrecoverable`] per the failure
    /// policy.
    pub fn try_launch(self) -> Result<DistOutcome, RunError> {
        match self.setup.workload {
            Workload::Algo(_) => {}
            Workload::Kcore(_) => return Err(RunError::Unsupported("kcore")),
            Workload::Betweenness => return Err(RunError::Unsupported("betweenness")),
        }
        self.with_threads(true, |setup, threads| {
            supervise(
                threads,
                setup.on_failure,
                setup.max_recoveries,
                &setup.tracer,
                &setup.metrics,
            )
            .map_err(|stop| match stop {
                Stop::Fatal((host, error)) => RunError::Host { host, error },
                Stop::Aborted { host, failure } => RunError::Aborted {
                    host,
                    error: failure,
                },
                Stop::Unrecoverable { attempts, last } => {
                    RunError::Unrecoverable { attempts, last }
                }
            })
        })
    }

    /// Hands `body` this run's thread host set with the builder's
    /// transport wrapper. With `checkpoints` the set has a store (the
    /// configured one, else a fresh in-memory one).
    fn with_threads<R>(
        self,
        checkpoints: bool,
        body: impl FnOnce(&Setup<'g>, &mut ThreadSet<'_>) -> R,
    ) -> R {
        let Run { setup, wrap } = self;
        let input = Input::prepare(setup.graph, setup.workload, setup.engine, setup.source);
        let store = checkpoints.then(|| {
            setup
                .ckpt_store
                .clone()
                .unwrap_or_else(CheckpointStore::in_memory)
        });
        let mut threads = Threads {
            setup: &setup,
            input: &input,
            store,
            wrap,
        };
        body(&setup, &mut threads)
    }
}

/// The non-generic half of a [`Run`]: everything but the transport stack.
#[derive(Debug)]
struct Setup<'g> {
    graph: &'g Csr,
    workload: Workload,
    hosts: usize,
    policy: Policy,
    opts: OptLevel,
    engine: EngineKind,
    source: Option<Gid>,
    pr: PagerankConfig,
    threads: usize,
    tracer: Tracer,
    metrics: MetricsHub,
    ckpt_every: Option<u64>,
    ckpt_store: Option<CheckpointStore>,
    on_failure: FailurePolicy,
    max_recoveries: u32,
}

/// What every host of a run partitions, and how.
pub(crate) struct Input<'g> {
    /// The graph, symmetrized for cc and k-core.
    pub(crate) csr: Cow<'g, Csr>,
    /// The integer label of a node no host reports.
    pub(crate) int_default: u32,
    /// Whether hosts build their in-edges (pagerank's pull, D-Ligra's
    /// direction switch).
    pub(crate) needs_transpose: bool,
    /// The bfs/sssp/betweenness source: the given one, else the maximum
    /// out-degree node.
    pub(crate) source: Gid,
}

impl<'g> Input<'g> {
    pub(crate) fn prepare(
        graph: &'g Csr,
        workload: Workload,
        engine: EngineKind,
        source: Option<Gid>,
    ) -> Input<'g> {
        let (csr, int_default) = match workload {
            Workload::Algo(Algorithm::Cc) => (Cow::Owned(symmetrize(graph)), u32::MAX),
            Workload::Kcore(_) => (Cow::Owned(symmetrize(graph)), 0),
            _ => (Cow::Borrowed(graph), u32::MAX),
        };
        let needs_transpose = match workload {
            Workload::Algo(algo) => algo == Algorithm::Pagerank || engine == EngineKind::Ligra,
            Workload::Kcore(_) | Workload::Betweenness => false,
        };
        Input {
            csr,
            int_default,
            needs_transpose,
            source: source.unwrap_or_else(|| max_out_degree_node(graph)),
        }
    }
}

/// Publishes the socket backend's wire-mechanics counters into the hub's
/// cluster registry (Prometheus `gluon_net_socket_*`), which is observed,
/// so the socket-vs-memory parity of the fingerprint is untouched. Both
/// backends go through here: an in-process run with the cluster's shared
/// counters, and every `gluon-host` worker with its own, which the
/// launcher sums into the parent hub's cluster registry. Memory-backend
/// runs never increment them, so publication is skipped when all five
/// are zero. Under a supervisor this runs per attempt and the hub
/// rebaselines between attempts, so the exported values describe the
/// final attempt.
pub(crate) fn publish_socket_counters(hub: &MetricsHub, stats: &NetStats) {
    if !hub.is_enabled() {
        return;
    }
    let pairs = [
        ("net_socket_connects", stats.socket_connects()),
        (
            "net_socket_reconnect_attempts",
            stats.socket_reconnect_attempts(),
        ),
        ("net_socket_frames_sent", stats.socket_frames_sent()),
        ("net_socket_frames_received", stats.socket_frames_received()),
        ("net_socket_short_reads", stats.socket_short_reads()),
    ];
    if pairs.iter().all(|(_, v)| *v == 0) {
        return;
    }
    let cluster = hub.cluster();
    for (name, v) in pairs {
        cluster.counter(name).add(v);
    }
}

/// A set of hosts the supervisor runs attempts on: the threads of this
/// process ([`Threads`]) or `gluon-host` worker processes (the launcher's
/// `Workers`).
pub(crate) trait HostSet {
    /// What a failed host reports.
    type Failure;
    /// What ends the run at once.
    type Fatal;

    /// Number of hosts.
    fn world(&self) -> usize;

    /// Where attempts save checkpoints, if they do.
    fn store(&self) -> Option<&CheckpointStore>;

    /// Runs attempt `n` (0-based) on fresh hosts, each restored from epoch
    /// `restore` when one is given; `finalize_only` gathers the restored
    /// state without computing.
    fn attempt(
        &mut self,
        n: u32,
        restore: Option<u64>,
        finalize_only: bool,
    ) -> Result<DistOutcome, Failed<Self::Failure, Self::Fatal>>;
}

/// How an attempt failed.
pub(crate) enum Failed<F, X> {
    /// The host to blame and what it reported; the [`FailurePolicy`]
    /// decides what happens next.
    Host(usize, F),
    /// A failure no replay can fix (replaying the same rounds reproduces
    /// it, or the harness itself broke): the supervisor stops at once.
    Fatal(X),
}

impl Failed<SyncError, (usize, SyncError)> {
    /// Fails an unsupervised thread run: panics naming the host and its
    /// typed error.
    fn raise(self) -> ! {
        let (Failed::Host(host, error) | Failed::Fatal((host, error))) = self;
        panic!("host {host} failed: {error}")
    }
}

/// Why [`supervise`] ended without an outcome.
pub(crate) enum Stop<F, X> {
    /// An attempt failed fatally.
    Fatal(X),
    /// [`FailurePolicy::AbortClean`] stopped at the first failure.
    Aborted {
        /// The blamed host.
        host: usize,
        /// What it reported.
        failure: F,
    },
    /// Every allowed attempt failed, or [`FailurePolicy::ContinueStale`]
    /// found no complete epoch to serve.
    Unrecoverable {
        /// Attempts made.
        attempts: u32,
        /// The failure that ended the last one.
        last: F,
    },
}

/// The supervisor of both backends: detect → blame → rollback → replay.
/// Runs attempts on `hosts`; a fatal failure stops it at once, and any
/// other is handled per `on_failure` — roll every host back to the newest
/// epoch all of them saved and replay (at most `max_recoveries` times),
/// stop, or serve that epoch as a degraded outcome. Each restart records
/// a `recovery` trace event; the outcome publishes the supervisor
/// counters into `hub`.
pub(crate) fn supervise<H: HostSet + ?Sized>(
    hosts: &mut H,
    on_failure: FailurePolicy,
    max_recoveries: u32,
    tracer: &Tracer,
    hub: &MetricsHub,
) -> Result<DistOutcome, Stop<H::Failure, H::Fatal>> {
    let world = hosts.world();
    let attempts_allowed = max_recoveries.saturating_add(1);
    let mut last = None;
    for attempt in 0..attempts_allowed {
        // Coordinated rollback: every host restores the newest epoch that
        // *all* hosts saved (a host that crashed mid-save leaves that
        // epoch incomplete, so the previous one wins).
        let restore = if attempt == 0 {
            None
        } else {
            hosts.store().and_then(|s| s.latest_complete_epoch(world))
        };
        let (host, failure) = match hosts.attempt(attempt, restore, false) {
            Ok(out) => return Ok(conclude(out, hub, attempt + 1, false)),
            Err(Failed::Fatal(fatal)) => return Err(Stop::Fatal(fatal)),
            Err(Failed::Host(host, failure)) => (host, failure),
        };
        match on_failure {
            FailurePolicy::AbortClean => return Err(Stop::Aborted { host, failure }),
            FailurePolicy::ContinueStale => {
                let Some(epoch) = hosts.store().and_then(|s| s.latest_complete_epoch(world)) else {
                    return Err(Stop::Unrecoverable {
                        attempts: attempt + 1,
                        last: failure,
                    });
                };
                tracer.record_event(host, "recovery", host, u64::from(attempt) + 1);
                // Finalize-only relaunch: restore the stale epoch and
                // gather it without computing (zero sync rounds, so no
                // injected crash can re-fire).
                return match hosts.attempt(attempt + 1, Some(epoch), true) {
                    Ok(out) => Ok(conclude(out, hub, attempt + 2, true)),
                    Err(Failed::Fatal(fatal)) => Err(Stop::Fatal(fatal)),
                    Err(Failed::Host(_, last)) => Err(Stop::Unrecoverable {
                        attempts: attempt + 2,
                        last,
                    }),
                };
            }
            FailurePolicy::Recover => {
                tracer.record_event(host, "recovery", host, u64::from(attempt) + 1);
                last = Some(failure);
            }
        }
    }
    Err(Stop::Unrecoverable {
        attempts: attempts_allowed,
        last: last.expect("at least one attempt ran"),
    })
}

/// Stamps the outcome of the final attempt with the restarts it took and
/// publishes the supervisor counters into the hub's cluster registry —
/// after that attempt, because every attempt starts by rebaselining the
/// hub, so counters published earlier would read as zero.
fn conclude(mut out: DistOutcome, hub: &MetricsHub, attempts: u32, degraded: bool) -> DistOutcome {
    out.recoveries = attempts - 1;
    out.degraded = degraded;
    if hub.is_enabled() {
        let cluster = hub.cluster();
        cluster.counter("attempts").add(u64::from(attempts));
        cluster.counter("recoveries").add(u64::from(out.recoveries));
        cluster.gauge("degraded").set(u64::from(degraded));
    }
    out
}

/// The thread host set: every host a thread of this process, its
/// [`MemoryTransport`] endpoint passed through the run's transport stack
/// with the attempt number.
struct Threads<'s, 'g, F> {
    setup: &'s Setup<'g>,
    input: &'s Input<'g>,
    /// `None` runs without checkpoints ([`Run::launch`]).
    store: Option<CheckpointStore>,
    wrap: F,
}

/// [`Threads`] behind its transport stack's type.
type ThreadSet<'a> = dyn HostSet<Failure = SyncError, Fatal = (usize, SyncError)> + 'a;

impl<W, F> HostSet for Threads<'_, '_, F>
where
    W: Transport,
    F: Fn(MemoryTransport, u32) -> W + Send + Sync,
{
    type Failure = SyncError;
    type Fatal = (usize, SyncError);

    fn world(&self) -> usize {
        self.setup.hosts
    }

    fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    fn attempt(
        &mut self,
        n: u32,
        restore: Option<u64>,
        finalize_only: bool,
    ) -> Result<DistOutcome, Failed<SyncError, (usize, SyncError)>> {
        let (setup, input) = (self.setup, self.input);
        let ckpt = self.store.as_ref().map(|store| CkptSetup {
            store: store.clone(),
            every: setup.ckpt_every,
            restore_epoch: restore,
            finalize_only,
        });
        let Setup {
            workload,
            engine,
            pr,
            ..
        } = *setup;
        let compute = |lg: &LocalGraph, ctx: &mut GluonContext<'_, W>| {
            run_workload(lg, ctx, workload, engine, input.source, pr)
        };
        setup.metrics.begin_attempt();
        let (per_host, stats) = run_cluster_fallible(
            setup.hosts,
            NetStats::new(setup.hosts),
            |ep| (self.wrap)(ep, n),
            |net, token| {
                host_program(
                    net,
                    token,
                    &input.csr,
                    setup.policy,
                    setup.opts,
                    setup.threads,
                    &setup.tracer,
                    &setup.metrics,
                    input.needs_transpose,
                    &compute,
                    ckpt.as_ref(),
                )
            },
        );
        let per_host = settle(per_host)?;
        publish_socket_counters(&setup.metrics, &stats);
        Ok(assemble(
            input.csr.num_nodes() as usize,
            input.int_default,
            per_host,
            stats.snapshot(),
        ))
    }
}

/// Every host's result of a thread attempt, or the failure to stop on: a
/// decode failure is fatal (deterministic — replaying the same rounds
/// reproduces it); otherwise the first *peer* failure (a crash, or a
/// peer's closed endpoint) is blamed, else the first error —
/// siblings that merely aborted on the shared cancellation token report
/// [`NetError::Cancelled`], which is a symptom, not a cause.
fn settle(
    per_host: Vec<Result<HostResult, SyncError>>,
) -> Result<Vec<HostResult>, Failed<SyncError, (usize, SyncError)>> {
    let mut done = Vec::with_capacity(per_host.len());
    let mut failures = Vec::new();
    for (host, result) in per_host.into_iter().enumerate() {
        match result {
            Ok(h) => done.push(h),
            Err(e) => failures.push((host, e)),
        }
    }
    let Some(&first) = failures.first() else {
        return Ok(done);
    };
    if let Some(&fatal) = failures
        .iter()
        .find(|(_, e)| matches!(e, SyncError::Decode { .. }))
    {
        return Err(Failed::Fatal(fatal));
    }
    let (host, error) = failures
        .iter()
        .copied()
        .find(|(_, e)| matches!(e, SyncError::Net(ne) if ne.is_peer_failure()))
        .unwrap_or(first);
    Err(Failed::Host(host, error))
}

/// Runs BFS on a *heterogeneous* cluster: host `h` computes with
/// `engines[h]` — e.g. CPU hosts running the Galois engine next to emulated
/// GPU hosts running the IrGL engine, the deployment of the paper's
/// Figure 1. The sync substrate is engine-agnostic, so mixing engines needs
/// no special handling: every host still alternates compute and the same
/// collective sync sequence.
///
/// # Panics
///
/// Panics if `engines` is empty, or if a host fails (naming the host and
/// its typed error).
pub fn run_heterogeneous_bfs(
    graph: &Csr,
    policy: Policy,
    opts: OptLevel,
    engines: &[EngineKind],
    source: Gid,
) -> DistOutcome {
    assert!(!engines.is_empty(), "need at least one host");
    let hosts = engines.len();
    let (per_host, stats) = run_cluster_fallible(
        hosts,
        NetStats::new(hosts),
        |ep| ep,
        |net, token| {
            let engine = engines[net.rank()];
            host_program(
                net,
                token,
                graph,
                policy,
                opts,
                1,
                &Tracer::disabled(),
                &MetricsHub::disabled(),
                engine == EngineKind::Ligra,
                &|lg, ctx| {
                    let (dist, rounds) = apps::try_bfs(lg, ctx, source, engine)?;
                    Ok((dist, Vec::new(), rounds))
                },
                None,
            )
        },
    );
    let per_host = settle(per_host).unwrap_or_else(|failed| failed.raise());
    assemble(
        graph.num_nodes() as usize,
        u32::MAX,
        per_host,
        stats.snapshot(),
    )
}

/// What one host hands back: its master labels, rounds, statistics and
/// timings, and the four partition scalars [`PartitionStats`] is built
/// from.
pub(crate) struct HostResult {
    pub(crate) masters_int: Vec<(u32, u32)>,
    pub(crate) masters_f64: Vec<(u32, f64)>,
    pub(crate) rounds: u32,
    pub(crate) stats: SyncStats,
    pub(crate) algo_secs: f64,
    pub(crate) partition_secs: f64,
    pub(crate) num_proxies: u64,
    pub(crate) num_local_edges: u64,
    pub(crate) global_nodes: u32,
    pub(crate) global_edges: u64,
}

/// What one host's compute body yields: integer labels, float labels
/// (either may be empty), and the number of rounds it ran.
pub(crate) type HostLabels = (Vec<u32>, Vec<f64>, u32);

/// The set-up the host program opens with: this host's partition, its
/// transpose when the algorithm walks in-edges, then the cluster-wide
/// barrier. Returns the partition and the seconds up to the barrier's
/// return; the construction alone (barrier excluded) is recorded as a
/// [`Stage::Partition`] setup span on the communicator's tracer.
fn build_partition<T: Transport>(
    input: &Csr,
    policy: Policy,
    comm: &Communicator<'_, T>,
    transpose: bool,
) -> (LocalGraph, f64) {
    let tracer = comm.tracer();
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    let mut lg = partition_on_host(input, policy, comm);
    if transpose {
        lg.build_transpose();
    }
    tracer.record_span(
        comm.rank(),
        SETUP_PHASE,
        Stage::Partition,
        None,
        start_ns,
        start.elapsed().as_nanos() as u64,
    );
    comm.barrier();
    (lg, start.elapsed().as_secs_f64())
}

/// Checkpoint wiring for one supervised attempt.
pub(crate) struct CkptSetup {
    pub(crate) store: CheckpointStore,
    pub(crate) every: Option<u64>,
    pub(crate) restore_epoch: Option<u64>,
    pub(crate) finalize_only: bool,
}

/// The per-host compute closure [`host_program`] drives: partition in,
/// owned labels (or a typed sync failure) out.
pub(crate) type HostCompute<'a, T> =
    dyn Fn(&LocalGraph, &mut GluonContext<'_, T>) -> Result<HostLabels, SyncError> + Sync + 'a;

/// Trips the cluster's cancellation token if its host's thread unwinds,
/// so a panicking host cannot leave its siblings waiting on it forever.
struct TripOnUnwind<'a>(&'a CancelToken);

impl Drop for TripOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.trip();
        }
    }
}

/// The SPMD body every host of either backend runs: partition, set up the
/// Gluon runtime (a `threads`-wide deterministic pool, checkpoints as
/// `ckpt` configures), run `compute`, and gather this host's master
/// labels. A failing host trips the cluster-wide cancellation token so
/// blocked siblings abort promptly, *except* when it is itself the
/// simulated crash victim (a real dead host announces nothing; its peers
/// learn of it when its endpoint closes).
#[allow(clippy::too_many_arguments)] // private SPMD plumbing
pub(crate) fn host_program<T: Transport>(
    net: &T,
    token: &CancelToken,
    input: &Csr,
    policy: Policy,
    opts: OptLevel,
    threads: usize,
    tracer: &Tracer,
    hub: &MetricsHub,
    transpose: bool,
    compute: &HostCompute<'_, T>,
    ckpt: Option<&CkptSetup>,
) -> Result<HostResult, SyncError> {
    let _unwinding = TripOnUnwind(token);
    let comm = Communicator::with_tracer(net, tracer.clone());
    let (lg, partition_secs) = build_partition(input, policy, &comm, transpose);
    let host = hub.host(comm.rank());
    let mut ctx = GluonContext::new(&lg, &comm, opts)
        .with_pool(Pool::new(threads).with_metrics(ExecMetrics::register(&host)))
        .with_metrics(host);
    if let Some(ckpt) = ckpt.filter(|c| c.every.is_some() || c.restore_epoch.is_some()) {
        // `every` is absent only on a finalize-only relaunch of a store
        // populated by an earlier configuration; u64::MAX never divides a
        // reachable round, so saving is effectively off.
        ctx = ctx
            .with_checkpoints(ckpt.store.clone(), ckpt.every.unwrap_or(u64::MAX))
            .with_restore_epoch(ckpt.restore_epoch)
            .with_finalize_only(ckpt.finalize_only);
    }
    ctx.reset_timer();
    let algo_start = Instant::now();
    let (ints, floats, rounds) = compute(&lg, &mut ctx).inspect_err(|e| {
        if !matches!(e, SyncError::Net(NetError::HostCrashed { .. })) {
            token.trip();
        }
    })?;
    let algo_secs = algo_start.elapsed().as_secs_f64();
    Ok(HostResult {
        masters_int: gather_masters(&lg, &ints),
        masters_f64: gather_masters(&lg, &floats),
        rounds,
        stats: ctx.into_stats(),
        algo_secs,
        partition_secs,
        num_proxies: u64::from(lg.num_proxies()),
        num_local_edges: lg.num_local_edges(),
        global_nodes: lg.global_nodes(),
        global_edges: lg.global_edges(),
    })
}

/// One host's compute body for `workload`: the fallible, checkpoint-aware
/// entry point of each paper benchmark; k-core and betweenness have none,
/// so their results are wrapped as they are.
pub(crate) fn run_workload<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    workload: Workload,
    engine: EngineKind,
    source: Gid,
    pr: PagerankConfig,
) -> Result<HostLabels, SyncError> {
    Ok(match workload {
        Workload::Algo(Algorithm::Bfs) => {
            let (d, rounds) = apps::try_bfs(lg, ctx, source, engine)?;
            (d, Vec::new(), rounds)
        }
        Workload::Algo(Algorithm::Sssp) => {
            let (d, rounds) = apps::try_sssp(lg, ctx, source, engine)?;
            (d, Vec::new(), rounds)
        }
        Workload::Algo(Algorithm::Cc) => {
            let (l, rounds) = apps::try_cc(lg, ctx, engine)?;
            (l, Vec::new(), rounds)
        }
        Workload::Algo(Algorithm::Pagerank) => {
            let (r, iters) = apps::try_pagerank(lg, ctx, pr, engine)?;
            (Vec::new(), r, iters)
        }
        Workload::Kcore(k) => {
            let (alive, rounds) = apps::kcore(lg, ctx, k, engine);
            (alive, Vec::new(), rounds)
        }
        Workload::Betweenness => {
            let (delta, levels) = apps::betweenness_source(lg, ctx, source);
            (Vec::new(), delta, levels)
        }
    })
}

/// Stitches per-host master labels into global vectors and aggregates the
/// statistics — for either backend. `int_default` fills nodes no host
/// reported (only relevant while assembling integer labels).
pub(crate) fn assemble(
    n: usize,
    int_default: u32,
    per_host: Vec<HostResult>,
    net: StatsSnapshot,
) -> DistOutcome {
    let mut int_labels = Vec::new();
    if per_host.iter().any(|h| !h.masters_int.is_empty()) {
        int_labels = vec![int_default; n];
        for h in &per_host {
            for &(gid, v) in &h.masters_int {
                int_labels[gid as usize] = v;
            }
        }
    }
    let mut ranks = Vec::new();
    if per_host.iter().any(|h| !h.masters_f64.is_empty()) {
        ranks = vec![0.0; n];
        for h in &per_host {
            for &(gid, v) in &h.masters_f64 {
                ranks[gid as usize] = v;
            }
        }
    }
    let host_stats: Vec<SyncStats> = per_host.iter().map(|h| h.stats.clone()).collect();
    let proxies: Vec<u64> = per_host.iter().map(|h| h.num_proxies).collect();
    let edges: Vec<u64> = per_host.iter().map(|h| h.num_local_edges).collect();
    DistOutcome {
        int_labels,
        ranks,
        rounds: per_host.iter().map(|h| h.rounds).max().unwrap_or(0),
        run: RunStats::aggregate(&host_stats),
        host_stats,
        algo_secs: per_host.iter().map(|h| h.algo_secs).fold(0.0, f64::max),
        partition_secs: per_host
            .iter()
            .map(|h| h.partition_secs)
            .fold(0.0, f64::max),
        partition: PartitionStats::from_scalars(
            per_host[0].global_nodes,
            per_host[0].global_edges,
            &proxies,
            &edges,
        ),
        net,
        recoveries: 0,
        degraded: false,
    }
}

fn gather_masters<V: Copy>(lg: &LocalGraph, values: &[V]) -> Vec<(u32, V)> {
    if values.is_empty() {
        return Vec::new();
    }
    lg.masters()
        .map(|m| (lg.gid(m).0, values[m.index()]))
        .collect()
}
