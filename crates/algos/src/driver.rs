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
//! so the full suite can run over jittered, faulty, or reliable transport
//! stacks (e.g. `ReliableTransport::over(FaultyTransport::new(..))` for
//! chaos testing); `.tracer(&t)` records micro-stage spans.

use crate::apps::{self, PagerankConfig};
use crate::reference::symmetrize;
use crate::{Algorithm, EngineKind};
use gluon::{CheckpointStore, GluonContext, OptLevel, Pool, RunStats, SyncError, SyncStats};
use gluon_graph::{max_out_degree_node, Csr, Gid};
use gluon_metrics::{ExecMetrics, MetricsHub, NetMetrics};
use gluon_net::{
    run_cluster_fallible, run_cluster_wrapped, CancelToken, Communicator, CostModel,
    MemoryTransport, NetError, NetStats, ReliableConfig, ReliableTransport, SocketFactory,
    SocketKind, SocketTransport, StatsSnapshot, Transport,
};
use gluon_partition::{partition_on_host, LocalGraph, PartitionStats, Policy};
use gluon_trace::{Stage, Tracer, SETUP_PHASE};
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
enum Workload {
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
    reliable: Option<ReliableConfig>,
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
        let mut run = Run::with_workload(graph, Workload::Betweenness);
        run.source = Some(source);
        run
    }

    fn with_workload(graph: &'g Csr, workload: Workload) -> Run<'g> {
        let defaults = DistConfig::new(4);
        Run {
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
            reliable: None,
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
        self.hosts = hosts;
        self
    }

    /// Partitioning policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Communication optimization level.
    #[must_use]
    pub fn opt_level(mut self, opts: OptLevel) -> Self {
        self.opts = opts;
        self
    }

    /// Shared-memory compute engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets hosts, policy, optimization level, and engine at once.
    #[must_use]
    pub fn config(mut self, cfg: &DistConfig) -> Self {
        self.hosts = cfg.hosts;
        self.policy = cfg.policy;
        self.opts = cfg.opts;
        self.engine = cfg.engine;
        self
    }

    /// Source node for bfs/sssp/betweenness (default: the maximum
    /// out-degree node).
    #[must_use]
    pub fn source(mut self, source: Gid) -> Self {
        self.source = Some(source);
        self
    }

    /// Pagerank settings (damping, tolerance, iteration cap).
    #[must_use]
    pub fn pagerank(mut self, pr: PagerankConfig) -> Self {
        self.pr = pr;
        self
    }

    /// Number of intra-host compute threads. Results are bit-identical
    /// at any value — the deterministic pool chunks work on fixed
    /// boundaries and combines per-chunk results in order.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Records micro-stage spans and sync metrics into `tracer` (size it
    /// with `Tracer::new(hosts)`). After the run, export with
    /// `tracer.chrome_trace_json()` or `tracer.summary(..)`.
    #[must_use]
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Publishes typed metrics into `hub` (size it with
    /// `MetricsHub::new(hosts)`): per-host counters/gauges/histograms,
    /// deterministic and observed, and the per-round time series.
    /// After the run, build a [`crate::RunReport`] with
    /// [`DistOutcome::report`], or scrape [`MetricsHub::prometheus`]
    /// directly. Each supervised attempt rebaselines the hub
    /// ([`MetricsHub::begin_attempt`]), so post-run reads always describe
    /// the final attempt.
    ///
    /// Unlike [`DistOutcome::net`] (frame-level traffic including
    /// reliability overhead and timing-dependent heartbeats), the hub's
    /// `bytes_sent`/`messages_sent` count raw sync payloads, which are
    /// deterministic for a given configuration.
    #[must_use]
    pub fn metrics(mut self, hub: &MetricsHub) -> Self {
        self.metrics = hub.clone();
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
        self.ckpt_every = Some(rounds);
        self
    }

    /// Where checkpoints live (default: a fresh in-memory store per
    /// launch). Pass a [`CheckpointStore::on_disk`] store to survive
    /// process restarts.
    #[must_use]
    pub fn checkpoint_store(mut self, store: CheckpointStore) -> Self {
        self.ckpt_store = Some(store);
        self
    }

    /// What [`Run::try_launch`]'s supervisor does when a host failure is
    /// detected (default: [`FailurePolicy::Recover`]).
    #[must_use]
    pub fn on_failure(mut self, policy: FailurePolicy) -> Self {
        self.on_failure = policy;
        self
    }

    /// Restart budget for [`FailurePolicy::Recover`] (default: 2). The
    /// supervisor makes at most `1 + max_recoveries` attempts.
    #[must_use]
    pub fn max_recoveries(mut self, max_recoveries: u32) -> Self {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Layers [`ReliableTransport`] (go-back-N retransmission, CRC frame
    /// checks, and — when `config.detector` is set — heartbeat failure
    /// detection) over whatever transport stack the builder produces.
    /// Retransmit exhaustion and detected peer death surface as typed
    /// [`NetError`]s carrying the offending sync round.
    #[must_use]
    pub fn reliable(mut self, config: ReliableConfig) -> Self {
        self.reliable = Some(config);
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
            graph: self.graph,
            workload: self.workload,
            hosts: self.hosts,
            policy: self.policy,
            opts: self.opts,
            engine: self.engine,
            source: self.source,
            pr: self.pr,
            threads: self.threads,
            tracer: self.tracer,
            metrics: self.metrics,
            ckpt_every: self.ckpt_every,
            ckpt_store: self.ckpt_store,
            on_failure: self.on_failure,
            max_recoveries: self.max_recoveries,
            reliable: self.reliable,
            wrap,
        }
    }

    /// Splits the builder into its non-generic settings, the transport
    /// wrapper, and the optional reliability layer.
    fn into_parts(self) -> (Setup<'g>, F, Option<ReliableConfig>) {
        let Run {
            graph,
            workload,
            hosts,
            policy,
            opts,
            engine,
            source,
            pr,
            threads,
            tracer,
            metrics,
            ckpt_every,
            ckpt_store,
            on_failure,
            max_recoveries,
            reliable,
            wrap,
        } = self;
        (
            Setup {
                graph,
                workload,
                hosts,
                policy,
                opts,
                engine,
                source,
                pr,
                threads,
                tracer,
                metrics,
                ckpt_every,
                ckpt_store,
                on_failure,
                max_recoveries,
            },
            wrap,
            reliable,
        )
    }

    /// Executes the run on the simulated cluster. Sync failures panic
    /// inside the host threads ([`Run::try_launch`] surfaces them as
    /// typed errors and can recover from crashes).
    pub fn launch(self) -> DistOutcome {
        let (setup, wrap, reliable) = self.into_parts();
        let tracer = setup.tracer.clone();
        let hub = setup.metrics.clone();
        match reliable {
            Some(cfg) => launch_infallible(&setup, |ep| {
                let net_metrics = NetMetrics::register(&hub.host(ep.rank()));
                ReliableTransport::with_config(wrap(ep, 0), cfg)
                    .with_tracer(tracer.clone())
                    .with_metrics(net_metrics)
            }),
            None => launch_infallible(&setup, |ep| wrap(ep, 0)),
        }
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
        let (setup, wrap, reliable) = self.into_parts();
        let algo = match setup.workload {
            Workload::Algo(algo) => algo,
            Workload::Kcore(_) => return Err(RunError::Unsupported("kcore")),
            Workload::Betweenness => return Err(RunError::Unsupported("betweenness")),
        };
        let tracer = setup.tracer.clone();
        let hub = setup.metrics.clone();
        match reliable {
            Some(cfg) => supervise(&setup, algo, &move |ep, attempt| {
                let net_metrics = NetMetrics::register(&hub.host(ep.rank()));
                ReliableTransport::with_config(wrap(ep, attempt), cfg)
                    .with_tracer(tracer.clone())
                    .with_metrics(net_metrics)
            }),
            None => supervise(&setup, algo, &wrap),
        }
    }
}

/// The non-generic half of a [`Run`]: everything but the transport stack.
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

/// The panicking launch path shared by both `reliable` arms of
/// [`Run::launch`].
fn launch_infallible<W, F>(setup: &Setup<'_>, wrap: F) -> DistOutcome
where
    W: Transport,
    F: Fn(MemoryTransport) -> W + Send + Sync,
{
    let workload = setup.workload;
    let engine = setup.engine;
    let pr = setup.pr;
    let source = setup
        .source
        .unwrap_or_else(|| max_out_degree_node(setup.graph));
    let symmetric;
    let (input, int_default): (&Csr, u32) = match workload {
        Workload::Algo(Algorithm::Cc) | Workload::Kcore(_) => {
            symmetric = symmetrize(setup.graph);
            (
                &symmetric,
                if matches!(workload, Workload::Kcore(_)) {
                    0
                } else {
                    u32::MAX
                },
            )
        }
        _ => (setup.graph, u32::MAX),
    };
    let needs_transpose = match workload {
        Workload::Algo(algo) => algo == Algorithm::Pagerank || engine == EngineKind::Ligra,
        Workload::Kcore(_) | Workload::Betweenness => false,
    };
    let compute = |lg: &LocalGraph, ctx: &mut GluonContext<'_, W>| -> HostLabels {
        match workload {
            Workload::Algo(algo) => dispatch(lg, ctx, algo, engine, source, pr),
            Workload::Kcore(k) => {
                let (alive, rounds) = apps::kcore(lg, ctx, k, engine);
                (alive, Vec::new(), rounds)
            }
            Workload::Betweenness => {
                let (delta, levels) = apps::betweenness_source(lg, ctx, source);
                (Vec::new(), delta, levels)
            }
        }
    };
    setup.metrics.begin_attempt();
    let (per_host, stats) =
        run_cluster_wrapped(setup.hosts, NetStats::new(setup.hosts), wrap, |net| {
            host_program(
                net,
                input,
                setup.policy,
                setup.opts,
                setup.threads,
                &setup.tracer,
                &setup.metrics,
                &|_| needs_transpose,
                &compute,
            )
        });
    publish_socket_counters(&setup.metrics, &stats);
    assemble(input.num_nodes() as usize, int_default, per_host, stats)
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

/// Picks the failure to blame an attempt on: the first *peer* failure
/// (crash, detected death, retransmit exhaustion) if any host saw one,
/// else the first error — siblings that merely aborted on the shared
/// cancellation token report [`NetError::Cancelled`], which is a symptom,
/// not a cause.
fn blame(failures: &[(usize, SyncError)]) -> (usize, SyncError) {
    failures
        .iter()
        .copied()
        .find(|(_, e)| matches!(e, SyncError::Net(ne) if ne.is_peer_failure()))
        .unwrap_or(failures[0])
}

/// The supervisor: run attempts, classify failures, restore + replay per
/// the failure policy.
fn supervise<W, F>(setup: &Setup<'_>, algo: Algorithm, wrap: &F) -> Result<DistOutcome, RunError>
where
    W: Transport,
    F: Fn(MemoryTransport, u32) -> W + Send + Sync,
{
    let source = setup
        .source
        .unwrap_or_else(|| max_out_degree_node(setup.graph));
    let symmetric;
    let input: &Csr = match algo {
        Algorithm::Cc => {
            symmetric = symmetrize(setup.graph);
            &symmetric
        }
        _ => setup.graph,
    };
    let needs_transpose = algo == Algorithm::Pagerank || setup.engine == EngineKind::Ligra;
    let store = setup
        .ckpt_store
        .clone()
        .unwrap_or_else(CheckpointStore::in_memory);
    let attempts_allowed = setup.max_recoveries.saturating_add(1);
    let mut recoveries = 0u32;
    let mut last_error: Option<SyncError> = None;
    for attempt in 0..attempts_allowed {
        // Coordinated rollback: every host restores the newest epoch that
        // *all* hosts saved (a host that crashed mid-save leaves that
        // epoch incomplete, so the previous one wins).
        let restore = if attempt == 0 {
            None
        } else {
            store.latest_complete_epoch(setup.hosts)
        };
        let failures = match attempt_once(
            setup,
            algo,
            input,
            source,
            needs_transpose,
            wrap,
            attempt,
            &store,
            restore,
            false,
        ) {
            Ok(mut out) => {
                out.recoveries = recoveries;
                publish_supervisor_counters(&setup.metrics, attempt + 1, recoveries, false);
                return Ok(out);
            }
            Err(failures) => failures,
        };
        // A decode failure is deterministic — replaying the same rounds
        // reproduces it — so no restart can help, whatever the policy.
        if let Some(&(host, error)) = failures
            .iter()
            .find(|(_, e)| matches!(e, SyncError::Decode { .. }))
        {
            return Err(RunError::Host { host, error });
        }
        let (host, error) = blame(&failures);
        last_error = Some(error);
        match setup.on_failure {
            FailurePolicy::AbortClean => return Err(RunError::Aborted { host, error }),
            FailurePolicy::ContinueStale => {
                let Some(epoch) = store.latest_complete_epoch(setup.hosts) else {
                    return Err(RunError::Unrecoverable {
                        attempts: attempt + 1,
                        last: error,
                    });
                };
                setup
                    .tracer
                    .record_event(host, "recovery", host, u64::from(attempt) + 1);
                // Finalize-only relaunch: restore the stale epoch and
                // gather it without computing (zero sync rounds, so no
                // injected crash can re-fire).
                let mut out = attempt_once(
                    setup,
                    algo,
                    input,
                    source,
                    needs_transpose,
                    wrap,
                    attempt + 1,
                    &store,
                    Some(epoch),
                    true,
                )
                .map_err(|f| RunError::Unrecoverable {
                    attempts: attempt + 2,
                    last: blame(&f).1,
                })?;
                out.recoveries = recoveries + 1;
                out.degraded = true;
                publish_supervisor_counters(&setup.metrics, attempt + 2, recoveries + 1, true);
                return Ok(out);
            }
            FailurePolicy::Recover => {
                setup
                    .tracer
                    .record_event(host, "recovery", host, u64::from(attempt) + 1);
                recoveries += 1;
            }
        }
    }
    Err(RunError::Unrecoverable {
        attempts: attempts_allowed,
        last: last_error.expect("at least one attempt ran"),
    })
}

/// Publishes the supervisor's outcome counters into the hub's
/// cluster-level registry. Called after the *final* attempt — every
/// attempt starts by rebaselining the hub, so counters published earlier
/// would read as zero.
fn publish_supervisor_counters(hub: &MetricsHub, attempts: u32, recoveries: u32, degraded: bool) {
    if !hub.is_enabled() {
        return;
    }
    let cluster = hub.cluster();
    cluster.counter("attempts").add(u64::from(attempts));
    cluster.counter("recoveries").add(u64::from(recoveries));
    cluster.gauge("degraded").set(u64::from(degraded));
}

/// One supervised attempt: build a fresh cluster (wrapping endpoints for
/// this attempt number), run the fallible host program on every host, and
/// either assemble a global outcome or report every host's failure.
#[allow(clippy::too_many_arguments)] // private supervisor plumbing
fn attempt_once<W, F>(
    setup: &Setup<'_>,
    algo: Algorithm,
    input: &Csr,
    source: Gid,
    needs_transpose: bool,
    wrap: &F,
    attempt: u32,
    store: &CheckpointStore,
    restore_epoch: Option<u64>,
    finalize_only: bool,
) -> Result<DistOutcome, Vec<(usize, SyncError)>>
where
    W: Transport,
    F: Fn(MemoryTransport, u32) -> W + Send + Sync,
{
    let engine = setup.engine;
    let pr = setup.pr;
    let ckpt = CkptSetup {
        store: store.clone(),
        every: setup.ckpt_every,
        restore_epoch,
        finalize_only,
    };
    let compute = |lg: &LocalGraph, ctx: &mut GluonContext<'_, W>| {
        try_dispatch(lg, ctx, algo, engine, source, pr)
    };
    setup.metrics.begin_attempt();
    let (per_host, stats) = run_cluster_fallible(
        setup.hosts,
        NetStats::new(setup.hosts),
        |ep| wrap(ep, attempt),
        |net, token| {
            try_host_program(
                net,
                token,
                input,
                setup.policy,
                setup.opts,
                setup.threads,
                &setup.tracer,
                &setup.metrics,
                &|_| needs_transpose,
                &compute,
                &ckpt,
            )
        },
    );
    let failures: Vec<(usize, SyncError)> = per_host
        .iter()
        .enumerate()
        .filter_map(|(host, r)| r.as_ref().err().map(|e| (host, *e)))
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let per_host: Vec<HostResult> = per_host
        .into_iter()
        .map(|r| r.expect("no failures"))
        .collect();
    publish_socket_counters(&setup.metrics, &stats);
    Ok(assemble(
        input.num_nodes() as usize,
        u32::MAX,
        per_host,
        stats,
    ))
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
/// Panics if `engines` is empty.
pub fn run_heterogeneous_bfs(
    graph: &Csr,
    policy: Policy,
    opts: OptLevel,
    engines: &[EngineKind],
    source: Gid,
) -> DistOutcome {
    assert!(!engines.is_empty(), "need at least one host");
    let hosts = engines.len();
    let (per_host, stats) = run_cluster_wrapped(
        hosts,
        NetStats::new(hosts),
        |ep| ep,
        |net| {
            host_program(
                net,
                graph,
                policy,
                opts,
                1,
                &Tracer::disabled(),
                &MetricsHub::disabled(),
                &|rank| engines[rank] == EngineKind::Ligra,
                &|lg, ctx| {
                    let (dist, rounds) = apps::bfs(lg, ctx, source, engines[ctx.rank()]);
                    (dist, Vec::new(), rounds)
                },
            )
        },
    );
    assemble(graph.num_nodes() as usize, u32::MAX, per_host, stats)
}

pub(crate) struct HostResult {
    pub(crate) masters_int: Vec<(u32, u32)>,
    pub(crate) masters_f64: Vec<(u32, f64)>,
    pub(crate) rounds: u32,
    pub(crate) stats: SyncStats,
    pub(crate) algo_secs: f64,
    pub(crate) partition_secs: f64,
    pub(crate) partition: LocalGraph,
}

/// What one host's compute body yields: integer labels, float labels
/// (either may be empty), and the number of rounds it ran.
pub(crate) type HostLabels = (Vec<u32>, Vec<f64>, u32);

/// The set-up both host programs open with: this host's partition, its
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

/// The SPMD body every driver shares: partition, set up the Gluon runtime
/// (with a `threads`-wide deterministic pool), run `compute`, and gather
/// this host's master labels.
#[allow(clippy::too_many_arguments)] // private SPMD plumbing, one call site
fn host_program<T: Transport>(
    net: &T,
    input: &Csr,
    policy: Policy,
    opts: OptLevel,
    threads: usize,
    tracer: &Tracer,
    hub: &MetricsHub,
    transpose: &(dyn Fn(usize) -> bool + Sync),
    compute: &(dyn Fn(&LocalGraph, &mut GluonContext<'_, T>) -> HostLabels + Sync),
) -> HostResult {
    let comm = Communicator::with_tracer(net, tracer.clone());
    let (lg, partition_secs) = build_partition(input, policy, &comm, transpose(comm.rank()));
    let host = hub.host(comm.rank());
    let mut ctx = GluonContext::new(&lg, &comm, opts)
        .with_pool(Pool::new(threads).with_metrics(ExecMetrics::register(&host)))
        .with_metrics(host);
    ctx.reset_timer();
    let algo_start = Instant::now();
    let (ints, floats, rounds) = compute(&lg, &mut ctx);
    let algo_secs = algo_start.elapsed().as_secs_f64();
    let masters_int = gather_masters(&lg, &ints);
    let masters_f64 = gather_masters(&lg, &floats);
    HostResult {
        masters_int,
        masters_f64,
        rounds,
        stats: ctx.into_stats(),
        algo_secs,
        partition_secs,
        partition: lg,
    }
}

/// Stitches per-host master labels into global vectors and aggregates the
/// statistics. `int_default` fills nodes no host reported (only relevant
/// while assembling integer labels).
fn assemble(n: usize, int_default: u32, per_host: Vec<HostResult>, stats: NetStats) -> DistOutcome {
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
    let proxies: Vec<u64> = per_host
        .iter()
        .map(|h| u64::from(h.partition.num_proxies()))
        .collect();
    let edges: Vec<u64> = per_host
        .iter()
        .map(|h| h.partition.num_local_edges())
        .collect();
    let global = &per_host[0].partition;
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
            global.global_nodes(),
            global.global_edges(),
            &proxies,
            &edges,
        ),
        net: stats.snapshot(),
        recoveries: 0,
        degraded: false,
    }
}

/// Checkpoint wiring for one supervised attempt.
pub(crate) struct CkptSetup {
    pub(crate) store: CheckpointStore,
    pub(crate) every: Option<u64>,
    pub(crate) restore_epoch: Option<u64>,
    pub(crate) finalize_only: bool,
}

/// The per-host compute closure [`try_host_program`] drives: partition in,
/// owned labels (or a typed sync failure) out.
pub(crate) type HostCompute<'a, T> =
    dyn Fn(&LocalGraph, &mut GluonContext<'_, T>) -> Result<HostLabels, SyncError> + Sync + 'a;

/// The fallible SPMD body [`Run::try_launch`] runs on every host: like
/// [`host_program`], plus checkpoint configuration and failure handling —
/// a failing host trips the cluster-wide cancellation token so blocked
/// siblings abort promptly, *except* when it is itself the simulated
/// crash victim (a real dead host announces nothing; its peers must
/// discover the silence through the failure detector).
#[allow(clippy::too_many_arguments)] // private SPMD plumbing, one call site
pub(crate) fn try_host_program<T: Transport>(
    net: &T,
    token: &CancelToken,
    input: &Csr,
    policy: Policy,
    opts: OptLevel,
    threads: usize,
    tracer: &Tracer,
    hub: &MetricsHub,
    transpose: &(dyn Fn(usize) -> bool + Sync),
    compute: &HostCompute<'_, T>,
    ckpt: &CkptSetup,
) -> Result<HostResult, SyncError> {
    let comm = Communicator::with_tracer(net, tracer.clone());
    let (lg, partition_secs) = build_partition(input, policy, &comm, transpose(comm.rank()));
    let host = hub.host(comm.rank());
    let mut ctx = GluonContext::new(&lg, &comm, opts)
        .with_pool(Pool::new(threads).with_metrics(ExecMetrics::register(&host)))
        .with_metrics(host);
    if ckpt.every.is_some() || ckpt.restore_epoch.is_some() {
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
    let (ints, floats, rounds) = match compute(&lg, &mut ctx) {
        Ok(labels) => labels,
        Err(e) => {
            if !matches!(e, SyncError::Net(NetError::HostCrashed { .. })) {
                token.trip();
            }
            return Err(e);
        }
    };
    let algo_secs = algo_start.elapsed().as_secs_f64();
    let masters_int = gather_masters(&lg, &ints);
    let masters_f64 = gather_masters(&lg, &floats);
    Ok(HostResult {
        masters_int,
        masters_f64,
        rounds,
        stats: ctx.into_stats(),
        algo_secs,
        partition_secs,
        partition: lg,
    })
}

fn dispatch<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    algo: Algorithm,
    engine: EngineKind,
    source: Gid,
    pr: PagerankConfig,
) -> HostLabels {
    match algo {
        Algorithm::Bfs => {
            let (d, rounds) = apps::bfs(lg, ctx, source, engine);
            (d, Vec::new(), rounds)
        }
        Algorithm::Sssp => {
            let (d, rounds) = apps::sssp(lg, ctx, source, engine);
            (d, Vec::new(), rounds)
        }
        Algorithm::Cc => {
            let (l, rounds) = apps::cc(lg, ctx, engine);
            (l, Vec::new(), rounds)
        }
        Algorithm::Pagerank => {
            let (r, iters) = apps::pagerank(lg, ctx, pr, engine);
            (Vec::new(), r, iters)
        }
    }
}

/// As [`dispatch`], through the fallible, checkpoint-aware application
/// entry points.
pub(crate) fn try_dispatch<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    algo: Algorithm,
    engine: EngineKind,
    source: Gid,
    pr: PagerankConfig,
) -> Result<HostLabels, SyncError> {
    Ok(match algo {
        Algorithm::Bfs => {
            let (d, rounds) = apps::try_bfs(lg, ctx, source, engine)?;
            (d, Vec::new(), rounds)
        }
        Algorithm::Sssp => {
            let (d, rounds) = apps::try_sssp(lg, ctx, source, engine)?;
            (d, Vec::new(), rounds)
        }
        Algorithm::Cc => {
            let (l, rounds) = apps::try_cc(lg, ctx, engine)?;
            (l, Vec::new(), rounds)
        }
        Algorithm::Pagerank => {
            let (r, iters) = apps::try_pagerank(lg, ctx, pr, engine)?;
            (Vec::new(), r, iters)
        }
    })
}

fn gather_masters<V: Copy>(lg: &LocalGraph, values: &[V]) -> Vec<(u32, V)> {
    if values.is_empty() {
        return Vec::new();
    }
    lg.masters()
        .map(|m| (lg.gid(m).0, values[m.index()]))
        .collect()
}
