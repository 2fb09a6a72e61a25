//! Multi-process cluster launcher: real SPMD over [`SocketTransport`].
//!
//! Everything else in this workspace simulates a cluster with threads.
//! This module runs the same host program as *separate OS processes*
//! wired together by the socket transport, which is the deployment shape
//! the paper's Gluon actually ships in (one process per host, TCP or
//! MPI underneath). The contract is strict equivalence: a process run
//! must produce labels, payload byte/message/round counters, and a
//! [`crate::RunReport::fingerprint`] bit-identical to the in-memory
//! backend — the socket backend may add wire mechanics, never traffic.
//!
//! Roles:
//!
//! - **Parent** ([`spawn_local_cluster`]): saves the graph to a scratch
//!   directory, spawns `hosts` copies of the `gluon-host` worker binary
//!   on localhost, reads rank 0's advertised rendezvous address from its
//!   stdout and hands it to the other ranks, babysits the processes
//!   under a hang watchdog, and merges the per-rank result files into a
//!   [`DistOutcome`] plus a world-sized [`MetricsHub`] — the same pair
//!   an in-process run yields.
//! - **Worker** ([`gluon_host_main`], wrapped by the `gluon-host`
//!   binary): bootstraps its endpoint (lead or join), runs the shared
//!   fallible host program, and writes its masters + statistics as a
//!   JSON document. Every `f64` crosses the wire as `f64::to_bits()`,
//!   so pagerank ranks survive the round trip bit-for-bit.
//! - **Supervision**: the parent is the process half of the driver's one
//!   supervisor loop. Its host set (`Workers`) runs an attempt as spawn,
//!   rendezvous hand-off, watchdog and result files; the loop it shares
//!   with [`Run::try_launch`] does the rest. A worker that dies (crash
//!   injection via `--crash-at-round`, or a real fault) is observed by its
//!   peers as a typed [`NetError::PeerDown`]; they print `GLUON_ERROR …`
//!   on stderr and exit nonzero. The loop then rolls the cluster back to
//!   the newest complete checkpoint epoch (shared on-disk store) and
//!   relaunches, up to `max_recoveries` times, under
//!   [`FailurePolicy::Recover`]. A decode failure (exit code 4), a
//!   malformed result file, a watchdog kill or a launcher I/O error stops
//!   it at once.

use crate::driver::{
    assemble, host_program, publish_socket_counters, run_workload, supervise, CkptSetup,
    DistOutcome, Failed, FailurePolicy, HostResult, HostSet, Input, Run, Stop, Workload,
};
use crate::{Algorithm, EngineKind, PagerankConfig};
use gluon::{CheckpointStore, PhaseStats, SyncError, SyncStats};
use gluon_graph::{io as graph_io, max_out_degree_node, Csr, Gid};
use gluon_metrics::json::Json;
use gluon_metrics::{
    MetricValue, MetricsHub, Registry, RoundSample, NUM_ROUND_STAGES, NUM_WIRE_MODES,
};
use gluon_net::{
    join, CancelToken, CostModel, NetError, NetStats, Rendezvous, SocketKind, SocketTransport,
    StatsSnapshot, Transport,
};
use gluon_partition::Policy;
use gluon_trace::Tracer;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Worker exit code: bootstrap (socket/graph/argument) failure.
const EXIT_BOOTSTRAP: i32 = 2;
/// Worker exit code: a typed peer failure ended the attempt (recoverable
/// by rollback-restart).
const EXIT_PEER_FAILURE: i32 = 3;
/// Worker exit code: a deterministic decode failure (replay reproduces
/// it, so no restart can help).
const EXIT_DECODE: i32 = 4;

/// Configuration of one multi-process run.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of worker processes (one host each).
    pub hosts: usize,
    /// Benchmark to run.
    pub algo: Algorithm,
    /// Partitioning policy.
    pub policy: Policy,
    /// Communication optimization level.
    pub opts: gluon::OptLevel,
    /// Shared-memory compute engine.
    pub engine: EngineKind,
    /// Compute threads per worker.
    pub threads: usize,
    /// Source node for bfs/sssp; defaults to the maximum out-degree node
    /// (computed once by the parent so every attempt agrees).
    pub source: Option<u32>,
    /// Socket family the mesh uses.
    pub kind: SocketKind,
    /// Checkpoint every this many sync rounds (enables recovery).
    pub ckpt_every: Option<u64>,
    /// Process-level rollback-restarts allowed after worker failures.
    pub max_recoveries: u32,
    /// Fault injection: abort worker `rank` abruptly (no socket
    /// teardown) when it reaches sync round `round` of the first
    /// attempt.
    pub crash: Option<(usize, u64)>,
    /// Path of the `gluon-host` worker binary. When `None`, the
    /// `GLUON_HOST_BIN` environment variable is consulted, then a
    /// `gluon-host` sibling of the current executable.
    pub host_bin: Option<PathBuf>,
    /// Watchdog: kill the cluster and fail if an attempt runs longer
    /// than this.
    pub timeout: Duration,
}

impl ClusterSpec {
    /// A spec with the in-process defaults: CVC, OSTI, Galois, one
    /// thread, TCP loopback, no checkpoints, no recoveries, 120 s
    /// watchdog.
    pub fn new(hosts: usize, algo: Algorithm) -> ClusterSpec {
        ClusterSpec {
            hosts,
            algo,
            policy: Policy::Cvc,
            opts: gluon::OptLevel::OSTI,
            engine: EngineKind::Galois,
            threads: 1,
            source: None,
            kind: SocketKind::Tcp,
            ckpt_every: None,
            max_recoveries: 0,
            crash: None,
            host_bin: None,
            timeout: Duration::from_secs(120),
        }
    }
}

/// Why [`spawn_local_cluster`] could not produce a result.
#[derive(Debug)]
pub enum LaunchError {
    /// Launcher-side I/O failed (scratch dir, graph save, spawn, result
    /// files).
    Io(std::io::Error),
    /// A worker failed in a way no restart can fix (decode failure, or a
    /// malformed result file).
    Fatal(String),
    /// Every allowed attempt failed; `evidence` holds the workers'
    /// `GLUON_ERROR` lines (typed [`NetError`] displays) per attempt.
    Unrecoverable {
        /// Attempts made.
        attempts: u32,
        /// Collected worker error lines.
        evidence: Vec<String>,
    },
    /// The watchdog killed an attempt that outlived [`ClusterSpec::timeout`].
    Hung {
        /// The configured budget that expired.
        timeout: Duration,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Io(e) => write!(f, "launcher I/O failed: {e}"),
            LaunchError::Fatal(what) => write!(f, "unrecoverable worker failure: {what}"),
            LaunchError::Unrecoverable { attempts, evidence } => write!(
                f,
                "gave up after {attempts} attempt(s): {}",
                evidence.last().map_or("no evidence", |s| s.as_str())
            ),
            LaunchError::Hung { timeout } => {
                write!(f, "cluster hung past the {timeout:?} watchdog; killed")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<std::io::Error> for LaunchError {
    fn from(e: std::io::Error) -> LaunchError {
        LaunchError::Io(e)
    }
}

/// What a successful multi-process run yields.
pub struct ClusterOutcome {
    /// The assembled outcome, shaped exactly like an in-process run's.
    pub outcome: DistOutcome,
    /// A world-sized hub holding every worker's imported metrics; pass it
    /// to [`DistOutcome::report`] like an in-process hub.
    pub hub: MetricsHub,
}

/// One worker's decoded result file: its host result plus what only the
/// process backend ships — its rank, its row of the traffic matrices, its
/// registries and its round series.
struct WorkerReport {
    rank: usize,
    host: HostResult,
    net_bytes: Vec<u64>,
    net_messages: Vec<u64>,
    net_scalars: [u64; 4],
    /// The worker's deterministic, observed and cluster registries, in
    /// that order, each imported back into the same registry of the
    /// parent's hub.
    registries: [Vec<(String, MetricValue)>; 3],
    series: Vec<RoundSample>,
}

/// The codec keys of [`WorkerReport::registries`].
const REGISTRY_KEYS: [&str; 3] = ["deterministic", "observed", "cluster"];

fn unique_scratch_dir() -> std::io::Result<PathBuf> {
    static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gluon-run-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn resolve_host_bin(spec: &ClusterSpec) -> Result<PathBuf, LaunchError> {
    if let Some(p) = &spec.host_bin {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("GLUON_HOST_BIN") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe()?;
    let sibling = me.with_file_name("gluon-host");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(LaunchError::Fatal(
        "cannot locate the gluon-host worker binary: set ClusterSpec::host_bin or GLUON_HOST_BIN"
            .to_string(),
    ))
}

/// Runs `spec` as `spec.hosts` separate worker processes on localhost and
/// merges their results. See the module docs for the full protocol.
///
/// # Errors
///
/// [`LaunchError`] on launcher I/O failure, unrecoverable worker
/// failure, exhausted recovery attempts, or a watchdog kill.
///
/// # Panics
///
/// Panics if `spec.hosts` is zero.
pub fn spawn_local_cluster(graph: &Csr, spec: &ClusterSpec) -> Result<ClusterOutcome, LaunchError> {
    assert!(spec.hosts > 0, "cluster needs at least one host");
    let host_bin = resolve_host_bin(spec)?;
    let scratch = unique_scratch_dir()?;
    let result = Workers::new(graph, spec, host_bin, &scratch).and_then(Workers::run);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// The worker-process host set: one `gluon-host` process per rank on
/// localhost, meshed over sockets, all sharing an on-disk checkpoint store
/// in the scratch directory.
struct Workers<'a> {
    spec: &'a ClusterSpec,
    host_bin: PathBuf,
    scratch: &'a Path,
    graph_path: PathBuf,
    nodes: usize,
    /// Picked once by the parent so every attempt agrees.
    source: u32,
    store: CheckpointStore,
    /// Receives the successful attempt's registries and round series.
    hub: MetricsHub,
    /// Every failed worker's error lines, attempt by attempt.
    evidence: Vec<String>,
}

impl<'a> Workers<'a> {
    fn new(
        graph: &Csr,
        spec: &'a ClusterSpec,
        host_bin: PathBuf,
        scratch: &'a Path,
    ) -> Result<Workers<'a>, LaunchError> {
        let graph_path = scratch.join("graph.bin");
        graph_io::save(graph, &graph_path)?;
        Ok(Workers {
            spec,
            host_bin,
            scratch,
            graph_path,
            nodes: graph.num_nodes() as usize,
            source: spec.source.unwrap_or_else(|| max_out_degree_node(graph).0),
            store: CheckpointStore::on_disk(scratch.join("ckpt"))?,
            hub: MetricsHub::new(spec.hosts),
            evidence: Vec::new(),
        })
    }

    /// The supervisor loop over the workers, under
    /// [`FailurePolicy::Recover`] with the spec's restart budget.
    fn run(mut self) -> Result<ClusterOutcome, LaunchError> {
        let hub = self.hub.clone();
        let max_recoveries = self.spec.max_recoveries;
        match supervise(
            &mut self,
            FailurePolicy::Recover,
            max_recoveries,
            &Tracer::disabled(),
            &hub,
        ) {
            Ok(outcome) => Ok(ClusterOutcome { outcome, hub }),
            Err(Stop::Fatal(e)) => Err(e),
            Err(Stop::Unrecoverable { attempts, .. }) => Err(LaunchError::Unrecoverable {
                attempts,
                evidence: self.evidence,
            }),
            Err(Stop::Aborted { .. }) => unreachable!("the launcher only recovers"),
        }
    }

    /// Spawns rank `rank` of attempt `attempt` with `extra` arguments.
    fn spawn(
        &self,
        rank: usize,
        attempt: u32,
        restore: Option<u64>,
        extra: [&str; 2],
    ) -> std::io::Result<Child> {
        let spec = self.spec;
        let mut args = vec![
            "--rank".into(),
            rank.to_string(),
            "--world".into(),
            spec.hosts.to_string(),
            "--graph".into(),
            self.graph_path.display().to_string(),
            "--algo".into(),
            spec.algo.to_string(),
            "--policy".into(),
            spec.policy.name().into(),
            "--opts".into(),
            spec.opts.to_string(),
            "--engine".into(),
            spec.engine.to_string(),
            "--threads".into(),
            spec.threads.to_string(),
            "--source".into(),
            self.source.to_string(),
            "--out".into(),
            self.out_path(rank).display().to_string(),
            "--ckpt-dir".into(),
            self.scratch.join("ckpt").display().to_string(),
        ];
        if let Some(every) = spec.ckpt_every {
            args.push("--ckpt-every".into());
            args.push(every.to_string());
        }
        if let Some(epoch) = restore {
            args.push("--restore-epoch".into());
            args.push(epoch.to_string());
        }
        // Crash injection arms only on the first attempt; the relaunch
        // must be able to finish.
        if let Some((_, round)) = spec
            .crash
            .filter(|&(victim, _)| attempt == 0 && victim == rank)
        {
            args.push("--crash-at-round".into());
            args.push(round.to_string());
        }
        Command::new(&self.host_bin)
            .args(args)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
    }

    fn out_path(&self, rank: usize) -> PathBuf {
        self.scratch.join(format!("out-{rank}.json"))
    }

    fn read_report(&self, rank: usize) -> Result<WorkerReport, LaunchError> {
        let path = self.out_path(rank);
        let text = std::fs::read_to_string(&path)?;
        let report = decode_report(&text)
            .map_err(|e| LaunchError::Fatal(format!("rank {rank} result file: {e}")))?;
        if report.rank != rank {
            return Err(LaunchError::Fatal(format!(
                "result file {} claims rank {}",
                path.display(),
                report.rank
            )));
        }
        Ok(report)
    }
}

/// A launcher-side I/O failure ends the run at once.
impl From<std::io::Error> for Failed<String, LaunchError> {
    fn from(e: std::io::Error) -> Self {
        Failed::Fatal(LaunchError::Io(e))
    }
}

impl HostSet for Workers<'_> {
    /// The failed worker's `GLUON_ERROR` lines, or its exit status.
    type Failure = String;
    type Fatal = LaunchError;

    fn world(&self) -> usize {
        self.spec.hosts
    }

    fn store(&self) -> Option<&CheckpointStore> {
        Some(&self.store)
    }

    /// Workers have no finalize-only mode: the launcher only recovers.
    fn attempt(
        &mut self,
        n: u32,
        restore: Option<u64>,
        finalize_only: bool,
    ) -> Result<DistOutcome, Failed<String, LaunchError>> {
        debug_assert!(!finalize_only, "workers cannot finalize without computing");
        let hosts = self.spec.hosts;
        let listen = match self.spec.kind {
            SocketKind::Tcp => "tcp",
            SocketKind::Unix => "unix",
        };
        let mut children = Children(vec![self.spawn(0, n, restore, ["--listen", listen])?]);
        // The worker prints its advertised rendezvous address before
        // blocking in `lead`, so this read completes as soon as rank 0 has
        // bound — or hits EOF if it died during bootstrap. The pipe stays
        // open for the attempt: the worker must never write into a closed
        // one.
        let leader = &mut children.0[0];
        let mut leader_stdout = BufReader::new(leader.stdout.take().expect("leader stdout piped"));
        let mut line = String::new();
        leader_stdout.read_line(&mut line)?;
        let Some(advertised) = line.trim().strip_prefix("GLUON_RENDEZVOUS ") else {
            let _ = leader.kill();
            return Err(Failed::Fatal(LaunchError::Fatal(format!(
                "rank 0 never advertised a rendezvous: {}",
                stderr_of(leader).trim()
            ))));
        };
        for rank in 1..hosts {
            let child = self.spawn(rank, n, restore, ["--rendezvous", advertised])?;
            children.0.push(child);
        }
        // Watchdog: poll for exits; a worker that hangs past the budget gets
        // the whole cluster killed (by dropping `children`). Peer death
        // propagates through socket EOF, so surviving workers exit on their
        // own within the poll cadence.
        let deadline = Instant::now() + self.spec.timeout;
        let mut statuses: Vec<Option<ExitStatus>> = vec![None; hosts];
        loop {
            for (status, child) in statuses.iter_mut().zip(&mut children.0) {
                if status.is_none() {
                    *status = child.try_wait()?;
                }
            }
            if statuses.iter().all(Option::is_some) {
                break;
            }
            if Instant::now() >= deadline {
                return Err(Failed::Fatal(LaunchError::Hung {
                    timeout: self.spec.timeout,
                }));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut failures = Vec::new();
        let mut fatal = false;
        for (rank, (status, child)) in statuses.into_iter().zip(&mut children.0).enumerate() {
            let status = status.expect("all reaped");
            if status.success() {
                continue;
            }
            let err = stderr_of(child);
            let typed: Vec<&str> = err
                .lines()
                .filter(|l| l.starts_with("GLUON_ERROR"))
                .collect();
            let line = if typed.is_empty() {
                format!(
                    "rank {rank} exited {status} with no typed error: {}",
                    err.trim()
                )
            } else {
                typed.join("; ")
            };
            fatal |= status.code() == Some(EXIT_DECODE);
            failures.push((rank, line));
        }
        let lines = failures.iter().map(|(_, line)| line.clone());
        if fatal {
            return Err(Failed::Fatal(LaunchError::Fatal(
                lines.collect::<Vec<_>>().join("; "),
            )));
        }
        if let Some((rank, line)) = failures.first().cloned() {
            self.evidence.extend(lines);
            return Err(Failed::Host(rank, line));
        }
        let reports = (0..hosts)
            .map(|rank| self.read_report(rank))
            .collect::<Result<Vec<_>, _>>()
            .map_err(Failed::Fatal)?;
        merge_reports(self.nodes, reports, &self.hub).map_err(Failed::Fatal)
    }
}

/// The worker processes of one attempt. Dropping the guard kills and reaps
/// every child not yet reaped, so no early return leaves a worker behind
/// (rank 0 would otherwise block for good in `Rendezvous::lead`).
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Both are no-ops on a child that was already reaped.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Whatever `child` wrote to its piped stderr.
fn stderr_of(child: &mut Child) -> String {
    let mut err = String::new();
    if let Some(stderr) = child.stderr.as_mut() {
        let _ = stderr.read_to_string(&mut err);
    }
    err
}

/// What only the process backend adds to [`assemble`]: check and sum the
/// per-rank traffic matrices (each worker's has only its own row, since
/// sends are recorded at the source), and import every worker's
/// registries and round series into the same places of `hub`.
fn merge_reports(
    n: usize,
    reports: Vec<WorkerReport>,
    hub: &MetricsHub,
) -> Result<DistOutcome, LaunchError> {
    let world = reports.len();
    let mut net = StatsSnapshot {
        bytes: vec![0; world * world],
        messages: vec![0; world * world],
        world_size: world,
        retransmit_bytes: 0,
        retransmit_messages: 0,
        dup_suppressed: 0,
        corruption_detected: 0,
    };
    let mut per_host = Vec::with_capacity(world);
    for r in reports {
        if r.net_bytes.len() != world * world || r.net_messages.len() != world * world {
            return Err(LaunchError::Fatal(format!(
                "rank {} shipped a traffic matrix sized for a different world",
                r.rank
            )));
        }
        for (acc, v) in net.bytes.iter_mut().zip(&r.net_bytes) {
            *acc += v;
        }
        for (acc, v) in net.messages.iter_mut().zip(&r.net_messages) {
            *acc += v;
        }
        let scalars = [
            &mut net.retransmit_bytes,
            &mut net.retransmit_messages,
            &mut net.dup_suppressed,
            &mut net.corruption_detected,
        ];
        for (acc, v) in scalars.into_iter().zip(r.net_scalars) {
            *acc += v;
        }
        let host = hub.host(r.rank);
        let targets = [host.deterministic(), host.observed(), &hub.cluster()];
        for (into, entries) in targets.into_iter().zip(&r.registries) {
            for (name, value) in entries {
                into.import(name, value);
            }
        }
        for sample in &r.series {
            host.series().push(*sample);
        }
        per_host.push(r.host);
    }
    Ok(assemble(n, u32::MAX, per_host, net))
}

// ---------------------------------------------------------------------------
// Worker result codec
// ---------------------------------------------------------------------------
//
// No serialization framework is vendored, but `gluon_metrics::json::Json`
// parses and renders losslessly, so the result file is a JSON document in
// which every f64 travels as its `to_bits()` u64 — the parent reassembles
// pagerank ranks and timings bit-for-bit.

fn jbits(v: f64) -> Json {
    Json::from(v.to_bits())
}

fn ju64s(vs: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(vs.into_iter().map(Json::from).collect())
}

fn registry_entries(registry: &Registry) -> Json {
    Json::Arr(
        registry
            .snapshot()
            .into_iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(c) => ("c", Json::from(c)),
                    MetricValue::Gauge(g) => ("g", Json::from(g)),
                    MetricValue::Histogram {
                        buckets,
                        count,
                        sum,
                    } => (
                        "h",
                        Json::obj([
                            ("b", ju64s(buckets)),
                            ("c", Json::from(count)),
                            ("s", Json::from(sum)),
                        ]),
                    ),
                };
                Json::obj([("n", Json::from(name)), v])
            })
            .collect(),
    )
}

fn encode_report(rank: usize, hr: &HostResult, stats: &NetStats, hub: &MetricsHub) -> Json {
    let snap = stats.snapshot();
    let host = hub.host(rank);
    let series = Json::Arr(
        host.series()
            .rows()
            .into_iter()
            .map(|s| {
                let mut row = vec![s.round];
                row.extend(s.stage_ns);
                row.extend(s.mode_bytes);
                row.extend([
                    s.bytes_sent,
                    s.messages_sent,
                    s.retransmits,
                    s.pool_hits,
                    s.pool_misses,
                ]);
                ju64s(row)
            })
            .collect(),
    );
    let registries = [host.deterministic(), host.observed(), &hub.cluster()];
    let mut doc = vec![
        ("rank", Json::from(rank)),
        ("rounds", Json::from(hr.rounds)),
        ("algo_secs_bits", jbits(hr.algo_secs)),
        ("partition_secs_bits", jbits(hr.partition_secs)),
        (
            "masters_int",
            Json::Arr(
                hr.masters_int
                    .iter()
                    .map(|&(g, v)| ju64s([u64::from(g), u64::from(v)]))
                    .collect(),
            ),
        ),
        (
            "masters_f64",
            Json::Arr(
                hr.masters_f64
                    .iter()
                    .map(|&(g, v)| ju64s([u64::from(g), v.to_bits()]))
                    .collect(),
            ),
        ),
        (
            "stats",
            Json::obj([
                (
                    "phases",
                    Json::Arr(
                        hr.stats
                            .phases
                            .iter()
                            .map(|p| {
                                ju64s([
                                    p.compute_secs.to_bits(),
                                    p.comm_secs.to_bits(),
                                    p.bytes_sent,
                                    p.messages_sent,
                                    p.work_units,
                                    p.crit_work_units,
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("memo_secs_bits", jbits(hr.stats.memo_secs)),
                ("memo_bytes", Json::from(hr.stats.memo_bytes)),
                (
                    "steady_state_allocs",
                    Json::from(hr.stats.steady_state_allocs),
                ),
            ]),
        ),
        (
            "partition",
            Json::obj([
                ("num_proxies", Json::from(hr.num_proxies)),
                ("num_local_edges", Json::from(hr.num_local_edges)),
                ("global_nodes", Json::from(hr.global_nodes)),
                ("global_edges", Json::from(hr.global_edges)),
            ]),
        ),
        (
            "net",
            Json::obj([
                ("bytes", ju64s(snap.bytes)),
                ("messages", ju64s(snap.messages)),
                (
                    "scalars",
                    ju64s([
                        snap.retransmit_bytes,
                        snap.retransmit_messages,
                        snap.dup_suppressed,
                        snap.corruption_detected,
                    ]),
                ),
            ]),
        ),
        ("series", series),
    ];
    doc.extend(
        REGISTRY_KEYS
            .into_iter()
            .zip(registries.map(registry_entries)),
    );
    Json::obj(doc)
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key}"))
}

fn as_u64(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key} is not an integer"))
}

fn u64_items(j: &Json, what: &str) -> Result<Vec<u64>, String> {
    j.items()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{what} holds a non-integer"))
        })
        .collect()
}

fn decode_registry(j: &Json, key: &str) -> Result<Vec<(String, MetricValue)>, String> {
    field(j, key)?
        .items()
        .ok_or_else(|| format!("{key} is not an array"))?
        .iter()
        .map(|entry| {
            let name = field(entry, "n")?
                .as_str()
                .ok_or("registry entry without a name")?
                .to_string();
            let value = if let Some(c) = entry.get("c") {
                MetricValue::Counter(c.as_u64().ok_or("bad counter")?)
            } else if let Some(g) = entry.get("g") {
                MetricValue::Gauge(g.as_u64().ok_or("bad gauge")?)
            } else if let Some(h) = entry.get("h") {
                MetricValue::Histogram {
                    buckets: u64_items(field(h, "b")?, "histogram buckets")?,
                    count: as_u64(h, "c")?,
                    sum: as_u64(h, "s")?,
                }
            } else {
                return Err(format!("registry entry {name} has no value"));
            };
            Ok((name, value))
        })
        .collect()
}

fn pairs(j: &Json, what: &str) -> Result<Vec<(u64, u64)>, String> {
    j.items()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(|row| {
            let row = u64_items(row, what)?;
            if row.len() != 2 {
                return Err(format!("{what} row is not a pair"));
            }
            Ok((row[0], row[1]))
        })
        .collect()
}

fn decode_report(text: &str) -> Result<WorkerReport, String> {
    let j = Json::parse(text).map_err(|e| format!("unparsable JSON: {e:?}"))?;
    let rank = as_u64(&j, "rank")? as usize;
    let masters_int = pairs(field(&j, "masters_int")?, "masters_int")?
        .into_iter()
        .map(|(g, v)| (g as u32, v as u32))
        .collect();
    let masters_f64 = pairs(field(&j, "masters_f64")?, "masters_f64")?
        .into_iter()
        .map(|(g, bits)| (g as u32, f64::from_bits(bits)))
        .collect();
    let stats_j = field(&j, "stats")?;
    let phases = field(stats_j, "phases")?
        .items()
        .ok_or("stats.phases is not an array")?
        .iter()
        .map(|row| {
            let row = u64_items(row, "stats.phases")?;
            if row.len() != 6 {
                return Err("stats.phases row is not 6-wide".to_string());
            }
            Ok(PhaseStats {
                compute_secs: f64::from_bits(row[0]),
                comm_secs: f64::from_bits(row[1]),
                bytes_sent: row[2],
                messages_sent: row[3],
                work_units: row[4],
                crit_work_units: row[5],
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stats = SyncStats {
        phases,
        memo_secs: f64::from_bits(as_u64(stats_j, "memo_secs_bits")?),
        memo_bytes: as_u64(stats_j, "memo_bytes")?,
        steady_state_allocs: as_u64(stats_j, "steady_state_allocs")?,
    };
    let part = field(&j, "partition")?;
    let net = field(&j, "net")?;
    let net_scalars_v = u64_items(field(net, "scalars")?, "net.scalars")?;
    let net_scalars: [u64; 4] = net_scalars_v
        .try_into()
        .map_err(|_| "net.scalars is not 4-wide".to_string())?;
    let [deterministic, observed, cluster] = REGISTRY_KEYS.map(|key| decode_registry(&j, key));
    let registries = [deterministic?, observed?, cluster?];
    const SERIES_WIDTH: usize = 1 + NUM_ROUND_STAGES + NUM_WIRE_MODES + 5;
    let series = field(&j, "series")?
        .items()
        .ok_or("series is not an array")?
        .iter()
        .map(|row| {
            let row = u64_items(row, "series")?;
            if row.len() != SERIES_WIDTH {
                return Err("series row has the wrong width".to_string());
            }
            let mut s = RoundSample {
                round: row[0],
                ..RoundSample::default()
            };
            s.stage_ns.copy_from_slice(&row[1..1 + NUM_ROUND_STAGES]);
            let modes = 1 + NUM_ROUND_STAGES;
            s.mode_bytes
                .copy_from_slice(&row[modes..modes + NUM_WIRE_MODES]);
            let tail = modes + NUM_WIRE_MODES;
            s.bytes_sent = row[tail];
            s.messages_sent = row[tail + 1];
            s.retransmits = row[tail + 2];
            s.pool_hits = row[tail + 3];
            s.pool_misses = row[tail + 4];
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WorkerReport {
        rank,
        host: HostResult {
            masters_int,
            masters_f64,
            rounds: as_u64(&j, "rounds")? as u32,
            stats,
            algo_secs: f64::from_bits(as_u64(&j, "algo_secs_bits")?),
            partition_secs: f64::from_bits(as_u64(&j, "partition_secs_bits")?),
            num_proxies: as_u64(part, "num_proxies")?,
            num_local_edges: as_u64(part, "num_local_edges")?,
            global_nodes: as_u64(part, "global_nodes")? as u32,
            global_edges: as_u64(part, "global_edges")?,
        },
        net_bytes: u64_items(field(net, "bytes")?, "net.bytes")?,
        net_messages: u64_items(field(net, "messages")?, "net.messages")?,
        net_scalars,
        registries,
        series,
    })
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// A transport wrapper that simulates a host dying abruptly: when the
/// application ticks into sync round `at`, the process aborts — no Drop
/// runs, no socket teardown, no farewell frame. Peers learn of the death
/// exactly the way they would learn of a real crash: the kernel closes
/// the sockets and their next receive latches [`NetError::PeerDown`].
struct CrashAt<T> {
    inner: T,
    at: Option<u64>,
}

impl<T: Transport> Transport for CrashAt<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn try_send(&self, dst: usize, tag: u32, payload: bytes::Bytes) -> Result<(), NetError> {
        self.inner.try_send(dst, tag, payload)
    }
    fn try_recv(&self, src: usize, tag: u32) -> Result<bytes::Bytes, NetError> {
        self.inner.try_recv(src, tag)
    }
    fn try_recv_any(&self, tag: u32) -> Result<gluon_net::Envelope, NetError> {
        self.inner.try_recv_any(tag)
    }
    fn try_recv_any_timeout(
        &self,
        tag: u32,
        timeout: Duration,
    ) -> Result<gluon_net::Envelope, NetError> {
        self.inner.try_recv_any_timeout(tag, timeout)
    }
    fn note_round(&self, round: u64) {
        if let Some(at) = self.at {
            if round >= at {
                eprintln!(
                    "GLUON_CRASH rank {} aborting abruptly at round {round}",
                    self.inner.rank()
                );
                std::process::abort();
            }
        }
        self.inner.note_round(round);
    }
    fn cancelled(&self) -> Option<NetError> {
        self.inner.cancelled()
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

struct WorkerArgs {
    rank: usize,
    world: usize,
    graph: PathBuf,
    algo: Algorithm,
    policy: Policy,
    opts: gluon::OptLevel,
    engine: EngineKind,
    threads: usize,
    source: u32,
    listen: Option<String>,
    rendezvous: Option<String>,
    out: PathBuf,
    ckpt_dir: Option<PathBuf>,
    ckpt_every: Option<u64>,
    restore_epoch: Option<u64>,
    crash_at: Option<u64>,
}

fn parse_worker_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut map: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let req = |k: &str| -> Result<&str, String> {
        map.get(k).copied().ok_or_else(|| format!("missing {k}"))
    };
    let parse_num =
        |k: &str| -> Result<u64, String> { req(k)?.parse().map_err(|_| format!("bad {k}")) };
    let opt_num = |k: &str| -> Result<Option<u64>, String> {
        map.get(k)
            .map(|v| v.parse().map_err(|_| format!("bad {k}")))
            .transpose()
    };
    Ok(WorkerArgs {
        rank: parse_num("--rank")? as usize,
        world: parse_num("--world")? as usize,
        graph: PathBuf::from(req("--graph")?),
        algo: req("--algo")?.parse()?,
        policy: req("--policy")?.parse().map_err(|_| "unknown --policy")?,
        opts: req("--opts")?.parse().map_err(|_| "unknown --opts")?,
        engine: req("--engine")?.parse()?,
        threads: parse_num("--threads")? as usize,
        source: parse_num("--source")? as u32,
        listen: map.get("--listen").map(|s| s.to_string()),
        rendezvous: map.get("--rendezvous").map(|s| s.to_string()),
        out: PathBuf::from(req("--out")?),
        ckpt_dir: map.get("--ckpt-dir").map(PathBuf::from),
        ckpt_every: opt_num("--ckpt-every")?,
        restore_epoch: opt_num("--restore-epoch")?,
        crash_at: opt_num("--crash-at-round")?,
    })
}

fn worker_fail(rank: usize, what: impl std::fmt::Display, code: i32) -> i32 {
    eprintln!("GLUON_ERROR rank {rank}: {what}");
    code
}

/// The `gluon-host` worker entry point: parses the argument list, runs
/// one host of the cluster (or the `smoke` self-test), and returns the
/// process exit code. Kept in the library so integration tests and the
/// thin `src/bin/gluon-host.rs` shim share it.
pub fn gluon_host_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("smoke") {
        return run_smoke();
    }
    let args = match parse_worker_args(&args) {
        Ok(a) => a,
        Err(e) => return worker_fail(0, format!("bad arguments: {e}"), EXIT_BOOTSTRAP),
    };
    let rank = args.rank;
    let stats = NetStats::new(args.world);
    let transport = if rank == 0 {
        let rv = match args.listen.as_deref() {
            Some("tcp") => Rendezvous::bind_tcp("127.0.0.1:0"),
            Some("unix") => {
                let dir = args.out.parent().unwrap_or(Path::new("."));
                Rendezvous::bind_unix(&dir.join("rv.sock"))
            }
            other => {
                return worker_fail(
                    rank,
                    format!("rank 0 needs --listen tcp|unix, got {other:?}"),
                    EXIT_BOOTSTRAP,
                )
            }
        };
        let rv = match rv {
            Ok(rv) => rv,
            Err(e) => return worker_fail(rank, format!("bind failed: {e}"), EXIT_BOOTSTRAP),
        };
        println!("GLUON_RENDEZVOUS {}", rv.advertised());
        let _ = std::io::stdout().flush();
        rv.lead(args.world, stats.clone())
    } else {
        let Some(advertised) = args.rendezvous.as_deref() else {
            return worker_fail(rank, "workers need --rendezvous", EXIT_BOOTSTRAP);
        };
        join(advertised, rank, args.world, stats.clone())
    };
    let transport: SocketTransport = match transport {
        Ok(t) => t,
        Err(e) => return worker_fail(rank, format!("bootstrap failed: {e}"), EXIT_BOOTSTRAP),
    };
    let transport = CrashAt {
        inner: transport,
        at: args.crash_at,
    };
    run_worker(&args, transport, stats)
}

fn run_worker(args: &WorkerArgs, transport: CrashAt<SocketTransport>, stats: NetStats) -> i32 {
    let rank = args.rank;
    let graph = match graph_io::load(&args.graph) {
        Ok(g) => g,
        Err(e) => return worker_fail(rank, format!("cannot load graph: {e}"), EXIT_BOOTSTRAP),
    };
    let workload = Workload::Algo(args.algo);
    let input = Input::prepare(&graph, workload, args.engine, Some(Gid(args.source)));
    let store = match &args.ckpt_dir {
        Some(dir) => match CheckpointStore::on_disk(dir) {
            Ok(s) => s,
            Err(e) => return worker_fail(rank, format!("checkpoint store: {e}"), EXIT_BOOTSTRAP),
        },
        None => CheckpointStore::in_memory(),
    };
    let ckpt = CkptSetup {
        store,
        every: args.ckpt_every,
        restore_epoch: args.restore_epoch,
        finalize_only: false,
    };
    let hub = MetricsHub::new(args.world);
    let compute = |lg: &gluon_partition::LocalGraph,
                   ctx: &mut gluon::GluonContext<'_, CrashAt<SocketTransport>>| {
        let pr = PagerankConfig::default();
        run_workload(lg, ctx, workload, args.engine, input.source, pr)
    };
    let result = host_program(
        &transport,
        &CancelToken::new(),
        &input.csr,
        args.policy,
        args.opts,
        args.threads,
        &Tracer::disabled(),
        &hub,
        input.needs_transpose,
        &compute,
        Some(&ckpt),
    );
    match result {
        Ok(hr) => {
            publish_socket_counters(&hub, &stats);
            let doc = encode_report(rank, &hr, &stats, &hub);
            if let Err(e) = std::fs::write(&args.out, doc.render()) {
                return worker_fail(rank, format!("cannot write result: {e}"), EXIT_BOOTSTRAP);
            }
            0
        }
        Err(e) => {
            let code = match e {
                SyncError::Decode { .. } => EXIT_DECODE,
                SyncError::Net(_) => EXIT_PEER_FAILURE,
            };
            worker_fail(rank, e, code)
        }
    }
}

/// The `gluon-host smoke` self-test: a 2-process TCP bfs on a generated
/// graph, checked label-for-label and fingerprint-for-fingerprint
/// against the in-memory backend. Exercises save/spawn/rendezvous/mesh/
/// merge end to end in a few seconds; `scripts/verify.sh` runs it under
/// a watchdog.
fn run_smoke() -> i32 {
    let graph = gluon_graph::gen::rmat(8, 8, Default::default(), 7);
    let mut spec = ClusterSpec::new(2, Algorithm::Bfs);
    spec.host_bin = std::env::current_exe().ok();
    let hub = MetricsHub::new(2);
    let memory = Run::new(&graph, Algorithm::Bfs)
        .hosts(2)
        .metrics(&hub)
        .launch();
    let cluster = match spawn_local_cluster(&graph, &spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("smoke FAILED: {e}");
            return 1;
        }
    };
    if cluster.outcome.int_labels != memory.int_labels {
        eprintln!("smoke FAILED: socket labels diverge from the memory backend");
        return 1;
    }
    if cluster.outcome.net.bytes != memory.net.bytes
        || cluster.outcome.net.messages != memory.net.messages
        || cluster.outcome.rounds != memory.rounds
    {
        eprintln!("smoke FAILED: socket payload counters diverge from the memory backend");
        return 1;
    }
    let model = CostModel::default();
    if cluster.outcome.report(&cluster.hub, &model).fingerprint()
        != memory.report(&hub, &model).fingerprint()
    {
        eprintln!("smoke FAILED: socket report fingerprint diverges from the memory backend");
        return 1;
    }
    println!(
        "smoke OK: 2-process tcp bfs matches the memory backend ({} rounds, {} payload bytes)",
        cluster.outcome.rounds,
        cluster.outcome.comm_bytes()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_codec_round_trips_bit_for_bit() {
        // Build a small real HostResult by running one host in-process.
        let graph = gluon_graph::gen::rmat(6, 4, Default::default(), 5);
        let out = Run::new(&graph, Algorithm::Pagerank).hosts(1).launch();
        // Synthesize a report from the outcome's pieces plus a populated
        // hub, then decode it and compare every field.
        let hub = MetricsHub::new(2);
        let host = hub.host(0);
        host.deterministic().counter("rounds").add(9);
        host.deterministic().histogram("payload").observe(300);
        host.observed().counter("stage_send_ns").add(1234);
        hub.cluster().counter("net_socket_frames_sent").add(5);
        host.series().push(RoundSample {
            round: 3,
            bytes_sent: 77,
            ..RoundSample::default()
        });
        let stats = NetStats::new(2);
        stats.record_send(0, 1, 100);
        let hr = HostResult {
            masters_int: vec![(1, 2), (3, 4)],
            masters_f64: out
                .ranks
                .iter()
                .copied()
                .enumerate()
                .map(|(i, v)| (i as u32, v))
                .collect(),
            rounds: out.rounds,
            stats: out.host_stats[0].clone(),
            algo_secs: out.algo_secs,
            partition_secs: out.partition_secs,
            num_proxies: 11,
            num_local_edges: 12,
            global_nodes: 13,
            global_edges: 14,
        };
        let doc = encode_report(0, &hr, &stats, &hub).render();
        let decoded = decode_report(&doc).expect("decodes");
        assert_eq!(decoded.rank, 0);
        let host = &decoded.host;
        assert_eq!(host.masters_int, hr.masters_int);
        assert_eq!(host.rounds, hr.rounds);
        assert_eq!(host.stats, hr.stats);
        assert_eq!(host.algo_secs.to_bits(), hr.algo_secs.to_bits());
        assert_eq!(
            (host.num_proxies, host.num_local_edges),
            (hr.num_proxies, hr.num_local_edges)
        );
        assert_eq!(
            (host.global_nodes, host.global_edges),
            (hr.global_nodes, hr.global_edges)
        );
        for ((_, a), (_, b)) in host.masters_f64.iter().zip(&hr.masters_f64) {
            assert_eq!(a.to_bits(), b.to_bits(), "rank bits must survive the wire");
        }
        assert_eq!(decoded.net_bytes[1], 100);
        assert_eq!(decoded.series.len(), 1);
        assert_eq!(decoded.series[0].bytes_sent, 77);
        // Each registry comes back on the side it was shipped from.
        let value = |side: usize, name: &str| {
            decoded.registries[side]
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(value(0, "rounds"), Some(MetricValue::Counter(9)));
        assert_eq!(value(1, "rounds"), None);
        assert_eq!(value(1, "stage_send_ns"), Some(MetricValue::Counter(1234)));
        assert_eq!(value(0, "stage_send_ns"), None);
        assert_eq!(
            value(2, "net_socket_frames_sent"),
            Some(MetricValue::Counter(5))
        );
    }

    #[test]
    fn dropped_children_are_killed_and_reaped() {
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let proc_entry = PathBuf::from(format!("/proc/{}", child.id()));
        assert!(proc_entry.exists(), "the child is running");
        drop(Children(vec![child]));
        assert!(!proc_entry.exists(), "the child must be killed and reaped");
    }

    #[test]
    fn worker_args_round_trip() {
        let args: Vec<String> = [
            "--rank",
            "2",
            "--world",
            "4",
            "--graph",
            "/tmp/g.bin",
            "--algo",
            "pr",
            "--policy",
            "cvc",
            "--opts",
            "osti",
            "--engine",
            "galois",
            "--threads",
            "2",
            "--source",
            "5",
            "--out",
            "/tmp/out.json",
            "--rendezvous",
            "tcp://127.0.0.1:9",
            "--ckpt-every",
            "8",
            "--crash-at-round",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let w = parse_worker_args(&args).expect("parses");
        assert_eq!(w.rank, 2);
        assert_eq!(w.world, 4);
        assert_eq!(w.algo, Algorithm::Pagerank);
        assert_eq!(w.policy, Policy::Cvc);
        assert_eq!(w.threads, 2);
        assert_eq!(w.source, 5);
        assert_eq!(w.ckpt_every, Some(8));
        assert_eq!(w.restore_epoch, None);
        assert_eq!(w.crash_at, Some(3));
        assert_eq!(w.rendezvous.as_deref(), Some("tcp://127.0.0.1:9"));
    }
}
