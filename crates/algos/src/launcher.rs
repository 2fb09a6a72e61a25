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
//!   fallible host program, and writes its masters, statistics and
//!   registries as one [`CheckpointSnapshot`] record (CRC-checked, values
//!   in their wire bytes), so pagerank ranks survive the round trip
//!   bit-for-bit.
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
use gluon::{CheckpointSnapshot, CheckpointStore, PhaseStats, SyncError, SyncStats, SyncValue};
use gluon_graph::{io as graph_io, max_out_degree_node, Csr, Gid};
use gluon_metrics::{MetricValue, MetricsHub};
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
/// process backend ships — its rank, its row of the traffic matrices and
/// its registries.
struct WorkerReport {
    rank: usize,
    host: HostResult,
    net_bytes: Vec<u64>,
    net_messages: Vec<u64>,
    /// The worker's deterministic, observed and cluster registries, in
    /// that order, each imported back into the same registry of the
    /// parent's hub.
    registries: [Vec<(String, MetricValue)>; 3],
}

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
    /// Receives the successful attempt's registries.
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
        self.scratch.join(format!("out-{rank}.bin"))
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
            .map(|rank| decode_report(rank, &std::fs::read(self.out_path(rank))?))
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

/// What only the process backend adds to [`assemble`]: place each worker's
/// row of the traffic matrices (sends are recorded at the source, so the
/// rest of its matrix is empty) and import every worker's registries into
/// the same registries of `hub`.
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
    };
    let mut per_host = Vec::with_capacity(world);
    for r in reports {
        if r.net_bytes.len() != world || r.net_messages.len() != world {
            return Err(LaunchError::Fatal(format!(
                "rank {} shipped a traffic row sized for a different world",
                r.rank
            )));
        }
        let row = r.rank * world..(r.rank + 1) * world;
        net.bytes[row.clone()].copy_from_slice(&r.net_bytes);
        net.messages[row].copy_from_slice(&r.net_messages);
        let host = hub.host(r.rank);
        let targets = [host.deterministic(), host.observed(), &hub.cluster()];
        for (into, entries) in targets.into_iter().zip(&r.registries) {
            for (name, value) in entries {
                into.import(name, value);
            }
        }
        per_host.push(r.host);
    }
    Ok(assemble(n, u32::MAX, per_host, net))
}

// ---------------------------------------------------------------------------
// Worker result codec
// ---------------------------------------------------------------------------
//
// A worker's report is its host's `CheckpointSnapshot` taken after its last
// round: the CRC-checked binary record a checkpoint file holds, with every
// value in its `SyncValue` wire bytes, so pagerank ranks and timings arrive
// bit-for-bit. Each registry metric is one field named by its side (`d:`,
// `o:` or `c:`, then the metric name) holding `[kind, value…]`.

/// The field-name prefixes of [`WorkerReport::registries`], in order.
const REGISTRY_SIDES: [&str; 3] = ["d:", "o:", "c:"];
/// The `kind` word opening a registry field.
const KIND_COUNTER: u64 = 0;
const KIND_GAUGE: u64 = 1;
const KIND_HISTOGRAM: u64 = 2;
/// One [`PhaseStats`]: its two timings, then its four counters.
type PhaseRow = ((f64, f64), ((u64, u64), (u64, u64)));

fn encode_report(rank: usize, hr: &HostResult, stats: &NetStats, hub: &MetricsHub) -> Vec<u8> {
    let net = stats.snapshot();
    let row = rank * net.world_size..(rank + 1) * net.world_size;
    let host = hub.host(rank);
    let mut snap = CheckpointSnapshot::new(u64::from(hr.rounds));
    snap.put_values("rank", &[rank as u64]);
    snap.put_values("masters_int", &hr.masters_int);
    snap.put_values("masters_f64", &hr.masters_f64);
    let phases = hr.stats.phases.iter().map(|p| {
        let bytes = (p.bytes_sent, p.messages_sent);
        let work = (p.work_units, p.crit_work_units);
        ((p.compute_secs, p.comm_secs), (bytes, work))
    });
    snap.put_values::<PhaseRow>("phases", &phases.collect::<Vec<_>>());
    let timings = [hr.algo_secs, hr.partition_secs, hr.stats.memo_secs];
    snap.put_values("timings", &timings);
    snap.put_values(
        "scalars",
        &[
            hr.stats.memo_bytes,
            hr.stats.steady_state_allocs,
            hr.num_proxies,
            hr.num_local_edges,
            u64::from(hr.global_nodes),
            hr.global_edges,
        ],
    );
    snap.put_values("net_bytes", &net.bytes[row.clone()]);
    snap.put_values("net_messages", &net.messages[row]);
    let registries = [host.deterministic(), host.observed(), &hub.cluster()];
    for (side, registry) in REGISTRY_SIDES.into_iter().zip(registries) {
        for (name, value) in registry.snapshot() {
            let entry = match value {
                MetricValue::Counter(c) => vec![KIND_COUNTER, c],
                MetricValue::Gauge(g) => vec![KIND_GAUGE, g],
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                } => [KIND_HISTOGRAM, count, sum]
                    .into_iter()
                    .chain(buckets)
                    .collect(),
            };
            snap.put_values(&format!("{side}{name}"), &entry);
        }
    }
    snap.to_bytes()
}

/// Field `name` of rank `rank`'s report as `T`: its values, whole or as a
/// fixed-size array. Anything else is a [`LaunchError::Fatal`] naming both.
fn field<T: TryFrom<Vec<V>>, V: SyncValue>(
    snap: &CheckpointSnapshot,
    rank: usize,
    name: &str,
) -> Result<T, LaunchError> {
    snap.values(name)
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| {
            LaunchError::Fatal(format!(
                "rank {rank} result file: field {name} is missing or malformed"
            ))
        })
}

/// Decodes rank `rank`'s result file: a whole, CRC-valid record with every
/// field well-formed, or a [`LaunchError::Fatal`].
fn decode_report(rank: usize, bytes: &[u8]) -> Result<WorkerReport, LaunchError> {
    let bad = |what: &str| LaunchError::Fatal(format!("rank {rank} result file: {what}"));
    let snap = CheckpointSnapshot::from_bytes(bytes).ok_or_else(|| bad("corrupt or truncated"))?;
    let [claimed] = field::<[u64; 1], _>(&snap, rank, "rank")?;
    if claimed != rank as u64 {
        return Err(bad(&format!("field rank claims rank {claimed}")));
    }
    let phases = field::<Vec<PhaseRow>, _>(&snap, rank, "phases")?;
    let phases = phases.into_iter().map(|(secs, (bytes, work))| PhaseStats {
        compute_secs: secs.0,
        comm_secs: secs.1,
        bytes_sent: bytes.0,
        messages_sent: bytes.1,
        work_units: work.0,
        crit_work_units: work.1,
    });
    let [algo_secs, partition_secs, memo_secs] = field::<[f64; 3], _>(&snap, rank, "timings")?;
    let [memo_bytes, steady_state_allocs, num_proxies, num_local_edges, global_nodes, global_edges] =
        field::<[u64; 6], _>(&snap, rank, "scalars")?;
    let mut registries: [Vec<(String, MetricValue)>; 3] = Default::default();
    for name in snap.names() {
        let Some(side) = REGISTRY_SIDES.iter().position(|p| name.starts_with(p)) else {
            continue;
        };
        let value = match field::<Vec<u64>, _>(&snap, rank, name)?[..] {
            [KIND_COUNTER, c] => MetricValue::Counter(c),
            [KIND_GAUGE, g] => MetricValue::Gauge(g),
            [KIND_HISTOGRAM, count, sum, ref buckets @ ..] => MetricValue::Histogram {
                buckets: buckets.to_vec(),
                count,
                sum,
            },
            _ => return Err(bad(&format!("field {name} holds an unknown kind"))),
        };
        registries[side].push((name[REGISTRY_SIDES[side].len()..].to_owned(), value));
    }
    Ok(WorkerReport {
        rank,
        host: HostResult {
            masters_int: field(&snap, rank, "masters_int")?,
            masters_f64: field(&snap, rank, "masters_f64")?,
            rounds: u32::try_from(snap.round()).map_err(|_| bad("round header overflows"))?,
            stats: SyncStats {
                phases: phases.collect(),
                memo_secs,
                memo_bytes,
                steady_state_allocs,
            },
            algo_secs,
            partition_secs,
            num_proxies,
            num_local_edges,
            global_nodes: u32::try_from(global_nodes)
                .map_err(|_| bad("field scalars overflows"))?,
            global_edges,
        },
        net_bytes: field(&snap, rank, "net_bytes")?,
        net_messages: field(&snap, rank, "net_messages")?,
        registries,
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
    fn try_recv_any_now(&self, tag: u32) -> Result<Option<gluon_net::Envelope>, NetError> {
        self.inner.try_recv_any_now(tag)
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
            let report = encode_report(rank, &hr, &stats, &hub);
            if let Err(e) = std::fs::write(&args.out, report) {
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

    /// A report from a real one-host pagerank run on an rmat graph of
    /// `scale`, with a metric of every kind and side.
    fn sample_report(scale: u32) -> (HostResult, NetStats, MetricsHub) {
        let graph = gluon_graph::gen::rmat(scale, 4, Default::default(), 5);
        let out = Run::new(&graph, Algorithm::Pagerank).hosts(1).launch();
        let hub = MetricsHub::new(2);
        let host = hub.host(0);
        host.deterministic().counter("rounds").add(9);
        host.deterministic().histogram("payload").observe(300);
        host.observed().counter("stage_send_ns").add(1234);
        host.observed().gauge("peers_down").set(2);
        hub.cluster().counter("net_socket_frames_sent").add(5);
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
        (hr, stats, hub)
    }

    #[test]
    fn report_codec_round_trips_bit_for_bit() {
        let (hr, stats, hub) = sample_report(6);
        let bytes = encode_report(0, &hr, &stats, &hub);
        let Ok(decoded) = decode_report(0, &bytes) else {
            panic!("the report must decode");
        };
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
        assert_eq!(value(1, "peers_down"), Some(MetricValue::Gauge(2)));
        assert_eq!(
            value(2, "net_socket_frames_sent"),
            Some(MetricValue::Counter(5))
        );
        assert!(matches!(
            value(0, "payload"),
            Some(MetricValue::Histogram {
                count: 1,
                sum: 300,
                ..
            })
        ));
    }

    #[test]
    fn report_decoder_refuses_damaged_records_with_typed_errors() {
        let (hr, stats, hub) = sample_report(3);
        let good = encode_report(0, &hr, &stats, &hub);
        // The CRC32 trailer catches every single-bit error; no damage may
        // panic.
        for len in 0..good.len() {
            assert!(
                decode_report(0, &good[..len]).is_err(),
                "cut to {len} bytes"
            );
        }
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_report(0, &flipped).is_err(), "bit {bit} flipped");
        }
        // A well-formed record holding a bad field names that field.
        let bad_fields: [(&str, Vec<u64>); 3] = [
            ("rank", vec![1]),
            // Five words: not a whole six-word phase row.
            ("phases", vec![0; 5]),
            ("d:rounds", vec![7, 9]),
        ];
        for (name, values) in bad_fields {
            let mut snap = CheckpointSnapshot::from_bytes(&good).expect("decodes");
            snap.put_values(name, &values);
            match decode_report(0, &snap.to_bytes()) {
                Err(LaunchError::Fatal(what)) => assert!(
                    what.starts_with("rank 0 ") && what.contains(&format!("field {name} ")),
                    "{name}: {what}"
                ),
                Err(e) => panic!("{name}: untyped failure {e}"),
                Ok(_) => panic!("{name}: a bad field decoded"),
            }
        }
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
            "/tmp/out.bin",
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
