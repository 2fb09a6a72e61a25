//! One cluster session of a workload: a fresh cluster, one timed set-up,
//! a warm-up trial, timed trials until the session's clock runs out,
//! verification outside the timed region, and (last session of the traced
//! pass only) the collective probes. A run is several sessions back to
//! back: on this box a whole cluster can land 20–40 % slow for seconds at
//! a time, so every run samples that luck several times and gates the
//! quietest session (see `report::gated`).
//!
//! Load model: a closed loop with one client. The next trial starts when
//! the previous one's closing barrier has returned and its result has been
//! checked; nothing is in flight between trials. A trial is one complete
//! algorithm run on a standing partition with a warm `GluonContext`, timed
//! on rank 0 from the opening `Communicator::barrier()` to the closing one.

use crate::probes::{self, CollectiveProbes};
use crate::spans::Spans;
use crate::workloads::{Algo, Net, Scale, Workload, DAMPING, PAGERANK_ITERS, SOURCES};
use gluon::{GluonContext, OptLevel, PhaseStats, Pool};
use gluon_algos::{apps, reference, PagerankConfig};
use gluon_graph::{Csr, Gid};
use gluon_net::{
    run_cluster_wrapped, Communicator, NetStats, SocketFactory, SocketKind, Transport,
};
use gluon_partition::{partition_on_host, LocalGraph, PartitionStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trials attempted and failed so far, readable by the watchdog when a
/// session panics or hangs and its own report is lost.
#[derive(Default)]
pub struct Progress {
    pub attempted: AtomicUsize,
    pub failed: AtomicUsize,
}

/// What one session is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Pairs of timed trials keep starting until this much time has
    /// passed …
    pub secs: f64,
    /// … and at least this many trials have run. Zero skips the warm-up
    /// too (a probe-only session).
    pub min_trials: usize,
    /// Run the collective probes after the trials.
    pub probes: bool,
    pub scale: Scale,
}

/// Seconds of one set-up, each part barrier-closed.
#[derive(Clone, Copy, Default, Debug)]
pub struct Setup {
    pub build_s: f64,
    pub transpose_s: f64,
    pub memo_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build_s + self.transpose_s + self.memo_s
    }
}

/// What one trial did, summed or maxed over hosts.
#[derive(Clone, Copy, Default, Debug)]
pub struct Trial {
    /// Which session of the run it belongs to.
    pub session: usize,
    /// Index into the source rotation.
    pub source: usize,
    /// Whether its span was recorded (traced pass, odd trials).
    pub recorded: bool,
    pub secs: f64,
    pub rounds: u32,
    /// Sync payload bytes, summed over hosts.
    pub wire_bytes: u64,
    /// Order-independent checksum of every master's label.
    pub checksum: u64,
    /// Largest per-host total of `PhaseStats::compute_secs`.
    pub compute_s: f64,
    /// Largest per-host total of `PhaseStats::comm_secs`.
    pub sync_s: f64,
    pub messages: u64,
    pub work_units: u64,
    pub crit_work_units: u64,
    /// Every message and byte the transport carried, collectives included.
    pub net_messages: u64,
    pub net_bytes: u64,
    /// `secs` minus what the program's own clocks account for: the busiest
    /// host's compute + sync here, partitioning + algorithm for a launch.
    pub overhead_s: f64,
}

/// One host's share of a trial.
#[derive(Clone, Copy, Default, Debug)]
pub struct HostTrial {
    pub rounds: u32,
    pub checksum: u64,
    pub wire_bytes: u64,
    pub messages: u64,
    pub compute_s: f64,
    pub sync_s: f64,
    pub work_units: u64,
    pub crit_work_units: u64,
}

impl HostTrial {
    /// Seconds this host's phase clocks account for.
    pub fn accounted_s(&self) -> f64 {
        self.compute_s + self.sync_s
    }

    /// Sums the phases a trial added to one host's `SyncStats`.
    pub fn of(phases: &[PhaseStats], rounds: u32, checksum: u64) -> HostTrial {
        let mut t = HostTrial {
            rounds,
            checksum,
            ..HostTrial::default()
        };
        for p in phases {
            t.wire_bytes += p.bytes_sent;
            t.messages += p.messages_sent;
            t.compute_s += p.compute_secs;
            t.sync_s += p.comm_secs;
            t.work_units += p.work_units;
            t.crit_work_units += p.crit_work_units;
        }
        t
    }
}

/// Folds the hosts' shares into one [`Trial`] that took `secs`: counts add,
/// times take the slowest host.
pub fn combine(hosts: &[HostTrial], secs: f64) -> Trial {
    let mut t = Trial {
        secs,
        ..Trial::default()
    };
    for h in hosts {
        t.rounds = t.rounds.max(h.rounds);
        t.checksum = t.checksum.wrapping_add(h.checksum);
        t.wire_bytes += h.wire_bytes;
        t.messages += h.messages;
        t.compute_s = t.compute_s.max(h.compute_s);
        t.sync_s = t.sync_s.max(h.sync_s);
        t.work_units += h.work_units;
        t.crit_work_units += h.crit_work_units;
    }
    let accounted = hosts.iter().map(HostTrial::accounted_s).fold(0.0, f64::max);
    t.overhead_s = secs - accounted;
    t
}

/// Everything rank 0 learned in a session, or in all sessions of a run.
#[derive(Default, Debug)]
pub struct Outcome {
    /// One per session.
    pub setups: Vec<Setup>,
    pub memo_bytes: u64,
    pub replication_factor: f64,
    pub max_host_edges: u64,
    pub trials: Vec<Trial>,
    /// Trial times with the pool swapped for `Pool::new(1)` (traced pass
    /// of a multi-threaded workload), for `exec.speedup`.
    pub one_thread_secs: Vec<f64>,
    pub probes: Option<CollectiveProbes>,
    /// One line per trial that failed verification.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Appends a later session's report.
    pub fn absorb(&mut self, later: Outcome) {
        self.setups.extend(later.setups);
        self.trials.extend(later.trials);
        self.one_thread_secs.extend(later.one_thread_secs);
        self.failures.extend(later.failures);
        self.memo_bytes = later.memo_bytes;
        self.replication_factor = later.replication_factor;
        self.max_host_edges = later.max_host_edges;
        self.probes = later.probes.or(self.probes);
    }
}

/// A label vector of either algorithm, as bits.
pub enum Labels {
    U32(Vec<u32>),
    F64(Vec<f64>),
}

impl Labels {
    fn bits(&self, i: usize) -> u64 {
        match self {
            Labels::U32(v) => u64::from(v[i]),
            Labels::F64(v) => v[i].to_bits(),
        }
    }
}

/// Mixes one `(vertex, label)` pair into a checksum term; terms add, so
/// the sum does not depend on which host holds which master.
pub fn checksum_term(gid: u32, bits: u64) -> u64 {
    let mut z = (u64::from(gid) << 32 ^ bits).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the first verified result of a source looked like; later trials
/// of the same source must reproduce it exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expected {
    pub checksum: u64,
    pub rounds: u32,
    pub wire_bytes: u64,
}

/// Checks results against the single-host oracles and against each other.
pub struct Verifier<'g> {
    graph: &'g Csr,
    algo: Algo,
    sources: &'g [Gid],
    seen: Vec<Option<Expected>>,
}

impl<'g> Verifier<'g> {
    pub fn new(graph: &'g Csr, algo: Algo, sources: &'g [Gid]) -> Verifier<'g> {
        Verifier {
            graph,
            algo,
            sources,
            seen: vec![None; SOURCES],
        }
    }

    /// Whether `source`'s labels still have to be gathered and compared
    /// with the oracle.
    pub fn wants_labels(&self, source: usize) -> bool {
        self.seen[source].is_none()
    }

    /// Compares a first result (global label bits, one per vertex) with
    /// the oracle.
    pub fn check_labels(&self, source: usize, bits: &[u64]) -> Result<(), String> {
        match self.algo {
            Algo::Bfs => {
                let want = reference::bfs(self.graph, self.sources[source]);
                match (0..want.len()).find(|&v| bits[v] != u64::from(want[v])) {
                    None => Ok(()),
                    Some(v) => Err(format!(
                        "bfs label of vertex {v} is {}, reference says {}",
                        bits[v], want[v]
                    )),
                }
            }
            Algo::Pagerank => {
                let (want, _) = reference::pagerank(self.graph, DAMPING, 0.0, PAGERANK_ITERS);
                match (0..want.len()).find(|&v| (f64::from_bits(bits[v]) - want[v]).abs() >= 1e-9) {
                    None => Ok(()),
                    Some(v) => Err(format!(
                        "rank of vertex {v} is {}, reference says {}",
                        f64::from_bits(bits[v]),
                        want[v]
                    )),
                }
            }
        }
    }

    /// Records a first result or holds a later one to it.
    pub fn check_repeat(&mut self, source: usize, got: Expected) -> Result<(), String> {
        match self.seen[source] {
            None => {
                self.seen[source] = Some(got);
                Ok(())
            }
            Some(first) if first == got => Ok(()),
            Some(first) => Err(format!(
                "source {source} gave {got:?}, first gave {first:?}"
            )),
        }
    }
}

/// The source slot a trial uses. Each bfs source runs twice back to back,
/// so the traced pass can pair an unrecorded and a recorded trial of the
/// same source; pagerank has no source and stays in slot 0.
pub fn source_of(algo: Algo, trial: usize) -> usize {
    match algo {
        Algo::Bfs => (trial / 2) % SOURCES,
        Algo::Pagerank => 0,
    }
}

/// What every session of a run works on.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub w: &'a Workload,
    pub graph: &'a Csr,
    pub sources: &'a [Gid],
    pub spans: &'a Spans,
    /// The span the session's own spans hang under.
    pub root: Option<usize>,
    pub progress: &'a Progress,
    /// Shared by the sessions, so a source verified against the oracle in
    /// one must reproduce exactly in the next — on a fresh cluster. Rank 0
    /// writes it between a trial's last barrier and the next trial's
    /// first; every host reads it in between, so all hosts see the same.
    pub verifier: &'a Mutex<Verifier<'a>>,
}

/// What the hosts of one session share.
struct Cluster<'a, 'j> {
    job: &'a Job<'j>,
    plan: Plan,
    session: usize,
    first_trial: usize,
    /// Per-host trial shares, written after a trial's closing barrier.
    shares: Mutex<Vec<HostTrial>>,
    /// Global label bits of a source's first result, scattered by masters.
    labels: Mutex<Vec<u64>>,
    /// `(proxies, local edges)` per host, for `PartitionStats`.
    scalars: Mutex<Vec<(u64, u64)>>,
}

/// Trials run on one thread for `exec.speedup` (traced pass only).
const ONE_THREAD_TRIALS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Untimed, but verified like any other.
    WarmUp,
    Timed,
    /// Timed with the pool swapped for one thread.
    OneThread,
}

/// Runs session number `session` of a run, whose trials are numbered from
/// `first_trial`, and returns rank 0's report.
///
/// # Panics
///
/// Panics (on a host thread, propagated) when the program returns a typed
/// `SyncError`/`NetError`: the cluster's state is then undefined and no
/// further trial can run. The caller counts that as a failed trial.
pub fn run(job: &Job<'_>, plan: Plan, session: usize, first_trial: usize) -> Outcome {
    let w = job.w;
    let cluster = Cluster {
        job,
        plan,
        session,
        first_trial,
        shares: Mutex::new(vec![HostTrial::default(); w.hosts]),
        labels: Mutex::new(vec![0; job.graph.num_nodes() as usize]),
        scalars: Mutex::new(vec![(0, 0); w.hosts]),
    };
    let stats = NetStats::new(w.hosts);
    let (mut per_host, _) = match w.net {
        Net::Memory => run_cluster_wrapped(w.hosts, stats, |ep| ep, |net| host(net, &cluster)),
        Net::Tcp => {
            let factory = SocketFactory::new(SocketKind::Tcp);
            run_cluster_wrapped(
                w.hosts,
                stats,
                |ep| {
                    factory
                        .endpoint(ep.rank(), ep.world_size(), ep.stats().clone(), 0)
                        .expect("loopback TCP bootstrap")
                },
                |net| host(net, &cluster),
            )
        }
    };
    per_host.swap_remove(0).expect("rank 0 reports")
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a host thread panicked holding shared state")
}

/// The SPMD body; rank 0 returns the report.
fn host<T: Transport>(net: &T, c: &Cluster<'_, '_>) -> Option<Outcome> {
    let (job, w) = (c.job, c.job.w);
    let comm = Communicator::new(net);
    let rank = comm.rank();
    let off = Spans::new(false);
    // Spans are rank 0's: it is the clock of every timed region.
    let spans = if rank == 0 { job.spans } else { &off };
    let mut out = Outcome::default();

    comm.barrier();
    let whole = spans.open("setup", job.root, None);
    let t = spans.open("partition.build", whole.id(), None);
    let mut lg = partition_on_host(job.graph, w.policy, &comm);
    comm.barrier();
    let build_s = spans.close(t);
    let t = spans.open("partition.transpose", whole.id(), None);
    if w.needs_transpose() {
        lg.build_transpose();
        comm.barrier();
    }
    let transpose_s = spans.close(t);
    let t = spans.open("core.memo", whole.id(), None);
    let ctx = GluonContext::new(&lg, &comm, OptLevel::default());
    let memo_s = spans.close(t);
    spans.close(whole);
    let mut ctx = ctx.with_pool(Pool::new(w.threads));
    out.memo_bytes = ctx.stats().memo_bytes;
    out.setups.push(Setup {
        build_s,
        transpose_s,
        memo_s,
    });

    lock(&c.scalars)[rank] = (u64::from(lg.num_proxies()), lg.num_local_edges());
    comm.barrier();
    if rank == 0 {
        let scalars = lock(&c.scalars);
        let proxies: Vec<u64> = scalars.iter().map(|s| s.0).collect();
        let edges: Vec<u64> = scalars.iter().map(|s| s.1).collect();
        let stats = PartitionStats::from_scalars(
            job.graph.num_nodes(),
            job.graph.num_edges(),
            &proxies,
            &edges,
        );
        out.replication_factor = stats.replication_factor;
        out.max_host_edges = stats.max_host_edges;
    }

    let mut session = Session {
        c,
        comm: &comm,
        lg: &lg,
        spans,
        out,
    };
    let plan = c.plan;
    if plan.min_trials > 0 {
        session.trial(&mut ctx, net, Kind::WarmUp, c.first_trial);
    }
    let started = Instant::now();
    let mut done = 0;
    loop {
        let more = done < plan.min_trials
            || (plan.min_trials > 0 && started.elapsed().as_secs_f64() < plan.secs);
        // Rank 0's clock decides; everyone learns it through the collective.
        if !comm.any(rank == 0 && more) {
            break;
        }
        // A pair: the same source (and, traced, one unrecorded and one
        // recorded trial) back to back.
        session.trial(&mut ctx, net, Kind::Timed, c.first_trial + done);
        session.trial(&mut ctx, net, Kind::Timed, c.first_trial + done + 1);
        done += 2;
    }
    if plan.probes {
        if w.threads > 1 {
            ctx.set_pool(Pool::new(1));
            for i in 0..plan.scale.iters(ONE_THREAD_TRIALS) {
                session.trial(&mut ctx, net, Kind::OneThread, i);
            }
            ctx.set_pool(Pool::new(w.threads));
        }
        let probes = probes::collective(net, &comm, &mut ctx, spans, job.root, plan.scale);
        session.out.probes = Some(probes);
    }
    (rank == 0).then_some(session.out)
}

struct Session<'s, 'c, 'j, T: Transport> {
    c: &'s Cluster<'c, 'j>,
    comm: &'s Communicator<'s, T>,
    lg: &'s LocalGraph,
    spans: &'s Spans,
    out: Outcome,
}

impl<T: Transport> Session<'_, '_, '_, T> {
    fn trial(&mut self, ctx: &mut GluonContext<'_, T>, net: &T, kind: Kind, i: usize) {
        let (c, job, w) = (self.c, self.c.job, self.c.job.w);
        let rank = self.comm.rank();
        let source = source_of(w.algo, i);
        let record = kind == Kind::Timed && i % 2 == 1;
        if rank == 0 {
            job.progress.attempted.fetch_add(1, Ordering::Relaxed);
        }
        // Taken before the opening barrier: a peer may send as soon as it
        // has left that barrier.
        let net_before = (rank == 0).then(|| net.stats().snapshot());
        let first_phase = ctx.stats().num_phases();
        self.comm.barrier();
        let t = self
            .spans
            .open_when(record, "trial", job.root, Some(i as u32));
        // After the barrier: waiting for a peer that is still verifying the
        // previous trial is not this trial's compute time.
        ctx.reset_timer();
        let result = match w.algo {
            Algo::Bfs => apps::try_bfs(self.lg, ctx, job.sources[source], w.engine)
                .map(|(dist, rounds)| (Labels::U32(dist), rounds)),
            Algo::Pagerank => apps::try_pagerank(
                self.lg,
                ctx,
                PagerankConfig {
                    damping: DAMPING,
                    tolerance: 0.0,
                    max_iters: PAGERANK_ITERS,
                },
                w.engine,
            )
            .map(|(rank, iters)| (Labels::F64(rank), iters)),
        };
        let (labels, rounds) = result.unwrap_or_else(|e| {
            panic!(
                "{} trial {i} on host {rank} returned a typed error: {e}",
                w.name
            )
        });
        self.comm.barrier();
        let secs = self.spans.close(t);

        // Everything below is outside the timed region.
        let net_delta = net_before.map(|before| net.stats().snapshot().since(&before));
        let wants_labels = lock(job.verifier).wants_labels(source);
        let mut checksum = 0u64;
        {
            let mut global = wants_labels.then(|| lock(&c.labels));
            for m in self.lg.masters() {
                let gid = self.lg.gid(m).0;
                let bits = labels.bits(m.index());
                checksum = checksum.wrapping_add(checksum_term(gid, bits));
                if let Some(global) = global.as_mut() {
                    global[gid as usize] = bits;
                }
            }
        }
        lock(&c.shares)[rank] = HostTrial::of(&ctx.stats().phases[first_phase..], rounds, checksum);
        self.comm.barrier();
        if rank != 0 {
            return;
        }
        let mut trial = combine(&lock(&c.shares), secs);
        trial.session = c.session;
        trial.source = source;
        trial.recorded = record;
        let net_delta = net_delta.expect("rank 0 took the snapshot");
        trial.net_messages = net_delta.total_messages;
        trial.net_bytes = net_delta.total_bytes;
        let t = self.spans.open("verify", job.root, Some(i as u32));
        let mut verifier = lock(job.verifier);
        let against_oracle = if wants_labels {
            verifier.check_labels(source, &lock(&c.labels))
        } else {
            Ok(())
        };
        let against_first = verifier.check_repeat(
            source,
            Expected {
                checksum: trial.checksum,
                rounds: trial.rounds,
                wire_bytes: trial.wire_bytes,
            },
        );
        drop(verifier);
        let verdict = against_oracle.and(against_first);
        self.spans.close(t);
        if let Err(why) = verdict {
            job.progress.failed.fetch_add(1, Ordering::Relaxed);
            self.out.failures.push(format!("trial {i}: {why}"));
        }
        match kind {
            Kind::WarmUp => {}
            Kind::Timed => self.out.trials.push(trial),
            Kind::OneThread => self.out.one_thread_secs.push(secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_run_twice_back_to_back_and_wrap() {
        let picks: Vec<usize> = (0..6).map(|i| source_of(Algo::Bfs, i)).collect();
        assert_eq!(picks, [0, 0, 1, 1, 2, 2]);
        assert_eq!(source_of(Algo::Bfs, 2 * SOURCES), 0);
        assert_eq!(source_of(Algo::Pagerank, 5), 0);
    }

    #[test]
    fn combine_adds_counts_and_takes_the_slowest_host() {
        let a = HostTrial {
            rounds: 5,
            checksum: u64::MAX,
            wire_bytes: 10,
            messages: 2,
            compute_s: 0.5,
            sync_s: 0.1,
            work_units: 7,
            crit_work_units: 7,
        };
        let b = HostTrial {
            checksum: 2,
            compute_s: 0.2,
            sync_s: 0.4,
            ..a
        };
        let t = combine(&[a, b], 1.0);
        assert_eq!(
            (t.rounds, t.wire_bytes, t.messages, t.work_units),
            (5, 20, 4, 14)
        );
        assert_eq!((t.compute_s, t.sync_s, t.checksum), (0.5, 0.4, 1));
        assert!((t.overhead_s - 0.4).abs() < 1e-12);
    }

    #[test]
    fn checksum_sees_which_vertex_holds_which_label() {
        let swapped = checksum_term(1, 7).wrapping_add(checksum_term(2, 9));
        let straight = checksum_term(1, 9).wrapping_add(checksum_term(2, 7));
        assert_ne!(swapped, straight);
    }

    #[test]
    fn repeats_must_match_the_first_result() {
        let g = gluon_graph::gen::grid(4, 4);
        let sources = [Gid(0); SOURCES];
        let mut v = Verifier::new(&g, Algo::Bfs, &sources);
        let first = Expected {
            checksum: 1,
            rounds: 2,
            wire_bytes: 3,
        };
        assert!(v.wants_labels(0));
        assert!(v.check_repeat(0, first).is_ok());
        assert!(!v.wants_labels(0) && v.wants_labels(1));
        assert!(v.check_repeat(0, first).is_ok());
        assert!(v
            .check_repeat(
                0,
                Expected {
                    wire_bytes: 4,
                    ..first
                }
            )
            .is_err());
        let want: Vec<u64> = reference::bfs(&g, Gid(0))
            .into_iter()
            .map(u64::from)
            .collect();
        assert!(v.check_labels(0, &want).is_ok());
        let mut wrong = want.clone();
        wrong[5] += 1;
        assert!(v.check_labels(0, &wrong).is_err());
    }
}
