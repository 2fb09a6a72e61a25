//! The Gemini runtime: dual-mode (sparse push / dense pull) rounds over
//! chunked edge-cut partitions, with `(global-ID, value)` messages.
//!
//! This is the baseline the Gluon paper compares against (§5): a monolithic
//! computation-centric system in the style of Zhu et al. (OSDI'16). Its
//! distinguishing properties, all modeled here:
//!
//! * only chunk-based outgoing edge-cut partitioning;
//! * node state replicated across hosts, refreshed by broadcasting owner
//!   updates — replication (and hence communication) grows with the host
//!   count;
//! * every message carries global-IDs alongside values (no memoization);
//! * adaptive sparse/dense mode per round, like shared-memory Ligra.
//!
//! Measurement plumbing ([`gluon::SyncStats`]) is shared with the Gluon
//! systems so the bench harness can aggregate both identically; none of the
//! Gluon *substrate* (sync, memoization, encodings) is used.

use crate::partition::{replication_factor, GeminiPartition};
use bytes::{BufMut, Bytes, BytesMut};
use gluon::{DenseBitset, PhaseStats, RunStats, SyncStats};
use gluon_graph::{for_each_edge, Csr, Gid, Lid};
use gluon_net::{run_cluster_with_stats, Communicator, NetStats, Transport};
use std::time::Instant;

/// Unreached distance marker.
pub const INFINITY: u32 = u32::MAX;

/// Fraction of |E| above which a round goes dense (Ligra/Gemini heuristic).
const DENSE_THRESHOLD_DENOM: u64 = 20;

const VALUE_TAG: u32 = 64;

/// What a Gemini run produces (mirrors `gluon_algos::DistOutcome`).
#[derive(Clone, Debug)]
pub struct GeminiOutcome {
    /// Per-node integer labels (bfs/sssp/cc), empty for pagerank.
    pub int_labels: Vec<u32>,
    /// Per-node ranks (pagerank), empty otherwise.
    pub ranks: Vec<f64>,
    /// Rounds (or pagerank iterations) executed.
    pub rounds: u32,
    /// Aggregated statistics (paper methodology).
    pub run: RunStats,
    /// Per-host raw statistics.
    pub host_stats: Vec<SyncStats>,
    /// Max per-host wall-clock of the algorithm (seconds).
    pub algo_secs: f64,
    /// Max per-host wall-clock of partitioning.
    pub partition_secs: f64,
    /// Replication factor of the chunked partitioning.
    pub replication_factor: f64,
}

/// The Gemini benchmark entry points.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum GeminiAlgo {
    /// Breadth-first search from a source.
    Bfs(Gid),
    /// Shortest paths from a source.
    Sssp(Gid),
    /// Connected components (input must be symmetrized by the caller; use
    /// [`run`]'s convenience handling or symmetrize yourself).
    Cc,
    /// Pagerank with `(damping, tolerance, max_iters)`.
    Pagerank(f64, f64, u32),
}

/// Runs `algo` on `graph` over `hosts` simulated hosts.
///
/// cc callers should pass a symmetrized graph (Gemini, like the other
/// label-propagation systems, computes components of the undirected view).
pub fn run(graph: &Csr, hosts: usize, algo: GeminiAlgo) -> GeminiOutcome {
    let (per_host, _net) = run_cluster_with_stats(hosts, NetStats::new(hosts), |ep| {
        let comm = Communicator::new(ep);
        let part_start = Instant::now();
        let part = GeminiPartition::build(graph, hosts, comm.rank());
        comm.barrier();
        let partition_secs = part_start.elapsed().as_secs_f64();
        let algo_start = Instant::now();
        let mut host = GeminiHost::new(&part, &comm);
        let (ints, floats, rounds) = match algo {
            GeminiAlgo::Bfs(src) => {
                let (l, r) = host.minrelax(Init::Source(src), |l, _| l.saturating_add(1));
                (l, Vec::new(), r)
            }
            GeminiAlgo::Sssp(src) => {
                let (l, r) = host.minrelax(Init::Source(src), |l, w| l.saturating_add(w));
                (l, Vec::new(), r)
            }
            GeminiAlgo::Cc => {
                let (l, r) = host.minrelax(Init::OwnGid, |l, _| l);
                (l, Vec::new(), r)
            }
            GeminiAlgo::Pagerank(d, tol, iters) => {
                let (r, n) = host.pagerank(graph, d, tol, iters);
                (Vec::new(), r, n)
            }
        };
        let algo_secs = algo_start.elapsed().as_secs_f64();
        let owned = part.owned();
        let owned_ints: Vec<u32> = if ints.is_empty() {
            Vec::new()
        } else {
            owned.clone().map(|v| ints[v as usize]).collect()
        };
        let owned_floats: Vec<f64> = if floats.is_empty() {
            Vec::new()
        } else {
            owned.clone().map(|v| floats[v as usize]).collect()
        };
        (
            owned.start,
            owned_ints,
            owned_floats,
            rounds,
            host.stats,
            algo_secs,
            partition_secs,
            part,
        )
    });

    let n = graph.num_nodes() as usize;
    let mut int_labels = Vec::new();
    let mut ranks = Vec::new();
    let is_pr = matches!(algo, GeminiAlgo::Pagerank(..));
    if is_pr {
        ranks = vec![0.0; n];
    } else {
        int_labels = vec![INFINITY; n];
    }
    for (start, ints, floats, _, _, _, _, _) in &per_host {
        for (i, &v) in ints.iter().enumerate() {
            int_labels[*start as usize + i] = v;
        }
        for (i, &v) in floats.iter().enumerate() {
            ranks[*start as usize + i] = v;
        }
    }
    let host_stats: Vec<SyncStats> = per_host.iter().map(|h| h.4.clone()).collect();
    let parts: Vec<GeminiPartition> = per_host.iter().map(|h| h.7.clone()).collect();
    GeminiOutcome {
        int_labels,
        ranks,
        rounds: per_host.iter().map(|h| h.3).max().unwrap_or(0),
        run: RunStats::aggregate(&host_stats),
        host_stats,
        algo_secs: per_host.iter().map(|h| h.5).fold(0.0, f64::max),
        partition_secs: per_host.iter().map(|h| h.6).fold(0.0, f64::max),
        replication_factor: replication_factor(&parts),
    }
}

enum Init {
    Source(Gid),
    OwnGid,
}

struct GeminiHost<'a, T: Transport> {
    part: &'a GeminiPartition,
    comm: &'a Communicator<'a, T>,
    stats: SyncStats,
    mark: Instant,
    pending_work: u64,
}

impl<'a, T: Transport> GeminiHost<'a, T> {
    fn new(part: &'a GeminiPartition, comm: &'a Communicator<'a, T>) -> Self {
        GeminiHost {
            part,
            comm,
            stats: SyncStats::default(),
            mark: Instant::now(),
            pending_work: 0,
        }
    }

    fn add_work(&mut self, units: u64) {
        self.pending_work += units;
    }

    fn sent_snapshot(&self) -> (u64, u64) {
        let snap = self.comm.transport().stats().snapshot();
        let rank = self.comm.rank();
        let n = self.comm.world_size();
        (
            (0..n).map(|d| snap.bytes_between(rank, d)).sum(),
            (0..n).map(|d| snap.messages[rank * n + d]).sum(),
        )
    }

    fn phase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let compute_secs = self.mark.elapsed().as_secs_f64();
        let before = self.sent_snapshot();
        let start = Instant::now();
        let out = f(self);
        let after = self.sent_snapshot();
        self.stats.phases.push(PhaseStats {
            compute_secs,
            comm_secs: start.elapsed().as_secs_f64(),
            bytes_sent: after.0 - before.0,
            messages_sent: after.1 - before.1,
            work_units: self.pending_work,
            crit_work_units: std::mem::take(&mut self.pending_work),
        });
        self.mark = Instant::now();
        out
    }

    /// Monotone min-relaxation with Gemini's dual-mode rounds.
    fn minrelax(&mut self, init: Init, relax: fn(u32, u32) -> u32) -> (Vec<u32>, u32) {
        let part = self.part;
        let n = part.num_nodes();
        let mut labels = match init {
            Init::Source(_) => vec![INFINITY; n as usize],
            Init::OwnGid => (0..n).collect::<Vec<u32>>(),
        };
        let mut active = DenseBitset::new(n);
        match init {
            Init::Source(src) => {
                labels[src.index()] = 0;
                if part.owns(src) {
                    active.set(Lid(src.0));
                }
            }
            Init::OwnGid => {
                for v in part.owned() {
                    active.set(Lid(v));
                }
            }
        }
        // Owned values changed since the last replica refresh.
        let mut dirty = DenseBitset::new(n);
        for v in active.iter() {
            dirty.set(v);
        }
        // Round scratch, allocated once: the changed set (swapped with
        // `active` every round) and the sparse rounds' remote-write marks.
        let mut changed = DenseBitset::new(n);
        let mut touched = DenseBitset::new(n);
        let mut touched_remote: Vec<u32> = Vec::new();
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            // Mode decision needs the global active edge count.
            let local_active_edges: u64 = active
                .iter()
                .map(|v| u64::from(part.out_degree(Gid(v.0))))
                .sum();
            let global_active_edges =
                self.phase(|h| h.comm.all_reduce_u64(local_active_edges, |a, b| a + b));
            let dense = global_active_edges > part.global_edges() / DENSE_THRESHOLD_DENOM;
            if dense {
                // Work model: a dense pull scans all in-edges of owned nodes.
                self.add_work(self.part.num_pull_edges());
                // Dense round: refresh replicas everywhere, then pull at
                // owned nodes.
                self.phase(|h| {
                    let pairs: Vec<(u32, u32)> =
                        dirty.iter().map(|v| (v.0, labels[v.index()])).collect();
                    dirty.clear_all();
                    let payload = encode_pairs_u32(&pairs);
                    for dst in 0..h.comm.world_size() {
                        if dst != h.comm.rank() {
                            h.comm
                                .transport()
                                .try_send(dst, VALUE_TAG, payload.clone())
                                .unwrap_or_else(|e| panic!("value exchange send: {e}"));
                        }
                    }
                    for src in 0..h.comm.world_size() {
                        if src != h.comm.rank() {
                            let data = h
                                .comm
                                .transport()
                                .try_recv(src, VALUE_TAG)
                                .unwrap_or_else(|e| panic!("value exchange recv: {e}"));
                            decode_pairs_u32(&data, &mut |g, v| {
                                if v < labels[g as usize] {
                                    labels[g as usize] = v;
                                }
                            });
                        }
                    }
                });
                for v in part.owned() {
                    let mut best = labels[v as usize];
                    let (sources, weights) = (part.in_sources(Gid(v)), part.in_weights(Gid(v)));
                    for_each_edge(sources, weights, |src, w| {
                        best = best.min(relax(labels[src as usize], w));
                    });
                    if best < labels[v as usize] {
                        labels[v as usize] = best;
                        changed.set(Lid(v));
                        dirty.set(Lid(v));
                    }
                }
            } else {
                // Sparse round: push from the active frontier, signal
                // remote owners with (gid, value) pairs.
                self.add_work(local_active_edges);
                for g in touched_remote.drain(..) {
                    touched.clear(Lid(g));
                }
                let owned = part.owned();
                for v in active.iter() {
                    let lv = labels[v.index()];
                    let mut lower = |dst: u32, candidate: u32| {
                        if candidate < labels[dst as usize] {
                            labels[dst as usize] = candidate;
                            if owned.contains(&dst) {
                                changed.set(Lid(dst));
                                dirty.set(Lid(dst));
                            } else if !touched.test(Lid(dst)) {
                                touched.set(Lid(dst));
                                touched_remote.push(dst);
                            }
                        }
                    };
                    let (targets, weights) =
                        (part.out_targets(Gid(v.0)), part.out_weights(Gid(v.0)));
                    if weights.is_empty() {
                        // Unweighted: one candidate for the whole source.
                        let candidate = relax(lv, 1);
                        targets.iter().for_each(|&dst| lower(dst, candidate));
                    } else {
                        for_each_edge(targets, weights, |dst, w| lower(dst, relax(lv, w)));
                    }
                }
                self.phase(|h| {
                    let world = h.comm.world_size();
                    let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); world];
                    for &g in &touched_remote {
                        buckets[part.owner_of(Gid(g))].push((g, labels[g as usize]));
                    }
                    let outgoing: Vec<Bytes> =
                        buckets.iter().map(|b| encode_pairs_u32(b)).collect();
                    let incoming = h.comm.all_to_all(outgoing);
                    for data in incoming {
                        decode_pairs_u32(&data, &mut |g, v| {
                            if v < labels[g as usize] {
                                labels[g as usize] = v;
                                changed.set(Lid(g));
                                dirty.set(Lid(g));
                            }
                        });
                    }
                });
            }
            std::mem::swap(&mut active, &mut changed);
            changed.clear_all();
            let done = self.phase(|h| !h.comm.any(!active.is_empty()));
            if done {
                return (labels, rounds);
            }
        }
    }

    /// Gemini pagerank: dense pull every iteration, replicas refreshed by
    /// broadcasting changed owned ranks to every host.
    fn pagerank(
        &mut self,
        graph: &Csr,
        damping: f64,
        tolerance: f64,
        max_iters: u32,
    ) -> (Vec<f64>, u32) {
        let part = self.part;
        let n = part.num_nodes();
        let base = (1.0 - damping) / f64::from(n.max(1));
        let out_deg = graph.out_degrees();
        let mut rank = vec![1.0 / f64::from(n.max(1)); n as usize];
        // Gemini's `curr[v] = rank[v] / out_degree[v]`: one divide per
        // vertex per iteration, so the pull loop moves one word per edge
        // (the same kernel shape as `gluon_algos::apps::pagerank`).
        let mut outgoing = vec![0.0f64; n as usize];
        let mut dirty = DenseBitset::new(n);
        for v in part.owned() {
            dirty.set(Lid(v));
        }
        let mut iters = 0u32;
        while iters < max_iters {
            iters += 1;
            // Work model: each iteration scans all in-edges of owned nodes.
            self.add_work(self.part.num_pull_edges());
            // Refresh replicas with the ranks owners changed last round.
            self.phase(|h| {
                let pairs: Vec<(u32, f64)> = dirty.iter().map(|v| (v.0, rank[v.index()])).collect();
                dirty.clear_all();
                let payload = encode_pairs_f64(&pairs);
                for dst in 0..h.comm.world_size() {
                    if dst != h.comm.rank() {
                        h.comm
                            .transport()
                            .try_send(dst, VALUE_TAG, payload.clone())
                            .unwrap_or_else(|e| panic!("value exchange send: {e}"));
                    }
                }
                for src in 0..h.comm.world_size() {
                    if src != h.comm.rank() {
                        let data = h
                            .comm
                            .transport()
                            .try_recv(src, VALUE_TAG)
                            .unwrap_or_else(|e| panic!("value exchange recv: {e}"));
                        decode_pairs_f64(&data, &mut |g, v| rank[g as usize] = v);
                    }
                }
            });
            // BSP Jacobi iteration: all reads see the previous round's
            // ranks, all writes land after the sweep (matching Gemini's
            // bulk-synchronous rounds and the reference oracle).
            let mut local_delta = 0.0f64;
            let owned = part.owned();
            for ((out, &r), &deg) in outgoing.iter_mut().zip(&rank).zip(&out_deg) {
                *out = r / f64::from(deg.max(1));
            }
            let mut next_ranks = Vec::with_capacity(owned.len());
            for v in owned.clone() {
                let mut sum = 0.0f64;
                for &u in part.in_sources(Gid(v)) {
                    sum += outgoing[u as usize];
                }
                next_ranks.push(base + damping * sum);
            }
            for (v, next) in owned.zip(next_ranks) {
                let delta = (next - rank[v as usize]).abs();
                if delta > 0.0 {
                    rank[v as usize] = next;
                    dirty.set(Lid(v));
                }
                local_delta += delta;
            }
            let total = self.phase(|h| h.comm.all_reduce_f64(local_delta, |a, b| a + b));
            if total < tolerance {
                break;
            }
        }
        (rank, iters)
    }
}

fn encode_pairs_u32(pairs: &[(u32, u32)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(pairs.len() * 8);
    for &(g, v) in pairs {
        buf.put_u32_le(g);
        buf.put_u32_le(v);
    }
    buf.freeze()
}

fn decode_pairs_u32(data: &[u8], apply: &mut impl FnMut(u32, u32)) {
    assert_eq!(data.len() % 8, 0, "pair framing");
    for c in data.chunks_exact(8) {
        apply(
            u32::from_le_bytes(c[..4].try_into().expect("gid")),
            u32::from_le_bytes(c[4..].try_into().expect("value")),
        );
    }
}

fn encode_pairs_f64(pairs: &[(u32, f64)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(pairs.len() * 12);
    for &(g, v) in pairs {
        buf.put_u32_le(g);
        buf.put_f64_le(v);
    }
    buf.freeze()
}

fn decode_pairs_f64(data: &[u8], apply: &mut impl FnMut(u32, f64)) {
    assert_eq!(data.len() % 12, 0, "pair framing");
    for c in data.chunks_exact(12) {
        apply(
            u32::from_le_bytes(c[..4].try_into().expect("gid")),
            f64::from_le_bytes(c[4..].try_into().expect("value")),
        );
    }
}
