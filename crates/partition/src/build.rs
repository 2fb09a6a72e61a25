//! Constructing [`LocalGraph`]s from a global graph and a policy.
//!
//! Two paths produce *identical* partitions:
//!
//! * [`partition_all`] — a serial convenience that materializes every host's
//!   partition at once (tests, single-process tools);
//! * [`partition_on_host`] — the distributed path of the paper (§4.1: "each
//!   host reads from disk a subset of edges assigned to it and receives from
//!   other hosts the rest"): every host scans its 1/n slice of the edge
//!   list, routes edges to their assigned hosts through an all-to-all
//!   exchange, and builds only its own partition.

use crate::local::LocalGraph;
use crate::policy::{Policy, PolicyCtx};
use bytes::Bytes;
use gluon_graph::{fill_csr, Csr, EdgeStream, Gid};
use gluon_net::{Communicator, Transport};
use std::ops::Range;

/// Partitions `graph` for `num_hosts` hosts, producing all partitions at
/// once (rank order).
///
/// # Examples
///
/// ```
/// use gluon_graph::gen;
/// use gluon_partition::{partition_all, Policy};
///
/// let g = gen::rmat(6, 4, Default::default(), 1);
/// let parts = partition_all(&g, 4, Policy::Cvc);
/// let local_edges: u64 = parts.iter().map(|p| p.num_local_edges()).sum();
/// assert_eq!(local_edges, g.num_edges());
/// ```
///
/// # Panics
///
/// Panics if `num_hosts` is zero.
pub fn partition_all(graph: &Csr, num_hosts: usize, policy: Policy) -> Vec<LocalGraph> {
    let ctx = PolicyCtx::new(policy, graph, num_hosts);
    let (m, width) = (graph.num_edges(), edge_bytes(graph));
    let mut buckets = vec![Vec::new(); num_hosts];
    route_edge_slice(graph, &ctx, 0, m, &[], |host, src, dst, w| {
        put_edge(&mut buckets[host], width, src, dst, w);
    });
    buckets
        .into_iter()
        .enumerate()
        .map(|(host, edges)| {
            let edges = HostEdges {
                graph,
                slice: 0..0,
                stays: &[],
                received: &[Bytes::from(edges)],
            };
            build_local(host, &ctx, &edges)
        })
        .collect()
}

/// Distributed partitioning: call on every host of a cluster; each host
/// returns its own [`LocalGraph`].
///
/// `graph` models the cluster's shared filesystem — every host can see it,
/// but each host only *scans* its 1/n contiguous slice of the edge list and
/// learns the rest of its edges from the all-to-all exchange, exactly like
/// the disk-plus-network construction the paper describes. The produced
/// partition is bit-identical to the corresponding entry of
/// [`partition_all`].
pub fn partition_on_host<T: Transport + ?Sized>(
    graph: &Csr,
    policy: Policy,
    comm: &Communicator<'_, T>,
) -> LocalGraph {
    let num_hosts = comm.world_size();
    let rank = comm.rank();
    let ctx = PolicyCtx::new(policy, graph, num_hosts);
    let m = graph.num_edges();
    let lo = m * rank as u64 / num_hosts as u64;
    let hi = m * (rank as u64 + 1) / num_hosts as u64;

    // Count first, so every buffer is allocated once at its final size. The
    // edges that stay here are not copied anywhere: the same pass sets their
    // bits in a mask of one bit per edge of the slice, and every later pass
    // reads them from `graph`.
    let width = edge_bytes(graph);
    let mut counts = vec![0usize; num_hosts];
    let mut stays = vec![0u64; (hi - lo).div_ceil(64) as usize];
    let mut i = 0usize;
    route_edge_slice(graph, &ctx, lo, hi, &[], |host, _, _, _| {
        counts[host] += 1;
        stays[i / 64] |= u64::from(host == rank) << (i % 64);
        i += 1;
    });
    counts[rank] = 0;
    let mut outgoing: Vec<Vec<u8>> = counts
        .iter()
        .map(|&c| Vec::with_capacity(c * width))
        .collect();
    // The second pass routes only the edges that leave.
    route_edge_slice(graph, &ctx, lo, hi, &stays, |host, src, dst, weight| {
        put_edge(&mut outgoing[host], width, src, dst, weight);
    });
    let received = comm.all_to_all(outgoing.into_iter().map(Bytes::from).collect());
    let edges = HostEdges {
        graph,
        slice: lo..hi,
        stays: &stays,
        received: &received,
    };
    build_local(rank, &ctx, &edges)
}

/// Calls `row(v, edges)` for every row `v` of `graph` that holds some of
/// edges `lo..hi` (by CSR edge index), in order, `edges` being the row's
/// share of them.
fn for_each_row(graph: &Csr, lo: u64, hi: u64, mut row: impl FnMut(u32, Range<usize>)) {
    let offsets = graph.offsets();
    // The row holding edge `lo`: the last one starting at or before it.
    let mut v = offsets.partition_point(|&o| o <= lo).saturating_sub(1);
    let mut e = lo;
    while e < hi {
        while offsets[v + 1] <= e {
            v += 1;
        }
        let row_end = offsets[v + 1].min(hi);
        row(v as u32, e as usize..row_end as usize);
        e = row_end;
    }
}

/// Weight of edge `i` of `graph` (1 when the graph is unweighted).
fn weight_at(graph: &Csr, i: usize) -> u32 {
    graph.weights().get(i).copied().unwrap_or(1)
}

/// Calls `sink(host, src, dst, weight)` for edges `lo..hi` (by CSR edge
/// index) of `graph`, in CSR order, `host` being the one `ctx` assigns the
/// edge to. Edge `lo + i` is passed over when bit `i` of `skip` is set; an
/// empty `skip` passes over none.
///
/// Works out the source's side of the edge's host (its master, and under
/// CVC its grid row) once per [`PolicyCtx::master_run`], so per edge there
/// is only the destination's side: a branch-free block lookup at most, and
/// no division.
fn route_edge_slice(
    graph: &Csr,
    ctx: &PolicyCtx,
    lo: u64,
    hi: u64,
    skip: &[u64],
    mut sink: impl FnMut(usize, u32, u32, u32),
) {
    let targets = graph.targets();
    let (mut side, mut run_end) = (ctx.source_side(0), 0);
    for_each_row(graph, lo, hi, |v, edges| {
        if v >= run_end {
            let master;
            (master, run_end) = ctx.master_run(Gid(v));
            side = ctx.source_side(master);
        }
        let route = |i: usize| {
            let dst = targets[i];
            let host = ctx.host_of_edge_on(side, Gid(dst));
            sink(host, v, dst, weight_at(graph, i));
        };
        if skip.is_empty() {
            edges.for_each(route);
        } else {
            for_each_set_bit(edges, lo as usize, |word| !skip[word], route);
        }
    });
}

/// Calls `visit(i)` for every `i` of `edges` whose bit `i - lo` is set in
/// the mask whose words `word(k)` gives, in order. The mask is read a word
/// at a time and only the set bits are visited, so no branch depends on a
/// single bit (under CVC, whether an edge stays is a coin toss per edge).
#[inline]
fn for_each_set_bit(
    edges: Range<usize>,
    lo: usize,
    word: impl Fn(usize) -> u64,
    mut visit: impl FnMut(usize),
) {
    let (mut at, end) = (edges.start - lo, edges.end - lo);
    while at < end {
        let stop = end.min((at / 64 + 1) * 64);
        let mut bits = word(at / 64) >> (at % 64) & u64::MAX >> (64 - (stop - at));
        while bits != 0 {
            visit(lo + at + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
        at = stop;
    }
}

/// Bytes of one routed edge of `graph`: `src` and `dst` as little-endian
/// `u32`s, then `weight` the same way when the graph is weighted. Every host
/// reads the same graph, so senders and receivers agree on it.
fn edge_bytes(graph: &Csr) -> usize {
    if graph.weights().is_empty() {
        8
    } else {
        12
    }
}

/// Appends one edge record of `width` bytes (see [`edge_bytes`]).
#[inline]
fn put_edge(buf: &mut Vec<u8>, width: usize, src: u32, dst: u32, weight: u32) {
    let mut edge = [0u8; 12];
    edge[0..4].copy_from_slice(&src.to_le_bytes());
    edge[4..8].copy_from_slice(&dst.to_le_bytes());
    edge[8..12].copy_from_slice(&weight.to_le_bytes());
    // Two fixed-size copies rather than one of a run-time length, which
    // would be a call to `memcpy` per edge.
    if width == 12 {
        buf.extend_from_slice(&edge);
    } else {
        buf.extend_from_slice(&edge[..8]);
    }
}

/// The edges routed to one host, in global ids: those of its own slice of
/// the edge list that stay, read where they lie in the graph, and those its
/// peers sent.
struct HostEdges<'a> {
    graph: &'a Csr,
    /// The host's slice of the edge list (by CSR edge index); bit `i` of
    /// `stays` set means edge `slice.start + i` stays on this host.
    slice: Range<u64>,
    stays: &'a [u64],
    received: &'a [Bytes],
}

impl HostEdges<'_> {
    /// Calls `sink(src, dst, weight)` for every edge, in the same order on
    /// every call.
    fn for_each(&self, mut sink: impl FnMut(u32, u32, u32)) {
        let targets = self.graph.targets();
        let lo = self.slice.start as usize;
        for_each_row(self.graph, self.slice.start, self.slice.end, |v, edges| {
            for_each_set_bit(
                edges,
                lo,
                |word| self.stays[word],
                |i| {
                    sink(v, targets[i], weight_at(self.graph, i));
                },
            );
        });
        let width = edge_bytes(self.graph);
        for payload in self.received {
            assert_eq!(
                payload.len() % width,
                0,
                "edge payload of {} bytes is not a whole number of {width}-byte records",
                payload.len()
            );
            let word = |edge: &[u8], i: usize| {
                u32::from_le_bytes(edge[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            };
            for edge in payload.chunks_exact(width) {
                let weight = if width == 12 { word(edge, 2) } else { 1 };
                sink(word(edge, 0), word(edge, 1), weight);
            }
        }
    }
}

/// A host's edges in its local id space.
struct LocalEdges<'a> {
    edges: &'a HostEdges<'a>,
    lid_of: &'a [u32],
}

impl EdgeStream for LocalEdges<'_> {
    fn for_each(&self, mut sink: impl FnMut(u32, u32, u32)) {
        self.edges.for_each(|u, v, w| {
            sink(self.lid_of[u as usize], self.lid_of[v as usize], w);
        });
    }
}

/// Marks in the per-vertex scratch of [`build_local`].
const MASTER: u8 = 1;
const ENDPOINT: u8 = 2;

/// Builds host `host`'s [`LocalGraph`] from the edges routed to it, in
/// linear passes over flat arrays (DESIGN.md, "Partition construction").
///
/// The edges are never gathered into a list, and `edges` is walked twice.
/// The first walk marks both ends of every edge and counts each source's
/// out-degree; one scan in gid order then hands out local ids and lays the
/// counts out in local id order; the second walk is [`fill_csr`]'s scatter.
/// Two scratch arrays indexed by global id — one byte of marks and one `u32`
/// per vertex, first the out-degree and then the local id — live only
/// inside this function.
fn build_local(host: usize, ctx: &PolicyCtx, edges: &HostEdges<'_>) -> LocalGraph {
    let graph = edges.graph;
    let n = graph.num_nodes();
    // Masters: every node this host owns — present even when isolated, so
    // reductions and initial values always have a home.
    let mut marks = vec![0u8; n as usize];
    let mut num_masters = 0u32;
    let mut v = 0u32;
    while v < n {
        let (master, run_end) = ctx.master_run(Gid(v));
        if master == host {
            marks[v as usize..run_end as usize].fill(MASTER);
            num_masters += run_end - v;
        }
        v = run_end;
    }
    // Mirrors: endpoints of local edges whose master is remote. The same
    // walk counts out-degrees by global id.
    let mut lid_of = vec![0u32; n as usize];
    let mut unit_weights = true;
    edges.for_each(|u, v, w| {
        marks[u as usize] |= ENDPOINT;
        marks[v as usize] |= ENDPOINT;
        lid_of[u as usize] += 1;
        unit_weights &= w == 1;
    });
    // One scan in gid order hands out local ids, masters first, and leaves
    // both proxy ranges sorted by gid. It moves each proxy's out-degree to
    // its local id's row, one slot to the right as `fill_csr` wants it, and
    // puts the local id in its place.
    let num_proxies = marks.iter().filter(|&&mark| mark != 0).count();
    let mut offsets = vec![0u64; num_proxies + 1];
    let mut gids = Vec::with_capacity(num_masters as usize);
    let mut mirror_gids = Vec::new();
    for (g, &mark) in marks.iter().enumerate() {
        let lid = if mark & MASTER != 0 {
            gids.push(Gid(g as u32));
            gids.len() - 1
        } else if mark != 0 {
            mirror_gids.push(Gid(g as u32));
            num_masters as usize + mirror_gids.len() - 1
        } else {
            continue;
        };
        offsets[lid + 1] = u64::from(lid_of[g]);
        lid_of[g] = lid as u32;
    }
    drop(marks);
    gids.append(&mut mirror_gids);

    let local_csr = fill_csr(
        offsets,
        unit_weights,
        &LocalEdges {
            edges,
            lid_of: &lid_of,
        },
        false,
    );
    drop(lid_of);
    LocalGraph::from_parts(
        host,
        ctx.num_hosts(),
        ctx.policy(),
        n,
        graph.num_edges(),
        local_csr,
        gids,
        num_masters,
        |g| ctx.master_of(g),
    )
}

/// Translates a local edge target back to global space (test helper).
pub fn local_edge_gids(lg: &LocalGraph) -> Vec<(Gid, Gid, u32)> {
    let mut out = Vec::with_capacity(lg.num_local_edges() as usize);
    for p in lg.proxies() {
        for e in lg.out_edges(p) {
            out.push((lg.gid(p), lg.gid(e.dst), e.weight));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::{gen, GraphBuilder};
    use gluon_net::run_cluster;

    #[test]
    fn every_edge_lands_on_exactly_one_host() {
        let g = gen::with_random_weights(&gen::rmat(6, 4, Default::default(), 7), 9, 1);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 3, policy);
            let mut all: Vec<_> = parts
                .iter()
                .flat_map(local_edge_gids)
                .map(|(s, d, w)| (s.0, d.0, w))
                .collect();
            all.sort_unstable();
            let mut orig: Vec<_> = g.edges().map(|(s, e)| (s.0, e.dst.0, e.weight)).collect();
            orig.sort_unstable();
            assert_eq!(all, orig, "policy {policy}");
        }
    }

    #[test]
    fn every_node_has_exactly_one_master() {
        let g = gen::rmat(6, 4, Default::default(), 2);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 4, policy);
            let mut owners = vec![0u32; g.num_nodes() as usize];
            for p in &parts {
                for m in p.masters() {
                    owners[p.gid(m).index()] += 1;
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "policy {policy}");
        }
    }

    #[test]
    fn single_host_partition_has_no_mirrors() {
        let g = gen::rmat(5, 4, Default::default(), 4);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 1, policy);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0].num_mirrors(), 0);
            assert_eq!(parts[0].num_local_edges(), g.num_edges());
        }
    }

    #[test]
    fn distributed_equals_serial() {
        // Both record widths: 12 bytes per routed edge, then 8.
        let unweighted = gen::rmat(6, 4, Default::default(), 11);
        let weighted = gen::with_random_weights(&unweighted, 5, 2);
        for (input, g) in [("weighted", &weighted), ("unweighted", &unweighted)] {
            assert_eq!(edge_bytes(g), if input == "weighted" { 12 } else { 8 });
            for policy in Policy::ALL {
                let serial = partition_all(g, 4, policy);
                let distributed = run_cluster(4, |ep| {
                    let comm = Communicator::new(ep);
                    partition_on_host(g, policy, &comm)
                });
                for (s, d) in serial.iter().zip(&distributed) {
                    let what = format!("{input}, policy {policy}");
                    crate::oracle::assert_same_partition(d, s, &what);
                }
            }
        }
    }

    /// Walks one received payload of `len` bytes as an edge stream of `g`.
    fn walk_payload(g: &Csr, len: usize) {
        let received = [Bytes::from(vec![0u8; len])];
        let edges = HostEdges {
            graph: g,
            slice: 0..0,
            stays: &[],
            received: &received,
        };
        edges.for_each(|_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "whole number of 8-byte records")]
    fn a_torn_unweighted_payload_panics() {
        walk_payload(&gen::rmat(4, 4, Default::default(), 1), 12);
    }

    #[test]
    #[should_panic(expected = "whole number of 12-byte records")]
    fn a_torn_weighted_payload_panics() {
        let g = gen::with_random_weights(&gen::rmat(4, 4, Default::default(), 1), 5, 2);
        walk_payload(&g, 16);
    }

    /// Edges `lo..hi` as `route_edge_slice` reports them.
    fn routed(g: &Csr, ctx: &PolicyCtx, lo: u64, hi: u64) -> Vec<(usize, u32, u32, u32)> {
        let mut out = Vec::new();
        route_edge_slice(g, ctx, lo, hi, &[], |h, s, d, w| out.push((h, s, d, w)));
        out
    }

    /// The host of edge `(s, d)` by each policy's definition (§3.1),
    /// written out with plain division from the two endpoints' masters.
    fn host_by_formula(g: &Csr, ctx: &PolicyCtx, s: Gid, d: Gid) -> usize {
        let (src_master, dst_master) = (ctx.master_of(s), ctx.master_of(d));
        match ctx.policy() {
            Policy::Oec | Policy::RandomOec | Policy::Fennel => src_master,
            Policy::Iec => dst_master,
            Policy::Cvc => {
                let (_, cols) = ctx.grid();
                (src_master / cols) * cols + dst_master % cols
            }
            Policy::Hvc => {
                let hub_threshold = 4 * (g.num_edges() / u64::from(g.num_nodes())).max(1);
                if u64::from(g.in_degrees()[d.index()]) > hub_threshold {
                    src_master
                } else {
                    dst_master
                }
            }
        }
    }

    #[test]
    fn route_edge_slice_covers_all_edges_without_overlap() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, Default::default(), 5), 4, 3);
        let m = g.num_edges();
        // 4, 6 and 9 hosts make CVC grids of more than one row (2×2, 2×3,
        // 3×3), 6 and 9 with a column count that is not a power of two.
        for hosts in [2, 3, 4, 6, 9] {
            for policy in Policy::ALL {
                let ctx = PolicyCtx::new(policy, &g, hosts);
                let expected: Vec<_> = g
                    .edges()
                    .map(|(s, e)| (host_by_formula(&g, &ctx, s, e.dst), s.0, e.dst.0, e.weight))
                    .collect();
                for n in [1u64, 2, 3, 7] {
                    let seen: Vec<_> = (0..n)
                        .flat_map(|h| routed(&g, &ctx, m * h / n, m * (h + 1) / n))
                        .collect();
                    assert_eq!(seen, expected, "policy {policy}, {hosts} hosts, {n} slices");
                }
            }
        }
    }

    #[test]
    fn route_edge_slice_handles_isolated_leading_nodes() {
        // Node 0..9 isolated, edges start at node 10.
        let mut b = GraphBuilder::new(20);
        b.add_edge(Gid(10), Gid(1), 1);
        b.add_edge(Gid(15), Gid(2), 1);
        let g = b.build();
        let ctx = PolicyCtx::new(Policy::Oec, &g, 1);
        assert_eq!(routed(&g, &ctx, 0, 2), vec![(0, 10, 1, 1), (0, 15, 2, 1)]);
        assert_eq!(routed(&g, &ctx, 1, 2), vec![(0, 15, 2, 1)]);
        assert_eq!(routed(&g, &ctx, 2, 2), vec![]);
    }

    #[test]
    fn oec_mirrors_have_no_outgoing_edges() {
        // The structural invariant §2.3 relies on.
        let g = gen::rmat(6, 4, Default::default(), 6);
        for p in partition_all(&g, 4, Policy::Oec) {
            for m in p.mirrors() {
                assert!(!p.has_local_out_edges(m), "host {} {m}", p.host());
            }
        }
    }

    #[test]
    fn iec_mirrors_have_no_incoming_edges() {
        let g = gen::rmat(6, 4, Default::default(), 6);
        for p in partition_all(&g, 4, Policy::Iec) {
            for m in p.mirrors() {
                assert!(!p.has_local_in_edges(m), "host {} {m}", p.host());
            }
        }
    }

    #[test]
    fn cvc_mirrors_never_have_both_edge_directions() {
        let g = gen::rmat(7, 4, Default::default(), 8);
        for p in partition_all(&g, 4, Policy::Cvc) {
            for m in p.mirrors() {
                assert!(
                    !(p.has_local_in_edges(m) && p.has_local_out_edges(m)),
                    "host {} {m} has both directions",
                    p.host()
                );
            }
        }
    }
}
