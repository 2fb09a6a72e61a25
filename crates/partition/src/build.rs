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
//!
//! Every pass moves *runs*, not edges: a run is a maximal stretch of one
//! source row's consecutive edges that all go to one host
//! ([`PolicyCtx::for_each_run`]). The router counts runs, the wire carries
//! one record per run, and the local CSR is filled a run at a time. A
//! record is `src`, `count`, then `count` targets and, on a weighted input,
//! their `count` weights, all little-endian `u32`s. Whether weights are
//! present follows from the input, which every host reads; it is not an
//! option. DESIGN.md, "Partition construction", has the passes and their
//! cost.

use crate::local::LocalGraph;
use crate::policy::{Policy, PolicyCtx, SourceSide};
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
    let mut buckets = vec![Vec::new(); num_hosts];
    Router::new(graph, &ctx, 0).runs(0..graph.num_edges() as usize, |host, src, run| {
        put_run(&mut buckets[host], graph, src, run);
    });
    buckets
        .into_iter()
        .enumerate()
        .map(|(host, records)| {
            let edges = HostEdges {
                graph,
                slice: 0..0,
                stays: &[],
                received: &[Bytes::from(records)],
                masters: ctx.master_block(host),
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
    let m = graph.num_edges() as usize;
    let (lo, hi) = (m * rank / num_hosts, m * (rank + 1) / num_hosts);

    // Count first, so every buffer is allocated once at its final size. The
    // runs that stay here are not copied anywhere: the same pass sets their
    // bits in a mask of one bit per edge of the slice, and every later pass
    // reads them from `graph`.
    let edge_bytes = if graph.weights().is_empty() { 4 } else { 8 };
    let mut bytes = vec![0usize; num_hosts];
    let mut stays = vec![0u64; (hi - lo).div_ceil(64)];
    Router::new(graph, &ctx, lo).runs(lo..hi, |host, _, run| {
        bytes[host] += RECORD_HEADER + run.len() * edge_bytes;
        mark_bits(&mut stays, run.start - lo..run.end - lo, host == rank);
    });
    bytes[rank] = 0;
    let mut outgoing: Vec<Vec<u8>> = bytes.iter().map(|&b| Vec::with_capacity(b)).collect();
    // The second pass routes only the runs that leave: the mask's clear bits.
    let mut router = Router::new(graph, &ctx, lo);
    for_each_bit_run(&stays, lo, lo..hi, false, |leaving| {
        router.runs(leaving, |host, src, run| {
            put_run(&mut outgoing[host], graph, src, run);
        });
    });
    let received = comm.all_to_all(outgoing.into_iter().map(Bytes::from).collect());
    let edges = HostEdges {
        graph,
        slice: lo..hi,
        stays: &stays,
        received: &received,
        masters: ctx.master_block(rank),
    };
    build_local(rank, &ctx, &edges)
}

/// A walk over the rows of a CSR that splits ascending stretches of edge
/// indices at row boundaries.
struct Rows<'a> {
    offsets: &'a [u64],
    /// The row the walk is at.
    v: usize,
}

impl<'a> Rows<'a> {
    /// A walk starting at the row that holds edge `lo`: the last one
    /// starting at or before it.
    fn at(graph: &'a Csr, lo: usize) -> Self {
        let offsets = graph.offsets();
        let v = offsets
            .partition_point(|&o| o <= lo as u64)
            .saturating_sub(1);
        Rows { offsets, v }
    }

    /// Calls `row(v, edges)` for every row `v` that holds some of `edges`,
    /// in order, `edges` being the row's share of them. Each call's
    /// `edges` must start at or after the previous call's end.
    #[inline]
    fn split(&mut self, edges: Range<usize>, mut row: impl FnMut(u32, Range<usize>)) {
        let mut e = edges.start;
        while e < edges.end {
            while self.offsets[self.v + 1] as usize <= e {
                self.v += 1;
            }
            let row_end = (self.offsets[self.v + 1] as usize).min(edges.end);
            row(self.v as u32, e..row_end);
            e = row_end;
        }
    }
}

/// Routes ascending stretches of a graph's edge list run by run. It works
/// out the source's side of an edge's host (its master, and under CVC its
/// grid row) once per [`PolicyCtx::master_run`], and carries that and its
/// row walk from one stretch to the next.
struct Router<'a> {
    graph: &'a Csr,
    ctx: &'a PolicyCtx,
    rows: Rows<'a>,
    side: SourceSide,
    /// The sources below this one share `side`.
    side_end: u32,
}

impl<'a> Router<'a> {
    /// A router whose first stretch starts at or after edge `lo`.
    fn new(graph: &'a Csr, ctx: &'a PolicyCtx, lo: usize) -> Self {
        Router {
            graph,
            ctx,
            rows: Rows::at(graph, lo),
            side: ctx.source_side(0),
            side_end: 0,
        }
    }

    /// Calls `run(host, src, edges)` for every run of `edges` (CSR edge
    /// indices), in CSR order. Each call's `edges` must start at or after
    /// the previous call's end.
    fn runs(&mut self, edges: Range<usize>, mut run: impl FnMut(usize, u32, Range<usize>)) {
        let (ctx, targets) = (self.ctx, self.graph.targets());
        let (side, side_end) = (&mut self.side, &mut self.side_end);
        self.rows.split(edges, |v, row| {
            if v >= *side_end {
                let master;
                (master, *side_end) = ctx.master_run(Gid(v));
                *side = ctx.source_side(master);
            }
            ctx.for_each_run(*side, targets, row, |host, edges| run(host, v, edges));
        });
    }
}

/// Sets bits `bits` of `mask` (bit `i` is bit `i % 64` of word `i / 64`)
/// when `on`, a word at a time and with no branch on `on`.
fn mark_bits(mask: &mut [u64], bits: Range<usize>, on: bool) {
    let fill = 0u64.wrapping_sub(u64::from(on));
    let (mut at, end) = (bits.start, bits.end);
    while at < end {
        let stop = end.min((at / 64 + 1) * 64);
        mask[at / 64] |= fill & (u64::MAX >> (64 - (stop - at))) << (at % 64);
        at = stop;
    }
}

/// Calls `stretch(i..j)` for every maximal stretch of `edges` whose bits
/// `i - lo` in `mask` are all set (`set`) or all clear (`!set`), in order.
/// The mask is read a word at a time, so no branch depends on a single bit
/// (under CVC, whether an edge stays is a coin toss per edge).
fn for_each_bit_run(
    mask: &[u64],
    lo: usize,
    edges: Range<usize>,
    set: bool,
    mut stretch: impl FnMut(Range<usize>),
) {
    let flip = if set { 0 } else { u64::MAX };
    let wanted = |k: usize| mask[k] ^ flip;
    let other = |k: usize| !(mask[k] ^ flip);
    let (mut at, end) = (edges.start - lo, edges.end - lo);
    while at < end {
        let start = next_bit(wanted, at, end);
        if start == end {
            break;
        }
        let stop = next_bit(other, start, end);
        stretch(lo + start..lo + stop);
        at = stop;
    }
}

/// The first `i` of `from..end` whose bit is set in the mask whose words
/// `word(k)` gives, or `end` if there is none. `from` must be below `end`.
#[inline]
fn next_bit(word: impl Fn(usize) -> u64, from: usize, end: usize) -> usize {
    let mut k = from / 64;
    let mut bits = word(k) & u64::MAX << (from % 64);
    while bits == 0 {
        k += 1;
        if k * 64 >= end {
            return end;
        }
        bits = word(k);
    }
    end.min(k * 64 + bits.trailing_zeros() as usize)
}

/// Bytes of a record's header: `src` and `count`.
const RECORD_HEADER: usize = 8;

/// Appends the record of run `edges` (CSR edge indices) of source `src` to
/// `buf` (see the module doc).
fn put_run(buf: &mut Vec<u8>, graph: &Csr, src: u32, edges: Range<usize>) {
    let weights = graph.weights().get(edges.clone()).unwrap_or_default();
    let targets = &graph.targets()[edges];
    let at = buf.len();
    buf.resize(at + RECORD_HEADER + 4 * (targets.len() + weights.len()), 0);
    let (header, body) = buf[at..].split_at_mut(RECORD_HEADER);
    put_words(header, &[src, targets.len() as u32]);
    let (target_bytes, weight_bytes) = body.split_at_mut(4 * targets.len());
    put_words(target_bytes, targets);
    put_words(weight_bytes, weights);
}

/// Writes `words` over `bytes` as little-endian `u32`s.
#[inline]
fn put_words(bytes: &mut [u8], words: &[u32]) {
    for (bytes, word) in bytes.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Calls `sink(src, targets, weights)` for every record of `payload`, in
/// order, with the record's words decoded into `words`; the records carry
/// weights when `weighted`.
///
/// # Panics
///
/// Panics, naming the byte counts, if the payload ends inside a record's
/// header or before the edges its count promises.
fn for_each_record(
    payload: &[u8],
    weighted: bool,
    words: &mut Vec<u32>,
    mut sink: impl FnMut(u32, &[u32], &[u32]),
) {
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    let len = payload.len();
    let mut at = 0;
    while at < len {
        assert!(
            RECORD_HEADER <= len - at,
            "edge payload of {len} bytes ends inside the record header at byte {at}"
        );
        let (src, count) = (word(&payload[at..at + 4]), word(&payload[at + 4..at + 8]));
        let count = count as usize;
        let body = count.saturating_mul(if weighted { 8 } else { 4 });
        let start = at + RECORD_HEADER;
        assert!(
            body <= len - start,
            "the record at byte {at} of an edge payload of {len} bytes needs {body} bytes \
             for its {count} edges, but only {} follow its header",
            len - start
        );
        words.clear();
        words.extend(payload[start..start + body].chunks_exact(4).map(word));
        let (targets, weights) = words.split_at(count);
        sink(src, targets, weights);
        at = start + body;
    }
}

/// The runs routed to one host, in global ids: those of its own slice of
/// the edge list that stay, read where they lie in the graph, and those its
/// peers sent.
#[derive(Clone)]
struct HostEdges<'a> {
    graph: &'a Csr,
    /// The host's slice of the edge list (by CSR edge index); bit `i` of
    /// `stays` set means edge `slice.start + i` stays on this host.
    slice: Range<usize>,
    stays: &'a [u64],
    received: &'a [Bytes],
    /// The host's masters when they are one block
    /// ([`PolicyCtx::master_block`]): each run is then handed over in local
    /// id order (see [`HostEdges::in_local_order`]).
    masters: Option<Range<u32>>,
}

impl EdgeStream for HostEdges<'_> {
    /// The stretches of set bits of `stays`, a row at a time, then the
    /// records of every received payload, in rank order.
    fn for_each_run(&self, mut sink: impl FnMut(u32, &[u32], &[u32])) {
        let (targets, weights) = (self.graph.targets(), self.graph.weights());
        let mut rows = Rows::at(self.graph, self.slice.start);
        for_each_bit_run(
            self.stays,
            self.slice.start,
            self.slice.clone(),
            true,
            |stretch| {
                rows.split(stretch, |v, run| {
                    let run_weights = weights.get(run.clone()).unwrap_or_default();
                    self.in_local_order(v, &targets[run], run_weights, &mut sink);
                });
            },
        );
        let mut words = Vec::new();
        for payload in self.received {
            for_each_record(payload, !weights.is_empty(), &mut words, |src, t, w| {
                self.in_local_order(src, t, w, &mut sink);
            });
        }
    }
}

impl HostEdges<'_> {
    /// Hands run `targets` (weights `weights`) of source `src` to `sink`,
    /// in local id order when the run's targets ascend.
    ///
    /// A host numbers its masters first, then its mirrors, each in gid
    /// order. When its masters are one block, a run's targets in local id
    /// order are those inside the block, then those below it, then those
    /// above it; the three pieces go to `sink` in that order, empty ones
    /// left out. A row that arrives as one run then reaches [`fill_csr`]
    /// ascending, and is never sorted. Under the hashed and streamed
    /// policies the run goes as it is.
    #[inline]
    fn in_local_order(
        &self,
        src: u32,
        targets: &[u32],
        weights: &[u32],
        sink: &mut impl FnMut(u32, &[u32], &[u32]),
    ) {
        let Some(block) = &self.masters else {
            if !targets.is_empty() {
                sink(src, targets, weights);
            }
            return;
        };
        let (mut below, mut before_end) = (0, 0);
        for &t in targets {
            below += usize::from(t < block.start);
            before_end += usize::from(t < block.end);
        }
        for piece in [below..before_end, 0..below, before_end..targets.len()] {
            if !piece.is_empty() {
                let piece_weights = weights.get(piece.clone()).unwrap_or_default();
                sink(src, &targets[piece], piece_weights);
            }
        }
    }
}

/// Marks in the per-vertex scratch of [`build_local`].
const MASTER: u8 = 1;
const SOURCE: u8 = 2;
const DEST: u8 = 4;

/// Builds host `host`'s [`LocalGraph`] from the runs routed to it, in
/// linear passes over flat arrays (DESIGN.md, "Partition construction").
///
/// The edges are never gathered into a list, and `edges` is walked twice.
/// The first walk marks the source of every run and the destination of
/// every edge, and counts each source's out-degree a run at a time; one
/// scan in gid order then hands out local ids, lays the counts out in
/// local id order and notes which proxies have an in-edge; the second walk
/// is [`fill_csr`]'s copy. Two scratch arrays indexed by global id — one
/// byte of marks and one `u32` per vertex, first the out-degree and then
/// the local id — live only inside this function.
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
    // walk counts out-degrees by global id; marking cares for no order, so
    // it takes the runs as they come.
    let mut lid_of = vec![0u32; n as usize];
    let mut unit_weights = true;
    let as_they_come = HostEdges {
        masters: None,
        ..edges.clone()
    };
    as_they_come.for_each_run(|u, targets, weights| {
        marks[u as usize] |= SOURCE;
        lid_of[u as usize] += targets.len() as u32;
        for &t in targets {
            marks[t as usize] |= DEST;
        }
        unit_weights &= weights.iter().all(|&w| w == 1);
    });
    // One scan in gid order hands out local ids, masters first, and leaves
    // both proxy ranges sorted by gid. It moves each proxy's out-degree to
    // its local id's row, one slot to the right as `fill_csr` wants it,
    // puts the local id in its place, and sets the proxy's in-edge bit.
    let num_proxies = marks.iter().filter(|&&mark| mark != 0).count();
    let mut offsets = vec![0u64; num_proxies + 1];
    let mut has_in = vec![0u64; num_proxies.div_ceil(64)];
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
        has_in[lid / 64] |= u64::from(mark & DEST != 0) << (lid % 64);
    }
    drop(marks);
    gids.append(&mut mirror_gids);

    let local_csr = fill_csr(offsets, unit_weights, edges, |g| lid_of[g as usize], false);
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
        has_in,
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
        // Both record widths: targets and weights, then targets alone.
        let unweighted = gen::rmat(6, 4, Default::default(), 11);
        let weighted = gen::with_random_weights(&unweighted, 5, 2);
        for (input, g) in [("weighted", &weighted), ("unweighted", &unweighted)] {
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

    /// A run as a stream hands it over.
    type Run = (u32, Vec<u32>, Vec<u32>);

    /// The runs of `payload`, walked as a host's only received payload of
    /// `g`'s edges.
    fn walk_payload(g: &Csr, payload: &[u8]) -> Vec<Run> {
        let received = [Bytes::copy_from_slice(payload)];
        let edges = HostEdges {
            graph: g,
            slice: 0..0,
            stays: &[],
            received: &received,
            masters: None,
        };
        let mut runs = Vec::new();
        edges.for_each_run(|s, t, w| runs.push((s, t.to_vec(), w.to_vec())));
        runs
    }

    /// `words` as the little-endian bytes of a payload.
    fn le(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Checks that walking each payload panics with its message.
    fn assert_torn(g: &Csr, cases: &[(Vec<u8>, &str)]) {
        for (payload, want) in cases {
            let panic = std::panic::catch_unwind(|| walk_payload(g, payload))
                .expect_err("a torn payload must panic");
            let got = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(got, Some(*want), "payload of {} bytes", payload.len());
        }
    }

    #[test]
    #[should_panic(
        expected = "the record at byte 16 of an edge payload of 28 bytes needs 12 bytes \
                    for its 3 edges, but only 4 follow its header"
    )]
    fn a_torn_unweighted_payload_panics() {
        let g = gen::rmat(4, 4, Default::default(), 1);
        // Source 1, two edges, into 2 and 3.
        let whole = le(&[1, 2, 2, 3]);
        assert_eq!(walk_payload(&g, &whole), vec![(1, vec![2, 3], vec![])]);
        assert_torn(
            &g,
            &[
                (
                    whole[..6].to_vec(),
                    "edge payload of 6 bytes ends inside the record header at byte 0",
                ),
                (
                    [&whole[..], &le(&[5])].concat(),
                    "edge payload of 20 bytes ends inside the record header at byte 16",
                ),
                (
                    le(&[1, 3, 2, 3]),
                    "the record at byte 0 of an edge payload of 16 bytes needs 12 bytes \
                     for its 3 edges, but only 8 follow its header",
                ),
            ],
        );
        // A whole record, then one whose count runs past the end.
        walk_payload(&g, &[&whole[..], &le(&[4, 3, 9])].concat());
    }

    #[test]
    #[should_panic(
        expected = "the record at byte 24 of an edge payload of 40 bytes needs 16 bytes \
                    for its 2 edges, but only 8 follow its header"
    )]
    fn a_torn_weighted_payload_panics() {
        let g = gen::with_random_weights(&gen::rmat(4, 4, Default::default(), 1), 5, 2);
        // Source 1, two edges, into 2 and 3, of weights 7 and 9.
        let whole = le(&[1, 2, 2, 3, 7, 9]);
        assert_eq!(walk_payload(&g, &whole), vec![(1, vec![2, 3], vec![7, 9])]);
        assert_torn(
            &g,
            &[
                (
                    whole[..6].to_vec(),
                    "edge payload of 6 bytes ends inside the record header at byte 0",
                ),
                (
                    [&whole[..], &le(&[5])].concat(),
                    "edge payload of 28 bytes ends inside the record header at byte 24",
                ),
                (
                    le(&[1, 2, 2, 3, 7]),
                    "the record at byte 0 of an edge payload of 20 bytes needs 16 bytes \
                     for its 2 edges, but only 12 follow its header",
                ),
            ],
        );
        // A whole record, then one whose count runs past the end: its two
        // targets are there, their weights are not.
        walk_payload(&g, &[&whole[..], &le(&[4, 2, 9, 10])].concat());
    }

    /// Edges `lo..hi` as the router reports them, run by run, each edge as
    /// `(host, src, dst, weight)`. Checks that every run is non-empty and
    /// maximal: the next run of the same row goes to another host.
    fn routed(g: &Csr, ctx: &PolicyCtx, lo: usize, hi: usize) -> Vec<(usize, u32, u32, u32)> {
        let mut out = Vec::new();
        let mut last: Option<(usize, u32, usize)> = None;
        Router::new(g, ctx, lo).runs(lo..hi, |h, s, run| {
            assert!(!run.is_empty(), "an empty run of {s}");
            if let Some((last_host, last_src, last_end)) = last {
                if (last_src, last_end) == (s, run.start) {
                    assert_ne!(last_host, h, "a run of {s} that is not maximal");
                }
            }
            last = Some((h, s, run.end));
            for i in run {
                let weight = g.weights().get(i).copied().unwrap_or(1);
                out.push((h, s, g.targets()[i], weight));
            }
        });
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
    fn router_covers_all_edges_without_overlap() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, Default::default(), 5), 4, 3);
        let m = g.num_edges() as usize;
        // 4, 6 and 9 hosts make CVC grids of more than one row (2×2, 2×3,
        // 3×3), 6 and 9 with a column count that is not a power of two.
        for hosts in [2, 3, 4, 6, 9] {
            for policy in Policy::ALL {
                let ctx = PolicyCtx::new(policy, &g, hosts);
                let expected: Vec<_> = g
                    .edges()
                    .map(|(s, e)| (host_by_formula(&g, &ctx, s, e.dst), s.0, e.dst.0, e.weight))
                    .collect();
                for n in [1, 2, 3, 7] {
                    let seen: Vec<_> = (0..n)
                        .flat_map(|h| routed(&g, &ctx, m * h / n, m * (h + 1) / n))
                        .collect();
                    assert_eq!(seen, expected, "policy {policy}, {hosts} hosts, {n} slices");
                }
            }
        }
    }

    #[test]
    fn router_handles_isolated_leading_nodes() {
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
    fn bit_runs_split_a_mask_into_its_stretches() {
        // Bits 3..70 and 130..131 set, over edges 1000..1200.
        let mut mask = vec![0u64; 4];
        mark_bits(&mut mask, 3..70, true);
        mark_bits(&mut mask, 100..120, false);
        mark_bits(&mut mask, 130..131, true);
        let stretches = |edges: Range<usize>, set: bool| {
            let mut out = Vec::new();
            for_each_bit_run(&mask, 1000, edges, set, |s| out.push(s));
            out
        };
        assert_eq!(stretches(1000..1200, true), vec![1003..1070, 1130..1131]);
        assert_eq!(
            stretches(1000..1200, false),
            vec![1000..1003, 1070..1130, 1131..1200]
        );
        assert_eq!(stretches(1064..1131, true), vec![1064..1070, 1130..1131]);
        assert_eq!(stretches(1010..1010, false), vec![]);
        assert_eq!(stretches(1128..1130, false), vec![1128..1130]);
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
