//! One host's partition of the distributed graph.

use crate::policy::Policy;
use gluon_graph::{Csr, Gid, HostId, Lid};
use std::ops::Range;

/// A local edge: destination proxy and weight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocalEdge {
    /// Destination proxy (local id).
    pub dst: Lid,
    /// Edge weight (1 when unweighted).
    pub weight: u32,
}

/// Target footprint of one destination partition of the binned engine
/// path: the partition's label slice should fit comfortably in a core's
/// L2 slice. 256 KiB of 8-byte labels = 32 Ki destination slots.
pub const TARGET_PART_BYTES: usize = 256 * 1024;

/// Width (in destination slots) of the cache-sized destination partitions
/// used by the partition-binned gather-scatter path, for a local vertex
/// space of `n` proxies.
///
/// The rule is a pure function of `n` and the fixed [`TARGET_PART_BYTES`]
/// budget — nothing else — which is what makes partition boundaries (and
/// therefore bin drain order) deterministic across runs and thread counts:
///
/// * a power of two (so `dst -> partition` is a shift, and boundaries are
///   64-aligned like the exec chunk grid);
/// * at most `TARGET_PART_BYTES / 8` slots, so a partition's 8-byte label
///   slice fits the cache budget;
/// * at least 64 slots, and roughly `n / 8` below the cap, so even small
///   test graphs split into ~8 partitions and exercise the parallel
///   drain.
pub fn partition_width(n: usize) -> usize {
    let target = n.div_ceil(8).next_power_of_two();
    target.clamp(64, TARGET_PART_BYTES / 8)
}

/// Whether two ascending runs share no element (one merge walk).
fn sorted_runs_are_disjoint(a: &[Gid], b: &[Gid]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// One host's partitioned graph: a CSR over *proxies* plus the bookkeeping
/// that relates proxies to the global graph.
///
/// Invariants (checked by [`crate::invariants::check_local_graph`]):
///
/// * proxies `0..num_masters()` are masters, the rest are mirrors;
/// * both ranges are sorted by global id;
/// * every edge connects two proxies of this host (paper invariant (b));
/// * the master of every node this host owns is present even if isolated.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    host: HostId,
    num_hosts: usize,
    policy: Policy,
    global_nodes: u32,
    global_edges: u64,
    /// Local topology over Lid space (reusing the CSR layout).
    graph: Csr,
    /// Lazily built in-edge view for pull-style operators.
    in_view: Option<Box<InEdgeView>>,
    /// lid -> gid; the master prefix and the mirror suffix are each sorted,
    /// which is what [`LocalGraph::lid`] searches.
    gids: Vec<Gid>,
    /// Mirror `num_masters + i` -> host owning its master proxy; every
    /// master is owned by `host`, so only the mirror suffix is stored.
    mirror_owner: Vec<u16>,
    num_masters: u32,
    /// lid -> has at least one local outgoing edge.
    has_out: Vec<bool>,
    /// Bit `lid` (word `lid / 64`, bit `lid % 64`): has at least one local
    /// incoming edge.
    has_in: Vec<u64>,
}

/// The in-edges of every proxy, with sources named by *slot*: a source's
/// rank among the proxies that have a local out-edge. Slots ascend with
/// lids, so each row keeps the transpose's order.
#[derive(Clone, Debug)]
struct InEdgeView {
    /// Row `lid` lists the slots of `lid`'s in-edge sources; the offsets
    /// and weights are the lid-valued transpose's.
    rows: Csr,
    /// slot -> lid, ascending.
    sources: Vec<u32>,
}

impl LocalGraph {
    /// Assembles a local graph; used by [`crate::build`].
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree in length or ordering (masters first,
    /// each range sorted by gid), or if `master_of` places a mirror's master
    /// on this host.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        host: HostId,
        num_hosts: usize,
        policy: Policy,
        global_nodes: u32,
        global_edges: u64,
        graph: Csr,
        gids: Vec<Gid>,
        num_masters: u32,
        master_of: impl Fn(Gid) -> HostId,
    ) -> Self {
        assert_eq!(graph.num_nodes() as usize, gids.len(), "gids per proxy");
        assert!(num_masters as usize <= gids.len(), "masters within range");
        assert!(
            gids[..num_masters as usize].windows(2).all(|w| w[0] < w[1]),
            "masters must be sorted by gid"
        );
        assert!(
            gids[num_masters as usize..].windows(2).all(|w| w[0] < w[1]),
            "mirrors must be sorted by gid"
        );
        let mirror_owner: Vec<u16> = gids[num_masters as usize..]
            .iter()
            .map(|&g| u16::try_from(master_of(g)).expect("host ranks fit 16 bits"))
            .collect();
        assert!(
            mirror_owner.iter().all(|&o| usize::from(o) != host),
            "mirror proxies must be owned remotely"
        );
        assert!(
            sorted_runs_are_disjoint(&gids[..num_masters as usize], &gids[num_masters as usize..]),
            "duplicate gid among proxies"
        );
        let mut has_in = vec![0u64; gids.len().div_ceil(64)];
        for &t in graph.targets() {
            has_in[t as usize / 64] |= 1 << (t % 64);
        }
        let has_out = graph.offsets().windows(2).map(|w| w[0] < w[1]).collect();
        LocalGraph {
            host,
            num_hosts,
            policy,
            global_nodes,
            global_edges,
            graph,
            in_view: None,
            gids,
            mirror_owner,
            num_masters,
            has_out,
            has_in,
        }
    }

    /// This host's rank.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Number of hosts in the partitioning.
    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    /// Policy that produced this partition.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// |V| of the *global* graph.
    pub fn global_nodes(&self) -> u32 {
        self.global_nodes
    }

    /// |E| of the *global* graph.
    pub fn global_edges(&self) -> u64 {
        self.global_edges
    }

    /// Number of proxies on this host (masters + mirrors).
    pub fn num_proxies(&self) -> u32 {
        self.graph.num_nodes()
    }

    /// Width (in destination slots) of the cache-sized destination
    /// partitions the binned engine path scatters into — see
    /// [`partition_width`]. Derived only from [`LocalGraph::num_proxies`]
    /// and the fixed [`TARGET_PART_BYTES`] budget, so it is deterministic
    /// across runs, thread counts, and schedules.
    pub fn part_width(&self) -> usize {
        partition_width(self.num_proxies() as usize)
    }

    /// Number of destination partitions under [`LocalGraph::part_width`]
    /// (at least 1, even for an empty partition).
    pub fn num_parts(&self) -> usize {
        (self.num_proxies() as usize)
            .div_ceil(self.part_width())
            .max(1)
    }

    /// Destination partition of `lid` under [`LocalGraph::part_width`].
    #[inline]
    pub fn part_of(&self, lid: Lid) -> usize {
        lid.index() / self.part_width()
    }

    /// Number of master proxies.
    pub fn num_masters(&self) -> u32 {
        self.num_masters
    }

    /// Number of mirror proxies.
    pub fn num_mirrors(&self) -> u32 {
        self.num_proxies() - self.num_masters
    }

    /// Number of edges assigned to this host.
    pub fn num_local_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    /// Iterates over all proxies.
    pub fn proxies(&self) -> impl Iterator<Item = Lid> {
        (0..self.num_proxies()).map(Lid)
    }

    /// Iterates over master proxies (the contiguous prefix).
    pub fn masters(&self) -> impl Iterator<Item = Lid> {
        (0..self.num_masters).map(Lid)
    }

    /// Iterates over mirror proxies (the contiguous suffix).
    pub fn mirrors(&self) -> impl Iterator<Item = Lid> {
        (self.num_masters..self.num_proxies()).map(Lid)
    }

    /// Whether `lid` is a master proxy.
    #[inline]
    pub fn is_master(&self, lid: Lid) -> bool {
        lid.0 < self.num_masters
    }

    /// Host owning the master proxy of `lid`.
    #[inline]
    pub fn owner_of(&self, lid: Lid) -> HostId {
        match lid.index().checked_sub(self.num_masters as usize) {
            Some(mirror) => HostId::from(self.mirror_owner[mirror]),
            None => self.host,
        }
    }

    /// Global id of proxy `lid`.
    #[inline]
    pub fn gid(&self, lid: Lid) -> Gid {
        self.gids[lid.index()]
    }

    /// Local id of global node `gid`, if this host has a proxy for it.
    #[inline]
    pub fn lid(&self, gid: Gid) -> Option<Lid> {
        let (masters, mirrors) = self.gids.split_at(self.num_masters as usize);
        let index = match masters.binary_search(&gid) {
            Ok(i) => i,
            Err(_) => masters.len() + mirrors.binary_search(&gid).ok()?,
        };
        Some(Lid::from_index(index))
    }

    /// Whether proxy `lid` has at least one local outgoing edge.
    #[inline]
    pub fn has_local_out_edges(&self, lid: Lid) -> bool {
        self.has_out[lid.index()]
    }

    /// Whether proxy `lid` has at least one local incoming edge.
    #[inline]
    pub fn has_local_in_edges(&self, lid: Lid) -> bool {
        self.has_in[lid.index() / 64] & (1 << (lid.index() % 64)) != 0
    }

    /// [`LocalGraph::has_local_in_edges`] for every proxy, packed: bit
    /// `lid % 64` of word `lid / 64`, no bit set past the last proxy — the
    /// layout of a dirty set's words. These are the proxies a pull sweep
    /// visits.
    #[inline]
    pub fn in_edge_words(&self) -> &[u64] {
        &self.has_in
    }

    /// Local out-degree of proxy `lid`.
    #[inline]
    pub fn out_degree(&self, lid: Lid) -> u32 {
        self.graph.out_degree(Gid(lid.0))
    }

    /// Iterates over local outgoing edges of proxy `lid`.
    pub fn out_edges(&self, lid: Lid) -> impl Iterator<Item = LocalEdge> + '_ {
        self.graph.out_edges(Gid(lid.0)).map(|e| LocalEdge {
            dst: Lid(e.dst.0),
            weight: e.weight,
        })
    }

    /// The destinations of proxy `lid`'s local outgoing edges as raw local
    /// ids, in the order [`LocalGraph::out_edges`] reports them (see
    /// [`Csr::neighbors`]).
    #[inline]
    pub fn out_targets(&self, lid: Lid) -> &[u32] {
        self.graph.neighbors(Gid(lid.0))
    }

    /// The weights parallel to [`LocalGraph::out_targets`]; empty when the
    /// graph is unweighted (see [`Csr::neighbor_weights`]).
    #[inline]
    pub fn out_weights(&self, lid: Lid) -> &[u32] {
        self.graph.neighbor_weights(Gid(lid.0))
    }

    /// Iterates over local incoming edges of proxy `lid` as
    /// `(source, weight)`, sources as local ids (mapped back from
    /// [`LocalGraph::in_slots`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first.
    pub fn in_edges(&self, lid: Lid) -> impl Iterator<Item = LocalEdge> + '_ {
        let view = self.in_view();
        view.rows.out_edges(Gid(lid.0)).map(|e| LocalEdge {
            dst: Lid(view.sources[e.dst.index()]),
            weight: e.weight,
        })
    }

    /// The sources of proxy `lid`'s local incoming edges as *slots*, in the
    /// order [`LocalGraph::in_edges`] reports them: slot `s` names the
    /// proxy [`LocalGraph::source`]`(s)`. Slots number the proxies with a
    /// local out-edge in lid order, so a per-source array indexed by slot
    /// holds only the proxies a pull can read.
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first.
    #[inline]
    pub fn in_slots(&self, lid: Lid) -> &[u32] {
        self.in_view().rows.neighbors(Gid(lid.0))
    }

    /// The weights parallel to [`LocalGraph::in_slots`]; empty when the
    /// graph is unweighted (see [`Csr::neighbor_weights`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first.
    #[inline]
    pub fn in_weights(&self, lid: Lid) -> &[u32] {
        self.in_view().rows.neighbor_weights(Gid(lid.0))
    }

    /// The proxy that in-edge source slot `slot` names.
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first, or if
    /// `slot` is not below [`LocalGraph::sources`]`.len()`.
    #[inline]
    pub fn source(&self, slot: u32) -> Lid {
        Lid(self.in_view().sources[slot as usize])
    }

    /// Every in-edge source slot's proxy as a raw local id, by slot: the
    /// proxies with a local out-edge, ascending.
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first.
    #[inline]
    pub fn sources(&self) -> &[u32] {
        &self.in_view().sources
    }

    /// Summed local in-degree of the proxies `lids` — the in-edges a pull
    /// sweep over that destination range reads — from two offset reads.
    ///
    /// # Panics
    ///
    /// Panics unless [`LocalGraph::build_transpose`] ran first, or if the
    /// range reaches past the last proxy.
    #[inline]
    pub fn in_degree_sum(&self, lids: Range<usize>) -> u64 {
        let offsets = self.in_view().rows.offsets();
        offsets[lids.end] - offsets[lids.start]
    }

    fn in_view(&self) -> &InEdgeView {
        self.in_view
            .as_deref()
            .expect("call build_transpose() before walking in-edges")
    }

    /// Materializes the in-edge view so [`LocalGraph::in_slots`] and
    /// [`LocalGraph::in_edges`] work: one transpose scatter that names each
    /// source row by a counter bumped once per non-empty row. Idempotent.
    pub fn build_transpose(&mut self) {
        if self.in_view.is_some() {
            return;
        }
        let mut sources = Vec::with_capacity(self.has_out.iter().filter(|&&o| o).count());
        let rows = self.graph.transpose_named(|src| {
            sources.push(src);
            (sources.len() - 1) as u32
        });
        self.in_view = Some(Box::new(InEdgeView { rows, sources }));
    }

    /// Whether the transpose is already materialized.
    pub fn has_transpose(&self) -> bool {
        self.in_view.is_some()
    }

    /// The raw local topology (Lid space packed as a [`Csr`]).
    pub fn topology(&self) -> &Csr {
        &self.graph
    }

    /// Mirror proxies whose master lives on `remote`, in gid order.
    ///
    /// This list is exactly what the memoization handshake of §4.1 sends to
    /// `remote` at startup.
    pub fn mirrors_on(&self, remote: HostId) -> Vec<Lid> {
        self.mirrors()
            .filter(|&m| self.owner_of(m) == remote)
            .collect()
    }

    /// [`LocalGraph::mirrors_on`] for every host at once, from one pass over
    /// the mirrors: entry `h` lists the mirrors mastered on `h`, in gid
    /// order.
    pub fn mirrors_by_owner(&self) -> Vec<Vec<Lid>> {
        let mut by_owner = vec![Vec::new(); self.num_hosts];
        for m in self.mirrors() {
            by_owner[self.owner_of(m)].push(m);
        }
        by_owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::partition_all;
    use gluon_graph::gen;

    fn sample() -> Vec<LocalGraph> {
        let g = gen::rmat(6, 4, Default::default(), 3);
        partition_all(&g, 3, Policy::Oec)
    }

    #[test]
    fn masters_precede_mirrors() {
        for lg in sample() {
            for m in lg.masters() {
                assert!(lg.is_master(m));
                assert_eq!(lg.owner_of(m), lg.host());
            }
            for m in lg.mirrors() {
                assert!(!lg.is_master(m));
                assert_ne!(lg.owner_of(m), lg.host());
            }
        }
    }

    #[test]
    fn gid_lid_round_trip() {
        for lg in sample() {
            for p in lg.proxies() {
                assert_eq!(lg.lid(lg.gid(p)), Some(p));
            }
            assert_eq!(lg.lid(Gid(u32::MAX)), None);
        }
    }

    #[test]
    fn in_edges_requires_transpose() {
        let mut parts = sample();
        let lg = &mut parts[0];
        assert!(!lg.has_transpose());
        lg.build_transpose();
        assert!(lg.has_transpose());
        // In-edge sources must themselves have the proxy as an out-target,
        // and the raw accessors must agree with the iterator.
        for p in lg.proxies() {
            for ie in lg.in_edges(p) {
                assert!(lg.out_edges(ie.dst).any(|oe| oe.dst == p));
            }
            let sources: Vec<Lid> = lg.in_edges(p).map(|e| e.dst).collect();
            let named: Vec<Lid> = lg.in_slots(p).iter().map(|&s| lg.source(s)).collect();
            assert_eq!(named, sources);
            let in_degree = lg.in_degree_sum(p.index()..p.index() + 1);
            assert_eq!(in_degree as usize, sources.len());
            assert_eq!(in_degree > 0, lg.has_local_in_edges(p));
            let targets: Vec<u32> = lg.out_edges(p).map(|e| e.dst.0).collect();
            assert_eq!(lg.out_targets(p), targets);
            // `sample()` is unweighted: no weight slice on either side.
            assert!(lg.out_weights(p).is_empty() && lg.in_weights(p).is_empty());
        }
        // Weighted: the slices run parallel to the target / source slices.
        let g = gluon_graph::with_random_weights(&gen::rmat(6, 4, Default::default(), 3), 9, 5);
        let mut lg = partition_all(&g, 2, Policy::Cvc).remove(1);
        lg.build_transpose();
        for p in lg.proxies() {
            let out: Vec<u32> = lg.out_edges(p).map(|e| e.weight).collect();
            assert_eq!(lg.out_weights(p), out);
            let inc: Vec<u32> = lg.in_edges(p).map(|e| e.weight).collect();
            assert_eq!(lg.in_weights(p), inc);
        }
    }

    /// Panics unless `lg`'s in-edge view is the reference transpose of its
    /// local CSR, exactly: the slot map, every row mapped back through it
    /// (weights included), the in-edge bits and the summed in-degree of
    /// every proxy range.
    fn assert_exact_in_edge_view(lg: &LocalGraph) {
        let want = gluon_graph::transpose_by_sort(lg.topology());
        let with_out: Vec<u32> = lg
            .proxies()
            .filter(|&p| lg.out_degree(p) > 0)
            .map(|p| p.0)
            .collect();
        assert_eq!(lg.sources(), with_out, "slot map");
        for p in lg.proxies() {
            let row = Gid(p.0);
            let named: Vec<u32> = lg.in_slots(p).iter().map(|&s| lg.source(s).0).collect();
            assert_eq!(named, want.neighbors(row), "sources of {p:?}");
            assert_eq!(
                lg.in_weights(p),
                want.neighbor_weights(row),
                "weights of {p:?}"
            );
            let edges: Vec<LocalEdge> = lg.in_edges(p).collect();
            let want_edges: Vec<LocalEdge> = want
                .out_edges(row)
                .map(|e| LocalEdge {
                    dst: Lid(e.dst.0),
                    weight: e.weight,
                })
                .collect();
            assert_eq!(edges, want_edges, "in_edges of {p:?}");
            assert_eq!(lg.has_local_in_edges(p), want.out_degree(row) > 0, "{p:?}");
        }
        let n = lg.num_proxies() as usize;
        let words = lg.in_edge_words();
        assert_eq!(words.len(), n.div_ceil(64));
        let set: Vec<usize> = (0..words.len() * 64)
            .filter(|&b| words[b / 64] & (1 << (b % 64)) != 0)
            .collect();
        let nonempty: Vec<usize> = (0..n)
            .filter(|&v| want.out_degree(Gid(v as u32)) > 0)
            .collect();
        assert_eq!(set, nonempty, "in-edge bits");
        // Every range, so every chunk of every exec grid.
        let offsets = want.offsets();
        for a in 0..=n {
            for b in a..=n {
                assert_eq!(lg.in_degree_sum(a..b), offsets[b] - offsets[a], "{a}..{b}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Endpoints are drawn below `used <= num_nodes`, so trailing nodes
        /// are often isolated; few nodes make parallel edges, self loops
        /// and proxies with only in- or only out-edges common, and the
        /// empty edge list is in range. Each graph is cut on one host, on
        /// two under CVC and on three under OEC.
        #[test]
        fn in_edge_view_is_the_reference_transpose(
            num_nodes in 1u32..40,
            used in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 0u32..50), 0..120),
            weighted in proptest::prelude::any::<bool>(),
        ) {
            let used = used.min(num_nodes);
            let edges: Vec<_> = raw.iter().map(|&(s, d, w)| (s % used, d % used, w)).collect();
            let g = Csr::from_weighted_edge_list(num_nodes, &edges);
            let g = if weighted { g } else { g.to_unweighted() };
            for (hosts, policy) in [(1, Policy::Oec), (2, Policy::Cvc), (3, Policy::Oec)] {
                for mut lg in partition_all(&g, hosts, policy) {
                    lg.build_transpose();
                    assert_exact_in_edge_view(&lg);
                }
            }
        }
    }

    #[test]
    fn in_edge_view_on_rmat_partitions() {
        // Unweighted and weighted; 2-host CVC, where many proxies have only
        // in- or only out-edges, and 3-host OEC.
        let g = gen::rmat(9, 6, Default::default(), 7);
        for g in [g.clone(), gluon_graph::with_random_weights(&g, 20, 3)] {
            for (hosts, policy) in [(2, Policy::Cvc), (3, Policy::Oec)] {
                for mut lg in partition_all(&g, hosts, policy) {
                    lg.build_transpose();
                    assert_exact_in_edge_view(&lg);
                    assert!(lg.sources().len() < lg.num_proxies() as usize);
                    assert_eq!(lg.in_view().sources.capacity(), lg.sources().len());
                }
            }
        }
    }

    #[test]
    fn partition_width_is_a_bounded_power_of_two() {
        for n in [0usize, 1, 63, 64, 500, 4096, 100_000, 1 << 20, 1 << 26] {
            let w = partition_width(n);
            assert!(w.is_power_of_two(), "n = {n}: width {w}");
            assert!(
                (64..=TARGET_PART_BYTES / 8).contains(&w),
                "n = {n}: width {w}"
            );
            // Pure function of n: boundaries cannot drift between calls.
            assert_eq!(w, partition_width(n));
        }
        // Mid-sized spaces split into ~8 partitions; huge ones are bounded
        // by the cache budget instead.
        assert_eq!(partition_width(100_000), 16_384);
        assert_eq!(partition_width(1 << 26), TARGET_PART_BYTES / 8);
    }

    #[test]
    fn part_of_matches_the_boundary_grid() {
        for lg in sample() {
            let n = lg.num_proxies() as usize;
            let width = lg.part_width();
            assert_eq!(width, partition_width(n));
            assert_eq!(lg.num_parts(), n.div_ceil(width).max(1));
            for p in lg.proxies() {
                let part = lg.part_of(p);
                assert!(part < lg.num_parts());
                assert_eq!(part, p.index() / width);
            }
        }
    }

    #[test]
    fn mirrors_on_partitions_the_mirror_set() {
        for lg in sample() {
            let mut total = 0;
            for h in 0..lg.num_hosts() {
                let ms = lg.mirrors_on(h);
                if h == lg.host() {
                    assert!(ms.is_empty());
                }
                assert!(ms.windows(2).all(|w| lg.gid(w[0]) < lg.gid(w[1])));
                total += ms.len();
            }
            assert_eq!(total, lg.num_mirrors() as usize);
            let per_host: Vec<_> = (0..lg.num_hosts()).map(|h| lg.mirrors_on(h)).collect();
            assert_eq!(lg.mirrors_by_owner(), per_host);
        }
    }
}
