//! Partitioning policies: the paper's four strategies of §3.1 plus a
//! hashed edge-cut and a Fennel-style streaming partitioner.
//!
//! A policy answers two questions deterministically on every host:
//! *who masters node N* ([`PolicyCtx::master_of`]) and *which host gets edge
//! (U, V)* ([`PolicyCtx::host_of_edge`]). Everything else — proxy creation,
//! mirror designation, local CSR construction — follows mechanically from
//! those two answers (see [`crate::build`]).

use crate::blocks::BlockMap;
use gluon_graph::{Csr, Gid};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// The partitioning strategies implemented by Gluon (paper §3.1 / §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Policy {
    /// Outgoing Edge-Cut: all outgoing edges of a node live with its master;
    /// incoming edges are partitioned. Chunk-based blocks balance out-edges.
    Oec,
    /// Incoming Edge-Cut: all incoming edges live with the master; outgoing
    /// edges are partitioned. Chunk-based blocks balance in-edges.
    Iec,
    /// Cartesian Vertex-Cut: hosts form a 2D grid; edge (U, V) goes to the
    /// host at (row of U's master, column of V's master).
    Cvc,
    /// Hybrid Vertex-Cut (the paper's UVC instance, after PowerLyra): edges
    /// into low in-degree nodes are placed by destination, edges into high
    /// in-degree nodes by source, splitting the hubs' in-edges.
    Hvc,
    /// Random (hashed) outgoing edge-cut: masters are scattered by a hash
    /// rather than chunks. The policy Gunrock-style multi-GPU systems use.
    RandomOec,
    /// Fennel streaming partitioning (Tsourakakis et al., WSDM'14 — one of
    /// the policy families the paper's §6 surveys): nodes are streamed in
    /// id order and greedily placed on the host with the most already-placed
    /// neighbors, minus a load penalty. Edges follow the source's master
    /// (OEC-class structural invariants).
    Fennel,
}

impl Policy {
    /// All policies, for sweeps.
    pub const ALL: [Policy; 6] = [
        Policy::Oec,
        Policy::Iec,
        Policy::Cvc,
        Policy::Hvc,
        Policy::RandomOec,
        Policy::Fennel,
    ];

    /// Short lowercase name used in harness output (`oec`, `iec`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Oec => "oec",
            Policy::Iec => "iec",
            Policy::Cvc => "cvc",
            Policy::Hvc => "hvc",
            Policy::RandomOec => "random-oec",
            Policy::Fennel => "fennel",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Policy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "oec" => Ok(Policy::Oec),
            "iec" => Ok(Policy::Iec),
            "cvc" => Ok(Policy::Cvc),
            "hvc" => Ok(Policy::Hvc),
            "random-oec" => Ok(Policy::RandomOec),
            "fennel" => Ok(Policy::Fennel),
            _ => Err(ParsePolicyError(s.to_owned())),
        }
    }
}

/// Error parsing a [`Policy`] name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy {:?}, expected one of oec/iec/cvc/hvc/random-oec/fennel",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

/// Near-square factorization `rows x cols = hosts` with `rows <= cols`,
/// used for the CVC host grid.
pub fn grid_dims(hosts: usize) -> (usize, usize) {
    assert!(hosts > 0, "need at least one host");
    let mut rows = (hosts as f64).sqrt() as usize;
    while rows > 1 && !hosts.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), hosts / rows.max(1))
}

/// Precomputed, graph-specific state of one policy: block boundaries, grid
/// shape, hub threshold. Identical on every host (it is a pure function of
/// the input graph), which is what makes the edge assignment a *temporal
/// invariant* the rest of the system can memoize against.
#[derive(Clone, Debug)]
pub struct PolicyCtx {
    policy: Policy,
    num_hosts: usize,
    blocks: BlockMap,
    /// CVC grid shape (rows, cols); (1, num_hosts) otherwise.
    grid: (usize, usize),
    /// CVC: grid column of each host, `host % cols` (empty otherwise), so
    /// routing an edge needs no division.
    columns: Vec<usize>,
    /// HVC: global in-degree per node (empty for other policies).
    in_degrees: Vec<u32>,
    /// HVC: in-degree above which a node counts as a hub.
    hub_threshold: u32,
    /// Fennel: the streamed node -> host assignment (empty otherwise).
    assignment: Vec<u32>,
}

impl PolicyCtx {
    /// Builds the policy context for `graph` split over `num_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `num_hosts` is zero.
    pub fn new(policy: Policy, graph: &Csr, num_hosts: usize) -> Self {
        assert!(num_hosts > 0, "need at least one host");
        let blocks = match policy {
            Policy::Oec | Policy::Fennel => BlockMap::balanced(&graph.out_degrees(), num_hosts),
            Policy::Iec => BlockMap::balanced(&graph.in_degrees(), num_hosts),
            Policy::Cvc | Policy::Hvc => {
                let out = graph.out_degrees();
                let inn = graph.in_degrees();
                let total: Vec<u32> = out
                    .iter()
                    .zip(&inn)
                    .map(|(&o, &i)| o.saturating_add(i))
                    .collect();
                BlockMap::balanced(&total, num_hosts)
            }
            Policy::RandomOec => BlockMap::uniform(graph.num_nodes(), num_hosts),
        };
        let (grid, columns) = if policy == Policy::Cvc {
            let (rows, cols) = grid_dims(num_hosts);
            ((rows, cols), (0..num_hosts).map(|h| h % cols).collect())
        } else {
            ((1, num_hosts), Vec::new())
        };
        let (in_degrees, hub_threshold) = if policy == Policy::Hvc {
            let degs = graph.in_degrees();
            // PowerLyra-style: a node is a hub when its in-degree is well
            // above average; 4x average works across our inputs.
            let avg = graph.num_edges() / u64::from(graph.num_nodes().max(1));
            (degs, (4 * avg.max(1)) as u32)
        } else {
            (Vec::new(), 0)
        };
        let assignment = if policy == Policy::Fennel {
            fennel_assignment(graph, num_hosts)
        } else {
            Vec::new()
        };
        PolicyCtx {
            policy,
            num_hosts,
            blocks,
            grid,
            columns,
            in_degrees,
            hub_threshold,
            assignment,
        }
    }

    /// The policy this context instantiates.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    /// CVC grid shape `(rows, cols)`.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Host owning the *master* proxy of `node`.
    pub fn master_of(&self, node: Gid) -> usize {
        match self.policy {
            Policy::RandomOec => scramble(node) as usize % self.num_hosts,
            Policy::Fennel => self.assignment[node.index()] as usize,
            _ => self.blocks.owner(node),
        }
    }

    /// [`PolicyCtx::master_of`] `node`, plus the end of the run of
    /// consecutive ids, starting at `node`, known to share that master: the
    /// rest of the node's block under the chunked policies, the node alone
    /// under the hashed and streamed ones. A loop over ascending ids asks
    /// again only once it reaches that end.
    pub fn master_run(&self, node: Gid) -> (usize, u32) {
        match self.policy {
            Policy::RandomOec | Policy::Fennel => (self.master_of(node), node.0 + 1),
            _ => {
                let block = self.blocks.owner(node);
                (block, self.blocks.range(block).end)
            }
        }
    }

    /// Host that edge `(src, dst)` is assigned to.
    pub fn host_of_edge(&self, src: Gid, dst: Gid) -> usize {
        self.host_of_edge_on(self.source_side(self.master_of(src)), dst)
    }

    /// What an edge's host takes from its source, whose master is
    /// `src_master`: the first host of the master's grid row under CVC, the
    /// master itself under every other policy. A loop over ascending sources
    /// works it out once per [`PolicyCtx::master_run`].
    #[inline]
    pub(crate) fn source_side(&self, src_master: usize) -> SourceSide {
        match self.policy {
            Policy::Cvc => SourceSide(src_master - src_master % self.grid.1),
            _ => SourceSide(src_master),
        }
    }

    /// The ids `host` masters, when they are one block of consecutive ids:
    /// under OEC, IEC, CVC and HVC, not under the hashed and streamed
    /// policies.
    pub(crate) fn master_block(&self, host: usize) -> Option<Range<u32>> {
        match self.policy {
            Policy::RandomOec | Policy::Fennel => None,
            _ => Some(self.blocks.range(host)),
        }
    }

    /// Calls `run(host, edges)` for every *run* of `edges`, in order: a
    /// maximal stretch of them that all go to `host`. `edges` index
    /// `targets` and belong to one source, on side `side`.
    ///
    /// Under OEC, `RandomOec` and Fennel an edge's host is its source's, so
    /// the whole stretch is one run and no target is read. Under IEC and
    /// CVC it is a function of the destination's block, so one block lookup
    /// serves every following edge whose destination stays in that block,
    /// each checked with one subtraction and one comparison; a run ends
    /// where the next block's host differs. Under HVC a hub's in-edges go
    /// by source, so every edge's host is worked out on its own.
    #[inline]
    pub(crate) fn for_each_run(
        &self,
        side: SourceSide,
        targets: &[u32],
        edges: Range<usize>,
        mut run: impl FnMut(usize, Range<usize>),
    ) {
        if edges.is_empty() {
            return;
        }
        if matches!(
            self.policy,
            Policy::Oec | Policy::RandomOec | Policy::Fennel
        ) {
            return run(side.0, edges);
        }
        let (mut start, mut i, end) = (edges.start, edges.start, edges.end);
        let mut host = 0;
        while i < end {
            let at = i;
            let next = if self.policy == Policy::Hvc {
                i += 1;
                self.host_of_edge_on(side, Gid(targets[at]))
            } else {
                let block = self.blocks.owner(Gid(targets[at]));
                let ids = self.blocks.range(block);
                i += 1;
                while i < end && targets[i].wrapping_sub(ids.start) < ids.end - ids.start {
                    i += 1;
                }
                self.host_of_block(side, block)
            };
            if at == start {
                host = next;
            } else if next != host {
                run(host, start..at);
                (host, start) = (next, at);
            }
        }
        run(host, start..end);
    }

    /// Host of an edge into block `block` from a source on side `side`,
    /// under IEC and CVC: the block's own host, or under CVC the host in
    /// the source's grid row and the block's grid column.
    #[inline]
    fn host_of_block(&self, side: SourceSide, block: usize) -> usize {
        match self.policy {
            Policy::Cvc => side.0 + self.columns[block],
            _ => block,
        }
    }

    /// Host of an edge into `dst` from a source on side `side`. Under IEC,
    /// CVC and HVC a node's master is its block, so the destination side is
    /// at most one [`BlockMap::owner`] lookup, and no division.
    #[inline]
    pub(crate) fn host_of_edge_on(&self, side: SourceSide, dst: Gid) -> usize {
        match self.policy {
            Policy::Oec | Policy::RandomOec | Policy::Fennel => side.0,
            Policy::Iec | Policy::Cvc => self.host_of_block(side, self.blocks.owner(dst)),
            Policy::Hvc => {
                if self.in_degrees[dst.index()] > self.hub_threshold {
                    side.0
                } else {
                    self.blocks.owner(dst)
                }
            }
        }
    }
}

/// The source's share of an edge's host, from [`PolicyCtx::source_side`].
#[derive(Clone, Copy)]
pub(crate) struct SourceSide(usize);

/// Greedy Fennel stream: place each node (in id order) on the host with
/// the highest score `|placed neighbors there| - alpha * load^(gamma - 1)`,
/// with gamma = 1.5 and the standard alpha, subject to a 10% balance slack.
fn fennel_assignment(graph: &Csr, num_hosts: usize) -> Vec<u32> {
    let n = graph.num_nodes() as usize;
    let m = graph.num_edges() as f64;
    let k = num_hosts as f64;
    let gamma = 1.5f64;
    let alpha = if n == 0 {
        0.0
    } else {
        m * k.powf(gamma - 1.0) / (n as f64).powf(gamma)
    };
    let cap = ((n as f64 / k) * 1.1).ceil() as usize + 1;
    let transpose = graph.transpose();
    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0usize; num_hosts];
    let mut scores = vec![0.0f64; num_hosts];
    for v in 0..n as u32 {
        for s in scores.iter_mut() {
            *s = 0.0;
        }
        for e in graph.out_edges(Gid(v)) {
            let a = assignment[e.dst.index()];
            if a != u32::MAX {
                scores[a as usize] += 1.0;
            }
        }
        for e in transpose.out_edges(Gid(v)) {
            let a = assignment[e.dst.index()];
            if a != u32::MAX {
                scores[a as usize] += 1.0;
            }
        }
        let mut best = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        for h in 0..num_hosts {
            if loads[h] >= cap {
                continue;
            }
            let score = scores[h] - alpha * gamma / 2.0 * (loads[h] as f64).powf(gamma - 1.0);
            if score > best_score {
                best_score = score;
                best = h;
            }
        }
        // The 10% slack guarantees some host is always below cap.
        let h = if best == usize::MAX {
            loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, l)| *l)
                .expect("at least one host")
                .0
        } else {
            best
        };
        assignment[v as usize] = h as u32;
        loads[h] += 1;
    }
    assignment
}

/// Cheap deterministic 32-bit mix for [`Policy::RandomOec`].
fn scramble(node: Gid) -> u32 {
    let mut x = node.0.wrapping_mul(0x9E37_79B9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::{gen, Csr};

    #[test]
    fn grid_dims_factorizes() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7));
    }

    #[test]
    fn policy_names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(p.name().parse::<Policy>().expect("parses"), p);
        }
        assert!("bogus".parse::<Policy>().is_err());
    }

    #[test]
    fn oec_assigns_out_edges_to_source_master() {
        let g = gen::rmat(6, 4, Default::default(), 1);
        let ctx = PolicyCtx::new(Policy::Oec, &g, 4);
        for (src, e) in g.edges() {
            assert_eq!(ctx.host_of_edge(src, e.dst), ctx.master_of(src));
        }
    }

    #[test]
    fn iec_assigns_in_edges_to_destination_master() {
        let g = gen::rmat(6, 4, Default::default(), 1);
        let ctx = PolicyCtx::new(Policy::Iec, &g, 4);
        for (src, e) in g.edges() {
            assert_eq!(ctx.host_of_edge(src, e.dst), ctx.master_of(e.dst));
        }
    }

    #[test]
    fn cvc_edge_host_shares_row_with_src_master_and_col_with_dst_master() {
        let g = gen::rmat(7, 4, Default::default(), 2);
        let ctx = PolicyCtx::new(Policy::Cvc, &g, 6);
        let (_, cols) = ctx.grid();
        for (src, e) in g.edges() {
            let h = ctx.host_of_edge(src, e.dst);
            assert_eq!(h / cols, ctx.master_of(src) / cols, "row invariant");
            assert_eq!(h % cols, ctx.master_of(e.dst) % cols, "col invariant");
        }
    }

    #[test]
    fn hvc_splits_hub_in_edges_by_source() {
        let g = gen::star(64).transpose(); // node 0 has in-degree 63: a hub
        let ctx = PolicyCtx::new(Policy::Hvc, &g, 4);
        let hosts: std::collections::HashSet<_> =
            g.edges().map(|(s, e)| ctx.host_of_edge(s, e.dst)).collect();
        assert!(hosts.len() > 1, "hub in-edges should be split across hosts");
    }

    #[test]
    fn hvc_places_low_degree_edges_by_destination() {
        let g = gen::path(64);
        let ctx = PolicyCtx::new(Policy::Hvc, &g, 4);
        for (src, e) in g.edges() {
            assert_eq!(ctx.host_of_edge(src, e.dst), ctx.master_of(e.dst));
        }
    }

    #[test]
    fn random_oec_scatters_masters() {
        let g = gen::path(256);
        let ctx = PolicyCtx::new(Policy::RandomOec, &g, 4);
        let mut counts = [0usize; 4];
        for v in g.nodes() {
            counts[ctx.master_of(v)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 256 / 8), "{counts:?}");
    }

    #[test]
    fn assignments_are_deterministic_across_contexts() {
        let g = gen::rmat(6, 4, Default::default(), 5);
        for p in Policy::ALL {
            let a = PolicyCtx::new(p, &g, 3);
            let b = PolicyCtx::new(p, &g, 3);
            for (src, e) in g.edges() {
                assert_eq!(a.host_of_edge(src, e.dst), b.host_of_edge(src, e.dst));
                assert_eq!(a.master_of(src), b.master_of(src));
            }
        }
    }

    #[test]
    fn fennel_balances_within_slack() {
        let g = gen::rmat(8, 8, Default::default(), 14);
        let hosts = 5;
        let ctx = PolicyCtx::new(Policy::Fennel, &g, hosts);
        let mut loads = vec![0usize; hosts];
        for v in g.nodes() {
            loads[ctx.master_of(v)] += 1;
        }
        let cap = ((g.num_nodes() as f64 / hosts as f64) * 1.1).ceil() as usize + 1;
        assert!(loads.iter().all(|&l| l <= cap), "{loads:?} cap {cap}");
    }

    #[test]
    fn fennel_cuts_fewer_edges_than_random_on_clustered_graphs() {
        // A graph of dense cliques: streaming placement should co-locate
        // clique members far better than hashing.
        let mut edges = Vec::new();
        let cliques = 12u32;
        let size = 12u32;
        for c in 0..cliques {
            for a in 0..size {
                for b in 0..size {
                    if a != b {
                        edges.push((c * size + a, c * size + b));
                    }
                }
            }
        }
        let g = Csr::from_edge_list(cliques * size, &edges);
        let cut = |policy: Policy| -> usize {
            let ctx = PolicyCtx::new(policy, &g, 4);
            g.edges()
                .filter(|&(s, e)| ctx.master_of(s) != ctx.master_of(e.dst))
                .count()
        };
        let fennel = cut(Policy::Fennel);
        let random = cut(Policy::RandomOec);
        assert!(
            fennel * 2 < random,
            "fennel cut {fennel} vs random cut {random}"
        );
    }

    #[test]
    fn edge_hosts_are_in_range() {
        let g = gen::rmat(6, 8, Default::default(), 9);
        for p in Policy::ALL {
            for hosts in [1, 2, 3, 5, 8] {
                let ctx = PolicyCtx::new(p, &g, hosts);
                for (src, e) in g.edges() {
                    assert!(ctx.host_of_edge(src, e.dst) < hosts);
                    assert!(ctx.master_of(src) < hosts);
                }
            }
        }
    }
}
