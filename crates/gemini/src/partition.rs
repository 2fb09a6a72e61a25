//! Gemini's chunk-based edge-cut partitioning and dual-direction storage.
//!
//! Gemini (Zhu et al., OSDI'16) supports exactly one partitioning scheme:
//! nodes are split into contiguous chunks balancing edges, every node is
//! owned by one host, and each host stores both the outgoing edges of its
//! owned nodes (for sparse/push rounds) and the incoming edges of its owned
//! nodes (for dense/pull rounds). Node state arrays are replicated across
//! hosts so that edge traversals never miss — the design the Gluon paper
//! criticizes for its growing replication footprint (§5.2).

use gluon_graph::{Csr, Gid, GraphBuilder};
use std::collections::HashSet;
use std::ops::Range;

/// One host's view of a Gemini-partitioned graph.
#[derive(Clone, Debug)]
pub struct GeminiPartition {
    host: usize,
    num_hosts: usize,
    /// Chunk boundaries: host `h` owns `starts[h]..starts[h + 1]`.
    starts: Vec<u32>,
    /// Out-edges of owned nodes (global-id CSR; rows outside the owned
    /// range are empty).
    push_edges: Csr,
    /// In-edges of owned nodes, stored transposed (row = owned destination,
    /// targets = global sources).
    pull_edges: Csr,
    /// Distinct non-owned endpoints touched by local edges — what a
    /// mirror-based implementation would replicate; reported as the
    /// replication statistic.
    remote_refs: u64,
    global_edges: u64,
}

impl GeminiPartition {
    /// Builds host `host`'s partition of `graph` over `num_hosts` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `num_hosts` is zero or `host` out of range.
    pub fn build(graph: &Csr, num_hosts: usize, host: usize) -> GeminiPartition {
        assert!(num_hosts > 0, "need at least one host");
        assert!(host < num_hosts, "host out of range");
        // Chunk the node space balancing out-edges only — the heuristic our
        // OEC uses. Gemini itself balances `α·|V_i| + |E_i|`; the vertex
        // term is left out on purpose, here and in our policies: at 16
        // hosts it skews edge balance and raises CVC's replication.
        let blocks = gluon_partition::BlockMap::balanced(&graph.out_degrees(), num_hosts);
        let starts: Vec<u32> = (0..=num_hosts)
            .map(|b| {
                if b == num_hosts {
                    graph.num_nodes()
                } else {
                    blocks.range(b).start
                }
            })
            .collect();
        let owned = starts[host]..starts[host + 1];

        let mut push = GraphBuilder::new(graph.num_nodes());
        let mut remote: HashSet<u32> = HashSet::new();
        for v in owned.clone() {
            for e in graph.out_edges(Gid(v)) {
                push.add_edge(Gid(v), e.dst, e.weight);
                if !owned.contains(&e.dst.0) {
                    remote.insert(e.dst.0);
                }
            }
        }
        let mut pull = GraphBuilder::new(graph.num_nodes());
        for (src, e) in graph.edges() {
            if owned.contains(&e.dst.0) {
                pull.add_edge(e.dst, src, e.weight);
                if !owned.contains(&src.0) {
                    remote.insert(src.0);
                }
            }
        }
        GeminiPartition {
            host,
            num_hosts,
            starts,
            push_edges: push.build(),
            pull_edges: pull.build(),
            remote_refs: remote.len() as u64,
            global_edges: graph.num_edges(),
        }
    }

    /// This host's rank.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    /// |V| of the global graph.
    pub fn num_nodes(&self) -> u32 {
        *self.starts.last().expect("non-empty")
    }

    /// |E| of the global graph.
    pub fn global_edges(&self) -> u64 {
        self.global_edges
    }

    /// The contiguous node range this host owns.
    pub fn owned(&self) -> Range<u32> {
        self.starts[self.host]..self.starts[self.host + 1]
    }

    /// Whether `node` is owned here.
    pub fn owns(&self, node: Gid) -> bool {
        self.owned().contains(&node.0)
    }

    /// Owner of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn owner_of(&self, node: Gid) -> usize {
        assert!(node.0 < self.num_nodes(), "node out of range");
        self.starts.partition_point(|&s| s <= node.0) - 1
    }

    /// Out-edges of owned node `v` (push mode).
    pub fn out_edges(&self, v: Gid) -> impl Iterator<Item = gluon_graph::Edge> + '_ {
        self.push_edges.out_edges(v)
    }

    /// In-edges of owned node `v` as `(source, weight)` (pull mode).
    pub fn in_edges(&self, v: Gid) -> impl Iterator<Item = gluon_graph::Edge> + '_ {
        self.pull_edges.out_edges(v)
    }

    /// Sources of owned node `v`'s in-edges as a raw slice, in
    /// [`GeminiPartition::in_edges`] order (see [`Csr::neighbors`]).
    pub fn in_sources(&self, v: Gid) -> &[u32] {
        self.pull_edges.neighbors(v)
    }

    /// Weights parallel to [`GeminiPartition::in_sources`]; empty when the
    /// graph is unweighted (see [`Csr::neighbor_weights`]).
    pub fn in_weights(&self, v: Gid) -> &[u32] {
        self.pull_edges.neighbor_weights(v)
    }

    /// Destinations of owned node `v`'s out-edges as a raw slice, in
    /// [`GeminiPartition::out_edges`] order (see [`Csr::neighbors`]).
    pub fn out_targets(&self, v: Gid) -> &[u32] {
        self.push_edges.neighbors(v)
    }

    /// Weights parallel to [`GeminiPartition::out_targets`]; empty when
    /// the graph is unweighted.
    pub fn out_weights(&self, v: Gid) -> &[u32] {
        self.push_edges.neighbor_weights(v)
    }

    /// Local out-degree of owned node `v`.
    pub fn out_degree(&self, v: Gid) -> u32 {
        self.push_edges.out_degree(v)
    }

    /// Count of distinct remote nodes referenced by local edges — the
    /// mirrors a replica-based implementation materializes.
    pub fn remote_refs(&self) -> u64 {
        self.remote_refs
    }

    /// Number of locally stored edges (push side).
    pub fn num_local_edges(&self) -> u64 {
        self.push_edges.num_edges()
    }

    /// Number of locally stored in-edges of owned nodes (pull side).
    pub fn num_pull_edges(&self) -> u64 {
        self.pull_edges.num_edges()
    }
}

/// Replication factor of a full set of Gemini partitions: average proxies
/// (owned + referenced remotes) per node.
pub fn replication_factor(parts: &[GeminiPartition]) -> f64 {
    assert!(!parts.is_empty(), "no partitions");
    let n = f64::from(parts[0].num_nodes().max(1));
    let total: u64 = parts
        .iter()
        .map(|p| u64::from(p.owned().len() as u32) + p.remote_refs())
        .sum();
    total as f64 / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;

    #[test]
    fn chunks_cover_all_nodes_without_overlap() {
        let g = gen::rmat(7, 4, Default::default(), 3);
        let parts: Vec<_> = (0..4).map(|h| GeminiPartition::build(&g, 4, h)).collect();
        let mut owned = vec![false; g.num_nodes() as usize];
        for p in &parts {
            for v in p.owned() {
                assert!(!owned[v as usize], "node {v} owned twice");
                owned[v as usize] = true;
            }
        }
        assert!(owned.iter().all(|&o| o));
    }

    #[test]
    fn push_edges_cover_the_graph_exactly_once() {
        let g = gen::rmat(6, 4, Default::default(), 4);
        let parts: Vec<_> = (0..3).map(|h| GeminiPartition::build(&g, 3, h)).collect();
        let total: u64 = parts.iter().map(|p| p.num_local_edges()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn pull_edges_are_the_transpose_restricted_to_owned() {
        let g = gen::rmat(6, 4, Default::default(), 5);
        let p = GeminiPartition::build(&g, 3, 1);
        for v in p.owned() {
            let mut from_pull: Vec<u32> = p.in_edges(Gid(v)).map(|e| e.dst.0).collect();
            let mut from_graph: Vec<u32> = g
                .edges()
                .filter(|(_, e)| e.dst.0 == v)
                .map(|(s, _)| s.0)
                .collect();
            from_pull.sort_unstable();
            from_graph.sort_unstable();
            assert_eq!(from_pull, from_graph, "node {v}");
        }
    }

    #[test]
    fn owner_matches_owned_ranges() {
        let g = gen::rmat(6, 4, Default::default(), 6);
        let parts: Vec<_> = (0..5).map(|h| GeminiPartition::build(&g, 5, h)).collect();
        for p in &parts {
            for v in g.nodes() {
                let owner = p.owner_of(v);
                assert!(parts[owner].owns(v));
            }
        }
    }

    #[test]
    fn replication_grows_with_hosts_faster_than_cvc() {
        // The §5.2 comparison: Gemini's edge-cut replication exceeds
        // Gluon's CVC replication at scale on skewed graphs.
        let g = gen::twitter_like(3000, 16, 7);
        let hosts = 16;
        let gem: Vec<_> = (0..hosts)
            .map(|h| GeminiPartition::build(&g, hosts, h))
            .collect();
        let gem_rep = replication_factor(&gem);
        let cvc = gluon_partition::PartitionStats::of(&gluon_partition::partition_all(
            &g,
            hosts,
            gluon_partition::Policy::Cvc,
        ))
        .replication_factor;
        assert!(
            gem_rep > cvc,
            "gemini replication {gem_rep:.2} should exceed CVC {cvc:.2}"
        );
    }
}
