//! Incremental construction of [`Csr`] graphs.

use crate::csr::Csr;
use crate::ids::Gid;

/// Incremental builder for [`Csr`] graphs.
///
/// Collects edges in any order, then counting-sorts them into CSR layout on
/// [`GraphBuilder::build`]. Optionally deduplicates parallel edges (keeping
/// the minimum weight, the natural choice for shortest-path inputs) and drops
/// self loops.
///
/// # Examples
///
/// ```
/// use gluon_graph::{GraphBuilder, Gid};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(Gid(2), Gid(0), 7);
/// b.add_edge(Gid(0), Gid(1), 1);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_edges(Gid(2)).next().unwrap().weight, 7);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(u32, u32, u32)>,
    dedup: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            dedup: false,
            drop_self_loops: false,
        }
    }

    /// Creates a builder that already holds `edges` as `(src, dst, weight)`
    /// triples, taking the vector over without copying it.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: u32, edges: Vec<(u32, u32, u32)>) -> Self {
        assert!(
            edges
                .iter()
                .all(|&(s, d, _)| s < num_nodes && d < num_nodes),
            "edge endpoint out of range for {num_nodes} nodes"
        );
        GraphBuilder {
            edges,
            ..GraphBuilder::new(num_nodes)
        }
    }

    /// Requests deduplication of parallel edges; the smallest weight wins.
    pub fn dedup(&mut self) -> &mut Self {
        self.dedup = true;
        self
    }

    /// Requests removal of self loops.
    pub fn drop_self_loops(&mut self) -> &mut Self {
        self.drop_self_loops = true;
        self
    }

    /// Adds one directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is `>= num_nodes`.
    pub fn add_edge(&mut self, src: Gid, dst: Gid, weight: u32) -> &mut Self {
        assert!(
            src.0 < self.num_nodes && dst.0 < self.num_nodes,
            "edge ({src}, {dst}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((src.0, dst.0, weight));
        self
    }

    /// Number of edges currently buffered (before dedup/self-loop filtering).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Produces the [`Csr`]: rows ordered by source, each row by
    /// `(dst, weight)`.
    ///
    /// An out-of-place counting sort by source (degree count, prefix sum,
    /// scatter) followed by a sort of each row. Rows partition the edges by
    /// source, so the result is the order a sort of the whole
    /// `(src, dst, weight)` list gives. The result is unweighted exactly when
    /// every kept edge has weight 1.
    pub fn build(&self) -> Csr {
        let n = self.num_nodes as usize;
        let keep = |s: u32, d: u32| !(self.drop_self_loops && s == d);
        let mut offsets = vec![0u64; n + 1];
        for &(s, d, _) in &self.edges {
            if keep(s, d) {
                offsets[s as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut rows = vec![(0u32, 0u32); offsets[n] as usize];
        for &(s, d, w) in &self.edges {
            if keep(s, d) {
                let slot = &mut cursor[s as usize];
                rows[*slot as usize] = (d, w);
                *slot += 1;
            }
        }
        // Sort each row; with dedup, also compact the rows towards the front
        // of `rows`, keeping the first (smallest-weight) edge per target.
        let mut kept = 0usize;
        let mut start = 0usize;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            rows[start..end].sort_unstable();
            if self.dedup {
                let row_start = kept;
                for i in start..end {
                    if kept == row_start || rows[kept - 1].0 != rows[i].0 {
                        rows[kept] = rows[i];
                        kept += 1;
                    }
                }
                offsets[v + 1] = kept as u64;
            }
            start = end;
        }
        if self.dedup {
            rows.truncate(kept);
        }
        let targets: Vec<u32> = rows.iter().map(|&(d, _)| d).collect();
        let weights: Vec<u32> = if rows.iter().all(|&(_, w)| w == 1) {
            Vec::new()
        } else {
            rows.iter().map(|&(_, w)| w).collect()
        };
        Csr::from_parts(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The builder this one replaced, kept as the oracle: filter, sort the
    /// whole `(src, dst, weight)` list, dedup, then slice it into CSR arrays.
    fn sort_based_build(b: &GraphBuilder) -> Csr {
        let mut edges = b.edges.clone();
        if b.drop_self_loops {
            edges.retain(|&(s, d, _)| s != d);
        }
        edges.sort_unstable();
        if b.dedup {
            edges.dedup_by(|next, kept| kept.0 == next.0 && kept.1 == next.1);
        }
        let n = b.num_nodes as usize;
        let mut offsets = vec![0u64; n + 1];
        for &(s, _, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let targets = edges.iter().map(|&(_, d, _)| d).collect();
        let weights = if edges.iter().all(|&(_, _, w)| w == 1) {
            Vec::new()
        } else {
            edges.iter().map(|&(_, _, w)| w).collect()
        };
        Csr::from_parts(offsets, targets, weights)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Few nodes and few distinct weights, so parallel edges, equal
        /// `(src, dst)` pairs with different weights and self loops are
        /// common; `max_weight == 1` covers the unweighted result.
        #[test]
        fn build_equals_the_sort_based_oracle(
            num_nodes in 1u32..12,
            max_weight in 1u32..4,
            raw in proptest::collection::vec((0u32..12, 0u32..12, 0u32..4), 0..120),
            dedup in any::<bool>(),
            drop_self_loops in any::<bool>(),
        ) {
            let edges: Vec<_> = raw
                .iter()
                .map(|&(s, d, w)| (s % num_nodes, d % num_nodes, 1 + w % max_weight))
                .collect();
            let mut b = GraphBuilder::from_edges(num_nodes, edges);
            if dedup {
                b.dedup();
            }
            if drop_self_loops {
                b.drop_self_loops();
            }
            // `Csr: Eq` compares offsets, targets and weights exactly.
            prop_assert_eq!(b.build(), sort_based_build(&b));
        }
    }

    #[test]
    fn from_edges_equals_adding_one_by_one() {
        let edges = vec![(2, 0, 7), (0, 1, 1), (0, 1, 1), (1, 1, 3)];
        let mut one_by_one = GraphBuilder::new(3);
        for &(s, d, w) in &edges {
            one_by_one.add_edge(Gid(s), Gid(d), w);
        }
        assert_eq!(
            GraphBuilder::from_edges(3, edges).build(),
            one_by_one.build()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range_edge() {
        let _ = GraphBuilder::from_edges(2, vec![(0, 1, 1), (2, 0, 1)]);
    }

    #[test]
    fn builds_sorted_csr_from_unsorted_input() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(Gid(3), Gid(0), 1);
        b.add_edge(Gid(0), Gid(2), 1);
        b.add_edge(Gid(0), Gid(1), 1);
        let g = b.build();
        let n0: Vec<_> = g.out_edges(Gid(0)).map(|e| e.dst.0).collect();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.out_degree(Gid(3)), 1);
    }

    #[test]
    fn dedup_keeps_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.dedup();
        b.add_edge(Gid(0), Gid(1), 9);
        b.add_edge(Gid(0), Gid(1), 3);
        b.add_edge(Gid(0), Gid(1), 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(Gid(0)).next().unwrap().weight, 3);
    }

    #[test]
    fn drop_self_loops_removes_them() {
        let mut b = GraphBuilder::new(2);
        b.drop_self_loops();
        b.add_edge(Gid(0), Gid(0), 1);
        b.add_edge(Gid(0), Gid(1), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn unit_weights_build_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(Gid(0), Gid(1), 1);
        assert!(!b.build().is_weighted());
        b.add_edge(Gid(1), Gid(0), 2);
        assert!(b.build().is_weighted());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::new(2).add_edge(Gid(0), Gid(2), 1);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new(3);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
    }
}
