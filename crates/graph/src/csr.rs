//! Compressed-sparse-row graph representation.
//!
//! [`Csr`] is the workhorse in-memory format used everywhere in this
//! workspace: the whole input graph before partitioning, each host's local
//! partition after partitioning, and the transposed (CSC) view used by
//! pull-style operators are all `Csr` values.

use crate::ids::Gid;
use serde::{Deserialize, Serialize};

/// An outgoing edge: destination node and weight.
///
/// Unweighted graphs report weight `1` for every edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Destination node.
    pub dst: Gid,
    /// Edge weight (1 for unweighted graphs).
    pub weight: u32,
}

/// Walks one node's adjacency over the raw slices cut once per node
/// ([`Csr::neighbors`] and [`Csr::neighbor_weights`]): `visit(other end,
/// weight)` per edge, in edge order. An empty `weights` means unweighted —
/// every edge weighs 1 — so the weighted-or-not decision is made once per
/// node, not once per edge as in [`Csr::out_edges`].
#[inline]
pub fn for_each_edge(ends: &[u32], weights: &[u32], mut visit: impl FnMut(u32, u32)) {
    if weights.is_empty() {
        for &end in ends {
            visit(end, 1);
        }
    } else {
        for (&end, &w) in ends.iter().zip(weights) {
            visit(end, w);
        }
    }
}

/// A directed graph in compressed-sparse-row form.
///
/// Nodes are `0..num_nodes()` in the [`Gid`] space; edges of node `v` are
/// stored contiguously and visited with [`Csr::out_edges`]. Weights are
/// optional: unweighted graphs store no weight array and report weight 1.
///
/// # Examples
///
/// ```
/// use gluon_graph::{Csr, Gid};
///
/// // Triangle 0 -> 1 -> 2 -> 0.
/// let g = Csr::from_edge_list(3, &[(0, 1), (1, 2), (2, 0)]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_degree(Gid(1)), 1);
/// let targets: Vec<_> = g.out_edges(Gid(2)).map(|e| e.dst).collect();
/// assert_eq!(targets, vec![Gid(0)]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` is the edge range of node `v`.
    offsets: Vec<u64>,
    /// Flattened destination array.
    targets: Vec<u32>,
    /// Parallel weight array; empty means "all weights are 1".
    weights: Vec<u32>,
}

impl Csr {
    /// Creates an empty graph with `num_nodes` nodes and no edges.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = gluon_graph::Csr::empty(5);
    /// assert_eq!(g.num_nodes(), 5);
    /// assert_eq!(g.num_edges(), 0);
    /// ```
    pub fn empty(num_nodes: u32) -> Self {
        Csr {
            offsets: vec![0; num_nodes as usize + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Builds an unweighted graph from `(src, dst)` pairs.
    ///
    /// Edges may be given in any order; parallel edges and self loops are
    /// kept. For weighted construction or deduplication use
    /// [`crate::GraphBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edge_list(num_nodes: u32, edges: &[(u32, u32)]) -> Self {
        let mut builder = crate::GraphBuilder::new(num_nodes);
        for &(src, dst) in edges {
            builder.add_edge(Gid(src), Gid(dst), 1);
        }
        builder.build()
    }

    /// Builds a weighted graph from `(src, dst, weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_weighted_edge_list(num_nodes: u32, edges: &[(u32, u32, u32)]) -> Self {
        let mut builder = crate::GraphBuilder::new(num_nodes);
        for &(src, dst, w) in edges {
            builder.add_edge(Gid(src), Gid(dst), w);
        }
        builder.build()
    }

    /// Assembles a graph directly from its parts.
    ///
    /// `weights` may be empty (all weights 1) or exactly one entry per edge.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotonically non-decreasing, if the
    /// last offset disagrees with `targets.len()`, if a target is out of
    /// range, or if a non-empty `weights` has the wrong length.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<u32>, weights: Vec<u32>) -> Self {
        let csr = Csr::from_checked_targets(offsets, targets, weights);
        let num_nodes = u64::from(csr.num_nodes());
        assert!(
            csr.targets.iter().all(|&t| u64::from(t) < num_nodes),
            "edge target out of range"
        );
        csr
    }

    /// [`Csr::from_parts`] for arrays whose targets the caller has already
    /// checked to be in range (`fill_csr` checks each one as it writes
    /// it): every other check still runs.
    pub(crate) fn from_checked_targets(
        offsets: Vec<u64>,
        targets: Vec<u32>,
        weights: Vec<u32>,
    ) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must have num_nodes + 1 entries"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            targets.len(),
            "last offset must equal the edge count"
        );
        assert!(
            weights.is_empty() || weights.len() == targets.len(),
            "weights must be empty or one per edge"
        );
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().expect("offsets is never empty")
    }

    /// Whether the graph carries explicit edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn out_degree(&self, node: Gid) -> u32 {
        let v = node.index();
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Iterates over the nodes of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = Gid> + '_ {
        (0..self.num_nodes()).map(Gid)
    }

    /// Iterates over the outgoing edges of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: Gid) -> impl Iterator<Item = Edge> + '_ {
        let v = node.index();
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        let weighted = self.is_weighted();
        range.map(move |e| Edge {
            dst: Gid(self.targets[e]),
            weight: if weighted { self.weights[e] } else { 1 },
        })
    }

    /// The destinations of `node`'s outgoing edges as a raw slice, in edge
    /// order — what [`Csr::out_edges`] yields without the weights. Hot
    /// loops that need no weight walk this instead: the slice is cut once
    /// per node, so iterating it pays no per-edge bounds check and no
    /// per-edge `is_weighted` branch.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: Gid) -> &[u32] {
        let v = node.index();
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The weights of `node`'s outgoing edges as a raw slice parallel to
    /// [`Csr::neighbors`] — empty when the graph is unweighted (every edge
    /// then weighs 1), so a hot loop decides weighted-or-not once per node
    /// instead of once per edge.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbor_weights(&self, node: Gid) -> &[u32] {
        if self.weights.is_empty() {
            return &[];
        }
        let v = node.index();
        &self.weights[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over all edges as `(src, edge)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (Gid, Edge)> + '_ {
        self.nodes()
            .flat_map(move |src| self.out_edges(src).map(move |e| (src, e)))
    }

    /// Returns the transposed graph (every edge reversed, weights kept).
    ///
    /// The transpose is the CSC view used by pull-style operators: the
    /// out-edges of `v` in the transpose are the in-edges of `v` here.
    ///
    /// Row order: each row of the transpose lists its sources ascending,
    /// and parallel edges keep their source row's order — the result is a
    /// stable sort by destination of [`Csr::edges`]. A pull fold that sums
    /// in row order (pagerank's) relies on that for bit-identical results.
    ///
    /// Cost: see [`Csr::transpose_named`], which this is with every source
    /// named by its own id.
    ///
    /// # Examples
    ///
    /// ```
    /// use gluon_graph::{Csr, Gid};
    ///
    /// let g = Csr::from_edge_list(3, &[(0, 1), (0, 2)]);
    /// let t = g.transpose();
    /// assert_eq!(t.out_degree(Gid(1)), 1);
    /// assert_eq!(t.out_edges(Gid(1)).next().unwrap().dst, Gid(0));
    /// ```
    pub fn transpose(&self) -> Csr {
        self.transpose_named(|src| src)
    }

    /// [`Csr::transpose`] with each source row's entries renamed:
    /// `name(src)` is called once per non-empty source row, in ascending
    /// `src` order, and every in-edge from `src` stores the name it
    /// returned instead of `src`. Offsets and weights are the transpose's;
    /// so is the order of every row, which a monotone renaming keeps
    /// ascending. Every name must be below `num_nodes()`.
    ///
    /// Cost: one count pass over `targets`, a prefix sum, and one scatter
    /// that walks the rows in source order as raw slices (weights beside
    /// them when the graph has any), so nothing is decided per edge. The
    /// scatter's cursors end one row ahead of where they started, so they
    /// become the offsets by a shift instead of a second array.
    ///
    /// # Examples
    ///
    /// ```
    /// use gluon_graph::{Csr, Gid};
    ///
    /// // Rows 0 and 2 have out-edges: named 0 and 1 by a counter.
    /// let g = Csr::from_edge_list(3, &[(0, 1), (2, 1), (2, 0)]);
    /// let mut next = 0;
    /// let t = g.transpose_named(|_| {
    ///     next += 1;
    ///     next - 1
    /// });
    /// assert_eq!(t.neighbors(Gid(0)), &[1]);
    /// assert_eq!(t.neighbors(Gid(1)), &[0, 1]);
    /// ```
    pub fn transpose_named(&self, mut name: impl FnMut(u32) -> u32) -> Csr {
        let n = self.num_nodes() as usize;
        let mut cursor = vec![0u64; n + 1];
        for &t in &self.targets {
            cursor[t as usize + 1] += 1;
        }
        for v in 0..n {
            cursor[v + 1] += cursor[v];
        }
        // `cursor[dst]` is the next free slot of row `dst`.
        let mut place = |dst: u32| {
            let next = &mut cursor[dst as usize];
            *next += 1;
            (*next - 1) as usize
        };
        let mut targets = vec![0u32; self.targets.len()];
        let mut weights = vec![0u32; self.weights.len()];
        let weighted = self.is_weighted();
        for (src, row) in self.offsets.windows(2).enumerate() {
            let row = row[0] as usize..row[1] as usize;
            if row.is_empty() {
                continue;
            }
            let src = name(src as u32);
            debug_assert!((src as usize) < n, "name {src} out of range");
            if weighted {
                for (&dst, &w) in self.targets[row.clone()].iter().zip(&self.weights[row]) {
                    let slot = place(dst);
                    targets[slot] = src;
                    weights[slot] = w;
                }
            } else {
                for &dst in &self.targets[row] {
                    targets[place(dst)] = src;
                }
            }
        }
        // Row `v` was filled up to where row `v + 1` starts.
        cursor.copy_within(0..n, 1);
        cursor[0] = 0;
        Csr {
            offsets: cursor,
            targets,
            weights,
        }
    }

    /// In-degree array (one counter pass; no transpose materialized).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut degs = vec![0u32; self.num_nodes() as usize];
        for &t in &self.targets {
            degs[t as usize] += 1;
        }
        degs
    }

    /// Out-degree array.
    pub fn out_degrees(&self) -> Vec<u32> {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect()
    }

    /// Raw offsets array (`num_nodes + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw target array (one entry per edge).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Raw weight array (empty when unweighted).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Returns a copy of this graph with all weights dropped.
    pub fn to_unweighted(&self) -> Csr {
        Csr {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: Vec::new(),
        }
    }

    /// Returns a copy with weights assigned by `f(src, dst)`.
    ///
    /// Useful for turning generated unweighted graphs into sssp inputs.
    pub fn with_weights(&self, mut f: impl FnMut(Gid, Gid) -> u32) -> Csr {
        let mut weights = Vec::with_capacity(self.targets.len());
        for (src, edge) in self.edges() {
            weights.push(f(src, edge.dst));
        }
        Csr {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights,
        }
    }
}

/// What [`Csr::transpose`] must return, computed the obvious way: the edge
/// list in CSR order ([`Csr::edges`]), reversed and stably sorted by its new
/// source. `O(m log m)` and an extra copy of every edge; tests and benches
/// compare the real transpose against it array for array.
pub fn transpose_by_sort(graph: &Csr) -> Csr {
    let mut reversed: Vec<(u32, u32, u32)> = graph
        .edges()
        .map(|(src, e)| (e.dst.0, src.0, e.weight))
        .collect();
    reversed.sort_by_key(|&(dst, _, _)| dst);
    let mut offsets = vec![0u64; graph.num_nodes() as usize + 1];
    for &(dst, _, _) in &reversed {
        offsets[dst as usize + 1] += 1;
    }
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
    let targets = reversed.iter().map(|&(_, src, _)| src).collect();
    let weights = if graph.is_weighted() {
        reversed.iter().map(|&(_, _, w)| w).collect()
    } else {
        Vec::new()
    };
    Csr::from_parts(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edge_list(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Csr::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn degrees_match_edge_list() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn neighbors_is_out_edges_without_the_weights() {
        let g = Csr::from_weighted_edge_list(4, &[(0, 2, 7), (0, 1, 9), (2, 3, 1), (2, 0, 4)]);
        for v in g.nodes() {
            let dsts: Vec<u32> = g.out_edges(v).map(|e| e.dst.0).collect();
            assert_eq!(g.neighbors(v), dsts);
            assert_eq!(g.neighbors(v).len(), g.out_degree(v) as usize);
            let weights: Vec<u32> = g.out_edges(v).map(|e| e.weight).collect();
            assert_eq!(g.neighbor_weights(v), weights);
        }
        assert!(g.neighbors(Gid(1)).is_empty());
        let plain = g.to_unweighted();
        assert!(plain.nodes().all(|v| plain.neighbor_weights(v).is_empty()));
        // The raw walk reports what the iterator reports, weighted or not.
        for graph in [&g, &plain] {
            for v in graph.nodes() {
                let mut walked = Vec::new();
                for_each_edge(graph.neighbors(v), graph.neighbor_weights(v), |dst, w| {
                    walked.push((dst, w));
                });
                let edges: Vec<(u32, u32)> =
                    graph.out_edges(v).map(|e| (e.dst.0, e.weight)).collect();
                assert_eq!(walked, edges);
            }
        }
    }

    /// A graph whose rows keep the order `edges` gives them (no sort, no
    /// dedup, unlike [`crate::GraphBuilder`]), so parallel edges of one row
    /// may carry different weights in any order; `weighted == false` drops
    /// the weights.
    fn in_row_order(num_nodes: u32, edges: &[(u32, u32, u32)], weighted: bool) -> Csr {
        let mut by_src = edges.to_vec();
        by_src.sort_by_key(|&(src, _, _)| src);
        let mut offsets = vec![0u64; num_nodes as usize + 1];
        for &(src, _, _) in &by_src {
            offsets[src as usize + 1] += 1;
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        let targets = by_src.iter().map(|&(_, dst, _)| dst).collect();
        let weights = if weighted {
            by_src.iter().map(|&(_, _, w)| w).collect()
        } else {
            Vec::new()
        };
        Csr::from_parts(offsets, targets, weights)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Endpoints are drawn below `used <= num_nodes`, so trailing nodes
        /// are often isolated; few nodes make parallel edges, self loops
        /// and empty rows common, and the empty edge list is in range.
        #[test]
        fn transpose_is_the_stable_sort_by_destination(
            num_nodes in 1u32..12,
            used in 1u32..12,
            raw in proptest::collection::vec((0u32..12, 0u32..12, 0u32..50), 0..80),
            weighted in any::<bool>(),
        ) {
            let used = used.min(num_nodes);
            let edges: Vec<_> = raw.iter().map(|&(s, d, w)| (s % used, d % used, w)).collect();
            let g = in_row_order(num_nodes, &edges, weighted);
            let t = g.transpose();
            let want = transpose_by_sort(&g);
            prop_assert_eq!(t.offsets(), want.offsets());
            prop_assert_eq!(t.targets(), want.targets());
            prop_assert_eq!(t.weights(), want.weights());
            // Named by a counter over the non-empty rows: the same arrays
            // once each name is mapped back to its row.
            let mut rows = Vec::new();
            let named = g.transpose_named(|src| {
                rows.push(src);
                rows.len() as u32 - 1
            });
            let nonempty: Vec<u32> = g.nodes().filter(|&v| g.out_degree(v) > 0).map(|v| v.0).collect();
            prop_assert_eq!(&rows, &nonempty);
            let back: Vec<u32> = named.targets().iter().map(|&s| rows[s as usize]).collect();
            prop_assert_eq!(named.offsets(), want.offsets());
            prop_assert_eq!(back.as_slice(), want.targets());
            prop_assert_eq!(named.weights(), want.weights());
        }
    }

    #[test]
    fn transpose_rows_ascend_by_source_and_keep_parallel_edge_order() {
        // Row 3 gets 0 -> 3 twice (weights 7 then 5, in that row order),
        // 1 -> 3, 2 -> 3; node 4 is isolated at the end.
        let g = in_row_order(
            5,
            &[(2, 3, 9), (0, 3, 7), (1, 3, 4), (0, 3, 5), (0, 0, 1)],
            true,
        );
        let t = g.transpose();
        assert_eq!(t.offsets(), &[0, 1, 1, 1, 5, 5]);
        assert_eq!(t.targets(), &[0, 0, 0, 1, 2]);
        assert_eq!(t.weights(), &[1, 7, 5, 4, 9]);
        // Transposing back sorts row 0 by destination: [0, 3, 3].
        assert_eq!(t.transpose().targets(), &[0, 3, 3, 3, 3]);
        assert_eq!(t.transpose().weights(), &[1, 7, 5, 4, 9]);
    }

    #[test]
    fn transpose_of_edgeless_graphs() {
        for n in [0, 1, 4] {
            let g = Csr::empty(n);
            assert_eq!(g.transpose(), g);
            assert_eq!(transpose_by_sort(&g), g);
        }
    }

    #[test]
    fn transpose_keeps_weights() {
        let g = Csr::from_weighted_edge_list(3, &[(0, 1, 10), (1, 2, 20)]);
        let t = g.transpose();
        let e: Vec<_> = t.out_edges(Gid(2)).collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].dst, Gid(1));
        assert_eq!(e[0].weight, 20);
    }

    #[test]
    fn unweighted_edges_report_weight_one() {
        let g = diamond();
        assert!(!g.is_weighted());
        assert!(g.edges().all(|(_, e)| e.weight == 1));
    }

    #[test]
    fn with_weights_assigns_per_edge() {
        let g = diamond().with_weights(|s, d| s.0 * 10 + d.0);
        assert!(g.is_weighted());
        let w: Vec<_> = g.edges().map(|(_, e)| e.weight).collect();
        assert_eq!(w, vec![1, 2, 13, 23]);
    }

    #[test]
    fn self_loops_and_parallel_edges_are_kept() {
        let g = Csr::from_edge_list(2, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(Gid(0)), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_bad_offsets() {
        let _ = Csr::from_parts(vec![0, 2, 1], vec![0, 1], Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_bad_target() {
        let _ = Csr::from_parts(vec![0, 1], vec![5], Vec::new());
    }

    #[test]
    #[should_panic(expected = "one per edge")]
    fn from_parts_rejects_bad_weights() {
        let _ = Csr::from_parts(vec![0, 1, 1], vec![1], vec![1, 2]);
    }
}
