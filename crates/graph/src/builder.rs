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
    /// `(dst, weight)`; see [`build_csr`].
    pub fn build(&self) -> Csr {
        build_csr(self.num_nodes, &Kept(self), self.dedup)
    }
}

/// Edges that can be walked more than once: every call of
/// [`EdgeStream::for_each`] yields the same `(src, dst, weight)` triples.
/// [`build_csr`] walks a stream twice instead of holding a copy of it, so
/// edges that live in another form (network payloads, another id space)
/// never have to become a triple list.
pub trait EdgeStream {
    /// Calls `sink(src, dst, weight)` once per edge.
    fn for_each(&self, sink: impl FnMut(u32, u32, u32));
}

/// The edges a [`GraphBuilder`] keeps: all of them, minus the self loops
/// when those are dropped.
struct Kept<'a>(&'a GraphBuilder);

impl EdgeStream for Kept<'_> {
    fn for_each(&self, mut sink: impl FnMut(u32, u32, u32)) {
        let drop_self_loops = self.0.drop_self_loops;
        for &(s, d, w) in &self.0.edges {
            if !(drop_self_loops && s == d) {
                sink(s, d, w);
            }
        }
    }
}

/// Builds the [`Csr`] of `edges` over `num_nodes` nodes: rows ordered by
/// source, each row by `(dst, weight)`; with `dedup`, one edge per
/// `(src, dst)`, the one of smallest weight.
///
/// An out-of-place counting sort by source (degree count, prefix sum,
/// scatter) followed by a sort of each row. Rows partition the edges by
/// source, so the result is the order a sort of the whole
/// `(src, dst, weight)` list gives, whatever order the stream has. The result
/// is unweighted exactly when every kept edge has weight 1; a stream of unit
/// weights is scattered straight into the target array.
///
/// # Panics
///
/// Panics if an endpoint is `>= num_nodes`.
pub fn build_csr(num_nodes: u32, edges: &impl EdgeStream, dedup: bool) -> Csr {
    let n = num_nodes as usize;
    let mut offsets = vec![0u64; n + 1];
    let mut unit_weights = true;
    edges.for_each(|s, d, w| {
        assert!(
            s < num_nodes && d < num_nodes,
            "edge ({s}, {d}) out of range for {num_nodes} nodes"
        );
        offsets[s as usize + 1] += 1;
        unit_weights &= w == 1;
    });
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    if unit_weights {
        let targets = sorted_rows(&mut offsets, edges, dedup, |d, _| d, |&d| d);
        return Csr::from_parts(offsets, targets, Vec::new());
    }
    let rows = sorted_rows(&mut offsets, edges, dedup, |d, w| (d, w), |&(d, _)| d);
    let targets = rows.iter().map(|&(d, _)| d).collect();
    let weights = if rows.iter().all(|&(_, w)| w == 1) {
        Vec::new()
    } else {
        rows.iter().map(|&(_, w)| w).collect()
    };
    Csr::from_parts(offsets, targets, weights)
}

/// Scatters `cell(dst, weight)` of every edge into its source's row
/// (`offsets` holds the row bounds) and sorts each row; with `dedup`, also
/// compacts the rows towards the front, keeping the first (smallest) cell
/// per `target`, and rewrites `offsets` to match.
fn sorted_rows<T: Copy + Ord + Default>(
    offsets: &mut [u64],
    edges: &impl EdgeStream,
    dedup: bool,
    cell: impl Fn(u32, u32) -> T,
    target: impl Fn(&T) -> u32,
) -> Vec<T> {
    let n = offsets.len() - 1;
    let mut cursor = offsets[..n].to_vec();
    let mut rows = vec![T::default(); offsets[n] as usize];
    edges.for_each(|s, d, w| {
        let slot = &mut cursor[s as usize];
        rows[*slot as usize] = cell(d, w);
        *slot += 1;
    });
    let mut kept = 0usize;
    let mut start = 0usize;
    for v in 0..n {
        let end = offsets[v + 1] as usize;
        // The stable sort because it is the run-adaptive one (equal cells
        // are indistinguishable, so the order is the same): a partition's
        // stream is in source order and leaves each row as one or two
        // ascending runs, which it merges instead of sorting from scratch.
        rows[start..end].sort();
        if dedup {
            let row_start = kept;
            for i in start..end {
                if kept == row_start || target(&rows[kept - 1]) != target(&rows[i]) {
                    rows[kept] = rows[i];
                    kept += 1;
                }
            }
            offsets[v + 1] = kept as u64;
        }
        start = end;
    }
    if dedup {
        rows.truncate(kept);
    }
    rows
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
            let mut b = GraphBuilder::new(num_nodes);
            for &(s, d, w) in &edges {
                b.add_edge(Gid(s), Gid(d), w);
            }
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
    #[should_panic(expected = "out of range")]
    fn build_csr_rejects_an_out_of_range_edge() {
        struct One;
        impl EdgeStream for One {
            fn for_each(&self, mut sink: impl FnMut(u32, u32, u32)) {
                sink(0, 2, 1);
            }
        }
        let _ = build_csr(2, &One, false);
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
