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
    /// `(dst, weight)`; with dedup, one edge per `(src, dst)`, the one of
    /// smallest weight.
    ///
    /// Two walks over the edges: one counts each source's out-degree and
    /// notes whether every weight is 1, the other is [`fill_csr`].
    pub fn build(&self) -> Csr {
        let kept = Kept(self);
        let mut offsets = vec![0u64; self.num_nodes as usize + 1];
        let mut unit_weights = true;
        kept.for_each(|s, _, w| {
            offsets[s as usize + 1] += 1;
            unit_weights &= w == 1;
        });
        fill_csr(offsets, unit_weights, &kept, self.dedup)
    }
}

/// Edges that can be walked more than once: every call of
/// [`EdgeStream::for_each`] yields the same `(src, dst, weight)` triples.
/// [`fill_csr`] walks a stream instead of holding a copy of it, so edges
/// that live in another form (network payloads, another id space) never
/// have to become a triple list.
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

/// The filling half of a CSR build: lays `edges` out as the [`Csr`] over
/// `offsets.len() - 1` nodes, rows ordered by source, each row by
/// `(dst, weight)`; with `dedup`, one edge per `(src, dst)`, the one of
/// smallest weight.
///
/// The caller has counted the stream: `offsets[v + 1]` holds the
/// out-degree of node `v` (and `offsets[0]` is 0), and `unit_weights` says
/// whether every weight is 1. A prefix sum turns the counts into row bounds
/// in place, one walk scatters every edge into its source's row, and each
/// row is sorted. Rows partition the edges by source, so the result is the
/// order a sort of the whole `(src, dst, weight)` list gives, whatever order
/// the stream has. The result is unweighted exactly when every kept edge
/// has weight 1; a stream of unit weights is scattered straight into the
/// target array.
///
/// # Panics
///
/// Panics if an endpoint is out of range, if a source's count does not
/// match the edges the stream gives it, or if `unit_weights` is claimed for
/// a stream with another weight.
pub fn fill_csr(
    mut offsets: Vec<u64>,
    unit_weights: bool,
    edges: &impl EdgeStream,
    dedup: bool,
) -> Csr {
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
    if unit_weights {
        let unit = |d, w| {
            assert_eq!(w, 1, "weight {w} in a stream counted as unit-weight");
            d
        };
        let targets = sorted_rows(&mut offsets, edges, dedup, unit, |&d| d);
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
/// (`offsets` holds the row bounds), checking both endpoints first, and
/// sorts each row; with `dedup`, also compacts the rows towards the front,
/// keeping the first (smallest) cell per `target`, and rewrites `offsets` to
/// match.
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
        assert!(
            (s as usize) < n && (d as usize) < n,
            "edge ({s}, {d}) out of range for {n} nodes"
        );
        let slot = &mut cursor[s as usize];
        rows[*slot as usize] = cell(d, w);
        *slot += 1;
    });
    // Every row filled exactly: no count was short (which would have
    // spilled into the next row) or long.
    assert!(
        cursor[..] == offsets[1..],
        "the stream does not match its per-source counts"
    );
    let mut kept = 0usize;
    let mut start = 0usize;
    for v in 0..n {
        let end = offsets[v + 1] as usize;
        sort_row(&mut rows[start..end]);
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

/// Sorts one row of cells.
///
/// A partition's stream is in source order and leaves most rows as one
/// ascending run, or as two where the second lies wholly below the first: a
/// host numbers its masters before its mirrors, so a row in gid order that
/// reaches mirrors of smaller gid before its masters comes out rotated. The
/// first is only checked, the second checked and rotated back, each in
/// linear time; anything else goes to the stable sort, the run-adaptive one
/// (equal cells are indistinguishable, so the order is the same either way).
fn sort_row<T: Copy + Ord>(row: &mut [T]) {
    let Some(last) = row.last().copied() else {
        return;
    };
    let first_run = 1 + row.windows(2).take_while(|w| w[0] <= w[1]).count();
    if first_run == row.len() {
        return;
    }
    if last <= row[0] && row[first_run..].is_sorted() {
        row.rotate_left(first_run);
    } else {
        row.sort();
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
    fn sort_row_sorts_sorted_rotated_and_other_rows() {
        let rows: [&[u32]; 10] = [
            &[],
            &[4],
            &[1, 2, 2, 5],
            &[7, 8, 9, 1, 2, 3],
            &[5, 6, 1, 2, 5],
            &[3, 1, 2],
            &[2, 3, 1, 4],
            &[4, 1, 3, 2],
            &[6, 7, 1, 2, 8, 3],
            &[2, 2, 1, 1],
        ];
        for row in rows {
            let mut expected = row.to_vec();
            expected.sort_unstable();
            let mut got = row.to_vec();
            sort_row(&mut got);
            assert_eq!(got, expected, "{row:?}");
        }
    }

    /// One edge, `(0, dst)` of weight `weight`.
    struct One {
        dst: u32,
        weight: u32,
    }

    impl EdgeStream for One {
        fn for_each(&self, mut sink: impl FnMut(u32, u32, u32)) {
            sink(0, self.dst, self.weight);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_csr_rejects_an_out_of_range_edge() {
        let _ = fill_csr(vec![0, 1, 0], true, &One { dst: 2, weight: 1 }, false);
    }

    #[test]
    #[should_panic(expected = "does not match its per-source counts")]
    fn fill_csr_rejects_a_stream_that_does_not_match_its_counts() {
        let _ = fill_csr(vec![0, 0, 1], true, &One { dst: 1, weight: 1 }, false);
    }

    #[test]
    #[should_panic(expected = "counted as unit-weight")]
    fn fill_csr_rejects_a_weight_in_a_unit_weight_stream() {
        let _ = fill_csr(vec![0, 1, 0], true, &One { dst: 1, weight: 3 }, false);
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
