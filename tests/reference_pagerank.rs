//! The pagerank oracle, `reference::pagerank`, pushes: one quotient per
//! source, scattered into one reused `sum` in ascending source order. This
//! battery holds it bit for bit, iteration count included, to the pull
//! form it replaced — a fold over each transpose row from 0.0 — computed
//! here over `transpose_by_sort`, the obvious transpose.
//!
//! The inputs carry what could tell the two orders apart: parallel edges
//! (adjacent or not within a source's row), self loops, sinks, vertices no
//! edge enters, isolated vertices, a one-vertex graph, and destinations
//! with many in-edges, where adding the same terms in another order rounds
//! differently. Every property runs at tolerance 0 (a fixed iteration
//! count) and at tolerances above 0 (the convergence test decides).

use gluon_suite::algos::reference;
use gluon_suite::graph::{gen, transpose_by_sort, Csr, Gid};
use proptest::prelude::*;

const DAMPING: f64 = 0.85;

/// The pull form: each vertex folds `rank[u] / out_degree(u)` over its
/// transpose row, the next ranks go into a fresh vector, and the L1 delta
/// is summed in vertex order.
fn pull_pagerank(graph: &Csr, damping: f64, tolerance: f64, max_iters: u32) -> (Vec<f64>, u32) {
    let n = graph.num_nodes() as usize;
    let base = (1.0 - damping) / n as f64;
    let out_deg = graph.out_degrees();
    let transpose = transpose_by_sort(graph);
    let mut rank = vec![1.0 / n as f64; n];
    let mut iters = 0;
    while iters < max_iters {
        let mut next = vec![base; n];
        let mut delta = 0.0f64;
        for v in 0..n {
            let mut sum = 0.0f64;
            for &u in transpose.neighbors(Gid(v as u32)) {
                sum += rank[u as usize] / f64::from(out_deg[u as usize]);
            }
            next[v] += damping * sum;
            delta += (next[v] - rank[v]).abs();
        }
        rank = next;
        iters += 1;
        if delta < tolerance {
            break;
        }
    }
    (rank, iters)
}

fn bits(ranks: &[f64]) -> Vec<u64> {
    ranks.iter().map(|r| r.to_bits()).collect()
}

/// Asserts that the oracle and the pull form agree bit for bit, with equal
/// iteration counts, at each `(tolerance, max_iters)`.
fn assert_same(what: &str, graph: &Csr, settings: &[(f64, u32)]) {
    for &(tolerance, max_iters) in settings {
        let (got, got_iters) = reference::pagerank(graph, DAMPING, tolerance, max_iters);
        let (want, want_iters) = pull_pagerank(graph, DAMPING, tolerance, max_iters);
        assert_eq!(
            got_iters, want_iters,
            "{what} at ({tolerance:e}, {max_iters}): iteration counts differ"
        );
        assert_eq!(
            bits(&got),
            bits(&want),
            "{what} at ({tolerance:e}, {max_iters}): ranks differ"
        );
    }
}

const FIXED: [(f64, u32); 2] = [(0.0, 1), (0.0, 7)];
const CONVERGING: [(f64, u32); 3] = [(1e-3, 200), (1e-6, 200), (1e-10, 500)];

/// Graphs of 1–40 vertices whose edges touch only the first `k` of them,
/// so the rest are isolated. Few vertices for up to 120 edges makes
/// parallel edges and self loops common. Rows come out sorted.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (1u32..40).prop_flat_map(|n| {
        (1..n + 1).prop_flat_map(move |k| {
            proptest::collection::vec((0..k, 0..k), 0..120)
                .prop_map(move |es| Csr::from_edge_list(n, &es))
        })
    })
}

/// As [`arb_graph`], but each source's row keeps the order the edges were
/// drawn in, so a row can read `[3, 5, 3]`: parallel edges that are not
/// adjacent within the row.
fn arb_unsorted_rows() -> impl Strategy<Value = Csr> {
    (1u32..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..100).prop_map(move |mut es| {
            es.sort_by_key(|&(src, _)| src);
            let mut offsets = vec![0u64; n as usize + 1];
            for &(src, _) in &es {
                offsets[src as usize + 1] += 1;
            }
            for v in 1..offsets.len() {
                offsets[v] += offsets[v - 1];
            }
            let targets = es.iter().map(|&(_, dst)| dst).collect();
            Csr::from_parts(offsets, targets, Vec::new())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn push_order_matches_the_pull_fold(graph in arb_graph()) {
        assert_same("random graph", &graph, &FIXED);
        assert_same("random graph", &graph, &CONVERGING);
    }

    #[test]
    fn row_order_within_a_source_does_not_matter(graph in arb_unsorted_rows()) {
        assert_same("unsorted rows", &graph, &FIXED);
        assert_same("unsorted rows", &graph, &CONVERGING);
    }
}

#[test]
fn named_corner_cases_match_the_pull_fold() {
    // 0 → 1 twice (parallel), 1 → 1 (self loop), 1 → 2, 2 → 3: 3 is a
    // sink, 0 has no in-edge, 4 is isolated.
    let corners = Csr::from_edge_list(5, &[(0, 1), (0, 1), (1, 1), (1, 2), (2, 3)]);
    let cases = [
        ("one vertex", Csr::empty(1)),
        (
            "one vertex with a self loop",
            Csr::from_edge_list(1, &[(0, 0)]),
        ),
        ("edgeless", Csr::empty(6)),
        ("corners", corners),
        ("star", gen::star(40)),
        ("30x40 grid", gen::grid(30, 40)),
    ];
    for (what, graph) in &cases {
        assert_same(what, graph, &FIXED);
        assert_same(what, graph, &CONVERGING);
    }
}

#[test]
fn rmat_matches_the_pull_fold() {
    // Thousands of in-edges on the hubs: any change in the order a
    // destination adds its terms shows in the last bits.
    let graph = gen::rmat(12, 16, Default::default(), 28);
    assert_same("rmat12", &graph, &[(0.0, 5), (1e-6, 100), (1e-10, 500)]);
}

#[test]
fn an_edgeless_vertex_keeps_the_base_rank() {
    let (ranks, iters) = reference::pagerank(&Csr::empty(4), DAMPING, 1e-9, 50);
    assert_eq!(iters, 2, "the first step moves every rank, the second none");
    assert!(ranks.iter().all(|&r| r == (1.0 - DAMPING) / 4.0));
}
