//! Synthetic graph generators.
//!
//! The Gluon paper evaluates on synthetic scale-free graphs (rmat26/28,
//! kron30, generated with the graph500 parameters 0.57/0.19/0.19/0.05) and on
//! real web crawls (twitter40, clueweb12, wdc12). The crawls are not
//! redistributable at laptop scale, so this module provides shape-preserving
//! stand-ins: [`rmat`] and [`kronecker`] for the synthetic inputs and
//! [`web_like`] / [`twitter_like`] for the crawls (power-law in-degree with
//! bounded out-degree, matching the max-degree asymmetry in the paper's
//! Table 1).
//!
//! All generators are deterministic in their seed.

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::ids::Gid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quadrant probabilities for the recursive-matrix generator.
///
/// # Examples
///
/// ```
/// let p = gluon_graph::RmatProbs::GRAPH500;
/// assert!((p.a + p.b + p.c + p.d - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RmatProbs {
    /// Probability of the top-left quadrant (both halves low).
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant.
    pub d: f64,
}

impl RmatProbs {
    /// The graph500 reference parameters used by the paper (0.57, 0.19,
    /// 0.19, 0.05).
    pub const GRAPH500: RmatProbs = RmatProbs {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };
}

impl Default for RmatProbs {
    fn default() -> Self {
        RmatProbs::GRAPH500
    }
}

/// Generates an RMAT graph with `2^scale` nodes and `edge_factor * 2^scale`
/// directed edges.
///
/// Parallel edges and self loops are kept, as in the graph500 generator; the
/// paper's rmat26/rmat28 inputs use `edge_factor = 16`.
///
/// # Examples
///
/// ```
/// use gluon_graph::{rmat, RmatProbs};
///
/// let g = rmat(8, 8, RmatProbs::GRAPH500, 42);
/// assert_eq!(g.num_nodes(), 256);
/// assert_eq!(g.num_edges(), 2048);
/// ```
///
/// # Panics
///
/// Panics if the quadrant probabilities do not sum to 1 (±1e-6) or if
/// `scale >= 31`.
pub fn rmat(scale: u32, edge_factor: u32, probs: RmatProbs, seed: u64) -> Csr {
    assert!(scale < 31, "scale must keep node ids within u32");
    let total = probs.a + probs.b + probs.c + probs.d;
    assert!(
        (total - 1.0).abs() < 1e-6,
        "rmat probabilities must sum to 1, got {total}"
    );
    let n = 1u32 << scale;
    let m = edge_factor as u64 * n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let (src, dst) = rmat_edge(scale, probs, &mut rng);
        builder.add_edge(Gid(src), Gid(dst), 1);
    }
    builder.build()
}

fn rmat_edge(scale: u32, probs: RmatProbs, rng: &mut StdRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for bit in (0..scale).rev() {
        let r: f64 = rng.gen();
        let (sbit, dbit) = if r < probs.a {
            (0, 0)
        } else if r < probs.a + probs.b {
            (0, 1)
        } else if r < probs.a + probs.b + probs.c {
            (1, 0)
        } else {
            (1, 1)
        };
        src |= sbit << bit;
        dst |= dbit << bit;
    }
    (src, dst)
}

/// Generates a stochastic-Kronecker graph with `2^scale` nodes.
///
/// This is the graph500 Kronecker sampler: the same recursive quadrant walk
/// as [`rmat`], followed by a random relabeling of vertices so that node id
/// carries no locality (the paper's kron30 input is produced this way).
///
/// # Panics
///
/// Panics if `scale >= 31`.
pub fn kronecker(scale: u32, edge_factor: u32, seed: u64) -> Csr {
    assert!(scale < 31, "scale must keep node ids within u32");
    let n = 1u32 << scale;
    let m = edge_factor as u64 * n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    // Random permutation of vertex labels.
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let (src, dst) = rmat_edge(scale, RmatProbs::GRAPH500, &mut rng);
        builder.add_edge(Gid(perm[src as usize]), Gid(perm[dst as usize]), 1);
    }
    builder.build()
}

/// Generates a uniform random directed graph with `num_nodes` nodes and
/// `num_edges` edges (Erdős–Rényi G(n, m) with repetition).
pub fn erdos_renyi(num_nodes: u32, num_edges: u64, seed: u64) -> Csr {
    assert!(num_nodes > 0, "graph must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(num_nodes);
    for _ in 0..num_edges {
        let src = rng.gen_range(0..num_nodes);
        let dst = rng.gen_range(0..num_nodes);
        builder.add_edge(Gid(src), Gid(dst), 1);
    }
    builder.build()
}

/// Generates a web-crawl-like graph: power-law in-degree (exponent
/// `gamma`, Zipf-distributed popularity) with uniformly random sources.
///
/// Used as the stand-in for clueweb12/wdc12 (Table 1 of the paper shows
/// those crawls have very large max in-degree — tens of millions — but
/// bounded max out-degree; this generator reproduces exactly that skew).
///
/// # Examples
///
/// ```
/// let g = gluon_graph::web_like(1000, 10, 2.0, 7);
/// assert_eq!(g.num_nodes(), 1000);
/// let din = g.in_degrees();
/// let dout = g.out_degrees();
/// // In-degree is much more skewed than out-degree.
/// assert!(din.iter().max() > dout.iter().max());
/// ```
pub fn web_like(num_nodes: u32, avg_degree: u32, gamma: f64, seed: u64) -> Csr {
    assert!(num_nodes > 0, "graph must have at least one node");
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let m = num_nodes as u64 * avg_degree as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    // Zipf ranks: node v gets popularity (v + 1)^-gamma; sample destinations
    // by inverse-CDF over the cumulative popularity table.
    let mut cum = Vec::with_capacity(num_nodes as usize);
    let mut total = 0.0f64;
    for v in 0..num_nodes {
        total += f64::from(v + 1).powf(-gamma);
        cum.push(total);
    }
    let mut builder = GraphBuilder::new(num_nodes);
    for _ in 0..m {
        let src = rng.gen_range(0..num_nodes);
        let r: f64 = rng.gen::<f64>() * total;
        let dst = match cum.binary_search_by(|c| c.partial_cmp(&r).expect("no NaN")) {
            Ok(i) | Err(i) => i.min(num_nodes as usize - 1) as u32,
        };
        builder.add_edge(Gid(src), Gid(dst), 1);
    }
    builder.build()
}

/// Generates a twitter-like social graph: power-law on *both* degree
/// directions, denser than [`web_like`] (the paper's twitter40 has
/// |E|/|V| = 35 and multi-million max degrees on both sides).
pub fn twitter_like(num_nodes: u32, avg_degree: u32, seed: u64) -> Csr {
    assert!(num_nodes > 0, "graph must have at least one node");
    let m = num_nodes as u64 * avg_degree as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let gamma = 1.8;
    let mut cum = Vec::with_capacity(num_nodes as usize);
    let mut total = 0.0f64;
    for v in 0..num_nodes {
        total += f64::from(v + 1).powf(-gamma);
        cum.push(total);
    }
    let sample = |rng: &mut StdRng| -> u32 {
        let r: f64 = rng.gen::<f64>() * total;
        match cum.binary_search_by(|c| c.partial_cmp(&r).expect("no NaN")) {
            Ok(i) | Err(i) => i.min(num_nodes as usize - 1) as u32,
        }
    };
    // Interleave the popular ids across the id space so chunked edge-cut
    // partitions do not get all hubs on host 0.
    let stride = 0x9E37_79B9u64;
    let scramble = |v: u32| -> u32 { ((v as u64 * stride) % num_nodes as u64) as u32 };
    let mut builder = GraphBuilder::new(num_nodes);
    for _ in 0..m {
        let src = scramble(sample(&mut rng));
        let dst = scramble(sample(&mut rng));
        builder.add_edge(Gid(src), Gid(dst), 1);
    }
    builder.build()
}

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path(num_nodes: u32) -> Csr {
    let edges: Vec<_> = (0..num_nodes.saturating_sub(1))
        .map(|v| (v, v + 1))
        .collect();
    Csr::from_edge_list(num_nodes, &edges)
}

/// Directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(num_nodes: u32) -> Csr {
    assert!(num_nodes > 0, "cycle needs at least one node");
    let edges: Vec<_> = (0..num_nodes).map(|v| (v, (v + 1) % num_nodes)).collect();
    Csr::from_edge_list(num_nodes, &edges)
}

/// Star with node 0 at the center and edges `0 -> v` for all other `v`.
pub fn star(num_nodes: u32) -> Csr {
    let edges: Vec<_> = (1..num_nodes).map(|v| (0, v)).collect();
    Csr::from_edge_list(num_nodes, &edges)
}

/// Directed grid: edges go right and down in a `rows x cols` lattice.
pub fn grid(rows: u32, cols: u32) -> Csr {
    let n = rows * cols;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols));
            }
        }
    }
    Csr::from_edge_list(n, &edges)
}

/// Complete directed graph (no self loops).
pub fn complete(num_nodes: u32) -> Csr {
    let mut edges = Vec::new();
    for s in 0..num_nodes {
        for d in 0..num_nodes {
            if s != d {
                edges.push((s, d));
            }
        }
    }
    Csr::from_edge_list(num_nodes, &edges)
}

/// Complete binary out-tree of the given depth (depth 0 = single node).
pub fn binary_tree(depth: u32) -> Csr {
    let n = (1u32 << (depth + 1)) - 1;
    let mut edges = Vec::new();
    for v in 0..n {
        for child in [2 * v + 1, 2 * v + 2] {
            if child < n {
                edges.push((v, child));
            }
        }
    }
    Csr::from_edge_list(n, &edges)
}

/// Assigns uniformly random weights in `1..=max_weight` to every edge.
pub fn with_random_weights(graph: &Csr, max_weight: u32, seed: u64) -> Csr {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let mut rng = StdRng::seed_from_u64(seed);
    graph.with_weights(|_, _| rng.gen_range(1..=max_weight))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_in_seed() {
        let a = rmat(6, 4, RmatProbs::GRAPH500, 1);
        let b = rmat(6, 4, RmatProbs::GRAPH500, 1);
        let c = rmat(6, 4, RmatProbs::GRAPH500, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// FNV-1a over the little-endian bytes of offsets, targets, weights.
    fn checksum(g: &Csr) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        g.offsets().iter().for_each(|o| eat(&o.to_le_bytes()));
        g.targets().iter().for_each(|t| eat(&t.to_le_bytes()));
        g.weights().iter().for_each(|w| eat(&w.to_le_bytes()));
        h
    }

    /// The benchmark's inputs are `rmat(19, 16, GRAPH500, seed)` and
    /// `grid(512, 512)`; these small instances pin the generators (rng
    /// stream, quadrant choice, CSR edge order) they come from, as recorded
    /// at the commit that introduced the benchmark.
    #[test]
    fn benchmark_generators_match_their_golden_checksums() {
        assert_eq!(
            checksum(&rmat(10, 16, RmatProbs::GRAPH500, 28)),
            0x2ecf_19b1_7ba2_6e45
        );
        assert_eq!(checksum(&grid(32, 32)), 0x19d1_c1a4_0e67_67b4);
    }

    #[test]
    fn rmat_has_requested_size() {
        let g = rmat(7, 9, RmatProbs::GRAPH500, 0);
        assert_eq!(g.num_nodes(), 128);
        assert_eq!(g.num_edges(), 9 * 128);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 16, RmatProbs::GRAPH500, 3);
        let max_out = *g.out_degrees().iter().max().expect("non-empty");
        // A uniform graph would have max degree close to 16; rmat hubs are
        // far above that.
        assert!(max_out > 100, "expected a hub, max out-degree {max_out}");
    }

    #[test]
    fn kronecker_relabeling_preserves_size() {
        let g = kronecker(6, 8, 11);
        assert_eq!(g.num_nodes(), 64);
        assert_eq!(g.num_edges(), 8 * 64);
    }

    #[test]
    fn erdos_renyi_counts() {
        let g = erdos_renyi(100, 450, 5);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 450);
    }

    #[test]
    fn web_like_in_degree_dominates_out_degree() {
        let g = web_like(500, 8, 2.0, 9);
        let din = *g.in_degrees().iter().max().expect("non-empty");
        let dout = *g.out_degrees().iter().max().expect("non-empty");
        assert!(din > 3 * dout, "in {din} out {dout}");
    }

    #[test]
    fn structured_generators_have_expected_shape() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(grid(3, 4).num_nodes(), 12);
        assert_eq!(grid(3, 4).num_edges(), (2 * 4 + 3 * 3) as u64);
        assert_eq!(complete(4).num_edges(), 12);
        assert_eq!(binary_tree(3).num_nodes(), 15);
        assert_eq!(binary_tree(3).num_edges(), 14);
    }

    #[test]
    fn random_weights_stay_in_range() {
        let g = with_random_weights(&path(50), 7, 13);
        assert!(g.is_weighted());
        assert!(g.edges().all(|(_, e)| (1..=7).contains(&e.weight)));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probabilities() {
        let p = RmatProbs {
            a: 0.9,
            b: 0.9,
            c: 0.0,
            d: 0.0,
        };
        let _ = rmat(4, 2, p, 0);
    }
}
