//! Single-host reference implementations used as test oracles.
//!
//! Every distributed run in this workspace — any engine, any partitioning
//! policy, any optimization level, any host count — must agree with these
//! implementations (exactly for the integer-label algorithms, within a
//! tolerance for pagerank).

use gluon_graph::{Csr, Gid};
use std::collections::{BinaryHeap, VecDeque};

/// Unreached marker for distance labels.
pub const INFINITY: u32 = u32::MAX;

/// Breadth-first distances from `source` (INFINITY for unreached nodes).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs(graph: &Csr, source: Gid) -> Vec<u32> {
    assert!(source.0 < graph.num_nodes(), "source out of range");
    let mut dist = vec![INFINITY; graph.num_nodes() as usize];
    dist[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for e in graph.out_edges(v) {
            if dist[e.dst.index()] == INFINITY {
                dist[e.dst.index()] = dv + 1;
                queue.push_back(e.dst);
            }
        }
    }
    dist
}

/// Dijkstra shortest-path distances from `source` using edge weights
/// (weight 1 when the graph is unweighted).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sssp(graph: &Csr, source: Gid) -> Vec<u32> {
    assert!(source.0 < graph.num_nodes(), "source out of range");
    let mut dist = vec![INFINITY; graph.num_nodes() as usize];
    dist[source.index()] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u32, source.0)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for e in graph.out_edges(Gid(v)) {
            let nd = d.saturating_add(e.weight);
            if nd < dist[e.dst.index()] {
                dist[e.dst.index()] = nd;
                heap.push(std::cmp::Reverse((nd, e.dst.0)));
            }
        }
    }
    dist
}

/// Connected components of the *undirected view* of `graph`: each node is
/// labeled with the smallest global id in its component (the fixpoint label
/// propagation converges to).
pub fn cc(graph: &Csr) -> Vec<u32> {
    let n = graph.num_nodes() as usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for (src, e) in graph.edges() {
        let (a, b) = (find(&mut parent, src.0), find(&mut parent, e.dst.0));
        if a != b {
            // Union by smaller label so roots are component minima.
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            parent[hi as usize] = lo;
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Pagerank with damping factor `damping`, run until the L1 rank change
/// falls below `tolerance` or `max_iters` iterations elapse. Returns
/// `(ranks, iterations)`.
///
/// Push order: each iteration divides once per source, `rank[u] /
/// out_degree(u)`, and adds that quotient into `sum[v]` for every out-edge
/// `u → v`, walking sources in ascending order. Every destination therefore
/// folds the same terms in the same order, from 0.0, as a pull over the
/// transpose (whose rows ascend by source, parallel edges adjacent), so the
/// ranks and the iteration count are those of the pull form bit for bit.
/// The L1 delta is summed in vertex order. Memory is O(V): `rank` and one
/// reused `sum`.
///
/// Dangling nodes keep the conventional treatment the vertex-program
/// formulation implies: their mass is *not* redistributed (matching the
/// paper's benchmarks, which use the same operator).
pub fn pagerank(graph: &Csr, damping: f64, tolerance: f64, max_iters: u32) -> (Vec<f64>, u32) {
    let n = graph.num_nodes() as usize;
    assert!(n > 0, "graph has no nodes");
    let base = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut sum = vec![0.0f64; n];
    let mut iters = 0;
    while iters < max_iters {
        for (u, &r) in rank.iter().enumerate() {
            let targets = graph.neighbors(Gid(u as u32));
            // A sink's quotient (a division by zero) is never read.
            let share = r / targets.len() as f64;
            for &v in targets {
                sum[v as usize] += share;
            }
        }
        let mut delta = 0.0f64;
        for (r, s) in rank.iter_mut().zip(&mut sum) {
            let next = base + damping * *s;
            delta += (next - *r).abs();
            *r = next;
            *s = 0.0;
        }
        iters += 1;
        if delta < tolerance {
            break;
        }
    }
    (rank, iters)
}

/// k-core decomposition of the undirected view: each node's core number
/// (largest k such that the node survives in the k-core) via peeling.
pub fn kcore(graph: &Csr) -> Vec<u32> {
    let sym = symmetrize(graph);
    let n = sym.num_nodes() as usize;
    let mut degree: Vec<u32> = sym.out_degrees();
    let mut core = vec![0u32; n];
    // Bucket peeling (O(E + V log V) with a BinaryHeap of (degree, node)).
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = (0..n as u32)
        .map(|v| std::cmp::Reverse((degree[v as usize], v)))
        .collect();
    let mut removed = vec![false; n];
    let mut current = 0u32;
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if removed[v as usize] || d > degree[v as usize] {
            continue;
        }
        removed[v as usize] = true;
        current = current.max(d);
        core[v as usize] = current;
        for e in sym.out_edges(Gid(v)) {
            let u = e.dst.index();
            if !removed[u] && degree[u] > 0 {
                degree[u] -= 1;
                heap.push(std::cmp::Reverse((degree[u], e.dst.0)));
            }
        }
    }
    core
}

/// The undirected (symmetrized, deduplicated, loop-free) view of `graph` —
/// the input convention for cc and kcore.
pub fn symmetrize(graph: &Csr) -> Csr {
    let mut b = gluon_graph::GraphBuilder::new(graph.num_nodes());
    b.dedup().drop_self_loops();
    for (src, e) in graph.edges() {
        b.add_edge(src, e.dst, e.weight);
        b.add_edge(e.dst, src, e.weight);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;

    #[test]
    fn bfs_on_path() {
        let d = bfs(&gen::path(5), Gid(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs(&gen::path(5), Gid(2));
        assert_eq!(d2, vec![INFINITY, INFINITY, 0, 1, 2]);
    }

    #[test]
    fn sssp_equals_bfs_on_unweighted() {
        let g = gen::rmat(7, 6, Default::default(), 3);
        assert_eq!(bfs(&g, Gid(0)), sssp(&g, Gid(0)));
    }

    #[test]
    fn sssp_respects_weights() {
        // 0 ->(10) 1, 0 ->(1) 2 ->(1) 1: shortest to 1 is 2.
        let g = Csr::from_weighted_edge_list(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 1)]);
        assert_eq!(sssp(&g, Gid(0)), vec![0, 2, 1]);
    }

    #[test]
    fn cc_labels_are_component_minima() {
        // Components {0,1,2} and {3,4}; edge directions irrelevant.
        let g = Csr::from_edge_list(5, &[(1, 0), (1, 2), (4, 3)]);
        assert_eq!(cc(&g), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn cc_on_disconnected_singletons() {
        let g = Csr::empty(4);
        assert_eq!(cc(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pagerank_sums_to_at_most_one_and_ranks_hubs_high() {
        let g = symmetrize(&gen::star(50));
        let (ranks, iters) = pagerank(&g, 0.85, 1e-9, 200);
        assert!(iters > 1);
        let total: f64 = ranks.iter().sum();
        assert!(total <= 1.0 + 1e-9, "total {total}");
        let center = ranks[0];
        assert!(ranks[1..].iter().all(|&r| r < center));
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let g = gen::cycle(10);
        let (ranks, _) = pagerank(&g, 0.85, 1e-12, 500);
        for r in &ranks {
            assert!((r - 0.1).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn kcore_of_complete_graph() {
        let g = gen::complete(5);
        assert_eq!(kcore(&g), vec![4; 5]);
    }

    #[test]
    fn kcore_of_star_is_one() {
        let core = kcore(&gen::star(6));
        assert_eq!(core, vec![1; 6]);
    }

    #[test]
    fn symmetrize_makes_degrees_equal() {
        let g = gen::rmat(6, 4, Default::default(), 1);
        let s = symmetrize(&g);
        assert_eq!(s.out_degrees(), s.in_degrees());
    }
}
