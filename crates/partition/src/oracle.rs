//! The partition builder [`crate::build`] replaced, kept as a test oracle,
//! and the differential battery that holds the linear-pass builder to it.
//!
//! The oracle is the old construction verbatim: mirrors found through a
//! `HashSet`, local ids through two binary searches per endpoint, and the
//! local CSR from a comparison sort of the whole translated edge list.

use crate::build::{partition_all, partition_on_host};
use crate::local::LocalGraph;
use crate::policy::{Policy, PolicyCtx};
use gluon_graph::{gen, Csr, Gid, GraphBuilder};
use gluon_net::{run_cluster, Communicator};

fn oracle_partition_all(graph: &Csr, num_hosts: usize, policy: Policy) -> Vec<LocalGraph> {
    let ctx = PolicyCtx::new(policy, graph, num_hosts);
    let mut buckets: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); num_hosts];
    for (src, e) in graph.edges() {
        buckets[ctx.host_of_edge(src, e.dst)].push((src.0, e.dst.0, e.weight));
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(host, edges)| oracle_build_local(host, &ctx, graph, edges))
        .collect()
}

fn oracle_build_local(
    host: usize,
    ctx: &PolicyCtx,
    graph: &Csr,
    edges: Vec<(u32, u32, u32)>,
) -> LocalGraph {
    let mut master_gids: Vec<u32> = (0..graph.num_nodes())
        .filter(|&v| ctx.master_of(Gid(v)) == host)
        .collect();
    master_gids.sort_unstable();
    let mut mirror_gids: Vec<u32> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &(u, v, _) in &edges {
        for g in [u, v] {
            if ctx.master_of(Gid(g)) != host && seen.insert(g) {
                mirror_gids.push(g);
            }
        }
    }
    mirror_gids.sort_unstable();

    let gids: Vec<Gid> = master_gids
        .iter()
        .chain(&mirror_gids)
        .map(|&g| Gid(g))
        .collect();
    let lid_of = |g: u32| -> u32 {
        match master_gids.binary_search(&g) {
            Ok(i) => i as u32,
            Err(_) => {
                let i = mirror_gids
                    .binary_search(&g)
                    .expect("endpoint of a local edge has a proxy");
                (master_gids.len() + i) as u32
            }
        }
    };
    let mut local: Vec<(u32, u32, u32)> = edges
        .into_iter()
        .map(|(u, v, w)| (lid_of(u), lid_of(v), w))
        .collect();
    local.sort_unstable();
    let mut offsets = vec![0u64; gids.len() + 1];
    for &(s, _, _) in &local {
        offsets[s as usize + 1] += 1;
    }
    for v in 0..gids.len() {
        offsets[v + 1] += offsets[v];
    }
    let mut has_in = vec![0u64; gids.len().div_ceil(64)];
    for &(_, d, _) in &local {
        has_in[d as usize / 64] |= 1 << (d % 64);
    }
    let targets = local.iter().map(|&(_, d, _)| d).collect();
    let weights = if local.iter().all(|&(_, _, w)| w == 1) {
        Vec::new()
    } else {
        local.iter().map(|&(_, _, w)| w).collect()
    };
    LocalGraph::from_parts(
        host,
        ctx.num_hosts(),
        ctx.policy(),
        graph.num_nodes(),
        graph.num_edges(),
        Csr::from_parts(offsets, targets, weights),
        gids,
        master_gids.len() as u32,
        has_in,
        |g| ctx.master_of(g),
    )
}

/// Everything a partition is made of, array for array.
pub(crate) fn assert_same_partition(a: &LocalGraph, b: &LocalGraph, what: &str) {
    assert_eq!(a.host(), b.host(), "{what}: host");
    assert_eq!(a.num_hosts(), b.num_hosts(), "{what}: num_hosts");
    assert_eq!(a.global_nodes(), b.global_nodes(), "{what}: global_nodes");
    assert_eq!(a.global_edges(), b.global_edges(), "{what}: global_edges");
    assert_eq!(a.num_masters(), b.num_masters(), "{what}: num_masters");
    assert_eq!(a.num_proxies(), b.num_proxies(), "{what}: num_proxies");
    let per_proxy = |lg: &LocalGraph| -> Vec<_> {
        lg.proxies()
            .map(|p| {
                (
                    lg.gid(p),
                    lg.owner_of(p),
                    lg.has_local_in_edges(p),
                    lg.has_local_out_edges(p),
                )
            })
            .collect()
    };
    assert_eq!(
        per_proxy(a),
        per_proxy(b),
        "{what}: gid/owner/has_in/has_out"
    );
    // `Csr: Eq` compares offsets, targets and weights exactly.
    assert_eq!(a.topology(), b.topology(), "{what}: local CSR");
}

/// `g` with every row's edges in reverse order: rows that descend, which
/// `Csr::from_parts` takes as they are.
fn reversed_rows(g: &Csr) -> Csr {
    let (mut targets, mut weights) = (g.targets().to_vec(), g.weights().to_vec());
    for row in g.offsets().windows(2) {
        let row = row[0] as usize..row[1] as usize;
        targets[row.clone()].reverse();
        if !weights.is_empty() {
            weights[row].reverse();
        }
    }
    Csr::from_parts(g.offsets().to_vec(), targets, weights)
}

/// A hub whose row spans every host's slice of the edge list at 2 to 9
/// hosts: 128 of its 140 edges, with a few rows before and after it.
fn hub() -> Csr {
    let mut edges = vec![(0, 5), (0, 33), (1, 7), (2, 9), (2, 40), (3, 1)];
    edges.extend((0..128).map(|d| (10, d % 64)));
    edges.extend([(50, 2), (51, 60), (52, 10), (55, 10), (58, 3), (60, 61)]);
    Csr::from_edge_list(64, &edges)
}

fn inputs() -> Vec<(&'static str, Csr)> {
    let rmat = gen::rmat(6, 6, Default::default(), 28);
    let weighted = gen::with_random_weights(&rmat, 9, 3);
    let mut isolated_ends = GraphBuilder::new(40);
    for (s, d) in [(10, 29), (29, 10), (12, 20), (20, 21), (21, 12), (15, 15)] {
        isolated_ends.add_edge(Gid(s), Gid(d), 1);
    }
    vec![
        ("descending rows", reversed_rows(&rmat)),
        ("descending weighted rows", reversed_rows(&weighted)),
        ("hub", hub()),
        ("weighted hub", gen::with_random_weights(&hub(), 7, 4)),
        ("weighted", weighted),
        ("rmat", rmat),
        ("grid", gen::grid(7, 9)),
        (
            "duplicate edges",
            Csr::from_weighted_edge_list(
                6,
                &[
                    (0, 5, 2),
                    (0, 5, 2),
                    (0, 5, 1),
                    (5, 0, 7),
                    (3, 4, 1),
                    (3, 4, 1),
                    (4, 3, 9),
                    (0, 5, 3),
                ],
            ),
        ),
        (
            "self loops",
            Csr::from_edge_list(5, &[(0, 0), (1, 1), (1, 2), (4, 4), (4, 4), (2, 4), (4, 0)]),
        ),
        ("isolated leading and trailing nodes", isolated_ends.build()),
        ("fewer nodes than hosts", gen::cycle(3)),
        ("edgeless", Csr::empty(5)),
        ("empty", Csr::empty(0)),
    ]
}

#[test]
fn linear_pass_builder_equals_the_oracle() {
    for (name, g) in inputs() {
        for policy in Policy::ALL {
            for hosts in [1usize, 2, 3, 4, 6, 7, 9] {
                let what = format!("{name}, {policy}, {hosts} hosts");
                let oracle = oracle_partition_all(&g, hosts, policy);
                let serial = partition_all(&g, hosts, policy);
                let distributed = run_cluster(hosts, |ep| {
                    partition_on_host(&g, policy, &Communicator::new(ep))
                });
                assert_eq!(serial.len(), hosts, "{what}");
                assert_eq!(distributed.len(), hosts, "{what}");
                for h in 0..hosts {
                    assert_same_partition(&serial[h], &oracle[h], &format!("{what}, serial"));
                    assert_same_partition(
                        &distributed[h],
                        &oracle[h],
                        &format!("{what}, distributed"),
                    );
                }
            }
        }
    }
}
