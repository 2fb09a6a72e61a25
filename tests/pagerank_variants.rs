//! Push-style and pull-style pagerank converge to the same fixpoint — the
//! duality D-Ligra exposes (§5.1).

use gluon_suite::algos::apps::{pagerank, pagerank_push, PagerankConfig};
use gluon_suite::algos::{reference, EngineKind};
use gluon_suite::graph::gen;
use gluon_suite::net::{run_cluster, Communicator};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{GluonContext, OptLevel};

fn run_push(
    graph: &gluon_suite::graph::Csr,
    hosts: usize,
    policy: Policy,
    cfg: PagerankConfig,
) -> Vec<f64> {
    let per_host = run_cluster(hosts, |ep| {
        let comm = Communicator::new(ep);
        let lg = partition_on_host(graph, policy, &comm);
        let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
        let (ranks, _) = pagerank_push(&lg, &mut ctx, cfg);
        lg.masters()
            .map(|m| (lg.gid(m).0, ranks[m.index()]))
            .collect::<Vec<_>>()
    });
    let mut out = vec![0.0; graph.num_nodes() as usize];
    for host in per_host {
        for (gid, r) in host {
            out[gid as usize] = r;
        }
    }
    out
}

fn run_pull(
    graph: &gluon_suite::graph::Csr,
    hosts: usize,
    policy: Policy,
    engine: EngineKind,
    cfg: PagerankConfig,
) -> Vec<f64> {
    let per_host = run_cluster(hosts, |ep| {
        let comm = Communicator::new(ep);
        let mut lg = partition_on_host(graph, policy, &comm);
        lg.build_transpose();
        let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
        let (ranks, _) = pagerank(&lg, &mut ctx, cfg, engine);
        lg.masters()
            .map(|m| (lg.gid(m).0, ranks[m.index()]))
            .collect::<Vec<_>>()
    });
    let mut out = vec![0.0; graph.num_nodes() as usize];
    for host in per_host {
        for (gid, r) in host {
            out[gid as usize] = r;
        }
    }
    out
}

#[test]
fn push_matches_reference_fixpoint() {
    let g = gen::rmat(8, 8, Default::default(), 71);
    let cfg = PagerankConfig {
        damping: 0.85,
        tolerance: 1e-7,
        max_iters: 300,
    };
    let push = run_push(&g, 3, Policy::Cvc, cfg);
    let (oracle, _) = reference::pagerank(&g, 0.85, 1e-10, 500);
    for (v, (got, want)) in push.iter().zip(&oracle).enumerate() {
        assert!(
            (got - want).abs() < 1e-4,
            "node {v}: push {got} vs oracle {want}"
        );
    }
}

#[test]
fn push_and_pull_agree_across_engines() {
    let g = gen::web_like(1_000, 10, 2.0, 72);
    let cfg = PagerankConfig {
        damping: 0.85,
        tolerance: 1e-7,
        max_iters: 300,
    };
    let push = run_push(&g, 4, Policy::Oec, cfg);
    for engine in EngineKind::ALL {
        let pull = run_pull(&g, 4, Policy::Oec, engine, cfg);
        for (v, (a, b)) in push.iter().zip(&pull).enumerate() {
            assert!((a - b).abs() < 1e-4, "{engine} node {v}: {a} vs {b}");
        }
    }
}

#[test]
fn push_works_under_vertex_cuts() {
    let g = gen::twitter_like(1_200, 12, 73);
    let cfg = PagerankConfig {
        damping: 0.85,
        tolerance: 1e-7,
        max_iters: 300,
    };
    let (oracle, _) = reference::pagerank(&g, 0.85, 1e-10, 500);
    for policy in [Policy::Cvc, Policy::Hvc, Policy::Iec] {
        let push = run_push(&g, 4, policy, cfg);
        for (v, (got, want)) in push.iter().zip(&oracle).enumerate() {
            assert!(
                (got - want).abs() < 1e-4,
                "{policy} node {v}: {got} vs {want}"
            );
        }
    }
}
