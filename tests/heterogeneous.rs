//! Mixed-engine clusters (paper Figure 1): hosts running different compute
//! engines against one Gluon substrate must agree with the oracle.

use gluon_suite::algos::{driver, reference, EngineKind};
use gluon_suite::graph::{gen, max_out_degree_node};
use gluon_suite::partition::Policy;
use gluon_suite::substrate::OptLevel;

#[test]
fn every_engine_mix_matches_the_oracle() {
    let g = gen::rmat(7, 8, Default::default(), 90);
    let source = max_out_degree_node(&g);
    let oracle = reference::bfs(&g, source);
    let mixes: [&[EngineKind]; 4] = [
        &[EngineKind::Galois, EngineKind::Irgl],
        &[EngineKind::Ligra, EngineKind::Galois, EngineKind::Irgl],
        &[EngineKind::Irgl, EngineKind::Irgl, EngineKind::Ligra],
        &[
            EngineKind::Galois,
            EngineKind::Ligra,
            EngineKind::Irgl,
            EngineKind::Galois,
        ],
    ];
    for engines in mixes {
        for policy in [Policy::Oec, Policy::Cvc, Policy::Hvc] {
            let out = driver::run_heterogeneous_bfs(&g, policy, OptLevel::OSTI, engines, source);
            assert_eq!(out.int_labels, oracle, "{engines:?} {policy}");
        }
    }
}

#[test]
fn mixed_engines_align_sync_phases() {
    let g = gen::twitter_like(1_000, 10, 91);
    let source = max_out_degree_node(&g);
    let out = driver::run_heterogeneous_bfs(
        &g,
        Policy::Cvc,
        OptLevel::OSTI,
        &[EngineKind::Galois, EngineKind::Irgl, EngineKind::Ligra],
        source,
    );
    // One record per BSP round on every host, whatever its engine: the
    // termination vote books into the round's sync phase.
    let phases: Vec<usize> = out.host_stats.iter().map(|h| h.num_phases()).collect();
    assert_eq!(phases, vec![out.rounds as usize; 3]);
}

#[test]
fn heterogeneity_works_at_every_opt_level() {
    let g = gen::rmat(6, 6, Default::default(), 92);
    let source = max_out_degree_node(&g);
    let oracle = reference::bfs(&g, source);
    for opts in OptLevel::ALL {
        let out = driver::run_heterogeneous_bfs(
            &g,
            Policy::Hvc,
            opts,
            &[EngineKind::Irgl, EngineKind::Galois],
            source,
        );
        assert_eq!(out.int_labels, oracle, "{opts}");
    }
}
