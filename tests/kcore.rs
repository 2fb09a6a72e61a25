//! Distributed k-core against the peeling oracle, across engines, policies
//! and k values.

use gluon_suite::algos::{driver, reference, DistConfig, EngineKind};
use gluon_suite::graph::{gen, Csr};
use gluon_suite::partition::Policy;
use gluon_suite::substrate::OptLevel;

fn check_kcore(graph: &Csr, k: u32, cfg: &DistConfig) {
    let out = driver::Run::kcore(graph, k).config(cfg).launch();
    let core = reference::kcore(graph);
    for (v, (&alive, &core_num)) in out.int_labels.iter().zip(&core).enumerate() {
        let expect = u32::from(core_num >= k);
        assert_eq!(alive, expect, "node {v} (core {core_num}, k {k}) {cfg:?}");
    }
}

#[test]
fn kcore_matches_oracle_on_rmat() {
    let g = gen::rmat(8, 8, Default::default(), 61);
    for k in [1, 2, 4, 8, 16] {
        check_kcore(&g, k, &DistConfig::new(4));
    }
}

#[test]
fn kcore_across_engines_and_policies() {
    let g = gen::twitter_like(1_500, 10, 62);
    for engine in EngineKind::ALL {
        for policy in [Policy::Oec, Policy::Cvc, Policy::Hvc] {
            check_kcore(
                &g,
                3,
                &DistConfig {
                    hosts: 3,
                    policy,
                    opts: OptLevel::OSTI,
                    engine,
                },
            );
        }
    }
}

#[test]
fn kcore_across_opt_levels() {
    let g = gen::rmat(7, 6, Default::default(), 63);
    for opts in OptLevel::ALL {
        check_kcore(
            &g,
            2,
            &DistConfig {
                hosts: 4,
                policy: Policy::Cvc,
                opts,
                engine: EngineKind::Galois,
            },
        );
    }
}

#[test]
fn kcore_extremes() {
    let g = gen::complete(8);
    // Complete graph on 8 nodes: everyone has undirected degree 7.
    let all = driver::Run::kcore(&g, 7)
        .config(&DistConfig::new(2))
        .launch();
    assert!(all.int_labels.iter().all(|&a| a == 1));
    let none = driver::Run::kcore(&g, 8)
        .config(&DistConfig::new(2))
        .launch();
    assert!(none.int_labels.iter().all(|&a| a == 0));
    // k = 0 keeps everything, including isolated nodes.
    let iso = Csr::empty(5);
    let keep = driver::Run::kcore(&iso, 0)
        .config(&DistConfig::new(2))
        .launch();
    assert!(keep.int_labels.iter().all(|&a| a == 1));
}

/// FNV-1a over the little-endian bytes of every alive flag.
fn checksum(labels: &[u32]) -> u64 {
    labels
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Recorded before the three engine arms of the trim push were collapsed
/// into one call: `(policy, alive-flag checksum, rounds, sync bytes, sync
/// messages, the worst host's metered work units)`, which every engine and
/// thread count must reproduce.
const KCORE_RMAT9: [(Policy, u64, u32, u64, u64, u64); 2] = [
    (Policy::Cvc, 0x43a9_5b3b_0f14_8b34, 7, 3204, 48, 1091),
    (Policy::Oec, 0x43a9_5b3b_0f14_8b34, 7, 4162, 84, 1374),
];

/// rmat9 peeled to its 16-core: seven rounds, 47 of 512 nodes left.
#[test]
fn kcore_trim_sweep_matches_the_pre_collapse_record() {
    let g = gen::rmat(9, 8, Default::default(), 64);
    for (policy, sum, rounds, bytes, messages, work_units) in KCORE_RMAT9 {
        for engine in EngineKind::ALL {
            for threads in [1, 4] {
                let out = driver::Run::kcore(&g, 16)
                    .hosts(3)
                    .policy(policy)
                    .engine(engine)
                    .threads(threads)
                    .launch();
                let ctx = format!("{policy:?} / {engine} / {threads} threads");
                let got = checksum(&out.int_labels);
                assert_eq!(got, sum, "{ctx}: alive flags moved (got {got:#018x})");
                assert_eq!(out.rounds, rounds, "{ctx}: round count");
                assert_eq!(out.run.total_bytes, bytes, "{ctx}: wire bytes");
                assert_eq!(out.run.total_messages, messages, "{ctx}: messages");
                assert_eq!(out.run.max_work_units, work_units, "{ctx}: work units");
            }
        }
    }
}
