//! Golden pagerank results, recorded at the commit *before* the pull
//! kernel was rewritten to gather a precomputed per-source quotient
//! (`outgoing[u] = rank[u] / max(gdeg[u], 1)`) through raw in-source
//! slices. The rewrite adds the identical quotient in the identical
//! in-edge order, so ranks (bit for bit), iteration counts, wire traffic
//! and the sequential work meter must all stay where they were — for every
//! policy, engine, host count and thread count.

use gluon_suite::algos::driver::{DistOutcome, Run};
use gluon_suite::algos::{Algorithm, EngineKind};
use gluon_suite::graph::{gen, Csr, RmatProbs};
use gluon_suite::partition::Policy;

const ENGINES: [EngineKind; 3] = [EngineKind::Galois, EngineKind::Ligra, EngineKind::Irgl];
const THREADS: [usize; 2] = [1, 4];

/// FNV-1a over the little-endian bytes of every rank's bit pattern.
fn rank_checksum(ranks: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in ranks {
        for b in r.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one (policy, hosts) cell must reproduce under every engine and
/// thread count: `(policy, hosts, rank checksum, iterations, sync bytes,
/// sync messages, the worst host's metered work units)`.
type Golden = (Policy, usize, u64, u32, u64, u64, u64);

fn launch(
    g: &Csr,
    policy: Policy,
    hosts: usize,
    engine: EngineKind,
    threads: usize,
) -> DistOutcome {
    Run::new(g, Algorithm::Pagerank)
        .hosts(hosts)
        .policy(policy)
        .engine(engine)
        .threads(threads)
        .launch()
}

fn check(g: &Csr, golden: &[Golden]) {
    for &(policy, hosts, ranks, rounds, bytes, messages, work_units) in golden {
        for engine in ENGINES {
            for threads in THREADS {
                let out = launch(g, policy, hosts, engine, threads);
                let ctx = format!("{policy:?} / {hosts} hosts / {engine} / {threads} threads");
                let got = rank_checksum(&out.ranks);
                assert_eq!(got, ranks, "{ctx}: rank bits moved (got {got:#018x})");
                assert_eq!(out.rounds, rounds, "{ctx}: iteration count");
                assert_eq!(out.run.total_bytes, bytes, "{ctx}: wire bytes");
                assert_eq!(out.run.total_messages, messages, "{ctx}: messages");
                assert_eq!(out.run.max_work_units, work_units, "{ctx}: work units");
            }
        }
    }
}

#[test]
fn rmat10_pagerank_matches_the_pre_rewrite_record() {
    let g = gen::rmat(10, 16, RmatProbs::GRAPH500, 28);
    check(&g, &RMAT10);
}

/// Seven vertices built to hit the kernel's two special cases on every
/// partitioning: vertex 4 is a sink (global out-degree 0, so its quotient
/// divides by `max(0, 1)`), vertex 3 has no in-edge anywhere (its `contrib`
/// is never written and must read as zero), vertex 6 is isolated (both).
fn corner_graph() -> Csr {
    Csr::from_edge_list(
        7,
        &[
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 0),
            (2, 4),
            (3, 0),
            (3, 5),
            (5, 4),
            (5, 1),
        ],
    )
}

#[test]
fn sinks_and_sourceless_vertices_match_the_pre_rewrite_record() {
    check(&corner_graph(), &CORNERS);
}

#[rustfmt::skip]
const RMAT10: [Golden; 9] = [
    (Policy::Oec, 1, 0x522d_04fd_9521_ceb3, 52, 0, 0, 851_968),
    (Policy::Oec, 2, 0x0c0c_9393_21d0_d986, 52, 299_624, 104, 446_784),
    (Policy::Oec, 3, 0x1410_6de6_eddc_c8ad, 52, 541_944, 312, 303_420),
    (Policy::Iec, 1, 0x522d_04fd_9521_ceb3, 52, 0, 0, 851_968),
    (Policy::Iec, 2, 0xfc3a_a7db_28e4_268e, 52, 283_423, 108, 444_652),
    (Policy::Iec, 3, 0x3dcd_073a_51c7_4487, 52, 511_446, 324, 303_940),
    (Policy::Cvc, 1, 0x522d_04fd_9521_ceb3, 52, 0, 0, 851_968),
    (Policy::Cvc, 2, 0x4a46_dce2_883b_3ce1, 52, 282_967, 108, 438_308),
    (Policy::Cvc, 3, 0xbe31_1efd_ccd9_c141, 52, 511_870, 324, 303_940),
];

#[rustfmt::skip]
const CORNERS: [Golden; 9] = [
    (Policy::Oec, 1, 0x0ce7_ef72_4510_3b80, 29, 0, 0, 261),
    (Policy::Oec, 2, 0x0ce7_ef72_4510_3b80, 29, 749, 58, 145),
    (Policy::Oec, 3, 0x0ce7_ef72_4510_3b80, 29, 1_305, 145, 145),
    (Policy::Iec, 1, 0x0ce7_ef72_4510_3b80, 29, 0, 0, 261),
    (Policy::Iec, 2, 0x0ce7_ef72_4510_3b80, 29, 333, 62, 174),
    (Policy::Iec, 3, 0x0ce7_ef72_4510_3b80, 29, 941, 155, 116),
    (Policy::Cvc, 1, 0x0ce7_ef72_4510_3b80, 29, 0, 0, 261),
    (Policy::Cvc, 2, 0x0ce7_ef72_4510_3b80, 29, 333, 62, 174),
    (Policy::Cvc, 3, 0x0ce7_ef72_4510_3b80, 29, 1_143, 124, 116),
];
