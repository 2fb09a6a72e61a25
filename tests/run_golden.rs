//! Golden run results: values recorded at the commit *before* a second
//! production path was retired, which the one remaining path must keep
//! reproducing — results (bit for bit), round counts, wire traffic and the
//! sequential work meter, at every thread count.
//!
//! * `RMAT10` / `CORNERS`: pagerank before the pull kernel was rewritten
//!   to gather a precomputed per-source quotient
//!   (`outgoing[u] = rank[u] / max(gdeg[u], 1)`) through raw in-source
//!   slices. The rewrite adds the identical quotient in the identical
//!   in-edge order, for every policy, engine and host count.
//! * `BARRIER`: the four benchmarks under the *barrier* sync schedule
//!   (send every peer, then receive and apply peer by peer in rank
//!   order), recorded from the barrier side of the differential battery
//!   that compared it with today's schedule, just before the barrier
//!   schedule was deleted. Sends that overlap eager decodes, with only
//!   the apply held to rank order, must land on the same values — also
//!   under reshuffled arrivals and across a crash recovery.
//! * `MINRELAX` / `DETOUR`: bfs, sssp and cc before the three engine arms
//!   of `minrelax` were rewritten around one raw-slice scatter kernel (the
//!   candidate hoisted out of the edge loop on unweighted graphs, proxies
//!   without a local out-edge kept out of the Galois sub-round frontier)
//!   and the bins' activation list became a bitmap drain. Labels, rounds,
//!   wire traffic and metered work per (algorithm, engine, policy, hosts)
//!   must not move.
//! * `GRID`: bfs on a grid at two and at eight hosts, recorded before the
//!   in-memory transport's receive learned to poll, yielding its core,
//!   ahead of parking; eight hosts oversubscribe any box the suite runs on.

use gluon_suite::algos::driver::{DistOutcome, Run};
use gluon_suite::algos::{Algorithm, EngineKind};
use gluon_suite::graph::{gen, with_random_weights, Csr, RmatProbs};
use gluon_suite::net::{
    CrashRule, FaultCounters, FaultPlan, FaultyTransport, JitterTransport, Transport,
};
use gluon_suite::partition::Policy;

const ENGINES: [EngineKind; 3] = [EngineKind::Galois, EngineKind::Ligra, EngineKind::Irgl];
const THREADS: [usize; 2] = [1, 4];

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The run's result as one number: FNV-1a over the little-endian bytes of
/// every rank's bit pattern (pagerank) or of every integer label.
fn result_checksum(algo: Algorithm, out: &DistOutcome) -> u64 {
    if algo == Algorithm::Pagerank {
        fnv1a(out.ranks.iter().flat_map(|r| r.to_bits().to_le_bytes()))
    } else {
        fnv1a(out.int_labels.iter().flat_map(|l| l.to_le_bytes()))
    }
}

/// What one (policy, hosts) cell must reproduce under every listed engine
/// and thread count: `(policy, hosts, result checksum, rounds, sync bytes,
/// sync messages, the worst host's metered work units)`.
type Golden = (Policy, usize, u64, u32, u64, u64, u64);

fn launch(
    g: &Csr,
    algo: Algorithm,
    policy: Policy,
    hosts: usize,
    engine: EngineKind,
    threads: usize,
) -> DistOutcome {
    Run::new(g, algo)
        .hosts(hosts)
        .policy(policy)
        .engine(engine)
        .threads(threads)
        .launch()
}

fn check(g: &Csr, algo: Algorithm, engines: &[EngineKind], golden: &[Golden]) {
    for &(policy, hosts, result, rounds, bytes, messages, work_units) in golden {
        for &engine in engines {
            for threads in THREADS {
                let out = launch(g, algo, policy, hosts, engine, threads);
                let ctx =
                    format!("{algo} / {policy:?} / {hosts} hosts / {engine} / {threads} threads");
                let got = result_checksum(algo, &out);
                assert_eq!(got, result, "{ctx}: result bits moved (got {got:#018x})");
                assert_eq!(out.rounds, rounds, "{ctx}: round count");
                assert_eq!(out.run.total_bytes, bytes, "{ctx}: wire bytes");
                assert_eq!(out.run.total_messages, messages, "{ctx}: messages");
                assert_eq!(out.run.max_work_units, work_units, "{ctx}: work units");
            }
        }
    }
}

/// [`check`] for a table with one engine per row: every row of `rows`
/// for `algo`, on `graph_of(algo)`.
fn check_rows(
    rows: &[(Algorithm, EngineKind, Golden)],
    algo: Algorithm,
    graph_of: fn(Algorithm) -> Csr,
) {
    let g = graph_of(algo);
    for &(_, engine, golden) in rows.iter().filter(|row| row.0 == algo) {
        check(&g, algo, &[engine], &[golden]);
    }
}

#[test]
fn rmat10_pagerank_matches_the_pre_rewrite_record() {
    let g = gen::rmat(10, 16, RmatProbs::GRAPH500, 28);
    check(&g, Algorithm::Pagerank, &ENGINES, &RMAT10);
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
    check(&corner_graph(), Algorithm::Pagerank, &ENGINES, &CORNERS);
}

/// The input of the `BARRIER` rows: rmat7, with random weights for sssp.
fn barrier_graph(algo: Algorithm) -> Csr {
    let g = gen::rmat(7, 8, Default::default(), 42);
    if algo == Algorithm::Sssp {
        with_random_weights(&g, 50, 9)
    } else {
        g
    }
}

fn check_barrier_rows(algo: Algorithm) {
    check_rows(&BARRIER, algo, barrier_graph);
}

#[test]
fn bfs_matches_the_barrier_schedule_record() {
    check_barrier_rows(Algorithm::Bfs);
}

#[test]
fn sssp_matches_the_barrier_schedule_record() {
    check_barrier_rows(Algorithm::Sssp);
}

#[test]
fn cc_matches_the_barrier_schedule_record() {
    check_barrier_rows(Algorithm::Cc);
}

#[test]
fn pagerank_matches_the_barrier_schedule_record() {
    check_barrier_rows(Algorithm::Pagerank);
}

/// The input of the `MINRELAX` rows: rmat10, with random weights for sssp
/// (so sssp walks the weighted branch of the kernel, bfs and cc the
/// unweighted one).
fn minrelax_graph(algo: Algorithm) -> Csr {
    let g = gen::rmat(10, 16, RmatProbs::GRAPH500, 28);
    if algo == Algorithm::Sssp {
        with_random_weights(&g, 50, 9)
    } else {
        g
    }
}

/// Twelve vertices built so that, from source 0 (the largest out-degree),
/// every partitioning puts the kernel's special cases in a frontier:
///
/// * vertex 3 is first reached over the local-looking path 0→1→2→3 and
///   later lowered through 0→9→3, vertex 10 first over 6→7→8→10 and later
///   through 6→4→10 — one detour runs from low ids through a high one, the
///   other from high ids through a low one, so whichever way a policy cuts
///   the id space one of the short paths crosses hosts (on the weighted
///   copy the long paths are also the heavy ones: 6 against 4, 5 against 3);
/// * vertices 5 and 11 are isolated;
/// * mirrors (OEC) and masters whose out-edges all live elsewhere (IEC,
///   CVC) are activated with no local out-edge to sweep.
///
/// An instrumented build of the rewritten kernel confirmed on all eighteen
/// (algorithm, policy, hosts) cells that the Galois frontier filter drops
/// a member, and on all twelve bfs and sssp cells that a label lowered in
/// one round is lowered again in a later one (EXPERIMENTS.md, "Record:
/// PR 22").
fn detour_graph(algo: Algorithm) -> Csr {
    let edges = [
        (0, 1, 1),
        (1, 2, 1),
        (2, 3, 4),
        (0, 9, 2),
        (9, 3, 2),
        (0, 6, 1),
        (6, 7, 1),
        (7, 8, 1),
        (8, 10, 3),
        (6, 4, 1),
        (4, 10, 2),
        (3, 2, 1),
        (10, 0, 1),
    ];
    if algo == Algorithm::Sssp {
        Csr::from_weighted_edge_list(12, &edges)
    } else {
        Csr::from_edge_list(12, &edges.map(|(src, dst, _)| (src, dst)))
    }
}

#[test]
fn bfs_matches_the_pre_kernel_record() {
    check_rows(&MINRELAX, Algorithm::Bfs, minrelax_graph);
}

#[test]
fn sssp_matches_the_pre_kernel_record() {
    check_rows(&MINRELAX, Algorithm::Sssp, minrelax_graph);
}

#[test]
fn cc_matches_the_pre_kernel_record() {
    check_rows(&MINRELAX, Algorithm::Cc, minrelax_graph);
}

#[test]
fn detours_isolated_vertices_and_edgeless_proxies_match_the_pre_kernel_record() {
    for algo in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Cc] {
        check_rows(&DETOUR, algo, detour_graph);
    }
}

/// Eight hosts on a box with two cores: a receive that finds nothing must
/// hand its core to the host it waits for, or the run crawls. A 64×64 grid is 127 rounds of a few frontier
/// members each, so the run is nothing but hand-offs; the level-synchronous
/// Ligra arm makes labels and rounds independent of the host count.
#[test]
fn oversubscribed_grid_bfs_matches_the_two_host_record() {
    let [two, eight] = GRID;
    assert_eq!((two.2, two.3), (eight.2, eight.3), "labels and rounds");
    check(
        &gen::grid(64, 64),
        Algorithm::Bfs,
        &[EngineKind::Ligra],
        &GRID,
    );
}

/// Results-only identity for runs whose wire totals legitimately differ
/// from the clean run (replayed rounds after crash recovery).
fn assert_same_results(out: &DistOutcome, clean: &DistOutcome, ctx: &str) {
    assert_eq!(out.rounds, clean.rounds, "{ctx}: round count diverged");
    assert_eq!(
        out.int_labels, clean.int_labels,
        "{ctx}: integer labels diverged"
    );
}

/// Chaos spot-check: a jittered wire holds sends back and releases them
/// out of order across streams, reshuffling every arrival order the eager
/// decode sees — the run must still land exactly on the clean results.
#[test]
fn chaos_run_matches_the_clean_run() {
    let g = barrier_graph(Algorithm::Bfs);
    let clean = launch(&g, Algorithm::Bfs, Policy::Cvc, 3, EngineKind::Galois, 1);
    for seed in [11u64, 1213] {
        let chaotic = Run::new(&g, Algorithm::Bfs)
            .hosts(3)
            .policy(Policy::Cvc)
            .engine(EngineKind::Galois)
            .threads(4)
            .transport(move |ep| {
                let salt = ep.rank() as u64;
                JitterTransport::new(ep, seed ^ salt)
            })
            .launch();
        assert_same_results(&chaotic, &clean, &format!("chaos seed {seed}"));
    }
}

/// Crash-recovery spot-check: a host dies mid-run, the supervisor
/// restores from the latest checkpoint epoch, and the final labels are
/// bit-identical to the crash-free run.
#[test]
fn crash_recovery_matches_the_clean_run() {
    let g = barrier_graph(Algorithm::Bfs);
    let clean = launch(&g, Algorithm::Bfs, Policy::Oec, 3, EngineKind::Ligra, 1);
    let counters = FaultCounters::new();
    let shared = counters.clone();
    let plan = FaultPlan::none(77).with_crash(CrashRule::at(1, 3));
    let out = Run::new(&g, Algorithm::Bfs)
        .hosts(3)
        .policy(Policy::Oec)
        .engine(EngineKind::Ligra)
        .checkpoint_every(2)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), shared.clone())
        })
        .try_launch()
        .expect("supervised run must recover");
    assert!(counters.crashed() >= 1, "the crash never fired");
    assert!(out.recoveries >= 1, "result came without recovery");
    assert!(!out.degraded, "full recovery must not be degraded");
    assert_same_results(&out, &clean, "crash recovery");
}

#[rustfmt::skip]
const GRID: [Golden; 2] = [
    (Policy::Oec, 2, 0x7c9e_b672_11f2_5525, 127, 506, 127, 6_069),
    (Policy::Oec, 8, 0x7c9e_b672_11f2_5525, 127, 3_542, 889, 1_977),
];

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

#[rustfmt::skip]
const BARRIER: [(Algorithm, EngineKind, Golden); 12] = [
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 3, 0xa0aa_3903_fe20_7837, 4, 594, 24, 763)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 3, 0xa0aa_3903_fe20_7837, 3, 582, 18, 487)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 3, 0xa0aa_3903_fe20_7837, 3, 590, 18, 465)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 3, 0x4f25_8d77_6541_860a, 5, 762, 30, 1_057)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 3, 0x4f25_8d77_6541_860a, 5, 1_011, 30, 737)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 3, 0x4f25_8d77_6541_860a, 5, 1_021, 30, 731)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 3, 0x192a_e206_cd07_28d5, 3, 619, 18, 1_282)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 3, 0x192a_e206_cd07_28d5, 3, 691, 18, 1_332)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 3, 0x192a_e206_cd07_28d5, 3, 691, 18, 1_332)),
    (Algorithm::Pagerank, EngineKind::Galois, (Policy::Oec, 3, 0xc0e4_458b_3336_aadb, 53, 66_462, 318, 22_154)),
    (Algorithm::Pagerank, EngineKind::Galois, (Policy::Iec, 3, 0x8b34_a70e_f4f2_3dbc, 53, 60_174, 330, 20_776)),
    (Algorithm::Pagerank, EngineKind::Galois, (Policy::Cvc, 3, 0xc43e_f703_1a19_ce06, 53, 60_658, 330, 19_610)),
];

#[rustfmt::skip]
const MINRELAX: [(Algorithm, EngineKind, Golden); 81] = [
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 1, 0xb599_7de0_2540_6092, 2, 0, 0, 31_454)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 2, 0xb599_7de0_2540_6092, 4, 2_895, 8, 16_399)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 3, 0xb599_7de0_2540_6092, 4, 4_985, 24, 11_546)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 1, 0xb599_7de0_2540_6092, 2, 0, 0, 31_454)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 2, 0xb599_7de0_2540_6092, 4, 2_812, 8, 12_227)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 3, 0xb599_7de0_2540_6092, 4, 5_062, 24, 7_628)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 1, 0xb599_7de0_2540_6092, 2, 0, 0, 31_454)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 2, 0xb599_7de0_2540_6092, 4, 2_811, 8, 12_020)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 3, 0xb599_7de0_2540_6092, 4, 5_067, 24, 7_539)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Oec, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 49_161)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Oec, 2, 0xb599_7de0_2540_6092, 4, 545, 8, 24_985)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Oec, 3, 0xb599_7de0_2540_6092, 4, 723, 24, 17_192)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Iec, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 49_161)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Iec, 2, 0xb599_7de0_2540_6092, 4, 613, 8, 25_658)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Iec, 3, 0xb599_7de0_2540_6092, 4, 1_153, 24, 17_539)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Cvc, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 49_161)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Cvc, 2, 0xb599_7de0_2540_6092, 4, 608, 8, 25_292)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Cvc, 3, 0xb599_7de0_2540_6092, 4, 1_151, 24, 17_539)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Oec, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 16_232)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Oec, 2, 0xb599_7de0_2540_6092, 4, 545, 8, 10_221)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Oec, 3, 0xb599_7de0_2540_6092, 4, 723, 24, 7_235)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Iec, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 16_232)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Iec, 2, 0xb599_7de0_2540_6092, 4, 613, 8, 8_465)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Iec, 3, 0xb599_7de0_2540_6092, 4, 1_153, 24, 5_785)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Cvc, 1, 0xb599_7de0_2540_6092, 4, 0, 0, 16_232)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Cvc, 2, 0xb599_7de0_2540_6092, 4, 608, 8, 8_355)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Cvc, 3, 0xb599_7de0_2540_6092, 4, 1_151, 24, 5_792)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 1, 0xf42c_371d_e0c1_4a63, 2, 0, 0, 43_052)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 2, 0xf42c_371d_e0c1_4a63, 5, 3_316, 10, 26_297)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 3, 0xf42c_371d_e0c1_4a63, 6, 6_656, 36, 17_831)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 1, 0xf42c_371d_e0c1_4a63, 2, 0, 0, 43_052)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 2, 0xf42c_371d_e0c1_4a63, 5, 4_395, 10, 19_458)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 3, 0xf42c_371d_e0c1_4a63, 6, 8_936, 36, 12_512)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 1, 0xf42c_371d_e0c1_4a63, 2, 0, 0, 43_052)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 2, 0xf42c_371d_e0c1_4a63, 5, 4_406, 10, 19_397)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 3, 0xf42c_371d_e0c1_4a63, 6, 8_929, 36, 12_241)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Oec, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 66_285)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Oec, 2, 0xf42c_371d_e0c1_4a63, 7, 5_180, 14, 42_208)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Oec, 3, 0xf42c_371d_e0c1_4a63, 7, 9_546, 42, 28_411)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Iec, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 66_285)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Iec, 2, 0xf42c_371d_e0c1_4a63, 7, 5_211, 14, 42_790)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Iec, 3, 0xf42c_371d_e0c1_4a63, 7, 9_486, 42, 29_247)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Cvc, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 66_285)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Cvc, 2, 0xf42c_371d_e0c1_4a63, 7, 5_198, 14, 42_180)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Cvc, 3, 0xf42c_371d_e0c1_4a63, 7, 9_491, 42, 29_249)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Oec, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 27_830)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Oec, 2, 0xf42c_371d_e0c1_4a63, 7, 5_180, 14, 15_939)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Oec, 3, 0xf42c_371d_e0c1_4a63, 7, 9_546, 42, 11_310)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Iec, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 27_830)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Iec, 2, 0xf42c_371d_e0c1_4a63, 7, 5_211, 14, 14_562)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Iec, 3, 0xf42c_371d_e0c1_4a63, 7, 9_486, 42, 9_983)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Cvc, 1, 0xf42c_371d_e0c1_4a63, 7, 0, 0, 27_830)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Cvc, 2, 0xf42c_371d_e0c1_4a63, 7, 5_198, 14, 14_366)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Cvc, 3, 0xf42c_371d_e0c1_4a63, 7, 9_491, 42, 9_992)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Oec, 1, 0x262e_992c_ddbc_46bf, 2, 0, 0, 64_541)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Oec, 2, 0x262e_992c_ddbc_46bf, 3, 22, 6, 34_749)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Oec, 3, 0x262e_992c_ddbc_46bf, 4, 1_670, 24, 29_639)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Iec, 1, 0x262e_992c_ddbc_46bf, 2, 0, 0, 64_541)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Iec, 2, 0x262e_992c_ddbc_46bf, 3, 2_515, 6, 26_834)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Iec, 3, 0x262e_992c_ddbc_46bf, 3, 5_622, 18, 17_038)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Cvc, 1, 0x262e_992c_ddbc_46bf, 2, 0, 0, 64_541)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Cvc, 2, 0x262e_992c_ddbc_46bf, 3, 2_569, 6, 26_520)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Cvc, 3, 0x262e_992c_ddbc_46bf, 3, 5_631, 18, 16_930)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 63_191)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 2, 0x262e_992c_ddbc_46bf, 4, 3_640, 8, 32_383)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 3, 0x262e_992c_ddbc_46bf, 4, 8_753, 24, 21_615)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 63_191)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 2, 0x262e_992c_ddbc_46bf, 4, 4_634, 8, 32_382)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 3, 0x262e_992c_ddbc_46bf, 4, 8_433, 24, 21_806)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 63_191)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 2, 0x262e_992c_ddbc_46bf, 4, 4_661, 8, 32_067)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 3, 0x262e_992c_ddbc_46bf, 4, 8_416, 24, 21_476)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Oec, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 43_960)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Oec, 2, 0x262e_992c_ddbc_46bf, 4, 3_640, 8, 22_829)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Oec, 3, 0x262e_992c_ddbc_46bf, 4, 8_753, 24, 15_674)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Iec, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 43_960)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Iec, 2, 0x262e_992c_ddbc_46bf, 4, 4_634, 8, 22_712)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Iec, 3, 0x262e_992c_ddbc_46bf, 4, 8_433, 24, 15_378)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Cvc, 1, 0x262e_992c_ddbc_46bf, 4, 0, 0, 43_960)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Cvc, 2, 0x262e_992c_ddbc_46bf, 4, 4_661, 8, 22_505)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Cvc, 3, 0x262e_992c_ddbc_46bf, 4, 8_416, 24, 15_154)),
];

#[rustfmt::skip]
const DETOUR: [(Algorithm, EngineKind, Golden); 54] = [
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 2, 0xa4b8_05f5_8281_d85c, 4, 27, 8, 16)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Oec, 3, 0xa4b8_05f5_8281_d85c, 3, 32, 12, 12)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 2, 0xa4b8_05f5_8281_d85c, 4, 30, 8, 14)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Iec, 3, 0xa4b8_05f5_8281_d85c, 3, 30, 12, 11)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 2, 0xa4b8_05f5_8281_d85c, 4, 30, 8, 14)),
    (Algorithm::Bfs, EngineKind::Galois, (Policy::Cvc, 3, 0xa4b8_05f5_8281_d85c, 3, 29, 12, 11)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Oec, 2, 0xa4b8_05f5_8281_d85c, 4, 27, 8, 27)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Oec, 3, 0xa4b8_05f5_8281_d85c, 4, 36, 16, 21)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Iec, 2, 0xa4b8_05f5_8281_d85c, 4, 25, 8, 28)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Iec, 3, 0xa4b8_05f5_8281_d85c, 4, 36, 16, 24)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Cvc, 2, 0xa4b8_05f5_8281_d85c, 4, 25, 8, 28)),
    (Algorithm::Bfs, EngineKind::Ligra, (Policy::Cvc, 3, 0xa4b8_05f5_8281_d85c, 4, 33, 16, 24)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Oec, 2, 0xa4b8_05f5_8281_d85c, 4, 27, 8, 11)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Oec, 3, 0xa4b8_05f5_8281_d85c, 4, 36, 16, 9)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Iec, 2, 0xa4b8_05f5_8281_d85c, 4, 25, 8, 8)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Iec, 3, 0xa4b8_05f5_8281_d85c, 4, 36, 16, 6)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Cvc, 2, 0xa4b8_05f5_8281_d85c, 4, 25, 8, 8)),
    (Algorithm::Bfs, EngineKind::Irgl, (Policy::Cvc, 3, 0xa4b8_05f5_8281_d85c, 4, 33, 16, 6)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 2, 0x33f1_d52d_8d17_5506, 4, 31, 8, 16)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Oec, 3, 0x33f1_d52d_8d17_5506, 3, 33, 12, 12)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 2, 0x33f1_d52d_8d17_5506, 4, 30, 8, 14)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Iec, 3, 0x33f1_d52d_8d17_5506, 3, 30, 12, 11)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 2, 0x33f1_d52d_8d17_5506, 4, 30, 8, 14)),
    (Algorithm::Sssp, EngineKind::Galois, (Policy::Cvc, 3, 0x33f1_d52d_8d17_5506, 3, 29, 12, 11)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Oec, 2, 0x33f1_d52d_8d17_5506, 4, 31, 8, 27)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Oec, 3, 0x33f1_d52d_8d17_5506, 4, 37, 16, 21)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Iec, 2, 0x33f1_d52d_8d17_5506, 4, 27, 8, 28)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Iec, 3, 0x33f1_d52d_8d17_5506, 4, 36, 16, 24)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Cvc, 2, 0x33f1_d52d_8d17_5506, 4, 27, 8, 28)),
    (Algorithm::Sssp, EngineKind::Ligra, (Policy::Cvc, 3, 0x33f1_d52d_8d17_5506, 4, 33, 16, 24)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Oec, 2, 0x33f1_d52d_8d17_5506, 4, 31, 8, 11)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Oec, 3, 0x33f1_d52d_8d17_5506, 4, 37, 16, 9)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Iec, 2, 0x33f1_d52d_8d17_5506, 4, 27, 8, 8)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Iec, 3, 0x33f1_d52d_8d17_5506, 4, 36, 16, 6)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Cvc, 2, 0x33f1_d52d_8d17_5506, 4, 27, 8, 8)),
    (Algorithm::Sssp, EngineKind::Irgl, (Policy::Cvc, 3, 0x33f1_d52d_8d17_5506, 4, 33, 16, 6)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Oec, 2, 0xce9d_e18a_ef2e_006b, 3, 20, 6, 47)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Oec, 3, 0xce9d_e18a_ef2e_006b, 3, 55, 18, 35)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Iec, 2, 0xce9d_e18a_ef2e_006b, 3, 23, 6, 35)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Iec, 3, 0xce9d_e18a_ef2e_006b, 2, 42, 12, 28)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Cvc, 2, 0xce9d_e18a_ef2e_006b, 3, 23, 6, 35)),
    (Algorithm::Cc, EngineKind::Galois, (Policy::Cvc, 3, 0xce9d_e18a_ef2e_006b, 2, 42, 12, 28)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 2, 0xce9d_e18a_ef2e_006b, 3, 20, 6, 36)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Oec, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 30)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 2, 0xce9d_e18a_ef2e_006b, 3, 25, 6, 36)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Iec, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 30)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 2, 0xce9d_e18a_ef2e_006b, 3, 25, 6, 36)),
    (Algorithm::Cc, EngineKind::Ligra, (Policy::Cvc, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 30)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Oec, 2, 0xce9d_e18a_ef2e_006b, 3, 20, 6, 30)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Oec, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 21)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Iec, 2, 0xce9d_e18a_ef2e_006b, 3, 25, 6, 30)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Iec, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 23)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Cvc, 2, 0xce9d_e18a_ef2e_006b, 3, 25, 6, 30)),
    (Algorithm::Cc, EngineKind::Irgl, (Policy::Cvc, 3, 0xce9d_e18a_ef2e_006b, 3, 64, 18, 23)),
];
