//! The determinism contract of the intra-host parallel runtime: running
//! any benchmark with any thread count produces results *bit-identical* to
//! the single-threaded run — labels, pagerank ranks (compared bitwise),
//! round counts, and every wire-traffic counter. The pool chunks work on
//! fixed boundaries and combines per-chunk candidates in order, so thread
//! scheduling can never leak into results or into what goes on the wire.

use gluon_suite::algos::driver::{DistOutcome, Run};
use gluon_suite::algos::{Algorithm, DistConfig, EngineKind};
use gluon_suite::graph::{gen, with_random_weights, Csr};
use gluon_suite::net::{JitterTransport, Transport};
use gluon_suite::partition::Policy;
use gluon_suite::substrate::OptLevel;

const HOSTS: usize = 3;
const THREADS: [usize; 4] = [1, 2, 5, 8];
const POLICIES: [Policy; 2] = [Policy::Oec, Policy::Cvc];

fn matrix_graph(algo: Algorithm) -> Csr {
    let g = gen::rmat(12, 8, Default::default(), 77);
    if algo == Algorithm::Sssp {
        with_random_weights(&g, 13, 9)
    } else {
        g
    }
}

fn launch(g: &Csr, algo: Algorithm, cfg: &DistConfig, threads: usize) -> DistOutcome {
    Run::new(g, algo).config(cfg).threads(threads).launch()
}

/// Every observable of `out` that the determinism contract covers must
/// equal `baseline`'s, bit for bit.
fn assert_identical(out: &DistOutcome, baseline: &DistOutcome, ctx: &str) {
    assert_eq!(out.rounds, baseline.rounds, "{ctx}: round count diverged");
    assert_eq!(
        out.int_labels, baseline.int_labels,
        "{ctx}: integer labels diverged"
    );
    let got: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
    let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
    assert_eq!(got, want, "{ctx}: ranks diverged (bitwise)");
    assert_eq!(
        out.run.total_bytes, baseline.run.total_bytes,
        "{ctx}: wire bytes diverged"
    );
    assert_eq!(
        out.run.total_messages, baseline.run.total_messages,
        "{ctx}: message count diverged"
    );
    assert_eq!(
        out.run.max_work_units, baseline.run.max_work_units,
        "{ctx}: sequential work accounting diverged"
    );
}

fn check_thread_matrix(algo: Algorithm, engine: EngineKind) {
    let g = matrix_graph(algo);
    for policy in POLICIES {
        let cfg = DistConfig {
            hosts: HOSTS,
            policy,
            opts: OptLevel::OSTI,
            engine,
        };
        let baseline = launch(&g, algo, &cfg, 1);
        assert!(baseline.rounds > 0, "{algo} ran no rounds");
        for threads in THREADS {
            let out = launch(&g, algo, &cfg, threads);
            let ctx = format!("{algo} / {engine} / {policy:?} / {threads} threads");
            assert_identical(&out, &baseline, &ctx);
        }
    }
}

#[test]
fn bfs_is_thread_count_invariant() {
    check_thread_matrix(Algorithm::Bfs, EngineKind::Galois);
}

#[test]
fn sssp_is_thread_count_invariant() {
    check_thread_matrix(Algorithm::Sssp, EngineKind::Galois);
}

#[test]
fn pagerank_is_thread_count_invariant() {
    check_thread_matrix(Algorithm::Pagerank, EngineKind::Galois);
}

#[test]
fn cc_is_thread_count_invariant() {
    check_thread_matrix(Algorithm::Cc, EngineKind::Galois);
}

#[test]
fn every_engine_is_thread_count_invariant_on_bfs() {
    // The per-algorithm matrix above pins the Galois engine; the Ligra and
    // IrGL parallel paths (snapshot edgeMap and bulk kernels) get the same
    // treatment here on the cheapest benchmark.
    for engine in [EngineKind::Ligra, EngineKind::Irgl] {
        check_thread_matrix(Algorithm::Bfs, engine);
    }
}

#[test]
fn parallel_run_reports_speedup_without_changing_results() {
    // The pool's work meter must attribute a shorter critical path at
    // higher thread counts — that is the whole point — while the results
    // stay frozen. Single host: the intra-host scaling measurement with no
    // partition skew in the way (multi-host runs report the *worst* host,
    // which on a tiny graph can be one hub vertex).
    let g = matrix_graph(Algorithm::Pagerank);
    let cfg = DistConfig::new(1);
    let seq = launch(&g, Algorithm::Pagerank, &cfg, 1);
    let par = launch(&g, Algorithm::Pagerank, &cfg, 4);
    assert_identical(&par, &seq, "pagerank threads=4");
    assert!(
        (seq.run.parallel_speedup() - 1.0).abs() < 1e-9,
        "sequential run must report speedup 1.0, got {}",
        seq.run.parallel_speedup()
    );
    assert!(
        par.run.parallel_speedup() > 2.0,
        "4 threads must report > 2x measured speedup, got {:.2}",
        par.run.parallel_speedup()
    );
    assert!(
        par.run.max_crit_work_units < seq.run.max_crit_work_units,
        "critical path must shrink with threads"
    );
}

#[test]
fn chaos_run_with_threads_stays_bit_identical() {
    // Spot-check the full stack: a 4-thread run whose arrivals a jittered
    // wire reshuffles must still converge to the clean single-thread
    // results.
    let g = matrix_graph(Algorithm::Bfs);
    let cfg = DistConfig::new(HOSTS);
    let clean = launch(&g, Algorithm::Bfs, &cfg, 1);
    let chaotic = Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .threads(4)
        .transport(|ep| {
            let seed = 7 ^ ep.rank() as u64;
            JitterTransport::new(ep, seed)
        })
        .launch();
    assert_eq!(chaotic.rounds, clean.rounds, "chaos changed round count");
    assert_eq!(
        chaotic.int_labels, clean.int_labels,
        "chaos + threads changed results"
    );
}
