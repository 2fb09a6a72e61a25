//! Surviving a host crash mid-computation.
//!
//! Kills one of three simulated hosts partway through a pagerank run. Its
//! endpoint closes, which its peers see as a typed `PeerDown`; the
//! supervisor restores every host from the latest complete checkpoint
//! epoch, and deterministic replay lands on ranks bit-identical to the
//! crash-free run. Then a permanently dead host under `AbortClean`: a
//! typed error, no restart.
//!
//! Run with: `cargo run --release --example crash_recovery`

use gluon_suite::algos::{Algorithm, DistConfig, FailurePolicy, Run};
use gluon_suite::graph::gen;
use gluon_suite::net::{CrashRule, FaultCounters, FaultPlan, FaultyTransport};
use std::time::Instant;

fn main() {
    let graph = gen::rmat(10, 8, Default::default(), 7);
    let cfg = DistConfig::new(3);

    // Crash-free baseline.
    let clean = Run::new(&graph, Algorithm::Pagerank).config(&cfg).launch();
    println!(
        "crash-free: {} iterations, rank[0] = {:.6e}",
        clean.rounds, clean.ranks[0]
    );

    // Kill host 1 at sync round 20 (first attempt only); checkpoint every
    // 2 iterations; recover.
    let counters = FaultCounters::new();
    let shared = counters.clone();
    let plan = FaultPlan::none(7).with_crash(CrashRule::at(1, 20));
    let started = Instant::now();
    let out = Run::new(&graph, Algorithm::Pagerank)
        .config(&cfg)
        .checkpoint_every(2)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), shared.clone())
        })
        .try_launch()
        .expect("a single crash with checkpoints must recover");
    let identical = out
        .ranks
        .iter()
        .zip(&clean.ranks)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "recovered:  {} iterations after {} crash(es) and {} recovery(ies) \
         in {:.0?} — bit-identical: {}",
        out.rounds,
        counters.crashed(),
        out.recoveries,
        started.elapsed(),
        identical
    );

    // The same crash, pinned to every attempt, under AbortClean: the first
    // detected failure ends the run with a typed error.
    let plan = FaultPlan::none(7).with_crash(CrashRule::at(1, 20).every_attempt());
    let started = Instant::now();
    let err = Run::new(&graph, Algorithm::Pagerank)
        .config(&cfg)
        .checkpoint_every(2)
        .on_failure(FailurePolicy::AbortClean)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), FaultCounters::new())
        })
        .try_launch()
        .expect_err("AbortClean must surface the failure");
    println!("abort-clean: error after {:.0?}: {err}", started.elapsed());
}
