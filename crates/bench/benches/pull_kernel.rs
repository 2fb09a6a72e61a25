//! The two loops a pagerank trial spends its time in, on their own clock.
//!
//! * **Pull sweep** — one pagerank iteration on a single-host partition
//!   (no peers, so sync is a no-op): the per-proxy quotient fill, the
//!   gather-sum over in-source slices, the master apply. Reported as
//!   ns/edge and Medges/s at 1 and 4 pool threads. The floor is one
//!   sequential `u32` and one random `f64` read per edge.
//! * **All-dirty encode** — `encode_memoized_into` with every list entry
//!   updated and distinct `f64` values, which is what every pagerank sync
//!   and every dense-frontier sync hands the codec. Reported as ns/update;
//!   the floor is one gather of the values plus one copy into the payload.
//!
//! `-- --quick` swaps the rmat18 stand-in for rmat12 so CI can run the
//! whole file in a second; its numbers mean nothing.

use gluon::encode::{encode_memoized_into, EncodeScratch, WireMode};
use gluon::{GluonContext, OptLevel, Pool};
use gluon_algos::apps::{pagerank, PagerankConfig};
use gluon_algos::EngineKind;
use gluon_graph::{gen, RmatProbs};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_all, Policy};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions; the fastest is reported (interference only adds).
const REPS: usize = 5;
/// Pagerank iterations per repetition (tolerance 0, so all of them run).
const ITERS: u32 = 5;

fn fastest(mut run: impl FnMut()) -> f64 {
    run(); // warm-up: page-in, scratch growth
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_sweep(scale: u32) {
    let g = gen::rmat(scale, 16, RmatProbs::GRAPH500, 28);
    let mut lg = partition_all(&g, 1, Policy::Oec).remove(0);
    lg.build_transpose();
    let edges = f64::from(ITERS) * lg.num_local_edges() as f64;
    let cfg = PagerankConfig {
        tolerance: 0.0,
        max_iters: ITERS,
        ..Default::default()
    };
    println!("\npagerank pull sweep (rmat{scale}, one host, {ITERS} iterations, best of {REPS})");
    println!("{:>8} {:>10} {:>12}", "threads", "ns/edge", "Medges/s");
    for threads in [1usize, 4] {
        let secs = run_cluster(1, |ep| {
            let comm = Communicator::new(ep);
            let mut ctx =
                GluonContext::new(&lg, &comm, OptLevel::default()).with_pool(Pool::new(threads));
            fastest(|| {
                let (ranks, iters) = pagerank(&lg, &mut ctx, cfg, EngineKind::Galois);
                assert_eq!(iters, ITERS);
                black_box(ranks);
            })
        })[0];
        println!(
            "{threads:>8} {:>10.3} {:>12.1}",
            secs * 1e9 / edges,
            edges / secs / 1e6
        );
    }
}

fn bench_encode(scale: u32) {
    let n = 1usize << scale;
    let values: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let updated: Vec<u32> = (0..n as u32).collect();
    let mut scratch = EncodeScratch::default();
    let mut out = Vec::new();
    let secs = fastest(|| {
        encode_memoized_into(n, &updated, |p| values[p], true, &mut scratch, &mut out);
        black_box(&out);
    });
    assert_eq!(WireMode::of(&out), WireMode::Dense);
    println!("\nall-dirty encode_memoized_into ({n} f64 entries, best of {REPS})");
    println!("{:>10.3} ns/update", secs * 1e9 / n as f64);
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        12
    } else {
        18
    };
    bench_sweep(scale);
    bench_encode(scale);
}
