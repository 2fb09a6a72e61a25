//! The three loops a pagerank trial spends its time in, on their own clock.
//!
//! * **Pull sweep** — one pagerank iteration on a single-host partition
//!   (no peers, so sync is a no-op): one quotient per source slot, the
//!   gather-sum over in-slot slices, the master apply. Reported as
//!   ns/edge and Medges/s at 1 and 4 pool threads. The floor is one
//!   sequential `u32` and one random `f64` read per edge.
//! * **Sweep per host** — pagerank's gather alone on each host of a 2-host
//!   CVC partition, one pool thread. CVC at 2 hosts is a 1 × 2 grid, so
//!   each edge lives on its destination's master: host 1 holds most
//!   masters and only about half of its proxies have an in-edge or an
//!   out-edge — the two sets the in-edge view shrinks the sweep to.
//!   Reported as ns/edge per host.
//! * **Pull round** — one dense D-Ligra `edge_map_pull_pooled` bfs round
//!   on that host-1 partition: a third of the proxies in the frontier, a
//!   third reached earlier, a third unreached. Reported as µs per round
//!   and ns per in-edge.
//! * **Encode** — `encode_memoized_into` with distinct `f64` values and
//!   every list entry updated (what every pagerank contribution reduce
//!   hands the codec: a `Dense` body), then about 70 % of them scattered
//!   (a converging rank broadcast: a `Bitvec` body). Reported as
//!   ns/update; the floor is one read of each value, written once.
//! * **Receive** — one frame of each shape reduced into a sum field
//!   through an agreed list, two ways: decoded into a `(lid, value)` table
//!   that a second pass applies (the staged receive), and decoded straight
//!   into the field (the receive `GluonContext::sync` runs). Reported as
//!   ns/update.
//!
//! `-- --quick` swaps the rmat18 stand-in for rmat12 so CI can run the
//! whole file in a second; its numbers mean nothing.

use gluon::encode::WireMode;
use gluon::encode::{decode_memoized_scratch, encode_memoized_into, DecodeScratch, EncodeScratch};
use gluon::{BinScratch, DenseBitset, FieldSync, GluonContext, OptLevel, Pool, SumField};
use gluon_algos::apps::{pagerank, PagerankConfig};
use gluon_algos::reference::INFINITY;
use gluon_algos::EngineKind;
use gluon_engines::ligra::{self, Direction, VertexSubset};
use gluon_graph::{gen, Lid, RmatProbs};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_all, LocalGraph, Policy};
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

fn bench_cvc_hosts(scale: u32) {
    let g = gen::rmat(scale, 16, RmatProbs::GRAPH500, 28);
    let mut parts = partition_all(&g, 2, Policy::Cvc);
    println!("\npagerank gather per host (rmat{scale}, cvc, 2 hosts, 1 thread, best of {REPS})");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "host", "proxies", "in-edge", "sources", "edges", "ns/edge"
    );
    let pool = Pool::new(1);
    for lg in &mut parts {
        lg.build_transpose();
        let lg = &*lg;
        let outgoing: Vec<f64> = (0..lg.sources().len())
            .map(|s| 1.0 / (s + 3) as f64)
            .collect();
        let mut contrib = vec![0.0f64; lg.num_proxies() as usize];
        let mut bins = BinScratch::<f64>::new();
        let gather = |v: Lid, slot: &mut f64| {
            *slot = lg
                .in_slots(v)
                .iter()
                .fold(0.0, |sum, &s| sum + outgoing[s as usize]);
            false
        };
        let secs = fastest(|| {
            for _ in 0..ITERS {
                ligra::vertex_map_pull_pooled(lg, &pool, &mut bins, &mut contrib, gather);
            }
        });
        black_box(&contrib);
        let with_in = lg.proxies().filter(|&v| lg.has_local_in_edges(v)).count();
        let edges = lg.num_local_edges();
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>10} {:>9.3}",
            lg.host(),
            lg.num_proxies(),
            with_in,
            lg.sources().len(),
            edges,
            secs * 1e9 / (f64::from(ITERS) * edges as f64)
        );
    }
    bench_pull_round(&parts[1]);
}

/// One dense bfs round pulled over `lg`'s in-edges, labels reset before
/// each timed round so every repetition relaxes the same edges.
fn bench_pull_round(lg: &LocalGraph) {
    let n = lg.num_proxies();
    let mut active = DenseBitset::new(n);
    let mut labels0 = vec![INFINITY; n as usize];
    for v in lg.proxies() {
        match lg.gid(v).0 % 3 {
            0 => {
                active.set(v);
                labels0[v.index()] = 1;
            }
            1 => labels0[v.index()] = 0,
            _ => {}
        }
    }
    let frontier = VertexSubset::from_bitset(active);
    assert_eq!(
        ligra::choose_direction(lg, &frontier, Direction::Auto),
        Direction::Pull
    );
    let pool = Pool::new(1);
    let mut bins = BinScratch::<u32>::new();
    let mut labels = labels0.clone();
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        labels.copy_from_slice(&labels0);
        let start = Instant::now();
        ligra::edge_map_pull_pooled(
            lg,
            &frontier,
            &pool,
            &mut bins,
            &mut labels,
            |src, _dst, _w, cur| {
                let candidate = labels0[src.index()] + 1;
                (candidate < *cur).then_some(candidate)
            },
        );
        let secs = start.elapsed().as_secs_f64();
        // The first round is the warm-up: page-in, scratch growth.
        if rep > 0 {
            best = best.min(secs);
        }
    }
    let reached = bins.activated().len();
    assert!(reached > 0 && labels.iter().filter(|&&l| l == 2).count() == reached);
    println!(
        "\ndense D-Ligra pull round on host {} ({} members, {reached} reached, best of {REPS})",
        lg.host(),
        frontier.len()
    );
    println!("{:>10} {:>12}", "us/round", "ns/in-edge");
    println!(
        "{:>10.1} {:>12.3}",
        best * 1e6,
        best * 1e9 / lg.num_local_edges() as f64
    );
}

fn bench_codec(scale: u32) {
    let n = 1usize << scale;
    let values: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let all: Vec<u32> = (0..n as u32).collect();
    let most: Vec<u32> = (0..n as u32)
        .filter(|p| (p.wrapping_mul(2_654_435_761) >> 7) % 10 < 7)
        .collect();
    let list: Vec<Lid> = (0..n as u32).map(Lid).collect();
    let mut scratch = EncodeScratch::default();
    let mut dec = DecodeScratch::default();
    let mut field = vec![0.0f64; n];
    let mut dirty = DenseBitset::new(n as u32);
    let mut table: Vec<(Lid, f64)> = Vec::new();
    println!("\nf64 codec over a {n}-entry list, ns/update (best of {REPS})");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10}",
        "dirty", "mode", "encode", "staged rx", "fused rx"
    );
    for (name, updated, mode) in [
        ("100 %", &all, WireMode::Dense),
        ("~70 %", &most, WireMode::Bitvec),
    ] {
        let mut out = Vec::new();
        let encode = fastest(|| {
            encode_memoized_into(n, updated, |p| values[p], true, &mut scratch, &mut out);
            black_box(&out);
        });
        assert_eq!(WireMode::of(&out), mode);
        let staged = fastest(|| {
            table.clear();
            decode_memoized_scratch::<f64>(&out, n, &mut dec, &mut |p, v| table.push((list[p], v)))
                .expect("own payload decodes");
            let mut sums = SumField::new(&mut field);
            for &(lid, v) in &table {
                if sums.reduce(lid, v) {
                    dirty.set(lid);
                }
            }
        });
        let fused = fastest(|| {
            let mut sums = SumField::new(&mut field);
            decode_memoized_scratch::<f64>(&out, n, &mut dec, &mut |p, v| {
                if sums.reduce(list[p], v) {
                    dirty.set(list[p]);
                }
            })
            .expect("own payload decodes");
        });
        let per = |secs: f64| secs * 1e9 / updated.len() as f64;
        println!(
            "{name:>8} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            mode.name(),
            per(encode),
            per(staged),
            per(fused)
        );
    }
    black_box((&field, &dirty));
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        12
    } else {
        18
    };
    bench_sweep(scale);
    bench_cvc_hosts(scale);
    bench_codec(scale);
}
