//! The two loops a bfs trial spends its compute time in, on their own clock.
//!
//! * **Push relaxation** — a Galois bfs to quiescence on a single-host
//!   partition (no peers, so sync is a no-op: one BSP round of sub-rounds
//!   and a second that re-sweeps what the first lowered): the raw-slice scatter, the partition drain, the frontier
//!   rebuild. Reported as ns per examined edge and ns per frontier member
//!   at 1 and 4 pool threads. The floor per edge is one sequential `u32`
//!   and one random label read.
//! * **Activation list** — `BinScratch::run` over every vertex with one
//!   candidate each, scattered so that every destination is activated
//!   exactly once: bin routing, the drain's bitmap marks and the word-by-word
//!   drain of those marks into the ascending list. Reported as ns per
//!   activation.
//! * **A round's fixed cost** — one D-Ligra push round of a 256-member bfs
//!   frontier (an anti-diagonal) on a 256 × 512 grid host (2¹⁷ proxies,
//!   the share of one of `bfs-grid-mem`'s two hosts): the direction
//!   heuristic and the push, handed the frontier as the dense bit set a
//!   sync leaves, against listing it once first and handing both the
//!   list. Reported as µs per round.
//!
//! `-- --quick` swaps the rmat16 stand-in for rmat12 and the grid for a
//! 64 × 128 one so CI can run the whole file in a second; its numbers mean
//! nothing.

use gluon::{BinScratch, BinSink, DenseBitset, GluonContext, OptLevel, Pool};
use gluon_algos::apps::bfs;
use gluon_algos::reference::INFINITY;
use gluon_algos::EngineKind;
use gluon_engines::ligra::{self, Direction, VertexSubset};
use gluon_graph::{gen, max_out_degree_node, Lid, RmatProbs};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_all, Policy};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions; the fastest is reported (interference only adds).
const REPS: usize = 5;

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

fn bench_relax(scale: u32) {
    let g = gen::rmat(scale, 16, RmatProbs::GRAPH500, 28);
    let source = max_out_degree_node(&g);
    let lg = partition_all(&g, 1, Policy::Oec).remove(0);
    println!("\ngalois bfs to quiescence (rmat{scale}, one host, best of {REPS})");
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10}",
        "threads", "edges", "members", "ns/edge", "ns/member"
    );
    for threads in [1usize, 4] {
        let (secs, edges, members) = run_cluster(1, |ep| {
            let comm = Communicator::new(ep);
            let mut ctx =
                GluonContext::new(&lg, &comm, OptLevel::default()).with_pool(Pool::new(threads));
            // What the run sweeps, read off its result: bfs levels are
            // final when first written, so round 1 sweeps every reached
            // vertex once across its sub-rounds; with no peer to quiesce
            // with, round 2 then re-sweeps every vertex round 1 lowered
            // (all of them but the source) and finds nothing. A vertex
            // without an out-edge is never swept. The meter must agree.
            let (dist, rounds) = bfs(&lg, &mut ctx, source, EngineKind::Galois);
            assert_eq!(rounds, 2);
            let src = lg.lid(source).expect("one host holds every vertex");
            let reached = || lg.proxies().filter(|v| dist[v.index()] != INFINITY);
            let degrees: u64 = reached().map(|v| u64::from(lg.out_degree(v))).sum();
            let edges = 2 * degrees - u64::from(lg.out_degree(src));
            let members = 2 * reached().filter(|&v| lg.has_local_out_edges(v)).count() - 1;
            assert_eq!(ctx.stats().work_units(), edges, "metered work");
            let secs = fastest(|| {
                black_box(bfs(&lg, &mut ctx, source, EngineKind::Galois));
            });
            (secs, edges, members)
        })[0];
        println!(
            "{threads:>8} {edges:>10} {members:>12} {:>10.3} {:>10.1}",
            secs * 1e9 / edges as f64,
            secs * 1e9 / members as f64
        );
    }
}

fn bench_activation(scale: u32) {
    let n = 1usize << scale;
    let members: Vec<Lid> = (0..n as u32).map(Lid).collect();
    // An odd multiplier permutes 0..2^scale: one candidate per destination.
    let dst_of = |m: Lid| Lid(m.0.wrapping_mul(0x9E37_79B1) & (n as u32 - 1));
    let pool = Pool::new(1);
    let mut bins = BinScratch::<u32>::new();
    let mut labels = vec![0u32; n];
    let secs = fastest(|| {
        bins.run(
            &pool,
            &members,
            &mut labels,
            |_| 1,
            |chunk, _labels, sink| {
                for &m in chunk {
                    sink.push(dst_of(m), m.0);
                }
            },
            |_dst, v, slot| {
                *slot = v;
                true
            },
        );
        black_box(bins.activated());
    });
    assert_eq!(bins.activated().len(), n);
    println!("\nBinScratch::run, one candidate per destination ({n} activations, best of {REPS})");
    println!("{:>10.3} ns/activation", secs * 1e9 / n as f64);
}

/// Rounds per timed repetition of [`bench_round`].
const ROUNDS: usize = 1000;

fn bench_round(rows: u32, cols: u32) {
    let mut lg = partition_all(&gen::grid(rows, cols), 1, Policy::Oec).remove(0);
    // As in a D-Ligra run: with the transpose, pull is a real option and the
    // heuristic's verdict (push) rests on its walk.
    lg.build_transpose();
    let n = lg.num_proxies();
    // A bfs from the corner at level `cols / 2`: the frontier is the
    // anti-diagonal `r + c = level`, one member per row, spread over every
    // word of the bit set; what lies beyond it is unreached.
    let level = cols / 2;
    let mut active = DenseBitset::new(n);
    let mut labels = vec![INFINITY; n as usize];
    for v in lg.proxies() {
        let gid = lg.gid(v).0;
        if gid / cols + gid % cols == level {
            active.set(v);
            labels[v.index()] = level;
        }
    }
    let members = active.count_ones();
    let pool = Pool::new(1);
    let mut bins = BinScratch::<u32>::new();
    let mut buf: Vec<Lid> = Vec::new();
    let emit = |v: Lid, labels: &[u32], sink: &mut BinSink<'_, u32>| {
        let candidate = labels[v.index()] + 1;
        for &dst in lg.out_targets(v) {
            if candidate < labels[dst as usize] {
                sink.push(Lid(dst), candidate);
            }
        }
    };
    // The drain tests without writing, so every repetition is the same round.
    let lowers = |_dst: Lid, candidate: u32, slot: &mut u32| candidate < *slot;

    let dense = VertexSubset::from_bitset(active.clone());
    let mut dense_round = || {
        let direction = ligra::choose_direction(&lg, &dense, Direction::Auto);
        assert_eq!(direction, Direction::Push);
        ligra::vertex_map_push_pooled(&lg, &dense, &pool, &mut bins, &mut labels, emit, lowers);
    };
    let dense_secs = fastest(|| (0..ROUNDS).for_each(|_| dense_round()));
    let want = bins.activated().to_vec();

    let mut listed_round = || {
        buf.clear();
        buf.extend(active.iter());
        let listed = VertexSubset::Sparse(std::mem::take(&mut buf));
        let direction = ligra::choose_direction(&lg, &listed, Direction::Auto);
        assert_eq!(direction, Direction::Push);
        ligra::vertex_map_push_pooled(&lg, &listed, &pool, &mut bins, &mut labels, emit, lowers);
        buf = listed.into_members();
    };
    let listed_secs = fastest(|| (0..ROUNDS).for_each(|_| listed_round()));
    assert_eq!(bins.activated(), want, "both paths activate the same");

    println!(
        "\nD-Ligra push round, {members}-member frontier on a {rows}x{cols} grid \
         ({n} proxies, {} activations, best of {REPS} x {ROUNDS} rounds)",
        want.len()
    );
    println!("{:>24} {:>10}", "frontier handed as", "us/round");
    for (path, secs) in [("dense subset", dense_secs), ("listed once", listed_secs)] {
        println!("{path:>24} {:>10.2}", secs * 1e6 / ROUNDS as f64);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 12 } else { 16 };
    bench_relax(scale);
    bench_activation(scale);
    let (rows, cols) = if quick { (64, 128) } else { (256, 512) };
    bench_round(rows, cols);
}
