//! Intra-host parallel scaling of the deterministic pool (the tentpole
//! measurement): pagerank on the rmat18 stand-in at 1/2/4/8 threads on a
//! single host, reporting the *measured* speedup — sequential work over the
//! critical path of the pool's weight-balanced chunk assignment. The
//! simulated cluster shares physical cores between hosts, so wall clock
//! cannot show intra-host scaling; the metered critical path can, and it
//! reflects the real chunk imbalance of the skewed input rather than an
//! assumed ideal.
//!
//! Two parts time the pool itself, which *is* meaningful wall-clock: the
//! dispatch table first (the fixed cost of one trivial op, the same shape
//! as the `exec.dispatch_us` probe of `perf/`), and the `b.iter`
//! micro-benchmark at the end (a weighted chunked map over a
//! degree-skewed weight profile).

use criterion::{criterion_group, criterion_main, Criterion};
use gluon::exec::SchedScratch;
use gluon::Pool;
use gluon_algos::{driver, Algorithm, DistConfig, PagerankConfig};
use gluon_bench::inputs;
use gluon_graph::{gen, RmatProbs};
use std::hint::black_box;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The acceptance input: a genuine scale-18 rmat (262k vertices), bigger
/// than the Table 1 stand-ins so the per-host chunk count is realistic.
fn rmat18() -> inputs::BenchGraph {
    inputs::BenchGraph {
        name: "rmat18",
        paper_name: "rmat28",
        graph: gen::rmat(18, 8, RmatProbs::GRAPH500, 28),
    }
}

fn speedup_at(graph: &inputs::BenchGraph, algo: Algorithm, threads: usize) -> f64 {
    let pr = PagerankConfig {
        max_iters: 5,
        ..Default::default()
    };
    let out = driver::Run::new(&graph.graph, algo)
        .config(&DistConfig::new(1))
        .pagerank(pr)
        .threads(threads)
        .launch();
    out.run.parallel_speedup()
}

fn bench_scaling(_c: &mut Criterion) {
    println!("\nintra-host scaling (measured speedup = seq work / critical path)");
    println!(
        "{:<8} {:>8} {:>12} {:>12}",
        "input", "threads", "pagerank", "bfs"
    );
    let g = rmat18();
    for threads in THREADS {
        let pr = speedup_at(&g, Algorithm::Pagerank, threads);
        let bfs = speedup_at(&g, Algorithm::Bfs, threads);
        println!("{:<8} {:>8} {:>11.2}x {:>11.2}x", g.name, threads, pr, bfs);
        if threads == 1 {
            assert!((pr - 1.0).abs() < 1e-9, "sequential run must report 1.0");
        }
        if threads == 4 {
            assert!(
                pr >= 2.0,
                "acceptance: pagerank/{} at 4 threads must show >= 2x, got {pr:.2}x",
                g.name
            );
        }
    }
}

const DISPATCH_OPS: usize = 1000;
/// Elements per dispatched op: 64 chunks of the pool's minimum width.
const DISPATCH_LEN: usize = 4096;
const BATCHES: usize = 10;

/// Lower quartile over [`BATCHES`] batches of the mean microseconds per
/// call of `op`.
fn per_call_us(calls: usize, mut op: impl FnMut()) -> f64 {
    let per_batch = calls.div_ceil(BATCHES);
    let mut us: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[BATCHES / 4]
}

fn bench_dispatch(_c: &mut Criterion) {
    // What one op costs when its chunks do nothing: the deal plus, above
    // one thread, spawning and joining the workers. `map_chunks` also
    // allocates its scheduling state and result slots; the scratch-fed
    // scatter reuses both.
    println!(
        "\npool dispatch, us per op of {DISPATCH_LEN} elements (p25 of {BATCHES} batches, {} cores)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:>8} {:>12} {:>14}",
        "threads", "map_chunks", "chunk_scratch"
    );
    for threads in [1usize, 2] {
        let pool = Pool::new(threads);
        let map = per_call_us(DISPATCH_OPS, || {
            black_box(pool.map_chunks(DISPATCH_LEN, |r| r.len()));
        });
        let mut sched = SchedScratch::new();
        let mut rows = vec![0usize; Pool::num_chunks(DISPATCH_LEN)];
        let scratch = per_call_us(DISPATCH_OPS, || {
            pool.for_each_chunk_scratch(
                DISPATCH_LEN,
                &mut sched,
                &mut rows,
                1,
                |r| r.len() as u64,
                |r, row| row[0] = r.len(),
            );
            black_box(&rows);
        });
        println!("{threads:>8} {map:>12.2} {scratch:>14.2}");
        let _ = pool.drain_work();
    }
}

fn bench_pool_primitive(c: &mut Criterion) {
    // Wall-clock for the primitive itself: a weighted chunked reduction
    // over a skewed per-element weight profile (rmat-like degree shape).
    let g = rmat18();
    let degrees: Vec<u64> = (0..g.graph.num_nodes())
        .map(|v| g.graph.out_degree(gluon_graph::Gid(v)) as u64)
        .collect();
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        c.bench_function(&format!("pool/weighted-reduce/{threads}t"), |b| {
            b.iter(|| {
                let total = pool.reduce(
                    degrees.len(),
                    0u64,
                    |r| degrees[r].iter().sum(),
                    |a, b| a + b,
                );
                black_box(total)
            })
        });
        let _ = pool.drain_work();
    }
}

criterion_group!(benches, bench_dispatch, bench_scaling, bench_pool_primitive);
criterion_main!(benches);
