//! Partition construction on its own clock.
//!
//! * **On host** — `partition_on_host` at 2 hosts under CVC and OEC on an
//!   rmat graph (§4.1: each host routes its slice of the edge list and
//!   builds its own partition), best of a few runs, in ms and ns per edge.
//!   Every run's partitions are checked against `partition_all`'s.
//! * **Transpose** — `build_transpose` on each host's CVC partition from
//!   the on-host pass (the in-edge view every pull-style run builds before
//!   its first round), best of a few runs, in ms and ns per local edge.
//!   Every host's in-edges are checked, row by row and in order, against
//!   `transpose_by_sort`.
//! * **Policies** — time to produce all partitions of an rmat13 graph at 8
//!   hosts under each strategy of §3.1.
//!
//! `-- --quick` runs only the on-host and transpose passes, on rmat16, so
//! CI can run the file in a few seconds; its numbers mean nothing, its
//! checks do.

use criterion::{criterion_group, BenchmarkId, Criterion};
use gluon_graph::{gen, transpose_by_sort, Csr, Gid, RmatProbs};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_all, partition_on_host, LocalGraph, PartitionStats, Policy};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of the on-host pass; the fastest is reported
/// (interference only adds).
const REPS: usize = 5;

/// Hosts of the on-host pass, as in the benchmark's rmat workloads.
const HOSTS: usize = 2;

/// Panics unless `a` and `b` are the same partition: proxies, owners and
/// the local CSR (`Csr: Eq` compares offsets, targets and weights).
fn assert_same(a: &LocalGraph, b: &LocalGraph, what: &str) {
    assert_eq!(a.num_masters(), b.num_masters(), "{what}: masters");
    assert_eq!(a.num_proxies(), b.num_proxies(), "{what}: proxies");
    assert!(
        a.proxies()
            .all(|p| a.gid(p) == b.gid(p) && a.owner_of(p) == b.owner_of(p)),
        "{what}: gid or owner of a proxy"
    );
    assert_eq!(a.topology(), b.topology(), "{what}: local CSR");
}

fn bench_on_host(g: &Csr, scale: u32) {
    println!(
        "\npartition_on_host (rmat{scale}, {} edges, {HOSTS} hosts, best of {REPS})",
        g.num_edges()
    );
    println!("{:>8} {:>10} {:>12}", "policy", "ms", "ns/edge");
    for policy in [Policy::Cvc, Policy::Oec] {
        let serial = partition_all(g, HOSTS, policy);
        let mut best = f64::INFINITY;
        for rep in 0..=REPS {
            let start = Instant::now();
            let parts = run_cluster(HOSTS, |ep| {
                partition_on_host(g, policy, &Communicator::new(ep))
            });
            let secs = start.elapsed().as_secs_f64();
            // The first run is a warm-up: page-in, allocator growth.
            if rep > 0 {
                best = best.min(secs);
            }
            for (host, (d, s)) in parts.iter().zip(&serial).enumerate() {
                assert_same(d, s, &format!("{policy}, host {host}"));
            }
        }
        println!(
            "{:>8} {:>10.2} {:>12.2}",
            policy.name(),
            best * 1e3,
            best * 1e9 / g.num_edges() as f64
        );
    }
}

/// Panics unless `lg`'s in-edges are the reference transpose of its local
/// CSR, row for row: equal rows everywhere mean equal offsets, sources and
/// weights. Each row's source slots are mapped back to proxies first.
fn assert_reference_transpose(lg: &LocalGraph, host: usize) {
    let want = transpose_by_sort(lg.topology());
    for p in lg.proxies() {
        let row = Gid(p.0);
        let sources: Vec<u32> = lg.in_slots(p).iter().map(|&s| lg.source(s).0).collect();
        assert_eq!(
            sources,
            want.neighbors(row),
            "host {host}: sources of {p:?}"
        );
        assert_eq!(
            lg.in_weights(p),
            want.neighbor_weights(row),
            "host {host}: weights of {p:?}"
        );
    }
}

fn bench_transpose(g: &Csr, scale: u32) {
    let parts = run_cluster(HOSTS, |ep| {
        partition_on_host(g, Policy::Cvc, &Communicator::new(ep))
    });
    println!("\nbuild_transpose (rmat{scale}, cvc, {HOSTS} hosts, best of {REPS})");
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "host", "local edges", "ms", "ns/edge"
    );
    for (host, part) in parts.iter().enumerate() {
        let mut best = f64::INFINITY;
        for rep in 0..=REPS {
            let mut lg = part.clone();
            let start = Instant::now();
            lg.build_transpose();
            let secs = start.elapsed().as_secs_f64();
            // The first run is the warm-up, and the one checked.
            if rep == 0 {
                assert_reference_transpose(&lg, host);
            } else {
                best = best.min(secs);
            }
            black_box(&lg);
        }
        let edges = part.num_local_edges();
        println!(
            "{host:>8} {edges:>12} {:>10.2} {:>12.2}",
            best * 1e3,
            best * 1e9 / edges as f64
        );
    }
}

fn bench_policies(c: &mut Criterion) {
    let g = gen::rmat(13, 8, Default::default(), 99);
    let mut group = c.benchmark_group("partition-8-hosts");
    for policy in Policy::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(policy), &policy, |b, &p| {
            b.iter(|| {
                let parts = partition_all(&g, 8, p);
                black_box(PartitionStats::of(&parts).replication_factor)
            })
        });
    }
    group.finish();
}

criterion_group!(policies, bench_policies);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 16 } else { 19 };
    let g = gen::rmat(scale, 16, RmatProbs::GRAPH500, 28);
    bench_on_host(&g, scale);
    bench_transpose(&g, scale);
    if !quick {
        policies();
    }
}
