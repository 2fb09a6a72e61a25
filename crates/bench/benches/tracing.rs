//! Tracing overhead guard: a disabled `Tracer` must cost nothing.
//!
//! Benchmarks the raw record-call overhead (disabled vs enabled) and a
//! whole traced vs untraced BFS run, and *asserts* the zero-cost contract:
//! a run with a disabled tracer — and one with an enabled tracer — produces
//! bit-identical labels and byte/message counters to a run without any
//! tracer, and a disabled record call stays within a generous per-call
//! budget.

use criterion::{criterion_group, criterion_main, Criterion};
use gluon_algos::{driver, Algorithm, DistConfig};
use gluon_graph::gen;
use gluon_trace::{Stage, Tracer};
use std::hint::black_box;
use std::time::Instant;

fn bench_record_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer-record");
    let disabled = Tracer::disabled();
    group.bench_with_input(
        criterion::BenchmarkId::new("disabled", "1k-spans"),
        &disabled,
        |b, t| {
            b.iter(|| {
                for i in 0..1_000u64 {
                    t.record_span(0, 0, Stage::Encode, None, i, 1);
                }
                black_box(t.is_enabled())
            })
        },
    );
    let enabled = Tracer::new(1);
    group.bench_with_input(
        criterion::BenchmarkId::new("enabled", "1k-spans"),
        &enabled,
        |b, t| {
            b.iter(|| {
                for i in 0..1_000u64 {
                    t.record_span(0, 0, Stage::Encode, None, i, 1);
                }
                black_box(t.is_enabled())
            })
        },
    );
    group.finish();
}

fn bench_traced_run(c: &mut Criterion) {
    let g = gen::rmat(9, 8, Default::default(), 5);
    let cfg = DistConfig::new(2);
    let mut group = c.benchmark_group("bfs-run");
    group.bench_with_input(criterion::BenchmarkId::new("untraced", "2h"), &g, |b, g| {
        b.iter(|| {
            black_box(
                driver::Run::new(g, Algorithm::Bfs)
                    .config(&cfg)
                    .launch()
                    .rounds,
            )
        })
    });
    group.bench_with_input(criterion::BenchmarkId::new("traced", "2h"), &g, |b, g| {
        b.iter(|| {
            let t = Tracer::new(cfg.hosts);
            black_box(
                driver::Run::new(g, Algorithm::Bfs)
                    .config(&cfg)
                    .tracer(&t)
                    .launch()
                    .rounds,
            )
        })
    });
    group.finish();
}

/// The guard proper: fails the bench run if the disabled tracer is not
/// effectively free.
fn guard_zero_cost(_c: &mut Criterion) {
    // 1. Counter identity: a tracer, disabled or enabled, must not perturb
    //    the run — it records when, never how much.
    let g = gen::rmat(8, 8, Default::default(), 9);
    let cfg = DistConfig::new(2);
    let plain = driver::Run::new(&g, Algorithm::Bfs).config(&cfg).launch();
    for tracer in [Tracer::disabled(), Tracer::new(cfg.hosts)] {
        let traced = driver::Run::new(&g, Algorithm::Bfs)
            .config(&cfg)
            .tracer(&tracer)
            .launch();
        assert_eq!(plain.run.total_bytes, traced.run.total_bytes);
        assert_eq!(plain.run.total_messages, traced.run.total_messages);
        assert_eq!(plain.int_labels, traced.int_labels);
    }

    // 2. Per-call budget: 1M disabled record calls must stay far under
    //    the cost of the work they instrument (generous 100ns/call cap).
    let t = Tracer::disabled();
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        t.record_span(0, 0, Stage::Send, None, i, 1);
    }
    let per_call = start.elapsed().as_nanos() as f64 / 1e6;
    assert!(
        per_call < 100.0,
        "disabled record_span costs {per_call:.1}ns/call — no longer zero-cost"
    );
    println!("guard: disabled record_span {per_call:.2}ns/call, counters identical");
}

criterion_group!(
    benches,
    bench_record_calls,
    bench_traced_run,
    guard_zero_cost
);
criterion_main!(benches);
