//! Capturing a `RunReport`: the per-run observability bundle.
//!
//! Runs BFS on 4 simulated hosts with a `MetricsHub` and a `Tracer`
//! attached, then builds the merged [`RunReport`] — host registries with
//! each host's round ledger, cost-model calibration residuals — and shows
//! the three export surfaces:
//!
//! 1. the Prometheus text exposition (scrape-ready counters/gauges),
//! 2. the stable machine-readable JSON document, split into a
//!    `deterministic` and an `observed` section,
//! 3. the per-phase calibration table (measured comm time vs. the α–β
//!    cost model's projection).
//!
//! It also demonstrates the determinism fingerprint: the `deterministic`
//! section is bit-identical across thread counts, because the simulated
//! cluster moves exactly the same bytes no matter how the compute is
//! scheduled.
//!
//! Run with: `cargo run --release --example run_report`. `scripts/verify.sh`
//! runs it, so the fingerprint assertion at the end is a gate.
//!
//! [`RunReport`]: gluon_suite::algos::RunReport

use gluon_suite::algos::{driver, Algorithm, DistConfig};
use gluon_suite::graph::gen;
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::CostModel;
use gluon_suite::trace::Tracer;

fn main() {
    let graph = gen::rmat(10, 8, Default::default(), 7);
    let cfg = DistConfig::new(4);

    let hub = MetricsHub::new(cfg.hosts);
    let tracer = Tracer::new(cfg.hosts);
    let out = driver::Run::new(&graph, Algorithm::Bfs)
        .config(&cfg)
        .metrics(&hub)
        .tracer(&tracer)
        .launch();
    let report = out.report_with_tracer(&hub, &CostModel::REPRO, &tracer);

    println!("== Prometheus exposition (first lines) ==");
    for line in report.prometheus().lines().take(12) {
        println!("{line}");
    }
    println!("...");

    println!();
    println!("== JSON document ==");
    let json = report.json();
    let deterministic = json.get("deterministic").unwrap();
    let observed = json.get("observed").unwrap();
    println!(
        "schema v{}, {} hosts, {} rounds, {} bytes on the wire, {:.6} s of communication",
        json.get("schema_version").and_then(|v| v.as_u64()).unwrap(),
        deterministic.get("hosts").and_then(|v| v.as_u64()).unwrap(),
        deterministic
            .get("rounds")
            .and_then(|v| v.as_u64())
            .unwrap(),
        deterministic
            .get("totals")
            .and_then(|t| t.get("bytes_sent"))
            .and_then(|v| v.as_u64())
            .unwrap(),
        observed
            .get("timing")
            .and_then(|t| t.get("comm_secs"))
            .and_then(|v| v.as_f64())
            .unwrap(),
    );
    let rendered = report.render_json();
    println!("full document: {} bytes of JSON", rendered.len());

    println!();
    println!("== Cost-model calibration (CostModel::REPRO) ==");
    println!("phase  measured(s)  projected(s)  residual(s)");
    for row in gluon_suite::algos::phase_residuals(&out.host_stats, &CostModel::REPRO) {
        println!(
            "{:>5}  {:>11.6}  {:>12.6}  {:>+11.6}",
            row.phase, row.measured_secs, row.projected_secs, row.residual_secs
        );
    }

    // The fingerprint is the deterministic section: scheduling-invariant.
    let single_hub = MetricsHub::new(cfg.hosts);
    let single = driver::Run::new(&graph, Algorithm::Bfs)
        .config(&cfg)
        .threads(1)
        .metrics(&single_hub)
        .launch();
    assert_eq!(
        report.fingerprint(),
        single.report(&single_hub, &CostModel::REPRO).fingerprint(),
        "non-timing report fields must not depend on the thread count"
    );
    println!();
    println!("Fingerprint is thread-count invariant: OK");
}
