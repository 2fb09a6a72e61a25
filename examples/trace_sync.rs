//! Tracing the sync stack: where does a sync call's time actually go?
//!
//! Runs BFS on 4 simulated hosts twice — once crash-free and once losing
//! host 2 at sync round 2 and recovering from a checkpoint — with a
//! `Tracer` attached, then prints the per-stage summary (extract /
//! memo-translate / encode / send / recv-wait / decode / apply) and the
//! retained instant events per name. The tracer says *when*;
//! how much traffic each wire mode carried is the metrics hub's to count
//! (see the `run_report` example). Both recordings are also exported as
//! one Chrome trace-event JSON file: load it in `chrome://tracing` or
//! Perfetto and each run appears as its own process with one track per
//! simulated host.
//!
//! Run with: `cargo run --release --example trace_sync`

use gluon_suite::algos::{driver, Algorithm, DistConfig};
use gluon_suite::graph::gen;
use gluon_suite::net::{CrashRule, FaultCounters, FaultPlan, FaultyTransport};
use gluon_suite::trace::{ChromeTraceBuilder, Tracer};

fn main() {
    let graph = gen::rmat(10, 8, Default::default(), 7);
    let cfg = DistConfig::new(4);

    // Clean run: every sync phase decomposes into micro-stage child spans
    // whose durations sum exactly to the phase's recorded comm time.
    let clean_tracer = Tracer::new(cfg.hosts);
    let clean = driver::Run::new(&graph, Algorithm::Bfs)
        .config(&cfg)
        .tracer(&clean_tracer)
        .launch();
    println!("{}", clean_tracer.summary("bfs / clean transport"));

    // Crash run: checkpoints every round, host 2 dies at sync round 2 of
    // the first attempt, and the supervisor restores and replays. Each
    // checkpoint and the restart are tagged as instant events.
    let crash_tracer = Tracer::new(cfg.hosts);
    let counters = FaultCounters::new();
    let plan = FaultPlan::none(42).with_crash(CrashRule::at(2, 2));
    let recovered = driver::Run::new(&graph, Algorithm::Bfs)
        .config(&cfg)
        .tracer(&crash_tracer)
        .checkpoint_every(1)
        .transport_per_attempt(|ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), counters.clone())
        })
        .try_launch()
        .expect("one crash with checkpoints must recover");
    println!("{}", crash_tracer.summary("bfs / crash and recover"));

    assert_eq!(
        clean.int_labels, recovered.int_labels,
        "a recovered crash must not change results"
    );
    println!(
        "crashes injected: {} -> recoveries: {}",
        counters.crashed(),
        recovered.recoveries
    );

    let mut chrome = ChromeTraceBuilder::new();
    chrome.add("bfs clean", &clean_tracer);
    chrome.add("bfs crash", &crash_tracer);
    let path = std::env::temp_dir().join("gluon_trace_sync.json");
    std::fs::write(&path, chrome.finish()).expect("write trace");
    println!(
        "Chrome trace written to {} (load via chrome://tracing or Perfetto).",
        path.display()
    );
}
