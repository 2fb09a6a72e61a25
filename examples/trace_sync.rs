//! Tracing the sync stack: where does a sync call's time actually go?
//!
//! Runs BFS on 4 simulated hosts twice — once on the clean in-memory
//! transport and once under the full `Reliable(Faulty(Memory))` chaos
//! stack — with a `Tracer` attached, then prints the per-stage summary
//! (extract / memo-translate / encode / send / recv-wait / decode / apply)
//! and the retained reliability events per name. The tracer says *when*;
//! how much traffic each wire mode carried is the metrics hub's to count
//! (see the `run_report` example). Both recordings are also exported as
//! one Chrome trace-event JSON file: load it in `chrome://tracing` or
//! Perfetto and each run appears as its own process with one track per
//! simulated host.
//!
//! Run with: `cargo run --release --example trace_sync`

use gluon_suite::algos::{driver, Algorithm, DistConfig};
use gluon_suite::graph::gen;
use gluon_suite::net::{FaultCounters, FaultPlan, FaultyTransport, ReliableTransport};
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

    // Chaos run: the reliability layer tags every retransmission,
    // suppressed duplicate, and CRC rejection as an instant event.
    let chaos_tracer = Tracer::new(cfg.hosts);
    let counters = FaultCounters::new();
    let chaotic = driver::Run::new(&graph, Algorithm::Bfs)
        .config(&cfg)
        .source(gluon_suite::graph::max_out_degree_node(&graph))
        .pagerank(Default::default())
        .tracer(&chaos_tracer)
        .transport(|ep| {
            ReliableTransport::over(FaultyTransport::new(
                ep,
                FaultPlan::lossy(42),
                counters.clone(),
            ))
            .with_tracer(chaos_tracer.clone())
        })
        .launch();
    println!("{}", chaos_tracer.summary("bfs / reliable-over-faulty"));

    assert_eq!(
        clean.int_labels, chaotic.int_labels,
        "chaos must not change results"
    );
    let ticks = chaos_tracer
        .events()
        .iter()
        .filter(|e| e.name == "retransmit")
        .count();
    println!(
        "faults injected: {} -> frames retransmitted: {} ({ticks} retransmit ticks in the trace)",
        counters.total(),
        chaotic.net.retransmit_messages
    );

    let mut chrome = ChromeTraceBuilder::new();
    chrome.add("bfs clean", &clean_tracer);
    chrome.add("bfs chaos", &chaos_tracer);
    let path = std::env::temp_dir().join("gluon_trace_sync.json");
    std::fs::write(&path, chrome.finish()).expect("write trace");
    println!(
        "Chrome trace written to {} (load via chrome://tracing or Perfetto).",
        path.display()
    );
}
