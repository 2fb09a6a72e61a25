//! Integration tests for `gluon-trace`: span-sum exactness, Chrome trace
//! schema, counter identity with the tracer off or on, and crash-recovery
//! tagging that agrees with the supervisor's books.

use gluon_suite::algos::{driver, Algorithm, DistConfig, DistOutcome};
use gluon_suite::graph::{gen, max_out_degree_node};
use gluon_suite::metrics::json::Json;
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::{CrashRule, FaultCounters, FaultPlan, FaultyTransport};
use gluon_suite::trace::{ChromeTraceBuilder, Stage, Tracer, SETUP_PHASE};
use std::collections::HashMap;

/// For every (host, phase) of `out`, the durations of the child spans the
/// tracer recorded must sum to that phase's `comm_secs` (float tolerance:
/// the ns->secs conversion accumulates rounding).
fn assert_span_sums(tracer: &Tracer, out: &DistOutcome, what: &str) {
    let mut sums: HashMap<(usize, u32), f64> = HashMap::new();
    for s in tracer.spans() {
        if s.stage.is_child() && s.phase != SETUP_PHASE {
            *sums.entry((s.host, s.phase)).or_default() += s.dur_ns as f64 / 1e9;
        }
    }
    let mut checked = 0;
    for (host, stats) in out.host_stats.iter().enumerate() {
        for (phase, p) in stats.phases.iter().enumerate() {
            let sum = sums.get(&(host, phase as u32)).copied().unwrap_or(0.0);
            assert!(
                (sum - p.comm_secs).abs() <= 1e-9 + 1e-6 * p.comm_secs,
                "{what}: host {host} phase {phase}: children {sum} != comm {}",
                p.comm_secs
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "{what}: no phases to check");
    assert!(
        tracer.spans().iter().any(|s| s.stage == Stage::Sync),
        "{what}: no Sync parent spans"
    );
}

#[test]
fn span_sums_match_comm_secs_for_every_algorithm() {
    let g = gen::rmat(7, 6, Default::default(), 3);
    let cfg = DistConfig::new(4);
    for algo in Algorithm::ALL {
        let tracer = Tracer::new(cfg.hosts);
        let out = driver::Run::new(&g, algo)
            .config(&cfg)
            .tracer(&tracer)
            .launch();
        assert!(out.rounds > 0);
        assert_span_sums(&tracer, &out, algo.name());
    }
    // The auxiliary kernels run through the same instrumented sync path.
    let tracer = Tracer::new(cfg.hosts);
    let out = driver::Run::kcore(&g, 2)
        .config(&cfg)
        .tracer(&tracer)
        .transport(|ep| ep)
        .launch();
    assert_span_sums(&tracer, &out, "kcore");
    let tracer = Tracer::new(cfg.hosts);
    let out = driver::Run::betweenness(&g, max_out_degree_node(&g))
        .config(&cfg)
        .tracer(&tracer)
        .transport(|ep| ep)
        .launch();
    assert_span_sums(&tracer, &out, "betweenness");
}

#[test]
fn threaded_send_and_decode_spans_still_sum_to_comm_secs() {
    let g = gen::rmat(7, 6, Default::default(), 3);
    let cfg = DistConfig::new(4);

    // On a spawning pool the sends issue in payload-completion order,
    // interleaved with eager decodes of frames that already arrived: both
    // stages must be present, attributed as children, and the span-sum
    // identity must keep holding with them interleaved.
    let tracer = Tracer::new(cfg.hosts);
    let out = driver::Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .threads(4)
        .tracer(&tracer)
        .launch();
    assert_span_sums(&tracer, &out, "4-thread bfs");
    let spans = tracer.spans();
    for stage in [Stage::Send, Stage::Decode] {
        assert!(stage.is_child(), "{} must sum into comm_secs", stage.name());
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "4-thread run recorded no {} spans",
            stage.name()
        );
    }
}

#[test]
fn setup_and_collective_spans_are_recorded() {
    let g = gen::rmat(7, 6, Default::default(), 3);
    let cfg = DistConfig::new(4);
    let tracer = Tracer::new(cfg.hosts);
    let out = driver::Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .tracer(&tracer)
        .launch();
    let spans = tracer.spans();
    for host in 0..cfg.hosts {
        // One stats record and one `Sync` parent span per BSP round; the
        // vote that ends the round is a child span of that same phase.
        let phases = out.host_stats[host].num_phases();
        assert_eq!(phases, out.rounds as usize, "host {host}: records");
        let parents = spans
            .iter()
            .filter(|s| s.host == host && s.stage == Stage::Sync)
            .count();
        assert_eq!(parents, phases, "host {host}: Sync parent spans");
        let votes: Vec<u32> = spans
            .iter()
            .filter(|s| s.host == host && s.stage == Stage::Collective)
            .map(|s| s.phase)
            .collect();
        assert_eq!(votes, (0..phases as u32).collect::<Vec<_>>(), "host {host}");
        assert!(
            spans
                .iter()
                .any(|s| s.host == host && s.phase == SETUP_PHASE && s.stage == Stage::Memo),
            "host {host}: memoization handshake span missing"
        );
        // Exactly one partition-construction span, ending before the
        // handshake that needs the partition begins.
        let partition: Vec<_> = spans
            .iter()
            .filter(|s| s.host == host && s.stage == Stage::Partition)
            .collect();
        assert_eq!(partition.len(), 1, "host {host}: partition span count");
        assert_eq!(partition[0].phase, SETUP_PHASE);
        let memo = spans
            .iter()
            .find(|s| s.host == host && s.stage == Stage::Memo)
            .expect("checked above");
        assert!(
            partition[0].start_ns + partition[0].dur_ns <= memo.start_ns,
            "host {host}: partition span overlaps the memo span"
        );
    }
}

#[test]
fn disabled_tracer_leaves_counters_bit_identical() {
    let g = gen::rmat(8, 8, Default::default(), 11);
    let cfg = DistConfig::new(3);
    let plain = driver::Run::new(&g, Algorithm::Sssp).config(&cfg).launch();
    // The tracer records when, never how much: off or on, every counter
    // of the run is exactly the untraced one.
    for tracer in [Tracer::disabled(), Tracer::new(cfg.hosts)] {
        let on = tracer.is_enabled();
        let traced = driver::Run::new(&g, Algorithm::Sssp)
            .config(&cfg)
            .tracer(&tracer)
            .launch();
        assert_eq!(
            plain.run.total_bytes, traced.run.total_bytes,
            "enabled: {on}"
        );
        assert_eq!(plain.run.total_messages, traced.run.total_messages);
        assert_eq!(plain.run.max_host_bytes, traced.run.max_host_bytes);
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.int_labels, traced.int_labels, "enabled: {on}");
        // Per-phase byte/message counters are exactly reproducible too.
        for (a, b) in plain.host_stats.iter().zip(&traced.host_stats) {
            assert_eq!(a.phases.len(), b.phases.len());
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.bytes_sent, pb.bytes_sent, "enabled: {on}");
                assert_eq!(pa.messages_sent, pb.messages_sent, "enabled: {on}");
            }
        }
        // The disabled tracer recorded nothing; the enabled one did.
        assert_eq!(!tracer.spans().is_empty(), on);
        if !on {
            assert!(tracer.events().is_empty());
        }
    }
}

/// A supervised run with checkpoints on every round whose host 2 crashes
/// at sync round 2, traced from the first attempt on.
fn crash_and_recover(cfg: &DistConfig, tracer: &Tracer, hub: &MetricsHub) -> DistOutcome {
    let g = gen::rmat(8, 8, Default::default(), 21);
    let counters = FaultCounters::new();
    let shared = counters.clone();
    let plan = FaultPlan::none(7).with_crash(CrashRule::at(2, 2));
    let out = driver::Run::new(&g, Algorithm::Bfs)
        .config(cfg)
        .tracer(tracer)
        .metrics(hub)
        .checkpoint_every(1)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), shared.clone())
        })
        .try_launch()
        .expect("one crash is recoverable");
    assert_eq!(counters.crashed(), 1, "the crash never fired");
    let clean = driver::Run::new(&g, Algorithm::Bfs).config(cfg).launch();
    assert_eq!(
        out.int_labels, clean.int_labels,
        "the crash changed results"
    );
    out
}

#[test]
fn crash_runs_tag_checkpoints_and_recovery_in_the_trace() {
    let cfg = DistConfig::new(4);
    let tracer = Tracer::new(cfg.hosts);
    let hub = MetricsHub::new(cfg.hosts);
    let out = crash_and_recover(&cfg, &tracer, &hub);
    // Every event was retained, so the ring can be counted against the
    // supervisor's books.
    assert_eq!(tracer.dropped_events(), 0);
    let events = tracer.events();
    let recoveries: Vec<_> = events.iter().filter(|e| e.name == "recovery").collect();
    assert!(out.recoveries >= 1, "the crash was not recovered from");
    assert_eq!(recoveries.len() as u64, u64::from(out.recoveries));
    assert_eq!(
        recoveries.len() as u64,
        hub.cluster().counter_value("recoveries")
    );
    for e in &recoveries {
        assert!(e.host < cfg.hosts && e.peer < cfg.hosts);
    }
    let checkpoints: Vec<_> = events.iter().filter(|e| e.name == "checkpoint").collect();
    assert!(!checkpoints.is_empty(), "no checkpoint tagged in the trace");
    for e in &checkpoints {
        assert_eq!(e.host, e.peer, "a checkpoint is its own host's");
        assert!(e.bytes > 0, "a checkpoint carries its record's bytes");
    }
}

#[test]
fn exported_chrome_trace_validates_against_the_schema() {
    let cfg = DistConfig::new(3);
    let tracer = Tracer::new(cfg.hosts);
    crash_and_recover(&cfg, &tracer, &MetricsHub::disabled());
    let mut chrome = ChromeTraceBuilder::new();
    chrome.add("bfs \"crash\" run", &tracer); // exercise name escaping
    let doc = Json::parse(&chrome.finish()).expect("the export is valid JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "displayTimeUnit"
    );
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());

    let mut complete = 0u64;
    let mut instants = 0u64;
    let mut process_names = 0u64;
    let mut span_names: Vec<String> = Vec::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event: ph");
        ev.get("pid")
            .and_then(Json::as_f64)
            .expect("every event: pid");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("every event: name");
        match ph {
            "X" => {
                complete += 1;
                ev.get("tid").and_then(Json::as_f64).expect("X: tid");
                let ts = ev.get("ts").and_then(Json::as_f64).expect("X: ts");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("X: dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative microseconds");
                assert!(
                    Stage::ALL.iter().any(|s| s.name() == name),
                    "unknown span name {name}"
                );
                span_names.push(name.to_owned());
                ev.get("args")
                    .and_then(|a| a.get("phase"))
                    .and_then(Json::as_f64)
                    .expect("X: args.phase");
            }
            "i" => {
                instants += 1;
                assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"), "i: scope");
                let args = ev.get("args").expect("i: args");
                args.get("peer")
                    .and_then(Json::as_f64)
                    .expect("i: args.peer");
                args.get("bytes")
                    .and_then(Json::as_f64)
                    .expect("i: args.bytes");
            }
            "M" => {
                if name == "process_name" {
                    process_names += 1;
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .expect("M: args.name");
                    assert_eq!(label, "bfs \"crash\" run", "escaped label survives");
                } else {
                    assert_eq!(name, "thread_name");
                }
            }
            other => panic!("unknown event type {other}"),
        }
    }
    assert_eq!(complete, tracer.spans().len() as u64);
    assert_eq!(instants, tracer.events().len() as u64);
    assert_eq!(process_names, 1, "one process per add() call");
    assert!(instants > 0, "the crash run must contribute instant events");
    // The send and decode stages must survive the export under their
    // wire names.
    for name in ["send", "decode"] {
        assert!(
            span_names.iter().any(|n| n == name),
            "exported trace is missing {name} spans"
        );
    }
}
