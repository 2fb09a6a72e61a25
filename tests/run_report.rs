//! `RunReport` schema and identity guarantees.
//!
//! Three contracts of the observability layer:
//!
//! 1. **Schema stability** — the exported JSON document parses back
//!    through the workspace's own parser, renders bit-identically, and
//!    keeps the same top-level key set (and schema version) no matter how
//!    many worker threads the run used.
//! 2. **Determinism fingerprint** — the report's `deterministic` section
//!    (the [`fingerprint`]) is bit-identical across thread counts:
//!    payload bytes, message counts, wire-mode histograms, round counts
//!    and every host's round ledger are scheduling-invariant in the
//!    simulated cluster.
//! 3. **Crash transparency** — a supervised run that crashes and recovers
//!    produces the same non-timing report as the crash-free run: recovery
//!    replays the computation, and the final attempt's metrics (the hub
//!    re-baselines per attempt) match a run that never failed.
//!
//! [`fingerprint`]: gluon_suite::algos::RunReport::fingerprint

use gluon_suite::algos::{
    Algorithm, DistConfig, EngineKind, Run, RunReport, REPORT_SCHEMA_VERSION,
};
use gluon_suite::graph::{gen, Csr};
use gluon_suite::metrics::json::Json;
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::{CostModel, CrashRule, FaultCounters, FaultPlan, FaultyTransport};
use gluon_suite::partition::Policy;
use gluon_suite::substrate::OptLevel;
use gluon_suite::trace::Tracer;

const HOSTS: usize = 3;

fn graph() -> Csr {
    gen::rmat(8, 8, Default::default(), 21)
}

fn cfg() -> DistConfig {
    DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    }
}

fn report_at(threads: usize) -> (RunReport, MetricsHub) {
    let g = graph();
    let hub = MetricsHub::new(HOSTS);
    let out = Run::new(&g, Algorithm::Bfs)
        .config(&cfg())
        .threads(threads)
        .metrics(&hub)
        .launch();
    (out.report(&hub, &CostModel::REPRO), hub)
}

fn observed(report: &RunReport) -> &Json {
    report
        .json()
        .get("observed")
        .expect("every report has an observed section")
}

fn top_level_keys(json: &Json) -> Vec<String> {
    json.fields()
        .expect("report root must be an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn report_json_round_trips_and_keeps_its_schema_across_thread_counts() {
    let (one, _) = report_at(1);
    let (four, _) = report_at(4);

    for report in [&one, &four] {
        // Text-level round trip: parse with the workspace parser, render
        // again, get the same bytes. (Tree equality would be too strict:
        // `0.0` renders as `0`, which re-parses as an unsigned integer.)
        let text = report.render_json();
        let reparsed = Json::parse(&text).expect("report must be valid JSON");
        assert_eq!(
            reparsed.render(),
            text,
            "render/parse/render must be stable"
        );
        assert_eq!(
            report.json().get("schema_version").and_then(Json::as_u64),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(
            report
                .json()
                .get("deterministic")
                .and_then(|d| d.get("metrics_enabled"))
                .and_then(Json::as_bool),
            Some(true)
        );
        // Every host folds its rounds into a ledger head, which the
        // fingerprints compared below carry.
        let hosts = report
            .json()
            .get("deterministic")
            .and_then(|d| d.get("per_host"))
            .and_then(Json::items)
            .expect("the deterministic section lists its hosts");
        assert_eq!(hosts.len(), HOSTS);
        for host in hosts {
            let ledger = host
                .get("metrics")
                .and_then(|m| m.get("round_ledger"))
                .and_then(Json::as_u64);
            assert!(
                ledger.is_some_and(|l| l != 0),
                "no round ledger in {}",
                host.render()
            );
        }
    }

    // The document shape is thread-count invariant...
    assert_eq!(top_level_keys(one.json()), top_level_keys(four.json()));
    // ...and so is everything except timing.
    assert_eq!(
        one.fingerprint(),
        four.fingerprint(),
        "non-timing report fields must not depend on the thread count"
    );
}

#[test]
fn recovered_report_matches_crash_free_on_non_timing_fields() {
    let g = graph();

    // No checkpointing on purpose: recovery then replays the whole
    // computation from scratch, so the final (surviving) attempt moves
    // exactly the bytes of a crash-free run. With a mid-run checkpoint
    // the final attempt would legitimately replay fewer rounds — the
    // hub's per-attempt baseline would describe only the resumed suffix.
    let run = |plan: Option<FaultPlan>| -> (RunReport, u32) {
        let hub = MetricsHub::new(HOSTS);
        let base = Run::new(&g, Algorithm::Bfs).config(&cfg()).metrics(&hub);
        let out = match plan {
            Some(plan) => {
                let counters = FaultCounters::new();
                base.transport_per_attempt(move |ep, attempt| {
                    FaultyTransport::new(ep, plan.for_attempt(attempt), counters.clone())
                })
                .try_launch()
            }
            None => base.try_launch(),
        }
        .expect("supervised run must succeed");
        (out.report(&hub, &CostModel::REPRO), out.recoveries)
    };

    let (clean, clean_recoveries) = run(None);
    assert_eq!(clean_recoveries, 0);

    let plan = FaultPlan::none(7).with_crash(CrashRule::at(1, 3));
    let (recovered, recoveries) = run(Some(plan));
    assert!(recoveries >= 1, "the injected crash never fired");

    // Bytes, messages, wire-mode histograms, rounds, round ledgers —
    // the whole deterministic section — must be identical: the hub
    // re-baselines at each attempt, so the surviving report describes
    // exactly one crash-free replay.
    assert_eq!(
        clean.fingerprint(),
        recovered.fingerprint(),
        "a recovered run must report the same non-timing fields as a crash-free run"
    );
    // The supervision counters themselves do tell the two apart.
    let recoveries_of = |r: &RunReport| observed(r).get("recoveries").and_then(Json::as_u64);
    assert_eq!(recoveries_of(&clean), Some(0));
    assert_eq!(recoveries_of(&recovered), Some(u64::from(recoveries)));
}

#[test]
fn trace_ring_drops_surface_in_the_report() {
    let g = graph();
    let hub = MetricsHub::new(HOSTS);
    // A 16-slot ring cannot hold a BFS run's spans: the ring wraps and
    // the drop counters must say so, both in the summary text and in the
    // report document.
    let tracer = Tracer::with_capacity(HOSTS, 16);
    let out = Run::new(&g, Algorithm::Bfs)
        .config(&cfg())
        .tracer(&tracer)
        .metrics(&hub)
        .launch();
    assert!(
        tracer.dropped_spans() > 0,
        "ring never wrapped — enlarge the run"
    );

    let report = out.report_with_tracer(&hub, &CostModel::REPRO, &tracer);
    let trace = observed(&report)
        .get("trace")
        .expect("report must carry a trace section");
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(
        trace.get("dropped_spans").and_then(Json::as_u64),
        Some(tracer.dropped_spans())
    );
    assert_eq!(
        trace.get("dropped_events").and_then(Json::as_u64),
        Some(tracer.dropped_events())
    );

    let summary = tracer.summary("drops");
    assert!(
        summary.contains("TRUNCATED") && summary.contains(&tracer.dropped_spans().to_string()),
        "summary must surface the drop counters prominently:\n{summary}"
    );
}

#[test]
fn prometheus_exposition_carries_the_run_counters() {
    let (report, _) = report_at(2);
    let prom = report.prometheus();
    for metric in [
        "gluon_sync_rounds",
        "gluon_bytes_sent",
        "gluon_messages_sent",
        "gluon_wire_msgs_dense",
    ] {
        assert!(prom.contains(metric), "missing {metric} in:\n{prom}");
    }
}

/// Every object key in `json`, at any depth.
fn keys<'a>(json: &'a Json, out: &mut Vec<&'a str>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                out.push(key);
                keys(value, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| keys(item, out)),
        _ => {}
    }
}

#[test]
fn the_fingerprint_is_the_deterministic_section() {
    let (report, hub) = report_at(2);
    let deterministic = report
        .json()
        .get("deterministic")
        .expect("every report has a deterministic section");
    assert_eq!(report.fingerprint(), deterministic.render());

    // What a deterministic run cannot reproduce never reaches the section:
    // no timing and no key of an observed-only section anywhere...
    const OBSERVED_SECTIONS: [&str; 7] = [
        "timing",
        "calibration",
        "trace",
        "exec",
        "cluster",
        "recoveries",
        "checkpoints_saved",
    ];
    let mut found = Vec::new();
    keys(deterministic, &mut found);
    for key in &found {
        assert!(
            !key.ends_with("_secs") && !key.ends_with("_ns"),
            "timing key {key} in the deterministic section"
        );
        assert!(
            !OBSERVED_SECTIONS.contains(key),
            "observed key {key} in the deterministic section"
        );
    }
    // ...and no host lists a metric that an observed registry, a host's or
    // the cluster's, holds.
    let observed_names: Vec<&str> = (0..HOSTS)
        .map(|rank| hub.host(rank).observed().snapshot())
        .chain([hub.cluster().snapshot()])
        .flatten()
        .map(|(name, _)| name)
        .collect();
    assert!(
        observed_names.contains(&"stage_recv_wait_ns"),
        "the observed registries must hold the stage times: {observed_names:?}"
    );
    let hosts = deterministic
        .get("per_host")
        .and_then(Json::items)
        .expect("the deterministic section lists its hosts");
    for host in hosts {
        let metrics = host
            .get("metrics")
            .and_then(Json::fields)
            .expect("each host lists its metrics");
        for (name, _) in metrics {
            assert!(
                !observed_names.contains(&name.as_str()),
                "observed metric {name} in the deterministic section"
            );
        }
    }
    for key in [
        "bytes_sent",
        "messages_sent",
        "sync_rounds",
        "wire_msgs_dense",
        "rounds",
        "round_ledger",
    ] {
        assert!(
            found.contains(&key),
            "{key} missing from the deterministic section"
        );
    }
}
