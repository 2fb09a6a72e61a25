//! Integration tests for `gluon-trace`: span-sum exactness, Chrome trace
//! schema, counter identity with the tracer off or on, and chaos
//! retransmit tagging that agrees with the metrics hub.

use gluon_suite::algos::{driver, Algorithm, DistConfig, DistOutcome};
use gluon_suite::graph::{gen, max_out_degree_node};
use gluon_suite::metrics::{MetricsHub, NetMetrics};
use gluon_suite::net::{FaultCounters, FaultPlan, FaultyTransport, ReliableTransport, Transport};
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

#[test]
fn chaos_runs_tag_retransmissions_in_the_trace() {
    let g = gen::rmat(8, 8, Default::default(), 21);
    let cfg = DistConfig::new(4);
    let clean = driver::Run::new(&g, Algorithm::Bfs).config(&cfg).launch();
    let tracer = Tracer::new(cfg.hosts);
    let hub = MetricsHub::new(cfg.hosts);
    let counters = FaultCounters::new();
    let out = driver::Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .source(max_out_degree_node(&g))
        .pagerank(Default::default())
        .tracer(&tracer)
        .metrics(&hub)
        .transport(|ep| {
            let metrics = NetMetrics::register(&hub.host(ep.rank()));
            ReliableTransport::over(FaultyTransport::new(
                ep,
                FaultPlan::lossy(7),
                counters.clone(),
            ))
            .with_tracer(tracer.clone())
            .with_metrics(metrics)
        })
        .launch();
    assert_eq!(out.int_labels, clean.int_labels, "chaos changed results");
    assert!(counters.total() > 0, "fault plan injected nothing");
    // Every event was retained, so the ring can be counted against the
    // hub and the transport's books.
    assert_eq!(tracer.dropped_events(), 0);
    let events = tracer.events();
    let retx: Vec<_> = events.iter().filter(|e| e.name == "retransmit").collect();
    assert!(!retx.is_empty(), "no retransmissions tagged in the trace");
    for e in &retx {
        assert!(e.host < cfg.hosts && e.peer < cfg.hosts);
        assert!(e.bytes > 0, "retransmitted frames carry wire bytes");
    }
    let dups = events.iter().filter(|e| e.name == "dup_suppressed").count() as u64;
    // The trace, the hub and NetStats book each frame once, and agree.
    assert_eq!(retx.len() as u64, hub.counter_across_hosts("retransmits"));
    assert_eq!(retx.len() as u64, out.net.retransmit_messages);
    assert_eq!(dups, hub.counter_across_hosts("dups_suppressed"));
    assert_eq!(dups, out.net.dup_suppressed);
}

// ---------------------------------------------------------------------------
// Chrome trace-event schema validation, via a minimal JSON parser (the
// workspace deliberately has no serde_json).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.bytes[self.pos]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(text.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += text.len();
        v
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8");
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes[self.pos] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .expect("utf8");
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 continuation bytes pass through.
                    let start = self.pos;
                    while self.bytes[self.pos] != b'"' && self.bytes[self.pos] != b'\\' {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8"));
                }
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] got {:?}", other as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected , or }} got {:?}", other as char),
            }
        }
    }
}

#[test]
fn exported_chrome_trace_validates_against_the_schema() {
    let g = gen::rmat(7, 6, Default::default(), 3);
    let cfg = DistConfig::new(3);
    let tracer = Tracer::new(cfg.hosts);
    let counters = FaultCounters::new();
    driver::Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .source(max_out_degree_node(&g))
        .pagerank(Default::default())
        .tracer(&tracer)
        .transport(|ep| {
            ReliableTransport::over(FaultyTransport::new(
                ep,
                FaultPlan::lossy(3),
                counters.clone(),
            ))
            .with_tracer(tracer.clone())
        })
        .launch();
    let mut chrome = ChromeTraceBuilder::new();
    chrome.add("bfs \"chaos\" run", &tracer); // exercise name escaping
    let doc = Parser::parse(&chrome.finish());

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::str),
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
        let ph = ev.get("ph").and_then(Json::str).expect("every event: ph");
        ev.get("pid").and_then(Json::num).expect("every event: pid");
        let name = ev
            .get("name")
            .and_then(Json::str)
            .expect("every event: name");
        match ph {
            "X" => {
                complete += 1;
                ev.get("tid").and_then(Json::num).expect("X: tid");
                let ts = ev.get("ts").and_then(Json::num).expect("X: ts");
                let dur = ev.get("dur").and_then(Json::num).expect("X: dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative microseconds");
                assert!(
                    Stage::ALL.iter().any(|s| s.name() == name),
                    "unknown span name {name}"
                );
                span_names.push(name.to_owned());
                ev.get("args")
                    .and_then(|a| a.get("phase"))
                    .and_then(Json::num)
                    .expect("X: args.phase");
            }
            "i" => {
                instants += 1;
                assert_eq!(ev.get("s").and_then(Json::str), Some("t"), "i: scope");
                let args = ev.get("args").expect("i: args");
                args.get("peer").and_then(Json::num).expect("i: args.peer");
                args.get("bytes")
                    .and_then(Json::num)
                    .expect("i: args.bytes");
            }
            "M" => {
                if name == "process_name" {
                    process_names += 1;
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::str)
                        .expect("M: args.name");
                    assert_eq!(label, "bfs \"chaos\" run", "escaped label survives");
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
    assert!(instants > 0, "chaos run must contribute instant events");
    // The send and decode stages must survive the export under their
    // wire names.
    for name in ["send", "decode"] {
        assert!(
            span_names.iter().any(|n| n == name),
            "exported trace is missing {name} spans"
        );
    }
}
