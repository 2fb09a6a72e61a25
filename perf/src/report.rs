//! From raw measurements to named metrics, and the records they are
//! written in: the one-line result the driver reads, the human table, and
//! the schema-versioned JSON record committed as the baseline.

use crate::json::Json;
use crate::launch::GeminiProbe;
use crate::probes::{CodecProbe, CollectiveProbes};
use crate::session::{Outcome, Setup, Trial};
use crate::spans::{self, Span};
use crate::stats::{median, Summary};
use crate::workloads::{MetricDef, Scale, Workload, END_TO_END, PER_LAYER, SOURCES};

/// Version of the record layout; bump when a field changes meaning.
pub const SCHEMA: u32 = 1;

/// One named value, with the order statistics behind it when it is a
/// timing.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// The samples behind `summary`, one list per session in the order
    /// they were taken, so a later reader can recompute any statistic.
    pub samples: Vec<Vec<f64>>,
}

/// Counters that must repeat exactly for one source of one workload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Exact {
    /// Global id of the bfs source (0 for pagerank).
    pub source: u32,
    pub wire_bytes: u64,
    pub rounds: u32,
    pub work_units: u64,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub workload: &'static str,
    /// Whether `BENCHMARK.json` gates on this workload.
    pub gated: bool,
    pub traced: bool,
    pub seed: u64,
    pub scale: Scale,
    pub seconds: f64,
    pub nodes: u64,
    pub edges: u64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub exact: Vec<Exact>,
}

impl WorkloadResult {
    /// Whether every trial ran and verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Inputs of the metric tables beyond the session's [`Outcome`].
pub struct Extras<'a> {
    pub w: &'a Workload,
    pub nodes: u64,
    pub edges: u64,
    pub load_s: f64,
    pub peak_rss_mb: f64,
    /// Traced pass only.
    pub layer: Option<LayerExtras>,
}

/// What only the traced pass measures.
pub struct LayerExtras {
    pub collective: CollectiveProbes,
    pub codec_sparse: CodecProbe,
    pub codec_dense: CodecProbe,
    pub dispatch_us: f64,
    pub gemini: GeminiProbe,
}

fn def(table: &[MetricDef], name: &str) -> MetricDef {
    *table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The gated value of a timing: the lower quartile of the quietest
/// session, i.e. the smallest per-session p25.
///
/// Interference on a small shared box only adds time, and it arrives in
/// bursts that outlast a session: in scratch runs six fresh clusters in
/// one process gave trial-time quartiles of 381–476 ms (`bfs-grid-tcp`)
/// and 96–139 ms (`bfs-grid-mem`). Within a session the lower quartile
/// discards the trials a burst hit; across sessions the minimum discards
/// the sessions one swallowed. A metric sampled once per session — a
/// set-up, or a trial of `launch-rmat-cold`, whose every trial is a fresh
/// cluster — is thereby gated on its fastest sample.
pub fn gated(sessions: &[Vec<f64>]) -> f64 {
    sessions
        .iter()
        .filter_map(|s| Summary::of(s))
        .map(|s| s.p25)
        .reduce(f64::min)
        .unwrap_or(0.0)
}

fn timing(table: &[MetricDef], name: &str, sessions: Vec<Vec<f64>>) -> Metric {
    let d = def(table, name);
    let pooled: Vec<f64> = sessions.iter().flatten().copied().collect();
    Metric {
        name: d.name,
        unit: d.unit,
        value: gated(&sessions),
        summary: Summary::of(&pooled),
        samples: sessions,
    }
}

/// One sample per session.
fn one_each(samples: impl IntoIterator<Item = f64>) -> Vec<Vec<f64>> {
    samples.into_iter().map(|x| vec![x]).collect()
}

/// `f` of every trial, grouped by session.
fn by_session(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> Vec<Vec<f64>> {
    let mut sessions: Vec<Vec<f64>> = Vec::new();
    for t in trials {
        if sessions.len() <= t.session {
            sessions.resize(t.session + 1, Vec::new());
        }
        sessions[t.session].push(f(t));
    }
    sessions
}

fn plain(table: &[MetricDef], name: &str, value: f64) -> Metric {
    let d = def(table, name);
    Metric {
        name: d.name,
        unit: d.unit,
        value,
        summary: None,
        samples: Vec::new(),
    }
}

/// The first trial of every source that ran, in rotation order.
fn first_per_source(trials: &[Trial]) -> Vec<&Trial> {
    (0..SOURCES)
        .filter_map(|s| trials.iter().find(|t| t.source == s))
        .collect()
}

/// Mean over the sources that ran of an exact per-trial counter. Pagerank
/// has one "source"; bfs averages its eight so the value does not hang on
/// which vertex the seed happened to put first.
fn mean_over_sources(trials: &[Trial], f: impl Fn(&Trial) -> u64) -> f64 {
    let firsts = first_per_source(trials);
    if firsts.is_empty() {
        return 0.0;
    }
    firsts.iter().map(|t| f(t) as f64).sum::<f64>() / firsts.len() as f64
}

/// The exact counters of every source that ran.
pub fn exact_counters(trials: &[Trial], source_gids: &[u32], pagerank: bool) -> Vec<Exact> {
    first_per_source(trials)
        .into_iter()
        .map(|t| Exact {
            source: if pagerank { 0 } else { source_gids[t.source] },
            wire_bytes: t.wire_bytes,
            rounds: t.rounds,
            work_units: t.work_units,
        })
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome, x: &Extras<'_>) -> Vec<Metric> {
    let t = END_TO_END.as_slice();
    let trial = timing(t, "trial_s", by_session(&out.trials, |t| t.secs));
    let setups = one_each(out.setups.iter().map(Setup::total));
    // Throughput at the stated input size: the same trials, inverted. Its
    // value comes from the gated trial time (higher is better, so the
    // rule that gates a time does not carry over).
    let medges_of = |secs: f64| x.edges as f64 * f64::from(x.w.sweeps()) / secs / 1e6;
    let mut medges = timing(
        t,
        "medges_per_s",
        by_session(&out.trials, |t| medges_of(t.secs)),
    );
    medges.value = if trial.value > 0.0 {
        medges_of(trial.value)
    } else {
        0.0
    };
    // In the catalogue's order, which is the order they print in.
    vec![
        trial,
        medges,
        timing(t, "setup_s", setups),
        plain(t, "peak_rss_mb", x.peak_rss_mb),
    ]
}

/// Median over pairs `(2k, 2k + 1)` — same source, back to back, the
/// second one recorded — of `recorded / unrecorded − 1`.
fn trace_overhead(trials: &[Trial]) -> f64 {
    let ratios: Vec<f64> = trials
        .chunks_exact(2)
        .filter(|p| !p[0].recorded && p[1].recorded && p[0].secs > 0.0)
        .map(|p| p[1].secs / p[0].secs - 1.0)
        .collect();
    median(&ratios)
}

/// The per-layer metrics of a traced run. `recorded` are the run's spans.
pub fn per_layer(out: &Outcome, x: &Extras<'_>, recorded: &[Span]) -> Vec<Metric> {
    let t = PER_LAYER.as_slice();
    let layer = x.layer.as_ref().expect("the traced pass has layer extras");
    let trials = &out.trials;
    let column = |f: fn(&Trial) -> f64| by_session(trials, f);
    // A cold launch builds its partitions inside `launch()`, where the
    // harness has no span; the program's own `partition_secs` stands in.
    // Everywhere else the span around the call is the measurement, one
    // per session.
    let setup_part = |span: &str, f: fn(&Setup) -> f64| -> Vec<Vec<f64>> {
        if x.w.cold_launch {
            one_each(out.setups.iter().map(f))
        } else {
            one_each(recorded.iter().filter(|s| s.name == span).map(Span::secs))
        }
    };

    let trial = timing(t, "harness.trial_s", column(|t| t.secs));
    let compute = timing(t, "engines.compute_s", column(|t| t.compute_s));
    let sync = timing(t, "core.sync_s", column(|t| t.sync_s));
    let (trial_s, compute_s, sync_s) = (trial.value, compute.value, sync.value);
    let wire_bytes = mean_over_sources(trials, |t| t.wire_bytes);
    let work_units = mean_over_sources(trials, |t| t.work_units);
    let rounds = mean_over_sources(trials, |t| u64::from(t.rounds));
    let (work, crit) = trials.iter().fold((0u64, 0u64), |(w, c), t| {
        (w + t.work_units, c + t.crit_work_units)
    });
    let probes = layer.collective;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let speedup = if x.w.threads == 1 {
        // One thread is the workload's own configuration.
        1.0
    } else {
        ratio(gated(std::slice::from_ref(&out.one_thread_secs)), trial_s)
    };

    // In the catalogue's order, which is the order they print in.
    vec![
        plain(t, "graph.load_s", x.load_s),
        plain(t, "graph.nodes", x.nodes as f64),
        plain(t, "graph.edges", x.edges as f64),
        timing(
            t,
            "partition.build_s",
            setup_part("partition.build", |s| s.build_s),
        ),
        timing(
            t,
            "partition.transpose_s",
            setup_part("partition.transpose", |s| s.transpose_s),
        ),
        plain(t, "partition.replication_factor", out.replication_factor),
        plain(t, "partition.max_host_edges", out.max_host_edges as f64),
        timing(t, "core.memo_s", setup_part("core.memo", |s| s.memo_s)),
        plain(t, "core.memo_bytes", out.memo_bytes as f64),
        compute,
        plain(t, "engines.work_units", work_units),
        plain(
            t,
            "engines.medges_per_s",
            ratio(work_units, compute_s) / 1e6,
        ),
        sync,
        plain(t, "core.sync_share", ratio(sync_s, trial_s)),
        plain(t, "core.wire_bytes", wire_bytes),
        plain(
            t,
            "core.messages",
            mean_over_sources(trials, |t| t.messages),
        ),
        plain(t, "core.sync_call_us.empty", probes.sync_call_us[0]),
        plain(t, "core.sync_call_us.sparse", probes.sync_call_us[1]),
        plain(t, "core.sync_call_us.dense", probes.sync_call_us[2]),
        plain(
            t,
            "core.encode_ns_per_update.sparse",
            layer.codec_sparse.encode_ns,
        ),
        plain(
            t,
            "core.encode_ns_per_update.dense",
            layer.codec_dense.encode_ns,
        ),
        plain(
            t,
            "core.decode_ns_per_update.sparse",
            layer.codec_sparse.decode_ns,
        ),
        plain(
            t,
            "core.decode_ns_per_update.dense",
            layer.codec_dense.decode_ns,
        ),
        plain(t, "net.pingpong_us", probes.pingpong_us),
        plain(t, "net.stream_mb_s", probes.stream_mb_s),
        plain(t, "net.barrier_us", probes.barrier_us),
        plain(t, "net.any_us", probes.any_us),
        plain(
            t,
            "net.messages",
            mean_over_sources(trials, |t| t.net_messages),
        ),
        plain(t, "net.bytes", mean_over_sources(trials, |t| t.net_bytes)),
        plain(t, "exec.dispatch_us", layer.dispatch_us),
        plain(t, "exec.speedup", speedup),
        plain(t, "exec.metered_speedup", ratio(work as f64, crit as f64)),
        plain(t, "algos.rounds", rounds),
        plain(t, "algos.round_us", ratio(trial_s, rounds) * 1e6),
        timing(t, "algos.launch_overhead_s", column(|t| t.overhead_s)),
        plain(t, "gemini.algo_s", layer.gemini.algo_s),
        plain(t, "gemini.wire_bytes", layer.gemini.wire_bytes as f64),
        plain(t, "gemini.ratio", ratio(trial_s, layer.gemini.algo_s)),
        trial,
        plain(t, "harness.trace_overhead_frac", trace_overhead(trials)),
    ]
}

/// Four significant digits or so, for the human table; records and the
/// result line carry every digit.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// The human-readable block of one run: every metric by name, with unit.
pub fn print_result(r: &WorkloadResult) {
    println!(
        "== {} ({}{}, seed {}, {} s, {} V, {} E) ==",
        r.workload,
        if r.traced { "traced" } else { "untraced" },
        if r.gated {
            ""
        } else {
            ", recorded but not gated"
        },
        r.seed,
        r.seconds,
        r.nodes,
        r.edges
    );
    for m in &r.metrics {
        let mut line = format!("{:<36} {:>14} {:<12}", m.name, fmt_value(m.value), m.unit);
        if let Some(s) = m.summary.filter(|s| s.n > 1) {
            line.push_str(&format!(
                "n={} min={} p25={} median={} p75={} max={}",
                s.n,
                fmt_value(s.min),
                fmt_value(s.p25),
                fmt_value(s.median),
                fmt_value(s.p75),
                fmt_value(s.max)
            ));
        }
        println!("{}", line.trim_end());
    }
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<36} {:>14} {:<12}{} of {} trials",
        "failed_frac",
        fmt_value(failed_frac),
        "fraction",
        r.failed,
        r.attempted
    );
    for why in &r.failures {
        println!("FAILED {why}");
    }
}

/// Prints count, total and self time of every span name.
pub fn print_self_times(recorded: &[Span]) {
    println!(
        "{:<28} {:>6} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, t) in spans::self_times(recorded) {
        println!(
            "{name:<28} {:>6} {:>12.4} {:>12.4}",
            t.count, t.total_secs, t.self_secs
        );
    }
}

/// The last line of a run's standard output: exactly the keys the driver
/// reads, every value with all its digits.
pub fn contract_line(r: &WorkloadResult) -> String {
    result_line(
        r.correct(),
        r.attempted,
        r.failed,
        r.metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// As [`contract_line`], for a run that died before it could report.
pub fn failure_line(attempted: usize, failed: usize) -> String {
    result_line(false, attempted.max(1), failed.max(1), Vec::new())
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&str, Json)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("p25", Json::Num(s.p25)),
        ("median", Json::Num(s.median)),
        ("p75", Json::Num(s.p75)),
        ("max", Json::Num(s.max)),
    ])
}

/// One workload's part of a record.
pub fn workload_json(r: &WorkloadResult) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), Json::Num(m.value)),
            ("unit".to_string(), Json::str(m.unit)),
        ];
        if let Some(s) = &m.summary {
            fields.push(("summary".to_string(), summary_json(s)));
            let sessions = m
                .samples
                .iter()
                .map(|session| Json::Arr(session.iter().map(|&x| Json::Num(x)).collect()));
            fields.push(("samples".to_string(), Json::Arr(sessions.collect())));
        }
        (m.name, Json::Obj(fields))
    });
    let exact = r.exact.iter().map(|e| {
        Json::obj([
            ("source", Json::Num(f64::from(e.source))),
            ("wire_bytes", Json::Num(e.wire_bytes as f64)),
            ("rounds", Json::Num(f64::from(e.rounds))),
            ("work_units", Json::Num(e.work_units as f64)),
        ])
    });
    Json::obj([
        ("workload", Json::str(r.workload)),
        ("gated", Json::Bool(r.gated)),
        ("traced", Json::Bool(r.traced)),
        ("seed", Json::Num(r.seed as f64)),
        ("scale", Json::str(r.scale.name())),
        ("seconds", Json::Num(r.seconds)),
        ("nodes", Json::Num(r.nodes as f64)),
        ("edges", Json::Num(r.edges as f64)),
        // Bytes of one f64 per vertex, the pagerank working set the input
        // size is chosen against (see `machine.cache`).
        ("f64_state_bytes", Json::Num(r.nodes as f64 * 8.0)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
        ("exact", Json::Arr(exact.collect())),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine a record was taken on.
pub fn machine_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut cache = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{dir}/{file}")).map(|s| s.trim().to_string())
        };
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        cache.push(Json::obj([
            ("level", Json::str(level)),
            ("type", Json::str(kind)),
            ("size", Json::str(size)),
        ]));
    }
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cache", Json::Arr(cache)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// A whole suite pass as one record.
pub fn suite_json(traced: bool, seed: u64, seconds: f64, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Num(f64::from(SCHEMA))),
        ("benchmark", Json::str("gluon-perf")),
        ("traced", Json::Bool(traced)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("machine", machine_json()),
        ("workloads", Json::Arr(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(source: usize, secs: f64, recorded: bool, wire_bytes: u64) -> Trial {
        Trial {
            source,
            secs,
            recorded,
            wire_bytes,
            ..Trial::default()
        }
    }

    #[test]
    fn exact_counters_average_over_the_sources_that_ran() {
        let trials = [
            trial(0, 1.0, false, 100),
            trial(0, 1.0, true, 100),
            trial(1, 1.0, false, 300),
        ];
        assert_eq!(mean_over_sources(&trials, |t| t.wire_bytes), 200.0);
        assert_eq!(mean_over_sources(&[], |t| t.wire_bytes), 0.0);
        let exact = exact_counters(&trials, &[11, 22, 33, 44, 55, 66, 77, 88], false);
        assert_eq!(exact.len(), 2);
        assert_eq!((exact[1].source, exact[1].wire_bytes), (22, 300));
    }

    #[test]
    fn overhead_is_the_median_pair_ratio() {
        let trials = [
            trial(0, 1.0, false, 0),
            trial(0, 1.1, true, 0),
            trial(1, 2.0, false, 0),
            trial(1, 2.0, true, 0),
            trial(2, 1.0, false, 0),
            trial(2, 0.9, true, 0),
        ];
        assert!(trace_overhead(&trials).abs() < 1e-12);
        assert_eq!(trace_overhead(&trials[..1]), 0.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = failure_line(0, 0);
        let doc = Json::parse(&line).expect("JSON");
        let Json::Obj(members) = &doc else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::num), Some(1.0));
        assert!(!line.contains('\n'));
    }
}
