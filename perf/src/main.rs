//! `gluon-perf`: the repo's benchmark.
//!
//! ```text
//! gluon-perf run [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//!                [--traced] [--smoke] [--json OUT]
//! gluon-perf compare A.json B.json
//! gluon-perf selfcheck [--seed S] [--seconds T] [--smoke]
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends
//! its standard output with the one-line JSON result the benchmark driver
//! reads. `run` without `--workload` is the suite: every workload in its
//! own child process (so `peak_rss_mb` is that workload's high-water mark
//! and a crash costs one workload, not the suite), untraced, and with
//! `--traced` once more traced. See `perf/README.md`.

mod compare;
mod inputs;
mod json;
mod launch;
mod probes;
mod report;
mod session;
mod spans;
mod stats;
mod workloads;

use json::Json;
use report::{Extras, LayerExtras, WorkloadResult};
use session::{Job, Outcome, Plan, Progress, Verifier};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use workloads::{Algo, Scale, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Default of `--seed`.
const DEFAULT_SEED: u64 = 28;
/// A run that has not reported by now is hung; it is counted as failed
/// and the process exits, well inside the driver's 180 s.
const WATCHDOG: Duration = Duration::from_secs(150);

const USAGE: &str = "usage: gluon-perf run [--workload NAME] [--seed S] [--seconds T] \
[--trace 0|1] [--traced] [--smoke] [--json OUT]\n       gluon-perf compare A.json B.json\n       \
gluon-perf selfcheck [--seed S] [--seconds T] [--smoke]";

#[derive(Clone, Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    json: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            "--traced" => parsed.trace = true,
            "--smoke" => parsed.scale = Scale::Smoke,
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(rest).and_then(|a| match a.workload.clone() {
            Some(name) => run_one(&name, a),
            None => run_suite(&a).map(|(ok, _)| exit_code(ok)),
        }),
        Some("compare") => cmd_compare(rest),
        Some("selfcheck") => parse_run_args(rest).and_then(|a| cmd_selfcheck(&a)),
        Some("gen") => inputs::parse_gen_args(rest).and_then(|(input, scale, seed, path)| {
            inputs::generate_to(input, scale, seed, &path)
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| format!("write {}: {e}", path.display()))
        }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("gluon-perf: {msg}");
        ExitCode::from(2)
    })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Measures one workload in this process, under a watchdog.
fn run_one(name: &str, args: RunArgs) -> Result<ExitCode, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let progress = Arc::new(Progress::default());
    let (tx, rx) = mpsc::channel();
    let worker_progress = Arc::clone(&progress);
    let worker_args = args.clone();
    // Detached on purpose: if a host thread hangs, `measure` never returns
    // and the process has to exit without it.
    std::thread::spawn(move || {
        let measured = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            measure(w, &worker_args, &worker_progress)
        }));
        // The receiver is gone only if the watchdog already gave up.
        let _ = tx.send(measured);
    });
    let result = match rx.recv_timeout(WATCHDOG) {
        Ok(Ok(Ok(result))) => result,
        // Nothing was measured (the input could not be prepared): no
        // result line, as the contract asks of a run that cannot run.
        Ok(Ok(Err(msg))) => return Err(msg),
        Ok(Err(_)) | Err(_) => {
            eprintln!("gluon-perf: {name} panicked or hung; counted as failed");
            println!(
                "{}",
                report::failure_line(
                    progress.attempted.load(Ordering::Relaxed),
                    progress.failed.load(Ordering::Relaxed),
                )
            );
            // Not `return`: stuck host threads must not keep the process.
            std::process::exit(1);
        }
    };
    println!("why: {}", w.why);
    report::print_result(&result);
    if let Some(path) = &args.json {
        write_file(path, &report::workload_json(&result).render_pretty())?;
    }
    println!("{}", report::contract_line(&result));
    Ok(exit_code(result.correct()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The whole measurement of one workload.
fn measure(w: &Workload, args: &RunArgs, progress: &Progress) -> Result<WorkloadResult, String> {
    let spans = Spans::new(args.trace);
    let run = spans.open("run", None, None);
    let root = run.id();

    let t = spans.open("graph.load", root, None);
    let path = inputs::prepare(w.input, args.scale, args.seed)?;
    let graph = inputs::load(&path)?;
    let load_s = spans.close(t);
    let sources = workloads::pick_sources(w.input, &graph, args.seed);

    // The traced pass spends half its time on trials and the rest on probes.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let sessions = args.scale.sessions();
    // A cold launch builds a fresh cluster in every trial and so spends
    // its whole window in one loop; everything else splits it.
    let plan = Plan {
        secs: if w.cold_launch {
            window
        } else {
            window / sessions as f64
        },
        min_trials: w.min_trials_per_session(args.scale),
        probes: false,
        scale: args.scale,
    };
    let verifier = Mutex::new(Verifier::new(&graph, w.algo, &sources));
    let job = Job {
        w,
        graph: &graph,
        sources: &sources,
        spans: &spans,
        root,
        progress,
        verifier: &verifier,
    };
    let mut outcome = Outcome::default();
    // `launch()` hands back no context to probe; a standing cluster of
    // the same shape does.
    let mut probe_only = None;
    // Read when the first session ends: what one cluster of this workload
    // needs. Later sessions only add what the allocator happened to keep
    // from earlier ones, which in scratch runs varied by a quarter from
    // run to run.
    let mut peak_rss = 0.0;
    if w.cold_launch {
        outcome = launch::cold_trials(&job, plan);
        peak_rss = peak_rss_mb();
        if args.trace {
            let plan = Plan {
                secs: 0.0,
                min_trials: 0,
                probes: true,
                ..plan
            };
            probe_only = session::run(&job, plan, 0, 0).probes;
        }
    } else {
        for k in 0..sessions {
            let plan = Plan {
                probes: args.trace && k + 1 == sessions,
                ..plan
            };
            let t = spans.open("session", root, None);
            let job = Job {
                root: t.id(),
                ..job
            };
            let session = session::run(&job, plan, k, outcome.trials.len());
            spans.close(t);
            outcome.absorb(session);
            if k == 0 {
                peak_rss = peak_rss_mb();
            }
        }
    }

    let layer = args.trace.then(|| {
        let (codec_sparse, codec_dense) = probes::codec_probes(&spans, root);
        LayerExtras {
            collective: probe_only
                .or(outcome.probes)
                .expect("the traced pass ran the collective probes"),
            codec_sparse,
            codec_dense,
            dispatch_us: probes::dispatch_us(w.threads, args.scale, &spans, root),
            gemini: launch::gemini(w, &graph, &sources, args.scale, &spans, root),
        }
    });
    spans.close(run);

    let source_gids: Vec<u32> = sources.iter().map(|g| g.0).collect();
    let extras = Extras {
        w,
        nodes: u64::from(graph.num_nodes()),
        edges: graph.num_edges(),
        load_s,
        peak_rss_mb: peak_rss,
        layer,
    };
    let recorded = spans.snapshot();
    let metrics = if args.trace {
        report::per_layer(&outcome, &extras, &recorded)
    } else {
        report::end_to_end(&outcome, &extras)
    };
    if args.trace {
        let trace_path = inputs::target_dir()
            .join("perf-traces")
            .join(format!("{}-{}.trace.json", w.name, args.seed));
        write_file(&trace_path, &spans::chrome_trace(&recorded).render())?;
        println!("chrome trace: {}", trace_path.display());
        report::print_self_times(&recorded);
    }
    Ok(WorkloadResult {
        workload: w.name,
        gated: w.gated,
        traced: args.trace,
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        nodes: extras.nodes,
        edges: extras.edges,
        attempted: progress.attempted.load(Ordering::Relaxed),
        failed: progress.failed.load(Ordering::Relaxed),
        failures: outcome.failures.clone(),
        metrics,
        exact: report::exact_counters(&outcome.trials, &source_gids, w.algo == Algo::Pagerank),
    })
}

/// One suite pass: every workload in a child process. Returns whether
/// every child verified, and the pass's record (a workload whose child
/// left nothing behind is missing from it).
fn suite_pass(args: &RunArgs, traced: bool) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = inputs::target_dir().join("perf-tmp");
    let mut all_ok = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let part = scratch.join(format!("{}.{}.json", w.name, u8::from(traced)));
        // A stale part from an earlier pass must not stand in for this one.
        let _ = std::fs::remove_file(&part);
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--json")
            .arg(&part);
        if args.scale == Scale::Smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let record = std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        let _ = std::fs::remove_file(&part);
        match record {
            Ok(record) => {
                all_ok &= status.success();
                records.push(record);
            }
            Err(why) => {
                eprintln!("gluon-perf: {} left no record ({why}); {status}", w.name);
                all_ok = false;
            }
        }
    }
    Ok((
        all_ok,
        report::suite_json(traced, args.seed, args.seconds, records),
    ))
}

/// `run` without `--workload`. Returns whether everything verified, and
/// the untraced record.
fn run_suite(args: &RunArgs) -> Result<(bool, Json), String> {
    let (mut ok, untraced) = suite_pass(args, false)?;
    if let Some(path) = &args.json {
        write_file(path, &untraced.render_pretty())?;
    }
    if args.trace {
        let (traced_ok, traced) = suite_pass(args, true)?;
        ok &= traced_ok;
        if let Some(path) = &args.json {
            write_file(&path.with_extension("traced.json"), &traced.render_pretty())?;
        }
        let mismatches = compare::exact_mismatches(&untraced, &traced);
        for m in &mismatches {
            eprintln!("gluon-perf: exact counter differs between passes: {m}");
        }
        ok &= mismatches.is_empty();
    }
    println!(
        "suite: {}",
        if ok {
            "every workload verified"
        } else {
            "FAILED"
        }
    );
    Ok((ok, untraced))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bounds of the `BENCHMARK.json` of this checkout: the one in the
/// current directory, else the one next to this package.
fn bounds() -> Result<Vec<compare::Bound>, String> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let path = if Path::new("BENCHMARK.json").exists() {
        "BENCHMARK.json"
    } else {
        beside
    };
    compare::bounds_of(&read_json(path)?)
}

fn judge_records(a: &Json, b: &Json) -> Result<ExitCode, String> {
    let rows = compare::compare(a, b, &bounds()?)?;
    let (worse, unresolved) = compare::print_rows(&rows);
    let mismatches = if a.get("seed") == b.get("seed") {
        compare::exact_mismatches(a, b)
    } else {
        Vec::new()
    };
    for m in &mismatches {
        println!("exact counter differs: {m}");
    }
    println!(
        "compare: {}",
        match (worse || !mismatches.is_empty(), unresolved) {
            (true, _) => "worse",
            (false, true) => "unresolved",
            (false, false) => "ok",
        }
    );
    Ok(exit_code(!worse && mismatches.is_empty()))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    judge_records(&read_json(a)?, &read_json(b)?)
}

/// Runs the untraced suite twice and holds the second against the first.
fn cmd_selfcheck(args: &RunArgs) -> Result<ExitCode, String> {
    let untraced = RunArgs {
        trace: false,
        json: None,
        ..args.clone()
    };
    let (ok_a, a) = run_suite(&untraced)?;
    let (ok_b, b) = run_suite(&untraced)?;
    let verdict = judge_records(&a, &b)?;
    Ok(if ok_a && ok_b {
        verdict
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root")
    }

    fn names(doc: &Json, table: &str) -> Vec<String> {
        doc.get(table)
            .unwrap_or_else(|| panic!("BENCHMARK.json has {table}"))
            .items()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn the_catalogue_is_what_benchmark_json_declares() {
        let doc = benchmark_json();
        let declared = |table: &str| -> Vec<(String, String)> {
            doc.get(table)
                .expect("table")
                .items()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |table: &[workloads::MetricDef]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&workloads::END_TO_END));
        assert_eq!(declared("per_layer"), ours(&workloads::PER_LAYER));
        let whys: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let catalogue: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(whys, catalogue);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::num),
            Some(DEFAULT_SECONDS)
        );
        assert!(bounds().is_ok());
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        let metrics = workloads::END_TO_END.iter().chain(&workloads::PER_LAYER);
        for d in metrics {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} twice", w.name);
        }
        let doc = benchmark_json();
        assert!(names(&doc, "end_to_end").contains(&"setup_s".to_string()));
    }

    #[test]
    fn run_arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload pr-rmat-mem --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_run_args(&args).expect("valid");
        assert_eq!(a.workload.as_deref(), Some("pr-rmat-mem"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.scale),
            (7, 3.0, true, Scale::Full)
        );
        assert!(parse_run_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_run_args(&["--seed".into()]).is_err());
        assert!(parse_run_args(&["--bogus".into()]).is_err());
    }
}
