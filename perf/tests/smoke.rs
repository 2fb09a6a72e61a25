//! End to end at `--smoke` scale (rmat12, 32×32 grid, a few trials): the
//! suite runs all seven workloads untraced and traced, every result line
//! carries exactly the names `BENCHMARK.json` declares, and the records it
//! writes compare clean against themselves.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_gluon-perf");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits in the repo root")
        .to_path_buf()
}

/// A scratch directory under the build's own target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Names quoted right after `"name":` in one table of `BENCHMARK.json`
/// (the package's own parser is private to the binary; this file only
/// needs the names).
fn declared(table: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{table}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {table}"));
    let body = &text[start..];
    let end = body.find(']').expect("table closes");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("name closes")].to_string()
        })
        .collect()
}

/// The metric names of a result line, in order.
fn emitted(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    metrics
        .split("\":{\"value\":")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(String::from)
        .collect()
}

fn run(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("spawn gluon-perf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_suite_runs_every_workload_untraced_and_traced() {
    let dir = scratch("suite");
    let record = dir.join("BENCH.json");
    let started = std::time::Instant::now();
    let (ok, stdout) = run(
        &dir,
        &[
            "run",
            "--smoke",
            "--traced",
            "--seconds",
            "0",
            "--json",
            record.to_str().expect("utf-8 path"),
        ],
    );
    assert!(ok, "suite failed:\n{stdout}");
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke suite is meant to take seconds"
    );

    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect();
    // The suite runs every workload; `BENCHMARK.json` gates the four whose
    // trial time does not hang on cross-vCPU wake-up latency.
    let workloads = [
        "pr-rmat-mem",
        "bfs-rmat-mem",
        "bfs-grid-mem",
        "bfs-grid-tcp",
        "pr-rmat-tcp",
        "bfs-grid-1h2t",
        "launch-rmat-cold",
    ];
    let gated = [
        "pr-rmat-mem",
        "bfs-rmat-mem",
        "bfs-grid-mem",
        "launch-rmat-cold",
    ];
    assert_eq!(declared("workloads"), gated);
    assert_eq!(lines.len(), 2 * workloads.len(), "one result line per run");
    let (untraced, traced) = lines.split_at(workloads.len());
    for line in untraced {
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert_eq!(emitted(line), declared("end_to_end"));
    }
    for line in traced {
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert_eq!(emitted(line), declared("per_layer"));
    }
    for name in workloads {
        assert!(stdout.contains(&format!("== {name} (untraced")), "{name}");
        assert!(stdout.contains(&format!("== {name} (traced")), "{name}");
        assert!(
            dir.join("perf-traces")
                .join(format!("{name}-28.trace.json"))
                .exists(),
            "{name} wrote no Chrome trace"
        );
    }
    assert!(record.with_extension("traced.json").exists());

    // A record compared with itself is neither worse nor unresolved.
    let path = record.to_str().expect("utf-8 path");
    let (ok, table) = run(&dir, &["compare", path, path]);
    assert!(ok, "{table}");
    assert!(table.ends_with("compare: ok\n"), "{table}");
    let metrics = declared("end_to_end").len();
    assert_eq!(
        table.matches(" ok").count(),
        workloads.len() * metrics + 1,
        "{table}"
    );
    assert_eq!(
        table.matches(" ok (not gated)\n").count(),
        (workloads.len() - gated.len()) * metrics
    );
}

#[test]
fn one_workload_prints_the_result_line_last() {
    let dir = scratch("one");
    let (ok, stdout) = run(
        &dir,
        &[
            "run",
            "--workload",
            "bfs-grid-mem",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("output");
    // Two sessions of one warm-up and one pair of trials each.
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":6,\"failed\":0,\"metrics\":{"),
        "{last}"
    );
    assert!(last.contains("\"setup_s\":{\"value\":"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let dir = scratch("bad");
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--trace", "7"][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let (ok, stdout) = run(&dir, args);
        assert!(!ok, "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}");
    }
}
