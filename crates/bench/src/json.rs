//! Machine-readable harness results: the JSON tree plus the file writers.
//!
//! The JSON value type lives in [`gluon_metrics::json`] — one hand-rolled
//! emitter/parser shared by the metrics [`RunReport`] and the harness
//! binaries (the workspace vendors no JSON dependency) — and is re-exported
//! here so harness code keeps writing `gluon_bench::json::Json`. This
//! module owns the single writer path that drops both the JSON tree and
//! the rendered text tables under the results directory.
//!
//! [`RunReport`]: gluon_algos::RunReport
//!
//! # Examples
//!
//! ```
//! use gluon_bench::json::Json;
//!
//! let v = Json::obj([("bench", Json::from("bfs")), ("bytes", Json::from(1024u64))]);
//! assert_eq!(v.render(), "{\"bench\": \"bfs\", \"bytes\": 1024}");
//! assert_eq!(Json::parse(&v.render()).unwrap(), v);
//! ```

use std::path::{Path, PathBuf};

pub use gluon_metrics::json::{Json, ParseError};

/// The harness output directory: `$BENCH_RESULTS_DIR` when set (so two
/// runs can be recorded side by side), `bench_results/` under the
/// current working directory otherwise.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BENCH_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from)
}

/// Writes `value` to `<results_dir>/<name>.json` (creating the directory)
/// and returns the path written.
///
/// # Panics
///
/// Panics if the directory or file cannot be written — harness binaries
/// have nothing sensible to do with a half-recorded run.
pub fn write_results(name: &str, value: &Json) -> PathBuf {
    let mut text = value.render();
    text.push('\n');
    write_file(&results_dir(), &format!("{name}.json"), &text)
}

/// Writes already-rendered table text to `<results_dir>/<name>.txt`
/// through the same writer path as [`write_results`] and returns the path.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_text(name: &str, text: &str) -> PathBuf {
    write_file(&results_dir(), &format!("{name}.txt"), text)
}

fn write_file(dir: &Path, file: &str, contents: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(file);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_creates_directory_and_file() {
        let dir = std::env::temp_dir().join(format!("gluon-bench-json-{}", std::process::id()));
        let path = write_file(&dir, "probe.json", "{\"ok\": true}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\": true}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reexported_json_round_trips() {
        let v = Json::obj([
            ("rows", Json::Arr(vec![Json::from(1u64), Json::Null])),
            ("ratio", Json::from(0.5f64)),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
