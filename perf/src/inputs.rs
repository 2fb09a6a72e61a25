//! Input preparation: graphs come from `--seed`, are generated in a child
//! process and cached as binary CSR under `<target dir>/perf-inputs/`.
//!
//! Generating in a child keeps the generator's edge-list buffers out of
//! the workload process, whose `VmHWM` is the `peak_rss_mb` metric, and
//! makes a cache hit and a cache miss look the same to everything that is
//! measured. Generation is input preparation, not `setup_s`.

use crate::workloads::{Input, Scale, RMAT_EDGE_FACTOR};
use gluon_graph::{gen, io, Csr, RmatProbs};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where build outputs go: the directory cargo was told to use, else
/// `target` under the current directory (the repo root).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// `<generator>-<params>` of an input; cache files of one generator share
/// it and differ in the seed.
fn family(input: Input, scale: Scale) -> String {
    let size = input.size(scale);
    let name = input.name();
    match input {
        Input::Rmat => format!("{name}-s{size}-e{RMAT_EDGE_FACTOR}"),
        Input::Grid => format!("{name}-{size}x{size}"),
    }
}

fn file_name(input: Input, scale: Scale, seed: u64) -> String {
    match input {
        Input::Rmat => format!("{}-{seed}.bin", family(input, scale)),
        // The grid does not depend on the seed.
        Input::Grid => format!("{}.bin", family(input, scale)),
    }
}

/// Builds the input from its seed.
pub fn generate(input: Input, scale: Scale, seed: u64) -> Csr {
    let size = input.size(scale);
    match input {
        Input::Rmat => gen::rmat(size, RMAT_EDGE_FACTOR, RmatProbs::GRAPH500, seed),
        Input::Grid => gen::grid(size, size),
    }
}

/// The `gen` subcommand, run in the child: generate, write next to the
/// final name, rename into place so a reader never sees half a file.
pub fn generate_to(input: Input, scale: Scale, seed: u64, path: &Path) -> std::io::Result<()> {
    let graph = generate(input, scale, seed);
    let partial = path.with_extension("partial");
    io::save(&graph, &partial)?;
    std::fs::rename(&partial, path)
}

/// Makes sure the input's cache file exists and returns its path.
///
/// Only the newest seed of a generator is kept: a driver that passes a
/// fresh seed to every run would otherwise fill the disk with 40 MB files.
///
/// # Errors
///
/// A message when the cache directory cannot be written or the generating
/// child fails.
pub fn prepare(input: Input, scale: Scale, seed: u64) -> Result<PathBuf, String> {
    let dir = target_dir().join("perf-inputs");
    let path = dir.join(file_name(input, scale, seed));
    if path.exists() {
        return Ok(path);
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let prefix = family(input, scale);
    for entry in std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
    {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            // A stale file left behind only costs disk; ignore the error.
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["gen", input.name(), scale.name()])
        .arg(seed.to_string())
        .arg(&path)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    Ok(path)
}

/// Parses the `gen` subcommand's arguments back.
pub fn parse_gen_args(args: &[String]) -> Result<(Input, Scale, u64, PathBuf), String> {
    let [input, scale, seed, path] = args else {
        return Err("usage: gluon-perf gen <rmat|grid> <full|smoke> <seed> <path>".into());
    };
    let input = [Input::Rmat, Input::Grid]
        .into_iter()
        .find(|i| i.name() == input)
        .ok_or(format!("unknown generator {input:?}"))?;
    let scale = [Scale::Full, Scale::Smoke]
        .into_iter()
        .find(|s| s.name() == scale)
        .ok_or(format!("unknown scale {scale:?}"))?;
    let seed = seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?;
    Ok((input, scale, seed, PathBuf::from(path)))
}

/// Loads a prepared input.
pub fn load(path: &Path) -> Result<Csr, String> {
    io::load(path).map_err(|e| format!("load {}: {e}", path.display()))
}
