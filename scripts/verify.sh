#!/usr/bin/env bash
# Full verification gate for the workspace. Everything a PR must pass:
#
#   1. release build of every crate;
#   2. the whole test suite of every workspace crate (unit + integration
#      + doc tests; a superset of what --fast runs), including the
#      default-on `chaos` lossy-network matrix;
#   3. the crash-chaos battery under --release: injected host crashes
#      must recover bit-identical via checkpoints, and unrecoverable
#      failures must surface typed errors within the detector timeout;
#   4. the socket-backend battery under --release: the parity suite
#      (separate worker processes over TCP and Unix sockets must match
#      the in-memory backend bit-for-bit, and a killed worker must yield
#      a typed peer-death error) plus the 2-process `gluon-host smoke`;
#   5. the determinism matrix (threads × algorithms × policies,
#      bit-identical results and wire counters) under --release;
#   6. the golden run records under --release: results, rounds, wire
#      counters and work units recorded from retired code paths (the
#      pre-rewrite pagerank kernel, the barrier sync schedule, the
#      per-engine min-relax edge loops) must be reproduced bit for bit
#      at 1 and 4 threads;
#   7. the codec battery under --release: the differential oracle
#      against the naive reference codec plus the fixed-seed fuzz smoke
#      (truncations, bit flips, garbage — the decoder must never panic);
#   8. the allocation guard under --release with the `alloc-meter`
#      counting allocator: steady-state sync rounds, push sweeps and
#      bfs rounds allocate nothing;
#   9. every bench compiles (`cargo bench --no-run`), the tracing bench
#      runs (its zero-cost guard: a disabled record call stays cheap, and
#      a disabled or an enabled tracer leaves labels and byte/message
#      counters identical), the pull kernel, the
#      hand-off (8 hosts on however few cores) and the push kernel benches
#      run their `--quick` passes (the push kernel's assertions: metered
#      work, and a dense and a listed frontier activating the same), and
#      the benchmark package under perf/ passes its own tests (unit tests
#      plus a `--smoke` run of all seven workloads), so a break of the
#      public functions perf/README.md lists is caught here and not by the
#      benchmark driver;
#  10. rustfmt, as a check only;
#  11. clippy across the workspace with warnings denied;
#  12. rustdoc with warnings denied (missing docs on public API fail).
#
# When every gate passes, a last informational line prints the non-test
# line count that simplicity changes report.
#
# Before all of these, the gate fails if a Rust file under crates/ src/
# tests/ examples/ names `crossbeam` (threads are `std::thread::scope`,
# channels `std::sync::mpsc`), so the vendored stand-in can go with a
# lockfile-only diff.
#
# Every test invocation runs under a hang watchdog: the crash-tolerance
# contract is "typed error, never a hang", so a test step that exceeds
# its deadline is itself a red verification result, not something to
# wait out.
#
# Usage: scripts/verify.sh [--fast]
#   --fast  skip the release build, the release determinism matrix, the
#           release alloc guard, the gluon-perf smoke, and the chaos
#           feature (quick pre-push sanity loop).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
    FAST=1
fi

# Runs a test command under a per-step deadline (seconds). SIGTERM first,
# SIGKILL 10s later if the process ignores it.
watchdog() {
    local deadline="$1"
    shift
    # `$?` after `if ! cmd` is the negation's status (always 0), which let
    # a failed step return success; capture the command's own status.
    local status=0
    timeout --kill-after=10 "$deadline" "$@" || status=$?
    if [[ "$status" == "124" || "$status" == "137" ]]; then
        echo "verify: HANG — '$*' exceeded ${deadline}s watchdog" >&2
    fi
    return "$status"
}

echo "==> no crossbeam in Rust source (crates/ src/ tests/ examples/)"
if grep -rln --include='*.rs' crossbeam crates src tests examples; then
    echo "verify: the Rust files above name crossbeam; use std::thread::scope / std::sync::mpsc" >&2
    exit 1
fi

if [[ "$FAST" == "0" ]]; then
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test -q --workspace (every crate; chaos + crash-chaos matrices included; 1200s watchdog)"
    watchdog 1200 cargo test -q --workspace
    echo "==> cargo test --release --test crash_chaos (crash injection, recovery, typed errors; 300s watchdog)"
    watchdog 300 cargo test -q --release --test crash_chaos
    echo "==> cargo test --release --test socket_parity (multi-process TCP/UDS parity + typed peer death; 300s watchdog)"
    watchdog 300 cargo test -q --release --test socket_parity
    echo "==> gluon-host smoke (2-process TCP bfs vs the memory backend; 120s watchdog)"
    watchdog 120 cargo run -q --release --bin gluon-host -- smoke
    echo "==> cargo test --release --test determinism (thread-count invariance; 600s watchdog)"
    watchdog 600 cargo test -q --release --test determinism
    echo "==> cargo test --release --test run_golden (recorded results, rounds, wire counters; 600s watchdog)"
    watchdog 600 cargo test -q --release --test run_golden
    echo "==> cargo test --release codec battery (differential oracle + fuzz smoke; 600s watchdog)"
    watchdog 600 cargo test -q --release --test codec_differential --test codec_fuzz --test codec_golden
    echo "==> cargo test --release --features alloc-meter --test alloc_guard (zero steady-state allocations; 300s watchdog)"
    watchdog 300 cargo test -q --release --features alloc-meter --test alloc_guard
else
    echo "==> cargo test -q --no-default-features (chaos matrices skipped; 900s watchdog)"
    watchdog 900 cargo test -q --workspace --no-default-features
    echo "==> gluon-host smoke (2-process TCP bfs vs the memory backend; 120s watchdog)"
    watchdog 120 cargo run -q --bin gluon-host -- smoke
fi

echo "==> cargo bench --no-run (benches must always compile)"
cargo bench --no-run --workspace --quiet
echo "==> tracing bench (the tracer's zero-cost and counter-identity guard; 300s watchdog)"
watchdog 300 cargo bench --quiet -p gluon-bench --bench tracing
echo "==> pull_kernel bench --quick (one-host pagerank sweep and f64 encode/decode on rmat12; 120s watchdog)"
watchdog 120 cargo bench --quiet -p gluon-bench --bench pull_kernel -- --quick
echo "==> handoff bench --quick (2 and 8 hosts over MemoryTransport: an oversubscribed receive must not hang; 120s watchdog)"
watchdog 120 cargo bench --quiet -p gluon-bench --bench handoff -- --quick
echo "==> push_kernel bench --quick (bfs push, activation list, a D-Ligra round from a dense and a listed frontier; 120s watchdog)"
watchdog 120 cargo bench --quiet -p gluon-bench --bench push_kernel -- --quick

if [[ "$FAST" == "0" ]]; then
    echo "==> cargo test --release --manifest-path perf/Cargo.toml (gluon-perf unit tests + smoke of all seven workloads; 600s watchdog)"
    watchdog 600 cargo test -q --release --offline --manifest-path perf/Cargo.toml --target-dir target
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "verify: all gates passed"

# Informational, not a gate: the non-test line count a simplicity change
# reports (every .rs file under crates/ and src/ cut at its first
# `#[cfg(test)]`, nothing under tests/ or benches/).
# shellcheck disable=SC2046
echo "verify: non-test lines: $(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' \
    $(find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*'))"
