//! The workload catalogue and the seeded source picker.
//!
//! Every workload runs `hosts × threads = 2` compute threads, the core
//! count of the box the baseline was recorded on. Why each one exists is
//! its `why` line (also in `BENCHMARK.json` and `perf/README.md`).

use gluon_algos::EngineKind;
use gluon_graph::{Csr, Gid};
use gluon_partition::Policy;

/// How big the inputs are and how long the fixed-count parts run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The recorded configuration: rmat19 and a 512×512 grid.
    Full,
    /// rmat12 and a 32×32 grid, three trials: exercises every code path
    /// of the harness in a few seconds. Its numbers mean nothing.
    Smoke,
}

impl Scale {
    /// A probe's iteration count at this scale.
    pub fn iters(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 10).max(2),
        }
    }

    /// `full` or `smoke`, as records and the `gen` subcommand spell it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Sessions (fresh clusters) per run.
    pub fn sessions(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Smoke => 2,
        }
    }
}

/// What a workload reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Input {
    /// `gen::rmat(scale, 16, GRAPH500, seed)`.
    Rmat,
    /// `gen::grid(side, side)`; the seed only picks sources.
    Grid,
}

/// Edges per vertex of the rmat inputs (the graph500 edge factor).
pub const RMAT_EDGE_FACTOR: u32 = 16;

impl Input {
    /// `rmat` or `grid`, as cache files and the `gen` subcommand spell it.
    pub fn name(self) -> &'static str {
        match self {
            Input::Rmat => "rmat",
            Input::Grid => "grid",
        }
    }

    /// log2 of the vertex count (rmat) or the side length (grid).
    pub fn size(self, scale: Scale) -> u32 {
        match (self, scale) {
            (Input::Rmat, Scale::Full) => 19,
            (Input::Rmat, Scale::Smoke) => 12,
            (Input::Grid, Scale::Full) => 512,
            (Input::Grid, Scale::Smoke) => 32,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Pull pagerank, `max_iters` = [`PAGERANK_ITERS`], tolerance 0 so the
    /// work is fixed.
    Pagerank,
    /// Data-driven push bfs from a rotating source.
    Bfs,
}

/// Pagerank sweeps per trial.
pub const PAGERANK_ITERS: u32 = 5;
/// Pagerank damping factor.
pub const DAMPING: f64 = 0.85;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Net {
    /// `MemoryTransport`: in-process channels.
    Memory,
    /// In-process `SocketFactory::new(SocketKind::Tcp)` over loopback.
    Tcp,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    pub algo: Algo,
    pub engine: EngineKind,
    pub policy: Policy,
    pub hosts: usize,
    pub threads: usize,
    pub net: Net,
    /// Each trial is a whole `Run::…launch()` — partitioning included —
    /// instead of an algorithm run on a standing partition.
    pub cold_launch: bool,
    /// Timed trials a run never goes below, however short `--seconds` is
    /// (sixteen lets a bfs run visit each of its eight sources twice).
    pub min_trials: usize,
    /// Whether `BENCHMARK.json` lists it, so the driver gates on it. An
    /// ungated workload still runs in the suite and is in every record.
    pub gated: bool,
}

impl Workload {
    /// Sweeps over the edge list per trial, for `medges_per_s`.
    pub fn sweeps(&self) -> u32 {
        match self.algo {
            Algo::Pagerank => PAGERANK_ITERS,
            Algo::Bfs => 1,
        }
    }

    /// Whether the algorithm walks in-edges (`build_transpose` is then
    /// part of set-up, as in `gluon_algos::driver`).
    pub fn needs_transpose(&self) -> bool {
        self.algo == Algo::Pagerank || self.engine == EngineKind::Ligra
    }

    /// Timed trials per session at `scale`: the run's minimum shared out
    /// over the sessions, rounded up to whole pairs. A cold launch is a
    /// session per trial, so it gets the run's minimum whole.
    pub fn min_trials_per_session(&self, scale: Scale) -> usize {
        let run = match scale {
            Scale::Full => self.min_trials,
            Scale::Smoke => 3,
        };
        if self.cold_launch {
            run
        } else {
            run.div_ceil(scale.sessions()).next_multiple_of(2)
        }
    }
}

const fn harness(
    name: &'static str,
    why: &'static str,
    input: Input,
    algo: Algo,
    engine: EngineKind,
    net: Net,
    min_trials: usize,
) -> Workload {
    Workload {
        name,
        why,
        input,
        algo,
        engine,
        policy: Policy::Cvc,
        hosts: 2,
        threads: 1,
        net,
        cold_launch: false,
        min_trials,
        gated: true,
    }
}

/// The seven workloads, in the order they run and print.
///
/// Three are recorded but not gated, because on the box the baseline was
/// taken on their trial time is set by the latency of waking a thread on
/// the other vCPU, and that latency sits in one regime or another for
/// minutes at a time with no code changed. Medians of three sets of ten
/// runs, tens of minutes apart (`perf/results/BENCH_11.md`):
/// `bfs-grid-tcp` 0.368 / 0.374 / 0.532 s, `pr-rmat-tcp` 0.295 / 0.302 /
/// 0.374 s, `bfs-grid-1h2t` 0.329 / 0.253 / 0.365 s. A gate with the
/// largest bound the driver allows, 0.25, would fail on those by itself.
/// The four gated ones moved by 2 to 12 % over the same three sets.
pub const WORKLOADS: [Workload; 7] = [
    harness(
        "pr-rmat-mem",
        "dense all-active pagerank rounds: the engine sweep and dense f64 sync do the work, per-round fixed cost none",
        Input::Rmat,
        Algo::Pagerank,
        EngineKind::Galois,
        Net::Memory,
        12,
    ),
    harness(
        "bfs-rmat-mem",
        "about six rounds whose frontier goes sparse, dense, sparse: the adaptive wire-mode selector and min-reduce apply carry it",
        Input::Rmat,
        Algo::Bfs,
        EngineKind::Galois,
        Net::Memory,
        16,
    ),
    harness(
        "bfs-grid-mem",
        "about 1020 level-synchronous rounds with tiny frontiers: per-round fixed cost (near-empty sync, termination, scan) is nearly all",
        Input::Grid,
        Algo::Bfs,
        EngineKind::Ligra,
        Net::Memory,
        16,
    ),
    Workload {
        gated: false,
        ..harness(
            "bfs-grid-tcp",
            "bfs-grid-mem over loopback TCP: small-message latency of the socket path (framing, CRC, event-loop wake-up) dominates",
            Input::Grid,
            Algo::Bfs,
            EngineKind::Ligra,
            Net::Tcp,
            16,
        )
    },
    Workload {
        gated: false,
        ..harness(
            "pr-rmat-tcp",
            "pr-rmat-mem over loopback TCP: the same socket layer used for bandwidth (MB-sized messages), not latency",
            Input::Rmat,
            Algo::Pagerank,
            EngineKind::Galois,
            Net::Tcp,
            12,
        )
    },
    // A thousand rounds of spawn-and-join: a bare scoped spawn/join of two
    // threads reads 27 µs for the first half second of a process here and
    // 72 µs from then on. The persistent pool of ROADMAP item 2 removes the
    // spawns; the benchmark PR after it should gate this workload.
    Workload {
        hosts: 1,
        threads: 2,
        gated: false,
        ..harness(
            "bfs-grid-1h2t",
            "one host, two pool threads, no sync traffic: every round dispatches tiny parallel ops, so gluon-exec dispatch is most of the time",
            Input::Grid,
            Algo::Bfs,
            EngineKind::Ligra,
            Net::Memory,
            16,
        )
    },
    Workload {
        policy: Policy::Oec,
        cold_launch: true,
        ..harness(
            "launch-rmat-cold",
            "a whole Run::launch() per trial: what a gluon-run user pays, mostly partitioning; the only edge-cut and the only path through the driver",
            Input::Rmat,
            Algo::Bfs,
            EngineKind::Galois,
            Net::Memory,
            5,
        )
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sources a bfs workload rotates over.
pub const SOURCES: usize = 8;

/// Side of the top-left block grid sources come from.
const GRID_BLOCK: u32 = 8;

/// splitmix64: the picker's only source of randomness, so picks depend on
/// nothing but the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks the [`SOURCES`] distinct bfs sources of a run from its seed (the
/// `SourcePicker` of the GAP harness).
///
/// * rmat: vertices whose out-degree is at least the graph's mean degree.
///   Non-zero out-degree alone is not enough: about 2 in 100 degree-1
///   vertices of rmat19 reach three vertices or fewer, a 1 ms trial that
///   would make the trial-time quartiles depend on the seed's luck.
/// * grid: vertices of the top-left 8×8 block, so every trial runs about
///   `2 × side` level-synchronous rounds.
///
/// # Panics
///
/// Panics if the graph has fewer than [`SOURCES`] eligible vertices.
pub fn pick_sources(input: Input, graph: &Csr, seed: u64) -> Vec<Gid> {
    let n = graph.num_nodes();
    let mut state = seed;
    let mut picked: Vec<Gid> = Vec::with_capacity(SOURCES);
    let mean_degree = (graph.num_edges() / u64::from(n.max(1))).max(1);
    // Enough draws that a graph with any reasonable share of eligible
    // vertices yields eight; a graph that does not is a harness bug.
    for _ in 0..1_000_000 {
        if picked.len() == SOURCES {
            break;
        }
        let v = match input {
            Input::Rmat => Gid((splitmix(&mut state) % u64::from(n)) as u32),
            Input::Grid => {
                let side = (f64::from(n)).sqrt() as u32;
                let block = u64::from(GRID_BLOCK.min(side));
                let r = (splitmix(&mut state) % block) as u32;
                let c = (splitmix(&mut state) % block) as u32;
                Gid(r * side + c)
            }
        };
        let eligible = match input {
            Input::Rmat => u64::from(graph.out_degree(v)) >= mean_degree,
            Input::Grid => true,
        };
        if eligible && !picked.contains(&v) {
            picked.push(v);
        }
    }
    assert_eq!(picked.len(), SOURCES, "too few eligible bfs sources");
    picked
}

/// A metric's fixed name and unit.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    m("trial_s", "s"),
    m("medges_per_s", "Medges/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. The prefix is the
/// module the number belongs to.
pub const PER_LAYER: [MetricDef; 40] = [
    m("graph.load_s", "s"),
    m("graph.nodes", "count"),
    m("graph.edges", "count"),
    m("partition.build_s", "s"),
    m("partition.transpose_s", "s"),
    m("partition.replication_factor", "ratio"),
    m("partition.max_host_edges", "count"),
    m("core.memo_s", "s"),
    m("core.memo_bytes", "bytes"),
    m("engines.compute_s", "s"),
    m("engines.work_units", "count"),
    m("engines.medges_per_s", "Medges/s"),
    m("core.sync_s", "s"),
    m("core.sync_share", "ratio"),
    m("core.wire_bytes", "bytes/trial"),
    m("core.messages", "count"),
    m("core.sync_call_us.empty", "us"),
    m("core.sync_call_us.sparse", "us"),
    m("core.sync_call_us.dense", "us"),
    m("core.encode_ns_per_update.sparse", "ns"),
    m("core.encode_ns_per_update.dense", "ns"),
    m("core.decode_ns_per_update.sparse", "ns"),
    m("core.decode_ns_per_update.dense", "ns"),
    m("net.pingpong_us", "us"),
    m("net.stream_mb_s", "MB/s"),
    m("net.barrier_us", "us"),
    m("net.any_us", "us"),
    m("net.messages", "count"),
    m("net.bytes", "bytes"),
    m("exec.dispatch_us", "us"),
    m("exec.speedup", "ratio"),
    m("exec.metered_speedup", "ratio"),
    m("algos.rounds", "count"),
    m("algos.round_us", "us"),
    m("algos.launch_overhead_s", "s"),
    m("gemini.algo_s", "s"),
    m("gemini.wire_bytes", "bytes"),
    m("gemini.ratio", "ratio"),
    m("harness.trial_s", "s"),
    m("harness.trace_overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::{gen, RmatProbs};

    #[test]
    fn picks_depend_on_the_seed_alone() {
        let g = gen::rmat(10, RMAT_EDGE_FACTOR, RmatProbs::GRAPH500, 3);
        let a = pick_sources(Input::Rmat, &g, 28);
        assert_eq!(a, pick_sources(Input::Rmat, &g, 28));
        assert_ne!(a, pick_sources(Input::Rmat, &g, 29));
        assert_eq!(a.len(), SOURCES);
        let mean = g.num_edges() / u64::from(g.num_nodes());
        assert!(a.iter().all(|&v| u64::from(g.out_degree(v)) >= mean));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), SOURCES);
    }

    #[test]
    fn grid_picks_stay_in_the_top_left_block() {
        let g = gen::grid(32, 32);
        let picks = pick_sources(Input::Grid, &g, 7);
        assert_eq!(picks, pick_sources(Input::Grid, &g, 7));
        assert!(picks.iter().all(|v| v.0 / 32 < 8 && v.0 % 32 < 8));
    }

    #[test]
    fn every_workload_uses_two_compute_threads() {
        for w in &WORKLOADS {
            assert_eq!(w.hosts * w.threads, 2, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            let per_session = w.min_trials_per_session(Scale::Full);
            assert!(per_session * Scale::Full.sessions() >= w.min_trials);
            assert!(w.cold_launch || per_session % 2 == 0, "{}", w.name);
        }
    }
}
