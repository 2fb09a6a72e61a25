//! The two measurements that go through a whole-run entry point instead
//! of a standing cluster: `launch-rmat-cold` (`Run::…launch()` per trial)
//! and the Gemini comparison (`gluon_gemini::run`).

use crate::session::{
    checksum_term, combine, source_of, Expected, HostTrial, Job, Outcome, Plan, Setup,
};
use crate::spans::Spans;
use crate::workloads::{Algo, Scale, Workload, DAMPING, PAGERANK_ITERS};
use gluon_algos::{Algorithm, Run};
use gluon_gemini::GeminiAlgo;
use gluon_graph::{Csr, Gid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Runs the cold-launch trials: every trial partitions, builds the local
/// graphs, shakes hands and runs bfs from scratch, as `gluon-run` does.
/// `trial_s` is the wall time of `launch()`; a set-up sample is the
/// `partition_secs` + memo handshake the same call reports. Every trial is
/// a fresh cluster already, so every trial is a session of its own.
pub fn cold_trials(job: &Job<'_>, plan: Plan) -> Outcome {
    let Job {
        w,
        graph,
        sources,
        spans,
        root,
        progress,
        ..
    } = *job;
    let mut out = Outcome::default();
    let mut verifier = job
        .verifier
        .lock()
        .expect("nothing else holds the verifier during a cold launch");
    let started = Instant::now();
    let mut next = 0;
    while next < plan.min_trials || started.elapsed().as_secs_f64() < plan.secs {
        let i = next;
        next += 1;
        let source = source_of(Algo::Bfs, i);
        let record = i % 2 == 1;
        progress.attempted.fetch_add(1, Ordering::Relaxed);
        let t = spans.open_when(record, "trial", root, Some(i as u32));
        let launched = catch_unwind(AssertUnwindSafe(|| {
            Run::new(graph, Algorithm::Bfs)
                .hosts(w.hosts)
                .policy(w.policy)
                .source(sources[source])
                .launch()
        }));
        let secs = spans.close(t);
        let Ok(run) = launched else {
            progress.failed.fetch_add(1, Ordering::Relaxed);
            out.failures.push(format!("trial {i}: launch() panicked"));
            continue;
        };

        let shares: Vec<HostTrial> = run
            .host_stats
            .iter()
            .map(|h| HostTrial::of(&h.phases, run.rounds, 0))
            .collect();
        let mut trial = combine(&shares, secs);
        trial.session = i;
        trial.source = source;
        trial.recorded = record;
        trial.rounds = run.rounds;
        trial.overhead_s = secs - run.partition_secs - run.algo_secs;
        trial.net_messages = run.net.total_messages();
        trial.net_bytes = run.net.total_bytes();
        let bits: Vec<u64> = run.int_labels.iter().map(|&l| u64::from(l)).collect();
        trial.checksum = (0u32..)
            .zip(&bits)
            .fold(0u64, |sum, (v, &b)| sum.wrapping_add(checksum_term(v, b)));

        let t = spans.open("verify", root, Some(i as u32));
        let against_oracle = if verifier.wants_labels(source) {
            verifier.check_labels(source, &bits)
        } else {
            Ok(())
        };
        let against_first = verifier.check_repeat(
            source,
            Expected {
                checksum: trial.checksum,
                rounds: trial.rounds,
                wire_bytes: trial.wire_bytes,
            },
        );
        spans.close(t);
        if let Err(why) = against_oracle.and(against_first) {
            progress.failed.fetch_add(1, Ordering::Relaxed);
            out.failures.push(format!("trial {i}: {why}"));
        }

        let memo_s = run
            .host_stats
            .iter()
            .map(|h| h.memo_secs)
            .fold(0.0, f64::max);
        out.setups.push(Setup {
            build_s: run.partition_secs,
            transpose_s: 0.0,
            memo_s,
        });
        out.memo_bytes = run.host_stats.iter().map(|h| h.memo_bytes).sum();
        out.replication_factor = run.partition.replication_factor;
        out.max_host_edges = run.partition.max_host_edges;
        out.trials.push(trial);
    }
    out
}

/// The Gemini side of the comparison.
#[derive(Clone, Copy, Default, Debug)]
pub struct GeminiProbe {
    /// Fastest `algo_secs` of the repeats.
    pub algo_s: f64,
    pub wire_bytes: u64,
}

const GEMINI_REPEATS: usize = 3;

/// Runs the workload's algorithm on the Gemini baseline (always two hosts
/// over `MemoryTransport`; pagerank with the same fixed work, bfs from the
/// first source).
pub fn gemini(
    w: &Workload,
    graph: &Csr,
    sources: &[Gid],
    scale: Scale,
    spans: &Spans,
    root: Option<usize>,
) -> GeminiProbe {
    let algo = match w.algo {
        Algo::Pagerank => GeminiAlgo::Pagerank(DAMPING, 0.0, PAGERANK_ITERS),
        Algo::Bfs => GeminiAlgo::Bfs(sources[0]),
    };
    let mut probe = GeminiProbe {
        algo_s: f64::INFINITY,
        wire_bytes: 0,
    };
    let repeats = match scale {
        Scale::Full => GEMINI_REPEATS,
        Scale::Smoke => 1,
    };
    for _ in 0..repeats {
        let t = spans.open("gemini.run", root, None);
        let out = gluon_gemini::run(graph, 2, algo);
        spans.close(t);
        probe.algo_s = probe.algo_s.min(out.algo_secs);
        probe.wire_bytes = out.run.total_bytes;
    }
    probe
}
