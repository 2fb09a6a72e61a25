//! Chaos suite: every benchmark runs over a jittered wire — sends held
//! back and released out of order across streams — and each benchmark
//! with a supervised path also loses a host to a crash mid-run, on top of
//! the jitter. Results must be bit-identical to the clean run for every
//! partition policy and several seeds. A host's death must reach its
//! peers as a typed [`NetError::PeerDown`], at a collective and at a sync
//! call site alike, never as a hang or a panic.

use gluon_suite::algos::driver::{self, DistOutcome, Run};
use gluon_suite::algos::{Algorithm, DistConfig, EngineKind};
use gluon_suite::graph::{gen, max_out_degree_node, Csr};
use gluon_suite::net::{
    run_cluster_fallible, Communicator, CrashRule, FaultCounters, FaultPlan, FaultyTransport,
    JitterTransport, MemoryTransport, NetError, NetStats, Transport,
};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{GluonContext, OptLevel};
use std::time::{Duration, Instant};

const HOSTS: usize = 3;
const SEEDS: [u64; 3] = [11, 1213, 987_654_321];
const POLICIES: [Policy; 3] = [Policy::Oec, Policy::Iec, Policy::Cvc];

/// A jittered wire: every host's endpoint holds sends back and releases
/// them out of order across streams, seeded per host.
fn jitter(seed: u64) -> impl Fn(MemoryTransport) -> JitterTransport<MemoryTransport> + Send + Sync {
    move |ep| {
        let salt = ep.rank() as u64;
        JitterTransport::new(ep, seed ^ salt)
    }
}

/// `run` supervised over a jittered wire on which host `1 + seed % 2`
/// crashes at sync round 2 of the first attempt; checkpoints every round.
/// Asserts that the crash fired and that the result came from a recovery.
fn crash_under_jitter(run: Run<'_>, seed: u64) -> DistOutcome {
    let counters = FaultCounters::new();
    let shared = counters.clone();
    let victim = 1 + (seed % 2) as usize;
    let plan = FaultPlan::none(seed).with_crash(CrashRule::at(victim, 2));
    let wire = jitter(seed);
    let out = run
        .checkpoint_every(1)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(wire(ep), plan.for_attempt(attempt), shared.clone())
        })
        .try_launch()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(counters.crashed(), 1, "seed {seed}: the crash never fired");
    assert!(out.recoveries >= 1, "seed {seed}: no recovery");
    out
}

/// Runs `chaotic` against `clean` for every policy × seed and insists on
/// bit-identical labels, ranks, and round counts.
fn check_chaos_matrix(
    name: &str,
    clean: impl Fn(&DistConfig) -> DistOutcome,
    chaotic: impl Fn(&DistConfig, u64) -> DistOutcome,
) {
    for policy in POLICIES {
        let cfg = DistConfig {
            hosts: HOSTS,
            policy,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let baseline = clean(&cfg);
        for seed in SEEDS {
            let out = chaotic(&cfg, seed);
            let ctx = format!("{name} / {policy:?} / seed {seed}");
            assert_eq!(out.rounds, baseline.rounds, "{ctx}: round count diverged");
            assert_eq!(
                out.int_labels, baseline.int_labels,
                "{ctx}: integer labels diverged"
            );
            let got: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, want, "{ctx}: ranks diverged (bitwise)");
        }
    }
}

fn chaos_graph() -> Csr {
    gen::rmat(7, 8, Default::default(), 42)
}

#[test]
fn bfs_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    let src = max_out_degree_node(&g);
    check_chaos_matrix(
        "bfs",
        |cfg| driver::Run::new(&g, Algorithm::Bfs).config(cfg).launch(),
        |cfg, seed| {
            let run = driver::Run::new(&g, Algorithm::Bfs).config(cfg).source(src);
            crash_under_jitter(run, seed)
        },
    );
}

#[test]
fn sssp_is_bit_identical_under_chaos() {
    let g = gen::with_random_weights(&chaos_graph(), 50, 9);
    let src = max_out_degree_node(&g);
    check_chaos_matrix(
        "sssp",
        |cfg| driver::Run::new(&g, Algorithm::Sssp).config(cfg).launch(),
        |cfg, seed| {
            let run = driver::Run::new(&g, Algorithm::Sssp)
                .config(cfg)
                .source(src);
            crash_under_jitter(run, seed)
        },
    );
}

#[test]
fn cc_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    check_chaos_matrix(
        "cc",
        |cfg| driver::Run::new(&g, Algorithm::Cc).config(cfg).launch(),
        |cfg, seed| crash_under_jitter(driver::Run::new(&g, Algorithm::Cc).config(cfg), seed),
    );
}

#[test]
fn pagerank_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    check_chaos_matrix(
        "pagerank",
        |cfg| {
            driver::Run::new(&g, Algorithm::Pagerank)
                .config(cfg)
                .launch()
        },
        |cfg, seed| {
            let run = driver::Run::new(&g, Algorithm::Pagerank).config(cfg);
            crash_under_jitter(run, seed)
        },
    );
}

/// k-core has no supervised path, so its chaos is the jitter alone.
#[test]
fn kcore_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    check_chaos_matrix(
        "kcore",
        |cfg| driver::Run::kcore(&g, 3).config(cfg).launch(),
        |cfg, seed| {
            driver::Run::kcore(&g, 3)
                .config(cfg)
                .transport(jitter(seed))
                .launch()
        },
    );
}

/// The fault injector for the blackout tests: host 1 crashes once the
/// application reports sync round 1. The tests run under
/// `run_cluster_fallible`, so the victim's `Err` closes its endpoint.
fn host_one_dies(ep: MemoryTransport) -> FaultyTransport<MemoryTransport> {
    let plan = FaultPlan::none(7).with_crash(CrashRule::at(1, 1));
    FaultyTransport::new(ep, plan, FaultCounters::new())
}

/// After a healthy warm-up, host 1 dies and its endpoint closes: the
/// survivor's next collective must come back with `PeerDown` blaming
/// host 1 — quickly, with no hang and no panic.
#[test]
fn total_blackout_is_a_clean_error_at_the_collective() {
    let started = Instant::now();
    let (results, _) = run_cluster_fallible(2, NetStats::new(2), host_one_dies, |net, _| {
        let comm = Communicator::new(net);
        comm.try_barrier().expect("warm-up barrier");
        net.note_round(1);
        comm.try_all_reduce_u64(1, u64::wrapping_add)
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a dead peer must fail fast, took {:?}",
        started.elapsed()
    );
    match results[0] {
        Err(e @ NetError::PeerDown { peer: 1, round }) => {
            assert!(round <= 1, "stamped with a round never reached: {e}");
            assert!(e.to_string().contains("declared down"), "unhelpful: {e}");
        }
        other => panic!("host 0 got {other:?} instead of PeerDown"),
    }
    assert_eq!(results[1], Err(NetError::HostCrashed { host: 1, round: 1 }));
}

/// The same death surfacing through the substrate: partitioning and the
/// memoization handshake run on a healthy wire, then host 1 dies, and each
/// survivor's next sync call site returns a typed error naming a dead
/// peer instead of hanging the BSP round.
#[test]
fn total_blackout_is_a_clean_error_at_the_sync_call_site() {
    let g = gen::rmat(6, 6, Default::default(), 5);
    let started = Instant::now();
    let (results, _) =
        run_cluster_fallible(HOSTS, NetStats::new(HOSTS), host_one_dies, |net, _| {
            let comm = Communicator::new(net);
            let lg = partition_on_host(&g, Policy::Cvc, &comm);
            let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
            comm.try_barrier().expect("warm-up barrier");
            net.note_round(1);
            ctx.try_any_globally(comm.rank() == 0)
        });
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "sync-site death detection took {:?}",
        started.elapsed()
    );
    for (rank, res) in results.iter().enumerate() {
        let err = res
            .as_ref()
            .expect_err("a sync with a dead peer must not succeed");
        if rank == 1 {
            assert_eq!(*err, NetError::HostCrashed { host: 1, round: 1 });
            continue;
        }
        let NetError::PeerDown { peer, .. } = err else {
            panic!("host {rank} got {err} instead of PeerDown");
        };
        assert!(*peer < HOSTS, "host {rank} blamed nonexistent host {peer}");
        assert_ne!(*peer, rank, "host {rank} blamed itself");
    }
}

/// Reordering without a crash, on the algorithm with the most sync phases.
#[test]
fn heavy_reordering_alone_is_also_bit_identical() {
    let g = gen::rmat(6, 6, Default::default(), 5);
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Galois,
    };
    let baseline = driver::Run::new(&g, Algorithm::Pagerank)
        .config(&cfg)
        .launch();
    for seed in SEEDS {
        let out = driver::Run::new(&g, Algorithm::Pagerank)
            .config(&cfg)
            .transport(jitter(seed))
            .launch();
        let got: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
        let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, want, "seed {seed}: ranks diverged under reordering");
        assert_eq!(out.rounds, baseline.rounds, "seed {seed}: rounds diverged");
    }
}
