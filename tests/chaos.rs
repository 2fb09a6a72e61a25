//! Chaos suite: every benchmark runs over a reliable-over-faulty transport
//! stack — frames dropped, duplicated, corrupted, and delayed by seeded
//! fault plans — and must produce results bit-identical to the fault-free
//! run, for every partition policy and several fault seeds. A total
//! blackout must surface as a [`NetError::PeerUnreachable`] at the sync
//! call site, never as a hang or a panic.
//!
//! Gated behind the default-on `chaos` feature so
//! `cargo test --no-default-features` can skip the (deliberately) slow
//! lossy-network matrix.

use gluon_suite::algos::driver::{self, DistOutcome};
use gluon_suite::algos::{Algorithm, DistConfig, EngineKind};
use gluon_suite::graph::{gen, max_out_degree_node, Csr};
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::{
    run_cluster_wrapped, Communicator, FaultAction, FaultCounters, FaultPlan, FaultRule,
    FaultyTransport, MemoryTransport, NetError, NetStats, ReliableTransport, RetryPolicy,
};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{
    DenseBitset, GluonContext, MinField, OptLevel, SyncError, SyncSpec, WriteLocation,
};
use gluon_suite::trace::Tracer;
use std::time::{Duration, Instant};

const HOSTS: usize = 3;
const SEEDS: [u64; 3] = [11, 1213, 987_654_321];
const POLICIES: [Policy; 3] = [Policy::Oec, Policy::Iec, Policy::Cvc];

/// The transport stack under test: go-back-N reliability over a seeded
/// fault injector over the in-memory wire.
type Stack = ReliableTransport<FaultyTransport<MemoryTransport>>;

type Wrap = Box<dyn Fn(MemoryTransport) -> Stack + Send + Sync>;

fn chaos_wrap(seed: u64, counters: &FaultCounters) -> Wrap {
    let counters = counters.clone();
    Box::new(move |ep| {
        ReliableTransport::over(FaultyTransport::new(
            ep,
            FaultPlan::lossy(seed),
            counters.clone(),
        ))
    })
}

/// Runs `chaotic` against `clean` for every policy × seed and insists on
/// bit-identical labels, ranks, and round counts, with provably injected
/// faults (the counters must show traffic was actually mangled).
fn check_chaos_matrix(
    name: &str,
    clean: impl Fn(&DistConfig) -> DistOutcome,
    chaotic: impl Fn(&DistConfig, Wrap) -> DistOutcome,
) {
    let (mut dropped, mut corrupted) = (0u64, 0u64);
    for policy in POLICIES {
        let cfg = DistConfig {
            hosts: HOSTS,
            policy,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let baseline = clean(&cfg);
        for seed in SEEDS {
            let counters = FaultCounters::new();
            let out = chaotic(&cfg, chaos_wrap(seed, &counters));
            let ctx = format!("{name} / {policy:?} / seed {seed}");
            assert!(counters.total() > 0, "{ctx}: no faults were injected");
            dropped += counters.dropped();
            corrupted += counters.corrupted();
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
    assert!(dropped > 0, "{name}: the matrix never dropped a frame");
    assert!(corrupted > 0, "{name}: the matrix never corrupted a frame");
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
        |cfg, wrap| {
            driver::Run::new(&g, Algorithm::Bfs)
                .config(cfg)
                .source(src)
                .pagerank(Default::default())
                .transport(wrap)
                .launch()
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
        |cfg, wrap| {
            driver::Run::new(&g, Algorithm::Sssp)
                .config(cfg)
                .source(src)
                .pagerank(Default::default())
                .transport(wrap)
                .launch()
        },
    );
}

#[test]
fn cc_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    check_chaos_matrix(
        "cc",
        |cfg| driver::Run::new(&g, Algorithm::Cc).config(cfg).launch(),
        |cfg, wrap| {
            driver::Run::new(&g, Algorithm::Cc)
                .config(cfg)
                .transport(wrap)
                .launch()
        },
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
        |cfg, wrap| {
            driver::Run::new(&g, Algorithm::Pagerank)
                .config(cfg)
                .transport(wrap)
                .launch()
        },
    );
}

#[test]
fn kcore_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    check_chaos_matrix(
        "kcore",
        |cfg| driver::Run::kcore(&g, 3).config(cfg).launch(),
        |cfg, wrap| {
            driver::Run::kcore(&g, 3)
                .config(cfg)
                .transport(wrap)
                .launch()
        },
    );
}

#[test]
fn betweenness_is_bit_identical_under_chaos() {
    let g = chaos_graph();
    let src = max_out_degree_node(&g);
    check_chaos_matrix(
        "bc",
        |cfg| driver::Run::betweenness(&g, src).config(cfg).launch(),
        |cfg, wrap| {
            driver::Run::betweenness(&g, src)
                .config(cfg)
                .transport(wrap)
                .launch()
        },
    );
}

/// A policy tuned so a dead peer is detected in tens of milliseconds, not
/// the production-grade seconds. The retry budget (2+4+8+16+20+20 = 70 ms)
/// is still long enough that a live peer descheduled on a loaded 2-core
/// box is not declared dead during the disarmed warm-up.
fn fail_fast() -> RetryPolicy {
    RetryPolicy {
        initial_rto: Duration::from_millis(2),
        backoff: 2,
        max_rto: Duration::from_millis(20),
        max_retries: 6,
        window: 8,
        recv_budget: Duration::from_millis(400),
    }
}

/// 100% drop: after a fault-free warm-up, every frame on the wire
/// vanishes. Every host must come back with `PeerUnreachable` blaming the
/// other side — quickly, with no hang and no panic.
#[test]
fn total_blackout_is_a_clean_error_at_the_collective() {
    let started = Instant::now();
    let (results, _) = run_cluster_wrapped(
        2,
        NetStats::new(2),
        |ep| {
            let faulty = FaultyTransport::new(
                ep,
                FaultPlan::none(7).with_rule(FaultRule::always(FaultAction::Drop)),
                FaultCounters::new(),
            );
            faulty.disarm(); // let the warm-up through
            ReliableTransport::with_policy(faulty, fail_fast())
        },
        |net| {
            let comm = Communicator::new(net);
            comm.try_barrier().expect("disarmed warm-up barrier");
            net.inner().arm();
            comm.try_all_reduce_u64(1, u64::wrapping_add)
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "blackout detection must fail fast, took {:?}",
        started.elapsed()
    );
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(v) => panic!("host {rank} all-reduced {v} through a dead wire"),
            Err(e @ NetError::PeerUnreachable { peer, .. }) => {
                assert_eq!(*peer, 1 - rank, "host {rank} blamed the wrong peer");
                assert_eq!(e.peer(), Some(1 - rank));
                assert!(e.to_string().contains("unreachable"), "unhelpful: {e}");
            }
            Err(other) => panic!("host {rank} got {other} instead of PeerUnreachable"),
        }
    }
    // Once a peer is declared dead, later operations fail immediately.
}

/// The same blackout surfacing through the substrate: partitioning runs
/// fault-free, then the wire dies, and the next sync call site returns the
/// error instead of hanging the BSP round.
#[test]
fn total_blackout_is_a_clean_error_at_the_sync_call_site() {
    let g = gen::rmat(6, 6, Default::default(), 5);
    let started = Instant::now();
    let (results, _) = run_cluster_wrapped(
        HOSTS,
        NetStats::new(HOSTS),
        |ep| {
            let faulty = FaultyTransport::new(
                ep,
                FaultPlan::none(13).with_rule(FaultRule::always(FaultAction::Drop)),
                FaultCounters::new(),
            );
            faulty.disarm();
            ReliableTransport::with_policy(faulty, fail_fast())
        },
        |net| {
            let comm = Communicator::new(net);
            let lg = partition_on_host(&g, Policy::Cvc, &comm);
            // Partitioning and the memoization handshake inside
            // GluonContext::new still run on a healthy wire.
            let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
            comm.try_barrier().expect("disarmed warm-up barrier");
            net.inner().arm();
            ctx.try_any_globally(comm.rank() == 0)
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "sync-site blackout detection took {:?}",
        started.elapsed()
    );
    for (rank, res) in results.iter().enumerate() {
        let err = res
            .as_ref()
            .expect_err("a sync over a dead wire must not succeed");
        let NetError::PeerUnreachable { peer, .. } = err else {
            panic!("host {rank} got {err} instead of PeerUnreachable");
        };
        assert!(*peer < HOSTS, "host {rank} blamed nonexistent host {peer}");
        assert_ne!(*peer, rank, "host {rank} blamed itself");
    }
}

/// Reordering without loss: a delay-and-duplicate-heavy plan (no drops,
/// no corruption) stresses sequence-number reassembly and duplicate
/// suppression specifically, on the algorithm with the most sync phases.
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
        let counters = FaultCounters::new();
        let out = driver::Run::new(&g, Algorithm::Pagerank)
            .config(&cfg)
            .transport(|ep| {
                ReliableTransport::over(FaultyTransport::new(
                    ep,
                    FaultPlan::none(seed)
                        .with_delay_rate(0.3)
                        .with_duplicate_rate(0.1),
                    counters.clone(),
                ))
            })
            .launch();
        assert!(counters.delayed() > 0, "seed {seed}: nothing was reordered");
        assert!(
            counters.duplicated() > 0,
            "seed {seed}: nothing was duplicated"
        );
        let got: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
        let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, want, "seed {seed}: ranks diverged under reordering");
        // The reliability layer had real work to do: either a duplicate was
        // suppressed or a gap was repaired (out.net counters are cluster-wide).
        assert!(
            out.net.dup_suppressed + out.net.retransmit_messages > 0,
            "seed {seed}: reliability layer saw no anomalies"
        );
    }
}

/// Corruption *past* the CRC: the reliability layer normally drops a
/// mangled frame before the codec ever sees it, so this test runs a bare
/// `FaultyTransport` (no reliability wrapper) that flips one bit in every
/// armed frame. Mangled sync payloads reach the decoder itself;
/// `try_sync` must surface them as [`SyncError::Decode`] — never a panic,
/// never a hang — and every incident must be booked once in the metrics
/// hub and once in the trace's event ring.
#[test]
fn corrupted_frames_surface_as_decode_errors_not_panics() {
    const ROUNDS: u32 = 12;
    let g = gen::rmat(6, 6, Default::default(), 5);
    let mut total_decode_errors = 0u64;
    for seed in SEEDS {
        let tracer = Tracer::new(2);
        let hub = MetricsHub::new(2);
        let counters = FaultCounters::new();
        let (results, _) = run_cluster_wrapped(
            2,
            NetStats::new(2),
            |ep| {
                let faulty = FaultyTransport::new(
                    ep,
                    FaultPlan::none(seed).with_corrupt_rate(1.0),
                    counters.clone(),
                );
                // Partitioning and the memoization handshake run clean;
                // only the sync payloads below get mangled.
                faulty.disarm();
                faulty
            },
            |net| {
                let comm = Communicator::with_tracer(net, tracer.clone());
                let lg = partition_on_host(&g, Policy::Cvc, &comm);
                let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI)
                    .with_metrics(hub.host(comm.rank()));
                comm.try_barrier().expect("disarmed warm-up barrier");
                net.arm();
                let n = lg.num_proxies();
                let mut vals = vec![u32::MAX; n as usize];
                // Reduce-only with no collectives while armed: both hosts
                // run the same fixed round count in lock-step whatever
                // errors occur, so nothing can deadlock.
                let spec = SyncSpec::reduce(WriteLocation::Any).named("chaos");
                let mut sync_errors = 0u64;
                for round in 0..ROUNDS {
                    let mut bits = DenseBitset::new(n);
                    for h in 0..2 {
                        for m in lg.mirrors_on(h) {
                            // All-equal values steer the encoder into the
                            // Same* modes, whose payloads are nearly all
                            // metadata — so the injected bit flips mostly
                            // land where the validators can see them.
                            vals[m.index()] = round * 31;
                            bits.set(m);
                        }
                    }
                    let mut field = MinField::new(&mut vals);
                    match ctx.try_sync(&spec, &mut field, &mut bits) {
                        Ok(()) => {}
                        Err(SyncError::Decode { peer, error }) => {
                            assert_eq!(peer, 1 - comm.rank(), "blamed the wrong peer");
                            // Every error renders without panicking.
                            let _ = error.to_string();
                            sync_errors += 1;
                        }
                        Err(SyncError::Net(e)) => {
                            panic!("bare transport cannot fail, got {e}")
                        }
                    }
                }
                sync_errors
            },
        );
        assert!(
            counters.corrupted() > 0,
            "seed {seed}: nothing was corrupted"
        );
        let surfaced: u64 = results.iter().sum();
        assert_eq!(
            hub.counter_across_hosts("decode_errors"),
            surfaced,
            "seed {seed}: hub decode_errors diverges from surfaced errors"
        );
        let traced = tracer
            .events()
            .iter()
            .filter(|e| e.name == "decode_error")
            .count() as u64;
        assert_eq!(
            traced, surfaced,
            "seed {seed}: decode_error events diverge from surfaced errors"
        );
        total_decode_errors += surfaced;
    }
    // One flipped bit per frame lands in decoded-as-garbage values some of
    // the time, but across all seeds and rounds the validators must have
    // caught real corruption.
    assert!(
        total_decode_errors > 0,
        "no corrupted frame was ever rejected by the decoder"
    );
}
