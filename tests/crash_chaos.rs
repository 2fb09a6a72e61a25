//! Crash-chaos suite: hosts die mid-computation and the supervisor behind
//! [`Run::try_launch`] must bring the cluster back — restore every host
//! from the latest complete checkpoint epoch, replay forward, and land on
//! results bit-identical to the crash-free run. A crashed host's endpoint
//! closes, so its peers learn of the death at their next blocking
//! operation. Unrecoverable situations (every host pinned dead, decode
//! failures) must surface as *typed* errors within a deadline — never a
//! hang, never a panic.

use bytes::Bytes;
use gluon_suite::algos::{Algorithm, DistConfig, EngineKind, FailurePolicy, Run, RunError};
use gluon_suite::graph::{gen, Csr};
use gluon_suite::net::{
    CrashRule, Envelope, FaultCounters, FaultPlan, FaultyTransport, MemoryTransport, NetError,
    NetStats, Transport, MAX_USER_TAG,
};
use gluon_suite::partition::Policy;
use gluon_suite::substrate::{OptLevel, SyncError};
use gluon_suite::trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const HOSTS: usize = 3;
const SEEDS: [u64; 3] = [3, 77, 4242];
const POLICIES: [Policy; 2] = [Policy::Oec, Policy::Cvc];

fn chaos_graph() -> Csr {
    gen::rmat(7, 8, Default::default(), 42)
}

/// The tentpole matrix: algorithm × {OEC, CVC} × seeds, one host killed
/// mid-run at a chosen sync round. The supervised run must see the closed
/// endpoint, restore from the latest complete checkpoint epoch, replay,
/// and produce labels/ranks/round-counts bit-identical to the crash-free
/// baseline.
fn check_recovery_matrix(algo: Algorithm, engine: EngineKind, crash_round: u64) {
    let g = chaos_graph();
    for policy in POLICIES {
        let cfg = DistConfig {
            hosts: HOSTS,
            policy,
            opts: OptLevel::OSTI,
            engine,
        };
        let baseline = Run::new(&g, algo).config(&cfg).launch();
        assert!(
            u64::from(baseline.rounds) >= crash_round.min(4),
            "{algo:?}/{policy:?}: baseline too short to host the crash"
        );
        for (i, seed) in SEEDS.into_iter().enumerate() {
            let victim = 1 + (i % (HOSTS - 1));
            let counters = FaultCounters::new();
            let shared = counters.clone();
            let plan = FaultPlan::none(seed).with_crash(CrashRule::at(victim, crash_round));
            let tracer = Tracer::new(HOSTS);
            let out = Run::new(&g, algo)
                .config(&cfg)
                .tracer(&tracer)
                .checkpoint_every(2)
                .transport_per_attempt(move |ep, attempt| {
                    FaultyTransport::new(ep, plan.for_attempt(attempt), shared.clone())
                })
                .try_launch()
                .unwrap_or_else(|e| panic!("{algo:?}/{policy:?}/seed {seed}: {e}"));
            let ctx = format!("{algo:?} / {policy:?} / seed {seed}");
            assert!(counters.crashed() >= 1, "{ctx}: the crash never fired");
            assert!(out.recoveries >= 1, "{ctx}: result came without recovery");
            assert!(!out.degraded, "{ctx}: full recovery must not be degraded");
            let events = tracer.events();
            assert!(
                events.iter().any(|e| e.name == "recovery"),
                "{ctx}: no recovery event was traced"
            );
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

#[test]
fn bfs_recovers_bit_identical_from_a_single_host_crash() {
    check_recovery_matrix(Algorithm::Bfs, EngineKind::Ligra, 3);
}

#[test]
fn cc_recovers_bit_identical_from_a_single_host_crash() {
    check_recovery_matrix(Algorithm::Cc, EngineKind::Ligra, 3);
}

#[test]
fn pagerank_recovers_bit_identical_from_a_single_host_crash() {
    // Sync round 20 is mid-iteration 7 of ~53; checkpoints cover epochs
    // 2, 4, and 6 by then, so the recovery genuinely restores state
    // instead of recomputing from scratch.
    check_recovery_matrix(Algorithm::Pagerank, EngineKind::Galois, 20);
}

/// A crash-free supervised run is the infallible launch, bit for bit —
/// including with checkpointing enabled (snapshots must observe, never
/// perturb).
#[test]
fn supervised_crash_free_run_matches_launch_bitwise() {
    let g = chaos_graph();
    for algo in [Algorithm::Bfs, Algorithm::Cc, Algorithm::Pagerank] {
        let cfg = DistConfig {
            hosts: HOSTS,
            policy: Policy::Cvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let baseline = Run::new(&g, algo).config(&cfg).launch();
        let out = Run::new(&g, algo)
            .config(&cfg)
            .checkpoint_every(2)
            .try_launch()
            .unwrap_or_else(|e| panic!("{algo:?}: crash-free supervised run failed: {e}"));
        assert_eq!(out.recoveries, 0, "{algo:?}: phantom recovery");
        assert!(!out.degraded, "{algo:?}: phantom degradation");
        assert_eq!(out.rounds, baseline.rounds, "{algo:?}: rounds diverged");
        assert_eq!(out.int_labels, baseline.int_labels, "{algo:?}");
        let got: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
        let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, want, "{algo:?}: ranks diverged (bitwise)");
    }
}

/// Two of three hosts pinned dead on *every* attempt: recovery cannot
/// succeed, and the supervisor must say so with a typed error — promptly
/// (bounded attempts, each ended by the closed endpoints), not by hanging.
#[test]
fn unrecoverable_multi_crash_returns_a_typed_error_within_the_timeout() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let plan = FaultPlan::none(9)
        .with_crash(CrashRule::at(1, 2).every_attempt())
        .with_crash(CrashRule::at(2, 3).every_attempt());
    let started = Instant::now();
    let err = Run::new(&g, Algorithm::Cc)
        .config(&cfg)
        .checkpoint_every(1)
        .max_recoveries(1)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), FaultCounters::new())
        })
        .try_launch()
        .expect_err("a permanently dead majority cannot be recovered from");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "unrecoverable failure took {elapsed:?} to surface"
    );
    let RunError::Unrecoverable { attempts, last } = err else {
        panic!("expected Unrecoverable, got {err}");
    };
    assert_eq!(attempts, 2, "max_recoveries(1) allows exactly two attempts");
    let SyncError::Net(net) = last else {
        panic!("expected a network failure, got {last}");
    };
    assert!(net.is_peer_failure(), "blamed a non-failure: {net}");
}

/// `AbortClean`: the first detected failure ends the run with a typed
/// error and no restart is attempted.
#[test]
fn abort_clean_stops_at_the_first_failure() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Oec,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let counters = FaultCounters::new();
    let shared = counters.clone();
    let plan = FaultPlan::none(5).with_crash(CrashRule::at(1, 2));
    let err = Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .checkpoint_every(1)
        .on_failure(FailurePolicy::AbortClean)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), shared.clone())
        })
        .try_launch()
        .expect_err("AbortClean must not mask the failure");
    let RunError::Aborted { host, error } = err else {
        panic!("expected Aborted, got {err}");
    };
    assert!(host < HOSTS, "blamed nonexistent host {host}");
    let SyncError::Net(net) = error else {
        panic!("expected a network failure, got {error}");
    };
    assert!(net.is_peer_failure(), "blamed a non-failure: {net}");
    assert_eq!(
        counters.crashed(),
        1,
        "AbortClean must not relaunch (the crash would have re-armed)"
    );
}

/// `ContinueStale`: with the victim pinned dead on every attempt, the
/// supervisor serves the last complete checkpoint epoch as a degraded
/// outcome. Stale min-relaxation labels over-approximate the fixpoint, so
/// every served label must be >= the converged one.
#[test]
fn continue_stale_serves_the_last_checkpoint_as_degraded() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let baseline = Run::new(&g, Algorithm::Bfs).config(&cfg).launch();
    assert!(
        baseline.rounds >= 3,
        "graph converged too fast for the test"
    );
    let plan = FaultPlan::none(21).with_crash(CrashRule::at(2, 3).every_attempt());
    let out = Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .checkpoint_every(1)
        .on_failure(FailurePolicy::ContinueStale)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), FaultCounters::new())
        })
        .try_launch()
        .expect("ContinueStale with a complete epoch must produce an outcome");
    assert!(out.degraded, "stale outcome must be marked degraded");
    assert!(out.recoveries >= 1, "degradation counts as a recovery");
    assert!(
        out.rounds < baseline.rounds,
        "stale rounds {} must predate convergence at {}",
        out.rounds,
        baseline.rounds
    );
    assert!(out.rounds >= 1, "at least one epoch must have been served");
    assert_eq!(out.int_labels.len(), baseline.int_labels.len());
    for (node, (&stale, &fixed)) in out.int_labels.iter().zip(&baseline.int_labels).enumerate() {
        assert!(
            stale >= fixed,
            "node {node}: stale label {stale} undercuts the fixpoint {fixed}"
        );
    }
}

/// A peer's death reaches the other host as a typed error carrying the
/// sync round it happened at, and reaches the `try_launch` caller
/// promptly.
#[test]
fn peer_death_surfaces_with_the_offending_round() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: 2,
        policy: Policy::Oec,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let plan = FaultPlan::none(13).with_crash(CrashRule::at(1, 2));
    let started = Instant::now();
    let err = Run::new(&g, Algorithm::Bfs)
        .config(&cfg)
        .on_failure(FailurePolicy::AbortClean)
        .transport_per_attempt(move |ep, attempt| {
            FaultyTransport::new(ep, plan.for_attempt(attempt), FaultCounters::new())
        })
        .try_launch()
        .expect_err("a dead peer cannot produce a result");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "peer death took {elapsed:?} to surface"
    );
    let RunError::Aborted { host: 0, error } = err else {
        panic!("expected host 0 to abort on its peer's death, got {err}");
    };
    let SyncError::Net(net @ NetError::PeerDown { peer: 1, round }) = error else {
        panic!("expected PeerDown blaming host 1, got {error}");
    };
    assert!(round >= 1, "the error must carry the offending sync round");
    assert_eq!(net.round(), Some(round));
}

/// Truncates every armed sync-phase payload in flight, deterministically
/// producing undecodable frames on an unprotected wire. Setup traffic
/// (partitioning, memoization handshake) runs before any `note_round`, so
/// it passes untouched.
#[derive(Debug)]
struct TruncatingTransport {
    inner: MemoryTransport,
    active: AtomicBool,
}

impl TruncatingTransport {
    fn new(inner: MemoryTransport) -> TruncatingTransport {
        TruncatingTransport {
            inner,
            active: AtomicBool::new(false),
        }
    }
}

impl Transport for TruncatingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        // Only user-range (sync-phase) payloads are mangled; collectives
        // keep working so the BSP rounds stay in lock-step and the decode
        // error is the only anomaly hosts can see.
        let payload = if self.active.load(Ordering::SeqCst)
            && dst != self.rank()
            && tag < MAX_USER_TAG
            && payload.len() > 1
        {
            Bytes::copy_from_slice(&payload[..payload.len() / 2])
        } else {
            payload
        };
        self.inner.try_send(dst, tag, payload)
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        self.inner.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        self.inner.try_recv_any(tag)
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        self.inner.try_recv_any_now(tag)
    }

    fn note_round(&self, round: u64) {
        if round >= 1 {
            self.active.store(true, Ordering::SeqCst);
        }
        self.inner.note_round(round);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

/// A payload that cannot decode is a deterministic failure: replaying the
/// same rounds reproduces it, so the supervisor must hand the caller a
/// typed [`RunError::Host`] wrapping [`SyncError::Decode`] instead of
/// burning the recovery budget — and certainly instead of panicking or
/// hanging.
#[test]
fn undecodable_payloads_reach_the_caller_as_typed_decode_errors() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let started = Instant::now();
    let err = Run::new(&g, Algorithm::Cc)
        .config(&cfg)
        .checkpoint_every(2)
        .transport(TruncatingTransport::new)
        .try_launch()
        .expect_err("truncated payloads must not produce a result");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "decode failure took {elapsed:?} to surface"
    );
    let RunError::Host { host, error } = err else {
        panic!("expected Host, got {err}");
    };
    assert!(host < HOSTS, "blamed nonexistent host {host}");
    let SyncError::Decode { peer, error: cause } = error else {
        panic!("expected Decode, got {error}");
    };
    assert!(peer < HOSTS, "blamed nonexistent peer {peer}");
    let rendered = cause.to_string();
    assert!(!rendered.is_empty(), "decode cause must render");
}

/// Workloads without a fallible path are refused up front with a typed
/// error, not a panic deep inside the cluster.
#[test]
fn unsupported_workloads_get_a_typed_error() {
    let g = chaos_graph();
    match Run::kcore(&g, 3).try_launch() {
        Err(RunError::Unsupported(what)) => assert_eq!(what, "kcore"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let src = gluon_suite::graph::max_out_degree_node(&g);
    match Run::betweenness(&g, src).try_launch() {
        Err(RunError::Unsupported(what)) => assert_eq!(what, "betweenness"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// As [`TruncatingTransport`], but only payloads bound for host 0 are cut:
/// host 0 alone meets an undecodable frame, and its two siblings wait on
/// each other unless host 0's failure reaches them.
#[derive(Debug)]
struct TruncatingToHostZero(TruncatingTransport);

impl Transport for TruncatingToHostZero {
    fn rank(&self) -> usize {
        self.0.rank()
    }

    fn world_size(&self) -> usize {
        self.0.world_size()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        if dst == 0 {
            self.0.try_send(dst, tag, payload)
        } else {
            self.0.inner.try_send(dst, tag, payload)
        }
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        self.0.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        self.0.try_recv_any(tag)
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        self.0.try_recv_any_now(tag)
    }

    fn note_round(&self, round: u64) {
        self.0.note_round(round);
    }

    fn stats(&self) -> &NetStats {
        self.0.stats()
    }
}

/// One host of three failing under the unsupervised [`Run::launch`] must
/// end the run with a panic in the caller that names the host and its
/// typed error — not leave the two survivors parked on each other. The
/// launch runs on a helper thread so a hang fails this test, not the suite.
#[test]
fn launch_panics_naming_the_failed_host_instead_of_hanging() {
    let g = chaos_graph();
    let cfg = DistConfig {
        hosts: HOSTS,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Ligra,
    };
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Run::new(&g, Algorithm::Cc)
                .config(&cfg)
                .transport(|ep| TruncatingToHostZero(TruncatingTransport::new(ep)))
                .launch()
        }));
        let message = launched.map(|out| out.rounds).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        let _ = done.send(message);
    });
    let message = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("launch() hung after one of three hosts failed")
        .expect_err("payloads truncated on their way to host 0 cannot produce a result");
    assert!(
        message.contains("host 0") && message.contains("undecodable"),
        "the panic must name host 0 and its decode error, got: {message}"
    );
}
