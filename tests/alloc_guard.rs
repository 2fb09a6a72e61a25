//! The allocation-metering guard: steady-state sync rounds perform **zero**
//! heap allocations.
//!
//! Requires the `alloc-meter` feature (`cargo test --release --features
//! alloc-meter --test alloc_guard`): this binary installs
//! [`gluon_meter::CountingAlloc`] as the global allocator, so every
//! allocation on every simulated host is counted.
//!
//! The measured workloads are the steady-state sync shapes of bfs and
//! pagerank — a min-field and a sum-field reconciled with a full
//! reduce+broadcast spec, every proxy dirty every round, constant values —
//! on the rmat16 stand-in with 4 hosts. Constant shape is the honest
//! steady-state contract: the arena recycles buffers *at* their high-water
//! capacity, so a round can only allocate if it is the largest the field
//! has ever seen (see `gluon::SyncArena`). The measurement protocol makes
//! the process-wide counter meaningful: every host runs the 2 warm-up
//! rounds, the cluster barriers, each host snapshots, runs the steady
//! rounds, and snapshots again — every snapshot window contains only
//! steady-state work from every host, so a zero delta on all hosts proves
//! no steady round anywhere allocated.
//!
//! The shapes run both without metrics and under a live `MetricsHub`:
//! the observability layer's publication path (atomic counters, interned
//! names, the per-round ledger fold) must also add zero steady-state
//! allocations. They also run under a real spawning pool, which the sync
//! never enters.
//!
//! The same binary holds the engine side to the same standard: a steady
//! push sweep over a warmed bin scratch allocates nothing, a whole warm
//! bfs — one BSP round per level under the Ligra push arm, one sub-round
//! per level under Galois — allocates a handful of run-level buffers
//! however many levels it runs, and a warm pagerank iteration (gather,
//! sync and vote) allocates nothing under any engine. The pagerank oracle
//! (`reference::pagerank`) is held to 24 bytes per vertex however many
//! edges and iterations it walks.
//!
//! Everything runs inside a single `#[test]` on purpose: the counters are
//! process-wide, and a concurrently scheduled test (even just its thread
//! spawn) would show up in the measurement window.

use gluon_meter::CountingAlloc;
use gluon_suite::graph::{gen, Csr, Lid};
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::{run_cluster_with_stats, Communicator, NetStats};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{
    DenseBitset, FieldSync, GluonContext, MinField, OptLevel, Pool, ReadLocation, SumField,
    SyncSpec, SyncValue, WriteLocation, ARENA_WARMUP_ROUNDS,
};
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HOSTS: usize = 4;
const STEADY_ROUNDS: usize = 8;

/// The rmat16 stand-in (shared: generation is expensive and irrelevant to
/// every measurement window).
fn graph() -> &'static Csr {
    static G: OnceLock<Csr> = OnceLock::new();
    G.get_or_init(|| gen::rmat(16, 16, Default::default(), 28))
}

/// Full reduce+broadcast specs: every proxy participates in both
/// patterns, so each round rebuilds every peer payload at a stable size —
/// the shape whose steady state the arena's send-slot rings fully absorb.
const DIST: SyncSpec = SyncSpec::full(WriteLocation::Destination, ReadLocation::Any).named("dist");
const RANK: SyncSpec =
    SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("rank");

/// What one host measured.
struct HostReport {
    /// Process-wide allocations during this host's steady window.
    window_allocs: u64,
    /// `SyncStats::steady_state_allocs`: allocations inside this host's
    /// metered (post-warm-up) sync calls.
    sync_allocs: u64,
}

/// One steady-shape round: rewrite every proxy to the same deterministic
/// value, mark every proxy dirty, sync. Nothing here may allocate.
fn round<F: FieldSync>(
    ctx: &mut GluonContext<'_, gluon_suite::net::MemoryTransport>,
    spec: &SyncSpec,
    field: &mut F,
    dirty: &mut DenseBitset,
    n: u32,
) {
    dirty.clear_all();
    for i in 0..n {
        dirty.set(Lid(i));
    }
    ctx.sync(spec, field, dirty);
}

/// Runs the guard workload on the cluster and returns per-host reports
/// plus the whole-cluster [`NetStats`]. `sync_round` wraps the values in
/// the workload's field and runs [`round`] (a closure because the field
/// borrows the value slice).
fn run_guard<V, S>(
    threads: usize,
    spawn: bool,
    hub: &MetricsHub,
    value_of: impl Fn(usize) -> V + Sync,
    sync_round: S,
) -> (Vec<HostReport>, NetStats)
where
    V: SyncValue,
    S: Fn(
            &mut GluonContext<'_, gluon_suite::net::MemoryTransport>,
            &mut [V],
            &mut DenseBitset,
            u32,
        ) + Sync,
{
    run_cluster_with_stats(HOSTS, NetStats::new(HOSTS), |net| {
        let comm = Communicator::new(net);
        let lg = partition_on_host(graph(), Policy::Cvc, &comm);
        let pool = if spawn {
            Pool::new(threads)
        } else {
            Pool::inline(threads)
        };
        // Metric registration (name interning, ring preallocation) happens
        // here, before the measured window: the steady-state publication
        // path is all atomics and in-place ring writes.
        let mut ctx = GluonContext::new(&lg, &comm, OptLevel::default())
            .with_pool(pool)
            .with_metrics(hub.host(comm.rank()));
        let n = lg.num_proxies();
        let mut vals: Vec<V> = (0..n as usize).map(&value_of).collect();
        let mut dirty = DenseBitset::new(n);
        for _ in 0..ARENA_WARMUP_ROUNDS {
            for (i, v) in vals.iter_mut().enumerate() {
                *v = value_of(i);
            }
            sync_round(&mut ctx, &mut vals, &mut dirty, n);
        }
        comm.barrier();
        let before = gluon_meter::snapshot();
        for _ in 0..STEADY_ROUNDS {
            for (i, v) in vals.iter_mut().enumerate() {
                *v = value_of(i);
            }
            sync_round(&mut ctx, &mut vals, &mut dirty, n);
        }
        let after = gluon_meter::snapshot();
        comm.barrier();
        HostReport {
            window_allocs: after.allocs_since(&before),
            sync_allocs: ctx.stats().steady_state_allocs,
        }
    })
}

fn assert_zero_allocs(name: &str, threads: usize, reports: &[HostReport], stats: &NetStats) {
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(
            r.window_allocs, 0,
            "{name}/{threads}t host {rank}: {} allocations in the steady window \
             (every steady-state round must be allocation-free)",
            r.window_allocs
        );
        assert_eq!(
            r.sync_allocs, 0,
            "{name}/{threads}t host {rank}: steady_state_allocs = {}",
            r.sync_allocs
        );
    }
    // The zero above must be earned by work, not by idleness: the rounds
    // moved traffic. (The metrics runs below also check that the arena's
    // send buffers were recycled.)
    assert!(
        stats.total_bytes() > 0,
        "{name}/{threads}t: no traffic — guard measured nothing"
    );
}

fn bfs_shape(threads: usize, spawn: bool, hub: &MetricsHub) -> (Vec<HostReport>, NetStats) {
    run_guard(
        threads,
        spawn,
        hub,
        |i| (i as u32) % 977,
        |ctx, vals, dirty, n| round(ctx, &DIST, &mut MinField::new(vals), dirty, n),
    )
}

fn pagerank_shape(threads: usize, spawn: bool, hub: &MetricsHub) -> (Vec<HostReport>, NetStats) {
    run_guard(
        threads,
        spawn,
        hub,
        |i| ((i % 13) as f64) * 0.5 + 1.0,
        |ctx, vals, dirty, n| round(ctx, &RANK, &mut SumField::new(vals), dirty, n),
    )
}

#[test]
fn steady_state_sync_is_allocation_free() {
    // Zero allocations per steady round, at 1 and 4 threads, for both
    // steady-state shapes. The receive cursor holds frames in the
    // recv-side arena tables, so filing and applying arrivals between
    // sends must not cost a single allocation.
    for threads in [1usize, 4] {
        let (reports, stats) = bfs_shape(threads, false, &MetricsHub::disabled());
        assert_zero_allocs("bfs", threads, &reports, &stats);
        let (reports, stats) = pagerank_shape(threads, false, &MetricsHub::disabled());
        assert_zero_allocs("pagerank", threads, &reports, &stats);
    }

    // The metrics layer must be free where it matters: with a live hub
    // publishing counters, per-mode histograms, and a ledger fold per
    // round, the steady window still allocates exactly nothing (counters
    // and gauges are atomics, names are interned at registration).
    for threads in [1usize, 4] {
        let hub = MetricsHub::new(HOSTS);
        let (reports, stats) = bfs_shape(threads, false, &hub);
        assert_zero_allocs("bfs+metrics", threads, &reports, &stats);
        assert!(
            hub.counter_across_hosts("sync_rounds") > 0
                && hub.counter_across_hosts("bytes_sent") > 0,
            "bfs+metrics/{threads}t: the hub recorded nothing — guard measured a dead layer"
        );
        assert!(
            hub.counter_across_hosts("pool_hits") > 0,
            "bfs+metrics/{threads}t: no pool hits recorded — arena not exercised"
        );
    }

    // The sync runs on the calling thread whatever the pool, so a real
    // spawning pool's sync allocates nothing either: no worker, channel or
    // join handle may appear on the sync path.
    let (reports, stats) = bfs_shape(4, true, &MetricsHub::disabled());
    assert_zero_allocs("bfs+spawning pool", 4, &reports, &stats);
    let (reports, stats) = pagerank_shape(4, true, &MetricsHub::disabled());
    assert_zero_allocs("pagerank+spawning pool", 4, &reports, &stats);

    // A whole bfs on a warm context: the Ligra push arm (no transpose, so
    // the direction heuristic can only push) runs one BSP round per level
    // of a 64x64 grid, the Galois arm one sub-round per level inside its
    // first round. The run's allocations are its result vector and its two
    // frontier bitsets plus the doubling of the frontier list it recycles
    // across rounds (Ligra: 8 in all, five of them the list growing to the
    // 64-member diagonal; Galois: 14) — a count that does not grow with
    // the 126 levels. One allocation per round or sub-round (a
    // label snapshot, a cloned frontier, a fresh changed set) would put
    // it in the hundreds.
    {
        use gluon_suite::algos::{apps::bfs, EngineKind};
        use gluon_suite::graph::Gid;
        use gluon_suite::net::run_cluster;
        let grid = gen::grid(64, 64);
        for engine in [EngineKind::Ligra, EngineKind::Galois] {
            for threads in [1usize, 4] {
                let (allocs, levels) = run_cluster(1, |net| {
                    let comm = Communicator::new(net);
                    let lg = partition_on_host(&grid, Policy::Oec, &comm);
                    let mut ctx = GluonContext::new(&lg, &comm, OptLevel::default())
                        .with_pool(Pool::inline(threads));
                    for _ in 0..ARENA_WARMUP_ROUNDS {
                        bfs(&lg, &mut ctx, Gid(0), engine);
                    }
                    let before = gluon_meter::snapshot();
                    let (dist, _) = bfs(&lg, &mut ctx, Gid(0), engine);
                    let after = gluon_meter::snapshot();
                    let levels = dist.iter().copied().max().expect("non-empty grid");
                    (after.allocs_since(&before), levels)
                })[0];
                assert_eq!(
                    levels, 126,
                    "{engine}/{threads}t: corner-to-corner distance"
                );
                assert!(
                    allocs <= 16,
                    "{engine}/{threads}t: a warm bfs of {levels} levels allocated {allocs} times \
                     (min-relax rounds must allocate nothing after warm-up)"
                );
            }
        }
    }

    // A warm pagerank *iteration* — gather, contribution reduce, rank
    // broadcast and residual vote — allocates nothing, under every engine
    // at 1 and 4 inline threads. A 2- and a 6-iteration run on the same
    // warm cluster allocate the same run-level buffers (rank vectors, dirty
    // sets), so the two windows must read the same count; each window is
    // bracketed by barriers so that it holds every host's whole run.
    {
        use gluon_suite::algos::apps::{pagerank, PagerankConfig};
        use gluon_suite::algos::EngineKind;
        use gluon_suite::net::run_cluster;
        let short = PagerankConfig {
            tolerance: 0.0,
            max_iters: 2,
            ..Default::default()
        };
        let long = PagerankConfig {
            max_iters: 6,
            ..short
        };
        for engine in [EngineKind::Galois, EngineKind::Ligra, EngineKind::Irgl] {
            for threads in [1usize, 4] {
                let windows = run_cluster(HOSTS, |net| {
                    let comm = Communicator::new(net);
                    let mut lg = partition_on_host(graph(), Policy::Cvc, &comm);
                    lg.build_transpose();
                    let mut ctx = GluonContext::new(&lg, &comm, OptLevel::default())
                        .with_pool(Pool::inline(threads));
                    for _ in 0..ARENA_WARMUP_ROUNDS {
                        pagerank(&lg, &mut ctx, long, engine);
                    }
                    let mut window = |cfg| {
                        comm.barrier();
                        let before = gluon_meter::snapshot();
                        comm.barrier();
                        let (_, iters) = pagerank(&lg, &mut ctx, cfg, engine);
                        assert_eq!(iters, cfg.max_iters);
                        comm.barrier();
                        let after = gluon_meter::snapshot();
                        comm.barrier();
                        after.allocs_since(&before)
                    };
                    (window(short), window(long))
                });
                let (short_allocs, long_allocs) = windows[0];
                assert_eq!(
                    long_allocs,
                    short_allocs,
                    "{engine}/{threads}t: 4 more warm pagerank iterations on {HOSTS} hosts \
                     allocated {} more times (an iteration must allocate nothing)",
                    long_allocs as i64 - short_allocs as i64
                );
            }
        }
    }

    // Edge-map hot path: with a warmed bin scratch and a stable frontier,
    // a steady push sweep allocates exactly nothing — bins, the chunk
    // schedule, the activation bitmap, and the activation list
    // all recycle at their high-water capacity.
    {
        use gluon_suite::engines::ligra;
        use gluon_suite::substrate::BinScratch;
        let lg = &gluon_suite::partition::partition_all(graph(), 1, Policy::Cvc)[0];
        let n = lg.num_proxies();
        let members: Vec<Lid> = (0..n).step_by(16).map(Lid).collect();
        let mut shares = vec![0.0f64; n as usize];
        for threads in [1usize, 4] {
            let pool = Pool::inline(threads);
            let mut bins: BinScratch<f64> = BinScratch::new();
            let mut sweep = || {
                shares.fill(0.0);
                ligra::vertex_map_push_pooled(
                    lg,
                    &members,
                    &pool,
                    &mut bins,
                    &mut shares,
                    |src, _shares, sink| {
                        for &dst in lg.out_targets(src) {
                            sink.push(Lid(dst), 0.25f64);
                        }
                    },
                    |_dst, v, slot| {
                        *slot += v;
                        true
                    },
                );
            };
            for _ in 0..ARENA_WARMUP_ROUNDS {
                sweep();
            }
            let before = gluon_meter::snapshot();
            for _ in 0..STEADY_ROUNDS {
                sweep();
            }
            let after = gluon_meter::snapshot();
            assert_eq!(
                after.allocs_since(&before),
                0,
                "edge_map/{threads}t: steady push sweeps allocated \
                 (the bin scratch must recycle everything post warm-up)"
            );
            assert!(
                !bins.activated().is_empty(),
                "edge_map/{threads}t: nothing activated — guard measured nothing"
            );
        }
    }

    // The pagerank oracle runs in O(V): the rank vector it returns and one
    // reused sum, 16 bytes per vertex, under a bound of 24. A transpose
    // (4 bytes per edge, 64 per vertex on rmat14) or a fresh vector per
    // iteration (8 bytes per vertex each) would fail both runs.
    {
        use gluon_suite::algos::reference;
        let g = gen::rmat(14, 16, Default::default(), 28);
        let bound = 3 * 8 * u64::from(g.num_nodes());
        for iters in [5u32, 50] {
            let before = gluon_meter::snapshot();
            let (ranks, done) = reference::pagerank(&g, 0.85, 0.0, iters);
            let after = gluon_meter::snapshot();
            assert_eq!(done, iters);
            assert_eq!(ranks.len(), g.num_nodes() as usize);
            let bytes = after.bytes_since(&before);
            assert!(
                bytes <= bound,
                "reference::pagerank over {iters} iterations of rmat14 requested {bytes} bytes \
                 (bound {bound}: 24 per vertex)"
            );
        }
    }
}
