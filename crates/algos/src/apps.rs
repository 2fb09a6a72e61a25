//! The distributed benchmark applications: bfs, sssp, cc, pagerank.
//!
//! Each function is the per-host body of an SPMD program: it computes on
//! one [`LocalGraph`] with the chosen engine and synchronizes through the
//! given [`GluonContext`]. Labels are returned per *proxy*; masters hold
//! the canonical values (use [`crate::driver`] to gather global vectors).
//!
//! Local compute runs on the context's [`gluon::Pool`] wherever a kernel
//! is wide enough to chunk; every kernel keeps the map/combine discipline
//! (parallel candidate sweep over immutable state, sequential
//! in-chunk-order apply) so results are bit-identical at any thread count —
//! including the floating-point sums in pagerank.

use crate::minrelax;
use crate::reference::INFINITY;
use crate::EngineKind;
use gluon::{
    CheckpointSnapshot, DenseBitset, FieldSync, GluonContext, MinField, ReadLocation, SumField,
    SyncError, SyncSpec, SyncValue, WriteLocation,
};
use gluon_engines::galois;
use gluon_engines::irgl::IrglEngine;
use gluon_engines::ligra::{self, VertexSubset};
use gluon_graph::{Gid, Lid};
use gluon_net::Transport;
use gluon_partition::LocalGraph;

/// Broadcast-only field: `set`/`reduce` overwrite (last writer wins),
/// `reset` keeps the value. Used for fields written only at masters and
/// shipped master → mirror (e.g. pagerank ranks).
#[derive(Debug)]
pub struct CopyField<'a, T> {
    data: &'a mut [T],
}

impl<'a, T> CopyField<'a, T> {
    /// Wraps the label slice (one entry per proxy).
    pub fn new(data: &'a mut [T]) -> Self {
        CopyField { data }
    }
}

impl<T: SyncValue> FieldSync for CopyField<'_, T> {
    type Value = T;

    fn extract(&self, lid: Lid) -> T {
        self.data[lid.index()]
    }

    fn reduce(&mut self, lid: Lid, value: T) -> bool {
        if self.data[lid.index()] == value {
            false
        } else {
            self.data[lid.index()] = value;
            true
        }
    }

    fn reset(&mut self, _lid: Lid) {}

    fn set(&mut self, lid: Lid, value: T) {
        self.data[lid.index()] = value;
    }
}

// The sync patterns the applications below use, named so the tracer's
// per-field wire-mode histogram reads as field names instead of Rust type
// paths.
const OUT_DEGREE: SyncSpec =
    SyncSpec::full(WriteLocation::Source, ReadLocation::Source).named("out_degree");
const CONTRIB: SyncSpec = SyncSpec::reduce(WriteLocation::Destination).named("contrib");
const RANK: SyncSpec = SyncSpec::broadcast(ReadLocation::Source).named("rank");
const DEGREE: SyncSpec = SyncSpec::reduce(WriteLocation::Source).named("degree");
const ALIVE: SyncSpec = SyncSpec::broadcast(ReadLocation::Any).named("alive");
const TRIM: SyncSpec = SyncSpec::reduce(WriteLocation::Destination).named("trim");
const TO_PUSH: SyncSpec = SyncSpec::broadcast(ReadLocation::Source).named("to_push");
const RESIDUAL: SyncSpec = SyncSpec::reduce(WriteLocation::Destination).named("residual");
const SIGMA_BCAST: SyncSpec = SyncSpec::broadcast(ReadLocation::Any).named("sigma");
const DIST_BOTH: SyncSpec =
    SyncSpec::full(WriteLocation::Destination, ReadLocation::Any).named("dist");
const SIGMA_REDUCE: SyncSpec = SyncSpec::reduce(WriteLocation::Destination).named("sigma");
const DELTA_REDUCE: SyncSpec = SyncSpec::reduce(WriteLocation::Source).named("delta");
const DELTA_BCAST: SyncSpec = SyncSpec::broadcast(ReadLocation::Destination).named("delta");
const DIST_PUSH: SyncSpec =
    SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("dist");

/// Distributed BFS from `source`. Returns per-proxy distances and the
/// number of BSP rounds.
pub fn bfs<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
    engine: EngineKind,
) -> (Vec<u32>, u32) {
    try_bfs(lg, ctx, source, engine).unwrap_or_else(|e| panic!("bfs failed: {e}"))
}

/// As [`bfs`], surfacing sync failures as errors and honoring the
/// context's checkpoint/restore configuration.
///
/// # Errors
///
/// Returns the first [`SyncError`] a round's communication hits; local
/// state is then partially reconciled and must be discarded.
pub fn try_bfs<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
    engine: EngineKind,
) -> Result<(Vec<u32>, u32), SyncError> {
    let n = lg.num_proxies();
    let mut dist = vec![INFINITY; n as usize];
    let mut active = DenseBitset::new(n);
    if let Some(s) = lg.lid(source) {
        dist[s.index()] = 0;
        active.set(s);
    }
    let rounds = minrelax::try_run(lg, ctx, &mut dist, active, engine, |l, _| {
        l.saturating_add(1)
    })?;
    Ok((dist, rounds))
}

/// Distributed SSSP from `source` (weight 1 on unweighted edges). Returns
/// per-proxy distances and the number of BSP rounds.
pub fn sssp<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
    engine: EngineKind,
) -> (Vec<u32>, u32) {
    try_sssp(lg, ctx, source, engine).unwrap_or_else(|e| panic!("sssp failed: {e}"))
}

/// As [`sssp`], surfacing sync failures as errors and honoring the
/// context's checkpoint/restore configuration.
///
/// # Errors
///
/// Returns the first [`SyncError`] a round's communication hits.
pub fn try_sssp<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
    engine: EngineKind,
) -> Result<(Vec<u32>, u32), SyncError> {
    let n = lg.num_proxies();
    let mut dist = vec![INFINITY; n as usize];
    let mut active = DenseBitset::new(n);
    if let Some(s) = lg.lid(source) {
        dist[s.index()] = 0;
        active.set(s);
    }
    let rounds = minrelax::try_run(lg, ctx, &mut dist, active, engine, |l, w| {
        l.saturating_add(w)
    })?;
    Ok((dist, rounds))
}

/// Distributed connected components by label propagation. The input
/// partitioning must be of the *symmetrized* graph (see
/// [`crate::reference::symmetrize`]); labels converge to each component's
/// minimum global id. Returns per-proxy labels and the round count.
pub fn cc<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    engine: EngineKind,
) -> (Vec<u32>, u32) {
    try_cc(lg, ctx, engine).unwrap_or_else(|e| panic!("cc failed: {e}"))
}

/// As [`cc`], surfacing sync failures as errors and honoring the
/// context's checkpoint/restore configuration.
///
/// # Errors
///
/// Returns the first [`SyncError`] a round's communication hits.
pub fn try_cc<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    engine: EngineKind,
) -> Result<(Vec<u32>, u32), SyncError> {
    let n = lg.num_proxies();
    // Every proxy starts with its own global id and every node is active.
    let mut label: Vec<u32> = (0..n).map(|l| lg.gid(Lid(l)).0).collect();
    let mut active = DenseBitset::new(n);
    active.set_all();
    let rounds = minrelax::try_run(lg, ctx, &mut label, active, engine, |l, _| l)?;
    Ok((label, rounds))
}

/// Pagerank configuration (the paper: damping 0.85, tolerance 1e-6 or 1e-9,
/// at most 100 iterations).
#[derive(Clone, Copy, Debug)]
pub struct PagerankConfig {
    /// Damping factor d.
    pub damping: f64,
    /// Stop when the global L1 rank change drops below this.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: u32,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        PagerankConfig {
            damping: 0.85,
            tolerance: 1e-6,
            max_iters: 100,
        }
    }
}

/// Distributed pull-style pagerank (the D-Galois/D-IrGL formulation).
/// Returns per-proxy ranks and the iteration count.
///
/// Requires [`LocalGraph::build_transpose`] to have run (the pull loop
/// walks local in-edges).
pub fn pagerank<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    cfg: PagerankConfig,
    engine: EngineKind,
) -> (Vec<f64>, u32) {
    try_pagerank(lg, ctx, cfg, engine).unwrap_or_else(|e| panic!("pagerank failed: {e}"))
}

/// As [`pagerank`], surfacing sync failures as errors and honoring the
/// context's checkpoint/restore configuration.
///
/// A checkpoint stores the full per-proxy rank vector (masters *and*
/// mirrors — mirror ranks are genuine per-host state, the residue of past
/// broadcasts) keyed by the iteration number. `contrib` is all-zero at
/// every iteration boundary (masters are zeroed in the apply loop, mirrors
/// are reset by the reduce sync), so it needs no checkpointing; global
/// out-degrees are recomputed by phase 0 on every attempt because they are
/// a deterministic function of the partition.
///
/// # Errors
///
/// Returns the first [`SyncError`] a round's communication hits.
pub fn try_pagerank<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    cfg: PagerankConfig,
    engine: EngineKind,
) -> Result<(Vec<f64>, u32), SyncError> {
    let n = lg.num_proxies() as usize;
    let total_nodes = f64::from(lg.global_nodes().max(1));
    let base = (1.0 - cfg.damping) / total_nodes;

    let mut rank = vec![1.0 / total_nodes; n];
    let mut iters = 0u32;
    if let Some(snap) = ctx.restore_snapshot() {
        let saved = snap
            .values::<f64>("rank")
            .expect("checkpoint missing rank field");
        assert_eq!(saved.len(), n, "checkpoint from another graph");
        rank = saved;
        iters = u32::try_from(snap.round()).expect("iteration fits u32");
    }
    if ctx.finalize_only() {
        // ContinueStale degradation: masters already hold the restored
        // epoch's canonical ranks; skip phase 0 and the iteration loop
        // entirely so no communication happens at all.
        return Ok((rank, iters));
    }

    // Phase 0: assemble *global* out-degrees at every proxy. Local
    // out-degrees are partial sums (vertex-cuts split a node's out-edges),
    // so reduce them at masters, then broadcast the totals to every proxy
    // that will be read as an edge source.
    let mut gdeg: Vec<u32> = (0..n).map(|l| lg.out_degree(Lid(l as u32))).collect();
    let mut deg_bits = DenseBitset::new(lg.num_proxies());
    deg_bits.set_all();
    {
        let mut field = SumField::new(&mut gdeg);
        ctx.try_sync(&OUT_DEGREE, &mut field, &mut deg_bits)?;
    }

    let mut contrib = vec![0.0f64; n];
    // What every out-edge of source slot `s` carries this iteration:
    // `rank[u] / max(gdeg[u], 1)` for its proxy `u`, divided once per
    // source instead of once per edge, so the sweep below reads one `u32`
    // and one `f64` per edge. One entry per proxy with a local out-edge,
    // the only proxies an in-edge names, keeps the array cache-sized.
    let mut outgoing = vec![0.0f64; lg.sources().len()];
    // The gather writes every proxy with a local in-edge each iteration,
    // so that set is the reduce's dirty set, copied in once per iteration.
    let mut contrib_bits = DenseBitset::new(lg.num_proxies());
    let mut rank_bits = DenseBitset::new(lg.num_proxies());
    let pool = ctx.pool().clone();
    // Checked out for the whole iteration loop; an error path drops the
    // scratch instead of pooling it (the supervisor rebuilds the context).
    let mut bins = ctx.bin_pool().checkout::<f64>("pagerank_contrib");
    let mut device = IrglEngine::new(Default::default());
    while iters < cfg.max_iters {
        iters += 1;
        for (out, &u) in outgoing.iter_mut().zip(lg.sources()) {
            let u = u as usize;
            *out = rank[u] / f64::from(gdeg[u].max(1));
        }
        // Pull phase: every destination with a local in-edge folds its
        // in-sources from 0.0 in in-edge order and assigns its own slot, so
        // the f64 sums are bit-identical at any thread count and under
        // every engine. A proxy without a local in-edge is not visited and
        // its slot holds 0.0: the apply loop zeroes every master, and no
        // mirror outside the dirty set is ever written. Nothing is
        // activated: the dirty set is the in-edge bits.
        let gather = |v: Lid, slot: &mut f64| {
            *slot = lg
                .in_slots(v)
                .iter()
                .fold(0.0, |sum, &s| sum + outgoing[s as usize]);
            false
        };
        match engine {
            EngineKind::Irgl => device.kernel_pull_all(lg, &pool, &mut bins, &mut contrib, gather),
            EngineKind::Galois | EngineKind::Ligra => {
                ligra::vertex_map_pull_pooled(lg, &pool, &mut bins, &mut contrib, gather);
            }
        }
        contrib_bits.copy_from_words(lg.in_edge_words());
        // Reduce partial sums to masters; the contributions are consumed
        // there, so no broadcast of `contrib` is ever needed.
        {
            let mut field = SumField::new(&mut contrib);
            ctx.try_sync(&CONTRIB, &mut field, &mut contrib_bits)?;
        }
        // Apply at masters and measure the local L1 change.
        rank_bits.clear_all();
        let mut local_delta = 0.0f64;
        for m in lg.masters() {
            let next = base + cfg.damping * contrib[m.index()];
            let delta = (next - rank[m.index()]).abs();
            if delta > 0.0 {
                rank[m.index()] = next;
                rank_bits.set(m);
            }
            local_delta += delta;
            contrib[m.index()] = 0.0;
        }
        // Ship canonical ranks to the mirrors that will be read as edge
        // sources next round.
        {
            let mut field = CopyField::new(&mut rank);
            ctx.try_sync(&RANK, &mut field, &mut rank_bits)?;
        }
        let done = ctx.try_sum_globally(local_delta)? < cfg.tolerance;
        if done {
            break;
        }
        if ctx.checkpoint_due(u64::from(iters)) {
            let mut snap = CheckpointSnapshot::new(u64::from(iters));
            snap.put_values("rank", &rank);
            ctx.save_checkpoint(snap);
        }
    }
    ctx.bin_pool().checkin("pagerank_contrib", bins);
    Ok((rank, iters))
}

/// Distributed k-core membership: which nodes survive in the k-core of the
/// (symmetrized) input. Returns per-proxy alive flags (1 = in the k-core)
/// and the number of peeling rounds.
///
/// This benchmark is part of the real D-Galois suite; it exercises a sync
/// pattern the four paper benchmarks do not: a broadcast-only flag field
/// (`alive`) combined with a reduce-only accumulator (`trim`), both per
/// round.
///
/// The partitioning must be of the symmetrized graph (every neighbor
/// relation present in both directions, deduplicated).
pub fn kcore<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    k: u32,
    engine: EngineKind,
) -> (Vec<u32>, u32) {
    let n = lg.num_proxies() as usize;
    // Global (undirected) degree at every master, via the same partial-sum
    // reduction pagerank uses for out-degrees.
    let mut degree: Vec<u32> = (0..n).map(|l| lg.out_degree(Lid(l as u32))).collect();
    let mut deg_bits = DenseBitset::new(lg.num_proxies());
    deg_bits.set_all();
    {
        let mut field = SumField::new(&mut degree);
        ctx.sync(&DEGREE, &mut field, &mut deg_bits);
    }
    let mut alive: Vec<u32> = vec![1; n];
    let mut trim: Vec<u32> = vec![0; n];
    let pool = ctx.pool().clone();
    let mut bins = ctx.bin_pool().checkout::<u32>("kcore_trim");
    let mut device = IrglEngine::new(Default::default());
    // Per-round dirty sets, allocated once and cleared per round.
    let mut newly_dead = DenseBitset::new(lg.num_proxies());
    let mut trim_bits = DenseBitset::new(lg.num_proxies());
    let mut rounds = 0u32;
    let result = loop {
        rounds += 1;
        // 1. Masters kill nodes whose degree dropped below k.
        newly_dead.clear_all();
        let mut any_death = false;
        for m in lg.masters() {
            if alive[m.index()] == 1 && degree[m.index()] < k {
                alive[m.index()] = 0;
                newly_dead.set(m);
                any_death = true;
            }
        }
        // 2. Tell the mirrors (they hold part of the dead node's edges).
        {
            let mut field = CopyField::new(&mut alive);
            ctx.sync(&ALIVE, &mut field, &mut newly_dead);
        }
        // 3. Every newly dead proxy trims its local neighbors. The chunked
        // sweep is metered by out-degree.
        trim_bits.clear_all();
        let dead_list: Vec<Lid> = newly_dead.iter().collect();
        match engine {
            EngineKind::Ligra => {
                let frontier = VertexSubset::from_members(dead_list);
                ligra::edge_map_push_pooled(
                    lg,
                    &frontier,
                    &pool,
                    &mut bins,
                    &mut trim,
                    |_src, _dst, _w, _trim| Some(1u32),
                    |_dst, inc, slot| {
                        *slot += inc;
                        true
                    },
                );
            }
            EngineKind::Galois => {
                galois::do_all_binned(
                    &pool,
                    &mut bins,
                    &dead_list,
                    &mut trim,
                    |v| u64::from(lg.out_degree(v)),
                    |chunk, _trim, sink| {
                        for &v in chunk {
                            for e in lg.out_edges(v) {
                                sink.push(e.dst, 1u32);
                            }
                        }
                    },
                    |_dst, inc, slot| {
                        *slot += inc;
                        true
                    },
                );
            }
            EngineKind::Irgl => {
                device.kernel_par_binned(
                    lg,
                    &pool,
                    &mut bins,
                    &dead_list,
                    &mut trim,
                    |v, lg, _trim, sink| {
                        for e in lg.out_edges(v) {
                            sink.push(e.dst, 1u32);
                        }
                    },
                    |_dst, inc, slot| {
                        *slot += inc;
                        true
                    },
                );
            }
        }
        for &dst in bins.activated() {
            trim_bits.set(dst);
        }
        // 4. Collect the trims at the masters and apply.
        {
            let mut field = SumField::new(&mut trim);
            ctx.sync(&TRIM, &mut field, &mut trim_bits);
        }
        for m in lg.masters() {
            if trim[m.index()] > 0 {
                degree[m.index()] = degree[m.index()].saturating_sub(trim[m.index()]);
                trim[m.index()] = 0;
            }
        }
        if !ctx.any_globally(any_death) {
            break (alive, rounds);
        }
    };
    ctx.bin_pool().checkin("kcore_trim", bins);
    result
}

/// Distributed *push-style* pagerank with residuals — the dual of
/// [`pagerank`] ("both push-style and pull-style implementations are
/// available in D-Ligra", §5.1).
///
/// Nodes accumulate `rank` by draining a `residual`: applying a node moves
/// its residual into its rank and pushes `d * residual / out-degree` to its
/// out-neighbors' residuals. A master's out-edges are split across hosts
/// under vertex-cuts, so the push value is *broadcast* to the mirrors that
/// hold out-edges and the pushed residuals are *reduced* back to masters —
/// the mirror-image communication pattern of the pull version.
///
/// Converges to the same fixpoint as [`pagerank`]; `cfg.tolerance` bounds
/// the total residual left unapplied.
pub fn pagerank_push<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    cfg: PagerankConfig,
    engine: EngineKind,
) -> (Vec<f64>, u32) {
    let n = lg.num_proxies() as usize;
    let total_nodes = f64::from(lg.global_nodes().max(1));
    // Apply threshold: leave at most `tolerance` total residual unapplied.
    let eps = cfg.tolerance / total_nodes;

    // Global out-degrees, as in the pull version.
    let mut gdeg: Vec<u32> = (0..n).map(|l| lg.out_degree(Lid(l as u32))).collect();
    let mut deg_bits = DenseBitset::new(lg.num_proxies());
    deg_bits.set_all();
    {
        let mut field = SumField::new(&mut gdeg);
        ctx.sync(&OUT_DEGREE, &mut field, &mut deg_bits);
    }

    let mut rank = vec![0.0f64; n];
    // Sum-field contract: masters carry the initial mass, mirrors identity.
    let mut residual = vec![0.0f64; n];
    for m in lg.masters() {
        residual[m.index()] = (1.0 - cfg.damping) / total_nodes;
    }
    let mut to_push = vec![0.0f64; n];
    let pool = ctx.pool().clone();
    let mut bins = ctx.bin_pool().checkout::<f64>("pr_push");
    let mut device = IrglEngine::new(Default::default());
    let max_rounds = cfg.max_iters.saturating_mul(20).max(100);
    // Per-round dirty sets, allocated once and cleared per round.
    let mut push_bits = DenseBitset::new(lg.num_proxies());
    let mut res_bits = DenseBitset::new(lg.num_proxies());
    let mut rounds = 0u32;
    let result = loop {
        rounds += 1;
        // 1. Apply at masters whose residual is worth draining.
        push_bits.clear_all();
        for m in lg.masters() {
            let r = residual[m.index()];
            if r > eps {
                rank[m.index()] += r;
                residual[m.index()] = 0.0;
                let deg = f64::from(gdeg[m.index()].max(1));
                to_push[m.index()] = cfg.damping * r / deg;
                push_bits.set(m);
            }
        }
        // 2. Ship the push value to the mirrors holding out-edges.
        {
            let mut field = CopyField::new(&mut to_push);
            ctx.sync(&TO_PUSH, &mut field, &mut push_bits);
        }
        // 3. Push along local out-edges into local residuals. Candidates
        // apply in frontier order (ascending lids), so the f64 residual
        // sums fold in the same order at any thread count.
        res_bits.clear_all();
        let frontier: Vec<Lid> = push_bits.iter().collect();
        match engine {
            EngineKind::Ligra => {
                let subset = VertexSubset::from_members(frontier);
                ligra::edge_map_push_pooled(
                    lg,
                    &subset,
                    &pool,
                    &mut bins,
                    &mut residual,
                    |src, _dst, _w, _residual| {
                        let share = to_push[src.index()];
                        (share != 0.0).then_some(share)
                    },
                    |_dst, share, slot| {
                        *slot += share;
                        true
                    },
                );
            }
            EngineKind::Galois => {
                galois::do_all_binned(
                    &pool,
                    &mut bins,
                    &frontier,
                    &mut residual,
                    |v| u64::from(lg.out_degree(v)),
                    |chunk, _residual, sink| {
                        for &v in chunk {
                            let share = to_push[v.index()];
                            if share == 0.0 {
                                continue;
                            }
                            for e in lg.out_edges(v) {
                                sink.push(e.dst, share);
                            }
                        }
                    },
                    |_dst, share, slot| {
                        *slot += share;
                        true
                    },
                );
            }
            EngineKind::Irgl => {
                device.kernel_par_binned(
                    lg,
                    &pool,
                    &mut bins,
                    &frontier,
                    &mut residual,
                    |v, lg, _residual, sink| {
                        let share = to_push[v.index()];
                        if share == 0.0 {
                            return;
                        }
                        for e in lg.out_edges(v) {
                            sink.push(e.dst, share);
                        }
                    },
                    |_dst, share, slot| {
                        *slot += share;
                        true
                    },
                );
            }
        }
        for &dst in bins.activated() {
            res_bits.set(dst);
        }
        // 4. Reduce pushed residuals to masters.
        {
            let mut field = SumField::new(&mut residual);
            ctx.sync(&RESIDUAL, &mut field, &mut res_bits);
        }
        // 5. Quiesce when no master holds an appliable residual.
        let local_active = lg.masters().any(|m| residual[m.index()] > eps);
        if !ctx.any_globally(local_active) || rounds >= max_rounds {
            break (rank, rounds);
        }
    };
    ctx.bin_pool().checkin("pr_push", bins);
    result
}

/// Distributed single-source betweenness centrality (Brandes), an extension
/// beyond the paper's four benchmarks (it is part of the real D-Galois
/// application suite).
///
/// BC is the one workload here whose *backward* phase moves data against
/// edge direction: per-level dependency sums are written at edge *sources*
/// and read at edge *destinations*, exercising the
/// `WriteAtSource`/`ReadAtDestination` sync patterns that the four forward
/// benchmarks never use.
///
/// Returns per-proxy dependency values `delta_s(v)` and the number of BFS
/// levels.
pub fn betweenness_source<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
) -> (Vec<f64>, u32) {
    let n = lg.num_proxies() as usize;
    let caps = lg.num_proxies();
    let mut dist = vec![INFINITY; n];
    let mut sigma = vec![0.0f64; n];

    // Seed: the master of the source holds sigma 1; ship the canonical
    // sigma to every proxy of the source before the first level.
    let mut seed_bits = DenseBitset::new(caps);
    if let Some(s) = lg.lid(source) {
        dist[s.index()] = 0;
        if lg.is_master(s) {
            sigma[s.index()] = 1.0;
            seed_bits.set(s);
        }
    }
    {
        let mut field = CopyField::new(&mut sigma);
        ctx.sync(&SIGMA_BCAST, &mut field, &mut seed_bits);
    }

    // Per-level dirty sets of both phases, allocated once and cleared
    // where a level starts filling them.
    let mut dist_bits = DenseBitset::new(caps);
    let mut sig_bits = DenseBitset::new(caps);
    let mut bcast_bits = DenseBitset::new(caps);
    let mut delta_bits = DenseBitset::new(caps);

    // ---- Forward phase: level-synchronous BFS with path counting. ----
    let mut level = 0u32;
    loop {
        // Expansion: discover level + 1 through local frontier edges. The
        // dist field is read at *both* ends later (the sigma pass checks
        // destinations), so it broadcasts to every mirror.
        dist_bits.clear_all();
        let frontier: Vec<Lid> = lg.proxies().filter(|&v| dist[v.index()] == level).collect();
        ctx.add_work(frontier.iter().map(|&v| u64::from(lg.out_degree(v))).sum());
        for &v in &frontier {
            for e in lg.out_edges(v) {
                if dist[e.dst.index()] > level + 1 {
                    dist[e.dst.index()] = level + 1;
                    dist_bits.set(e.dst);
                }
            }
        }
        {
            let mut field = MinField::new(&mut dist);
            ctx.sync(&DIST_BOTH, &mut field, &mut dist_bits);
        }
        // Path counting: each local edge from level to level + 1 forwards
        // sigma. Partial sums reduce to masters, canonical values broadcast
        // everywhere (the backward phase reads sigma at both ends too).
        sig_bits.clear_all();
        // Re-derive: the sync may have revealed remotely-discovered
        // level-`level` proxies.
        let frontier: Vec<Lid> = lg.proxies().filter(|&v| dist[v.index()] == level).collect();
        ctx.add_work(frontier.iter().map(|&v| u64::from(lg.out_degree(v))).sum());
        for &v in &frontier {
            let sv = sigma[v.index()];
            if sv == 0.0 {
                continue;
            }
            for e in lg.out_edges(v) {
                if dist[e.dst.index()] == level + 1 {
                    sigma[e.dst.index()] += sv;
                    sig_bits.set(e.dst);
                }
            }
        }
        {
            let mut field = SumField::new(&mut sigma);
            ctx.sync(&SIGMA_REDUCE, &mut field, &mut sig_bits);
        }
        bcast_bits.clear_all();
        for m in lg.masters() {
            if dist[m.index()] == level + 1 {
                bcast_bits.set(m);
            }
        }
        let frontier_nonempty = !bcast_bits.is_empty();
        {
            let mut field = CopyField::new(&mut sigma);
            ctx.sync(&SIGMA_BCAST, &mut field, &mut bcast_bits);
        }
        if !ctx.any_globally(frontier_nonempty) {
            break;
        }
        level += 1;
    }
    let deepest = level; // nodes exist at levels 0..=deepest

    // ---- Backward phase: dependency accumulation, deepest-first. ----
    let mut delta = vec![0.0f64; n];
    let mut l = deepest;
    loop {
        // Partial dependency sums at every proxy of a level-l node that
        // holds outgoing edges — written at edge *sources*.
        delta_bits.clear_all();
        let level_nodes: Vec<Lid> = lg.proxies().filter(|&v| dist[v.index()] == l).collect();
        ctx.add_work(
            level_nodes
                .iter()
                .map(|&v| u64::from(lg.out_degree(v)))
                .sum(),
        );
        for &v in &level_nodes {
            let sv = sigma[v.index()];
            if sv == 0.0 {
                continue;
            }
            let mut acc = 0.0f64;
            for e in lg.out_edges(v) {
                let u = e.dst.index();
                if dist[u] == l + 1 && sigma[u] > 0.0 {
                    acc += sv / sigma[u] * (1.0 + delta[u]);
                }
            }
            if acc != 0.0 {
                delta[v.index()] += acc;
                delta_bits.set(v);
            }
        }
        // Reduce source-side partials to masters, then ship the canonical
        // dependency to the proxies that will read it as an edge
        // destination one level up.
        {
            let mut field = SumField::new(&mut delta);
            ctx.sync(&DELTA_REDUCE, &mut field, &mut delta_bits);
        }
        bcast_bits.clear_all();
        for m in lg.masters() {
            if dist[m.index()] == l && delta[m.index()] != 0.0 {
                bcast_bits.set(m);
            }
        }
        {
            let mut field = CopyField::new(&mut delta);
            ctx.sync(&DELTA_BCAST, &mut field, &mut bcast_bits);
        }
        if l == 0 {
            break;
        }
        l -= 1;
    }
    if let Some(s) = lg.lid(source) {
        delta[s.index()] = 0.0;
    }
    (delta, deepest)
}

/// Distributed delta-stepping SSSP: like [`sssp`] with the Galois engine,
/// but within each BSP round the host drains its work in ascending
/// distance order (bucket width `delta`) instead of FIFO, doing fewer
/// wasted relaxations on weighted graphs — the Lonestar scheduler married
/// to Gluon rounds. Returns per-proxy distances and the round count.
pub fn sssp_delta<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    source: Gid,
    delta: u32,
) -> (Vec<u32>, u32) {
    let n = lg.num_proxies();
    let mut dist = vec![INFINITY; n as usize];
    let mut active = DenseBitset::new(n);
    if let Some(s) = lg.lid(source) {
        dist[s.index()] = 0;
        active.set(s);
    }
    // The spent frontier is cleared and becomes the next changed set.
    let mut changed = DenseBitset::new(n);
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let seeds: Vec<(Lid, u32)> = active
            .iter()
            .map(|v| (v, dist[v.index()]))
            .filter(|&(_, d)| d != INFINITY)
            .collect();
        let mut work = 0u64;
        gluon_engines::galois::for_each_prioritized(n, delta, seeds, |v, prio, wl| {
            if prio > dist[v.index()] {
                return; // improved since it was queued
            }
            work += u64::from(lg.out_degree(v));
            let dv = dist[v.index()];
            for e in lg.out_edges(v) {
                let nd = dv.saturating_add(e.weight);
                if nd < dist[e.dst.index()] {
                    dist[e.dst.index()] = nd;
                    changed.set(e.dst);
                    wl.push(e.dst, nd);
                }
            }
        });
        ctx.add_work(work);
        std::mem::swap(&mut active, &mut changed);
        changed.clear_all();
        let mut field = MinField::new(&mut dist);
        ctx.sync(&DIST_PUSH, &mut field, &mut active);
        if !ctx.any_globally(!active.is_empty()) {
            return (dist, rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_field_reports_changes() {
        let mut data = vec![1u32, 2];
        let mut f = CopyField::new(&mut data);
        assert!(!f.reduce(Lid(0), 1));
        assert!(f.reduce(Lid(0), 9));
        assert_eq!(f.extract(Lid(0)), 9);
        f.reset(Lid(0));
        assert_eq!(f.extract(Lid(0)), 9);
    }

    #[test]
    fn masters_fed_only_by_the_reduce_keep_their_rank_bits() {
        // 3-host OEC: each edge lives on its source's host, so a master
        // whose in-neighbours are all mastered elsewhere has no local
        // in-edge. The sweep never visits it; its contributions arrive
        // only through the reduce, from mirrors that have one, every
        // iteration. Its slot must read 0.0 before each reduce, so its
        // rank bits are the ones every proxy was visited for.
        use gluon::{GluonContext, OptLevel};
        use gluon_graph::gen;
        use gluon_net::{run_cluster, Communicator};
        use gluon_partition::{partition_all, Policy};
        let g = gen::rmat(8, 8, Default::default(), 71);
        let mut parts = partition_all(&g, 3, Policy::Oec);
        for lg in &mut parts {
            lg.build_transpose();
        }
        let fed_from_afar = |lg: &LocalGraph, m: Lid| {
            let gid = lg.gid(m);
            !lg.has_local_in_edges(m)
                && parts.iter().any(|other| {
                    other.host() != lg.host()
                        && other.lid(gid).is_some_and(|l| other.has_local_in_edges(l))
                })
        };
        let fed: Vec<(usize, u32)> = parts
            .iter()
            .flat_map(|lg| {
                lg.masters()
                    .filter(|&m| fed_from_afar(lg, m))
                    .map(|m| (lg.host(), lg.gid(m).0))
            })
            .collect();
        assert_eq!(fed.len(), 56);
        let cfg = PagerankConfig {
            damping: 0.85,
            tolerance: 0.0,
            max_iters: 6,
        };
        for engine in [EngineKind::Galois, EngineKind::Ligra, EngineKind::Irgl] {
            let ranks = run_cluster(3, |ep| {
                let comm = Communicator::new(ep);
                let lg = &parts[comm.rank()];
                let mut ctx = GluonContext::new(lg, &comm, OptLevel::OSTI);
                let (ranks, iters) = pagerank(lg, &mut ctx, cfg, engine);
                assert_eq!(iters, 6);
                ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
            });
            let bits = |(h, gid): (usize, u32)| {
                let lg = &parts[h];
                ranks[h][lg.lid(Gid(gid)).expect("master").index()]
            };
            // Pinned from a build whose sweep visited every proxy.
            assert_eq!(bits(fed[0]), 0x3f57_6032_dac2_3d00, "{engine:?}");
            assert_eq!(bits(fed[5]), 0x3f66_8bd0_9cdb_a54f, "{engine:?}");
            let fold = fed.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &m| {
                (h ^ bits(m)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(fold, 0x9272_1d86_8eb4_741f, "{engine:?}");
        }
    }

    #[test]
    fn pagerank_config_defaults_match_paper() {
        let cfg = PagerankConfig::default();
        assert_eq!(cfg.damping, 0.85);
        assert_eq!(cfg.max_iters, 100);
    }
}
