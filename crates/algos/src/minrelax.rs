//! Shared push-style min-relaxation driver for bfs, sssp, and cc.
//!
//! All three benchmarks are monotone label-lowering computations: an active
//! node pushes `f(label, edge_weight)` along its outgoing edges and a
//! destination keeps the minimum. They differ only in `f` (bfs: `l + 1`,
//! sssp: `l + w`, cc: `l`). The driver runs BSP rounds — engine-specific
//! local compute, then a `WriteAtDestination / ReadAtSource` Gluon sync —
//! until global quiescence.
//!
//! # One kernel
//!
//! Every push arm runs [`scatter`] per frontier member and [`lower`] per
//! binned candidate. Only the drain writes labels, so what a scatter reads
//! *is* the (sub-)round's snapshot; only the Ligra pull sweep, which writes
//! destinations in place, keeps a (recycled) copy. Frontier and changed
//! set are two bitsets allocated once per run that swap roles each round.
//!
//! # What a round scans
//!
//! Every arm lists the frontier bitset once per round into one recycled
//! member list, and everything after that is O(frontier): the Ligra
//! direction heuristic and push read the list (only a pull round is handed
//! the bitset, for O(1) membership per in-edge), Galois and IrGL sweep it.
//! Three passes per round still walk a bitset's words, O(proxies/64) each:
//! that listing, the `clear_all` of the spent frontier, and the `is_empty`
//! behind the termination vote (which stops at the first set word).
//!
//! # Determinism
//!
//! Every engine path drives the context's [`gluon::Pool`] and is
//! bit-identical at any thread count:
//!
//! - **Ligra** keeps the direction heuristic (which depends only on the
//!   frontier) and runs snapshot (Jacobi) sweeps: candidates are computed
//!   from the previous round's labels and applied in chunk order. A
//!   relaxation is not visible to later edges of the same sweep, so
//!   round counts can differ from an in-sweep-visible execution, but the
//!   fixpoint labels cannot (monotone min-relaxation has a unique one).
//! - **Galois** runs deterministic bulk *sub-rounds* to local quiescence:
//!   sweep the local frontier on the pool, apply the candidate chunks in
//!   order, repeat until no label improves. This reaches exactly the local
//!   fixpoint FIFO chaotic relaxation reaches, with the same changed set
//!   (a label changed iff its final value beats its initial one), so outer
//!   round counts and wire traffic match the sequential engine. Proxies
//!   without a local out-edge are marked changed but never swept: they
//!   emit nothing and weigh nothing on the work meter.
//! - **IrGL** launches one snapshot kernel per round
//!   ([`IrglEngine::kernel_par_binned`]), with device work counters unchanged.

use crate::EngineKind;
use gluon::{
    BinScratch, BinSink, CheckpointSnapshot, DenseBitset, GluonContext, MinField, Pool,
    ReadLocation, SyncError, SyncSpec, WriteLocation,
};
use gluon_engines::irgl::IrglEngine;
use gluon_engines::ligra::{Direction, VertexSubset};
use gluon_engines::{galois, ligra};
use gluon_graph::{for_each_edge, Lid};
use gluon_net::Transport;
use gluon_partition::LocalGraph;

/// The label-relaxation rule: candidate label for the destination given the
/// source label and edge weight. Must be monotone (never below the source
/// label for positive weights).
pub(crate) type RelaxFn = fn(u32, u32) -> u32;

/// The sync pattern of every push-style min-relaxation: written at edge
/// destinations, read at edge sources next round.
const SPEC: SyncSpec =
    SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("minrelax");

/// The scatter half of a relaxation: bins a candidate for every local
/// out-edge of `v` whose destination it would lower, over `v`'s raw
/// adjacency slices. Unweighted, every edge weighs 1: the candidate is
/// computed once per source and an edge costs one `u32` and one compare.
#[inline]
fn scatter(lg: &LocalGraph, relax: RelaxFn, v: Lid, labels: &[u32], sink: &mut BinSink<'_, u32>) {
    let lv = labels[v.index()];
    let mut offer = |dst: u32, candidate: u32| {
        if candidate < labels[dst as usize] {
            sink.push(Lid(dst), candidate);
        }
    };
    let (targets, weights) = (lg.out_targets(v), lg.out_weights(v));
    if weights.is_empty() {
        let candidate = relax(lv, 1);
        targets.iter().for_each(|&dst| offer(dst, candidate));
    } else {
        for_each_edge(targets, weights, |dst, w| offer(dst, relax(lv, w)));
    }
}

/// The drain half: keep the minimum; `true` when the label was lowered.
fn lower(_dst: Lid, candidate: u32, slot: &mut u32) -> bool {
    let improved = candidate < *slot;
    if improved {
        *slot = candidate;
    }
    improved
}

/// Runs min-relaxation rounds to global quiescence; `labels` and `active`
/// must be initialized by the caller (labels seeded, active bits set for
/// the seeds). Returns the number of BSP rounds executed, or the first
/// sync failure. Restores from the context's selected checkpoint epoch
/// (if any) before computing, and snapshots `labels` + the active set
/// whenever a completed round is a checkpoint boundary.
pub(crate) fn try_run<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    labels: &mut [u32],
    mut active: DenseBitset,
    engine: EngineKind,
    relax: RelaxFn,
) -> Result<u32, SyncError> {
    let n = lg.num_proxies();
    assert_eq!(labels.len(), n as usize, "one label per proxy");
    let pool = ctx.pool().clone();
    let mut rounds = 0u32;
    if let Some(snap) = ctx.restore_snapshot() {
        // The snapshot was taken at a round boundary (post-sync,
        // post-termination-vote), so restoring labels + active bits and
        // resuming at round+1 replays the crash-free execution exactly —
        // every engine path is deterministic.
        let saved = snap
            .values::<u32>("labels")
            .expect("checkpoint missing labels field");
        assert_eq!(saved.len(), labels.len(), "checkpoint from another graph");
        labels.copy_from_slice(&saved);
        let words = snap
            .values::<u64>("active_words")
            .expect("checkpoint missing active_words field");
        active.copy_from_words(&words);
        rounds = u32::try_from(snap.round()).expect("round fits u32");
    }
    if ctx.finalize_only() {
        // ContinueStale degradation: surface the restored epoch's labels
        // without running (or syncing) any further rounds.
        return Ok(rounds);
    }
    // Bin scratch is checked out around the whole round loop, so the
    // steady state recycles every buffer.
    // An error path drops it — the supervisor rebuilds the context anyway.
    let mut bins = ctx.bin_pool().checkout::<u32>("minrelax");
    let result = relax_rounds(
        lg, ctx, labels, active, engine, relax, &pool, &mut bins, rounds,
    );
    ctx.bin_pool().checkin("minrelax", bins);
    result
}

/// The BSP round loop of [`try_run`], over a checked-out bin scratch:
/// `active` enters a round as its frontier, the round marks `changed`, the
/// two swap, and the spent frontier is cleared into the next `changed`.
#[allow(clippy::too_many_arguments)]
fn relax_rounds<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    labels: &mut [u32],
    mut active: DenseBitset,
    engine: EngineKind,
    relax: RelaxFn,
    pool: &Pool,
    bins: &mut BinScratch<u32>,
    mut rounds: u32,
) -> Result<u32, SyncError> {
    let n = lg.num_proxies();
    let mut device = IrglEngine::new(Default::default());
    let mut frontier_buf: Vec<Lid> = Vec::new();
    let mut changed = DenseBitset::new(n);
    // Source labels as of the round's start, for the Ligra pull sweep only.
    let mut prev: Vec<u32> = Vec::new();
    loop {
        rounds += 1;
        // Work model: edges examined this round are metered by the pool
        // (chunk weights = degrees), absorbed into the next phase's stats.
        match engine {
            EngineKind::Ligra => {
                // One level-synchronous snapshot edgeMap, applied in chunk
                // order. The frontier is listed once; the heuristic and the
                // push read the list, and only a pull round, which tests
                // membership per in-edge, is handed the bitset.
                frontier_buf.clear();
                frontier_buf.extend(active.iter());
                let listed = VertexSubset::Sparse(std::mem::take(&mut frontier_buf));
                match ligra::choose_direction(lg, &listed, Direction::Auto) {
                    Direction::Pull => {
                        prev.clear();
                        prev.extend_from_slice(labels);
                        let frontier = VertexSubset::from_bitset(active);
                        ligra::edge_map_pull_pooled(
                            lg,
                            &frontier,
                            pool,
                            bins,
                            labels,
                            |src, _dst, w, cur| {
                                let candidate = relax(prev[src.index()], w);
                                (candidate < *cur).then_some(candidate)
                            },
                        );
                        active = frontier.into_bitset(n);
                    }
                    _ => ligra::vertex_map_push_pooled(
                        lg,
                        &listed,
                        pool,
                        bins,
                        labels,
                        |v, labels, sink| scatter(lg, relax, v, labels, sink),
                        lower,
                    ),
                }
                frontier_buf = listed.into_members();
                for &dst in bins.activated() {
                    changed.set(dst);
                }
            }
            EngineKind::Galois => {
                // Deterministic bulk sub-rounds to local quiescence (the
                // D-Galois hybrid of §5.4), sweeping only what has out-edges.
                frontier_buf.clear();
                frontier_buf.extend(active.iter().filter(|&v| lg.has_local_out_edges(v)));
                while !frontier_buf.is_empty() {
                    galois::do_all_binned(
                        pool,
                        bins,
                        &frontier_buf,
                        labels,
                        |v| u64::from(lg.out_degree(v)),
                        |chunk, labels, sink| {
                            for &v in chunk {
                                scatter(lg, relax, v, labels, sink);
                            }
                        },
                        lower,
                    );
                    frontier_buf.clear();
                    for &dst in bins.activated() {
                        changed.set(dst);
                        if lg.has_local_out_edges(dst) {
                            frontier_buf.push(dst);
                        }
                    }
                }
            }
            EngineKind::Irgl => {
                // One bulk snapshot kernel per round.
                frontier_buf.clear();
                frontier_buf.extend(active.iter());
                device.kernel_par_binned(
                    lg,
                    pool,
                    bins,
                    &frontier_buf,
                    labels,
                    |v, lg, labels, sink| scatter(lg, relax, v, labels, sink),
                    lower,
                );
                for &dst in bins.activated() {
                    changed.set(dst);
                }
            }
        }
        std::mem::swap(&mut active, &mut changed);
        changed.clear_all();
        ctx.try_sync(&SPEC, &mut MinField::new(labels), &mut active)?;
        if !ctx.try_any_globally(!active.is_empty())? {
            return Ok(rounds);
        }
        if ctx.checkpoint_due(u64::from(rounds)) {
            let mut snap = CheckpointSnapshot::new(u64::from(rounds));
            snap.put_values("labels", labels);
            snap.put_values("active_words", active.words());
            ctx.save_checkpoint(snap);
        }
    }
}
