//! Shared push-style min-relaxation driver for bfs, sssp, and cc.
//!
//! All three benchmarks are monotone label-lowering computations: an active
//! node pushes `f(label, edge_weight)` along its outgoing edges and a
//! destination keeps the minimum. They differ only in `f` (bfs: `l + 1`,
//! sssp: `l + w`, cc: `l`). The driver runs BSP rounds — engine-specific
//! local compute, then a `WriteAtDestination / ReadAtSource` Gluon sync —
//! until global quiescence.
//!
//! # Determinism
//!
//! Every engine path drives the context's [`gluon::Pool`] and is
//! bit-identical at any thread count:
//!
//! - **Ligra** keeps the direction heuristic (which depends only on the
//!   frontier) and runs snapshot (Jacobi) sweeps: candidates are computed
//!   from the previous round's labels and applied in chunk order. A
//!   relaxation is no longer visible to later edges of the same sweep, so
//!   round counts can differ from an in-sweep-visible execution, but the
//!   fixpoint labels cannot (monotone min-relaxation has a unique one).
//! - **Galois** runs deterministic bulk *sub-rounds* to local quiescence:
//!   sweep the local frontier on the pool, apply the candidate chunks in
//!   order, repeat until no label improves. This reaches exactly the local
//!   fixpoint FIFO chaotic relaxation reaches, with the same changed set
//!   (a label changed iff its final value beats its initial one), so outer
//!   round counts and wire traffic match the sequential engine.
//! - **IrGL** launches one snapshot kernel per round
//!   ([`IrglEngine::kernel_par_binned`]), with device work counters unchanged.

use crate::EngineKind;
use gluon::{
    BinScratch, CheckpointSnapshot, DenseBitset, GluonContext, MinField, Pool, ReadLocation,
    SyncError, SyncSpec, WriteLocation,
};
use gluon_engines::irgl::IrglEngine;
use gluon_engines::ligra::{Direction, VertexSubset};
use gluon_engines::{galois, ligra};
use gluon_graph::Lid;
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

/// Runs min-relaxation rounds to global quiescence; `labels` and `active`
/// must be initialized by the caller (labels seeded, active bits set for
/// the seeds). Returns the number of BSP rounds executed.
pub(crate) fn run<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    labels: &mut [u32],
    active: &mut DenseBitset,
    engine: EngineKind,
    relax: RelaxFn,
) -> u32 {
    try_run(lg, ctx, labels, active, engine, relax)
        .unwrap_or_else(|e| panic!("minrelax failed: {e}"))
}

/// As [`run`], surfacing sync failures as errors, restoring from the
/// context's selected checkpoint epoch (if any) before computing, and
/// snapshotting `labels` + the active set whenever a completed round is a
/// checkpoint boundary. With checkpointing off this is exactly the
/// infallible loop.
pub(crate) fn try_run<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    labels: &mut [u32],
    active: &mut DenseBitset,
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
    // Bin scratch is checked out around the whole round loop and checked
    // back in afterwards (publishing its counters), so the steady state
    // recycles every buffer. An error path drops the scratch instead —
    // the supervisor rebuilds the context anyway.
    let mut bins = ctx.bin_pool().checkout::<u32>("minrelax");
    let result = relax_rounds(
        lg, ctx, labels, active, engine, relax, &pool, &mut bins, rounds,
    );
    ctx.bin_pool().checkin("minrelax", bins);
    result
}

/// The BSP round loop of [`try_run`], over a checked-out bin scratch.
#[allow(clippy::too_many_arguments)]
fn relax_rounds<T: Transport + ?Sized>(
    lg: &LocalGraph,
    ctx: &mut GluonContext<'_, T>,
    labels: &mut [u32],
    active: &mut DenseBitset,
    engine: EngineKind,
    relax: RelaxFn,
    pool: &Pool,
    bins: &mut BinScratch<u32>,
    mut rounds: u32,
) -> Result<u32, SyncError> {
    let n = lg.num_proxies();
    let mut device = IrglEngine::new(Default::default());
    let mut frontier_buf: Vec<Lid> = Vec::new();
    loop {
        rounds += 1;
        // Work model: edges examined this round are metered by the pool
        // (chunk weights = degrees), absorbed into the next phase's stats.
        let mut changed = DenseBitset::new(n);
        match engine {
            EngineKind::Ligra => {
                // Level-synchronous snapshot sweep: one edgeMap per round,
                // candidates from the previous labels, applied in chunk
                // order.
                let frontier = VertexSubset::from_bitset(active.clone());
                let prev = labels.to_vec();
                match ligra::choose_direction(lg, &frontier, Direction::Auto) {
                    Direction::Pull => {
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
                    }
                    _ => {
                        ligra::edge_map_push_pooled(
                            lg,
                            &frontier,
                            pool,
                            bins,
                            labels,
                            |src, dst, w, _labels| {
                                let candidate = relax(prev[src.index()], w);
                                (candidate < prev[dst.index()]).then_some(candidate)
                            },
                            |_dst, candidate, slot| {
                                if candidate < *slot {
                                    *slot = candidate;
                                    true
                                } else {
                                    false
                                }
                            },
                        );
                    }
                }
                for &dst in bins.activated() {
                    changed.set(dst);
                }
            }
            EngineKind::Galois => {
                // Deterministic bulk sub-rounds to local quiescence (the
                // D-Galois hybrid of §5.4 with a determinism contract).
                // Sub-round frontiers come out of the binned sweep sorted;
                // a monotone min-relaxation reaches the same local
                // fixpoint and changed set regardless of frontier order.
                frontier_buf.clear();
                frontier_buf.extend(active.iter());
                while !frontier_buf.is_empty() {
                    galois::do_all_binned(
                        pool,
                        bins,
                        &frontier_buf,
                        labels,
                        |v| u64::from(lg.out_degree(v)),
                        |chunk, labels, sink| {
                            for &v in chunk {
                                let lv = labels[v.index()];
                                for e in lg.out_edges(v) {
                                    let candidate = relax(lv, e.weight);
                                    if candidate < labels[e.dst.index()] {
                                        sink.push(e.dst, candidate);
                                    }
                                }
                            }
                        },
                        |_dst, candidate, slot| {
                            if candidate < *slot {
                                *slot = candidate;
                                true
                            } else {
                                false
                            }
                        },
                    );
                    frontier_buf.clear();
                    for &dst in bins.activated() {
                        changed.set(dst);
                        frontier_buf.push(dst);
                    }
                }
            }
            EngineKind::Irgl => {
                // One bulk snapshot kernel per round.
                frontier_buf.clear();
                frontier_buf.extend(active.iter());
                let prev = labels.to_vec();
                device.kernel_par_binned(
                    lg,
                    pool,
                    bins,
                    &frontier_buf,
                    labels,
                    |v, lg, _labels, sink| {
                        let lv = prev[v.index()];
                        for e in lg.out_edges(v) {
                            let candidate = relax(lv, e.weight);
                            if candidate < prev[e.dst.index()] {
                                sink.push(e.dst, candidate);
                            }
                        }
                    },
                    |_dst, candidate, slot| {
                        if candidate < *slot {
                            *slot = candidate;
                            true
                        } else {
                            false
                        }
                    },
                );
                for &dst in bins.activated() {
                    changed.set(dst);
                }
            }
        }
        *active = changed;
        let mut field = MinField::new(labels);
        ctx.try_sync(&SPEC, &mut field, active)?;
        let live = ctx.try_any_globally(!active.is_empty())?;
        if !live {
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
