//! An IrGL-style bulk-kernel engine (Pai & Pingali, OOPSLA'16), emulating
//! GPU execution semantics on the host.
//!
//! IrGL compiles vertex programs into GPU *kernels*: bulk-synchronous
//! sweeps over a worklist (data-driven) or over all nodes
//! (topology-driven), with atomics making updates visible within the sweep.
//! Plugged into Gluon this becomes the paper's **D-IrGL**, the first
//! multi-node multi-GPU graph analytics system.
//!
//! # GPU substitution
//!
//! No CUDA device is assumed: kernels execute on the host thread with the
//! same visibility semantics a single GPU provides (an atomic update in an
//! earlier-scheduled thread is visible to later ones). What the paper's
//! claims need from "a GPU" is (a) the bulk-synchronous kernel structure,
//! (b) bulk extract/set synchronization at kernel boundaries, and (c) no
//! per-node address-translation structures on the device — all of which
//! this engine exercises. A [`DeviceModel`] additionally projects kernel
//! wall-clock onto GPU-like throughput numbers for the benchmark harness.

use gluon::{BinScratch, BinSink, DenseBitset};
use gluon_exec::Pool;
use gluon_graph::Lid;
use gluon_partition::LocalGraph;
use serde::{Deserialize, Serialize};

/// Throughput model of the emulated accelerator.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Fixed cost of launching one kernel (seconds). K80-era devices pay
    /// ~5 µs.
    pub kernel_launch_secs: f64,
    /// Edge traversals per second the device sustains.
    pub edges_per_sec: f64,
    /// Node visits per second the device sustains.
    pub nodes_per_sec: f64,
}

impl DeviceModel {
    /// Rough NVIDIA Tesla K80 numbers (the Bridges GPUs of the paper).
    pub const K80: DeviceModel = DeviceModel {
        kernel_launch_secs: 5e-6,
        edges_per_sec: 2e9,
        nodes_per_sec: 1e9,
    };
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel::K80
    }
}

/// Work counters of one engine instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Node visits across all kernels.
    pub nodes_visited: u64,
    /// Edge traversals across all kernels.
    pub edges_traversed: u64,
}

/// Collects the next worklist during a data-driven kernel.
#[derive(Debug)]
pub struct KernelOutput {
    next: Vec<Lid>,
    seen: DenseBitset,
}

impl KernelOutput {
    fn new(capacity: u32) -> KernelOutput {
        KernelOutput {
            next: Vec::new(),
            seen: DenseBitset::new(capacity),
        }
    }

    /// Appends `lid` to the next worklist (deduplicated).
    pub fn push(&mut self, lid: Lid) {
        if !self.seen.test(lid) {
            self.seen.set(lid);
            self.next.push(lid);
        }
    }
}

/// The bulk-kernel executor.
///
/// # Examples
///
/// ```
/// use gluon_engines::irgl::IrglEngine;
/// use gluon_graph::{gen, Lid};
/// use gluon_partition::{partition_all, Policy};
///
/// let g = gen::path(6);
/// let lg = partition_all(&g, 1, Policy::Oec).remove(0);
/// let mut dev = IrglEngine::new(Default::default());
/// let mut hops = vec![u32::MAX; 6];
/// hops[0] = 0;
/// let mut wl = vec![Lid(0)];
/// while !wl.is_empty() {
///     wl = dev.kernel(&lg, &wl, |v, lg, out| {
///         for e in lg.out_edges(v) {
///             if hops[e.dst.index()] == u32::MAX {
///                 hops[e.dst.index()] = hops[v.index()] + 1;
///                 out.push(e.dst);
///             }
///         }
///     });
/// }
/// assert_eq!(hops, vec![0, 1, 2, 3, 4, 5]);
/// assert!(dev.stats().kernels >= 5);
/// ```
#[derive(Debug)]
pub struct IrglEngine {
    model: DeviceModel,
    stats: DeviceStats,
}

impl IrglEngine {
    /// Creates an engine with the given throughput model.
    pub fn new(model: DeviceModel) -> IrglEngine {
        IrglEngine {
            model,
            stats: DeviceStats::default(),
        }
    }

    /// Launches a data-driven kernel: one sweep over `worklist`, updates
    /// immediately visible (single-GPU atomics semantics). Returns the
    /// deduplicated next worklist assembled through [`KernelOutput::push`].
    pub fn kernel(
        &mut self,
        graph: &LocalGraph,
        worklist: &[Lid],
        mut op: impl FnMut(Lid, &LocalGraph, &mut KernelOutput),
    ) -> Vec<Lid> {
        let mut out = KernelOutput::new(graph.num_proxies());
        for &lid in worklist {
            self.stats.nodes_visited += 1;
            self.stats.edges_traversed += u64::from(graph.out_degree(lid));
            op(lid, graph, &mut out);
        }
        self.stats.kernels += 1;
        out.next
    }

    /// Deterministic parallel data-driven kernel on recycled scratch:
    /// worklist chunks run on `pool` workers and scatter `(dst, value)`
    /// candidates into per-(chunk, destination-partition) bins via `op`,
    /// which sees the current `labels` as a shared slice — unlike
    /// [`IrglEngine::kernel`], updates are *not* visible within the sweep
    /// (snapshot semantics, as on a multi-SM launch without cross-block
    /// ordering). Each partition then drains its bins in (chunk, edge)
    /// order running `apply(dst, value, &mut labels[dst])` — in parallel
    /// across partitions, bit-identical to folding the candidates
    /// sequentially in worklist order. Work counters advance exactly as
    /// in [`IrglEngine::kernel`]; read the ascending activation list from
    /// [`BinScratch::activated`].
    #[allow(clippy::too_many_arguments)]
    pub fn kernel_par_binned<T: Send + Sync, V: Copy + Send + Sync + 'static>(
        &mut self,
        graph: &LocalGraph,
        pool: &Pool,
        bins: &mut BinScratch<V>,
        worklist: &[Lid],
        labels: &mut [T],
        op: impl Fn(Lid, &LocalGraph, &[T], &mut BinSink<'_, V>) + Sync,
        apply: impl Fn(Lid, V, &mut T) -> bool + Sync,
    ) {
        bins.run(
            pool,
            worklist,
            labels,
            |l| u64::from(graph.out_degree(l)),
            |chunk, labels, sink| {
                for &lid in chunk {
                    op(lid, graph, labels, sink);
                }
            },
            apply,
        );
        self.stats.nodes_visited += worklist.len() as u64;
        self.stats.edges_traversed += worklist
            .iter()
            .map(|&l| u64::from(graph.out_degree(l)))
            .sum::<u64>();
        self.stats.kernels += 1;
    }

    /// Deterministic parallel topology-driven pull kernel on recycled
    /// scratch: one launch over every proxy, each thread owning its
    /// destination's slot — the destination-chunk sweep of
    /// [`crate::ligra::vertex_map_pull_pooled`], with `visit(dst, &mut
    /// labels[dst])` gathering over [`LocalGraph::in_slots`] and
    /// returning whether it activated `dst`. The host sweep visits only the
    /// proxies with a local in-edge, but the counters model a device launch
    /// over every proxy, so they advance exactly as in
    /// [`IrglEngine::kernel_all`]; read the ascending activation list from
    /// [`BinScratch::activated`].
    pub fn kernel_pull_all<T: Send + Sync, V: Copy + Send + Sync + 'static>(
        &mut self,
        graph: &LocalGraph,
        pool: &Pool,
        bins: &mut BinScratch<V>,
        labels: &mut [T],
        visit: impl Fn(Lid, &mut T) -> bool + Sync,
    ) {
        crate::ligra::vertex_map_pull_pooled(graph, pool, bins, labels, visit);
        self.stats.nodes_visited += u64::from(graph.num_proxies());
        self.stats.edges_traversed += graph.num_local_edges();
        self.stats.kernels += 1;
    }

    /// Launches a topology-driven kernel: one sweep over every proxy.
    pub fn kernel_all(&mut self, graph: &LocalGraph, mut op: impl FnMut(Lid, &LocalGraph)) {
        for lid in graph.proxies() {
            self.stats.nodes_visited += 1;
            self.stats.edges_traversed += u64::from(graph.out_degree(lid));
            op(lid, graph);
        }
        self.stats.kernels += 1;
    }

    /// Work counters so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Projected device time for the work done so far, under the
    /// throughput model.
    pub fn projected_device_secs(&self) -> f64 {
        self.stats.kernels as f64 * self.model.kernel_launch_secs
            + self.stats.nodes_visited as f64 / self.model.nodes_per_sec
            + self.stats.edges_traversed as f64 / self.model.edges_per_sec
    }
}

/// Bulk extract: reads `field[lid]` for every lid in `lids` into a vector —
/// the GPU-side gather the paper's "bulk-variants for GPUs" refers to
/// (device → host staging buffer in one memcpy-like pass).
pub fn bulk_extract<T: Copy>(field: &[T], lids: &[Lid]) -> Vec<T> {
    lids.iter().map(|l| field[l.index()]).collect()
}

/// Bulk set: scatters `values` to `field` at `lids`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn bulk_set<T: Copy>(field: &mut [T], lids: &[Lid], values: &[T]) {
    assert_eq!(lids.len(), values.len(), "one value per lid");
    for (&l, &v) in lids.iter().zip(values) {
        field[l.index()] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;
    use gluon_partition::{partition_all, Policy};

    #[test]
    fn kernel_output_dedups() {
        let mut out = KernelOutput::new(5);
        out.push(Lid(2));
        out.push(Lid(2));
        out.push(Lid(4));
        assert_eq!(out.next, vec![Lid(2), Lid(4)]);
    }

    #[test]
    fn updates_visible_within_a_sweep() {
        // Path 0->1->2 with both 0 and 1 in the worklist: 1's relaxation
        // must see the value 0 just wrote (single-GPU atomics semantics).
        let g = gen::path(3);
        let lg = partition_all(&g, 1, Policy::Oec).remove(0);
        let mut dev = IrglEngine::new(Default::default());
        let mut dist = vec![u32::MAX; 3];
        dist[0] = 0;
        let next = dev.kernel(&lg, &[Lid(0), Lid(1)], |v, lg, out| {
            if dist[v.index()] == u32::MAX {
                return;
            }
            for e in lg.out_edges(v) {
                let nd = dist[v.index()] + 1;
                if nd < dist[e.dst.index()] {
                    dist[e.dst.index()] = nd;
                    out.push(e.dst);
                }
            }
        });
        assert_eq!(dist, vec![0, 1, 2]);
        assert_eq!(next, vec![Lid(1), Lid(2)]);
    }

    #[test]
    fn stats_count_work() {
        let g = gen::star(10);
        let lg = partition_all(&g, 1, Policy::Oec).remove(0);
        let mut dev = IrglEngine::new(Default::default());
        dev.kernel_all(&lg, |_, _| {});
        let s = dev.stats();
        assert_eq!(s.kernels, 1);
        assert_eq!(s.nodes_visited, 10);
        assert_eq!(s.edges_traversed, 9);
        assert!(dev.projected_device_secs() > 0.0);
    }

    #[test]
    fn kernel_par_binned_is_thread_and_geometry_invariant_and_counts_work() {
        let g = gen::rmat(7, 6, Default::default(), 11);
        let lg = partition_all(&g, 1, Policy::Oec).remove(0);
        // Oracle for the labels: the sequential kernel. Its updates are
        // visible within a sweep, so it needs fewer launches, but a
        // monotone min-relaxation reaches the same fixpoint.
        let mut oracle = vec![u32::MAX; lg.num_proxies() as usize];
        oracle[0] = 0;
        let mut dev = IrglEngine::new(Default::default());
        let mut wl = vec![Lid(0)];
        while !wl.is_empty() {
            wl = dev.kernel(&lg, &wl, |v, lg, out| {
                for e in lg.out_edges(v) {
                    let nd = oracle[v.index()].saturating_add(1);
                    if nd < oracle[e.dst.index()] {
                        oracle[e.dst.index()] = nd;
                        out.push(e.dst);
                    }
                }
            });
        }
        // The snapshot launch must reproduce those labels, and the same
        // device stats, at any thread count, on the production grid or a
        // single partition.
        let mut want_stats = None;
        for width in [None, Some(1 << 20)] {
            for threads in [1, 4, 8] {
                let pool = Pool::new(threads);
                let mut dev = IrglEngine::new(Default::default());
                let mut bins = BinScratch::<u32>::new();
                bins.set_width_override(width);
                let mut dist = vec![u32::MAX; lg.num_proxies() as usize];
                dist[0] = 0;
                let mut wl = vec![Lid(0)];
                while !wl.is_empty() {
                    let prev = dist.clone();
                    dev.kernel_par_binned(
                        &lg,
                        &pool,
                        &mut bins,
                        &wl,
                        &mut dist,
                        |v, lg, _labels, sink| {
                            let lv = prev[v.index()];
                            for e in lg.out_edges(v) {
                                let nd = lv.saturating_add(1);
                                if nd < prev[e.dst.index()] {
                                    sink.push(e.dst, nd);
                                }
                            }
                        },
                        |_dst, nd, slot| {
                            if nd < *slot {
                                *slot = nd;
                                true
                            } else {
                                false
                            }
                        },
                    );
                    wl = bins.activated().to_vec();
                }
                assert_eq!(dist, oracle, "width = {width:?}, threads = {threads}");
                let stats = dev.stats();
                assert!(stats.kernels > 1 && stats.edges_traversed > 0);
                assert_eq!(
                    *want_stats.get_or_insert(stats),
                    stats,
                    "width = {width:?}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn pull_launch_is_the_pooled_pull_sweep_booked_as_one_kernel() {
        let g = gen::rmat(8, 6, Default::default(), 5);
        let mut lg = partition_all(&g, 1, Policy::Oec).remove(0);
        lg.build_transpose();
        let n = lg.num_proxies() as usize;
        let vals: Vec<f64> = (0..n).map(|i| 1.0 / (i + 3) as f64).collect();
        let gather = |dst: Lid, cell: &mut f64| {
            let slots = lg.in_slots(dst);
            *cell = slots
                .iter()
                .fold(0.0, |s, &u| s + vals[lg.source(u).index()]);
            !slots.is_empty()
        };
        let mut topo = IrglEngine::new(Default::default());
        topo.kernel_all(&lg, |_, _| {});
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let mut bins = BinScratch::<f64>::new();
            let mut want = vec![0.0f64; n];
            crate::ligra::vertex_map_pull_pooled(&lg, &pool, &mut bins, &mut want, gather);
            let want_active = bins.activated().to_vec();
            let mut dev = IrglEngine::new(Default::default());
            let mut got = vec![0.0f64; n];
            dev.kernel_pull_all(&lg, &pool, &mut bins, &mut got, gather);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(bins.activated(), want_active, "threads = {threads}");
            assert_eq!(dev.stats(), topo.stats(), "threads = {threads}");
        }
    }

    #[test]
    fn bulk_extract_and_set_round_trip() {
        let mut field = vec![0u32; 6];
        let lids = vec![Lid(1), Lid(4)];
        bulk_set(&mut field, &lids, &[10, 40]);
        assert_eq!(bulk_extract(&field, &lids), vec![10, 40]);
        assert_eq!(field, vec![0, 10, 0, 0, 40, 0]);
    }
}
