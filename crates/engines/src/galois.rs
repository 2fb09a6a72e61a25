//! A Galois-style asynchronous worklist engine (Nguyen et al., SOSP'13).
//!
//! Galois programs apply an *operator* to active nodes drawn from a
//! worklist; the operator may activate further nodes, which are processed
//! in the same round until the worklist drains (local quiescence). Plugged
//! into Gluon this becomes the paper's **D-Galois**: asynchronous chaotic
//! relaxation *within* a host, bulk-synchronous rounds *across* hosts —
//! the hybrid §5.4 argues is the right design for large-scale analytics
//! (it needs 2–4x fewer rounds than level-synchronous engines).

use gluon::DenseBitset;
use gluon_graph::Lid;

/// The engine's work queue: FIFO with membership filtering, so a node is
/// enqueued at most once until processed.
#[derive(Clone, Debug)]
pub struct Worklist {
    queue: std::collections::VecDeque<Lid>,
    on_list: DenseBitset,
}

impl Worklist {
    /// Creates an empty worklist over `capacity` node slots.
    pub fn new(capacity: u32) -> Worklist {
        Worklist {
            queue: std::collections::VecDeque::new(),
            on_list: DenseBitset::new(capacity),
        }
    }

    /// Enqueues `lid` unless it is already pending.
    pub fn push(&mut self, lid: Lid) {
        if !self.on_list.test(lid) {
            self.on_list.set(lid);
            self.queue.push_back(lid);
        }
    }

    /// Dequeues the next pending node.
    pub fn pop(&mut self) -> Option<Lid> {
        let lid = self.queue.pop_front()?;
        self.on_list.clear(lid);
        Some(lid)
    }

    /// Number of pending nodes.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no work is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl Extend<Lid> for Worklist {
    fn extend<I: IntoIterator<Item = Lid>>(&mut self, iter: I) {
        for lid in iter {
            self.push(lid);
        }
    }
}

/// Galois' `for_each`: drains the worklist to local quiescence, letting the
/// operator push follow-up work. Returns the number of operator
/// applications.
///
/// # Examples
///
/// ```
/// use gluon_engines::galois::{for_each, Worklist};
/// use gluon_graph::Lid;
///
/// // Count down from each seed, pushing v-1 until zero.
/// let mut hits = 0u32;
/// let applied = for_each(8, [Lid(3)], |lid, wl| {
///     hits += 1;
///     if lid.0 > 0 {
///         wl.push(Lid(lid.0 - 1));
///     }
/// });
/// assert_eq!(applied, 4); // 3, 2, 1, 0
/// assert_eq!(hits, 4);
/// ```
pub fn for_each(
    capacity: u32,
    init: impl IntoIterator<Item = Lid>,
    mut op: impl FnMut(Lid, &mut Worklist),
) -> u64 {
    let mut wl = Worklist::new(capacity);
    wl.extend(init);
    let mut applied = 0u64;
    while let Some(lid) = wl.pop() {
        op(lid, &mut wl);
        applied += 1;
    }
    applied
}

/// A delta-stepping priority worklist (Meyer & Sanders): work items carry a
/// priority (e.g. a tentative distance), are drained bucket by bucket
/// (bucket = priority / delta), and may be re-pushed with a better priority.
/// Stale entries are skipped lazily.
///
/// This is the scheduler Lonestar's asynchronous sssp uses; combined with
/// Gluon it yields a distributed sssp that does far fewer wasted
/// relaxations than FIFO chaotic relaxation on weighted graphs.
#[derive(Clone, Debug)]
pub struct DeltaWorklist {
    delta: u32,
    buckets: Vec<Vec<Lid>>,
    /// Best priority each node was pushed with (u32::MAX = never pushed or
    /// already drained at its best priority).
    best: Vec<u32>,
    current: usize,
}

impl DeltaWorklist {
    /// Creates a worklist for `capacity` nodes with bucket width `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is zero.
    pub fn new(capacity: u32, delta: u32) -> DeltaWorklist {
        assert!(delta > 0, "bucket width must be positive");
        DeltaWorklist {
            delta,
            buckets: Vec::new(),
            best: vec![u32::MAX; capacity as usize],
            current: 0,
        }
    }

    /// Pushes `lid` with `priority`, if better than its pending priority.
    pub fn push(&mut self, lid: Lid, priority: u32) {
        if priority >= self.best[lid.index()] {
            return; // an equal or better entry is already pending
        }
        self.best[lid.index()] = priority;
        let b = (priority / self.delta) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        self.buckets[b].push(lid);
        self.current = self.current.min(b);
    }

    /// Pops the lowest-priority pending node (skipping stale entries).
    pub fn pop(&mut self) -> Option<(Lid, u32)> {
        while self.current < self.buckets.len() {
            while let Some(lid) = self.buckets[self.current].pop() {
                let prio = self.best[lid.index()];
                // Stale if the node was re-pushed into a lower bucket (its
                // best priority no longer maps to this bucket).
                if prio != u32::MAX && (prio / self.delta) as usize == self.current {
                    self.best[lid.index()] = u32::MAX;
                    return Some((lid, prio));
                }
            }
            self.current += 1;
        }
        None
    }

    /// Whether any work is pending.
    pub fn is_empty(&self) -> bool {
        self.buckets[self.current.min(self.buckets.len())..]
            .iter()
            .all(Vec::is_empty)
    }
}

/// Prioritized `for_each`: drains work in ascending priority order (bucket
/// granularity `delta`), letting the operator push follow-up work with
/// priorities. Returns the number of operator applications.
///
/// # Examples
///
/// ```
/// use gluon_engines::galois::for_each_prioritized;
/// use gluon_graph::Lid;
///
/// // Drain in priority order: 5 before 40.
/// let mut seen = Vec::new();
/// for_each_prioritized(4, 10, [(Lid(0), 40), (Lid(1), 5)], |lid, prio, _| {
///     seen.push((lid.0, prio));
/// });
/// assert_eq!(seen, vec![(1, 5), (0, 40)]);
/// ```
pub fn for_each_prioritized(
    capacity: u32,
    delta: u32,
    init: impl IntoIterator<Item = (Lid, u32)>,
    mut op: impl FnMut(Lid, u32, &mut DeltaWorklist),
) -> u64 {
    let mut wl = DeltaWorklist::new(capacity, delta);
    for (lid, prio) in init {
        wl.push(lid, prio);
    }
    let mut applied = 0u64;
    while let Some((lid, prio)) = wl.pop() {
        op(lid, prio, &mut wl);
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;
    use gluon_partition::{partition_all, Policy};

    #[test]
    fn worklist_deduplicates_pending_entries() {
        let mut wl = Worklist::new(10);
        wl.push(Lid(3));
        wl.push(Lid(3));
        assert_eq!(wl.len(), 1);
        assert_eq!(wl.pop(), Some(Lid(3)));
        // After popping, the node may be enqueued again.
        wl.push(Lid(3));
        assert_eq!(wl.len(), 1);
    }

    #[test]
    fn for_each_reaches_quiescence_on_sssp() {
        // Asynchronous sssp on a single-host partition: one for_each call
        // relaxes everything (no rounds needed).
        let g = gluon_graph::with_random_weights(&gen::rmat(7, 6, Default::default(), 4), 4, 7);
        let mut parts = partition_all(&g, 1, Policy::Oec);
        let lg = parts.remove(0);
        let n = lg.num_proxies();
        let mut dist = vec![u32::MAX; n as usize];
        dist[0] = 0;
        for_each(n, [Lid(0)], |v, wl| {
            let dv = dist[v.index()];
            for e in lg.out_edges(v) {
                let nd = dv.saturating_add(e.weight);
                if nd < dist[e.dst.index()] {
                    dist[e.dst.index()] = nd;
                    wl.push(e.dst);
                }
            }
        });
        // Triangle inequality holds at fixpoint.
        for v in lg.proxies() {
            if dist[v.index()] == u32::MAX {
                continue;
            }
            for e in lg.out_edges(v) {
                assert!(dist[e.dst.index()] <= dist[v.index()].saturating_add(e.weight));
            }
        }
    }

    #[test]
    fn delta_worklist_orders_by_bucket() {
        let mut wl = DeltaWorklist::new(10, 4);
        wl.push(Lid(1), 9);
        wl.push(Lid(2), 0);
        wl.push(Lid(3), 5);
        assert_eq!(wl.pop(), Some((Lid(2), 0)));
        assert_eq!(wl.pop(), Some((Lid(3), 5)));
        assert_eq!(wl.pop(), Some((Lid(1), 9)));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn delta_worklist_repush_with_better_priority_wins() {
        let mut wl = DeltaWorklist::new(4, 2);
        wl.push(Lid(0), 11);
        wl.push(Lid(0), 3); // improvement: the stale bucket-5 entry is skipped
        assert_eq!(wl.pop(), Some((Lid(0), 3)));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn delta_worklist_ignores_worse_repush() {
        let mut wl = DeltaWorklist::new(4, 2);
        wl.push(Lid(0), 3);
        wl.push(Lid(0), 11);
        assert_eq!(wl.pop(), Some((Lid(0), 3)));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn delta_stepping_sssp_matches_dijkstra_order_free_result() {
        let g = gluon_graph::with_random_weights(&gen::rmat(7, 6, Default::default(), 44), 9, 5);
        let mut parts = partition_all(&g, 1, Policy::Oec);
        let lg = parts.remove(0);
        let n = lg.num_proxies();
        let mut dist = vec![u32::MAX; n as usize];
        dist[0] = 0;
        let applied = for_each_prioritized(n, 4, [(Lid(0), 0)], |v, prio, wl| {
            if prio > dist[v.index()] {
                return; // stale by the time it drained
            }
            for e in lg.out_edges(v) {
                let nd = dist[v.index()].saturating_add(e.weight);
                if nd < dist[e.dst.index()] {
                    dist[e.dst.index()] = nd;
                    wl.push(e.dst, nd);
                }
            }
        });
        // Compare against plain chaotic relaxation.
        let mut dist2 = vec![u32::MAX; n as usize];
        dist2[0] = 0;
        let applied_fifo = for_each(n, [Lid(0)], |v, wl| {
            for e in lg.out_edges(v) {
                let nd = dist2[v.index()].saturating_add(e.weight);
                if nd < dist2[e.dst.index()] {
                    dist2[e.dst.index()] = nd;
                    wl.push(e.dst);
                }
            }
        });
        assert_eq!(dist, dist2);
        // Prioritized scheduling should not do more work than FIFO.
        assert!(applied <= applied_fifo + 5, "{applied} vs {applied_fifo}");
    }

    #[test]
    fn do_all_binned_sweeps_reach_the_fifo_fixpoint_at_any_thread_count() {
        // Deterministic bulk sub-rounds (sweep -> ordered apply -> repeat)
        // must land on the same labels as FIFO chaotic relaxation.
        let g = gluon_graph::with_random_weights(&gen::rmat(7, 6, Default::default(), 4), 4, 7);
        let mut parts = partition_all(&g, 1, Policy::Oec);
        let lg = parts.remove(0);
        let n = lg.num_proxies();
        let mut fifo = vec![u32::MAX; n as usize];
        fifo[0] = 0;
        for_each(n, [Lid(0)], |v, wl| {
            let dv = fifo[v.index()];
            for e in lg.out_edges(v) {
                let nd = dv.saturating_add(e.weight);
                if nd < fifo[e.dst.index()] {
                    fifo[e.dst.index()] = nd;
                    wl.push(e.dst);
                }
            }
        });
        for threads in [1, 4, 8] {
            let pool = gluon_exec::Pool::new(threads);
            let mut bins = gluon::BinScratch::<u32>::new();
            let mut dist = vec![u32::MAX; n as usize];
            dist[0] = 0;
            let mut frontier = vec![Lid(0)];
            while !frontier.is_empty() {
                crate::ligra::vertex_map_push_pooled(
                    &lg,
                    &frontier,
                    &pool,
                    &mut bins,
                    &mut dist,
                    |v, dist, sink| {
                        let dv = dist[v.index()];
                        for e in lg.out_edges(v) {
                            let nd = dv.saturating_add(e.weight);
                            if nd < dist[e.dst.index()] {
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
                frontier = bins.activated().to_vec();
            }
            assert_eq!(dist, fifo, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_with_no_seeds_does_nothing() {
        let applied = for_each(4, [], |_, _| panic!("no work expected"));
        assert_eq!(applied, 0);
    }
}
