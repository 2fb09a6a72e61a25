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
