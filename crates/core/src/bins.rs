//! Partition-centric scatter-gather scratch: cache-sized destination
//! bins with a recycling pool.
//!
//! The engines' push-style `edge_map` folds every candidate `(dst, value)`
//! pair through one sequential apply loop doing random writes into the
//! label array. [`BinScratch::run`] replaces that fold with a GPOP-style
//! two-phase schedule:
//!
//! 1. **Scatter** — each exec-pool chunk of the frontier emits its
//!    candidates into a private row of per-destination-partition bins
//!    (one `Vec` per (chunk, partition)), so the scatter is race-free and
//!    metered exactly like the flat chunked map.
//! 2. **Drain** — partitions own disjoint destination ranges
//!    (`[p·width, (p+1)·width)`), so their bins apply **in parallel
//!    across partitions** with no write races; *within* a partition, bins
//!    drain in (chunk index, edge order) — exactly the order the flat
//!    sequential fold visits those destinations.
//!
//! Because the per-slot `apply` only touches its own destination slot,
//! the per-destination operation sequence is identical to the flat fold,
//! making labels and activation sets bit-identical at any thread count
//! and any partition width — a single partition spanning the whole vertex
//! space *is* the flat fold ([`BinScratch::set_width_override`] lets tests
//! drive that geometry).
//!
//! Partition boundaries derive **only** from the local vertex count and a
//! fixed bytes-per-partition target ([`gluon_partition::partition_width`]),
//! so they are deterministic across runs, thread counts, and hosts.
//!
//! All buffers (bins, schedule state, per-partition activation bitmaps
//! and the lists drained out of them) live in a [`BinScratch`] recycled through a
//! [`BinPool`] keyed like [`crate::SyncArena`] — after a warm-up call the
//! steady state performs zero heap allocations on a non-spawning pool.

use crate::bitset::DenseBitset;
use gluon_exec::{Pool, SchedScratch};
use gluon_graph::Lid;
use gluon_partition::partition_width;
use std::any::{Any, TypeId};

/// The scatter target handed to an `emit` closure: one row of
/// destination-partition bins belonging to the calling chunk.
///
/// [`BinSink::push`] routes a candidate to the bin of its destination's
/// partition in O(1) (shift, no divide).
pub struct BinSink<'a, V> {
    parts: &'a mut [Vec<(u32, V)>],
    shift: u32,
}

impl<V> BinSink<'_, V> {
    /// Appends a candidate update for `dst` to its partition's bin.
    #[inline]
    pub fn push(&mut self, dst: Lid, value: V) {
        self.parts[(dst.0 >> self.shift) as usize].push((dst.0, value));
    }
}

/// Counters accumulated by [`BinScratch`] across calls.
///
/// Scheduling observability only: the counts depend on the partition
/// geometry, not the computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinStats {
    /// Destination chunks skipped by the pull-side frontier probe.
    pub chunks_skipped: u64,
}

/// Per-partition drain state: the bitmap of destinations activated this
/// call (empty between calls) and the activation list drained out of it,
/// both recycled across calls.
#[derive(Debug)]
struct PartScratch {
    seen: DenseBitset,
    active: Vec<Lid>,
}

impl Default for PartScratch {
    fn default() -> Self {
        PartScratch {
            seen: DenseBitset::new(0),
            active: Vec::new(),
        }
    }
}

impl PartScratch {
    /// Sizes the activation bitmap to the partition width (re-allocates
    /// only when the geometry changes, i.e. once per graph).
    fn ensure(&mut self, width: usize) {
        if self.seen.capacity() as usize != width {
            self.seen = DenseBitset::new(width as u32);
        }
    }
}

/// Mutable views over the pull-side recycled buffers of a [`BinScratch`],
/// borrowed together so the pull engine can orchestrate its own sweep
/// (dense frontier conversion, per-partition frontier probe, per-chunk
/// activation slots) without allocating.
#[derive(Debug)]
pub struct PullScratch<'a> {
    /// Recycled scheduling state for the destination-chunk sweep.
    pub sched: &'a mut SchedScratch,
    /// One activation list per destination chunk (grown to the chunk
    /// count, cleared between calls).
    pub chunk_active: &'a mut Vec<Vec<Lid>>,
    /// Dense image of the frontier, one bit per in-edge source slot
    /// (re-allocated only when the slot count changes).
    pub frontier_bits: &'a mut DenseBitset,
    /// Per-destination-partition "frontier reaches this partition" marks.
    pub touched: &'a mut Vec<bool>,
    /// The assembled, ascending activation list of the whole sweep.
    pub activated: &'a mut Vec<Lid>,
    /// The owning scratch's counters (for `chunks_skipped`).
    pub stats: &'a mut BinStats,
}

/// Recycled workspace for one partition-binned scatter-gather operation
/// (one "field" of the engine layer: a pagerank contribution sweep, a
/// BFS relaxation, a k-core trim...).
///
/// Checked out of a [`BinPool`] around an algorithm's round loop and
/// checked back in afterwards; all interior buffers ratchet to their
/// high-water sizes during the first call and are reused verbatim after.
#[derive(Debug)]
pub struct BinScratch<V> {
    /// Test hook: force a partition width (must be a power of two). The
    /// parity proptest uses this to show boundary choice never changes
    /// results; production code leaves it `None`.
    width_override: Option<usize>,
    /// Chunk-major bin matrix: the bin of (chunk `c`, partition `p`) under
    /// geometry (C, P) is `bins[c*P + p]`. Grown monotonically; every bin
    /// is empty (len 0, capacity kept) between calls.
    bins: Vec<Vec<(u32, V)>>,
    sched: SchedScratch,
    parts: Vec<PartScratch>,
    part_weights: Vec<u64>,
    chunk_active: Vec<Vec<Lid>>,
    frontier_bits: DenseBitset,
    touched: Vec<bool>,
    activated: Vec<Lid>,
    members: Vec<Lid>,
    stats: BinStats,
}

impl<V> Default for BinScratch<V> {
    fn default() -> Self {
        BinScratch {
            width_override: None,
            bins: Vec::new(),
            sched: SchedScratch::new(),
            parts: Vec::new(),
            part_weights: Vec::new(),
            chunk_active: Vec::new(),
            frontier_bits: DenseBitset::new(0),
            touched: Vec::new(),
            activated: Vec::new(),
            members: Vec::new(),
            stats: BinStats::default(),
        }
    }
}

impl<V: Copy + Send + Sync + 'static> BinScratch<V> {
    /// Creates a fresh, empty scratch (normally obtained from
    /// [`BinPool::checkout`] instead).
    pub fn new() -> Self {
        BinScratch::default()
    }

    /// Forces the destination-partition width (test hook; power of two).
    pub fn set_width_override(&mut self, width: Option<usize>) {
        if let Some(w) = width {
            assert!(
                w.is_power_of_two(),
                "partition width must be a power of two"
            );
        }
        self.width_override = width;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BinStats {
        self.stats
    }

    /// The destination-partition width this scratch will use for a space
    /// of `n` slots: the cache-sized grid of [`partition_width`] (a power
    /// of two, so the scatter routes with a shift instead of a divide)
    /// unless a test override is set.
    pub fn effective_width(&self, n: usize) -> usize {
        self.width_override.unwrap_or_else(|| partition_width(n))
    }

    /// The activation list of the most recent [`BinScratch::run`] (or
    /// pull sweep): every destination whose `apply` returned `true` at
    /// least once, ascending, deduplicated.
    pub fn activated(&self) -> &[Lid] {
        &self.activated
    }

    /// Runs one push-style scatter-gather over `members`:
    ///
    /// 1. chunks of `members` run `emit(chunk_members, labels, sink)` in
    ///    parallel, each scattering candidates into its private bin row
    ///    (labels are visible *shared* during this phase, matching the
    ///    flat fold where relaxation closures read current labels);
    /// 2. each destination partition drains its bins in (chunk, edge)
    ///    order, running `apply(dst, value, &mut labels[dst])` — `true`
    ///    means "activated";
    /// 3. [`BinScratch::activated`] holds the ascending activation list.
    ///
    /// `weight(member)` is the member's metered work-unit cost (e.g. its
    /// out-degree); the scatter is metered exactly like the flat chunked
    /// map, and the drain — like the flat sequential fold — is not.
    pub fn run<T: Send + Sync>(
        &mut self,
        pool: &Pool,
        members: &[Lid],
        labels: &mut [T],
        weight: impl Fn(Lid) -> u64 + Sync,
        emit: impl Fn(&[Lid], &[T], &mut BinSink<'_, V>) + Sync,
        apply: impl Fn(Lid, V, &mut T) -> bool + Sync,
    ) {
        let n = labels.len();
        let width = self.effective_width(n);
        debug_assert!(width.is_power_of_two());
        let shift = width.trailing_zeros();
        let num_parts = n.div_ceil(width).max(1);
        let num_chunks = Pool::num_chunks(members.len());
        let needed = num_chunks * num_parts;

        let BinScratch {
            bins,
            sched,
            parts,
            part_weights,
            activated,
            ..
        } = self;

        // Scatter: one private bin row per chunk, metered like the flat
        // chunked map (same chunk widths, same weights).
        if bins.len() < needed {
            bins.resize_with(needed, Vec::new);
        }
        {
            let labels_ro: &[T] = labels;
            pool.for_each_chunk_scratch(
                members.len(),
                sched,
                &mut bins[..needed],
                num_parts,
                |r| members[r].iter().map(|&m| weight(m)).sum(),
                |r, row| {
                    let mut sink = BinSink { parts: row, shift };
                    emit(&members[r], labels_ro, &mut sink);
                },
            );
        }

        // Partition weights (total candidates targeting each partition)
        // drive the LPT deal of the drain.
        part_weights.clear();
        part_weights.resize(num_parts, 0);
        for (i, bin) in bins[..needed].iter().enumerate() {
            part_weights[i % num_parts] += bin.len() as u64;
        }

        // Drain: partitions apply in parallel (disjoint destination
        // ranges); within a partition, (chunk, edge) order — the flat
        // fold's visit order restricted to that partition.
        if parts.len() < num_parts {
            parts.resize_with(num_parts, PartScratch::default);
        }
        for ps in parts[..num_parts].iter_mut() {
            ps.ensure(width);
        }
        {
            let bins_ro: &[Vec<(u32, V)>] = &bins[..needed];
            pool.for_each_part_mut(
                labels,
                width,
                part_weights,
                &mut parts[..num_parts],
                |pi, start, slice, ps| {
                    let mut any = false;
                    for ci in 0..num_chunks {
                        for &(d, v) in bins_ro[ci * num_parts + pi].iter() {
                            let local = Lid((d as usize - start) as u32);
                            if apply(Lid(d), v, &mut slice[local.index()]) {
                                ps.seen.set(local);
                                any = true;
                            }
                        }
                    }
                    // The bitmap is the activation list: draining it word
                    // by word yields each activated destination once, in
                    // ascending order, and leaves it clear for the next
                    // call. A partition nothing activated in is skipped.
                    if any {
                        ps.seen.drain_into(start as u32, &mut ps.active);
                    }
                },
            );
        }

        // Partitions own ascending, disjoint destination ranges, so their
        // lists concatenate into the canonical (ascending) activation
        // list. Then reset the bins for the next call — lengths only,
        // capacities kept.
        activated.clear();
        for ps in parts[..num_parts].iter_mut() {
            activated.append(&mut ps.active);
        }
        for bin in bins[..needed].iter_mut() {
            bin.clear();
        }
    }

    /// Moves the recycled member-list buffer out of the scratch (cleared).
    /// Callers that must materialize a dense frontier as a member slice
    /// take this buffer, fill it, pass it to [`BinScratch::run`], and put
    /// it back with [`BinScratch::put_member_buf`] — a move each way, so
    /// the capacity ratchets across calls instead of re-allocating.
    pub fn take_member_buf(&mut self) -> Vec<Lid> {
        let mut buf = std::mem::take(&mut self.members);
        buf.clear();
        buf
    }

    /// Returns the member-list buffer taken by
    /// [`BinScratch::take_member_buf`].
    pub fn put_member_buf(&mut self, buf: Vec<Lid>) {
        self.members = buf;
    }

    /// Borrows the pull-side recycled buffers (dense frontier image,
    /// per-partition probe marks, per-chunk activation slots) for a
    /// pull-style sweep orchestrated by the engine layer.
    pub fn pull_scratch(&mut self) -> PullScratch<'_> {
        PullScratch {
            sched: &mut self.sched,
            chunk_active: &mut self.chunk_active,
            frontier_bits: &mut self.frontier_bits,
            touched: &mut self.touched,
            activated: &mut self.activated,
            stats: &mut self.stats,
        }
    }
}

/// Per-operation slot storage, keyed like [`crate::SyncArena`]: the name
/// identifies the operation site, the type its bin value.
type BinKey = (&'static str, TypeId);

/// The per-context pool of [`BinScratch`] workspaces.
///
/// Owned by `GluonContext` next to the [`crate::SyncArena`].
#[derive(Default)]
pub struct BinPool {
    /// Linear scan keyed by `(site, value type)`: engines bin a handful
    /// of operations, so a map would only add hashing to the hot path.
    slots: Vec<(BinKey, Box<dyn Any + Send>)>,
}

impl BinPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BinPool::default()
    }

    /// Number of distinct `(site, value type)` scratches held.
    pub fn num_sites(&self) -> usize {
        self.slots.len()
    }

    /// Takes the pooled scratch of `name` out for one operation (or round
    /// loop), leaving an empty one in the slot — a move, not an
    /// allocation. First use of a site returns a fresh scratch.
    pub fn checkout<V: Copy + Send + Sync + 'static>(
        &mut self,
        name: &'static str,
    ) -> BinScratch<V> {
        let key = (name, TypeId::of::<V>());
        if let Some((_, boxed)) = self.slots.iter_mut().find(|(k, _)| *k == key) {
            if let Some(slot) = boxed.downcast_mut::<BinScratch<V>>() {
                return std::mem::take(slot);
            }
        }
        BinScratch::default()
    }

    /// Returns a scratch to the pool. Boxes a new slot on first checkin;
    /// every later checkin is a plain move.
    pub fn checkin<V: Copy + Send + Sync + 'static>(
        &mut self,
        name: &'static str,
        scratch: BinScratch<V>,
    ) {
        let key = (name, TypeId::of::<V>());
        if let Some((_, boxed)) = self.slots.iter_mut().find(|(k, _)| *k == key) {
            if let Some(slot) = boxed.downcast_mut::<BinScratch<V>>() {
                *slot = scratch;
                return;
            }
        }
        self.slots.push((key, Box::new(scratch)));
    }
}

impl std::fmt::Debug for BinPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinPool")
            .field("sites", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy relaxation: every member pushes `label[m] + 1` to each of a
    /// few pseudo-neighbours; apply keeps the minimum.
    fn relax_round(
        pool: &Pool,
        scratch: &mut BinScratch<u32>,
        members: &[Lid],
        labels: &mut [u32],
    ) -> Vec<Lid> {
        let n = labels.len() as u32;
        scratch.run(
            pool,
            members,
            labels,
            |_| 3,
            |chunk, labels, sink| {
                for &m in chunk {
                    let cand = labels[m.index()].saturating_add(1);
                    for k in 1..=3u32 {
                        sink.push(Lid((m.0 * 7 + k * 13) % n), cand);
                    }
                }
            },
            |_, v, slot| {
                if v < *slot {
                    *slot = v;
                    true
                } else {
                    false
                }
            },
        );
        scratch.activated().to_vec()
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 1500usize;
        let members: Vec<Lid> = (0..400).map(|i| Lid(i * 3 % n as u32)).collect();
        let mut base = vec![u32::MAX; n];
        for i in (0..n).step_by(17) {
            base[i] = (i % 5) as u32;
        }
        let run = |pool: Pool| {
            let mut labels = base.clone();
            let mut scratch = BinScratch::<u32>::new();
            let act = relax_round(&pool, &mut scratch, &members, &mut labels);
            (labels, act)
        };
        assert_eq!(run(Pool::new(4)), run(Pool::sequential()));
    }

    #[test]
    fn width_override_never_changes_results() {
        let n = 777usize;
        let members: Vec<Lid> = (0..n as u32).step_by(2).map(Lid).collect();
        let mut base = vec![u32::MAX; n];
        base[0] = 0;
        base[33] = 1;
        let pool = Pool::new(3);
        let mut reference: Option<(Vec<u32>, Vec<Lid>)> = None;
        for width in [64usize, 128, 1024, 65536] {
            let mut labels = base.clone();
            let mut scratch = BinScratch::<u32>::new();
            scratch.set_width_override(Some(width));
            let act = relax_round(&pool, &mut scratch, &members, &mut labels);
            match &reference {
                None => reference = Some((labels, act)),
                Some((l, a)) => {
                    assert_eq!(&labels, l, "labels diverge at width {width}");
                    assert_eq!(&act, a, "activations diverge at width {width}");
                }
            }
        }
    }

    #[test]
    fn activation_list_is_sorted_and_deduplicated() {
        let pool = Pool::sequential();
        let mut labels = vec![10u32; 300];
        let members: Vec<Lid> = (0..300).map(Lid).collect();
        let mut scratch = BinScratch::<u32>::new();
        // Every member pushes to dst 7 and its own mirror — dst 7 gets
        // hundreds of successful applies but must appear once.
        scratch.run(
            &pool,
            &members,
            &mut labels,
            |_| 1,
            |chunk, _, sink| {
                for &m in chunk {
                    sink.push(Lid(7), 0);
                    sink.push(Lid(299 - m.0), 1);
                }
            },
            |_, v, slot| {
                if v < *slot {
                    *slot = v;
                    true
                } else {
                    false
                }
            },
        );
        let act = scratch.activated();
        assert!(act.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        assert!(act.contains(&Lid(7)));
        assert_eq!(labels[7], 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The bitmap drain against the list it replaced: push a
        /// destination the first time `apply` accepts a candidate for it,
        /// then sort the whole list. Random candidate streams, an `apply`
        /// that accepts the same destination many times, a random
        /// partition width whose last partition is always short
        /// (`n = full_parts * width + tail`), and the single partition
        /// spanning the space; the scratch is reused across streams, so a
        /// mark left behind by one call would surface in the next.
        #[test]
        fn activated_equals_the_push_then_sort_oracle(
            seed in proptest::prelude::any::<u64>(),
            width_exp in 6u32..=8,
            full_parts in 0usize..4,
            tail in 1usize..64,
            threads in 1usize..=4,
        ) {
            let width = 1usize << width_exp;
            let n = full_parts * width + tail;
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let pool = Pool::new(threads);
            for geometry in [width, n.next_power_of_two().max(64)] {
                let mut scratch = BinScratch::<u32>::new();
                scratch.set_width_override(Some(geometry));
                for _stream in 0..3 {
                    // Each member offers 0..6 (dst, value) candidates;
                    // `apply` accepts every even value, so a destination
                    // can be accepted many times, once, or never.
                    let stream: Vec<Vec<(u32, u32)>> = (0..n)
                        .map(|_| {
                            (0..next() % 6)
                                .map(|_| ((next() % n as u64) as u32, (next() % 4) as u32))
                                .collect()
                        })
                        .collect();
                    let members: Vec<Lid> =
                        (0..n as u32).filter(|_| next() % 2 == 0).map(Lid).collect();
                    let mut seen = vec![false; n];
                    let mut want = Vec::new();
                    for &m in &members {
                        for &(dst, v) in &stream[m.index()] {
                            if v % 2 == 0 && !seen[dst as usize] {
                                seen[dst as usize] = true;
                                want.push(Lid(dst));
                            }
                        }
                    }
                    want.sort_unstable();
                    let mut labels = vec![0u32; n];
                    scratch.run(
                        &pool,
                        &members,
                        &mut labels,
                        |m| stream[m.index()].len() as u64,
                        |chunk, _labels, sink| {
                            for &m in chunk {
                                for &(dst, v) in &stream[m.index()] {
                                    sink.push(Lid(dst), v);
                                }
                            }
                        },
                        |_dst, v, slot| {
                            *slot += 1;
                            v % 2 == 0
                        },
                    );
                    proptest::prop_assert_eq!(
                        scratch.activated(), &want[..], "width {}, n {}", geometry, n
                    );
                }
            }
        }
    }

    #[test]
    fn pool_round_trips_scratch() {
        let mut pool = BinPool::new();
        let mut s = pool.checkout::<u32>("relax");
        let exec = Pool::sequential();
        let mut labels = vec![u32::MAX; 128];
        s.run(
            &exec,
            &[Lid(0), Lid(1)],
            &mut labels,
            |_| 1,
            |chunk, _, sink| {
                for &m in chunk {
                    sink.push(m, 5);
                }
            },
            |_, v, slot| {
                *slot = v;
                true
            },
        );
        let grown = s.bins.capacity();
        assert!(grown > 0);
        assert_eq!(s.activated(), [Lid(0), Lid(1)]);
        pool.checkin("relax", s);
        assert_eq!(pool.num_sites(), 1);
        // Buffers persist.
        let s = pool.checkout::<u32>("relax");
        assert_eq!(s.bins.capacity(), grown);
        pool.checkin("relax", s);
        // Different value type: fresh scratch.
        assert_eq!(pool.checkout::<f64>("relax").bins.capacity(), 0);
    }
}
