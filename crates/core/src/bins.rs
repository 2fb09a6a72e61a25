//! Push-style scatter-gather scratch: one segmented bin per pool worker,
//! drained in chunk order, with a recycling pool.
//!
//! The engines' push-style `edge_map` folds every candidate `(dst, value)`
//! pair through one sequential apply loop doing random writes into the
//! label array. [`BinScratch::run`] splits that fold in two:
//!
//! 1. **Scatter** — the exec pool deals the frontier's chunks to its
//!    workers; each worker appends its chunks' candidates, in ascending
//!    chunk order, to its own bin, and each chunk records its
//!    `(worker, start, end)` span of it. The scatter is race-free, runs in
//!    parallel and is metered exactly like the flat chunked map.
//! 2. **Drain** — the calling thread walks the spans in ascending chunk
//!    order and applies each span's candidates in edge order: exactly the
//!    order the flat sequential fold visits them.
//!
//! The drain *is* the flat fold, so labels and activation sets are
//! bit-identical to it at any thread count by construction.
//!
//! A bin is a list of fixed segments of [`SEGMENT`] entries (32 KiB of
//! `(u32, u32)`, 64 KiB of `(u32, f64)`). After the drain every segment
//! goes back to one spare list, and a worker takes a spare when its segment
//! fills; a segment is allocated only when the spare list is empty. So the
//! bins hold what the largest call needed, plus at most one partly filled
//! segment per worker ([`BinScratch::held_bytes`]), however the frontier
//! moves between chunks from call to call.
//!
//! All buffers (segments, spans, schedule state, the activation bitmap and
//! the list drained out of it) live in a [`BinScratch`] recycled through a
//! [`BinPool`] keyed like [`crate::SyncArena`] — after a warm-up call the
//! steady state performs zero heap allocations on a non-spawning pool.

use crate::bitset::DenseBitset;
use gluon_exec::{Pool, SchedScratch};
use gluon_graph::Lid;
use std::any::{Any, TypeId};
use std::sync::Mutex;

/// Entries per bin segment.
const SEGMENT: usize = 4096;

/// A fixed block of bin entries: capacity [`SEGMENT`], or 0 for a worker
/// that has not pushed yet this call.
type Segment<V> = Vec<(u32, V)>;

/// The spare segments of a [`BinScratch`], shared by its workers during
/// the scatter.
type Spare<V> = Mutex<Vec<Segment<V>>>;

/// One pool worker's bin for one call: the segments it filled, in order.
#[derive(Debug)]
struct WorkerBin<V> {
    /// This worker's index, recorded in the spans of its chunks.
    id: u32,
    /// Filled segments, [`SEGMENT`] entries each.
    full: Vec<Segment<V>>,
    /// The segment being filled.
    tail: Segment<V>,
}

impl<V> WorkerBin<V> {
    fn new(id: u32) -> Self {
        WorkerBin {
            id,
            full: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Entries pushed this call: the position of the next one.
    fn len(&self) -> usize {
        self.full.len() * SEGMENT + self.tail.len()
    }

    /// Segment `k` of the bin.
    fn segment(&self, k: usize) -> &[(u32, V)] {
        self.full.get(k).unwrap_or(&self.tail)
    }

    /// Files the tail (unless it is the empty start of a call) and takes a
    /// spare segment, allocating one only when none is spare.
    #[cold]
    #[inline(never)]
    fn roll(&mut self, spare: &Spare<V>) {
        let fresh = spare
            .lock()
            .expect("spare segments poisoned")
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(SEGMENT));
        let filled = std::mem::replace(&mut self.tail, fresh);
        if filled.capacity() != 0 {
            debug_assert_eq!(filled.len(), SEGMENT);
            self.full.push(filled);
        }
    }

    /// Empties the bin into `spare`, keeping every segment's capacity.
    fn recycle(&mut self, spare: &mut Vec<Segment<V>>) {
        let tail = std::mem::take(&mut self.tail);
        for mut segment in self.full.drain(..).chain(Some(tail)) {
            if segment.capacity() != 0 {
                segment.clear();
                spare.push(segment);
            }
        }
    }
}

/// Where one chunk's candidates went: entries `start..end` of worker
/// `worker`'s bin.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    worker: u32,
    start: usize,
    end: usize,
}

/// The scatter target handed to an `emit` closure: the bin of the worker
/// running the calling chunk.
pub struct BinSink<'a, V> {
    bin: &'a mut WorkerBin<V>,
    spare: &'a Spare<V>,
}

impl<V> BinSink<'_, V> {
    /// Appends a candidate update for `dst` to the worker's bin.
    #[inline]
    pub fn push(&mut self, dst: Lid, value: V) {
        if self.bin.tail.len() == self.bin.tail.capacity() {
            self.bin.roll(self.spare);
        }
        self.bin.tail.push((dst.0, value));
    }
}

/// Mutable views over the pull-side recycled buffers of a [`BinScratch`],
/// borrowed together so the pull engine can orchestrate its own sweep
/// (dense frontier conversion, per-chunk activation slots) without
/// allocating.
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
    /// The assembled, ascending activation list of the whole sweep.
    pub activated: &'a mut Vec<Lid>,
}

/// Recycled workspace for one binned scatter-gather operation (one
/// "field" of the engine layer: a pagerank contribution sweep, a BFS
/// relaxation, a k-core trim...).
///
/// Checked out of a [`BinPool`] around an algorithm's round loop and
/// checked back in afterwards. The bin segments are held to the largest
/// call (see the module doc); the other buffers ratchet to their
/// high-water sizes and are reused verbatim.
#[derive(Debug)]
pub struct BinScratch<V> {
    /// One bin per pool worker; every bin is empty between calls.
    workers: Vec<WorkerBin<V>>,
    /// Segments no bin holds: all of them between calls.
    spare: Spare<V>,
    /// One span per exec chunk of the members.
    spans: Vec<Span>,
    /// Entries of the largest call so far.
    largest: usize,
    sched: SchedScratch,
    /// The destinations activated this call, one bit per label slot
    /// (empty between calls).
    seen: DenseBitset,
    chunk_active: Vec<Vec<Lid>>,
    frontier_bits: DenseBitset,
    activated: Vec<Lid>,
}

impl<V> Default for BinScratch<V> {
    fn default() -> Self {
        BinScratch {
            workers: Vec::new(),
            spare: Mutex::new(Vec::new()),
            spans: Vec::new(),
            largest: 0,
            sched: SchedScratch::new(),
            seen: DenseBitset::new(0),
            chunk_active: Vec::new(),
            frontier_bits: DenseBitset::new(0),
            activated: Vec::new(),
        }
    }
}

impl<V> BinScratch<V> {
    /// Bytes of one bin segment.
    pub const SEGMENT_BYTES: usize = SEGMENT * std::mem::size_of::<(u32, V)>();
}

impl<V: Copy + Send + Sync + 'static> BinScratch<V> {
    /// Creates a fresh, empty scratch (normally obtained from
    /// [`BinPool::checkout`] instead).
    pub fn new() -> Self {
        BinScratch::default()
    }

    /// The activation list of the most recent [`BinScratch::run`] (or
    /// pull sweep): every destination whose `apply` returned `true` at
    /// least once, ascending, deduplicated.
    pub fn activated(&self) -> &[Lid] {
        &self.activated
    }

    /// Bytes of bin segments held, spare or in use: at most
    /// [`BinScratch::largest_call_bytes`] plus one segment
    /// ([`BinScratch::SEGMENT_BYTES`]) per pool worker.
    pub fn held_bytes(&self) -> usize {
        let spare = self.spare.lock().expect("spare segments poisoned");
        let segments = spare.iter().chain(
            self.workers
                .iter()
                .flat_map(|bin| bin.full.iter().chain(Some(&bin.tail))),
        );
        segments.map(Vec::capacity).sum::<usize>() * std::mem::size_of::<(u32, V)>()
    }

    /// Bytes the candidates of the largest [`BinScratch::run`] so far
    /// occupied.
    pub fn largest_call_bytes(&self) -> usize {
        self.largest * std::mem::size_of::<(u32, V)>()
    }

    /// Runs one push-style scatter-gather over `members`:
    ///
    /// 1. chunks of `members` run `emit(chunk_members, labels, sink)` in
    ///    parallel, each scattering candidates into its worker's bin
    ///    (labels are visible *shared* during this phase, matching the
    ///    flat fold where relaxation closures read current labels);
    /// 2. the calling thread drains the chunks' spans in (chunk, edge)
    ///    order, running `apply(dst, value, &mut labels[dst])` — `true`
    ///    means "activated";
    /// 3. [`BinScratch::activated`] holds the ascending activation list.
    ///
    /// `weight(member)` is the member's metered work-unit cost (e.g. its
    /// out-degree); the scatter is metered exactly like the flat chunked
    /// map, and the drain — the flat sequential fold — is not.
    pub fn run<T: Sync>(
        &mut self,
        pool: &Pool,
        members: &[Lid],
        labels: &mut [T],
        weight: impl Fn(Lid) -> u64 + Sync,
        emit: impl Fn(&[Lid], &[T], &mut BinSink<'_, V>) + Sync,
        apply: impl Fn(Lid, V, &mut T) -> bool,
    ) {
        let num_chunks = Pool::num_chunks(members.len());
        let BinScratch {
            workers,
            spare,
            spans,
            largest,
            sched,
            seen,
            activated,
            ..
        } = self;

        // Scatter: each worker appends its chunks to its own bin, each
        // chunk noting its span; metered like the flat chunked map (same
        // chunk widths, same weights).
        while workers.len() < pool.threads() {
            workers.push(WorkerBin::new(workers.len() as u32));
        }
        if spans.len() < num_chunks {
            spans.resize(num_chunks, Span::default());
        }
        {
            let labels_ro: &[T] = labels;
            let spare: &Spare<V> = spare;
            pool.for_each_chunk_scratch(
                members.len(),
                sched,
                &mut spans[..num_chunks],
                workers,
                |r| members[r].iter().map(|&m| weight(m)).sum(),
                |r, span, bin| {
                    let start = bin.len();
                    emit(&members[r], labels_ro, &mut BinSink { bin, spare });
                    *span = Span {
                        worker: bin.id,
                        start,
                        end: bin.len(),
                    };
                },
            );
        }

        // Drain: the flat fold's visit order, span by span in chunk order,
        // each in edge order. The bitmap is re-allocated only when the
        // label count changes.
        if seen.capacity() as usize != labels.len() {
            *seen = DenseBitset::new(labels.len() as u32);
        }
        let mut any = false;
        let mut entries = 0;
        for span in &spans[..num_chunks] {
            let bin = &workers[span.worker as usize];
            entries += span.end - span.start;
            let mut at = span.start;
            while at < span.end {
                let k = at / SEGMENT;
                let stop = span.end.min((k + 1) * SEGMENT);
                for &(d, v) in &bin.segment(k)[at - k * SEGMENT..stop - k * SEGMENT] {
                    if apply(Lid(d), v, &mut labels[d as usize]) {
                        seen.set(Lid(d));
                        any = true;
                    }
                }
                at = stop;
            }
        }
        *largest = (*largest).max(entries);
        // Every segment goes back to the spare list, for any worker to take
        // next call.
        let spare = spare.get_mut().expect("spare segments poisoned");
        for bin in workers.iter_mut() {
            bin.recycle(spare);
        }
        // The bitmap is the activation list: draining it word by word
        // yields each activated destination once, in ascending order, and
        // leaves it clear for the next call. A call that activated nothing
        // skips the pass.
        activated.clear();
        if any {
            seen.drain_into(activated);
        }
    }

    /// Borrows the pull-side recycled buffers (dense frontier image,
    /// per-chunk activation slots) for a pull-style sweep orchestrated by
    /// the engine layer.
    pub fn pull_scratch(&mut self) -> PullScratch<'_> {
        PullScratch {
            sched: &mut self.sched,
            chunk_active: &mut self.chunk_active,
            frontier_bits: &mut self.frontier_bits,
            activated: &mut self.activated,
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
        /// that accepts the same destination many times, label counts on
        /// and off a word boundary; the scratch is reused across streams,
        /// so a mark left behind by one call would surface in the next.
        #[test]
        fn activated_equals_the_push_then_sort_oracle(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..400,
            threads in 1usize..=4,
        ) {
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let pool = Pool::new(threads);
            let mut scratch = BinScratch::<u32>::new();
            for _stream in 0..3 {
                // Each member offers 0..6 (dst, value) candidates; `apply`
                // accepts every even value, so a destination can be
                // accepted many times, once, or never.
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
                proptest::prop_assert_eq!(scratch.activated(), &want[..], "n {}", n);
            }
        }
    }

    #[test]
    fn bins_hold_the_largest_call_plus_a_segment_per_worker() {
        // 16 chunks of 64 members. Two calls of the same size alternate:
        // in the first only the first half of the chunks emit, in the
        // second only the second half. Bins kept per chunk would each
        // grow to their own chunk's share and hold both halves.
        const PER_MEMBER: u32 = 40;
        let n = 1024u32;
        let members: Vec<Lid> = (0..n).map(Lid).collect();
        let chunks = Pool::num_chunks(members.len());
        assert_eq!(chunks, 16);
        let width = members.len() / chunks;
        let largest = chunks / 2 * width * PER_MEMBER as usize * 8;
        for pool in [Pool::new(1), Pool::new(4), Pool::inline(4)] {
            let mut scratch = BinScratch::<u32>::new();
            let mut labels = vec![u32::MAX; n as usize];
            for call in 0..6 {
                let emitting = if call % 2 == 0 { 0..n / 2 } else { n / 2..n };
                scratch.run(
                    &pool,
                    &members,
                    &mut labels,
                    |_| 1,
                    |chunk, _, sink| {
                        for m in chunk.iter().filter(|m| emitting.contains(&m.0)) {
                            for k in 0..PER_MEMBER {
                                sink.push(Lid((m.0 * 31 + k) % n), k);
                            }
                        }
                    },
                    |_, v, slot| {
                        *slot = (*slot).min(v);
                        false
                    },
                );
                assert_eq!(scratch.largest_call_bytes(), largest);
                let bound = largest + pool.threads() * BinScratch::<u32>::SEGMENT_BYTES;
                assert!(
                    scratch.held_bytes() <= bound,
                    "{} threads, call {call}: {} bytes held, bound {bound}",
                    pool.threads(),
                    scratch.held_bytes()
                );
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
        let grown = s.held_bytes();
        assert_eq!(grown, BinScratch::<u32>::SEGMENT_BYTES, "one segment");
        assert_eq!(s.activated(), [Lid(0), Lid(1)]);
        pool.checkin("relax", s);
        assert_eq!(pool.num_sites(), 1);
        // Buffers persist.
        let s = pool.checkout::<u32>("relax");
        assert_eq!(s.held_bytes(), grown);
        pool.checkin("relax", s);
        // Different value type: fresh scratch.
        assert_eq!(pool.checkout::<f64>("relax").held_bytes(), 0);
    }
}
