//! A Ligra-style frontier engine (Shun & Blelloch, PPoPP'13).
//!
//! Ligra programs are built from `edgeMap` — apply an update function to
//! every edge leaving the current frontier and collect the newly activated
//! destinations — and `vertexMap`. The engine's trademark is *direction
//! optimization*: when the frontier is large, it switches from pushing along
//! out-edges to pulling along in-edges, which lets destinations stop early.
//!
//! This engine runs on one host's [`LocalGraph`]; plugged into
//! [`gluon::GluonContext::sync`] between rounds it becomes the paper's
//! **D-Ligra**. The classic `edgeMap` runs on the host thread; the
//! `*_pooled` variants drive a deterministic [`Pool`] for intra-host
//! parallelism (candidates from immutable state, applied in chunk order,
//! bit-identical at any thread count).

use gluon::{BinScratch, BinSink, BitsetIter, DenseBitset, PullScratch};
use gluon_exec::{chunk_width, Pool, SchedScratch};
use gluon_graph::{for_each_edge, Lid};
use gluon_partition::LocalGraph;

/// A set of active proxies, kept sparse (list) or dense (bit set) depending
/// on size — Ligra's `vertexSubset`.
#[derive(Clone, Debug)]
pub enum VertexSubset {
    /// Explicit list of members (ascending, deduplicated).
    Sparse(Vec<Lid>),
    /// One bit per proxy.
    Dense(DenseBitset),
}

impl VertexSubset {
    /// The empty subset (sparse).
    pub fn empty() -> VertexSubset {
        VertexSubset::Sparse(Vec::new())
    }

    /// Builds a sparse subset from members (sorted + deduplicated here).
    pub fn from_members(mut members: Vec<Lid>) -> VertexSubset {
        members.sort_unstable();
        members.dedup();
        VertexSubset::Sparse(members)
    }

    /// Wraps a dirty bit set produced by a Gluon sync.
    pub fn from_bitset(bits: DenseBitset) -> VertexSubset {
        VertexSubset::Dense(bits)
    }

    /// Number of members: O(1) sparse, a `count_ones` pass over every word
    /// (O(proxies/64)) dense.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse(v) => v.len(),
            VertexSubset::Dense(b) => b.count_ones() as usize,
        }
    }

    /// Whether the subset is empty: O(1) sparse; dense, a scan up to the
    /// first set word (O(proxies/64) when empty or sparse at the top).
    pub fn is_empty(&self) -> bool {
        match self {
            VertexSubset::Sparse(v) => v.is_empty(),
            VertexSubset::Dense(b) => b.is_empty(),
        }
    }

    /// Iterates over members in ascending order: O(members) sparse, every
    /// word of the bit set (O(proxies/64 + members)) dense.
    pub fn iter(&self) -> SubsetIter<'_> {
        match self {
            VertexSubset::Sparse(v) => SubsetIter::Sparse(v.iter().copied()),
            VertexSubset::Dense(b) => SubsetIter::Dense(b.iter()),
        }
    }

    /// Materializes the subset as a bit set of `capacity` bits (Gluon's
    /// dirty-set input).
    ///
    /// # Panics
    ///
    /// Panics if a member exceeds `capacity`.
    pub fn to_bitset(&self, capacity: u32) -> DenseBitset {
        match self {
            VertexSubset::Sparse(v) => {
                let mut b = DenseBitset::new(capacity);
                for &m in v {
                    b.set(m);
                }
                b
            }
            VertexSubset::Dense(b) => {
                assert_eq!(b.capacity(), capacity, "bitset capacity mismatch");
                b.clone()
            }
        }
    }

    /// [`VertexSubset::to_bitset`] by value: a dense subset hands back the
    /// bit set it wraps instead of cloning it.
    ///
    /// # Panics
    ///
    /// Panics if a member exceeds `capacity`.
    pub fn into_bitset(self, capacity: u32) -> DenseBitset {
        match self {
            VertexSubset::Dense(b) => {
                assert_eq!(b.capacity(), capacity, "bitset capacity mismatch");
                b
            }
            sparse => sparse.to_bitset(capacity),
        }
    }

    /// The member list by value, ascending: a sparse subset hands back the
    /// list it wraps (the twin of [`VertexSubset::into_bitset`]), a dense
    /// one lists its bits.
    pub fn into_members(self) -> Vec<Lid> {
        match self {
            VertexSubset::Sparse(v) => v,
            VertexSubset::Dense(b) => b.iter().collect(),
        }
    }

    /// Membership test (O(log n) sparse, O(1) dense).
    pub fn contains(&self, lid: Lid) -> bool {
        match self {
            VertexSubset::Sparse(v) => v.binary_search(&lid).is_ok(),
            VertexSubset::Dense(b) => b.test(lid),
        }
    }
}

/// Concrete iterator over the members of a [`VertexSubset`], ascending
/// (what [`VertexSubset::iter`] returns — no boxing, so tight frontier
/// loops inline).
#[derive(Clone, Debug)]
pub enum SubsetIter<'a> {
    /// Members of a sparse subset.
    Sparse(std::iter::Copied<std::slice::Iter<'a, Lid>>),
    /// Set bits of a dense subset.
    Dense(BitsetIter<'a>),
}

impl Iterator for SubsetIter<'_> {
    type Item = Lid;

    fn next(&mut self) -> Option<Lid> {
        match self {
            SubsetIter::Sparse(it) => it.next(),
            SubsetIter::Dense(it) => it.next(),
        }
    }
}

impl<'a> IntoIterator for &'a VertexSubset {
    type Item = Lid;
    type IntoIter = SubsetIter<'a>;

    fn into_iter(self) -> SubsetIter<'a> {
        self.iter()
    }
}

/// Traversal direction for [`edge_map`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Direction {
    /// Choose per call using Ligra's frontier-size heuristic.
    #[default]
    Auto,
    /// Always push along out-edges of the frontier.
    Push,
    /// Always pull along in-edges of candidate destinations (requires the
    /// transpose, see [`LocalGraph::build_transpose`]).
    Pull,
}

/// The edge update functor of `edgeMap` (Ligra's `F`).
pub trait EdgeOp {
    /// Applies the operator to edge `(src, dst)`; returns true when `dst`
    /// was newly activated by this update.
    fn update(&mut self, src: Lid, dst: Lid, weight: u32) -> bool;

    /// Whether `dst` still wants updates (Ligra's `C`); pull traversals
    /// skip or stop early on nodes where this is false. Defaults to true.
    fn cond(&self, _dst: Lid) -> bool {
        true
    }
}

/// Fraction of local edges above which [`Direction::Auto`] switches to
/// pull (Ligra uses |E|/20).
const PULL_THRESHOLD_DENOM: u64 = 20;

/// Applies `op` to every edge leaving `frontier` and returns the subset of
/// newly activated destinations — Ligra's `edgeMap`.
///
/// # Panics
///
/// Panics if a pull traversal is requested (or auto-selected) before
/// [`LocalGraph::build_transpose`] was called.
pub fn edge_map(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    op: &mut impl EdgeOp,
    direction: Direction,
) -> VertexSubset {
    match choose_direction(graph, frontier, direction) {
        Direction::Push => edge_map_push(graph, frontier, op),
        Direction::Pull => edge_map_pull(graph, frontier, op),
        Direction::Auto => unreachable!("resolved by choose_direction"),
    }
}

/// Resolves [`Direction::Auto`] with Ligra's frontier-size heuristic
/// (never returns `Auto`). The decision depends only on the frontier and
/// the graph — not on the thread count — so parallel and sequential runs
/// traverse in the same direction every round. Members are counted in the
/// same pass that sums their out-degrees, so a dense frontier is walked
/// once.
pub fn choose_direction(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    direction: Direction,
) -> Direction {
    match direction {
        Direction::Auto => {
            let size: u64 = frontier
                .iter()
                .map(|l| 1 + u64::from(graph.out_degree(l)))
                .sum();
            if graph.has_transpose() && size > graph.num_local_edges() / PULL_THRESHOLD_DENOM {
                Direction::Pull
            } else {
                Direction::Push
            }
        }
        d => d,
    }
}

fn edge_map_push(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    op: &mut impl EdgeOp,
) -> VertexSubset {
    let mut next = Vec::new();
    let mut added = DenseBitset::new(graph.num_proxies());
    for src in frontier.iter() {
        for e in graph.out_edges(src) {
            if op.cond(e.dst) && op.update(src, e.dst, e.weight) && !added.test(e.dst) {
                added.set(e.dst);
                next.push(e.dst);
            }
        }
    }
    VertexSubset::from_members(next)
}

fn edge_map_pull(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    op: &mut impl EdgeOp,
) -> VertexSubset {
    // Pull wants O(1) membership tests on the frontier.
    let dense_frontier;
    let frontier: &VertexSubset = match frontier {
        VertexSubset::Sparse(_) => {
            dense_frontier = VertexSubset::Dense(frontier.to_bitset(graph.num_proxies()));
            &dense_frontier
        }
        VertexSubset::Dense(_) => frontier,
    };
    let mut next = Vec::new();
    for dst in graph.proxies() {
        if !op.cond(dst) {
            continue;
        }
        let mut activated = false;
        for e in graph.in_edges(dst) {
            let src = e.dst; // in_edges reports the source in `dst`
            if frontier.contains(src) && op.update(src, dst, e.weight) {
                activated = true;
            }
            if !op.cond(dst) {
                break; // Ligra's early exit once dst is satisfied
            }
        }
        if activated {
            next.push(dst);
        }
    }
    VertexSubset::from_members(next)
}

/// Partition-binned push `edgeMap` on recycled scratch: the frontier's
/// chunks scatter `(dst, value)` candidates into per-(chunk, partition)
/// bins via `candidate` (which sees the *current* labels as a shared
/// slice: snapshot/Jacobi semantics — an update is *not* visible to later
/// edges of the same sweep, unlike [`edge_map`]'s sequential push), then
/// each destination partition drains its bins in (chunk, edge)
/// order, running `apply(dst, value, &mut labels[dst])`. Partitions own
/// disjoint destination ranges, so the drain runs in parallel with the
/// exact per-destination operation order of the flat sequential fold —
/// bit-identical labels and activations at any thread count and any
/// partition width.
///
/// Returns nothing and allocates nothing after warm-up: read the
/// ascending activation list from [`BinScratch::activated`].
pub fn edge_map_push_pooled<T: Send + Sync, V: Copy + Send + Sync + 'static>(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    pool: &Pool,
    bins: &mut BinScratch<V>,
    labels: &mut [T],
    candidate: impl Fn(Lid, Lid, u32, &[T]) -> Option<V> + Sync,
    apply: impl Fn(Lid, V, &mut T) -> bool + Sync,
) {
    vertex_map_push_pooled(
        graph,
        frontier,
        pool,
        bins,
        labels,
        |src, labels, sink| {
            for_each_edge(
                graph.out_targets(src),
                graph.out_weights(src),
                |dst, weight| {
                    let dst = Lid(dst);
                    if let Some(v) = candidate(src, dst, weight, labels) {
                        sink.push(dst, v);
                    }
                },
            );
        },
        apply,
    );
}

/// [`edge_map_push_pooled`] at vertex granularity: `emit(src, labels,
/// sink)` runs once per frontier member and walks the member's out-edges
/// itself (over [`LocalGraph::out_targets`]), pushing candidates into
/// `sink`. This is the shape an operator wants when part of its per-edge
/// work is the same for every edge of a source — a relaxation whose
/// candidate depends only on the source label computes it once per
/// source instead of once per edge. Members are metered by out-degree
/// and everything else (bins, drain order, activation list, zero
/// steady-state allocations) is exactly [`edge_map_push_pooled`].
pub fn vertex_map_push_pooled<T: Send + Sync, V: Copy + Send + Sync + 'static>(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    pool: &Pool,
    bins: &mut BinScratch<V>,
    labels: &mut [T],
    emit: impl Fn(Lid, &[T], &mut BinSink<'_, V>) + Sync,
    apply: impl Fn(Lid, V, &mut T) -> bool + Sync,
) {
    let run = |bins: &mut BinScratch<V>, members: &[Lid], labels: &mut [T]| {
        bins.run(
            pool,
            members,
            labels,
            |l| u64::from(graph.out_degree(l)),
            |chunk, labels, sink| {
                for &src in chunk {
                    emit(src, labels, sink);
                }
            },
            apply,
        );
    };
    match frontier {
        VertexSubset::Sparse(v) => run(bins, v, labels),
        VertexSubset::Dense(b) => {
            let mut buf = bins.take_member_buf();
            buf.extend(b.iter());
            run(bins, &buf, labels);
            bins.put_member_buf(buf);
        }
    }
}

/// Partition-binned pull `edgeMap` on recycled scratch: `labels` is split
/// into fixed chunks of *destination* slots, each handed exclusively to
/// one pool worker (disjoint slices, no write races). A worker scans the
/// in-edges of its destinations that have one against a dense image of the
/// frontier over source slots ([`LocalGraph::in_slots`]), hands each hit's
/// proxy to `relax` and folds improvements into the slot **in in-edge
/// order**, the same order the sequential pull visits them; `relax(src,
/// dst, weight, current)` returns
/// the improved value or `None`. Source values must come from a
/// caller-held snapshot (capture it in `relax`), which is what makes the
/// sweep order-free. Every buffer (frontier bitmap, per-chunk activation
/// lists, schedule state) is recycled, and when the frontier is sparse a
/// per-destination-partition probe skips chunks none of whose partitions
/// receive any out-edge of a frontier member — skipped chunks provably
/// perform no relaxation, so results are unchanged. Chunk weights are
/// computed (and metered) for every chunk whether or not it is skipped,
/// keeping the work meter identical to the flat sweep. Read the ascending
/// activation list from [`BinScratch::activated`].
///
/// # Panics
///
/// Panics if the transpose is absent or `labels` is not one slot per
/// proxy.
pub fn edge_map_pull_pooled<T: Send + Sync, V: Copy + Send + Sync + 'static>(
    graph: &LocalGraph,
    frontier: &VertexSubset,
    pool: &Pool,
    bins: &mut BinScratch<V>,
    labels: &mut [T],
    relax: impl Fn(Lid, Lid, u32, &T) -> Option<T> + Sync,
) {
    let n = graph.num_proxies() as usize;
    let width = bins.effective_width(n);
    let shift = width.trailing_zeros();
    let num_parts = n.div_ceil(width).max(1);
    let probe = matches!(frontier, VertexSubset::Sparse(_));

    let PullScratch {
        sched,
        chunk_active,
        frontier_bits,
        touched,
        activated,
        stats,
    } = bins.pull_scratch();

    // The frontier's image over source slots, one bit per slot (a slot is
    // handed to the bit set as a `Lid`). A member without a local out-edge
    // is nobody's in-edge source, so it has no slot and drops out.
    // Re-allocated only when the slot count changes.
    let sources = graph.sources();
    if frontier_bits.capacity() as usize != sources.len() {
        *frontier_bits = DenseBitset::new(sources.len() as u32);
    } else {
        frontier_bits.clear_all();
    }
    touched.clear();
    touched.resize(num_parts, !probe);
    match frontier {
        VertexSubset::Sparse(v) => {
            for &m in v {
                if let Ok(slot) = sources.binary_search(&m.0) {
                    frontier_bits.set(Lid(slot as u32));
                }
                // The probe: a destination partition can only see updates
                // if some frontier member has an out-edge into it.
                for &dst in graph.out_targets(m) {
                    touched[dst as usize >> shift] = true;
                }
            }
        }
        VertexSubset::Dense(b) => {
            for (slot, &u) in sources.iter().enumerate() {
                if b.test(Lid(u)) {
                    frontier_bits.set(Lid(slot as u32));
                }
            }
        }
    }

    // Tested word by word: one bounds check per in-edge.
    let frontier_words = frontier_bits.words();
    let untouched = |start: usize, end: usize| {
        probe
            && !touched[(start >> shift)..=((end - 1) >> shift)]
                .iter()
                .any(|&t| t)
    };
    let skipped = sweep_destinations(
        graph,
        pool,
        labels,
        sched,
        chunk_active,
        activated,
        untouched,
        |dst, cell| {
            let mut any = false;
            for_each_edge(
                graph.in_slots(dst),
                graph.in_weights(dst),
                |slot, weight| {
                    if frontier_words[slot as usize / 64] & (1 << (slot % 64)) != 0 {
                        let src = Lid(sources[slot as usize]);
                        if let Some(nv) = relax(src, dst, weight, cell) {
                            *cell = nv;
                            any = true;
                        }
                    }
                },
            );
            any
        },
    );
    // Skips are counted for observability only: they depend on the
    // partition geometry, not the computation.
    stats.chunks_skipped += skipped;
}

/// A dense pull sweep at vertex granularity, on the same recycled scratch
/// and chunk grid as [`edge_map_pull_pooled`] with every proxy a live
/// source: `visit(dst, &mut labels[dst])` owns its destination's slot and
/// gathers over [`LocalGraph::in_slots`] itself, returning whether it
/// wrote the slot. Only proxies with a local in-edge are visited; every
/// other slot is left as it is. This is the shape a whole-graph pull
/// operator (one pagerank iteration) wants: no frontier image to build or
/// test, and the per-destination fold stays in a register instead of going
/// through a per-edge functor. Chunks are metered by in-degree exactly as
/// the edge-granular sweep meters them. Read the ascending activation list
/// from [`BinScratch::activated`].
///
/// # Panics
///
/// Panics if the transpose is absent or `labels` is not one slot per
/// proxy.
pub fn vertex_map_pull_pooled<T: Send + Sync, V: Copy + Send + Sync + 'static>(
    graph: &LocalGraph,
    pool: &Pool,
    bins: &mut BinScratch<V>,
    labels: &mut [T],
    visit: impl Fn(Lid, &mut T) -> bool + Sync,
) {
    let PullScratch {
        sched,
        chunk_active,
        activated,
        ..
    } = bins.pull_scratch();
    sweep_destinations(
        graph,
        pool,
        labels,
        sched,
        chunk_active,
        activated,
        |_, _| false,
        visit,
    );
}

/// The destination-chunk sweep behind both pull entry points: runs
/// `visit` on every destination with a local in-edge in every chunk
/// `skip(start, end)` does not exclude, and assembles the destinations it
/// returned `true` for into `activated`, ascending. Returns the number of
/// chunks skipped.
///
/// A chunk finds its destinations in [`LocalGraph::in_edge_words`]: chunks
/// start on multiples of 64, so each covers whole words, and a proxy with
/// no in-edge costs a zero bit instead of a visit.
#[allow(clippy::too_many_arguments)]
fn sweep_destinations<T: Send + Sync>(
    graph: &LocalGraph,
    pool: &Pool,
    labels: &mut [T],
    sched: &mut SchedScratch,
    chunk_active: &mut Vec<Vec<Lid>>,
    activated: &mut Vec<Lid>,
    skip: impl Fn(usize, usize) -> bool + Sync,
    visit: impl Fn(Lid, &mut T) -> bool + Sync,
) -> u64 {
    assert!(graph.has_transpose(), "pull requires the transpose");
    let n = labels.len();
    assert_eq!(n, graph.num_proxies() as usize, "one label slot per proxy");
    let num_chunks = Pool::num_chunks(n);
    if chunk_active.len() < num_chunks {
        chunk_active.resize_with(num_chunks, Vec::new);
    }
    let cw = chunk_width(n);
    debug_assert_eq!(cw % 64, 0, "chunks cover whole words");
    let in_words = graph.in_edge_words();
    let skipped = (0..num_chunks)
        .filter(|ci| skip(ci * cw, ((ci + 1) * cw).min(n)))
        .count() as u64;
    pool.for_each_chunk_mut_scratch(
        labels,
        sched,
        &mut chunk_active[..num_chunks],
        |r| graph.in_degree_sum(r),
        |start, chunk, slot| {
            slot.clear();
            if skip(start, start + chunk.len()) {
                return;
            }
            let words = &in_words[start / 64..(start + chunk.len()).div_ceil(64)];
            for (k, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let dst = Lid((start + i) as u32);
                    if visit(dst, &mut chunk[i]) {
                        slot.push(dst);
                    }
                }
            }
        },
    );
    // Chunks are visited in ascending destination order, so the
    // concatenation is already sorted and deduplicated.
    activated.clear();
    for slot in chunk_active[..num_chunks].iter_mut() {
        activated.append(slot);
    }
    skipped
}

/// Applies `keep` to every member; returns the subset where it was true —
/// Ligra's `vertexMap` with filtering.
pub fn vertex_map(subset: &VertexSubset, mut keep: impl FnMut(Lid) -> bool) -> VertexSubset {
    VertexSubset::from_members(subset.iter().filter(|&l| keep(l)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;
    use gluon_partition::{partition_all, Policy};

    struct BfsOp<'a> {
        dist: &'a mut [u32],
        level: u32,
    }

    impl EdgeOp for BfsOp<'_> {
        fn update(&mut self, _src: Lid, dst: Lid, _w: u32) -> bool {
            if self.dist[dst.index()] == u32::MAX {
                self.dist[dst.index()] = self.level;
                true
            } else {
                false
            }
        }

        fn cond(&self, dst: Lid) -> bool {
            self.dist[dst.index()] == u32::MAX
        }
    }

    fn single_host(graph: &gluon_graph::Csr) -> LocalGraph {
        let mut p = partition_all(graph, 1, Policy::Oec);
        let mut lg = p.remove(0);
        lg.build_transpose();
        lg
    }

    fn bfs_with(direction: Direction) -> Vec<u32> {
        let g = gen::rmat(7, 6, Default::default(), 9);
        let lg = single_host(&g);
        let mut dist = vec![u32::MAX; lg.num_proxies() as usize];
        let start = Lid(0);
        dist[start.index()] = 0;
        let mut frontier = VertexSubset::from_members(vec![start]);
        let mut level = 1;
        while !frontier.is_empty() {
            let mut op = BfsOp {
                dist: &mut dist,
                level,
            };
            frontier = edge_map(&lg, &frontier, &mut op, direction);
            level += 1;
        }
        dist
    }

    #[test]
    fn push_and_pull_agree_on_bfs() {
        let push = bfs_with(Direction::Push);
        let pull = bfs_with(Direction::Pull);
        let auto = bfs_with(Direction::Auto);
        assert_eq!(push, pull);
        assert_eq!(push, auto);
        assert!(push.iter().any(|&d| d != u32::MAX && d > 0));
    }

    #[test]
    fn subset_round_trips_through_bitset() {
        let s = VertexSubset::from_members(vec![Lid(5), Lid(1), Lid(5), Lid(9)]);
        assert_eq!(s.len(), 3);
        let bits = s.to_bitset(16);
        let back = VertexSubset::from_bitset(bits);
        assert_eq!(back.len(), 3);
        assert!(back.contains(Lid(1)) && back.contains(Lid(5)) && back.contains(Lid(9)));
        assert!(!back.contains(Lid(2)));
        // By value: same members from either representation, no clone.
        assert_eq!(back.clone().into_bitset(16), s.to_bitset(16));
        assert_eq!(s.clone().into_bitset(16), s.to_bitset(16));
        let members = vec![Lid(1), Lid(5), Lid(9)];
        assert_eq!(back.into_members(), members);
        assert_eq!(s.into_members(), members);
    }

    #[test]
    fn vertex_map_filters() {
        let s = VertexSubset::from_members((0..10).map(Lid).collect());
        let evens = vertex_map(&s, |l| l.0 % 2 == 0);
        assert_eq!(evens.len(), 5);
        assert!(evens.iter().all(|l| l.0 % 2 == 0));
    }

    #[test]
    fn edge_map_dedups_activations() {
        // Node 0 and 1 both point at node 2: one activation only.
        let g = gluon_graph::Csr::from_edge_list(3, &[(0, 2), (1, 2)]);
        let lg = single_host(&g);
        let mut dist = vec![u32::MAX; 3];
        dist[0] = 0;
        dist[1] = 0;
        let frontier = VertexSubset::from_members(vec![Lid(0), Lid(1)]);
        let mut op = BfsOp {
            dist: &mut dist,
            level: 1,
        };
        let next = edge_map(&lg, &frontier, &mut op, Direction::Push);
        assert_eq!(next.len(), 1);
    }

    /// `width`: `None` for the production grid, `Some(w)` to force one
    /// (a width covering every proxy is the flat single-partition fold).
    fn bfs_pooled(threads: usize, direction: Direction, width: Option<usize>) -> Vec<u32> {
        let g = gen::rmat(7, 6, Default::default(), 9);
        let lg = single_host(&g);
        let pool = gluon_exec::Pool::new(threads);
        let mut bins = BinScratch::<u32>::new();
        bins.set_width_override(width);
        let mut dist = vec![u32::MAX; lg.num_proxies() as usize];
        dist[0] = 0;
        let mut frontier = VertexSubset::from_members(vec![Lid(0)]);
        let mut level = 1;
        while !frontier.is_empty() {
            let prev = dist.clone();
            match direction {
                Direction::Pull => edge_map_pull_pooled(
                    &lg,
                    &frontier,
                    &pool,
                    &mut bins,
                    &mut dist,
                    |src, _dst, _w, cur| {
                        (prev[src.index()] != u32::MAX && level < *cur).then_some(level)
                    },
                ),
                _ => edge_map_push_pooled(
                    &lg,
                    &frontier,
                    &pool,
                    &mut bins,
                    &mut dist,
                    |src, dst, _w, _labels| {
                        (prev[src.index()] != u32::MAX && prev[dst.index()] == u32::MAX)
                            .then_some(level)
                    },
                    |_dst, v, slot| {
                        if v < *slot {
                            *slot = v;
                            true
                        } else {
                            false
                        }
                    },
                ),
            }
            frontier = VertexSubset::from_members(bins.activated().to_vec());
            level += 1;
        }
        dist
    }

    #[test]
    fn pooled_edge_map_matches_flat_in_both_geometries() {
        let oracle = bfs_with(Direction::Push);
        for dir in [Direction::Push, Direction::Pull] {
            for width in [None, Some(64), Some(1 << 20)] {
                for t in [1, 2, 8] {
                    assert_eq!(
                        bfs_pooled(t, dir, width),
                        oracle,
                        "{dir:?} width={width:?} threads={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_walks_report_the_weights_the_iterators_report() {
        // Weighted shortest paths to a fixpoint, three ways: sequentially
        // over the `out_edges` iterator, and through the pooled push and
        // pull sweeps, whose raw-slice walks must hand the functor the
        // same (endpoint, weight) pairs.
        let g = gluon_graph::with_random_weights(&gen::rmat(7, 6, Default::default(), 9), 20, 3);
        let lg = single_host(&g);
        let n = lg.num_proxies() as usize;
        let mut oracle = vec![u32::MAX; n];
        oracle[0] = 0;
        let mut work = vec![Lid(0)];
        while let Some(v) = work.pop() {
            for e in lg.out_edges(v) {
                let nd = oracle[v.index()] + e.weight;
                if nd < oracle[e.dst.index()] {
                    oracle[e.dst.index()] = nd;
                    work.push(e.dst);
                }
            }
        }
        assert!(oracle.iter().any(|&d| d != u32::MAX && d > 20));
        let pool = gluon_exec::Pool::new(2);
        for direction in [Direction::Push, Direction::Pull] {
            let mut bins = BinScratch::<u32>::new();
            let mut dist = vec![u32::MAX; n];
            dist[0] = 0;
            let mut frontier = VertexSubset::from_members(vec![Lid(0)]);
            while !frontier.is_empty() {
                let prev = dist.clone();
                let offer = |src: Lid, w: u32, cur: u32| {
                    let nd = prev[src.index()].saturating_add(w);
                    (nd < cur).then_some(nd)
                };
                match direction {
                    Direction::Pull => edge_map_pull_pooled(
                        &lg,
                        &frontier,
                        &pool,
                        &mut bins,
                        &mut dist,
                        |src, _dst, w, cur| offer(src, w, *cur),
                    ),
                    _ => edge_map_push_pooled(
                        &lg,
                        &frontier,
                        &pool,
                        &mut bins,
                        &mut dist,
                        |src, dst, w, labels| offer(src, w, labels[dst.index()]),
                        |_dst, nd, slot| {
                            let lower = nd < *slot;
                            *slot = (*slot).min(nd);
                            lower
                        },
                    ),
                }
                frontier = VertexSubset::from_members(bins.activated().to_vec());
            }
            assert_eq!(dist, oracle, "{direction:?}");
        }
    }

    #[test]
    fn pull_probe_skips_only_unreachable_chunks() {
        // A long path: a sparse frontier at the head touches exactly one
        // destination partition, so far-away chunks are skipped — and
        // skipping must not change any label.
        let g = gen::path(1000);
        let lg = single_host(&g);
        let pool = gluon_exec::Pool::new(4);
        let run = |width: Option<usize>| {
            let mut bins = BinScratch::<u32>::new();
            bins.set_width_override(width);
            let mut dist = vec![u32::MAX; 1000];
            dist[0] = 0;
            let frontier = VertexSubset::from_members(vec![Lid(0)]);
            edge_map_pull_pooled(
                &lg,
                &frontier,
                &pool,
                &mut bins,
                &mut dist,
                |src, _dst, _w, cur| (src == Lid(0) && 1 < *cur).then_some(1u32),
            );
            (dist, bins.activated().to_vec(), bins.stats().chunks_skipped)
        };
        let (flat_dist, flat_act, flat_skips) = run(Some(1024));
        let (bin_dist, bin_act, bin_skips) = run(None);
        assert_eq!(flat_dist, bin_dist);
        assert_eq!(flat_act, bin_act);
        assert_eq!(bin_act, vec![Lid(1)]);
        // One partition spanning the space can never skip; the production
        // grid must skip the chunks past the frontier's reach.
        assert_eq!(flat_skips, 0);
        assert!(bin_skips > 0, "expected distant chunks to be skipped");
    }

    #[test]
    fn vertex_pull_matches_the_edge_granular_dense_pull() {
        // Summing source values over in-edges, once through the per-edge
        // functor with an all-live frontier and once through the
        // vertex-granular sweep: same sums (bitwise), same activations,
        // same metered work, at any thread count.
        let g = gen::rmat(8, 6, Default::default(), 9);
        let lg = single_host(&g);
        let n = lg.num_proxies();
        let vals: Vec<f64> = (0..n).map(|i| 1.0 / f64::from(i + 3)).collect();
        let mut all = DenseBitset::new(n);
        all.set_all();
        let frontier = VertexSubset::from_bitset(all);
        for threads in [1, 4] {
            let by_edge = gluon_exec::Pool::new(threads);
            let mut bins = BinScratch::<f64>::new();
            let mut want = vec![0.0f64; n as usize];
            edge_map_pull_pooled(
                &lg,
                &frontier,
                &by_edge,
                &mut bins,
                &mut want,
                |src, _dst, _w, cur| Some(*cur + vals[src.index()]),
            );
            let want_active = bins.activated().to_vec();

            let by_vertex = gluon_exec::Pool::new(threads);
            let mut got = vec![0.0f64; n as usize];
            vertex_map_pull_pooled(&lg, &by_vertex, &mut bins, &mut got, |dst, cell| {
                let slots = lg.in_slots(dst);
                *cell = slots
                    .iter()
                    .fold(*cell, |s, &u| s + vals[lg.source(u).index()]);
                !slots.is_empty()
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "threads = {threads}");
            assert_eq!(bins.activated(), want_active, "threads = {threads}");
            assert_eq!(by_vertex.drain_work(), by_edge.drain_work());
            assert!(want_active.len() < n as usize, "some proxy has no in-edge");
        }
    }

    #[test]
    fn pull_sweep_visits_exactly_the_proxies_with_an_in_edge() {
        // 337 proxies on one host: chunks of 64, the last one 17 long.
        // Chunk 2 (proxies 128..192) receives no edge, nor does any proxy
        // `4k + 1`; every third proxy sends none, and proxies 320.. receive
        // some.
        let n = 337u32;
        let mut edges = Vec::new();
        for src in (0..n).filter(|s| s % 3 != 0) {
            for k in 0..3u32 {
                let dst = (src * 7 + k * 101 + 13) % n;
                if !(128..192).contains(&dst) && dst % 4 != 1 {
                    edges.push((src, dst));
                }
            }
        }
        let lg = single_host(&gluon_graph::Csr::from_edge_list(n, &edges));
        let len = n as usize;
        assert_eq!((Pool::num_chunks(len), chunk_width(len)), (6, 64));
        let reference = gluon_graph::transpose_by_sort(lg.topology());
        let has_in = |p: u32| reference.out_degree(gluon_graph::Gid(p)) > 0;
        assert!((128..192).all(|p| !has_in(p)));
        assert!((320..n).any(has_in) && (0..n).any(|p| !has_in(p) && p >= 192));
        for pool in [Pool::sequential(), Pool::inline(4)] {
            // Each destination owns its cell, so the cell counts its visits.
            let mut visits = vec![0u32; len];
            let mut bins = BinScratch::<u32>::new();
            vertex_map_pull_pooled(&lg, &pool, &mut bins, &mut visits, |dst, cell| {
                *cell += 1;
                dst.0 % 5 != 0
            });
            let want: Vec<u32> = (0..n).map(|p| u32::from(has_in(p))).collect();
            assert_eq!(visits, want, "{} threads", pool.threads());
            let active: Vec<Lid> = (0..n)
                .filter(|&p| has_in(p) && p % 5 != 0)
                .map(Lid)
                .collect();
            assert_eq!(bins.activated(), active, "{} threads", pool.threads());
            // Metered as the flat sweep meters: every chunk by its summed
            // in-degree, dealt over the same pool.
            let got = pool.drain_work();
            let offsets = reference.offsets();
            pool.for_each_chunk_mut_scratch(
                &mut visits,
                &mut SchedScratch::default(),
                &mut vec![(); Pool::num_chunks(len)],
                |r| offsets[r.end] - offsets[r.start],
                |_, _, _| {},
            );
            assert_eq!(got, pool.drain_work(), "{} threads", pool.threads());
            assert_eq!(got.seq, lg.num_local_edges());
        }
    }

    #[test]
    fn chunk_weights_are_the_summed_in_degrees_on_the_chunk_grid() {
        // 2-host CVC of an rmat11: each host's proxy count is no multiple
        // of its chunk width, so the last chunk is the shorter one.
        let g = gen::rmat(11, 8, Default::default(), 4);
        for mut lg in partition_all(&g, 2, Policy::Cvc) {
            lg.build_transpose();
            let n = lg.num_proxies() as usize;
            let cw = chunk_width(n);
            assert_ne!(n % cw, 0, "host {}: the last chunk is full", lg.host());
            let summed = |r: std::ops::Range<usize>| {
                r.map(|i| lg.in_slots(Lid(i as u32)).len() as u64)
                    .sum::<u64>()
            };
            for ci in 0..Pool::num_chunks(n) {
                let r = ci * cw..((ci + 1) * cw).min(n);
                assert_eq!(lg.in_degree_sum(r.clone()), summed(r.clone()), "{r:?}");
            }
            for k in [0, n / 2, n] {
                assert_eq!(lg.in_degree_sum(k..k), 0);
            }
            assert_eq!(lg.in_degree_sum(0..n), lg.num_local_edges());
        }
    }

    #[test]
    fn a_round_does_not_depend_on_the_frontier_representation() {
        // The same members handed over as a list or as a bit set must pick
        // the same direction and push the same candidates in the same
        // order: same labels, same activations, same metered work.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = gen::rmat(10, 8, Default::default(), 5);
        let lg = single_host(&g);
        let n = lg.num_proxies();
        let weight = |v: Lid| 1 + u64::from(lg.out_degree(v));
        let threshold = lg.num_local_edges() / PULL_THRESHOLD_DENOM;
        let mut rng = StdRng::seed_from_u64(27);

        // Random members, each proxy in with probability `p`.
        let mut frontiers: Vec<Vec<Lid>> = [0.0, 0.002, 0.01, 0.05, 0.2, 0.6, 1.0]
            .iter()
            .map(|&p| lg.proxies().filter(|_| rng.gen::<f64>() < p).collect())
            .collect();
        // Frontiers whose `len + degree sum` is exactly the pull threshold
        // and one above it: proxies in a random order, each taken while it
        // still fits (the many degree-0 proxies close the gap).
        for target in [threshold, threshold + 1] {
            let mut order: Vec<Lid> = lg.proxies().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut size = 0;
            order.retain(|&v| {
                let fits = size + weight(v) <= target;
                size += if fits { weight(v) } else { 0 };
                fits
            });
            assert_eq!(size, target, "no frontier of exactly {target}");
            order.sort_unstable();
            frontiers.push(order);
        }

        let labels0: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..64)).collect();
        for (i, members) in frontiers.into_iter().enumerate() {
            let size: u64 = members.iter().map(|&v| weight(v)).sum();
            let sparse = VertexSubset::Sparse(members);
            let dense = VertexSubset::Dense(sparse.to_bitset(n));
            let direction = choose_direction(&lg, &sparse, Direction::Auto);
            assert_eq!(direction, choose_direction(&lg, &dense, Direction::Auto));
            let want = if size > threshold {
                Direction::Pull
            } else {
                Direction::Push
            };
            assert_eq!(
                direction, want,
                "frontier {i}: size {size}, threshold {threshold}"
            );

            for pool in [Pool::sequential(), Pool::inline(4)] {
                let push = |frontier: &VertexSubset| {
                    let mut bins = BinScratch::<u32>::new();
                    let mut labels = labels0.clone();
                    vertex_map_push_pooled(
                        &lg,
                        frontier,
                        &pool,
                        &mut bins,
                        &mut labels,
                        |v, labels, sink| {
                            let candidate = labels[v.index()] + 1;
                            for &dst in lg.out_targets(v) {
                                if candidate < labels[dst as usize] {
                                    sink.push(Lid(dst), candidate);
                                }
                            }
                        },
                        |_dst, candidate, slot| {
                            let lower = candidate < *slot;
                            *slot = (*slot).min(candidate);
                            lower
                        },
                    );
                    (labels, bins.activated().to_vec(), pool.drain_work())
                };
                let (listed, bitset) = (push(&sparse), push(&dense));
                assert_eq!(listed, bitset, "frontier {i}, {} threads", pool.threads());
                assert_eq!(listed.2.seq, size - sparse.len() as u64, "metered degrees");
            }
        }
    }

    #[test]
    fn empty_frontier_yields_empty_result() {
        let g = gen::path(5);
        let lg = single_host(&g);
        let mut dist = vec![u32::MAX; 5];
        let mut op = BfsOp {
            dist: &mut dist,
            level: 1,
        };
        let next = edge_map(&lg, &VertexSubset::empty(), &mut op, Direction::Push);
        assert!(next.is_empty());
    }
}
