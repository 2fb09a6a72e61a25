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

/// Binned push `edgeMap` on recycled scratch — the one push sweep of every
/// engine. `members` (ascending, deduplicated) is cut into fixed chunks;
/// `emit(src, labels, sink)` runs once per member and walks the member's
/// out-edges itself (over [`LocalGraph::out_targets`]), pushing `(dst,
/// value)` candidates into the bin of the pool worker running its chunk.
/// It sees the *current* labels as a shared slice: snapshot/Jacobi
/// semantics — an update is *not* visible to later edges of the same
/// sweep, unlike [`edge_map`]'s sequential push. The calling thread then
/// drains each chunk's span of the bins in (chunk, edge) order, running
/// `apply(dst, value, &mut labels[dst])` — the exact operation order of the
/// flat sequential fold, so labels and activations are bit-identical at
/// any thread count. Members are metered by out-degree.
///
/// Vertex granularity is the shape an operator wants when part of its
/// per-edge work is the same for every edge of a source: a relaxation
/// whose candidate depends only on the source label computes it once per
/// source instead of once per edge.
///
/// Returns nothing and allocates nothing after warm-up: read the
/// ascending activation list from [`BinScratch::activated`].
pub fn vertex_map_push_pooled<T: Sync, V: Copy + Send + Sync + 'static>(
    graph: &LocalGraph,
    members: &[Lid],
    pool: &Pool,
    bins: &mut BinScratch<V>,
    labels: &mut [T],
    emit: impl Fn(Lid, &[T], &mut BinSink<'_, V>) + Sync,
    apply: impl Fn(Lid, V, &mut T) -> bool,
) {
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
}

/// Pull `edgeMap` on recycled scratch: `labels` is split into fixed chunks
/// of *destination* slots, each handed exclusively to one pool worker
/// (disjoint slices, no write races). A worker scans the in-edges of its
/// destinations that have one against a dense image of the frontier over
/// source slots ([`LocalGraph::in_slots`]), hands each hit's proxy to
/// `relax` and folds improvements into the slot **in in-edge order**, the
/// same order the sequential pull visits them; `relax(src, dst, weight,
/// current)` returns the improved value or `None`. Source values must come
/// from a caller-held snapshot (capture it in `relax`), which is what makes
/// the sweep order-free. Every buffer (frontier bitmap, per-chunk
/// activation lists, schedule state) is recycled. Read the ascending
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
    let PullScratch {
        sched,
        chunk_active,
        frontier_bits,
        activated,
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
    match frontier {
        VertexSubset::Sparse(v) => {
            for &m in v {
                if let Ok(slot) = sources.binary_search(&m.0) {
                    frontier_bits.set(Lid(slot as u32));
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
    sweep_destinations(
        graph,
        pool,
        labels,
        sched,
        chunk_active,
        activated,
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
    sweep_destinations(graph, pool, labels, sched, chunk_active, activated, visit);
}

/// The destination-chunk sweep behind both pull entry points: runs
/// `visit` on every destination with a local in-edge, and assembles the
/// destinations it returned `true` for into `activated`, ascending.
///
/// A chunk finds its destinations in [`LocalGraph::in_edge_words`]: chunks
/// start on multiples of 64, so each covers whole words, and a proxy with
/// no in-edge costs a zero bit instead of a visit.
fn sweep_destinations<T: Send + Sync>(
    graph: &LocalGraph,
    pool: &Pool,
    labels: &mut [T],
    sched: &mut SchedScratch,
    chunk_active: &mut Vec<Vec<Lid>>,
    activated: &mut Vec<Lid>,
    visit: impl Fn(Lid, &mut T) -> bool + Sync,
) {
    assert!(graph.has_transpose(), "pull requires the transpose");
    let n = labels.len();
    assert_eq!(n, graph.num_proxies() as usize, "one label slot per proxy");
    let num_chunks = Pool::num_chunks(n);
    if chunk_active.len() < num_chunks {
        chunk_active.resize_with(num_chunks, Vec::new);
    }
    debug_assert_eq!(chunk_width(n) % 64, 0, "chunks cover whole words");
    let in_words = graph.in_edge_words();
    pool.for_each_chunk_mut_scratch(
        labels,
        sched,
        &mut chunk_active[..num_chunks],
        |r| graph.in_degree_sum(r),
        |start, chunk, slot| {
            slot.clear();
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

    fn bfs_pooled(threads: usize, direction: Direction) -> Vec<u32> {
        let g = gen::rmat(7, 6, Default::default(), 9);
        let lg = single_host(&g);
        let pool = gluon_exec::Pool::new(threads);
        let mut bins = BinScratch::<u32>::new();
        let mut dist = vec![u32::MAX; lg.num_proxies() as usize];
        dist[0] = 0;
        let mut frontier = vec![Lid(0)];
        let mut level = 1;
        while !frontier.is_empty() {
            let prev = dist.clone();
            match direction {
                Direction::Pull => edge_map_pull_pooled(
                    &lg,
                    &VertexSubset::Sparse(frontier),
                    &pool,
                    &mut bins,
                    &mut dist,
                    |src, _dst, _w, cur| {
                        (prev[src.index()] != u32::MAX && level < *cur).then_some(level)
                    },
                ),
                _ => vertex_map_push_pooled(
                    &lg,
                    &frontier,
                    &pool,
                    &mut bins,
                    &mut dist,
                    |src, _labels, sink| {
                        if prev[src.index()] == u32::MAX {
                            return;
                        }
                        for &dst in lg.out_targets(src) {
                            if prev[dst as usize] == u32::MAX {
                                sink.push(Lid(dst), level);
                            }
                        }
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
            frontier = bins.activated().to_vec();
            level += 1;
        }
        dist
    }

    #[test]
    fn pooled_edge_map_matches_flat_in_both_geometries() {
        // Both directions, push binned per chunk and pull swept per
        // destination chunk, against the sequential push.
        let oracle = bfs_with(Direction::Push);
        for dir in [Direction::Push, Direction::Pull] {
            for t in [1, 2, 8] {
                assert_eq!(bfs_pooled(t, dir), oracle, "{dir:?} threads={t}");
            }
        }
        // A sparse frontier at the head of a long path: the pull sweep
        // activates exactly the head's successor and writes nothing else.
        let lg = single_host(&gen::path(1000));
        let mut want = vec![u32::MAX; 1000];
        want[..2].copy_from_slice(&[0, 1]);
        for t in [1, 4] {
            let mut bins = BinScratch::<u32>::new();
            let mut dist = vec![u32::MAX; 1000];
            dist[0] = 0;
            edge_map_pull_pooled(
                &lg,
                &VertexSubset::from_members(vec![Lid(0)]),
                &gluon_exec::Pool::new(t),
                &mut bins,
                &mut dist,
                |src, _dst, _w, cur| (src == Lid(0) && 1 < *cur).then_some(1u32),
            );
            assert_eq!(dist, want, "threads={t}");
            assert_eq!(bins.activated(), [Lid(1)], "threads={t}");
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
            let mut frontier = vec![Lid(0)];
            while !frontier.is_empty() {
                let prev = dist.clone();
                let offer = |src: Lid, w: u32, cur: u32| {
                    let nd = prev[src.index()].saturating_add(w);
                    (nd < cur).then_some(nd)
                };
                match direction {
                    Direction::Pull => edge_map_pull_pooled(
                        &lg,
                        &VertexSubset::Sparse(frontier),
                        &pool,
                        &mut bins,
                        &mut dist,
                        |src, _dst, w, cur| offer(src, w, *cur),
                    ),
                    _ => vertex_map_push_pooled(
                        &lg,
                        &frontier,
                        &pool,
                        &mut bins,
                        &mut dist,
                        |src, labels, sink| {
                            for_each_edge(lg.out_targets(src), lg.out_weights(src), |dst, w| {
                                if let Some(nd) = offer(src, w, labels[dst as usize]) {
                                    sink.push(Lid(dst), nd);
                                }
                            });
                        },
                        |_dst, nd, slot| {
                            let lower = nd < *slot;
                            *slot = (*slot).min(nd);
                            lower
                        },
                    ),
                }
                frontier = bins.activated().to_vec();
            }
            assert_eq!(dist, oracle, "{direction:?}");
        }
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
        // the same direction; the push, which takes the list, must not
        // depend on the thread count.
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

            // The push takes the member list, and every pool pushes the same
            // candidates in the same order: same labels, same activations,
            // same metered work.
            let listed = sparse.into_members();
            let mut want = None;
            for pool in [Pool::sequential(), Pool::inline(4)] {
                let mut bins = BinScratch::<u32>::new();
                let mut labels = labels0.clone();
                vertex_map_push_pooled(
                    &lg,
                    &listed,
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
                let got = (labels, bins.activated().to_vec(), pool.drain_work().seq);
                assert_eq!(got.2, size - listed.len() as u64, "metered degrees");
                let want = want.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "frontier {i}, {} threads", pool.threads());
            }
        }
    }

    #[test]
    fn kernel_par_binned_is_thread_and_geometry_invariant_and_counts_work() {
        // One snapshot push launch per round against the sequential FIFO
        // fixpoint, whose updates are visible within a sweep: it needs
        // fewer rounds, but a monotone min-relaxation reaches the same
        // fixpoint. Labels, rounds and the metered degrees must not depend
        // on the thread count.
        let g = gen::rmat(7, 6, Default::default(), 11);
        let lg = single_host(&g);
        let n = lg.num_proxies() as usize;
        let mut oracle = vec![u32::MAX; n];
        oracle[0] = 0;
        crate::galois::for_each(lg.num_proxies(), [Lid(0)], |v, wl| {
            for e in lg.out_edges(v) {
                let nd = oracle[v.index()].saturating_add(1);
                if nd < oracle[e.dst.index()] {
                    oracle[e.dst.index()] = nd;
                    wl.push(e.dst);
                }
            }
        });
        let mut want_work = None;
        for threads in [1, 4, 8] {
            let pool = Pool::new(threads);
            let mut bins = BinScratch::<u32>::new();
            let mut dist = vec![u32::MAX; n];
            dist[0] = 0;
            let mut wl = vec![Lid(0)];
            let (mut rounds, mut degrees) = (0u32, 0u64);
            while !wl.is_empty() {
                rounds += 1;
                degrees += wl.iter().map(|&v| u64::from(lg.out_degree(v))).sum::<u64>();
                vertex_map_push_pooled(
                    &lg,
                    &wl,
                    &pool,
                    &mut bins,
                    &mut dist,
                    |v, labels, sink| {
                        let nd = labels[v.index()].saturating_add(1);
                        for &dst in lg.out_targets(v) {
                            if nd < labels[dst as usize] {
                                sink.push(Lid(dst), nd);
                            }
                        }
                    },
                    |_dst, nd, slot| {
                        let lower = nd < *slot;
                        *slot = (*slot).min(nd);
                        lower
                    },
                );
                wl = bins.activated().to_vec();
            }
            assert_eq!(dist, oracle, "threads = {threads}");
            let work = pool.drain_work().seq;
            assert!(
                rounds > 1 && work == degrees && work > 0,
                "threads = {threads}"
            );
            assert_eq!(*want_work.get_or_insert((rounds, work)), (rounds, work));
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
