//! Deterministic intra-host parallel runtime.
//!
//! The paper's hosts are 68-core KNL nodes and GPUs: every engine loop and
//! every sync micro-stage runs *parallel* inside a host. This crate supplies
//! the worker pool the simulated hosts use for that second level of
//! parallelism — with one non-negotiable contract:
//!
//! > **Determinism.** Every pool operation produces results bit-identical
//! > to the sequential execution, at any thread count.
//!
//! Three mechanisms enforce it:
//!
//! 1. **Fixed chunk boundaries.** Index ranges are split into fixed-width
//!    chunks whose width depends only on the range length (64-aligned,
//!    at most [`CHUNK`] elements) — never on the thread count — so the
//!    unit of scheduling never depends on parallelism.
//! 2. **Deterministic assignment.** Chunks are dealt to workers by a
//!    deterministic longest-processing-time greedy on their declared
//!    weights (ties broken by chunk index); no work stealing, no racing
//!    for chunks. Assignment cannot affect results — only the critical
//!    path — because of mechanism 3.
//! 3. **In-order combination.** Workers only *produce* per-chunk results
//!    from immutable shared state; the pool hands them back in ascending
//!    chunk order and callers fold/apply them sequentially, so floating
//!    point accumulation order matches the sequential loop exactly.
//!
//! The pool also meters work: each metered call records the *sequential*
//! work (sum of chunk weights) and the *critical-path* work (the largest
//! per-worker share under the deterministic assignment). Their ratio is the
//! **measured** speedup of that call — it reflects the actual chunk
//! imbalance of the workload, not an assumed ideal — and feeds the cost
//! model's `cores_per_host` projection. This matters because the simulated
//! cluster shares physical cores between hosts, so wall-clock cannot show
//! intra-host scaling; the critical path under the real assignment can.
//!
//! Threads are crossbeam-style scoped threads, spawned per call: pool
//! lifetime management would buy little here (the chunked loops dominate),
//! and scoped spawning keeps the closures free to borrow the caller's
//! stack. For workloads that must not allocate at all (the sync arena's
//! steady-state guarantee), [`Pool::inline`] builds a pool that keeps the
//! configured thread count for scheduling and metering — chunk widths,
//! assignments, and the critical-path meter are exactly those of the
//! spawning pool — but executes every bucket on the calling thread, so no
//! spawn-time allocations (closure boxes, join handles) occur. Results are
//! bit-identical either way; only wall-clock parallelism differs.
//!
//! # Examples
//!
//! ```
//! use gluon_exec::Pool;
//!
//! let data: Vec<u64> = (0..10_000).collect();
//! let pool = Pool::new(4);
//! // Per-chunk partial sums, combined in chunk order.
//! let total = pool.reduce(data.len(), 0u64, |r| data[r].iter().sum(), |a, b| a + b);
//! assert_eq!(total, data.iter().sum::<u64>());
//! // Bit-identical to any other thread count.
//! assert_eq!(
//!     total,
//!     Pool::sequential().reduce(data.len(), 0u64, |r| data[r].iter().sum(), |a, b| a + b)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gluon_metrics::ExecMetrics;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Maximum chunk width (elements per chunk) for all chunked operations.
///
/// A multiple of 64 so chunk boundaries align with `DenseBitset` words, and
/// small enough that skewed graphs still split into many chunks per host.
/// The actual width of a given call is derived from the range length alone
/// (see [`chunk_width`]); widths are part of the determinism contract: they
/// must never depend on the thread count.
pub const CHUNK: usize = 512;

/// Minimum chunk width: one `DenseBitset` word.
const MIN_CHUNK: usize = 64;

/// The chunk width used for a range of `len` elements: the largest
/// 64-aligned width in `[64, CHUNK]` that still yields ~64+ chunks.
///
/// Depending only on `len` (and never on the thread count) keeps chunk
/// boundaries — and therefore combination order — identical across thread
/// counts; shrinking the width on small ranges keeps skewed weight
/// distributions (one hub-heavy chunk) from swallowing the whole critical
/// path.
pub fn chunk_width(len: usize) -> usize {
    ((len / MIN_CHUNK) / MIN_CHUNK * MIN_CHUNK).clamp(MIN_CHUNK, CHUNK)
}

/// Reusable scheduling state for the `*_scratch` chunked entry points.
///
/// [`Pool::map_chunks_weighted`] allocates its weight vector and worker
/// buckets on every call; that is fine for sync micro-stages but not for
/// the engine hot loop, which must stay allocation-free in the steady
/// state (the partition-binned edge_map contract). A `SchedScratch` owns
/// those buffers instead: every vector is cleared (never shrunk) between
/// calls, so capacities ratchet up to their high-water marks within a
/// couple of rounds and scheduling allocates nothing afterwards.
///
/// The assignment computed through a `SchedScratch` is *identical* to the
/// allocating path: same LPT greedy, same tie-breaks, same metered
/// seq/critical-path split.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Per-chunk declared weights of the current call.
    weights: Vec<u64>,
    /// Chunk indices sorted heaviest-first (LPT order).
    order: Vec<u32>,
    /// Per-worker accumulated load during the greedy deal.
    loads: Vec<u64>,
    /// Per-worker chunk counts (the second greedy tie-break).
    counts: Vec<u32>,
    /// Chunk index -> assigned worker.
    owner: Vec<u32>,
}

impl SchedScratch {
    /// Creates an empty scheduling scratch (buffers grow on first use).
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }
}

/// Work metered by one pool (accumulated across calls until drained).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkSplit {
    /// Total work units (sum over chunks of their weights) — what a
    /// sequential execution performs.
    pub seq: u64,
    /// Critical-path work units: the largest per-worker share under the
    /// deterministic weight-balanced assignment. Equals `seq` when the
    /// pool is sequential.
    pub crit: u64,
}

impl WorkSplit {
    fn add(&mut self, other: WorkSplit) {
        self.seq += other.seq;
        self.crit += other.crit;
    }

    /// Measured speedup of the metered work: `seq / crit` (1.0 when no
    /// work was metered).
    pub fn speedup(&self) -> f64 {
        if self.crit == 0 {
            1.0
        } else {
            self.seq as f64 / self.crit as f64
        }
    }
}

/// A deterministic worker pool for one simulated host.
///
/// Cloning shares the meter (clones meter into the same accumulator), so a
/// context and the engines it drives can hold the same pool.
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
    spawn: bool,
    meter: Arc<Mutex<WorkSplit>>,
    metrics: ExecMetrics,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::sequential()
    }
}

impl Pool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            spawn: true,
            meter: Arc::new(Mutex::new(WorkSplit::default())),
            metrics: ExecMetrics::disabled(),
        }
    }

    /// Publishes every metered operation into `metrics` (in addition to
    /// the drainable meter). Shared across clones of this pool.
    #[must_use]
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Pool {
        self.metrics = metrics;
        self
    }

    /// A pool that schedules and meters as if it had `threads` workers —
    /// identical chunk widths, identical deterministic assignment,
    /// identical critical-path accounting — but runs every bucket on the
    /// calling thread instead of spawning. Scoped thread spawning
    /// allocates (closure boxes, join state); an inline pool performs no
    /// allocations of its own, which is what the allocation-metering
    /// guard measures against.
    pub fn inline(threads: usize) -> Pool {
        Pool {
            spawn: false,
            ..Pool::new(threads)
        }
    }

    /// The single-threaded pool: every operation runs inline.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether more than one worker is configured.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Whether this pool actually spawns OS threads (false for
    /// [`Pool::inline`] pools).
    pub fn spawns(&self) -> bool {
        self.spawn
    }

    /// Returns and resets the work metered since the last drain.
    pub fn drain_work(&self) -> WorkSplit {
        std::mem::take(&mut self.meter.lock().expect("meter poisoned"))
    }

    /// Reads the work metered since the last drain, without resetting.
    pub fn metered_work(&self) -> WorkSplit {
        *self.meter.lock().expect("meter poisoned")
    }

    fn record(&self, split: WorkSplit) {
        self.meter.lock().expect("meter poisoned").add(split);
        self.metrics.on_work(split.seq, split.crit);
    }

    /// The fixed chunk ranges covering `0..len`.
    fn chunk_ranges(len: usize) -> impl Iterator<Item = Range<usize>> {
        let width = chunk_width(len);
        (0..len.div_ceil(width)).map(move |i| i * width..((i + 1) * width).min(len))
    }

    /// Number of fixed chunks covering `0..len` (zero when `len` is zero).
    /// Depends only on `len` — part of the determinism contract.
    pub fn num_chunks(len: usize) -> usize {
        len.div_ceil(chunk_width(len))
    }

    /// Deals chunks to workers: longest-processing-time greedy over the
    /// declared chunk weights, ties broken by worker load, then bucket
    /// size, then worker index — fully deterministic. Meters the sequential
    /// total and the resulting critical path (the heaviest worker share).
    ///
    /// The assignment only decides *who computes* each chunk; results are
    /// recombined by chunk index, so this cannot affect what is computed.
    fn assign(&self, weights: &[u64]) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
        let mut buckets: Vec<Vec<usize>> = (0..self.threads).map(|_| Vec::new()).collect();
        let mut loads = vec![0u64; self.threads];
        for i in order {
            let w = (0..self.threads)
                .min_by_key(|&w| (loads[w], buckets[w].len(), w))
                .expect("at least one worker");
            loads[w] += weights[i];
            buckets[w].push(i);
        }
        self.record(WorkSplit {
            seq: weights.iter().sum(),
            crit: loads.iter().copied().max().unwrap_or(0),
        });
        buckets
    }

    /// [`Pool::assign`] without allocations: deals the chunks whose weights
    /// are already staged in `sched.weights` to workers, writing the
    /// chunk->worker map into `sched.owner`. The greedy, its tie-breaks,
    /// and the metered [`WorkSplit`] are exactly those of `assign` (the
    /// sort key carries the unique chunk index, so the unstable in-place
    /// sort cannot reorder ties differently from the stable one).
    fn assign_into(&self, sched: &mut SchedScratch) {
        let n = sched.weights.len();
        assert!(u32::try_from(n).is_ok(), "chunk count fits u32");
        let SchedScratch {
            weights,
            order,
            loads,
            counts,
            owner,
        } = sched;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(weights[i as usize]), i));
        loads.clear();
        loads.resize(self.threads, 0);
        counts.clear();
        counts.resize(self.threads, 0);
        owner.clear();
        owner.resize(n, 0);
        for &i in order.iter() {
            let w = (0..self.threads)
                .min_by_key(|&w| (loads[w], counts[w], w))
                .expect("at least one worker");
            loads[w] += weights[i as usize];
            counts[w] += 1;
            owner[i as usize] = w as u32;
        }
        self.record(WorkSplit {
            seq: weights.iter().sum(),
            crit: loads.iter().copied().max().unwrap_or(0),
        });
    }

    /// Chunked parallel scatter into per-chunk scratch rows: chunk `i` of
    /// `0..len` runs `f(range, row_i)` where `row_i` is the exclusive
    /// sub-slice `rows[i*stride..(i+1)*stride]` — disjoint rows, no write
    /// races. Metered exactly like [`Pool::map_chunks_weighted`] (same
    /// chunk widths, same weights, same LPT assignment), but with all
    /// scheduling state drawn from `sched`, so on a non-spawning pool the
    /// steady state performs **zero** heap allocations. This is the
    /// scatter half of the partition-binned edge_map: each chunk owns one
    /// row of destination-partition bins.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `rows` is shorter than
    /// `num_chunks * stride`.
    pub fn for_each_chunk_scratch<S: Send>(
        &self,
        len: usize,
        sched: &mut SchedScratch,
        rows: &mut [S],
        stride: usize,
        weight: impl Fn(Range<usize>) -> u64 + Sync,
        f: impl Fn(Range<usize>, &mut [S]) + Sync,
    ) {
        let width = chunk_width(len);
        let num_chunks = len.div_ceil(width);
        assert!(stride > 0, "row stride must be positive");
        assert!(
            rows.len() >= num_chunks * stride,
            "one stride-sized row per chunk"
        );
        sched.weights.clear();
        sched.weights.extend(Self::chunk_ranges(len).map(weight));
        self.assign_into(sched);
        if !self.spawn || !self.is_parallel() || num_chunks <= 1 {
            for (i, row) in rows.chunks_mut(stride).take(num_chunks).enumerate() {
                f(i * width..((i + 1) * width).min(len), row);
            }
            return;
        }
        let mut per_worker: Vec<Vec<(usize, &mut [S])>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        for (i, row) in rows.chunks_mut(stride).take(num_chunks).enumerate() {
            per_worker[sched.owner[i] as usize].push((i, row));
        }
        let f = &f;
        crossbeam::thread::scope(|s| {
            let mut buckets = per_worker.into_iter();
            let mine = buckets.next().expect("at least one worker");
            for work in buckets {
                s.spawn(move || {
                    for (i, row) in work {
                        f(i * width..((i + 1) * width).min(len), row);
                    }
                });
            }
            for (i, row) in mine {
                f(i * width..((i + 1) * width).min(len), row);
            }
        });
    }

    /// [`Pool::map_chunks_mut`] with recycled scheduling state and one
    /// exclusive scratch slot per chunk instead of a result vector: chunk
    /// `i` runs `f(start, chunk, &mut scratch[i])`, writing any output
    /// into its slot. Metered identically to `map_chunks_mut`; on a
    /// non-spawning pool the steady state allocates nothing. This is the
    /// pull half of the partition-binned edge_map: destination chunks own
    /// disjoint label slices and park their activation lists in their
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` has fewer slots than chunks.
    pub fn for_each_chunk_mut_scratch<T: Send, S: Send>(
        &self,
        data: &mut [T],
        sched: &mut SchedScratch,
        scratch: &mut [S],
        weight: impl Fn(Range<usize>) -> u64 + Sync,
        f: impl Fn(usize, &mut [T], &mut S) + Sync,
    ) {
        let len = data.len();
        let width = chunk_width(len);
        let num_chunks = len.div_ceil(width);
        assert!(scratch.len() >= num_chunks, "one scratch slot per chunk");
        sched.weights.clear();
        sched.weights.extend(Self::chunk_ranges(len).map(weight));
        self.assign_into(sched);
        if !self.spawn || !self.is_parallel() || num_chunks <= 1 {
            for ((i, chunk), slot) in data.chunks_mut(width).enumerate().zip(scratch.iter_mut()) {
                f(i * width, chunk, slot);
            }
            return;
        }
        let mut per_worker: Vec<Vec<(usize, &mut [T], &mut S)>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        for ((i, chunk), slot) in data.chunks_mut(width).enumerate().zip(scratch.iter_mut()) {
            per_worker[sched.owner[i] as usize].push((i, chunk, slot));
        }
        let f = &f;
        crossbeam::thread::scope(|s| {
            let mut buckets = per_worker.into_iter();
            let mine = buckets.next().expect("at least one worker");
            for work in buckets {
                s.spawn(move || {
                    for (i, chunk, slot) in work {
                        f(i * width, chunk, slot);
                    }
                });
            }
            for (i, chunk, slot) in mine {
                f(i * width, chunk, slot);
            }
        });
    }

    /// Parallel sweep over fixed-width *partitions* of `data`: partition
    /// `p` owns the exclusive slice `data[p*part_len..(p+1)*part_len]`
    /// (the last one may be shorter) plus its scratch slot, and runs
    /// `f(p, p*part_len, slice, slot)`. Partitions are dealt to workers by
    /// the same LPT greedy as chunks, over the caller-declared
    /// `part_weights` — but this entry point is **not metered**: it is the
    /// drain half of the partition-binned edge_map, whose flat equivalent
    /// (the sequential candidate fold) was never charged to the work meter
    /// either. Metering it would make binned and flat runs disagree on
    /// `max_work_units`, breaking report-fingerprint parity.
    ///
    /// Determinism: partitions own disjoint destination ranges, so the
    /// outcome is identical to the ascending-`p` sequential sweep at any
    /// thread count — which is exactly what a single-partition call
    /// (`part_len >= data.len()`) degenerates to.
    ///
    /// # Panics
    ///
    /// Panics if `part_len` is zero or `part_weights`/`scratch` have fewer
    /// entries than partitions.
    pub fn for_each_part_mut<T: Send, S: Send>(
        &self,
        data: &mut [T],
        part_len: usize,
        part_weights: &[u64],
        scratch: &mut [S],
        f: impl Fn(usize, usize, &mut [T], &mut S) + Sync,
    ) {
        assert!(part_len > 0, "partition width must be positive");
        let num_parts = data.len().div_ceil(part_len);
        assert!(part_weights.len() >= num_parts, "one weight per partition");
        assert!(scratch.len() >= num_parts, "one scratch slot per partition");
        if !self.spawn || !self.is_parallel() || num_parts <= 1 {
            let mut rest = data;
            for (p, slot) in scratch.iter_mut().take(num_parts).enumerate() {
                let (head, tail) = rest.split_at_mut(part_len.min(rest.len()));
                rest = tail;
                f(p, p * part_len, head, slot);
            }
            return;
        }
        // LPT deal over the declared partition weights (ties by partition
        // index) — allocation is fine here, the spawn path allocates for
        // thread state anyway.
        let mut order: Vec<usize> = (0..num_parts).collect();
        order.sort_unstable_by_key(|&p| (std::cmp::Reverse(part_weights[p]), p));
        let mut owner = vec![0usize; num_parts];
        let mut loads = vec![0u64; self.threads];
        let mut counts = vec![0usize; self.threads];
        for p in order {
            let w = (0..self.threads)
                .min_by_key(|&w| (loads[w], counts[w], w))
                .expect("at least one worker");
            loads[w] += part_weights[p];
            counts[w] += 1;
            owner[p] = w;
        }
        let mut per_worker: Vec<Vec<(usize, &mut [T], &mut S)>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        let mut rest = data;
        for (p, slot) in scratch.iter_mut().take(num_parts).enumerate() {
            let (head, tail) = rest.split_at_mut(part_len.min(rest.len()));
            rest = tail;
            per_worker[owner[p]].push((p, head, slot));
        }
        let f = &f;
        crossbeam::thread::scope(|s| {
            let mut buckets = per_worker.into_iter();
            let mine = buckets.next().expect("at least one worker");
            for work in buckets {
                s.spawn(move || {
                    for (p, slice, slot) in work {
                        f(p, p * part_len, slice, slot);
                    }
                });
            }
            for (p, slice, slot) in mine {
                f(p, p * part_len, slice, slot);
            }
        });
    }

    /// Chunked parallel map with metered weights: applies `f` to each fixed
    /// chunk of `0..len` and returns the results in ascending chunk order.
    ///
    /// `weight(range)` is the work-unit cost of a chunk (e.g. the out-degree
    /// sum of its vertices); the pool meters the sequential total and the
    /// critical path of the weight-balanced assignment. `f` must read only
    /// shared immutable state — the `Fn + Sync` bounds enforce this — which
    /// is what makes the result independent of the thread count.
    pub fn map_chunks_weighted<R: Send>(
        &self,
        len: usize,
        weight: impl Fn(Range<usize>) -> u64 + Sync,
        f: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let num_chunks = len.div_ceil(chunk_width(len));
        let weights: Vec<u64> = Self::chunk_ranges(len).map(weight).collect();
        let buckets = self.assign(&weights);
        if !self.spawn || !self.is_parallel() || num_chunks <= 1 {
            return Self::chunk_ranges(len).map(f).collect();
        }
        let width = chunk_width(len);
        let f = &f;
        let run = move |bucket: &[usize]| {
            bucket
                .iter()
                .map(|&i| (i, f(i * width..((i + 1) * width).min(len))))
                .collect::<Vec<(usize, R)>>()
        };
        let mut per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = buckets[1..]
                .iter()
                .map(|bucket| s.spawn(move || run(bucket)))
                .collect();
            let mine = run(&buckets[0]);
            let mut all = vec![mine];
            all.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            all
        });
        // Reassemble in ascending chunk order (in-order combination).
        let mut out: Vec<Option<R>> = (0..num_chunks).map(|_| None).collect();
        for bucket in &mut per_worker {
            for (i, r) in bucket.drain(..) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("chunk covered")).collect()
    }

    /// As [`Pool::map_chunks_weighted`] with each chunk weighted by its
    /// element count.
    pub fn map_chunks<R: Send>(&self, len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
        self.map_chunks_weighted(len, |r| r.len() as u64, f)
    }

    /// Chunked parallel reduction: maps each fixed chunk with `map`, then
    /// folds the per-chunk results **in ascending chunk order** with
    /// `combine` starting from `identity` — the in-order combination that
    /// keeps floating-point reductions bit-identical to the sequential
    /// loop.
    pub fn reduce<R: Send>(
        &self,
        len: usize,
        identity: R,
        map: impl Fn(Range<usize>) -> R + Sync,
        mut combine: impl FnMut(R, R) -> R,
    ) -> R {
        self.map_chunks(len, map)
            .into_iter()
            .fold(identity, &mut combine)
    }

    /// Chunked parallel mutation: splits `data` into fixed chunks, runs
    /// `f(chunk_start, chunk)` on each — workers own **disjoint** slices,
    /// so no write races are possible — and returns the per-chunk results
    /// in ascending chunk order.
    ///
    /// `weight` meters each chunk by its range within `data` (e.g. in-degree
    /// sums for a pull kernel writing per-destination slots).
    pub fn map_chunks_mut<T: Send, R: Send>(
        &self,
        data: &mut [T],
        weight: impl Fn(Range<usize>) -> u64 + Sync,
        f: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Vec<R> {
        let len = data.len();
        let width = chunk_width(len);
        let num_chunks = len.div_ceil(width);
        let weights: Vec<u64> = Self::chunk_ranges(len).map(weight).collect();
        let buckets = self.assign(&weights);
        if !self.spawn || !self.is_parallel() || num_chunks <= 1 {
            return data
                .chunks_mut(width)
                .enumerate()
                .map(|(i, c)| f(i * width, c))
                .collect();
        }
        let mut owner = vec![0usize; num_chunks];
        for (w, bucket) in buckets.iter().enumerate() {
            for &i in bucket {
                owner[i] = w;
            }
        }
        let mut per_worker: Vec<Vec<(usize, &mut [T])>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        for (i, chunk) in data.chunks_mut(width).enumerate() {
            per_worker[owner[i]].push((i, chunk));
        }
        let f = &f;
        let mut results: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
            let mut buckets = per_worker.into_iter();
            let mine = buckets.next().expect("at least one worker");
            let handles: Vec<_> = buckets
                .map(|work| {
                    s.spawn(move || {
                        work.into_iter()
                            .map(|(i, c)| (i, f(i * width, c)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let own: Vec<(usize, R)> = mine
                .into_iter()
                .map(|(i, c)| (i, f(i * width, c)))
                .collect();
            let mut all = vec![own];
            all.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            all
        });
        let mut out: Vec<Option<R>> = (0..num_chunks).map(|_| None).collect();
        for bucket in &mut results {
            for (i, r) in bucket.drain(..) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("chunk covered")).collect()
    }

    /// One task per index `0..n`, results in index order — for small fixed
    /// fan-outs like per-peer extract/encode in the sync hot path. Not
    /// metered (sync work is accounted as communication, not compute).
    pub fn map_per<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if !self.spawn || !self.is_parallel() || n <= 1 {
            return (0..n).map(f).collect();
        }
        let f = &f;
        let mut per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (1..self.threads.min(n))
                .map(|w| {
                    s.spawn(move || {
                        (w..n)
                            .step_by(self.threads)
                            .map(|i| (i, f(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mine: Vec<(usize, R)> = (0..n).step_by(self.threads).map(|i| (i, f(i))).collect();
            let mut all = vec![mine];
            all.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            all
        });
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for bucket in &mut per_worker {
            for (i, r) in bucket.drain(..) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("index covered")).collect()
    }

    /// One task per scratch slot with a **completion-ordered sink**:
    /// workers run `work(i, &mut scratch[i])` over contiguous blocks of
    /// slots, and the calling thread runs `sink(i, &mut scratch[i])` as
    /// soon as that slot is done — not after the whole region. This is
    /// the overlap primitive of the sync schedule: `work` prepares a
    /// peer's payload, `sink` hands it to the transport while other peers
    /// are still being prepared. There is no result vector — workers
    /// write their output *into* their slots. Not metered (sync work is
    /// accounted as communication, not compute).
    ///
    /// Determinism: slot *contents* are deterministic (every index writes
    /// only its own slot), but the *order* in which `sink` observes
    /// finished slots is completion order — nondeterministic on a
    /// spawning pool. Callers must perform
    /// only order-independent effects in `sink` (tag-routed transport
    /// sends, commutative counter sums). On a non-spawning pool
    /// ([`Pool::inline`], [`Pool::sequential`]) the schedule degenerates
    /// to `work(i)` then `sink(i)` in ascending index order on the
    /// calling thread, with no channel and no allocations — the
    /// steady-state path the allocation guard meters.
    pub fn for_each_scratch_eager<S: Send>(
        &self,
        scratch: &mut [S],
        work: impl Fn(usize, &mut S) + Sync,
        mut sink: impl FnMut(usize, &mut S),
    ) {
        let n = scratch.len();
        if !self.spawn || !self.is_parallel() || n <= 1 {
            for (i, s) in scratch.iter_mut().enumerate() {
                work(i, s);
                sink(i, s);
            }
            return;
        }
        let t = self.threads.min(n);
        let base = n / t;
        let rem = n % t;
        let block = |b: usize| base + usize::from(b < rem);
        let work = &work;
        crossbeam::thread::scope(|s| {
            let (tx, rx) = crossbeam::channel::unbounded_with_capacity::<(usize, &mut S)>(n);
            let mut rest: &mut [S] = scratch;
            let mut start = 0usize;
            for b in 0..t {
                let (head, tail) = rest.split_at_mut(block(b));
                rest = tail;
                let head_start = start;
                start += head.len();
                let tx = tx.clone();
                s.spawn(move || {
                    for (off, slot) in head.iter_mut().enumerate() {
                        work(head_start + off, slot);
                        assert!(
                            tx.send((head_start + off, slot)).is_ok(),
                            "eager sink receiver outlives the workers"
                        );
                    }
                });
            }
            drop(tx);
            for _ in 0..n {
                let (i, slot) = rx.recv().expect("every slot is sent exactly once");
                sink(i, slot);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        // The per-chunk results (not just the fold) must agree across
        // thread counts: same boundaries, same order.
        let len = 3 * CHUNK + 17;
        let seq = Pool::sequential().map_chunks(len, |r| (r.start, r.end));
        for t in [2, 3, 8] {
            assert_eq!(Pool::new(t).map_chunks(len, |r| (r.start, r.end)), seq);
        }
        let width = chunk_width(len);
        assert_eq!(seq.len(), len.div_ceil(width));
        assert_eq!(*seq.last().unwrap(), ((seq.len() - 1) * width, len));
        for (i, &(start, end)) in seq.iter().enumerate() {
            assert_eq!(start, i * width);
            assert!(end <= len);
        }
    }

    #[test]
    fn chunk_width_is_aligned_and_bounded() {
        for len in [0, 1, 63, 64, 1553, 4096, 100_000, 1 << 20] {
            let w = chunk_width(len);
            assert_eq!(w % 64, 0, "len {len}: width {w} not word-aligned");
            assert!((64..=CHUNK).contains(&w), "len {len}: width {w}");
        }
        // Large ranges saturate at the maximum width; small ones split
        // finely enough that one worker cannot be handed everything.
        assert_eq!(chunk_width(1 << 20), CHUNK);
        assert_eq!(chunk_width(1553), 64);
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // Pathological float mix where re-association visibly changes the
        // result; in-order combination must keep it stable.
        let data: Vec<f64> = (0..(4 * CHUNK))
            .map(|i| {
                if i % 3 == 0 {
                    1e16
                } else {
                    1.0 + i as f64 * 1e-3
                }
            })
            .collect();
        let run = |t: usize| {
            Pool::new(t).reduce(
                data.len(),
                0.0f64,
                |r| data[r].iter().fold(0.0f64, |a, b| a + b),
                |a, b| a + b,
            )
        };
        let seq = run(1);
        for t in [2, 5, 8] {
            assert_eq!(seq.to_bits(), run(t).to_bits(), "threads = {t}");
        }
    }

    #[test]
    fn map_chunks_mut_writes_disjoint_slices() {
        let mut data = vec![0u32; 2 * CHUNK + 100];
        let touched: Vec<usize> = Pool::new(4)
            .map_chunks_mut(
                &mut data,
                |r| r.len() as u64,
                |start, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (start + i) as u32;
                    }
                    chunk.len()
                },
            )
            .into_iter()
            .collect();
        assert_eq!(touched.iter().sum::<usize>(), data.len());
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
    }

    #[test]
    fn meter_records_seq_and_critical_path() {
        let pool = Pool::new(2);
        // Two chunks with weights 10 and 30: seq 40, worker shares {10, 30}.
        let len = 2 * MIN_CHUNK;
        assert_eq!(chunk_width(len), MIN_CHUNK);
        let _ = pool.map_chunks_weighted(len, |r| if r.start == 0 { 10 } else { 30 }, |_| ());
        let w = pool.drain_work();
        assert_eq!(w, WorkSplit { seq: 40, crit: 30 });
        assert!((w.speedup() - 40.0 / 30.0).abs() < 1e-12);
        // Drained.
        assert_eq!(pool.drain_work(), WorkSplit::default());
    }

    #[test]
    fn weighted_assignment_bounds_crit_by_heaviest_chunk() {
        // Eight chunks, one hub chunk of weight 100 and seven of weight 10:
        // the greedy assignment must isolate the hub so the critical path
        // is the hub chunk, not hub + round-robin extras.
        let len = 8 * MIN_CHUNK;
        let pool = Pool::new(4);
        let _ = pool.map_chunks_weighted(len, |r| if r.start == 0 { 100 } else { 10 }, |_| ());
        let w = pool.drain_work();
        assert_eq!(
            w,
            WorkSplit {
                seq: 170,
                crit: 100
            }
        );
    }

    #[test]
    fn sequential_pool_has_crit_equal_seq() {
        let pool = Pool::sequential();
        let _ = pool.map_chunks(3 * CHUNK, |_| ());
        let w = pool.drain_work();
        assert_eq!(w.seq, w.crit);
        assert_eq!(w.seq, 3 * CHUNK as u64);
    }

    #[test]
    fn map_per_preserves_index_order() {
        for t in [1, 3, 7] {
            let out = Pool::new(t).map_per(13, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cloned_pools_share_the_meter() {
        let pool = Pool::new(2);
        let clone = pool.clone();
        let _ = clone.map_chunks(CHUNK, |_| ());
        assert_eq!(pool.metered_work().seq, CHUNK as u64);
    }

    #[test]
    fn for_each_scratch_eager_sinks_every_slot_exactly_once() {
        for t in [1, 2, 3, 4, 7] {
            let mut scratch = vec![0usize; 13];
            let mut seen = vec![0u32; 13];
            let mut total = 0usize;
            Pool::new(t).for_each_scratch_eager(
                &mut scratch,
                |i, s| *s = i * i,
                |i, s| {
                    seen[i] += 1;
                    total += *s;
                },
            );
            assert_eq!(scratch, (0..13).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(seen, vec![1; 13], "threads = {t}");
            assert_eq!(total, (0..13).map(|i| i * i).sum::<usize>());
        }
    }

    #[test]
    fn for_each_scratch_eager_is_index_ordered_when_not_spawning() {
        for pool in [Pool::sequential(), Pool::inline(4)] {
            let mut scratch = vec![0usize; 9];
            let mut order = Vec::new();
            pool.for_each_scratch_eager(&mut scratch, |i, s| *s = i, |i, _| order.push(i));
            assert_eq!(order, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn inline_pool_matches_spawning_pool() {
        let data: Vec<u64> = (0..(3 * CHUNK as u64)).collect();
        let run = |pool: Pool| {
            let total = pool.reduce(data.len(), 0u64, |r| data[r].iter().sum(), |a, b| a + b);
            (total, pool.drain_work())
        };
        let (seq_total, spawned_work) = run(Pool::new(4));
        let (inline_total, inline_work) = run(Pool::inline(4));
        assert_eq!(seq_total, inline_total);
        // Same schedule, same meter: the inline pool charges the identical
        // critical path even though it never spawned.
        assert_eq!(spawned_work, inline_work);
        assert!(Pool::new(4).spawns());
        assert!(!Pool::inline(4).spawns());
        assert!(Pool::inline(4).is_parallel());
    }

    #[test]
    fn metrics_mirror_the_meter() {
        let hub = gluon_metrics::MetricsHub::new(1);
        let pool = Pool::new(2).with_metrics(ExecMetrics::register(&hub.host_registry(0)));
        let len = 2 * MIN_CHUNK;
        let _ = pool.map_chunks_weighted(len, |r| if r.start == 0 { 10 } else { 30 }, |_| ());
        let r = hub.host_registry(0);
        assert_eq!(r.counter_value("pool_parallel_ops"), 1);
        assert_eq!(r.counter_value("pool_seq_work"), 40);
        assert_eq!(r.counter_value("pool_crit_work"), 30);
        // The drainable meter is unaffected by the mirror.
        assert_eq!(pool.drain_work(), WorkSplit { seq: 40, crit: 30 });
    }

    #[test]
    fn empty_range_is_fine() {
        let pool = Pool::new(4);
        assert!(pool.map_chunks(0, |_| ()).is_empty());
        assert_eq!(pool.reduce(0, 7u32, |_| 1, |a, b| a + b), 7);
    }

    #[test]
    fn chunk_scratch_meters_exactly_like_the_allocating_path() {
        // Same weights through map_chunks_weighted and
        // for_each_chunk_scratch: the LPT loads (and therefore crit) must
        // agree, proving assign_into reproduces assign.
        let len = 9 * MIN_CHUNK + 17;
        let weight = |r: Range<usize>| (r.start as u64 * 7 + r.len() as u64) % 13 + 1;
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let _ = pool.map_chunks_weighted(len, weight, |_| ());
            let reference = pool.drain_work();
            let mut sched = SchedScratch::new();
            let mut rows = vec![0u64; Pool::num_chunks(len) * 2];
            pool.for_each_chunk_scratch(len, &mut sched, &mut rows, 2, weight, |_, _| {});
            assert_eq!(pool.drain_work(), reference, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_scratch_hands_each_chunk_its_own_row() {
        for pool in [Pool::sequential(), Pool::inline(4), Pool::new(4)] {
            let len = 5 * MIN_CHUNK + 3;
            let chunks = Pool::num_chunks(len);
            let stride = 3;
            let mut rows = vec![0usize; chunks * stride];
            let mut sched = SchedScratch::new();
            pool.for_each_chunk_scratch(
                len,
                &mut sched,
                &mut rows,
                stride,
                |r| r.len() as u64,
                |range, row| {
                    assert_eq!(row.len(), stride);
                    for (k, slot) in row.iter_mut().enumerate() {
                        *slot = range.start * 10 + range.len() + k;
                    }
                },
            );
            let width = chunk_width(len);
            for i in 0..chunks {
                let range = i * width..((i + 1) * width).min(len);
                for k in 0..stride {
                    assert_eq!(rows[i * stride + k], range.start * 10 + range.len() + k);
                }
            }
        }
    }

    #[test]
    fn chunk_mut_scratch_matches_map_chunks_mut() {
        let len = 7 * MIN_CHUNK + 5;
        let weight = |r: Range<usize>| r.len() as u64;
        let mut reference = vec![0u32; len];
        let ref_pool = Pool::new(4);
        let _ = ref_pool.map_chunks_mut(&mut reference, weight, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as u32 * 3;
            }
        });
        let ref_work = ref_pool.drain_work();
        for pool in [Pool::sequential(), Pool::inline(4), Pool::new(4)] {
            let mut data = vec![0u32; len];
            let mut scratch = vec![0usize; Pool::num_chunks(len)];
            let mut sched = SchedScratch::new();
            pool.for_each_chunk_mut_scratch(
                &mut data,
                &mut sched,
                &mut scratch,
                weight,
                |start, chunk, slot| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (start + i) as u32 * 3;
                    }
                    *slot = chunk.len();
                },
            );
            assert_eq!(data, reference);
            assert_eq!(scratch.iter().sum::<usize>(), len);
            if pool.threads() == 4 {
                assert_eq!(pool.drain_work(), ref_work);
            }
        }
    }

    #[test]
    fn part_mut_covers_disjoint_partitions_and_is_unmetered() {
        for pool in [Pool::sequential(), Pool::inline(4), Pool::new(3)] {
            let n = 1000usize;
            let part_len = 256;
            let parts = n.div_ceil(part_len);
            let mut data = vec![0u32; n];
            let mut scratch = vec![0usize; parts];
            let weights: Vec<u64> = (0..parts as u64).map(|p| p * 11 + 1).collect();
            pool.for_each_part_mut(
                &mut data,
                part_len,
                &weights,
                &mut scratch,
                |p, start, slice, slot| {
                    assert_eq!(start, p * part_len);
                    for (i, v) in slice.iter_mut().enumerate() {
                        *v = (start + i) as u32 + 1;
                    }
                    *slot = slice.len();
                },
            );
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v as usize, i + 1);
            }
            assert_eq!(scratch.iter().sum::<usize>(), n);
            assert_eq!(pool.drain_work(), WorkSplit::default());
        }
    }

    #[test]
    fn sched_scratch_is_reusable_across_geometries() {
        let pool = Pool::new(2);
        let mut sched = SchedScratch::new();
        for len in [3 * MIN_CHUNK, 11 * MIN_CHUNK + 9, MIN_CHUNK / 2, 0] {
            let chunks = Pool::num_chunks(len);
            let mut rows = vec![0u8; chunks.max(1)];
            let mut hits = vec![false; chunks];
            pool.for_each_chunk_scratch(
                len,
                &mut sched,
                &mut rows,
                1,
                |r| r.len() as u64,
                |range, _| {
                    // Single-threaded observation is fine: this closure runs
                    // once per chunk whatever the schedule.
                    assert!(range.end <= len);
                },
            );
            let _ = &mut hits;
            let _ = pool.drain_work();
        }
    }
}
