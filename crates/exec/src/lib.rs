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
//! Every primitive is a thin wrapper over one deal and one dispatch core.
//! It stages one weight per chunk (or partition) in a [`SchedScratch`]; the
//! deal maps chunks to workers; the dispatch core runs the per-worker job
//! lists on `std::thread::scope` threads — the crate's only spawn site —
//! while the calling thread runs worker 0's list (or, for the eager sync
//! primitive, the completion-ordered sink). Threads are spawned per call:
//! pool lifetime management would buy little here (the chunked loops
//! dominate), and scoped spawning keeps the closures free to borrow the
//! caller's stack. For workloads that must not allocate at all (the sync
//! arena's steady-state guarantee), [`Pool::inline`] builds a pool that
//! keeps the configured thread count for scheduling and metering — chunk
//! widths, assignments, and the critical-path meter are exactly those of
//! the spawning pool — but executes every job on the calling thread, so no
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
use std::sync::{mpsc, Arc, Mutex};

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

/// Reusable scheduling state for the chunked entry points.
///
/// The engine hot loop must stay allocation-free in the steady state (the
/// partition-binned edge_map contract), so the deal's buffers live here
/// rather than in each call: every vector is cleared (never shrunk)
/// between calls, so capacities ratchet up to their high-water marks
/// within a couple of rounds and scheduling allocates nothing afterwards.
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

    /// The deal: a longest-processing-time greedy over the staged
    /// `weights`, heaviest chunk first (ties by chunk index), each onto the
    /// worker with the least load, then the fewest chunks, then the lowest
    /// index — fully deterministic. Fills `owner` and returns the
    /// sequential total and the resulting critical path (the heaviest
    /// worker share).
    ///
    /// The deal only decides *who computes* each chunk; results are
    /// recombined by chunk index, so it cannot affect what is computed.
    fn deal(&mut self, threads: usize) -> WorkSplit {
        let n = self.weights.len();
        assert!(u32::try_from(n).is_ok(), "chunk count fits u32");
        let SchedScratch {
            weights,
            order,
            loads,
            counts,
            owner,
        } = self;
        order.clear();
        order.extend(0..n as u32);
        // The key carries the unique chunk index, so the unstable in-place
        // sort orders ties exactly as a stable one would.
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(weights[i as usize]), i));
        loads.clear();
        loads.resize(threads, 0);
        counts.clear();
        counts.resize(threads, 0);
        owner.clear();
        owner.resize(n, 0);
        for &i in order.iter() {
            let w = (0..threads)
                .min_by_key(|&w| (loads[w], counts[w], w))
                .expect("at least one worker");
            loads[w] += weights[i as usize];
            counts[w] += 1;
            owner[i as usize] = w as u32;
        }
        WorkSplit {
            seq: weights.iter().sum(),
            crit: loads.iter().copied().max().unwrap_or(0),
        }
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

/// The crate's one spawn site: every list in `spawned` runs through `run`
/// on a scoped thread of its own while the calling thread runs `caller`.
/// Returns once every thread has joined. A panic in a job or in `caller`
/// surfaces from here only after that, so no job outlives the borrows it
/// was handed.
fn dispatch<W: Send>(
    spawned: impl Iterator<Item = W>,
    run: &(impl Fn(W) + Sync),
    caller: impl FnOnce(),
) {
    std::thread::scope(|s| {
        for list in spawned {
            s.spawn(move || run(list));
        }
        caller();
    });
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
    /// identical critical-path accounting — but runs every job on the
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

    /// Whether this pool runs jobs on more than one OS thread (false for
    /// one-worker and [`Pool::inline`] pools).
    pub fn spawns(&self) -> bool {
        self.spawn && self.is_parallel()
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

    /// Stages one weight per fixed chunk of `0..len` in `sched`, deals the
    /// chunks and meters the split.
    fn deal_chunks(
        &self,
        len: usize,
        sched: &mut SchedScratch,
        weight: impl Fn(Range<usize>) -> u64,
    ) {
        sched.weights.clear();
        sched.weights.extend(Self::chunk_ranges(len).map(weight));
        self.record(sched.deal(self.threads));
    }

    /// Runs every job through `run`. A pool that does not spawn, or a call
    /// with at most one job, runs them in order on the calling thread;
    /// otherwise job `k` joins the list of worker `owner[k]` and the lists
    /// are dispatched, worker 0's on the calling thread.
    fn run_dealt<J: Send>(
        &self,
        owner: &[u32],
        jobs: impl Iterator<Item = J>,
        run: impl Fn(J) + Sync,
    ) {
        if !self.spawns() || owner.len() <= 1 {
            jobs.for_each(run);
            return;
        }
        let mut lists: Vec<Vec<J>> = (0..self.threads).map(|_| Vec::new()).collect();
        for (job, &w) in jobs.zip(owner) {
            lists[w as usize].push(job);
        }
        let mut lists = lists.into_iter();
        let mine = lists.next().expect("at least one worker");
        let run_list = |list: Vec<J>| list.into_iter().for_each(&run);
        dispatch(lists, &run_list, || run_list(mine));
    }

    /// Runs `f(k, slice_k, &mut slots[k])` over the disjoint `width`-wide
    /// slices of `data` (the last one may be shorter), slice `k` on worker
    /// `owner[k]`.
    fn for_each_slice_mut<T: Send, S: Send>(
        &self,
        data: &mut [T],
        width: usize,
        owner: &[u32],
        slots: &mut [S],
        f: impl Fn(usize, &mut [T], &mut S) + Sync,
    ) {
        let jobs = data.chunks_mut(width).zip(slots).enumerate();
        self.run_dealt(owner, jobs, |(k, (slice, slot))| f(k, slice, slot));
    }

    /// Chunked parallel scatter into per-chunk scratch rows: chunk `i` of
    /// `0..len` runs `f(range, row_i)` where `row_i` is the exclusive
    /// sub-slice `rows[i*stride..(i+1)*stride]` — disjoint rows, no write
    /// races. `weight(range)` is the work-unit cost of a chunk (e.g. the
    /// out-degree sum of its vertices); the pool meters the sequential
    /// total and the critical path of the weight-balanced deal. All
    /// scheduling state is drawn from `sched`, so on a non-spawning pool
    /// the steady state performs **zero** heap allocations. This is the
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
        assert!(stride > 0, "row stride must be positive");
        assert!(
            rows.len() >= Self::num_chunks(len) * stride,
            "one stride-sized row per chunk"
        );
        self.deal_chunks(len, sched, weight);
        let jobs = Self::chunk_ranges(len).zip(rows.chunks_mut(stride));
        self.run_dealt(&sched.owner, jobs, |(range, row)| f(range, row));
    }

    /// Chunked parallel mutation with one exclusive scratch slot per chunk:
    /// splits `data` into fixed chunks and runs `f(start, chunk,
    /// &mut scratch[i])` on each — workers own **disjoint** slices, so no
    /// write races are possible — writing any output into the slot.
    /// `weight` meters each chunk by its range within `data` (e.g.
    /// in-degree sums for a pull kernel writing per-destination slots);
    /// metering and scheduling state are those of
    /// [`Pool::for_each_chunk_scratch`]. This is the pull half of the
    /// partition-binned edge_map: destination chunks own disjoint label
    /// slices and park their activation lists in their slots.
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
        let width = chunk_width(data.len());
        assert!(
            scratch.len() >= Self::num_chunks(data.len()),
            "one scratch slot per chunk"
        );
        self.deal_chunks(data.len(), sched, weight);
        self.for_each_slice_mut(data, width, &sched.owner, scratch, |i, chunk, slot| {
            f(i * width, chunk, slot)
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
        // Dealt only when the partitions can spread over threads, so the
        // inline path allocates nothing; a spawning call allocates for its
        // threads anyway.
        let mut sched = SchedScratch::new();
        if self.spawns() {
            sched.weights.extend_from_slice(&part_weights[..num_parts]);
            sched.deal(self.threads);
        }
        self.for_each_slice_mut(data, part_len, &sched.owner, scratch, |p, slice, slot| {
            f(p, p * part_len, slice, slot)
        });
    }

    /// Chunked parallel map: applies `f` to each fixed chunk of `0..len`
    /// and returns the results in ascending chunk order, metering each
    /// chunk by its element count. `f` must read only shared immutable
    /// state — the `Fn + Sync` bounds enforce this — which is what makes
    /// the result independent of the thread count.
    pub fn map_chunks<R: Send>(&self, len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
        let mut slots: Vec<Option<R>> = (0..Self::num_chunks(len)).map(|_| None).collect();
        self.for_each_chunk_scratch(
            len,
            &mut SchedScratch::new(),
            &mut slots,
            1,
            |r| r.len() as u64,
            |r, slot| slot[0] = Some(f(r)),
        );
        slots
            .into_iter()
            .map(|r| r.expect("chunk covered"))
            .collect()
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
        if !self.spawns() || n <= 1 {
            for (i, s) in scratch.iter_mut().enumerate() {
                work(i, s);
                sink(i, s);
            }
            return;
        }
        // One contiguous block per thread, each with its own sender: a
        // worker that finishes — or panics — hangs up, so the sink loop
        // ends once the last block is done either way.
        let t = self.threads.min(n);
        let (tx, rx) = mpsc::channel();
        let mut blocks = Vec::with_capacity(t);
        let (mut rest, mut start) = (scratch, 0);
        for b in 0..t {
            let (head, tail) = rest.split_at_mut(n / t + usize::from(b < n % t));
            rest = tail;
            let len = head.len();
            blocks.push((start, head, tx.clone()));
            start += len;
        }
        drop(tx);
        dispatch(
            blocks.into_iter(),
            &|(start, block, tx)| {
                for (i, slot) in (start..).zip(block) {
                    work(i, slot);
                    // A send fails only once the sink has panicked; the
                    // scope reports that panic after this block is done.
                    let _ = tx.send((i, slot));
                }
            },
            || rx.into_iter().for_each(|(i, slot)| sink(i, slot)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Runs a no-op chunk scatter over `0..len` with the given chunk
    /// weights and drains the meter.
    fn metered(pool: &Pool, len: usize, weight: impl Fn(Range<usize>) -> u64 + Sync) -> WorkSplit {
        let mut rows = vec![(); Pool::num_chunks(len)];
        pool.for_each_chunk_scratch(
            len,
            &mut SchedScratch::new(),
            &mut rows,
            1,
            weight,
            |_, _| {},
        );
        pool.drain_work()
    }

    /// The deal written the plain way, as an oracle: a stable sort
    /// heaviest-first, then a scan for the least-loaded, least-filled,
    /// lowest-numbered worker.
    fn reference_deal(weights: &[u64], threads: usize) -> (Vec<u32>, WorkSplit) {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        let mut loads = vec![0u64; threads];
        let mut counts = vec![0u32; threads];
        let mut owner = vec![0u32; weights.len()];
        for i in order {
            let mut w = 0;
            for v in 1..threads {
                if (loads[v], counts[v]) < (loads[w], counts[w]) {
                    w = v;
                }
            }
            loads[w] += weights[i];
            counts[w] += 1;
            owner[i] = w as u32;
        }
        let split = WorkSplit {
            seq: weights.iter().sum(),
            crit: loads.into_iter().max().unwrap_or(0),
        };
        (owner, split)
    }

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
    fn meter_records_seq_and_critical_path() {
        let pool = Pool::new(2);
        // Two chunks with weights 10 and 30: seq 40, worker shares {10, 30}.
        let len = 2 * MIN_CHUNK;
        assert_eq!(chunk_width(len), MIN_CHUNK);
        let w = metered(&pool, len, |r| if r.start == 0 { 10 } else { 30 });
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
        let w = metered(&Pool::new(4), len, |r| if r.start == 0 { 100 } else { 10 });
        assert_eq!(
            w,
            WorkSplit {
                seq: 170,
                crit: 100
            }
        );
    }

    #[test]
    fn part_deal_isolates_the_hub_partition() {
        // The same profile through the unmetered partition drain, with the
        // hub in the middle: the heaviest partition goes to worker 0 — the
        // calling thread — alone, and the seven light ones share the three
        // spawned workers.
        let pool = Pool::new(4);
        let part_len = 100;
        let weights: Vec<u64> = (0..8).map(|p| if p == 3 { 100 } else { 10 }).collect();
        let mut data = vec![0u8; 8 * part_len];
        let mut ran_on = vec![None; 8];
        pool.for_each_part_mut(
            &mut data,
            part_len,
            &weights,
            &mut ran_on,
            |_, _, _, slot| {
                *slot = Some(std::thread::current().id());
            },
        );
        let caller = std::thread::current().id();
        let ran_on: Vec<_> = ran_on.into_iter().map(Option::unwrap).collect();
        for (p, &id) in ran_on.iter().enumerate() {
            assert_eq!(id == caller, p == 3, "partition {p}");
        }
        let threads: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert_eq!(threads.len(), 4, "hub worker plus three spawned workers");
    }

    #[test]
    fn deal_matches_the_plain_reference() {
        let profiles: [&[u64]; 5] = [
            &[],
            &[7],
            &[5, 5, 5, 5, 5, 5, 5],
            &[100, 10, 10, 10, 10, 10, 10, 10],
            &[3, 9, 1, 9, 4, 0, 12, 7, 7, 2, 9, 11, 5],
        ];
        let mut sched = SchedScratch::new();
        for weights in profiles {
            for threads in [1, 2, 3, 4, 8] {
                sched.weights.clear();
                sched.weights.extend_from_slice(weights);
                let split = sched.deal(threads);
                let (owner, expected) = reference_deal(weights, threads);
                assert_eq!(sched.owner, owner, "{weights:?} at {threads} threads");
                assert_eq!(split, expected, "{weights:?} at {threads} threads");
            }
        }
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
        assert!(!Pool::new(1).spawns());
        assert!(!Pool::inline(4).spawns());
        assert!(Pool::inline(4).is_parallel());
    }

    #[test]
    fn metrics_mirror_the_meter() {
        let host = gluon_metrics::MetricsHub::new(1).host(0);
        let pool = Pool::new(2).with_metrics(ExecMetrics::register(&host));
        let len = 2 * MIN_CHUNK;
        // The drainable meter is unaffected by the mirror.
        let w = metered(&pool, len, |r| if r.start == 0 { 10 } else { 30 });
        assert_eq!(w, WorkSplit { seq: 40, crit: 30 });
        let det = host.deterministic();
        assert_eq!(det.counter_value("pool_parallel_ops"), 1);
        assert_eq!(det.counter_value("pool_seq_work"), 40);
        assert_eq!(host.observed().counter_value("pool_crit_work"), 30);
    }

    #[test]
    fn empty_range_is_fine() {
        let pool = Pool::new(4);
        assert!(pool.map_chunks(0, |_| ()).is_empty());
        assert_eq!(pool.reduce(0, 7u32, |_| 1, |a, b| a + b), 7);
    }

    #[test]
    fn map_chunks_and_chunk_scratch_record_the_same_split() {
        let len = 9 * MIN_CHUNK + 17;
        let weights: Vec<u64> = Pool::chunk_ranges(len).map(|r| r.len() as u64).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let _ = pool.map_chunks(len, |_| ());
            let mapped = pool.drain_work();
            assert_eq!(mapped, metered(&pool, len, |r| r.len() as u64));
            assert_eq!(
                mapped,
                reference_deal(&weights, threads).1,
                "threads = {threads}"
            );
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
    fn chunk_mut_scratch_writes_disjoint_slices() {
        for len in [7 * MIN_CHUNK + 5, 2 * CHUNK + 100] {
            let weight = |r: Range<usize>| r.len() as u64;
            let expected: Vec<u32> = (0..len as u32).map(|i| i * 3).collect();
            let weights: Vec<u64> = Pool::chunk_ranges(len).map(weight).collect();
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
                assert_eq!(data, expected);
                let widths: Vec<usize> = Pool::chunk_ranges(len).map(|r| r.len()).collect();
                assert_eq!(scratch, widths);
                assert_eq!(
                    pool.drain_work(),
                    reference_deal(&weights, pool.threads()).1
                );
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
        for pool in [Pool::sequential(), Pool::inline(2), Pool::new(2)] {
            let mut sched = SchedScratch::new();
            for len in [3 * MIN_CHUNK, 11 * MIN_CHUNK + 9, MIN_CHUNK / 2, 0] {
                // Each chunk writes its range into its own row and counts
                // its visits there.
                let mut rows = vec![(0..0, 0u32); Pool::num_chunks(len)];
                pool.for_each_chunk_scratch(
                    len,
                    &mut sched,
                    &mut rows,
                    1,
                    |r| r.len() as u64,
                    |range, row| {
                        row[0].0 = range;
                        row[0].1 += 1;
                    },
                );
                let width = chunk_width(len);
                let expected: Vec<_> = (0..Pool::num_chunks(len))
                    .map(|i| (i * width..((i + 1) * width).min(len), 1))
                    .collect();
                assert_eq!(rows, expected, "len {len} at {} threads", pool.threads());
                assert_eq!(pool.drain_work().seq, len as u64);
            }
        }
    }

    /// Holds a job until another job has raised `failed` (or ten seconds
    /// pass, so a pool that never runs the failing job cannot hang the
    /// test).
    fn wait_for(failed: &AtomicBool) {
        let start = Instant::now();
        while !failed.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_panicking_job_surfaces_after_every_other_worker_finishes() {
        let len = 8 * MIN_CHUNK;
        let weight = |r: Range<usize>| r.len() as u64;
        for threads in [2, 4] {
            let pool = Pool::new(threads);
            let mut sched = SchedScratch::new();
            let mut rows = vec![(); Pool::num_chunks(len)];
            pool.for_each_chunk_scratch(len, &mut sched, &mut rows, 1, weight, |_, _| {});
            let owner = sched.owner.clone();
            // Worker 0's list runs on the calling thread, worker 1's on a
            // spawned one. The victim is the first job of its list, and
            // every other job starts only after the victim has failed.
            for victim_worker in [0, 1] {
                let victim = owner.iter().position(|&w| w == victim_worker).unwrap();
                let failed = AtomicBool::new(false);
                let done = AtomicUsize::new(0);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.for_each_chunk_scratch(len, &mut sched, &mut rows, 1, weight, |r, _| {
                        if r.start == victim * MIN_CHUNK {
                            failed.store(true, Ordering::SeqCst);
                            panic!("chunk {victim} fails");
                        }
                        wait_for(&failed);
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }));
                assert!(outcome.is_err(), "{threads} threads: the panic surfaces");
                // The victim's list stops at the victim; every other list
                // ran to its end before the pool call returned.
                let others = owner.iter().filter(|&&w| w != victim_worker).count();
                assert_eq!(
                    done.load(Ordering::SeqCst),
                    others,
                    "{threads} threads, victim on worker {victim_worker}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_eager_worker_or_sink_surfaces_after_the_workers_finish() {
        let n = 8;
        for threads in [2, 4] {
            for sink_fails in [false, true] {
                // Slot 0 either fails on its worker or completes at once and
                // makes the sink fail; every other slot starts only after
                // the failure.
                let failed = AtomicBool::new(false);
                let fail = |what: &str| {
                    failed.store(true, Ordering::SeqCst);
                    panic!("{what} fails");
                };
                let mut scratch = vec![0usize; n];
                let done = AtomicUsize::new(0);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    Pool::new(threads).for_each_scratch_eager(
                        &mut scratch,
                        |i, _| {
                            match (i, sink_fails) {
                                (0, false) => fail("slot 0"),
                                (0, true) => {}
                                _ => wait_for(&failed),
                            }
                            done.fetch_add(1, Ordering::SeqCst);
                        },
                        |_, _| {
                            if sink_fails {
                                fail("the sink");
                            }
                        },
                    );
                }));
                assert!(
                    outcome.is_err(),
                    "{threads} threads, sink fails: {sink_fails}"
                );
                // A failing worker abandons the rest of its block (slots
                // 0..n/threads); a failing sink stops no worker.
                let expected = if sink_fails { n } else { n - n / threads };
                assert_eq!(
                    done.load(Ordering::SeqCst),
                    expected,
                    "{threads} threads, sink fails: {sink_fails}"
                );
            }
        }
    }
}
