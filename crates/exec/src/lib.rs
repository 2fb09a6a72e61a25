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
//! The primitives:
//!
//! - [`Pool::for_each_chunk_scratch`] hands chunk `i` its own output slot
//!   plus the scratch of the worker the deal gave it, and runs one
//!   worker's chunks in ascending order. The push scatter fills one
//!   segmented bin per worker through it, each chunk noting its span.
//! - [`Pool::for_each_chunk_mut_scratch`] splits a mutable slice into the
//!   chunks, one scratch slot each: the pull sweep over destinations.
//! - [`Pool::map_chunks`] collects one result per chunk on top of the
//!   first, in chunk order, for the caller to fold.
//!
//! Each is a thin wrapper over one deal and one dispatch core.
//! It stages one weight per chunk in a [`SchedScratch`]; the deal maps
//! chunks to workers; the dispatch core runs the per-worker job lists on
//! `std::thread::scope` threads — the crate's only spawn site — while
//! the calling thread runs worker 0's list. Threads are spawned per call:
//! pool lifetime management would buy little here (the chunked loops
//! dominate), and scoped spawning keeps the closures free to borrow the
//! caller's stack. For workloads that must not allocate at all (the
//! engine sweeps the allocation guard meters), [`Pool::inline`] builds a
//! pool that keeps the configured thread count for scheduling and
//! metering — chunk widths, assignments, and the critical-path meter are
//! exactly those of the spawning pool — but executes every job on the
//! calling thread, so no spawn-time allocations (closure boxes, join
//! handles) occur. Results are bit-identical either way; only wall-clock
//! parallelism differs.
//!
//! # Examples
//!
//! ```
//! use gluon_exec::Pool;
//!
//! let data: Vec<u64> = (0..10_000).collect();
//! let pool = Pool::new(4);
//! // Per-chunk partial sums, combined in chunk order.
//! let sum = |pool: &Pool| -> u64 {
//!     let partials = pool.map_chunks(data.len(), |r| data[r].iter().sum::<u64>());
//!     partials.into_iter().sum()
//! };
//! let total = sum(&pool);
//! assert_eq!(total, data.iter().sum::<u64>());
//! // Bit-identical to any other thread count.
//! assert_eq!(total, sum(&Pool::sequential()));
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

/// Reusable scheduling state for the chunked entry points.
///
/// The engine hot loop must stay allocation-free in the steady state (the
/// binned edge_map contract), so the deal's buffers live here rather than
/// in each call: every vector is cleared (never shrunk)
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

    /// Whether this pool runs jobs on more than one OS thread (false for
    /// one-worker and [`Pool::inline`] pools).
    fn spawns(&self) -> bool {
        self.spawn && self.threads > 1
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

    /// Runs every job through `run`, handing it the scratch of the worker
    /// that runs it. A pool that does not spawn, or a call with at most one
    /// job, runs them in order on the calling thread with `workers[0]`;
    /// otherwise job `k` joins the list of worker `owner[k]`, in job order,
    /// and the lists are dispatched, list `w` with `workers[w]` and worker
    /// 0's on the calling thread.
    fn run_dealt<J: Send, W: Send>(
        &self,
        owner: &[u32],
        jobs: impl Iterator<Item = J>,
        workers: &mut [W],
        run: impl Fn(J, &mut W) + Sync,
    ) {
        if !self.spawns() || owner.len() <= 1 {
            let scratch = &mut workers[0];
            jobs.for_each(|job| run(job, scratch));
            return;
        }
        let mut lists: Vec<Vec<J>> = (0..self.threads).map(|_| Vec::new()).collect();
        for (job, &w) in jobs.zip(owner) {
            lists[w as usize].push(job);
        }
        let mut lists = lists.into_iter().zip(workers.iter_mut());
        let mine = lists.next().expect("at least one worker");
        let run_list = |(list, scratch): (Vec<J>, &mut W)| {
            list.into_iter().for_each(|job| run(job, scratch));
        };
        dispatch(lists, &run_list, || run_list(mine));
    }

    /// Chunked parallel scatter with one output slot per chunk and one
    /// scratch per worker: chunk `i` of `0..len` runs `f(range,
    /// &mut outs[i], &mut workers[w])`, where `w` is the worker the deal
    /// gave it, and one worker runs its chunks in ascending chunk order. A
    /// pool that does not spawn runs every chunk, in order, with
    /// `workers[0]`. Slots and worker scratches are disjoint, so there are
    /// no write races; a chunk records in its slot where its output went in
    /// the worker's scratch, and the caller reads the slots back in chunk
    /// order. `weight(range)` is the work-unit cost of a chunk (e.g. the
    /// out-degree sum of its vertices); the pool meters the sequential
    /// total and the critical path of the weight-balanced deal. All
    /// scheduling state is drawn from `sched`, so on a non-spawning pool
    /// the steady state performs **zero** heap allocations. This is the
    /// scatter half of the binned push edge_map: each worker fills one bin
    /// and each chunk notes its span of it.
    ///
    /// # Panics
    ///
    /// Panics if `outs` has fewer entries than chunks or `workers` fewer
    /// than [`Pool::threads`].
    pub fn for_each_chunk_scratch<O: Send, W: Send>(
        &self,
        len: usize,
        sched: &mut SchedScratch,
        outs: &mut [O],
        workers: &mut [W],
        weight: impl Fn(Range<usize>) -> u64 + Sync,
        f: impl Fn(Range<usize>, &mut O, &mut W) + Sync,
    ) {
        assert!(
            outs.len() >= Self::num_chunks(len),
            "one output slot per chunk"
        );
        assert!(workers.len() >= self.threads, "one scratch per worker");
        self.deal_chunks(len, sched, weight);
        let jobs = Self::chunk_ranges(len).zip(outs);
        self.run_dealt(&sched.owner, jobs, workers, |(range, out), scratch| {
            f(range, out, scratch)
        });
    }

    /// Chunked parallel mutation with one exclusive scratch slot per chunk:
    /// splits `data` into fixed chunks and runs `f(start, chunk,
    /// &mut scratch[i])` on each — workers own **disjoint** slices, so no
    /// write races are possible — writing any output into the slot.
    /// `weight` meters each chunk by its range within `data` (e.g.
    /// in-degree sums for a pull kernel writing per-destination slots);
    /// metering and scheduling state are those of
    /// [`Pool::for_each_chunk_scratch`]. This is the pull edge_map's sweep:
    /// destination chunks own disjoint label slices and park their
    /// activation lists in their slots.
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
        let jobs = data.chunks_mut(width).zip(scratch).enumerate();
        let mut workers = vec![(); self.threads];
        self.run_dealt(
            &sched.owner,
            jobs,
            &mut workers,
            |(i, (chunk, slot)), ()| f(i * width, chunk, slot),
        );
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
            &mut vec![(); self.threads],
            |r| r.len() as u64,
            |r, slot, ()| *slot = Some(f(r)),
        );
        slots
            .into_iter()
            .map(|r| r.expect("chunk covered"))
            .collect()
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
        let mut workers = vec![(); pool.threads()];
        pool.for_each_chunk_scratch(
            len,
            &mut SchedScratch::new(),
            &mut rows,
            &mut workers,
            weight,
            |_, _, _| {},
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
            Pool::new(t)
                .map_chunks(data.len(), |r| data[r].iter().fold(0.0f64, |a, b| a + b))
                .into_iter()
                .fold(0.0f64, |a, b| a + b)
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
    fn inline_pool_matches_spawning_pool() {
        let data: Vec<u64> = (0..(3 * CHUNK as u64)).collect();
        let run = |pool: Pool| {
            let total = pool
                .map_chunks(data.len(), |r| data[r].iter().sum::<u64>())
                .into_iter()
                .sum::<u64>();
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
        assert_eq!(Pool::inline(4).threads(), 4);
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
        let folded = pool
            .map_chunks(0, |_| 1u32)
            .into_iter()
            .fold(7, |a, b| a + b);
        assert_eq!(folded, 7);
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
            let mut slots = vec![0usize; Pool::num_chunks(len)];
            let mut workers = vec![(); pool.threads()];
            let mut sched = SchedScratch::new();
            pool.for_each_chunk_scratch(
                len,
                &mut sched,
                &mut slots,
                &mut workers,
                |r| r.len() as u64,
                |range, slot, ()| *slot = range.start * 10 + range.len(),
            );
            let expected: Vec<usize> = Pool::chunk_ranges(len)
                .map(|r| r.start * 10 + r.len())
                .collect();
            assert_eq!(slots, expected);
        }
    }

    /// Chunk weights with a hub and a tail of equal ones, so the deal hands
    /// the workers uneven, interleaved lists.
    fn skewed(r: Range<usize>) -> u64 {
        if r.start == 2 * MIN_CHUNK {
            40
        } else {
            (r.start / MIN_CHUNK % 3 + 1) as u64
        }
    }

    #[test]
    fn chunk_scratch_runs_each_chunk_once_with_its_dealt_workers_scratch() {
        let len = 13 * MIN_CHUNK + 5;
        let chunks = Pool::num_chunks(len);
        for threads in [1, 2, 3, 4, 8] {
            for pool in [Pool::new(threads), Pool::inline(threads)] {
                let mut sched = SchedScratch::new();
                // Each chunk counts its visits in its own slot and notes
                // which worker scratch it was handed; each worker scratch
                // lists the chunks it ran, in the order it ran them.
                let mut outs = vec![(usize::MAX, 0u32); chunks];
                let mut workers: Vec<(usize, Vec<usize>)> =
                    (0..threads).map(|w| (w, Vec::new())).collect();
                pool.for_each_chunk_scratch(
                    len,
                    &mut sched,
                    &mut outs,
                    &mut workers,
                    skewed,
                    |r, out, (w, ran)| {
                        let chunk = r.start / chunk_width(len);
                        *out = (*w, out.1 + 1);
                        ran.push(chunk);
                    },
                );
                let spawns = pool.spawns();
                for (chunk, &(w, visits)) in outs.iter().enumerate() {
                    assert_eq!(visits, 1, "chunk {chunk} at {threads} threads");
                    let dealt = if spawns {
                        sched.owner[chunk] as usize
                    } else {
                        0
                    };
                    assert_eq!(w, dealt, "chunk {chunk}: its dealt worker's scratch");
                }
                for (w, ran) in &workers {
                    assert!(
                        ran.windows(2).all(|p| p[0] < p[1]),
                        "worker {w} at {threads} threads ran {ran:?}"
                    );
                    assert!(ran.iter().all(|&c| outs[c].0 == *w));
                }
                let ran: usize = workers.iter().map(|(_, ran)| ran.len()).sum();
                assert_eq!(ran, chunks);
            }
        }
    }

    #[test]
    fn spawning_and_inline_pools_drain_the_same_sequence() {
        // The bin pattern in miniature: every chunk appends its elements to
        // its worker's list and records the span; reading the spans back in
        // chunk order must give `0..len` whoever ran what.
        let len = 11 * MIN_CHUNK + 40;
        let drain = |pool: &Pool| {
            let mut spans = vec![(0usize, 0usize, 0usize); Pool::num_chunks(len)];
            let mut workers: Vec<(usize, Vec<usize>)> =
                (0..pool.threads()).map(|w| (w, Vec::new())).collect();
            pool.for_each_chunk_scratch(
                len,
                &mut SchedScratch::new(),
                &mut spans,
                &mut workers,
                skewed,
                |r, span, (w, bin)| {
                    let start = bin.len();
                    bin.extend(r);
                    *span = (*w, start, bin.len());
                },
            );
            let drained: Vec<usize> = spans
                .iter()
                .flat_map(|&(w, start, end)| workers[w].1[start..end].iter().copied())
                .collect();
            (drained, pool.drain_work())
        };
        let want: Vec<usize> = (0..len).collect();
        for threads in 1..=8 {
            let (spawned, spawned_work) = drain(&Pool::new(threads));
            let (inline, inline_work) = drain(&Pool::inline(threads));
            assert_eq!(spawned, want, "{threads} spawning threads");
            assert_eq!(inline, want, "{threads} inline threads");
            assert_eq!(spawned_work, inline_work, "{threads} threads: same meter");
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
                    &mut [(), ()],
                    |r| r.len() as u64,
                    |range, row, ()| {
                        row.0 = range;
                        row.1 += 1;
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
            let mut workers = vec![(); threads];
            pool.for_each_chunk_scratch(
                len,
                &mut sched,
                &mut rows,
                &mut workers,
                weight,
                |_, _, _| {},
            );
            let owner = sched.owner.clone();
            // Worker 0's list runs on the calling thread, worker 1's on a
            // spawned one. The victim is the first job of its list, and
            // every other job starts only after the victim has failed.
            for victim_worker in [0, 1] {
                let victim = owner.iter().position(|&w| w == victim_worker).unwrap();
                let failed = AtomicBool::new(false);
                let done = AtomicUsize::new(0);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.for_each_chunk_scratch(
                        len,
                        &mut sched,
                        &mut rows,
                        &mut workers,
                        weight,
                        |r, _, _| {
                            if r.start == victim * MIN_CHUNK {
                                failed.store(true, Ordering::SeqCst);
                                panic!("chunk {victim} fails");
                            }
                            wait_for(&failed);
                            done.fetch_add(1, Ordering::SeqCst);
                        },
                    );
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
}
