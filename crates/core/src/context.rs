//! The per-host Gluon runtime: setup, the sync call, and termination
//! detection.

use crate::arena::{FieldArena, PeerScratch, RecvScratch, SyncArena, SLOT_RING_CAP};
use crate::bins::BinPool;
use crate::bitset::DenseBitset;
use crate::checkpoint::{CheckpointSnapshot, CheckpointStore};
use crate::comm_tags::{sync_tag, SYNC_TAG_WINDOW};
use crate::encode::{
    decode_gid_values, encode_gid_values_into, validate_memoized, DecodeError, DecodeScratch,
    EncodeScratch, MemoEncoder, WireMode,
};
use crate::field::FieldSync;
use crate::memo::{FlagFilter, MemoTable};
use crate::opts::OptLevel;
use crate::stats::{PhaseStats, SyncStats};
use crate::value::SyncValue;
use bytes::Bytes;
use gluon_exec::Pool;
use gluon_graph::{Gid, HostId, Lid};
use gluon_metrics::{HostMetrics, SyncMetrics, NUM_ROUND_STAGES};
use gluon_net::{Communicator, Envelope, NetError, Transport};
use gluon_partition::LocalGraph;
use gluon_trace::{Stage, Tracer, SETUP_PHASE};
use std::time::Instant;

/// Phase-record headroom reserved at setup so steady-state rounds never
/// grow the phase log (one entry per sync call; growth past this is still
/// correct, merely no longer allocation-free). Address space the log never
/// reaches is never touched, so the reserve is sized for a long run — two
/// seconds of 10 µs rounds — not a short one: every doubling past it
/// strands the outgrown buffer in the allocator's heap, which on a
/// 140 000-round benchmark session was 2 MiB of the process's peak.
const PHASE_RESERVE: usize = 1 << 18;

/// Why a [`GluonContext::try_sync`] call failed.
///
/// Network failure (a peer whose endpoint closed) and
/// decode failure (a received payload that does not parse — a corrupted
/// frame on an unprotected transport, or a peer speaking a different wire
/// format) both leave the field partially reconciled: the error is
/// terminal for the run, not retryable, but it *is* survivable — the host
/// thread gets the error instead of aborting, and every decode failure is
/// counted once, in the metrics hub's `decode_errors`, and timestamped as
/// a `decode_error` trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncError {
    /// A peer became unreachable mid-sync.
    Net(NetError),
    /// A received payload failed to decode.
    Decode {
        /// The peer whose payload was malformed.
        peer: usize,
        /// What was wrong with the bytes.
        error: DecodeError,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Net(e) => write!(f, "{e}"),
            SyncError::Decode { peer, error } => {
                write!(f, "undecodable sync payload from host {peer}: {error}")
            }
        }
    }
}

impl std::error::Error for SyncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SyncError::Net(e) => Some(e),
            SyncError::Decode { error, .. } => Some(error),
        }
    }
}

impl From<NetError> for SyncError {
    fn from(e: NetError) -> Self {
        SyncError::Net(e)
    }
}

/// Where the operator *writes* the synchronized field, relative to edge
/// direction (the paper's `WriteAtSource` / `WriteAtDestination` tags).
///
/// Gluon derives the reduce pattern from this: only mirror proxies that can
/// have been written need their partial values shipped to the master.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WriteLocation {
    /// Written at edge sources (reverse/backward operators).
    Source,
    /// Written at edge destinations (push operators writing out-neighbors,
    /// pull operators writing the active node).
    Destination,
    /// No exploitable structure: any proxy may have been written.
    Any,
}

/// Where the operator *reads* the synchronized field in the next round
/// (the paper's `ReadAtSource` / `ReadAtDestination` tags).
///
/// Gluon derives the broadcast pattern from this: only mirror proxies that
/// will be read need the master's canonical value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReadLocation {
    /// Read at edge sources (push operators reading the active node, pull
    /// operators reading in-neighbors).
    Source,
    /// Read at edge destinations.
    Destination,
    /// No exploitable structure: any proxy may be read.
    Any,
}

impl WriteLocation {
    /// Mirror subset that may have been written and therefore must reduce.
    fn filter(self, structural: bool) -> FlagFilter {
        if !structural {
            return FlagFilter::All;
        }
        match self {
            // Written at destinations => only mirrors with local incoming
            // edges can hold partial values.
            WriteLocation::Destination => FlagFilter::MirrorHasIn,
            WriteLocation::Source => FlagFilter::MirrorHasOut,
            WriteLocation::Any => FlagFilter::All,
        }
    }
}

impl ReadLocation {
    /// Mirror subset that will be read and therefore must hear a broadcast.
    fn filter(self, structural: bool) -> FlagFilter {
        if !structural {
            return FlagFilter::All;
        }
        match self {
            // Read at sources => only mirrors with local outgoing edges
            // will be consulted.
            ReadLocation::Source => FlagFilter::MirrorHasOut,
            ReadLocation::Destination => FlagFilter::MirrorHasIn,
            ReadLocation::Any => FlagFilter::All,
        }
    }
}

fn filter_index(f: FlagFilter) -> usize {
    match f {
        FlagFilter::All => 0,
        FlagFilter::MirrorHasIn => 1,
        FlagFilter::MirrorHasOut => 2,
    }
}

/// A synchronization specification: *where* the operator wrote the field,
/// *where* the next round reads it, and optional field metadata — the
/// bundle every [`GluonContext::sync`] call needs.
///
/// A spec with both locations set runs reduce then broadcast; a
/// reduce-only or broadcast-only spec runs a single pattern. Construct
/// specs once (they are `const`) and reuse them across rounds:
///
/// ```
/// use gluon::{ReadLocation, SyncSpec, WriteLocation};
///
/// // The push min-relaxation pattern of bfs/sssp/cc.
/// const PUSH: SyncSpec =
///     SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("dist");
/// assert_eq!(PUSH.write, Some(WriteLocation::Destination));
///
/// // Partial sums consumed at the master: reduce only.
/// const PARTIALS: SyncSpec = SyncSpec::reduce(WriteLocation::Destination);
/// assert_eq!(PARTIALS.read, None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SyncSpec {
    /// Where the operator writes the field (None: skip the reduce
    /// pattern).
    pub write: Option<WriteLocation>,
    /// Where the field is read next round (None: skip the broadcast
    /// pattern).
    pub read: Option<ReadLocation>,
    /// Field name used in trace output (wire-mode histograms); defaults to
    /// the [`FieldSync`] implementor's type name.
    pub name: Option<&'static str>,
}

impl SyncSpec {
    /// Reduce then broadcast — the full sync of the paper's Figure 4.
    pub const fn full(write: WriteLocation, read: ReadLocation) -> SyncSpec {
        SyncSpec {
            write: Some(write),
            read: Some(read),
            name: None,
        }
    }

    /// Reduce only (mirrors → masters): for fields consumed at the master
    /// and never read back at mirrors.
    pub const fn reduce(write: WriteLocation) -> SyncSpec {
        SyncSpec {
            write: Some(write),
            read: None,
            name: None,
        }
    }

    /// Broadcast only (masters → mirrors): for fields written only at
    /// masters and read at mirrors next round.
    pub const fn broadcast(read: ReadLocation) -> SyncSpec {
        SyncSpec {
            write: None,
            read: Some(read),
            name: None,
        }
    }

    /// Attaches a field name for trace output.
    pub const fn named(mut self, name: &'static str) -> SyncSpec {
        self.name = Some(name);
        self
    }
}

/// The per-host Gluon runtime handle.
///
/// Create one per host after partitioning (the constructor runs the
/// memoization handshake of §4.1), then alternate between local compute —
/// using any shared-memory engine — and [`GluonContext::sync`] calls.
///
/// # Examples
///
/// See the crate-level docs for a complete distributed BFS.
pub struct GluonContext<'a, T: Transport + ?Sized> {
    graph: &'a LocalGraph,
    comm: &'a Communicator<'a, T>,
    opts: OptLevel,
    memo: MemoTable,
    /// `[filter][remote] -> agreed mirror-side list`, precomputed.
    mirror_lists: [Vec<Vec<Lid>>; 3],
    /// `[filter][remote] -> agreed master-side list`, precomputed.
    master_lists: [Vec<Vec<Lid>>; 3],
    stats: SyncStats,
    tracer: Tracer,
    seq: u32,
    mark: Instant,
    pending_work: u64,
    pending_crit_work: u64,
    pool: Pool,
    arena: SyncArena,
    bins: BinPool,
    ckpt: Option<CheckpointCfg>,
    metrics: SyncMetrics,
}

/// Checkpoint/recovery configuration attached to a context (absent in the
/// default, allocation-free steady state).
struct CheckpointCfg {
    store: CheckpointStore,
    /// Snapshot every `every` algorithm rounds.
    every: u64,
    /// Epoch (= round) to restore from before computing, when recovering.
    restore_epoch: Option<u64>,
    /// Restore and produce output without running further rounds (the
    /// `ContinueStale` degradation policy).
    finalize_only: bool,
}

/// Splits one sync call into contiguous timed segments, each emitted as a
/// child span. Exactly one segment is open at any moment between `begin`
/// and `finish`, so the segment durations partition the whole interval —
/// which is what lets the runtime *define* a traced phase's `comm_secs` as
/// their sum and keep the "children sum to the parent" invariant exact
/// (up to float accumulation).
///
/// The segment clock is shared by two consumers: the tracer (per-segment
/// child spans) and the metrics layer (per-stage duration totals). It runs
/// when *either* is enabled; with both disabled every method is a no-op
/// behind one `Option` check.
struct Segmenter {
    inner: Option<SegState>,
}

struct SegState {
    tracer: Tracer,
    host: usize,
    phase: u32,
    start_ns: u64,
    last_wall: Instant,
    last_ns: u64,
    cur: (Stage, Option<usize>),
    stage_totals: [u64; NUM_ROUND_STAGES],
}

/// What a finished segment clock measured: the covered interval and its
/// decomposition into the eight per-round micro-stages.
struct SegTotals {
    total_ns: u64,
    stage_ns: [u64; NUM_ROUND_STAGES],
}

/// The metrics index of a trace stage: the first [`NUM_ROUND_STAGES`]
/// `Stage` discriminants coincide with `gluon_metrics::STAGE_COUNTER_NAMES`
/// (asserted in this module's tests); later stages (collective, parents)
/// are not per-round micro-stages.
fn round_stage_index(stage: Stage) -> Option<usize> {
    let i = stage as usize;
    (i < NUM_ROUND_STAGES).then_some(i)
}

impl Segmenter {
    /// Starts segmenting with an initial open stage (so even a phase that
    /// never switches stages gets one covering child span).
    fn begin(
        tracer: &Tracer,
        metrics: &SyncMetrics,
        host: usize,
        phase: u32,
        first: Stage,
    ) -> Segmenter {
        Segmenter {
            inner: (tracer.is_enabled() || metrics.is_enabled()).then(|| {
                // now_ns() is 0 for a disabled tracer; segment durations
                // come from Instant arithmetic either way, so the metrics
                // totals are exact even without a trace epoch.
                let start_ns = tracer.now_ns();
                SegState {
                    tracer: tracer.clone(),
                    host,
                    phase,
                    start_ns,
                    last_wall: Instant::now(),
                    last_ns: start_ns,
                    cur: (first, None),
                    stage_totals: [0; NUM_ROUND_STAGES],
                }
            }),
        }
    }

    /// Closes the open segment and opens the next one.
    #[inline]
    fn stage(&mut self, stage: Stage, peer: Option<usize>) {
        let Some(st) = &mut self.inner else { return };
        st.cut();
        st.cur = (stage, peer);
    }

    /// Closes the final segment and emits the parent span; returns the
    /// totals covered (None when both consumers are disabled).
    fn finish(self) -> Option<SegTotals> {
        let mut st = self.inner?;
        st.cut();
        let total = st.last_ns - st.start_ns;
        st.tracer
            .record_span(st.host, st.phase, Stage::Sync, None, st.start_ns, total);
        Some(SegTotals {
            total_ns: total,
            stage_ns: st.stage_totals,
        })
    }
}

impl SegState {
    fn cut(&mut self) {
        let now = Instant::now();
        let now_ns = self.last_ns + now.duration_since(self.last_wall).as_nanos() as u64;
        let (stage, peer) = self.cur;
        let dur = now_ns - self.last_ns;
        self.tracer
            .record_span(self.host, self.phase, stage, peer, self.last_ns, dur);
        if let Some(i) = round_stage_index(stage) {
            self.stage_totals[i] += dur;
        }
        self.last_wall = now;
        self.last_ns = now_ns;
    }
}

impl<'a, T: Transport + ?Sized> GluonContext<'a, T> {
    /// Sets up the runtime: exchanges memoization metadata with every other
    /// host and precomputes the agreed proxy lists.
    ///
    /// All hosts must call this collectively.
    pub fn new(graph: &'a LocalGraph, comm: &'a Communicator<'a, T>, opts: OptLevel) -> Self {
        let tracer = comm.tracer().clone();
        let memo_start_ns = tracer.now_ns();
        let start = Instant::now();
        let bytes_before = comm.transport().stats().snapshot();
        let memo = MemoTable::exchange(graph, comm);
        let n = comm.world_size();
        let mut mirror_lists: [Vec<Vec<Lid>>; 3] = Default::default();
        let mut master_lists: [Vec<Vec<Lid>>; 3] = Default::default();
        for f in [
            FlagFilter::All,
            FlagFilter::MirrorHasIn,
            FlagFilter::MirrorHasOut,
        ] {
            let fi = filter_index(f);
            mirror_lists[fi] = (0..n).map(|h| memo.mirror_list(h, f)).collect();
            master_lists[fi] = (0..n).map(|h| memo.master_list(h, f)).collect();
        }
        let memo_secs = start.elapsed().as_secs_f64();
        let rank = comm.rank();
        let snap = comm.transport().stats().snapshot();
        let memo_bytes: u64 = (0..n)
            .map(|dst| snap.bytes_between(rank, dst) - bytes_before.bytes_between(rank, dst))
            .sum();
        // Everyone finishes setup before any compute begins, like the real
        // system's graph-construction barrier.
        comm.barrier();
        tracer.record_span(
            rank,
            SETUP_PHASE,
            Stage::Memo,
            None,
            memo_start_ns,
            (memo_secs * 1e9) as u64,
        );
        GluonContext {
            graph,
            comm,
            opts,
            memo,
            mirror_lists,
            master_lists,
            stats: SyncStats {
                memo_secs,
                memo_bytes,
                phases: Vec::with_capacity(PHASE_RESERVE),
                ..Default::default()
            },
            tracer,
            seq: 0,
            mark: Instant::now(),
            pending_work: 0,
            pending_crit_work: 0,
            pool: Pool::sequential(),
            arena: SyncArena::new(),
            bins: BinPool::new(),
            ckpt: None,
            metrics: SyncMetrics::disabled(),
        }
    }

    /// Attaches this host's metrics bundle (builder style): the context
    /// then publishes wire-mode traffic, pool hit/miss, decode errors and
    /// per-stage times, and folds every sync round into the host's
    /// `round_ledger` ([`SyncMetrics::round_end`]). Registration happens
    /// here, once — every steady-state publication afterwards is a plain
    /// atomic op.
    ///
    /// Metrics count the sync paths' *payload* bytes; `NetStats` (and
    /// [`crate::PhaseStats::bytes_sent`]) count everything the transport
    /// was handed in the phase.
    #[must_use]
    pub fn with_metrics(mut self, host: HostMetrics) -> Self {
        self.metrics = SyncMetrics::register(&host);
        self
    }

    /// The metrics bundle this context publishes into (disabled unless
    /// [`GluonContext::with_metrics`] was called).
    pub fn metrics(&self) -> &SyncMetrics {
        &self.metrics
    }

    /// Enables epoch checkpointing: every `every` algorithm rounds the
    /// engine snapshots its owned state into `store` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_checkpoints(mut self, store: CheckpointStore, every: u64) -> Self {
        assert!(every >= 1, "checkpoint interval must be at least 1 round");
        self.ckpt = Some(CheckpointCfg {
            store,
            every,
            restore_epoch: None,
            finalize_only: false,
        });
        self
    }

    /// Selects the checkpoint epoch to restore from before computing
    /// (no-op without [`GluonContext::with_checkpoints`]; `None` starts
    /// from scratch).
    #[must_use]
    pub fn with_restore_epoch(mut self, epoch: Option<u64>) -> Self {
        if let Some(c) = &mut self.ckpt {
            c.restore_epoch = epoch;
        }
        self
    }

    /// Puts the context in finalize-only mode: engines restore the chosen
    /// epoch and produce output without running further rounds (the
    /// `ContinueStale` degradation policy).
    #[must_use]
    pub fn with_finalize_only(mut self, finalize_only: bool) -> Self {
        if let Some(c) = &mut self.ckpt {
            c.finalize_only = finalize_only;
        }
        self
    }

    /// Whether engines should skip computation and only finalize restored
    /// state.
    pub fn finalize_only(&self) -> bool {
        self.ckpt.as_ref().is_some_and(|c| c.finalize_only)
    }

    /// Whether the engine should snapshot after completing `round`
    /// (1-based). Always false when checkpointing is off, keeping the
    /// steady state allocation-free.
    pub fn checkpoint_due(&self, round: u64) -> bool {
        self.ckpt
            .as_ref()
            .is_some_and(|c| round >= 1 && round.is_multiple_of(c.every))
    }

    /// Loads this host's snapshot at the configured restore epoch, if
    /// recovery selected one.
    pub fn restore_snapshot(&self) -> Option<CheckpointSnapshot> {
        let c = self.ckpt.as_ref()?;
        c.store.load(self.rank(), c.restore_epoch?)
    }

    /// Saves `snap` as this host's state at epoch `snap.round()` and
    /// records a `checkpoint` trace event. No-op when checkpointing is
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if a file-backed store fails to write (an operator-level
    /// storage fault, not a recoverable cluster event).
    pub fn save_checkpoint(&mut self, snap: CheckpointSnapshot) {
        let Some(c) = &self.ckpt else { return };
        let round = snap.round();
        let bytes = snap.payload_bytes();
        c.store
            .save(self.rank(), round, snap)
            .unwrap_or_else(|e| panic!("checkpoint write for round {round} failed: {e}"));
        self.tracer
            .record_event(self.rank(), "checkpoint", self.rank(), bytes);
        self.metrics.on_checkpoint();
    }

    /// Installs an intra-host worker pool (builder style). The pool drives
    /// the sync hot path's extract/encode/decode stages and is what engines
    /// obtain through [`GluonContext::pool`]; the default is sequential.
    #[must_use]
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Replaces the intra-host worker pool.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// The intra-host worker pool (clone it to hand to an engine; clones
    /// share the work meter).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The sync buffer arena (for inspection and tests).
    pub fn arena(&self) -> &SyncArena {
        &self.arena
    }

    /// The engine-side bin scratch pool: recycled workspaces for the
    /// partition-binned scatter-gather path, keyed by operation site.
    pub fn bin_pool(&mut self) -> &mut BinPool {
        &mut self.bins
    }

    /// The local partition this context synchronizes.
    pub fn graph(&self) -> &'a LocalGraph {
        self.graph
    }

    /// This host's rank.
    pub fn rank(&self) -> HostId {
        self.comm.rank()
    }

    /// Number of hosts.
    pub fn world_size(&self) -> usize {
        self.comm.world_size()
    }

    /// The optimization level in force.
    pub fn opts(&self) -> OptLevel {
        self.opts
    }

    /// The memoization table (for inspection and tests).
    pub fn memo(&self) -> &MemoTable {
        &self.memo
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// The tracer this context records spans into (adopted from the
    /// communicator; disabled unless the communicator was built with
    /// [`Communicator::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Consumes the context, returning its statistics.
    pub fn into_stats(self) -> SyncStats {
        self.stats
    }

    /// Restarts the compute clock; call when timed work begins (e.g. after
    /// untimed initialization).
    pub fn reset_timer(&mut self) {
        self.mark = Instant::now();
    }

    /// Reports abstract compute work (edges traversed) done since the last
    /// phase. Engines call this so that compute time can be *modeled* even
    /// though the simulated hosts share physical cores; the amount is
    /// attributed to the next phase's [`crate::PhaseStats::work_units`].
    pub fn add_work(&mut self, units: u64) {
        self.add_work_split(units, units);
    }

    /// Reports pre-measured parallel work: `seq` units of total work whose
    /// critical path under the current pool was `crit` units. Sequential
    /// kernels have `crit == seq`; [`GluonContext::add_work`] is that
    /// shorthand. Work metered by the context's own [`Pool`] is absorbed
    /// automatically at each phase boundary and must not be re-reported.
    pub fn add_work_split(&mut self, seq: u64, crit: u64) {
        self.pending_work += seq;
        self.pending_crit_work += crit;
    }

    /// Drains pending work (explicit reports plus the pool's meter) for
    /// attribution to the phase being recorded.
    fn take_pending_work(&mut self) -> (u64, u64) {
        let w = self.pool.drain_work();
        (
            std::mem::take(&mut self.pending_work) + w.seq,
            std::mem::take(&mut self.pending_crit_work) + w.crit,
        )
    }

    /// The blocking synchronization call (§3.3): reconciles the proxies of
    /// every node whose bit is set in `updated`, running the reduce pattern
    /// and then the broadcast pattern as the write/read locations and the
    /// partitioning policy's structural invariants require.
    ///
    /// `updated` is the field-specific dirty set maintained by the compute
    /// engine ("LocalFrontier" in the paper's Figure 4). On return it holds
    /// the proxies that are *active* for the next round: bits of mirrors
    /// whose values were shipped and reset are cleared; bits of masters
    /// changed by an incoming reduction and of mirrors rewritten by a
    /// broadcast are set.
    ///
    /// # Panics
    ///
    /// Panics if `updated` is not sized to the proxy count, or on network
    /// or decode failure ([`GluonContext::try_sync`] surfaces those as
    /// errors instead).
    pub fn sync<F: FieldSync>(
        &mut self,
        spec: &SyncSpec,
        field: &mut F,
        updated: &mut DenseBitset,
    ) {
        self.try_sync(spec, field, updated)
            .unwrap_or_else(|e| panic!("sync failed: {e}"));
    }

    /// As [`GluonContext::sync`], surfacing network and decode failure as
    /// an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::Net`] if a peer dies mid-sync, and
    /// [`SyncError::Decode`] if a received payload does not parse (a
    /// corrupted frame on the memory wire — the socket frame's checksum
    /// rejects those first). Either error is
    /// terminal for the run: local field state may have been partially
    /// reconciled, so the caller should abandon the computation (or
    /// restart it), not retry the call. Decode failures are additionally
    /// counted in the metrics hub and timestamped as a `decode_error`
    /// trace event.
    pub fn try_sync<F: FieldSync>(
        &mut self,
        spec: &SyncSpec,
        field: &mut F,
        updated: &mut DenseBitset,
    ) -> Result<(), SyncError> {
        assert_eq!(
            updated.capacity(),
            self.graph.num_proxies(),
            "dirty set must cover every proxy"
        );
        let compute_secs = self.mark.elapsed().as_secs_f64();
        let start = Instant::now();
        let before = self.host_sent();

        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        // Report the 1-based sync-phase index to the transport: fault
        // plans key injected crashes on it, and peer-failure errors carry
        // it back so a supervisor knows when the failure happened.
        self.comm.transport().note_round(u64::from(seq) + 1);
        const { assert!(SYNC_TAG_WINDOW > 2, "tag window") };
        let structural = self.opts.structural;
        let field_name = spec.name.unwrap_or_else(std::any::type_name::<F>);

        let phase_idx = self.stats.phases.len() as u32;
        let mut seg = Segmenter::begin(
            &self.tracer,
            &self.metrics,
            self.rank(),
            phase_idx,
            Stage::Extract,
        );

        // Check the field's pooled buffers out for the duration of the two
        // patterns (a move, not an allocation); check them back in before
        // surfacing any error so one failed round cannot leak the pool.
        let mut fa = self.arena.checkout::<F::Value>(field_name);
        fa.ensure_peers(self.world_size());
        #[cfg(feature = "alloc-meter")]
        let metering = (fa.rounds >= crate::arena::ARENA_WARMUP_ROUNDS).then(gluon_meter::snapshot);
        let res = self.run_sync_patterns(spec, seq, structural, field, updated, &mut seg, &mut fa);
        #[cfg(feature = "alloc-meter")]
        if let Some(alloc_before) = metering {
            self.stats.steady_state_allocs += gluon_meter::snapshot().allocs_since(&alloc_before);
        }
        fa.rounds += 1;
        self.arena.checkin(field_name, fa);
        res?;

        // When the segment clock ran (tracing or metrics), the phase's
        // comm time is *defined* as its span, so child spans sum to it
        // exactly; otherwise keep the plain wall-clock measurement.
        let totals = seg.finish();
        let after = self.host_sent();
        let comm_secs = match &totals {
            Some(t) => t.total_ns as f64 / 1e9,
            None => start.elapsed().as_secs_f64(),
        };
        self.stats.phases.push(PhaseStats::default());
        self.book(
            compute_secs,
            comm_secs,
            after.0 - before.0,
            after.1 - before.1,
        );
        if let Some(t) = totals {
            self.metrics.round_end(u64::from(seq), t.stage_ns);
        }
        Ok(())
    }

    /// Adds what the clocks, the wire and the work meters gathered since
    /// the last booking to the newest phase record, and restarts the
    /// compute clock.
    fn book(&mut self, compute_secs: f64, comm_secs: f64, bytes_sent: u64, messages_sent: u64) {
        let (work_units, crit_work_units) = self.take_pending_work();
        let p = self.stats.phases.last_mut().expect("a record was opened");
        p.compute_secs += compute_secs;
        p.comm_secs += comm_secs;
        p.bytes_sent += bytes_sent;
        p.messages_sent += messages_sent;
        p.work_units += work_units;
        p.crit_work_units += crit_work_units;
        self.mark = Instant::now();
    }

    /// Runs one collective, timed as communication of the sync phase it
    /// follows: a BSP round is a sync and the vote that ends it, and keeps
    /// one phase record. (Only a collective issued before any sync opens a
    /// record of its own.) The wait shows in the trace as a
    /// [`Stage::Collective`] child span of that phase.
    fn collective<R>(
        &mut self,
        op: impl FnOnce(&Communicator<'a, T>) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let compute_secs = self.mark.elapsed().as_secs_f64();
        let start = Instant::now();
        let start_ns = self.tracer.now_ns();
        let out = op(self.comm)?;
        self.metrics.on_collective();
        let dur_ns = start.elapsed().as_nanos() as u64;
        if self.stats.phases.is_empty() {
            self.stats.phases.push(PhaseStats::default());
        }
        let phase = self.stats.phases.len() as u32 - 1;
        self.tracer.record_span(
            self.rank(),
            phase,
            Stage::Collective,
            None,
            start_ns,
            dur_ns,
        );
        self.book(compute_secs, dur_ns as f64 / 1e9, 0, 0);
        Ok(out)
    }

    /// Distributed termination detection: true iff `local_active` is true on
    /// any host. Timed as communication.
    pub fn any_globally(&mut self, local_active: bool) -> bool {
        self.try_any_globally(local_active)
            .unwrap_or_else(|e| panic!("termination detection failed: {e}"))
    }

    /// As [`GluonContext::any_globally`], surfacing network failure as an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer becomes unreachable.
    pub fn try_any_globally(&mut self, local_active: bool) -> Result<bool, NetError> {
        self.collective(|comm| comm.try_any(local_active))
    }

    /// Global sum over hosts (e.g. pagerank residual norms). Timed as
    /// communication.
    pub fn sum_globally(&mut self, local: f64) -> f64 {
        self.try_sum_globally(local)
            .unwrap_or_else(|e| panic!("global sum failed: {e}"))
    }

    /// As [`GluonContext::sum_globally`], surfacing network failure as an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer becomes unreachable.
    pub fn try_sum_globally(&mut self, local: f64) -> Result<f64, NetError> {
        self.collective(|comm| comm.try_all_reduce_f64(local, |a, b| a + b))
    }

    /// Books one undecodable payload from `peer` (metrics hub, trace event
    /// stream) and builds the terminal [`SyncError::Decode`].
    fn decode_failed(&self, peer: usize, payload_len: usize, error: DecodeError) -> SyncError {
        self.metrics.on_decode_error();
        self.tracer
            .record_event(self.rank(), "decode_error", peer, payload_len as u64);
        SyncError::Decode { peer, error }
    }

    /// The reduce-then-broadcast body of one sync call, operating on the
    /// field's checked-out arena ([`GluonContext::try_sync`] owns the
    /// checkout/checkin bracket around this).
    #[allow(clippy::too_many_arguments)]
    fn run_sync_patterns<F: FieldSync>(
        &mut self,
        spec: &SyncSpec,
        seq: u32,
        structural: bool,
        field: &mut F,
        updated: &mut DenseBitset,
        seg: &mut Segmenter,
        fa: &mut FieldArena<F::Value>,
    ) -> Result<(), SyncError> {
        if let Some(w) = spec.write {
            let fr = filter_index(w.filter(structural));
            self.sync_pattern(
                seq,
                0,
                PatternRole::MirrorToMaster,
                fr,
                field,
                updated,
                seg,
                fa,
            )?;
        }
        if let Some(r) = spec.read {
            let fb = filter_index(r.filter(structural));
            self.sync_pattern(
                seq,
                1,
                PatternRole::MasterToMirror,
                fb,
                field,
                updated,
                seg,
                fa,
            )?;
        }
        Ok(())
    }

    /// Bytes and messages this host has sent so far, straight off the
    /// transport's atomic counters (allocation-free; called twice per
    /// sync round).
    fn host_sent(&self) -> (u64, u64) {
        self.comm.transport().stats().host_sent(self.rank())
    }

    /// The per-peer accounting tail of the send side — pool hit/miss
    /// counters and the metrics payload publication (wire mode, bytes,
    /// size histogram). Every record here is an order-independent sum or
    /// histogram bump, which is what lets a spawning pool run it in
    /// payload-completion order and still produce the exact counters of
    /// a rank-ordered run. Returns the payload, ready to ship.
    fn account_send_payload<V>(&self, h: usize, ps: &mut PeerScratch<V>) -> Bytes {
        let payload = ps.payload.take().expect("peer payload was prepared");
        if ps.recycled {
            self.metrics.pool_hit();
        } else {
            self.metrics.pool_miss();
            self.tracer
                .record_event(self.rank(), "arena_miss", h, payload.len() as u64);
        }
        self.metrics.on_payload(payload[0], payload.len() as u64);
        payload
    }

    /// One reduce or broadcast pattern: each peer's extract→encode→send
    /// chain issues as soon as its payload is ready, and each arriving
    /// frame is held until every lower rank's frame has been applied, then
    /// decoded straight into the field. Rank-ordered apply — plus
    /// order-independent send accounting and rank-ordered first-error
    /// selection — is what keeps results bit-identical at every thread
    /// count and arrival order (see DESIGN.md, "The sync schedule").
    #[allow(clippy::too_many_arguments)]
    fn sync_pattern<F: FieldSync>(
        &mut self,
        seq: u32,
        pat: u32,
        role: PatternRole,
        filter_idx: usize,
        field: &mut F,
        updated: &mut DenseBitset,
        seg: &mut Segmenter,
        fa: &mut FieldArena<F::Value>,
    ) -> Result<(), SyncError> {
        let rank = self.rank();
        let tag = sync_tag(seq, pat);
        let temporal = self.opts.temporal;
        let compress = self.opts.compress;
        let graph = self.graph;
        let prewarm = fa.rounds < crate::arena::ARENA_WARMUP_ROUNDS;
        let (send_lists, recv_lists) = match role {
            PatternRole::MirrorToMaster => (
                &self.mirror_lists[filter_idx],
                &self.master_lists[filter_idx],
            ),
            PatternRole::MasterToMirror => (
                &self.master_lists[filter_idx],
                &self.mirror_lists[filter_idx],
            ),
        };
        let FieldArena { peers, recv, .. } = fa;
        let mut rx = Receiver::new(rank, role, temporal, graph, recv_lists, recv);
        let transport = self.comm.transport();
        if self.pool.spawns() {
            // Spawning pool: payloads are built on workers, and the
            // calling thread ships each one the moment it completes —
            // completion order, not rank order, which is safe because the
            // payload bytes are fixed per peer and the accounting is
            // order-independent. Between completions the calling thread
            // files frames that have already arrived; they are applied once
            // the workers release the field. The mirror resets are deferred
            // past the region for the same reason; per-peer reduce lists
            // are disjoint, so resetting after every extraction has
            // finished is equivalent to resetting each peer right after
            // its own extraction.
            seg.stage(Stage::Extract, None);
            let field_ref: &F = field;
            let updated_ref: &DenseBitset = updated;
            let mut io_err: Option<NetError> = None;
            self.pool.for_each_scratch_eager(
                peers,
                |h, ps| {
                    if h == rank {
                        return;
                    }
                    let list: &[Lid] = &send_lists[h];
                    if list.is_empty() {
                        return;
                    }
                    prepare_send_peer::<F>(
                        graph,
                        temporal,
                        compress,
                        pat,
                        list,
                        field_ref,
                        updated_ref,
                        ps,
                        prewarm,
                        &mut |_| {},
                    );
                },
                |h, ps| {
                    if h == rank || send_lists[h].is_empty() || io_err.is_some() {
                        return;
                    }
                    let payload = self.account_send_payload(h, ps);
                    ps.sent_dense = temporal && WireMode::of(&payload) == WireMode::Dense;
                    seg.stage(Stage::Send, Some(h));
                    if let Err(e) = transport.try_send(h, tag, payload) {
                        io_err = Some(e);
                    }
                    while rx.pending > 0 && io_err.is_none() {
                        match transport.try_recv_any_now(tag) {
                            Ok(Some(env)) => rx.hold(env),
                            Ok(None) => break,
                            Err(e) => io_err = Some(e),
                        }
                    }
                    seg.stage(Stage::Extract, None);
                },
            );
            if role == PatternRole::MirrorToMaster {
                // Deferred mirror resets, in rank order.
                for (h, list) in send_lists.iter().enumerate() {
                    if h == rank || list.is_empty() {
                        continue;
                    }
                    seg.stage(Stage::Reset, Some(h));
                    let ps = &peers[h];
                    reset_shipped(ps.sent_dense, list, &ps.updated_pos, field, updated);
                }
            }
            if let Some(e) = io_err {
                return Err(SyncError::Net(e));
            }
        } else {
            // Sequential (or inline-parallel) pool: peers are prepared,
            // reset, and shipped in rank order; after each send, file
            // whatever already arrived and apply what is next in rank
            // order before extracting the next peer. Applying touches only
            // the receive lists, which are disjoint from every send list.
            for (h, list) in send_lists.iter().enumerate() {
                if h == rank || list.is_empty() {
                    continue;
                }
                prepare_send_peer::<F>(
                    graph,
                    temporal,
                    compress,
                    pat,
                    list,
                    field,
                    updated,
                    &mut peers[h],
                    prewarm,
                    &mut |st| seg.stage(st, Some(h)),
                );
                let payload = self.account_send_payload(h, &mut peers[h]);
                if role == PatternRole::MirrorToMaster {
                    seg.stage(Stage::Reset, Some(h));
                    let dense = temporal && WireMode::of(&payload) == WireMode::Dense;
                    reset_shipped(dense, list, &peers[h].updated_pos, field, updated);
                }
                seg.stage(Stage::Send, Some(h));
                transport.try_send(h, tag, payload)?;
                while rx.pending > 0 {
                    match transport.try_recv_any_now(tag)? {
                        Some(env) => rx.hold(env),
                        None => break,
                    }
                }
                rx.apply_ready(field, updated, seg);
            }
        }
        // Drain the remaining frames; each one is applied as soon as every
        // lower rank's frame has been.
        rx.apply_ready(field, updated, seg);
        while rx.pending > 0 {
            let env = match transport.try_recv_any_now(tag)? {
                Some(env) => env,
                None => {
                    seg.stage(Stage::RecvWait, None);
                    transport.try_recv_any(tag)?
                }
            };
            rx.hold(env);
            rx.apply_ready(field, updated, seg);
        }
        match rx.failed {
            Some((peer, len, error)) => Err(self.decode_failed(peer, len, error)),
            None => Ok(()),
        }
    }
}

/// Scans the dirty set and builds one peer's wire payload into that
/// peer's arena scratch, recycling any buffer in the pattern's send-slot
/// ring to which this host holds the only remaining handle. Leaves the
/// finished payload in `ps.payload` (with a retained twin in the ring)
/// and records hit/miss in `ps.recycled`.
///
/// Free function (not a method) so a spawning pool can run it from its
/// workers while `self` stays immutably shared; `stage` is the segmenter
/// hook — a no-op closure in workers, where per-peer wall-clock
/// attribution would be meaningless.
#[allow(clippy::too_many_arguments)]
fn prepare_send_peer<F: FieldSync>(
    graph: &LocalGraph,
    temporal: bool,
    compress: bool,
    pat: u32,
    list: &[Lid],
    field: &F,
    updated: &DenseBitset,
    ps: &mut PeerScratch<F::Value>,
    prewarm: bool,
    stage: &mut impl FnMut(Stage),
) {
    let PeerScratch {
        updated_pos,
        enc,
        gid_pairs,
        send_slots,
        payload,
        recycled,
        ..
    } = ps;
    let mut fill = |out: &mut Vec<u8>| {
        fill_payload::<F>(
            graph,
            temporal,
            compress,
            list,
            field,
            updated,
            updated_pos,
            enc,
            gid_pairs,
            out,
            stage,
        );
    };
    let ring = &mut send_slots[pat as usize];
    let reuse = ring
        .iter_mut()
        .position(|b| b.try_unique_vec().is_some())
        .map(|i| ring.swap_remove(i));
    *recycled = reuse.is_some();
    let bytes = match reuse {
        Some(mut bytes) => {
            fill(
                bytes
                    .try_unique_vec()
                    .expect("buffer uniqueness cannot be lost while we hold the sole handle"),
            );
            bytes
        }
        None => {
            // Every pooled buffer is still held by a consumer (a lagging
            // peer, a history log) — or the ring is empty (warm-up).
            // Build into a fresh buffer and let the ring deepen to the
            // observed in-flight depth. Same bytes either way. Sized for the
            // largest body the encoder lays out for this list (a bit-vector
            // and every value), so building it never regrows the buffer
            // and strands the outgrown copies in the heap.
            let v = F::Value::WIRE_BYTES;
            let mut out = Vec::with_capacity(1 + list.len().div_ceil(8) + list.len() * v);
            fill(&mut out);
            if prewarm {
                // Consumers can drift deeper only after warm-up, when an
                // allocation would break the steady-state contract — so
                // the depth is paid now: fill the ring to cap with
                // standby buffers at the payload's capacity.
                while ring.len() < SLOT_RING_CAP - 1 {
                    ring.push(Bytes::from(Vec::with_capacity(out.capacity())));
                }
            } else if ring.len() == SLOT_RING_CAP {
                ring.remove(0);
            }
            Bytes::from(out)
        }
    };
    ring.push(bytes.clone());
    *payload = Some(bytes);
}

/// Builds one peer's update batch into `out` and its dirty positions into
/// `updated_pos`. Under temporal invariance this is one pass over the
/// agreed list and the dirty bits: each dirty entry's value is read once,
/// straight into the memoized payload. Otherwise the positions are
/// translated to the explicit global-ID encoding — the cost §4.1 memoizes
/// away.
#[allow(clippy::too_many_arguments)]
fn fill_payload<F: FieldSync>(
    graph: &LocalGraph,
    temporal: bool,
    compress: bool,
    list: &[Lid],
    field: &F,
    updated: &DenseBitset,
    updated_pos: &mut Vec<u32>,
    enc: &mut EncodeScratch,
    gid_pairs: &mut Vec<(Gid, F::Value)>,
    out: &mut Vec<u8>,
    stage: &mut impl FnMut(Stage),
) {
    stage(Stage::Extract);
    updated_pos.clear();
    if temporal {
        let mut scan = MemoEncoder::new(list.len(), std::mem::take(out));
        for (i, &lid) in list.iter().enumerate() {
            if updated.test(lid) {
                updated_pos.push(i as u32);
                scan.push(i as u32, field.extract(lid));
            }
        }
        stage(Stage::Encode);
        *out = scan.finish(updated_pos, |p| field.extract(list[p]), compress, enc);
    } else {
        updated_pos.extend(
            list.iter()
                .enumerate()
                .filter(|&(_, &lid)| updated.test(lid))
                .map(|(i, _)| i as u32),
        );
        stage(Stage::MemoTranslate);
        gid_pairs.clear();
        gid_pairs.extend(updated_pos.iter().map(|&p| {
            let lid = list[p as usize];
            (graph.gid(lid), field.extract(lid))
        }));
        stage(Stage::Encode);
        encode_gid_values_into(gid_pairs, out);
    }
}

/// Resets the local copies of the values a reduce payload shipped (they
/// now live at the master) and deactivates their dirty bits. Dense mode
/// ships *every* list entry, so reset them all. Per-peer reduce lists are
/// disjoint (each mirror has exactly one master host), which is what lets
/// the spawning-pool path defer these resets past the whole extraction
/// region without changing any later peer's extraction.
fn reset_shipped<F: FieldSync>(
    dense: bool,
    list: &[Lid],
    updated_pos: &[u32],
    field: &mut F,
    updated: &mut DenseBitset,
) {
    if dense {
        for &lid in list {
            field.reset(lid);
            updated.clear(lid);
        }
    } else {
        for &p in updated_pos {
            field.reset(list[p as usize]);
            updated.clear(list[p as usize]);
        }
    }
}

/// The receive side of one pattern: a rank-order cursor over the peers'
/// frames. A frame is held as bytes from its arrival until every lower
/// rank's frame has been applied; then it is validated in full and decoded
/// straight into the field. The first malformed frame in rank order stops
/// the cursor: every lower rank is applied, it and every higher rank are
/// not, whatever the arrival order.
struct Receiver<'r> {
    rank: usize,
    role: PatternRole,
    temporal: bool,
    graph: &'r LocalGraph,
    lists: &'r [Vec<Lid>],
    slots: &'r mut [RecvScratch],
    /// Expected frames that have not arrived yet.
    pending: usize,
    /// The next peer to apply: every lower rank's frame has been applied.
    next: usize,
    /// The malformed frame that stopped the cursor: peer, payload length,
    /// and what was wrong.
    failed: Option<(usize, usize, DecodeError)>,
}

impl<'r> Receiver<'r> {
    /// Resets the per-pattern staging. One frame is expected from every
    /// peer whose agreed list toward us is non-empty (the sender skips
    /// empty lists symmetrically).
    fn new(
        rank: usize,
        role: PatternRole,
        temporal: bool,
        graph: &'r LocalGraph,
        lists: &'r [Vec<Lid>],
        slots: &'r mut [RecvScratch],
    ) -> Self {
        let mut pending = 0;
        for (h, (list, rs)) in lists.iter().zip(slots.iter_mut()).enumerate() {
            rs.payload = None;
            rs.arrived = false;
            if h != rank && !list.is_empty() {
                pending += 1;
            }
        }
        Receiver {
            rank,
            role,
            temporal,
            graph,
            lists,
            slots,
            pending,
            next: 0,
            failed: None,
        }
    }

    /// Holds an arriving frame until its turn. A duplicate (possible
    /// under fault injection on an unprotected transport) or stray frame
    /// is consumed and dropped.
    fn hold(&mut self, env: Envelope) {
        let src = env.src;
        let rs = &mut self.slots[src];
        if src == self.rank || self.lists[src].is_empty() || rs.arrived {
            return;
        }
        rs.arrived = true;
        rs.payload = Some(env.payload);
        self.pending -= 1;
    }

    /// Applies, in rank order, every held frame whose turn has come.
    /// Dropping a frame's bytes once applied is what lets the sender's
    /// slot recycle the buffer next round.
    fn apply_ready<F: FieldSync>(
        &mut self,
        field: &mut F,
        updated: &mut DenseBitset,
        seg: &mut Segmenter,
    ) {
        while self.failed.is_none() && self.next < self.lists.len() {
            let h = self.next;
            if h != self.rank && !self.lists[h].is_empty() {
                let rs = &mut self.slots[h];
                let Some(payload) = rs.payload.take() else {
                    return;
                };
                if let Err(e) = apply_frame(
                    self.role,
                    self.temporal,
                    self.graph,
                    &payload,
                    &self.lists[h],
                    &mut rs.dec,
                    field,
                    updated,
                    seg,
                    h,
                ) {
                    self.failed = Some((h, payload.len(), e));
                }
            }
            self.next += 1;
        }
    }
}

/// Validates one peer's frame in full, then decodes it straight into the
/// field through the agreed list — reduce at masters, set at mirrors —
/// marking every proxy it changed. A rejected frame changes nothing.
#[allow(clippy::too_many_arguments)]
fn apply_frame<F: FieldSync>(
    role: PatternRole,
    temporal: bool,
    graph: &LocalGraph,
    payload: &[u8],
    list: &[Lid],
    dec: &mut DecodeScratch,
    field: &mut F,
    updated: &mut DenseBitset,
    seg: &mut Segmenter,
    peer: usize,
) -> Result<(), DecodeError> {
    let mut put = |lid: Lid, v: F::Value| match role {
        PatternRole::MirrorToMaster => {
            if field.reduce(lid, v) {
                updated.set(lid);
            }
        }
        PatternRole::MasterToMirror => {
            field.set(lid, v);
            updated.set(lid);
        }
    };
    seg.stage(Stage::Decode, Some(peer));
    if temporal {
        let frame = validate_memoized::<F::Value>(payload, list.len(), dec)?;
        seg.stage(Stage::Apply, Some(peer));
        frame.for_each(|p, v| put(list[p], v));
    } else {
        // Every global ID must name a proxy here before the first value
        // lands.
        let mut unknown = None;
        decode_gid_values::<F::Value>(payload, &mut |gid, _| {
            if graph.lid(gid).is_none() {
                unknown.get_or_insert(gid);
            }
        })?;
        if let Some(gid) = unknown {
            return Err(DecodeError::UnknownGid(gid.0));
        }
        seg.stage(Stage::Apply, Some(peer));
        decode_gid_values::<F::Value>(payload, &mut |gid, v| {
            put(graph.lid(gid).expect("validated above"), v);
        })?;
    }
    Ok(())
}

impl<T: Transport + ?Sized> std::fmt::Debug for GluonContext<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GluonContext")
            .field("rank", &self.rank())
            .field("world_size", &self.world_size())
            .field("opts", &self.opts)
            .field("phases", &self.stats.num_phases())
            .finish()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PatternRole {
    MirrorToMaster,
    MasterToMirror,
}

#[cfg(test)]
mod seg_tests {
    use super::*;

    /// The segment clock indexes `gluon_metrics` stage totals directly by
    /// the trace `Stage` discriminant (see [`round_stage_index`]); this
    /// pins the alignment the two crates maintain independently.
    #[test]
    fn round_stage_indices_match_trace_discriminants() {
        for (i, name) in gluon_metrics::STAGE_COUNTER_NAMES.iter().enumerate() {
            let stage = Stage::ALL[i];
            assert_eq!(stage as usize, i);
            assert_eq!(round_stage_index(stage), Some(i));
            assert_eq!(format!("stage_{}_ns", stage.name()), *name, "stage {i}");
        }
        assert_eq!(round_stage_index(Stage::Collective), None);
        assert_eq!(round_stage_index(Stage::Sync), None);
        assert_eq!(round_stage_index(Stage::Memo), None);
    }

    /// The metrics crate names the wire modes by mode byte; the codec
    /// owns the modes, so its table is the source of truth.
    #[test]
    fn wire_mode_tables_agree() {
        assert_eq!(
            crate::encode::WireMode::ALL.map(|m| m.name()),
            gluon_metrics::WIRE_MODE_NAMES
        );
    }
}
