//! Per-(field, peer) reusable buffer pools for allocation-free
//! steady-state sync.
//!
//! The paper's temporal invariance (§4.1) says the partitioning — and
//! therefore every proxy list — never changes after setup. The memory-side
//! consequence is that the *shapes* of all sync buffers are stable too:
//! the dirty-position scan, the encode scratch, the wire payload, the
//! decode scratch — all of them reach a high-water size within a couple of
//! rounds and never need to grow again. [`SyncArena`] exploits that by
//! keeping every per-peer buffer alive between `sync` calls, keyed by
//! `(field name, value type)`:
//!
//! * `updated_pos` — the positions of dirty proxies in the agreed list;
//! * [`EncodeScratch`] / [`DecodeScratch`] — codec workspaces;
//! * `gid_pairs` — the non-memoized global-ID translation table;
//! * `send_slots` — the *wire payloads themselves*: a small ring of
//!   recyclable [`Bytes`] per (peer, pattern). A payload handed to the
//!   transport is consumed by the peer within a round or two; once the
//!   consumer drops its handle, [`Bytes::try_unique_vec`] can reclaim
//!   the allocation in place. Hosts are only loosely coupled — a peer
//!   that receives from us without sending back can lag a round while
//!   still holding our previous payload — so a single slot per pattern
//!   is not enough: the ring grows (up to [`SLOT_RING_CAP`]) to the
//!   observed in-flight depth, after which every round finds *some*
//!   uniquely-held buffer to reuse. When every pooled buffer is still
//!   held by a consumer the slot misses and a fresh buffer is allocated
//!   — recycling is an optimization, never a correctness assumption.
//!
//! Checkout/checkin moves a whole [`FieldArena`] out of the arena for the
//! duration of one sync call (leaving a cheap empty one in its slot), so
//! the hot path borrows no type-erased storage. Both moves are
//! allocation-free; the only allocations happen during the first
//! [`ARENA_WARMUP_ROUNDS`] calls per field, while buffers grow to their
//! high-water marks.
//!
//! Pooling cannot change results: every buffer is cleared and re-filled
//! per call, so a round over recycled buffers produces the payloads,
//! counters, and labels of a round over fresh ones. `tests/alloc_guard.rs`
//! holds the steady state to zero allocations.

use crate::encode::{DecodeScratch, EncodeScratch};
use bytes::Bytes;
use gluon_graph::Gid;
use std::any::{Any, TypeId};

/// Number of sync calls per field after which the steady state is
/// expected: every pooled buffer has reached its high-water size, so
/// subsequent rounds perform zero heap allocations (measured by the
/// `alloc-meter` feature and asserted by the allocation guard).
pub const ARENA_WARMUP_ROUNDS: u64 = 2;

/// Maximum depth of one (peer, pattern) send-slot ring: the number of
/// payload buffers kept alive waiting for consumers to release them.
/// In-flight depth is bounded by how far two hosts can drift apart within
/// the BSP structure (one round in practice, so rings saturate at 2); the
/// cap only exists to bound memory if a consumer goes pathological.
pub(crate) const SLOT_RING_CAP: usize = 8;

/// Reusable per-peer **send-side** scratch of one synchronized field.
///
/// Every buffer is cleared (never shrunk) between uses, so capacities
/// ratchet up to their high-water marks during warm-up and stay there.
///
/// The receive side lives in [`RecvScratch`], deliberately a separate
/// struct in a separate vector: the sync schedule keeps the whole
/// send-side table borrowed by pool workers while the calling thread
/// files arriving frames into the receive side, and the split is what
/// makes those two borrows disjoint.
pub(crate) struct PeerScratch<V> {
    /// Positions (indices into the agreed proxy list) of dirty proxies.
    pub updated_pos: Vec<u32>,
    /// Encoder workspace (position metadata staging).
    pub enc: EncodeScratch,
    /// Global-ID translation table for the non-memoized send path.
    pub gid_pairs: Vec<(Gid, V)>,
    /// Recyclable wire payloads: one small ring per pattern (0 = reduce,
    /// 1 = broadcast — both can be in flight within a single round, so
    /// they must not share buffers). Each ring holds every payload still
    /// awaiting release by its consumer, capped at [`SLOT_RING_CAP`].
    pub send_slots: [Vec<Bytes>; 2],
    /// Per-call staging: the payload built for this peer. Always `None`
    /// between calls.
    pub payload: Option<Bytes>,
    /// Per-call staging: whether the last built payload reused its slot's
    /// allocation (a pool hit) or had to allocate fresh (a miss).
    pub recycled: bool,
    /// Per-call staging: whether the payload shipped to this peer used
    /// the dense wire mode — the deferred reset pass needs to know after
    /// the payload itself has been handed away.
    pub sent_dense: bool,
}

impl<V> Default for PeerScratch<V> {
    fn default() -> Self {
        PeerScratch {
            updated_pos: Vec::new(),
            enc: EncodeScratch::default(),
            gid_pairs: Vec::new(),
            send_slots: [Vec::new(), Vec::new()],
            payload: None,
            recycled: false,
            sent_dense: false,
        }
    }
}

/// Reusable per-peer **receive-side** scratch of one synchronized field
/// (see [`PeerScratch`] for why the two sides are separate structs).
#[derive(Default)]
pub(crate) struct RecvScratch {
    /// Decoder workspace (position/run validation buffers).
    pub dec: DecodeScratch,
    /// Per-call staging: this peer's frame, held as bytes until its rank
    /// comes up. Always `None` between calls.
    pub payload: Option<Bytes>,
    /// Per-call staging: whether this peer's frame has already arrived
    /// this pattern — the duplicate guard for `recv_any`-based draining
    /// on unprotected transports.
    pub arrived: bool,
}

/// All pooled buffers of one synchronized field: one send-side
/// [`PeerScratch`] and one receive-side [`RecvScratch`] per host, plus
/// the field's round counter (which decides when the warm-up grace
/// period ends).
pub(crate) struct FieldArena<V> {
    /// Send-side scratch, indexed by peer rank; grown once to the world
    /// size.
    pub peers: Vec<PeerScratch<V>>,
    /// Receive-side scratch, indexed by peer rank; grown once to the
    /// world size.
    pub recv: Vec<RecvScratch>,
    /// Number of sync calls this field has performed.
    pub rounds: u64,
}

impl<V> Default for FieldArena<V> {
    fn default() -> Self {
        FieldArena {
            peers: Vec::new(),
            recv: Vec::new(),
            rounds: 0,
        }
    }
}

impl<V> FieldArena<V> {
    /// Grows both peer tables to `n` slots (warm-up only; a no-op after).
    pub fn ensure_peers(&mut self, n: usize) {
        if self.peers.len() < n {
            self.peers.resize_with(n, PeerScratch::default);
        }
        if self.recv.len() < n {
            self.recv.resize_with(n, RecvScratch::default);
        }
    }
}

/// Per-field slot storage: the key identifies a field by its trace name
/// and its wire value type (two fields may legitimately share a name, and
/// then they share buffers — harmless, since every buffer is cleared and
/// re-sized per call).
type ArenaKey = (&'static str, TypeId);

/// The per-context pool of per-field buffer arenas (see the module docs).
///
/// Owned by `GluonContext`.
#[derive(Default)]
pub struct SyncArena {
    /// Linear scan keyed by `(name, value type)`: programs sync a handful
    /// of fields, so a map would only add hashing to the hot path.
    slots: Vec<(ArenaKey, Box<dyn Any + Send>)>,
}

impl SyncArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SyncArena::default()
    }

    /// Number of distinct `(field, value type)` pools held.
    pub fn num_fields(&self) -> usize {
        self.slots.len()
    }

    /// Takes the pooled buffers of `name` out of the arena for one sync
    /// call, leaving an empty `FieldArena` in the slot (a move, not an
    /// allocation). First use of a field returns a fresh arena.
    pub(crate) fn checkout<V: Send + 'static>(&mut self, name: &'static str) -> FieldArena<V> {
        let key = (name, TypeId::of::<V>());
        if let Some((_, boxed)) = self.slots.iter_mut().find(|(k, _)| *k == key) {
            if let Some(slot) = boxed.downcast_mut::<FieldArena<V>>() {
                return std::mem::take(slot);
            }
        }
        FieldArena::default()
    }

    /// Returns a field's buffers to the arena after a sync call. Boxes a
    /// new slot on the field's first checkin (warm-up); every later
    /// checkin is a plain move.
    pub(crate) fn checkin<V: Send + 'static>(&mut self, name: &'static str, fa: FieldArena<V>) {
        let key = (name, TypeId::of::<V>());
        if let Some((_, boxed)) = self.slots.iter_mut().find(|(k, _)| *k == key) {
            if let Some(slot) = boxed.downcast_mut::<FieldArena<V>>() {
                *slot = fa;
                return;
            }
        }
        self.slots.push((key, Box::new(fa)));
    }
}

impl std::fmt::Debug for SyncArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncArena")
            .field("fields", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_round_trips_buffers() {
        let mut arena = SyncArena::new();
        let mut fa = arena.checkout::<u32>("dist");
        fa.ensure_peers(4);
        fa.peers[2].updated_pos.reserve(1000);
        let cap = fa.peers[2].updated_pos.capacity();
        assert!(cap >= 1000);
        arena.checkin("dist", fa);
        // Same field: the grown buffers come back.
        let fa = arena.checkout::<u32>("dist");
        assert_eq!(fa.peers.len(), 4);
        assert_eq!(fa.peers[2].updated_pos.capacity(), cap);
        arena.checkin("dist", fa);
        assert_eq!(arena.num_fields(), 1);
    }

    #[test]
    fn fields_are_isolated_by_name_and_type() {
        let mut arena = SyncArena::new();
        let mut fa = arena.checkout::<u32>("dist");
        fa.ensure_peers(2);
        arena.checkin("dist", fa);
        // Different name: fresh buffers.
        assert_eq!(arena.checkout::<u32>("rank").peers.len(), 0);
        // Same name, different value type: also fresh.
        assert_eq!(arena.checkout::<f64>("dist").peers.len(), 0);
        // The original pool is untouched by the probes above.
        assert_eq!(arena.checkout::<u32>("dist").peers.len(), 2);
    }
}
