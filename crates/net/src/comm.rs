//! Collective operations built on the point-to-point [`Transport`].
//!
//! The Gluon runtime needs a handful of collectives: barriers between BSP
//! rounds, all-reduce for termination detection, all-gather for memoization
//! metadata exchange, and the all-to-all value exchange of the sync phase
//! itself. They are implemented here from `send`/`recv` so that the byte
//! counters see *all* traffic, including control traffic.
//!
//! # Tag space
//!
//! User code owns tags `0 .. 2^24`; the collectives use the range above
//! [`COLLECTIVE_TAG_BASE`], further salted with a per-communicator epoch so
//! that two interleaved collectives can never steal each other's packets.

use crate::error::NetError;
use crate::transport::Transport;
use bytes::{BufMut, Bytes, BytesMut};
use gluon_trace::Tracer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};

/// Recyclable 8-byte send buffers for the `u64` collectives, one per
/// (epoch parity, step). Two parities suffice: by the time epoch `e + 2`
/// reuses a slot, every peer has completed epoch `e + 1`, which it could
/// only enter after receiving — and dropping — the epoch-`e` payload, so
/// the slot's buffer is unique again and recycles in place.
const U64_SLOTS: usize = 2 * 64;

/// First tag reserved for collective-internal traffic.
pub const COLLECTIVE_TAG_BASE: u32 = 1 << 24;

/// Maximum user tag (exclusive).
pub const MAX_USER_TAG: u32 = COLLECTIVE_TAG_BASE;

/// Debug-checks that `tag` is a legal *user* tag (below [`MAX_USER_TAG`]),
/// i.e. cannot collide with collective traffic. Call this at every
/// boundary that accepts a tag from application code.
pub fn assert_user_tag(tag: u32) {
    debug_assert!(
        tag < MAX_USER_TAG,
        "user tag {tag:#x} intrudes on the reserved tag space (>= {MAX_USER_TAG:#x})"
    );
}

/// Collectives over a [`Transport`].
///
/// Every host of the cluster must construct its communicator over its own
/// endpoint and then call the *same sequence* of collectives — the usual
/// SPMD contract.
///
/// # Examples
///
/// ```
/// use gluon_net::{Communicator, MemoryTransport, Transport};
/// use std::thread;
///
/// let eps = MemoryTransport::cluster(4);
/// thread::scope(|s| {
///     for ep in &eps {
///         s.spawn(move || {
///             let comm = Communicator::new(ep);
///             let sum = comm.all_reduce_u64(ep.rank() as u64 + 1, |a, b| a + b);
///             assert_eq!(sum, 1 + 2 + 3 + 4);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct Communicator<'t, T: Transport + ?Sized> {
    transport: &'t T,
    epoch: AtomicU32,
    tracer: Tracer,
    /// See [`U64_SLOTS`]. Termination detection runs one `u64` all-reduce
    /// per BSP round, so these tiny buffers would otherwise be a steady
    /// per-round allocation source.
    u64_slots: Mutex<Vec<Option<Bytes>>>,
}

impl<'t, T: Transport + ?Sized> Communicator<'t, T> {
    /// Wraps a transport endpoint.
    pub fn new(transport: &'t T) -> Self {
        Communicator::with_tracer(transport, Tracer::disabled())
    }

    /// Wraps a transport endpoint with a [`Tracer`], which runtimes built
    /// on this communicator (e.g. `GluonContext`) adopt for span recording.
    pub fn with_tracer(transport: &'t T, tracer: Tracer) -> Self {
        Communicator {
            transport,
            epoch: AtomicU32::new(0),
            tracer,
            u64_slots: Mutex::new((0..U64_SLOTS).map(|_| None).collect()),
        }
    }

    /// The tracer threaded through this communicator (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This host's rank.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Cluster size.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &'t T {
        self.transport
    }

    fn next_epoch(&self) -> u32 {
        // 128 epochs in flight is far more than BSP lock-step allows.
        self.epoch.fetch_add(1, Ordering::Relaxed) % 128
    }

    fn tag(epoch: u32, step: u32) -> u32 {
        // The collective tag space starts at COLLECTIVE_TAG_BASE:
        // 128 epochs x 64 steps fits with room to spare, but keep the
        // contract checked in debug builds.
        debug_assert!(
            step < 64,
            "collective step {step} overflows the epoch stride"
        );
        debug_assert!(epoch < 128, "collective epoch {epoch} out of range");
        COLLECTIVE_TAG_BASE + epoch * 64 + step
    }

    /// Dissemination barrier: returns only after every host has entered.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_barrier(&self) -> Result<(), NetError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let rank = self.rank();
        let epoch = self.next_epoch();
        let mut step = 0u32;
        let mut distance = 1usize;
        while distance < n {
            let to = (rank + distance) % n;
            let from = (rank + n - distance % n) % n;
            self.transport
                .try_send(to, Self::tag(epoch, step), Bytes::new())?;
            let _ = self.transport.try_recv(from, Self::tag(epoch, step))?;
            distance *= 2;
            step += 1;
        }
        Ok(())
    }

    /// As [`Communicator::try_barrier`], panicking on network failure.
    pub fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier failed: {e}"));
    }

    /// All-reduce over opaque fixed-size byte payloads.
    ///
    /// `combine(acc, other)` must be associative and commutative. Every host
    /// receives the same result.
    ///
    /// Uses recursive doubling on power-of-two cluster sizes (log₂ n
    /// rounds, the classic MPI algorithm) and falls back to a
    /// gather-to-root + broadcast star otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_all_reduce_bytes(
        &self,
        value: Bytes,
        combine: impl Fn(Bytes, Bytes) -> Bytes,
    ) -> Result<Bytes, NetError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(value);
        }
        let rank = self.rank();
        let epoch = self.next_epoch();
        if n.is_power_of_two() {
            // Recursive doubling: at step k exchange with the partner that
            // differs in bit k; both sides hold the combined value after.
            let mut acc = value;
            let mut step = 0u32;
            let mut distance = 1usize;
            while distance < n {
                let partner = rank ^ distance;
                self.transport
                    .try_send(partner, Self::tag(epoch, step), acc.clone())?;
                let other = self.transport.try_recv(partner, Self::tag(epoch, step))?;
                // Combine in rank order so non-commutative float effects
                // are at least deterministic per pair.
                acc = if rank < partner {
                    combine(acc, other)
                } else {
                    combine(other, acc)
                };
                distance <<= 1;
                step += 1;
            }
            return Ok(acc);
        }
        // Gather to rank 0, combine, then broadcast back.
        if rank == 0 {
            let mut acc = value;
            for src in 1..n {
                let other = self.transport.try_recv(src, Self::tag(epoch, 0))?;
                acc = combine(acc, other);
            }
            for dst in 1..n {
                self.transport
                    .try_send(dst, Self::tag(epoch, 1), acc.clone())?;
            }
            Ok(acc)
        } else {
            self.transport.try_send(0, Self::tag(epoch, 0), value)?;
            self.transport.try_recv(0, Self::tag(epoch, 1))
        }
    }

    /// As [`Communicator::try_all_reduce_bytes`], panicking on network
    /// failure.
    pub fn all_reduce_bytes(&self, value: Bytes, combine: impl Fn(Bytes, Bytes) -> Bytes) -> Bytes {
        self.try_all_reduce_bytes(value, combine)
            .unwrap_or_else(|e| panic!("all-reduce failed: {e}"))
    }

    /// Encodes `value` into the recycled send buffer of this
    /// (epoch, step) slot, allocating a fresh one only when a consumer
    /// still holds the previous epoch's buffer.
    fn u64_payload(&self, epoch: u32, step: u32, value: u64) -> Bytes {
        let idx = (epoch as usize % 2) * 64 + step as usize;
        let mut slots = self.u64_slots.lock();
        let mut bytes = slots[idx].take().unwrap_or_default();
        match bytes.try_unique_vec() {
            Some(out) => {
                out.clear();
                out.extend_from_slice(&value.to_le_bytes());
            }
            None => bytes = Bytes::from(value.to_le_bytes().to_vec()),
        }
        slots[idx] = Some(bytes.clone());
        bytes
    }

    /// All-reduce of a `u64` with the given combiner.
    ///
    /// Runs the same recursive-doubling / star topology as
    /// [`Communicator::try_all_reduce_bytes`] (identical combine order),
    /// but sends from the recycled per-step buffers, so steady-state
    /// termination detection allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_all_reduce_u64(
        &self,
        value: u64,
        combine: impl Fn(u64, u64) -> u64,
    ) -> Result<u64, NetError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(value);
        }
        let rank = self.rank();
        let epoch = self.next_epoch();
        let read = |b: Bytes| u64::from_le_bytes(b[..8].try_into().expect("8-byte payload"));
        if n.is_power_of_two() {
            // Recursive doubling, combining in rank order per pair — the
            // byte-level twin in try_all_reduce_bytes documents why.
            let mut acc = value;
            let mut step = 0u32;
            let mut distance = 1usize;
            while distance < n {
                let partner = rank ^ distance;
                self.transport.try_send(
                    partner,
                    Self::tag(epoch, step),
                    self.u64_payload(epoch, step, acc),
                )?;
                let other = read(self.transport.try_recv(partner, Self::tag(epoch, step))?);
                acc = if rank < partner {
                    combine(acc, other)
                } else {
                    combine(other, acc)
                };
                distance <<= 1;
                step += 1;
            }
            return Ok(acc);
        }
        // Gather to rank 0, combine in src order, then broadcast back.
        if rank == 0 {
            let mut acc = value;
            for src in 1..n {
                acc = combine(
                    acc,
                    read(self.transport.try_recv(src, Self::tag(epoch, 0))?),
                );
            }
            let payload = self.u64_payload(epoch, 1, acc);
            for dst in 1..n {
                self.transport
                    .try_send(dst, Self::tag(epoch, 1), payload.clone())?;
            }
            Ok(acc)
        } else {
            self.transport
                .try_send(0, Self::tag(epoch, 0), self.u64_payload(epoch, 0, value))?;
            Ok(read(self.transport.try_recv(0, Self::tag(epoch, 1))?))
        }
    }

    /// As [`Communicator::try_all_reduce_u64`], panicking on network
    /// failure.
    pub fn all_reduce_u64(&self, value: u64, combine: impl Fn(u64, u64) -> u64) -> u64 {
        self.try_all_reduce_u64(value, combine)
            .unwrap_or_else(|e| panic!("all-reduce failed: {e}"))
    }

    /// All-reduce of an `f64` with the given combiner.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_all_reduce_f64(
        &self,
        value: f64,
        combine: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, NetError> {
        Ok(f64::from_bits(
            self.try_all_reduce_u64(value.to_bits(), |a, b| {
                combine(f64::from_bits(a), f64::from_bits(b)).to_bits()
            })?,
        ))
    }

    /// As [`Communicator::try_all_reduce_f64`], panicking on network
    /// failure.
    pub fn all_reduce_f64(&self, value: f64, combine: impl Fn(f64, f64) -> f64) -> f64 {
        self.try_all_reduce_f64(value, combine)
            .unwrap_or_else(|e| panic!("all-reduce failed: {e}"))
    }

    /// Returns true iff `flag` is true on *any* host (distributed OR) —
    /// Gluon's termination-detection primitive.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_any(&self, flag: bool) -> Result<bool, NetError> {
        Ok(self.try_all_reduce_u64(u64::from(flag), |a, b| a | b)? != 0)
    }

    /// As [`Communicator::try_any`], panicking on network failure.
    pub fn any(&self, flag: bool) -> bool {
        self.try_any(flag)
            .unwrap_or_else(|e| panic!("distributed OR failed: {e}"))
    }

    /// Returns true iff `flag` is true on *every* host (distributed AND).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_all(&self, flag: bool) -> Result<bool, NetError> {
        Ok(self.try_all_reduce_u64(u64::from(flag), |a, b| a & b)? != 0)
    }

    /// As [`Communicator::try_all`], panicking on network failure.
    pub fn all(&self, flag: bool) -> bool {
        self.try_all(flag)
            .unwrap_or_else(|e| panic!("distributed AND failed: {e}"))
    }

    /// Every host contributes one payload; everyone receives all payloads in
    /// rank order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_all_gather(&self, value: Bytes) -> Result<Vec<Bytes>, NetError> {
        let n = self.world_size();
        let rank = self.rank();
        let epoch = self.next_epoch();
        for dst in 0..n {
            if dst != rank {
                self.transport
                    .try_send(dst, Self::tag(epoch, 2), value.clone())?;
            }
        }
        let mut out = Vec::with_capacity(n);
        for src in 0..n {
            if src == rank {
                out.push(value.clone());
            } else {
                out.push(self.transport.try_recv(src, Self::tag(epoch, 2))?);
            }
        }
        Ok(out)
    }

    /// As [`Communicator::try_all_gather`], panicking on network failure.
    pub fn all_gather(&self, value: Bytes) -> Vec<Bytes> {
        self.try_all_gather(value)
            .unwrap_or_else(|e| panic!("all-gather failed: {e}"))
    }

    /// Personalized all-to-all: `outgoing[d]` goes to host `d`; the return
    /// value holds one payload from every host, in rank order.
    ///
    /// This is the workhorse of the Gluon sync phase. Empty payloads are
    /// legal and still exchanged (the paper's "send an empty message" mode);
    /// byte counters record them as zero-byte messages.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing.len() != world_size()`.
    pub fn try_all_to_all(&self, outgoing: Vec<Bytes>) -> Result<Vec<Bytes>, NetError> {
        let n = self.world_size();
        assert_eq!(outgoing.len(), n, "need exactly one payload per host");
        let rank = self.rank();
        let epoch = self.next_epoch();
        let mut incoming: Vec<Option<Bytes>> = vec![None; n];
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst == rank {
                incoming[rank] = Some(payload);
            } else {
                self.transport.try_send(dst, Self::tag(epoch, 3), payload)?;
            }
        }
        for (src, slot) in incoming.iter_mut().enumerate() {
            if src != rank {
                *slot = Some(self.transport.try_recv(src, Self::tag(epoch, 3))?);
            }
        }
        Ok(incoming
            .into_iter()
            .map(|m| m.expect("filled for every rank"))
            .collect())
    }

    /// As [`Communicator::try_all_to_all`], panicking on network failure.
    pub fn all_to_all(&self, outgoing: Vec<Bytes>) -> Vec<Bytes> {
        self.try_all_to_all(outgoing)
            .unwrap_or_else(|e| panic!("all-to-all failed: {e}"))
    }

    /// Broadcast from `root` to all hosts (binomial tree, log₂ n rounds).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    pub fn try_broadcast_from(&self, root: usize, value: Option<Bytes>) -> Result<Bytes, NetError> {
        let n = self.world_size();
        let rank = self.rank();
        let epoch = self.next_epoch();
        // Work in a rotated rank space where the root is 0; each holder at
        // "virtual" rank r forwards to r + 2^k once it has the value.
        let vrank = (rank + n - root % n) % n;
        let v = if vrank == 0 {
            value.expect("root must supply the broadcast value")
        } else {
            // Receive from the sender responsible for this virtual rank:
            // the holder whose highest set bit we extend.
            let bit = 1usize << (usize::BITS - 1 - vrank.leading_zeros()) as usize;
            let vsrc = vrank - bit;
            let src = (vsrc + root) % n;
            let step = bit.trailing_zeros();
            self.transport.try_recv(src, Self::tag(epoch, 4 + step))?
        };
        // Forward to virtual ranks vrank + 2^k for each k above our own
        // highest bit, while they are in range.
        let start_bit = if vrank == 0 {
            1usize
        } else {
            1usize << (usize::BITS - vrank.leading_zeros()) as usize
        };
        let mut bit = start_bit;
        while vrank + bit < n {
            let dst = (vrank + bit + root) % n;
            let step = bit.trailing_zeros();
            self.transport
                .try_send(dst, Self::tag(epoch, 4 + step), v.clone())?;
            bit <<= 1;
        }
        Ok(v)
    }

    /// As [`Communicator::try_broadcast_from`], panicking on network
    /// failure.
    pub fn broadcast_from(&self, root: usize, value: Option<Bytes>) -> Bytes {
        self.try_broadcast_from(root, value)
            .unwrap_or_else(|e| panic!("broadcast from host {root} failed: {e}"))
    }

    /// Sums per-host `u64` vectors element-wise across the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a peer dies.
    ///
    /// # Panics
    ///
    /// Panics on hosts whose vector lengths disagree.
    pub fn try_all_reduce_sum_vec(&self, values: &[u64]) -> Result<Vec<u64>, NetError> {
        let mut buf = BytesMut::with_capacity(values.len() * 8);
        for v in values {
            buf.put_u64_le(*v);
        }
        let out = self.try_all_reduce_bytes(buf.freeze(), |a, b| {
            assert_eq!(a.len(), b.len(), "vector lengths disagree across hosts");
            let mut acc = BytesMut::with_capacity(a.len());
            for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
                let va = u64::from_le_bytes(ca.try_into().expect("8-byte chunk"));
                let vb = u64::from_le_bytes(cb.try_into().expect("8-byte chunk"));
                acc.put_u64_le(va + vb);
            }
            acc.freeze()
        })?;
        Ok(out
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// As [`Communicator::try_all_reduce_sum_vec`], panicking on network
    /// failure.
    pub fn all_reduce_sum_vec(&self, values: &[u64]) -> Vec<u64> {
        self.try_all_reduce_sum_vec(values)
            .unwrap_or_else(|e| panic!("vector all-reduce failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemoryTransport;
    use std::thread;

    fn on_cluster<R: Send>(n: usize, f: impl Fn(&MemoryTransport) -> R + Sync) -> Vec<R> {
        let eps = MemoryTransport::cluster(n);
        thread::scope(|s| {
            let handles: Vec<_> = eps.iter().map(|ep| s.spawn(|| f(ep))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
    }

    #[test]
    fn barrier_completes_on_various_sizes() {
        for n in [1, 2, 3, 5, 8] {
            on_cluster(n, |ep| {
                let comm = Communicator::new(ep);
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn all_reduce_sum_and_max() {
        let sums = on_cluster(5, |ep| {
            let comm = Communicator::new(ep);
            comm.all_reduce_u64(ep.rank() as u64, |a, b| a + b)
        });
        assert!(sums.iter().all(|&s| s == 10));
        let maxes = on_cluster(5, |ep| {
            let comm = Communicator::new(ep);
            comm.all_reduce_u64(ep.rank() as u64 * 7, u64::max)
        });
        assert!(maxes.iter().all(|&m| m == 28));
    }

    #[test]
    fn all_reduce_f64_min() {
        let mins = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            comm.all_reduce_f64(1.0 / (ep.rank() as f64 + 1.0), f64::min)
        });
        assert!(mins.iter().all(|&m| (m - 0.25).abs() < 1e-12));
    }

    #[test]
    fn any_and_all() {
        let anys = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            comm.any(ep.rank() == 2)
        });
        assert!(anys.iter().all(|&x| x));
        let alls = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            comm.all(ep.rank() != 2)
        });
        assert!(alls.iter().all(|&x| !x));
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let out = on_cluster(3, |ep| {
            let comm = Communicator::new(ep);
            let mine = Bytes::copy_from_slice(&[ep.rank() as u8]);
            comm.all_gather(mine)
        });
        for gathered in out {
            let ranks: Vec<u8> = gathered.iter().map(|b| b[0]).collect();
            assert_eq!(ranks, vec![0, 1, 2]);
        }
    }

    #[test]
    fn all_to_all_personalizes() {
        let out = on_cluster(3, |ep| {
            let comm = Communicator::new(ep);
            let outgoing = (0..3)
                .map(|dst| Bytes::copy_from_slice(&[ep.rank() as u8, dst as u8]))
                .collect();
            comm.all_to_all(outgoing)
        });
        for (rank, incoming) in out.into_iter().enumerate() {
            for (src, payload) in incoming.into_iter().enumerate() {
                assert_eq!(payload[0] as usize, src);
                assert_eq!(payload[1] as usize, rank);
            }
        }
    }

    #[test]
    fn all_to_all_with_empty_payloads() {
        let out = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            comm.all_to_all(vec![Bytes::new(); 4])
        });
        assert!(out.iter().all(|v| v.iter().all(|b| b.is_empty())));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let out = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            let v = (ep.rank() == 2).then(|| Bytes::from_static(b"root"));
            comm.broadcast_from(2, v)
        });
        assert!(out.iter().all(|b| &b[..] == b"root"));
    }

    #[test]
    fn vector_sum_reduces_elementwise() {
        let out = on_cluster(3, |ep| {
            let comm = Communicator::new(ep);
            comm.all_reduce_sum_vec(&[ep.rank() as u64, 10])
        });
        assert!(out.iter().all(|v| v == &vec![3, 30]));
    }

    #[test]
    fn recursive_doubling_matches_star_reduce() {
        // Power-of-two sizes take the recursive-doubling path; results must
        // be identical on every host and equal to the sequential fold.
        for n in [2usize, 4, 8, 16] {
            let sums = on_cluster(n, |ep| {
                let comm = Communicator::new(ep);
                comm.all_reduce_u64((ep.rank() as u64 + 1) * 3, |a, b| a + b)
            });
            let expect: u64 = (1..=n as u64).map(|r| r * 3).sum();
            assert!(sums.iter().all(|&s| s == expect), "n={n}: {sums:?}");
        }
    }

    #[test]
    fn float_all_reduce_is_bitwise_identical_across_hosts() {
        let out = on_cluster(8, |ep| {
            let comm = Communicator::new(ep);
            comm.all_reduce_f64(0.1 * (ep.rank() as f64 + 1.0), |a, b| a + b)
        });
        assert!(out.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    }

    #[test]
    fn binomial_broadcast_from_every_root() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            for root in 0..n {
                let out = on_cluster(n, |ep| {
                    let comm = Communicator::new(ep);
                    let v =
                        (ep.rank() == root).then(|| Bytes::copy_from_slice(&[root as u8, 0xAB]));
                    comm.broadcast_from(root, v)
                });
                assert!(
                    out.iter().all(|b| b[..] == [root as u8, 0xAB]),
                    "n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn interleaved_collectives_do_not_cross_talk() {
        let out = on_cluster(4, |ep| {
            let comm = Communicator::new(ep);
            let mut results = Vec::new();
            for round in 0..10u64 {
                comm.barrier();
                results.push(comm.all_reduce_u64(round + ep.rank() as u64, |a, b| a + b));
            }
            results
        });
        for host in out {
            for (round, sum) in host.into_iter().enumerate() {
                assert_eq!(sum, 4 * round as u64 + 6);
            }
        }
    }

    #[test]
    fn collectives_do_not_deep_copy_payloads() {
        // Each host contributes one buffer; every host must end up holding
        // a handle to the contributor's *own* allocation — the in-memory
        // transport moves `Bytes` handles, never the bytes behind them.
        let out = on_cluster(3, |ep| {
            let comm = Communicator::new(ep);
            let mine = Bytes::from(vec![ep.rank() as u8; 64]);
            let my_ptr = mine.as_ptr() as usize;
            let gathered = comm.all_gather(mine);
            let ptrs: Vec<usize> = gathered.iter().map(|b| b.as_ptr() as usize).collect();
            (my_ptr, ptrs)
        });
        for (_, ptrs) in &out {
            for (src, &ptr) in ptrs.iter().enumerate() {
                assert_eq!(
                    ptr, out[src].0,
                    "host received a copy instead of host {src}'s buffer"
                );
            }
        }
    }

    #[test]
    fn u64_all_reduce_recycles_cleanly_across_many_epochs() {
        // Drive the epoch counter far past the 128-epoch ring (and the
        // two-parity send-slot ring) on both topologies: recycled buffers
        // must never leak a stale value into a later epoch.
        for n in [3usize, 4] {
            let ok = on_cluster(n, |ep| {
                let comm = Communicator::new(ep);
                let base: u64 = (0..n as u64).sum();
                (0..300u64).all(|round| {
                    comm.all_reduce_u64(round * 10 + ep.rank() as u64, |a, b| a + b)
                        == n as u64 * round * 10 + base
                })
            });
            assert!(ok.iter().all(|&x| x), "stale value on cluster size {n}");
        }
    }
}
