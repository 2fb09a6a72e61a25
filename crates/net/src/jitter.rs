//! Schedule injection: a transport wrapper that delays and reorders sends.
//!
//! Real interconnects deliver messages on different (peer, tag) streams in
//! unpredictable relative order; the in-memory transport is *too* polite.
//! [`JitterTransport`] restores the adversity deterministically: each send
//! may be held back and released later, out of order with respect to other
//! streams, while per-`(destination, tag)` FIFO order — the only ordering
//! the stack is entitled to — is preserved. Held messages are flushed
//! before the endpoint blocks in a receive, so the wrapper can never
//! deadlock a BSP program that the plain transport wouldn't.

use crate::stats::NetStats;
use crate::transport::{Envelope, Transport};
use bytes::Bytes;
use parking_lot::Mutex;

/// Deterministic jitter wrapper around any [`Transport`].
///
/// # Examples
///
/// ```
/// use gluon_net::{JitterTransport, MemoryTransport, Transport};
/// use bytes::Bytes;
///
/// let mut eps = MemoryTransport::cluster(2);
/// let b = eps.pop().unwrap();
/// let a = JitterTransport::new(eps.pop().unwrap(), 7);
/// a.try_send(1, 1, Bytes::from_static(b"first")).unwrap();
/// a.try_send(1, 1, Bytes::from_static(b"second")).unwrap();
/// a.flush(); // or any recv on `a` would flush
/// assert_eq!(&b.try_recv(0, 1).unwrap()[..], b"first");
/// assert_eq!(&b.try_recv(0, 1).unwrap()[..], b"second");
/// ```
#[derive(Debug)]
pub struct JitterTransport<T: Transport> {
    inner: T,
    held: Mutex<Vec<(usize, u32, Bytes)>>,
    rng: Mutex<u64>,
    /// Maximum number of messages held back at once.
    max_held: usize,
}

/// Anything still held is released when the wrapper goes away, so a host
/// whose *last* action was a (held) send cannot starve its peers.
impl<T: Transport> Drop for JitterTransport<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<T: Transport> JitterTransport<T> {
    /// Wraps `inner`, seeding the deterministic delay decisions.
    pub fn new(inner: T, seed: u64) -> JitterTransport<T> {
        JitterTransport {
            inner,
            held: Mutex::new(Vec::new()),
            rng: Mutex::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            max_held: 8,
        }
    }

    fn next_rand(&self) -> u64 {
        let mut state = self.rng.lock();
        // xorshift64*: cheap, deterministic, good enough for jitter.
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Releases every held message (in a shuffled cross-stream order that
    /// still respects per-stream FIFO, since at most one message per
    /// `(dst, tag)` stream is ever held). Send errors are swallowed: a
    /// held message for a peer that has since died goes nowhere, as bytes
    /// written to a closed socket do.
    pub fn flush(&self) {
        let mut held = std::mem::take(&mut *self.held.lock());
        while !held.is_empty() {
            let pick = (self.next_rand() % held.len() as u64) as usize;
            let (dst, tag, payload) = held.swap_remove(pick);
            let _ = self.inner.try_send(dst, tag, payload);
        }
    }
}

impl<T: Transport> Transport for JitterTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), crate::error::NetError> {
        let mut held = self.held.lock();
        // FIFO guard: if a message for this stream is already held, release
        // it (and everything queued before the decision point stays
        // randomized across *other* streams only).
        if let Some(pos) = held.iter().position(|&(d, t, _)| d == dst && t == tag) {
            let (d, t, p) = held.remove(pos);
            self.inner.try_send(d, t, p)?;
        }
        let delay = self.next_rand().is_multiple_of(2) && held.len() < self.max_held;
        if delay {
            held.push((dst, tag, payload));
            return Ok(());
        }
        drop(held);
        // Not delaying this one: randomly release one straggler too.
        self.inner.try_send(dst, tag, payload)?;
        let mut held = self.held.lock();
        if !held.is_empty() && self.next_rand().is_multiple_of(2) {
            let pick = (self.next_rand() % held.len() as u64) as usize;
            let (d, t, p) = held.swap_remove(pick);
            drop(held);
            self.inner.try_send(d, t, p)?;
        }
        Ok(())
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, crate::error::NetError> {
        self.flush();
        self.inner.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, crate::error::NetError> {
        self.flush();
        self.inner.try_recv_any(tag)
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, crate::error::NetError> {
        self.flush();
        self.inner.try_recv_any_now(tag)
    }

    fn note_round(&self, round: u64) {
        self.inner.note_round(round);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemoryTransport;
    use std::thread;

    #[test]
    fn all_messages_are_eventually_delivered() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = JitterTransport::new(eps.pop().expect("two endpoints"), 3);
        for i in 0..50u32 {
            a.try_send(1, i % 5, Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        a.flush();
        let mut got = Vec::new();
        for tag in 0..5u32 {
            for _ in 0..10 {
                let m = b.try_recv(0, tag).unwrap();
                got.push(u32::from_le_bytes(m[..4].try_into().unwrap()));
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn per_stream_fifo_is_preserved() {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = JitterTransport::new(eps.pop().expect("two endpoints"), 99);
        for i in 0..100u32 {
            a.try_send(1, 7, Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        a.flush();
        for i in 0..100u32 {
            let m = b.try_recv(0, 7).unwrap();
            assert_eq!(u32::from_le_bytes(m[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn recv_flushes_pending_sends() {
        // A BSP ping-pong across two jittered endpoints must not deadlock:
        // entering recv releases anything held.
        let mut eps = MemoryTransport::cluster(2);
        let b = JitterTransport::new(eps.pop().expect("two endpoints"), 5);
        let a = JitterTransport::new(eps.pop().expect("two endpoints"), 4);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200u32 {
                    a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                    let echo = a.try_recv(1, 1).unwrap();
                    assert_eq!(&echo[..4], &i.to_le_bytes());
                }
            });
            s.spawn(|| {
                for _ in 0..200 {
                    let m = b.try_recv(0, 0).unwrap();
                    b.try_send(0, 1, m).unwrap();
                }
                // The final echo may be held; release it before the peer's
                // last recv is abandoned (a real program's shutdown barrier
                // or the Drop impl does this).
                b.flush();
            });
        });
    }

    #[test]
    fn jitter_is_deterministic_in_seed() {
        // Observe the *hold* decisions through the per-pair byte counters:
        // how many bytes were actually on the wire right after each send.
        let trace = |seed: u64| -> Vec<u64> {
            let mut eps = MemoryTransport::cluster(2);
            let _b = eps.pop().expect("two endpoints");
            let a = JitterTransport::new(eps.pop().expect("two endpoints"), seed);
            (0..12u32)
                .map(|i| {
                    a.try_send(1, i, Bytes::from_static(b"x")).unwrap();
                    a.stats().total_bytes()
                })
                .collect()
        };
        assert_eq!(trace(1), trace(1));
        assert_eq!(trace(2), trace(2));
        assert_ne!(trace(1), trace(2), "different seeds should differ");
    }
}
