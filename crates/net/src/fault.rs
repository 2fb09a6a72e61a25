//! Fault injection for reliable streams: host crashes and corruption.
//!
//! Both wires are reliable FIFO streams, which never drop, duplicate or
//! reorder a message. What such a stream can still suffer is a host that
//! dies and a payload whose bits flip. [`FaultyTransport`] wraps any
//! [`Transport`] and injects exactly those two, as a [`FaultPlan`] says:
//!
//! * a [`CrashRule`] kills this host's endpoint at a chosen sync round;
//!   its thread unwinds with [`NetError::HostCrashed`] and drops the
//!   endpoint, which is the crash its peers observe;
//! * `corrupt_rate` flips one payload bit in that share of sends, which
//!   the codec must reject with a typed error (on sockets the frame CRC
//!   rejects it first).
//!
//! Every injected fault is counted in shared [`FaultCounters`], so tests
//! can prove the faults actually fired. Each endpoint draws from its own
//! generator seeded from `plan.seed` mixed with its rank, so a given
//! (plan, rank) replays the same per-send decisions run after run.
//!
//! Self-sends (`dst == rank`) bypass injection entirely: loopback traffic
//! never traverses the NIC on a real host either.

use crate::error::NetError;
use crate::stats::NetStats;
use crate::transport::{Envelope, Transport};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A scheduled host crash: when the local host is `host` and the
/// application reports reaching sync round `round` (via
/// [`Transport::note_round`]), the endpoint dies: every operation on it
/// returns [`NetError::HostCrashed`], so the host's thread unwinds and
/// drops its endpoint, and that drop is the crash its peers observe (as
/// [`NetError::PeerDown`], exactly what a killed worker's closed sockets
/// produce).
///
/// `attempt` scopes the rule to one supervised execution attempt:
/// `Some(0)` (the [`CrashRule::at`] default) crashes only the first
/// attempt — the recovery relaunch survives — while `None` crashes every
/// attempt, modelling a host that is permanently gone. The transport never
/// sees `attempt`: a supervisor filters the plan with
/// [`FaultPlan::for_attempt`] before building each attempt's stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashRule {
    /// Rank of the host that dies.
    pub host: usize,
    /// Sync round (1-based, as reported by `note_round`) at which it dies.
    pub round: u64,
    /// Attempt the rule applies to (`None` = every attempt).
    pub attempt: Option<u32>,
}

impl CrashRule {
    /// Crashes `host` at sync round `round` on the first attempt only.
    pub fn at(host: usize, round: u64) -> CrashRule {
        CrashRule {
            host,
            round,
            attempt: Some(0),
        }
    }

    /// Makes the rule fire on every supervised attempt (an unrecoverable,
    /// permanently dead host).
    pub fn every_attempt(self) -> CrashRule {
        CrashRule {
            attempt: None,
            ..self
        }
    }

    /// Scopes the rule to supervised attempt `attempt`.
    pub fn on_attempt(self, attempt: u32) -> CrashRule {
        CrashRule {
            attempt: Some(attempt),
            ..self
        }
    }
}

/// Fault mix for a [`FaultyTransport`]: a corruption probability plus
/// scheduled host crashes.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the per-endpoint fault generators.
    pub seed: u64,
    /// Probability one payload bit of a send is flipped.
    pub corrupt_rate: f64,
    /// Scheduled host crashes, fired by [`Transport::note_round`].
    pub crashes: Vec<CrashRule>,
}

impl FaultPlan {
    /// A plan injecting no faults at all (useful as a builder base).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            corrupt_rate: 0.0,
            crashes: Vec::new(),
        }
    }

    /// Sets the corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> FaultPlan {
        self.corrupt_rate = rate;
        self
    }

    /// Appends a scheduled host crash.
    pub fn with_crash(mut self, crash: CrashRule) -> FaultPlan {
        self.crashes.push(crash);
        self
    }

    /// The plan as seen by supervised execution attempt `attempt`: crash
    /// rules scoped to other attempts are removed; everything else (the
    /// corruption rate, every-attempt crashes) is kept verbatim.
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        plan.crashes
            .retain(|c| c.attempt.is_none_or(|a| a == attempt));
        plan
    }

    fn validate(&self) {
        for crash in &self.crashes {
            assert!(
                crash.round >= 1,
                "crash rounds are 1-based: round 0 is pre-sync setup, which \
                 uses infallible collectives and cannot host a clean crash"
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.corrupt_rate),
            "the corruption rate must lie in [0, 1] (got {})",
            self.corrupt_rate
        );
    }
}

/// Counts of faults actually injected; shared (cheaply clonable) so one
/// set of counters can aggregate over every endpoint of a cluster.
#[derive(Clone, Debug, Default)]
pub struct FaultCounters {
    inner: Arc<FaultCountersInner>,
}

#[derive(Debug, Default)]
struct FaultCountersInner {
    corrupted: AtomicU64,
    crashed: AtomicU64,
}

impl FaultCounters {
    /// Fresh zeroed counters.
    pub fn new() -> FaultCounters {
        FaultCounters::default()
    }

    /// Messages with a flipped payload bit.
    pub fn corrupted(&self) -> u64 {
        self.inner.corrupted.load(Ordering::Relaxed)
    }

    /// Host crashes fired by [`CrashRule`]s.
    pub fn crashed(&self) -> u64 {
        self.inner.crashed.load(Ordering::Relaxed)
    }
}

/// Deterministic fault-injecting wrapper around any [`Transport`].
///
/// # Examples
///
/// ```
/// use gluon_net::{CrashRule, FaultCounters, FaultPlan, FaultyTransport,
///                 MemoryTransport, NetError, Transport};
/// use bytes::Bytes;
///
/// let mut eps = MemoryTransport::cluster(2);
/// let b = FaultyTransport::new(
///     eps.pop().unwrap(),
///     FaultPlan::none(7).with_crash(CrashRule::at(1, 2)),
///     FaultCounters::new(),
/// );
/// let a = eps.pop().unwrap();
/// b.try_send(0, 5, Bytes::from_static(b"before")).unwrap();
/// b.note_round(2);
/// let crashed = NetError::HostCrashed { host: 1, round: 2 };
/// assert_eq!(b.try_send(0, 5, Bytes::new()), Err(crashed));
/// drop(b); // the crashed host's thread unwinds
/// assert_eq!(&a.try_recv(1, 5).unwrap()[..], b"before");
/// assert_eq!(a.try_recv(1, 5), Err(NetError::PeerDown { peer: 1, round: 0 }));
/// ```
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    counters: FaultCounters,
    /// Injection on/off switch; when disarmed every send passes through
    /// untouched (used to fault only part of a run, e.g. after setup).
    armed: AtomicBool,
    rng: Mutex<u64>,
    /// Set when a [`CrashRule`] fires: the endpoint is dead from then on.
    crashed: AtomicBool,
    /// The round the crash fired at (for the [`NetError::HostCrashed`]).
    crash_round: AtomicU64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given plan, reporting injections into
    /// `counters` (share one `FaultCounters` across a cluster's endpoints
    /// to aggregate).
    ///
    /// # Panics
    ///
    /// Panics if the corruption rate lies outside `[0, 1]` or a crash rule
    /// names round 0.
    pub fn new(inner: T, plan: FaultPlan, counters: FaultCounters) -> FaultyTransport<T> {
        plan.validate();
        // Mix the rank in so endpoints draw distinct sequences.
        let seed = plan.seed ^ (inner.rank() as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        FaultyTransport {
            inner,
            plan,
            counters,
            armed: AtomicBool::new(true),
            rng: Mutex::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            crashed: AtomicBool::new(false),
            crash_round: AtomicU64::new(0),
        }
    }

    /// Starts injecting corruption (the initial state).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting corruption; sends pass through untouched until
    /// [`FaultyTransport::arm`] is called. Crash rules fire either way.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// `Err(HostCrashed)` once a [`CrashRule`] has killed this endpoint.
    fn alive(&self) -> Result<(), NetError> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(NetError::HostCrashed {
                host: self.inner.rank(),
                round: self.crash_round.load(Ordering::SeqCst),
            });
        }
        Ok(())
    }

    fn next_rand(&self) -> u64 {
        let mut state = self.rng.lock();
        // xorshift64*: cheap, deterministic, good enough for fault draws.
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_unit(&self) -> f64 {
        // 53 uniform mantissa bits -> [0, 1).
        (self.next_rand() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        self.alive()?;
        // Loopback traffic never crosses the NIC: pass it through.
        if dst == self.inner.rank()
            || !self.armed.load(Ordering::SeqCst)
            || self.next_unit() >= self.plan.corrupt_rate
            || payload.is_empty()
        {
            return self.inner.try_send(dst, tag, payload);
        }
        self.counters
            .inner
            .corrupted
            .fetch_add(1, Ordering::Relaxed);
        let mut bytes = payload.to_vec();
        let bit = (self.next_rand() % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        self.inner.try_send(dst, tag, Bytes::from(bytes))
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        self.alive()?;
        self.inner.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        self.alive()?;
        self.inner.try_recv_any(tag)
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        self.alive()?;
        self.inner.try_recv_any_now(tag)
    }

    fn note_round(&self, round: u64) {
        self.inner.note_round(round);
        if self.crashed.load(Ordering::SeqCst) {
            return;
        }
        let rank = self.inner.rank();
        if self
            .plan
            .crashes
            .iter()
            .any(|c| c.host == rank && round >= c.round)
        {
            self.crash_round.store(round, Ordering::SeqCst);
            self.crashed.store(true, Ordering::SeqCst);
            self.counters.inner.crashed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemoryTransport;

    fn pair() -> (MemoryTransport, MemoryTransport) {
        let mut eps = MemoryTransport::cluster(2);
        let b = eps.pop().expect("two endpoints");
        let a = eps.pop().expect("two endpoints");
        (a, b)
    }

    #[test]
    fn disarmed_wrapper_is_transparent() {
        let (a, b) = pair();
        let counters = FaultCounters::new();
        let a = FaultyTransport::new(
            a,
            FaultPlan::none(1).with_corrupt_rate(1.0),
            counters.clone(),
        );
        a.disarm();
        for i in 0..20u32 {
            a.try_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        for i in 0..20u32 {
            assert_eq!(&b.try_recv(0, 0).unwrap()[..4], &i.to_le_bytes());
        }
        assert_eq!(counters.corrupted(), 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (a, b) = pair();
        let counters = FaultCounters::new();
        let plan = FaultPlan::none(5).with_corrupt_rate(1.0);
        let a = FaultyTransport::new(a, plan, counters.clone());
        let original = [0u8; 16];
        a.try_send(1, 0, Bytes::copy_from_slice(&original)).unwrap();
        let got = b.try_recv(0, 0).unwrap();
        let flipped: u32 = got.iter().map(|byte| byte.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert_eq!(counters.corrupted(), 1);
    }

    #[test]
    fn self_sends_are_never_faulted() {
        let mut eps = MemoryTransport::cluster(1);
        let counters = FaultCounters::new();
        let a = FaultyTransport::new(
            eps.pop().expect("one endpoint"),
            FaultPlan::none(1).with_corrupt_rate(1.0),
            counters.clone(),
        );
        a.try_send(0, 0, Bytes::from_static(b"loopback")).unwrap();
        assert_eq!(&a.try_recv(0, 0).unwrap()[..], b"loopback");
        assert_eq!(counters.corrupted(), 0);
    }

    #[test]
    fn decisions_are_deterministic_in_seed() {
        let run = |seed: u64| -> u64 {
            let (a, b) = pair();
            let counters = FaultCounters::new();
            let plan = FaultPlan::none(seed).with_corrupt_rate(0.3);
            let a = FaultyTransport::new(a, plan, counters.clone());
            (0..200u32)
                .map(|i| {
                    a.try_send(1, i % 3, Bytes::from_static(b"payload"))
                        .unwrap();
                    let got = b.try_recv(0, i % 3).unwrap();
                    // Where each flip landed, folded into one number.
                    got.iter()
                        .zip(b"payload")
                        .map(|(x, y)| u64::from(x ^ y))
                        .fold(u64::from(i), |h, d| h.wrapping_mul(31).wrapping_add(d))
                })
                .fold(counters.corrupted(), u64::wrapping_add)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(1), run(2), "different seeds should differ");
    }

    #[test]
    fn a_crash_fails_every_later_operation_on_the_victim() {
        let (a, _b) = pair();
        let counters = FaultCounters::new();
        let plan = FaultPlan::none(0).with_crash(CrashRule::at(0, 3));
        let a = FaultyTransport::new(a, plan, counters.clone());
        a.note_round(2);
        a.try_send(1, 0, Bytes::new())
            .expect("alive before round 3");
        a.note_round(3);
        let crashed = Err(NetError::HostCrashed { host: 0, round: 3 });
        assert_eq!(a.try_send(1, 0, Bytes::new()), crashed);
        assert_eq!(a.try_recv(1, 0), crashed.map(|()| Bytes::new()));
        assert_eq!(a.try_recv_any_now(0).map(|_| ()), crashed);
        a.note_round(4);
        assert_eq!(counters.crashed(), 1, "a crash fires once");
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn out_of_range_rates_are_rejected() {
        let (a, _b) = pair();
        FaultyTransport::new(
            a,
            FaultPlan::none(0).with_corrupt_rate(1.5),
            FaultCounters::new(),
        );
    }
}
