//! Pseudo-fuzz battery for the fallible decoder: truncations, bit flips
//! (through the fault injector's own corruptor), and raw garbage. The
//! property under test is the error-handling contract from DESIGN.md —
//! `decode_memoized` / `decode_gid_values` are *total* over arbitrary
//! bytes: every input either decodes or returns a [`DecodeError`];
//! nothing panics, whatever the bytes — and, end to end, a corrupted sync
//! payload reaches the caller of `try_sync` as a typed decode error.
//!
//! Seeds are fixed so the corpus is identical on every run; the verify
//! script runs this battery in release mode as the codec smoke test.

use bytes::Bytes;
use gluon_suite::graph::{gen, Gid};
use gluon_suite::metrics::MetricsHub;
use gluon_suite::net::{
    run_cluster_wrapped, Communicator, FaultCounters, FaultPlan, FaultyTransport, MemoryTransport,
    NetStats, Transport,
};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::encode::{
    decode_gid_values, decode_memoized, encode_gid_values, encode_memoized, encode_memoized_as,
    WireMode,
};
use gluon_suite::substrate::{
    DenseBitset, GluonContext, MinField, OptLevel, SyncError, SyncSpec, WriteLocation,
};
use gluon_suite::trace::Tracer;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Decoding must return *something* — Ok or Err — for both entry points.
/// Reaching the end of this function is the assertion; any panic fails
/// the test.
fn must_not_panic(payload: &[u8], list_len: usize) {
    let mut sink = 0u64;
    let _ = decode_memoized::<u32>(payload, list_len, &mut |p, v: u32| {
        sink = sink.wrapping_add(p as u64 ^ u64::from(v));
    });
    let _ = decode_memoized::<u64>(payload, list_len, &mut |p, v: u64| {
        sink = sink.wrapping_add(p as u64 ^ v);
    });
    let _ = decode_gid_values::<u32>(payload, &mut |g, v| {
        sink = sink.wrapping_add(u64::from(g.0) ^ u64::from(v));
    });
    std::hint::black_box(sink);
}

/// A spread of valid payloads across every wire mode and both value
/// widths, to be mangled by the tests below.
fn seed_payloads(rng: &mut Rng) -> Vec<(Bytes, usize)> {
    let mut out = Vec::new();
    for _ in 0..40 {
        let list_len = 1 + rng.below(2_000) as usize;
        let k = 1 + rng.below(list_len as u64) as usize;
        let mut updated: Vec<u32> = (0..k).map(|_| rng.below(list_len as u64) as u32).collect();
        updated.sort_unstable();
        updated.dedup();
        let same = rng.below(2) == 0;
        let msg = encode_memoized(list_len, &updated, |p| {
            if same {
                7u32
            } else {
                p as u32 ^ 0xA5A5
            }
        });
        out.push((msg, list_len));
        // Also force the modes the adaptive selector skipped for this set.
        for mode in [
            WireMode::Dense,
            WireMode::Bitvec,
            WireMode::Indices,
            WireMode::IndicesDelta,
            WireMode::RunLength,
            WireMode::SameIndicesDelta,
            WireMode::SameRunLength,
        ] {
            if let Some(msg) = encode_memoized_as(mode, list_len, &updated, |p| {
                if same {
                    7u32
                } else {
                    p as u32 ^ 0xA5A5
                }
            }) {
                out.push((msg, list_len));
            }
        }
    }
    let pairs: Vec<(Gid, u64)> = (0..33).map(|i| (Gid(i * 3), u64::from(i) << 17)).collect();
    out.push((encode_gid_values(&pairs), 100));
    out
}

#[test]
fn every_truncation_of_every_mode_decodes_or_errors() {
    let mut rng = Rng(0xC0DE_C0DE);
    for (msg, list_len) in seed_payloads(&mut rng) {
        // Every cut for short payloads; an even sample plus the tail for
        // long ones (keeps the debug-mode run fast without losing the
        // interesting boundaries).
        let cuts: Vec<usize> = if msg.len() <= 300 {
            (0..msg.len()).collect()
        } else {
            (0..msg.len())
                .step_by(msg.len() / 300 + 1)
                .chain(msg.len() - 16..msg.len())
                .collect()
        };
        for cut in cuts {
            must_not_panic(&msg[..cut], list_len);
            // A strict prefix of a valid payload is never itself valid:
            // every layout either carries an explicit count or is
            // length-checked against the agreed list.
            if WireMode::try_of(&msg) != Ok(WireMode::GidValues) {
                assert!(
                    decode_memoized::<u32>(&msg[..cut], list_len, &mut |_, _| {}).is_err()
                        || decode_memoized::<u64>(&msg[..cut], list_len, &mut |_, _| {}).is_err(),
                    "strict prefix of len {cut}/{} accepted (mode {:?})",
                    msg.len(),
                    WireMode::try_of(&msg)
                );
            }
        }
    }
}

#[test]
fn bit_flips_through_the_fault_injector_never_panic_the_decoder() {
    // The corruptor of the end-to-end test below: a FaultyTransport with
    // a 100% corrupt rate flips exactly one payload bit per send. Ship each
    // seed payload through it repeatedly and decode whatever arrives.
    let mut rng = Rng(0xB17_F11B5);
    let seeds = seed_payloads(&mut rng);
    let mut eps = MemoryTransport::cluster(2);
    let rx = eps.pop().expect("endpoint 1");
    let tx = FaultyTransport::new(
        eps.pop().expect("endpoint 0"),
        FaultPlan::none(0xF00D).with_corrupt_rate(1.0),
        FaultCounters::new(),
    );
    let mut corrupted = 0u64;
    for round in 0..8 {
        for (i, (msg, list_len)) in seeds.iter().enumerate() {
            let tag = (round * seeds.len() + i) as u32;
            tx.try_send(1, tag, msg.clone()).unwrap();
            let mangled = rx.try_recv(0, tag).unwrap();
            if mangled != *msg {
                corrupted += 1;
            }
            must_not_panic(&mangled, *list_len);
        }
    }
    assert!(
        corrupted > 0,
        "the fault injector never actually flipped a bit"
    );
}

#[test]
fn multi_bit_flips_never_panic_the_decoder() {
    let mut rng = Rng(0x5EED_5EED);
    for (msg, list_len) in seed_payloads(&mut rng) {
        for _ in 0..24 {
            let mut bytes = msg.to_vec();
            for _ in 0..1 + rng.below(4) {
                let bit = rng.below((bytes.len() * 8) as u64) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            must_not_panic(&bytes, list_len);
        }
    }
}

#[test]
fn random_garbage_never_panics_the_decoder() {
    let mut rng = Rng(0x6A5B_A6E5);
    for _ in 0..4_000 {
        let len = rng.below(200) as usize;
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.next() as u8;
        }
        // Bias the mode byte toward valid modes half the time so the
        // per-mode validators get exercised, not just UnknownMode.
        if !bytes.is_empty() && rng.below(2) == 0 {
            bytes[0] = rng.below(9) as u8;
        }
        let list_len = rng.below(4_096) as usize;
        must_not_panic(&bytes, list_len);
    }
}

#[test]
fn decoders_reject_the_empty_payload_with_truncated() {
    use gluon_suite::substrate::encode::DecodeError;
    assert_eq!(
        decode_memoized::<u32>(&[], 10, &mut |_, _| {}),
        Err(DecodeError::Truncated)
    );
    assert_eq!(
        decode_gid_values::<u32>(&[], &mut |_, _| {}),
        Err(DecodeError::Truncated)
    );
}

/// Corruption on the bare memory wire, which has no frame CRC: a
/// `FaultyTransport` flips one bit in every armed frame, so mangled sync
/// payloads reach the decoder itself. `try_sync` must surface them as
/// [`SyncError::Decode`] — never a panic, never a hang — and every
/// incident must be booked once in the metrics hub and once in the trace's
/// event ring.
#[test]
fn corrupted_frames_surface_as_decode_errors_not_panics() {
    const ROUNDS: u32 = 12;
    let g = gen::rmat(6, 6, Default::default(), 5);
    let mut total_decode_errors = 0u64;
    for seed in [11u64, 1213, 987_654_321] {
        let tracer = Tracer::new(2);
        let hub = MetricsHub::new(2);
        let counters = FaultCounters::new();
        let (results, _) = run_cluster_wrapped(
            2,
            NetStats::new(2),
            |ep| {
                let faulty = FaultyTransport::new(
                    ep,
                    FaultPlan::none(seed).with_corrupt_rate(1.0),
                    counters.clone(),
                );
                // Partitioning and the memoization handshake run clean;
                // only the sync payloads below get mangled.
                faulty.disarm();
                faulty
            },
            |net| {
                let comm = Communicator::with_tracer(net, tracer.clone());
                let lg = partition_on_host(&g, Policy::Cvc, &comm);
                let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI)
                    .with_metrics(hub.host(comm.rank()));
                comm.try_barrier().expect("disarmed warm-up barrier");
                net.arm();
                let n = lg.num_proxies();
                let mut vals = vec![u32::MAX; n as usize];
                // Reduce-only with no collectives while armed: both hosts
                // run the same fixed round count in lock-step whatever
                // errors occur, so nothing can deadlock.
                let spec = SyncSpec::reduce(WriteLocation::Any).named("chaos");
                let mut sync_errors = 0u64;
                for round in 0..ROUNDS {
                    let mut bits = DenseBitset::new(n);
                    for h in 0..2 {
                        for m in lg.mirrors_on(h) {
                            // All-equal values steer the encoder into the
                            // Same* modes, whose payloads are nearly all
                            // metadata — so the injected bit flips mostly
                            // land where the validators can see them.
                            vals[m.index()] = round * 31;
                            bits.set(m);
                        }
                    }
                    let mut field = MinField::new(&mut vals);
                    match ctx.try_sync(&spec, &mut field, &mut bits) {
                        Ok(()) => {}
                        Err(SyncError::Decode { peer, error }) => {
                            assert_eq!(peer, 1 - comm.rank(), "blamed the wrong peer");
                            // Every error renders without panicking.
                            let _ = error.to_string();
                            sync_errors += 1;
                        }
                        Err(SyncError::Net(e)) => {
                            panic!("bare transport cannot fail, got {e}")
                        }
                    }
                }
                sync_errors
            },
        );
        assert!(
            counters.corrupted() > 0,
            "seed {seed}: nothing was corrupted"
        );
        let surfaced: u64 = results.iter().sum();
        assert_eq!(
            hub.counter_across_hosts("decode_errors"),
            surfaced,
            "seed {seed}: hub decode_errors diverges from surfaced errors"
        );
        let traced = tracer
            .events()
            .iter()
            .filter(|e| e.name == "decode_error")
            .count() as u64;
        assert_eq!(
            traced, surfaced,
            "seed {seed}: decode_error events diverge from surfaced errors"
        );
        total_decode_errors += surfaced;
    }
    // One flipped bit per frame lands in decoded-as-garbage values some of
    // the time, but across all seeds and rounds the validators must have
    // caught real corruption.
    assert!(
        total_decode_errors > 0,
        "no corrupted frame was ever rejected by the decoder"
    );
}
