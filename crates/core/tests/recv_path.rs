//! The receive side of a sync pattern, end to end on four hosts: frames
//! are held until every lower rank's frame has been applied, then decoded
//! straight into the field.
//!
//! Every wire mode, under both the reduce and the set pattern, and under
//! in-order, reversed and shuffled arrival, must leave exactly the field
//! and dirty bits that decoding each frame into a `(lid, value)` table and
//! applying the tables in rank order leaves. A frame corrupted at rank `k`
//! must leave the lower ranks applied and rank `k` and above untouched,
//! and be booked exactly once; a duplicated frame must be dropped.

use bytes::Bytes;
use gluon::encode::{decode_gid_values, decode_memoized, WireMode};
use gluon::trace::Tracer;
use gluon::{
    DenseBitset, FieldSync, FlagFilter, GluonContext, OptLevel, ReadLocation, SumField, SyncError,
    SyncSpec, WriteLocation,
};
use gluon_graph::{gen, Csr, Lid};
use gluon_metrics::MetricsHub;
use gluon_net::{
    run_cluster_wrapped, Communicator, Envelope, MemoryTransport, NetError, NetStats, Transport,
};
use gluon_partition::{partition_on_host, LocalGraph, Policy};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

const HOSTS: usize = 4;

/// Both patterns over every proxy (no structural filtering), so every
/// host pair exchanges a frame in each.
const REDUCE: SyncSpec = SyncSpec::reduce(WriteLocation::Any).named("recv_path");
const SET: SyncSpec = SyncSpec::broadcast(ReadLocation::Any).named("recv_path");

fn graph() -> &'static Csr {
    static G: OnceLock<Csr> = OnceLock::new();
    G.get_or_init(|| gen::rmat(10, 16, Default::default(), 7))
}

#[derive(Clone, Copy, Debug)]
enum Arrival {
    InOrder,
    Reversed,
    Shuffled(u64),
}

const ARRIVALS: [Arrival; 3] = [
    Arrival::InOrder,
    Arrival::Reversed,
    Arrival::Shuffled(0x5EED),
];

/// Hands a host its sync frames in a chosen order. Nothing is delivered
/// early (`try_recv_any_now` finds nothing), so the whole pattern's frames
/// queue up on the wire; the first blocking receive of a tag collects one
/// from every peer and deals them out in `arrival` order — optionally
/// truncating the payloads from one sender, or delivering every frame
/// twice. Every frame dealt out is recorded as it came off the wire.
#[derive(Debug)]
struct Ordered {
    inner: MemoryTransport,
    arrival: Arrival,
    corrupt_from: Option<usize>,
    duplicate: bool,
    queues: Mutex<HashMap<u32, VecDeque<Envelope>>>,
    frames: Mutex<Vec<Envelope>>,
}

impl Ordered {
    fn new(inner: MemoryTransport, arrival: Arrival) -> Ordered {
        Ordered {
            inner,
            arrival,
            corrupt_from: None,
            duplicate: false,
            queues: Mutex::default(),
            frames: Mutex::default(),
        }
    }

    /// The sync frames received so far, as sent, in rank order per tag.
    fn frames(&self) -> Vec<Envelope> {
        self.frames.lock().unwrap().clone()
    }

    fn deal(&self, tag: u32) -> Result<VecDeque<Envelope>, NetError> {
        let mut batch = Vec::with_capacity(HOSTS - 1);
        while batch.len() < HOSTS - 1 {
            batch.push(self.inner.try_recv_any(tag)?);
        }
        batch.sort_by_key(|e| e.src);
        self.frames.lock().unwrap().extend(batch.iter().cloned());
        match self.arrival {
            Arrival::InOrder => {}
            Arrival::Reversed => batch.reverse(),
            Arrival::Shuffled(seed) => {
                let mut s = seed ^ (self.rank() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for i in (1..batch.len()).rev() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    batch.swap(i, (s % (i as u64 + 1)) as usize);
                }
            }
        }
        let mut dealt = VecDeque::new();
        for mut env in batch {
            if Some(env.src) == self.corrupt_from {
                env.payload = Bytes::copy_from_slice(&env.payload[..env.payload.len() / 2]);
            }
            if self.duplicate {
                dealt.push_back(env.clone());
            }
            dealt.push_back(env);
        }
        Ok(dealt)
    }
}

impl Transport for Ordered {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn try_send(&self, dst: usize, tag: u32, payload: Bytes) -> Result<(), NetError> {
        self.inner.try_send(dst, tag, payload)
    }

    fn try_recv(&self, src: usize, tag: u32) -> Result<Bytes, NetError> {
        self.inner.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        let mut queues = self.queues.lock().unwrap();
        let queue = queues.entry(tag).or_default();
        if queue.is_empty() {
            *queue = self.deal(tag)?;
        }
        Ok(queue.pop_front().expect("a dealt batch is never empty"))
    }

    fn try_recv_any_now(&self, _tag: u32) -> Result<Option<Envelope>, NetError> {
        Ok(None)
    }

    fn note_round(&self, round: u64) {
        self.inner.note_round(round);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

/// One sync to run: which proxies are dirty (by global id), the value a
/// dirty proxy carries, and the wire mode the case is built to produce.
#[derive(Clone, Copy)]
struct Case {
    mode: WireMode,
    opts: OptLevel,
    dirty: fn(u32) -> bool,
    /// Every dirty proxy carries the same value.
    same: bool,
}

/// A messy value per (host, node): reductions of several of them are
/// order-sensitive in their last bits.
fn messy(gid: u32, rank: usize) -> f64 {
    1.0 / f64::from(gid.wrapping_mul(2_654_435_761) % 997 + 3) + rank as f64 * 0.1
}

/// One case per wire mode: the dirty set's shape (every node, every other,
/// one in 64, a contiguous block of the 1024), whether the values agree,
/// and the codec in force pick it.
fn cases() -> Vec<Case> {
    let v1 = OptLevel::OSTI.without_compression();
    let case = |mode, opts, dirty: fn(u32) -> bool, same| Case {
        mode,
        opts,
        dirty,
        same,
    };
    vec![
        case(WireMode::Empty, OptLevel::OSTI, |_| false, false),
        case(WireMode::Dense, OptLevel::OSTI, |_| true, false),
        case(WireMode::Bitvec, OptLevel::OSTI, |g| g % 2 == 0, false),
        case(WireMode::Indices, v1, |g| g % 64 == 0, false),
        case(
            WireMode::IndicesDelta,
            OptLevel::OSTI,
            |g| g % 64 == 0,
            false,
        ),
        case(
            WireMode::RunLength,
            OptLevel::OSTI,
            |g| (256..512).contains(&g),
            false,
        ),
        case(
            WireMode::SameIndicesDelta,
            OptLevel::OSTI,
            |g| g % 64 == 0,
            true,
        ),
        case(
            WireMode::SameRunLength,
            OptLevel::OSTI,
            |g| (256..512).contains(&g),
            true,
        ),
        case(WireMode::GidValues, OptLevel::OSI, |g| g % 3 == 0, false),
    ]
}

/// Whether `spec` is the reduce (mirrors send, masters receive) rather
/// than the set (masters send, mirrors receive).
fn sends_from_mirrors(spec: &SyncSpec) -> bool {
    spec.write.is_some()
}

/// The field before the sync: every proxy holds a messy value, and the
/// dirty proxies on the sending side carry the case's value.
fn initial_state(
    lg: &LocalGraph,
    rank: usize,
    spec: &SyncSpec,
    case: Case,
) -> (Vec<f64>, DenseBitset) {
    let mut vals: Vec<f64> = lg.proxies().map(|l| messy(lg.gid(l).0, rank + 7)).collect();
    let mut bits = DenseBitset::new(lg.num_proxies());
    let senders: Vec<Lid> = if sends_from_mirrors(spec) {
        lg.mirrors().collect()
    } else {
        lg.masters().collect()
    };
    for l in senders {
        let gid = lg.gid(l).0;
        if (case.dirty)(gid) {
            vals[l.index()] = if case.same { 0.5 } else { messy(gid, rank) };
            bits.set(l);
        }
    }
    (vals, bits)
}

/// The staging-based receive: decode each peer's frame into a `(lid,
/// value)` table, then apply the tables in rank order — stopping before
/// rank `stop`.
#[allow(clippy::too_many_arguments)]
fn staged_apply(
    lg: &LocalGraph,
    ctx: &GluonContext<'_, Ordered>,
    spec: &SyncSpec,
    temporal: bool,
    frames: &[Envelope],
    stop: usize,
    vals: &mut [f64],
    bits: &mut DenseBitset,
) {
    let rank = ctx.rank();
    for src in (0..stop.min(HOSTS)).filter(|&h| h != rank) {
        let env = frames
            .iter()
            .find(|e| e.src == src)
            .expect("a frame from every peer");
        let list = if sends_from_mirrors(spec) {
            ctx.memo().master_list(src, FlagFilter::All)
        } else {
            ctx.memo().mirror_list(src, FlagFilter::All)
        };
        let mut table: Vec<(Lid, f64)> = Vec::new();
        if temporal {
            decode_memoized::<f64>(&env.payload, list.len(), &mut |p, v| {
                table.push((list[p], v))
            })
            .expect("staged frames decode");
        } else {
            decode_gid_values::<f64>(&env.payload, &mut |g, v| {
                table.push((lg.lid(g).expect("known gid"), v))
            })
            .expect("staged frames decode");
        }
        let mut field = SumField::new(vals);
        for (lid, v) in table {
            if sends_from_mirrors(spec) {
                if field.reduce(lid, v) {
                    bits.set(lid);
                }
            } else {
                field.set(lid, v);
                bits.set(lid);
            }
        }
    }
}

/// The receive-side proxies of this host under `spec`.
fn receivers(lg: &LocalGraph, spec: &SyncSpec) -> Vec<Lid> {
    if sends_from_mirrors(spec) {
        lg.masters().collect()
    } else {
        lg.mirrors().collect()
    }
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What one host ended with.
#[derive(Debug, PartialEq, Eq)]
struct HostEnd {
    vals: Vec<u64>,
    dirty: Vec<u64>,
    modes: Vec<u8>,
}

fn run_case(case: Case, spec: &SyncSpec, arrival: Arrival) -> Vec<HostEnd> {
    run_cluster_wrapped(
        HOSTS,
        NetStats::new(HOSTS),
        |ep| Ordered::new(ep, arrival),
        |net| {
            let comm = Communicator::new(net);
            let lg = partition_on_host(graph(), Policy::Oec, &comm);
            let mut ctx = GluonContext::new(&lg, &comm, case.opts);
            let rank = comm.rank();
            for h in (0..HOSTS).filter(|&h| h != rank) {
                assert!(
                    !ctx.memo().master_list(h, FlagFilter::All).is_empty()
                        && !ctx.memo().mirror_list(h, FlagFilter::All).is_empty(),
                    "host {rank} shares no proxy with host {h}"
                );
            }
            let (mut vals, mut dirty) = initial_state(&lg, rank, spec, case);
            let (mut want, mut want_dirty) = (vals.clone(), dirty.clone());
            ctx.sync(spec, &mut SumField::new(&mut vals), &mut dirty);

            let frames = net.frames();
            assert_eq!(frames.len(), HOSTS - 1, "one frame per peer");
            staged_apply(
                &lg,
                &ctx,
                spec,
                case.opts.temporal,
                &frames,
                HOSTS,
                &mut want,
                &mut want_dirty,
            );
            for l in receivers(&lg, spec) {
                assert_eq!(
                    vals[l.index()].to_bits(),
                    want[l.index()].to_bits(),
                    "{:?}/{arrival:?}: host {rank} proxy {l} differs from the staged apply",
                    case.mode
                );
                assert_eq!(
                    dirty.test(l),
                    want_dirty.test(l),
                    "host {rank} proxy {l}: dirty bit"
                );
            }
            HostEnd {
                vals: bits_of(&vals),
                dirty: dirty.words().to_vec(),
                modes: frames.iter().map(|e| e.payload[0]).collect(),
            }
        },
    )
    .0
}

#[test]
fn every_mode_pattern_and_arrival_order_matches_the_staged_apply() {
    for case in cases() {
        for spec in [REDUCE, SET] {
            let mut reference: Option<Vec<HostEnd>> = None;
            for arrival in ARRIVALS {
                let ends = run_case(case, &spec, arrival);
                assert!(
                    ends.iter()
                        .flat_map(|e| &e.modes)
                        .any(|&m| m == case.mode as u8),
                    "{:?} (reduce: {}): the case never produced its mode",
                    case.mode,
                    sends_from_mirrors(&spec)
                );
                match &reference {
                    None => reference = Some(ends),
                    Some(r) => assert_eq!(
                        &ends, r,
                        "{:?}/{arrival:?}: arrival order changed the result",
                        case.mode
                    ),
                }
            }
        }
    }
}

#[test]
fn a_corrupt_frame_stops_the_apply_at_its_rank_and_is_booked_once() {
    const VICTIM: usize = HOSTS - 1;
    for bad in 0..VICTIM {
        for arrival in ARRIVALS {
            let tracer = Tracer::new(HOSTS);
            let hub = MetricsHub::new(HOSTS);
            let (results, _) = run_cluster_wrapped(
                HOSTS,
                NetStats::new(HOSTS),
                |ep| {
                    let mut t = Ordered::new(ep, arrival);
                    if t.rank() == VICTIM {
                        t.corrupt_from = Some(bad);
                    }
                    t
                },
                |net| {
                    let comm = Communicator::with_tracer(net, tracer.clone());
                    let lg = partition_on_host(graph(), Policy::Oec, &comm);
                    let rank = comm.rank();
                    let mut ctx =
                        GluonContext::new(&lg, &comm, OptLevel::OSTI).with_metrics(hub.host(rank));
                    let dense = Case {
                        mode: WireMode::Dense,
                        opts: OptLevel::OSTI,
                        dirty: |_| true,
                        same: false,
                    };
                    let (mut vals, mut dirty) = initial_state(&lg, rank, &REDUCE, dense);
                    let (mut want, mut want_dirty) = (vals.clone(), dirty.clone());
                    let res = ctx.try_sync(&REDUCE, &mut SumField::new(&mut vals), &mut dirty);
                    if rank != VICTIM {
                        res.expect("only the victim sees the corruption");
                        return None;
                    }
                    let Err(SyncError::Decode { peer, .. }) = res else {
                        panic!("victim: expected a decode error, got {res:?}");
                    };
                    assert_eq!(peer, bad, "{arrival:?}: blamed the wrong peer");
                    // Ranks below the bad one applied; it and every later
                    // rank untouched.
                    let frames = net.frames();
                    staged_apply(
                        &lg,
                        &ctx,
                        &REDUCE,
                        true,
                        &frames,
                        bad,
                        &mut want,
                        &mut want_dirty,
                    );
                    for l in receivers(&lg, &REDUCE) {
                        assert_eq!(
                            vals[l.index()].to_bits(),
                            want[l.index()].to_bits(),
                            "bad rank {bad}, {arrival:?}: proxy {l}"
                        );
                        assert_eq!(dirty.test(l), want_dirty.test(l), "proxy {l}: dirty bit");
                    }
                    Some(peer)
                },
            );
            let surfaced = results.iter().flatten().count() as u64;
            assert_eq!(surfaced, 1, "bad rank {bad}, {arrival:?}: surfaced errors");
            assert_eq!(
                hub.counter_across_hosts("decode_errors"),
                1,
                "bad rank {bad}, {arrival:?}: hub"
            );
            let traced = tracer
                .events()
                .iter()
                .filter(|e| e.name == "decode_error")
                .count();
            assert_eq!(traced, 1, "bad rank {bad}, {arrival:?}: trace events");
        }
    }
}

#[test]
fn a_duplicated_frame_is_dropped() {
    let case = Case {
        mode: WireMode::Bitvec,
        opts: OptLevel::OSTI,
        dirty: |g| g % 2 == 0,
        same: false,
    };
    for spec in [REDUCE, SET] {
        let clean = run_case(case, &spec, Arrival::Shuffled(3));
        let (doubled, _) = run_cluster_wrapped(
            HOSTS,
            NetStats::new(HOSTS),
            |ep| {
                let mut t = Ordered::new(ep, Arrival::Shuffled(3));
                t.duplicate = true;
                t
            },
            |net| {
                let comm = Communicator::new(net);
                let lg = partition_on_host(graph(), Policy::Oec, &comm);
                let mut ctx = GluonContext::new(&lg, &comm, case.opts);
                let (mut vals, mut dirty) = initial_state(&lg, comm.rank(), &spec, case);
                ctx.try_sync(&spec, &mut SumField::new(&mut vals), &mut dirty)
                    .expect("duplicates are not errors");
                (bits_of(&vals), dirty.words().to_vec())
            },
        );
        for (host, (end, (vals, dirty))) in clean.iter().zip(&doubled).enumerate() {
            assert_eq!(
                &end.vals, vals,
                "host {host}: a duplicated frame changed the result"
            );
            assert_eq!(&end.dirty, dirty, "host {host}: dirty bits");
        }
    }
}
