//! Per-layer probes of the traced pass: small fixed loops around one
//! public call of one layer, on the workload's own partition, transport
//! and thread count. Each probe is one span; the times inside it are read
//! with the same clock, per call or per batch of calls, and summarised by
//! their lower quartile.

use crate::spans::Spans;
use crate::stats::p25;
use crate::workloads::Scale;
use bytes::Bytes;
use gluon::encode::{decode_memoized, encode_memoized};
use gluon::{DenseBitset, GluonContext, MinField, Pool, ReadLocation, SyncSpec, WriteLocation};
use gluon_graph::Lid;
use gluon_net::{Communicator, Transport};
use std::hint::black_box;
use std::time::Instant;

/// Results of the probes every host takes part in.
#[derive(Clone, Copy, Default, Debug)]
pub struct CollectiveProbes {
    /// `ctx.sync` of a `MinField<u32>` with 0 / 1 % / 100 % of the proxies
    /// dirty, microseconds per call.
    pub sync_call_us: [f64; 3],
    pub pingpong_us: f64,
    pub stream_mb_s: f64,
    pub barrier_us: f64,
    pub any_us: f64,
}

/// The bfs sync pattern: reduce at destinations, broadcast to sources.
const PROBE_SPEC: SyncSpec =
    SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("perf_probe");

/// User tags well clear of Gluon's sync window (16..2064) and below the
/// collectives' reserved range.
const PING_TAG: u32 = 1 << 20;
const PONG_TAG: u32 = PING_TAG + 1;
const STREAM_TAG: u32 = PING_TAG + 2;
const ACK_TAG: u32 = PING_TAG + 3;

const SYNC_CALLS: usize = 50;
const SYNC_BATCHES: usize = 5;
const ROUND_TRIPS: usize = 400;
const COLLECTIVE_CALLS: usize = 200;
const STREAM_MESSAGES: usize = 32;
const STREAM_REPEATS: usize = 5;
const MIB: usize = 1 << 20;

/// Runs the collective probes; every host of the cluster must call it.
pub fn collective<T: Transport>(
    net: &T,
    comm: &Communicator<'_, T>,
    ctx: &mut GluonContext<'_, T>,
    spans: &Spans,
    root: Option<usize>,
    scale: Scale,
) -> CollectiveProbes {
    let mut out = CollectiveProbes::default();
    let names = [
        "probe.sync_call.empty",
        "probe.sync_call.sparse",
        "probe.sync_call.dense",
    ];
    // Every 0th (none), 100th or single proxy is dirty.
    for (slot, (name, stride)) in names.into_iter().zip([0usize, 100, 1]).enumerate() {
        let t = spans.open(name, root, None);
        out.sync_call_us[slot] = sync_calls(comm, ctx, stride, scale.iters(SYNC_CALLS));
        spans.close(t);
    }
    let t = spans.open("probe.net.pingpong", root, None);
    out.pingpong_us = pingpong(net, comm, scale.iters(ROUND_TRIPS));
    spans.close(t);
    let t = spans.open("probe.net.stream", root, None);
    out.stream_mb_s = stream(net, comm, scale.iters(STREAM_MESSAGES));
    spans.close(t);
    let t = spans.open("probe.net.barrier", root, None);
    out.barrier_us = per_call_us(scale.iters(COLLECTIVE_CALLS), || comm.barrier());
    spans.close(t);
    let t = spans.open("probe.net.any", root, None);
    out.any_us = per_call_us(scale.iters(COLLECTIVE_CALLS), || {
        black_box(comm.any(false));
    });
    spans.close(t);
    out
}

/// Batches a fixed-count probe loop is timed in.
const BATCHES: usize = 10;

/// Microseconds per call of `f` over `calls` calls: each tenth of them is
/// timed as one batch, and the lower quartile of the batch means is kept.
/// Back-to-back collectives pipeline — one host runs a call ahead, so its
/// calls alternate between returning at once and waiting two latencies —
/// and only a mean over consecutive calls says what one costs.
fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch = calls.div_ceil(BATCHES);
    let mut us = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        us.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    p25(&us)
}

fn sync_calls<T: Transport>(
    comm: &Communicator<'_, T>,
    ctx: &mut GluonContext<'_, T>,
    stride: usize,
    calls: usize,
) -> f64 {
    let n = ctx.graph().num_proxies();
    let mut labels = vec![u32::MAX; n as usize];
    let mut dirty = DenseBitset::new(n);
    let per_batch = calls.div_ceil(SYNC_BATCHES);
    let mut us = Vec::with_capacity(SYNC_BATCHES);
    let mut call = 0u32;
    for _ in 0..SYNC_BATCHES {
        comm.barrier();
        let batch = Instant::now();
        let mut marking = 0.0;
        for _ in 0..per_batch {
            let t = Instant::now();
            dirty.clear_all();
            if stride > 0 {
                for l in (0..n).step_by(stride) {
                    // Strictly lower on every call, so the min-reduce
                    // changes every master and the broadcast has something
                    // to carry; the low bits vary so no same-value wire
                    // mode applies.
                    labels[l as usize] = u32::MAX / 2 - call * 8 - (l & 7);
                    dirty.set(Lid(l));
                }
            }
            call += 1;
            marking += t.elapsed().as_secs_f64();
            ctx.sync(&PROBE_SPEC, &mut MinField::new(&mut labels), &mut dirty);
        }
        let syncing = batch.elapsed().as_secs_f64() - marking;
        us.push(syncing * 1e6 / per_batch as f64);
    }
    // One call says little: a sync returns as soon as this host's own
    // sends are queued and its peers' payloads are in, so a host that
    // only sends (the mirror side of a one-way pattern) or that enters
    // late measures almost nothing. Over consecutive calls each host is
    // paced by what it waits for, and the slowest host's pace is the cost.
    comm.all_reduce_f64(p25(&us), f64::max)
}

/// The host rank 0 talks to: its neighbour, or itself on one host.
fn peer_of<T: Transport>(net: &T) -> usize {
    1 % net.world_size()
}

fn pingpong<T: Transport>(net: &T, comm: &Communicator<'_, T>, trips: usize) -> f64 {
    let (rank, peer) = (net.rank(), peer_of(net));
    let payload = Bytes::from_static(&[7; 8]);
    let mut us = Vec::with_capacity(trips);
    comm.barrier();
    for _ in 0..trips {
        let t = Instant::now();
        if rank == 0 {
            net.try_send(peer, PING_TAG, payload.clone())
                .expect("probe ping");
        }
        if rank == peer {
            let ping = net.try_recv(0, PING_TAG).expect("probe ping arrives");
            net.try_send(0, PONG_TAG, ping).expect("probe pong");
        }
        if rank == 0 {
            net.try_recv(peer, PONG_TAG).expect("probe pong arrives");
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    p25(&us)
}

/// One-way throughput: rank 0 sends `messages` 1 MiB payloads, the peer
/// acknowledges the last; the best of a few repeats, in 10⁶ bytes/s.
fn stream<T: Transport>(net: &T, comm: &Communicator<'_, T>, messages: usize) -> f64 {
    let (rank, peer) = (net.rank(), peer_of(net));
    let payload = Bytes::from(vec![0x5A; MIB]);
    let mut best = 0.0f64;
    for _ in 0..STREAM_REPEATS {
        comm.barrier();
        let t = Instant::now();
        if rank == 0 {
            for _ in 0..messages {
                net.try_send(peer, STREAM_TAG, payload.clone())
                    .expect("probe stream");
            }
        }
        if rank == peer {
            for _ in 0..messages {
                black_box(net.try_recv(0, STREAM_TAG).expect("probe stream arrives"));
            }
            net.try_send(0, ACK_TAG, Bytes::new()).expect("probe ack");
        }
        if rank == 0 {
            net.try_recv(peer, ACK_TAG).expect("probe ack arrives");
            let secs = t.elapsed().as_secs_f64();
            best = best.max((messages * MIB) as f64 / 1e6 / secs);
        }
    }
    best
}

/// Nanoseconds per carried update of the memoized codec.
#[derive(Clone, Copy, Default, Debug)]
pub struct CodecProbe {
    pub encode_ns: f64,
    pub decode_ns: f64,
}

const CODEC_LIST: usize = 1 << 20;
const CODEC_REPEATS: usize = 9;

fn codec<V: gluon::SyncValue>(updated: &[u32], value_at: impl Fn(usize) -> V + Copy) -> CodecProbe {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..CODEC_REPEATS {
        let t = Instant::now();
        let msg = encode_memoized(CODEC_LIST, black_box(updated), value_at);
        enc.push(t.elapsed().as_secs_f64());
        let mut carried = 0usize;
        let t = Instant::now();
        decode_memoized::<V>(black_box(&msg), CODEC_LIST, &mut |pos, v| {
            black_box((pos, v));
            carried += 1;
        })
        .expect("the encoder's own payload decodes");
        dec.push(t.elapsed().as_secs_f64());
        assert_eq!(carried, updated.len(), "codec dropped updates");
    }
    let per_update = |secs: &[f64]| p25(secs) * 1e9 / updated.len() as f64;
    CodecProbe {
        encode_ns: per_update(&enc),
        decode_ns: per_update(&dec),
    }
}

/// `encode_memoized` / `decode_memoized` over a 2²⁰-entry proxy list: 1 %
/// of it as `u32` (a sparse bfs frontier) and all of it as `f64` (a dense
/// pagerank round). Returns `(sparse, dense)`.
pub fn codec_probes(spans: &Spans, root: Option<usize>) -> (CodecProbe, CodecProbe) {
    let every_100th: Vec<u32> = (0..CODEC_LIST as u32).step_by(100).collect();
    let all: Vec<u32> = (0..CODEC_LIST as u32).collect();
    let t = spans.open("probe.codec.sparse", root, None);
    let sparse = codec(&every_100th, |p| (p as u32).wrapping_mul(2_654_435_761));
    spans.close(t);
    let t = spans.open("probe.codec.dense", root, None);
    let dense = codec(&all, |p| 1.0 / (p as f64 + 1.5));
    spans.close(t);
    (sparse, dense)
}

const DISPATCH_OPS: usize = 1000;
/// Elements per dispatched op: 64 chunks of the pool's minimum width.
const DISPATCH_LEN: usize = 4096;

/// Microseconds per trivial `Pool::map_chunks` at `threads` workers.
pub fn dispatch_us(threads: usize, scale: Scale, spans: &Spans, root: Option<usize>) -> f64 {
    let pool = Pool::new(threads);
    let t = spans.open("probe.exec.dispatch", root, None);
    let us = per_call_us(scale.iters(DISPATCH_OPS), || {
        black_box(pool.map_chunks(DISPATCH_LEN, |r| r.len()));
    });
    spans.close(t);
    us
}
