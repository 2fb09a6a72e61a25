//! What one hand-off over [`MemoryTransport`] costs, on its own clock.
//!
//! A round of a high-diameter run is a few of these and little else, so
//! this is the loop to iterate on when touching the wire:
//!
//! * **ping-pong** — rank 0 sends 8 bytes to rank 1 and blocks in
//!   `try_recv` for the echo: two hand-offs per trip, nothing to overlap.
//! * **fan-in** — every other rank sends one message to rank 0, which
//!   takes them with `try_recv_any` and answers each: the shape of a sync
//!   round's receive side.
//! * **barrier** — `Communicator::barrier`, the dissemination pattern the
//!   termination vote shares.
//!
//! Each at 2 hosts (on a two-core box both own a core, and the reply
//! lands while the receiver is still polling) and at 8 (oversubscribed: a
//! receive that finds nothing must hand its core over, which is what the
//! yield between polls is for). Microseconds per operation, lower quartile
//! of ten batches.
//!
//! `-- --quick` runs a tenth of the iterations so CI can run the file in
//! well under a second; its numbers mean nothing.

use bytes::Bytes;
use gluon_net::{run_cluster, Communicator, MemoryTransport, Transport};
use std::time::Instant;

const PING_TAG: u32 = 1;
const PONG_TAG: u32 = 2;
const BATCHES: usize = 10;

/// Lower quartile over [`BATCHES`] batches of the mean microseconds per
/// call of `op`.
fn per_call_us(calls: usize, mut op: impl FnMut()) -> f64 {
    let per_batch = calls.div_ceil(BATCHES);
    let mut us: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[BATCHES / 4]
}

/// One ping-pong trip between ranks 0 and 1; the other ranks sit it out.
fn pingpong(net: &MemoryTransport) {
    let payload = Bytes::from_static(&[7; 8]);
    match net.rank() {
        0 => {
            net.try_send(1, PING_TAG, payload).expect("ping");
            net.try_recv(1, PONG_TAG).expect("pong arrives");
        }
        1 => {
            let ping = net.try_recv(0, PING_TAG).expect("ping arrives");
            net.try_send(0, PONG_TAG, ping).expect("pong");
        }
        _ => {}
    }
}

/// Everyone sends rank 0 one message and waits for its answer.
fn fan_in(net: &MemoryTransport) {
    let payload = Bytes::from_static(&[7; 8]);
    if net.rank() == 0 {
        for _ in 1..net.world_size() {
            let env = net.try_recv_any(PING_TAG).expect("fan-in arrives");
            net.try_send(env.src, PONG_TAG, env.payload)
                .expect("answer");
        }
    } else {
        net.try_send(0, PING_TAG, payload).expect("fan-in");
        net.try_recv(0, PONG_TAG).expect("answer arrives");
    }
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        10
    } else {
        1
    };
    println!(
        "MemoryTransport hand-offs, us per operation (p25 of {BATCHES} batches, {} cores)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "hosts", "pingpong", "fan-in", "barrier"
    );
    for hosts in [2usize, 8] {
        let calls = 20_000 / hosts / scale;
        let us = run_cluster(hosts, |net| {
            let comm = Communicator::new(net);
            let mut row = [0.0f64; 3];
            comm.barrier();
            row[0] = per_call_us(calls, || pingpong(net));
            comm.barrier();
            row[1] = per_call_us(calls, || fan_in(net));
            comm.barrier();
            row[2] = per_call_us(calls, || comm.barrier());
            row
        });
        // Rank 0 takes part in every pattern and waits in each.
        let [pingpong, fan_in, barrier] = us[0];
        println!("{hosts:>6} {pingpong:>10.2} {fan_in:>10.2} {barrier:>10.2}");
    }
}
