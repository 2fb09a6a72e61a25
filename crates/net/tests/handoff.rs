//! The in-memory endpoint's contracts, pinned one test each: what the
//! single-index inbox and the poll-then-park receive must keep doing for
//! the layers stacked on them.

use bytes::Bytes;
use gluon_net::{MemoryTransport, NetError, Transport};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// A cancelled receive returns after at most one 1 ms poll of the parked
/// stage; the bound leaves room for a loaded two-core test box.
const PROMPT: Duration = Duration::from_millis(500);

/// Longer than the polling stage by two orders of magnitude: a receiver
/// that has waited this long is parked.
const UNTIL_PARKED: Duration = Duration::from_millis(5);

fn number(i: u32) -> Bytes {
    Bytes::copy_from_slice(&i.to_le_bytes())
}

#[test]
fn fifo_per_source_when_sources_interleave_under_one_tag() {
    let eps = MemoryTransport::cluster(3);
    for i in 0..8 {
        eps[0].try_send(2, 5, number(i)).expect("send");
        eps[1].try_send(2, 5, number(100 + i)).expect("send");
    }
    // The later source first: its messages sit behind the other's.
    for i in 0..4 {
        assert_eq!(eps[2].try_recv(1, 5).expect("recv"), number(100 + i));
    }
    // A tag-only receive takes the oldest message left, whoever sent it.
    let env = eps[2].try_recv_any(5).expect("recv any");
    assert_eq!((env.src, env.payload), (0, number(0)));
    for i in 1..8 {
        assert_eq!(eps[2].try_recv(0, 5).expect("recv"), number(i));
    }
    for i in 4..8 {
        assert_eq!(eps[2].try_recv(1, 5).expect("recv"), number(100 + i));
    }
    assert_eq!(eps[2].try_recv_any_now(5).expect("poll"), None);
}

#[test]
fn exact_and_any_receives_share_one_pool() {
    let eps = MemoryTransport::cluster(2);
    eps[0].try_send(1, 3, number(1)).expect("send");
    eps[0].try_send(1, 3, number(2)).expect("send");
    assert_eq!(eps[1].try_recv_any(3).expect("any").payload, number(1));
    assert_eq!(eps[1].try_recv(0, 3).expect("exact"), number(2));
    // Each message was enqueued once: neither receive sees it again.
    assert_eq!(eps[1].try_recv_any_now(3).expect("poll"), None);
}

#[test]
fn a_send_to_a_departed_endpoint_fails_typed() {
    let mut eps = MemoryTransport::cluster(3);
    eps[0].note_round(5);
    drop(eps.pop());
    assert_eq!(
        eps[0].try_send(2, 1, number(9)),
        Err(NetError::PeerDown { peer: 2, round: 5 })
    );
    // The send was still counted, and the survivors still talk.
    assert_eq!(eps[0].stats().total_messages(), 1);
    eps[0].try_send(1, 1, number(4)).expect("send");
    assert_eq!(eps[1].try_recv(0, 1).expect("recv"), number(4));
}

#[test]
fn polls_see_what_has_arrived() {
    let eps = MemoryTransport::cluster(2);
    assert_eq!(eps[1].try_recv_any_now(8).expect("poll"), None);
    eps[0].try_send(1, 8, number(7)).expect("send");
    let env = eps[1].try_recv_any_now(8).expect("poll").expect("arrived");
    assert_eq!((env.src, env.tag, env.payload), (0, 8, number(7)));
}

/// A blocked receive on endpoint 1, released by `release` (handed the
/// other endpoints, which otherwise live until the receive has returned)
/// on the main thread `after` the two threads have met; returns the
/// receive's result and how long past the release it took.
fn blocked_receive(
    mut eps: Vec<MemoryTransport>,
    after: Duration,
    release: impl FnOnce(&mut Vec<MemoryTransport>),
) -> (Result<Bytes, NetError>, Duration) {
    let receiver = eps.remove(1);
    let meet = Barrier::new(2);
    thread::scope(|s| {
        let blocked = s.spawn(|| {
            meet.wait();
            let res = receiver.try_recv(0, 2);
            (res, Instant::now())
        });
        meet.wait();
        thread::sleep(after);
        let released = Instant::now();
        release(&mut eps);
        let (res, returned) = blocked.join().expect("receiver thread");
        (res, returned.saturating_duration_since(released))
    })
}

#[test]
fn a_tripped_token_ends_a_polling_receive() {
    let eps = MemoryTransport::cluster(2);
    let token = eps[0].cancel_token();
    let (res, took) = blocked_receive(eps, Duration::ZERO, |_| token.trip());
    assert_eq!(res.unwrap_err(), NetError::Cancelled);
    assert!(took < PROMPT, "cancellation took {took:?}");
}

#[test]
fn a_tripped_token_ends_a_parked_receive() {
    let eps = MemoryTransport::cluster(2);
    let token = eps[0].cancel_token();
    let (res, took) = blocked_receive(eps, UNTIL_PARKED, |_| token.trip());
    assert_eq!(res.unwrap_err(), NetError::Cancelled);
    assert!(took < PROMPT, "cancellation took {took:?}");
}

#[test]
fn the_named_peer_departing_ends_a_blocked_receive() {
    for after in [Duration::ZERO, UNTIL_PARKED] {
        let eps = MemoryTransport::cluster(3);
        let (res, took) = blocked_receive(eps, after, |eps| drop(eps.remove(0)));
        assert_eq!(res.unwrap_err(), NetError::PeerDown { peer: 0, round: 0 });
        assert!(took < PROMPT, "departure took {took:?} to notice");
    }
}

#[test]
fn another_peer_departing_leaves_a_named_receive_waiting() {
    let eps = MemoryTransport::cluster(3);
    let (res, _) = blocked_receive(eps, UNTIL_PARKED, |eps| {
        drop(eps.remove(1));
        thread::sleep(UNTIL_PARKED);
        eps[0].try_send(1, 2, number(3)).expect("send");
    });
    assert_eq!(res.expect("delivered"), number(3));
}

#[test]
fn a_message_sent_before_departure_outranks_it() {
    let eps = MemoryTransport::cluster(2);
    let (res, _) = blocked_receive(eps, UNTIL_PARKED, |eps| {
        eps[0].try_send(1, 2, number(5)).expect("send");
        eps.clear();
    });
    assert_eq!(res.expect("delivered"), number(5));
}

#[test]
fn a_parked_receiver_is_woken_by_the_send() {
    let eps = MemoryTransport::cluster(2);
    let (res, took) = blocked_receive(eps, UNTIL_PARKED, |eps| {
        eps[0].try_send(1, 2, number(6)).expect("send");
    });
    assert_eq!(res.expect("delivered"), number(6));
    assert!(took < PROMPT, "wake took {took:?}");
}
