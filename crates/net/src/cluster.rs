//! SPMD cluster simulation: one OS thread per host.

use crate::stats::NetStats;
use crate::transport::{CancelToken, MemoryTransport, Transport};
use std::thread;

/// Runs `program` once per simulated host, in parallel, and returns the
/// per-host results in rank order.
///
/// This is the `mpirun` of the workspace: the closure receives that host's
/// [`MemoryTransport`] endpoint and executes the same program on every rank.
///
/// # Examples
///
/// ```
/// use gluon_net::{run_cluster, Communicator, Transport};
///
/// let totals = run_cluster(4, |ep| {
///     let comm = Communicator::new(ep);
///     comm.all_reduce_u64(1, |a, b| a + b)
/// });
/// assert_eq!(totals, vec![4, 4, 4, 4]);
/// ```
///
/// # Panics
///
/// Panics if any host's program panics (the panic is propagated).
pub fn run_cluster<R, F>(world_size: usize, program: F) -> Vec<R>
where
    R: Send,
    F: Fn(&MemoryTransport) -> R + Send + Sync,
{
    run_cluster_with_stats(world_size, NetStats::new(world_size), program).0
}

/// As [`run_cluster`], but with caller-provided counters; returns the
/// results together with the stats so callers can inspect traffic.
///
/// # Panics
///
/// Panics if any host's program panics, or if `stats` was sized for a
/// different world size.
pub fn run_cluster_with_stats<R, F>(
    world_size: usize,
    stats: NetStats,
    program: F,
) -> (Vec<R>, NetStats)
where
    R: Send,
    F: Fn(&MemoryTransport) -> R + Send + Sync,
{
    spawn_hosts(world_size, stats, |ep| ep, |ep, _| program(ep), |_| true)
}

/// As [`run_cluster_with_stats`], but each host's endpoint is first passed
/// through `wrap`, so the whole cluster runs over a wrapped transport stack
/// (jitter, fault injection, or both).
///
/// Endpoints are moved into `wrap` (wrappers own their inner transport),
/// so `program` receives the wrapped transport by reference.
///
/// # Examples
///
/// ```
/// use gluon_net::{run_cluster_wrapped, Communicator, JitterTransport,
///                 NetStats, Transport};
///
/// let (totals, _stats) = run_cluster_wrapped(
///     3,
///     NetStats::new(3),
///     |ep| JitterTransport::new(ep, 7),
///     |net| Communicator::new(net).all_reduce_u64(1, |a, b| a + b),
/// );
/// assert_eq!(totals, vec![3, 3, 3]);
/// ```
///
/// # Panics
///
/// Panics if any host's program panics, or if `stats` was sized for a
/// different world size.
pub fn run_cluster_wrapped<W, R, WrapF, ProgF>(
    world_size: usize,
    stats: NetStats,
    wrap: WrapF,
    program: ProgF,
) -> (Vec<R>, NetStats)
where
    W: Transport,
    R: Send,
    WrapF: Fn(MemoryTransport) -> W + Send + Sync,
    ProgF: Fn(&W) -> R + Send + Sync,
{
    spawn_hosts(world_size, stats, wrap, |net, _| program(net), |_| true)
}

/// As [`run_cluster_wrapped`], but the per-host program is *fallible*: it
/// returns a `Result` and additionally receives the cluster's shared
/// [`CancelToken`].
///
/// A host that returns `Err` is down for its peers as soon as its endpoint
/// drops: they see [`crate::NetError::PeerDown`], so a host simulating its
/// own crash needs to do nothing more. A host that returns `Ok` leaves
/// quietly, as does every host of the infallible runners. The runner never
/// trips the token itself — that is the program's (or a supervisor's)
/// decision. A program may `token.trip()` before returning `Err` to make
/// every sibling blocked inside the in-memory transport return
/// [`crate::NetError::Cancelled`] instead.
///
/// All per-host results — `Ok` and `Err` alike — are returned in rank
/// order; classification is the caller's job.
///
/// # Panics
///
/// Panics if any host's program panics, or if `stats` was sized for a
/// different world size.
pub fn run_cluster_fallible<W, R, E, WrapF, ProgF>(
    world_size: usize,
    stats: NetStats,
    wrap: WrapF,
    program: ProgF,
) -> (Vec<Result<R, E>>, NetStats)
where
    W: Transport,
    R: Send,
    E: Send,
    WrapF: Fn(MemoryTransport) -> W + Send + Sync,
    ProgF: Fn(&W, &CancelToken) -> Result<R, E> + Send + Sync,
{
    spawn_hosts(world_size, stats, wrap, program, Result::is_ok)
}

/// The scoped-thread core of every runner above: one named thread per
/// host, each passing its endpoint through `wrap` and running `program`
/// on the result with the cluster's shared [`CancelToken`]. Results come
/// back in rank order; a host's panic is re-raised in the caller.
///
/// A host whose result `finished` accepts leaves quietly: a peer may still
/// be draining what it sent, and an any-source receive fails once any
/// peer is down. Any other host — one that failed, crashed or panicked —
/// is down for its peers as soon as its endpoint drops.
fn spawn_hosts<W, R, WrapF, ProgF>(
    world_size: usize,
    stats: NetStats,
    wrap: WrapF,
    program: ProgF,
    finished: fn(&R) -> bool,
) -> (Vec<R>, NetStats)
where
    W: Transport,
    R: Send,
    WrapF: Fn(MemoryTransport) -> W + Send + Sync,
    ProgF: Fn(&W, &CancelToken) -> R + Send + Sync,
{
    let endpoints = MemoryTransport::cluster_with_stats(world_size, stats.clone());
    let results = thread::scope(|s| {
        let wrap = &wrap;
        let program = &program;
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let rank = ep.rank();
                let token = ep.cancel_token();
                let departure = ep.departure();
                thread::Builder::new()
                    .name(format!("host-{rank}"))
                    .spawn_scoped(s, move || {
                        let net = wrap(ep);
                        let result = program(&net, &token);
                        if finished(&result) {
                            departure.quietly();
                        }
                        result
                    })
                    .expect("spawn host thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use crate::transport::Transport;

    #[test]
    fn results_are_in_rank_order() {
        let ranks = run_cluster(5, |ep| ep.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stats_are_returned() {
        let (_, stats) = run_cluster_with_stats(3, NetStats::new(3), |ep| {
            let comm = Communicator::new(ep);
            comm.all_gather(bytes::Bytes::from_static(b"xy"));
        });
        // Each host sends its 2-byte payload to the 2 others.
        assert_eq!(stats.total_bytes(), 3 * 2 * 2);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn panics_propagate() {
        run_cluster(2, |ep| {
            if ep.rank() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn a_host_that_fails_is_down_for_its_peers() {
        use crate::error::NetError;

        let (results, _) = run_cluster_fallible(
            3,
            NetStats::new(3),
            |ep| ep,
            |net, _token| -> Result<u64, NetError> {
                let comm = Communicator::new(net);
                net.note_round(2);
                // Every host has noted round 2 before host 2 can leave.
                comm.try_barrier()?;
                if net.rank() == 2 {
                    // Fails without a word: its endpoint closes on return.
                    return Err(NetError::HostCrashed { host: 2, round: 2 });
                }
                comm.try_all_reduce_u64(1, |a, b| a + b)
            },
        );
        for (rank, r) in results.into_iter().enumerate().take(2) {
            match r {
                Err(NetError::PeerDown { peer, round: 2 }) => assert_ne!(peer, rank),
                other => panic!("host {rank}: expected PeerDown at round 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_host_that_finishes_leaves_quietly() {
        // Host 1 leaves as soon as its frame is sent; host 0 waits on an
        // any-source receive that host 2 answers only later. A finished
        // host must not read as a dead peer meanwhile.
        let (got, _) = run_cluster_fallible(
            3,
            NetStats::new(3),
            |ep| ep,
            |net, _token| -> Result<usize, crate::error::NetError> {
                match net.rank() {
                    0 => {
                        let first = net.try_recv_any(1)?.src;
                        let second = net.try_recv_any(1)?.src;
                        Ok(first + second)
                    }
                    1 => {
                        net.try_send(0, 1, bytes::Bytes::new())?;
                        Ok(0)
                    }
                    _ => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        net.try_send(0, 1, bytes::Bytes::new())?;
                        Ok(0)
                    }
                }
            },
        );
        assert_eq!(got[0], Ok(3));
    }

    #[test]
    fn fallible_cluster_returns_per_host_results() {
        let (results, _) = run_cluster_fallible(
            3,
            NetStats::new(3),
            |ep| ep,
            |net, _token| -> Result<usize, crate::error::NetError> {
                Communicator::new(net).barrier();
                Ok(net.rank() * 10)
            },
        );
        let values: Vec<_> = results.into_iter().map(|r| r.expect("all ok")).collect();
        assert_eq!(values, vec![0, 10, 20]);
    }

    #[test]
    fn tripped_token_aborts_a_blocked_sibling_promptly() {
        use crate::error::NetError;
        use std::time::{Duration, Instant};

        let started = Instant::now();
        let (results, _) = run_cluster_fallible(
            2,
            NetStats::new(2),
            |ep| ep,
            |net, token| -> Result<(), NetError> {
                if net.rank() == 0 {
                    // Host 0 fails immediately and tells everyone.
                    token.trip();
                    return Err(NetError::Cancelled);
                }
                // Host 1 waits for a message that will never come; the
                // token must unblock it, not a timeout.
                match net.try_recv(0, 0) {
                    Ok(_) => panic!("no message was ever sent"),
                    Err(e) => Err(e),
                }
            },
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cancellation must be prompt"
        );
        for r in results {
            assert_eq!(r.expect_err("both hosts abort"), NetError::Cancelled);
        }
    }

    #[test]
    fn single_host_cluster_works() {
        let out = run_cluster(1, |ep| {
            let comm = Communicator::new(ep);
            comm.barrier();
            comm.all_reduce_u64(9, |a, b| a + b)
        });
        assert_eq!(out, vec![9]);
    }
}
