//! Collectives under adverse transports.
//!
//! The collectives are specified to work over any [`Transport`] whose
//! per-stream FIFO guarantee holds. [`JitterTransport`] is the adversary:
//! lossless cross-stream reordering that the collectives' own tag
//! discipline must cope with.

use bytes::Bytes;
use gluon_net::{run_cluster_wrapped, Communicator, JitterTransport, NetStats, Transport};

const HOSTS: usize = 4;
const SEEDS: [u64; 3] = [3, 41, 0xDEAD_BEEF];

/// One workout touching every collective the substrate relies on; returns
/// per-host evidence that is asserted identically for every transport.
fn collective_workout<T: Transport>(net: &T) -> (u64, Vec<u8>, bool) {
    let comm = Communicator::new(net);
    comm.barrier();
    let rank = comm.rank() as u64;
    let sum = comm.all_reduce_u64(rank + 1, u64::wrapping_add);
    let gathered = comm.all_gather(Bytes::copy_from_slice(&[comm.rank() as u8]));
    let roster: Vec<u8> = gathered.iter().map(|b| b[0]).collect();
    comm.barrier();
    let anyone = comm.any(comm.rank() == HOSTS - 1);
    // A second round over the same tags: epoch bumping must keep rounds
    // from bleeding into each other even when frames arrive out of order.
    let sum2 = comm.all_reduce_u64(rank + 1, u64::wrapping_add);
    assert_eq!(sum, sum2, "rank {rank}: two identical rounds disagreed");
    (sum, roster, anyone)
}

fn assert_workout(results: Vec<(u64, Vec<u8>, bool)>, label: &str) {
    let expected_sum = (1..=HOSTS as u64).sum::<u64>();
    let expected_roster: Vec<u8> = (0..HOSTS as u8).collect();
    for (rank, (sum, roster, anyone)) in results.into_iter().enumerate() {
        assert_eq!(sum, expected_sum, "{label}: all_reduce wrong on {rank}");
        assert_eq!(
            roster, expected_roster,
            "{label}: all_gather wrong on {rank}"
        );
        assert!(anyone, "{label}: any() lost the vote on {rank}");
    }
}

#[test]
fn collectives_survive_jitter() {
    for seed in SEEDS {
        let (results, _) = run_cluster_wrapped(
            HOSTS,
            NetStats::new(HOSTS),
            move |ep| {
                let salt = ep.rank() as u64;
                JitterTransport::new(ep, seed ^ salt)
            },
            collective_workout,
        );
        assert_workout(results, "jitter");
    }
}
