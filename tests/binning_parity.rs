//! Parity battery for partition-centric update binning.
//!
//! The binned hot path scatters candidate updates into cache-sized
//! destination-partition bins and drains the partitions in parallel.
//! The contract is *bit-identity with the sequential fold*: each
//! destination sees its candidates in the same (chunk, edge) order at
//! any partition width, so labels and activations never depend on the
//! geometry — from 64-slot partitions up to a single partition spanning
//! the local id space (the flat fold itself).

use gluon_suite::graph::Lid;
use gluon_suite::substrate::{BinScratch, Pool};
use proptest::prelude::*;

/// Oracle for the property below: fold every candidate in (member,
/// edge) order sequentially, keeping per-destination minima, and record
/// which destinations improved.
fn sequential_min_fold(
    n: usize,
    members: &[Lid],
    edges: &[Vec<(u32, u32)>],
    labels: &[u32],
) -> (Vec<u32>, Vec<Lid>) {
    let mut out = labels.to_vec();
    let initial = labels.to_vec();
    for &m in members {
        let lv = initial[m.index()];
        for &(dst, w) in &edges[m.index()] {
            let candidate = lv.saturating_add(w);
            if candidate < out[dst as usize] {
                out[dst as usize] = candidate;
            }
        }
    }
    let activated: Vec<Lid> = (0..n)
        .filter(|&i| out[i] < initial[i])
        .map(|i| Lid(i as u32))
        .collect();
    (out, activated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Varying the target partition width across the whole legal range
    /// (widths far smaller and far larger than the derived default, the
    /// default itself, and the single partition `1 << ceil(log2 n)`
    /// spanning the space) never changes labels or activations: the
    /// per-destination drain order is (chunk, edge) regardless of
    /// geometry.
    #[test]
    fn any_partition_width_preserves_the_fold(
        n in 65usize..600,
        seed in any::<u64>(),
        width_exp in 6u32..=14,
        threads in 1usize..=4,
    ) {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Random sparse "graph": each of n nodes gets 0..8 out-edges.
        let edges: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|_| {
                (0..(next() % 8))
                    .map(|_| ((next() % n as u64) as u32, (next() % 50) as u32))
                    .collect()
            })
            .collect();
        let members: Vec<Lid> = (0..n as u32).filter(|_| next() % 3 == 0).map(Lid).collect();
        let init: Vec<u32> = (0..n).map(|_| (next() % 1000) as u32).collect();

        let (want_labels, want_active) = sequential_min_fold(n, &members, &edges, &init);

        let pool = Pool::new(threads);
        let flat = n.next_power_of_two();
        for width in [Some(1usize << width_exp), Some(flat), None] {
            let mut bins: BinScratch<u32> = BinScratch::new();
            bins.set_width_override(width);
            let mut labels = init.clone();
            bins.run(
                &pool,
                &members,
                &mut labels,
                |m| edges[m.index()].len() as u64,
                |chunk, labels, sink| {
                    for &m in chunk {
                        let lv = labels[m.index()];
                        for &(dst, w) in &edges[m.index()] {
                            sink.push(Lid(dst), lv.saturating_add(w));
                        }
                    }
                },
                |_dst, candidate, slot| {
                    if candidate < *slot {
                        *slot = candidate;
                        true
                    } else {
                        false
                    }
                },
            );
            prop_assert_eq!(&labels, &want_labels, "width {:?} diverged", width);
            prop_assert_eq!(bins.activated(), &want_active[..], "width {:?}", width);
        }
    }
}
