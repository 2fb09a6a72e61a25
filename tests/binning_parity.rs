//! Parity battery for push-style update binning.
//!
//! The binned hot path scatters candidate updates into one bin per pool
//! worker in parallel, each exec chunk noting its span, and drains the
//! spans in chunk order on the calling thread. The
//! contract is *bit-identity with the sequential fold*: each destination
//! sees its candidates in the same (chunk, edge) order at any thread
//! count, so labels and activations never depend on parallelism.

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

    /// Any thread count reproduces the sequential fold's labels and
    /// activations: the drain applies the bins in (chunk, edge) order,
    /// which is the fold's own order.
    #[test]
    fn any_thread_count_preserves_the_fold(
        n in 65usize..600,
        seed in any::<u64>(),
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
        let mut bins: BinScratch<u32> = BinScratch::new();
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
        prop_assert_eq!(&labels, &want_labels, "threads {}", threads);
        prop_assert_eq!(bins.activated(), &want_active[..], "threads {}", threads);
    }
}
