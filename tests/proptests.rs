//! Property-based tests over the core invariants of the system.

use bytes::Bytes;
use gluon_suite::algos::{driver, reference, Algorithm, DistConfig, EngineKind};
use gluon_suite::graph::{gen, Csr, Gid};
use gluon_suite::net::{Envelope, MemoryTransport, NetError, NetStats, Transport};
use gluon_suite::partition::{check_local_graph, check_partitions, partition_all, Policy};
use gluon_suite::substrate::encode::{
    candidate_sizes, decode_gid_values, decode_memoized, encode_gid_values, encode_memoized,
    WireMode,
};
use gluon_suite::substrate::OptLevel;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

/// Delivers any-tag receives in a seeded random order among the frames
/// currently available, instead of the wire's arrival order. The
/// sync schedule's eager-decode drain consumes frames through
/// the any-path in whatever order peers produce them; this wrapper
/// explores *every* such order, so the in-order apply pass must make the
/// post-apply field state arrival-order invariant for the runs below to
/// stay bit-identical.
#[derive(Debug)]
struct ShuffledAnyTransport {
    inner: MemoryTransport,
    /// Frames pulled off the wire but not yet handed to the caller,
    /// keyed by tag.
    pending: Mutex<HashMap<u32, Vec<Envelope>>>,
    rng: Mutex<u64>,
}

impl ShuffledAnyTransport {
    fn new(inner: MemoryTransport, seed: u64) -> ShuffledAnyTransport {
        // Distinct per-rank streams so hosts do not shuffle in lock-step.
        let rank = inner.rank() as u64;
        ShuffledAnyTransport {
            inner,
            pending: Mutex::new(HashMap::new()),
            rng: Mutex::new(seed ^ (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1),
        }
    }

    fn next_rand(&self) -> u64 {
        let mut s = self.rng.lock().expect("rng lock");
        // SplitMix64: deterministic for a given (seed, rank, call index).
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Moves every frame already available on the wire into the pending
    /// buffer for `tag`.
    fn pump(&self, tag: u32) {
        while let Ok(Some(env)) = self.inner.try_recv_any_now(tag) {
            self.pending
                .lock()
                .expect("pending lock")
                .entry(tag)
                .or_default()
                .push(env);
        }
    }

    /// Removes a uniformly random buffered frame for `tag`, if any.
    fn pick(&self, tag: u32) -> Option<Envelope> {
        let mut pending = self.pending.lock().expect("pending lock");
        let queue = pending.get_mut(&tag)?;
        if queue.is_empty() {
            return None;
        }
        let idx = (self.next_rand() % queue.len() as u64) as usize;
        Some(queue.swap_remove(idx))
    }
}

impl Transport for ShuffledAnyTransport {
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
        // Exact-source receives must still see frames the any-path pump
        // already pulled off the wire.
        {
            let mut pending = self.pending.lock().expect("pending lock");
            if let Some(queue) = pending.get_mut(&tag) {
                if let Some(pos) = queue.iter().position(|e| e.src == src) {
                    return Ok(queue.remove(pos).payload);
                }
            }
        }
        self.inner.try_recv(src, tag)
    }

    fn try_recv_any(&self, tag: u32) -> Result<Envelope, NetError> {
        loop {
            self.pump(tag);
            if let Some(env) = self.pick(tag) {
                return Ok(env);
            }
            // Nothing buffered: wait for one frame, then re-pump so any
            // near-simultaneous arrivals shuffle with it.
            let env = self.inner.try_recv_any(tag)?;
            self.pending
                .lock()
                .expect("pending lock")
                .entry(tag)
                .or_default()
                .push(env);
        }
    }

    fn try_recv_any_now(&self, tag: u32) -> Result<Option<Envelope>, NetError> {
        self.pump(tag);
        Ok(self.pick(tag))
    }

    fn note_round(&self, round: u64) {
        self.inner.note_round(round);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
}

/// Arbitrary small directed graphs as (node count, edge list).
fn arb_graph() -> impl Strategy<Value = Csr> {
    (2u32..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1u32..20), 0..200);
        edges.prop_map(move |es| Csr::from_weighted_edge_list(n, &es))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_preserve_every_invariant(graph in arb_graph(), hosts in 1usize..6) {
        for policy in Policy::ALL {
            let parts = partition_all(&graph, hosts, policy);
            for p in &parts {
                check_local_graph(p).expect("local invariants");
            }
            check_partitions(&parts).expect("global invariants");
        }
    }

    #[test]
    fn transpose_is_an_involution(graph in arb_graph()) {
        let tt = graph.transpose().transpose();
        let mut a: Vec<_> = graph.edges().map(|(s, e)| (s.0, e.dst.0, e.weight)).collect();
        let mut b: Vec<_> = tt.edges().map(|(s, e)| (s.0, e.dst.0, e.weight)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn memoized_encoding_round_trips(
        list_len in 1usize..500,
        seed_positions in proptest::collection::btree_set(0u32..500, 0..120),
    ) {
        let updated: Vec<u32> = seed_positions
            .into_iter()
            .filter(|&p| (p as usize) < list_len)
            .collect();
        let value_at = |p: usize| (p as u64) * 3 + 1;
        let msg = encode_memoized(list_len, &updated, value_at);
        let mut got = Vec::new();
        decode_memoized::<u64>(&msg, list_len, &mut |pos, v| got.push((pos, v)))
            .expect("own encoding decodes");
        // Every updated position must come back with its value; dense mode
        // may add extra (but correct) positions.
        prop_assert!(got.iter().all(|&(p, v)| v == value_at(p)));
        let got_pos: std::collections::BTreeSet<usize> = got.iter().map(|&(p, _)| p).collect();
        for &u in &updated {
            prop_assert!(got_pos.contains(&(u as usize)), "missing {u}");
        }
        if WireMode::of(&msg) != WireMode::Dense {
            prop_assert_eq!(got.len(), updated.len());
        }
    }

    #[test]
    fn memoized_encoding_never_beats_itself(
        list_len in 1usize..300,
        stride in 1usize..50,
    ) {
        // The chosen mode must be no larger than the bit-vector encoding,
        // which is never larger than ~list_len/8 + k * value bytes.
        let updated: Vec<u32> = (0..list_len as u32).step_by(stride).collect();
        let msg = encode_memoized(list_len, &updated, |p| p as u32);
        let bitvec_size = 1 + list_len.div_ceil(8) + updated.len() * 4;
        prop_assert!(msg.len() <= bitvec_size);
    }

    #[test]
    fn adaptive_selection_picks_the_minimum_candidate(
        list_len in 1usize..400,
        seed_positions in proptest::collection::btree_set(0u32..400, 1..150),
        same in any::<bool>(),
    ) {
        let mut updated: Vec<u32> = seed_positions
            .into_iter()
            .filter(|&p| (p as usize) < list_len)
            .collect();
        if updated.is_empty() {
            // Position 0 always fits; keeps the list sorted and non-empty.
            updated.push(0);
        }
        let value_at = |p: usize| if same { 7u32 } else { p as u32 + 1 };
        let msg = encode_memoized(list_len, &updated, value_at);
        // A single value is trivially "all equal" even when `same` is false.
        let identical = same || updated.len() == 1;
        let min = candidate_sizes::<u32>(list_len, &updated, identical, true)
            .into_iter()
            .map(|(_, size)| size)
            .min()
            .expect("at least one candidate");
        prop_assert_eq!(msg.len(), min);
    }

    #[test]
    fn gid_value_encoding_round_trips(
        pairs in proptest::collection::vec((0u32..10_000, any::<u32>()), 0..200),
    ) {
        let typed: Vec<(Gid, u32)> = pairs.iter().map(|&(g, v)| (Gid(g), v)).collect();
        let msg = encode_gid_values(&typed);
        let mut got = Vec::new();
        decode_gid_values::<u32>(&msg, &mut |g, v| got.push((g, v)))
            .expect("own encoding decodes");
        prop_assert_eq!(got, typed);
    }

    #[test]
    fn distributed_bfs_matches_oracle_on_arbitrary_graphs(
        graph in arb_graph(),
        hosts in 1usize..5,
        source_raw in 0u32..60,
    ) {
        let source = Gid(source_raw % graph.num_nodes());
        let cfg = DistConfig {
            hosts,
            policy: Policy::Cvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let out = driver::Run::new(&graph, Algorithm::Bfs).config(&cfg).source(source).pagerank(Default::default()).launch();
        // bfs on the weighted graph still walks hop counts.
        let oracle = reference::bfs(&graph, source);
        prop_assert_eq!(out.int_labels, oracle);
    }

    #[test]
    fn distributed_cc_matches_oracle_on_arbitrary_graphs(
        graph in arb_graph(),
        hosts in 1usize..5,
    ) {
        let cfg = DistConfig {
            hosts,
            policy: Policy::Hvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Irgl,
        };
        let out = driver::Run::new(&graph, Algorithm::Cc).config(&cfg).launch();
        prop_assert_eq!(out.int_labels, reference::cc(&graph));
    }

    #[test]
    fn gemini_bfs_matches_oracle_on_arbitrary_graphs(
        graph in arb_graph(),
        hosts in 1usize..5,
        source_raw in 0u32..60,
    ) {
        let source = Gid(source_raw % graph.num_nodes());
        let out = gluon_suite::gemini::run(
            &graph,
            hosts,
            gluon_suite::gemini::GeminiAlgo::Bfs(source),
        );
        prop_assert_eq!(out.int_labels, reference::bfs(&graph, source));
    }

    #[test]
    fn distributed_kcore_matches_oracle_on_arbitrary_graphs(
        graph in arb_graph(),
        hosts in 1usize..5,
        k in 0u32..6,
    ) {
        let cfg = DistConfig {
            hosts,
            policy: Policy::Cvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let out = driver::Run::kcore(&graph, k).config(&cfg).launch();
        let core = reference::kcore(&graph);
        for (v, (&alive, &c)) in out.int_labels.iter().zip(&core).enumerate() {
            prop_assert_eq!(alive, u32::from(c >= k), "node {} k {}", v, k);
        }
    }

    #[test]
    fn eager_decode_is_arrival_order_invariant(
        seed in any::<u64>(),
        float_values in any::<bool>(),
    ) {
        // The in-order apply invariant: feeding the sync schedule's
        // eager-decode drain a *random* cross-peer frame arrival order
        // must produce the same post-apply field state as the wire's own
        // arrival order — observable as bit-identical labels/ranks,
        // rounds, and wire counters against the un-shuffled run. Pagerank
        // covers the non-associative float path where apply order would
        // otherwise leak into the results.
        let graph = gen::rmat(6, 8, Default::default(), 7);
        let algo = if float_values { Algorithm::Pagerank } else { Algorithm::Bfs };
        let cfg = DistConfig {
            hosts: 3,
            policy: Policy::Cvc,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let baseline = driver::Run::new(&graph, algo).config(&cfg).launch();
        let shuffled = driver::Run::new(&graph, algo)
            .config(&cfg)
            .threads(4)
            .transport(move |ep| ShuffledAnyTransport::new(ep, seed))
            .launch();
        prop_assert_eq!(shuffled.rounds, baseline.rounds);
        prop_assert_eq!(&shuffled.int_labels, &baseline.int_labels);
        let got: Vec<u64> = shuffled.ranks.iter().map(|r| r.to_bits()).collect();
        let want: Vec<u64> = baseline.ranks.iter().map(|r| r.to_bits()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(shuffled.run.total_bytes, baseline.run.total_bytes);
        prop_assert_eq!(shuffled.run.total_messages, baseline.run.total_messages);
    }

    #[test]
    fn replication_factor_at_least_one(graph in arb_graph(), hosts in 1usize..6) {
        for policy in Policy::ALL {
            let stats = gluon_suite::partition::PartitionStats::of(
                &partition_all(&graph, hosts, policy),
            );
            prop_assert!(stats.replication_factor >= 1.0 - 1e-12);
            prop_assert!(stats.replication_factor <= hosts as f64 + 1e-12);
        }
    }
}
