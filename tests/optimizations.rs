//! Tests of the paper's *claims about the optimizations* — not just that
//! configurations agree, but that each optimization actually buys what §3
//! and §4 say it buys.

use gluon_suite::algos::{driver, Algorithm, DistConfig, EngineKind};
use gluon_suite::gemini::{self, GeminiAlgo};
use gluon_suite::graph::{gen, max_out_degree_node};
use gluon_suite::metrics::{MetricsHub, MODE_MSG_COUNTER_NAMES};
use gluon_suite::net::{run_cluster, Communicator};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{
    DenseBitset, GluonContext, MinField, OptLevel, ReadLocation, SyncSpec, WriteLocation,
};

fn bytes_for(opts: OptLevel, policy: Policy, algo: Algorithm) -> u64 {
    let g = gen::twitter_like(4_000, 16, 31);
    let cfg = DistConfig {
        hosts: 6,
        policy,
        opts,
        engine: EngineKind::Galois,
    };
    driver::Run::new(&g, algo)
        .config(&cfg)
        .launch()
        .run
        .total_bytes
}

#[test]
fn temporal_invariance_cuts_volume_roughly_in_half() {
    // §4.1: dropping 32-bit global-IDs from messages carrying 32-bit values
    // should halve the volume (paper: "reducing the communication volume by
    // ~2x"). Codec-v2 compression is disabled on both sides so the ratio
    // measures memoization alone, not the compressed wire modes.
    let unopt = bytes_for(
        OptLevel::UNOPT.without_compression(),
        Policy::Oec,
        Algorithm::Cc,
    );
    let oti = bytes_for(
        OptLevel::OTI.without_compression(),
        Policy::Oec,
        Algorithm::Cc,
    );
    let ratio = unopt as f64 / oti as f64;
    assert!(
        (1.5..4.0).contains(&ratio),
        "expected ~2x volume cut from OTI, got {ratio:.2} ({unopt} vs {oti})"
    );
}

#[test]
fn structural_invariants_eliminate_oec_broadcast() {
    // §2.3/§3.2: under OEC, mirrors have no outgoing edges, so broadcast
    // can be skipped entirely — halving message counts for push
    // algorithms.
    let g = gen::rmat(9, 8, Default::default(), 32);
    let mk = |opts| DistConfig {
        hosts: 4,
        policy: Policy::Oec,
        opts,
        engine: EngineKind::Galois,
    };
    let unopt = driver::Run::new(&g, Algorithm::Bfs)
        .config(&mk(OptLevel::UNOPT))
        .launch();
    let osi = driver::Run::new(&g, Algorithm::Bfs)
        .config(&mk(OptLevel::OSI))
        .launch();
    assert!(
        osi.run.total_messages <= unopt.run.total_messages / 2 + 4,
        "OSI messages {} vs UNOPT {}",
        osi.run.total_messages,
        unopt.run.total_messages
    );
    assert!(osi.run.total_bytes < unopt.run.total_bytes);
}

#[test]
fn osti_is_the_cheapest_level() {
    for policy in [Policy::Oec, Policy::Cvc, Policy::Hvc] {
        let osti = bytes_for(OptLevel::OSTI, policy, Algorithm::Bfs);
        for other in [OptLevel::UNOPT, OptLevel::OSI, OptLevel::OTI] {
            let b = bytes_for(other, policy, Algorithm::Bfs);
            assert!(
                osti <= b,
                "{policy}: OSTI {osti} must not exceed {other} {b}"
            );
        }
    }
}

#[test]
fn memoization_overhead_is_bounded() {
    // §5.6: "the mean runtime overhead is ~4% of the execution time, and
    // the mean memory overhead is ~0.5%". We check the setup bytes are tiny
    // relative to the sync traffic on a communication-heavy run.
    let g = gen::rmat(10, 16, Default::default(), 33);
    let cfg = DistConfig {
        hosts: 4,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        engine: EngineKind::Galois,
    };
    let out = driver::Run::new(&g, Algorithm::Pagerank)
        .config(&cfg)
        .launch();
    let memo_bytes: u64 = out.host_stats.iter().map(|h| h.memo_bytes).sum();
    assert!(
        (memo_bytes as f64) < 0.25 * out.run.total_bytes as f64,
        "memoization setup {memo_bytes} vs sync traffic {}",
        out.run.total_bytes
    );
}

#[test]
fn cvc_reduces_fan_out_versus_unopt_broadcast() {
    // §5.6: with CVC, the optimized broadcast reaches far fewer hosts than
    // the unoptimized pattern. Fan-out = distinct destinations per host.
    let g = gen::twitter_like(4_000, 16, 34);
    let hosts = 9; // 3x3 CVC grid
    let mk = |opts| DistConfig {
        hosts,
        policy: Policy::Cvc,
        opts,
        engine: EngineKind::Galois,
    };
    let unopt = driver::Run::new(&g, Algorithm::Cc)
        .config(&mk(OptLevel::UNOPT))
        .launch();
    let osti = driver::Run::new(&g, Algorithm::Cc)
        .config(&mk(OptLevel::OSTI))
        .launch();
    let max_fan = |out: &gluon_suite::algos::DistOutcome| {
        (0..hosts).map(|h| out.net.fan_out(h)).max().unwrap_or(0)
    };
    assert!(
        max_fan(&osti) <= max_fan(&unopt),
        "OSTI fan-out {} vs UNOPT {}",
        max_fan(&osti),
        max_fan(&unopt)
    );
}

#[test]
fn gluon_beats_gemini_on_volume_for_every_benchmark() {
    let g = gen::twitter_like(3_000, 16, 35);
    let hosts = 8;
    let src = max_out_degree_node(&g);
    let sym = gluon_suite::algos::reference::symmetrize(&g);
    for algo in Algorithm::ALL {
        let (gem_bytes, input) = match algo {
            Algorithm::Bfs => (gemini::run(&g, hosts, GeminiAlgo::Bfs(src)), &g),
            Algorithm::Sssp => (gemini::run(&g, hosts, GeminiAlgo::Sssp(src)), &g),
            Algorithm::Cc => (gemini::run(&sym, hosts, GeminiAlgo::Cc), &g),
            Algorithm::Pagerank => (
                gemini::run(&g, hosts, GeminiAlgo::Pagerank(0.85, 1e-6, 100)),
                &g,
            ),
        };
        let glu = driver::Run::new(input, algo)
            .config(&DistConfig::new(hosts))
            .launch();
        assert!(
            glu.run.total_bytes < gem_bytes.run.total_bytes,
            "{algo}: gluon {} vs gemini {}",
            glu.run.total_bytes,
            gem_bytes.run.total_bytes
        );
    }
}

#[test]
fn sparse_round_never_picks_dense_encoding() {
    // §4.2: the substrate picks the smallest encoding per message. In a
    // round where each host updates at most one mirror of a long mirror
    // list, the hub's per-mode message counters must show only the compact
    // encodings — empty, bitvec, or indices — and never a dense value list.
    let g = gen::twitter_like(4_000, 16, 37);
    let hosts = 4;
    let hub = MetricsHub::new(hosts);
    run_cluster(hosts, |ep| {
        let comm = Communicator::new(ep);
        let lg = partition_on_host(&g, Policy::Cvc, &comm);
        let mut ctx =
            GluonContext::new(&lg, &comm, OptLevel::OTI).with_metrics(hub.host(lg.host()));
        let n = lg.num_proxies();
        let mut vals = vec![u32::MAX; n as usize];
        let mut bits = DenseBitset::new(n);
        // Mark exactly one updated mirror, picked from the remote with the
        // largest mirror list so dense would be maximally wasteful.
        let pick = (0..hosts)
            .filter(|&h| h != lg.host())
            .max_by_key(|&h| lg.mirrors_on(h).len())
            .and_then(|h| lg.mirrors_on(h).first().copied());
        if let Some(m) = pick {
            vals[m.index()] = lg.host() as u32;
            bits.set(m);
        }
        let mut field = MinField::new(&mut vals);
        let spec = SyncSpec::full(WriteLocation::Destination, ReadLocation::Source);
        ctx.sync(&spec, &mut field, &mut bits);
    });
    // Mode counts are indexed [empty, dense, bitvec, indices, gid_values,
    // idx_delta, run_len, same_idx, same_run].
    let counts = MODE_MSG_COUNTER_NAMES.map(|name| hub.counter_across_hosts(name));
    assert!(
        counts.iter().sum::<u64>() > 0,
        "sync recorded no wire modes"
    );
    assert_eq!(
        counts[1], 0,
        "a sparse round must never pick Dense ({counts:?})"
    );
    let compact = counts[2] + counts[3] + counts[5] + counts[6] + counts[7] + counts[8];
    assert!(
        compact > 0,
        "expected bitvec/indices messages, got {counts:?}"
    );
}

#[test]
fn replication_shapes_match_section_5_2() {
    // CVC replication stays well below the host count and below edge-cut
    // replication on skewed graphs at larger host counts.
    let g = gen::twitter_like(6_000, 16, 36);
    let hosts = 16;
    let cvc = gluon_suite::partition::PartitionStats::of(&gluon_suite::partition::partition_all(
        &g,
        hosts,
        Policy::Cvc,
    ))
    .replication_factor;
    let oec = gluon_suite::partition::PartitionStats::of(&gluon_suite::partition::partition_all(
        &g,
        hosts,
        Policy::Oec,
    ))
    .replication_factor;
    assert!(cvc < oec, "CVC {cvc:.2} vs OEC {oec:.2}");
    assert!(
        cvc < hosts as f64 / 2.0,
        "CVC replication too high: {cvc:.2}"
    );
}
