//! Focused tests of sync-call semantics, including regressions.

use gluon_suite::algos::{driver, reference, Algorithm, DistConfig, EngineKind};
use gluon_suite::graph::{gen, Csr, Gid, Lid};
use gluon_suite::net::{run_cluster, Communicator};
use gluon_suite::partition::{partition_on_host, Policy};
use gluon_suite::substrate::{
    DenseBitset, FieldSync, GluonContext, MinField, OptLevel, ReadLocation, SyncSpec, WriteLocation,
};

/// Regression: under a general vertex-cut (HVC/UVC), a mirror with both
/// incoming and outgoing local edges that *originates* an update has its
/// dirty bit cleared by the reduce; the master's broadcast of the same
/// value must re-activate it or its local out-edges never see the value.
#[test]
fn broadcast_reactivates_originating_mirror() {
    // Discovered by the full cc matrix: labels failed to propagate through
    // hub mirrors under HVC. Keep an exact small instance here.
    let g = gen::rmat(8, 8, Default::default(), 100);
    let sym = reference::symmetrize(&g);
    for engine in EngineKind::ALL {
        let cfg = DistConfig {
            hosts: 3,
            policy: Policy::Hvc,
            opts: OptLevel::OSTI,
            engine,
        };
        let out = driver::Run::new(&g, Algorithm::Cc).config(&cfg).launch();
        assert_eq!(out.int_labels, reference::cc(&sym), "{engine}");
    }
}

/// The dirty set after a sync holds exactly the proxies that are active
/// for the next round: shipped mirrors cleared, reduced masters set,
/// broadcast mirrors set.
#[test]
fn sync_leaves_active_set_semantics() {
    // Path 0 -> 1 split so that host 0 owns {0}, host 1 owns {1}; OEC puts
    // edge (0, 1) on host 0 with a mirror of 1 there.
    let g = Csr::from_edge_list(2, &[(0, 1)]);
    let results = run_cluster(2, |ep| {
        let comm = Communicator::new(ep);
        let lg = partition_on_host(&g, Policy::Oec, &comm);
        let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
        let n = lg.num_proxies();
        let mut dist = vec![u32::MAX; n as usize];
        let mut bits = DenseBitset::new(n);
        if let Some(l0) = lg.lid(Gid(0)) {
            if lg.is_master(l0) {
                dist[l0.index()] = 0;
                // Relax the local edge 0 -> 1 (mirror of 1).
                for e in lg.out_edges(l0) {
                    dist[e.dst.index()] = 1;
                    bits.set(e.dst);
                }
            }
        }
        let mut field = MinField::new(&mut dist);
        let spec = SyncSpec::full(WriteLocation::Destination, ReadLocation::Source);
        ctx.sync(&spec, &mut field, &mut bits);
        let active: Vec<u32> = bits.iter().map(|l| lg.gid(l).0).collect();
        let labels: Vec<(u32, u32)> = lg
            .proxies()
            .map(|p| (lg.gid(p).0, dist[p.index()]))
            .collect();
        (lg.host(), active, labels)
    });
    for (host, active, labels) in results {
        if labels.iter().any(|&(g, _)| g == 1) {
            let d1 = labels.iter().find(|&&(g, _)| g == 1).expect("proxy 1").1;
            if host == 1 {
                // Master of 1 received the reduction: value 1, re-activated.
                assert_eq!(d1, 1, "master got the reduced value");
                assert_eq!(active, vec![1], "reduced master is active");
            } else {
                // Mirror of 1 shipped its value and went quiet (min-reset
                // keeps the value but the bit must be cleared).
                assert!(active.is_empty(), "shipped mirror must be inactive");
            }
        }
    }
}

/// Optimization level changes bytes, never answers — exercised on a graph
/// engineered to hit all wire modes (dense, bitvec, indices, empty).
#[test]
fn wire_modes_all_agree() {
    // Star: round 1 updates every neighbor (dense); later rounds nothing.
    let star = gen::star(2_000);
    // Long path: one update per round (indices mode).
    let path = gen::path(300);
    for g in [star, path] {
        let mut reference_labels = None;
        for opts in OptLevel::ALL {
            let cfg = DistConfig {
                hosts: 4,
                policy: Policy::Oec,
                opts,
                engine: EngineKind::Galois,
            };
            let out = driver::Run::new(&g, Algorithm::Bfs)
                .config(&cfg)
                .source(Gid(0))
                .pagerank(Default::default())
                .launch();
            match &reference_labels {
                None => reference_labels = Some(out.int_labels),
                Some(r) => assert_eq!(&out.int_labels, r, "{opts}"),
            }
        }
    }
}

/// A second sssp run through the same context continues from fresh fields
/// (contexts are reusable across algorithm invocations).
#[test]
fn context_is_reusable_across_runs() {
    let g = gen::rmat(7, 6, Default::default(), 55);
    let results = run_cluster(3, |ep| {
        let comm = Communicator::new(ep);
        let lg = partition_on_host(&g, Policy::Cvc, &comm);
        let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
        let mut labels = Vec::new();
        for source in [Gid(0), Gid(5)] {
            let n = lg.num_proxies();
            let mut dist = vec![u32::MAX; n as usize];
            let mut bits = DenseBitset::new(n);
            if let Some(s) = lg.lid(source) {
                dist[s.index()] = 0;
                bits.set(s);
            }
            loop {
                let mut changed = DenseBitset::new(n);
                for v in bits.iter() {
                    for e in lg.out_edges(v) {
                        let nd = dist[v.index()].saturating_add(1);
                        if nd < dist[e.dst.index()] {
                            dist[e.dst.index()] = nd;
                            changed.set(e.dst);
                        }
                    }
                }
                bits = changed;
                let mut field = MinField::new(&mut dist);
                let spec = SyncSpec::full(WriteLocation::Destination, ReadLocation::Source);
                ctx.sync(&spec, &mut field, &mut bits);
                if !ctx.any_globally(!bits.is_empty()) {
                    break;
                }
            }
            labels.push(
                lg.masters()
                    .map(|m| (lg.gid(m).0, dist[m.index()]))
                    .collect::<Vec<_>>(),
            );
        }
        labels
    });
    for (i, source) in [Gid(0), Gid(5)].into_iter().enumerate() {
        let oracle = reference::bfs(&g, source);
        let mut got = vec![u32::MAX; g.num_nodes() as usize];
        for host in &results {
            for &(gid, d) in &host[i] {
                got[gid as usize] = d;
            }
        }
        assert_eq!(got, oracle, "run {i}");
    }
}

/// Broadcast-only field for the test below: a mirror takes the value its
/// master ships, and a reset keeps it.
struct Overwrite<'a>(&'a mut [u32]);

impl FieldSync for Overwrite<'_> {
    type Value = u32;

    fn extract(&self, lid: Lid) -> u32 {
        self.0[lid.index()]
    }

    fn reduce(&mut self, lid: Lid, value: u32) -> bool {
        let changed = self.0[lid.index()] != value;
        self.0[lid.index()] = value;
        changed
    }

    fn reset(&mut self, _lid: Lid) {}

    fn set(&mut self, lid: Lid, value: u32) {
        self.0[lid.index()] = value;
    }
}

/// A broadcast read at edge destinations reaches, under the structural
/// optimization, exactly the mirrors with a local in-edge, and without it
/// every mirror.
#[test]
fn destination_broadcast_reaches_the_mirrors_with_in_edges() {
    const SENTINEL: u32 = u32::MAX;
    let g = gen::rmat(8, 8, Default::default(), 5);
    let spec = SyncSpec::broadcast(ReadLocation::Destination);
    // A 1x3 CVC grid keeps every in-edge at its master, so only HVC has
    // mirrors with a local in-edge.
    let mut seen_in_edge = false;
    for policy in [Policy::Hvc, Policy::Cvc] {
        for opts in [OptLevel::OSTI, OptLevel::UNOPT] {
            let per_host = run_cluster(3, |ep| {
                let comm = Communicator::new(ep);
                let lg = partition_on_host(&g, policy, &comm);
                let mut ctx = GluonContext::new(&lg, &comm, opts);
                let mut value: Vec<u32> = lg
                    .proxies()
                    .map(|l| {
                        if lg.is_master(l) {
                            lg.gid(l).0 + 1
                        } else {
                            SENTINEL
                        }
                    })
                    .collect();
                let mut bits = DenseBitset::new(lg.num_proxies());
                for m in lg.masters() {
                    bits.set(m);
                }
                ctx.sync(&spec, &mut Overwrite(&mut value), &mut bits);
                lg.mirrors()
                    .map(|m| (lg.has_local_in_edges(m), lg.gid(m).0, value[m.index()]))
                    .collect::<Vec<_>>()
            });
            let mirrors: Vec<(bool, u32, u32)> = per_host.into_iter().flatten().collect();
            assert!(
                mirrors.iter().any(|m| !m.0),
                "{policy}: the input needs a mirror without a local in-edge"
            );
            seen_in_edge |= mirrors.iter().any(|m| m.0);
            for (has_in, gid, got) in mirrors {
                let reached = has_in || opts == OptLevel::UNOPT;
                let want = if reached { gid + 1 } else { SENTINEL };
                assert_eq!(
                    got, want,
                    "{policy} {opts:?}: mirror of {gid}, in-edge {has_in}"
                );
            }
        }
    }
    assert!(
        seen_in_edge,
        "the input needs a mirror with a local in-edge"
    );
}
