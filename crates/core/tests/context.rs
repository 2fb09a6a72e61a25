//! Direct tests of the GluonContext sync patterns, independent of the
//! algorithm layer.

use gluon::{
    DenseBitset, GluonContext, MaxField, MinField, OptLevel, ReadLocation, SumField, SyncSpec,
    WriteLocation,
};
use gluon_graph::{gen, Gid, Lid};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_on_host, Policy};

/// Helper: run an SPMD body on a partitioned rmat graph.
fn with_cluster<R: Send>(
    hosts: usize,
    policy: Policy,
    opts: OptLevel,
    body: impl Fn(&gluon_partition::LocalGraph, &mut GluonContext<'_, gluon_net::MemoryTransport>) -> R
        + Sync,
) -> Vec<R> {
    let g = gen::rmat(7, 8, Default::default(), 2024);
    run_cluster(hosts, |ep| {
        let comm = Communicator::new(ep);
        let lg = partition_on_host(&g, policy, &comm);
        let mut ctx = GluonContext::new(&lg, &comm, opts);
        body(&lg, &mut ctx)
    })
}

#[test]
fn reduce_only_sums_partials_at_masters() {
    // Every proxy contributes 1; after a reduce-only sync each master must
    // hold its node's replication count (proxies across the cluster).
    for policy in [Policy::Cvc, Policy::Hvc, Policy::Oec] {
        let per_host = with_cluster(4, policy, OptLevel::OSTI, |lg, ctx| {
            let n = lg.num_proxies();
            let mut counts = vec![1u32; n as usize];
            let mut bits = DenseBitset::new(n);
            bits.set_all();
            let mut field = SumField::new(&mut counts);
            ctx.sync(&SyncSpec::reduce(WriteLocation::Any), &mut field, &mut bits);
            lg.masters()
                .map(|m| (lg.gid(m).0, counts[m.index()]))
                .collect::<Vec<_>>()
        });
        // Sum of master counts = total proxies in the cluster.
        let total: u32 = per_host.iter().flatten().map(|&(_, c)| c).sum();
        let g = gen::rmat(7, 8, Default::default(), 2024);
        let parts = gluon_partition::partition_all(&g, 4, policy);
        let proxies: u32 = parts.iter().map(|p| p.num_proxies()).sum();
        assert_eq!(total, proxies, "{policy}");
    }
}

#[test]
fn broadcast_only_propagates_master_values() {
    let per_host = with_cluster(3, Policy::Cvc, OptLevel::OSTI, |lg, ctx| {
        let n = lg.num_proxies();
        // Masters hold their gid as the value; mirrors hold a sentinel.
        let mut vals = vec![u32::MAX; n as usize];
        let mut bits = DenseBitset::new(n);
        for m in lg.masters() {
            vals[m.index()] = lg.gid(m).0;
            bits.set(m);
        }
        let mut field = MinField::new(&mut vals);
        ctx.sync(
            &SyncSpec::broadcast(ReadLocation::Any),
            &mut field,
            &mut bits,
        );
        // After broadcast every proxy must hold its gid.
        lg.proxies()
            .map(|p| vals[p.index()] == lg.gid(p).0)
            .collect::<Vec<bool>>()
    });
    assert!(per_host.into_iter().flatten().all(|ok| ok));
}

#[test]
fn max_reduction_takes_largest_mirror_value() {
    let per_host = with_cluster(4, Policy::Hvc, OptLevel::OSTI, |lg, ctx| {
        let n = lg.num_proxies();
        // Each proxy proposes host_rank * 1000 + 1; the max must win.
        let proposal = (ctx.rank() as u32 + 1) * 1000;
        let mut vals = vec![0u32; n as usize];
        let mut bits = DenseBitset::new(n);
        for p in lg.proxies() {
            vals[p.index()] = proposal;
            bits.set(p);
        }
        let mut field = MaxField::new(&mut vals);
        ctx.sync(
            &SyncSpec::full(WriteLocation::Any, ReadLocation::Any),
            &mut field,
            &mut bits,
        );
        lg.masters()
            .map(|m| (lg.gid(m).0, vals[m.index()]))
            .collect::<Vec<_>>()
    });
    // For every node, the master value must equal 1000 * (1 + max rank of
    // any host holding a proxy of it). Compute expectation from partitions.
    let g = gen::rmat(7, 8, Default::default(), 2024);
    let parts = gluon_partition::partition_all(&g, 4, Policy::Hvc);
    let mut expected = vec![0u32; g.num_nodes() as usize];
    for p in &parts {
        for l in p.proxies() {
            let gid = p.gid(l).index();
            expected[gid] = expected[gid].max((p.host() as u32 + 1) * 1000);
        }
    }
    let mut got = vec![0u32; g.num_nodes() as usize];
    for host in per_host {
        for (gid, v) in host {
            got[gid as usize] = v;
        }
    }
    assert_eq!(got, expected);
}

/// A collective books its wait into the phase of the sync it follows: a
/// BSP round keeps one record, and no clocked second is lost.
#[test]
fn stats_record_one_phase_per_sync() {
    let per_host = with_cluster(2, Policy::Oec, OptLevel::OSTI, |lg, ctx| {
        let n = lg.num_proxies();
        let mut vals = vec![0u32; n as usize];
        let mut bits = DenseBitset::new(n);
        for _ in 0..3 {
            let mut field = MinField::new(&mut vals);
            ctx.sync(
                &SyncSpec::full(WriteLocation::Destination, ReadLocation::Source),
                &mut field,
                &mut bits,
            );
        }
        let before = ctx.stats().phases[2];
        ctx.add_work(7);
        let _ = ctx.any_globally(false);
        let after = ctx.stats().phases[2];
        assert!(
            after.comm_secs > before.comm_secs,
            "the vote's wait is comm"
        );
        assert!(after.compute_secs >= before.compute_secs);
        assert_eq!(after.work_units, before.work_units + 7);
        assert_eq!(after.bytes_sent, before.bytes_sent);
        ctx.stats().num_phases()
    });
    assert!(per_host.into_iter().all(|phases| phases == 3));
}

#[test]
fn unopt_and_osti_reach_identical_fixpoints() {
    let mut results = Vec::new();
    for opts in [OptLevel::UNOPT, OptLevel::OSTI] {
        let per_host = with_cluster(3, Policy::Cvc, opts, |lg, ctx| {
            // One round of min-relax from node 0 over local edges.
            let n = lg.num_proxies();
            let mut vals = vec![u32::MAX; n as usize];
            let mut bits = DenseBitset::new(n);
            if let Some(s) = lg.lid(Gid(0)) {
                vals[s.index()] = 0;
                for e in lg.out_edges(s) {
                    vals[e.dst.index()] = 1;
                    bits.set(e.dst);
                }
            }
            let mut field = MinField::new(&mut vals);
            ctx.sync(
                &SyncSpec::full(WriteLocation::Destination, ReadLocation::Source),
                &mut field,
                &mut bits,
            );
            lg.masters()
                .map(|m| (lg.gid(m).0, vals[m.index()]))
                .collect::<Vec<_>>()
        });
        let mut flat: Vec<(u32, u32)> = per_host.into_iter().flatten().collect();
        flat.sort_unstable();
        results.push(flat);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn memo_bytes_are_accounted() {
    let per_host = with_cluster(4, Policy::Cvc, OptLevel::OSTI, |lg, ctx| {
        (lg.num_mirrors(), ctx.stats().memo_bytes)
    });
    for (mirrors, memo_bytes) in per_host {
        // 5 bytes per mirror entry (gid + flags).
        assert_eq!(memo_bytes, u64::from(mirrors) * 5);
    }
}

#[test]
fn sum_field_dense_retransmission_does_not_double_count() {
    // Force dense mode by updating every mirror, twice in a row; the
    // master total must equal the sum of distinct contributions.
    let per_host = with_cluster(2, Policy::Oec, OptLevel::OSTI, |lg, ctx| {
        let n = lg.num_proxies();
        let mut vals = vec![0.0f64; n as usize];
        let mut bits = DenseBitset::new(n);
        // Contribution 1 from every mirror.
        for m in lg.mirrors() {
            vals[m.index()] = 1.0;
            bits.set(m);
        }
        {
            let mut field = SumField::new(&mut vals);
            ctx.sync(&SyncSpec::reduce(WriteLocation::Any), &mut field, &mut bits);
        }
        // Second sync with no new contributions; resets must guarantee
        // nothing is re-sent (or re-sent as zero).
        {
            let mut field = SumField::new(&mut vals);
            ctx.sync(&SyncSpec::reduce(WriteLocation::Any), &mut field, &mut bits);
        }
        lg.masters()
            .map(|m| (lg.gid(m).0, vals[m.index()]))
            .collect::<Vec<_>>()
    });
    // Each master's total equals its mirror count (1.0 per mirror).
    let g = gen::rmat(7, 8, Default::default(), 2024);
    let parts = gluon_partition::partition_all(&g, 2, Policy::Oec);
    let mut mirror_count = vec![0.0f64; g.num_nodes() as usize];
    for p in &parts {
        for m in p.mirrors() {
            mirror_count[p.gid(m).index()] += 1.0;
        }
    }
    for host in per_host {
        for (gid, v) in host {
            assert_eq!(v, mirror_count[gid as usize], "node {gid}");
        }
    }
}

#[test]
fn single_host_context_syncs_are_no_ops() {
    let per_host = with_cluster(1, Policy::Cvc, OptLevel::OSTI, |lg, ctx| {
        let n = lg.num_proxies();
        let mut vals: Vec<u32> = (0..n).collect();
        let before = vals.clone();
        let mut bits = DenseBitset::new(n);
        bits.set_all();
        let mut field = MinField::new(&mut vals);
        ctx.sync(
            &SyncSpec::full(WriteLocation::Destination, ReadLocation::Source),
            &mut field,
            &mut bits,
        );
        (vals == before, ctx.stats().bytes_sent())
    });
    let (unchanged, bytes) = &per_host[0];
    assert!(unchanged);
    assert_eq!(*bytes, 0);
    let _ = Lid(0);
}
