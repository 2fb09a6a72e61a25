//! Memoization of address translation (§4.1).
//!
//! Before computation starts, every pair of hosts agrees on *which* proxies
//! will flow between them and *in what order*, so that sync messages can
//! carry bare values (or values plus a small positional bit-vector) instead
//! of `(global-ID, value)` pairs.
//!
//! The handshake: each host sends every other host the global-IDs of its
//! mirrors whose masters live there, together with two structural bits per
//! mirror (does the mirror have local incoming / outgoing edges — §3's
//! invariants). The receiving host translates the global-IDs to the local
//! ids of its masters. Afterwards host A's `mirrors[B]` and host B's
//! `masters[A]` name the same nodes in the same order, and global-IDs never
//! appear on the wire again.

use crate::comm_tags::MEMO_TAG;
use bytes::{BufMut, Bytes, BytesMut};
use gluon_graph::{HostId, Lid};
use gluon_net::{Communicator, Transport};
use gluon_partition::LocalGraph;

/// One proxy in an agreed list: the local id on *this* host plus the
/// structural flags of the **mirror** proxy (identical on both sides of the
/// agreement, because the mirror's host measured them and shipped them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProxyEntry {
    /// Local id (a mirror lid in `mirrors` lists, a master lid in `masters`
    /// lists).
    pub lid: Lid,
    /// The mirror proxy has local incoming edges (it can be *written* by
    /// the owning host's compute phase).
    pub mirror_has_in: bool,
    /// The mirror proxy has local outgoing edges (it will be *read* by the
    /// owning host's compute phase).
    pub mirror_has_out: bool,
}

/// Which proxies of an agreed list participate in a particular pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlagFilter {
    /// Every proxy (structural invariants disabled, or UVC-style policies).
    All,
    /// Only proxies whose mirror has local incoming edges.
    MirrorHasIn,
    /// Only proxies whose mirror has local outgoing edges.
    MirrorHasOut,
}

impl FlagFilter {
    fn admits(self, e: &ProxyEntry) -> bool {
        match self {
            FlagFilter::All => true,
            FlagFilter::MirrorHasIn => e.mirror_has_in,
            FlagFilter::MirrorHasOut => e.mirror_has_out,
        }
    }
}

/// The per-host result of the memoization handshake.
#[derive(Clone, Debug, Default)]
pub struct MemoTable {
    /// `mirrors[h]`: this host's mirror proxies mastered on `h`, gid order.
    pub mirrors: Vec<Vec<ProxyEntry>>,
    /// `masters[h]`: this host's master proxies that have a mirror on `h`,
    /// in the same order as `h`'s `mirrors[self]`.
    pub masters: Vec<Vec<ProxyEntry>>,
}

impl MemoTable {
    /// Runs the handshake; call on every host.
    pub fn exchange<T: Transport + ?Sized>(
        graph: &LocalGraph,
        comm: &Communicator<'_, T>,
    ) -> MemoTable {
        let n = comm.world_size();
        let rank = comm.rank();
        assert_eq!(
            graph.num_hosts(),
            n,
            "partition built for another cluster size"
        );
        // Describe my mirrors to each owner.
        let mut mirrors: Vec<Vec<ProxyEntry>> = Vec::with_capacity(n);
        let mut outgoing: Vec<Bytes> = Vec::with_capacity(n);
        for mine in graph.mirrors_by_owner() {
            let mut buf = BytesMut::with_capacity(mine.len() * 5);
            let mut entries = Vec::with_capacity(mine.len());
            for lid in mine {
                let has_in = graph.has_local_in_edges(lid);
                let has_out = graph.has_local_out_edges(lid);
                buf.put_u32_le(graph.gid(lid).0);
                buf.put_u8(u8::from(has_in) | (u8::from(has_out) << 1));
                entries.push(ProxyEntry {
                    lid,
                    mirror_has_in: has_in,
                    mirror_has_out: has_out,
                });
            }
            mirrors.push(entries);
            outgoing.push(buf.freeze());
        }
        // One explicit message per pair (tagged MEMO_TAG) so that this
        // startup traffic is visible in the byte counters like any other.
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst != rank {
                comm.transport()
                    .try_send(dst, MEMO_TAG, payload)
                    .unwrap_or_else(|e| {
                        panic!("memoization exchange: send to host {dst} failed: {e}")
                    });
            }
        }
        let mut masters: Vec<Vec<ProxyEntry>> = vec![Vec::new(); n];
        for (src, slot) in masters.iter_mut().enumerate() {
            if src == rank {
                continue;
            }
            let payload = comm
                .transport()
                .try_recv(src, MEMO_TAG)
                .unwrap_or_else(|e| {
                    panic!("memoization exchange: recv from host {src} failed: {e}")
                });
            assert_eq!(payload.len() % 5, 0, "memoization payload framing");
            let mut entries = Vec::with_capacity(payload.len() / 5);
            // The sender lists its mirrors in gid order and masters are
            // laid out in gid order too, so one cursor that only moves
            // forward over the masters translates the whole list.
            let mut cursor = 0u32;
            for chunk in payload.chunks_exact(5) {
                let gid = u32::from_le_bytes(chunk[..4].try_into().expect("gid"));
                let flags = chunk[4];
                while cursor < graph.num_masters() && graph.gid(Lid(cursor)).0 < gid {
                    cursor += 1;
                }
                assert!(
                    cursor < graph.num_masters() && graph.gid(Lid(cursor)).0 == gid,
                    "memoization exchange: host {src} lists node {gid}, which is \
                     not mastered here or breaks the list's gid order"
                );
                entries.push(ProxyEntry {
                    lid: Lid(cursor),
                    mirror_has_in: flags & 1 != 0,
                    mirror_has_out: flags & 2 != 0,
                });
            }
            *slot = entries;
        }
        MemoTable { mirrors, masters }
    }

    /// This host's mirror lids for owner `h` admitted by `filter`, in the
    /// agreed order.
    pub fn mirror_list(&self, h: HostId, filter: FlagFilter) -> Vec<Lid> {
        self.mirrors[h]
            .iter()
            .filter(|e| filter.admits(e))
            .map(|e| e.lid)
            .collect()
    }

    /// This host's master lids mirrored on `h` admitted by `filter`, in the
    /// agreed order.
    pub fn master_list(&self, h: HostId, filter: FlagFilter) -> Vec<Lid> {
        self.masters[h]
            .iter()
            .filter(|e| filter.admits(e))
            .map(|e| e.lid)
            .collect()
    }

    /// Total number of mirror entries (memory-overhead accounting).
    pub fn total_entries(&self) -> usize {
        self.mirrors.iter().map(Vec::len).sum::<usize>()
            + self.masters.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;
    use gluon_net::run_cluster;
    use gluon_partition::{partition_on_host, Policy};

    fn tables_for(policy: Policy, hosts: usize) -> Vec<(LocalGraph, MemoTable)> {
        let g = gen::rmat(6, 4, Default::default(), 17);
        run_cluster(hosts, |ep| {
            let comm = Communicator::new(ep);
            let lg = partition_on_host(&g, policy, &comm);
            let memo = MemoTable::exchange(&lg, &comm);
            (lg, memo)
        })
    }

    #[test]
    fn pairwise_agreement_on_nodes_and_order() {
        for policy in Policy::ALL {
            let per_host = tables_for(policy, 3);
            for (a, (lg_a, memo_a)) in per_host.iter().enumerate() {
                for (b, (lg_b, memo_b)) in per_host.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    // a's mirrors owned by b == b's masters mirrored on a.
                    let mine = &memo_a.mirrors[b];
                    let theirs = &memo_b.masters[a];
                    assert_eq!(mine.len(), theirs.len(), "{policy} {a}->{b}");
                    for (ea, eb) in mine.iter().zip(theirs) {
                        assert_eq!(lg_a.gid(ea.lid), lg_b.gid(eb.lid), "{policy}");
                        assert_eq!(ea.mirror_has_in, eb.mirror_has_in);
                        assert_eq!(ea.mirror_has_out, eb.mirror_has_out);
                    }
                }
            }
        }
    }

    #[test]
    fn filters_produce_matching_sublists() {
        let per_host = tables_for(Policy::Cvc, 4);
        for (a, (lg_a, memo_a)) in per_host.iter().enumerate() {
            for (b, (lg_b, memo_b)) in per_host.iter().enumerate() {
                if a == b {
                    continue;
                }
                for filter in [
                    FlagFilter::All,
                    FlagFilter::MirrorHasIn,
                    FlagFilter::MirrorHasOut,
                ] {
                    let mine = memo_a.mirror_list(b, filter);
                    let theirs = memo_b.master_list(a, filter);
                    let gids_a: Vec<_> = mine.iter().map(|&l| lg_a.gid(l)).collect();
                    let gids_b: Vec<_> = theirs.iter().map(|&l| lg_b.gid(l)).collect();
                    assert_eq!(gids_a, gids_b, "filter {filter:?}");
                }
            }
        }
    }

    #[test]
    fn oec_mirrors_never_have_out_edges() {
        let per_host = tables_for(Policy::Oec, 3);
        for (_, memo) in &per_host {
            for list in &memo.mirrors {
                assert!(list.iter().all(|e| !e.mirror_has_out));
            }
        }
    }

    #[test]
    fn single_host_table_is_empty() {
        let per_host = tables_for(Policy::Oec, 1);
        assert_eq!(per_host[0].1.total_entries(), 0);
    }
}
