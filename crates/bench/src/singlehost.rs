//! Plain shared-memory runs (no Gluon layer at all) for the Table 4
//! comparison: "Ligra" and "Galois" columns versus "D-Ligra(1)" and
//! "D-Galois(1)".

use gluon_algos::reference::{self, INFINITY};
use gluon_algos::{Algorithm, EngineKind, PagerankConfig};
use gluon_engines::galois;
use gluon_engines::ligra::{self, Direction, EdgeOp, VertexSubset};
use gluon_graph::{Csr, Gid, Lid};
use gluon_partition::{partition_all, LocalGraph, Policy};
use std::time::Instant;

/// Result of a plain shared-memory run.
#[derive(Clone, Debug)]
pub struct SharedRun {
    /// Integer labels (bfs/cc/sssp), empty for pagerank.
    pub int_labels: Vec<u32>,
    /// Pagerank ranks, empty otherwise.
    pub ranks: Vec<f64>,
    /// Wall-clock of the algorithm (seconds), excluding graph setup.
    pub secs: f64,
    /// Rounds (Ligra) or 1 (Galois quiescence runs).
    pub rounds: u32,
}

/// Runs `algo` on a single shared-memory host with `engine`, no
/// communication substrate involved.
///
/// cc symmetrizes the input first (like the distributed driver); bfs/sssp
/// start from `source`.
pub fn run_shared(graph: &Csr, algo: Algorithm, engine: EngineKind, source: Gid) -> SharedRun {
    let symmetric;
    let input: &Csr = if algo == Algorithm::Cc {
        symmetric = reference::symmetrize(graph);
        &symmetric
    } else {
        graph
    };
    let mut lg = partition_all(input, 1, Policy::Oec).remove(0);
    if engine == EngineKind::Ligra || algo == Algorithm::Pagerank {
        lg.build_transpose();
    }
    let start = Instant::now();
    let mut out = match algo {
        Algorithm::Bfs => minrelax(&lg, engine, Seed::Source(source), |l, _| {
            l.saturating_add(1)
        }),
        Algorithm::Sssp => minrelax(&lg, engine, Seed::Source(source), |l, w| {
            l.saturating_add(w)
        }),
        Algorithm::Cc => minrelax(&lg, engine, Seed::OwnGid, |l, _| l),
        Algorithm::Pagerank => pagerank(&lg, PagerankConfig::default()),
    };
    out.secs = start.elapsed().as_secs_f64();
    out
}

enum Seed {
    Source(Gid),
    OwnGid,
}

struct RelaxOp<'a> {
    labels: &'a mut [u32],
    relax: fn(u32, u32) -> u32,
}

impl EdgeOp for RelaxOp<'_> {
    fn update(&mut self, src: Lid, dst: Lid, w: u32) -> bool {
        let cand = (self.relax)(self.labels[src.index()], w);
        if cand < self.labels[dst.index()] {
            self.labels[dst.index()] = cand;
            true
        } else {
            false
        }
    }
}

fn minrelax(
    lg: &LocalGraph,
    engine: EngineKind,
    seed: Seed,
    relax: fn(u32, u32) -> u32,
) -> SharedRun {
    let n = lg.num_proxies();
    let (mut labels, seeds): (Vec<u32>, Vec<Lid>) = match seed {
        Seed::Source(s) => {
            let mut l = vec![INFINITY; n as usize];
            let lid = lg.lid(s).expect("source exists on the single host");
            l[lid.index()] = 0;
            (l, vec![lid])
        }
        Seed::OwnGid => (
            (0..n).map(|l| lg.gid(Lid(l)).0).collect(),
            (0..n).map(Lid).collect(),
        ),
    };
    let mut rounds = 0u32;
    match engine {
        EngineKind::Ligra => {
            let mut frontier = VertexSubset::from_members(seeds);
            while !frontier.is_empty() {
                rounds += 1;
                let mut op = RelaxOp {
                    labels: &mut labels,
                    relax,
                };
                frontier = ligra::edge_map(lg, &frontier, &mut op, Direction::Auto);
            }
        }
        EngineKind::Galois | EngineKind::Irgl => {
            rounds = 1;
            galois::for_each(n, seeds, |v, wl| {
                let lv = labels[v.index()];
                for e in lg.out_edges(v) {
                    let cand = relax(lv, e.weight);
                    if cand < labels[e.dst.index()] {
                        labels[e.dst.index()] = cand;
                        wl.push(e.dst);
                    }
                }
            });
        }
    }
    SharedRun {
        int_labels: labels,
        ranks: Vec::new(),
        secs: 0.0,
        rounds,
    }
}

fn pagerank(lg: &LocalGraph, cfg: PagerankConfig) -> SharedRun {
    let n = lg.num_proxies() as usize;
    let total = f64::from(lg.global_nodes().max(1));
    let base = (1.0 - cfg.damping) / total;
    let gdeg: Vec<u32> = (0..n).map(|v| lg.out_degree(Lid(v as u32))).collect();
    let mut rank = vec![1.0 / total; n];
    // rank[u] / max(gdeg[u], 1) per in-edge source slot, divided once per
    // source per iteration (the same kernel shape as
    // `gluon_algos::apps::pagerank`).
    let mut outgoing = vec![0.0f64; lg.sources().len()];
    let mut iters = 0;
    while iters < cfg.max_iters {
        iters += 1;
        for (out, &u) in outgoing.iter_mut().zip(lg.sources()) {
            *out = rank[u as usize] / f64::from(gdeg[u as usize].max(1));
        }
        let mut delta = 0.0;
        let mut next = vec![base; n];
        for v in 0..n {
            let mut sum = 0.0;
            for &s in lg.in_slots(Lid(v as u32)) {
                sum += outgoing[s as usize];
            }
            next[v] += cfg.damping * sum;
            delta += (next[v] - rank[v]).abs();
        }
        rank = next;
        if delta < cfg.tolerance {
            break;
        }
    }
    SharedRun {
        int_labels: Vec::new(),
        ranks: rank,
        secs: 0.0,
        rounds: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::{gen, max_out_degree_node};

    #[test]
    fn shared_runs_match_oracles() {
        let g = gen::rmat(7, 6, Default::default(), 21);
        let src = max_out_degree_node(&g);
        for engine in [EngineKind::Ligra, EngineKind::Galois] {
            let bfs = run_shared(&g, Algorithm::Bfs, engine, src);
            assert_eq!(bfs.int_labels, reference::bfs(&g, src), "{engine}");
            let cc = run_shared(&g, Algorithm::Cc, engine, src);
            assert_eq!(cc.int_labels, reference::cc(&g), "{engine}");
        }
        let w = gluon_graph::with_random_weights(&g, 9, 5);
        let sssp = run_shared(&w, Algorithm::Sssp, EngineKind::Galois, src);
        assert_eq!(sssp.int_labels, reference::sssp(&w, src));
        let pr = run_shared(&g, Algorithm::Pagerank, EngineKind::Galois, src);
        let (oracle, _) = reference::pagerank(&g, 0.85, 1e-6, 100);
        for (a, b) in pr.ranks.iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
