//! Distributed graph analytics applications on the Gluon substrate.
//!
//! The four benchmarks of the paper — [`Algorithm::Bfs`], [`Algorithm::Cc`],
//! [`Algorithm::Pagerank`] (pull-style), and [`Algorithm::Sssp`]
//! (push-style, data-driven) — each runnable with any of the three compute
//! engines (Ligra, Galois, IrGL styles), any partitioning policy, any
//! optimization level, and any simulated host count. Single-host
//! [`mod@reference`] oracles validate every configuration.
//!
//! # Examples
//!
//! ```
//! use gluon_algos::{reference, Algorithm, Run};
//! use gluon_graph::{gen, max_out_degree_node};
//!
//! let g = gen::rmat(7, 8, Default::default(), 1);
//! let out = Run::new(&g, Algorithm::Bfs).hosts(4).launch();
//! let oracle = reference::bfs(&g, max_out_degree_node(&g));
//! assert_eq!(out.int_labels, oracle);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod driver;
pub mod launcher;
mod minrelax;
pub mod reference;
pub mod report;

pub use apps::{CopyField, PagerankConfig};
pub use driver::{run_heterogeneous_bfs, DistConfig, DistOutcome, FailurePolicy, Run, RunError};
pub use launcher::{
    gluon_host_main, spawn_local_cluster, ClusterOutcome, ClusterSpec, LaunchError,
};
pub use report::{phase_residuals, PhaseResidual, RunReport, REPORT_SCHEMA_VERSION};

/// The shared-memory engine computing each host's partition: how a
/// host schedules its local work each round. Every engine runs the same
/// sweeps; only the push-style relaxations (bfs, sssp, cc) schedule them
/// differently (see `minrelax.rs`), and pagerank and k-core compute
/// identically under all three.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EngineKind {
    /// One snapshot sweep per round, pushing or pulling by Ligra's
    /// frontier-size heuristic (D-Ligra).
    Ligra,
    /// Push sub-rounds repeated to local quiescence within a round
    /// (D-Galois).
    Galois,
    /// One bulk-synchronous snapshot push per round, a GPU-style kernel
    /// launch: D-Ligra's push without the pull direction (D-IrGL).
    Irgl,
}

impl EngineKind {
    /// All engines, for sweeps.
    pub const ALL: [EngineKind; 3] = [EngineKind::Ligra, EngineKind::Galois, EngineKind::Irgl];

    /// Distributed-system name the paper uses (`d-ligra`, `d-galois`,
    /// `d-irgl`).
    pub fn system_name(self) -> &'static str {
        match self {
            EngineKind::Ligra => "d-ligra",
            EngineKind::Galois => "d-galois",
            EngineKind::Irgl => "d-irgl",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.system_name())
    }
}

/// Parses the [`system_name`](EngineKind::system_name) or its short form
/// (`d-ligra` or `ligra`, `d-galois` or `galois`, `d-irgl` or `irgl`).
impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::ALL
            .into_iter()
            .find(|e| s == e.system_name() || Some(s) == e.system_name().strip_prefix("d-"))
            .ok_or_else(|| format!("unknown engine {s:?} (want d-ligra|d-galois|d-irgl)"))
    }
}

/// The benchmark applications of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// Breadth-first search (push, data-driven).
    Bfs,
    /// Connected components (label propagation on the symmetrized graph).
    Cc,
    /// Pagerank (pull-style, damping 0.85).
    Pagerank,
    /// Single-source shortest paths (push, data-driven).
    Sssp,
}

impl Algorithm {
    /// All benchmarks in the paper's order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Bfs,
        Algorithm::Cc,
        Algorithm::Pagerank,
        Algorithm::Sssp,
    ];

    /// Short name (`bfs`, `cc`, `pr`, `sssp`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bfs => "bfs",
            Algorithm::Cc => "cc",
            Algorithm::Pagerank => "pr",
            Algorithm::Sssp => "sssp",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses the [`name`](Algorithm::name) (`bfs`, `cc`, `pr`, `sssp`).
impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algorithm::ALL
            .into_iter()
            .find(|a| s == a.name())
            .ok_or_else(|| format!("unknown algorithm {s:?} (want bfs|cc|pr|sssp)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon::OptLevel;
    use gluon_graph::{gen, max_out_degree_node};
    use gluon_partition::Policy;

    #[test]
    fn names_parse_back() {
        for engine in EngineKind::ALL {
            assert_eq!(engine.to_string().parse(), Ok(engine));
            assert_eq!(engine.system_name()[2..].parse(), Ok(engine));
        }
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse(), Ok(algo));
        }
        assert!("d-gluon".parse::<EngineKind>().is_err());
        assert!("pagerank".parse::<Algorithm>().is_err());
    }

    fn check_bfs(cfg: &DistConfig, g: &gluon_graph::Csr) {
        let out = Run::new(g, Algorithm::Bfs).config(cfg).launch();
        let oracle = reference::bfs(g, max_out_degree_node(g));
        assert_eq!(out.int_labels, oracle, "{cfg:?}");
    }

    #[test]
    fn bfs_matches_oracle_across_engines() {
        let g = gen::rmat(7, 6, Default::default(), 5);
        for engine in EngineKind::ALL {
            check_bfs(
                &DistConfig {
                    hosts: 3,
                    policy: Policy::Oec,
                    opts: OptLevel::OSTI,
                    engine,
                },
                &g,
            );
        }
    }

    #[test]
    fn bfs_matches_oracle_across_policies() {
        let g = gen::rmat(7, 6, Default::default(), 6);
        for policy in Policy::ALL {
            check_bfs(
                &DistConfig {
                    hosts: 4,
                    policy,
                    opts: OptLevel::OSTI,
                    engine: EngineKind::Galois,
                },
                &g,
            );
        }
    }

    #[test]
    fn bfs_matches_oracle_across_opt_levels() {
        let g = gen::rmat(7, 6, Default::default(), 7);
        for opts in OptLevel::ALL {
            check_bfs(
                &DistConfig {
                    hosts: 3,
                    policy: Policy::Cvc,
                    opts,
                    engine: EngineKind::Ligra,
                },
                &g,
            );
        }
    }

    #[test]
    fn sssp_matches_oracle() {
        let g = gluon_graph::with_random_weights(&gen::rmat(7, 6, Default::default(), 8), 7, 2);
        let out = Run::new(&g, Algorithm::Sssp).hosts(4).launch();
        let oracle = reference::sssp(&g, max_out_degree_node(&g));
        assert_eq!(out.int_labels, oracle);
    }

    #[test]
    fn cc_matches_oracle() {
        let g = gen::rmat(7, 4, Default::default(), 9);
        let out = Run::new(&g, Algorithm::Cc).hosts(4).launch();
        assert_eq!(out.int_labels, reference::cc(&g));
    }

    #[test]
    fn pagerank_matches_oracle_within_tolerance() {
        let g = gen::rmat(7, 6, Default::default(), 10);
        let out = Run::new(&g, Algorithm::Pagerank).hosts(3).launch();
        let (oracle, _) = reference::pagerank(&g, 0.85, 1e-6, 100);
        for (got, want) in out.ranks.iter().zip(&oracle) {
            assert!((got - want).abs() < 1e-6, "rank mismatch: {got} vs {want}");
        }
    }

    #[test]
    fn galois_uses_fewer_rounds_than_ligra() {
        // The §5.4 observation: asynchronous within-round propagation needs
        // fewer global rounds than level-synchronous execution.
        let g = gen::path(64); // worst case for level-synchronous engines
        let mk = |engine| DistConfig {
            hosts: 2,
            policy: Policy::Oec,
            opts: OptLevel::OSTI,
            engine,
        };
        let ligra = Run::new(&g, Algorithm::Bfs)
            .config(&mk(EngineKind::Ligra))
            .launch();
        let galois = Run::new(&g, Algorithm::Bfs)
            .config(&mk(EngineKind::Galois))
            .launch();
        assert!(
            galois.rounds < ligra.rounds / 4,
            "galois {} vs ligra {}",
            galois.rounds,
            ligra.rounds
        );
    }
}
