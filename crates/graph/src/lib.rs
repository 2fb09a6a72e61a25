//! Graph representations, generators, and I/O for the Gluon workspace.
//!
//! This crate is the foundation of the Gluon reproduction: it defines the
//! [`Csr`] in-memory graph that every other crate consumes, the strongly
//! typed id spaces ([`Gid`] for the global graph, [`Lid`] for one host's
//! partition), synthetic generators matching the paper's inputs
//! ([`gen::rmat`], [`gen::kronecker`], [`gen::web_like`]), and text/binary
//! serialization ([`io`]).
//!
//! # Examples
//!
//! Generate a small scale-free graph and inspect it:
//!
//! ```
//! use gluon_graph::{gen, GraphStats, RmatProbs};
//!
//! let g = gen::rmat(10, 16, RmatProbs::GRAPH500, 42);
//! let stats = GraphStats::of(&g);
//! assert_eq!(stats.num_nodes, 1024);
//! assert!(stats.max_out_degree > stats.avg_degree as u32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
pub mod gen;
mod ids;
pub mod io;
mod props;

pub use builder::{fill_csr, EdgeStream, GraphBuilder};
pub use csr::{for_each_edge, transpose_by_sort, Csr, Edge};
pub use gen::{
    binary_tree, complete, cycle, erdos_renyi, grid, kronecker, path, rmat, star, twitter_like,
    web_like, with_random_weights, RmatProbs,
};
pub use ids::{Gid, HostId, Lid};
pub use props::{degree_histogram, max_out_degree_node, GraphStats};
