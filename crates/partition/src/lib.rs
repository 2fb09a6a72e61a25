//! Graph partitioning for the Gluon substrate.
//!
//! Implements the four partitioning strategies of the paper's §3.1 — OEC,
//! IEC, CVC and (hybrid) UVC — as runtime-selectable [`Policy`] values,
//! along with the machinery that turns a global [`gluon_graph::Csr`] into
//! per-host [`LocalGraph`]s: proxy creation, master/mirror designation,
//! global↔local id maps, and the structural flags (`has_local_in/out_edges`)
//! that the communication optimizer consumes.
//!
//! # Examples
//!
//! ```
//! use gluon_graph::gen;
//! use gluon_partition::{partition_all, PartitionStats, Policy};
//!
//! let g = gen::rmat(8, 8, Default::default(), 42);
//! let parts = partition_all(&g, 4, Policy::Cvc);
//! let stats = PartitionStats::of(&parts);
//! assert!(stats.replication_factor >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod build;
pub mod invariants;
mod local;
#[cfg(test)]
mod oracle;
mod policy;
mod stats;

pub use blocks::BlockMap;
pub use build::{local_edge_gids, partition_all, partition_on_host};
pub use invariants::{check_local_graph, check_partitions, InvariantViolation};
pub use local::{LocalEdge, LocalGraph};
pub use policy::{grid_dims, ParsePolicyError, Policy, PolicyCtx};
pub use stats::PartitionStats;
