//! Shared-memory compute engines pluggable into the Gluon substrate.
//!
//! The paper's thesis is that the computation engine and the communication
//! substrate can be decoupled: any shared-memory vertex-programming system
//! can run each host's partition, with Gluon reconciling proxies between
//! rounds. The three engines the paper plugs in differ only in how they
//! schedule local work, so this crate holds one set of sweeps they share:
//!
//! * [`ligra`] — Ligra's `vertexSubset`, the sequential `edgeMap` with
//!   direction optimization, and the pooled sweeps every engine runs: one
//!   binned push ([`ligra::vertex_map_push_pooled`]) and the two pulls;
//! * [`galois`] — Galois' sequential FIFO worklist (`for_each`).
//!
//! How D-Ligra, D-Galois and D-IrGL schedule these sweeps round by round
//! lives with the applications (`gluon_algos::minrelax`). Everything here
//! operates on one host's [`gluon_partition::LocalGraph`] and knows
//! nothing about other hosts — exactly the property (§2.2's invariant (b))
//! that lets Gluon drive it unmodified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod galois;
pub mod ligra;

pub use galois::{for_each, Worklist};
pub use ligra::{edge_map, Direction, EdgeOp, VertexSubset};
