//! Shared-memory compute engines pluggable into the Gluon substrate.
//!
//! The paper's thesis is that the computation engine and the communication
//! substrate can be decoupled: any shared-memory vertex-programming system
//! can run each host's partition, with Gluon reconciling proxies between
//! rounds. This crate provides Rust renditions of the three engines the
//! paper plugs in:
//!
//! * [`ligra`] — frontier-based `edgeMap` with direction optimization
//!   (→ **D-Ligra**);
//! * [`galois`] — asynchronous worklist `for_each` with within-round
//!   chaotic relaxation (→ **D-Galois**);
//! * [`irgl`] — bulk-synchronous GPU-style kernels (→ **D-IrGL**).
//!
//! All three operate on one host's [`gluon_partition::LocalGraph`] and know
//! nothing about other hosts — exactly the property (§2.2's invariant (b))
//! that lets Gluon drive them unmodified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod galois;
pub mod irgl;
pub mod ligra;

pub use galois::{for_each, for_each_prioritized, DeltaWorklist, Worklist};
pub use irgl::{DeviceModel, DeviceStats, IrglEngine, KernelOutput};
pub use ligra::{edge_map, Direction, EdgeOp, VertexSubset};
