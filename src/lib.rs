//! Facade crate for the Gluon reproduction workspace.
//!
//! Re-exports every subsystem under one roof so that examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`graph`] — CSR graphs, generators, I/O ([`gluon_graph`]);
//! * [`net`] — the simulated cluster transport ([`gluon_net`]);
//! * [`partition`] — OEC/IEC/CVC/HVC partitioning ([`gluon_partition`]);
//! * [`substrate`] — the Gluon communication substrate itself ([`gluon`]);
//! * [`engines`] — Ligra/Galois/IrGL-style compute engines
//!   ([`gluon_engines`]);
//! * [`algos`] — the distributed benchmarks and drivers ([`gluon_algos`]);
//! * [`gemini`] — the Gemini baseline system ([`gluon_gemini`]);
//! * [`trace`] — structured span tracing and per-phase metrics
//!   ([`gluon_trace`]);
//! * [`metrics`] — typed counter/gauge/histogram registries, the per-host
//!   round ledger, and the Prometheus/JSON exporters ([`gluon_metrics`]).
//!
//! # Examples
//!
//! ```
//! use gluon_suite::algos::{driver, Algorithm, DistConfig};
//! use gluon_suite::graph::gen;
//!
//! let g = gen::rmat(6, 4, Default::default(), 3);
//! let out = driver::Run::new(&g, Algorithm::Bfs).config(&DistConfig::new(2)).launch();
//! assert_eq!(out.int_labels.len(), g.num_nodes() as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The Gluon communication substrate (re-export of the `gluon` crate).
pub use gluon as substrate;
pub use gluon_algos as algos;
pub use gluon_engines as engines;
pub use gluon_gemini as gemini;
pub use gluon_graph as graph;
pub use gluon_metrics as metrics;
pub use gluon_net as net;
pub use gluon_partition as partition;
pub use gluon_trace as trace;
