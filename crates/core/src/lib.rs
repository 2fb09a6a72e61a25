//! Gluon: a communication-optimizing substrate for distributed
//! heterogeneous graph analytics.
//!
//! This crate reproduces the system of Dathathri et al., *PLDI 2018*. A
//! shared-memory graph engine computes on one host's partition
//! ([`gluon_partition::LocalGraph`]); between rounds it calls
//! [`GluonContext::sync`], passing a [`FieldSync`] structure (the paper's
//! reduce/broadcast structs, Figure 5) and the dirty bit-vector. Gluon
//! composes the reduce and broadcast communication patterns required by the
//! partitioning policy's structural invariants (§3), memoizes address
//! translation so no global-IDs travel with values (§4.1), and encodes
//! update metadata in the cheapest wire mode — the paper's four modes
//! (§4.2) plus the codec-v2 compressed candidates (delta-coded index
//! lists, run-length bitvecs, same-value collapsing). Each optimization
//! can be toggled via [`OptLevel`] (the UNOPT/OSI/OTI/OSTI configurations
//! of the paper's Figure 10; `compress` gates codec v2).
//!
//! # Examples
//!
//! A complete distributed BFS over 4 simulated hosts, written directly
//! against the substrate (the engine crates offer higher-level front-ends):
//!
//! ```
//! use gluon::{
//!     DenseBitset, GluonContext, MinField, OptLevel, ReadLocation, SyncSpec, WriteLocation,
//! };
//! use gluon_graph::{gen, max_out_degree_node};
//! use gluon_net::{run_cluster, Communicator};
//! use gluon_partition::{partition_on_host, Policy};
//!
//! // Push operators write at edge destinations and read at sources.
//! const DIST: SyncSpec =
//!     SyncSpec::full(WriteLocation::Destination, ReadLocation::Source).named("dist");
//!
//! let g = gen::rmat(7, 8, Default::default(), 42);
//! let source = max_out_degree_node(&g);
//! let results = run_cluster(4, |ep| {
//!     let comm = Communicator::new(ep);
//!     let lg = partition_on_host(&g, Policy::Oec, &comm);
//!     let mut ctx = GluonContext::new(&lg, &comm, OptLevel::OSTI);
//!     let mut dist = vec![u32::MAX; lg.num_proxies() as usize];
//!     let mut active = DenseBitset::new(lg.num_proxies());
//!     if let Some(s) = lg.lid(source) {
//!         dist[s.index()] = 0;
//!         active.set(s);
//!     }
//!     loop {
//!         let mut next = DenseBitset::new(lg.num_proxies());
//!         for v in active.iter() {
//!             for e in lg.out_edges(v) {
//!                 let nd = dist[v.index()].saturating_add(1);
//!                 if nd < dist[e.dst.index()] {
//!                     dist[e.dst.index()] = nd;
//!                     next.set(e.dst);
//!                 }
//!             }
//!         }
//!         active = next;
//!         let mut field = MinField::new(&mut dist);
//!         ctx.sync(&DIST, &mut field, &mut active);
//!         if !ctx.any_globally(!active.is_empty()) {
//!             break;
//!         }
//!     }
//!     // Collect master labels back to global space.
//!     lg.masters()
//!         .map(|m| (lg.gid(m).0, dist[m.index()]))
//!         .collect::<Vec<_>>()
//! });
//! let mut got = vec![u32::MAX; g.num_nodes() as usize];
//! for host in results {
//!     for (gid, d) in host {
//!         got[gid as usize] = d;
//!     }
//! }
//! assert_eq!(got[source.index()], 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bins;
mod bitset;
mod checkpoint;
mod comm_tags;
mod context;
pub mod encode;
mod field;
mod memo;
mod opts;
mod stats;
mod value;

pub use arena::{SyncArena, ARENA_WARMUP_ROUNDS};
pub use bins::{BinPool, BinScratch, BinSink, BinStats, PullScratch};
pub use bitset::{DenseBitset, Iter as BitsetIter};
pub use checkpoint::{CheckpointSnapshot, CheckpointStore};
pub use context::{GluonContext, ReadLocation, SyncError, SyncSpec, WriteLocation};
pub use encode::DecodeError;
pub use field::{init_field, FieldSync, MaxField, MinField, PairMinField, SumField, Zero};
pub use memo::{FlagFilter, MemoTable, ProxyEntry};
pub use opts::{OptLevel, ParseOptLevelError};
pub use stats::{PhaseStats, RunStats, SyncStats, DEFAULT_EDGES_PER_SEC};
pub use value::SyncValue;

/// Structured tracing for the sync stack (re-exported `gluon-trace`).
pub use gluon_trace as trace;

/// Deterministic intra-host worker pool (re-exported `gluon-exec`).
pub use gluon_exec as exec;
pub use gluon_exec::{Pool, WorkSplit, CHUNK};
