//! In-memory message transport and collectives for the Gluon workspace.
//!
//! This crate stands in for MPI/LCI (the "Network" box of the paper's
//! Figure 1): it provides two-sided point-to-point messaging
//! ([`MemoryTransport`]), the collectives Gluon needs ([`Communicator`]),
//! an SPMD launcher ([`run_cluster`]) that simulates a cluster with one OS
//! thread per host, exact per-host-pair traffic counters ([`NetStats`]),
//! and an α–β [`CostModel`] that projects wall-clock communication time for
//! a real interconnect from the measured traffic.
//!
//! # Examples
//!
//! ```
//! use gluon_net::{run_cluster, Communicator, Transport};
//! use bytes::Bytes;
//!
//! let echoes = run_cluster(2, |ep| {
//!     let comm = Communicator::new(ep);
//!     let all = comm.all_gather(Bytes::copy_from_slice(&[ep.rank() as u8]));
//!     all.iter().map(|b| b[0]).collect::<Vec<_>>()
//! });
//! assert_eq!(echoes[0], vec![0, 1]);
//! assert_eq!(echoes[1], vec![0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
mod cluster;
mod comm;
mod cost;
mod detector;
mod error;
mod fault;
mod inbox;
mod jitter;
mod reliable;
mod socket;
mod stats;
mod transport;

pub use bootstrap::{join, Rendezvous, SocketFactory, SocketKind};
pub use cluster::{run_cluster, run_cluster_fallible, run_cluster_with_stats, run_cluster_wrapped};
pub use comm::{assert_user_tag, Communicator, COLLECTIVE_TAG_BASE, MAX_USER_TAG};
pub use cost::CostModel;
pub use detector::DetectorConfig;
pub use error::NetError;
pub use fault::{CrashRule, FaultAction, FaultCounters, FaultPlan, FaultRule, FaultyTransport};
pub use jitter::JitterTransport;
pub use reliable::{crc32_parts, ReliableConfig, ReliableTransport, RetryPolicy, RELIABLE_TAG};
pub use socket::SocketTransport;
pub use stats::{NetStats, StatsDelta, StatsSnapshot};
pub use transport::{CancelToken, Envelope, MemoryTransport, Transport};
