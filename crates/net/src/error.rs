//! Transport-level errors.
//!
//! Both wires are reliable FIFO streams, so a host sees a fault in one of
//! three shapes: a peer's endpoint closed ([`NetError::PeerDown`] — a
//! killed worker's sockets, a dropped [`crate::MemoryTransport`]), a
//! [`crate::CrashRule`] killed this host's own endpoint
//! ([`NetError::HostCrashed`]), or a sibling host tripped the cluster's
//! cancellation token ([`NetError::Cancelled`]). All of them surface
//! through the methods of [`crate::Transport`] so that callers —
//! ultimately the Gluon sync paths — can degrade gracefully instead of
//! blocking forever or panicking.
//!
//! The `round` carried by the failure variants is the last sync-phase
//! index the local host reported through [`crate::Transport::note_round`]
//! (0 if the failure happened before the first sync), which lets a
//! supervisor decide which checkpoint epoch to roll back to.

use std::fmt;

/// Errors surfaced by fallible transport operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// A peer's endpoint closed: its process died, its socket reached EOF
    /// or failed, or its in-memory endpoint was dropped. Nothing more will
    /// ever arrive from it.
    PeerDown {
        /// Rank of the dead peer.
        peer: usize,
        /// Sync-phase index the local host was in when the peer died.
        round: u64,
    },
    /// An injected [`crate::CrashRule`] killed *this* host's endpoint: the
    /// host is simulating its own death and must unwind without notifying
    /// its peers (they learn of it when its endpoint closes).
    HostCrashed {
        /// Rank of the crashed host (the local rank).
        host: usize,
        /// Sync-phase index at which the crash rule fired.
        round: u64,
    },
    /// A sibling host tripped the cluster's cancellation token after
    /// failing, so this host aborted its blocking operation instead of
    /// waiting for traffic that will never come.
    Cancelled,
}

impl NetError {
    /// The remote peer this error blames, if it blames one.
    ///
    /// `HostCrashed` (a local event) and `Cancelled` (a cluster-wide event)
    /// name no remote peer.
    pub fn peer(&self) -> Option<usize> {
        match self {
            NetError::PeerDown { peer, .. } => Some(*peer),
            NetError::HostCrashed { .. } | NetError::Cancelled => None,
        }
    }

    /// The sync-phase index attached to the error, if any.
    pub fn round(&self) -> Option<u64> {
        match self {
            NetError::PeerDown { round, .. } | NetError::HostCrashed { round, .. } => Some(*round),
            NetError::Cancelled => None,
        }
    }

    /// True for the variants that indicate a host failed (the signals a
    /// supervisor treats as recoverable by rollback-restart).
    pub fn is_peer_failure(&self) -> bool {
        matches!(
            self,
            NetError::PeerDown { .. } | NetError::HostCrashed { .. }
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PeerDown { peer, round } => {
                write!(
                    f,
                    "peer {peer} declared down: its endpoint closed (round {round})"
                )
            }
            NetError::HostCrashed { host, round } => {
                write!(f, "host {host} crashed by fault injection at round {round}")
            }
            NetError::Cancelled => write!(f, "cancelled: a sibling host failed"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_down_names_the_peer_and_round() {
        let d = NetError::PeerDown { peer: 3, round: 11 };
        assert!(d.to_string().contains("peer 3"));
        assert!(d.to_string().contains("round 11"));
        assert_eq!(d.peer(), Some(3));
        assert_eq!(d.round(), Some(11));
        assert!(d.is_peer_failure());
    }

    #[test]
    fn a_crash_blames_no_peer_but_carries_its_round() {
        let c = NetError::HostCrashed { host: 2, round: 9 };
        assert_eq!(c.peer(), None);
        assert_eq!(c.round(), Some(9));
        assert!(c.is_peer_failure());
        assert!(c.to_string().contains("host 2"));
    }

    #[test]
    fn cancellation_blames_no_peer() {
        let e = NetError::Cancelled;
        assert_eq!(e.peer(), None);
        assert_eq!(e.round(), None);
        assert!(!e.is_peer_failure());
        assert!(e.to_string().contains("cancelled"));
    }
}
