//! User-tag allocation for Gluon's own traffic.
//!
//! All tags live below [`gluon_net::MAX_USER_TAG`]; collectives use their own
//! reserved range above it.

/// Memoization handshake messages (one per host pair at startup).
pub const MEMO_TAG: u32 = 1;

/// First tag of the sync-phase window; see [`sync_tag`].
pub const SYNC_TAG_BASE: u32 = 16;

/// Number of distinguishable in-flight sync phases. BSP lock-step plus FIFO
/// channels only strictly need 2, but a wider window catches mismatched
/// SPMD programs early instead of silently mispairing messages.
pub const SYNC_TAG_WINDOW: u32 = 1024;

/// Tag for sync phase number `seq`, pattern `pat` (0 = reduce,
/// 1 = broadcast).
pub fn sync_tag(seq: u32, pat: u32) -> u32 {
    debug_assert!(pat < 2);
    let tag = SYNC_TAG_BASE + (seq % SYNC_TAG_WINDOW) * 2 + pat;
    // Every tag Gluon itself uses must stay in the user range; the space
    // above it belongs to the collectives.
    gluon_net::assert_user_tag(tag);
    tag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_stay_in_user_range() {
        for seq in [0, 1, 5_000_000] {
            for pat in 0..2 {
                let t = sync_tag(seq, pat);
                assert!(t >= SYNC_TAG_BASE);
                assert!(t < gluon_net::MAX_USER_TAG);
            }
        }
    }

    #[test]
    fn reduce_and_broadcast_tags_differ() {
        assert_ne!(sync_tag(7, 0), sync_tag(7, 1));
    }
}
