//! The receive-side message index every endpoint files into.
//!
//! One map keyed by tag; each tag's queue holds `(src, payload)` in arrival
//! order. A `(src, tag)` receive takes the first entry from `src`, a
//! tag-only receive takes the front — so both see one message pool, a
//! message is enqueued once, and FIFO per `(src, tag)` holds however many
//! sources interleave under a tag. Locking and waiting belong to the owner
//! ([`crate::MemoryTransport`]'s mailbox, [`crate::SocketTransport`]'s
//! receive state).

use bytes::Bytes;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

type Queue = VecDeque<(usize, Bytes)>;

/// Map-table slots reserved (distinct simultaneously pending tags; drift
/// between peers bounds this at a few).
const KEY_RESERVE: usize = 64;
/// Pre-stocked queues on the free-list.
const QUEUE_RESERVE: usize = 32;
/// Message slots per pre-stocked queue: one per peer of a small cluster
/// (sync tags encode the round, so a tag collects one message per source).
const QUEUE_DEPTH: usize = 8;

/// Arrived, not yet received messages of one endpoint.
///
/// Sync tags cycle through a large window (and collective tags through
/// epochs), so map keys keep appearing and disappearing far past any
/// warm-up. Removing an emptied queue keeps the map small, but dropping it
/// would allocate a fresh ring for every future message; parking the
/// capacity-retaining husk on `free` and handing it back out on the next
/// insert keeps steady-state filing allocation-free. Both the map's table
/// and a stock of queues are reserved at construction: the number of
/// *simultaneously* pending tags depends on how far peers drift apart,
/// which peaks long after any warm-up, so a first-touch high-water must
/// not cost an allocation mid-run.
#[derive(Debug)]
pub(crate) struct Inbox {
    by_tag: HashMap<u32, Queue>,
    free: Vec<Queue>,
}

impl Inbox {
    pub(crate) fn new() -> Inbox {
        let mut free = Vec::with_capacity(QUEUE_RESERVE);
        free.resize_with(QUEUE_RESERVE, || VecDeque::with_capacity(QUEUE_DEPTH));
        Inbox {
            by_tag: HashMap::with_capacity(KEY_RESERVE),
            free,
        }
    }

    /// Appends a message behind everything already filed under `tag`,
    /// reviving a recycled queue (or, on a cold pool, allocating one) if
    /// the tag is new.
    pub(crate) fn file(&mut self, src: usize, tag: u32, payload: Bytes) {
        match self.by_tag.entry(tag) {
            Entry::Occupied(mut e) => e.get_mut().push_back((src, payload)),
            Entry::Vacant(e) => {
                let mut q = self.free.pop().unwrap_or_default();
                q.push_back((src, payload));
                e.insert(q);
            }
        }
    }

    /// Takes the oldest message under `tag` — from `src` when one is
    /// named, from anyone otherwise.
    pub(crate) fn take(&mut self, src: Option<usize>, tag: u32) -> Option<(usize, Bytes)> {
        let queue = self.by_tag.get_mut(&tag)?;
        let at = match src {
            Some(src) => queue.iter().position(|(s, _)| *s == src)?,
            None => 0,
        };
        let message = queue.remove(at)?;
        if queue.is_empty() {
            // Park the emptied queue's storage on the free-list.
            let husk = self.by_tag.remove(&tag).expect("queue was just borrowed");
            self.free.push(husk);
        }
        Some(message)
    }

    /// Drops every pending message (a departing endpoint's payloads must
    /// not outlive it in its peers' shared wire).
    pub(crate) fn clear(&mut self) {
        self.by_tag.clear();
    }
}
