//! Balanced contiguous blocking of the node id space.
//!
//! The chunk-based edge-cuts of the paper (§5.2, following Gemini) split
//! nodes into contiguous blocks "while trying to balance outgoing and
//! incoming edges respectively". [`BlockMap`] computes such a split for an
//! arbitrary per-node weight and answers ownership queries in O(log blocks)
//! steps, none of them a branch on the node.

use gluon_graph::Gid;
use serde::{Deserialize, Serialize};

/// A split of `0..num_nodes` into `num_blocks` contiguous ranges with
/// near-equal total weight.
///
/// # Examples
///
/// ```
/// use gluon_partition::BlockMap;
/// use gluon_graph::Gid;
///
/// // Node 0 is heavy; it gets a block of its own.
/// let map = BlockMap::balanced(&[100, 1, 1, 1], 2);
/// assert_eq!(map.owner(Gid(0)), 0);
/// assert_eq!(map.owner(Gid(3)), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BlockMap {
    /// `starts[b]..starts[b + 1]` is block `b`; `starts.len() == num_blocks + 1`.
    starts: Vec<u32>,
}

impl BlockMap {
    /// Splits nodes into `num_blocks` contiguous blocks whose weight totals
    /// are as even as a greedy sweep can make them.
    ///
    /// Every node receives weight `weights[v] + 1` (the `+ 1` balances node
    /// counts when edge weights are highly skewed and guarantees progress
    /// for zero-weight nodes).
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero.
    pub fn balanced(weights: &[u32], num_blocks: usize) -> Self {
        assert!(num_blocks > 0, "need at least one block");
        let n = weights.len();
        let total: u64 = weights.iter().map(|&w| u64::from(w) + 1).sum();
        let mut starts = Vec::with_capacity(num_blocks + 1);
        starts.push(0u32);
        let mut assigned = 0u64;
        let mut v = 0usize;
        for b in 0..num_blocks {
            // Remaining weight spread over remaining blocks.
            let remaining_blocks = (num_blocks - b) as u64;
            let target = (total - assigned).div_ceil(remaining_blocks);
            let mut acc = 0u64;
            // Leave enough nodes so later blocks are never starved below
            // zero size only when nodes run out.
            while v < n && acc < target {
                acc += u64::from(weights[v]) + 1;
                v += 1;
            }
            assigned += acc;
            starts.push(v as u32);
        }
        *starts.last_mut().expect("non-empty") = n as u32;
        BlockMap { starts }
    }

    /// Splits `num_nodes` nodes into equal-size blocks (by node count).
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero.
    pub fn uniform(num_nodes: u32, num_blocks: usize) -> Self {
        assert!(num_blocks > 0, "need at least one block");
        let starts = (0..=num_blocks as u64)
            .map(|b| ((b * u64::from(num_nodes)) / num_blocks as u64) as u32)
            .collect();
        BlockMap { starts }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        *self.starts.last().expect("non-empty")
    }

    /// Block owning `node`: the number of inner block boundaries at or
    /// below it.
    ///
    /// A branch-free binary search over the boundaries: how many steps it
    /// takes depends only on the block count, and each step picks its next
    /// base with a conditional move, so no branch depends on `node`. A
    /// router asking for every edge's destination in turn pays a few loads
    /// from one cache line and no mispredictions.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn owner(&self, node: Gid) -> usize {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        // `starts[0] == 0` and `starts[num_blocks] == num_nodes` bound every
        // node, so only the boundaries between them are searched.
        let inner = &self.starts[1..self.starts.len() - 1];
        // Invariant: every boundary before `base` is `<= node`, every one
        // from `base + len` on is `> node`.
        let mut base = 0;
        let mut len = inner.len();
        while len > 1 {
            let half = len / 2;
            let below = inner[base + half - 1] <= node.0;
            base = std::hint::select_unpredictable(below, base + half, base);
            len -= half;
        }
        base + usize::from(len == 1 && inner[base] <= node.0)
    }

    /// Node range of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn range(&self, b: usize) -> std::ops::Range<u32> {
        self.starts[b]..self.starts[b + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_blocks_cover_everything() {
        let m = BlockMap::uniform(10, 3);
        assert_eq!(m.num_blocks(), 3);
        let sizes: Vec<_> = (0..3).map(|b| m.range(b).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn owner_is_consistent_with_range() {
        let m = BlockMap::balanced(&[5, 1, 1, 9, 2, 2, 0, 4], 3);
        for b in 0..m.num_blocks() {
            for v in m.range(b) {
                assert_eq!(m.owner(Gid(v)), b, "node {v}");
            }
        }
    }

    /// The search [`BlockMap::owner`] replaced: the number of blocks that
    /// start at or before `node`, minus one.
    fn owner_by_partition_point(m: &BlockMap, node: u32) -> usize {
        m.starts.partition_point(|&s| s <= node) - 1
    }

    #[test]
    fn owner_equals_a_partition_point_search() {
        let weights: Vec<u32> = (0..97).map(|v| (v * 31) % 13).collect();
        let mut maps = vec![
            // More blocks than nodes: empty blocks, repeated boundaries.
            BlockMap::uniform(1, 2),
            BlockMap::uniform(2, 5),
            BlockMap::uniform(3, 8),
            BlockMap::uniform(5, 64),
            BlockMap::balanced(&[1000, 0, 0], 5),
            BlockMap::balanced(&[0, 0, 0, 1000], 9),
        ];
        for blocks in [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 97, 128] {
            maps.push(BlockMap::balanced(&weights, blocks));
            maps.push(BlockMap::uniform(97, blocks));
        }
        for m in &maps {
            for v in 0..m.num_nodes() {
                assert_eq!(
                    m.owner(Gid(v)),
                    owner_by_partition_point(m, v),
                    "{m:?}, node {v}"
                );
            }
            // Both sides of every boundary, named, though the sweep covers them.
            for b in (0..m.num_blocks()).filter(|&b| !m.range(b).is_empty()) {
                let r = m.range(b);
                assert_eq!(m.owner(Gid(r.start)), b, "{m:?}, first node of block {b}");
                assert_eq!(m.owner(Gid(r.end - 1)), b, "{m:?}, last node of block {b}");
            }
        }
    }

    #[test]
    fn balanced_splits_heavy_node_apart() {
        let m = BlockMap::balanced(&[100, 1, 1, 1], 2);
        assert_eq!(m.owner(Gid(0)), 0);
        for v in 1..4 {
            assert_eq!(m.owner(Gid(v)), 1);
        }
    }

    #[test]
    fn more_blocks_than_nodes_yields_empty_tail_blocks() {
        let m = BlockMap::uniform(2, 5);
        assert_eq!(m.num_blocks(), 5);
        assert_eq!(m.num_nodes(), 2);
        let nonempty = (0..5).filter(|&b| !m.range(b).is_empty()).count();
        assert_eq!(nonempty, 2);
    }

    #[test]
    fn balanced_weights_are_roughly_even() {
        let weights: Vec<u32> = (0..1000).map(|v| (v * 7919) % 50).collect();
        let m = BlockMap::balanced(&weights, 8);
        let totals: Vec<u64> = (0..8)
            .map(|b| m.range(b).map(|v| u64::from(weights[v as usize]) + 1).sum())
            .collect();
        let max = *totals.iter().max().expect("non-empty");
        let min = *totals.iter().min().expect("non-empty");
        assert!(max < 2 * min.max(1), "imbalanced blocks: {totals:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_rejects_out_of_range() {
        BlockMap::uniform(3, 2).owner(Gid(3));
    }
}
