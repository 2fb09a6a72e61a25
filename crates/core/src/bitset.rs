//! Dense bit-vector over a host's proxies.
//!
//! The shared-memory engine hands Gluon "a field-specific bit-vector that
//! indicates which nodes' labels have changed" (§4.2). [`DenseBitset`] is
//! that bit-vector: fixed capacity (one bit per proxy), cheap to clear, and
//! iterable in ascending order.

use gluon_graph::Lid;

/// Fixed-capacity bit set indexed by [`Lid`].
///
/// # Examples
///
/// ```
/// use gluon::DenseBitset;
/// use gluon_graph::Lid;
///
/// let mut bits = DenseBitset::new(100);
/// bits.set(Lid(3));
/// bits.set(Lid(64));
/// assert!(bits.test(Lid(3)));
/// assert_eq!(bits.count_ones(), 2);
/// assert_eq!(bits.iter().collect::<Vec<_>>(), vec![Lid(3), Lid(64)]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseBitset {
    words: Vec<u64>,
    capacity: u32,
}

impl DenseBitset {
    /// Creates an empty set with room for `capacity` bits.
    pub fn new(capacity: u32) -> Self {
        DenseBitset {
            words: vec![0; (capacity as usize).div_ceil(64)],
            capacity,
        }
    }

    /// Number of bits the set can hold.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Sets bit `lid`.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is out of range.
    #[inline]
    pub fn set(&mut self, lid: Lid) {
        assert!(
            lid.0 < self.capacity,
            "{lid} beyond capacity {}",
            self.capacity
        );
        self.words[lid.index() / 64] |= 1u64 << (lid.index() % 64);
    }

    /// Clears bit `lid`.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is out of range.
    #[inline]
    pub fn clear(&mut self, lid: Lid) {
        assert!(
            lid.0 < self.capacity,
            "{lid} beyond capacity {}",
            self.capacity
        );
        self.words[lid.index() / 64] &= !(1u64 << (lid.index() % 64));
    }

    /// Tests bit `lid`.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is out of range.
    #[inline]
    pub fn test(&self, lid: Lid) -> bool {
        assert!(
            lid.0 < self.capacity,
            "{lid} beyond capacity {}",
            self.capacity
        );
        self.words[lid.index() / 64] & (1u64 << (lid.index() % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit in `0..capacity`.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        let tail = self.capacity as usize % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &DenseBitset) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The raw backing words (little-endian bit order within each word),
    /// for checkpointing.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the backing words from a checkpointed snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `words` was taken from a bitset of a different capacity.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(
            self.words.len(),
            words.len(),
            "word count mismatch: snapshot from a different capacity"
        );
        self.words.copy_from_slice(words);
        // Re-mask the tail so stray high bits cannot appear past capacity.
        let tail = self.capacity as usize % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Appends `base + bit` for every set bit to `out`, ascending, and
    /// leaves the set empty: each word is taken and zeroed as it is read,
    /// so one pass both lists the members and clears them.
    pub fn drain_into(&mut self, base: u32, out: &mut Vec<Lid>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                out.push(Lid(base + (i * 64) as u32 + w.trailing_zeros()));
                w &= w - 1;
            }
        }
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set bits of a [`DenseBitset`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = Lid;

    fn next(&mut self) -> Option<Lid> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(Lid((self.word_idx * 64) as u32 + bit))
    }
}

impl<'a> IntoIterator for &'a DenseBitset {
    type Item = Lid;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear() {
        let mut b = DenseBitset::new(130);
        assert!(!b.test(Lid(129)));
        b.set(Lid(129));
        assert!(b.test(Lid(129)));
        b.clear(Lid(129));
        assert!(!b.test(Lid(129)));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut b = DenseBitset::new(200);
        let picks = [0u32, 1, 63, 64, 65, 127, 128, 199];
        for &p in &picks {
            b.set(Lid(p));
        }
        let seen: Vec<u32> = b.iter().map(|l| l.0).collect();
        assert_eq!(seen, picks);
    }

    #[test]
    fn set_all_respects_capacity() {
        let mut b = DenseBitset::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
        let max = b.iter().last().expect("non-empty");
        assert_eq!(max, Lid(69));
    }

    #[test]
    fn union_merges() {
        let mut a = DenseBitset::new(10);
        let mut b = DenseBitset::new(10);
        a.set(Lid(1));
        b.set(Lid(8));
        a.union_with(&b);
        assert!(a.test(Lid(1)) && a.test(Lid(8)));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn clear_all_empties() {
        let mut b = DenseBitset::new(100);
        b.set_all();
        b.clear_all();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn drain_lists_members_ascending_and_empties_the_set() {
        // Nothing set: nothing listed, whatever `out` already holds stays.
        let mut out = vec![Lid(7)];
        DenseBitset::new(0).drain_into(5, &mut out);
        DenseBitset::new(130).drain_into(5, &mut out);
        assert_eq!(out, vec![Lid(7)]);

        // 130 bits: a short tail word (bits 128 and 129), both word edges.
        let mut b = DenseBitset::new(130);
        let picks = [0u32, 63, 64, 127, 128, 129];
        for &p in &picks {
            b.set(Lid(p));
        }
        out.clear();
        b.drain_into(0, &mut out);
        assert_eq!(out, picks.map(Lid));
        assert!(b.is_empty(), "drained bits are cleared");
        b.drain_into(0, &mut out);
        assert_eq!(out.len(), picks.len(), "a second drain finds nothing");

        // A non-zero base shifts every member; a full set lists them all.
        let mut b = DenseBitset::new(70);
        b.set_all();
        out.clear();
        b.drain_into(1000, &mut out);
        assert_eq!(out, (1000..1070).map(Lid).collect::<Vec<_>>());
        assert!(b.is_empty());
    }

    #[test]
    fn empty_capacity_is_fine() {
        let b = DenseBitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_set_panics() {
        DenseBitset::new(5).set(Lid(5));
    }
}
