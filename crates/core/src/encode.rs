//! Compact metadata encodings for updated values (§4.2), plus the codec-v2
//! compressed modes layered on top of them.
//!
//! When memoization (§4.1) is on, two hosts share an agreed, ordered list of
//! proxies; a sync message only has to say *which positions* of that list
//! carry values. Gluon picks, per message, the cheapest of the candidate
//! encodings by computing each candidate's exact byte size:
//!
//! | mode | when | wire layout (after the mode byte) |
//! |---|---|---|
//! | [`WireMode::Empty`] | no updates | nothing |
//! | [`WireMode::Dense`] | updates dense | values of *all* list entries |
//! | [`WireMode::Bitvec`] | updates sparse | bit per list entry + set values |
//! | [`WireMode::Indices`] | very sparse | `u32` count, `u32` positions, values |
//! | [`WireMode::IndicesDelta`] | sparse, clustered-or-not | varint count, varint first position, varint gaps (`delta − 1`), values |
//! | [`WireMode::RunLength`] | runs of consecutive updates | varint run count, alternating unset/set run lengths as varints, values |
//! | [`WireMode::SameIndicesDelta`] | all updated values byte-identical | `IndicesDelta` metadata + **one** value |
//! | [`WireMode::SameRunLength`] | all updated values byte-identical | `RunLength` metadata + **one** value |
//!
//! "The number of bits set in the bit-vector is used to determine which mode
//! yields the smallest message size. A byte in the sent message indicates
//! which mode was selected."
//!
//! The compressed modes (5–8) extend that rule: delta-coded index lists
//! shrink the 4-byte-per-position cost of [`WireMode::Indices`] to one or
//! two bytes per gap, run-length coding collapses contiguous update ranges,
//! and the `Same*` variants ship a single value when every updated value is
//! byte-identical on the wire (the common "all updates equal" broadcast —
//! e.g. a BFS frontier all at the same depth). Same-value detection
//! compares *encoded bytes*, never `PartialEq`, so `-0.0`/`0.0` keep their
//! bit patterns and `NaN`s simply never collapse. Selection is a pure
//! function of `(list_len, updated positions, value bytes)` — identical at
//! any thread count.
//!
//! Without memoization there is no agreed list; [`encode_gid_values`]
//! produces the classic `(global-ID, value)` pair stream other systems use
//! ([`WireMode::GidValues`]).
//!
//! # Error handling contract
//!
//! Every decode entry point is fallible: [`decode_memoized`] and
//! [`decode_gid_values`] return [`DecodeError`] on any malformed input —
//! truncated payloads, unknown mode bytes, out-of-range or non-increasing
//! positions, varint overflows, trailing bytes — and never panic, whatever
//! the bytes. A memoized payload is validated in full before its first
//! value is applied ([`validate_memoized`] returns a [`MemoFrame`] that
//! cannot fail to apply), so a rejected payload applies nothing. The
//! *encoders* still assert their local preconditions (sorted in-range
//! positions): those inputs come from this process, not from the wire.

use crate::value::SyncValue;
use bytes::{BufMut, Bytes};
use gluon_graph::Gid;
use std::fmt;
use std::marker::PhantomData;

/// Number of distinct wire modes (mode bytes `0..NUM_WIRE_MODES`).
pub const NUM_WIRE_MODES: usize = 9;

/// Wire encoding selected for one sync message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum WireMode {
    /// No updates at all.
    Empty = 0,
    /// Values of every list entry, no metadata.
    Dense = 1,
    /// Bit-vector over the list plus values of set entries.
    Bitvec = 2,
    /// Explicit `u32` positions plus values.
    Indices = 3,
    /// `(global-ID, value)` pairs — the non-memoized fallback.
    GidValues = 4,
    /// Varint-delta-coded positions plus values (codec v2).
    IndicesDelta = 5,
    /// Run-length-coded bit-vector plus values (codec v2).
    RunLength = 6,
    /// [`WireMode::IndicesDelta`] metadata with one shared value (codec
    /// v2, all updated values byte-identical).
    SameIndicesDelta = 7,
    /// [`WireMode::RunLength`] metadata with one shared value (codec v2,
    /// all updated values byte-identical).
    SameRunLength = 8,
}

impl WireMode {
    /// Every mode, ordered by mode byte.
    pub const ALL: [WireMode; NUM_WIRE_MODES] = [
        WireMode::Empty,
        WireMode::Dense,
        WireMode::Bitvec,
        WireMode::Indices,
        WireMode::GidValues,
        WireMode::IndicesDelta,
        WireMode::RunLength,
        WireMode::SameIndicesDelta,
        WireMode::SameRunLength,
    ];

    /// Parses a mode byte.
    pub fn from_byte(b: u8) -> Option<WireMode> {
        match b {
            0 => Some(WireMode::Empty),
            1 => Some(WireMode::Dense),
            2 => Some(WireMode::Bitvec),
            3 => Some(WireMode::Indices),
            4 => Some(WireMode::GidValues),
            5 => Some(WireMode::IndicesDelta),
            6 => Some(WireMode::RunLength),
            7 => Some(WireMode::SameIndicesDelta),
            8 => Some(WireMode::SameRunLength),
            _ => None,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Empty => "empty",
            WireMode::Dense => "dense",
            WireMode::Bitvec => "bitvec",
            WireMode::Indices => "indices",
            WireMode::GidValues => "gid_values",
            WireMode::IndicesDelta => "idx_delta",
            WireMode::RunLength => "run_len",
            WireMode::SameIndicesDelta => "same_idx",
            WireMode::SameRunLength => "same_run",
        }
    }

    /// The mode byte of a *locally produced* payload.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty or carries an unknown mode byte. Only
    /// for payloads this process just encoded; bytes from the wire go
    /// through [`WireMode::try_of`].
    pub fn of(payload: &[u8]) -> WireMode {
        WireMode::try_of(payload).expect("locally produced payload has a known mode byte")
    }

    /// The mode byte of a payload of unknown provenance.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on an empty payload,
    /// [`DecodeError::UnknownMode`] on an unrecognized mode byte.
    pub fn try_of(payload: &[u8]) -> Result<WireMode, DecodeError> {
        let &b = payload.first().ok_or(DecodeError::Truncated)?;
        WireMode::from_byte(b).ok_or(DecodeError::UnknownMode(b))
    }
}

impl fmt::Display for WireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a received payload could not be decoded. Malformed bytes (a
/// corrupted frame on an unprotected transport, a forged message) surface
/// as one of these — the decoders never panic on wire input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The payload ended before the layout said it would.
    Truncated,
    /// The first byte is not a known mode byte.
    UnknownMode(u8),
    /// A known mode that is invalid for this decoder (e.g. a
    /// [`WireMode::GidValues`] payload handed to [`decode_memoized`]).
    UnexpectedMode(WireMode),
    /// A decoded position does not fit the agreed proxy list.
    IndexOutOfRange {
        /// The offending position.
        pos: u64,
        /// Length of the agreed list.
        list_len: usize,
    },
    /// Bytes remain after the layout's last field.
    TrailingBytes(usize),
    /// A varint ran past the largest encodable value.
    VarintOverflow,
    /// The payload violates the mode's structural rules.
    Malformed(&'static str),
    /// A `(global-ID, value)` payload named a node with no proxy here.
    UnknownGid(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::UnknownMode(b) => write!(f, "unknown wire mode byte {b:#04x}"),
            DecodeError::UnexpectedMode(m) => {
                write!(f, "wire mode {m} is invalid for this decoder")
            }
            DecodeError::IndexOutOfRange { pos, list_len } => {
                write!(f, "position {pos} outside the {list_len}-entry agreed list")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the payload"),
            DecodeError::VarintOverflow => write!(f, "varint overflows u64"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
            DecodeError::UnknownGid(gid) => {
                write!(f, "global id {gid} has no proxy on this host")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Exact LEB128 length of `x`.
#[inline]
fn varint_len(x: u64) -> usize {
    ((64 - x.leading_zeros()).max(1) as usize).div_ceil(7)
}

fn put_varint<B: BufMut>(buf: &mut B, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

/// Reads one LEB128 varint from `body` at `*cursor`, advancing it.
fn read_varint(body: &[u8], cursor: &mut usize) -> Result<u64, DecodeError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = body.get(*cursor).ok_or(DecodeError::Truncated)?;
        *cursor += 1;
        let low = (b & 0x7f) as u64;
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(DecodeError::VarintOverflow);
        }
        x |= low << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// The metadata sizes of the position-list layouts, accumulated one update
/// position at a time (ascending) so that mode selection needs no pass of
/// its own over the positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct PosMeta {
    /// Positions seen.
    k: usize,
    first: u32,
    last: u32,
    /// Varint bytes of every `delta − 1` gap ([`WireMode::IndicesDelta`]).
    gap_bytes: usize,
    /// Varint bytes of the closed runs: the unset prefix, then one
    /// (set run, unset gap) pair per gap ([`WireMode::RunLength`]).
    run_bytes: usize,
    /// Runs closed so far.
    runs: u64,
    /// Length of the open set run, which closes the run list.
    set_len: u64,
}

impl PosMeta {
    fn of(positions: &[u32]) -> PosMeta {
        let mut meta = PosMeta::default();
        for &p in positions {
            meta.push(p);
        }
        meta
    }

    /// The metadata of the positions `0..k`, without walking them.
    fn prefix(k: usize) -> PosMeta {
        if k == 0 {
            return PosMeta::default();
        }
        PosMeta {
            k,
            first: 0,
            last: k as u32 - 1,
            gap_bytes: k - 1,
            run_bytes: 1,
            runs: 1,
            set_len: k as u64,
        }
    }

    #[inline]
    fn push(&mut self, p: u32) {
        if self.k == 0 {
            self.first = p;
            self.run_bytes = varint_len(u64::from(p));
            self.runs = 1;
            self.set_len = 1;
        } else if p == self.last + 1 {
            self.gap_bytes += 1;
            self.set_len += 1;
        } else {
            let gap = u64::from(p - self.last - 1);
            self.gap_bytes += varint_len(gap);
            self.run_bytes += varint_len(self.set_len) + varint_len(gap);
            self.runs += 2;
            self.set_len = 1;
        }
        self.last = p;
        self.k += 1;
    }

    /// Varint count, varint first position, varint gaps.
    fn delta_bytes(&self) -> usize {
        varint_len(self.k as u64) + varint_len(u64::from(self.first)) + self.gap_bytes
    }

    /// Varint run count, then every run length as a varint.
    fn run_list_bytes(&self) -> usize {
        varint_len(self.runs + 1) + self.run_bytes + varint_len(self.set_len)
    }
}

/// Calls `f(mode, size)` for every candidate encoding of the update set
/// `meta` describes, in the fixed candidate order.
fn for_each_candidate(
    list_len: usize,
    v: usize,
    meta: &PosMeta,
    values_identical: bool,
    compress: bool,
    mut f: impl FnMut(WireMode, usize),
) {
    let k = meta.k;
    f(WireMode::Dense, 1 + list_len * v);
    f(WireMode::Bitvec, 1 + list_len.div_ceil(8) + k * v);
    f(WireMode::Indices, 1 + 4 + k * 4 + k * v);
    if compress && k > 0 {
        let dmeta = meta.delta_bytes();
        let rmeta = meta.run_list_bytes();
        f(WireMode::IndicesDelta, 1 + dmeta + k * v);
        f(WireMode::RunLength, 1 + rmeta + k * v);
        if values_identical {
            f(WireMode::SameIndicesDelta, 1 + dmeta + v);
            f(WireMode::SameRunLength, 1 + rmeta + v);
        }
    }
}

/// Exact wire sizes of every encoding applicable to this update set, in
/// fixed candidate order. `values_identical` admits the `Same*` modes (the
/// caller must have compared the *encoded* value bytes); `compress = false`
/// restricts the set to the paper's original three modes — the codec-v1
/// baseline that [`crate::OptLevel::without_compression`] selects.
///
/// The adaptive selector picks the minimum size from exactly this list
/// (ties resolve to the earliest candidate, as `min_by_key` does), so a
/// test can verify the choice was optimal by recomputing it.
pub fn candidate_sizes<V: SyncValue>(
    list_len: usize,
    updated: &[u32],
    values_identical: bool,
    compress: bool,
) -> Vec<(WireMode, usize)> {
    let mut out = Vec::new();
    let meta = PosMeta::of(updated);
    for_each_candidate(
        list_len,
        V::WIRE_BYTES,
        &meta,
        values_identical,
        compress,
        |m, s| out.push((m, s)),
    );
    out
}

/// Reusable scratch for [`encode_memoized_into`]: the position metadata of
/// the sparse layouts, staged while their values move into place. Sized by
/// high-water mark — after a warm-up round the sync arena's per-peer
/// scratch never grows again (the paper's temporal invariance applied to
/// memory: stable partitioning means stable buffer shapes).
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    head: Vec<u8>,
}

/// The one pass of a memoized encode: takes the update set as ascending
/// `(position, value)` pairs, writes each value's wire bytes into the
/// payload as it arrives, and accumulates everything mode selection needs
/// — the count, the delta and run metadata sizes, whether every value is
/// byte-identical — along the way.
///
/// The values land where the likeliest body wants them. While the
/// positions run `0, 1, 2, …` the payload is `mode, values`: the
/// [`WireMode::Dense`] body of an all-dirty list. At the first gap, if more
/// than one position in eight has been dirty so far, it turns into `mode,
/// bit-vector, values` — the [`WireMode::Bitvec`] body — and the bits are
/// set as positions arrive; otherwise the values stay packed behind the
/// mode byte, ready to move behind a position list. A body the selector
/// agrees with is finished by writing the mode byte; any other is
/// rearranged once, and a dense body with gaps is rebuilt from `value_at`.
pub(crate) struct MemoEncoder<V> {
    /// Owned while the pass runs, so its length stays in a register.
    out: Vec<u8>,
    list_len: usize,
    meta: PosMeta,
    same: bool,
    layout: Layout,
    _value: PhantomData<fn(V)>,
}

/// What follows the mode byte of a payload being built.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Layout {
    /// The values of positions `0..k`, whose metadata is implied.
    Prefix,
    /// The values of the positions in `meta`, packed.
    Packed,
    /// The bit-vector of the list, then the values.
    Bitvec,
}

impl<V: SyncValue> MemoEncoder<V> {
    /// Starts a payload for an agreed list of `list_len` entries in `out`
    /// (cleared first; capacity is kept). [`MemoEncoder::finish`] hands it
    /// back.
    pub(crate) fn new(list_len: usize, mut out: Vec<u8>) -> Self {
        out.clear();
        out.push(WireMode::Empty as u8);
        MemoEncoder {
            out,
            list_len,
            meta: PosMeta::default(),
            same: true,
            layout: Layout::Prefix,
            _value: PhantomData,
        }
    }

    /// Reserves room for a body of `k` updates, when the caller knows `k`
    /// up front.
    pub(crate) fn reserve(&mut self, k: usize) {
        let v = V::WIRE_BYTES;
        let body = match k {
            0 => 0,
            k if k == self.list_len => k * v,
            k => self.list_len.div_ceil(8) + k * v,
        };
        self.out.reserve(body);
    }

    /// Adds the next update: `pos` must exceed every position pushed
    /// before it and lie inside the list. Always inlined: an out-of-line
    /// call per update costs about as much as the update.
    #[inline(always)]
    pub(crate) fn push(&mut self, pos: u32, value: V) {
        if self.layout == Layout::Prefix && pos as usize == self.meta.k {
            self.meta.k += 1;
        } else {
            if self.layout == Layout::Prefix {
                self.leave_prefix(pos);
            }
            if self.layout == Layout::Bitvec {
                self.out[1 + pos as usize / 8] |= 1 << (pos % 8);
            }
            self.meta.push(pos);
        }
        let at = self.out.len();
        value.write_to(&mut self.out);
        if self.same {
            let (first, v) = (self.values_start(), V::WIRE_BYTES);
            self.same = self.out[first..first + v] == self.out[at..at + v];
        }
    }

    /// The first gap: spells out the metadata of the prefix, and takes the
    /// bit-vector layout if the update set looks dense enough for it.
    #[cold]
    #[inline(never)]
    fn leave_prefix(&mut self, pos: u32) {
        let k = self.meta.k;
        self.settle_meta();
        if 8 * (k + 1) > pos as usize + 1 {
            self.insert_bits(0..k as u32);
        } else {
            self.layout = Layout::Packed;
        }
    }

    /// Spells out the metadata a prefix leaves implied.
    fn settle_meta(&mut self) {
        if self.layout == Layout::Prefix {
            self.meta = PosMeta::prefix(self.meta.k);
        }
    }

    fn values_start(&self) -> usize {
        match self.layout {
            Layout::Bitvec => 1 + self.list_len.div_ceil(8),
            Layout::Prefix | Layout::Packed => 1,
        }
    }

    /// Moves the packed values behind a bit-vector of `positions`.
    fn insert_bits(&mut self, positions: impl IntoIterator<Item = u32>) {
        let nb = self.list_len.div_ceil(8);
        let vals = self.out.len() - 1;
        self.out.resize(1 + nb + vals, 0);
        self.out.copy_within(1..1 + vals, 1 + nb);
        self.out[1..1 + vals.min(nb)].fill(0);
        for p in positions {
            self.out[1 + p as usize / 8] |= 1 << (p % 8);
        }
        self.layout = Layout::Bitvec;
    }

    /// Picks the smallest mode among the candidates (the earliest on a tie)
    /// and finishes the payload in it. `positions` are the positions pushed,
    /// `value_at` reads any list entry (only a dense body with gaps needs
    /// it).
    pub(crate) fn finish(
        mut self,
        positions: &[u32],
        value_at: impl Fn(usize) -> V,
        compress: bool,
        scratch: &mut EncodeScratch,
    ) -> Vec<u8> {
        self.settle_meta();
        let mut best = (WireMode::Empty, usize::MAX);
        if self.meta.k > 0 {
            for_each_candidate(
                self.list_len,
                V::WIRE_BYTES,
                &self.meta,
                self.same,
                compress,
                |m, s| {
                    if s < best.1 {
                        best = (m, s);
                    }
                },
            );
        }
        self.emit(best.0, positions, value_at, &mut scratch.head)
    }

    /// Finishes the payload in `mode`, which must represent the update set
    /// (`Same*` modes need byte-identical values).
    fn emit(
        mut self,
        mode: WireMode,
        positions: &[u32],
        value_at: impl Fn(usize) -> V,
        head: &mut Vec<u8>,
    ) -> Vec<u8> {
        debug_assert_eq!(positions.len(), self.meta.k, "one position per update");
        self.settle_meta();
        let v = V::WIRE_BYTES;
        let k = self.meta.k;
        match mode {
            WireMode::Empty => self.out.truncate(1),
            WireMode::Dense if self.layout == Layout::Prefix && k == self.list_len => {}
            WireMode::Dense => {
                self.out.truncate(1);
                for pos in 0..self.list_len {
                    value_at(pos).write_to(&mut self.out);
                }
            }
            WireMode::Bitvec if self.layout == Layout::Bitvec => {}
            WireMode::Bitvec => self.insert_bits(positions.iter().copied()),
            WireMode::GidValues => unreachable!("not a memoized mode"),
            _ => {
                let same = matches!(mode, WireMode::SameIndicesDelta | WireMode::SameRunLength);
                let vals = if same { v } else { k * v };
                head.clear();
                self.put_positions(mode, positions, head);
                let start = self.values_start();
                let len = 1 + head.len() + vals;
                if len > self.out.len() {
                    self.out.resize(len, 0);
                }
                self.out.copy_within(start..start + vals, 1 + head.len());
                self.out[1..1 + head.len()].copy_from_slice(head);
                self.out.truncate(len);
            }
        }
        self.out[0] = mode as u8;
        self.out
    }

    /// The position metadata of a position-list mode.
    fn put_positions(&self, mode: WireMode, positions: &[u32], head: &mut Vec<u8>) {
        match mode {
            WireMode::Indices => {
                head.put_u32_le(positions.len() as u32);
                for &p in positions {
                    head.put_u32_le(p);
                }
            }
            WireMode::IndicesDelta | WireMode::SameIndicesDelta => {
                put_varint(head, positions.len() as u64);
                put_varint(head, u64::from(positions[0]));
                for w in positions.windows(2) {
                    put_varint(head, u64::from(w[1] - w[0] - 1));
                }
            }
            _ => {
                // The alternating run lengths, starting with the (possibly
                // zero) unset prefix and ending with the final set run; the
                // implicit unset tail is not encoded.
                put_varint(head, self.meta.runs + 1);
                put_varint(head, u64::from(positions[0]));
                let mut set_len = 1u64;
                for w in positions.windows(2) {
                    if w[1] == w[0] + 1 {
                        set_len += 1;
                    } else {
                        put_varint(head, set_len);
                        put_varint(head, u64::from(w[1] - w[0] - 1));
                        set_len = 1;
                    }
                }
                put_varint(head, set_len);
            }
        }
    }
}

/// Encodes the update set `updated` (sorted positions into the agreed list
/// of `list_len` entries) choosing the smallest wire mode among every
/// codec-v2 candidate.
///
/// `value_at(pos)` must return the current value of list entry `pos`; dense
/// mode reads *every* position, the sparse modes only the updated ones.
///
/// # Examples
///
/// ```
/// use gluon::encode::{decode_memoized, encode_memoized, WireMode};
///
/// let values = [10u32, 20, 30, 40];
/// let msg = encode_memoized(4, &[1, 3], |p| values[p]);
/// let mut got = Vec::new();
/// decode_memoized::<u32>(&msg, 4, &mut |pos, v| got.push((pos, v))).unwrap();
/// assert_eq!(got, vec![(1, 20), (3, 40)]);
/// ```
///
/// # Panics
///
/// Panics if `updated` is not sorted or contains a position `>= list_len`
/// (a local-caller contract — wire input never reaches the encoder).
pub fn encode_memoized<V: SyncValue>(
    list_len: usize,
    updated: &[u32],
    value_at: impl Fn(usize) -> V,
) -> Bytes {
    encode_memoized_with(list_len, updated, value_at, true)
}

/// As [`encode_memoized`], with the codec-v2 candidates gated on
/// `compress`: when false only the original dense/bitvec/indices modes
/// compete, reproducing the pre-compression wire format byte for byte.
///
/// # Panics
///
/// As [`encode_memoized`].
pub fn encode_memoized_with<V: SyncValue>(
    list_len: usize,
    updated: &[u32],
    value_at: impl Fn(usize) -> V,
    compress: bool,
) -> Bytes {
    let mut scratch = EncodeScratch::default();
    let mut out = Vec::new();
    encode_memoized_into(
        list_len,
        updated,
        value_at,
        compress,
        &mut scratch,
        &mut out,
    );
    Bytes::from(out)
}

/// As [`encode_memoized_with`], writing the payload into a caller-owned
/// buffer (cleared first) with caller-owned scratch — the allocation-free
/// entry point the sync arena uses. After a warm-up pass has grown
/// `scratch` and `out` to their high-water capacities, further calls with
/// the same shapes perform no heap allocation. The payload bytes are
/// identical to [`encode_memoized_with`] in every case.
///
/// # Panics
///
/// As [`encode_memoized`].
pub fn encode_memoized_into<V: SyncValue>(
    list_len: usize,
    updated: &[u32],
    value_at: impl Fn(usize) -> V,
    compress: bool,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    check_positions(list_len, updated);
    let mut enc = MemoEncoder::new(list_len, std::mem::take(out));
    enc.reserve(updated.len());
    for &p in updated {
        enc.push(p, value_at(p as usize));
    }
    *out = enc.finish(updated, value_at, compress, scratch);
}

/// The encoders' local-caller contract: sorted, in-range positions.
fn check_positions(list_len: usize, updated: &[u32]) {
    debug_assert!(updated.windows(2).all(|w| w[0] < w[1]), "positions sorted");
    assert!(
        updated.last().is_none_or(|&p| (p as usize) < list_len),
        "update position out of list range"
    );
}

/// Builds the payload for one *forced* wire mode, bypassing the adaptive
/// selector — for golden-format and differential tests.
///
/// Returns `None` when `mode` cannot represent this update set:
/// [`WireMode::Empty`] with updates (or any other mode without),
/// [`WireMode::GidValues`] (no agreed list), or a `Same*` mode whose
/// updated values are not byte-identical.
///
/// # Panics
///
/// As [`encode_memoized`] for unsorted or out-of-range positions.
pub fn encode_memoized_as<V: SyncValue>(
    mode: WireMode,
    list_len: usize,
    updated: &[u32],
    value_at: impl Fn(usize) -> V,
) -> Option<Bytes> {
    check_positions(list_len, updated);
    if mode == WireMode::Empty {
        return updated
            .is_empty()
            .then(|| Bytes::from_static(&[WireMode::Empty as u8]));
    }
    if updated.is_empty() || mode == WireMode::GidValues {
        return None;
    }
    let mut enc = MemoEncoder::new(list_len, Vec::new());
    for &p in updated {
        enc.push(p, value_at(p as usize));
    }
    if matches!(mode, WireMode::SameIndicesDelta | WireMode::SameRunLength) && !enc.same {
        return None;
    }
    Some(Bytes::from(enc.emit(
        mode,
        updated,
        value_at,
        &mut Vec::new(),
    )))
}

/// Decodes a payload produced by [`encode_memoized`], calling
/// `apply(position, value)` for every carried entry.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed payload — this function is
/// total over arbitrary bytes and never panics. The whole payload is
/// validated before the first `apply` call ([`validate_memoized`]), so a
/// rejected payload applies nothing.
pub fn decode_memoized<V: SyncValue>(
    payload: &[u8],
    list_len: usize,
    apply: &mut impl FnMut(usize, V),
) -> Result<(), DecodeError> {
    decode_memoized_scratch(payload, list_len, &mut DecodeScratch::default(), apply)
}

/// Reusable scratch for [`validate_memoized`]: the positions and set runs
/// the position-list and run-length layouts are validated into before any
/// value is applied. Sized by high-water mark, like [`EncodeScratch`].
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    /// Decoded positions of an `Indices`- or `IndicesDelta`-family payload.
    positions: Vec<usize>,
    /// Decoded `(start, end)` set runs of a `RunLength`-family payload.
    set_ranges: Vec<(usize, usize)>,
}

/// As [`decode_memoized`], with caller-owned scratch — the
/// allocation-free entry point. Decoding behavior and errors are
/// identical in every case.
///
/// # Errors
///
/// As [`decode_memoized`].
pub fn decode_memoized_scratch<V: SyncValue>(
    payload: &[u8],
    list_len: usize,
    scratch: &mut DecodeScratch,
    apply: &mut impl FnMut(usize, V),
) -> Result<(), DecodeError> {
    validate_memoized::<V>(payload, list_len, scratch)?.for_each(apply);
    Ok(())
}

/// A memoized payload that passed [`validate_memoized`]: every position
/// lies inside the agreed list and increases strictly, and the value
/// section holds exactly one value per carried entry (or the one shared
/// value). Applying it cannot fail.
#[derive(Debug)]
pub struct MemoFrame<'a, V> {
    body: FrameBody<'a>,
    _value: PhantomData<fn() -> V>,
}

#[derive(Debug)]
enum FrameBody<'a> {
    Empty,
    Dense(&'a [u8]),
    Bitvec {
        bits: &'a [u8],
        values: &'a [u8],
    },
    Listed {
        positions: &'a [usize],
        values: &'a [u8],
        same: bool,
    },
    Runs {
        ranges: &'a [(usize, usize)],
        values: &'a [u8],
        same: bool,
    },
}

impl<V: SyncValue> MemoFrame<'_, V> {
    /// Calls `apply(position, value)` for every carried entry, in
    /// ascending position order.
    pub fn for_each(&self, mut apply: impl FnMut(usize, V)) {
        let v = V::WIRE_BYTES;
        match self.body {
            FrameBody::Empty => {}
            FrameBody::Dense(values) => {
                for (pos, raw) in values.chunks_exact(v).enumerate() {
                    apply(pos, V::read_from(raw));
                }
            }
            FrameBody::Bitvec { bits, values } => {
                let mut values = values.chunks_exact(v);
                for (i, &byte) in bits.iter().enumerate() {
                    let mut b = byte;
                    while b != 0 {
                        let raw = values.next().expect("validated: a value per set bit");
                        apply(i * 8 + b.trailing_zeros() as usize, V::read_from(raw));
                        b &= b - 1;
                    }
                }
            }
            FrameBody::Listed {
                positions,
                values,
                same,
            } => apply_listed(positions.iter().copied(), values, same, apply),
            FrameBody::Runs {
                ranges,
                values,
                same,
            } => apply_listed(ranges.iter().flat_map(|&(s, e)| s..e), values, same, apply),
        }
    }
}

/// Pairs ascending positions with their values — one each, or the one
/// shared value.
fn apply_listed<V: SyncValue>(
    positions: impl Iterator<Item = usize>,
    values: &[u8],
    same: bool,
    mut apply: impl FnMut(usize, V),
) {
    if same {
        let value = V::read_from(values);
        positions.for_each(|p| apply(p, value));
    } else {
        for (p, raw) in positions.zip(values.chunks_exact(V::WIRE_BYTES)) {
            apply(p, V::read_from(raw));
        }
    }
}

/// Checks that a value section holds exactly `need` bytes.
fn exact_values(values: &[u8], need: usize) -> Result<(), DecodeError> {
    if values.len() < need {
        return Err(DecodeError::Truncated);
    }
    if values.len() > need {
        return Err(DecodeError::TrailingBytes(values.len() - need));
    }
    Ok(())
}

/// Validates a payload produced by [`encode_memoized`] against an agreed
/// list of `list_len` entries, in full, without applying anything: the
/// first half of [`decode_memoized`]. Positions of the sparse layouts are
/// decoded into `scratch`, which the returned frame borrows.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed payload; total over arbitrary
/// bytes, never panics.
pub fn validate_memoized<'a, V: SyncValue>(
    payload: &'a [u8],
    list_len: usize,
    scratch: &'a mut DecodeScratch,
) -> Result<MemoFrame<'a, V>, DecodeError> {
    let mode = WireMode::try_of(payload)?;
    let body = &payload[1..];
    let v = V::WIRE_BYTES;
    let body = match mode {
        WireMode::Empty => {
            if !body.is_empty() {
                return Err(DecodeError::TrailingBytes(body.len()));
            }
            FrameBody::Empty
        }
        WireMode::Dense => {
            exact_values(body, list_len * v)?;
            FrameBody::Dense(body)
        }
        WireMode::Bitvec => {
            let nbytes = list_len.div_ceil(8);
            if body.len() < nbytes {
                return Err(DecodeError::Truncated);
            }
            let (bits, values) = body.split_at(nbytes);
            if !list_len.is_multiple_of(8) && bits[nbytes - 1] >> (list_len % 8) != 0 {
                return Err(DecodeError::Malformed("bit set beyond the list range"));
            }
            let k: usize = bits.iter().map(|b| b.count_ones() as usize).sum();
            exact_values(values, k * v)?;
            FrameBody::Bitvec { bits, values }
        }
        WireMode::Indices => {
            if body.len() < 4 {
                return Err(DecodeError::Truncated);
            }
            let k = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
            if k > list_len {
                return Err(DecodeError::Malformed(
                    "index count exceeds the list length",
                ));
            }
            exact_values(&body[4..], k * 4 + k * v)?;
            let (raw, values) = body[4..].split_at(k * 4);
            let positions = &mut scratch.positions;
            positions.clear();
            for raw in raw.chunks_exact(4) {
                let p = u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize;
                if p >= list_len {
                    return Err(DecodeError::IndexOutOfRange {
                        pos: p as u64,
                        list_len,
                    });
                }
                if positions.last().is_some_and(|&q| p <= q) {
                    return Err(DecodeError::Malformed("positions not strictly increasing"));
                }
                positions.push(p);
            }
            FrameBody::Listed {
                positions,
                values,
                same: false,
            }
        }
        WireMode::IndicesDelta | WireMode::SameIndicesDelta => {
            let same = mode == WireMode::SameIndicesDelta;
            let mut cur = 0usize;
            let k64 = read_varint(body, &mut cur)?;
            if k64 == 0 {
                return Err(DecodeError::Malformed("zero-count sparse payload"));
            }
            if k64 > list_len as u64 {
                return Err(DecodeError::Malformed(
                    "index count exceeds the list length",
                ));
            }
            let k = k64 as usize;
            let positions = &mut scratch.positions;
            positions.clear();
            positions.reserve(k);
            let mut pos = read_varint(body, &mut cur)?;
            if pos >= list_len as u64 {
                return Err(DecodeError::IndexOutOfRange { pos, list_len });
            }
            positions.push(pos as usize);
            for _ in 1..k {
                let gap = read_varint(body, &mut cur)?;
                pos = pos
                    .checked_add(gap)
                    .and_then(|p| p.checked_add(1))
                    .ok_or(DecodeError::VarintOverflow)?;
                if pos >= list_len as u64 {
                    return Err(DecodeError::IndexOutOfRange { pos, list_len });
                }
                positions.push(pos as usize);
            }
            let values = &body[cur..];
            exact_values(values, if same { v } else { k * v })?;
            FrameBody::Listed {
                positions,
                values,
                same,
            }
        }
        WireMode::RunLength | WireMode::SameRunLength => {
            let same = mode == WireMode::SameRunLength;
            let mut cur = 0usize;
            let n_runs = read_varint(body, &mut cur)?;
            if n_runs == 0 || n_runs % 2 != 0 {
                return Err(DecodeError::Malformed("run count must be even and nonzero"));
            }
            if n_runs > list_len as u64 + 1 {
                return Err(DecodeError::Malformed("more runs than list entries"));
            }
            let ranges = &mut scratch.set_ranges;
            ranges.clear();
            ranges.reserve(n_runs as usize / 2);
            let mut pos = 0u64;
            for i in 0..n_runs {
                let r = read_varint(body, &mut cur)?;
                if i > 0 && r == 0 {
                    return Err(DecodeError::Malformed("zero-length run"));
                }
                let end = pos.checked_add(r).ok_or(DecodeError::VarintOverflow)?;
                if end > list_len as u64 {
                    return Err(DecodeError::IndexOutOfRange {
                        pos: end - 1,
                        list_len,
                    });
                }
                if i % 2 == 1 {
                    ranges.push((pos as usize, end as usize));
                }
                pos = end;
            }
            let k: usize = ranges.iter().map(|&(s, e)| e - s).sum();
            let values = &body[cur..];
            exact_values(values, if same { v } else { k * v })?;
            FrameBody::Runs {
                ranges,
                values,
                same,
            }
        }
        WireMode::GidValues => return Err(DecodeError::UnexpectedMode(WireMode::GidValues)),
    };
    Ok(MemoFrame {
        body,
        _value: PhantomData,
    })
}

/// Encodes `(global-ID, value)` pairs — the non-memoized wire format that
/// UNOPT/OSI use (and that systems like PowerGraph and Gemini always use).
pub fn encode_gid_values<V: SyncValue>(pairs: &[(Gid, V)]) -> Bytes {
    let mut out = Vec::new();
    encode_gid_values_into(pairs, &mut out);
    Bytes::from(out)
}

/// As [`encode_gid_values`], writing into a caller-owned buffer (cleared
/// first) so the steady-state non-memoized path performs no allocation
/// once the buffer reached its high-water capacity.
pub fn encode_gid_values_into<V: SyncValue>(pairs: &[(Gid, V)], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(1 + pairs.len() * (4 + V::WIRE_BYTES));
    out.put_u8(WireMode::GidValues as u8);
    for &(gid, v) in pairs {
        out.put_u32_le(gid.0);
        v.write_to(out);
    }
}

/// Decodes a payload produced by [`encode_gid_values`].
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedMode`] for a memoized-mode payload,
/// [`DecodeError::Truncated`] when the body is not a whole number of
/// pairs, and the mode-byte errors of [`WireMode::try_of`]. Never panics.
pub fn decode_gid_values<V: SyncValue>(
    payload: &[u8],
    apply: &mut impl FnMut(Gid, V),
) -> Result<(), DecodeError> {
    let mode = WireMode::try_of(payload)?;
    if mode != WireMode::GidValues {
        return Err(DecodeError::UnexpectedMode(mode));
    }
    let body = &payload[1..];
    let stride = 4 + V::WIRE_BYTES;
    if !body.len().is_multiple_of(stride) {
        return Err(DecodeError::Truncated);
    }
    for chunk in body.chunks_exact(stride) {
        let gid = Gid(u32::from_le_bytes(chunk[..4].try_into().expect("gid")));
        apply(gid, V::read_from(&chunk[4..]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip(list_len: usize, updated: &[u32]) -> (WireMode, Vec<(usize, u32)>) {
        let value_at = |p: usize| (p as u32 + 1) * 11;
        let msg = encode_memoized(list_len, updated, value_at);
        let mode = WireMode::of(&msg);
        let mut got = Vec::new();
        decode_memoized::<u32>(&msg, list_len, &mut |pos, v| got.push((pos, v)))
            .expect("own encoding decodes");
        (mode, got)
    }

    #[test]
    fn empty_update_set_sends_one_byte() {
        let msg = encode_memoized::<u32>(100, &[], |_| unreachable!());
        assert_eq!(msg.len(), 1);
        assert_eq!(WireMode::of(&msg), WireMode::Empty);
        decode_memoized::<u32>(&msg, 100, &mut |_, _| panic!("no entries")).expect("empty");
    }

    #[test]
    fn dense_updates_with_distinct_values_choose_dense_mode() {
        let updated: Vec<u32> = (0..100).collect();
        let (mode, got) = round_trip(100, &updated);
        assert_eq!(mode, WireMode::Dense);
        assert_eq!(got.len(), 100);
        assert_eq!(got[7], (7, 88));
    }

    #[test]
    fn scattered_sparse_updates_choose_a_compact_mode() {
        let updated: Vec<u32> = (0..100).step_by(5).collect(); // 20 of 100
        let (mode, got) = round_trip(100, &updated);
        // At this density the 13-byte bitvec metadata still beats the delta
        // list (21 bytes: count + first + 19 gap varints); delta only wins
        // once the update set thins out further.
        assert_eq!(mode, WireMode::Bitvec);
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|&(p, v)| v == (p as u32 + 1) * 11));
    }

    #[test]
    fn very_sparse_updates_choose_delta_indices() {
        let (mode, got) = round_trip(10_000, &[3, 9_876]);
        assert_eq!(mode, WireMode::IndicesDelta);
        assert_eq!(got, vec![(3, 44), (9_876, 9_877 * 11)]);
    }

    #[test]
    fn v1_candidates_only_without_compression() {
        let updated: Vec<u32> = (0..100).step_by(5).collect();
        let msg = encode_memoized_with(100, &updated, |p| (p as u32 + 1) * 11, false);
        assert_eq!(WireMode::of(&msg), WireMode::Bitvec);
        let very_sparse = encode_memoized_with(10_000, &[3, 9_876], |p| p as u32, false);
        assert_eq!(WireMode::of(&very_sparse), WireMode::Indices);
    }

    #[test]
    fn equal_values_collapse_to_a_same_mode() {
        // A broadcast where every updated entry carries the same value —
        // the metadata is shipped, the value once.
        let updated: Vec<u32> = (10..200).collect();
        let msg = encode_memoized(4_000, &updated, |_| 7u64);
        assert_eq!(WireMode::of(&msg), WireMode::SameRunLength);
        // varint(2 runs) + varint(10) + varint(190) + 8-byte value + mode.
        assert_eq!(msg.len(), 1 + 1 + 1 + 2 + 8);
        let mut got = Vec::new();
        decode_memoized::<u64>(&msg, 4_000, &mut |pos, v| got.push((pos, v))).expect("decodes");
        assert_eq!(got.len(), 190);
        assert!(got.iter().all(|&(_, v)| v == 7));
        assert_eq!(got.first(), Some(&(10usize, 7u64)));
        assert_eq!(got.last(), Some(&(199usize, 7u64)));
    }

    #[test]
    fn same_value_collapsing_compares_bits_not_partial_eq() {
        // -0.0 == 0.0 under PartialEq but differs on the wire: collapsing
        // would rewrite one of them, so the encoder must not collapse.
        let msg = encode_memoized(1_000, &[4, 5], |p| if p == 4 { 0.0f64 } else { -0.0 });
        let mut got = Vec::new();
        decode_memoized::<f64>(&msg, 1_000, &mut |pos, v| got.push((pos, v.to_bits())))
            .expect("decodes");
        assert_eq!(got, vec![(4, 0.0f64.to_bits()), (5, (-0.0f64).to_bits())]);
        // NaN != NaN just means no collapsing — still round-trips exactly.
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let msg = encode_memoized(1_000, &[4, 5], |_| nan);
        let mut got = Vec::new();
        decode_memoized::<f64>(&msg, 1_000, &mut |pos, v| got.push((pos, v.to_bits())))
            .expect("decodes");
        assert_eq!(got, vec![(4, nan.to_bits()), (5, nan.to_bits())]);
    }

    #[test]
    fn consecutive_run_prefers_run_length() {
        // 64 consecutive updates of 512: bitvec pays 64 metadata bytes,
        // the run-length layout pays 4.
        let updated: Vec<u32> = (100..164).collect();
        let msg = encode_memoized(512, &updated, |p| p as u64);
        assert_eq!(WireMode::of(&msg), WireMode::RunLength);
        let mut got = Vec::new();
        decode_memoized::<u64>(&msg, 512, &mut |pos, v| got.push((pos, v))).expect("decodes");
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|&(p, v)| v == p as u64));
    }

    #[test]
    fn selected_mode_is_never_larger_than_alternatives() {
        for list_len in [1usize, 7, 64, 129, 1000] {
            for stride in [1usize, 2, 3, 10, 50] {
                let updated: Vec<u32> = (0..list_len as u32).step_by(stride).collect();
                for compress in [false, true] {
                    let msg = encode_memoized_with(list_len, &updated, |p| p as u64, compress);
                    for (_, size) in candidate_sizes::<u64>(
                        list_len, &updated,
                        false, // conservative: selector may only beat this set
                        compress,
                    ) {
                        assert!(
                            msg.len() <= size,
                            "len={list_len} stride={stride} compress={compress}: {} > {size}",
                            msg.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_modes_round_trip_and_adaptive_matches_forced() {
        let list_len = 300usize;
        let updated: Vec<u32> = vec![0, 1, 2, 3, 50, 51, 299];
        let value_at = |p: usize| p as u32 * 3;
        let mut want: Vec<(usize, u32)> = updated
            .iter()
            .map(|&p| (p as usize, value_at(p as usize)))
            .collect();
        for mode in [
            WireMode::Bitvec,
            WireMode::Indices,
            WireMode::IndicesDelta,
            WireMode::RunLength,
        ] {
            let msg = encode_memoized_as(mode, list_len, &updated, value_at)
                .expect("mode applies to this set");
            assert_eq!(WireMode::of(&msg), mode);
            let mut got = Vec::new();
            decode_memoized::<u32>(&msg, list_len, &mut |pos, v| got.push((pos, v)))
                .expect("forced encoding decodes");
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{mode}");
        }
        // The adaptive payload is byte-identical to forcing its choice.
        let adaptive = encode_memoized(list_len, &updated, value_at);
        let forced =
            encode_memoized_as(WireMode::of(&adaptive), list_len, &updated, value_at).unwrap();
        assert_eq!(adaptive, forced);
    }

    #[test]
    fn every_layout_finishes_in_every_mode() {
        // A dense prefix ending in a short gap (the bit-vector layout) or a
        // long one (packed values), no prefix at all, a prefix with no gap,
        // and a lone update: each forced into every mode must carry exactly
        // its updates, and the adaptive payload must be its own forced twin.
        let list_len = 300usize;
        let value_at = |p: usize| p as u32 * 3 + 1;
        let shapes: [&[u32]; 5] = [
            &[0, 1, 2, 3, 5, 6, 9, 299],
            &[0, 1, 2, 3, 50, 51, 299],
            &[7, 8, 9, 200],
            &[0, 1, 2, 3],
            &[5],
        ];
        for updated in shapes {
            for mode in [
                WireMode::Dense,
                WireMode::Bitvec,
                WireMode::Indices,
                WireMode::IndicesDelta,
                WireMode::RunLength,
            ] {
                let msg = encode_memoized_as(mode, list_len, updated, value_at).expect("applies");
                assert_eq!(WireMode::of(&msg), mode);
                let mut got = Vec::new();
                decode_memoized::<u32>(&msg, list_len, &mut |p, v| got.push((p, v)))
                    .expect("decodes");
                if mode == WireMode::Dense {
                    assert_eq!(got.len(), list_len, "{updated:?}");
                    got.retain(|&(p, _)| updated.contains(&(p as u32)));
                }
                let want: Vec<(usize, u32)> = updated
                    .iter()
                    .map(|&p| (p as usize, value_at(p as usize)))
                    .collect();
                assert_eq!(got, want, "{updated:?} as {mode}");
            }
            let adaptive = encode_memoized(list_len, updated, value_at);
            let forced = encode_memoized_as(WireMode::of(&adaptive), list_len, updated, value_at);
            assert_eq!(Some(adaptive), forced, "{updated:?}");
        }
    }

    #[test]
    fn prefix_metadata_matches_the_walked_metadata() {
        for k in [0u32, 1, 2, 127, 128, 129, 20_000] {
            let walked = PosMeta::of(&(0..k).collect::<Vec<_>>());
            assert_eq!(PosMeta::prefix(k as usize), walked, "k = {k}");
        }
    }

    #[test]
    fn forced_same_modes_require_identical_value_bytes() {
        let updated = [3u32, 9];
        assert!(
            encode_memoized_as(WireMode::SameIndicesDelta, 16, &updated, |p| p as u32).is_none()
        );
        let msg = encode_memoized_as(WireMode::SameRunLength, 16, &updated, |_| 5u32)
            .expect("identical values collapse");
        let mut got = Vec::new();
        decode_memoized::<u32>(&msg, 16, &mut |pos, v| got.push((pos, v))).expect("decodes");
        assert_eq!(got, vec![(3, 5), (9, 5)]);
    }

    #[test]
    fn gid_values_round_trip() {
        let pairs = vec![(Gid(5), 0.25f64), (Gid(900), -1.5)];
        let msg = encode_gid_values(&pairs);
        assert_eq!(WireMode::of(&msg), WireMode::GidValues);
        let mut got = Vec::new();
        decode_gid_values::<f64>(&msg, &mut |g, v| got.push((g, v))).expect("decodes");
        assert_eq!(got, pairs);
    }

    #[test]
    fn gid_values_cost_more_than_memoized_modes() {
        // The §4.1/§4.2 claim: dropping global-IDs roughly halves volume for
        // 32-bit labels — and codec v2 only widens the gap.
        let list_len = 1000usize;
        let updated: Vec<u32> = (0..200).collect();
        let memo = encode_memoized(list_len, &updated, |p| p as u32);
        let pairs: Vec<(Gid, u32)> = updated.iter().map(|&p| (Gid(p), p)).collect();
        let gid = encode_gid_values(&pairs);
        assert!(
            (memo.len() as f64) < 0.7 * gid.len() as f64,
            "memo {} vs gid {}",
            memo.len(),
            gid.len()
        );
    }

    #[test]
    fn memoized_decoder_rejects_gid_mode_as_an_error() {
        let msg = encode_gid_values(&[(Gid(0), 1u32)]);
        let mut calls = 0;
        let err = decode_memoized::<u32>(&msg, 1, &mut |_, _| calls += 1)
            .expect_err("gid payload is invalid for the memoized decoder");
        assert_eq!(err, DecodeError::UnexpectedMode(WireMode::GidValues));
        assert_eq!(calls, 0);
    }

    #[test]
    fn gid_decoder_rejects_memoized_modes_as_an_error() {
        let msg = encode_memoized(8, &[1], |_| 9u32);
        let err = decode_gid_values::<u32>(&msg, &mut |_, _| {}).expect_err("wrong decoder");
        assert!(matches!(err, DecodeError::UnexpectedMode(_)));
    }

    #[test]
    fn empty_payload_is_a_truncation_error() {
        assert_eq!(
            decode_memoized::<u32>(&[], 4, &mut |_, _| {}),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            decode_gid_values::<u32>(&[], &mut |_, _| {}),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn unknown_mode_byte_is_an_error() {
        assert_eq!(
            decode_memoized::<u32>(&[0xAA, 1, 2], 4, &mut |_, _| {}),
            Err(DecodeError::UnknownMode(0xAA))
        );
    }

    #[test]
    fn truncated_payloads_are_errors_for_every_mode() {
        let value_at = |p: usize| p as u64;
        let updated = [1u32, 2, 3, 9, 15];
        for mode in [
            WireMode::Dense,
            WireMode::Bitvec,
            WireMode::Indices,
            WireMode::IndicesDelta,
            WireMode::RunLength,
        ] {
            let msg = encode_memoized_as(mode, 16, &updated, value_at).expect("applies");
            for cut in 1..msg.len() {
                assert!(
                    decode_memoized::<u64>(&msg[..cut], 16, &mut |_, _| {}).is_err(),
                    "{mode}: prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn out_of_range_index_is_a_decode_error() {
        // Forge an Indices payload whose position is past the list.
        let mut forged = BytesMut::new();
        forged.put_u8(WireMode::Indices as u8);
        forged.put_u32_le(1);
        forged.put_u32_le(4); // list_len is 4, so position 4 is invalid
        forged.put_u32_le(0xDEAD);
        let err = decode_memoized::<u32>(&forged, 4, &mut |_, _| {}).expect_err("out of range");
        assert_eq!(
            err,
            DecodeError::IndexOutOfRange {
                pos: 4,
                list_len: 4
            }
        );
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut msg = encode_memoized(16, &[2, 5], |p| p as u32).to_vec();
        msg.push(0);
        assert!(matches!(
            decode_memoized::<u32>(&msg, 16, &mut |_, _| {}),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn varints_round_trip_and_overflow_is_detected() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x));
            let mut cur = 0;
            assert_eq!(read_varint(&buf, &mut cur), Ok(x));
            assert_eq!(cur, buf.len());
        }
        // 11 continuation bytes cannot fit u64.
        let too_long = [0xFFu8; 11];
        let mut cur = 0;
        assert_eq!(
            read_varint(&too_long, &mut cur),
            Err(DecodeError::VarintOverflow)
        );
        // A continuation byte at the end of input is a truncation.
        let mut cur = 0;
        assert_eq!(read_varint(&[0x80], &mut cur), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_errors_render_helpfully() {
        let checks = [
            (DecodeError::Truncated, "truncated"),
            (DecodeError::UnknownMode(0xFF), "0xff"),
            (
                DecodeError::UnexpectedMode(WireMode::GidValues),
                "gid_values",
            ),
            (
                DecodeError::IndexOutOfRange {
                    pos: 9,
                    list_len: 4,
                },
                "position 9",
            ),
            (DecodeError::TrailingBytes(3), "3 trailing"),
            (DecodeError::VarintOverflow, "varint"),
            (DecodeError::Malformed("zero-length run"), "zero-length run"),
            (DecodeError::UnknownGid(17), "global id 17"),
        ];
        for (err, needle) in checks {
            assert!(
                err.to_string().contains(needle),
                "{err:?} -> {err} misses {needle:?}"
            );
        }
    }

    #[test]
    fn mode_bytes_and_names_are_stable() {
        for (i, mode) in WireMode::ALL.into_iter().enumerate() {
            assert_eq!(mode as u8 as usize, i);
            assert_eq!(WireMode::from_byte(i as u8), Some(mode));
        }
        assert_eq!(WireMode::from_byte(NUM_WIRE_MODES as u8), None);
        assert_eq!(WireMode::SameRunLength.name(), "same_run");
    }
}
