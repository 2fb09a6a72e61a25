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
//! the bytes. Structural validation happens before values are applied
//! wherever the layout allows it. The *encoders* still assert their local
//! preconditions (sorted in-range positions): those inputs come from this
//! process, not from the wire.

use crate::value::SyncValue;
use bytes::{BufMut, Bytes};
use gluon_graph::Gid;
use std::fmt;

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

/// Exact metadata bytes of the delta-coded position list (varint count +
/// varint first position + varint gaps).
fn delta_meta_bytes(updated: &[u32]) -> usize {
    let mut n = varint_len(updated.len() as u64) + varint_len(updated[0] as u64);
    for w in updated.windows(2) {
        n += varint_len((w[1] - w[0] - 1) as u64);
    }
    n
}

/// The alternating run lengths of the update set: `[unset, set, unset,
/// set, …]`, starting with the (possibly zero) unset prefix and ending
/// with the final set run. The implicit unset tail is not encoded.
fn runs_of(updated: &[u32]) -> Vec<u64> {
    let mut runs = Vec::new();
    runs_of_into(updated, &mut runs);
    runs
}

/// As [`runs_of`], writing into a reusable buffer (cleared first) so the
/// steady-state encode path performs no allocation.
fn runs_of_into(updated: &[u32], runs: &mut Vec<u64>) {
    runs.clear();
    runs.push(updated[0] as u64);
    let mut set_len = 1u64;
    for w in updated.windows(2) {
        if w[1] == w[0] + 1 {
            set_len += 1;
        } else {
            runs.push(set_len);
            runs.push((w[1] - w[0] - 1) as u64);
            set_len = 1;
        }
    }
    runs.push(set_len);
}

/// Exact metadata bytes of the run-length layout (varint run count + each
/// run length as a varint).
fn run_meta_bytes(runs: &[u64]) -> usize {
    varint_len(runs.len() as u64) + runs.iter().map(|&r| varint_len(r)).sum::<usize>()
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
    let v = V::WIRE_BYTES;
    let k = updated.len();
    let mut out = vec![
        (WireMode::Dense, 1 + list_len * v),
        (WireMode::Bitvec, 1 + list_len.div_ceil(8) + k * v),
        (WireMode::Indices, 1 + 4 + k * 4 + k * v),
    ];
    if compress && k > 0 {
        let dmeta = delta_meta_bytes(updated);
        let rmeta = run_meta_bytes(&runs_of(updated));
        out.push((WireMode::IndicesDelta, 1 + dmeta + k * v));
        out.push((WireMode::RunLength, 1 + rmeta + k * v));
        if values_identical {
            out.push((WireMode::SameIndicesDelta, 1 + dmeta + v));
            out.push((WireMode::SameRunLength, 1 + rmeta + v));
        }
    }
    out
}

/// The adaptive selection of [`candidate_sizes`] without materializing the
/// candidate list — the steady-state encode path must not allocate. `runs`
/// is the precomputed [`runs_of`] buffer (unused unless `compress` admits
/// the run-length candidates). Ties resolve exactly as
/// `candidate_sizes(..).min_by_key(size)` does: the *earliest* candidate
/// in the fixed order wins (`min_by_key` keeps the first minimum).
fn select_mode<V: SyncValue>(
    list_len: usize,
    updated: &[u32],
    values_identical: bool,
    compress: bool,
    runs: &[u64],
) -> (WireMode, usize) {
    let v = V::WIRE_BYTES;
    let k = updated.len();
    let mut best = (WireMode::Dense, 1 + list_len * v);
    let mut consider = |m: WireMode, s: usize| {
        if s < best.1 {
            best = (m, s);
        }
    };
    consider(WireMode::Bitvec, 1 + list_len.div_ceil(8) + k * v);
    consider(WireMode::Indices, 1 + 4 + k * 4 + k * v);
    if compress && k > 0 {
        let dmeta = delta_meta_bytes(updated);
        let rmeta = run_meta_bytes(runs);
        consider(WireMode::IndicesDelta, 1 + dmeta + k * v);
        consider(WireMode::RunLength, 1 + rmeta + k * v);
        if values_identical {
            consider(WireMode::SameIndicesDelta, 1 + dmeta + v);
            consider(WireMode::SameRunLength, 1 + rmeta + v);
        }
    }
    best
}

/// Reusable scratch for [`encode_memoized_into`]: the packed value bytes,
/// the bit-vector, and the run-length buffer every encode needs. Sized by
/// high-water mark — after a warm-up round the sync arena's per-peer
/// scratch never grows again (the paper's temporal invariance applied to
/// memory: stable partitioning means stable buffer shapes).
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// Packed wire bytes of the updated values, in position order.
    vals: Vec<u8>,
    /// Bit-vector workspace for [`WireMode::Bitvec`].
    bits: Vec<u8>,
    /// Alternating run lengths for the run-length modes.
    runs: Vec<u64>,
}

impl EncodeScratch {
    /// Current high-water footprint of the scratch buffers, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.vals.capacity() + self.bits.capacity() + self.runs.capacity() * 8
    }
}

/// Builds the payload for one specific (non-empty, memoized) mode into
/// `out`. `scratch.vals` holds the packed wire bytes of the updated
/// values, in position order; `scratch.runs` the precomputed run lengths
/// (run-length modes only).
fn assemble_into<V: SyncValue>(
    mode: WireMode,
    list_len: usize,
    updated: &[u32],
    scratch: &mut EncodeScratch,
    value_at: &impl Fn(usize) -> V,
    out: &mut Vec<u8>,
) {
    let v = V::WIRE_BYTES;
    let k = updated.len();
    out.put_u8(mode as u8);
    match mode {
        WireMode::Dense => {
            for pos in 0..list_len {
                value_at(pos).write_to(out);
            }
        }
        WireMode::Bitvec => {
            scratch.bits.clear();
            scratch.bits.resize(list_len.div_ceil(8), 0);
            for &p in updated {
                scratch.bits[p as usize / 8] |= 1 << (p % 8);
            }
            out.put_slice(&scratch.bits);
            out.put_slice(&scratch.vals);
        }
        WireMode::Indices => {
            out.put_u32_le(k as u32);
            for &p in updated {
                out.put_u32_le(p);
            }
            out.put_slice(&scratch.vals);
        }
        WireMode::IndicesDelta | WireMode::SameIndicesDelta => {
            put_varint(out, k as u64);
            put_varint(out, updated[0] as u64);
            for w in updated.windows(2) {
                put_varint(out, (w[1] - w[0] - 1) as u64);
            }
            if mode == WireMode::SameIndicesDelta {
                out.put_slice(&scratch.vals[..v]);
            } else {
                out.put_slice(&scratch.vals);
            }
        }
        WireMode::RunLength | WireMode::SameRunLength => {
            put_varint(out, scratch.runs.len() as u64);
            for i in 0..scratch.runs.len() {
                put_varint(out, scratch.runs[i]);
            }
            if mode == WireMode::SameRunLength {
                out.put_slice(&scratch.vals[..v]);
            } else {
                out.put_slice(&scratch.vals);
            }
        }
        WireMode::Empty | WireMode::GidValues => unreachable!("not assembled here"),
    }
}

/// Packs the wire bytes of every updated value into `scratch.vals`, in
/// position order, and reports whether they are all byte-identical.
fn pack_values_into<V: SyncValue>(
    updated: &[u32],
    value_at: &impl Fn(usize) -> V,
    scratch: &mut EncodeScratch,
) -> bool {
    let v = V::WIRE_BYTES;
    scratch.vals.clear();
    scratch.vals.reserve(updated.len() * v);
    for &p in updated {
        value_at(p as usize).write_to(&mut scratch.vals);
    }
    let (first, rest) = scratch.vals.split_at(v.min(scratch.vals.len()));
    rest.chunks_exact(v).all(|c| c == first)
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
    debug_assert!(updated.windows(2).all(|w| w[0] < w[1]), "positions sorted");
    assert!(
        updated.last().is_none_or(|&p| (p as usize) < list_len),
        "update position out of list range"
    );
    out.clear();
    if updated.is_empty() {
        out.put_u8(WireMode::Empty as u8);
        return;
    }
    let same = pack_values_into(updated, &value_at, scratch);
    if updated.len() == list_len && !(compress && same) {
        // Every entry is dirty, so the packed values already are the dense
        // body, and `Dense` (1 + k·v bytes) is the selector's answer: each
        // other candidate ships the same k values plus at least one
        // metadata byte, except the `Same*` modes, which need `compress`
        // and byte-identical values. No sizing pass, no second gather.
        out.reserve(1 + scratch.vals.len());
        out.put_u8(WireMode::Dense as u8);
        out.put_slice(&scratch.vals);
        return;
    }
    if compress {
        runs_of_into(updated, &mut scratch.runs);
    }
    let (mode, size) = select_mode::<V>(list_len, updated, same, compress, &scratch.runs);
    out.reserve(size);
    assemble_into(mode, list_len, updated, scratch, &value_at, out);
    debug_assert_eq!(out.len(), size);
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
    debug_assert!(updated.windows(2).all(|w| w[0] < w[1]), "positions sorted");
    assert!(
        updated.last().is_none_or(|&p| (p as usize) < list_len),
        "update position out of list range"
    );
    if mode == WireMode::Empty {
        return updated
            .is_empty()
            .then(|| Bytes::from_static(&[WireMode::Empty as u8]));
    }
    if updated.is_empty() || mode == WireMode::GidValues {
        return None;
    }
    let mut scratch = EncodeScratch::default();
    let same = pack_values_into(updated, &value_at, &mut scratch);
    if matches!(mode, WireMode::SameIndicesDelta | WireMode::SameRunLength) && !same {
        return None;
    }
    let size = candidate_sizes::<V>(list_len, updated, same, true)
        .into_iter()
        .find(|&(m, _)| m == mode)
        .map(|(_, s)| s)?;
    runs_of_into(updated, &mut scratch.runs);
    let mut out = Vec::with_capacity(size);
    assemble_into(mode, list_len, updated, &mut scratch, &value_at, &mut out);
    Some(Bytes::from(out))
}

/// Decodes a payload produced by [`encode_memoized`], calling
/// `apply(position, value)` for every carried entry.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed payload — this function is
/// total over arbitrary bytes and never panics. When the error is detected
/// after decoding began (only possible for layouts whose value section
/// length depends on already-applied metadata), some entries may already
/// have been applied; the caller must treat the message as poisoned.
pub fn decode_memoized<V: SyncValue>(
    payload: &[u8],
    list_len: usize,
    apply: &mut impl FnMut(usize, V),
) -> Result<(), DecodeError> {
    decode_memoized_scratch(payload, list_len, &mut DecodeScratch::default(), apply)
}

/// Reusable scratch for [`decode_memoized_scratch`]: the position and run
/// buffers the delta-coded and run-length layouts validate into before
/// applying any value. Sized by high-water mark, like [`EncodeScratch`].
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    /// Decoded positions of an `IndicesDelta`-family payload.
    positions: Vec<usize>,
    /// Decoded `(start, end)` set runs of a `RunLength`-family payload.
    set_ranges: Vec<(usize, usize)>,
}

impl DecodeScratch {
    /// Current high-water footprint of the scratch buffers, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.positions.capacity() * std::mem::size_of::<usize>()
            + self.set_ranges.capacity() * std::mem::size_of::<(usize, usize)>()
    }
}

/// As [`decode_memoized`], with caller-owned scratch — the
/// allocation-free entry point the sync arena uses. Decoding behavior and
/// errors are identical in every case.
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
    let mode = WireMode::try_of(payload)?;
    let body = &payload[1..];
    let v = V::WIRE_BYTES;
    match mode {
        WireMode::Empty => {
            if !body.is_empty() {
                return Err(DecodeError::TrailingBytes(body.len()));
            }
        }
        WireMode::Dense => {
            let need = list_len * v;
            if body.len() < need {
                return Err(DecodeError::Truncated);
            }
            if body.len() > need {
                return Err(DecodeError::TrailingBytes(body.len() - need));
            }
            for pos in 0..list_len {
                apply(pos, V::read_from(&body[pos * v..]));
            }
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
            let need = k * v;
            if values.len() < need {
                return Err(DecodeError::Truncated);
            }
            if values.len() > need {
                return Err(DecodeError::TrailingBytes(values.len() - need));
            }
            let mut cursor = 0usize;
            for pos in 0..list_len {
                if bits[pos / 8] & (1 << (pos % 8)) != 0 {
                    apply(pos, V::read_from(&values[cursor..]));
                    cursor += v;
                }
            }
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
            let need = 4 + k * 4 + k * v;
            if body.len() < need {
                return Err(DecodeError::Truncated);
            }
            if body.len() > need {
                return Err(DecodeError::TrailingBytes(body.len() - need));
            }
            let (positions, values) = body[4..].split_at(k * 4);
            let mut prev: Option<u32> = None;
            for i in 0..k {
                let p = u32::from_le_bytes(positions[i * 4..i * 4 + 4].try_into().expect("4"));
                if (p as usize) >= list_len {
                    return Err(DecodeError::IndexOutOfRange {
                        pos: p as u64,
                        list_len,
                    });
                }
                if prev.is_some_and(|q| p <= q) {
                    return Err(DecodeError::Malformed("positions not strictly increasing"));
                }
                prev = Some(p);
            }
            for i in 0..k {
                let p = u32::from_le_bytes(positions[i * 4..i * 4 + 4].try_into().expect("4"));
                apply(p as usize, V::read_from(&values[i * v..]));
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
            let need = if same { v } else { k * v };
            if values.len() < need {
                return Err(DecodeError::Truncated);
            }
            if values.len() > need {
                return Err(DecodeError::TrailingBytes(values.len() - need));
            }
            for (i, &p) in positions.iter().enumerate() {
                let off = if same { 0 } else { i * v };
                apply(p, V::read_from(&values[off..]));
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
            let set_ranges = &mut scratch.set_ranges;
            set_ranges.clear();
            set_ranges.reserve(n_runs as usize / 2);
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
                    set_ranges.push((pos as usize, end as usize));
                }
                pos = end;
            }
            let k: usize = set_ranges.iter().map(|&(s, e)| e - s).sum();
            let values = &body[cur..];
            let need = if same { v } else { k * v };
            if values.len() < need {
                return Err(DecodeError::Truncated);
            }
            if values.len() > need {
                return Err(DecodeError::TrailingBytes(values.len() - need));
            }
            let mut i = 0usize;
            for &(s, e) in set_ranges.iter() {
                for p in s..e {
                    let off = if same { 0 } else { i * v };
                    apply(p, V::read_from(&values[off..]));
                    i += 1;
                }
            }
        }
        WireMode::GidValues => return Err(DecodeError::UnexpectedMode(WireMode::GidValues)),
    }
    Ok(())
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
