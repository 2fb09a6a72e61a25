//! Differential oracle for the wire codec: a deliberately naive reference
//! encoder/decoder, written straight from the DESIGN.md wire-format table
//! with no shared helpers, must agree with the production codec byte for
//! byte — for every wire mode, forced and adaptively chosen — and both
//! decoders must recover the identical update set.
//!
//! The reference favours obviousness over speed (plain `Vec<u8>`, one loop
//! per field); any divergence is a codec bug or a silent format change.

use gluon_suite::graph::Gid;
use gluon_suite::substrate::encode::{
    candidate_sizes, decode_gid_values, decode_memoized, encode_gid_values, encode_memoized,
    encode_memoized_as, encode_memoized_with, WireMode,
};

// ---------------------------------------------------------------- reference

/// LEB128, least-significant group first.
fn ref_put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn ref_read_varint(body: &[u8], cursor: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *body.get(*cursor)?;
        *cursor += 1;
        if shift >= 64 {
            return None;
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
    }
}

/// `[unset, set, unset, set, …]` run lengths of the update set; the first
/// unset run may be zero, the trailing unset run is implicit.
fn ref_runs(updated: &[u32]) -> Vec<u64> {
    let mut runs = Vec::new();
    let mut prev_end = 0u64; // one past the previous set run
    let mut i = 0;
    while i < updated.len() {
        let start = u64::from(updated[i]);
        let mut end = start + 1;
        while i + 1 < updated.len() && u64::from(updated[i + 1]) == end {
            end += 1;
            i += 1;
        }
        runs.push(start - prev_end);
        runs.push(end - start);
        prev_end = end;
        i += 1;
    }
    runs
}

/// Encodes `updated` in one specific mode, or `None` where the mode does
/// not apply (mirrors the production `encode_memoized_as` contract).
fn ref_encode(
    mode: WireMode,
    list_len: usize,
    updated: &[u32],
    value_at: impl Fn(usize) -> u32,
) -> Option<Vec<u8>> {
    if updated.is_empty() && mode != WireMode::Empty {
        // An empty update set is always the 1-byte Empty payload; no other
        // mode applies.
        return None;
    }
    let vals: Vec<u8> = updated
        .iter()
        .flat_map(|&p| value_at(p as usize).to_le_bytes())
        .collect();
    let same = vals.chunks(4).skip(1).all(|c| c == &vals[..4]);
    let mut out = vec![mode as u8];
    match mode {
        WireMode::Empty => {
            if !updated.is_empty() {
                return None;
            }
        }
        WireMode::Dense => {
            for pos in 0..list_len {
                out.extend_from_slice(&value_at(pos).to_le_bytes());
            }
        }
        WireMode::Bitvec => {
            let mut bits = vec![0u8; list_len.div_ceil(8)];
            for &p in updated {
                bits[p as usize / 8] |= 1 << (p % 8);
            }
            out.extend_from_slice(&bits);
            out.extend_from_slice(&vals);
        }
        WireMode::Indices => {
            out.extend_from_slice(&(updated.len() as u32).to_le_bytes());
            for &p in updated {
                out.extend_from_slice(&p.to_le_bytes());
            }
            out.extend_from_slice(&vals);
        }
        WireMode::IndicesDelta | WireMode::SameIndicesDelta => {
            if updated.is_empty() || (mode == WireMode::SameIndicesDelta && !same) {
                return None;
            }
            ref_put_varint(&mut out, updated.len() as u64);
            ref_put_varint(&mut out, u64::from(updated[0]));
            for w in updated.windows(2) {
                ref_put_varint(&mut out, u64::from(w[1] - w[0] - 1));
            }
            if mode == WireMode::SameIndicesDelta {
                out.extend_from_slice(&vals[..4]);
            } else {
                out.extend_from_slice(&vals);
            }
        }
        WireMode::RunLength | WireMode::SameRunLength => {
            if updated.is_empty() || (mode == WireMode::SameRunLength && !same) {
                return None;
            }
            let runs = ref_runs(updated);
            ref_put_varint(&mut out, runs.len() as u64);
            for &r in &runs {
                ref_put_varint(&mut out, r);
            }
            if mode == WireMode::SameRunLength {
                out.extend_from_slice(&vals[..4]);
            } else {
                out.extend_from_slice(&vals);
            }
        }
        WireMode::GidValues => return None, // separate entry point
    }
    Some(out)
}

/// Decodes any memoized-mode payload into `(position, value)` pairs.
/// Returns `None` on malformed input (the reference does not classify
/// errors, it only refuses to produce garbage).
fn ref_decode(payload: &[u8], list_len: usize) -> Option<Vec<(usize, u32)>> {
    let (&mode, body) = payload.split_first()?;
    let read_val = |b: &[u8], i: usize| -> Option<u32> {
        Some(u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?))
    };
    let mut got = Vec::new();
    match mode {
        0 => {
            if !body.is_empty() {
                return None;
            }
        }
        1 => {
            if body.len() != list_len * 4 {
                return None;
            }
            for pos in 0..list_len {
                got.push((pos, read_val(body, pos * 4)?));
            }
        }
        2 => {
            let nbytes = list_len.div_ceil(8);
            let bits = body.get(..nbytes)?;
            let mut positions = Vec::new();
            for pos in 0..list_len {
                if bits[pos / 8] >> (pos % 8) & 1 == 1 {
                    positions.push(pos);
                }
            }
            // Padding bits past `list_len` must be zero.
            for pad in list_len..nbytes * 8 {
                if bits[pad / 8] >> (pad % 8) & 1 == 1 {
                    return None;
                }
            }
            if body.len() != nbytes + positions.len() * 4 {
                return None;
            }
            for (i, pos) in positions.into_iter().enumerate() {
                got.push((pos, read_val(body, nbytes + i * 4)?));
            }
        }
        3 => {
            let k = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
            if body.len() != 4 + k * 8 {
                return None;
            }
            let mut prev: Option<u32> = None;
            for i in 0..k {
                let p = u32::from_le_bytes(body.get(4 + i * 4..8 + i * 4)?.try_into().ok()?);
                if prev.is_some_and(|q| q >= p) || p as usize >= list_len {
                    return None;
                }
                prev = Some(p);
                got.push((p as usize, read_val(body, 4 + k * 4 + i * 4)?));
            }
        }
        5 | 7 => {
            let mut cur = 0;
            let k = ref_read_varint(body, &mut cur)? as usize;
            if k == 0 || k > list_len {
                return None;
            }
            let mut positions = Vec::with_capacity(k);
            let mut pos = ref_read_varint(body, &mut cur)?;
            positions.push(pos);
            for _ in 1..k {
                pos = pos.checked_add(ref_read_varint(body, &mut cur)? + 1)?;
                positions.push(pos);
            }
            if *positions.last()? >= list_len as u64 {
                return None;
            }
            let vbytes = if mode == 7 { 4 } else { k * 4 };
            if body.len() != cur + vbytes {
                return None;
            }
            for (i, p) in positions.into_iter().enumerate() {
                let at = if mode == 7 { cur } else { cur + i * 4 };
                got.push((p as usize, read_val(body, at)?));
            }
        }
        6 | 8 => {
            let mut cur = 0;
            let n_runs = ref_read_varint(body, &mut cur)? as usize;
            if n_runs == 0 || !n_runs.is_multiple_of(2) {
                return None;
            }
            let mut positions = Vec::new();
            let mut at = 0u64;
            for i in 0..n_runs {
                let run = ref_read_varint(body, &mut cur)?;
                if run == 0 && i > 0 {
                    return None;
                }
                if i % 2 == 1 {
                    for p in at..at.checked_add(run)? {
                        positions.push(p);
                    }
                }
                at = at.checked_add(run)?;
                if at > list_len as u64 {
                    return None;
                }
            }
            let k = positions.len();
            let vbytes = if mode == 8 { 4 } else { k * 4 };
            if body.len() != cur + vbytes {
                return None;
            }
            for (i, p) in positions.into_iter().enumerate() {
                let vat = if mode == 8 { cur } else { cur + i * 4 };
                got.push((p as usize, read_val(body, vat)?));
            }
        }
        _ => return None, // gid_values (4) and unknown bytes
    }
    Some(got)
}

// ------------------------------------------------------------------ corpus

/// Update-set shapes chosen to exercise every mode's strengths: empty,
/// full, single, consecutive runs, scattered strides, clustered blocks,
/// and extremes of the position range.
fn corpus() -> Vec<(usize, Vec<u32>)> {
    let mut cases = vec![
        (1, vec![]),
        (1, vec![0]),
        (8, vec![0, 1, 2, 3, 4, 5, 6, 7]),
        (9, vec![8]),
        (64, vec![0]),
        (64, vec![63]),
        (64, vec![0, 63]),
        (64, (10..30).collect()),
        (64, (0..64).step_by(2).collect()),
        (100, (0..100).step_by(5).collect()),
        (100, vec![1, 2, 3, 50, 51, 52, 97, 98, 99]),
        (1000, vec![500]),
        (1000, (990..1000).collect()),
        (10_000, vec![3, 9_876]),
        (10_000, (0..10_000).step_by(777).collect()),
    ];
    // A pseudo-random scatter (fixed multiplier walk, no RNG dependency).
    let mut x = 9_973u64;
    let mut scatter: Vec<u32> = (0..40)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as u32 % 5_000
        })
        .collect();
    scatter.sort_unstable();
    scatter.dedup();
    cases.push((5_000, scatter));
    cases
}

const FORCIBLE: [WireMode; 7] = [
    WireMode::Dense,
    WireMode::Bitvec,
    WireMode::Indices,
    WireMode::IndicesDelta,
    WireMode::RunLength,
    WireMode::SameIndicesDelta,
    WireMode::SameRunLength,
];

fn check_case(list_len: usize, updated: &[u32], value_at: impl Fn(usize) -> u32 + Copy) {
    let expect: Vec<(usize, u32)> = updated
        .iter()
        .map(|&p| (p as usize, value_at(p as usize)))
        .collect();
    for mode in FORCIBLE {
        let prod = encode_memoized_as(mode, list_len, updated, value_at);
        let reference = ref_encode(mode, list_len, updated, value_at);
        let ctx = format!("{mode:?} / len {list_len} / k {}", updated.len());
        match (prod, reference) {
            (None, None) => {}
            (Some(p), Some(r)) => {
                assert_eq!(&p[..], &r[..], "{ctx}: encodings diverge");
                // Cross-decode: each decoder on the other's bytes.
                let mut prod_got = Vec::new();
                decode_memoized::<u32>(&r, list_len, &mut |pos, v| prod_got.push((pos, v)))
                    .unwrap_or_else(|e| panic!("{ctx}: production decoder rejected: {e}"));
                let ref_got = ref_decode(&p, list_len)
                    .unwrap_or_else(|| panic!("{ctx}: reference decoder rejected"));
                if mode == WireMode::Dense {
                    // Dense carries every position; the updated subset must
                    // be present with its value.
                    for &(pos, v) in &expect {
                        assert_eq!(prod_got[pos], (pos, v), "{ctx}");
                        assert_eq!(ref_got[pos], (pos, v), "{ctx}");
                    }
                } else {
                    assert_eq!(prod_got, expect, "{ctx}: production decode");
                    assert_eq!(ref_got, expect, "{ctx}: reference decode");
                }
            }
            (p, r) => panic!(
                "{ctx}: applicability diverges (production {:?}, reference {:?})",
                p.is_some(),
                r.is_some()
            ),
        }
    }
    // The adaptive encoder must agree with a naive "try everything, keep
    // the smallest, earlier candidates win ties" selector over the
    // reference encodings (`min_by_key` keeps the first minimum).
    for compress in [true, false] {
        let prod = encode_memoized_with(list_len, updated, value_at, compress);
        if updated.is_empty() {
            assert_eq!(&prod[..], &[0u8], "empty update set must send one byte");
            continue;
        }
        let candidates: &[WireMode] = if compress { &FORCIBLE } else { &FORCIBLE[..3] };
        let mut best: Option<Vec<u8>> = None;
        for &mode in candidates {
            if let Some(bytes) = ref_encode(mode, list_len, updated, value_at) {
                if best.as_ref().is_none_or(|b| bytes.len() < b.len()) {
                    best = Some(bytes);
                }
            }
        }
        let best = best.expect("dense always applies");
        assert_eq!(
            &prod[..],
            &best[..],
            "adaptive(list {list_len}, k {}, compress {compress}) diverges from \
             the reference selector",
            updated.len()
        );
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn production_and_reference_codecs_agree_on_distinct_values() {
    for (list_len, updated) in corpus() {
        check_case(list_len, &updated, |p| {
            (p as u32).wrapping_mul(2_654_435_761)
        });
    }
}

#[test]
fn production_and_reference_codecs_agree_on_identical_values() {
    for (list_len, updated) in corpus() {
        check_case(list_len, &updated, |_| 0xDEAD_BEEF);
    }
}

#[test]
fn adaptive_choice_matches_published_candidate_sizes() {
    // `candidate_sizes` is the public contract for "what the selector saw";
    // the reference encodings must land on exactly those sizes.
    for (list_len, updated) in corpus() {
        if updated.is_empty() {
            continue;
        }
        for same in [false, true] {
            let value_at = move |p: usize| if same { 42 } else { p as u32 + 7 };
            let identical = same || updated.len() == 1;
            for (mode, size) in candidate_sizes::<u32>(list_len, &updated, identical, true) {
                let reference = ref_encode(mode, list_len, &updated, value_at)
                    .unwrap_or_else(|| panic!("{mode:?} listed but not encodable"));
                assert_eq!(
                    reference.len(),
                    size,
                    "{mode:?} size table wrong for len {list_len}, k {}",
                    updated.len()
                );
            }
        }
    }
}

#[test]
fn gid_value_payloads_agree_with_the_reference() {
    let pairs: Vec<(Gid, u32)> = (0..257).map(|i| (Gid(i * 37), i ^ 0x55AA)).collect();
    let prod = encode_gid_values(&pairs);
    let mut reference = vec![4u8]; // gid_values mode byte
    for &(g, v) in &pairs {
        reference.extend_from_slice(&g.0.to_le_bytes());
        reference.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(&prod[..], &reference[..]);
    let mut got = Vec::new();
    decode_gid_values::<u32>(&reference, &mut |g, v| got.push((g, v))).expect("valid payload");
    assert_eq!(got, pairs);
}

#[test]
fn adaptive_never_exceeds_any_reference_encoding() {
    // Belt and braces over the whole corpus: the chosen payload is no
    // larger than *every* reference mode that applies.
    for (list_len, updated) in corpus() {
        let value_at = |p: usize| p as u32;
        let chosen = encode_memoized(list_len, &updated, value_at);
        for mode in FORCIBLE {
            if let Some(reference) = ref_encode(mode, list_len, &updated, value_at) {
                assert!(
                    chosen.len() <= reference.len(),
                    "adaptive {} bytes > {mode:?} {} bytes (len {list_len}, k {})",
                    chosen.len(),
                    reference.len(),
                    updated.len()
                );
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Every list entry dirty — what each pagerank sync and each
    /// dense-frontier sync hands the encoder, which then skips candidate
    /// sizing and emits its packed values as the `Dense` body. The payload
    /// must still be the reference selector's, with and without
    /// `compress`: `Dense` whenever two values differ or the list has one
    /// entry, a `Same*` mode when they are all identical and that is
    /// smaller.
    #[test]
    fn all_dirty_updates_agree_with_the_reference_selector(
        list_len in 1usize..600,
        salt in proptest::prelude::any::<u32>(),
        distinct_at in 0usize..600,
    ) {
        let updated: Vec<u32> = (0..list_len as u32).collect();
        let distinct = move |p: usize| (p as u32).wrapping_mul(2_654_435_761) ^ salt;
        let identical = move |_: usize| salt;
        // All identical but for one entry: a `Same*` mode no longer applies.
        let odd = distinct_at % list_len;
        let one_off = move |p: usize| if p == odd { !salt } else { salt };
        check_case(list_len, &updated, distinct);
        check_case(list_len, &updated, identical);
        check_case(list_len, &updated, one_off);

        let mode = |value_at: &dyn Fn(usize) -> u32, compress| {
            WireMode::of(&encode_memoized_with(list_len, &updated, value_at, compress))
        };
        for compress in [true, false] {
            if list_len > 1 {
                proptest::prop_assert_eq!(mode(&distinct, compress), WireMode::Dense);
                proptest::prop_assert_eq!(mode(&one_off, compress), WireMode::Dense);
            }
        }
        proptest::prop_assert_eq!(mode(&identical, false), WireMode::Dense);
        // Dense costs 1 + 4k bytes, the cheaper `Same*` layout at most
        // 1 + 5 + 4 (run count, zero unset run, k as a varint, one value).
        let same = mode(&identical, true);
        if list_len == 1 {
            proptest::prop_assert_eq!(same, WireMode::Dense);
        } else if list_len >= 3 {
            proptest::prop_assert!(
                matches!(same, WireMode::SameIndicesDelta | WireMode::SameRunLength),
                "{} identical entries went out as {}", list_len, same
            );
        }
    }
}
