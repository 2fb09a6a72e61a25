//! Fixed-size wire encoding of synchronized label values.

use bytes::BufMut;

/// A node-label value that Gluon can put on the wire.
///
/// Implementations are fixed-size little-endian encodings; the sync layer
/// relies on [`SyncValue::WIRE_BYTES`] to slice incoming payloads without
/// any per-value framing.
///
/// Values are `Send` because the context's sync arena, which pools
/// buffers of them, is.
pub trait SyncValue: Copy + PartialEq + Send + std::fmt::Debug + 'static {
    /// Encoded size in bytes.
    const WIRE_BYTES: usize;

    /// Appends the encoding of `self` to `buf`.
    fn write_to<B: BufMut>(self, buf: &mut B);

    /// Decodes a value from the first [`SyncValue::WIRE_BYTES`] bytes of
    /// `raw`.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is shorter than [`SyncValue::WIRE_BYTES`].
    fn read_from(raw: &[u8]) -> Self;
}

macro_rules! int_sync_value {
    ($ty:ty, $bytes:expr) => {
        impl SyncValue for $ty {
            const WIRE_BYTES: usize = $bytes;

            fn write_to<B: BufMut>(self, buf: &mut B) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn read_from(raw: &[u8]) -> Self {
                <$ty>::from_le_bytes(raw[..$bytes].try_into().expect("enough bytes"))
            }
        }
    };
}

int_sync_value!(u32, 4);
int_sync_value!(u64, 8);
int_sync_value!(i32, 4);
int_sync_value!(i64, 8);
int_sync_value!(f32, 4);
int_sync_value!(f64, 8);

/// Pairs encode as the concatenation of their parts (a worker's report
/// writes its `(gid, label)` rows and its phase rows through it).
impl<A: SyncValue, B: SyncValue> SyncValue for (A, B) {
    const WIRE_BYTES: usize = A::WIRE_BYTES + B::WIRE_BYTES;

    fn write_to<Buf: BufMut>(self, buf: &mut Buf) {
        self.0.write_to(buf);
        self.1.write_to(buf);
    }

    fn read_from(raw: &[u8]) -> Self {
        (A::read_from(raw), B::read_from(&raw[A::WIRE_BYTES..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip<V: SyncValue>(v: V) {
        let mut buf = BytesMut::new();
        v.write_to(&mut buf);
        assert_eq!(buf.len(), V::WIRE_BYTES);
        assert_eq!(V::read_from(&buf), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(u64::MAX - 1);
        round_trip(-5i32);
        round_trip(i64::MIN);
        round_trip(1.25f32);
        round_trip(-0.85f64);
    }

    #[test]
    fn pairs_round_trip() {
        round_trip((7u32, 9u64));
        round_trip((0.5f64, u32::MAX));
    }

    #[test]
    fn values_pack_back_to_back() {
        let mut buf = BytesMut::new();
        1u32.write_to(&mut buf);
        2u32.write_to(&mut buf);
        assert_eq!(u32::read_from(&buf[4..]), 2);
    }
}
