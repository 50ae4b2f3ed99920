//! The [`Xdr`] trait and impls for primitives and common composites.

use crate::{XdrDecoder, XdrEncoder, XdrResult, XdrSink};

/// A type with a canonical XDR wire representation.
///
/// Generated code (from the `rpcl` compiler) implements this for every RPCL
/// struct, enum, union and typedef. Hand-written impls below cover the
/// primitive building blocks.
pub trait Xdr: Sized {
    /// Append the XDR encoding of `self` to `enc`, whatever its sink.
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>);

    /// Decode a value of this type from `dec`.
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self>;
}

macro_rules! xdr_primitive {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Xdr for $ty {
            #[inline]
            fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
                enc.$put(*self);
            }
            #[inline]
            fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
                dec.$get()
            }
        }
    };
}

xdr_primitive!(u32, put_u32, get_u32);
xdr_primitive!(i32, put_i32, get_i32);
xdr_primitive!(u64, put_u64, get_u64);
xdr_primitive!(i64, put_i64, get_i64);
xdr_primitive!(f32, put_f32, get_f32);
xdr_primitive!(f64, put_f64, get_f64);
xdr_primitive!(bool, put_bool, get_bool);

/// `()` encodes as XDR `void`: zero bytes.
impl Xdr for () {
    #[inline]
    fn encode<S: XdrSink>(&self, _enc: &mut XdrEncoder<S>) {}
    #[inline]
    fn decode(_dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(())
    }
}

/// `Vec<u8>` encodes as variable-length opaque data. This is the dominant
/// payload type for GPU memory transfers, so it gets the byte-blob encoding,
/// not the per-element array encoding.
impl Xdr for Vec<u8> {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_opaque(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(dec.get_opaque()?.to_vec())
    }
}

impl Xdr for String {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_string(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        dec.get_string()
    }
}

impl<T: Xdr> Xdr for Option<T> {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_option(self.as_ref());
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        dec.get_option()
    }
}

impl<T: Xdr> Xdr for Box<T> {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Box::new(T::decode(dec)?))
    }
}

/// Wrapper marking a `Vec<T>` as an XDR variable-length *array* (count +
/// per-element encoding). Needed because `Vec<u8>` is claimed by the opaque
/// encoding; generated code uses `XdrVec` for `u32<>`-style arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XdrVec<T>(pub Vec<T>);

impl<T: Xdr> Xdr for XdrVec<T> {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_array(&self.0);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(XdrVec(dec.get_array()?))
    }
}

impl<T> std::ops::Deref for XdrVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> std::ops::DerefMut for XdrVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T> From<Vec<T>> for XdrVec<T> {
    fn from(v: Vec<T>) -> Self {
        XdrVec(v)
    }
}

/// Fixed-size byte array: encoded as fixed opaque (no length prefix).
impl<const N: usize> Xdr for [u8; N] {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_opaque_fixed(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let bytes = dec.get_opaque_fixed(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

macro_rules! xdr_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Xdr),+> Xdr for ($($name,)+) {
            fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
                $(self.$idx.encode(enc);)+
            }
            fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
                Ok(($($name::decode(dec)?,)+))
            }
        }
    };
}

xdr_tuple!(A: 0);
xdr_tuple!(A: 0, B: 1);
xdr_tuple!(A: 0, B: 1, C: 2);
xdr_tuple!(A: 0, B: 1, C: 2, D: 3);
xdr_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
xdr_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};

    #[test]
    fn unit_is_zero_bytes() {
        assert!(encode(&()).is_empty());
        decode::<()>(&[]).unwrap();
    }

    #[test]
    fn vec_u8_uses_opaque_encoding() {
        let v = vec![1u8, 2, 3];
        let buf = encode(&v);
        assert_eq!(buf, [0, 0, 0, 3, 1, 2, 3, 0]);
        assert_eq!(decode::<Vec<u8>>(&buf).unwrap(), v);
    }

    #[test]
    fn xdrvec_uses_array_encoding() {
        let v: XdrVec<u32> = vec![1u32, 2].into();
        let buf = encode(&v);
        assert_eq!(buf, [0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2]);
        assert_eq!(decode::<XdrVec<u32>>(&buf).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = (1u32, -2i64, String::from("xyz"), true);
        let buf = encode(&t);
        assert_eq!(decode::<(u32, i64, String, bool)>(&buf).unwrap(), t);
    }

    #[test]
    fn fixed_byte_array_roundtrip() {
        let a: [u8; 6] = [1, 2, 3, 4, 5, 6];
        let buf = encode(&a);
        assert_eq!(buf.len(), 8); // padded to multiple of 4
        assert_eq!(decode::<[u8; 6]>(&buf).unwrap(), a);
    }

    #[test]
    fn boxed_value_roundtrip() {
        let b = Box::new(0xdeadu32);
        let buf = encode(&b);
        assert_eq!(decode::<Box<u32>>(&buf).unwrap(), b);
    }
}
