//! Property-based tests: every Xdr impl must round-trip losslessly, produce
//! 4-byte-aligned output, and reject truncated input without panicking.

use proptest::prelude::*;
use xdr::{
    decode, encode, FixedBuf, Xdr, XdrDecoder, XdrEncoder, XdrError, XdrSgEncoder, XdrSink, XdrVec,
};

fn roundtrip<T: Xdr + PartialEq + std::fmt::Debug>(v: &T) {
    let buf = encode(v);
    assert_eq!(buf.len() % 4, 0, "encoding must be 4-byte aligned");
    let back: T = decode(&buf).expect("decode of own encoding must succeed");
    assert_eq!(&back, v);
}

/// Decoding any strict prefix of a valid encoding must fail cleanly (no
/// panic, no bogus success consuming the whole prefix).
fn prefix_safe<T: Xdr>(buf: &[u8]) {
    for cut in 0..buf.len() {
        let mut dec = XdrDecoder::new(&buf[..cut]);
        match T::decode(&mut dec) {
            // A shorter parse may succeed (e.g. opaque with smaller padding),
            // but then it must not have consumed exactly the full prefix of a
            // *different* length item. We only require: no panic.
            Ok(_) | Err(_) => {}
        }
    }
}

/// One random `put_*` call: `(selector, scalar bits, blob)`.
type PutOp = (u8, u64, Vec<u8>);

/// Apply `ops` to a scatter-gather encoder over any sink; opaques take the
/// deferred path, so large ones become borrowed segments.
fn drive<'d, B: XdrSink>(sg: &mut XdrSgEncoder<'d, '_, B>, ops: &'d [PutOp]) {
    for (sel, bits, blob) in ops {
        match sel % 11 {
            0 => sg.put_u32(*bits as u32),
            1 => sg.put_i32(*bits as i32),
            2 => sg.put_u64(*bits),
            3 => sg.put_i64(*bits as i64),
            4 => sg.put_f32(f32::from_bits(*bits as u32)),
            5 => sg.put_f64(f64::from_bits(*bits)),
            6 => sg.put_bool(bits & 1 == 1),
            7 => sg.put_opaque_fixed(blob),
            8 => sg.put_string(&String::from_utf8_lossy(blob)),
            9 => sg.put_opaque(blob),
            _ => sg.put_opaque_deferred(blob),
        }
    }
}

proptest! {
    /// The one encoder emits the same bytes whatever it writes into: the
    /// growable sink, a fixed sink, and the flattened scatter-gather segment
    /// list agree, and a fixed sink that is too small reports exactly the
    /// length the encoding needs.
    #[test]
    fn every_sink_yields_identical_bytes(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..1500)),
            0..24,
        ),
        cut in 0usize..64,
    ) {
        // Reference: the same puts into a Vec with nothing deferred
        // (selector 10 → 9, the copying `put_opaque`).
        let copied: Vec<PutOp> = ops
            .iter()
            .map(|(sel, bits, blob)| (if sel % 11 == 10 { 9 } else { *sel }, *bits, blob.clone()))
            .collect();
        let mut plain = XdrEncoder::new();
        drive(&mut XdrSgEncoder::new(&mut plain), &copied);
        let want = plain.into_inner();

        let mut vec_enc = XdrEncoder::new();
        let mut sg = XdrSgEncoder::new(&mut vec_enc);
        drive(&mut sg, &ops);
        prop_assert_eq!(sg.total_len(), want.len());
        prop_assert_eq!(&sg.with_segments(|segs| segs.concat()), &want);

        let mut store = vec![0u8; want.len()];
        let mut fixed_enc = XdrEncoder::from_sink(FixedBuf::new(&mut store[..]));
        let mut sg = XdrSgEncoder::new(&mut fixed_enc);
        drive(&mut sg, &ops);
        prop_assert_eq!(&sg.with_segments(|segs| segs.concat()), &want);
        let owned = fixed_enc.finish().unwrap();
        prop_assert!(owned <= want.len());

        // An undersized fixed sink: every put still advances the logical
        // length, so `needed` is what a big-enough sink would have used.
        if owned > 0 {
            let cap = cut % owned;
            let mut small = XdrEncoder::from_sink(FixedBuf::new(&mut store[..cap]));
            drive(&mut XdrSgEncoder::new(&mut small), &ops);
            prop_assert!(small.as_slice().is_empty());
            prop_assert_eq!(
                small.finish(),
                Err(XdrError::Truncated { needed: owned, remaining: cap })
            );
        }
    }

    #[test]
    fn u32_roundtrip(v: u32) { roundtrip(&v); }

    #[test]
    fn i32_roundtrip(v: i32) { roundtrip(&v); }

    #[test]
    fn u64_roundtrip(v: u64) { roundtrip(&v); }

    #[test]
    fn i64_roundtrip(v: i64) { roundtrip(&v); }

    #[test]
    fn f64_roundtrip(v: f64) {
        // NaN compares unequal; compare bit patterns instead.
        let buf = encode(&v);
        let back: f64 = decode(&buf).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn f32_roundtrip(v: f32) {
        let buf = encode(&v);
        let back: f32 = decode(&buf).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn bool_roundtrip(v: bool) { roundtrip(&v); }

    #[test]
    fn opaque_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..4096)) {
        roundtrip(&v);
    }

    #[test]
    fn string_roundtrip(s in "\\PC{0,256}") {
        roundtrip(&s.to_string());
    }

    #[test]
    fn u32_array_roundtrip(v in proptest::collection::vec(any::<u32>(), 0..512)) {
        roundtrip(&XdrVec(v));
    }

    #[test]
    fn option_roundtrip(v in proptest::option::of(any::<u64>())) {
        roundtrip(&v);
    }

    #[test]
    fn tuple_roundtrip(a: u32, b: i64, s in "\\PC{0,64}", f: bool) {
        roundtrip(&(a, b, s.to_string(), f));
    }

    #[test]
    fn truncation_never_panics(v in proptest::collection::vec(any::<u8>(), 0..256)) {
        let buf = encode(&v);
        prefix_safe::<Vec<u8>>(&buf);
    }

    #[test]
    fn arbitrary_bytes_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Fuzz the decoder with random garbage for several types.
        let _ = decode::<Vec<u8>>(&buf);
        let _ = decode::<String>(&buf);
        let _ = decode::<XdrVec<u32>>(&buf);
        let _ = decode::<Option<u64>>(&buf);
        let _ = decode::<(u32, u32, Vec<u8>)>(&buf);
    }

    #[test]
    fn nested_composite_roundtrip(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..16),
        tag: u32,
    ) {
        let v = (tag, XdrVec(blobs.clone()));
        let buf = encode(&v);
        let (t2, b2): (u32, XdrVec<Vec<u8>>) = decode(&buf).unwrap();
        prop_assert_eq!(t2, tag);
        prop_assert_eq!(b2.0, blobs);
    }
}
