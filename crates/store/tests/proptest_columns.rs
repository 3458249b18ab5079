//! Property tests of the codec's packed numeric columns: integer columns
//! round-trip exactly at every bit width a frame can take, float columns
//! keep every bit pattern, and the encoder spends exactly the bit length of
//! a column's range on each element.

use predict_store::{decode_value, encode_value};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Packed, Value};

/// Case count bounded by `PROPTEST_CASES` (CI keeps the suites fast).
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

/// Encodes, checks the column section is `expected_words` long, decodes.
fn roundtrip(column: Packed, expected_words: usize) -> Result<(), TestCaseError> {
    let value = Value::Packed(column);
    let encoded = encode_value(&value);
    prop_assert_eq!(encoded.columns.len(), expected_words * 8);
    let back = decode_value(&encoded.tree, &encoded.columns);
    prop_assert_eq!(back.as_ref(), Ok(&value));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(64)))]

    /// For every width 0..=64: a column whose range `max - min` is exactly
    /// `width` bits long, anywhere in the `u64` (and, up to 32 bits, the
    /// `u32`) value space — empty, single-element and whole.
    #[test]
    fn integer_columns_roundtrip_at_every_bit_width(
        raw in vec(0u64..=u64::MAX, 2..130),
        base in 0u64..=u64::MAX,
    ) {
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            let min = base.min(u64::MAX - mask);
            let mut column: Vec<u64> = raw.iter().map(|r| min + (r & mask)).collect();
            // Both ends of the range present: the frame is exactly `width`
            // bits wide (1 for a constant column).
            column[0] = min;
            column[1] = min + mask;
            let min32 = (base as u32).min(u32::MAX - mask as u32);

            for len in [0, 1, column.len()] {
                let column = &column[..len];
                let frame_bits = if len < 2 { 1 } else { width.max(1) as usize };
                let words = (len * frame_bits).div_ceil(64);
                roundtrip(Packed::U64(column.to_vec()), words)?;
                if width <= 32 {
                    let narrow = column.iter().map(|&v| min32 + (v - min) as u32).collect();
                    roundtrip(Packed::U32(narrow), words)?;
                }
            }
        }
    }

    /// Float columns are bit patterns: NaN payloads, signed zeros,
    /// subnormals and infinities all come back exactly.
    #[test]
    fn float_columns_keep_every_bit_pattern(
        bits64 in vec(0u64..=u64::MAX, 0..80),
        bits32 in vec(any::<u32>(), 0..80),
    ) {
        let f64s = Value::Packed(Packed::F64(bits64.iter().map(|&b| f64::from_bits(b)).collect()));
        let encoded = encode_value(&f64s);
        prop_assert_eq!(encoded.columns.len(), bits64.len() * 8);
        match decode_value(&encoded.tree, &encoded.columns) {
            Ok(Value::Packed(Packed::F64(back))) => {
                let back: Vec<u64> = back.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(back, bits64);
            }
            other => prop_assert!(false, "expected f64 column, got {:?}", other),
        }

        let f32s = Value::Packed(Packed::F32(bits32.iter().map(|&b| f32::from_bits(b)).collect()));
        let encoded = encode_value(&f32s);
        prop_assert_eq!(encoded.columns.len(), bits32.len() * 4);
        match decode_value(&encoded.tree, &encoded.columns) {
            Ok(Value::Packed(Packed::F32(back))) => {
                let back: Vec<u32> = back.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(back, bits32);
            }
            other => prop_assert!(false, "expected f32 column, got {:?}", other),
        }
    }
}
