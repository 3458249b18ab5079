//! Binary encoding of the serde [`Value`] data model.
//!
//! The store persists artifact payloads as an encoded `Value` tree rather
//! than JSON text because the byte-identity contract of a warm restart
//! demands *exact* float round-trips: a prediction recomputed from a stored
//! sample-run profile must be bit-for-bit the prediction the cold run
//! produced. JSON float formatting/parsing cannot promise that, so floats
//! are stored as their IEEE-754 bit patterns ([`f64::to_bits`]) and every
//! other scalar as fixed-width little-endian words.
//!
//! An encoded payload has two sections. The *tree* section holds the
//! structure — keys, strings, scalars, boxed sequences — and is what the
//! store compresses. The *column* section holds the elements of every
//! [`Value::Packed`] numeric column, in the order the tree mentions them,
//! and is stored raw: bit-packed integers and float bit patterns give a
//! byte-oriented LZ nothing to find.
//!
//! Wire grammar (all integers little-endian):
//!
//! ```text
//! value := 0x00                          ; Null
//!        | 0x01 u8                       ; Bool (0 = false, 1 = true)
//!        | 0x02 i64                      ; Int
//!        | 0x03 u64                      ; UInt
//!        | 0x04 u64                      ; Float (f64 bit pattern)
//!        | 0x05 u32 byte{len}            ; Str (UTF-8)
//!        | 0x06 u32 value{count}         ; Seq
//!        | 0x07 u32 (str value){count}   ; Map (str = u32 len + UTF-8 key)
//!        | 0x08 kind:u8 count:u64 frame  ; Packed column
//! frame := min:u64 width:u8              ; kind 0 (u32), kind 1 (u64)
//!        | (empty)                       ; kind 2 (f32), kind 3 (f64)
//! ```
//!
//! A packed value consumes the next bytes of the column section:
//!
//! * integer kinds: `ceil(count * width / 64)` `u64` words. Element `i` is
//!   stored as `element - min` in bits `[i * width, (i + 1) * width)` of the
//!   word stream, least significant bit first (frame-of-reference
//!   bit-packing). `width` is the bit length of `max - min`, at least 1 for
//!   a non-empty column and at most 32 / 64 for the kind; an empty column
//!   has `min = 0`, `width = 0` and no words.
//! * float kinds: `count` bit patterns of 4 (`f32`) or 8 (`f64`) bytes.
//!
//! Encoding is deterministic: the vendored serde's `Value` model already
//! fixes map ordering (struct declaration order, sorted hash maps), so
//! identical artifacts always produce identical bytes — which is what makes
//! payload checksums and golden byte-identity assertions meaningful.
//!
//! Decoding is total: every malformed input maps to a [`CodecError`], never
//! a panic, so a corrupted store file flows into the quarantine path. A
//! column's byte length is checked against the bytes actually present
//! before anything is allocated for it.

use serde::{Packed, Value};
use std::fmt;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_SEQ: u8 = 0x06;
const TAG_MAP: u8 = 0x07;
const TAG_PACKED: u8 = 0x08;

const KIND_U32: u8 = 0;
const KIND_U64: u8 = 1;
const KIND_F32: u8 = 2;
const KIND_F64: u8 = 3;

/// Collections larger than this are treated as corruption rather than
/// allocated: the largest real artifact (a CSR edge array) stays far below
/// a billion elements, while a flipped length byte can claim 2^32.
const MAX_COLLECTION_LEN: usize = 1 << 30;

/// Error decoding a binary `Value`; carries the byte offset that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset into the tree section where decoding failed.
    pub offset: usize,
    /// What went wrong at that offset.
    pub reason: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload decode failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for CodecError {}

/// The two sections of an encoded payload (see the module grammar).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Encoded {
    /// Structure, scalars and strings; compressible.
    pub tree: Vec<u8>,
    /// Packed column elements, in tree order; stored raw.
    pub columns: Vec<u8>,
}

/// Encodes a `Value` tree into the store's binary payload format.
pub fn encode_value(value: &Value) -> Encoded {
    let mut out = Encoded::default();
    encode_into(value, &mut out);
    out
}

fn encode_into(value: &Value, encoded: &mut Encoded) {
    let out = &mut encoded.tree;
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_into(item, encoded);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, item) in entries {
                encode_str(key, &mut encoded.tree);
                encode_into(item, encoded);
            }
        }
        Value::Packed(column) => {
            out.push(TAG_PACKED);
            out.push(match column {
                Packed::U32(_) => KIND_U32,
                Packed::U64(_) => KIND_U64,
                Packed::F32(_) => KIND_F32,
                Packed::F64(_) => KIND_F64,
            });
            out.extend_from_slice(&(column.len() as u64).to_le_bytes());
            let columns = &mut encoded.columns;
            match column {
                Packed::U32(v) => pack_ints(v, out, columns),
                Packed::U64(v) => pack_ints(v, out, columns),
                Packed::F32(v) => {
                    columns.reserve(v.len() * 4);
                    for f in v {
                        columns.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                }
                Packed::F64(v) => {
                    columns.reserve(v.len() * 8);
                    for f in v {
                        columns.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
}

/// Writes the `min width` frame of an integer column to `tree` and its
/// frame-of-reference bit-packed words to `columns`.
fn pack_ints<T: Copy + Into<u64>>(values: &[T], tree: &mut Vec<u8>, columns: &mut Vec<u8>) {
    let (mut min, mut max) = (u64::MAX, 0u64);
    for &v in values {
        let v: u64 = v.into();
        min = min.min(v);
        max = max.max(v);
    }
    let (min, width) = if values.is_empty() {
        (0, 0)
    } else {
        // A constant column still spends one bit per element, so that an
        // element count is always backed by bytes the decoder can see.
        (min, (u64::BITS - (max - min).leading_zeros()).max(1))
    };
    tree.extend_from_slice(&min.to_le_bytes());
    tree.push(width as u8);

    columns.reserve((values.len() * width as usize).div_ceil(64) * 8);
    // `acc` holds the low `fill` bits of the word being assembled.
    let (mut acc, mut fill) = (0u64, 0u32);
    for &v in values {
        let delta = v.into() - min;
        acc |= delta << fill;
        fill += width;
        if fill >= 64 {
            columns.extend_from_slice(&acc.to_le_bytes());
            fill -= 64;
            // The bits of `delta` that did not fit start the next word.
            acc = if fill == 0 {
                0
            } else {
                delta >> (width - fill)
            };
        }
    }
    if fill > 0 {
        columns.extend_from_slice(&acc.to_le_bytes());
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a payload produced by [`encode_value`], requiring the tree
/// section to contain exactly one value and the column section to be used
/// up by it (trailing bytes in either are corruption).
pub fn decode_value(tree: &[u8], columns: &[u8]) -> Result<Value, CodecError> {
    let mut pos = 0usize;
    let mut columns_left = columns;
    let value = decode_at(tree, &mut pos, &mut columns_left, 0)?;
    if pos != tree.len() {
        return Err(CodecError {
            offset: pos,
            reason: "trailing bytes after value",
        });
    }
    if !columns_left.is_empty() {
        return Err(CodecError {
            offset: pos,
            reason: "trailing bytes after last column",
        });
    }
    Ok(value)
}

/// Nesting bound: real artifact trees are a handful of levels deep, while a
/// crafted/corrupt stream of `Seq` tags could otherwise recurse until the
/// stack overflows (a panic the quarantine path must never see).
const MAX_DEPTH: u32 = 64;

fn decode_at(
    bytes: &[u8],
    pos: &mut usize,
    columns: &mut &[u8],
    depth: u32,
) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError {
            offset: *pos,
            reason: "value nesting too deep",
        });
    }
    let err = |offset: usize, reason: &'static str| CodecError { offset, reason };
    let tag_offset = *pos;
    let tag = *bytes
        .get(*pos)
        .ok_or(err(tag_offset, "truncated: missing tag"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => {
            let b = *bytes.get(*pos).ok_or(err(*pos, "truncated bool"))?;
            *pos += 1;
            match b {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(err(tag_offset, "invalid bool byte")),
            }
        }
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take8(bytes, pos)?))),
        TAG_UINT => Ok(Value::UInt(u64::from_le_bytes(take8(bytes, pos)?))),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(take8(
            bytes, pos,
        )?)))),
        TAG_STR => Ok(Value::Str(decode_str(bytes, pos)?)),
        TAG_SEQ => {
            let count = take_len(bytes, pos)?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_at(bytes, pos, columns, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let count = take_len(bytes, pos)?;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let key = decode_str(bytes, pos)?;
                let value = decode_at(bytes, pos, columns, depth + 1)?;
                entries.push((key, value));
            }
            Ok(Value::Map(entries))
        }
        TAG_PACKED => {
            let kind = *bytes.get(*pos).ok_or(err(*pos, "truncated column kind"))?;
            *pos += 1;
            let count = usize::try_from(u64::from_le_bytes(take8(bytes, pos)?))
                .map_err(|_| err(tag_offset, "column count exceeds address space"))?;
            let column = match kind {
                KIND_U32 | KIND_U64 => {
                    let min = u64::from_le_bytes(take8(bytes, pos)?);
                    let width = *bytes.get(*pos).ok_or(err(*pos, "truncated column width"))?;
                    *pos += 1;
                    let max_width = if kind == KIND_U32 { 32 } else { 64 };
                    if width > max_width || (width == 0 && count > 0) {
                        return Err(err(tag_offset, "column bit width out of range"));
                    }
                    let words = count
                        .checked_mul(width as usize)
                        .map(|bits| bits.div_ceil(64))
                        .ok_or(err(tag_offset, "column length overflow"))?;
                    let packed = take_column(columns, words, 8, tag_offset)?;
                    if kind == KIND_U32 {
                        let min = u32::try_from(min)
                            .map_err(|_| err(tag_offset, "u32 column minimum out of range"))?;
                        Packed::U32(unpack_ints(packed, count, width.into(), |delta| {
                            min.wrapping_add(delta as u32)
                        }))
                    } else {
                        Packed::U64(unpack_ints(packed, count, width.into(), |delta| {
                            min.wrapping_add(delta)
                        }))
                    }
                }
                KIND_F32 => Packed::F32(
                    take_column(columns, count, 4, tag_offset)?
                        .chunks_exact(4)
                        .map(|c| {
                            f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                        })
                        .collect(),
                ),
                KIND_F64 => Packed::F64(
                    take_column(columns, count, 8, tag_offset)?
                        .chunks_exact(8)
                        .map(|c| {
                            f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        })
                        .collect(),
                ),
                _ => return Err(err(tag_offset, "unknown column kind")),
            };
            Ok(Value::Packed(column))
        }
        _ => Err(err(tag_offset, "unknown value tag")),
    }
}

/// Splits the next `count * elem_bytes` bytes off the column section, or
/// fails — before the caller allocates anything — if fewer are present.
fn take_column<'a>(
    columns: &mut &'a [u8],
    count: usize,
    elem_bytes: usize,
    tag_offset: usize,
) -> Result<&'a [u8], CodecError> {
    let len = count
        .checked_mul(elem_bytes)
        .filter(|&len| len <= columns.len())
        .ok_or(CodecError {
            offset: tag_offset,
            reason: "column longer than the column section",
        })?;
    let (column, rest) = columns.split_at(len);
    *columns = rest;
    Ok(column)
}

/// Inverse of [`pack_ints`]: reads `count` `width`-bit deltas from `packed`
/// (whose length the caller has checked to be `ceil(count * width / 64)`
/// words) and maps each through `rebase`.
fn unpack_ints<T>(packed: &[u8], count: usize, width: u32, rebase: impl Fn(u64) -> T) -> Vec<T> {
    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    let mut words = packed
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    let mut out = Vec::with_capacity(count);
    // `acc` holds `avail` not yet consumed bits, in its low end.
    let (mut acc, mut avail) = (0u64, 0u32);
    for _ in 0..count {
        let delta = if avail >= width {
            let delta = acc & mask;
            acc = acc.checked_shr(width).unwrap_or(0);
            avail -= width;
            delta
        } else {
            let next = words.next().expect("word count checked by the caller");
            let delta = (acc | (next << avail)) & mask;
            let taken = width - avail;
            acc = next.checked_shr(taken).unwrap_or(0);
            avail = 64 - taken;
            delta
        };
        out.push(rebase(delta));
    }
    out
}

fn take8(bytes: &[u8], pos: &mut usize) -> Result<[u8; 8], CodecError> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: *pos,
            reason: "truncated 8-byte word",
        })?;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(word)
}

fn take_len(bytes: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: *pos,
            reason: "truncated length",
        })?;
    let len = u32::from_le_bytes([
        bytes[*pos],
        bytes[*pos + 1],
        bytes[*pos + 2],
        bytes[*pos + 3],
    ]) as usize;
    *pos = end;
    if len > MAX_COLLECTION_LEN {
        return Err(CodecError {
            offset: *pos - 4,
            reason: "collection length implausibly large",
        });
    }
    Ok(len)
}

fn decode_str(bytes: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = take_len(bytes, pos)?;
    let start = *pos;
    let end = start
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: start,
            reason: "truncated string",
        })?;
    let s = std::str::from_utf8(&bytes[start..end]).map_err(|_| CodecError {
        offset: start,
        reason: "invalid UTF-8 in string",
    })?;
    *pos = end;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str("pagerank".to_string())),
            ("iters".to_string(), Value::UInt(42)),
            ("delta".to_string(), Value::Int(-7)),
            ("threshold".to_string(), Value::Float(1e-4)),
            ("converged".to_string(), Value::Bool(true)),
            ("missing".to_string(), Value::Null),
            (
                "ratios".to_string(),
                Value::Seq(vec![
                    Value::Float(0.1),
                    Value::Float(0.15),
                    Value::Float(0.2),
                ]),
            ),
            (
                "targets".to_string(),
                Value::Packed(Packed::U32(vec![900, 1034, 17, 2047, 512])),
            ),
            (
                "times_ms".to_string(),
                Value::Packed(Packed::F64(vec![1.5, -0.0, 3.25])),
            ),
        ])
    }

    fn roundtrip(value: &Value) -> Value {
        let encoded = encode_value(value);
        decode_value(&encoded.tree, &encoded.columns).unwrap()
    }

    /// Bit patterns of a packed float column (so NaN compares equal to itself).
    fn float_bits(value: &Value) -> Vec<u64> {
        match value {
            Value::Packed(Packed::F32(v)) => v.iter().map(|f| f.to_bits().into()).collect(),
            Value::Packed(Packed::F64(v)) => v.iter().map(|f| f.to_bits()).collect(),
            other => panic!("expected float column, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_tree() {
        let tree = sample_tree();
        assert_eq!(roundtrip(&tree), tree);
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for f in [
            0.1f64,
            -0.0,
            f64::MIN_POSITIVE,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            match roundtrip(&Value::Float(f)) {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
        // NaN keeps its exact payload bits too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        match roundtrip(&Value::Float(nan)) {
            Value::Float(g) => assert_eq!(nan.to_bits(), g.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn float_columns_roundtrip_bit_exact() {
        let f64s = Value::Packed(Packed::F64(vec![
            -0.0,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ]));
        assert_eq!(float_bits(&roundtrip(&f64s)), float_bits(&f64s));
        let f32s = Value::Packed(Packed::F32(vec![
            -0.0,
            f32::from_bits(0x7FC0_BEEF),
            f32::MAX,
            0.1,
            1.0,
        ]));
        assert_eq!(float_bits(&roundtrip(&f32s)), float_bits(&f32s));
        // 4 bytes an element: an odd count leaves the section unaligned.
        assert_eq!(encode_value(&f32s).columns.len(), 20);
    }

    #[test]
    fn integer_column_edge_cases_roundtrip() {
        for column in [
            Packed::U64(vec![]),
            Packed::U32(vec![]),
            Packed::U64(vec![7]),
            Packed::U32(vec![u32::MAX]),
            Packed::U64(vec![u64::MAX]),
            Packed::U64(vec![0, u64::MAX]),
            Packed::U64(vec![u64::MAX - 2, u64::MAX, u64::MAX - 1]),
            Packed::U32(vec![u32::MAX - 2, u32::MAX]),
            Packed::U64(vec![5; 100]),
        ] {
            let value = Value::Packed(column);
            assert_eq!(roundtrip(&value), value);
        }
    }

    #[test]
    fn integer_columns_spend_the_bit_length_of_their_range() {
        // 0..=2047 is an 11-bit range: 1000 elements pack into 11000 bits.
        let targets: Vec<u32> = (0..1000).map(|i| (i * 37) % 2048).collect();
        let mut column = targets.clone();
        column[0] = 0;
        column[1] = 2047;
        let encoded = encode_value(&Value::Packed(Packed::U32(column)));
        assert_eq!(encoded.columns.len(), 11_000usize.div_ceil(64) * 8);
        // Only the range counts, not the magnitude.
        let shifted = encode_value(&Value::Packed(Packed::U64(
            targets.iter().map(|&t| u64::from(t) + (1 << 40)).collect(),
        )));
        assert!(shifted.columns.len() <= encoded.columns.len());
        // A constant column still spends one bit an element.
        let constant = encode_value(&Value::Packed(Packed::U64(vec![9; 1000])));
        assert_eq!(constant.columns.len(), 1000usize.div_ceil(64) * 8);
    }

    #[test]
    fn deterministic_encoding() {
        assert_eq!(encode_value(&sample_tree()), encode_value(&sample_tree()));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut encoded = encode_value(&Value::Bool(true));
        encoded.tree.push(0);
        assert!(decode_value(&encoded.tree, &encoded.columns).is_err());

        let mut encoded = encode_value(&sample_tree());
        encoded.columns.push(0);
        assert!(decode_value(&encoded.tree, &encoded.columns).is_err());
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(decode_value(&[0xEE], &[]).is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        // 100 nested single-element Seqs exceed MAX_DEPTH.
        let mut bytes = Vec::new();
        for _ in 0..100 {
            bytes.push(0x06);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0x00);
        assert!(decode_value(&bytes, &[]).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let encoded = encode_value(&sample_tree());
        for i in 0..encoded.tree.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = encoded.tree.clone();
                corrupt[i] ^= mask;
                let _ = decode_value(&corrupt, &encoded.columns);
            }
        }
    }
}
