//! Decoder hardening for packed payloads: no byte string makes
//! `decode_value` panic, and none makes it allocate beyond a fixed multiple
//! of the bytes actually present — a count or width that claims more column
//! bytes than exist is a `CodecError` before anything is reserved for it.
//!
//! One test function on purpose: the allocation high-water mark is read
//! from a counting global allocator, which every thread of the test binary
//! shares.

use predict_store::{decode_value, encode_value, Encoded};
use serde::{Packed, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation requested since the last reset.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// `fetch_max` on a static, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A payload with every column kind, several per section, between strings
/// and boxed values, so a consumed-too-much column runs into its neighbour.
fn payload() -> Value {
    Value::Map(vec![
        ("technique".to_string(), Value::Str("BRJ".to_string())),
        (
            "out_offsets".to_string(),
            Value::Packed(Packed::U64((0..200).map(|i| i * 7).collect())),
        ),
        (
            "out_targets".to_string(),
            Value::Packed(Packed::U32((0..900).map(|i| i * 131 % 2048).collect())),
        ),
        (
            "weights".to_string(),
            Value::Packed(Packed::F32((0..300).map(|i| i as f32 * 0.5).collect())),
        ),
        ("ratio".to_string(), Value::Float(0.1)),
        (
            "times_ms".to_string(),
            Value::Packed(Packed::F64((0..64).map(|i| f64::from(i) / 3.0).collect())),
        ),
        ("empty".to_string(), Value::Packed(Packed::U32(vec![]))),
    ])
}

/// Offsets, in the tree section, of every packed value's `count` field and
/// (for the integer kinds) its `width` byte with the kind's widest frame.
fn packed_fields(tree: &[u8]) -> Vec<(usize, Option<(usize, u8)>)> {
    let mut fields = Vec::new();
    let mut pos = 1 + 4; // map tag + entry count
    let entries = u32::from_le_bytes(tree[1..5].try_into().unwrap());
    for _ in 0..entries {
        let key_len = u32::from_le_bytes(tree[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + key_len;
        match tree[pos] {
            0x04 => pos += 9,
            0x05 => {
                let len = u32::from_le_bytes(tree[pos + 1..pos + 5].try_into().unwrap()) as usize;
                pos += 5 + len;
            }
            0x08 => {
                let kind = tree[pos + 1];
                let count_at = pos + 2;
                if kind <= 1 {
                    let widest = if kind == 0 { 32 } else { 64 };
                    fields.push((count_at, Some((count_at + 8 + 8, widest))));
                    pos = count_at + 8 + 8 + 1;
                } else {
                    fields.push((count_at, None));
                    pos = count_at + 8;
                }
            }
            tag => panic!("payload() has no value with tag {tag:#x}"),
        }
    }
    assert_eq!(pos, tree.len());
    fields
}

/// Decodes with the allocation high-water mark reset, and checks the mark
/// against the bytes present: 8-byte elements from 1-bit frames are a 64x
/// blow-up at most, plus slack for the tree's own small vectors.
fn decode_bounded(tree: &[u8], columns: &[u8]) -> Result<Value, predict_store::CodecError> {
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let result = decode_value(tree, columns);
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    let bound = 64 * (tree.len() + columns.len()) + 64 * 1024;
    assert!(
        largest <= bound,
        "decoding {} payload bytes allocated {largest} bytes at once",
        tree.len() + columns.len()
    );
    result
}

#[test]
fn packed_payload_mutations_error_without_panic_or_overallocation() {
    let value = payload();
    let Encoded { tree, columns } = encode_value(&value);
    assert_eq!(decode_bounded(&tree, &columns).as_ref(), Ok(&value));

    // Every single-byte mutation of either section: an error or some value,
    // never a panic, never an allocation out of proportion.
    for mask in [0x01u8, 0x10, 0x80, 0xFF] {
        for i in 0..tree.len() {
            let mut corrupt = tree.clone();
            corrupt[i] ^= mask;
            let _ = decode_bounded(&corrupt, &columns);
        }
        for i in 0..columns.len() {
            let mut corrupt = columns.clone();
            corrupt[i] ^= mask;
            // Column bytes are data: every pattern is some element.
            assert!(decode_bounded(&tree, &corrupt).is_ok());
        }
    }
    // Every truncation of the column section starves some column.
    for len in 0..columns.len() {
        assert!(decode_bounded(&tree, &columns[..len]).is_err());
    }

    // Every inflation of a count or a bit width. The sections hold exactly
    // the bytes the honest frames need, so any frame that needs more either
    // runs out of section or eats a later column's bytes — an error both
    // ways, and always before the inflated column is allocated.
    let fields = packed_fields(&tree);
    assert_eq!(fields.len(), 5);
    for &(count_at, width_at) in &fields {
        let count = u64::from_le_bytes(tree[count_at..count_at + 8].try_into().unwrap());
        let inflated_counts = [
            count + 64,
            count * 2 + 64,
            1 << 20,
            1 << 32,
            (1 << 61) + 1,
            u64::MAX,
        ];
        for inflated in inflated_counts {
            let mut corrupt = tree.clone();
            corrupt[count_at..count_at + 8].copy_from_slice(&inflated.to_le_bytes());
            assert!(
                decode_bounded(&corrupt, &columns).is_err(),
                "count {count} -> {inflated} decoded"
            );
        }
        let Some((width_at, widest)) = width_at else {
            continue;
        };
        let width = tree[width_at];
        for inflated in (width + 1..=64).chain([65, 128, 255]) {
            let mut corrupt = tree.clone();
            corrupt[width_at] = inflated;
            let result = decode_bounded(&corrupt, &columns);
            // An empty column has no words at any width the kind allows;
            // everything else here is long enough that one more bit an
            // element needs one more word.
            assert_eq!(
                result.is_err(),
                count > 0 || inflated > widest,
                "width {width} -> {inflated} on {count} elements"
            );
        }
    }
}
