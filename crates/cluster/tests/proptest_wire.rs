//! Property-based tests of the cluster wire format: batch round-trips for
//! all five workload message types, plus rejection of truncated and
//! version-mismatched payloads. The semi-clustering and neighborhood
//! messages are shared slices, `Arc<[T]>`, which must be the `Vec<T>` of the
//! same items on the wire: same bytes, same rejections.
//!
//! Round-trips are asserted at the byte level (`encode(decode(bytes)) ==
//! bytes`), which is both stronger than value equality and insensitive to
//! float comparison subtleties. The section properties go the other way,
//! from a routed buffer of payload handles: what a receiver decodes is the
//! sender's list, in order, bit for bit — across runs of one payload
//! (written once) next to messages that compare equal but encode
//! differently (`0.0` / `-0.0`) or compare unequal but share a bit pattern
//! (NaN) — and the bytes do not depend on whether the sender shared its
//! payloads.

use predict_algorithms::SemiCluster;
use predict_cluster::wire::{read_section, write_section, Reader, SectionHeader};
use predict_cluster::{decode_exact, encode_to_vec, Wire, WireBatch, WireError, WIRE_VERSION};
use predict_graph::VertexId;
use proptest::prelude::*;
use std::sync::Arc;

/// Case count for this suite, bounded by `PROPTEST_CASES` when set (CI sets
/// it so the property suites finish in seconds).
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

/// Strategy: an arbitrary batch of messages generated by `msg`.
fn batch<M, S>(msg: S) -> impl Strategy<Value = WireBatch<M>>
where
    M: std::fmt::Debug,
    S: Strategy<Value = M>,
{
    (
        0u64..1_000,
        0u32..16,
        0u32..16,
        0u64..1_000,
        prop::collection::vec((0u32..4_096, prop::collection::vec(msg, 0..4)), 0..8),
    )
        .prop_map(|(superstep, src, dst, seq, runs)| WireBatch {
            superstep,
            src,
            dst,
            seq,
            runs,
        })
}

/// Strategy: finite f64 across a wide range of magnitudes.
fn wide_f64() -> impl Strategy<Value = f64> {
    (-1e300f64..1e300, -60i32..60).prop_map(|(m, e)| m * (2f64).powi(e))
}

fn semi_cluster() -> impl Strategy<Value = SemiCluster> {
    (
        prop::collection::vec(0u32..10_000, 0..6),
        wide_f64(),
        wide_f64(),
    )
        .prop_map(|(vertices, internal_weight, boundary_weight)| SemiCluster {
            vertices,
            internal_weight,
            boundary_weight,
        })
}

/// Asserts the byte-level round-trip and the two rejection properties every
/// batch payload must satisfy: any truncation fails to decode, and a bumped
/// version is refused with `VersionMismatch`.
fn check_batch_payload<M: Wire + Clone + std::fmt::Debug>(
    batch: &WireBatch<M>,
    cut: usize,
) -> Result<(), TestCaseError> {
    let bytes = encode_to_vec(batch);
    let back: WireBatch<M> = decode_exact(&bytes).expect("encoded batch decodes");
    prop_assert_eq!(
        encode_to_vec(&back),
        bytes.clone(),
        "round-trip must reproduce the exact bytes"
    );

    // Truncating anywhere must fail loudly, never decode to something else.
    let cut = cut % bytes.len();
    prop_assert!(
        decode_exact::<WireBatch<M>>(&bytes[..cut]).is_err(),
        "truncation to {} of {} bytes must be rejected",
        cut,
        bytes.len()
    );

    // A batch from a future wire version must be refused up front.
    let mut bumped = bytes;
    let wrong = (WIRE_VERSION + 1).to_le_bytes();
    bumped[..2].copy_from_slice(&wrong);
    match decode_exact::<WireBatch<M>>(&bumped) {
        Err(WireError::VersionMismatch { expected, got }) => {
            prop_assert_eq!(expected, WIRE_VERSION);
            prop_assert_eq!(got, WIRE_VERSION + 1);
        }
        other => prop_assert!(false, "expected VersionMismatch, got {:?}", other),
    }
    Ok(())
}

/// The batch whose messages are the shared form of `batch`'s.
fn shared<T: Clone>(batch: &WireBatch<Vec<T>>) -> WireBatch<Arc<[T]>> {
    let share = |(vertex, messages): &(VertexId, Vec<Vec<T>>)| {
        let messages = messages.iter().map(|m| m.as_slice().into()).collect();
        (*vertex, messages)
    };
    WireBatch {
        superstep: batch.superstep,
        src: batch.src,
        dst: batch.dst,
        seq: batch.seq,
        runs: batch.runs.iter().map(share).collect(),
    }
}

/// Asserts that a shared-slice batch is its `Vec` twin on the wire — equal
/// bytes — and passes every check of [`check_batch_payload`] itself; and
/// that one shared payload answers every truncation and every inflated
/// length prefix with the error its `Vec` twin gives.
fn check_shared_payload<T>(batch: &WireBatch<Vec<T>>, cut: usize) -> Result<(), TestCaseError>
where
    T: Wire + Clone + std::fmt::Debug,
{
    let twin = shared(batch);
    prop_assert_eq!(encode_to_vec(&twin), encode_to_vec(batch));
    check_batch_payload(&twin, cut)?;

    let items: Vec<T> = batch.runs.iter().flat_map(|(_, m)| m.concat()).collect();
    let bytes = encode_to_vec(&items);
    let slice: Arc<[T]> = items.as_slice().into();
    prop_assert_eq!(&encode_to_vec(&slice), &bytes);
    let back: Arc<[T]> = decode_exact(&bytes).expect("encoded slice decodes");
    prop_assert_eq!(&encode_to_vec(&back), &bytes);
    let errors = |bytes: &[u8]| {
        let as_slice = decode_exact::<Arc<[T]>>(bytes).map(|_| ());
        let as_vec = decode_exact::<Vec<T>>(bytes).map(|_| ());
        (as_slice, as_vec)
    };
    for cut in 0..bytes.len() {
        let (as_slice, as_vec) = errors(&bytes[..cut]);
        prop_assert!(as_slice.is_err(), "truncation to {} bytes", cut);
        prop_assert_eq!(as_slice, as_vec);
    }
    for claimed in [items.len() as u32 + 1, u32::MAX] {
        let mut inflated = bytes.clone();
        inflated[..4].copy_from_slice(&claimed.to_le_bytes());
        let (as_slice, as_vec) = errors(&inflated);
        prop_assert!(as_slice.is_err(), "length inflated to {}", claimed);
        prop_assert_eq!(as_slice, as_vec);
    }
    Ok(())
}

/// Floats that `==` confuses: signed zeros, NaNs with distinct payloads
/// and signs, and ordinary values.
const PALETTE: [u64; 8] = [
    0x0000_0000_0000_0000, // 0.0
    0x8000_0000_0000_0000, // -0.0
    0x7FF8_0000_0000_0000, // NaN
    0x7FF8_0000_0000_0001, // NaN, another payload
    0xFFF8_0000_0000_0000, // -NaN
    0x7FF0_0000_0000_0001, // signalling NaN
    0x3FF0_0000_0000_0000, // 1.0
    0x3FB9_9999_9999_999A, // 0.1
];

/// Strategy: a routed buffer of runs — `(first vertex, palette index, run
/// length)` — each run one payload sent to consecutive vertices, runs up to
/// 64 messages long, adjacent runs free to pick the same or a confusable
/// payload.
fn routed_runs() -> impl Strategy<Value = Vec<(u32, usize, usize)>> {
    prop::collection::vec((0u32..4_096, 0usize..PALETTE.len(), 1usize..65), 0..24)
}

/// A top-k message: one ranking.
type Ranking = Vec<(f64, VertexId)>;

/// A routed buffer as a broadcasting sender holds it: one payload per run
/// of `runs` (built by `payload` from the run's first vertex and palette
/// index), handed to the run's consecutive vertices by handle.
fn routed<M>(
    runs: &[(u32, usize, usize)],
    payload: impl Fn(u32, usize) -> M,
) -> (Vec<M>, Vec<(u32, u32)>) {
    let payloads = runs.iter().map(|&(v, p, _)| payload(v, p)).collect();
    let handles = runs
        .iter()
        .zip(0u32..)
        .flat_map(|(&(v, _, len), handle)| (0..len as u32).map(move |i| (v + i, handle)));
    (payloads, handles.collect())
}

/// Each message of a routed buffer as the bytes of its payload.
fn expand<M: Wire>(payloads: &[M], routed: &[(u32, u32)]) -> Vec<(u32, Vec<u8>)> {
    routed
        .iter()
        .map(|&(v, h)| (v, encode_to_vec(&payloads[h as usize])))
        .collect()
}

/// Writes `routed` as one section — with its handles, or with one handle
/// per message as if nothing were shared — and reads it back through the
/// framing: the bytes, then the decoded table and row of handles.
fn section_round_trip<M: Wire>(
    payloads: &[M],
    routed: &[(u32, u32)],
    shared: bool,
) -> (Vec<u8>, Vec<M>, Vec<(u32, u32)>) {
    let header = SectionHeader {
        superstep: 7,
        src: 1,
        dst: 0,
        seq: 7,
    };
    let mut bytes = Vec::new();
    let messages = routed.iter().zip(0u32..).map(|(&(v, h), own)| {
        let handle = if shared { h } else { own };
        (v, handle, &payloads[h as usize])
    });
    write_section(&mut bytes, header, messages);
    let mut r = Reader::new(&bytes);
    let section = read_section(&mut r).expect("a written section reads");
    assert!(r.is_empty() && section.header == header && section.raw == &bytes[..]);
    let (mut table, mut row) = (Vec::new(), Vec::new());
    section
        .decode_into(&mut row, &mut table)
        .expect("a written section decodes");
    (bytes, table, row)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(64)))]

    /// Plain floats (PageRank, SSSP): the decoded list is the routed list
    /// bit for bit, and each maximal run of equal *bit patterns* is one
    /// group, decoded to one payload — so identical messages are written
    /// once and `0.0` / `-0.0` / NaN payloads never merge, whether or not
    /// the sender shared them.
    #[test]
    fn sections_decode_to_the_routed_list_bit_for_bit(runs in routed_runs()) {
        let (payloads, routed) = routed(&runs, |_, p| f64::from_bits(PALETTE[p]));
        let (bytes, table, row) = section_round_trip(&payloads, &routed, true);
        prop_assert_eq!(expand(&table, &row), expand(&payloads, &routed));
        let groups = routed.chunk_by(|a, b| {
            payloads[a.1 as usize].to_bits() == payloads[b.1 as usize].to_bits()
        });
        let groups: Vec<usize> = groups.map(<[_]>::len).collect();
        prop_assert_eq!(table.len(), groups.len());
        let body: usize = groups.iter().map(|len| 8 + 4 + 4 * len).sum();
        prop_assert_eq!(bytes.len(), 30 + body);
        let (unshared, _, _) = section_round_trip(&payloads, &routed, false);
        prop_assert_eq!(unshared, bytes);
    }

    /// Top-k rankings, one per run as a broadcasting sender stores them,
    /// with the confusable floats inside the entries: decoded to the routed
    /// list, and written to the bytes the same list gives with nothing
    /// shared.
    #[test]
    fn shared_payload_sections_decode_to_the_routed_list(runs in routed_runs()) {
        let (payloads, routed) =
            routed(&runs, |v, p| -> Ranking { vec![(f64::from_bits(PALETTE[p]), v)] });
        let (bytes, table, row) = section_round_trip(&payloads, &routed, true);
        prop_assert_eq!(expand(&table, &row), expand(&payloads, &routed));
        let (unshared, _, _) = section_round_trip(&payloads, &routed, false);
        prop_assert_eq!(unshared, bytes);
    }

    /// PageRank messages: plain `f64` rank contributions.
    #[test]
    fn pagerank_batches_round_trip(b in batch(wide_f64()), cut in 0usize..10_000) {
        check_batch_payload(&b, cut)?;
    }

    /// Top-k messages: lists of `(rank, vertex)` entries, and their shared
    /// twins.
    #[test]
    fn topk_batches_round_trip(
        b in batch(prop::collection::vec((wide_f64(), 0u32..10_000), 0..5)),
        cut in 0usize..10_000,
    ) {
        check_shared_payload::<(f64, VertexId)>(&b, cut)?;
    }

    /// Semi-clustering messages: shared lists of cluster structs — the
    /// variable-*size* message shape of the paper.
    #[test]
    fn semi_clustering_batches_round_trip(
        b in batch(prop::collection::vec(semi_cluster(), 0..4)),
        cut in 0usize..10_000,
    ) {
        check_shared_payload::<SemiCluster>(&b, cut)?;
    }

    /// Connected-components messages: bare vertex ids.
    #[test]
    fn connected_components_batches_round_trip(
        b in batch(0u32..100_000),
        cut in 0usize..10_000,
    ) {
        check_batch_payload::<VertexId>(&b, cut)?;
    }

    /// Neighborhood-estimation messages: shared Flajolet–Martin bitmasks.
    #[test]
    fn neighborhood_batches_round_trip(
        b in batch(prop::collection::vec(0u64..u64::MAX, 0..4)),
        cut in 0usize..10_000,
    ) {
        check_shared_payload::<u64>(&b, cut)?;
    }
}
