//! The compact versioned wire format.
//!
//! Everything the cluster transports exchange — superstep message batches,
//! counters, aggregates, whole graph shards, final values — is encoded by
//! the [`Wire`] trait: little-endian fixed-width primitives, `u32`
//! length-prefixed sequences, no padding, no self-description. The format is
//! independent of any transport; [`crate::protocol`] wraps encoded payloads
//! in length-prefixed frames, and the proptest suite round-trips arbitrary
//! values and rejects truncations and version mismatches.
//!
//! The unit of superstep traffic is the *batch section*: all messages one
//! worker produced for one destination worker in one superstep, exactly as
//! the sender's routed buffer holds them — **production order**, nothing
//! regrouped, so a receiver that appends them to its delivery row in section
//! order sees what the in-memory delivery phase sees (point 8 of the
//! `predict_bsp::runtime` determinism contract). The sender writes a section
//! straight from its buffer of payload handles ([`write_section`]); the
//! driver relays it without looking past its header ([`read_section`]); the
//! receiver decodes it once ([`Section::decode_into`]) into the same shape
//! the sender held — a payload table and one entry per destination.
//!
//! A destination *entry* is a vertex for a point send, or `GROUP_BIT |
//! index` for a broadcast: the index names one of the sender's edge groups
//! bound for the receiver, whose destination slots crossed the wire once per
//! drive as the sender's *table* for that receiver ([`write_table`],
//! [`read_table`], [`Table::decode`]). The receiver expands a group entry
//! through that table exactly as the in-memory delivery expands it through
//! the sender's groups, so a broadcast costs one entry per destination
//! worker, not one per edge, every superstep after the first.
//!
//! ```text
//!   section := version:u16  superstep:u64  src:u32  dst:u32  seq:u64
//!              body_len:u32  body
//!   body    := group*                       (production order)
//!   group   := message  count:u32  entry:u32 × count
//!   entry   := vertex | GROUP_BIT | index   (index into src's table for dst)
//!
//!   table   := version:u16  src:u32  dst:u32  body_len:u32  groups:u32
//!              end:u32 × groups  slot:u32 × end[groups - 1]
//! ```
//!
//! A group is a run of consecutive messages whose *encodings* are
//! byte-identical: the message is written once, followed by the destination
//! entries it goes to — a PageRank sender's rank share, a CC label, one
//! broadcast top-k / semi-clustering / neighborhood list. Encodings are
//! compared, never values, so `0.0` and `-0.0` (equal as floats) or two NaNs
//! with different payloads never merge. A run of one payload handle is one
//! group without being compared at all, so the bytes are the same whether
//! or not a sender shared its payloads. `body_len` bounds every read of the
//! body, and a group's `count` is checked against the bytes left before
//! anything is reserved for it.
//!
//! A table lists, in index order, the destination shard slots of each of its
//! groups: group `i` holds the slots from `end[i - 1]` (0 for the first) to
//! `end[i]`. Its decoder checks that every group holds a slot, that the ends
//! rise to exactly the slots present, and that every slot is inside the
//! receiver's shard.
//!
//! [`WireBatch`] is the same section seen as a value, with vertex entries
//! only: its `runs` are the consecutive same-vertex runs of the section's
//! delivery order, and a section holding a group entry is not one.
//!
//! Floats travel as their IEEE-754 bit patterns (`to_bits`/`from_bits`), so
//! every value — including NaN payloads — round-trips exactly.

use crate::error::WireError;
use predict_algorithms::{NeighborhoodSketch, SemiCluster, SemiClusterList, TopKState};
use predict_bsp::runtime::{group_of, EdgeGroups};
use predict_bsp::{Aggregates, AggregatorKind, WorkerCounters};
use predict_graph::{ShardedCsr, VertexId};
use std::sync::Arc;

/// Version every batch section and table leads with; decoders reject
/// anything else.
/// Bump on any incompatible change to an encoding. Version 2 replaced
/// vertex-sorted runs with production-order groups; version 3 writes a
/// broadcast as one group entry per destination worker, expanded by the
/// receiver through the sender's table.
pub const WIRE_VERSION: u16 = 3;

/// Cursor over a byte payload being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders of whole frame
    /// bodies check this so trailing garbage is rejected, not ignored.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }
}

/// A value that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes `value` into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must span the whole buffer (trailing bytes are an
/// error).
pub fn decode_exact<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after value",
            r.remaining()
        )));
    }
    Ok(value)
}

macro_rules! wire_le_primitive {
    ($ty:ty, $what:literal) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$ty>(), $what)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    };
}

wire_le_primitive!(u8, "u8");
wire_le_primitive!(u16, "u16");
wire_le_primitive!(u32, "u32");
wire_le_primitive!(u64, "u64");

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

/// `usize` travels as `u64` so 32- and 64-bit builds interoperate.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::Invalid(format!("usize {v} overflows")))
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid("string is not UTF-8".into()))
    }
}

/// A sequence on the wire: `u32` length, then the items.
fn encode_items<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_items(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        // Cap the pre-allocation by what the payload could possibly hold, so
        // a corrupted length cannot force a huge allocation before the
        // truncation is noticed.
        let mut items = Vec::with_capacity(len.min(r.remaining()).min(1 << 16));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// A shared slice — the message of the semi-clustering and neighborhood
/// programs — travels byte for byte as the `Vec<T>` holding the same items,
/// and is decoded through it, bounds and all.
impl<T: Wire> Wire for Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_items(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Vec::decode(r).map(Self::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Workload message and value types.
// ---------------------------------------------------------------------------

impl Wire for TopKState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.own_rank.encode(out);
        self.entries.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            own_rank: f64::decode(r)?,
            entries: Vec::decode(r)?,
        })
    }
}

impl Wire for SemiCluster {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vertices.encode(out);
        self.internal_weight.encode(out);
        self.boundary_weight.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            vertices: Vec::decode(r)?,
            internal_weight: f64::decode(r)?,
            boundary_weight: f64::decode(r)?,
        })
    }
}

impl Wire for SemiClusterList {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clusters.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            clusters: Vec::decode(r)?,
        })
    }
}

impl Wire for NeighborhoodSketch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bitmasks.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            bitmasks: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Runtime types.
// ---------------------------------------------------------------------------

impl Wire for WorkerCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.active_vertices.encode(out);
        self.total_vertices.encode(out);
        self.local_messages.encode(out);
        self.remote_messages.encode(out);
        self.local_message_bytes.encode(out);
        self.remote_message_bytes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            active_vertices: u64::decode(r)?,
            total_vertices: u64::decode(r)?,
            local_messages: u64::decode(r)?,
            remote_messages: u64::decode(r)?,
            local_message_bytes: u64::decode(r)?,
            remote_message_bytes: u64::decode(r)?,
        })
    }
}

fn aggregator_kind_tag(kind: AggregatorKind) -> u8 {
    match kind {
        AggregatorKind::Sum => 0,
        AggregatorKind::Min => 1,
        AggregatorKind::Max => 2,
    }
}

impl Wire for AggregatorKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(aggregator_kind_tag(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Sum),
            1 => Ok(Self::Min),
            2 => Ok(Self::Max),
            tag => Err(WireError::BadTag {
                what: "aggregator kind",
                tag,
            }),
        }
    }
}

/// Aggregates travel as `(name, kind, f64 bits)` triples in the set's own
/// lexicographic iteration order and are reconstructed through
/// [`Aggregates::combine`] — values are exact, no text round-trip.
impl Wire for Aggregates {
    fn encode(&self, out: &mut Vec<u8>) {
        let entries: Vec<(&str, AggregatorKind, f64)> = self.entries().collect();
        (entries.len() as u32).encode(out);
        for (name, kind, value) in entries {
            name.to_string().encode(out);
            kind.encode(out);
            value.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        let mut aggregates = Aggregates::new();
        for _ in 0..len {
            let name = String::decode(r)?;
            let kind = AggregatorKind::decode(r)?;
            let value = f64::decode(r)?;
            if aggregates.get(&name).is_some() {
                return Err(WireError::Invalid(format!("duplicate aggregator '{name}'")));
            }
            aggregates.combine(&name, kind, value);
        }
        Ok(aggregates)
    }
}

/// A whole graph shard: the payload of the `Init` frame. Decoding revalidates
/// every structural invariant through
/// [`ShardedCsr::from_parts`], so a corrupted shard is rejected before it can
/// misroute a single message.
impl Wire for ShardedCsr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker().encode(out);
        self.num_workers().encode(out);
        self.global_vertices().encode(out);
        self.global_edges().encode(out);
        self.owned().to_vec().encode(out);
        self.out_offsets().to_vec().encode(out);
        self.out_targets().to_vec().encode(out);
        self.out_weights().map(<[f32]>::to_vec).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let worker = usize::decode(r)?;
        let num_workers = usize::decode(r)?;
        let global_vertices = usize::decode(r)?;
        let global_edges = usize::decode(r)?;
        let owned: Vec<VertexId> = Vec::decode(r)?;
        let out_offsets: Vec<usize> = Vec::decode(r)?;
        let out_targets: Vec<VertexId> = Vec::decode(r)?;
        let out_weights: Option<Vec<f32>> = Option::decode(r)?;
        ShardedCsr::from_parts(
            worker,
            num_workers,
            global_vertices,
            global_edges,
            owned,
            out_offsets,
            out_targets,
            out_weights,
        )
        .map_err(WireError::Invalid)
    }
}

// ---------------------------------------------------------------------------
// Superstep message batches.
// ---------------------------------------------------------------------------

/// Who sent a batch section to whom, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionHeader {
    /// Superstep the messages were produced in.
    pub superstep: u64,
    /// Worker that produced the messages.
    pub src: u32,
    /// Worker that owns every destination vertex in the section.
    pub dst: u32,
    /// Sequence number of this section within `(src, dst)` — the superstep
    /// again today (one section per pair per superstep), carried separately
    /// so a future multi-section flush keeps a total order.
    pub seq: u64,
}

/// Byte equality. Slice `==` calls `memcmp`, which costs more than the
/// comparison itself on the 4–16-byte encodings most messages have
/// (measured: 40 % of a 16 k-message section write).
#[inline]
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// Overwrites the `u32` placeholder at `at` with `value`.
pub(crate) fn patch_u32(out: &mut [u8], at: usize, value: u32) {
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// The little-endian `u32`s of `bytes`, whose length is a multiple of 4.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let le = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
    bytes.chunks_exact(4).map(le)
}

/// Takes `count` little-endian `u32`s, checking the count against the bytes
/// left before anything is reserved for them.
fn take_u32s<'a>(
    r: &mut Reader<'a>,
    count: usize,
    what: &'static str,
) -> Result<&'a [u8], WireError> {
    let len = count.checked_mul(4).ok_or(WireError::Truncated { what })?;
    r.take(len, what)
}

/// Appends one batch section to `out`: `header`, then `messages` —
/// `(destination entry, payload handle, payload)` triples in production
/// order — as groups of byte-identical consecutive encodings (see the
/// [module docs](self)).
///
/// Equal handles name the same payload: a message whose handle is its
/// predecessor's joins the open group without being encoded, so a broadcast
/// payload is encoded once however many destinations it has. A message with
/// a new handle is encoded and byte-compared with the open group, so two
/// payloads with equal encodings still share a group — the section does not
/// depend on how the sender numbered its payloads.
///
/// # Panics
///
/// Panics if the body exceeds `u32::MAX` bytes, which no frame can carry
/// ([`MAX_FRAME_LEN`](crate::protocol::MAX_FRAME_LEN)).
pub fn write_section<'m, M: Wire + 'm>(
    out: &mut Vec<u8>,
    header: SectionHeader,
    messages: impl IntoIterator<Item = (VertexId, u32, &'m M)>,
) {
    WIRE_VERSION.encode(out);
    header.superstep.encode(out);
    header.src.encode(out);
    header.dst.encode(out);
    header.seq.encode(out);
    let len_at = out.len();
    0u32.encode(out);
    let body_start = out.len();
    // The open group: its message bytes, where its count goes, the count
    // (zero before the first message), the handle of its latest message.
    let (mut open, mut count_at, mut count, mut last) = (0..0, 0, 0u32, 0u32);
    for (entry, handle, message) in messages {
        if count > 0 && handle == last {
            count += 1;
        } else {
            let start = out.len();
            message.encode(out);
            if count > 0 && same_bytes(&out[open.clone()], &out[start..]) {
                out.truncate(start);
                count += 1;
            } else {
                if count > 0 {
                    patch_u32(out, count_at, count);
                }
                (open, count_at, count) = (start..out.len(), out.len(), 1);
                0u32.encode(out);
            }
            last = handle;
        }
        entry.encode(out);
    }
    if count > 0 {
        patch_u32(out, count_at, count);
    }
    let len = u32::try_from(out.len() - body_start).expect("a section body fits a frame");
    patch_u32(out, len_at, len);
}

/// Reads the [`WIRE_VERSION`] a section or table leads with.
fn read_version(r: &mut Reader<'_>) -> Result<(), WireError> {
    match u16::decode(r)? {
        WIRE_VERSION => Ok(()),
        got => Err(WireError::VersionMismatch {
            expected: WIRE_VERSION,
            got,
        }),
    }
}

/// One batch section as it sits in a frame body, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// The section's framing.
    pub header: SectionHeader,
    /// The groups, undecoded.
    pub body: &'a [u8],
    /// The whole section, header included — what a relay forwards.
    pub raw: &'a [u8],
}

/// Reads one section's framing — version, header, body length — and borrows
/// its bytes without decoding a message. A wrong version, or a body length
/// beyond the bytes left, is an error before anything is allocated.
pub fn read_section<'a>(r: &mut Reader<'a>) -> Result<Section<'a>, WireError> {
    let start = r.pos;
    read_version(r)?;
    let header = SectionHeader {
        superstep: u64::decode(r)?,
        src: u32::decode(r)?,
        dst: u32::decode(r)?,
        seq: u64::decode(r)?,
    };
    let len = u32::decode(r)? as usize;
    let body = r.take(len, "section body")?;
    Ok(Section {
        header,
        body,
        raw: &r.buf[start..r.pos],
    })
}

impl Section<'_> {
    /// Decodes the section's groups in production order: `carried` takes
    /// each group's message, decoded once, and returns what the group's
    /// destinations carry; one `(destination entry, carried)` pair per
    /// destination is appended to `row`.
    fn decode_groups<M: Wire, E: Clone>(
        &self,
        row: &mut Vec<(VertexId, E)>,
        mut carried: impl FnMut(M) -> Result<E, WireError>,
    ) -> Result<(), WireError> {
        let mut r = Reader::new(self.body);
        while !r.is_empty() {
            let message = M::decode(&mut r)?;
            let count = u32::decode(&mut r)? as usize;
            if count == 0 {
                return Err(WireError::Invalid("group without destinations".into()));
            }
            let entries = take_u32s(&mut r, count, "group destinations")?;
            let carried = carried(message)?;
            row.reserve(count);
            row.extend(u32s(entries).map(|entry| (entry, carried.clone())));
        }
        Ok(())
    }

    /// Decodes the section's groups: each group's message is decoded once
    /// and appended to the payload `table`, and one `(destination entry,
    /// handle into table)` pair per destination is appended to `row`, in
    /// production order. Entries are not checked here: a vertex must be the
    /// receiver's and a group index inside the sender's table, which only
    /// the receiver knows.
    pub fn decode_into<M: Wire>(
        &self,
        row: &mut Vec<(VertexId, u32)>,
        table: &mut Vec<M>,
    ) -> Result<(), WireError> {
        self.decode_groups(row, |message| {
            let handle = u32::try_from(table.len())
                .map_err(|_| WireError::Invalid("more payloads than handles".into()))?;
            table.push(message);
            Ok(handle)
        })
    }
}

/// One worker's edge-group table for one peer, as it sits in a frame body,
/// borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Table<'a> {
    /// Worker whose groups the table lists.
    pub src: u32,
    /// Worker that owns every slot of the table.
    pub dst: u32,
    /// The group ends and slots, undecoded.
    pub body: &'a [u8],
    /// The whole table, header included — what a relay forwards.
    pub raw: &'a [u8],
}

/// Appends worker `src`'s table for peer `dst` to `out`: the slots of each
/// of `groups`' groups bound for `dst`, in group order — which is their
/// [`peer_indices`](crate::protocol::peer_indices) order (see the
/// [module docs](self)).
pub fn write_table(out: &mut Vec<u8>, src: u32, dst: u32, groups: &EdgeGroups) {
    WIRE_VERSION.encode(out);
    src.encode(out);
    dst.encode(out);
    let len_at = out.len();
    0u32.encode(out);
    let body_start = out.len();
    let bound = || (0..groups.len()).filter(|&g| groups.worker(g) == dst as usize);
    (bound().count() as u32).encode(out);
    let mut end = 0;
    for group in bound() {
        end += groups.slots(group).len() as u32;
        end.encode(out);
    }
    for group in bound() {
        out.extend(
            groups
                .slots(group)
                .iter()
                .flat_map(|slot| slot.to_le_bytes()),
        );
    }
    let len = u32::try_from(out.len() - body_start).expect("a table fits a frame");
    patch_u32(out, len_at, len);
}

/// Reads one table's framing — version, workers, body length — and borrows
/// its bytes without decoding a group. A wrong version, or a body length
/// beyond the bytes left, is an error before anything is allocated.
pub fn read_table<'a>(r: &mut Reader<'a>) -> Result<Table<'a>, WireError> {
    let start = r.pos;
    read_version(r)?;
    let (src, dst) = (u32::decode(r)?, u32::decode(r)?);
    let len = u32::decode(r)? as usize;
    let body = r.take(len, "table body")?;
    Ok(Table {
        src,
        dst,
        body,
        raw: &r.buf[start..r.pos],
    })
}

impl Table<'_> {
    /// Decodes the table into the groups its receiver keeps for delivery
    /// ([`EdgeGroups::from_slot_lists`]), checking every slot against
    /// `shard_len`, the size of the receiver's shard.
    pub fn decode(&self, shard_len: usize) -> Result<EdgeGroups, WireError> {
        let mut r = Reader::new(self.body);
        let count = u32::decode(&mut r)? as usize;
        let ends: Vec<u32> = u32s(take_u32s(&mut r, count, "table group ends")?).collect();
        let slots = r.take(r.remaining(), "table slots")?;
        if slots.len() % 4 != 0 {
            return Err(WireError::Truncated {
                what: "table slots",
            });
        }
        EdgeGroups::from_slot_lists(self.dst as usize, shard_len, &ends, u32s(slots).collect())
            .map_err(WireError::Invalid)
    }
}

/// All messages one worker produced for one destination worker in one
/// superstep, as a value: one batch section.
///
/// `runs` are the consecutive same-vertex runs of the section's delivery
/// order — production order, nothing sorted. Encoding flattens them into
/// that order and writes them through [`write_section`]; decoding reads them
/// back through [`read_section`], so two batches whose runs flatten to the
/// same sequence encode to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatch<M> {
    /// Superstep the messages were produced in.
    pub superstep: u64,
    /// Worker that produced the messages.
    pub src: u32,
    /// Worker that owns every destination vertex in `runs`.
    pub dst: u32,
    /// Sequence number of this batch within `(src, dst)`; see
    /// [`SectionHeader::seq`].
    pub seq: u64,
    /// Consecutive same-destination-vertex message runs, in delivery order.
    pub runs: Vec<(VertexId, Vec<M>)>,
}

impl<M> WireBatch<M> {
    /// Total number of messages across all runs.
    pub fn num_messages(&self) -> usize {
        self.runs.iter().map(|(_, msgs)| msgs.len()).sum()
    }
}

impl<M: Wire + Clone> Wire for WireBatch<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        let header = SectionHeader {
            superstep: self.superstep,
            src: self.src,
            dst: self.dst,
            seq: self.seq,
        };
        // A value holds no payload twice: every message gets a handle of its
        // own, so groups come from byte comparison alone.
        let messages = self
            .runs
            .iter()
            .flat_map(|(vertex, messages)| messages.iter().map(move |m| (*vertex, m)))
            .zip(0u32..)
            .map(|((vertex, m), handle)| (vertex, handle, m));
        write_section(out, header, messages);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let section = read_section(r)?;
        // A value holds a message per destination: no table, no handles.
        let mut row: Vec<(VertexId, M)> = Vec::new();
        section.decode_groups(&mut row, Ok)?;
        if let Some((entry, _)) = row.iter().find(|(entry, _)| group_of(*entry).is_some()) {
            return Err(WireError::Invalid(format!(
                "group entry {entry:#x} in a batch of vertex entries"
            )));
        }
        let runs = row
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|(_, m)| m.clone()).collect()))
            .collect();
        let SectionHeader {
            superstep,
            src,
            dst,
            seq,
        } = section.header;
        Ok(Self {
            superstep,
            src,
            dst,
            seq,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        42u8.encode(&mut out);
        7u16.encode(&mut out);
        1234u32.encode(&mut out);
        (u64::MAX - 3).encode(&mut out);
        true.encode(&mut out);
        (-0.0f64).encode(&mut out);
        f64::NAN.encode(&mut out);
        "héllo".to_string().encode(&mut out);

        let mut r = Reader::new(&out);
        assert_eq!(u8::decode(&mut r).unwrap(), 42);
        assert_eq!(u16::decode(&mut r).unwrap(), 7);
        assert_eq!(u32::decode(&mut r).unwrap(), 1234);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX - 3);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(f64::decode(&mut r).unwrap().is_nan());
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_primitive_is_rejected() {
        let bytes = encode_to_vec(&123456789u64);
        for cut in 0..bytes.len() {
            let err = decode_exact::<u64>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert!(matches!(
            decode_exact::<u32>(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn aggregates_round_trip_exactly() {
        let mut a = Aggregates::new();
        a.add("delta", 0.1 + 0.2);
        a.combine("lo", AggregatorKind::Min, -1.5e-300);
        a.combine("hi", AggregatorKind::Max, f64::MAX);
        let back: Aggregates = decode_exact(&encode_to_vec(&a)).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn sharded_csr_round_trips_and_rejects_corruption() {
        use predict_graph::generators::{generate_rmat, RmatConfig};
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(13));
        let shards = predict_graph::shard_csr(&g, 3, |v| v as usize % 3);
        for shard in &shards {
            let bytes = encode_to_vec(shard);
            let back: ShardedCsr = decode_exact(&bytes).unwrap();
            assert_eq!(back.owned(), shard.owned());
            assert_eq!(back.out_offsets(), shard.out_offsets());
            assert_eq!(back.out_targets(), shard.out_targets());
            // Any truncation is rejected (either as Truncated or Invalid).
            assert!(decode_exact::<ShardedCsr>(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    #[test]
    fn sections_keep_production_order_and_write_shared_encodings_once() {
        // Handles as a sender holds them: 0.5 stored once and handed to
        // three vertices, then a second 0.5 payload, then 0.0 and -0.0.
        let payloads = [0.5f64, 0.5, 0.0, -0.0];
        let routed: Vec<(VertexId, u32)> = vec![(5, 0), (2, 0), (9, 1), (5, 2), (2, 3), (7, 3)];
        let header = SectionHeader {
            superstep: 3,
            src: 0,
            dst: 1,
            seq: 3,
        };
        let mut out = Vec::new();
        let messages = routed.iter().map(|&(v, h)| (v, h, &payloads[h as usize]));
        write_section(&mut out, header, messages);
        // Behind the 30-byte header, three groups: 0.5 to three vertices
        // (two payloads, equal bytes), 0.0 to one, -0.0 to two.
        let group = |vertices: usize| 8 + 4 + 4 * vertices;
        assert_eq!(out.len(), 30 + group(3) + group(1) + group(2));
        // One handle per message writes the same bytes.
        let mut unshared = Vec::new();
        let messages = routed.iter().zip(0u32..);
        write_section(
            &mut unshared,
            header,
            messages.map(|(&(v, h), own)| (v, own, &payloads[h as usize])),
        );
        assert_eq!(unshared, out);

        let mut r = Reader::new(&out);
        let section = read_section(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(section.header, header);
        assert_eq!(section.raw, &out[..]);
        let (mut row, mut table): (Vec<(VertexId, u32)>, Vec<f64>) = (vec![(1, 0)], vec![1.0]);
        section.decode_into(&mut row, &mut table).unwrap();
        // One payload per group, appended behind what the table held.
        let bits: Vec<u64> = table.iter().map(|m| m.to_bits()).collect();
        assert_eq!(bits, [1.0f64, 0.5, 0.0, -0.0].map(f64::to_bits));
        assert_eq!(
            row[1..],
            [(5, 1), (2, 1), (9, 1), (5, 2), (2, 3), (7, 3)],
            "appended in production order"
        );

        let batch: WireBatch<f64> = decode_exact(&out).unwrap();
        let vertices: Vec<VertexId> = batch.runs.iter().map(|(v, _)| *v).collect();
        assert_eq!(vertices, [5, 2, 9, 5, 2, 7], "runs follow delivery order");
        assert_eq!(encode_to_vec(&batch), out);
    }

    #[test]
    fn batch_version_mismatch_is_rejected() {
        let batch: WireBatch<f64> = WireBatch {
            superstep: 0,
            src: 0,
            dst: 1,
            seq: 0,
            runs: vec![(3, vec![1.0])],
        };
        let mut bytes = encode_to_vec(&batch);
        bytes[0] = 0xFF; // clobber the leading version
        bytes[1] = 0xFF;
        assert!(matches!(
            decode_exact::<WireBatch<f64>>(&bytes),
            Err(WireError::VersionMismatch { got: 0xFFFF, .. })
        ));
    }
}
