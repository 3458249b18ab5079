//! The framed superstep protocol the driver and its workers speak.
//!
//! The topology is a star: the driver is the BSP master, every worker holds
//! one shard, and all traffic flows through the driver (workers never talk
//! to each other — peer messages are relayed by the master inside `Step` /
//! `StepDone` frames, which is also what pins delivery order). One episode:
//!
//! ```text
//!   driver                                   worker
//!     | -- Init(header, shard, ranks) ------->  |   decode, build state
//!     | <---------------- InitOk(tables) ----  |   one table per peer
//!     | -- Step(0, aggs, tables in) --------->  |   keep tables, compute 0
//!     | <-- StepDone(report, sections out) ---  |   write routed buffers
//!     | -- Step(s, aggs, sections in) ------->  |   decode, deliver, compute s
//!     | <-- StepDone(report, sections out) ---  |   write routed buffers
//!     |            ... repeat per superstep ... |
//!     | -- Finish --------------------------->  |
//!     | <-- Values(slot-ordered values) ------  |   back to Init wait
//! ```
//!
//! Every frame is `[u32 LE length][u8 tag][body]` where `length` counts the
//! tag byte plus the body. Bodies are [`Wire`]-encoded,
//! except the `Init` header, which is JSON (it carries algorithm parameter
//! structs whose serde impls already exist; JSON `f64` round-trips are exact
//! in this workspace, pinned by the profile serialization tests). Barrier,
//! halt voting and aggregate exchange all ride the same framed protocol:
//! `StepDone` *is* the barrier arrival, carrying the halt flag and the
//! worker's partial aggregates.
//!
//! The superstep bodies carry peer messages as batch sections
//! ([`crate::wire`]), each encoded once by its sender and decoded once by
//! its receiver; the `InitOk` body carries the worker's edge-group tables,
//! one per peer, which reach their peers in superstep 0's `Step`:
//!
//! ```text
//!   InitOk   := count:u32  table × count                 (dst ascending)
//!   StepDone := StepReport  count:u32  section × count   (dst ascending)
//!   Step     := superstep:u64  aggregates  count:u32  table × count
//!               count:u32  section × count               (src ascending)
//! ```
//!
//! Tables travel once per drive: only superstep 0's `Step` holds any, and
//! it holds no section. A worker writes each non-empty routed buffer of
//! payload handles as one section ([`encode_step_done`]): a point send as
//! its destination vertex, a broadcast as one group entry naming the
//! receiver's copy of the group, so the wire carries what the in-memory
//! executor routes, not one destination per edge. The driver decodes only
//! the [`StepReport`] — what the master merges — and the framing of each
//! table and section, then copies their bytes verbatim into their
//! destination's next `Step` ([`Relay`]); it decodes no group and no
//! message. The receiver decodes the tables into the groups it delivers
//! through and the sections into its per-source payload tables and delivery
//! rows of entries ([`decode_step`]), each group's message once. So a
//! corrupt *table* or *message* is found, and reported through an `Error`
//! frame, by the worker that receives it, while corrupt *framing* is a
//! protocol error of the worker that sent it.
//!
//! After `Values`, the worker loops back to waiting for the next `Init`, so
//! a pooled worker serves many runs; `Shutdown` (or EOF on its pipe) ends
//! it.

use crate::error::WireError;
use crate::wire::{
    patch_u32, read_section, read_table, write_section, write_table, Reader, SectionHeader, Wire,
};
pub use predict_algorithms::ProgramSpec;
use predict_bsp::runtime::{group_of, EdgeGroups, ShardLayout, GROUP_BIT};
use predict_bsp::{Aggregates, PartitionStrategy, WorkerCounters};
use predict_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Version of the frame protocol, carried in every [`InitHeader`]; workers
/// refuse an `Init` from a driver speaking another version. Version 2
/// dropped the per-peer cut lists from the shard section of `Init`; version
/// 3 carries peer messages as relayed batch sections; version 4 drops the
/// worker index, the worker count and the fault field from the `Init`
/// header (the shard states the first two); version 5 sends each worker's
/// edge-group tables in `InitOk` and relays them in superstep 0's `Step`.
pub const PROTOCOL_VERSION: u32 = 5;

/// Frame tags.
pub mod tag {
    /// Driver → worker: shard + program, starts an episode.
    pub const INIT: u8 = 0x01;
    /// Worker → driver: episode state is built; carries its edge-group
    /// tables.
    pub const INIT_OK: u8 = 0x02;
    /// Driver → worker: deliver these batches, compute one superstep.
    pub const STEP: u8 = 0x03;
    /// Worker → driver: superstep finished (the barrier arrival).
    pub const STEP_DONE: u8 = 0x04;
    /// Driver → worker: run is over, send final values.
    pub const FINISH: u8 = 0x05;
    /// Worker → driver: final slot-ordered vertex values.
    pub const VALUES: u8 = 0x06;
    /// Driver → worker: exit cleanly.
    pub const SHUTDOWN: u8 = 0x07;
    /// Worker → driver: structured failure report.
    pub const ERROR: u8 = 0x7F;
}

/// Upper bound on a frame body; a length prefix beyond this is treated as
/// stream corruption rather than an allocation request. Large enough for a
/// shard of any graph the experiments run (hundreds of MB), small enough to
/// reject a desynchronized stream immediately.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Writes one `[len][tag][body]` frame and flushes.
pub fn write_frame(w: &mut impl Write, tag: u8, body: &[u8]) -> std::io::Result<()> {
    let len = (body.len() + 1) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame, blocking until it is complete. `Ok(None)` means the
/// stream ended cleanly *between* frames (EOF before any length byte) — how
/// a pooled worker learns its driver is gone. A read interrupted by a signal
/// is retried, as `read_exact` retries the rest of the frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a truncated frame.
    loop {
        match r.read(&mut len_bytes[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut body = vec![0u8; len as usize - 1];
    r.read_exact(&mut body)?;
    Ok(Some((tag[0], body)))
}

/// JSON header of the `Init` frame. The shard, which names the worker it
/// belongs to and the worker count, and (for TOP-K) the input ranks follow
/// in binary; see [`encode_init`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitHeader {
    /// Protocol version of the driver; workers reject mismatches.
    pub protocol_version: u32,
    /// Partition strategy; the worker rebuilds the (deterministic) shard
    /// layout from its shard's `(global_vertices, num_workers)` and this
    /// strategy instead of shipping the layout.
    pub strategy: PartitionStrategy,
    /// Program to run.
    pub program: ProgramSpec,
}

/// Encodes an `Init` frame body:
/// `[u32 header_len][header JSON][shard][ranks]`.
pub fn encode_init(
    header: &InitHeader,
    shard: &predict_graph::ShardedCsr,
    ranks: &[f64],
) -> Vec<u8> {
    let json = serde_json::to_string(header).expect("init header serializes");
    let mut body = Vec::new();
    (json.len() as u32).encode(&mut body);
    body.extend_from_slice(json.as_bytes());
    shard.encode(&mut body);
    ranks.to_vec().encode(&mut body);
    body
}

/// Decodes an `Init` frame body back into header, shard and ranks.
pub fn decode_init(
    body: &[u8],
) -> Result<(InitHeader, predict_graph::ShardedCsr, Vec<f64>), WireError> {
    let mut r = Reader::new(body);
    let json_len = u32::decode(&mut r)? as usize;
    if r.remaining() < json_len {
        return Err(WireError::Truncated {
            what: "init header JSON",
        });
    }
    let json = &body[4..4 + json_len];
    let json = std::str::from_utf8(json)
        .map_err(|e| WireError::Invalid(format!("init header JSON is not UTF-8: {e}")))?;
    let header: InitHeader = serde_json::from_str(json)
        .map_err(|e| WireError::Invalid(format!("init header JSON: {e}")))?;
    let mut r = Reader::new(&body[4 + json_len..]);
    let shard = predict_graph::ShardedCsr::decode(&mut r)?;
    let ranks: Vec<f64> = Vec::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Invalid("trailing bytes after init body".into()));
    }
    Ok((header, shard, ranks))
}

/// The head of a `StepDone` body: everything the master needs from one
/// worker to run its merge, clock and halt logic — the frame doubles as the
/// barrier arrival and the halt vote — and the only part of it the driver
/// decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Echo of the superstep this reply answers. The driver rejects a
    /// mismatch, so a duplicated or reordered barrier frame (a fault, a
    /// confused worker) surfaces as a protocol error instead of silently
    /// feeding one superstep's results into the next.
    pub superstep: u64,
    /// Table 1 counters of the superstep.
    pub counters: WorkerCounters,
    /// The worker's partial aggregates.
    pub partial_aggregates: Aggregates,
    /// True when every owned vertex has voted to halt.
    pub all_halted: bool,
    /// Measured wall time of the worker's compute phase, nanoseconds.
    pub compute_ns: u64,
}

impl Wire for StepReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.superstep.encode(out);
        self.counters.encode(out);
        self.partial_aggregates.encode(out);
        self.all_halted.encode(out);
        self.compute_ns.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            superstep: u64::decode(r)?,
            counters: WorkerCounters::decode(r)?,
            partial_aggregates: Aggregates::decode(r)?,
            all_halted: bool::decode(r)?,
            compute_ns: u64::decode(r)?,
        })
    }
}

/// The `InitOk` body of worker `me` of `num_workers`: its table for every
/// peer, ascending, built from `groups`, its own edge groups.
pub fn encode_init_ok(me: usize, num_workers: usize, groups: &EdgeGroups) -> Vec<u8> {
    let mut body = Vec::new();
    (num_workers as u32 - 1).encode(&mut body);
    for dst in (0..num_workers).filter(|&w| w != me) {
        write_table(&mut body, me as u32, dst as u32, groups);
    }
    body
}

/// The peer index of each of `groups`' groups: its index among the groups
/// bound for the same worker, in group order — its index in the table that
/// worker holds ([`encode_init_ok`]). A worker computes these once per
/// episode, so building [`EdgeGroups`] stays the in-memory executor's work.
pub fn peer_indices(groups: &EdgeGroups) -> Vec<u32> {
    let mut per_worker: Vec<u32> = Vec::new();
    (0..groups.len())
        .map(|g| {
            let w = groups.worker(g);
            if w >= per_worker.len() {
                per_worker.resize(w + 1, 0);
            }
            per_worker[w] += 1;
            per_worker[w] - 1
        })
        .collect()
}

/// Writes the `StepDone` body of worker `me` into `out` (cleared first):
/// `report`, then one batch section per non-empty peer buffer of `routed`,
/// ascending destination, written straight from the buffer of handles into
/// `payloads` in production order. A point send keeps its vertex; a group
/// entry of `me`'s edge groups is written as `GROUP_BIT` and the group's
/// peer index from `peer_indices` ([`peer_indices`]), its index in the
/// table the receiver holds. Written buffers are left empty with their
/// capacity; `routed[me]`, whose messages never cross the wire, is not
/// touched.
pub fn encode_step_done<M: Wire>(
    out: &mut Vec<u8>,
    report: &StepReport,
    me: usize,
    routed: &mut [Vec<(VertexId, u32)>],
    payloads: &[M],
    peer_indices: &[u32],
) {
    out.clear();
    report.encode(out);
    let count_at = out.len();
    0u32.encode(out);
    let mut count = 0u32;
    for (dst, buffer) in routed.iter_mut().enumerate() {
        if dst == me || buffer.is_empty() {
            continue;
        }
        let header = SectionHeader {
            superstep: report.superstep,
            src: me as u32,
            dst: dst as u32,
            seq: report.superstep,
        };
        let messages = buffer.iter().map(|&(entry, h)| {
            let entry = match group_of(entry) {
                Some(group) => GROUP_BIT | peer_indices[group],
                None => entry,
            };
            (entry, h, &payloads[h as usize])
        });
        write_section(out, header, messages);
        buffer.clear();
        count += 1;
    }
    patch_u32(out, count_at, count);
}

/// Whether `other`, the next worker a body names, is a peer of `me` among
/// `num_workers` workers and strictly above the previous one, `*next - 1`;
/// `*next` moves past it.
fn ascending_peer(next: &mut usize, other: usize, me: usize, num_workers: usize) -> bool {
    let ok = other >= *next && other != me && other < num_workers;
    *next = other + 1;
    ok
}

/// Tables or sections bound for one worker: how many are queued, and their
/// bytes.
#[derive(Debug, Default)]
struct Queue {
    count: u32,
    bytes: Vec<u8>,
}

impl Queue {
    fn push(&mut self, raw: &[u8]) {
        self.count += 1;
        self.bytes.extend_from_slice(raw);
    }

    /// Appends the count and the bytes to `out` and empties the queue,
    /// capacity kept.
    fn drain_into(&mut self, out: &mut Vec<u8>) {
        self.count.encode(out);
        out.extend_from_slice(&self.bytes);
        self.count = 0;
        self.bytes.clear();
    }
}

/// The driver's half of the message path: edge-group tables taken from
/// `InitOk` bodies and batch sections taken from `StepDone` bodies, queued
/// verbatim per destination worker until its next `Step`. Queues keep their
/// capacity across supersteps.
#[derive(Debug)]
pub struct Relay {
    /// Per destination worker: the tables of its peers, until superstep 0.
    tables: Vec<Queue>,
    /// Per destination worker: the sections of the last superstep.
    sections: Vec<Queue>,
}

impl Relay {
    /// An empty relay for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        let queues = || (0..num_workers).map(|_| Queue::default()).collect();
        Self {
            tables: queues(),
            sections: queues(),
        }
    }

    /// Reads the `InitOk` body worker `src` sent: checks every table's
    /// framing — version, source, a destination that is a peer and strictly
    /// above the previous one, a body inside the frame — and queues each
    /// table's bytes for its destination. No group is decoded.
    pub fn collect_tables(&mut self, body: &[u8], src: usize) -> Result<(), WireError> {
        let mut r = Reader::new(body);
        let count = u32::decode(&mut r)?;
        let mut next_dst = 0;
        for _ in 0..count {
            let table = read_table(&mut r)?;
            let dst = table.dst as usize;
            let peer = ascending_peer(&mut next_dst, dst, src, self.tables.len());
            if table.src as usize != src || !peer {
                return Err(WireError::Invalid(format!(
                    "table from worker {} to worker {dst} in the init-ok of worker {src}",
                    table.src
                )));
            }
            self.tables[dst].push(table.raw);
        }
        if !r.is_empty() {
            return Err(WireError::Invalid("trailing bytes after init-ok".into()));
        }
        Ok(())
    }

    /// Reads the `StepDone` body worker `src` sent for `superstep`: decodes
    /// its [`StepReport`], checks every section's framing — version,
    /// superstep, source, a destination that is a peer and strictly above the
    /// previous one, a body inside the frame — and queues each section's
    /// bytes for its destination. No message is decoded.
    pub fn collect(
        &mut self,
        body: &[u8],
        src: usize,
        superstep: u64,
    ) -> Result<StepReport, WireError> {
        let mut r = Reader::new(body);
        let report = StepReport::decode(&mut r)?;
        if report.superstep != superstep {
            return Err(WireError::Invalid(format!(
                "step-done for superstep {} while collecting superstep {superstep} \
                 (duplicated or reordered barrier frame)",
                report.superstep
            )));
        }
        let count = u32::decode(&mut r)?;
        let mut next_dst = 0;
        for _ in 0..count {
            let section = read_section(&mut r)?;
            let header = section.header;
            let dst = header.dst as usize;
            let framed = header.superstep == superstep
                && header.seq == superstep
                && header.src as usize == src;
            let peer = ascending_peer(&mut next_dst, dst, src, self.sections.len());
            if !framed || !peer {
                return Err(WireError::Invalid(format!(
                    "section {header:?} in the step-done of worker {src} for superstep \
                     {superstep}"
                )));
            }
            self.sections[dst].push(section.raw);
        }
        if !r.is_empty() {
            return Err(WireError::Invalid("trailing bytes after step-done".into()));
        }
        Ok(report)
    }

    /// Writes the `Step` body of superstep `superstep` for worker `dst` into
    /// `out` (cleared first) and empties that worker's queues.
    pub fn step_body(
        &mut self,
        out: &mut Vec<u8>,
        dst: usize,
        superstep: u64,
        previous_aggregates: &Aggregates,
    ) {
        out.clear();
        superstep.encode(out);
        previous_aggregates.encode(out);
        self.tables[dst].drain_into(out);
        self.sections[dst].drain_into(out);
    }
}

/// Decodes the `Step` body worker `me` of `layout` received: returns the
/// superstep to compute and the previous superstep's aggregates. Each table
/// becomes `groups[src]`, the groups `src` names in its group entries; each
/// section's payloads are appended to `tables[src]` and its `(entry,
/// handle)` pairs to `rows[src]`, one row and one table per worker
/// (`groups[me]`, `rows[me]` and `tables[me]` are not touched). Tables and
/// sections must each come from distinct peers in ascending order and be
/// addressed to `me`; tables arrive only at superstep 0, sections date from
/// the previous superstep, a vertex entry names a vertex `me` owns and a
/// group entry a group of its source's table: anything else is an error,
/// never a misdelivery.
pub fn decode_step<M: Wire>(
    body: &[u8],
    layout: &ShardLayout,
    me: usize,
    groups: &mut [EdgeGroups],
    rows: &mut [Vec<(VertexId, u32)>],
    tables: &mut [Vec<M>],
) -> Result<(u64, Aggregates), WireError> {
    let mut r = Reader::new(body);
    let superstep = u64::decode(&mut r)?;
    let previous_aggregates = Aggregates::decode(&mut r)?;
    let num_workers = groups.len().min(rows.len()).min(tables.len());
    let count = u32::decode(&mut r)?;
    let mut next_src = 0;
    for _ in 0..count {
        let table = read_table(&mut r)?;
        let src = table.src as usize;
        let peer = ascending_peer(&mut next_src, src, me, num_workers);
        if superstep != 0 || table.dst as usize != me || !peer {
            return Err(WireError::Invalid(format!(
                "table from worker {src} to worker {} in the superstep-{superstep} step of \
                 worker {me}",
                table.dst
            )));
        }
        groups[src] = table.decode(layout.shard_vertices(me).len())?;
    }
    let count = u32::decode(&mut r)?;
    let mut next_src = 0;
    for _ in 0..count {
        let section = read_section(&mut r)?;
        let header = section.header;
        let src = header.src as usize;
        let framed = header.dst as usize == me
            && header.superstep.checked_add(1) == Some(superstep)
            && header.seq == header.superstep;
        if !framed || !ascending_peer(&mut next_src, src, me, num_workers) {
            return Err(WireError::Invalid(format!(
                "section {header:?} in the superstep-{superstep} step of worker {me}"
            )));
        }
        let row = &mut rows[src];
        let start = row.len();
        section.decode_into(row, &mut tables[src])?;
        for &(entry, _) in &row[start..] {
            match group_of(entry) {
                Some(group) if group >= groups[src].len() => {
                    return Err(WireError::Invalid(format!(
                        "group {group} of worker {src}, whose table for worker {me} holds {}",
                        groups[src].len()
                    )));
                }
                None if entry as usize >= layout.num_vertices() || layout.owner_of(entry) != me => {
                    return Err(WireError::Invalid(format!(
                        "message for vertex {entry}, which worker {me} does not own"
                    )));
                }
                _ => {}
            }
        }
    }
    if !r.is_empty() {
        return Err(WireError::Invalid("trailing bytes after step".into()));
    }
    Ok((superstep, previous_aggregates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_to_vec;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::STEP, b"hello").unwrap();
        write_frame(&mut buf, tag::FINISH, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((tag::STEP, b"hello".to_vec()))
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((tag::FINISH, vec![]))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn an_interrupted_read_is_retried_not_reported() {
        // A reader whose first read is interrupted by a signal, as a socket
        // read can be while the process reaps children.
        struct InterruptedOnce<'a> {
            interrupted: bool,
            rest: &'a [u8],
        }
        impl Read for InterruptedOnce<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                self.rest.read(buf)
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::ERROR, b"boom").unwrap();
        let mut reader = InterruptedOnce {
            interrupted: false,
            rest: &buf,
        };
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Some((tag::ERROR, b"boom".to_vec()))
        );
        assert!(reader.interrupted);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::STEP, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn absurd_frame_length_is_rejected() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.push(tag::STEP);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn init_body_round_trips() {
        use predict_graph::generators::{generate_rmat, RmatConfig};
        let g = generate_rmat(&RmatConfig::new(6, 4).with_seed(3));
        let shards = predict_graph::shard_csr(&g, 2, |v| v as usize % 2);
        let header = InitHeader {
            protocol_version: PROTOCOL_VERSION,
            strategy: PartitionStrategy::Modulo,
            program: ProgramSpec::TopK {
                params: predict_algorithms::TopKParams::default(),
            },
        };
        let ranks = {
            let mut r = vec![0.0f64; g.num_vertices()];
            for (i, x) in r.iter_mut().enumerate() {
                *x = (i as f64) * 0.125 + 0.001;
            }
            r
        };
        let body = encode_init(&header, &shards[1], &ranks);
        let (h2, s2, r2) = decode_init(&body).unwrap();
        assert_eq!(h2, header);
        assert_eq!(
            (s2.worker(), s2.num_workers(), s2.owned()),
            (1, 2, shards[1].owned())
        );
        assert_eq!(r2, ranks);
    }

    /// Pins the `Init` body to the sections a worker reads — a header of
    /// version, strategy and program, the four shard scalars, owned,
    /// offsets, targets, optional weights, ranks — so a derived structure or
    /// a second statement of a fact cannot ride along unnoticed again.
    #[test]
    fn init_body_holds_only_what_a_worker_reads() {
        use predict_graph::{CsrGraph, EdgeList};
        let mut weighted = EdgeList::new();
        for (s, d, w) in [(0u32, 1u32, 0.5f32), (1, 2, 2.0), (2, 0, 1.0), (0, 2, 4.0)] {
            weighted.push_weighted(s, d, w);
        }
        let unweighted: EdgeList = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]
            .into_iter()
            .collect();
        let header = InitHeader {
            protocol_version: PROTOCOL_VERSION,
            strategy: PartitionStrategy::Modulo,
            program: ProgramSpec::ConnectedComponents {},
        };
        // The worker index and count are the shard's to state, not the header's.
        let json = serde_json::to_string(&header).unwrap();
        assert_eq!(
            json,
            r#"{"protocol_version":5,"strategy":"Modulo","program":{"ConnectedComponents":{}}}"#
        );
        for (list, ranks) in [(weighted, vec![0.25f64; 3]), (unweighted, Vec::new())] {
            let g = CsrGraph::from_edge_list(&list);
            for shard in predict_graph::shard_csr(&g, 2, |v| v as usize % 2) {
                let (n, m) = (shard.num_local_vertices(), shard.num_local_edges());
                let expected = (4 + json.len())      // header
                    + 4 * 8                          // worker, workers, |V|, |E|
                    + (4 + 4 * n)                    // owned
                    + (4 + 8 * (n + 1))              // offsets
                    + (4 + 4 * m)                    // targets
                    + if shard.is_weighted() { 1 + 4 + 4 * m } else { 1 }
                    + (4 + 8 * ranks.len()); // ranks
                assert_eq!(encode_init(&header, &shard, &ranks).len(), expected);
            }
        }
    }

    /// Worker 1 of 3 sends its tables and writes its routed buffers, the
    /// relay forwards both, and each receiver expands exactly its per-edge
    /// buffer, in production order, from a group entry per broadcast.
    #[test]
    fn step_bodies_round_trip() {
        use predict_bsp::storage::WorkerGraph;
        use predict_graph::{CsrGraph, EdgeList};
        let layout = ShardLayout::build(9, 3, PartitionStrategy::Modulo);
        // Vertex 1 (worker 1) broadcasts over 1 -> 6, 0, 8, 2: group 0 holds
        // the edges to worker 0, group 1 those to worker 2; each is the
        // first group bound for its worker.
        let edges: EdgeList = [(1u32, 6u32), (1, 0), (1, 8), (1, 2)].into_iter().collect();
        let graph = CsrGraph::from_edge_list(&edges);
        let groups = EdgeGroups::build(WorkerGraph::Unified(&graph), &layout, 1);
        let peers = peer_indices(&groups);
        assert_eq!(peers, [0, 0]);
        let mut aggs = Aggregates::new();
        aggs.add("delta", 1.25);
        let report = StepReport {
            superstep: 4,
            counters: WorkerCounters::new(10),
            partial_aggregates: aggs.clone(),
            all_halted: false,
            compute_ns: 12345,
        };
        let payloads = [0.5f64, -0.0, 9.0, 0.25];
        let mut routed: Vec<Vec<(VertexId, u32)>> = vec![
            vec![(GROUP_BIT, 0), (3, 1)],
            vec![(4, 2)],
            vec![(GROUP_BIT | 1, 3)],
        ];
        // What each receiver delivers: one destination per edge.
        let sent: Vec<Vec<(VertexId, u32)>> = vec![
            vec![(6, 0), (0, 0), (3, 1)],
            vec![(4, 2)],
            vec![(8, 3), (2, 3)],
        ];
        let mut done = Vec::new();
        encode_step_done(&mut done, &report, 1, &mut routed, &payloads, &peers);
        assert!(routed[0].is_empty() && routed[2].is_empty());
        assert_eq!(routed[1], sent[1], "local messages stay home");

        let mut relay = Relay::new(3);
        let init_ok = encode_init_ok(1, 3, &groups);
        relay.collect_tables(&init_ok, 1).unwrap();
        assert!(
            relay.collect_tables(&init_ok, 0).is_err(),
            "another worker's tables"
        );
        let mut tables_steps = [Vec::new(), Vec::new(), Vec::new()];
        for dst in [0, 2] {
            relay.step_body(&mut tables_steps[dst], dst, 0, &Aggregates::new());
        }
        assert_eq!(relay.collect(&done, 1, 4).unwrap(), report);
        assert!(relay.collect(&done, 1, 5).is_err(), "a stale barrier frame");
        // Each message as `(destination, payload bits)`.
        let expand = |row: &[(VertexId, u32)], groups: &EdgeGroups, table: &[f64]| {
            let mut out: Vec<(VertexId, u64)> = Vec::new();
            for &(entry, h) in row {
                let bits = table[h as usize].to_bits();
                match group_of(entry) {
                    Some(g) => {
                        let vertices = layout.shard_vertices(groups.worker(g));
                        let slots = groups.slots(g).iter();
                        out.extend(slots.map(|&s| (vertices[s as usize], bits)));
                    }
                    None => out.push((entry, bits)),
                }
            }
            out
        };
        let mut step = Vec::new();
        for dst in [0, 2] {
            let tables_step = &tables_steps[dst];
            relay.step_body(&mut step, dst, 5, &aggs);
            let mut groups_at = vec![EdgeGroups::default(); 3];
            let mut rows = vec![Vec::new(); 3];
            let mut tables: Vec<Vec<f64>> = vec![Vec::new(); 3];
            let mut decode = |body: &[u8], me: usize, groups_at: &mut [EdgeGroups]| {
                decode_step(body, &layout, me, groups_at, &mut rows, &mut tables)
            };
            // Tables arrive at superstep 0 only, and only for their worker.
            assert!(decode(tables_step, 2 - dst, &mut groups_at).is_err());
            assert!(groups_at.iter().all(EdgeGroups::is_empty));
            assert_eq!(decode(tables_step, dst, &mut groups_at).unwrap().0, 0);
            assert_eq!(groups_at[1].len(), 1, "one group bound for {dst}");
            let (superstep, previous) = decode(&step, dst, &mut groups_at).unwrap();
            assert_eq!((superstep, previous), (5, aggs.clone()));
            let wired = tables[1].clone();
            assert_eq!(rows[1][0].0, GROUP_BIT, "the broadcast is one group entry");
            assert_eq!(
                expand(&rows[1], &groups_at[1], &wired),
                expand(&sent[dst], &EdgeGroups::default(), &payloads)
            );
            // The messages are for `dst`; nobody else may accept them.
            let other = 2 - dst;
            let mut rows = vec![Vec::new(); 3];
            let mut tables: Vec<Vec<f64>> = vec![Vec::new(); 3];
            let decoded = decode_step(
                &step,
                &layout,
                other,
                &mut groups_at,
                &mut rows,
                &mut tables,
            );
            assert!(decoded.is_err());
        }
        relay.step_body(&mut step, 0, 6, &aggs);
        assert_eq!(
            step.len(),
            8 + encode_to_vec(&aggs).len() + 4 + 4,
            "queues drained"
        );
    }
}
