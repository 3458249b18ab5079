//! The framed superstep protocol the driver and its workers speak.
//!
//! The topology is a star: the driver is the BSP master, every worker holds
//! one shard, and all traffic flows through the driver (workers never talk
//! to each other — peer batches are relayed by the master inside `Step` /
//! `StepDone` frames, which is also what pins delivery order). One episode:
//!
//! ```text
//!   driver                                   worker
//!     | -- Init(header, shard, ranks) ------->  |   decode, build state
//!     | <------------------------- InitOk ----  |
//!     | -- Step(s, aggs, inbound batches) --->  |   deliver, compute s
//!     | <-- StepDone(counters, aggs, halted,    |
//!     |              compute_ns, outbound) ---  |
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
//! After `Values`, the worker loops back to waiting for the next `Init`, so
//! a pooled worker serves many runs; `Shutdown` (or EOF on its pipe) ends
//! it.

use crate::error::WireError;
use crate::wire::{Reader, Wire, WireBatch};
pub use predict_algorithms::ProgramSpec;
use predict_bsp::{Aggregates, PartitionStrategy, WorkerCounters};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Version of the frame protocol, carried in every [`InitHeader`]; workers
/// refuse an `Init` from a driver speaking another version. Version 2
/// dropped the per-peer cut lists from the shard section of `Init`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Frame tags.
pub mod tag {
    /// Driver → worker: shard + program, starts an episode.
    pub const INIT: u8 = 0x01;
    /// Worker → driver: episode state is built.
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
/// a pooled worker learns its driver is gone.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a truncated frame.
    match r.read(&mut len_bytes[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_bytes[1..])?,
    }
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

/// Fault injected into a worker for robustness tests: die or hang at the
/// start of the given superstep's compute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Superstep at which the worker dies abruptly (process exit / closed
    /// channel), if any.
    #[serde(default)]
    pub crash_at: Option<usize>,
    /// Superstep at which the worker stops responding forever, if any.
    #[serde(default)]
    pub hang_at: Option<usize>,
}

impl FaultSpec {
    /// True when no fault is injected.
    pub fn is_none(&self) -> bool {
        self.crash_at.is_none() && self.hang_at.is_none()
    }
}

/// JSON header of the `Init` frame. The shard and (for TOP-K) the input
/// ranks follow in binary; see [`encode_init`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitHeader {
    /// Protocol version of the driver; workers reject mismatches.
    pub protocol_version: u32,
    /// Index of the worker this `Init` addresses.
    pub worker: usize,
    /// Workers in the cluster.
    pub num_workers: usize,
    /// Partition strategy; the worker rebuilds the (deterministic) shard
    /// layout from `(global_vertices, num_workers, strategy)` instead of
    /// shipping the layout.
    pub strategy: PartitionStrategy,
    /// Program to run.
    pub program: ProgramSpec,
    /// Injected fault, if any (tests only).
    #[serde(default)]
    pub fault: Option<FaultSpec>,
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

/// Body of a `Step` frame: previous superstep's merged aggregates plus the
/// inbound batches for this worker (from peers only; the worker's own local
/// messages never cross the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct StepBody<M> {
    /// Superstep to compute.
    pub superstep: u64,
    /// Aggregates merged by the master at the end of the previous superstep.
    pub previous_aggregates: Aggregates,
    /// Inbound batches, ascending source worker.
    pub batches: Vec<WireBatch<M>>,
}

impl<M: Wire> Wire for StepBody<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.superstep.encode(out);
        self.previous_aggregates.encode(out);
        self.batches.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            superstep: u64::decode(r)?,
            previous_aggregates: Aggregates::decode(r)?,
            batches: Vec::decode(r)?,
        })
    }
}

/// Body of a `StepDone` frame: everything the master needs from one worker
/// to run its merge, clock and halt logic — this frame doubles as the
/// barrier arrival and the halt vote.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDoneBody<M> {
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
    /// Outbound batches, ascending destination worker (self excluded).
    pub batches: Vec<WireBatch<M>>,
}

impl<M: Wire> Wire for StepDoneBody<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.superstep.encode(out);
        self.counters.encode(out);
        self.partial_aggregates.encode(out);
        self.all_halted.encode(out);
        self.compute_ns.encode(out);
        self.batches.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            superstep: u64::decode(r)?,
            counters: WorkerCounters::decode(r)?,
            partial_aggregates: Aggregates::decode(r)?,
            all_halted: bool::decode(r)?,
            compute_ns: u64::decode(r)?,
            batches: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_exact, encode_to_vec};

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
            worker: 1,
            num_workers: 2,
            strategy: PartitionStrategy::Modulo,
            program: ProgramSpec::TopK {
                params: predict_algorithms::TopKParams::default(),
            },
            fault: None,
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
        assert_eq!(s2.owned(), shards[1].owned());
        assert_eq!(r2, ranks);
    }

    /// Pins the `Init` body to the sections a worker reads — header, the four
    /// shard scalars, owned, offsets, targets, optional weights, ranks — so a
    /// derived structure cannot ride along unnoticed again.
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
        for (list, ranks) in [(weighted, vec![0.25f64; 3]), (unweighted, Vec::new())] {
            let g = CsrGraph::from_edge_list(&list);
            let header = InitHeader {
                protocol_version: PROTOCOL_VERSION,
                worker: 0,
                num_workers: 2,
                strategy: PartitionStrategy::Modulo,
                program: ProgramSpec::ConnectedComponents {},
                fault: None,
            };
            for shard in predict_graph::shard_csr(&g, 2, |v| v as usize % 2) {
                let json = serde_json::to_string(&header).unwrap();
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

    #[test]
    fn step_bodies_round_trip() {
        let mut aggs = Aggregates::new();
        aggs.add("delta", 1.25);
        let step = StepBody::<f64> {
            superstep: 4,
            previous_aggregates: aggs.clone(),
            batches: vec![WireBatch {
                superstep: 3,
                src: 1,
                dst: 0,
                seq: 3,
                runs: vec![(2, vec![0.5, 0.25])],
            }],
        };
        let back: StepBody<f64> = decode_exact(&encode_to_vec(&step)).unwrap();
        assert_eq!(back, step);

        let done = StepDoneBody::<f64> {
            superstep: 4,
            counters: WorkerCounters::new(10),
            partial_aggregates: aggs,
            all_halted: false,
            compute_ns: 12345,
            batches: vec![],
        };
        let back: StepDoneBody<f64> = decode_exact(&encode_to_vec(&done)).unwrap();
        assert_eq!(back, done);
    }
}
