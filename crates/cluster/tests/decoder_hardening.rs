//! Decoder hardening for the episode bodies: no byte string makes the
//! worker's `Step` decoder (`protocol::decode_step`) or the driver's
//! `InitOk` and `StepDone` relay (`Relay::collect_tables`,
//! `Relay::collect`) panic, and none makes either allocate beyond a fixed
//! multiple of the bytes actually present — a table, section or group count
//! or a body length that claims more bytes than exist is a `WireError`
//! before anything is reserved for it.
//!
//! The bodies are real: captured from pinned PageRank and top-k drives by a
//! recording endpoint between each worker's serve loop and its socket —
//! an `InitOk` with its edge-group tables, superstep 0's `Step` that relays
//! its peers' tables, and a later `Step` and `StepDone` whose sections hold
//! group entries. The `Step` decoder under test is the one a worker runs: it
//! keeps each table as its source's groups and builds per-source payload
//! tables and rows of entries into them. Named cases pin the checks a
//! mutation may or may not reach: a group index past its table, a slot past
//! the shard, a table for a non-peer and two tables from one source.
//!
//! One test function on purpose: the allocation high-water mark is read
//! from a counting global allocator, which every thread of the test binary
//! shares.

mod recording;

use predict_algorithms::{PageRank, PageRankParams, TopKParams, TopKRanking};
use predict_bsp::runtime::{EdgeGroups, ShardLayout, GROUP_BIT};
use predict_bsp::{Aggregates, BspConfig, VertexProgram};
use predict_cluster::protocol::{decode_step, tag, Relay};
use predict_cluster::wire::Reader;
use predict_cluster::{encode_to_vec, ProgramSpec, TransportKind, Wire, WireError};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::{CsrGraph, VertexId};
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

const WORKERS: usize = 3;

/// Worker 0's bodies of one recorded drive.
struct Captured {
    /// Its `InitOk`: its tables for workers 1 and 2.
    init_ok: Vec<u8>,
    /// Superstep 0's `Step`: the tables of workers 1 and 2 for it.
    tables_step: Vec<u8>,
    /// Superstep 1's `Step`: sections from workers 1 and 2.
    step: Vec<u8>,
    /// Superstep 1's `StepDone`: sections for workers 1 and 2.
    done: Vec<u8>,
}

/// Drives `program` on `WORKERS` recording serve loops and returns worker
/// 0's bodies.
fn capture<P>(program: &P, spec: &ProgramSpec, ranks: &[f64], graph: &CsrGraph) -> Captured
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let config = BspConfig::with_workers(WORKERS);
    let logs = recording::record(TransportKind::Socket, program, spec, ranks, graph, &config);
    let body = |sent: bool, want: u8, nth: usize| {
        let frames = logs[0]
            .iter()
            .filter(|(s, (t, _))| *s == sent && *t == want);
        let body = frames.map(|(_, (_, body))| body.clone()).nth(nth);
        body.unwrap_or_else(|| panic!("frame {want:#04x} number {nth}"))
    };
    Captured {
        init_ok: body(true, tag::INIT_OK, 0),
        tables_step: body(false, tag::STEP, 0),
        step: body(false, tag::STEP, 1),
        done: body(true, tag::STEP_DONE, 1),
    }
}

/// Runs `decode` with the allocation high-water mark reset and checks the
/// mark against the bytes present: a row of entries holds 8 bytes per
/// 4-byte destination, a payload table one decoded message per group of at
/// least 12 bytes, a decoded top-k entry takes 16 bytes per 12 on the wire
/// and a kept table at most 12 bytes per 4-byte slot or group end, so 16x
/// the body, plus slack for small bookkeeping vectors, bounds every honest
/// or corrupt decode.
fn bounded<T>(bytes: usize, decode: impl FnOnce() -> T) -> T {
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let result = decode();
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    assert!(
        largest <= 16 * bytes + 64 * 1024,
        "decoding {bytes} body bytes allocated {largest} bytes at once"
    );
    result
}

fn u32_at(body: &[u8], at: usize) -> usize {
    u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes")) as usize
}

fn put_u32(body: &mut [u8], at: usize, value: u32) {
    body[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Offsets in a body whose tables and sections follow a head.
#[derive(Default)]
struct Fields {
    /// Every length field: the table and section counts, each table's and
    /// section's body length, each table's group count and each group's
    /// destination count.
    lengths: Vec<usize>,
    /// Each table's start.
    tables: Vec<usize>,
    /// Each table's first slot, if it has one.
    slots: Vec<usize>,
    /// Each group entry of a section, and the section's source.
    group_entries: Vec<(usize, usize)>,
}

/// Walks `body` from `at`: a table count and its tables when `tables`, then
/// a section count and its sections when `sections`.
fn fields<M: Wire>(body: &[u8], mut at: usize, tables: bool, sections: bool) -> Fields {
    let mut f = Fields::default();
    if tables {
        f.lengths.push(at);
        let count = u32_at(body, at);
        at += 4;
        for _ in 0..count {
            // version, src, dst, body length, then the group count.
            f.tables.push(at);
            f.lengths.extend([at + 10, at + 14]);
            let groups = u32_at(body, at + 14);
            if u32_at(body, at + 10) > 4 + 4 * groups {
                f.slots.push(at + 18 + 4 * groups);
            }
            at += 14 + u32_at(body, at + 10);
        }
    }
    if sections {
        f.lengths.push(at);
        let count = u32_at(body, at);
        at += 4;
        for _ in 0..count {
            f.lengths.push(at + 26);
            let src = u32_at(body, at + 10);
            let end = at + 30 + u32_at(body, at + 26);
            at += 30;
            while at < end {
                let mut r = Reader::new(&body[at..end]);
                M::decode(&mut r).expect("a captured message decodes");
                at = end - r.remaining();
                f.lengths.push(at);
                let entries = (0..u32_at(body, at)).map(|i| at + 4 + 4 * i);
                let groups = entries.filter(|&e| u32_at(body, e) as u32 & GROUP_BIT != 0);
                f.group_entries.extend(groups.map(|e| (e, src)));
                at += 4 + 4 * u32_at(body, at);
            }
        }
    }
    assert_eq!(at, body.len());
    f
}

/// Every single-byte mutation, every truncation and every inflated length
/// field of `body`: an error or a value, never a panic or an allocation out
/// of proportion; truncations and inflations are always errors.
fn hammer(body: &[u8], fields: &[usize], decode: impl Fn(&[u8]) -> Result<(), WireError>) {
    assert_eq!(bounded(body.len(), || decode(body)), Ok(()));
    for mask in [0x01u8, 0x10, 0x80, 0xFF] {
        for i in 0..body.len() {
            let mut corrupt = body.to_vec();
            corrupt[i] ^= mask;
            let _ = bounded(body.len(), || decode(&corrupt));
        }
    }
    for len in 0..body.len() {
        assert!(
            bounded(len, || decode(&body[..len])).is_err(),
            "cut to {len}"
        );
    }
    assert!(!fields.is_empty());
    for &at in fields {
        for claimed in [body.len() as u32 + 1, 1 << 24, u32::MAX] {
            let mut corrupt = body.to_vec();
            corrupt[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
            let result = bounded(body.len(), || decode(&corrupt));
            assert!(
                result.is_err(),
                "length field at {at} inflated to {claimed}"
            );
        }
    }
}

/// `body` with `edit` applied to a copy.
fn edited(body: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut copy = body.to_vec();
    edit(&mut copy);
    copy
}

/// The error `result` holds, which must be an invalid-payload error naming
/// `what`.
fn invalid<T: std::fmt::Debug>(result: Result<T, WireError>, what: &str) {
    match result {
        Err(WireError::Invalid(detail)) => assert!(detail.contains(what), "{detail}"),
        other => panic!("expected an invalid payload naming {what:?}, got {other:?}"),
    }
}

/// Hammers worker 0's captured bodies of one drive:
/// - its `InitOk`, relayed into superstep 0's `Step` of each peer and
///   decoded there, and its superstep-0 `Step`, decoded as worker 0 — the
///   relay checks only framing, so a corrupt table must be caught by its
///   receiver;
/// - its superstep-1 `Step`, decoded as worker 0 holding its peers' tables,
///   and its `StepDone`, relayed as worker 0's superstep-1 reply and decoded
///   by each peer holding worker 0's tables — a corrupt message, group count
///   or group entry must be caught by its receiver.
///
/// Then checks the named cases against the same bodies.
fn hammer_bodies<M: Wire>(captured: &Captured, layout: &ShardLayout) {
    let Captured {
        init_ok,
        tables_step,
        step,
        done,
    } = captured;
    let decode_as = |body: &[u8], me: usize, groups: &mut [EdgeGroups]| {
        let mut rows: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); WORKERS];
        let mut tables: Vec<Vec<M>> = (0..WORKERS).map(|_| Vec::new()).collect();
        decode_step(body, layout, me, groups, &mut rows, &mut tables)
            .map(|(_, aggregates)| aggregates)
    };
    let fresh = || vec![EdgeGroups::default(); WORKERS];

    // Tables: worker 0's, as its peers receive them, and its peers', as it
    // receives them.
    let peers_of_0 = |init_ok: &[u8]| -> Result<Vec<Vec<EdgeGroups>>, WireError> {
        let mut relay = Relay::new(WORKERS);
        relay.collect_tables(init_ok, 0)?;
        let mut step = Vec::new();
        let mut held = Vec::new();
        for dst in 0..WORKERS {
            relay.step_body(&mut step, dst, 0, &Aggregates::new());
            let mut groups = fresh();
            decode_as(&step, dst, &mut groups)?;
            held.push(groups);
        }
        Ok(held)
    };
    let held_by_peers = peers_of_0(init_ok).expect("the captured init-ok relays");
    assert!(!held_by_peers[1][0].is_empty(), "worker 0 has groups for 1");
    let init_fields = fields::<M>(init_ok, 0, true, false);
    hammer(init_ok, &init_fields.lengths, |body| {
        peers_of_0(body).map(|_| ())
    });
    let mut held_by_0 = fresh();
    decode_as(tables_step, 0, &mut held_by_0).expect("the captured tables step decodes");
    let head = 8 + encode_to_vec(&Aggregates::new()).len();
    let tables_fields = fields::<M>(tables_step, head, true, true);
    assert_eq!(tables_fields.tables.len(), WORKERS - 1);
    hammer(tables_step, &tables_fields.lengths, |body| {
        decode_as(body, 0, &mut fresh()).map(|_| ())
    });

    // Sections, with the tables in place.
    let aggregates = decode_as(step, 0, &mut held_by_0.clone()).expect("the captured step decodes");
    let head = 8 + encode_to_vec(&aggregates).len();
    assert_eq!(u32_at(step, head), 0, "superstep 1 relays no table");
    let step_fields = fields::<M>(step, head, true, true);
    assert!(
        u32_at(step, head + 4) > 0,
        "the captured step carries sections"
    );
    assert!(!step_fields.group_entries.is_empty(), "and group entries");
    hammer(step, &step_fields.lengths, |body| {
        decode_as(body, 0, &mut held_by_0.clone()).map(|_| ())
    });

    let relay_and_deliver = |body: &[u8]| {
        let mut relay = Relay::new(WORKERS);
        relay.collect(body, 0, 1)?;
        let mut step = Vec::new();
        for (dst, held) in held_by_peers.iter().enumerate().skip(1) {
            relay.step_body(&mut step, dst, 2, &aggregates);
            decode_as(&step, dst, &mut held.clone())?;
        }
        Ok(())
    };
    let report = Relay::new(WORKERS)
        .collect(done, 0, 1)
        .expect("the step-done relays");
    let head = encode_to_vec(&report).len();
    assert!(
        u32_at(done, head) > 0,
        "the captured step-done carries sections"
    );
    let done_fields = fields::<M>(done, head, false, true);
    assert!(!done_fields.group_entries.is_empty());
    hammer(done, &done_fields.lengths, relay_and_deliver);

    // A group index at or past the length of its source's table.
    let (at, src) = step_fields.group_entries[0];
    let len = held_by_0[src].len() as u32;
    let with_index = |index: u32| edited(step, |b| put_u32(b, at, GROUP_BIT | index));
    let decode = |body: &[u8]| decode_as(body, 0, &mut held_by_0.clone());
    assert!(decode(&with_index(len - 1)).is_ok(), "the last group");
    invalid(decode(&with_index(len)), "table");
    invalid(decode(&with_index(!GROUP_BIT)), "table");

    // A slot at or past the size of the receiver's shard.
    let shard_len = layout.shard_vertices(0).len() as u32;
    let at = tables_fields.slots[0];
    let with_slot = |slot: u32| edited(tables_step, |b| put_u32(b, at, slot));
    let decode = |body: &[u8]| decode_as(body, 0, &mut fresh());
    assert!(decode(&with_slot(shard_len - 1)).is_ok(), "the last slot");
    invalid(decode(&with_slot(shard_len)), "slot");
    invalid(decode(&with_slot(u32::MAX)), "slot");

    // A table addressed to a non-peer: its own source, a worker past the
    // group, or (at a receiver) another worker.
    let at = init_fields.tables[0] + 6;
    for dst in [0, WORKERS as u32] {
        invalid(
            peers_of_0(&edited(init_ok, |b| put_u32(b, at, dst))),
            "table",
        );
    }
    let at = tables_fields.tables[0] + 6;
    let elsewhere = edited(tables_step, |b| put_u32(b, at, 2));
    invalid(decode_as(&elsewhere, 0, &mut fresh()), "table");

    // Two tables from one source, in one body or across two steps.
    let [first, second] = [tables_fields.tables[0], tables_fields.tables[1]];
    let twice = edited(tables_step, |b| {
        let table = b[first..second].to_vec();
        b.splice(second..second, table);
        put_u32(b, first - 4, WORKERS as u32);
    });
    invalid(decode_as(&twice, 0, &mut fresh()), "table");
    let late = edited(tables_step, |b| b[..8].copy_from_slice(&1u64.to_le_bytes()));
    invalid(decode_as(&late, 0, &mut held_by_0.clone()), "table");
    let init_twice = edited(init_ok, |b| {
        let second = init_fields.tables[1];
        let table = b[second..].to_vec();
        b.extend_from_slice(&table);
        put_u32(b, 0, WORKERS as u32);
    });
    invalid(peers_of_0(&init_twice), "table");
}

#[test]
fn step_bodies_error_without_panic_or_overallocation() {
    let graph = generate_rmat(&RmatConfig::new(6, 4).with_seed(5));
    let n = graph.num_vertices();
    let layout = ShardLayout::build(n, WORKERS, BspConfig::default().partition_strategy);

    let params = PageRankParams::with_epsilon(0.01, n);
    let spec = ProgramSpec::PageRank { params };
    let captured = capture(&PageRank::new(params), &spec, &[], &graph);
    hammer_bodies::<f64>(&captured, &layout);

    let ranks: Vec<f64> = (0..n).map(|v| (v * 37 % 11) as f64 / 11.0).collect();
    let params = TopKParams::new(3, 0.0);
    let program = TopKRanking::new(params, ranks.clone());
    let captured = capture(&program, &ProgramSpec::TopK { params }, &ranks, &graph);
    hammer_bodies::<<TopKRanking as VertexProgram>::Message>(&captured, &layout);
}
