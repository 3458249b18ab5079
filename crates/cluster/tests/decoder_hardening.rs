//! Decoder hardening for the superstep bodies: no byte string makes the
//! worker's `Step` decoder (`protocol::decode_step`) or the driver's
//! `StepDone` relay (`Relay::collect`) panic, and none makes either allocate
//! beyond a fixed multiple of the bytes actually present — a section count,
//! section length or group count that claims more bytes than exist is a
//! `WireError` before anything is reserved for it.
//!
//! The bodies are real: captured from pinned PageRank and top-k drives by a
//! recording endpoint between each worker's serve loop and its socket. The
//! `Step` decoder under test is the one a worker runs: it builds per-source
//! payload tables and rows of handles into them.
//!
//! One test function on purpose: the allocation high-water mark is read
//! from a counting global allocator, which every thread of the test binary
//! shares.

mod recording;

use predict_algorithms::{PageRank, PageRankParams, TopKParams, TopKRanking};
use predict_bsp::runtime::ShardLayout;
use predict_bsp::{BspConfig, VertexProgram};
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

/// Drives `program` on `WORKERS` recording serve loops and returns worker
/// 0's superstep-1 `Step` body and superstep-1 `StepDone` body.
fn capture<P>(program: &P, spec: &ProgramSpec, ranks: &[f64], graph: &CsrGraph) -> [Vec<u8>; 2]
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let config = BspConfig::with_workers(WORKERS);
    let logs = recording::record(TransportKind::Socket, program, spec, ranks, graph, &config);
    let body = |sent: bool, want: u8| {
        let frames = logs[0]
            .iter()
            .filter(|(s, (t, _))| *s == sent && *t == want);
        frames.map(|(_, (_, body))| body.clone()).nth(1)
    };
    let step = body(false, tag::STEP).expect("a superstep-1 step");
    let done = body(true, tag::STEP_DONE).expect("a superstep-1 step-done");
    [step, done]
}

/// Runs `decode` with the allocation high-water mark reset and checks the
/// mark against the bytes present: a row of handles holds 8 bytes per
/// 4-byte destination, a payload table one decoded message per group of at
/// least 12 bytes, and a decoded top-k entry takes 16 bytes per 12 on the
/// wire, so 16x the body, plus slack for small bookkeeping vectors, bounds
/// every honest or corrupt decode.
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

/// Offsets of every length field of `body` whose sections start after a
/// `head`-byte head: the section count, each section's body length and each
/// group's destination count.
fn length_fields<M: Wire>(body: &[u8], head: usize) -> Vec<usize> {
    let mut fields = vec![head];
    let mut pos = head + 4;
    for _ in 0..u32_at(body, head) {
        fields.push(pos + 26);
        let end = pos + 30 + u32_at(body, pos + 26);
        let mut at = pos + 30;
        while at < end {
            let mut r = Reader::new(&body[at..end]);
            M::decode(&mut r).expect("a captured message decodes");
            at = end - r.remaining();
            fields.push(at);
            at += 4 + 4 * u32_at(body, at);
        }
        pos = end;
    }
    assert_eq!(pos, body.len());
    fields
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

/// Hammers worker 0's captured `Step`, decoded as worker 0 of `layout`, and
/// its captured `StepDone`, relayed as worker 0's superstep-1 reply and then
/// decoded by each peer it addresses — the relay checks only framing, so a
/// corrupt message or group count must be caught by its receiver.
fn hammer_bodies<M: Wire>(bodies: &[Vec<u8>; 2], layout: &ShardLayout) {
    let [step, done] = bodies;
    let decode_as = |body: &[u8], me: usize| {
        let mut rows: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); WORKERS];
        let mut tables: Vec<Vec<M>> = (0..WORKERS).map(|_| Vec::new()).collect();
        decode_step(body, layout, me, &mut rows, &mut tables).map(|(_, aggregates)| aggregates)
    };
    let aggregates = decode_as(step, 0).expect("the captured step decodes");
    let head = 8 + encode_to_vec(&aggregates).len();
    assert!(u32_at(step, head) > 0, "the captured step carries sections");
    hammer(step, &length_fields::<M>(step, head), |body| {
        decode_as(body, 0).map(|_| ())
    });

    let relay_and_deliver = |body: &[u8]| {
        let mut relay = Relay::new(WORKERS);
        relay.collect(body, 0, 1)?;
        let mut step = Vec::new();
        for dst in 1..WORKERS {
            relay.step_body(&mut step, dst, 2, &aggregates);
            decode_as(&step, dst)?;
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
    hammer(done, &length_fields::<M>(done, head), relay_and_deliver);
}

#[test]
fn step_bodies_error_without_panic_or_overallocation() {
    let graph = generate_rmat(&RmatConfig::new(6, 4).with_seed(5));
    let n = graph.num_vertices();
    let layout = ShardLayout::build(n, WORKERS, BspConfig::default().partition_strategy);

    let params = PageRankParams::with_epsilon(0.01, n);
    let spec = ProgramSpec::PageRank { params };
    let bodies = capture(&PageRank::new(params), &spec, &[], &graph);
    hammer_bodies::<f64>(&bodies, &layout);

    let ranks: Vec<f64> = (0..n).map(|v| (v * 37 % 11) as f64 / 11.0).collect();
    let params = TopKParams::new(3, 0.0);
    let program = TopKRanking::new(params, ranks.clone());
    let bodies = capture(&program, &ProgramSpec::TopK { params }, &ranks, &graph);
    hammer_bodies::<<TopKRanking as VertexProgram>::Message>(&bodies, &layout);
}
