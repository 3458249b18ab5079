//! Allocation gate for the BSP message plane: what a run allocates must
//! follow the vertices that send and receive, never the messages between
//! them.
//!
//! * **PageRank** folds `f64` shares into one slot per vertex and its
//!   aggregates into one slot per name per worker, so once the two sets of
//!   payload tables and routed buffers the executor swaps have grown to the
//!   run's volume (supersteps 0 and 1), a superstep allocates at most 7
//!   times, the same for a degree-8 and a degree-32 graph: the superstep's
//!   profile record (the master's merged aggregates — two names and a tree
//!   node — its counter vector and per-worker times), now and then growth
//!   of the run's list of those records, and the executor's list of shard
//!   and inbound-row pairs it fans delivery out over. No worker allocates.
//!   A routed buffer holds one entry per point send and one per destination
//!   worker of a broadcast, never one per edge: the edge groups a broadcast
//!   expands through are built once per run, before superstep 0.
//! * **Top-k** stores one list per sending vertex and folds arrivals into
//!   one list per receiving vertex: each superstep allocates one list per
//!   sender plus one or two per receiver (the first arrival's clone, grown
//!   to `k` at most once) plus bookkeeping, and the run's total grows from
//!   the sparse to the dense graph as its sending and receiving
//!   vertex-supersteps do, not as its three-times-larger message count.
//!
//! Counts are read from a counting global allocator shared by every thread
//! of the test binary — hence one test function, and sequential execution —
//! and must repeat exactly.

use predict_algorithms::topk::UPDATED_VERTICES_AGGREGATOR;
use predict_algorithms::{PageRank, PageRankParams, TopKParams, TopKRanking};
use predict_bsp::{
    Aggregates, BspConfig, BspEngine, ComputeContext, ExecutionMode, InitContext, MessageCombiner,
    RunProfile, VertexProgram,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::{CsrGraph, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Allocator calls that hand out memory (`alloc`, `realloc`) so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// `fetch_add` on a static, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `inner`, with the allocation count noted each time the master finishes a
/// superstep — the one per-superstep call a program gets on the master.
struct Marked<P> {
    inner: P,
    marks: Mutex<Vec<u64>>,
}

impl<P: VertexProgram> VertexProgram for Marked<P> {
    type VertexValue = P::VertexValue;
    type Message = P::Message;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init_vertex(&self, vertex: VertexId, ctx: &InitContext<'_>) -> P::VertexValue {
        self.inner.init_vertex(vertex, ctx)
    }
    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, P::VertexValue, P::Message>,
        messages: &[P::Message],
    ) {
        self.inner.compute(ctx, messages);
    }
    fn message_size_bytes(&self, msg: &P::Message) -> u64 {
        self.inner.message_size_bytes(msg)
    }
    fn combiner(&self) -> Option<impl MessageCombiner<P::Message>> {
        self.inner.combiner()
    }
    fn master_halt(&self, superstep: usize, aggregates: &Aggregates) -> bool {
        let mut marks = self.marks.lock().expect("marks lock");
        assert!(marks.len() < marks.capacity(), "marking must not allocate");
        marks.push(ALLOCATIONS.load(Ordering::Relaxed));
        self.inner.master_halt(superstep, aggregates)
    }
}

/// One sequential run over 4 workers under the counting allocator.
struct Counted {
    /// Allocations of every superstep after superstep 0 (mark to mark).
    per_superstep: Vec<u64>,
    /// Allocations of the whole run, initialization and result included.
    total: u64,
    profile: RunProfile,
}

fn counted_run<P: VertexProgram>(program: P, graph: &CsrGraph, max_supersteps: usize) -> Counted {
    let engine = BspEngine::new(
        BspConfig::with_workers(4)
            .with_max_supersteps(max_supersteps)
            .with_execution(ExecutionMode::Sequential),
    );
    let marked = Marked {
        inner: program,
        marks: Mutex::new(Vec::with_capacity(max_supersteps)),
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let profile = engine.run(graph, &marked).profile;
    let total = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let marks = marked.marks.into_inner().expect("marks lock");
    Counted {
        per_superstep: marks.windows(2).map(|w| w[1] - w[0]).collect(),
        total,
        profile,
    }
}

fn total_messages(profile: &RunProfile) -> u64 {
    let totals = profile.per_superstep_totals();
    totals.iter().map(|t| t.total_messages()).sum()
}

#[test]
fn allocations_follow_sending_vertices_not_messages() {
    // Pinned inputs: 1024 vertices at average degree 8 and 32.
    let sparse = generate_rmat(&RmatConfig::new(10, 8).with_seed(7));
    let dense = generate_rmat(&RmatConfig::new(10, 32).with_seed(7));
    let n = sparse.num_vertices();
    assert_eq!(dense.num_vertices(), n);

    // PageRank, 12 supersteps on both graphs (a zero tolerance never halts).
    let pagerank = PageRank::new(PageRankParams::new(0.85, 0.0));
    let pr_sparse = counted_run(pagerank, &sparse, 12);
    let pr_dense = counted_run(pagerank, &dense, 12);
    assert!(total_messages(&pr_dense.profile) > 3 * total_messages(&pr_sparse.profile));
    // Supersteps 0 and 1 grow the two sets of routed buffers; from
    // superstep 2 on nothing follows the graph any more.
    let (steady_sparse, steady_dense) =
        (&pr_sparse.per_superstep[1..], &pr_dense.per_superstep[1..]);
    assert_eq!(steady_sparse.len(), 10);
    assert_eq!(
        steady_sparse, steady_dense,
        "the same at a third of the messages"
    );
    assert!(
        steady_dense.iter().all(|&allocations| allocations <= 7),
        "per-superstep bookkeeping only, nothing per vertex or message: {steady_dense:?}"
    );

    // Top-k over pinned ranks, run to its fixed point.
    let ranks: Vec<f64> = (0..n)
        .map(|v| ((v * 2_654_435_761) % 1009) as f64)
        .collect();
    let topk = |graph: &CsrGraph| {
        let program = TopKRanking::new(TopKParams::new(5, 0.0), ranks.clone());
        let run = counted_run(program, graph, 64);
        let steps = &run.profile.supersteps;
        // A vertex sends when it updated (every vertex in superstep 0), and
        // — every vertex halting every superstep — it is active in
        // superstep s + 1 exactly when superstep s delivered to it.
        let sends: Vec<u64> = steps
            .iter()
            .map(|s| s.aggregates.get_or(UPDATED_VERTICES_AGGREGATOR, 0.0) as u64)
            .collect();
        let receives: Vec<u64> = steps
            .iter()
            .skip(1)
            .map(|s| s.workers.iter().map(|w| w.active_vertices).sum())
            .chain([0])
            .collect();
        // Mark to mark, superstep s ≥ 1 computes (its senders clone their
        // list), delivers (each receiver clones its first arrival, and
        // grows it to k at most once) and runs the master.
        for (s, &allocations) in (1..).zip(&run.per_superstep) {
            let (sent, received) = (sends[s], receives[s]);
            assert!(
                sent + received <= allocations && allocations <= sent + 2 * received + 32,
                "superstep {s}: {allocations} allocations for {sent} sends and {received} receives"
            );
        }
        let events = n as u64 + sends[1..].iter().sum::<u64>() + receives.iter().sum::<u64>();
        (run.total, events, total_messages(&run.profile))
    };
    let (alloc_sparse, events_sparse, messages_sparse) = topk(&sparse);
    let (alloc_dense, events_dense, messages_dense) = topk(&dense);
    for (allocations, events) in [(alloc_sparse, events_sparse), (alloc_dense, events_dense)] {
        assert!(
            allocations <= 2 * events,
            "{allocations} allocations for {events} sending and receiving vertex-supersteps"
        );
    }
    let ratio = |dense: u64, sparse: u64| dense as f64 / sparse as f64;
    let (by_allocations, by_events, by_messages) = (
        ratio(alloc_dense, alloc_sparse),
        ratio(events_dense, events_sparse),
        ratio(messages_dense, messages_sparse),
    );
    assert!(
        by_messages > 3.0,
        "the dense graph sends {by_messages}x the messages"
    );
    assert!(
        (by_allocations / by_events - 1.0).abs() < 0.1 && by_allocations < by_messages / 2.0,
        "allocations grew {by_allocations}x: vertex-supersteps {by_events}x, messages \
         {by_messages}x"
    );

    // Counts repeat exactly.
    assert_eq!(
        counted_run(pagerank, &dense, 12).per_superstep,
        pr_dense.per_superstep
    );
    assert_eq!(counted_run(pagerank, &dense, 12).total, pr_dense.total);
    assert_eq!(topk(&dense), (alloc_dense, events_dense, messages_dense));
    assert_eq!(
        topk(&sparse),
        (alloc_sparse, events_sparse, messages_sparse)
    );
}
