//! The oracle: a sequential reference BSP interpreter, shared by every suite
//! that checks an executor against it — the in-memory runtime
//! (`crates/bsp/tests/oracle.rs`) and the cluster transport
//! (`crates/cluster/tests/oracle_transport.rs`, which includes this file by
//! path).
//!
//! [`reference_run`] is Pregel as section 2.2 of the paper describes it,
//! written down once with none of the runtime's machinery: one loop over the
//! vertices, one message list per vertex holding every message in delivery
//! order, **no combiner**, no shards, no buffers, no threads, no wire; a
//! payload handle a vertex sends is expanded back into a message of its own
//! per destination. An executor — folding at delivery by reference for the
//! programs that declare a combiner, storing each payload once and routing
//! handles, routing as it computes, fanning phases out over a pool,
//! relaying batch sections between worker processes — must produce the same
//! vertex values and the same [`RunProfile`] bit for bit.
//!
//! What the oracle and an executor share on purpose: the program under test
//! and the simulated clock ([`ClusterClock`]) — inputs of a run, not the
//! execution being checked. The vertex-to-worker rule is written out again
//! here ([`worker_of`]) rather than read from the runtime's `ShardLayout`.

use predict_algorithms::{
    NeighborhoodParams, PageRankParams, ProgramSpec, SemiClusteringParams, TopKParams,
};
use predict_bsp::{
    Aggregates, BspConfig, ClusterClock, ComputeContext, HaltReason, InitContext,
    PartitionStrategy, RunProfile, SuperstepProfile, VertexProgram, WorkerCounters,
};
use predict_graph::{CsrGraph, EdgeList, VertexId};
use proptest::prelude::*;
use std::fmt::Debug;

/// Values, profile and halt reason of one run.
pub type Run<V> = (Vec<V>, RunProfile, HaltReason);

/// The worker that owns vertex `v` of an `n`-vertex graph, per strategy.
fn worker_of(v: usize, n: usize, workers: usize, strategy: PartitionStrategy) -> usize {
    match strategy {
        PartitionStrategy::Hash => {
            let hash = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            (hash % workers as u64) as usize
        }
        PartitionStrategy::Range => v * workers / n.max(1),
        PartitionStrategy::Modulo => v % workers,
    }
}

/// Runs `program` on `graph` the slow, obvious way.
pub fn reference_run<P: VertexProgram>(
    program: &P,
    graph: &CsrGraph,
    config: &BspConfig,
) -> Run<P::VertexValue> {
    let (n, workers) = (graph.num_vertices(), config.workers());
    let owner = |v: VertexId| worker_of(v as usize, n, workers, config.partition_strategy);
    let mut owned = vec![0u64; workers];
    graph.vertices().for_each(|v| owned[owner(v)] += 1);
    let mut clock = ClusterClock::new(config.cost.clone());
    let setup_ms = clock.setup_time_ms();
    let read_ms = clock.read_time_ms(graph.num_edges(), workers);

    let mut values: Vec<P::VertexValue> = graph
        .vertices()
        .map(|v| program.init_vertex(v, &InitContext::for_vertex(graph, v)))
        .collect();
    let mut halted = vec![false; n];
    let mut inboxes: Vec<Vec<P::Message>> = vec![Vec::new(); n];
    let mut supersteps: Vec<SuperstepProfile> = Vec::new();
    let mut halt_reason = HaltReason::MaxSupersteps;

    for superstep in 0..config.max_supersteps {
        let previous = supersteps
            .last()
            .map_or_else(Aggregates::new, |s| s.aggregates.clone());
        let mut counters: Vec<WorkerCounters> =
            owned.iter().map(|&o| WorkerCounters::new(o)).collect();
        let mut partials = vec![Aggregates::new(); workers];
        // What each worker's vertices sent, in production order.
        let mut sent: Vec<Vec<(VertexId, P::Message)>> = vec![Vec::new(); workers];

        // Ascending vertex id is ascending vertex id within every worker.
        for v in graph.vertices() {
            let (w, i) = (owner(v), v as usize);
            let incoming = std::mem::take(&mut inboxes[i]);
            if halted[i] && incoming.is_empty() {
                continue;
            }
            counters[w].active_vertices += 1;
            let (mut payloads, mut outbox) = (Vec::new(), Vec::new());
            let mut vote = false;
            let mut ctx = ComputeContext {
                vertex: v,
                superstep,
                value: &mut values[i],
                out_neighbors: graph.out_neighbors(v),
                out_weights: graph.out_weights(v),
                num_vertices: n,
                num_edges: graph.num_edges(),
                previous_aggregates: &previous,
                payloads: &mut payloads,
                outbox: &mut outbox,
                partial_aggregates: &mut partials[w],
                halted: &mut vote,
            };
            program.compute(&mut ctx, &incoming);
            halted[i] = vote;
            // Every handle expands back into a message of its own.
            for (dst, handle) in outbox {
                let message: P::Message = payloads[handle as usize].clone();
                let bytes = program.message_size_bytes(&message);
                counters[w].record_message(bytes, owner(dst) == w);
                sent[w].push((dst, message));
            }
        }

        // Delivery order: source worker ascending, then production order.
        for (dst, message) in sent.into_iter().flatten() {
            inboxes[dst as usize].push(message);
        }

        // The master: merge in ascending worker order, time, decide.
        let mut aggregates = Aggregates::new();
        partials.iter().for_each(|p| aggregates.merge(p));
        let in_flight: u64 = counters.iter().map(WorkerCounters::total_messages).sum();
        let (wall_time_ms, worker_times_ms) = clock.superstep_time_ms(&counters);
        let halt = if program.master_halt(superstep, &aggregates) {
            Some(HaltReason::MasterConverged)
        } else if in_flight == 0 && halted.iter().all(|&h| h) {
            Some(HaltReason::AllVerticesHalted)
        } else {
            None
        };
        supersteps.push(SuperstepProfile {
            superstep,
            workers: counters,
            worker_times_ms,
            wall_time_ms,
            aggregates,
        });
        if let Some(reason) = halt {
            halt_reason = reason;
            break;
        }
    }

    let profile = RunProfile {
        algorithm: program.name().to_string(),
        num_vertices: n,
        num_edges: graph.num_edges(),
        num_workers: workers,
        setup_ms,
        read_ms,
        write_ms: clock.write_time_ms(n, workers),
        supersteps,
        measured: None,
    };
    (values, profile, halt_reason)
}

/// Asserts `run` equals `reference` bit for bit. `Debug` text is compared
/// beside `==` because it tells `-0.0` from `0.0`.
pub fn assert_same_run<V: Debug + PartialEq>(
    run: &Run<V>,
    reference: &Run<V>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&run.0, &reference.0);
    prop_assert_eq!(format!("{:?}", run.0), format!("{:?}", reference.0));
    prop_assert_eq!(&run.1, &reference.1);
    prop_assert_eq!(format!("{:?}", run.1), format!("{:?}", reference.1));
    prop_assert_eq!(run.2, reference.2);
    Ok(())
}

/// Number of programs [`program_case`] covers.
pub const PROGRAMS: usize = 6;

/// Program `algorithm` of PR, CC, SSSP, TopK, SEMI, NH on `graph`, as the
/// spec a cluster worker builds it from, with its input ranks (TopK only).
pub fn program_case(algorithm: usize, graph: &CsrGraph) -> (ProgramSpec, Vec<f64>) {
    let n = graph.num_vertices();
    match algorithm {
        0 => {
            let params = PageRankParams::with_epsilon(0.01, n);
            (ProgramSpec::PageRank { params }, Vec::new())
        }
        1 => (ProgramSpec::ConnectedComponents {}, Vec::new()),
        2 => {
            let source = graph.vertices().next().unwrap_or(0);
            (ProgramSpec::ShortestPaths { source }, Vec::new())
        }
        3 => {
            // Few distinct ranks, so ties reach the vertex-id tie-break.
            let ranks = (0..n).map(|v| (v * 37 % 11) as f64 / 11.0).collect();
            let params = TopKParams::new(3, 0.0);
            (ProgramSpec::TopK { params }, ranks)
        }
        4 => {
            let params = SemiClusteringParams::new(2, 2, 4, 0.1, 0.001);
            (ProgramSpec::SemiClustering { params }, Vec::new())
        }
        _ => {
            let params = NeighborhoodParams::default();
            (ProgramSpec::Neighborhood { params }, Vec::new())
        }
    }
}

/// Strategy: a small graph with parallel edges, self-loops, isolated
/// vertices and — when `weighted` — edge weights.
pub fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (
        prop::collection::vec((0u32..40, 0u32..40, 1u8..9), 1..160),
        any::<bool>(),
    )
        .prop_map(|(edges, weighted)| {
            let mut el = EdgeList::new();
            for (s, d, w) in edges {
                el.push_weighted(s, d, if weighted { f32::from(w) / 2.0 } else { 1.0 });
            }
            CsrGraph::from_edge_list(&el)
        })
}

/// Case count for a suite, bounded by `PROPTEST_CASES` when set (CI sets it
/// so the property suites finish in seconds).
pub fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}
