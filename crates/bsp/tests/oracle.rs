//! The runtime against the oracle ([`reference::reference_run`]): the
//! in-memory runtime — storing each payload once and routing handles,
//! folding at delivery by reference (top-k included), routing as it
//! computes, fanning phases out over a pool — must produce the
//! reference run's vertex values and [`RunProfile`](predict_bsp::RunProfile)
//! bit for bit, for every program of `predict_algorithms`, at every thread
//! count. A second property checks the message accounting and the
//! worker-count independence that bit-equality cannot show, since the oracle
//! counts messages by the same definitions. A third holds the runtime's
//! edge groups, through which a broadcast is routed, equal to routing it
//! edge by edge.

mod reference;

use predict_algorithms::{with_program, ProgramSpec};
use predict_bsp::storage::WorkerGraph;
use predict_bsp::{
    BspConfig, BspEngine, EdgeGroups, ExecutionMode, PartitionStrategy, ShardLayout, VertexProgram,
};
use predict_graph::CsrGraph;
use proptest::prelude::*;
use reference::{assert_same_run, graph_strategy, program_case, reference_run, suite_cases};
use std::fmt::Debug;

/// The engine at `threads` threads against the oracle.
fn check<P>(
    program: &P,
    graph: &CsrGraph,
    workers: usize,
    threads: usize,
) -> Result<(), TestCaseError>
where
    P: VertexProgram,
    P::VertexValue: Debug + PartialEq,
{
    // Default costs are noisy: equal times mean equal counters *and* the
    // same draws from the clock's noise stream.
    let config = BspConfig::with_workers(workers)
        .with_max_supersteps(40)
        .with_execution(match threads {
            1 => ExecutionMode::Sequential,
            threads => ExecutionMode::Parallel { threads },
        });
    let reference = reference_run(program, graph, &config);
    let run = BspEngine::new(config).run(graph, program);
    assert_same_run(&(run.values, run.profile, run.halt_reason), &reference)
}

/// One worker sends nothing remote; in superstep 0 a program that
/// broadcasts sends one message per edge, local plus remote; and the final
/// values of an order-free program do not depend on the worker count.
fn accounting<P>(
    program: &P,
    graph: &CsrGraph,
    workers: usize,
    broadcasts: bool,
    order_free: bool,
) -> Result<(), TestCaseError>
where
    P: VertexProgram,
    P::VertexValue: Debug + PartialEq,
{
    let run = |workers| {
        BspEngine::new(BspConfig::with_workers(workers).with_max_supersteps(40)).run(graph, program)
    };
    let (single, multi) = (run(1), run(workers));
    for superstep in &single.profile.supersteps {
        prop_assert_eq!(superstep.totals().remote_messages, 0);
    }
    if broadcasts {
        for result in [&single, &multi] {
            let first = result.profile.supersteps[0].totals();
            let sent = first.local_messages + first.remote_messages;
            prop_assert_eq!(sent as usize, graph.num_edges());
        }
    }
    if order_free {
        prop_assert_eq!(
            format!("{:?}", single.values),
            format!("{:?}", multi.values)
        );
    }
    Ok(())
}

/// Worker `w`'s edge groups against per-edge routing: in slot order, each
/// vertex's groups are its out-neighbors' `(owner_of, slot_of)` routes split
/// by destination worker, one group per worker in ascending order, and its
/// `(local, remote)` counts are the per-edge counts.
fn groups_route_every_edge(
    graph: &CsrGraph,
    layout: &ShardLayout,
    w: usize,
    groups: &EdgeGroups,
) -> Result<(), TestCaseError> {
    for (slot, &v) in layout.shard_vertices(w).iter().enumerate() {
        let routes: Vec<(usize, u32)> = graph
            .out_neighbors(v)
            .iter()
            .map(|&n| (layout.owner_of(n), layout.slot_of(n) as u32))
            .collect();
        let mut owners: Vec<usize> = routes.iter().map(|r| r.0).collect();
        owners.sort_unstable();
        owners.dedup();
        let grouped: Vec<usize> = groups.of_vertex(slot).map(|g| groups.worker(g)).collect();
        prop_assert_eq!(&grouped, &owners, "vertex {}", v);
        for g in groups.of_vertex(slot) {
            let dst = groups.worker(g);
            let slots: Vec<u32> = routes.iter().filter(|r| r.0 == dst).map(|r| r.1).collect();
            prop_assert_eq!(
                groups.slots(g),
                &slots[..],
                "vertex {} to worker {}",
                v,
                dst
            );
        }
        let local = routes.iter().filter(|r| r.0 == w).count() as u64;
        let counts = (local, routes.len() as u64 - local);
        prop_assert_eq!(groups.edge_counts(slot), counts, "vertex {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(96)))]

    #[test]
    fn the_runtime_equals_the_reference_interpreter(
        graph in graph_strategy(),
        algorithm in 0usize..reference::PROGRAMS,
        workers in 1usize..7,
        threads in 0usize..3,
    ) {
        let threads = [1, 2, 4][threads];
        let (spec, ranks) = program_case(algorithm, &graph);
        with_program!(&spec, ranks, |program| check(program, &graph, workers, threads))?;
    }

    #[test]
    fn messages_are_accounted_and_values_ignore_the_worker_count(
        graph in graph_strategy(),
        algorithm in 0usize..reference::PROGRAMS,
        workers in 2usize..7,
    ) {
        let (spec, ranks) = program_case(algorithm, &graph);
        // SSSP starts from its source alone; every other program broadcasts.
        let broadcasts = !matches!(spec, ProgramSpec::ShortestPaths { .. });
        // PageRank sums floats in delivery order, which is worker order.
        let order_free = !matches!(spec, ProgramSpec::PageRank { .. });
        with_program!(&spec, ranks, |program| {
            accounting(program, &graph, workers, broadcasts, order_free)
        })?;
    }

    #[test]
    fn edge_groups_equal_per_edge_routing(
        graph in graph_strategy(),
        workers in 1usize..10,
        strategy in 0usize..3,
    ) {
        let strategy = [
            PartitionStrategy::Hash,
            PartitionStrategy::Range,
            PartitionStrategy::Modulo,
        ][strategy];
        let layout = ShardLayout::build(graph.num_vertices(), workers, strategy);
        let shards = predict_graph::shard_csr(&graph, workers, |v| layout.owner_of(v));
        for (w, shard) in shards.iter().enumerate() {
            let groups = EdgeGroups::build(WorkerGraph::Unified(&graph), &layout, w);
            groups_route_every_edge(&graph, &layout, w, &groups)?;
            // A cluster worker, which sees only its own shard, builds the same.
            prop_assert_eq!(&EdgeGroups::build(WorkerGraph::Shard(shard), &layout, w), &groups);
        }
    }
}
