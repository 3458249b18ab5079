//! The in-memory engine and a cluster drive run the same master over
//! different workers: on arbitrary graphs, worker counts and partition
//! strategies the two must agree on values (bit for bit), [`RunProfile`]
//! and halt reason. This is the only random-graph coverage of shard-local
//! compute — every cluster worker sees nothing but its own `ShardedCsr`.
//!
//! [`RunProfile`]: predict_bsp::RunProfile

use predict_algorithms::{ConnectedComponents, PageRank, PageRankParams};
use predict_bsp::{BspConfig, BspEngine, PartitionStrategy, VertexProgram};
use predict_cluster::{drive, DriveOptions, ProgramSpec, TransportKind, Wire};
use predict_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

/// Case count for this suite, bounded by `PROPTEST_CASES` when set (CI sets
/// it so the property suites finish in seconds).
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

/// Graphs of 1 to 48 vertices, so the 1..8 worker range below also covers
/// more workers than vertices (empty shards).
fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (1u32..49)
        .prop_flat_map(|n| prop::collection::vec((0..n, 0..n), 1..200))
        .prop_map(|pairs| CsrGraph::from_edge_list(&pairs.into_iter().collect::<EdgeList>()))
}

/// Asserts `drive(InProc)` and `BspEngine::run` are indistinguishable for
/// `program` on `graph` under `config`, `measured` aside.
fn assert_drive_matches_engine<P>(
    program: &P,
    spec: &ProgramSpec,
    graph: &CsrGraph,
    config: &BspConfig,
    value_bits: impl Fn(&P::VertexValue) -> u64,
) where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    let in_memory = BspEngine::new(config.clone()).run(graph, program);
    let opts = DriveOptions::new(TransportKind::InProc);
    let mut driven = drive(program, spec, &[], graph, config, &opts).expect("drive succeeds");
    assert!(driven.profile.measured.take().is_some());
    assert_eq!(driven.profile, in_memory.profile);
    assert_eq!(driven.halt_reason, in_memory.halt_reason);
    let bits = |values: &[P::VertexValue]| values.iter().map(&value_bits).collect::<Vec<_>>();
    assert_eq!(bits(&driven.values), bits(&in_memory.values));
}

fn assert_pagerank_and_cc_match(graph: &CsrGraph, config: &BspConfig) {
    let params = PageRankParams::with_epsilon(0.05, graph.num_vertices());
    assert_drive_matches_engine(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        graph,
        config,
        |rank| rank.to_bits(),
    );
    assert_drive_matches_engine(
        &ConnectedComponents,
        &ProgramSpec::ConnectedComponents {},
        graph,
        config,
        |&label| label.into(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(24)))]

    #[test]
    fn in_process_drive_and_engine_run_are_identical(
        graph in graph_strategy(),
        workers in 1usize..8,
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            PartitionStrategy::Hash,
            PartitionStrategy::Range,
            PartitionStrategy::Modulo,
        ][strategy_idx];
        let config = BspConfig::with_workers(workers).with_partition_strategy(strategy);
        assert_pagerank_and_cc_match(&graph, &config);
    }
}

/// A zero-worker config runs as one worker on every executor: the clamp is
/// `BspConfig::workers`, not a per-executor habit.
#[test]
fn zero_workers_run_as_one_worker_on_both_executors() {
    let graph = predict_graph::generators::generate_rmat(
        &predict_graph::generators::RmatConfig::new(7, 4).with_seed(1),
    );
    let config = BspConfig::with_workers(0);
    assert_pagerank_and_cc_match(&graph, &config);
    let params = PageRankParams::with_epsilon(0.05, graph.num_vertices());
    let run = BspEngine::new(config).run(&graph, &PageRank::new(params));
    assert_eq!(run.profile.num_workers, 1);
    assert_eq!(run.profile.supersteps[0].workers.len(), 1);
}
