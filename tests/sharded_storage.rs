//! Integration tests for sharded graph storage: a run that keeps the graph
//! as one `ShardedCsr` per worker is byte-identical — values, `RunProfile`
//! JSON, predictions — to the same run over the unified CSR allocation, at
//! every thread count (see `predict_bsp::storage`).

use predict_repro::prelude::*;

/// Runs `workload` on `graph` under the given storage mode and returns the
/// profile serialized to JSON (the byte-level representation the history
/// store and experiment harness persist).
fn profile_json(
    workload: &dyn Workload,
    graph: &CsrGraph,
    storage: StorageMode,
    threads: usize,
) -> String {
    let engine = BspEngine::new(
        BspConfig::with_workers(8)
            .with_storage(storage)
            .with_execution(ExecutionMode::Parallel { threads }),
    );
    let run = workload.run(&engine, graph);
    run.profile.to_json().expect("profile serializes")
}

fn assert_storage_invariant(workload: &dyn Workload, graph: &CsrGraph) {
    let unified = profile_json(workload, graph, StorageMode::Unified, 1);
    for threads in [1usize, 4] {
        let sharded = profile_json(workload, graph, StorageMode::Sharded, threads);
        assert_eq!(
            unified,
            sharded,
            "{} profile diverged under sharded storage at {threads} threads",
            workload.name()
        );
    }
}

#[test]
fn pagerank_profile_is_byte_identical_under_sharded_storage() {
    let graph = Dataset::Wikipedia.load_small();
    let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
    assert_storage_invariant(&workload, &graph);
}

#[test]
fn semi_clustering_profile_is_byte_identical_under_sharded_storage() {
    // Semi-clustering runs on the weighted undirected conversion, so this
    // pins cross-shard *weighted* edges end to end.
    let graph = Dataset::LiveJournal.load_small();
    let workload = SemiClusteringWorkload::default();
    assert_storage_invariant(&workload, &graph);
}

#[test]
fn end_to_end_prediction_is_byte_identical_under_sharded_storage() {
    // The full pipeline — sampling, sample runs, training, extrapolation —
    // rides on engine runs; pin its output bytes across storage modes and
    // thread counts via the builder's `.storage(...)` opt-in.
    let graph = std::sync::Arc::new(Dataset::Uk2002.load_small());
    let workload = TopKWorkload::default();
    let mut outputs = Vec::new();
    for (storage, threads) in [
        (StorageMode::Unified, 1usize),
        (StorageMode::Sharded, 1),
        (StorageMode::Sharded, 4),
    ] {
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(8)))
            .execution(ExecutionMode::Parallel { threads })
            .storage(storage)
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1))
            .bind(std::sync::Arc::clone(&graph), "uk2002");
        let eval = session.evaluate(&workload).expect("prediction succeeds");
        outputs.push(serde_json::to_string(&eval).expect("evaluation serializes"));
    }
    assert_eq!(outputs[0], outputs[1], "sharded storage changed the bytes");
    assert_eq!(outputs[0], outputs[2], "threads changed sharded bytes");
}

#[test]
fn prebuilt_sharded_storage_runs_without_a_unified_graph() {
    // The point of the refactor: a graph can go edge list -> shards and be
    // executed without ever existing as one allocation. Only the reference
    // result materializes the unified CSR.
    let graph = Dataset::Wikipedia.load_small();
    let edge_list = graph.to_edge_list();
    let config = BspConfig::with_workers(8);
    let storage = GraphStorage::shard_edge_list(&edge_list, 8, config.partition_strategy);
    assert_eq!(storage.num_vertices(), graph.num_vertices());
    assert_eq!(storage.num_edges(), graph.num_edges());

    let engine = BspEngine::new(config);
    let program = predict_repro::algorithms::pagerank::PageRank::new(Default::default());
    let workload_graph_free = engine.run_storage(&storage, &program);
    let unified = engine.run(&graph, &program);
    assert_eq!(workload_graph_free.values, unified.values);
    assert_eq!(workload_graph_free.profile, unified.profile);
}
