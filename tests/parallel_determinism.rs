//! Integration tests for the parallel runtime's determinism contract: the
//! `RunProfile` of a workload — counters, aggregates and simulated timings —
//! serializes to byte-identical JSON no matter how many OS threads execute
//! the superstep phases (see `predict_bsp::runtime`).

use predict_repro::prelude::*;

/// Runs `workload` on `graph` under the given execution mode and returns the
/// profile serialized to JSON (the byte-level representation the history
/// store and experiment harness persist).
fn profile_json(workload: &dyn Workload, graph: &CsrGraph, mode: ExecutionMode) -> String {
    let engine = BspEngine::new(BspConfig::with_workers(8).with_execution(mode));
    let run = workload.run(&engine, graph);
    run.profile.to_json().expect("profile serializes")
}

fn assert_thread_count_invariant(workload: &dyn Workload, graph: &CsrGraph) {
    let sequential = profile_json(workload, graph, ExecutionMode::Sequential);
    for threads in [1usize, 2, 4] {
        let parallel = profile_json(workload, graph, ExecutionMode::Parallel { threads });
        assert_eq!(
            sequential,
            parallel,
            "{} profile diverged at {threads} threads",
            workload.name()
        );
    }
}

#[test]
fn pagerank_profile_is_byte_identical_across_thread_counts() {
    let graph = Dataset::Wikipedia.load_small();
    let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
    assert_thread_count_invariant(&workload, &graph);
}

#[test]
fn semi_clustering_profile_is_byte_identical_across_thread_counts() {
    let graph = Dataset::LiveJournal.load_small();
    let workload = SemiClusteringWorkload::default();
    assert_thread_count_invariant(&workload, &graph);
}

#[test]
fn end_to_end_prediction_is_byte_identical_across_thread_counts() {
    // The full pipeline — sampling, sample runs, training, extrapolation —
    // rides on engine runs; pin its output bytes across execution modes too.
    let graph = std::sync::Arc::new(Dataset::Uk2002.load_small());
    let workload = TopKWorkload::default();
    let mut outputs = Vec::new();
    for mode in [
        ExecutionMode::Sequential,
        ExecutionMode::Parallel { threads: 2 },
        ExecutionMode::Parallel { threads: 4 },
    ] {
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(
                BspConfig::with_workers(8).with_execution(mode),
            ))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1))
            .bind(std::sync::Arc::clone(&graph), "UK");
        let prediction = session.predict(&workload).expect("prediction succeeds");
        outputs.push(serde_json::to_string(&prediction).expect("prediction serializes"));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}
