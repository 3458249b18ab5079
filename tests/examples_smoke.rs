//! Smoke tests for the `examples/` directory.
//!
//! CI compiles every example (`cargo build --examples`); these tests
//! additionally exercise the exact API paths the examples walk, at small
//! scale so they run in seconds under `cargo test`.

use predict_repro::algorithms::SemiClusteringParams;
use predict_repro::prelude::*;
use std::sync::Arc;

/// The `examples/quickstart.rs` path: bind a session, evaluate a PageRank
/// prediction against the actual run and read out everything the example
/// prints.
#[test]
fn quickstart_path_produces_a_complete_evaluation() {
    let graph = Dataset::Wikipedia.load_small();
    let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());
    let session = PredictorBuilder::new()
        .engine(BspEngine::new(BspConfig::with_workers(8)))
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::default())
        .bind(graph, "Wiki");

    let evaluation = session.evaluate(&workload).expect("prediction succeeds");
    let prediction = &evaluation.prediction;

    assert!(prediction.predicted_iterations > 0);
    assert!(prediction.predicted_superstep_ms > 0.0);
    let costs = &prediction.cost_model.model.coefficients;
    assert!(costs.iter().all(|&c| c.is_finite() && c >= 0.0));
    let fixed_ms = prediction.cost_model.fixed_ms;
    assert!(fixed_ms.is_finite() && fixed_ms >= 0.0);
    assert_eq!(prediction.training.source, TrainingSource::SampleRuns);
    assert!(evaluation.actual_iterations > 0);
    assert!(evaluation.actual_superstep_ms > 0.0);
    // The sample run must be much cheaper than the actual run — the whole
    // point of PREDIcT (Table 3 caps overhead at a fraction of the job).
    assert!(evaluation.sample_overhead_ratio() < 1.0);
}

/// The `examples/capacity_planning.rs` path: predictions for several worker
/// counts, one session per candidate allocation sharing the graph.
#[test]
fn capacity_planning_path_predicts_across_worker_counts() {
    let graph = Arc::new(Dataset::Wikipedia.load_small());
    let workload = SemiClusteringWorkload::new(SemiClusteringParams::default());

    for workers in [2usize, 4] {
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(workers)))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1).with_seed(3))
            .bind(Arc::clone(&graph), "Wiki");
        let prediction = session.predict(&workload).expect("prediction succeeds");
        assert!(
            prediction.predicted_superstep_ms > 0.0,
            "workers = {workers}"
        );
    }
}

/// The `examples/feasibility_analysis.rs` path: a mixed workload predicted
/// through one session (sharing the sample draw), summed into an SLA
/// verdict.
#[test]
fn feasibility_path_sums_predictions_for_a_mixed_workload() {
    let session = PredictorBuilder::new()
        .engine(BspEngine::new(BspConfig::with_workers(8)))
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::single_ratio(0.1).with_seed(11))
        .bind(Dataset::Uk2002.load_small(), "UK");
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(PageRankWorkload::with_epsilon(
            0.001,
            session.graph().num_vertices(),
        )),
        Box::new(ConnectedComponentsWorkload),
    ];

    let mut total_ms = 0.0;
    for workload in &workloads {
        let prediction = session
            .predict(workload.as_ref())
            .expect("prediction succeeds");
        total_ms += prediction.predicted_superstep_ms;
    }
    assert!(total_ms > 0.0);
    // Both workloads shared one sampling artifact.
    assert_eq!(session.stats().samples, 1);
    assert_eq!(session.stats().sample_runs, 2);
}

/// The `examples/ranking_workload.rs` path: top-k requests served through a
/// `PredictService`.
#[test]
fn ranking_path_serves_topk_through_the_service() {
    let service = PredictService::new(
        BspEngine::new(BspConfig::with_workers(8)),
        Arc::new(BiasedRandomJump::default()),
    );
    let graph = Arc::new(Dataset::Wikipedia.load_small());
    let request = PredictRequest::new("Wiki", graph, Arc::new(TopKWorkload::default()))
        .with_config(PredictorConfig::single_ratio(0.1));
    let evaluation = service.evaluate(&request).expect("prediction succeeds");
    assert!(evaluation.prediction.predicted_iterations >= 2);
    assert!(evaluation.actual_superstep_ms > 0.0);
}
