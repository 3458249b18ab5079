//! Spans recorded on worker-pool threads never move a prediction byte.
//!
//! A service whose engine fans every superstep phase out over four pool
//! threads answers a batch of the paper's four workloads twice, on fresh
//! services, once untraced and once with the tracer on. The answers must be
//! byte-identical, the pool must have run, and the trace must hold the spans
//! the pool threads record (`pool.task`) beside the phase spans they run
//! under (`bsp.compute`). It does not require spans on more than one thread
//! id: on a machine with few cores, most pooled phases run on one OS thread.
//!
//! This lives in its own integration test (own process) because it flips
//! the process-global tracer flag; tests sharing a test binary's threads
//! could otherwise observe each other's spans.

use predict_algorithms::{
    ConnectedComponentsWorkload, PageRankWorkload, SemiClusteringWorkload, TopKWorkload, Workload,
};
use predict_bsp::{BspConfig, BspEngine, ExecutionMode};
use predict_core::{PredictRequest, PredictService, PredictorConfig};
use predict_graph::datasets::Dataset;
use predict_sampling::BiasedRandomJump;
use std::sync::Arc;

/// One cold batch of the four paper workloads on a fresh four-worker,
/// four-thread service: each answer serialized, and the pool threads the
/// engine spawned.
fn pooled_batch() -> (Vec<String>, u64) {
    let g = Arc::new(Dataset::Wikipedia.load_small());
    let n = g.num_vertices();
    let workloads: [Arc<dyn Workload>; 4] = [
        Arc::new(PageRankWorkload::with_epsilon(0.001, n)),
        Arc::new(SemiClusteringWorkload::default()),
        Arc::new(TopKWorkload::default()),
        Arc::new(ConnectedComponentsWorkload),
    ];
    let config = PredictorConfig::single_ratio(0.1).with_seed(11);
    let requests: Vec<PredictRequest> = workloads
        .into_iter()
        .map(|w| PredictRequest::new("Wiki", Arc::clone(&g), w).with_config(config.clone()))
        .collect();
    let engine = BspEngine::new(
        BspConfig::with_workers(4).with_execution(ExecutionMode::Parallel { threads: 4 }),
    );
    let service = PredictService::new(engine.clone(), Arc::new(BiasedRandomJump::default()));
    let answers = service
        .submit_batch(&requests, 4)
        .into_iter()
        .map(|r| serde_json::to_string(&r.expect("prediction succeeds")).unwrap())
        .collect();
    (answers, engine.pool_threads_spawned())
}

#[test]
fn spans_recorded_on_pool_threads_move_no_prediction_byte() {
    let (untraced, spawned) = pooled_batch();
    assert!(spawned > 0, "the untraced batch did not run on the pool");

    predict_obs::trace::set_enabled(true);
    let (traced, spawned) = pooled_batch();
    predict_obs::trace::set_enabled(false);
    let events = predict_obs::trace::take_events();

    assert!(spawned > 0, "the traced batch did not run on the pool");
    assert_eq!(untraced, traced, "tracing changed a pooled prediction");
    for name in ["pool.task", "bsp.compute"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "the traced batch recorded no `{name}` span"
        );
    }
}
