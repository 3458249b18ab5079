//! Integration tests for the persistent worker pool behind the service:
//! a warm service answers whole batches without spawning any OS thread, the
//! pool never changes prediction bytes, and the warm path performs zero
//! scratch-buffer allocations.

use predict_repro::prelude::*;
use std::sync::Arc;

fn graph() -> Arc<CsrGraph> {
    Arc::new(Dataset::Wikipedia.load_small())
}

fn workloads(n: usize) -> Vec<Arc<dyn Workload>> {
    vec![
        Arc::new(PageRankWorkload::with_epsilon(0.001, n)),
        Arc::new(TopKWorkload::default()),
        Arc::new(ConnectedComponentsWorkload),
        Arc::new(NeighborhoodWorkload::default()),
    ]
}

fn requests(g: &Arc<CsrGraph>) -> Vec<PredictRequest> {
    let config = PredictorConfig::single_ratio(0.1).with_seed(11);
    workloads(g.num_vertices())
        .into_iter()
        .map(|w| PredictRequest::new("Wiki", Arc::clone(g), w).with_config(config.clone()))
        .collect()
}

/// The tentpole's hard acceptance bar: once the pool is warm, an N-request
/// `submit_batch` spawns **zero** new OS threads — batches pipeline through
/// the same long-lived workers that also run each request's superstep
/// phases. Counted on the engine's own pool (not the process-global
/// counter), so concurrently running tests cannot interfere.
#[test]
fn a_warm_service_answers_batches_without_spawning_threads() {
    let g = graph();
    let engine = BspEngine::new(
        BspConfig::with_workers(4).with_execution(ExecutionMode::Parallel { threads: 4 }),
    );
    let service = PredictService::new(engine.clone(), Arc::new(BiasedRandomJump::default()));
    let requests = requests(&g);

    // Cold batch: allowed to spawn (lazily, bounded by pool capacity).
    let cold = service.submit_batch(&requests, 4);
    assert!(cold.iter().all(Result::is_ok));
    let spawned_after_warmup = engine.pool_threads_spawned();
    assert!(
        spawned_after_warmup > 0,
        "the pool path was not exercised at all"
    );

    // Warm batches: zero spawns, batch after batch.
    for round in 0..3 {
        let warm = service.submit_batch(&requests, 4);
        assert!(warm.iter().all(Result::is_ok));
        assert_eq!(
            engine.pool_threads_spawned(),
            spawned_after_warmup,
            "warm batch round {round} spawned new threads"
        );
    }
}

/// Pool scheduling must never leak into results: the same batch with both
/// the requests and each run's superstep phases fanned out over 2 and 4 pool
/// threads is byte-identical to the one-thread batch, which runs everything
/// in order on the caller and never touches the pool.
#[test]
fn pool_scheduling_never_changes_prediction_bytes() {
    let g = graph();
    let requests = requests(&g);
    let run = |threads: usize| -> (Vec<String>, u64) {
        let engine = BspEngine::new(
            BspConfig::with_workers(4).with_execution(ExecutionMode::Parallel { threads }),
        );
        let service = PredictService::new(engine.clone(), Arc::new(BiasedRandomJump::default()));
        let bytes = service
            .submit_batch(&requests, threads)
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("prediction succeeds")).unwrap())
            .collect();
        (bytes, engine.pool_threads_spawned())
    };
    let (reference, spawned) = run(1);
    assert_eq!(spawned, 0, "the one-thread reference must not use the pool");
    for threads in [2, 4] {
        let (pooled, spawned) = run(threads);
        assert!(spawned > 0, "{threads} threads did not exercise the pool");
        assert_eq!(
            reference, pooled,
            "{threads} pooled threads changed prediction bytes"
        );
    }
}

/// The warm path allocates nothing per request: sampler scratch buffers come
/// from the session's scratch pool (no silent fresh-allocation fallback
/// under contention).
#[test]
fn warm_batches_reuse_scratch_buffers() {
    let g = graph();
    let engine = BspEngine::default();
    let service = PredictService::new(engine, Arc::new(BiasedRandomJump::default()));
    let requests = requests(&g);
    assert!(service.submit_batch(&requests, 4).iter().all(Result::is_ok));

    let session = service.session_for("Wiki", &g);
    let warm = session.stats();
    // The batch above drew one sample (one ratio/seed pair shared by all
    // four workloads), so the scratch pool allocated at most once per
    // concurrent draw — and never more than the batch width.
    assert!(
        warm.scratch_allocations >= 1 && warm.scratch_allocations <= 4,
        "unexpected scratch allocations: {}",
        warm.scratch_allocations
    );

    for _ in 0..3 {
        assert!(service.submit_batch(&requests, 4).iter().all(Result::is_ok));
    }
    let stats = session.stats();
    assert_eq!(
        stats.scratch_allocations, warm.scratch_allocations,
        "a warm batch allocated fresh sampler scratch"
    );
}
