//! Criterion benchmark of the `PredictService` amortization win: repeated
//! prediction requests against one dataset through the cached session
//! (`service_repeated`) versus a freshly bound cold session per request
//! (`cold_session`) that re-samples and re-trains on every call.
//!
//! The scheduler pattern the paper targets — many queries, same dataset —
//! hits the cached path, whose per-request cost collapses to extrapolation
//! plus model evaluation. Repeated-request throughput is expected to be well
//! above 2x the cold path (the acceptance bar for this redesign); the
//! `submit_batch` group additionally shows worker-pool batching.

use criterion::{criterion_group, criterion_main, Criterion};
use predict_algorithms::{
    ConnectedComponentsWorkload, NeighborhoodWorkload, PageRankWorkload, TopKWorkload, Workload,
};
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{PredictRequest, PredictService, PredictorBuilder, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::CsrGraph;
use predict_sampling::BiasedRandomJump;
use std::sync::Arc;

fn graph() -> Arc<CsrGraph> {
    Arc::new(DatasetConfig::new(Dataset::Wikipedia, DatasetScale::Small).generate())
}

fn workloads(n: usize) -> Vec<Arc<dyn Workload>> {
    vec![
        Arc::new(PageRankWorkload::with_epsilon(0.001, n)),
        Arc::new(TopKWorkload::default()),
        Arc::new(ConnectedComponentsWorkload),
        Arc::new(NeighborhoodWorkload::default()),
    ]
}

fn bench_service(c: &mut Criterion) {
    let graph = graph();
    let workloads = workloads(graph.num_vertices());
    let config = PredictorConfig::single_ratio(0.1);

    let mut group = c.benchmark_group("predict_service");
    group.sample_size(10);

    // Baseline: a fresh session per workload, so nothing is amortized.
    group.bench_function("cold_session", |b| {
        let engine = Arc::new(BspEngine::new(BspConfig::with_workers(8)));
        b.iter(|| {
            let mut total = 0.0;
            for workload in &workloads {
                let session = PredictorBuilder::new()
                    .engine(Arc::clone(&engine))
                    .config(config.clone())
                    .bind(Arc::clone(&graph), "Wiki");
                total += session
                    .predict(workload.as_ref())
                    .unwrap()
                    .predicted_superstep_ms;
            }
            std::hint::black_box(total)
        })
    });

    // The service path: the first batch warms the caches, every measured
    // request reuses the sample runs and trained models.
    group.bench_function("service_repeated", |b| {
        let service = PredictService::new(
            BspEngine::new(BspConfig::with_workers(8)),
            Arc::new(BiasedRandomJump::default()),
        );
        let requests: Vec<PredictRequest> = workloads
            .iter()
            .map(|w| {
                PredictRequest::new("Wiki", Arc::clone(&graph), Arc::clone(w))
                    .with_config(config.clone())
            })
            .collect();
        for request in &requests {
            service.submit(request).unwrap(); // warm-up
        }
        b.iter(|| {
            let mut total = 0.0;
            for request in &requests {
                total += service.submit(request).unwrap().predicted_superstep_ms;
            }
            std::hint::black_box(total)
        })
    });

    // Batched submission on the worker pool (deterministic output order).
    group.bench_function("service_submit_batch", |b| {
        let service = PredictService::new(
            BspEngine::new(BspConfig::with_workers(8)),
            Arc::new(BiasedRandomJump::default()),
        );
        let requests: Vec<PredictRequest> = workloads
            .iter()
            .map(|w| {
                PredictRequest::new("Wiki", Arc::clone(&graph), Arc::clone(w))
                    .with_config(config.clone())
            })
            .collect();
        service.submit_batch(&requests, 4); // warm-up
        b.iter(|| {
            let results = service.submit_batch(&requests, 4);
            std::hint::black_box(results.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
