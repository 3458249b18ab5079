//! Criterion micro-benchmark: the full PREDIcT pipeline (sample, transform,
//! sample run, cost model training, extrapolation) for PageRank on a
//! small-scale dataset analog, executed cold — a fresh session per
//! iteration, so nothing is amortized. See `bench_predict_service` for the
//! cached/amortized path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use predict_algorithms::PageRankWorkload;
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{PredictorBuilder, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_sampling::BiasedRandomJump;
use std::sync::Arc;

fn bench_pipeline(c: &mut Criterion) {
    let engine = Arc::new(BspEngine::new(BspConfig::with_workers(8)));

    let mut group = c.benchmark_group("prediction_pipeline_pagerank");
    group.sample_size(10);
    for ratio in [0.05f64, 0.1, 0.2] {
        let graph =
            Arc::new(DatasetConfig::new(Dataset::Wikipedia, DatasetScale::Small).generate());
        let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());
        group.bench_with_input(BenchmarkId::from_parameter(ratio), &graph, |b, graph| {
            b.iter(|| {
                // A fresh session per iteration: every stage executes.
                let session = PredictorBuilder::new()
                    .engine(Arc::clone(&engine))
                    .sampler(BiasedRandomJump::default())
                    .config(PredictorConfig::single_ratio(ratio))
                    .bind(Arc::clone(graph), "Wiki");
                let p = session.predict(&workload).unwrap();
                std::hint::black_box(p.predicted_superstep_ms)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
