//! The cost model recovers the simulated cluster clock.
//!
//! Without noise, a worker's simulated time is a non-negative linear
//! function of its Table 1 counters, and a superstep adds a fixed overhead
//! and barrier on top of its slowest worker (`predict_bsp::ClusterClock`).
//! Trained on the sample runs of PageRank, top-k and semi-clustering, the
//! per-worker non-negative fit must therefore reproduce every worker's time
//! and the fixed term must be exactly that overhead plus barrier. Only
//! predictions are asserted, not coefficients: PageRank's columns are
//! collinear (every vertex is active, every message is 8 bytes), so many
//! coefficient vectors give the same times.

use predict_algorithms::{
    PageRankWorkload, SemiClusteringParams, SemiClusteringWorkload, TopKWorkload, Workload,
};
use predict_bsp::{BspConfig, BspEngine, ClusterCostConfig, RunProfile};
use predict_core::{CostModel, FeatureSet, PredictorBuilder, PredictorConfig, TransformFunction};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_sampling::BiasedRandomJump;

#[test]
fn the_per_worker_fit_reproduces_the_noiseless_clock() {
    let cost = ClusterCostConfig::noiseless();
    let graph = generate_rmat(&RmatConfig::new(11, 8).with_seed(21));
    let n = graph.num_vertices();
    let config = PredictorConfig::default();
    let session = PredictorBuilder::new()
        .engine(BspEngine::new(
            BspConfig::with_workers(8).with_cost(cost.clone()),
        ))
        .sampler(BiasedRandomJump::default())
        .config(config.clone())
        .bind(graph, "noiseless");
    let workloads: [Box<dyn Workload>; 3] = [
        Box::new(PageRankWorkload::with_epsilon(0.001, n)),
        Box::new(TopKWorkload::default()),
        Box::new(SemiClusteringWorkload::new(SemiClusteringParams::default())),
    ];
    for workload in &workloads {
        let transform = TransformFunction::default_for(workload.convergence());
        let runs: Vec<_> = config
            .training_ratios
            .iter()
            .enumerate()
            .map(|(i, &ratio)| {
                let seed = config.seed.wrapping_add(1 + i as u64);
                session
                    .sample_run(workload.as_ref(), ratio, seed, transform)
                    .unwrap()
            })
            .collect();
        let profiles: Vec<&RunProfile> = runs.iter().map(|r| &r.profile).collect();
        let model = CostModel::train(&profiles).unwrap();
        let name = workload.name();

        let fixed = cost.superstep_overhead_ms + cost.barrier_ms;
        assert!(
            (model.fixed_ms - fixed).abs() <= 1e-9 * fixed,
            "{name}: fixed term {} ms, the clock pays {fixed} ms",
            model.fixed_ms
        );
        let mut rows = 0;
        for superstep in profiles.iter().flat_map(|p| &p.supersteps) {
            // Relative to the superstep's slowest worker, so an idle worker
            // (0 ms) is held to the same absolute scale as its peers.
            let slowest = superstep
                .worker_times_ms
                .iter()
                .copied()
                .fold(0.0, f64::max);
            for (counters, &actual) in superstep.workers.iter().zip(&superstep.worker_times_ms) {
                let predicted = model.model.predict(&FeatureSet::from_counters(counters));
                assert!(
                    (predicted - actual).abs() <= 1e-9 * slowest.max(actual),
                    "{name}: superstep {} predicted {predicted} ms for a worker that took \
                     {actual} ms",
                    superstep.superstep
                );
                rows += 1;
            }
        }
        assert_eq!(rows, model.training_observations, "{name}");
        assert!(rows >= 8 * 4, "{name}: only {rows} training rows");
    }
}
