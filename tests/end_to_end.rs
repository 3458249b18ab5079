//! Cross-crate integration tests: the full PREDIcT pipeline on small-scale
//! dataset analogs, for every workload of the paper's evaluation, driven
//! through the session API.
//!
//! These tests assert the *shape* of the paper's headline results rather than
//! absolute numbers: predictions exist, iteration counts land in the right
//! ballpark on scale-free graphs, runtime predictions are within loose error
//! bands, and sample runs are much cheaper than actual runs.

use predict_repro::algorithms::{SemiClusteringParams, TopKParams};
use predict_repro::prelude::*;
use std::sync::Arc;

fn predictor_config() -> PredictorConfig {
    // The paper's training protocol: extrapolate from the 10% sample run,
    // train the cost model on sample runs at ratios 0.05-0.2 so the
    // regression sees feature variation across scales.
    PredictorConfig::default().with_seed(7)
}

fn session(dataset: Dataset, label: &str) -> PredictionSession {
    PredictorBuilder::new()
        .engine(BspEngine::new(BspConfig::with_workers(8)))
        .sampler(BiasedRandomJump::default())
        .config(predictor_config())
        .bind(dataset.load_small(), label)
}

#[test]
fn pagerank_end_to_end_on_scale_free_analog() {
    let session = session(Dataset::Wikipedia, "Wiki");
    let workload = PageRankWorkload::with_epsilon(0.001, session.graph().num_vertices());
    let eval = session.evaluate(&workload).expect("prediction succeeds");

    // Headline shape: iteration prediction within a factor of ~2 even on the
    // tiny test-scale analog (the synthetic analogs are far better mixed than
    // the paper's real web graphs, so their samples converge relatively
    // faster; see EXPERIMENTS.md for the quantitative comparison at the
    // default experiment scale), and runtime prediction within ~60%.
    assert!(
        eval.iteration_error().abs() <= 0.65,
        "PageRank iteration error too large: {:+.2} ({} predicted vs {} actual)",
        eval.iteration_error(),
        eval.prediction.predicted_iterations,
        eval.actual_iterations
    );
    assert!(
        eval.runtime_error().abs() <= 0.6,
        "PageRank runtime error too large: {:+.2}",
        eval.runtime_error()
    );
    assert!(eval.sample_overhead_ratio() < 0.6);
}

#[test]
fn topk_end_to_end_has_bounded_feature_and_runtime_errors() {
    let session = session(Dataset::Uk2002, "UK");
    let workload = TopKWorkload::new(TopKParams::new(5, 0.001), 0.01);
    let eval = session.evaluate(&workload).expect("prediction succeeds");

    assert!(eval.prediction.predicted_iterations >= 2);
    assert!(
        eval.remote_bytes_error().abs() <= 0.8,
        "remote bytes error too large: {:+.2}",
        eval.remote_bytes_error()
    );
    assert!(
        eval.runtime_error().abs() <= 1.0,
        "top-k runtime error too large: {:+.2}",
        eval.runtime_error()
    );
    // Top-k is the paper's variable-runtime algorithm: per-iteration
    // predictions must actually vary.
    let per_iter = &eval.prediction.per_iteration_ms;
    let max = per_iter.iter().cloned().fold(0.0f64, f64::max);
    let min = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max > min * 1.2,
        "per-iteration predictions should vary: {min} .. {max}"
    );
}

#[test]
fn semi_clustering_end_to_end_produces_a_prediction() {
    let session = session(Dataset::Wikipedia, "Wiki");
    let workload = SemiClusteringWorkload::new(SemiClusteringParams::default());
    let eval = session.evaluate(&workload).expect("prediction succeeds");

    assert!(eval.prediction.predicted_iterations >= 2);
    assert!(eval.prediction.predicted_superstep_ms > 0.0);
    assert!(eval.actual_superstep_ms > 0.0);
    assert!(
        eval.iteration_error().abs() <= 0.75,
        "semi-clustering iteration error too large: {:+.2}",
        eval.iteration_error()
    );
}

#[test]
fn connected_components_and_neighborhood_are_predictable() {
    let session = session(Dataset::Uk2002, "UK");

    for workload in [
        Box::new(ConnectedComponentsWorkload) as Box<dyn Workload>,
        Box::new(NeighborhoodWorkload::default()) as Box<dyn Workload>,
    ] {
        let eval = session
            .evaluate(workload.as_ref())
            .expect("prediction succeeds");
        assert!(
            eval.prediction.predicted_iterations >= 2,
            "{}",
            workload.name()
        );
        assert!(
            eval.prediction.predicted_superstep_ms > 0.0,
            "{}",
            workload.name()
        );
    }
    // Both workloads shared the session's (ratio, seed) sample draws: at
    // most one sampling artifact per configured ratio, not per workload.
    assert!(session.stats().samples <= predictor_config().training_ratios.len() + 1);
}

#[test]
fn scale_free_analogs_predict_better_than_livejournal_on_average() {
    // The paper's recurring observation: LiveJournal (not power-law) is the
    // hardest dataset for sample-based iteration prediction. Compare the mean
    // absolute iteration error of the scale-free analogs against LJ's over a
    // few seeds to keep the comparison stable.
    let engine = Arc::new(BspEngine::new(BspConfig::with_workers(8)));

    let mean_error = |dataset: Dataset| -> f64 {
        let session = PredictorBuilder::new()
            .engine(Arc::clone(&engine))
            .sampler(BiasedRandomJump::default())
            .bind(dataset.load_small(), dataset.prefix());
        let workload = PageRankWorkload::with_epsilon(0.001, session.graph().num_vertices());
        let mut total = 0.0;
        let seeds = [3u64, 11, 29];
        for &seed in &seeds {
            let eval = session
                .evaluate_with(
                    &workload,
                    &PredictorConfig::single_ratio(0.1).with_seed(seed),
                )
                .expect("prediction succeeds");
            total += eval.iteration_error().abs();
        }
        total / seeds.len() as f64
    };

    let wiki = mean_error(Dataset::Wikipedia);
    let uk = mean_error(Dataset::Uk2002);
    let lj = mean_error(Dataset::LiveJournal);
    let scale_free_mean = (wiki + uk) / 2.0;
    assert!(
        scale_free_mean <= lj + 0.15,
        "scale-free analogs should not be clearly worse than LJ: wiki {wiki:.2}, uk {uk:.2}, lj {lj:.2}"
    );
}
