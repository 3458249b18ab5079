//! Figure 6: relative error of the predicted key input features for top-k
//! ranking — number of iterations (top plot) and remote message bytes (bottom
//! plot) — as a function of the sampling ratio.
//!
//! Top-k ranking runs on PageRank output with convergence threshold
//! `τ = 0.001`; the transform function keeps the threshold unchanged because
//! convergence is a ratio of updating vertices.

use predict_algorithms::{TopKParams, TopKWorkload};
use predict_bench::{
    pct, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED, PAPER_SAMPLING_RATIOS,
};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let datasets = [Dataset::LiveJournal, Dataset::Wikipedia, Dataset::Uk2002];

    let points = prediction_sweep(
        &datasets,
        &PAPER_SAMPLING_RATIOS,
        Arc::clone(&sampler),
        HistoryMode::SampleRunsOnly,
        &|_g| Box::new(TopKWorkload::new(TopKParams::new(5, 0.001), 0.01)),
        &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
    );

    let mut table = ResultTable::new(
        "Figure 6: predicting key features for top-k ranking (iterations and remote message bytes)",
        &[
            "dataset",
            "ratio",
            "pred iters",
            "actual iters",
            "iter error",
            "remote bytes error",
        ],
    );
    for p in &points {
        table.push_row(vec![
            p.dataset.clone(),
            format!("{:.2}", p.ratio),
            p.predicted_iterations.to_string(),
            p.actual_iterations.to_string(),
            pct(p.iteration_error),
            pct(p.remote_bytes_error),
        ]);
    }
    table.emit("fig6_topk_features", &points)
}
