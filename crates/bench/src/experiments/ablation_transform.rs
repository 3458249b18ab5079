//! Ablation: prediction with and without the transform function.
//!
//! The paper's motivating example (Figure 2 / section 1.1) argues that a
//! sampling technique alone cannot preserve the number of iterations — the
//! convergence threshold must also be rescaled. This ablation runs the
//! PageRank iteration-prediction experiment twice: once with the default
//! transform (`τ_S = τ_G / sr`) and once with the identity transform
//! (`τ_S = τ_G`), showing how badly iteration prediction degrades without it.

use predict_algorithms::PageRankWorkload;
use predict_bench::{pct, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED};
use predict_core::{PredictorConfig, TransformFunction};
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let ratios = [0.05, 0.1, 0.2];
    let datasets = [Dataset::Wikipedia, Dataset::Uk2002];
    let epsilon = 0.001;

    let mut table = ResultTable::new(
        "Ablation: PageRank iteration prediction with vs without the transform function",
        &[
            "transform",
            "dataset",
            "ratio",
            "pred iters",
            "actual iters",
            "iter error",
        ],
    );
    let mut payload = Vec::new();
    for (label, transform) in [
        ("default (tau/sr)", None),
        ("identity (no scaling)", Some(TransformFunction::identity())),
    ] {
        let points = prediction_sweep(
            &datasets,
            &ratios,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &move |g| Box::new(PageRankWorkload::with_epsilon(epsilon, g.num_vertices())),
            &move |ratio| {
                let mut config = PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED);
                config.transform = transform;
                config
            },
        );
        for p in &points {
            table.push_row(vec![
                label.to_string(),
                p.dataset.clone(),
                format!("{:.2}", p.ratio),
                p.predicted_iterations.to_string(),
                p.actual_iterations.to_string(),
                pct(p.iteration_error),
            ]);
        }
        payload.push(serde_json::json!({"transform": label, "points": points}));
    }
    table.emit("ablation_transform", &payload)
}
