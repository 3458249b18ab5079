//! Figure 4: relative error of the predicted number of iterations for
//! PageRank, as a function of the sampling ratio.
//!
//! The paper sweeps sampling ratios 0.01–0.25 on all four datasets, with the
//! convergence threshold `τ = ε / N` for tolerance levels `ε = 0.01` (top
//! plot) and `ε = 0.001` (bottom plot), BRJ sampling and the default transform
//! (`τ_S = τ_G / sr`).

use predict_algorithms::PageRankWorkload;
use predict_bench::{
    pct, prediction_sweep, HistoryMode, PredictionPoint, ResultTable, EXPERIMENT_SEED,
    PAPER_SAMPLING_RATIOS,
};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let mut all_points: Vec<(f64, Vec<PredictionPoint>)> = Vec::new();

    for &epsilon in &[0.01, 0.001] {
        let points = prediction_sweep(
            &Dataset::ALL,
            &PAPER_SAMPLING_RATIOS,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &move |g| Box::new(PageRankWorkload::with_epsilon(epsilon, g.num_vertices())),
            &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
        );
        all_points.push((epsilon, points));
    }

    let mut table = ResultTable::new(
        "Figure 4: predicting iterations for PageRank (BRJ sampling)",
        &[
            "epsilon",
            "dataset",
            "ratio",
            "pred iters",
            "actual iters",
            "rel. error",
        ],
    );
    for (epsilon, points) in &all_points {
        for p in points {
            table.push_row(vec![
                format!("{epsilon}"),
                p.dataset.clone(),
                format!("{:.2}", p.ratio),
                p.predicted_iterations.to_string(),
                p.actual_iterations.to_string(),
                pct(p.iteration_error),
            ]);
        }
    }
    let flat: Vec<_> = all_points
        .iter()
        .flat_map(|(e, pts)| {
            pts.iter()
                .map(move |p| serde_json::json!({"epsilon": e, "point": p}))
        })
        .collect();
    table.emit("fig4_pagerank_iterations", &flat)
}
