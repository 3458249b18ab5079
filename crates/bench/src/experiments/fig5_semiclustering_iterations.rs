//! Figure 5: relative error of the predicted number of iterations for
//! semi-clustering, as a function of the sampling ratio.
//!
//! Base settings follow section 5.1: `C_max = 1`, `S_max = 1`, `V_max = 10`,
//! `f_B = 0.1`, with convergence ratios `τ = 0.01` and `τ = 0.001`. Twitter is
//! excluded, as in the paper (its semi-clustering run exceeded the cluster's
//! memory); the analog exclusion keeps the figure's dataset set identical.

use predict_algorithms::{SemiClusteringParams, SemiClusteringWorkload};
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
    let datasets = [Dataset::LiveJournal, Dataset::Wikipedia, Dataset::Uk2002];
    let mut all_points: Vec<(f64, Vec<PredictionPoint>)> = Vec::new();

    for &tau in &[0.01, 0.001] {
        let points = prediction_sweep(
            &datasets,
            &PAPER_SAMPLING_RATIOS,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &move |_g| {
                Box::new(SemiClusteringWorkload::new(SemiClusteringParams {
                    tolerance: tau,
                    ..SemiClusteringParams::default()
                }))
            },
            &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
        );
        all_points.push((tau, points));
    }

    let mut table = ResultTable::new(
        "Figure 5: predicting iterations for semi-clustering (BRJ sampling)",
        &[
            "tau",
            "dataset",
            "ratio",
            "pred iters",
            "actual iters",
            "rel. error",
        ],
    );
    for (tau, points) in &all_points {
        for p in points {
            table.push_row(vec![
                format!("{tau}"),
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
        .flat_map(|(t, pts)| {
            pts.iter()
                .map(move |p| serde_json::json!({"tau": t, "point": p}))
        })
        .collect();
    table.emit("fig5_semiclustering_iterations", &flat)
}
