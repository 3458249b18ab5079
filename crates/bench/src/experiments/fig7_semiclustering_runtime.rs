//! Figure 7: relative error of the predicted runtime for semi-clustering.
//!
//! Two training regimes, as in the paper: (a) the cost model is trained on
//! sample runs only (ratios 0.05, 0.1, 0.15, 0.2), and (b) it is additionally
//! trained on the actual runs of the other datasets ("history"). The paper
//! reports the signed relative runtime error per sampling ratio; beside it,
//! the predicted and actual iteration counts show how much of a runtime miss
//! the iteration prediction explains.

use predict_algorithms::{SemiClusteringParams, SemiClusteringWorkload};
use predict_bench::{
    pct, prediction_sweep, HistoryMode, PredictionPoint, ResultTable, EXPERIMENT_SEED,
    PAPER_SAMPLING_RATIOS,
};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

fn sweep(history: HistoryMode) -> Vec<PredictionPoint> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let datasets = [Dataset::LiveJournal, Dataset::Wikipedia, Dataset::Uk2002];
    prediction_sweep(
        &datasets,
        &PAPER_SAMPLING_RATIOS,
        Arc::clone(&sampler),
        history,
        &|_g| {
            Box::new(SemiClusteringWorkload::new(SemiClusteringParams {
                tolerance: 0.001,
                ..SemiClusteringParams::default()
            }))
        },
        &|ratio| {
            PredictorConfig {
                sampling_ratio: ratio,
                training_ratios: vec![0.05, 0.1, 0.15, 0.2],
                ..PredictorConfig::default()
            }
            .with_seed(EXPERIMENT_SEED)
        },
    )
}

pub fn run() -> std::io::Result<()> {
    let without_history = sweep(HistoryMode::SampleRunsOnly);
    let with_history = sweep(HistoryMode::WithHistory);

    let mut table = ResultTable::new(
        "Figure 7: predicting runtime for semi-clustering (a: sample runs, b: + history)",
        &[
            "training",
            "dataset",
            "ratio",
            "pred ms",
            "actual ms",
            "runtime error",
            "pred / actual iters",
        ],
    );
    for (label, points) in [
        ("sample-only", &without_history),
        ("with-history", &with_history),
    ] {
        for p in points {
            table.push_row(vec![
                label.to_string(),
                p.dataset.clone(),
                format!("{:.2}", p.ratio),
                format!("{:.0}", p.predicted_runtime_ms),
                format!("{:.0}", p.actual_runtime_ms),
                pct(p.runtime_error),
                format!("{} / {}", p.predicted_iterations, p.actual_iterations),
            ]);
        }
    }
    let payload = serde_json::json!({
        "sample_only": without_history,
        "with_history": with_history,
    });
    table.emit("fig7_semiclustering_runtime", &payload)
}
