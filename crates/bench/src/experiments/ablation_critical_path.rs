//! Ablation: critical-path worker model versus mean-worker model.
//!
//! The paper models superstep runtime through the worker on the critical path
//! (the slowest / most loaded worker). This ablation compares that choice
//! against representing each iteration by the *average* worker, measured by
//! the runtime prediction error of semi-clustering.

use predict_algorithms::{SemiClusteringParams, SemiClusteringWorkload};
use predict_bench::{pct, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED};
use predict_core::{PredictorConfig, WorkerSelection};
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let ratios = [0.05, 0.1, 0.2];
    let datasets = [Dataset::Wikipedia, Dataset::Uk2002];

    let mut table = ResultTable::new(
        "Ablation: critical-path vs mean-worker model (semi-clustering runtime prediction)",
        &[
            "worker model",
            "dataset",
            "ratio",
            "pred ms",
            "actual ms",
            "runtime error",
        ],
    );
    let mut payload = Vec::new();
    for (label, selection) in [
        ("critical path (paper)", WorkerSelection::SlowestWorker),
        ("mean worker", WorkerSelection::MeanWorker),
    ] {
        let points = prediction_sweep(
            &datasets,
            &ratios,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &|_g| {
                Box::new(SemiClusteringWorkload::new(SemiClusteringParams {
                    tolerance: 0.001,
                    ..SemiClusteringParams::default()
                }))
            },
            &move |ratio| {
                let mut config = PredictorConfig {
                    sampling_ratio: ratio,
                    training_ratios: vec![0.05, 0.1, 0.15, 0.2],
                    ..PredictorConfig::default()
                }
                .with_seed(EXPERIMENT_SEED);
                config.worker_selection = selection;
                config
            },
        );
        for p in &points {
            table.push_row(vec![
                label.to_string(),
                p.dataset.clone(),
                format!("{:.2}", p.ratio),
                format!("{:.0}", p.predicted_runtime_ms),
                format!("{:.0}", p.actual_runtime_ms),
                pct(p.runtime_error),
            ]);
        }
        payload.push(serde_json::json!({"worker_model": label, "points": points}));
    }
    table.emit("ablation_critical_path", &payload)
}
