//! Section 5.1 (text): sensitivity of semi-clustering iteration prediction to
//! the `S_max` and `V_max` parameters on the LiveJournal analog.
//!
//! The paper increases `S_max` from 1 to 3 and `V_max` from 10 to 20 and
//! observes that, for sampling ratios of 0.1 or larger, the relative errors
//! stay within similar bounds as the base settings.

use predict_algorithms::{SemiClusteringParams, SemiClusteringWorkload};
use predict_bench::{pct, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let ratios = [0.05, 0.1, 0.15, 0.2, 0.25];

    let variants: Vec<(&str, SemiClusteringParams)> = vec![
        ("base (Smax=1, Vmax=10)", SemiClusteringParams::default()),
        (
            "Smax=3",
            SemiClusteringParams {
                s_max: 3,
                c_max: 3,
                ..SemiClusteringParams::default()
            },
        ),
        (
            "Vmax=20",
            SemiClusteringParams {
                v_max: 20,
                ..SemiClusteringParams::default()
            },
        ),
    ];

    let mut table = ResultTable::new(
        "Semi-clustering sensitivity to Smax / Vmax on the LJ analog (iteration prediction)",
        &[
            "variant",
            "ratio",
            "pred iters",
            "actual iters",
            "iter error",
        ],
    );
    let mut payload = Vec::new();
    for (label, params) in &variants {
        let params = *params;
        let points = prediction_sweep(
            &[Dataset::LiveJournal],
            &ratios,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &move |_g| Box::new(SemiClusteringWorkload::new(params)),
            &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
        );
        for p in &points {
            table.push_row(vec![
                label.to_string(),
                format!("{:.2}", p.ratio),
                p.predicted_iterations.to_string(),
                p.actual_iterations.to_string(),
                pct(p.iteration_error),
            ]);
        }
        payload.push(serde_json::json!({"variant": label, "points": points}));
    }
    table.emit("semiclustering_sensitivity", &payload)
}
