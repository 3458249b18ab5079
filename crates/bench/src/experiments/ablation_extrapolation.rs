//! Ablation: extrapolation rule (per-feature vs single-factor).
//!
//! Section 3.4 of the paper extrapolates vertex-dependent features by the
//! vertex ratio and message-dependent features by the edge ratio. This
//! ablation compares that per-feature rule against scaling everything by only
//! the vertex ratio or only the edge ratio, measured by the runtime prediction
//! error of top-k ranking.

use predict_algorithms::{TopKParams, TopKWorkload};
use predict_bench::{pct, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED};
use predict_core::{ExtrapolationRule, PredictorConfig};
use predict_graph::datasets::Dataset;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let ratios = [0.05, 0.1, 0.2];
    let datasets = [Dataset::Wikipedia, Dataset::Uk2002];

    let mut table = ResultTable::new(
        "Ablation: extrapolation rule (top-k ranking runtime prediction)",
        &[
            "rule",
            "dataset",
            "ratio",
            "pred ms",
            "actual ms",
            "runtime error",
        ],
    );
    let mut payload = Vec::new();
    for (label, rule) in [
        ("per-feature (paper)", ExtrapolationRule::PerFeature),
        ("vertices-only", ExtrapolationRule::VerticesOnly),
        ("edges-only", ExtrapolationRule::EdgesOnly),
    ] {
        let points = prediction_sweep(
            &datasets,
            &ratios,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            &|_g| Box::new(TopKWorkload::new(TopKParams::new(5, 0.001), 0.01)),
            &move |ratio| {
                let mut config = PredictorConfig {
                    sampling_ratio: ratio,
                    training_ratios: vec![0.05, 0.1, 0.15, 0.2],
                    ..PredictorConfig::default()
                }
                .with_seed(EXPERIMENT_SEED);
                config.extrapolation_rule = rule;
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
        payload.push(serde_json::json!({"rule": label, "points": points}));
    }
    table.emit("ablation_extrapolation", &payload)
}
